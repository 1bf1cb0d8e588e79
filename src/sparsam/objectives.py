"""Layered objectives with exact gradients.

Two families: analytic block quadratics (optionally with per-batch
gradient noise) and a small fully connected softmax classifier. Both
expose gradients restricted to an active layer set with the guarantee
that restriction only masks blocks: the surviving blocks are
bit-identical to the corresponding blocks of the full gradient.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from sparsam.errors import DivergenceError
from sparsam.layered import ActiveSet, LayeredVector
from sparsam.rng import stream


def _quiet() -> np.errstate:
    """The floating-point state of a pass: overflow to inf or NaN is the
    divergence signal, raised by the loss check, not a warning."""
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class Batch:
    """One minibatch. `id` keys deterministic per-batch noise streams."""

    inputs: np.ndarray
    targets: np.ndarray
    id: int = 0

    def __post_init__(self) -> None:
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        targets = np.ascontiguousarray(self.targets, dtype=np.int64)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-d (batch, features), got shape {inputs.shape}")
        if targets.ndim != 1:
            raise ValueError(f"targets must be 1-d, got shape {targets.shape}")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(f"{inputs.shape[0]} input rows vs {targets.shape[0]} targets")
        if inputs.shape[0] < 1:
            raise ValueError("batch must hold at least one sample")
        if self.id < 0:
            raise ValueError("batch id must be non-negative")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


class Objective(ABC):
    """A loss over a layered parameter vector."""

    @property
    @abstractmethod
    def layer_dims(self) -> tuple[int, ...]: ...

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims)

    @property
    def dim(self) -> int:
        return sum(self.layer_dims)

    @abstractmethod
    def loss(self, x: LayeredVector, batch: Batch | None) -> float: ...

    @abstractmethod
    def loss_and_grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet
    ) -> tuple[float, LayeredVector]: ...

    def grad(self, x: LayeredVector, batch: Batch | None, active: ActiveSet) -> LayeredVector:
        return self.loss_and_grad(x, batch, active)[1]

    @abstractmethod
    def init_params(self, seed: int) -> LayeredVector: ...

    def _check_x(self, x: LayeredVector) -> None:
        if x.dims != self.layer_dims:
            raise ValueError(f"parameter dims {x.dims} do not match objective dims {self.layer_dims}")

    def _check_loss(self, value: float) -> float:
        value = float(value)
        if not np.isfinite(value):
            raise DivergenceError(f"loss is non-finite ({value})")
        return value


class BlockQuadratic(Objective):
    """f(x, batch) = sum_l a_l/2 ||x_l - c_l||^2 + <z_batch, x>.

    The noise vector z is zero-mean Gaussian with scale `noise_sigma`,
    drawn whole from one stream keyed by (noise_seed, batch.id), so the
    same batch always sees the same drift and restricting the gradient
    to a layer subset never changes any layer's draw.
    `batch=None` selects the noiseless population objective.

    Scales, centers and noise are kept as flat per-entry arrays laid out
    like a LayeredVector's buffer, so the loss is one expression over the
    whole buffer and the gradient one expression per key of
    `LayeredVector.select`.

    The noise of the latest batch id is memoised, so a step that
    evaluates the loss and one or more gradients on one batch draws its
    stream once. The memo is exact: the draw is a pure function of
    (noise_seed, batch.id). It holds one batch (a new id replaces it),
    so it costs one parameter vector, and it is read-only so no caller
    can alter a later draw.
    """

    def __init__(
        self,
        layer_dims: Sequence[int],
        scales: Sequence[float] | None = None,
        centers: Sequence[np.ndarray] | None = None,
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer dims {dims}")
        if scales is None:
            scales = [1.0] * len(dims)
        scales = [float(a) for a in scales]
        if len(scales) != len(dims) or any(a <= 0 for a in scales):
            raise ValueError("need one positive scale per layer")
        if centers is None:
            center = np.zeros(sum(dims))
        else:
            centers = [np.ascontiguousarray(c, dtype=np.float64).reshape(-1) for c in centers]
            if tuple(c.size for c in centers) != dims:
                raise ValueError("center dims do not match layer dims")
            center = np.concatenate(centers)
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self._dims = dims
        self._scale = np.repeat(scales, dims)
        self._center = center
        self.noise_sigma = float(noise_sigma)
        self.noise_seed = int(noise_seed)
        self._noise_id: int | None = None
        self._noise_memo: np.ndarray | None = None

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return self._dims

    def _noise(self, batch: Batch | None) -> np.ndarray | None:
        """The flat noise vector of `batch`, or None for a noiseless call."""
        if batch is None or self.noise_sigma == 0.0:
            return None
        if batch.id != self._noise_id:
            z = stream(self.noise_seed, "noise", batch.id).standard_normal(self.dim)
            z *= self.noise_sigma
            z.flags.writeable = False
            self._noise_id, self._noise_memo = batch.id, z
        return self._noise_memo

    def loss(self, x: LayeredVector, batch: Batch | None) -> float:
        self._check_x(x)
        z = self._noise(batch)
        with _quiet():
            diff = x.data - self._center
            total = 0.5 * float((self._scale * diff).dot(diff))
            if z is not None:
                total += float(z.dot(x.data))
        return self._check_loss(total)

    def loss_and_grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet
    ) -> tuple[float, LayeredVector]:
        self._check_x(x)
        g = LayeredVector.zeros(self._dims)
        z = self._noise(batch)
        with _quiet():
            for k in x.select(active):
                gs = g.data[k]
                np.subtract(x.data[k], self._center[k], out=gs)
                gs *= self._scale[k]
                if z is not None:
                    gs += z[k]
                g.data[k] = gs
        return self.loss(x, batch), g

    def init_params(self, seed: int) -> LayeredVector:
        # Deterministic start one unit from each center; seed is unused here
        # but kept so all objectives share the same signature.
        del seed
        return LayeredVector.from_flat(self._center + 1.0, self._dims)


class _Workspace(NamedTuple):
    """Buffers of one batch row count, one entry per affine stage i."""

    pre: list[np.ndarray]  # z_i = a_i @ W_i + b_i; the last one holds the logits
    act: list[np.ndarray]  # a_{i+1} = activation(z_i), hidden stages only
    delta: list[np.ndarray]  # d loss / d z_i
    deriv: list[np.ndarray]  # activation'(z_i), hidden stages only


class MlpClassifier(Objective):
    """Fully connected softmax classifier with mean cross-entropy loss.

    `widths` lists layer widths input first, logits last. Hidden stages
    apply `activation` (tanh or relu); the final stage is linear. With
    bias_mode="separate" each affine stage contributes two layers (weight
    matrix, bias vector); with "fused" the pair forms a single layer, which
    gives every layer the same parameter count when all widths are equal.

    Passes compute into a workspace kept per batch row count: one
    (rows, width) buffer per stage for the pre-activation, the hidden
    activation, the backprop delta and the activation derivative. It is
    built on a row count's first pass and reused by every later pass
    with that count, so a warm pass allocates nothing of batch size
    (a few (rows, classes) softmax temporaries aside). Nothing of it
    escapes: gradients are fresh LayeredVectors and `logits()` and
    `predict()` return fresh arrays. Being per-instance scratch, it makes
    one instance unsafe to share between threads.
    """

    def __init__(
        self,
        widths: Sequence[int],
        activation: str = "tanh",
        bias_mode: str = "separate",
    ) -> None:
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"bad widths {widths}")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        if bias_mode not in ("separate", "fused"):
            raise ValueError(f"unknown bias_mode {bias_mode!r}")
        self.widths = widths
        self.activation = activation
        self.bias_mode = bias_mode
        self.n_stages = len(widths) - 1
        dims = []
        for i in range(self.n_stages):
            w_dim = widths[i] * widths[i + 1]
            b_dim = widths[i + 1]
            if bias_mode == "fused":
                dims.append(w_dim + b_dim)
            else:
                dims.extend([w_dim, b_dim])
        self._dims = tuple(dims)
        self._work: dict[int, _Workspace] = {}

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    def _unpack(self, x: LayeredVector, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Weight matrix and bias of affine stage i as views into x's buffer,
        where in either bias mode the bias directly follows the weights."""
        fan_in, fan_out = self.widths[i], self.widths[i + 1]
        start = x.offsets[self._stage_layers(i)[0]]
        mid = start + fan_in * fan_out
        return x.data[start:mid].reshape(fan_in, fan_out), x.data[mid : mid + fan_out]

    def _stage_layers(self, i: int) -> tuple[int, int]:
        """The layers holding stage i's weight matrix and its bias."""
        return (i, i) if self.bias_mode == "fused" else (2 * i, 2 * i + 1)

    def _workspace(self, rows: int) -> _Workspace:
        ws = self._work.get(rows)
        if ws is None:
            outs, hidden = self.widths[1:], self.widths[1:-1]
            ws = _Workspace(
                pre=[np.empty((rows, w)) for w in outs],
                act=[np.empty((rows, w)) for w in hidden],
                delta=[np.empty((rows, w)) for w in outs],
                deriv=[np.empty((rows, w)) for w in hidden],
            )
            self._work[rows] = ws
        return ws

    def _forward(
        self, x: LayeredVector, inputs: np.ndarray
    ) -> tuple[list[np.ndarray], _Workspace]:
        """Activations a_0 (the inputs) to a_L (the logits), computed into
        the workspace of the inputs' row count. Callers run it under
        `_quiet()`, like the rest of their pass."""
        acts = [np.ascontiguousarray(inputs, dtype=np.float64)]
        ws = self._workspace(acts[0].shape[0])
        for i in range(self.n_stages):
            w, b = self._unpack(x, i)
            z = np.matmul(acts[-1], w, out=ws.pre[i])
            z += b
            if i == self.n_stages - 1:
                acts.append(z)
            elif self.activation == "tanh":
                acts.append(np.tanh(z, out=ws.act[i]))
            else:
                acts.append(np.maximum(z, 0.0, out=ws.act[i]))
        return acts, ws

    def _act_deriv(self, z: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.activation == "tanh":
            # tanh' = 1 - a*a, through the activation value the forward pass kept.
            np.multiply(a, a, out=out)
            return np.subtract(1.0, out, out=out)
        return np.greater(z, 0.0, out=out)

    def logits(self, x: LayeredVector, inputs: np.ndarray) -> np.ndarray:
        self._check_x(x)
        with _quiet():
            return self._forward(x, inputs)[0][-1].copy()

    def predict(self, x: LayeredVector, inputs: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x, inputs), axis=1)

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def _ce(self, log_p: np.ndarray, targets: np.ndarray) -> float:
        """The checked mean cross-entropy, from the log-probabilities."""
        if targets.min() < 0 or targets.max() >= self.n_classes:
            raise ValueError(f"targets outside [0, {self.n_classes})")
        # What .mean() computes: the pairwise sum over the row count.
        return self._check_loss(-(log_p[np.arange(targets.size), targets].sum() / targets.size))

    def loss(self, x: LayeredVector, batch: Batch | None) -> float:
        # A pass over no layers runs the forward pass and no backprop.
        return self.loss_and_grad(x, batch, ActiveSet())[0]

    def loss_and_grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet
    ) -> tuple[float, LayeredVector]:
        if batch is None:
            raise ValueError("MlpClassifier has no population objective; pass a batch")
        self._check_x(x)
        active.validate(self.n_layers)
        with _quiet():
            acts, ws = self._forward(x, batch.inputs)
            log_p = self._log_softmax(acts[-1])
            loss = self._ce(log_p, batch.targets)

            n = batch.size
            delta = np.exp(log_p, out=ws.delta[-1])
            delta[np.arange(n), batch.targets] -= 1.0
            delta /= n

            g = LayeredVector.zeros(self._dims)
            # Backprop stops at the lowest stage holding an active layer, and
            # each stage computes only its active blocks. A block's arithmetic
            # does not depend on which other layers are active, so active
            # blocks match the full gradient bit for bit.
            per_stage = 1 if self.bias_mode == "fused" else 2
            lowest = min(active, default=self.n_layers) // per_stage
            for i in range(self.n_stages - 1, lowest - 1, -1):
                w_layer, b_layer = self._stage_layers(i)
                gw, gb = self._unpack(g, i)
                if w_layer in active:
                    np.matmul(acts[i].T, delta, out=gw)
                if b_layer in active:
                    np.add.reduce(delta, axis=0, out=gb)  # np.sum without its wrapper
                if i > lowest:
                    w, _ = self._unpack(x, i)
                    delta = np.matmul(delta, w.T, out=ws.delta[i - 1])
                    delta *= self._act_deriv(ws.pre[i - 1], acts[i], ws.deriv[i - 1])
        return loss, g

    def init_params(self, seed: int) -> LayeredVector:
        rng = stream(seed, "init")
        blocks = []
        for i in range(self.n_stages):
            fan_in, fan_out = self.widths[i], self.widths[i + 1]
            w = rng.normal(0.0, fan_in ** -0.5, size=fan_in * fan_out)
            b = np.zeros(fan_out)
            if self.bias_mode == "fused":
                blocks.append(np.concatenate([w, b]))
            else:
                blocks.extend([w, b])
        return LayeredVector(blocks)

