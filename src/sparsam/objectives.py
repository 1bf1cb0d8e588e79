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
from typing import Sequence

import numpy as np

from sparsam.errors import DivergenceError
from sparsam.layered import ActiveSet, LayeredVector
from sparsam.rng import stream


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
    whole buffer and the gradient one expression per run of active layers.

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
            centers = [np.zeros(d) for d in dims]
        centers = [np.ascontiguousarray(c, dtype=np.float64).reshape(-1) for c in centers]
        if tuple(c.size for c in centers) != dims:
            raise ValueError("center dims do not match layer dims")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        self._dims = dims
        self._scale = np.repeat(scales, dims)
        self._center = np.concatenate(centers)
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
        # Overflow to inf is the divergence signal, not a warning condition.
        with np.errstate(over="ignore", invalid="ignore"):
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
        with np.errstate(over="ignore", invalid="ignore"):
            for s in x.active_slices(active):
                gs = g.data[s]
                np.subtract(x.data[s], self._center[s], out=gs)
                gs *= self._scale[s]
                if z is not None:
                    gs += z[s]
        return self.loss(x, batch), g

    def init_params(self, seed: int) -> LayeredVector:
        # Deterministic start one unit from each center; seed is unused here
        # but kept so all objectives share the same signature.
        del seed
        return LayeredVector.from_flat(self._center + 1.0, self._dims)


class MlpClassifier(Objective):
    """Fully connected softmax classifier with mean cross-entropy loss.

    `widths` lists layer widths input first, logits last. Hidden stages
    apply `activation` (tanh or relu); the final stage is linear. With
    bias_mode="separate" each affine stage contributes two layers (weight
    matrix, bias vector); with "fused" the pair forms a single layer, which
    gives every layer the same parameter count when all widths are equal.
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

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    def _unpack(self, x: LayeredVector, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Weight matrix and bias of affine stage i as views into x."""
        fan_in, fan_out = self.widths[i], self.widths[i + 1]
        if self.bias_mode == "fused":
            block = x[i]
            w = block[: fan_in * fan_out].reshape(fan_in, fan_out)
            b = block[fan_in * fan_out :]
        else:
            w = x[2 * i].reshape(fan_in, fan_out)
            b = x[2 * i + 1]
        return w, b

    def _stage_layers(self, i: int) -> tuple[int, ...]:
        return (i,) if self.bias_mode == "fused" else (2 * i, 2 * i + 1)

    def _act(self, z: np.ndarray) -> np.ndarray:
        return np.tanh(z) if self.activation == "tanh" else np.maximum(z, 0.0)

    def _act_deriv(self, z: np.ndarray, a: np.ndarray) -> np.ndarray:
        # tanh' expressed through the activation value to reuse the forward cache.
        return 1.0 - a * a if self.activation == "tanh" else (z > 0.0).astype(np.float64)

    def _forward(self, x: LayeredVector, inputs: np.ndarray) -> tuple[list, list]:
        acts, pre = [np.ascontiguousarray(inputs, dtype=np.float64)], []
        # Overflow to inf/nan surfaces as a divergence error at the loss check.
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(self.n_stages):
                w, b = self._unpack(x, i)
                z = acts[-1] @ w + b
                pre.append(z)
                acts.append(self._act(z) if i < self.n_stages - 1 else z)
        return acts, pre

    def logits(self, x: LayeredVector, inputs: np.ndarray) -> np.ndarray:
        self._check_x(x)
        return self._forward(x, inputs)[0][-1]

    def predict(self, x: LayeredVector, inputs: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x, inputs), axis=1)

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def _ce(self, logits: np.ndarray, targets: np.ndarray) -> float:
        if targets.min() < 0 or targets.max() >= self.n_classes:
            raise ValueError(f"targets outside [0, {self.n_classes})")
        with np.errstate(over="ignore", invalid="ignore"):
            log_p = self._log_softmax(logits)
            return float(-log_p[np.arange(targets.size), targets].mean())

    def loss(self, x: LayeredVector, batch: Batch | None) -> float:
        if batch is None:
            raise ValueError("MlpClassifier has no population objective; pass a batch")
        self._check_x(x)
        return self._check_loss(self._ce(self.logits(x, batch.inputs), batch.targets))

    def loss_and_grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet
    ) -> tuple[float, LayeredVector]:
        if batch is None:
            raise ValueError("MlpClassifier has no population objective; pass a batch")
        self._check_x(x)
        active.validate(self.n_layers)
        acts, pre = self._forward(x, batch.inputs)
        logits = acts[-1]
        loss = self._check_loss(self._ce(logits, batch.targets))

        n = batch.size
        probs = np.exp(self._log_softmax(logits))
        delta = probs
        delta[np.arange(n), batch.targets] -= 1.0
        delta /= n

        g = LayeredVector.zeros(self._dims)
        # Backprop runs through every stage; masking only skips writing the
        # per-layer gradient blocks, so active blocks match the full gradient
        # bit for bit.
        for i in range(self.n_stages - 1, -1, -1):
            layers = self._stage_layers(i)
            touched = any(l in active for l in layers)
            if touched:
                dw = acts[i].T @ delta
                db = delta.sum(axis=0)
                if self.bias_mode == "fused":
                    if layers[0] in active:
                        g.blocks[layers[0]] = np.concatenate([dw.reshape(-1), db])
                else:
                    if layers[0] in active:
                        g.blocks[layers[0]] = dw.reshape(-1)
                    if layers[1] in active:
                        g.blocks[layers[1]] = db
            if i > 0:
                w, _ = self._unpack(x, i)
                delta = (delta @ w.T) * self._act_deriv(pre[i - 1], acts[i])
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


def finite_diff_grad(
    obj: Objective, x: LayeredVector, batch: Batch | None, h: float = 1e-6
) -> LayeredVector:
    """Central-difference gradient, one objective pair per coordinate."""
    if h <= 0:
        raise ValueError("h must be positive")
    g = LayeredVector.zeros(x.dims)
    for l in range(x.n_layers):
        for j in range(x.dims[l]):
            orig = x[l][j]
            x[l][j] = orig + h
            up = obj.loss(x, batch)
            x[l][j] = orig - h
            down = obj.loss(x, batch)
            x[l][j] = orig
            g[l][j] = (up - down) / (2.0 * h)
    return g
