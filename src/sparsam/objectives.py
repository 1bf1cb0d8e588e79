"""Layered objectives with exact gradients.

Two families: analytic block quadratics (optionally with per-batch
gradient noise) and a small fully connected softmax classifier. Both
compute gradients for an active layer set whose active blocks are
bit-identical to the corresponding blocks of the full gradient; what a
returned gradient holds outside the set is left to the objective, and
no caller reads it (`Objective.loss_and_grad`).
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from sparsam.errors import DivergenceError
from sparsam.layered import ActiveSet, LayeredVector, layout
from sparsam.rng import stream


def _quiet() -> np.errstate:
    """The floating-point state of a pass: overflow to inf or NaN is the
    divergence signal, raised by the loss check, not a warning."""
    return np.errstate(over="ignore", invalid="ignore")


def as_labels(values: np.ndarray, name: str) -> np.ndarray:
    """`values` as a contiguous int64 array. Integer and bool arrays are
    cast as they are; a float array must hold only whole numbers within
    int64's range (so no NaN or inf), checked before the cast, which would
    truncate them or warn on NaN; any other dtype is refused."""
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind == "f":
        if not ((np.abs(values) < 2.0**63) & (np.trunc(values) == values)).all():
            raise ValueError(f"{name} must be whole numbers; casting them to int64 would change them")
    elif kind not in "biu":
        raise ValueError(f"{name} must be integers, got dtype {values.dtype}")
    return np.ascontiguousarray(values, dtype=np.int64)


@dataclass(frozen=True)
class Batch:
    """One minibatch. `id` indexes the deterministic per-batch noise stream:
    a non-negative integer (a NumPy integer too), held as an int."""

    inputs: np.ndarray
    targets: np.ndarray
    id: int = 0

    def __post_init__(self) -> None:
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        targets = as_labels(self.targets, "targets")
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-d (batch, features), got shape {inputs.shape}")
        if targets.ndim != 1:
            raise ValueError(f"targets must be 1-d, got shape {targets.shape}")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(f"{inputs.shape[0]} input rows vs {targets.shape[0]} targets")
        if inputs.shape[0] < 1:
            raise ValueError("batch must hold at least one sample")
        # operator.index takes the types with __index__: int, bool and the
        # NumPy integers.
        if not hasattr(type(self.id), "__index__") or operator.index(self.id) < 0:
            raise ValueError(f"batch id must be a non-negative integer, got {self.id!r}")
        object.__setattr__(self, "id", operator.index(self.id))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


class Objective(ABC):
    """A loss over a layered parameter vector.

    The layout is fixed on construction: `layer_dims` and the buffer
    offsets come from one `layout()` call, which also refuses an empty
    layout, an empty layer or a layer size that is not an integer.
    """

    def __init__(self, dims: Sequence[int]) -> None:
        self.layer_dims, self._offsets = layout(*dims)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims)

    @property
    def dim(self) -> int:
        return self._offsets[-1]

    @abstractmethod
    def loss(self, x: LayeredVector, batch: Batch | None) -> float: ...

    @abstractmethod
    def loss_and_grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet, reuse: bool = False
    ) -> tuple[float, LayeredVector]:
        """Loss at x and its gradient on the active layers.

        The returned gradient's active blocks are the full gradient's, bit
        for bit. Its other blocks hold whatever the objective computed:
        the full gradient for the quadratic, +0.0 for the MLP. No caller
        reads them: the optimizers read a gradient through the set's
        select() keys, and the norms reduce the set's span and drop the
        results of the layers outside it.

        `reuse=True` says that this objective's latest pass with the
        batch's row count ran on this same `batch` object, at a point
        equal to x on every layer below the lowest active one. An
        objective that keeps activations reads the layers below from that
        pass instead of recomputing them; the result is the same bit for
        bit.
        """

    def grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet, reuse: bool = False
    ) -> LayeredVector:
        return self.loss_and_grad(x, batch, active, reuse)[1]

    @abstractmethod
    def init_params(self, seed: int) -> LayeredVector: ...

    def _check_x(self, x: LayeredVector) -> None:
        if x.dims != self.layer_dims:
            raise ValueError(f"parameter dims {x.dims} do not match objective dims {self.layer_dims}")

    def _check_loss(self, value: float) -> float:
        value = float(value)
        if not math.isfinite(value):
            raise DivergenceError(f"loss is non-finite ({value})")
        return value


class BlockQuadratic(Objective):
    """f(x, batch) = sum_l a_l/2 ||x_l||^2 + <z_batch, x>.

    The noise vector z is zero-mean Gaussian with scale `noise_sigma`,
    drawn whole from entry batch.id of the ("noise",) stream under
    noise_seed, so the same batch always sees the same drift and
    restricting the gradient to a layer subset never changes any layer's
    draw.
    `batch=None` selects the noiseless population objective.

    Scales and noise are kept as flat per-entry arrays laid out like a
    LayeredVector's buffer, so a pass is one dense expression over the
    whole buffer: the gradient scale * x + z, and the loss
    0.5 * (scale * x)·x + z·x, two dot products on top of it.
    Every pass returns that gradient, whatever its set: the loss reads
    every entry, so the whole gradient costs one expression, and the
    blocks outside the set are the full gradient's too, which no caller
    reads. No pass runs `loss()`.

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
        noise_sigma: float = 0.0,
        noise_seed: int = 0,
    ) -> None:
        scales = self.check(layer_dims, scales, noise_sigma)
        super().__init__(layer_dims)
        self._scale = np.repeat(scales, self.layer_dims)
        self.noise_sigma = float(noise_sigma)
        self.noise_seed = int(noise_seed)
        self._noise_id: int | None = None
        self._noise_memo: np.ndarray | None = None

    @staticmethod
    def check(
        layer_dims: Sequence[int], scales: Sequence[float] | None, noise_sigma: float
    ) -> list[float]:
        """The per-layer scales as floats (all 1.0 when None), once the
        parameters are checked without building an objective: raises
        ValueError on a bad layout, a scale count other than the layer
        count, or a scale or noise_sigma that is not finite and positive
        (zero allowed for noise_sigma)."""
        dims = layout(*layer_dims)[0]
        scales = [1.0] * len(dims) if scales is None else [float(a) for a in scales]
        # NaN fails this check and the noise check below too.
        if len(scales) != len(dims) or not all(0.0 < a < np.inf for a in scales):
            raise ValueError("need one positive, finite scale per layer")
        if not 0.0 <= noise_sigma < np.inf:
            raise ValueError("noise_sigma must be non-negative and finite")
        return scales

    def _noise(self, batch: Batch | None) -> np.ndarray | None:
        """The flat noise vector of `batch`, or None for a noiseless call."""
        if batch is None or self.noise_sigma == 0.0:
            return None
        if batch.id != self._noise_id:
            z = stream(self.noise_seed, "noise", index=batch.id).standard_normal(self.dim)
            z *= self.noise_sigma
            z.flags.writeable = False
            self._noise_id, self._noise_memo = batch.id, z
        return self._noise_memo

    def _pass(self, x: LayeredVector, batch: Batch | None) -> tuple[float, np.ndarray]:
        """The unchecked loss at x and the gradient scale * x + z over the
        whole buffer."""
        z = self._noise(batch)
        with _quiet():
            grad = self._scale * x.data
            total = 0.5 * float(grad.dot(x.data))
            if z is not None:
                total += float(z.dot(x.data))
                grad += z
        return total, grad

    def loss(self, x: LayeredVector, batch: Batch | None) -> float:
        return self.loss_and_grad(x, batch, ActiveSet())[0]

    def loss_and_grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet, reuse: bool = False
    ) -> tuple[float, LayeredVector]:
        # A quadratic keeps no activations, so `reuse` is ignored.
        self._check_x(x)
        active.validate(self.n_layers)
        total, grad = self._pass(x, batch)
        return self._check_loss(total), LayeredVector._wrap(grad, x.dims, x.offsets)

    def init_params(self, seed: int) -> LayeredVector:
        # Deterministic start at all ones; seed is unused here but kept so
        # all objectives share the same signature.
        del seed
        return LayeredVector._wrap(np.ones(self._offsets[-1]), self.layer_dims, self._offsets)


@dataclass(eq=False)
class _Workspace:
    """Buffers of one batch row count: three per hidden stage i, one for
    the logits, one for the output stage's delta, and the indices that
    pick each row's target out of a (rows, classes) array, built once
    with the workspace."""

    rows: np.ndarray  # np.arange(row count)
    starts: np.ndarray  # rows * classes, where each row starts in a flat (rows, classes) buffer
    act: list[np.ndarray]  # a_{i+1} = tanh(a_i @ W_i + b_i), computed in place
    logits: np.ndarray  # a_L @ W_L + b_L
    delta: list[np.ndarray]  # d loss / d (a_i @ W_i + b_i), one per stage
    deriv: list[np.ndarray]  # tanh' = 1 - a_{i+1} * a_{i+1}
    held: Batch | None = None  # the batch of the pass whose activations act and logits hold


class MlpClassifier(Objective):
    """Fully connected softmax classifier with mean cross-entropy loss.

    `widths` lists layer widths input first, logits last. Hidden stages
    apply tanh, the only `activation`; the final stage is linear. With
    bias_mode="separate" each affine stage contributes two layers (weight
    matrix, bias vector); with "fused" the pair forms a single layer, which
    gives every layer the same parameter count when all widths are equal.

    A stage table built once per instance gives each affine stage's
    weight and bias slices of the parameter buffer, the weights' shape
    and the layers holding them; passes read weights, biases and their
    gradient blocks through it as views, so a pass makes few Python-level
    calls on small nets. The softmax reduces a (classes, rows) copy of the
    logits along axis 0, which folds the classes in class order: the bits
    of NumPy's own row max and row sum below 8 classes, where those fold
    in class order too. From 8 classes NumPy sums a row pairwise, and the
    class-order sum may differ from it in the last bit.

    Passes compute into a workspace kept per batch row count: three
    (rows, width) buffers per hidden stage, for its activation (its
    affine output, then tanh of it in place), its backprop delta and its
    tanh derivative; the logits and the output stage's delta; and the
    row and flat indices that pick each row's target. It is built on a
    row count's first pass and reused by every later pass with that
    count, so a warm pass allocates nothing of batch size (a few (rows,
    classes) softmax temporaries aside). Nothing of it
    escapes: gradients are fresh LayeredVectors and `logits()` and
    `predict()` return fresh arrays. Being per-instance scratch, it makes
    one instance unsafe to share between threads.

    A pass can start above the input. The workspace records the batch
    of the pass whose activations it holds. A pass with `reuse=True`
    computes the forward and backprop only from the lowest stage holding
    an active layer up and reads the activation entering that stage from
    the workspace. The caller vouches that its point agrees with the
    held pass's on every stage below, as a SAM descent point does with
    its ascent point, so every loss and gradient keeps its bits. Such a
    pass skips the target range check the held pass made. Reuse when the
    workspace of the batch's row count holds no pass on this same
    `Batch` object (there was none, or a later pass on another batch or
    a forward for `logits()` overwrote it) raises ValueError.
    """

    def __init__(
        self,
        widths: Sequence[int],
        activation: str = "tanh",
        bias_mode: str = "separate",
    ) -> None:
        self.widths = widths = self.check(widths, activation, bias_mode)
        self.bias_mode = bias_mode
        self.n_stages = len(widths) - 1
        # The stage table, one entry per affine stage: the slice of the
        # buffer holding its weights, their (fan_in, fan_out) shape, the
        # slice holding its bias, which directly follows the weights in
        # either mode, and the layers holding the two (one layer if fused).
        self._stages: list[tuple[slice, tuple[int, int], slice, int, int]] = []
        dims, start = [], 0
        for shape in zip(widths, widths[1:]):
            mid = start + shape[0] * shape[1]
            end = mid + shape[1]
            if bias_mode == "fused":
                layers = (len(dims), len(dims))
                dims.append(end - start)
            else:
                layers = (len(dims), len(dims) + 1)
                dims.extend([mid - start, end - mid])
            self._stages.append((slice(start, mid), shape, slice(mid, end), *layers))
            start = end
        super().__init__(dims)
        self._work: dict[int, _Workspace] = {}

    @staticmethod
    def check(widths: Sequence[int], activation: str, bias_mode: str) -> list[int]:
        """The widths as ints, once the parameters are checked without
        building an objective: raises ValueError on fewer than two widths,
        a width that is not a positive integer, or an activation or
        bias_mode the net does not have."""
        # operator.index takes the types with __index__: int, bool and the
        # NumPy integers, so a float or a string width is refused, not cast.
        try:
            widths = [operator.index(w) for w in widths]
        except TypeError:
            raise ValueError(f"bad widths {list(widths)}") from None
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"bad widths {widths}")
        if activation != "tanh":
            raise ValueError(f"unknown activation {activation!r}")
        if bias_mode not in ("separate", "fused"):
            raise ValueError(f"unknown bias_mode {bias_mode!r}")
        return widths

    @property
    def n_classes(self) -> int:
        return self.widths[-1]

    def _workspace(self, rows: int) -> _Workspace:
        ws = self._work.get(rows)
        if ws is None:
            hidden = self.widths[1:-1]
            ws = _Workspace(
                rows=np.arange(rows),
                starts=np.arange(0, rows * self.n_classes, self.n_classes),
                act=[np.empty((rows, w)) for w in hidden],
                logits=np.empty((rows, self.n_classes)),
                delta=[np.empty((rows, w)) for w in self.widths[1:]],
                deriv=[np.empty((rows, w)) for w in hidden],
            )
            self._work[rows] = ws
        return ws

    def _forward(
        self, x: LayeredVector, inputs: np.ndarray, start: int = 0
    ) -> tuple[list[np.ndarray], _Workspace]:
        """Activations a_0 (the inputs, contiguous float64 as a Batch holds
        them) to a_L (the logits) in the workspace of the inputs' row count.
        Stages from `start` up are computed; the activations below are what
        the workspace holds. Callers run it under `_quiet()`, like the rest
        of their pass."""
        ws = self._workspace(inputs.shape[0])
        ws.held = None
        acts = [inputs, *ws.act, ws.logits]
        for i in range(start, self.n_stages):
            w, shape, b, _, _ = self._stages[i]
            z = np.matmul(acts[i], x.data[w].reshape(shape), out=acts[i + 1])
            z += x.data[b]
            if i < self.n_stages - 1:  # the logits have no activation
                np.tanh(z, out=z)
        return acts, ws

    def _start_stage(self, reuse: bool, batch: Batch, lowest: int) -> int:
        """The first stage a pass computes. Without reuse that is stage 0,
        once the inputs are checked to have the net's input width and the
        targets to lie in range; reusing a held pass on `batch`, which
        checked them, it is the lowest stage holding an active layer."""
        if not reuse:
            self._check_width(batch.inputs)
            t = batch.targets
            if np.minimum.reduce(t) < 0 or np.maximum.reduce(t) >= self.n_classes:
                raise ValueError(f"targets outside [0, {self.n_classes})")
            return 0
        ws = self._work.get(batch.size)
        if ws is None or ws.held is not batch:
            raise ValueError("nothing to reuse: the workspace holds no pass on this batch")
        return lowest

    def _check_width(self, inputs: np.ndarray) -> None:
        if inputs.ndim != 2 or inputs.shape[1] != self.widths[0]:
            raise ValueError(
                f"inputs must be 2-d with {self.widths[0]} columns, got shape {inputs.shape}"
            )

    def logits(self, x: LayeredVector, inputs: np.ndarray) -> np.ndarray:
        self._check_x(x)
        inputs = np.ascontiguousarray(inputs, dtype=np.float64)
        self._check_width(inputs)
        with _quiet():
            return self._forward(x, inputs)[0][-1].copy()

    def predict(self, x: LayeredVector, inputs: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x, inputs), axis=1)

    @staticmethod
    def _log_softmax(logits: np.ndarray) -> np.ndarray:
        """The log-softmax of each row of the (rows, classes) logits, as
        the transposed view of a (classes, rows) copy. The row max and the
        row sum reduce along axis 0 of that copy: one call each, folding
        the classes in class order. Along axis 1 NumPy runs one small
        inner loop per row."""
        shifted = logits.T.copy()
        shifted -= np.maximum.reduce(shifted, axis=0)
        shifted -= np.log(np.add.reduce(np.exp(shifted), axis=0))
        return shifted.T

    def _ce(self, log_p: np.ndarray, targets: np.ndarray, rows: np.ndarray) -> float:
        """The checked mean cross-entropy, from the log-probabilities of
        targets already checked to lie in range; `rows` is the row index."""
        # What .mean() computes: the pairwise sum over the row count.
        return self._check_loss(-(np.add.reduce(log_p[rows, targets]) / targets.size))

    @staticmethod
    def _output_delta(log_p: np.ndarray, targets: np.ndarray, ws: _Workspace) -> np.ndarray:
        """d loss / d logits, (softmax - one-hot) / rows, in the workspace's
        output delta: 1.0 is subtracted at each row's target through one
        flat index, and no other entry is touched."""
        delta = np.exp(log_p, out=ws.delta[-1])
        delta.reshape(-1)[ws.starts + targets] -= 1.0
        delta /= targets.size
        return delta

    def loss(self, x: LayeredVector, batch: Batch | None) -> float:
        # A pass over no layers runs the forward pass and no backprop.
        return self.loss_and_grad(x, batch, ActiveSet())[0]

    def loss_and_grad(
        self, x: LayeredVector, batch: Batch | None, active: ActiveSet, reuse: bool = False
    ) -> tuple[float, LayeredVector]:
        if batch is None:
            raise ValueError("MlpClassifier has no population objective; pass a batch")
        self._check_x(x)
        active.validate(self.n_layers)
        per_stage = 1 if self.bias_mode == "fused" else 2
        lowest = min(active, default=self.n_layers) // per_stage
        start = self._start_stage(reuse, batch, lowest)
        with _quiet():
            acts, ws = self._forward(x, batch.inputs, start)
            ws.held = batch
            log_p = self._log_softmax(acts[-1])
            loss = self._ce(log_p, batch.targets, ws.rows)

            delta = self._output_delta(log_p, batch.targets, ws)

            g = LayeredVector._wrap(np.zeros(self._offsets[-1]), self.layer_dims, self._offsets)
            layers = active.layers
            # Backprop stops at the lowest stage holding an active layer, and
            # each stage computes only its active blocks. A block's arithmetic
            # does not depend on which other layers are active, so active
            # blocks match the full gradient bit for bit.
            for i in range(self.n_stages - 1, lowest - 1, -1):
                w, shape, b, w_layer, b_layer = self._stages[i]
                if w_layer in layers:
                    np.matmul(acts[i].T, delta, out=g.data[w].reshape(shape))
                if b_layer in layers:
                    np.add.reduce(delta, axis=0, out=g.data[b])  # np.sum without its wrapper
                if i > lowest:
                    delta = np.matmul(delta, x.data[w].reshape(shape).T, out=ws.delta[i - 1])
                    # tanh' = 1 - a*a, through the activation the forward pass kept.
                    deriv = np.multiply(acts[i], acts[i], out=ws.deriv[i - 1])
                    delta *= np.subtract(1.0, deriv, out=deriv)
        return loss, g

    def init_params(self, seed: int) -> LayeredVector:
        # Drawn in stage order, which fixes every weight's bits.
        rng = stream(seed, "init")
        x = LayeredVector.zeros(self.layer_dims)
        for w, (fan_in, fan_out), _, _, _ in self._stages:
            x.data[w] = rng.normal(0.0, fan_in ** -0.5, size=fan_in * fan_out)
        return x

