"""Layered parameter vectors and active-set arithmetic.

A LayeredVector is its buffer and its layout: all of its layers in one
contiguous float64 buffer, `data`, with layer l at
`data[offsets[l] : offsets[l + 1]]` and `dims[l]` entries long. Code
reads and writes the buffer through an active set's keys and segments
(below) or slices it at `offsets`; the vector keeps no per-layer views.
`zeros` is one allocation and `copy` one memcpy.

An ActiveSet holds its layers sorted. Its plan for a layout (below)
groups them into runs of adjacent indices, and `v.select(active)` turns
the runs into the keys that elementwise updates index `data` with. A
run of GATHER_BELOW floats or more is a slice, and so is a set's only
short run (the full set is one run): the update works in place on its
view. Two or more shorter runs
are merged into one flat index array, built as one `np.repeat` of each
run's start less the entries before it, plus one `np.arange`: the update
gathers them, works on the copy in one expression and scatters it back.
A NumPy call costs about a microsecond whatever its length, so a loop
over many short runs pays per call; gathering pays two copies to make
them all one call.
Timing the AdamW update alone on a 2-core x86 VM: over 18 runs,
gathering is 5-11x faster than the run-by-run loop at 16-64 floats a run
and 1.2-5x slower at 1,024-4,096; over two runs it breaks even near 256
floats, the cutoff. Either way the arithmetic is elementwise, so it
gives the same bits as working block by block.

Per-layer values are arrays aligned with `active.layers`.
`v.segments(active)` is the view of `data` from the first active layer
to the end of the last, with the start and size of every layer in it
and the positions of the active ones. A per-layer L2 or L1 norm is one
`np.add.reduceat` over that view at the starts, keeping the active
layers' results: one NumPy call for the whole set whatever its size,
and no gather. Layers between active ones are read and their results
dropped, so the cost follows the span of the set, at most the buffer,
in contiguous arithmetic. reduceat reduces each segment on its own, so a
layer's norm does not depend on which other layers are active. The
total L1 norm is the running sum of the per-layer ones.
No operation below ever writes a block outside the active set
it was given, so a frozen layer is provably untouched.

A set holds its layers once, as the sorted tuple `layers` that is also
its identity, and keeps its plan; small sets are interned. A set's
select() keys, its segments and its entry count, its plan, are a pure
function of its layers and the layout, so the set keeps the plan for
the layout last asked about, and a step that addresses its set several
times builds it once. The runs exist only while a plan is built.
Sets that the sampler draws, that the ablation selectors pick and
that `full` builds over at most INTERN_LAYERS (8) layers are interned
by membership: at most 256 sets, never evicted. Small models repeat
their draws: over 2,000 steps at seeds 0 and 1, `slsam` drew 63 distinct sets
on the 6-layer two-moons MLP (96.8% of steps repeat an earlier set) and
83-91 on the 8-layer one (95.5-95.8%), the other sampled types
91-99.8%; such a step builds no set and no plan. A draw over more layers
makes a new set, as on the 100-layer quadratic, where none of 1,000
draws repeats; the set and its plan go when the step is done, since a
step's telemetry keeps only the set's index array.
Such a set is built from the mask's one index array, `np.flatnonzero`,
which becomes its `index`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# Runs of fewer floats than this are gathered, longer ones stay views.
GATHER_BELOW = 256


class Segments(NamedTuple):
    """The layers from the first active one to the last as one view,
    `data[key]`, and where the active ones sit among them."""

    key: slice
    starts: np.ndarray  # where each layer of the range begins in data[key]
    sizes: np.ndarray  # each layer's entry count
    pick: np.ndarray  # the active layers' positions in the range


# Sets built from a mask over at most this many layers are interned: the
# 2**8 = 256 subsets of 8 layers all fit in the table, which never evicts
# them. A constant of the layer count, whatever the model.
INTERN_LAYERS = 8

# Interned sets by their mask as bytes, trailing zeros stripped.
_interned: dict[bytes, "ActiveSet"] = {}


@lru_cache(maxsize=64, typed=True)
def layout(*dims: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Layer sizes as ints and the n + 1 buffer offsets of a layout, one
    size an argument. A size must be a positive integer, a NumPy integer
    too: one that is not, such as 4.5, np.float64(4.0) or "4", is refused,
    not truncated or parsed. The cache is typed, so that 4.0 never hits
    the entry of the equal int 4."""
    if len(dims) == 0:
        raise ValueError("need at least one layer")
    for i, d in enumerate(dims):
        # operator.index takes the types with __index__: int, bool and the
        # NumPy integers.
        if not hasattr(type(d), "__index__"):
            raise ValueError(f"layer {i} size must be an integer, got {d!r}")
        if operator.index(d) < 1:
            raise ValueError(f"layer {i} is empty")
    sizes = tuple(map(operator.index, dims))
    return sizes, tuple(accumulate(sizes, initial=0))


class LayeredVector:
    __slots__ = ("data", "dims", "offsets")

    def __init__(self, blocks: Iterable[np.ndarray]) -> None:
        arrays = [np.asarray(b, dtype=np.float64).reshape(-1) for b in blocks]
        self.dims, self.offsets = layout(*(a.size for a in arrays))
        self.data = np.concatenate(arrays)

    @classmethod
    def _wrap(
        cls, data: np.ndarray, dims: tuple[int, ...], offsets: tuple[int, ...]
    ) -> "LayeredVector":
        """A vector over `data` itself, which must hold offsets[-1] floats."""
        v = cls.__new__(cls)
        v.data, v.dims, v.offsets = data, dims, offsets
        return v

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "LayeredVector":
        dims, offsets = layout(*dims)
        return cls._wrap(np.zeros(offsets[-1]), dims, offsets)

    def copy(self) -> "LayeredVector":
        return LayeredVector._wrap(self.data.copy(), self.dims, self.offsets)

    def select(self, active: "ActiveSet") -> tuple[slice | np.ndarray, ...]:
        """Keys into `data` covering each active entry once: a slice per
        long run, then one read-only index array of the short runs' entries
        (a lone short run is a slice too). `data[k]` is a view for a slice
        and a copy for the index array, so an update writes its part back
        with `data[k] = part`, which NumPy skips for a view onto itself."""
        return _plan(self, active)[0]

    def segments(self, active: "ActiveSet") -> Segments:
        """The slice of `data` from the first active layer to the end of
        the last, where each layer in it begins and how long it is, and
        which of them are active."""
        return _plan(self, active)[1]

    def __repr__(self) -> str:
        return f"LayeredVector(dims={self.dims})"

    def same_shape(self, other: "LayeredVector") -> bool:
        return self.dims == other.dims


@dataclass(frozen=True)
class ActiveSet:
    """An immutable set of layer indices, held once as `layers`: sorted,
    distinct, and the only field `==` and `hash` read. Iteration order is
    sorted.

    `index` holds the layers as a read-only integer array. Any iterable
    of integers builds a set (a float raises TypeError). Sets from
    `from_mask` (and `full`) over at most INTERN_LAYERS layers are
    interned; any other construction makes a new set. Every construction
    sets `layers` and `index` in `_derive`. The runs of adjacent layers
    belong to the plan, which groups them for one layout at a time.
    """

    layers: tuple[int, ...] = ()
    index: np.ndarray = field(init=False, repr=False, compare=False)
    # (offsets, plan) for the layout last asked about, or None.
    plan: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ordered = sorted(set(map(operator.index, self.layers)))
        self._derive(np.array(ordered, dtype=np.intp), ordered)

    def _derive(self, index: np.ndarray, ordered: list[int]) -> None:
        """Set the layers and index from the sorted layers, as an intp
        array and as a list."""
        if ordered and ordered[0] < 0:
            raise ValueError("layer indices must be non-negative")
        object.__setattr__(self, "layers", tuple(ordered))
        object.__setattr__(self, "index", _frozen(index))

    @classmethod
    @lru_cache(maxsize=128)
    def full(cls, n_layers: int) -> "ActiveSet":
        # Cached: the sets are immutable, and dense steps ask for one each time.
        return cls.from_mask(np.ones(n_layers, dtype=bool))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ActiveSet":
        """The layers where a 1-d boolean mask over all of them is True.
        Over at most INTERN_LAYERS layers the set is interned: the same
        membership returns the same object, with the plan it keeps."""
        if mask.dtype != np.bool_ or mask.ndim != 1:
            raise ValueError(f"a layer mask must be 1-d bool, got {mask.dtype} of shape {mask.shape}")
        if mask.size > INTERN_LAYERS:
            index = np.flatnonzero(mask)
            active = object.__new__(cls)
            active._derive(index, index.tolist())
            return active
        key = mask.tobytes().rstrip(b"\0")
        active = _interned.get(key)
        if active is None:
            active = _interned[key] = cls(i for i, b in enumerate(key) if b)
        return active

    @classmethod
    def from_iterable(cls, indices: Iterable[int]) -> "ActiveSet":
        return cls(indices)

    def validate(self, n_layers: int) -> None:
        if self.layers and self.layers[-1] >= n_layers:
            bad = [i for i in self.layers if i >= n_layers]
            raise ValueError(f"layer indices {bad} out of range for {n_layers} layers")

    def __iter__(self) -> Iterator[int]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


def _plan(v: LayeredVector, active: ActiveSet) -> tuple[tuple, Segments, int]:
    """select()'s keys, the segments and the entry count of `active` in
    v's layout."""
    o, slot = v.offsets, active.plan
    if slot is not None and slot[0] is o:
        return slot[1]
    active.validate(len(v.dims))
    layers = active.layers
    firsts, dims = _layout_arrays(o)
    # The entries [start, end) of each run of adjacent layers, in one pass
    # over neighbours.
    spans: list[tuple[int, int]] = []
    for l in layers:
        if spans and spans[-1][1] == o[l]:
            spans[-1] = (spans[-1][0], o[l + 1])
        else:
            spans.append((o[l], o[l + 1]))
    short = [(a, b) for a, b in spans if b - a < GATHER_BELOW]
    if len(short) < 2:
        keys = tuple(slice(a, b) for a, b in spans)
    else:
        # Entry j of the index is its run's start, less the entries of the
        # runs before it, plus j.
        lens = [b - a for a, b in short]
        shifts = [a - before for (a, _), before in zip(short, accumulate(lens, initial=0))]
        index = _frozen(np.repeat(shifts, lens) + np.arange(sum(lens)))
        keys = (*(slice(a, b) for a, b in spans if b - a >= GATHER_BELOW), index)
    lo, hi = (layers[0], layers[-1] + 1) if layers else (0, 0)
    segments = Segments(slice(o[lo], o[hi]), firsts[lo:hi] - o[lo], dims[lo:hi], active.index - lo)
    plan = keys, segments, sum(b - a for a, b in spans)
    object.__setattr__(active, "plan", (o, plan))
    return plan


@lru_cache(maxsize=64)
def _layout_arrays(offsets: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each layer's start and size in a layout, as arrays."""
    return np.array(offsets[:-1]), _frozen(np.diff(offsets))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def layer_l2_norm(v: LayeredVector, active: ActiveSet) -> np.ndarray:
    """The L2 norm of each active layer, aligned with `active.layers`.
    A layer whose squares overflow reads inf, without a warning."""
    key, starts, _, pick = v.segments(active)
    a = v.data[key]
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduceat(a * a, starts)[pick])


def total_l1_norm(v: LayeredVector, active: ActiveSet) -> float:
    """Sum of |v| over the active layers: each layer's L1 norm, then
    their running sum in layer order. Layers outside the set add nothing,
    whatever they hold, so a restricted gradient gives the full
    gradient's value over `active`. They are still reduced with the
    span, without an errstate (one cost 1.2-2.9% of an mlp-moons step),
    so a finite one whose sum overflows warns, though its inf is dropped."""
    key, starts, _, pick = v.segments(active)
    per_layer = np.add.reduceat(np.abs(v.data[key]), starts)[pick]
    return float(np.add.accumulate(per_layer)[-1]) if per_layer.size else 0.0


def active_param_count(v: LayeredVector, active: ActiveSet) -> int:
    """The number of entries in the active layers, read from the plan."""
    return _plan(v, active)[2]


def masked_axpy(y: LayeredVector, a: float, x: LayeredVector, active: ActiveSet) -> LayeredVector:
    """In place y_l += a * x_l for l in the active set. Inactive blocks of y
    are not touched, so they stay bit-identical."""
    if not y.same_shape(x):
        raise ValueError(f"shape mismatch: {y.dims} vs {x.dims}")
    a = float(a)
    for k in y.select(active):
        y.data[k] += a * x.data[k]  # a gathered k reads a copy and scatters it back
    return y
