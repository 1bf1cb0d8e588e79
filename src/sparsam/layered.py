"""Layered parameter vectors and active-set arithmetic.

A LayeredVector keeps all of its layers in one contiguous float64
buffer, `data`; `blocks[l]` is a view of layer l at a fixed offset into
it. Writing a block (`v[l] = a` or `v.blocks[l] = a`) copies into the
buffer, so the views never go stale, `zeros` is one allocation and
`copy` one memcpy.

An ActiveSet holds its layers sorted, and grouped into runs of adjacent
indices. `v.select(active)` turns the runs into the keys that
elementwise updates index `data` with. A run of GATHER_BELOW floats or
more is a slice, and so is a set's only short run (the full set is one
run): the update works in place on its view. Two or more shorter runs
are merged into one flat index array: the update gathers them, works on
the copy in one expression and scatters it back. A NumPy call costs
about a microsecond whatever its length, so a loop over many short runs
pays per call; gathering pays two copies to make them all one call.
Timing the AdamW update alone on a 2-core x86 VM: over 18 runs,
gathering is 5-11x faster than the run-by-run loop at 16-64 floats a run
and 1.2-5x slower at 1,024-4,096; over two runs it breaks even near 256
floats, the cutoff. Either way the arithmetic is elementwise, so it
gives the same bits as working block by block.

Per-layer values are arrays aligned with `active.indices()`.
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
"""

from __future__ import annotations

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


# The last plan, (select() keys, segments), as (set, offsets,
# (offsets[:-1], dims) as arrays, plan). One entry keyed on identity: a
# step addresses its set several times, and no set a telemetry record
# keeps holds on to a plan of its own. A plan is a pure function of
# (set, offsets) that no caller writes to, so sharing it is safe.
_last_plan: tuple = (None, None, (None, None), None)


class Blocks(tuple):
    """Per-layer views into one buffer. Assigning to an item copies the
    value into that layer's view instead of rebinding it."""

    __slots__ = ()

    def __setitem__(self, l: int, value: np.ndarray) -> None:
        view = self[l]
        arr = np.asarray(value, dtype=np.float64).reshape(-1)
        if arr.size != view.size:
            raise ValueError(f"layer {l} has {view.size} entries, got {arr.size}")
        view[...] = arr


@lru_cache(maxsize=64)
def layout(dims: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Layer sizes as ints and the n + 1 buffer offsets of a layout."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValueError("LayeredVector needs at least one layer")
    for i, d in enumerate(dims):
        if d < 1:
            raise ValueError(f"layer {i} is empty")
    return dims, tuple(accumulate(dims, initial=0))


class LayeredVector:
    __slots__ = ("data", "dims", "offsets", "_blocks")

    def __init__(self, blocks: Iterable[np.ndarray]) -> None:
        arrays = [np.asarray(b, dtype=np.float64).reshape(-1) for b in blocks]
        self.dims, self.offsets = layout(tuple(a.size for a in arrays))
        self.data = np.concatenate(arrays)
        self._blocks: Blocks | None = None

    @classmethod
    def _wrap(
        cls, data: np.ndarray, dims: tuple[int, ...], offsets: tuple[int, ...]
    ) -> "LayeredVector":
        """A vector over `data` itself, which must hold offsets[-1] floats."""
        v = cls.__new__(cls)
        v.data, v.dims, v.offsets, v._blocks = data, dims, offsets, None
        return v

    @classmethod
    def zeros(cls, dims: Sequence[int]) -> "LayeredVector":
        dims, offsets = layout(tuple(dims))
        return cls._wrap(np.zeros(offsets[-1]), dims, offsets)

    @classmethod
    def from_flat(cls, flat: np.ndarray, dims: Sequence[int]) -> "LayeredVector":
        dims, offsets = layout(tuple(dims))
        data = np.array(flat, dtype=np.float64).reshape(-1)
        if data.size != offsets[-1]:
            raise ValueError(f"flat vector of size {data.size} does not split into {list(dims)}")
        return cls._wrap(data, dims, offsets)

    def to_flat(self) -> np.ndarray:
        return self.data.copy()

    def copy(self) -> "LayeredVector":
        return LayeredVector._wrap(self.data.copy(), self.dims, self.offsets)

    @property
    def blocks(self) -> Blocks:
        # Built on first use: many vectors are only ever touched run-wise.
        if self._blocks is None:
            d, o = self.data, self.offsets
            self._blocks = Blocks(d[o[l] : o[l + 1]] for l in range(len(self.dims)))
        return self._blocks

    @property
    def n_layers(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return self.data.size

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

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, l: int) -> np.ndarray:
        return self.blocks[l]

    def __setitem__(self, l: int, value: np.ndarray) -> None:
        self.blocks[l] = value

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.blocks)

    def __repr__(self) -> str:
        return f"LayeredVector(dims={self.dims})"

    def same_shape(self, other: "LayeredVector") -> bool:
        return self.dims == other.dims


@dataclass(frozen=True)
class ActiveSet:
    """An immutable subset of layer indices. Iteration order is sorted.

    `runs` lists the maximal ranges [lo, hi) of adjacent member indices;
    `index` holds the members, sorted, as a read-only integer array.
    """

    members: frozenset[int] = field(default_factory=frozenset)
    _sorted: tuple[int, ...] = field(init=False, repr=False, compare=False)
    runs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = frozenset(map(int, self.members))
        ordered = tuple(sorted(members))
        if ordered and ordered[0] < 0:
            raise ValueError("layer indices must be non-negative")
        starts = [i for i in ordered if i - 1 not in members]
        ends = [i + 1 for i in ordered if i + 1 not in members]
        runs = tuple(zip(starts, ends))
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_sorted", ordered)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "index", _frozen(np.array(ordered, dtype=np.intp)))

    @classmethod
    @lru_cache(maxsize=128)
    def full(cls, n_layers: int) -> "ActiveSet":
        # Cached: the sets are immutable, and dense steps ask for one each time.
        return cls(frozenset(range(n_layers)))

    @classmethod
    def of(cls, *indices: int) -> "ActiveSet":
        return cls(frozenset(indices))

    @classmethod
    def from_iterable(cls, indices: Iterable[int]) -> "ActiveSet":
        return cls(frozenset(indices))

    def validate(self, n_layers: int) -> None:
        if self._sorted and self._sorted[-1] >= n_layers:
            bad = [i for i in self._sorted if i >= n_layers]
            raise ValueError(f"layer indices {bad} out of range for {n_layers} layers")

    def __contains__(self, l: int) -> bool:
        return l in self.members

    def __iter__(self) -> Iterator[int]:
        return iter(self._sorted)

    def __len__(self) -> int:
        return len(self._sorted)

    def indices(self) -> list[int]:
        return list(self._sorted)


def _plan(v: LayeredVector, active: ActiveSet) -> tuple[tuple, Segments]:
    """select()'s keys and the segments of `active` in v's layout."""
    global _last_plan
    last, offsets, (firsts, dims), plan = _last_plan
    if last is active and offsets is v.offsets:
        return plan
    active.validate(len(v.dims))
    o = v.offsets
    if offsets is not o:
        firsts, dims = np.array(o[:-1]), np.array(v.dims)
    spans = [(o[lo], o[hi]) for lo, hi in active.runs]
    short = [(a, b) for a, b in spans if b - a < GATHER_BELOW]
    if len(short) < 2:
        keys = tuple(slice(a, b) for a, b in spans)
    else:
        index = _frozen(np.concatenate([np.arange(a, b) for a, b in short]))
        keys = (*(slice(a, b) for a, b in spans if b - a >= GATHER_BELOW), index)
    lo, hi = (active.runs[0][0], active.runs[-1][1]) if spans else (0, 0)
    segments = Segments(slice(o[lo], o[hi]), firsts[lo:hi] - o[lo], dims[lo:hi], active.index - lo)
    plan = (keys, segments)
    _last_plan = (active, o, (firsts, dims), plan)
    return plan


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def layer_l2_norm(v: LayeredVector, active: ActiveSet) -> np.ndarray:
    """The L2 norm of each active layer, aligned with `active.indices()`.
    A layer whose squares overflow reads inf, without a warning."""
    key, starts, _, pick = v.segments(active)
    a = v.data[key]
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduceat(a * a, starts)[pick])


def total_l1_norm(v: LayeredVector, active: ActiveSet | None = None) -> float:
    """Sum of |v| over the active layers (all of them by default): each
    layer's L1 norm, then their running sum in layer order. A block of
    +0.0 entries adds exactly nothing to it, so a gradient restricted to
    `active` gives the same value with or without the set."""
    if active is None:
        active = ActiveSet.full(v.n_layers)
    key, starts, _, pick = v.segments(active)
    per_layer = np.add.reduceat(np.abs(v.data[key]), starts)[pick]
    return float(np.add.accumulate(per_layer)[-1]) if per_layer.size else 0.0


def active_param_count(v: LayeredVector, active: ActiveSet) -> int:
    active.validate(v.n_layers)
    o = v.offsets
    return sum(o[hi] - o[lo] for lo, hi in active.runs)


def masked_axpy(y: LayeredVector, a: float, x: LayeredVector, active: ActiveSet) -> LayeredVector:
    """In place y_l += a * x_l for l in the active set. Inactive blocks of y
    are not touched, so they stay bit-identical."""
    if not y.same_shape(x):
        raise ValueError(f"shape mismatch: {y.dims} vs {x.dims}")
    a = float(a)
    for k in y.select(active):
        y.data[k] += a * x.data[k]  # a gathered k reads a copy and scatters it back
    return y
