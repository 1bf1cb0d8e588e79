"""Layered-vector arithmetic: norms, masking, and shape discipline."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsam import layered
from sparsam.bandit import init_uniform, sample_active_set
from sparsam.layered import (
    GATHER_BELOW,
    INTERN_LAYERS,
    ActiveSet,
    LayeredVector,
    active_param_count,
    layer_l2_norm,
    masked_axpy,
    total_l1_norm,
)
from sparsam.objectives import MlpClassifier
from sparsam.optimizers import select_layers_ablation

from conftest import assert_bit_identical, block, from_flat, lv, reference_runs


def random_layered(rng: np.random.Generator, dims: list[int]) -> LayeredVector:
    return LayeredVector([rng.standard_normal(d) for d in dims])


dims_strategy = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


class TestLayerL2Norm:
    def test_three_four_five(self):
        assert layer_l2_norm(lv([3.0, 4.0]), ActiveSet((0,))).tolist() == [5.0]

    def test_zero_block(self):
        assert layer_l2_norm(lv([0.0, 0.0, 0.0]), ActiveSet((0,))).tolist() == [0.0]

    def test_four_ones(self):
        assert layer_l2_norm(lv([1.0, 1.0, 1.0, 1.0]), ActiveSet((0,))).tolist() == [2.0]

    def test_bad_layer_index(self):
        with pytest.raises(ValueError):
            layer_l2_norm(lv([1.0]), ActiveSet((1,)))

    def test_aligned_with_the_active_layers(self):
        v = lv([3.0, 4.0], [1.0], [0.0, 2.0], [5.0, 12.0])
        assert layer_l2_norm(v, ActiveSet((0, 2, 3))).tolist() == [5.0, 2.0, 13.0]
        assert layer_l2_norm(v, ActiveSet()).size == 0

    @given(dims=dims_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_squared_norm_matches_dot(self, dims, seed):
        v = random_layered(np.random.default_rng(seed), dims)
        norms = layer_l2_norm(v, ActiveSet.full(v.n_layers))
        for l in range(v.n_layers):
            b = block(v, l)
            dot = float(b @ b)
            assert norms[l] ** 2 == pytest.approx(dot, rel=1e-12, abs=1e-300)


@st.composite
def segmented_cases(draw):
    """A vector of 1-500 layers of 1-600 floats (both sides of GATHER_BELOW),
    some blocks zero, and an active set that is full, one run, or many runs
    (whose update keys gather the short runs and slice the long ones)."""
    n = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = draw(st.sampled_from([(1, 16), (GATHER_BELOW, 600), (1, 600)]))
    dims = rng.integers(lo, hi + 1, n)
    v = LayeredVector([rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4) for d in dims])
    for l in np.flatnonzero(rng.random(n) < 0.2):
        block(v, l)[...] = 0.0
    kind = draw(st.sampled_from(["full", "run", "random"]))
    if kind == "full":
        active = ActiveSet.full(n)
    elif kind == "run":
        a = int(rng.integers(n))
        active = ActiveSet.from_iterable(range(a, int(rng.integers(a, n)) + 1))
    else:
        active = ActiveSet.from_iterable(np.flatnonzero(rng.random(n) < rng.random()))
    return v, active


class TestSegmentedReductions:
    """One reduceat per norm gives per-block results to a relative 1e-13."""

    @given(case=segmented_cases())
    @settings(max_examples=120, deadline=None)
    def test_match_per_block_fsum(self, case):
        v, active = case
        norms = layer_l2_norm(v, active)
        assert norms.shape == (len(active),)
        for l, got in zip(active, norms):
            want = math.sqrt(math.fsum(block(v, l) * block(v, l)))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        want = math.fsum(math.fsum(np.abs(block(v, l))) for l in active)
        assert total_l1_norm(v, active) == pytest.approx(want, rel=1e-13, abs=0.0)

    @given(case=segmented_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_layer_norm_does_not_depend_on_the_other_layers(self, case, seed):
        # top_slsam scores layers on the full set and reuses those norms
        # for the sampled set, so each must be the same bits either way.
        v, active = case
        full = layer_l2_norm(v, ActiveSet.full(v.n_layers))
        assert np.array_equal(layer_l2_norm(v, active), full[list(active)])
        rng = np.random.default_rng(seed)
        other = ActiveSet.from_iterable(np.flatnonzero(rng.random(v.n_layers) < 0.5))
        assert np.array_equal(layer_l2_norm(v, other), full[list(other)])


class TestTotalL1Norm:
    def test_mixed_signs(self):
        assert total_l1_norm(lv([1.0, -2.0], [3.0]), ActiveSet.full(2)) == 6.0

    def test_all_zero(self):
        assert total_l1_norm(lv([0.0], [0.0, 0.0]), ActiveSet.full(2)) == 0.0

    def test_negative_singletons(self):
        assert total_l1_norm(lv([-1.0], [-1.0], [-1.0]), ActiveSet.full(3)) == 3.0

    @given(dims=dims_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_active_sum_equals_sum_of_restriction(self, dims, seed):
        rng = np.random.default_rng(seed)
        v = random_layered(rng, dims)
        active = ActiveSet.from_iterable(l for l in range(len(dims)) if rng.random() < 0.5)
        restricted = LayeredVector.zeros(dims)
        for l in active:
            block(restricted, l)[...] = block(v, l)
        assert total_l1_norm(v, active) == total_l1_norm(restricted, ActiveSet.full(len(dims)))


class TestMaskedAxpy:
    def test_partial_active(self):
        y = lv([1.0, 1.0], [2.0, 2.0])
        x = lv([1.0, 0.0], [0.0, 1.0])
        out = masked_axpy(y, 2.0, x, ActiveSet((0,)))
        assert_bit_identical(out, lv([3.0, 1.0], [2.0, 2.0]))

    def test_empty_active_identity(self):
        y = lv([1.5], [2.5, -1.0])
        before = y.copy()
        masked_axpy(y, 3.0, lv([9.0], [9.0, 9.0]), ActiveSet.from_iterable([]))
        assert_bit_identical(y, before)

    def test_zero_scale_identity(self):
        y = lv([1.5], [2.5])
        before = y.copy()
        masked_axpy(y, 0.0, lv([9.0], [9.0]), ActiveSet.full(2))
        assert_bit_identical(y, before)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_axpy(lv([1.0]), 1.0, lv([1.0, 2.0]), ActiveSet((0,)))

    @given(dims=dims_strategy, seed=st.integers(0, 2**31 - 1), a=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_full_active_equals_plain_axpy(self, dims, seed, a):
        rng = np.random.default_rng(seed)
        y = random_layered(rng, dims)
        x = random_layered(rng, dims)
        expect = [block(y, l) + a * block(x, l) for l in range(len(dims))]
        masked_axpy(y, a, x, ActiveSet.full(len(dims)))
        for l, want in enumerate(expect):
            assert np.array_equal(block(y, l), want)

    @given(dims=dims_strategy, seed=st.integers(0, 2**31 - 1), a=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_frozen_blocks_bit_identical(self, dims, seed, a):
        rng = np.random.default_rng(seed)
        y = random_layered(rng, dims)
        x = random_layered(rng, dims)
        active = ActiveSet.from_iterable(
            l for l in range(len(dims)) if rng.random() < 0.5
        )
        before = y.copy()
        masked_axpy(y, a, x, active)
        for l in range(len(dims)):
            if l not in active:
                assert np.array_equal(block(y, l), block(before, l))


class TestLayeredVector:
    def test_flat_round_trip(self):
        v = lv([1.0, 2.0], [3.0], [4.0, 5.0, 6.0])
        flat = v.data.copy()
        assert np.array_equal(flat, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        back = from_flat(flat, v.dims)
        assert_bit_identical(back, v)

    def test_dims_and_counts(self):
        v = lv([1.0, 2.0], [3.0])
        assert v.n_layers == 2
        assert v.dims == (2, 1)
        assert v.dim == 3

    def test_copy_is_independent(self):
        v = lv([1.0])
        c = v.copy()
        c.data[0] = 9.0
        assert v.data[0] == 1.0

    def test_blocks_are_views_of_one_buffer(self):
        v = lv([1.0, 2.0], [3.0], [4.0, 5.0, 6.0])
        assert v.data.flags.c_contiguous and v.data.dtype == np.float64
        assert v.offsets == (0, 2, 3, 6)
        for l in range(v.n_layers):
            assert np.shares_memory(block(v, l), v.data)
            assert block(v, l).size == v.dims[l]
        v.data[3] = -4.0
        assert block(v, 2)[0] == -4.0

    def test_copy_owns_its_buffer(self):
        v = lv([1.0, 2.0], [3.0])
        c = v.copy()
        assert not np.shares_memory(c.data, v.data)
        c.data[:] = 0.0
        assert np.array_equal(v.data, [1.0, 2.0, 3.0])
        assert np.shares_memory(block(c, 1), c.data)

    @pytest.mark.parametrize("size", [2.9, 2.0, np.float64(2.0), "2"], ids=["2.9", "2.0", "float64", "str"])
    def test_zeros_refuses_a_size_not_an_integer(self, size):
        # Refused even after the integral layout (2, 1) was built, whose
        # sizes compare and hash equal to 2.0's.
        assert LayeredVector.zeros([2, 1]).dims == (2, 1)
        with pytest.raises(ValueError, match=re.escape(f"layer 0 size must be an integer, got {size!r}")):
            LayeredVector.zeros([size, 1])

    def test_zeros_takes_numpy_integer_sizes_as_ints(self):
        v = LayeredVector.zeros(np.array([2, 1]))
        assert v.dims == (2, 1) and all(type(d) is int for d in v.dims)

    def test_constructor_copies_its_input(self):
        a = np.array([1.0, 2.0])
        v = LayeredVector([a])
        a[0] = 7.0
        assert v.data[0] == 1.0

    @given(
        dims=st.lists(st.sampled_from([1, 3, 255, 256, 300]), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_select_covers_each_active_entry_once(self, dims, seed):
        rng = np.random.default_rng(seed)
        v = LayeredVector.zeros(dims)
        n = len(dims)
        for active in (
            ActiveSet.full(n),
            ActiveSet((int(rng.integers(n)),)),
            ActiveSet.from_iterable(np.flatnonzero(rng.random(n) < 0.5)),
        ):
            hits = np.zeros(v.dim, dtype=np.int64)
            for k in v.select(active):
                if isinstance(k, slice):
                    hits[k] += 1
                else:
                    assert not k.flags.writeable
                    np.add.at(hits, k, 1)
            for l in range(n):
                block = hits[v.offsets[l] : v.offsets[l + 1]]
                assert (block == (1 if l in active else 0)).all()

    def test_select_keeps_long_runs_and_the_full_set_as_slices(self):
        v = LayeredVector.zeros([2, 3, 300, 1, 4])
        assert v.select(ActiveSet.full(5)) == (slice(0, 310),)
        assert v.select(ActiveSet((0, 2))) == (slice(0, 2), slice(5, 305))
        long_run, index = v.select(ActiveSet((0, 2, 4)))
        assert long_run == slice(5, 305)
        assert index.tolist() == [0, 1, 306, 307, 308, 309]
        assert v.select(ActiveSet()) == ()
        with pytest.raises(ValueError):
            v.select(ActiveSet((5,)))

    def test_repr_names_the_dims(self):
        assert repr(lv([1.0, 2.0], [3.0])) == "LayeredVector(dims=(2, 1))"

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            LayeredVector([np.zeros(0)])

    def test_rejects_no_layers(self):
        with pytest.raises(ValueError):
            LayeredVector([])


class TestActiveSet:
    def test_full(self):
        assert list(ActiveSet.full(3)) == [0, 1, 2]

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ActiveSet((0, 3)).validate(3)
        with pytest.raises(ValueError):
            ActiveSet((-1,)).validate(3)

    def test_sorted_iteration(self):
        assert list(ActiveSet((2, 0, 1))) == [0, 1, 2]

    def test_layers_are_the_identity(self):
        a, b = ActiveSet((3, 1, 3)), ActiveSet.from_iterable([1, 3])
        assert a.layers == b.layers == (1, 3)
        assert a == b and hash(a) == hash(b)
        assert a == ActiveSet.from_mask(np.array([False, True, False, True]))

    @pytest.mark.parametrize("indices", [[0.9, 2.7], [1.5], [np.float64(2.0)]])
    def test_non_integer_layers_are_refused(self, indices):
        # int() would truncate them to other layers.
        with pytest.raises(TypeError):
            ActiveSet.from_iterable(indices)
        with pytest.raises(TypeError):
            ActiveSet(indices)

    def test_numpy_integers_are_layers(self):
        active = ActiveSet.from_iterable(np.array([4, 1], dtype=np.int32))
        assert active.layers == (1, 4) and all(type(l) is int for l in active.layers)

    @given(members=st.frozensets(st.integers(0, 40)))
    def test_runs_partition_members(self, members):
        # Every run of these layers is GATHER_BELOW floats or more, so the
        # plan keys each run as its own slice.
        v = LayeredVector.zeros([GATHER_BELOW] * 41)
        runs = [(k.start // GATHER_BELOW, k.stop // GATHER_BELOW) for k in v.select(ActiveSet(members))]
        assert [l for lo, hi in runs for l in range(lo, hi)] == sorted(members)
        assert all(a[1] < b[0] for a, b in zip(runs, runs[1:]))

    @pytest.mark.parametrize(
        "mask",
        [
            np.array([1, 0, 1]),
            np.array([1.0, 0.0, 1.0]),
            np.ones((2, 3), dtype=bool),
            np.ones(INTERN_LAYERS + 1, dtype=np.int8),
            np.ones((3, INTERN_LAYERS), dtype=bool),
        ],
    )
    def test_from_mask_refuses_a_mask_that_is_not_1d_bool(self, mask):
        msg = re.escape(f"got {mask.dtype} of shape {mask.shape}")
        with pytest.raises(ValueError, match=msg):
            ActiveSet.from_mask(mask)

    def test_membership_and_len(self):
        s = ActiveSet((1, 3))
        assert 1 in s and 3 in s and 2 not in s
        assert len(s) == 2

    def test_active_param_count(self):
        v = lv([1.0] * 10, [1.0] * 20, [1.0] * 70)
        assert active_param_count(v, ActiveSet((0, 2))) == 80
        assert active_param_count(v, ActiveSet.full(3)) == 100


def plan_of(v: LayeredVector, active: ActiveSet):
    """select()'s keys and segments, the slices as (start, stop) pairs and
    the arrays as (dtype, values), so plans compare with ==."""
    def plain(k):
        return (k.start, k.stop) if isinstance(k, slice) else (k.dtype.str, k.tolist())

    key, starts, sizes, pick = v.segments(active)
    segments = (plain(key), plain(starts), plain(sizes), plain(pick))
    return tuple(plain(k) for k in v.select(active)), segments


def masks(n: int):
    """Every non-empty mask over n layers, as a boolean array."""
    for bits in range(1, 2**n):
        yield np.array([(bits >> l) & 1 for l in range(n)], dtype=bool)


PLAN_LAYOUTS = {
    "8x64": [64] * 8,
    "mlp-separate": MlpClassifier([2, 16, 16, 2]).layer_dims,
    "mlp-fused": MlpClassifier([2, 16, 16, 2], bias_mode="fused").layer_dims,
    "mixed": [1, GATHER_BELOW + 44, 3, GATHER_BELOW - 1, GATHER_BELOW, 2, 2 * GATHER_BELOW, 7],
}


class TestInternedSets:
    """Sets drawn over at most INTERN_LAYERS layers are interned by
    membership, and each keeps its keys and segments for its layout."""

    @pytest.fixture(autouse=True)
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(layered, "_interned", {})

    def test_interned_plans_equal_fresh_plans(self):
        vectors = {name: LayeredVector.zeros(dims) for name, dims in PLAN_LAYOUTS.items()}
        cases = [(name, mask) for name, v in vectors.items() for mask in masks(v.n_layers)]
        want = {}
        for name, mask in cases:
            fresh = ActiveSet(frozenset(np.flatnonzero(mask).tolist()))
            want[name, mask.tobytes()] = plan_of(vectors[name], fresh)
        assert layered._interned == {}
        # Interleave the layouts, so each set's plan is rebuilt as its layout changes.
        order = np.random.default_rng(0).permutation(len(cases))
        for _ in range(2):
            for i in order:
                name, mask = cases[i]
                active = ActiveSet.from_mask(mask)
                assert list(active) == np.flatnonzero(mask).tolist()
                assert plan_of(vectors[name], active) == want[name, mask.tobytes()]
        assert len(layered._interned) == 2**8 - 1

    def test_same_membership_same_object(self):
        mask = np.array([True, False, True, False, False, False])
        active = ActiveSet.from_mask(mask)
        assert ActiveSet.from_mask(mask.copy()) is active
        assert ActiveSet.from_mask(np.array([True, False, True])) is active
        assert ActiveSet.from_mask(np.r_[mask, False, False]) is active
        assert active == ActiveSet((0, 2)) and ActiveSet((0, 2)) is not active
        assert layered._interned == {b"\1\0\1": active}

    def test_draws_and_selections_go_through_the_table(self):
        rng = np.random.default_rng(1)
        for n in range(1, INTERN_LAYERS + 1):
            dist = init_uniform(n, n * 0.4, 0.4 / n)
            for _ in range(200):
                active, _ = sample_active_set(dist, rng)
                assert ActiveSet.from_mask(np.isin(np.arange(n), active.index)) is active
            for kind in ("uniform_random", "greedy_topk"):
                grad = random_layered(rng, [3] * n)
                topk = grad if kind == "greedy_topk" else None
                active = select_layers_ablation(n, (n + 1) // 2, rng, topk)
                assert len(active) == (n + 1) // 2
                assert ActiveSet.from_mask(np.isin(np.arange(n), active.index)) is active
            assert ActiveSet.full(n) == ActiveSet.from_mask(np.ones(n, dtype=bool))
        interned = list(layered._interned)
        assert len(interned) <= 2**INTERN_LAYERS
        assert all(len(key) <= INTERN_LAYERS and key[-1:] != b"\0" for key in interned)

    def test_nine_layers_are_never_interned(self):
        n = INTERN_LAYERS + 1
        rng = np.random.default_rng(2)
        dist = init_uniform(n, 3.0, 0.05)
        mask = np.zeros(n, dtype=bool)
        mask[[0, 2]] = True
        v = LayeredVector.zeros([4] * n)
        for _ in range(100):
            sample_active_set(dist, rng)
            select_layers_ablation(n, 2, rng)
            made = ActiveSet.from_mask(mask)
            assert made is not ActiveSet.from_mask(mask) and made == ActiveSet((0, 2))
            assert v.select(made) is v.select(made)
        assert ActiveSet.full(n) is not ActiveSet.from_mask(np.ones(n, dtype=bool))
        assert layered._interned == {}

    def test_a_large_set_keeps_its_plan_beside_the_interned_ones(self):
        v = LayeredVector.zeros([2] * 12)
        large = ActiveSet((0, 1, 5, 11))
        plan = v.select(large)
        small = ActiveSet.from_mask(np.array([False, True, True]))
        i = np.dtype(np.intp).str
        assert plan_of(v, small) == (((2, 6),), ((2, 6), (i, [0, 2]), (i, [2, 2]), (i, [0, 1])))
        assert v.select(large) is plan
        assert v.select(ActiveSet((0, 1, 5, 11))) is not plan

    def test_the_full_set_keeps_its_plan_while_other_sets_build_theirs(self):
        v = LayeredVector.zeros([2] * 12)
        plan = v.select(ActiveSet.full(12))
        v.select(ActiveSet((0, 1, 5, 11)))
        v.segments(ActiveSet.from_mask(np.arange(12) % 3 == 0))
        assert v.select(ActiveSet.full(12)) is plan


def reference_keys(v: LayeredVector, active: ActiveSet) -> tuple:
    """select()'s keys built run by run: a slice per long run, then one
    concatenation of np.arange over the short ones (a lone short run is a slice)."""
    o = v.offsets
    spans = [(o[lo], o[hi]) for lo, hi in reference_runs(set(active))]
    short = [(a, b) for a, b in spans if b - a < GATHER_BELOW]
    if len(short) < 2:
        return tuple(slice(a, b) for a, b in spans)
    index = np.concatenate([np.arange(a, b) for a, b in short])
    return (*(slice(a, b) for a, b in spans if b - a >= GATHER_BELOW), index)


@st.composite
def large_masks(draw):
    """A mask over 9 to 1,000 layers: empty, full, or drawn at a density."""
    n = draw(st.integers(INTERN_LAYERS + 1, 1000))
    kind = draw(st.sampled_from(["empty", "full", "drawn"]))
    if kind != "drawn":
        return np.full(n, kind == "full")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(n) < draw(st.floats(0.0, 1.0))


class TestLargeSetsFromOneIndexArray:
    """A set from a mask over more than INTERN_LAYERS layers, and its plan,
    equal what the set's members give built one by one."""

    @given(mask=large_masks())
    @settings(max_examples=150, deadline=None)
    def test_from_mask_equals_the_set_of_its_members(self, mask):
        members = frozenset(np.flatnonzero(mask).tolist())
        made, ref = ActiveSet.from_mask(mask), ActiveSet(members)
        assert set(made) == set(ref) == members
        v = LayeredVector.zeros([1] * mask.size)
        assert plan_of(v, made) == plan_of(v, ref)
        assert active_param_count(v, made) == len(members)
        for active in (made, ref):
            assert active.index.dtype == np.intp and not active.index.flags.writeable
            assert active.index.tolist() == sorted(members) == list(active)
        assert made == ref and hash(made) == hash(ref) and len(made) == len(members)

    @given(
        n=st.integers(INTERN_LAYERS + 1, 1000),
        density=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_plan_keys_equal_the_arange_concatenation(self, n, density, seed):
        # Layer sizes on both sides of GATHER_BELOW, so runs of both kinds mix.
        rng = np.random.default_rng(seed)
        sizes = [1, 2, 7, 64, GATHER_BELOW // 2 + 1, GATHER_BELOW - 1, GATHER_BELOW, 300]
        v = LayeredVector.zeros(rng.choice(sizes, n).tolist())
        active = ActiveSet.from_mask(rng.random(n) < density)
        got, want = v.select(active), reference_keys(v, active)
        assert len(got) == len(want)
        for k, w in zip(got, want):
            if isinstance(w, slice):
                assert k == w
            else:
                assert k.dtype == np.intp and not k.flags.writeable
                assert np.array_equal(k, w)


# Layer sizes on both sides of GATHER_BELOW.
COUNT_SIZES = [1, 2, 7, GATHER_BELOW // 2 + 1, GATHER_BELOW - 1, GATHER_BELOW, GATHER_BELOW + 1, 600]


def layer_dims(n: int):
    return st.lists(st.sampled_from(COUNT_SIZES), min_size=n, max_size=n)


class TestActiveParamCount:
    """active_param_count reads the plan's entry count, which equals the
    sum of the active layers' sizes for a set from every construction."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_sum_of_the_active_layers_sizes(self, data):
        # Up to 2 * INTERN_LAYERS layers, so from_mask takes both its paths.
        n = data.draw(st.integers(1, 2 * INTERN_LAYERS))
        dims = data.draw(layer_dims(n))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        v = LayeredVector.zeros(dims)
        members = np.flatnonzero(mask).tolist()
        made = [ActiveSet(members), ActiveSet.from_iterable(members), ActiveSet.from_mask(mask)]
        for active in made:
            assert active_param_count(v, active) == sum(dims[l] for l in members)
        assert active_param_count(v, ActiveSet()) == 0
        assert active_param_count(v, ActiveSet.from_mask(np.zeros(n, dtype=bool))) == 0
        assert active_param_count(v, ActiveSet.full(n)) == sum(dims)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_an_interned_set_counts_in_the_layout_asked_about(self, data):
        n = data.draw(st.integers(1, INTERN_LAYERS))
        a = LayeredVector.zeros(data.draw(layer_dims(n)))
        b = LayeredVector.zeros(data.draw(layer_dims(n)))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        active = ActiveSet.from_mask(mask)
        assert ActiveSet.from_mask(mask.copy()) is active
        # Each layout in turn replaces the plan the set keeps.
        for v in (a, b, a, b):
            assert active_param_count(v, active) == sum(v.dims[l] for l in active)

    @pytest.mark.parametrize(
        "active",
        [
            ActiveSet((0, 2)),
            ActiveSet.from_mask(np.array([False, False, True])),
            ActiveSet.from_mask(np.arange(INTERN_LAYERS + 1) == INTERN_LAYERS),
            ActiveSet.full(3),
        ],
        ids=["constructor", "interned", "index-array", "full"],
    )
    def test_an_out_of_range_set_is_refused(self, active):
        v = LayeredVector.zeros([3, GATHER_BELOW])
        with pytest.raises(ValueError, match="out of range for 2 layers"):
            active_param_count(v, active)
