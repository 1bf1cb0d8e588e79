"""Layered-vector arithmetic: norms, masking, and shape discipline."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsam.layered import (
    GATHER_BELOW,
    ActiveSet,
    LayeredVector,
    active_param_count,
    layer_l2_norm,
    masked_axpy,
    total_l1_norm,
)

from conftest import assert_bit_identical, lv


def random_layered(rng: np.random.Generator, dims: list[int]) -> LayeredVector:
    return LayeredVector([rng.standard_normal(d) for d in dims])


dims_strategy = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


class TestLayerL2Norm:
    def test_three_four_five(self):
        assert layer_l2_norm(lv([3.0, 4.0]), ActiveSet.of(0)).tolist() == [5.0]

    def test_zero_block(self):
        assert layer_l2_norm(lv([0.0, 0.0, 0.0]), ActiveSet.of(0)).tolist() == [0.0]

    def test_four_ones(self):
        assert layer_l2_norm(lv([1.0, 1.0, 1.0, 1.0]), ActiveSet.of(0)).tolist() == [2.0]

    def test_bad_layer_index(self):
        with pytest.raises(ValueError):
            layer_l2_norm(lv([1.0]), ActiveSet.of(1))

    def test_aligned_with_the_active_layers(self):
        v = lv([3.0, 4.0], [1.0], [0.0, 2.0], [5.0, 12.0])
        assert layer_l2_norm(v, ActiveSet.of(0, 2, 3)).tolist() == [5.0, 2.0, 13.0]
        assert layer_l2_norm(v, ActiveSet.of()).size == 0

    @given(dims=dims_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_squared_norm_matches_dot(self, dims, seed):
        v = random_layered(np.random.default_rng(seed), dims)
        norms = layer_l2_norm(v, ActiveSet.full(v.n_layers))
        for l in range(v.n_layers):
            dot = float(v[l] @ v[l])
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
        v[l] = np.zeros(dims[l])
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
            want = math.sqrt(math.fsum(v[l] * v[l]))
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        want = math.fsum(math.fsum(np.abs(v[l])) for l in active)
        assert total_l1_norm(v, active) == pytest.approx(want, rel=1e-13, abs=0.0)

    @given(case=segmented_cases(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_layer_norm_does_not_depend_on_the_other_layers(self, case, seed):
        # top_slsam scores layers on the full set and reuses those norms
        # for the sampled set, so each must be the same bits either way.
        v, active = case
        full = layer_l2_norm(v, ActiveSet.full(v.n_layers))
        assert np.array_equal(layer_l2_norm(v, active), full[active.indices()])
        rng = np.random.default_rng(seed)
        other = ActiveSet.from_iterable(np.flatnonzero(rng.random(v.n_layers) < 0.5))
        assert np.array_equal(layer_l2_norm(v, other), full[other.indices()])


class TestTotalL1Norm:
    def test_mixed_signs(self):
        assert total_l1_norm(lv([1.0, -2.0], [3.0])) == 6.0

    def test_all_zero(self):
        assert total_l1_norm(lv([0.0], [0.0, 0.0])) == 0.0

    def test_negative_singletons(self):
        assert total_l1_norm(lv([-1.0], [-1.0], [-1.0])) == 3.0

    @given(dims=dims_strategy, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_active_sum_equals_sum_of_restriction(self, dims, seed):
        rng = np.random.default_rng(seed)
        v = random_layered(rng, dims)
        active = ActiveSet.from_iterable(l for l in range(len(dims)) if rng.random() < 0.5)
        restricted = LayeredVector.zeros(dims)
        for l in active:
            restricted[l] = v[l]
        assert total_l1_norm(v, active) == total_l1_norm(restricted)


class TestMaskedAxpy:
    def test_partial_active(self):
        y = lv([1.0, 1.0], [2.0, 2.0])
        x = lv([1.0, 0.0], [0.0, 1.0])
        out = masked_axpy(y, 2.0, x, ActiveSet.of(0))
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
            masked_axpy(lv([1.0]), 1.0, lv([1.0, 2.0]), ActiveSet.of(0))

    @given(dims=dims_strategy, seed=st.integers(0, 2**31 - 1), a=st.floats(-10, 10))
    @settings(max_examples=50, deadline=None)
    def test_full_active_equals_plain_axpy(self, dims, seed, a):
        rng = np.random.default_rng(seed)
        y = random_layered(rng, dims)
        x = random_layered(rng, dims)
        expect = [yl + a * xl for yl, xl in zip(y, x)]
        masked_axpy(y, a, x, ActiveSet.full(len(dims)))
        for got, want in zip(y, expect):
            assert np.array_equal(got, want)

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
                assert np.array_equal(y[l], before[l])


class TestLayeredVector:
    def test_flat_round_trip(self):
        v = lv([1.0, 2.0], [3.0], [4.0, 5.0, 6.0])
        flat = v.to_flat()
        assert np.array_equal(flat, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        back = LayeredVector.from_flat(flat, v.dims)
        assert_bit_identical(back, v)

    def test_dims_and_counts(self):
        v = lv([1.0, 2.0], [3.0])
        assert v.n_layers == 2
        assert v.dims == (2, 1)
        assert v.dim == 3

    def test_copy_is_independent(self):
        v = lv([1.0])
        c = v.copy()
        c.blocks[0][0] = 9.0
        assert v[0][0] == 1.0

    def test_blocks_are_views_of_one_buffer(self):
        v = lv([1.0, 2.0], [3.0], [4.0, 5.0, 6.0])
        assert v.data.flags.c_contiguous and v.data.dtype == np.float64
        assert v.offsets == (0, 2, 3, 6)
        for l, b in enumerate(v.blocks):
            assert np.shares_memory(b, v.data)
            assert b.size == v.dims[l]
        v.data[3] = -4.0
        assert v[2][0] == -4.0

    def test_copy_owns_its_buffer(self):
        v = lv([1.0, 2.0], [3.0])
        c = v.copy()
        assert not np.shares_memory(c.data, v.data)
        c.data[:] = 0.0
        assert np.array_equal(v.data, [1.0, 2.0, 3.0])
        assert np.shares_memory(c[1], c.data)

    def test_constructor_and_from_flat_copy_their_input(self):
        a = np.array([1.0, 2.0])
        v = LayeredVector([a])
        flat = np.array([1.0, 2.0, 3.0])
        w = LayeredVector.from_flat(flat, (2, 1))
        a[0] = flat[0] = 7.0
        assert v[0][0] == 1.0 and w[0][0] == 1.0

    def test_block_assignment_writes_through(self):
        v = lv([1.0, 2.0], [3.0], [4.0, 5.0, 6.0])
        views = tuple(v.blocks)
        v.blocks[0] = [8.0, 9.0]
        v[2] = np.arange(3.0)
        v.blocks[1] += 1.0
        assert np.array_equal(v.data, [8.0, 9.0, 4.0, 0.0, 1.0, 2.0])
        assert all(a is b for a, b in zip(views, v.blocks))
        with pytest.raises(ValueError):
            v.blocks[1] = np.zeros(2)

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
            ActiveSet.of(int(rng.integers(n))),
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
        assert v.select(ActiveSet.of(0, 2)) == (slice(0, 2), slice(5, 305))
        long_run, index = v.select(ActiveSet.of(0, 2, 4))
        assert long_run == slice(5, 305)
        assert index.tolist() == [0, 1, 306, 307, 308, 309]
        assert v.select(ActiveSet.of()) == ()
        with pytest.raises(ValueError):
            v.select(ActiveSet.of(5))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            LayeredVector([np.zeros(0)])

    def test_rejects_no_layers(self):
        with pytest.raises(ValueError):
            LayeredVector([])

    def test_setitem_size_check(self):
        v = lv([1.0, 2.0])
        with pytest.raises(ValueError):
            v[0] = np.zeros(3)


class TestActiveSet:
    def test_full(self):
        assert ActiveSet.full(3).indices() == [0, 1, 2]

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ActiveSet.of(0, 3).validate(3)
        with pytest.raises(ValueError):
            ActiveSet.of(-1).validate(3)

    def test_sorted_iteration(self):
        assert list(ActiveSet.of(2, 0, 1)) == [0, 1, 2]

    @given(members=st.frozensets(st.integers(0, 40)))
    def test_runs_partition_members(self, members):
        runs = ActiveSet(members).runs
        assert [l for lo, hi in runs for l in range(lo, hi)] == sorted(members)
        assert all(a[1] < b[0] for a, b in zip(runs, runs[1:]))

    def test_membership_and_len(self):
        s = ActiveSet.of(1, 3)
        assert 1 in s and 3 in s and 2 not in s
        assert len(s) == 2

    def test_active_param_count(self):
        v = lv([1.0] * 10, [1.0] * 20, [1.0] * 70)
        assert active_param_count(v, ActiveSet.of(0, 2)) == 80
        assert active_param_count(v, ActiveSet.full(3)) == 100
