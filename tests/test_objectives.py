"""Objective gradients: analytic blocks, MLP backprop, finite differences."""

from __future__ import annotations

import functools
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsam import objectives
from sparsam.config import ExperimentConfig
from sparsam.errors import DivergenceError
from sparsam.layered import ActiveSet, LayeredVector
from sparsam.objectives import Batch, BlockQuadratic, MlpClassifier, Objective
from sparsam.rng import stream
from sparsam.runner import Trainer

from conftest import OPTIMIZER_TYPES, block, from_flat, lv, scalar_batch


def finite_diff_grad(
    obj: Objective, x: LayeredVector, batch: Batch | None, h: float = 1e-6
) -> LayeredVector:
    """Central-difference gradient, one objective pair per coordinate."""
    if h <= 0:
        raise ValueError("h must be positive")
    g = LayeredVector.zeros(x.dims)
    for l in range(len(x.dims)):
        for j in range(x.dims[l]):
            xl = block(x, l)
            orig = xl[j]
            xl[j] = orig + h
            up = obj.loss(x, batch)
            xl[j] = orig - h
            down = obj.loss(x, batch)
            xl[j] = orig
            block(g, l)[j] = (up - down) / (2.0 * h)
    return g


def nonempty_subsets(n: int):
    """Every non-empty active set over n layers."""
    for k in range(1, n + 1):
        for members in itertools.combinations(range(n), k):
            yield ActiveSet(members)


def two_block_quadratic() -> BlockQuadratic:
    return BlockQuadratic([1, 1], scales=[1.0, 10.0])


class TestBatch:
    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            Batch(np.zeros((2, 3)), np.zeros(3, dtype=np.int64))

    def test_negative_id(self):
        with pytest.raises(ValueError):
            Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=-1)

    @pytest.mark.parametrize("bid", [1.5, np.float64(2.0), "3", None, -1, np.int64(-2)])
    def test_refuses_an_id_not_a_non_negative_integer(self, bid):
        # Refused here, before a noisy pass would fail inside the stream.
        message = f"batch id must be a non-negative integer, got {bid!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=bid)

    @pytest.mark.parametrize("bid", [np.int64(3), np.uint8(3), 3])
    def test_an_integer_id_is_held_as_an_int(self, bid):
        b = Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=bid)
        assert type(b.id) is int and b.id == 3
        obj = BlockQuadratic([2], noise_sigma=1.0)
        assert obj.loss(lv([1.0, 2.0]), b) == obj.loss(lv([1.0, 2.0]), scalar_batch(3))

    @pytest.mark.parametrize(
        "inputs, targets, message",
        [
            (np.zeros(3), np.zeros(3), "inputs must be 2-d"),
            (np.zeros((3, 1)), np.zeros((3, 1)), "targets must be 1-d"),
            (np.zeros((0, 2)), np.zeros(0), "at least one sample"),
        ],
        ids=["inputs-1d", "targets-2d", "no-rows"],
    )
    def test_refuses_a_bad_shape(self, inputs, targets, message):
        with pytest.raises(ValueError, match=message):
            Batch(inputs, targets)

    def test_size(self):
        b = Batch(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
        assert b.size == 4

    @pytest.mark.parametrize(
        "targets",
        [[0.7, 1.9], [0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf], [1e19, 0.0], ["0", "1"]],
        ids=["fraction", "nan", "inf", "-inf", "beyond-int64", "str"],
    )
    def test_targets_a_cast_would_change_are_refused(self, targets):
        # Checked before the cast, so NaN raises no RuntimeWarning either.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="targets must be"):
                Batch(np.zeros((2, 2)), np.array(targets))

    @pytest.mark.parametrize(
        "targets", [[0.0, 1.0], [0, 1], [False, True], np.array([0, 1], dtype=np.uint8)]
    )
    def test_whole_floats_ints_and_bools_convert(self, targets):
        b = Batch(np.zeros((2, 2)), np.array(targets))
        assert b.targets.dtype == np.int64
        assert b.targets.tolist() == [0, 1]


class TestQuadraticRanges:
    def test_refuses_no_layers(self):
        with pytest.raises(ValueError, match="at least one layer"):
            BlockQuadratic([])

    def test_refuses_an_empty_layer(self):
        with pytest.raises(ValueError, match="layer 1 is empty"):
            BlockQuadratic([4, 0])

    @pytest.mark.parametrize("size", [4.5, np.float64(4.0), "4"], ids=["4.5", "float64", "str"])
    def test_refuses_a_layer_size_not_an_integer(self, size):
        # Refused, not truncated to (4, 3) or parsed.
        message = f"layer 0 size must be an integer, got {size!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            BlockQuadratic([size, 3])

    def test_takes_numpy_integer_layer_sizes(self):
        obj = BlockQuadratic([np.int64(4), 3])
        assert obj.layer_dims == (4, 3)
        assert all(type(d) is int for d in obj.layer_dims)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_refuses_a_scale_not_positive_and_finite(self, scale):
        with pytest.raises(ValueError, match="one positive, finite scale per layer"):
            BlockQuadratic([2, 2], scales=[1.0, scale])

    @pytest.mark.parametrize("scales", [[1.0, 2.0], [1.0] * 4], ids=["short", "long"])
    def test_refuses_a_scale_count_not_the_layer_count(self, scales):
        with pytest.raises(ValueError, match="one positive, finite scale per layer"):
            BlockQuadratic([2, 2, 2], scales=scales)

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf, -np.inf])
    def test_refuses_a_noise_sigma_not_non_negative_and_finite(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be non-negative and finite"):
            BlockQuadratic([2, 2], noise_sigma=sigma)


class TestMlpRanges:
    @pytest.mark.parametrize("widths", [[2], [2, 0, 2]], ids=["one-width", "zero-width"])
    def test_refuses_widths_without_two_positive_entries(self, widths):
        with pytest.raises(ValueError, match=re.escape(f"bad widths {widths}")):
            MlpClassifier(widths)

    @pytest.mark.parametrize("width", [16.7, np.float64(16.0), "16"], ids=["16.7", "float64", "str"])
    def test_refuses_a_width_not_an_integer(self, width):
        # Refused, not truncated to a 2-16-2 net or parsed.
        with pytest.raises(ValueError, match=re.escape(f"bad widths {[2, width, 2]}")):
            MlpClassifier([2, width, 2])

    def test_takes_numpy_integer_widths(self):
        obj = MlpClassifier([2, np.int64(16), 2])
        assert obj.widths == [2, 16, 2]
        assert all(type(w) is int for w in obj.widths)
        assert obj.layer_dims == (32, 16, 32, 2)

    def test_refuses_an_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation 'sigmoid'"):
            MlpClassifier([2, 4, 2], activation="sigmoid")

    def test_refuses_relu(self):
        # tanh is the only activation.
        with pytest.raises(ValueError, match="unknown activation 'relu'"):
            MlpClassifier([2, 4, 2], activation="relu")

    def test_refuses_an_unknown_bias_mode(self):
        with pytest.raises(ValueError, match="unknown bias_mode 'shared'"):
            MlpClassifier([2, 4, 2], bias_mode="shared")

    def test_has_no_population_objective(self):
        obj = MlpClassifier([2, 4, 2])
        with pytest.raises(ValueError, match="no population objective"):
            obj.loss_and_grad(obj.init_params(0), None, ActiveSet.full(obj.n_layers))


class TestQuadraticGrad:
    def test_forced_derivative(self):
        obj = two_block_quadratic()
        g = obj.grad(lv([2.0], [1.0]), None, ActiveSet.full(2))
        assert block(g, 0)[0] == 2.0
        assert block(g, 1)[0] == 10.0

    def test_zero_at_center(self):
        obj = two_block_quadratic()
        g = obj.grad(lv([0.0], [0.0]), None, ActiveSet.full(2))
        assert np.array_equal(g.data, [0.0, 0.0])

    def test_restricted_pass_returns_the_full_gradient(self):
        # The block outside the set is computed too, and no caller reads it.
        obj = two_block_quadratic()
        x = lv([2.0], [1.0])
        g = obj.grad(x, None, ActiveSet((1,)))
        assert block(g, 1)[0] == 10.0
        assert g.data.tobytes() == obj.grad(x, None, ActiveSet.full(2)).data.tobytes()

    def test_shape_mismatch(self):
        obj = two_block_quadratic()
        with pytest.raises(ValueError):
            obj.grad(lv([2.0, 3.0], [1.0]), None, ActiveSet.full(2))

    def test_noise_keyed_by_batch_id(self):
        obj = BlockQuadratic([3], noise_sigma=0.5, noise_seed=9)
        x = lv([1.0, 2.0, 3.0])
        b0 = Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=0)
        b0_again = Batch(np.ones((1, 1)), np.zeros(1, dtype=np.int64), id=0)
        b1 = Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=1)
        g0 = obj.grad(x, b0, ActiveSet.full(1))
        g0b = obj.grad(x, b0_again, ActiveSet.full(1))
        g1 = obj.grad(x, b1, ActiveSet.full(1))
        assert np.array_equal(block(g0, 0), block(g0b, 0))
        assert not np.array_equal(block(g0, 0), block(g1, 0))

    def test_noise_mean_gradient_is_population_gradient(self):
        obj = BlockQuadratic([2], noise_sigma=1.0, noise_seed=3)
        x = lv([0.5, -0.5])
        clean = obj.grad(x, None, ActiveSet.full(1))
        draws = [
            obj.grad(
                x, Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=i),
                ActiveSet.full(1),
            ).data
            for i in range(4000)
        ]
        mean = np.mean(draws, axis=0)
        assert np.allclose(mean, clean.data, atol=0.08)


def per_layer_loss(obj: BlockQuadratic, x: LayeredVector, batch: Batch | None, scales) -> float:
    """The quadratic loss summed layer by layer, as a reference."""
    z = obj._noise(batch)
    total = 0.0
    for l, a in enumerate(scales):
        lo, hi = x.offsets[l], x.offsets[l + 1]
        d = x.data[lo:hi]
        total += 0.5 * a * float(d.dot(d))
        if z is not None:
            total += float(z[lo:hi].dot(x.data[lo:hi]))
    return total


class TestQuadraticLoss:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_layer_sum(self, data):
        dims = data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=20))
        n = len(dims)
        scales = data.draw(st.lists(st.floats(0.5, 20.0), min_size=n, max_size=n))
        sigma = data.draw(st.sampled_from([0.0, 1e-3, 1e-2]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # Each entry sits 1 to 2 from the origin, so no sum cancels.
        x = LayeredVector([rng.choice([-1.0, 1.0], d) * rng.uniform(1.0, 2.0, d) for d in dims])
        obj = BlockQuadratic(dims, scales=scales, noise_sigma=sigma, noise_seed=4)
        for batch in (None, scalar_batch(data.draw(st.integers(0, 2**40)))):
            ref = per_layer_loss(obj, x, batch, scales)
            assert obj.loss(x, batch) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_overflow_raises_divergence(self, sigma):
        obj = BlockQuadratic([3, 2], scales=[1.0, 2.0], noise_sigma=sigma)
        x = lv([1e200, -1e200, 1e200], [1e200, 1e200])
        with pytest.raises(DivergenceError):
            obj.loss(x, scalar_batch(1))
        with pytest.raises(DivergenceError):
            obj.loss_and_grad(x, scalar_batch(1), ActiveSet((0,)))


def per_key_loss_and_grad(
    obj: BlockQuadratic, x: LayeredVector, batch: Batch | None, active: ActiveSet
) -> tuple[float, LayeredVector]:
    """The quadratic pass as a reference: the gradient x * scale + z one
    key of `select()` at a time, then the loss from its own dense pass."""
    if x.dims != obj.layer_dims:
        raise ValueError(f"parameter dims {x.dims} do not match objective dims {obj.layer_dims}")
    g = LayeredVector.zeros(obj.layer_dims)
    z = obj._noise(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in x.select(active):
            gs = g.data[k]
            np.multiply(x.data[k], obj._scale[k], out=gs)
            if z is not None:
                gs += z[k]
            g.data[k] = gs
        total = 0.5 * float((obj._scale * x.data).dot(x.data))
        if z is not None:
            total += float(z.dot(x.data))
    if not np.isfinite(total):
        raise DivergenceError(f"loss is non-finite ({total})")
    return total, g


def pass_outcome(f, *args):
    """(loss, gradient bytes) of a pass, or its error's type and message;
    a floating-point RuntimeWarning counts as an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss, g = f(*args)
    except Exception as e:
        return type(e), str(e)
    return float(loss).hex(), g.dims, g.data.tobytes()


@st.composite
def quadratic_passes(draw):
    """(objective, x, batch, active): layers on both sides of GATHER_BELOW,
    noise or none, a random, empty, full or out-of-range set, and at times
    NaN, infinite or 1e155 entries, whose square overflows."""
    dims = draw(st.lists(st.sampled_from([1, 3, 64, 255, 256, 300]), min_size=1, max_size=14))
    n = len(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obj = BlockQuadratic(
        dims,
        scales=rng.uniform(0.1, 10.0, n).tolist(),
        noise_sigma=draw(st.sampled_from([0.0, 0.5])),
        noise_seed=draw(st.integers(0, 2**40)),
    )
    x = LayeredVector([rng.standard_normal(d) for d in dims])
    for _ in range(draw(st.integers(0, 3))):
        x.data[rng.integers(x.data.size)] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e155, -1e155]))
    kind = draw(st.sampled_from(["random", "empty", "full", "listed", "out of range"]))
    members = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0))).tolist()
    active = {
        "random": ActiveSet.from_iterable(members),
        "empty": ActiveSet(),
        "full": ActiveSet.full(n),
        "listed": ActiveSet(range(n)),
        "out of range": ActiveSet((*members, n + draw(st.integers(0, 3)))),
    }[kind]
    batch = draw(st.sampled_from([None, scalar_batch(draw(st.integers(0, 2**40)))]))
    return obj, x, batch, active


class TestQuadraticPassBits:
    """BlockQuadratic.loss_and_grad gives the loss, the active blocks and
    the errors of the per-key reference above, bit for bit, and on every
    set the gradient of the full set."""

    @given(case=quadratic_passes())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_key_reference(self, case):
        obj, x, batch, active = case
        want = pass_outcome(per_key_loss_and_grad, obj, x, batch, active)
        got = pass_outcome(obj.loss_and_grad, x, batch, active)
        if isinstance(want[0], type):
            assert got == want
            return
        assert got[:2] == want[:2]
        o = x.offsets
        for l in active:
            assert got[2][8 * o[l] : 8 * o[l + 1]] == want[2][8 * o[l] : 8 * o[l + 1]]
        full = pass_outcome(per_key_loss_and_grad, obj, x, batch, ActiveSet.full(obj.n_layers))
        assert got == full
        assert obj.loss(x, batch) == obj.loss_and_grad(x, batch, active)[0]

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    @pytest.mark.parametrize("batch", [None, scalar_batch(3)], ids=["population", "batch"])
    @pytest.mark.parametrize(
        "special",
        [[0.0, -0.0], [5e-324, -5e-324, 2.2e-308], [1e300, -1e155, 1.7e308], [np.nan, np.inf]],
        ids=["signed-zeros", "subnormal", "huge", "nan-inf"],
    )
    def test_special_entries_match_a_zero_center(self, special, batch, sigma):
        # The reference is the centred formula at c = +0.0. IEEE x - (+0.0)
        # is x for every x, so it must give the pass's bits.
        obj = BlockQuadratic([4, 3], scales=[0.5, 3.0], noise_sigma=sigma, noise_seed=2)
        x = lv([1.5, -2.0, 0.25, -0.75], [3.0, -1.0, 0.5])
        x.data[: len(special)] = special
        x.data[-len(special):] = special[::-1]
        z = obj._noise(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = x.data - np.zeros(x.data.size)
            want = obj._scale * diff
            total = 0.5 * float(want.dot(diff))
            if z is not None:
                total += float(z.dot(x.data))
                want += z
        got_total, got = obj._pass(x, batch)
        assert float(got_total).hex() == float(total).hex()
        assert got.tobytes() == want.tobytes()

    def test_full_gradient_owns_its_buffer(self):
        obj = BlockQuadratic([3, 2], noise_sigma=0.5, noise_seed=1)
        x = lv([1.0, 2.0, 3.0], [4.0, 5.0])
        full = ActiveSet.full(2)
        g = obj.grad(x, scalar_batch(2), full)
        again = g.data.copy()
        g.data[:] = 7.0
        assert np.array_equal(obj.grad(x, scalar_batch(2), full).data, again)
        assert x.data.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_dims_are_checked_before_the_set(self):
        obj = BlockQuadratic([3, 2])
        with pytest.raises(ValueError, match="parameter dims"):
            obj.loss_and_grad(lv([1.0, 2.0], [3.0]), None, ActiveSet((5,)))


class TestNoiseMemo:
    N_LAYERS = 8

    @pytest.mark.parametrize("otype", OPTIMIZER_TYPES)
    def test_one_stream_per_layer_per_step(self, otype, monkeypatch):
        calls = []
        real_stream = objectives.stream

        def counting_stream(seed, *labels, index=0):
            calls.append((labels, index))
            return real_stream(seed, *labels, index=index)

        monkeypatch.setattr(objectives, "stream", counting_stream)
        trainer = Trainer(
            ExperimentConfig.from_dict({
                "objective": {
                    "type": "blockquadratic",
                    "layer_dims": [3] * self.N_LAYERS,
                    "noise_sigma": 1e-2,
                },
                "optimizer": {"type": otype},
                "bandit": {"s_over_n": 0.25},
                "train": {"steps": 3, "batch_size": 1, "seed": 0, "eval_every": 1},
            })
        )
        # Step 1 is the single-pass types' dense bootstrap; later steps
        # run their sampled or stale-perturbation paths. Each step draws
        # the whole noise vector of its own batch from one stream, once.
        batch_ids = []
        for _ in range(3):
            calls.clear()
            trainer.step()
            assert len(calls) == 1
            (labels, bid), = calls
            assert labels == ("noise",)
            batch_ids.append(bid)
        assert len(set(batch_ids)) == 3

    def test_noise_equals_per_layer_streams(self):
        dims = [4, 1, 7, 2, 3]
        seed = 2**70 + 9
        obj = BlockQuadratic(dims, noise_sigma=0.7, noise_seed=seed)
        for bid in [3, 2**33 + 1, 3, 0, 2**40, 0]:
            drawn = 0.7 * stream(seed, "noise", index=bid).standard_normal(sum(dims))
            assert np.array_equal(obj._noise(scalar_batch(bid)), drawn)

    def test_memo_matches_fresh_draws_across_batches(self):
        dims = [4, 2, 3]

        def fresh() -> BlockQuadratic:
            return BlockQuadratic(dims, noise_sigma=0.3, noise_seed=5)

        obj = fresh()
        x = lv([1.0, -2.0, 0.5, 3.0], [0.25, -1.0], [2.0, 1.5, -0.75])
        b1, b2, b_big = scalar_batch(1), scalar_batch(2), scalar_batch(2**32 + 1)
        sparse = ActiveSet((1,))
        assert obj.loss(x, b1) == fresh().loss(x, b1)
        g = obj.grad(x, b2, sparse)
        g_fresh = fresh().grad(x, b2, sparse)
        for l in range(len(dims)):
            assert np.array_equal(block(g, l), block(g_fresh, l))
        assert obj.loss(x, b_big) == fresh().loss(x, b_big)
        assert obj.loss(x, b1) == fresh().loss(x, b1)
        for b in (b1, b_big, b2):
            drawn = 0.3 * stream(5, "noise", index=b.id).standard_normal(sum(dims))
            assert np.array_equal(obj._noise(b), drawn)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_restriction_keeps_noisy_blocks(self, data):
        dims = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=12))
        n = len(dims)
        scales = data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
        seed = data.draw(st.integers(0, 2**70))
        bid = data.draw(st.integers(0, 2**40))
        layers = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = LayeredVector([rng.standard_normal(d) for d in dims])

        def fresh() -> BlockQuadratic:
            return BlockQuadratic(dims, scales=scales, noise_sigma=0.5, noise_seed=seed)

        batch = scalar_batch(bid)
        full = fresh().grad(x, batch, ActiveSet.full(n))
        # A fresh objective draws the noise for the restricted call alone.
        part = fresh().grad(x, batch, ActiveSet(layers))
        for l in layers:
            assert np.array_equal(block(part, l), block(full, l))
        assert part.data.tobytes() == full.data.tobytes()

    def test_memoised_noise_is_read_only(self):
        obj = BlockQuadratic([3, 3], noise_sigma=1.0, noise_seed=2)
        obj.loss(lv([0.0] * 3, [0.0] * 3), scalar_batch(4))
        z = obj._noise(scalar_batch(4))
        with pytest.raises(ValueError):
            z[0] = 0.0


class TestMlpGrad:
    def test_symmetric_logits_softmax_gradient(self):
        # Zero weights give logits (0, 0); softmax (0.5, 0.5) against
        # class 0 pushes (-0.5, +0.5) through to weights and bias.
        obj = MlpClassifier([1, 2], activation="tanh")
        x = LayeredVector.zeros(obj.layer_dims)
        batch = Batch(np.array([[1.0]]), np.array([0], dtype=np.int64))
        loss, g = obj.loss_and_grad(x, batch, ActiveSet.full(obj.n_layers))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)
        assert np.allclose(block(g, 0), [-0.5, 0.5], atol=1e-12)  # 1x2 weight
        assert np.allclose(block(g, 1), [-0.5, 0.5], atol=1e-12)  # bias

    @pytest.mark.parametrize("bias_mode", ["separate", "fused"])
    @pytest.mark.parametrize("activation", ["tanh"])
    def test_masked_blocks_bit_identical_to_full(self, activation, bias_mode):
        # Three stages, so subsets whose lowest layer sits above stage 0
        # stop backprop early; every non-empty subset is checked.
        obj = MlpClassifier([2, 8, 8, 2], activation=activation, bias_mode=bias_mode)
        x = obj.init_params(1)
        rng = np.random.default_rng(5)
        batch = Batch(rng.standard_normal((8, 2)), rng.integers(0, 2, 8))
        full = obj.grad(x, batch, ActiveSet.full(obj.n_layers))
        for active in nonempty_subsets(obj.n_layers):
            part = obj.grad(x, batch, active)
            for l in range(obj.n_layers):
                want = block(full, l) if l in active else np.zeros(obj.layer_dims[l])
                assert np.array_equal(block(part, l), want), (list(active), l)

    def test_deterministic(self):
        obj = MlpClassifier([2, 8, 2], activation="tanh")
        x = obj.init_params(2)
        rng = np.random.default_rng(6)
        batch = Batch(rng.standard_normal((4, 2)), rng.integers(0, 2, 4))
        l1, g1 = obj.loss_and_grad(x, batch, ActiveSet.full(obj.n_layers))
        l2, g2 = obj.loss_and_grad(x, batch, ActiveSet.full(obj.n_layers))
        assert l1 == l2
        assert np.array_equal(g1.data, g2.data)

    def test_fused_bias_mode_layer_count(self):
        sep = MlpClassifier([2, 4, 2], activation="tanh", bias_mode="separate")
        fused = MlpClassifier([2, 4, 2], activation="tanh", bias_mode="fused")
        assert sep.n_layers == 4
        assert fused.n_layers == 2
        assert sep.dim == fused.dim == (2 * 4 + 4) + (4 * 2 + 2)

    def test_output_width_must_match_classes(self):
        obj = MlpClassifier([2, 4, 3], activation="tanh")
        assert obj.n_classes == 3
        batch = Batch(np.zeros((1, 2)), np.array([3], dtype=np.int64))
        with pytest.raises(ValueError):
            obj.loss(obj.init_params(0), batch)

    def test_divergent_loss_raises(self):
        # tanh saturates at 1, so it is the logits that overflow: four
        # activations of tanh(10) through output weights and bias of 1e308
        # make both logits inf, and the softmax shift makes NaN.
        obj = MlpClassifier([2, 4, 2], activation="tanh")
        x = obj.init_params(0)
        block(x, 0)[:] = 0.0
        block(x, 1)[:] = 10.0
        block(x, 2)[:] = 1e308
        block(x, 3)[:] = 1e308
        batch = Batch(np.zeros((1, 2)), np.array([0], dtype=np.int64))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                obj.loss_and_grad(x, batch, ActiveSet.full(obj.n_layers))


def class_order_log_softmax(logits: np.ndarray) -> np.ndarray:
    """The log-softmax of each row, its max and its sum folded over the
    classes one at a time in class order."""
    shifted = logits - functools.reduce(np.maximum, logits.T)[:, None]
    return shifted - np.log(functools.reduce(np.add, np.exp(shifted).T))[:, None]


def axis_1_output_stage(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log-softmax and the output delta as the pass computed them
    before it reduced a (classes, rows) copy: the row max and the row sum
    along axis 1, and 1.0 subtracted at each row's target by a fancy
    get and set."""
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    log_p = shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    delta = np.exp(log_p)
    delta[np.arange(targets.size), targets] -= 1.0
    delta /= targets.size
    return log_p, delta


def same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per entry: the two floats have the same bits, or both are NaN."""
    return (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))


def plain_mlp_pass(
    obj: MlpClassifier, x: LayeredVector, batch: Batch
) -> tuple[float, LayeredVector]:
    """Loss and full gradient of the MLP written plainly: stages unpacked
    from x's per-layer blocks, fresh arrays, and the loss by .mean(). The
    row max and the row sum fold the classes in class order."""

    def unpack(v: LayeredVector, i: int) -> tuple[np.ndarray, np.ndarray]:
        fan_in, fan_out = obj.widths[i], obj.widths[i + 1]
        if obj.bias_mode == "fused":
            fused = block(v, i)
            return fused[: fan_in * fan_out].reshape(fan_in, fan_out), fused[fan_in * fan_out :]
        return block(v, 2 * i).reshape(fan_in, fan_out), block(v, 2 * i + 1)

    acts, pre = [batch.inputs], []
    for i in range(obj.n_stages):
        w, b = unpack(x, i)
        pre.append(acts[-1] @ w + b)
        if i < obj.n_stages - 1:
            acts.append(np.tanh(pre[-1]))
    log_p = class_order_log_softmax(pre[-1])
    rows = np.arange(batch.size)
    loss = float(-log_p[rows, batch.targets].mean())
    delta = np.exp(log_p)
    delta[rows, batch.targets] -= 1.0
    delta /= batch.size
    g = LayeredVector.zeros(x.dims)
    for i in reversed(range(obj.n_stages)):
        gw, gb = unpack(g, i)
        gw[...] = acts[i].T @ delta
        gb[...] = delta.sum(axis=0)
        if i:
            a = acts[i]
            delta = (delta @ unpack(x, i)[0].T) * (1.0 - a * a)
    return loss, g


class TestMlpPassBits:
    @pytest.mark.parametrize(
        "widths, activation, bias_mode",
        [
            ([2, 16, 16, 2], "tanh", "separate"),
            ([3, 8, 8, 3], "tanh", "fused"),
            ([2, 8, 1], "tanh", "separate"),
            ([2, 8, 8, 5], "tanh", "fused"),
            ([3, 16, 7], "tanh", "separate"),
        ],
    )
    def test_every_batch_size_matches_plain_pass(self, widths, activation, bias_mode):
        # The golden traces cover 32 and 128 rows; the pairwise sums of
        # the loss and the bias gradients change shape with the row count.
        # 1 to 7 classes: below 8 the class-order fold of the softmax is
        # also the order of NumPy's own row reductions.
        obj = MlpClassifier(widths, activation=activation, bias_mode=bias_mode)
        x = obj.init_params(4)
        x.data += 0.1 * np.random.default_rng(2).standard_normal(x.data.size)
        rng = np.random.default_rng(8)
        full = ActiveSet.full(obj.n_layers)
        for n in range(1, 301):
            batch = Batch(rng.standard_normal((n, widths[0])), rng.integers(0, widths[-1], n))
            want_loss, want_g = plain_mlp_pass(obj, x, batch)
            loss, g = obj.loss_and_grad(x, batch, full)
            assert loss == want_loss, n
            assert np.array_equal(g.data, want_g.data), n
            assert obj.loss(x, batch) == want_loss, n

    @pytest.mark.parametrize("widths", [[2, 16, 16, 2], [2, 8, 8, 8, 2]])
    @pytest.mark.parametrize("bias_mode", ["separate", "fused"])
    @pytest.mark.parametrize("activation", ["tanh"])
    def test_every_active_set_matches_plain_pass(self, activation, bias_mode, widths):
        # Every non-empty set of the 2-16-16-2 net and a seeded sample on
        # the deeper one, each from stage 0 and reusing an earlier pass at
        # the same point: the loss and every active block are the plain
        # pass's bits, and every inactive entry is +0.0.
        obj = MlpClassifier(widths, activation=activation, bias_mode=bias_mode)
        x = obj.init_params(6)
        rng = np.random.default_rng(12)
        x.data += 0.1 * rng.standard_normal(x.data.size)
        sets = list(nonempty_subsets(obj.n_layers))
        if len(widths) > 4:
            sets = [sets[i] for i in sorted(rng.choice(len(sets), min(40, len(sets)), replace=False))]
        o = x.offsets
        for rows in (1, 32, 77):
            batch = Batch(rng.standard_normal((rows, widths[0])), rng.integers(0, widths[-1], rows))
            want_loss, want_g = plain_mlp_pass(obj, x, batch)
            for active in sets:
                for reuse in (False, True):
                    obj.loss(x, batch)
                    loss, g = obj.loss_and_grad(x, batch, active, reuse)
                    where = (rows, list(active), reuse)
                    assert loss == want_loss, where
                    for l in range(obj.n_layers):
                        part = g.data[o[l] : o[l + 1]]
                        if l in active:
                            assert np.array_equal(part, want_g.data[o[l] : o[l + 1]]), (where, l)
                        else:
                            assert not (part.any() or np.signbit(part).any()), (where, l)

    @pytest.mark.parametrize("activation", ["tanh"])
    def test_overflow_raises_divergence_without_warnings(self, activation):
        # 1e308 weights overflow the hidden and the logit matmuls; the
        # inf - inf of the softmax shift makes NaN.
        obj = MlpClassifier([2, 4, 2], activation=activation)
        x = obj.init_params(0)
        x.data[:] = 1e308
        batch = Batch(np.full((3, 2), 1e200), np.array([0, 1, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                obj.loss_and_grad(x, batch, ActiveSet.full(obj.n_layers))
            with pytest.raises(DivergenceError):
                obj.loss(x, batch)
            assert not np.isfinite(obj.logits(x, batch.inputs)).all()
            obj.predict(x, batch.inputs)


class TestMlpOutputStage:
    """The log-softmax reduces a (classes, rows) copy of the logits along
    axis 0, and the output delta subtracts 1.0 at each row's target
    through a flat index."""

    VALUES = (
        0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
        1e308, -1e308, 5e-324, -5e-324, 700.0, -745.0,
    )

    @pytest.mark.parametrize("classes", [1, 2, 3])
    def test_every_special_row_matches_the_axis_1_formula(self, classes):
        # Every row of `classes` logits drawn from VALUES, each once per
        # target: the log-softmax and the output delta have the bits the
        # axis-1 reductions and the fancy subtraction give, NaN as NaN.
        rows = list(itertools.product(self.VALUES, repeat=classes))
        logits = np.array(rows * classes, dtype=np.float64).reshape(-1, classes)
        targets = np.repeat(np.arange(classes), len(rows))
        obj = MlpClassifier([1, classes])
        ws = obj._workspace(targets.size)
        with warnings.catch_warnings(), objectives._quiet():
            warnings.simplefilter("error")
            log_p = obj._log_softmax(logits)
            delta = obj._output_delta(log_p, targets, ws)
            want_log_p, want_delta = axis_1_output_stage(logits, targets)
        assert log_p.shape == want_log_p.shape
        assert same_bits(log_p, want_log_p).all()
        assert same_bits(delta, want_delta).all()

    def test_nine_classes_fold_in_class_order(self):
        # From 8 classes NumPy sums a row along axis 1 pairwise, eight
        # partial sums at a time, so the axis-1 formula leaves the
        # class-order fold in the last bit on some rows. The pass keeps
        # the class-order fold at every class count.
        logits = 3.0 * np.random.default_rng(5).standard_normal((2000, 9))
        log_p = MlpClassifier._log_softmax(logits)
        assert same_bits(log_p, class_order_log_softmax(logits)).all()
        want_log_p, _ = axis_1_output_stage(logits, np.zeros(2000, dtype=np.int64))
        assert not same_bits(log_p, want_log_p).all()


class TestMlpWorkspace:
    def test_reuse_never_aliases_results(self):
        widths = [2, 16, 16, 2]
        obj = MlpClassifier(widths)
        rng = np.random.default_rng(9)
        xs = [obj.init_params(0), obj.init_params(1)]
        batches = {n: Batch(rng.standard_normal((n, 2)), rng.integers(0, 2, n)) for n in (32, 1024)}
        full = ActiveSet.full(obj.n_layers)
        kept = []
        for n, k in [(32, 0), (1024, 1), (32, 1), (1024, 0), (32, 0)]:
            x, batch = xs[k], batches[n]
            fresh = MlpClassifier(widths)
            loss, g = obj.loss_and_grad(x, batch, full)
            want_loss, want_g = fresh.loss_and_grad(x, batch, full)
            assert loss == want_loss
            assert np.array_equal(g.data, want_g.data)
            logits = obj.logits(x, batch.inputs)
            assert np.array_equal(logits, fresh.logits(x, batch.inputs))
            kept.append((g, g.data.copy(), logits, logits.copy()))
        for g, g_then, logits, logits_then in kept:
            assert np.array_equal(g.data, g_then)
            assert np.array_equal(logits, logits_then)

    def test_warm_pass_allocates_no_batch_sized_temporaries(self):
        obj = MlpClassifier([2, 64, 64, 64, 2])
        x = obj.init_params(0)
        rng = np.random.default_rng(3)
        batch = Batch(rng.standard_normal((1024, 2)), rng.integers(0, 2, 1024))
        full = ActiveSet.full(obj.n_layers)
        obj.loss_and_grad(x, batch, full)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            obj.loss_and_grad(x, batch, full)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < 1024 * 64 * 8

    def test_first_pass_keeps_three_buffers_per_hidden_stage(self):
        # What a 1,024-row workspace of the 2-64-64-64-2 net keeps after its
        # first pass: each hidden stage's activation, delta and tanh
        # derivative, with 256 KB for the logits, the output delta, the
        # row index and the bookkeeping. A pre-activation buffer per stage
        # besides the activation would add another 1.5 MB.
        obj = MlpClassifier([2, 64, 64, 64, 2])
        x = obj.init_params(0)
        rng = np.random.default_rng(3)
        rows = 1024
        batch = Batch(rng.standard_normal((rows, 2)), rng.integers(0, 2, rows))
        full = ActiveSet.full(obj.n_layers)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            obj.loss_and_grad(x, batch, full)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert kept < 3 * rows * sum(obj.widths[1:-1]) * 8 + 256 * 1024

    @pytest.mark.parametrize(
        "shape", [(2,), (0,), (3, 5), (3, 1), (3, 2, 1), (1, 3, 2)]
    )
    def test_logits_refuse_inputs_not_rows_of_the_input_width(self, shape):
        # Refused before any workspace is built for the bad row count.
        obj = MlpClassifier([2, 4, 2])
        x = obj.init_params(0)
        for call in (obj.logits, obj.predict):
            with pytest.raises(ValueError, match="2-d with 2 columns"):
                call(x, np.zeros(shape))
        assert obj._work == {}
        assert obj.logits(x, np.zeros((3, 2))).shape == (3, 2)
        assert obj.logits(x, np.zeros((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_passes_refuse_inputs_not_of_the_input_width(self, columns):
        # The message logits() gives, before any workspace is built.
        obj = MlpClassifier([2, 4, 2])
        x = obj.init_params(0)
        batch = Batch(np.zeros((3, columns)), np.zeros(3, dtype=np.int64))
        message = f"inputs must be 2-d with 2 columns, got shape (3, {columns})"
        for active in (ActiveSet(), ActiveSet((3,)), ActiveSet.full(obj.n_layers)):
            with pytest.raises(ValueError, match=re.escape(message)):
                obj.loss_and_grad(x, batch, active)
        with pytest.raises(ValueError, match=re.escape(message)):
            obj.loss(x, batch)
        assert obj._work == {}


class TestMlpForwardHandover:
    """A pass that reuses the forward of an earlier pass on the same batch,
    at a point equal below the lowest active stage, starts there."""

    @pytest.mark.parametrize("rows", [1, 7, 128])
    @pytest.mark.parametrize("bias_mode", ["separate", "fused"])
    @pytest.mark.parametrize("activation", ["tanh"])
    def test_descent_from_the_ascent_forward_matches_a_fresh_pass(self, activation, bias_mode, rows):
        # What a fresh SAM step does: an ascent pass at x on A (or, for
        # top_slsam, on every layer), then a pass at x + eps on A, where
        # eps is zero off A. Three stages, so every lowest stage occurs.
        widths = [3, 6, 5, 2]
        obj = MlpClassifier(widths, activation=activation, bias_mode=bias_mode)
        x = obj.init_params(3)
        rng = np.random.default_rng(rows)
        x.data += 0.3 * rng.standard_normal(x.data.size)
        batch = Batch(rng.standard_normal((rows, widths[0])), rng.integers(0, 2, rows))
        full = ActiveSet.full(obj.n_layers)
        for active in nonempty_subsets(obj.n_layers):
            eps = LayeredVector.zeros(x.dims)
            for l in active:
                block(eps, l)[...] = 0.05 * rng.standard_normal(x.dims[l])
            x_pert = from_flat(x.data + eps.data, x.dims)
            fresh = MlpClassifier(widths, activation=activation, bias_mode=bias_mode)
            want_loss, want_g = fresh.loss_and_grad(x_pert, batch, active)
            for ascent_set in (active, full):
                obj.loss_and_grad(x, batch, ascent_set)
                loss, g = obj.loss_and_grad(x_pert, batch, active, reuse=True)
                assert np.array_equal(loss, want_loss), (list(active), ascent_set is full)
                assert np.array_equal(g.data, want_g.data), (list(active), ascent_set is full)
            # A loss pass at x can be reused too, through grad.
            obj.loss(x, batch)
            g = obj.grad(x_pert, batch, active, reuse=True)
            assert np.array_equal(g.data, want_g.data), list(active)

    @pytest.mark.parametrize("bias_mode", ["separate", "fused"])
    def test_stages_below_the_lowest_active_one_are_read_from_the_reused_pass(self, bias_mode):
        # Given a point that differs from the reused pass's below the
        # lowest active stage, the pass sees the reused point there and its
        # own from that stage up: it computes exactly the stages from there.
        widths = [2, 4, 4, 4, 2]
        obj = MlpClassifier(widths, bias_mode=bias_mode)
        per_stage = 2 if bias_mode == "separate" else 1
        rng = np.random.default_rng(0)
        batch = Batch(rng.standard_normal((5, 2)), rng.integers(0, 2, 5))
        x, y = obj.init_params(0), obj.init_params(1)
        for stage in range(obj.n_stages):
            split = x.offsets[stage * per_stage]
            mixed = from_flat(np.concatenate([x.data[:split], y.data[split:]]), x.dims)
            active = ActiveSet((stage * per_stage,))
            obj.loss_and_grad(x, batch, active)
            loss, g = obj.loss_and_grad(y, batch, active, reuse=True)
            want_loss, want_g = MlpClassifier(widths, bias_mode=bias_mode).loss_and_grad(
                mixed, batch, active
            )
            assert loss == want_loss, stage
            assert np.array_equal(g.data, want_g.data), stage

    def test_a_held_pass_is_never_reused_silently(self):
        widths = [2, 4, 2]
        obj = MlpClassifier(widths)
        x = obj.init_params(0)
        rng = np.random.default_rng(1)

        def batch(rows):
            return Batch(rng.standard_normal((rows, 2)), rng.integers(0, 2, rows))

        a, same_rows, other_rows = batch(7), batch(7), batch(128)
        top = ActiveSet((obj.n_layers - 1,))
        with pytest.raises(ValueError, match="nothing to reuse"):
            obj.loss_and_grad(x, a, top, reuse=True)
        obj.loss_and_grad(x, a, top)
        with pytest.raises(ValueError, match="nothing to reuse"):
            obj.loss_and_grad(x, same_rows, top, reuse=True)
        with pytest.raises(ValueError, match="nothing to reuse"):
            obj.loss_and_grad(x, other_rows, top, reuse=True)
        # A pass on another row count leaves a's workspace alone, and a
        # later pass on a, with or without reuse, is the one reused.
        obj.loss(x, other_rows)
        obj.loss_and_grad(x, a, top, reuse=True)
        obj.loss_and_grad(x, a, top, reuse=True)
        # A pass on another batch with the same row count overwrites it,
        # and so does a forward for logits.
        for overwrite in (
            lambda: obj.loss(x, same_rows),
            lambda: obj.logits(x, a.inputs),
        ):
            obj.loss_and_grad(x, a, top)
            overwrite()
            with pytest.raises(ValueError, match="nothing to reuse"):
                obj.loss_and_grad(x, a, top, reuse=True)

    def test_only_a_pass_without_reuse_checks_the_targets(self):
        obj = MlpClassifier([2, 4, 2])
        x = obj.init_params(0)
        good = Batch(np.zeros((3, 2)), np.array([0, 1, 0]))
        bad = Batch(np.zeros((3, 2)), np.array([0, 2, 0]))
        full = ActiveSet.full(obj.n_layers)
        obj.loss_and_grad(x, good, full)
        with pytest.raises(ValueError, match="targets outside"):
            obj.loss_and_grad(x, bad, full)
        # The check comes before the forward, so a batch that fails it
        # leaves no pass to skip it with, and the earlier one stays
        # reusable.
        with pytest.raises(ValueError, match="nothing to reuse"):
            obj.loss_and_grad(x, bad, full, reuse=True)
        obj.loss_and_grad(x, good, full, reuse=True)

    def test_a_negative_target_is_refused(self):
        # Indexing with -1 would silently score the last class.
        obj = MlpClassifier([2, 4, 3])
        batch = Batch(np.zeros((3, 2)), np.array([0, -1, 2]))
        with pytest.raises(ValueError, match=r"targets outside \[0, 3\)"):
            obj.loss_and_grad(obj.init_params(0), batch, ActiveSet.full(obj.n_layers))

    def test_quadratic_ignores_reuse(self):
        # With no pass before it, and on a batch no pass has seen.
        obj = BlockQuadratic([2, 3], noise_sigma=0.5)
        x = obj.init_params(0)
        active = ActiveSet((1,))
        loss, g = obj.loss_and_grad(x, scalar_batch(1), active, reuse=True)
        want_loss, want_g = obj.loss_and_grad(x, scalar_batch(1), active)
        assert loss == want_loss
        assert np.array_equal(g.data, want_g.data)
        g = obj.grad(x, scalar_batch(2), active, reuse=True)
        assert np.array_equal(g.data, obj.grad(x, scalar_batch(2), active).data)


class TestFiniteDiff:
    def test_linear_gradient_near_exact(self):
        obj = BlockQuadratic([1])
        fd = finite_diff_grad(obj, lv([2.0]), None, h=1e-6)
        assert block(fd, 0)[0] == pytest.approx(2.0, abs=1e-8)

    def test_constant_objective_zero(self):
        obj = BlockQuadratic([2], scales=[1e-300])
        fd = finite_diff_grad(obj, lv([1.0, -1.0]), None, h=1e-6)
        assert np.allclose(fd.data, 0.0, atol=1e-12)

    def test_mlp_agreement_tanh(self):
        obj = MlpClassifier([2, 16, 2], activation="tanh")
        x = obj.init_params(3)
        rng = np.random.default_rng(7)
        batch = Batch(rng.standard_normal((6, 2)), rng.integers(0, 2, 6))
        g = obj.grad(x, batch, ActiveSet.full(obj.n_layers))
        fd = finite_diff_grad(obj, x, batch, h=1e-6)
        scale = max(1e-8, float(np.max(np.abs(fd.data))))
        rel = np.max(np.abs(g.data - fd.data)) / scale
        assert rel <= 1e-5

    def test_oracle_self_consistency_across_h(self):
        obj = MlpClassifier([2, 8, 2], activation="tanh")
        x = obj.init_params(4)
        rng = np.random.default_rng(8)
        batch = Batch(rng.standard_normal((5, 2)), rng.integers(0, 2, 5))
        fd5 = finite_diff_grad(obj, x, batch, h=1e-5)
        fd6 = finite_diff_grad(obj, x, batch, h=1e-6)
        assert np.max(np.abs(fd5.data - fd6.data)) <= 1e-5


class TestInitParams:
    def test_quadratic_starts_at_all_ones(self):
        obj = BlockQuadratic([2, 3])
        x = obj.init_params(0)
        assert x.dims == (2, 3)
        assert x.data.tobytes() == np.ones(5).tobytes()

    def test_mlp_seeded_and_biases_zero(self):
        obj = MlpClassifier([2, 4, 2], activation="tanh")
        a = obj.init_params(11)
        b = obj.init_params(11)
        c = obj.init_params(12)
        layers = range(len(a.dims))
        assert all(np.array_equal(block(a, l), block(b, l)) for l in layers)
        assert any(not np.array_equal(block(a, l), block(c, l)) for l in layers)
        assert np.array_equal(block(a, 1), np.zeros(4))  # first bias block
        assert np.array_equal(block(a, 3), np.zeros(2))  # output bias block

    @pytest.mark.parametrize("seed", [0, 1, 11])
    @pytest.mark.parametrize("bias_mode", ["separate", "fused"])
    @pytest.mark.parametrize("widths", [[1, 2], [2, 4, 2], [2, 16, 16, 2], [3, 6, 5, 2]])
    def test_mlp_matches_per_stage_blocks(self, widths, bias_mode, seed):
        # Reference: each stage's weight draw, then its zero bias, as one
        # fused block or as two layers.
        rng = stream(seed, "init")
        blocks = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            w = rng.normal(0.0, fan_in ** -0.5, size=fan_in * fan_out)
            b = np.zeros(fan_out)
            if bias_mode == "fused":
                blocks.append(np.concatenate([w, b]))
            else:
                blocks.extend([w, b])
        want = LayeredVector(blocks)
        got = MlpClassifier(widths, bias_mode=bias_mode).init_params(seed)
        assert got.dims == want.dims
        assert got.offsets == want.offsets
        assert got.data.tobytes() == want.data.tobytes()
