"""Optimizer, initializer, sigmoid, and grad-check contracts."""

import numpy as np
import pytest
from numpy.random import default_rng

from cogdiag.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    GradCheckError,
    NonFiniteGradientError,
    ParameterStore,
    adam_step,
    grad_check,
    stable_sigmoid,
    xavier_init,
)

import reftape as tape
from reftape import leaf, objective


class TestStableSigmoid:
    def test_midpoint(self):
        assert stable_sigmoid(0.0) == 0.5

    def test_frozen_value(self):
        # closed form 1/(1+e^-0.1), high-precision reference
        assert abs(stable_sigmoid(0.1) - 0.5249791874789399) < 1e-12

    def test_no_overflow_far_out(self):
        assert stable_sigmoid(1000.0) == 1.0
        assert stable_sigmoid(-1000.0) == 0.0

    def test_symmetry(self):
        rng = default_rng(0)
        for x in rng.uniform(-50, 50, size=200):
            assert abs(stable_sigmoid(x) + stable_sigmoid(-x) - 1.0) < 1e-12

    def test_strictly_increasing(self):
        xs = np.sort(default_rng(1).uniform(-30, 30, size=500))
        ys = stable_sigmoid(xs)
        assert np.all(np.diff(ys) > 0)

    def test_vectorized_matches_scalar(self):
        xs = np.array([-3.0, 0.0, 7.5])
        np.testing.assert_array_equal(stable_sigmoid(xs), [stable_sigmoid(x) for x in xs])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            stable_sigmoid(np.nan)
        with pytest.raises(ValueError):
            stable_sigmoid(np.array([1.0, np.inf]))


def masked_sigmoid(x):
    """Reference: the sign-masked form, exp taken on each half separately."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("stable_sigmoid requires finite input")
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    expx = np.exp(arr[~pos])
    out[~pos] = expx / (1.0 + expx)
    if out.shape == ():
        return float(out)
    return out


def same_bits(a, b):
    return np.array_equal(
        np.asarray(a, dtype=np.float64).view(np.int64),
        np.asarray(b, dtype=np.float64).view(np.int64),
    )


class TestStableSigmoidReference:
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 36.7, -36.7, 745.2, -745.2]

    def inputs(self):
        rng = default_rng(12)
        for scale in (1e-300, 1e-20, 1e-3, 1.0, 10.0, 40.0, 800.0, 1e6):
            yield np.concatenate([rng.standard_normal(2000) * scale, self.EDGES])

    def test_arrays_match_reference_bit_for_bit(self):
        for xs in self.inputs():
            assert same_bits(stable_sigmoid(xs), masked_sigmoid(xs))
            grid = xs[:1800].reshape(30, 60)
            assert same_bits(stable_sigmoid(grid), masked_sigmoid(grid))
            strided = grid[::2, ::3]
            assert same_bits(stable_sigmoid(strided), masked_sigmoid(strided))

    def test_serving_blocks_match_reference_bit_for_bit(self):
        # the shapes and regimes the ncd head feeds it: a mixed-sign
        # 512-wide layer block, an all-positive block near +12 like the
        # second layer's, rows of signed zeros, subnormals and saturating
        # logits, and a strided view of the mixed block
        rng = default_rng(13)
        mixed = rng.standard_normal((600, 512)) * 4.0
        positive = 12.0 + rng.standard_normal((600, 256))
        edges = np.tile([0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0], (8, 1))
        for block in (mixed, positive, edges, mixed[1::3, ::5]):
            assert same_bits(stable_sigmoid(block), masked_sigmoid(block))

    def test_array_input_left_untouched(self):
        xs = np.array([-2.0, 0.0, 3.0])
        stable_sigmoid(xs)
        np.testing.assert_array_equal(xs, [-2.0, 0.0, 3.0])

    def test_zero_d_matches_reference_and_returns_float(self):
        for xs in self.inputs():
            for x in xs[::20]:
                for form in (float(x), np.float64(x), np.array(x)):
                    got = stable_sigmoid(form)
                    assert type(got) is float
                    assert same_bits(got, masked_sigmoid(form))

    def test_integer_input(self):
        assert stable_sigmoid(0) == 0.5
        assert same_bits(stable_sigmoid(np.arange(-3, 4)), masked_sigmoid(np.arange(-3, 4)))

    def test_empty_array(self):
        assert stable_sigmoid(np.zeros(0)).shape == (0,)

    def test_non_finite_raises_on_both_paths(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                stable_sigmoid(bad)
            with pytest.raises(ValueError):
                stable_sigmoid(np.float64(bad))
            with pytest.raises(ValueError):
                stable_sigmoid(np.array(bad))
            with pytest.raises(ValueError):
                stable_sigmoid(np.array([0.0, bad, 1.0]))


class TestXavierInit:
    def test_bound_small_fans(self):
        w = xavier_init(3, 3, default_rng(0))
        assert w.shape == (3, 3)
        assert np.all(np.abs(w) <= 1.0)  # sqrt(6/6) = 1

    def test_bound_is_tight_formula(self):
        w = xavier_init(100, 50, default_rng(0))
        assert np.max(np.abs(w)) <= 0.2  # sqrt(6/150) = 0.2 exactly

    def test_moments(self):
        w = xavier_init(1000, 100, default_rng(42))
        bound = np.sqrt(6.0 / 1100)
        assert abs(w.mean()) < 0.02 * bound
        # uniform(-b, b) variance is b^2/3
        assert abs(w.var() / (bound**2 / 3) - 1.0) < 0.1

    def test_deterministic_under_seed(self):
        np.testing.assert_array_equal(
            xavier_init(7, 5, default_rng(9)), xavier_init(7, 5, default_rng(9))
        )

    def test_rejects_bad_fans(self):
        with pytest.raises(ValueError):
            xavier_init(0, 5, default_rng(0))


def scalar_store(value=1.0):
    store = ParameterStore()
    store.add("w", np.array([[value]]))
    return store


class TestAdamStep:
    def test_textbook_constants(self):
        assert ADAM_BETA1 == 0.9 and ADAM_BETA2 == 0.999 and ADAM_EPSILON == 1e-8

    def test_zero_gradients_identity(self):
        store = scalar_store(3.25)
        before = store.params["w"].copy()
        adam_step(store, 0.002)
        np.testing.assert_array_equal(store.params["w"], before)
        assert store.step_count == 1

    def test_first_step_moves_by_learning_rate(self):
        # with constant g=1, bias-corrected mhat=1 and vhat=1, so the
        # first update is lr/(1 + eps) regardless of the betas
        store = scalar_store(0.0)
        store.accumulate_grad("w", None, np.ones((1, 1)))
        adam_step(store, 0.002)
        delta = float(store.params["w"][0, 0])
        assert abs(delta + 0.002) <= 0.002 * 1e-7

    def test_second_moment_after_two_constant_steps(self):
        # v_t = (1 - beta2^t) g^2 for constant gradient
        store = scalar_store(0.0)
        for _ in range(2):
            store.accumulate_grad("w", None, np.full((1, 1), 3.0))
            adam_step(store, 0.002)
        expected = (1 - ADAM_BETA2**2) * 9.0
        assert abs(float(store.v["w"][0, 0]) - expected) < 1e-15
        assert store.step_count == 2

    def test_gradients_cleared_after_step(self):
        store = scalar_store()
        store.accumulate_grad("w", None, np.full((1, 1), 5.0))
        adam_step(store, 0.002)
        assert float(store.grad("w")[0, 0]) == 0.0
        assert store.touched_rows("w") is None

    def test_non_finite_gradient_aborts_whole_step(self):
        store = ParameterStore()
        store.add("a", np.array([1.0]))
        store.add("b", np.array([2.0]))
        store.add("emb", np.zeros((3, 1)), row_sparse=True)
        rows = np.array([0, 2])
        store.accumulate_grad("a", None, np.ones(1))
        store.accumulate_grad("b", None, np.full(1, np.nan))
        store.accumulate_grad("emb", rows, np.ones((2, 1)))
        before_a = store.params["a"].copy()
        with pytest.raises(NonFiniteGradientError, match="'b'"):
            adam_step(store, 0.002)
        # 'a' must not have moved: the step aborts atomically
        np.testing.assert_array_equal(store.params["a"], before_a)
        assert store.step_count == 0
        # and every held gradient survives the abort
        np.testing.assert_array_equal(store.grad("a"), [1.0])
        assert np.isnan(store.grad("b")).all()
        np.testing.assert_array_equal(store.grad("emb")[:, 0], [1.0, 0.0, 1.0])
        assert store.touched_rows("a") == "dense" and store.touched_rows("b") == "dense"
        assert store.touched_rows("emb") is rows

    @pytest.mark.parametrize("order", [("emb", "b"), ("b", "emb")])
    def test_non_finite_gradients_name_the_first_in_store_order(self, order):
        # a row-sparse block and a dense gradient both non-finite in one lazy
        # step: the error names whichever of them the store registered first,
        # and nothing moves, the moments of an earlier step included
        store = ParameterStore()
        store.add("a", np.ones(3))
        for name in order:
            if name == "emb":
                store.add("emb", np.ones((4, 2)), row_sparse=True)
            else:
                store.add(name, np.ones(3))
        rows = np.array([1, 3])

        def hold(emb, b):
            store.accumulate_grad("a", None, np.full(3, 0.5))
            store.accumulate_grad("emb", rows, np.array(emb))
            store.accumulate_grad("b", None, np.full(3, b))

        hold([[0.5, 0.5], [0.5, 0.5]], 0.5)
        adam_step(store, 0.002, lazy=True)
        before = {table: {name: arr.copy() for name, arr in getattr(store, table).items()}
                  for table in ("params", "m", "v")}
        hold([[0.5, np.inf], [np.nan, 0.5]], np.nan)
        with pytest.raises(NonFiniteGradientError, match=f"'{order[0]}'"):
            adam_step(store, 0.002, lazy=True)
        for table, arrays in before.items():
            for name, arr in arrays.items():
                assert getattr(store, table)[name].tobytes() == arr.tobytes(), (table, name)
        assert store.step_count == 1
        # every held block survives the abort
        assert store.touched_rows("emb") is rows
        assert store.touched_rows("a") == "dense" and store.touched_rows("b") == "dense"
        np.testing.assert_array_equal(store.grad("a"), np.full(3, 0.5))
        assert np.isinf(store.grad("emb")[1, 1]) and np.isnan(store.grad("emb")[3, 0])
        assert np.isnan(store.grad("b")).all()

    def test_dense_in_place_matches_textbook_formula_bitwise(self):
        # the out= buffer version against the expression it replaced
        rng = default_rng(11)
        store = ParameterStore()
        store.add("w", rng.normal(size=(7, 5)))
        store.add("b", rng.normal(size=5))
        ref = {name: store.params[name].copy() for name in store.params}
        m = {name: np.zeros_like(p) for name, p in ref.items()}
        v = {name: np.zeros_like(p) for name, p in ref.items()}
        lr = 0.01
        for t in range(1, 4):
            grads = {name: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3)
                     for name, p in ref.items()}
            for name, g in grads.items():
                store.accumulate_grad(name, None, g.copy())  # the store spends its block
            adam_step(store, lr)
            bc1 = 1.0 - ADAM_BETA1**t
            bc2 = 1.0 - ADAM_BETA2**t
            for name, g in grads.items():
                m[name] *= ADAM_BETA1
                m[name] += (1.0 - ADAM_BETA1) * g
                v[name] *= ADAM_BETA2
                v[name] += (1.0 - ADAM_BETA2) * g * g
                ref[name] -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPSILON)
                assert store.params[name].tobytes() == ref[name].tobytes()
                assert store.m[name].tobytes() == m[name].tobytes()
                assert store.v[name].tobytes() == v[name].tobytes()
                assert not store.grad(name).any()

    def test_lazy_rows_match_dense_for_touched_rows(self):
        rng = default_rng(5)
        init = rng.normal(size=(6, 3))
        grad = np.zeros((6, 3))
        grad[[1, 4]] = rng.normal(size=(2, 3))

        dense = ParameterStore()
        dense.add("emb", init.copy())
        dense.accumulate_grad("emb", None, grad.copy())
        adam_step(dense, 0.002)

        lazy = ParameterStore()
        lazy.add("emb", init.copy(), row_sparse=True)
        lazy.accumulate_grad("emb", np.array([1, 4]), grad[[1, 4]])
        adam_step(lazy, 0.002, lazy=True)

        # rows with zero gradient and zero moments stay put under dense
        # Adam too, so the two modes agree exactly on the first step
        np.testing.assert_array_equal(dense.params["emb"], lazy.params["emb"])

    def test_lazy_skips_untouched_moments(self):
        store = ParameterStore()
        store.add("emb", np.zeros((4, 2)), row_sparse=True)
        store.accumulate_grad("emb", np.array([2]), np.ones((1, 2)))
        adam_step(store, 0.002, lazy=True)
        store.accumulate_grad("emb", np.array([0]), np.ones((1, 2)))
        adam_step(store, 0.002, lazy=True)
        # row 2 was only touched on step one; lazy mode leaves it alone after
        assert store.m["emb"][2, 0] == pytest.approx(0.1)
        assert store.params["emb"][1, 0] == 0.0

    def test_second_block_in_a_step_raises(self):
        store = ParameterStore()
        store.add("emb", np.zeros((5, 2)), row_sparse=True)
        rows = np.array([2, 4])
        store.accumulate_grad("emb", rows, np.ones((2, 2)))
        with pytest.raises(ValueError, match="'emb'"):
            store.accumulate_grad("emb", np.array([0, 2]), np.full((2, 2), 7.0))
        # the first block is kept, as it was
        assert store.touched_rows("emb") is rows
        np.testing.assert_array_equal(store.grad("emb")[:, 0], [0.0, 0.0, 1.0, 0.0, 1.0])
        adam_step(store, 0.002, lazy=True)
        assert store.touched_rows("emb") is None
        assert (store.m["emb"][[2, 4]] != 0).all() and not store.m["emb"][[0, 1, 3]].any()

    def test_block_of_the_wrong_shape_raises(self):
        store = ParameterStore()
        store.add("emb", np.zeros((5, 2)), row_sparse=True)
        with pytest.raises(ValueError, match="'emb'"):
            store.accumulate_grad("emb", np.array([0, 2]), np.ones((2, 3)))
        with pytest.raises(ValueError, match="'emb'"):
            store.accumulate_grad("emb", None, np.ones(2))
        assert store.touched_rows("emb") is None

    def test_grad_reads_each_block_whole(self):
        store = ParameterStore()
        store.add("emb", np.ones((4, 2)), row_sparse=True)
        store.add("b", np.ones(2))
        store.add("idle", np.ones(3))
        block = np.array([0.5, -0.5])
        store.accumulate_grad("emb", np.array([1, 3]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        store.accumulate_grad("b", None, block)
        np.testing.assert_array_equal(store.grad("emb"), [[0, 0], [1, 2], [0, 0], [3, 4]])
        assert store.grad("b") is block  # a whole block is the gradient itself
        np.testing.assert_array_equal(store.grad("idle"), np.zeros(3))
        assert store.touched_rows("idle") is None

    def test_snapshot_roundtrip(self):
        store = scalar_store(1.5)
        snap = store.copy_params()
        store.params["w"][:] = 9.0
        store.load_params(snap)
        assert float(store.params["w"][0, 0]) == 1.5

    def test_reset_moments(self):
        store = scalar_store()
        store.accumulate_grad("w", None, np.ones((1, 1)))
        adam_step(store, 0.002)
        store.reset_moments()
        assert store.step_count == 0
        assert np.all(store.m["w"] == 0.0) and np.all(store.v["w"] == 0.0)

    def test_reset_moments_before_any_step_leaves_zero_moments(self):
        # before the first step reset_moments writes nothing, so the
        # moments must still read as the zeros add() allocated
        store = ParameterStore()
        store.add("emb", np.ones((6, 3)), row_sparse=True)
        store.add("b", np.ones(3))
        store.reset_moments()
        assert store.step_count == 0
        for name in store.params:
            assert not store.m[name].any() and not store.v[name].any()
        store.accumulate_grad("b", None, np.ones(3))
        adam_step(store, 0.002)
        store.reset_moments()
        store.reset_moments()  # a second reset, at step 0 again
        assert store.step_count == 0
        for name in store.params:
            assert not store.m[name].any() and not store.v[name].any()


class TestGradCheck:
    def test_quadratic(self):
        store = scalar_store(3.0)
        err = grad_check(objective(lambda s: tape.nsum(tape.square(leaf(s, "w")))), store)
        assert err < 1e-9

    def test_closed_form_objective_without_a_graph(self):
        # the contract batch_loss has: evaluate, and add the gradient when asked
        store = ParameterStore()
        store.add("w", default_rng(4).normal(size=(3, 2)))

        def f(s, backward):
            w = s.params["w"]
            if backward:
                s.accumulate_grad("w", None, 2.0 * w)
            return float(np.sum(w * w))

        assert grad_check(f, store) < 1e-9

    def test_constant_objective_reports_zero(self):
        store = scalar_store(2.0)
        err = grad_check(objective(lambda s: tape.nsum(leaf(s, "w") * 0.0) + 5.0), store)
        assert err == 0.0

    def test_sigmoid_chain(self):
        store = ParameterStore()
        store.add("w", default_rng(2).normal(size=(4, 2)))
        err = grad_check(objective(lambda s: tape.nsum(tape.sigmoid(leaf(s, "w")))), store)
        assert err < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grad_check(objective(lambda s: tape.nsum(leaf(s, "w"))), scalar_store(), h=1e-2)

    def test_non_finite_objective_names_the_problem(self):
        store = scalar_store(np.inf)
        with pytest.raises(GradCheckError):
            grad_check(objective(lambda s: tape.nsum(leaf(s, "w"))), store)

    def test_leaves_store_untouched(self):
        store = scalar_store(1.25)
        grad_check(objective(lambda s: tape.nsum(tape.square(leaf(s, "w")))), store)
        assert float(store.params["w"][0, 0]) == 1.25
        assert np.all(store.grad("w") == 0.0)
        assert store.touched_rows("w") is None

    def test_flags_a_deliberately_wrong_gradient(self):
        # negative control: a node whose backward pass claims 3x instead of
        # the true 2x must produce a glaring relative error, proving the
        # checker is actually comparing something
        store = scalar_store(1.5)

        @objective
        def crooked(s):
            w = leaf(s, "w")
            square = tape.Node(w.value**2, parents=(w,), vjp=lambda g: (g * 3.0 * w.value,))
            return tape.nsum(square)

        assert grad_check(crooked, store) > 0.3
