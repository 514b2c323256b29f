"""Gradient and value checks for the reference autodiff, and the objective Node's flush.

``reftape`` is the op-by-op oracle the closed-form gradients are tested
against; ``cogdiag.tape`` holds the one Node a training step records
and the ``backprop`` that sends its gradient into the store.
"""

import numpy as np
import pytest
from numpy.random import default_rng

import reftape as tape
from cogdiag import tape as objective_tape
from cogdiag.numerics import ParameterStore
from reftape import Node, backprop, value_of


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def check_unary(op, x, tol=1e-7):
    node = Node(x)
    out = tape.nsum(op(node))
    backprop(out)
    numeric = fd_grad(lambda v: tape.nsum(op(v)), np.array(x, dtype=np.float64))
    np.testing.assert_allclose(node.grad, numeric, rtol=tol, atol=tol)


class TestOpValues:
    def test_plain_arrays_pass_through(self):
        # no Node involved -> ops return ndarrays, not graph nodes
        a = np.array([1.0, 2.0])
        out = tape.add(tape.mul(a, 3.0), 1.0)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, [4.0, 7.0])

    def test_sigmoid_matches_closed_form(self):
        x = np.array([-2.0, 0.0, 0.1, 3.0])
        out = tape.sigmoid(x)
        np.testing.assert_allclose(out, 1 / (1 + np.exp(-x)), rtol=1e-15)
        assert abs(out[2] - 0.524979187478940) < 1e-12

    def test_exp_clamps_instead_of_overflowing(self):
        out = tape.exp(np.array([1000.0, -1000.0]))
        np.testing.assert_allclose(out, [np.exp(30.0), np.exp(-30.0)])

    def test_log_floors_tiny_arguments(self):
        out = tape.log(np.array([0.0, 1e-20, 1.0]))
        assert out[0] == out[1] == np.log(1e-12)
        assert out[2] == 0.0

    def test_where_mask_keeps_exact_bits(self):
        x = np.array([0.1, 0.2, 0.3])
        out = tape.where_mask(x, np.array([True, False, True]), 0.5)
        assert out[0] == 0.1 and out[2] == 0.3  # bit-identical passthrough
        assert out[1] == 0.5

    def test_value_of(self):
        assert value_of(Node([1.0, 2.0])).tolist() == [1.0, 2.0]
        assert value_of([1, 2]).dtype == np.float64


class TestOpGradients:
    def test_unary_ops(self):
        rng = default_rng(7)
        x = rng.uniform(0.2, 2.0, size=(3, 4))
        check_unary(tape.sigmoid, x)
        check_unary(tape.exp, x)
        check_unary(tape.log, x)
        check_unary(tape.sqrt, x)
        check_unary(tape.square, x)

    def test_relu_gradient_away_from_kink(self):
        x = np.array([-1.5, -0.2, 0.3, 2.0])
        check_unary(tape.relu, x)

    def test_binary_ops_with_broadcasting(self):
        rng = default_rng(3)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3,))
        na, nb = Node(a), Node(b)
        out = tape.nsum(tape.mul(tape.add(na, nb), tape.sub(na, 0.5)))
        backprop(out)
        np.testing.assert_allclose(
            na.grad, fd_grad(lambda v: ((v + b) * (v - 0.5)).sum(), a.copy()), atol=1e-6
        )
        np.testing.assert_allclose(
            nb.grad, fd_grad(lambda v: ((a + v) * (a - 0.5)).sum(), b.copy()), atol=1e-6
        )

    def test_matmul_both_sides(self):
        rng = default_rng(11)
        a = rng.normal(size=(5, 3))
        w = rng.normal(size=(3, 2))
        na, nw = Node(a), Node(w)
        out = tape.nsum(tape.square(tape.matmul(na, nw)))
        backprop(out)
        np.testing.assert_allclose(
            na.grad, fd_grad(lambda v: ((v @ w) ** 2).sum(), a.copy()), atol=1e-5
        )
        np.testing.assert_allclose(
            nw.grad, fd_grad(lambda v: ((a @ v) ** 2).sum(), w.copy()), atol=1e-5
        )

    def test_matmul_vector_input(self):
        rng = default_rng(13)
        v = rng.normal(size=(3,))
        w = rng.normal(size=(3, 4))
        nv, nw = Node(v), Node(w)
        out = tape.nsum(tape.matmul(nv, nw))
        backprop(out)
        np.testing.assert_allclose(nv.grad, w.sum(axis=1), atol=1e-12)
        np.testing.assert_allclose(nw.grad, np.tile(v[:, None], (1, 4)), atol=1e-12)

    def test_take_cells_scatters_back(self):
        x = Node(np.arange(12, dtype=np.float64).reshape(3, 4))
        rows = np.array([0, 2, 0])
        cols = np.array([1, 3, 1])  # duplicate cell (0, 1)
        out = tape.nsum(tape.take_cells(x, rows, cols) * np.array([1.0, 2.0, 3.0]))
        backprop(out)
        expected = np.zeros((3, 4))
        expected[0, 1] = 1.0 + 3.0
        expected[2, 3] = 2.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_nsum_axis_and_mean(self):
        x = Node(np.ones((2, 5)))
        out = tape.nsum(tape.square(tape.nsum(x, axis=1)))
        backprop(out)
        np.testing.assert_allclose(x.grad, 10.0 * np.ones((2, 5)))
        assert float(value_of(tape.nmean(np.array([1.0, 2.0, 3.0])))) == 2.0

    def test_nmean_empty_raises(self):
        with pytest.raises(ValueError):
            tape.nmean(np.array([]))

    def test_diamond_graph_accumulates(self):
        # z = x*y + x -> dz/dx = y + 1, dz/dy = x
        x, y = Node(3.0), Node(4.0)
        z = x * y + x
        backprop(z)
        assert float(x.grad) == 5.0
        assert float(y.grad) == 3.0

    def test_shared_subexpression(self):
        x = Node(np.array([1.0, 2.0]))
        s = tape.square(x)
        out = tape.nsum(s + s)  # d/dx 2x^2 = 4x
        backprop(out)
        np.testing.assert_allclose(x.grad, [4.0, 8.0])

    def test_parents_sharing_one_gradient_array(self):
        # the outer add hands one array to both s and x; x then takes a
        # further + from s's add, which must leave s's and y's copy alone
        x, y = Node(np.array([1.0, 2.0])), Node(np.array([3.0, 4.0]))
        s = x + y
        backprop(tape.nsum(s + x))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        np.testing.assert_array_equal(s.grad, [1.0, 1.0])

    def test_backprop_requires_scalar_root(self):
        with pytest.raises(ValueError):
            backprop(Node(np.array([1.0, 2.0])))

    def test_operator_sugar(self):
        x = Node(2.0)
        z = (3.0 - x) * 2.0 + (-x) / 4.0
        backprop(z)
        assert float(z.value) == pytest.approx(1.5)
        assert float(x.grad) == pytest.approx(-2.25)

    def test_where_mask_gradient(self):
        x = Node(np.array([0.3, 0.7, 1.1]))
        mask = np.array([True, False, True])
        out = tape.nsum(tape.square(tape.where_mask(x, mask, 0.5)))
        backprop(out)
        np.testing.assert_allclose(x.grad, [0.6, 0.0, 2.2])

    def test_deep_chain_is_iterative(self):
        # a recursive topo sort would blow the stack here
        x = Node(0.5)
        z = x
        for _ in range(5000):
            z = z + 0.001
        backprop(z)
        assert float(x.grad) == 1.0


class TestObjectiveNode:
    """``cogdiag.tape.backprop``: one VJP call, each leaf's gradient handed to its store."""

    def store(self):
        store = ParameterStore()
        store.add("w", np.arange(8.0).reshape(4, 2), row_sparse=True)
        store.add("b", np.zeros(2))
        return store

    def root(self, node_type, w, b):
        calls = []

        def vjp(g):
            calls.append(g)
            return np.array([[1.0, 2.0], [3.0, 4.0]]) * g, np.array([0.5, -0.5]) * g, g

        constant = node_type(7.0)  # a parent without a parameter behind it
        return node_type(np.array(2.5), (w, b, constant), vjp), calls

    def test_one_vjp_call_flushes_each_leaf(self):
        store = self.store()
        rows = np.array([1, 3])
        w = objective_tape.Node(store.params["w"][rows], param_ref=(store, "w", rows))
        b = objective_tape.Node(store.params["b"], param_ref=(store, "b", None))
        root, calls = self.root(objective_tape.Node, w, b)
        objective_tape.backprop(root)
        assert len(calls) == 1 and calls[0].shape == () and float(calls[0]) == 1.0
        np.testing.assert_array_equal(store.grad("w"), [[0, 0], [1, 2], [0, 0], [3, 4]])
        np.testing.assert_array_equal(store.grad("b"), [0.5, -0.5])
        assert store.touched_rows("w") is rows
        assert store.touched_rows("b") == "dense"

    def test_matches_the_reference_flush(self):
        want = self.store()
        root, _ = self.root(Node, tape.row_leaf(want, "w", [1, 3]), tape.leaf(want, "b"))
        backprop(root)
        got = self.store()
        rows = np.array([1, 3])
        root, _ = self.root(
            objective_tape.Node,
            objective_tape.Node(got.params["w"][rows], param_ref=(got, "w", rows)),
            objective_tape.Node(got.params["b"], param_ref=(got, "b", None)),
        )
        objective_tape.backprop(root)
        for name in ("w", "b"):
            np.testing.assert_array_equal(got.grad(name), want.grad(name))
            np.testing.assert_array_equal(got.touched_rows(name), want.touched_rows(name))

    def test_requires_scalar_root(self):
        with pytest.raises(ValueError):
            objective_tape.backprop(objective_tape.Node(np.array([1.0, 2.0]), (), lambda g: ()))
