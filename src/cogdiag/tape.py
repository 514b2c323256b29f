"""Reverse-mode automatic differentiation over numpy arrays.

The model code in this package is written against a small set of op
functions (``add``, ``mul``, ``matmul``, ``sigmoid``, ``nsum``, ...).
Each op accepts either plain ndarrays or :class:`Node` wrappers.  With
plain arrays the op just computes the value, so the same formula code
serves both the training graph and cheap deterministic evaluation.
With at least one Node argument the op records itself on an implicit
tape (the ``parents`` links), and :func:`backprop` later walks the
graph in reverse topological order accumulating vector-Jacobian
products.

Ops are vectorized: one Node holds a whole batch worth of values, so
graphs stay small (tens of nodes per training step) and the heavy
lifting happens inside numpy.  The training objective's hot formulas
go further: :func:`fused` records each as a single Node whose gradient
replays the one-op chain's backward pass, operation for operation.
"""

from __future__ import annotations

import numpy as np

# exp saturates outside this band; the gradient is zeroed there so a
# runaway logit cannot produce inf * 0 during the backward pass
EXP_CLAMP = 30.0
# log arguments are floored here, giving BCE a bounded worst case
LOG_FLOOR = 1e-12


class Node:
    """One value in the computation graph.

    ``value`` is always a float64 ndarray (0-d for scalars).  ``grad``
    is filled in by :func:`backprop`.  Leaves handed out by a parameter
    store carry ``param_ref`` so their gradient can be pushed back into
    the store's accumulators after the backward pass.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "param_ref")

    # keep numpy from hijacking `ndarray <op> Node` into an elementwise
    # object loop; the reflected operators below must win
    __array_ufunc__ = None

    def __init__(self, value, parents=(), vjp=None, param_ref=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents)
        self.vjp = vjp
        self.param_ref = param_ref

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(shape={self.value.shape}, leaf={self.param_ref is not None})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, Node):
            raise TypeError("division between nodes is not supported; divide by a constant")
        return mul(self, 1.0 / np.asarray(other, dtype=np.float64))


def value_of(x) -> np.ndarray:
    """Underlying ndarray of a Node, or ``x`` itself coerced to float64."""
    if isinstance(x, Node):
        return x.value
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node2(a, b, out, da, db) -> Node:
    """Build a Node for a binary op; ``da``/``db`` map out-grad to raw parent grads."""
    parents = []
    vjps = []
    if isinstance(a, Node):
        parents.append(a)
        vjps.append(lambda g, fn=da, s=a.value.shape: _unbroadcast(fn(g), s))
    if isinstance(b, Node):
        parents.append(b)
        vjps.append(lambda g, fn=db, s=b.value.shape: _unbroadcast(fn(g), s))

    def vjp(g):
        return tuple(fn(g) for fn in vjps)

    return Node(out, parents, vjp)


def _node1(a: Node, out, da) -> Node:
    return Node(out, (a,), lambda g: (da(g),))


def fused(out, inputs, grads):
    """One Node for a whole formula, or ``out`` itself when no input is a Node.

    ``grads(g)`` maps the output gradient to one gradient per entry of
    ``inputs``, each already summed to that input's shape.  An input may
    be listed more than once: each listing receives its own contribution,
    added to the input's gradient as a separate step, so a fused formula
    can keep the addition order of the one-op chain it replaces.  Inputs
    that are not Nodes are constants and their gradients are dropped.
    """
    keep = [k for k, x in enumerate(inputs) if isinstance(x, Node)]
    if not keep:
        return out
    if len(keep) == len(inputs):
        return Node(out, inputs, grads)

    def vjp(g):
        full = grads(g)
        return tuple(full[k] for k in keep)

    return Node(out, [inputs[k] for k in keep], vjp)


def add(a, b):
    av, bv = value_of(a), value_of(b)
    out = av + bv
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    return _node2(a, b, out, lambda g: g, lambda g: g)


def sub(a, b):
    av, bv = value_of(a), value_of(b)
    out = av - bv
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    return _node2(a, b, out, lambda g: g, lambda g: -g)


def mul(a, b):
    av, bv = value_of(a), value_of(b)
    out = av * bv
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out
    return _node2(a, b, out, lambda g: g * bv, lambda g: g * av)


def matmul(a, b):
    """``a @ b`` where ``a`` is (..., K) data and ``b`` a (K, H) matrix."""
    av, bv = value_of(a), value_of(b)
    out = av @ bv
    if not (isinstance(a, Node) or isinstance(b, Node)):
        return out

    def da(g):
        return g @ bv.T

    def db(g):
        if av.ndim == 1:
            return np.outer(av, g)
        return av.T @ g

    return _node2(a, b, out, da, db)


def take_cells(x, rows, cols):
    """Gather ``x[rows, cols]`` from a 2-d value; scatter-adds on the way back."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    xv = value_of(x)
    out = xv[rows, cols]
    if not isinstance(x, Node):
        return out

    def da(g):
        full = np.zeros_like(xv)
        np.add.at(full, (rows, cols), g)
        return full

    return _node1(x, out, da)


def nsum(x, axis=None, keepdims=False):
    xv = value_of(x)
    out = xv.sum(axis=axis, keepdims=keepdims)
    if not isinstance(x, Node):
        return out

    def da(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g, xv.shape).copy()

    return _node1(x, out, da)


def nmean(x, axis=None):
    xv = value_of(x)
    n = xv.size if axis is None else xv.shape[axis]
    if n == 0:
        raise ValueError("mean of an empty axis")
    return nsum(x, axis=axis) / float(n)


def sigmoid(x):
    from .numerics import stable_sigmoid

    xv = value_of(x)
    out = np.asarray(stable_sigmoid(xv), dtype=np.float64)
    if not isinstance(x, Node):
        return out
    return _node1(x, out, lambda g: g * out * (1.0 - out))


def exp(x):
    xv = value_of(x)
    clamped = np.clip(xv, -EXP_CLAMP, EXP_CLAMP)
    out = np.exp(clamped)
    if not isinstance(x, Node):
        return out
    inside = (xv > -EXP_CLAMP) & (xv < EXP_CLAMP)
    return _node1(x, out, lambda g: g * out * inside)


def log(x):
    xv = value_of(x)
    floored = np.maximum(xv, LOG_FLOOR)
    out = np.log(floored)
    if not isinstance(x, Node):
        return out
    inside = xv >= LOG_FLOOR
    return _node1(x, out, lambda g: g * inside / floored)


def sqrt(x):
    xv = value_of(x)
    out = np.sqrt(xv)
    if not isinstance(x, Node):
        return out
    safe = np.maximum(out, 1e-150)
    return _node1(x, out, lambda g: g * 0.5 / safe)


def square(x):
    xv = value_of(x)
    out = xv * xv
    if not isinstance(x, Node):
        return out
    return _node1(x, out, lambda g: g * 2.0 * xv)


def relu(x):
    xv = value_of(x)
    out = np.maximum(xv, 0.0)
    if not isinstance(x, Node):
        return out
    mask = xv > 0.0
    return _node1(x, out, lambda g: g * mask)


def where_mask(x, mask, fill):
    """``where(mask, x, fill)`` with exact passthrough of kept entries.

    Written as a dedicated op (rather than ``mask*(x-fill)+fill``) so kept
    entries keep their bit pattern; the algebraic form picks up rounding.
    """
    xv = value_of(x)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, xv, fill)
    if not isinstance(x, Node):
        return out
    return _node1(x, out, lambda g: g * mask)


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order  # parents before children


def backprop(root: Node) -> None:
    """Fill ``grad`` on every ancestor of ``root`` and flush leaf grads.

    ``root`` must be scalar (0-d).  Leaves carrying a ``param_ref`` have
    their gradient pushed into the owning parameter store.
    """
    if root.value.shape != ():
        raise ValueError(f"backprop root must be scalar, got shape {root.value.shape}")
    order = _topo_order(root)
    for node in order:
        node.grad = None
    root.grad = np.ones_like(root.value)
    for node in reversed(order):
        if node.grad is None or node.vjp is None:
            continue
        for parent, pgrad in zip(node.parents, node.vjp(node.grad)):
            if parent.grad is None:
                parent.grad = pgrad.copy() if isinstance(pgrad, np.ndarray) else np.asarray(pgrad)
            else:
                parent.grad = parent.grad + pgrad
    for node in order:
        if node.param_ref is not None and node.grad is not None:
            store, name, rows, inverse = node.param_ref
            store.accumulate_grad(name, rows, node.grad, inverse)
