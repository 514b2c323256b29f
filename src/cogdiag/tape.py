"""The training objective as one graph Node, and the flush of its gradient.

Each training step records its whole objective as one :class:`Node`
whose parents are parameter leaves and whose ``vjp`` is the objective's
closed-form gradient (see ``training.build_batch_graph``).
:func:`backprop` calls that VJP once and hands each leaf's gradient,
one block per parameter, to the store its ``param_ref`` names.  The
op-by-op reference autodiff the closed form is checked against lives
with the tests, in ``tests/reftape.py``.
"""

from __future__ import annotations

import numpy as np


class Node:
    """One value in the graph: the objective, or a parameter leaf under it.

    ``value`` is a float64 ndarray (0-d for the objective).  ``vjp(g)``
    maps the output gradient to one gradient per parent, each already
    summed to that parent's shape.  A leaf carries ``param_ref``, the
    (store, name, rows) its gradient goes back to; ``rows`` is None for
    a whole array, else the sorted distinct rows the leaf holds.
    """

    __slots__ = ("value", "parents", "vjp", "param_ref")

    def __init__(self, value, parents=(), vjp=None, param_ref=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents = tuple(parents)
        self.vjp = vjp
        self.param_ref = param_ref


def backprop(root: Node) -> None:
    """Call the scalar ``root``'s VJP once and flush each leaf's gradient.

    Every parent carrying a ``param_ref`` hands its gradient to the
    owning store with ``accumulate_grad``, as this step's block.
    """
    if root.value.shape != ():
        raise ValueError(f"backprop root must be scalar, got shape {root.value.shape}")
    for parent, grad in zip(root.parents, root.vjp(np.array(1.0))):
        if parent.param_ref is not None:
            store, name, rows = parent.param_ref
            store.accumulate_grad(name, rows, grad)
