"""Parameter storage, initialization, Adam, and gradient checking.

Everything here is deliberately small and explicit: a dict of named
float64 arrays with matching gradient and moment buffers, an Adam step
with bias correction, and a central-difference gradient checker used
throughout the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tape import Node, backprop, value_of


class NonFiniteGradientError(RuntimeError):
    """Raised by adam_step when a gradient contains nan or inf."""


class GradCheckError(RuntimeError):
    """Raised by grad_check when the objective evaluates non-finite."""


def stable_sigmoid(x):
    """Numerically stable logistic function.

    With ``z = exp(-|x|)``, which never overflows, the result is
    ``1 / (1 + z)`` for ``x >= 0`` and ``z / (1 + z)`` otherwise; safe for
    arguments far beyond +-1000.  Arrays take both formulas in
    preallocated buffers, picking by sign without indexing; 0-d input
    takes a scalar path through the same ``np.exp``, so both paths agree
    to the bit.  Scalar in, float out; array in, array out.  Non-finite
    input is a contract violation and raises.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        v = float(arr)
        if not math.isfinite(v):
            raise ValueError("stable_sigmoid requires finite input")
        z = float(np.exp(-abs(v)))
        return 1.0 / (1.0 + z) if v >= 0 else z / (1.0 + z)
    if not np.isfinite(arr).all():
        raise ValueError("stable_sigmoid requires finite input")
    z = np.abs(arr)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.add(z, 1.0)
    np.copyto(z, 1.0, where=arr >= 0)  # numerator: 1 or z, by sign
    np.divide(z, out, out=out)
    return out


def xavier_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """(fan_in, fan_out) matrix, uniform on +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"xavier_init needs positive fan sizes, got ({fan_in}, {fan_out})")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class AdamConfig:
    learning_rate: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1):
            raise ValueError(f"beta1 must be in [0, 1), got {self.beta1}")
        if not (0 <= self.beta2 < 1):
            raise ValueError(f"beta2 must be in [0, 1), got {self.beta2}")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


class ParameterStore:
    """Named float64 parameter arrays with grad and Adam moment buffers.

    Embedding-style matrices can be registered ``row_sparse``: their
    gradients are tracked per touched row, letting :func:`adam_step`
    update only those rows when the caller opts into lazy mode.  Dense
    mode ignores the bookkeeping and is bit-exact textbook Adam.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count: int = 0
        self._row_sparse: set[str] = set()
        # name -> None (untouched), "dense", or the sorted distinct touched rows
        self._touched: dict[str, object] = {}
        self._scratch: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray, row_sparse: bool = False) -> None:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.array(value, dtype=np.float64)
        self.params[name] = arr
        self.grads[name] = np.zeros_like(arr)
        self.m[name] = np.zeros_like(arr)
        self.v[name] = np.zeros_like(arr)
        self._touched[name] = None
        if row_sparse:
            if arr.ndim != 2:
                raise ValueError(f"row_sparse parameter {name!r} must be 2-d")
            self._row_sparse.add(name)

    def is_row_sparse(self, name: str) -> bool:
        return name in self._row_sparse

    def leaf(self, name: str) -> Node:
        """Graph leaf holding the whole parameter array."""
        return Node(self.params[name], param_ref=(self, name, None))

    def row_leaf(self, name: str, rows) -> Node:
        """Graph leaf holding ``params[name][rows]``, for sorted distinct ``rows``.

        Its gradient has one row per entry of ``rows``; the backward pass
        adds them into the accumulator with :meth:`accumulate_grad`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        return Node(self.params[name][rows], param_ref=(self, name, rows))

    def accumulate_grad(self, name: str, rows, grad: np.ndarray) -> None:
        """Add ``grad`` into the accumulator, whole (``rows=None``) or by rows.

        ``rows`` are sorted and distinct, as in :meth:`row_leaf`; they join
        the touched set without a further ``np.unique``.
        """
        if rows is None:
            self.grads[name] += grad
            self._touched[name] = "dense"
            return
        self.grads[name][rows] += grad
        entry = self._touched[name]
        if entry is None:
            self._touched[name] = rows
        elif entry is not rows and not isinstance(entry, str):
            self._touched[name] = np.union1d(entry, rows)

    def touched_rows(self, name: str):
        """Sorted unique row indices touched since the last step, or "dense"/None."""
        return self._touched[name]

    def zero_grads(self) -> None:
        for name, g in self.grads.items():
            g[:] = 0.0
            self._touched[name] = None

    def reset_moments(self) -> None:
        """Clear Adam state: both moment buffers and the step counter."""
        for name in self.params:
            self.m[name][:] = 0.0
            self.v[name][:] = 0.0
        self.step_count = 0

    def scratch(self, name: str) -> np.ndarray:
        """A work buffer shaped like parameter ``name``, kept for reuse."""
        buf = self._scratch.get(name)
        if buf is None:
            buf = self._scratch[name] = np.empty_like(self.params[name])
        return buf

    def copy_params(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.params.items()}

    def load_params(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, arr in snapshot.items():
            self.params[name][:] = arr


def adam_step(store: ParameterStore, cfg: AdamConfig, lazy: bool = False) -> None:
    """One Adam update over every parameter in the store.

    Validates all gradients first so a non-finite gradient aborts the
    step before anything mutates.  With ``lazy=True``, row_sparse
    parameters update only the rows touched since the last step
    (SparseAdam-style); untouched rows keep stale moments, which is the
    standard trade for not sweeping a huge embedding matrix every step.
    Afterwards all gradient accumulators are zeroed and the shared step
    counter advances by one.
    """
    plans: list[tuple[str, object, np.ndarray]] = []
    for name in store.params:
        rows = store.touched_rows(name) if lazy and name in store._row_sparse else "dense"
        if rows is None:
            continue
        rows = None if isinstance(rows, str) else rows
        grad = store.grads[name] if rows is None else store.grads[name].take(rows, axis=0)
        if not np.isfinite(grad).all():
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        plans.append((name, rows, grad))

    t = store.step_count + 1
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    sparse = [(name, rows, g) for name, rows, g in plans if rows is not None]
    for name, rows, g in plans:
        store._touched[name] = None
        if rows is not None:
            continue
        # in place, with the same operations in the same order as
        # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        # p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        m = store.m[name]
        v = store.v[name]
        buf = store.scratch(name)
        np.multiply(g, 1.0 - cfg.beta2, out=buf)
        buf *= g
        v *= cfg.beta2
        v += buf
        g *= 1.0 - cfg.beta1
        m *= cfg.beta1
        m += g
        np.divide(m, bc1, out=buf)
        buf *= cfg.learning_rate
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += cfg.epsilon
        buf /= g
        store.params[name] -= buf
        g[:] = 0.0
    if sparse:
        # the touched rows of every lazy parameter, end to end: one
        # elementwise update over all of them, the same operations per entry
        g = np.concatenate([g.ravel() for _, _, g in sparse])
        m = np.concatenate([store.m[name].take(rows, axis=0).ravel() for name, rows, _ in sparse])
        v = np.concatenate([store.v[name].take(rows, axis=0).ravel() for name, rows, _ in sparse])
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        step = cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
        end = 0
        for name, rows, g in sparse:
            at = slice(end, end + g.size)
            end += g.size
            store.m[name][rows] = m[at].reshape(g.shape)
            store.v[name][rows] = v[at].reshape(g.shape)
            store.params[name][rows] -= step[at].reshape(g.shape)
            store.grads[name][rows] = 0.0
    store.step_count = t


def grad_check(f, store: ParameterStore, h: float = 1e-5) -> float:
    """Max relative error between backprop and central differences.

    ``f(store)`` must rebuild its graph from the store's current values
    and return a scalar Node.  Every parameter entry is perturbed by
    +-h in turn.  Relative error is |a - n| / max(|a|, |n|, 1e-6); the
    floor keeps zero-gradient entries from reporting pure rounding noise
    as 100% error.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError(f"step size h must be in [1e-6, 1e-3], got {h}")

    store.zero_grads()
    out = f(store)
    if not isinstance(out, Node):
        raise TypeError("f must return a Node so the analytic gradient exists")
    if not np.isfinite(out.value):
        raise GradCheckError("objective evaluated non-finite at the base point")
    backprop(out)
    analytic = {name: store.grads[name].copy() for name in store.params}
    store.zero_grads()

    worst = 0.0
    for name, param in store.params.items():
        flat = param.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(value_of(f(store)))
            flat[i] = orig - h
            f_minus = float(value_of(f(store)))
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise GradCheckError(f"objective non-finite while perturbing {name!r}[{i}]")
            numeric = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(aflat[i]), abs(numeric), 1e-6)
            err = abs(aflat[i] - numeric) / denom
            if err > worst:
                worst = err
    store.zero_grads()
    return worst
