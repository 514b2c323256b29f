"""Parameter storage, initialization, Adam, and gradient checking.

Everything here is deliberately small and explicit: a dict of named
float64 arrays with their moment buffers and each step's gradient
blocks, an Adam step with bias correction, a central-difference
gradient checker used throughout the test suite, and the clamps the
closed-form gradients share.
"""

from __future__ import annotations

import numpy as np

# exp saturates outside this band; the gradient is zeroed there so a
# runaway logit cannot produce inf * 0 during the backward pass
EXP_CLAMP = 30.0
# log arguments are floored here, giving BCE a bounded worst case
LOG_FLOOR = 1e-12
# Adam's moment decay rates and denominator guard, the textbook defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class NonFiniteGradientError(RuntimeError):
    """Raised by adam_step when a gradient contains nan or inf."""


class GradCheckError(RuntimeError):
    """Raised by grad_check when the objective evaluates non-finite."""


def stable_sigmoid(x):
    """Numerically stable logistic function.

    With ``z = exp(-|x|)``, which never overflows, the result is
    ``1 / (1 + z)`` for ``x >= 0`` and ``z / (1 + z)`` otherwise; safe for
    arguments far beyond +-1000.  The numerator is picked without a
    branch or a mask: ``maximum(z, x >= 0)`` is exact, because ``z`` lies
    in [0, 1], so the maximum is 1.0 where ``x >= 0`` and ``z`` itself
    (never below the 0.0 it is compared with) where ``x < 0``.  0-d input
    runs the same path as a one-element array, so scalar and array
    results agree to the bit.  Scalar in, float out; array in, array
    out.  Non-finite input is a contract violation and raises.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.isfinite(arr).all():
        raise ValueError("stable_sigmoid requires finite input")
    z = np.abs(arr)
    np.negative(z, out=z)
    np.exp(z, out=z)
    out = np.add(z, 1.0)
    np.maximum(z, arr >= 0, out=z)  # numerator: 1 or z, by sign
    np.divide(z, out, out=out)
    return float(out[0]) if scalar else out


def xavier_init(fan_in: int, fan_out: int, rng: np.random.Generator) -> np.ndarray:
    """(fan_in, fan_out) matrix, uniform on +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"xavier_init needs positive fan sizes, got ({fan_in}, {fan_out})")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class ParameterStore:
    """Named float64 parameter arrays, Adam moments, and one gradient block each per step.

    A block is the ``(rows, gradient)`` :meth:`accumulate_grad` received,
    ``rows`` None for the whole array.  Matrices registered ``row_sparse``
    let :func:`adam_step` update only their block's rows in lazy mode;
    dense mode reads :meth:`grad` for each parameter: textbook Adam, bit-exact.

    :meth:`add` takes ownership of a float64 array, with no copy, so the
    caller must not hand one array to two stores; any other value is
    converted once.  Its moment buffers come from ``np.zeros`` (calloc):
    a large buffer is mapped zero pages that take memory only once
    written, so a store that never steps, as in a zero-epoch run, holds
    little more than its parameters.
    """

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count: int = 0
        self._row_sparse: set[str] = set()
        # name -> (rows or None, gradient block) received since the last step
        self._blocks: dict[str, tuple] = {}
        self._scratch: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray, row_sparse: bool = False) -> None:
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        arr = np.asarray(value, dtype=np.float64)
        self.params[name] = arr
        self.m[name] = np.zeros(arr.shape)
        self.v[name] = np.zeros(arr.shape)
        if row_sparse:
            if arr.ndim != 2:
                raise ValueError(f"row_sparse parameter {name!r} must be 2-d")
            self._row_sparse.add(name)

    def is_row_sparse(self, name: str) -> bool:
        return name in self._row_sparse

    def accumulate_grad(self, name: str, rows, grad: np.ndarray) -> None:
        """Hold ``grad`` as this step's gradient of ``name``, whole (``rows=None``) or by rows.

        ``rows`` are sorted and distinct.  The store owns the block, with
        no copy, and :func:`adam_step` spends it.  A block of the wrong
        shape, or a second one for ``name`` in one step, raises ValueError.
        """
        shape = self.params[name].shape
        block = np.asarray(grad, dtype=np.float64)
        if block.shape != (shape if rows is None else (len(rows), *shape[1:])):
            raise ValueError(f"gradient for {name!r} has shape {block.shape}, parameter {shape}")
        if name in self._blocks:
            raise ValueError(f"parameter {name!r} already holds a gradient this step")
        self._blocks[name] = (rows, block)

    def grad(self, name: str) -> np.ndarray:
        """This step's gradient of ``name`` as a whole array, zero where no block fell."""
        rows, block = self._blocks.get(name, ([], 0.0))  # no block: no rows to fill
        if rows is None:
            return block
        full = np.zeros(self.params[name].shape)
        full[rows] = block
        return full

    def touched_rows(self, name: str):
        """The sorted distinct rows holding a gradient this step, or "dense"/None."""
        rows, block = self._blocks.get(name, (None, None))
        return None if block is None else "dense" if rows is None else rows

    def zero_grads(self) -> None:
        self._blocks.clear()

    def reset_moments(self) -> None:
        """Clear Adam state: both moment buffers and the step counter.

        Only :func:`adam_step` writes the moments, so before its first
        step they are still zero and are left untouched.
        """
        if self.step_count == 0:
            return
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


def _adam_update(p, g, m, v, buf, learning_rate: float, bc1: float, bc2: float) -> None:
    """Advance the moments ``m``, ``v`` and step ``p``, all in place; ``g`` and ``buf`` are spent.

    The same operations in the same order as
    m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
    p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
    """
    np.multiply(g, 1.0 - ADAM_BETA2, out=buf)
    buf *= g
    v *= ADAM_BETA2
    v += buf
    g *= 1.0 - ADAM_BETA1
    m *= ADAM_BETA1
    m += g
    np.divide(m, bc1, out=buf)
    buf *= learning_rate
    np.divide(v, bc2, out=g)
    np.sqrt(g, out=g)
    g += ADAM_EPSILON
    buf /= g
    p -= buf


def adam_step(store: ParameterStore, learning_rate: float, lazy: bool = False) -> None:
    """One Adam update over every parameter in the store, with the ``ADAM_*`` constants.

    Validates all gradients first so a non-finite gradient aborts the
    step before anything mutates, the held blocks included.  With
    ``lazy=True``, row_sparse parameters update only their block's rows
    (SparseAdam-style); untouched rows keep stale moments, which is the
    standard trade for not sweeping a huge embedding matrix every step.
    Other parameters update whole from :meth:`ParameterStore.grad`.  The
    step spends and releases the blocks and advances the step counter.
    """
    plans: list[tuple[str, object, np.ndarray]] = []
    for name in store.params:
        by_rows = lazy and name in store._row_sparse
        rows, grad = store._blocks.get(name, (None, None)) if by_rows else (None, store.grad(name))
        if grad is None:
            continue
        if not np.isfinite(grad).all():
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name!r}")
        plans.append((name, rows, grad))
    store.zero_grads()

    t = store.step_count + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    sparse = [(name, rows, g) for name, rows, g in plans if rows is not None]
    for name, rows, g in plans:
        if rows is None:
            m, v = store.m[name], store.v[name]
            _adam_update(store.params[name], g, m, v, store.scratch(name), learning_rate, bc1, bc2)
    if sparse:
        # the touched rows of every lazy parameter, end to end: one
        # elementwise update over copies of all of them, then written back
        def gather(arrays):
            return np.concatenate([arrays[n].take(r, axis=0).ravel() for n, r, _ in sparse])

        g = np.concatenate([g.ravel() for _, _, g in sparse])
        p, m, v = gather(store.params), gather(store.m), gather(store.v)
        _adam_update(p, g, m, v, np.empty_like(g), learning_rate, bc1, bc2)
        end = 0
        for name, rows, g in sparse:
            at = slice(end, end + g.size)
            end += g.size
            store.params[name][rows] = p[at].reshape(g.shape)
            store.m[name][rows] = m[at].reshape(g.shape)
            store.v[name][rows] = v[at].reshape(g.shape)
    store.step_count = t


def grad_check(f, store: ParameterStore, h: float = 1e-5) -> float:
    """Max relative error between the analytic gradient and central differences.

    ``f(store, backward)`` must evaluate the objective from the store's
    current values and return it as a float; with ``backward`` true it
    must also hand the objective's gradient blocks to the store, as
    ``training.batch_loss`` does.  Every parameter entry is perturbed
    by +-h in turn.  Relative error is |a - n| / max(|a|, |n|, 1e-6);
    the floor keeps zero-gradient entries from reporting pure rounding
    noise as 100% error.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError(f"step size h must be in [1e-6, 1e-3], got {h}")

    store.zero_grads()
    if not np.isfinite(f(store, True)):
        store.zero_grads()
        raise GradCheckError("objective evaluated non-finite at the base point")
    analytic = {name: store.grad(name) for name in store.params}
    store.zero_grads()

    worst = 0.0
    for name, param in store.params.items():
        flat = param.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(store, False))
            flat[i] = orig - h
            f_minus = float(f(store, False))
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
