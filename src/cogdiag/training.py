"""Two-phase training with the confidence-calibration objective.

The objective is a weighted sum of three terms, each a plain mean so
the weights keep their meaning across batch sizes:

* prediction: binary cross-entropy of one reparameterized sample per
  interaction;
* regularization (weight gamma): KL of each occurring student's
  posterior against the prior, computed on the post-dropout variance;
* calibration (weight beta): a pairwise hinge that pushes variance to
  rank opposite to observed correctness, with the correctness gap as
  margin.

Training runs in two phases.  Phase one switches the calibration term
off and regularizes toward a standard normal; it ends by early
stopping on validation AUC.  The mean of all student posterior means
is then frozen as a consensus prior, optimizer moments are reset, and
phase two trains the full objective against that consensus.  The
returned checkpoint holds the best-validation-AUC parameters seen in
phase two.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import inference, tape  # looked up per call, so a wrapper patched onto either is seen
from .checkpoint import Checkpoint
from .data import (
    DataValidationError,
    Dataset,
    Splits,
    SplitSpec,
    batches,
    cell_runs,
    split_per_student,
)
from .diagnostics import (
    EXERCISE_DIFF,
    EXERCISE_DISC,
    MLP_PARAMS,
    DiagnosticFunction,
    clamp_ncd_weights,
    init_parameters,
)
from .latent import (
    STANDARD_PRIOR,
    STUDENT_LOGVAR,
    STUDENT_MEAN,
    PriorConsensus,
    apply_dropout_mask,
    compute_consensus,
    draw_ability,
    dropout_mask,
    kl_consensus,
    variance_from_logvar,
)
from .metrics import MetricError, hard_calls
from .numerics import (
    EXP_CLAMP,
    LOG_FLOOR,
    NonFiniteGradientError,
    ParameterStore,
    adam_step,
    stable_sigmoid,
)
from .seeding import substream

SIGN_MODES = ("consistent", "literal")


class NonFiniteLossError(RuntimeError):
    """A loss term evaluated to nan or inf; the message names the term."""


@dataclass
class TrainConfig:
    """Every value that shapes training; building one checks them all.

    ``pretrain_epochs`` takes -1 for "same as ``max_epochs``".  Each
    phase-two batch attempts ``batch_size`` calibration pairs.  Variance
    dropout keeps an entry with probability ``dropout_keep`` or pins it
    to ``dropout_alpha``.  Validation's ECE, like ``eval``'s, has
    ``bins`` reliability bins.
    """

    gamma: float = 1e-4
    beta: float = 0.1
    learning_rate: float = 0.002
    batch_size: int = 32
    max_epochs: int = 100
    pretrain_epochs: int = -1  # phase-one cap
    patience: int = 10
    seed: int = SplitSpec.seed
    train_fraction: float = SplitSpec.train_fraction
    val_fraction: float = SplitSpec.val_fraction
    calibration_sign: str = "consistent"
    dropout_alpha: float = 0.5
    dropout_keep: float = 0.5
    bins: int = 10

    def __post_init__(self):
        problems = self._problems()
        if problems:
            raise ValueError("; ".join(problems))

    def _problems(self) -> list[str]:
        problems = []
        if not (self.gamma >= 0):
            problems.append(f"gamma must be nonnegative, got {self.gamma}")
        if not (self.beta >= 0):
            problems.append(f"beta must be nonnegative, got {self.beta}")
        if not (self.learning_rate > 0):
            problems.append(f"learning_rate must be positive, got {self.learning_rate}")
        if not (self.batch_size >= 1):
            problems.append(f"batch_size must be positive, got {self.batch_size}")
        if not (self.max_epochs >= 0):
            problems.append(f"max_epochs must be nonnegative, got {self.max_epochs}")
        if self.pretrain_epochs != -1 and not (self.pretrain_epochs >= 0):
            problems.append(f"pretrain_epochs must be nonnegative, got {self.pretrain_epochs}")
        if not (self.patience >= 1):
            problems.append(f"patience must be at least 1, got {self.patience}")
        if not (self.seed >= 0):
            problems.append(f"seed must be nonnegative, got {self.seed}")
        try:
            self.split
        except ValueError as exc:
            problems.append(str(exc))
        if self.calibration_sign not in SIGN_MODES:
            problems.append(
                f"calibration_sign must be one of {SIGN_MODES}, got {self.calibration_sign!r}"
            )
        if not (self.dropout_alpha > 0):
            problems.append(f"dropout alpha must be positive, got {self.dropout_alpha}")
        if not (0 < self.dropout_keep <= 1):
            problems.append(f"dropout keep_probability must be in (0, 1], got {self.dropout_keep}")
        if not (self.bins >= 1):
            problems.append(f"bins must be at least 1, got {self.bins}")
        return problems

    @property
    def split(self) -> SplitSpec:
        return SplitSpec(
            train_fraction=self.train_fraction,
            val_fraction=self.val_fraction,
            seed=self.seed,
        )


class CorrectnessTracker:
    """Cumulative per-(student, cell) prediction hit rates.

    A cell is a concept for the multidimensional variants and the single
    shared slot for IRT.  After each training step the batch's sampled
    probabilities become hard calls (``metrics.hard_calls``) and are
    compared with the labels; every concept the exercise touches gets
    the outcome.  A cell's correctness frequency is ``hits / seen``;
    ``seen == 0`` means it has no history yet.
    """

    def __init__(self, n_students: int, n_cells: int):
        self.hits = np.zeros((n_students, n_cells), dtype=np.int64)
        self.seen = np.zeros((n_students, n_cells), dtype=np.int64)

    def update(self, students, exercises, cells, probs, labels) -> None:
        """Count one attempt, and a hit if the prediction was right, per cell.

        ``cells`` is the (ptr, idx) CSR of every exercise's cells, as
        :meth:`DiagnosticFunction.cells` gives it.  The cells of one
        exercise must be distinct, as a Dataset's concepts are: a
        repeated cell would count twice.
        """
        correct = hard_calls(probs) == (np.asarray(labels) == 1)
        cols, sizes = cell_runs(*cells, np.asarray(exercises, dtype=np.int64))
        rows = np.asarray(students, dtype=np.int64).repeat(sizes)
        np.add.at(self.seen, (rows, cols), 1)
        hit = correct.repeat(sizes)
        np.add.at(self.hits, (rows[hit], cols[hit]), 1)

    def observed_cells(self):
        """(students, cells, frequencies) for every cell with history."""
        s, c = np.nonzero(self.seen)
        return s, c, self.hits[s, c] / self.seen[s, c]


def prediction_loss(probs, labels):
    """Mean binary cross-entropy of an array of probabilities, with its gradient function.

    Both logs floor their argument at ``numerics.LOG_FLOOR``.  The
    gradient function, ``g -> (d probs,)``, takes probs and labels of one
    shape, (B,) in training, and a 0-d ``g``.  It replays the backward
    pass of the composed log/mul/sub/add/mean/negate chain of
    ``tests/reftape.py``, so it matches that chain to the bit; as in the
    chain's mean, the loss multiplies the sum by 1/n.
    """
    labels = np.asarray(labels, dtype=np.float64)
    yv = np.asarray(probs, dtype=np.float64)
    miss, other = 1.0 - yv, 1.0 - labels
    floored_y = np.maximum(yv, LOG_FLOOR)
    floored_miss = np.maximum(miss, LOG_FLOOR)
    per = np.log(floored_y) * labels + np.log(floored_miss) * other
    n = per.size
    if n == 0:
        raise ValueError("mean of an empty axis")
    inv_n = 1.0 / n

    def grads(g):
        g = g * -1.0 * inv_n
        via_y = g * labels * (yv >= LOG_FLOOR) / floored_y
        via_miss = g * other * (miss >= LOG_FLOOR) / floored_miss
        return (via_y - via_miss,)  # x - y is x + (-y), bit for bit

    return (per.sum() * inv_n) * -1.0, grads


def calibration_pair_loss(var_a, var_b, o_a, o_b, sign_mode: str):
    """Hinge on a variance pair with the correctness gap as margin.

    ``consistent`` orients the hinge so that the side with higher
    historical correctness is pushed toward *smaller* variance, which is
    the ranking the confidence story wants.  ``literal`` keeps the
    flipped orientation some published implementations of this loss
    ship with; it penalizes the opposite ordering.  Ties in correctness
    contribute exactly zero either way.  Returns the per-pair hinge with
    its gradient function, ``g -> (d var_a, d var_b)``.
    """
    if sign_mode not in SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {SIGN_MODES}")
    o_a = np.asarray(o_a, dtype=np.float64)
    o_b = np.asarray(o_b, dtype=np.float64)
    gap = o_a - o_b
    direction = np.sign(gap)
    if sign_mode == "literal":
        direction = -direction
    margin = np.abs(gap)
    hinge = np.maximum((var_a - var_b) * direction + margin, 0.0)
    active = hinge > 0.0  # where the hinge's argument is positive

    def grads(g):  # back through the hinge, add, mul and sub, as the reference chain runs them
        g_a = g * active * direction
        return g_a, -g_a

    return hinge, grads


@dataclass
class PairSample:
    """Surviving calibration pairs: instance positions, cells, frequencies."""

    pos_a: np.ndarray
    cell_a: np.ndarray
    o_a: np.ndarray
    pos_b: np.ndarray
    cell_b: np.ndarray
    o_b: np.ndarray

    @property
    def count(self) -> int:
        return len(self.pos_a)


def sample_pairs(
    students: np.ndarray,
    exercises: np.ndarray,
    cells: tuple[np.ndarray, np.ndarray],
    tracker: CorrectnessTracker,
    count: int,
    rng: np.random.Generator,
) -> PairSample:
    """Draw up to ``count`` calibration pairs from one batch.

    Each attempt picks two distinct instance positions uniformly, then
    one cell uniformly from each side's exercise, read from the (ptr,
    idx) CSR ``cells``.  ``rng`` gives four arrays of ``count`` draws, in
    this order: the first positions, the offsets (1 to B - 1) of the
    second positions from them, the picks within the first sides' cells
    and the picks within the second sides'.  A batch of one instance
    draws nothing.  Pairs where either cell has no tracked history yet
    are dropped, so early batches may contribute nothing.
    """
    students = np.asarray(students, dtype=np.int64)
    exercises = np.asarray(exercises, dtype=np.int64)
    (ptr, idx), B = cells, len(students)
    pos = cell = np.zeros(0, dtype=np.int64)  # side a's attempts, then side b's
    if B >= 2:
        pos_a = rng.integers(0, B, size=count)
        pos = np.concatenate((pos_a, (pos_a + rng.integers(1, B, size=count)) % B))
        ex = exercises[pos]
        lo = ptr[ex]
        n_cells = ptr[ex + 1] - lo
        picks = (rng.integers(0, n_cells[:count]), rng.integers(0, n_cells[count:]))
        cell = idx[lo + np.concatenate(picks)]
    s = students[pos]
    seen = tracker.seen[s, cell]
    tracked = seen != 0
    keep = tracked[:count] & tracked[count:]
    if not keep.all():  # filter only when a pair was dropped
        both = np.concatenate((keep, keep))
        pos, cell, s, seen = pos[both], cell[both], s[both], seen[both]
    o, n = tracker.hits[s, cell] / seen, len(pos) // 2
    return PairSample(pos[:n], cell[:n], o[:n], pos[n:], cell[n:], o[n:])


@dataclass
class BatchNoise:
    """All randomness one training step consumes, drawn up front."""

    eps: np.ndarray        # (B, d) reparameterization draws
    keep_mask: np.ndarray  # (B, d) variance dropout keeps
    pairs: PairSample | None


@dataclass
class LossBreakdown:
    prediction: float
    kl: float
    calibration: float
    total: float


def draw_batch_noise(
    dataset: Dataset,
    cells: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    batch_idx: np.ndarray,
    tracker: CorrectnessTracker,
    rng_sampling: np.random.Generator,
    rng_dropout: np.random.Generator,
    rng_pairing: np.random.Generator,
) -> BatchNoise:
    """One step's reparameterization draws, dropout mask and, iff ``cfg.beta > 0``, pairs.

    ``cells`` is the run's (ptr, idx) cell map, as
    :meth:`DiagnosticFunction.cells` gives it; the draws are as wide as
    the tracker's cells.  Phase one trains on ``beta = 0``, so it draws
    nothing from ``rng_pairing``.
    """
    B, d = len(batch_idx), tracker.seen.shape[1]
    eps = rng_sampling.standard_normal((B, d))
    keep = dropout_mask((B, d), cfg.dropout_keep, rng_dropout)
    pairs = None
    if cfg.beta > 0:
        pairs = sample_pairs(
            dataset.s_idx[batch_idx], dataset.e_idx[batch_idx], cells, tracker,
            cfg.batch_size, rng_pairing,
        )
    return BatchNoise(eps=eps, keep_mask=keep, pairs=pairs)


def _leaf(store: ParameterStore, name: str, rows=None) -> tape.Node:
    # a parameter leaf: the whole array, or the sorted distinct ``rows``
    value = store.params[name] if rows is None else store.params[name].take(rows, axis=0)
    return tape.Node(value, param_ref=(store, name, rows))


def distinct_rows(rows: np.ndarray):
    """``np.unique(rows, return_inverse=True)`` of a 1-d int array, in fewer calls.

    The sorted distinct rows, and each entry's position among them.
    """
    ranked = np.sort(rows)
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    distinct = ranked[first]
    return distinct, distinct.searchsorted(rows)


def _row_blocks(n_rows: int, at: np.ndarray, *per_row):
    # each (B, width) per-occurrence gradient summed into its distinct rows
    # from zeros, in occurrence order as np.add.at sums (bincount adds its
    # weights in input order): the blocks the store holds for this step
    width = per_row[0].shape[1]
    cells = ((at * width)[:, None] + np.arange(width)).ravel()
    return [np.bincount(cells, g.ravel(), n_rows * width).reshape(n_rows, width) for g in per_row]


def build_batch_graph(
    dataset: Dataset,
    fn: DiagnosticFunction,
    store: ParameterStore,
    batch_idx: np.ndarray,
    cfg: TrainConfig,
    noise: BatchNoise,
    prior: PriorConsensus | None,
):
    """The loss of one batch as a single Node over parameter leaves.

    ``prior=None`` selects the phase-one standard-normal KL.  Returns
    (total Node, LossBreakdown, sampled probabilities as an ndarray).
    The batch's students and exercises are deduplicated once.  The
    leaves are mu and logvar at its students, difficulty (irt and ncd:
    and discrimination; mirt pins it to one) at its exercises, and for
    ncd the six MLP arrays whole; the store keeps the rows as the
    touched rows.  The forward pass takes the float operations of the
    objective written as one reference op per step (``tests/reftape.py``):
    the draw, the head, the KL, the hinge and the BCE each give their
    value and VJP.  The Node's VJP replays that op-by-op graph's backward
    pass, var_hat summing five contributions in order (draw, KL linear,
    KL log, pair side a, pair side b), so the store receives the same
    bits.
    """
    s, e, r = dataset.s_idx[batch_idx], dataset.e_idx[batch_idx], dataset.scores[batch_idx]
    students, s_at = distinct_rows(s)
    exercises, e_at = distinct_rows(e)
    trains_disc = fn.variant != "mirt"  # mirt pins discrimination to one; its rows never train
    leaves = [_leaf(store, STUDENT_MEAN, students), _leaf(store, STUDENT_LOGVAR, students),
              _leaf(store, EXERCISE_DIFF, exercises)]
    if trains_disc:
        leaves.append(_leaf(store, EXERCISE_DISC, exercises))
    leaves += [_leaf(store, name) for name in MLP_PARAMS if name in store.params]  # ncd's MLP
    mu_at, logvar_at = leaves[0].value.take(s_at, axis=0), leaves[1].value.take(s_at, axis=0)
    keep = noise.keep_mask
    var_at = variance_from_logvar(logvar_at)
    var_hat = apply_dropout_mask(var_at, keep, cfg.dropout_alpha)
    theta, theta_grads = draw_ability(mu_at, var_hat, noise.eps)
    diff = stable_sigmoid(leaves[2].value).take(e_at, axis=0)
    disc = stable_sigmoid(leaves[3].value).take(e_at, axis=0) if trains_disc else None
    y, head_grads = fn.predict(theta, diff, disc, fn.q_rows(dataset, e), store)
    l_pred, bce_grads = prediction_loss(y, r)
    total, l_kl, l_rl = l_pred, 0.0, 0.0
    if cfg.gamma > 0:
        kl_vec, kl_grads = kl_consensus(mu_at, var_hat, prior or STANDARD_PRIOR)
        inv_kl = 1.0 / kl_vec.size
        l_kl = kl_vec.sum() * inv_kl
        total = total + l_kl * cfg.gamma
    p = noise.pairs
    with_pairs = cfg.beta > 0 and p is not None and p.count > 0
    if with_pairs:
        B, d = var_hat.shape
        cells = (p.pos_a * d + p.cell_a, p.pos_b * d + p.cell_b)  # flat (position, cell)
        hinge, hinge_grads = calibration_pair_loss(
            var_hat.take(cells[0]), var_hat.take(cells[1]), p.o_a, p.o_b, cfg.calibration_sign)
        inv_pairs = 1.0 / p.count
        l_rl = hinge.sum() * inv_pairs
        total = total + l_rl * cfg.beta

    def grads(g):
        (g_y,) = bce_grads(g)
        g_gap, *g_head = head_grads(g_y)
        g_mu, g_var_hat = theta_grads(g_gap)
        if cfg.gamma > 0:  # every row's KL gets the same gradient
            k_mu, k_lin, k_log = kl_grads(g * cfg.gamma * inv_kl)
            g_mu, g_var_hat = g_mu + k_mu, g_var_hat + k_lin + k_log
        if with_pairs:
            for at, side in zip(cells, hinge_grads(g * cfg.beta * inv_pairs)):
                # summed from zeros in pair order, as np.add.at would
                g_var_hat = g_var_hat + np.bincount(at, side, B * d).reshape(B, d)
        inside = np.abs(logvar_at) < EXP_CLAMP  # where the clip passes logvar through
        g_logvar = g_var_hat * keep * var_at * inside
        n_e = len(exercises)
        blocks = [*_row_blocks(len(students), s_at, g_mu, g_logvar),
                  *_row_blocks(n_e, e_at, -g_gap * diff * (1.0 - diff))]
        if trains_disc:
            blocks += _row_blocks(n_e, e_at, g_head[0] * disc * (1.0 - disc))
        return (*blocks, *g_head[1:])

    breakdown = LossBreakdown(float(l_pred), float(l_kl), float(l_rl), float(total))
    return tape.Node(total, leaves, grads), breakdown, y


def batch_loss(
    dataset: Dataset,
    fn: DiagnosticFunction,
    store: ParameterStore,
    batch_idx: np.ndarray,
    cfg: TrainConfig,
    noise: BatchNoise,
    prior: PriorConsensus | None = None,
):
    """One training step's loss, its gradient blocks handed to the store.

    Raises NonFiniteLossError (naming the term) before any gradient
    reaches the store if a component diverged.
    """
    total, breakdown, probs = build_batch_graph(dataset, fn, store, batch_idx, cfg, noise, prior)
    for term, val in (
        ("prediction", breakdown.prediction),
        ("kl", breakdown.kl),
        ("calibration", breakdown.calibration),
    ):
        if not math.isfinite(val):
            raise NonFiniteLossError(f"{term} loss is non-finite ({val})")
    tape.backprop(total)
    return breakdown, probs


@dataclass
class EpochRecord:
    """One epoch: the means of its steps' losses and the validation split's report after it."""

    phase: int
    epoch: int
    losses: LossBreakdown
    val: inference.EvalReport


class Trainer:
    """Owns the store, splits, tracker, and RNG streams for one run."""

    def __init__(
        self,
        dataset: Dataset,
        fn: DiagnosticFunction,
        cfg: TrainConfig,
        on_epoch=None,
    ):
        self.dataset = dataset
        self.fn = fn
        self.cfg = cfg
        self.on_epoch = on_epoch
        self.splits: Splits = split_per_student(dataset, cfg.split)
        self._streams = {
            name: substream(cfg.seed, name) for name in ("init", "batching", "sampling", "dropout", "pairing")
        }
        self.store = init_parameters(
            fn, dataset.n_students, dataset.n_exercises, dataset.n_concepts, self._streams["init"]
        )
        n_cells = fn.latent_dim(dataset.n_concepts)
        self.tracker = CorrectnessTracker(dataset.n_students, n_cells)
        self.cells = fn.cells(dataset)
        self.prior: PriorConsensus | None = None
        self.history: list[EpochRecord] = []

    def _epoch(self, phase: int, cfg: TrainConfig, epoch: int) -> LossBreakdown:
        """One pass over the train split: its steps' mean losses.  ``epoch`` numbers it in errors.

        A non-finite loss or gradient is re-raised with the phase, epoch
        and zero-based step prefixed to the message naming the term or
        parameter.
        """
        sums = [0.0] * 4
        steps = 0
        for batch_idx in batches(self.splits.train, cfg.batch_size, self._streams["batching"]):
            noise = draw_batch_noise(
                self.dataset,
                self.cells,
                cfg,
                batch_idx,
                self.tracker,
                self._streams["sampling"],
                self._streams["dropout"],
                self._streams["pairing"],
            )
            try:
                breakdown, probs = batch_loss(
                    self.dataset, self.fn, self.store, batch_idx, cfg, noise, self.prior
                )
                adam_step(self.store, cfg.learning_rate, lazy=True)
            except (NonFiniteLossError, NonFiniteGradientError) as exc:
                raise type(exc)(f"phase {phase}, epoch {epoch}, step {steps}: {exc}") from exc
            if self.fn.variant == "ncd":
                clamp_ncd_weights(self.store)
            if phase == 2:
                self.tracker.update(self.dataset.s_idx[batch_idx], self.dataset.e_idx[batch_idx],
                                    self.cells, probs, self.dataset.scores[batch_idx])
            sums = [sum_ + term for sum_, term in zip(sums, (
                breakdown.prediction, breakdown.kl, breakdown.calibration, breakdown.total))]
            steps += 1
        if steps == 0:
            raise DataValidationError(
                f"phase {phase}, epoch {epoch}: the training split is empty, since no student has "
                "enough interactions for a train share; raise min_logs"
            )
        return LossBreakdown(*(sum_ / steps for sum_ in sums))

    def _run_phase(self, phase: int, max_epochs: int, cfg: TrainConfig) -> EpochRecord | None:
        """Train one phase; the store ends at its best epoch's parameters.

        Returns that epoch's record, the first with the highest
        validation AUC, or None if the phase ran no epoch.
        """
        best = best_params = None
        stale = 0
        start = len(self.history)
        for epoch in range(start, start + max_epochs):
            losses = self._epoch(phase, cfg, epoch)
            try:
                val = inference.evaluate_store(self.store, self.fn, self.dataset, self.splits.val,
                                               bins=cfg.bins)
            except MetricError as exc:
                raise MetricError(f"phase {phase}, epoch {epoch}, validation split: {exc}") from exc
            record = EpochRecord(phase, epoch, losses, val)
            self.history.append(record)
            if self.on_epoch is not None:
                self.on_epoch(record)
            if best is None or val.auc > best.val.auc:
                best, best_params = record, self.store.copy_params()
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
        if best_params is not None:
            self.store.load_params(best_params)
        return best

    def train(self) -> Checkpoint:
        cfg = self.cfg
        pretrain_cap = cfg.max_epochs if cfg.pretrain_epochs == -1 else cfg.pretrain_epochs
        phase1 = replace(cfg, beta=0.0)
        self._run_phase(1, pretrain_cap, phase1)

        self.prior = compute_consensus(self.store.params[STUDENT_MEAN])
        self.store.reset_moments()

        return self.to_checkpoint(self._run_phase(2, cfg.max_epochs, cfg))

    def to_checkpoint(self, best: EpochRecord | None) -> Checkpoint:
        """The trained model, with ``best`` as its best phase-two epoch (None: no epoch ran).

        Its ``params`` are the store's own arrays, not copies, and its
        ``run_config`` is the config the Trainer was built with.
        """
        consensus = self.prior.mean if self.prior is not None else None
        val = {"acc": best.val.acc, "auc": best.val.auc, "ece": best.val.ece} if best else {}
        return Checkpoint(
            fn=self.fn,
            params=dict(self.store.params),
            consensus_mean=None if consensus is None else consensus.copy(),
            student_ids=list(self.dataset.student_ids),
            exercise_ids=list(self.dataset.exercise_ids),
            concept_ids=list(self.dataset.concept_ids),
            run_config=asdict(self.cfg),
            best_epoch=-1 if best is None else best.epoch,
            train_counts=inference.concept_interaction_counts(
                self.dataset, self.splits.train, self.fn
            ),
            val_metrics=val,
        )
