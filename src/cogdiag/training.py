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

from dataclasses import dataclass, field, replace

import numpy as np

from . import tape
from .checkpoint import Checkpoint
from .data import Dataset, Splits, SplitSpec, batches, cell_runs, split_per_student
from .diagnostics import (
    EXERCISE_DIFF,
    EXERCISE_DISC,
    MLP_PARAMS,
    DiagnosticFunction,
    clamp_ncd_weights,
    init_parameters,
    mlp_layers,
    predict_irt,
    predict_mirt,
    predict_ncd,
)
from .latent import (
    STANDARD_PRIOR,
    STUDENT_LOGVAR,
    STUDENT_MEAN,
    DropoutConfig,
    PriorConsensus,
    apply_dropout_mask,
    compute_consensus,
    draw_ability,
    dropout_mask,
    kl_consensus,
)
from .numerics import AdamConfig, NonFiniteGradientError, ParameterStore, adam_step, stable_sigmoid
from .seeding import substream
from .tape import EXP_CLAMP, LOG_FLOOR, _unbroadcast

SIGN_MODES = ("consistent", "literal")


class NonFiniteLossError(RuntimeError):
    """A loss term evaluated to nan or inf; the message names the term."""


@dataclass
class TrainConfig:
    gamma: float = 1e-4
    beta: float = 0.1
    learning_rate: float = 0.002
    batch_size: int = 32
    max_epochs: int = 100
    pretrain_epochs: int | None = None  # phase-one cap; None means max_epochs
    patience: int = 10
    seed: int = 0
    train_fraction: float = 0.7
    val_fraction: float = 0.1
    preserve_order: bool = False
    pair_count: int | None = None  # pairs attempted per batch; None means batch_size
    calibration_sign: str = "consistent"
    dropout: DropoutConfig = field(default_factory=DropoutConfig)
    kl_dedup: bool = False  # average KL over unique students instead of occurrences
    lazy_adam: bool = True

    def __post_init__(self):
        problems = []
        if not (self.gamma >= 0):
            problems.append(f"gamma must be nonnegative, got {self.gamma}")
        if not (self.beta >= 0):
            problems.append(f"beta must be nonnegative, got {self.beta}")
        if not (self.batch_size >= 1):
            problems.append(f"batch_size must be positive, got {self.batch_size}")
        if not (self.max_epochs >= 0):
            problems.append(f"max_epochs must be nonnegative, got {self.max_epochs}")
        if self.pretrain_epochs is not None and not (self.pretrain_epochs >= 0):
            problems.append(f"pretrain_epochs must be nonnegative, got {self.pretrain_epochs}")
        if not (self.patience >= 1):
            problems.append(f"patience must be at least 1, got {self.patience}")
        if not (self.seed >= 0):
            problems.append(f"seed must be nonnegative, got {self.seed}")
        if self.pair_count is not None and not (self.pair_count >= 0):
            problems.append(f"pair_count must be nonnegative, got {self.pair_count}")
        if self.calibration_sign not in SIGN_MODES:
            problems.append(
                f"calibration_sign must be one of {SIGN_MODES}, got {self.calibration_sign!r}"
            )
        # the optimizer and the split check their own fields
        for part in ("adam", "split"):
            try:
                getattr(self, part)
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def adam(self) -> AdamConfig:
        return AdamConfig(learning_rate=self.learning_rate)

    @property
    def split(self) -> SplitSpec:
        return SplitSpec(
            train_fraction=self.train_fraction,
            val_fraction=self.val_fraction,
            seed=self.seed,
            preserve_order=self.preserve_order,
        )


class CorrectnessTracker:
    """Cumulative per-(student, cell) prediction hit rates.

    A cell is a concept for the multidimensional variants and the single
    shared slot for IRT.  After each training step the batch's sampled
    probabilities are thresholded at 0.5 (ties predict correct) and
    compared with the labels; every concept the exercise touches gets
    the outcome.  ``frequency`` is hits over attempts, or None before
    any history exists.
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
        correct = (np.asarray(probs) >= 0.5) == (np.asarray(labels) == 1)
        cols, sizes = cell_runs(*cells, np.asarray(exercises, dtype=np.int64))
        rows = np.repeat(np.asarray(students, dtype=np.int64), sizes)
        np.add.at(self.seen, (rows, cols), 1)
        hit = np.repeat(correct, sizes)
        np.add.at(self.hits, (rows[hit], cols[hit]), 1)

    def frequency(self, student: int, cell: int):
        n = self.seen[student, cell]
        if n == 0:
            return None
        return self.hits[student, cell] / n

    def observed_cells(self):
        """(students, cells, frequencies) for every cell with history."""
        s, c = np.nonzero(self.seen)
        return s, c, self.hits[s, c] / self.seen[s, c]


def prediction_loss(probs, labels, vjp: bool = False):
    """Mean binary cross-entropy of an array of probabilities.

    Both logs floor their argument at ``tape.LOG_FLOOR``.  ``vjp=True``
    returns the loss with its gradient function, ``g -> (d probs,)``,
    which replays the backward pass of the composed log/mul/sub/add/mean/
    negate tape ops, so it matches them to the bit.  As with the tape's
    mean on a Node, that loss multiplies by 1/n where the plain value
    divides by n; the two can differ in the last bit.
    """
    labels = np.asarray(labels, dtype=np.float64)
    yv = np.asarray(probs, dtype=np.float64)
    miss = 1.0 - yv
    floored_y = np.maximum(yv, LOG_FLOOR)
    floored_miss = np.maximum(miss, LOG_FLOOR)
    per = np.log(floored_y) * labels + np.log(floored_miss) * (1.0 - labels)
    n = per.size
    if n == 0:
        raise ValueError("mean of an empty axis")
    if not vjp:
        return (per.sum() / float(n)) * -1.0
    inv_n = 1.0 / np.asarray(float(n))
    inside_y = yv >= LOG_FLOOR
    inside_miss = miss >= LOG_FLOOR

    def grads(g):
        g = np.broadcast_to(np.asarray(g * -1.0 * inv_n), per.shape)
        via_y = _unbroadcast(g * labels, yv.shape) * inside_y / floored_y
        via_miss = _unbroadcast(g * (1.0 - labels), miss.shape) * inside_miss / floored_miss
        return (via_y + _unbroadcast(-via_miss, yv.shape),)

    return (per.sum() * inv_n) * -1.0, grads


def calibration_pair_loss(var_a, var_b, o_a, o_b, sign_mode: str = "consistent", vjp: bool = False):
    """Hinge on a variance pair with the correctness gap as margin.

    ``consistent`` orients the hinge so that the side with higher
    historical correctness is pushed toward *smaller* variance, which is
    the ranking the confidence story wants.  ``literal`` keeps the
    flipped orientation some published implementations of this loss
    ship with; it penalizes the opposite ordering.  Ties in correctness
    contribute exactly zero either way.  ``vjp=True`` also returns the
    gradient function, ``g -> (d var_a, d var_b)``.
    """
    if sign_mode not in SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {SIGN_MODES}")
    o_a = np.asarray(o_a, dtype=np.float64)
    o_b = np.asarray(o_b, dtype=np.float64)
    direction = np.sign(o_a - o_b)
    if sign_mode == "literal":
        direction = -direction
    margin = np.abs(o_a - o_b)
    hinge = np.maximum((var_a - var_b) * direction + margin, 0.0)
    if not vjp:
        return hinge
    active = hinge > 0.0  # where the hinge's argument is positive

    def grads(g):  # back through the hinge, add, mul and sub, as the tape runs them
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
    pos_a = pos_b = cell_a = cell_b = np.zeros(0, dtype=np.int64)
    if B >= 2:
        pos_a = rng.integers(0, B, size=count)
        pos_b = (pos_a + rng.integers(1, B, size=count)) % B
        lo_a, lo_b = ptr[exercises[pos_a]], ptr[exercises[pos_b]]
        cell_a = idx[lo_a + rng.integers(0, ptr[exercises[pos_a] + 1] - lo_a)]
        cell_b = idx[lo_b + rng.integers(0, ptr[exercises[pos_b] + 1] - lo_b)]
    s_a, s_b = students[pos_a], students[pos_b]
    seen_a, seen_b = tracker.seen[s_a, cell_a], tracker.seen[s_b, cell_b]
    keep = (seen_a != 0) & (seen_b != 0)
    return PairSample(
        pos_a=pos_a[keep],
        cell_a=cell_a[keep],
        o_a=tracker.hits[s_a[keep], cell_a[keep]] / seen_a[keep],
        pos_b=pos_b[keep],
        cell_b=cell_b[keep],
        o_b=tracker.hits[s_b[keep], cell_b[keep]] / seen_b[keep],
    )


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
    fn: DiagnosticFunction,
    cfg: TrainConfig,
    batch_idx: np.ndarray,
    tracker: CorrectnessTracker | None,
    rng_sampling: np.random.Generator,
    rng_dropout: np.random.Generator,
    rng_pairing: np.random.Generator | None = None,
) -> BatchNoise:
    B = len(batch_idx)
    d = fn.latent_dim(dataset.n_concepts)
    eps = rng_sampling.standard_normal((B, d))
    keep = dropout_mask((B, d), cfg.dropout, rng_dropout)
    pairs = None
    if rng_pairing is not None and tracker is not None and cfg.beta > 0:
        count = cfg.pair_count if cfg.pair_count is not None else cfg.batch_size
        pairs = sample_pairs(
            dataset.s_idx[batch_idx], dataset.e_idx[batch_idx], fn.cells(dataset), tracker, count,
            rng_pairing,
        )
    return BatchNoise(eps=eps, keep_mask=keep, pairs=pairs)


def _row_block(n_rows: int, at: np.ndarray, per_row, first=None):
    # per-occurrence gradient rows summed into distinct rows from zeros, in
    # occurrence order, as np.add.at summed them into the store; ``first``
    # holds one row per distinct row, added before the occurrences
    block = np.zeros((n_rows,) + per_row.shape[1:])
    if first is not None:
        block += first
    np.add.at(block, at, per_row)
    return block


def build_batch_graph(
    dataset: Dataset,
    fn: DiagnosticFunction,
    store: ParameterStore,
    batch_idx: np.ndarray,
    cfg: TrainConfig,
    noise: BatchNoise,
    prior: PriorConsensus | None,
):
    """The loss of one batch as a single tape Node over parameter leaves.

    ``prior=None`` selects the phase-one standard-normal KL.  Returns
    (total Node, LossBreakdown, sampled probabilities as an ndarray).
    The batch's students and exercises are deduplicated once.  The
    leaves are mu and logvar at its students, difficulty (irt and ncd:
    and discrimination; mirt pins it to one) at its exercises, and for
    ncd the six MLP arrays whole; the store keeps the rows as the
    touched rows.  The forward pass takes the float operations of the
    objective written as one tape op per step: the draw, the head, the
    KL, the hinge and the BCE each give their value and VJP
    (``vjp=True``).  The Node's VJP replays that op-by-op graph's
    backward pass, var_hat summing five contributions in order (draw,
    KL linear, KL log, pair side a, pair side b), so the store receives
    the same bits.
    """
    s, e, r = dataset.s_idx[batch_idx], dataset.e_idx[batch_idx], dataset.scores[batch_idx]
    students, first, s_at = np.unique(s, return_index=True, return_inverse=True)
    exercises, e_at = np.unique(e, return_inverse=True)
    variant = fn.variant
    leaves = [store.row_leaf(STUDENT_MEAN, students), store.row_leaf(STUDENT_LOGVAR, students),
              store.row_leaf(EXERCISE_DIFF, exercises)]
    if variant != "mirt":  # mirt pins discrimination to one; its rows never train
        leaves.append(store.row_leaf(EXERCISE_DISC, exercises))
    if variant == "ncd":
        leaves += [store.leaf(name) for name in MLP_PARAMS]
    mu, logvar = leaves[0].value, leaves[1].value
    keep, alpha = noise.keep_mask, cfg.dropout.alpha
    var = np.exp(np.clip(logvar, -EXP_CLAMP, EXP_CLAMP))
    var_inside = (logvar > -EXP_CLAMP) & (logvar < EXP_CLAMP)
    var_at = var[s_at]
    var_hat = apply_dropout_mask(var_at, keep, alpha)
    mu_at = mu[s_at]
    theta, theta_grads = draw_ability(mu_at, var_hat, noise.eps, vjp=True)
    diff = stable_sigmoid(leaves[2].value)[e_at]
    if variant == "mirt":
        y, head_grads = predict_mirt(theta, diff, dataset.dense_q[e], vjp=True)
    else:
        disc = stable_sigmoid(leaves[3].value)[e_at]
        if variant == "irt":
            y_col, head_grads = predict_irt(theta, diff, disc, fn.irt_scale, vjp=True)
            y = y_col.sum(axis=-1)
        else:
            y, head_grads = predict_ncd(theta, diff, disc, dataset.dense_q[e], mlp_layers(store),
                                        vjp=True)
    l_pred, bce_grads = prediction_loss(y, r, vjp=True)
    total, l_kl, l_rl = l_pred, 0.0, 0.0
    if cfg.gamma > 0:
        if cfg.kl_dedup:
            mu_k, var_k = mu, apply_dropout_mask(var, keep[first], alpha)
        else:
            mu_k, var_k = mu_at, var_hat
        kl_vec, kl_grads = kl_consensus(mu_k, var_k, prior or STANDARD_PRIOR, vjp=True)
        inv_kl = 1.0 / np.asarray(float(kl_vec.size))
        l_kl = kl_vec.sum() * inv_kl
        total = total + l_kl * np.asarray(cfg.gamma)
    p = noise.pairs
    with_pairs = cfg.beta > 0 and p is not None and p.count > 0
    if with_pairs:
        hinge, hinge_grads = calibration_pair_loss(
            var_hat[p.pos_a, p.cell_a], var_hat[p.pos_b, p.cell_b], p.o_a, p.o_b,
            cfg.calibration_sign, vjp=True,
        )
        inv_pairs = 1.0 / np.asarray(float(p.count))
        l_rl = hinge.sum() * inv_pairs
        total = total + l_rl * np.asarray(cfg.beta)

    def grads(g):
        (g_y,) = bce_grads(g)
        # irt's head is a (B, 1) column summed to (B,): the sum broadcasts back
        g_gap, *g_head = head_grads(g_y[:, None] if variant == "irt" else g_y)
        g_mu, g_var_hat = theta_grads(g_gap)
        once_mu = once_logvar = None
        if cfg.gamma > 0:
            k_mu, k_lin, k_log = kl_grads(np.full(kl_vec.shape, g * cfg.gamma * inv_kl))
            if cfg.kl_dedup:
                once_mu, once_logvar = k_mu, (k_lin + k_log) * keep[first] * var * var_inside
            else:
                g_mu, g_var_hat = g_mu + k_mu, g_var_hat + k_lin + k_log
        if with_pairs:
            sides = hinge_grads(np.full(p.count, g * cfg.beta * inv_pairs))
            for pos, cell, side in zip((p.pos_a, p.pos_b), (p.cell_a, p.cell_b), sides):
                full = np.zeros_like(var_hat)
                np.add.at(full, (pos, cell), side)
                g_var_hat = g_var_hat + full
        g_logvar = g_var_hat * keep * var_at * var_inside[s_at]
        # the composed graph added kl_dedup's rows into the store before the
        # occurrences, except logvar's when the pair terms had reached it first
        n_s, n_e = len(students), len(exercises)
        blocks = [
            _row_block(n_s, s_at, g_mu, once_mu),
            _row_block(n_s, s_at, g_logvar, None if with_pairs else once_logvar),
            _row_block(n_e, e_at, -g_gap * diff * (1.0 - diff)),
        ]
        if with_pairs and once_logvar is not None:
            blocks[1] += once_logvar
        if variant != "mirt":
            blocks.append(_row_block(n_e, e_at, g_head[0] * disc * (1.0 - disc)))
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
    """One training step's loss with gradients accumulated into the store.

    Raises NonFiniteLossError (naming the term) before any gradient is
    written if a component diverged.
    """
    total, breakdown, probs = build_batch_graph(dataset, fn, store, batch_idx, cfg, noise, prior)
    for term, val in (
        ("prediction", breakdown.prediction),
        ("kl", breakdown.kl),
        ("calibration", breakdown.calibration),
    ):
        if not np.isfinite(val):
            raise NonFiniteLossError(f"{term} loss is non-finite ({val})")
    tape.backprop(total)
    return breakdown, probs


@dataclass
class EpochRecord:
    phase: int
    epoch: int
    prediction: float
    kl: float
    calibration: float
    total: float
    val_acc: float
    val_auc: float
    val_ece: float


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
        self.adam = cfg.adam
        self.prior: PriorConsensus | None = None
        self.history: list[EpochRecord] = []

    def _epoch(self, phase: int, cfg: TrainConfig, epoch: int) -> dict:
        """One pass over the train split; ``epoch`` numbers it in errors.

        A non-finite loss or gradient is re-raised with the phase, epoch
        and zero-based step prefixed to the message naming the term or
        parameter.
        """
        sums = np.zeros(4)
        steps = 0
        for batch_idx in batches(self.splits.train, cfg.batch_size, self._streams["batching"]):
            noise = draw_batch_noise(
                self.dataset,
                self.fn,
                cfg,
                batch_idx,
                self.tracker if phase == 2 else None,
                self._streams["sampling"],
                self._streams["dropout"],
                self._streams["pairing"] if phase == 2 else None,
            )
            try:
                breakdown, probs = batch_loss(
                    self.dataset, self.fn, self.store, batch_idx, cfg, noise, self.prior
                )
                adam_step(self.store, self.adam, lazy=cfg.lazy_adam)
            except (NonFiniteLossError, NonFiniteGradientError) as exc:
                raise type(exc)(f"phase {phase}, epoch {epoch}, step {steps}: {exc}") from exc
            if self.fn.variant == "ncd":
                clamp_ncd_weights(self.store)
            if phase == 2:
                self.tracker.update(self.dataset.s_idx[batch_idx], self.dataset.e_idx[batch_idx],
                                    self.cells, probs, self.dataset.scores[batch_idx])
            sums += (breakdown.prediction, breakdown.kl, breakdown.calibration, breakdown.total)
            steps += 1
        if steps == 0:
            raise ValueError("training split produced no batches")
        return dict(zip(("prediction", "kl", "calibration", "total"), sums / steps))

    def _validate(self) -> dict:
        from .inference import evaluate_store

        report = evaluate_store(self.store, self.fn, self.dataset, self.splits.val)
        return {"val_acc": report.acc, "val_auc": report.auc, "val_ece": report.ece}

    def _run_phase(self, phase: int, max_epochs: int, cfg: TrainConfig):
        best_auc = -np.inf
        best_params = None
        best_epoch = -1
        best_val: dict = {}
        stale = 0
        start = len(self.history)
        for epoch in range(max_epochs):
            losses = self._epoch(phase, cfg, start + epoch)
            val = self._validate()
            record = EpochRecord(phase=phase, epoch=start + epoch, **losses, **val)
            self.history.append(record)
            if self.on_epoch is not None:
                self.on_epoch(record)
            if val["val_auc"] > best_auc:
                best_auc = val["val_auc"]
                best_params = self.store.copy_params()
                best_epoch = start + epoch
                best_val = val
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
        if best_params is not None:
            self.store.load_params(best_params)
        return best_epoch, best_val

    def train(self) -> Checkpoint:
        cfg = self.cfg
        pretrain_cap = cfg.pretrain_epochs if cfg.pretrain_epochs is not None else cfg.max_epochs
        phase1 = replace(cfg, beta=0.0)
        self._run_phase(1, pretrain_cap, phase1)

        self.prior = compute_consensus(self.store.params[STUDENT_MEAN])
        self.store.reset_moments()

        best_epoch, best_val = self._run_phase(2, cfg.max_epochs, cfg)
        return self.to_checkpoint(best_epoch, best_val)

    def to_checkpoint(self, best_epoch: int, val_metrics: dict) -> Checkpoint:
        from .inference import concept_interaction_counts

        consensus = self.prior.mean if self.prior is not None else None
        return Checkpoint(
            variant=self.fn.variant,
            irt_scale=self.fn.irt_scale,
            mlp_hidden=tuple(self.fn.mlp_hidden),
            params=self.store.copy_params(),
            consensus_mean=None if consensus is None else consensus.copy(),
            student_ids=list(self.dataset.student_ids),
            exercise_ids=list(self.dataset.exercise_ids),
            concept_ids=list(self.dataset.concept_ids),
            run_config={},  # cmd_train stores the RunConfig it trained from
            best_epoch=best_epoch,
            train_counts=concept_interaction_counts(self.dataset, self.splits.train, self.fn),
            val_metrics={k.removeprefix("val_"): v for k, v in val_metrics.items()},
        )


def train(dataset: Dataset, fn: DiagnosticFunction, cfg: TrainConfig) -> Checkpoint:
    """Run both phases end to end and return the best checkpoint."""
    return Trainer(dataset, fn, cfg).train()
