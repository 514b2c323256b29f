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
from .data import Dataset, Splits, SplitSpec, batches, split_per_student
from .diagnostics import (
    EXERCISE_DIFF,
    EXERCISE_DISC,
    DiagnosticFunction,
    clamp_ncd_weights,
    init_parameters,
    mlp_layers,
    predict_irt,
    predict_mirt,
    predict_ncd,
)
from .latent import (
    STUDENT_LOGVAR,
    STUDENT_MEAN,
    DropoutConfig,
    PriorConsensus,
    apply_dropout_mask,
    compute_consensus,
    draw_ability,
    dropout_mask,
    kl_consensus,
    kl_standard,
)
from .numerics import AdamConfig, NonFiniteGradientError, ParameterStore, adam_step
from .seeding import substream
from .tape import LOG_FLOOR, _unbroadcast, value_of

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
        if self.gamma < 0 or self.beta < 0:
            raise ValueError("loss weights must be nonnegative")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ValueError(f"max_epochs must be nonnegative, got {self.max_epochs}")
        if self.pretrain_epochs is not None and self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be nonnegative")
        if self.patience < 1:
            raise ValueError(f"patience must be at least 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.pair_count is not None and self.pair_count < 0:
            raise ValueError("pair_count must be nonnegative")
        if self.calibration_sign not in SIGN_MODES:
            raise ValueError(f"calibration_sign must be one of {SIGN_MODES}")


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

    def update(self, students, cell_lists, probs, labels) -> None:
        """Count one attempt, and a hit if the prediction was right, per cell.

        The cells of one instance must be distinct, as the concepts of a
        Dataset exercise are: a repeated cell would count twice.
        """
        if len(cell_lists) == 0:
            return
        correct = (np.asarray(probs) >= 0.5) == (np.asarray(labels) == 1)
        sizes = [len(cells) for cells in cell_lists]
        rows = np.repeat(np.asarray(students, dtype=np.int64), sizes)
        cols = np.concatenate(cell_lists)
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


def prediction_loss(probs, labels):
    """Mean binary cross-entropy; accepts a Node or plain array of probs.

    Both logs floor their argument at ``tape.LOG_FLOOR``.  With a Node
    this is a single graph node whose gradient replays the composed
    log/mul/sub/add/mean/negate ops, so it matches them to the bit.  As
    with ``tape.nmean``, a Node's mean multiplies by 1/n while a plain
    array's divides by n; the two can differ in the last bit.
    """
    labels = np.asarray(labels, dtype=np.float64)
    yv = value_of(probs)
    miss = 1.0 - yv
    floored_y = np.maximum(yv, LOG_FLOOR)
    floored_miss = np.maximum(miss, LOG_FLOOR)
    per = np.log(floored_y) * labels + np.log(floored_miss) * (1.0 - labels)
    n = per.size
    if n == 0:
        raise ValueError("mean of an empty axis")
    if not isinstance(probs, tape.Node):
        return (per.sum() / float(n)) * -1.0
    inv_n = 1.0 / np.asarray(float(n))
    inside_y = yv >= LOG_FLOOR
    inside_miss = miss >= LOG_FLOOR

    def grads(g):
        g = np.broadcast_to(np.asarray(g * -1.0 * inv_n), per.shape)
        via_y = _unbroadcast(g * labels, yv.shape) * inside_y / floored_y
        via_miss = _unbroadcast(g * (1.0 - labels), miss.shape) * inside_miss / floored_miss
        return (via_y + _unbroadcast(-via_miss, yv.shape),)

    return tape.fused((per.sum() * inv_n) * -1.0, (probs,), grads)


def calibration_pair_loss(var_a, var_b, o_a, o_b, sign_mode: str = "consistent"):
    """Hinge on a variance pair with the correctness gap as margin.

    ``consistent`` orients the hinge so that the side with higher
    historical correctness is pushed toward *smaller* variance, which is
    the ranking the confidence story wants.  ``literal`` keeps the
    flipped orientation some published implementations of this loss
    ship with; it penalizes the opposite ordering.  Ties in correctness
    contribute exactly zero either way.
    """
    if sign_mode not in SIGN_MODES:
        raise ValueError(f"sign_mode must be one of {SIGN_MODES}")
    o_a = np.asarray(o_a, dtype=np.float64)
    o_b = np.asarray(o_b, dtype=np.float64)
    direction = np.sign(o_a - o_b)
    if sign_mode == "literal":
        direction = -direction
    margin = np.abs(o_a - o_b)
    spread = tape.mul(tape.sub(var_a, var_b), direction)
    return tape.relu(tape.add(spread, margin))


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
    cell_lists: list,
    tracker: CorrectnessTracker,
    count: int,
    rng: np.random.Generator,
) -> PairSample:
    """Draw up to ``count`` calibration pairs from one batch.

    Each attempt picks two distinct instance positions uniformly, then
    one cell uniformly from each side's exercise.  Pairs where either
    cell has no tracked history yet are dropped, so early batches may
    contribute nothing.
    """
    B = len(students)
    draws: list[tuple[int, int, int, int]] = []
    if B >= 2:
        for _ in range(count):
            i = int(rng.integers(0, B))
            j = int((i + rng.integers(1, B)) % B)
            cells_i = cell_lists[i]
            cells_j = cell_lists[j]
            ci = int(cells_i[rng.integers(0, len(cells_i))])
            cj = int(cells_j[rng.integers(0, len(cells_j))])
            draws.append((i, ci, j, cj))
    pos_a, cell_a, pos_b, cell_b = np.array(draws, dtype=np.int64).reshape(-1, 4).T
    students = np.asarray(students, dtype=np.int64)
    s_a, s_b = students[pos_a], students[pos_b]
    seen_a = tracker.seen[s_a, cell_a]
    seen_b = tracker.seen[s_b, cell_b]
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


def batch_cells(dataset: Dataset, fn: DiagnosticFunction, batch_idx: np.ndarray) -> list:
    """Tracker cells per instance: exercise concepts, or the IRT scalar slot."""
    if fn.variant == "irt":
        zero = np.zeros(1, dtype=np.int64)
        return [zero] * len(batch_idx)
    return [dataset.concepts_of[j] for j in dataset.e_idx[batch_idx]]


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
            dataset.s_idx[batch_idx], batch_cells(dataset, fn, batch_idx), tracker, count, rng_pairing
        )
    return BatchNoise(eps=eps, keep_mask=keep, pairs=pairs)


def build_batch_graph(
    dataset: Dataset,
    fn: DiagnosticFunction,
    store: ParameterStore,
    batch_idx: np.ndarray,
    cfg: TrainConfig,
    noise: BatchNoise,
    prior: PriorConsensus | None,
):
    """Assemble the loss graph for one batch.

    ``prior=None`` selects the phase-one standard-normal KL.  Returns
    (total Node, LossBreakdown, sampled probabilities as an ndarray).
    """
    s = dataset.s_idx[batch_idx]
    e = dataset.e_idx[batch_idx]
    r = dataset.scores[batch_idx]

    mu = store.row_leaf(STUDENT_MEAN, s)
    log_var = store.row_leaf(STUDENT_LOGVAR, s)
    var = tape.exp(log_var)
    var_hat = apply_dropout_mask(var, noise.keep_mask, cfg.dropout.alpha)
    _, theta = draw_ability(mu, var_hat, noise.eps)

    difficulty = tape.sigmoid(store.row_leaf(EXERCISE_DIFF, e))
    if fn.variant == "mirt":
        # discrimination is pinned to one for this variant; its rows never train
        y = predict_mirt(theta, difficulty, dataset.dense_q[e])
    else:
        discrimination = tape.sigmoid(store.row_leaf(EXERCISE_DISC, e))
        if fn.variant == "irt":
            y = tape.nsum(predict_irt(theta, difficulty, discrimination, fn.irt_scale), axis=-1)
        else:
            y = predict_ncd(
                theta,
                difficulty,
                discrimination,
                dataset.dense_q[e],
                mlp_layers(store, as_nodes=True),
            )

    l_pred = prediction_loss(y, r)
    total = l_pred

    l_kl = 0.0
    if cfg.gamma > 0:
        if cfg.kl_dedup:
            _, first = np.unique(s, return_index=True)
            mu_k = store.row_leaf(STUDENT_MEAN, s[first])
            var_k = apply_dropout_mask(
                tape.exp(store.row_leaf(STUDENT_LOGVAR, s[first])),
                noise.keep_mask[first],
                cfg.dropout.alpha,
            )
        else:
            mu_k, var_k = mu, var_hat
        if prior is None:
            kl_vec = kl_standard(mu_k, var_k)
        else:
            kl_vec = kl_consensus(mu_k, var_k, prior)
        l_kl = tape.nmean(kl_vec)
        total = tape.add(total, tape.mul(l_kl, cfg.gamma))

    l_rl = 0.0
    if cfg.beta > 0 and noise.pairs is not None and noise.pairs.count > 0:
        p = noise.pairs
        var_a = tape.take_cells(var_hat, p.pos_a, p.cell_a)
        var_b = tape.take_cells(var_hat, p.pos_b, p.cell_b)
        per_pair = calibration_pair_loss(var_a, var_b, p.o_a, p.o_b, cfg.calibration_sign)
        l_rl = tape.nmean(per_pair)
        total = tape.add(total, tape.mul(l_rl, cfg.beta))

    breakdown = LossBreakdown(
        prediction=float(value_of(l_pred)),
        kl=float(value_of(l_kl)),
        calibration=float(value_of(l_rl)),
        total=float(value_of(total)),
    )
    return total, breakdown, value_of(y).copy()


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
        self.splits: Splits = split_per_student(
            dataset,
            SplitSpec(
                train_fraction=cfg.train_fraction,
                val_fraction=cfg.val_fraction,
                seed=cfg.seed,
                preserve_order=cfg.preserve_order,
            ),
        )
        self._streams = {
            name: substream(cfg.seed, name) for name in ("init", "batching", "sampling", "dropout", "pairing")
        }
        self.store = init_parameters(
            fn, dataset.n_students, dataset.n_exercises, dataset.n_concepts, self._streams["init"]
        )
        n_cells = fn.latent_dim(dataset.n_concepts)
        self.tracker = CorrectnessTracker(dataset.n_students, n_cells)
        self.adam = AdamConfig(learning_rate=cfg.learning_rate)
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
                self.tracker.update(
                    self.dataset.s_idx[batch_idx],
                    batch_cells(self.dataset, self.fn, batch_idx),
                    probs,
                    self.dataset.scores[batch_idx],
                )
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
            run_config=config_snapshot(self.cfg),
            best_epoch=best_epoch,
            val_metrics={k.removeprefix("val_"): v for k, v in val_metrics.items()},
        )


def config_snapshot(cfg: TrainConfig) -> dict:
    """Flat JSON-safe view of a TrainConfig, for checkpoint provenance."""
    return {
        "gamma": cfg.gamma,
        "beta": cfg.beta,
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "max_epochs": cfg.max_epochs,
        "pretrain_epochs": cfg.pretrain_epochs,
        "patience": cfg.patience,
        "seed": cfg.seed,
        "train_fraction": cfg.train_fraction,
        "val_fraction": cfg.val_fraction,
        "preserve_order": cfg.preserve_order,
        "pair_count": cfg.pair_count,
        "calibration_sign": cfg.calibration_sign,
        "dropout_alpha": cfg.dropout.alpha,
        "dropout_keep": cfg.dropout.keep_probability,
        "dropout_enabled": cfg.dropout.enabled,
        "kl_dedup": cfg.kl_dedup,
        "lazy_adam": cfg.lazy_adam,
    }


def train(dataset: Dataset, fn: DiagnosticFunction, cfg: TrainConfig) -> Checkpoint:
    """Run both phases end to end and return the best checkpoint."""
    return Trainer(dataset, fn, cfg).train()
