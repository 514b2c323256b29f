"""Command line interface.

Subcommands: train, eval, diagnose, export-ability.
Exit codes: 0 success, 1 runtime failure (bad data files, missing or
mismatched checkpoint, unknown ids), 2 usage or configuration errors.

``diagnose`` and ``export-ability`` read the checkpoint alone.  ``eval``
rebuilds the dataset from the files recorded in the checkpoint and
verifies the id maps match, so every published number is reproducible
from the artifacts alone.  It writes the split's predictions and, in
the same directory, the reliability table behind its ECE and MCE.
Every file is written to a temporary name and then renamed over its
target, so a crash never leaves a truncated artifact.  Published
probabilities are rounded to six decimals, and the printed metrics and
the table are computed on those rounded values; recomputing from the
CSV gives the same numbers.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, atomic_write, load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, config_from_checkpoint, format_config, parse_config_file
from .data import (
    DataFormatError,
    DataValidationError,
    Dataset,
    build_dataset,
    csv_fields,
    load_logs,
    load_qmatrix,
    split_per_student,
)
from .inference import check_dataset_matches, diagnose, evaluate_probs, mastery_and_sigma
from .inference import predict_split
from .metrics import MetricError, format_reliability_csv
from .numerics import NonFiniteGradientError
from .training import NonFiniteLossError, Trainer

USAGE_EXIT = 2
RUNTIME_EXIT = 1

RUNTIME_ERRORS = (
    DataFormatError,
    DataValidationError,
    CheckpointError,
    MetricError,
    NonFiniteLossError,
    NonFiniteGradientError,
    KeyError,
    OSError,
)


def _load_dataset(cfg: RunConfig) -> Dataset:
    return build_dataset(load_logs(cfg.logs), load_qmatrix(cfg.qmatrix), min_logs=cfg.min_logs)


def _out_path(arg_out, checkpoint_path: str, default_name: str) -> Path:
    """``arg_out``, or ``default_name`` beside the checkpoint."""
    out = Path(arg_out or Path(checkpoint_path).parent / default_name)
    return _not_the_checkpoint(out, checkpoint_path)


def _not_the_checkpoint(out: Path, checkpoint_path: str) -> Path:
    """``out``, unless it is the checkpoint being read (via ``..``, a symlink or a hard link)."""
    try:
        if os.path.samefile(out, checkpoint_path):
            raise ConfigError(f"{out} is the checkpoint; writing there would replace it")
    except OSError:  # one of the two is missing, so there is nothing to replace
        pass
    return out


def _read(checkpoint_path: str, read, *args):
    """``read(*args)``, naming the checkpoint in the error a value read from its arrays raises."""
    try:
        return read(*args)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {checkpoint_path} is malformed: {exc}") from None


def cmd_train(args) -> int:
    cfg = parse_config_file(args.config)
    dataset = _load_dataset(cfg)
    fn = cfg.diagnostic

    def progress(rec):
        loss, val = rec.losses, rec.val
        print(
            f"phase {rec.phase} epoch {rec.epoch:3d}  "
            f"loss {loss.total:.6f} (pred {loss.prediction:.6f} kl {loss.kl:.6f} cal {loss.calibration:.6f})  "
            f"val acc {val.acc:.4f} auc {val.auc:.4f} ece {val.ece:.4f}"
        )

    trainer = Trainer(dataset, fn, cfg, on_epoch=progress)
    print(
        f"training variant={cfg.variant} students={dataset.n_students} "
        f"exercises={dataset.n_exercises} concepts={dataset.n_concepts} "
        f"interactions={dataset.n_interactions}"
    )
    ck = trainer.train()

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ck_path = out_dir / "checkpoint.json"
    save_checkpoint(ck, ck_path)
    atomic_write(out_dir / "config_resolved.txt", format_config(cfg))
    log_lines = ["epoch,phase,loss_pred,loss_kl,loss_cal,loss_total,val_acc,val_auc,val_ece"]
    for rec in trainer.history:  # the loss columns follow LossBreakdown's fields
        values = [*vars(rec.losses).values(), rec.val.acc, rec.val.auc, rec.val.ece]
        log_lines.append(f"{rec.epoch},{rec.phase}," + ",".join(f"{v:.6f}" for v in values))
    atomic_write(out_dir / "train_log.csv", "\n".join(log_lines) + "\n")
    best = ck.val_metrics
    if best:
        print(
            f"best epoch {ck.best_epoch}: val acc {best['acc']:.4f} "
            f"auc {best['auc']:.4f} ece {best['ece']:.4f}"
        )
    print(f"checkpoint written to {ck_path}")
    return 0


def cmd_eval(args) -> int:
    out = _out_path(args.out, args.checkpoint, f"predictions_{args.split}.csv")
    reliability = _not_the_checkpoint(out.parent / f"reliability_{args.split}.csv", args.checkpoint)
    if out == reliability:
        raise ConfigError(f"--out {out} is where eval writes the reliability table")
    ck = load_checkpoint(args.checkpoint)
    cfg = config_from_checkpoint(ck)
    if not isinstance(cfg, RunConfig):
        raise CheckpointError(
            f"checkpoint {args.checkpoint} records a library TrainConfig, which names no data "
            "files to score; eval serves checkpoints written by `cogdiag train`"
        )
    dataset = _load_dataset(cfg)
    check_dataset_matches(ck, dataset)
    indices = getattr(split_per_student(dataset, cfg.split), args.split)
    # publish six-decimal strings first, then score exactly what was published
    probs = _read(args.checkpoint, predict_split, ck, ck.fn, dataset, indices)
    published = [f"{p:.6f}" for p in probs.tolist()]
    report = evaluate_probs([float(p) for p in published], dataset.scores[indices], bins=cfg.bins)

    sids, eids = csv_fields(dataset.student_ids), csv_fields(dataset.exercise_ids)
    rows = zip(
        dataset.s_idx[indices].tolist(),
        dataset.e_idx[indices].tolist(),
        dataset.scores[indices].astype(np.int64).tolist(),
        published,
    )
    lines = ["student_id,exercise_id,label,prob"]
    lines += [f"{sids[s]},{eids[e]},{label},{prob}" for s, e, label, prob in rows]
    atomic_write(out, "\n".join(lines) + "\n")
    atomic_write(reliability, format_reliability_csv(report))

    print(f"split {args.split} n {report.n}")
    print(f"ACC  {report.acc:.6f}")
    print(f"RMSE {report.rmse:.6f}")
    print(f"AUC  {report.auc:.6f}")
    print(f"ECE  {report.ece:.6f}")
    print(f"MCE  {report.mce:.6f}")
    print(f"predictions written to {out}")
    print(f"reliability table written to {reliability}")
    return 0


def cmd_diagnose(args) -> int:
    name = args.student.replace("%", "%25").replace("/", "%2F")  # one file beside the checkpoint
    out = _out_path(args.out, args.checkpoint, f"diagnosis_{name}.csv")
    ck = load_checkpoint(args.checkpoint)
    config_from_checkpoint(ck)
    report = _read(args.checkpoint, diagnose, ck, args.student)

    print(f"student {report.student_id}")
    print("mastery is sigmoid of the posterior mean; rank 1 = most confident (smallest sigma)")
    print(f"{'rank':>4}  {'concept':<24} {'mastery':>8} {'sigma':>8} {'seen':>5}")
    for row in report.rows:
        print(
            f"{row.rank:>4}  {row.concept_id:<24} {row.mastery:>8.4f} "
            f"{row.sigma:>8.4f} {row.interactions:>5}"
        )

    lines = ["rank,concept_id,mastery,sigma,interactions"]
    for row, cid in zip(report.rows, csv_fields([row.concept_id for row in report.rows])):
        lines.append(f"{row.rank},{cid},{row.mastery:.6f},{row.sigma:.6f},{row.interactions}")
    atomic_write(out, "\n".join(lines) + "\n")
    print(f"diagnosis written to {out}")
    return 0


def cmd_export_ability(args) -> int:
    out = _out_path(args.out, args.checkpoint, "ability.csv")
    ck = load_checkpoint(args.checkpoint)
    config_from_checkpoint(ck)
    mastery, sigma = _read(args.checkpoint, mastery_and_sigma, ck)
    labels = csv_fields(ck.fn.cell_labels(ck.concept_ids))

    lines = ["student_id,concept_id,mastery,sigma"]
    for i, sid in enumerate(csv_fields(ck.student_ids)):
        for k, cid in enumerate(labels):
            lines.append(f"{sid},{cid},{mastery[i, k]:.6f},{sigma[i, k]:.6f}")
    atomic_write(out, "\n".join(lines) + "\n")
    print(f"{len(ck.student_ids) * len(labels)} rows written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cogdiag",
        description="Confidence-aware cognitive diagnosis: train and inspect models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True, help="flat key = value config file")
    p_train.set_defaults(fn=cmd_train)

    def add_eval_args(p):
        p.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
        p.add_argument("--out", default=None, help="output CSV path (default: next to checkpoint)")

    p_eval = sub.add_parser(
        "eval", help="score a split; write predictions and, beside them, the reliability table"
    )
    add_eval_args(p_eval)
    p_eval.add_argument(
        "--split", choices=("train", "val", "test"), default="test",
        help="which split to score (default: test)",
    )
    p_eval.set_defaults(fn=cmd_eval)

    p_diag = sub.add_parser("diagnose", help="per-concept mastery and confidence for one student")
    add_eval_args(p_diag)
    p_diag.add_argument("--student", required=True, help="student id as it appears in the logs")
    p_diag.set_defaults(fn=cmd_diagnose)

    p_ab = sub.add_parser("export-ability", help="dump mastery and sigma for every student")
    add_eval_args(p_ab)
    p_ab.set_defaults(fn=cmd_export_ability)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except RUNTIME_ERRORS as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return RUNTIME_EXIT
