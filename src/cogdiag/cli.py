"""Command line interface.

Subcommands: train, eval, diagnose, export-ability, export-reliability.
Exit codes: 0 success, 1 runtime failure (bad data files, missing or
mismatched checkpoint, unknown ids), 2 usage or configuration errors.

``diagnose`` and ``export-ability`` read the checkpoint alone.  ``eval``
and ``export-reliability`` rebuild the dataset from the files recorded
in the checkpoint and verify the id maps match, so every published
number is reproducible from the artifacts alone.  Every file is written
to a temporary name and then renamed over its target, so a crash never
leaves a truncated artifact.  Published probabilities are
rounded to six decimals, and the printed metrics are computed on those
rounded values; recomputing from the CSV gives the same numbers.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    atomic_write,
    load_checkpoint,
    save_checkpoint,
)
from .config import ConfigError, RunConfig, format_config, parse_config_file
from .data import (
    DataFormatError,
    DataValidationError,
    Dataset,
    Splits,
    build_dataset,
    load_logs,
    load_qmatrix,
    split_per_student,
)
from .inference import check_dataset_matches, diagnose, evaluate_probs, predict_split
from .latent import STUDENT_LOGVAR, STUDENT_MEAN
from .metrics import MetricError, calibration, format_reliability_csv
from .numerics import NonFiniteGradientError, stable_sigmoid
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


def _run_config_from_checkpoint(ck: Checkpoint) -> RunConfig:
    known, have = {f.name for f in fields(RunConfig)}, set(ck.run_config)
    if have != known:
        raise CheckpointError(
            "checkpoint run_config does not match this build's configuration schema "
            f"(missing keys: {', '.join(sorted(known - have)) or 'none'}; unexpected keys: "
            f"{', '.join(sorted(have - known)) or 'none'}); retrain with `cogdiag train`"
        )
    defaults = RunConfig()
    for name, value in ck.run_config.items():
        # what a config file could hold: a bool is not an int (and loading rejected 1e999)
        if type(value) is not type(getattr(defaults, name)):
            raise CheckpointError(f"checkpoint run_config is malformed: {name} = {value!r}")
    try:
        cfg = RunConfig(**ck.run_config)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint configuration no longer valid: {exc}") from None
    if cfg.diagnostic != ck.fn:
        raise CheckpointError(
            f"checkpoint head {ck.fn} disagrees with its run_config's {cfg.diagnostic}"
        )
    return cfg


def _eval_context(checkpoint_path: str):
    ck = load_checkpoint(checkpoint_path)
    cfg = _run_config_from_checkpoint(ck)
    dataset = _load_dataset(cfg)
    check_dataset_matches(ck, dataset)
    splits = split_per_student(dataset, cfg.split)
    return ck, cfg, dataset, splits


def _split_indices(splits: Splits, name: str):
    return {"train": splits.train, "val": splits.val, "test": splits.test}[name]


def _published_probs(ck: Checkpoint, dataset: Dataset, indices) -> tuple[list[str], list[float]]:
    """Predictions at ``indices`` as published: six-decimal strings, and their floats."""
    probs = predict_split(ck, ck.fn, dataset, indices)
    published = [f"{p:.6f}" for p in probs.tolist()]
    return published, [float(s) for s in published]


def _csv_ids(ids: list[str]) -> list[str]:
    """``ids`` as CSV fields: any that holds a comma, quote or line break quoted RFC 4180-style."""
    joined = "\x00".join(ids)  # one scan of all ids, so plain ones pass as they are
    if not any(c in joined for c in ',"\r\n'):
        return ids
    return [
        '"' + i.replace('"', '""') + '"' if any(c in i for c in ',"\r\n') else i for i in ids
    ]


def _out_path(arg_out, checkpoint_path: str, default_name: str) -> Path:
    if arg_out:
        return Path(arg_out)
    return Path(checkpoint_path).parent / default_name


def cmd_train(args) -> int:
    cfg = parse_config_file(args.config)
    dataset = _load_dataset(cfg)
    fn = cfg.diagnostic

    def progress(rec):
        print(
            f"phase {rec.phase} epoch {rec.epoch:3d}  "
            f"loss {rec.total:.6f} (pred {rec.prediction:.6f} kl {rec.kl:.6f} cal {rec.calibration:.6f})  "
            f"val acc {rec.val_acc:.4f} auc {rec.val_auc:.4f} ece {rec.val_ece:.4f}"
        )

    trainer = Trainer(dataset, fn, cfg, on_epoch=progress)
    print(
        f"training variant={cfg.variant} students={dataset.n_students} "
        f"exercises={dataset.n_exercises} concepts={dataset.n_concepts} "
        f"interactions={dataset.n_interactions}"
    )
    ck = trainer.train()
    ck.run_config = asdict(cfg)

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ck_path = out_dir / "checkpoint.json"
    save_checkpoint(ck, ck_path)
    atomic_write(out_dir / "config_resolved.txt", format_config(cfg))
    log_lines = ["epoch,phase,loss_pred,loss_kl,loss_cal,loss_total,val_acc,val_auc,val_ece"]
    for rec in trainer.history:
        log_lines.append(
            f"{rec.epoch},{rec.phase},{rec.prediction:.6f},{rec.kl:.6f},"
            f"{rec.calibration:.6f},{rec.total:.6f},"
            f"{rec.val_acc:.6f},{rec.val_auc:.6f},{rec.val_ece:.6f}"
        )
    atomic_write(out_dir / "train_log.csv", "\n".join(log_lines) + "\n")
    best = ck.val_metrics
    if best:
        print(
            f"best epoch {ck.best_epoch}: val acc {best.get('acc', float('nan')):.4f} "
            f"auc {best.get('auc', float('nan')):.4f} ece {best.get('ece', float('nan')):.4f}"
        )
    print(f"checkpoint written to {ck_path}")
    return 0


def cmd_eval(args) -> int:
    ck, cfg, dataset, splits = _eval_context(args.checkpoint)
    indices = _split_indices(splits, args.split)
    # publish first, then score exactly what was published
    published, rounded = _published_probs(ck, dataset, indices)
    report = evaluate_probs(rounded, dataset.scores[indices], bins=cfg.bins)

    out = _out_path(args.out, args.checkpoint, f"predictions_{args.split}.csv")
    sids, eids = _csv_ids(dataset.student_ids), _csv_ids(dataset.exercise_ids)
    rows = zip(
        dataset.s_idx[indices].tolist(),
        dataset.e_idx[indices].tolist(),
        dataset.scores[indices].astype(np.int64).tolist(),
        published,
    )
    lines = ["student_id,exercise_id,label,prob"]
    lines += [f"{sids[s]},{eids[e]},{label},{prob}" for s, e, label, prob in rows]
    atomic_write(out, "\n".join(lines) + "\n")

    print(f"split {args.split} n {report.n}")
    print(f"ACC  {report.acc:.6f}")
    print(f"RMSE {report.rmse:.6f}")
    print(f"AUC  {report.auc:.6f}")
    print(f"ECE  {report.ece:.6f}")
    print(f"MCE  {report.mce:.6f}")
    print(f"predictions written to {out}")
    return 0


def cmd_diagnose(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    _run_config_from_checkpoint(ck)
    report = diagnose(ck, args.student)

    print(f"student {report.student_id}")
    print("mastery is sigmoid of the posterior mean; rank 1 = most confident (smallest sigma)")
    print(f"{'rank':>4}  {'concept':<24} {'mastery':>8} {'sigma':>8} {'seen':>5}")
    for row in report.rows:
        print(
            f"{row.rank:>4}  {row.concept_id:<24} {row.mastery:>8.4f} "
            f"{row.sigma:>8.4f} {row.interactions:>5}"
        )

    out = _out_path(args.out, args.checkpoint, f"diagnosis_{args.student}.csv")
    lines = ["rank,concept_id,mastery,sigma,interactions"]
    for row, cid in zip(report.rows, _csv_ids([row.concept_id for row in report.rows])):
        lines.append(f"{row.rank},{cid},{row.mastery:.6f},{row.sigma:.6f},{row.interactions}")
    atomic_write(out, "\n".join(lines) + "\n")
    print(f"diagnosis written to {out}")
    return 0


def cmd_export_ability(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    _run_config_from_checkpoint(ck)
    mastery = stable_sigmoid(ck.params[STUDENT_MEAN])
    sigma = np.sqrt(np.exp(ck.params[STUDENT_LOGVAR]))
    labels = _csv_ids(ck.fn.cell_labels(ck.concept_ids))

    out = _out_path(args.out, args.checkpoint, "ability.csv")
    lines = ["student_id,concept_id,mastery,sigma"]
    for i, sid in enumerate(_csv_ids(ck.student_ids)):
        for k, cid in enumerate(labels):
            lines.append(f"{sid},{cid},{mastery[i, k]:.6f},{sigma[i, k]:.6f}")
    atomic_write(out, "\n".join(lines) + "\n")
    print(f"{len(ck.student_ids) * len(labels)} rows written to {out}")
    return 0


def cmd_export_reliability(args) -> int:
    ck, cfg, dataset, splits = _eval_context(args.checkpoint)
    indices = _split_indices(splits, args.split)
    _, rounded = _published_probs(ck, dataset, indices)
    report = calibration(rounded, dataset.scores[indices], bins=cfg.bins)

    out = _out_path(args.out, args.checkpoint, f"reliability_{args.split}.csv")
    atomic_write(out, format_reliability_csv(report))
    print(f"split {args.split} ECE {report.ece:.6f} MCE {report.mce:.6f}")
    print(f"reliability table written to {out}")
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

    def add_eval_args(p, with_split=True):
        p.add_argument("--checkpoint", required=True, help="checkpoint.json from train")
        if with_split:
            p.add_argument(
                "--split", choices=("train", "val", "test"), default="test",
                help="which split to score (default: test)",
            )
        p.add_argument("--out", default=None, help="output CSV path (default: next to checkpoint)")

    p_eval = sub.add_parser("eval", help="score a split and write predictions")
    add_eval_args(p_eval)
    p_eval.set_defaults(fn=cmd_eval)

    p_diag = sub.add_parser("diagnose", help="per-concept mastery and confidence for one student")
    add_eval_args(p_diag, with_split=False)
    p_diag.add_argument("--student", required=True, help="student id as it appears in the logs")
    p_diag.set_defaults(fn=cmd_diagnose)

    p_ab = sub.add_parser("export-ability", help="dump mastery and sigma for every student")
    add_eval_args(p_ab, with_split=False)
    p_ab.set_defaults(fn=cmd_export_ability)

    p_rel = sub.add_parser("export-reliability", help="dump the reliability diagram table")
    add_eval_args(p_rel)
    p_rel.set_defaults(fn=cmd_export_reliability)

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
