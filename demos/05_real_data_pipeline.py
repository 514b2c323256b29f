#!/usr/bin/env python3
"""The full real-data pipeline, from raw logs to calibrated diagnosis.

This demo drives the same path the command-line tool uses, on the public
ASSISTments 2009-2010 skill-builder dataset.  That file is not bundled
(and this sandbox may have no internet), so the script explains how to
fetch and prepare it, then runs only if the prepared CSVs are present.

Setup:
  1. download the "skill builder" CSV from the public ASSISTments data page
  2. python3 scripts/prepare_assist2009.py skill_builder_data.csv --out data/assist2009
  3. python3 demos/05_real_data_pipeline.py            (~20-40 min, CPU)

Environment override: set COGDIAG_ASSIST2009_DIR to the prepared directory.
"""

import os
import sys
import time
from pathlib import Path

from cogdiag import (
    DiagnosticFunction,
    TrainConfig,
    Trainer,
    build_dataset,
    evaluate_store,
    load_logs,
    load_qmatrix,
)

root = Path(os.environ.get("COGDIAG_ASSIST2009_DIR", "data/assist2009"))
if not ((root / "logs.csv").exists() and (root / "qmatrix.csv").exists()):
    print(f"prepared dataset not found under {root}/")
    print(__doc__)
    sys.exit(0)

print("=== 1. load and filter ===")
logs = load_logs(root / "logs.csv")
q_pairs = load_qmatrix(root / "qmatrix.csv")
dataset = build_dataset(logs, q_pairs, min_logs=15)
print(
    f"{dataset.n_students} students, {dataset.n_exercises} exercises, "
    f"{dataset.n_concepts} concepts, {dataset.n_interactions} interactions "
    f"(students under 15 logs dropped)"
)

print()
print("=== 2. train the monotone-MLP variant ===")
config = TrainConfig(
    gamma=1e-4, beta=0.1, learning_rate=0.002, batch_size=32,
    max_epochs=30, pretrain_epochs=15, patience=10, seed=0,
)


def progress(record):
    print(f"  phase {record.phase} epoch {record.epoch:>3}  pred {record.losses.prediction:.4f}  "
          f"val auc {record.val.auc:.4f}")


start = time.monotonic()
trainer = Trainer(dataset, DiagnosticFunction("ncd"), config, on_epoch=progress)
trainer.train()
print(f"trained in {time.monotonic() - start:.0f}s")

print()
print("=== 3. test-split report ===")
report = evaluate_store(trainer.store, trainer.fn, dataset, trainer.splits.test, bins=config.bins)
print(f"test ACC  {report.acc:.4f}")
print(f"test AUC  {report.auc:.4f}   (published runs of this model family: ~0.75)")
print(f"test ECE  {report.ece:.4f}   (published runs: ~0.017)")
print(f"test MCE  {report.mce:.4f}")
