#!/usr/bin/env python3
"""What the per-student diagnosis looks like, and why the sigmas differ.

The model's promise is not just "here is a mastery estimate" but "here
is how sure I am, per concept".  This demo trains on a cohort whose
concept popularity is deliberately skewed, then shows that the reported
sigma tracks how much evidence each (student, concept) cell actually
received.

Run:  python3 demos/02_confidence_diagnosis.py          (~20 s)
"""

import numpy as np

from cogdiag import DiagnosticFunction, TrainConfig, Trainer, build_dataset, diagnose, planted_cohort
from cogdiag.inference import concept_interaction_counts

print("=== 1. a cohort where some concepts are rarely exercised ===")
cohort = planted_cohort(
    n_students=150, n_exercises=250, n_concepts=8, per_student=60,
    seed=3, concept_skew=8.0,
)
dataset = build_dataset(cohort.logs, cohort.q_pairs, min_logs=1)
config = TrainConfig(max_epochs=12, pretrain_epochs=10, batch_size=32, seed=1)
trainer = Trainer(dataset, DiagnosticFunction("mirt"), config)
checkpoint = trainer.train()
print(f"trained on {len(trainer.splits.train)} interactions")

print()
print("=== 2. diagnose one student ===")
student = dataset.student_ids[5]
report = diagnose(checkpoint, student)
print(f"student {student}  (rank 1 = the model's most confident concept)")
print(f"{'rank':>4}  {'concept':>8}  {'mastery':>8}  {'sigma':>7}  {'evidence':>8}")
for row in report.rows:
    print(
        f"{row.rank:>4}  {row.concept_id:>8}  {row.mastery:>8.3f}  "
        f"{row.sigma:>7.3f}  {row.interactions:>8}"
    )

print()
print("=== 3. confidence is earned by evidence, cohort-wide ===")
counts = concept_interaction_counts(dataset, trainer.splits.train, trainer.fn)
variance = np.exp(trainer.store.params["student_logvar"])
for lo, hi in ((0, 2), (3, 9), (10, 19), (20, 10**9)):
    cells = (counts >= lo) & (counts <= hi)
    if cells.sum() == 0:
        continue
    label = f"{lo}-{hi if hi < 10**9 else '...'}"
    print(
        f"  cells with {label:>7} training interactions: "
        f"{cells.sum():>5} cells, mean variance {variance[cells].mean():.3f}"
    )
print("variance falls as interaction counts rise: the model is only")
print("confident where it has actually seen the student work.")
