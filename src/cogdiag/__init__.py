"""cogdiag: confidence-aware cognitive diagnosis on numpy.

Students carry Gaussian mastery states whose variance is trained to
mean something: a pairwise calibration loss aligns it with observed
correctness, a consensus prior keeps sparse students honest, and
variance dropout keeps the uncertainty channel from collapsing.
Prediction runs through interchangeable diagnostic functions (IRT,
multidimensional IRT, or a small monotone MLP).
"""

from .checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from .config import ConfigError, RunConfig, parse_config_file
from .data import (
    DataFormatError,
    DataValidationError,
    Dataset,
    LogColumns,
    ResponseLog,
    SplitSpec,
    Splits,
    batches,
    build_dataset,
    load_logs,
    load_qmatrix,
    split_per_student,
)
from .diagnostics import (
    DiagnosticFunction,
    clamp_ncd_weights,
    init_parameters,
    predict_irt,
    predict_mirt,
    predict_ncd,
)
from .inference import (
    DiagnosisReport,
    EvalReport,
    diagnose,
    evaluate_store,
    predict_split,
)
from .latent import PriorConsensus, compute_consensus, kl_consensus
from .metrics import BinReport, MetricError, acc, auc, calibration, rmse, spearman
from .numerics import (
    ParameterStore,
    adam_step,
    grad_check,
    stable_sigmoid,
    xavier_init,
)
from .synth import SyntheticCohort, planted_cohort, write_cohort_csv
from .training import (
    CorrectnessTracker,
    LossBreakdown,
    NonFiniteLossError,
    TrainConfig,
    Trainer,
    batch_loss,
    calibration_pair_loss,
    prediction_loss,
    sample_pairs,
)

__version__ = "0.1.0"
