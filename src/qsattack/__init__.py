"""Black-box adversarial attacks on multichannel signal classifiers.

Trains a substitute for a label-only target oracle by query-synthesis
active learning (boundary bisection plus mid-perpendicular offsets),
crafts sign-gradient perturbations from the substitute, and measures
attack efficacy and query efficiency against a gradient-step
augmentation baseline.
"""

__version__ = "0.1.0"

from .attack import AdversarialExample, AttackConfig, craft_batch, fgsm, random_noise, ufgsm
from .data import (
    LabeledSet,
    balance_by_predicted_label,
    gen_blobs,
    gen_synthetic_epochs,
    read_epochs,
    write_epochs,
)
from .errors import (
    BoundaryLostError,
    BudgetExhaustedError,
    ClassBalanceError,
    ConfigError,
    DegenerateDirectionError,
    MalformedCheckpointError,
    MalformedEpochFileError,
    ShapeMismatchError,
)
from .metrics import (
    MetricReport,
    SweepCurve,
    bca,
    boundary_agreement,
    confusion_matrix,
    metric_report,
    paired_sign_test,
    rca,
    sweep_curve,
)
from .models import (
    ModelSpec,
    SoftmaxClassifier,
    TrainConfig,
    TrainHistory,
    load_checkpoint,
    save_checkpoint,
)
from .oracle import TargetOracle
from .pipeline import ExperimentConfig, RunResult, derive_seed, load_config, run_attack_experiment
from .synthesis import (
    AugmentationTrace,
    JacobianConfig,
    OppositePair,
    QueryCounter,
    SynthesisConfig,
    binary_search_pair,
    jacobian_augment,
    mid_perpendicular,
    one_vs_one_quotas,
    synthesize_one_vs_one,
    train_substitute_active,
    train_substitute_jacobian,
)
