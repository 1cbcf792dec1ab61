"""mi_audit: membership-inference leakage auditing for mean-style releases.

The package answers one question quantitatively: if a specific record is
planted in a dataset whose (exact, noisy, or subsampled) empirical mean is
released, how reliably can an attacker detect it? The answer is governed by
a single per-record leakage score; closed-form curves live in
:mod:`mi_audit.theory`, Monte-Carlo games that validate them in
:mod:`mi_audit.game`, and the remaining modules provide mechanisms, attack
scores, canary selection, and a white-box training harness.
"""

__version__ = "0.2.0"

from ._util import ConfigError, NumericalError
from .dist import (
    Bernoulli,
    Gaussian,
    ProductDistribution,
    TargetPoint,
    make_extreme_targets,
    target_from_spec,
)
from .mech import EmpiricalMean, NoisyMean, SubsampledMean, mechanism_from_spec, subsample_count
from .score import (
    SCORE_NAMES,
    OracleMoments,
    ReferenceEstimates,
    lr_asymptotic,
    lr_empirical_cov,
    lr_exact_bernoulli,
    lr_misspecified,
    lr_noisy,
    lr_subsampled,
    make_score,
    scalar_product,
)
from .theory import (
    TradeoffCurve,
    cross_leakage,
    effective_leakage,
    gdp_delta,
    misspec_advantage,
    noisy_leakage_score,
    optimal_threshold,
    phi,
    phi_inv,
    polyline_gap,
    subsampled_leakage_score,
    subsampled_power,
    sup_norm_gap,
    theoretical_leakage,
    theoretical_power,
    tradeoff_curve,
    tv_gaussians,
    vertical_gap,
)
from .game import (
    CrafterTranscript,
    GameConfig,
    RocCurve,
    ScoredRound,
    craft,
    empirical_advantage,
    roc,
    round_stream,
    run_average_game,
    run_crafter,
    run_fixed_game,
    score_transcript,
)
from .canary import estimate_reference, mahalanobis_score_est, select_canary
from .whitebox import (
    ToyModel,
    TrainTrace,
    make_blobs,
    reference_gradients,
    run_whitebox_attack,
    run_whitebox_game,
    train_sgd,
)

__all__ = [
    "__version__",
    "ConfigError",
    "NumericalError",
    "Bernoulli",
    "Gaussian",
    "ProductDistribution",
    "TargetPoint",
    "make_extreme_targets",
    "target_from_spec",
    "EmpiricalMean",
    "NoisyMean",
    "SubsampledMean",
    "mechanism_from_spec",
    "subsample_count",
    "SCORE_NAMES",
    "OracleMoments",
    "ReferenceEstimates",
    "lr_exact_bernoulli",
    "lr_asymptotic",
    "lr_empirical_cov",
    "scalar_product",
    "lr_noisy",
    "lr_subsampled",
    "lr_misspecified",
    "make_score",
    "phi",
    "phi_inv",
    "theoretical_leakage",
    "theoretical_power",
    "optimal_threshold",
    "noisy_leakage_score",
    "subsampled_leakage_score",
    "misspec_advantage",
    "cross_leakage",
    "gdp_delta",
    "tv_gaussians",
    "effective_leakage",
    "subsampled_power",
    "TradeoffCurve",
    "tradeoff_curve",
    "polyline_gap",
    "sup_norm_gap",
    "vertical_gap",
    "ScoredRound",
    "RocCurve",
    "GameConfig",
    "CrafterTranscript",
    "round_stream",
    "craft",
    "run_crafter",
    "score_transcript",
    "run_fixed_game",
    "run_average_game",
    "roc",
    "empirical_advantage",
    "estimate_reference",
    "mahalanobis_score_est",
    "select_canary",
    "ToyModel",
    "TrainTrace",
    "train_sgd",
    "reference_gradients",
    "run_whitebox_attack",
    "run_whitebox_game",
    "make_blobs",
]
