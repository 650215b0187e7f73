"""Model-order estimation for discrete-time linear systems.

The toolkit synthesizes benchmark responses, builds their Hankel
responses matrices, decides numerical rank under explicit tolerance
policies (with an exact rational oracle for noise-free verification),
and compares the rank-based order estimate against AIC and
covariance-determinant baselines.  A registry of seeded experiments
regenerates the canonical figure/table datasets as CSV.
"""

__version__ = "0.1.0"

from .signals import (
    Mode,
    ModeSum,
    NoiseSpec,
    Signal,
    add_noise,
    add_offset,
    gen_high_order,
    gen_mode_sum,
    gen_nonhomogeneous,
    gen_y5,
    pole_pair_modes,
    rational_mode_sum,
    read_signal_csv,
    snr_db,
    write_pair_csv,
    write_signal_csv,
)
from .hankel import (
    BOTTOM,
    RIGHT,
    ResponsesMatrix,
    build_augmented,
    build_hankel,
    build_rectangular_hankel,
    rational_hankel,
    row_echelon,
)
from .rank import (
    DEFAULT_GAP_RATIO,
    EPS,
    RankPolicy,
    RankResult,
    SingularSpectrum,
    condition_number,
    default_policy,
    exact_rank_rational,
    numerical_rank,
    singular_values,
)
from .estimators import (
    AicReport,
    ArFit,
    CovDetReport,
    OrderEstimate,
    RankSweep,
    SweepPoint,
    aic_order,
    ar_fit,
    covariance_determinants,
    covdet_order,
    hokalman_order,
    plateau_onset,
    write_aic_csv,
    write_covdet_csv,
    write_sweep_csv,
)
from .experiments import ExperimentSpec, ExperimentSummary, list_experiments, run_experiment

__all__ = [
    "__version__",
    # signals
    "Mode", "ModeSum", "NoiseSpec", "Signal",
    "gen_mode_sum", "gen_y5", "gen_high_order", "gen_nonhomogeneous",
    "pole_pair_modes", "add_noise", "add_offset", "snr_db", "rational_mode_sum",
    "write_signal_csv", "write_pair_csv", "read_signal_csv",
    # hankel
    "ResponsesMatrix", "BOTTOM", "RIGHT",
    "build_hankel", "build_rectangular_hankel", "build_augmented",
    "rational_hankel", "row_echelon",
    # rank
    "EPS", "DEFAULT_GAP_RATIO", "SingularSpectrum", "RankPolicy", "RankResult",
    "default_policy", "singular_values", "numerical_rank", "condition_number",
    "exact_rank_rational",
    # estimators
    "SweepPoint", "RankSweep", "OrderEstimate", "ArFit", "AicReport", "CovDetReport",
    "hokalman_order", "plateau_onset", "ar_fit", "aic_order",
    "covariance_determinants", "covdet_order",
    "write_sweep_csv", "write_aic_csv", "write_covdet_csv",
    # experiments
    "ExperimentSpec", "ExperimentSummary", "list_experiments", "run_experiment",
]
