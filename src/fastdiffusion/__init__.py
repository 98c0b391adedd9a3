"""Spectral simulator and verification harness for stochastic fast diffusion.

The package represents the equation in the eigenbasis of its linear part,
simulates coupled pairs of solutions under shared noise, and checks the
closed-form bounds (exponential moments, power-Harnack) and noise-spectrum
sufficient conditions against Monte Carlo evidence.
"""

from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("fastdiffusion")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "0.0.0+local"

from .errors import (
    EmptySample,
    FastDiffusionError,
    InvalidExponent,
    InvalidP,
    InvalidSampleCount,
    NonFiniteState,
    NotNegativeDefinite,
    NotSelfAdjoint,
    NotTimeHomogeneous,
    PositiveGamma,
    SchemaError,
    ZeroHorizon,
    ZeroNoiseMode,
)
from .schedules import PiecewiseConstant, as_schedule, combine, weighted_exp_integral
from .spectral import (
    MeasureSpace,
    SpectralModel,
    build_model,
    dirichlet1d_model,
    fractional_power,
    from_spectral,
    model_from_spec,
    norm_h,
    norm_l2m,
    norm_lp,
    norm_q,
    to_spectral,
)
from .dynamics import NONLINEARITIES, SCHEMES, CoefficientSet
from .coupling import CouplingSchedule, make_schedule
from .bounds import (
    BoundReport,
    bound_report,
    coupling_gain,
    coupling_gain_int,
    coupling_gain_sq_int,
    exp_moment_weight,
    harnack_rhs,
    log_moment_rate,
    log_moment_rate_int,
)
from .conditions import (
    AsymptoticSpec,
    ConditionReport,
    check_embedding_constant,
    check_fractional_power,
    check_noise_domination,
    check_noise_sandwich,
    check_power_spectrum_window,
    check_spectral_growth,
    hs_check,
)
from .montecarlo import (
    CoupledEnsembleResult,
    EnsembleConfig,
    Estimate,
    estimate_from_values,
    estimate_invariant,
    estimate_ptf,
    estimate_weighted,
    make_test_function,
    run_coupled_ensemble,
    strong_feller_probe,
    verify_exp_moment_bound,
    verify_harnack,
)
from .config import COMMANDS, ExperimentConfig, validate_config
from .records import (
    COUPLE_CSV_COLUMNS,
    PLOT_CSV_COLUMNS,
    ResultRecord,
    canonical_json,
    emit_report,
    load_record,
    make_record,
)

__all__ = [
    "__version__",
    # errors
    "FastDiffusionError",
    "NotSelfAdjoint",
    "NotNegativeDefinite",
    "ZeroNoiseMode",
    "InvalidExponent",
    "NonFiniteState",
    "InvalidP",
    "ZeroHorizon",
    "EmptySample",
    "InvalidSampleCount",
    "NotTimeHomogeneous",
    "PositiveGamma",
    "SchemaError",
    # schedules
    "PiecewiseConstant",
    "as_schedule",
    "combine",
    "weighted_exp_integral",
    # spectral
    "MeasureSpace",
    "SpectralModel",
    "build_model",
    "dirichlet1d_model",
    "fractional_power",
    "model_from_spec",
    "to_spectral",
    "from_spectral",
    "norm_l2m",
    "norm_lp",
    "norm_h",
    "norm_q",
    # dynamics
    "SCHEMES",
    "NONLINEARITIES",
    "CoefficientSet",
    # coupling
    "CouplingSchedule",
    "make_schedule",
    # bounds
    "exp_moment_weight",
    "log_moment_rate",
    "log_moment_rate_int",
    "coupling_gain",
    "coupling_gain_int",
    "coupling_gain_sq_int",
    "harnack_rhs",
    "BoundReport",
    "bound_report",
    # conditions
    "ConditionReport",
    "AsymptoticSpec",
    "hs_check",
    "check_noise_domination",
    "check_spectral_growth",
    "check_noise_sandwich",
    "check_power_spectrum_window",
    "check_fractional_power",
    "check_embedding_constant",
    # montecarlo
    "EnsembleConfig",
    "Estimate",
    "estimate_from_values",
    "make_test_function",
    "estimate_ptf",
    "CoupledEnsembleResult",
    "run_coupled_ensemble",
    "estimate_weighted",
    "verify_harnack",
    "verify_exp_moment_bound",
    "estimate_invariant",
    "strong_feller_probe",
    # config
    "ExperimentConfig",
    "validate_config",
    "COMMANDS",
    # records
    "ResultRecord",
    "make_record",
    "load_record",
    "canonical_json",
    "emit_report",
    "COUPLE_CSV_COLUMNS",
    "PLOT_CSV_COLUMNS",
]
