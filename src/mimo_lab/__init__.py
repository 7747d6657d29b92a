"""Multicell massive-MIMO simulation with low-rank angular-support channel
covariances, low-dimensional MMSE processing, ergodic-rate bounds, and
random-matrix deterministic equivalents for cross-validation."""

from .covmodel import (
    CorrelationModel,
    CovarianceProfile,
    EigenProfile,
    NetworkScenario,
    PilotScheme,
    Regime,
    ScenarioConfig,
    build_network,
    eigen_profile,
    sample_partial_fourier,
    sample_partial_unitary,
    stream,
)
from .detequiv import (
    DetEquivProblem,
    DetEquivSolution,
    concentration_check,
    sinr_mf_detequiv,
    sinr_mmse_detequiv,
    solve_fixed_point,
    solve_primed,
)
from .bounds import (
    RateReport,
    asymptotic_capacity,
    cutset_upper,
    legacy_scaling,
    run_bounds,
)
from .harness import (
    ExperimentSpec,
    ResultTable,
    load_config,
    reproduce_figure,
    run_experiment,
    write_results,
)

__version__ = "0.1.0"
