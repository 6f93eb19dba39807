"""Opinion-dynamics agent models, their ODE/SDE limits, and diagnostics."""

from .abm import (
    DegreeWeighted,
    ModelSpec,
    ProbabilityProportional,
    UniformWithoutReplacement,
    UniformWithReplacement,
    UpdateMode,
    abm_step,
    run_abm,
    run_abm_batch,
)
from .analysis import (
    EnsembleStats,
    ensemble_stats,
    error_timeseries,
    sweep_error,
)
from .dem import (
    IntegratorSpec,
    LimitModel,
    NoDerivedLimitError,
    build_limit,
    integrate,
)
from .kernel import (
    BoundedConfidence,
    Constant,
    MollifiedBC,
    Network,
    NormalMollifier,
    UniformMollifier,
    erdos_renyi,
    eval_kernel,
    pairwise_matrix,
)
from .limitcheck import (
    CoefficientReport,
    convergence_sweep,
    exact_coefficients,
    mc_coefficients,
    probe_states,
)
from .noise import (
    Degenerate,
    GaussianScaled,
    NoiseFamily,
    NoiseKind,
    analytic_mk,
    empirical_mk,
    sample_noise,
)
from .trajectory import Trajectory

__version__ = "0.1.0"
