"""Spectral Faedo-Galerkin simulator and verification harness for the
strongly damped wave equation with a logarithmic source term on Dirichlet
boxes."""

from .analysis import (
    ConvergenceStudy,
    DecayFit,
    DependenceReport,
    EstimateSuite,
    FitError,
    check_energy_identity,
    check_integral_bound,
    check_virial_identity,
    continuous_dependence,
    convergence_study,
    fit_decay,
)
from .domain import (
    DomainSpec,
    ModalField,
    grad_norm_sq,
    l2_inner,
    l2_norm_sq,
    poincare_constant,
    random_band_limited,
)
from .functionals import (
    EnergyReport,
    ModelParams,
    energy,
    log_bound_large,
    log_bound_small,
    source_dual_norm,
    source_eval,
    uniform_bound_constant,
)
from .solver import (
    BLOWUP,
    COMPLETED,
    RUNNING,
    IntegrationResult,
    SolverConfig,
    blowup_scan,
    integrate,
    source_projection,
    step,
)
from .well import (
    DegenerateFieldError,
    FiberMoments,
    StableSetVerdict,
    WellDepthEstimate,
    default_trial_family,
    estimate_depth,
    fiber_I,
    fiber_J,
    fiber_moments,
    project_to_nehari,
    stable_set_check,
)

__version__ = "0.1.0"
