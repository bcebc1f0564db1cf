"""Structure-preserving numerical integrators for stochastic Poisson systems."""

from .alpha_gf import AlphaSchemeConfig, alpha_step, j_inverse, sbar_gradient
from .canonical import CanonicalSHS, Chart, Model, alpha_scheme, alpha_scheme_map, make_alpha_stepper, poisson_integrator, transform_system, verify_chart
from .noise import TimeGrid, TruncationPolicy, WienerIncrements, coarsen, coarsen_values, sample_increments, sample_seed, truncate_increments, truncation_bound
from .poisson import PoissonSystem, ScalarField, bracket, check_casimir, check_jacobi, check_skew, drift_and_diffusions, fold_fields, poisson_map_residual, scale_field, variational_jacobian
from .sde import (
    DivergenceError,
    DomainError,
    IntegrationError,
    NonConvergenceError,
    OrderEstimate,
    SDE,
    StepError,
    euler_maruyama_step,
    fd_vector_jacobian,
    fit_order,
    implicit_euler_maruyama_step,
    integrate,
    midpoint_step,
    ms_error_many,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
