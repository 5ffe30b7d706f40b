"""Steady-state analysis, sensitivity and balancing of cascaded oscillators.

The package models chains of open harmonic oscillators driven by a shared
bosonic field, computes their invariant Gaussian state, differentiates its
log-determinant with respect to the physical parameters, quantifies the
effect of parameter uncertainty, and finds symplectic coordinate changes
that minimize that effect mode by mode.
"""

__version__ = "0.1.0"

from .errors import (
    BisectionFailure, DimensionMismatch, EigFailure, NoConvergence, NonPositive, NotHurwitz,
    NotInStabilitySet, NotOneMode, NotSymplectic, ParseError, QCascadeError, RankDeficientMu,
    SchemaError, SingularLeadingBlock, SingularResolvent, SingularTheta, SolverSingular,
    TooManyRejections, ZAtOne,
)
from .linalg import (
    cascade_schur, duplication_matrix, is_hurwitz, quantum_psd_margin, resolvent_solve,
    solve_cascade_lyapunov, solve_cascade_sylvester, solve_lyapunov, solve_sylvester,
    symplectic_exponential, symplectic_form, symplectic_residual, vech, vech_to_symmetric,
)
from .oscillator import (
    CascadeModel, OscillatorParams, OscillatorRealization, assemble_cascade,
    composite_transfer_stack, default_theta, oscillator_realization, parameter_sizes,
    perturbed_cascade_stack, transfer_eval, transform_params,
)
from .covariance import (
    SteadyStateResult, frequency_domain_covariance, invariant_covariance_direct,
    invariant_covariance_recursive, purity_and_logdet, schur_complements, covariance_factor,
    steady_state,
)
from .gradients import (
    GradientSet, covariance_derivatives, gradient_fd_oracle, observability_gramian_and_hankelian,
    purity_gradients_direct, purity_gradients_recursive, transform_gradients,
)
from .sensitivity import (
    FisherResult, MonteCarloResult, OscillatorUncertainty, SensitivityIndex, UncertaintyModel,
    fisher_metric, fisher_sensitivity, kl_gaussian, kl_quadratic,
    monte_carlo_variance, phi_transformed, psi_transformed, sensitivity_index,
)
from .balance import (
    BalancingResult, CascadeBalanceReport, NewtonResult, OneModeBalanceProblem, balance_cascade,
    f_lambda, minimize_psi_one_mode, multimode_lower_bound, newton_lambda, solve_multiplier,
)
from .zcascade import (
    TIModel, TraceBoundResult, ZPoint, covariance_trace_bound, cross_covariance,
    cross_covariance_generating, cross_covariance_series, cross_covariance_symmetric_sector,
    h2_norm, h2_norm_quadrature, hinf_norm, phi_z_feedback, phi_z_h2_norm, phi_z_resolvent,
    series_depth_for, series_tail_bound, z_domain_matrices, z_pr_residual,
)

__all__ = [
    "BisectionFailure", "DimensionMismatch", "EigFailure", "NoConvergence", "NonPositive",
    "NotHurwitz", "NotInStabilitySet", "NotOneMode", "NotSymplectic", "ParseError", "QCascadeError",
    "RankDeficientMu", "SchemaError", "SingularLeadingBlock", "SingularResolvent", "SingularTheta",
    "SolverSingular", "TooManyRejections", "ZAtOne",
    "cascade_schur", "duplication_matrix", "is_hurwitz", "quantum_psd_margin",
    "resolvent_solve", "solve_cascade_lyapunov", "solve_cascade_sylvester", "solve_lyapunov",
    "solve_sylvester", "symplectic_exponential", "symplectic_form",
    "symplectic_residual", "vech", "vech_to_symmetric",
    "CascadeModel", "OscillatorParams", "OscillatorRealization", "assemble_cascade",
    "composite_transfer_stack", "default_theta", "oscillator_realization",
    "parameter_sizes", "perturbed_cascade_stack", "transfer_eval", "transform_params",
    "SteadyStateResult", "frequency_domain_covariance", "invariant_covariance_direct",
    "invariant_covariance_recursive", "purity_and_logdet", "schur_complements",
    "covariance_factor", "steady_state",
    "GradientSet", "covariance_derivatives", "gradient_fd_oracle",
    "observability_gramian_and_hankelian", "purity_gradients_direct", "purity_gradients_recursive",
    "transform_gradients",
    "FisherResult", "MonteCarloResult", "OscillatorUncertainty", "SensitivityIndex",
    "UncertaintyModel", "fisher_metric", "fisher_sensitivity",
    "kl_gaussian", "kl_quadratic", "monte_carlo_variance", "phi_transformed", "psi_transformed",
    "sensitivity_index",
    "BalancingResult", "CascadeBalanceReport", "NewtonResult", "OneModeBalanceProblem",
    "balance_cascade", "f_lambda", "minimize_psi_one_mode", "multimode_lower_bound",
    "newton_lambda", "solve_multiplier",
    "TIModel", "TraceBoundResult", "ZPoint", "covariance_trace_bound", "cross_covariance",
    "cross_covariance_generating", "cross_covariance_series",
    "cross_covariance_symmetric_sector", "h2_norm", "h2_norm_quadrature", "hinf_norm",
    "phi_z_feedback", "phi_z_h2_norm", "phi_z_resolvent", "series_depth_for", "series_tail_bound",
    "z_domain_matrices", "z_pr_residual",
]
