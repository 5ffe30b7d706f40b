"""Steady-state analysis, sensitivity and balancing of cascaded oscillators.

The package models chains of open harmonic oscillators driven by a shared
bosonic field, computes their invariant Gaussian state, differentiates its
log-determinant with respect to the physical parameters, quantifies the
effect of parameter uncertainty, and finds symplectic coordinate changes
that minimize that effect mode by mode.

Importing the package loads none of its modules. ``_EXPORTS`` lists each
public name once, under the module that defines it; ``__all__`` and
``__dir__`` are read off it, and a module loads on first access of one of its
names (PEP 562). No name is kept on the package, so each resolves to its
module's current binding. The import rule, here and in :mod:`qcascade.cli`:
module level holds what every command needs, and a command's own layer is
imported inside its view.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("BisectionFailure", "DimensionMismatch", "EigFailure", "NoConvergence",
               "NonPositive", "NotHurwitz", "NotInStabilitySet", "NotOneMode", "ParseError",
               "QCascadeError", "RankDeficientMu", "SchemaError", "SingularLeadingBlock",
               "SingularResolvent", "SingularTheta", "SolverSingular", "TooManyRejections",
               "ZAtOne"),
    "linalg": ("cascade_schur", "is_hurwitz", "quantum_psd_margin", "resolvent_solve",
               "solve_cascade_lyapunov", "solve_cascade_sylvester", "solve_sylvester",
               "symplectic_exponential", "symplectic_form", "vech_to_symmetric"),
    "oscillator": ("CascadeModel", "OscillatorParams", "OscillatorRealization",
                   "OscillatorUncertainty", "assemble_cascade", "default_theta",
                   "oscillator_realization", "parameter_positions", "parameter_sizes",
                   "perturbed_cascade_stack", "transfer_eval", "transform_params"),
    "covariance": ("SteadyStateResult", "invariant_covariance_direct",
                   "invariant_covariance_recursive", "schur_complements", "steady_state"),
    "gradients": ("GradientSet", "covariance_derivatives", "gradient_fd_oracle",
                  "observability_gramian_and_hankelian", "purity_gradients_direct",
                  "purity_gradients_recursive"),
    "sensitivity": ("MonteCarloResult", "SensitivityIndex", "fisher_metric", "fisher_sensitivity",
                    "kl_gaussian", "monte_carlo_variance", "psi_transformed", "sensitivity_index"),
    "balance": ("BalancingResult", "CascadeBalanceReport", "NewtonResult", "OneModeBalanceProblem",
                "balance_cascade", "f_lambda", "minimize_psi_one_mode", "multimode_lower_bound",
                "solve_multiplier"),
    "zcascade": ("TIModel", "TraceBoundResult", "ZPoint", "covariance_trace_bound",
                 "cross_covariance", "cross_covariance_symmetric_sector", "h2_norm", "hinf_norm",
                 "phi_z_h2_norm", "phi_z_resolvent", "z_domain_matrices"),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNERS)


def __getattr__(name: str):
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNERS[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
