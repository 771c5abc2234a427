"""Index-shifted Meixner, Charlier, Laguerre and Meixner-Pollaczek polynomials.

The families arise from the classical three-term recurrences by shifting
the degree index in every coefficient by a nonnegative amount ``gamma``.
The package evaluates them along several mathematically independent
routes (forward recurrences, terminating double hypergeometric sums,
quadratic and cross-product Gauss-2F1 forms, generating functions with
Appell-F1/Humbert-Phi1/Euler-integral closed forms, and large-degree
scaled limits) and cross-verifies every identity numerically.

The ``assocpoly`` console script exposes evaluation, tabulation,
identity verification, generating-function checks, and large-degree
convergence studies.
"""

import importlib

__version__ = "1.0.0"

# Every public name, listed under the submodule that defines it; this is the
# one list of them, so no submodule keeps an ``__all__``.  A name is
# imported from its submodule on first access (PEP 562) and then kept in
# this namespace, so ``import assocpoly`` loads no submodule, a command
# loads only the submodules it runs, and each later lookup is a plain
# attribute hit.
_EXPORTS = {
    "errors": (
        "AssocPolyError", "ZeroC", "ZeroA", "RestrictedParameter",
        "DomainError", "PoleArgument", "DenominatorPole",
        "NotConverged", "IllConditioned", "SingularIntegrand",
        "QuadratureNotConverged", "TailTooLarge",
    ),
    "hyperkernel": (
        "EvalOutcome", "Accumulator", "EulerIntegrand",
        "pochhammer", "gamma_value",
        "hyp_terminating", "gauss_2f1", "kummer_1f1", "appell_f1",
        "humbert_phi1", "euler_integral",
    ),
    "recurrences": (
        "MeixnerParams", "CharlierParams", "LaguerreParams",
        "MeixnerPollaczekParams", "PolySequence", "classical",
        "meixner_seq", "charlier_seq", "laguerre_seq",
        "meixner_pollaczek_seq",
    ),
    "closedforms": (
        "CharlierVariant", "LaguerreVariant",
        "meixner_4f3", "meixner_4f3_alt", "meixner_quadratic",
        "meixner_cross_2f1", "meixner_reflection_rhs",
        "meixner_c1_degenerate", "meixner_classical", "charlier_3f2",
        "charlier_classical", "laguerre_3f2", "laguerre_classical",
        "mp_from_meixner", "identity_4f3_finite_sum",
        "identity_3f2_pochhammer", "identity_3f2_t_powered",
    ),
    "genfuncs": (
        "Normalization", "GFSpec", "gf_lhs_partial", "gf_lhs_auto",
        "gf_meixner_appell", "gf_meixner_classical_2f1", "gf_meixner_alt",
        "gf_meixner_elementary", "gf_meixner_integral", "gf_charlier_phi1",
        "gf_charlier_elementary", "gf_charlier_integral",
        "gf_charlier_ode_residual", "gf_laguerre", "gf_laguerre_elementary",
        "gf_weighted_meixner_rhs", "gf_weighted_charlier_rhs",
        "gf_weighted_laguerre_rhs", "gf_weighted_laguerre_diag",
        "weighted_classical_gf", "convolution_identity",
        "c1_reduction_identity",
    ),
    "asymptotics": (
        "ScaledSequence", "MHStudy", "scaled_meixner_seq",
        "scaled_charlier_seq", "mh_meixner_limit", "mh_charlier_limit",
        "mh_convergence_study",
    ),
    "report": ("IdentityReport", "make_report", "VERIFY_SETS", "summarize"),
    "verify": ("run_set",),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = ["__version__", *_OWNER]


def __getattr__(name):
    if name in _EXPORTS:
        # A submodule is an attribute too: ``assocpoly.verify.run_set``.
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
