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

from .asymptotics import (
    MHStudy,
    ScaledSequence,
    mh_charlier_limit,
    mh_convergence_study,
    mh_meixner_limit,
    scaled_charlier_seq,
    scaled_meixner_seq,
)
from .closedforms import (
    CharlierVariant,
    LaguerreVariant,
    charlier_3f2,
    charlier_classical,
    identity_3f2_m_generalized,
    identity_3f2_pochhammer,
    identity_3f2_t_powered,
    identity_4f3_finite_sum,
    laguerre_3f2,
    laguerre_classical,
    meixner_4f3,
    meixner_4f3_alt,
    meixner_c1_degenerate,
    meixner_classical,
    meixner_cross_2f1,
    meixner_quadratic,
    meixner_reflection_rhs,
    mp_from_meixner,
)
from .errors import (
    AssocPolyError,
    DenominatorPole,
    DomainError,
    IllConditioned,
    NotConverged,
    PoleArgument,
    QuadratureNotConverged,
    RestrictedParameter,
    SingularIntegrand,
    TailTooLarge,
    ZeroA,
    ZeroC,
    ZeroPochhammer,
)
from .genfuncs import (
    GFSpec,
    Normalization,
    c1_reduction_identity,
    convolution_identity,
    gf_charlier_elementary,
    gf_charlier_integral,
    gf_charlier_ode_residual,
    gf_charlier_phi1,
    gf_laguerre,
    gf_laguerre_elementary,
    gf_lhs_auto,
    gf_lhs_partial,
    gf_meixner_alt,
    gf_meixner_appell,
    gf_meixner_classical_2f1,
    gf_meixner_elementary,
    gf_meixner_integral,
    gf_weighted_charlier_rhs,
    gf_weighted_laguerre_diag,
    gf_weighted_laguerre_rhs,
    gf_weighted_meixner_rhs,
    laguerre_diag_derivative_check,
    weighted_classical_gf,
)
from .hyperkernel import (
    Accumulator,
    EulerIntegrand,
    EvalOutcome,
    SeriesConfig,
    appell_f1,
    euler_integral,
    gamma_ratio,
    gamma_value,
    gauss_2f1,
    humbert_phi1,
    hyp_terminating,
    kummer_1f1,
    pochhammer,
    pochhammer_log,
)
from .recurrences import (
    CharlierParams,
    LaguerreParams,
    MeixnerParams,
    MeixnerPollaczekParams,
    PolySequence,
    charlier_seq,
    classical,
    laguerre_seq,
    meixner_pollaczek_seq,
    meixner_seq,
    positivity_check,
    positivity_product,
)
from .report import IdentityReport, make_report
from .verify import VERIFY_SETS, run_set, summarize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "AssocPolyError", "ZeroC", "ZeroA", "RestrictedParameter", "DomainError",
    "ZeroPochhammer", "PoleArgument", "DenominatorPole", "NotConverged",
    "IllConditioned", "SingularIntegrand", "QuadratureNotConverged",
    "TailTooLarge",
    # hyperkernel
    "SeriesConfig", "EvalOutcome", "Accumulator", "EulerIntegrand",
    "pochhammer", "pochhammer_log", "gamma_value", "gamma_ratio",
    "hyp_terminating", "gauss_2f1", "kummer_1f1", "appell_f1",
    "humbert_phi1", "euler_integral",
    # recurrences
    "MeixnerParams", "CharlierParams", "LaguerreParams",
    "MeixnerPollaczekParams", "PolySequence", "classical",
    "meixner_seq", "charlier_seq", "laguerre_seq", "meixner_pollaczek_seq",
    "positivity_product", "positivity_check",
    # closed forms
    "CharlierVariant", "LaguerreVariant",
    "meixner_4f3", "meixner_4f3_alt", "meixner_quadratic",
    "meixner_cross_2f1", "meixner_reflection_rhs", "meixner_c1_degenerate",
    "meixner_classical", "charlier_3f2", "charlier_classical",
    "laguerre_3f2", "laguerre_classical", "mp_from_meixner",
    "identity_4f3_finite_sum", "identity_3f2_pochhammer",
    "identity_3f2_t_powered", "identity_3f2_m_generalized",
    # generating functions
    "Normalization", "GFSpec", "gf_lhs_partial", "gf_lhs_auto",
    "gf_meixner_appell", "gf_meixner_classical_2f1", "gf_meixner_alt",
    "gf_meixner_elementary", "gf_meixner_integral", "gf_charlier_phi1",
    "gf_charlier_elementary", "gf_charlier_integral",
    "gf_charlier_ode_residual", "gf_laguerre", "gf_laguerre_elementary",
    "gf_weighted_meixner_rhs", "gf_weighted_charlier_rhs",
    "gf_weighted_laguerre_rhs", "gf_weighted_laguerre_diag",
    "weighted_classical_gf", "convolution_identity",
    "c1_reduction_identity", "laguerre_diag_derivative_check",
    # asymptotics
    "ScaledSequence", "MHStudy", "scaled_meixner_seq", "scaled_charlier_seq",
    "mh_meixner_limit", "mh_charlier_limit", "mh_convergence_study",
    # reports and verification
    "IdentityReport", "make_report", "VERIFY_SETS", "run_set", "summarize",
]
