"""The package's public names: each is loaded from its submodule on first use."""

import importlib
import subprocess
import sys

import pytest

import assocpoly

# The public names of the package, in the order of its 1.0 ``__all__``,
# less the seven that only their own tests ran.
PUBLIC_NAMES = [
    "__version__",
    # errors
    "AssocPolyError", "ZeroC", "ZeroA", "RestrictedParameter", "DomainError",
    "PoleArgument", "DenominatorPole", "NotConverged", "IllConditioned",
    "SingularIntegrand", "QuadratureNotConverged", "TailTooLarge",
    # hyperkernel
    "EvalOutcome", "Accumulator", "EulerIntegrand",
    "pochhammer", "gamma_value",
    "hyp_terminating", "gauss_2f1", "kummer_1f1", "appell_f1",
    "humbert_phi1", "euler_integral",
    # recurrences
    "MeixnerParams", "CharlierParams", "LaguerreParams",
    "MeixnerPollaczekParams", "PolySequence", "classical",
    "meixner_seq", "charlier_seq", "laguerre_seq", "meixner_pollaczek_seq",
    # closed forms
    "CharlierVariant", "LaguerreVariant",
    "meixner_4f3", "meixner_4f3_alt", "meixner_quadratic",
    "meixner_cross_2f1", "meixner_reflection_rhs", "meixner_c1_degenerate",
    "meixner_classical", "charlier_3f2", "charlier_classical",
    "laguerre_3f2", "laguerre_classical", "mp_from_meixner",
    "identity_4f3_finite_sum", "identity_3f2_pochhammer",
    "identity_3f2_t_powered",
    # generating functions
    "Normalization", "GFSpec", "gf_lhs_partial", "gf_lhs_auto",
    "gf_meixner_appell", "gf_meixner_classical_2f1", "gf_meixner_alt",
    "gf_meixner_elementary", "gf_meixner_integral", "gf_charlier_phi1",
    "gf_charlier_elementary", "gf_charlier_integral",
    "gf_charlier_ode_residual", "gf_laguerre", "gf_laguerre_elementary",
    "gf_weighted_meixner_rhs", "gf_weighted_charlier_rhs",
    "gf_weighted_laguerre_rhs", "gf_weighted_laguerre_diag",
    "weighted_classical_gf", "convolution_identity",
    "c1_reduction_identity",
    # asymptotics
    "ScaledSequence", "MHStudy", "scaled_meixner_seq", "scaled_charlier_seq",
    "mh_meixner_limit", "mh_charlier_limit", "mh_convergence_study",
    # reports and verification
    "IdentityReport", "make_report", "VERIFY_SETS", "run_set", "summarize",
]


def test_all_lists_the_public_names_once():
    assert len(PUBLIC_NAMES) == 85
    assert len(set(assocpoly.__all__)) == len(assocpoly.__all__)
    assert sorted(assocpoly.__all__) == sorted(PUBLIC_NAMES)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from assocpoly import *", namespace)
    assert all(name in namespace for name in PUBLIC_NAMES)


@pytest.mark.parametrize("module", sorted(assocpoly._EXPORTS))
def test_each_name_is_the_object_its_submodule_defines(module):
    submodule = importlib.import_module(f"assocpoly.{module}")
    for name in assocpoly._EXPORTS[module]:
        assert getattr(assocpoly, name) is getattr(submodule, name), name


@pytest.mark.parametrize("module", [*sorted(assocpoly._EXPORTS), "cli"])
def test_only_the_package_lists_public_names(module):
    # ``assocpoly._EXPORTS`` is the one list; a submodule copy of it drifts.
    submodule = importlib.import_module(f"assocpoly.{module}")
    assert not hasattr(submodule, "__all__")


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(assocpoly))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        assocpoly.no_such_name  # noqa: B018
    assert not hasattr(assocpoly, "verify_representations")


def test_import_loads_no_submodule_until_it_is_used():
    script = (
        "import sys\n"
        "import assocpoly\n"
        "print(*sorted(m for m in sys.modules if m.startswith('assocpoly')))\n"
        "assocpoly.meixner_seq\n"
        "print(*sorted(m for m in sys.modules if m.startswith('assocpoly')))\n"
        "assocpoly.asymptotics.mh_convergence_study\n"
        "print(*sorted(m for m in sys.modules if m.startswith('assocpoly')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "assocpoly",
        "assocpoly assocpoly.errors assocpoly.hyperkernel "
        "assocpoly.recurrences",
        "assocpoly assocpoly.asymptotics assocpoly.errors "
        "assocpoly.hyperkernel assocpoly.recurrences",
    ]
