"""The library's immutable value records: construction, defaults, repr,
equality, hashing, immutability, pickling and copying, and validation."""

import copy
import math
import pickle

import pytest

from assocpoly import (
    CharlierParams,
    EulerIntegrand,
    EvalOutcome,
    GFSpec,
    IdentityReport,
    LaguerreParams,
    MeixnerParams,
    MeixnerPollaczekParams,
    MHStudy,
    Normalization,
    PolySequence,
    ScaledSequence,
    ZeroA,
    ZeroC,
    classical,
)

# (class, field names, values in field order, the repr of that record)
RECORDS = [
    (EvalOutcome, ("value", "converged", "terms_used", "err_estimate"),
     (0.5 - 2j, True, 7, 1e-17),
     "EvalOutcome(value=(0.5-2j), converged=True, terms_used=7, "
     "err_estimate=1e-17)"),
    (EulerIntegrand, ("gamma", "factors", "exp_scale"),
     (0.7, ((0.5, -1.5), (0.25, 2.0)), 0.3),
     "EulerIntegrand(gamma=0.7, factors=((0.5, -1.5), (0.25, 2.0)), "
     "exp_scale=0.3)"),
    (MeixnerParams, ("beta", "c", "gamma"), (1.5, 0.4, 0.7),
     "MeixnerParams(beta=1.5, c=0.4, gamma=0.7)"),
    (CharlierParams, ("a", "gamma"), (2.0, 0.5),
     "CharlierParams(a=2.0, gamma=0.5)"),
    (LaguerreParams, ("alpha", "gamma"), (-0.5, 1.25),
     "LaguerreParams(alpha=-0.5, gamma=1.25)"),
    (MeixnerPollaczekParams, ("nu", "phi", "gamma"), (0.75, 1.0, 0.3),
     "MeixnerPollaczekParams(nu=0.75, phi=1.0, gamma=0.3)"),
    (PolySequence, ("values", "params", "x"),
     ((1.0, -0.5), CharlierParams(2.0), 0.5),
     "PolySequence(values=(1.0, -0.5), params=CharlierParams(a=2.0, "
     "gamma=0.0), x=0.5)"),
    (IdentityReport,
     ("identity_id", "point", "lhs", "rhs", "rel_discrepancy", "passed",
      "rel_tol"),
     ("gf-meixner-appell", {"x": 0.5}, 1.0, 1.0 + 1e-12, 1e-12, True, 1e-8),
     "IdentityReport(identity_id='gf-meixner-appell', point={'x': 0.5}, "
     "lhs=1.0, rhs=1.000000000001, rel_discrepancy=1e-12, passed=True, "
     "rel_tol=1e-08)"),
    (GFSpec,
     ("family", "x", "t", "normalization", "truncation_N"),
     (LaguerreParams(0.5, 1.0), 0.25, 0.1j, Normalization.WEIGHTED, 40),
     "GFSpec(family=LaguerreParams(alpha=0.5, gamma=1.0), x=0.25, t=0.1j, "
     "normalization=<Normalization.WEIGHTED: 'weighted'>, truncation_N=40)"),
    (ScaledSequence, ("r", "params", "x", "n_max"),
     ((0.25, 0.125), MeixnerParams(1.5, 0.4), -2.3, 1),
     "ScaledSequence(r=(0.25, 0.125), params=MeixnerParams(beta=1.5, c=0.4, "
     "gamma=0.0), x=-2.3, n_max=1)"),
    (MHStudy, ("samples", "limit", "monotone_tail", "second_term_ratios"),
     (((50, 0.4, 1e-3),), 0.4, True, (0.9,)),
     "MHStudy(samples=((50, 0.4, 0.001),), limit=0.4, monotone_tail=True, "
     "second_term_ratios=(0.9,))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# (class, required arguments, {field: default} for the rest)
DEFAULTS = [
    (EulerIntegrand, (0.7,), {"factors": (), "exp_scale": 0.0}),
    (MeixnerParams, (1.5, 0.4), {"gamma": 0.0}),
    (CharlierParams, (2.0,), {"gamma": 0.0}),
    (LaguerreParams, (-0.5,), {"gamma": 0.0}),
    (MeixnerPollaczekParams, (0.75, 1.0), {"gamma": 0.0}),
    (GFSpec, (MeixnerParams(1.5, 0.4), 0.5, 0.1),
     {"normalization": Normalization.BY_GAMMA_ONE, "truncation_N": 60}),
    (MHStudy, ((), 0.4, False), {"second_term_ratios": None}),
]


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, text):
    record = cls(*values)
    assert cls(**dict(zip(fields, values))) == record
    assert tuple(getattr(record, name) for name in fields) == values


@pytest.mark.parametrize("cls, required, defaults", DEFAULTS,
                         ids=[cls.__name__ for cls, *_ in DEFAULTS])
def test_defaults(cls, required, defaults):
    record = cls(*required)
    assert {name: getattr(record, name) for name in defaults} == defaults


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_repr(cls, fields, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(cls, fields, values, text):
    record = cls(*values)
    if cls is IdentityReport:
        # Its point is a dict, so neither it nor its fields hash.
        with pytest.raises(TypeError):
            hash(values)
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(values)


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_equality_is_same_class_and_same_fields(cls, fields, values, text):
    record = cls(*values)
    assert record == cls(*values)
    assert not record != cls(*values)
    assert record != values
    assert record != list(values)
    assert record != object()


def test_records_of_different_classes_are_never_equal():
    assert CharlierParams(2.0, 0.5) != LaguerreParams(2.0, 0.5)
    assert LaguerreParams(2.0, 0.5) != CharlierParams(2.0, 0.5)
    assert MeixnerParams(1.5, 0.4) != (1.5, 0.4, 0.0)
    assert len({CharlierParams(2.0, 0.5), LaguerreParams(2.0, 0.5)}) == 2


def test_nan_fields_compare_as_the_field_tuple_does():
    nan = math.nan
    record = EvalOutcome(nan, False, 3, nan)
    assert record == record
    assert record != EvalOutcome(float("nan"), False, 3, nan)


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, values, text):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert tuple(getattr(record, name) for name in fields) == values


@pytest.mark.parametrize("cls, fields, values, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, fields, values, text):
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls
        assert back == record
        assert repr(back) == text
    for clone in (copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is cls
        assert clone == record
        assert repr(clone) == text
    if cls is IdentityReport:
        assert copy.deepcopy(record).point is not record.point


def test_validation_errors_are_unchanged():
    with pytest.raises(ZeroC, match="Meixner parameter c must be nonzero"):
        MeixnerParams(1.5, 0.0)
    with pytest.raises(ZeroA, match="Charlier parameter a must be nonzero"):
        CharlierParams(0.0, 0.5)
    for cls, args in ((MeixnerParams, (1.5, 0.4)), (CharlierParams, (2.0,)),
                      (LaguerreParams, (0.5,)),
                      (MeixnerPollaczekParams, (0.75, 1.0))):
        with pytest.raises(ValueError, match=r"gamma must be >= 0, got -0\.1"):
            cls(*args, -0.1)
        with pytest.raises(ValueError, match="gamma must be a real number"):
            cls(*args, gamma=0.5j)
    for phi in (0.0, math.pi, -1.0):
        with pytest.raises(ValueError, match=r"phi must lie in \(0, pi\)"):
            MeixnerPollaczekParams(0.75, phi)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cls, args", [
    (MeixnerParams, (1.5, 0.4)), (CharlierParams, (2.0,)),
    (LaguerreParams, (0.5,)), (MeixnerPollaczekParams, (0.75, 1.0)),
], ids=["meixner", "charlier", "laguerre", "meixner-pollaczek"])
def test_non_finite_gamma_is_rejected(cls, args, gamma):
    # A NaN gamma would make every value from degree 1 on NaN.
    with pytest.raises(ValueError, match=f"gamma must be finite, got {gamma!r}"):
        cls(*args, gamma)


def test_gfspec_coerces_its_normalization_and_checks_truncation():
    family = MeixnerParams(1.5, 0.4)
    spec = GFSpec(family, 0.5, 0.1, "plain")
    assert spec.normalization is Normalization.PLAIN
    assert spec == GFSpec(family, 0.5, 0.1, Normalization.PLAIN)
    assert hash(spec) == hash(GFSpec(family, 0.5, 0.1, Normalization.PLAIN))
    with pytest.raises(ValueError, match="is not a valid Normalization"):
        GFSpec(family, 0.5, 0.1, "bogus")
    for n in (0, -3, 2.0, "60"):
        with pytest.raises(ValueError,
                           match="truncation_N must be an integer >= 1"):
            GFSpec(family, 0.5, 0.1, truncation_N=n)


@pytest.mark.parametrize("shifted, unshifted", [
    (MeixnerParams(1.5, 0.4, 0.7), MeixnerParams(1.5, 0.4)),
    (MeixnerParams(1.5, 0.4 + 0.1j, 0.7), MeixnerParams(1.5, 0.4 + 0.1j)),
    (CharlierParams(2.0, 0.5), CharlierParams(2.0)),
    (LaguerreParams(-0.5, 1.25), LaguerreParams(-0.5)),
    (MeixnerPollaczekParams(0.75, 1.0, 0.3), MeixnerPollaczekParams(0.75, 1.0)),
])
def test_classical_drops_only_the_shift(shifted, unshifted):
    result = classical(shifted)
    assert type(result) is type(unshifted)
    assert result == unshifted
    assert repr(result) == repr(unshifted)
    assert classical(unshifted) == unshifted
    assert shifted.gamma != 0.0
