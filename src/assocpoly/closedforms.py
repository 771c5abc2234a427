"""Closed-form representations of the index-shifted polynomial families.

Each function here evaluates one family by a route that is
mathematically independent of the three-term recurrence: finite double
sums whose inner factor is a terminating 4F3(1) or 3F2(1), quadratic
and cross-product combinations of Gauss 2F1 values, the complex
Meixner substitution giving the Meixner-Pollaczek family, and the
classical (gamma = 0) hypergeometric forms.

Two robustness policies apply throughout:

* Denominator rising factorials that vanish inside a summation range
  are rejected with :class:`~assocpoly.errors.DenominatorPole` rather
  than regularized; the affected parameter sets are measure-zero and a
  caller can perturb or switch representation.
* The alternating finite sums are evaluated in binary64 with
  compensated summation while tracking a condition estimate (largest
  intermediate magnitude over the final sum).  Most are Cauchy sums:
  the paper's double sums whose k-shifted inner parameters continue an
  outer Pochhammer symbol collapse, with m = k + j, to one sum
  ``sum_m T_m C_m`` whose C_m obey a first-order recurrence, so a
  degree costs O(n); the classical (gamma = 0) forms are Cauchy sums
  too.  The Charlier ``transformed`` and Laguerre ``rahman`` sums do not
  collapse and stay double sums, each inner terminating sum by the loop
  of :func:`~assocpoly.hyperkernel.hyp_terminating`.  When cancellation
  would destroy more digits than the target accuracy allows and every
  input is finite (and, for those two double sums, real), the same sum
  is re-evaluated from the rationals the inputs denote, Gaussian
  rationals for complex inputs, which is possible because every term of
  these sums is rational in the parameters.  The re-evaluation is
  certified fixed point (a Ziv loop): the sum runs on plain integers
  (pairs of them for complex values) at scale 2**p beside a rigorous
  integer bound on its error, and is accepted once both ends of that
  interval round to the same double in each component, which is then
  the exact value correctly rounded; otherwise p doubles.  After three
  passes (always for an exact zero component), or once an end of the
  interval lies beyond the binary64 range, the sum is done in exact
  arithmetic instead.  Either way the result is the exact value of the
  sum at the given inputs, each component rounded to binary64 once.

The module also carries the finite-sum hypergeometric identities that
underpin the quadratic representation, as report-producing checkers.
"""

from __future__ import annotations

import cmath
import enum
import math
from fractions import Fraction

from .errors import DenominatorPole, RestrictedParameter
from .hyperkernel import (
    Accumulator,
    _cancel,
    _check_nonneg_int,
    _pole,
    _terminating_sum,
    gauss_2f1,
    pochhammer,
)
from .recurrences import MeixnerParams, meixner_seq
from .report import make_report

__all__ = [
    "CharlierVariant",
    "LaguerreVariant",
    "meixner_4f3",
    "meixner_4f3_alt",
    "meixner_quadratic",
    "meixner_cross_2f1",
    "meixner_reflection_rhs",
    "charlier_3f2",
    "laguerre_3f2",
    "mp_from_meixner",
    "meixner_c1_degenerate",
    "meixner_classical",
    "charlier_classical",
    "laguerre_classical",
    "identity_4f3_finite_sum",
    "identity_3f2_pochhammer",
    "identity_3f2_t_powered",
    "identity_3f2_m_generalized",
]

_INT_TOL = 1e-8
# Escalate to exact rational arithmetic when the largest intermediate
# magnitude exceeds the final sum by this factor (binary64 then retains
# fewer than ~12 significant digits).
_ESCALATE_COND = 1e4


class CharlierVariant(enum.Enum):
    PRIMARY = "primary"
    TRANSFORMED = "transformed"


class LaguerreVariant(enum.Enum):
    PRIMARY = "primary"
    RAHMAN = "rahman"


def _near_int_in_range(w, lo, hi, tol=_INT_TOL):
    """Return the integer r in [lo, hi] that w approximates, else None."""
    if isinstance(w, complex):
        if abs(w.imag) > tol:
            return None
        w = w.real
    r = round(w)
    if abs(w - r) > tol or r < lo or r > hi:
        return None
    return int(r)


def _exactable(*vals):
    return all(
        isinstance(v, (int, Fraction))
        or (isinstance(v, (float, complex)) and cmath.isfinite(v))
        for v in vals
    )


# ---------------------------------------------------------------------------
# Summation engines: binary64 with condition tracking, certified fixed
# point for the ill-conditioned sums, and exact arithmetic as its fallback
# ---------------------------------------------------------------------------
#
# Every route sum but two is a Cauchy sum ``(n, t_nums, t_dens, s, d_nums,
# d_dens)``, worth ``S = sum_{m<=n} T_m C_m`` with
#   T_m = prod (t_nums)_m / prod (t_dens)_m,
#   C_m = s C_{m-1} + d_m,  C_{-1} = 0,
#   d_m = prod (d_nums)_m / (prod (d_dens)_m m!).
# The paper's double sums collapse to this form because each inner
# parameter that shifts with the outer index k continues an outer
# Pochhammer symbol: ``(-n)_k (k-n)_j = (-n)_{k+j}``, and likewise for the
# others, so with m = k + j the inner sums are one convolution C_m
# (W. Koepf, Hypergeometric Summation, 2nd ed., Springer 2014).  One
# degree then costs O(n) instead of O(n^2).
#
# The two sums that do not collapse (Charlier ``transformed``, Laguerre
# ``rahman``) stay double sums ``(n, outer_nums, outer_dens, outer_scale,
# inner)``.  Their outer coefficients are ``coef_0 = 1`` and
# ``coef_{k+1}/coef_k = outer_scale * prod(outer_nums + k) /
# prod(outer_dens + k)``.  ``inner = (nums, dens, arg, top)`` states the
# inner terminating sum at every outer step k at once: each parameter
# ``(b, s, o)`` is ``b + s*k + o`` with integers s and o (o is added last,
# so that a binary64 parameter rounds as its formula is written), the
# argument is ``arg`` and the last index is ``top(k)``.

# Fixed-point passes before the certified engines fall back to exact
# arithmetic; each doubles the precision of the one before.
_ZIV_ROUNDS = 3
# Cap on the condition estimate that sizes the first pass; the estimate
# is infinite when the binary64 sum is 0.
_PREC_COND_CAP = 2.0**64


class _Gaussian:
    """An exact Gaussian rational ``re + i*im`` with Fraction parts.

    It has the field operations the sum builders apply to their inputs,
    with ints and Fractions on either side.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def _parts(w):
        return (w.re, w.im) if isinstance(w, _Gaussian) else (w, 0)

    def __add__(self, w):
        re, im = self._parts(w)
        return _Gaussian(self.re + re, self.im + im)

    __radd__ = __add__

    def __neg__(self):
        return _Gaussian(-self.re, -self.im)

    def __sub__(self, w):
        return self + -w

    def __rsub__(self, w):
        return -self + w

    def __mul__(self, w):
        re, im = self._parts(w)
        return _Gaussian(self.re * re - self.im * im, self.re * im + self.im * re)

    __rmul__ = __mul__

    def __truediv__(self, w):
        re, im = self._parts(w)
        p = self * _Gaussian(re, -im)
        norm = re * re + im * im
        return _Gaussian(p.re / norm, p.im / norm)

    def __rtruediv__(self, w):
        return _Gaussian(w) / self

    def __eq__(self, w):
        return (self.re, self.im) == self._parts(w)

    def __abs__(self):
        return math.hypot(self.re, self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _exact(v):
    """The rational, or Gaussian rational, that a finite input denotes."""
    return _Gaussian(v.real, v.imag) if isinstance(v, complex) else Fraction(v)


def _rounded(t, e, prec):
    """The double both ends of ``[(t - e)/2**prec, (t + e)/2**prec]`` round to.

    Returns None when the ends differ in strict sign or round apart
    (int/int division is correctly rounded), and raises OverflowError
    when an end lies beyond the binary64 range.
    """
    if t - e > 0 or t + e < 0:
        scale = 1 << prec
        lo = (t - e) / scale
        if lo == (t + e) / scale:
            return lo
    return None


def _cauchy_sum(n, t_nums, t_dens, s, d_nums, d_dens):
    """The Cauchy sum ``sum_m T_m C_m``, compensated, with a condition estimate.

    Returns ``(value, condition_estimate)``; the condition is ``max_m
    |T_m| Ĉ_m`` over ``|value|``, where ``Ĉ_m = |s| Ĉ_{m-1} + |d_m|``
    bounds C_m and each of its terms.  On ints, Fractions and
    :class:`_Gaussian` values the same loop is exact.  As in a
    terminating sum, equal numerator and denominator parameters cancel,
    a zero numerator factor ends T (or d), and a zero denominator factor
    raises :class:`~assocpoly.errors.DenominatorPole` at its offset.
    """
    t_nums, t_dens = _cancel(t_nums, t_dens)
    d_nums, d_dens = _cancel(d_nums, d_dens)
    one = s * 0 + 1
    tm = dm = one
    cm = chat = total = comp = peak = 0
    abs_s = abs(s)
    for m in range(n + 1):
        if m:
            j = m - 1
            num = one
            for p in t_nums:
                num = num * (p + j)
            if num == 0:
                break
            den = one
            for q in t_dens:
                den = den * (q + j)
            if den == 0:
                raise _pole(j)
            tm = tm * num / den
            if dm != 0:
                num = one
                for p in d_nums:
                    num = num * (p + j)
                den = one * m
                for q in d_dens:
                    den = den * (q + j)
                if num == 0:
                    dm = num
                elif den == 0:
                    raise _pole(j)
                else:
                    dm = dm * num / den
        cm = s * cm + dm
        chat = abs_s * chat + abs(dm)
        y = tm * cm - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(tm) * chat
        if mag > peak:
            peak = mag
    mag = abs(total)
    return total, (peak / mag if mag > 0 else math.inf)


def _gaussian(value):
    """An exact value as integers ``(u, w, v)``, worth ``(u + i w)/v`` with v > 0."""
    if isinstance(value, _Gaussian):
        re, im = value.re, value.im
        v = math.lcm(re.denominator, im.denominator)
        return (re.numerator * (v // re.denominator),
                im.numerator * (v // im.denominator), v)
    return value.numerator, 0, value.denominator


def _scaled(xr, xi, e, ar, ai, br, bi):
    """``x * a / b`` for Gaussian integers, floored in each component.

    With ``a / b = c / q`` and q > 0 (``c = a conj(b)`` and ``q = |b|^2``,
    or ``c = ±a`` when b is real), a bound e on the error of each
    component of x becomes ``ceil(e (|Re c| + |Im c|) / q) + 1``.
    Returns ``(re, im, bound)``.
    """
    if bi:
        ar, ai, q = ar * br + ai * bi, ai * br - ar * bi, br * br + bi * bi
    elif br < 0:
        ar, ai, q = -ar, -ai, -br
    else:
        q = br
    return ((xr * ar - xi * ai) // q, (xr * ai + xi * ar) // q,
            1 - -e * (abs(ar) + abs(ai)) // q)


def _fixed_point_cauchy(prec, n, t_nums, t_dens, s, d_nums, d_dens):
    """One fixed-point pass of an exact Cauchy sum at scale ``2**prec``.

    Parameters, and s, are triples ``(u, w, v)`` from :func:`_gaussian`;
    a parameter is worth ``(u + j v + i w)/v`` at offset j.  The pass
    sums ``W_m = T_m C_m``, which steps as ``W_m = s (T_m/T_{m-1})
    W_{m-1} + V_m`` with ``V_m = T_m d_m``: each of W and V takes one
    exact ratio of Gaussian integers per step, so the error rules of
    :func:`_fixed_point_sum` apply, through :func:`_scaled`.  Returns
    integers ``(re, im, e)``, both components of ``2**prec * S`` within
    e of them.  Raises what :func:`_cauchy_sum` raises.
    """
    sr, si, sv = s
    tn = td = dn = dd = 1
    for _, _, v in t_dens:
        tn *= v
    for _, _, v in t_nums:
        td *= v
    for _, _, v in d_dens:
        dn *= v
    for _, _, v in d_nums:
        dd *= v
    wr = vr = re = 1 << prec
    wi = vi = im = ew = ev = err = 0
    live = True
    for j in range(n):
        ar, ai = tn, 0
        for u, w, v in t_nums:
            u += j * v
            ar, ai = ar * u - ai * w, ar * w + ai * u
        if not (ar or ai):
            break
        br, bi = td, 0
        for u, w, v in t_dens:
            u += j * v
            br, bi = br * u - bi * w, br * w + bi * u
        if not (br or bi):
            raise _pole(j)
        if live:
            cr, ci = ar * dn, ai * dn
            for u, w, v in d_nums:
                u += j * v
                cr, ci = cr * u - ci * w, cr * w + ci * u
            qr, qi = br * dd * (j + 1), bi * dd * (j + 1)
            for u, w, v in d_dens:
                u += j * v
                qr, qi = qr * u - qi * w, qr * w + qi * u
            if not (cr or ci):
                live = False
                vr = vi = ev = 0
            elif not (qr or qi):
                raise _pole(j)
            else:
                vr, vi, ev = _scaled(vr, vi, ev, cr, ci, qr, qi)
        wr, wi, ew = _scaled(wr, wi, ew, ar * sr - ai * si, ar * si + ai * sr,
                             br * sv, bi * sv)
        wr += vr
        wi += vi
        ew += ev
        re += wr
        im += wi
        err += ew
    return re, im, err


def _certified_cauchy_sum(n, t_nums, t_dens, s, d_nums, d_dens, prec):
    """The exact Cauchy sum rounded once, certified in fixed point (a Ziv loop).

    Takes the arguments of :func:`_cauchy_sum` as ints, Fractions or
    :class:`_Gaussian` values, and the precision of the first pass.
    Each component of a pass is certified as in
    :func:`_certified_double_sum`; when every value is real, the
    imaginary part is exactly 0 and is not certified.  After
    ``_ZIV_ROUNDS`` passes, an end beyond the binary64 range or an
    exact zero component, the loop of :func:`_cauchy_sum` runs exactly
    instead.  Returns a complex when any value is a :class:`_Gaussian`,
    else a float.
    """
    t_nums, t_dens = _cancel(t_nums, t_dens)
    d_nums, d_dens = _cancel(d_nums, d_dens)
    values = (s, *t_nums, *t_dens, *d_nums, *d_dens)
    gaussian = any(isinstance(w, _Gaussian) for w in values)
    real = not any(isinstance(w, _Gaussian) and w.im for w in values)
    tn, td, dn, dd = ([_gaussian(w) for w in group]
                      for group in (t_nums, t_dens, d_nums, d_dens))
    for _ in range(_ZIV_ROUNDS):
        re, im, e = _fixed_point_cauchy(prec, n, tn, td, _gaussian(s), dn, dd)
        try:
            value = _rounded(re, e, prec)
            if value is not None and not real:
                imag = _rounded(im, e, prec)
                value = None if imag is None else complex(value, imag)
        except OverflowError:
            break
        if value is not None:
            return complex(value) if gaussian else value
        prec *= 2
    total = _cauchy_sum(n, t_nums, t_dens, s, d_nums, d_dens)[0]
    return complex(total) if gaussian else float(total)


def _double_sum(n, outer_nums, outer_dens, outer_scale, inner):
    """sum_k coef_k * inner_k in compensated binary64, with a condition estimate.

    Returns ``(value, condition_estimate)`` where the condition is the
    peak intermediate magnitude over the final magnitude.
    """
    nums, dens, arg, top = inner
    one = outer_scale * 0 + 1
    total = comp = 0.0
    coef = one
    peak = 0.0
    for k in range(n + 1):
        if coef == 0:
            break
        inner_k, ipeak = _terminating_sum([b + s * k + o for b, s, o in nums],
                                          [b + s * k + o for b, s, o in dens],
                                          arg, top(k))
        y = coef * inner_k - comp
        t = total + y
        comp = (t - total) - y
        total = t
        peak = max(peak, abs(coef) * max(ipeak, abs(inner_k)))
        ratio = outer_scale
        for p in outer_nums:
            ratio = ratio * (p + k)
        for q in outer_dens:
            ratio = ratio / (q + k)
        coef = coef * ratio
    mag = abs(total)
    cond = peak / mag if mag > 0 else math.inf
    return total, cond


def _exact_hyp(nums, dens, arg, top):
    """Exact terminating sum of rational parameters, as a Fraction.

    Each parameter ``u/v`` enters as the integer pair ``(u, v)``, so the
    term ratio at offset j is ``a_j / b_j`` with ``a_j = an *
    prod(u + j v)`` and ``b_j = ad * (j+1) * prod(u' + j v')``.  The sum
    ``1 + r_0 (1 + r_1 (1 + ...))`` is folded backwards as one unreduced
    integer fraction ``N/D``, and reduced once at the end.
    """
    nums, dens = _cancel(_pairs(nums), _pairs(dens))
    an, ad = arg.numerator, arg.denominator
    for _, v in nums:
        ad *= v
    for _, v in dens:
        an *= v
    ratios = []
    for j in range(top):
        a = 1
        for u, v in nums:
            a *= u + j * v
        if a == 0:
            break
        b = j + 1
        for u, v in dens:
            b *= u + j * v
        if b == 0:
            raise _pole(j)
        ratios.append((an * a, ad * b))
    num, den = 1, 1
    for a, b in reversed(ratios):
        num, den = den * b + a * num, den * b
    return Fraction(num, den)


def _exact_double_sum(n, outer_nums, outer_dens, outer_scale, inner):
    """The double sum of :func:`_double_sum` in exact rationals.

    Takes the same arguments, with every parameter an int or a
    Fraction, and returns the Fraction value.
    """
    nums, dens, arg, top = inner
    total = 0
    coef = Fraction(1)
    for k in range(n + 1):
        if coef == 0:
            break
        total += coef * _exact_hyp([b + s * k + o for b, s, o in nums],
                                   [b + s * k + o for b, s, o in dens],
                                   arg, top(k))
        ratio = outer_scale
        for p in outer_nums:
            ratio = ratio * (p + k)
        for q in outer_dens:
            ratio = ratio / (q + k)
        coef = coef * ratio
    return total


def _pairs(values):
    """Each rational as its (numerator, denominator) in lowest terms."""
    return [(w.numerator, w.denominator) for w in values]


def _triples(params):
    """Inner parameters ``(b, s, o)`` as ``(u, v, s v)`` with ``u/v = b + o``."""
    return [(b.numerator + o * b.denominator, b.denominator, s * b.denominator)
            for b, s, o in params]


def _fixed_point_sum(prec, n, outer_nums, outer_dens, sn, sd, nums, dens,
                     an, ad, top):
    """One fixed-point pass of an exact double sum at scale ``2**prec``.

    Returns integers ``(t, e)`` with ``|t - 2**prec * S| <= e`` for the
    exact value S.  Outer parameters are pairs ``(u, v)``, worth ``(u +
    k v)/v`` at step k; inner parameters are triples ``(u, v, s v)``,
    worth ``(u + k s v)/v`` at step k, which is in lowest terms whenever
    ``u/v`` is, so equal parameters cancel exactly as in
    :func:`_exact_hyp`.  Raises what :func:`_exact_double_sum` raises.
    """
    for _, v in outer_dens:
        sn *= v
    for _, v in outer_nums:
        sd *= v
    # Every scaled quantity x carries a bound ex on its distance from
    # 2**prec times its exact value; one line per operation:
    #   x = 1 << prec          exact:                    ex = 0
    #   a, b = integer products exact:                   no error
    #   y = x * a // b         the error scales by |a/b| and the floor
    #                          division adds at most 1:  ey = ceil(ex |a/b|) + 1
    #   t = sum of terms       exact:                    e = sum of their bounds
    coef, ecoef = 1 << prec, 0
    total = err = 0
    for k in range(n + 1):
        knums, kdens = _cancel([(u + k * sv, v) for u, v, sv in nums],
                               [(u + k * sv, v) for u, v, sv in dens])
        a0, b0 = an, ad
        for _, v in knums:
            b0 *= v
        for _, v in kdens:
            a0 *= v
        term, e = coef, ecoef
        total += term
        err += e
        for j in range(top(k)):
            a = 1
            for u, v in knums:
                a *= u + j * v
            if a == 0:
                break
            b = j + 1
            for u, v in kdens:
                b *= u + j * v
            if b == 0:
                raise _pole(j)
            a *= a0
            b *= b0
            if b < 0:
                a, b = -a, -b
            term = term * a // b
            # With b > 0, -(-e |a| // b) is ceil(e |a| / b).
            e = 1 - -e * (a if a > 0 else -a) // b
            total += term
            err += e
        a, b = sn, sd
        for u, v in outer_nums:
            a *= u + k * v
        for u, v in outer_dens:
            b *= u + k * v
        if b == 0:
            raise ZeroDivisionError(
                f"outer denominator factor vanishes at step {k}")
        if a == 0:
            break
        if b < 0:
            a, b = -a, -b
        coef = coef * a // b
        ecoef = 1 - -ecoef * (a if a > 0 else -a) // b
    return total, err


def _certified_double_sum(n, outer_nums, outer_dens, outer_scale, inner, prec):
    """``float(_exact_double_sum(...))``, certified in fixed point (a Ziv loop).

    Takes the arguments of :func:`_exact_double_sum` and the precision
    of the first pass.  A pass at scale ``2**prec`` gives ``t`` and a
    bound ``e`` with the exact value in ``[(t - e)/2**prec, (t + e)/2**
    prec]``; when both ends have the same strict sign and round to the
    same double (int/int division is correctly rounded), that double is
    the exact value rounded.  Otherwise the precision doubles, and after
    ``_ZIV_ROUNDS`` passes, or an end beyond the binary64 range, the sum
    is re-done in exact rationals.  An exact zero always falls back.
    """
    nums, dens, arg, top = inner
    ints = (n, _pairs(outer_nums), _pairs(outer_dens),
            outer_scale.numerator, outer_scale.denominator,
            _triples(nums), _triples(dens), arg.numerator, arg.denominator,
            top)
    for _ in range(_ZIV_ROUNDS):
        t, e = _fixed_point_sum(prec, *ints)
        try:
            value = _rounded(t, e, prec)
        except OverflowError:
            break
        if value is not None:
            return value
        prec *= 2
    return float(_exact_double_sum(n, outer_nums, outer_dens, outer_scale, inner))


def _first_precision(total, cond):
    """Bits of the first certified pass for a binary64 estimate.

    It keeps 64 bits below the leading bit of the estimate, plus the bits
    the condition estimate says cancellation may have cost, plus 16.
    """
    return max(16, 80 - math.frexp(abs(total))[1]
               + math.ceil(math.log2(min(cond, _PREC_COND_CAP))))


def _resum(terms, n, inputs):
    """Binary64 value of the Cauchy sum ``terms(n, *inputs)``.

    ``terms`` builds the sum from the inputs in whichever field they
    live.  When the condition estimate exceeds ``_ESCALATE_COND`` and
    every input is finite, real or complex, the sum is re-evaluated from
    the exact (Gaussian) rationals the inputs denote by
    :func:`_certified_cauchy_sum`, which returns the exact value with
    each component rounded once.
    """
    total, cond = _cauchy_sum(*terms(n, *inputs))
    if cond > _ESCALATE_COND and _exactable(*inputs):
        total = _certified_cauchy_sum(*terms(n, *map(_exact, inputs)),
                                      _first_precision(total, cond))
    return total


def _resum_double(terms, n, inputs):
    """Binary64 value of the double sum ``terms(n, *inputs)``.

    As :func:`_resum`, through :func:`_double_sum` and
    :func:`_certified_double_sum`; only real inputs escalate.
    """
    total, cond = _double_sum(*terms(n, *inputs))
    if (cond > _ESCALATE_COND and _exactable(*inputs)
            and not isinstance(total, complex)):
        total = _certified_double_sum(*terms(n, *map(Fraction, inputs)),
                                      _first_precision(total, cond))
    return total


# The sums of the routes below; every parameter is built from the inputs
# by field operations, so the same function serves every engine.  A
# terminating hypergeometric sum is a Cauchy sum with ``d_nums = [0]``
# (so that C_m = s^m) and a 1 among ``t_dens`` for the m!.


def _meixner_4f3_sum(n, x, beta, c, gamma):
    gb = gamma + beta
    gbx = gb + x
    return n, [-n, gbx], [gamma + 1, gb], 1 - c, [gb - 1, gamma], [gbx]


def _meixner_4f3_alt_sum(n, x, beta, c, gamma):
    gb = gamma + beta
    gx = gamma - x
    return n, [-n, gx], [gamma + 1, gb], (c - 1) / c, [gb - 1, gamma], [gx]


def _charlier_sum(n, x, a, gamma):
    gx = gamma - x
    return n, [-n, gx], [gamma + 1], -1 / a, [gamma], [gx]


def _charlier_transformed_terms(n, x, a, gamma):
    gx = gamma - x
    one = (gamma * 0) + 1
    inner = ([(0, -1, 0), (gamma, 0, 0), (-n, 1, 0)],
             [(-n, 0, 0), (gx, 0, 0)], one, lambda k: min(k, n - k))
    return n, [-n, gx], [1], -(one / a), inner


def _laguerre_sum(n, x, alpha, gamma):
    ga = gamma + alpha
    return n, [-n], [gamma + 1, ga + 1], x, [ga, gamma], []


def _laguerre_rahman_terms(n, x, alpha, gamma):
    one = (gamma * 0) + 1
    inner = ([(-n, 1, 0), (1 - alpha, 1, 0), (gamma, 0, 0)],
             [(-alpha - n, 0, 0), (gamma, 1, 1)], one, lambda k: n - k)
    return n, [-n], [gamma + 1, alpha + 1], x, inner


def _finite_4f3_sum(n, a, b, t, y):
    return n, [-n, a + y], [a + 1, b + 1], t, [a, b], [a + y]


def _t_powered_sum(n, a, b, t):
    return n, [-n], [b + 1], t, [a, b], [a + 1]


def _m_generalized_sum(n, a, b, m):
    return n, [-n], [], a * 0, [a, b], [a + m, b + 1]


def _meixner_classical_sum(n, x, beta, c):
    return n, [-n, -x], [beta, 1], 1 - 1 / c, [0], []


def _charlier_classical_sum(n, x, a):
    return n, [-n, -x], [1], -1 / a, [0], []


def _laguerre_classical_sum(n, x, alpha):
    return n, [-n], [alpha + 1, 1], x, [0], []


# ---------------------------------------------------------------------------
# Meixner closed forms
# ---------------------------------------------------------------------------


def meixner_4f3(x, params, n):
    """Index-shifted Meixner value by the (1-c)-powered finite 4F3 double sum.

    ``M_n = c^{-n} (gamma+1)_n (gamma+beta)_n / n! *
    sum_k (1-c)^k (-n)_k (gamma+beta+x)_k / [(gamma+1)_k (gamma+beta)_k]
    * 4F3(k-n, gamma+beta+x+k, gamma+beta-1, gamma;
    gamma+beta+x, gamma+beta+k, gamma+1+k; 1)``.

    Parameters
    ----------
    x : float or complex
        Evaluation point.
    params : MeixnerParams
        Family parameters.
    n : int
        Degree.

    Returns
    -------
    float or complex
        Raises :class:`~assocpoly.errors.DenominatorPole` when
        ``gamma+beta+x`` or ``gamma+beta`` is within 1e-8 of an integer
        in ``[-(n-1), 0]`` (a denominator factor would vanish inside
        the summation range).
    """
    _check_nonneg_int(n, "n")
    beta, c, gamma = params.beta, params.c, params.gamma
    if n == 0:
        return 1.0
    for name, w in (("gamma+beta+x", gamma + beta + x), ("gamma+beta", gamma + beta)):
        if _near_int_in_range(w, -(n - 1), 0) is not None:
            raise DenominatorPole(
                f"{name} = {w!r} makes a denominator factor vanish for degree {n}"
            )
    total = _resum(_meixner_4f3_sum, n, (x, beta, c, gamma))
    pref = (
        c ** (-n) * pochhammer(gamma + 1.0, n) * pochhammer(gamma + beta, n)
        / math.factorial(n)
    )
    return pref * total


def meixner_4f3_alt(x, params, n):
    """Index-shifted Meixner value by the (c-1)/c-powered finite 4F3 double sum.

    ``M_n = (gamma+1)_n (gamma+beta)_n / n! *
    sum_k ((c-1)/c)^k (-n)_k (gamma-x)_k / [(gamma+1)_k (gamma+beta)_k]
    * 4F3(k-n, gamma-x+k, gamma+beta-1, gamma;
    gamma-x, gamma+beta+k, gamma+1+k; 1)``.

    Raises :class:`~assocpoly.errors.DenominatorPole` when ``x - gamma``
    is within 1e-8 of an integer in ``[0, n-1]`` or ``gamma + beta`` of
    an integer in ``[-(n-1), 0]``.
    """
    _check_nonneg_int(n, "n")
    beta, c, gamma = params.beta, params.c, params.gamma
    if n == 0:
        return 1.0
    if _near_int_in_range(x - gamma, 0, n - 1) is not None:
        raise DenominatorPole(
            f"x - gamma = {x - gamma!r} makes a denominator factor vanish "
            f"for degree {n}"
        )
    if _near_int_in_range(gamma + beta, -(n - 1), 0) is not None:
        raise DenominatorPole(
            f"gamma+beta = {gamma + beta!r} makes a denominator factor vanish "
            f"for degree {n}"
        )
    total = _resum(_meixner_4f3_alt_sum, n, (x, beta, c, gamma))
    pref = (
        pochhammer(gamma + 1.0, n) * pochhammer(gamma + beta, n) / math.factorial(n)
    )
    return pref * total


def meixner_quadratic(x, params, n):
    """Index-shifted Meixner value as a two-product quadratic 2F1 combination.

    ``(beta-1) M_n = (gamma+beta-1)_{n+1}
    2F1(x+1, gamma; 2-beta; ct) 2F1(-x, -n-gamma; beta; ct)
    - (gamma)_{n+1}
    2F1(x+beta, gamma+beta-1; beta; ct) 2F1(1-beta-x, 1-n-gamma-beta; 2-beta; ct)``
    with ``ct = (c-1)/c``.

    Raises :class:`~assocpoly.errors.RestrictedParameter` when ``beta``
    is within 1e-8 of a positive integer (the 2F1 parameter ``2-beta``
    degenerates and the prefactor ``1/(beta-1)`` can blow up), when
    ``gamma+beta`` is within 1e-8 of 1, or when ``gamma+beta <= 0``.
    """
    _check_nonneg_int(n, "n")
    beta, gamma = params.beta, params.gamma
    if _near_int_in_range(beta, 1, 10**9) is not None:
        raise RestrictedParameter(
            f"quadratic representation requires beta not a positive integer, "
            f"got beta={beta!r}"
        )
    if abs(gamma + beta - 1.0) < _INT_TOL or gamma + beta <= 0:
        raise RestrictedParameter(
            f"quadratic representation requires gamma+beta > 0 and != 1, "
            f"got gamma+beta={gamma + beta!r}"
        )
    ct = params.c_tilde
    coef1 = pochhammer(gamma + beta - 1.0, n + 1)
    if coef1 == 0:
        term1 = 0.0
    else:
        term1 = (
            coef1
            * gauss_2f1(x + 1.0, gamma, 2.0 - beta, ct).value
            * gauss_2f1(-x, -n - gamma, beta, ct).value
        )
    coef2 = pochhammer(gamma, n + 1)
    if coef2 == 0:
        term2 = 0.0
    else:
        term2 = (
            coef2
            * gauss_2f1(x + beta, gamma + beta - 1.0, beta, ct).value
            * gauss_2f1(
                1.0 - beta - x, 1.0 - n - gamma - beta, 2.0 - beta, ct
            ).value
        )
    return (term1 - term2) / (beta - 1.0)


def meixner_cross_2f1(x, params, n):
    """Index-shifted Meixner value as a cross product of 2F1 values at c.

    ``M_n = (1-c)^{1-beta} [ c^{-n} (gamma-x)_n F_{n+1}(c) G_0(c)
    - c (gamma)_{n+1} (gamma+beta-1)_{n+1} / (gamma-x-1)_{n+2}
    F_0(c) G_{n+1}(c) ]`` with
    ``F_m(c) = 2F1(x+1, 2-beta-gamma-m; 2+x-gamma-m; c)`` and
    ``G_m(c) = 2F1(gamma+m, 1-beta-x; gamma-x+m; c)``.

    Raises :class:`~assocpoly.errors.DenominatorPole` when ``x - gamma``
    is within 1e-8 of any integer: every integer offset makes a 2F1
    denominator parameter or the rising factorial
    ``(gamma-x-1)_{n+2}`` degenerate for some degree.
    """
    _check_nonneg_int(n, "n")
    beta, c, gamma = params.beta, params.c, params.gamma
    if _near_int_in_range(x - gamma, -(10**9), 10**9) is not None:
        raise DenominatorPole(
            f"x - gamma = {x - gamma!r} degenerates the cross-product "
            f"representation"
        )

    def f_part(m):
        return gauss_2f1(x + 1.0, 2.0 - beta - gamma - m, 2.0 + x - gamma - m, c)

    def g_part(m):
        return gauss_2f1(gamma + m, 1.0 - beta - x, gamma - x + m, c)

    term1 = c ** (-n) * pochhammer(gamma - x, n) * f_part(n + 1).value * g_part(0).value
    coef2 = pochhammer(gamma, n + 1) * pochhammer(gamma + beta - 1.0, n + 1)
    if coef2 == 0:
        term2 = 0.0
    else:
        term2 = (
            c
            * coef2
            / pochhammer(gamma - x - 1.0, n + 2)
            * f_part(0).value
            * g_part(n + 1).value
        )
    return (1.0 - c) ** (1.0 - beta) * (term1 - term2)


def meixner_reflection_rhs(x, params, n):
    """Right-hand side of the reflection identity for the Meixner family.

    ``M_n(x; beta, c, gamma) = c^{-n} M_n(-beta-x; beta, 1/c, gamma)``;
    this evaluates the right side by recurrence so it can be compared
    against a left side computed any other way.
    """
    _check_nonneg_int(n, "n")
    reflected = MeixnerParams(params.beta, 1.0 / params.c, params.gamma)
    seq = meixner_seq(-params.beta - x, reflected, n)
    return params.c ** (-n) * seq[n]


def meixner_c1_degenerate(beta, gamma, n):
    """Index-shifted Meixner value at the degenerate parameter c = 1.

    The value is independent of x:
    ``M_n = [(gamma+beta-1)_{n+1} - (gamma)_{n+1}] / (beta - 1)``.
    Raises :class:`~assocpoly.errors.RestrictedParameter` when ``beta``
    is within 1e-9 of 1.
    """
    _check_nonneg_int(n, "n")
    if abs(beta - 1.0) < 1e-9:
        raise RestrictedParameter("degenerate c=1 closed form requires beta != 1")
    return (pochhammer(gamma + beta - 1.0, n + 1) - pochhammer(gamma, n + 1)) / (
        beta - 1.0
    )


def meixner_classical(x, beta, c, n):
    """Classical Meixner polynomial (beta)_n 2F1(-n, -x; beta; 1 - 1/c)."""
    _check_nonneg_int(n, "n")
    return pochhammer(beta, n) * _resum(_meixner_classical_sum, n, (x, beta, c))


# ---------------------------------------------------------------------------
# Charlier closed forms
# ---------------------------------------------------------------------------


def charlier_3f2(x, params, n, variant=CharlierVariant.PRIMARY):
    """Index-shifted Charlier value by a finite 3F2 double sum.

    The primary variant is
    ``C_n = (gamma+1)_n / n! * sum_k (-a)^{-k} (-n)_k (gamma-x)_k /
    (gamma+1)_k * 3F2(k-n, gamma-x+k, gamma; gamma-x, gamma+k+1; 1)``;
    the transformed variant is
    ``C_n = sum_k (-a)^{-k} (-n)_k (gamma-x)_k / k! *
    3F2(-k, gamma, k-n; -n, gamma-x; 1)`` with the inner sum truncated
    at ``min(k, n-k)``.

    Parameters
    ----------
    variant : CharlierVariant or str
        ``"primary"`` or ``"transformed"``.

    Returns
    -------
    float or complex
        Raises :class:`~assocpoly.errors.DenominatorPole` when
        ``x - gamma`` is within 1e-8 of an integer inside the inner
        denominator range (``[0, n-1]`` for primary,
        ``[0, floor(n/2)-1]`` for transformed).
    """
    _check_nonneg_int(n, "n")
    variant = CharlierVariant(variant)
    a, gamma = params.a, params.gamma
    if n == 0:
        return 1.0
    if variant is CharlierVariant.PRIMARY:
        if _near_int_in_range(x - gamma, 0, n - 1) is not None:
            raise DenominatorPole(
                f"x - gamma = {x - gamma!r} makes a denominator factor vanish "
                f"for degree {n}"
            )
        total = _resum(_charlier_sum, n, (x, a, gamma))
        return pochhammer(gamma + 1.0, n) / math.factorial(n) * total
    upper = max(0, n // 2 - 1)
    if _near_int_in_range(x - gamma, 0, upper) is not None:
        raise DenominatorPole(
            f"x - gamma = {x - gamma!r} makes a denominator factor vanish "
            f"for degree {n} (transformed variant)"
        )
    return _resum_double(_charlier_transformed_terms, n, (x, a, gamma))


def charlier_classical(x, a, n):
    """Classical Charlier polynomial 2F0(-n, -x; ; -1/a)."""
    _check_nonneg_int(n, "n")
    return _resum(_charlier_classical_sum, n, (x, a))


# ---------------------------------------------------------------------------
# Laguerre closed forms
# ---------------------------------------------------------------------------


def laguerre_3f2(x, params, n, variant=LaguerreVariant.PRIMARY):
    """Index-shifted Laguerre value by a finite 3F2 double sum.

    The primary variant is
    ``L_n = (gamma+alpha+1)_n / n! * sum_k (-n)_k x^k /
    [(gamma+1)_k (gamma+alpha+1)_k] *
    3F2(k-n, gamma+alpha, gamma; gamma+alpha+k+1, gamma+1+k; 1)``;
    the second variant is
    ``L_n = (alpha+1)_n / n! * sum_k (-n)_k x^k /
    [(gamma+1)_k (alpha+1)_k] *
    3F2(k-n, 1-alpha+k, gamma; -alpha-n, gamma+k+1; 1)``,
    which carries the known restriction that ``alpha`` must not be an
    integer (raises :class:`~assocpoly.errors.RestrictedParameter`).

    Parameters
    ----------
    variant : LaguerreVariant or str
        ``"primary"`` or ``"rahman"``.
    """
    _check_nonneg_int(n, "n")
    variant = LaguerreVariant(variant)
    alpha, gamma = params.alpha, params.gamma
    if n == 0:
        return 1.0
    if variant is LaguerreVariant.PRIMARY:
        if _near_int_in_range(gamma + alpha + 1.0, -(n - 1), 0) is not None:
            raise DenominatorPole(
                f"gamma+alpha+1 = {gamma + alpha + 1.0!r} makes a denominator "
                f"factor vanish for degree {n}"
            )
        total = _resum(_laguerre_sum, n, (x, alpha, gamma))
        return pochhammer(gamma + alpha + 1.0, n) / math.factorial(n) * total
    if abs(alpha - round(alpha)) < _INT_TOL:
        raise RestrictedParameter(
            f"the second Laguerre 3F2 form requires non-integer alpha, "
            f"got alpha={alpha!r}"
        )
    total = _resum_double(_laguerre_rahman_terms, n, (x, alpha, gamma))
    return pochhammer(alpha + 1.0, n) / math.factorial(n) * total


def laguerre_classical(x, alpha, n):
    """Classical Laguerre polynomial (alpha+1)_n / n! 1F1(-n; alpha+1; x)."""
    _check_nonneg_int(n, "n")
    return (
        pochhammer(alpha + 1.0, n)
        / math.factorial(n)
        * _resum(_laguerre_classical_sum, n, (x, alpha))
    )


# ---------------------------------------------------------------------------
# Meixner-Pollaczek via the complex Meixner substitution
# ---------------------------------------------------------------------------


def mp_from_meixner(x, params, n):
    """Index-shifted Meixner-Pollaczek value via the complex Meixner connection.

    ``P_n(x) = exp(-i n phi) / (gamma+1)_n *
    M_n(i x - nu; 2 nu, exp(-2 i phi), gamma)`` where the Meixner value
    is computed by its recurrence with complex parameters.  For real
    ``x`` the imaginary part of the result is a rounding residual.
    """
    _check_nonneg_int(n, "n")
    nu, phi, gamma = params.nu, params.phi, params.gamma
    c = cmath.exp(-2.0j * phi)
    meix = MeixnerParams(2.0 * nu, c, gamma)
    seq = meixner_seq(1.0j * x - nu, meix, n)
    return cmath.exp(-1.0j * n * phi) / pochhammer(gamma + 1.0, n) * seq[n]


# ---------------------------------------------------------------------------
# Finite-sum hypergeometric identities
# ---------------------------------------------------------------------------


def identity_4f3_finite_sum(n, a, b, t, y, rel_tol=1e-9):
    """Check the t-powered finite 4F3 double sum against its 2F1 product form.

    Left side:
    ``sum_k t^k (-n)_k (a+y)_k / [(a+1)_k (b+1)_k] *
    4F3(k-n, a+y+k, a, b; a+y, b+1+k, a+1+k; 1)``.
    Right side:
    ``n!/(b-a) { b/(a+1)_n 2F1(1-y, a; a-b+1; t) 2F1(y, -n-a; b-a+1; t)
    - (1-t)^{n+1} a/(b+1)_n 2F1(1-y, n+a+1; a-b+1; t)
    2F1(y, 1-a; b-a+1; t) }``.

    Requires ``a > 0``, ``b > -1``, ``b != 0``, and ``b - a`` at least
    1e-8 away from every integer (otherwise
    :class:`~assocpoly.errors.RestrictedParameter` is raised); also
    rejects ``a + y`` within 1e-8 of an integer in ``[-(n-1), 0]``.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if not (a > 0 and b > -1) or abs(b) < _INT_TOL:
        raise RestrictedParameter(
            f"finite 4F3 sum identity requires a > 0, b > -1, b != 0; "
            f"got a={a!r}, b={b!r}"
        )
    if abs((b - a) - round(b - a)) < _INT_TOL:
        raise RestrictedParameter(
            f"finite 4F3 sum identity requires b - a away from the integers, "
            f"got b-a={b - a!r}"
        )
    if _near_int_in_range(a + y, -(n - 1), 0) is not None:
        raise RestrictedParameter(
            f"a + y = {a + y!r} makes a denominator factor vanish for degree {n}"
        )

    lhs = _resum(_finite_4f3_sum, n, (a, b, t, y))
    rhs = (
        math.factorial(n)
        / (b - a)
        * (
            b
            / pochhammer(a + 1.0, n)
            * gauss_2f1(1.0 - y, a, a - b + 1.0, t).value
            * gauss_2f1(y, -n - a, b - a + 1.0, t).value
            - (1.0 - t) ** (n + 1)
            * a
            / pochhammer(b + 1.0, n)
            * gauss_2f1(1.0 - y, n + a + 1.0, a - b + 1.0, t).value
            * gauss_2f1(y, 1.0 - a, b - a + 1.0, t).value
        )
    )
    point = {"n": n, "a": a, "b": b, "t": t, "y": y}
    return make_report("finite-sum-4f3", point, lhs, rhs, rel_tol)


def identity_3f2_pochhammer(n, a, b, rel_tol=1e-10):
    """Check 3F2(-n, a, b; a+1, b+1; 1) against its two-term pochhammer form.

    Right side: ``n!/(b-a) [ b/(a+1)_n - a/(b+1)_n ]``.  Requires
    ``|b - a| >= 1e-8`` and ``a+1``, ``b+1`` away from the nonpositive
    integers.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if abs(b - a) < _INT_TOL:
        raise RestrictedParameter("3F2 pochhammer identity requires a != b")
    for w in (a + 1.0, b + 1.0):
        if _near_int_in_range(w, -(10**9), 0) is not None:
            raise RestrictedParameter(
                f"3F2 pochhammer identity requires denominator parameter {w!r} "
                "away from the nonpositive integers"
            )
    lhs = _resum(_m_generalized_sum, n, (a, b, 1))
    rhs = (
        math.factorial(n)
        / (b - a)
        * (b / pochhammer(a + 1.0, n) - a / pochhammer(b + 1.0, n))
    )
    point = {"n": n, "a": a, "b": b}
    return make_report("3f2-pochhammer", point, lhs, rhs, rel_tol)


def identity_3f2_t_powered(n, a, b, t, rel_tol=1e-9):
    """Check the t-powered finite 3F2 double sum against its 2F1 product form.

    Left side: ``sum_k t^k (-n)_k / (b+1)_k *
    3F2(k-n, a, b; a+1, b+1+k; 1)``.
    Right side: ``n!/(b-a) { b/(a+1)_n 2F1(1, -n-a; b-a+1; t)
    - (1-t)^{n+1} a/(b+1)_n 2F1(1, 1-a; b-a+1; t) }``.

    Requires ``a != b`` and ``b - a`` away from the nonpositive
    integers (the 2F1 denominator parameter is ``b - a + 1``), plus
    ``a+1``, ``b+1`` away from the nonpositive integers.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if abs(b - a) < _INT_TOL or _near_int_in_range(b - a + 1.0, -(10**9), 0) is not None:
        raise RestrictedParameter(
            f"t-powered 3F2 identity requires b - a away from the nonpositive "
            f"integers, got b-a={b - a!r}"
        )
    for w in (a + 1.0, b + 1.0):
        if _near_int_in_range(w, -(10**9), 0) is not None:
            raise RestrictedParameter(
                f"t-powered 3F2 identity requires denominator parameter {w!r} "
                "away from the nonpositive integers"
            )
    lhs = _resum(_t_powered_sum, n, (a, b, t))
    rhs = (
        math.factorial(n)
        / (b - a)
        * (
            b
            / pochhammer(a + 1.0, n)
            * gauss_2f1(1.0, -n - a, b - a + 1.0, t).value
            - (1.0 - t) ** (n + 1)
            * a
            / pochhammer(b + 1.0, n)
            * gauss_2f1(1.0, 1.0 - a, b - a + 1.0, t).value
        )
    )
    point = {"n": n, "a": a, "b": b, "t": t}
    return make_report("3f2-t-powered", point, lhs, rhs, rel_tol)


def identity_3f2_m_generalized(n, a, b, m, rel_tol=1e-9):
    """Check 3F2(-n, a, b; a+m, b+1; 1) against its m-term product form.

    Right side: ``(a)_m / (a-b)_m { n!/(1+b)_n
    - (b/a) sum_{l=0}^{m-1} (a-b)_l (1+l)_n / [(1+a)_l (1+a+l)_n] }``
    for integer ``m >= 1``.

    Requires ``a > 0``, ``b`` away from the nonpositive integers, and
    ``(a-b)_m`` nonzero with ``|a - b| >= 1e-8``.

    Returns
    -------
    IdentityReport
    """
    _check_nonneg_int(n, "n")
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be an integer >= 1")
    if not a > 0:
        raise RestrictedParameter(
            f"m-generalized 3F2 identity requires a > 0, got {a!r}"
        )
    if _near_int_in_range(b + 1.0, -(10**9), 0) is not None or abs(b) < _INT_TOL:
        raise RestrictedParameter(
            f"m-generalized 3F2 identity requires b away from the nonpositive "
            f"integers, got b={b!r}"
        )
    if abs(b - a) < _INT_TOL or _near_int_in_range(a - b, -(m - 1), 0) is not None:
        raise RestrictedParameter(
            f"m-generalized 3F2 identity requires (a-b)_m nonzero, got a-b={a - b!r}"
        )
    lhs = _resum(_m_generalized_sum, n, (a, b, m))
    tail = Accumulator()
    for l in range(m):
        tail.add(
            pochhammer(a - b, l)
            * pochhammer(1.0 + l, n)
            / (pochhammer(1.0 + a, l) * pochhammer(1.0 + a + l, n))
        )
    rhs = (
        pochhammer(a, m)
        / pochhammer(a - b, m)
        * (math.factorial(n) / pochhammer(1.0 + b, n) - (b / a) * tail.value)
    )
    point = {"n": n, "a": a, "b": b, "m": m}
    return make_report("3f2-m-generalized", point, lhs, rhs, rel_tol)
