"""Scalar hypergeometric kernel.

Everything in the library reduces to the primitives collected here:
rising factorials, gamma-function quotients, terminating hypergeometric
sums, the Gauss 2F1 with a multi-route evaluation ladder, the confluent
1F1, the two-variable Appell F1 and Humbert Phi1 series, and a
tanh-sinh quadrature for Euler-type integrals over (0, 1).  All routines
accept real or complex scalars and keep real inputs real, and every sum
is compensated (Kahan): the alternating binary64 sums here lose digits
without it.

Two loops sum the infinite series.  ``_sum_series`` sums those of one
variable (2F1, 1F1 and the c = 1 reduction chain of
:mod:`assocpoly.genfuncs`), and ``_grouped_series`` sums F1 and Phi1 as
one series each over the total degree s of x^m y^n, with a condition
estimate.  Both stop at two consecutive terms below ``_REL_TOL`` times
the partial sum, and raise :class:`~assocpoly.errors.NotConverged`,
carrying the partial outcome, after ``_MAX_TERMS``.  The kernels take no
settings: they read these, ``_ONE_EXCLUSION``, ``_QUAD_TOL`` and
``_QUAD_LEVELS`` when they run.  ``gauss_2f1`` steps to z/(z-1), and
``humbert_phi1`` to x/(x-1) where that is smaller than an x beyond 1/2
or, for Re y < 0, at most 1/2.

One engine, ``_resum``, sums every terminating series: those of
``hyp_terminating``, the inner sums of the c = 1 chain and the route
sums of :mod:`assocpoly.closedforms`.  Each is an outer sum of Cauchy
sums ``sum_m T_m C_m``, C_m convolving a sequence d with a sequence e
(by default the powers of s, with which C_m steps in O(1)).  They run in
binary64 while tracking a condition estimate (largest intermediate
magnitude over the final sum).  Above ``_ESCALATE_COND``, with finite
inputs, the sum is re-evaluated from the rationals, or Gaussian
rationals, that the inputs denote, and so is the truncation of an F1 or
Phi1 whose estimate is that large: in certified fixed point, on
integers beside a rigorous bound on their error (a Ziv loop,
``_certified_cauchy_sum``), accepted once both ends of each component's
interval round to the same double, an exact zero included.  Exact
arithmetic remains for what fixed point cannot decide: an exact value
halfway between two doubles, an end beyond the binary64 range, or an
interval still too wide after ``_ZIV_ROUNDS`` passes.  An escalated
result is thus the exact sum at the given inputs, each component
rounded to binary64 once.  Over a range of
degrees of a lone Cauchy sum (``_resums``), the escalations share one
fixed-point pass.

Gamma functions are computed here in pure Python: ``math.lgamma`` for
real arguments and a Stirling series for complex ones, so no evaluation
loads scipy or numpy.
"""

from __future__ import annotations

import cmath
import math
import operator

from .errors import (
    DenominatorPole,
    DomainError,
    IllConditioned,
    NotConverged,
    PoleArgument,
    QuadratureNotConverged,
    Record,
    SingularIntegrand,
    _set_field,
)

_NONPOS_INT_TOL = 1e-9
_POLE_TOL = 1e-12
_NEAR_INT_TOL = 1e-6
_INT_TOL = 1e-8
_REL_TOL = 1e-14  # a series stops at two terms below this times its sum
_MAX_TERMS = 10000  # its terms before NotConverged
_ONE_EXCLUSION = 0.05  # gauss_2f1 refuses |1 - z| below it if Re(c-a-b) <= 0
_QUAD_TOL = 1e-13  # relative target of the tanh-sinh quadrature
_QUAD_LEVELS = 12  # its grid halvings before QuadratureNotConverged


class EvalOutcome(Record):
    """Value of a summation together with convergence metadata.

    Attributes
    ----------
    value : float or complex
        The computed value.
    converged : bool
        True when the stopping rule was met (or the result is exact).
    terms_used : int
        Number of terms (or quadrature nodes) consumed; for F1 and Phi1,
        the terms of each total degree s of x^m y^n.
    err_estimate : float
        An estimate, not a bound: for a series, the larger magnitude of
        its last two summed terms (for an escalated F1 or Phi1, the two
        below ``_CERT_TAIL`` times its sum); for ``euler_integral``, the
        difference between its last two levels; for the 2F1 connection
        formula, the sum of its two series' estimates, each scaled by its
        coefficient.  A prefactor scales the estimate with the value.  0.0
        for exact closed-form branches and series that ended exactly.
    """

    __slots__ = ("value", "converged", "terms_used", "err_estimate")

    def __init__(self, value, converged, terms_used, err_estimate):
        _set_field(self, "value", value)
        _set_field(self, "converged", converged)
        _set_field(self, "terms_used", terms_used)
        _set_field(self, "err_estimate", err_estimate)


class Accumulator:
    """Compensated (Kahan) scalar accumulator; works for real or complex."""

    __slots__ = ("value", "_comp")

    def __init__(self):
        self.value = 0.0
        self._comp = 0.0

    def add(self, term):
        y = term - self._comp
        t = self.value + y
        self._comp = (t - self.value) - y
        self.value = t


# ---------------------------------------------------------------------------
# Small scalar helpers
# ---------------------------------------------------------------------------


def _power(base, exponent):
    # Python itself promotes negative-real ** fractional to complex,
    # but (0.0)**negative raises; route through cmath only when needed.
    if isinstance(base, complex) or isinstance(exponent, complex):
        return complex(base) ** complex(exponent)
    return base ** exponent


def _exp(z):
    return cmath.exp(z) if isinstance(z, complex) else math.exp(z)


def _real(z):
    return z.real if isinstance(z, complex) else z


def _near_int_in_range(w, lo, hi, tol=_INT_TOL):
    """Return the integer r in [lo, hi] that w is within tol of, else None.

    A complex w also needs its imaginary part within tol of 0.
    """
    if isinstance(w, complex):
        if abs(w.imag) > tol:
            return None
        w = w.real
    r = round(w)
    if abs(w - r) > tol or r < lo or r > hi:
        return None
    return int(r)


def _close(u, v):
    return abs(u - v) <= 1e-12


def _check_denominator(kind, name, value):
    """Raise PoleArgument when the denominator parameter ``name`` of the
    ``kind`` series is a gamma pole: within _POLE_TOL of 0, -1, -2, ..."""
    if _near_int_in_range(value, -math.inf, 0, _POLE_TOL) is not None:
        raise PoleArgument(
            f"{kind} denominator parameter {name}={value!r} is a gamma pole")


def _check_nonneg_int(value, name):
    if not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer")


# ---------------------------------------------------------------------------
# Rising factorials and gamma ratios
# ---------------------------------------------------------------------------


def pochhammer(a, k):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1) for integer k >= 0.

    Parameters
    ----------
    a : float or complex
        Base of the rising factorial.
    k : int
        Nonnegative number of factors.

    Returns
    -------
    float or complex
        The product, multiplied left to right; real input gives real
        output.  ``OverflowError`` is raised as soon as the product is
        not finite (an inf or NaN, a NaN base included) and no factor
        has been zero.
    """
    _check_nonneg_int(k, "k")
    return _rising(a, 1.0, 0, k)


def _rising(a, value, j, k):
    """``pochhammer(a, k)`` from ``value = pochhammer(a, j)``, for j <= k.

    The factors are multiplied left to right and a zero product is kept
    as it is, so a chain of calls gives pochhammer's bits at every k.
    """
    for j in range(j, k):
        if value == 0:
            break
        value = value * (a + j)
    mag = abs(value)
    if math.isinf(mag) or math.isnan(mag):
        raise OverflowError(f"pochhammer({a!r}, {k}) exceeds binary64 range")
    return value


class _Rising:
    """``pochhammer(a, k)`` at nondecreasing k, each call continuing the
    product of the one before."""

    __slots__ = ("a", "k", "value")

    def __init__(self, a):
        self.a, self.k, self.value = a, 0, 1.0

    def __call__(self, k):
        self.value = _rising(self.a, self.value, self.k, k)
        self.k = k
        return self.value


# Stirling-series coefficients B_2k / (2k (2k - 1)) for k = 8, ..., 1.
_STIRLING = (-3617.0 / 122400.0, 1.0 / 156.0, -691.0 / 360360.0,
             1.0 / 1188.0, -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0,
             1.0 / 12.0)
_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma(w):
    """A logarithm of Gamma(w) off the poles, and the sign it leaves out.

    Real ``w`` gives ``(log|Gamma(w)|, sign of Gamma(w))``.  Complex ``w``
    gives ``(log Gamma(w), 1.0)`` with the imaginary part fixed only modulo
    2*pi, which is all that a caller exponentiating it needs.
    """
    if not isinstance(w, complex):
        sign = -1.0 if w < 0 and math.floor(w) % 2 else 1.0
        return math.lgamma(w), sign
    if w.real < 0.5:
        # Reflection Gamma(w) Gamma(1-w) = pi / sin(pi w), with the nearest
        # integer k taken out of Re(w) exactly: sin(pi w) = (-1)^k sin(pi (w-k)).
        k = round(w.real)
        sine = cmath.sin(math.pi * (w - k))
        if k % 2:
            sine = -sine
        return _LOG_PI - cmath.log(sine) - _log_gamma(1.0 - w)[0], 1.0
    # Shift to |w| >= 8 by Gamma(w) = Gamma(w + m) / (w (w+1) ... (w+m-1)),
    # where the series below is accurate to about 1e-16.
    shift = 1.0
    if abs(w.imag) < 8.0:
        while w.real < 8.0:
            shift *= w
            w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    series = 0.0
    for coef in _STIRLING:
        series = series * inv2 + coef
    return ((w - 0.5) * cmath.log(w) - w + _HALF_LOG_2PI + series * inv
            - cmath.log(shift)), 1.0


def gamma_value(w):
    """Gamma(w) with an explicit pole error at nonpositive integers."""
    if _near_int_in_range(w, -math.inf, 0, _POLE_TOL) is not None:
        raise PoleArgument(f"gamma pole at {w!r}")
    if isinstance(w, complex):
        return cmath.exp(_log_gamma(w)[0])
    return math.gamma(w)


def _gamma_quotient(numerators, denominators):
    """prod Gamma(n_i) / prod Gamma(d_j) with pole handling.

    A pole in a numerator raises PoleArgument; a pole in a denominator
    makes the whole quotient exactly zero (reciprocal gamma is entire).
    """
    for w in numerators:
        if _near_int_in_range(w, -math.inf, 0, _POLE_TOL) is not None:
            raise PoleArgument(f"gamma pole at {w!r}")
    for w in denominators:
        if _near_int_in_range(w, -math.inf, 0, _POLE_TOL) is not None:
            return 0.0
    log_mag = 0.0
    sign = 1.0
    for w in numerators:
        part, part_sign = _log_gamma(w)
        log_mag += part
        sign *= part_sign
    for w in denominators:
        part, part_sign = _log_gamma(w)
        log_mag -= part
        sign *= part_sign
    return sign * _exp(log_mag)


# ---------------------------------------------------------------------------
# Terminating hypergeometric sums: binary64 with condition tracking,
# certified fixed point for the ill-conditioned sums, and exact arithmetic
# as its fallback
# ---------------------------------------------------------------------------
#
# Every terminating sum is a route sum ``(n, outer_nums, outer_dens,
# outer_scale, inner)``, worth ``S = sum_{k<=n} coef_k S_k``.  The outer
# coefficients are ``coef_0 = 1`` and ``coef_{k+1}/coef_k = outer_scale *
# prod(outer_nums + k) / prod(outer_dens + k)``, and ``S_k`` is the Cauchy
# sum ``inner(k) = (top, t_nums, t_dens, s, d_nums, d_dens)``, worth
# ``sum_{m<=top} T_m C_m`` with
#   T_m = prod (t_nums)_m / prod (t_dens)_m,
#   C_m = sum_{k<=m} e_k d_{m-k},
#   d_m = r^m prod (d_nums)_m / (prod (d_dens)_m m!),
#   e_k = s^k prod (e_nums)_k / prod (e_dens)_k.
# ``inner(k)`` may end with ``(e_nums, e_dens)`` and then r (else 1);
# without them e_k = s^k, and C_m = s C_{m-1} + d_m costs O(1) a step
# instead of O(m).
# A terminating hypergeometric sum at argument z, such as the sum of
# ``hyp_terminating`` or an inner 3F2(1) of a closedforms double sum, is a
# lone Cauchy sum (n = 0) with s = z, ``d_nums = [0]`` (so that C_m = z^m)
# and a 1 among ``t_dens`` for the m!.


def _cancel(nums, dens):
    """Drop each denominator parameter that equals a numerator parameter.

    Returns the inputs themselves when no parameter cancels.
    """
    for d in dens:
        if d in nums:
            break
    else:
        return nums, dens
    nums = list(nums)
    remaining = []
    for d in dens:
        if d in nums:
            nums.remove(d)
        else:
            remaining.append(d)
    return nums, remaining


def _pole(j):
    return DenominatorPole(
        f"denominator factor vanishes at offset {j} in terminating sum"
    )


# Escalate to exact rational arithmetic when the largest intermediate
# magnitude exceeds the final sum by this factor (binary64 then retains
# fewer than ~12 significant digits).
_ESCALATE_COND = 1e4
# Fixed-point passes before the certified engine falls back to exact
# arithmetic; each has at least twice the precision of the one before.
_ZIV_ROUNDS = 3
# Cap on the condition estimate that sizes the first pass; the estimate
# is infinite when the binary64 sum is 0.
_PREC_COND_CAP = 2.0**64


def Fraction(*args):
    """``fractions.Fraction``, imported on its first call.

    Only exact arithmetic needs :mod:`fractions`, which loads
    :mod:`decimal` and :mod:`numbers` too, so a process that never
    escalates does not import it: the first call rebinds this name to
    the class.
    """
    global Fraction
    from fractions import Fraction
    return Fraction(*args)


def _exactable(*vals):
    """True when every input is exact (an int or a Fraction, which have a
    denominator) or a finite float or complex."""
    return all(
        cmath.isfinite(v) if isinstance(v, (float, complex))
        else hasattr(v, "denominator")
        for v in vals
    )


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

    An interval that reaches 0 gives 0.0 when both of its ends round to
    zero, that is when ``|t| + e <= 2**(prec - 1075)``.  An exact zero is
    thus certified as +0.0, and so is a negative value above -2**-1075,
    whose correct rounding would be -0.0.  Returns None when the ends
    round apart (int/int division is correctly rounded), and raises
    OverflowError when an end of an interval that does not reach 0 lies
    beyond the binary64 range.
    """
    scale = 1 << prec
    if t - e > 0 or t + e < 0:
        lo = (t - e) / scale
        if lo == (t + e) / scale:
            return lo
    elif abs(t) + e <= scale >> 1075:
        return 0.0
    return None


def _cauchy(*spec):
    """A lone Cauchy sum as a route sum: the outer sum of degree 0."""
    return 0, (), (), 1, lambda k: spec


def _cauchy_sum(n, t_nums, t_dens, s, d_nums, d_dens, e_nums=(), e_dens=(), r=1):
    """The Cauchy sum ``sum_m T_m C_m``, compensated, with its peak.

    Returns ``(value, peak)``; the peak is ``max_m |T_m| Ĉ_m``, where
    ``Ĉ_m = sum_k |e_k| |d_{m-k}|`` bounds C_m and each of its terms.
    With no ``e_nums`` and ``e_dens``, e_k = s^k and C_m steps as ``s
    C_{m-1} + d_m``; otherwise each C_m is the convolution of the two
    sequences kept so far.  On ints, Fractions and :class:`_Gaussian`
    values the same loop is exact.  As in a terminating sum, equal
    numerator and denominator parameters cancel, a zero numerator factor
    ends T (or d, or e), and a zero denominator factor raises
    :class:`~assocpoly.errors.DenominatorPole` at its offset.
    """
    t_nums, t_dens = _cancel(t_nums, t_dens)
    d_nums, d_dens = _cancel(d_nums, d_dens)
    e_nums, e_dens = _cancel(e_nums, e_dens)
    convolved = e_nums or e_dens
    one = s * 0 + 1
    tm = dm = em = one
    r = one * r
    cm = chat = total = comp = peak = 0
    abs_s = abs(s)
    es, ds, abs_es, abs_ds = [], [], [], []
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
                num = r
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
            if em != 0 and convolved:
                num, den = s, one
                for p in e_nums:
                    num = num * (p + j)
                for q in e_dens:
                    den = den * (q + j)
                if num == 0:
                    em = num
                elif den == 0:
                    raise _pole(j)
                else:
                    em = em * num / den
        if convolved:
            es.append(em)
            ds.append(dm)
            abs_es.append(abs(em))
            abs_ds.append(abs(dm))
            cm = sum(map(operator.mul, es, reversed(ds)))
            chat = sum(map(operator.mul, abs_es, reversed(abs_ds)))
        else:
            cm = s * cm + dm
            chat = abs_s * chat + abs(dm)
        y = tm * cm - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(tm) * chat
        if mag > peak:
            peak = mag
    return total, peak


def _sum(n, outer_nums, outer_dens, outer_scale, inner):
    """A route sum, compensated, with a condition estimate.

    Returns ``(value, condition_estimate)``; the condition is ``max_k
    |coef_k| max(peak_k, |S_k|)`` over ``|value|``, with ``peak_k`` the
    peak of :func:`_cauchy_sum` for S_k.  On ints, Fractions and
    :class:`_Gaussian` values the same loop is exact.  Raises what
    :func:`_cauchy_sum` raises, and ZeroDivisionError when an outer
    denominator factor vanishes.
    """
    total, peak = _cauchy_sum(*inner(0))
    peak = max(peak, abs(total))
    coef, comp = 1, 0
    for k in range(n):
        ratio = outer_scale
        for p in outer_nums:
            ratio = ratio * (p + k)
        for q in outer_dens:
            ratio = ratio / (q + k)
        coef = coef * ratio
        if coef == 0:
            break
        value, inner_peak = _cauchy_sum(*inner(k + 1))
        y = coef * value - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(coef) * max(inner_peak, abs(value))
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


def _ratio(nums, dens, j, ar=1, ai=0, br=1, bi=0):
    """Gaussian integers ``(ar, ai, br, bi)`` whose quotient ``(ar + i ai) /
    (br + i bi)`` is the start's quotient times ``prod (p + j) / prod (q +
    j)`` over the triples of :func:`_gaussian`."""
    for u, w, v in nums:
        u += j * v
        ar, ai, br, bi = ar * u - ai * w, ar * w + ai * u, br * v, bi * v
    for u, w, v in dens:
        u += j * v
        ar, ai, br, bi = ar * v, ai * v, br * u - bi * w, br * w + bi * u
    return ar, ai, br, bi


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


def _fixed_point_cauchy(re, im, e, *spec):
    """One fixed-point pass of an exact Cauchy sum, from a scaled start value.

    The start ``(re, im)`` holds both components of ``2**prec * c`` for a
    coefficient c, each within e; the integers ``(re, im, e)`` returned
    hold ``2**prec * c * S`` alike.  ``spec`` holds the arguments of
    :func:`_cauchy_sum`, as for :func:`_fixed_point_terms`, and the pass
    adds up the terms that it yields, or, when the spec convolves C_m
    with e, runs :func:`assocpoly.convolution.fixed_point_convolution`
    (imported on its first call, so that a process that never escalates
    such a sum does not compile it).  Raises what :func:`_cauchy_sum`
    raises.
    """
    if len(spec) > 6:
        from .convolution import fixed_point_convolution
        return fixed_point_convolution(re, im, e, *spec)
    tr = ti = err = 0
    for wr, wi, ew in _fixed_point_terms(re, im, e, *spec):
        tr += wr
        ti += wi
        err += ew
    return tr, ti, err


def _fixed_point_terms(wr, wi, ew, n, t_nums, t_dens, s, d_nums, d_dens):
    """The scaled terms of a Cauchy sum, each beside its error bound.

    The start ``(wr, wi)`` holds both components of ``2**prec * c`` for
    a coefficient c, each within ew.  The other arguments are those of
    :func:`_cauchy_sum` as ints, Fractions or :class:`_Gaussian` values;
    each parameter, and s, enters as a triple ``(u, w, v)`` from
    :func:`_gaussian`, worth ``(u + j v + i w)/v`` at offset j.  Yields
    integers ``(wr, wi, ew)`` holding ``W_m = 2**prec c T_m C_m`` for m
    = 0, 1, ..., n, up to the first zero factor of T.  W steps as ``W_m =
    s (T_m/T_{m-1}) W_{m-1} + V_m`` with ``V_m = c T_m d_m``: each of W
    and V takes one exact ratio of Gaussian integers per step, from
    :func:`_ratio`, through :func:`_scaled`.  Raises what
    :func:`_cauchy_sum` raises, once the terms before the pole are
    yielded.
    """
    # Triples in lowest terms are equal exactly when their values are, so
    # they cancel as the values do.
    t_nums, t_dens, d_nums, d_dens = ([_gaussian(w) for w in group]
                                      for group in (t_nums, t_dens, d_nums, d_dens))
    t_nums, t_dens = _cancel(t_nums, t_dens)
    d_nums, d_dens = _cancel(d_nums, d_dens)
    sr, si, sv = _gaussian(s)
    vr, vi, ev = wr, wi, ew
    live = True
    yield wr, wi, ew
    for j in range(n):
        ar, ai, br, bi = _ratio(t_nums, t_dens, j)
        if not (ar or ai):
            break
        if not (br or bi):
            raise _pole(j)
        if live:
            # V's ratio is T's times d_m/d_{m-1}, which carries 1/m.
            cr, ci, qr, qi = _ratio(d_nums, d_dens, j, ar, ai,
                                    br * (j + 1), bi * (j + 1))
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
        yield wr, wi, ew


def _fixed_point(prec, n, outer_nums, outer_dens, outer_scale, inner):
    """One fixed-point pass of an exact route sum at scale ``2**prec``.

    Takes the arguments of :func:`_sum` as exact values.  coef_k runs as
    a Gaussian integer beside its error bound, through :func:`_scaled`,
    and starts the pass of :func:`_fixed_point_cauchy` for S_k.  Returns
    integers ``(re, im, e)``, both components of ``2**prec * S`` within e
    of them.  Raises what :func:`_sum` raises.
    """
    # Every scaled quantity x carries a bound ex on its distance from
    # 2**prec times its exact value; one line per operation:
    #   x = 1 << prec          exact:                    ex = 0
    #   a, b = integer products exact:                   no error
    #   y = x * a // b         the error scales by |a/b| and the floor
    #                          division adds at most 1:  ey = ceil(ex |a/b|) + 1
    #   t = sum of terms       exact:                    e = sum of their bounds
    sr, si, sv = _gaussian(outer_scale)
    nums = [_gaussian(w) for w in outer_nums]
    dens = [_gaussian(w) for w in outer_dens]
    cr, ci, ec = 1 << prec, 0, 0
    re, im, err = _fixed_point_cauchy(cr, ci, ec, *inner(0))
    for k in range(n):
        # The scale starts the ratio, so that a zero scale ends the sum
        # as it ends :func:`_sum`.
        ar, ai, br, bi = _ratio(nums, dens, k, sr, si, sv)
        if not (br or bi):
            raise ZeroDivisionError(
                f"outer denominator factor vanishes at step {k}")
        if not (ar or ai):
            break
        cr, ci, ec = _scaled(cr, ci, ec, ar, ai, br, bi)
        r, i, e = _fixed_point_cauchy(cr, ci, ec, *inner(k + 1))
        re += r
        im += i
        err += e
    return re, im, err


def _certified_cauchy_sum(spec, prec, gaussian, real):
    """The exact route sum ``spec`` rounded once, certified in fixed point.

    A Ziv loop: ``spec`` is built from exact values, ``prec`` is the
    precision of the first pass, and ``gaussian`` and ``real`` say
    whether an input is complex and whether every input has a zero
    imaginary part.  A pass at scale ``2**prec`` gives integers t and e
    with each component of the exact value in ``[(t - e)/2**prec, (t +
    e)/2**prec]``; when both ends have the same strict sign and round to
    the same double (int/int division is correctly rounded), that double
    is the exact component rounded, and when both ends of an interval
    that reaches 0 round to zero, 0.0 is (:func:`_rounded`).  When
    ``real``, the imaginary part is exactly 0 and is not certified.  A
    pass that certifies no value sizes the next by
    :func:`_next_precision`, from the smaller component.  The loop of
    :func:`_sum` runs exactly instead for what fixed point cannot decide:
    an exact value halfway between two doubles, an end beyond the
    binary64 range, or any interval still undecided after
    ``_ZIV_ROUNDS`` passes.  Returns a complex when ``gaussian``,
    else a float.
    """
    for _ in range(_ZIV_ROUNDS):
        re, im, e = _fixed_point(prec, *spec)
        try:
            value = _certified(re, im, e, prec, real)
        except OverflowError:
            break
        if value is not None:
            return complex(value) if gaussian else value
        prec = _next_precision(prec, re if real else min(re, im, key=abs), e)
    total = _sum(*spec)[0]
    return complex(total) if gaussian else float(total)


def _certified(re, im, e, prec, real):
    """The double, or complex, that both ends of each component's interval
    round to, as :func:`_rounded` gives it; None when they round apart.

    When ``real``, the imaginary part is exactly 0 and is not certified.
    """
    value = _rounded(re, e, prec)
    if value is not None and not real:
        imag = _rounded(im, e, prec)
        value = None if imag is None else complex(value, imag)
    return value


def _next_precision(prec, t, e):
    """Bits of the pass after one at ``prec`` whose component t, within e,
    did not give one double.

    The next pass has about the same error in units of its scale, so it
    takes the bits by which e exceeds the least magnitude the interval
    allows, plus 56.  An interval that reaches 0 may hold an exact zero,
    which only the zero rule of :func:`_rounded` certifies, so the next
    pass takes the bits that bring e below 2**-1075 with 5 to spare.
    Never fewer than twice ``prec``.
    """
    if abs(t) <= e:
        return max(2 * prec, 1080 + e.bit_length())
    return max(2 * prec,
               prec + e.bit_length() - (abs(t) - e).bit_length() + 56)


def _first_precision(total, cond):
    """Bits of the first certified pass for a binary64 estimate.

    It keeps 64 bits below the leading bit of the estimate, plus the bits
    the condition estimate says cancellation may have cost, plus 16.
    """
    return max(16, 80 - math.frexp(abs(total))[1]
               + math.ceil(math.log2(min(cond, _PREC_COND_CAP))))


def _resum(terms, n, inputs):
    """Binary64 value of the route sum ``terms(n, *inputs)``.

    ``terms`` builds the sum from the inputs in whichever field they
    live.  When the condition estimate exceeds ``_ESCALATE_COND`` and
    every input is finite, real or complex, the sum is re-evaluated from
    the exact (Gaussian) rationals the inputs denote by
    :func:`_certified_cauchy_sum`, which returns the exact value with
    each component rounded once.
    """
    return _resums(terms, inputs, n)(n)


# Bits that the shared pass of :func:`_resums` keeps beyond what the
# degree that builds it needs, for the later degrees, whose sums cancel
# more.
_SHARED_BITS = 128


def _resums(terms, inputs, hi):
    """``n -> _resum(terms, n, inputs)`` for nondecreasing degrees n <= hi,
    with the same bits, the escalations sharing one fixed-point pass.

    For n < hi, ``terms(n, ...)`` must be a lone Cauchy sum (outer degree
    0) whose first numerator of T is ``-n``.  Then ``S_n = sum_m (-n)_m
    Q_m``, and the exact ``Q_m = T_m C_m / (-n)_m`` do not depend on n.
    The binary64 sum and the escalation decision stay per degree.  A
    degree n needs its first precision plus the bits of n!, by which
    ``(-n)_m`` can magnify the error of a late step.  The first degree
    below hi that escalates runs one pass of :func:`_fixed_point_terms`
    for the ``Q_m`` up to hi, at what it needs plus ``_SHARED_BITS``, and
    a later degree below hi that needs more runs a new one, at twice the
    bits of the last at least.  Each
    escalating degree then sums ``(-n)_m Q_m`` in integers, beside the
    bound ``sum |(-n)_m| e_m``; when that interval does not give one
    double (or when the pass stopped at a pole before m = n), the degree
    runs :func:`_certified_cauchy_sum` alone.  Both give the exact value
    rounded once.
    """
    shared = None

    def resum(n):
        nonlocal shared
        total, cond = _sum(*terms(n, *inputs))
        if not (cond > _ESCALATE_COND and _exactable(*inputs)):
            return total
        prec = _first_precision(total, cond)
        gaussian = any(isinstance(v, complex) for v in inputs)
        real = all(v.imag == 0 for v in inputs)
        need = prec + math.factorial(n).bit_length()
        if n < hi and (shared is None or shared[0] < need):
            bits = max(need + _SHARED_BITS, 2 * shared[0] if shared else 0)
            shared = _shared_pass(bits, terms(hi, *map(_exact, inputs)))
        value = None if shared is None else _shared_value(*shared, n, real)
        if value is None:
            return _certified_cauchy_sum(
                terms(n, *map(_exact, inputs)), prec, gaussian, real)
        return complex(value) if gaussian else value

    return resum


def _shared_pass(prec, spec):
    """``(prec, terms, complete)`` of the lone Cauchy sum ``spec`` of degree
    hi without its ``-hi`` numerator: ``terms`` lists the
    :func:`_fixed_point_terms` of ``Q_m`` at scale ``2**prec``, and
    ``complete`` is False when a pole stopped them."""
    hi, t_nums, *rest = spec[4](0)
    terms = []
    try:
        for term in _fixed_point_terms(1 << prec, 0, 0, hi, t_nums[1:], *rest):
            terms.append(term)
    except DenominatorPole:
        return prec, terms, False
    return prec, terms, True


def _shared_value(prec, terms, complete, n, real):
    """The certified ``S_n = sum_m (-n)_m Q_m`` of a :func:`_shared_pass`,
    or None."""
    if len(terms) <= n and not complete:
        return None
    tr = ti = e = 0
    r = 1  # (-n)_m
    for m, (wr, wi, ew) in zip(range(n + 1), terms):
        tr += r * wr
        ti += r * wi
        e += abs(r) * ew
        r *= m - n
    try:
        return _certified(tr, ti, e, prec, real)
    except OverflowError:
        return None


def hyp_terminating(num_params, den_params, arg, top_index):
    """Finite hypergeometric sum sum_{j=0}^{top_index} term_j.

    ``term_j = prod (n_i)_j / prod (d_i)_j * arg^j / j!`` with the
    convention that a numerator factor hitting exactly zero terminates
    the sum (all later terms vanish), while a denominator factor
    hitting zero raises :class:`~assocpoly.errors.DenominatorPole`.
    A denominator parameter exactly equal to a numerator parameter is
    cancelled against it before summation.  The sum runs on the
    terminating-sum engine, :func:`_resum`: compensated binary64 while its
    condition estimate stays at most ``_ESCALATE_COND``, and otherwise,
    with finite inputs, the exact sum at the parameters as given, each
    component rounded to binary64 once.  Parameters that a caller
    computed in binary64 (such as the quadratic route's ``-n - gamma``)
    are taken at their binary64 values.

    Parameters
    ----------
    num_params : sequence of float or complex
        Numerator parameters; at least one must be within 1e-9 of
        ``-top_index`` so the sum is genuinely terminating.
    den_params : sequence of float or complex
        Denominator parameters.
    arg : float or complex
        Series argument.
    top_index : int
        Last retained index (the polynomial degree).

    Returns
    -------
    float or complex
        The finite sum.
    """
    _check_nonneg_int(top_index, "top_index")
    nums = list(num_params)
    if not any(abs(p + top_index) <= _NONPOS_INT_TOL for p in nums):
        raise ValueError(
            f"no numerator parameter matches -top_index = {-top_index}"
        )
    if top_index == 0 or arg == 0:
        return 1.0
    k = len(nums)
    return _resum(
        lambda top, *v: _cauchy(top, v[:k], [*v[k:-1], 1], v[-1], [0], []),
        top_index, (*nums, *den_params, arg))


# ---------------------------------------------------------------------------
# Infinite series
# ---------------------------------------------------------------------------


def _sum_series(a, b, c, z, rel_tol, max_terms, message, inner=None):
    """Compensated sum of a series whose coefficients have a rational ratio.

    The coefficients start at 1 and step as ``coef * (a + m) * (b + m) /
    ((c + m) * (m + 1)) * z``; ``b`` or ``c`` set to ``None`` drops its
    factor.  Without ``inner`` the terms are the coefficients, the leading
    1 starting the sum; with ``inner``, term m is ``coef * inner(m)``.
    Summation ends once two consecutive terms are at most ``rel_tol``
    times the running sum.

    Returns the :class:`EvalOutcome`, whose ``terms_used`` counts the terms
    taken and ``err_estimate`` is the larger magnitude of the last two
    terms.  After ``max_terms``
    terms raises :class:`~assocpoly.errors.NotConverged` with the partial
    outcome (its count leaves out the leading 1) and
    ``message.format(max_terms=max_terms, z=z)``.
    """
    coef, comp, small = 1.0, 0.0, 0
    total, prev_abs, used = (1.0, 1.0, 1) if inner is None else (0.0, math.inf, 0)
    for m in range(max_terms):
        if inner is not None:
            term = coef * inner(m)
        if b is None:
            if c is None:
                coef = coef * (a + m) / (m + 1) * z
            else:
                coef = coef * (a + m) / ((c + m) * (m + 1)) * z
        else:
            coef = coef * (a + m) * (b + m) / ((c + m) * (m + 1)) * z
        if inner is None:
            term = coef
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        t_abs = abs(term)
        small = small + 1 if t_abs <= rel_tol * abs(total) else 0
        if small == 2:
            return EvalOutcome(total, True, used + m + 1, max(t_abs, prev_abs))
        prev_abs = t_abs
    raise NotConverged(
        message.format(max_terms=max_terms, z=z),
        outcome=EvalOutcome(total, False, max_terms, prev_abs),
    )


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------


def _series_2f1(a, b, c, z):
    return _sum_series(
        a, b, c, z, _REL_TOL, _MAX_TERMS,
        "2F1 series did not converge in {max_terms} terms at z={z!r}",
    )


def _scaled_outcome(factor, inner):
    return EvalOutcome(
        factor * inner.value,
        inner.converged,
        inner.terms_used,
        abs(factor) * inner.err_estimate,
    )


def _connection_2f1(a, b, c, z):
    # 1/(1-z) connection formula, valid when a - b is not an integer.
    w = 1.0 / (1.0 - z)
    terms_used = 0
    err = 0.0
    terms = []
    for p, q in ((a, b), (b, a)):
        coef = _gamma_quotient([c, q - p], [q, c - p])
        if coef == 0:
            terms.append(0.0)
            continue
        inner = _series_2f1(p, c - q, p - q + 1.0, w)
        terms_used += inner.terms_used
        scale = coef * _power(1.0 - z, -p)
        terms.append(scale * inner.value)
        err += abs(scale) * inner.err_estimate
    return EvalOutcome(terms[0] + terms[1], True, max(terms_used, 1), err)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric function 2F1(a, b; c; z).

    The evaluation ladder, in order: exact elementary cases
    (``z = 0``, ``b = c``, ``a = c``), terminating series when ``a`` or
    ``b`` is exactly a nonpositive integer (truncating at the smaller
    degree; one merely near it keeps its tail), the Gauss summation at
    ``z = 1`` when ``Re(c-a-b) > 0``, the direct series for
    ``|z| <= 0.5``, the z/(z-1) transformed series for
    ``|z/(z-1)| <= 0.5``, the 1/(1-z) connection formula for
    ``|1-z| >= 2`` when ``a - b`` stays at least 1e-6 away from the
    integers, then the slow direct and transformed series up to radius
    0.95, and finally the direct series on the rest of the open unit
    disk when ``Re(c-a-b) > 0`` (absolutely convergent there).  With
    ``Re(c-a-b) <= 0``, ``|1-z| < _ONE_EXCLUSION`` (0.05) is refused.
    Each series stops once two consecutive terms are below ``_REL_TOL``
    (1e-14) times its sum, and raises
    :class:`~assocpoly.errors.NotConverged` after ``_MAX_TERMS`` (10000)
    terms.

    Parameters
    ----------
    a, b, c : float or complex
        Parameters; ``c`` within 1e-12 of a nonpositive integer raises
        :class:`~assocpoly.errors.PoleArgument` unless an earlier exact
        or terminating branch applies.
    z : float or complex
        Argument.

    Returns
    -------
    EvalOutcome
        Value plus convergence metadata.
    """
    if z == 0:
        return EvalOutcome(1.0, True, 1, 0.0)
    if _close(b, c):
        return EvalOutcome(_power(1.0 - z, -a), True, 1, 0.0)
    if _close(a, c):
        return EvalOutcome(_power(1.0 - z, -b), True, 1, 0.0)
    ra = _near_int_in_range(a, -math.inf, 0, 0.0)
    rb = _near_int_in_range(b, -math.inf, 0, 0.0)
    if ra is not None or rb is not None:
        top = -max(r for r in (ra, rb) if r is not None)
        val = hyp_terminating([a, b], [c], z, top)
        return EvalOutcome(val, True, top + 1, 0.0)
    _check_denominator("2F1", "c", c)
    s = c - a - b
    if z == 1:
        if _real(s) > 0:
            val = _gamma_quotient([c, s], [c - a, c - b])
            return EvalOutcome(val, True, 1, 0.0)
        raise DomainError("2F1 at z=1 requires Re(c-a-b) > 0")
    if abs(1.0 - z) < _ONE_EXCLUSION and _real(s) <= 0:
        raise DomainError(
            f"2F1 argument z={z!r} is inside the exclusion disk around 1 "
            "with Re(c-a-b) <= 0"
        )
    if abs(z) <= 0.5:
        return _series_2f1(a, b, c, z)
    zp = z / (z - 1.0)
    if abs(zp) <= 0.5:
        inner = _series_2f1(a, c - b, c, zp)
        return _scaled_outcome(_power(1.0 - z, -a), inner)
    conn_ready = abs(1.0 - z) >= 2.0
    ab_near_int = _near_int_in_range(a - b, -math.inf, math.inf,
                                     _NEAR_INT_TOL) is not None
    if conn_ready and not ab_near_int:
        return _connection_2f1(a, b, c, z)
    if abs(z) <= 0.95:
        return _series_2f1(a, b, c, z)
    if abs(zp) <= 0.95:
        inner = _series_2f1(a, c - b, c, zp)
        return _scaled_outcome(_power(1.0 - z, -a), inner)
    if conn_ready and ab_near_int:
        raise IllConditioned(
            f"only the 1/(1-z) connection formula reaches z={z!r}, but "
            f"a-b={a - b!r} is within 1e-6 of an integer"
        )
    if abs(z) < 1.0 and _real(s) > 0:
        # Absolutely convergent up to the unit circle; slow but honest.
        return _series_2f1(a, b, c, z)
    raise DomainError(f"no evaluation route for 2F1 at z={z!r}")


# ---------------------------------------------------------------------------
# Confluent 1F1
# ---------------------------------------------------------------------------


def _series_1f1(a, b, z):
    return _sum_series(
        a, None, b, z, _REL_TOL, _MAX_TERMS,
        "1F1 series did not converge in {max_terms} terms at z={z!r}",
    )


def kummer_1f1(a, b, z):
    """Confluent hypergeometric function 1F1(a; b; z).

    Uses the direct series for ``Re(z) >= 0`` and the Kummer
    transformation ``exp(z) 1F1(b-a; b; -z)`` otherwise, so the summed
    series always has a nonnegative-real argument.  Only an ``a`` that
    is exactly a nonpositive integer gives the terminating polynomial:
    one merely near it still has a tail of terms about ``|a + m|``
    times the last retained one.

    Returns
    -------
    EvalOutcome
    """
    _check_denominator("1F1", "b", b)
    if z == 0:
        return EvalOutcome(1.0, True, 1, 0.0)
    ra = _near_int_in_range(a, -math.inf, 0, 0.0)
    if ra is not None:
        val = hyp_terminating([a], [b], z, -ra)
        return EvalOutcome(val, True, 1 - ra, 0.0)
    if _real(z) < 0:
        inner = _series_1f1(b - a, b, -z)
        return _scaled_outcome(_exp(z), inner)
    return _series_1f1(a, b, z)


# ---------------------------------------------------------------------------
# Appell F1 and Humbert Phi1 (single-sum evaluations)
# ---------------------------------------------------------------------------


# An escalating F1 or Phi1 sums on to two terms below this times its sum,
# which leaves out a tail far below half an ulp.
_CERT_TAIL = 2.0**-64


def _grouped_sum(a, b1, b2, c, x, y, tol):
    """``(sum, terms, err, cond)`` of :func:`_grouped_series` in binary64,
    stopped at two terms below ``tol`` times the sum, or where T or C ends
    (err 0.0)."""
    # (s+1) C_{s+1} = ((s + b1) x + (u s + w) y) C_s - (u (s - 1 + b1) + w)
    # x y C_{s-1} = (s p1 + p0) C_s - (s q1 + q0) C_{s-1}, with u, w = 1, b2
    # for F1 and 0, 1 for Phi1; Ĉ steps alike at |b1|, |w|, |x|, |y| (h, g).
    # With x y = 0 the step is first order, so C ends where s p1 + p0 = 0.
    u, w = (0, 1) if b2 is None else (1, b2)
    ax, ay, ab, aw = abs(x), abs(y), abs(b1), abs(w)
    xy, axy = x * y, ax * ay
    p1, p0, q1, q0 = x + u * y, b1 * x + w * y, u * xy, (u * (b1 - 1) + w) * xy
    h1, h0, g1, g0 = ax + u * ay, ab * ax + aw * ay, u * axy, (u * (ab - 1) + aw) * axy
    tm = total = peak = prev = cs = hs = 1.0
    comp = c_prev = h_prev = small = 0
    for s in range(_MAX_TERMS):
        tm = tm * (a + s) / (c + s)
        c_prev, cs = cs, ((s * p1 + p0) * cs - (s * q1 + q0) * c_prev) / (s + 1)
        h_prev, hs = hs, ((s * h1 + h0) * hs - (s * g1 + g0) * h_prev) / (s + 1)
        if tm == 0 or (xy == 0 and s * p1 + p0 == 0):
            err, used = 0.0, s + 1
            break
        term = tm * cs
        t = term - comp
        new = total + t
        comp = (new - total) - t
        total = new
        peak = max(peak, abs(tm) * hs)
        t_abs = abs(term)
        small = small + 1 if t_abs <= tol * abs(total) else 0
        if small == 2:
            err, used = max(t_abs, prev), s + 2
            break
        prev = t_abs
    else:
        raise NotConverged(f"{'Phi1' if b2 is None else 'Appell F1'} series did "
                           f"not converge in {_MAX_TERMS} terms",
                           outcome=EvalOutcome(total, False, _MAX_TERMS, prev))
    return total, used, err, (peak / abs(total) if total else math.inf)


def _grouped_series(a, b1, b2, c, x, y):
    """F1(a; b1, b2; c; x, y), or Phi1(a, b1; c; x, y) when ``b2`` is None,
    as ``sum_s T_s C_s`` over s = m + n, with ``T_s = (a)_s / (c)_s``.

    C_s, the coefficient of z^s in ``(1 - xz)^(-b1) (1 - yz)^(-b2)`` (``(1
    - xz)^(-b1) e^(yz)``), convolves ``e_k = (b1)_k x^k / k!`` with ``d_j =
    (b2)_j y^j / j!`` (``y^j / j!``) and steps by that function's
    three-term recurrence, which at |b1|, |b2|, |x|, |y| bounds ``sum_k
    |e_k| |d_{s-k}|`` by Ĉ_s.  When the condition ``max_s |T_s| Ĉ_s /
    |sum|`` exceeds ``_ESCALATE_COND`` and the inputs are finite, the sum
    runs on to ``_CERT_TAIL``, and :func:`_certified_cauchy_sum` sums that
    truncation as a convolved Cauchy sum; a tail then above ``2**8
    _CERT_TAIL`` times its value raises IllConditioned.
    """
    total, used, err, cond = _grouped_sum(a, b1, b2, c, x, y, _REL_TOL)
    vals = [v for v in (a, b1, b2, c, x, y) if v is not None]
    if cond > _ESCALATE_COND and _exactable(*vals):
        total, used, err, _ = _grouped_sum(a, b1, b2, c, x, y, _CERT_TAIL)
        a, b1, *b2, c, x, y = map(_exact, vals)
        total = _certified_cauchy_sum(
            _cauchy(used - 1, [a], [c], x, b2, [], [b1], [1], y),
            _first_precision(total, cond),
            any(isinstance(v, complex) for v in vals), all(v.imag == 0 for v in vals))
        if err > 2**8 * _CERT_TAIL * abs(total):
            raise IllConditioned(f"the certified sum {total!r} lies below the "
                                 "tail its binary64 sum stopped at")
    return EvalOutcome(total, True, used, err)


def appell_f1(alpha, beta1, beta2, sigma, x, y):
    """Appell hypergeometric function F1(alpha; beta1, beta2; sigma; x, y).

    Summed by :func:`_grouped_series` inside the bidisk ``max(|x|, |y|) <
    1``, else after the (x/(x-1), y/(y-1)) transformation; arguments
    still outside the bidisk raise :class:`~assocpoly.errors.DomainError`.

    Returns
    -------
    EvalOutcome
    """
    _check_denominator("F1", "sigma", sigma)
    if max(abs(x), abs(y)) < 1.0:
        return _grouped_series(alpha, beta1, beta2, sigma, x, y)
    if x == 1 or y == 1:
        raise DomainError("F1 transformation is singular at x=1 or y=1")
    xp, yp = x / (x - 1.0), y / (y - 1.0)
    if max(abs(xp), abs(yp)) < 1.0:
        return _scaled_outcome(
            _power(1.0 - x, -beta1) * _power(1.0 - y, -beta2),
            _grouped_series(sigma - alpha, beta1, beta2, sigma, xp, yp))
    raise DomainError(
        f"F1 arguments (x={x!r}, y={y!r}) lie outside the bidisk even after "
        "the Pfaff-type transformation"
    )


def humbert_phi1(alpha1, lam, alpha2, x, y):
    """Humbert confluent function Phi1(alpha1, lam; alpha2; x, y), |x| < 1.

    Summed by :func:`_grouped_series`, at ``x/(x-1)`` where that is smaller
    than an x beyond 1/2, as in ``gauss_2f1``'s z/(z-1) step, or, for
    ``Re y < 0``, at most 1/2, which turns the cancellation of ``e^y`` into
    a prefactor: ``Phi1(alpha1, lam; alpha2; x, y) = (1-x)^(-lam) e^y
    Phi1(alpha2-alpha1, lam; alpha2; x/(x-1), -y)``.

    Returns
    -------
    EvalOutcome
    """
    _check_denominator("Phi1", "alpha2", alpha2)
    if abs(x) >= 1.0:
        raise DomainError(f"Phi1 requires |x| < 1, got x={x!r}")
    xp = x / (x - 1.0)
    if abs(x) > 0.5 and abs(xp) < abs(x) or _real(y) < 0 and abs(xp) <= 0.5:
        return _scaled_outcome(
            _power(1.0 - x, -lam) * _exp(y),
            _grouped_series(alpha2 - alpha1, lam, None, alpha2, xp, -y))
    return _grouped_series(alpha1, lam, None, alpha2, x, y)


# ---------------------------------------------------------------------------
# Euler-type integrals on (0, 1) via tanh-sinh quadrature
# ---------------------------------------------------------------------------


class EulerIntegrand(Record):
    """Integrand u^(gamma-1) * prod (1 - b_i u)^(e_i) * exp(exp_scale * u).

    Attributes
    ----------
    gamma : float or complex
        Endpoint exponent; the integral requires ``Re(gamma) > 0``.
    factors : tuple of (base, exponent) pairs
        Each contributes ``(1 - base*u)**exponent``.
    exp_scale : float or complex
        Optional exponential factor scale (0 disables it).
    """

    __slots__ = ("gamma", "factors", "exp_scale")

    def __init__(self, gamma, factors=(), exp_scale=0.0):
        _set_field(self, "gamma", gamma)
        _set_field(self, "factors", factors)
        _set_field(self, "exp_scale", exp_scale)


def _tanh_sinh_node(s):
    """Return (u, 1-u, log u, log w) for the tanh-sinh map on (0,1)."""
    q = 0.5 * math.pi * math.sinh(s)
    m2q = -2.0 * abs(q)
    em = math.exp(m2q)
    log1pem = math.log1p(em)
    if q >= 0:
        u = 1.0 / (1.0 + em)
        one_minus_u = em / (1.0 + em)
        log_u = -log1pem
    else:
        u = em / (1.0 + em)
        one_minus_u = 1.0 / (1.0 + em)
        log_u = m2q - log1pem
    log_w = math.log(math.pi * math.cosh(s)) + m2q - 2.0 * log1pem
    return u, one_minus_u, log_u, log_w


def euler_integral(spec):
    """Integral over (0, 1) of an :class:`EulerIntegrand`.

    Uses tanh-sinh quadrature with level doubling to a relative
    ``_QUAD_TOL`` (1e-13), raising QuadratureNotConverged after
    ``_QUAD_LEVELS`` (12) levels; endpoint singularities of the
    ``u^(gamma-1)`` type are handled in log space.

    Parameters
    ----------
    spec : EulerIntegrand
        The integrand description.  ``Re(gamma) <= 0`` raises
        :class:`~assocpoly.errors.DomainError`; a factor base b that puts
        the zero ``1/b`` of ``1 - b*u`` within 1e-8 of (0, 1] raises
        :class:`~assocpoly.errors.SingularIntegrand`.

    Returns
    -------
    EvalOutcome
    """
    re_gamma = _real(spec.gamma)
    if re_gamma <= 0:
        raise DomainError(f"Euler integral requires Re(gamma) > 0, got {spec.gamma!r}")
    for base, _exponent in spec.factors:
        u0 = 1.0 / base if base != 0 else 0.0  # |Im u0| = |Im b|/|b|^2
        if abs(u0.imag) <= 1e-8 and 0 < u0.real <= 1.0 + 1e-14:
            raise SingularIntegrand(f"factor base {base!r} puts the zero of "
                                    "(1 - b*u) within 1e-8 of (0, 1]")
    # Fixed once per integrand: the exp for the exponent's type and each
    # 1 - b (``**`` takes the complex form exactly where _power does).
    g1, scale, scaled = spec.gamma - 1.0, spec.exp_scale, spec.exp_scale != 0
    exp = (cmath.exp if isinstance(g1, complex)
           or (scaled and isinstance(scale, complex)) else math.exp)
    factors = [(base, 1.0 - base, e) for base, e in spec.factors]

    def node(s):
        u, one_minus_u, log_u, log_w = _tanh_sinh_node(s)
        expo = g1 * log_u + log_w
        if scaled:
            expo = expo + scale * u
        val = exp(expo)
        for base, one_b, e in factors:
            # 1 - base*u rewritten to stay accurate as u -> 1.
            val = val * (one_b + base * one_minus_u) ** e
        return val

    # Half-width chosen so the u^(gamma-1) endpoint weight and the
    # quadrature weight both decay below binary64 resolution.
    tmax = math.asinh(max(45.0 / (math.pi * min(1.0, re_gamma)), 44.0 / math.pi))
    n0 = 6
    h = tmax / n0
    nodes = 0
    total = Accumulator()
    for k in range(-n0, n0 + 1):
        total.add(node(k * h))
        nodes += 1
    prev_val = total.value * h
    for _level in range(_QUAD_LEVELS):
        h *= 0.5
        n_half = int(round(tmax / h))
        for k in range(-n_half + 1, n_half, 2):
            total.add(node(k * h))
            nodes += 1
        cur_val = total.value * h
        delta = abs(cur_val - prev_val)
        if delta <= _QUAD_TOL * abs(cur_val):
            return EvalOutcome(cur_val, True, nodes, delta)
        prev_val = cur_val
    raise QuadratureNotConverged(
        f"tanh-sinh refinement did not converge within {_QUAD_LEVELS} levels"
    )
