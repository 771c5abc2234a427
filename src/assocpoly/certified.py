"""The certified engine: an ill-conditioned terminating sum, rounded once.

:mod:`assocpoly.hyperkernel` sums each terminating series, and the
truncation of an F1 or Phi1, in binary64 beside a condition estimate
(largest intermediate magnitude over the final sum).  Above its
``_ESCALATE_COND``, with finite inputs, it hands the sum to
:func:`escalation`, which re-evaluates it from the rationals, or Gaussian
rationals, that the inputs denote, in certified fixed point: on integers
beside a rigorous bound on their error (a Ziv loop,
:func:`_certified_cauchy_sum`), accepted once both ends of each
component's interval round to the same double, an exact zero included.
The exact loop of ``hyperkernel._sum`` remains for what fixed point
cannot decide: a value halfway between two doubles, an end beyond the
binary64 range, or an interval still too wide after ``_ZIV_ROUNDS``
passes.  Each component of the result is thus the exact sum rounded to
binary64 once.  A pass sums the terms of :func:`_fixed_point_terms`, or
runs :func:`fixed_point_convolution` for a C_m that convolves d with a
named e (the Laguerre ``rahman`` route, F1 and Phi1); the degrees of one
lone Cauchy sum share a pass (:func:`_shared_pass`).  ``hyperkernel``
imports this module on the first escalation, so that a process that never
escalates neither compiles it nor imports :mod:`fractions`.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import DenominatorPole
from .hyperkernel import _cancel, _pole, _sum

# Fixed-point passes before the certified engine falls back to exact
# arithmetic; each has at least twice the precision of the one before.
_ZIV_ROUNDS = 3
# Cap on the condition estimate that sizes the first pass; the estimate
# is infinite when the binary64 sum is 0.
_PREC_COND_CAP = 2.0**64
# Bits a shared pass keeps beyond what the degree that builds it needs,
# for the later degrees, whose sums cancel more.
_SHARED_BITS = 128


def escalation(terms, inputs, hi):
    """``(n, total, cond) -> value`` for the escalating degrees n <= hi, in
    nondecreasing order, of ``terms(n, *inputs)``, whose binary64 sum is
    ``total`` with condition estimate ``cond``: the exact sum rounded once.

    For n < hi, ``terms(n, ...)`` must be a lone Cauchy sum whose first
    numerator of T is ``-n``, so that ``S_n = sum_m (-n)_m Q_m`` with exact
    ``Q_m`` that do not depend on n.  The first degree below hi runs one
    :func:`_shared_pass` for the ``Q_m`` up to hi, at its first precision
    plus the bits of n! (by which ``(-n)_m`` can magnify a late step's
    error) plus ``_SHARED_BITS``; a later degree that needs more runs a new
    one, at twice the bits at least.  hi itself, and a degree whose
    :func:`_shared_value` is None, run :func:`_certified_cauchy_sum` alone.
    """
    exact = [_exact(v) for v in inputs]
    gaussian = any(isinstance(v, complex) for v in inputs)
    real = all(v.imag == 0 for v in inputs)
    shared = None

    def escalate(n, total, cond):
        nonlocal shared
        prec = _first_precision(total, cond)
        need = prec + math.factorial(n).bit_length()
        if n < hi and (shared is None or shared[0] < need):
            bits = max(need + _SHARED_BITS, 2 * shared[0] if shared else 0)
            shared = _shared_pass(bits, terms(hi, *exact))
        value = None if shared is None else _shared_value(*shared, n, real)
        if value is None:
            return _certified_cauchy_sum(terms(n, *exact), prec, gaussian, real)
        return complex(value) if gaussian else value

    return escalate


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
    ``hyperkernel._cauchy_sum``, as for :func:`_fixed_point_terms`, and
    the pass adds up the terms that it yields, or, when the spec
    convolves C_m with e, runs :func:`fixed_point_convolution`.  Raises
    what ``_cauchy_sum`` raises.
    """
    if len(spec) > 6:
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
    ``hyperkernel._cauchy_sum`` as ints, Fractions or :class:`_Gaussian` values;
    each parameter, and s, enters as a triple ``(u, w, v)`` from
    :func:`_gaussian`, worth ``(u + j v + i w)/v`` at offset j.  Yields
    integers ``(wr, wi, ew)`` holding ``W_m = 2**prec c T_m C_m`` for m
    = 0, 1, ..., n, up to the first zero factor of T.  W steps as ``W_m =
    s (T_m/T_{m-1}) W_{m-1} + V_m`` with ``V_m = c T_m d_m``: each of W
    and V takes one exact ratio of Gaussian integers per step, from
    :func:`_ratio`, through :func:`_scaled`.  Raises what
    ``_cauchy_sum`` raises, once the terms before the pole are
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

    Takes the arguments of ``hyperkernel._sum`` as exact values.  coef_k runs as
    a Gaussian integer beside its error bound, through :func:`_scaled`,
    and starts the pass of :func:`_fixed_point_cauchy` for S_k.  Returns
    integers ``(re, im, e)``, both components of ``2**prec * S`` within e
    of them.  Raises what ``_sum`` raises.
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
        # as it ends ``_sum``.
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
    ``hyperkernel._sum`` runs exactly instead for what fixed point cannot decide:
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


def fixed_point_convolution(wr, wi, ew, n, t_nums, t_dens, s, d_nums, d_dens,
                            e_nums, e_dens, r=1):
    """The fixed-point pass of :func:`_fixed_point_cauchy` when
    ``C_m = sum_k e_k d_{m-k}``.

    The ratios of P_m = c T_m, d_j and e_k are built once, meeting the
    zero factors and poles where ``hyperkernel._cauchy_sum`` meets them,
    and their log2 magnitudes give each sequence one scale 2**k: k is the
    bits of the largest elements of the other two (P's in units of the
    start's scale), plus the sequence's growth after its lowest element
    so far, which magnifies the errors of its steps, plus ``3 *
    bitlen(n + 1) + 8``, so that each term's error stays below a unit of
    the start's scale.  Each sequence steps through
    :func:`_scaled`, and the O(n^2) part, ``sum_m P_m sum_k E_k
    D_{m-k}``, is exact integer multiply-adds.  Its bound: when every
    element x is within e_x of its scaled value, with ``|x| + e_x <= M_x``
    and ``e_x <= 2**-r M_x``, each product of three is within ``13 *
    2**-r`` times the product of their M; each M is taken in whole units
    of its scale, at least 1, so that the bound's sum runs on small
    integers.  Returns integers ``(re, im, e)`` as the pass of
    :func:`_fixed_point_cauchy` does.
    """
    groups = [_cancel([_gaussian(w) for w in nums], [_gaussian(w) for w in dens])
              for nums, dens in ((t_nums, t_dens), (d_nums, d_dens), (e_nums, e_dens))]
    (sr, si, sv), (rr, ri, rv) = _gaussian(s), _gaussian(r)
    rats = ([], [], [])
    for j in range(n):
        ar, ai, br, bi = _ratio(*groups[0], j)
        if not (ar or ai):
            break
        if not (br or bi):
            raise _pole(j)
        rats[0].append((ar, ai, br, bi))
        # d_j carries r^j / j!, e_k a power of s.
        for rat, group, start in ((rats[1], groups[1], (rr, ri, rv * (j + 1))),
                                  (rats[2], groups[2], (sr, si, sv))):
            if len(rat) == j:  # the sequence has not ended at a zero
                ar, ai, br, bi = _ratio(*group, j, *start)
                if ar or ai:
                    if not (br or bi):
                        raise _pole(j)
                    rat.append((ar, ai, br, bi))
    size = len(rats[0]) + 1
    logs, grows = [], []
    for rat, acc in zip(rats, (math.log2(max(abs(wr) + abs(wi), 1)), 0.0, 0.0)):
        logs.append([acc])
        grow, low = 0.0, acc
        for ar, ai, br, bi in rat:
            acc += 0.5 * (math.log2(ar * ar + ai * ai) - math.log2(br * br + bi * bi))
            logs[-1].append(acc)
            low = min(low, acc)
            grow = max(grow, acc - low)
        grows.append(grow)
    tops = [max(lg) for lg in logs]
    shift = bound = 0
    r = math.inf
    seqs = []
    for x, (re, im, e) in enumerate(((wr, wi, ew), (1, 0, 0), (1, 0, 0))):
        k = max(0, math.ceil(sum(tops) - tops[x] + grows[x])
                + 3 * size.bit_length() + 8)
        shift += k
        re, im, e = re << k, im << k, e << k
        seq = [(re, im, e)]
        for ratio in rats[x]:
            re, im, e = _scaled(re, im, e, *ratio)
            seq.append((re, im, e))
        seq += [(0, 0, 0)] * (size - len(seq))
        mags = [((abs(re) + abs(im) + e) >> k) + 1 for re, im, e in seq]
        r = min(r, *(k + c.bit_length() - 1 - e.bit_length()
                     for c, (_, _, e) in zip(mags, seq)))
        seqs.append([list(part) for part in zip(*seq)] + [mags])
    (pr, pi, _, mp), (dr, di, _, md), (er, ei, _, me) = seqs
    dr, di, md = dr[::-1], di[::-1], md[::-1]
    d_real = not any(di)
    mul = operator.mul
    tr = ti = 0
    for m in range(size):
        o = size - 1 - m
        cr = sum(map(mul, er, dr[o:]))
        ci = sum(map(mul, ei, dr[o:]))
        if not d_real:
            cr -= sum(map(mul, ei, di[o:]))
            ci += sum(map(mul, er, di[o:]))
        tr += pr[m] * cr - pi[m] * ci
        ti += pr[m] * ci + pi[m] * cr
        bound += mp[m] * sum(map(mul, me, md[o:]))
    return tr >> shift, ti >> shift, ((bound << 4) >> max(r, 0)) + 2
