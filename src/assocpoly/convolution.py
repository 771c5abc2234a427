"""The certified fixed-point pass of a Cauchy sum whose C_m is a convolution.

A route sum of :mod:`assocpoly.hyperkernel` may name the sequence e that
its C_m = sum_k e_k d_{m-k} convolves d with (the Laguerre ``rahman``
route of :mod:`assocpoly.closedforms` does).  Its binary64 and exact
sums run in ``hyperkernel._cauchy_sum``; its escalation runs here, in a
module that ``hyperkernel`` imports on the first such escalation, so
that a process that never needs it does not compile it.  Its steps take
their exact ratios from ``hyperkernel._ratio``, as the other
fixed-point passes do.
"""

from __future__ import annotations

import math
import operator

from .hyperkernel import _cancel, _gaussian, _pole, _ratio, _scaled


def fixed_point_convolution(wr, wi, ew, n, t_nums, t_dens, s, d_nums, d_dens,
                            e_nums, e_dens):
    """The fixed-point pass of ``hyperkernel._fixed_point_cauchy`` when
    ``C_m = sum_k e_k d_{m-k}``.

    The ratios of P_m = c T_m, d_j and e_k are built once, meeting the
    zero factors and poles where ``hyperkernel._cauchy_sum`` meets them,
    and their log2 magnitudes give each sequence one scale 2**k: k is the
    bits of the largest elements of the other two (P's in units of the
    start's scale), plus the sequence's growth after its lowest element
    so far, which magnifies the errors of its steps, plus ``3 *
    bitlen(n + 1) + 8``, so that each term's error stays below a unit of
    the start's scale.  Each sequence steps through
    ``hyperkernel._scaled``, and the O(n^2) part, ``sum_m P_m sum_k E_k
    D_{m-k}``, is exact integer multiply-adds.  Its bound: when every
    element x is within e_x of its scaled value, with ``|x| + e_x <= M_x``
    and ``e_x <= 2**-r M_x``, each product of three is within ``13 *
    2**-r`` times the product of their M; each M is taken in whole units
    of its scale, at least 1, so that the bound's sum runs on small
    integers.  Returns integers ``(re, im, e)`` as the pass of
    ``hyperkernel._fixed_point_cauchy`` does.
    """
    groups = [_cancel([_gaussian(w) for w in nums], [_gaussian(w) for w in dens])
              for nums, dens in ((t_nums, t_dens), (d_nums, d_dens), (e_nums, e_dens))]
    sr, si, sv = _gaussian(s)
    rats = ([], [], [])
    for j in range(n):
        ar, ai, br, bi = _ratio(*groups[0], j)
        if not (ar or ai):
            break
        if not (br or bi):
            raise _pole(j)
        rats[0].append((ar, ai, br, bi))
        # d_j carries 1/j!, e_k a power of s.
        for rat, group, start in ((rats[1], groups[1], (1, 0, j + 1)),
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
