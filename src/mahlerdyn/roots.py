"""Certified complex root isolation and the exact unit-circle partition.

Real roots are isolated by Sturm bisection over exact dyadic rationals.
Complex roots start from numeric seeds (mpmath.polyroots); every seed is then
wrapped in a disk of certified radius n*|p(c)|/|p'(c)| computed in exact
rational arithmetic, so a disk is guaranteed to contain at least one root.
When the full set of disks is pairwise disjoint and counts match the degree,
each disk provably contains exactly one root. Numerics only ever choose where
to look; all accept/reject decisions are exact.

Unit-circle membership is never decided by refinement alone: a root can lie
on the circle only if its irreducible factor is reciprocal, and then the
on-circle count is obtained exactly from a Sturm count of the trace
polynomial on (-2, 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath

from .errors import InternalPrecisionExceeded, NotIrreducible, NotSquarefree
from .factor import factor_z, is_irreducible
from .intpoly import (
    IntPoly,
    is_squarefree,
    reciprocal_test,
    sturm_real_roots,
    trace_poly,
)

_PREC_START = 64
_PREC_CAP = 1 << 16
_ORDER_RADIUS = Fraction(1, 1 << 20)  # boxes are sorted once refined this far

_ZERO = Fraction(0)
_ONE = Fraction(1)
_X = IntPoly((0, 1))


@dataclass(frozen=True)
class IsolatingBox:
    """Closed dyadic disk {z : |z - center| <= radius}.

    It holds exactly one root of a polynomial only when it comes from
    isolate_roots or refine. The disk arithmetic below returns disks that
    merely enclose a value; radius 0 is an exact point.
    """

    center: tuple[Fraction, Fraction]  # dyadic (re, im)
    radius: Fraction  # dyadic, >= 0
    root_count: int = 1


@dataclass(frozen=True)
class CirclePartition:
    outside: tuple[int, ...]
    on: tuple[int, ...]
    inside: tuple[int, ...]


# ---------------------------------------------------------------------------
# exact helpers


def _dyadic(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(round(x * scale), scale)


def _sqrt_upper(s: Fraction, bits: int) -> Fraction:
    """Dyadic upper bound for sqrt(s)."""
    if s == 0:
        return _ZERO
    scale = 1 << bits
    k = math.isqrt(s.numerator * scale * scale // s.denominator) + 1
    return Fraction(k, scale)


def _frac_from_mp(v) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(v)._mpf_
    if man == 0:
        if exp == 0:
            return _ZERO
        raise ArithmeticError("nonfinite value from numeric seed")
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


def _eval_gauss(p: IntPoly, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """p(x + iy) as an exact pair (re, im)."""
    u, v = _ZERO, _ZERO
    for c in reversed(p.coeffs):
        u, v = u * x - v * y + c, u * y + v * x
    return u, v


# ---------------------------------------------------------------------------
# disk arithmetic
#
# Midpoint-radius arithmetic on IsolatingBox: each result holds the exact
# result for every choice of points in the operand disks. Centres are
# truncated toward 0 to a multiple of 2^-b, so they stay dyadic and short
# and conjugate disks give conjugate results; the truncation is added to
# the radius. The unit 2^-b is at most 2^-_GUARD times the radius being
# rounded (for the modulus bounds and Horner, the operand's radius), so the
# truncation stays far below the width the operands already carry.

_GUARD = 32


def _unit_bits(t: Fraction) -> int:
    """b >= 0 with 2^-b <= t * 2^-_GUARD, for t > 0."""
    return max(0, _GUARD + 1 + t.denominator.bit_length() - t.numerator.bit_length())


def _trunc(n: int, d: int) -> int:
    """n / d truncated toward 0, for d > 0."""
    q = abs(n) // d
    return q if n >= 0 else -q


def _rounded(x: Fraction, y: Fraction, r: Fraction) -> IsolatingBox:
    """A dyadic disk holding the disk (x + iy, r); r = 0 stays exact."""
    if r == 0:
        return IsolatingBox((x, y), r)
    b = _unit_bits(r)
    scale = 1 << b
    # each centre coordinate moves by < 1 unit, so the centre by < 2 units
    return IsolatingBox(
        (Fraction(_trunc(x.numerator << b, x.denominator), scale),
         Fraction(_trunc(y.numerator << b, y.denominator), scale)),
        Fraction(-(-(r.numerator << b) // r.denominator) + 2, scale),
    )


def _abs_bounds(a: IsolatingBox) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on |z| over the disk a; lower >= 0."""
    x, y = a.center
    s = x * x + y * y
    if s == 0:
        return (_ZERO, a.radius)
    up = _sqrt_upper(s, _unit_bits(a.radius or min(s, _ONE)))
    # s / up <= sqrt(s) <= up
    return (max(_ZERO, s / up - a.radius), up + a.radius)


def _box_add(a: IsolatingBox, b: IsolatingBox, sign: int = 1) -> IsolatingBox:
    """Disk holding u + sign*v for u in a, v in b (sign is 1 or -1)."""
    return _rounded(
        a.center[0] + sign * b.center[0],
        a.center[1] + sign * b.center[1],
        a.radius + b.radius,
    )


def _box_mul(a: IsolatingBox, b: IsolatingBox) -> IsolatingBox:
    """Disk holding u*v for u in a, v in b."""
    ax, ay = a.center
    bx, by = b.center
    # |a_c| rb + |b_c| ra + ra rb, with |a_c| + ra the upper modulus bound of a
    r = _abs_bounds(a)[1] * b.radius + _abs_bounds(b)[1] * a.radius - a.radius * b.radius
    return _rounded(ax * bx - ay * by, ax * by + ay * bx, r)


def _box_inv(a: IsolatingBox) -> IsolatingBox:
    """Disk holding 1/z for z in a; a must exclude 0.

    The image of the disk (c, r) under z -> 1/z is exactly the disk
    (conj(c), r) / (|c|^2 - r^2), which is then rounded."""
    x, y = a.center
    den = x * x + y * y - a.radius * a.radius
    if den <= 0:
        raise ZeroDivisionError("disk inverse of a disk meeting 0")
    return _rounded(x / den, -y / den, a.radius / den)


def _box_horner(coeffs, a: IsolatingBox) -> IsolatingBox:
    """Disk holding sum_k coeffs[k] z^k for z in a, for a.radius > 0.

    Horner in fixed-point integers with unit 2^-b, 2^-b <= a.radius *
    2^-_GUARD; every truncation is absorbed into the radius. The
    coefficients are ints or Fractions, constant first."""
    b = _unit_bits(a.radius)
    scale = 1 << b

    def fix(v) -> int:
        return _trunc(v.numerator << b, v.denominator)

    ax, ay = fix(a.center[0]), fix(a.center[1])
    ar = fix(a.radius) + 3  # rounded up, plus the centre shift < sqrt(2)
    amag = math.isqrt(ax * ax + ay * ay) + 1
    vx, vy, vr = fix(coeffs[-1]), 0, 1
    for c in reversed(coeffs[:-1]):
        nx = vx * ax - vy * ay
        ny = vx * ay + vy * ax
        nr = (math.isqrt(vx * vx + vy * vy) + 1) * ar + amag * vr + vr * ar
        # truncating nx, ny and c moves the centre by < 3 units; the radius
        # shift truncates by < 1 unit
        vx = _trunc(nx, scale) + fix(c)
        vy = _trunc(ny, scale)
        vr = (nr >> b) + 4
    return IsolatingBox((Fraction(vx, scale), Fraction(vy, scale)), Fraction(vr, scale))


def _disjoint(a: IsolatingBox, b: IsolatingBox) -> bool:
    dx = a.center[0] - b.center[0]
    dy = a.center[1] - b.center[1]
    rr = a.radius + b.radius
    return dx * dx + dy * dy > rr * rr


def _contained(inner: IsolatingBox, outer: IsolatingBox) -> bool:
    if inner.radius > outer.radius:
        return False
    dx = inner.center[0] - outer.center[0]
    dy = inner.center[1] - outer.center[1]
    slack = outer.radius - inner.radius
    return dx * dx + dy * dy <= slack * slack


def _point_in(box: IsolatingBox, x: Fraction, y: Fraction) -> bool:
    dx = x - box.center[0]
    dy = y - box.center[1]
    return dx * dx + dy * dy <= box.radius * box.radius


# ---------------------------------------------------------------------------
# numeric seeds


def _seeds(p: IntPoly, prec: int) -> list[tuple[Fraction, Fraction]]:
    """Dyadic approximations of all roots at roughly prec bits; may raise
    mpmath's NoConvergence, which callers treat as a ladder step."""
    with mpmath.workprec(prec + 40):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(p.coeffs)],
            maxsteps=120,
            extraprec=prec,
        )
        out = []
        for z in roots:
            z = mpmath.mpc(z)
            out.append((_dyadic(_frac_from_mp(z.real), prec), _dyadic(_frac_from_mp(z.imag), prec)))
    return out


# ---------------------------------------------------------------------------
# real roots: exact Sturm machinery


def _sign(p: IntPoly, x: Fraction) -> int:
    v = p(x)
    return (v > 0) - (v < 0)


def _root_bound_pow2(p: IntPoly) -> Fraction:
    b = 1 + Fraction(max(abs(c) for c in p.coeffs), abs(p.lc))
    val = Fraction(2)
    while val <= b:
        val *= 2
    return val


def _real_isolating_intervals(p: IntPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint dyadic sign-change intervals, one per real root."""
    bound = _root_bound_pow2(p)
    total = sturm_real_roots(p, -bound, bound)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if p(mid) == 0:
            delta = (hi - lo) / 8
            while p(mid - delta) == 0 or p(mid + delta) == 0 or sturm_real_roots(p, mid - delta, mid + delta) != 1:
                delta /= 2
            out.append((mid - delta, mid + delta))
            left = sturm_real_roots(p, lo, mid - delta)
            stack.append((lo, mid - delta, left))
            stack.append((mid + delta, hi, cnt - 1 - left))
        else:
            left = sturm_real_roots(p, lo, mid)
            stack.append((lo, mid, left))
            stack.append((mid, hi, cnt - left))
    out.sort()
    return out


def _shrink_interval(p: IntPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect a sign-change interval down to the requested width."""
    while hi - lo > width:
        mid = (lo + hi) / 2
        if p(mid) == 0:
            # the root is exactly mid; nest a symmetric interval around it
            delta = min((hi - lo) / 8, width / 4)
            while p(mid - delta) == 0 or p(mid + delta) == 0 or _sign(p, mid - delta) == _sign(p, mid + delta):
                delta /= 2
            return (mid - delta, mid + delta)
        if _sign(p, lo) != _sign(p, mid):
            hi = mid
        else:
            lo = mid
    return (lo, hi)


# ---------------------------------------------------------------------------
# isolation


def _try_isolate(p: IntPoly, reals, n_upper: int, prec: int):
    n = p.degree
    dp = p.derivative()
    boxes = []
    for lo, hi in reals:
        boxes.append(IsolatingBox(((lo + hi) / 2, _ZERO), (hi - lo) / 2))
    if n_upper:
        try:
            seeds = _seeds(p, prec)
        except (mpmath.mp.NoConvergence, ArithmeticError):
            return None
        upper = [(x, y) for x, y in seeds if y > 0]
        if len(upper) != n_upper:
            return None
        for x, y in upper:
            u, v = _eval_gauss(p, x, y)
            du, dv = _eval_gauss(dp, x, y)
            den = du * du + dv * dv
            if den == 0:
                return None
            s = Fraction(n * n) * (u * u + v * v) / den
            r = _sqrt_upper(s, prec) if s else Fraction(1, 1 << prec)
            # ordering radius, and strictly in the upper half plane
            if r > _ORDER_RADIUS or r >= y:
                return None
            boxes.append(IsolatingBox((x, y), r))
            boxes.append(IsolatingBox((x, -y), r))
    for i in range(len(boxes)):
        for j in range(i):
            if not _disjoint(boxes[i], boxes[j]):
                return None
    return boxes


@lru_cache(maxsize=256)
def _isolate_cached(coeffs: tuple[int, ...]) -> tuple[IsolatingBox, ...]:
    p = IntPoly(coeffs)
    n = p.degree
    reals = _real_isolating_intervals(p)
    n_upper = (n - len(reals)) // 2
    reals = [_shrink_interval(p, lo, hi, _ORDER_RADIUS) for lo, hi in reals]
    prec = _PREC_START
    while prec <= _PREC_CAP:
        boxes = _try_isolate(p, reals, n_upper, prec)
        if boxes is not None:
            boxes.sort(key=lambda b: (b.center[0], b.center[1]))
            return tuple(boxes)
        reals = [_shrink_interval(p, lo, hi, (hi - lo) / 4) for lo, hi in reals]
        prec *= 2
    raise InternalPrecisionExceeded(f"root isolation for degree {n} exceeded {_PREC_CAP} bits")


def isolate_roots(p: IntPoly) -> list[IsolatingBox]:
    """Pairwise-disjoint certified boxes, one per root, sorted by (re, im)."""
    if p.is_zero or p.degree < 1 or not is_squarefree(p):
        raise NotSquarefree("isolate_roots expects a squarefree nonconstant polynomial")
    return list(_isolate_cached(p.coeffs))


# ---------------------------------------------------------------------------
# refinement


def refine(box: IsolatingBox, p: IntPoly, eps: Fraction) -> IsolatingBox:
    """Shrink a certified box to radius <= eps; the result nests inside box."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if box.radius <= eps:
        return box
    cx, cy = box.center
    if cy == 0:
        lo, hi = cx - box.radius, cx + box.radius
        if _sign(p, lo) * _sign(p, hi) < 0:
            lo, hi = _shrink_interval(p, lo, hi, 2 * eps)
            return IsolatingBox(((lo + hi) / 2, _ZERO), (hi - lo) / 2)
    return _refine_certified(box, p, eps)


def _refine_certified(box: IsolatingBox, p: IntPoly, eps: Fraction) -> IsolatingBox:
    n = p.degree
    dp = p.derivative()
    need = max(1, (eps.denominator // max(eps.numerator, 1)).bit_length())
    prec = max(_PREC_START, need + 20)
    while prec <= _PREC_CAP:
        try:
            seeds = _seeds(p, prec)
        except (mpmath.mp.NoConvergence, ArithmeticError):
            prec *= 2
            continue
        for x, y in seeds:
            if box.center[1] == 0:
                y = _ZERO
            if not _point_in(box, x, y):
                continue
            u, v = _eval_gauss(p, x, y)
            du, dv = _eval_gauss(dp, x, y)
            den = du * du + dv * dv
            if den == 0:
                continue
            s = Fraction(n * n) * (u * u + v * v) / den
            r = _sqrt_upper(s, prec) if s else Fraction(1, 1 << prec)
            cand = IsolatingBox((x, y), r)
            if r <= eps and _contained(cand, box):
                return cand
        prec *= 2
    raise InternalPrecisionExceeded(f"refinement to {eps} exceeded {_PREC_CAP} bits")


# ---------------------------------------------------------------------------
# the unit-circle partition


def _circle_status(box: IsolatingBox) -> str | None:
    """'in'/'out' when the disk is strictly off the unit circle, else None."""
    a2 = box.center[0] ** 2 + box.center[1] ** 2
    r = box.radius
    if a2 > (1 + r) ** 2:
        return "out"
    if r < 1 and a2 < (1 - r) ** 2:
        return "in"
    return None


def _factor_statuses(q: IntPoly) -> list[str]:
    """Status per canonical root box of an irreducible q: 'in'/'on'/'out'."""
    if q == _X:
        return ["in"]
    if q == IntPoly((-1, 1)) or q == IntPoly((1, 1)):
        return ["on"]
    if q.degree == 1:
        return ["out" if abs(q[0]) > abs(q[1]) else "in"]
    kind = reciprocal_test(q)
    boxes = list(isolate_roots(q))
    if kind == "No":
        # an irreducible non-reciprocal polynomial has no root on the circle
        out = []
        for b in boxes:
            status = _circle_status(b)
            while status is None:
                b = refine(b, q, b.radius / 16)
                status = _circle_status(b)
            out.append(status)
        return out
    assert kind == "Plus", "an irreducible Minus-reciprocal polynomial is x-1"
    t = trace_poly(q)
    on_count = 2 * sturm_real_roots(t, Fraction(-2), Fraction(2))
    expect_off = (q.degree - on_count) // 2
    statuses: list[str | None] = [None] * q.degree
    while True:
        n_out = n_in = 0
        unresolved = []
        for i, b in enumerate(boxes):
            statuses[i] = _circle_status(b)
            if statuses[i] == "out":
                n_out += 1
            elif statuses[i] == "in":
                n_in += 1
            else:
                unresolved.append(i)
        if n_out == expect_off and n_in == expect_off:
            for i in unresolved:
                statuses[i] = "on"
            return statuses  # type: ignore[return-value]
        boxes = [refine(b, q, b.radius / 16) if statuses[i] is None else b for i, b in enumerate(boxes)]


def _match_box(qb: IsolatingBox, q: IntPoly, pboxes: list[IsolatingBox], p: IntPoly) -> int:
    """Index of the p-box holding the same root as qb (q divides p)."""
    while True:
        hits = [i for i, pb in enumerate(pboxes) if not _disjoint(qb, pb)]
        assert hits, "a factor root must meet some box of the full polynomial"
        if len(hits) == 1:
            return hits[0]
        qb = refine(qb, q, qb.radius / 16)
        for i in hits:
            pboxes[i] = refine(pboxes[i], p, pboxes[i].radius / 16)


def circle_partition(p: IntPoly) -> CirclePartition:
    """Exact indices of roots with |a| > 1, = 1, < 1 under the canonical order."""
    if p.is_zero or p.degree < 1 or not is_squarefree(p):
        raise NotSquarefree("circle_partition expects a squarefree nonconstant polynomial")
    pboxes = list(isolate_roots(p))
    labels: list[str | None] = [None] * p.degree
    factors = factor_z(p).factors
    for q, _ in factors:
        statuses = _factor_statuses(q)
        if len(factors) == 1 and q == p:
            labels = list(statuses)
            break
        qboxes = list(isolate_roots(q))
        for qb, status in zip(qboxes, statuses):
            idx = _match_box(qb, q, pboxes, p)
            assert labels[idx] is None
            labels[idx] = status
    assert None not in labels
    return CirclePartition(
        outside=tuple(i for i, s in enumerate(labels) if s == "out"),
        on=tuple(i for i, s in enumerate(labels) if s == "on"),
        inside=tuple(i for i, s in enumerate(labels) if s == "in"),
    )


def signature(p: IntPoly) -> tuple[int, int]:
    """(real embeddings, conjugate complex pairs) of an irreducible p."""
    if not is_irreducible(p):
        raise NotIrreducible("signature is defined for irreducible polynomials")
    r1 = sturm_real_roots(p)
    return (r1, (p.degree - r1) // 2)
