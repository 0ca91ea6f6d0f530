"""Certified complex root isolation and the exact unit-circle partition.

Isolation is seed-and-certify. One seeder, an Aberth-Ehrlich iteration from
Newton-polygon starts, proposes all n roots at once on each rung of a ladder:
rung 0 runs it in builtin double-precision complex numbers, and the later
rungs run it in mpmath at 64, 128, ... bits up to _PREC_CAP. The seeds are
rounded exactly in integers, from the binary parts of each float or mpf, to
dyadic points at the unit 2^-64 on rung 0 and 2^-prec after it, and
certified all together (as MPSolve certifies its iterates: Bini and
Fiorentino, Numer. Algorithms 23, 2000):

* a seed with negligible imaginary part is snapped onto the real axis, a
  seed in the upper half-plane is kept and mirrored into the lower one, and a
  seed in the lower half-plane is dropped;
* each kept centre c gets the disk of radius n*|p(c)|/|p'(c)|, which always
  holds at least one root of p, after two exact Newton steps on the mpmath
  rungs and none on rung 0 (radii of about 2^-45), and up to two more while
  the radius is not below half the grid step 2^-_ORDER_GRID;
* the rung is accepted only when there are exactly n disks, they are
  pairwise disjoint, every radius is below half the grid step, and every
  upper disk stays above the real axis (r < Im c).

Then each disk holds exactly one root. A disk centred on the real axis holds
a real root: the disk is its own mirror image, so a nonreal root in it would
bring its conjugate along, and the disk would hold two. Snapping can
therefore make a rung fail, never make the answer wrong. The n disks prove
p squarefree, so the squarefree test runs only if rung 0 fails. p and p' are
evaluated at the dyadic centres by an exact integer Horner, so the numerics
only choose where to look and every accept/reject decision is exact. A rung
fails, and the ladder moves on, when the coefficients overflow a double (on
rung 0), the iteration does not settle, or the certificate fails.

Refinement uses the same disk on one box at a time, with no numeric seeder.
refine takes exact Newton steps from the box centre, at a unit that doubles
from about twice the bits the box carries up to 2^-b, set by the radius asked
for, and returns the first Newton disk at the unit 2^-b that is small enough
and contained in the box. That disk holds a root of p and lies in a disk that
holds only one, so it holds that one. Steps are rounded toward 0, so mirror
images refine to mirror images and a real box stays real. Newton doubles the
correct bits per step; a box that has not settled within twice that many
steps, or a radius below 2^-_PREC_CAP, raises InternalPrecisionExceeded.

Which root a shrinking enclosure holds is decided in one place: _pin takes
the enclosures (often _refinements of a box, or values computed from them)
and certified boxes of distinct roots, of one p or of several irreducible
factors, and refines only the boxes they still meet, each with its own
polynomial, until one is left. Every caller that names a root (a factor's
root among p's, a product, power or rational image, an automorphism's
image, a complex conjugate) goes through it.

The canonical boxes are also the certificate of every exact fact about roots
that the package uses. A real root has a real-centred box, so signature
counts those. A nonreal box's conjugate is its exact mirror image, because
_certify builds it that way, so _conjugates finds it by lookup. A root is
named by the index of its box, so two numbers are equal when their minpolys
agree and root_index (a _pin) gives one index. Unit-circle membership is
never decided by refinement alone: a root can lie on the circle only if its
irreducible factor q is reciprocal, and then the roots on the circle are the
preimages of the real roots of trace_poly(q) in (-2, 2). Those are counted
by refining each real box of the trace polynomial until it lies strictly
inside or strictly outside [-2, 2], which ends because q(1) and q(-1) are
nonzero.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import mpmath

from .errors import ExactCheckFailed, InternalPrecisionExceeded, NotIrreducible, NotSquarefree, Record
from .factor import factor_z, is_irreducible
from .intpoly import IntPoly, is_squarefree, reciprocal_test, trace_poly

_PREC_START = 64
_PREC_CAP = 1 << 16
_ORDER_GRID = 40  # real parts are compared rounded to a multiple of 2^-40
_ABERTH_ITERS = 100

_ZERO = Fraction(0)
_ONE = Fraction(1)


class IsolatingBox(Record):
    """Closed dyadic disk {z : |z - center| <= radius}.

    It holds exactly one root of a polynomial only when it comes from
    isolate_roots or refine. The disk arithmetic below returns disks that
    merely enclose a value; radius 0 is an exact point.
    """

    center: tuple[Fraction, Fraction]  # dyadic (re, im)
    radius: Fraction  # dyadic, >= 0


class CirclePartition(Record):
    outside: tuple[int, ...]
    on: tuple[int, ...]
    inside: tuple[int, ...]


# ---------------------------------------------------------------------------
# exact helpers


def _dyadic(v) -> tuple[int, int]:
    """(m, e) with v = m 2^e exactly, for a float or mpf v, read from its
    binary parts; ArithmeticError when v is nan or infinite."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ArithmeticError("nonfinite value from numeric seed")
        m, d = v.as_integer_ratio()  # d is a power of 2
        return m, 1 - d.bit_length()
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        raise ArithmeticError("nonfinite value from numeric seed")
    return -man if sign else man, exp


def _horner(coeffs, x: int, y: int, d: int) -> tuple[int, int]:
    """d^n * p((x + iy) / d) as an exact integer pair (re, im), for d > 0 and
    the coefficients of p constant first, n = len(coeffs) - 1."""
    u, v, s = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        s *= d
        u, v = u * x - v * y + c * s, u * y + v * x
    return u, v


def _newton_disk(p: IntPoly, dp: IntPoly, x: int, y: int, b: int) -> tuple[int, int, int] | None:
    """At c = (x + iy) / 2^b: (k, sx, sy) with n|p(c)|/|p'(c)| < k / 2^b and
    (sx + i sy) / 2^b the Newton step -p(c)/p'(c) cut toward 0; None if p'(c) = 0."""
    d = 1 << b
    u, v = _horner(p.coeffs, x, y, d)  # 2^(bn) p(c)
    du, dv = _horner(dp.coeffs, x, y, d)  # 2^(b(n-1)) p'(c)
    den = du * du + dv * dv
    if den == 0:
        return None
    n = p.degree
    k = math.isqrt(n * n * (u * u + v * v) // den) + 1
    return k, -_trunc(u * du + v * dv, den), -_trunc(v * du - u * dv, den)


# ---------------------------------------------------------------------------
# disk arithmetic
#
# One fixed-point kernel of midpoint-radius arithmetic (van der Hoeven,
# "Ball arithmetic", 2010; Johansson, Arb, IEEE Trans. Comput. 66, 2017).
# A ball (x, y, r) is three integers: the closed disk of centre (x + iy) 2^-k
# and radius r 2^-k, at one unit 2^-k that a whole computation shares. Each
# result holds the exact result for every choice of points in the operand
# balls. Sums are exact. A product's centre is truncated toward 0 back to
# the unit, so conjugate balls give conjugate results, and each truncation
# (under one unit per coordinate) is added to the radius, which is rounded
# up. An exact point at the unit has radius 0 and keeps it while no
# truncation loses anything, as in a product with (c 2^k, 0, 0).
#
# The unit comes from the smallest radius in play: 2^-k <= r 2^-_GUARD
# (_unit_bits), so the padding stays far below the width the operands
# already carry. A chain converts its disks into balls once (_ball) and its
# results back once (_from_ball): Horner in _box_horner,
# mahler._product_enclosure and classify._cayley_sextic; _box_add and
# _box_mul are the same kernel on single disks, and _box_inv rounds the exact
# image disk under z -> 1/z, held as integers over one denominator, at a unit
# set by the radius of its result, not of its operand. Fractions remain at
# the boundary: IsolatingBox keeps Fraction fields. The exact predicates
# (_disjoint, _contained, _point_in, _circle_status) compare integer
# numerators over one exact common denominator, so they are exact for any
# rational disk, dyadic or not.

_GUARD = 32


def _unit_bits(t: Fraction) -> int:
    """b >= 0 with 2^-b <= t * 2^-_GUARD, for t > 0."""
    return max(0, _GUARD + 1 + t.denominator.bit_length() - t.numerator.bit_length())


def _unit_of(disks: Iterable[IsolatingBox]) -> int:
    """_unit_bits of the smallest nonzero radius: exact points set no unit."""
    return _unit_bits(min(d.radius for d in disks if d.radius))


def _trunc(n: int, d: int) -> int:
    """n / d truncated toward 0, for d > 0."""
    q = abs(n) // d
    return q if n >= 0 else -q


def _common(*vs) -> tuple[int, list[int]]:
    """(d, numerators of the rationals vs over d), d their least common denominator."""
    d = math.lcm(*(v.denominator for v in vs))
    return d, [v.numerator * (d // v.denominator) for v in vs]


def _over(x: int, y: int, r: int, d: int) -> tuple[int, int, int]:
    """The ball holding the disk ((x + iy) / d, r / d), for d > 0."""
    qx, qy = _trunc(x, d), _trunc(y, d)
    return qx, qy, -(-r // d) + (qx * d != x) + (qy * d != y)


def _ball(x, y, r, k: int) -> tuple[int, int, int]:
    """The ball at the unit 2^-k holding the disk (x + iy, r) of rationals."""
    d, nums = _common(x, y, r)
    return _over(*(v << k for v in nums), d)


def _from_ball(z: tuple[int, int, int], k: int) -> IsolatingBox:
    """The ball z at the unit 2^-k as an IsolatingBox."""
    one = 1 << k
    return IsolatingBox((Fraction(z[0], one), Fraction(z[1], one)), Fraction(z[2], one))


def _ball_add(u, v, sign: int = 1) -> tuple[int, int, int]:
    """Ball holding p + sign*q for p in u, q in v (sign is 1 or -1)."""
    return u[0] + sign * v[0], u[1] + sign * v[1], u[2] + v[2]


def _ball_mul(u, v, k: int) -> tuple[int, int, int]:
    """Ball holding p*q for p in u, q in v, both at the unit 2^-k."""
    ux, uy, ur = u
    vx, vy, vr = v
    # |u_c| vr + |v_c| ur + ur vr at the unit 2^-2k, with |c| < isqrt(|c|^2) + 1
    r = ur * vr
    if vr:
        r += (math.isqrt(ux * ux + uy * uy) + 1) * vr
    if ur:
        r += (math.isqrt(vx * vx + vy * vy) + 1) * ur
    return _over(ux * vx - uy * vy, ux * vy + uy * vx, r, 1 << k)


def _abs_bounds(a: IsolatingBox) -> tuple[Fraction, Fraction]:
    """(lower, upper) bounds on |z| over the disk a; lower >= 0."""
    m = max(abs(a.center[0]), abs(a.center[1]))
    if m == 0:
        return (_ZERO, a.radius)
    k = _unit_bits(a.radius or min(m, _ONE))
    x, y, r = _ball(*a.center, a.radius, k)
    s = math.isqrt(x * x + y * y)  # s <= |x + iy| < s + 1
    return (Fraction(max(0, s - r), 1 << k), Fraction(s + 1 + r, 1 << k))


def _box_add(a: IsolatingBox, b: IsolatingBox, sign: int = 1) -> IsolatingBox:
    """Disk holding u + sign*v for u in a, v in b (sign 1 or -1); a or b has radius > 0."""
    k = _unit_of((a, b))
    return _from_ball(_ball_add(_ball(*a.center, a.radius, k), _ball(*b.center, b.radius, k), sign), k)


def _box_mul(a: IsolatingBox, b: IsolatingBox) -> IsolatingBox:
    """Disk holding u*v for u in a, v in b; a or b has radius > 0."""
    k = _unit_of((a, b))
    return _from_ball(_ball_mul(_ball(*a.center, a.radius, k), _ball(*b.center, b.radius, k), k), k)


def _box_inv(a: IsolatingBox) -> IsolatingBox:
    """Disk holding 1/z for z in a; a must exclude 0.

    The image of the disk (c, r) under z -> 1/z is exactly the disk
    (conj(c), r) / (|c|^2 - r^2), which is then rounded at a unit set by its
    own radius. With c = (x + iy) / d and r = s / d over their common
    denominator d, that disk is (d (x - iy), d s) / (x^2 + y^2 - s^2), all
    integers."""
    d, (x, y, s) = _common(*a.center, a.radius)
    den = x * x + y * y - s * s
    if den <= 0:
        raise ZeroDivisionError("disk inverse of a disk meeting 0")
    k = _unit_bits(Fraction(d * s, den))
    return _from_ball(_over(d * x << k, -d * y << k, d * s << k, den), k)


def _box_horner(coeffs, a: IsolatingBox) -> IsolatingBox:
    """Disk holding sum_k coeffs[k] z^k for z in a, for a.radius > 0; the
    coefficients are ints or Fractions, constant first."""
    k = _unit_bits(a.radius)
    z = _ball(*a.center, a.radius, k)
    v = _ball(coeffs[-1], 0, 0, k)
    for c in reversed(coeffs[:-1]):
        v = _ball_add(_ball_mul(v, z, k), _ball(c, 0, 0, k))
    return _from_ball(v, k)


def _disjoint(a: IsolatingBox, b: IsolatingBox) -> bool:
    _, (ax, ay, ar, bx, by, br) = _common(*a.center, a.radius, *b.center, b.radius)
    return (ax - bx) ** 2 + (ay - by) ** 2 > (ar + br) ** 2


def _contained(inner: IsolatingBox, outer: IsolatingBox) -> bool:
    _, (ix, iy, ir, ox, oy, orad) = _common(*inner.center, inner.radius, *outer.center, outer.radius)
    return ir <= orad and (ix - ox) ** 2 + (iy - oy) ** 2 <= (orad - ir) ** 2


def _point_in(box: IsolatingBox, x, y) -> bool:
    _, (bx, by, r, px, py) = _common(*box.center, box.radius, x, y)
    return (px - bx) ** 2 + (py - by) ** 2 <= r * r


# ---------------------------------------------------------------------------
# numeric seeds: the rungs of the ladder


def _fixed(v, b: int) -> int:
    """The integer nearest v * 2^b, ties to even, for a finite float or mpf
    v, in integer arithmetic."""
    m, e = _dyadic(v)
    s = e + b
    if s >= 0:
        return m << s
    q, r = divmod(m, 1 << -s)
    half = 1 << (-s - 1)
    return q + 1 if r > half or (r == half and q & 1) else q


def _fhorner(cs, z):
    """(q(z), q'(z), sum |c| |z|^k) for the coefficients cs of q, highest
    first, in complex doubles or mpmath mpc, as z is."""
    v, dv, e = cs[0], 0j, abs(cs[0])
    az = abs(z)
    for c in cs[1:]:
        dv = dv * z + v
        v = v * z + c
        e = e * az + abs(c)
    return v, dv, e


def _initial_guesses(coeffs: Sequence[int], exp, rect) -> list:
    """Starting points from the Newton polygon (Bini, Numer. Algorithms 13,
    1996): each edge of the upper hull of (k, log|a_k|) of horizontal length
    m puts m points on a circle of the radius that edge predicts. The logs
    are read from the integer coefficients, so they exist beyond double
    range; exp and rect build the points in the seeder's numbers."""
    n = len(coeffs) - 1
    pts = [(k, math.log(abs(c))) for k, c in enumerate(coeffs) if c]
    hull: list[tuple[int, float]] = []
    for q in pts:
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1])
            - (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])
        ) >= 0:
            hull.pop()
        hull.append(q)
    zs = [0j] * pts[0][0]  # roots at 0
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        m = k2 - k1
        radius = exp((l1 - l2) / m)
        zs.extend(rect(radius, 2 * math.pi * (j / m + k1 / n) + 0.7) for j in range(m))
    return zs


def _aberth_seeds(p: IntPoly, prec: int = 0) -> list[tuple[int, int]] | None:
    """All roots by an Aberth-Ehrlich iteration (Aberth, Math. Comp. 27,
    1973), as integer pairs at the unit 2^-b; None when the iteration does
    not settle within _ABERTH_ITERS sweeps.

    At prec = 0 the iteration runs in builtin complex doubles, b is
    _PREC_START, and a coefficient that overflows a double gives None; at
    prec > 0 it runs in mpmath mpc at prec + 20 bits and b is prec.

    A root is settled when |p(z)| <= 4nu sum_k |a_k| |z|^k, with u the unit
    roundoff, which is about what Horner's own rounding error can reach, or
    when its correction is below u|z|. For |z| > 1 the reversed polynomial
    is evaluated at 1/z instead, so Horner sees no power above 1."""
    n = p.degree
    if prec:
        work, unit, b = mpmath.workprec(prec + 20), mpmath.ldexp(1, -prec - 20), prec
        num, exp, rect = mpmath.mpf, mpmath.exp, mpmath.rect
    else:
        work, unit, b = contextlib.nullcontext(), 2.0 ** -53, _PREC_START
        num, exp, rect = float, math.exp, cmath.rect
    tol = 4 * n * unit
    done = [False] * n
    try:
        with work:
            a = [num(c) for c in p.coeffs]
            hi = a[::-1]
            zs = _initial_guesses(p.coeffs, exp, rect)
            for _ in range(_ABERTH_ITERS):
                for i, z in enumerate(zs):
                    if done[i]:
                        continue
                    if abs(z) <= 1:
                        v, dv, e = _fhorner(hi, z)
                        inv = dv / v if abs(v) > tol * e else None
                    else:
                        w = 1 / z
                        v, dv, e = _fhorner(a, w)
                        # p'/p = (n q - w q') / (z q) for the reversal q(w)
                        inv = (n - w * dv / v) / z if abs(v) > tol * e else None
                    if inv is None:
                        done[i] = True
                        continue
                    step = 1 / (inv - sum(1 / (z - zj) for j, zj in enumerate(zs) if j != i))
                    zs[i] = z - step
                    done[i] = abs(step) <= unit * abs(z)
                if all(done):
                    return [(_fixed(z.real, b), _fixed(z.imag, b)) for z in zs]
    except ArithmeticError:  # an overflow or a zero denominator
        pass
    return None


# ---------------------------------------------------------------------------
# the all-roots certificate


def _certify(p: IntPoly, seeds: list, b: int, snap: int, steps: int) -> tuple[IsolatingBox, ...] | None:
    """Isolating disks, one per root in canonical order, from (x, y) seeds at
    the unit 2^-b, or None when the certificate fails.

    A seed is snapped onto the real axis when |y| <= 2^-snap (1 + |x|) and
    takes `steps` exact Newton steps, and up to two more while its disk is
    not below half the grid step 2^-_ORDER_GRID; see the module docstring.
    The order is by (re, im), real parts rounded to the grid. Each centre is
    within half a step of its root, so roots whose common real part lies on
    the grid sort by imaginary part whatever the last bits of their centres;
    real roots closer than the grid sort by their disjoint disks."""
    n = p.degree
    dp = p.derivative()
    one = 1 << b
    half = 1 << (b - _ORDER_GRID - 1)  # half a grid step, at the unit 2^-b
    disks = []
    for x, y in seeds:
        if abs(y) << snap <= one + abs(x):
            y = 0
        elif y < 0:
            continue
        got = _newton_disk(p, dp, x, y, b)
        for step in range(steps + 2):
            if got is None or (step >= steps and got[0] < half):
                break
            x, y = x + got[1], y + got[2]
            got = _newton_disk(p, dp, x, y, b)
        if got is None:
            return None
        k = got[0]
        if k >= half or (y and k >= y):
            return None
        disks.append((x, y, k))
        if y:
            disks.append((x, -y, k))
        if len(disks) > n:
            return None
    if len(disks) != n:
        return None
    for i, (xi, yi, ki) in enumerate(disks):
        for xj, yj, kj in disks[:i]:
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= (ki + kj) ** 2:
                return None
    disks.sort(key=lambda t: ((t[0] + half) >> (b - _ORDER_GRID), t[1], t[0]))
    return tuple(IsolatingBox((Fraction(x, one), Fraction(y, one)), Fraction(k, one)) for x, y, k in disks)


# ---------------------------------------------------------------------------
# isolation


def _ladder(p: IntPoly):
    """(seeds or None, b, snap, steps) per rung, for _certify: the Aberth
    seeds in doubles at b = _PREC_START with no Newton step, then in mpmath
    at prec = 64, 128, ... bits up to _PREC_CAP, b = prec, with two. A seed
    snaps onto the real axis within about half the bits its seeder carries."""
    yield _aberth_seeds(p), _PREC_START, 26, 0
    prec = _PREC_START
    while prec <= _PREC_CAP:
        yield _aberth_seeds(p, prec), prec, prec // 2, 2
        prec *= 2


@lru_cache(maxsize=256)
def _isolate_cached(coeffs: tuple[int, ...]) -> tuple[IsolatingBox, ...]:
    p = IntPoly(coeffs)
    if p.degree < 1:
        raise NotSquarefree("isolate_roots expects a nonconstant polynomial")
    for rung, (seeds, *how) in enumerate(_ladder(p)):
        boxes = None if seeds is None else _certify(p, seeds, *how)
        if boxes is not None:
            return boxes
        if rung == 0 and not is_squarefree(p):
            raise NotSquarefree("isolate_roots expects a squarefree polynomial")
    raise InternalPrecisionExceeded(f"root isolation for degree {p.degree} exceeded {_PREC_CAP} bits")


def isolate_roots(p: IntPoly) -> list[IsolatingBox]:
    """Pairwise-disjoint certified boxes, one per root, sorted by (re, im)."""
    return list(_isolate_cached(p.coeffs))


# ---------------------------------------------------------------------------
# refinement


def refine(box: IsolatingBox, p: IntPoly, eps: Fraction) -> IsolatingBox:
    """Shrink a certified box to radius <= eps; the result nests inside box.

    Every disk is tested at the unit 2^-b, b = 20 + log2(1/eps) and at least
    _PREC_START, for at most 2 log2(b) steps; see the module docstring. The
    steps before those run at a unit that doubles from about twice the bits
    the box carries, since each Newton step doubles the correct bits."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if box.radius <= eps:
        return box
    bits = (eps.denominator // eps.numerator).bit_length()
    b = max(_PREC_START, bits + 20)
    if b > _PREC_CAP:
        raise InternalPrecisionExceeded(f"refinement to radius 2^-{bits} exceeds {_PREC_CAP} bits")
    dp = p.derivative()
    one = 1 << b
    u = min(b, max(_PREC_START, 2 * (box.radius.denominator // box.radius.numerator).bit_length()))
    x, y = (_trunc(v.numerator << u, v.denominator) for v in box.center)
    while u < b:
        got = _newton_disk(p, dp, x, y, u)
        if got is None:
            break
        w = min(2 * u, b)
        x, y, u = (x + got[1]) << (w - u), (y + got[2]) << (w - u), w
    x, y = x << (b - u), y << (b - u)
    for _ in range(2 * b.bit_length()):
        got = _newton_disk(p, dp, x, y, b)
        if got is None:
            break
        k, sx, sy = got
        if k * eps.denominator <= eps.numerator * one:  # radius k / 2^b <= eps
            cand = IsolatingBox((Fraction(x, one), Fraction(y, one)), Fraction(k, one))
            if _contained(cand, box):
                return cand
        x, y = x + sx, y + sy
    raise InternalPrecisionExceeded(f"Newton refinement to radius 2^-{bits} did not settle at {b} bits")


# ---------------------------------------------------------------------------
# which root an enclosure holds


def _refinements(box: IsolatingBox, p: IntPoly) -> Iterator[IsolatingBox]:
    """box, then refine(box, p, radius / 16) again and again, without end."""
    while True:
        yield box
        box = refine(box, p, box.radius / 16)


def _pin(probes: Iterable[IsolatingBox], polys: Sequence[IntPoly], boxes: list[IsolatingBox]) -> int:
    """Index of the box in boxes that holds the root the probes enclose.

    probes is a stream of ever-smaller disks around one root, and boxes[i]
    is a certified box of one root of polys[i]; the roots are pairwise
    distinct and the probed root is among them. Each probe is checked
    against the boxes it has not yet been found disjoint from; those it
    still meets are refined in place, each with its own polynomial, and the
    first probe that meets exactly one box decides. A probe that meets none
    raises ExactCheckFailed; a stream that ends first raises
    InternalPrecisionExceeded."""
    hits = range(len(boxes))
    for probe in probes:
        hits = [i for i in hits if not _disjoint(probe, boxes[i])]
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise ExactCheckFailed("an enclosure of a root meets no certified candidate box")
        for i in hits:
            boxes[i] = refine(boxes[i], polys[i], boxes[i].radius / 16)
    raise InternalPrecisionExceeded("enclosures ended before one certified box remained")


def _conjugates(boxes: Sequence[IsolatingBox]) -> list[int]:
    """Index of each canonical box's complex conjugate among boxes.

    Isolation gives a nonreal root's conjugate exactly the mirrored disk and
    a real root a real-centred disk, its own mirror, so the conjugate is
    found by lookup. A missing mirror raises ExactCheckFailed."""
    where = {b: i for i, b in enumerate(boxes)}
    try:
        return [where[IsolatingBox((b.center[0], -b.center[1]), b.radius)] for b in boxes]
    except KeyError:
        raise ExactCheckFailed("a nonreal root box has no mirrored box") from None


# ---------------------------------------------------------------------------
# the unit-circle partition


def _circle_status(box: IsolatingBox) -> str | None:
    """'in'/'out' when the disk is strictly off the unit circle, else None."""
    _, (x, y, r, one) = _common(*box.center, box.radius, 1)
    a2 = x * x + y * y
    if a2 > (one + r) ** 2:
        return "out"
    if r < one and a2 < (one - r) ** 2:
        return "in"
    return None


def _in_window(box: IsolatingBox) -> bool | None:
    """True/False when a real disk lies strictly inside (-2, 2) / strictly
    outside [-2, 2], else None."""
    lo, hi = box.center[0] - box.radius, box.center[0] + box.radius
    if -2 < lo and hi < 2:
        return True
    if hi < -2 or lo > 2:
        return False
    return None


def _factor_statuses(q: IntPoly) -> list[str]:
    """Status per canonical root box of a canonical irreducible q: 'in'/'on'/'out'."""
    if q.degree == 1:
        return ["out" if abs(q[0]) > q[1] else "on" if abs(q[0]) == q[1] else "in"]
    kind = reciprocal_test(q)
    boxes = isolate_roots(q)
    if kind == "No":
        # an irreducible non-reciprocal polynomial has no root on the circle
        return [next(s for s in map(_circle_status, _refinements(b, q)) if s) for b in boxes]
    if kind != "Plus":
        raise ExactCheckFailed("an irreducible Minus-reciprocal polynomial is x-1")
    # q(x) = x^k t(x + 1/x): each real root of t in (-2, 2) gives a conjugate
    # pair on the circle. t(2) = q(1) and t(-2) = +-q(-1) are nonzero, so
    # each real box of t settles.
    t = trace_poly(q)
    reals = (b for b in isolate_roots(t) if b.center[1] == 0)
    on_count = 2 * sum(next(w for w in map(_in_window, _refinements(b, t)) if w is not None) for b in reals)
    expect_off = (q.degree - on_count) // 2
    while True:
        statuses = [_circle_status(b) for b in boxes]
        if statuses.count("out") == statuses.count("in") == expect_off:
            return [s or "on" for s in statuses]
        boxes = [b if s else refine(b, q, b.radius / 16) for b, s in zip(boxes, statuses)]


def circle_partition(p: IntPoly) -> CirclePartition:
    """Exact indices of roots with |a| > 1, = 1, < 1 under the canonical order;
    isolate_roots raises NotSquarefree unless p is squarefree and nonconstant."""
    pboxes = isolate_roots(p)
    labels: list[str | None] = [None] * p.degree
    factors = factor_z(p).factors
    for q, _ in factors:
        statuses = _factor_statuses(q)
        if len(factors) == 1 and q == p:
            labels = list(statuses)
            break
        for qb, status in zip(isolate_roots(q), statuses):
            idx = _pin(_refinements(qb, q), [p] * p.degree, pboxes)
            if labels[idx] is not None:
                raise ExactCheckFailed("two factor roots pinned to one root of p")
            labels[idx] = status
    if None in labels:
        raise ExactCheckFailed("a root of p got no factor root")
    return CirclePartition(
        outside=tuple(i for i, s in enumerate(labels) if s == "out"),
        on=tuple(i for i, s in enumerate(labels) if s == "on"),
        inside=tuple(i for i, s in enumerate(labels) if s == "in"),
    )


def signature(p: IntPoly) -> tuple[int, int]:
    """(real embeddings, conjugate complex pairs) of an irreducible p."""
    if not is_irreducible(p):
        raise NotIrreducible("signature is defined for irreducible polynomials")
    r1 = sum(1 for b in isolate_roots(p) if b.center[1] == 0)
    return (r1, (p.degree - r1) // 2)
