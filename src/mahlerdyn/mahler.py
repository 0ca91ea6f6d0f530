"""The measure-iteration dynamical system: exact M, orbits, and verdicts.

M of an algebraic number is |lc| times the product of the conjugates outside
the unit circle. The orbit engine iterates M, stopping on an exact fixed
point, a wandering certificate, a budget limit, or a precision failure (the
last two report Inconclusive; the engine never guesses).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Optional, Union

from .algnum import (
    AlgebraicNumber,
    NumberClass,
    _fine_box,
    _irreducible_factors,
    _real_sign,
    _select_root,
    an_equal,
    an_from_rational,
    an_pow,
    classify_number,
)
from .errors import (
    ExactCheckFailed,
    InternalPrecisionExceeded,
    NotAFixedPoint,
    Record,
    TrichotomyViolation,
    ZeroInput,
)
from .factor import _subset_degree_set, cyclotomic_part
from .intpoly import (
    IntPoly,
    _scaled,
    _subset_product_poly,
    _trace_product_poly,
    canonicalize,
    div_z,
    gcd_z,
    lll_reduce,
    monicize,
    power_map,
    ratio_resolvent,
    reciprocal_test,
    untrace_poly,
)
from .roots import (
    IsolatingBox,
    _abs_bounds,
    _ball,
    _ball_mul,
    _box_add,
    _box_horner,
    _box_inv,
    _from_ball,
    _refinements,
    _unit_of,
    circle_partition,
    isolate_roots,
    refine,
)

_X = IntPoly((0, 1))

DEFAULT_BUDGET = {"max_iters": 12, "max_degree": 512, "max_coeff_bits": 20000}

_EXPONENT_CAP = 64

# the largest product resolvent (subset or pair, see "the measure") the engine
# measures on; past this degree it reports failure instead of grinding
_SUBSET_CAP = 1024


class PowerIdentity(Record):
    """M^k(a) = (M^l(a))^n with k > l >= 1, n >= 2."""

    k: int
    l: int
    n: int


class TorsionFreePower(Record):
    """M^k(a) = a^n with n >= 2 and a torsion-free."""

    k: int
    n: int


class CitedGrowth(Record):
    """Wandering by a cited growth theorem; facts list the equalities and
    inequalities that were verified exactly."""

    tag: str
    facts: tuple[str, ...] = ()


WanderCert = Union[PowerIdentity, TorsionFreePower, CitedGrowth]


class Preperiodic(Record):
    fixed_point: AlgebraicNumber
    number_class: NumberClass


class Wandering(Record):
    certificate: WanderCert


class Inconclusive(Record):
    reason: str


class OrbitResult(Record):
    trace: tuple[AlgebraicNumber, ...]
    verdict: Union[Preperiodic, Wandering, Inconclusive]


# ---------------------------------------------------------------------------
# the measure
#
# The product of s conjugates is computed on a product resolvent, built like
# every other resolvent in the package: power sums of the roots, mapped to
# power sums of the products and turned back into coefficients by Newton's
# identities, so the construction is exact integer arithmetic end to end.
# - In general it is the subset-product resolvent
#   (intpoly._subset_product_poly): the monic integer polynomial whose roots
#   are all s-fold products of roots of the monicized minpoly, of degree
#   C(n, s) instead of the n^s a repeated-resultant fold would pay. When more
#   than half the roots are outside, the complement product is used instead.
# - A monic plus-reciprocal minpoly of degree n = 2m has its roots in m
#   pairs {r_j, 1/r_j}, so its s outside roots are one root from each of s
#   pairs (every measure is an algebraic integer, so every orbit step past
#   the input is monic; the steps of WANDER6's orbit are also palindromic).
#   Their product t is a root of the pair resolvent, of degree
#   N = C(m, s) 2^s: 192 instead of C(12, 5) = 792 for M(WANDER6). Its roots
#   are a sub-multiset of the subset resolvent's and are closed under
#   t -> 1/t, so only its trace resolvent R (intpoly._trace_product_poly) is
#   built, of degree N/2 = 96 there: x^(N/2) R(x + 1/x) is the pair
#   resolvent, and t + 1/t a root of R. M is pinned on the monicized minpoly
#   when s = 1, and among the irreducible factors of the pair resolvent
#   untrace_poly(R) while that is small; past it, a guess Q for the minpoly
#   of M + 1/M is proven on R, and M pinned among the roots of the
#   irreducible factors of untrace_poly(Q) (see "Minpoly guessing").
#
# M itself is the root selected, once. Take c = lc and v_i = root_i over the
# s outside roots or, in the complement case, the reversal x^n p(1/x): c =
# p[0] and v_i = 1/root_i over the other n - s roots. Then M = sigma c
# prod v_i, with sigma = +-1 read exactly from the first enclosure of
# c prod v_i whose real part excludes 0 (the product is real: its roots are
# closed under conjugation). The product w = c^size prod v_i is a root of the
# resolvent res of the monicized minpoly (or of the monicized reversal), so M
# is a root of res(kx) with k = sigma c^(size-1). Scaling keeps each
# irreducible factor f of res irreducible, so M is pinned among the roots of
# the canonical f(kx): nothing past res is factored, res itself only when the
# minpoly's cycle types leave it open, and no image of M's minpoly is isolated
# again. The pinned M is then checked real and positive.


def _product_enclosure(cur, inv: bool, scale: int) -> Optional[IsolatingBox]:
    """scale * prod v over the chosen root disks cur, where v is the root or,
    when inv, its inverse; None while an inverted disk still meets 0.

    The product runs in the fixed-point kernel of roots at the unit of the
    smallest disk: each disk enters once, and the result leaves once."""
    if inv:
        if any(_abs_bounds(b)[0] == 0 for b in cur):
            return None
        cur = [_box_inv(b) for b in cur]
    k = _unit_of(cur)
    enc = (scale << k, 0, 0)
    for b in cur:
        enc = _ball_mul(enc, _ball(*b.center, b.radius, k), k)
    return _from_ball(enc, k)


def _product_enclosures(p: IntPoly, boxes, idx, inv: bool, scale: int) -> Iterator[IsolatingBox]:
    """Ever-smaller enclosures of scale * prod_{i in idx} v_i, v_i = root_i(p)
    or, when inv, 1/root_i(p), over the chosen boxes' _refinements streams
    in step."""
    for cur in zip(*(_refinements(boxes[i], p) for i in idx)):
        enc = _product_enclosure(cur, inv, scale)
        if enc is not None:
            yield enc


# Minpoly guessing. At each rung of the precision ladder the certified boxes
# of the chosen roots are refined to radius 2^-(prec+64), and t is the centre
# of the enclosure of M they give; the enclosure also shows when t cannot be
# real. M is an algebraic integer, so its minpoly is monic, with smaller
# coefficients than that of the product w = kM the resolvent is built on.
# On the trace route the relation is sought for T = t + 1/t, a root of R,
# whose enclosure is the product's plus its inverse. T lies in Q(t), so its
# minpoly Q has degree at most deg q, and half of it when the minpoly q of t
# is reciprocal: 6 instead of 12 for M(M(WANDER6)), found by the D = 8
# lattice at 256 bits where t needs D = 16 at 512 bits. untrace_poly(Q) is q
# when q is reciprocal and q*q^ (q^ the reversal of q, whose roots are the
# 1/t) when it is not; t is pinned among its irreducible factors.
# The powers of the value are fixed-point integers at the unit 2^-(prec+64).
# Then, for D = 4, 8, 16, 32, 64, each cut to top = min(64, cap, prec // 24),
# one (D+1)x(D+2) integer lattice with rows e_i + floor(2^prec * t^i /
# max_{j<=D} |t^j|) is LLL-reduced. Scaling by the largest power, not by
# 2^prec alone, keeps the rounding noise of the big entries below the
# relation's own size. The cap is the largest degree a guess can have: a
# proven guess divides res (R on the trace route), so cap = deg res.
# The lattice has the shape [I | c] with c of about prec bits, so lll_reduce
# feeds c in 64 bits at a time when (D+1)^2 <= prec: every lattice up to 512
# bits, D <= 16 at 1024 bits, D <= 32 at 2048 and 4096 bits. The largest
# (D = 32 and 42 at 1024 bits, 64 above) get one integral LLL run.
# The integer relations of degree <= D are the multiples q*h of the minpoly q
# with deg h <= D - deg q, so the leading reduced rows are such multiples, and
# a single row can be q*(x+c): the candidate is the gcd of the leading rows,
# taken until it drops to a constant, with any factor x stripped. These are
# guesses only; _verified_candidate makes every accept decision exactly, and
# accepts a reducible guess too.


def _candidate_minpolys(p: IntPoly, boxes, idx, inv: bool, scale: int, prec: int, res: IntPoly, trace: bool):
    """Minpoly guesses for t = scale * prod_{i in idx} v_i (as in
    _product_enclosures), or for t + 1/t when trace, via integer relations on
    a high-precision value. res is the polynomial that the guesses must
    divide: it caps their degree. Guesses only; callers must verify."""
    w = prec + 64
    eps = Fraction(1, 1 << w)
    enc = _product_enclosure([refine(boxes[i], p, eps) for i in idx], inv, scale)
    if enc is None or abs(enc.center[1]) > enc.radius:
        return
    if trace:
        enc = _box_add(enc, _box_inv(enc))
    tx = enc.center[0]
    t = (tx.numerator << w) // tx.denominator
    # relations in degree D need roughly D * (coeff bits) working bits;
    # skip degrees this precision level cannot support
    top = min(64, res.degree, prec // 24)
    pows = [1 << w]
    for _ in range(top):
        pows.append((pows[-1] * t) >> w)
    for D in sorted({min(d, top) for d in (4, 8, 16, 32, 64)}):
        big = max(abs(v) for v in pows[:D + 1])
        rows = []
        for i in range(D + 1):
            row = [0] * (D + 2)
            row[i] = 1
            row[D + 1] = (pows[i] << prec) // big
            rows.append(row)
        q = _leading_gcd(lll_reduce(rows), D)
        if q.degree >= 1:
            yield q


def _leading_gcd(reduced, D: int) -> IntPoly:
    """gcd of the polynomials read off the leading reduced rows, taken until
    it would drop to a constant, with any factor x stripped."""
    g = IntPoly(reduced[0][:D + 1])
    for row in reduced[1:]:
        h = gcd_z(g, IntPoly(row[:D + 1]))
        if h.degree < 1:
            break
        g = h
    k = 0
    while g[k] == 0:
        k += 1
    return IntPoly(g.coeffs[k:])


def _plus_inverse(encs) -> Iterator[IsolatingBox]:
    """Enclosures of v + 1/v from those of v, skipping any that meet 0."""
    return (_box_add(e, _box_inv(e)) for e in encs if _abs_bounds(e)[0] > 0)


def _verified_candidate(c, res, encs, trace: bool):
    """Exact proof that the probed value v is a root of c, where encs is a
    stream of shrinking enclosures of t and v is t, or t + 1/t when trace:
    c | res, and the cofactor has no root in a certified enclosure of v (an
    enclosure that excludes the roots of c too contradicts res(v) = 0 and
    raises). The rest of encs then pins t among the roots of the irreducible
    factors of c, or of untrace_poly(c) when trace, so c need not be
    irreducible; the pinned root is t itself, M on the measure's path."""
    c = canonicalize(c)
    if c.degree < 1:
        return None
    h = div_z(res, c)
    if h is None:
        return None
    for enc in itertools.islice(_plus_inverse(encs) if trace else encs, 40):
        if h.degree < 1 or _abs_bounds(_box_horner(h.coeffs, enc))[0] > 0:
            if _abs_bounds(_box_horner(c.coeffs, enc))[0] > 0:
                raise ExactCheckFailed("an enclosure of a resolvent root excludes every root of the resolvent")
            return _select_root(_irreducible_factors(untrace_poly(c) if trace else c), encs)
    return None


_DIRECT_FACTOR_CAP = 24


def _select_product_root(res: IntPoly, p: IntPoly, boxes, idx, inv: bool, c: int, trace: bool,
                         sigma: int) -> AlgebraicNumber:
    """M = sigma c prod_{i in idx} v_i, v_i = root_i(p) or, when inv,
    1/root_i(p), where res is the resolvent of the products
    w = c^size prod v_i (size = len(idx)), p irreducible: the root of res(kx),
    k = sigma c^(size-1), that shrinking certified enclosures of M hold. When
    trace, c = 1, p is plus-reciprocal and res is the trace resolvent R of
    the products: x^(deg R) R(x + 1/x) is their pair resolvent.

    At any degree, M is pinned on the scaled monicized p when size is 1, and
    on the canonical res(kx) when p's cycle types give a subset resolvent the
    degree set {0, deg res} (factor._subset_degree_set). Otherwise, while the
    product resolvent (of degree 2 deg R on the trace route) is at most
    _DIRECT_FACTOR_CAP, it is factored, each irreducible factor f is scaled
    to the canonical f(kx), irreducible too, and the enclosures pin M among
    the roots of the scaled factors. Past it, a relation-guessed multiple q
    of the minpoly of M, or of M + 1/M on the trace route, is proven exactly
    instead (q divides the canonical res(kx), and the cofactor excludes a
    certified disk), and M is pinned among the roots of the irreducible
    factors of q, or of untrace_poly(q). The lattices are no larger than a
    divisor of res can need. When no guess is proven, a product resolvent up
    to degree 64 is factored after all, and a larger one raises
    InternalPrecisionExceeded."""
    scale, shrink = sigma * c, Fraction(1, sigma * c ** (len(idx) - 1))
    encs = _product_enclosures(p, boxes, idx, inv, scale)
    g = monicize(p.reversal() if inv else p)[0]
    if len(idx) == 1 or not trace and _subset_degree_set(g, len(idx), res) == 1 | 1 << res.degree:
        return _select_root([_scaled(g if len(idx) == 1 else res, shrink)], encs)
    full = res.degree << trace
    if full > _DIRECT_FACTOR_CAP:
        target = _scaled(res, shrink)
        for prec in (256, 512, 1024, 2048, 4096):
            for q in _candidate_minpolys(p, boxes, idx, inv, scale, prec, target, trace):
                got = _verified_candidate(q, target, encs, trace)
                if got is not None:
                    return got
        if full > 64:
            raise InternalPrecisionExceeded(
                f"no verified minpoly for a degree-{full} product resolvent")
    factors = [_scaled(f, shrink) for f in _irreducible_factors(untrace_poly(res) if trace else res)]
    return _select_root(factors, encs)


_measure_cache: dict = {}


def mahler_measure(a: AlgebraicNumber) -> AlgebraicNumber:
    """|lc| times the product of all conjugates outside the unit circle."""
    if a.minpoly == _X:
        raise ZeroInput("measure of zero")
    got = _measure_cache.get(a.minpoly)
    if got is None:
        got = _measure_uncached(a.minpoly)
        if len(_measure_cache) < 4096:
            _measure_cache[a.minpoly] = got
    return got


def _measure_uncached(p: IntPoly) -> AlgebraicNumber:
    # the measure depends only on the minimal polynomial, never on which
    # root was handed in, so conjugates share one cache entry
    n = p.degree
    lc = p.lc
    part = circle_partition(p)
    s = len(part.outside)
    if s == 0:
        return an_from_rational(lc)
    if s == n:
        return an_from_rational(abs(p[0]))
    size = min(s, n - s)
    comp = s > n - s
    trace = lc == 1 and not comp and reciprocal_test(p) == "Plus"
    if trace:
        build, deg = _trace_product_poly, math.comb(n // 2, s) << s
    else:
        build, deg = _subset_product_poly, math.comb(n, size)
    if deg > _SUBSET_CAP:
        raise InternalPrecisionExceeded(f"product resolvent degree {deg} over cap")
    boxes = isolate_roots(p)
    idx = tuple(i for i in range(n) if i not in part.outside) if comp else part.outside
    c = p[0] if comp else lc
    sigma = _real_sign(_product_enclosures(p, boxes, idx, comp, c))
    res = build(monicize(p.reversal() if comp else p)[0], size)
    m = _select_product_root(res, p, boxes, idx, comp, c, trace, sigma)
    if m.box.center[1] != 0 or _real_sign(_refinements(m.box, m.minpoly)) < 0:
        raise ExactCheckFailed(f"measure of a degree-{n} number is not real and positive")
    return m


# ---------------------------------------------------------------------------
# certificates


def _log2_abs(a: AlgebraicNumber) -> float:
    """log2 |a| off algnum._fine_box, of radius below 2^-40 |centre|.
    _exponent_candidates keeps only exponents within 1/2 of a ratio of these
    logs, so this accuracy decides what an_equal tests."""
    x, y = _fine_box(a).center
    sq = x * x + y * y
    return (math.log2(sq.numerator) - math.log2(sq.denominator)) / 2 if sq else float("-inf")


def _exponent_candidates(log_num: float, log_den: float) -> list[int]:
    if log_den < 1e-12:
        return []
    ratio = log_num / log_den
    base = round(ratio)
    return [n for n in (base - 1, base, base + 1) if 2 <= n <= _EXPONENT_CAP and abs(ratio - n) < 0.5]


def _torsion_free(a: AlgebraicNumber) -> Optional[bool]:
    """True/False when decided; None when out of scope (degree > 6, not
    Perron). Torsion-free: no ratio a/conjugate is a root of unity.

    The n^2 ratios a_i/a_j of the roots of the minpoly p are the roots of
    ratio_resolvent(p, p). The n diagonal ones are 1, and no other is, since
    p is squarefree: so x - 1 divides it exactly n times. A root of unity
    among the others puts a cyclotomic factor besides x - 1 into its
    cyclotomic part, so that part is (x - 1)^n exactly when no ratio of two
    distinct roots is a root of unity. That answers for the ratios with a
    itself: an automorphism sigma of the splitting field with sigma(a_i) = a
    sends a_i/a_j to a/sigma(a_j), and a root of unity to a root of unity.
    Past degree 6 only a Pisot, Salem or Perron a is decided, as torsion-free:
    by the same automorphism, a root of unity a_i/a_j would give one
    a/sigma(a_j) with |sigma(a_j)| < a, which is impossible."""
    n = a.degree
    if n > 6:
        return True if classify_number(a).tag in ("Pisot", "Salem", "Perron") else None
    x_minus_1_to_n = IntPoly((-1) ** (n - k) * math.comb(n, k) for k in range(n + 1))
    return cyclotomic_part(ratio_resolvent(a.minpoly, a.minpoly)) == x_minus_1_to_n


def wandering_certificate(trace) -> Optional[WanderCert]:
    """First power-identity certificate of the newest measure trace[-1], in
    scan order, if any. orbit calls it on every step, so the earlier
    measures have all been scanned."""
    k = len(trace) - 1
    if k < 1:
        return None
    logs = [_log2_abs(t) for t in trace]

    def is_power(l: int, n: int) -> bool:
        # trace[k] = a^n for a = trace[l] makes minpoly(trace[k]) divide
        # power_map(minpoly(a), n) over Q, so over Z (Gauss's lemma): a
        # failed division proves inequality without building a^n
        return (div_z(power_map(trace[l].minpoly, n), trace[k].minpoly) is not None
                and an_equal(trace[k], an_pow(trace[l], n)))

    for l in range(1, k):
        for n in _exponent_candidates(logs[k], logs[l]):
            if is_power(l, n):
                return PowerIdentity(k, l, n)
    for n in _exponent_candidates(logs[k], abs(logs[0])):
        if is_power(0, n) and _torsion_free(trace[0]):
            return TorsionFreePower(k, n)
    return None


# ---------------------------------------------------------------------------
# orbits


def _assert_trichotomy(nc: NumberClass) -> NumberClass:
    if nc.tag not in ("RationalInteger", "Pisot", "Salem"):
        raise TrichotomyViolation(f"fixed point classified as {nc.tag}")
    return nc


def fixed_point_class(a: AlgebraicNumber) -> NumberClass:
    if not an_equal(mahler_measure(a), a):
        raise NotAFixedPoint("not a fixed point of the measure")
    return _assert_trichotomy(classify_number(a))


def orbit(a: AlgebraicNumber, budget: Optional[dict] = None) -> OrbitResult:
    if a.minpoly == _X:
        raise ZeroInput("orbit of zero")
    b = {**DEFAULT_BUDGET, **(budget or {})}
    trace = [a]
    try:
        while True:
            last = trace[-1]
            if last.minpoly.degree > b["max_degree"]:
                return OrbitResult(tuple(trace), Inconclusive("budget: max_degree exceeded"))
            if last.minpoly.max_coeff_bits() > b["max_coeff_bits"]:
                return OrbitResult(tuple(trace), Inconclusive("budget: max_coeff_bits exceeded"))
            if len(trace) - 1 >= b["max_iters"]:
                return OrbitResult(tuple(trace), Inconclusive("budget: max_iters exhausted"))
            m = mahler_measure(last)
            trace.append(m)
            if an_equal(m, last):
                return OrbitResult(tuple(trace), Preperiodic(m, _assert_trichotomy(classify_number(m))))
            cert = wandering_certificate(trace)
            if cert is not None:
                return OrbitResult(tuple(trace), Wandering(cert))
    except InternalPrecisionExceeded as e:
        return OrbitResult(tuple(trace), Inconclusive(f"precision: {e}"))
