"""The measure-iteration dynamical system: exact M, orbits, and verdicts.

M of an algebraic number is |lc| times the product of the conjugates outside
the unit circle. The orbit engine iterates M, stopping on an exact fixed
point, a wandering certificate, a budget limit, or a precision failure (the
last two report Inconclusive; the engine never guesses).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .algnum import (
    AlgebraicNumber,
    NumberClass,
    an_conjugates,
    an_equal,
    an_from_poly_root,
    an_from_rational,
    an_inv,
    an_mul,
    an_pow,
    an_rational_value,
    an_sign,
    classify_number,
)
from .errors import (
    BoxAmbiguous,
    ExactCheckFailed,
    InternalPrecisionExceeded,
    NotAFixedPoint,
    TrichotomyViolation,
    ZeroInput,
)
from .factor import is_irreducible
from .intpoly import (
    IntPoly,
    _elem_from_power_sums,
    _pair_product_poly,
    _subset_product_poly,
    canonicalize,
    cyclotomic_part,
    div_z,
    gcd_z,
    lll_reduce,
    monicize,
    reciprocal_test,
)
from .roots import (
    IsolatingBox,
    _abs_bounds,
    _box_horner,
    _box_mul,
    circle_partition,
    isolate_roots,
    refine,
)

_X = IntPoly((0, 1))

DEFAULT_BUDGET = {"max_iters": 12, "max_degree": 512, "max_coeff_bits": 20000}

_EXPONENT_CAP = 64

# the largest product resolvent (subset or pair, see "the measure") the engine
# builds; past this degree it reports failure instead of grinding
_SUBSET_CAP = 1024


@dataclass(frozen=True)
class PowerIdentity:
    """M^k(a) = (M^l(a))^n with k > l >= 1, n >= 2."""

    k: int
    l: int
    n: int


@dataclass(frozen=True)
class TorsionFreePower:
    """M^k(a) = a^n with n >= 2 and a torsion-free."""

    k: int
    n: int


@dataclass(frozen=True)
class CitedGrowth:
    """Wandering by a cited growth theorem; facts list the equalities and
    inequalities that were verified exactly."""

    tag: str
    facts: tuple[str, ...] = ()


WanderCert = Union[PowerIdentity, TorsionFreePower, CitedGrowth]


@dataclass(frozen=True)
class Preperiodic:
    fixed_point: AlgebraicNumber
    number_class: NumberClass


@dataclass(frozen=True)
class Wandering:
    certificate: WanderCert


@dataclass(frozen=True)
class Inconclusive:
    reason: str


@dataclass(frozen=True)
class OrbitResult:
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
#   Their product is a root of the pair resolvent
#   (intpoly._pair_product_poly), of degree C(m, s) 2^s: 192 instead of
#   C(12, 5) = 792 for M(WANDER6). Its k-th power sum is e_s(v_1, ..., v_m)
#   with v_j = r_j^k + r_j^-k, and
#     sum_j v_j^i = sum_{l < i/2} C(i, l) p_(k(i-2l)) + [i even] C(i, i/2) m
#   in the power sums p_t of the minpoly. Its roots are a sub-multiset of the
#   subset resolvent's, so it divides that resolvent over Z and its
#   cofactor's roots are among the subset cofactor's: the root selection and
#   its exact checks below are the same on both routes, and certify the
#   product wherever the subset route does.
#
# The product w is a product of lc*root_i, so with s outside roots
# M = |w| / |lc|^(s-1), and in the complement case (n - s roots)
# M = |p[0]| |lc|^(n-s) / |w|. w is checked real first; then M is one exact
# rational map of w (a scaling by sign(w)/|lc|^(s-1), or an inversion and a
# scaling by sign(w) |p[0]| |lc|^(n-s)). Both keep the minpoly irreducible,
# so nothing past the product is factored.


def _product_enclosure(cur, idx, lc: int) -> IsolatingBox:
    enc = IsolatingBox((Fraction(lc ** len(idx)), Fraction(0)), Fraction(0))
    for i in idx:
        enc = _box_mul(enc, cur[i])
    return enc


# Minpoly guessing. At each rung of the precision ladder the certified boxes
# of the chosen roots are refined to radius 2^-(prec+64), and t is the centre
# of their product enclosure; the enclosure also shows when t cannot be real.
# The powers t^i are fixed-point integers at the same unit 2^-(prec+64). Then,
# for D = 4, 8, 16, ... up to top = min(64, max(4, prec // 24)), one
# (D+1)x(D+2) integer lattice with rows e_i + floor(2^prec * t^i / max_{j<=D}
# |t^j|) is LLL-reduced. Scaling by the largest power, not by 2^prec alone,
# keeps the rounding noise of the big entries below the relation's own size.
# The lattice has the shape [I | c] with c of about prec bits, so lll_reduce
# feeds c in 64 bits at a time when (D+1)^2 <= prec: every lattice up to 512
# bits, D <= 16 at 1024 bits, D <= 32 at 2048 and 4096 bits. The largest
# (D = 32 and 42 at 1024 bits, 64 above) get one integral LLL run.
# The integer relations of degree <= D are the multiples q*h of the minpoly q
# with deg h <= D - deg q, so the leading reduced rows are such multiples, and
# a single row can be q*(x+c): the candidate is the gcd of the leading rows,
# taken until it drops to a constant, with any factor x stripped. These are
# guesses only; _verified_candidate makes every accept decision exactly.


def _candidate_minpolys(p: IntPoly, boxes, idx, lc: int, prec: int):
    """Minpoly guesses for prod_{i in idx} lc*root_i(p) via integer relations
    on a high-precision value. Guesses only; callers must verify."""
    w = prec + 64
    eps = Fraction(1, 1 << w)
    enc = _product_enclosure({i: refine(boxes[i], p, eps) for i in idx}, idx, lc)
    tx, ty = enc.center
    if abs(ty) > enc.radius:
        return
    t = (tx.numerator << w) // tx.denominator
    # relations in degree D need roughly D * (coeff bits) working bits;
    # skip degrees this precision level cannot support
    top = min(64, max(4, prec // 24))
    pows = [1 << w]
    for _ in range(top):
        pows.append((pows[-1] * t) >> w)
    D = 4
    while True:
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
        if D == top:
            return
        D = min(2 * D, top)


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


def _verified_candidate(q, res, p, boxes, idx, lc):
    """Exact proof that irreducible q is the minpoly of the subset product:
    q | res, and the cofactor has no root in a certified enclosure of the
    product, which therefore must be the (unique) q-root it contains."""
    q = canonicalize(q)
    if q.degree < 1:
        return None
    h = div_z(res, q)
    if h is None or not is_irreducible(q):
        return None
    cur = {i: boxes[i] for i in idx}
    for _ in range(40):
        enc = _product_enclosure(cur, idx, lc)
        if h.degree < 1 or _abs_bounds(_box_horner(h.coeffs, enc))[0] > 0:
            try:
                return an_from_poly_root(q, enc)
            except BoxAmbiguous:
                pass
        cur = {i: refine(b, p, b.radius / 16) for i, b in cur.items()}
    return None


_DIRECT_FACTOR_CAP = 24


def _select_product_root(res: IntPoly, p: IntPoly, boxes, idx, lc: int) -> AlgebraicNumber:
    """The root of res equal to prod_{i in idx} lc*root_i(p), identified by a
    shrinking certified enclosure.

    Large res is never factored: a relation-guessed minpoly is proven exactly
    instead (divisibility plus disk exclusion of the cofactor)."""
    if res.degree > _DIRECT_FACTOR_CAP:
        for prec in (256, 512, 1024, 2048, 4096):
            for q in _candidate_minpolys(p, boxes, idx, lc, prec):
                got = _verified_candidate(q, res, p, boxes, idx, lc)
                if got is not None:
                    return got
        if res.degree > 64:
            raise InternalPrecisionExceeded(
                f"no verified minpoly for a degree-{res.degree} subset product")
    cur = {i: boxes[i] for i in idx}
    while True:
        try:
            return an_from_poly_root(res, _product_enclosure(cur, idx, lc))
        except BoxAmbiguous:
            cur = {i: refine(b, p, b.radius / 16) for i, b in cur.items()}


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
    if lc == 1 and not comp and reciprocal_test(p) == "Plus":
        build, deg = _pair_product_poly, math.comb(n // 2, s) << s
    else:
        build, deg = _subset_product_poly, math.comb(n, size)
    if deg > _SUBSET_CAP:
        raise InternalPrecisionExceeded(f"product resolvent degree {deg} over cap")
    boxes = isolate_roots(p)
    idx = tuple(i for i in range(n) if i not in part.outside) if comp else part.outside
    w = _select_product_root(build(monicize(p)[0], size), p, boxes, idx, lc)
    if w.box.center[1] != 0:
        raise ExactCheckFailed(f"measure of a degree-{n} number is not real")
    if comp:
        return an_mul(an_inv(w), an_from_rational(an_sign(w) * abs(p[0]) * abs(lc) ** (n - s)))
    c = Fraction(an_sign(w), abs(lc) ** (s - 1))
    return w if c == 1 else an_mul(w, an_from_rational(c))


# ---------------------------------------------------------------------------
# certificates


def _log2_abs(a: AlgebraicNumber) -> float:
    """Approximate log2 |a| from a box refined to 60 bits."""
    box = refine(a.box, a.minpoly, Fraction(1, 1 << 60))
    sq = box.center[0] ** 2 + box.center[1] ** 2
    if sq == 0:
        return float("-inf")
    num, den = sq.numerator, sq.denominator
    shift = num.bit_length() - den.bit_length()
    if shift >= 0:
        den <<= shift
    else:
        num <<= -shift
    return (shift + math.log2(num / den)) / 2.0


def _exponent_candidates(log_num: float, log_den: float) -> list[int]:
    if log_den < 1e-12:
        return []
    ratio = log_num / log_den
    base = round(ratio)
    return [n for n in (base - 1, base, base + 1) if 2 <= n <= _EXPONENT_CAP and abs(ratio - n) < 0.5]


def _is_root_of_unity(a: AlgebraicNumber) -> bool:
    if a.degree == 1:
        return an_rational_value(a) in (1, -1)
    return cyclotomic_part(a.minpoly) == a.minpoly


def _torsion_free(a: AlgebraicNumber) -> Optional[bool]:
    """True/False when decided; None when out of scope (degree > 6, not
    Perron). Torsion-free: no ratio a/conjugate is a root of unity."""
    nc = classify_number(a)
    if nc.tag in ("Pisot", "Salem", "Perron"):
        return True
    if nc.tag == "RootOfUnity":
        return False
    if a.degree == 1:
        return True
    if a.degree > 6:
        return None
    inv_a = an_inv(a)
    for conj in an_conjugates(a):
        if conj.box == a.box:
            continue
        if _is_root_of_unity(an_mul(conj, inv_a)):
            return False
    return True


def wandering_certificate(trace) -> Optional[WanderCert]:
    """First power-identity certificate in scan order, if any."""
    if len(trace) < 2:
        return None
    logs = [_log2_abs(t) for t in trace]
    for k in range(2, len(trace)):
        for l in range(1, k):
            for n in _exponent_candidates(logs[k], logs[l]):
                if an_equal(trace[k], an_pow(trace[l], n)):
                    return PowerIdentity(k, l, n)
    alpha = trace[0]
    tf: Optional[bool] = None
    for k in range(1, len(trace)):
        for n in _exponent_candidates(logs[k], abs(logs[0])):
            if an_equal(trace[k], an_pow(alpha, n)):
                if tf is None:
                    tf = _torsion_free(alpha)
                if tf:
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
