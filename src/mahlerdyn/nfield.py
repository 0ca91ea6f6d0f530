"""Arithmetic in a fixed number field Q(theta).

Certified embeddings, automorphism discovery with exact verification, unit
sublattices of Z[theta], and the conjugate-pattern search that produces units
with a prescribed distribution of conjugate absolute values.
Aut(K) is one table keyed by certified embedding permutations
(`nf_automorphisms`): composition is an index lookup on the keys, and an
element is read only to apply it.
Every decision on conjugate moduli reads log|sigma_j(x)| intervals from one
source, `_place_logs`, as ints at the unit 2^-(prec + _GUARD) on rung prec of
one bounded ladder, `_LAYOUT_PREC`. The log map is additive on units, so a
lattice unit prod g_i^e_i is decided on sum e_i log|sigma_j(g_i)| (`_product_logs`).
"""

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

import mpmath as mp

from .algnum import AlgebraicNumber, _irreducible_factors, _select_root, an_from_rational
from .errors import (
    AutomorphismsUndecided,
    ExactCheckFailed,
    InternalPrecisionExceeded,
    NotFound,
    NotIrreducible,
    NotMonic,
    RankDeficient,
    Record,
)
from .factor import _root_counts, is_irreducible
from .intpoly import (
    IntPoly,
    lll_reduce,
    resultant,
    transform_resolvent,
)
from .roots import (
    _GUARD,
    IsolatingBox,
    _abs_bounds,
    _box_horner,
    _common,
    _conjugates,
    _dyadic,
    _pin,
    isolate_roots,
    refine,
    signature,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)

_H_CAP = 64  # coordinate-bound ladder limit for unit enumeration
_E_CAP = 8  # exponent-bound ladder limit for pattern search
_AUTO_PREC = (192, 384, 768, 1536)  # discovery ladder, bits
_AUT_PRIMES = 40  # good primes the Frobenius bound tries at most
# log interval ladder, bits, for the unit rank test (rungs 0-1), the minor
# check (0-2), layouts of exponent vectors, and classify's signs, D5 test
# and product-recurrence chains.
# Open at the 6144-bit cap refutes a strict relation, or raises where a rung
# must settle it.
_LAYOUT_PREC = (96, 384, 1536, 6144)


# ---------------------------------------------------------------------------
# types


class FieldElement(Record):
    """Power-basis coordinates (c0 + c1*theta + ... + c_{n-1}*theta^{n-1})."""

    coords: tuple[Fraction, ...]


class NumberField(Record):
    defining: IntPoly
    degree: int
    signature: tuple[int, int]
    embeddings: tuple[IsolatingBox, ...]


class UnitSublattice(Record):
    """Units that nf_pattern_search takes products of (nf_unit_sublattice
    returns ones of certified rank r1 + r2 - 1). logs[i] is the
    _place_logs of generators[i], a cache that equality and hashing ignore:
    logs[i][prec](j) is log|sigma_j(generators[i])| on rung prec of
    _LAYOUT_PREC (conjugate embeddings share one interval)."""

    generators: tuple[FieldElement, ...]
    logs: tuple

    _hidden = ("logs",)


class ConjugatePattern(Record):
    """Required layout of |sigma_i(x)| over the embedding indices.

    order: levels of embedding indices; every value in a level strictly
    exceeds every value in the next level. one_position: how many leading
    levels lie above 1 (all remaining levels lie strictly below 1). extras:
    product constraints (indices, rel) meaning prod |sigma_i(x)| rel 1 with
    rel in {"<", ">", "!="}. Every constraint is strict, so a tie refutes
    the pattern.
    """

    order: tuple[tuple[int, ...], ...]
    one_position: int
    extras: tuple[tuple[tuple[int, ...], str], ...] = ()


# ---------------------------------------------------------------------------
# construction and element arithmetic


def nf_new(defining: IntPoly) -> NumberField:
    if defining.is_zero or defining.degree < 1 or defining.lc != 1:
        raise NotMonic("defining polynomial must be monic of degree >= 1")
    if not is_irreducible(defining):
        raise NotIrreducible("defining polynomial must be irreducible")
    return NumberField(
        defining=defining,
        degree=defining.degree,
        signature=signature(defining),
        # refined once to 2^-120, so that nf_embed starts near the radii asked of it
        embeddings=tuple(refine(b, defining, Fraction(1, 1 << 120)) for b in isolate_roots(defining)),
    )


def nf_element(K: NumberField, coords: Sequence) -> FieldElement:
    cs = [Fraction(c) for c in coords]
    if len(cs) > K.degree:
        return _from_numerators(K, *_common(*cs))
    cs.extend([_ZERO] * (K.degree - len(cs)))
    return FieldElement(tuple(cs))


def fe_rational(K: NumberField, v) -> FieldElement:
    return nf_element(K, [Fraction(v)])


def fe_theta(K: NumberField) -> FieldElement:
    if K.degree == 1:
        # theta is the rational root itself
        return fe_rational(K, -Fraction(K.defining[0]))
    return nf_element(K, [0, 1])


def fe_is_zero(x: FieldElement) -> bool:
    return all(c == 0 for c in x.coords)


def fe_is_rational(x: FieldElement) -> bool:
    return all(c == 0 for c in x.coords[1:])


def _from_numerators(K: NumberField, den: int, a: list[int]) -> FieldElement:
    """The element (sum a[k] theta^k) / den: the integers a are reduced mod
    the monic defining polynomial in place, then each coordinate is divided
    once."""
    f, n = K.defining, K.degree
    while len(a) > n:
        top = a.pop()
        if top:
            for k in range(n):
                a[len(a) - n + k] -= top * f[k]
    a.extend([0] * (n - len(a)))
    return FieldElement(tuple(Fraction(c, den) for c in a))


def fe_add(K: NumberField, x: FieldElement, y: FieldElement) -> FieldElement:
    return FieldElement(tuple(a + b for a, b in zip(x.coords, y.coords)))


def fe_sub(K: NumberField, x: FieldElement, y: FieldElement) -> FieldElement:
    return FieldElement(tuple(a - b for a, b in zip(x.coords, y.coords)))


def fe_neg(K: NumberField, x: FieldElement) -> FieldElement:
    return FieldElement(tuple(-a for a in x.coords))


def fe_mul(K: NumberField, x: FieldElement, y: FieldElement) -> FieldElement:
    da, a = _common(*x.coords)
    db, b = _common(*y.coords)
    prod = [0] * (2 * K.degree - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                prod[i + j] += u * v
    return _from_numerators(K, da * db, prod)


def fe_inv(K: NumberField, x: FieldElement) -> FieldElement:
    """Inverse from a characteristic polynomial: if chi(t) = sum a_k t^k
    vanishes at x, then x^-1 = -(sum_{k>=1} a_k x^(k-1)) / a_0."""
    if fe_is_zero(x):
        raise ZeroDivisionError("field element 0 has no inverse")
    if fe_is_rational(x):
        return fe_rational(K, 1 / x.coords[0])
    a = _char_poly(K, x).coeffs
    s = _fe_horner(K, a[1:], x)
    return FieldElement(tuple(c / -a[0] for c in s.coords))


def _char_poly(K: NumberField, x: FieldElement) -> IntPoly:
    """Integer polynomial proportional to the characteristic polynomial of x."""
    den, a = _common(*x.coords)
    return transform_resolvent(K.defining, IntPoly(a), den)


def _minpoly(K: NumberField, x: FieldElement) -> IntPoly:
    """The canonical minimal polynomial of x: the characteristic polynomial
    is a power of it, so it is that polynomial's one irreducible factor."""
    return _irreducible_factors(_char_poly(K, x))[0]


def _fe_horner(K: NumberField, coeffs: Sequence, g: FieldElement) -> FieldElement:
    """sum_k coeffs[k] g^k in K."""
    acc = fe_rational(K, 0)
    for c in reversed(coeffs):
        acc = fe_mul(K, acc, g)
        if c:
            acc = fe_add(K, acc, fe_rational(K, c))
    return acc


def fe_pow(K: NumberField, x: FieldElement, e: int) -> FieldElement:
    if e < 0:
        return fe_pow(K, fe_inv(K, x), -e)
    out = fe_rational(K, 1)
    base = x
    while e:
        if e & 1:
            out = fe_mul(K, out, base)
        base = fe_mul(K, base, base)
        e >>= 1
    return out


def nf_apply(K: NumberField, g: FieldElement, x: FieldElement) -> FieldElement:
    """Image of x under the automorphism sending theta to g."""
    return _fe_horner(K, x.coords, g)


def nf_embedding_permutation(K: NumberField, g: FieldElement) -> tuple[int, ...]:
    """Permutation pi with sigma_g(x) at embedding i = x at embedding pi(i).

    pi(i) is the index of the root box that g evaluated on embedding i lands
    in, pinned by evaluation balls of radius 2^-64, 2^-128, ...
    """
    boxes = list(K.embeddings)
    return tuple(
        _pin((nf_embed(K, g, i, 64 << k) for k in itertools.count()), [K.defining] * K.degree, boxes)
        for i in range(K.degree)
    )


# ---------------------------------------------------------------------------
# norms and embeddings


def nf_norm(K: NumberField, x: FieldElement) -> Fraction:
    if fe_is_zero(x):
        return _ZERO
    if fe_is_rational(x):
        return x.coords[0] ** K.degree
    den, a = _common(*x.coords)
    # N(x) = prod G(root_i)/den = Res(f, G)/den^n for monic f, G = sum a_k x^k
    return Fraction(resultant(K.defining, IntPoly(a)), den**K.degree)


def nf_embed(K: NumberField, x: FieldElement, place: int, precision: int) -> IsolatingBox:
    """Certified ball of radius <= 2^-precision around sigma_place(x)."""
    target = Fraction(1, 1 << precision)
    box = K.embeddings[place]
    eps = min(box.radius, Fraction(1, 1 << max(32, precision)))
    for _ in range(24):
        box = refine(box, K.defining, eps)
        val = _box_horner(x.coords, box)
        if val.radius <= target:
            return val
        eps /= Fraction(1 << 64)
    raise InternalPrecisionExceeded(f"embedding of width 2^-{precision} not reached")


# ---------------------------------------------------------------------------
# conjugate pairing of embeddings


def _conjugate_pairs(K: NumberField) -> list[int]:
    """The index of each embedding's complex conjugate (see roots._conjugates)."""
    return _conjugates(K.embeddings)


# ---------------------------------------------------------------------------
# automorphisms


def nf_automorphisms(K: NumberField) -> dict[tuple[int, ...], FieldElement]:
    """All automorphisms of K, as a dict from embedding permutations to
    images of theta.

    The key pi of the automorphism sigma reads sigma(x) at embedding i as x
    at embedding pi(i). Aut(K) acts freely on the n embeddings, so pi
    determines sigma, and the key of sigma_p o sigma_q is
    tuple(q[i] for i in p) (`_compose_keys`). Keys are pinned, never
    guessed: a key is nf_embedding_permutation of its element, and the
    identity's is tuple(range(n)). A composed key is checked against its
    pin: its element is one nf_apply, and ExactCheckFailed is raised when
    that element's pin differs.

    The count is exact. The upper bound comes from Frobenius patterns
    (`_aut_upper_bound`): Aut(K) permutes the roots of f freely, and for a
    good prime p it maps the roots in F_p to roots in F_p, so |Aut(K)|
    divides their number. The lower bound is the table found so far:
    candidates come from integer-relation (LLL) reconstruction between the
    base embedding and each other embedding, and a candidate is accepted
    only when f(g) = 0 mod f holds in exact arithmetic.

    The search is rung-major: every candidate embedding is tried at 192
    bits, then every one again at 384, and so on up to the top of
    `_AUTO_PREC`, so the automorphisms visible at 192 bits are all found
    before any higher rung runs. After each accepted root the table is
    closed under composition, and the search stops once its size equals the
    bound; a bound of 1 needs no search. If the ladder ends below the bound,
    or a refinement exceeds its precision cap, AutomorphismsUndecided names
    both numbers: a partial table is never returned.
    """
    f, n = K.defining, K.degree
    table = {tuple(range(n)): fe_theta(K)}
    bound, _ = _aut_upper_bound(f)
    if bound == 1:
        return table
    base = next((i for i, b in enumerate(K.embeddings) if b.center[1] == 0), 0)
    base_real = K.embeddings[base].center[1] == 0
    # the image of a root under a real embedding is a real root
    todo = [
        j
        for j in range(n)
        if j != base and not (base_real and K.embeddings[j].center[1] != 0)
    ]
    boxes = list(K.embeddings)
    try:
        for prec in _AUTO_PREC:
            eps = Fraction(1, 1 << (prec + 16))
            boxes[base] = refine(boxes[base], f, eps)
            for j in todo:
                boxes[j] = refine(boxes[j], f, eps)
                g = _root_in_field(K, boxes[base], boxes[j], prec)
                if g is None:
                    continue
                table[nf_embedding_permutation(K, g)] = g
                _close_under_composition(K, table)
                if len(table) == bound:
                    if bound == n:
                        _verify_group_closure(table)
                    return table
    except InternalPrecisionExceeded as exc:
        raise AutomorphismsUndecided(len(table), bound) from exc
    raise AutomorphismsUndecided(len(table), bound)


def _aut_upper_bound(f: IntPoly) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Upper bound on |Aut(K)| for K = Q[x]/(f), f monic irreducible.

    For a good prime p, one modulo which f stays squarefree (for monic f, p
    does not divide disc(f)), the roots of f in F_p are the Frobenius-fixed
    roots, and by Dedekind their number is that of the linear factors of f
    mod p (factor._root_counts). Aut(K) permutes them freely, so |Aut(K)|
    divides it. Returns the gcd of the degree and these counts over at most
    _AUT_PRIMES good primes, with the (p, count) pairs that lowered it.
    """
    bound, witnesses = f.degree, []
    for p, count in itertools.islice(_root_counts(f), _AUT_PRIMES if bound > 1 else 0):
        if math.gcd(bound, count) < bound:
            bound = math.gcd(bound, count)
            witnesses.append((p, count))
            if bound == 1:
                break
    return bound, tuple(witnesses)


def _aut_bound_reason(f: IntPoly) -> str:
    """The primes and linear-factor counts behind the Frobenius bound."""
    bound, witnesses = _aut_upper_bound(f)
    counts = ", ".join(f"{c} linear factors mod {p}" for p, c in witnesses)
    return f"|Aut(K)| divides {bound}, as f has {counts}"


def _root_in_field(
    K: NumberField, b0: IsolatingBox, bj: IsolatingBox, prec: int
) -> Optional[FieldElement]:
    """A verified root of f in K guessed from the relation between the two
    embeddings at one rung, or None."""
    rows = _relation_lattice(b0, bj, K.degree, prec)
    for cand in _short_relations(rows, K.degree):
        g = nf_element(K, cand)
        if _is_root_of_defining(K, g):
            return g
    return None


def _relation_lattice(b0: IsolatingBox, bj: IsolatingBox, n: int, prec: int):
    scale = 1 << prec
    # exact dyadic powers of the base-root center
    px, py = _ONE, _ZERO
    cols = []
    for _ in range(n):
        cols.append((px, py))
        px, py = (
            px * b0.center[0] - py * b0.center[1],
            px * b0.center[1] + py * b0.center[0],
        )
    cols.append((bj.center[0], bj.center[1]))
    rows = []
    for k in range(n + 1):
        unit = [0] * (n + 1)
        unit[k] = 1
        re, im = cols[k]
        rows.append(unit + [round(re * scale), round(im * scale)])
    return rows


def _short_relations(rows, n: int):
    for row in lll_reduce(rows):
        a = row[n]
        if a == 0:
            continue
        yield [Fraction(-row[k], a) for k in range(n)]


def _is_root_of_defining(K: NumberField, g: FieldElement) -> bool:
    return fe_is_zero(_fe_horner(K, K.defining.coeffs, g))


def _compose_keys(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The key of sigma_p o sigma_q: it reads x at embedding q(p(i))."""
    return tuple(q[i] for i in p)


def _close_under_composition(K: NumberField, table: dict) -> None:
    """Adds every composition of the table's automorphisms, rounds of all
    pairs on the keys until none is new. A new key's element is one nf_apply,
    and its pinned key must be the composed one."""
    grown = True
    while grown:
        grown = False
        for p, q in itertools.product(list(table), repeat=2):
            r = _compose_keys(p, q)
            if r not in table:
                g = nf_apply(K, table[p], table[q])
                if nf_embedding_permutation(K, g) != r:
                    raise ExactCheckFailed("a composed automorphism is pinned off its composed key")
                table[r] = g
                grown = True


def _verify_group_closure(table: dict) -> None:
    """The keys hold the identity and every composition of two keys."""
    keys = set(table)
    n = len(next(iter(keys)))
    if tuple(range(n)) not in keys:
        raise ExactCheckFailed("identity automorphism missing")
    if any(_compose_keys(p, q) not in keys for p in keys for q in keys):
        raise ExactCheckFailed("automorphisms not closed under composition")


# ---------------------------------------------------------------------------
# certified log intervals


def _log_interval(lo: Fraction, hi: Fraction, prec: int) -> tuple[int, int]:
    """Certified enclosure of [log lo, log hi] for 0 < lo <= hi, as ints at
    the unit 2^-(prec + _GUARD): mpmath at max(100, prec) + 20 bits, each end
    read exactly and rounded outward to the unit, then padded by
    (1 + max |log|) * 2^-max(100, prec), rounded up to whole units."""
    if lo <= 0:
        raise ExactCheckFailed("log of a modulus interval that reaches 0")
    bits = max(100, prec)
    with mp.workprec(bits + 20):
        llo = mp.log(mp.mpf(lo.numerator) / mp.mpf(lo.denominator))
        lhi = mp.log(mp.mpf(hi.numerator) / mp.mpf(hi.denominator))
        top = int(max(abs(llo), abs(lhi)))
    unit = prec + _GUARD
    pad = -(-(1 + top) << unit >> bits)
    (m, e), (n, f) = _dyadic(llo), _dyadic(lhi)
    return _floor_at(m, e + unit) - pad, -_floor_at(-n, f + unit) + pad


def _floor_at(m: int, s: int) -> int:
    """floor(m 2^s)."""
    return m << s if s >= 0 else m >> -s


def _log_abs(K: NumberField, x: FieldElement, place: int, prec: int) -> Optional[tuple[int, int]]:
    """Certified interval for log|sigma_place(x)| from a ball of radius
    2^-prec, as ints at the unit 2^-(prec + _GUARD), or None while that ball
    still reaches 0."""
    lo, hi = _abs_bounds(nf_embed(K, x, place, prec))
    return _log_interval(lo, hi, prec) if lo > 0 else None


def _place_logs(K: NumberField, x: FieldElement) -> dict:
    """Per rung prec of _LAYOUT_PREC, j -> log|sigma_j(x)| for a nonzero x, as
    ints at the unit 2^-(prec + _GUARD): the interval of a ball of radius
    2^-prec or finer, rounded outward once per place and rung. A place is
    computed when first needed, and conjugate embeddings share it. A ball's
    precision doubles until it excludes 0; later rungs reuse that climb,
    shifting its ints to their coarser unit."""
    pairs = _conjugate_pairs(K)
    known: dict = {}  # place -> (bits, interval at the unit 2^-(bits + _GUARD))

    @functools.cache
    def log(prec, j):
        if pairs[j] < j:
            return log(prec, pairs[j])
        bits, iv = known.get(j, (0, None))
        while bits < prec or iv is None:
            bits = max(prec, 2 * bits)
            iv = _log_abs(K, x, j, bits)
        known[j] = bits, iv
        return iv[0] >> (bits - prec), -(-iv[1] >> (bits - prec))

    return {prec: functools.partial(log, prec) for prec in _LAYOUT_PREC}


def _product_logs(logs: Sequence[dict], exps: Sequence[int]) -> dict:
    """The _place_logs of prod g_i^exps[i] from the _place_logs logs of the
    g_i: log|sigma_j| is additive on units, so the sum of exps[i] times their
    intervals on a rung encloses it, at the same unit. Summed on every read."""
    terms = [(log, e) for log, e in zip(logs, exps) if e]

    def at(prec):
        return lambda j: functools.reduce(_iv_add, (_iv_scale(lg[prec](j), e) for lg, e in terms), (0, 0))

    return {prec: at(prec) for prec in _LAYOUT_PREC}


# interval helpers over (lo, hi) pairs of ints


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_scale(a, k: int):
    return (k * a[0], k * a[1]) if k >= 0 else (k * a[1], k * a[0])


def _iv_mul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _iv_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _interval_rank(rows) -> bool:
    """Whether the interval rows are certified linearly independent.

    Division-free Gaussian elimination where every pivot interval must
    exclude 0: against each earlier pivot row q, row <- p*row - a*q, with p
    the pivot interval and a the row's entry in its column. On every
    selection from the intervals that step is an invertible row operation,
    since p excludes 0, so the true matrix keeps its rank, and k certified
    pivots prove rank >= k for it.
    """
    pivots: list[tuple[list, int]] = []
    for row in rows:
        for q, pc in pivots:
            p, a = q[pc], row[pc]
            row = [_iv_sub(_iv_mul(p, v), _iv_mul(a, w)) for v, w in zip(row, q)]
        taken = {pc for _, pc in pivots}
        pivot = next((c for c, v in enumerate(row) if c not in taken and (v[0] > 0 or v[1] < 0)), None)
        if pivot is None:
            return False
        pivots.append((row, pivot))
    return True


# ---------------------------------------------------------------------------
# unit sublattice


def nf_unit_sublattice(K: NumberField) -> UnitSublattice:
    """A full-rank sublattice of units from Z[theta] coordinates.

    Enumerates integer coordinate vectors by sup-norm rungs h = 1, 2, 4, ...
    up to _H_CAP, each rung only the band prev < sup-norm <= h (_sup_band,
    so no rung repeats an earlier one), keeps exact norm +-1 elements, and
    greedily collects generators until the rows of log|sigma_j| over one
    column per place (j <= its conjugate) have certified rank r1+r2-1 on
    rung 0 or 1 of _LAYOUT_PREC. A candidate is kept only when its row adds
    a certified pivot; a root of unity's log row is exactly 0, so no
    enclosure of it ever does. One _place_logs per candidate serves every
    test.
    """
    r1, r2 = K.signature
    rank_target = r1 + r2 - 1
    if rank_target < 1:
        raise RankDeficient("unit rank r1+r2-1 is zero for this field")
    pairs = _conjugate_pairs(K)
    cols = [j for j in range(K.degree) if j <= pairs[j]]
    gens: list[FieldElement] = []
    logs: list[dict] = []  # _place_logs of gens
    h, prev = 1, 0
    while h <= _H_CAP:
        for u in _coord_rung(K, prev, h):
            log = _place_logs(K, u)
            rows = logs + [log]
            if any(_interval_rank(_log_rows(rows, cols, prec)) for prec in _LAYOUT_PREC[:2]):
                gens.append(u)
                logs.append(log)
                if len(gens) == rank_target:
                    if not _square_minor_certified(logs, cols[:rank_target]):
                        raise RankDeficient(
                            "full-rank log matrix failed its determinant check"
                        )
                    return UnitSublattice(tuple(gens), tuple(logs))
        prev, h = h, h * 2
    raise RankDeficient(f"unit search exhausted coordinate bound {_H_CAP}")


def _log_rows(logs, cols, prec) -> list:
    """Per _place_logs in logs, its intervals at rung prec over cols."""
    return [[log[prec](j) for j in cols] for log in logs]


def _square_minor_certified(logs, cols) -> bool:
    """Whether the square log matrix of logs over the places cols is certified
    nonsingular: len(cols) certified pivots of _interval_rank prove its
    determinant nonzero. Tried on rungs 0-2 of _LAYOUT_PREC before it fails."""
    return any(_interval_rank(_log_rows(logs, cols, prec)) for prec in _LAYOUT_PREC[:3])


def _sup_band(n: int, prev: int, h: int):
    """Integer vectors of length n with prev < sup-norm <= h, in the
    lexicographic order of itertools.product(range(-h, h + 1), repeat=n).

    Once a coordinate exceeds prev the rest is the whole cube; otherwise the
    rest must itself lie in the band, so no vector is built only to be
    skipped. The band of prev = -1, h = 0 is the zero vector alone.
    """
    if n == 0:
        if prev < 0:
            yield ()
        return
    for c in range(-h, h + 1):
        if abs(c) > prev:
            rest = itertools.product(range(-h, h + 1), repeat=n - 1)
        else:
            rest = _sup_band(n - 1, prev, h)
        yield from map((c,).__add__, rest)


def _coord_rung(K: NumberField, prev: int, h: int):
    """Units with integer coordinate vectors of prev < sup-norm <= h."""
    approx = [complex(float(b.center[0]), float(b.center[1])) for b in K.embeddings]
    for coords in _sup_band(K.degree, prev, h):
        if all(c == 0 for c in coords[1:]):
            continue  # rational: unit only when torsion
        # cheap non-certified filter; false negatives only cost completeness
        prod = 1.0
        for z in approx:
            val = 0j
            for c in reversed(coords):
                val = val * z + c
            prod *= abs(val)
        if not (0.05 < prod < 20.0):
            continue
        u = nf_element(K, coords)
        if abs(nf_norm(K, u)) == 1:
            yield u


# ---------------------------------------------------------------------------
# field element -> algebraic number


def fe_to_algnum(K: NumberField, x: FieldElement, place: int = 0) -> AlgebraicNumber:
    """The algebraic number sigma_place(x), with exact minimal polynomial."""
    if fe_is_rational(x):
        return an_from_rational(x.coords[0])
    probes = (nf_embed(K, x, place, 64 << k) for k in range(7))
    return _select_root([_minpoly(K, x)], probes)


# ---------------------------------------------------------------------------
# pattern search


def _validate_pattern(K: NumberField, pattern: ConjugatePattern) -> None:
    seen = set()
    for level in pattern.order:
        for i in level:
            if not (0 <= i < K.degree) or i in seen:
                raise ValueError("pattern order must list distinct embedding indices")
            seen.add(i)
    if not (0 <= pattern.one_position <= len(pattern.order)):
        raise ValueError("one_position out of range")
    for indices, rel in pattern.extras:
        if rel not in ("<", ">", "!="):
            raise ValueError(f"unknown relation {rel!r}")
        for i in indices:
            if not (0 <= i < K.degree):
                raise ValueError("extras reference an invalid embedding index")


def _decide(x, rel: str, y=(0, 0)) -> Optional[bool]:
    """Whether the reals in the certified intervals x and y stand in the
    strict relation x rel y, rel in {">", "<", "!="}: True or False once the
    intervals settle it, None while they overlap. Overlapping intervals
    refute only by a shared end point; they never settle a tie."""
    if x[0] > y[1] or x[1] < y[0]:
        return rel == "!=" or (x[0] > y[1]) == (rel == ">")
    refuted = {">": x[1] == y[0], "<": x[0] == y[1], "!=": x[0] == x[1] == y[0] == y[1]}
    return False if refuted[rel] else None


def _layout_status(log, pattern: ConjugatePattern) -> Optional[bool]:
    """The layout test on intervals log(j) of log|sigma_j(x)|: True when
    every constraint is proved, False when one is refuted, else None."""
    levels, top = pattern.order, pattern.one_position
    checks = itertools.chain(
        ((log(a), ">", log(b)) for up, down in zip(levels, levels[1:]) for a in up for b in down),
        ((log(j), ">" if t < top else "<") for t, level in enumerate(levels) for j in level),
        (
            (functools.reduce(_iv_add, map(log, indices), (0, 0)), rel)
            for indices, rel in pattern.extras
        ),
    )
    return _conjunction(_decide(*check) for check in checks)


def _conjunction(verdicts) -> Optional[bool]:
    """Three-valued and of _decide verdicts: False at the first refuted one,
    else None when one is open, else True."""
    status = True
    for verdict in verdicts:
        if verdict is False:
            return False
        if verdict is None:
            status = None
    return status


def _on_ladder(decide):
    """The first settled (not None) decide(prec) over the rungs of
    _LAYOUT_PREC, or None when the top rung leaves it open."""
    return next((d for d in map(decide, _LAYOUT_PREC) if d is not None), None)


def nf_pattern_search(
    K: NumberField,
    lattice: UnitSublattice,
    pattern: ConjugatePattern,
    exponent_bound: Optional[int] = None,
) -> FieldElement:
    """First unit (in sup-norm-then-lex exponent order) matching the pattern.

    Exponent vectors come shell by shell from _sup_band, up to
    exponent_bound (default _E_CAP). Each vector's layout is decided on the
    ladder from the _product_logs of lattice.logs, which enclose the logs of
    its unit: rung 0 refutes most vectors with a few integer additions, and
    later rungs prove the layout. Only the unit returned is built. Open at
    the top rung refutes a constraint: a near tie only skips a vector.
    NotFound when no vector within the bound passes.
    """
    _validate_pattern(K, pattern)
    cap = exponent_bound if exponent_bound is not None else _E_CAP
    for shell in range(cap + 1):
        for evec in _sup_band(len(lattice.generators), shell - 1, shell):
            sums = _product_logs(lattice.logs, evec)
            if _on_ladder(lambda prec: _layout_status(sums[prec], pattern)):
                powers = (fe_pow(K, g, e) for g, e in zip(lattice.generators, evec) if e)
                return functools.reduce(functools.partial(fe_mul, K), powers, fe_rational(K, 1))
    raise NotFound(f"no unit matched the pattern within exponent bound {cap}")
