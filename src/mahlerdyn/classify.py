"""Field-level verdicts: which number fields carry wandering units.

Verdicts are either AllPreperiodic (every element's measure orbit terminates),
HasWanderer (a concrete unit plus a machine-checked certificate), or
Unsupported (no proven statement applies).

A verdict runs parse -> K -> Aut(K) -> body -> ``_first_witness``. An entry
point parses: G monic and irreducible, its degree, one K = nf_new(G) and at
most one table nf_automorphisms(K), whose count check names its error
(``_verified_automorphisms``: NotCyclic or NotGalois). Its body runs on the
built (K, autos), so an entry point that reaches another verdict calls that
verdict's body, never its parser: ``_classify_cyclic`` (C5 quintics, C9
nonics), ``_classify_cm`` (sextics), and ``_galois_quintic``, which reads a
quintic's group on K and hands on the table it read. Witnesses are found
by one search loop (``_first_witness``): over exponent bounds, then over
(pattern, certify) pairs, it asks ``nf_pattern_search`` for the first unit
of a unit lattice with the pattern's conjugate-modulus layout and returns
the first certificate, certify(x, top) at the pattern's top place, or
raises WitnessSearchFailed with its caller's message.  It alone builds the
lattice, ``nf_unit_sublattice`` of the field; the C2^3 octic and the C3xC3
nonic also search the subfield units ``_subfield_product`` embeds.  Every
numeric decision (layouts, signs, the D5 comparison) is made on certified
balls (``nfield._embeds`` for elements) or ``nfield._place_logs`` intervals
over one bounded ladder, ``nfield._LAYOUT_PREC``; open at the top rung refutes
a strict relation, or raises where a rung must settle it (``_settled``, and
``algnum._real_sign`` for signs).  Every candidate is then certified exactly.
One certifier, exponent space, computes no measure: ``_exponent_orbit``
steps M^k(x) = +-prod x_j^e_j over the embeddings x_j of the unit x, sides
on log intervals and equalities by one exact test in K (``_relation_test``)
over the automorphisms passed: the identity for S4, A4, S5, A5
(``_labels_group``), F20 and D5 (``_cycle_group``), all keys for C4, cyclic
fields, C6, S3, C2^3, C3xC3 and Q8, and both keys for D4 (``_key_group``).
``_exponent_witness``, its one caller, steps one orbit per candidate and
reads off a PowerIdentity or TorsionFreePower, else a cited theorem's facts
from a reader of the same orbit: the growth chain 1 < M^1 < ... < M^k
(``_growth_chain``), the product-recurrence states of cyclic fields, C6 and
S3 (``_chain_states``), or the D5 recursion (``_d5_recursion``).

Automorphism-group bookkeeping reads the keys of ``nf_automorphisms``, the
certified embedding permutations: an automorphism's order is the cycle
length of place 0, the orbit of 0 (``_orbit``) gives the embedding indices
of its powers, commutativity and subgroups are checked by composing keys
(``_compose_keys``), and complex conjugation is the key of the conjugate
embeddings. A field element is looked up by its key only where it is
applied.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algnum import AlgebraicNumber, _real_sign
from .errors import (
    ExactCheckFailed,
    InternalPrecisionExceeded,
    NotCyclic,
    NotFound,
    NotGalois,
    NotIrreducible,
    Record,
    UnsupportedDegree,
    UnsupportedGroup,
    WitnessSearchFailed,
)
from .factor import factor_z, is_irreducible
from .intpoly import IntPoly, discriminant, is_squarefree, monicize, transform_resolvent
from .mahler import (
    _EXPONENT_CAP,
    CitedGrowth,
    PowerIdentity,
    TorsionFreePower,
    WanderCert,
)
from .nfield import (
    _LAYOUT_PREC,
    ConjugatePattern,
    FieldElement,
    NumberField,
    UnitSublattice,
    _aut_bound_reason,
    _compose_keys,
    _conjugate_pairs,
    _decide,
    _embeds,
    _fe_horner,
    _iv_add,
    _iv_scale,
    _layout_status,
    _minpoly,
    _on_ladder,
    _place_logs,
    fe_add,
    fe_mul,
    fe_neg,
    fe_pow,
    fe_rational,
    fe_theta,
    fe_to_algnum,
    nf_apply,
    nf_automorphisms,
    nf_new,
    nf_norm,
    nf_pattern_search,
    nf_unit_sublattice,
)
from .roots import (
    IsolatingBox,
    _ball,
    _ball_add,
    _ball_mul,
    _from_ball,
    _point_in,
    _unit_bits,
    isolate_roots,
    refine,
    signature,
)

__all__ = [
    "AllPreperiodic",
    "HasWanderer",
    "HasWandererByTheorem",
    "Unsupported",
    "FieldVerdict",
    "galois_group_small",
    "classify_quartic",
    "classify_quintic",
    "classify_cyclic",
    "classify_galois_small",
    "classify_cm",
    "classify_abelian",
]


# ---------------------------------------------------------------------------
# verdict types


class AllPreperiodic(Record):
    """Every element of the field is preperiodic; reason names the result."""

    reason: str


class HasWanderer(Record):
    witness: AlgebraicNumber
    certificate: WanderCert


class HasWandererByTheorem(Record):
    """Wanderer guaranteed through a quotient group, no witness constructed."""

    quotient: str


class Unsupported(Record):
    reason: str


FieldVerdict = Union[AllPreperiodic, HasWanderer, HasWandererByTheorem, Unsupported]


# ---------------------------------------------------------------------------
# rational helpers


def _is_square(v) -> bool:
    f = Fraction(v)
    if f < 0:
        return False
    return (
        math.isqrt(f.numerator) ** 2 == f.numerator
        and math.isqrt(f.denominator) ** 2 == f.denominator
    )


def _rational_roots(p: IntPoly) -> list[Fraction]:
    out = []
    for q, _ in factor_z(p).factors:
        if q.degree == 1:
            out.append(Fraction(-q[0], q[1]))
    return out


def _monic_irreducible(p: IntPoly) -> IntPoly:
    G, _ = monicize(p)
    if not is_irreducible(G):
        raise NotIrreducible("defining polynomial must be irreducible")
    return G


# ---------------------------------------------------------------------------
# quartic resolvents


def _depressed_quartic(G: IntPoly) -> IntPoly:
    # roots are 4*theta + a3, which kills the cubic term and stays integral
    dep = transform_resolvent(G, IntPoly((G[3], 4)))
    if dep.degree != 4 or dep[4] != 1 or dep[3] != 0:
        raise ExactCheckFailed("depressed quartic is not monic without a cubic term")
    return dep


def _galois_quartic(G: IntPoly) -> str:
    dep = _depressed_quartic(G)
    P, Q, R = dep[2], dep[1], dep[0]
    resolvent = IntPoly((4 * P * R - Q * Q, -4 * R, -P, 1))
    rational = _rational_roots(resolvent)
    if len(rational) == 3:
        return "V4"
    if not rational:
        return "A4" if _is_square(discriminant(G)) else "S4"
    # Kappe-Warren (Amer. Math. Monthly 96 (1989)): with r the one rational
    # resolvent root, C4 exactly when x^2 - r x + R and x^2 + P - r split over
    # Q(sqrt(D)), i.e. r^2 - 4R and r - P are each a square or D times one
    D = discriminant(dep)
    if D.denominator != 1:
        raise ExactCheckFailed("discriminant of a monic quartic is not an integer")
    (r,) = rational
    cyclic = all(_is_square(v) or _is_square(v * D) for v in (r * r - 4 * R, r - P))
    return "C4" if cyclic else "D4"


# ---------------------------------------------------------------------------
# quintic resolvent: certified disk arithmetic over the root boxes


def _ball_integer(z: tuple[int, int, int], k: int) -> Optional[int]:
    """The integer in [x - r, x + r] 2^-k of the ball z = (x, y, r) at the
    unit 2^-k, when there is exactly one."""
    x, _, r = z
    m = -((r - x) >> k)
    return m if m == (x + r) >> k else None


def _pentagon_pairs() -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    # 12 pentagons on 5 labels up to rotation and reflection, grouped with
    # their pentagram complements into 6 unordered pairs
    pents = [(0,) + p for p in itertools.permutations((1, 2, 3, 4)) if p <= p[::-1]]
    pairs, seen = [], set()
    for p in pents:
        comp = (p[0], p[2], p[4], p[1], p[3])
        tail = comp[1:]
        canon = (0,) + min(tail, tail[::-1])
        key = frozenset((p, canon))
        if key not in seen:
            seen.add(key)
            pairs.append((p, canon))
    if len(pairs) != 6:
        raise ExactCheckFailed("pentagons do not form 6 complementary pairs")
    return tuple(pairs)


_PENTAGON_PAIRS = _pentagon_pairs()


def _cayley_sextic(h: IntPoly) -> tuple[IntPoly, tuple[IsolatingBox, ...]]:
    """Resolvent sextic of a monic quintic, one root disk per pentagon pair.

    For a pentagon P on the roots with edge sum u_P = sum x_i x_{i+1}, the
    quantity (u_P - u_{P'})^2 against the complement pentagon P' is stable
    under the full symmetric group as a set of six values, so the product of
    (y - delta) has integer coefficients; they are recovered by shrinking the
    root boxes, rung by rung of `_LAYOUT_PREC`, until every coefficient
    traps a unique integer. Each rung runs its 87 disk products in the
    fixed-point kernel of roots, at the unit of the rung's root radius: the
    root disks enter once, and only the six delta disks leave.
    """
    if h.degree != 5 or h[5] != 1:
        raise ExactCheckFailed("the Cayley sextic needs a monic quintic")
    boxes = isolate_roots(h)
    for prec in _LAYOUT_PREC:
        eps = Fraction(1, 1 << prec)
        boxes = [refine(b, h, eps) for b in boxes]
        k = _unit_bits(eps)
        z = [_ball(*b.center, b.radius, k) for b in boxes]
        edge_sums: dict[tuple[int, ...], tuple[int, int, int]] = {}
        for pent, comp in _PENTAGON_PAIRS:
            for cyc in (pent, comp):
                if cyc in edge_sums:
                    continue
                acc = (0, 0, 0)
                for i in range(5):
                    acc = _ball_add(acc, _ball_mul(z[cyc[i]], z[cyc[(i + 1) % 5]], k))
                edge_sums[cyc] = acc
        deltas = []
        for pent, comp in _PENTAGON_PAIRS:
            d = _ball_add(edge_sums[pent], edge_sums[comp], -1)
            deltas.append(_ball_mul(d, d, k))
        coeffs = [(1 << k, 0, 0)]
        for d in deltas:
            nxt = [(0, 0, 0)] * (len(coeffs) + 1)
            for j, c in enumerate(coeffs):
                nxt[j + 1] = _ball_add(nxt[j + 1], c)
                nxt[j] = _ball_add(nxt[j], _ball_mul(d, c, k), -1)
            coeffs = nxt
        ints = [_ball_integer(c, k) for c in coeffs]
        if all(v is not None for v in ints):
            return IntPoly(ints), tuple(_from_ball(d, k) for d in deltas)
    raise InternalPrecisionExceeded("resolvent coefficients did not stabilize")


def _stable_cycles(sextic: tuple[IntPoly, tuple[IsolatingBox, ...]]) -> list[tuple[int, ...]]:
    """Root pentagons fixed setwise by the Galois group of a solvable quintic G,
    from G's Cayley sextic (res, deltas) = _cayley_sextic(G).

    The rational root of the resolvent belongs to the pentagon pair carrying
    the cyclic adjacency of the order-5 subgroup, read here directly off G's
    own roots (both pair members generate the same 5-cycle up to inversion).
    Indices refer to the isolate_roots(G) order, which is the embedding order.
    Unless exactly one pair's delta disk holds a rational root, the pair is
    not pinned: ExactCheckFailed.
    """
    res, deltas = sextic
    pinned = [i for r in _rational_roots(res) for i, d in enumerate(deltas) if _point_in(d, r, 0)]
    if len(pinned) != 1:
        raise ExactCheckFailed(f"{len(pinned)} pentagon pairs hold a rational root of the sextic")
    return list(_PENTAGON_PAIRS[pinned[0]])


def _galois_quintic(K: NumberField) -> tuple[str, tuple[IntPoly, tuple[IsolatingBox, ...]], Optional[dict]]:
    """(tag, _cayley_sextic(G), autos) for the quintic field K of G, the
    group read off a squarefree Cayley resolvent: G's (c = 0, the first
    sextic) or that of G's image under theta -> theta^2 + c*theta (resolvent
    roots are translation invariant). A squarefree image of degree 5 is
    irreducible: the characteristic polynomial of an element of a
    prime-degree field is a power of its minimal one. A square discriminant
    leaves C5 or D5, told apart by |Aut(K)|; autos is that table, handed on
    so that a caller runs automorphism discovery at most once, and None for
    the other groups, which read no table."""
    G, first = K.defining, None
    for c in range(13):
        h = G if c == 0 else transform_resolvent(G, IntPoly((0, c, 1)))
        if h.degree == 5 and h[5] == 1 and is_squarefree(h):
            sextic = _cayley_sextic(h)
            first = first or sextic
            if is_squarefree(sextic[0]):
                break
    else:
        raise NotFound("no squarefree quintic resolvent within the transform budget")
    square = _is_square(discriminant(G))
    if not _rational_roots(sextic[0]):
        return ("A5" if square else "S5"), first, None
    if not square:
        return "F5", first, None
    autos = nf_automorphisms(K)
    return ("C5" if len(autos) == 5 else "D5"), first, autos


def galois_group_small(p: IntPoly) -> str:
    """Galois group of the splitting field, degrees 2 through 5.

    Degree 4 splits on the resolvent cubic, with the C4/D4 case decided by
    whether the quartic factors into quadratics over Q(sqrt(disc)).  Degree 5
    is solvable exactly when the resolvent sextic has a rational root.
    """
    G = _monic_irreducible(p)
    n = G.degree
    if n == 2:
        return "C2"
    if n == 3:
        return "C3" if _is_square(discriminant(G)) else "D3_6"
    if n == 4:
        return _galois_quartic(G)
    if n == 5:
        return _galois_quintic(nf_new(G))[0]
    raise UnsupportedDegree(f"no resolvent method for degree {n}")


# ---------------------------------------------------------------------------
# witness verification helpers


def _labels_group(G: IntPoly, tag: str) -> list[tuple[int, ...]]:
    """S_n on the embedding indices of G, or A_n when tag starts with A."""
    perms = itertools.permutations(range(G.degree))
    if tag.startswith("S"):
        return list(perms)
    return [p for p in perms if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0]


def _cycle_group(cycles, tag: str) -> list[tuple[int, ...]]:
    """F5 or D5 (tag) on the embedding indices: the maps k -> u k + b on the
    positions of the 5-cycle cycles[0] that _stable_cycles pins, u in
    (Z/5)^x or +-1 (its pentagram cycles[1] gives the same group)."""
    cyc = cycles[0]
    pos = [cyc.index(j) for j in range(5)]
    units = (1, 2, 3, 4) if tag == "F5" else (1, 4)
    return [tuple(cyc[(u * k + b) % 5] for k in pos) for u in units for b in range(5)]


def _key_group(keys) -> list[tuple[int, ...]]:
    """The Galois group on the labels that all keys of Aut(K) pin. Galois K:
    tau o iota_0 = iota_0 o sigma_t sends iota_i = iota_0 o sigma_k (k(0) =
    i) to iota_k(t(0)), so the keys when Aut(K) is abelian. D4 quartic (two
    keys): the stabilizer of the non-trivial key's orbits."""
    n = len(keys[0])
    if len(keys) == n:
        by0 = {k[0]: k for k in keys}
        return [tuple(by0[i][t[0]] for i in range(n)) for t in keys]
    if (n, len(keys)) == (4, 2):
        blocks = {frozenset((j, max(keys)[j])) for j in range(4)}  # the identity is the least key
        perms = itertools.permutations(range(4))
        return [p for p in perms if {frozenset(p[j] for j in b) for b in blocks} == blocks]
    raise ExactCheckFailed(f"{len(keys)} automorphisms of a degree-{n} field pin no Galois group")


def _relation_test(K, x, place, autos):
    """rel(f) = +-1 when prod x_j^f_j = +-1 exactly, else None (x_j: the unit
    x at embedding j, x at place). f must be constant, c, off the labels O
    = {p[place]} of the keys p of autos, else None; the product is then
    N(x)^c prod_{j in O} sigma_j(x)^(f_j - c), sigma_j(x) at place being
    x_j, compared in K as positive against negative powers (c is f's most
    common entry when O is every label)."""
    images, norm = {p[place]: g for p, g in autos.items()}, nf_norm(K, x)
    if norm not in (1, -1):
        raise ExactCheckFailed("an exponent-space orbit needs a unit")
    sigma = functools.cache(lambda j: nf_apply(K, images[j], x))

    def product(d):
        powers = (fe_pow(K, sigma(j), e) for j, e in d.items() if e > 0)
        return functools.reduce(functools.partial(fe_mul, K), powers, fe_rational(K, 1))

    def rel(f):
        off = {v for j, v in enumerate(f) if j not in images}
        if len(off) > 1:
            return None
        c = off.pop() if off else max(f, key=f.count)
        up, down = product({j: f[j] - c for j in images}), product({j: c - f[j] for j in images})
        return int(norm**c) if up == down else -int(norm**c) if up == fe_neg(K, down) else None

    return rel


def _exponent_orbit(K, x, place, group, steps, autos=None):
    """Yield (e^(k), log, rel) for k = 0..steps: M^k(x) = +-prod x_j^e_j over
    the embeddings x_j of the unit x, x at place; log(f, prec) encloses
    log|prod x_j^f_j| on a rung of _LAYOUT_PREC; rel is _relation_test.

    group is the Galois group on the labels; autos the identity (default) or
    all of Aut(K). The f with prod x_j^f_j a root of unity form a saturated,
    group-stable lattice L, not Z^n, holding 1. Each kind accepted puts L in
    Z.1 + span(O), O the labels of rel, so rel's None is a proof:
    - the identity, group 2-transitive or transitive of prime degree p: L =
      Z.1, as Q^n = Q.1 + W, W irreducible over Q[group] (over a p-cycle in
      degree p; Smyth, J. Number Theory 23 (1986); Girstmair, Acta Arith. 89
      (1999));
    - all n keys of a Galois K: O is every label;
    - both keys of a totally real D4 quartic that x generates: Q^4 = Q.1 +
      Q.eps + W2 over Q[D4], eps = +-1 on the key orbits, and W2 in L (x) Q
      would put every conjugate +-x^(+-1) in K, making K Galois.
    The last two take group = _key_group(keys). Anything else, or a
    conjugation map outside the group, not an involution or joining places
    of distinct modulus, raises ExactCheckFailed.

    e^(k+1) sums the distinct conjugates f o sigma (sigma in group) outside
    the unit circle: f is on it when rel(f + f o conj) is not None, f and h
    are one when rel(f - h) is 1, and a side open at the top rung raises
    InternalPrecisionExceeded.
    """
    n, ident = K.degree, tuple(range(K.degree))
    autos = autos or {ident: fe_theta(K)}
    doubly = {p[:2] for p in group} == set(itertools.permutations(range(n), 2))
    prime = {p[0] for p in group} == set(range(n)) and all(n % d for d in range(2, n))
    keyed = len(autos) > 1 and set(group) == set(_key_group(list(autos)))
    d4 = K.signature == (4, 0) and len(autos) == 2 and nf_apply(K, autos[max(autos)], x) != x
    if ident not in autos or not (len(autos) == 1 and (doubly or prime) or keyed and (len(autos) == n or d4)):
        raise ExactCheckFailed("the group is neither 2-transitive, of prime degree, Galois nor D4 on its keys")
    conj, logs = _conjugate_pairs(K), _place_logs(K, x)
    rung0 = logs[_LAYOUT_PREC[0]]
    if tuple(conj) not in group or any(
        conj[c] != j or _decide(rung0(j), "!=", rung0(c)) for j, c in enumerate(conj)
    ):
        raise ExactCheckFailed("the conjugation map is not complex conjugation on the labels")
    rel = _relation_test(K, x, place, autos)

    def log(f, prec):
        return functools.reduce(_iv_add, (_iv_scale(logs[prec](j), c) for j, c in enumerate(f)))

    e = tuple(int(j == place) for j in range(n))
    yield e, log, rel
    for _ in range(steps):
        found = []
        for f in dict.fromkeys(tuple(e[i] for i in p) for p in group):
            if (
                rel(tuple(a + f[c] for a, c in zip(f, conj))) is None
                and _settled(lambda prec: _decide(log(f, prec), ">"), "side of a conjugate")
                and all(rel(tuple(a - b for a, b in zip(f, h))) != 1 for h in found)
            ):
                found.append(f)
        e = tuple(map(sum, zip((0,) * n, *found)))
        yield e, log, rel


def _growth_chain(hypotheses, es, log, rel):
    """Reader of a cited theorem's facts on an orbit, given the hypotheses
    by functools.partial: the hypotheses, then the chain 1 < M^1 < ... < M^k
    on the log intervals of e^(1..k)."""
    chain = [tuple(0 for _ in es[0]), *es[1:]]  # the zero vector's log is (0, 0)
    if not all(
        _settled(lambda prec: _decide(log(hi, prec), ">", log(lo, prec)), "a growth step of the measure")
        for lo, hi in zip(chain, chain[1:])
    ):
        return None
    links = " < ".join(f"M^{k}" for k in range(1, len(es)))
    return hypotheses + (f"1 < {links} verified exactly",)


def _exponent_witness(K, x, place, group, steps, tag=None, facts=None, autos=None) -> Optional[HasWanderer]:
    """x at place with a certificate read off one _exponent_orbit in
    wandering_certificate's scan order: PowerIdentity(k, l, n), else
    TorsionFreePower(k, n) when x is real there, x^n > 0 and no x_j / x is
    -1 (K's one root of unity besides 1), else, for a cited theorem ``tag``,
    the facts that its reader facts(es, log, rel) proves on the same orbit
    e^(0..steps): _growth_chain, _chain_states or _d5_recursion; None when
    the reader refutes them. n in 2.._EXPONENT_CAP is the one integer a rung
    leaves in a log ratio, proved by rel (a root of unity between positive
    numbers is 1). M^k = M^(k-1) ends the orbit: None."""
    es, n = [], K.degree

    def power(k, l):
        def fits(prec):
            (a, b), (c, d) = log(es[k], prec), log(es[l], prec)
            ns = range(max(2, -(-a // d)), min(_EXPONENT_CAP, b // c) + 1) if c > 0 else range(0)
            return None if c <= 0 < d or len(ns) > 1 else ns

        ns = _settled(fits, "the ratio of two measures")
        return next((m for m in ns if rel(tuple(u - m * v for u, v in zip(es[k], es[l]))) is not None), None)

    for k, (e, log, rel) in enumerate(_exponent_orbit(K, x, place, group, steps, autos)):
        if k and rel(tuple(u - v for u, v in zip(e, es[-1]))) is not None:
            return None
        es.append(e)
        cert = next((PowerIdentity(k, l, m) for l in range(1, k) if (m := power(k, l))), None)
        if cert is None and k and _conjugate_pairs(K)[place] == place and (m := power(k, 0)):
            torsion = (rel(tuple(int(i == j) - int(i == place) for i in range(n))) for j in range(n))
            if (m % 2 == 0 or _real_sign(_embeds(K, x, place)) > 0) and -1 not in torsion:
                cert = TorsionFreePower(k, m)
        if cert is not None:
            return HasWanderer(witness=fe_to_algnum(K, x, place), certificate=cert)
    if tag is None or (read := facts(es, log, rel)) is None:
        return None
    return HasWanderer(witness=fe_to_algnum(K, x, place), certificate=CitedGrowth(tag=tag, facts=read))


def _chain_state(places, outside, fact):
    """A product-recurrence state: the pattern that orders the places one
    per level, the first ``outside`` of them outside the unit circle, and
    its fact. It must order every place once, with place 0 and another place
    outside, else ExactCheckFailed."""
    if sorted(places) != list(range(len(places))):
        raise ExactCheckFailed("a chain state must order every place alone")
    if 0 not in places[:outside] or outside < 2:
        raise ExactCheckFailed("a chain state must put place 0 and another place outside")
    return ConjugatePattern(order=tuple((j,) for j in places), one_position=outside), fact


def _chain_states(group, states, es, log, rel):
    """Reader of _chain_state states over all keys of a Galois K (group =
    _key_group) on the orbit of x at place 0, given group and states by
    functools.partial. Step k proves one state's layout on the conjugate
    logs of e^(k-1): M^k is the product of the outside ones, distinct, so it
    exceeds M^(k-1), the one at place 0. Refuted, or open at the top rung:
    None."""

    def chain(prec):
        facts = []
        for k, e in enumerate(es, 1):
            at = {p.index(0): tuple(e[i] for i in p) for p in group}  # the conjugate at each place
            status = [_layout_status(lambda j: log(at[j], prec), pattern) for pattern, _ in states]
            if True not in status:
                return None if None in status else False
            facts.append(f"M^{k} {states[status.index(True)][1]}")
        return tuple(facts)

    return _on_ladder(chain) or None


def _first_witness(K, candidates, failure: str, bounds=(None,)):
    """First non-None certify(x, top) over the exponent bounds, then over the
    (pattern, certify) pairs, where x is the first unit of K's unit lattice,
    built here once, that nf_pattern_search finds with the pattern's layout
    and top is the pattern's first place, pattern.order[0][0]. A pattern
    with no match within the bound is skipped; when no candidate certifies,
    WitnessSearchFailed(failure).
    """
    lattice = nf_unit_sublattice(K)
    for bound in bounds:
        for pattern, certify in candidates:
            try:
                x = nf_pattern_search(K, lattice, pattern, bound)
            except NotFound:
                continue
            found = certify(x, pattern.order[0][0])
            if found is not None:
                return found
    raise WitnessSearchFailed(failure)


def _settled(decide, what: str):
    """_on_ladder(decide) for a question some rung must settle, such as the
    sign of a nonzero number: InternalPrecisionExceeded naming ``what`` when
    none does, never a guess."""
    if (found := _on_ladder(decide)) is None:
        raise InternalPrecisionExceeded(f"{what} not decided")
    return found


def _positive_at(K, x: FieldElement, place: int) -> FieldElement:
    """x or -x, whichever is positive at the real place; x is nonzero."""
    return fe_neg(K, x) if _real_sign(_embeds(K, x, place)) < 0 else x


# ---------------------------------------------------------------------------
# automorphism-group bookkeeping: on the keys of nf_automorphisms


def _verified_automorphisms(K: NumberField, autos: dict, error: type) -> dict:
    """autos, the table of nf_automorphisms(K), when it has K.degree keys;
    else error (NotGalois or NotCyclic) naming the Frobenius bound."""
    if len(autos) != K.degree:
        raise error(f"{len(autos)} automorphisms on a degree-{K.degree} field; " + _aut_bound_reason(K.defining))
    return autos


def _orbit(p: tuple[int, ...]) -> list[int]:
    """0, p(0), p(p(0)), ...: the embedding index of sigma_p^k at place 0
    for k below the order of sigma_p, which is the list's length (the key
    of sigma_p^k is p applied k times; Aut(K) acts freely)."""
    out = [0]
    while p[out[-1]] != 0:
        out.append(p[out[-1]])
    return out


def _fixed_field_poly(
    K: NumberField, subgroup: Sequence[FieldElement], target: int
) -> tuple[IntPoly, FieldElement]:
    """Defining polynomial and a K-side generator of the fixed field."""
    theta = fe_theta(K)
    theta2 = fe_mul(K, theta, theta)
    theta3 = fe_mul(K, theta2, theta)
    traces = [
        theta,
        theta2,
        fe_add(K, theta, theta2),
        theta3,
        fe_add(K, theta2, theta3),
        fe_add(K, theta, theta3),
    ]
    add, mul = functools.partial(fe_add, K), functools.partial(fe_mul, K)
    sums = [functools.reduce(add, (nf_apply(K, h, c) for h in subgroup)) for c in traces]
    shifts = [fe_add(K, theta, fe_rational(K, k)) for k in range(4)]
    norms = [functools.reduce(mul, (nf_apply(K, h, c) for h in subgroup)) for c in shifts]
    for w in sums + norms:
        if all(v == 0 for v in w.coords[1:]):
            continue
        q = _minpoly(K, w)
        if q.degree == target:
            return q, w
    raise NotFound("no fixed-field generator among the standard candidates")


# ---------------------------------------------------------------------------
# complex-pair layout


def _place_layout(K: NumberField) -> tuple[list[int], list[tuple[int, int]]]:
    """Real embedding indices, and the complex indices grouped in pairs."""
    conj = _conjugate_pairs(K)
    return [i for i, c in enumerate(conj) if c == i], [(i, c) for i, c in enumerate(conj) if i < c]


# ---------------------------------------------------------------------------
# quartic witnesses


def _quartic_square_witness(K, tag) -> HasWanderer:
    """Unit with two conjugates outside whose second measure is its square,
    made positive at its top place, certified in exponent space
    (_exponent_witness over the group S4 or A4, two steps)."""
    if K.signature == (4, 0):
        patterns = [
            ConjugatePattern(
                order=((0,), (1,), (2,), (3,)),
                one_position=2,
                extras=(((0, 3), ">"), ((1, 2), "<")),
            )
        ]
    else:
        reals, pairs = _place_layout(K)
        patterns = [
            ConjugatePattern(order=((a,), (b,), pairs[0]), one_position=2)
            for a, b in (tuple(reals), tuple(reals[::-1]))
        ]

    group = _labels_group(K.defining, tag)

    def certify(x, top):
        return _exponent_witness(K, _positive_at(K, x, top), top, group, 2)

    failure = f"no certified wandering unit found for the {tag} quartic"
    return _first_witness(K, [(p, certify) for p in patterns], failure)


def _quartic_real_chain_witness(K, tag, autos) -> HasWanderer:
    """Totally real C4/D4 unit with an exact certificate from its first
    three measures over its keys, or else a measure orbit that strictly
    grows three times.

    The chain puts two conjugates outside with the top strictly dominant; the
    != guard keeps the product of the extreme conjugates off the unit circle,
    which is the cited theorem's hypothesis for the growth-chain fallback.
    Assignments follow the order-4 walk for C4; for D4 the closure's 4-cycle
    is invisible from inside the field, so all labelings are tried. autos
    is Aut(K), the table of nf_automorphisms(K).
    """
    if tag == "C4":
        assignments = [tuple(e) for e in map(_orbit, autos) if len(e) == 4]
    else:  # every (a, b, c, d), in the order of (a, b, d)
        assignments = sorted(itertools.permutations(range(4)), key=lambda t: t[:2] + t[3:])
    cited = "FPZ2020-Thm2-totally-real-quartic-unit-3-orbit"
    hypotheses = (
        "unit of a totally real quartic field",
        "exactly two conjugates strictly outside the unit circle, "
        "with |top * bottom| != 1",
    )
    facts = functools.partial(_growth_chain, hypotheses)
    certify = functools.partial(
        _exponent_witness, K, group=_key_group(list(autos)), steps=3, tag=cited, facts=facts, autos=autos
    )
    patterns = [
        ConjugatePattern(order=((a,), (b,), (c, d)), one_position=2, extras=(((a, d), "!="),))
        for a, b, c, d in assignments
    ]
    failure = f"no certified wandering unit found for the {tag} quartic"
    return _first_witness(K, [(p, certify) for p in patterns], failure)


def classify_quartic(p: IntPoly) -> FieldVerdict:
    """Table-driven quartic verdict keyed on signature and closure group."""
    G = _monic_irreducible(p)
    if G.degree != 4:
        raise UnsupportedDegree("classify_quartic needs degree 4")
    sig = signature(G)
    tag = _galois_quartic(G)
    if sig == (0, 2):
        return AllPreperiodic(
            reason="totally imaginary quartic field: every element is preperiodic"
        )
    if sig == (2, 1) and tag == "D4":
        return AllPreperiodic(
            reason="signature (2,1) quartic field with dihedral closure: "
            "every element is preperiodic"
        )
    if sig == (4, 0) and tag == "V4":
        return AllPreperiodic(
            reason="totally real biquadratic field: every element is preperiodic"
        )
    K = nf_new(G)
    if tag in ("S4", "A4"):
        return _quartic_square_witness(K, tag)
    return _quartic_real_chain_witness(K, tag, nf_automorphisms(K))


# ---------------------------------------------------------------------------
# quintic witnesses


def _quintic_nonsolvable_witness(K, tag) -> HasWanderer:
    """Any unit with two conjugates strictly outside and two strictly inside,
    certified in exponent space (_exponent_witness over S5 or A5) from its
    first three measures: first on a strict order of every conjugate, then
    on each choice of two or three outside places closed under conjugation.

    No associate +-x, +-1/x of such a unit is Pisot, which is the cited
    theorem's hypothesis for the fallback; three strictly increasing
    measures corroborate it.
    """
    reals, pairs = _place_layout(K)
    if len(reals) == 5:
        pattern = ConjugatePattern(order=((0,), (1,), (2,), (3,), (4,)), one_position=2)
    elif len(reals) == 3:
        pattern = ConjugatePattern(
            order=(pairs[0], (reals[0],), (reals[1],), (reals[2],)), one_position=1
        )
    else:
        pattern = ConjugatePattern(
            order=(pairs[0], (reals[0],), pairs[1]), one_position=1
        )
    blocks = [(j,) for j in reals] + pairs
    outsides = [sum(c, ()) for r in (1, 2, 3) for c in itertools.combinations(blocks, r)]
    patterns = [pattern] + [
        ConjugatePattern(order=(out, tuple(j for j in range(5) if j not in out)), one_position=1)
        for out in outsides
        if len(out) in (2, 3)
    ]
    hypotheses = (
        "unit of degree 5",
        "at least two conjugates strictly outside and two strictly inside "
        "the unit circle, so no associate is Pisot",
    )
    facts = functools.partial(_growth_chain, hypotheses)
    group, cited = _labels_group(K.defining, tag), "FPZ2020-Thm3-non-pisot-quintic-unit"
    certify = functools.partial(_exponent_witness, K, group=group, steps=3, tag=cited, facts=facts)
    failure = f"no certified wandering unit found for the {tag} quintic"
    return _first_witness(K, [(p, certify) for p in patterns], failure)


def _quintic_chain_assignments(K, cycles) -> list[tuple]:
    """Labelings (a, s(a), s2(a), s3(a), s4(a), paired) -> embedding indices
    along the 5-cycle. They only name patterns; the certifiers step over the
    group that _cycle_group pins on the same cycles.

    For signature (1,2) complex conjugation inverts the cycle, pinning
    {s, s4} and {s2, s3} to the two conjugate pairs: a labeling differs from
    a Galois one at most by swapping conjugate places, which no modulus
    statement can see. For the totally real case the cyclic adjacency is
    read off the resolvent's stable pentagons, cycles, then rotated and
    reflected.
    """
    reals, pairs = _place_layout(K)
    if len(reals) == 1:
        return [
            (reals[0], outp[0], inp[0], inp[1], outp[1], True)
            for outp, inp in (tuple(pairs), tuple(pairs[::-1]))
        ]
    out = []
    for cyc in cycles:
        for seq in (cyc, cyc[::-1]):
            for i in range(5):
                a, s, s2, s3, s4 = (seq[(i + k) % 5] for k in range(5))
                out.append((a, s, s2, s3, s4, False))
    return out


def _chain_pattern(lab, extras) -> ConjugatePattern:
    """The 5-cycle layout |x| > |s(x)|, |s4(x)| > 1 > |s2(x)|, |s3(x)|."""
    a, s, s2, s3, s4, paired = lab
    if paired:
        return ConjugatePattern(order=((a,), (s, s4), (s2, s3)), one_position=2, extras=extras)
    return ConjugatePattern(
        order=((a,), (s,), (s4,), (s2,), (s3,)), one_position=3, extras=extras
    )


def _quintic_f5_witness(K, cycles) -> HasWanderer:
    """F20 witness: a unit on the 5-cycle layout with an exact certificate
    from its first two measures, in exponent space over the pinned F20."""
    certify = functools.partial(_exponent_witness, K, group=_cycle_group(cycles, "F5"), steps=2)
    patterns = [_chain_pattern(lab, (((lab[0], lab[2]), "<"),)) for lab in _quintic_chain_assignments(K, cycles)]
    failure = "no certified wandering unit found for the F5 quintic"
    return _first_witness(K, [(p, certify) for p in patterns], failure)


def _d5_recursion(lab, es, log, rel):
    """Reader of the dihedral exponent recursion (j, i) -> (j + i, j) on the
    orbit of x at place a over the pinned D5 group, given the labeling lab
    by functools.partial: with P = s(x) s4(x), e^(1..3) must be x P, x^2 P
    and x^3 P^2 by rel, which is M(x^j P^i) = +-x^(j+i) P^j for (j, i) =
    (1,0), (1,1), (2,1); then _growth_chain. The comparison |s2(x) s4(x)| <
    |x s3(x)| is not expressible as a pattern constraint, so it is decided
    first, on e^(0)'s log intervals, a tie refuting it."""
    a, s, s2, s3, s4, _ = lab
    f = [(k in (s2, s4)) - (k in (a, s3)) for k in range(5)]  # s2(x) s4(x) / (x s3(x))
    if not _on_ladder(lambda prec: _decide(log(f, prec), "<")):
        return None
    wants = ([j * (k == a) + i * (k in (s, s4)) for k in range(5)] for j, i in ((1, 1), (2, 1), (3, 2)))
    if any(rel(tuple(u - v for u, v in zip(e, want))) is None for e, want in zip(es[1:], wants)):
        return None
    hypotheses = (
        "unit chain |x| > |s(x)|, |s4(x)| > 1 > |s2(x)|, |s3(x)|",
        "|s2(x) s4(x)| < |x s3(x)| < 1 verified exactly",
        "M(x^j P^i) = +-x^(j+i) P^j for P = s(x) s4(x) and "
        "(j, i) = (1,0), (1,1), (2,1)",
    )
    return _growth_chain(hypotheses, es, log, rel)


def _quintic_d5_witness(K, cycles) -> HasWanderer:
    """Dihedral witness: a unit on the 5-cycle layout with the facts of
    _d5_recursion for its labeling."""
    certify = functools.partial(
        _exponent_witness, K, group=_cycle_group(cycles, "D5"), steps=3, tag="dihedral-quintic-exponent-recursion"
    )
    candidates = []
    for lab in _quintic_chain_assignments(K, cycles):
        a, s, s2, s3, s4, paired = lab
        if paired:
            extras = (((s2, s), "<"), ((a, s2), "<"))
        else:
            extras = (((s2, s4), "<"), ((a, s3), "<"))
        facts = functools.partial(_d5_recursion, lab)
        candidates.append((_chain_pattern(lab, extras), functools.partial(certify, facts=facts)))
    return _first_witness(K, candidates, "no certified wandering unit found for the D5 quintic")


def classify_quintic(p: IntPoly) -> FieldVerdict:
    """Quintic fields always carry a wanderer; the route depends on the group."""
    G = _monic_irreducible(p)
    if G.degree != 5:
        raise UnsupportedDegree("classify_quintic needs degree 5")
    K = nf_new(G)
    tag, sextic, autos = _galois_quintic(K)
    if tag == "C5":
        return _classify_cyclic(K, autos)
    if tag in ("A5", "S5"):
        return _quintic_nonsolvable_witness(K, tag)
    builder = _quintic_f5_witness if tag == "F5" else _quintic_d5_witness
    return builder(K, _stable_cycles(sextic))


# ---------------------------------------------------------------------------
# cyclic fields of odd degree n >= 5


def _shape_powers(n: int) -> dict[str, tuple[int, ...]]:
    a, b = [0], [0]
    for k in range(1, (n + 1) // 2):
        a.extend([k, n - k])
        b.extend([n - k, k])
    return {"A": tuple(a[:n]), "B": tuple(b[:n])}


def classify_cyclic(p: IntPoly) -> FieldVerdict:
    """Wanderer in a cyclic field of odd degree n >= 5 (_classify_cyclic)."""
    G = _monic_irreducible(p)
    if G.degree < 5 or G.degree % 2 == 0:
        raise UnsupportedDegree("classify_cyclic covers odd degrees n >= 5")
    K = nf_new(G)
    return _classify_cyclic(K, _verified_automorphisms(K, nf_automorphisms(K), NotCyclic))


def _classify_cyclic(K, autos) -> HasWanderer:
    """Wanderer in the cyclic field K of odd degree n >= 5, autos all n keys.

    Searches the alternating chain with (n+1)/2 conjugates outside, then
    proves in exponent space (_chain_states) that for three iterations
    the measure lands in one of the four trapped chain states: shape A or B,
    with (n+1)/2 or (n-1)/2 conjugates outside.
    """
    n = K.degree
    # the powers of a generator sigma, by their embedding index at place 0
    e = next((e for e in map(_orbit, autos) if len(e) == n), None)
    if e is None:
        raise NotCyclic("no automorphism of full order")
    states = [
        _chain_state(
            [e[k] for k in powers],
            count,
            f"is the product of the {count} outside conjugates "
            f"(chain shape {shape}), strictly larger than its predecessor",
        )
        for shape, powers in _shape_powers(n).items()
        for count in ((n + 1) // 2, (n - 1) // 2)
    ]
    group = _key_group(list(autos))
    facts = functools.partial(_chain_states, group, states)
    certify = functools.partial(
        _exponent_witness, K, group=group, steps=2, tag="distribution-invariant", facts=facts, autos=autos
    )
    bounds = (1, 2) if n >= 9 else (1, 2, 3)
    failure = "no unit with the alternating cyclic chain verified"
    return _first_witness(K, [(states[0][0], certify)], failure, bounds)


# ---------------------------------------------------------------------------
# Galois sextic, octic, nonic


def _group_shape(keys) -> str:
    """The name of the group of order 6, 8 or 9 that the keys form, acting
    regularly on the embeddings, from element orders and commutativity."""
    n = len(keys)
    orders = [len(_orbit(p)) for p in keys]
    if n == 6:
        return "C6" if 6 in orders else "D3_6"
    if n == 9:
        return "C9" if 9 in orders else "C3xC3"
    abelian = all(
        _compose_keys(p, q) == _compose_keys(q, p) for p, q in itertools.combinations(keys, 2)
    )
    if abelian:
        return {8: "C8", 4: "C4xC2", 2: "C2cubed"}[max(orders)]
    return "Q8" if orders.count(2) == 1 else "D4_8"


def _classify_sextic_galois(K, autos) -> FieldVerdict:
    if K.signature == (0, 3):
        return AllPreperiodic(
            reason="totally imaginary Galois sextic: every element is preperiodic"
        )
    shape = _group_shape(list(autos))
    # each setup lists places, the embedding indices at place 0 of
    # automorphisms, in modulus-chain order; the first three are outside
    if shape == "C6":
        setups = [[e[k] for k in (0, 5, 1, 4, 2, 3)] for e in map(_orbit, autos) if len(e) == 6]
    else:
        threes = [p for p in autos if len(_orbit(p)) == 3]
        twos = [p for p in autos if len(_orbit(p)) == 2]
        setups = []
        for s, t in itertools.product(threes, twos):
            s2 = _compose_keys(s, s)
            seq = [_compose_keys(t, s), _compose_keys(t, s2), s, s2, t]
            setups.append([0] + [p[0] for p in seq])
    fact = (
        "equals the product of the three outside conjugates "
        "and satisfies the same modulus chain"
    )
    group = _key_group(list(autos))
    certify = functools.partial(_exponent_witness, K, group=group, steps=2, tag="pattern-recurrence", autos=autos)
    candidates = []
    for e in setups:
        state = _chain_state(e, 3, fact)
        facts = functools.partial(_chain_states, group, [state])
        candidates.append((state[0], functools.partial(certify, facts=facts)))
    return _first_witness(K, candidates, f"no verified chain unit in the {shape} sextic", (2, 3, None))


def _independent_subgroups(autos, rank) -> tuple[frozenset, ...]:
    """``rank`` subgroups of index p of Aut(K) = (C_p)^rank that meet in the
    identity alone, so their fixed fields, of degree p, have K as their
    compositum: the first such family, in the order of autos, of the
    subgroups spanned by rank - 1 keys each."""
    ident = tuple(range(len(next(iter(autos)))))
    spans = {}
    for gens in itertools.combinations([p for p in autos if p != ident], rank - 1):
        group, new = set(), {ident}
        while new:
            group |= new
            new = {_compose_keys(g, k) for g in new for k in gens} - group
        spans[frozenset(group)] = None
    found = next(
        (hs for hs in itertools.combinations(spans, rank) if len(frozenset.intersection(*hs)) == 1),
        None,
    )
    if found is None:
        raise UnsupportedGroup(f"no {rank} independent subgroups of prime index")
    return found


def _subfield_product(K, autos, subgroups) -> tuple[FieldElement, int]:
    """(x, top): a product of powers of subfield units whose measure is the
    square of its conjugate at the place top.

    The fixed field of each subgroup, of degree d, gives a unit l with one
    conjugate outside the unit circle, positive there: the first unit that
    _first_witness finds on one of the d! one-outside layouts. Embedded in K,
    l is large at the places over that conjugate and small elsewhere. A place
    of K is outside when at most one l is small there, and top is the one
    place where none is. x is the first product of the l's that
    nf_pattern_search finds with the outside places above 1 and the others
    below. For C2^3 (three quadratic l's) and C3xC3 (two cubic ones) the logs
    of each l over the outside places sum to twice its log at top, so
    log M(x) = 2 log|x| there.
    """
    units = []
    for H in subgroups:
        d = K.degree // len(H)
        poly, w = _fixed_field_poly(K, [autos[p] for p in H], d)
        Ksub = nf_new(poly)
        positive, perms = functools.partial(_positive_at, Ksub), itertools.permutations(range(d))
        candidates = [(ConjugatePattern(order=tuple((i,) for i in p), one_position=1), positive) for p in perms]
        failure = f"no unit with one conjugate outside in a degree-{d} subfield"
        u = _first_witness(Ksub, candidates, failure)
        units.append(_fe_horner(K, u.coords, w))  # u in K: theta_sub -> w
    logs = [_place_logs(K, u) for u in units]
    small = [
        sum(_settled(lambda prec: _decide(log[prec](j), "<"), "sign of a unit log") for log in logs)
        for j in range(K.degree)
    ]
    outside = tuple(j for j, count in enumerate(small) if count <= 1)
    inside = tuple(j for j, count in enumerate(small) if count > 1)
    pattern = ConjugatePattern(order=(outside, inside), one_position=1)
    x = nf_pattern_search(K, UnitSublattice(tuple(units), tuple(logs)), pattern, 64)
    return x, small.index(0)


def _subfield_product_witness(K, autos, rank) -> HasWanderer:
    """The _subfield_product x, positive at top, where M(x) = x^2 over all keys."""
    x, top = _subfield_product(K, autos, _independent_subgroups(autos, rank))
    found = _exponent_witness(K, _positive_at(K, x, top), top, _key_group(list(autos)), 1, autos=autos)
    if found is None:
        raise WitnessSearchFailed("subfield-unit product failed M(x) = x^2")
    return found


def _octic_q8_witness(K, autos) -> HasWanderer:
    patterns, seen = [], set()
    order4 = [p for p in autos if len(_orbit(p)) == 4]
    for s, t in itertools.permutations(order4, 2):
        s2 = _compose_keys(s, s)
        s3 = _compose_keys(s, s2)
        if t in (s, s2, s3):
            continue
        if _compose_keys(t, t) != s2 or _compose_keys(t, s) != _compose_keys(s3, t):
            continue
        t3 = _compose_keys(t, s2)
        labeled = {
            "id": tuple(range(8)),
            "s": s,
            "s2": s2,
            "s3": s3,
            "t": t,
            "t3": t3,
            "st": _compose_keys(s, t),
            "st3": _compose_keys(s, t3),
        }
        e = {name: p[0] for name, p in labeled.items()}
        order = tuple(
            (e[name],) for name in ("id", "t", "st3", "s3", "st", "s", "t3", "s2")
        )
        extras = (((e["id"], e["st"], e["s"], e["t3"]), ">"),)
        if (order, extras) in seen:
            continue
        seen.add((order, extras))
        patterns.append(ConjugatePattern(order=order, one_position=4, extras=extras))
    certify = functools.partial(_exponent_witness, K, group=_key_group(list(autos)), steps=3, autos=autos)
    failure = "no quaternion chain unit verified M^3 = (M^1)^4"
    return _first_witness(K, [(p, certify) for p in patterns], failure, (2, 3, None))


def _octic_quartic_subfield(K, autos) -> IntPoly:
    """The fixed field of the first involution h that is not central, or
    whose quotient has an element of order 4 (some key p with p p outside
    {id, h}): a D4 quartic in the first case, a cyclic one in the second.
    C8 and C4xC2 are abelian, and every square in D4_8 is id or central."""
    ident = tuple(range(8))
    for h in autos:
        if len(_orbit(h)) != 2:
            continue
        if any(
            _compose_keys(p, h) != _compose_keys(h, p) or _compose_keys(p, p) not in (ident, h)
            for p in autos
        ):
            poly, _ = _fixed_field_poly(K, [autos[ident], autos[h]], 4)
            return poly
    raise UnsupportedGroup("no involution with a cyclic or D4 quartic fixed field")


def _classify_octic_galois(K, autos) -> FieldVerdict:
    if K.signature != (8, 0):
        return Unsupported(
            reason="totally imaginary Galois octic: the verdict reduces to "
            "quartic subfields and is not decided here"
        )
    shape = _group_shape(list(autos))
    if shape in ("C8", "C4xC2", "D4_8"):
        return classify_quartic(_octic_quartic_subfield(K, autos))
    if shape == "C2cubed":
        return _subfield_product_witness(K, autos, 3)
    return _octic_q8_witness(K, autos)


def classify_galois_small(p: IntPoly) -> FieldVerdict:
    """Verdicts for Galois fields of degree 6, 8, or 9.

    Degree 6 first tries the CM criterion (_classify_cm), which also covers
    the non-Galois CM sextics; after that the field must be Galois, with its
    exact automorphism group from the same nf_automorphisms table.
    """
    G = _monic_irreducible(p)
    n = G.degree
    if n not in (6, 8, 9):
        raise UnsupportedDegree("classify_galois_small covers degrees 6, 8, 9")
    K = nf_new(G)
    autos = nf_automorphisms(K)
    if n == 6:
        if isinstance(cm := _classify_cm(K, autos), AllPreperiodic):
            return cm
        if len(autos) != n:
            return Unsupported(reason="degree-6 field is neither CM nor Galois; no proven verdict applies")
        return _classify_sextic_galois(K, autos)
    _verified_automorphisms(K, autos, NotGalois)
    if n == 8:
        return _classify_octic_galois(K, autos)
    if _group_shape(list(autos)) == "C9":
        return _classify_cyclic(K, autos)
    return _subfield_product_witness(K, autos, 2)


# ---------------------------------------------------------------------------
# CM detection


def classify_cm(p: IntPoly) -> Optional[FieldVerdict]:
    """CM test: K is CM exactly when it is totally imaginary and the key of
    complex conjugation, _conjugate_pairs(K), is in nf_automorphisms(K).
    None when the field is not CM; a field with a real place needs no
    automorphisms.

    A CM field is a totally imaginary quadratic extension of a totally real
    field, and complex conjugation acts on it as the nontrivial automorphism
    over that field, keyed by _conjugate_pairs(K). Conversely, the
    automorphism rho with that key reads rho(x) at each embedding iota as x
    at the conjugate embedding, so iota o rho = conj o iota for every iota.
    An x fixed by rho is then real at every place: the fixed field F of rho
    is totally real. rho is not the identity, as K has no real place, and
    rho o rho = id, as conj o conj = id, so [K : F] = 2 and K is CM. No
    generator of F, and no signature of its polynomial, is needed."""
    G = _monic_irreducible(p)
    if G.degree % 2 == 1:
        return None
    K = nf_new(G)
    return _classify_cm(K, nf_automorphisms(K)) if K.signature[0] == 0 else None


def _classify_cm(K, autos) -> Optional[FieldVerdict]:
    """The CM verdict of classify_cm on K, with autos = nf_automorphisms(K)."""
    n = K.degree
    if K.signature[0] != 0 or tuple(_conjugate_pairs(K)) not in autos:
        return None
    if n == 6:
        return AllPreperiodic(reason="CM sextic field: every element is preperiodic")
    extra = " (quartic fields are handled by classify_quartic)" if n == 4 else ""
    return Unsupported(
        reason=f"CM field of degree {n}: only degree 6 is proven "
        "all-preperiodic" + extra
    )


# ---------------------------------------------------------------------------
# abelian groups by invariant factors


def _invariant_factors(orders: Sequence[int]) -> list[int]:
    """The invariant factors d1 | d2 | ... of the product of cyclic groups of
    the given orders: C_a x C_b = C_gcd(a,b) x C_lcm(a,b) turns the list into
    a divisibility chain, and the trivial factors are dropped."""
    ds = [int(d) for d in orders]
    if any(d < 1 for d in ds):
        raise ValueError("cyclic factor orders must be positive")
    for i, j in itertools.combinations(range(len(ds)), 2):
        ds[i], ds[j] = math.gcd(ds[i], ds[j]), math.lcm(ds[i], ds[j])
    return [d for d in ds if d != 1]


def classify_abelian(invariants: Sequence[int]) -> FieldVerdict:
    """Verdict for a totally real abelian field given its Galois group.

    Preperiodic exactly for C1, C2, C3, C2 x C2; otherwise one of the five
    wandering quotients is named, checked in an order that makes the rules
    exhaustive over the remaining divisibility chains.
    """
    ds = _invariant_factors(invariants)
    if ds in ([], [2], [3], [2, 2]):
        return AllPreperiodic(
            reason="group is C1, C2, C3, or C2 x C2: every element of the "
            "field is preperiodic"
        )
    if any(d % 4 == 0 for d in ds):
        return HasWandererByTheorem(quotient="C4")
    odd = next((m for m in sorted(d // (d & -d) for d in ds) if m >= 5), None)
    if odd is not None:
        return HasWandererByTheorem(quotient=f"C{odd}")
    if sum(1 for d in ds if d % 2 == 0) >= 3:
        return HasWandererByTheorem(quotient="C2cubed")
    if any(d % 6 == 0 for d in ds):
        return HasWandererByTheorem(quotient="C6")
    if sum(1 for d in ds if d % 3 == 0) >= 2:
        return HasWandererByTheorem(quotient="C3xC3")
    raise ExactCheckFailed(f"invariant factors {ds} match no verdict rule")
