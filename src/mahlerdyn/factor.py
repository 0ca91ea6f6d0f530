"""Complete factorization of integer polynomials over Q, and the readers of
their reductions modulo primes.

Zassenhaus pipeline: Yun squarefree decomposition (skipped when the input is
squarefree modulo a prime), a degree-set screen (Musser, J. ACM 25 (1978)),
factorization modulo a good prime (distinct-degree then seeded
Cantor-Zassenhaus equal-degree splitting), quadratic Hensel lifting past twice
a Mignotte-style coefficient bound, and subset recombination in
cardinality-then-lex order. Everything is deterministic: the primes are tried
in increasing order, the splitting RNG is seeded from the input, and factors
are reported sorted by (degree, coefficient tuple).

The readers run on intpoly's GF(p)[x] kernels and its one walk over the good
primes, and read Frobenius by Dedekind: its cycle type on the roots is the
list of modular factor degrees. The kernels reduce late: products and
remainders accumulate unreduced, and each kept coefficient is taken mod p
once. The DDF takes x^p once and steps x^(p^d) to x^(p^(d+1)) by the
Frobenius map, which is linear on GF(p)[x]/(f). Every factor over Z has a
degree that is a sum of some of the modular factor degrees, so the screen
intersects these sums (_degree_set) over up to _SCREEN_PRIMES good primes.
A set of {0, n} proves the part irreducible with no lifting; otherwise
lifting runs from the screened prime with the fewest modular factors.
_subset_degree_set reads such a set for a subset-product resolvent off the
orbits of that cycle type on s-subsets, with no DDF of the resolvent, and
_root_counts counts the fixed roots, which bound |Aut(K)| in nfield.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterator

from .errors import ExactCheckFailed, Record, ZeroPolynomial
from .intpoly import (
    IntPoly,
    _gf_add,
    _gf_divmod,
    _gf_from,
    _gf_gcd,
    _gf_mul,
    _gf_mulmod,
    _gf_pow_mod,
    _gf_prod,
    _gf_trim,
    _gf_xgcd,
    _good_primes,
    _is_cyclotomic_irreducible,
    _proved_squarefree,
    _scaled,
    canonicalize,
    div_z,
    gcd_z,
    monicize,
)

# ---------------------------------------------------------------------------
# factorization in GF(p)[x]


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of squarefree monic f: [(product, degree)].

    x^p mod f is taken once, by _gf_pow_mod. Frobenius is linear on
    GF(p)[x]/(f): v(x)^p = v(x^p), so each later x^(p^d) is one combination
    of the rows (x^p)^i mod f, i < deg f, with the products left unreduced
    until the sum (von zur Gathen and Shoup, Comput. Complexity 2 (1992)).
    The rows are built the first time they are needed, by deg f - 2
    _gf_mulmod's. Rows modulo an earlier f stay good for a later f, which
    divides it: each combination is reduced modulo the current f."""
    out = []
    f = list(f)
    xp = v = _gf_pow_mod([0, 1], p, f, p)
    rows = []
    d = 1
    while 2 * d < len(f):  # past deg f / 2, what is left of f is 1 or irreducible
        if d > 1:  # v = x^(p^(d-1)) mod f goes to v(x^p) = x^(p^d)
            if not rows:
                rows = [[1], _gf_divmod(xp, f, p)[1]]
                while len(rows) < len(f) - 1:
                    rows.append(_gf_mulmod(rows[-1], rows[1], f, p))
            acc = [0] * len(rows)
            for c, row in zip(v, rows):
                if c:
                    for j, r in enumerate(row):
                        acc[j] += c * r
            v = _gf_divmod(acc, f, p)[1]
        g = _gf_gcd(_gf_add(v, [0, 1], p, -1), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            v = _gf_divmod(v, f, p)[1]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus equal-degree splitting; f = monic product of
    irreducibles of degree d, p odd. Every part is a _gf_gcd output or a
    quotient of monic by monic, so the factors come out monic."""
    n = len(f) - 1
    if n == d:
        return [f]
    exponent = (p ** d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _gf_trim(a)
        if len(a) <= 1:
            continue
        g = _gf_gcd(a, f, p)
        if len(g) > 1 and len(g) - 1 < n:
            split = g
        else:
            t = _gf_pow_mod(a, exponent, f, p)
            t = _gf_add(t, [1], p, -1)
            split = _gf_gcd(t, f, p)
            if len(split) <= 1 or len(split) - 1 == n:
                continue
        other = _gf_divmod(f, split, p)[0]
        return _edf(split, d, p, rng) + _edf(other, d, p, rng)


def _factor_gf(ddf: list[tuple[list[int], int]], p: int, seed: int) -> list[list[int]]:
    """All monic irreducible factors over GF(p) of a squarefree monic f, from
    its distinct-degree factorization ddf = _ddf(f, p)."""
    rng = random.Random(seed)
    out = []
    for prod, d in ddf:
        out.extend(_edf(prod, d, p, rng))
    out.sort(key=lambda g: (len(g), tuple(g)))
    return out


# ---------------------------------------------------------------------------
# readers of the Frobenius cycle types (Dedekind), on the good-prime walk

# good primes whose distinct-degree factorizations make up the degree set
_SCREEN_PRIMES = 5


def _cycle_type(ddf) -> list[int]:
    """The cycle lengths of Frobenius on the roots of f mod p, for
    ddf = _ddf(f mod p, p): the degrees of f's monic irreducible factors."""
    return [d for prod, d in ddf for _ in range((len(prod) - 1) // d)]


def _degree_set(lengths) -> int:
    """The bitmask of every sum of a sub-multiset of the orbit lengths: bit d
    is set when some orbits of Frobenius together hold d roots."""
    sums = 1
    for d in lengths:
        sums |= sums << d
    return sums


def _degree_screen(F: IntPoly) -> tuple[int, int, list[tuple[list[int], int]]]:
    """(degree set, prime, DDF) of a monic squarefree F of degree n >= 2.

    The set is a bitmask: bit d is set when, modulo each screened prime, some
    of F's modular factor degrees sum to d. The degree of every factor of F
    over Z is such a d. The screen stops early at the set {0, n}, which proves
    F irreducible. The prime is the screened one with the fewest modular
    factors, the cheapest to lift from; the DDF is F's modulo that prime.
    """
    n = F.degree
    mask, best = (1 << n + 1) - 1, None
    for p, fp in islice(_good_primes(F), _SCREEN_PRIMES):
        ddf = _ddf(fp, p)
        lengths = _cycle_type(ddf)
        mask &= _degree_set(lengths)
        if best is None or len(lengths) < best[0]:
            best = (len(lengths), p, ddf)
        if mask == 1 | 1 << n:
            break
    return mask, best[1], best[2]


def _subset_orbit_lengths(ddf, s: int):
    """The orbit lengths, on the s-subsets of range(n), of a permutation of
    range(n) whose cycle type is _cycle_type(ddf); for s = 1, that type."""
    perm = []
    for d in _cycle_type(ddf):
        k = len(perm)
        perm += [*range(k + 1, k + d), k]
    seen = set()
    for sub in combinations(range(len(perm)), s):
        d = 0
        while sub not in seen:
            seen.add(sub)
            sub = tuple(sorted(perm[i] for i in sub))
            d += 1
        if d:
            yield d


_ORBIT_PRIMES = 12  # primes visited by _subset_degree_set, good or not


def _subset_degree_set(P: IntPoly, s: int, res: IntPoly) -> int:
    """The degree set, as in _degree_screen, of res if it is the resolvent
    of the s-subset products of the roots of a monic P of degree n > s > 0.

    res is proved squarefree over Z once. Frobenius is then read at each of
    the first _ORBIT_PRIMES primes l modulo which P stays squarefree: l is
    unramified in P's splitting field, so Frobenius is in the Galois group,
    with the DDF of P mod l as cycle type (Dedekind). Each irreducible factor
    of a squarefree res has a Galois orbit of s-subsets as its roots, a union
    of Frobenius orbits, so its degree is a sum of their lengths (Soicher and
    McKay, J. Number Theory 20 (1985)): a DDF of degree n, not C(n, s), and
    res need not be squarefree mod l. A res of another degree, or not proved
    squarefree, gets the full set."""
    n, N = P.degree, res.degree
    mask, done = (1 << N + 1) - 1, 1 | 1 << N
    if not 0 < s < n or N != math.comb(n, s) or not _proved_squarefree(res):
        return mask
    for p, fp in _good_primes(P, _ORBIT_PRIMES):
        mask &= _degree_set(_subset_orbit_lengths(_ddf(fp, p), s))
        if mask == done:
            break
    return mask


def _root_counts(f: IntPoly) -> Iterator[tuple[int, int]]:
    """(p, number of roots of f in F_p) for each good prime p of f, in
    increasing order: the Frobenius-fixed roots, deg gcd(x^p - x, f mod p)."""
    for p, fp in _good_primes(f):
        xp = _gf_pow_mod([0, 1], p, fp, p)
        yield p, len(_gf_gcd(_gf_add(xp, [0, 1], p, -1), fp, p)) - 1


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, two-factor step + multifactor recursion)


def _hensel_step(m, F, G, H, S, T):
    """One quadratic lift: inputs valid mod m, outputs valid mod m^2.

    F = G*H mod m, S*G + T*H = 1 mod m, H monic; returns (G*, H*, S*, T*).
    """
    m2 = m * m
    e = _gf_add(F, _gf_mul(G, H, m2), m2, -1)
    q, r = _gf_divmod(_gf_mul(S, e, m2), H, m2)
    G1 = _gf_add(_gf_add(G, _gf_mul(T, e, m2), m2), _gf_mul(q, G, m2), m2)
    H1 = _gf_add(H, r, m2)
    b = _gf_add(_gf_add(_gf_mul(S, G1, m2), _gf_mul(T, H1, m2), m2), [1], m2, -1)
    c, d = _gf_divmod(_gf_mul(S, b, m2), H1, m2)
    S1 = _gf_add(S, d, m2, -1)
    T1 = _gf_add(_gf_add(T, _gf_mul(T, b, m2), m2, -1), _gf_mul(c, G1, m2), m2, -1)
    return G1, H1, S1, T1


def _hensel_lift_pair(F, G0, H0, p, P):
    """Lift F = G0*H0 (mod p) to exactly modulus P = p^(2^t); F given mod P."""
    _, S, T = _gf_xgcd(G0, H0, p)
    m = p
    G, H = list(G0), list(H0)
    while m < P:
        G, H, S, T = _hensel_step(m, _gf_trim([c % (m * m) for c in F]), G, H, S, T)
        m *= m
    if m != P:
        raise ExactCheckFailed("Hensel lifting overshot its modulus")
    return G, H


def _hensel_multifactor(F, factors, p, P):
    """Lift monic squarefree F = prod(factors) (mod p) to mod P; F given mod P."""
    if len(factors) == 1:
        if not F or F[-1] != 1:
            raise ExactCheckFailed("a lifted factor is not monic")
        return [F]
    half = len(factors) // 2
    L, R = factors[:half], factors[half:]
    G, H = _hensel_lift_pair(F, _gf_prod(L, p), _gf_prod(R, p), p, P)
    return _hensel_multifactor(G, L, p, P) + _hensel_multifactor(H, R, p, P)


# ---------------------------------------------------------------------------
# recombination and the driver


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _mignotte_modulus(F: IntPoly, p: int) -> int:
    """Smallest K with p^K exceeding twice the factor coefficient bound."""
    n = F.degree
    norm2 = math.isqrt(sum(c * c for c in F.coeffs)) + 1
    bound = 2 ** n * norm2  # |coeff of any monic factor| <= 2^n * ||F||_2
    K = 1
    pk = p
    while pk <= 2 * bound:
        pk *= p
        K += 1
    return K


def _seed_from(g: IntPoly, p: int) -> int:
    seed = p
    for c in g.coeffs:
        seed = (seed * 1000003 + c) % (1 << 63)
    return seed


def _factor_squarefree_monic(F: IntPoly, p: int, mask: int, ddf) -> list[IntPoly]:
    """Irreducible monic integer factors of a monic squarefree F, degree >= 2.

    p is a good prime for F, and ddf = _ddf(F mod p, p). Bit d of mask is
    clear when no factor of F over Z has degree d; recombination skips
    subsets of such a degree.
    """
    modular = _factor_gf(ddf, p, _seed_from(F, p))
    K = _mignotte_modulus(F, p)
    # quadratic lifting wants a power-of-two exponent; overshooting is harmless
    pk = p ** (1 << (K - 1).bit_length())
    lifted = _hensel_multifactor(_gf_from(F, pk), modular, p, pk)
    lifted.sort(key=lambda g: (len(g), tuple(_symmetric(c, pk) for c in g)))

    found: list[IntPoly] = []
    remaining = F
    idx = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(idx):
        hit = None
        for combo in combinations(range(len(idx)), s):
            if not mask >> sum(len(lifted[idx[ci]]) - 1 for ci in combo) & 1:
                continue
            prod = _gf_prod((lifted[idx[ci]] for ci in combo), pk)
            cand = IntPoly([_symmetric(c, pk) for c in prod])
            if cand.degree >= remaining.degree:
                continue
            if remaining[0] != 0 and cand[0] != 0 and remaining[0] % cand[0] != 0:
                continue
            quo = div_z(remaining, cand)
            if quo is not None:
                hit = (combo, cand, quo)
                break
        if hit is None:
            s += 1
            continue
        combo, cand, quo = hit
        found.append(cand)
        idx = [ix for ci, ix in enumerate(idx) if ci not in combo]
        remaining = quo
    if remaining.degree > 0:
        found.append(remaining)
    return found


def _yun_squarefree(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm on a canonical f: [(squarefree factor, multiplicity)].

    The gcds are primitive, so every division here is exact over Z by Gauss's
    lemma.
    """
    fp = f.derivative()
    g = gcd_z(f, fp)
    if g.degree == 0:
        return [(f, 1)]
    c = div_z(f, g)
    w = div_z(fp, g)
    if c is None or w is None:
        raise ExactCheckFailed("gcd(f, f') does not divide f and f'")
    out = []
    i = 1
    while c.degree > 0:
        y = w - c.derivative()
        a = gcd_z(c, y)
        if a.degree > 0:
            out.append((a, i))
            c = div_z(c, a)
            w = div_z(y, a)
            if c is None or w is None:
                raise ExactCheckFailed("a Yun gcd does not divide its arguments")
        else:
            w = y
        i += 1
    return out


class Factorization(Record):
    """content * prod(factor^multiplicity) reproduces the input exactly."""

    content: int
    factors: tuple[tuple[IntPoly, int], ...]

    def expand(self) -> IntPoly:
        out = IntPoly((self.content,))
        for f, m in self.factors:
            for _ in range(m):
                out = out * f
        return out


def _factor_primitive_squarefree(g: IntPoly) -> list[IntPoly]:
    """Irreducible canonical factors of a primitive squarefree g, any lc."""
    out = []
    if g[0] == 0:
        # squarefree, so x divides exactly once
        out.append(IntPoly((0, 1)))
        g = IntPoly(g.coeffs[1:])
    if g.degree == 0:
        return out
    if g.degree == 1:
        out.append(canonicalize(g))
        return out
    F, c = monicize(g)
    mask, p, ddf = _degree_screen(F)
    if mask == 1 | 1 << g.degree:
        out.append(canonicalize(g))
        return out
    # roots of H are c * (roots of g); undo the scaling
    out.extend(_scaled(H, Fraction(1, c)) for H in _factor_squarefree_monic(F, p, mask, ddf))
    return out


@lru_cache(maxsize=256)
def _factor_cached(coeffs: tuple[int, ...]) -> Factorization:
    p = IntPoly(coeffs)
    prim = canonicalize(p)
    factors: list[tuple[IntPoly, int]] = []
    if prim.degree >= 1:
        parts = [(prim, 1)] if _proved_squarefree(prim) else _yun_squarefree(prim)
        for sqf, mult in parts:
            for irr in _factor_primitive_squarefree(sqf):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    # the canonical factors are primitive with positive lc, so the sign and
    # any residual unit live in the content
    result = Factorization(p.content(), tuple(factors))
    if result.expand() != p:
        raise ExactCheckFailed("factorization does not reproduce its input")
    return result


def factor_z(p: IntPoly) -> Factorization:
    """Full factorization over Q with deterministic ordering."""
    if p.is_zero:
        raise ZeroPolynomial("factor_z of zero polynomial")
    return _factor_cached(p.coeffs)


def cyclotomic_part(p: IntPoly) -> IntPoly:
    """Product (with multiplicity) of the cyclotomic factors of p, canonical."""
    if p.is_zero:
        raise ZeroPolynomial("cyclotomic_part of zero polynomial")
    kept = tuple((q, mult) for q, mult in factor_z(p).factors if _is_cyclotomic_irreducible(q))
    return canonicalize(Factorization(1, kept).expand())


def is_irreducible(p: IntPoly) -> bool:
    """True iff p is irreducible over Q and primitive with positive lc.

    Read from the cached factor_z(p), whose degree-set screen proves most
    irreducible inputs without Hensel lifting.
    """
    if p.is_zero or p.degree < 1:
        return False
    if p.content() != 1:  # signed content: 1 means primitive with positive lc
        return False
    if p.degree == 1:
        return True
    return factor_z(p).factors == ((p, 1),)
