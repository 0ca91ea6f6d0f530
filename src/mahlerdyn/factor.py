"""Complete factorization of integer polynomials over Q.

Zassenhaus pipeline: Yun squarefree decomposition (skipped when the input is
squarefree modulo a prime), a degree-set screen (Musser, J. ACM 25 (1978)),
factorization modulo a good prime (distinct-degree then seeded
Cantor-Zassenhaus equal-degree splitting), quadratic Hensel lifting past twice
a Mignotte-style coefficient bound, and subset recombination in
cardinality-then-lex order. The screen takes the distinct-degree factorization
of each monicized squarefree part modulo up to _SCREEN_PRIMES good primes
(primes >= 11 modulo which it stays squarefree) and intersects the subset sums
of their modular factor degrees. Every factor over Z has a degree in that set,
so a set of {0, n} proves the part irreducible with no lifting; otherwise
lifting runs from the screen's factorization at the screened prime with the
fewest modular factors. _subset_degree_set reads such a set for a
subset-product resolvent off the Frobenius cycle types of the polynomial it
is built from, with no DDF of the resolvent. Everything is deterministic: the
primes are tried in increasing order, the splitting RNG is seeded from the
input, and factors are reported sorted by (degree, coefficient tuple).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice

from .errors import ExactCheckFailed, ZeroPolynomial
from .intpoly import (
    IntPoly,
    _gf_divmod,
    _gf_from,
    _gf_gcd,
    _gf_trim,
    _proved_squarefree,
    _squarefree_mod,
    canonicalize,
    div_z,
    gcd_z,
    monicize,
)

# ---------------------------------------------------------------------------
# arithmetic in GF(p)[x] beyond intpoly's kernels (same dense lists)


def _gf_add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _gf_trim(out)

def _gf_sub(a, b, m):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _gf_trim(out)


def _gf_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _gf_trim([c % m for c in out])


def _gf_pow_mod(a, e, mod_poly, m):
    result = [1]
    base = _gf_divmod(a, mod_poly, m)[1]
    while e:
        if e & 1:
            result = _gf_divmod(_gf_mul(result, base, m), mod_poly, m)[1]
        e >>= 1
        if e:
            base = _gf_divmod(_gf_mul(base, base, m), mod_poly, m)[1]
    return result


# ---------------------------------------------------------------------------
# factorization in GF(p)[x]


def _ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of squarefree monic f: [(product, degree)]."""
    out = []
    v = [0, 1]  # x
    d = 0
    f = list(f)
    while len(f) - 1 > 2 * d:
        d += 1
        v = _gf_pow_mod(v, p, f, p)
        g = _gf_gcd(_gf_sub(v, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            v = _gf_divmod(v, f, p)[1]
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
            t = _gf_sub(t, [1], p)
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
# Hensel lifting (quadratic, two-factor step + multifactor recursion)


def _gf_xgcd(a, b, m):
    """(g, s, t) with s*a + t*b = g (monic) in GF(m)[x]."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, m), m)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, m), m)
    inv = pow(r0[-1], -1, m)
    return ([c * inv % m for c in r0],
            [c * inv % m for c in s0],
            [c * inv % m for c in t0])


def _hensel_step(m, F, G, H, S, T):
    """One quadratic lift: inputs valid mod m, outputs valid mod m^2.

    F = G*H mod m, S*G + T*H = 1 mod m, H monic; returns (G*, H*, S*, T*).
    """
    m2 = m * m
    e = _gf_sub(F, _gf_mul(G, H, m2), m2)
    q, r = _gf_divmod(_gf_mul(S, e, m2), H, m2)
    G1 = _gf_add(_gf_add(G, _gf_mul(T, e, m2), m2), _gf_mul(q, G, m2), m2)
    H1 = _gf_add(H, r, m2)
    b = _gf_sub(_gf_add(_gf_mul(S, G1, m2), _gf_mul(T, H1, m2), m2), [1], m2)
    c, d = _gf_divmod(_gf_mul(S, b, m2), H1, m2)
    S1 = _gf_sub(S, d, m2)
    T1 = _gf_sub(_gf_sub(T, _gf_mul(T, b, m2), m2), _gf_mul(c, G1, m2), m2)
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
    G0 = [1]
    for g in L:
        G0 = _gf_mul(G0, g, p)
    H0 = [1]
    for g in R:
        H0 = _gf_mul(H0, g, p)
    G, H = _hensel_lift_pair(F, G0, H0, p, P)
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


def _small_primes():
    yield from (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
    n = 101
    while True:
        if all(n % q for q in range(2, math.isqrt(n) + 1)):
            yield n
        n += 2


# good primes whose distinct-degree factorizations make up the degree set
_SCREEN_PRIMES = 5


def _degree_screen(F: IntPoly) -> tuple[int, int, list[tuple[list[int], int]]]:
    """(degree set, prime, DDF) of a monic squarefree F of degree n >= 2.

    The set is a bitmask: bit d is set when, modulo each screened prime, some
    of F's modular factor degrees sum to d. The degree of every factor of F
    over Z is such a d. The screen stops early at the set {0, n}, which proves
    F irreducible. The prime is the screened one with the fewest modular
    factors, the cheapest to lift from; the DDF is F's modulo that prime.
    """
    n = F.degree
    mask, best, tried = (1 << n + 1) - 1, None, 0
    for p in _small_primes():
        if tried == _SCREEN_PRIMES or mask == 1 | 1 << n:
            break
        fp = _squarefree_mod(F, p)
        if fp is None:
            continue
        tried += 1
        ddf = _ddf(fp, p)
        sums, count = 1, 0
        for prod, d in ddf:
            for _ in range((len(prod) - 1) // d):
                sums |= sums << d
                count += 1
        mask &= sums
        if best is None or count < best[0]:
            best = (count, p, ddf)
    return mask, best[1], best[2]


def _subset_orbit_lengths(ddf, s: int):
    """The orbit lengths, on the s-subsets of range(n), of a permutation of
    range(n) whose cycle type is the degree list of ddf = _ddf(f, p)."""
    perm = []
    for prod, d in ddf:
        for _ in range((len(prod) - 1) // d):
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

    Modulo a prime l where P and res are squarefree, the factor degrees of
    res are the orbit lengths, on s-subsets, of the Frobenius permutation of
    P's roots (Dedekind), whose cycle type is the DDF of P mod l (Soicher
    and McKay, J. Number Theory 20 (1985)): a DDF of degree n, not C(n, s).
    The first _ORBIT_PRIMES primes are visited. A res of another degree, or
    not proved squarefree, gets the full set."""
    n, N = P.degree, res.degree
    mask, done = (1 << N + 1) - 1, 1 | 1 << N
    if not 0 < s < n or N != math.comb(n, s) or not _proved_squarefree(res):
        return mask
    for p in islice(_small_primes(), _ORBIT_PRIMES):
        fp = _squarefree_mod(P, p)
        if fp is None or _squarefree_mod(res, p) is None:
            continue
        sums = 1
        for d in _subset_orbit_lengths(_ddf(fp, p), s):
            sums |= sums << d
        mask &= sums
        if mask == done:
            break
    return mask


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
            prod = [1]
            for ci in combo:
                prod = _gf_mul(prod, lifted[idx[ci]], pk)
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


@dataclass(frozen=True)
class Factorization:
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
    for H in _factor_squarefree_monic(F, p, mask, ddf):
        if c == 1:
            out.append(canonicalize(H))
        else:
            # roots of H are c * (roots of g); undo the scaling
            h = IntPoly([H[i] * c ** i for i in range(H.degree + 1)])
            out.append(canonicalize(h))
    return out


@lru_cache(maxsize=256)
def _factor_cached(coeffs: tuple[int, ...]) -> Factorization:
    p = IntPoly(coeffs)
    content = p.content()
    prim = IntPoly([c // content for c in p.coeffs])
    factors: list[tuple[IntPoly, int]] = []
    if prim.degree >= 1:
        parts = [(prim, 1)] if _proved_squarefree(prim) else _yun_squarefree(prim)
        for sqf, mult in parts:
            for irr in _factor_primitive_squarefree(sqf):
                factors.append((irr, mult))
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    # the canonical factors are primitive with positive lc, so the sign and
    # any residual unit live in the content
    result = Factorization(content, tuple(factors))
    if result.expand() != p:
        raise ExactCheckFailed("factorization does not reproduce its input")
    return result


def factor_z(p: IntPoly) -> Factorization:
    """Full factorization over Q with deterministic ordering."""
    if p.is_zero:
        raise ZeroPolynomial("factor_z of zero polynomial")
    return _factor_cached(p.coeffs)


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
