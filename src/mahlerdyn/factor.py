"""Complete factorization of integer polynomials over Q.

Zassenhaus pipeline: Yun squarefree decomposition, factorization modulo a
deterministically chosen good prime (distinct-degree then seeded
Cantor-Zassenhaus equal-degree splitting), quadratic Hensel lifting past twice
a Mignotte-style coefficient bound, and subset recombination in
cardinality-then-lex order. Everything is deterministic: the prime is the
smallest >= 11 not dividing the leading coefficient for which the squarefree
part stays squarefree mod p, the splitting RNG is seeded from the input, and
factors are reported sorted by (degree, coefficient tuple).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import ExactCheckFailed, ZeroPolynomial
from .intpoly import IntPoly, canonicalize, div_z, gcd_z, monicize

# ---------------------------------------------------------------------------
# arithmetic in GF(p)[x]: dense lists, constant term first, coeffs in [0, p)


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_from(p: IntPoly, m: int) -> list[int]:
    return _gf_trim([c % m for c in p.coeffs])


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


def _gf_divmod(a, b, m):
    """divmod in GF(m)[x] (m prime); b nonzero."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv = pow(lb, -1, m)
    if len(a) - 1 < db:
        return [], _gf_trim(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] % m
        if c:
            t = c * inv % m
            q[i] = t
            for j in range(db + 1):
                a[i + j] = (a[i + j] - t * b[j]) % m
    return _gf_trim(q), _gf_trim(a[:db])


def _gf_gcd(a, b, m):
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_divmod(a, b, m)[1]
    if a:
        inv = pow(a[-1], -1, m)
        a = [c * inv % m for c in a]
    return a


def _gf_monic(a, m):
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


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


def _gf_deriv(a, m):
    return _gf_trim([i * c % m for i, c in enumerate(a)][1:])


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
    """Cantor-Zassenhaus equal-degree splitting; f = product of irreducibles of
    degree d, p odd."""
    n = len(f) - 1
    if n == d:
        return [_gf_monic(f, p)]
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


def _factor_gf(f: list[int], p: int, seed: int) -> list[list[int]]:
    """All monic irreducible factors of squarefree monic f over GF(p)."""
    rng = random.Random(seed)
    out = []
    for prod, d in _ddf(f, p):
        out.extend(_edf(prod, d, p, rng))
    out.sort(key=lambda g: (len(g), tuple(g)))
    return out


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, two-factor step + multifactor recursion)


def _zp_poly(a: list[int], m: int) -> list[int]:
    return _gf_trim([c % m for c in a])


def _zp_divmod_monic(a, b, m):
    """divmod mod m by monic b (unit leading coefficient not required beyond 1)."""
    a = [c % m for c in a]
    db = len(b) - 1
    if len(a) - 1 < db:
        return [], _gf_trim(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        t = a[i + db] % m
        if t:
            q[i] = t
            for j in range(db + 1):
                a[i + j] = (a[i + j] - t * b[j]) % m
    return _gf_trim(q), _gf_trim(a[:db])


def _zp_mul(a, b, m):
    return _gf_mul(a, b, m)


def _zp_sub(a, b, m):
    return _gf_sub(a, b, m)


def _zp_add(a, b, m):
    return _gf_add(a, b, m)


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
    e = _zp_sub(F, _zp_mul(G, H, m2), m2)
    q, r = _zp_divmod_monic(_zp_mul(S, e, m2), H, m2)
    G1 = _zp_add(_zp_add(G, _zp_mul(T, e, m2), m2), _zp_mul(q, G, m2), m2)
    H1 = _zp_add(H, r, m2)
    b = _zp_sub(_zp_add(_zp_mul(S, G1, m2), _zp_mul(T, H1, m2), m2), [1], m2)
    c, d = _zp_divmod_monic(_zp_mul(S, b, m2), H1, m2)
    S1 = _zp_sub(S, d, m2)
    T1 = _zp_sub(_zp_sub(T, _zp_mul(T, b, m2), m2), _zp_mul(c, G1, m2), m2)
    return G1, H1, S1, T1


def _hensel_lift_pair(F, G0, H0, p, P):
    """Lift F = G0*H0 (mod p) to exactly modulus P = p^(2^t); F given mod P."""
    _, S, T = _gf_xgcd(G0, H0, p)
    m = p
    G, H = list(G0), list(H0)
    while m < P:
        G, H, S, T = _hensel_step(m, _zp_poly(F, m * m), G, H, S, T)
        m *= m
    assert m == P
    return _zp_poly(G, P), _zp_poly(H, P)


def _hensel_multifactor(F, factors, p, P):
    """Lift monic squarefree F = prod(factors) (mod p) to mod P; F given mod P."""
    if len(factors) == 1:
        assert F and F[-1] == 1
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


def _good_prime(g: IntPoly) -> int:
    """Smallest prime >= 11 keeping lc a unit and g squarefree mod p."""
    for p in _small_primes():
        if g.lc % p == 0:
            continue
        fp = _gf_from(g, p)
        if len(_gf_gcd(fp, _gf_deriv(fp, p), p)) == 1:
            return p
    raise AssertionError("unreachable: infinitely many good primes")


def _seed_from(g: IntPoly, p: int) -> int:
    seed = p
    for c in g.coeffs:
        seed = (seed * 1000003 + c) % (1 << 63)
    return seed


def _factor_squarefree_monic(F: IntPoly) -> list[IntPoly]:
    """Irreducible monic integer factors of a monic squarefree F."""
    n = F.degree
    if n <= 1:
        return [F] if n == 1 else []
    p = _good_prime(F)
    modular = _factor_gf(_gf_from(F, p), p, _seed_from(F, p))
    if len(modular) == 1:
        return [F]
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
            prod = [1]
            for ci in combo:
                prod = _zp_mul(prod, lifted[idx[ci]], pk)
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
    assert c is not None and w is not None
    out = []
    i = 1
    while c.degree > 0:
        y = w - c.derivative()
        a = gcd_z(c, y)
        if a.degree > 0:
            out.append((a, i))
            c = div_z(c, a)
            w = div_z(y, a)
            assert c is not None and w is not None
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
    for H in _factor_squarefree_monic(F):
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
        for sqf, mult in _yun_squarefree(prim):
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
    """True iff p is irreducible with content 1 (up to nothing else).

    Short-circuits on a prime witness: irreducible mod q at full degree for a
    prime q not dividing the leading coefficient.
    """
    if p.is_zero or p.degree < 1:
        return False
    if p.content() != 1:  # signed content: 1 means primitive with positive lc
        return False
    if p.degree == 1:
        return True
    tried = 0
    for q in _small_primes():
        if tried >= 3:
            break
        if p.lc % q == 0:
            continue
        fp = _gf_from(p, q)
        if len(_gf_gcd(fp, _gf_deriv(fp, q), q)) != 1:
            tried += 1
            continue
        ddf = _ddf(_gf_monic(fp, q), q)
        if len(ddf) == 1 and len(ddf[0][0]) == len(fp):
            prod, d = ddf[0]
            if d == p.degree:
                return True
        tried += 1
    fz = factor_z(p)
    return len(fz.factors) == 1 and fz.factors[0][1] == 1 and fz.content == 1
