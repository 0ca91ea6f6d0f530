"""Exact arithmetic on integer polynomials.

Dense representation, constant term first; canonicalize (no content, lc > 0)
is the one normal form. All decision procedures here are exact: the integer
primitive PRS for gcds, and integer-only reciprocal/trace transforms for
unit-circle work. Real roots are counted from the certified isolation in
roots, not here. Every resolvent (power map, product, ratio, transform, and
the subset and pair products behind the Mahler measure) and every resultant
(norms, discriminants) is built one way: the power sums of the input roots
are mapped to those of the resolvent roots, and Newton's identities, with
exact divisions, give the coefficients. Nothing here is floating point.
It also holds the all-integer LLL that minpoly guessing (mahler) and
automorphism discovery (nfield) share, and the kernels of the one modular
layer: GF(m)[x] arithmetic and the walk over the good primes of f (from 11
up, modulo which f stays squarefree). factor holds its readers; the
squarefree proof that is_squarefree and factor_z try before any gcd over Z
is the walk's first three primes.

The polynomial text grammar used across the package (CLI included) is
comma-separated decimal integers, constant term first: x^2 - 2 is "-2,0,1".
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    ExactCheckFailed,
    InvalidPoly,
    NotMonic,
    NotReciprocal,
    OddDegree,
    RankDeficient,
    ZeroPolynomial,
)


class IntPoly:
    """Immutable integer polynomial, coefficients constant-first.

    The zero polynomial is stored with an empty coefficient tuple; otherwise
    the highest-index coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- basic structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def shift_up(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def reversal(self) -> "IntPoly":
        """x^deg * p(1/x), with stored (possibly zero) low coefficients kept."""
        return IntPoly(tuple(reversed(self.coeffs)))

    # -- content and normal forms --------------------------------------------

    def content(self) -> int:
        """gcd of coefficients, with the sign of the leading coefficient."""
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        return g if self.lc >= 0 else -g

    def max_coeff_bits(self) -> int:
        return max((abs(c).bit_length() for c in self.coeffs), default=0)

    def __repr__(self) -> str:
        return f"IntPoly({to_text(self)!r})"


X = IntPoly((0, 1))
ONE = IntPoly((1,))


def from_rational(q: Fraction) -> IntPoly:
    """Canonical degree-1 polynomial with root q."""
    return IntPoly((-q.numerator, q.denominator))


# -- text grammar -------------------------------------------------------------


def from_text(text: str) -> IntPoly:
    """Parse the shared comma-separated coefficient grammar."""
    parts = [s.strip() for s in text.split(",")]
    if not parts or any(not s for s in parts):
        raise InvalidPoly(f"bad polynomial text: {text!r}")
    try:
        return IntPoly(int(s) for s in parts)
    except ValueError as e:
        raise InvalidPoly(f"bad polynomial text: {text!r}") from e


def to_text(p: IntPoly) -> str:
    if p.is_zero:
        return "0"
    return ",".join(str(c) for c in p.coeffs)


# -- division -----------------------------------------------------------------


def div_z(p: IntPoly, q: IntPoly) -> Optional[IntPoly]:
    """Exact quotient p/q over Z, or None if q does not divide p."""
    if q.is_zero:
        raise ZeroPolynomial("division by zero polynomial")
    if p.is_zero:
        return p
    if p.degree < q.degree:
        return None
    rem = list(p.coeffs)
    qc = q.coeffs
    dq, lq = q.degree, q.lc
    out = [0] * (p.degree - dq + 1)
    for i in range(p.degree - dq, -1, -1):
        c = rem[i + dq]
        if c == 0:
            continue
        t, r = divmod(c, lq)
        if r:
            return None
        out[i] = t
        for j, cq in enumerate(qc):
            rem[i + j] -= t * cq
    if any(c != 0 for c in rem[:dq]):
        return None
    return IntPoly(out)


def prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a = q*b + r."""
    da, db = a.degree, b.degree
    if da < db:
        return a
    d = b.lc
    rem = [c * d ** (da - db + 1) for c in a.coeffs]
    bc = b.coeffs
    for i in range(da - db, -1, -1):
        c = rem[i + db]
        if c == 0:
            continue
        t, r = divmod(c, d)
        if r:
            raise ExactCheckFailed("pseudo-remainder step is not an exact division")
        rem[i + db] = 0
        for j in range(db):
            rem[i + j] -= t * bc[j]
    return IntPoly(rem)


# -- spec operations ----------------------------------------------------------


def canonicalize(p: IntPoly) -> IntPoly:
    """Divide out the content and make the leading coefficient positive."""
    c = p.content()
    if c in (0, 1):
        return p
    return IntPoly([a // c for a in p.coeffs])


def gcd_z(p: IntPoly, q: IntPoly) -> IntPoly:
    """Polynomial gcd over Z, canonical. A nonconstant gcd is primitive with a
    positive leading coefficient; a constant one is the gcd of the contents.
    So with one operand zero, the gcd of the other, r, is canonicalize(r) for
    a nonconstant r and |r| for a constant one; gcd_z(0, 0) is 0. Primitive
    PRS (Cohen, GTM 138, Alg. 3.3.1)."""
    a, b = canonicalize(p), canonicalize(q)
    if a.degree < b.degree:
        a, b = b, a
    while b.degree > 0:
        a, b = b, canonicalize(prem(a, b))
    return a if b.is_zero and a.degree > 0 else IntPoly((math.gcd(p.content(), q.content()),))


def squarefree_part(p: IntPoly) -> IntPoly:
    """p / gcd(p, p'), canonical."""
    if p.is_zero:
        raise ZeroPolynomial("squarefree_part of zero polynomial")
    if p.degree == 0:
        return ONE
    g = gcd_z(p, p.derivative())
    if g.degree == 0:
        return canonicalize(p)
    # Gauss: the primitive gcd divides the primitive part exactly over Z.
    q = div_z(canonicalize(p), g)
    if q is None:
        raise ExactCheckFailed("gcd(p, p') does not divide p")
    return canonicalize(q)


def is_squarefree(p: IntPoly) -> bool:
    return not p.is_zero and (
        p.degree <= 0 or _proved_squarefree(p) or gcd_z(p, p.derivative()).degree == 0
    )


# -- arithmetic in GF(m)[x]: dense lists, constant term first, coeffs in [0, m) --


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_from(p: IntPoly, m: int) -> list[int]:
    return _gf_trim([c % m for c in p.coeffs])


def _gf_add(a, b, m, sign: int = 1):
    """a + sign*b in (Z/m)[x] (sign is 1 or -1)."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] + sign * c) % m
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


def _gf_deriv(a, m):
    return _gf_trim([i * c % m for i, c in enumerate(a)][1:])


def _gf_divmod(a, b, m):
    """divmod in (Z/m)[x]; lc(b) must be invertible mod m (b monic, or m prime).

    Both parts come back in [0, m). The inner loop leaves the coefficients
    of a unreduced: each leading one is taken % m when it is read, and each
    kept one once at the end."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * (len(a) - db)  # empty when deg a < deg b
    for i in range(len(a) - 1 - db, -1, -1):
        t = a[i + db] * inv % m
        if t:
            q[i] = t
            for j in range(db):
                a[i + j] -= t * b[j]
    return _gf_trim(q), _gf_trim([c % m for c in a[:db]])


def _gf_mulmod(a, b, f, m):
    """a*b mod f in (Z/m)[x]; lc(f) must be invertible mod m.

    A square (a is b) accumulates unreduced, adding each cross term once,
    doubled, and _gf_divmod reduces it, late."""
    if a is not b:
        return _gf_divmod(_gf_mul(a, b, m), f, m)[1]
    out = [0] * (2 * len(a) - 1)  # empty when a is zero
    for i, c in enumerate(a):
        if c:
            out[2 * i] += c * c
            c += c
            for j in range(i + 1, len(a)):
                out[i + j] += c * a[j]
    return _gf_divmod(out, f, m)[1]


def _gf_pow_mod(a, e, mod_poly, m):
    """a^e mod mod_poly in (Z/m)[x]; lc(mod_poly) must be invertible mod m.

    Left-to-right square-and-multiply on _gf_mulmod, so every step reduces
    late. When a is x, a multiply step is a shift by one and one reduction."""
    if not e:
        return [1]
    r = base = _gf_divmod(a, mod_poly, m)[1]
    for bit in bin(e)[3:]:
        r = _gf_mulmod(r, r, mod_poly, m)
        if bit == "1":
            r = (_gf_divmod([0, *r], mod_poly, m)[1] if base == [0, 1]
                 else _gf_mulmod(r, base, mod_poly, m))
    return r


def _gf_prod(polys, m):
    """The product of polys in (Z/m)[x]."""
    return functools.reduce(lambda a, b: _gf_mul(a, b, m), polys, [1])


def _gf_gcd(a, b, m):
    a, b = list(a), list(b)
    while b:
        a, b = b, _gf_divmod(a, b, m)[1]
    if a:
        inv = pow(a[-1], -1, m)
        a = [c * inv % m for c in a]
    return a


def _gf_xgcd(a, b, m):
    """(g, s, t) with s*a + t*b = g (monic) in GF(m)[x]."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, m)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_add(s0, _gf_mul(q, s1, m), m, -1)
        t0, t1 = t1, _gf_add(t0, _gf_mul(q, t1, m), m, -1)
    inv = pow(r0[-1], -1, m)
    return ([c * inv % m for c in r0],
            [c * inv % m for c in s0],
            [c * inv % m for c in t0])


def _small_primes() -> Iterator[int]:
    """The primes from 11 up, in increasing order, without end."""
    n = 11
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def _squarefree_mod(p: IntPoly, m: int) -> Optional[list[int]]:
    """p mod the prime m if m does not divide lc(p) and p stays squarefree
    mod m, else None.

    A repeated factor of p over Z keeps its degree mod such an m and stays
    repeated, so a result proves p squarefree over Z. A squarefree p fails
    only where m divides lc(p) disc(p).
    """
    if p.lc % m == 0:
        return None
    fp = _gf_from(p, m)
    return fp if len(_gf_gcd(fp, _gf_deriv(fp, m), m)) == 1 else None


def _good_primes(f: IntPoly, visit: Optional[int] = None):
    """(p, f mod p) for each of the first `visit` primes from 11 up (all when
    None) modulo which f stays squarefree: the one prime walk of the
    squarefree proof, the degree sets and the root counts."""
    for p in islice(_small_primes(), visit):
        fp = _squarefree_mod(f, p)
        if fp is not None:
            yield p, fp


def _proved_squarefree(p: IntPoly) -> bool:
    """True if p is squarefree mod one of the first three primes from 11, which
    proves it squarefree over Z. False proves nothing: the caller decides."""
    return next(_good_primes(p, visit=3), None) is not None


# -- reciprocal / trace machinery ----------------------------------------------


def reciprocal_test(p: IntPoly) -> str:
    """'Plus' if x^deg p(1/x) = p, 'Minus' if = -p, else 'No'."""
    if p.is_zero:
        return "No"
    rev = tuple(reversed(p.coeffs))
    if rev == p.coeffs:
        return "Plus"
    if rev == tuple(-c for c in p.coeffs):
        return "Minus"
    return "No"


def trace_poly(p: IntPoly) -> IntPoly:
    """h of degree deg(p)/2 with p(x) = x^(deg/2) * h(x + 1/x).

    Uses x^j + x^{-j} = V_j(s), V_0 = 2, V_1 = s, V_j = s*V_{j-1} - V_{j-2}.
    Caller guarantees p irreducible; only reciprocity and parity are checked.
    """
    if reciprocal_test(p) != "Plus":
        raise NotReciprocal("trace_poly requires a plus-reciprocal polynomial")
    d = p.degree
    if d % 2 or d == 0:
        raise OddDegree("trace_poly requires even degree >= 2")
    k = d // 2
    h = IntPoly((p[k],))
    v_prev, v_cur = IntPoly((2,)), X
    for j in range(1, k + 1):
        h = h + p[k + j] * v_cur
        if j < k:
            v_prev, v_cur = v_cur, X * v_cur - v_prev
    return h


def untrace_poly(h: IntPoly) -> IntPoly:
    """Inverse of trace_poly: x^deg(h) * h(x + 1/x) as an integer polynomial."""
    k = h.degree
    out = IntPoly(())
    # x^k * (x + 1/x)^j = x^(k-j) * (x^2 + 1)^j
    x2p1_pow = ONE
    powers = []
    for _ in range(k + 1):
        powers.append(x2p1_pow)
        x2p1_pow = x2p1_pow * IntPoly((1, 0, 1))
    for j in range(k + 1):
        if h[j]:
            out = out + h[j] * powers[j].shift_up(k - j)
    return out


# -- resolvents from power sums -------------------------------------------------
#
# Every resolvent is built one way: map the power sums of the input roots to
# the power sums of the resolvent roots, then recover the polynomial with
# Newton's identities. Power sums of algebraic integers are integers, so a
# non-monic input is monicized first (roots c*alpha) and the roots are divided
# by c again at the end. Every division in Newton's identities must be exact;
# one that is not raises ExactCheckFailed.
#
# The two product resolvents behind the Mahler measure share one loop
# (_esym_sums): the k-th power sum of the resolvent is e_s of numbers u_j(k),
# read off their first s power sums by Newton's identities.
# - Subset products of the n roots alpha_j of monic g: u_j = alpha_j^k, so
#   sum_j u_j^i = p_(ik); degree C(n, s).
# - Pair products of a monic plus-reciprocal g of degree 2m, whose roots
#   pair up as {r_j, 1/r_j}: prod_{j in J} r_j^(+-1) over the s-subsets J of
#   pairs, N = C(m, s) 2^s of them. Here u_j = r_j^k + r_j^-k, and the sums
#   sum_j u_j^i come from the power sums p_(kt) of g by _trace_sums, with no
#   division. The products are closed under t -> 1/t (flip every sign), so
#   they too pair up, and only the trace resolvent R of their N/2 values
#   t + 1/t is built: x^(N/2) R(x + 1/x) is the pair resolvent. Its power
#   sums come from P_1..P_(N/2) of the products by _trace_sums again, so g's
#   power sums are needed only up to s N/2, and Newton's identities run on
#   N/2 sums instead of N.
# The pair products are the subset products that take at most one root from
# each pair, so the pair resolvent divides the subset resolvent exactly over
# Z, and its cofactor's roots are among the subset resolvent's cofactor's.


def _power_sums(g: IntPoly, m: int) -> list:
    """Power sums p_1..p_m of the roots of monic g (index 0 unused)."""
    n = g.degree
    # p_k = (-1)^(k-1) k e_k + sum_{i=1}^{min(k-1, n)} (-1)^(i-1) e_i p_(k-i),
    # where (-1)^(i-1) e_i = -g[n-i] is held at index n - i of se
    se = [-c for c in g.coeffs[:n]]
    p = [0] * (m + 1)
    for k in range(1, m + 1):
        t = min(k - 1, n)
        acc = sum(map(operator.mul, p[k - t:k], se[n - t:]))
        p[k] = acc + k * se[n - k] if k <= n else acc
    return p


def _elem_from_power_sums(p: list, m: int) -> list:
    """e_0..e_m from power sums p[1..m]; divisions must be exact."""
    # e_k = (1/k) sum_{i=1}^k (-1)^(i-1) e_(k-i) p_i, where (-1)^(i-1) p_i is
    # held at index m - i of sp
    sp = [p[i] if i % 2 else -p[i] for i in range(m, 0, -1)]
    e = [1]
    for k in range(1, m + 1):
        q, r = divmod(sum(map(operator.mul, e, sp[m - k:])), k)
        if r:
            raise ExactCheckFailed(f"e_{k} from power sums is not an integer")
        e.append(q)
    return e


def _from_power_sums(p: list, c: int = 1) -> IntPoly:
    """Canonical polynomial whose roots are gamma_i / c, where p[1..D] are the
    power sums of D algebraic integers gamma_i (index 0 unused)."""
    d = len(p) - 1
    e = _elem_from_power_sums(p, d)
    # prod (c x - gamma_i) = sum_j (-1)^(d-j) e_(d-j) c^j x^j
    return canonicalize(IntPoly([(-1) ** (d - j) * e[d - j] * c**j for j in range(d + 1)]))


def _esym_sums(cnt: int, s: int, sums) -> list:
    """[0, P_1, ..., P_cnt], where P_k is e_s of the numbers whose first s
    power sums are sums(k)[1..s]."""
    return [0] + [_elem_from_power_sums(sums(k), s)[s] for k in range(1, cnt + 1)]


def _trace_sums(p: list, half: int) -> list:
    """Power sums 0..len(p)-1 of the values t + 1/t over `half` pairs
    {t, 1/t}, from the power sums p[1..] of all 2 half numbers t: the
    binomial expansion summed over both members of each pair and halved,
      sum (t + 1/t)^i = sum_{l < i/2} C(i, l) p_(i-2l) + [i even] C(i, i/2) half."""
    return [sum(math.comb(i, l) * p[i - 2 * l] for l in range((i + 1) // 2))
            + (math.comb(i, i // 2) * half if i % 2 == 0 else 0) for i in range(len(p))]


def _subset_product_poly(g: IntPoly, s: int) -> IntPoly:
    """Monic polynomial whose roots are the products over every size-s
    subset of the roots of monic g, with multiplicity."""
    cnt = math.comb(g.degree, s)
    ps = _power_sums(g, s * cnt)
    return _from_power_sums(_esym_sums(cnt, s, lambda k: [ps[i * k] for i in range(s + 1)]))


def _trace_product_poly(g: IntPoly, s: int) -> IntPoly:
    """Monic R of degree C(m, s) 2^(s-1), for monic plus-reciprocal g of
    degree 2m, whose roots are the values t + 1/t of the products
    t = prod_{j in J} r_j^(+-1) over every s-subset J of the root pairs
    {r_j, 1/r_j} of g, one per pair {t, 1/t}, with multiplicity."""
    m = g.degree // 2
    half = math.comb(m, s) << (s - 1)
    ps = _power_sums(g, s * half)
    pair = _esym_sums(half, s, lambda k: _trace_sums([ps[k * t] for t in range(s + 1)], m))
    return _from_power_sums(_trace_sums(pair, half))


def power_map(p: IntPoly, n: int) -> IntPoly:
    """Canonical polynomial whose roots are the n-th powers of the roots of p,
    with multiplicity: p_k(alpha^n) = p_(kn)(alpha)."""
    if p.is_zero:
        raise ZeroPolynomial("power_map of zero polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.degree == 0:
        return ONE
    G, c = monicize(p)
    ps = _power_sums(G, n * G.degree)
    return _from_power_sums(ps[::n], c**n)


def product_resolvent(f: IntPoly, g: IntPoly) -> IntPoly:
    """Canonical polynomial whose roots are all products alpha*beta of a root
    of f and a root of g: p_k(alpha*beta) = p_k(alpha) * p_k(beta)."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("product_resolvent of zero polynomial")
    if f.degree == 0 or g.degree == 0:
        return ONE
    (F, a), (G, b) = monicize(f), monicize(g)
    d = f.degree * g.degree
    pf, pg = _power_sums(F, d), _power_sums(G, d)
    return _from_power_sums([x * y for x, y in zip(pf, pg)], a * b)


def ratio_resolvent(f: IntPoly, g: IntPoly) -> IntPoly:
    """Canonical polynomial whose roots are all ratios alpha/beta, where alpha
    runs over roots of f and beta over roots of g."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("ratio_resolvent of zero polynomial")
    if g[0] == 0:
        raise ZeroPolynomial("ratio_resolvent requires g(0) != 0")
    return product_resolvent(f, g.reversal())


def transform_resolvent(f: IntPoly, g_num: IntPoly, g_den: int = 1) -> IntPoly:
    """Canonical polynomial whose roots are g(alpha) = g_num(alpha)/g_den over
    the roots alpha of monic f: p_k(g(alpha)) = sum_j [g^k mod f]_j p_j(f)."""
    if f.is_zero or g_num.is_zero:
        raise ZeroPolynomial("transform_resolvent of zero polynomial")
    if f.degree == 0:
        return ONE
    if f.lc != 1:
        raise NotMonic("transform_resolvent requires a monic f")
    return _from_power_sums(_transform_power_sums(f, g_num), g_den)


def _scaled(q: IntPoly, c: Fraction) -> IntPoly:
    """The canonical polynomial whose roots are c times those of q, for a
    nonzero rational c = u/v: sum q_i u^(d-i) v^i x^i. It is irreducible
    when q is, so its roots can be pinned without factoring."""
    u, v, d = c.numerator, c.denominator, q.degree
    return canonicalize(IntPoly(tuple(qi * u ** (d - i) * v ** i for i, qi in enumerate(q.coeffs))))


def _transform_power_sums(f: IntPoly, g: IntPoly) -> list:
    """Power sums p_1..p_m of the values g(alpha) over the m roots alpha of
    monic f (index 0 unused): p_k(g(alpha)) = sum_j [g^k mod f]_j p_j(f)."""
    m = f.degree
    pf = _power_sums(f, m - 1)
    pf[0] = m
    # f is monic, so prem is the exact remainder mod f
    r = prem(g, f)
    h, ps = ONE, [0]
    for _ in range(m):
        h = prem(h * r, f)
        ps.append(sum(h[j] * pf[j] for j in range(m)))
    return ps


# -- lattice reduction ---------------------------------------------------------


_FEED_BITS = 64


def lll_reduce(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """LLL-reduced basis (delta = 3/4) of the lattice spanned by ``rows``.

    Cohen's all-integer LLL (GTM 138, Alg. 2.6.7): the Gram-Schmidt data is
    kept as the integers d_i (Gram determinants of the first i rows) and
    lambda_ij = d_j * mu_ij, so every step is exact at any entry size.
    Raises RankDeficient when the rows are linearly dependent.

    Rows of the form [e_i | C_i] (m rows, an identity block first, B the
    largest bit length in C) are reduced by gradual feeding when m^2 <= B
    (van Hoeij-Novocin, Algorithmica 63 (2012)): starting from U = I, the
    rows [U_i | U_i * (C >> (B - sub))] are reduced for sub = 64, 128, ...
    and U becomes the reduced identity block each time. The last step uses
    the exact C, so the result is an exact reduced basis of the input
    lattice; each earlier step leaves it a nearly reduced basis to start
    from. When m^2 > B the integral kernel runs once on the input: a dense
    fed basis makes the Gram determinants grow with m, while the knapsack
    shape of the input keeps them near 2B.
    """
    b = [[int(v) for v in row] for row in rows]
    m = len(b)
    C = [row[m:] for row in b]
    B = max((abs(v).bit_length() for c in C for v in c), default=0)
    if B <= _FEED_BITS or m * m > B or any(
        row[:m] != [int(i == k) for i in range(m)] for k, row in enumerate(b)
    ):
        return _lll_integral(b)
    U = [row[:m] for row in b]
    for sub in range(_FEED_BITS, B, _FEED_BITS):
        Cs = [[v >> (B - sub) for v in c] for c in C]
        U = [row[:m] for row in _lll_integral(_with_images(U, Cs))]
    return _lll_integral(_with_images(U, C))


def _with_images(U: list[list[int]], C: list[list[int]]) -> list[list[int]]:
    """The rows [U_i | U_i * C]."""
    return [u + [sum(x * c[j] for x, c in zip(u, C)) for j in range(len(C[0]))] for u in U]


def _lll_integral(b: list[list[int]]) -> list[list[int]]:
    """Cohen's integral LLL on the rows ``b``, reduced in place."""
    m = len(b)
    d = [1] + [0] * m  # d[i + 1] belongs to row i
    lam = [[0] * m for _ in range(m)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        t = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + t * t) // d[k]
        for i in range(k + 1, kmax + 1):
            s = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * s) // d[k]
            lam[i][k - 1] = (B * s + t * lam[i][k]) // d[k + 1]
        d[k] = B

    k, kmax = 0, -1
    while k < m:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise RankDeficient(f"LLL input row {k} is linearly dependent")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b


# -- cyclotomic detection --------------------------------------------------------


def _is_cyclotomic_irreducible(f: IntPoly) -> bool:
    """Whether f, which must be irreducible and canonical, is a cyclotomic
    polynomial.

    The Bradford-Davenport test ("Effective tests for cyclotomic
    polynomials", ISSAC '88, LNCS 358): one Graeffe step g = power_map(f, 2)
    squares the roots, and Phi_n goes to Phi_n itself for odd n, to
    Phi_(n/2) = Phi_n(-x) for n = 2 mod 4, and to Phi_(n/2)^2 for 4 | n.
    Conversely, when g is f or the canonical f(-x), squaring permutes the
    roots of f or of g, so they are roots of unity (Kronecker). When g = h^2,
    h is the minpoly of the square of a root, irreducible again, and f is
    cyclotomic iff h is; the degree halves. Otherwise g is irreducible and
    f is not cyclotomic. The answer may be wrong for a reducible f. A monic
    polynomial whose roots all lie on the unit circle has |h_k| <=
    C(deg h, k), so a larger coefficient answers before any Graeffe step.
    """
    if f.degree < 1 or f.lc != 1 or f[0] == 0:
        return False
    while True:
        d = f.degree
        if any(abs(c) > math.comb(d, k) for k, c in enumerate(f.coeffs)):
            return False
        g = power_map(f, 2)
        if g == f or g == IntPoly(c if (d - k) % 2 == 0 else -c for k, c in enumerate(f.coeffs)):
            return True
        f = _monic_sqrt(g)
        if f is None:
            return False


def _monic_sqrt(g: IntPoly) -> Optional[IntPoly]:
    """The monic h with h^2 = g, or None when g is not such a square. h is
    read from the top coefficients of g; a monic rational square root of
    a monic integer polynomial is integral, so an odd remainder means none."""
    if g.degree % 2 or g.lc != 1:
        return None
    top = g.coeffs[::-1]
    hs = [1]  # highest first
    for k in range(1, g.degree // 2 + 1):
        r = top[k] - sum(hs[i] * hs[k - i] for i in range(1, k))
        if r % 2:
            return None
        hs.append(r // 2)
    h = IntPoly(hs[::-1])
    return h if h * h == g else None


def monicize(p: IntPoly) -> tuple[IntPoly, int]:
    """(G, c) with G monic integer, G(x) = c^(deg-1) * p(x/c), c = lc(p).

    Roots of G are c * (roots of p).
    """
    d = p.degree
    c = p.lc
    if c == 1 or d <= 0:
        return p, 1
    out = [p[i] * c ** (d - 1 - i) for i in range(d)] + [1]
    return IntPoly(out), c


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Res(p, q) = lc(p)^m * prod q(alpha) over the n roots alpha of p, for
    m = deg q, as an exact integer.

    Built on the power-sum route of the resolvents (Bostan-Flajolet-Salvy-
    Schost, J. Symbolic Comput. 41 (2006)): with (G, c) = monicize(p), whose
    roots are c*alpha, and Q(x) = sum_j q_j c^(m-j) x^j, Q(c*alpha) =
    c^m q(alpha) are algebraic integers, and prod Q(c*alpha) is e_n of them,
    read off their power sums. Res(p, q) is that product divided exactly by
    c^(m(n-1)). The Sylvester determinant survives only as a test oracle.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("resultant of zero polynomial")
    n, m = p.degree, q.degree
    if n == 0:
        return p.lc**m
    if m == 0:
        return q.lc**n
    G, c = monicize(p)
    Q = IntPoly([qj * c ** (m - j) for j, qj in enumerate(q.coeffs)])
    e_n = _elem_from_power_sums(_transform_power_sums(G, Q), n)[n]
    r, rem = divmod(e_n, c ** (m * (n - 1)))
    if rem:
        raise ExactCheckFailed("resultant is not an integer")
    return r


def discriminant(p: IntPoly) -> Fraction:
    """disc(p) = (-1)^(d(d-1)/2) * Res(p, p') / lc(p)."""
    d = p.degree
    if d < 1:
        raise ZeroPolynomial("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    r = resultant(p, p.derivative())
    s = -1 if (d * (d - 1) // 2) % 2 else 1
    return Fraction(s * r, p.lc)
