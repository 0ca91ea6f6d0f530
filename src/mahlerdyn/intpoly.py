"""Exact arithmetic on integer polynomials.

Dense representation, constant term first. All decision procedures here are
exact: integer subresultant PRS for resultants (norms, discriminants) and
gcds, and integer-only reciprocal/trace transforms for unit-circle work. Real
roots are counted from the certified isolation in roots, not here. Every
resolvent (power map, product, ratio, transform, and the subset and pair
products behind the Mahler measure) is built one way: the power sums of the
input roots are mapped to those of the resolvent roots, and Newton's
identities, with exact divisions, give the coefficients. No floating point
anywhere in this module.
It also holds the all-integer LLL that minpoly guessing (mahler) and
automorphism discovery (nfield) share.

The polynomial text grammar used across the package (CLI included) is
comma-separated decimal integers, constant term first: x^2 - 2 is "-2,0,1".
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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

    def primitive(self) -> "IntPoly":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPoly([a // c for a in self.coeffs])

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


def div_exact_int(p: IntPoly, d: int) -> IntPoly:
    """Divide every coefficient by d; d must divide exactly."""
    out = []
    for c in p.coeffs:
        q, r = divmod(c, d)
        if r:
            raise ArithmeticError("inexact integer division of polynomial")
        out.append(q)
    return IntPoly(out)


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
    if p.is_zero:
        return p
    return p.primitive()


def _pp_signed(p: IntPoly) -> IntPoly:
    c = abs(p.content())
    return div_exact_int(p, c) if c > 1 else p


def _resultant_prs(p: IntPoly, q: IntPoly) -> int:
    sign = 1
    a, b = p, q
    if a.degree < b.degree:
        if (a.degree * b.degree) % 2:
            sign = -sign
        a, b = b, a
    if b.degree == 0:
        return sign * b.lc ** a.degree
    ca, cb = abs(a.content()), abs(b.content())
    t = ca ** b.degree * cb ** a.degree
    a, b = _pp_signed(a), _pp_signed(b)
    g = h = 1
    while True:
        da, db = a.degree, b.degree
        delta = da - db
        if (da % 2) and (db % 2):
            sign = -sign
        r = prem(a, b)
        a = b
        if r.is_zero:
            return 0
        b = div_exact_int(r, g * h ** delta)
        g = a.lc
        if delta > 0:
            num = g ** delta
            qh, rh = divmod(num, h ** (delta - 1))
            if rh:
                raise ExactCheckFailed("subresultant h is not an integer")
            h = qh
        if b.degree <= 0:
            break
    # b is a nonzero constant here
    da = a.degree
    num = b.lc ** da
    qh, rh = divmod(num, h ** (da - 1)) if da >= 1 else (num, 0)
    if rh:
        raise ExactCheckFailed("resultant is not an integer")
    return sign * t * qh


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Res(p, q) by the subresultant PRS, as an exact integer.

    The Sylvester determinant survives only as a test oracle for degree <= 8.
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomial("resultant of zero polynomial")
    if p.degree == 0:
        return p.lc ** q.degree
    if q.degree == 0:
        return q.lc ** p.degree
    return _resultant_prs(p, q)


def gcd_z(p: IntPoly, q: IntPoly) -> IntPoly:
    """Polynomial gcd over Z, canonical (content 1 unless both constant)."""
    if p.is_zero:
        return canonicalize(q)
    if q.is_zero:
        return canonicalize(p)
    cont = math.gcd(abs(p.content()), abs(q.content()))
    a, b = _pp_signed(p), _pp_signed(q)
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero and b.degree > 0:
        r = _pp_signed(prem(a, b))
        a, b = b, r
    if not b.is_zero:
        g = ONE
    else:
        g = _pp_signed(a)
    if g.lc < 0:
        g = -g
    if cont > 1 and g.degree == 0:
        return IntPoly((cont,))
    return g


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
    return not p.is_zero and (p.degree <= 0 or gcd_z(p, p.derivative()).degree == 0)


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
# (_esym_resolvent): the k-th power sum of the resolvent is e_s of numbers
# u_j(k), read off their first s power sums by Newton's identities.
# - Subset products of the n roots alpha_j of monic g: u_j = alpha_j^k, so
#   sum_j u_j^i = p_(ik); degree C(n, s).
# - Pair products of a monic plus-reciprocal g of degree 2m, whose roots
#   pair up as {r_j, 1/r_j}: the roots are prod_{j in J} r_j^(+-1) over the
#   s-subsets J of pairs, degree C(m, s) 2^s. Here u_j = r_j^k + r_j^-k and
#     sum_j u_j^i = sum_{l < i/2} C(i, l) p_(k(i-2l)) + [i even] C(i, i/2) m,
#   from the power sums of g alone, with no division.
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


def _esym_resolvent(cnt: int, s: int, sums) -> IntPoly:
    """Degree-cnt polynomial whose k-th power sum is e_s of the numbers whose
    first s power sums are sums(k)[1..s]."""
    return _from_power_sums([0] + [_elem_from_power_sums(sums(k), s)[s] for k in range(1, cnt + 1)])


def _subset_product_poly(g: IntPoly, s: int) -> IntPoly:
    """Monic polynomial whose roots are the products over every size-s
    subset of the roots of monic g, with multiplicity."""
    cnt = math.comb(g.degree, s)
    ps = _power_sums(g, s * cnt)
    return _esym_resolvent(cnt, s, lambda k: [ps[i * k] for i in range(s + 1)])


def _pair_product_poly(g: IntPoly, s: int) -> IntPoly:
    """Monic polynomial whose roots are the products prod_{j in J} r_j^(+-1)
    over every s-subset J of the root pairs {r_j, 1/r_j} of monic
    plus-reciprocal g, with multiplicity: degree C(m, s) 2^s for deg g = 2m."""
    m = g.degree // 2
    cnt = math.comb(m, s) << s
    ps = _power_sums(g, s * cnt)
    terms = [[(math.comb(i, l), i - 2 * l) for l in range((i + 1) // 2)] for i in range(s + 1)]
    mid = [math.comb(i, i // 2) * m if i % 2 == 0 else 0 for i in range(s + 1)]

    def sums(k):
        return [sum(b * ps[k * t] for b, t in terms[i]) + mid[i] for i in range(s + 1)]

    return _esym_resolvent(cnt, s, sums)


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
    m = f.degree
    pf = _power_sums(f, m - 1)
    pf[0] = m
    # f is monic, so prem is the exact remainder mod f
    r = prem(g_num, f)
    h, ps = ONE, [0]
    for _ in range(m):
        h = prem(h * r, f)
        ps.append(sum(h[j] * pf[j] for j in range(m)))
    return _from_power_sums(ps, g_den)


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
    """Whether an irreducible canonical f is a cyclotomic polynomial.

    Iterate the squarefree Graeffe map; the root set of a monic irreducible is
    eventually fixed under squaring iff all roots are roots of unity
    (Kronecker). phi(n) = d forces n <= 2d^2, so log2(2d^2)+2 iterations
    suffice to reach the odd-order fixed point when f is cyclotomic. Every
    iterate stays monic, and a monic polynomial whose roots all lie on the
    unit circle has |h_k| <= C(deg h, k), so a larger coefficient ends the
    loop early.
    """
    d = f.degree
    if d < 1 or f.lc != 1:
        return False
    if f[0] == 0:  # divisible by x
        return False
    h = f
    bound = max(1, (2 * d * d + 4).bit_length() + 2)
    for _ in range(bound):
        if any(abs(c) > math.comb(h.degree, k) for k, c in enumerate(h.coeffs)):
            return False
        h2 = squarefree_part(power_map(h, 2))
        if h2 == h:
            return True
        h = h2
    return False


def cyclotomic_part(p: IntPoly) -> IntPoly:
    """Product (with multiplicity) of the cyclotomic factors of p, canonical."""
    if p.is_zero:
        raise ZeroPolynomial("cyclotomic_part of zero polynomial")
    from .factor import factor_z  # deferred: factor builds on this module

    out = ONE
    for q, mult in factor_z(p).factors:
        if _is_cyclotomic_irreducible(q):
            for _ in range(mult):
                out = out * q
    return canonicalize(out)


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
