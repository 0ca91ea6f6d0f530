"""Exact arithmetic on integer polynomials.

Dense representation, constant term first. All decision procedures here are
exact: integer subresultant PRS for resultants and gcds, Sturm sequences over
exact rationals for real-root counts, and integer-only reciprocal/trace
transforms for unit-circle work. No floating point anywhere in this module.
It also holds the all-integer LLL that minpoly guessing (mahler) and
automorphism discovery (nfield) share.

The polynomial text grammar used across the package (CLI included) is
comma-separated decimal integers, constant term first: x^2 - 2 is "-2,0,1".
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    EndpointRoot,
    InvalidPoly,
    NotReciprocal,
    NotSquarefree,
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

    def __str__(self) -> str:
        return pretty(self)


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


def pretty(p: IntPoly) -> str:
    """Human-readable form, highest degree first."""
    if p.is_zero:
        return "0"
    terms = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "x" if i == 1 else f"x^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        terms.append((sign, body))
    s0, b0 = terms[0]
    out = ("-" if s0 == "-" else "") + b0
    for s, b in terms[1:]:
        out += f" {s} {b}"
    return out


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
        assert r == 0
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
            assert rh == 0
            h = qh
        if b.degree <= 0:
            break
    # b is a nonzero constant here
    da = a.degree
    num = b.lc ** da
    qh, rh = divmod(num, h ** (da - 1)) if da >= 1 else (num, 0)
    assert rh == 0
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
    assert q is not None
    return canonicalize(q)


def is_squarefree(p: IntPoly) -> bool:
    return not p.is_zero and (p.degree <= 0 or gcd_z(p, p.derivative()).degree == 0)


# -- Sturm sequences ----------------------------------------------------------


@lru_cache(maxsize=512)
def _sturm_chain(coeffs: tuple[int, ...]) -> tuple[IntPoly, ...]:
    """Sturm chain of a squarefree polynomial, each member primitive over Z.

    Scaling by positive rationals preserves sign variation counts, so each
    remainder is renormalized to a primitive integer polynomial.
    """
    p = IntPoly(coeffs)
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        r = prem(a, b)
        # prem multiplies a by lc(b)^(delta+1); if that factor is negative and
        # was applied an odd number of times the sign flips, which breaks the
        # Sturm sign convention.  Renormalize: the true remainder is
        # r / lc(b)^(delta+1), a positive-multiple-of it suffices.
        scale = b.lc ** (a.degree - b.degree + 1)
        if scale < 0:
            r = -r
        chain.append(-_pp_signed(r) if not r.is_zero else r)
    if chain[-1].is_zero:
        chain.pop()
    return tuple(chain)


def _sign_at(p: IntPoly, x: Optional[Fraction], at_neg_inf: bool = False) -> int:
    if x is None:
        s = 1 if p.lc > 0 else -1 if p.lc < 0 else 0
        if at_neg_inf and p.degree % 2 == 1:
            s = -s
        return s
    v = p(x)
    return (v > 0) - (v < 0)


def _variations(chain: Sequence[IntPoly], x: Optional[Fraction], at_neg_inf: bool = False) -> int:
    signs = [s for s in (_sign_at(q, x, at_neg_inf) for q in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_real_roots(
    p: IntPoly,
    a: Optional[Fraction] = None,
    b: Optional[Fraction] = None,
) -> int:
    """Exact count of real roots of squarefree p in the open interval (a, b).

    ``None`` endpoints mean -oo / +oo respectively.
    """
    if p.is_zero:
        raise ZeroPolynomial("sturm_real_roots of zero polynomial")
    if p.degree <= 0:
        return 0
    if not is_squarefree(p):
        raise NotSquarefree("sturm_real_roots requires a squarefree polynomial")
    if a is not None and b is not None and not a < b:
        raise ValueError("need a < b")
    if a is not None and p(Fraction(a)) == 0:
        raise EndpointRoot(f"polynomial vanishes at left endpoint {a}")
    if b is not None and p(Fraction(b)) == 0:
        raise EndpointRoot(f"polynomial vanishes at right endpoint {b}")
    chain = _sturm_chain(p.coeffs)
    va = _variations(chain, None if a is None else Fraction(a), at_neg_inf=a is None)
    vb = _variations(chain, None if b is None else Fraction(b))
    return va - vb


def count_real_roots(p: IntPoly) -> int:
    return sturm_real_roots(p, None, None)


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


# -- power maps and resolvents --------------------------------------------------


def _interp_integer_poly(deg_bound: int, value_at: Callable[[int], int], skip_zero: bool = False) -> IntPoly:
    """Reconstruct an integer polynomial of degree <= deg_bound from exact
    integer evaluations at small integer points (Lagrange over Q)."""
    pts: list[int] = []
    x0 = 1 if skip_zero else 0
    while len(pts) < deg_bound + 1:
        if not (skip_zero and x0 == 0):
            pts.append(x0)
        x0 = -x0 if x0 > 0 else -x0 + 1
    vals = [value_at(x) for x in pts]
    # Newton's divided differences, exact over Q
    coefs = [Fraction(v) for v in vals]
    for j in range(1, len(pts)):
        for i in range(len(pts) - 1, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (pts[i] - pts[i - j])
    # expand Newton form
    poly = [Fraction(0)] * len(pts)
    acc = [Fraction(1)]
    for i, c in enumerate(coefs):
        for k, a in enumerate(acc):
            poly[k] += c * a
        # acc *= (x - pts[i])
        nxt = [Fraction(0)] * (len(acc) + 1)
        for k, a in enumerate(acc):
            nxt[k] -= a * pts[i]
            nxt[k + 1] += a
        acc = nxt
    out = []
    for f in poly:
        if f.denominator != 1:
            raise ArithmeticError("interpolated polynomial not integral")
        out.append(f.numerator)
    return IntPoly(out)


def power_map(p: IntPoly, n: int) -> IntPoly:
    """Canonical polynomial whose roots are the n-th powers of the roots of p.

    Res_y(p(y), x - y^n), reconstructed by interpolation from integer
    resultants, then canonicalized. Same degree as p; for non-monic p the
    leading coefficient is normalized by content removal.
    """
    if p.is_zero:
        raise ZeroPolynomial("power_map of zero polynomial")
    if n < 1:
        raise ValueError("n must be >= 1")
    if p.degree == 0:
        return ONE
    if n == 1:
        return canonicalize(p)
    d = p.degree

    def value_at(x0: int) -> int:
        second = IntPoly((x0,) + (0,) * (n - 1) + (-1,))  # x0 - y^n
        return resultant(p, second)

    return canonicalize(_interp_integer_poly(d, value_at))


def product_resolvent(f: IntPoly, g: IntPoly) -> IntPoly:
    """Polynomial (up to content) vanishing on all products alpha*beta of roots.

    Res_y(f(y), y^deg(g) * g(x/y)); requires g(0) != 0 so the y-degree of the
    second argument never drops at an evaluation point.
    """
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("product_resolvent of zero polynomial")
    if g[0] == 0:
        raise ZeroPolynomial("product_resolvent requires g(0) != 0")
    if f.degree == 0 or g.degree == 0:
        return ONE
    m, n = f.degree, g.degree

    def value_at(x0: int) -> int:
        second = IntPoly(tuple(g[n - j] * x0 ** (n - j) for j in range(n + 1)))
        return resultant(f, second)

    return canonicalize(_interp_integer_poly(m * n, value_at))


def sum_resolvent(f: IntPoly, g: IntPoly) -> IntPoly:
    """Polynomial (up to content) vanishing on all sums alpha+beta of roots:
    Res_y(f(y), g(x - y))."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("sum_resolvent of zero polynomial")
    if f.degree == 0 or g.degree == 0:
        return ONE
    m, n = f.degree, g.degree

    def value_at(x0: int) -> int:
        # g(x0 - y) as a polynomial in y
        cs = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            gi = g[i]
            if not gi:
                continue
            # (x0 - y)^i
            for j in range(i + 1):
                cs[j] += gi * math.comb(i, j) * x0 ** (i - j) * (-1) ** j
        second = IntPoly([int(c) for c in cs])
        return resultant(f, second)

    return canonicalize(_interp_integer_poly(m * n, value_at))


def ratio_resolvent(f: IntPoly, g: IntPoly) -> IntPoly:
    """Polynomial (up to content) vanishing on all ratios alpha/beta, where
    alpha runs over roots of f and beta over roots of g: Res_y(g(y), f(x*y))."""
    if f.is_zero or g.is_zero:
        raise ZeroPolynomial("ratio_resolvent of zero polynomial")
    if g[0] == 0:
        raise ZeroPolynomial("ratio_resolvent requires g(0) != 0")
    if f.degree == 0 or g.degree == 0:
        return ONE
    m, n = f.degree, g.degree

    def value_at(x0: int) -> int:
        second = IntPoly(tuple(f[i] * x0 ** i for i in range(m + 1)))
        return resultant(g, second)

    return canonicalize(_interp_integer_poly(m * n, value_at, skip_zero=True))


def transform_resolvent(f: IntPoly, g_num: IntPoly, g_den: int = 1) -> IntPoly:
    """Polynomial (up to content) vanishing on g(alpha) = g_num(alpha)/g_den
    over the roots alpha of f: Res_y(f(y), g_den*x - g_num(y))."""
    if f.is_zero or g_num.is_zero:
        raise ZeroPolynomial("transform_resolvent of zero polynomial")
    if f.degree == 0:
        return ONE
    m = f.degree
    if g_num.degree == 0:
        # constant map: all roots map to g_num[0]/g_den
        return canonicalize(IntPoly((-g_num[0], g_den)))

    def value_at(x0: int) -> int:
        cs = list(-c for c in g_num.coeffs)
        cs[0] += g_den * x0
        return resultant(f, IntPoly(cs))

    return canonicalize(_interp_integer_poly(m, value_at))


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
