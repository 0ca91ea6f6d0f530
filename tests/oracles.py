"""Independent oracles used to freeze expected test values.

These deliberately avoid the package's own algorithms: the resultant oracle is
a fraction-free Sylvester determinant, exact real-root counts come from Sturm
chains over Q, numeric root counts/positions come from mpmath at high
working precision, cyclotomic factors are recognised by iterating the
squarefree Graeffe map to its fixed point, torsion-freeness is asked of each
conjugate ratio one at a time (not of the ratio resolvent), the pair product
resolvent is built at full degree from the power sums of the pair products
(not through their half-degree trace resolvent), the logs of a
product of units are summed exactly over Fractions, and the rank of interval
rows comes from Gaussian elimination with Fraction quotients. They exist to
cross-check, never to decide.
"""

import math
from fractions import Fraction

import mpmath

from mahlerdyn.algnum import an_conjugates, an_inv, an_mul
from mahlerdyn.intpoly import (
    IntPoly,
    _elem_from_power_sums,
    _from_power_sums,
    _power_sums,
    power_map,
    squarefree_part,
)


def sylvester_resultant(p: IntPoly, q: IntPoly) -> int:
    """Res(p, q) as a Bareiss (fraction-free) determinant of the Sylvester
    matrix. Intended for degrees <= 8."""
    m, n = p.degree, q.degree
    if m == 0:
        return p.lc ** n
    if n == 0:
        return q.lc ** m
    size = m + n
    rows = []
    pc = [p[m - i] for i in range(m + 1)]  # highest degree first
    qc = [q[n - i] for i in range(n + 1)]
    for i in range(n):
        rows.append([0] * i + pc + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + qc + [0] * (m - 1 - i))
    # Bareiss elimination
    a = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for r in range(k + 1, size):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[size - 1][size - 1]


def sturm_real_roots(p: IntPoly, a=None, b=None) -> int:
    """Exact count of the real roots of a squarefree p in the open interval
    (a, b), from its Sturm chain over Q; None endpoints mean -oo and +oo.

    Raises ValueError on a zero or non-squarefree p, on a >= b, and when p
    vanishes at an endpoint."""
    if p.is_zero:
        raise ValueError("Sturm count of the zero polynomial")
    if a is not None and b is not None and not a < b:
        raise ValueError("need a < b")
    if any(x is not None and eval_frac(p, Fraction(x)) == 0 for x in (a, b)):
        raise ValueError("the polynomial vanishes at an endpoint")
    chain = [[Fraction(c) for c in p.coeffs]]
    chain.append([k * c for k, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            raise ValueError("the polynomial is not squarefree")
        chain.append([-c for c in r])
    chain = [q for q in chain if q]

    def variations(x, sign_at_inf):
        signs = []
        for q in chain:
            if x is None:
                v = q[-1] * sign_at_inf ** (len(q) - 1)
            else:
                v = sum(c * Fraction(x) ** k for k, c in enumerate(q))
            if v:
                signs.append(v > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(a, -1) - variations(b, 1)


def _remainder(a: list, b: list) -> list:
    """Remainder of a by b over Q; coefficient lists constant first, no
    trailing zeros, empty for zero."""
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        while a and a[-1] == 0:
            a.pop()
    return a


def numeric_roots(p: IntPoly, dps: int = 60, extraprec: int = 200):
    """All complex roots via mpmath, highest precision seed for cross-checks.
    Roots spread over many orders of magnitude need a larger extraprec."""
    with mpmath.workdps(dps):
        cs = [mpmath.mpf(c) for c in reversed(p.coeffs)]
        return mpmath.polyroots(cs, maxsteps=200, extraprec=extraprec)


def numeric_real_root_count(p: IntPoly, a=None, b=None, dps: int = 60, tol: float = 1e-30) -> int:
    count = 0
    for r in numeric_roots(p, dps):
        if abs(mpmath.im(r)) > tol:
            continue
        x = mpmath.re(r)
        if a is not None and not x > a:
            continue
        if b is not None and not x < b:
            continue
        count += 1
    return count


def numeric_mahler_measure(p: IntPoly, dps: int = 60) -> float:
    with mpmath.workdps(dps):
        acc = mpmath.mpf(abs(p.lc))
        for r in numeric_roots(p, dps):
            m = abs(r)
            if m > 1:
                acc *= m
        return float(acc)


def eval_frac(p: IntPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def graeffe_is_cyclotomic(f: IntPoly) -> bool:
    """Whether an irreducible canonical f is cyclotomic, by iterating the
    squarefree Graeffe map h -> squarefree_part(power_map(h, 2)).

    The root set of a monic irreducible is eventually fixed under squaring
    iff all roots are roots of unity (Kronecker). phi(n) = d forces
    n <= 2d^2, so log2(2d^2)+2 iterations reach the odd-order fixed point
    when f is cyclotomic. A monic polynomial whose roots all lie on the unit
    circle has |h_k| <= C(deg h, k), so a larger coefficient ends the loop."""
    d = f.degree
    if d < 1 or f.lc != 1 or f[0] == 0:
        return False
    h = f
    for _ in range(max(1, (2 * d * d + 4).bit_length() + 2)):
        if any(abs(c) > math.comb(h.degree, k) for k, c in enumerate(h.coeffs)):
            return False
        h2 = squarefree_part(power_map(h, 2))
        if h2 == h:
            return True
        h = h2
    return False


def pair_product_poly(g: IntPoly, s: int) -> IntPoly:
    """Monic polynomial whose roots are the products prod_{j in J} r_j^(+-1)
    over every s-subset J of the root pairs {r_j, 1/r_j} of monic
    plus-reciprocal g, with multiplicity: degree C(m, s) 2^s for deg g = 2m.
    Its k-th power sum is e_s(v_1..v_m), v_j = r_j^k + r_j^-k, where
      sum_j v_j^i = sum_{l < i/2} C(i, l) p_(k(i-2l)) + [i even] C(i, i/2) m
    in the power sums p_t of g."""
    m = g.degree // 2
    cnt = math.comb(m, s) << s
    ps = _power_sums(g, s * cnt)
    terms = [[(math.comb(i, l), i - 2 * l) for l in range((i + 1) // 2)] for i in range(s + 1)]
    mid = [math.comb(i, i // 2) * m if i % 2 == 0 else 0 for i in range(s + 1)]

    def sums(k):
        return [sum(b * ps[k * t] for b, t in terms[i]) + mid[i] for i in range(s + 1)]

    return _from_power_sums([0] + [_elem_from_power_sums(sums(k), s)[s] for k in range(1, cnt + 1)])


def conjugate_ratio_torsion_free(a) -> bool:
    """Whether no ratio conj/a over the other conjugates of the algebraic
    number a is a root of unity: each ratio is built by an_mul with an_inv(a),
    a degree-n^2 product resolvent and a pinned root per conjugate, and its
    minpoly is given the Graeffe test."""
    inv_a = an_inv(a)
    return not any(
        graeffe_is_cyclotomic(an_mul(conj, inv_a).minpoly)
        for conj in an_conjugates(a)
        if conj.box != a.box
    )


def fraction_log_sums(rows, exps):
    """j -> the exact Fraction enclosure sum_i exps[i] * rows[i][j] of
    log|sigma_j(prod g_i^exps[i])|, where rows[i][j] = (lo, hi) encloses
    log|sigma_j(g_i)|; a negative exponent swaps the ends it scales."""

    def log(j):
        lo = hi = Fraction(0)
        for row, e in zip(rows, exps):
            a, b = row[j] if e >= 0 else row[j][::-1]
            lo += e * a
            hi += e * b
        return lo, hi

    return log


def fraction_interval_rank(rows) -> bool:
    """Whether the interval rows are certified linearly independent, by
    Gaussian elimination with interval quotients over Fractions: against each
    earlier pivot row q, row <- row - (a / p) * q for the pivot interval p and
    the row's entry a in its column; every pivot interval must exclude 0."""

    def mul(a, b):
        vals = [x * y for x in a for y in b]
        return min(vals), max(vals)

    def sub(a, b):
        return a[0] - b[1], a[1] - b[0]

    pivots = []
    for row in rows:
        for q, pc in pivots:
            f = mul(row[pc], (1 / Fraction(q[pc][1]), 1 / Fraction(q[pc][0])))
            row = [sub(v, mul(f, w)) for v, w in zip(row, q)]
        taken = {pc for _, pc in pivots}
        pivot = next((c for c, v in enumerate(row) if c not in taken and (v[0] > 0 or v[1] < 0)), None)
        if pivot is None:
            return False
        pivots.append((row, pivot))
    return True
