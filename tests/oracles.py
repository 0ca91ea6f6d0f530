"""Independent oracles used to freeze expected test values.

These deliberately avoid the package's own algorithms: the resultant oracle is
a fraction-free Sylvester determinant, and root counts/positions come from
mpmath at high working precision. They exist to cross-check, never to decide.
"""

from fractions import Fraction

import mpmath

from mahlerdyn.intpoly import IntPoly


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
