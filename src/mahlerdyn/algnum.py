"""Exact algebraic numbers: a canonical minimal polynomial plus one certified
root box, with multiplicative arithmetic and Perron/Pisot/Salem
classification.

Every constructor ends on a canonical box of a canonical minpoly, so two
equal values always carry identical (minpoly, box) pairs. A computed value
is named by _select_root: roots._pin pins its shrinking enclosures among the
roots of irreducible polynomials, which are the factors of the resolvent for
products and non-squarefree powers (scaled by _scaled for the Mahler
measure), and the image minpoly alone, unfactored, for squarefree powers,
rational scalings, negation and inversion. So only irreducible polynomials
are isolated. root_index names a number by the index of its canonical box,
and equality compares minpolys and indices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional

from .errors import (
    BoxAmbiguous,
    ExactCheckFailed,
    InternalPrecisionExceeded,
    NotIrreducible,
    Record,
    ZeroInput,
    ZeroPolynomial,
)
from .factor import factor_z, is_irreducible
from .intpoly import (
    ONE,
    IntPoly,
    _is_cyclotomic_irreducible,
    _proved_squarefree,
    _scaled,
    canonicalize,
    from_rational,
    from_text,
    power_map,
    prem,
    product_resolvent,
    ratio_resolvent,
    to_text,
)
from .roots import (
    IsolatingBox,
    _abs_bounds,
    _box_add,
    _box_horner,
    _box_inv,
    _box_mul,
    _contained,
    _disjoint,
    _factor_statuses,
    _pin,
    _refinements,
    circle_partition,
    isolate_roots,
    refine,
)

_X = IntPoly((0, 1))


class AlgebraicNumber(Record):
    minpoly: IntPoly  # canonical irreducible
    box: IsolatingBox  # certified for minpoly

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def __repr__(self) -> str:
        cx, cy = _fine_box(self).center
        return f"AlgebraicNumber({to_text(self.minpoly)!r} ~ {float(cx):.6g}{float(cy):+.6g}j)"


class NumberClass(Record):
    tag: str  # Rational | RationalInteger | RootOfUnity | Perron | Pisot | Salem | Other
    extra: Optional[dict] = None


# ---------------------------------------------------------------------------
# construction


def _canonical_at(q: IntPoly, idx: int) -> AlgebraicNumber:
    return AlgebraicNumber(q, isolate_roots(q)[idx])


def an_from_rational(v) -> AlgebraicNumber:
    v = Fraction(v)
    return _canonical_at(from_rational(v), 0)


def an_from_poly_root(p: IntPoly, box: IsolatingBox) -> AlgebraicNumber:
    """Canonical representative of the root of p in the fixed disk box.

    The public entry point for a root given by a disk, not by a shrinking
    enclosure. Only the canonical boxes of the roots of p's irreducible
    factors are refined. BoxAmbiguous is raised when box holds no root, when
    two disjoint factor boxes lie inside it (it holds two), or at the
    precision cap.
    """
    if p.is_zero:
        raise ZeroPolynomial("an_from_poly_root of zero polynomial")
    polys, boxes = _candidates(_irreducible_factors(p))
    hits = range(len(boxes))
    try:
        while True:
            hits = [i for i in hits if not _disjoint(box, boxes[i])]
            if len(hits) == 1:
                return _candidate_root(polys, hits[0])
            if not hits:
                raise BoxAmbiguous("box isolates no root of the polynomial")
            inside = [boxes[i] for i in hits if _contained(boxes[i], box)]
            if any(_disjoint(a, b) for i, a in enumerate(inside) for b in inside[:i]):
                raise BoxAmbiguous("box holds more than one root of the polynomial")
            for i in hits:
                boxes[i] = refine(boxes[i], polys[i], boxes[i].radius / 16)
    except InternalPrecisionExceeded as e:
        raise BoxAmbiguous(f"certification failed at precision cap: {e}") from e


def _fine_box(a: AlgebraicNumber) -> IsolatingBox:
    """a's box refined to a radius below 2^-40 |centre|: the canonical box
    unless |a| is small, where that box may be centred at 0 (0's own box)."""
    for box in _refinements(a.box, a.minpoly):
        if box.radius ** 2 * (1 << 80) < box.center[0] ** 2 + box.center[1] ** 2 or a.minpoly == _X:
            return box


def root_index(a: AlgebraicNumber) -> int:
    """Index of a's root in the canonical ordering of its minpoly's roots."""
    boxes = isolate_roots(a.minpoly)
    if a.box in boxes:
        return boxes.index(a.box)
    return _pin(_refinements(a.box, a.minpoly), [a.minpoly] * a.degree, boxes)


def an_conjugates(a: AlgebraicNumber) -> list[AlgebraicNumber]:
    return [AlgebraicNumber(a.minpoly, b) for b in isolate_roots(a.minpoly)]


def an_serialize(a: AlgebraicNumber) -> dict:
    return {"minpoly": to_text(a.minpoly), "root_index": root_index(a)}


def an_deserialize(obj: dict) -> AlgebraicNumber:
    p = from_text(obj["minpoly"])
    if not is_irreducible(p):
        raise NotIrreducible("serialized minpoly must be canonical irreducible")
    boxes = isolate_roots(p)
    idx = int(obj["root_index"])
    if not 0 <= idx < len(boxes):
        raise ValueError("root_index out of range")
    return AlgebraicNumber(p, boxes[idx])


# ---------------------------------------------------------------------------
# rational views


def an_rational_value(a: AlgebraicNumber) -> Fraction:
    if a.degree != 1:
        raise ValueError("not a rational value")
    return Fraction(-a.minpoly[0], a.minpoly[1])


# ---------------------------------------------------------------------------
# root selection


def _irreducible_factors(p: IntPoly) -> list[IntPoly]:
    """The distinct canonical irreducible factors of p, which share no root."""
    return [q for q, _ in factor_z(p).factors]


def _candidates(factors: Iterable[IntPoly]) -> tuple[list[IntPoly], list[IsolatingBox]]:
    """The canonical boxes of every root of the factors, each with its factor."""
    polys: list[IntPoly] = []
    boxes: list[IsolatingBox] = []
    for q in factors:
        qboxes = isolate_roots(q)
        polys += [q] * len(qboxes)
        boxes += qboxes
    return polys, boxes


def _candidate_root(polys: list[IntPoly], i: int) -> AlgebraicNumber:
    """The root of candidate i: a factor's boxes are consecutive, in order."""
    q = polys[i]
    return _canonical_at(q, i - polys.index(q))


def _select_root(factors: Iterable[IntPoly], probes: Iterable[IsolatingBox]) -> AlgebraicNumber:
    """The root that a shrinking probe stream holds, among the roots of the
    distinct irreducible factors, one of which it is a root of (see _pin)."""
    polys, boxes = _candidates(factors)
    return _candidate_root(polys, _pin(probes, polys, boxes))


# ---------------------------------------------------------------------------
# arithmetic


def an_mul(a: AlgebraicNumber, b: AlgebraicNumber) -> AlgebraicNumber:
    """a * b. Two irrational operands go through the product resolvent and
    factor selection; a rational operand c only scales: c*a has the
    irreducible minpoly _scaled(p, c), so nothing is factored."""
    if a.degree == 1:
        a, b = b, a
    if b.degree != 1:
        factors = _irreducible_factors(product_resolvent(a.minpoly, b.minpoly))
        pairs = zip(_refinements(a.box, a.minpoly), _refinements(b.box, b.minpoly))
        return _select_root(factors, (_box_mul(ab, bb) for ab, bb in pairs))
    c = an_rational_value(b)
    if c == 0:
        return an_from_rational(0)
    if a.degree == 1:
        return an_from_rational(an_rational_value(a) * c)
    cbox = IsolatingBox((c, Fraction(0)), Fraction(0))
    return _select_root([_scaled(a.minpoly, c)], (_box_mul(box, cbox) for box in _refinements(a.box, a.minpoly)))


def an_inv(a: AlgebraicNumber) -> AlgebraicNumber:
    """1/a. The reversed minpoly of an irrational a is irreducible, so the
    image root is pinned on it directly, without factoring."""
    if a.minpoly == _X:
        raise ZeroInput("inverse of zero")
    if a.degree == 1:
        return an_from_rational(1 / an_rational_value(a))
    invs = (_box_inv(box) for box in _refinements(a.box, a.minpoly) if _abs_bounds(box)[0] > 0)
    return _select_root([canonicalize(a.minpoly.reversal())], invs)


def an_neg(a: AlgebraicNumber) -> AlgebraicNumber:
    """-a: the rational scaling of an_mul by -1, which never factors."""
    return an_mul(a, an_from_rational(-1))


def an_pow(a: AlgebraicNumber, n: int) -> AlgebraicNumber:
    if n < 1:
        raise ValueError("exponent must be a positive integer")
    if n == 1:
        return a
    if a.degree == 1:
        return an_from_rational(an_rational_value(a) ** n)
    zn = (0,) * n + (1,)
    probes = (_box_horner(zn, box) for box in _refinements(a.box, a.minpoly))
    # Galois permutes the n-th powers of the conjugates transitively, so
    # q = h^k for the minpoly h of a^n: a squarefree q is h itself
    q = power_map(a.minpoly, n)
    return _select_root([q] if _proved_squarefree(q) else _irreducible_factors(q), probes)


def an_equal(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Whether a and b are the same number.

    Equal numbers have one minpoly, and a root of it is named by its index
    among the canonical boxes: root_index pins a refined box to that index
    exactly, so no separation bound is needed."""
    return a.minpoly == b.minpoly and (a.box == b.box or root_index(a) == root_index(b))


def _real_sign(encs: Iterable[IsolatingBox]) -> int:
    """The sign of a real nonzero value, read from the first of its
    shrinking enclosures whose real part excludes 0."""
    for enc in encs:
        if abs(enc.center[0]) > enc.radius:
            return 1 if enc.center[0] > 0 else -1
    raise InternalPrecisionExceeded("enclosures ended before the sign was decided")


def an_sign(a: AlgebraicNumber) -> int:
    """Sign of a real algebraic number."""
    if a.box.center[1] != 0:
        raise ValueError("sign of a non-real value")
    if a.minpoly == _X:
        return 0
    return _real_sign(_refinements(a.box, a.minpoly))


def an_compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    """Exact three-way comparison of two real algebraic numbers."""
    if a.box.center[1] != 0 or b.box.center[1] != 0:
        raise ValueError("comparison of non-real values")
    if an_equal(a, b):
        return 0
    pairs = zip(_refinements(a.box, a.minpoly), _refinements(b.box, b.minpoly))
    return _real_sign(_box_add(x, y, -1) for x, y in pairs)


# ---------------------------------------------------------------------------
# classification


def _ratio_on_unit_circle(p: IntPoly, num: IsolatingBox, den: IsolatingBox) -> str:
    """Exact status of (root in num)/(root in den) against the unit circle,
    both roots of the irreducible p: 'in', 'on', or 'out', read off the
    ratio's own minpoly, a factor of the ratio resolvent."""
    pairs = zip(_refinements(num, p), _refinements(den, p))
    ratios = (_box_mul(nb, _box_inv(db)) for nb, db in pairs if _abs_bounds(db)[0] > 0)
    r = _select_root(_irreducible_factors(ratio_resolvent(p, p)), ratios)
    return _factor_statuses(r.minpoly)[root_index(r)]


def _strictly_dominates(p: IntPoly, abox: IsolatingBox, bbox: IsolatingBox) -> bool:
    """Whether the positive real root in abox strictly exceeds |root in bbox|."""
    for a, b in islice(zip(_refinements(abox, p), _refinements(bbox, p)), 6):
        lo, hi = _abs_bounds(b)
        if a.center[0] - a.radius > hi:
            return True
        if lo > a.center[0] + a.radius:
            return False
    # moduli may be exactly equal; settle it algebraically
    return _ratio_on_unit_circle(p, bbox, abox) == "in"


def _rou_order(p: IntPoly) -> int:
    """Multiplicative order for a cyclotomic minpoly: least k with x^k = 1."""
    rem = _X  # x^k mod p, by pseudo-remainders, which are exact as p is monic
    for k in range(2, 8 * p.degree ** 2 + 8):
        rem = prem(rem.shift_up(1), p)
        if rem == ONE:
            return k
    raise ExactCheckFailed("a cyclotomic minpoly has no root-of-unity order within 8d^2 + 8")


def classify_number(a: AlgebraicNumber) -> NumberClass:
    p = a.minpoly
    if a.degree == 1:
        v = an_rational_value(a)
        tag = "RationalInteger" if v.denominator == 1 else "Rational"
        return NumberClass(tag, {"value": str(v)})
    if _is_cyclotomic_irreducible(p):
        return NumberClass("RootOfUnity", {"order": _rou_order(p)})
    if a.box.center[1] != 0:
        return NumberClass("Other", {"reason": "not real"})
    if an_sign(a) < 0:
        return NumberClass("Other", {"reason": "negative"})
    if p.lc != 1:
        return NumberClass("Other", {"reason": "not an algebraic integer"})
    boxes = isolate_roots(p)
    idx = root_index(a)
    part = circle_partition(p)
    counts = {
        "root_index": idx,
        "outside": len(part.outside),
        "on": len(part.on),
        "inside": len(part.inside),
    }
    if idx not in part.outside:
        return NumberClass("Other", {"reason": "not dominant", **counts})
    for j in part.outside:
        if j == idx:
            continue
        if not _strictly_dominates(p, boxes[idx], boxes[j]):
            return NumberClass("Other", {"reason": "not dominant", **counts})
    if len(part.outside) > 1:
        return NumberClass("Perron", counts)
    if part.on:
        return NumberClass("Salem", counts)
    return NumberClass("Pisot", counts)
