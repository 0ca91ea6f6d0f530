"""Algebraic number arithmetic and classification tests."""

import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from mahlerdyn import algnum, factor, mahler
from mahlerdyn.errors import BoxAmbiguous, NotIrreducible, ZeroInput
from mahlerdyn.factor import is_irreducible
from mahlerdyn.intpoly import IntPoly, _proved_squarefree, from_text, power_map, product_resolvent
from mahlerdyn.roots import IsolatingBox, _abs_bounds, _box_horner, _box_inv, _box_mul, _refinements, isolate_roots
from mahlerdyn.algnum import (
    AlgebraicNumber,
    an_conjugates,
    an_deserialize,
    an_equal,
    an_from_poly_root,
    an_from_rational,
    an_inv,
    an_mul,
    an_neg,
    an_pow,
    an_rational_value,
    an_serialize,
    classify_number,
    root_index,
)

P = from_text

LEHMER = P("1,1,0,-1,-1,-1,-1,-1,0,1,1")


def nth_root(poly_text: str, key=lambda b: b.center[0]) -> AlgebraicNumber:
    p = P(poly_text)
    boxes = isolate_roots(p)
    return an_from_poly_root(p, max(boxes, key=key))


SQRT2 = nth_root("-2,0,1")
SQRT3 = nth_root("-3,0,1")
PHI = nth_root("-1,-1,1")
TAU = nth_root("1,1,0,-1,-1,-1,-1,-1,0,1,1")


def rand_an(rng, max_deg=4, bound=4):
    while True:
        deg = rng.randint(2, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(deg)] + [1]
        p = IntPoly(coeffs)
        if is_irreducible(p):
            boxes = isolate_roots(p)
            return an_from_poly_root(p, boxes[rng.randrange(len(boxes))])


class TestConstruction:
    def test_plain(self):
        assert SQRT2.minpoly == P("-2,0,1")
        assert SQRT2.box.center[0] > 0

    def test_factor_selection(self):
        p = P("-1,1") * P("-2,0,1")
        box = max(isolate_roots(p), key=lambda b: b.center[0])
        a = an_from_poly_root(p, box)
        assert a.minpoly == P("-2,0,1")
        assert a == SQRT2

    def test_nonsquarefree_input(self):
        p = P("-2,0,1") * P("-2,0,1") * P("-1,1")
        box = max(isolate_roots(P("-2,0,1") * P("-1,1")), key=lambda b: b.center[0])
        assert an_from_poly_root(p, box) == SQRT2

    def test_rational(self):
        a = an_from_rational(Fraction(3, 2))
        assert a.minpoly == P("-3,2")
        assert an_rational_value(a) == Fraction(3, 2)

    def test_box_without_root(self):
        box = IsolatingBox((Fraction(10), Fraction(0)), Fraction(1, 4))
        with pytest.raises(BoxAmbiguous):
            an_from_poly_root(P("-2,0,1"), box)

    def test_box_with_several_roots(self):
        # a disk that is not a certified box: it must resolve when it holds
        # one root and refuse, not pick one, when it holds more
        near = IsolatingBox((Fraction(3, 2), Fraction(0)), Fraction(1, 2))
        assert an_from_poly_root(P("-2,0,1"), near) == SQRT2
        disk = IsolatingBox((Fraction(0), Fraction(0)), Fraction(2))
        with pytest.raises(BoxAmbiguous):
            an_from_poly_root(P("-2,0,1"), disk)
        start = time.perf_counter()
        with pytest.raises(BoxAmbiguous):
            an_from_poly_root(P("1,0,1,0,1"), disk)  # four roots of modulus 1
        assert time.perf_counter() - start < 1

    def test_serialize_round_trip(self):
        obj = an_serialize(TAU)
        assert obj == {"minpoly": "1,1,0,-1,-1,-1,-1,-1,0,1,1", "root_index": 9}
        assert an_deserialize(obj) == TAU
        with pytest.raises(NotIrreducible):
            an_deserialize({"minpoly": "-1,0,1", "root_index": 0})

    def test_conjugates(self):
        conj = an_conjugates(SQRT2)
        assert len(conj) == 2 and conj[0] != conj[1]
        assert {root_index(c) for c in conj} == {0, 1}


class TestMul:
    def test_sqrt2_squared(self):
        prod = an_mul(SQRT2, SQRT2)
        assert an_rational_value(prod) == 2

    def test_sqrt2_sqrt3(self):
        prod = an_mul(SQRT2, SQRT3)
        assert prod.minpoly == P("-6,0,1")
        assert an_rational_value(an_mul(prod, prod)) == 6

    def test_golden_pair(self):
        other = an_from_poly_root(P("-1,-1,1"), min(isolate_roots(P("-1,-1,1")), key=lambda b: b.center[0]))
        assert an_rational_value(an_mul(PHI, other)) == -1

    def test_rational_scaling(self):
        prod = an_mul(SQRT2, an_from_rational(Fraction(3, 2)))
        # 3/2 sqrt2 has minpoly 2x^2 - 9
        assert prod.minpoly == P("-9,0,2")
        assert an_rational_value(an_mul(prod, prod)) == Fraction(9, 2)

    def test_zero(self):
        assert an_rational_value(an_mul(SQRT2, an_from_rational(0))) == 0

    def test_zero_on_either_side(self):
        zero = an_from_rational(0)
        for a in (SQRT2, TAU, nth_root("1,0,1", key=lambda b: b.center[1])):
            assert an_mul(a, zero) == zero
            assert an_mul(zero, a) == zero

    def test_rational_left_operand(self):
        rng = random.Random(11)
        for c in (Fraction(3, 2), Fraction(-7), Fraction(-1, 3)):
            r = an_from_rational(c)
            for a in (SQRT2, TAU, rand_an(rng), rand_an(rng)):
                left = an_mul(r, a)
                assert left == an_mul(a, r)
                assert left.box in isolate_roots(left.minpoly)

    def test_imaginary(self):
        i_unit = an_from_poly_root(P("1,0,1"), isolate_roots(P("1,0,1"))[1])
        sq = an_mul(i_unit, i_unit)
        assert an_rational_value(sq) == -1

    def test_selection_isolates_factors_only(self, monkeypatch):
        # the resolvents here are (x^2-4)^2, (x-2)^2 and (x^2-16)^2: the value
        # is pinned among the roots of their irreducible factors, and no
        # reducible polynomial is isolated
        sqrt8 = nth_root("-8,0,1")
        isolated = []

        def spy(p):
            isolated.append(p)
            return isolate_roots(p)

        monkeypatch.setattr(algnum, "isolate_roots", spy)
        assert an_rational_value(an_mul(SQRT2, SQRT2)) == 2
        assert an_rational_value(an_pow(SQRT2, 2)) == 2
        assert an_rational_value(an_mul(SQRT2, sqrt8)) == 4
        assert isolated and all(is_irreducible(p) for p in isolated)

    def test_commutative_associative(self):
        rng = random.Random(20260814)
        for _ in range(4):
            a, b, c = (rand_an(rng) for _ in range(3))
            assert an_equal(an_mul(a, b), an_mul(b, a))
            assert an_equal(an_mul(an_mul(a, b), c), an_mul(a, an_mul(b, c)))


class TestInvNegPow:
    def test_inv_rational(self):
        assert an_inv(an_from_rational(2)).minpoly == P("-1,2")

    def test_inv_sqrt2(self):
        inv = an_inv(SQRT2)
        assert inv.minpoly == P("-1,0,2")
        assert an_rational_value(an_mul(inv, SQRT2)) == 1

    def test_inv_tau(self):
        inv = an_inv(TAU)
        assert inv.minpoly == LEHMER
        assert inv.box.center[0] < 1
        assert inv.box.center[1] == 0

    def test_inv_involution(self):
        rng = random.Random(3)
        for _ in range(5):
            a = rand_an(rng, max_deg=3)
            if a.minpoly[0] != 0:
                assert an_inv(an_inv(a)) == a

    def test_zero_input(self):
        with pytest.raises(ZeroInput):
            an_inv(an_from_rational(0))

    def test_neg(self):
        n = an_neg(SQRT2)
        assert n.minpoly == P("-2,0,1") and n.box.center[0] < 0

    def test_pow_examples(self):
        assert an_rational_value(an_pow(SQRT2, 2)) == 2
        sq = an_pow(PHI, 2)
        assert sq.minpoly == P("1,-3,1")
        assert sq.box.center[0] > 2
        assert an_pow(SQRT2, 1) == SQRT2
        assert an_rational_value(an_pow(an_from_rational(3), 2)) == 9

    def test_pow_composition(self):
        rng = random.Random(8)
        for _ in range(4):
            a = rand_an(rng, max_deg=3)
            assert an_pow(a, 6) == an_pow(an_pow(a, 2), 3)
            assert an_pow(a, 4) == an_pow(an_pow(a, 2), 2)

    def test_squarefree_power_map_is_pinned_unfactored(self, monkeypatch):
        # the power map of an irreducible minpoly is h^k for the minpoly h
        # of a^n, so a squarefree one is h, and a^n is pinned on it unfactored;
        # the oracle factors it and pins on the factors
        rng = random.Random(20261022)
        cases = []
        while len(cases) < 40:
            a = rand_an(rng, max_deg=5, bound=6)
            n = rng.randint(2, 4)
            q = power_map(a.minpoly, n)
            probes = (_box_horner((0,) * n + (1,), b) for b in _refinements(a.box, a.minpoly))
            cases.append((a, n, _proved_squarefree(q), algnum._select_root(algnum._irreducible_factors(q), probes)))
        assert sum(sq for _, _, sq, _ in cases) >= 30
        factored = []
        real = algnum.factor_z
        monkeypatch.setattr(algnum, "factor_z", lambda p: factored.append(p) or real(p))
        for a, n, squarefree, want in cases:
            del factored[:]
            assert an_pow(a, n) == want
            assert (factored == []) == squarefree

    def test_non_squarefree_power_map_is_factored(self, monkeypatch):
        # sqrt2 squared: the power map is (x - 2)^2, factored to x - 2
        factored = []
        real = algnum.factor_z
        monkeypatch.setattr(algnum, "factor_z", lambda p: factored.append(p) or real(p))
        assert an_rational_value(an_pow(SQRT2, 2)) == 2
        assert factored == [P("4,-4,1")]

    def test_pow_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            an_pow(SQRT2, 0)


class TestRationalMapsOracle:
    """an_inv, an_neg and an_mul by a rational pin the image's root on the
    mapped minpoly without factoring; the resolvent route (reversal or
    product resolvent, then factor selection by an_from_poly_root) must name
    the same canonical root."""

    SCALES = (Fraction(-7), Fraction(-1), Fraction(-1, 2), Fraction(3, 5), Fraction(5, 3), Fraction(4))

    @staticmethod
    def _by_factoring(res, probes):
        for probe in probes:
            try:
                return an_from_poly_root(res, probe)
            except BoxAmbiguous:
                continue

    def _roots(self):
        rng = random.Random(20261018)
        polys = []
        while len(polys) < 100:
            deg = rng.randint(2, 6)
            p = IntPoly([rng.randint(-5, 5) for _ in range(deg)] + [rng.choice((1, 1, 2, 3, 6))])
            if p[0] != 0 and is_irreducible(p):
                polys.append(p)
        return [an_from_poly_root(p, b) for p in polys for b in isolate_roots(p)]

    def test_maps_match_resolvent_route(self, monkeypatch):
        roots = self._roots()
        assert any(a.minpoly.lc > 1 for a in roots)
        wants = []
        for a in roots:
            invs = (_box_inv(b) for b in _refinements(a.box, a.minpoly) if _abs_bounds(b)[0] > 0)
            row = [self._by_factoring(a.minpoly.reversal(), invs)]
            for c in self.SCALES:
                cbox = IsolatingBox((c, Fraction(0)), Fraction(0))
                res = product_resolvent(a.minpoly, an_from_rational(c).minpoly)
                row.append(self._by_factoring(res, (_box_mul(b, cbox) for b in _refinements(a.box, a.minpoly))))
            wants.append(row)

        def no_factoring(p):
            raise AssertionError("a rational map factored a polynomial")

        monkeypatch.setattr(factor, "factor_z", no_factoring)
        monkeypatch.setattr(algnum, "factor_z", no_factoring)
        for a, (inv, *scaled) in zip(roots, wants):
            got = [an_inv(a)] + [an_mul(a, an_from_rational(c)) for c in self.SCALES]
            assert got == [inv, *scaled]
            assert an_neg(a) == scaled[self.SCALES.index(-1)]
            assert [root_index(g) for g in got] == [root_index(w) for w in [inv, *scaled]]


class TestEqual:
    def test_same(self):
        assert an_equal(SQRT2, SQRT2)

    def test_conjugates_differ(self):
        neg = an_from_poly_root(P("-2,0,1"), min(isolate_roots(P("-2,0,1")), key=lambda b: b.center[0]))
        assert not an_equal(SQRT2, neg)

    def test_different_minpoly(self):
        assert not an_equal(SQRT2, SQRT3)

    def test_refined_boxes_still_equal(self):
        from mahlerdyn.roots import refine

        fine = AlgebraicNumber(SQRT2.minpoly, refine(SQRT2.box, SQRT2.minpoly, Fraction(1, 1 << 100)))
        assert an_equal(SQRT2, fine)

    def test_refined_conjugates_differ(self):
        from mahlerdyn.roots import refine

        # the complex conjugates of TAU's minpoly, both given as refined boxes
        p = TAU.minpoly
        boxes = isolate_roots(p)
        i = next(k for k, b in enumerate(boxes) if b.center[1] > 0)
        j = next(k for k, b in enumerate(boxes) if b.center == (boxes[i].center[0], -boxes[i].center[1]))
        eps = Fraction(1, 1 << 200)
        a, b = (AlgebraicNumber(p, refine(boxes[k], p, eps)) for k in (i, j))
        assert a.box not in boxes and b.box not in boxes
        assert not an_equal(a, b)
        assert an_equal(a, AlgebraicNumber(p, boxes[i]))
        assert (root_index(a), root_index(b)) == (i, j)


class TestClassify:
    def test_salem_tau(self):
        assert classify_number(TAU).tag == "Salem"

    def test_pisot_phi(self):
        nc = classify_number(PHI)
        assert nc.tag == "Pisot"
        assert nc.extra["outside"] == 1 and nc.extra["inside"] == 1

    def test_sqrt2_other(self):
        assert classify_number(SQRT2).tag == "Other"

    def test_perron_proper(self):
        a = nth_root("5,-5,1")  # (5 + sqrt 5)/2, second root 1.38 also outside
        nc = classify_number(a)
        assert nc.tag == "Perron" and nc.extra["outside"] == 2

    def test_rationals(self):
        assert classify_number(an_from_rational(2)).tag == "RationalInteger"
        assert classify_number(an_from_rational(-3)).tag == "RationalInteger"
        assert classify_number(an_from_rational(Fraction(1, 2))).tag == "Rational"

    def test_roots_of_unity(self):
        i_unit = an_from_poly_root(P("1,0,1"), isolate_roots(P("1,0,1"))[1])
        nc = classify_number(i_unit)
        assert nc.tag == "RootOfUnity" and nc.extra["order"] == 4
        zeta5 = an_from_poly_root(P("1,1,1,1,1"), isolate_roots(P("1,1,1,1,1"))[0])
        nc5 = classify_number(zeta5)
        assert nc5.tag == "RootOfUnity" and nc5.extra["order"] == 5

    def test_equal_moduli_not_perron(self):
        a = nth_root("-2,0,0,0,0,0,0,0,1", key=lambda b: (b.center[1] == 0, b.center[0]))
        assert a.box.center[1] == 0 and a.box.center[0] > 0
        assert classify_number(a).tag == "Other"

    def test_negative_not_perron(self):
        a = an_from_poly_root(P("-2,0,1"), isolate_roots(P("-2,0,1"))[0])
        assert classify_number(a).tag == "Other"

    def test_nonmonic_not_perron(self):
        # (2 + sqrt 2)/2: dominant positive real but not an algebraic integer
        a = nth_root("1,-4,2")
        assert classify_number(a).tag == "Other"

    def test_salem_quartic(self):
        a = nth_root("1,-1,-1,-1,1")
        assert classify_number(a).tag == "Salem"


class TestRatioOnUnitCircle:
    """_ratio_on_unit_circle against |r_j / r_i| from mpmath roots, each
    matched to the nearest canonical box of its polynomial."""

    ROWS = (
        [("-2,0,0,0,1", j, i) for j in range(4) for i in range(j + 1, 4)]
        + [("-3,0,0,0,0,0,1", j, i) for j in range(6) for i in range(j + 1, 6)]
        + [("1,1,0,-1,-1,-1,-1,-1,0,1,1", j, i) for j, i in ((0, 1), (4, 5), (0, 8), (7, 9), (9, 8))]
    )

    @pytest.mark.parametrize("text, j, i", ROWS)
    def test_status_matches_mpmath(self, text, j, i):
        p = P(text)
        boxes = isolate_roots(p)
        with mp.workdps(60):
            found = mp.polyroots([mp.mpf(c) for c in reversed(p.coeffs)], maxsteps=200, extraprec=200)
            r = [min(found, key=lambda z: abs(z - mp.mpc(float(b.center[0]), float(b.center[1])))) for b in boxes]
            modulus = abs(r[j] / r[i])
            want = "on" if abs(modulus - 1) < mp.mpf(10) ** -40 else "out" if modulus > 1 else "in"
        assert algnum._ratio_on_unit_circle(p, boxes[j], boxes[i]) == want


class TestRepr:
    def test_tiny_root_prints_its_value(self):
        # the small root of x^2 - 2^70 x + 1 has a canonical box centred at
        # 0; repr and _log2_abs read one box refined below 2^-40 |centre|
        p = IntPoly((1, -(1 << 70), 1))
        small = AlgebraicNumber(p, min(isolate_roots(p), key=lambda b: b.center[0]))
        assert "8.47033e-22" in repr(small)
        assert mahler._log2_abs(small) == -70.0
