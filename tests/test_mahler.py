"""Measure computation, orbit verdicts, and certificate tests."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from mahlerdyn import factor, intpoly, mahler
from mahlerdyn.errors import InternalPrecisionExceeded, NotAFixedPoint, ZeroInput
from mahlerdyn.factor import is_irreducible
from mahlerdyn.intpoly import IntPoly, canonicalize, div_z, from_text, to_text, untrace_poly
from mahlerdyn.roots import circle_partition, isolate_roots, refine
from mahlerdyn.algnum import (
    an_compare,
    an_conjugates,
    an_equal,
    an_from_poly_root,
    an_from_rational,
    an_inv,
    an_pow,
    an_rational_value,
    an_sign,
    classify_number,
    root_index,
)
from mahlerdyn.mahler import (
    DEFAULT_BUDGET,
    Inconclusive,
    OrbitResult,
    PowerIdentity,
    Preperiodic,
    TorsionFreePower,
    Wandering,
    fixed_point_class,
    mahler_measure,
    orbit,
    wandering_certificate,
)

P = from_text

LEHMER = P("1,1,0,-1,-1,-1,-1,-1,0,1,1")
WANDER6 = P("1,2,3,-4,3,2,1")
CM6 = P("1,0,8,0,6,0,1")


def nth_root(poly_text, key=lambda b: b.center[0]):
    p = P(poly_text)
    boxes = isolate_roots(p)
    return an_from_poly_root(p, max(boxes, key=key))


def any_root(p):
    return an_from_poly_root(p, isolate_roots(p)[0])


TAU = nth_root("1,1,0,-1,-1,-1,-1,-1,0,1,1")
PHI = nth_root("-1,-1,1")
ONE = an_from_rational(1)


def rand_algnum(rng, max_deg=6, bound=20):
    while True:
        deg = rng.randint(1, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
        coeffs.append(rng.randint(1, bound))
        p = canonicalize(IntPoly(coeffs))
        if p.degree < 1 or p[0] == 0 or not is_irreducible(p):
            continue
        boxes = isolate_roots(p)
        return an_from_poly_root(p, boxes[rng.randrange(len(boxes))])


class TestSignCompare:
    def test_sign(self):
        assert an_sign(an_from_rational(Fraction(-3, 7))) == -1
        assert an_sign(TAU) == 1
        assert an_sign(an_from_rational(0)) == 0
        assert an_sign(nth_root("-2,0,1", key=lambda b: -b.center[0])) == -1

    def test_sign_rejects_complex(self):
        i = any_root(P("1,0,1"))
        with pytest.raises(ValueError):
            an_sign(i)

    def test_compare(self):
        half = an_from_rational(Fraction(1, 2))
        sqrt2 = nth_root("-2,0,1")
        assert an_compare(half, sqrt2) == -1
        assert an_compare(sqrt2, half) == 1
        assert an_compare(sqrt2, nth_root("-2,0,1")) == 0
        # 1.17... tau against close rationals
        assert an_compare(TAU, an_from_rational(Fraction(117628, 100000))) == 1
        assert an_compare(TAU, an_from_rational(Fraction(117629, 100000))) == -1

    def test_compare_rational_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            want = (x > y) - (x < y)
            assert an_compare(an_from_rational(x), an_from_rational(y)) == want


class TestMeasureExamples:
    def test_root_of_unity_is_one(self):
        for t in ("1,1", "1,0,1", "1,1,1", "1,1,1,1,1"):
            m = mahler_measure(any_root(P(t)))
            assert an_rational_value(m) == 1

    def test_lehmer_tau_fixed(self):
        m = mahler_measure(TAU)
        assert an_equal(m, TAU)

    def test_half_gives_two(self):
        m = mahler_measure(an_from_rational(Fraction(1, 2)))
        assert an_rational_value(m) == 2

    def test_integer(self):
        assert an_rational_value(mahler_measure(an_from_rational(5))) == 5
        assert an_rational_value(mahler_measure(an_from_rational(-5))) == 5

    def test_quartic_gives_degree_six(self):
        m = mahler_measure(any_root(P("1,-1,0,0,1")))
        assert m.degree == 6
        assert m.minpoly.lc == 1
        # frozen: engine output cross-checked against a resultant oracle
        assert m.minpoly == P("1,0,-1,-1,-1,0,1")

    def test_rational_shapes(self):
        assert an_rational_value(mahler_measure(an_from_rational(Fraction(3, 2)))) == 3
        assert an_rational_value(mahler_measure(an_from_rational(Fraction(-7, 4)))) == 7

    def test_sqrt2(self):
        # both conjugates outside: M = |c0| = 2
        m = mahler_measure(nth_root("-2,0,1"))
        assert an_rational_value(m) == 2

    def test_pisot_fixed(self):
        m = mahler_measure(PHI)
        assert an_equal(m, PHI)

    def test_zero_rejected(self):
        with pytest.raises(ZeroInput):
            mahler_measure(an_from_rational(0))

    def test_salem_quartic_fixed(self):
        a = nth_root("1,-1,-1,-1,1")
        assert an_equal(mahler_measure(a), a)

    def test_measure_factors_input_and_resolvent_only(self, monkeypatch):
        # the final scaling (and inversion) of the subset product keeps its
        # minpoly irreducible, so a measure factors the degree-5 input and
        # its degree-10 subset resolvent, and nothing else
        monkeypatch.setattr(mahler, "_measure_cache", {})
        factor._factor_cached.cache_clear()
        m = mahler_measure(any_root(P("7,13,-13,-14,-11,9")))
        assert factor._factor_cached.cache_info().misses == 2
        assert m.degree == 10


class TestFixedPointClass:
    def test_tau_salem(self):
        assert fixed_point_class(TAU).tag == "Salem"

    def test_phi_pisot(self):
        assert fixed_point_class(PHI).tag == "Pisot"

    def test_seven_rational_integer(self):
        assert fixed_point_class(an_from_rational(7)).tag == "RationalInteger"

    def test_not_fixed(self):
        with pytest.raises(NotAFixedPoint):
            fixed_point_class(nth_root("-2,0,1"))
        with pytest.raises(NotAFixedPoint):
            fixed_point_class(any_root(P("1,-1,0,0,1")))


class TestOrbitExamples:
    def test_orbit_five(self):
        r = orbit(an_from_rational(5))
        assert isinstance(r.verdict, Preperiodic)
        assert r.verdict.number_class.tag == "RationalInteger"
        assert [an_rational_value(t) for t in r.trace] == [5, 5]
        assert an_equal(r.verdict.fixed_point, an_from_rational(5))

    def test_orbit_tau(self):
        r = orbit(TAU)
        assert isinstance(r.verdict, Preperiodic)
        assert r.verdict.number_class.tag == "Salem"
        assert an_equal(r.verdict.fixed_point, TAU)

    def test_orbit_quartic_preperiodic(self):
        r = orbit(any_root(P("1,-1,0,0,1")))
        assert isinstance(r.verdict, Preperiodic)
        assert r.verdict.number_class.tag == "Salem"
        assert len(r.trace) == 3

    def test_orbit_cm_sextic_preperiodic(self):
        r = orbit(any_root(CM6))
        assert isinstance(r.verdict, Preperiodic)

    def test_orbit_wandering_sextic(self):
        r = orbit(any_root(WANDER6))
        assert isinstance(r.verdict, Wandering)
        cert = r.verdict.certificate
        assert cert == PowerIdentity(k=2, l=1, n=3)
        # the certificate's equality, re-verified from the trace
        assert an_equal(r.trace[2], an_pow(r.trace[1], 3))
        assert r.trace[1].degree == 12
        assert r.trace[2].degree == 12

    def test_wandering_sextic_later_exponents(self):
        # the orbit's exact relation is M^(k+1) = (M^k)^3 from k = 1 on, so
        # M^4 = (M^2)^9; a claimed pair (4, 2, 20) is off by a factor near
        # (M^2)^11 ~ 3e24 and certified intervals separate the two cleanly
        r = orbit(any_root(WANDER6))
        m2 = r.trace[2]
        m3 = mahler_measure(m2)
        assert an_equal(m3, an_pow(m2, 3))
        box = refine(m2.box, m2.minpoly, Fraction(1, 1 << 80))
        lo = box.center[0] - box.radius
        hi = box.center[0] + box.radius
        assert lo > 1
        # M^4 = M(M^3) sits inside the certified product interval over
        # m3.minpoly; (M^2)^9 lands inside it, (M^2)^20 clears it entirely
        m4lo, m4hi = TestOracleEquivalence._interval_measure(m3.minpoly)
        assert m4lo <= hi ** 9 and lo ** 9 <= m4hi
        assert lo ** 20 > m4hi

    def test_orbit_zero_rejected(self):
        with pytest.raises(ZeroInput):
            orbit(an_from_rational(0))

    def test_degree_three_terminates(self):
        # degree <= 3 never wanders; verified by iteration, not assumption
        for t in ("-2,0,0,1", "1,-4,0,1", "-1,-1,0,1"):
            r = orbit(any_root(P(t)))
            assert isinstance(r.verdict, Preperiodic)


class TestWanderingCertificate:
    def test_short_trace_none(self):
        assert wandering_certificate([an_from_rational(5)]) is None

    def test_fixed_trace_none(self):
        five = an_from_rational(5)
        assert wandering_certificate([five, five]) is None

    def test_sextic_trace(self):
        r = orbit(any_root(WANDER6))
        cert = wandering_certificate(list(r.trace))
        assert cert == PowerIdentity(k=2, l=1, n=3)

    def test_torsion_free_power(self):
        # M(sqrt(2)) = 2 = (sqrt 2)^2 and sqrt(2) is torsion-free? it is not:
        # -sqrt(2)/sqrt(2) = -1 is a root of unity, so no certificate may cite it
        sqrt2 = nth_root("-2,0,1")
        m = mahler_measure(sqrt2)
        cert = wandering_certificate([sqrt2, m])
        assert cert is None

    def test_torsion_free_power_positive(self):
        # a Pisot cube: M(a) = a for Pisot a, so build M(a^2) = ... instead use
        # x^2 - 3x + 1: root phi^2, M = a itself; no power gap. Use 3 + sqrt 8:
        # minpoly x^2 - 6x + 1, conjugate 3 - sqrt 8 = 1/a inside, a Pisot,
        # M(a) = a: fixed. A genuine TorsionFreePower needs M^k = a^n with
        # n >= 2: take a = sqrt(2)+1 ~ 2.41 (x^2-2x-1), conjugate 1-sqrt2
        # (modulus ~0.41 inside): M(a) = a: fixed again. Pisot units resist.
        # Fall back to the engine's own wandering example: the sextic's
        # first certificate is a PowerIdentity, checked above; here check
        # that TorsionFreePower never fires with a false equality.
        r = orbit(any_root(WANDER6))
        alpha = r.trace[0]
        for k in (1, 2):
            for n in (2, 3, 4):
                if an_equal(r.trace[k], an_pow(alpha, n)):
                    pytest.fail("unexpected exact power relation")


class TestBudgets:
    def test_max_iters_zero(self):
        r = orbit(an_from_rational(5), {"max_iters": 0})
        assert isinstance(r.verdict, Inconclusive)
        assert "max_iters" in r.verdict.reason
        assert len(r.trace) == 1

    def test_max_iters_one_on_wanderer(self):
        r = orbit(any_root(WANDER6), {"max_iters": 1})
        assert isinstance(r.verdict, Inconclusive)
        assert len(r.trace) == 2

    def test_max_degree(self):
        r = orbit(any_root(WANDER6), {"max_degree": 6})
        # the first measure has degree 12 > 6, so iteration stops there
        assert isinstance(r.verdict, Inconclusive)
        assert "max_degree" in r.verdict.reason

    def test_max_coeff_bits(self):
        r = orbit(any_root(WANDER6), {"max_coeff_bits": 4})
        assert isinstance(r.verdict, Inconclusive)
        assert "max_coeff_bits" in r.verdict.reason

    def test_default_budget_values(self):
        assert DEFAULT_BUDGET == {"max_iters": 12, "max_degree": 512, "max_coeff_bits": 20000}


class TestMeasureInvariants:
    def test_at_least_one_iff_root_of_unity(self):
        rng = random.Random(20260814)
        corpus = [any_root(P(t)) for t in ("1,1", "1,0,1", "1,1,1", "1,0,-1,0,1")]
        corpus += [rand_algnum(rng) for _ in range(200)]
        for a in corpus:
            m = mahler_measure(a)
            cmp = an_compare(m, ONE)
            assert cmp >= 0
            tag = classify_number(a).tag
            is_unit_circle = tag == "RootOfUnity" or (
                a.degree == 1 and an_rational_value(a) in (1, -1))
            assert (cmp == 0) == is_unit_circle

    def test_galois_invariance(self):
        rng = random.Random(99)
        for _ in range(25):
            a = rand_algnum(rng, max_deg=5, bound=8)
            m = mahler_measure(a)
            for b in an_conjugates(a):
                assert an_equal(mahler_measure(b), m)

    def test_inversion_invariance(self):
        rng = random.Random(31415)
        for _ in range(40):
            a = rand_algnum(rng, max_deg=5, bound=10)
            assert an_equal(mahler_measure(a), mahler_measure(an_inv(a)))

    def test_measures_are_perron_or_integer(self):
        rng = random.Random(271828)
        for _ in range(30):
            a = rand_algnum(rng, max_deg=5, bound=8)
            tag = classify_number(mahler_measure(a)).tag
            assert tag in ("RationalInteger", "Pisot", "Salem", "Perron")


class TestOrbitInvariants:
    def _integer_inputs(self, count):
        # degree capped at 4: iterated measures of higher-degree integers
        # blow past the subset-resolvent budget and prove nothing extra here
        rng = random.Random(424242)
        out = [any_root(WANDER6)]
        while len(out) < count:
            deg = rng.randint(2, 4)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
            p = canonicalize(IntPoly(coeffs))
            if p.degree < 2 or p[0] == 0 or p.lc != 1 or not is_irreducible(p):
                continue
            boxes = [b for b in isolate_roots(p)
                     if b.center[1] == 0 and b.center[0] - b.radius > 1]
            if not boxes:
                continue
            out.append(an_from_poly_root(p, boxes[0]))
        return out

    def test_monotone_traces_and_no_strict_cycles(self):
        for a in self._integer_inputs(10):
            r = orbit(a, {"max_iters": 2})
            assert len(r.trace) >= 1
            for u, v in zip(r.trace[1:], r.trace[2:]):
                assert an_compare(u, v) <= 0
            if isinstance(r.verdict, Preperiodic):
                assert an_equal(r.trace[-1], r.trace[-2])
            # any equal pair in the trace must be the terminal consecutive one
            n = len(r.trace)
            for i in range(1, n):
                for j in range(i + 1, n):
                    if an_equal(r.trace[i], r.trace[j]):
                        assert j == i + 1 and j == n - 1
                        assert isinstance(r.verdict, Preperiodic)

    def test_preperiodic_shape(self):
        for t in ("-1,-1,1", "1,-1,-1,-1,1", "1,0,8,0,6,0,1"):
            r = orbit(any_root(P(t)))
            assert isinstance(r.verdict, Preperiodic)
            assert an_equal(r.trace[-1], r.trace[-2])
            assert an_equal(r.verdict.fixed_point, r.trace[-1])
            assert r.verdict.number_class.tag in ("RationalInteger", "Pisot", "Salem")


class TestOracleEquivalence:
    @staticmethod
    def _interval_measure(p):
        """[lo, hi] containing M by a direct numeric product with certified
        per-root radii n|p(r)|/|p'(r)|."""
        n = p.degree
        with mp.workprec(200):
            rts = mp.polyroots([mp.mpf(c) for c in reversed(p.coeffs)],
                               maxsteps=100, extraprec=200)
            dp = [i * p[i] for i in range(1, n + 1)]
            lo = hi = mp.mpf(abs(p.lc))
            for r in rts:
                pr = mp.polyval([mp.mpf(c) for c in reversed(p.coeffs)], r)
                dpr = mp.polyval([mp.mpf(c) for c in reversed(dp)], r)
                rad = n * abs(pr) / abs(dpr)
                m = abs(r)
                lo *= max(1, m - rad)
                hi *= max(1, m + rad)
            return Fraction(str(lo)), Fraction(str(hi))

    def test_interval_containment(self):
        rng = random.Random(161803)
        done = 0
        while done < 50:
            deg = rng.randint(1, 4)
            coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 5)]
            p = canonicalize(IntPoly(coeffs))
            if p.degree < 1 or p[0] == 0 or not is_irreducible(p):
                continue
            a = any_root(p)
            m = mahler_measure(a)
            box = refine(m.box, m.minpoly, Fraction(1, 1 << 50))
            mlo = box.center[0] - box.radius
            mhi = box.center[0] + box.radius
            lo, hi = self._interval_measure(p)
            assert mlo <= hi and lo <= mhi, to_text(p)
            done += 1


class TestVerdictTypes:
    def test_orbit_result_fields(self):
        r = orbit(an_from_rational(3))
        assert isinstance(r, OrbitResult)
        assert isinstance(r.trace, tuple)
        assert all(hasattr(t, "minpoly") for t in r.trace)

    def test_certificate_niceties(self):
        c = PowerIdentity(k=4, l=2, n=20)
        assert (c.k, c.l, c.n) == (4, 2, 20)
        t = TorsionFreePower(k=2, n=2)
        assert (t.k, t.n) == (2, 2)


def _from_candidate_minpolys(fn):
    """Wrap fn so that only the refine calls made from
    mahler._candidate_minpolys reach it; the others reach refine."""

    def wrapped(*args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's frame
            frame = frame.f_back
        if frame.f_code.co_name == "_candidate_minpolys":
            return fn(*args, **kwargs)
        return refine(*args, **kwargs)

    return wrapped


class TestMinpolyGuess:
    """The LLL minpoly guess behind every measure past _DIRECT_FACTOR_CAP."""

    @staticmethod
    def _m2_product():
        """The arguments _select_product_root gets for M(M(WANDER6)): the
        degree-12 monic plus-reciprocal p = M(WANDER6).minpoly, its pair
        resolvent (degree 192, past the direct-factor cap), the boxes, the
        five outside roots and lc = 1."""
        p = mahler_measure(any_root(WANDER6)).minpoly
        idx = circle_partition(p).outside
        res = mahler._pair_product_poly(p, len(idx))
        assert res.degree > mahler._DIRECT_FACTOR_CAP
        return res, p, isolate_roots(p), idx, p.lc

    def test_orbit_without_pslq(self, monkeypatch):
        def no_pslq(*args, **kwargs):
            raise AssertionError("mpmath.pslq called")

        def no_polyroots(*args, **kwargs):
            raise AssertionError("mpmath.polyroots called")

        monkeypatch.setattr(mahler, "_measure_cache", {})
        monkeypatch.setattr(mp, "pslq", no_pslq)
        monkeypatch.setattr(mp, "polyroots", no_polyroots)
        r = orbit(any_root(WANDER6))
        assert r.verdict == Wandering(PowerIdentity(k=2, l=1, n=3))
        assert [t.degree for t in r.trace] == [6, 12, 12]

    def test_verified_candidate_rejects_multiple(self):
        res, p, boxes, idx, lc = self._m2_product()
        w = mahler._select_product_root(res, p, boxes, idx, lc)
        q = w.minpoly
        assert q.degree == 12
        assert mahler._verified_candidate(q, res, p, boxes, idx, lc) is not None
        qx1 = q * IntPoly((1, 1))
        assert mahler._verified_candidate(qx1, res, p, boxes, idx, lc) is None

    def test_gcd_recovers_minpoly_from_multiples(self):
        m1 = mahler_measure(any_root(WANDER6))
        q = mahler_measure(m1).minpoly
        assert q.degree == 12
        D = 16
        other = IntPoly((1,) + (0,) * (D - 1) + (1,))  # x^16 + 1, coprime to q

        def row(f, tail):
            return list(f.coeffs) + [0] * (D + 1 - len(f.coeffs)) + [tail]

        # first row a multiple q*(x+1); LLL does return such rows: the D = 16
        # lattice at 2048 bits for the step from M^2 to M^3 of WANDER6 has a
        # degree-13 first row over the degree-12 minpoly
        reduced = [row(q * IntPoly((1, 1)), 3), row(q * IntPoly((-2, 1)), -1),
                   row(q * IntPoly((0, 0, 1)), 2), row(other, 1 << 40)]
        assert mahler._leading_gcd(reduced, D) == q
        # a common factor x is stripped
        reduced = [row(q * IntPoly((0, 1)), 0), row(q * IntPoly((0, 0, 1)), 0),
                   row(other, 1 << 40)]
        assert mahler._leading_gcd(reduced, D) == q

    def test_first_guess_for_a_real_root(self):
        # sqrt 2 + sqrt 3 has minpoly x^4 - 10x^2 + 1; the D = 4 lattice at
        # 256 bits already gives it exactly
        p = P("1,0,-10,0,1")
        boxes = isolate_roots(p)
        i = max(range(4), key=lambda k: boxes[k].center[0])
        first = next(mahler._candidate_minpolys(p, boxes, (i,), 1, 256))
        assert canonicalize(first) == p


class TestPairResolvent:
    """A monic plus-reciprocal minpoly of degree 2m with s roots outside the
    circle is measured on the pair resolvent (degree C(m, s) 2^s), a divisor
    of the subset resolvent (degree C(2m, s))."""

    @staticmethod
    def _inputs(max_m, count):
        """Seeded irreducible untrace_poly(h), h monic of degree 1..max_m,
        with s >= 1 roots outside the circle, as (p, s)."""
        rng = random.Random(20261018)
        out = []
        while len(out) < count:
            m = rng.randint(1, max_m)
            p = untrace_poly(IntPoly([rng.randint(-6, 6) for _ in range(m)] + [1]))
            if p[0] != 0 and is_irreducible(p):
                s = len(circle_partition(p).outside)
                if s:
                    out.append((p, s))
        return out

    def test_divides_subset_resolvent(self):
        inputs = self._inputs(5, 40)
        assert max(p.degree for p, _ in inputs) == 10
        for p, s in inputs:
            q = intpoly._pair_product_poly(p, s)
            assert q.degree == math.comb(p.degree // 2, s) << s
            assert div_z(intpoly._subset_product_poly(p, s), q) is not None, to_text(p)

    def test_routes_agree(self, monkeypatch):
        # up to degree 6 both routes factor their resolvent directly; along
        # WANDER6's trace both guess the minpoly (192 against 792 at M^1 and
        # M^2). Past degree 6 the products' minpolys reach degree 32-80 and
        # either route takes from 5 s to over 20 s per measure.
        polys = [p for p, _ in self._inputs(3, 30)]
        polys += [t.minpoly for t in orbit(any_root(WANDER6)).trace]
        built = []

        def pair_spy(g, s):
            built.append(g)
            return intpoly._pair_product_poly(g, s)

        def measures():
            monkeypatch.setattr(mahler, "_measure_cache", {})
            got = [mahler_measure(a) for p in polys for a in an_conjugates(any_root(p))]
            return [(m.minpoly, root_index(m)) for m in got]

        monkeypatch.setattr(mahler, "_pair_product_poly", pair_spy)
        by_pairs = measures()
        assert sorted(built, key=to_text) == sorted(set(polys), key=to_text)
        built.clear()
        monkeypatch.setattr(mahler, "reciprocal_test", lambda p: "No")
        assert measures() == by_pairs
        assert built == []

    def test_wandering_step_builds_degree_192(self, monkeypatch):
        # a silent fallback to the degree-792 subset resolvent fails here
        m1 = mahler_measure(any_root(WANDER6))
        built = []

        def pair_spy(g, s):
            res = intpoly._pair_product_poly(g, s)
            built.append(res.degree)
            return res

        def no_subset(g, s):
            raise AssertionError("subset resolvent built")

        monkeypatch.setattr(mahler, "_measure_cache", {})
        monkeypatch.setattr(mahler, "_pair_product_poly", pair_spy)
        monkeypatch.setattr(mahler, "_subset_product_poly", no_subset)
        m2 = mahler_measure(m1)
        assert built == [192]
        assert an_equal(m2, an_pow(m1, 3))


class TestRelationPathFailure:
    """A numeric failure in the relation path surfaces as Inconclusive or as
    an exception, never as a verdict."""

    def test_no_convergence_is_inconclusive(self, monkeypatch):
        @_from_candidate_minpolys
        def failing_refine(*args, **kwargs):
            raise InternalPrecisionExceeded("injected")

        monkeypatch.setattr(mahler, "_measure_cache", {})
        monkeypatch.setattr(mahler, "refine", failing_refine)
        r = orbit(any_root(WANDER6))
        assert isinstance(r.verdict, Inconclusive)
        assert r.verdict.reason.startswith("precision:")
        # M(WANDER6) is direct-factored; M^2 needs the relation path
        assert [t.degree for t in r.trace] == [6, 12]

    def test_type_error_propagates(self, monkeypatch):
        @_from_candidate_minpolys
        def failing_refine(*args, **kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(mahler, "_measure_cache", {})
        monkeypatch.setattr(mahler, "refine", failing_refine)
        with pytest.raises(TypeError, match="injected"):
            orbit(any_root(WANDER6))


class TestExactChecksUnderOptimize:
    """python -O strips asserts; every exact check in the package is a raised
    error, so an injected fault still stops the computation."""

    FAULTS = {
        # Newton's identities on power sums that no monic integer
        # polynomial has: e_2 = (p_1^2 - p_2) / 2 = 1/2
        "inexact_power_sums": "mahler._elem_from_power_sums([0, 1, 0], 2)\n",
        # a subset product that is not real, so neither is the measure
        "nonreal_measure": (
            "i = an_from_poly_root(from_text('1,0,1'), isolate_roots(from_text('1,0,1'))[0])\n"
            "mahler._select_product_root = lambda *args: i\n"
            "mahler.mahler_measure(an_from_poly_root(from_text('1,-3,1'), "
            "isolate_roots(from_text('1,-3,1'))[0]))\n"
        ),
        # a scaled root's probe that meets no box of the scaled minpoly
        "scaled_probe_far": (
            "algnum._box_mul = lambda a, b: roots.IsolatingBox((roots.Fraction(1000), roots._ZERO), roots._ONE)\n"
            "algnum.an_mul(an_from_poly_root(from_text('-2,0,1'), isolate_roots(from_text('-2,0,1'))[1]), "
            "algnum.an_from_rational(3))\n"
        ),
        # a squarefree factor reported twice
        "wrong_factorization": (
            "factor._factor_primitive_squarefree = lambda f: [f, f]\n"
            "factor.factor_z(from_text('-2,0,1'))\n"
        ),
        # every root of (x^2-2)(x^2-3) pinned to the first root box
        "pinned_twice": (
            "roots._pin = lambda *args: 0\n"
            "roots.circle_partition(from_text('6,0,-5,0,1'))\n"
        ),
        # an irreducible plus-reciprocal factor read as minus-reciprocal
        "minus_reciprocal": (
            "roots.reciprocal_test = lambda q: 'Minus'\n"
            "roots.circle_partition(from_text('1,-3,1'))\n"
        ),
        # an automorphism set without the identity
        "group_without_identity": (
            "K = nfield.nf_new(from_text('-2,0,1'))\n"
            "nfield._verify_group_closure(K, [nfield.fe_neg(K, nfield.fe_theta(K))])\n"
        ),
        # a gcd(p, p') that does not divide p
        "squarefree_gcd_not_dividing": (
            "intpoly.gcd_z = lambda p, q: from_text('1,1')\n"
            "intpoly.squarefree_part(from_text('-2,0,1'))\n"
        ),
        # an exact division in Yun's algorithm that fails
        "yun_division_fails": (
            "factor.div_z = lambda p, q: None\n"
            "factor._yun_squarefree(from_text('1,0,-2,0,1'))\n"
        ),
        # Hensel lifting towards a modulus that is not p^(2^t)
        "hensel_modulus_overshot": "factor._hensel_lift_pair([9, 0, 1], [2, 1], [1, 1], 3, 10)\n",
        # a single lifted factor that is not monic
        "hensel_factor_not_monic": "factor._hensel_multifactor([1, 2], [[1, 2]], 3, 9)\n",
        # a modulus interval that reaches 0 has no logarithm
        "log_of_zero_modulus": "nfield._log_interval(0, 1)\n",
        # interval division by an interval holding 0
        "interval_division_by_zero": "nfield._iv_div((1, 2), (-1, 1))\n",
        # a depressed quartic that is not a monic quartic without cubic term
        "depressed_quartic_wrong": (
            "classify.transform_resolvent = lambda *args: from_text('1,1')\n"
            "classify._depressed_quartic(from_text('1,0,0,0,1'))\n"
        ),
    }

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_injected_fault_raises_under_optimize(self, fault):
        code = (
            "from mahlerdyn import algnum, classify, factor, intpoly, mahler, nfield, roots\n"
            "from mahlerdyn.algnum import an_from_poly_root\n"
            "from mahlerdyn.errors import ExactCheckFailed\n"
            "from mahlerdyn.intpoly import from_text\n"
            "from mahlerdyn.roots import isolate_roots\n"
            "try:\n"
            + "".join("    " + line + "\n" for line in self.FAULTS[fault].splitlines())
            + "except ExactCheckFailed:\n"
            "    print('raised')\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "raised"
