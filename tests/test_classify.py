"""Field-level verdicts: regressions for the CM test (read off the
conjugation key, with no fixed-field search), the abelian rule and its
invariant factors, the quartic table (its all-preperiodic rows, the C4, D4
and S4 witnesses, and its groups against sympy), the quintic (S5, F5, C5, D5)
witnesses (S5 in signatures (1, 2) and (3, 1), and three census fields),
a spy that no field verdict computes a measure or an orbit and that each
candidate steps one exponent-space orbit, the
exponent-space orbits of S4, A4, S5, F20, D5, C4, D4, C5, C6, S3, C2^3 and
C8 units against mahler_measure, their exact relation test (against
products of exact conjugates, and on units whose labels repeat a value or
carry -x) and their groups on the labels (the F20 and D5 ones from the
pinned 5-cycle, checked against integral orbit sums of the roots),
the quintic resolvent behind galois_group_small and its one pinned 5-cycle
per quintic verdict, one field build and at most one automorphism
discovery per verdict, the C6, S3 and totally imaginary sextic, C2^3 and C8
octic verdicts, the quaternion chain patterns of the Q8 octic, the sextic
that is neither CM nor Galois, the octic that is not Galois, every entry
point on a wrong degree, the quartic subfields of C8,
C4xC2 and D4 octics, the group shapes of orders 6, 8 and 9 on their regular
representations, the C3xC3 nonic witness up to its measure identity in the
field and its verdict, the undecided automorphism count, and the two paths
around an exact certificate: the cited growth-chain fallback and an
exponent-space ladder left open, which must surface."""

import collections
import functools
import itertools
import math
import random
import re
import time
from fractions import Fraction

import mpmath as mp
import pytest

from mahlerdyn import classify, mahler, nfield
from mahlerdyn.algnum import an_compare, an_equal, an_from_rational, an_mul, an_neg, an_pow
from mahlerdyn.classify import (
    AllPreperiodic,
    HasWanderer,
    HasWandererByTheorem,
    Unsupported,
    _cayley_sextic,
    _group_shape,
    _independent_subgroups,
    _invariant_factors,
    _stable_cycles,
    _subfield_product,
    _verified_automorphisms,
    classify_abelian,
    classify_cm,
    classify_galois_small,
    classify_quartic,
    classify_quintic,
    galois_group_small,
)
from mahlerdyn.errors import AutomorphismsUndecided, InternalPrecisionExceeded, NotFound, NotGalois, UnsupportedDegree
from mahlerdyn.factor import is_irreducible
from mahlerdyn.intpoly import IntPoly, from_text
from mahlerdyn.mahler import CitedGrowth, PowerIdentity, TorsionFreePower, mahler_measure
from mahlerdyn.roots import _GUARD, isolate_roots, refine, signature

P = from_text

CM6 = P("1,0,8,0,6,0,1")  # x^6 + 6x^4 + 8x^2 + 1, a CM sextic
S4_IMAG = P("1,1,0,0,1")  # x^4 + x + 1, totally imaginary with group S4
S4_MIXED = P("-1,-1,0,0,1")  # x^4 - x - 1, signature (2, 1) with group S4
C4_REAL = P("2,0,-4,0,1")  # x^4 - 4x^2 + 2, totally real cyclic quartic
D4_REAL = P("3,0,-5,0,1")  # x^4 - 5x^2 + 3, totally real with group D4

S5_QUINTIC = P("-1,-1,0,0,0,1")  # x^5 - x - 1
F5_QUINTIC = P("-2,0,0,0,0,1")  # x^5 - 2
X5M3 = P("-3,0,0,0,0,1")  # x^5 - 3, group F5
D5_QUINTIC = P("12,-5,0,0,0,1")  # x^5 - 5x + 12
C5_QUINTIC = P("1,3,-3,-4,1,1")  # x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1
A5_QUINTIC = P("16,20,0,0,0,1")  # x^5 + 20x + 16
D5_COMPLEX = P("1,0,-1,2,-2,1")  # x^5 - 2x^4 + 2x^3 - x^2 + 1, signature (1, 2)
D5_REAL = P("-1,3,4,-5,-1,1")  # x^5 - x^4 - 5x^3 + 4x^2 + 3x - 1, totally real

C6_SEXTIC = P("-1,3,6,-4,-5,1,1")  # x^6 + x^5 - 5x^4 - 4x^3 + 6x^2 + 3x - 1
X6P108 = P("108,0,0,0,0,0,1")  # x^6 + 108, Galois with group S3
# the Galois closure of x^3 - 4x + 2 (disc 148), totally real with group S3
S3_SEXTIC = P("4,4,-20,4,14,-8,1")
C2CUBED_OCTIC = P("576,0,-960,0,352,0,-40,0,1")  # Q(sqrt 2, sqrt 3, sqrt 5)
# x^9 + 3x^8 - 12x^7 - 32x^6 + 33x^5 + 81x^4 - 15x^3 - 51x^2 - 15x - 1
C3C3_NONIC = P("-1,-15,-51,-15,81,33,-32,-12,3,1")
# x^8 + x^7 - 7x^6 - 6x^5 + 15x^4 + 10x^3 - 10x^2 - 4x + 1, Q(zeta_17)^+
C8_OCTIC = P("1,-4,-10,10,15,-6,-7,1,1")
# x^8 - 24x^6 + 144x^4 - 288x^2 + 144, totally real with group Q8
Q8_OCTIC = P("144,0,-288,0,144,0,-24,0,1")


def _element_order_counts(orders):
    """How many elements of each order the product of the cyclic groups of
    the given orders has."""
    return collections.Counter(
        math.lcm(*(m // math.gcd(x, m) for x, m in zip(xs, orders)))
        for xs in itertools.product(*map(range, orders))
    )


def _assert_wandering_unit(v, degree):
    assert isinstance(v, HasWanderer)
    assert v.certificate is not None
    w = v.witness
    assert degree % w.degree == 0
    assert abs(w.minpoly.coeffs[0]) == 1 and w.minpoly.coeffs[-1] == 1
    assert an_compare(mahler_measure(w), an_from_rational(1)) == 1


def _iterate(w, k):
    """M^k(w)."""
    for _ in range(k):
        w = mahler_measure(w)
    return w


def _assert_exact_certificate(v):
    """v's certificate is an exact identity on the orbit of its witness."""
    cert, w = v.certificate, v.witness
    if isinstance(cert, PowerIdentity):
        assert an_equal(_iterate(w, cert.k), an_pow(_iterate(w, cert.l), cert.n))
    else:
        assert isinstance(cert, TorsionFreePower)
        assert an_equal(_iterate(w, cert.k), an_pow(w, cert.n))


def _value(a):
    """|a| as a 400-bit mpf, from the box of a refined to 2^-300."""
    c = refine(a.box, a.minpoly, Fraction(1, 1 << 300)).center
    with mp.workprec(400):
        return abs(_mp_point(*c))


def _assert_log_inside(value, log, e):
    """log(value) lies in the rung-0 interval log(e, prec) of
    _exponent_orbit, ints at the unit 2^-(prec + _GUARD)."""
    prec = nfield._LAYOUT_PREC[0]
    lo, hi = log(e, prec)
    with mp.workprec(400):
        scaled = mp.log(value) * mp.mpf(2) ** (prec + _GUARD)
    assert lo < scaled < hi


class _Call(list):
    """The (e, log, rel) triples that one _exponent_orbit call yielded."""

    def __init__(self, args):
        super().__init__()
        self.args = args


def _record_exponent_orbits(monkeypatch) -> list:
    """Every _exponent_orbit call from here on, in order, as a _Call."""
    calls, real = [], classify._exponent_orbit

    def spy(*args):
        calls.append(_Call(args))
        for step in real(*args):
            calls[-1].append(step)
            yield step

    monkeypatch.setattr(classify, "_exponent_orbit", spy)
    return calls


def _assert_measure_grows(w, steps=3):
    """1 < M(w) < M^2(w) < ... along the first ``steps`` iterates."""
    chain = [an_from_rational(1)]
    x = w
    for _ in range(steps):
        x = mahler_measure(x)
        chain.append(x)
    for lo, hi in zip(chain, chain[1:]):
        assert an_compare(lo, hi) == -1


class TestClassifyCM:
    def test_cm_sextic_is_all_preperiodic(self):
        # complex conjugation is an automorphism of CM6 whose fixed field is
        # the totally real cubic, so the field is CM
        assert isinstance(classify_cm(CM6), AllPreperiodic)

    def test_s4_quartic_is_not_cm(self):
        # an S4 quartic field has no quadratic subfield, so it cannot be CM
        assert classify_cm(S4_IMAG) is None

    def test_failed_fixed_field_search_is_raised(self, monkeypatch):
        # the CM test reads no fixed field, so the failed generator search is
        # injected where one is read: the quartic subfield of a C8 octic,
        # which must raise rather than read as a verdict
        def fail(*args):
            raise NotFound("injected")

        monkeypatch.setattr(classify, "_fixed_field_poly", fail)
        with pytest.raises(NotFound, match="injected"):
            classify_galois_small(C8_OCTIC)

    def test_cm_reads_no_fixed_field(self, monkeypatch):
        # the conjugation key proves CM6 CM: no fixed-field generator search
        # and no signature of its polynomial
        calls = []

        def spy(name):
            real = getattr(classify, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_fixed_field_poly", "signature"):
            monkeypatch.setattr(classify, name, spy(name))
        assert isinstance(classify_cm(CM6), AllPreperiodic)
        assert calls == []

    def test_fixed_field_of_conjugation_is_totally_real(self):
        # oracle for the conjugation-key argument: the automorphism keyed by
        # the conjugate pairs fixes a totally real cubic
        K = nfield.nf_new(CM6)
        conj = nfield.nf_automorphisms(K)[tuple(nfield._conjugate_pairs(K))]
        poly, _ = classify._fixed_field_poly(K, [nfield.fe_theta(K), conj], 3)
        assert signature(poly) == (3, 0)

    @pytest.mark.parametrize("text", ["1,0,1", "2,0,1", "5,0,1"])
    def test_imaginary_quadratic_is_cm_by_its_conjugation_key(self, text):
        # the fixed field of conjugation is Q, which no generator search finds
        assert classify_cm(P(text)) == Unsupported(
            reason="CM field of degree 2: only degree 6 is proven all-preperiodic"
        )

    def test_not_galois_names_the_primes(self):
        # |Aut(CM6)| = 2: the Frobenius bound proves the field is not Galois
        K = nfield.nf_new(CM6)
        with pytest.raises(NotGalois, match="linear factors mod"):
            _verified_automorphisms(K, nfield.nf_automorphisms(K), NotGalois)


class TestClassifyAbelian:
    def test_small_groups_are_all_preperiodic(self):
        # C1, C2, C3 and C2 x C2, C1 also given as a trivial factor
        for invariants in ([], [1], [2], [3], [2, 2]):
            assert isinstance(classify_abelian(invariants), AllPreperiodic)

    def test_every_other_group_names_its_quotient(self):
        cases = [
            ([4], "C4"),
            ([5], "C5"),
            ([2, 2, 2], "C2cubed"),
            ([6], "C6"),
            ([2, 3], "C6"),
            ([3, 3], "C3xC3"),
        ]
        for invariants, quotient in cases:
            assert classify_abelian(invariants) == HasWandererByTheorem(quotient=quotient)

    def test_invariant_factors(self):
        # a divisibility chain d1 | d2 | ..., whatever the input order
        assert _invariant_factors([2, 3]) == [6]
        assert _invariant_factors([6, 4]) == [2, 12]
        assert _invariant_factors([3, 1, 9]) == [3, 9]
        with pytest.raises(ValueError):
            _invariant_factors([0])
        # oracle: a finite abelian group is determined by how many elements
        # it has of each order, and its invariant factors are > 1
        for k in range(4):
            for orders in itertools.product(range(1, 9), repeat=k):
                ds = _invariant_factors(orders)
                assert all(d > 1 for d in ds)
                assert all(b % a == 0 for a, b in zip(ds, ds[1:]))
                assert _element_order_counts(ds) == _element_order_counts(orders)


class TestClassifyQuartic:
    @pytest.mark.parametrize(
        "p, group, sig",
        [
            (P("1,-1,0,0,1"), "S4", (0, 2)),  # x^4 - x + 1
            (P("1,0,-4,0,1"), "V4", (4, 0)),  # x^4 - 4x^2 + 1, Q(sqrt 2, sqrt 3)
            (P("-2,0,0,0,1"), "D4", (2, 1)),  # x^4 - 2
            # the fifth cyclotomic polynomial: cyclic, with a nonzero linear
            # term in its depressed quartic
            (P("1,1,1,1,1"), "C4", (0, 2)),
        ],
        ids=["S4-imaginary", "V4-real", "D4-mixed", "C4-imaginary"],
    )
    def test_all_preperiodic_rows(self, p, group, sig):
        assert galois_group_small(p) == group
        assert signature(p) == sig
        assert isinstance(classify_quartic(p), AllPreperiodic)

    def test_galois_group_matches_sympy(self):
        # oracle: sympy's galois_group on the irreducible x^4 + b x^2 + d,
        # |b|, |d| <= 6 (V4, C4 or D4), and on their shifts x -> x + 1
        sympy = pytest.importorskip("sympy")
        from sympy.polys.numberfields.galoisgroups import galois_group

        x = sympy.Symbol("x")
        seen = set()
        for b, d, shift in itertools.product(range(-6, 7), range(-6, 7), (0, 1)):
            f = sympy.Poly((x + shift) ** 4 + b * (x + shift) ** 2 + d, x)
            p = IntPoly(tuple(int(c) for c in reversed(f.all_coeffs())))
            if not is_irreducible(p):
                continue
            group, _ = galois_group(f, by_name=True)
            name = "V4" if group.value == "V" else group.value
            assert galois_group_small(p) == name, p
            seen.add(name)
        assert seen == {"V4", "C4", "D4"}

    def test_totally_real_dihedral_quartic_has_certified_wanderer(self):
        # the D4 labelings of the real chain witness
        assert galois_group_small(D4_REAL) == "D4"
        v = classify_quartic(D4_REAL)
        _assert_wandering_unit(v, 4)
        assert v.certificate == TorsionFreePower(k=2, n=2)
        _assert_exact_certificate(v)

    def test_cyclic_quartic_has_certified_wanderer(self):
        v = classify_quartic(C4_REAL)
        assert isinstance(v, HasWanderer)
        assert v.certificate is not None
        w = v.witness
        # a unit of a totally real quartic field
        assert w.degree == 4
        assert abs(w.minpoly.coeffs[0]) == 1 and w.minpoly.coeffs[-1] == 1
        assert signature(w.minpoly) == (4, 0)
        _assert_exact_certificate(v)
        _assert_measure_grows(w)

    def test_s4_quartic_has_certified_wanderer(self):
        # the S4 branch: a unit whose k-th measure is its n-th power
        v = classify_quartic(S4_MIXED)
        _assert_wandering_unit(v, 4)
        cert = v.certificate
        assert isinstance(cert, TorsionFreePower) and cert.k >= 1 and cert.n >= 2
        _assert_exact_certificate(v)

    def test_totally_real_s4_quartic_has_certified_wanderer(self):
        # x^4 - 6x^2 - 3x + 1: the (4, 0) branch of the S4 square witness
        p = P("1,-3,-6,0,1")
        assert galois_group_small(p) == "S4" and signature(p) == (4, 0)
        v = classify_quartic(p)
        _assert_wandering_unit(v, 4)
        assert v.certificate == TorsionFreePower(k=2, n=2)
        _assert_exact_certificate(v)

    @pytest.mark.parametrize("p", [S4_MIXED, D4_REAL, P("1,-3,-6,0,1")], ids=["S4_MIXED", "D4_REAL", "S4_REAL"])
    def test_orbit_agrees_with_the_torsion_free_certificate(self, p):
        # the engine of mahler, run on the verdict's witness, reads the same
        # TorsionFreePower off the witness's own measures
        v = classify_quartic(p)
        assert v.certificate == TorsionFreePower(k=2, n=2)
        assert mahler.orbit(v.witness).verdict == mahler.Wandering(v.certificate)

    def test_growth_chain_is_the_fallback(self, monkeypatch):
        # with no exact relation found, so no identity, the C4 unit rests on
        # the cited theorem and the chain of its first three measures
        monkeypatch.setattr(classify, "_relation_test", lambda *args: lambda f: None)
        v = classify_quartic(C4_REAL)
        assert isinstance(v, HasWanderer)
        cert = v.certificate
        assert isinstance(cert, CitedGrowth)
        assert cert.tag == "FPZ2020-Thm2-totally-real-quartic-unit-3-orbit"
        assert cert.facts[-1] == "1 < M^1 < M^2 < M^3 verified exactly"

    @pytest.mark.parametrize("p", [S4_MIXED, C4_REAL], ids=["S4_MIXED", "C4_REAL"])
    def test_open_ladder_is_raised(self, monkeypatch, p):
        # the S4 unit's orbit runs in exponent space over the identity, the
        # C4 unit's over its keys: a side of the unit circle that no rung
        # settles is an error, never a rejected candidate
        monkeypatch.setattr(classify, "_decide", lambda *args: None)
        with pytest.raises(InternalPrecisionExceeded, match="side of a conjugate"):
            classify_quartic(p)


class TestClassifyQuintic:
    def test_f5_quintic_has_power_identity(self):
        # x^5 - 2 and x^5 - 3, both of signature (1, 2)
        for p in (F5_QUINTIC, X5M3):
            v = classify_quintic(p)
            _assert_wandering_unit(v, 5)
            cert = v.certificate
            assert isinstance(cert, PowerIdentity) and cert.k > cert.l >= 1 and cert.n >= 2
            _assert_exact_certificate(v)

    def test_c5_quintic_goes_through_the_cyclic_chain(self):
        v = classify_quintic(C5_QUINTIC)
        _assert_wandering_unit(v, 5)
        cert = v.certificate
        assert isinstance(cert, CitedGrowth) and cert.tag == "distribution-invariant"
        # one verified fact per exact iteration of the chain
        assert len(cert.facts) == 3
        _assert_measure_grows(v.witness)
        # oracle: each step's count of outside conjugates is that of the
        # roots of the previous iterate's minimal polynomial, from mpmath
        x = v.witness
        for fact in cert.facts:
            count = int(re.search(r"product of the (\d+) outside", fact).group(1))
            found = mp.polyroots([mp.mpf(c) for c in reversed(x.minpoly.coeffs)], maxsteps=200, extraprec=200)
            assert count == sum(1 for r in found if abs(r) > 1)
            x = mahler_measure(x)

    @pytest.mark.parametrize("p", [D5_COMPLEX, D5_REAL], ids=["complex", "real"])
    def test_d5_quintic_goes_through_the_exponent_recursion(self, p):
        # conjugate pairs label the 5-cycle in one field, the stable
        # pentagon of the resolvent in the other
        assert galois_group_small(p) == "D5"
        v = classify_quintic(p)
        _assert_wandering_unit(v, 5)
        cert = v.certificate
        assert isinstance(cert, CitedGrowth)
        assert cert.tag == "dihedral-quintic-exponent-recursion"
        assert cert.facts[-1] == "1 < M^1 < M^2 < M^3 verified exactly"
        _assert_measure_grows(v.witness)
        # oracle for the recursion fact, with no labeling: M^1 = |x P|,
        # M^2 = |x^2 P| and M^3 = |x^3 P^2| give M^2 = |x| M^1, M^3 = M^1 M^2
        x = _value(v.witness)
        m1, m2, m3 = (_value(_iterate(v.witness, k)) for k in (1, 2, 3))
        with mp.workprec(400):
            assert abs(m2 - abs(x) * m1) < m2 * mp.mpf(2) ** -200
            assert abs(m3 - m1 * m2) < m3 * mp.mpf(2) ** -200

    def test_s5_quintic_has_certified_wanderer(self):
        # the verdict reads M^2 = (M^1)^2 off exponent vectors, with no
        # measure computed; M^2 and M^3 go through degree-120 subset
        # resolvents and minpoly guessing only in this test's own
        # _assert_measure_grows
        v = classify_quintic(S5_QUINTIC)
        assert isinstance(v, HasWanderer)
        assert v.certificate is not None
        w = v.witness
        # a unit of the quintic field
        assert w.degree == 5
        assert abs(w.minpoly.coeffs[0]) == 1 and w.minpoly.coeffs[-1] == 1
        _assert_exact_certificate(v)
        _assert_measure_grows(w)

    def test_s5_quintic_with_one_complex_pair_has_certified_wanderer(self):
        # signature (3, 1): the complex pair above three real conjugates
        p = P("-1,-4,-2,-3,1,1")
        assert galois_group_small(p) == "S5" and signature(p) == (3, 1)
        v = classify_quintic(p)
        _assert_wandering_unit(v, 5)
        assert v.certificate == PowerIdentity(k=2, l=1, n=2)
        _assert_exact_certificate(v)

    def test_quintic_verdicts_compute_no_measure(self, monkeypatch):
        # with every measure and orbit raising, every Tier-1 field with a
        # wanderer still gets the verdict that it gets without the spy: the
        # quintics F5, both D5 fields, C5 and S5, the C4 and D4 quartics, and
        # the C6, S3, C2^3, C8 and C3xC3 Galois fields. Each candidate steps
        # one exponent-space orbit, which its readers read too: one
        # _exponent_orbit call per _exponent_witness call. The D5 field of
        # signature (1, 2) certifies its first candidate; the totally real
        # one rejects two before its third
        fields = [
            (classify_quintic, F5_QUINTIC),
            (classify_quintic, D5_COMPLEX),
            (classify_quintic, D5_REAL),
            (classify_quintic, C5_QUINTIC),
            (classify_quintic, S5_QUINTIC),
            (classify_quartic, C4_REAL),
            (classify_quartic, D4_REAL),
            (classify_galois_small, C6_SEXTIC),
            (classify_galois_small, S3_SEXTIC),
            (classify_galois_small, C2CUBED_OCTIC),
            (classify_galois_small, C8_OCTIC),
            (classify_galois_small, C3C3_NONIC),
        ]

        def boom(*args, **kwargs):
            raise RuntimeError("a measure or an orbit was computed")

        monkeypatch.setattr(mahler, "_measure_cache", {})
        monkeypatch.setattr(mahler, "_measure_uncached", boom)
        monkeypatch.setattr(mahler, "orbit", boom)
        orbits = _record_exponent_orbits(monkeypatch)
        witnesses, real = [], classify._exponent_witness

        def witness_spy(*args, **kwargs):
            witnesses.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(classify, "_exponent_witness", witness_spy)
        spied, counts = [], []
        for verdict, p in fields:
            before = len(orbits), len(witnesses)
            spied.append(verdict(p))
            counts.append((len(orbits) - before[0], len(witnesses) - before[1]))
        monkeypatch.undo()
        assert spied == [verdict(p) for verdict, p in fields]
        assert all(n_orbits == n_witnesses > 0 for n_orbits, n_witnesses in counts), counts
        assert counts[1:3] == [(1, 1), (3, 3)]
        kinds = [PowerIdentity, CitedGrowth, CitedGrowth, CitedGrowth, PowerIdentity, TorsionFreePower]
        kinds += [TorsionFreePower, CitedGrowth, CitedGrowth, TorsionFreePower, PowerIdentity, TorsionFreePower]
        assert [type(v.certificate) for v in spied] == kinds

    @pytest.mark.parametrize("text", ["1,-2,2,-3,-1,1", "2,4,-5,-7,3,1", "-1,-1,2,2,-1,1"])
    def test_census_quintic_has_certified_wanderer(self, monkeypatch, text):
        # S5 fields of signature (3, 1), (5, 0) and (1, 2) whose measure
        # orbits no resolvent route finishes; the last needs an in/out layout
        calls = _record_exponent_orbits(monkeypatch)
        start = time.perf_counter()
        v = classify_quintic(P(text))
        assert time.perf_counter() - start < 10
        _assert_wandering_unit(v, 5)
        # oracle: M^1 from mahler_measure (its degree-10 resolvent factors
        # directly) and M^2 as mpmath's measure of M^1's minpoly lie in the
        # engine's log intervals of the witness's orbit
        (_, log, _), (e1, _, _), (e2, _, _), *_ = calls[-1]
        m1 = mahler_measure(v.witness)
        _assert_log_inside(_value(m1), log, e1)
        q = m1.minpoly.coeffs
        with mp.workprec(400):
            roots = mp.polyroots([mp.mpf(c) for c in reversed(q)], maxsteps=400, extraprec=400)
            m2 = abs(q[-1]) * mp.fprod(max(1, abs(r)) for r in roots)
        _assert_log_inside(m2, log, e2)


def _orbit_sum_is_integer(G, group) -> bool:
    """Oracle for a Galois group on the labels, from mpmath roots in the
    isolate_roots order: the sum over the group of x_g(1) x_g(2) x_g(3)^2
    is fixed by Galois, so it is a rational algebraic integer."""
    with mp.workdps(60):
        found = mp.polyroots([mp.mpf(c) for c in reversed(G.coeffs)], maxsteps=200, extraprec=200)
        xs = [min(found, key=lambda z: abs(z - _mp_point(*b.center))) for b in isolate_roots(G)]
        total = sum(xs[g[1]] * xs[g[2]] * xs[g[3]] ** 2 for g in group)
        return abs(total - mp.nint(total.real)) < mp.mpf(10) ** -40


class TestExponentOrbit:
    @pytest.mark.parametrize(
        "verdict, p, steps",
        [
            (classify_quintic, S5_QUINTIC, 3),
            (classify_quintic, P("-1,-4,-2,-3,1,1"), 2),
            (classify_quartic, S4_MIXED, 3),
            (classify_quartic, P("1,-3,-6,0,1"), 3),
            (classify_quartic, P("1,-3,-7,0,1"), 3),  # x^4 - 7x^2 - 3x + 1, group A4
            (classify_quintic, F5_QUINTIC, 2),
            (classify_quintic, D5_COMPLEX, 3),
            (classify_quintic, D5_REAL, 3),
            (classify_quartic, C4_REAL, 3),
            (classify_quartic, D4_REAL, 3),
            (classify_quintic, C5_QUINTIC, 3),
            (classify_galois_small, C6_SEXTIC, 3),
            (classify_galois_small, S3_SEXTIC, 3),
            (classify_galois_small, C2CUBED_OCTIC, 2),
            (classify_galois_small, C8_OCTIC, 3),
        ],
        ids=[
            "S5-(1,2)", "S5-(3,1)", "S4-(2,1)", "S4-(4,0)", "A4-(4,0)", "F5-(1,2)", "D5-(1,2)", "D5-(5,0)",
            "C4", "D4", "C5", "C6", "S3", "C2cubed", "C8",
        ],
    )
    def test_log_intervals_contain_the_measures(self, monkeypatch, verdict, p, steps):
        # oracle: the witness and its first measures from mahler_measure
        if p.degree <= 5:
            assert galois_group_small(p) in ("S4", "A4", "S5", "F5", "D5", "C4", "D4", "C5")
        calls = _record_exponent_orbits(monkeypatch)
        v = verdict(p)
        K, x, place, group, _, *autos = calls[-1].args
        m = v.witness
        for k, (e, log, _) in enumerate(classify._exponent_orbit(K, x, place, group, steps, *autos)):
            m = mahler_measure(m) if k else m
            _assert_log_inside(_value(m), log, e)

    def test_tie_rule_is_the_exact_product_with_the_conjugate(self):
        # on x^4 - x - 1 (one complex pair, the identity alone) |prod
        # x_j^f_j| = 1 exactly when rel finds a relation in the product of
        # beta = prod x_j^f_j and its complex conjugate prod x_conj(j)^f_j,
        # which is 1 on the exact conjugates
        K = nfield.nf_new(S4_MIXED)
        conj = nfield._conjugate_pairs(K)
        theta = nfield.fe_theta(K)
        rel = classify._relation_test(K, theta, 0, {(0, 1, 2, 3): theta})
        xs = [nfield.fe_to_algnum(K, theta, j) for j in range(4)]
        one = an_from_rational(1)
        ties = 0
        for f in itertools.product((0, 1, 2), repeat=4):
            g = tuple(a + f[c] for a, c in zip(f, conj))
            product = functools.reduce(an_mul, (an_pow(x, e) for x, e in zip(xs, g) if e), one)
            assert (rel(g) is not None) == an_equal(product, one), f
            ties += an_equal(product, one)
        # conjugation swaps places 1 and 2: f = 0, (1, 1, 1, 1), (2, 2, 2, 2),
        # (1, 0, 2, 1) and (1, 2, 0, 1)
        assert conj == [0, 2, 1, 3] and ties == 5

    def test_relation_test_over_the_keys_is_the_exact_product(self):
        # on x^4 - 4x^2 + 2 (C4, all keys), for x = theta^2 - 1 = 1 +- sqrt 2
        # in the quadratic subfield: rel(f) is +1 or -1 exactly when the
        # product of the exact conjugates x_j^f_j is that number
        K = nfield.nf_new(C4_REAL)
        autos = nfield.nf_automorphisms(K)
        theta = nfield.fe_theta(K)
        x = nfield.fe_sub(K, nfield.fe_mul(K, theta, theta), nfield.fe_rational(K, 1))
        rel = classify._relation_test(K, x, 0, autos)
        xs = [nfield.fe_to_algnum(K, x, j) for j in range(4)]
        one = an_from_rational(1)
        found = collections.Counter()
        for f in itertools.product((-1, 0, 1), repeat=4):
            up, down = (
                functools.reduce(an_mul, (x for x, e in zip(xs, f) if e == s), one) for s in (1, -1)
            )
            want = 1 if an_equal(up, down) else -1 if an_equal(up, an_neg(down)) else None
            assert rel(f) == want, f
            found[want] += 1
        # x_j x_k = -1 on the two pairs of places with distinct values, and
        # x_j = x_k on the two pairs over one value
        assert found[1] > 1 and found[-1] > 0

    @pytest.mark.parametrize("text", ["2,0,-4,0,1", "1,0,-10,0,1"], ids=["fixed-in-subfield", "minus-x-conjugate"])
    def test_preperiodic_unit_over_the_keys_has_no_certificate(self, text):
        # over all keys, two labels can carry one value: theta^2 - 1 = 1 +-
        # sqrt 2 in the C4 field x^4 - 4x^2 + 2, with M(x) = x, must be
        # counted once; or -x: theta = +-sqrt 2 +- sqrt 3, with M(x) = x^2 =
        # M^2(x), is not torsion-free. Either error would certify
        # TorsionFreePower(1, 2)
        K = nfield.nf_new(P(text))
        autos = nfield.nf_automorphisms(K)
        x = theta = nfield.fe_theta(K)
        if text == "2,0,-4,0,1":
            x = nfield.fe_sub(K, nfield.fe_mul(K, theta, theta), nfield.fe_rational(K, 1))
        group = classify._key_group(list(autos))
        places = [j for j in range(4) if abs(nfield.nf_embed(K, x, j, 32).center[0]) > 1]
        assert len(places) == 2
        for place in places:
            assert classify._exponent_witness(K, x, place, group, 3, autos=autos) is None

    def test_labels_groups_are_two_transitive(self):
        cases = [(S4_MIXED, "A4", 12), (S4_MIXED, "S4", 24), (S5_QUINTIC, "A5", 60), (S5_QUINTIC, "S5", 120)]
        for G, tag, order in cases:
            group = classify._labels_group(G, tag)
            assert len(set(group)) == order
            assert {p[:2] for p in group} == set(itertools.permutations(range(G.degree), 2))
        # F20 and D5 from the pinned 5-cycle: transitive groups that hold
        # complex conjugation, the same from either pentagon of the pair
        cases = [(F5_QUINTIC, "F5", 20), (X5M3, "F5", 20), (D5_COMPLEX, "D5", 10), (D5_REAL, "D5", 10)]
        for G, tag, order in cases:
            group = set(classify._cycle_group(_stable_cycles(_cayley_sextic(G)), tag))
            assert len(group) == order
            assert {nfield._compose_keys(p, q) for p in group for q in group} == group
            assert {p[0] for p in group} == set(range(5))
            assert tuple(nfield._conjugate_pairs(nfield.nf_new(G))) in group
            assert set(classify._cycle_group(_stable_cycles(_cayley_sextic(G))[::-1], tag)) == group
            # the oracle sees the pinned group, and no conjugate of it by a
            # transposition outside it
            assert _orbit_sum_is_integer(G, group)
            for i, j in itertools.combinations(range(5), 2):
                t = [j if k == i else i if k == j else k for k in range(5)]
                other = {tuple(t[p[t[k]]] for k in range(5)) for p in group}
                assert other == group or not _orbit_sum_is_integer(G, other)


@pytest.mark.parametrize(
    "p, group", [(P("-2,0,1"), "C2"), (P("1,-3,0,1"), "C3"), (P("2,0,0,1"), "D3_6")], ids=["C2", "C3", "D3_6"]
)
def test_galois_group_below_degree_four(p, group):
    # degree 2 is C2; a cubic is C3 exactly when its discriminant is a square
    assert galois_group_small(p) == group


class TestQuinticResolvent:
    """The Cayley sextic decides solvability and, for a solvable quintic,
    names the pentagons fixed by the Galois group."""

    def test_galois_groups(self):
        cases = [
            (S5_QUINTIC, "S5"),
            (F5_QUINTIC, "F5"),
            (D5_QUINTIC, "D5"),
            (C5_QUINTIC, "C5"),
            (A5_QUINTIC, "A5"),
        ]
        for p, group in cases:
            assert galois_group_small(p) == group

    def test_stable_cycles(self):
        # indices follow the isolate_roots order of each quintic's roots
        assert _stable_cycles(_cayley_sextic(F5_QUINTIC)) == [(0, 1, 3, 4, 2), (0, 3, 2, 1, 4)]
        assert _stable_cycles(_cayley_sextic(D5_QUINTIC)) == [(0, 1, 4, 3, 2), (0, 3, 1, 2, 4)]
        assert _stable_cycles(_cayley_sextic(C5_QUINTIC)) == [(0, 1, 4, 2, 3), (0, 2, 1, 3, 4)]

    def test_one_pinned_cycle_per_quintic_verdict(self, monkeypatch):
        # the totally real D5 field names its patterns and pins its group on
        # one pair of stable pentagons: one _stable_cycles call, on the one
        # Cayley sextic ladder that already decided the group
        calls = collections.Counter()
        for name in ("_stable_cycles", "_cayley_sextic"):
            real = getattr(classify, name)

            def spy(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(classify, name, spy)
        assert isinstance(classify_quintic(D5_REAL), HasWanderer)
        assert calls == {"_stable_cycles": 1, "_cayley_sextic": 1}

    def test_cayley_sextic_matches_mpmath_roots(self):
        # oracle: the deltas from mpmath roots at 120 digits, each matched to
        # the nearest canonical root box, and their sextic rounded; no disk
        # arithmetic of the package
        rng = random.Random(20261019)
        quintics = [S5_QUINTIC, F5_QUINTIC, D5_QUINTIC, C5_QUINTIC, A5_QUINTIC, D5_COMPLEX, D5_REAL]
        while len(quintics) < 27:
            h = IntPoly([rng.randint(-20, 20) for _ in range(5)] + [1])
            if is_irreducible(h):
                quintics.append(h)
        for h in quintics:
            res, deltas = classify._cayley_sextic(h)
            with mp.workdps(120):
                found = mp.polyroots([mp.mpf(c) for c in reversed(h.coeffs)], maxsteps=200, extraprec=400)
                xs = [min(found, key=lambda z: abs(z - _mp_point(*b.center))) for b in isolate_roots(h)]

                def edge_sum(cyc):
                    return sum(xs[cyc[i]] * xs[cyc[(i + 1) % 5]] for i in range(5))

                coeffs = [mp.mpc(1)]
                for (pent, comp), box in zip(classify._PENTAGON_PAIRS, deltas):
                    d = (edge_sum(pent) - edge_sum(comp)) ** 2
                    assert abs(d - _mp_point(*box.center)) <= _mp_point(box.radius, 0).real
                    coeffs = [a - d * b for a, b in zip([0] + coeffs, coeffs + [0])]
                want = [int(mp.nint(c.real)) for c in coeffs]
                assert all(abs(c - w) < mp.mpf(10) ** -60 for c, w in zip(coeffs, want))
            assert res == IntPoly(want)


def _mp_point(x, y):
    return mp.mpc(mp.mpf(x.numerator) / x.denominator, mp.mpf(y.numerator) / y.denominator)


class TestGaloisSmall:
    @pytest.mark.parametrize(
        "verdict, p",
        [
            (classify_quintic, C5_QUINTIC),
            (classify_quintic, D5_REAL),
            (classify_quintic, D5_COMPLEX),
            (classify_galois_small, CM6),
            (classify_galois_small, C6_SEXTIC),
            (classify_galois_small, S3_SEXTIC),
            (classify_galois_small, X6P108),
            (classify_galois_small, C8_OCTIC),
            (classify_galois_small, C3C3_NONIC),
            (classify_quartic, C4_REAL),
            (classify_quartic, D4_REAL),
        ],
        ids=["C5", "D5-real", "D5-complex", "CM6", "C6", "S3", "x6+108", "C8", "C3xC3", "C4-real",
             "D4-real"],
    )
    def test_one_field_per_verdict(self, monkeypatch, verdict, p):
        # one nf_new per defining polynomial and at most one automorphism
        # discovery per field; C8 and C3xC3 also build their subfields
        builds, discoveries = collections.Counter(), collections.Counter()
        real_new, real_autos = classify.nf_new, classify.nf_automorphisms

        def nf_new(G):
            builds[G] += 1
            return real_new(G)

        def nf_automorphisms(K):
            discoveries[K.defining] += 1
            return real_autos(K)

        monkeypatch.setattr(classify, "nf_new", nf_new)
        monkeypatch.setattr(classify, "nf_automorphisms", nf_automorphisms)
        verdict(p)
        assert set(builds.values()) == {1} and classify._monic_irreducible(p) in builds
        assert set(discoveries) <= set(builds) and set(discoveries.values()) <= {1}

    def test_q8_octic_searches_the_quaternion_chains(self, monkeypatch):
        # the unit lattice of Q8 is not reached here (_first_witness, which
        # builds it, is stubbed): the verdict hands _first_witness one chain
        # pattern per quaternion labeling
        K = nfield.nf_new(Q8_OCTIC)
        assert K.signature == (8, 0)
        assert _group_shape(list(nfield.nf_automorphisms(K))) == "Q8"
        searches = []
        monkeypatch.setattr(classify, "_first_witness", lambda *args: searches.append(args) or "found")
        assert classify_galois_small(Q8_OCTIC) == "found"
        ((_, candidates, _, bounds),) = searches
        assert bounds == (2, 3, None)
        patterns = [pattern for pattern, _ in candidates]
        assert len(set(patterns)) == len(patterns) == 24
        for pattern in patterns:
            assert sorted(pattern.order) == [(j,) for j in range(8)]
            assert pattern.one_position == 4
            ((places, rel),) = pattern.extras
            assert len(set(places)) == 4 and rel == ">"

    def test_cyclic_sextic_has_certified_wanderer(self):
        v = classify_galois_small(C6_SEXTIC)
        _assert_wandering_unit(v, 6)
        cert = v.certificate
        assert isinstance(cert, CitedGrowth) and cert.tag == "pattern-recurrence"
        # one verified fact per exact iteration of the product recurrence
        assert len(cert.facts) == 3
        _assert_measure_grows(v.witness)

    def test_s3_sextic_has_certified_wanderer(self):
        # the S3 setups of the product recurrence
        assert signature(S3_SEXTIC) == (6, 0)
        v = classify_galois_small(S3_SEXTIC)
        _assert_wandering_unit(v, 6)
        cert = v.certificate
        assert isinstance(cert, CitedGrowth) and cert.tag == "pattern-recurrence"
        assert len(cert.facts) == 3
        _assert_measure_grows(v.witness)

    def test_x6_plus_108_is_all_preperiodic(self):
        # totally imaginary Galois sextic
        assert isinstance(classify_galois_small(X6P108), AllPreperiodic)

    def test_c2cubed_octic_has_certified_wanderer(self):
        v = classify_galois_small(C2CUBED_OCTIC)
        _assert_wandering_unit(v, 8)
        _assert_exact_certificate(v)

    def test_c8_octic_has_certified_wanderer(self):
        # Q(zeta_17)^+, through its cyclic quartic subfield
        v = classify_galois_small(C8_OCTIC)
        _assert_wandering_unit(v, 8)
        assert v.certificate == PowerIdentity(k=3, l=1, n=2)
        _assert_exact_certificate(v)

    @pytest.mark.parametrize(
        "octic, shape, quartic, group",
        [
            (C8_OCTIC, "C8", "1,-1,-6,1,1", "C4"),
            # Q(zeta_40)^+, x^8 - 8x^6 + 19x^4 - 12x^2 + 1
            (P("1,0,-12,0,19,0,-8,0,1"), "C4xC2", "16,-96,76,-16,1", "C4"),
            # x^8 - 22x^6 + 115x^4 - 90x^2 + 9, the closure of x^4 - 5x^2 + 3
            (P("9,0,-90,0,115,0,-22,0,1"), "D4_8", "37,48,-34,0,1", "D4"),
        ],
        ids=["C8", "C4xC2", "D4_8"],
    )
    def test_octic_quartic_subfield(self, octic, shape, quartic, group):
        # one involution rule for the three octic groups that reduce to a
        # quartic subfield: cyclic for C8 and C4xC2, a D4 quartic for D4_8
        K = nfield.nf_new(octic)
        autos = _verified_automorphisms(K, nfield.nf_automorphisms(K), NotGalois)
        assert _group_shape(list(autos)) == shape
        q = classify._octic_quartic_subfield(K, autos)
        assert q == P(quartic)
        assert galois_group_small(q) == group

    def test_c3c3_nonic_witness_is_its_measure_root_in_the_field(self):
        # the witness up to gamma, checked inside K; gamma's algebraic
        # number isolates a degree-9 polynomial with 382-bit coefficients
        K = nfield.nf_new(C3C3_NONIC)
        autos = nfield.nf_automorphisms(K)
        gamma, best = _subfield_product(K, autos, _independent_subgroups(autos, 2))
        start = time.perf_counter()
        assert nfield.fe_to_algnum(K, gamma, best).degree == 9
        assert time.perf_counter() - start < 1
        logs = nfield._place_logs(K, gamma)

        def proved(j, rel, i=None):
            other = (lambda prec: (0, 0)) if i is None else (lambda prec: logs[prec](i))
            return nfield._on_ladder(lambda prec: nfield._decide(logs[prec](j), rel, other(prec)))

        outside = [j for j in range(9) if proved(j, ">")]
        assert len(outside) == 5 and best in outside
        assert all(proved(j, "<") for j in range(9) if j not in outside)
        assert all(proved(best, ">", i) for i in range(9) if i != best)
        # M(gamma) = gamma^2: the outside conjugates multiply to -gamma^2 in
        # K; at the dominant place an odd number of them is negative, and the
        # absolute value of the product there is the measure
        image = {p[best]: g for p, g in autos.items()}
        prod = nfield.fe_rational(K, 1)
        for j in outside:
            prod = nfield.fe_mul(K, prod, nfield.nf_apply(K, image[j], gamma))
        assert prod == nfield.fe_neg(K, nfield.fe_mul(K, gamma, gamma))

    def test_sextic_neither_cm_nor_galois_is_unsupported(self):
        # x^6 - x - 1 has a real place, so it is not CM, and it is not Galois
        assert classify_galois_small(P("-1,-1,0,0,0,0,1")) == Unsupported(
            reason="degree-6 field is neither CM nor Galois; no proven verdict applies"
        )

    @pytest.mark.parametrize("p", [P("1,0,0,0,0,0,0,0,1"), P("1,-1,0,1,-1,1,0,-1,1")], ids=["zeta16", "zeta15"])
    def test_totally_imaginary_galois_octic_is_unsupported(self, p):
        # x^8 + 1 and the 15th cyclotomic polynomial: Galois octics with no
        # real place, which reduce to quartic subfields this table leaves open
        assert classify_galois_small(p) == Unsupported(
            reason="totally imaginary Galois octic: the verdict reduces to quartic subfields and is not decided here"
        )

    def test_octic_not_galois_names_the_primes(self):
        # x^8 - x - 1: outside degree 6 a field that is not Galois raises
        with pytest.raises(NotGalois, match="linear factors mod"):
            classify_galois_small(P("-1,-1,0,0,0,0,0,0,1"))

    @pytest.mark.parametrize(
        "verdict, p",
        [
            (classify.classify_cyclic, C4_REAL),
            (classify_galois_small, S5_QUINTIC),
            (classify_quartic, S5_QUINTIC),
            (classify_quintic, C4_REAL),
        ],
        ids=["cyclic-quartic", "galois-small-quintic", "quartic-quintic", "quintic-quartic"],
    )
    def test_wrong_degree_is_unsupported(self, verdict, p):
        with pytest.raises(UnsupportedDegree):
            verdict(p)

    def test_c3c3_nonic_has_certified_wanderer(self):
        # the witness's measure would need a degree-126 product resolvent;
        # in exponent space over the nine keys M(gamma) = gamma^2 is one
        # exact relation in K
        start = time.perf_counter()
        v = classify_galois_small(C3C3_NONIC)
        assert time.perf_counter() - start < 30
        assert isinstance(v, HasWanderer)
        assert v.certificate == TorsionFreePower(k=1, n=2)
        assert v.witness.degree == 9


def _cyclic_product(*orders):
    """C_m1 x C_m2 x ... as (identity, generators, product) on tuples."""
    gens = [tuple(int(i == k) for i in range(len(orders))) for k in range(len(orders))]
    return (0,) * len(orders), gens, lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, orders))


def _permutations(degree, *gens):
    """The group the permutations gens of range(degree) generate."""
    return tuple(range(degree)), gens, lambda a, b: tuple(a[i] for i in b)


def _hamilton(a, b):
    a1, b1, c1, d1 = a
    a2, b2, c2, d2 = b
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


class TestGroupShape:
    """_group_shape on the right regular representation of every group of
    order 6, 8 and 9, with no field: h -> h g on an indexing of the group is
    the key of g, so the key of g h is _compose_keys of theirs."""

    GROUPS = {
        "C6": _cyclic_product(6),
        "D3_6": _permutations(3, (1, 0, 2), (1, 2, 0)),
        "C8": _cyclic_product(8),
        "C4xC2": _cyclic_product(4, 2),
        "C2cubed": _cyclic_product(2, 2, 2),
        "Q8": ((1, 0, 0, 0), [(0, 1, 0, 0), (0, 0, 1, 0)], _hamilton),  # i, j
        "D4_8": _permutations(4, (1, 2, 3, 0), (0, 3, 2, 1)),
        "C9": _cyclic_product(9),
        "C3xC3": _cyclic_product(3, 3),
    }

    @pytest.mark.parametrize("shape", sorted(GROUPS))
    def test_regular_representation(self, shape):
        ident, gens, mul = self.GROUPS[shape]
        elems = [ident]
        for x in elems:  # closure under right multiplication by generators
            for g in gens:
                if mul(x, g) not in elems:
                    elems.append(mul(x, g))
        index = {x: i for i, x in enumerate(elems)}
        keys = [tuple(index[mul(h, g)] for h in elems) for g in elems]
        for (g, p), (h, q) in itertools.product(zip(elems, keys), repeat=2):
            assert nfield._compose_keys(p, q) == keys[index[mul(g, h)]]
        assert _group_shape(keys) == shape


class TestUndecidedAutomorphisms:
    """With relation finding switched off, a count below the Frobenius bound
    raises instead of reading as "not CM" or "not Galois"."""

    @pytest.fixture(autouse=True)
    def no_relations(self, monkeypatch):
        monkeypatch.setattr(nfield, "_short_relations", lambda rows, n: iter(()))

    def test_classify_cm_raises(self):
        with pytest.raises(AutomorphismsUndecided) as info:
            classify_cm(CM6)
        assert (info.value.lower, info.value.upper) == (1, 2)

    def test_classify_galois_small_raises(self):
        with pytest.raises(AutomorphismsUndecided) as info:
            classify_galois_small(C6_SEXTIC)
        assert (info.value.lower, info.value.upper) == (1, 6)
