"""Field-level verdicts: regressions for the CM test, the C4 quartic and S5
quintic witnesses, the quintic resolvent behind galois_group_small, the
sextic and C2^3 octic verdicts, and the undecided automorphism count."""

import pytest

from mahlerdyn import nfield
from mahlerdyn.algnum import an_compare, an_from_rational
from mahlerdyn.classify import (
    AllPreperiodic,
    HasWanderer,
    _stable_cycles,
    _verified_automorphisms,
    classify_cm,
    classify_galois_small,
    classify_quartic,
    classify_quintic,
    galois_group_small,
)
from mahlerdyn.errors import AutomorphismsUndecided, NotGalois
from mahlerdyn.intpoly import from_text
from mahlerdyn.mahler import mahler_measure
from mahlerdyn.roots import signature

P = from_text

CM6 = P("1,0,8,0,6,0,1")  # x^6 + 6x^4 + 8x^2 + 1, a CM sextic
S4_IMAG = P("1,1,0,0,1")  # x^4 + x + 1, totally imaginary with group S4
C4_REAL = P("2,0,-4,0,1")  # x^4 - 4x^2 + 2, totally real cyclic quartic

S5_QUINTIC = P("-1,-1,0,0,0,1")  # x^5 - x - 1
F5_QUINTIC = P("-2,0,0,0,0,1")  # x^5 - 2
D5_QUINTIC = P("12,-5,0,0,0,1")  # x^5 - 5x + 12
C5_QUINTIC = P("1,3,-3,-4,1,1")  # x^5 + x^4 - 4x^3 - 3x^2 + 3x + 1
A5_QUINTIC = P("16,20,0,0,0,1")  # x^5 + 20x + 16

C6_SEXTIC = P("-1,3,6,-4,-5,1,1")  # x^6 + x^5 - 5x^4 - 4x^3 + 6x^2 + 3x - 1
X6P108 = P("108,0,0,0,0,0,1")  # x^6 + 108, Galois with group S3
C2CUBED_OCTIC = P("576,0,-960,0,352,0,-40,0,1")  # Q(sqrt 2, sqrt 3, sqrt 5)


def _assert_wandering_unit(v, degree):
    assert isinstance(v, HasWanderer)
    assert v.certificate is not None
    w = v.witness
    assert degree % w.degree == 0
    assert abs(w.minpoly.coeffs[0]) == 1 and w.minpoly.coeffs[-1] == 1
    assert an_compare(mahler_measure(w), an_from_rational(1)) == 1


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

    def test_not_galois_names_the_primes(self):
        # |Aut(CM6)| = 2: the Frobenius bound proves the field is not Galois
        with pytest.raises(NotGalois, match="linear factors mod"):
            _verified_automorphisms(nfield.nf_new(CM6))


class TestClassifyQuartic:
    def test_cyclic_quartic_has_certified_wanderer(self):
        v = classify_quartic(C4_REAL)
        assert isinstance(v, HasWanderer)
        assert v.certificate is not None
        w = v.witness
        # a unit of a totally real quartic field
        assert w.degree == 4
        assert abs(w.minpoly.coeffs[0]) == 1 and w.minpoly.coeffs[-1] == 1
        assert signature(w.minpoly) == (4, 0)
        _assert_measure_grows(w)


class TestClassifyQuintic:
    def test_s5_quintic_has_certified_wanderer(self):
        # M(w) has degree 10 and its measure a degree-120 subset resolvent,
        # past the direct-factor cap: this runs minpoly guessing (fed LLL)
        v = classify_quintic(S5_QUINTIC)
        assert isinstance(v, HasWanderer)
        assert v.certificate is not None
        w = v.witness
        # a unit of the quintic field
        assert w.degree == 5
        assert abs(w.minpoly.coeffs[0]) == 1 and w.minpoly.coeffs[-1] == 1
        _assert_measure_grows(w)


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
        assert _stable_cycles(F5_QUINTIC) == [(0, 1, 3, 4, 2), (0, 3, 2, 1, 4)]
        assert _stable_cycles(D5_QUINTIC) == [(0, 1, 4, 3, 2), (0, 3, 1, 2, 4)]
        assert _stable_cycles(C5_QUINTIC) == [(0, 1, 4, 2, 3), (0, 2, 1, 3, 4)]


class TestGaloisSmall:
    def test_cyclic_sextic_has_certified_wanderer(self):
        _assert_wandering_unit(classify_galois_small(C6_SEXTIC), 6)

    def test_x6_plus_108_is_all_preperiodic(self):
        # totally imaginary Galois sextic
        assert isinstance(classify_galois_small(X6P108), AllPreperiodic)

    def test_c2cubed_octic_has_certified_wanderer(self):
        _assert_wandering_unit(classify_galois_small(C2CUBED_OCTIC), 8)


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
