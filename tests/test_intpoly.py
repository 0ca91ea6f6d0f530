import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlerdyn import intpoly
from mahlerdyn.errors import (
    InvalidPoly,
    NotMonic,
    NotReciprocal,
    OddDegree,
    ZeroPolynomial,
)
from mahlerdyn.factor import cyclotomic_part, factor_z
from mahlerdyn.intpoly import (
    IntPoly,
    canonicalize,
    discriminant,
    div_z,
    from_text,
    gcd_z,
    monicize,
    power_map,
    product_resolvent,
    ratio_resolvent,
    reciprocal_test,
    resultant,
    squarefree_part,
    to_text,
    trace_poly,
    transform_resolvent,
    untrace_poly,
)

from oracles import graeffe_is_cyclotomic, sturm_real_roots, sylvester_resultant

P = from_text

LEHMER = P("1,1,0,-1,-1,-1,-1,-1,0,1,1")


def rand_poly(rng, max_deg=6, max_coeff=100, nonzero=True):
    while True:
        deg = rng.randint(0, max_deg)
        cs = [rng.randint(-max_coeff, max_coeff) for _ in range(deg + 1)]
        p = IntPoly(cs)
        if not nonzero or not p.is_zero:
            return p


class TestBasics:
    def test_text_round_trip(self):
        p = P("-2,0,1")
        assert p.coeffs == (-2, 0, 1)
        assert to_text(p) == "-2,0,1"
        assert p.degree == 2 and p.lc == 1

    def test_text_rejects_garbage(self):
        for bad in ["", "1,,2", "x", "1, 2, three"]:
            with pytest.raises(InvalidPoly):
                from_text(bad)

    def test_zero_handling(self):
        z = IntPoly([0, 0])
        assert z.is_zero and z.degree == -1 and to_text(z) == "0"

    def test_eval(self):
        p = P("-2,0,1")
        assert p(5) == 23
        assert p(Fraction(1, 2)) == Fraction(-7, 4)

    def test_mul_add(self):
        p, q = P("1,1"), P("-1,1")
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)


class TestCanonicalize:
    def test_content_removal(self):
        assert canonicalize(P("-8,0,4")) == P("-2,0,1")

    def test_sign_normalization(self):
        assert canonicalize(P("6,-3")) == P("-2,1")

    def test_zero(self):
        assert canonicalize(IntPoly(())).is_zero


class TestResultant:
    def test_sqrt2_sqrt3(self):
        assert resultant(P("-2,0,1"), P("-3,0,1")) == 1

    def test_evaluation_identity(self):
        # Res(x - a, q) = q(a)
        assert resultant(P("-5,1"), P("1,0,1")) == 26

    def test_shared_root(self):
        p = P("-2,0,1")
        assert resultant(p, p) == 0

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            resultant(IntPoly(()), P("1,1"))

    def test_against_sylvester_oracle(self):
        rng = random.Random(20260814)
        for _ in range(300):
            p = rand_poly(rng, max_deg=6, max_coeff=50)
            q = rand_poly(rng, max_deg=6, max_coeff=50)
            if p.degree < 0 or q.degree < 0:
                continue
            assert resultant(p, q) == sylvester_resultant(p, q)

    def test_swap_symmetry(self):
        rng = random.Random(99)
        for _ in range(200):
            p = rand_poly(rng, max_deg=6, max_coeff=100)
            q = rand_poly(rng, max_deg=6, max_coeff=100)
            s = (-1) ** (p.degree * q.degree) if p.degree > 0 and q.degree > 0 else 1
            assert resultant(p, q) == s * resultant(q, p)

    def test_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(100):
            p = rand_poly(rng, max_deg=4, max_coeff=30)
            q = rand_poly(rng, max_deg=3, max_coeff=30)
            r = rand_poly(rng, max_deg=3, max_coeff=30)
            if (p * q).degree <= 0:
                continue
            assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)


class TestGcd:
    def test_common_factor(self):
        p = P("-1,1") * P("1,0,1")
        q = P("-1,1") * P("2,1")
        assert gcd_z(p, q) == P("-1,1")

    def test_coprime(self):
        assert gcd_z(P("-2,0,1"), P("-3,0,1")).degree == 0

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5),
           st.lists(st.integers(-30, 30), min_size=1, max_size=5),
           st.lists(st.integers(-30, 30), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, a, b, c):
        p, q, r = IntPoly(a), IntPoly(b), IntPoly(c)
        if p.is_zero or q.is_zero or r.is_zero:
            return
        g = gcd_z(p * r, q * r)
        assert intpoly.div_z(p * r, g) is not None
        assert intpoly.div_z(q * r, g) is not None
        assert g.degree >= r.degree  # r divides the gcd

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=4),
           st.lists(st.integers(-30, 30), min_size=1, max_size=4),
           st.lists(st.integers(-9, 9), min_size=1, max_size=3),
           st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_sympy_in_normal_form(self, a, b, c, u, v):
        # negative leading coefficients and nontrivial contents u, v on both
        # sides: a nonconstant gcd is sympy's made primitive with a positive
        # leading coefficient; a constant one is the gcd of the contents
        sympy = pytest.importorskip("sympy")
        p, q = IntPoly(a) * IntPoly(c) * u, IntPoly(b) * IntPoly(c) * v
        if p.is_zero or q.is_zero:
            return
        x = sympy.Symbol("x")
        g = sympy.Poly(sympy.gcd(sympy.Poly(p.coeffs[::-1], x), sympy.Poly(q.coeffs[::-1], x)), x)
        want = IntPoly(int(k) for k in g.all_coeffs()[::-1])
        assert gcd_z(p, q) == (canonicalize(want) if want.degree > 0 else IntPoly((abs(want[0]),)))

    def test_constant_gcd_keeps_the_gcd_of_the_contents(self):
        assert gcd_z(IntPoly((2,)), IntPoly((4,))) == IntPoly((2,))
        assert gcd_z(P("2,2"), P("4,4")) == P("1,1")
        assert gcd_z(P("-6,0,-6"), P("4,-4")) == IntPoly((2,))

    @pytest.mark.parametrize("r, want", [("4", "4"), ("-4", "4"), ("4,8", "1,2"), ("-6,0,-6", "1,0,1")])
    def test_zero_operand_in_either_order(self, r, want):
        # a constant keeps its absolute value, as gcd_z(8, 4) keeps 4; a
        # nonconstant operand gives its primitive part
        zero = IntPoly(())
        assert gcd_z(zero, P(r)) == P(want)
        assert gcd_z(P(r), zero) == P(want)

    def test_gcd_of_two_zeros_is_zero(self):
        assert gcd_z(IntPoly(()), IntPoly(())).is_zero


class TestSquarefree:
    def test_repeated_factor(self):
        p = P("-1,1") * P("-1,1") * P("2,1")
        assert squarefree_part(p) == canonicalize(P("-1,1") * P("2,1"))

    def test_already_squarefree(self):
        assert squarefree_part(P("-2,0,1")) == P("-2,0,1")

    def test_cube(self):
        p = P("1,0,1") * P("1,0,1") * P("1,0,1")
        assert squarefree_part(p) == P("1,0,1")


class TestSturm:
    """The Sturm oracle that the tests take as their exact real-root count."""

    def test_sqrt2(self):
        assert sturm_real_roots(P("-2,0,1")) == 2

    def test_totally_imaginary_quartic(self):
        assert sturm_real_roots(P("1,-1,0,0,1")) == 0

    def test_cos_2pi_9_window(self):
        # minimal polynomial of 2cos(2pi/9); all three roots in (-2, 2)
        assert sturm_real_roots(P("1,-3,0,1"), Fraction(-2), Fraction(2)) == 3

    def test_half_lines(self):
        p = P("-2,0,1")
        assert sturm_real_roots(p, Fraction(0), None) == 1
        assert sturm_real_roots(p, None, Fraction(0)) == 1

    def test_endpoint_root(self):
        with pytest.raises(ValueError):
            sturm_real_roots(P("-1,0,1"), Fraction(1), Fraction(2))

    def test_not_squarefree(self):
        with pytest.raises(ValueError):
            sturm_real_roots(P("-1,1") * P("-1,1"))

    def test_random_against_numeric_oracle(self):
        from oracles import numeric_real_root_count

        rng = random.Random(4242)
        checked = 0
        while checked < 60:
            p = rand_poly(rng, max_deg=7, max_coeff=40)
            if p.degree < 1 or not intpoly.is_squarefree(p):
                continue
            assert sturm_real_roots(p) == numeric_real_root_count(p)
            checked += 1


class TestReciprocal:
    def test_lehmer_plus(self):
        assert reciprocal_test(LEHMER) == "Plus"

    def test_sqrt2_no(self):
        assert reciprocal_test(P("-2,0,1")) == "No"

    def test_x_minus_1_minus(self):
        assert reciprocal_test(P("-1,1")) == "Minus"


class TestTracePoly:
    def test_x2_plus_1(self):
        assert trace_poly(P("1,0,1")) == P("0,1")

    def test_x4_plus_1(self):
        assert trace_poly(P("1,0,0,0,1")) == P("-2,0,1")

    def test_lehmer_window_count(self):
        h = trace_poly(LEHMER)
        assert h.degree == 5
        # 8 unit-circle roots of the Salem number <=> 4 trace roots in (-2,2)
        assert sturm_real_roots(h, Fraction(-2), Fraction(2)) == 4

    def test_round_trip(self):
        for p in [P("1,0,1"), P("1,0,0,0,1"), LEHMER, P("1,2,3,2,1")]:
            assert untrace_poly(trace_poly(p)) == p

    def test_errors(self):
        with pytest.raises(NotReciprocal):
            trace_poly(P("-2,0,1"))
        with pytest.raises(OddDegree):
            trace_poly(P("1,1"))


class TestPowerMap:
    def test_identity(self):
        assert power_map(P("-1,-1,1"), 1) == P("-1,-1,1")

    def test_golden_square(self):
        assert power_map(P("-1,-1,1"), 2) == P("1,-3,1")

    def test_i_squared(self):
        # both roots of x^2+1 square to -1
        assert power_map(P("1,0,1"), 2) == P("1,2,1")

    def test_composition_on_torsion_free(self):
        # x^2 - x - 1: ratio of roots is not a root of unity
        p = P("-1,-1,1")
        assert power_map(p, 6) == power_map(power_map(p, 2), 3)
        assert power_map(p, 6) == power_map(power_map(p, 3), 2)

    def test_composition_squarefree_parts_agree(self):
        rng = random.Random(11)
        checked = 0
        while checked < 25:
            p = rand_poly(rng, max_deg=4, max_coeff=10)
            if p.degree < 1 or not intpoly.is_squarefree(p) or p[0] == 0:
                continue
            lhs = squarefree_part(power_map(p, 6))
            rhs = squarefree_part(power_map(power_map(p, 2), 3))
            assert lhs == rhs
            checked += 1

    def test_non_monic_normalization(self):
        # roots of 2x^2-1 are +-1/sqrt(2); squares are both 1/2
        assert power_map(P("-1,0,2"), 2) == P("-1,2") * P("-1,2")


def rand_root_poly(rng, max_deg, zero_root=False):
    """Nonconstant, leading coefficient in +-{1, 2, 3}; a root at 0 exactly
    when zero_root."""
    cs = [rng.randint(-9, 9) for _ in range(rng.randint(1, max_deg))]
    cs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    cs[0] = 0 if zero_root else cs[0] or rng.choice((-1, 1))
    return IntPoly(cs)


def assert_proportional(r, degree, definition):
    """r has the given degree and is a constant multiple of the polynomial
    whose value at each integer x0 is definition(x0), of degree <= degree;
    checked at degree + 2 nonzero points."""
    assert r.degree == degree
    pts = [s * k for k in range(1, degree + 3) for s in (1, -1)][: degree + 2]
    vals = [definition(x0) for x0 in pts]
    base = next(i for i, v in enumerate(vals) if v != 0)
    for x0, v in zip(pts, vals):
        assert r(x0) * vals[base] == r(pts[base]) * v


class TestResolvents:
    def test_product_sqrt2_sqrt3(self):
        r = product_resolvent(P("-2,0,1"), P("-3,0,1"))
        # vanishes on +-sqrt(6): x^4 - 12x^2 + 36... actually (x^2-6)^2
        assert intpoly.div_z(r, P("-6,0,1")) is not None

    def test_ratio_resolvent_unity(self):
        r = ratio_resolvent(P("-2,0,1"), P("-2,0,1"))
        # ratios are +-1
        assert r(Fraction(1)) == 0 and r(Fraction(-1)) == 0

    def test_transform_square(self):
        r = transform_resolvent(P("-2,0,1"), IntPoly((0, 0, 1)))
        # alpha^2 = 2 for both roots
        assert intpoly.div_z(r, P("-2,1")) is not None

    def test_transform_with_denominator(self):
        # (alpha+1)/2 over roots of x^2-2
        r = transform_resolvent(P("-2,0,1"), IntPoly((1, 1)), 2)
        # value (1+sqrt2)/2 satisfies 4x^2-4x-1
        assert intpoly.div_z(r, P("-1,-4,4")) is not None

    def test_transform_requires_monic(self):
        with pytest.raises(NotMonic):
            transform_resolvent(P("-1,0,2"), IntPoly((0, 1)))

    def test_product_with_rational_and_zero(self):
        # the products of 0 or of 2/3 with +-sqrt(2)
        assert product_resolvent(P("0,1"), P("-2,0,1")) == P("0,0,1")
        assert product_resolvent(P("-2,3"), P("-2,0,1")) == P("-8,0,9")

    def test_resultant_definitions(self):
        # each resolvent is proportional to the resultant that defines it, on
        # non-monic f and g, negative leading coefficients, a root of f at 0,
        # and g_num of any degree, constants included
        rng = random.Random(20261018)
        for i in range(30):
            f = rand_root_poly(rng, 4, zero_root=i % 3 == 0)
            g = rand_root_poly(rng, 3)
            m, k, n = f.degree, g.degree, rng.randint(2, 5)
            assert_proportional(
                power_map(f, n), m,
                lambda x0: resultant(f, IntPoly((x0,) + (0,) * (n - 1) + (-1,))),
            )
            # y^k g(x/y) keeps its y-degree only because g(0) != 0
            assert_proportional(
                product_resolvent(f, g), m * k,
                lambda x0: resultant(f, IntPoly([g[k - j] * x0 ** (k - j) for j in range(k + 1)])),
            )
            assert_proportional(
                ratio_resolvent(f, g), m * k,
                lambda x0: resultant(g, IntPoly([f[j] * x0**j for j in range(m + 1)])),
            )
            F = monicize(f)[0]
            h = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 4)])
            den = rng.choice((1, 2, -3, 6))
            assert_proportional(
                transform_resolvent(F, h, den), m,
                lambda x0: resultant(F, q) if (q := IntPoly((den * x0,)) - h) else 0,
            )


class TestCyclotomicPart:
    def test_x4_minus_1(self):
        assert cyclotomic_part(P("-1,0,0,0,1")) == P("-1,0,0,0,1")

    def test_golden_trivial(self):
        assert cyclotomic_part(P("-1,-1,1")) == IntPoly((1,))

    def test_mixed_product(self):
        p = P("1,1,1") * P("-3,0,1")
        assert cyclotomic_part(p) == P("1,1,1")

    def test_x2_plus_1(self):
        # regression: squaring i gives -1, which is not a root of x^2+1,
        # but x^2+1 is still cyclotomic
        assert cyclotomic_part(P("1,0,1")) == P("1,0,1")

    def test_all_cyclotomics_up_to_20(self):
        sympy = pytest.importorskip("sympy")

        x = sympy.Symbol("x")
        for n in range(1, 21):
            cs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
            p = IntPoly([int(c) for c in cs])
            assert cyclotomic_part(p) == p, f"Phi_{n}"

    def test_salem_not_cyclotomic(self):
        assert cyclotomic_part(LEHMER) == IntPoly((1,))

    def test_large_coefficient_exits_before_graeffe(self, monkeypatch):
        # |-3| > C(2, 1): the roots of x^2 - 3x + 1 cannot all lie on the
        # unit circle, so no Graeffe step is needed to say "not cyclotomic"
        def no_graeffe(p, n):
            raise AssertionError("Graeffe step taken")

        monkeypatch.setattr(intpoly, "power_map", no_graeffe)
        assert not intpoly._is_cyclotomic_irreducible(P("1,-3,1"))


def cyclotomic_polys(n_max):
    """Phi_1, ..., Phi_n_max by exact division: Phi_n = (x^n - 1) / prod
    Phi_d over the proper divisors d of n."""
    phis = {}
    for n in range(1, n_max + 1):
        q = IntPoly([-1] + [0] * (n - 1) + [1])
        for d in range(1, n):
            if n % d == 0:
                q = div_z(q, phis[d])
        phis[n] = q
    return phis


class TestCyclotomicTest:
    def test_every_cyclotomic_up_to_500(self):
        for n, phi in cyclotomic_polys(500).items():
            assert intpoly._is_cyclotomic_irreducible(phi), f"Phi_{n}"
            assert phi.degree == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    def test_agrees_with_iterated_graeffe(self):
        # distinct irreducible factors of seeded monic polynomials of degree
        # <= 12 with coefficients in [-3, 3]; about a third pass the
        # coefficient bound and reach a Graeffe step
        rng = random.Random(20261019)
        seen = {}
        while len(seen) < 3000:
            d = rng.randint(1, 12)
            p = IntPoly([rng.randint(-3, 3) for _ in range(d)] + [1])
            for q, _ in factor_z(p).factors:
                seen.setdefault(q, None)
        graeffe = sum(
            all(abs(c) <= math.comb(q.degree, k) for k, c in enumerate(q.coeffs)) for q in seen
        )
        assert graeffe >= 1000
        for q in seen:
            assert intpoly._is_cyclotomic_irreducible(q) == graeffe_is_cyclotomic(q), q

    def test_lehmer_takes_one_graeffe_step(self, monkeypatch):
        # tau's minpoly squares to an irreducible that is neither itself,
        # nor its reflection, nor a square: one power_map call decides it
        calls = []
        real_power_map = intpoly.power_map

        def spy(p, n):
            calls.append(p.degree)
            return real_power_map(p, n)

        monkeypatch.setattr(intpoly, "power_map", spy)
        assert not intpoly._is_cyclotomic_irreducible(LEHMER)
        assert calls == [10]

    def test_phi_of_multiples_of_four_halve_the_degree(self, monkeypatch):
        # Phi_48 -> Phi_24^2 -> Phi_12^2 -> ... -> Phi_3, which squaring fixes
        phis = cyclotomic_polys(48)
        calls = []
        real_power_map = intpoly.power_map

        def spy(p, n):
            calls.append(p)
            return real_power_map(p, n)

        monkeypatch.setattr(intpoly, "power_map", spy)
        assert intpoly._is_cyclotomic_irreducible(phis[48])
        assert calls == [phis[48], phis[24], phis[12], phis[6]]

    def test_monic_sqrt(self):
        h = P("5,-3,0,2,1")
        assert intpoly._monic_sqrt(h * h) == h
        assert intpoly._monic_sqrt(h * h + P("0,1")) is None
        assert intpoly._monic_sqrt(P("1,0,1")) is None  # x^2 + 1
        assert intpoly._monic_sqrt(P("1,1,1,1")) is None  # odd degree


class TestDiscriminant:
    def test_quadratic(self):
        assert discriminant(P("-2,0,1")) == 8

    def test_cubic(self):
        # disc(x^3 - 3x + 1) = 81: cyclic cubic
        assert discriminant(P("1,-3,0,1")) == 81


class TestMonicize:
    def test_scaling(self):
        g, c = intpoly.monicize(P("-1,0,2"))
        assert c == 2 and g.lc == 1
        # roots of g are 2*(+-1/sqrt2) = +-sqrt2
        assert g == P("-2,0,1")


def _rand_gf(rng, n, m, monic=False):
    out = [rng.randrange(m) for _ in range(n)]
    return out + [1] if monic else intpoly._gf_trim(out)


class TestGFKernels:
    """The GF(m)[x] kernels with delayed reduction against plain arithmetic."""

    PRIMES = (2, 3, 11, 13, 31)

    @staticmethod
    def _check_divmod(a, b, m):
        q, r = intpoly._gf_divmod(a, b, m)
        assert all(0 <= c < m for c in q + r)
        assert len(r) < len(b) and (not r or r[-1]) and (not q or q[-1])
        back = intpoly._gf_add(intpoly._gf_mul(q, b, m), r, m)
        assert back == intpoly._gf_trim([c % m for c in a]), (a, b, m)

    def test_divmod_reconstructs_its_input(self):
        rng = random.Random(4701)
        for _ in range(300):
            m = rng.choice(self.PRIMES + (121, 11**4, 13**8))  # Hensel moduli p^(2^k)
            b = _rand_gf(rng, rng.randint(0, 6), m, monic=True)
            if m in self.PRIMES and rng.random() < 0.5:
                b[-1] = rng.randrange(1, m)  # lc invertible modulo a prime
            # unreduced and negative coefficients, and inputs shorter than b
            a = [rng.randint(-5 * m, 5 * m) for _ in range(rng.randint(0, 12))]
            self._check_divmod(a, b, m)

    def test_divmod_reduces_a_short_input(self):
        # deg a < deg b (also with a zero on top): the remainder is a, reduced into [0, m)
        assert intpoly._gf_divmod([25, -3], [1, 2, 1], 7) == ([], [4, 4])
        assert intpoly._gf_divmod([14, 7, 0], [1, 2, 1], 7) == ([], [])

    def test_mulmod_is_mul_then_reduce(self):
        rng = random.Random(4702)
        for _ in range(300):
            m = rng.choice(self.PRIMES + (13**4,))
            n = rng.randint(1, 12)
            f = _rand_gf(rng, n, m, monic=True)
            a = _rand_gf(rng, rng.randint(0, n), m)
            b = _rand_gf(rng, rng.randint(0, n), m)
            want = intpoly._gf_divmod(intpoly._gf_mul(a, b, m), f, m)[1]
            assert intpoly._gf_mulmod(a, b, f, m) == want
            # a is b takes the squaring path
            assert intpoly._gf_mulmod(a, a, f, m) == intpoly._gf_divmod(intpoly._gf_mul(a, a, m), f, m)[1]

    @staticmethod
    def _pow_by_products(a, e, f, m):
        r = intpoly._gf_divmod([1], f, m)[1]
        for _ in range(e):
            r = intpoly._gf_divmod(intpoly._gf_mul(r, a, m), f, m)[1]
        return r

    def test_pow_mod_against_repeated_multiplication(self):
        rng = random.Random(4703)
        for p in (3, 11, 13):
            for d in (1, 2, 3):
                for trial in range(4):
                    f = _rand_gf(rng, rng.randint(2, 6), p, monic=True)
                    if trial % 2:
                        f = [c * rng.randrange(1, p) % p for c in f]  # not monic
                    for a in ([0, 1], _rand_gf(rng, len(f) - 1, p), [0, 0, 1]):
                        for e in {0, 1, 2, p, (p**d - 1) // 2}:
                            want = [1] if e == 0 else self._pow_by_products(a, e, f, p)
                            assert intpoly._gf_pow_mod(a, e, f, p) == want, (a, e, f, p)

    def test_pow_mod_of_x_modulo_a_linear_polynomial(self):
        # x mod (x - 3) is the constant 3, so the shift path does not apply
        assert intpoly._gf_pow_mod([0, 1], 4, [8, 1], 11) == [pow(3, 4, 11)]
