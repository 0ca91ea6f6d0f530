"""Number field arithmetic, automorphisms, units, and pattern search."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mahlerdyn import nfield
from mahlerdyn.classify import classify_cm, classify_cyclic, galois_group_small
from mahlerdyn.errors import (
    AutomorphismsUndecided,
    NotCyclic,
    NotFound,
    NotIrreducible,
    NotMonic,
    RankDeficient,
)
from mahlerdyn.intpoly import discriminant, from_text, lll_reduce
from mahlerdyn.roots import refine
from mahlerdyn.algnum import (
    an_compare,
    an_equal,
    an_from_rational,
    an_mul,
    an_rational_value,
    an_sign,
)
from mahlerdyn.mahler import mahler_measure
from mahlerdyn.nfield import (
    ConjugatePattern,
    _aut_upper_bound,
    _relation_lattice,
    _short_relations,
    fe_add,
    fe_inv,
    fe_is_zero,
    fe_mul,
    fe_neg,
    fe_pow,
    fe_rational,
    fe_sub,
    fe_theta,
    fe_to_algnum,
    nf_apply,
    nf_automorphisms,
    nf_compose,
    nf_element,
    nf_embed,
    nf_embedding_permutation,
    nf_new,
    nf_norm,
    nf_pattern_search,
    nf_unit_sublattice,
)

P = from_text

SQRT2_POLY = P("-2,0,1")
C4_POLY = P("2,0,-4,0,1")  # totally real cyclic quartic
C5_POLY = P("1,3,-3,-4,1,1")  # minimal polynomial of 2cos(2pi/11)
X5M2 = P("-2,0,0,0,0,1")
CM6 = P("1,0,8,0,6,0,1")  # x^6 + 6x^4 + 8x^2 + 1, a CM sextic
S5_QUINTIC = P("-1,-1,0,0,0,1")  # x^5 - x - 1
D5_QUINTIC = P("12,-5,0,0,0,1")  # x^5 - 5x + 12
C2CUBED_OCTIC = P("576,0,-960,0,352,0,-40,0,1")  # Q(sqrt 2, sqrt 3, sqrt 5)

ONE = an_from_rational(1)


def _abs_sq(K, x, j):
    # |x|^2 at real embedding j, computed as the exact field square
    return fe_to_algnum(K, fe_mul(K, x, x), j)


def _above_one(a):
    return an_compare(a, ONE) == 1


class TestConstruction:
    def test_signatures(self):
        assert nf_new(SQRT2_POLY).signature == (2, 0)
        assert nf_new(P("1,-1,0,0,1")).signature == (0, 2)
        assert nf_new(X5M2).signature == (1, 2)

    def test_rejects_non_monic(self):
        with pytest.raises(NotMonic):
            nf_new(P("-1,0,2"))

    def test_rejects_reducible(self):
        with pytest.raises(NotIrreducible):
            nf_new(P("-1,0,1"))

    def test_embeddings_count(self):
        K = nf_new(C4_POLY)
        assert len(K.embeddings) == 4
        assert all(b.center[1] == 0 for b in K.embeddings)


class TestElementArithmetic:
    def test_mul_inv_roundtrip(self):
        K = nf_new(C4_POLY)
        x = nf_element(K, [Fraction(1, 2), 3, 0, -1])
        assert fe_mul(K, x, fe_inv(K, x)) == fe_rational(K, 1)
        rng = random.Random(5)
        for poly in (SQRT2_POLY, C4_POLY, C5_POLY, X5M2):
            K = nf_new(poly)
            for _ in range(8):
                coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(K.degree)]
                x = nf_element(K, coords)
                if fe_is_zero(x):
                    continue
                y = fe_inv(K, x)
                assert fe_mul(K, x, y) == fe_rational(K, 1)
                assert fe_inv(K, y) == x

    def test_theta_satisfies_defining(self):
        K = nf_new(C5_POLY)
        th = fe_theta(K)
        acc = fe_rational(K, 0)
        for c in reversed(K.defining.coeffs):
            acc = fe_add(K, fe_mul(K, acc, th), fe_rational(K, c))
        assert acc == fe_rational(K, 0)

    def test_pow_negative(self):
        K = nf_new(SQRT2_POLY)
        u = nf_element(K, [1, 1])
        assert fe_mul(K, fe_pow(K, u, 3), fe_pow(K, u, -3)) == fe_rational(K, 1)

    def test_reduction_mod_defining(self):
        K = nf_new(SQRT2_POLY)
        # theta^2 reduces to the rational 2
        assert nf_element(K, [0, 0, 1]) == fe_rational(K, 2)


class TestNorm:
    def test_quadratic_examples(self):
        K = nf_new(SQRT2_POLY)
        assert nf_norm(K, nf_element(K, [1, 1])) == -1
        assert nf_norm(K, fe_rational(K, 3)) == 9

    def test_theta_norm_is_signed_constant_term(self):
        K = nf_new(X5M2)
        assert nf_norm(K, fe_theta(K)) == 2

    def test_multiplicative(self):
        K = nf_new(C4_POLY)
        x = nf_element(K, [1, 2, 0, 1])
        y = nf_element(K, [0, -1, 1, 0])
        assert nf_norm(K, fe_mul(K, x, y)) == nf_norm(K, x) * nf_norm(K, y)

    def test_zero(self):
        K = nf_new(SQRT2_POLY)
        assert nf_norm(K, fe_rational(K, 0)) == 0


class TestEmbed:
    def test_sqrt2_value(self):
        K = nf_new(SQRT2_POLY)
        ball = nf_embed(K, fe_theta(K), 1, 80)
        assert ball.radius <= Fraction(1, 1 << 80)
        assert abs(ball.center[0] - Fraction(14142135623, 10**10)) < Fraction(1, 10**9)

    def test_theta_squared_in_x5m2(self):
        K = nf_new(X5M2)
        real_place = next(i for i, b in enumerate(K.embeddings) if b.center[1] == 0)
        ball = nf_embed(K, nf_element(K, [0, 0, 1]), real_place, 64)
        # 2^(2/5) = 1.31950...
        assert abs(ball.center[0] - Fraction(131950, 100000)) < Fraction(1, 10**4)

    def test_conjugate_places_mirror(self):
        K = nf_new(P("1,-1,0,0,1"))
        x = nf_element(K, [0, 1, 1, 0])
        balls = [nf_embed(K, x, i, 64) for i in range(4)]
        got = sorted((b.center[0], abs(b.center[1])) for b in balls)
        assert got[0] == got[1] and got[2] == got[3]


class TestAutomorphisms:
    def test_quadratic(self):
        K = nf_new(SQRT2_POLY)
        autos = nf_automorphisms(K)
        coords = {a.coords for a in autos}
        assert coords == {(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}

    def test_cyclic_quartic_orders(self):
        K = nf_new(C4_POLY)
        autos = nf_automorphisms(K)
        assert len(autos) == 4
        ident = fe_theta(K)
        orders = []
        for a in autos:
            cur, k = a, 1
            while cur != ident:
                cur = nf_compose(K, a, cur)
                k += 1
            orders.append(k)
        assert sorted(orders) == [1, 2, 4, 4]

    def test_non_galois_quintic(self):
        K = nf_new(X5M2)
        autos = nf_automorphisms(K)
        assert len(autos) == 1
        assert autos[0] == fe_theta(K)

    def test_images_are_roots(self):
        K = nf_new(C5_POLY)
        autos = nf_automorphisms(K)
        assert len(autos) == 5
        for g in autos:
            acc = fe_rational(K, 0)
            for c in reversed(K.defining.coeffs):
                acc = fe_add(K, fe_mul(K, acc, g), fe_rational(K, c))
            assert acc == fe_rational(K, 0)

    def test_apply_is_ring_homomorphism(self):
        K = nf_new(C4_POLY)
        g = next(a for a in nf_automorphisms(K) if a != fe_theta(K))
        x = nf_element(K, [1, 2, 3, 4])
        y = nf_element(K, [0, 1, -1, 2])
        assert nf_apply(K, g, fe_mul(K, x, y)) == fe_mul(
            K, nf_apply(K, g, x), nf_apply(K, g, y)
        )
        assert nf_apply(K, g, fe_add(K, x, y)) == fe_add(
            K, nf_apply(K, g, x), nf_apply(K, g, y)
        )

    def test_embedding_permutation_single_orbit(self):
        K = nf_new(C5_POLY)
        gen = next(a for a in nf_automorphisms(K) if a != fe_theta(K))
        pi = nf_embedding_permutation(K, gen)
        seen, cur = {0}, 0
        for _ in range(4):
            cur = pi[cur]
            seen.add(cur)
        assert seen == {0, 1, 2, 3, 4}

    def test_composition_matches_permutation_product(self):
        K = nf_new(C4_POLY)
        autos = nf_automorphisms(K)
        a, b = autos[1], autos[2]
        pa = nf_embedding_permutation(K, a)
        pb = nf_embedding_permutation(K, b)
        pc = nf_embedding_permutation(K, nf_compose(K, a, b))
        # sigma_a(sigma_b(x)) at embedding i reads x at pb[pa[i]]
        assert pc == tuple(pb[pa[i]] for i in range(4))


class TestAutomorphismBound:
    """The Frobenius upper bound, and the exact counts it makes possible."""

    @pytest.mark.parametrize(
        "text, bound",
        [
            ("1,1,0,0,1", 1),  # x^4 + x + 1, S4
            ("1,-1,0,0,1", 1),  # x^4 - x + 1, S4
            ("1,0,8,0,6,0,1", 2),  # CM6
            ("2,0,-4,0,1", 4),  # x^4 - 4x^2 + 2, C4
            ("1,0,-4,0,1", 4),  # x^4 - 4x^2 + 1, V4
            ("-1,-1,0,0,0,1", 1),  # x^5 - x - 1, S5
            ("12,-5,0,0,0,1", 1),  # x^5 - 5x + 12, D5
            ("1,3,-3,-4,1,1", 5),  # C5
            ("1,0,0,0,-12,0,0,0,1", 4),  # x^8 - 12x^4 + 1
            ("576,0,-960,0,352,0,-40,0,1", 8),  # C2^3
        ],
    )
    def test_bound_is_the_automorphism_count(self, text, bound):
        f = P(text)
        got, witnesses = _aut_upper_bound(f)
        assert got == bound
        # each witness is a good prime with its count of linear factors
        for p, count in witnesses:
            assert count % got == 0
            assert discriminant(f).numerator % p != 0

    def test_bound_of_one_needs_no_lll(self, monkeypatch):
        def no_lll(rows):
            raise AssertionError("LLL called")

        monkeypatch.setattr(nfield, "lll_reduce", no_lll)
        assert classify_cm(P("1,1,0,0,1")) is None
        assert galois_group_small(D5_QUINTIC) == "D5"
        K = nf_new(S5_QUINTIC)
        assert nf_automorphisms(K) == [fe_theta(K)]

    def test_count_below_bound_is_undecided(self, monkeypatch):
        monkeypatch.setattr(nfield, "_short_relations", lambda rows, n: iter(()))
        with pytest.raises(AutomorphismsUndecided) as info:
            nf_automorphisms(nf_new(CM6))
        assert (info.value.lower, info.value.upper) == (1, 2)

    def test_not_cyclic_names_the_primes(self):
        with pytest.raises(NotCyclic, match="2 linear factors mod 17"):
            classify_cyclic(S5_QUINTIC)

    def test_octic_group_found_and_closed(self):
        K = nf_new(C2CUBED_OCTIC)
        autos = nf_automorphisms(K)
        assert len({g.coords for g in autos}) == 8
        ident = fe_theta(K)
        for g in autos:
            assert nf_compose(K, g, g) == ident  # every element has order <= 2


def _gram(basis):
    return [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis]


def _gram_schmidt(basis):
    """Exact Gram-Schmidt from the Gram matrix: squared lengths |b*_i|^2 and
    coefficients mu_ij, with r_ij = <b_i, b*_j> = G_ij - sum_k mu_jk r_ik."""
    norms, mu = [], []
    for i, g in enumerate(_gram(basis)):
        r = []
        for j in range(i):
            r.append(g[j] - sum(mu[j][k] * r[k] for k in range(j)))
        row = [Fraction(x) / n for x, n in zip(r, norms)]
        norms.append(g[i] - sum(x * y for x, y in zip(row, r)))
        mu.append(row)
    return norms, mu


def _gram_det(basis):
    """Determinant of the Gram matrix by fraction-free (Bareiss) elimination."""
    a = _gram(basis)
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


class TestLLL:
    """The integral LLL kernel, checked exactly on entries of 2^128 and more."""

    def _knapsack(self, rows, cols, bits, seed):
        rng = random.Random(seed)
        big = [[rng.randrange(1 << bits, 1 << (bits + 64)) for _ in range(cols)]
               for _ in range(rows)]
        return [[int(i == k) for i in range(rows)] + big[k] for k in range(rows)]

    @pytest.mark.parametrize(
        "m, cols, bits, fed",
        [
            pytest.param(6, 2, 128, True, id="fed-6x2-128"),
            pytest.param(17, 1, 512, True, id="fed-17x1-512"),
            # m^2 > B: the integral kernel runs once, without feeding
            pytest.param(40, 1, 1024, False, id="direct-40x1-1024"),
        ],
    )
    def test_reduced_basis_of_large_lattice(self, m, cols, bits, fed):
        rows = self._knapsack(m, cols, bits, seed=20260814)
        assert min(abs(v) for r in rows for v in r[m:]) >= 1 << bits
        B = max(abs(v).bit_length() for r in rows for v in r[m:])
        assert (m * m <= B) == fed
        red = lll_reduce(rows)
        assert len(red) == len(rows)
        norms, mu = _gram_schmidt(red)
        assert all(n > 0 for n in norms)
        for k, row in enumerate(mu):
            # size-reduced: 2|lambda_kj| <= d_j, i.e. |mu_kj| <= 1/2
            assert all(2 * abs(v) <= 1 for v in row)
            if k:
                # Lovasz condition with delta = 3/4
                assert norms[k] >= (Fraction(3, 4) - row[k - 1] ** 2) * norms[k - 1]
        # the identity block holds each row's coefficients on the input rows,
        # so every output row is in the input lattice ...
        for r in red:
            combo = [sum(c * row[i] for c, row in zip(r[:m], rows)) for i in range(m + cols)]
            assert combo == r
        # ... and the equal Gram determinant makes the two lattices equal
        assert _gram_det(red) == _gram_det(rows)

    def test_dependent_rows_raise(self):
        with pytest.raises(RankDeficient):
            lll_reduce([[1, 2, 3], [2, 4, 6], [0, 0, 1]])

    def test_sqrt2_relation_lattice(self):
        K = nf_new(SQRT2_POLY)
        prec = 192
        eps = Fraction(1, 1 << (prec + 16))
        b0, b1 = (refine(b, K.defining, eps) for b in K.embeddings)
        rows = _relation_lattice(b0, b1, 2, prec)
        assert max(abs(v) for r in rows for v in r) >= 1 << 128
        # sqrt(2) + (-sqrt(2)) = 0 is the shortest relation
        assert lll_reduce(rows)[0][:3] in ([0, 1, 1], [0, -1, -1])
        assert [Fraction(0), Fraction(-1)] in list(_short_relations(rows, 2))


class TestUnitSublattice:
    def test_real_quadratic_rank_one(self):
        K = nf_new(SQRT2_POLY)
        lat = nf_unit_sublattice(K)
        assert len(lat.generators) == 1
        v = lat.log_matrix[0]
        assert v.weights == (1, 1)
        total_lo = sum(e[0] for e in v.entries)
        total_hi = sum(e[1] for e in v.entries)
        assert total_lo <= 0 <= total_hi

    def test_biquadratic_rank_three(self):
        K = nf_new(P("1,0,-10,0,1"))  # Q(sqrt 2, sqrt 3)
        lat = nf_unit_sublattice(K)
        assert len(lat.generators) == 3
        for g in lat.generators:
            assert abs(nf_norm(K, g)) == 1

    def test_cyclotomic_rank_one(self):
        K = nf_new(P("1,1,1,1,1"))
        lat = nf_unit_sublattice(K)
        assert len(lat.generators) == 1
        assert lat.log_matrix[0].weights == (2, 2)

    def test_x5m2_rank_two(self):
        K = nf_new(X5M2)
        lat = nf_unit_sublattice(K)
        assert len(lat.generators) == 2
        for g in lat.generators:
            assert abs(nf_norm(K, g)) == 1

    def test_log_vectors_respect_product_formula(self):
        K = nf_new(C4_POLY)
        lat = nf_unit_sublattice(K)
        for g, v in zip(lat.generators, lat.log_matrix):
            assert abs(nf_norm(K, g)) == 1
            lo = sum(e[0] for e in v.entries)
            hi = sum(e[1] for e in v.entries)
            assert lo <= 0 <= hi

    def test_degree_one_has_no_unit_rank(self):
        K = nf_new(P("1,1"))
        with pytest.raises(RankDeficient):
            nf_unit_sublattice(K)

    def test_failed_determinant_check_raises(self, monkeypatch):
        monkeypatch.setattr(nfield, "_interval_det_excludes_zero", lambda rows: False)
        monkeypatch.setattr(nfield, "_rank_certified_hard", lambda K, gens, r: False)
        with pytest.raises(RankDeficient):
            nf_unit_sublattice(nf_new(SQRT2_POLY))

    def test_failed_determinant_check_raises_under_optimize(self):
        # python -O strips asserts; the certificate must not be one
        code = (
            "from mahlerdyn import nfield\n"
            "from mahlerdyn.errors import RankDeficient\n"
            "from mahlerdyn.intpoly import from_text\n"
            "nfield._interval_det_excludes_zero = lambda rows: False\n"
            "nfield._rank_certified_hard = lambda K, gens, r: False\n"
            "try:\n"
            "    nfield.nf_unit_sublattice(nfield.nf_new(from_text('-2,0,1')))\n"
            "except RankDeficient:\n"
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


class TestPatternSearch:
    def test_real_quadratic_pisot_unit(self):
        K = nf_new(SQRT2_POLY)
        lat = nf_unit_sublattice(K)
        pat = ConjugatePattern(order=((1,), (0,)), one_position=1)
        u = nf_pattern_search(K, lat, pat)
        sq1 = _abs_sq(K, u, 1)
        sq0 = _abs_sq(K, u, 0)
        assert an_compare(sq1, sq0) == 1
        assert _above_one(sq1) and not _above_one(sq0)
        # exactly one conjugate outside the unit circle: the measure of the
        # unit is the absolute value of that conjugate
        m = mahler_measure(fe_to_algnum(K, u, 1))
        assert an_equal(an_mul(m, m), sq1)

    def test_impossible_pattern_not_found(self):
        K = nf_new(SQRT2_POLY)
        lat = nf_unit_sublattice(K)
        # both conjugates above 1 contradicts norm +-1
        pat = ConjugatePattern(order=((0, 1),), one_position=1)
        with pytest.raises(NotFound):
            nf_pattern_search(K, lat, pat, exponent_bound=3)

    def test_totally_real_cyclic_quartic(self):
        K = nf_new(C4_POLY)
        ident = fe_theta(K)
        gen = next(
            a
            for a in nf_automorphisms(K)
            if a != ident and nf_compose(K, a, a) != ident
        )
        pi = nf_embedding_permutation(K, gen)
        e = [0]
        for _ in range(3):
            e.append(pi[e[-1]])
        pat = ConjugatePattern(
            order=((e[0],), (e[1],), (e[2], e[3])),
            one_position=2,
            extras=(((e[0], e[3]), "!="),),
        )
        lat = nf_unit_sublattice(K)
        u = nf_pattern_search(K, lat, pat)
        # re-verify every constraint independently of the search
        sq = {j: _abs_sq(K, u, j) for j in range(4)}
        assert an_compare(sq[e[0]], sq[e[1]]) == 1
        assert an_compare(sq[e[1]], sq[e[2]]) == 1
        assert an_compare(sq[e[1]], sq[e[3]]) == 1
        assert _above_one(sq[e[0]]) and _above_one(sq[e[1]])
        assert not _above_one(sq[e[2]]) and not _above_one(sq[e[3]])
        assert an_compare(an_mul(sq[e[0]], sq[e[3]]), ONE) != 0


class TestCyclicQuinticDistribution:
    """Interleaved conjugate chains and their propagation under the measure.

    Writing x_k for the image of x under the k-th power of a fixed degree-5
    cyclic generator, a unit can satisfy the strict chain
    |x_0| > |x_1| > |x_-1| > |x_2| > |x_-2| (shape A) or its mirror
    |x_0| > |x_-1| > |x_1| > |x_-2| > |x_2| (shape B), with either 3 or 2
    conjugates outside the unit circle, the outside ones forming a prefix of
    the chain. For a unit in any of those four states the next measure stays
    among them with a forced shape: 3-outside keeps the shape, 2-outside
    flips it. Asserted here on exact conjugates through three successive
    measures, each cross-checked against the orbit engine.
    """

    SHAPE_POWERS = {"A": (0, 1, 4, 2, 3), "B": (0, 4, 1, 3, 2)}

    @staticmethod
    def _setup():
        K = nf_new(C5_POLY)
        gen = next(a for a in nf_automorphisms(K) if a != fe_theta(K))
        pi = nf_embedding_permutation(K, gen)
        e = [0]
        for _ in range(4):
            e.append(pi[e[-1]])
        return K, gen, e

    @classmethod
    def _classify_state(cls, K, x, e):
        """Exact (shape, outside-count) of x, or a failed assertion."""
        sq = {j: _abs_sq(K, x, j) for j in range(5)}
        shape = None
        for name, powers in cls.SHAPE_POWERS.items():
            chain = [e[k] for k in powers]
            if all(
                an_compare(sq[a], sq[b]) == 1 for a, b in zip(chain, chain[1:])
            ):
                shape = name
                break
        assert shape is not None
        chain = [e[k] for k in cls.SHAPE_POWERS[shape]]
        count = sum(1 for j in range(5) if _above_one(sq[j]))
        assert count in (2, 3)
        assert all(_above_one(sq[chain[t]]) for t in range(count))
        return shape, count

    @classmethod
    def _sigma_pow(cls, K, gen, x, k):
        for _ in range(k % 5):
            x = nf_apply(K, gen, x)
        return x

    def test_measure_propagates_chain(self):
        K, gen, e = self._setup()
        lat = nf_unit_sublattice(K)
        pat = ConjugatePattern(
            order=tuple((e[k],) for k in self.SHAPE_POWERS["A"]), one_position=3
        )
        alpha = nf_pattern_search(K, lat, pat)
        shape, count = self._classify_state(K, alpha, e)
        assert (shape, count) == ("A", 3)

        x, x_an = alpha, fe_to_algnum(K, alpha)
        for _ in range(3):
            powers = self.SHAPE_POWERS[shape]
            nxt = fe_rational(K, 1)
            for t in range(count):
                nxt = fe_mul(K, nxt, self._sigma_pow(K, gen, x, powers[t]))
            if an_sign(fe_to_algnum(K, nxt)) < 0:
                nxt = fe_neg(K, nxt)
            nxt_an = fe_to_algnum(K, nxt)
            # the product of the outside conjugates is the measure
            assert an_equal(nxt_an, mahler_measure(x_an))
            expected = "A" if (shape == "A") == (count == 3) else "B"
            shape, count = self._classify_state(K, nxt, e)
            assert shape == expected
            x, x_an = nxt, nxt_an


class TestFieldElementToAlgnum:
    def test_rational(self):
        K = nf_new(SQRT2_POLY)
        v = an_rational_value(fe_to_algnum(K, fe_rational(K, Fraction(5, 3))))
        assert v == Fraction(5, 3)

    def test_theta_roundtrip(self):
        K = nf_new(C5_POLY)
        z = fe_to_algnum(K, fe_theta(K))
        assert z.minpoly == C5_POLY

    def test_subfield_element_has_smaller_degree(self):
        K = nf_new(P("1,0,-10,0,1"))  # theta = sqrt 2 + sqrt 3
        th = fe_theta(K)
        # theta^2 - 5 = 2 sqrt 6 has degree 2
        x = fe_sub(K, fe_mul(K, th, th), fe_rational(K, 5))
        z = fe_to_algnum(K, x)
        assert z.degree == 2
        assert z.minpoly == P("-24,0,1")
