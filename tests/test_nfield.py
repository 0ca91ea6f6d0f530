"""Number field arithmetic, automorphisms, units, and pattern search."""

import functools
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from mahlerdyn import factor, nfield, roots
from mahlerdyn.classify import classify_cm, classify_cyclic, galois_group_small
from mahlerdyn.errors import (
    AutomorphismsUndecided,
    ExactCheckFailed,
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
    nf_element,
    nf_embed,
    nf_embedding_permutation,
    nf_new,
    nf_norm,
    nf_pattern_search,
    nf_unit_sublattice,
)
from oracles import fraction_interval_rank, fraction_log_sums, graeffe_is_cyclotomic

P = from_text

SQRT2_POLY = P("-2,0,1")
C4_POLY = P("2,0,-4,0,1")  # totally real cyclic quartic
C5_POLY = P("1,3,-3,-4,1,1")  # minimal polynomial of 2cos(2pi/11)
X5M2 = P("-2,0,0,0,0,1")
CM6 = P("1,0,8,0,6,0,1")  # x^6 + 6x^4 + 8x^2 + 1, a CM sextic
S5_QUINTIC = P("-1,-1,0,0,0,1")  # x^5 - x - 1
D5_QUINTIC = P("12,-5,0,0,0,1")  # x^5 - 5x + 12
D5_REAL = P("-1,3,4,-5,-1,1")  # x^5 - x^4 - 5x^3 + 4x^2 + 3x - 1, totally real
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

    def test_mul_matches_fraction_schoolbook(self):
        # the integer-numerator product equals the product taken and reduced
        # coordinate by coordinate in Fractions, including the types of the
        # coordinates
        def schoolbook(K, x, y):
            n, f = K.degree, K.defining
            prod = [Fraction(0)] * (2 * n - 1)
            for i, a in enumerate(x.coords):
                for j, b in enumerate(y.coords):
                    prod[i + j] += a * b
            for top in range(2 * n - 2, n - 1, -1):
                for k in range(n):
                    prod[top - n + k] -= prod[top] * f[k]
            return tuple(prod[:n])

        rng = random.Random(11)
        for poly in (SQRT2_POLY, C4_POLY, C5_POLY, X5M2, CM6, C2CUBED_OCTIC):
            K = nf_new(poly)
            for _ in range(12):
                cs = [Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 12))) for _ in range(2 * K.degree)]
                x, y = nf_element(K, cs[: K.degree]), nf_element(K, cs[K.degree :])
                got = fe_mul(K, x, y)
                assert got.coords == schoolbook(K, x, y)
                assert all(type(c) is Fraction for c in got.coords)
            long = [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(3 * K.degree)]
            want = nf_element(K, [0])
            for c in reversed(long):
                want = fe_add(K, fe_mul(K, want, fe_theta(K)), fe_rational(K, c))
            assert nf_element(K, long) == want

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
        coords = {a.coords for a in autos.values()}
        assert coords == {(Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1))}

    def test_cyclic_quartic_orders(self):
        K = nf_new(C4_POLY)
        autos = nf_automorphisms(K)
        assert len(autos) == 4
        ident = fe_theta(K)
        orders = []
        for a in autos.values():
            cur, k = a, 1
            while cur != ident:
                cur = nf_apply(K, a, cur)
                k += 1
            orders.append(k)
        assert sorted(orders) == [1, 2, 4, 4]

    def test_non_galois_quintic(self):
        K = nf_new(X5M2)
        autos = nf_automorphisms(K)
        assert len(autos) == 1
        assert list(autos.values())[0] == fe_theta(K)

    def test_images_are_roots(self):
        K = nf_new(C5_POLY)
        autos = nf_automorphisms(K)
        assert len(autos) == 5
        for g in autos.values():
            acc = fe_rational(K, 0)
            for c in reversed(K.defining.coeffs):
                acc = fe_add(K, fe_mul(K, acc, g), fe_rational(K, c))
            assert acc == fe_rational(K, 0)

    def test_apply_is_ring_homomorphism(self):
        K = nf_new(C4_POLY)
        g = next(a for a in nf_automorphisms(K).values() if a != fe_theta(K))
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
        gen = next(a for a in nf_automorphisms(K).values() if a != fe_theta(K))
        pi = nf_embedding_permutation(K, gen)
        seen, cur = {0}, 0
        for _ in range(4):
            cur = pi[cur]
            seen.add(cur)
        assert seen == {0, 1, 2, 3, 4}

    def test_composition_matches_permutation_product(self):
        K = nf_new(C4_POLY)
        autos = nf_automorphisms(K)
        a, b = list(autos.values())[1:3]
        pa = nf_embedding_permutation(K, a)
        pb = nf_embedding_permutation(K, b)
        pc = nf_embedding_permutation(K, nf_apply(K, a, b))
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
        # the walk skips exactly the primes dividing disc(f), and each count
        # is the number of roots of f mod p, counted by brute force
        disc = discriminant(f).numerator
        counts = dict(itertools.islice(factor._root_counts(f), nfield._AUT_PRIMES))
        primes = [q for q in range(11, max(counts) + 1) if all(q % r for r in range(2, q))]
        assert list(counts) == [q for q in primes if disc % q]
        for q, count in counts.items():
            assert count == sum(1 for x in range(q) if f(x) % q == 0), q
        # each witness is a good prime with its count of linear factors
        for p, count in witnesses:
            assert count % got == 0 and counts[p] == count

    def test_bound_of_one_needs_no_lll(self, monkeypatch):
        def no_lll(rows):
            raise AssertionError("LLL called")

        def no_pin(K, g):
            raise AssertionError("an embedding permutation was pinned")

        monkeypatch.setattr(nfield, "lll_reduce", no_lll)
        monkeypatch.setattr(nfield, "nf_embedding_permutation", no_pin)
        assert classify_cm(P("1,1,0,0,1")) is None
        assert galois_group_small(D5_QUINTIC) == "D5"
        K = nf_new(S5_QUINTIC)
        assert nf_automorphisms(K) == {tuple(range(5)): fe_theta(K)}

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
        assert len({g.coords for g in autos.values()}) == 8
        ident = fe_theta(K)
        for g in autos.values():
            assert nf_apply(K, g, g) == ident  # every element has order <= 2


class TestAutomorphismTable:
    """nf_automorphisms keys each automorphism by its pinned embedding
    permutation; a composed key must be the pin of its element."""

    FIELDS = {
        "C4": "2,0,-4,0,1",
        "V4": "1,0,-4,0,1",
        "C5": "1,3,-3,-4,1,1",
        "C6": "-1,3,6,-4,-5,1,1",
        "X6P108": "108,0,0,0,0,0,1",
        "C2cubed": "576,0,-960,0,352,0,-40,0,1",
        "C3xC3": "-1,-15,-51,-15,81,33,-32,-12,3,1",
        "CM6": "1,0,8,0,6,0,1",  # not Galois: conjugation and the identity
    }

    @pytest.fixture(params=sorted(FIELDS), scope="class")
    def table(self, request):
        K = nf_new(P(self.FIELDS[request.param]))
        return K, nf_automorphisms(K)

    def test_keys_are_the_pins(self, table):
        K, autos = table
        assert autos[tuple(range(K.degree))] == fe_theta(K)
        for key, g in autos.items():
            assert nf_embedding_permutation(K, g) == key

    def test_composed_keys_are_the_pins_of_compositions(self, table):
        K, autos = table
        for p, q in itertools.product(autos, repeat=2):
            composed = tuple(q[i] for i in p)
            assert composed in autos
            assert nf_embedding_permutation(K, nf_apply(K, autos[p], autos[q])) == composed

    def test_composed_key_off_its_pin_raises(self, monkeypatch):
        # every derived element (made by composition, not by LLL) is pinned
        # with two entries of its key swapped
        guessed, pin, guess = [], nfield.nf_embedding_permutation, nfield._root_in_field

        def root_in_field(*args):
            guessed.append(guess(*args))
            return guessed[-1]

        def swapped(K, g):
            key = list(pin(K, g))
            if g not in guessed:
                key[0], key[1] = key[1], key[0]
            return tuple(key)

        monkeypatch.setattr(nfield, "_root_in_field", root_in_field)
        monkeypatch.setattr(nfield, "nf_embedding_permutation", swapped)
        with pytest.raises(ExactCheckFailed, match="composed"):
            nf_automorphisms(nf_new(C5_POLY))
        assert len(guessed) == 1  # one generator by LLL, the first power derived

    def test_composed_key_off_its_pin_raises_under_optimize(self):
        code = (
            "from mahlerdyn import nfield\n"
            "from mahlerdyn.errors import ExactCheckFailed\n"
            "from mahlerdyn.intpoly import from_text\n"
            "guessed, pin, guess = [], nfield.nf_embedding_permutation, nfield._root_in_field\n"
            "def root_in_field(*args):\n"
            "    guessed.append(guess(*args))\n"
            "    return guessed[-1]\n"
            "def swapped(K, g):\n"
            "    key = list(pin(K, g))\n"
            "    if g not in guessed:\n"
            "        key[0], key[1] = key[1], key[0]\n"
            "    return tuple(key)\n"
            "nfield._root_in_field = root_in_field\n"
            "nfield.nf_embedding_permutation = swapped\n"
            "try:\n"
            "    nfield.nf_automorphisms(nfield.nf_new(from_text('1,3,-3,-4,1,1')))\n"
            "except ExactCheckFailed:\n"
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
            timeout=300,
        )
        assert out.stdout.strip() == "raised"


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
        v = _log_row(K, lat.logs[0])
        assert len(v) == 2  # one interval per embedding
        total_lo = sum(e[0] for e in v)
        total_hi = sum(e[1] for e in v)
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
        v = _log_row(K, lat.logs[0])
        pairs = nfield._conjugate_pairs(K)
        assert all(v[j] == v[pairs[j]] for j in range(4))  # conjugates share one
        assert sum(e[0] for e in v) <= 0 <= sum(e[1] for e in v)

    def test_x5m2_rank_two(self):
        K = nf_new(X5M2)
        lat = nf_unit_sublattice(K)
        assert len(lat.generators) == 2
        for g in lat.generators:
            assert abs(nf_norm(K, g)) == 1

    def test_log_vectors_respect_product_formula(self):
        K = nf_new(C4_POLY)
        lat = nf_unit_sublattice(K)
        for g, v in zip(lat.generators, (_log_row(K, log) for log in lat.logs)):
            assert abs(nf_norm(K, g)) == 1
            lo = sum(e[0] for e in v)
            hi = sum(e[1] for e in v)
            assert lo <= 0 <= hi

    def test_degree_one_has_no_unit_rank(self):
        K = nf_new(P("1,1"))
        with pytest.raises(RankDeficient):
            nf_unit_sublattice(K)

    def test_failed_determinant_check_raises(self, monkeypatch):
        monkeypatch.setattr(nfield, "_square_minor_certified", lambda logs, cols: False)
        with pytest.raises(RankDeficient):
            nf_unit_sublattice(nf_new(SQRT2_POLY))

    def test_failed_determinant_check_raises_under_optimize(self):
        # python -O strips asserts; the certificate must not be one
        code = (
            "from mahlerdyn import nfield\n"
            "from mahlerdyn.errors import RankDeficient\n"
            "from mahlerdyn.intpoly import from_text\n"
            "nfield._square_minor_certified = lambda logs, cols: False\n"
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
            timeout=300,
        )
        assert out.stdout.strip() == "raised"


def _log_row(K, log):
    """The intervals of one _place_logs on rung 0 of _LAYOUT_PREC, one per
    embedding."""
    return [log[nfield._LAYOUT_PREC[0]](j) for j in range(K.degree)]


class TestSupBand:
    """_sup_band walks the vectors with prev < sup-norm <= h in the order of
    the filtered itertools.product it replaces."""

    @staticmethod
    def _filtered(n, prev, h):
        return [
            v
            for v in itertools.product(range(-h, h + 1), repeat=n)
            if prev < max((abs(c) for c in v), default=0) <= h
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_filtered_product(self, n):
        for h in range(4):
            for prev in range(-1, h):
                assert list(nfield._sup_band(n, prev, h)) == self._filtered(n, prev, h)

    def test_shell_zero_is_the_zero_vector(self):
        for n in range(5):
            assert list(nfield._sup_band(n, -1, 0)) == [(0,) * n]

    def test_doubling_rungs_cover_the_cube_once(self):
        rungs = [(0, 1), (1, 2), (2, 4)]
        walked = [v for prev, h in rungs for v in nfield._sup_band(3, prev, h)]
        assert len(walked) == len(set(walked)) == 9**3 - 1


class TestLogIntervals:
    @pytest.mark.parametrize("prec", [96, 192, 384, 768, 1536, 3072, 6144])
    def test_width_follows_the_precision_asked_for(self, prec):
        # 4 * 2^-prec at the unit 2^-(prec + _GUARD), plus one unit of
        # outward rounding at each end
        K = nf_new(SQRT2_POLY)
        lo, hi = nfield._log_abs(K, nf_element(K, [1, 1]), 1, prec)
        assert type(lo) is int and type(hi) is int
        assert 0 < hi - lo <= (4 << roots._GUARD) + 2

    def test_ends_enclose_the_logs_with_the_pad(self):
        # at 96 bits the pad is (1 + floor|log|) 2^-100, 2^28 units here;
        # mpmath's 120-bit error is under 2^10 units
        unit = 96 + roots._GUARD
        lo, hi = nfield._log_interval(Fraction(3, 7), Fraction(5, 2), 96)
        with mp.workprec(400):
            llo, lhi = mp.ldexp(mp.log(mp.mpf(3) / 7), unit), mp.ldexp(mp.log(mp.mpf(5) / 2), unit)
            assert lo <= llo - (1 << 28) + (1 << 10) and lhi + (1 << 28) - (1 << 10) <= hi
            assert (hi - lo) - (lhi - llo) < (2 << 28) + (1 << 10)

    def test_a_later_rung_reuses_the_climb(self, monkeypatch):
        # one conjugate of (sqrt 2 - 1)^200 is below 2^-254: the 96-bit rung
        # climbs to 384 bits, and the 384-bit rung reuses that interval
        K = nf_new(SQRT2_POLY)
        u = fe_pow(K, nf_element(K, [-1, 1]), 200)
        calls = []
        log_abs = nfield._log_abs

        def counted(K, x, j, prec):
            calls.append((j, prec))
            return log_abs(K, x, j, prec)

        monkeypatch.setattr(nfield, "_log_abs", counted)
        logs = nfield._place_logs(K, u)
        for prec in (96, 384, 1536):
            for j in range(2):
                logs[prec](j)
        per_place = sorted([p for i, p in calls if i == j] for j in range(2))
        assert per_place == [[96, 192, 384, 1536], [96, 384, 1536]]

    @pytest.mark.parametrize(
        "poly, coords, power",
        [(SQRT2_POLY, [-1, 1], 200), (S5_QUINTIC, [0, 1], 7), (P("1,1,1,1,1"), [1, 1], 3)],
        ids=["sqrt2", "x5-x-1", "zeta5"],
    )
    def test_place_logs_are_integer_intervals(self, poly, coords, power):
        # each rung's interval is a pair of ints at the unit 2^-(prec + _GUARD),
        # the climb's interval shifted outward to that unit
        K = nf_new(poly)
        x = fe_pow(K, nf_element(K, coords), power)
        pairs = nfield._conjugate_pairs(K)
        logs = nfield._place_logs(K, x)
        for prec in nfield._LAYOUT_PREC:
            for j in range(K.degree):
                lo, hi = logs[prec](j)
                assert type(lo) is int and type(hi) is int
                assert logs[prec](pairs[j]) == (lo, hi)
                exact = nfield._log_abs(K, x, min(j, pairs[j]), prec)
                if exact is not None:  # else the climb went finer than prec
                    assert lo <= exact[0] <= exact[1] <= hi
                    assert hi - lo <= exact[1] - exact[0]


def _synthetic_rows(rank, prec, seed):
    """rank rows of log intervals over rank + 1 places, at the unit
    2^-(prec + _GUARD) and as wide as _place_logs makes them there. Each row
    sums to 0, as a unit's logs do, and one more row, the sum of the first
    two, is dependent: (rows, dependent row)."""
    rng = random.Random(seed)
    unit = prec + roots._GUARD
    exact = []
    for _ in range(rank):
        row = [Fraction(rng.randint(-4 << (unit + 20), 4 << (unit + 20)), 1 << (unit + 20)) for _ in range(rank)]
        exact.append(row + [-sum(row)])
    exact.append([a + b for a, b in zip(exact[0], exact[1])])

    def interval(v):
        pad = (1 + int(abs(v))) << roots._GUARD
        return math.floor(v * 2**unit) - pad, math.ceil(v * 2**unit) + pad

    rows = [[interval(v) for v in row] for row in exact]
    return rows[:-1], rows[-1]


class TestIntervalRank:
    # every field whose unit lattice the Tier-1 tests build, classify's
    # subfields included, by its defining polynomial
    @pytest.mark.parametrize(
        "text",
        [
            "-2,0,1", "-32,0,1", "-48,0,1", "-80,0,1", "-27,-18,3,1", "1,-24,3,1",
            "-1,-1,0,0,1", "1,0,-10,0,1", "1,1,1,1,1", "2,0,-4,0,1", "3,0,-5,0,1",
            "-1,-1,0,0,0,1", "-2,0,0,0,0,1", "-1,3,4,-5,-1,1", "1,3,-3,-4,1,1",
            "1,0,-1,2,-2,1", "-1,3,6,-4,-5,1,1",
        ],
    )
    def test_integer_rows_rank_as_fraction_rows(self, text):
        K = nf_new(P(text))
        lat = nf_unit_sublattice(K)
        pairs = nfield._conjugate_pairs(K)
        cols = [j for j in range(K.degree) if j <= pairs[j]]
        for prec in nfield._LAYOUT_PREC[:3]:
            for places in (cols, cols[: len(lat.generators)]):
                rows = nfield._log_rows(lat.logs, places, prec)
                for k in range(1, len(rows) + 1):
                    assert nfield._interval_rank(rows[:k]) == fraction_interval_rank(rows[:k])

    @pytest.mark.parametrize("rank", [7, 8])
    @pytest.mark.parametrize("rung", [0, 1])
    def test_high_rank_rows_rank_as_fraction_rows(self, rank, rung):
        # ranks no Tier-1 field reaches, on the rungs nf_unit_sublattice
        # tries; the dependent row's reduction is exactly 0, so no enclosure
        # of it gets a pivot
        rows, dependent = _synthetic_rows(rank, nfield._LAYOUT_PREC[rung], 100 * rank + rung)
        start = time.perf_counter()
        assert nfield._interval_rank(rows)
        if (rank, rung) == (8, 1):
            assert time.perf_counter() - start < 0.5
        assert fraction_interval_rank(rows)
        assert not nfield._interval_rank(rows + [dependent])

    def test_torsion_gets_no_pivot(self):
        # theta of Q(zeta5) has |sigma_j| = 1 at every place: its log row is
        # exactly 0, alone or after the lattice's rows
        K = nf_new(P("1,1,1,1,1"))
        lat = nf_unit_sublattice(K)
        log = nfield._place_logs(K, fe_theta(K))
        pairs = nfield._conjugate_pairs(K)
        cols = [j for j in range(K.degree) if j <= pairs[j]]
        for prec in nfield._LAYOUT_PREC[:2]:
            assert not nfield._interval_rank(nfield._log_rows([log], cols, prec))
            assert not nfield._interval_rank(nfield._log_rows([*lat.logs, log], cols, prec))

    @pytest.mark.parametrize("text", ["1,1,1,1,1", "1,1,1,1,1,1,1"], ids=["zeta5", "zeta7"])
    def test_cyclotomic_lattice_has_no_torsion_generator(self, text):
        K = nf_new(P(text))
        for g in nf_unit_sublattice(K).generators:
            assert not graeffe_is_cyclotomic(nfield._minpoly(K, g))


class TestPatternSearch:
    def test_layout_check_picks_the_first_match_lazily(self, monkeypatch):
        K = nf_new(SQRT2_POLY)
        u = nf_element(K, [1, 1])  # 1 + sqrt 2: |u| > 1 at place 1 only
        calls = []
        log_abs = nfield._log_abs

        def counted(K, x, j, prec):
            calls.append((prec, j))
            return log_abs(K, x, j, prec)

        monkeypatch.setattr(nfield, "_log_abs", counted)
        patterns = [
            ConjugatePattern(order=((0,), (1,)), one_position=1),
            ConjugatePattern(order=((0, 1),), one_position=1),
            ConjugatePattern(order=((1,), (0,)), one_position=1),
        ]
        assert _proven_layout(K, u, patterns) == 2
        assert sorted(calls) == [(96, 0), (96, 1)]
        calls.clear()
        assert _proven_layout(K, u, patterns[:2]) is None
        assert sorted(calls) == [(96, 0), (96, 1)]

    def test_tie_between_conjugates_refutes(self, monkeypatch):
        # |2+i| = |2-i|: no interval separates the two, so the order is
        # refuted once the top rung leaves it open
        K = nf_new(P("1,0,1"))
        u = nf_element(K, [2, 1])
        rungs = []
        log_abs = nfield._log_abs

        def counted(K, x, j, prec):
            rungs.append(prec)
            return log_abs(K, x, j, prec)

        monkeypatch.setattr(nfield, "_log_abs", counted)
        pattern = ConjugatePattern(order=((0,), (1,)), one_position=2)
        start = time.perf_counter()
        assert _proven_layout(K, u, [pattern]) is None
        assert time.perf_counter() - start < 1.0
        assert rungs == list(nfield._LAYOUT_PREC)

    def test_tie_in_a_product_refutes(self):
        # N(1 + sqrt 2) = -1: the product of the two moduli is exactly 1
        K = nf_new(SQRT2_POLY)
        u = nf_element(K, [1, 1])
        layout = ConjugatePattern(order=((1,), (0,)), one_position=1)
        tied = ConjugatePattern(order=((1,), (0,)), one_position=1, extras=(((0, 1), "!="),))
        assert _proven_layout(K, u, [layout]) == 0
        assert _proven_layout(K, u, [tied]) is None

    def test_large_unit_layout_is_proven_on_intervals(self):
        # conjugate moduli from e^-1457 to e^1005: the order is read on log
        # intervals, never on a characteristic polynomial of u
        K, lat, u, logs = _large_d5_unit()
        pattern = _layout_of_logs(logs)
        start = time.perf_counter()
        assert _proven_layout(K, u, [pattern]) == 0
        assert time.perf_counter() - start < 1.0

    def test_large_unit_layout_is_proven_from_its_exponents(self, monkeypatch):
        # the same layout from the generators' logs alone: u is never embedded
        K, lat, u, logs = _large_d5_unit()
        pattern = _layout_of_logs(logs)
        embeds = []
        embed = nfield.nf_embed
        monkeypatch.setattr(nfield, "nf_embed", lambda *args: embeds.append(args) or embed(*args))
        start = time.perf_counter()
        sums = nfield._product_logs(lat.logs, (400, -399, 0, 0))
        assert nfield._on_ladder(lambda prec: nfield._layout_status(sums[prec], pattern))
        assert time.perf_counter() - start < 0.05
        assert embeds == []
        rung = nfield._LAYOUT_PREC[0]
        with mp.workdps(3000):
            unit = mp.mpf(2) ** -(rung + roots._GUARD)
            for j, v in enumerate(logs):
                lo, hi = sums[rung](j)
                assert lo * unit <= v <= hi * unit

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
            for a in nf_automorphisms(K).values()
            if a != ident and nf_apply(K, a, a) != ident
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


    @pytest.mark.parametrize(
        "poly, bound, evecs",
        [(S5_QUINTIC, 3, [(1, -2), (2, 1)]), (D5_REAL, 2, [(1, -1, 0, 2), (0, 2, -1, 1)])],
        ids=["x5-x-1", "D5_REAL"],
    )
    def test_product_logs_decide_as_the_fraction_sums_do(self, poly, bound, evecs):
        # rung 0 of the search, on every exponent vector within the bound
        K = nf_new(poly)
        lat = nf_unit_sublattice(K)
        rung = nfield._LAYOUT_PREC[0]
        pairs = nfield._conjugate_pairs(K)
        # the generators' intervals at the rung, not climbed or shifted
        rows = [
            [nfield._log_abs(K, g, min(j, pairs[j]), rung) for j in range(K.degree)]
            for g in lat.generators
        ]
        patterns = [p for evec in evecs for p in _layouts_of(K, lat, evec)]
        left_open, total = [0] * len(patterns), 0
        for shell in range(bound + 1):
            for evec in nfield._sup_band(len(lat.generators), shell - 1, shell):
                total += 1
                sums = nfield._product_logs(lat.logs, evec)[rung]
                want = fraction_log_sums(rows, evec)
                for k, pattern in enumerate(patterns):
                    status = nfield._layout_status(sums, pattern)
                    assert status == nfield._layout_status(want, pattern)
                    left_open[k] += status is not False
                if any(evec):
                    own = nfield._place_logs(K, _lattice_unit(K, lat, evec))[rung]
                    for j in range(K.degree):
                        (lo, hi), (olo, ohi) = sums(j), own(j)
                        assert lo <= ohi and olo <= hi
        assert all(0 < n < total for n in left_open)

    @pytest.mark.parametrize(
        "poly, evec", [(S5_QUINTIC, (1, -2)), (D5_REAL, (-2, 1, 0, 2))], ids=["x5-x-1", "D5_REAL"]
    )
    def test_a_search_that_finds_nothing_builds_no_unit(self, poly, evec, monkeypatch):
        # the layout of a vector in shell 2 has no match in shells 0-1
        K = nf_new(poly)
        lat = nf_unit_sublattice(K)
        patterns = _layouts_of(K, lat, evec)
        calls = []
        pow_ = nfield.fe_pow
        monkeypatch.setattr(nfield, "fe_pow", lambda *args: calls.append(args) or pow_(*args))
        for pattern in patterns:
            with pytest.raises(NotFound):
                nf_pattern_search(K, lat, pattern, exponent_bound=1)
        assert calls == []
        for pattern in patterns:
            nf_pattern_search(K, lat, pattern, exponent_bound=2)
        assert calls


@functools.cache
def _large_d5_unit():
    """(K, lattice, u, logs) for u = g0^400 g1^-399 in D5_REAL, with logs[j]
    = log|sigma_j(u)| from mpmath at 3000 digits, the roots matched to K's
    embeddings: the oracle of the large-unit tests."""
    K = nf_new(D5_REAL)
    lat = nf_unit_sublattice(K)
    g0, g1 = lat.generators[:2]
    u = fe_mul(K, fe_pow(K, g0, 400), fe_pow(K, g1, -399))
    with mp.workdps(3000):
        roots = mp.polyroots(list(reversed(D5_REAL.coeffs)), maxsteps=200, extraprec=3000)
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(u.coords)]
        logs = []
        for box in K.embeddings:
            z = min(roots, key=lambda r: abs(r - float(box.center[0])))
            logs.append(mp.log(abs(mp.polyval(coeffs, z))))
    return K, lat, u, logs


def _proven_layout(K, u, patterns):
    """Index of the first pattern that u's own _place_logs prove on some rung
    of the ladder, or None: each place is computed when first needed."""
    logs = nfield._place_logs(K, u)
    holds = (nfield._on_ladder(lambda prec: nfield._layout_status(logs[prec], p)) for p in patterns)
    return next((i for i, ok in enumerate(holds) if ok), None)


def _layout_of_logs(logs):
    """The strict order of the real conjugates with these logs."""
    ranked = sorted(range(len(logs)), key=lambda j: -logs[j])
    return ConjugatePattern(
        order=tuple((j,) for j in ranked), one_position=sum(1 for v in logs if v > 0)
    )


def _lattice_unit(K, lat, evec):
    """prod g_i^evec[i] over the generators of lat."""
    u = fe_rational(K, 1)
    for g, e in zip(lat.generators, evec):
        if e:
            u = fe_mul(K, u, fe_pow(K, g, e))
    return u


def _layouts_of(K, lat, evec):
    """The layout of the unit with exponents evec, read off the lower ends of
    the generators' rung-0 log intervals, without and with a product
    constraint on its largest and smallest conjugates."""
    pairs = nfield._conjugate_pairs(K)
    rows = [_log_row(K, log) for log in lat.logs]
    logs = [sum(e * row[j][0] for row, e in zip(rows, evec)) for j in range(K.degree)]
    places = sorted({min(j, pairs[j]) for j in range(K.degree)}, key=lambda j: -logs[j])
    order = tuple(tuple(sorted({j, pairs[j]})) for j in places)
    top = sum(1 for j in places if logs[j] > 0)
    rel = ">" if logs[places[0]] + logs[places[-1]] > 0 else "<"
    return [
        ConjugatePattern(order=order, one_position=top),
        ConjugatePattern(order=order, one_position=top, extras=(((places[0], places[-1]), rel),)),
    ]


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
        gen = next(a for a in nf_automorphisms(K).values() if a != fe_theta(K))
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
