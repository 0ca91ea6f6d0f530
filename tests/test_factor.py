"""Factorization tests: round trips, determinism, and a sympy cross-check."""

import random

import pytest

from mahlerdyn import factor, intpoly
from mahlerdyn.errors import ZeroPolynomial
from mahlerdyn.factor import factor_z, is_irreducible
from mahlerdyn.intpoly import (
    IntPoly,
    _proved_squarefree,
    _squarefree_mod,
    _subset_product_poly,
    canonicalize,
    from_text,
)
from mahlerdyn.roots import circle_partition

P = from_text

LEHMER = P("1,1,0,-1,-1,-1,-1,-1,0,1,1")


def rand_poly(rng: random.Random, deg: int, bound: int = 9) -> IntPoly:
    coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
    coeffs.append(rng.choice([x for x in range(-bound, bound + 1) if x]))
    return IntPoly(coeffs)


class TestFactorZ:
    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            factor_z(IntPoly(()))

    def test_constant(self):
        f = factor_z(P("-6"))
        assert f.content == -6 and f.factors == ()

    def test_expand_reproduces_input(self):
        rng = random.Random(20260814)
        for _ in range(60):
            p = rand_poly(rng, rng.randint(1, 7))
            f = factor_z(p)
            assert f.expand() == p

    def test_built_products_recover_parts(self):
        rng = random.Random(7)
        for _ in range(40):
            parts = [rand_poly(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
            prod = IntPoly((1,))
            for q in parts:
                prod = prod * q
            f = factor_z(prod)
            assert f.expand() == prod
            # every reported factor is irreducible and canonical
            for g, m in f.factors:
                assert g == canonicalize(g)
                assert is_irreducible(g)
                assert m >= 1

    def test_multiplicities(self):
        p = P("-1,1") * P("-1,1") * P("-1,1") * P("1,0,1")
        f = factor_z(p)
        assert f.factors == ((P("-1,1"), 3), (P("1,0,1"), 1))

    def test_ordering_degree_then_lex(self):
        p = P("1,1") * P("-3,1") * P("1,0,1") * P("-2,0,1")
        f = factor_z(p)
        degs = [g.degree for g, _ in f.factors]
        assert degs == sorted(degs)
        for (a, _), (b, _) in zip(f.factors, f.factors[1:]):
            assert (a.degree, a.coeffs) < (b.degree, b.coeffs)

    def test_content_carries_sign(self):
        f = factor_z(P("4,0,-2"))  # -2(x^2 - 2)
        assert f.content == -2
        assert f.factors == ((P("-2,0,1"), 1),)

    def test_deterministic(self):
        p = P("1,0,0,0,0,0,0,0,0,0,0,0,1")  # x^12 + 1
        a = factor_z(p)
        b = factor_z(IntPoly(p.coeffs))
        assert a == b

    def test_known_splittings(self):
        # x^12 - 1 has the six cyclotomic factors of orders dividing 12
        f = factor_z(P("-1,0,0,0,0,0,0,0,0,0,0,0,1"))
        texts = sorted(",".join(str(c) for c in g.coeffs) for g, _ in f.factors)
        assert "1,1,1" in texts and "1,-1,1" in texts and "1,0,-1,0,1" in texts
        assert len(f.factors) == 6

    def test_swinnerton_dyer_style(self):
        # minpoly of sqrt2 + sqrt3: irreducible but splits into quadratics mod
        # every prime, forcing genuine recombination
        p = P("1,0,-10,0,1")
        f = factor_z(p)
        assert f.factors == ((p, 1),)

    def test_big_coefficients(self):
        a = P("-1267650600228229401496703205376,1")  # x - 2^100
        b = P("1,1267650600228229401496703205653,1")
        prod = a * b
        f = factor_z(prod)
        assert f.expand() == prod
        assert len(f.factors) == 2


class TestIsIrreducible:
    def test_basics(self):
        assert is_irreducible(P("-2,0,1"))
        assert is_irreducible(P("1,1"))
        assert is_irreducible(LEHMER)
        assert not is_irreducible(P("-1,0,1"))
        assert not is_irreducible(P("2"))
        assert not is_irreducible(IntPoly(()))

    def test_content_must_be_one(self):
        assert not is_irreducible(P("-4,0,2"))
        assert not is_irreducible(-P("-2,0,1"))

    def test_squares_rejected(self):
        assert not is_irreducible(P("1,2,1"))

    def test_cyclotomic_like(self):
        assert is_irreducible(P("1,1,1,1,1"))  # fifth cyclotomic
        assert is_irreducible(P("1,-1,0,1,-1,1,0,-1,1"))  # thirtieth

    def test_agrees_with_factor_z(self):
        rng = random.Random(99)
        for _ in range(50):
            p = rand_poly(rng, rng.randint(1, 6))
            f = factor_z(p)
            expect = len(f.factors) == 1 and f.factors[0][1] == 1 and f.content == 1
            assert is_irreducible(p) == expect


class TestDegreeSets:
    """Musser's degree set proves most irreducible inputs before any lifting."""

    def test_degree_set_proves_irreducible_without_lifting(self, monkeypatch):
        g = P("14,7,19,-11,-12,1")  # from measure-d6 at its default seed
        good = [q for q in (11, 13, 17, 19, 23) if _squarefree_mod(g, q) is not None][:3]
        assert len(good) == 3
        for q in good:  # irreducible mod none of the first three good primes
            ddf = factor._ddf(_squarefree_mod(g, q), q)
            assert [d for _, d in ddf] != [5]
        assert factor._degree_screen(g)[0] == 1 | 1 << 5

        def no_lift(*args):
            pytest.fail("an irreducible degree set reached Hensel lifting")

        monkeypatch.setattr(factor, "_hensel_multifactor", no_lift)
        factor._factor_cached.cache_clear()
        assert factor_z(g).factors == ((g, 1),)

    def test_swinnerton_dyer_octic_lifts_and_recombines(self, monkeypatch):
        # minpoly of sqrt2 + sqrt3 + sqrt5: only quadratics mod each screened
        # prime, so the degree set cannot rule out a factor of degree 2, 4 or 6
        g = P("576,0,-960,0,352,0,-40,0,1")
        assert factor._degree_screen(g)[0] == 0b101010101
        lifts = []
        real = factor._hensel_multifactor
        monkeypatch.setattr(factor, "_hensel_multifactor", lambda *a: lifts.append(a) or real(*a))
        factor._factor_cached.cache_clear()
        assert factor_z(g).factors == ((g, 1),)
        assert lifts
        assert is_irreducible(g)

    def test_product_of_two_quartics(self):
        a, b = P("1,0,-10,0,1"), P("1,0,0,0,1")
        factor._factor_cached.cache_clear()
        assert factor_z(a * b).factors == ((a, 1), (b, 1))

    def test_reducible_part_runs_one_ddf_per_screened_prime(self, monkeypatch):
        # the lifting prime's DDF comes from the screen, not from a second run
        a, b = P("1,0,-10,0,1"), P("1,0,0,0,3")  # b is not monic
        ddfs = []
        real = factor._ddf
        monkeypatch.setattr(factor, "_ddf", lambda f, p: ddfs.append(p) or real(f, p))
        factor._factor_cached.cache_clear()
        assert factor_z(a * b).factors == ((a, 1), (b, 1))
        assert sorted(ddfs) == sorted(set(ddfs)) and len(ddfs) == factor._SCREEN_PRIMES


class TestSubsetDegreeSets:
    """Degree sets of subset-product resolvents from the Frobenius cycle
    types of the polynomial they are built from."""

    @staticmethod
    def _modular_degrees(ddf):
        return sorted(d for prod, d in ddf for _ in range((len(prod) - 1) // d))

    def test_orbit_lengths_are_the_resolvent_factor_degrees(self):
        # Dedekind: modulo a prime where res is squarefree, res's factor
        # degrees are the orbit lengths on s-subsets of P's cycle type
        rng = random.Random(20261020)
        cases = 0
        while cases < 300:
            n = rng.randint(3, 7)
            g = IntPoly([rng.randint(-9, 9) for _ in range(n)] + [1])
            s = rng.randint(1, n - 1)
            if g[0] == 0:
                continue
            res = _subset_product_poly(g, s)
            for q in (11, 13, 17, 19, 23):
                gq, rq = _squarefree_mod(g, q), _squarefree_mod(res, q)
                if gq is None or rq is None:
                    continue
                lengths = factor._subset_orbit_lengths(factor._ddf(gq, q), s)
                assert sorted(lengths) == self._modular_degrees(factor._ddf(rq, q)), (g, s, q)
                cases += 1

    def test_degree_set_holds_every_factor_degree(self):
        # the set is never {0, N} on a reducible resolvent: half the inputs
        # are in x^2, where the products r * (-r) make a proper factor
        rng = random.Random(20261021)
        reducible = squarefree_reducible = 0
        for i in range(60):
            n = rng.choice((4, 6)) if i % 2 else rng.randint(3, 6)
            coeffs = [rng.randint(-6, 6) for _ in range(n)] + [1]
            if i % 2:
                coeffs[1::2] = [0] * (n // 2)
            g = IntPoly(coeffs)
            if g[0] == 0:
                continue
            for s in range(1, min(3, n - 1) + 1):
                res = _subset_product_poly(g, s)
                mask = factor._subset_degree_set(g, s, res)
                found = factor_z(res).factors
                for f, _ in found:
                    assert mask >> f.degree & 1, (g, s)
                if found != ((res, 1),):
                    reducible += 1
                    squarefree_reducible += all(m == 1 for _, m in found)
                    assert mask != 1 | 1 << res.degree, (g, s)
        assert squarefree_reducible >= 10 and reducible > squarefree_reducible
        g = P("1,0,-10,0,1")  # sqrt2 + sqrt3: its pair products repeat +-1
        assert factor._subset_degree_set(g, 2, _subset_product_poly(g, 2)) != 1 | 1 << 6

    def test_cycle_type_read_where_only_g_stays_squarefree(self, monkeypatch):
        # res is squarefree over Z but not modulo 13, a good prime of g:
        # Frobenius at 13 is still in the Galois group, so its orbits on
        # pairs are read there, and the set holds both cubic factors of res
        g = P("-3,-1,-3,2,1")
        res = _subset_product_poly(g, 2)
        assert _proved_squarefree(res) and _squarefree_mod(res, 13) is None
        assert _squarefree_mod(g, 13) is not None
        read, real = [], factor._ddf
        monkeypatch.setattr(factor, "_ddf", lambda f, p: read.append(p) or real(f, p))
        mask = factor._subset_degree_set(g, 2, res)
        assert 13 in read
        assert [f.degree for f, _ in factor_z(res).factors] == [3, 3]
        assert mask >> 3 & 1 and mask >> 6 & 1

    @pytest.mark.parametrize("text, s", [
        ("-2,0,0,0,1", 2),  # x^4 - 2: the pair products repeat +-i sqrt2
        ("1,0,6,0,8,0,1", 2),  # the complement resolvent of CM6's measure
    ])
    def test_resolvent_not_squarefree_gets_the_full_set(self, monkeypatch, text, s):
        # squarefree modulo no prime, so no cycle type is read: the measure
        # falls back to factor_z
        g = P(text)
        res = _subset_product_poly(g, s)
        assert any(m > 1 for _, m in factor_z(res).factors)
        assert not _proved_squarefree(res)
        monkeypatch.setattr(factor, "_ddf", lambda *a: pytest.fail("a cycle type was read"))
        assert factor._subset_degree_set(g, s, res) == (1 << res.degree + 1) - 1

    def test_primes_visited_are_bounded(self, monkeypatch):
        # x^4 - x - 1 with s = 2: S4 is transitive on pairs, so the degree-6
        # resolvent is irreducible; with every prime made bad for g, no cycle
        # type is read, and the loop ends after _ORBIT_PRIMES primes
        g = P("-1,-1,0,0,1")
        res = _subset_product_poly(g, 2)
        assert factor._subset_degree_set(g, 2, res) == 1 | 1 << 6
        visited = []
        real = intpoly._squarefree_mod

        def bad_for_g(f, q):
            if f != g:
                return real(f, q)
            visited.append(q)

        monkeypatch.setattr(intpoly, "_squarefree_mod", bad_for_g)
        assert factor._subset_degree_set(g, 2, res) == (1 << 7) - 1
        assert len(visited) == factor._ORBIT_PRIMES


class TestDDF:
    """The distinct-degree factorization on one x^p and the Frobenius map."""

    @staticmethod
    def _squarefree_inputs(rng, count):
        out = []
        while len(out) < count:
            q = rng.choice((11, 13, 17, 31))
            n = rng.randint(2, 14)
            f = IntPoly([rng.randrange(q) for _ in range(n)] + [1])
            fp = _squarefree_mod(f, q)
            if fp is not None:
                out.append((fp, q))
        return out

    def test_degrees_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for f, q in self._squarefree_inputs(random.Random(4704), 60):
            ddf = factor._ddf(f, q)
            assert intpoly._gf_prod((g for g, _ in ddf), q) == f
            assert all((len(g) - 1) % d == 0 and g[-1] == 1 for g, d in ddf)
            expr = sum(c * x**i for i, c in enumerate(f))
            _, theirs = sympy.Poly(expr, x, modulus=q).factor_list()
            assert all(mult == 1 for _, mult in theirs)
            want = sorted(g.degree() for g, _ in theirs)
            assert sorted(factor._cycle_type(ddf)) == want, (f, q)

    def test_one_ddf_takes_x_to_the_p_once(self, monkeypatch):
        calls = []
        real = factor._gf_pow_mod
        monkeypatch.setattr(factor, "_gf_pow_mod", lambda *a: calls.append(a[1]) or real(*a))
        for f, q in self._squarefree_inputs(random.Random(4705), 20):
            calls.clear()
            factor._ddf(f, q)
            assert calls == [q], (f, q)


class TestIrreducibleFromCache:
    def test_repeat_and_circle_partition_hit_the_cache(self, monkeypatch):
        p = P("-1,-1,0,1")  # x^3 - x - 1
        assert is_irreducible(p)
        ddfs = []
        real = factor._ddf
        monkeypatch.setattr(factor, "_ddf", lambda *a: ddfs.append(a) or real(*a))
        misses = factor._factor_cached.cache_info().misses
        assert is_irreducible(p)
        circle_partition(p)
        assert ddfs == []
        assert factor._factor_cached.cache_info().misses == misses


def sympy_corpus(sympy, x) -> list[IntPoly]:
    """160 seeded inputs of degree 2-16: random (monic or not), products of two
    irreducibles of equal degree, and squares."""
    rng = random.Random(31415)

    def irreducible(deg: int) -> IntPoly:
        while True:
            q = rand_poly(rng, deg)
            if sympy.Poly(sum(c * x**i for i, c in enumerate(q.coeffs)), x).is_irreducible:
                return q

    out = []
    for i in range(160):
        kind = i % 4
        if kind == 0:
            out.append(rand_poly(rng, rng.randint(2, 16)))
        elif kind == 1:
            q = rand_poly(rng, rng.randint(1, 15))
            out.append(IntPoly(q.coeffs + (1,)))  # monic
        elif kind == 2:
            deg = rng.randint(1, 8)
            out.append(irreducible(deg) * irreducible(deg))
        else:
            q = rand_poly(rng, rng.randint(1, 8))
            out.append(q * q)
    return out


class TestSympyCross:
    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        corpus = sympy_corpus(sympy, x)
        assert len(corpus) >= 150
        assert {p.degree for p in corpus} >= set(range(2, 17))
        assert any(p.lc not in (1, -1) for p in corpus)
        for p in corpus:
            expr = sum(c * x**i for i, c in enumerate(p.coeffs))
            content, sfactors = sympy.factor_list(sympy.Poly(expr, x))
            ours = factor_z(p)
            irreducible = content == 1 and len(sfactors) == 1 and sfactors[0][1] == 1
            assert is_irreducible(p) == irreducible, p
            theirs = {}
            for fac, mult in sfactors:
                poly = sympy.Poly(fac, x)
                coeffs = tuple(int(c) for c in reversed(poly.all_coeffs()))
                g = canonicalize(IntPoly(coeffs))
                theirs[g.coeffs] = theirs.get(g.coeffs, 0) + mult
            assert {g.coeffs: m for g, m in ours.factors} == theirs
