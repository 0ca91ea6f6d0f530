"""Root isolation, refinement, circle partition, and signature tests."""

import collections
import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mahlerdyn import algnum, intpoly, nfield, roots
from mahlerdyn.algnum import an_from_poly_root
from mahlerdyn.classify import _independent_subgroups, _subfield_product
from mahlerdyn.errors import ExactCheckFailed, InternalPrecisionExceeded, NotIrreducible, NotSquarefree
from mahlerdyn.factor import is_irreducible
from mahlerdyn.intpoly import IntPoly, from_text, is_squarefree, trace_poly
from mahlerdyn.mahler import _product_enclosure
from mahlerdyn.roots import (
    IsolatingBox,
    _abs_bounds,
    _box_add,
    _box_horner,
    _box_inv,
    _box_mul,
    _certify,
    _circle_status,
    _conjugates,
    _contained,
    _disjoint,
    _ladder,
    _pin,
    _point_in,
    _PREC_CAP,
    _refinements,
    circle_partition,
    isolate_roots,
    refine,
    signature,
)
from oracles import numeric_roots, sturm_real_roots
from test_classify import C3C3_NONIC
from test_mahler import CM6, WANDER6, rand_algnum

P = from_text

LEHMER = P("1,1,0,-1,-1,-1,-1,-1,0,1,1")
SALEM4 = P("1,-1,-1,-1,1")  # smallest quartic Salem polynomial
SQRT2 = P("-2,0,1")
# sqrt(2) and sqrt(2 + 10^-12), about 2^-41 apart, and their negatives
CLOSE_PAIR = SQRT2 * P("-2000000000001,0,1000000000000")


def rand_squarefree(rng, max_deg=8, bound=6, nonzero_const=False):
    while True:
        deg = rng.randint(2, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
        coeffs.append(rng.choice([c for c in range(-bound, bound + 1) if c]))
        if nonzero_const and coeffs[0] == 0:
            continue
        p = IntPoly(coeffs)
        if is_squarefree(p):
            return p


class TestIsolate:
    def test_sqrt2(self):
        boxes = isolate_roots(P("-2,0,1"))
        assert len(boxes) == 2
        vals = sorted(float(b.center[0]) for b in boxes)
        assert abs(vals[0] + 1.41421) < 1e-4 and abs(vals[1] - 1.41421) < 1e-4
        for b in boxes:
            assert b.center[1] == 0

    def test_lehmer_box_count(self):
        boxes = isolate_roots(LEHMER)
        assert len(boxes) == 10
        assert sum(1 for b in boxes if b.center[1] == 0) == 2

    def test_totally_imaginary_quartic(self):
        boxes = isolate_roots(P("1,-1,0,0,1"))
        assert len(boxes) == 4
        for b in boxes:
            # no box touches the real axis
            assert abs(b.center[1]) > b.radius

    def test_ordering_and_radius(self):
        boxes = isolate_roots(P("-1,0,0,0,0,0,0,0,0,0,0,0,1"))
        assert len(boxes) == 12
        keys = [(b.center[0], b.center[1]) for b in boxes]
        assert keys == sorted(keys)
        assert all(b.radius < Fraction(1, 1 << 41) for b in boxes)  # half the order grid

    def test_conjugation_symmetry(self):
        eps = Fraction(1, 1 << 40)
        tol = Fraction(1, 1 << 38)
        for p in (LEHMER, P("1,-1,0,0,1"), P("3,1,-2,0,1,1")):
            if not is_squarefree(p):
                continue
            boxes = [refine(b, p, eps) for b in isolate_roots(p)]
            centers = [b.center for b in boxes]
            for x, y in centers:
                assert any(abs(x - u) <= tol and abs(y + v) <= tol for u, v in centers)

    def test_disjointness(self):
        rng = random.Random(4)
        for _ in range(15):
            p = rand_squarefree(rng, max_deg=6)
            boxes = isolate_roots(p)
            assert len(boxes) == p.degree
            for i in range(len(boxes)):
                for j in range(i):
                    a, b = boxes[i], boxes[j]
                    dx = a.center[0] - b.center[0]
                    dy = a.center[1] - b.center[1]
                    assert dx * dx + dy * dy > (a.radius + b.radius) ** 2

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            isolate_roots(P("1,2,1"))
        with pytest.raises(NotSquarefree):
            isolate_roots(P("5"))
        # raised as soon as rung 0 fails, and on every call
        start = time.perf_counter()
        for _ in range(2):
            with pytest.raises(NotSquarefree):
                isolate_roots(LEHMER * LEHMER)
        assert time.perf_counter() - start < 1


def mignotte(n, a):
    """x^n - 2(ax - 1)^2: two real roots about 2^-36 (n = 9, a = 100) apart."""
    return IntPoly((0,) * n + (1,)) - IntPoly((2, -4 * a, 2 * a * a))


BEYOND_DOUBLE = IntPoly((-1, -10 ** 320, 0, 1))


WIDE_MODULI = IntPoly((1,) + (0,) * 7 + (1 << 200, 0, 0, 1))  # x^11 + 2^200 x^8 + 1


def c3c3_gamma_poly():
    """The characteristic polynomial of the C3xC3 witness gamma: degree 9,
    382-bit coefficients, real roots of moduli from 2^-180 to 2^191."""
    K = nfield.nf_new(C3C3_NONIC)
    autos = nfield.nf_automorphisms(K)
    gamma, _ = _subfield_product(K, autos, _independent_subgroups(autos, 2))
    return nfield._char_poly(K, gamma)


class TestSeedLadder:
    """Inputs on which the double-precision rung fails and a later one
    settles, all seeded by the one Aberth iteration: mpmath.polyroots raises."""

    @pytest.fixture(autouse=True)
    def no_polyroots(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("mpmath.polyroots called")

        monkeypatch.setattr(mpmath, "polyroots", fail)
        roots._isolate_cached.cache_clear()

    @pytest.mark.parametrize("n, a, reals", [(9, 100, 3), (12, 1000, 4)])
    def test_mignotte_cluster(self, n, a, reals):
        p = mignotte(n, a)
        seeds, *how = next(_ladder(p))
        assert seeds is None or _certify(p, seeds, *how) is None
        boxes = isolate_roots(p)
        assert len(boxes) == n
        assert sum(1 for box in boxes if box.center[1] == 0) == sturm_real_roots(p) == reals

    def test_coefficients_beyond_double_range(self):
        p = BEYOND_DOUBLE
        assert next(_ladder(p))[0] is None
        boxes = isolate_roots(p)
        assert len(boxes) == 3
        assert sum(1 for box in boxes if box.center[1] == 0) == sturm_real_roots(p) == 3

    @pytest.mark.parametrize("poly", [lambda: WIDE_MODULI, c3c3_gamma_poly], ids=["x11+2^200x8+1", "c3c3-gamma"])
    def test_root_moduli_far_apart(self, poly):
        # the Newton polygon seeds each root at its own scale, which rung 0
        # cannot hold at the unit 2^-64
        p = poly()
        seeds, *how = next(_ladder(p))
        assert seeds is None or _certify(p, seeds, *how) is None
        start = time.perf_counter()
        boxes = isolate_roots(p)
        assert time.perf_counter() - start < 1
        assert len(boxes) == p.degree
        assert sum(1 for box in boxes if box.center[1] == 0) == sturm_real_roots(p)

    @pytest.mark.parametrize(
        "poly, rung",
        [
            (lambda: mignotte(12, 10), 0),
            (lambda: mignotte(9, 100), 1),
            (lambda: mignotte(12, 10**4), 3),
            (lambda: BEYOND_DOUBLE, 1),
            (lambda: WIDE_MODULI, 1),
            (c3c3_gamma_poly, 2),
            (lambda: P(f"{-3**40},1"), 0),
            (lambda: P(f"1,{-10**12},1"), 0),
        ],
        ids=[
            "mignotte12-10",
            "mignotte9-100",
            "mignotte12-10^4",
            "beyond-double",
            "x11+2^200x8+1",
            "c3c3-gamma",
            "x-3^40",
            "x2-10^12x+1",
        ],
    )
    def test_certifying_rung(self, poly, rung):
        # the index of the first rung whose seeds certify: 0 is the double
        # rung, 1, 2, 3 the mpmath rungs at 64, 128, 256 bits. A double seed
        # of a root of modulus R is off by about R 2^-53, so the last two
        # rows certify on rung 0 only through their extra Newton step
        p = poly()
        ladder = enumerate(_ladder(p))
        assert next(i for i, (seeds, *how) in ladder if seeds and _certify(p, seeds, *how)) == rung


class TestRungZeroCertificate:
    """Rung 0 certifies its double seeds as they are: one exact Newton disk
    per kept seed (real, or above the axis), and no squarefree test, since n
    disjoint disks that each hold a root prove p squarefree."""

    # a degree-15 subset-product resolvent that measure-d6 isolates: its
    # roots are 19 x_i x_j over the root pairs of 19x^6 + 12x^5 + 3x^4 -
    # 18x^3 + 13x^2 + 18x + 1
    RESOLVENT15 = P(
        "-6131066257801,4194940071127,5553625114407,912643045519,-2573456736581,3954362292287,"
        "231614170139,-5576881425,-590748703,104890697,-1997743,-237727,-2803,-463,-3,1"
    )

    @pytest.mark.parametrize("p", [WANDER6, RESOLVENT15], ids=["wander6", "resolvent15"])
    def test_one_newton_disk_per_kept_seed(self, monkeypatch, p):
        calls = collections.Counter()

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((roots, "_aberth_seeds"), (roots, "_newton_disk"),
                             (intpoly, "_proved_squarefree"), (intpoly, "gcd_z")):
            spy(module, name)
        boxes = roots._isolate_cached.__wrapped__(p.coeffs)
        kept = sum(1 for b in boxes if b.center[1] >= 0)
        assert calls == {"_aberth_seeds": 1, "_newton_disk": kept}
        assert len(boxes) == p.degree


def _mp_fraction(v):
    return Fraction(*mpmath.libmp.to_rational(v._mpf_))


class TestSeedRounding:
    """_fixed(v, b) is the integer nearest v 2^b, ties to even, for floats
    and mpfs, computed without mpmath; nonfinite seeds raise ArithmeticError."""

    @pytest.mark.parametrize("b", [64, 128, 256])
    def test_floats_match_fraction_rounding(self, b):
        rng = random.Random(b)
        values = [rng.uniform(-1, 1) * 2.0 ** rng.randint(-b - 60, 60) for _ in range(2000)]
        # exact ties k + 1/2 at the unit 2^-b, both signs, odd and even k
        values += [(k + 0.5) * 2.0**-b for k in range(-40, 40)]
        values += [0.0, -0.0, 2.0**-b, -(2.0 ** (-b - 1)), 3 * 2.0 ** (-b - 1)]
        for v in values:
            assert roots._fixed(v, b) == round(Fraction(v) * 2**b), v

    @pytest.mark.parametrize("b", [64, 128, 256])
    def test_mpfs_match_fraction_rounding(self, b):
        rng = random.Random(1000 + b)
        with mpmath.workprec(400):
            values = [
                mpmath.mpf((rng.choice([-1, 1]) * rng.getrandbits(rng.randint(1, 300)), rng.randint(-b - 320, 80)))
                for _ in range(2000)
            ]
            values += [mpmath.mpf((2 * k + 1, -b - 1)) for k in range(-40, 40)]
            values += [mpmath.mpf(0), mpmath.mpf((5, 3)), mpmath.mpf((-7, -b - 1))]
        assert any(v._mpf_[2] > 0 for v in values) and any(v._mpf_[2] < -b for v in values)
        for v in values:
            assert roots._fixed(v, b) == round(_mp_fraction(v) * 2**b), v

    @pytest.mark.parametrize(
        "v", [math.nan, math.inf, -math.inf, mpmath.nan, mpmath.inf, -mpmath.inf], ids=repr
    )
    def test_nonfinite_raises(self, v):
        with pytest.raises(ArithmeticError):
            roots._fixed(v, 128)

    def test_nan_aberth_iterate_fails_the_rung(self, monkeypatch):
        # every start is nan, so every iterate settles at nan at once and the
        # rung gives no seeds instead of raising
        monkeypatch.setattr(roots, "_initial_guesses", lambda a, exp, rect: [complex(math.nan, 0.0)] * (len(a) - 1))
        assert roots._aberth_seeds(P("-1,-1,0,1")) is None

    def test_rung_zero_isolation_calls_no_mpmath(self, monkeypatch):
        p = P("-1,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,1")  # x^15 - x - 1
        want = roots._isolate_cached.__wrapped__(p.coeffs)

        def no_mpf(*args, **kwargs):
            raise RuntimeError("mpmath.mpf called")

        monkeypatch.setattr(roots.mpmath, "mpf", no_mpf)
        assert roots._isolate_cached.__wrapped__(p.coeffs) == want
        assert len(want) == 15


def _oracle_in_order(p):
    """mpmath's 60-digit roots sorted by (re, im); real parts equal to 40
    digits count as equal, so a conjugate pair sorts by its imaginary part."""
    with mpmath.workdps(60):
        return sorted(numeric_roots(p), key=lambda z: (mpmath.nint(z.real * 10 ** 40), z.imag))


def _holds_root(box, z):
    with mpmath.workdps(60):
        def mp(v):
            return mpmath.mpf(v.numerator) / v.denominator
        return abs(mpmath.mpc(mp(box.center[0]), mp(box.center[1])) - z) <= mp(box.radius)


# a +- si and a +- ti: with every radius below half the 2^-40 grid, the four
# centres round to one grid point, whatever the noise of the seeds
_EQUAL_RE = [(1203, 50, 100), (1203, 3, 700), (1189, 1, 2), (10**4, 1, 2), (10**4, 50, 100), (3**10, 3, 700)]


def _equal_re(a, s, t):
    return P(f"{a * a + s * s},{-2 * a},1") * P(f"{a * a + t * t},{-2 * a},1")


class TestCanonicalOrder:
    """Box i holds the i-th root in (re, im) order, checked against mpmath,
    and the real-centred boxes are as many as Sturm counts real roots."""

    def _check(self, p):
        boxes = isolate_roots(p)
        roots = _oracle_in_order(p)
        assert len(boxes) == len(roots) == p.degree
        for box, z in zip(boxes, roots):
            assert _holds_root(box, z), (p, box, z)

    @pytest.mark.parametrize(
        "p",
        [LEHMER, SALEM4, CM6, WANDER6, P("36,0,49,0,14,0,1"), CLOSE_PAIR]
        + [_equal_re(a, s, t) for a, s, t in _EQUAL_RE],
        # (x^2+1)(x^2+4)(x^2+9), real roots closer than the order grid, and
        # roots a +- si, a +- ti whose integer real part a is on the grid
        ids=["tau", "salem4", "cm6", "wander6", "equal-re", "close-pair"]
        + ["equal-re-%d-%d-%d" % row for row in _EQUAL_RE],
    )
    def test_named_fixtures(self, p):
        self._check(p)

    def test_random_minpolys(self):
        rng = random.Random(20260814)
        for _ in range(30):
            self._check(rand_algnum(rng).minpoly)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_real_boxes_match_sturm_count(self, seed):
        p = rand_squarefree(random.Random(seed), max_deg=8)
        boxes = isolate_roots(p)
        assert sum(1 for b in boxes if b.center[1] == 0) == sturm_real_roots(p)


class TestRefine:
    def test_sqrt2_to_60_bits(self):
        box = [b for b in isolate_roots(P("-2,0,1")) if b.center[0] > 0][0]
        eps = Fraction(1, 1 << 60)
        r = refine(box, P("-2,0,1"), eps)
        assert r.radius <= eps
        lo, hi = r.center[0] - r.radius, r.center[0] + r.radius
        assert lo * lo < 2 < hi * hi

    def test_idempotent(self):
        box = isolate_roots(P("-2,0,1"))[0]
        eps = Fraction(1, 1 << 30)
        once = refine(box, P("-2,0,1"), eps)
        twice = refine(once, P("-2,0,1"), eps)
        assert twice == once

    def test_monotone(self):
        p = P("1,-1,0,0,1")
        for box in isolate_roots(p):
            r = refine(box, p, box.radius / 1024)
            dx = r.center[0] - box.center[0]
            dy = r.center[1] - box.center[1]
            slack = box.radius - r.radius
            assert slack >= 0 and dx * dx + dy * dy <= slack * slack

    def test_long_jump_ramps_its_unit(self, monkeypatch):
        # from a rung-0 box (about 2^-45) to 2^-1000: the steps before the
        # last run at a doubling unit, and two disks at the final unit
        # 2^-1021 settle it
        units, real = [], roots._newton_disk
        monkeypatch.setattr(roots, "_newton_disk", lambda *a: units.append(a[-1]) or real(*a))
        eps = Fraction(1, 1 << 1000)
        for p in (P("-1,-1,0,0,0,1"), WANDER6):
            for box in isolate_roots(p):
                units.clear()
                r = refine(box, p, eps)
                assert r.radius <= eps and roots._contained(r, box)
                assert units[-2:] == [1021, 1021] and 1021 not in units[:-2]
                assert all(2 * u == w for u, w in zip(units[:-3], units[1:-2])), units

    def test_lehmer_tau_value(self):
        box = max(isolate_roots(LEHMER), key=lambda b: b.center[0])
        r = refine(box, LEHMER, Fraction(1, 10 ** 9))
        assert abs(float(r.center[0]) - 1.17628) < 1e-5

    @pytest.mark.parametrize(
        "p",
        [mignotte(9, 100), mignotte(12, 1000), BEYOND_DOUBLE, LEHMER, CM6],
        ids=["mignotte9", "mignotte12", "beyond-double", "tau", "cm6"],
    )
    def test_every_root_to_2048_bits(self, p):
        # each refined disk nests in its input, keeps a real centre real and
        # holds the input's one root, taken from a 700-digit oracle; the
        # oracle gets working bits for roots spread over 10^+-320
        eps = Fraction(1, 1 << 2048)
        zs = numeric_roots(p, 700, extraprec=200 + 3 * p.max_coeff_bits())
        with mpmath.workdps(700):
            def near(box, z):
                c = mpmath.mpc(*(mpmath.mpf(v.numerator) / v.denominator for v in box.center))
                r = mpmath.mpf(box.radius.numerator) / box.radius.denominator
                return abs(c - z) <= r + mpmath.mpf(10) ** -690 * max(1, abs(z))

            for box in isolate_roots(p):
                r = refine(box, p, eps)
                assert r.radius <= eps
                assert _contained(r, box)
                assert (r.center[1] == 0) == (box.center[1] == 0)
                (z,) = [z for z in zs if near(box, z)]
                assert near(r, z)

    def test_eps_below_cap_raises_at_once(self, monkeypatch):
        def no_newton(*args):
            raise AssertionError("Newton step taken")

        monkeypatch.setattr(roots, "_newton_disk", no_newton)
        box = isolate_roots(LEHMER)[0]
        with pytest.raises(InternalPrecisionExceeded):
            refine(box, LEHMER, Fraction(1, 1 << (_PREC_CAP + 1)))

    def test_newton_leaving_the_box_raises(self):
        # [1/20, 21/20] holds the root 1 of x^3 - x alone, but Newton from
        # its centre 11/20 jumps to -3.6 and settles on the root -1; a disk
        # there must never be returned
        p = P("0,-1,0,1")
        box = IsolatingBox((Fraction(11, 20), Fraction(0)), Fraction(1, 2))
        with pytest.raises(InternalPrecisionExceeded):
            refine(box, p, Fraction(1, 1 << 64))



def _holds_sqrt2(box):
    lo, hi = box.center[0] - box.radius, box.center[0] + box.radius
    return box.center[1] == 0 and 0 < lo and lo * lo <= 2 <= hi * hi


class TestPin:
    def _probe(self):
        # holds sqrt(2) and, 2^-41 away, the next root of CLOSE_PAIR
        return IsolatingBox((Fraction(round(math.sqrt(2) * 2 ** 40), 2 ** 40), Fraction(0)), Fraction(1, 1 << 20))

    def _coarse_boxes(self):
        """CLOSE_PAIR's boxes with sqrt(2)'s shrunk to 2^-210 and its
        neighbour's grown until it reaches within 2^-200 of sqrt(2): still
        isolating, but a probe misses it unrefined only below 2^-200."""
        boxes = isolate_roots(CLOSE_PAIR)
        i = next(k for k, b in enumerate(boxes) if _holds_sqrt2(b))
        near = refine(boxes[i], CLOSE_PAIR, Fraction(1, 1 << 210))
        far = refine(boxes[i + 1], CLOSE_PAIR, Fraction(1, 1 << 210))
        edge = near.center[0] + near.radius + Fraction(1, 1 << 200)
        boxes[i], boxes[i + 1] = near, IsolatingBox(far.center, far.center[0] - edge)
        assert _disjoint(boxes[i], boxes[i + 1])
        return boxes, i

    def test_two_roots_closer_than_the_probe(self):
        boxes, i = self._coarse_boxes()
        probe = self._probe()
        assert [k for k, b in enumerate(boxes) if not _disjoint(probe, b)] == [i, i + 1]
        # six probes reach 2^-139: enough once the hit boxes are refined,
        # not enough while the neighbour keeps its 2^-200 edge
        assert _pin(itertools.islice(_refinements(probe, SQRT2), 6), [CLOSE_PAIR] * len(boxes), boxes) == i
        assert _holds_sqrt2(boxes[i])

    def test_isolated_boxes_of_a_close_pair(self):
        boxes = isolate_roots(CLOSE_PAIR)
        i = _pin(_refinements(self._probe(), SQRT2), [CLOSE_PAIR] * len(boxes), boxes)
        assert _holds_sqrt2(isolate_roots(CLOSE_PAIR)[i])

    def test_boxes_of_several_factors(self):
        # boxes of radius 2^-20 around the roots of CLOSE_PAIR's two factors:
        # each isolates a root of its own factor, and the two near sqrt(2)
        # also hold each other's root, so each must be refined with its own
        # polynomial until one is left
        factors = [SQRT2, P("-2000000000001,0,1000000000000")]
        polys = [q for q in factors for _ in range(q.degree)]
        boxes = [IsolatingBox(b.center, Fraction(1, 1 << 20)) for q in factors for b in isolate_roots(q)]
        assert not _disjoint(boxes[1], boxes[3])
        i = _pin(_refinements(self._probe(), SQRT2), polys, boxes)
        assert i == 1 and _holds_sqrt2(boxes[i])

    def test_probe_meeting_no_box_raises(self):
        probe = IsolatingBox((Fraction(3), Fraction(0)), Fraction(1, 4))
        with pytest.raises(ExactCheckFailed):
            _pin([probe], [SQRT2] * 2, isolate_roots(SQRT2))

    def test_probe_meeting_no_box_raises_under_optimize(self):
        code = (
            "from fractions import Fraction\n"
            "from mahlerdyn.errors import ExactCheckFailed\n"
            "from mahlerdyn.intpoly import from_text\n"
            "from mahlerdyn.roots import IsolatingBox, _pin, isolate_roots\n"
            "p = from_text('-2,0,1')\n"
            "try:\n"
            "    _pin([IsolatingBox((Fraction(3), Fraction(0)), Fraction(1, 4))], [p] * 2, isolate_roots(p))\n"
            "except ExactCheckFailed:\n"
            "    print('raised')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=300)
        assert out.stdout.strip() == "raised"

    def test_stream_ending_first_raises(self):
        # a disk around 0 of radius 2 holds both roots of x^2 - 2
        probe = IsolatingBox((Fraction(0), Fraction(0)), Fraction(2))
        with pytest.raises(InternalPrecisionExceeded):
            _pin([probe], [SQRT2] * 2, isolate_roots(SQRT2))


class TestCirclePartition:
    def test_lehmer(self):
        cp = circle_partition(LEHMER)
        assert (len(cp.outside), len(cp.on), len(cp.inside)) == (1, 8, 1)

    def test_sqrt2(self):
        cp = circle_partition(P("-2,0,1"))
        assert (len(cp.outside), len(cp.on), len(cp.inside)) == (2, 0, 0)

    def test_eighth_roots(self):
        cp = circle_partition(P("1,0,0,0,1"))
        assert (len(cp.outside), len(cp.on), len(cp.inside)) == (0, 4, 0)

    def test_salem_quartic(self):
        cp = circle_partition(SALEM4)
        assert (len(cp.outside), len(cp.on), len(cp.inside)) == (1, 2, 1)

    def test_mixed_product(self):
        p = P("-1,1") * P("0,1") * P("-2,0,1") * P("1,0,1")
        cp = circle_partition(p)
        assert sorted(cp.outside + cp.on + cp.inside) == list(range(6))
        assert len(cp.outside) == 2 and len(cp.on) == 3 and len(cp.inside) == 1

    def test_partition_covers_degree(self):
        rng = random.Random(11)
        for _ in range(12):
            p = rand_squarefree(rng, max_deg=6)
            cp = circle_partition(p)
            n = len(cp.outside) + len(cp.on) + len(cp.inside)
            assert n == p.degree
            if p(1) != 0 and p(-1) != 0:
                assert len(cp.on) % 2 == 0

    def test_reversal_swaps_inside_outside(self):
        rng = random.Random(20260814)
        for _ in range(100):
            p = rand_squarefree(rng, max_deg=8, bound=5, nonzero_const=True)
            cp = circle_partition(p)
            rev = circle_partition(p.reversal())
            assert len(rev.outside) == len(cp.inside)
            assert len(rev.inside) == len(cp.outside)
            assert len(rev.on) == len(cp.on)

    def test_deep_refinement_cross_check(self):
        # numeric sanity at radius 2^-200: boxes that cannot exclude the unit
        # circle are exactly the trace-certified on-circle ones
        eps = Fraction(1, 1 << 200)
        for q in (P("1,1,1,1,1"), SALEM4, LEHMER, P("1,0,0,0,1")):
            cp = circle_partition(q)
            boxes = [refine(b, q, eps) for b in isolate_roots(q)]
            straddling = []
            for i, b in enumerate(boxes):
                a2 = b.center[0] ** 2 + b.center[1] ** 2
                if not (a2 > (1 + b.radius) ** 2 or a2 < (1 - b.radius) ** 2):
                    straddling.append(i)
            assert tuple(straddling) == cp.on

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            circle_partition(P("0,0,1"))

    def test_on_circle_count_matches_trace_sturm(self):
        # a plus-reciprocal irreducible q has two roots on the circle per
        # real root of trace_poly(q) in (-2, 2); Sturm is the exact reference
        rng = random.Random(20261018)
        with_on = 0
        while with_on < 100:
            k = rng.randint(1, 5)
            half = [rng.randint(-4, 4) for _ in range(k)]
            q = IntPoly([1] + half + half[-2::-1] + [1])
            if not is_irreducible(q):
                continue
            on = circle_partition(q).on
            assert len(on) == 2 * sturm_real_roots(trace_poly(q), Fraction(-2), Fraction(2)), q
            with_on += bool(on)


def _distance_below(a: IsolatingBox, b: IsolatingBox) -> Fraction:
    """A lower bound, at the unit 2^-32, of the distance between the centres."""
    d2 = (a.center[0] - b.center[0]) ** 2 + (a.center[1] - b.center[1]) ** 2
    return Fraction(math.isqrt(math.floor(d2 * (1 << 64))), 1 << 32)


def _coarse(boxes: list[IsolatingBox]) -> list[IsolatingBox]:
    """The disks with their centres kept, each grown, in order, to two thirds
    of the room that the others leave it: still pairwise disjoint, each
    holding its root."""
    out = []
    for i, b in enumerate(boxes):
        room = [_distance_below(b, c) - (out[j].radius if j < i else 0) for j, c in enumerate(boxes) if j != i]
        out.append(IsolatingBox(b.center, max(b.radius, min(room, default=b.radius) * 2 / 3)))
    return out


def test_coarse_disks_refine_to_the_canonical_answers(monkeypatch):
    # canonical disks decide at once, so the refine steps of the
    # _refinements streams that _factor_statuses reads, its loop and
    # an_from_poly_root run only on coarser disks. Equal radii would not
    # reach that loop: a disk around a Salem root s meets the circle only
    # with a radius above s - 1, more than half its distance s - 1/s to the
    # root 1/s
    queries = {}
    for p in (LEHMER, SALEM4, P("-1,-1,0,1")):
        boxes = isolate_roots(p)
        # each query holds one root and reaches towards its nearest neighbour
        queries[p] = [IsolatingBox(b.center, min(_distance_below(b, c) for c in boxes if c is not b) * 3 / 4)
                      for b in boxes]
    want = {p: (circle_partition(p), [an_from_poly_root(p, q) for q in qs]) for p, qs in queries.items()}
    callers = set()
    real_refine, real_isolate, real_candidates = roots.refine, roots.isolate_roots, algnum._candidates

    def refine(*args):
        callers.add(sys._getframe(1).f_code.co_qualname.partition(".")[0])
        return real_refine(*args)

    def candidates(factors):
        polys, boxes = real_candidates(factors)
        return polys, _coarse(boxes)

    monkeypatch.setattr(roots, "refine", refine)
    monkeypatch.setattr(algnum, "refine", refine)
    monkeypatch.setattr(roots, "isolate_roots", lambda q: _coarse(real_isolate(q)))
    monkeypatch.setattr(algnum, "_candidates", candidates)
    for p, qs in queries.items():
        assert (circle_partition(p), [an_from_poly_root(p, q) for q in qs]) == want[p], p
    assert callers == {"_refinements", "_factor_statuses", "an_from_poly_root"}


class TestConjugates:
    def test_mirrored_boxes_pair_up(self):
        for p in (CM6, WANDER6, LEHMER, P("-2,0,0,0,0,1"), P("2,0,-4,0,1")):
            boxes = isolate_roots(p)
            conj = _conjugates(boxes)
            for i, b in enumerate(boxes):
                c = boxes[conj[i]]
                assert conj[conj[i]] == i
                assert c.center == (b.center[0], -b.center[1]) and c.radius == b.radius
                assert (conj[i] == i) == (b.center[1] == 0)

    @pytest.mark.parametrize(
        "p",
        [CM6, WANDER6, LEHMER, SALEM4, P("1,-1,0,0,1"), P("-2,0,0,0,0,1"), P("3,1,-2,0,1,1")],
        ids=["cm6", "wander6", "tau", "salem4", "x4-x+1", "x5-2", "x5+x4-2x2+x+3"],
    )
    def test_refinement_keeps_mirrors(self, p):
        # a Newton step rounded toward 0 in both coordinates is the mirror of
        # the step from the mirrored centre
        boxes = isolate_roots(p)
        for i, j in enumerate(_conjugates(boxes)):
            if i < j:
                for bits in (200, 1000):
                    a, b = (refine(boxes[k], p, Fraction(1, 1 << bits)) for k in (i, j))
                    assert b == IsolatingBox((a.center[0], -a.center[1]), a.radius)

    def test_unmatched_nonreal_box_raises(self):
        boxes = isolate_roots(P("1,0,1"))  # i and -i
        with pytest.raises(ExactCheckFailed):
            _conjugates(boxes[:1])
        refined = refine(boxes[1], P("1,0,1"), boxes[1].radius / 16)
        assert refined != boxes[1]
        with pytest.raises(ExactCheckFailed):
            _conjugates([boxes[0], refined])


class TestSignature:
    def test_examples(self):
        assert signature(P("1,-1,0,0,1")) == (0, 2)
        assert signature(P("-2,0,0,0,0,1")) == (1, 2)
        assert signature(P("2,0,-4,0,1")) == (4, 0)

    def test_not_irreducible(self):
        with pytest.raises(NotIrreducible):
            signature(P("-1,0,1"))
        with pytest.raises(NotIrreducible):
            signature(P("-4,0,2"))


# disk arithmetic: random dyadic disks of radius about 2^-k (k = 2 is a
# coarse rounding unit, k = 200 a fine one) and exact points in them: inside,
# anywhere on the edge, or on the edge nearest to or farthest from 0, where
# a disk operation's own bound is tight

_N = 1 << 10


def _circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """The exact point of the unit circle at angle 2 * atan(t)."""
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def _direction(x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    """An exact unit vector within about 2^-400 of the direction of x + iy."""
    if y == 0:
        return (Fraction(1 if x >= 0 else -1), Fraction(0))
    s = x * x + y * y
    m = 1 << 400
    mod = Fraction(math.isqrt(s.numerator * m * m // s.denominator) + 1, m)
    return _circle_point(y / (mod + x))  # tan(arg / 2), with mod >= |x + iy|


@st.composite
def disk_and_point(draw, k):
    # centres carry more bits than the rounding unit, so they get truncated
    den = 1 << (k + 80)
    x = Fraction(draw(st.integers(-(16 << (k + 80)), 16 << (k + 80))), den)
    y = Fraction(draw(st.integers(-(16 << (k + 80)), 16 << (k + 80))), den)
    r = Fraction(draw(st.integers(1, 1 << 8)), 1 << (k + 8))
    where = draw(st.sampled_from(["inside", "edge", "far", "near"]))
    if where == "inside":
        p = draw(st.integers(-_N, _N))
        q = draw(st.integers(-_N, _N))
        assume(p * p + q * q <= _N * _N)
        dx, dy = Fraction(p, _N), Fraction(q, _N)
    elif where == "edge":
        dx, dy = _circle_point(Fraction(draw(st.integers(-_N, _N)), draw(st.integers(1, _N))))
    else:
        dx, dy = _direction(x, y)
        if where == "near":
            dx, dy = -dx, -dy
    return IsolatingBox((x, y), r), (x + r * dx, y + r * dy)


def _holds(box, z):
    return _point_in(box, z[0], z[1])


def _is_dyadic(box):
    return all(v.denominator & (v.denominator - 1) == 0 for v in (*box.center, box.radius))


class TestDiskArithmetic:
    @pytest.mark.parametrize("k", [2, 200])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_and_mul_hold_exact_results(self, k, data):
        a, (ux, uy) = data.draw(disk_and_point(k))
        b, (vx, vy) = data.draw(disk_and_point(k))
        prod = _box_mul(a, b)
        assert _is_dyadic(prod)
        assert _holds(prod, (ux * vx - uy * vy, ux * vy + uy * vx))
        for sign in (1, -1):
            total = _box_add(a, b, sign)
            assert _is_dyadic(total)
            assert _holds(total, (ux + sign * vx, uy + sign * vy))
            # rounding widens the radius by a relative 2^-29 at most
            assert total.radius <= (a.radius + b.radius) * (1 + Fraction(1, 1 << 29))

    @pytest.mark.parametrize("k", [2, 200])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_inverse_holds_exact_inverse(self, k, data):
        a, (ux, uy) = data.draw(disk_and_point(k))
        if _abs_bounds(a)[0] == 0:
            # move the disk and its point off 0
            shift = 3 * a.radius + 1
            a = IsolatingBox((a.center[0] + shift, a.center[1]), a.radius)
            ux += shift
        inv = _box_inv(a)
        n = ux * ux + uy * uy
        assert _is_dyadic(inv)
        assert _holds(inv, (ux / n, -uy / n))

    @pytest.mark.parametrize("k", [2, 200])
    @given(data=st.data(), coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
           den=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_horner_holds_exact_value(self, k, data, coeffs, den):
        a, (ux, uy) = data.draw(disk_and_point(k))
        # for a monomial the disk bound is tight at the far edge
        monomial = [0] * (len(coeffs) - 1) + [coeffs[-1] or 1]
        mirror = IsolatingBox((a.center[0], -a.center[1]), a.radius)
        for cs in (coeffs, [Fraction(c, den) for c in coeffs], monomial):
            vx, vy = Fraction(0), Fraction(0)
            for c in reversed(cs):
                vx, vy = vx * ux - vy * uy + c, vx * uy + vy * ux
            val = _box_horner(cs, a)
            assert _is_dyadic(val)
            assert _holds(val, (vx, vy))
            # real coefficients: the conjugate disk gives the conjugate disk
            assert _box_horner(cs, mirror) == IsolatingBox((val.center[0], -val.center[1]), val.radius)

    @pytest.mark.parametrize("k", [2, 200])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_modulus_bounds_bracket_abs(self, k, data):
        a, (ux, uy) = data.draw(disk_and_point(k))
        lo, hi = _abs_bounds(a)
        assert 0 <= lo and lo * lo <= ux * ux + uy * uy <= hi * hi
        # the bounds are as tight as the disk allows, up to the rounding unit
        assert hi - lo <= 2 * a.radius * (1 + Fraction(1, 1 << 29))

    def test_worst_case_truncation_is_covered(self):
        # a centre whose coordinates each lose almost a whole rounding unit
        # (2^-73 for this radius), and a point on the edge in that direction
        r = Fraction(1, 1 << 40)
        lost = Fraction((1 << 20) - 1, 1 << 93)
        a = IsolatingBox((Fraction(9) + lost, Fraction(9) + lost), r)
        dx, dy = _direction(*a.center)
        ux, uy = a.center[0] + r * dx, a.center[1] + r * dy
        zero = IsolatingBox((Fraction(0), Fraction(0)), Fraction(0))
        assert _holds(_box_add(a, zero), (ux, uy))
        vx, vy = Fraction(1), Fraction(0)
        for n in range(1, 41):
            vx, vy = vx * ux - vy * uy, vx * uy + vy * ux
            assert _holds(_box_horner([0] * n + [1], a), (vx, vy))

    def test_inverse_of_disk_meeting_zero(self):
        with pytest.raises(ZeroDivisionError):
            _box_inv(IsolatingBox((Fraction(1), Fraction(0)), Fraction(1)))

    @given(data=st.data(), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_product_chain_holds_exact_product(self, data, n):
        # one fixed-point chain over a mirrored pair, then disks of radius
        # 2^-2 to 2^-200 and exact points (radius 0), times an exact scale
        a, u = data.draw(disk_and_point(data.draw(st.integers(2, 200))))
        disks, points = [a, _mirror(a)], [u, (u[0], -u[1])]
        while len(disks) < n:
            a, u = data.draw(disk_and_point(data.draw(st.integers(2, 200))))
            if data.draw(st.booleans()):
                a, u = IsolatingBox(a.center, Fraction(0)), a.center
            disks.append(a)
            points.append(u)
        scale = data.draw(st.integers(1, 1000))
        vx, vy = Fraction(scale), Fraction(0)
        for ux, uy in points:
            vx, vy = vx * ux - vy * uy, vx * uy + vy * ux
        enc = _product_enclosure(disks, False, scale)
        assert _is_dyadic(enc)
        assert _holds(enc, (vx, vy))
        assert _product_enclosure([_mirror(d) for d in disks], False, scale) == _mirror(enc)

    def test_predicates_on_thirds_match_fraction_formulas(self):
        # non-dyadic disks and points, such as the rational resolvent root
        # that classify._stable_cycles hands _point_in; the grid holds
        # touching disks and points on an edge, where only an exact common
        # denominator gives the answer of the Fraction formula
        vals = [Fraction(n, 6) for n in (-3, 0, 2, 4, 5)]
        radii = [Fraction(n, 6) for n in (0, 1, 2, 3, 4)]
        disks = [IsolatingBox((x, y), r) for x in vals for y in vals for r in radii]
        ties = 0
        for a in disks:
            assert _circle_status(a) == _ref_circle_status(a)
            for x in vals:
                for y in vals:
                    d2 = (x - a.center[0]) ** 2 + (y - a.center[1]) ** 2
                    assert _point_in(a, x, y) == (d2 <= a.radius ** 2)
                    ties += d2 == a.radius ** 2 != 0
            for b in disks:
                d2 = (a.center[0] - b.center[0]) ** 2 + (a.center[1] - b.center[1]) ** 2
                assert _disjoint(a, b) == (d2 > (a.radius + b.radius) ** 2)
                assert _contained(a, b) == (a.radius <= b.radius and d2 <= (b.radius - a.radius) ** 2)
                ties += d2 == (a.radius + b.radius) ** 2 != 0
        assert ties > 0


def _mirror(box):
    return IsolatingBox((box.center[0], -box.center[1]), box.radius)


def _ref_circle_status(box):
    a2 = box.center[0] ** 2 + box.center[1] ** 2
    r = box.radius
    if a2 > (1 + r) ** 2:
        return "out"
    if r < 1 and a2 < (1 - r) ** 2:
        return "in"
    return None
