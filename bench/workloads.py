"""The three workloads: seeded inputs, the ops, and independent output checks.

An op is one public call a user would make. Inputs are plain JSON items, made
by ``generate`` in a process of their own, so that the ``is_irreducible`` and
``isolate_roots`` calls of generation never warm the caches of the timed
process. Checks run after the timed section and compare each output with an
oracle that does not use the package's own algorithms (mpmath root products,
the paper's tables).
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import mpmath as mp

import mahlerdyn.algnum as algnum
import mahlerdyn.classify as classify
import mahlerdyn.intpoly as intpoly
import mahlerdyn.mahler as mahler
import mahlerdyn.roots as roots

# the seeds of the tests whose inputs the workloads draw: the corpus the
# roadmap names for rand_algnum, and TestOrbitInvariants' integers
DEFAULT_SEED = {"measure-d6": 20260814, "orbit-named": 424242, "field-smoke": 0}

# measure-d6 stratifies its ops by cost class (_stratum). An op's cost is
# set by the degree of its subset-product resolvent, C(n, s) for s roots
# outside the unit circle: on average 0.03, 0.45, 1.2 and 3.7 s for degree
# <= 6 ("light"), 10, 15 and 20. Within a degree the leading coefficient
# sets part of the rest, so each heavy degree is split into four bands of
# |lc|. These are the shares of the classes in rand_algnum's stream,
# measured by stream_shares over 8000 draws at seed 20260814.
STREAM_SHARES = {
    "light/1": 0.1732, "light/2": 0.1643, "light/3": 0.1651, "light/4": 0.1684,
    "light/5": 0.0539, "light/6": 0.0324,
    "10/1-5": 0.0305, "10/6-10": 0.0291, "10/11-15": 0.0255, "10/16-20": 0.0235,
    "15/1-5": 0.0200, "15/6-10": 0.0214, "15/11-15": 0.0213, "15/16-20": 0.0249,
    "20/1-5": 0.0125, "20/6-10": 0.0141, "20/11-15": 0.0107, "20/16-20": 0.0092,
}
# A pass has MEASURE_OPS ops, each class of resolvent degree <= 15 filled to
# its share of that count. Degree 20 (4.7% of the stream) is left out: one
# such op costs 1.2-7 s, as much as the rest of a pass, so a pass short
# enough to repeat three times in a run could hold one or two of them, and
# which ones the seed drew would set the run's time. The eight heavy ops
# (degree 10 and 15, one per band, about nine tenths of a pass) come from
# seed 20260814 in every run: their cost still ranges 0.2-0.7 s (degree 10)
# and 0.8-1.9 s (degree 15) within a band, and drawn per seed, the four of
# degree 10 alone moved a pass by 10% between two seeds. The seed draws the
# 32 light ops.
MEASURE_OPS = 40
MEASURE_LEFT_OUT = "20/"
PANEL_DEGREES = ("10/", "15/")

NAMED_ORBITS = (
    ("tau", "1,1,0,-1,-1,-1,-1,-1,0,1,1", "Preperiodic", "Salem"),
    ("phi", "-1,-1,1", "Preperiodic", "Pisot"),
    ("salem4", "1,-1,-1,-1,1", "Preperiodic", "Salem"),
    ("quartic", "1,-1,0,0,1", "Preperiodic", "Salem"),
    ("CM6", "1,0,8,0,6,0,1", "Preperiodic", None),
    ("WANDER6", "1,2,3,-4,3,2,1", "Wandering", (2, 1, 3)),
    ("cbrt2", "-2,0,0,1", "Preperiodic", "RationalInteger"),
    ("cubic", "1,-4,0,1", "Preperiodic", "Pisot"),
    ("plastic", "-1,-1,0,1", "Preperiodic", "Pisot"),
    ("sqrt2", "-2,0,1", "Preperiodic", "RationalInteger"),
)
# the seeded integer inputs of TestOrbitInvariants, run with its budget
ORBIT_SEEDED = 9
ORBIT_SEEDED_BUDGET = {"max_iters": 2}

# the paper's tables: expected verdict class, and the quotient for abelian groups
FIELD_ABELIAN = (
    ((1,), "AllPreperiodic"), ((2,), "AllPreperiodic"), ((3,), "AllPreperiodic"),
    ((2, 2), "AllPreperiodic"), ((4,), "C4"), ((5,), "C5"), ((2, 2, 2), "C2cubed"),
    ((6,), "C6"), ((3, 3), "C3xC3"), ((12, 2), "C4"),
)
# The CM sextic and the C4 quartic of the paper's tables are left out: both
# need nf_automorphisms, which finds no automorphism but the identity today
# (its LLL fails), so they fail (classify_cm(CM6) returns None,
# classify_quartic(x^4-4x^2+2) raises WitnessSearchFailed), and a benchmark
# runs only ops that succeed. classify_cm of the S4 quartic x^4+x+1 runs the
# same LLL search, and its answer, not CM (an S4 quartic field has no
# quadratic subfield), holds whatever the search finds.
FIELD_POLYS = (
    ("classify_cm", "1,1,0,0,1", None),                       # S4, totally imaginary
    ("classify_quartic", "-1,-1,0,0,1", "HasWanderer"),       # S4, signature (2,1)
    ("classify_quartic", "1,0,-4,0,1", "AllPreperiodic"),     # biquadratic, totally real
    ("classify_quartic", "1,-1,0,0,1", "AllPreperiodic"),     # totally imaginary
    ("classify_quintic", "-1,-1,0,0,0,1", "HasWanderer"),
)


# ---------------------------------------------------------------------------
# generation


def _rand_algnum(rng: random.Random, max_deg: int = 6, bound: int = 20):
    """(minpoly, root index) with the random draws of rand_algnum."""
    from mahlerdyn.factor import is_irreducible

    while True:
        deg = rng.randint(1, max_deg)
        coeffs = [rng.randint(-bound, bound) for _ in range(deg)]
        coeffs.append(rng.randint(1, bound))
        p = intpoly.canonicalize(intpoly.IntPoly(coeffs))
        if p.degree < 1 or p[0] == 0 or not is_irreducible(p):
            continue
        return p, rng.randrange(len(roots.isolate_roots(p)))


def _stratum(p) -> str:
    """Cost class of a minpoly: "light/" and its degree, as in "light/3", or
    the resolvent degree and the band of the leading coefficient, as in
    "20/6-10"."""
    n = p.degree
    with mp.workdps(30):
        rts = mp.polyroots([mp.mpf(c) for c in reversed(p.coeffs)], maxsteps=200, extraprec=100)
        s = sum(1 for r in rts if abs(r) > 1)
    size = math.comb(n, min(s, n - s)) if 0 < s < n else 1
    if size < 10:
        return f"light/{n}"
    lo = (abs(p.lc) - 1) // 5 * 5 + 1
    return f"{size}/{lo}-{lo + 4}"


def _fill(seed: int, quota: dict, seen: set) -> list[dict]:
    rng = random.Random(seed)
    left = dict(quota)
    out = []
    while any(left.values()):
        p, idx = _rand_algnum(rng)
        stratum = _stratum(p)
        if left.get(stratum, 0) and p not in seen:
            seen.add(p)
            left[stratum] -= 1
            out.append({"kind": "measure", "minpoly": intpoly.to_text(p),
                        "root_index": idx, "stratum": stratum})
    return out


def _quota(total: int, shares: dict) -> dict:
    """``total`` split in proportion to ``shares``, largest remainder first."""
    exact = {k: total * v / sum(shares.values()) for k, v in shares.items()}
    quota = {k: math.floor(x) for k, x in exact.items()}
    for k in sorted(exact, key=lambda k: quota[k] - exact[k])[:total - sum(quota.values())]:
        quota[k] += 1
    return quota


def _measure_items(seed: int) -> list[dict]:
    shares = {k: v for k, v in STREAM_SHARES.items() if not k.startswith(MEASURE_LEFT_OUT)}
    quota = _quota(MEASURE_OPS, shares)
    panel = {k: v for k, v in quota.items() if k.startswith(PANEL_DEGREES)}
    seeded = {k: v for k, v in quota.items() if k not in panel}
    seen: set = set()
    return _fill(seed, seeded, seen) + _fill(DEFAULT_SEED["measure-d6"], panel, seen)


def stream_shares(seed: int, draws: int) -> dict:
    """Share of each stratum among the first ``draws`` of rand_algnum's stream."""
    rng = random.Random(seed)
    counts: dict = {}
    for _ in range(draws):
        stratum = _stratum(_rand_algnum(rng)[0])
        counts[stratum] = counts.get(stratum, 0) + 1
    return {k: v / draws for k, v in sorted(counts.items())}


def _orbit_items(seed: int) -> list[dict]:
    from mahlerdyn.factor import is_irreducible

    items = []
    for label, text, verdict, detail in NAMED_ORBITS:
        p = intpoly.from_text(text)
        for idx in range(p.degree):
            items.append({"kind": "orbit", "minpoly": text, "root_index": idx,
                          "label": label, "verdict": verdict, "detail": detail})
    rng = random.Random(seed)
    seeded = 0
    while seeded < ORBIT_SEEDED:
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        p = intpoly.canonicalize(intpoly.IntPoly(coeffs))
        if p.degree < 2 or p[0] == 0 or p.lc != 1 or not is_irreducible(p):
            continue
        boxes = roots.isolate_roots(p)
        hits = [i for i, b in enumerate(boxes) if b.center[1] == 0 and b.center[0] - b.radius > 1]
        if hits:
            seeded += 1
            items.append({"kind": "orbit", "minpoly": intpoly.to_text(p), "root_index": hits[0],
                          "label": "seeded", "verdict": None, "detail": None,
                          "budget": ORBIT_SEEDED_BUDGET})
    return items


def _field_items() -> list[dict]:
    items = [{"kind": "classify_abelian", "invariants": list(inv), "expect": want}
             for inv, want in FIELD_ABELIAN]
    items += [{"kind": kind, "poly": text, "expect": want} for kind, text, want in FIELD_POLYS]
    return items


def generate(workload: str, seed: int | None = None) -> list[dict]:
    """The workload's ops for this seed, as JSON-ready items.

    With no seed, the workload's test seed (DEFAULT_SEED). field-smoke has no
    random inputs: every seed gives the same list."""
    if seed is None:
        seed = DEFAULT_SEED[workload]
    if workload == "measure-d6":
        return _measure_items(seed)
    if workload == "orbit-named":
        return _orbit_items(seed)
    if workload == "field-smoke":
        return _field_items()
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# ops
#
# Package functions are reached through their modules, so the traced pass
# sees the rebound names.


def run_op(item: dict):
    kind = item["kind"]
    if kind == "measure":
        return mahler.mahler_measure(algnum.an_deserialize(item))
    if kind == "orbit":
        return mahler.orbit(algnum.an_deserialize(item), item.get("budget"))
    if kind == "classify_abelian":
        return classify.classify_abelian(item["invariants"])
    return getattr(classify, kind)(intpoly.from_text(item["poly"]))


# ---------------------------------------------------------------------------
# checks

_DPS = 60
_REL = mp.mpf(10) ** -30


# Checks always run at _DPS. The conjugates of one orbit share every trace
# step after the first, so both oracles are cached for the pass.
@functools.lru_cache(maxsize=None)
def _value(a):
    """Numeric value of an algebraic number and the radius of its box."""
    box = roots.refine(a.box, a.minpoly, Fraction(1, 1 << 128))
    re, im = box.center
    return (mp.mpc(mp.mpf(re.numerator) / re.denominator, mp.mpf(im.numerator) / im.denominator),
            mp.mpf(box.radius.numerator) / box.radius.denominator)


@functools.lru_cache(maxsize=None)
def _numeric_measure(p):
    """|lc| * prod max(1, |r|) over mpmath's roots of p."""
    coeffs = [mp.mpf(c) for c in reversed(p.coeffs)]
    try:
        rts = mp.polyroots(coeffs, maxsteps=400, extraprec=4 * _DPS)
    except mp.NoConvergence:
        rts = mp.polyroots(coeffs, maxsteps=4000, extraprec=16 * _DPS)
    acc = mp.mpf(abs(p.lc))
    for r in rts:
        acc *= max(1, abs(r))
    return acc


def _close(got, rad, want) -> bool:
    return abs(got - want) <= rad + _REL * max(1, abs(want))


def _check_measure(item, m):
    p = intpoly.from_text(item["minpoly"])
    got, rad = _value(m)
    want = _numeric_measure(p)
    if not _close(got, rad, want):
        return f"measure {mp.nstr(got, 20)} differs from numeric {mp.nstr(want, 20)}"
    return None


def _check_orbit(item, r):
    v = r.verdict
    kind = type(v).__name__
    trace = r.trace
    if intpoly.to_text(trace[0].minpoly) != item["minpoly"]:
        return "trace does not start at the input"
    vals = [_value(t) for t in trace]
    for i in range(1, len(trace)):
        want = _numeric_measure(trace[i - 1].minpoly)
        if not _close(vals[i][0], vals[i][1], want):
            return f"trace step {i} differs from the numeric measure of step {i - 1}"
    if kind == "Preperiodic":
        fixed, rad = _value(v.fixed_point)
        if not (_close(fixed, rad, vals[-1][0]) and _close(vals[-1][0], vals[-1][1], vals[-2][0])):
            return "fixed point does not repeat numerically"
        if v.number_class.tag not in ("RationalInteger", "Pisot", "Salem"):
            return f"fixed point classified {v.number_class.tag}"
    elif kind == "Wandering":
        c = v.certificate
        if isinstance(c, mahler.PowerIdentity):
            lhs, base = vals[c.k][0], vals[c.l][0]
        elif isinstance(c, mahler.TorsionFreePower):
            lhs, base = vals[c.k][0], vals[0][0]
        else:
            return f"unexpected certificate {c!r}"
        if abs(lhs - base ** c.n) > _REL * abs(lhs):
            return f"certificate {c!r} fails numerically"
    elif not (kind == "Inconclusive" and item.get("budget") and v.reason.startswith("budget")):
        return f"verdict {v!r}"

    want, detail = item["verdict"], item["detail"]
    if want is None:  # seeded input: no known answer, but degree <= 3 never wanders
        if kind == "Wandering" and trace[0].degree <= 3:
            return "a degree <= 3 orbit wandered"
        return None
    if kind != want:
        return f"verdict {kind}, expected {want}"
    if kind == "Preperiodic" and detail is not None and v.number_class.tag != detail:
        return f"fixed point class {v.number_class.tag}, expected {detail}"
    if kind == "Wandering" and v.certificate != mahler.PowerIdentity(*detail):
        return f"certificate {v.certificate!r}, expected PowerIdentity{tuple(detail)}"
    return None


def _check_field(item, verdict):
    want = item["expect"]
    kind = type(verdict).__name__
    if item["kind"] == "classify_abelian" and want != "AllPreperiodic":
        got = getattr(verdict, "quotient", None)
        if kind != "HasWandererByTheorem" or got != want:
            return f"verdict {verdict!r}, expected wandering quotient {want}"
        return None
    if want is None:
        return None if verdict is None else f"verdict {verdict!r}, expected None (not CM)"
    if kind != want:
        return f"verdict {kind}, expected {want}"
    return None


def check(item: dict, output) -> str | None:
    """None when the output is right, otherwise what is wrong with it."""
    with mp.workdps(_DPS):
        if item["kind"] == "measure":
            return _check_measure(item, output)
        if item["kind"] == "orbit":
            return _check_orbit(item, output)
        return _check_field(item, output)
