"""Child process of the benchmark: input generation, or one cold pass.

    python3 bench/worker.py generate WORKLOAD SEED|default OUT [LIMIT]
    python3 bench/worker.py pass WORKLOAD INPUTS OUT [--trace] [--setup-only]

A pass prints ``ready`` once the interpreter has started, imported the
package and loaded its inputs; the parent times set-up up to that line. It
then runs every op back to back in this one thread, takes the peak RSS, and
only then checks the outputs, so checking is never timed.

While an untraced pass runs, a timer signal runs a fixed reference job every
``SAMPLE_EVERY_S`` of real time, inside whatever op is running (`HostSpeed`).
Its time is taken out of the op latencies and the pass wall, and the mean of
its samples gives the pass wall in reference-job units (``wall_ref``): the
host's speed drifts by a third over minutes, and both move with it.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fractions import Fraction  # noqa: E402

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul  # noqa: E402

import workloads  # noqa: E402


def _generate(workload: str, seed: int | None, out: Path, limit: int | None) -> None:
    items = workloads.generate(workload, seed)
    out.write_text(json.dumps(items[:limit] if limit else items))


def _cache_state() -> dict:
    # read from outside; a cache that a later version drops reads as empty
    import mahlerdyn.factor as factor
    import mahlerdyn.mahler as mahler
    import mahlerdyn.roots as roots

    def info(fn):
        ci = fn.cache_info() if hasattr(fn, "cache_info") else None
        return (ci.hits, ci.misses) if ci else (0, 0)

    return {
        "measure": len(getattr(mahler, "_measure_cache", ())),
        "isolate": info(getattr(roots, "_isolate_cached", None)),
        "factor": info(getattr(factor, "_factor_cached", None)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _trace_report(tracer, before: dict, after: dict) -> dict:
    summary = tracer.summary()
    counts = tracer.counts
    measure_calls = summary.get("mahler.mahler_measure", (0, 0.0))[0]
    inserted = after["measure"] - before["measure"]

    def lru_ratio(key):
        hits = after[key][0] - before[key][0]
        return _ratio(hits, hits + after[key][1] - before[key][1])

    return {
        "layers": {name: list(v) for name, v in summary.items()},
        "counts": dict(counts),
        "ratios": {
            "mahler.measure_cache_hit_ratio": _ratio(measure_calls - inserted, measure_calls),
            "roots.isolate_cache_hit_ratio": lru_ratio("isolate"),
            "factor.factor_cache_hit_ratio": lru_ratio("factor"),
            "nfield.nf_automorphisms.found_ratio": _ratio(
                counts["nfield.nf_automorphisms.found"], counts["nfield.nf_automorphisms.degree"]),
        },
        "spans": len(tracer.spans),
    }


SAMPLE_EVERY_S = 0.2


def _ref_job() -> None:
    """About 10 ms of fixed pure-Python work like the package's (Fractions,
    big integers, mpmath floats), using no package code and no global
    state, so it can run inside any op."""
    acc, x = Fraction(0), from_int(1)
    for i in range(1, 600):
        acc += Fraction(i * i + 1, 2 * i + 3)
        x = mpf_div(mpf_mul(x, from_int(i + 1), 170), mpf_add(x, from_int(i), 170), 170)
    n = 3 ** 4000
    for i in range(40):
        n = (n * (i + 7)) // (i + 5) + i


class HostSpeed:
    """Samples of the reference job's time, one before the timed loop, one
    every SAMPLE_EVERY_S of real time inside it, one after."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.busy = False

    def sample(self, *_) -> None:
        if self.busy:  # a tick that lands inside a sample is dropped
            return
        self.busy = True
        t0 = time.perf_counter()
        _ref_job()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spans.append((t0, t1))
        self.busy = False

    def start(self) -> None:
        _ref_job()  # warm-up
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def spent(self, a: float, b: float) -> float:
        """Seconds of sampling inside [a, b]."""
        return sum(max(0.0, min(t1, b) - max(t0, a)) for t0, t1 in self.spans)


def _pass(workload: str, inputs: Path, out: Path, trace: bool, setup_only: bool) -> None:
    items = json.loads(inputs.read_text())
    print("ready", flush=True)
    if setup_only:
        return
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    speed = HostSpeed()
    before = _cache_state()
    outputs, times = [], []
    if tracer is None:
        speed.start()
    start = time.perf_counter()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            outputs.append((True, workloads.run_op(item)))
        except Exception as e:  # an op that raises is a failed op, not a crash
            outputs.append((False, f"raised {type(e).__name__}: {e}"))
        times.append((t0, time.perf_counter()))
    end = time.perf_counter()
    if tracer is None:
        speed.stop()
    wall = end - start - speed.spent(start, end)
    latencies = [b - a - speed.spent(a, b) for a, b in times]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = None
    if tracer is not None:
        tracer.uninstall()
        report = _trace_report(tracer, before, _cache_state())

    failures = []
    for i, (item, (ok, value)) in enumerate(zip(items, outputs)):
        if ok:
            try:
                value = workloads.check(item, value)
            except Exception:  # a check that crashes counts the op as failed
                value = "check raised: " + traceback.format_exc(limit=3)
        if value is not None:
            failures.append({"index": i, "item": item, "error": value})
    out.write_text(json.dumps({
        "wall_s": wall,
        "wall_ref": wall / statistics.mean(speed.samples) if speed.samples else None,
        "ref_samples_s": speed.samples,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(items),
        "failures": failures,
        "trace": report,
    }))


def main(argv: list[str]) -> None:
    mode, workload = argv[0], argv[1]
    if mode == "generate":
        seed = None if argv[2] == "default" else int(argv[2])
        _generate(workload, seed, Path(argv[3]), int(argv[4]) if len(argv) > 4 else None)
    elif mode == "pass":
        _pass(workload, Path(argv[2]), Path(argv[3]), "--trace" in argv, "--setup-only" in argv)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
