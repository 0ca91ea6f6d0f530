"""Benchmark entry point.

    python3 bench/run.py --workload measure-d6 --seed 1 --seconds 48 --trace 0

Generates the workload's inputs from the seed in a process of its own, times
set-up in a few start-only processes, then runs cold passes, each in a fresh
interpreter (one process, one thread, a closed loop with one caller): as many
as ``--seconds`` holds at the workload's nominal pass length, at least one.
``--trace 1`` runs one untraced and one traced pass instead and reports the
per-layer metrics. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
Every run also writes its raw passes, failures and an environment stamp to
``bench/out/``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("measure-d6", "orbit-named", "field-smoke")

SETUP_PROBES = 7
# seconds of one pass on a 2-vCPU x86_64 host, with its process start and
# output checks. The pass count follows from these and --seconds, never
# from the speed of the host at the time.
PASS_S = {"measure-d6": 10, "orbit-named": 15, "field-smoke": 27}

TRACED_FNS = (
    "roots.isolate_roots", "roots.refine", "roots.circle_partition",
    "intpoly.sturm_real_roots", "intpoly.resultant", "mpmath.polyroots",
    "factor.factor_z", "factor.is_irreducible", "mpmath.pslq",
    "mahler.mahler_measure", "mahler.wandering_certificate",
    "algnum.an_mul", "algnum.an_pow", "algnum.an_equal", "algnum.an_from_poly_root",
    "nfield.nf_automorphisms", "nfield.nf_unit_sublattice", "nfield.nf_pattern_search",
    "sympy.lll",
    "classify.classify_cm", "classify.classify_quartic", "classify.classify_quintic",
    "classify.classify_abelian",
)
TRACED_COUNTS = (
    "mpmath.polyroots.failed", "mpmath.pslq.no_relation", "mpmath.pslq.failed",
    "sympy.lll.failed", "nfield.nf_pattern_search.not_found",
)
TRACED_RATIOS = (
    "mahler.measure_cache_hit_ratio", "roots.isolate_cache_hit_ratio",
    "factor.factor_cache_hit_ratio", "nfield.nf_automorphisms.found_ratio",
)


class BenchError(Exception):
    pass


def _env() -> dict:
    """Stamp for the result file: results from another environment do not compare."""
    versions = {}
    for mod in ("mpmath", "sympy", "numpy"):
        try:
            versions[mod] = __import__(mod).__version__
        except ImportError:
            versions[mod] = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # a checkout without .git may sit inside another repository
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "machine": platform.machine()}


def _child_env() -> dict:
    # a fixed hash seed makes set and dict orders, and so the search paths
    # that depend on them, the same in every pass
    return {**os.environ, "PYTHONHASHSEED": "0"}


def _generate(workload: str, seed: str, path: Path, limit: int | None, deadline: float) -> list:
    cmd = [sys.executable, str(WORKER), "generate", workload, seed, str(path)]
    if limit:
        cmd.append(str(limit))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_child_env(),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"input generation failed:\n{proc.stderr}")
    return json.loads(path.read_text())


def _pass(workload: str, inputs: Path, out: Path, deadline: float, *flags: str):
    """(set-up seconds, pass result or None for a set-up probe)."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "pass", workload, str(inputs), str(out),
                             *flags], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env())
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} pass overran the run deadline")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} pass failed (exit {proc.returncode}):\n{err}")
    if "--setup-only" in flags:
        return setup, None
    return setup, json.loads(out.read_text())


def _quantile(values: list[float], q: float) -> float:
    values = sorted(values)
    return values[min(len(values) - 1, int(q * len(values)))]


def _end_to_end(passes: list[dict], setups: list[float]) -> dict:
    return {
        "wall_ref": {"value": statistics.median(p["wall_ref"] for p in passes), "unit": "ref"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }


def _per_layer(plain: dict, traced: dict) -> dict:
    report = traced["trace"]
    layers, counts, ratios = report["layers"], report["counts"], report["ratios"]
    metrics = {}
    for name in TRACED_FNS:
        calls, self_s = layers.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in TRACED_COUNTS:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    for name in TRACED_RATIOS:
        metrics[name] = {"value": ratios[name], "unit": "ratio"}
    lat = plain["latencies_s"]
    metrics["op.p50_s"] = {"value": statistics.median(lat), "unit": "s"}
    metrics["op.p90_s"] = {"value": _quantile(lat, 0.9), "unit": "s"}
    metrics["pass.wall_s"] = {"value": plain["wall_s"], "unit": "s"}
    metrics["host.ref_job_s"] = {"value": statistics.median(plain["ref_samples_s"]),
                                 "unit": "s"}
    metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    metrics["trace.spans"] = {"value": report["spans"], "unit": "count"}
    return metrics


def run(workload: str, seed: int | None, seconds: int, trace: bool, limit: int | None) -> dict:
    if not (ROOT / "src" / "mahlerdyn").is_dir():
        raise BenchError(f"no package source at {ROOT / 'src' / 'mahlerdyn'}")
    n_passes = 2 if trace else max(1, seconds // PASS_S[workload])
    # the whole run ends within twice the nominal time of its passes, plus
    # 30 s for generation and set-up
    deadline = time.monotonic() + 30 + 2 * n_passes * PASS_S[workload]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{workload}.seed{seed}.trace{int(trace)}.{os.getpid()}"
    inputs = out_dir / f"{tag}.inputs.json"
    scratch = out_dir / f"{tag}.pass.json"
    items = _generate(workload, "default" if seed is None else str(seed), inputs, limit, deadline)

    setups = [_pass(workload, inputs, scratch, deadline, "--setup-only")[0]
              for _ in range(SETUP_PROBES)]
    passes = []
    for i in range(n_passes):
        flags = ("--trace",) if trace and i == 1 else ()
        setup, result = _pass(workload, inputs, scratch, deadline, *flags)
        setups.append(setup)
        passes.append(result)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = _per_layer(*passes) if trace else _end_to_end(passes, setups)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (out_dir / f"{tag}.result.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "ops": len(items), "env": _env(), "setups_s": setups, "passes": passes,
        "result": result}, indent=1))
    inputs.unlink()
    scratch.unlink(missing_ok=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the seed of the tests the workload draws from)")
    ap.add_argument("--seconds", type=int, default=48)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first N ops (the self-test's tiny inputs)")
    args = ap.parse_args()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.limit)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
