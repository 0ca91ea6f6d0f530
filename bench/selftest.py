"""Self-test of the benchmark: tiny inputs, every metric named with its unit.

    python3 bench/selftest.py

For each workload, runs ``bench/run.py`` on its first three ops with tracing
off and on, and checks that the last output line is the result object with
every metric that BENCHMARK.json names for that mode, in its unit. Then
checks that a copy holding only BENCHMARK.json and bench/ fails without
printing a result. Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--limit", "3"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(spec: dict, workload: str, trace: int, proc) -> list[str]:
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{workload} trace={trace}: bad counts")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is not None and (entry.get("unit") != m["unit"]
                                  or not isinstance(entry.get("value"), (int, float))):
            problems.append(f"{workload} trace={trace}: {m['name']} is {entry}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += _check_result(spec, w["name"], trace, _run(ROOT, w["name"], trace))

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a copy without the package did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
