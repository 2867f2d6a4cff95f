"""Self-test of the benchmark: every named metric is printed with its unit.

    python3 perfbench/selftest.py

Runs perfbench/run.py on cut-down sizes (--smoke) for every workload, once
untraced and once traced, and checks that the last stdout line is the result
object with every end-to-end (untraced) or per-layer (traced) metric of
BENCHMARK.json under its unit, and that every check passed.  It asserts
nothing about timings.  It also checks that the benchmark refuses to run, and
prints no result, in a directory holding only BENCHMARK.json and perfbench/.
Takes about four minutes; exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(done: subprocess.CompletedProcess, wanted: list[dict], label: str) -> None:
    if done.returncode != 0:
        raise SystemExit(f"{label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        raise SystemExit(f"{label}: checks failed: {result}\n{done.stderr}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"{label}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"{label}: bad metric {m['name']}: {got}")
    print(f"ok  {label}: {len(metrics)} metrics")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            check_result(run(ROOT, workload, trace), wanted, f"{workload} trace={trace}")

    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or '"correct"' in done.stdout:
        raise SystemExit("bare directory: benchmark ran without the program sources")
    shutil.rmtree(bare)
    print("ok  bare directory: refused without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
