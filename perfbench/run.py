"""spinctl benchmark: one workload run, measured end to end or traced per layer.

    python3 perfbench/run.py --workload {solve,mc,magnus} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  The run happens in a fresh single-threaded worker process
(BLAS/OpenMP threads pinned to 1 before numpy loads), so its peak RSS is the
run's own.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics.
``--smoke`` shrinks every workload for the self-test.  Artifacts, the
environment record and the span file go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5  # set-up is timed this many times per run; the median is reported
RUN_TIMEOUT_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("solve", "mc", "magnus"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="cut-down sizes (self-test)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def source_identity() -> dict:
    """Git commit when the checkout is a repository, and always a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def start_worker(args, work_dir: Path, deadline: float, setup_only: bool):
    """Start a worker; return (set-up seconds, its last stdout line or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", "smoke" if args.smoke else "full", "--work-dir", str(work_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker for {args.workload} overran {RUN_TIMEOUT_S:.0f} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: worker for {args.workload} failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup_s, (lines[-1] if lines else None)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (SRC / "spinctl" / "cli.py").is_file():
        print(f"perfbench: no spinctl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    record = {"host": platform.node(), "nproc": os.cpu_count(),
              "cpus_usable": len(os.sched_getaffinity(0)), "loadavg_before": os.getloadavg(),
              "threads": {v: "1" for v in THREAD_VARS}, **source_identity()}

    setup_s, line = start_worker(args, run_dir, deadline, setup_only=False)
    worker = json.loads(line)
    if not Path(worker["env"]["spinctl_file"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported spinctl from {worker['env']['spinctl_file']}, not {SRC}")
    record.update(worker.pop("env"))

    attempted, passed = worker["attempted"], worker["passed"]
    if args.trace:
        values = worker["layers"]
    else:
        setups = [setup_s] + [start_worker(args, run_dir / f"setup{i}", deadline, setup_only=True)[0]
                              for i in range(1, SETUP_SAMPLES)]
        values = {
            "setup_s": statistics.median(setups),
            "s_per_result": worker["work_s"] / max(passed, 1),
            "pass_frac": passed / attempted,
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        record["setup_samples_s"] = setups
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not produced: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record.update(args=vars(args), worker=worker, metrics=metrics)
    (run_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for note in worker["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    if args.trace:
        import spans

        spans.write_table(run_dir / "layers.txt", args.workload, metrics)
    print(json.dumps({"environment": {k: record[k] for k in record if k not in ("worker", "metrics")}}))
    print(json.dumps({
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
