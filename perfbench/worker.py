"""One workload run in its own process; started by perfbench/run.py, not by hand.

The parent sets the BLAS/OpenMP thread variables and PYTHONPATH before this
process starts.  Protocol on stdout: the line ``ready`` once set-up (imports,
input generation, ``cli.validate_config``) is done, then one JSON object as
the last line.  The CLI's own stdout is sent to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spinctl
from spinctl import cli

import workloads

CRASHED = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Runner:
    """Writes operation configs and runs them through ``cli.main``."""

    def __init__(self, args):
        self.args = args
        self.kind = workloads.CLI_KIND[args.workload]
        self.ops = []  # (config, exit code, wall seconds)

    def prepare(self, index: int, tag: str = "op", **overrides) -> Path:
        config = workloads.op_config(self.args.workload, self.args.seed, index, self.args.size,
                                     str(self.args.work_dir / f"{tag}{index}"), **overrides)
        path = self.args.work_dir / f"{tag}{index}.json"
        path.write_text(json.dumps(config))
        return path

    def call(self, path: Path) -> tuple[int, float]:
        """Run one CLI call and record it; returns exit code and wall seconds.

        An exception escaping the CLI is a failed operation (exit code
        CRASHED), not a failed benchmark run.
        """
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            try:
                code = cli.main([self.kind, str(path)])
            except Exception:
                traceback.print_exc()
                code = CRASHED
            wall = time.perf_counter() - start
        self.ops.append((json.loads(path.read_text()), code, wall))
        return code, wall


def traced_layers(runner: Runner) -> dict[str, float]:
    """Per-layer metrics: the first operation again, traced, then (solve) the stall probe."""
    import spans

    tracer = spans.Tracer()
    spans.instrument(tracer)
    tracer.op_id = 0
    runner.call(runner.prepare(0, tag="traced"))
    if runner.args.workload == "solve":
        tracer.op_id = 1
        probe_code, probe_s = runner.call(
            runner.prepare(0, tag="probe", **workloads.PROBE[runner.args.size]))
        runner.ops.pop()  # the probe is a measurement of the optimizer, not an operation
    else:
        probe_code, probe_s = 1, 0.0
    tracer.op_id = -1
    tracer.replay_peak_memory()
    tracer.save(runner.args.work_dir / "spans.npz")

    layers = spans.layer_metrics(tracer, 0)
    untraced, traced = runner.ops[0][2], runner.ops[1][2]
    layers["trace.op_s"] = traced
    layers["trace.overhead_frac"] = (traced - untraced) / untraced
    layers["optimizer.stall_probe.certified"] = float(probe_code == 0)
    layers["optimizer.stall_probe.s"] = probe_s
    layers["optimizer.stall_probe.nfev"] = spans.layer_metrics(tracer, 1)["optimizer.lbfgs.nfev"]
    return layers


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "spinctl_file": spinctl.__file__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    args.work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args)
    first = runner.prepare(0)
    cli.validate_config(first.read_text())
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # Closed loop: one operation at a time until the next would overrun the
    # run time.  The traced run times one untraced operation as its baseline.
    path = first
    while True:
        runner.call(path)
        walls = [op[2] for op in runner.ops]
        if args.trace or sum(walls) + statistics.median(walls) > args.seconds:
            break
        path = runner.prepare(len(runner.ops))
    work_s = sum(walls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = traced_layers(runner) if args.trace else None

    ref = workloads.load_reference()
    outcomes = [
        workloads.check(args.workload, args.size, config, Path(config["out_dir"]), code, ref)
        for config, code, _ in runner.ops
    ]
    if layers is not None:
        layers["cli.csv_rows"] = float(outcomes[-1].csv_rows)
        layers["cli.report_error_rows"] = float(outcomes[-1].report_error_rows)
    print(json.dumps({
        "env": environment(),
        "attempted": sum(o.attempted for o in outcomes),
        "passed": sum(o.passed for o in outcomes),
        "notes": [n for o in outcomes for n in o.notes],
        "ops": [{"exit_code": code, "wall_s": wall} for _, code, wall in runner.ops],
        "work_s": work_s,
        "peak_rss_mb": peak,
        "layers": layers,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
