"""Span tracing for the benchmark's traced run, recorded from outside the program.

``instrument`` rebinds the public functions of each spinctl module (the
layers; every function whose name has no leading underscore) wherever a
spinctl module holds them, so a span is recorded around every call into a
layer's public functions, including the benchmark's calls into
``spinctl.cli``.  The optimizer's call into ``scipy.optimize.minimize`` is
rebound too, and the L-BFGS counts are read from the ``OptimizeResult`` it
returns.

Each span records name, start, end, parent span and operation id.  Spans are
held in flat in-memory arrays and written out once, by ``Tracer.save``.  Self
time is a span's duration minus the durations of its direct children, which
run one after another inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("quat", "magnus", "noise", "evolution", "fidelity", "optimizer", "cli")
# Calls whose peak traced memory is measured, by replaying them untimed.
MEMORY_REPLAYED = ("optimizer.refine_deviation",)

MB = 1024.0 * 1024.0


class Tracer:
    """In-memory span store plus per-operation counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.replays: list = []

    def count(self, key: str, value: float) -> None:
        self.counters[self.op_id][key] += value

    def replay_peak_memory(self) -> None:
        """Call each recorded ``MEMORY_REPLAYED`` call again under tracemalloc.

        The peak traced bytes go to that call's operation.  Replaying keeps
        tracemalloc's cost out of the traced timings; spans of the replay
        belong to no operation.
        """
        replays, self.replays = self.replays, []
        op_id, self.op_id = self.op_id, -1
        for op, key, fn, args, kwargs in replays:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak(key, peak / MB, op)
        self.op_id = op_id

    def peak(self, key: str, value: float, op: int | None = None) -> None:
        c = self.counters[self.op_id if op is None else op]
        c[key] = max(c.get(key, 0.0), value)

    def wrap(self, span_name: str, fn, on_return=None):
        """Return ``fn`` recording one span per call; ``on_return(result, args, kwargs)``."""
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span (and the name table) to ``path`` (.npz)."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, op_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds within one operation."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        sel = a["op"] == op_id
        for nid, name in enumerate(self.names):
            m = sel & (a["name"] == nid)
            if m.any():
                out[name] = {"calls": int(m.sum()), "s": float(dur[m].sum()),
                             "self_s": float(self_time[m].sum())}
        return out


def _hooks(tracer: Tracer) -> dict[str, object]:
    """Counters read at layer boundaries, keyed by span name."""

    def lbfgs(res, args, kwargs):
        tracer.count("optimizer.lbfgs.nfev", res.nfev)
        tracer.count("optimizer.lbfgs.nit", res.nit)

    def solve(sol, args, kwargs):
        tracer.count("optimizer.solve.certified", 1)

    def ordered_exp_batch(res, args, kwargs):
        values = args[0]
        tracer.count("magnus.ordered_exp_batch.steps", values.shape[0] * (values.shape[1] - 1))

    def solve_m_ode(res, args, kwargs):
        tracer.count("magnus.solve_m_ode.steps", args[0].values.shape[0] - 1)

    def assemble_covariance(cov, args, kwargs):
        d = cov.factor.shape[0]
        tracer.peak("noise.assemble_covariance.jitter", cov.jitter)
        tracer.peak("noise.cov_mb", (cov.matrix.nbytes + cov.factor.nbytes) / MB)
        tracer.count("noise.cholesky_gflop", d**3 / 3.0 / 1e9)

    def sample_block(paths, args, kwargs):
        d = args[0].factor.shape[0]
        tracer.count("noise.sample_block.paths", paths.shape[0])
        tracer.count("noise.coloring_gflop", 2.0 * paths.shape[0] * d * d / 1e9)

    return {
        "optimizer.lbfgs": lbfgs,
        "optimizer.solve": solve,
        "magnus.ordered_exp_batch": ordered_exp_batch,
        "magnus.solve_m_ode": solve_m_ode,
        "noise.assemble_covariance": assemble_covariance,
        "noise.sample_block": sample_block,
    }


def instrument(tracer: Tracer) -> None:
    """Rebind every public spinctl function, in every spinctl module, to a traced wrapper.

    Module globals are looked up at call time, so rebinding the name in each
    module that imported it (the owner included) catches every call; the
    package must be imported and not yet instrumented.
    """
    modules = [sys.modules[f"spinctl.{name}"] for name in LAYERS]
    hooks = _hooks(tracer)

    def rebind(owner, attr, span_name):
        orig = getattr(owner, attr)
        hook = hooks.get(span_name)
        if span_name in MEMORY_REPLAYED:
            def hook(result, args, kwargs):
                tracer.replays.append((tracer.op_id, f"{span_name}.peak_mb", orig, args, kwargs))
        traced = tracer.wrap(span_name, orig, hook)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)

    for layer, mod in zip(LAYERS, modules):
        for attr, obj in list(vars(mod).items()):
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                rebind(mod, attr, f"{layer}.{attr}")
    rebind(sys.modules["spinctl.optimizer"], "minimize", "optimizer.lbfgs")


# Per-layer metric -> the end-to-end metric and workload it should move.
TARGETS = {
    "optimizer.solve": "s_per_result and pass_frac on solve",
    "optimizer.lbfgs": "s_per_result and pass_frac on solve",
    "optimizer.eval_ms": "s_per_result on solve",
    "optimizer.refine_deviation.s": "s_per_result on solve",
    "optimizer.refine_deviation.peak_mb": "peak_rss_mb on solve",
    "optimizer.evaluate_deviation": "s_per_result on mc (negligible; predict no change); "
                                    "inside refine_deviation on solve",
    "optimizer.stall_probe": "pass_frac on solve once lambda_inv=50 certifies",
    "quat": "s_per_result on solve (qexp_vec also on mc, inside ordered_exp_batch)",
    "magnus.ordered_exp_batch": "s_per_result on mc",
    "magnus.solve_m_ode": "s_per_result on magnus",
    "magnus.time_ordered_exp": "s_per_result on magnus",
    "magnus.random_smooth_path": "s_per_result on magnus",
    "noise.assemble_covariance": "s_per_result on mc",
    "noise.sample_block": "s_per_result on mc",
    "noise.cov_mb": "peak_rss_mb on mc",
    "noise.cholesky_gflop": "s_per_result on mc (computed, d^3/3)",
    "noise.coloring_gflop": "s_per_result on mc (computed, 2*paths*d^2)",
    "fidelity": "s_per_result on mc",
    "evolution.propagate_triad": "none: propagate_triad is on no CLI path",
    "evolution": "none; predict no change anywhere",
    "cli.validate_config": "setup_s",
    "cli.run": "s_per_result on every workload",
    "cli": "pass_frac",
    "trace.op_s": "s_per_result (traced wall of the operation)",
    "trace.overhead_frac": "none: cost of tracing itself",
}


def target_of(metric: str) -> str:
    parts = metric.split(".")
    for k in range(len(parts), 0, -1):
        key = ".".join(parts[:k])
        if key in TARGETS:
            return TARGETS[key]
    return ""


def layer_metrics(tracer: Tracer, op_id: int) -> dict[str, float]:
    """Per-layer metric values for one traced operation (see BENCHMARK.json)."""
    spans = tracer.summary(op_id)
    counters = tracer.counters[op_id]

    def span(name, field="s"):
        return spans.get(name, {}).get(field, 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    for name in ("optimizer.solve", "fidelity.mc_fidelity", "fidelity.action_S",
                 "magnus.ordered_exp_batch", "magnus.solve_m_ode", "magnus.time_ordered_exp",
                 "noise.assemble_covariance", "quat.qmul_wxyz", "quat.qexp_vec",
                 "quat.quat_to_matrix"):
        m[f"{name}.s"] = span(name)
        m[f"{name}.calls"] = span(name, "calls")
    for name in ("optimizer.refine_deviation", "optimizer.evaluate_deviation",
                 "magnus.random_smooth_path", "noise.sample_block", "cli.validate_config",
                 "cli.run"):
        m[f"{name}.s"] = span(name)
    m["optimizer.solve.certified"] = counters.get("optimizer.solve.certified", 0.0)
    m["optimizer.lbfgs.s"] = span("optimizer.lbfgs")
    m["optimizer.lbfgs.rounds"] = span("optimizer.lbfgs", "calls")
    m["optimizer.lbfgs.nfev"] = counters.get("optimizer.lbfgs.nfev", 0.0)
    m["optimizer.lbfgs.nit"] = counters.get("optimizer.lbfgs.nit", 0.0)
    m["optimizer.eval_ms"] = 1e3 * rate(m["optimizer.lbfgs.s"], m["optimizer.lbfgs.nfev"])
    m["optimizer.refine_deviation.peak_mb"] = counters.get("optimizer.refine_deviation.peak_mb", 0.0)
    m["magnus.ordered_exp_batch.steps_per_s"] = rate(
        counters.get("magnus.ordered_exp_batch.steps", 0.0), m["magnus.ordered_exp_batch.s"])
    m["magnus.solve_m_ode.steps_per_s"] = rate(
        counters.get("magnus.solve_m_ode.steps", 0.0), m["magnus.solve_m_ode.s"])
    m["noise.assemble_covariance.jitter"] = counters.get("noise.assemble_covariance.jitter", 0.0)
    m["noise.sample_block.paths"] = counters.get("noise.sample_block.paths", 0.0)
    m["noise.sample_block.paths_per_s"] = rate(m["noise.sample_block.paths"], m["noise.sample_block.s"])
    for key in ("noise.cov_mb", "noise.cholesky_gflop", "noise.coloring_gflop"):
        m[key] = counters.get(key, 0.0)
    m["fidelity.mc_fidelity.self_s"] = span("fidelity.mc_fidelity", "self_s")
    evolution = [v for k, v in spans.items() if k.startswith("evolution.")]
    m["evolution.calls"] = float(sum(v["calls"] for v in evolution))
    m["evolution.s"] = sum(v["s"] for v in evolution)
    m["evolution.propagate_triad.calls"] = span("evolution.propagate_triad", "calls")
    return {k: float(v) for k, v in m.items()}


def write_table(path: Path, workload: str, metrics: dict[str, dict]) -> None:
    """Human-readable per-layer table with each metric's target end-to-end metric."""
    op_s = metrics["trace.op_s"]["value"]
    rows = [f"per-layer metrics, workload {workload}, one traced operation of {op_s:.3f} s"]
    for name, mv in metrics.items():
        share = f"{100.0 * mv['value'] / op_s:5.1f}%" if mv["unit"] == "s" and op_s > 0 else ""
        rows.append(f"{name:36s} {mv['value']:>12.6g} {mv['unit']:6s} {share:>6s} -> {target_of(name)}")
    path.write_text("\n".join(rows) + "\n")
    print("\n".join(rows))
