"""Batch front end: JSON configs in, CSV/JSON artifacts out.

Subcommands::

    spinctl solve <config.json>         one constrained optimization
    spinctl sweep <config.json>         warm-started continuation in lambda_inv
    spinctl mc-validate <config.json>   Monte Carlo vs analytic fidelity
    spinctl magnus-check <config.json>  ordered-exponential consistency table
    spinctl kernel-table <config.json>  kernel profile as CSV

``--grid N`` overrides the config grid size; the environment variable
SPINCTL_OUT overrides the output directory.  Outputs are deterministic for a
fixed config and seed: CSV bodies are byte-identical across runs, and only
the JSON report header carries wall-clock information.

Exit status: 0 ok, 1 config error, 2 solver failure (including any failed
sweep point, each named on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, SpinctlError
from .evolution import TargetRotation
from .fidelity import SpinNumber, action_S, fidelity_weak, mc_fidelity_table
from .magnus import TimeGrid, random_smooth_path, solve_m_ode, time_ordered_exp
from .noise import DiagonalConstant, NoiseKernel, OneOverF
from .optimizer import (
    OptimizationProblem,
    evaluate_deviation,
    refine_deviation,
    solve,
    sweep_lambda,
)
from .quat import PureQuat, qexp

__all__ = ["RunConfig", "RunReport", "validate_config", "run", "main"]

KINDS = ("solve", "sweep", "mc-validate", "magnus-check", "kernel-table")

_DEFAULT_GRID = {
    "solve": 512,
    "sweep": 512,
    "mc-validate": 256,
    "magnus-check": 10000,
    "kernel-table": 0,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (one experiment kind per file)."""

    kind: str
    tau: float
    kernel: NoiseKernel | None
    target: TargetRotation | None
    lambda_inv: tuple[float, ...]
    epsilon: tuple[float, ...]
    two_s: tuple[int, ...]
    grid_steps: int
    refine_steps: int
    mc_samples: int
    paths: int
    table_points: int
    seed: int | None
    out_dir: str
    echo: dict = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class RunReport:
    """Everything needed to trace reported numbers back to the config."""

    config_echo: dict
    rows: list
    wall_clock_s: float
    version: str
    grid_deltas: dict


def _check_number(diags, cfg, key, *, required=False, positive=False, nonneg=False, default=None):
    if key not in cfg:
        if required:
            diags.append(f"missing required field '{key}'")
        return default
    v = cfg[key]
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(float(v)):
        diags.append(f"field '{key}' must be a finite number")
        return default
    v = float(v)
    if positive and v <= 0.0:
        diags.append(f"field '{key}' must be > 0")
        return default
    if nonneg and v < 0.0:
        diags.append(f"field '{key}' must be >= 0")
        return default
    return v


def _check_int(diags, cfg, key, *, required=False, minimum=None, default=None):
    if key not in cfg:
        if required:
            diags.append(f"missing required field '{key}'")
        return default
    v = cfg[key]
    if not isinstance(v, int) or isinstance(v, bool):
        diags.append(f"field '{key}' must be an integer")
        return default
    if minimum is not None and v < minimum:
        diags.append(f"field '{key}' must be >= {minimum}")
        return default
    return v


def _parse_kernel(diags, cfg) -> NoiseKernel | None:
    spec = cfg.get("kernel")
    if spec is None:
        diags.append("missing required field 'kernel'")
        return None
    if not isinstance(spec, dict):
        diags.append("field 'kernel' must be an object")
        return None
    ktype = spec.get("type")
    if ktype == "one_over_f":
        allowed = {"type", "xi", "gamma_lo", "gamma_hi", "axis"}
        for key in spec:
            if key not in allowed:
                diags.append(f"kernel: unknown key '{key}'")
        xi = _check_number(diags, spec, "xi", required=True, positive=True)
        glo = _check_number(diags, spec, "gamma_lo", required=True, positive=True)
        ghi = _check_number(diags, spec, "gamma_hi", required=True, positive=True)
        if glo is not None and ghi is not None and glo >= ghi:
            diags.append("kernel: cutoffs must satisfy gamma_lo < gamma_hi")
            return None
        axis = spec.get("axis", [1.0, 0.0, 0.0])
        if not (isinstance(axis, list) and len(axis) == 3):
            diags.append("kernel: 'axis' must be a 3-element list")
            return None
        if None in (xi, glo, ghi):
            return None
        try:
            return OneOverF(xi, glo, ghi, tuple(float(a) for a in axis))
        except ValueError as exc:
            diags.append(f"kernel: {exc}")
            return None
    if ktype == "diagonal_constant":
        for key in spec:
            if key not in {"type", "kappa"}:
                diags.append(f"kernel: unknown key '{key}'")
        kappa = spec.get("kappa")
        if not (isinstance(kappa, list) and len(kappa) == 3):
            diags.append("kernel: 'kappa' must be a 3-element list")
            return None
        try:
            return DiagonalConstant(tuple(float(k) for k in kappa))
        except ValueError as exc:
            diags.append(f"kernel: {exc}")
            return None
    diags.append("kernel: 'type' must be 'one_over_f' or 'diagonal_constant'")
    return None


def _parse_target(diags, cfg) -> TargetRotation | None:
    spec = cfg.get("target")
    if spec is None:
        diags.append("missing required field 'target'")
        return None
    if not isinstance(spec, dict):
        diags.append("field 'target' must be an object")
        return None
    for key in spec:
        if key not in {"axis", "angle", "winding"}:
            diags.append(f"target: unknown key '{key}'")
    axis = spec.get("axis")
    if not (isinstance(axis, list) and len(axis) == 3):
        diags.append("target: 'axis' must be a 3-element list")
        return None
    angle = _check_number(diags, spec, "angle", required=True, nonneg=True)
    winding = _check_int(diags, spec, "winding", minimum=None, default=0)
    if angle is None or winding is None:
        return None
    try:
        return TargetRotation.from_axis_angle([float(a) for a in axis], angle, winding)
    except ValueError as exc:
        diags.append(f"target: {exc}")
        return None


def _parse_list(diags, cfg, key, *, required, kind, minimum=None, default=()):
    if key not in cfg:
        if required:
            diags.append(f"missing required field '{key}'")
        return tuple(default)
    vals = cfg[key]
    if not isinstance(vals, list) or not vals:
        diags.append(f"field '{key}' must be a non-empty list")
        return tuple(default)
    out = []
    for v in vals:
        if kind == "int" and (not isinstance(v, int) or isinstance(v, bool)):
            diags.append(f"field '{key}' must contain integers")
            return tuple(default)
        if kind == "number" and (not isinstance(v, (int, float)) or isinstance(v, bool)):
            diags.append(f"field '{key}' must contain numbers")
            return tuple(default)
        v = int(v) if kind == "int" else float(v)
        if minimum is not None and v < minimum:
            diags.append(f"field '{key}' entries must be >= {minimum}")
            return tuple(default)
        out.append(v)
    return tuple(out)


def validate_config(raw_text: str) -> RunConfig:
    """Parse and fully validate a JSON config, aggregating all violations.

    Raises
    ------
    ConfigError
        With one diagnostic per violated field; nothing is computed first.
    """
    diags: list[str] = []
    try:
        cfg = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(["config root must be a JSON object"])

    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"field 'kind' must be one of {', '.join(KINDS)}"])

    known = {
        "kind", "tau", "kernel", "target", "lambda_inv", "epsilon", "two_s",
        "grid_steps", "refine_steps", "mc_samples", "paths", "table_points",
        "seed", "out_dir",
    }
    for key in cfg:
        if key not in known:
            diags.append(f"unknown key '{key}'")

    tau = _check_number(diags, cfg, "tau", required=True, positive=True, default=1.0)

    kernel = None
    if kind != "magnus-check":
        kernel = _parse_kernel(diags, cfg)

    target = None
    if kind in ("solve", "sweep", "mc-validate"):
        target = _parse_target(diags, cfg)

    if kind == "sweep":
        lambda_inv = _parse_list(diags, cfg, "lambda_inv", required=True, kind="number", minimum=0.0)
        if lambda_inv and (lambda_inv[0] != 0.0 or any(b <= a for a, b in zip(lambda_inv, lambda_inv[1:]))):
            diags.append("field 'lambda_inv' must start at 0 and increase strictly")
    elif kind == "solve":
        lam = _check_number(diags, cfg, "lambda_inv", required=True, nonneg=True)
        lambda_inv = (lam,) if lam is not None else ()
    elif kind == "mc-validate":
        lam = _check_number(diags, cfg, "lambda_inv", nonneg=True, default=0.0)
        lambda_inv = (lam,) if lam is not None else (0.0,)
    else:
        lambda_inv = ()
        if "lambda_inv" in cfg:
            diags.append(f"field 'lambda_inv' is not used by kind '{kind}'")

    epsilon: tuple[float, ...] = ()
    two_s: tuple[int, ...] = ()
    if kind in ("sweep", "mc-validate"):
        epsilon = _parse_list(diags, cfg, "epsilon", required=True, kind="number", minimum=0.0)
        two_s = _parse_list(diags, cfg, "two_s", required=True, kind="int", minimum=1)
    elif kind == "magnus-check":
        epsilon = _parse_list(diags, cfg, "epsilon", required=False, kind="number", minimum=0.0,
                              default=(0.1, 0.5, 1.0))
    elif kind == "solve":
        epsilon = _parse_list(diags, cfg, "epsilon", required=False, kind="number", minimum=0.0)
        two_s = _parse_list(diags, cfg, "two_s", required=False, kind="int", minimum=1)

    grid_steps = _check_int(diags, cfg, "grid_steps", minimum=2, default=_DEFAULT_GRID[kind])
    refine_steps = _check_int(diags, cfg, "refine_steps", minimum=0, default=2048)
    mc_samples = _check_int(diags, cfg, "mc_samples", minimum=2, default=10000)
    paths = _check_int(diags, cfg, "paths", minimum=1, default=20)
    table_points = _check_int(diags, cfg, "table_points", minimum=2, default=101)

    seed = _check_int(diags, cfg, "seed", default=None)
    if kind in ("mc-validate", "magnus-check") and seed is None:
        diags.append(f"field 'seed' is mandatory for kind '{kind}'")

    out_dir = cfg.get("out_dir", "out")
    if not isinstance(out_dir, str):
        diags.append("field 'out_dir' must be a string")
        out_dir = "out"

    if diags:
        raise ConfigError(diags)
    return RunConfig(
        kind=kind,
        tau=tau,
        kernel=kernel,
        target=target,
        lambda_inv=lambda_inv,
        epsilon=epsilon,
        two_s=two_s,
        grid_steps=grid_steps,
        refine_steps=refine_steps,
        mc_samples=mc_samples,
        paths=paths,
        table_points=table_points,
        seed=seed,
        out_dir=out_dir,
        echo=cfg,
    )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _spin_label(two_s: int) -> str:
    return f"{two_s / 2:g}"


def _run_kernel_table(config: RunConfig, out: Path):
    svals = np.linspace(0.0, config.tau, config.table_points)
    rows = [[s, nxx] for s, nxx in zip(svals, config.kernel.matrix_batch(svals)[:, 0, 0])]
    _write_csv(out / "kernel.csv", ["s", "N_xx"], rows)
    return [{"s": r[0], "N_xx": r[1]} for r in rows], {}


def _run_magnus_check(config: RunConfig, out: Path):
    grid = TimeGrid(config.tau, config.grid_steps)
    rng = np.random.default_rng(config.seed)
    rows = []
    for p in range(config.paths):
        path = random_smooth_path(grid, rng)
        for eps in config.epsilon:
            m = solve_m_ode(path, eps)
            ex = qexp(PureQuat.from_array(0.5 * eps * m.values[-1]))
            oracle = time_ordered_exp(path, eps)
            mismatch = math.sqrt(sum((a - b) ** 2 for a, b in zip(ex.wxyz(), oracle.wxyz())))
            rows.append([p, eps, grid.n_steps, mismatch])
    _write_csv(out / "magnus.csv", ["path_index", "epsilon", "n_steps", "mismatch"], rows)
    worst = max(r[3] for r in rows)
    report_rows = [{"path_index": r[0], "epsilon": r[1], "n_steps": r[2], "mismatch": r[3]} for r in rows]
    return report_rows, {"worst_mismatch": worst}


def _run_mc_validate(config: RunConfig, out: Path):
    lam = config.lambda_inv[-1]
    grid = TimeGrid(config.tau, config.grid_steps)
    problem = OptimizationProblem(
        kernel=config.kernel, target=config.target, tau=config.tau,
        lambda_inv=lam, grid=grid,
    )
    sol = evaluate_deviation(problem, np.zeros((grid.n_nodes, 3))) if lam == 0.0 else solve(problem)
    s_val = action_S(sol.triad, config.kernel)
    table = mc_fidelity_table(
        sol.triad, config.kernel, config.epsilon, [SpinNumber(ts) for ts in config.two_s],
        config.mc_samples, config.seed,
    )
    rows = [
        [
            eps, _spin_label(ts), s_val, est.analytic_prediction,
            est.mean.real, est.mean.imag, est.std_error, est.samples, config.seed,
        ]
        for eps, ests in zip(config.epsilon, table)
        for ts, est in zip(config.two_s, ests)
    ]
    _write_csv(
        out / "mc.csv",
        ["epsilon", "s", "S_analytic", "F_analytic", "F_mc_real", "F_mc_imag", "std_err", "samples", "seed"],
        rows,
    )
    report_rows = [
        dict(zip(["epsilon", "s", "S_analytic", "F_analytic", "F_mc_real", "F_mc_imag",
                  "std_err", "samples", "seed"], r))
        for r in rows
    ]
    return report_rows, {"S": s_val, "lambda_inv": lam}


def _solution_record(config, sol, refined):
    rec = {
        "lambda_inv": sol.lambda_inv,
        "grid_steps": config.grid_steps,
        "S": sol.S,
        "S_c": None if math.isinf(sol.S_c) else sol.S_c,
        "E_out": sol.E_out,
        "el_residual": sol.el_residual,
        "bc_error": sol.bc_error,
        "mu_final": sol.mu_final,
    }
    if refined is not None:
        rec["refine_steps"] = config.refine_steps
        rec["S_refined"] = refined.S
        rec["S_refine_delta"] = refined.S - sol.S
    return rec


def _run_solve(config: RunConfig, out: Path):
    lam = config.lambda_inv[0]
    grid = TimeGrid(config.tau, config.grid_steps)
    problem = OptimizationProblem(
        kernel=config.kernel, target=config.target, tau=config.tau,
        lambda_inv=lam, grid=grid,
    )
    sol = solve(problem)
    refined = (
        refine_deviation(problem, sol.delta_omega_rot.values, config.refine_steps)
        if config.refine_steps
        else None
    )
    t = grid.nodes
    lab = sol.control.omega_lab.values
    dom = sol.delta_omega.values
    rows = [
        [t[k], lab[k, 0], lab[k, 1], lab[k, 2], dom[k, 0], dom[k, 1], dom[k, 2]]
        for k in range(grid.n_nodes)
    ]
    _write_csv(
        out / "controls.csv",
        ["t", "omega_x", "omega_y", "omega_z", "d_omega_x", "d_omega_y", "d_omega_z"],
        rows,
    )
    record = _solution_record(config, sol, refined)
    fid = {}
    s_report = refined.S if refined is not None else sol.S
    for eps in config.epsilon:
        for ts in config.two_s:
            fid[f"F_s{_spin_label(ts)}_eps{_fmt(eps)}"] = fidelity_weak(SpinNumber(ts), eps, s_report)
    record["fidelities"] = fid
    archive = {
        "problem": _echo_problem(config, lam),
        "summary": record,
        "t": [float(v) for v in t],
        "delta_omega_rot": sol.delta_omega_rot.values.tolist(),
        "omega_lab": lab.tolist(),
        "delta_omega": dom.tolist(),
    }
    (out / "solution.json").write_text(json.dumps(archive, indent=1), newline="\n")
    return [record], {"S_refine_delta": record.get("S_refine_delta", 0.0)}


def _echo_problem(config: RunConfig, lam):
    return {
        "kind": config.kind,
        "tau": config.tau,
        "lambda_inv": lam,
        "kernel": config.echo.get("kernel"),
        "target": config.echo.get("target"),
        "grid_steps": config.grid_steps,
        "seed": config.seed,
    }


def _run_sweep(config: RunConfig, out: Path):
    grid = TimeGrid(config.tau, config.grid_steps)
    problem = OptimizationProblem(
        kernel=config.kernel, target=config.target, tau=config.tau,
        lambda_inv=config.lambda_inv[-1], grid=grid,
        continuation=config.lambda_inv,
    )
    result = sweep_lambda(problem)
    fid_cols = [
        f"F_s{_spin_label(ts)}_eps{_fmt(eps)}" for eps in config.epsilon for ts in config.two_s
    ]
    header = ["lambda_inv", "grid_steps", "S", "E_out", "S_refined", "S_refine_delta"] + fid_cols
    rows = []
    report_rows = []
    deltas = {}
    for point in result.points:
        if point.solution is None:
            report_rows.append({"lambda_inv": point.lambda_inv, "error": point.error})
            continue
        sol = point.solution
        refined = (
            refine_deviation(problem, sol.delta_omega_rot.values, config.refine_steps)
            if config.refine_steps
            else None
        )
        s_report = refined.S if refined is not None else sol.S
        srow = [
            point.lambda_inv, config.grid_steps, sol.S, sol.E_out,
            s_report, (s_report - sol.S) if refined is not None else 0.0,
        ]
        fvals = [
            fidelity_weak(SpinNumber(ts), eps, s_report)
            for eps in config.epsilon for ts in config.two_s
        ]
        rows.append(srow + fvals)
        rec = _solution_record(config, sol, refined)
        rec["fidelities"] = dict(zip(fid_cols, fvals))
        report_rows.append(rec)
        deltas[f"lambda_inv={point.lambda_inv:g}"] = (s_report - sol.S) if refined is not None else 0.0
    _write_csv(out / "sweep.csv", header, rows)
    return report_rows, deltas


def run(config: RunConfig) -> RunReport:
    """Execute one experiment and write its artifacts.

    Output directory resolution: SPINCTL_OUT environment variable first,
    then the config's ``out_dir``.  Returns the report that was also
    written as report.json.
    """
    out = Path(os.environ.get("SPINCTL_OUT") or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    runner = {
        "solve": _run_solve,
        "sweep": _run_sweep,
        "mc-validate": _run_mc_validate,
        "magnus-check": _run_magnus_check,
        "kernel-table": _run_kernel_table,
    }[config.kind]
    rows, deltas = runner(config, out)
    report = RunReport(
        config_echo=config.echo,
        rows=rows,
        wall_clock_s=time.perf_counter() - start,
        version=__version__,
        grid_deltas=deltas,
    )
    payload = {
        "config": report.config_echo,
        "rows": report.rows,
        "wall_clock_s": report.wall_clock_s,
        "version": report.version,
        "grid_deltas": report.grid_deltas,
    }
    (out / "report.json").write_text(json.dumps(payload, indent=1, default=float), newline="\n")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="spinctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' config")
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--grid", type=int, default=None, help="override grid_steps")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1

    try:
        config = validate_config(text)
        if config.kind != args.command:
            raise ConfigError(
                [f"config kind '{config.kind}' does not match subcommand '{args.command}'"]
            )
        if args.grid is not None:
            if args.grid < 2:
                raise ConfigError(["--grid must be >= 2"])
            config = replace(config, grid_steps=args.grid)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 1

    try:
        report = run(config)
    except SpinctlError as exc:
        print(f"solver failure in stage '{config.kind}': {exc}", file=sys.stderr)
        return 2
    failed = [row for row in report.rows if "error" in row]
    for row in failed:
        print(f"solver failure at lambda_inv={row['lambda_inv']:g}: {row['error']}", file=sys.stderr)
    written = len(report.rows) - len(failed)
    print(f"{config.kind}: wrote {written} row(s) in {report.wall_clock_s:.2f}s")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
