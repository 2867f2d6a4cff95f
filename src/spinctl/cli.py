"""Batch front end: JSON configs in, CSV/JSON artifacts out.

Subcommands::

    spinctl solve <config.json>         one constrained optimization
    spinctl sweep <config.json>         one solve per lambda_inv of a ladder
    spinctl mc-validate <config.json>   Monte Carlo vs analytic fidelity
    spinctl magnus-check <config.json>  ordered-exponential consistency table
    spinctl kernel-table <config.json>  kernel profile as CSV

``--grid N`` overrides the config grid size of a kind that reads
``grid_steps`` (not ``kernel-table``); the environment variable
SPINCTL_OUT overrides the output directory.  Outputs are deterministic for a
fixed config and seed: CSV bodies are byte-identical across runs, and only
``report.json`` carries wall-clock information: its header, and the
solver's per-round record (``rounds``) in each ``solve`` and ``sweep`` row
and each error row.

Exit status: 0 ok, 1 config error (also a bad command line or an output
directory that cannot be created), 2 solver failure (a failed solve, sweep
point or ``mc-validate`` baseline, each named on stderr and recorded as an
``error`` row of ``report.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, SolveFailed, SpinctlError
from .evolution import TargetRotation, drift_for_target
from .fidelity import SpinNumber, fidelity_weak, mc_fidelity_table
from .magnus import PurePath, TimeGrid, random_smooth_path, solve_m_ode_batch, time_ordered_exp
from .noise import DiagonalConstant, NoiseKernel, OneOverF
from .optimizer import (
    ControlSolution,
    OptimizationProblem,
    check_ladder,
    refine_deviation,
    solve,
    sweep_lambda,
)
from .quat import PureQuat, qexp

__all__ = ["RunConfig", "RunReport", "validate_config", "run", "main"]

KINDS = ("solve", "sweep", "mc-validate", "magnus-check", "kernel-table")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration (one experiment kind per file).

    A field that its kind does not read keeps its default here.
    """

    kind: str
    tau: float
    kernel: NoiseKernel | None = None
    target: TargetRotation | None = None
    lambda_inv: tuple[float, ...] = ()
    epsilon: tuple[float, ...] = ()
    two_s: tuple[int, ...] = ()
    grid_steps: int = 0
    refine_steps: int = 2048
    mc_samples: int = 10000
    paths: int = 20
    table_points: int = 101
    seed: int | None = None
    out_dir: str = "out"
    echo: dict = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class RunReport:
    """Everything needed to trace reported numbers back to the config."""

    config: dict
    rows: list
    wall_clock_s: float
    version: str
    grid_deltas: dict


_REQ, _NO = object(), object()  # field-table defaults: required; not read by the kind


@dataclass(frozen=True)
class _Rule:
    """Type and bounds of one config value; a list shape applies them to every entry."""

    type: type  # float (a finite number), int or str
    low: float | None = None  # lower bound, inclusive unless ``strict``
    strict: bool = False
    bits: int = 63  # an int must be < 2**bits in magnitude, as numpy sizes are; 128 for a Philox key
    shape: str = ""  # "" scalar, "list" non-empty list, "vec3" 3-element list

    def __call__(self, value, name: str):
        """The checked value (a tuple for a list shape); raises ConfigError."""
        if not self.shape:
            return self._entry(value, name)
        if not isinstance(value, list) or not value or (self.shape == "vec3" and len(value) != 3):
            raise ConfigError([f"{name} must be {_NOUNS[self.shape]}"])
        return tuple(self._entry(v, f"each entry of {name}") for v in value)

    def _entry(self, v, name: str):
        types = (int, float) if self.type is float else (self.type,)  # exact JSON types: bool is no int
        if type(v) not in types or (self.type is float and not abs(v) <= sys.float_info.max):
            raise ConfigError([f"{name} must be {_NOUNS[self.type]}"])
        if self.low is not None and (v <= self.low if self.strict else v < self.low):
            raise ConfigError([f"{name} must be {'>' if self.strict else '>='} {self.low:g}"])
        if self.type is int and abs(v) >= 2**self.bits:
            raise ConfigError([f"{name} must be < 2**{self.bits} in magnitude"])
        return self.type(v)


_NOUNS = {float: "a finite number", int: "an integer", str: "a string",
          "list": "a non-empty list", "vec3": "a 3-element list"}
_POSITIVE = _Rule(float, 0.0, strict=True)
_NONNEG = _Rule(float, 0.0)
_NONNEG_LIST = _Rule(float, 0.0, shape="list")
_GRID = _Rule(int, 2)
_VEC3 = _Rule(float, shape="vec3")


def _check_object(obj: dict, table: dict, where: str = "", kind: str = ""):
    """Check a JSON object against a field table of key -> (rule, default).

    Returns the checked values, with defaults for absent keys, and one
    diagnostic per violation.  ``kind`` names the kind of a top-level object.
    """
    diags = [
        f"field '{key}' is not used by kind '{kind}'" if kind and key in _FIELDS
        else f"{where}unknown key '{key}'"
        for key in obj if key not in table
    ]
    values = {}
    for key, (rule, default) in table.items():
        if key in obj:
            try:
                values[key] = rule(obj[key], f"field '{key}'")
            except ConfigError as exc:
                diags.extend(where + d for d in exc.diagnostics)
        elif default is _REQ:
            diags.append(f"{where}missing required field '{key}'")
        else:
            values[key] = default
    return values, diags


def _nested(where: str, tables: dict, tag: str | None = None):
    """Rule for a nested object, built by a constructor from its checked fields.

    ``tables`` maps the object's ``tag`` value (None if untagged) to a
    (constructor, field table) pair; the constructor checks cross-field
    rules, and its ValueError becomes a diagnostic.
    """

    def rule(spec, name: str):
        if not isinstance(spec, dict):
            raise ConfigError([f"{name} must be an object"])
        spec = dict(spec)
        variant = spec.pop(tag, None) if tag else None
        if variant not in tables:
            raise ConfigError([f"{where}: '{tag}' must be one of {', '.join(tables)}"])
        build, table = tables[variant]
        values, diags = _check_object(spec, table, f"{where}: ")
        if not diags:
            try:
                return build(**values)
            except ValueError as exc:
                diags.append(f"{where}: {exc}")
        raise ConfigError(diags)

    return rule


_KERNEL = _nested("kernel", {
    "one_over_f": (OneOverF, {
        "xi": (_POSITIVE, _REQ),
        "gamma_lo": (_POSITIVE, _REQ),
        "gamma_hi": (_POSITIVE, _REQ),
        "axis": (_VEC3, (1.0, 0.0, 0.0)),
    }),
    "diagonal_constant": (DiagonalConstant, {
        "kappa": (_Rule(float, 0.0, shape="vec3"), _REQ),
    }),
}, tag="type")


def _target(axis, angle, winding) -> TargetRotation:
    """``TargetRotation.from_axis_angle``, rejecting a target of whole turns with no axis: no drift reaches it."""
    target = TargetRotation.from_axis_angle(axis, angle, winding)
    if target.axis is None and target.winding:
        raise ValueError("winding a zero-angle target requires a nonzero axis")
    return target


_TARGET = _nested("target", {None: (_target, {
    "axis": (_VEC3, _REQ),
    "angle": (_NONNEG, _REQ),
    "winding": (_Rule(int), 0),
})})

# Each key's rule, then its default per kind in KINDS order (solve, sweep,
# mc-validate, magnus-check, kernel-table).  _REQ: the key is required;
# _NO: the kind does not read the key.
_FIELDS = {
    "tau":          (_POSITIVE,                   _REQ,  _REQ,  _REQ,  _REQ,            _REQ),
    "kernel":       (_KERNEL,                     _REQ,  _REQ,  _REQ,  _NO,             _REQ),
    "target":       (_TARGET,                     _REQ,  _REQ,  _REQ,  _NO,             _NO),
    "lambda_inv":   (_NONNEG,                     _REQ,  _REQ,  0.0,   _NO,             _NO),
    "epsilon":      (_NONNEG_LIST,                (),    _REQ,  _REQ,  (0.1, 0.5, 1.0), _NO),
    "two_s":        (_Rule(int, 1, shape="list"), (),    _REQ,  _REQ,  _NO,             _NO),
    "grid_steps":   (_GRID,                       512,   512,   256,   10000,           _NO),
    "refine_steps": (_Rule(int, 0),               2048,  2048,  _NO,   _NO,             _NO),
    "mc_samples":   (_Rule(int, 2),               _NO,   _NO,   10000, _NO,             _NO),
    "paths":        (_Rule(int, 1),               _NO,   _NO,   _NO,   20,              _NO),
    "table_points": (_Rule(int, 2),               _NO,   _NO,   _NO,   _NO,             101),
    "seed":         (_Rule(int, 0, bits=128),     None,  None,  _REQ,  _REQ,            None),
    "out_dir":      (_Rule(str),                  "out", "out", "out", "out",           "out"),
}
_TABLES = {
    kind: {key: (rule, row[i]) for key, (rule, *row) in _FIELDS.items() if row[i] is not _NO}
    for i, kind in enumerate(KINDS)
}
_TABLES["sweep"]["lambda_inv"] = (_NONNEG_LIST, _REQ)  # a sweep reads a ladder of values


def validate_config(raw_text: str) -> RunConfig:
    """Parse and fully validate a JSON config, aggregating all violations.

    ``_FIELDS`` gives each key's rule and, per kind, its default or
    "required"; a key the kind does not read, or that no kind knows, is an
    error.  The kernel and target constructors check their cross-field
    rules; ``refine_steps`` must be 0 (no refinement) or a grid of >= 2
    steps, each ``epsilon`` and the drift rate (target angle with winding,
    over ``tau``) must have a finite square, and a sweep's ``lambda_inv``
    must start at 0 and increase strictly.

    Raises
    ------
    ConfigError
        With one diagnostic per violated field; nothing is computed first.
    """
    try:
        cfg = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(["config root must be a JSON object"])
    kind = cfg.get("kind")
    if kind not in KINDS:
        raise ConfigError([f"field 'kind' must be one of {', '.join(KINDS)}"])

    body = {key: value for key, value in cfg.items() if key != "kind"}
    values, diags = _check_object(body, _TABLES[kind], kind=kind)
    if values.get("refine_steps") == 1:
        diags.append("field 'refine_steps' must be 0 or >= 2")
    if not all(math.isfinite(eps * eps) for eps in values.get("epsilon", ())):
        diags.append("each entry of field 'epsilon' must have a finite square")
    rate = drift_for_target(values["target"], values["tau"]).norm() if {"target", "tau"} <= values.keys() else 0.0
    if not math.isfinite(rate * rate):
        diags.append("the drift rate of field 'target' over field 'tau' must have a finite square")
    lam = values.get("lambda_inv", ())
    if isinstance(lam, float):
        values["lambda_inv"] = (lam,)
    else:
        try:
            check_ladder(lam, "field 'lambda_inv'")
        except ValueError as exc:
            diags.append(str(exc))
    if diags:
        raise ConfigError(diags)
    return RunConfig(kind=kind, echo=cfg, **values)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(path: Path, header: list[str], rows) -> list[dict]:
    """Write the CSV of ``rows`` (lists or a 2-d array) and return them as report rows keyed by the header."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return [dict(zip(header, row)) for row in rows]


def _spin_label(two_s: int) -> str:
    return f"{two_s / 2:g}"


def _run_kernel_table(config: RunConfig, out: Path):
    svals = np.linspace(0.0, config.tau, config.table_points)
    rows = np.column_stack((svals, config.kernel.matrix_batch(svals)[:, 0, 0]))
    return _write_csv(out / "kernel.csv", ["s", "N_xx"], rows), {}


def _run_magnus_check(config: RunConfig, out: Path):
    grid = TimeGrid(config.tau, config.grid_steps)
    rng = np.random.default_rng(config.seed)
    values = np.empty((config.paths, grid.n_nodes, 3))
    for p in range(config.paths):
        values[p] = random_smooth_path(grid, rng).values
    m_tau = solve_m_ode_batch(values, config.epsilon, grid)
    rows = []
    for p in range(config.paths):
        path = PurePath(grid, values[p])
        for eps, m in zip(config.epsilon, m_tau[p]):
            ex = qexp(PureQuat.from_array(0.5 * eps * m))
            oracle = time_ordered_exp(path, eps)
            mismatch = math.sqrt(sum((a - b) ** 2 for a, b in zip(ex.wxyz(), oracle.wxyz())))
            rows.append([p, eps, grid.n_steps, mismatch])
    report_rows = _write_csv(out / "magnus.csv", ["path_index", "epsilon", "n_steps", "mismatch"], rows)
    return report_rows, {"worst_mismatch": max(r[3] for r in rows)}


def _problem(config: RunConfig, lam: float) -> OptimizationProblem:
    """The config's optimization problem at ``lam`` on its ``grid_steps`` grid."""
    return OptimizationProblem(
        kernel=config.kernel, target=config.target, tau=config.tau,
        lambda_inv=lam, grid=TimeGrid(config.tau, config.grid_steps),
    )


def _run_mc_validate(config: RunConfig, out: Path):
    lam = config.lambda_inv[-1]
    try:
        sol = solve(_problem(config, lam))
    except SolveFailed as exc:
        return [_failure_row(exc)], {}
    s_val = sol.S
    start = time.perf_counter()
    table = mc_fidelity_table(
        sol.triad, config.kernel, config.epsilon, [SpinNumber(ts) for ts in config.two_s],
        config.mc_samples, config.seed,
    )
    samples_per_s = config.mc_samples / (time.perf_counter() - start)
    rows = [
        [
            eps, _spin_label(ts), s_val, est.analytic_prediction,
            est.mean, 0.0, est.std_error, est.samples, config.seed,
        ]
        for eps, ests in zip(config.epsilon, table)
        for ts, est in zip(config.two_s, ests)
    ]
    report_rows = _write_csv(
        out / "mc.csv",
        ["epsilon", "s", "S_analytic", "F_analytic", "F_mc_real", "F_mc_imag", "std_err", "samples", "seed"],
        rows,
    )
    return report_rows, {
        "S": s_val, "lambda_inv": lam, "jitter": table[0][0].jitter, "samples_per_s": samples_per_s,
    }


def _fidelity_columns(config: RunConfig) -> list[tuple[str, int, float]]:
    """(column name, 2s, eps) of each weak-noise fidelity a solve or sweep reports, eps-major."""
    return [(f"F_s{_spin_label(ts)}_eps{_fmt(eps)}", ts, eps) for eps in config.epsilon for ts in config.two_s]


def _solution_record(config: RunConfig, sol: ControlSolution) -> dict:
    """Summary of one certified solution, as report.json and solution.json record it.

    With ``refine_steps`` the solution's own cells are re-evaluated at its
    own lambda_inv on the finer grid, and the fidelities use that S.
    """
    rec = {
        "lambda_inv": sol.lambda_inv,
        "grid_steps": config.grid_steps,
        "S": sol.S,
        "S_c": None if math.isinf(sol.S_c) else sol.S_c,
        "E_out": sol.E_out,
        "el_residual": sol.el_residual,
        "bc_error": sol.bc_error,
    }
    s_report = sol.S
    if config.refine_steps:
        s_report = refine_deviation(_problem(config, sol.lambda_inv), sol.deviation_cells, config.refine_steps).S
        rec["refine_steps"] = config.refine_steps
        rec["S_refined"] = s_report
        rec["S_refine_delta"] = s_report - sol.S
    rec["fidelities"] = {
        name: fidelity_weak(SpinNumber(ts), eps, s_report) for name, ts, eps in _fidelity_columns(config)
    }
    return rec


def _round_rows(rounds) -> list[dict]:
    """The solver's per-round record; it holds wall-clock seconds, so it goes to report.json only."""
    return [asdict(r) for r in rounds]


def _failure_row(exc: SolveFailed) -> dict:
    """The ``error`` row of a failed solve: its lambda_inv, message and rounds."""
    last = exc.last_solution
    return {"lambda_inv": last.lambda_inv, "error": str(exc), "rounds": _round_rows(last.rounds)}


def _run_solve(config: RunConfig, out: Path):
    lam = config.lambda_inv[0]
    try:
        sol = solve(_problem(config, lam))
    except SolveFailed as exc:
        return [_failure_row(exc)], {}
    t = sol.triad.grid.nodes
    lab = sol.control.omega_lab.values
    dom = sol.delta_omega.values
    _write_csv(
        out / "controls.csv",
        ["t", "omega_x", "omega_y", "omega_z", "d_omega_x", "d_omega_y", "d_omega_z"],
        np.column_stack((t, lab, dom)),
    )
    record = _solution_record(config, sol)
    archive = {
        "problem": _echo_problem(config, lam),
        "summary": record,
        "t": [float(v) for v in t],
        "delta_omega_rot": sol.delta_omega_rot.values.tolist(),
        "omega_lab": lab.tolist(),
        "delta_omega": dom.tolist(),
    }
    (out / "solution.json").write_text(json.dumps(archive, indent=1), newline="\n")
    return [{**record, "rounds": _round_rows(sol.rounds)}], {"S_refine_delta": record.get("S_refine_delta", 0.0)}


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
    problem = _problem(config, config.lambda_inv[-1])
    header = ["lambda_inv", "grid_steps", "S", "E_out", "S_refined", "S_refine_delta"]
    header += [name for name, _, _ in _fidelity_columns(config)]
    rows = []
    report_rows = []
    deltas = {}
    for sol in sweep_lambda(problem, config.lambda_inv):
        if isinstance(sol, SolveFailed):
            report_rows.append(_failure_row(sol))
            continue
        rec = _solution_record(config, sol)
        delta = rec.get("S_refine_delta", 0.0)
        rows.append([sol.lambda_inv, config.grid_steps, sol.S, sol.E_out, rec.get("S_refined", sol.S), delta]
                    + list(rec["fidelities"].values()))
        report_rows.append({**rec, "rounds": _round_rows(sol.rounds)})
        deltas[f"lambda_inv={sol.lambda_inv:g}"] = delta
    _write_csv(out / "sweep.csv", header, rows)
    return report_rows, deltas


def run(config: RunConfig) -> RunReport:
    """Execute one experiment and write its artifacts.

    Output directory resolution: SPINCTL_OUT environment variable first,
    then the config's ``out_dir``; a directory that cannot be created is a
    ``ConfigError``, raised before anything is computed.  Returns the
    report that was also written as report.json.
    """
    out = Path(os.environ.get("SPINCTL_OUT") or config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"cannot create output directory {out}: {exc}"]) from exc
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
        config=config.echo,
        rows=rows,
        wall_clock_s=time.perf_counter() - start,
        version=__version__,
        grid_deltas=deltas,
    )
    (out / "report.json").write_text(json.dumps(asdict(report), indent=1, default=float), newline="\n")
    return report


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError([message])


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="spinctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' config")
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--grid", type=int, default=None, help="override grid_steps")

    try:
        args = parser.parse_args(argv)
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError([f"cannot read {args.config}: {exc}"]) from exc
        config = validate_config(text)
        if config.kind != args.command:
            raise ConfigError(
                [f"config kind '{config.kind}' does not match subcommand '{args.command}'"]
            )
        if args.grid is not None:
            grid = _GRID(args.grid, "--grid")
            config = replace(config, grid_steps=grid, echo={**config.echo, "grid_steps": grid})
            if "grid_steps" not in _TABLES[config.kind]:
                raise ConfigError([f"--grid is not used by kind '{config.kind}'"])
        report = run(config)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"config error: {d}", file=sys.stderr)
        return 1
    except SpinctlError as exc:
        print(f"solver failure in stage '{args.command}': {exc}", file=sys.stderr)
        return 2
    failed = [row for row in report.rows if "error" in row]
    for row in failed:
        print(f"solver failure at lambda_inv={row['lambda_inv']:g}: {row['error']}", file=sys.stderr)
    written = len(report.rows) - len(failed)
    print(f"{config.kind}: wrote {written} row(s) in {report.wall_clock_s:.2f}s")
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
