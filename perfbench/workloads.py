"""Workloads of the spinctl benchmark: configs made from a seed, and result checks.

Every workload operation is one ``spinctl`` CLI call on a generated JSON
config.  The problem is the README flagship: 1/f noise (xi = 8, gamma
0.1..20), target axis (1, 0, 1), angle 2*pi*(sqrt(2) - 1), winding 1, tau = 1.

Results are counted from the artifacts the CLI writes (``solution.json``,
``mc.csv``, ``magnus.csv``, ``report.json``) and the exit code, never from the
CLI's own "wrote N row(s)" summary line.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLAGSHIP = {
    "tau": 1.0,
    "kernel": {"type": "one_over_f", "xi": 8.0, "gamma_lo": 0.1, "gamma_hi": 20.0},
    "target": {"axis": [1, 0, 1], "angle": 2.0 * math.pi * (math.sqrt(2.0) - 1.0), "winding": 1},
}

# Full sizes are the benchmark; smoke sizes keep the self-test short.  The
# solver certifies lambda_inv = 10 only on fine grids, so the smoke solve
# keeps n = 512 and drops the refinement instead.
SIZES = {
    "full": {
        "solve": {"grid_steps": 512, "refine_steps": 2048},
        "mc": {"grid_steps": 512, "mc_samples": 8192},
        "magnus": {"grid_steps": 10000, "paths": 20},
    },
    "smoke": {
        "solve": {"grid_steps": 512, "refine_steps": 0},
        "mc": {"grid_steps": 512, "mc_samples": 256},
        "magnus": {"grid_steps": 4000, "paths": 2},
    },
}

SOLVE_LAMBDA_INV = 10.0
# lambda_inv = 50 stalls above el_tol at the seed; it is run only as a traced
# probe of the optimizer, never as a benchmark operation.
PROBE = {"full": {"lambda_inv": 50.0}, "smoke": {"lambda_inv": 50.0, "grid_steps": 64}}
MC_EPSILON = [0.1, 0.3]
MC_TWO_S = [1, 2]
MAGNUS_EPSILON = [0.1, 0.5, 1.0]

# Check tolerances.  S and E_out of a certified solve may move when the
# solver's arithmetic changes, but not by more than this share.
SOLVE_REL_TOL = 1e-3
F_ANALYTIC_REL_TOL = 1e-9
F_MC_SIGMAS = 5.0
MAGNUS_MAX_MISMATCH = 1e-8

REFERENCE_FILE = Path(__file__).with_name("reference.json")

WORKLOADS = ("solve", "mc", "magnus")
CLI_KIND = {"solve": "solve", "mc": "mc-validate", "magnus": "magnus-check"}


def derive_seed(seed: int, index: int) -> int:
    """Program seed of operation ``index`` in a run started with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def op_config(workload: str, seed: int, index: int, size: str, out_dir: str, **overrides) -> dict:
    """Config of one operation.  ``solve`` has no random input: it ignores the seed."""
    if workload == "solve":
        config = dict(FLAGSHIP, kind="solve", lambda_inv=SOLVE_LAMBDA_INV)
    elif workload == "mc":
        config = dict(FLAGSHIP, kind="mc-validate", lambda_inv=0.0, epsilon=MC_EPSILON,
                      two_s=MC_TWO_S, seed=derive_seed(seed, index))
    else:
        config = {"kind": "magnus-check", "tau": 1.0, "epsilon": MAGNUS_EPSILON,
                  "seed": derive_seed(seed, index)}
    return {**config, **SIZES[size][workload], "out_dir": out_dir, **overrides}


def expected_results(workload: str, size: str) -> int:
    """Results one operation should produce: one certified solve, or one CSV row each."""
    if workload == "solve":
        return 1
    if workload == "mc":
        return len(MC_EPSILON) * len(MC_TWO_S)
    return SIZES[size]["magnus"]["paths"] * len(MAGNUS_EPSILON)


@dataclass
class Outcome:
    """Check verdict of one operation."""

    attempted: int
    passed: int
    csv_rows: int
    report_error_rows: int
    notes: list


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _csv_rows(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _report_error_rows(out: Path) -> int:
    report = out / "report.json"
    if not report.is_file():
        return 0
    return sum(1 for row in json.loads(report.read_text())["rows"] if "error" in row)


def cells_from_archive(nodes: np.ndarray) -> np.ndarray:
    """Invert the solver's nodal reconstruction to recover its cell values.

    ``solution.json`` stores nodal deviations x made from cell values c by
    x_k = (c_{k-1} + c_k)/2 inside and linear extrapolation at both ends.
    Re-averaging x would not give c back, and the certificate is sensitive
    to that difference, so c is recovered exactly from x_0, x_1 and the
    interior averages.
    """
    cells = np.empty((nodes.shape[0] - 1, nodes.shape[1]))
    cells[0] = 0.5 * (nodes[0] + nodes[1])
    for k in range(1, cells.shape[0]):
        cells[k] = 2.0 * nodes[k] - cells[k - 1]
    return cells


def recertify(config: dict, out: Path):
    """Re-evaluate a solve's ``solution.json`` with the public optimizer API.

    Returns the problem, the re-evaluated solution and its force-balance
    certificate ``optimizer.el_residual``.
    """
    from spinctl import cli, optimizer
    from spinctl.magnus import TimeGrid

    archive = json.loads((out / "solution.json").read_text())
    run_config = cli.validate_config(json.dumps(config))
    problem = optimizer.OptimizationProblem(
        kernel=run_config.kernel, target=run_config.target, tau=run_config.tau,
        lambda_inv=run_config.lambda_inv[0], grid=TimeGrid(run_config.tau, run_config.grid_steps),
    )
    cells = cells_from_archive(np.asarray(archive["delta_omega_rot"], dtype=float))
    sol = optimizer.evaluate_deviation(problem, cells)
    return problem, sol, optimizer.el_residual(sol, problem)


def solve_reference_key(config: dict) -> str:
    return f"n{config['grid_steps']}_lambda{config['lambda_inv']:g}"


def _check_solve(config: dict, out: Path, ref: dict, notes: list) -> int:
    if not (out / "solution.json").is_file():
        notes.append("solve: no solution.json")
        return 0
    problem, sol, residual = recertify(config, out)
    tols = problem.tolerances
    want = ref["solve"][solve_reference_key(config)]
    ok = True
    if not residual <= tols.el_tol:
        notes.append(f"solve: re-certified el_residual {residual:.3e} > {tols.el_tol:g}")
        ok = False
    if not sol.bc_error <= tols.bc_tol:
        notes.append(f"solve: re-certified bc_error {sol.bc_error:.3e} > {tols.bc_tol:g}")
        ok = False
    for name, got in (("S", sol.S), ("E_out", sol.E_out)):
        if not abs(got - want[name]) <= SOLVE_REL_TOL * abs(want[name]):
            notes.append(f"solve: {name} {got:.6g} differs from reference {want[name]:.6g}")
            ok = False
    return int(ok)


def _check_mc(config: dict, out: Path, ref: dict, notes: list) -> int:
    rows = _csv_rows(out / "mc.csv")
    want = ref["mc"][f"n{config['grid_steps']}"]
    expected = [(e, s) for e in config["epsilon"] for s in config["two_s"]]
    if len(rows) != len(expected):
        notes.append(f"mc: {len(rows)} rows in mc.csv, expected {len(expected)}")
    passed = 0
    for row, (eps, two_s) in zip(rows, expected):
        r = want[f"eps{eps:g}_2s{two_s}"]
        f_an = float(row["F_analytic"])
        f_mc = float(row["F_mc_real"])
        sigma = math.hypot(float(row["std_err"]), r["F_mc_std_err"])
        checks = {
            "key": float(row["epsilon"]) == eps and float(row["s"]) == two_s / 2,
            "S_analytic": abs(float(row["S_analytic"]) - want["S_analytic"])
            <= F_ANALYTIC_REL_TOL * want["S_analytic"],
            "F_analytic": abs(f_an - r["F_analytic"]) <= F_ANALYTIC_REL_TOL * abs(r["F_analytic"]),
            "F_mc": abs(f_mc - r["F_mc"]) <= F_MC_SIGMAS * sigma,
            "imag": float(row["F_mc_imag"]) == 0.0,
            "samples": int(row["samples"]) == config["mc_samples"],
            "seed": int(row["seed"]) == config["seed"],
        }
        bad = [k for k, v in checks.items() if not v]
        if bad:
            notes.append(f"mc: eps={eps:g} 2s={two_s} failed {bad} (F_mc={f_mc:.9g}, ref {r['F_mc']:.9g})")
        else:
            passed += 1
    return passed


def _check_magnus(config: dict, out: Path, notes: list) -> int:
    rows = _csv_rows(out / "magnus.csv")
    expected = [(p, e) for p in range(config["paths"]) for e in config["epsilon"]]
    if len(rows) != len(expected):
        notes.append(f"magnus: {len(rows)} rows in magnus.csv, expected {len(expected)}")
    passed = 0
    for row, (path, eps) in zip(rows, expected):
        mismatch = float(row["mismatch"])
        ok = (int(row["path_index"]) == path and float(row["epsilon"]) == eps
              and int(row["n_steps"]) == config["grid_steps"] and mismatch <= MAGNUS_MAX_MISMATCH)
        if not ok:
            notes.append(f"magnus: row path={path} eps={eps:g} mismatch {mismatch:.3e} failed")
        passed += ok
    return passed


def check(workload: str, size: str, config: dict, out: Path, exit_code: int, ref: dict) -> Outcome:
    """Check one operation's artifacts; a non-zero exit fails all its results."""
    notes: list = []
    attempted = expected_results(workload, size)
    csv_name = {"solve": "controls.csv", "mc": "mc.csv", "magnus": "magnus.csv"}[workload]
    csv_rows = len(_csv_rows(out / csv_name))
    errors = _report_error_rows(out)
    if exit_code != 0:
        notes.append(f"{workload}: exit code {exit_code}")
        return Outcome(attempted, 0, csv_rows, errors, notes)
    if workload == "solve":
        passed = _check_solve(config, out, ref, notes)
    elif workload == "mc":
        passed = _check_mc(config, out, ref, notes)
    else:
        passed = _check_magnus(config, out, notes)
    return Outcome(attempted, min(passed, attempted), csv_rows, errors, notes)
