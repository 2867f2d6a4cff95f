"""Regenerate perfbench/reference.json, the seed values the checks compare against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py

Run it only at a commit whose outputs are trusted: the checks of every later
run are measured against what it writes.  It takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

# A seed of its own, so the reference paths are independent of the benchmark's.
REFERENCE_MC_SEED = 20151217
REFERENCE_MC_SAMPLES = 65536


def solve_reference(config: dict) -> dict:
    from spinctl import cli

    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        config = dict(config, out_dir=tmp)
        path = Path(tmp) / "solve.json"
        path.write_text(json.dumps(config))
        if cli.main(["solve", str(path)]) != 0:
            raise SystemExit("reference solve did not certify")
        _, sol, residual = workloads.recertify(config, Path(tmp))
    return {"S": sol.S, "E_out": sol.E_out, "el_residual": residual}


def mc_reference(config: dict) -> dict:
    import numpy as np
    from spinctl import cli
    from spinctl.fidelity import SpinNumber, action_S, mc_fidelity
    from spinctl.magnus import TimeGrid
    from spinctl.optimizer import OptimizationProblem, evaluate_deviation

    run_config = cli.validate_config(json.dumps(config))
    kernel = run_config.kernel
    grid = TimeGrid(run_config.tau, run_config.grid_steps)
    problem = OptimizationProblem(kernel=kernel, target=run_config.target, tau=run_config.tau,
                                  lambda_inv=0.0, grid=grid)
    sol = evaluate_deviation(problem, np.zeros((grid.n_nodes, 3)))
    out = {"S_analytic": action_S(sol.triad, kernel)}
    for eps in workloads.MC_EPSILON:
        for two_s in workloads.MC_TWO_S:
            est = mc_fidelity(sol.triad, kernel, eps, SpinNumber(two_s),
                              REFERENCE_MC_SAMPLES, REFERENCE_MC_SEED)
            out[f"eps{eps:g}_2s{two_s}"] = {
                "F_analytic": est.analytic_prediction,
                "F_mc": est.mean.real,
                "F_mc_std_err": est.std_error,
            }
            print(f"mc eps={eps:g} 2s={two_s}: {out[f'eps{eps:g}_2s{two_s}']}", flush=True)
    return out


def main() -> None:
    solve_config = workloads.op_config("solve", 0, 0, "full", "")
    mc_config = workloads.op_config("mc", 0, 0, "full", "")
    ref = {
        "about": (
            f"Seed-commit outputs. mc: {REFERENCE_MC_SAMPLES} samples, "
            f"seed {REFERENCE_MC_SEED}. Regenerate with perfbench/make_reference.py."
        ),
        "mc": {f"n{mc_config['grid_steps']}": mc_reference(mc_config)},
        "solve": {workloads.solve_reference_key(solve_config): solve_reference(solve_config)},
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
