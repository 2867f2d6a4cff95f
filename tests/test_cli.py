import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from spinctl import cli, fidelity
from spinctl.cli import RunConfig, main, run, validate_config
from spinctl.errors import ConfigError
from spinctl.magnus import TimeGrid, random_smooth_path, solve_m_ode, time_ordered_exp
from spinctl.optimizer import OptimizationProblem, refine_deviation, solve
from spinctl.quat import PureQuat, qexp

PAPER_KERNEL = {"type": "one_over_f", "xi": 8.0, "gamma_lo": 0.1, "gamma_hi": 20.0}
PAPER_TARGET = {
    "axis": [1.0, 0.0, 1.0],
    "angle": 2.0 * math.pi * (math.sqrt(2.0) - 1.0),
    "winding": 1,
}


SMALL_MC = {
    "kind": "mc-validate", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
    "epsilon": [0.1], "two_s": [1], "grid_steps": 16, "mc_samples": 50, "seed": 11,
}
SMALL_SWEEP = {
    "kind": "sweep", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
    "lambda_inv": [0.0, 10.0], "epsilon": [0.1], "two_s": [1], "grid_steps": 16,
    "refine_steps": 0,
}
SMALL_MAGNUS = {
    "kind": "magnus-check", "tau": 1.0, "paths": 1, "epsilon": [0.1], "grid_steps": 20, "seed": 4,
}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestValidateConfig:
    def test_missing_tau_named(self):
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps({"kind": "kernel-table", "kernel": PAPER_KERNEL}))
        assert any("'tau'" in d for d in err.value.diagnostics)

    def test_cutoff_order_diagnostic(self):
        bad = dict(PAPER_KERNEL, gamma_lo=30.0)
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps({"kind": "kernel-table", "tau": 1.0, "kernel": bad}))
        assert any("gamma_lo < gamma_hi" in d for d in err.value.diagnostics)

    def test_unknown_keys_rejected(self):
        cfg = {"kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL, "oops": 1}
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(cfg))
        assert any("unknown key 'oops'" in d for d in err.value.diagnostics)

    def test_diagnostics_aggregate(self):
        cfg = {"kind": "mc-validate", "kernel": {"type": "one_over_f"}}
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(cfg))
        assert len(err.value.diagnostics) >= 4

    def test_seed_mandatory_for_mc(self):
        cfg = {
            "kind": "mc-validate", "tau": 1.0, "kernel": PAPER_KERNEL,
            "target": PAPER_TARGET, "epsilon": [0.05], "two_s": [1],
        }
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(cfg))
        assert any("seed" in d for d in err.value.diagnostics)

    def test_valid_config_roundtrips(self):
        cfg = {
            "kind": "sweep", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": [0.0, 10.0], "epsilon": [0.1], "two_s": [1], "seed": 3,
        }
        parsed = validate_config(json.dumps(cfg))
        assert isinstance(parsed, RunConfig)
        assert json.loads(json.dumps(parsed.echo)) == cfg

    @pytest.mark.parametrize(
        "base, overrides",
        [
            (SMALL_MC, {"epsilon": [math.nan]}),
            (SMALL_MC, {"epsilon": [math.inf]}),
            (SMALL_SWEEP, {"lambda_inv": [0.0, math.nan]}),
            (SMALL_MC, {"kernel": dict(PAPER_KERNEL, axis=[1.0, None, 0.0])}),
            (SMALL_MC, {"kernel": {"type": "diagonal_constant", "kappa": [0.1, None, 0.1]}}),
            (SMALL_MC, {"target": dict(PAPER_TARGET, axis=[1.0, 0.0, None])}),
            (SMALL_MC, {"seed": -1}),
            (SMALL_MAGNUS, {"seed": -1}),
            (SMALL_MAGNUS, {"tau": 10**400}),
        ],
        ids=["nan-epsilon", "inf-epsilon", "nan-ladder", "null-kernel-axis", "null-kappa",
             "null-target-axis", "negative-seed-mc", "negative-seed-magnus", "int-beyond-float"],
    )
    def test_bad_value_is_config_error(self, tmp_path, monkeypatch, capsys, base, overrides):
        # Each rule applies to a scalar and to every list entry alike, a
        # number must be finite as a float, and seed must be a Philox key in
        # [0, 2**128).
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = dict(base, **overrides)
        assert main([cfg["kind"], str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert "config error: " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cfg, argv",
        [
            (dict(SMALL_MC, grid_steps=10**400), []),
            (dict(SMALL_MC, target=dict(PAPER_TARGET, winding=10**400)), []),
            (dict(SMALL_MC, target=dict(PAPER_TARGET, winding=-(10**400))), []),
            (dict(SMALL_MC, mc_samples=10**400), []),
            (dict(SMALL_MC, two_s=[10**400]), []),
            (dict(SMALL_MAGNUS, paths=10**400), []),
            ({"kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL, "table_points": 2**63}, []),
            (dict(SMALL_SWEEP, refine_steps=10**400), []),
            (SMALL_MAGNUS, ["--grid", str(10**400)]),
        ],
        ids=["grid_steps", "winding", "negative-winding", "mc_samples", "two_s", "paths",
             "table_points", "refine_steps", "--grid"],
    )
    def test_integer_beyond_int64_is_one_config_error(self, tmp_path, monkeypatch, capsys, cfg, argv):
        # Sizes, counts and windings become numpy sizes or floats, so every
        # integer stops below 2**63 in magnitude.
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        assert main([cfg["kind"], str(write_config(tmp_path, cfg)), *argv]) == 1
        err = capsys.readouterr().err
        (line,) = err.splitlines()
        assert line.startswith("config error: ") and line.endswith("must be < 2**63 in magnitude")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"kind": "kernel-table", "tau": 1.0, "kernel": dict(PAPER_KERNEL, gamma_lo=1e-300, gamma_hi=1e300)},
             "kernel: the zero-lag value xi ln(gamma_hi/gamma_lo) must be finite"),
            ({"kind": "kernel-table", "tau": 1.0, "kernel": dict(PAPER_KERNEL, xi=1e308)},
             "kernel: the zero-lag value xi ln(gamma_hi/gamma_lo) must be finite"),
            (dict(SMALL_MC, target=dict(PAPER_TARGET, angle=1e300)),
             "target: winding plus the angle's full turns must be < 2**63 in magnitude"),
            (dict(SMALL_MAGNUS, epsilon=[1e200]), "each entry of field 'epsilon' must have a finite square"),
            (dict(SMALL_MC, epsilon=[0.1, 1e200]), "each entry of field 'epsilon' must have a finite square"),
            (dict(SMALL_MC, target={"axis": [0.0, 0.0, 0.0], "angle": 0.0, "winding": 1}),
             "target: winding a zero-angle target requires a nonzero axis"),
            (dict(SMALL_MC, target={"axis": [0.0, 0.0, 0.0], "angle": 2.0 * math.pi, "winding": 0}),
             "target: winding a zero-angle target requires a nonzero axis"),
        ],
        ids=["gamma-ratio", "xi", "angle-turns", "epsilon-magnus", "epsilon-mc", "axisless-winding",
             "axisless-full-turn"],
    )
    def test_unusable_value_is_one_config_error(self, tmp_path, monkeypatch, capsys, cfg, message):
        # Finite inputs that no run can use: a derived value that overflows
        # a float (the kernel's zero-lag value, the folded winding, eps**2),
        # or a whole turn about no axis, which no drift makes.
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        assert main([cfg["kind"], str(write_config(tmp_path, cfg))]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cfg, key",
        [
            (dict(SMALL_MAGNUS, kernel=PAPER_KERNEL), "kernel"),
            ({"kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL, "epsilon": [0.1]},
             "epsilon"),
            (dict(SMALL_MC, refine_steps=0), "refine_steps"),
        ],
    )
    def test_key_unused_by_kind_rejected(self, cfg, key):
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(cfg))
        assert err.value.diagnostics == [f"field '{key}' is not used by kind '{cfg['kind']}'"]

    def test_readme_example_validates(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        examples = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
        assert examples
        for text in examples:
            assert validate_config(text).echo == json.loads(text)

    def test_sweep_ladder_must_start_at_zero(self):
        cfg = {
            "kind": "sweep", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": [10.0, 20.0], "epsilon": [0.1], "two_s": [1],
        }
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(cfg))
        assert any("start at 0" in d for d in err.value.diagnostics)

    def test_sweep_ladder_must_increase(self):
        cfg = {
            "kind": "sweep", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": [0.0, 10.0, 10.0], "epsilon": [0.1], "two_s": [1],
        }
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(cfg))
        assert err.value.diagnostics == ["field 'lambda_inv' must start at 0 and increase strictly"]

    @pytest.mark.parametrize("base", [dict(SMALL_SWEEP, kind="solve", lambda_inv=0.0), SMALL_SWEEP])
    def test_refine_steps_one_rejected_before_any_output(self, tmp_path, monkeypatch, capsys, base):
        # One refinement step is no grid: it must fail validation, not the
        # refinement after controls.csv is written.
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = dict(base, refine_steps=1)
        with pytest.raises(ConfigError) as err:
            validate_config(json.dumps(cfg))
        assert err.value.diagnostics == ["field 'refine_steps' must be 0 or >= 2"]
        assert main([cfg["kind"], str(write_config(tmp_path, cfg))]) == 1
        assert "config error: field 'refine_steps' must be 0 or >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestKernelTable:
    def test_zero_lag_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL,
            "table_points": 11,
        }
        run(validate_config(json.dumps(cfg)))
        lines = (tmp_path / "out" / "kernel.csv").read_text().splitlines()
        assert lines[0] == "s,N_xx"
        s0, nxx0 = lines[1].split(",")
        assert float(s0) == 0.0
        assert float(nxx0) == pytest.approx(8.0 * math.log(200.0), rel=1e-10)

    def test_tilted_axis_writes_xx_entry(self, tmp_path, monkeypatch):
        # axis (1, 0, 1)/sqrt(2) puts half of the along-axis profile in N_xx
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "kernel-table", "tau": 1.0,
            "kernel": dict(PAPER_KERNEL, axis=[1.0, 0.0, 1.0]), "table_points": 11,
        }
        run(validate_config(json.dumps(cfg)))
        lines = (tmp_path / "out" / "kernel.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == pytest.approx(4.0 * math.log(200.0), rel=1e-10)

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        cfg = {
            "kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL,
            "table_points": 7,
        }
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "a"))
        run(validate_config(json.dumps(cfg)))
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "b"))
        run(validate_config(json.dumps(cfg)))
        assert (tmp_path / "a" / "kernel.csv").read_bytes() == (
            tmp_path / "b" / "kernel.csv"
        ).read_bytes()


class TestMcValidate:
    def test_zero_strength_is_exact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "mc-validate", "tau": 1.0, "kernel": PAPER_KERNEL,
            "target": PAPER_TARGET, "epsilon": [0.0], "two_s": [1],
            "grid_steps": 32, "mc_samples": 50, "seed": 11,
        }
        run(validate_config(json.dumps(cfg)))
        lines = (tmp_path / "out" / "mc.csv").read_text().splitlines()
        assert lines[0] == (
            "epsilon,s,S_analytic,F_analytic,F_mc_real,F_mc_imag,std_err,samples,seed"
        )
        row = lines[1].split(",")
        assert float(row[4]) == 1.0  # F_mc_real
        assert float(row[5]) == 0.0  # F_mc_imag

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        cfg = {
            "kind": "mc-validate", "tau": 1.0, "kernel": PAPER_KERNEL,
            "target": PAPER_TARGET, "epsilon": [0.05], "two_s": [1, 4],
            "grid_steps": 32, "mc_samples": 200, "seed": 11,
        }
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "a"))
        run(validate_config(json.dumps(cfg)))
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "b"))
        run(validate_config(json.dumps(cfg)))
        assert (tmp_path / "a" / "mc.csv").read_bytes() == (
            tmp_path / "b" / "mc.csv"
        ).read_bytes()

    def test_one_noise_ensemble_serves_every_cell(self, tmp_path, monkeypatch):
        # 2 epsilon x 2 spin cells over several path blocks: the covariance
        # is factorized once, each block is drawn once, and the ordered
        # product runs once per (block, epsilon).
        # The blocks run on worker threads, so each call appends (atomic) rather than increments.
        calls = {"assemble_covariance": [], "sample_block": [], "ordered_exp_batch": []}
        for name in calls:
            orig = getattr(fidelity, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name].append(1)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(fidelity, name, counted)
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "mc-validate", "tau": 1.0, "kernel": PAPER_KERNEL,
            "target": PAPER_TARGET, "epsilon": [0.1, 0.3], "two_s": [1, 2],
            "grid_steps": 16, "mc_samples": 4097, "seed": 11,
        }
        run(validate_config(json.dumps(cfg)))
        blocks = math.ceil(4097 / fidelity._PATH_BLOCK)
        assert blocks == 33  # 32 blocks of 128 paths and a last block of one
        assert {k: len(v) for k, v in calls.items()} == {
            "assemble_covariance": 1, "sample_block": blocks, "ordered_exp_batch": 2 * blocks,
        }
        lines = (tmp_path / "out" / "mc.csv").read_text().splitlines()
        assert [tuple(line.split(",")[:2]) for line in lines[1:]] == [
            ("0.1", "0.5"), ("0.1", "1"), ("0.3", "0.5"), ("0.3", "1"),
        ]


    def test_report_records_jitter_and_sample_rate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "mc-validate", "tau": 1.0, "kernel": PAPER_KERNEL,
            "target": PAPER_TARGET, "epsilon": [0.1], "two_s": [1],
            "grid_steps": 32, "mc_samples": 100, "seed": 11,
        }
        run(validate_config(json.dumps(cfg)))
        summary = json.loads((tmp_path / "out" / "report.json").read_text())["grid_deltas"]
        assert {"jitter", "samples_per_s"} <= summary.keys()
        assert summary["jitter"] >= 0.0


class TestMagnusCheck:
    def test_small_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "magnus-check", "tau": 1.0, "paths": 3,
            "epsilon": [0.1, 1.0], "grid_steps": 2000, "seed": 4,
        }
        report = run(validate_config(json.dumps(cfg)))
        assert report.grid_deltas["worst_mismatch"] < 1e-7
        lines = (tmp_path / "out" / "magnus.csv").read_text().splitlines()
        assert lines[0] == "path_index,epsilon,n_steps,mismatch"
        assert len(lines) == 1 + 3 * 2

    def test_rows_equal_row_by_row_computation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "magnus-check", "tau": 1.0, "paths": 3,
            "epsilon": [0.0, 0.5, 1.0], "grid_steps": 2000, "seed": 9,
        }
        report = run(validate_config(json.dumps(cfg)))
        grid = TimeGrid(1.0, 2000)
        rng = np.random.default_rng(9)
        expect = []
        for p in range(3):
            path = random_smooth_path(grid, rng)
            for eps in cfg["epsilon"]:
                m = solve_m_ode(path, eps).values[-1]
                ex = qexp(PureQuat.from_array(0.5 * eps * m)).wxyz()
                oracle = time_ordered_exp(path, eps).wxyz()
                expect.append(math.sqrt(sum((a - b) ** 2 for a, b in zip(ex, oracle))))
        assert [row["mismatch"] for row in report.rows] == expect
        lines = (tmp_path / "out" / "magnus.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == [f"{x:.12g}" for x in expect]


class TestSweepAndSolve:
    def test_drift_only_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "sweep", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": [0.0], "epsilon": [0.1], "two_s": [1],
            "grid_steps": 128, "refine_steps": 256, "seed": 1,
        }
        report = run(validate_config(json.dumps(cfg)))
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("lambda_inv,grid_steps,S,E_out,S_refined,S_refine_delta")
        row = lines[1].split(",")
        assert float(row[0]) == 0.0
        assert float(row[2]) == pytest.approx(7.0886, abs=2e-3)
        assert abs(float(row[5])) < 1e-3  # refinement delta declared and small
        assert (tmp_path / "out" / "report.json").exists()

    def test_solve_writes_controls(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        cfg = {
            "kind": "solve", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": 0.0, "grid_steps": 64, "refine_steps": 0,
        }
        run(validate_config(json.dumps(cfg)))
        lines = (tmp_path / "out" / "controls.csv").read_text().splitlines()
        assert lines[0] == "t,omega_x,omega_y,omega_z,d_omega_x,d_omega_y,d_omega_z"
        assert len(lines) == 1 + 65
        first = [float(v) for v in lines[1].split(",")]
        np.testing.assert_allclose(first[1:4], [2 * math.pi, 0, 2 * math.pi], atol=1e-9)
        np.testing.assert_allclose(first[4:], [0, 0, 0], atol=1e-9)
        archive = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert archive["problem"]["lambda_inv"] == 0.0
        assert len(archive["t"]) == 65

    def test_solve_refines_the_solver_cells(self, tmp_path, monkeypatch):
        # S_refined re-evaluates the solver's own cell values, not its nodal
        # history averaged back onto cells (which smooths them).
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        config = validate_config(json.dumps({
            "kind": "solve", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": 1.0, "grid_steps": 256, "refine_steps": 512,
        }))
        (row,) = run(config).rows
        problem = OptimizationProblem(
            kernel=config.kernel, target=config.target, tau=1.0, lambda_inv=1.0, grid=TimeGrid(1.0, 256)
        )
        want = refine_deviation(problem, solve(problem).deviation_cells, 512).S
        assert row["S_refined"] == want
        summary = json.loads((tmp_path / "out" / "solution.json").read_text())["summary"]
        assert summary["S_refined"] == want


ROUND_KEYS = {"nit", "nfev", "message", "bc_error", "el_residual", "y_norm", "seconds", "grid_steps"}


class TestRoundRecord:
    def test_solve_report_lists_rounds(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(tmp_path, {
            "kind": "solve", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": 1.0, "grid_steps": 256, "refine_steps": 0,
        })
        assert main(["solve", str(path)]) == 0
        (row,) = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert row["rounds"]
        assert all(set(r) == ROUND_KEYS for r in row["rounds"])
        last = row["rounds"][-1]
        assert (last["el_residual"], last["bc_error"]) == (row["el_residual"], row["bc_error"])
        assert all(r["nit"] >= 1 and r["nfev"] >= r["nit"] for r in row["rounds"])
        # wall-clock data stays out of the archive
        summary = json.loads((tmp_path / "out" / "solution.json").read_text())["summary"]
        assert "rounds" not in summary

    def test_failed_solve_is_an_error_row(self, tmp_path, monkeypatch, capsys):
        # At n = 64 the lambda_inv = 50 optimum cannot certify (el ~ 8e-3 > 1e-4).
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(tmp_path, {
            "kind": "solve", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": 50.0, "grid_steps": 64, "refine_steps": 0,
        })
        assert main(["solve", str(path)]) == 2
        assert "solver failure at lambda_inv=50" in capsys.readouterr().err
        (row,) = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert row["lambda_inv"] == 50.0 and "stationarity certificate" in row["error"]
        assert row["rounds"] and all(set(r) == ROUND_KEYS for r in row["rounds"])
        assert not (tmp_path / "out" / "solution.json").exists()

    def test_sweep_error_row_lists_rounds(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(tmp_path, {
            "kind": "sweep", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
            "lambda_inv": [0.0, 50.0], "epsilon": [0.1], "two_s": [1],
            "grid_steps": 64, "refine_steps": 0,
        })
        assert main(["sweep", str(path)]) == 2
        drift, failed = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert drift["rounds"] == []  # lambda_inv = 0 runs no descent
        assert set(failed) == {"lambda_inv", "error", "rounds"} and failed["lambda_inv"] == 50.0
        assert failed["rounds"]
        assert all(set(r) == ROUND_KEYS for r in failed["rounds"])

    def test_failed_mc_baseline_is_an_error_row(self, tmp_path, monkeypatch, capsys):
        # At n = 32 the lambda_inv = 10 optimum cannot certify, so no Monte Carlo runs.
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(tmp_path, dict(SMALL_MC, lambda_inv=10.0, grid_steps=32, mc_samples=16))
        assert main(["mc-validate", str(path)]) == 2
        assert "solver failure at lambda_inv=10: " in capsys.readouterr().err
        (row,) = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert set(row) == {"lambda_inv", "error", "rounds"} and row["lambda_inv"] == 10.0
        assert row["rounds"] and all(set(r) == ROUND_KEYS for r in row["rounds"])
        assert not (tmp_path / "out" / "mc.csv").exists()


class TestMainEntry:
    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"kind": "kernel-table"})
        assert main(["kernel-table", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_kind_mismatch(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL}
        )
        assert main(["sweep", str(path)]) == 1

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent/cfg.json"]) == 1

    def test_failed_sweep_point_is_loud(self, tmp_path, monkeypatch, capsys):
        # At n = 64 the lambda_inv = 50 optimum cannot certify (el ~ 8e-3 > 1e-4).
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(
            tmp_path,
            {
                "kind": "sweep", "tau": 1.0, "kernel": PAPER_KERNEL, "target": PAPER_TARGET,
                "lambda_inv": [0.0, 50.0], "epsilon": [0.1], "two_s": [1],
                "grid_steps": 64, "refine_steps": 0,
            },
        )
        assert main(["sweep", str(path)]) == 2
        captured = capsys.readouterr()
        assert "lambda_inv=50" in captured.err
        assert "wrote 1 row(s)" in captured.out
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 1

    def test_grid_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(tmp_path, SMALL_MAGNUS)
        assert main(["magnus-check", str(path), "--grid", "16"]) == 0
        lines = (tmp_path / "out" / "magnus.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "16"

    def test_report_echoes_grid_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(tmp_path, SMALL_MAGNUS)
        assert main(["magnus-check", str(path), "--grid", "40"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["grid_steps"] == 40
        assert {row["n_steps"] for row in report["rows"]} == {40}

    @pytest.mark.parametrize(
        "argv",
        [["magnus-check", "CFG", "--grid", "abc"], ["magnus-check"], ["bogus", "CFG"]],
        ids=["bad-grid", "no-config", "bad-command"],
    )
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, SMALL_MAGNUS)
        assert main([str(path) if a == "CFG" else a for a in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("where", ["SPINCTL_OUT", "out_dir"])
    def test_uncreatable_output_directory_is_config_error(self, tmp_path, monkeypatch, capsys, where):
        # SPINCTL_OUT names a file; out_dir lies under one.
        blocker = tmp_path / "file"
        blocker.write_text("")
        payload = SMALL_MAGNUS
        if where == "SPINCTL_OUT":
            monkeypatch.setenv("SPINCTL_OUT", str(blocker))
        else:
            monkeypatch.delenv("SPINCTL_OUT", raising=False)
            payload = dict(SMALL_MAGNUS, out_dir=str(blocker / "out"))
        monkeypatch.setattr(cli, "_run_magnus_check", lambda *args: pytest.fail("ran before creating the output"))
        path = write_config(tmp_path, payload)
        assert main(["magnus-check", str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: cannot create output directory ")
        assert captured.out == ""

    def test_grid_rejected_where_unused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPINCTL_OUT", str(tmp_path / "out"))
        path = write_config(
            tmp_path,
            {"kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL, "table_points": 5},
        )
        assert main(["kernel-table", str(path), "--grid", "16"]) == 1
        assert "config error: --grid is not used by kind 'kernel-table'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_override_uses_grid_rule(self, tmp_path, capsys):
        path = write_config(
            tmp_path, {"kind": "kernel-table", "tau": 1.0, "kernel": PAPER_KERNEL}
        )
        assert main(["kernel-table", str(path), "--grid", "1"]) == 1
        assert "config error: --grid must be >= 2" in capsys.readouterr().err
