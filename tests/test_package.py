"""Package-level contracts: what ``import spinctl`` loads, the names a tracer rebinds and each module's names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import spinctl
from spinctl import optimizer
from spinctl.errors import SolveFailed
from spinctl.magnus import TimeGrid
from spinctl.optimizer import OptimizationProblem

LAYERS = ("quat", "magnus", "noise", "evolution", "fidelity", "optimizer", "cli")
# SciPy's compiled submodules; each is imported only inside the function that uses it.
SCIPY_SUBMODULES = ("scipy.optimize", "scipy.interpolate", "scipy.linalg", "scipy.special")


def child_env(**extra) -> dict:
    """Environment of a new interpreter that imports this spinctl, with BLAS threads at 1."""
    src = str(Path(spinctl.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **extra)


def fresh_modules(code: str, cwd: Path) -> set[str]:
    """``sys.modules`` after running ``code`` in a new interpreter with BLAS threads at 1."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    run = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=child_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


def cli_modules(config: dict, cwd: Path) -> set[str]:
    """``sys.modules`` after one ``cli.main`` run of ``config`` in a new interpreter, writing to ``cwd/out``."""
    (cwd / "cfg.json").write_text(json.dumps(config))
    code = ("import os\nos.environ['SPINCTL_OUT'] = 'out'\nfrom spinctl import cli\n"
            f"assert cli.main([{config['kind']!r}, 'cfg.json']) == 0")
    return fresh_modules(code, cwd)


class TestColdStart:
    def test_import_loads_every_layer_and_no_scipy_submodule(self, tmp_path):
        # Every layer but the CLI, which ``python -m spinctl.cli`` must find
        # unimported when it runs it as ``__main__``.
        loaded = fresh_modules("import spinctl", tmp_path)
        assert {f"spinctl.{name}" for name in LAYERS if name != "cli"} <= loaded
        assert "spinctl.cli" not in loaded
        assert loaded.isdisjoint(SCIPY_SUBMODULES)

    def test_module_form_runs_without_warning(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({"kind": "magnus-check", "tau": 1.0, "paths": 1,
                                                        "epsilon": [0.5], "grid_steps": 50, "seed": 4}))
        run = subprocess.run([sys.executable, "-m", "spinctl.cli", "magnus-check", "cfg.json"],
                             cwd=tmp_path, env=child_env(SPINCTL_OUT="out"), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert "RuntimeWarning" not in run.stderr
        assert (tmp_path / "out" / "magnus.csv").exists()

    def test_magnus_check_loads_no_scipy_submodule(self, tmp_path):
        config = {"kind": "magnus-check", "tau": 1.0, "paths": 2, "epsilon": [0.1, 0.5],
                  "grid_steps": 200, "seed": 4}
        loaded = cli_modules(config, tmp_path)
        assert (tmp_path / "out" / "magnus.csv").exists()
        assert loaded.isdisjoint(SCIPY_SUBMODULES)

    def test_mc_validate_at_drift_loads_scipy_special_only(self, tmp_path):
        # The drift baseline's certificate is never read, so neither its
        # spline (scipy.interpolate) nor what that pulls in is loaded; the
        # 1/f profile needs E1 from scipy.special.
        config = {"kind": "mc-validate", "tau": 1.0, "lambda_inv": 0.0,
                  "kernel": {"type": "one_over_f", "xi": 8.0, "gamma_lo": 0.1, "gamma_hi": 20.0},
                  "target": {"axis": [1.0, 0.0, 1.0], "angle": 2.6, "winding": 1},
                  "epsilon": [0.1], "two_s": [1], "grid_steps": 16, "mc_samples": 8, "seed": 11}
        loaded = cli_modules(config, tmp_path)
        assert (tmp_path / "out" / "mc.csv").exists()
        assert loaded & set(SCIPY_SUBMODULES) == {"scipy.special"}


def test_solve_calls_module_minimize_once_per_round(paper_kernel, paper_target, monkeypatch):
    # A tracer rebinds optimizer.minimize; the solver must look it up by that name.
    problem = OptimizationProblem(kernel=paper_kernel, target=paper_target, tau=1.0,
                                  lambda_inv=1.0, grid=TimeGrid(1.0, 256))
    expect = optimizer.solve(problem)
    calls = []
    inner = optimizer.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(optimizer, "minimize", counting)
    sol = optimizer.solve(problem)
    assert len(sol.rounds) >= 2
    assert len(calls) == len(sol.rounds)
    np.testing.assert_array_equal(sol.deviation_cells, expect.deviation_cells)
    assert (sol.S, sol.el_residual, sol.bc_error) == (expect.S, expect.el_residual, expect.bc_error)
    assert [(r.nit, r.nfev, r.el_residual) for r in sol.rounds] == [
        (r.nit, r.nfev, r.el_residual) for r in expect.rounds
    ]


class TestNames:
    """Stdlib-only lint: a deletion must not leave a stale import or export behind."""

    MODULES = sorted(Path(spinctl.__file__).parent.glob("*.py"))

    def test_no_module_imports_a_name_it_never_uses(self):
        # __init__ imports names to re-export them.
        stale = []
        for path in self.MODULES:
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            used |= set(getattr(importlib.import_module(f"spinctl.{path.stem}"), "__all__", ()))
            stale += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
        assert stale == []

    def test_no_module_imports_another_modules_private_name(self):
        # A private name has one owner; a second user means it lives in the wrong module.
        borrowed = []
        for path in self.MODULES:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("spinctl")):
                    borrowed += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                                 if alias.name.startswith("_") and not alias.name.endswith("__")]
        assert borrowed == []

    def test_every_error_class_is_used(self):
        # __init__ only re-exports; an error type that no other module names is dead.
        errors = Path(spinctl.__file__).with_name("errors.py").read_text()
        classes = {node.name for node in ast.parse(errors).body if isinstance(node, ast.ClassDef)}
        named = set()
        for path in self.MODULES:
            if path.name not in ("__init__.py", "errors.py"):
                named |= {node.id for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Name)}
        assert sorted(classes - named) == []

    def test_every_public_function_is_exported(self):
        # The benchmark's tracer (perfbench/spans.py) wraps every public
        # function, so a function is public by choice and then exported.
        # optimizer.minimize is the one exception: SciPy's minimizer under the
        # name that the tracer rebinds, not a spinctl entry point.
        unlisted = []
        for path in self.MODULES:
            if path.name == "__init__.py":
                continue
            exports = getattr(importlib.import_module(f"spinctl.{path.stem}"), "__all__", ())
            unlisted += [f"{path.stem}.{node.name}" for node in ast.parse(path.read_text()).body
                         if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                         and node.name not in exports]
        assert unlisted == ["optimizer.minimize"]

    def test_every_export_resolves(self):
        missing = []
        for path in self.MODULES:
            module = importlib.import_module("spinctl" if path.stem == "__init__" else f"spinctl.{path.stem}")
            exports = getattr(module, "__all__", ())
            missing += [f"{module.__name__}.{name}" for name in exports if not hasattr(module, name)]
        assert missing == []

    def test_solve_failed_is_exported(self):
        # The one type to catch for a failed solve (optimizer tests raise both of its kinds).
        assert spinctl.SolveFailed is SolveFailed
