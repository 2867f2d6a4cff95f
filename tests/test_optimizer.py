import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spinctl import optimizer
from spinctl.errors import BCUnreachable, NoDescent, SolveFailed
from spinctl.evolution import TargetRotation, omega_from_triad, propagate_triad
from spinctl.fidelity import action_S
from spinctl.magnus import PurePath, TimeGrid
from spinctl.quat import jl_transpose_apply, qexp_vec, qprefix, quat_to_matrix, vee
from spinctl.noise import DiagonalConstant, LagConvolution, OneOverF
from spinctl.optimizer import (
    ControlSolution,
    OptimizationProblem,
    Tolerances,
    _Workspace,
    el_residual,
    evaluate_deviation,
    refine_deviation,
    solve,
    sweep_lambda,
)

from conftest import drift_triad

TAU = 1.0


def nodal_dual(triad, kernel):
    """Kernel-convolved triad D_i(t) = int N_ij(t, t') E_j(t') dt' by the trapezoid rule."""
    conv = LagConvolution.nodes(kernel, triad.grid)
    return conv.dual(conv(conv.project(np.swapaxes(triad.values, 1, 2))))


def cli_target():
    """The README flagship's axis-angle target, as the CLI builds it."""
    return TargetRotation.from_axis_angle((1, 0, 1), 2.0 * math.pi * (math.sqrt(2.0) - 1.0), 1)


def paper_problem(kernel, target, n_steps=512, lambda_inv=50.0, **kw):
    return OptimizationProblem(
        kernel=kernel,
        target=target,
        tau=TAU,
        lambda_inv=lambda_inv,
        grid=TimeGrid(TAU, n_steps),
        **kw,
    )


@pytest.fixture(scope="module")
def solved_50(paper_kernel, paper_target):
    """One converged mid-stiffness solution, shared across certificate tests.

    n = 1024 keeps the certificate's discretization floor safely below the
    default tolerance.
    """
    problem = paper_problem(paper_kernel, paper_target, n_steps=1024, lambda_inv=50.0)
    return problem, solve(problem)


class TestDualTriad:
    def test_zero_kernel(self, paper_target):
        grid = TimeGrid(TAU, 64)
        triad = drift_triad(grid)
        dual = nodal_dual(triad, DiagonalConstant((0.0, 0.0, 0.0)))
        assert np.max(np.abs(dual)) == 0.0

    def test_constant_kernel_static_triad(self):
        grid = TimeGrid(TAU, 128)
        static = propagate_triad(PurePath(grid, np.zeros((grid.n_nodes, 3))))
        dual = nodal_dual(static, DiagonalConstant((0.7, 0.0, 0.0)))
        np.testing.assert_allclose(
            dual[:, 0, :], np.broadcast_to([0.7 * TAU, 0, 0], (grid.n_nodes, 3)), atol=1e-12
        )
        assert np.max(np.abs(dual[:, 1:, :])) < 1e-15

    def test_one_over_f_grid_refinement(self, paper_kernel):
        """The trapezoid dual triad converges at second order.

        A second-order rule's error falls fourfold per grid halving, so
        successive differences shrink by a ratio near 4 and Richardson
        extrapolants from consecutive grid pairs agree far more closely
        than the raw values do.  The raw fine-grid error itself (about
        1.5e-4 at n = 512) is not bounded by 1e-6; no second-order rule
        reaches that on these grids.
        """
        coarse, fine, finest = (
            nodal_dual(drift_triad(TimeGrid(TAU, n)), paper_kernel)[:: n // 256]
            for n in (256, 512, 1024)
        )
        extrap = fine + (fine - coarse) / 3.0
        extrap_fine = finest + (finest - fine) / 3.0
        assert np.max(np.abs(coarse - extrap)) < 1e-3
        assert np.max(np.abs(extrap - extrap_fine)) < 1e-6
        ratio = np.max(np.abs(fine - coarse)) / np.max(np.abs(finest - fine))
        assert 3.9 <= ratio <= 4.1

    def test_linear_in_triad(self, paper_kernel):
        grid = TimeGrid(TAU, 64)
        t1 = drift_triad(grid).values
        d1 = nodal_dual(drift_triad(grid), paper_kernel)
        from spinctl.evolution import TriadPath

        # scaling the triad rows scales the dual linearly (structural check)
        d2 = nodal_dual(TriadPath(grid, t1), paper_kernel)
        np.testing.assert_array_equal(d1, d2)


class TestRefineMemory:
    def test_refine_to_2048_steps_stays_small(self, paper_kernel, paper_target):
        """The refined evaluation and its 4x certificate keep O(n) memory.

        A dense lag matrix on the 8192-step certificate grid alone would
        take 512 MB.
        """
        problem = paper_problem(paper_kernel, paper_target, n_steps=512, lambda_inv=10.0)
        x = 0.3 * np.sin(np.linspace(0.0, 3.0, 512))[:, None] * np.ones(3)
        tracemalloc.start()
        try:
            refine_deviation(problem, x, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestGradient:
    @pytest.mark.parametrize(
        "kernel",
        [OneOverF(8.0, 0.1, 20.0), DiagonalConstant((0.5, 0.2, 0.1))],
        ids=["one_over_f", "diagonal"],
    )
    def test_adjoint_matches_finite_differences(self, kernel, paper_target):
        problem = paper_problem(kernel, paper_target, n_steps=24, lambda_inv=50.0)
        ws = _Workspace(problem)
        ws.mu = 300.0
        rng = np.random.default_rng(5)
        x = rng.normal(0.0, 1.0, (24, 3))
        # without and with a multiplier on the loop defect
        for y in (np.zeros(3), np.array([40.0, -25.0, 60.0])):
            _, grad = ws.objective(x.ravel(), y)
            h = 1e-6
            for i in rng.integers(0, x.size, 10):
                xp = x.ravel().copy()
                xm = x.ravel().copy()
                xp[i] += h
                xm[i] -= h
                fd = (ws.objective(xp, y)[0] - ws.objective(xm, y)[0]) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=2e-6, abs=1e-10)


def unbatched_objective(ws, xflat, lam_inv, mu, y):
    """The objective with one exponential and one Jacobian call per chain (the reference formula)."""
    cells = xflat.reshape(ws.n - 1, 3)
    rmats = quat_to_matrix(qprefix(qexp_vec(-0.5 * ws.dt * cells)))
    phi = -ws.dt * cells
    half_steps = quat_to_matrix(qexp_vec(-0.25 * ws.dt * cells))
    rstars = half_steps @ rmats[:-1]
    lstars = ws.amats_c @ rstars
    s_val, torque = ws._action_core(ws.cells_conv, lstars)
    torque = torque * lam_inv
    r_end = rmats[-1]
    bsq = 6.0 - 2.0 * float(np.trace(r_end))
    c = vee(r_end)
    g_pen = (2.0 * mu) * c + (np.trace(r_end) * np.eye(3) - r_end) @ y
    omega = ws.drift[None, :] + cells
    quad = ws.dt * float(np.sum(omega * omega))
    j_val = lam_inv * s_val + 0.5 * quad + float(np.dot(y, c)) + mu * bsq
    suffix = np.zeros((ws.n - 1, 3))
    suffix[:-1] = np.flip(np.cumsum(np.flip(torque[1:], 0), axis=0), 0)
    sigma = suffix + g_pen[None, :]
    gamma = np.einsum("kab,kb->ka", rmats[1:], sigma)
    dphi = jl_transpose_apply(phi, gamma)
    local = np.einsum("kab,kb->ka", rstars, torque)
    dphi += 0.5 * jl_transpose_apply(0.5 * phi, local)
    grad = ws.dt * omega - ws.dt * dphi
    return j_val, grad.ravel()


class TestObjectiveBits:
    @pytest.mark.parametrize("n_steps", [24, 512])
    def test_stacked_calls_match_unbatched_formula(self, paper_kernel, paper_target, n_steps):
        ws = _Workspace(paper_problem(paper_kernel, paper_target, n_steps=n_steps, lambda_inv=10.0))
        rng = np.random.default_rng(17)
        x = rng.normal(0.0, 2.0, (n_steps, 3)).ravel()
        y = np.array([3.0, -1.5, 0.25])
        j_val, grad = ws.objective(x, y)
        j_ref, grad_ref = unbatched_objective(ws, x, 10.0, 50.0, y)
        assert j_val == j_ref
        np.testing.assert_array_equal(grad, grad_ref)

    @pytest.mark.parametrize("n_steps", [24, 2048])
    def test_evaluation_takes_the_unbatched_chain(self, paper_kernel, paper_target, n_steps):
        # evaluate reads R_k from the objective's stacked chain; it has the bits of the plain chain.
        ws = _Workspace(paper_problem(paper_kernel, paper_target, n_steps=n_steps, lambda_inv=10.0))
        cells = np.random.default_rng(18).normal(0.0, 2.0, (n_steps, 3))
        rmats = quat_to_matrix(qprefix(qexp_vec(-0.5 * ws.dt * cells)))
        sol = ws.evaluate(cells)
        np.testing.assert_array_equal(sol.triad.values, np.swapaxes(ws.amats @ rmats, 1, 2))
        assert sol.bc_error == float(np.linalg.norm(rmats[-1] - np.eye(3)))


class TestDriftBaseline:
    def test_zero_stiffness_returns_drift(self, paper_kernel, paper_target):
        problem = paper_problem(paper_kernel, paper_target, n_steps=256, lambda_inv=0.0)
        sol = solve(problem)
        assert np.max(np.abs(sol.delta_omega_rot.values)) == 0.0
        assert np.max(np.abs(sol.delta_omega.values)) < 1e-9
        assert sol.bc_error < 1e-12
        assert sol.el_residual < 1e-9
        assert math.isinf(sol.S_c)
        # S identical to the standalone quadrature of the drift triad
        expect = action_S(sol.triad, paper_kernel)
        assert sol.S == pytest.approx(expect, rel=1e-12)
        assert sol.E_out == pytest.approx(8.0 * math.pi**2 / 2.0, rel=1e-12)

    def test_el_residual_zero_for_drift(self, paper_kernel, paper_target):
        problem = paper_problem(paper_kernel, paper_target, n_steps=256, lambda_inv=0.0)
        sol = evaluate_deviation(problem, np.zeros((256, 3)))
        assert el_residual(sol, problem) < 1e-9

    def test_cell_convolution_built_only_where_read(self, paper_kernel, paper_target, monkeypatch):
        # The cell convolution serves the objective and the lambda_inv > 0
        # certificate only: the drift solve builds none, and a bare or
        # refined evaluation of a stiff point builds the certificate grid's
        # only when its certificate is read.
        built = []
        orig = LagConvolution.cells

        def counted(kernel, n_cells, dt):
            built.append(n_cells)
            return orig(kernel, n_cells, dt)

        monkeypatch.setattr(LagConvolution, "cells", counted)
        solve(paper_problem(paper_kernel, paper_target, n_steps=512, lambda_inv=0.0))
        assert built == []
        sol = evaluate_deviation(paper_problem(paper_kernel, paper_target, n_steps=16, lambda_inv=10.0),
                                 np.zeros((16, 3)))
        refined = refine_deviation(paper_problem(paper_kernel, paper_target, n_steps=8, lambda_inv=10.0),
                                   np.zeros((8, 3)), 16)
        assert built == []
        residual = sol.el_residual
        assert built == [64]
        assert sol.el_residual == residual and built == [64]
        assert refined.el_residual == residual and built == [64, 64]

    def test_certificate_reads_the_solutions_own_cells(self, paper_kernel, paper_target):
        problem = paper_problem(paper_kernel, paper_target, n_steps=16, lambda_inv=10.0)
        x = 0.3 * np.random.default_rng(3).normal(size=(16, 3))
        expect = evaluate_deviation(problem, x.copy()).el_residual
        sol = evaluate_deviation(problem, x)
        x += 1.0
        assert sol.el_residual == expect
        assert el_residual(sol, problem) == expect

    def test_certificate_rejects_another_problem(self, paper_kernel, paper_target):
        problem = paper_problem(paper_kernel, paper_target, n_steps=16, lambda_inv=10.0)
        sol = evaluate_deviation(problem, np.zeros((16, 3)))
        with pytest.raises(ValueError, match="is not the solution's"):
            el_residual(sol, replace(problem, lambda_inv=20.0))
        # 15 steps have 16 nodes: the solution's 16 cells must not be read as nodal values
        with pytest.raises(ValueError, match="is not the solution's"):
            el_residual(sol, paper_problem(paper_kernel, paper_target, n_steps=15, lambda_inv=10.0))

    def test_solve_evaluates_one_certificate_per_round(self, paper_kernel, paper_target, monkeypatch):
        calls = []
        inner = _Workspace.el_residual

        def counting(self, cells):
            calls.append(1)
            return inner(self, cells)

        monkeypatch.setattr(_Workspace, "el_residual", counting)
        sol = solve(paper_problem(paper_kernel, paper_target, n_steps=256, lambda_inv=1.0))
        assert len(sol.rounds) >= 2
        assert len(calls) == len(sol.rounds)
        # the caller's read (as in cli._solution_record) is the last round's value
        assert sol.el_residual == sol.rounds[-1].el_residual
        assert len(calls) == len(sol.rounds)


class TestSolveCertificates:
    def test_converged_solution_certifies(self, solved_50):
        problem, sol = solved_50
        assert sol.bc_error <= problem.tolerances.bc_tol
        assert sol.el_residual <= problem.tolerances.el_tol
        # the public certificate re-evaluates the solver's own one, bit for bit
        assert el_residual(sol, problem) == sol.el_residual
        assert sol.triad.orthonormality_defect() < 1e-9
        # boundary triads met in the lab frame
        from spinctl.evolution import boundary_triad

        _, fin = boundary_triad(problem.target)
        assert np.max(np.abs(sol.triad.values[-1] - fin)) < 3e-6

    def test_noise_axis_drive_suppressed(self, solved_50):
        _, sol = solved_50
        assert np.max(sol.delta_omega.values[:, 0]) < 0.0

    def test_perturbed_solution_has_larger_residual(self, solved_50):
        problem, sol = solved_50
        rng = np.random.default_rng(8)
        kicked = sol.deviation_cells + 1e-2 * rng.normal(size=sol.deviation_cells.shape)
        worse = evaluate_deviation(problem, kicked)
        assert worse.el_residual > 3.0 * sol.el_residual

    def test_consistency_with_kinematics(self, solved_50):
        # lab controls recovered from the triad agree with the reported ones
        _, sol = solved_50
        ctrl = omega_from_triad(sol.triad)
        err = np.max(np.abs(ctrl.omega_lab.values[2:-2] - sol.control.omega_lab.values[2:-2]))
        assert err < 5e-3

    def test_energy_accounting(self, solved_50):
        problem, sol = solved_50
        assert sol.S_c == pytest.approx(sol.S + sol.E_out / sol.lambda_inv, rel=1e-12)

    def test_benchmark_point_descends_in_few_iterations(self, paper_kernel):
        # The benchmark solve: lambda_inv = 10 at n = 512 on the CLI's
        # axis-angle target, from a cold start.  Its loose first rounds run on
        # COARSE_STEPS = 128 cells (379 objective evaluations), and 512 cells
        # only finish the descent (68 evaluations, against 353 for a solve on
        # 512 cells alone and 471 with every round at the floor gtol).
        problem = paper_problem(paper_kernel, cli_target(), n_steps=512, lambda_inv=10.0)
        sol = solve(problem)
        assert sol.el_residual <= problem.tolerances.el_tol
        grids = [r.grid_steps for r in sol.rounds]
        assert grids == sorted(grids) and grids[0] == optimizer.COARSE_STEPS and grids[-1] == 512
        assert sum(r.nfev for r in sol.rounds if r.grid_steps == 512) < 120
        assert sum(r.nfev for r in sol.rounds if r.grid_steps == optimizer.COARSE_STEPS) < 420

    def test_grid_under_four_coarse_grids_runs_alone(self, paper_kernel):
        sol = solve(paper_problem(paper_kernel, cli_target(), n_steps=256, lambda_inv=1.0))
        assert sol.rounds and all(r.grid_steps == 256 for r in sol.rounds)

    def test_coarse_start_ends_on_the_problem_grid(self, paper_kernel):
        # A solve on 512 cells alone reaches S_c = 13.61649776 here.
        sol = solve(paper_problem(paper_kernel, cli_target(), n_steps=512, lambda_inv=1.0))
        assert sol.deviation_cells.shape == (512, 3)
        assert sol.rounds[0].grid_steps == optimizer.COARSE_STEPS and sol.rounds[-1].grid_steps == 512
        assert sol.S_c == pytest.approx(13.61649776, rel=1e-7)

    def test_borderline_point_certifies(self, paper_kernel, paper_target):
        # Cold lambda_inv = 30 at n = 512 lands at el 8.7e-5 on one descent
        # path and 1.50e-4 on another, at the same S to 4e-7.
        problem = paper_problem(paper_kernel, paper_target, n_steps=512, lambda_inv=30.0)
        sol = solve(problem)
        assert sol.bc_error <= problem.tolerances.bc_tol
        assert sol.el_residual <= problem.tolerances.el_tol

    def test_unreachable_tolerance_raises(self, paper_kernel, paper_target):
        problem = paper_problem(
            paper_kernel,
            paper_target,
            n_steps=64,
            lambda_inv=30.0,
            tolerances=Tolerances(el_tol=1e-12),
        )
        with pytest.raises(NoDescent) as err:
            solve(problem)
        assert err.value.last_solution is not None
        rounds = err.value.last_solution.rounds
        assert rounds and rounds[-1].el_residual == err.value.last_solution.el_residual

    @pytest.mark.parametrize("tolerances, failure", [
        (Tolerances(el_tol=1e-12), NoDescent),  # the certificate cannot reach 1e-12
        (Tolerances(bc_tol=0.0), BCUnreachable),  # the loop never closes exactly
    ])
    def test_one_type_catches_every_failure(self, paper_kernel, paper_target, tolerances, failure):
        problem = paper_problem(paper_kernel, paper_target, n_steps=16, lambda_inv=1.0, tolerances=tolerances)
        with pytest.raises(SolveFailed) as err:
            solve(problem)
        assert type(err.value) is failure
        assert err.value.last_solution.lambda_inv == 1.0 and err.value.last_solution.rounds

    def test_refine_consistency(self, solved_50):
        problem, sol = solved_50
        refined = refine_deviation(problem, sol.deviation_cells, 2048)
        assert refined.S == pytest.approx(sol.S, rel=1e-3)
        assert refined.bc_error < 1e-4

    def test_discretization_is_second_order(self, paper_kernel, paper_target):
        # An unreachable el_tol stops each solve at its discrete optimum.
        # Measured: el 3.6355e-3, 9.0875e-4, 2.2706e-4, 5.6685e-5 and S
        # 2.1979292, 2.1960719, 2.1956075, 2.1954914 on n = 64 ... 512, so
        # both errors fall fourfold per halving.  A higher-order
        # transcription changes the expected order here.
        el, S = [], []
        for n_steps in (64, 128, 256, 512):
            problem = paper_problem(paper_kernel, paper_target, n_steps=n_steps, lambda_inv=10.0,
                                    tolerances=Tolerances(el_tol=1e-12))
            with pytest.raises(NoDescent) as err:
                solve(problem)
            el.append(err.value.last_solution.el_residual)
            S.append(err.value.last_solution.S)
        el, dS = np.array(el), np.abs(np.diff(S))
        orders = np.log2(np.concatenate([el[:-1] / el[1:], dS[:-1] / dS[1:]]))
        assert np.all((1.9 <= orders) & (orders <= 2.1)), orders


class TestRoundSchedule:
    @staticmethod
    def recording(monkeypatch, held_above_floor=False):
        """Rebind optimizer.minimize to record each round's gtol; optionally return the start point above the floor."""
        from scipy.optimize import OptimizeResult

        gtols = []
        inner = optimizer.minimize

        def wrapped(fun, x0, **kwargs):
            gtol = kwargs["options"]["gtol"]
            gtols.append(gtol)
            if held_above_floor and gtol > optimizer.GTOL_FLOOR:
                return OptimizeResult(x=x0.copy(), nit=0, nfev=0, message="held")
            return inner(fun, x0, **kwargs)

        monkeypatch.setattr(optimizer, "minimize", wrapped)
        return gtols

    def test_rounds_tighten_to_the_floor(self, paper_kernel, paper_target, monkeypatch):
        # An unreachable el_tol runs rounds until one at the floor stops progressing.
        gtols = self.recording(monkeypatch)
        problem = paper_problem(paper_kernel, paper_target, n_steps=64, lambda_inv=10.0,
                                tolerances=Tolerances(el_tol=1e-12))
        with pytest.raises(NoDescent) as err:
            solve(problem)
        assert len(gtols) == len(err.value.last_solution.rounds) >= 5
        assert gtols[:4] == [1e-4, 1e-6, 1e-8, 1e-10]
        assert set(gtols[4:]) == {optimizer.GTOL_FLOOR}

    def test_loose_rounds_without_progress_go_on_to_the_floor(self, paper_kernel, paper_target, monkeypatch):
        gtols = self.recording(monkeypatch, held_above_floor=True)
        problem = paper_problem(paper_kernel, paper_target, n_steps=256, lambda_inv=1.0)
        sol = solve(problem)
        assert [r.message for r in sol.rounds[:3]] == ["held"] * 3
        assert gtols[:3] == [1e-4, 1e-6, 1e-8] and set(gtols[3:]) == {optimizer.GTOL_FLOOR}
        assert sol.bc_error <= problem.tolerances.bc_tol
        assert sol.el_residual <= problem.tolerances.el_tol


class TestSweep:
    @pytest.mark.parametrize("ladder", [(10.0, 20.0), (0.0, 10.0, 10.0), (0.0, 20.0, 10.0)])
    def test_bad_ladder_rejected(self, paper_kernel, paper_target, ladder):
        with pytest.raises(ValueError, match="^ladder must start at 0 and increase strictly$"):
            sweep_lambda(paper_problem(paper_kernel, paper_target, n_steps=16, lambda_inv=0.0), ladder)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_ladder_rejected(self, paper_kernel, paper_target, bad):
        # NaN compares false with everything, so the order check alone lets it through.
        with pytest.raises(ValueError, match="^ladder must be finite$"):
            sweep_lambda(paper_problem(paper_kernel, paper_target, n_steps=16, lambda_inv=0.0), (0.0, bad))

    def test_single_point_sweep_is_drift(self, paper_kernel, paper_target):
        problem = paper_problem(paper_kernel, paper_target, n_steps=128, lambda_inv=0.0)
        points = sweep_lambda(problem, (0.0,))
        assert len(points) == 1
        sol = points[0]
        assert np.max(np.abs(sol.delta_omega_rot.values)) == 0.0

    def test_failed_point_is_its_exception(self, paper_kernel, paper_target):
        problem = paper_problem(paper_kernel, paper_target, n_steps=16, lambda_inv=0.0,
                                tolerances=Tolerances(el_tol=1e-12))
        drift, failed = sweep_lambda(problem, (0.0, 1.0))
        assert isinstance(drift, ControlSolution) and drift.lambda_inv == 0.0
        assert isinstance(failed, NoDescent)
        assert failed.last_solution.lambda_inv == 1.0 and failed.last_solution.rounds

    def test_point_is_its_own_solve(self, paper_kernel, paper_target):
        # A point started from its predecessor's cells ends at another S in
        # the eighth digit (3.43470857 against 3.43470880 at lambda_inv = 2).
        problem = paper_problem(paper_kernel, paper_target, n_steps=32, lambda_inv=0.0,
                                tolerances=Tolerances(el_tol=0.1))
        for point in sweep_lambda(problem, (0.0, 1.0, 2.0)):
            alone = solve(replace(problem, lambda_inv=point.lambda_inv))
            np.testing.assert_array_equal(point.deviation_cells, alone.deviation_cells)
            assert (point.S, point.S_c) == (alone.S, alone.S_c)
