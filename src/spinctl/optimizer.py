"""Constrained variational solver for optimal control trajectories.

Minimizes the noise action S augmented with an energy-output term,
S_c = S + (lambda/2) int |Omega|^2 dt, over rigid-triad trajectories meeting
the target boundary conditions.  The solver works in the frame co-rotating
with the constant drift Omega_D: decision variables are the cell values of
the deviation field dOmega(t) (static components), the rotating triad is
reconstructed by propagation from the static triad, and the terminal
closed-loop condition c = vee(R_N) = 0 is enforced by an augmented
Lagrangian (method of multipliers) with a fixed, moderate penalty weight:
the multiplier closes the loop, so the penalty only has to keep each round's
subproblem well conditioned.

Descent is quasi-Newton (L-BFGS) on the scaled objective
J = lambda_inv * S + (1/2) int |Omega_D + dOmega|^2 dt + y . c + mu * |R_N - I|_F^2
with gradients accumulated analytically by reverse transport along the
rotation chain (a finite-difference cross-check lives in the test suite).
Between rounds the multiplier is updated, y <- y + mu c.  While y is still
wrong the rounds are inexact (GTOL_START; Conn, Gould & Toint, SIAM J. Numer.
Anal. 28, 545 (1991); Nocedal & Wright, 2nd ed., Algorithm 17.4), and only a
round at the floor tolerance can end a solve for lack of progress.
The stationarity condition of the continuum problem is never used by the
minimizer; it is evaluated afterwards as an independent certificate.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from .errors import BCUnreachable, NoDescent, SolveFailed
from .evolution import ControlPath, TargetRotation, TriadPath, drift_for_target
from .fidelity import action_S
from .magnus import PurePath, TimeGrid
from .noise import LagConvolution, NoiseKernel
from .quat import cross3, jl_transpose_apply, qexp_vec, qprefix, quat_to_matrix, vee

__all__ = [
    "Tolerances",
    "check_ladder",
    "OptimizationProblem",
    "ControlSolution",
    "SolveRound",
    "el_residual",
    "evaluate_deviation",
    "refine_deviation",
    "solve",
    "sweep_lambda",
]

# Fixed penalty weight of the augmented Lagrangian (units of 1/tau).  The
# multiplier closes the loop, so mu need only be moderate: a large mu only
# ill-conditions each round's subproblem (Nocedal & Wright, Numerical
# Optimization, 2nd ed., 17.3); 1e4 needed 1,543 L-BFGS iterations at
# lambda_inv = 10, n = 512, where 50 needs 314 (407 with exact rounds).  Of the
# values tried, only 50 certifies every cold solve at lambda_inv in
# {1, ..., 250} x n in {256, 512, 1024} that 1e4 certified (10, 30, 70, 100,
# 150 and 200 each lose an n = 512 point, whose certificate sits near 1e-4).
MU = 50.0
# L-BFGS relative-decrease stop of each round; the certificate, not this,
# decides convergence.
FTOL = 1e-15
# Gradient tolerance of round k = 0, 1, ...: max(GTOL_FLOOR, GTOL_START / GTOL_FACTOR**k).
GTOL_START = 1e-4
GTOL_FACTOR = 100.0
GTOL_FLOOR = 1e-10
# Cap on the round index of each grid's pass.  The benchmark solve (lambda_inv
# = 10, n = 512) takes 9 rounds: 6 on COARSE_STEPS cells and 3 on its own grid.
MAX_ROUNDS = 20
# Grid of the first rounds of a solve on >= 4 * COARSE_STEPS cells (grid
# sequencing; Betts, Practical Methods for Optimal Control, 2nd ed., 4.7).
# 64 cells leave lambda_inv = 30, n = 512 at el 1.5e-4, uncertified.
COARSE_STEPS = 128


@dataclass(frozen=True)
class Tolerances:
    bc_tol: float = 1e-6
    el_tol: float = 1e-4


def check_ladder(values, name: str):
    """Raise ValueError unless a lambda_inv ladder is empty, or finite, starting at 0 and strictly increasing."""
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite")
    if values and (values[0] != 0.0 or any(b <= a for a, b in zip(values, values[1:]))):
        raise ValueError(f"{name} must start at 0 and increase strictly")


@dataclass(frozen=True)
class OptimizationProblem:
    """Specification of one constrained optimization run.

    ``lambda_inv`` dials the energy constraint: 0 makes output infinitely
    costly (the drift geodesic is then optimal); larger values buy more
    control amplitude.
    """

    kernel: NoiseKernel
    target: TargetRotation
    tau: float
    lambda_inv: float
    grid: TimeGrid
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError("tau must be positive and finite")
        if abs(self.grid.tau - self.tau) > 1e-12 * self.tau:
            raise ValueError("grid.tau must equal the problem transit time")
        if self.lambda_inv < 0.0 or not math.isfinite(self.lambda_inv):
            raise ValueError("lambda_inv must be finite and >= 0")


@dataclass(frozen=True)
class SolveRound:
    """One augmented-Lagrangian round: its L-BFGS descent and the certificate after it.

    ``y_norm`` is |y| of the loop-defect multiplier the round descended
    with; ``seconds`` is the wall time of the descent plus the evaluation;
    ``grid_steps`` is the grid the round ran on (COARSE_STEPS for the first
    rounds of a solve on at least 4 * COARSE_STEPS cells).  Round k descends
    to gtol max(GTOL_FLOOR, GTOL_START / GTOL_FACTOR**k).
    """

    nit: int
    nfev: int
    message: str
    bc_error: float
    el_residual: float
    y_norm: float
    seconds: float
    grid_steps: int


@dataclass(frozen=True)
class ControlSolution:
    """Optimized trajectory bundle for one value of lambda_inv.

    ``delta_omega`` is the lab-frame deviation omega(t) - Omega_D;
    ``delta_omega_rot`` is the nodal rotating-frame deviation history
    (static components), reconstructed from the cell-centered decision
    variables kept in ``deviation_cells``.  ``S_c`` is +inf at
    lambda_inv = 0, where the energy term carries an infinite weight.
    ``el_residual`` is the force-balance certificate of ``deviation_cells``
    (see the module's ``el_residual``); it is computed on first read and
    kept, so a caller that never reads it builds no certificate grid.
    ``rounds`` records each multiplier round of the solve, all at the
    penalty weight MU / tau (empty when no descent ran, as at lambda_inv = 0
    or for a bare evaluation).
    """

    triad: TriadPath
    control: ControlPath
    delta_omega: PurePath
    delta_omega_rot: PurePath
    deviation_cells: np.ndarray
    S: float
    S_c: float
    E_out: float
    bc_error: float
    lambda_inv: float
    _certify: Callable[[], float] = field(compare=False, repr=False)
    rounds: tuple[SolveRound, ...] = ()

    @property
    def el_residual(self) -> float:
        return self._certify()


def _resample_cells(cells: np.ndarray, grid: TimeGrid, t_dst: np.ndarray) -> np.ndarray:
    """Cubic-spline resampling of cell values from a grid's cell centers to times ``t_dst``."""
    from scipy.interpolate import CubicSpline  # on first use; see the package docstring
    return CubicSpline(grid.centers, cells, axis=0)(t_dst)


def _coerce_cells(x: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Cell values of a cell (n_steps, 3) or nodal (n_nodes, 3) deviation on ``grid``.

    Nodal input is averaged onto the cells, which does not invert the
    solver's nodal reconstruction: pass ``deviation_cells`` to keep a
    solution's own cells.
    """
    x = np.asarray(x, dtype=float)
    if x.shape == (grid.n_steps, 3):
        return x
    if x.shape == (grid.n_nodes, 3):
        return 0.5 * (x[:-1] + x[1:])
    raise ValueError(f"deviation must have shape ({grid.n_steps}, 3) or ({grid.n_nodes}, 3)")


# Certificate resolution multiplier: the force balance is checked on a grid
# this many times finer than the transcription, so evaluation error sits far
# below the certified tolerance.
CERTIFICATE_REFINE = 4


def el_residual(solution: ControlSolution, problem: OptimizationProblem) -> float:
    """Independent stationarity certificate from the force-balance equation.

    The returned deviation history is interpolated by a cubic spline onto a
    grid CERTIFICATE_REFINE times finer, re-propagated, and
    max_t |lambda dOmega/dt + sum_i E_i ^ D_i| is evaluated at that grid's
    interval midpoints, normalized by lambda |Omega_D| / tau + max_t
    sum_i |D_i|.  At lambda_inv = 0 the condition degenerates to constancy
    of the control, so the residual is max_t |dOmega/dt| * tau / |Omega_D|.

    The minimizer never uses this equation; it is a post-hoc certificate.
    ValueError unless ``problem`` has the solution's lambda_inv and cell count.
    """
    cells = solution.deviation_cells
    if solution.lambda_inv != problem.lambda_inv or cells.shape != (problem.grid.n_steps, 3):
        raise ValueError(f"problem (lambda_inv {problem.lambda_inv!r}, {problem.grid.n_steps} cells) is not the solution's")
    return _Workspace(problem).el_residual(cells)


class _Workspace:
    """Precomputed quantities shared by every objective evaluation.

    The decision variables are the cell values of the rotating-frame
    deviation field (static components at interval midpoints, shape
    (n_steps, 3)).  Cell-centered controls leave the propagation chain with
    no null modes, so the discrete stationarity conditions approximate the
    continuum force balance uniformly up to the grid order; nodal histories
    are recovered by second-order interpolation for reporting.  The
    certificate is the same workspace on a finer grid (``certificate``).
    Every array is built on first use, so each workspace builds only what
    its callers read: a lambda_inv = 0 solve builds no cell convolution.
    """

    def __init__(self, problem: OptimizationProblem):
        self.problem = problem
        self.n = problem.grid.n_nodes
        self.dt = problem.grid.dt
        self.drift = drift_for_target(problem.target, problem.tau).as_array()
        self.mu = MU / problem.tau  # penalty weight of the augmented Lagrangian

    def _drift_frames(self, t: np.ndarray) -> np.ndarray:
        """Drift de-rotation matrices A(t) = R(conj(u0(t))), u0 = exp(t/2 Omega_D)."""
        return quat_to_matrix(qexp_vec(-0.5 * t[:, None] * self.drift[None, :]))

    @cached_property
    def amats_c(self) -> np.ndarray:
        """Drift de-rotation matrices at the cell centers (for the objective and certificate)."""
        return self._drift_frames(self.problem.grid.centers)

    @cached_property
    def amats(self) -> np.ndarray:
        """Drift de-rotation matrices at the nodes (for reporting)."""
        return self._drift_frames(self.problem.grid.nodes)

    @cached_property
    def cells_conv(self) -> LagConvolution:
        """Midpoint convolution of the objective's action."""
        return LagConvolution.cells(self.problem.kernel, self.n - 1, self.dt)

    @cached_property
    def certificate(self) -> "_Workspace":
        """This workspace on the grid CERTIFICATE_REFINE times finer, where the certificate is evaluated."""
        problem = self.problem
        return _Workspace(replace(problem, grid=TimeGrid(problem.tau, CERTIFICATE_REFINE * problem.grid.n_steps)))

    def nodes_from_cells(self, cells: np.ndarray) -> np.ndarray:
        """Second-order reconstruction of nodal values from cell values."""
        out = np.empty((self.n, 3))
        out[1:-1] = 0.5 * (cells[:-1] + cells[1:])
        out[0] = 1.5 * cells[0] - 0.5 * cells[1]
        out[-1] = 1.5 * cells[-1] - 0.5 * cells[-2]
        return out

    @staticmethod
    def _action_core(conv: LagConvolution, lmats: np.ndarray) -> tuple[float, np.ndarray]:
        """Action quadrature on lab matrices plus its body-frame torque per sample."""
        s_val, d = conv.action(lmats)
        u = np.einsum("kab,rka->rkb", lmats, d)  # L_k^T D_r[k]
        torque = conv.weights[:, None] * np.sum(cross3(conv.axes[:, None, :], u), axis=0)
        return s_val, torque

    def _chain(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chain rotations R_k (n_nodes), half-step rotations R*_k and lab matrices A_k R*_k at the cells.

        R_k belongs to the chain v_{k+1} = exp(-(dt/2) c_k) v_k, v_0 = 1.
        The chain steps and the half steps Rot(phi_k/2), phi_k = -dt c_k,
        share one exponential and one matrix conversion.
        """
        m = len(cells)
        units = qexp_vec(np.concatenate([-0.5 * self.dt * cells, -0.25 * self.dt * cells]))
        mats = quat_to_matrix(np.concatenate([qprefix(units[:m]), units[m:]]))
        rmats, half_steps = mats[: m + 1], mats[m + 1 :]
        rstars = half_steps @ rmats[:-1]
        return rmats, rstars, self.amats_c @ rstars

    def objective(self, xflat: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Scaled objective J and its gradient with respect to the cell deviations.

        ``y`` is the multiplier on the loop defect c = vee(R_N).  The action
        quadrature lives on the cell centers (midpoint rule, with the triad
        advanced a half step into each cell), which keeps the discrete
        stationarity conditions second-order consistent with the continuum
        force balance.
        """
        m = self.n - 1
        cells = xflat.reshape(m, 3)
        rmats, rstars, lstars = self._chain(cells)
        phi = -self.dt * cells

        s_val, torque = self._action_core(self.cells_conv, lstars)
        torque = torque * self.problem.lambda_inv  # body-frame torque per cell

        # Terminal loop closure: multiplier term y . vee(R_N) plus the
        # quadratic penalty |R_N - I|_F^2 = 6 - 2 tr R_N.
        r_end = rmats[-1]
        tr = np.trace(r_end)
        bsq = 6.0 - 2.0 * float(tr)
        c = vee(r_end)
        g_pen = (2.0 * self.mu) * c + (tr * np.eye(3) - r_end) @ y

        omega = self.drift[None, :] + cells
        quad = self.dt * float(np.sum(omega * omega))
        j_val = self.problem.lambda_inv * s_val + 0.5 * quad + float(np.dot(y, c)) + self.mu * bsq

        # Reverse transport.  Perturbing cell k moves every later cell sample
        # and the terminal node through R_{k+1}, plus its own half-step sample.
        suffix = np.zeros((m, 3))
        suffix[:-1] = np.flip(np.cumsum(np.flip(torque[1:], 0), axis=0), 0)
        sigma = suffix + g_pen[None, :]
        gamma = np.einsum("kab,kb->ka", rmats[1:], sigma)
        local = np.einsum("kab,kb->ka", rstars, torque)
        jt = jl_transpose_apply(np.concatenate([phi, 0.5 * phi]), np.concatenate([gamma, local]))
        dphi = jt[:m] + 0.5 * jt[m:]

        grad = self.dt * omega - self.dt * dphi
        return j_val, grad.ravel()

    def el_residual(self, cells: np.ndarray) -> float:
        """Force-balance certificate of cell values on this grid (see the module's ``el_residual``).

        The cells are resampled onto the certificate workspace's cells, and
        the residual is evaluated there with that workspace's arrays.
        """
        cert = self.certificate
        cells = _resample_cells(cells, self.problem.grid, cert.problem.grid.centers)
        omega_star = np.einsum("kab,kb->ka", cert.amats_c, cert.drift[None, :] + cells)
        dom = np.gradient(omega_star, cert.dt, axis=0, edge_order=2)
        drift_norm = float(np.linalg.norm(cert.drift))
        if self.problem.lambda_inv == 0.0:
            return float(np.max(np.linalg.norm(dom, axis=1))) * self.problem.tau / max(drift_norm, 1e-300)

        _, _, lstars = cert._chain(cells)
        conv = cert.cells_conv
        lam = 1.0 / self.problem.lambda_inv
        p = conv.project(lstars)
        d = conv(p)
        force = np.sum(cross3(p, d), axis=0)
        dual_scale = float(np.max(np.sum(np.linalg.norm(conv.dual(d), axis=2), axis=1)))
        resid = lam * dom + force
        norm = lam * drift_norm / self.problem.tau + dual_scale
        return float(np.max(np.linalg.norm(resid, axis=1))) / norm

    # -- solution assembly ---------------------------------------------------

    def evaluate(self, x: np.ndarray) -> ControlSolution:
        grid, lam_inv = self.problem.grid, self.problem.lambda_inv
        cells = _coerce_cells(x, grid)
        x_nodes = self.nodes_from_cells(cells)
        rmats = self._chain(cells)[0]
        lmats = self.amats @ rmats
        lab_triad = TriadPath(grid, np.swapaxes(lmats, 1, 2))

        omega_body = np.einsum("kba,kb->ka", rmats, self.drift[None, :] + x_nodes)
        omega_rot = np.einsum("kab,kb->ka", self.amats, self.drift[None, :] + x_nodes)
        control = ControlPath(grid, PurePath(grid, omega_rot), PurePath(grid, omega_body))
        delta_omega = PurePath(grid, omega_body - self.drift[None, :])

        s_val = action_S(lab_triad, self.problem.kernel)
        omega_cells = self.drift[None, :] + cells
        e_out = 0.5 * self.dt * float(np.sum(omega_cells * omega_cells))
        s_c = math.inf if lam_inv == 0.0 else s_val + e_out / lam_inv
        bc_error = float(np.linalg.norm(rmats[-1] - np.eye(3)))
        own = cells.copy()

        return ControlSolution(
            triad=lab_triad,
            control=control,
            delta_omega=delta_omega,
            delta_omega_rot=PurePath(grid, x_nodes),
            deviation_cells=own,
            S=s_val,
            S_c=s_c,
            E_out=e_out,
            bc_error=bc_error,
            lambda_inv=lam_inv,
            _certify=cache(lambda: self.el_residual(own)),
        )


def evaluate_deviation(problem: OptimizationProblem, x: np.ndarray) -> ControlSolution:
    """Assemble the full solution bundle for a given deviation history.

    No optimization is performed; useful for baselines, perturbation tests
    and re-evaluating stored deviations on other grids.  ``x`` may be a
    cell (n_steps, 3) or nodal (n_nodes, 3) history.
    """
    return _Workspace(problem).evaluate(x)


def refine_deviation(problem: OptimizationProblem, x: np.ndarray, n_steps: int) -> ControlSolution:
    """Re-evaluate a deviation history on a finer grid (cubic resampling).

    ``x`` may be a cell (n_steps, 3) or nodal (n_nodes, 3) history on the
    problem grid; it is resampled onto the finer grid's cell centers.  Pass
    a solution's ``deviation_cells``: nodal input is averaged onto cells
    first (see ``_coerce_cells``).
    """
    fine_grid = TimeGrid(problem.tau, n_steps)
    cells = _resample_cells(_coerce_cells(x, problem.grid), problem.grid, fine_grid.centers)
    return evaluate_deviation(replace(problem, grid=fine_grid), cells)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize`` on first use, under the module name the benchmark's tracer rebinds."""
    from scipy import optimize
    return optimize.minimize(*args, **kwargs)


def _descend(
    ws: _Workspace, x: np.ndarray, y: np.ndarray, first_round: int, rounds: list[SolveRound]
) -> tuple[ControlSolution, np.ndarray, SolveFailed | None]:
    """Multiplier rounds on ``ws``'s grid from cells ``x`` and multiplier ``y``.

    Round indices (and so gtol) start at ``first_round``; each round is
    appended to ``rounds``, the solve's record.  Returns the last solution,
    the multiplier y where the rounds stopped, and None if that solution is
    certified, else the ``SolveFailed`` that ended the rounds.
    """
    problem = ws.problem
    tols = problem.tolerances
    best_bc = best_el = math.inf
    for k in range(first_round, MAX_ROUNDS):
        start = time.perf_counter()
        gtol = max(GTOL_FLOOR, GTOL_START / GTOL_FACTOR**k)
        res = minimize(
            ws.objective, x.ravel(), args=(y,), jac=True, method="L-BFGS-B",
            options={"maxiter": 12_000, "ftol": FTOL, "gtol": gtol, "maxcor": 30},
        )
        x = res.x.reshape(ws.n - 1, 3)
        sol = ws.evaluate(x)
        rounds.append(SolveRound(
            nit=int(res.nit), nfev=int(res.nfev), message=str(res.message),
            bc_error=sol.bc_error, el_residual=sol.el_residual, y_norm=float(np.linalg.norm(y)),
            seconds=time.perf_counter() - start, grid_steps=problem.grid.n_steps,
        ))
        sol = replace(sol, rounds=tuple(rounds))
        bc_open = not sol.bc_error <= tols.bc_tol  # a NaN measure stays open
        el_open = not sol.el_residual <= tols.el_tol
        if not (bc_open or el_open):
            return sol, y, None
        if gtol == GTOL_FLOOR:  # progress is judged between floor rounds only
            progress = (bc_open and sol.bc_error < best_bc) or (el_open and sol.el_residual < best_el)
            if not progress:
                break
            best_bc = min(best_bc, sol.bc_error)
            best_el = min(best_el, sol.el_residual)
        y = y + ws.mu * vee(ws._chain(x)[0][-1])
    if bc_open:
        return sol, y, BCUnreachable(
            f"boundary error {sol.bc_error:.3e} (> bc_tol {tols.bc_tol:g}) after "
            f"multiplier rounds (message: {res.message})",
            last_solution=sol,
        )
    return sol, y, NoDescent(
        f"stationarity certificate stalled at {sol.el_residual:.3e} "
        f"(> el_tol {tols.el_tol:g}; descent message: {res.message})",
        last_solution=sol,
    )


def solve(problem: OptimizationProblem) -> ControlSolution:
    """Minimize the constrained action at the problem's lambda_inv.

    lambda_inv = 0 short-circuits to the exact drift solution (zero
    deviation).  Otherwise the method of multipliers runs from zero
    deviation at the fixed penalty weight MU / tau: each round is one
    quasi-Newton descent on the augmented Lagrangian, to a gtol tightening
    down to GTOL_FLOOR, then the multiplier update y <- y + mu vee(R_N).
    A pass ends as soon as the terminal triad closes to ``bc_tol``
    and the independent stationarity residual passes ``el_tol``.

    The rounds run in one pass per grid: on COARSE_STEPS cells, where an
    evaluation is cheap, if the problem grid has at least 4 * COARSE_STEPS
    cells, then on the problem grid.  A later pass starts from the last
    iterate before it, certified or not, resampled onto its cells, at
    round 1 with its multiplier.  Only the last pass's outcome counts.

    Raises
    ------
    BCUnreachable
        If the loop is still open when a round at the floor tolerance no
        longer lowers the boundary error (or after MAX_ROUNDS rounds).
    NoDescent
        If the loop is closed but a round at the floor tolerance no longer
        lowers the stationarity residual (or after MAX_ROUNDS rounds).

    Both are ``SolveFailed`` and carry the last iterate as
    ``last_solution``; it and the returned solution record every round,
    on every grid, in ``rounds``.
    """
    grid = problem.grid
    if problem.lambda_inv == 0.0:
        return _Workspace(problem).evaluate(np.zeros((grid.n_steps, 3)))

    grids = [TimeGrid(problem.tau, COARSE_STEPS), grid] if grid.n_steps >= 4 * COARSE_STEPS else [grid]
    rounds: list[SolveRound] = []
    x, y = np.zeros((grids[0].n_steps, 3)), np.zeros(3)
    for i, g in enumerate(grids):
        if i:  # continue from the previous pass's last iterate, on this grid's cells
            x = _resample_cells(sol.deviation_cells, sol.triad.grid, g.centers)
        sol, y, failure = _descend(_Workspace(replace(problem, grid=g)), x, y, min(i, 1), rounds)
    if failure is not None:
        raise failure
    return sol


def sweep_lambda(problem: OptimizationProblem, ladder) -> tuple[ControlSolution | SolveFailed, ...]:
    """``solve`` at each lambda_inv of ``ladder``, every point from a cold start.

    The ladder must start at 0 and increase strictly; ``problem.lambda_inv``
    is not read.  Each point is its certified ``ControlSolution`` or the
    ``SolveFailed`` that ended its solve (its ``last_solution`` holds the
    point's lambda_inv and rounds), so a point depends on its own
    lambda_inv only.
    """
    ladder = tuple(float(v) for v in ladder)
    check_ladder(ladder, "ladder")
    points: list[ControlSolution | SolveFailed] = []
    for lam_inv in ladder:
        try:
            points.append(solve(replace(problem, lambda_inv=lam_inv)))
        except SolveFailed as exc:
            points.append(exc)
    return tuple(points)
