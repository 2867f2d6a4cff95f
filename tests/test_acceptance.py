"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 9's fidelity
threshold is implemented faithfully and is expected to fail; its docstring
and failure message carry the measured numbers.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from spinctl.errors import SolveFailed
from spinctl.evolution import drift_control, propagate_triad
from spinctl.fidelity import (
    SpinNumber,
    action_S,
    amplitude_half,
    amplitude_s,
    chebyshev_U,
    fidelity_weak,
    mc_fidelity,
    mc_fidelity_table,
)
from spinctl.magnus import (
    PurePath,
    TimeGrid,
    magnus_term,
    random_smooth_path,
    solve_m_ode,
    solve_m_ode_batch,
    time_ordered_exp,
)
from spinctl.optimizer import OptimizationProblem, Tolerances, sweep_lambda
from spinctl.quat import (
    PureQuat,
    Quat,
    UnitQuat,
    qexp,
    qlog,
    qmul,
    qnorm,
    rotate,
    umul,
)

from conftest import quat_tuple

TAU = 1.0
SWEEP_LADDER = (0.0, 10.0, 20.0, 30.0, 50.0, 100.0, 250.0)
# Certificate tolerance for the n_steps = 512 sweep: the spec default 1e-4
# sits below this transcription's discretization floor at large lambda_inv.
# Converged optima certify at 1.29e-4, 1.94e-4 and 4.0e-4 for lambda_inv =
# 50, 100 and 250; at n_steps = 1024 the lambda_inv = 50 value falls to
# 3.1e-5 (ratio 4.2), the second-order floor rather than a stall.  1e-3
# still flags genuinely unconverged output, which lands at 1e-2 and above.
SWEEP_EL_TOL = 1e-3


def _emit(num, verdict, detail):
    print(f"[acceptance] criterion {num}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def paper_sweep(paper_kernel, paper_target):
    """One solve per point of the full ladder at n_steps = 512, each from a cold start."""
    problem = OptimizationProblem(
        kernel=paper_kernel,
        target=paper_target,
        tau=TAU,
        lambda_inv=SWEEP_LADDER[-1],
        grid=TimeGrid(TAU, 512),
        tolerances=Tolerances(el_tol=SWEEP_EL_TOL),
    )
    points = sweep_lambda(problem, SWEEP_LADDER)
    for point in points:
        assert not isinstance(point, SolveFailed), f"sweep failed at {point.last_solution.lambda_inv}: {point}"
    return problem, points


def test_criterion_01_magnus_ode_matches_ordered_product():
    # The lanes of solve_m_ode_batch are solve_m_ode runs bit for bit
    # (tests/test_magnus.py); stepping the 60 together is the fast way.
    grid = TimeGrid(TAU, 10_000)
    rng = np.random.default_rng(101)
    epsilons = (0.1, 0.5, 1.0)
    paths = [random_smooth_path(grid, rng) for _ in range(20)]
    m_tau = solve_m_ode_batch(np.stack([n.values for n in paths]), epsilons, grid)
    worst = 0.0
    for n, m_row in zip(paths, m_tau):
        for eps, m in zip(epsilons, m_row):
            left = qexp(PureQuat(*(0.5 * eps * m)))
            right = time_ordered_exp(n, eps)
            worst = max(worst, float(np.linalg.norm(quat_tuple(left) - quat_tuple(right))))
    _emit(1, "PASS" if worst <= 1e-8 else "FAIL", f"worst oracle mismatch {worst:.3e} (bound 1e-8)")
    assert worst <= 1e-8


def test_criterion_02_perturbative_orders_match_exact_solution():
    grid = TimeGrid(TAU, 2000)
    rng = np.random.default_rng(102)
    h = 0.05
    worst = 0.0
    for _ in range(10):
        n = random_smooth_path(grid, rng, amplitude=0.4)
        flipped = PurePath(grid, -n.values)

        def m_of(eps):
            # negative strengths via the parity identity m_{-e}[n] = -m_e[-n]
            if eps >= 0:
                return solve_m_ode(n, eps).values
            return -solve_m_ode(flipped, -eps).values

        m0 = m_of(0.0)
        mp, mm, mp2, mm2 = m_of(h), m_of(-h), m_of(2 * h), m_of(-2 * h)
        refs = (
            m0,
            (8.0 * (mp - mm) - (mp2 - mm2)) / (12.0 * h),
            (16.0 * (mp + mm) - (mp2 + mm2) - 30.0 * m0) / (24.0 * h * h),
        )
        for order, ref in enumerate(refs):
            got = magnus_term(n, order).values
            rel = np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300)
            worst = max(worst, float(rel))
    _emit(2, "PASS" if worst <= 1e-4 else "FAIL", f"worst relative order mismatch {worst:.3e} (bound 1e-4)")
    assert worst <= 1e-4


def test_criterion_03_quaternion_law_suite():
    rng = np.random.default_rng(103)
    cases = 10_000
    worst = {"assoc": 0.0, "modulus": 0.0, "compose": 0.0, "explog": 0.0}
    for _ in range(cases):
        p = Quat(*rng.normal(size=4))
        q = Quat(*rng.normal(size=4))
        r = Quat(*rng.normal(size=4))
        lhs = qmul(qmul(p, q), r)
        rhs = qmul(p, qmul(q, r))
        worst["assoc"] = max(
            worst["assoc"], max(abs(a - b) for a, b in zip(lhs.wxyz(), rhs.wxyz()))
        )
        worst["modulus"] = max(worst["modulus"], abs(qnorm(qmul(p, q)) - qnorm(p) * qnorm(q)))
        u1 = UnitQuat.normalized(*rng.normal(size=4))
        u2 = UnitQuat.normalized(*rng.normal(size=4))
        vec = PureQuat(*rng.normal(size=3))
        a = rotate(umul(u2, u1), vec)
        b = rotate(u2, rotate(u1, vec))
        worst["compose"] = max(
            worst["compose"], max(abs(x - y) for x, y in zip(a.wxyz(), b.wxyz()))
        )
        back = qexp(qlog(u1))
        worst["explog"] = max(
            worst["explog"], max(abs(x - y) for x, y in zip(back.wxyz(), u1.wxyz()))
        )
    ok = (
        worst["assoc"] <= 1e-12
        and worst["modulus"] <= 1e-12
        and worst["compose"] <= 1e-12
        and worst["explog"] <= 1e-10
    )
    _emit(3, "PASS" if ok else "FAIL", f"{cases} cases each; worst: {worst}")
    assert ok


def test_criterion_04_chebyshev_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        two_s = int(rng.integers(1, 26))
        spin = SpinNumber(two_s)
        m_tau = float(rng.uniform(0.0, 30.0))
        eps = float(rng.uniform(0.0, 2.0))
        direct = amplitude_s(spin, m_tau, eps)
        lifted = chebyshev_U(two_s, amplitude_half(m_tau, eps)) / spin.multiplicity
        worst = max(worst, abs(direct - lifted))
    _emit(4, "PASS" if worst <= 1e-10 else "FAIL", f"worst lift mismatch {worst:.3e} (bound 1e-10)")
    assert worst <= 1e-10


def test_criterion_05_kernel_closed_form(paper_kernel):
    worst = 0.0
    for s in np.linspace(0.005, 1.2, 50):
        ref = paper_kernel.xi * quad(
            lambda g: math.exp(-g * s) / g,
            paper_kernel.gamma_lo,
            paper_kernel.gamma_hi,
            epsrel=1e-13,
            limit=300,
        )[0]
        worst = max(worst, abs(paper_kernel.scalar(float(s)) - ref) / abs(ref))
    zero_ok = paper_kernel.scalar(0.0) == pytest.approx(8.0 * math.log(200.0), rel=1e-13)
    _emit(
        5,
        "PASS" if (worst <= 1e-8 and zero_ok) else "FAIL",
        f"worst relative error {worst:.3e} (bound 1e-8); zero-lag exact: {zero_ok}",
    )
    assert worst <= 1e-8 and zero_ok


def test_criterion_06_mc_vs_analytic_fidelity(paper_kernel, paper_target):
    grid = TimeGrid(TAU, 256)
    triad = propagate_triad(drift_control(paper_target, grid).omega_lab)
    details = []
    ok = True
    for two_s in (1, 4):
        est = mc_fidelity(triad, paper_kernel, 0.05, SpinNumber(two_s), 10_000, seed=606)
        dev = abs(est.mean - est.analytic_prediction)
        ok = ok and dev <= 3.0 * est.std_error
        details.append(f"s={two_s/2:g}: |mc-analytic|={dev:.2e} (3se={3*est.std_error:.2e})")
    _emit(6, "PASS" if ok else "FAIL", "; ".join(details))
    assert ok


def test_mc_vs_analytic_fidelity_at_an_optimum(paper_sweep, paper_kernel):
    # Criterion 6's check on a solver optimum, not only on the drift: the
    # lambda_inv = 10 point of the sweep (512 cells), with criterion 6's
    # settings and one noise ensemble for both spins.
    _, points = paper_sweep
    sol = points[1]
    assert sol.lambda_inv == 10.0
    table = mc_fidelity_table(sol.triad, paper_kernel, (0.05,), (SpinNumber(1), SpinNumber(4)), 10_000, seed=615)
    for two_s, est in zip((1, 4), table[0]):
        dev = abs(est.mean - est.analytic_prediction)
        assert dev <= 3.0 * est.std_error, f"s={two_s/2:g}: |mc-analytic|={dev:.2e} (3se={3*est.std_error:.2e})"


def test_criterion_07_drift_baseline(paper_sweep, paper_kernel):
    _, points = paper_sweep
    sol = points[0]
    assert sol.lambda_inv == 0.0
    quadrature = action_S(sol.triad, paper_kernel)
    rel = abs(sol.S - quadrature) / quadrature
    ok = np.max(np.abs(sol.delta_omega_rot.values)) == 0.0 and rel <= 1e-8
    _emit(
        7,
        "PASS" if ok else "FAIL",
        f"deviation identically zero; S={sol.S:.6f} vs quadrature rel diff {rel:.2e} (bound 1e-8)",
    )
    assert ok


def test_criterion_08_noise_axis_suppression(paper_sweep):
    _, points = paper_sweep
    band = [s for s in points if 10.0 <= s.lambda_inv <= 100.0]
    worst_dwx = max(float(np.max(s.delta_omega.values[:, 0])) for s in band)
    mean_wz = [float(np.mean(s.control.omega_lab.values[:, 2])) for s in band]
    monotone = all(b > a for a, b in zip(mean_wz, mean_wz[1:]))
    ok = worst_dwx <= 1e-8 and monotone
    _emit(
        8,
        "PASS" if ok else "FAIL",
        f"max d_omega_x {worst_dwx:+.3e} (bound 1e-8); mean omega_z {['%.3f' % v for v in mean_wz]} monotone={monotone}",
    )
    assert ok


def test_criterion_09_action_monotone_along_sweep(paper_sweep):
    """Monotonicity along the ladder, as far as optima of S_c promise it.

    For optima of S + E/lambda_inv at a < b, S(b) <= S(a) and
    E_out(a) <= E_out(b).  The lambda_inv = 0 point is not such an optimum:
    it is the constant drift for the requested winding (README conventions),
    which turns 8.88 rad with E = 8 pi^2 / 2 = 39.48, while rotating
    4 pi - 2 pi sqrt(2) = 3.68 rad about the opposite axis reaches the same
    SU(2) element with E = 6.77.  A winding is not a homotopy invariant of
    SU(2) paths, so no solver can hold lambda_inv > 0 optima to it.  The
    drift therefore enters only through S (the noise it suffers is an upper
    bound for every optimum) and as a competitor: each optimum's S_c must
    not exceed the drift's S + E/lambda_inv at the same lambda_inv.
    """
    _, points = paper_sweep
    drift = points[0]
    assert drift.lambda_inv == 0.0
    optima = points[1:]
    s_vals = [s.S for s in points]
    e_vals = [s.E_out for s in optima]
    s_ok = all(b <= a for a, b in zip(s_vals, s_vals[1:]))
    e_ok = all(b >= a - 1e-9 for a, b in zip(e_vals, e_vals[1:]))
    beats_drift = all(s.S_c <= drift.S + drift.E_out / s.lambda_inv for s in optima)
    ok = s_ok and e_ok and beats_drift
    _emit(
        9,
        "PASS" if ok else "FAIL",
        f"S = {['%.4f' % v for v in s_vals]} non-increasing={s_ok}; "
        f"E_out (lambda_inv > 0) non-decreasing={e_ok}; S_c below drift's={beats_drift}",
    )
    assert ok


def test_criterion_09_fidelity_threshold_at_max_stiffness(paper_sweep):
    """F_{1/2}(250/tau) >= 0.999 at eps = 0.1 -- faithfully implemented, known red.

    The threshold requires S(250/tau) <= 0.4002.  The converged optimum of
    the stated functional at these parameters sits at S ~ 0.53 (multi-start
    quasi-Newton from zero, random and structured initializations; confirmed
    at n_steps = 1024; both reachable solution families and every hand-built
    closed-loop ansatz are worse in the constrained objective).  The S and F
    machinery itself is validated independently by the Monte Carlo estimator
    (on the drift, criterion 6, and on the lambda_inv = 10 optimum), so the
    quoted 0.999 figure appears unattainable for this functional at these
    parameters.  The full analysis is in the README
    section "The criterion-9 fidelity threshold".
    """
    _, points = paper_sweep
    sol = points[-1]
    assert sol.lambda_inv == 250.0
    fid = fidelity_weak(SpinNumber(1), 0.1, sol.S)
    ok = fid >= 0.999
    _emit(
        9,
        "PASS" if ok else "FAIL",
        f"F_1/2(250/tau) = {fid:.6f} from S = {sol.S:.6f} (needs S <= 0.4002 for 0.999)",
    )
    assert ok, (
        f"F_1/2 = {fid:.6f} < 0.999: the converged optimum has S = {sol.S:.4f} > 0.4002; "
        "known discrepancy with the quoted threshold "
        "(see README, 'The criterion-9 fidelity threshold')"
    )


def test_criterion_10_spin_universality_of_ordering(paper_sweep):
    _, points = paper_sweep
    sols = sorted(points, key=lambda s: s.S)
    ok = True
    pairs = 0
    for i in range(len(sols)):
        for j in range(i + 1, len(sols)):
            s_a, s_b = sols[i].S, sols[j].S
            if s_a == s_b:
                continue
            pairs += 1
            for two_s in (1, 2, 3, 10, 50):
                spin = SpinNumber(two_s)
                ok = ok and (
                    fidelity_weak(spin, 0.1, s_a) > fidelity_weak(spin, 0.1, s_b)
                )
    _emit(10, "PASS" if ok else "FAIL", f"ordering preserved for all spins over {pairs} solution pairs")
    assert ok
