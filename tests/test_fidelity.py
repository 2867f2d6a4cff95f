import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spinctl import fidelity
from spinctl.errors import DegenerateSample, DomainError
from spinctl.evolution import propagate_triad
from spinctl.fidelity import (
    SpinNumber,
    action_S,
    amplitude_half,
    amplitude_s,
    chebyshev_U,
    fidelity_weak,
    mc_fidelity,
    mc_fidelity_table,
    _amplitudes_from_half,
)
from spinctl.magnus import PurePath, TimeGrid, ordered_exp_batch, solve_m_ode, time_ordered_exp
from spinctl.noise import DiagonalConstant, OneOverF

from conftest import drift_triad, sample_paths

# Frozen drift-scenario action baseline (grid-refined; Richardson-consistent
# across 512/1024/2048 to ~3e-6 absolute).
DRIFT_BASELINE_S = 7.08860


class TestActionS:
    def test_zero_kernel(self):
        grid = TimeGrid(1.0, 64)
        triad = drift_triad(grid)
        assert action_S(triad, DiagonalConstant((0.0, 0.0, 0.0))) == 0.0

    def test_constant_kernel_static_triad(self):
        grid = TimeGrid(1.0, 128)
        static = propagate_triad(PurePath(grid, np.zeros((grid.n_nodes, 3))))
        val = action_S(static, DiagonalConstant((0.7, 0.0, 0.0)))
        assert val == pytest.approx(0.5 * 0.7, rel=1e-12)

    def test_drift_baseline_richardson(self, paper_kernel):
        coarse = action_S(drift_triad(TimeGrid(1.0, 512)), paper_kernel)
        fine = action_S(drift_triad(TimeGrid(1.0, 1024)), paper_kernel)
        extrap = fine + (fine - coarse) / 3.0
        assert abs(fine - coarse) < 5e-5
        assert extrap == pytest.approx(DRIFT_BASELINE_S, abs=5e-5)

    def test_nonnegative_for_psd_kernel(self, paper_kernel):
        rng = np.random.default_rng(41)
        grid = TimeGrid(1.0, 96)
        from spinctl.magnus import random_smooth_path

        for _ in range(5):
            triad = propagate_triad(random_smooth_path(grid, rng, amplitude=4.0))
            assert action_S(triad, paper_kernel) >= 0.0


class TestSpinNumber:
    @pytest.mark.parametrize("two_s", [0, 1.5, math.inf, math.nan])
    def test_bad_two_s_rejected(self, two_s):
        with pytest.raises(ValueError, match="^two_s must be an integer >= 1$"):
            SpinNumber(two_s)


class TestWeakNoiseFidelity:
    def test_perfect_at_zero_action(self):
        for two_s in (1, 2, 3, 50):
            assert fidelity_weak(SpinNumber(two_s), 0.3, 0.0) == 1.0

    def test_spin_half_formula(self):
        eps, S = 0.2, 3.0
        assert fidelity_weak(SpinNumber(1), eps, S) == pytest.approx(
            math.exp(-(eps**2) * S / 4.0), rel=1e-14
        )

    def test_spin_one_formula(self):
        eps, S = 0.15, 2.0
        expect = (1.0 + 2.0 * math.exp(-(eps**2) * S)) / 3.0
        assert fidelity_weak(SpinNumber(2), eps, S) == pytest.approx(expect, rel=1e-14)

    def test_bounds(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = fidelity_weak(
                SpinNumber(int(rng.integers(1, 60))), rng.uniform(0, 1), rng.uniform(0, 50)
            )
            assert 0.0 < f <= 1.0

    def test_classical_limit_monotone_in_spin(self):
        eps = 0.1
        vals = []
        for two_s in (1, 2, 4, 8, 20, 50, 100):
            # fixed eps^2 S, growing spin ladder
            vals.append(fidelity_weak(SpinNumber(two_s), eps, 5.0))
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_order_preservation_across_spins(self):
        s_a, s_b = 1.3, 2.6
        for two_s in (1, 2, 3, 10, 50):
            spin = SpinNumber(two_s)
            assert fidelity_weak(spin, 0.1, s_a) > fidelity_weak(spin, 0.1, s_b)


class TestAmplitudes:
    def test_half_limits(self):
        assert amplitude_half(0.0, 0.5) == 1.0
        assert amplitude_half(math.pi, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_matches_ordered_exponential(self):
        # cos(eps |m(tau)| / 2) equals the scalar part of the ordered product
        # of the rotating-frame field (smooth field: both sides resolve to 1e-8)
        grid = TimeGrid(1.0, 10_000)
        triad = drift_triad(grid)
        rng = np.random.default_rng(3)
        from spinctl.magnus import random_smooth_path

        lab = random_smooth_path(grid, rng, amplitude=1.0).values
        rot = np.einsum("ki,kic->kc", lab, triad.values)
        n = PurePath(grid, rot)
        eps = 0.4
        m = solve_m_ode(n, eps)
        m_tau = float(np.linalg.norm(m.values[-1]))
        assert amplitude_half(m_tau, eps) == pytest.approx(
            time_ordered_exp(n, eps).w, abs=1e-8
        )

    def test_spin_s_limits(self):
        for two_s in (1, 2, 5):
            assert amplitude_s(SpinNumber(two_s), 0.0, 0.7) == 1.0
        assert abs(amplitude_s(SpinNumber(1), math.pi, 1.0)) < 1e-15

    def test_amplitude_bounded(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a = amplitude_s(
                SpinNumber(int(rng.integers(1, 30))), rng.uniform(0, 30), rng.uniform(0, 2)
            )
            assert abs(a) <= 1.0 + 1e-12

    def test_chebyshev_lift_identity(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            two_s = int(rng.integers(1, 26))
            m_tau = rng.uniform(0.0, 25.0)
            eps = rng.uniform(0.0, 2.0)
            spin = SpinNumber(two_s)
            direct = amplitude_s(spin, m_tau, eps)
            lifted = chebyshev_U(two_s, amplitude_half(m_tau, eps)) / spin.multiplicity
            assert abs(direct - lifted) < 1e-10
            assert type(direct) is float


class TestChebyshev:
    def test_low_orders(self):
        assert chebyshev_U(0, 0.9) == 1.0
        assert chebyshev_U(1, 0.3) == pytest.approx(0.6, rel=1e-15)

    def test_trig_identity(self):
        theta = 0.7
        got = chebyshev_U(5, math.cos(theta))
        assert got == pytest.approx(math.sin(6 * theta) / math.sin(theta), abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            chebyshev_U(3, 1.0 + 1e-9)

    def test_clamps_rounding_noise(self):
        assert chebyshev_U(4, 1.0 + 5e-13) == pytest.approx(5.0, rel=1e-9)

    @pytest.mark.parametrize("order", [-1, 2.0, 2.5])
    def test_rejects_non_integer_or_negative_order(self, order):
        with pytest.raises(ValueError, match="integer >= 0"):
            chebyshev_U(order, 0.5)


class TestMonteCarlo:
    def test_zero_strength_is_exact_unity(self, paper_kernel):
        grid = TimeGrid(1.0, 64)
        triad = drift_triad(grid)
        est = mc_fidelity(triad, paper_kernel, 0.0, SpinNumber(1), 64, seed=5)
        assert est.mean == 1.0 + 0.0j
        assert est.std_error == 0.0
        assert est.analytic_prediction == 1.0

    def test_zero_kernel_is_exact_unity(self):
        grid = TimeGrid(1.0, 64)
        triad = drift_triad(grid)
        est = mc_fidelity(triad, DiagonalConstant((0.0, 0.0, 0.0)), 0.4, SpinNumber(2), 64, seed=5)
        assert est.mean == 1.0 + 0.0j
        assert est.std_error == 0.0

    def test_degenerate_sample(self, paper_kernel):
        grid = TimeGrid(1.0, 32)
        with pytest.raises(DegenerateSample):
            mc_fidelity(drift_triad(grid), paper_kernel, 0.1, SpinNumber(1), 1, seed=2)

    def test_deterministic(self, paper_kernel):
        grid = TimeGrid(1.0, 64)
        triad = drift_triad(grid)
        a = mc_fidelity(triad, paper_kernel, 0.05, SpinNumber(1), 500, seed=9)
        b = mc_fidelity(triad, paper_kernel, 0.05, SpinNumber(1), 500, seed=9)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_weak_noise_agreement(self, paper_kernel):
        grid = TimeGrid(1.0, 128)
        triad = drift_triad(grid)
        est = mc_fidelity(triad, paper_kernel, 0.05, SpinNumber(1), 4000, seed=21)
        assert abs(est.mean - est.analytic_prediction) < 3.0 * est.std_error
        assert type(est.mean) is float

    def test_degrades_gracefully_at_moderate_strength(self, paper_kernel):
        # the leading-order formula is left behind as eps grows; the MC mean
        # is the ground truth there
        grid = TimeGrid(1.0, 128)
        triad = drift_triad(grid)
        weak = mc_fidelity(triad, paper_kernel, 0.05, SpinNumber(4), 4000, seed=22)
        strong = mc_fidelity(triad, paper_kernel, 0.3, SpinNumber(4), 4000, seed=22)
        dev_weak = abs(weak.mean - weak.analytic_prediction)
        dev_strong = abs(strong.mean - strong.analytic_prediction)
        assert dev_strong > dev_weak


def oracle_cell(triad, kernel, epsilon, spin, count, seed):
    """One (epsilon, spin) cell from a single full draw of ``sample_paths``.

    All paths are drawn, rotated and ordered in one batch, and the mean and
    standard error are formed directly, independently of the estimator's
    chunk loop and shared-draw bookkeeping.
    """
    lab = sample_paths(kernel, triad.grid, count, seed)
    rot = np.einsum("pik,kic->pkc", lab, triad.values)
    vals = _amplitudes_from_half(ordered_exp_batch(rot, epsilon, triad.grid.dt)[:, 0], spin)
    mean = math.fsum(vals) / count
    var = math.fsum((v - mean) ** 2 for v in vals) / (count - 1)
    return mean, math.sqrt(var / count)


class TestMonteCarloTable:
    EPSILONS = (0.0, 0.1, 0.3)
    SPINS = (SpinNumber(1), SpinNumber(2), SpinNumber(5))
    # Several blocks of the estimator, the last a ragged tail of one path.
    COUNT = 4097

    @pytest.mark.parametrize(
        "kernel",
        [OneOverF(8.0, 0.1, 20.0), DiagonalConstant((0.5, 0.2, 0.1))],
        ids=["one_over_f", "diagonal_constant"],
    )
    def test_every_cell_matches_independent_draw(self, kernel):
        triad = drift_triad(TimeGrid(1.0, 24))
        table = mc_fidelity_table(triad, kernel, self.EPSILONS, self.SPINS, self.COUNT, seed=31)
        assert len(table) == len(self.EPSILONS)
        S = action_S(triad, kernel)
        for eps, row in zip(self.EPSILONS, table):
            assert len(row) == len(self.SPINS)
            for spin, est in zip(self.SPINS, row):
                mean, std_err = oracle_cell(triad, kernel, eps, spin, self.COUNT, 31)
                assert est.mean == complex(mean, 0.0)
                assert est.std_error == std_err
                assert est.samples == self.COUNT
                assert est.analytic_prediction == fidelity_weak(spin, eps, S)

    def test_cells_do_not_depend_on_block_size(self, paper_kernel, monkeypatch):
        # Blocks of 7 paths leave a ragged tail of 2 and cut every default
        # block; the estimates must keep every bit.
        triad = drift_triad(TimeGrid(1.0, 24))
        args = (triad, paper_kernel, self.EPSILONS, self.SPINS, self.COUNT, 31)
        default = mc_fidelity_table(*args)
        monkeypatch.setattr(fidelity, "_PATH_BLOCK", 7)
        assert mc_fidelity_table(*args) == default

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_cells_do_not_depend_on_worker_count(self, paper_kernel, monkeypatch, workers):
        # Four full blocks and a short last one, on 1, 2 or 3 threads, which
        # switch every microsecond: the amplitudes go back in block order and
        # no two threads share work arrays, so every estimate keeps its bits.
        triad = drift_triad(TimeGrid(1.0, 24))
        args = (triad, paper_kernel, self.EPSILONS, self.SPINS, 4 * fidelity._PATH_BLOCK + 7, 31)
        monkeypatch.setattr(fidelity, "_WORKERS", 1)
        serial = mc_fidelity_table(*args)
        threads = set()
        orig = fidelity.sample_block

        def recorded(*a):
            threads.add(threading.get_ident())
            return orig(*a)

        monkeypatch.setattr(fidelity, "sample_block", recorded)
        monkeypatch.setattr(fidelity, "_WORKERS", workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert mc_fidelity_table(*args) == serial
        finally:
            sys.setswitchinterval(interval)
        assert 1 <= len(threads) <= workers and threading.get_ident() not in threads

    def test_working_set_does_not_grow_with_count(self, paper_kernel):
        # One block of paths per worker is in flight at a time, so the traced
        # peak is the spectra plus each worker's block arrays, whatever the
        # path count.
        triad = drift_triad(TimeGrid(1.0, 512))
        tracemalloc.start()
        try:
            mc_fidelity_table(triad, paper_kernel, (0.1, 0.3), self.SPINS[:2], 4096, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_single_cell_is_mc_fidelity(self, paper_kernel):
        triad = drift_triad(TimeGrid(1.0, 24))
        table = mc_fidelity_table(triad, paper_kernel, (0.05, 0.2), self.SPINS[:2], 300, seed=8)
        est = mc_fidelity(triad, paper_kernel, 0.2, self.SPINS[1], 300, seed=8)
        assert table[1][1] == est
