import math

import numpy as np
import pytest
from mpmath import e1 as mp_e1, mp
from scipy.integrate import quad
from scipy.linalg import toeplitz

from spinctl.errors import DomainError, NotPSD
from spinctl.evolution import TriadPath
from spinctl.fidelity import action_S
from spinctl.magnus import TimeGrid, _trapezoid_weights
from spinctl.noise import (
    CovarianceOperator,
    DiagonalConstant,
    LagConvolution,
    NoiseKernel,
    OneOverF,
    assemble_covariance,
    exp_integral_e1,
    sample_block,
    _JITTERS,
    _factor_term,
    _path_normals,
)
from spinctl.optimizer import OptimizationProblem, _Workspace

from conftest import sample_paths

mp.dps = 30

EULER_GAMMA = 0.5772156649015328606


def dense_jitter_factor(col: np.ndarray) -> tuple[np.ndarray, float]:
    """Reference for ``noise._factor_term``: each jitter rung adds jit * col[0] times a dense identity."""
    block = toeplitz(col)
    eye = np.eye(len(col))
    for jit in _JITTERS:
        try:
            return np.linalg.cholesky(block + (jit * col[0]) * eye), jit * col[0]
        except np.linalg.LinAlgError:
            continue
    raise NotPSD("jitter ladder exhausted", min_eigenvalue=float(np.linalg.eigvalsh(block)[0]))


class TestExpIntegral:
    def test_reference_value(self):
        # high-precision oracle: mpmath E1(1)
        assert exp_integral_e1(1.0) == pytest.approx(0.21938393439552028, rel=1e-13)

    def test_against_high_precision_series(self):
        xs = np.concatenate(
            [np.geomspace(1e-8, 1.0, 25), np.geomspace(1.0001, 600.0, 25)]
        )
        for x in xs:
            ref = float(mp_e1(x))
            assert abs(exp_integral_e1(float(x)) - ref) <= 1e-12 * abs(ref)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.01, 0.5, 1.0, 3.0, 40.0])
        got = exp_integral_e1(xs)
        for x, g in zip(xs, got):
            assert g == exp_integral_e1(float(x))

    def test_decays_to_zero_from_above(self):
        prev = exp_integral_e1(5.0)
        for x in (10.0, 50.0, 200.0, 700.0):
            cur = exp_integral_e1(x)
            assert 0.0 < cur < prev
            prev = cur

    def test_small_argument_expansion(self):
        # E1(x) + ln x + gamma = x + O(x^2)
        for x in (1e-3, 1e-4, 1e-5):
            rest = exp_integral_e1(x) + math.log(x) + EULER_GAMMA
            assert abs(rest - x) < x * x

    def test_domain_error(self):
        with pytest.raises(DomainError):
            exp_integral_e1(0.0)
        with pytest.raises(DomainError):
            exp_integral_e1(-1.0)


class TestKernelEval:
    def test_zero_lag_closed_form(self, paper_kernel):
        got = paper_kernel.matrix(0.0)
        assert got[0, 0] == pytest.approx(8.0 * math.log(200.0), rel=1e-14)
        assert np.all(got[1:, :] == 0.0) and np.all(got[:, 1:] == 0.0)

    def test_closed_form_vs_adaptive_quadrature(self, paper_kernel):
        for s in np.linspace(0.01, 1.0, 20):
            ref = 8.0 * quad(
                lambda g: math.exp(-g * s) / g, 0.1, 20.0, epsrel=1e-13, limit=200
            )[0]
            assert paper_kernel.matrix(float(s))[0, 0] == pytest.approx(ref, rel=1e-8)

    def test_monotone_decreasing(self, paper_kernel):
        vals = [paper_kernel.matrix(s)[0, 0] for s in np.linspace(0.0, 2.0, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_long_lag_decay(self, paper_kernel):
        # gamma_lo * s >> 1 kills every mode
        assert paper_kernel.matrix(400.0)[0, 0] < 1e-12

    def test_symmetry(self, paper_kernel):
        m = paper_kernel.matrix(0.37)
        np.testing.assert_array_equal(m, m.T)

    def test_rotated_axis(self):
        k = OneOverF(2.0, 0.1, 10.0, axis=(1.0, 1.0, 0.0))
        m = k.matrix(0.2)
        a = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(m, m[0, 0] / a[0] ** 2 * np.outer(a, a), atol=1e-12)

    def test_cutoff_order_enforced(self):
        with pytest.raises(ValueError):
            OneOverF(1.0, 5.0, 1.0)

    def test_non_finite_cutoff_rejected(self):
        with pytest.raises(ValueError):
            OneOverF(8.0, 0.1, float("inf"))

    def test_slope_at_zero(self, paper_kernel):
        h = 1e-7
        fd = (paper_kernel.scalar(h) - paper_kernel.scalar(0.0)) / h
        assert paper_kernel.lag_slopes_at_zero()[0] == pytest.approx(fd, rel=1e-5)


class TestAssembleCovariance:
    def test_zero_kernel_short_circuits(self):
        grid = TimeGrid(1.0, 16)
        cov = assemble_covariance(DiagonalConstant((0.0, 0.0, 0.0)), grid)
        assert np.all(cov.matrix == 0.0)
        assert np.all(cov.factor == 0.0)

    def test_diagonal_constant_rank(self):
        # each term is one random constant: its Toeplitz block has rank <= 1
        grid = TimeGrid(1.0, 32)
        cov = assemble_covariance(DiagonalConstant((0.5, 0.2, 0.0)), grid)
        assert cov.matrix.shape == (3, grid.n_nodes)
        for col in cov.matrix:
            eigs = np.linalg.eigvalsh(toeplitz(col))
            assert np.sum(eigs > 1e-9 * eigs[-1]) <= 1

    def test_factor_reproduces_matrix(self, paper_kernel):
        grid = TimeGrid(1.0, 48)
        n = grid.n_nodes
        cov = assemble_covariance(paper_kernel, grid)
        assert cov.factor.shape == (len(cov.matrix) * n, n)
        for r, col in enumerate(cov.matrix):
            block = cov.factor[r * n : (r + 1) * n]
            np.testing.assert_allclose(
                block @ block.T,
                toeplitz(col) + cov.jitter * np.eye(n),
                atol=1e-10 * np.max(cov.matrix),
            )

    def test_not_psd_raises(self):
        # a parabola in the lag is not a covariance on long grids
        class Parabola(NoiseKernel):
            axes = np.array([[1.0, 0.0, 0.0]])

            def lag_profiles(self, s):
                return (1.0 - s**2)[None, :]

        bad = Parabola()
        grid = TimeGrid(4.0, 32)
        with pytest.raises(NotPSD) as err:
            assemble_covariance(bad, grid)
        assert err.value.min_eigenvalue < 0.0
        # the diagnostic sees the Toeplitz block without the last rung's jitter
        with pytest.raises(NotPSD) as want:
            dense_jitter_factor(bad.lag_profiles(grid.dt * np.arange(grid.n_nodes))[0])
        assert err.value.min_eigenvalue == want.value.min_eigenvalue

    @pytest.mark.parametrize(
        "kernel, n_steps, jitter",
        [(OneOverF(8.0, 0.1, 20.0), 512, 0.0), (DiagonalConstant((0.5, 0.2, 0.1)), 256, 5e-13)],
        ids=["one_over_f", "diagonal_constant"],
    )
    def test_in_place_jitter_matches_dense_identity(self, kernel, n_steps, jitter):
        grid = TimeGrid(1.0, n_steps)
        jitters = []
        for r, col in enumerate(kernel.lag_profiles(grid.dt * np.arange(grid.n_nodes))):
            factor, jit = _factor_term(col, r)
            want, want_jit = dense_jitter_factor(col)
            assert jit == want_jit
            assert factor.tobytes() == want.tobytes()
            jitters.append(jit)
        assert max(jitters) == jitter


class TestSamplePaths:
    def test_flagship_factors_without_jitter(self, paper_kernel):
        cov = assemble_covariance(paper_kernel, TimeGrid(1.0, 512))
        assert cov.jitter == 0.0
        assert cov.factor.shape == (513, 513)

    def test_fixed_axis_noise_stays_on_axis(self, paper_kernel):
        paths = sample_paths(paper_kernel, TimeGrid(1.0, 16), 50, seed=3)
        assert np.all(paths[:, 1:] == 0.0)
        assert np.all(paths[:, 0] != 0.0)

    def test_tilted_axis_cross_covariance(self):
        # lab components x = a_x xi and z = a_z xi of one scalar process:
        # E[x(t) z(t + lag)] = a_x a_z f(lag)
        axis = (1.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0)
        kernel = OneOverF(8.0, 0.1, 20.0, axis=axis)
        grid = TimeGrid(1.0, 64)
        total = 40_000
        paths = sample_paths(kernel, grid, total, seed=12)
        f0 = kernel.scalar(0.0)
        a = 10
        for lag in (0, 1, 8, 40):
            emp = float(np.mean(paths[:, 0, a] * paths[:, 2, a + lag]))
            f = kernel.scalar(lag * grid.dt)
            se = abs(axis[0] * axis[2]) * math.sqrt((f0**2 + f**2) / total)
            assert abs(emp - axis[0] * axis[2] * f) < 4.0 * se

    def test_empty_draw(self, paper_kernel):
        grid = TimeGrid(1.0, 16)
        out = sample_paths(paper_kernel, grid, 0, seed=1)
        assert out.shape == (0, 3, 17)

    def test_zero_kernel_gives_zero_paths(self):
        grid = TimeGrid(1.0, 16)
        out = sample_paths(DiagonalConstant((0.0, 0.0, 0.0)), grid, 20, seed=1)
        assert np.all(out == 0.0)

    def test_deterministic_given_seed(self, paper_kernel):
        grid = TimeGrid(1.0, 24)
        a = sample_paths(paper_kernel, grid, 50, seed=77)
        b = sample_paths(paper_kernel, grid, 50, seed=77)
        np.testing.assert_array_equal(a, b)
        c = sample_paths(paper_kernel, grid, 50, seed=78)
        assert not np.array_equal(a, c)

    def test_empirical_mean_is_zero(self, paper_kernel):
        grid = TimeGrid(1.0, 24)
        count = 100_000
        out = sample_paths(paper_kernel, grid, count, seed=5)
        sigma = math.sqrt(paper_kernel.matrix(0.0)[0, 0])
        mean = np.mean(out[:, 0, :], axis=0)
        assert np.max(np.abs(mean)) < 4.0 * sigma / math.sqrt(count)

    def test_sample_covariance_matches_kernel(self, paper_kernel):
        # x-component covariance against the closed form, chunked draws
        grid = TimeGrid(1.0, 256)
        total = 100_000
        chunk = 20_000
        n = grid.n_nodes
        acc = np.zeros((n, n))
        cov = assemble_covariance(paper_kernel, grid)
        for i in range(total // chunk):
            block = sample_paths(paper_kernel, grid, chunk, seed=100 + i, cov=cov)
            x = block[:, 0, :]
            acc += x.T @ x
        emp = acc / total
        lags = [0, 1, 8, 64, 200]
        a = 20
        for lag in lags:
            want = paper_kernel.scalar(lag * grid.dt)
            se = math.sqrt(
                (paper_kernel.scalar(0.0) ** 2 + want**2) / total
            )
            assert abs(emp[a, a + lag] - want) < 4.0 * se

    def test_periodogram_slope_is_one_over_f(self):
        # decade 2*gamma_lo .. gamma_hi/2 (rate units, so /2pi in cycles),
        # resolvable on the window: average periodogram slope near -1
        kernel = OneOverF(1.0, 0.5, 50.0)
        grid = TimeGrid(32.0, 512)
        out = sample_paths(kernel, grid, 10_000, seed=9)
        x = out[:, 0, :-1]
        spec = np.mean(np.abs(np.fft.rfft(x, axis=1)) ** 2, axis=0)
        freqs = np.fft.rfftfreq(x.shape[1], d=grid.dt)
        band = (freqs >= 2 * 0.5 / (2 * math.pi)) & (freqs <= 0.5 * 50.0 / (2 * math.pi))
        slope = np.polyfit(np.log(freqs[band]), np.log(spec[band]), 1)[0]
        assert -1.3 < slope < -0.7


    @pytest.mark.parametrize("start", [0, 1, 4095, 123456, 2**32 + 3, 2**40])
    def test_counter_substreams_match_jumped(self, start):
        # Substream p is built at Philox counter word 2 = p; it must stay
        # the stream Philox(key=seed).jumped(p) that defines path p.
        seed, dim = 2024, 57
        root = np.random.Philox(key=seed)
        want = np.array([
            np.random.Generator(root.jumped(p)).standard_normal(dim)
            for p in range(start, start + 3)
        ])
        np.testing.assert_array_equal(_path_normals(seed, start, 3, dim), want)

    @pytest.mark.parametrize("start", [0, 4095])
    def test_sample_block_matches_fresh_generator_per_path(self, start):
        # sample_block reuses one generator and resets its counter per path;
        # every path must match a freshly built Philox at counter word 2 = p.
        kernel = OneOverF(8.0, 0.1, 20.0, axis=(1.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0))
        grid = TimeGrid(1.0, 64)
        cov = assemble_covariance(kernel, grid)
        seed, count, n = 77, 5, grid.n_nodes
        z = np.array([
            np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, p, 0])).standard_normal(n)
            for p in range(start, start + count)
        ])
        want = (z @ cov.factor.T)[:, None, :]
        np.testing.assert_array_equal(sample_block(cov, seed, start, count), want)


ORACLE_KERNELS = [
    OneOverF(8.0, 0.1, 20.0, axis=(1.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0)),
    DiagonalConstant((0.5, 0.2, 0.1)),
]


def dense_dual(kernel, lmats, dt, weights, kink):
    """Dense oracle D_i[a] = sum_j sum_b K_ij[a, b] w_b E_j[b] and its action.

    K_ij[a, b] = N_ij(|a - b| dt) from a full lag-index matrix; with ``kink``
    the diagonal gains N'(0+) dt / 6.  E_j[b] is column j of lmats[b].
    """
    n = len(lmats)
    idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    big = kernel.matrix_batch(dt * np.arange(n))[idx]  # (n, n, 3, 3)
    if kink:
        slope = sum(f * np.outer(a, a) for f, a in zip(kernel.lag_slopes_at_zero(), kernel.axes))
        big[np.arange(n), np.arange(n)] += slope * dt / 6.0
    dual = np.einsum("abij,b,bcj->aic", big, weights, lmats)
    action = 0.5 * float(np.einsum("a,aci,aic->", weights, lmats, dual))
    return dual, action


def _close(got, want):
    want = np.asarray(want)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestLagConvolution:
    """The FFT lag convolution against a dense double sum (independent oracle)."""

    @pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["one_over_f", "diagonal"])
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    @pytest.mark.parametrize("kink", [False, True], ids=["nodes", "cells"])
    def test_operator_matches_dense(self, kernel, n, kink):
        rng = np.random.default_rng(n)
        dt = 1.0 / max(n, 2)
        weights = rng.uniform(0.5, 1.5, n) * dt
        lmats = rng.normal(size=(n, 3, 3))
        conv = LagConvolution(kernel, n, dt, weights, kink=kink)
        s_val, d = conv.action(lmats)
        want_dual, want_s = dense_dual(kernel, lmats, dt, weights, kink)
        _close(conv.dual(d), want_dual)
        _close(s_val, want_s)

    @pytest.mark.parametrize("kernel", ORACLE_KERNELS, ids=["one_over_f", "diagonal"])
    @pytest.mark.parametrize("n_steps", [2, 3, 64, 257])
    def test_callers_match_dense(self, kernel, n_steps, paper_target):
        grid = TimeGrid(1.0, n_steps)
        rng = np.random.default_rng(n_steps)
        lmats = rng.normal(size=(grid.n_nodes, 3, 3))
        triad = TriadPath(grid, np.swapaxes(lmats, 1, 2))
        nodal, nodal_s = dense_dual(
            kernel, lmats, grid.dt, _trapezoid_weights(grid.n_nodes, grid.dt), kink=False
        )
        _close(action_S(triad, kernel), nodal_s)
        conv = LagConvolution.nodes(kernel, grid)
        _close(conv.dual(conv(conv.project(lmats))), nodal)

        # cell placement with the kink term: the solver's action and torque
        ws = _Workspace(
            OptimizationProblem(kernel, paper_target, tau=1.0, lambda_inv=1.0, grid=grid)
        )
        cells = lmats[:-1]
        s_val, torque = ws._action_core(ws.cells_conv, cells)
        dual, want_s = dense_dual(kernel, cells, grid.dt, np.full(n_steps, grid.dt), kink=True)
        dsdl = grid.dt * np.swapaxes(dual, 1, 2)  # dS/dL_k, column j = w_k D_j[k]
        b = np.einsum("kai,kaj->kij", cells, dsdl)
        want_torque = np.stack(
            [b[:, 2, 1] - b[:, 1, 2], b[:, 0, 2] - b[:, 2, 0], b[:, 1, 0] - b[:, 0, 1]], axis=-1
        )
        _close(s_val, want_s)
        _close(torque, want_torque)
