import math

import numpy as np
import pytest
from mpmath import e1 as mp_e1, mp
from scipy.integrate import quad
from scipy.linalg import circulant, toeplitz

from spinctl.errors import DomainError, NotPSD
from spinctl.evolution import TriadPath
from spinctl.fidelity import action_S
from spinctl.magnus import TimeGrid
from spinctl.noise import (
    CovarianceOperator,
    DiagonalConstant,
    LagConvolution,
    NoiseKernel,
    OneOverF,
    assemble_covariance,
    exp_integral_e1,
    sample_block,
    _path_normals,
    _trapezoid_weights,
)
from spinctl.optimizer import OptimizationProblem, _Workspace

from conftest import sample_paths

mp.dps = 30

EULER_GAMMA = 0.5772156649015328606


def dense_circulant(col: np.ndarray) -> np.ndarray:
    """The sampler's embedding, densely: the symmetric circulant of length 2n - 2 whose first column starts with ``col``."""
    return circulant(np.concatenate([col, col[-2:0:-1]]))


class Tabulated(NoiseKernel):
    """One-axis kernel given by its values on the lags j dt of one grid."""

    axes = np.array([[1.0, 0.0, 0.0]])

    def __init__(self, col, dt):
        self.col, self.dt = col, dt

    def lag_profiles(self, s):
        return self.col[np.rint(np.asarray(s) / self.dt).astype(int)][None, :]


def with_spectrum(lam: np.ndarray, grid: TimeGrid) -> Tabulated:
    """Kernel whose minimal embedding on ``grid`` has the symmetric spectrum ``lam`` (length 2n - 2)."""
    return Tabulated(np.fft.ifft(lam).real[: grid.n_nodes], grid.dt)


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
        # The circulant with eigenvalues m factor^2 has the Toeplitz grid
        # covariance as its leading block (dense inverse DFT as the oracle).
        grid = TimeGrid(1.0, 48)
        n, m = grid.n_nodes, 2 * grid.n_nodes - 2
        cov = assemble_covariance(paper_kernel, grid)
        assert cov.factor.shape == (len(cov.matrix), m)
        phase = 2.0 * math.pi * np.outer(np.arange(m), np.arange(m)) / m
        for col, root in zip(cov.matrix, cov.factor):
            first = np.cos(phase) @ (m * root**2) / m
            np.testing.assert_allclose(
                circulant(first)[:n, :n], toeplitz(col), atol=1e-12 * np.max(cov.matrix)
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
        col = bad.lag_profiles(grid.dt * np.arange(grid.n_nodes))[0]
        # the diagnostic is the embedding's smallest eigenvalue, which bounds
        # the Toeplitz block's from below (the block is a principal submatrix)
        want = np.linalg.eigvalsh(dense_circulant(col))[0]
        assert err.value.min_eigenvalue == pytest.approx(want, rel=1e-10)
        assert err.value.min_eigenvalue <= np.linalg.eigvalsh(toeplitz(col))[0] < 0.0

    def test_rounding_level_negatives_are_clipped(self):
        # One symmetric pair of eigenvalues set to -delta of the largest (1):
        # clipped and reported as the jitter at 1e-13, refused at 1e-11.
        grid = TimeGrid(1.0, 64)
        m = 2 * grid.n_nodes - 2
        k = np.minimum(np.arange(m), m - np.arange(m))
        lam = 1.0 / (1.0 + k**2)
        lam[k == 20] = -1e-13
        cov = assemble_covariance(with_spectrum(lam, grid), grid)
        assert cov.jitter == pytest.approx(1e-13, rel=1e-2)
        assert np.array_equal(cov.factor[0] == 0.0, k == 20)
        lam[k == 20] = -1e-11
        with pytest.raises(NotPSD) as err:
            assemble_covariance(with_spectrum(lam, grid), grid)
        assert err.value.min_eigenvalue == pytest.approx(-1e-11, rel=1e-2)

    @pytest.mark.parametrize(
        "kernel, n_steps",
        [(OneOverF(8.0, 0.1, 20.0), 512), (DiagonalConstant((0.5, 0.2, 0.1)), 256)],
        ids=["one_over_f", "diagonal_constant"],
    )
    def test_spectrum_matches_dense_circulant(self, kernel, n_steps):
        # m factor^2 are the eigenvalues of the dense embedding; neither
        # kernel has a negative one beyond rounding, so nothing is clipped.
        grid = TimeGrid(1.0, n_steps)
        cov = assemble_covariance(kernel, grid)
        m = 2 * grid.n_nodes - 2
        for col, root in zip(cov.matrix, cov.factor):
            want = np.linalg.eigvalsh(dense_circulant(col))
            np.testing.assert_allclose(np.sort(m * root**2), np.maximum(want, 0.0), atol=1e-12 * want[-1])
        assert cov.jitter == 0.0


class TestSamplePaths:
    def test_flagship_factors_without_jitter(self, paper_kernel):
        # the 1/f profile is convex and decreasing: its minimal embedding has
        # a strictly positive spectrum, so nothing is clipped
        cov = assemble_covariance(paper_kernel, TimeGrid(1.0, 512))
        assert cov.jitter == 0.0
        assert cov.factor.shape == (1, 1024)
        assert np.all(cov.factor > 0.0)

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
        # sample_block reuses one generator and resets its counter per pair;
        # path p must match pair p // 2 drawn from a freshly built Philox at
        # counter word 2 = p // 2 and transformed on its own, term by term.
        kernel = DiagonalConstant((0.5, 0.2, 0.1))
        grid = TimeGrid(1.0, 64)
        cov = assemble_covariance(kernel, grid)
        seed, count, (terms, m) = 77, 5, cov.factor.shape
        want = []
        for p in range(start, start + count):
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, p // 2, 0]))
            z = gen.standard_normal(2 * terms * m).view(complex).reshape(terms, m)
            y = np.array([np.fft.fft(root * row) for root, row in zip(cov.factor, z)])
            want.append((y.imag if p % 2 else y.real)[:, : grid.n_nodes])
        np.testing.assert_array_equal(sample_block(cov, seed, start, count), np.array(want))

    @pytest.mark.parametrize("block", [1, 2, 7, 128])
    def test_path_does_not_depend_on_block(self, paper_kernel, block):
        # blocks of any size, even or odd starts, against one draw of every path
        cov = assemble_covariance(paper_kernel, TimeGrid(1.0, 512))
        count = 300
        whole = sample_block(cov, 9, 0, count)
        parts = [sample_block(cov, 9, s, min(block, count - s)) for s in range(0, count, block)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize(
        "kernel",
        [OneOverF(8.0, 0.1, 20.0, axis=(1.0 / 3.0, 2.0 / 3.0, -2.0 / 3.0)), DiagonalConstant((0.5, 0.2, 0.1))],
        ids=["one_over_f", "diagonal_constant"],
    )
    def test_per_lag_sample_covariance_matches_kernel(self, kernel):
        # Every lab-component pair E[x_i(a) x_j(a + lag)] = N_ij(lag dt),
        # from the first node, the middle and up to the last one, where the
        # circulant wraps; each within 4 standard errors of a Gaussian product.
        # The two paths of a pair (real and imaginary part) are uncorrelated.
        grid = TimeGrid(1.0, 64)
        total = 40_000
        paths = sample_paths(kernel, grid, total, seed=41)
        var = np.diag(kernel.matrix(0.0))
        for a, lag in [(0, 0), (0, 1), (0, 64), (20, 8), (30, 33), (63, 1), (10, 40)]:
            emp = paths[:, :, a].T @ paths[:, :, a + lag] / total
            want = kernel.matrix(lag * grid.dt)
            se = np.sqrt((np.outer(var, var) + want**2) / total)
            assert np.all(np.abs(emp - want) <= 4.0 * se), (a, lag)
            cross = paths[0::2, :, a].T @ paths[1::2, :, a + lag] / (total // 2)
            assert np.all(np.abs(cross) <= 4.0 * np.sqrt(np.outer(var, var) / (total // 2))), (a, lag)


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
