"""Stationary noise covariance kernels, their lag convolution, and Gaussian path sampling.

The flagship kernel is the 1/f family: a log-uniform ensemble of exponential
decays between a lower and an upper rate cutoff, giving a correlator
proportional to E1(gamma_lo s) - E1(gamma_hi s) in the time domain and a
1/frequency spectrum between the cutoffs.  Every kernel reports its
structure as R fixed-axis scalar terms, N(s) = sum_r f_r(s) a_r a_r^T
(``axes``, ``lag_profiles``, ``lag_slopes_at_zero``).  ``LagConvolution``
applies those terms on a uniform grid by FFT with precomputed circulant
spectra; it is the one quadrature of the action, the dual triad, the solver
objective and its certificate.  For sampling, the noise is sum_r xi_r(t) a_r
with independent scalar processes xi_r, so each term's n x n Toeplitz grid
covariance is factorized on its own; sampling uses counter-based per-path
substreams so draws are deterministic given the seed and parallelizable
across paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPSD
from .magnus import TimeGrid, _trapezoid_weights

__all__ = [
    "NoiseKernel",
    "OneOverF",
    "DiagonalConstant",
    "LagConvolution",
    "CovarianceOperator",
    "exp_integral_e1",
    "assemble_covariance",
    "sample_block",
]

# Jitter escalation ladder, as fractions of a term's diagonal entry.
_JITTERS = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)


def exp_integral_e1(x):
    """Exponential integral E1(x) = int_x^inf exp(-t)/t dt for x > 0 (``scipy.special.exp1``).

    Accepts a float or an ndarray.

    Raises
    ------
    DomainError
        For any argument <= 0 or non-finite.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("exp_integral_e1 requires x > 0")
    from scipy.special import exp1  # on first use; see the package docstring
    return float(exp1(arr)) if arr.ndim == 0 else exp1(arr)


class NoiseKernel:
    """Base class: a stationary, symmetric 3x3 covariance profile N(s).

    Every kernel is a sum of R fixed-axis scalar terms,
    N(s) = sum_r f_r(s) a_r a_r^T, which is the structure the lag
    convolution (``LagConvolution``) works on.
    """

    @property
    def axes(self) -> np.ndarray:
        """Unit axes a_r of the terms; shape (R, 3)."""
        raise NotImplementedError

    def lag_profiles(self, s: np.ndarray) -> np.ndarray:
        """Scalar profiles f_r evaluated on an array of lags s >= 0; shape (R, len(s))."""
        raise NotImplementedError

    def lag_slopes_at_zero(self) -> np.ndarray:
        """One-sided lag derivatives f_r'(0+) of the terms; shape (R,)."""
        raise NotImplementedError

    def matrix(self, s: float) -> np.ndarray:
        """Profile at one lag s >= 0, as a symmetric 3x3 matrix."""
        if s < 0.0:
            raise ValueError("lag must be >= 0")
        return self.matrix_batch(np.array([float(s)]))[0]

    def matrix_batch(self, s: np.ndarray) -> np.ndarray:
        """Profile evaluated on an array of lags; shape (len(s), 3, 3)."""
        prof = self.lag_profiles(np.asarray(s, dtype=float))
        return sum(f[:, None, None] * np.outer(a, a) for f, a in zip(prof, self.axes))


def _unit_axis(axis) -> tuple[float, float, float]:
    a = np.asarray(axis, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise ValueError("axis must be a finite 3-vector")
    n = float(np.linalg.norm(a))
    if n == 0.0:
        raise ValueError("axis must be nonzero")
    return (a[0] / n, a[1] / n, a[2] / n)


@dataclass(frozen=True)
class OneOverF(NoiseKernel):
    """1/f kernel: xi * int_{gamma_lo}^{gamma_hi} dg/g exp(-g s) along a fixed axis.

    xi sets the strength (1/time^2), gamma_lo < gamma_hi are the decay-rate
    cutoffs (1/time).  The closed form uses the exponential integral, so a
    lag convolution evaluates the profile once, in O(n), when it is built.
    """

    xi: float
    gamma_lo: float
    gamma_hi: float
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self):
        if not (self.xi > 0.0 and math.isfinite(self.xi)):
            raise ValueError("xi must be positive")
        if not (0.0 < self.gamma_lo < self.gamma_hi and math.isfinite(self.gamma_hi)):
            raise ValueError("cutoffs must be finite and satisfy 0 < gamma_lo < gamma_hi")
        object.__setattr__(self, "axis", _unit_axis(self.axis))

    def scalar(self, s: float) -> float:
        """Along-axis entry of the profile at lag s >= 0."""
        if s < 0.0:
            raise ValueError("lag must be >= 0")
        return float(self.lag_profiles(np.array([float(s)]))[0, 0])

    @property
    def axes(self) -> np.ndarray:
        return np.array([self.axis])

    def lag_profiles(self, s: np.ndarray) -> np.ndarray:
        """xi ln(gamma_hi/gamma_lo) at zero lag, xi (E1(gamma_lo s) - E1(gamma_hi s)) at s > 0.

        A negative or non-finite lag raises ``DomainError``.
        """
        s = np.asarray(s, dtype=float)
        out = np.full(s.shape, self.xi * math.log(self.gamma_hi / self.gamma_lo))
        pos = s != 0.0
        out[pos] = self.xi * (
            exp_integral_e1(self.gamma_lo * s[pos]) - exp_integral_e1(self.gamma_hi * s[pos])
        )
        return out[None, :]

    def lag_slopes_at_zero(self) -> np.ndarray:
        return np.array([self.xi * (self.gamma_lo - self.gamma_hi)])


@dataclass(frozen=True)
class DiagonalConstant(NoiseKernel):
    """Lag-independent diagonal kernel (a random constant offset per axis)."""

    kappa: tuple[float, float, float]

    def __post_init__(self):
        k = tuple(float(v) for v in self.kappa)
        if len(k) != 3 or any(v < 0.0 or not math.isfinite(v) for v in k):
            raise ValueError("kappa must be three finite values >= 0")
        object.__setattr__(self, "kappa", k)

    @property
    def axes(self) -> np.ndarray:
        return np.eye(3)

    def lag_profiles(self, s: np.ndarray) -> np.ndarray:
        return np.outer(self.kappa, np.ones(len(s)))

    def lag_slopes_at_zero(self) -> np.ndarray:
        return np.zeros(3)


class LagConvolution:
    """Stationary lag convolution of a kernel's terms on a uniform grid, by FFT.

    Maps per-term projections p (R, n, 3) to
    D_r[a] = sum_b K_r[|a - b|] w_b p_r[b], with lag column
    K_r[j] = f_r(j dt) and quadrature weights w.  With ``kink`` the zero-lag
    entry gains f_r'(0+) dt / 6, the second-order midpoint correction for
    the |t - t'| kink of the kernel on the diagonal.  Each lag column is
    embedded in a circulant of length m = the next power of two >= 2n - 1,
    whose spectrum is computed once, so a call costs one batched
    rfft/irfft pair and O(n) memory.
    """

    def __init__(self, kernel: NoiseKernel, n: int, dt: float, weights: np.ndarray, kink: bool = False):
        self.axes = kernel.axes
        self.weights = np.asarray(weights, dtype=float)
        self.n = n
        self.m = 1 << (2 * n - 2).bit_length()
        cols = kernel.lag_profiles(dt * np.arange(n))
        if kink:
            cols[:, 0] += kernel.lag_slopes_at_zero() * dt / 6.0
        emb = np.zeros((len(cols), self.m))
        emb[:, :n] = cols
        emb[:, self.m - n + 1 :] = cols[:, :0:-1]
        # A symmetric embedding has a real spectrum.
        self.spectra = np.fft.rfft(emb, axis=1).real[:, :, None]

    @classmethod
    def nodes(cls, kernel: NoiseKernel, grid: TimeGrid) -> "LagConvolution":
        """Trapezoid rule over the grid nodes."""
        return cls(kernel, grid.n_nodes, grid.dt, _trapezoid_weights(grid.n_nodes, grid.dt))

    @classmethod
    def cells(cls, kernel: NoiseKernel, n_cells: int, dt: float) -> "LagConvolution":
        """Midpoint rule over cell centers, with the diagonal kink correction."""
        return cls(kernel, n_cells, dt, np.full(n_cells, dt), kink=True)

    def project(self, lmats: np.ndarray) -> np.ndarray:
        """Projections p_r[k] = L_k a_r of lab matrices L (n, 3, 3), columns E_i; shape (R, n, 3)."""
        return np.einsum("kab,rb->rka", lmats, self.axes)

    def __call__(self, p: np.ndarray) -> np.ndarray:
        x = np.fft.rfft(self.weights[:, None] * p, n=self.m, axis=1)
        return np.fft.irfft(self.spectra * x, n=self.m, axis=1)[:, : self.n]

    def action(self, lmats: np.ndarray) -> tuple[float, np.ndarray]:
        """S = (1/2) sum_r sum_k w_k p_r[k] . D_r[k] of lab matrices, and the convolutions D."""
        p = self.project(lmats)
        d = self(p)
        return 0.5 * float(np.sum(self.weights[:, None] * p * d)), d

    def dual(self, d: np.ndarray) -> np.ndarray:
        """Kernel-convolved triad D_i = sum_r a_{r,i} D_r; shape (n, 3, 3), row i = D_i."""
        return np.einsum("ri,rkc->kic", self.axes, d)


@dataclass(frozen=True)
class CovarianceOperator:
    """Per-term grid covariances of a kernel and their (jittered) Cholesky factors.

    Term r is a scalar process xi_r with the n_nodes x n_nodes Toeplitz
    covariance f_r(|t_a - t_b|).  ``matrix`` holds the lag columns
    f_r(j dt), shape (R, n_nodes); ``factor`` stacks the lower factors L_r
    of the terms vertically, shape (R n_nodes, n_nodes); ``jitter`` is the
    largest diagonal jitter added to any term.
    """

    grid: TimeGrid
    matrix: np.ndarray
    factor: np.ndarray
    jitter: float

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.factor.setflags(write=False)


def _factor_term(col: np.ndarray, r: int) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of toeplitz(col) and the diagonal jitter it needed."""
    if not np.any(col):
        return np.zeros((len(col), len(col))), 0.0
    from scipy.linalg import toeplitz  # on first use; see the package docstring
    block = toeplitz(col)
    for jit in _JITTERS:
        # The Toeplitz diagonal is col[0]; the jitter is written onto it in place.
        np.fill_diagonal(block, col[0] + jit * col[0])
        try:
            return np.linalg.cholesky(block), jit * col[0]
        except np.linalg.LinAlgError:
            continue
    np.fill_diagonal(block, col[0])
    min_eig = float(np.linalg.eigvalsh(block)[0])
    raise NotPSD(
        f"covariance of kernel term {r} not positive semidefinite within jitter "
        f"ladder; most negative eigenvalue ~ {min_eig:.3e}",
        min_eigenvalue=min_eig,
    )


def assemble_covariance(kernel: NoiseKernel, grid: TimeGrid) -> CovarianceOperator:
    """Factorize the n_nodes x n_nodes Toeplitz covariance f_r(|t_a - t_b|) of each kernel term.

    Cholesky is attempted with a diagonal jitter escalated from 0 through
    1e-8 of the term's diagonal entry; an all-zero term short-circuits to a
    zero factor.

    Raises
    ------
    NotPSD
        If every jitter level fails for a term; the error carries an
        estimate of that term's most negative eigenvalue.
    """
    cols = np.array(kernel.lag_profiles(grid.dt * np.arange(grid.n_nodes)), dtype=float)
    factors, jitters = zip(*(_factor_term(col, r) for r, col in enumerate(cols)))
    return CovarianceOperator(grid, cols, np.vstack(factors), max(jitters))


def _path_normals(seed: int, start: int, count: int, dim: int) -> np.ndarray:
    """Standard normals for paths [start, start+count), one substream each.

    Substream p is ``Philox(key=seed).jumped(p)``.  ``jumped(p)`` advances
    the 256-bit counter by p * 2**128, so one generator serves every path,
    reset per path to counter word 2 = p and an empty output buffer.
    """
    out = np.empty((count, dim))
    gen = np.random.Generator(np.random.Philox(key=seed))
    state = gen.bit_generator.state
    for p in range(start, start + count):
        state["state"]["counter"][2] = p
        gen.bit_generator.state = state
        gen.standard_normal(out=out[p - start])
    return out


def sample_block(cov: CovarianceOperator, seed: int, start: int, count: int) -> np.ndarray:
    """Term scalars xi for substreams [start, start + count); shape (count, R, n_nodes).

    Path p draws R n_nodes normals from its substream; term r colors
    normals [r n_nodes, (r + 1) n_nodes) with its factor L_r.  The lab-frame
    noise of the path is sum_r xi_r a_r.
    """
    n = cov.grid.n_nodes
    terms = cov.factor.shape[0] // n
    z = _path_normals(seed, start, count, terms * n).reshape(count, terms, n)
    for r in range(terms):
        z[:, r] = z[:, r] @ cov.factor[r * n : (r + 1) * n].T
    return z
