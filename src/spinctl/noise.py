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
covariance is sampled on its own, exactly, by FFT of its minimal circulant
embedding; sampling uses counter-based per-pair substreams so draws are
deterministic given the seed and parallelizable across paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotPSD
from .magnus import TimeGrid

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

# Most negative spectral value of an embedding, relative to its largest, that counts as rounding.
_SPECTRUM_FLOOR = 1e-12


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


def _trapezoid_weights(n_nodes: int, dt: float) -> np.ndarray:
    """Trapezoid quadrature weights on a uniform grid of ``n_nodes`` nodes."""
    w = np.full(n_nodes, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _embed(cols: np.ndarray, m: int) -> np.ndarray:
    """Lag columns (R, n) as the first rows of symmetric circulants of length m >= 2n - 2; shape (R, m)."""
    n = cols.shape[1]
    emb = np.zeros((len(cols), m))
    emb[:, :n] = cols
    emb[:, m - n + 1 :] = cols[:, :0:-1]
    return emb


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
        # A symmetric embedding has a real spectrum.
        self.spectra = np.fft.rfft(_embed(cols, self.m), axis=1).real[:, :, None]

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
    """Per-term grid covariances of a kernel and the spectra that sample them.

    Term r is a scalar process xi_r with the n_nodes x n_nodes Toeplitz
    covariance f_r(|t_a - t_b|).  ``matrix`` holds the lag columns
    f_r(j dt), shape (R, n_nodes).  Each column is embedded in the minimal
    symmetric circulant of length m = 2 n_nodes - 2, with spectrum lambda_r;
    ``factor`` holds sqrt(lambda_r / m), shape (R, m).  ``jitter`` is the
    largest negative spectral value clipped to 0, relative to its term's
    largest (0 for a nonnegative spectrum).
    """

    grid: TimeGrid
    matrix: np.ndarray
    factor: np.ndarray
    jitter: float

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.factor.setflags(write=False)


def assemble_covariance(kernel: NoiseKernel, grid: TimeGrid) -> CovarianceOperator:
    """Spectra of the minimal circulant embeddings of each kernel term's grid covariance.

    The Toeplitz covariance f_r(|t_a - t_b|) on n nodes is the leading block
    of a symmetric circulant of length m = 2n - 2; when the circulant's
    spectrum is nonnegative, one FFT draws it exactly (Dietrich & Newsam,
    SIAM J. Sci. Comput. 18, 1088 (1997); Wood & Chan, J. Comput. Graph.
    Stat. 3, 409 (1994)).  A convex decreasing profile, such as the 1/f
    mixture of exponentials, has a nonnegative minimal embedding.  Spectral
    values down to ``_SPECTRUM_FLOOR`` of the term's largest are rounding,
    clipped to 0.

    Raises
    ------
    NotPSD
        If a term's spectrum falls below that floor; the error carries the
        term's most negative spectral value.
    """
    n, m = grid.n_nodes, 2 * grid.n_nodes - 2
    cols = np.array(kernel.lag_profiles(grid.dt * np.arange(n)), dtype=float)
    lam = np.fft.fft(_embed(cols, m), axis=1).real
    neg, top = np.maximum(-lam.min(axis=1), 0.0), lam.max(axis=1)
    for r in np.flatnonzero(neg > _SPECTRUM_FLOOR * top):
        raise NotPSD(
            f"circulant embedding of kernel term {r} is not positive semidefinite; "
            f"most negative spectral value {-neg[r]:.3e} against a largest of {top[r]:.3e}",
            min_eigenvalue=float(-neg[r]),
        )
    jitter = float(np.divide(neg, top, out=np.zeros_like(neg), where=neg > 0.0).max())
    return CovarianceOperator(grid, cols, np.sqrt(np.maximum(lam, 0.0) / m), jitter)


def _path_normals(seed: int, start: int, count: int, dim: int) -> np.ndarray:
    """Standard normals for substreams [start, start+count), one row each.

    Substream p is ``Philox(key=seed).jumped(p)``.  ``jumped(p)`` advances
    the 256-bit counter by p * 2**128, so one generator serves every
    substream, reset per row to counter word 2 = p and an empty output buffer.
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
    """Term scalars xi for paths [start, start + count); shape (count, R, n_nodes).

    Paths come in pairs.  Pair q draws 2 R m normals from substream q, read
    as complex vectors z_r = z1 + i z2, one per term, and
    y_r = FFT(factor_r * z_r) has independent real and imaginary parts,
    each with term r's circulant covariance: path 2q is Re y_r[:n_nodes]
    and path 2q + 1 is Im y_r[:n_nodes].  The FFT transforms every row on
    its own, so a path's xi does not depend on the block it is drawn in.
    The lab-frame noise of the path is sum_r xi_r a_r.
    """
    (terms, m), n = cov.factor.shape, cov.grid.n_nodes
    first = start // 2
    pairs = (start + count + 1) // 2 - first
    z = _path_normals(seed, first, pairs, 2 * terms * m).view(complex).reshape(pairs, terms, m)
    z *= cov.factor
    y = np.fft.fft(z, axis=2, out=z)[:, :, :n]
    xi = np.stack((y.real, y.imag), axis=1).reshape(2 * pairs, terms, n)
    return xi[start - 2 * first : start - 2 * first + count]
