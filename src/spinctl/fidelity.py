"""Closed-form fidelity machinery for arbitrary spin and its Monte Carlo check.

The noise-averaged fidelity of a spin-s gate is controlled by a single
quadratic functional of the rotating triad (the "action" S); in the
weak-noise limit F_s = (2s+1)^-1 sum_j exp(-(j eps)^2 S) with j running over
the magnetic quantum numbers.  Amplitudes for one noise realization reduce
to functions of the spin-1/2 amplitude, which is the scalar part of the
ordered exponential of the rotating-frame noise.  The Monte Carlo estimator
validates the closed forms from that raw definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DomainError
from .evolution import ControlPath, TriadPath
from .magnus import ordered_exp_batch
from .noise import LagConvolution, NoiseKernel, assemble_covariance, sample_block

__all__ = [
    "SpinNumber",
    "FidelityEstimate",
    "action_S",
    "fidelity_weak",
    "amplitude_half",
    "amplitude_s",
    "chebyshev_U",
    "mc_fidelity",
]

_MC_CHUNK = 4096


@dataclass(frozen=True)
class SpinNumber:
    """Spin quantum number stored as twice its value, so s = 1/2, 1, 3/2, ... are exact."""

    two_s: int

    def __post_init__(self):
        if int(self.two_s) != self.two_s or self.two_s < 1:
            raise ValueError("two_s must be an integer >= 1")

    @property
    def s(self) -> float:
        return 0.5 * self.two_s

    @property
    def multiplicity(self) -> int:
        return self.two_s + 1

    def j_values(self) -> np.ndarray:
        """Magnetic quantum numbers -s..s in unit steps."""
        return -self.s + np.arange(self.two_s + 1)


@dataclass(frozen=True)
class FidelityEstimate:
    """Monte Carlo fidelity: complex mean, standard error, analytic prediction."""

    mean: complex
    std_error: float
    imag_std_error: float
    samples: int
    analytic_prediction: float

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.std_error < 0.0 or self.imag_std_error < 0.0:
            raise ValueError("standard errors must be >= 0")


def action_S(triad: TriadPath, kernel: NoiseKernel) -> float:
    """Quadratic noise functional of a triad trajectory.

    S = (1/2) int int N_ij(t, t') E_i(t) . E_j(t') dt dt' by the
    two-dimensional trapezoid rule on the triad's grid, applied as a lag
    convolution (``noise.LagConvolution``).  Nonnegative for
    positive-semidefinite kernels.
    """
    lmats = np.swapaxes(triad.values, 1, 2)
    return LagConvolution.nodes(kernel, triad.grid).action(lmats)[0]


def fidelity_weak(spin: SpinNumber, epsilon, S: float) -> float:
    """Leading-order noise-averaged fidelity (2s+1)^-1 sum_j exp(-(j eps)^2 S)."""
    if S < 0.0:
        raise ValueError("S must be >= 0")
    eps = float(epsilon)
    j = spin.j_values()
    return float(np.sum(np.exp(-((j * eps) ** 2) * S))) / spin.multiplicity


def amplitude_half(m_tau: float, epsilon) -> float:
    """Spin-1/2 amplitude cos(eps * m(tau) / 2) for one realization."""
    return math.cos(0.5 * float(epsilon) * m_tau)


def amplitude_s(spin: SpinNumber, m_tau: float, epsilon) -> complex:
    """Spin-s amplitude (2s+1)^-1 sum_j exp(-i j eps m(tau)).

    The +-j terms pair into cosines, so the value is exactly real; it is
    returned as a complex number to match the estimator's accumulation.
    """
    eps = float(epsilon)
    theta = eps * m_tau
    two_s = spin.two_s
    if two_s % 2 == 0:
        js = np.arange(1, two_s // 2 + 1)
        total = 1.0 + 2.0 * float(np.sum(np.cos(js * theta)))
    else:
        js = 0.5 + np.arange((two_s + 1) // 2)
        total = 2.0 * float(np.sum(np.cos(js * theta)))
    return complex(total / spin.multiplicity, 0.0)


def chebyshev_U(j: int, x: float) -> float:
    """Chebyshev polynomial of the second kind by the stable recurrence.

    V_0 = 1, V_1 = 2x, V_{k+1} = 2x V_k - V_{k-1}; on x = cos(theta) this is
    sin((j+1) theta)/sin(theta).

    Raises
    ------
    DomainError
        If |x| exceeds 1 by more than 1e-12.
    """
    if j < 0:
        raise ValueError("order must be >= 0")
    if abs(x) > 1.0 + 1e-12:
        raise DomainError(f"chebyshev_U requires |x| <= 1, got {x!r}")
    x = min(1.0, max(-1.0, x))
    if j == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * x
    for _ in range(j - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def _amplitudes_from_half(a_half: np.ndarray, spin: SpinNumber) -> np.ndarray:
    """Lift spin-1/2 amplitudes to spin s; exactly real by the +-j pairing."""
    phi = np.arccos(np.clip(a_half, -1.0, 1.0))
    two_s = spin.two_s
    if two_s % 2 == 0:
        js = np.arange(1, two_s // 2 + 1)
        total = 1.0 + 2.0 * np.sum(np.cos(2.0 * js[:, None] * phi[None, :]), axis=0)
    else:
        js = 0.5 + np.arange((two_s + 1) // 2)
        total = 2.0 * np.sum(np.cos(2.0 * js[:, None] * phi[None, :]), axis=0)
    return total / spin.multiplicity


def mc_fidelity(
    triad: TriadPath,
    kernel: NoiseKernel,
    epsilon,
    spin: SpinNumber,
    count: int,
    seed: int,
    control: ControlPath | None = None,
) -> FidelityEstimate:
    """Monte Carlo fidelity estimate against the analytic weak-noise value.

    For each sampled lab-frame noise path n^i(t), the rotating-frame field
    n(t) = n^i(t) E_i(t) is formed on the control triad, its ordered
    exponential taken, and the scalar part lifted to the spin-s amplitude.
    Sample means use compensated summation; path p always draws from Philox
    substream p of the seed, so the estimate is chunking-independent.

    Parameters
    ----------
    triad : TriadPath
        Rotating triad of the control under test.
    control : ControlPath, optional
        Control history consistent with the triad; only its grid is checked.

    Returns
    -------
    FidelityEstimate
        Complex mean (the imaginary part is identically zero for this
        estimator), standard errors, and the weak-noise prediction built
        from ``action_S``.
    """
    if count < 2:
        raise DegenerateSample("need at least 2 samples for a standard error")
    if control is not None and control.grid != triad.grid:
        raise ValueError("control grid disagrees with triad grid")
    eps = float(epsilon)
    grid = triad.grid
    cov = assemble_covariance(kernel, grid)

    chunks = []
    for start in range(0, count, _MC_CHUNK):
        take = min(_MC_CHUNK, count - start)
        lab = sample_block(cov, seed, start, take)
        rot = np.einsum("pik,kic->pkc", lab, triad.values)
        units = ordered_exp_batch(rot, eps, grid.dt)
        chunks.append(_amplitudes_from_half(units[:, 0], spin))
    vals = np.concatenate(chunks)

    mean = math.fsum(vals) / count
    var = math.fsum((v - mean) ** 2 for v in vals) / (count - 1)
    std_err = math.sqrt(var / count)
    prediction = fidelity_weak(spin, eps, action_S(triad, kernel))
    return FidelityEstimate(
        mean=complex(mean, 0.0),
        std_error=std_err,
        imag_std_error=0.0,
        samples=count,
        analytic_prediction=prediction,
    )
