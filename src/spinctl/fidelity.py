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
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSample, DomainError
from .evolution import TriadPath
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
    "mc_fidelity_table",
]

# Paths per block of the Monte Carlo pipeline: ``mc_fidelity_table`` draws,
# rotates and multiplies out (``magnus.ordered_exp_batch``) each block in
# one worker.  Every path's draw and ordered product are independent of the
# others, so blocks bound the working set without changing a bit of it.
_PATH_BLOCK = 128
# Worker threads for the blocks: the CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class SpinNumber:
    """Spin quantum number stored as twice its value, so s = 1/2, 1, 3/2, ... are exact."""

    two_s: int

    def __post_init__(self):
        if not (1 <= self.two_s < math.inf and int(self.two_s) == self.two_s):
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
    """Monte Carlo fidelity: mean, standard error, analytic prediction.

    ``jitter`` is the largest negative spectral value, relative to its
    term's largest, clipped from the circulant embedding the noise paths
    were drawn from (``noise.CovarianceOperator.jitter``); 0 for 1/f noise.
    """

    mean: float
    std_error: float
    samples: int
    analytic_prediction: float
    jitter: float

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.std_error < 0.0 or self.jitter < 0.0:
            raise ValueError("standard error and jitter must be >= 0")


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


def _spin_lift(theta, spin: SpinNumber):
    """(2s+1)^-1 sum_j exp(-i j theta) for a float or an array of theta.

    The +-j terms pair into cosines, so the value is exactly real: one
    cosine sum over j > 0 (plus the j = 0 term for integer s).
    """
    two_s = spin.two_s
    if two_s % 2 == 0:
        js = np.arange(1, two_s // 2 + 1)
        total = 1.0 + 2.0 * np.sum(np.cos(np.multiply.outer(js, theta)), axis=0)
    else:
        js = 0.5 + np.arange((two_s + 1) // 2)
        total = 2.0 * np.sum(np.cos(np.multiply.outer(js, theta)), axis=0)
    return total / spin.multiplicity


def amplitude_s(spin: SpinNumber, m_tau: float, epsilon) -> float:
    """Spin-s amplitude (2s+1)^-1 sum_j exp(-i j eps m(tau)), exactly real (see ``_spin_lift``)."""
    return float(_spin_lift(float(epsilon) * m_tau, spin))


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
    """Lift spin-1/2 amplitudes a = cos(theta/2) to spin s."""
    return _spin_lift(2.0 * np.arccos(np.clip(a_half, -1.0, 1.0)), spin)


def _estimate(
    vals: np.ndarray, spin: SpinNumber, eps: float, S: float, jitter: float
) -> FidelityEstimate:
    """Compensated sample mean and standard error of one cell's amplitudes."""
    count = len(vals)
    mean = math.fsum(vals) / count
    var = math.fsum((vals - mean) ** 2) / (count - 1)
    return FidelityEstimate(
        mean=mean,
        std_error=math.sqrt(var / count),
        samples=count,
        analytic_prediction=fidelity_weak(spin, eps, S),
        jitter=jitter,
    )


def _head(buf: np.ndarray, shape, order="C") -> np.ndarray:
    """Head of the flat ``buf`` as a contiguous ``shape``: any block gets a fresh array's layout and bits."""
    return buf[: math.prod(shape)].reshape(shape, order=order)


def mc_fidelity_table(
    triad: TriadPath,
    kernel: NoiseKernel,
    epsilons,
    spins,
    count: int,
    seed: int,
) -> list[list[FidelityEstimate]]:
    """Monte Carlo fidelity estimates for every (epsilon, spin) cell from one noise ensemble.

    Each sampled noise path is sum_r xi_r(t) a_r over the kernel's terms, so
    its rotating-frame field is n(t) = sum_r xi_r(t) E(t)^T a_r on the
    control triad; its ordered exponential is taken at each epsilon and the
    scalar part lifted to every requested spin.  The noise enters the
    spin-s amplitude only through the spin-1/2 ordered exponential, and
    epsilon only through that product, so each kernel term's spectrum is
    formed once.  Paths run in blocks of ``_PATH_BLOCK`` on ``_WORKERS``
    threads, each with its own work arrays, so the working set grows with the
    workers, not with ``count``: a block is drawn and rotated, multiplied out
    once per epsilon and lifted to every spin.  Path p comes from Philox
    substream p // 2 whatever its block, and the amplitudes go back in block
    order before the compensated sample means, so every cell equals a
    separate ``mc_fidelity`` call bit for bit, for any block size and
    worker count.

    Returns
    -------
    list of list of FidelityEstimate
        Indexed [epsilon][spin]: sample mean, standard error, and the
        weak-noise prediction built from ``action_S``.
    """
    if count < 2:
        raise DegenerateSample("need at least 2 samples for a standard error")
    import threading
    from concurrent.futures import ThreadPoolExecutor  # on first use; see the package docstring

    grid, n = triad.grid, triad.grid.n_nodes
    cov = assemble_covariance(kernel, grid)
    # B_r[k] = E_k^T a_r: the rotating-frame image of kernel term r at node k.
    proj = np.einsum("ri,kic->rkc", kernel.axes, triad.values)
    starts = range(0, count, _PATH_BLOCK)
    workers = min(_WORKERS, len(starts))
    # Block work arrays, allocated here so the heap does not churn; each worker
    # thread takes one set when it starts and reuses it block after block.
    bufs = [[np.empty(k * min(_PATH_BLOCK, count)) for k in (3 * n, 4 * n - 4)] for _ in range(workers)]
    local = threading.local()

    def run_block(start):
        size = min(_PATH_BLOCK, count - start)
        xi = sample_block(cov, seed, start, size)
        # Component-major (3, n_nodes, paths), the ordered product's fast
        # layout, by one transposing pass over xi; rot.T is (paths, n_nodes, 3).
        rot = _head(local.bufs[0], (3, n, size))
        np.multiply(proj[0].T[:, :, None], xi[:, 0].T, out=rot)
        for r in range(1, len(proj)):
            rot += proj[r].T[:, :, None] * xi[:, r].T
        del xi  # free the draw before the products allocate their temporaries
        steps = _head(local.bufs[1], (size, n - 1, 4), order="F")
        cells = []
        for eps in epsilons:
            a_half = ordered_exp_batch(rot.T, eps, grid.dt, out=steps)[:, 0]
            cells += [_amplitudes_from_half(a_half, spin) for spin in spins]
        return cells

    with ThreadPoolExecutor(workers, initializer=lambda: setattr(local, "bufs", bufs.pop())) as pool:
        cells = iter(np.concatenate(list(pool.map(run_block, starts)), axis=1))
    S = action_S(triad, kernel)
    return [[_estimate(next(cells), spin, eps, S, cov.jitter) for spin in spins] for eps in epsilons]


def mc_fidelity(
    triad: TriadPath,
    kernel: NoiseKernel,
    epsilon,
    spin: SpinNumber,
    count: int,
    seed: int,
) -> FidelityEstimate:
    """Monte Carlo fidelity estimate against the analytic weak-noise value.

    The one-cell case of ``mc_fidelity_table``: ``count`` lab-frame noise
    paths, in pairs from Philox substreams 0, 1, ... of ``seed``, rotated onto
    ``triad``, their ordered exponential at ``epsilon`` lifted to ``spin``.
    """
    return mc_fidelity_table(triad, kernel, (epsilon,), (spin,), count, seed)[0][0]
