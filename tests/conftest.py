import math

import numpy as np
import pytest

from spinctl.evolution import TargetRotation, drift_control, propagate_triad
from spinctl.fidelity import _PATH_BLOCK
from spinctl.magnus import PurePath, TimeGrid
from spinctl.noise import OneOverF, assemble_covariance, sample_block

# Transit-time units: all nondimensional rates are per tau.
TAU = 1.0
DRIFT = np.array([2.0 * math.pi, 0.0, 2.0 * math.pi])


@pytest.fixture(scope="session")
def paper_kernel():
    return OneOverF(8.0 / TAU**2, 0.1 / TAU, 20.0 / TAU)


@pytest.fixture(scope="session")
def paper_target():
    return TargetRotation.from_drift(DRIFT / TAU, TAU)


def drift_triad(grid: TimeGrid, target=None):
    target = target or TargetRotation.from_drift(DRIFT / TAU, TAU)
    return propagate_triad(drift_control(target, grid).omega_lab)


def fourier_path(grid: TimeGrid, coeffs) -> PurePath:
    """Deterministic band-limited path from explicit (cos, sin) coefficient rows."""
    t = grid.nodes / grid.tau
    vals = np.zeros((grid.n_nodes, 3))
    for h, (a, b) in enumerate(coeffs, start=1):
        phase = 2.0 * math.pi * h * t
        vals += np.outer(np.cos(phase), np.asarray(a)) + np.outer(np.sin(phase), np.asarray(b))
    return PurePath(grid, vals)


def quat_tuple(q):
    return np.array(q.wxyz())


def sample_paths(kernel, grid: TimeGrid, count: int, seed: int, cov=None) -> np.ndarray:
    """Lab-frame noise paths from Philox substreams 0 .. count-1 of ``seed``; (count, 3, n_nodes).

    Sampling oracle: the term scalars xi of ``noise.sample_block``, mapped to
    lab components sum_r xi_r a_r through ``kernel.axes``.  It draws in the
    Monte Carlo estimator's blocks of ``_PATH_BLOCK`` paths, which bound the
    memory; a path's draw does not depend on its block.  A pre-assembled
    ``cov`` skips re-forming the spectra.
    """
    if cov is None:
        cov = assemble_covariance(kernel, grid)
    paths = np.empty((count, 3, grid.n_nodes))
    for start in range(0, count, _PATH_BLOCK):
        xi = sample_block(cov, seed, start, min(_PATH_BLOCK, count - start))
        paths[start : start + len(xi)] = np.einsum("prk,ri->pik", xi, kernel.axes)
    return paths
