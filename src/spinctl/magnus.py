"""Exact and perturbative summation of the ordered exponential of a rotating field.

Given a pure-quaternion field n(t) sampled on a uniform grid, the ordered
product T exp((eps/2) int n dt) equals exp((eps/2) m(tau)) for a single
rotation vector m(t).  This module provides:

* ``ordered_exp_batch`` -- the ordered midpoint product of a batch of
  fields, computed by tree reduction (the oracle discretization everything
  else is checked against); ``time_ordered_exp`` is its one-path case,
* ``solve_m_ode``      -- the exact first-order ODE for m(t), an all-orders
  resummation of the perturbative (Magnus-type) series, stepped in floats;
  ``solve_m_ode_batch`` steps many (path, eps) lanes of it together, with
  the same bits, on ring rows (x, y, z, x, y) of lane arrays, so that a
  cross product or any other vector operation is one numpy call,
* ``magnus_term``      -- individual perturbative orders 0..2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularCot, UnsupportedOrder
from .quat import UnitQuat, cross3, jl_transpose_apply, qexp_vec, qproduct

__all__ = [
    "TimeGrid",
    "PurePath",
    "time_ordered_exp",
    "solve_m_ode",
    "solve_m_ode_batch",
    "n_of_m",
    "magnus_term",
    "random_smooth_path",
]

# Half-width (in radians of |eps|*|m|) of the refusal band around the
# cotangent poles at nonzero multiples of 2*pi.
COT_GUARD_BAND = 0.05


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * tau / n_steps on the transit interval [0, tau]."""

    tau: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be positive and finite, got {self.tau!r}")
        if not (2 <= self.n_steps < math.inf and int(self.n_steps) == self.n_steps):
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.tau / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @cached_property
    def nodes(self) -> np.ndarray:
        t = np.linspace(0.0, self.tau, self.n_steps + 1)
        t.setflags(write=False)
        return t

    @cached_property
    def centers(self) -> np.ndarray:
        """Cell centers (t_k + t_{k+1}) / 2, shape (n_steps,)."""
        t = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        t.setflags(write=False)
        return t


@dataclass(frozen=True)
class PurePath:
    """A pure-quaternion-valued trajectory sampled on a TimeGrid.

    ``values`` has shape (n_nodes, 3) holding the static-basis components of
    the field at each node.  Immutable after construction.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="C")  # a copy: the caller's array stays the caller's
        if v.shape != (self.grid.n_nodes, 3):
            raise ValueError(f"values must have shape ({self.grid.n_nodes}, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# Ordered exponential (oracle)
# ---------------------------------------------------------------------------


def ordered_exp_batch(values: np.ndarray, epsilon, dt: float, out=None) -> np.ndarray:
    """Ordered product of per-step factors exp((eps/2) n(t*) dt), later steps left, for a batch of fields.

    Midpoint sampling t* = (t_k + t_{k+1})/2 with the field linearly
    interpolated between nodes; converges at second order in dt.  This is
    the oracle discretization, evaluated by tree reduction (``qproduct``).
    ``values`` has shape (batch, n_nodes, 3), any layout; component-major
    memory (3, n_nodes, batch) is the fast one.  Returns unit quaternions
    of shape (batch, 4).  The node sums are added straight into one
    component-major step array of the whole batch and the step exponents
    built there in place, so the Monte Carlo pipeline passes one block of
    paths at a time; ``out`` (batch, n_nodes - 1, 4) may pass that step
    array, to be overwritten, so a caller reuses it from block to block.
    """
    steps = np.empty((len(values), values.shape[1] - 1, 4), order="F") if out is None else out
    v = np.add(values[:, :-1, :], values[:, 1:, :], out=steps[..., 1:])
    v *= 0.25 * float(epsilon) * dt
    return qproduct(qexp_vec(v, out=steps))


def time_ordered_exp(n: PurePath, epsilon) -> UnitQuat:
    """``ordered_exp_batch`` of the one path ``n``."""
    return UnitQuat.normalized(*(float(c) for c in ordered_exp_batch(n.values[None], epsilon, n.grid.dt)[0]))


# ---------------------------------------------------------------------------
# Exact rotation-vector ODE
# ---------------------------------------------------------------------------

# (1 - (y/2) cot(y/2)) / y^2 as a series in y^2; accurate to ~1e-12 for y < 1/2.
_H_SERIES = (
    1.0 / 12.0,
    1.0 / 720.0,
    1.0 / 30240.0,
    1.0 / 1209600.0,
    1.0 / 47900160.0,
)
_H_SERIES_CUT2 = 0.25  # switch on y^2


# The same coefficients as 0-d arrays: a numpy call takes an array operand
# faster than a Python float, with the same bits.
_H_SERIES_0D = tuple(np.array(c) for c in _H_SERIES)


def _h_series(y2, c=_H_SERIES):
    return c[0] + y2 * (c[1] + y2 * (c[2] + y2 * (c[3] + y2 * c[4])))


def _h_of_y2(y2: float) -> float:
    """Smooth coefficient h(y) = (1 - (y/2) cot(y/2)) / y^2, h(0) = 1/12."""
    if y2 < _H_SERIES_CUT2:
        return _h_series(y2)
    y = math.sqrt(y2)
    return (1.0 - 0.5 * y / math.tan(0.5 * y)) / y2


def _h_of_y2_lanes(y2: np.ndarray) -> np.ndarray:
    """``_h_of_y2`` of every entry, with its bits.

    The series runs on the whole array; entries past the cut take the
    scalar tangent branch one by one, because ``np.tan`` and ``math.tan``
    differ in the last bit.
    """
    h = _h_series(y2, _H_SERIES_0D)
    if y2.max(initial=0.0) >= _H_SERIES_CUT2:
        far = y2 >= _H_SERIES_CUT2
        h[far] = [_h_of_y2(v) for v in y2[far].tolist()]
    return h


def _check_cot_guard(y: float, t: float, lane=None):
    if y > math.pi:
        k = round(y / (2.0 * math.pi))
        if k >= 1 and abs(y - 2.0 * math.pi * k) < COT_GUARD_BAND:
            where = "" if lane is None else f" in lane (path {lane[0]}, eps {lane[1]:g})"
            raise SingularCot(
                f"|eps|*|m| = {y:.6f} entered the guard band around 2*pi*{k}{where} near t = {t:.6g}; "
                "refine the grid or reduce epsilon",
                t_cross=t,
                lane=lane,
            )


def _interval_midpoints(v: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Cubic (4-point) interpolation of node samples (axis 0) at interval midpoints.

    Returns the midpoints of intervals lo..hi-1, all intervals by default.
    """
    n_int = v.shape[0] - 1
    hi = n_int if hi is None else hi
    if n_int < 3:
        return 0.5 * (v[lo:hi] + v[lo + 1 : hi + 1])
    mids = np.empty((hi - lo,) + v.shape[1:])
    a, b = max(lo, 1), min(hi, n_int - 1)  # interior intervals of the chunk
    if a < b:
        mids[a - lo : b - lo] = (-v[a - 1 : b - 1] + 9.0 * v[a:b] + 9.0 * v[a + 1 : b + 1] - v[a + 2 : b + 2]) / 16.0
    if lo == 0:
        mids[0] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
    if hi == n_int:
        mids[-1] = (v[-4] - 5.0 * v[-3] + 15.0 * v[-2] + 5.0 * v[-1]) / 16.0
    return mids


def _m_rhs(nx, ny, nz, mx, my, mz, half_eps, eps2):
    """Right-hand side n - (eps/2) m x n + eps^2 h(eps |m|) m x (m x n) of the rotation-vector equation.

    One lane in floats, with ``half_eps`` = eps/2 and ``eps2`` = eps^2;
    returns the (x, y, z) components.  ``_ring_rhs`` is the same arithmetic
    on arrays.
    """
    cx = my * nz - mz * ny
    cy = mz * nx - mx * nz
    cz = mx * ny - my * nx
    m2 = mx * mx + my * my + mz * mz
    h = _h_of_y2(eps2 * m2)
    mdotn = mx * nx + my * ny + mz * nz
    # m x (m x n) = m (m.n) - n |m|^2
    f = eps2 * h
    return (
        nx - half_eps * cx + f * (mx * mdotn - nx * m2),
        ny - half_eps * cy + f * (my * mdotn - ny * m2),
        nz - half_eps * cz + f * (mz * mdotn - nz * m2),
    )


def solve_m_ode(n: PurePath, epsilon) -> PurePath:
    """Integrate the exact rotation-vector equation from m(0) = 0.

    The returned path m(t) satisfies
    exp((eps/2) m(t)) = T exp((eps/2) int_0^t n dt) at every node, i.e. it is
    the all-orders resummation of the perturbative series.  Classic
    fourth-order Runge-Kutta, with the field taken at the start, cubic
    midpoint (``_interval_midpoints``) and end of each step.

    Raises
    ------
    SingularCot
        When |eps|*|m| approaches a nonzero multiple of 2*pi, where the
        right-hand side has a cotangent pole and exp((eps/2) m) = -1 makes
        the continuation ambiguous.
    """
    eps = float(epsilon)
    coef = (0.5 * eps, eps * eps)
    dt = n.grid.dt
    h2 = 0.5 * dt
    h6 = dt / 6.0
    mx = my = mz = 0.0
    out = [(mx, my, mz)]
    pts = n.values.tolist()
    steps = zip(n.grid.nodes[1:].tolist(), pts, _interval_midpoints(n.values).tolist(), pts[1:])
    for t, (n0x, n0y, n0z), (nmx, nmy, nmz), (n1x, n1y, n1z) in steps:
        k1 = _m_rhs(n0x, n0y, n0z, mx, my, mz, *coef)
        k2 = _m_rhs(nmx, nmy, nmz, mx + h2 * k1[0], my + h2 * k1[1], mz + h2 * k1[2], *coef)
        k3 = _m_rhs(nmx, nmy, nmz, mx + h2 * k2[0], my + h2 * k2[1], mz + h2 * k2[2], *coef)
        k4 = _m_rhs(n1x, n1y, n1z, mx + dt * k3[0], my + dt * k3[1], mz + dt * k3[2], *coef)
        mx = mx + h6 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        my = my + h6 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        mz = mz + h6 * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        _check_cot_guard(abs(eps) * math.sqrt(mx * mx + my * my + mz * mz), t)
        out.append((mx, my, mz))
    return PurePath(n.grid, out)


# Array lanes hold vectors as ring rows (x, y, z, x, y) on axis 0, so that
# m x n is m[1:4] * n[2:5] - m[2:5] * n[1:4] and every vector operation is
# one numpy call over all components.


def _ring_m2(m: np.ndarray) -> np.ndarray:
    """|m|^2 of ring rows, summed as mx*mx + my*my + mz*mz."""
    sq = m[:3] * m[:3]
    m2 = sq[0] + sq[1]
    m2 += sq[2]
    return m2


def _ring_rhs(n: np.ndarray, m: np.ndarray, half_eps, eps2, m2=None) -> np.ndarray:
    """``_m_rhs`` of ring rows ``n`` and ``m``; returns ring rows.

    ``half_eps`` broadcasts against three rows, ``eps2`` against ``m2``,
    which may pass ``_ring_m2(m)`` already formed.  Each entry sees the
    products, sums and Horner order of ``_m_rhs`` (two operands give the
    same bits in either order), so it has the bits of its float lane.
    """
    if m2 is None:
        m2 = _ring_m2(m)
    c = m[1:4] * n[2:5]
    c -= m[2:5] * n[1:4]  # m x n
    p = m[:3] * n[:3]
    mdotn = p[0] + p[1]
    mdotn += p[2]
    f = _h_of_y2_lanes(eps2 * m2)
    f *= eps2
    c *= half_eps
    np.subtract(n[:3], c, out=c)
    d = m[:3] * mdotn
    d -= n[:3] * m2
    d *= f
    c += d
    return np.concatenate((c, c[:2]))


_CHUNK_STEPS = 128  # steps whose field samples are expanded to lane rings at once


def _ring_steps(v: np.ndarray, n_eps: int):
    """Per-step field at start, midpoint and end of (n_nodes, 3, paths) samples, as (5, paths * n_eps) rings."""
    n_steps, n_paths = v.shape[0] - 1, v.shape[2]
    for lo in range(0, n_steps, _CHUNK_STEPS):
        hi = min(lo + _CHUNK_STEPS, n_steps)
        nodes = np.empty((hi - lo + 1, 5, n_paths, n_eps))
        nodes[:, :3] = v[lo : hi + 1, :, :, None]
        mids = np.empty((hi - lo, 5, n_paths, n_eps))
        mids[:, :3] = _interval_midpoints(v, lo, hi)[..., None]
        for a in (nodes, mids):
            a[:, 3:] = a[:, :2]
        nodes, mids = nodes.reshape(hi - lo + 1, 5, -1), mids.reshape(hi - lo, 5, -1)
        for j in range(hi - lo):
            yield nodes[j], mids[j], nodes[j + 1]


def solve_m_ode_batch(values: np.ndarray, epsilons, grid: TimeGrid) -> np.ndarray:
    """m(tau) of ``solve_m_ode`` for every (path, eps) lane, all stepped together.

    ``values`` has shape (paths, grid.n_nodes, 3), as for
    ``ordered_exp_batch``; returns shape (paths, len(epsilons), 3).  The
    lanes are columns of ring rows (``_ring_rhs``), so each vector
    operation of the RK4 step is one numpy call over all components and
    lanes, and lane (p, e) has the bits of
    ``solve_m_ode(path p, epsilons[e]).values[-1]``.  The field is expanded
    to lane rings one chunk of steps at a time, so the working set beyond
    ``values`` is O(chunk * lanes).

    Raises
    ------
    SingularCot
        At the first step where any lane enters the guard band; ``lane`` is
        (path index, eps) of the first such lane in row order.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1:] != (grid.n_nodes, 3):
        raise ValueError(f"values must have shape (paths, {grid.n_nodes}, 3), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("path values must be finite")
    eps = [float(e) for e in epsilons]
    lanes = [(p, e) for p in range(len(values)) for e in eps]  # row order
    lane_eps = np.array([e for _, e in lanes])
    half_eps, eps2, abs_eps = np.tile(0.5 * lane_eps, (3, 1)), lane_eps * lane_eps, np.abs(lane_eps)
    # 0-d arrays for the step constants too, as in _H_SERIES_0D
    h2, h6, dt, two = (np.array(c) for c in (0.5 * grid.dt, grid.dt / 6.0, grid.dt, 2.0))
    m = np.zeros((5, len(lanes)))
    m2 = np.zeros(len(lanes))  # _ring_m2(m), shared by the guard and the next k1
    steps = _ring_steps(values.transpose(1, 2, 0), len(eps))
    for t, (n0, nh, n1) in zip(grid.nodes[1:].tolist(), steps):
        k1 = _ring_rhs(n0, m, half_eps, eps2, m2)
        k2 = _ring_rhs(nh, m + h2 * k1, half_eps, eps2)
        k3 = _ring_rhs(nh, m + h2 * k2, half_eps, eps2)
        k4 = _ring_rhs(n1, m + dt * k3, half_eps, eps2)
        m = m + h6 * (k1 + two * (k2 + k3) + k4)
        m2 = _ring_m2(m)
        y = abs_eps * np.sqrt(m2)
        if y.max(initial=0.0) > math.pi:
            for i in np.flatnonzero(y > math.pi):
                _check_cot_guard(float(y[i]), t, lanes[i])
    return m[:3].T.reshape(len(values), len(eps), 3)


def n_of_m(m: PurePath, epsilon) -> PurePath:
    """Recover the field n(t) generating a given rotation-vector history.

    Exact inverse of ``solve_m_ode`` up to finite-difference error:
    n = J_l(eps m) dm/dt, with J_l the left Jacobian of the exponential map,
    computed as J_l(-eps m)^T dm/dt by ``quat.jl_transpose_apply``; it
    reduces to n = dm/dt as |m| -> 0, which is also the eps -> 0 limit.
    """
    v = m.values
    dv = np.gradient(v, m.grid.dt, axis=0, edge_order=2)
    return PurePath(m.grid, jl_transpose_apply(-float(epsilon) * v, dv))


# ---------------------------------------------------------------------------
# Perturbative orders
# ---------------------------------------------------------------------------


def magnus_term(n: PurePath, order: int) -> PurePath:
    """Perturbative term of the stated order in the strength parameter.

    Order 0 is the running integral of n; order 1 the ordered double
    integral of n^n; order 2 the two nested triple-wedge integrals.  All
    quadratures are iterated trapezoids on the path's grid.
    """
    if order not in (0, 1, 2):
        raise UnsupportedOrder(f"perturbative order {order} not implemented (0..2 supported)")
    # Imported here: scipy.integrate adds 3 MB RSS, and no CLI kind needs it.
    from scipy.integrate import cumulative_trapezoid
    v = n.values
    dt = n.grid.dt
    m0 = cumulative_trapezoid(v, dx=dt, axis=0, initial=0)
    if order == 0:
        return PurePath(n.grid, m0)
    m1 = 0.5 * cumulative_trapezoid(cross3(v, m0), dx=dt, axis=0, initial=0)
    if order == 1:
        return PurePath(n.grid, m1)
    # Second piece needs the running outer-product integral of n (x) m0.
    outer = cumulative_trapezoid(v[:, :, None] * m0[:, None, :], dx=dt, axis=0, initial=0)  # (n, 3, 3)
    scal = cumulative_trapezoid(np.sum(v * m0, axis=1), dx=dt, axis=0, initial=0)  # (n,)
    piece1 = cumulative_trapezoid(cross3(v, 2.0 * m1), dx=dt, axis=0, initial=0)
    inner2 = np.einsum("kab,kb->ka", outer, v) - scal[:, None] * v
    piece2 = cumulative_trapezoid(inner2, dx=dt, axis=0, initial=0)
    return PurePath(n.grid, (piece1 + piece2) / 6.0)


def random_smooth_path(
    grid: TimeGrid,
    rng: np.random.Generator,
    amplitude: float = 0.1,
) -> PurePath:
    """Band-limited random field for consistency checks.

    Each component is a sum of Fourier modes h = 1, 2, 3 on [0, tau]
    with Gaussian coefficients of standard deviation amplitude / h^2, so the
    field is smooth enough for second-order product formulas to resolve.
    """
    t = grid.nodes / grid.tau
    vals = np.zeros((grid.n_nodes, 3))
    for h in (1, 2, 3):
        a = rng.normal(0.0, amplitude / h**2, size=3)
        b = rng.normal(0.0, amplitude / h**2, size=3)
        phase = 2.0 * math.pi * h * t
        vals += np.outer(np.cos(phase), a) + np.outer(np.sin(phase), b)
    return PurePath(grid, vals)
