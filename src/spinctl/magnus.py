"""Exact and perturbative summation of the ordered exponential of a rotating field.

Given a pure-quaternion field n(t) sampled on a uniform grid, the ordered
product T exp((eps/2) int n dt) equals exp((eps/2) m(tau)) for a single
rotation vector m(t).  This module provides:

* ``ordered_exp_batch`` -- the ordered midpoint product of a batch of
  fields, computed by tree reduction (the oracle discretization everything
  else is checked against); ``time_ordered_exp`` is its one-path case,
* ``solve_m_ode``      -- the exact first-order ODE for m(t), an all-orders
  resummation of the perturbative (Magnus-type) series, stepped in floats
  by a fourth-order Adams predictor-corrector with an RK4 start;
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
    "ordered_exp_batch",
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

# Classic RK4 steps that start the Adams predictor-corrector, which needs f at
# four nodes; a grid of no more steps is RK4 only.
_START_STEPS = 3


def _h_of_y2(y2: float) -> float:
    """Smooth coefficient h(y) = (1 - (y/2) cot(y/2)) / y^2, h(0) = 1/12."""
    if y2 < _H_SERIES_CUT2:
        c0, c1, c2, c3, c4 = _H_SERIES
        return c0 + y2 * (c1 + y2 * (c2 + y2 * (c3 + y2 * c4)))
    y = math.sqrt(y2)
    return (1.0 - 0.5 * y / math.tan(0.5 * y)) / y2


def _check_cot_guard(y: float, t: float, lane=None):
    """Refuse node t if |eps|*|m| = y is in the guard band around a pole or its pole index changed.

    m(0) = 0 has pole index floor(y / 2 pi) = 0 and every change of it is
    refused, so y >= 2 pi means the step to t crossed the pole at 2 pi.  An
    overflowed lane (y = inf) is left to numpy's warning.
    """
    if math.pi < y < math.inf:
        k = round(y / (2.0 * math.pi))
        if abs(y - 2.0 * math.pi * k) < COT_GUARD_BAND:
            what = f"entered the guard band around 2*pi*{k}"
        elif y >= 2.0 * math.pi:
            what = "crossed the pole at 2*pi between nodes"
        else:
            return
        where = "" if lane is None else f" in lane (path {lane[0]}, eps {lane[1]:g})"
        raise SingularCot(
            f"|eps|*|m| = {y:.6f} {what}{where} near t = {t:.6g}; refine the grid or reduce epsilon",
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
    returns the (x, y, z) components.  The step of ``solve_m_ode_batch`` is
    the same arithmetic on lane arrays.
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
    the all-orders resummation of the perturbative series.  Fourth-order
    Adams-Bashforth-Moulton predictor-corrector in PEC mode: one right-hand
    side f per step, at the predicted point and the field at the next node.
    The first ``_START_STEPS`` steps are classic fourth-order Runge-Kutta,
    with the field at the start, cubic midpoint (``_interval_midpoints``)
    and end of the step.

    Raises
    ------
    ValueError
        When eps^2 is not finite.
    SingularCot
        When |eps|*|m| approaches a nonzero multiple of 2*pi, where the
        right-hand side has a cotangent pole and exp((eps/2) m) = -1 makes
        the continuation ambiguous, or passed 2*pi between two nodes.
    """
    eps = float(epsilon)
    if not math.isfinite(eps * eps):
        raise ValueError("each epsilon must have a finite square")
    coef = (0.5 * eps, eps * eps)
    dt = n.grid.dt
    h2 = 0.5 * dt
    h6 = dt / 6.0
    h24 = dt / 24.0
    mx = my = mz = 0.0
    out = [(mx, my, mz)]
    pts = n.values.tolist()
    ts = n.grid.nodes.tolist()
    f = []  # f at the nodes so far, newest first
    mids = _interval_midpoints(n.values, 0, min(_START_STEPS, n.grid.n_steps)).tolist()
    for t, (n0x, n0y, n0z), (nmx, nmy, nmz), (n1x, n1y, n1z) in zip(ts[1:], pts, mids, pts[1:]):
        k1 = _m_rhs(n0x, n0y, n0z, mx, my, mz, *coef)
        k2 = _m_rhs(nmx, nmy, nmz, mx + h2 * k1[0], my + h2 * k1[1], mz + h2 * k1[2], *coef)
        k3 = _m_rhs(nmx, nmy, nmz, mx + h2 * k2[0], my + h2 * k2[1], mz + h2 * k2[2], *coef)
        k4 = _m_rhs(n1x, n1y, n1z, mx + dt * k3[0], my + dt * k3[1], mz + dt * k3[2], *coef)
        mx = mx + h6 * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0])
        my = my + h6 * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1])
        mz = mz + h6 * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2])
        _check_cot_guard(abs(eps) * math.sqrt(mx * mx + my * my + mz * mz), t)
        out.append((mx, my, mz))
        f.insert(0, k1)
    if n.grid.n_steps > _START_STEPS:
        f.insert(0, _m_rhs(*pts[_START_STEPS], mx, my, mz, *coef))
    for t, n1 in zip(ts[_START_STEPS + 1 :], pts[_START_STEPS + 1 :]):
        m = (mx, my, mz)
        p = [a + h24 * (((55.0 * b0 - 59.0 * b1) + 37.0 * b2) - 9.0 * b3) for a, b0, b1, b2, b3 in zip(m, *f)]
        f = [_m_rhs(*n1, *p, *coef)] + f[:3]  # f at nodes j+1..j-2
        mx, my, mz = (a + h24 * (((9.0 * b0 + 19.0 * b1) - 5.0 * b2) + b3) for a, b0, b1, b2, b3 in zip(m, *f))
        _check_cot_guard(abs(eps) * math.sqrt(mx * mx + my * my + mz * mz), t)
        out.append((mx, my, mz))
    return PurePath(n.grid, out)


# Array lanes hold vectors as ring rows (x, y, z, x, y) on axis 0, so that
# m x n is m[1:4] * n[2:5] - m[2:5] * n[1:4] and every vector operation is
# one numpy call over all components.


def solve_m_ode_batch(values: np.ndarray, epsilons, grid: TimeGrid) -> np.ndarray:
    """m(tau) of ``solve_m_ode`` for every (path, eps) lane, all stepped together.

    ``values`` has shape (paths, grid.n_nodes, 3), as for
    ``ordered_exp_batch``; returns shape (paths, len(epsilons), 3).  The
    lanes are columns of ring rows, so each vector operation of a step is
    one numpy call over all components and lanes, written into buffers
    made once per call.  Each right-hand side forms h on the series; lanes
    whose y^2 reached ``_H_SERIES_CUT2`` then take the scalar tangent
    branch (``_h_of_y2``) one by one, because ``np.tan`` and ``math.tan``
    differ in the last bit.  Each entry sees the products, sums and Horner
    order of ``_m_rhs`` and of the steps of ``solve_m_ode`` (two operands
    give the same bits in either order), so lane (p, e) has the bits of
    ``solve_m_ode(path p, epsilons[e]).values[-1]``.  The field is copied
    to the lanes one sample at a time, so the working set beyond
    ``values`` is O(lanes).

    Raises
    ------
    SingularCot
        At the first node where any lane enters the guard band or crossed
        2*pi; ``lane`` is (path index, eps) of the first such lane in row
        order.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1:] != (grid.n_nodes, 3):
        raise ValueError(f"values must have shape (paths, {grid.n_nodes}, 3), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("path values must be finite")
    eps = [float(e) for e in epsilons]
    if not all(math.isfinite(e * e) for e in eps):  # a NaN lane would hide the others' tangent branch
        raise ValueError("each epsilon must have a finite square")
    lanes = [(p, e) for p in range(len(values)) for e in eps]  # row order
    lane_eps = np.array([e for _, e in lanes])
    half_eps = 0.5 * lane_eps
    eps2 = lane_eps * lane_eps
    abs_eps = np.abs(lane_eps)
    eps2_max = float(eps2.max(initial=0.0))
    # 0-d arrays: a numpy call takes an array operand faster than a Python float, with the same bits
    c0, c1, c2, c3, c4 = (np.array(c) for c in _H_SERIES)
    h2, h6, h24, dt, two = (np.array(c) for c in (0.5 * grid.dt, grid.dt / 6.0, grid.dt / 24.0, grid.dt, 2.0))
    a55, a59, a37, a9, a19, a5 = (np.array(c) for c in (55.0, 59.0, 37.0, 9.0, 19.0, 5.0))
    # Local names: a step makes about 40 ufunc calls, and looking up np.<ufunc>
    # for each one costs about 5 % of the call.
    multiply, add, subtract = np.multiply, np.add, np.subtract
    # Every buffer and view is made once.  The field n and point x of a
    # right-hand side are one pair of rings, so completing both rings,
    # (n, x) * x and (n, x) * (|x|^2, x.n) are one call each.
    n_lanes = len(lanes)
    pair = np.zeros((2, 5, n_lanes))
    n, x = pair
    n_by_path = n[:3].reshape(3, len(values), len(eps))
    pair_head = pair[:, :2]
    pair_tail = pair[:, 3:]
    n_and_x = pair[:, :3]
    n_xyz = n[:3]
    n_yzx = n[1:4]
    n_zxy = n[2:5]
    x_xyz = x[:3]
    x_yzx = x[1:4]
    x_zxy = x[2:5]
    prods = np.empty((2, 3, n_lanes))
    n_prod, x_prod = prods
    prod_x, prod_y, prod_z = prods.swapaxes(0, 1)
    dots = np.empty((2, n_lanes))  # (x.n, |x|^2)
    x2 = dots[1]
    x2_then_xn = dots[::-1, None]
    m = np.zeros((3, n_lanes))
    m_flat = m.reshape(-1)
    f = list(np.empty((4, 3, n_lanes)))  # f at the last four nodes, newest first
    k2, k3, k4 = np.empty((3, 3, n_lanes))
    c = np.empty((3, n_lanes))
    w = np.empty((3, n_lanes))
    y2 = np.empty(n_lanes)
    h = np.empty(n_lanes)

    def rhs(sample, out):
        """``_m_rhs`` of every lane into ``out``, at the point in x and the field ``sample`` (3, paths)."""
        n_by_path[...] = sample[:, :, None]
        pair_tail[...] = pair_head
        multiply(x_yzx, n_zxy, c)
        subtract(c, multiply(x_zxy, n_yzx, w), c)  # x cross n
        multiply(n_and_x, x_xyz, prods)  # (n x, x x), summed to (x.n, |x|^2)
        add(add(prod_x, prod_y, dots), prod_z, dots)
        multiply(eps2, x2, y2)
        add(multiply(y2, c4, h), c3, h)  # _h_of_y2: the series, then the tangent branch past the cut
        for coef in (c2, c1, c0):
            add(multiply(h, y2, h), coef, h)
        # "not <": a NaN lane must not hide the others; an overflowed lane keeps its series value
        if not np.maximum.reduce(y2, None, initial=0.0) < _H_SERIES_CUT2:
            far = (y2 >= _H_SERIES_CUT2) & (y2 < math.inf)
            h[far] = [_h_of_y2(v) for v in y2[far].tolist()]
        multiply(h, eps2, h)
        subtract(n_xyz, multiply(c, half_eps, c), c)
        multiply(n_and_x, x2_then_xn, prods)  # (n |x|^2, x (x.n))
        add(c, multiply(subtract(x_prod, n_prod, w), h, w), out)

    def guard(t):
        """``_check_cot_guard`` of every lane's m at node t, as ``solve_m_ode`` checks it."""
        # eps2_max times the sum of all lanes' |m|^2 bounds each lane's y^2, and the
        # guard acts only past y = pi; a NaN sum does not return.
        if eps2_max * np.dot(m_flat, m_flat) < math.pi * math.pi:
            return
        y = abs_eps * np.sqrt((m[0] * m[0] + m[1] * m[1]) + m[2] * m[2])
        for i in np.flatnonzero(y > math.pi):
            _check_cot_guard(float(y[i]), t, lanes[i])

    v = values.transpose(1, 2, 0)  # (n_nodes, 3, paths)
    ts = grid.nodes.tolist()
    start = min(_START_STEPS, grid.n_steps)
    for j, mid in enumerate(_interval_midpoints(v, 0, start)):  # RK4
        x_xyz[...] = m
        rhs(v[j], f[0])
        add(m, multiply(f[0], h2, w), x_xyz)
        rhs(mid, k2)
        add(m, multiply(k2, h2, w), x_xyz)
        rhs(mid, k3)
        add(m, multiply(k3, dt, w), x_xyz)
        rhs(v[j + 1], k4)
        add(f[0], multiply(add(k2, k3, w), two, w), w)  # m += h6 (k1 + 2 (k2 + k3) + k4)
        add(m, multiply(add(w, k4, w), h6, w), m)
        guard(ts[j + 1])
        f.insert(0, f.pop())
    if grid.n_steps > start:
        x_xyz[...] = m
        rhs(v[start], f[0])
    for j in range(start, grid.n_steps):  # Adams, PEC
        f0, f1, f2, f3 = f
        subtract(multiply(f0, a55, x_xyz), multiply(f1, a59, w), x_xyz)  # p into x
        add(x_xyz, multiply(f2, a37, w), x_xyz)
        subtract(x_xyz, multiply(f3, a9, w), x_xyz)
        add(m, multiply(x_xyz, h24, x_xyz), x_xyz)
        rhs(v[j + 1], f3)  # f_{j+1} takes the buffer of f_{j-3}
        add(multiply(f3, a9, w), multiply(f0, a19, c), w)  # m += (dt/24)(9 f_{j+1} + 19 f_j - 5 f_{j-1} + f_{j-2})
        subtract(w, multiply(f1, a5, c), w)
        add(w, f2, w)
        add(m, multiply(w, h24, w), m)
        guard(ts[j + 1])
        f = [f3, f0, f1, f2]
    return m.T.reshape(len(values), len(eps), 3)


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
