"""Control-geometry kinematics: rotating triads, control recovery, targets.

The degrees of freedom are three orthonormal vectors E_1, E_2, E_3 (the
rotating triad) that evolve by rigid rotation, dE_i/dt = E_i ^ Omega.  The
triad is stored redundantly (three vectors per node) so that rigidity is a
directly testable invariant; it is propagated as unit quaternions (one
ordered product of the step exponentials) and converted to vectors once.

Component conventions: a control history is described by the triple
omega^i(t), which simultaneously gives the lab-frame field omega(t) in the
static basis and the rotating-frame field Omega(t) along the triad, since
omega^i = Omega . E_i = omega . e_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AxisRequired
from .magnus import PurePath, TimeGrid
from .quat import (
    PureQuat,
    UnitQuat,
    cross3,
    qexp,
    qexp_vec,
    qprefix,
    quat_to_matrix,
    vee,
)

__all__ = [
    "TriadPath",
    "ControlPath",
    "TargetRotation",
    "propagate_triad",
    "omega_from_triad",
    "boundary_triad",
    "drift_for_target",
    "drift_control",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TriadPath:
    """Time-sampled rigid rotating triad.

    ``values[k, i, :]`` holds the static-basis components of E_i(t_k); row i
    of ``values[k]`` is therefore the i-th triad vector.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="C")  # a copy: the caller's array stays the caller's
        if v.shape != (self.grid.n_nodes, 3, 3):
            raise ValueError(f"triad values must have shape ({self.grid.n_nodes}, 3, 3)")
        if not np.all(np.isfinite(v)):
            raise ValueError("triad values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def E(self, i: int) -> np.ndarray:
        """Components of E_i over all nodes, shape (n_nodes, 3)."""
        return self.values[:, i, :]

    def orthonormality_defect(self) -> float:
        """Max deviation of E_i . E_j from delta_ij over all nodes."""
        g = np.einsum("kic,kjc->kij", self.values, self.values)
        return float(np.max(np.abs(g - np.eye(3))))

    def handedness_defect(self) -> float:
        """Max deviation of E_1 ^ E_2 from E_3 over all nodes."""
        c = cross3(self.values[:, 0, :], self.values[:, 1, :])
        return float(np.max(np.abs(c - self.values[:, 2, :])))

    def validate(self) -> None:
        """Raise ValueError unless the triad is orthonormal and right-handed to within 1e-9."""
        if self.orthonormality_defect() > 1e-9:
            raise ValueError("triad is not orthonormal within tolerance")
        if self.handedness_defect() > 1e-9:
            raise ValueError("triad is not right-handed within tolerance")


@dataclass(frozen=True)
class ControlPath:
    """Control history in both frames.

    ``omega_lab`` holds the component triple omega^i(t) (the lab-frame field
    in the static basis); ``omega_rot`` holds the static-basis components of
    the rotating-frame field Omega(t) = omega^i E_i.  Their moduli agree at
    every node because the two are related by a rotation.
    """

    grid: TimeGrid
    omega_rot: PurePath
    omega_lab: PurePath

    def __post_init__(self):
        if self.omega_rot.grid != self.grid or self.omega_lab.grid != self.grid:
            raise ValueError("control paths must share the control grid")
        a = np.sqrt(np.sum(self.omega_rot.values**2, axis=1))
        b = np.sqrt(np.sum(self.omega_lab.values**2, axis=1))
        scale = max(1.0, float(np.max(a)))
        if float(np.max(np.abs(a - b))) > 1e-9 * scale:
            raise ValueError("|Omega(t)| and |omega(t)| disagree: frames inconsistent")


def propagate_triad(omega_rot: PurePath) -> TriadPath:
    """Integrate the rigid rotation generated by the component triple omega^i(t).

    Starts from the static triad E_i(0) = e_i and composes one incremental
    unit quaternion per step, u_{k+1} = u_k exp(-(dt/2) omega(t*)), with
    midpoint field values.  The right-multiplied chain is the conjugate of
    the left-multiplied prefix p_k of conj(s_j) = exp(+(dt/2) omega(t*)),
    taken by ``qprefix`` and renormalized, so orthonormality holds to
    rounding over arbitrarily many steps.
    """
    grid = omega_rot.grid
    v = omega_rot.values
    # Row i of the triad matrix is E_i = u e_i conj(u), i.e. R(u)^T = R(conj u) = R(p).
    return TriadPath(grid, quat_to_matrix(qprefix(qexp_vec(0.25 * grid.dt * (v[:-1] + v[1:])))))


def omega_from_triad(triad: TriadPath) -> ControlPath:
    """Recover the control history from a triad by central differencing.

    omega^i(t) = (1/2) eps^{ijk} E_j(t) . dE_k(t)/dt, with second-order
    one-sided stencils at the endpoints; the rotating-frame field follows as
    Omega = omega^i E_i.
    """
    v = triad.values
    dv = np.gradient(v, triad.grid.dt, axis=0, edge_order=2)
    a = np.einsum("kjc,klc->kjl", v, dv)  # A_jl = E_j . dE_l
    lab = -0.5 * vee(a)
    rot = np.einsum("ki,kic->kc", lab, v)
    return ControlPath(triad.grid, PurePath(triad.grid, rot), PurePath(triad.grid, lab))


@dataclass(frozen=True)
class TargetRotation:
    """Desired net rotation: axis-angle exponent, unit quaternion, winding sector.

    The principal angle is kept in [0, 2*pi); whole turns supplied through
    the angle are folded into the winding count.  Quaternion sign is
    irrelevant to the induced triad boundary conditions.
    """

    q_T: PureQuat
    u_T: UnitQuat
    winding: int
    axis: tuple[float, float, float] | None

    @staticmethod
    def from_axis_angle(axis, angle: float, winding: int = 0) -> "TargetRotation":
        angle = float(angle)
        if not math.isfinite(angle) or angle < 0.0:
            raise ValueError("angle must be finite and >= 0")
        if not (abs(winding) < math.inf and int(winding) == winding):
            raise ValueError(f"winding must be an integer, got {winding!r}")
        turns = math.floor(angle / _TWO_PI)
        theta = angle - _TWO_PI * turns
        winding = int(winding) + turns
        if abs(winding) >= 2**63:
            raise ValueError("winding plus the angle's full turns must be < 2**63 in magnitude")
        if math.ulp(angle) > 1e-9:  # angle >= 2**23 rad: its fold into [0, 2*pi) keeps no sub-turn digits
            raise ValueError("angle must be < 2**23 rad, so that a float resolves it to 1e-9 rad")
        ax = np.asarray(axis, dtype=float) if axis is not None else None
        if ax is not None:
            nrm = float(np.linalg.norm(ax))
            if nrm == 0.0:
                ax = None
            else:
                ax = ax / nrm
        if theta > 0.0 and ax is None:
            raise ValueError("a nonzero rotation angle requires an axis")
        if ax is None:
            q = PureQuat(0.0, 0.0, 0.0)
            u = UnitQuat(1.0, 0.0, 0.0, 0.0)
            return TargetRotation(q, u, winding, None)
        q = PureQuat(theta * ax[0], theta * ax[1], theta * ax[2])
        u = qexp(PureQuat(0.5 * q.x, 0.5 * q.y, 0.5 * q.z))
        return TargetRotation(q, u, winding, (float(ax[0]), float(ax[1]), float(ax[2])))

    @staticmethod
    def from_drift(omega_d, tau: float) -> "TargetRotation":
        """Target reached by a constant field omega_d applied for time tau."""
        w = np.asarray(omega_d, dtype=float)
        angle = float(np.linalg.norm(w)) * tau
        axis = w / np.linalg.norm(w) if angle > 0.0 else None
        return TargetRotation.from_axis_angle(axis, angle, winding=0)

    @property
    def theta(self) -> float:
        """Principal rotation angle in [0, 2*pi)."""
        return self.q_T.norm()


def boundary_triad(target: TargetRotation) -> tuple[np.ndarray, np.ndarray]:
    """Triad boundary values implied by the target: rows are E_i components.

    The initial triad is static; the final one is the static triad
    conjugated by the target, E_i(tau) = conj(u_T) e_i u_T, row i of the
    rotation matrix of u_T.  Both signs of u_T give the same result.
    """
    return np.eye(3), quat_to_matrix(np.array([target.u_T.wxyz()]))[0]


def drift_for_target(target: TargetRotation, tau: float) -> PureQuat:
    """Constant control reaching the target in the requested winding sector.

    Returns Omega_D = ((theta + 2*pi*winding)/tau) * axis; propagating it
    for the transit time meets both triad boundary conditions exactly.

    Raises
    ------
    AxisRequired
        If the principal angle vanishes and the winding is nonzero but the
        target carries no axis (a full-turn loop needs a direction).
    """
    if tau <= 0.0 or not math.isfinite(tau):
        raise ValueError("tau must be positive and finite")
    theta = target.theta
    total = theta + _TWO_PI * target.winding
    if total == 0.0:
        return PureQuat(0.0, 0.0, 0.0)
    if target.axis is None:
        raise AxisRequired("winding a zero-angle target requires an explicit axis")
    rate = total / tau
    ax = target.axis
    return PureQuat(rate * ax[0], rate * ax[1], rate * ax[2])


def drift_control(target: TargetRotation, grid: TimeGrid) -> ControlPath:
    """Constant-field control history for the target's drift solution."""
    om = drift_for_target(target, grid.tau)
    comps = np.broadcast_to(om.as_array(), (grid.n_nodes, 3)).copy()
    lab = PurePath(grid, comps)
    triad = propagate_triad(lab)
    rot = np.einsum("ki,kic->kc", comps, triad.values)
    return ControlPath(grid, PurePath(grid, rot), lab)
