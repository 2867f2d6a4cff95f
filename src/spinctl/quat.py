"""Quaternion algebra: the arithmetic substrate for rotations, controls and noise.

Scalar types (`Quat`, `PureQuat`, `UnitQuat`) are immutable and validated on
construction.  The module also exposes vectorized helpers operating on numpy
arrays of shape (..., 4) in (w, x, y, z) order, or (..., 3) for pure
quaternions; these power the batched inner loops elsewhere in the package.
Ordered products of step quaternions along axis -2 exist once, here, on two
kernels because their callers pull apart.  `qprefix` returns every prefix
(Hillis-Steele doubling) on complex pairs of a C-ordered copy, 8 complex
ufuncs a pass instead of `qmul_wxyz`'s 28 real ones: the solver's chain runs
it per objective evaluation on 128-2,048 rows, where the cost is per call.
`qproduct` returns only the total (tree reduction) by `qmul_wxyz` in its
input's memory order: the Monte Carlo path passes component-major steps,
memory (4, n, paths) viewed as (paths, n, 4), so every ufunc runs on
contiguous rows of paths, where complex pairs measured slower.
The rotation-vector calculus of the solver and of `magnus.n_of_m` lives here
too: `vee`, the axial vector of B - B^T, and `jl_transpose_apply`, the
transposed left Jacobian of the exponential map.

Conventions: the basis satisfies e_i e_j = -delta_ij + eps_ijk e_k, a unit
quaternion u rotates a pure quaternion p via u p conj(u), and composing
rotations multiplies the later rotation on the left (u_total = u2 u1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousAxis

__all__ = [
    "Quat",
    "PureQuat",
    "UnitQuat",
    "E1",
    "E2",
    "E3",
    "qmul",
    "umul",
    "qconj",
    "qdot",
    "qwedge",
    "qnorm",
    "qexp",
    "qlog",
    "rotate",
    "qmul_wxyz",
    "cross3",
    "qexp_vec",
    "qprefix",
    "qproduct",
    "quat_to_matrix",
    "vee",
    "jl_transpose_apply",
]

_UNIT_TOL = 1e-12
# Below this angle sin|p|/|p| switches to its Taylor series (controls near
# zero occur at the infinitely-stiff-constraint limit).
_EXP_SERIES_CUT = 1e-6


def _check_finite(*comps):
    for c in comps:
        if not math.isfinite(c):
            raise ValueError("quaternion component is not finite")


@dataclass(frozen=True)
class Quat:
    """General quaternion w + x e1 + y e2 + z e3."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_finite(self.w, self.x, self.y, self.z)

    def wxyz(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


@dataclass(frozen=True)
class PureQuat:
    """Quaternion with identically zero scalar part; behaves like a 3-vector."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_finite(self.x, self.y, self.z)

    def wxyz(self) -> tuple[float, float, float, float]:
        return (0.0, self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(v) -> "PureQuat":
        x, y, z = (float(c) for c in v)
        return PureQuat(x, y, z)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


@dataclass(frozen=True)
class UnitQuat:
    """Modulus-one quaternion representing a rotation."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        _check_finite(self.w, self.x, self.y, self.z)
        n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        if abs(n - 1.0) > _UNIT_TOL:
            raise ValueError(f"not a unit quaternion: |q| = {n!r}")

    @staticmethod
    def normalized(w: float, x: float, y: float, z: float) -> "UnitQuat":
        n = math.sqrt(w * w + x * x + y * y + z * z)
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("cannot normalize a zero or non-finite quaternion")
        return UnitQuat(w / n, x / n, y / n, z / n)

    def wxyz(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


E1 = PureQuat(1.0, 0.0, 0.0)
E2 = PureQuat(0.0, 1.0, 0.0)
E3 = PureQuat(0.0, 0.0, 1.0)


def _wxyz(q) -> tuple[float, float, float, float]:
    """Coerce Quat/PureQuat/UnitQuat/real into component form."""
    if isinstance(q, (Quat, PureQuat, UnitQuat)):
        return q.wxyz()
    if isinstance(q, (int, float)):
        return (float(q), 0.0, 0.0, 0.0)
    raise TypeError(f"not a quaternion: {type(q).__name__}")


def _mul4(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw + az * bx - ax * bz,
        aw * bz + az * bw + ax * by - ay * bx,
    )


def qmul(p, q) -> Quat:
    """Geometric quaternion product p q (bilinear, non-commutative)."""
    return Quat(*_mul4(_wxyz(p), _wxyz(q)))


def umul(u2: UnitQuat, u1: UnitQuat) -> UnitQuat:
    """Compose rotations: u1 first, then u2.  Result is renormalized."""
    return UnitQuat.normalized(*_mul4(u2.wxyz(), u1.wxyz()))


def qconj(q):
    """Quaternion conjugate: scalar part kept, vector part negated.

    Preserves the input's type; satisfies conj(p q) = conj(q) conj(p).
    """
    if isinstance(q, PureQuat):
        return PureQuat(-q.x, -q.y, -q.z)
    if isinstance(q, UnitQuat):
        return UnitQuat(q.w, -q.x, -q.y, -q.z)
    w, x, y, z = _wxyz(q)
    return Quat(w, -x, -y, -z)


def qdot(p, q) -> float:
    """Symmetric dot product, the scalar part of (p conj(q) + q conj(p))/2.

    On pure quaternions this is the Euclidean 3-vector dot product.
    """
    pw, px, py, pz = _wxyz(p)
    qw, qx, qy, qz = _wxyz(q)
    return pw * qw + px * qx + py * qy + pz * qz


def qwedge(p, q) -> PureQuat:
    """Antisymmetric wedge product (pq - qp)/2; the cross product on pure inputs."""
    a = _mul4(_wxyz(p), _wxyz(q))
    b = _mul4(_wxyz(q), _wxyz(p))
    # Scalar parts cancel identically.
    return PureQuat(0.5 * (a[1] - b[1]), 0.5 * (a[2] - b[2]), 0.5 * (a[3] - b[3]))


def qnorm(q) -> float:
    """Quaternion modulus |q| = sqrt(q conj(q))."""
    w, x, y, z = _wxyz(q)
    return math.sqrt(w * w + x * x + y * y + z * z)


def qexp(p: PureQuat) -> UnitQuat:
    """Exponential of a pure quaternion: cos|p| + sin|p| p/|p|."""
    x, y, z = p.x, p.y, p.z
    theta = math.sqrt(x * x + y * y + z * z)
    if theta < _EXP_SERIES_CUT:
        t2 = theta * theta
        s = 1.0 - t2 / 6.0 + t2 * t2 / 120.0  # sin(theta)/theta
        return UnitQuat.normalized(1.0 - t2 / 2.0 + t2 * t2 / 24.0, s * x, s * y, s * z)
    s = math.sin(theta) / theta
    return UnitQuat.normalized(math.cos(theta), s * x, s * y, s * z)


def qlog(u: UnitQuat) -> PureQuat:
    """Principal logarithm of a unit quaternion, with |log(u)| <= pi.

    Raises
    ------
    AmbiguousAxis
        If u = -1 (rotation angle pi through the exponent, so the axis is
        undefined); the caller must supply a convention axis itself.
    """
    vn = math.sqrt(u.x**2 + u.y**2 + u.z**2)
    if vn < _UNIT_TOL:
        if u.w < 0.0:
            raise AmbiguousAxis("log(-1) is ambiguous: axis undefined at angle pi")
        return PureQuat(0.0, 0.0, 0.0)
    angle = math.atan2(vn, u.w)  # in (0, pi]
    f = angle / vn
    return PureQuat(f * u.x, f * u.y, f * u.z)


def rotate(u: UnitQuat, p: PureQuat) -> PureQuat:
    """Rotate a pure quaternion: u p conj(u).  Norm-preserving."""
    a = _mul4(u.wxyz(), p.wxyz())
    w, x, y, z = _mul4(a, (u.w, -u.x, -u.y, -u.z))
    # Scalar part vanishes up to rounding for unit u.
    return PureQuat(x, y, z)


# ---------------------------------------------------------------------------
# Vectorized array helpers.  Shapes: quaternions (..., 4) as (w, x, y, z),
# pure quaternions (..., 3).  No validation: callers own the invariants.
# ---------------------------------------------------------------------------


# Row k of a b, term by term and left to right (w = aw*bw - ax*bx - ay*by - az*bz).
_QMUL_ROWS = (
    (0, 0, (np.subtract, 1, 1), (np.subtract, 2, 2), (np.subtract, 3, 3)),
    (0, 1, (np.add, 1, 0), (np.add, 2, 3), (np.subtract, 3, 2)),
    (0, 2, (np.add, 2, 0), (np.add, 3, 1), (np.subtract, 1, 3)),
    (0, 3, (np.add, 3, 0), (np.add, 1, 2), (np.subtract, 2, 1)),
)


def qmul_wxyz(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Componentwise-batched quaternion product of (..., 4) arrays, broadcasting.

    The real product kernel of ``qproduct``: one ufunc per term into the
    components of ``out`` (aliasing neither factor), in the operands' memory
    order.  ``qprefix`` runs on complex pairs instead (see the module notes).
    """
    if out is None:
        out = np.empty(np.broadcast(a, b).shape)
    ac, bc = [a[..., k] for k in range(4)], [b[..., k] for k in range(4)]
    tmp = np.empty_like(out[..., 0])
    for k, (i, j, *terms) in enumerate(_QMUL_ROWS):
        acc = np.multiply(ac[i], bc[j], out[..., k])
        for op, i, j in terms:
            op(acc, np.multiply(ac[i], bc[j], tmp), acc)
    return out


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of (..., 3) arrays along the last axis, broadcasting.

    Component-wise, with the same products and differences as ``np.cross``
    (so the same bits), without its axis bookkeeping, which dominates on
    small arrays.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def qexp_vec(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched exponential of pure quaternions (..., 3) -> unit (..., 4).

    ``out`` (..., 4) receives the result; ``v`` may be ``out[..., 1:]``
    itself, so a caller can build the exponents in place.  Temporaries are
    scalar fields (...,), a quarter of the result each.
    """
    v = np.asarray(v, dtype=float)
    if out is None:
        out = np.empty(v.shape[:-1] + (4,))
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    theta, s = np.empty_like(v0), np.empty_like(v0)
    np.multiply(v0, v0, out=theta)
    theta += v1 * v1
    theta += v2 * v2  # the order of np.sum over a length-3 axis
    np.sqrt(theta, out=theta)
    small = theta < _EXP_SERIES_CUT
    with np.errstate(invalid="ignore"):
        np.sin(theta, out=s)
    np.divide(s, theta, out=s, where=~small)
    if small.any():
        t2 = theta[small] * theta[small]
        s[small] = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    np.cos(theta, out=out[..., 0])
    np.multiply(v, s[..., None], out=out[..., 1:])
    return out


def _normalize_wxyz(a: np.ndarray) -> np.ndarray:
    return a / np.sqrt(np.sum(a * a, axis=-1, keepdims=True))


def qprefix(steps: np.ndarray) -> np.ndarray:
    """Ordered prefix products of (..., n, 4) step quaternions along axis -2.

    Returns (..., n + 1, 4): row 0 is the identity and row k is
    s_{k-1} ... s_1 s_0 (later factors on the left).  Products are
    associative, so Hillis-Steele doubling needs ceil(log2 n) vectorized
    passes of (a1 + b1 e2)(a2 + b2 e2) = (a1 a2 - b1 conj(b2)) + (a1 b2 +
    b1 conj(a2)) e2, in place on a copy, then one renormalization.
    """
    acc = np.array(steps, dtype=float, order="C")
    pair = acc.view(np.complex128)  # q = alpha + beta e2, alpha = w + x i, beta = y + z i
    alpha, beta = pair[..., 0], pair[..., 1]
    shift = 1
    while shift < acc.shape[-2]:
        a1, b1, a2, b2 = alpha[..., shift:], beta[..., shift:], alpha[..., :-shift], beta[..., :-shift]
        b_new = a1 * b2 + b1 * a2.conj()
        a1[...] = a1 * a2 - b1 * b2.conj()
        b1[...] = b_new
        shift *= 2
    ident = np.zeros(acc.shape[:-2] + (1, 4))
    ident[..., 0] = 1.0
    return np.concatenate([ident, _normalize_wxyz(acc)], axis=-2)


def qproduct(steps: np.ndarray) -> np.ndarray:
    """Ordered total s_{n-1} ... s_1 s_0 of (..., n, 4) step quaternions.

    Pairwise tree reduction along axis -2 (later factors on the left), in
    the memory order of ``steps``, so the working set halves every pass;
    renormalized once at the end.  Needs n >= 1; returns (..., 4).
    """
    acc = np.asarray(steps, dtype=float)
    while acc.shape[-2] > 1:
        half, odd = divmod(acc.shape[-2], 2)
        nxt = np.empty_like(acc[..., : half + odd, :])
        qmul_wxyz(acc[..., 1::2, :], acc[..., 0:-1:2, :], out=nxt[..., :half, :])
        if odd:
            nxt[..., -1, :] = acc[..., -1, :]
        acc = nxt
    return _normalize_wxyz(acc[..., 0, :])


def quat_to_matrix(u: np.ndarray) -> np.ndarray:
    """Rotation matrices R with R @ p = components of u p conj(u); (..., 3, 3)."""
    w, x, y, z = u[..., 0], u[..., 1], u[..., 2], u[..., 3]
    out = np.empty(u.shape[:-1] + (3, 3), dtype=float)
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def vee(b: np.ndarray) -> np.ndarray:
    """vee(B - B^T) for a batch of 3x3 matrices."""
    return np.stack(
        [b[..., 2, 1] - b[..., 1, 2], b[..., 0, 2] - b[..., 2, 0], b[..., 1, 0] - b[..., 0, 1]],
        axis=-1,
    )


def jl_transpose_apply(phi: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Transposed left Jacobian of the exponential map, J_l(phi)^T vec, per row of (k, 3) arrays.

    J_l(phi)^T = J_l(-phi).  Below |phi| = 1e-4 the coefficients take
    their Taylor series.
    """
    theta2 = np.sum(phi * phi, axis=1)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(small, 0.5 - theta2 / 24.0,
                      (1.0 - np.cos(theta)) / np.where(theta2 == 0, 1.0, theta2))
        c2 = np.where(
            small,
            1.0 / 6.0 - theta2 / 120.0,
            (theta - np.sin(theta))
            / np.where(theta2 == 0, 1.0, theta2 * np.where(theta == 0, 1.0, theta)),
        )
    # J_l(phi)^T v = v - c1 phi x v + c2 phi x (phi x v)
    pxv = cross3(phi, vec)
    return vec - c1[:, None] * pxv + c2[:, None] * cross3(phi, pxv)
