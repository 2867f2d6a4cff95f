import math

import numpy as np
import pytest

from spinctl.errors import AmbiguousAxis
from spinctl.quat import (
    E1,
    E2,
    E3,
    PureQuat,
    Quat,
    UnitQuat,
    cross3,
    jl_transpose_apply,
    qconj,
    qdot,
    qexp,
    qlog,
    qmul,
    qnorm,
    qwedge,
    rotate,
    umul,
    qmul_wxyz,
    qexp_vec,
    qprefix,
    qproduct,
    quat_to_matrix,
    vee,
)
from spinctl.quat import _EXP_SERIES_CUT

from conftest import quat_tuple

BASIS = (E1, E2, E3)
EPSILON = np.zeros((3, 3, 3))
EPSILON[0, 1, 2] = EPSILON[1, 2, 0] = EPSILON[2, 0, 1] = 1.0
EPSILON[0, 2, 1] = EPSILON[2, 1, 0] = EPSILON[1, 0, 2] = -1.0


def random_quat(rng):
    return Quat(*rng.normal(size=4))


def random_pure(rng):
    return PureQuat(*rng.normal(size=3))


def random_unit(rng):
    return UnitQuat.normalized(*rng.normal(size=4))


class TestMultiplicationTable:
    def test_basis_products(self):
        # e_i e_j = -delta_ij + eps_ijk e_k, exactly in float arithmetic
        for i, ei in enumerate(BASIS):
            for j, ej in enumerate(BASIS):
                prod = qmul(ei, ej)
                expect = np.array(
                    [-(i == j), EPSILON[i, j, 0], EPSILON[i, j, 1], EPSILON[i, j, 2]]
                )
                assert np.array_equal(quat_tuple(prod), expect)

    def test_identity_element(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            q = random_quat(rng)
            assert qmul(1.0, q) == q
            assert qmul(q, 1.0) == q

    def test_associativity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p, q, r = (random_quat(rng) for _ in range(3))
            lhs = qmul(qmul(p, q), r)
            rhs = qmul(p, qmul(q, r))
            np.testing.assert_allclose(quat_tuple(lhs), quat_tuple(rhs), atol=1e-12)

    def test_modulus_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            p, q = random_quat(rng), random_quat(rng)
            assert abs(qnorm(qmul(p, q)) - qnorm(p) * qnorm(q)) < 1e-12


class TestConjugate:
    def test_basis(self):
        assert qconj(E2) == PureQuat(0.0, -1.0, 0.0)
        assert qconj(Quat(1.0, 0.0, 0.0, 0.0)) == Quat(1.0, -0.0, -0.0, -0.0)
        assert qconj(UnitQuat(0.0, 0.0, 1.0, 0.0)) == UnitQuat(0.0, -0.0, -1.0, -0.0)
        # the type is kept; a UnitQuat is also a Quat, so its case must come first
        for q in (E2, Quat(1.0, 2.0, 3.0, 4.0), UnitQuat(0.0, 0.6, 0.0, 0.8)):
            assert type(qconj(q)) is type(q)

    def test_antihomomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p, q = random_quat(rng), random_quat(rng)
            lhs = qconj(qmul(p, q))
            rhs = qmul(qconj(q), qconj(p))
            np.testing.assert_allclose(quat_tuple(lhs), quat_tuple(rhs), atol=1e-14)


class TestDotWedge:
    def test_dot_basis(self):
        assert qdot(E1, E1) == 1.0
        assert qdot(E1, E2) == 0.0

    def test_dot_linearity(self):
        p = Quat(0.0, 2.0, 3.0, 0.0)
        assert qdot(p, E2) == 3.0

    def test_wedge_cross(self):
        assert quat_tuple(qwedge(E1, E2))[1:].tolist() == [0.0, 0.0, 1.0]

    def test_wedge_antisymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = random_pure(rng)
            assert qwedge(p, p) == PureQuat(0.0, 0.0, 0.0)

    def test_product_subsumes_dot_and_wedge(self):
        # pq = -p.q + p^q on pure quaternions
        rng = np.random.default_rng(6)
        for _ in range(200):
            p, q = random_pure(rng), random_pure(rng)
            prod = qmul(p, q)
            w = qwedge(p, q)
            np.testing.assert_allclose(
                quat_tuple(prod),
                np.array([-qdot(p, q), w.x, w.y, w.z]),
                atol=1e-14,
            )


class TestExpLog:
    def test_exp_zero(self):
        assert qexp(PureQuat(0.0, 0.0, 0.0)) == UnitQuat(1.0, 0.0, 0.0, 0.0)

    def test_exp_quarter_turn(self):
        u = qexp(PureQuat(0.0, 0.0, math.pi / 2))
        np.testing.assert_allclose(quat_tuple(u), [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_exp_half_turn_is_minus_one(self):
        u = qexp(PureQuat(0.0, 0.0, math.pi))
        np.testing.assert_allclose(quat_tuple(u), [-1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_log_identity(self):
        assert qlog(UnitQuat(1.0, 0.0, 0.0, 0.0)) == PureQuat(0.0, 0.0, 0.0)

    def test_log_principal_branch(self):
        p = PureQuat(0.0, 0.3, 0.0)
        np.testing.assert_allclose(
            quat_tuple(qlog(qexp(p))), quat_tuple(p), atol=1e-14
        )

    def test_log_antipode_refuses(self):
        with pytest.raises(AmbiguousAxis):
            qlog(UnitQuat(-1.0, 0.0, 0.0, 0.0))

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            u = random_unit(rng)
            u2 = qexp(qlog(u))
            # exp(log(u)) reproduces u up to overall sign only at angle pi;
            # the principal branch keeps the sign here.
            np.testing.assert_allclose(quat_tuple(u2), quat_tuple(u), atol=1e-10)

    def test_small_angle_series(self):
        p = PureQuat(1e-9, -2e-9, 0.5e-9)
        u = qexp(p)
        np.testing.assert_allclose(quat_tuple(u)[1:], [1e-9, -2e-9, 0.5e-9], rtol=1e-12)


class TestRotate:
    def test_quarter_turn_about_z(self):
        u = qexp(PureQuat(0.0, 0.0, math.pi / 4))
        np.testing.assert_allclose(
            quat_tuple(rotate(u, E1))[1:], [0.0, 1.0, 0.0], atol=1e-15
        )

    def test_identity_rotation(self):
        rng = np.random.default_rng(8)
        p = random_pure(rng)
        assert rotate(UnitQuat(1.0, 0.0, 0.0, 0.0), p) == p

    def test_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            u1, u2 = random_unit(rng), random_unit(rng)
            p = random_pure(rng)
            lhs = rotate(umul(u2, u1), p)
            rhs = rotate(u2, rotate(u1, p))
            np.testing.assert_allclose(quat_tuple(lhs), quat_tuple(rhs), atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            u, p = random_unit(rng), random_pure(rng)
            assert abs(rotate(u, p).norm() - p.norm()) < 1e-12

    def test_dot_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            u = random_unit(rng)
            p, q = random_pure(rng), random_pure(rng)
            assert abs(qdot(rotate(u, p), rotate(u, q)) - qdot(p, q)) < 1e-12

    def test_axis_angle_closed_form(self):
        # u p conj(u) against cos(th) p + sin(th) axis^p + (1-cos th)(p - (axis.p)axis)
        rng = np.random.default_rng(12)
        for _ in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            theta = rng.uniform(0, 2 * math.pi)
            p = rng.normal(size=3)
            u = qexp(PureQuat(*(0.5 * theta * axis)))
            got = quat_tuple(rotate(u, PureQuat(*p)))[1:]
            expect = (
                math.cos(theta) * p
                + math.sin(theta) * np.cross(axis, p)
                + (1.0 - math.cos(theta)) * np.dot(axis, p) * axis
            )
            np.testing.assert_allclose(got, expect, atol=1e-12)


class TestStructuralInvariants:
    def test_pure_quat_scalar_part_is_structural(self):
        assert PureQuat(1.0, 2.0, 3.0).wxyz()[0] == 0.0

    def test_unit_quat_validates_modulus(self):
        with pytest.raises(ValueError, match="not a unit quaternion"):
            UnitQuat(1.0, 0.5, 0.0, 0.0)
        # a UnitQuat passes wherever a Quat does; equality still compares the types
        u = UnitQuat(1.0, 0.0, 0.0, 0.0)
        assert isinstance(u, Quat)
        assert u != Quat(1.0, 0.0, 0.0, 0.0)
        assert Quat(1.0, 0.0, 0.0, 0.0) != u
        assert u == UnitQuat.normalized(2.0, 0.0, 0.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Quat(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PureQuat(math.inf, 0.0, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            UnitQuat(math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            UnitQuat(1.0, 0.0, math.inf, 0.0)


class TestArrayHelpers:
    def test_batched_product_matches_scalar(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(40, 4))
        b = rng.normal(size=(40, 4))
        got = qmul_wxyz(a, b)
        for k in range(40):
            expect = quat_tuple(qmul(Quat(*a[k]), Quat(*b[k])))
            np.testing.assert_allclose(got[k], expect, atol=1e-14)

    def test_batched_exp_and_rotation_matrices(self):
        rng = np.random.default_rng(14)
        vecs = rng.normal(size=(60, 3))
        units = qexp_vec(vecs)
        mats = quat_to_matrix(units)
        probe = rng.normal(size=(60, 3))
        for k in range(60):
            expect = rotate(UnitQuat(*units[k]), PureQuat(*probe[k])).as_array()
            np.testing.assert_allclose(mats[k] @ probe[k], expect, atol=1e-12)
        for k in range(10):
            u = qexp(PureQuat(*vecs[k]))
            np.testing.assert_allclose(units[k], quat_tuple(u), atol=1e-14)


    @pytest.mark.parametrize("shape", [(3,), (511, 3), (5, 257, 3)])
    def test_exp_matches_reference_formula_bit_for_bit(self, shape):
        # the np.sum / np.where / concatenate form of the batched exponential
        def reference(v):
            theta = np.sqrt(np.sum(v * v, axis=-1))
            t2 = theta * theta
            small = theta < _EXP_SERIES_CUT
            with np.errstate(invalid="ignore", divide="ignore"):
                s = np.where(small, 1.0 - t2 / 6.0 + t2 * t2 / 120.0, np.sin(theta) / np.where(theta == 0.0, 1.0, theta))
            return np.concatenate([np.cos(theta)[..., None], s[..., None] * v], axis=-1)

        rng = np.random.default_rng(17)
        vecs = rng.normal(scale=0.7, size=shape) * rng.choice([1e-9, 1e-6, 1.0, 5.0], size=shape[:-1] + (1,))
        flat = vecs.reshape(-1, 3)
        flat[0] = 0.0
        flat[-1] = [1e-9, 0.0, 0.0]
        if len(flat) > 2:
            flat[1] = [0.0, 2e-7, 1e-7]
            flat[2] = [_EXP_SERIES_CUT, 0.0, 0.0]
        np.testing.assert_array_equal(qexp_vec(vecs), reference(vecs))

    def test_exp_in_place_matches_fresh(self):
        rng = np.random.default_rng(16)
        vecs = rng.normal(scale=0.7, size=(5, 257, 3))
        vecs[0, :3] = [[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0], [0.0, 2e-7, 1e-7]]
        out = np.empty((5, 257, 4))
        out[..., 1:] = vecs
        assert qexp_vec(out[..., 1:], out=out) is out
        np.testing.assert_array_equal(out, qexp_vec(vecs))
        np.testing.assert_array_equal(out[0, 0], [1.0, 0.0, 0.0, 0.0])
        assert qexp_vec(np.array([0.3, 0.0, 0.4])).shape == (4,)

    @pytest.mark.parametrize(
        "shape_a, shape_b",
        [((511, 3), (511, 3)), ((1, 1, 3), (4, 511, 3)), ((3,), (7, 3))],
    )
    def test_cross3_matches_numpy_bit_for_bit(self, shape_a, shape_b):
        rng = np.random.default_rng(15)
        a = rng.normal(size=shape_a)
        b = rng.normal(size=shape_b)
        np.testing.assert_array_equal(cross3(a, b), np.cross(a, b))


def left_fold(steps):
    """Every prefix s_{k-1} ... s_0 by the scalar, per-step-renormalized umul."""
    acc = UnitQuat(1.0, 0.0, 0.0, 0.0)
    out = [quat_tuple(acc)]
    for row in steps:
        acc = umul(UnitQuat(*row), acc)
        out.append(quat_tuple(acc))
    return np.array(out)


class TestOrderedProducts:
    """qprefix/qproduct against an independent scalar fold of umul."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 512, 513, 2048])
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_match_scalar_fold(self, n, batch):
        rng = np.random.default_rng(n)
        steps = qexp_vec(rng.normal(scale=0.5, size=batch + (n, 3)))
        flat = steps.reshape(-1, n, 4)
        expect = np.stack([left_fold(s) for s in flat]).reshape(batch + (n + 1, 4))

        prefix = qprefix(steps)
        total = qproduct(steps)
        assert prefix.shape == batch + (n + 1, 4)
        assert total.shape == batch + (4,)
        np.testing.assert_allclose(prefix, expect, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(total, expect[..., -1, :], rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(np.linalg.norm(prefix, axis=-1), 1.0, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(total, axis=-1), 1.0, rtol=0.0, atol=1e-14)


def stacked_product(a, b):
    """The expression-per-component, np.stack form of the batched product."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by + ay * bw + az * bx - ax * bz,
            aw * bz + az * bw + ax * by - ay * bx,
        ],
        axis=-1,
    )


def stacked_normalize(a):
    return a / np.sqrt(np.sum(a * a, axis=-1, keepdims=True))


def paired_scan(steps):
    """Doubling scan on complex pairs q = alpha + beta e2, fresh arrays per pass, renormalized once.

    alpha = w + x i and beta = y + z i, so (a1 + b1 e2)(a2 + b2 e2) is
    (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) e2.  numpy's complex
    multiply does not round like the real four-term expression, so this is
    the bit reference for ``qprefix``, not ``stacked_product``.
    """
    pair = np.ascontiguousarray(steps, dtype=float).view(complex)
    alpha, beta = pair[..., 0], pair[..., 1]
    shift = 1
    while shift < alpha.shape[-1]:
        a1, b1, a2, b2 = alpha[..., shift:], beta[..., shift:], alpha[..., :-shift], beta[..., :-shift]
        alpha, beta = (
            np.concatenate([alpha[..., :shift], a1 * a2 - b1 * np.conj(b2)], axis=-1),
            np.concatenate([beta[..., :shift], a1 * b2 + b1 * np.conj(a2)], axis=-1),
        )
        shift *= 2
    acc = np.stack([alpha, beta], axis=-1).view(float)
    ident = np.zeros(acc.shape[:-2] + (1, 4))
    ident[..., 0] = 1.0
    return np.concatenate([ident, stacked_normalize(acc)], axis=-2)


def stacked_tree(steps):
    """Pairwise tree reduction by ``stacked_product``, odd tails concatenated."""
    acc = np.asarray(steps, dtype=float)
    while acc.shape[-2] > 1:
        pairs = stacked_product(acc[..., 1::2, :], acc[..., 0:-1:2, :])
        if acc.shape[-2] % 2:
            pairs = np.concatenate([pairs, acc[..., -1:, :]], axis=-2)
        acc = pairs
    return stacked_normalize(acc[..., 0, :])


def component_major(a):
    """The values of ``a`` in reversed-axis memory: (4, n, paths) under a (paths, n, 4) view."""
    return np.asfortranarray(a)


class TestProductKernelBits:
    """The product kernel and tree reduction keep the np.stack form's bits, the scan the complex-pair form's, in every layout."""

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, component_major])
    def test_product_matches_stacked_form(self, layout):
        rng = np.random.default_rng(31)
        a = layout(rng.normal(size=(6, 33, 4)))
        b = layout(rng.normal(size=(6, 33, 4)))
        np.testing.assert_array_equal(qmul_wxyz(a, b), stacked_product(a, b))
        np.testing.assert_array_equal(qmul_wxyz(a[0, 0], b), stacked_product(a[0, 0], b))
        out = layout(np.empty((6, 33, 4)))
        assert qmul_wxyz(a, b, out=out) is out
        np.testing.assert_array_equal(out, stacked_product(a, b))

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, component_major])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 512, 513])
    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_scan_and_tree_match_stacked_form(self, n, batch, layout):
        rng = np.random.default_rng(100 + n)
        steps = layout(qexp_vec(rng.normal(scale=0.5, size=batch + (n, 3))))
        np.testing.assert_array_equal(qprefix(steps), paired_scan(steps))
        np.testing.assert_array_equal(qproduct(steps), stacked_tree(steps))

    def test_prefix_never_writes_its_input(self):
        # the passes write in place through a complex view of qprefix's own copy
        rng = np.random.default_rng(33)
        steps = qexp_vec(rng.normal(scale=0.5, size=(5, 129, 3)))
        larger = qexp_vec(rng.normal(scale=0.5, size=(300, 3)))
        for arg in (steps, component_major(steps), larger[:129], larger[7:300:2]):
            before = arg.copy()
            qprefix(arg)
            np.testing.assert_array_equal(arg.view(np.uint64), before.view(np.uint64))

    def test_exp_on_component_major_view_matches_c_order(self):
        rng = np.random.default_rng(32)
        vecs = rng.normal(scale=0.7, size=(9, 65, 3))
        vecs[0, :2] = [[0.0, 0.0, 0.0], [1e-9, 0.0, 0.0]]
        out = np.empty((9, 65, 4), order="F")
        out[..., 1:] = vecs
        qexp_vec(out[..., 1:], out=out)
        np.testing.assert_array_equal(out, qexp_vec(vecs))


def hat(w):
    """Skew matrix [w]^ with [w]^ v = w x v."""
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


class TestRotationVectorCalculus:
    def test_vee_of_skew_plus_symmetric(self):
        w = np.array([0.25, -1.5, 2.5])  # dyadic, so the symmetric part cancels exactly
        sym = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        np.testing.assert_array_equal(vee(hat(w) + sym), 2.0 * w)

    def test_jacobian_matches_rotation_derivative(self):
        # J_l(phi) delta = vee(dR R^T) / 2 along phi + h delta, and J_l(phi) = J_l(-phi)^T;
        # the angles sit on both sides of the 1e-4 series cut.
        rng = np.random.default_rng(41)
        axis = rng.normal(size=3)
        phi = np.array([0.0, 5e-5, 2e-4, 1.0, 3.0])[:, None] * (axis / np.linalg.norm(axis))
        delta = rng.normal(size=phi.shape)
        h = 1e-6

        def rot(p):
            return quat_to_matrix(qexp_vec(0.5 * p))

        dr = (rot(phi + h * delta) - rot(phi - h * delta)) @ np.swapaxes(rot(phi), -1, -2)
        np.testing.assert_allclose(jl_transpose_apply(-phi, delta), vee(dr) / (4.0 * h), rtol=0, atol=1e-8)
