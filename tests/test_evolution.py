import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from spinctl.errors import AxisRequired
from spinctl.evolution import (
    ControlPath,
    TargetRotation,
    TriadPath,
    boundary_triad,
    drift_control,
    drift_for_target,
    omega_from_triad,
    propagate_triad,
)
from spinctl.magnus import PurePath, TimeGrid, time_ordered_exp
from spinctl.quat import E1, E2, E3, PureQuat, cross3, qconj, qexp_vec, quat_to_matrix, rotate

from conftest import fourier_path, quat_tuple

COEFFS = [((0.9, -0.4, 0.2), (0.1, 0.8, -0.5)), ((-0.3, 0.2, 0.6), (0.4, -0.1, 0.3))]


class PowerPath(NamedTuple):
    """Instantaneous output power |Omega(t)|^2 and its half-integral."""

    grid: TimeGrid
    values: np.ndarray
    energy_output: float


def power_wedge(values: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """|Omega|^2 from (1/2) eps^{ijk} E_i . (dE_j ^ dE_k).

    The full index sum counts each cyclic triple twice, leaving the plain
    cyclic sum.
    """
    return (
        np.einsum("kc,kc->k", values[:, 0], cross3(rates[:, 1], rates[:, 2]))
        + np.einsum("kc,kc->k", values[:, 1], cross3(rates[:, 2], rates[:, 0]))
        + np.einsum("kc,kc->k", values[:, 2], cross3(rates[:, 0], rates[:, 1]))
    )


def power(obj: TriadPath | ControlPath) -> PowerPath:
    """Output power |Omega(t)|^2 per node and the energy output int |Omega|^2/2 dt.

    For a triad input the power is evaluated from the lower-order wedge form
    (1/2) eps^{ijk} E_i . (dE_j ^ dE_k) with central-difference rates; for a
    control input it is simply the squared modulus of the field.
    """
    if isinstance(obj, ControlPath):
        vals = np.sum(obj.omega_rot.values**2, axis=1)
    else:
        vals = power_wedge(obj.values, np.gradient(obj.values, obj.grid.dt, axis=0, edge_order=2))
    energy = cumulative_trapezoid(0.5 * vals, dx=obj.grid.dt, axis=0, initial=0)[-1]
    return PowerPath(obj.grid, vals, float(energy))


def power_antisym(values: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """|Omega|^2 from the antisymmetrized quadratic form in E_i . dE_j (an oracle for the wedge form)."""
    a = np.einsum("kic,kjc->kij", values, rates)
    anti = a - np.swapaxes(a, 1, 2)
    return 0.125 * np.einsum("kij,kij->k", anti, anti)


def constant_control(grid, vec):
    return PurePath(grid, np.broadcast_to(np.asarray(vec, float), (grid.n_nodes, 3)).copy())


class TestPropagateTriad:
    def test_zero_field_is_static(self):
        grid = TimeGrid(1.0, 64)
        triad = propagate_triad(constant_control(grid, (0.0, 0.0, 0.0)))
        np.testing.assert_array_equal(triad.values, np.broadcast_to(np.eye(3), (65, 3, 3)))

    def test_constant_axis_precession(self):
        w = 3.0
        grid = TimeGrid(1.0, 2000)
        triad = propagate_triad(constant_control(grid, (0.0, 0.0, w)))
        t = grid.nodes
        np.testing.assert_allclose(triad.E(2), np.broadcast_to([0, 0, 1.0], (len(t), 3)), atol=1e-12)
        expect_e1 = np.stack([np.cos(w * t), -np.sin(w * t), np.zeros_like(t)], axis=1)
        np.testing.assert_allclose(triad.E(0), expect_e1, atol=1e-9)

    def test_final_triad_matches_ordered_exponential(self):
        grid = TimeGrid(1.0, 1500)
        om = fourier_path(grid, COEFFS)
        triad = propagate_triad(om)
        uc = time_ordered_exp(om, 1.0)
        ub = qconj(uc)
        for i, e in enumerate((E1, E2, E3)):
            np.testing.assert_allclose(
                triad.values[-1, i], quat_tuple(rotate(ub, e))[1:], atol=1e-12
            )

    def test_orthonormality_over_long_strong_drive(self):
        # |Omega| tau up to 50 over 1e4 steps stays orthonormal to 1e-9
        grid = TimeGrid(1.0, 10_000)
        om = fourier_path(grid, [((30.0, 20.0, 25.0), (0.0, 18.0, -22.0))])
        triad = propagate_triad(om)
        assert triad.orthonormality_defect() < 1e-9
        assert triad.handedness_defect() < 1e-9


class TestOmegaFromTriad:
    def test_static_triad_gives_zero(self):
        grid = TimeGrid(1.0, 64)
        triad = propagate_triad(constant_control(grid, (0.0, 0.0, 0.0)))
        ctrl = omega_from_triad(triad)
        assert np.max(np.abs(ctrl.omega_lab.values)) < 1e-12

    def test_constant_axis_recovered(self):
        w = 2.5
        grid = TimeGrid(1.0, 4000)
        triad = propagate_triad(constant_control(grid, (0.0, 0.0, w)))
        ctrl = omega_from_triad(triad)
        np.testing.assert_allclose(
            ctrl.omega_lab.values, np.broadcast_to([0, 0, w], (grid.n_nodes, 3)), atol=1e-5
        )

    def test_roundtrip_second_order(self):
        errs = []
        for n in (1000, 2000):
            grid = TimeGrid(1.0, n)
            om = fourier_path(grid, COEFFS)
            ctrl = omega_from_triad(propagate_triad(om))
            errs.append(np.max(np.abs(ctrl.omega_lab.values - om.values)))
        assert errs[0] / errs[1] > 3.0

    def test_frame_consistency(self):
        # omega^i = Omega . E_i = omega . e_i at every node
        grid = TimeGrid(1.0, 500)
        om = fourier_path(grid, COEFFS)
        triad = propagate_triad(om)
        ctrl = omega_from_triad(triad)
        dotted = np.einsum("kc,kic->ki", ctrl.omega_rot.values, triad.values)
        np.testing.assert_allclose(dotted, ctrl.omega_lab.values, atol=1e-10)

    def test_modulus_invariant_enforced(self):
        grid = TimeGrid(1.0, 8)
        good = PurePath(grid, np.ones((9, 3)))
        bad = PurePath(grid, 2.0 * np.ones((9, 3)))
        with pytest.raises(ValueError):
            ControlPath(grid, good, bad)


class TestPower:
    def test_static_triad_zero(self):
        grid = TimeGrid(1.0, 64)
        triad = propagate_triad(constant_control(grid, (0.0, 0.0, 0.0)))
        out = power(triad)
        assert np.max(np.abs(out.values)) < 1e-12
        assert out.energy_output == 0.0

    def test_constant_drift_energy(self, paper_target):
        grid = TimeGrid(1.0, 512)
        ctrl = drift_control(paper_target, grid)
        out = power(ctrl)
        np.testing.assert_allclose(out.values, 8.0 * math.pi**2, rtol=1e-12)
        assert out.energy_output == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_both_forms_agree_with_exact_rates(self):
        # supply exact rigid rates dE_i = E_i ^ Omega: the wedge and
        # antisymmetrized forms must agree with |Omega|^2 to 1e-10
        rng = np.random.default_rng(31)
        units = qexp_vec(rng.normal(size=(200, 3)))
        mats = np.swapaxes(quat_to_matrix(units), 1, 2)  # rows = E_i
        omegas = rng.normal(size=(200, 3))
        rates = np.cross(mats, omegas[:, None, :])
        w1 = power_wedge(mats, rates)
        w2 = power_antisym(mats, rates)
        expect = np.sum(omegas**2, axis=1)
        np.testing.assert_allclose(w1, expect, atol=1e-10)
        np.testing.assert_allclose(w2, expect, atol=1e-10)

    def test_triad_power_converges_to_control_power(self, paper_target):
        errs = []
        for n in (500, 1000):
            grid = TimeGrid(1.0, n)
            om = fourier_path(grid, COEFFS)
            triad = propagate_triad(om)
            got = power(triad).values
            expect = np.sum(om.values**2, axis=1)
            errs.append(np.max(np.abs(got - expect)))
        assert errs[0] / errs[1] > 3.0


class TestTargetsAndBoundaries:
    def test_identity_target(self):
        tgt = TargetRotation.from_axis_angle(None, 0.0)
        ini, fin = boundary_triad(tgt)
        np.testing.assert_array_equal(ini, np.eye(3))
        np.testing.assert_allclose(fin, np.eye(3), atol=1e-15)

    def test_half_turn_about_z(self):
        tgt = TargetRotation.from_axis_angle([0, 0, 1], math.pi)
        _, fin = boundary_triad(tgt)
        np.testing.assert_allclose(fin, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)

    def test_sign_insensitive(self):
        tgt = TargetRotation.from_axis_angle([0, 1, 0], 1.2)
        flipped = TargetRotation(
            tgt.q_T,
            type(tgt.u_T)(-tgt.u_T.w, -tgt.u_T.x, -tgt.u_T.y, -tgt.u_T.z),
            tgt.winding,
            tgt.axis,
        )
        np.testing.assert_allclose(
            boundary_triad(tgt)[1], boundary_triad(flipped)[1], atol=1e-14
        )

    def test_angle_folded_into_winding(self):
        tgt = TargetRotation.from_axis_angle([1, 0, 0], 3.0 * math.pi, winding=0)
        assert tgt.winding == 1
        assert tgt.theta == pytest.approx(math.pi)

    def test_drift_simple(self):
        tgt = TargetRotation.from_axis_angle([0, 0, 1], math.pi)
        om = drift_for_target(tgt, 1.0)
        np.testing.assert_allclose(quat_tuple(om)[1:], [0, 0, math.pi], atol=1e-15)

    def test_paper_drift(self, paper_target):
        om = drift_for_target(paper_target, 1.0)
        np.testing.assert_allclose(
            quat_tuple(om)[1:], [2 * math.pi, 0.0, 2 * math.pi], atol=1e-12
        )
        assert paper_target.winding == 1
        assert paper_target.theta == pytest.approx(2 * math.pi * (math.sqrt(2) - 1))

    def test_identity_with_winding(self):
        tgt = TargetRotation.from_axis_angle([0, 1, 0], 0.0, winding=1)
        om = drift_for_target(tgt, 1.0)
        assert PureQuat(*quat_tuple(om)[1:]).norm() == pytest.approx(2 * math.pi)
        grid = TimeGrid(1.0, 1024)
        triad = propagate_triad(drift_control(tgt, grid).omega_lab)
        np.testing.assert_allclose(triad.values[-1], np.eye(3), atol=1e-9)

    def test_axis_required_for_pure_winding(self):
        tgt = TargetRotation.from_axis_angle(None, 0.0, winding=1)
        with pytest.raises(AxisRequired):
            drift_for_target(tgt, 1.0)

    @pytest.mark.parametrize("winding", [1.5, math.inf, math.nan])
    def test_non_integer_winding_rejected(self, winding):
        with pytest.raises(ValueError, match="winding must be an integer"):
            TargetRotation.from_axis_angle([1, 0, 0], 1.0, winding=winding)

    def test_integral_float_winding_accepted(self):
        tgt = TargetRotation.from_axis_angle([1, 0, 0], 1.0, winding=2.0)
        assert tgt.winding == 2 and isinstance(tgt.winding, int)

    @pytest.mark.parametrize("winding", [-2, -1, 0, 1, 2])
    def test_drift_meets_boundaries_in_every_sector(self, winding):
        tgt = TargetRotation.from_axis_angle([1, 2, 2], 1.1, winding=winding)
        grid = TimeGrid(1.0, 2048)
        triad = propagate_triad(drift_control(tgt, grid).omega_lab)
        _, fin = boundary_triad(tgt)
        assert np.max(np.abs(triad.values[-1] - fin)) < 1e-9


class TestScaledDriftClaim:
    def test_scaled_drift_lands_on_inverse_rotation(self):
        """The (sqrt(2)-1)-scaled drift does NOT reproduce the boundary triad.

        Its total half-angle is 2*pi minus the original's, so its evolution
        operator is the quaternion conjugate: the induced triad rotation is
        the inverse (transpose), which differs unless the target rotation
        squares to the identity.  Verified here at the triad level.
        """
        grid = TimeGrid(1.0, 4096)
        base = np.array([2 * math.pi, 0.0, 2 * math.pi])
        t1 = propagate_triad(
            PurePath(grid, np.broadcast_to(base, (grid.n_nodes, 3)).copy())
        )
        t2 = propagate_triad(
            PurePath(
                grid,
                np.broadcast_to((math.sqrt(2) - 1) * base, (grid.n_nodes, 3)).copy(),
            )
        )
        final1 = t1.values[-1]
        final2 = t2.values[-1]
        assert np.max(np.abs(final1 - final2)) > 0.5  # not the same rotation
        np.testing.assert_allclose(final2, final1.T, atol=1e-9)  # but its inverse


class TestTriadPathType:
    def test_validation_rejects_skew(self):
        grid = TimeGrid(1.0, 4)
        vals = np.broadcast_to(np.eye(3), (5, 3, 3)).copy()
        vals[2, 0, 0] = 0.9
        triad = TriadPath(grid, vals)
        with pytest.raises(ValueError):
            triad.validate()

    def test_values_read_only(self):
        grid = TimeGrid(1.0, 4)
        triad = TriadPath(grid, np.broadcast_to(np.eye(3), (5, 3, 3)).copy())
        with pytest.raises(ValueError):
            triad.values[0, 0, 0] = 2.0

    def test_values_are_its_own_copy(self):
        # A view of a writable base: neither the base nor the view may be
        # frozen, and a later write through the base must not reach the triad.
        grid = TimeGrid(1.0, 4)
        base = np.broadcast_to(np.eye(3), (2, 5, 3, 3)).copy()
        view = base[0]
        triad = TriadPath(grid, view)
        base[0, 0, 0, 0] = 7.0
        assert triad.values[0, 0, 0] == 1.0
        assert view.flags.writeable and base.flags.writeable
        assert triad.values.flags.c_contiguous
