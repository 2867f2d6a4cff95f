import math
from fractions import Fraction

import numpy as np
import pytest

from spinctl import fidelity, magnus
from spinctl.errors import SingularCot, UnsupportedOrder
from spinctl.magnus import (
    PurePath,
    TimeGrid,
    magnus_term,
    n_of_m,
    ordered_exp_batch,
    random_smooth_path,
    solve_m_ode,
    solve_m_ode_batch,
    time_ordered_exp,
)
from spinctl.quat import PureQuat, UnitQuat, qexp, qexp_vec, qproduct, umul

from conftest import fourier_path, quat_tuple


def bernoulli(j: int) -> Fraction:
    """Bernoulli number B_j (B_1 = -1/2 convention) via the explicit double sum."""
    if j < 0 or j > 20:
        raise ValueError("bernoulli(j) supports 0 <= j <= 20")
    total = Fraction(0)
    for k in range(j + 1):
        for el in range(k + 1):
            term = Fraction(
                (-1) ** el * math.factorial(k) * el**j,
                math.factorial(el) * math.factorial(k - el) * (k + 1),
            )
            total += term
    return total


def half_exp(m_values, eps):
    """exp((eps/2) m) for the last node of a rotation-vector path."""
    return qexp(PureQuat(*(0.5 * eps * np.asarray(m_values))))


def mismatch(u1, u2):
    return float(np.linalg.norm(quat_tuple(u1) - quat_tuple(u2)))


def rotating_field(grid, omega=4.0 * math.pi):
    t = grid.nodes
    vals = np.stack([np.cos(omega * t), np.sin(omega * t), np.zeros(len(t))], axis=1)
    return PurePath(grid, vals)


class TestTimeGrid:
    def test_integral_float_step_count_is_stored_as_int(self):
        grid = TimeGrid(1.0, 512.0)
        assert type(grid.n_steps) is int
        assert len(grid.nodes) == 513
        assert grid == TimeGrid(1.0, 512)

    @pytest.mark.parametrize("n_steps", [1, 512.5, math.inf, math.nan])
    def test_bad_step_count_rejected(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 2"):
            TimeGrid(1.0, n_steps)


class TestPurePath:
    def test_values_are_its_own_copy(self):
        # A view of a writable base: neither the base nor the view may be
        # frozen, and a later write through the base must not reach the path.
        grid = TimeGrid(1.0, 4)
        base = np.zeros((2, 5, 3))
        view = base[0]
        path = PurePath(grid, view)
        base[0, 0, 0] = 7.0
        assert path.values[0, 0] == 0.0
        assert view.flags.writeable and base.flags.writeable
        with pytest.raises(ValueError):
            path.values[0, 0] = 1.0


class TestTimeOrderedExp:
    def test_constant_field_commutes(self):
        grid = TimeGrid(1.0, 500)
        c = np.array([0.4, -0.2, 0.9])
        n = PurePath(grid, np.broadcast_to(c, (grid.n_nodes, 3)).copy())
        for eps in (0.0, 0.3, 1.7):
            got = time_ordered_exp(n, eps)
            expect = qexp(PureQuat(*(0.5 * eps * c)))
            assert mismatch(got, expect) < 1e-13

    def test_fixed_axis_commutes(self):
        grid = TimeGrid(2.0, 2000)
        axis = np.array([0.6, 0.8, 0.0])
        f = np.sin(3.0 * grid.nodes)
        n = PurePath(grid, np.outer(f, axis))
        integral = (1.0 - math.cos(3.0 * 2.0)) / 3.0
        got = time_ordered_exp(n, 0.7)
        expect = qexp(PureQuat(*(0.5 * 0.7 * integral * axis)))
        # midpoint quadrature of the scalar integral is O(dt^2)
        assert mismatch(got, expect) < 2e-7

    def test_group_property(self):
        grid = TimeGrid(1.0, 1024)
        rng = np.random.default_rng(21)
        n = random_smooth_path(grid, rng, amplitude=0.8)
        k = 384
        left = TimeGrid(grid.tau * (grid.n_steps - k) / grid.n_steps, grid.n_steps - k)
        right = TimeGrid(grid.tau * k / grid.n_steps, k)
        n_right = PurePath(right, n.values[: k + 1])
        n_left = PurePath(left, n.values[k:])
        whole = quat_tuple(time_ordered_exp(n, 0.9))
        a = quat_tuple(time_ordered_exp(n_left, 0.9))
        b = quat_tuple(time_ordered_exp(n_right, 0.9))
        composed = np.array(
            [
                a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                a[0] * b[2] + a[2] * b[0] + a[3] * b[1] - a[1] * b[3],
                a[0] * b[3] + a[3] * b[0] + a[1] * b[2] - a[2] * b[1],
            ]
        )
        np.testing.assert_allclose(whole, composed, atol=1e-10)

    def test_scalar_part_bounded(self):
        grid = TimeGrid(1.0, 512)
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = random_smooth_path(grid, rng, amplitude=2.0)
            u = time_ordered_exp(n, 1.3)
            assert abs(u.w) <= 1.0 + 1e-12

    def test_batch_matches_scalar(self):
        # Reference: the midpoint steps multiplied one at a time in scalar
        # quaternions, later steps on the left.
        grid = TimeGrid(1.0, 300)
        rng = np.random.default_rng(23)
        paths = [random_smooth_path(grid, rng) for _ in range(5)]
        batch = ordered_exp_batch(np.stack([p.values for p in paths]), 0.8, grid.dt)
        for k, p in enumerate(paths):
            u = UnitQuat(1.0, 0.0, 0.0, 0.0)
            for a, b in zip(p.values[:-1], p.values[1:]):
                u = umul(qexp(PureQuat(*(0.25 * 0.8 * grid.dt * (a + b)).tolist())), u)
            np.testing.assert_allclose(batch[k], quat_tuple(u), atol=1e-12)

    @pytest.mark.parametrize("n_paths", [1, 6])
    def test_batch_component_major_view_matches_c_order(self, n_paths):
        grid = TimeGrid(1.0, 257)
        rng = np.random.default_rng(24)
        values = np.stack([random_smooth_path(grid, rng).values for _ in range(n_paths)])
        # (3, n_nodes, paths) memory seen as (paths, n_nodes, 3), as the Monte Carlo table passes it
        view = np.ascontiguousarray(values.transpose(2, 1, 0)).transpose(2, 1, 0)
        assert view.strides[0] == view.itemsize
        np.testing.assert_array_equal(ordered_exp_batch(view, 0.8, grid.dt), ordered_exp_batch(values, 0.8, grid.dt))

    def test_path_blocks_keep_bits(self):
        # A batch larger than one Monte Carlo block; the reference forms
        # every step of every path in one array.
        grid = TimeGrid(1.0, 40)
        rng = np.random.default_rng(25)
        n_paths = 2 * fidelity._PATH_BLOCK + 7
        field = np.ascontiguousarray(rng.normal(size=(3, grid.n_nodes, n_paths)))
        values = field.transpose(2, 1, 0)
        expect = qproduct(qexp_vec(0.25 * 0.8 * grid.dt * (values[:, :-1] + values[:, 1:])))
        np.testing.assert_array_equal(ordered_exp_batch(values, 0.8, grid.dt), expect)
        # A reused step array, as the Monte Carlo table passes it: a full
        # block, then the short last block over the head of the same buffer.
        block = fidelity._PATH_BLOCK
        buf = np.empty(block * grid.n_steps * 4)
        full = fidelity._head(buf, (block, grid.n_steps, 4), order="F")
        np.testing.assert_array_equal(
            ordered_exp_batch(values[:block], 0.8, grid.dt, out=full), expect[:block]
        )
        tail = fidelity._head(buf, (7, grid.n_steps, 4), order="F")
        np.testing.assert_array_equal(
            ordered_exp_batch(values[-7:], 0.8, grid.dt, out=tail), expect[-7:]
        )


class TestSolveMOde:
    def test_constant_field(self):
        grid = TimeGrid(1.0, 200)
        c = np.array([0.3, 0.5, -0.1])
        n = PurePath(grid, np.broadcast_to(c, (grid.n_nodes, 3)).copy())
        for eps in (0.0, 0.5, 2.0):
            m = solve_m_ode(n, eps)
            np.testing.assert_allclose(m.values, np.outer(grid.nodes, c), atol=1e-12)

    def test_fixed_axis(self):
        grid = TimeGrid(1.5, 800)
        axis = np.array([0.0, 1.0, 0.0])
        n = PurePath(grid, np.outer(np.cos(2.0 * grid.nodes), axis))
        m = solve_m_ode(n, 0.9)
        expect = np.outer(np.sin(2.0 * grid.nodes) / 2.0, axis)
        np.testing.assert_allclose(m.values, expect, atol=1e-9)

    def test_rotating_field_against_oracle(self):
        grid = TimeGrid(1.0, 10_000)
        n = rotating_field(grid)
        eps = 0.5
        m = solve_m_ode(n, eps)
        d = mismatch(half_exp(m.values[-1], eps), time_ordered_exp(n, eps))
        assert d < 1e-8

    def test_grid_convergence_second_order(self):
        # halving dt must shrink the oracle mismatch by at least 3x
        eps = 1.0
        coarse = TimeGrid(1.0, 1000)
        fine = TimeGrid(1.0, 2000)
        errs = []
        for grid in (coarse, fine):
            n = rotating_field(grid, omega=6.0 * math.pi)
            m = solve_m_ode(n, eps)
            errs.append(mismatch(half_exp(m.values[-1], eps), time_ordered_exp(n, eps)))
        assert errs[0] / errs[1] > 3.0

    def test_cot_pole_refused(self):
        # |m| grows linearly for a constant field; |eps||m| crosses 2*pi for
        # either sign of eps
        grid = TimeGrid(1.0, 2000)
        c = np.array([1.0, 0.0, 0.0])
        n = PurePath(grid, np.broadcast_to(c, (grid.n_nodes, 3)).copy())
        crossings = []
        for eps in (7.0, -7.0):
            with pytest.raises(SingularCot) as err:
                solve_m_ode(n, eps)
            crossings.append(err.value.t_cross)
        assert crossings[0] == pytest.approx(2.0 * math.pi / 7.0, abs=0.02)
        assert crossings[1] == crossings[0]


class TestSolveMOdeBatch:
    def test_lanes_match_solve_m_ode_bit_for_bit(self):
        # tau = 20 lets eps*|m| pass 1/2, where h(y) leaves its series for the
        # tangent branch; eps = 0 and the weak paths stay on the series.  The
        # field is expanded one chunk of steps at a time: 900 steps end inside
        # a chunk, and the other grids end one step before, on and after the
        # first chunk boundary.
        chunk = magnus._CHUNK_STEPS
        for n_steps in (900, chunk - 1, chunk, chunk + 1):
            grid = TimeGrid(20.0, n_steps)
            rng = np.random.default_rng(31)
            paths = [random_smooth_path(grid, rng, amplitude=a) for a in (0.02, 0.1, 0.2)]
            epsilons = [0.0, 1.0, 4.0]
            batch = solve_m_ode_batch(np.stack([p.values for p in paths]), epsilons, grid)
            assert batch.shape == (3, 3, 3)
            y2_max = []
            for p, path in enumerate(paths):
                for e, eps in enumerate(epsilons):
                    m = solve_m_ode(path, eps).values
                    assert np.array_equal(batch[p, e], m[-1]), (p, eps)
                    y2_max.append(eps * eps * np.max(np.sum(m * m, axis=1)))
            assert min(y2_max) < magnus._H_SERIES_CUT2 < max(y2_max)

    def test_singular_cot_names_lane(self):
        # constant fields of strength 0.1, 1 and 1.2 along x: eps*|m| = eps*c*t
        grid = TimeGrid(1.0, 400)
        const = np.zeros((grid.n_nodes, 3))
        const[:, 0] = 1.0
        values = np.stack([0.1 * const, const, 1.2 * const])
        crossings = []
        for eps in (7.0, -7.0):  # the guard reads |eps|*|m|
            with pytest.raises(SingularCot) as err:
                solve_m_ode_batch(values, [0.5, eps], grid)
            assert err.value.lane == (2, eps)
            assert f"path 2, eps {eps:g}" in str(err.value)
            with pytest.raises(SingularCot) as alone:
                solve_m_ode(PurePath(grid, values[2]), eps)
            assert err.value.t_cross == alone.value.t_cross
            crossings.append(err.value.t_cross)
        assert crossings[0] == pytest.approx((2.0 * math.pi - 0.05) / 8.4, abs=2.0 * grid.dt)
        assert crossings[1] == crossings[0]

    @pytest.mark.parametrize("shape", [(2, 40, 3), (2, 42, 3), (41, 3), (2, 41, 2)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="values must have shape"):
            solve_m_ode_batch(np.zeros(shape), [0.5], TimeGrid(1.0, 40))

    def test_no_lanes_give_empty_result(self):
        # no paths, or no epsilons: nothing to step, and an empty (paths, eps, 3) answer
        grid = TimeGrid(1.0, 40)
        assert solve_m_ode_batch(np.zeros((0, 41, 3)), [0.1, 0.5], grid).shape == (0, 2, 3)
        assert solve_m_ode_batch(np.ones((2, 41, 3)), [], grid).shape == (2, 0, 3)

    def test_non_finite_rejected(self):
        values = np.zeros((2, 41, 3))
        values[1, 7, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            solve_m_ode_batch(values, [0.5], TimeGrid(1.0, 40))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200])
    def test_epsilon_without_finite_square_rejected(self, bad):
        # eps^2 |m|^2 of such a lane is NaN, which hid every other lane's
        # tangent branch: an eps = 4 lane beside a NaN lane ended 25 % away
        # from its solve_m_ode value.
        with pytest.raises(ValueError, match="finite square"):
            solve_m_ode_batch(np.zeros((1, 41, 3)), [4.0, bad], TimeGrid(1.0, 40))

    def test_overflowing_lane_leaves_others_alone(self):
        # A field of 1e200 overflows |m|^2 in its own lanes, which numpy
        # reports as a RuntimeWarning; the ordinary path's lanes keep the bits
        # of solve_m_ode.
        grid = TimeGrid(1.0, 200)
        ordinary = random_smooth_path(grid, np.random.default_rng(5), amplitude=0.1)
        epsilons = [0.0, 1.0]
        with pytest.warns(RuntimeWarning) as record:
            batch = solve_m_ode_batch(np.stack([ordinary.values, 1e200 * ordinary.values]), epsilons, grid)
        assert "overflow encountered in multiply" in {str(w.message) for w in record}
        for e, eps in enumerate(epsilons):
            assert np.array_equal(batch[0, e], solve_m_ode(ordinary, eps).values[-1]), eps
        assert not np.isfinite(batch[1]).any()

    @pytest.mark.parametrize("n_steps", [2, 3, 4, 9, 600])
    def test_chunked_midpoints_match_whole(self, n_steps):
        v = np.random.default_rng(n_steps).normal(size=(n_steps + 1, 3, 2))
        whole = magnus._interval_midpoints(v)
        for lo, hi in [(0, n_steps), (0, 1), (n_steps - 1, n_steps), (1, n_steps - 1)]:
            if lo < hi:
                assert np.array_equal(magnus._interval_midpoints(v, lo, hi), whole[lo:hi])


class TestNOfM:
    def test_linear_history(self):
        grid = TimeGrid(1.0, 400)
        c = np.array([0.2, -0.7, 0.4])
        m = PurePath(grid, np.outer(grid.nodes, c))
        back = n_of_m(m, 1.3)
        np.testing.assert_allclose(back.values, np.broadcast_to(c, back.values.shape), atol=1e-10)

    def test_zero_strength_reduces_to_derivative(self):
        grid = TimeGrid(1.0, 600)
        m = fourier_path(grid, [((0.4, 0.1, -0.2), (0.0, 0.3, 0.2))])
        back = n_of_m(m, 0.0)
        dm = np.gradient(m.values, grid.dt, axis=0, edge_order=2)
        np.testing.assert_allclose(back.values, dm, atol=1e-12)

    def test_roundtrip_inverse(self):
        grid = TimeGrid(1.0, 10_000)
        rng = np.random.default_rng(24)
        n = random_smooth_path(grid, rng, amplitude=0.5)
        eps = 0.8
        m = solve_m_ode(n, eps)
        back = n_of_m(m, eps)
        assert np.max(np.abs(back.values - n.values)) < 1e-6


class TestMagnusTerms:
    def test_order_zero_is_running_integral(self):
        grid = TimeGrid(2.0, 1000)
        axis = np.array([0.3, -0.5, 0.8])
        n = PurePath(grid, np.outer(np.sin(grid.nodes), axis))
        m0 = magnus_term(n, 0)
        expect = np.outer(1.0 - np.cos(grid.nodes), axis)
        np.testing.assert_allclose(m0.values, expect, atol=2e-6)

    def test_order_one_vanishes_for_fixed_axis(self):
        grid = TimeGrid(1.0, 500)
        axis = np.array([1.0, 2.0, -1.0])
        n = PurePath(grid, np.outer(np.cos(5.0 * grid.nodes), axis))
        m1 = magnus_term(n, 1)
        assert np.max(np.abs(m1.values)) < 1e-14

    def test_order_one_two_segment_field(self):
        # n = a for t < T/2, b after: m1(T) = (T^2/8) b ^ a
        T = 1.0
        grid = TimeGrid(T, 2048)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        vals = np.where(grid.nodes[:, None] <= T / 2, a, b)
        n = PurePath(grid, vals.astype(float))
        m1 = magnus_term(n, 1)
        expect = (T**2 / 8.0) * np.cross(b, a)
        # direct evaluation of the ordered double integral as the oracle
        w = np.full(grid.n_nodes, grid.dt)
        w[0] = w[-1] = grid.dt / 2
        oracle = np.zeros(3)
        running = np.zeros(3)
        for k in range(grid.n_nodes):
            if k:
                running += 0.5 * grid.dt * (vals[k - 1] + vals[k])
            oracle += 0.5 * w[k] * np.cross(vals[k], running)
        np.testing.assert_allclose(m1.values[-1], oracle, atol=1e-12)
        np.testing.assert_allclose(m1.values[-1], expect, atol=2e-3)

    def test_order_two_against_nested_sum(self):
        grid = TimeGrid(1.0, 60)
        rng = np.random.default_rng(25)
        n = random_smooth_path(grid, rng, amplitude=1.0)
        m2 = magnus_term(n, 2)
        v = n.values
        # brute-force iterated trapezoid of the two nested terms over every
        # node triple (i1, i2, i3); trap[i, j] weighs node j in the trapezoid
        # over [t_0, t_i] (row 0 is zero)
        trap = np.zeros((grid.n_nodes, grid.n_nodes))
        for i in range(1, grid.n_nodes):
            trap[i, : i + 1] = grid.dt
            trap[i, [0, i]] = grid.dt / 2
        v1, v2, v3 = v[:, None, None], v[None, :, None], v[None, None, :]
        terms = np.cross(v1, np.cross(v2, v3)) + np.cross(v3, np.cross(v2, v1))
        total = np.einsum("a,ab,bc,abcx->x", trap[-1], trap, trap, terms) / 6.0
        np.testing.assert_allclose(m2.values[-1], total, atol=1e-10)

    def test_unsupported_order(self):
        grid = TimeGrid(1.0, 10)
        n = PurePath(grid, np.zeros((grid.n_nodes, 3)))
        with pytest.raises(UnsupportedOrder):
            magnus_term(n, 3)


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == Fraction(1)
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)

    def test_odd_values_vanish(self):
        for j in (3, 5, 7, 9, 11):
            assert bernoulli(j) == 0

    def test_high_order(self):
        assert bernoulli(20) == Fraction(-174611, 330)

    def test_series_coefficients_match_cot_expansion(self):
        # 1 - (y/2)cot(y/2) = sum_j (-1)^{j+1} B_2j y^2j / (2j)!
        y = 0.37
        series = sum(
            (-1) ** (j + 1) * float(bernoulli(2 * j)) * y ** (2 * j) / math.factorial(2 * j)
            for j in range(1, 11)
        )
        direct = 1.0 - 0.5 * y / math.tan(0.5 * y)
        assert abs(series - direct) < 1e-15


class TestConsistencyInvariant:
    def test_ode_matches_oracle_across_strengths(self):
        grid = TimeGrid(1.0, 4000)
        rng = np.random.default_rng(28)
        for _ in range(3):
            n = random_smooth_path(grid, rng, amplitude=0.3)
            for eps in (0.1, 0.5, 1.0):
                m = solve_m_ode(n, eps)
                d = mismatch(half_exp(m.values[-1], eps), time_ordered_exp(n, eps))
                assert d < 1e-7
