import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import parasitic_second_order
from pkm.errors import NoConvergence, UnreachablePose
from pkm.geometry import MechanismParams, Pose, Variant, home_height, rot_z
from pkm.grids import tilt_axes
from pkm.jacobian import build_jacobian
from pkm.kinematics import inverse_kinematics, limb_frame_coords
from pkm.parasitic import (
    coupling_matrices,
    integrate_parasitic_path,
    parasitic_map,
    solve_loop_closure,
)
from pkm.stiffness import stiffness_map_rotational

tilts = st.floats(min_value=-0.6, max_value=0.6)


def test_no_coupling_at_home(params):
    from pkm.geometry import home_pose

    coupling = coupling_matrices(params, home_pose(params))
    assert np.max(np.abs(coupling.C2)) < 1e-12
    assert np.max(np.abs(coupling.C)) < 1e-12


def test_coupled_rates_lie_in_feasible_space(params, rng):
    # a twist built from the coupling map must do no work on the constraint
    # wrenches: v = C[:2] w_xy, w_z = C[2] w_xy
    for _ in range(20):
        cp = solve_loop_closure(
            params, *rng.uniform(-0.6, 0.6, size=2), home_height(params)
        )
        coupling = coupling_matrices(params, cp.pose)
        jac = build_jacobian(params, cp.pose)
        for w_xy in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            dependent = coupling.C @ w_xy
            twist = np.array(
                [dependent[0], dependent[1], 0.0, w_xy[0], w_xy[1], dependent[2]]
            )
            residual = jac.Gc.T @ twist
            assert np.max(np.abs(residual)) < 1e-9 * max(1.0, np.linalg.norm(twist))


def test_closure_residual_is_tiny(params, rng):
    for _ in range(20):
        psi, theta = rng.uniform(-0.7, 0.7, size=2)
        cp = solve_loop_closure(params, psi, theta)
        for limb in (1, 2, 3):
            assert abs(limb_frame_coords(params, cp.pose, limb)[1]) < 1e-9


def test_small_tilt_expansion(params):
    # the closed solution approaches the second-order expansion with a
    # fourth-power error; at half a degree that error is below 1e-6 mm
    psi, theta = math.radians(0.5), math.radians(0.35)
    cp = solve_loop_closure(params, psi, theta)
    ex, ey, eg = parasitic_second_order(params.r_platform, psi, theta)
    assert cp.parasitic.x == pytest.approx(ex, abs=1e-6)
    assert cp.parasitic.y == pytest.approx(ey, abs=1e-6)
    assert cp.parasitic.gamma == pytest.approx(eg, abs=1e-9)


def test_expansion_error_shrinks_as_fourth_power(z3_params):
    errors = []
    for deg in (2.0, 1.0, 0.5):
        tilt = math.radians(deg)
        cp = solve_loop_closure(z3_params, tilt, 0.7 * tilt)
        ex, ey, eg = parasitic_second_order(z3_params.r_platform, tilt, 0.7 * tilt)
        errors.append(abs(cp.parasitic.x - ex))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.2)
    assert errors[1] / errors[2] == pytest.approx(16.0, rel=0.2)


@settings(max_examples=30, deadline=None)
@given(tilts, tilts)
def test_mirror_parity(psi, theta):
    from pkm.geometry import Variant, default_params

    params = default_params(Variant.Z3_PRS)
    plus = solve_loop_closure(params, psi, theta).parasitic
    minus = solve_loop_closure(params, -psi, theta).parasitic
    # reflection through the plane of limb 1 flips psi, y and gamma
    assert minus.x == pytest.approx(plus.x, abs=1e-9)
    assert minus.y == pytest.approx(-plus.y, abs=1e-9)
    assert minus.gamma == pytest.approx(-plus.gamma, abs=1e-9)


def test_parasitic_shift_is_heave_independent(params, rng):
    psi, theta = rng.uniform(-0.6, 0.6, size=2)
    z0 = home_height(params)
    at_home = solve_loop_closure(params, psi, theta, z0).parasitic
    lowered = solve_loop_closure(params, psi, theta, z0 - 100.0).parasitic
    assert lowered.x == at_home.x
    assert lowered.y == at_home.y
    assert lowered.gamma == at_home.gamma


def test_both_machines_share_the_parasitic_field(z3_params, a3_params, rng):
    for _ in range(10):
        psi, theta = rng.uniform(-0.7, 0.7, size=2)
        a = solve_loop_closure(z3_params, psi, theta).parasitic
        b = solve_loop_closure(a3_params, psi, theta).parasitic
        assert (a.x, a.y, a.gamma) == (b.x, b.y, b.gamma)


def test_limb_relabel_equivariance(params, rng):
    # conjugating the platform pose by the limb spacing rotation lands on
    # another compatible pose whose slide set is a cyclic shift
    Q = rot_z(2.0 * math.pi / 3.0)
    psi, theta = rng.uniform(-0.5, 0.5, size=2)
    cp = solve_loop_closure(params, psi, theta)
    rotated = Pose(p=Q @ cp.pose.p, R=Q @ cp.pose.R @ Q.T)
    states = inverse_kinematics(params, rotated)  # raises if incompatible
    original = [s.actuated_length for s in inverse_kinematics(params, cp.pose)]
    assert [s.actuated_length for s in states] == pytest.approx(
        np.roll(original, 1), abs=1e-9
    )


def test_integration_matches_closure(params):
    psi_axis, theta_axis = tilt_axes(5, 40.0)
    for psi in psi_axis:
        for theta in theta_axis:
            closed = solve_loop_closure(params, psi, theta).parasitic
            tracked = integrate_parasitic_path(params, psi, theta).parasitic
            assert tracked.x == pytest.approx(closed.x, abs=1e-8)
            assert tracked.y == pytest.approx(closed.y, abs=1e-8)
            assert tracked.gamma == pytest.approx(closed.gamma, abs=1e-10)


def test_integration_step_count_validation(params):
    with pytest.raises(ValueError):
        integrate_parasitic_path(params, 0.1, 0.1, steps=0)


def test_tilt_bounds_enforced(params):
    beyond = math.radians(61.0)
    with pytest.raises(ValueError):
        solve_loop_closure(params, beyond, 0.0)
    with pytest.raises(ValueError):
        integrate_parasitic_path(params, 0.0, beyond)


def test_no_convergence_carries_residual(params):
    with pytest.raises(NoConvergence) as excinfo:
        solve_loop_closure(params, 0.6, -0.6, max_iter=1)
    assert excinfo.value.residual is not None
    assert excinfo.value.residual > 0.0


def test_parasitic_map_fields(params):
    psi_axis, theta_axis = tilt_axes(7, 30.0)
    fields = parasitic_map(params, psi_axis, theta_axis)
    assert set(fields) == {"x_mm", "y_mm", "gamma_rad"}
    for grid in fields.values():
        assert grid.values.shape == (7, 7)
        assert grid.mask.all()
    center = 3
    assert fields["x_mm"].values[center, center] == pytest.approx(0.0, abs=1e-12)
    # spot check one off-center cell against the direct solve
    cp = solve_loop_closure(params, psi_axis[1], theta_axis[5])
    assert fields["y_mm"].values[1, 5] == pytest.approx(cp.parasitic.y, abs=1e-12)


def test_reachability_is_decided_by_inverse_kinematics():
    # the closure solves every cell; only IK rejects the poses the short
    # struts cannot reach, and exactly those cells lose their stiffness
    params = MechanismParams(variant=Variant.Z3_PRS, link_length=105.0)
    psi_axis, theta_axis = tilt_axes(5, 30.0)
    fields = parasitic_map(params, psi_axis, theta_axis)
    kpx = stiffness_map_rotational(params, psi_axis, theta_axis)["kpx"]
    unreachable = np.zeros((5, 5), dtype=bool)
    for i, psi in enumerate(psi_axis):
        for j, theta in enumerate(theta_axis):
            cp = solve_loop_closure(params, psi, theta)
            shift = cp.parasitic
            written = tuple(fields[name].values[i, j] for name in ("x_mm", "y_mm", "gamma_rad"))
            assert (shift.x, shift.y, shift.gamma) == written
            try:
                inverse_kinematics(params, cp.pose)
            except UnreachablePose:
                unreachable[i, j] = True
    assert unreachable.any()
    assert np.array_equal(unreachable, ~kpx.mask)
