import math

import numpy as np
import pytest

from conftest import random_compatible_pose
from oracles import ik_a3_reference, ik_z3_reference
from pkm.errors import ConstraintViolation, GimbalDegeneracy, UnreachablePose
from pkm.geometry import (
    MechanismParams,
    Pose,
    Variant,
    default_params,
    home_height,
    home_pose,
    platform_attachment,
    pose_from_tilts,
    rot_x,
    rot_y,
    rot_z,
)
from pkm.kinematics import inverse_kinematics, spherical_joint_angles, spherical_joint_frame


def test_home_slides_are_zero(z3_params):
    states = inverse_kinematics(z3_params, home_pose(z3_params))
    for state in states:
        assert abs(state.actuated_length) < 1e-9
        assert np.linalg.norm(state.l1) == pytest.approx(642.3, rel=1e-12)


def test_home_strut_lengths_are_nominal(a3_params):
    states = inverse_kinematics(a3_params, home_pose(a3_params))
    for state in states:
        assert state.actuated_length == pytest.approx(642.3, rel=1e-12)
        assert np.linalg.norm(state.l1) == pytest.approx(642.3, rel=1e-12)


def test_slides_match_reference(z3_params, rng):
    for _ in range(50):
        pose = random_compatible_pose(z3_params, rng).pose
        states = inverse_kinematics(z3_params, pose)
        expected = ik_z3_reference(350.0, 250.0, 642.3, pose.p, pose.R)
        assert expected is not None
        got = [s.actuated_length for s in states]
        assert got == pytest.approx(expected, abs=1e-9)


def test_strut_lengths_match_reference(a3_params, rng):
    for _ in range(50):
        pose = random_compatible_pose(a3_params, rng).pose
        states = inverse_kinematics(a3_params, pose)
        expected = ik_a3_reference(350.0, 250.0, pose.p, pose.R)
        got = [s.actuated_length for s in states]
        assert got == pytest.approx(expected, abs=1e-9)


def test_link_vector_consistency(params, rng):
    # l1 must run from the moving end of the actuated joint to the joint,
    # so fixed-strut machines keep |l1| = link_length and telescopic ones
    # keep |l1| = actuated length
    for _ in range(20):
        pose = random_compatible_pose(params, rng).pose
        for state in inverse_kinematics(params, pose):
            if params.variant is Variant.Z3_PRS:
                assert np.linalg.norm(state.l1) == pytest.approx(params.link_length, rel=1e-12)
            else:
                assert np.linalg.norm(state.l1) == pytest.approx(
                    state.actuated_length, rel=1e-12
                )
            assert abs(state.g[1]) < 1e-8


def test_heave_shifts_slides_linearly(z3_params, rng):
    cp = random_compatible_pose(z3_params, rng)
    base = inverse_kinematics(z3_params, cp.pose)
    shifted_pose = Pose(p=cp.pose.p + np.array([0.0, 0.0, 37.5]), R=cp.pose.R)
    shifted = inverse_kinematics(z3_params, shifted_pose)
    for s0, s1 in zip(base, shifted):
        assert s1.actuated_length - s0.actuated_length == pytest.approx(37.5, abs=1e-9)
        assert s1.l1 == pytest.approx(s0.l1, abs=1e-9)


def test_unreachable_reported_before_constraint_violation(z3_params):
    # this pose both violates the limb planes and exceeds the strut span,
    # and reach is checked first for the fixed-strut machine
    z = home_height(z3_params)
    pose = Pose(p=np.array([800.0, 5.0, z]), R=np.eye(3))
    with pytest.raises(UnreachablePose):
        inverse_kinematics(z3_params, pose)


def test_constraint_checked_first_for_telescopic(a3_params):
    z = home_height(a3_params)
    pose = Pose(p=np.array([800.0, 5.0, z]), R=np.eye(3))
    with pytest.raises(ConstraintViolation):
        inverse_kinematics(a3_params, pose)


def test_constraint_violation_off_plane(params):
    pose = pose_from_tilts(0.0, 0.0, home_height(params), y=5.0)
    with pytest.raises(ConstraintViolation):
        inverse_kinematics(params, pose)
    # the same pose passes with a loose tolerance
    states = inverse_kinematics(params, pose, constraint_tol=10.0)
    assert len(states) == 3


def test_spherical_angles_vanish_at_home(params):
    pose = home_pose(params)
    for limb, state in enumerate(inverse_kinematics(params, pose), start=1):
        angles = spherical_joint_angles(params, pose, state, limb)
        assert angles == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)


def test_spherical_angles_track_articulation(params, rng):
    cp = random_compatible_pose(params, rng, max_tilt_deg=25.0)
    states = inverse_kinematics(params, cp.pose)
    total = 0.0
    for limb, state in enumerate(states, start=1):
        a, b, c = spherical_joint_angles(params, cp.pose, state, limb)
        total += abs(a) + abs(b) + abs(c)
        # reconstruct the relative rotation from the extracted angles
        rebuilt = rot_y(a) @ rot_x(b) @ rot_z(c)
        frame = spherical_joint_frame(params, cp.pose, state, limb)
        assert np.max(np.abs(frame.T @ frame - np.eye(3))) < 1e-12
        relative = frame.T @ cp.pose.R @ _home_frame(params, limb)
        assert np.max(np.abs(rebuilt - relative)) < 1e-12
    assert total > 1e-3


def _home_frame(params, limb):
    states = inverse_kinematics(params, home_pose(params))
    return spherical_joint_frame(params, home_pose(params), states[limb - 1], limb)


def test_gimbal_degeneracy_detected(z3_params):
    # drive the extraction to a +/-90 deg middle angle through a synthetic
    # platform orientation
    pose_home = home_pose(z3_params)
    states = inverse_kinematics(z3_params, pose_home)
    bad_R = _home_frame(z3_params, 1) @ rot_y(0.3) @ rot_x(0.5 * math.pi) @ rot_z(0.1) @ _home_frame(
        z3_params, 1
    ).T @ pose_home.R
    bad_pose = Pose(p=pose_home.p, R=bad_R)
    with pytest.raises(GimbalDegeneracy):
        spherical_joint_angles(z3_params, bad_pose, states[0], 1)


def test_joint_axis_selection(params, rng):
    cp = random_compatible_pose(params, rng)
    for limb, state in enumerate(inverse_kinematics(params, cp.pose), start=1):
        xi = params.azimuths[limb - 1]
        tangent = np.array([-math.sin(xi), math.cos(xi), 0.0])
        axis, rev = state.actuated, state.revolute
        assert rev == pytest.approx(tangent, abs=1e-12)
        if params.variant is Variant.Z3_PRS:
            assert axis == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
        else:
            assert axis == pytest.approx(state.l1 / np.linalg.norm(state.l1), abs=1e-12)
        # the revolute axis is orthogonal to the limb plane
        assert abs(rev @ state.l1) < 1e-8


@pytest.mark.parametrize(
    "params",
    [
        default_params(Variant.Z3_PRS),
        default_params(Variant.A3_RPS),
        MechanismParams(Variant.Z3_PRS, r_platform=180.0, azimuths=(0.1, 2.2, 4.0)),
        MechanismParams(Variant.A3_RPS, r_platform=180.0, azimuths=(0.1, 2.2, 4.0)),
    ],
    ids=["z3", "a3", "z3-off-stock", "a3-off-stock"],
)
def test_limb_state_carries_the_attachment(params, rng):
    # bit for bit, so that build_jacobian reads it instead of recomputing it
    for _ in range(20):
        pose = random_compatible_pose(params, rng).pose
        for limb, state in enumerate(inverse_kinematics(params, pose), start=1):
            assert state.attachment.tobytes() == platform_attachment(params, pose.R, limb).tobytes()


def test_limb_frame_coords_home(params):
    for state in inverse_kinematics(params, home_pose(params)):
        assert state.g == pytest.approx([-100.0, 0.0, home_height(params)], abs=1e-10)
