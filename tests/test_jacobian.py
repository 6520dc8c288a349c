import math

import numpy as np
import pytest

from conftest import random_compatible_pose
from oracles import (
    assert_wrench_columns_close,
    kappa_eig,
    projector_pinv,
    rotate_pose_step,
    wrench_matrix_reference,
)
from pkm.errors import RankDeficiency, SingularLimb
from pkm.geometry import (
    MechanismParams,
    Pose,
    TaskRate,
    Variant,
    Z_AXIS,
    home_pose,
    platform_attachment,
    rot_z,
)
from pkm.jacobian import (
    MOMENT_CONVENTION,
    build_jacobian,
    constraint_projector,
    homogenized_jacobian,
    project_task_rate,
)
from pkm.kinematics import LimbState, inverse_kinematics

HOME_P_DIAG = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.0])


def test_home_projector_pattern(params):
    jac = build_jacobian(params, home_pose(params))
    assert np.max(np.abs(jac.P - np.diag(HOME_P_DIAG))) < 1e-10


def test_projector_properties(params, rng):
    for _ in range(20):
        jac = build_jacobian(params, random_compatible_pose(params, rng).pose)
        P = jac.P
        assert np.max(np.abs(P - P.T)) < 1e-12
        assert np.max(np.abs(P @ P - P)) < 1e-12
        # a projector onto a 3-dimensional subspace
        assert np.trace(P) == pytest.approx(3.0, abs=1e-10)
        assert np.max(np.abs(P - projector_pinv(jac.Gc))) < 1e-10


def test_projected_twists_do_no_constraint_work(params, rng):
    for _ in range(20):
        jac = build_jacobian(params, random_compatible_pose(params, rng).pose)
        X = rng.standard_normal((6, 50))
        residual = jac.Gc.T @ (jac.P @ X)
        scale = np.linalg.norm(jac.Gc, 2) * np.linalg.norm(X, axis=0)
        assert np.max(np.abs(residual) / scale) < 1e-12


def test_feasible_basis_is_orthonormal_null_space(params, rng):
    jac = build_jacobian(params, random_compatible_pose(params, rng).pose)
    N = jac.feasible_basis
    assert N.shape == (6, 3)
    assert np.max(np.abs(N.T @ N - np.eye(3))) < 1e-12
    assert np.max(np.abs(jac.Gc.T @ N)) < 1e-9


def test_active_rates_match_finite_differences(params, rng):
    eps = 1e-6
    for _ in range(25):
        pose = random_compatible_pose(params, rng).pose
        jac = build_jacobian(params, pose)
        twist = project_task_rate(jac.P, rng.standard_normal(6))
        t = twist.as_vector()
        plus = Pose(p=pose.p + eps * twist.v, R=rotate_pose_step(pose.R, twist.w, eps))
        minus = Pose(p=pose.p - eps * twist.v, R=rotate_pose_step(pose.R, twist.w, -eps))
        lp = [s.actuated_length for s in inverse_kinematics(params, plus)]
        lm = [s.actuated_length for s in inverse_kinematics(params, minus)]
        fd = (np.array(lp) - np.array(lm)) / (2.0 * eps)
        predicted = jac.Ga.T @ t
        scale = max(1.0, float(np.max(np.abs(predicted))))
        assert np.max(np.abs(fd - predicted)) / scale < 1e-5


def test_constraint_columns_reject_feasible_motion_only(params, rng):
    # Gc^T annihilates the feasible subspace but not its complement
    jac = build_jacobian(params, random_compatible_pose(params, rng).pose)
    s = np.linalg.svd(jac.Gc, compute_uv=False)
    assert s.min() > 1e-3


def test_home_condition_number_is_sqrt2(params):
    jac = build_jacobian(params, home_pose(params))
    assert jac.kappa == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_condition_number_matches_eig_oracle(params, rng):
    for _ in range(30):
        pose = random_compatible_pose(params, rng).pose
        jac = build_jacobian(params, pose)
        assert jac.kappa == pytest.approx(
            kappa_eig(jac.Ga, jac.Gc, params.r_platform), rel=1e-9
        )
        assert jac.kappa >= 1.0


def test_condition_number_is_basis_invariant(params, rng):
    pose = random_compatible_pose(params, rng).pose
    jac = build_jacobian(params, pose)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    sigma_rotated = np.linalg.svd(jac.J_hom @ Q, compute_uv=False)
    assert sigma_rotated[0] / sigma_rotated[-1] == pytest.approx(jac.kappa, rel=1e-12)


def test_condition_number_symmetric_under_limb_relabel(params, rng):
    # rotating the whole pose by the limb spacing angle relabels the limbs
    # and must leave the conditioning untouched
    Q = rot_z(2.0 * math.pi / 3.0)
    for _ in range(5):
        pose = random_compatible_pose(params, rng).pose
        rotated = Pose(p=Q @ pose.p, R=Q @ pose.R @ Q.T)
        k1 = build_jacobian(params, pose).kappa
        k2 = build_jacobian(params, rotated).kappa
        assert k2 == pytest.approx(k1, rel=1e-9)
        lengths = [s.actuated_length for s in inverse_kinematics(params, pose)]
        relabeled = [s.actuated_length for s in inverse_kinematics(params, rotated)]
        assert relabeled == pytest.approx(np.roll(lengths, 1), abs=1e-9)


def test_wrench_matrix_matches_reference(params, rng):
    for _ in range(60):
        pose = random_compatible_pose(params, rng).pose
        want = wrench_matrix_reference(
            params.variant.value,
            params.r_base,
            params.r_platform,
            params.link_length,
            params.azimuths,
            pose.p,
            pose.R,
        )
        assert_wrench_columns_close(build_jacobian(params, pose).G, want)


def test_singular_limb_detection(z3_params):
    pose = home_pose(z3_params)
    horizontal = np.array([100.0, 0.0, 0.0])
    state = LimbState(
        anchor=np.array([350.0, 0.0, 0.0]),
        attachment=platform_attachment(z3_params, pose.R, 1),
        g=np.array([-100.0, 0.0, 0.0]),
        l1=horizontal,
        actuated_length=0.0,
        actuated=Z_AXIS,
        revolute=np.array([0.0, 1.0, 0.0]),
        R_spherical=np.eye(3),
    )
    with pytest.raises(SingularLimb):
        build_jacobian(z3_params, pose, [state, state, state])


def test_rank_deficiency_on_degenerate_azimuths():
    # two limbs stacked on the same azimuth leave only two independent
    # constraint wrenches
    bad = MechanismParams(variant=Variant.Z3_PRS, azimuths=(0.0, 0.0, 2.0 * math.pi / 3.0))
    with pytest.raises(RankDeficiency):
        build_jacobian(bad, home_pose(bad))


def test_constraint_projector_helper(params):
    jac = build_jacobian(params, home_pose(params))
    assert np.max(np.abs(constraint_projector(jac.Gc) - jac.P)) < 1e-12


def test_project_task_rate_interface(params):
    jac = build_jacobian(params, home_pose(params))
    rate = project_task_rate(jac.P, np.ones(6))
    assert isinstance(rate, TaskRate)
    again = project_task_rate(jac.P, rate)
    assert again.as_vector() == pytest.approx(rate.as_vector(), abs=1e-12)
    with pytest.raises(ValueError):
        project_task_rate(jac.P, np.ones(4))


def test_homogenized_jacobian_shape_and_convention(params):
    jac = build_jacobian(params, home_pose(params))
    assert jac.J_hom.shape == (3, 3)
    assert jac.moment_convention == MOMENT_CONVENTION
    J, kappa = homogenized_jacobian(jac.Ga, jac.Gc, params)
    assert np.max(np.abs(J - jac.J_hom)) < 1e-12
    assert kappa == jac.kappa
