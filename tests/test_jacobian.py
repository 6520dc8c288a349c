import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, random_compatible_pose
from oracles import (
    assert_wrench_columns_close,
    constraint_rank_reference,
    kappa_eig,
    projector_pinv,
    rotate_pose_step,
    wrench_matrix_reference,
)
from pkm import jacobian, kernel
from pkm.errors import RankDeficiency, SingularLimb
from pkm.geometry import (
    MechanismParams,
    Pose,
    TaskRate,
    Variant,
    default_params,
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
from pkm.grids import tilt_axes
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
        actuated=np.array([0.0, 0.0, 1.0]),
        revolute=np.array([0.0, 1.0, 0.0]),
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
    # both come from one full SVD of the same Gc
    jac = build_jacobian(params, home_pose(params))
    assert np.array_equal(constraint_projector(jac.Gc), jac.P)


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


@pytest.mark.parametrize("shape", [(6, 2), (6, 4), (5, 3), (3, 6), (18,)], ids=str)
def test_wrench_column_helpers_reject_other_shapes(a3_params, rng, shape):
    # (6, 2) and (6, 4) used to give a rank-3 projector, the others numpy's broadcast error
    jac = build_jacobian(a3_params, random_compatible_pose(a3_params, rng).pose)
    bad = rng.standard_normal(shape)
    with pytest.raises(ValueError, match=r"^Gc must have shape \(6, 3\), got"):
        constraint_projector(bad)
    with pytest.raises(ValueError, match=r"^Ga must have shape \(6, 3\), got"):
        homogenized_jacobian(bad, jac.Gc, a3_params)
    with pytest.raises(ValueError, match=r"^Gc must have shape \(6, 3\), got"):
        homogenized_jacobian(jac.Ga, bad, a3_params)


@pytest.mark.parametrize("shape", [(5, 5), (6, 3), (3, 6), (36,), (6, 6, 1)], ids=str)
def test_project_task_rate_rejects_other_projector_shapes(shape):
    with pytest.raises(ValueError, match=r"^P must have shape \(6, 6\), got"):
        project_task_rate(np.zeros(shape), np.ones(6))


NONFINITE_CALLS = """
import itertools

import numpy as np
from pkm import Variant, build_jacobian, default_params, home_pose
from pkm.jacobian import constraint_projector, homogenized_jacobian, project_task_rate

params = default_params(Variant.A3_RPS)
jac = build_jacobian(params, home_pose(params))
calls = [
    ("Gc", jac.Gc, constraint_projector),
    ("Ga", jac.Ga, lambda Ga: homogenized_jacobian(Ga, jac.Gc, params)),
    ("Gc", jac.Gc, lambda Gc: homogenized_jacobian(jac.Ga, Gc, params)),
    ("P", jac.P, lambda P: project_task_rate(P, np.ones(6))),
]
for value, index in itertools.product((np.inf, -np.inf, np.nan), ((0, 0), (1, 2))):
    for name, good, call in calls:
        bad = np.array(good)
        bad[index] = value
        try:
            call(bad)
            print(name, "accepted")
        except ValueError as exc:
            print(name, exc)
        except Exception as exc:
            print(name, type(exc).__name__)
"""


def test_wrench_column_helpers_reject_nonfinite_entries():
    # an inf in Gc[0, 0] used to hang the rank gate's SVD, so the calls run
    # in a child process that the timeout stops; elsewhere an inf was accepted
    # or raised LinAlgError, and so did a NaN
    run = subprocess.run(
        [sys.executable, "-c", NONFINITE_CALLS],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
        check=False,
    )
    assert run.returncode == 0, run.stderr
    names = ["Gc", "Ga", "Gc", "P"] * 6
    assert run.stdout.splitlines() == [f"{name} {name} entries must be finite" for name in names]


@pytest.mark.parametrize(
    "name, call",
    [
        ("Gc", lambda jac, bad, params: constraint_projector(bad)),
        ("Ga", lambda jac, bad, params: homogenized_jacobian(bad, jac.Gc, params)),
        ("Gc", lambda jac, bad, params: homogenized_jacobian(jac.Ga, bad, params)),
        ("P", lambda jac, bad, params: project_task_rate(bad, np.ones(6))),
    ],
    ids=["projector-Gc", "homogenized-Ga", "homogenized-Gc", "project-P"],
)
def test_matrix_helpers_reject_nan_in_this_process(a3_params, name, call):
    # the child process above guards against a hang on inf; a NaN never
    # hung the SVD, so the NaN case also runs here, where a line tracer sees it
    jac = build_jacobian(a3_params, home_pose(a3_params))
    bad = np.array(getattr(jac, name))
    bad[1, 2] = math.nan
    with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
        call(jac, bad, a3_params)


def kernel_constraint_stacks(monkeypatch, params, grid_n, tilt_max_deg):
    """The unscaled constraint wrenches (N, 6, 3) of every cell that the
    kernel factors on a grid_n^2 grid at the home height."""
    stacks = []
    rank = jacobian._constraint_rank

    def recorded(scaled, Gc, r):
        stacks.append(np.array(Gc))
        return rank(scaled, Gc, r)

    monkeypatch.setattr(jacobian, "_constraint_rank", recorded)
    kernel.evaluate_grid(params, *tilt_axes(grid_n, tilt_max_deg))
    monkeypatch.undo()
    return np.concatenate(stacks)


def near_rank2_stacks(rng, n):
    """Rank-2 constraint stacks plus a perturbation of 1e-16 to 1e-6 of their
    size, every decade many times over, at sizes from 1e-3 to 1e3."""
    rank2 = rng.standard_normal((n, 6, 2)) @ rng.standard_normal((n, 2, 3))
    eps = 10.0 ** np.linspace(-16.0, -6.0, n)
    size = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return size[:, None, None] * (rank2 + eps[:, None, None] * rng.standard_normal((n, 6, 3)))


def scaled_by(Gc, r):
    scaled = np.array(Gc)
    scaled[..., 3:, :] /= r
    return scaled


def test_qr_factor_matches_full_svd_bit_for_bit(monkeypatch, rng):
    # the kernel's J and kappa take the constraint complement from a QR
    # factor where the full SVD used to give it; LAPACK's SVD of a 6 x 3
    # matrix starts from that QR, so the complements agree in every bit
    stacks = [
        rng.standard_normal((4000, 6, 3)),
        near_rank2_stacks(rng, 4000),
        *(kernel_constraint_stacks(monkeypatch, default_params(v), 41, 40.0) for v in Variant),
    ]
    for Gc in stacks:
        for r in (1.0, 250.0):
            scaled = scaled_by(Gc, r)
            Q = np.linalg.qr(scaled, mode="complete")[0]
            U = np.linalg.svd(scaled, full_matrices=True)[0]
            differ = np.count_nonzero((Q[..., 3:] != U[..., 3:]).any(axis=(-2, -1)))
            assert differ == 0, (
                f"{differ} of {len(Gc)} cells: numpy's QR and SVD no longer share their "
                "Householder factor on this LAPACK, and bundle bytes rest on it"
            )


def rank_check_stacks(monkeypatch, rng):
    """Constraint stacks (N, 6, 3) of every size, near rank 2 and at sizes
    where the gate's bound would underflow or overflow, and the kernel's
    cells on needle-sized, stock-sized and nearly singular machines."""
    needle = dict(r_base=1.4e-11, r_platform=1e-11, link_length=1.0)
    machines = [MechanismParams(v, **needle) for v in Variant]
    machines.append(MechanismParams(Variant.Z3_PRS, link_length=105.0))
    machines.append(MechanismParams(Variant.A3_RPS, link_length=100.001))
    return np.concatenate(
        [
            rng.standard_normal((2000, 6, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1, 1)),
            near_rank2_stacks(rng, 4000),
            # sizes where the bound would underflow or overflow, and no size at all
            near_rank2_stacks(rng, 40) * 10.0 ** rng.choice([-160, -110, 110, 150], (40, 1, 1)),
            np.zeros((1, 6, 3)),
            *(kernel_constraint_stacks(monkeypatch, m, 9, 30.0) for m in machines),
        ]
    )


RANK_CHECK_R = pytest.mark.parametrize(
    "r", [1e-11, 1.0, 250.0, 1e6], ids=["1e-11", "1", "stock", "1e6"]
)


@RANK_CHECK_R
def test_gated_rank_check_matches_full_svd_check(monkeypatch, rng, r):
    # the QR gate skips the SVD only where rank loss is ruled out: the
    # verdict, the message and the complement match one full SVD per cell
    stacks = rank_check_stacks(monkeypatch, rng)
    scaled = scaled_by(stacks, r)
    Q, (lost, error, _) = jacobian._constraint_rank(scaled, stacks, r)
    U, want_lost, want_rank = constraint_rank_reference(scaled, stacks, r)
    assert error is RankDeficiency
    assert np.array_equal(lost, want_lost)
    assert np.array_equal(Q[~lost][..., 3:], U[~lost][..., 3:])
    assert 0 < np.count_nonzero(lost) < len(stacks)
    for cell in np.flatnonzero(lost)[:: max(1, np.count_nonzero(lost) // 200)]:
        _, (one_lost, _, message) = jacobian._constraint_rank(scaled[cell], stacks[cell], r)
        assert one_lost
        assert message() == f"constraint wrenches span only rank {want_rank[cell]}"


@RANK_CHECK_R
def test_one_pose_rank_check_matches_the_stack_call(monkeypatch, rng, r):
    # one pose takes one full SVD where a stack takes the QR gate: every
    # cell gets the stack's complement bits, verdict and message
    stacks = rank_check_stacks(monkeypatch, rng)
    scaled = scaled_by(stacks, r)
    Q, (lost, _, _) = jacobian._constraint_rank(scaled, stacks, r)
    assert 0 < np.count_nonzero(lost) < len(stacks)
    for cell in range(len(stacks)):
        U, (one_lost, error, message) = jacobian._constraint_rank(scaled[cell], stacks[cell], r)
        assert U[:, 3:].tobytes() == Q[cell, :, 3:].tobytes(), cell
        assert error is RankDeficiency
        assert one_lost == lost[cell], cell
        if one_lost:
            one = slice(cell, cell + 1)
            _, (_, _, stack_message) = jacobian._constraint_rank(scaled[one], stacks[one], r)
            assert message() == stack_message()


def test_one_pose_makes_no_qr_call(monkeypatch, params, rng):
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    for pose in (home_pose(params), random_compatible_pose(params, rng).pose):
        jac = build_jacobian(params, pose)
        homogenized_jacobian(jac.Ga, jac.Gc, params)
        constraint_projector(jac.Gc)
    assert calls == []
    stack = np.stack([jac.Gc, 2.0 * jac.Gc])
    jacobian._constraint_rank(stack, stack, 1.0)
    assert calls == [(2, 6, 3)]
