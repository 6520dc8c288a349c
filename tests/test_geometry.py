import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pkm.geometry import (
    MAX_LENGTH,
    MechanismParams,
    Pose,
    StiffnessCoeffs,
    TaskRate,
    Variant,
    base_anchor,
    default_params,
    home_height,
    home_pose,
    limb_azimuth,
    orientation_from_tilts,
    platform_attachment,
    pose_from_tilts,
    rot_x,
    rot_y,
    rot_z,
)
from oracles import rotation_from_tilts_scipy

angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)


@given(angles, angles, angles)
def test_orientation_matches_scipy(psi, theta, gamma):
    R = orientation_from_tilts(psi, theta, gamma)
    R_ref = rotation_from_tilts_scipy(psi, theta, gamma)
    assert np.max(np.abs(R - R_ref)) < 1e-13


@given(angles)
def test_elementary_rotations_are_proper(angle):
    for R in (rot_x(angle), rot_y(angle), rot_z(angle)):
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-14
        assert abs(np.linalg.det(R) - 1.0) < 1e-14


def test_home_height_default_geometry(z3_params):
    expected = math.sqrt(642.3**2 - (350.0 - 250.0) ** 2)
    assert home_height(z3_params) == pytest.approx(expected, rel=1e-15)


def test_platform_attachments_at_identity(z3_params):
    a1 = platform_attachment(z3_params, np.eye(3), 1)
    a2 = platform_attachment(z3_params, np.eye(3), 2)
    a3 = platform_attachment(z3_params, np.eye(3), 3)
    assert a1 == pytest.approx([250.0, 0.0, 0.0], abs=1e-12)
    # second limb sits at 120 deg: (-r/2, r*sqrt(3)/2)
    assert a2 == pytest.approx([-125.0, 125.0 * math.sqrt(3.0), 0.0], abs=1e-12)
    assert a3 == pytest.approx([-125.0, -125.0 * math.sqrt(3.0), 0.0], abs=1e-12)
    assert a1 + a2 + a3 == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_attachment_rotates_with_platform(z3_params, rng):
    R = orientation_from_tilts(0.3, -0.2, 0.1)
    a = platform_attachment(z3_params, R, 2)
    assert np.linalg.norm(a) == pytest.approx(250.0, rel=1e-14)
    assert a == pytest.approx(R @ platform_attachment(z3_params, np.eye(3), 2), abs=1e-12)


def test_base_anchors(params):
    for limb in (1, 2, 3):
        anchor = base_anchor(params, limb)
        assert np.linalg.norm(anchor) == pytest.approx(350.0, rel=1e-14)
        assert anchor[2] == 0.0


def test_limb_azimuth_rejects_bad_index(params):
    with pytest.raises(ValueError):
        limb_azimuth(params, 0)
    with pytest.raises(ValueError):
        limb_azimuth(params, 4)


def test_home_pose(params):
    pose = home_pose(params)
    assert pose.p == pytest.approx([0.0, 0.0, home_height(params)])
    assert np.array_equal(pose.R, np.eye(3))


def test_pose_rejects_bad_rotation():
    with pytest.raises(ValueError):
        Pose(p=np.zeros(3), R=np.eye(3) * 2.0)
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        Pose(p=np.zeros(3), R=reflection)
    with pytest.raises(ValueError):
        Pose(p=np.array([0.0, 0.0, np.nan]), R=np.eye(3))
    with pytest.raises(ValueError):
        Pose(p=np.zeros(2), R=np.eye(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e155])
def test_pose_rejects_large_rotation_entries_before_the_product(scale):
    # R.T @ R overflows: the entry bound must reject R before the product
    R = np.array([[scale, scale, 0.0], [scale, -scale, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="R is not orthonormal"):
        Pose(p=np.zeros(3), R=R)


def test_pose_arrays_are_readonly():
    pose = pose_from_tilts(0.1, 0.2, 600.0)
    with pytest.raises(ValueError):
        pose.p[0] = 1.0
    with pytest.raises(ValueError):
        pose.R[0, 0] = 1.0


def test_params_validation():
    with pytest.raises(ValueError):
        MechanismParams(variant="z3")  # must be the enum, not its value
    with pytest.raises(ValueError):
        MechanismParams(variant=Variant.Z3_PRS, r_base=-1.0)
    with pytest.raises(ValueError):
        MechanismParams(variant=Variant.Z3_PRS, link_length=50.0)
    with pytest.raises(ValueError):
        MechanismParams(variant=Variant.Z3_PRS, azimuths=(0.0, 1.0))


@pytest.mark.parametrize("name", ["r_base", "r_platform", "link_length"])
def test_params_reject_lengths_beyond_max(name):
    # home_height squares the lengths, which would overflow near 1.3e154
    with pytest.raises(ValueError, match=f"{name} must be at most"):
        MechanismParams(variant=Variant.Z3_PRS, **{name: 1e155})
    # the bound itself is accepted
    MechanismParams(Variant.Z3_PRS, r_base=MAX_LENGTH, r_platform=MAX_LENGTH, link_length=MAX_LENGTH)


def test_layout_arrays_are_readonly(params):
    layout = params.layout
    for name in ("cos", "sin", "rz", "body", "anchor", "tangent"):
        with pytest.raises(ValueError):
            getattr(layout, name)[0] = 1.0


OFF_STOCK = {"r_platform": 180.0, "azimuths": (0.1, 2.2, 4.0)}


@pytest.mark.parametrize(
    "params",
    [
        default_params(Variant.Z3_PRS),
        default_params(Variant.A3_RPS),
        MechanismParams(Variant.Z3_PRS, **OFF_STOCK),
        MechanismParams(Variant.A3_RPS, **OFF_STOCK),
    ],
    ids=["z3", "a3", "z3-off-stock", "a3-off-stock"],
)
def test_layout_rz_is_rot_z_of_each_azimuth(params):
    rz = params.layout.rz
    assert rz.shape == (3, 3, 3) and not rz.flags.writeable
    for limb, xi in enumerate(params.azimuths):
        # bit for bit: inverse kinematics reads it in place of rot_z(xi)
        assert rz[limb].tobytes() == rot_z(xi).tobytes()


def test_layout_is_built_from_math_trig():
    params = MechanismParams(variant=Variant.A3_RPS, azimuths=(0.1, 2.2, 4.0), r_platform=180.0)
    layout = params.layout
    assert layout.cos.tolist() == [math.cos(xi) for xi in params.azimuths]
    assert layout.sin.tolist() == [math.sin(xi) for xi in params.azimuths]
    for limb, (c, s) in enumerate(zip(layout.cos.tolist(), layout.sin.tolist())):
        assert layout.body[limb].tolist() == [180.0 * c, 180.0 * s, 0.0]
        assert layout.anchor[limb].tolist() == [350.0 * c, 350.0 * s, 0.0]
        assert layout.tangent[limb].tolist() == [-s, c, 0.0]


def test_layout_follows_replace(z3_params):
    stock = z3_params.layout
    moved = dataclasses.replace(z3_params, azimuths=(0.1, 2.2, 4.0), r_platform=180.0)
    assert moved.layout is not stock
    assert moved.layout.cos.tolist() == [math.cos(xi) for xi in (0.1, 2.2, 4.0)]
    assert moved.layout.body[0].tolist() == [180.0 * math.cos(0.1), 180.0 * math.sin(0.1), 0.0]
    assert z3_params.layout is stock


def test_layout_stays_readonly_through_copies(params):
    params.layout
    for twin in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params), copy.copy(params)):
        assert twin == params
        assert not twin.layout.body.flags.writeable
        assert np.array_equal(twin.layout.body, params.layout.body)


def test_layout_leaves_equality_and_hash_alone(params):
    fresh = dataclasses.replace(params)
    before = hash(params)
    assert params.layout is params.layout
    assert params == fresh and fresh == params
    assert hash(params) == before == hash(fresh)


def test_stroke_limits_per_variant(z3_params, a3_params):
    assert z3_params.stroke_limits() == (-300.0, 300.0)
    lo, hi = a3_params.stroke_limits()
    assert lo == pytest.approx(642.3 - 300.0)
    assert hi == pytest.approx(642.3 + 300.0)
    custom = MechanismParams(variant=Variant.Z3_PRS, stroke_min=-10.0, stroke_max=20.0)
    assert custom.stroke_limits() == (-10.0, 20.0)
    with pytest.raises(ValueError):
        MechanismParams(variant=Variant.Z3_PRS, stroke_min=5.0, stroke_max=-5.0).stroke_limits()


def test_params_reject_empty_or_nan_stroke_interval():
    for lo, hi in ((10.0, 5.0), (5.0, 5.0), (math.nan, 5.0), (-5.0, math.nan)):
        with pytest.raises(ValueError, match="empty stroke interval"):
            MechanismParams(variant=Variant.Z3_PRS, stroke_min=lo, stroke_max=hi)


def test_params_name_the_collapsed_default_stroke_interval():
    # link_length +/- 300 rounds to link_length itself above 2**62 mm
    lengths = {"r_base": 0.56e150, "r_platform": 0.4e150, "link_length": 1e150}
    for given in ({}, {"stroke_min": 1e150}, {"stroke_max": 1e150}):
        with pytest.raises(ValueError, match=r"default stroke interval .* set stroke_min and"):
            MechanismParams(Variant.A3_RPS, **lengths, **given)
    # a given limit that leaves an interval with the collapsed default is usable
    usable = MechanismParams(Variant.A3_RPS, **lengths, stroke_min=0.0)
    assert usable.stroke_limits() == (0.0, 1e150)
    MechanismParams(Variant.Z3_PRS, **lengths)
    # 2**62 is the last length whose default interval stays open
    needle = {"r_base": 1.4, "r_platform": 1.0}
    MechanismParams(Variant.A3_RPS, **needle, link_length=2.0**62)
    with pytest.raises(ValueError, match="default stroke interval"):
        MechanismParams(Variant.A3_RPS, **needle, link_length=np.nextafter(2.0**62, math.inf))
    with pytest.raises(ValueError, match="empty stroke interval"):
        MechanismParams(Variant.A3_RPS, stroke_min=1e4)


def test_stiffness_coeffs_validation():
    with pytest.raises(ValueError):
        StiffnessCoeffs(k_carriage=0.0)
    with pytest.raises(ValueError):
        StiffnessCoeffs(k_sz=-2.0)
    with pytest.raises(ValueError):
        StiffnessCoeffs(k_revolute=math.inf)


def test_stiffness_coeffs_cache_their_rates():
    coeffs = StiffnessCoeffs(k_carriage=2.0e6, k_revolute=3.0e6, k_limb_body=5.0e6, k_sx=7.0, k_sy=8.0)
    assert coeffs.actuation == 1.0 / (1.0 / 2.0e6 + 1.0 / 3.0e6 + 1.0 / 5.0e6)
    assert coeffs.spherical.tolist() == np.diag([7.0, 8.0, 1.0e6]).tolist()
    before = hash(coeffs)
    assert coeffs.spherical is coeffs.spherical
    for twin in (pickle.loads(pickle.dumps(coeffs)), copy.deepcopy(coeffs), copy.copy(coeffs)):
        assert twin == coeffs and hash(twin) == before
        assert not twin.spherical.flags.writeable
    with pytest.raises(ValueError):
        coeffs.spherical[0, 0] = 1.0


def test_task_rate_round_trip(rng):
    xdot = rng.standard_normal(6)
    rate = TaskRate.from_vector(xdot)
    assert np.array_equal(rate.as_vector(), xdot)
    assert np.array_equal(rate.v, xdot[:3])
    assert np.array_equal(rate.w, xdot[3:])
    with pytest.raises(ValueError):
        TaskRate.from_vector(np.zeros(5))


def test_default_params_variants():
    for variant in Variant:
        p = default_params(variant)
        assert p.variant is variant
        assert p.link_length == 642.3
        assert p.stiffness.k_carriage == 1.0e6
