import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_compatible_pose
from oracles import limb_rates_reference, spherical_rate_reference, stiffness_rank1
from pkm import kernel
from pkm.errors import SingularStiffness
from pkm.geometry import (
    MechanismParams,
    Pose,
    StiffnessCoeffs,
    Variant,
    default_params,
    home_height,
    home_pose,
    rot_z,
)
from pkm.kinematics import inverse_kinematics
from pkm.parasitic import solve_loop_closure
from pkm.stiffness import (
    STIFFNESS_FIELDS,
    assemble_stiffness,
    deflection_under_load,
    stiffness_map_parasitic,
    stiffness_map_rotational,
)
from pkm.grids import tilt_axes


def test_series_rates_with_equal_coefficients(params):
    pose = home_pose(params)
    states = inverse_kinematics(params, pose)
    result = assemble_stiffness(params, pose, states)
    reference = limb_rates_reference(params, [state.l1 for state in states])
    for limb, ls in enumerate(result.limb_stiffness):
        for k_a, k_c in ((ls.k_a, ls.k_c), (reference[limb], reference[3 + limb])):
            # three equal springs in series, and two in series
            assert k_a == pytest.approx(1.0e6 / 3.0, rel=1e-12)
            assert k_c == pytest.approx(5.0e5, rel=1e-12)


def test_spherical_stiffness_picks_frame_axes():
    params = MechanismParams(
        variant=Variant.Z3_PRS,
        stiffness=StiffnessCoeffs(k_sx=2.0e6, k_sy=3.0e6, k_sz=4.0e6),
    )
    S = np.diag([2.0e6, 3.0e6, 4.0e6])
    assert spherical_rate_reference(S, np.eye(3), [1.0, 0.0, 0.0]) == 2.0e6
    assert spherical_rate_reference(S, np.eye(3), [0.0, 1.0, 0.0]) == 3.0e6
    # rotating the joint frame by 90 deg about z swaps which coefficient
    # the world x axis sees
    R = rot_z(0.5 * math.pi)
    assert spherical_rate_reference(S, R, [1.0, 0.0, 0.0]) == pytest.approx(3.0e6, rel=1e-12)
    # and the limbs' constraint rates weight the coefficients as the reference does
    pose = home_pose(params)
    states = inverse_kinematics(params, pose)
    reference = limb_rates_reference(params, [state.l1 for state in states])
    got = [ls.k_c for ls in assemble_stiffness(params, pose, states).limb_stiffness]
    assert got == pytest.approx(reference[3:], rel=1e-12)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_limb_rates_match_reference(variant, rng):
    # unequal coefficients and azimuths, so that every limb weights them differently
    params = MechanismParams(
        variant,
        azimuths=(0.1, 2.2, 4.0),
        stiffness=StiffnessCoeffs(k_carriage=3.0e6, k_sx=2.0e6, k_sy=7.0e5, k_sz=4.0e5),
    )
    for _ in range(20):
        pose = random_compatible_pose(params, rng).pose
        states = inverse_kinematics(params, pose)
        result = assemble_stiffness(params, pose, states)
        got = [ls.k_a for ls in result.limb_stiffness] + [ls.k_c for ls in result.limb_stiffness]
        want = limb_rates_reference(params, [state.l1 for state in states])
        assert np.all(np.abs(np.array(got) - want) <= 1e-12 * want)


def _home_diagonals(params):
    """Hand-derived home stiffness diagonals from the limb line geometry."""
    z0 = home_height(params)
    L = params.link_length
    r = params.r_platform
    k_a = 1.0e6 / 3.0
    k_c = 5.0e5
    if params.variant is Variant.Z3_PRS:
        unit = 1.0 / z0  # active wrench divides by l1 . z
    else:
        unit = 1.0 / L  # active wrench divides by |l1|
    radial = 100.0 * unit
    kp_lateral = k_a * 1.5 * radial**2 + k_c * 1.5
    kpz = 3.0 * k_a * (z0 * unit) ** 2
    ka_tilt = k_a * 1.5 * (r * z0 * unit) ** 2
    kaz = k_c * 3.0 * r**2
    return {
        "kpx": kp_lateral,
        "kpy": kp_lateral,
        "kpz": kpz,
        "kax": ka_tilt,
        "kay": ka_tilt,
        "kaz": kaz,
    }


def test_home_diagonals_match_hand_derivation(params):
    result = assemble_stiffness(params, home_pose(params))
    expected = _home_diagonals(params)
    for name in STIFFNESS_FIELDS:
        assert getattr(result, name) == pytest.approx(expected[name], rel=1e-12), name
    if params.variant is Variant.Z3_PRS:
        # vertical rails carry a unit z force each: exact round number
        assert result.kpz == pytest.approx(1.0e6, rel=1e-12)
    assert result.kaz == pytest.approx(9.375e10, rel=1e-12)


def test_matrix_matches_rank_one_sum(params, rng):
    for _ in range(25):
        pose = random_compatible_pose(params, rng).pose
        result = assemble_stiffness(params, pose)
        rates = [ls.k_a for ls in result.limb_stiffness] + [
            ls.k_c for ls in result.limb_stiffness
        ]
        K_ref = stiffness_rank1(result.jacobian.G, rates)
        scale = np.max(np.abs(K_ref))
        assert np.max(np.abs(result.K - K_ref)) < 1e-10 * scale


def test_matrix_symmetric_and_psd(params, rng):
    for _ in range(25):
        pose = random_compatible_pose(params, rng).pose
        K = assemble_stiffness(params, pose).K
        scale = np.max(np.abs(K))
        assert np.max(np.abs(K - K.T)) < 1e-12 * scale
        eigenvalues = np.linalg.eigvalsh(K)
        assert eigenvalues.min() > -1e-12 * scale


def test_unequal_coefficients_still_consistent(rng):
    params = MechanismParams(
        variant=Variant.A3_RPS,
        stiffness=StiffnessCoeffs(
            k_carriage=8.0e5,
            k_revolute=1.2e6,
            k_limb_body=2.0e6,
            k_sx=5.0e5,
            k_sy=7.0e5,
            k_sz=9.0e5,
        ),
    )
    pose = random_compatible_pose(params, rng).pose
    result = assemble_stiffness(params, pose)
    rates = [ls.k_a for ls in result.limb_stiffness] + [
        ls.k_c for ls in result.limb_stiffness
    ]
    K_ref = stiffness_rank1(result.jacobian.G, rates)
    assert np.max(np.abs(result.K - K_ref)) < 1e-10 * np.max(np.abs(K_ref))
    assert np.linalg.eigvalsh(result.K).min() > -1e-12 * np.max(np.abs(result.K))


def test_doubling_coefficients_doubles_stiffness(params, rng):
    cp = random_compatible_pose(params, rng)
    base = assemble_stiffness(params, cp.pose)
    doubled_coeffs = StiffnessCoeffs(
        **{name: 2.0e6 for name in ("k_carriage", "k_revolute", "k_limb_body", "k_sx", "k_sy", "k_sz")}
    )
    stiffer = replace(params, stiffness=doubled_coeffs)
    double = assemble_stiffness(stiffer, cp.pose)
    assert np.max(np.abs(double.K - 2.0 * base.K)) < 1e-9 * np.max(np.abs(base.K))
    load = np.array([40.0, -25.0, 60.0, 500.0, -300.0, 200.0])
    d1 = deflection_under_load(base, load).platform
    d2 = deflection_under_load(double, load).platform
    assert d2 == pytest.approx(0.5 * d1, rel=1e-9)


def test_deflection_under_vertical_force_at_home(z3_params):
    result = assemble_stiffness(z3_params, home_pose(z3_params))
    deflection = deflection_under_load(result, np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]))
    # rails react a pure vertical force without any cross motion
    assert deflection.platform == pytest.approx(
        [0.0, 0.0, 1.0e-6, 0.0, 0.0, 0.0], abs=1e-12
    )


def test_deflection_stays_feasible_and_balances_load(params, rng):
    cp = random_compatible_pose(params, rng)
    result = assemble_stiffness(params, cp.pose)
    load = rng.standard_normal(6) * np.array([50.0, 50.0, 50.0, 500.0, 500.0, 500.0])
    deflection = deflection_under_load(result, load)
    P = result.jacobian.P
    assert P @ deflection.platform == pytest.approx(deflection.platform, abs=1e-15)
    basis = result.jacobian.feasible_basis
    residual = basis.T @ (result.K @ deflection.platform - load)
    assert np.max(np.abs(residual)) < 1e-8 * np.linalg.norm(load)
    assert deflection.joints == pytest.approx(
        result.jacobian.G.T @ deflection.platform, abs=1e-15
    )
    with pytest.raises(ValueError):
        deflection_under_load(result, np.zeros(3))


def _broken_stiffness(K: str, result):
    if K == "zero":
        return np.zeros((6, 6))
    if K == "rank-one":
        b = result.jacobian.feasible_basis[:, 0]
        return 1.0e6 * np.outer(b, b)
    broken = result.K.copy()
    broken[2, 4] = broken[4, 2] = {"nan": math.nan, "inf": math.inf}[K]
    return broken


# under the error::RuntimeWarning filter, so that no numpy warning stands
# in for the library's own error
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("K", ["zero", "rank-one", "nan", "inf"])
def test_singular_stiffness_is_raised(params, K):
    result = assemble_stiffness(params, home_pose(params))
    broken = replace(result, K=_broken_stiffness(K, result))
    with pytest.raises(SingularStiffness):
        deflection_under_load(broken, np.ones(6))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_deflection_rejects_non_finite_wrench(params, value):
    result = assemble_stiffness(params, home_pose(params))
    wrench = np.ones(6)
    wrench[4] = value
    with pytest.raises(ValueError, match="finite"):
        deflection_under_load(result, wrench)


def test_relabel_rotation_preserves_invariants(params, rng):
    Q = rot_z(2.0 * math.pi / 3.0)
    cp = random_compatible_pose(params, rng, max_tilt_deg=30.0)
    rotated = Pose(p=Q @ cp.pose.p, R=Q @ cp.pose.R @ Q.T)
    a = assemble_stiffness(params, cp.pose)
    b = assemble_stiffness(params, rotated)
    # the transformation acts block-diagonally, so z entries and the
    # lateral traces are preserved while kpx and kpy mix
    assert b.kpz == pytest.approx(a.kpz, rel=1e-9)
    assert b.kaz == pytest.approx(a.kaz, rel=1e-9)
    assert b.kpx + b.kpy == pytest.approx(a.kpx + a.kpy, rel=1e-9)
    assert b.kax + b.kay == pytest.approx(a.kax + a.kay, rel=1e-9)
    assert np.trace(b.K) == pytest.approx(np.trace(a.K), rel=1e-9)


def test_diagonal_measures_keys(params):
    result = assemble_stiffness(params, home_pose(params))
    measures = result.diagonal_measures()
    assert tuple(measures) == STIFFNESS_FIELDS
    assert measures["kpz"] == result.kpz


def test_rotational_map_center_cell(params):
    psi_axis, theta_axis = tilt_axes(5, 20.0)
    fields = stiffness_map_rotational(params, psi_axis, theta_axis)
    assert set(fields) == {"x_par_mm", "y_par_mm", *STIFFNESS_FIELDS}
    home = assemble_stiffness(params, home_pose(params))
    for name in STIFFNESS_FIELDS:
        assert fields[name].values[2, 2] == pytest.approx(getattr(home, name), rel=1e-12)
    assert fields["x_par_mm"].values[2, 2] == pytest.approx(0.0, abs=1e-12)
    # off-center cells carry the parasitic shift of their compatible pose
    cp = solve_loop_closure(params, psi_axis[4], theta_axis[1])
    assert fields["x_par_mm"].values[4, 1] == pytest.approx(cp.parasitic.x, abs=1e-12)
    assert fields["y_par_mm"].values[4, 1] == pytest.approx(cp.parasitic.y, abs=1e-12)


@pytest.mark.parametrize(
    "params, n, max_deg, empty",
    [
        (default_params(Variant.Z3_PRS), 4, 25.0, 0),
        (default_params(Variant.A3_RPS), 4, 25.0, 0),
        # a short link empties stiffness cells whose parasitic shift solved
        (MechanismParams(variant=Variant.Z3_PRS, link_length=150.0), 9, 40.0, 46),
    ],
    ids=["z3", "a3", "z3-short-link"],
)
def test_parasitic_keyed_samples_match_rotational(params, n, max_deg, empty):
    psi_axis, theta_axis = tilt_axes(n, max_deg)
    rotational = stiffness_map_rotational(params, psi_axis, theta_axis)
    solved = rotational["kpx"].mask
    assert rotational["x_par_mm"].mask.all() and int((~solved).sum()) == empty
    samples = stiffness_map_parasitic(params, psi_axis, theta_axis)
    # one triple per cell with stiffness values, in row-major order
    expected = [
        (
            rotational["x_par_mm"].values[i, j],
            rotational["y_par_mm"].values[i, j],
            {name: rotational[name].values[i, j] for name in STIFFNESS_FIELDS},
        )
        for i, j in np.argwhere(solved).tolist()
    ]
    assert samples == expected
    assert all(list(values) == list(STIFFNESS_FIELDS) for _, _, values in samples)
    assert all(type(v) is float for x, y, values in samples for v in (x, y, *values.values()))
    # the parasitic footprint is millimetric even at 25 deg commands
    xs = np.array([s[0] for s in samples])
    ys = np.array([s[1] for s in samples])
    assert np.max(np.hypot(xs, ys)) < 0.2 * 250.0


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_smallest_coefficients_give_finite_stiffness(variant, rng):
    # every coefficient at the floor: the reciprocals in the series sums
    # stay finite, so K and the kernel's columns are finite and positive
    # (the suite turns RuntimeWarnings into errors)
    fields = ("k_carriage", "k_revolute", "k_limb_body", "k_sx", "k_sy", "k_sz")
    params = replace(
        default_params(variant), stiffness=StiffnessCoeffs(**dict.fromkeys(fields, 1e-300))
    )
    for pose in (home_pose(params), random_compatible_pose(params, rng).pose):
        result = assemble_stiffness(params, pose)
        assert np.all(np.isfinite(result.K))
        assert all(value > 0.0 for value in result.diagonal_measures().values())
    table = kernel.evaluate_grid(params, *tilt_axes(5, 30.0))
    for name in STIFFNESS_FIELDS:
        values = table[name].values
        assert np.all(np.isfinite(values)) and np.all(values > 0.0), name
