import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from oracles import (
    loop_closure_closed_form,
    parasitic_second_order,
    path_end_reference,
    path_rates_reference,
)
from pkm import parasitic
from pkm.errors import (
    CellStatus,
    CouplingSingular,
    IntegrationDiverged,
    NoConvergence,
    UnreachablePose,
)
from pkm.geometry import (
    MAX_LENGTH,
    MechanismParams,
    Pose,
    Variant,
    default_params,
    home_height,
    home_pose,
    pose_from_tilts,
    rot_x,
    rot_y,
    rot_z,
)
from pkm.grids import tilt_axes
from pkm.jacobian import build_jacobian
from pkm.kernel import evaluate_grid
from pkm.kinematics import inverse_kinematics
from pkm.parasitic import (
    coupling_matrices,
    integrate_parasitic_path,
    parasitic_map,
    solve_loop_closure,
)
from pkm.stiffness import stiffness_map_rotational

tilts = st.floats(min_value=-0.6, max_value=0.6)

TILT_60 = math.radians(60.0)
# both machines, and one off-stock geometry: a smaller platform on uneven azimuths
PATH_GEOMETRIES = {
    "z3": default_params(Variant.Z3_PRS),
    "a3": default_params(Variant.A3_RPS),
    "off_stock": MechanismParams(
        variant=Variant.Z3_PRS, r_platform=180.0, azimuths=(0.1, 2.2, 4.0)
    ),
}


def test_no_coupling_at_home(params):
    from pkm.geometry import home_pose

    coupling = coupling_matrices(params, home_pose(params))
    assert np.max(np.abs(coupling.C2)) < 1e-12
    assert np.max(np.abs(coupling.C)) < 1e-12


@pytest.mark.parametrize("variant", list(Variant), ids=["z3", "a3"])
def test_twin_limbs_make_the_coupling_singular_at_home(variant):
    # limbs 0 and 1 on one azimuth give C1 two equal rows: det C1 = 0
    params = MechanismParams(variant=variant, azimuths=(0.0, 0.0, 0.5 * math.pi))
    with pytest.raises(CouplingSingular, match="determinant"):
        coupling_matrices(params, home_pose(params))


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
        for state in inverse_kinematics(params, cp.pose):
            assert abs(state.g[1]) < 1e-9


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


@pytest.mark.parametrize("max_deg", [40.0, 60.0])
@pytest.mark.parametrize("name", ["a3", "off_stock"])
def test_integration_matches_closure_on_grids(name, max_deg):
    # criterion 5's bounds, beyond its z3 grid at 40 degrees
    params = PATH_GEOMETRIES[name]
    psi_axis, theta_axis = tilt_axes(9, max_deg)
    worst_t = worst_g = 0.0
    for psi in psi_axis:
        for theta in theta_axis:
            closed = solve_loop_closure(params, psi, theta).parasitic
            tracked = integrate_parasitic_path(params, psi, theta).parasitic
            worst_t = max(worst_t, abs(tracked.x - closed.x), abs(tracked.y - closed.y))
            worst_g = max(worst_g, abs(tracked.gamma - closed.gamma))
    assert worst_t < 1e-6
    assert worst_g < 1e-8


def _homogeneous(rates, r_platform):
    """Path rates with the translations in platform radii, so that one
    relative bound weighs mm and rad alike."""
    return np.array([rates[0] / r_platform, rates[1] / r_platform, rates[2]])


@pytest.mark.parametrize("name", list(PATH_GEOMETRIES))
def test_path_rates_match_numpy_reference(name, rng):
    params = PATH_GEOMETRIES[name]
    geometry = parasitic._path_geometry(params)
    singular = parasitic.COUPLING_TOL * params.r_platform
    for _ in range(1000):
        psi_t, theta_t = rng.uniform(-TILT_60, TILT_60, size=2)
        s = rng.uniform(0.0, 1.0)
        x, y = rng.uniform(-50.0, 50.0, size=2)
        gamma = rng.uniform(-0.1, 0.1)
        got = parasitic._path_rates(geometry, singular, psi_t, theta_t, s, gamma)
        want = path_rates_reference(params, psi_t, theta_t, s, np.array([x, y, gamma]))
        got_h = _homogeneous(got, params.r_platform)
        want_h = _homogeneous(want, params.r_platform)
        assert np.max(np.abs(got_h - want_h)) <= 1e-12 * np.max(np.abs(want_h))


@pytest.mark.parametrize("name", list(PATH_GEOMETRIES))
def test_path_end_points_match_numpy_reference(name):
    params = PATH_GEOMETRIES[name]
    for psi, theta in [(TILT_60, TILT_60), (-TILT_60, TILT_60), (0.3, -0.7), (TILT_60, 0.0)]:
        tracked = integrate_parasitic_path(params, psi, theta).parasitic
        x, y, gamma = path_end_reference(params, psi, theta, steps=200)
        assert abs(tracked.x - x) <= 1e-12
        assert abs(tracked.y - y) <= 1e-12
        assert abs(tracked.gamma - gamma) <= 1e-14


@pytest.mark.parametrize(
    "azimuths",
    [(0.0, 0.0, 0.0), (0.0, math.pi, 0.0), (0.0, 1e-300, 1.0)],
    ids=["all_coincident", "opposite_pair", "denormal_gap"],
)
@pytest.mark.parametrize("variant", list(Variant), ids=["z3", "a3"])
def test_coincident_limbs_make_the_path_coupling_singular(variant, azimuths):
    # two limbs on one constraint plane leave C1 singular; (0, 1e-300, 1.0)
    # has det C1 around 1e-298, which Cramer's rule alone would divide by
    params = MechanismParams(variant=variant, azimuths=azimuths)
    with pytest.raises(IntegrationDiverged, match="coupling became singular"):
        integrate_parasitic_path(params, 0.3, 0.2)


def test_infinite_rate_blows_up_the_state(monkeypatch, z3_params):
    # no input is known to reach this raise before the singular-coupling
    # check fires, so the rates are made infinite by hand
    monkeypatch.setattr(parasitic, "_path_rates", lambda *args: (math.inf, 0.0, 0.0))
    with pytest.raises(IntegrationDiverged, match=r"^state blew up at path parameter 0\.005$"):
        integrate_parasitic_path(z3_params, 0.3, 0.2)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_too_few_steps_leave_the_end_point_off_the_manifold(params, steps):
    # the end-point residuals are 5.5, 0.40 and 0.079 mm
    with pytest.raises(IntegrationDiverged, match="end-point constraint residual"):
        integrate_parasitic_path(params, TILT_60, TILT_60, steps=steps)


@pytest.mark.parametrize("r_platform", [1e-300, 0.5 * MAX_LENGTH])
def test_extreme_scale_paths_raise_only_integration_diverged(r_platform):
    # no bare arithmetic error (ZeroDivisionError, math domain ValueError,
    # OverflowError) escapes the step loop, down to denormal scales and up
    # to the largest lengths MechanismParams accepts
    params = MechanismParams(
        variant=Variant.Z3_PRS,
        r_base=max(350.0, r_platform),
        r_platform=r_platform,
        link_length=max(642.3, 2.0 * r_platform),
    )
    try:
        cp = integrate_parasitic_path(params, 0.5, 0.5, z=0.0)
    except IntegrationDiverged:
        return
    assert all(map(math.isfinite, (cp.parasitic.x, cp.parasitic.y, cp.parasitic.gamma)))


def test_integration_step_count_validation(params):
    for bad in (0, -1, 2.5, math.nan, "3"):
        with pytest.raises(ValueError, match="steps must be a positive integer"):
            integrate_parasitic_path(params, 0.1, 0.1, steps=bad)
    # numpy integers are integers
    numpy_steps = integrate_parasitic_path(params, 0.1, 0.1, steps=np.int64(50)).parasitic
    plain_steps = integrate_parasitic_path(params, 0.1, 0.1, steps=50).parasitic
    assert (numpy_steps.x, numpy_steps.y, numpy_steps.gamma) == (
        plain_steps.x,
        plain_steps.y,
        plain_steps.gamma,
    )


def test_tilt_bounds_enforced(params):
    beyond_range = "tilt targets beyond 60 degrees are outside the supported range"
    for beyond, scalar_message, grid_message in [
        (math.radians(61.0), beyond_range, beyond_range),
        (parasitic.TILT_LIMIT + 1e-12, beyond_range, beyond_range),
        (math.inf, beyond_range, "axes must be finite"),
        (-math.inf, beyond_range, "axes must be finite"),
        (math.nan, "tilt targets must be finite", "axes must be finite"),
    ]:
        with pytest.raises(ValueError, match=f"^{scalar_message}$"):
            solve_loop_closure(params, beyond, 0.0)
        with pytest.raises(ValueError, match=f"^{scalar_message}$"):
            integrate_parasitic_path(params, 0.0, beyond)
        with pytest.raises(ValueError, match=f"^{grid_message}$"):
            evaluate_grid(params, np.array([0.0, beyond]), np.zeros(1), home_height(params))


def test_no_convergence_carries_residual(params, monkeypatch):
    monkeypatch.setattr(parasitic, "CLOSURE_MAX_ITER", 1)
    with pytest.raises(NoConvergence) as excinfo:
        solve_loop_closure(params, 0.6, -0.6)
    assert excinfo.value.residual is not None
    assert excinfo.value.residual > 0.0


# the closure oracle's layouts: stock, uneven, and limbs 0.01 rad apart,
# where C1 is ill-conditioned and damped Newton gives up on some cells
CLOSURE_LAYOUTS = {
    "stock": default_params(Variant.Z3_PRS).azimuths,
    "skewed": (0.0, 2.0, 4.5),
    "clustered": (0.0, 0.01, 0.02),
}


@pytest.mark.parametrize("grid_n, tilt_max_deg", [(121, 40.0), (61, 60.0)])
@pytest.mark.parametrize("r_platform", [17.0, 250.0])
@pytest.mark.parametrize("layout", list(CLOSURE_LAYOUTS))
def test_grid_closure_matches_closed_form(layout, r_platform, grid_n, tilt_max_deg):
    params = MechanismParams(
        Variant.Z3_PRS, r_platform=r_platform, azimuths=CLOSURE_LAYOUTS[layout]
    )
    psi_axis, theta_axis = tilt_axes(grid_n, tilt_max_deg)
    rx = np.repeat(np.array([rot_x(a) for a in psi_axis.tolist()]), grid_n, axis=0)
    ry = np.tile(np.array([rot_y(a) for a in theta_axis.tolist()]), (grid_n, 1, 1))
    u, status = parasitic._solve_closure(params, ry, rx)
    psi, theta = np.repeat(psi_axis, grid_n), np.tile(theta_axis, grid_n)
    exact, C1 = loop_closure_closed_form(params.azimuths, r_platform, psi, theta)
    # the closed form closes every cell, to rounding
    R = Rotation.from_euler("xyz", np.stack((psi, theta, exact[:, 2]), axis=-1)).as_matrix()
    xi = np.array(params.azimuths)
    body = r_platform * np.stack((np.cos(xi), np.sin(xi), np.zeros(3)), axis=-1)
    a = np.einsum("nrc,lc->nlr", R, body)
    rows = -np.sin(xi) * (exact[:, :1] + a[..., 0]) + np.cos(xi) * (exact[:, 1:2] + a[..., 1])
    assert np.abs(rows).max() <= 1e-12 * r_platform
    # Newton stops once every row is below CLOSURE_TOL, so to first order
    # its error is C1^-1 times rows of at most CLOSURE_TOL plus the rounding
    # of either side's rows; the rows are linear in x and y, and the
    # second-order term in gamma is of order r dgamma^2, far below both
    ok = status == CellStatus.OK
    if layout != "clustered":
        assert ok.all()
    rounding = 8.0 * np.finfo(float).eps * (r_platform + np.abs(exact[:, :2]).sum(axis=1))
    gain = np.abs(np.linalg.inv(C1)).sum(axis=2)
    bound = gain * (parasitic.CLOSURE_TOL + 2.0 * rounding)[:, None]
    assert np.all(np.abs(u - exact)[ok] <= bound[ok])


# the closure's layouts and two where C1 is singular: limbs 1e-4 rad apart,
# where |det C1| falls below COUPLING_TOL * r_platform, and twin limbs,
# where it is exactly zero
COUPLING_LAYOUTS = {
    **CLOSURE_LAYOUTS,
    "clustered_1e-4": (0.0, 1e-4, 2e-4),
    "twin_limbs": (0.0, 0.0, 0.5 * math.pi),
}
COUPLING_POSES = [(0.0, 0.0), (0.2, 0.1), (-0.5, 0.4)]


@pytest.mark.parametrize("layout", list(COUPLING_LAYOUTS))
@pytest.mark.parametrize("variant", list(Variant), ids=["z3", "a3"])
def test_coupling_and_path_share_one_singularity_rule(variant, layout):
    params = MechanismParams(variant=variant, azimuths=COUPLING_LAYOUTS[layout])
    for psi, theta in COUPLING_POSES:
        try:
            pose = solve_loop_closure(params, psi, theta).pose
        except NoConvergence:  # as on twin limbs, where gamma is free
            pose = pose_from_tilts(psi, theta, home_height(params))
        try:
            coupling_matrices(params, pose)
            coupling_singular = False
        except CouplingSingular:
            coupling_singular = True
        try:
            integrate_parasitic_path(params, psi, theta)
            path_singular = False
        except IntegrationDiverged as exc:
            path_singular = "coupling became singular" in str(exc)
        assert coupling_singular == path_singular == (layout in ("clustered_1e-4", "twin_limbs"))


@pytest.mark.parametrize("k", [-20, 0, 7, 10, 20])
@pytest.mark.parametrize("variant", list(Variant), ids=["z3", "a3"])
def test_coupling_scales_exactly_with_the_machine(variant, k):
    # lengths times 2^k scale C1's third column, C2 and det C1 by 2^k, all
    # exactly: C's translation rows scale by 2^k and its rotation row stays,
    # and the singularity threshold scales with them
    stock = default_params(variant)
    f = 2.0**k
    scaled = MechanismParams(
        variant=variant,
        r_base=f * stock.r_base,
        r_platform=f * stock.r_platform,
        link_length=f * stock.link_length,
    )
    coupling_matrices(scaled, home_pose(scaled))
    for psi, theta in COUPLING_POSES:
        cp = solve_loop_closure(stock, psi, theta)
        shift = cp.parasitic
        pose = pose_from_tilts(psi, theta, f * cp.z, f * shift.x, f * shift.y, shift.gamma)
        want = coupling_matrices(stock, cp.pose).C
        got = coupling_matrices(scaled, pose).C
        assert got[:2].tobytes() == (f * want[:2]).tobytes()
        assert got[2].tobytes() == want[2].tobytes()


@pytest.mark.parametrize(
    "variant, layout",
    [(Variant.Z3_PRS, "stock"), (Variant.A3_RPS, "stock"), (Variant.A3_RPS, "skewed")],
    ids=["z3", "a3", "a3_skewed"],
)
def test_coupling_matches_lu(variant, layout):
    # Cramer's rule is not backward stable in general (Higham, 2002), so
    # C is held to numpy's LU solve on well-conditioned machines
    params = MechanismParams(variant=variant, azimuths=COUPLING_LAYOUTS[layout])
    rng = np.random.default_rng(31)
    for _ in range(200):
        cp = solve_loop_closure(params, *rng.uniform(-1.0, 1.0, size=2).tolist())
        coupling = coupling_matrices(params, cp.pose)
        lu = np.linalg.solve(coupling.C1, coupling.C2)
        assert np.abs(coupling.C - lu).max() <= 1e-12 * np.abs(coupling.C).max()


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
