"""The batched cell kernel against the public scalar chain, cell by cell.

The reference runs solve_loop_closure -> inverse_kinematics ->
build_jacobian -> assemble_stiffness on every cell and records which of
CELL_ERRORS each stage raises.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from pkm import kernel, parasitic
from pkm.errors import CELL_ERRORS, CellStatus
from pkm.geometry import (
    MechanismParams,
    StiffnessCoeffs,
    Variant,
    default_params,
    home_height,
    pose_from_tilts,
)
from pkm.grids import tilt_axes
from pkm.jacobian import build_jacobian
from pkm.kinematics import inverse_kinematics
from pkm.parasitic import solve_loop_closure
from pkm.stiffness import assemble_stiffness

from oracles import (
    assert_wrench_columns_close,
    parasitic_second_order,
    rotation_from_tilts_scipy,
    wrench_matrix_reference,
)

OFFSETS = (0.0, -50.0, -100.0)
KAPPA_MIN_INV = 0.05
N_RECORD = len(kernel.RECORD)


def scalar_table(params, psi_axis, theta_axis, z0):
    """evaluate_grid's values, and per stage the error class raised (None if none)."""
    values = np.full((len(psi_axis), len(theta_axis), N_RECORD + len(OFFSETS)), np.nan)
    values[..., N_RECORD:] = 0.0
    errors = np.full(values.shape[:2] + (1 + len(OFFSETS),), None, dtype=object)
    lo, hi = params.stroke_limits()
    for i, psi in enumerate(psi_axis):
        for j, theta in enumerate(theta_axis):
            try:
                shift = solve_loop_closure(params, psi, theta, z0).parasitic
            except CELL_ERRORS as exc:
                errors[i, j] = type(exc)
                continue
            values[i, j, :3] = shift.x, shift.y, shift.gamma
            for k, dz in enumerate(OFFSETS):
                pose = pose_from_tilts(psi, theta, z0 + dz, shift.x, shift.y, shift.gamma)
                try:
                    states = inverse_kinematics(params, pose)
                    jac = build_jacobian(params, pose, states)
                except CELL_ERRORS as exc:
                    errors[i, j, 1 + k] = type(exc)
                    continue
                if k == 0:
                    values[i, j, 3] = jac.kappa
                    result = assemble_stiffness(params, pose, states, jac)
                    values[i, j, 4:N_RECORD] = list(result.diagonal_measures().values())
                strokes_ok = all(lo <= state.actuated_length <= hi for state in states)
                values[i, j, N_RECORD + k] = strokes_ok and 1.0 / jac.kappa >= KAPPA_MIN_INV
    return values, errors


def assert_matches_scalar(params, psi_axis, theta_axis, z0):
    table = kernel.evaluate_grid(params, psi_axis, theta_axis, z0, OFFSETS, KAPPA_MIN_INV)
    values, errors = scalar_table(params, psi_axis, theta_axis, z0)
    # CellStatus code k > 0 stands for CELL_ERRORS[k - 1]
    mapped = np.array((None, *CELL_ERRORS), dtype=object)[table.status]
    assert np.array_equal(mapped, errors)
    assert np.array_equal(np.isnan(table.values), np.isnan(values))
    # the closure is the scalar one bit for bit: the grid means of the odd
    # fields y and gamma cancel to rounding noise, where any bit would show
    assert np.array_equal(table.values[..., :3], values[..., :3], equal_nan=True)
    for n in range(3, N_RECORD):
        got, want = table.values[..., n], values[..., n]
        valid = ~np.isnan(want)
        if not valid.any():
            continue
        scale = np.abs(want[valid]).max()
        diff = np.abs(got[valid] - want[valid])
        assert np.all(diff <= 1e-9 * np.abs(want[valid]) + 1e-12 * scale), kernel.RECORD[n]
    assert np.array_equal(table.values[..., N_RECORD:], values[..., N_RECORD:])
    return table


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_kernel_matches_scalar_chain_on_stock_grid(variant):
    params = default_params(variant)
    table = assert_matches_scalar(params, *tilt_axes(41, 40.0), home_height(params))
    assert np.all(table.status == CellStatus.OK)


@pytest.mark.parametrize(
    "params, grid_n, tilt_max_deg, z0, expected",
    [
        (MechanismParams(Variant.Z3_PRS, link_length=105.0), 5, 30.0, None, {"UNREACHABLE"}),
        (default_params(Variant.Z3_PRS), 9, 60.0, None, set()),
        (default_params(Variant.A3_RPS), 9, 60.0, None, set()),
        (MechanismParams(Variant.Z3_PRS, stroke_min=-40.0, stroke_max=40.0), 9, 40.0, None, set()),
        # the constraint springs depend on the spherical joints' orientation
        (
            MechanismParams(Variant.A3_RPS, stiffness=StiffnessCoeffs(k_sx=2.0e6, k_sz=5.0e5)),
            9,
            40.0,
            None,
            set(),
        ),
        # two limbs on one azimuth: C1 singular off home, wrenches of rank 2
        (
            MechanismParams(Variant.Z3_PRS, azimuths=(0.0, 0.0, 0.5 * math.pi)),
            5,
            30.0,
            None,
            {"NO_CONVERGENCE", "RANK_DEFICIENCY"},
        ),
        # limbs 0.01 rad apart: damped Newton steps, some cells never converge
        (
            MechanismParams(Variant.Z3_PRS, azimuths=(0.0, 0.01, 0.02)),
            5,
            30.0,
            None,
            {"NO_CONVERGENCE"},
        ),
        # platform in the base plane: flat struts, whose actuation map vanishes
        # at home, and with equal radii zero-length struts there
        (default_params(Variant.A3_RPS), 5, 10.0, 0.0, {"SINGULAR_CONFIGURATION"}),
        (
            MechanismParams(Variant.A3_RPS, r_base=250.0),
            5,
            10.0,
            0.0,
            {"UNREACHABLE", "SINGULAR_CONFIGURATION"},
        ),
        # links just longer than r_base - r_platform: the rail head closes
        # only near home, the struts stretch to reach every cell
        (MechanismParams(Variant.Z3_PRS, link_length=100.001), 5, 30.0, None, {"UNREACHABLE"}),
        (MechanismParams(Variant.A3_RPS, link_length=100.001), 5, 30.0, None, set()),
        # a needle 1e11 times longer than its radii: the revolute axes span two
        # force directions, so the unscaled Gc's third singular value is that
        # of its 1e-11 moments, and only the unscaled rank check fails it
        *(
            (
                MechanismParams(v, r_base=1.4e-11, r_platform=1e-11, link_length=1.0),
                5,
                30.0,
                None,
                {"RANK_DEFICIENCY"},
            )
            for v in Variant
        ),
    ],
    ids=[
        "short-link",
        "z3-60deg",
        "a3-60deg",
        "stroke-cut",
        "spherical-stiffness",
        "twin-limbs",
        "clustered-limbs",
        "flat-struts",
        "coincident-hinge",
        "z3-near-short-link",
        "a3-near-short-link",
        "z3-needle",
        "a3-needle",
    ],
)
def test_kernel_matches_scalar_chain_on_edge_grids(params, grid_n, tilt_max_deg, z0, expected):
    z0 = home_height(params) if z0 is None else z0
    table = assert_matches_scalar(params, *tilt_axes(grid_n, tilt_max_deg), z0)
    failures = {CellStatus(code).name for code in np.unique(table.status)} - {"OK"}
    assert failures == expected
    # the stroke-cut grid loses workspace cells to its limits alone
    inside = table.values[..., N_RECORD:]
    if params.stroke_max is not None:
        assert 0.0 < inside.sum() < inside.size


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_stroke_limits_are_inclusive(variant):
    # at the home cell the rail slides sit at exactly 0 and the struts at
    # exactly link_length: a limit there keeps the cell inside, and the
    # next float inward of it puts the cell outside
    params = default_params(variant)
    home = 0.0 if variant is Variant.Z3_PRS else params.link_length
    axes = tilt_axes(3, 10.0)
    for name, inward in (("stroke_max", -math.inf), ("stroke_min", math.inf)):
        for limit, inside in ((home, 1.0), (np.nextafter(home, inward), 0.0)):
            limited = replace(params, **{name: limit})
            table = assert_matches_scalar(limited, *axes, home_height(limited))
            assert table["inside_0"].values[1, 1] == inside, (name, limit)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_kernel_wrench_matrix_matches_reference(variant):
    # G from the kernel's own stages, checked on every OK cell against a
    # reference that shares no code with the scalar chain
    params = default_params(variant)
    psi_axis, theta_axis = tilt_axes(9, 40.0)
    psi = np.repeat(psi_axis, theta_axis.size)
    theta = np.tile(theta_axis, psi_axis.size)
    ry, rx = kernel._rotations(theta, 1), kernel._rotations(psi, 0)
    u, closed = kernel._solve_closure(params, ry, rx)
    attachment = parasitic._attachments(params, kernel._orientations(ry, rx, u[:, 2]))
    for dz in OFFSETS:
        z = home_height(params) + dz
        limbs, status = kernel._inverse_kinematics(params, attachment, u, z, closed)
        G, _, status = kernel._jacobian(params, limbs, status)
        ok = np.flatnonzero(status == CellStatus.OK)
        assert ok.size == psi.size
        for n in ok:
            R = rotation_from_tilts_scipy(psi[n], theta[n], u[n, 2])
            want = wrench_matrix_reference(
                variant.value,
                params.r_base,
                params.r_platform,
                params.link_length,
                params.azimuths,
                (u[n, 0], u[n, 1], z),
                R,
            )
            assert_wrench_columns_close(G[n], want)


@pytest.mark.parametrize(
    "variant, passes", [(Variant.Z3_PRS, 1), (Variant.A3_RPS, 3)], ids=["z3", "a3"]
)
def test_jacobian_reused_across_offsets(monkeypatch, variant, passes):
    # z3's l1 is the same at every heave, bit for bit, so each cell's
    # Jacobian carries over from the first offset; a3's struts tilt with heave.
    # An offset with nothing to recompute makes no call at all.
    rows = []
    jacobian = kernel._jacobian

    def counted(params, limbs, status):
        rows.append(len(status))
        return jacobian(params, limbs, status)

    monkeypatch.setattr(kernel, "_jacobian", counted)
    psi_axis, theta_axis = tilt_axes(41, 40.0)
    kernel.evaluate_grid(default_params(variant), psi_axis, theta_axis, None, OFFSETS)
    assert sum(rows) == passes * psi_axis.size * theta_axis.size
    assert 0 not in rows


def assert_offsets_evaluate_alone(params, axes, z0):
    """Each offset's status column and inside flags equal those of one
    evaluate_grid call at that heave."""
    table = kernel.evaluate_grid(params, *axes, z0, OFFSETS)
    for k, dz in enumerate(OFFSETS):
        alone = kernel.evaluate_grid(params, *axes, z0 + dz)
        assert np.array_equal(table.status[..., 1 + k], alone.status[..., 1]), k
        assert np.array_equal(table[f"inside_{k}"].values, alone["inside_0"].values), k


@pytest.mark.parametrize(
    "params, z0",
    [
        (MechanismParams(Variant.Z3_PRS, link_length=105.0), None),
        (MechanismParams(Variant.Z3_PRS, stroke_min=-40.0, stroke_max=40.0), None),
        # the middle offset puts the platform in the base plane
        (default_params(Variant.A3_RPS), -OFFSETS[1]),
    ],
    ids=["z3-short-link", "stroke-cut", "a3-through-base"],
)
def test_offsets_evaluate_alone(params, z0):
    z0 = home_height(params) if z0 is None else z0
    assert_offsets_evaluate_alone(params, tilt_axes(9, 40.0), z0)


def test_jacobian_reuse_follows_ik_status(monkeypatch):
    # z3's IK status never changes with heave: fail every other cell at the
    # middle offset only, where l1 stays bit for bit the same
    params = default_params(Variant.Z3_PRS)
    z0 = home_height(params)
    inverse_kinematics = kernel._inverse_kinematics

    def failing(params, attachment, u, z, status):
        limbs, status = inverse_kinematics(params, attachment, u, z, status)
        if z == z0 + OFFSETS[1]:
            status = status.copy()
            status[::2] = CellStatus.UNREACHABLE
        return limbs, status

    monkeypatch.setattr(kernel, "_inverse_kinematics", failing)
    assert_offsets_evaluate_alone(params, tilt_axes(9, 40.0), z0)


def test_table_columns_are_sweep_grids():
    params = default_params(Variant.Z3_PRS)
    psi_axis, theta_axis = tilt_axes(5, 30.0)
    table = kernel.evaluate_grid(params, psi_axis, theta_axis, None, OFFSETS)
    at_home = kernel.evaluate_grid(params, psi_axis, theta_axis, home_height(params), OFFSETS)
    assert np.array_equal(table.values, at_home.values, equal_nan=True)
    names = (*kernel.RECORD, *(f"inside_{k}" for k in range(len(OFFSETS))))
    for n, name in enumerate(names):
        grid = table[name]
        assert np.array_equal(grid.psi_axis, psi_axis)
        assert np.array_equal(grid.theta_axis, theta_axis)
        assert np.array_equal(grid.values, table.values[..., n], equal_nan=True)
        assert np.array_equal(grid.mask, ~np.isnan(table.values[..., n]))
    with pytest.raises(KeyError):
        table[f"inside_{len(OFFSETS)}"]


@pytest.mark.parametrize(
    "psi_axis, message",
    [
        ([0.2, 0.1, 0.0], "strictly increasing"),
        ([0.0, 0.1, 0.1], "strictly increasing"),
        ([0.0, math.nan, 0.1], "finite"),
        ([[0.0, 0.1], [0.2, 0.3]], "one-dimensional"),
        ([], "not be empty"),
    ],
    ids=["decreasing", "repeated", "NaN", "2-D", "empty"],
)
def test_evaluate_grid_checks_axes_before_running(monkeypatch, psi_axis, message):
    def no_cells(*args):
        raise AssertionError("cells evaluated")

    monkeypatch.setattr(kernel, "_evaluate_cells", no_cells)
    theta_axis = np.linspace(-0.5, 0.5, 11)
    params = default_params(Variant.Z3_PRS)
    for psi, theta in ((psi_axis, theta_axis), (theta_axis, psi_axis)):
        with pytest.raises(ValueError, match=message):
            kernel.evaluate_grid(params, psi, theta, None, OFFSETS)


# (grid_n, tilt_max_deg) of the whole-grid invariants
INVARIANT_GRIDS = [(41, 40.0), (13, 60.0), (2, 40.0)]


def parity_error(grid, axis, sign):
    """Largest |f - sign * f mirrored along axis| over the valid cells, in units of max |f|."""
    values = grid.values
    mirrored = sign * np.flip(values, axis)
    assert np.array_equal(grid.mask, np.flip(grid.mask, axis))
    return np.abs(values - mirrored)[grid.mask].max() / np.abs(values[grid.mask]).max()


@pytest.mark.parametrize("grid_n, tilt_max_deg", INVARIANT_GRIDS)
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_grid_mirror_parity(variant, grid_n, tilt_max_deg):
    # x is even in psi and in theta, y and gamma are odd in each; kappa is
    # even in psi only, because limb 1 sits on the x axis
    table = kernel.evaluate_grid(default_params(variant), *tilt_axes(grid_n, tilt_max_deg))
    assert np.all(table.status == CellStatus.OK)
    for name, sign in (("x_mm", 1.0), ("y_mm", -1.0), ("gamma_rad", -1.0)):
        for axis in (0, 1):
            assert parity_error(table[name], axis, sign) <= 1e-12, (name, axis)
    assert parity_error(table["kappa"], 0, 1.0) <= 1e-12
    assert parity_error(table["kappa"], 1, 1.0) > 1e-6


@pytest.mark.parametrize("grid_n, tilt_max_deg", INVARIANT_GRIDS)
def test_grid_parasitics_shared_and_z3_kappa_heave_free(grid_n, tilt_max_deg):
    z3, a3 = default_params(Variant.Z3_PRS), default_params(Variant.A3_RPS)
    axes = tilt_axes(grid_n, tilt_max_deg)
    table = kernel.evaluate_grid(z3, *axes)
    assert np.array_equal(table.values[..., :3], kernel.evaluate_grid(a3, *axes).values[..., :3])
    lowered = kernel.evaluate_grid(z3, *axes, home_height(z3) - 100.0)
    assert np.array_equal(lowered.values[..., :3], table.values[..., :3])
    assert np.array_equal(lowered["kappa"].values, table["kappa"].values)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_grid_small_tilt_limit(variant):
    # over +/-2 deg the closure's parasitics differ from the second-order
    # expansion by fourth-order terms: at most about r/4, r/6 and 1/12 of tilt^4
    params = default_params(variant)
    psi_axis, theta_axis = tilt_axes(9, 2.0)
    table = kernel.evaluate_grid(params, psi_axis, theta_axis)
    tilts = np.meshgrid(psi_axis, theta_axis, indexing="ij")
    expected = parasitic_second_order(params.r_platform, *tilts)
    tilt4 = math.radians(2.0) ** 4
    bounds = (0.3 * params.r_platform * tilt4, 0.3 * params.r_platform * tilt4, 0.1 * tilt4)
    for name, reference, bound in zip(("x_mm", "y_mm", "gamma_rad"), expected, bounds):
        assert np.abs(table[name].values - reference).max() <= bound, name
