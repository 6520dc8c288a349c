"""The batched cell kernel against the public scalar chain, cell by cell.

The reference runs solve_loop_closure -> inverse_kinematics ->
build_jacobian -> assemble_stiffness on every cell and records which of
CELL_ERRORS each stage raises.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from pkm import cli, jacobian, kernel, parasitic, stiffness, sweep
from pkm.errors import CELL_ERRORS, CellStatus
from pkm.geometry import (
    MechanismParams,
    StiffnessCoeffs,
    Variant,
    default_params,
    home_height,
    home_pose,
    pose_from_tilts,
    rot_x,
    rot_y,
)
from pkm.grids import tilt_axes
from pkm.jacobian import build_jacobian, constraint_projector, homogenized_jacobian
from pkm.kinematics import LimbState, inverse_kinematics
from pkm.parasitic import solve_loop_closure
from pkm.stiffness import STIFFNESS_FIELDS, assemble_stiffness

from conftest import map_sweep_commands
from oracles import (
    assert_wrench_columns_close,
    ik_a3_reference,
    ik_z3_reference,
    limb_rates_reference,
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


# (params, grid_n, tilt_max_deg, z0 or None for home, the failures expected)
EDGE_GRIDS = [
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
]
EDGE_GRID_IDS = [
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
]


@pytest.mark.parametrize(
    "params, grid_n, tilt_max_deg, z0, expected", EDGE_GRIDS, ids=EDGE_GRID_IDS
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


def closure_solves(monkeypatch) -> list:
    """The number of cells of each kernel._solve_closure call from now on."""
    calls = []
    solve = kernel._solve_closure

    def counted(params, ry, rx):
        calls.append(len(rx))
        return solve(params, ry, rx)

    monkeypatch.setattr(kernel, "_solve_closure", counted)
    return calls


def assert_same_table(got, want):
    """Values and status equal bit for bit, NaN payloads and signed zeros included."""
    for a, b in ((got.values, want.values), (got.status, want.status)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def other_head(params):
    """The same geometry on the other head."""
    other = Variant.A3_RPS if params.variant is Variant.Z3_PRS else Variant.Z3_PRS
    return replace(params, variant=other)


@pytest.mark.parametrize(
    "params, grid_n, tilt_max_deg, z0",
    [
        (default_params(Variant.Z3_PRS), 41, 40.0, None),
        (default_params(Variant.A3_RPS), 41, 40.0, None),
        *(grid[:4] for grid in EDGE_GRIDS),
    ],
    ids=["z3-stock", "a3-stock", *EDGE_GRID_IDS],
)
def test_warm_closure_memo_keeps_every_bit(monkeypatch, params, grid_n, tilt_max_deg, z0):
    # the memo starts cold (conftest); a warm table, whether the same call or
    # the other head's closure-only map at another heave warmed it, is the
    # cold one bit for bit, cells whose closure failed included
    axes = tilt_axes(grid_n, tilt_max_deg)
    z0 = home_height(params) if z0 is None else z0
    solves = closure_solves(monkeypatch)
    cold = kernel.evaluate_grid(params, *axes, z0, OFFSETS)
    assert sum(solves) == grid_n**2
    assert_same_table(kernel.evaluate_grid(params, *axes, z0, OFFSETS), cold)
    assert sum(solves) == grid_n**2
    kernel._last_table = None
    kernel.evaluate_grid(other_head(params), *axes, z0 + OFFSETS[1], ())
    assert_same_table(kernel.evaluate_grid(params, *axes, z0, OFFSETS), cold)
    assert sum(solves) == 2 * grid_n**2


@pytest.mark.parametrize(
    "changes",
    [
        {"r_platform": math.nextafter(250.0, math.inf)},
        {"azimuths": (-0.0, *default_params(Variant.Z3_PRS).azimuths[1:])},
    ],
    ids=["r_platform-ulp", "signed-zero-azimuth"],
)
def test_closure_memo_keys_on_bits(monkeypatch, changes):
    # an azimuth of -0.0 makes an equal MechanismParams, but its sin is -0.0
    params = default_params(Variant.Z3_PRS)
    twins = (params, replace(params, **changes))
    axes = tilt_axes(9, 40.0)
    cold = []
    for machine in twins:
        kernel._last_table = None
        cold.append(kernel.evaluate_grid(machine, *axes, None, OFFSETS))
    kernel._last_table = None
    solves = closure_solves(monkeypatch)
    # each twin solves anew after the other, then repeats from the memo
    for machine, want in zip(twins * 2, cold * 2):
        assert_same_table(kernel.evaluate_grid(machine, *axes, None, OFFSETS), want)
        assert_same_table(kernel.evaluate_grid(machine, *axes, None, OFFSETS), want)
    assert sum(solves) == 4 * 81


def test_closure_memo_keys_on_both_axes(monkeypatch):
    # non-square grids, each differing from the one before in one axis only
    params = default_params(Variant.A3_RPS)
    (psi, _), (theta, _) = tilt_axes(5, 30.0), tilt_axes(7, 30.0)
    psi20, theta20 = tilt_axes(5, 20.0)[0], tilt_axes(7, 20.0)[0]
    grids = [(psi, theta), (psi20, theta), (psi20, theta20)]
    cold = []
    for axes in grids:
        kernel._last_table = None
        cold.append(kernel.evaluate_grid(params, *axes, None, OFFSETS))
    kernel._last_table = None
    solves = closure_solves(monkeypatch)
    for axes, want in zip(grids, cold):
        assert_same_table(kernel.evaluate_grid(params, *axes, None, OFFSETS), want)
    assert solves == [35, 35, 35]


def test_map_commands_solve_one_closure(monkeypatch, tmp_path, capsys):
    # both heads, every map and every heave of one grid share one memo entry
    solves = closure_solves(monkeypatch)
    commands = map_sweep_commands(tmp_path)
    assert len(commands) == 12
    for argv in commands.values():
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert sum(solves) == 21 * 21


def test_closure_memo_is_read_only_and_holds_one_grid(monkeypatch):
    params = default_params(Variant.A3_RPS)
    grids = [tilt_axes(n, 30.0) for n in (2, 3, 4)]
    tables = [kernel.evaluate_grid(params, *axes, None, ()) for axes in grids]
    # only the last table is kept, and nothing of it can be written
    assert kernel._last_table[1] is tables[-1]
    for a in (tables[-1].values, tables[-1].status):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 0
    # the last grid repeats without a solve and the repeat's table is kept,
    # so the older one can go; an earlier grid solves anew
    solves = closure_solves(monkeypatch)
    again = kernel.evaluate_grid(params, *grids[2], None, ())
    assert solves == []
    assert kernel._last_table[1] is again
    kernel.evaluate_grid(params, *grids[0], None, ())
    assert solves == [4]
    assert kernel._last_table[1].values.shape[:2] == (2, 2)


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


def closed_cells(params, grid_n, tilt_max_deg):
    """psi, theta, the closure's (x, y, gamma), its status and the platform
    attachments of every cell of a tilt grid, from the kernel's own stages."""
    psi_axis, theta_axis = tilt_axes(grid_n, tilt_max_deg)
    psi = np.repeat(psi_axis, theta_axis.size)
    theta = np.tile(theta_axis, psi_axis.size)
    ry = np.array([rot_y(a) for a in theta.tolist()])
    rx = np.array([rot_x(a) for a in psi.tolist()])
    u, closed = kernel._solve_closure(params, ry, rx)
    attachment = parasitic._attachments(params, kernel._orientations(ry, rx, u[:, 2]))
    return psi, theta, u, closed, attachment


def ik_reference(params, p, R):
    if params.variant is Variant.Z3_PRS:
        return ik_z3_reference(params.r_base, params.r_platform, params.link_length, p, R)
    return ik_a3_reference(params.r_base, params.r_platform, p, R)


@pytest.mark.parametrize(
    "params, z0, shift, expected",
    [
        (default_params(Variant.Z3_PRS), None, 0.0, set()),
        (default_params(Variant.A3_RPS), None, 0.0, set()),
        (MechanismParams(Variant.Z3_PRS, link_length=105.0), None, 0.0, {"UNREACHABLE"}),
        (
            MechanismParams(Variant.Z3_PRS, link_length=105.0),
            None,
            1e-3,
            {"UNREACHABLE", "CONSTRAINT_VIOLATION"},
        ),
        (MechanismParams(Variant.A3_RPS, r_base=250.0), 0.0, 0.0, {"UNREACHABLE"}),
        (MechanismParams(Variant.A3_RPS, r_base=250.0), 0.0, 1e-3, {"CONSTRAINT_VIOLATION"}),
    ],
    ids=[
        "z3",
        "a3",
        "z3-short-link",
        "z3-short-link-off-plane",
        "a3-on-hinge",
        "a3-on-hinge-off-plane",
    ],
)
def test_kernel_ik_matches_reference(params, z0, shift, expected):
    # the IK stage on every cell, against a reference that shares no code
    # with it; shift moves the platform off the closure's y by that many mm,
    # which puts limb 1's joint off its plane
    z0 = home_height(params) if z0 is None else z0
    psi, theta, u, closed, attachment = closed_cells(params, 9, 40.0)
    assert np.all(closed == CellStatus.OK)
    u = u.copy()
    u[:, 1] += shift
    seen = set()
    for dz in OFFSETS:
        z = z0 + dz
        _, length, _, status = kernel._inverse_kinematics(params, attachment, u, z, closed)
        for n in range(psi.size):
            R = rotation_from_tilts_scipy(psi[n], theta[n], u[n, 2])
            want, failure = ik_reference(params, (u[n, 0], u[n, 1], z), R)
            pose = pose_from_tilts(psi[n], theta[n], z, *u[n])
            if failure is None:
                assert status[n] == CellStatus.OK
                assert np.all(np.abs(length[n] - want) <= 1e-9)
                lengths = [state.actuated_length for state in inverse_kinematics(params, pose)]
                assert lengths == pytest.approx(want, abs=1e-9)
                continue
            limb, name = failure
            seen.add(name)
            assert CellStatus(status[n]).name == name
            with pytest.raises(CELL_ERRORS[CellStatus[name] - 1], match=f"^limb {limb}: "):
                inverse_kinematics(params, pose)
    assert seen == expected


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_kernel_limb_rates_match_reference(variant):
    params = MechanismParams(variant, stiffness=StiffnessCoeffs(k_sx=2.0e6, k_sy=7.0e5, k_sz=4.0e5))
    _, _, u, closed, attachment = closed_cells(params, 9, 40.0)
    for dz in OFFSETS:
        z = home_height(params) + dz
        l1, _, _, status = kernel._inverse_kinematics(params, attachment, u, z, closed)
        assert np.all(status == CellStatus.OK)
        for cell_l1, got in zip(l1, stiffness._limb_rates(params, l1)):
            want = limb_rates_reference(params, cell_l1)
            assert np.all(np.abs(got - want) <= 1e-12 * want)


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_grid_stiffness_is_symmetric_psd(variant):
    # K = G diag(k) G^T on every cell, and its diagonal is the table's
    params = default_params(variant)
    psi, _, u, closed, attachment = closed_cells(params, 21, 40.0)
    z = home_height(params)
    l1, _, actuated, status = kernel._inverse_kinematics(params, attachment, u, z, closed)
    G, _, status = kernel._jacobian(params, attachment, l1, actuated, status)
    ok = np.flatnonzero(status == CellStatus.OK)
    assert ok.size == psi.size
    rates = stiffness._limb_rates(params, l1[ok])
    K = (G[ok] * rates[:, None, :]) @ np.swapaxes(G[ok], 1, 2)
    scale = np.abs(K).max(axis=(1, 2))
    assert np.all(np.abs(K - np.swapaxes(K, 1, 2)).max(axis=(1, 2)) <= 1e-12 * scale)
    assert np.all(np.linalg.eigvalsh(K).min(axis=1) >= -1e-12 * scale)
    table = kernel.evaluate_grid(params, *tilt_axes(21, 40.0))
    got = np.stack([table[name].values.ravel()[ok] for name in STIFFNESS_FIELDS], axis=-1)
    want = np.diagonal(K, axis1=1, axis2=2)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_kernel_wrench_matrix_matches_reference(variant):
    # G from the kernel's own stages, checked on every OK cell against a
    # reference that shares no code with the scalar chain
    params = default_params(variant)
    psi, theta, u, closed, attachment = closed_cells(params, 9, 40.0)
    for dz in OFFSETS:
        z = home_height(params) + dz
        l1, _, actuated, status = kernel._inverse_kinematics(params, attachment, u, z, closed)
        G, _, status = kernel._jacobian(params, attachment, l1, actuated, status)
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
    "params, passes",
    [
        (default_params(Variant.Z3_PRS), 1),
        (MechanismParams(Variant.Z3_PRS, link_length=105.0), 1),
        (default_params(Variant.A3_RPS), 3),
    ],
    ids=["z3", "z3-short-link", "a3"],
)
def test_jacobian_reused_across_offsets(monkeypatch, params, passes):
    # z3's l1 is the same at every heave, bit for bit, at any geometry, so
    # each block's Jacobian carries over from the first offset; a3's struts
    # tilt with heave, so each of its blocks runs whole at every offset
    attachments = []
    jacobian = kernel._jacobian

    def counted(params, attachment, l1, actuated, status):
        attachments.append(attachment)
        return jacobian(params, attachment, l1, actuated, status)

    monkeypatch.setattr(kernel, "_jacobian", counted)
    psi_axis, theta_axis = tilt_axes(41, 40.0)
    kernel.evaluate_grid(params, psi_axis, theta_axis, None, OFFSETS)
    assert sum(map(len, attachments)) == passes * psi_axis.size * theta_axis.size
    assert 0 not in map(len, attachments)
    # a block's later offsets take its own attachment array, not a copy
    blocks = [attachments[n : n + passes] for n in range(0, len(attachments), passes)]
    assert all(attachment is block[0] for block in blocks for attachment in block)


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
        *limbs, status = inverse_kinematics(params, attachment, u, z, status)
        if z == z0 + OFFSETS[1]:
            status = status.copy()
            status[::2] = CellStatus.UNREACHABLE
        return *limbs, status

    monkeypatch.setattr(kernel, "_inverse_kinematics", failing)
    assert_offsets_evaluate_alone(params, tilt_axes(9, 40.0), z0)


def hand_built_cells(params):
    """Limb rows (attachment, l1, actuated), each (N, 3, 3), of cells named
    for the first Jacobian check they fail, and the checks each fails."""
    up = np.array([0.0, 0.0, 1.0])
    radial = params.layout.body / params.r_platform
    centre = np.zeros((3, 3))  # every force through the platform centre
    vertical = np.tile(500.0 * up, (3, 1))
    tipped = vertical.copy()
    tipped[2] = 500.0 * radial[2]  # limb 3 square to its rail
    flat = (params.r_platform - params.r_base) * radial  # struts in the base plane
    home = inverse_kinematics(params, home_pose(params))
    at_home = [[getattr(s, k) for s in home] for k in ("attachment", "l1", "actuated")]
    cells = {
        "OK": (*at_home, set()),
        # constraint forces through one point span rank 2
        "SINGULAR_LIMB": (
            centre,
            tipped,
            np.tile(up, (3, 1)),
            {"SingularLimb", "RankDeficiency", "SingularConfiguration"},
        ),
        # and parallel actuation forces through it leave J of rank 1
        "RANK_DEFICIENCY": (
            centre,
            vertical,
            np.tile(up, (3, 1)),
            {"RankDeficiency", "SingularConfiguration"},
        ),
        # radial actuation forces in one plane
        "SINGULAR_CONFIGURATION": (
            params.layout.body,
            flat,
            -radial,
            {"SingularConfiguration"},
        ),
    }
    names = list(cells)
    attachment, l1, actuated = (np.array([cells[n][k] for n in names]) for k in range(3))
    return names, attachment, l1, actuated, [cells[n][3] for n in names]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_check_order_on_hand_built_stacks(variant):
    # cells that fail several checks at once: the kernel's status and the
    # scalar raise name the same first failure, the singular limb (limb 3)
    # before the per-cell checks
    params = default_params(variant)
    names, attachment, l1, actuated, fails = hand_built_cells(params)
    n = len(names)
    *_, checks = jacobian._jacobian_stage(params, attachment, l1, actuated, params.layout.tangent)
    for cell, want in enumerate(fails):
        assert {error.__name__ for failed, error, _ in checks if failed[cell].any()} == want
    G, kappa, status = kernel._jacobian(
        params, attachment, l1, actuated, np.zeros(n, dtype=np.int8)
    )
    assert [CellStatus(code).name for code in status] == names
    assert np.array_equal(np.isnan(kappa), [name != "OK" for name in names])
    for cell, name in enumerate(names):
        rows = zip(attachment[cell], l1[cell], actuated[cell], params.layout.tangent)
        states = [LimbState(np.zeros(3), a, np.zeros(3), l, 0.0, x, t) for a, l, x, t in rows]
        if name == "OK":
            assert build_jacobian(params, home_pose(params), states).kappa == kappa[cell]
            continue
        error = CELL_ERRORS[CellStatus[name] - 1]
        with pytest.raises(error, match="^limb 3: " if name == "SINGULAR_LIMB" else None):
            build_jacobian(params, home_pose(params), states)
        if name != "SINGULAR_LIMB":
            # the public wrappers run the same per-cell checks on G
            with pytest.raises(error):
                homogenized_jacobian(G[cell, :, :3], G[cell, :, 3:], params)
    with pytest.raises(CELL_ERRORS[CellStatus.RANK_DEFICIENCY - 1]):
        constraint_projector(G[names.index("RANK_DEFICIENCY"), :, 3:])


def test_scalar_and_kernel_run_one_jacobian_stage(monkeypatch):
    # a second copy of the stage in either path would leave its calls uncounted
    calls = []
    stage = jacobian._jacobian_stage

    def counted(params, attachment, l1, actuated, revolute):
        calls.append(l1.shape[:-2])
        return stage(params, attachment, l1, actuated, revolute)

    monkeypatch.setattr(jacobian, "_jacobian_stage", counted)
    params = default_params(Variant.A3_RPS)
    build_jacobian(params, home_pose(params))
    kernel.evaluate_grid(params, *tilt_axes(3, 10.0))
    assert calls == [(), (9,)]


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


@pytest.mark.parametrize("heave", [math.nan, math.inf, -math.inf], ids=["NaN", "inf", "-inf"])
def test_grid_functions_need_finite_heaves(monkeypatch, heave):
    def no_closure(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(kernel, "_solve_closure", no_closure)
    params = default_params(Variant.A3_RPS)
    axes = tilt_axes(5, 40.0)
    grid_functions = (
        parasitic.parasitic_map,
        sweep.condition_map,
        sweep.workspace_slice,
        stiffness.stiffness_map_rotational,
        kernel.evaluate_grid,
    )
    for grid_function in grid_functions:
        with pytest.raises(ValueError, match="finite"):
            grid_function(params, *axes, heave)
    # as one offset of a finite z0
    with pytest.raises(ValueError, match="finite"):
        kernel.evaluate_grid(params, *axes, None, (0.0, heave))


@pytest.mark.parametrize(
    "kappa_min_inv", [math.nan, -1.0, 0.0, 1.0, math.inf], ids=["NaN", "-1", "0", "1", "inf"]
)
def test_grid_functions_need_kappa_floor_in_unit_interval(monkeypatch, kappa_min_inv):
    def no_closure(*args):
        raise AssertionError("the closure ran")

    monkeypatch.setattr(kernel, "_solve_closure", no_closure)
    params = default_params(Variant.Z3_PRS)
    axes = tilt_axes(3, 30.0)
    for grid_function in (kernel.evaluate_grid, sweep.workspace_slice):
        with pytest.raises(ValueError, match="kappa_min_inv"):
            grid_function(params, *axes, kappa_min_inv=kappa_min_inv)


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
    # the rail carriage takes up the heave: z3's strut rise does not involve
    # it, so the parasitics, kappa, the stiffness and the Jacobian status
    # keep every bit
    for params in (z3, MechanismParams(Variant.Z3_PRS, link_length=105.0)):
        z0 = home_height(params)
        home = kernel.evaluate_grid(params, *axes, z0)
        for dz in (-100.0, -400.0, 300.0):
            moved = kernel.evaluate_grid(params, *axes, z0 + dz)
            for name in kernel.RECORD:
                bits = (t[name].values.view(np.uint64) for t in (moved, home))
                assert np.array_equal(*bits), (params.link_length, dz, name)
            assert np.array_equal(moved.status, home.status), (params.link_length, dz)


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
