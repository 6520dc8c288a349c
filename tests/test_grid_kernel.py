"""The batched cell kernel against the public scalar chain, cell by cell.

The reference runs solve_loop_closure -> inverse_kinematics ->
build_jacobian -> assemble_stiffness on every cell and records which of
CELL_ERRORS each stage raises.
"""
import math

import numpy as np
import pytest

from pkm import kernel
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
    table = kernel.evaluate_grid(
        params, psi_axis, theta_axis, z0, OFFSETS, KAPPA_MIN_INV, stiffness=True
    )
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
