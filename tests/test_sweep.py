import filecmp
import math
import os

import numpy as np
import pytest

from pkm import kernel, sweep
from pkm.config import SweepSettings
from pkm.errors import CELL_ERRORS, ConfigError
from pkm.geometry import (
    MechanismParams,
    StiffnessCoeffs,
    Variant,
    default_params,
    home_height,
    platform_attachment,
)
from pkm.grids import read_map_csv, tilt_axes
from pkm.parasitic import parasitic_map, solve_loop_closure
from pkm.stiffness import STIFFNESS_FIELDS, stiffness_map_rotational
from pkm.sweep import (
    CompareSettings,
    DEFAULT_HEAVE_OFFSETS,
    condition_map,
    run_comparison,
    workspace_slice,
)

SMALL = SweepSettings(grid_n=7, tilt_max_deg=40.0)


def test_condition_map_center_and_floor(params):
    psi_axis, theta_axis = tilt_axes(5, 40.0)
    grid = condition_map(params, psi_axis, theta_axis)
    assert grid.mask.all()
    assert grid.values[2, 2] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert np.all(grid.valid_values() >= 1.0)
    # conditioning worsens towards the sweep corners
    assert grid.values[0, 4] > grid.values[2, 2]


def test_condition_is_heave_invariant_for_rail_machine(z3_params):
    psi_axis, theta_axis = tilt_axes(5, 40.0)
    z0 = home_height(z3_params)
    top = condition_map(z3_params, psi_axis, theta_axis, z=z0)
    low = condition_map(z3_params, psi_axis, theta_axis, z=z0 - 100.0)
    assert np.max(np.abs(top.values - low.values)) < 1e-9


def test_condition_worsens_with_depth_for_strut_machine(a3_params):
    psi_axis, theta_axis = tilt_axes(5, 40.0)
    z0 = home_height(a3_params)
    top = condition_map(a3_params, psi_axis, theta_axis, z=z0)
    low = condition_map(a3_params, psi_axis, theta_axis, z=z0 - 100.0)
    assert low.values[0, 4] > top.values[0, 4]


def test_workspace_area_counts_cells(params):
    psi_axis, theta_axis = tilt_axes(6, 30.0)
    grid, area = workspace_slice(params, psi_axis, theta_axis)
    cell = (psi_axis[1] - psi_axis[0]) * (theta_axis[1] - theta_axis[0])
    assert area == pytest.approx(float(grid.values.sum()) * cell)
    assert set(np.unique(grid.values)) <= {0.0, 1.0}
    assert grid.mask.all()


@pytest.mark.parametrize(
    "psi_axis, theta_axis, message",
    [
        ([0.0], [-0.1, 0.0, 0.1], "at least 2 points"),
        ([-0.1, 0.0, 0.1], [0.2], "at least 2 points"),
        ([-0.3, 0.0, 0.01], [-0.1, 0.0, 0.1], "evenly spaced"),
        ([-0.1, 0.0, 0.1], [-0.1, 0.0, 0.1 * (1 + 3e-9)], "evenly spaced"),
        ([0.0, math.inf], [-0.1, 0.0, 0.1], "axes must be finite"),
        ([-0.1, 0.0, 0.1], [-math.inf, 0.0, 0.1], "axes must be finite"),
    ],
    ids=["1-point-psi", "1-point-theta", "uneven-psi", "uneven-theta", "inf-psi", "-inf-theta"],
)
def test_workspace_area_needs_even_axes(monkeypatch, z3_params, psi_axis, theta_axis, message):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid ran before its axes were checked")

    monkeypatch.setattr(sweep, "evaluate_grid", no_sweep)
    with pytest.raises(ValueError, match=message):
        workspace_slice(z3_params, psi_axis, theta_axis)


def test_workspace_area_keeps_rounded_spacing(z3_params):
    # spacings within 1e-9 of the first pass, and the area uses the first cell
    psi_axis = np.array([-0.1, 0.0, 0.1 * (1 + 1e-10)])
    grid, area = workspace_slice(z3_params, psi_axis, psi_axis)
    assert area == float(grid.values.sum()) * (0.1 * 0.1)
    # no tilt_axes grid is rejected for its rounding
    for n in (*range(2, 402), 1001, 10001):
        for max_deg in (1e-3, 40.0, 60.0):
            sweep._check_area_axes(*tilt_axes(n, max_deg))


def test_workspace_threshold_monotonicity(params):
    psi_axis, theta_axis = tilt_axes(7, 45.0)
    _, permissive = workspace_slice(params, psi_axis, theta_axis, kappa_min_inv=1e-6)
    _, moderate = workspace_slice(params, psi_axis, theta_axis, kappa_min_inv=0.2)
    _, strict = workspace_slice(params, psi_axis, theta_axis, kappa_min_inv=0.6)
    assert permissive >= moderate >= strict
    # with the threshold effectively off, every solvable cell is admitted
    cell = (psi_axis[1] - psi_axis[0]) * (theta_axis[1] - theta_axis[0])
    assert permissive == pytest.approx(49 * cell)
    # kappa = sqrt(2) at home caps the achievable floor at 1/sqrt(2)
    _, impossible = workspace_slice(params, psi_axis, theta_axis, kappa_min_inv=0.9)
    assert impossible == 0.0


def test_workspace_respects_stroke_limits():
    tight = MechanismParams(variant=Variant.Z3_PRS, stroke_min=-40.0, stroke_max=40.0)
    open_limits = default_params(Variant.Z3_PRS)
    psi_axis, theta_axis = tilt_axes(7, 40.0)
    _, small = workspace_slice(tight, psi_axis, theta_axis)
    _, full = workspace_slice(open_limits, psi_axis, theta_axis)
    assert small < full


def test_rail_workspace_is_heave_invariant(z3_params):
    psi_axis, theta_axis = tilt_axes(15, 48.0)
    z0 = home_height(z3_params)
    _, top = workspace_slice(z3_params, psi_axis, theta_axis, z=z0)
    _, low = workspace_slice(z3_params, psi_axis, theta_axis, z=z0 - 100.0)
    assert low == top


def test_strut_workspace_shrinks_with_depth(a3_params):
    psi_axis, theta_axis = tilt_axes(15, 48.0)
    z0 = home_height(a3_params)
    areas = [
        workspace_slice(a3_params, psi_axis, theta_axis, z=z0 + dz)[1]
        for dz in DEFAULT_HEAVE_OFFSETS
    ]
    assert areas[0] > areas[1] > areas[2]


def _run(tmp_path, name, workers=1, sweep=SMALL, heave_offsets=DEFAULT_HEAVE_OFFSETS):
    out = tmp_path / name
    settings = CompareSettings(
        params_z3=default_params(Variant.Z3_PRS),
        params_a3=default_params(Variant.A3_RPS),
        out_dir=out,
        sweep=sweep,
        heave_offsets=heave_offsets,
        workers=workers,
    )
    return out, run_comparison(settings)


def _assert_same_bundle(first, second):
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert mismatch == [] and errors == [] and len(match) == len(names)


def test_comparison_bundle_inventory(tmp_path):
    out, report = _run(tmp_path, "bundle")
    for label in ("z3", "a3"):
        assert (out / f"{label}_parasitic.csv").exists()
        for tag in ("x", "y", "gamma"):
            assert (out / f"{label}_parasitic_{tag}.svg").exists()
        assert (out / f"{label}_condition.csv").exists()
        assert (out / f"{label}_condition.svg").exists()
        for dz in ("0", "-50", "-100"):
            assert (out / f"{label}_workspace_dz{dz}.csv").exists()
            assert (out / f"{label}_workspace_dz{dz}.svg").exists()
        assert (out / f"{label}_stiffness_rotational.csv").exists()
        assert (out / f"{label}_stiffness_parasitic.csv").exists()
        for field in ("kpx", "kpy", "kpz", "kax", "kay", "kaz"):
            assert (out / f"{label}_stiffness_{field}.svg").exists()
    report_text = (out / "report.txt").read_text(encoding="utf-8")
    assert report.as_text() == report_text
    assert len(list(out.iterdir())) == 41


def test_comparison_flags_on_shared_constraints(tmp_path):
    _, report = _run(tmp_path, "flags")
    assert report.flags["parasitic_fields_identical"] is True
    assert report.flags["stiffness_home_dominant"] == "z3"
    assert report.flags["condition_peak_machine"] in {"z3", "a3"}
    assert report.flags["workspace_z3_height_invariant"] is True
    assert report.grid_n == 7
    assert report.heave_offsets == DEFAULT_HEAVE_OFFSETS
    text = report.as_text()
    for key in report.flags:
        assert key in text
    assert "kappa" in report.metrics
    assert set(report.metrics["kappa"]) == {"z3", "a3"}


HEIGHT_FLAGS = ("workspace_z3_height_invariant", "workspace_a3_shrinks_with_height")


def test_height_flags_do_not_depend_on_offset_order(tmp_path):
    # the grid of test_strut_workspace_shrinks_with_depth, where a3's area shrinks
    grid = SweepSettings(grid_n=15, tilt_max_deg=48.0)
    _, listed = _run(tmp_path, "listed", sweep=grid)
    _, reverse = _run(tmp_path, "reverse", sweep=grid, heave_offsets=DEFAULT_HEAVE_OFFSETS[::-1])
    assert [listed.flags[name] for name in HEIGHT_FLAGS] == [True, True]
    assert [reverse.flags[name] for name in HEIGHT_FLAGS] == [True, True]


def test_offset_order_does_not_change_the_bundle(tmp_path):
    # kappa, the stiffness columns and their flag come from the highest offset
    listed, _ = _run(tmp_path, "listed")
    reverse, report = _run(tmp_path, "reverse", heave_offsets=DEFAULT_HEAVE_OFFSETS[::-1])
    assert report.heave_offsets == DEFAULT_HEAVE_OFFSETS
    _assert_same_bundle(listed, reverse)


def test_height_flags_need_two_offsets(tmp_path):
    out, report = _run(tmp_path, "one", heave_offsets=(0.0,))
    text = (out / "report.txt").read_text(encoding="utf-8")
    for name in HEIGHT_FLAGS:
        assert report.flags[name] == "undetermined"
        assert f"\n{name}: undetermined\n" in text


@pytest.mark.parametrize("grid_n, flag", [(2, "undetermined"), (3, "z3"), (4, "undetermined")])
def test_home_flag_needs_a_home_cell(tmp_path, grid_n, flag):
    # an even grid has no cell at (0, 0): at 4 points the nearest cells sit at +/-13.3 deg
    out, report = _run(tmp_path, "grid", sweep=SweepSettings(grid_n=grid_n, tilt_max_deg=40.0))
    assert report.flags["stiffness_home_dominant"] == flag
    text = (out / "report.txt").read_text(encoding="utf-8")
    assert f"\nstiffness_home_dominant: {flag}\n" in text


@pytest.mark.parametrize(
    "a3, sweep, flag",
    [
        # the same head on both sides ties every measure
        (default_params(Variant.Z3_PRS), SMALL, "tie"),
        # stiffer spherical joints give a3 the lead in some measures only
        (
            MechanismParams(
                Variant.A3_RPS, stiffness=StiffnessCoeffs(k_sx=1e7, k_sy=1e7, k_sz=1e7)
            ),
            SweepSettings(grid_n=5, tilt_max_deg=40.0),
            "mixed",
        ),
        # a3's platform in the base plane: its flat struts fail the home cell
        (
            default_params(Variant.A3_RPS),
            SweepSettings(grid_n=3, tilt_max_deg=10.0, z_mm=0.0),
            "undetermined",
        ),
    ],
    ids=["tie", "mixed", "a3-home-cell-failed"],
)
def test_home_flag_reads_tie_mixed_or_undetermined(tmp_path, a3, sweep, flag):
    settings = CompareSettings(
        params_z3=default_params(Variant.Z3_PRS), params_a3=a3, out_dir=tmp_path, sweep=sweep
    )
    assert run_comparison(settings).flags["stiffness_home_dominant"] == flag


def test_condition_flag_needs_a_kappa_on_each_head(tmp_path):
    # links 1 mm longer than r_base - r_platform: the rail head reaches no
    # cell of this grid, so it has no kappa or stiffness to compare
    settings = CompareSettings(
        params_z3=MechanismParams(Variant.Z3_PRS, link_length=101.0),
        params_a3=MechanismParams(Variant.A3_RPS, link_length=101.0),
        out_dir=tmp_path,
        sweep=SweepSettings(grid_n=4, tilt_max_deg=60.0),
    )
    report = run_comparison(settings)
    assert report.flags["condition_peak_machine"] == "undetermined"
    text = (tmp_path / "report.txt").read_text(encoding="utf-8")
    for name in ("kappa", *STIFFNESS_FIELDS):
        assert f"\n{name}, z3, nan, nan, nan\n" in text
        assert f"\n{name}, a3, nan" not in text


@pytest.mark.parametrize("grid_n", [3, 13, 21, 23, 45, 121, 155])
@pytest.mark.parametrize("max_deg", [40.0, 48.0, 60.0])
def test_odd_tilt_axes_have_a_home_cell_and_even_ones_none(grid_n, max_deg):
    # linspace leaves 1.24e-16 rad at the centre of some odd axes (45 points
    # at +/-60 deg, 155 at +/-40 deg): the 1e-9 relative floor takes it for 0
    assert sweep._home_index(tilt_axes(grid_n, max_deg)[0]) == grid_n // 2
    assert sweep._home_index(tilt_axes(grid_n + 1, max_deg)[0]) is None


def test_stiffness_parasitic_csv_is_the_rotational_rows_under_its_note(tmp_path):
    out = tmp_path / "short"
    run_comparison(
        CompareSettings(
            params_z3=MechanismParams(variant=Variant.Z3_PRS, link_length=150.0),
            params_a3=MechanismParams(variant=Variant.A3_RPS, link_length=150.0),
            out_dir=out,
            sweep=SweepSettings(grid_n=9, tilt_max_deg=40.0),
        )
    )
    # the short link leaves z3's stiffness cells partly empty
    _, rows = read_map_csv(out / "z3_stiffness_rotational.csv")
    assert any(None in row for row in rows)
    note = (
        b"# units: angles deg, lengths mm; kpx,kpy,kpz N/mm; kax,kay,kaz N*mm/rad; "
        b"kappa dimensionless; rows keyed by (x_par_mm, y_par_mm)\n"
    )
    for label in ("z3", "a3"):
        with open(out / f"{label}_stiffness_rotational.csv", "rb") as fh:
            fh.readline()
            rotational_rows = fh.read()
        parasitic = (out / f"{label}_stiffness_parasitic.csv").read_bytes()
        assert parasitic == note + rotational_rows


def test_comparison_reruns_byte_identical(tmp_path):
    first, _ = _run(tmp_path, "one")
    second, _ = _run(tmp_path, "two")
    _assert_same_bundle(first, second)


def test_comparison_worker_count_does_not_change_bytes(tmp_path):
    one, _ = _run(tmp_path, "one", workers=1)
    two, _ = _run(tmp_path, "two", workers=2)
    _assert_same_bundle(one, two)


def test_comparison_runs_in_one_process(monkeypatch, tmp_path):
    reference, _ = _run(tmp_path, "reference")

    def no_fork():
        raise AssertionError("the comparison forked")

    real_solve = kernel._solve_closure
    solved = []

    def solve_closure(params, ry, rx):
        solved.append(len(rx))
        return real_solve(params, ry, rx)

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(kernel, "_solve_closure", solve_closure)
    # another grid first, so that z3 cannot take its closure from the kept table
    kernel.evaluate_grid(default_params(Variant.Z3_PRS), *tilt_axes(3, 10.0))
    solved.clear()
    out, _ = _run(tmp_path, "one-process")
    _assert_same_bundle(reference, out)
    # one grid's worth of blocks: a3 takes z3's closure from the kept table
    assert sum(solved) == SMALL.grid_n**2


def test_a3_error_is_raised_unchanged(monkeypatch, tmp_path):
    sentinel = ValueError("a3 grid failed")
    real_evaluate = sweep.evaluate_grid

    def evaluate_grid(params, *args):
        if params.variant is Variant.A3_RPS:
            raise sentinel
        return real_evaluate(params, *args)

    monkeypatch.setattr(sweep, "evaluate_grid", evaluate_grid)
    with pytest.raises(ValueError) as caught:
        _run(tmp_path, "bundle")
    assert caught.value is sentinel
    # both grids are evaluated before any file is written
    assert list((tmp_path / "bundle").iterdir()) == []


@pytest.mark.parametrize(
    "offsets",
    [(), (0.0, math.nan), (0.0, 0.0, -50.0), (0.0, -0.0, -50.0)],
    ids=["empty", "nan", "repeat", "signed-zero-repeat"],
)
def test_compare_settings_reject_bad_heave_offsets(tmp_path, offsets):
    out = tmp_path / "bundle"
    with pytest.raises(ConfigError, match="heave_offsets"):
        CompareSettings(
            params_z3=default_params(Variant.Z3_PRS),
            params_a3=default_params(Variant.A3_RPS),
            out_dir=out,
            sweep=SMALL,
            heave_offsets=offsets,
        )
    assert not out.exists()


def test_map_calls_leave_caller_axes_writable(z3_params):
    psi_axis, theta_axis = tilt_axes(3, 20.0)
    for sweep_map in (parasitic_map, condition_map, workspace_slice, stiffness_map_rotational):
        sweep_map(z3_params, psi_axis, theta_axis)
        assert psi_axis.flags.writeable and theta_axis.flags.writeable
    grid = condition_map(z3_params, psi_axis, theta_axis)
    before = psi_axis.copy()
    psi_axis[0] = -1.0
    assert np.array_equal(grid.psi_axis, before)
    assert not grid.psi_axis.flags.writeable


@pytest.mark.parametrize("error", CELL_ERRORS, ids=lambda error: error.__name__)
def test_failing_stage_empties_only_its_cell(monkeypatch, tmp_path, z3_params, error):
    psi_axis, theta_axis = tilt_axes(5, 30.0)
    broken = (1, 3)
    reference_inside, _ = workspace_slice(z3_params, psi_axis, theta_axis)
    real_jacobian = kernel._jacobian
    # the broken cell's attachments, the same for both machines and every heave
    R = solve_loop_closure(z3_params, psi_axis[broken[0]], theta_axis[broken[1]]).pose.R
    target = np.array([platform_attachment(z3_params, R, limb) for limb in (1, 2, 3)])

    def jacobian(params, attachment, l1, actuated, status):
        G, kappa, status = real_jacobian(params, attachment, l1, actuated, status)
        hit = np.all(np.abs(attachment - target) < 1e-9, axis=(1, 2))
        return G, kappa, np.where(hit, CELL_ERRORS.index(error) + 1, status)

    monkeypatch.setattr(kernel, "_jacobian", jacobian)
    only_broken = np.zeros((5, 5), dtype=bool)
    only_broken[broken] = True

    assert all(grid.mask.all() for grid in parasitic_map(z3_params, psi_axis, theta_axis).values())
    assert np.array_equal(condition_map(z3_params, psi_axis, theta_axis).mask, ~only_broken)
    inside, _ = workspace_slice(z3_params, psi_axis, theta_axis)
    assert reference_inside.values[broken] == 1.0
    assert np.array_equal(inside.values, np.where(only_broken, 0.0, reference_inside.values))
    fields = stiffness_map_rotational(z3_params, psi_axis, theta_axis)
    assert fields["x_par_mm"].mask.all() and fields["y_par_mm"].mask.all()
    for name in STIFFNESS_FIELDS:
        assert np.array_equal(fields[name].mask, ~only_broken)

    out = tmp_path / "bundle"
    run_comparison(
        CompareSettings(
            params_z3=z3_params,
            params_a3=default_params(Variant.A3_RPS),
            out_dir=out,
            sweep=SweepSettings(grid_n=5, tilt_max_deg=30.0),
        )
    )
    row = broken[0] * 5 + broken[1]
    # columns before the first one the failing stage feeds stay filled
    for label in ("z3", "a3"):
        for name, first_late in (("parasitic", 5), ("condition", 2), ("stiffness_rotational", 4)):
            _, rows = read_map_csv(out / f"{label}_{name}.csv")
            for n, r in enumerate(rows):
                assert None not in r[:first_late]
                assert all((v is None) == (n == row) for v in r[first_late:])
        for dz in ("0", "-50", "-100"):
            _, rows = read_map_csv(out / f"{label}_workspace_dz{dz}.csv")
            assert rows[row][2] == 0.0


def test_stiffness_map_keeps_parasitics_where_closure_solved():
    short = MechanismParams(variant=Variant.Z3_PRS, link_length=105.0)
    psi_axis, theta_axis = tilt_axes(5, 30.0)
    parasitic = parasitic_map(short, psi_axis, theta_axis)
    fields = stiffness_map_rotational(short, psi_axis, theta_axis)
    assert parasitic["x_mm"].mask.all()
    assert not fields["kpx"].mask.all()
    for name, key in (("x_par_mm", "x_mm"), ("y_par_mm", "y_mm")):
        assert np.array_equal(fields[name].mask, parasitic[key].mask)
        assert np.array_equal(fields[name].values, parasitic[key].values)
