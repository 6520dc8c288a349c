import filecmp
import math
import os
import signal
import time

import numpy as np
import pytest

from pkm import kernel, sweep
from pkm.config import SweepSettings
from pkm.errors import CELL_ERRORS, ConfigError
from pkm.geometry import (
    MechanismParams,
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


def _run(tmp_path, name, workers=1):
    out = tmp_path / name
    settings = CompareSettings(
        params_z3=default_params(Variant.Z3_PRS),
        params_a3=default_params(Variant.A3_RPS),
        out_dir=out,
        sweep=SMALL,
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


def test_comparison_reruns_byte_identical(tmp_path):
    first, _ = _run(tmp_path, "one")
    second, _ = _run(tmp_path, "two")
    _assert_same_bundle(first, second)


def test_comparison_worker_count_does_not_change_bytes(tmp_path):
    serial, _ = _run(tmp_path, "serial", workers=1)
    forked, _ = _run(tmp_path, "forked", workers=2)
    _assert_same_bundle(serial, forked)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children os.fork made, as the parent saw them."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_comparison_forks_once_and_reaps_the_child(tmp_path, forks):
    _run(tmp_path, "bundle")
    assert len(forks) == 1
    _assert_reaped(forks)


def test_comparison_without_fork_is_byte_identical(monkeypatch, tmp_path):
    forked, _ = _run(tmp_path, "forked")
    monkeypatch.delattr(os, "fork")
    single, _ = _run(tmp_path, "single")
    _assert_same_bundle(forked, single)


@pytest.mark.parametrize("fault", ["raises", "short"])
def test_failed_child_grid_is_evaluated_in_the_parent(monkeypatch, tmp_path, forks, fault):
    reference, _ = _run(tmp_path, "reference")
    forks.clear()
    parent = os.getpid()
    real_evaluate = sweep.evaluate_grid

    def evaluate_grid(params, psi_axis, theta_axis, *args):
        if os.getpid() != parent:
            if fault == "raises":
                raise ValueError("child fault")
            # a table of fewer cells: the child exits 0 after too few bytes
            return real_evaluate(params, psi_axis[:2], theta_axis[:2], *args)
        return real_evaluate(params, psi_axis, theta_axis, *args)

    monkeypatch.setattr(sweep, "evaluate_grid", evaluate_grid)
    out, _ = _run(tmp_path, "fallback")
    assert len(forks) == 1
    _assert_reaped(forks)
    _assert_same_bundle(reference, out)


def test_a3_error_is_raised_with_no_child_left(monkeypatch, tmp_path, forks):
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
    assert len(forks) == 1
    _assert_reaped(forks)


def test_parent_error_kills_and_reaps_the_child(monkeypatch, tmp_path, forks):
    real_evaluate = sweep.evaluate_grid
    real_waitpid = os.waitpid
    endings = []

    def evaluate_grid(params, *args):
        if params.variant is Variant.Z3_PRS:
            raise KeyboardInterrupt
        time.sleep(60.0)  # the child is still running when the parent fails
        return real_evaluate(params, *args)

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        endings.append(reaped)
        return reaped

    monkeypatch.setattr(sweep, "evaluate_grid", evaluate_grid)
    monkeypatch.setattr(os, "waitpid", waitpid)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "bundle")
    assert time.monotonic() - start < 30.0
    assert len(forks) == 1
    [(pid, wait_status)] = endings
    assert pid == forks[0]
    assert os.WIFSIGNALED(wait_status) and os.WTERMSIG(wait_status) == signal.SIGKILL
    _assert_reaped(forks)


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

    def jacobian(params, limbs, status):
        G, kappa, status = real_jacobian(params, limbs, status)
        hit = np.all(np.abs(limbs.attachment - target) < 1e-9, axis=(1, 2))
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
