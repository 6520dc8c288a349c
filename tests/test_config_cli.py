import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pkm
from pkm import cli, kernel, sweep
from pkm.cli import build_parser, main
from pkm.config import (
    SweepSettings,
    default_config_text,
    params_from_config,
    parse_config_text,
    sweep_settings_from_config,
)
from pkm.errors import CellStatus, ConfigError
from pkm.geometry import MAX_TILT_DEG, Variant, default_params, home_height
from pkm.grids import read_map_csv, tilt_axes

from conftest import child_env, map_sweep_commands

SUBCOMMANDS = (
    "ik",
    "jacobian",
    "parasitic-map",
    "condition-map",
    "workspace",
    "stiffness-map",
    "compare",
    "config-template",
)


def test_parse_skips_comments_and_blanks():
    entries = parse_config_text("# top\n\nvariant = z3  # inline\n\ngrid_n = 9\n")
    assert entries["variant"] == ("z3", 3)
    assert entries["grid_n"] == ("9", 5)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2.*key = value"):
        parse_config_text("variant = z3\njust words\n")
    with pytest.raises(ConfigError, match="line 1.*unknown key"):
        parse_config_text("colour = blue\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config_text("grid_n = 5\nvariant = z3\ngrid_n = 7\n")
    with pytest.raises(ConfigError, match="line 1.*empty value"):
        parse_config_text("variant =\n")


def test_typed_value_errors():
    with pytest.raises(ConfigError, match="line 1.*integer"):
        params_from_config(parse_config_text("grid_n = 2.5\n"), variant=Variant.Z3_PRS)
    with pytest.raises(ConfigError, match="line 1.*number"):
        params_from_config(parse_config_text("r_base_mm = wide\n"), variant=Variant.Z3_PRS)
    with pytest.raises(ConfigError, match="'z3' or 'a3'"):
        params_from_config(parse_config_text("variant = sprint\n"))


def test_params_from_config_defaults_and_overrides():
    entries = parse_config_text("variant = a3\nlink_length_mm = 700\nk_sx = 2e6\n")
    params = params_from_config(entries)
    assert params.variant is Variant.A3_RPS
    assert params.link_length == 700.0
    assert params.stiffness.k_sx == 2.0e6
    assert params.r_base == 350.0
    # an explicit selection wins over the config entry
    assert params_from_config(entries, variant=Variant.Z3_PRS).variant is Variant.Z3_PRS
    assert params_from_config(entries, variant="z3").variant is Variant.Z3_PRS
    with pytest.raises(ConfigError, match="no machine selected"):
        params_from_config({})


def test_params_from_config_propagates_geometry_errors():
    with pytest.raises(ConfigError, match="link_length"):
        params_from_config(parse_config_text("link_length_mm = 10\n"), variant=Variant.Z3_PRS)
    with pytest.raises(ConfigError, match="k_sx"):
        params_from_config(parse_config_text("k_sx = -1\n"), variant="z3")


def test_sweep_settings_bounds():
    assert sweep_settings_from_config({}) == SweepSettings()
    settings = sweep_settings_from_config(parse_config_text("grid_n = 15\nz_mm = 600\n"))
    assert settings.grid_n == 15
    assert settings.z_mm == 600.0
    with pytest.raises(ConfigError):
        SweepSettings(grid_n=1)
    with pytest.raises(ConfigError):
        SweepSettings(tilt_max_deg=75.0)
    with pytest.raises(ConfigError, match=r"tilt_max_deg must lie in \(0, 60\]"):
        SweepSettings(tilt_max_deg=math.nextafter(MAX_TILT_DEG, math.inf))
    with pytest.raises(ConfigError):
        SweepSettings(kappa_min_inv=1.5)
    for z_mm in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="z_mm must be finite"):
            SweepSettings(z_mm=z_mm)


def test_the_tilt_limit_itself_is_accepted_end_to_end(params):
    # SweepSettings and the closure's tilt check read one MAX_TILT_DEG
    settings = SweepSettings(grid_n=3, tilt_max_deg=MAX_TILT_DEG)
    table = kernel.evaluate_grid(params, *tilt_axes(settings.grid_n, settings.tilt_max_deg))
    assert table.status.shape[:2] == (3, 3)
    assert (table.status == CellStatus.OK).all()


@pytest.mark.parametrize("grid_n", [45.0, 2.5, "45", None, [45]], ids=repr)
def test_sweep_settings_reject_non_integer_grid(grid_n):
    with pytest.raises(ConfigError, match="grid_n must be an integer"):
        SweepSettings(grid_n=grid_n)


def test_sweep_settings_take_numpy_integers():
    assert SweepSettings(grid_n=np.int64(9)) == SweepSettings(grid_n=9)
    assert SweepSettings(grid_n=np.uint8(2)).grid_n == 2
    with pytest.raises(ConfigError, match="at least 2"):
        SweepSettings(grid_n=np.int32(1))


def test_default_config_template_round_trips():
    entries = parse_config_text(default_config_text())
    params = params_from_config(entries)
    assert params.variant is Variant.Z3_PRS
    assert params.link_length == 642.3
    assert params == default_params(Variant.Z3_PRS)
    assert sweep_settings_from_config(entries) == SweepSettings()


def test_parser_rejects_unknown_machine(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["ik", "--machine", "orbit"])
    # compare runs both machines and takes no machine selection
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["compare", "--machine", "z3", "--out", "x"])
    assert excinfo.value.code == 2
    # nor a worker count: every grid runs in one process
    with pytest.raises(SystemExit) as excinfo:
        parser.parse_args(["compare", "--workers", "2", "--out", "x"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_cli_ik_home(capsys):
    assert main(["ik", "--machine", "z3"]) == 0
    out = capsys.readouterr().out
    assert "slide d = 0" in out
    assert main(["ik", "--machine", "a3"]) == 0
    out = capsys.readouterr().out
    assert "length l = 642.3" in out


def test_cli_ik_tilted_reports_parasitics(capsys):
    assert main(["ik", "--machine", "z3", "--psi-deg", "10", "--theta-deg", "-5"]) == 0
    out = capsys.readouterr().out
    assert "parasitic shift" in out
    assert "gamma" in out


def test_cli_jacobian(capsys):
    assert main(["jacobian", "--machine", "a3", "--psi-deg", "12"]) == 0
    out = capsys.readouterr().out
    assert "kappa" in out


def test_cli_jacobian_restores_print_options(capsys):
    before = np.get_printoptions()
    assert main(["jacobian", "--machine", "z3", "--psi-deg", "12"]) == 0
    capsys.readouterr()
    assert np.get_printoptions() == before


def test_cli_exit_code_numerical_failure(tmp_path, capsys):
    config = tmp_path / "short.cfg"
    config.write_text("variant = z3\nlink_length_mm = 105\n", encoding="utf-8")
    assert main(["ik", "--config", str(config), "--psi-deg", "30"]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_exit_code_config_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("variant = q7\n", encoding="utf-8")
    assert main(["ik", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["ik", "--config", str(tmp_path / "missing.cfg"), "--machine", "z3"]) == 2
    capsys.readouterr()


def test_cli_huge_lengths_are_config_error(tmp_path, capsys):
    # the squared lengths would overflow in home_height
    config = tmp_path / "huge.cfg"
    config.write_text(
        "variant = z3\nr_base_mm = 1e155\nr_platform_mm = 1e155\nlink_length_mm = 1e155\n",
        encoding="utf-8",
    )
    assert main(["ik", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ["ik"],
        ["jacobian"],
        ["parasitic-map", "--grid", "3"],
        ["condition-map", "--grid", "3"],
        ["workspace", "--grid", "3"],
        ["stiffness-map", "--grid", "3"],
        ["compare", "--grid", "3"],
    ],
    ids=lambda command: command[0],
)
def test_cli_empty_stroke_interval_is_config_error(tmp_path, capsys, command):
    config = tmp_path / "strokes.cfg"
    config.write_text("variant = z3\nstroke_min_mm = 10\nstroke_max_mm = 5\n", encoding="utf-8")
    out = [] if command[0] in ("ik", "jacobian") else ["--out", str(tmp_path / "out")]
    assert main([*command, "--config", str(config), *out]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_exit_code_tilt_bounds(capsys):
    for psi_deg, message in [("75", "60 degrees"), ("inf", "60 degrees"), ("nan", "finite")]:
        assert main(["ik", "--machine", "a3", "--psi-deg", psi_deg]) == 2
        assert message in capsys.readouterr().err


def test_cli_non_finite_heave_is_config_error(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--grid", "3", "--z", "nan", "--out", str(out)]) == 2
    assert "z_mm must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_unusable_out_is_input_error(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid ran before --out was created")

    # the maps import evaluate_grid from the kernel at call time, sweep at import
    monkeypatch.setattr(kernel, "evaluate_grid", no_sweep)
    monkeypatch.setattr(sweep, "evaluate_grid", no_sweep)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    maps = ("parasitic-map", "condition-map", "workspace", "stiffness-map")
    for command in (
        *([name, "--machine", "a3", "--grid", "121", "--out", str(taken)] for name in maps),
        ["compare", "--grid", "3", "--out", str(taken / "sub")],
    ):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == ""


def test_cli_requires_machine_without_config(capsys):
    assert main(["ik"]) == 2
    assert "no machine selected" in capsys.readouterr().err


def test_cli_config_template(capsys):
    assert main(["config-template"]) == 0
    text = capsys.readouterr().out
    assert parse_config_text(text)["variant"][0] == "z3"


def test_cli_parasitic_map(tmp_path, capsys):
    out = tmp_path / "maps"
    code = main(
        ["parasitic-map", "--machine", "z3", "--grid", "5", "--tilt-max-deg", "20", "--out", str(out)]
    )
    assert code == 0
    capsys.readouterr()
    header, rows = read_map_csv(out / "z3_parasitic.csv")
    assert header == ["psi_deg", "theta_deg", "x_mm", "y_mm", "gamma_rad"]
    assert len(rows) == 25
    assert (out / "z3_parasitic_x.svg").exists()
    assert (out / "z3_parasitic_gamma.svg").exists()


def test_cli_condition_map(tmp_path, capsys):
    out = tmp_path / "cond"
    assert main(
        ["condition-map", "--machine", "a3", "--grid", "4", "--tilt-max-deg", "15", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    header, rows = read_map_csv(out / "a3_condition.csv")
    assert header == ["psi_deg", "theta_deg", "kappa"]
    kappas = [row[2] for row in rows]
    assert all(k is not None and k >= 1.0 for k in kappas)


def test_cli_workspace(tmp_path, capsys):
    out = tmp_path / "ws"
    assert main(
        ["workspace", "--machine", "z3", "--grid", "4", "--tilt-max-deg", "20", "--out", str(out)]
    ) == 0
    assert "workspace area" in capsys.readouterr().out
    header, rows = read_map_csv(out / "z3_workspace.csv")
    assert header == ["psi_deg", "theta_deg", "inside"]
    assert {row[2] for row in rows} <= {0.0, 1.0}


def test_cli_stiffness_map_spaces(tmp_path, capsys):
    out = tmp_path / "stiff"
    assert main(
        ["stiffness-map", "--machine", "a3", "--grid", "3", "--tilt-max-deg", "10", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    header, _ = read_map_csv(out / "a3_stiffness_rotational.csv")
    assert header[:4] == ["psi_deg", "theta_deg", "x_par_mm", "y_par_mm"]
    assert "kaz" in header
    assert (out / "a3_stiffness_kpx.svg").exists()


def test_cli_compare_smoke(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--grid", "3", "--tilt-max-deg", "15", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "two-machine kinetostatic comparison" in text
    assert (out / "report.txt").exists()
    assert (out / "z3_condition.csv").exists()
    assert (out / "a3_workspace_dz-100.csv").exists()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "pkm" in capsys.readouterr().out


@pytest.mark.parametrize("machine", ["z3", "a3"])
def test_cli_maps_match_compare_bundle(tmp_path, capsys, machine):
    grid = ["--grid", "5", "--tilt-max-deg", "40"]
    bundle = tmp_path / "bundle"
    assert main(["compare", *grid, "--out", str(bundle)]) == 0
    z_low = home_height(default_params(Variant(machine))) - 50.0
    pairs = {
        ("parasitic-map",): ("parasitic", "parasitic"),
        ("condition-map",): ("condition", "condition"),
        ("stiffness-map",): ("stiffness_rotational", "stiffness_rotational"),
        ("workspace", "--z", repr(z_low)): ("workspace", "workspace_dz-50"),
    }
    for command, (cli_name, bundle_name) in pairs.items():
        out = tmp_path / command[0]
        assert main([*command, "--machine", machine, *grid, "--out", str(out)]) == 0
        cli_lines = (out / f"{machine}_{cli_name}.csv").read_text(encoding="utf-8").splitlines()
        bundle_file = bundle / f"{machine}_{bundle_name}.csv"
        bundle_lines = bundle_file.read_text(encoding="utf-8").splitlines()
        # only the '#' units line may differ
        assert cli_lines[0].startswith("#") and bundle_lines[0].startswith("#")
        assert cli_lines[1:] == bundle_lines[1:]
    capsys.readouterr()


def test_compare_as_a_user_runs_it_warns_nothing(tmp_path):
    # any warning from the comparison, such as a ResourceWarning for a file
    # left open or a numpy DeprecationWarning, fails the run under -W error
    # or shows on stderr
    env = child_env()
    out = tmp_path / "bundle"
    run = subprocess.run(
        [sys.executable, "-W", "error", "-m", "pkm.cli", "compare", "--grid", "9", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert (out / "report.txt").exists() and len(list(out.iterdir())) == 41


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_reused_parser_repeats_the_map_commands(tmp_path, capsys):
    # main builds its parser on the first call and reuses it: a second pass
    # over the twelve map commands writes the same bytes and prints the same
    # text, but for the output paths
    cli._parser.cache_clear()
    consoles = []
    for tree in ("first", "second"):
        console = []
        for argv in map_sweep_commands(tmp_path / tree).values():
            assert main(argv) == 0
            console.append(capsys.readouterr().out.replace(str(tmp_path / tree), "<out>"))
        consoles.append(console)
    assert cli._parser.cache_info().misses == 1
    assert consoles[0] == consoles[1]
    first, second = tree_bytes(tmp_path / "first"), tree_bytes(tmp_path / "second")
    # per head: parasitic 1 + 3, condition 1 + 1, stiffness 1 + 6, workspace 3 x 2
    assert len(first) == 2 * (4 + 2 + 7 + 6)
    assert first == second


def test_failed_parse_leaves_the_parser_as_it_was(tmp_path, capsys):
    argvs = (
        ["ik", "--machine", "a3", "--psi-deg", "12"],
        ["workspace", "--machine", "z3", "--grid", "7", "--out", str(tmp_path)],
        ["compare", "--z", "500", "--kappa-min-inv", "0.1", "--out", str(tmp_path)],
    )
    fresh = [build_parser().parse_args(argv) for argv in argvs]
    for bad in (
        ["ik", "--machine", "orbit"],
        ["workspace", "--machine", "z3", "--grid", "seven", "--out", str(tmp_path)],
        ["parasitic-map", "--machine", "z3"],
        ["compare", "--machine", "z3", "--out", str(tmp_path)],
        ["no-such-command"],
        [],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(bad)
        assert excinfo.value.code == 2
        assert [cli._parser().parse_args(argv) for argv in argvs] == fresh
    assert main(["ik", "--machine", "z3"]) == 0
    capsys.readouterr()


def test_help_lists_every_subcommand(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in text
    assert set(cli._COMMANDS) == set(SUBCOMMANDS)


def test_build_parser_is_fresh_and_apart_from_main(capsys):
    parser = build_parser()
    assert parser is not build_parser()
    parser.add_argument("--extra", action="store_true")
    parser.set_defaults(command="ik")
    with pytest.raises(SystemExit) as excinfo:
        main(["--extra", "config-template"])
    assert excinfo.value.code == 2
    assert main(["config-template"]) == 0
    assert capsys.readouterr().out == default_config_text()


def test_cli_import_builds_no_parser():
    env = child_env()
    code = "import pkm.cli; print(pkm.cli._parser.cache_info().currsize)"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0\n"
