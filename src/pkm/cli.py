"""Command line front end.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures
(unreachable pose, singular configuration, diverged solve).
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    SweepSettings,
    default_config_text,
    load_config,
    params_from_config,
    sweep_settings_from_config,
)
from .errors import PkmError
from .geometry import Variant
from .grids import fmt12, tilt_axes
from .jacobian import build_jacobian
from .kinematics import inverse_kinematics
from .parasitic import parasitic_map, solve_loop_closure
from .stiffness import stiffness_map_rotational
from .sweep import (
    CompareSettings,
    condition_map,
    run_comparison,
    workspace_slice,
    write_condition_figures,
    write_parasitic_figures,
    write_stiffness_figures,
    write_workspace_figures,
)

_UNITS_NOTE = "units: angles deg, lengths mm"


def _add_common(parser: argparse.ArgumentParser, machine_required: bool) -> None:
    parser.add_argument(
        "--machine",
        choices=[v.value for v in Variant],
        required=False,
        help="machine selection" + ("" if machine_required else " (ignored: both machines run)"),
    )
    parser.add_argument("--config", type=Path, help="key=value config file")


def _add_pose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--psi-deg", type=float, default=0.0, help="tilt about x, degrees")
    parser.add_argument("--theta-deg", type=float, default=0.0, help="tilt about y, degrees")
    parser.add_argument("--z", type=float, default=None, help="heave in mm (default: home height)")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--grid", type=int, default=None, help="cells per tilt axis")
    parser.add_argument("--tilt-max-deg", type=float, default=None, help="half range of the sweep")
    parser.add_argument("--z", type=float, default=None, help="heave in mm (default: home height)")
    parser.add_argument("--out", type=Path, required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkm",
        description="kinetostatic analysis of two 3-limb parallel machine heads",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ik", help="solve the compatible pose and actuator coordinates")
    _add_common(p, True)
    _add_pose(p)

    p = sub.add_parser("jacobian", help="print the constraint-embedded Jacobian and conditioning")
    _add_common(p, True)
    _add_pose(p)

    p = sub.add_parser("parasitic-map", help="sweep the parasitic shift over a tilt grid")
    _add_common(p, True)
    _add_sweep(p)

    p = sub.add_parser("condition-map", help="sweep the homogenized condition number")
    _add_common(p, True)
    _add_sweep(p)

    p = sub.add_parser("workspace", help="orientation workspace slice with stroke and conditioning limits")
    _add_common(p, True)
    _add_sweep(p)
    p.add_argument("--kappa-min-inv", type=float, default=None, help="1/kappa admission threshold")

    p = sub.add_parser("stiffness-map", help="sweep the six diagonal stiffness measures")
    _add_common(p, True)
    _add_sweep(p)

    p = sub.add_parser("compare", help="run the full paired comparison pipeline")
    _add_common(p, False)
    _add_sweep(p)
    p.add_argument("--kappa-min-inv", type=float, default=None, help="1/kappa admission threshold")
    p.add_argument("--workers", type=int, default=1, help="row-level worker processes")

    p = sub.add_parser("config-template", help="print a commented config template")
    return parser


def _load_entries(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    return load_config(args.config)


def _sweep_settings(args, entries) -> SweepSettings:
    settings = sweep_settings_from_config(entries)
    updates = {}
    if getattr(args, "grid", None) is not None:
        updates["grid_n"] = args.grid
    if getattr(args, "tilt_max_deg", None) is not None:
        updates["tilt_max_deg"] = args.tilt_max_deg
    if getattr(args, "z", None) is not None:
        updates["z_mm"] = args.z
    if getattr(args, "kappa_min_inv", None) is not None:
        updates["kappa_min_inv"] = args.kappa_min_inv
    if not updates:
        return settings
    return SweepSettings(
        grid_n=updates.get("grid_n", settings.grid_n),
        tilt_max_deg=updates.get("tilt_max_deg", settings.tilt_max_deg),
        z_mm=updates.get("z_mm", settings.z_mm),
        kappa_min_inv=updates.get("kappa_min_inv", settings.kappa_min_inv),
    )


def _single_machine(args):
    entries = _load_entries(args)
    params = params_from_config(entries, variant=args.machine)
    return params, entries


def _cmd_ik(args) -> int:
    params, _ = _single_machine(args)
    psi = math.radians(args.psi_deg)
    theta = math.radians(args.theta_deg)
    cp = solve_loop_closure(params, psi, theta, args.z)
    states = inverse_kinematics(params, cp.pose)
    print(f"machine: {params.variant.value}")
    print(f"pose: psi {fmt12(args.psi_deg)} deg, theta {fmt12(args.theta_deg)} deg, z {fmt12(cp.z)} mm")
    shift = cp.parasitic
    print(
        "parasitic shift: x "
        + fmt12(shift.x)
        + " mm, y "
        + fmt12(shift.y)
        + " mm, gamma "
        + fmt12(shift.gamma)
        + " rad"
    )
    name = "slide d" if params.variant is Variant.Z3_PRS else "length l"
    for limb, st in enumerate(states, start=1):
        print(f"limb {limb}: {name} = {fmt12(st.actuated_length)} mm")
    return 0


def _cmd_jacobian(args) -> int:
    params, _ = _single_machine(args)
    psi = math.radians(args.psi_deg)
    theta = math.radians(args.theta_deg)
    cp = solve_loop_closure(params, psi, theta, args.z)
    states = inverse_kinematics(params, cp.pose)
    jac = build_jacobian(params, cp.pose, states)
    np.set_printoptions(precision=6, suppress=False, linewidth=120)
    print(f"machine: {params.variant.value}")
    print("G (columns: 3 active, 3 constraint):")
    print(jac.G)
    print("projector diagonal:", np.array2string(np.diag(jac.P), precision=6))
    print(f"kappa: {fmt12(jac.kappa)}")
    return 0


def _map_inputs(args):
    params, entries = _single_machine(args)
    settings = _sweep_settings(args, entries)
    return params, settings, *tilt_axes(settings.grid_n, settings.tilt_max_deg)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_parasitic_map(args) -> int:
    params, settings, psi_axis, theta_axis = _map_inputs(args)
    fields = parasitic_map(params, psi_axis, theta_axis, settings.z_mm)
    out = _out_dir(args)
    write_parasitic_figures(out, params.variant.value, fields, _UNITS_NOTE)
    print(f"wrote parasitic map ({settings.grid_n} x {settings.grid_n}) to {out}")
    return 0


def _cmd_condition_map(args) -> int:
    params, settings, psi_axis, theta_axis = _map_inputs(args)
    grid = condition_map(params, psi_axis, theta_axis, settings.z_mm)
    out = _out_dir(args)
    write_condition_figures(out, params.variant.value, grid, _UNITS_NOTE)
    valid = grid.valid_values()
    if valid.size:
        print(f"kappa range: {fmt12(valid.min())} .. {fmt12(valid.max())}")
    print(f"wrote condition map to {out}")
    return 0


def _cmd_workspace(args) -> int:
    params, settings, psi_axis, theta_axis = _map_inputs(args)
    grid, area = workspace_slice(
        params, psi_axis, theta_axis, settings.z_mm, settings.kappa_min_inv
    )
    out = _out_dir(args)
    label = params.variant.value
    write_workspace_figures(out, f"{label}_workspace", f"{label} workspace", grid, _UNITS_NOTE)
    print(f"workspace area: {fmt12(area)} rad^2")
    print(f"wrote workspace slice to {out}")
    return 0


def _cmd_stiffness_map(args) -> int:
    params, settings, psi_axis, theta_axis = _map_inputs(args)
    fields = stiffness_map_rotational(params, psi_axis, theta_axis, settings.z_mm)
    out = _out_dir(args)
    write_stiffness_figures(out, params.variant.value, fields, _UNITS_NOTE)
    print(f"wrote stiffness maps to {out}")
    return 0


def _cmd_compare(args) -> int:
    entries = _load_entries(args)
    settings = _sweep_settings(args, entries)
    params_z3 = params_from_config(entries, variant="z3")
    params_a3 = params_from_config(entries, variant="a3")
    compare = CompareSettings(
        params_z3=params_z3,
        params_a3=params_a3,
        out_dir=args.out,
        sweep=settings,
        workers=max(1, args.workers),
    )
    report = run_comparison(compare)
    sys.stdout.write(report.as_text())
    print(f"wrote comparison bundle to {args.out}")
    return 0


_COMMANDS = {
    "ik": _cmd_ik,
    "jacobian": _cmd_jacobian,
    "parasitic-map": _cmd_parasitic_map,
    "condition-map": _cmd_condition_map,
    "workspace": _cmd_workspace,
    "stiffness-map": _cmd_stiffness_map,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "config-template":
        sys.stdout.write(default_config_text())
        return 0
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PkmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
