"""Command line front end.

Exit codes: 0 success, 2 configuration or output directory problems, 3
numerical failures (unreachable pose, singular configuration, diverged solve).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
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


# (option group, option, add_argument keywords); each option is declared once
_OPTIONS = (
    ("machine", "--machine", dict(choices=[v.value for v in Variant], help="machine selection")),
    ("config", "--config", dict(type=Path, help="key=value config file")),
    ("pose", "--psi-deg", dict(type=float, default=0.0, help="tilt about x, degrees")),
    ("pose", "--theta-deg", dict(type=float, default=0.0, help="tilt about y, degrees")),
    ("sweep", "--grid", dict(type=int, help="cells per tilt axis")),
    ("sweep", "--tilt-max-deg", dict(type=float, help="half range of the sweep")),
    ("height", "--z", dict(type=float, help="heave in mm (default: home height)")),
    ("out", "--out", dict(type=Path, required=True, help="output directory")),
    ("kappa", "--kappa-min-inv", dict(type=float, help="1/kappa admission threshold")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkm",
        description="kinetostatic analysis of two 3-limb parallel machine heads",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict[str, argparse.ArgumentParser] = {}
    for group, option, kwargs in _OPTIONS:
        groups.setdefault(group, argparse.ArgumentParser(add_help=False))
        groups[group].add_argument(option, **kwargs)
    for name, (_, help_text, options) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[groups[g] for g in options.split()])
    return parser


def _load_entries(args) -> dict:
    if args.config is None:
        return {}
    return load_config(args.config)


def _sweep_settings(args, entries) -> SweepSettings:
    flags = {
        "grid_n": args.grid,
        "tilt_max_deg": args.tilt_max_deg,
        "z_mm": args.z,
        "kappa_min_inv": getattr(args, "kappa_min_inv", None),
    }
    overrides = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(sweep_settings_from_config(entries), **overrides)


def _single_machine(args):
    entries = _load_entries(args)
    params = params_from_config(entries, variant=args.machine)
    return params, entries


def _pose_chain(args):
    """The machine, its compatible pose at the commanded tilts and the limb states there."""
    params, _ = _single_machine(args)
    psi = math.radians(args.psi_deg)
    theta = math.radians(args.theta_deg)
    cp = solve_loop_closure(params, psi, theta, args.z)
    return params, cp, inverse_kinematics(params, cp.pose)


def _cmd_ik(args) -> int:
    params, cp, states = _pose_chain(args)
    print(f"machine: {params.variant.value}")
    print(f"pose: psi {fmt12(args.psi_deg)} deg, theta {fmt12(args.theta_deg)} deg, z {fmt12(cp.z)} mm")
    shift = cp.parasitic
    x, y, gamma = fmt12(shift.x), fmt12(shift.y), fmt12(shift.gamma)
    print(f"parasitic shift: x {x} mm, y {y} mm, gamma {gamma} rad")
    name = "slide d" if params.variant is Variant.Z3_PRS else "length l"
    for limb, st in enumerate(states, start=1):
        print(f"limb {limb}: {name} = {fmt12(st.actuated_length)} mm")
    return 0


def _cmd_jacobian(args) -> int:
    params, cp, states = _pose_chain(args)
    jac = build_jacobian(params, cp.pose, states)
    with np.printoptions(precision=6, suppress=False, linewidth=120):
        print(f"machine: {params.variant.value}")
        print("G (columns: 3 active, 3 constraint):")
        print(jac.G)
        print("projector diagonal:", np.array2string(np.diag(jac.P), precision=6))
    print(f"kappa: {fmt12(jac.kappa)}")
    return 0


def _map_inputs(args):
    """The machine, sweep settings, axes and --out, which is created before any sweep runs."""
    params, entries = _single_machine(args)
    settings = _sweep_settings(args, entries)
    psi_axis, theta_axis = tilt_axes(settings.grid_n, settings.tilt_max_deg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return params, settings, psi_axis, theta_axis, out


def _cmd_parasitic_map(args) -> int:
    params, settings, psi_axis, theta_axis, out = _map_inputs(args)
    fields = parasitic_map(params, psi_axis, theta_axis, settings.z_mm)
    write_parasitic_figures(out, params.variant.value, fields, _UNITS_NOTE)
    print(f"wrote parasitic map ({settings.grid_n} x {settings.grid_n}) to {out}")
    return 0


def _cmd_condition_map(args) -> int:
    params, settings, psi_axis, theta_axis, out = _map_inputs(args)
    grid = condition_map(params, psi_axis, theta_axis, settings.z_mm)
    write_condition_figures(out, params.variant.value, grid, _UNITS_NOTE)
    valid = grid.valid_values()
    if valid.size:
        print(f"kappa range: {fmt12(valid.min())} .. {fmt12(valid.max())}")
    print(f"wrote condition map to {out}")
    return 0


def _cmd_workspace(args) -> int:
    params, settings, psi_axis, theta_axis, out = _map_inputs(args)
    grid, area = workspace_slice(
        params, psi_axis, theta_axis, settings.z_mm, settings.kappa_min_inv
    )
    label = params.variant.value
    write_workspace_figures(out, f"{label}_workspace", f"{label} workspace", grid, _UNITS_NOTE)
    print(f"workspace area: {fmt12(area)} rad^2")
    print(f"wrote workspace slice to {out}")
    return 0


def _cmd_stiffness_map(args) -> int:
    params, settings, psi_axis, theta_axis, out = _map_inputs(args)
    fields = stiffness_map_rotational(params, psi_axis, theta_axis, settings.z_mm)
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
    )
    report = run_comparison(compare)
    sys.stdout.write(report.as_text())
    print(f"wrote comparison bundle to {args.out}")
    return 0


def _cmd_config_template(args) -> int:
    sys.stdout.write(default_config_text())
    return 0


_POSE = "machine config pose height"
_MAP = "machine config sweep height out"
# subcommand: handler, help, option groups in the order --help lists them
_COMMANDS = {
    "ik": (_cmd_ik, "solve the compatible pose and actuator coordinates", _POSE),
    "jacobian": (_cmd_jacobian, "print the constraint-embedded Jacobian and conditioning", _POSE),
    "parasitic-map": (_cmd_parasitic_map, "sweep the parasitic shift over a tilt grid", _MAP),
    "condition-map": (_cmd_condition_map, "sweep the homogenized condition number", _MAP),
    "workspace": (
        _cmd_workspace,
        "orientation workspace slice with stroke and conditioning limits",
        _MAP + " kappa",
    ),
    "stiffness-map": (_cmd_stiffness_map, "sweep the six diagonal stiffness measures", _MAP),
    "compare": (
        _cmd_compare,
        "run the full paired comparison pipeline",
        "config sweep height out kappa",
    ),
    "config-template": (_cmd_config_template, "print a commented config template", ""),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """main's parser, built on main's first call and reused: parsing does
    not change a parser.  build_parser() still returns a fresh one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
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
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
