import os
from pathlib import Path

import numpy as np
import pytest

import pkm
from pkm import Variant, default_params, home_height, kernel
from pkm.parasitic import solve_loop_closure

SEED = 20260819


@pytest.fixture(autouse=True)
def cold_closure_memo():
    """Every test starts with no grid closure kept, whatever ran before it."""
    kernel._last_table = None


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture
def z3_params():
    return default_params(Variant.Z3_PRS)


@pytest.fixture
def a3_params():
    return default_params(Variant.A3_RPS)


@pytest.fixture(params=[Variant.Z3_PRS, Variant.A3_RPS], ids=["z3", "a3"])
def params(request):
    return default_params(request.param)


def child_env() -> dict:
    """This environment with the pkm sources under test first on PYTHONPATH,
    for a child interpreter."""
    env = dict(os.environ)
    src = str(Path(pkm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def random_compatible_pose(params, rng, max_tilt_deg=40.0, dz_range=(-100.0, 50.0)):
    """A random pose on the constraint manifold: tilts plus solved parasitics."""
    psi, theta = np.radians(rng.uniform(-max_tilt_deg, max_tilt_deg, size=2))
    z = home_height(params) + rng.uniform(*dz_range)
    return solve_loop_closure(params, psi, theta, z)


def map_sweep_commands(out_dir):
    """CLI argument lists of the twelve single-machine map commands of the
    21^2, +/-48 deg grid, by output subdirectory of out_dir: per head the
    three maps and the workspace at three heaves."""
    maps = ("parasitic-map", "condition-map", "stiffness-map")
    grid = ["--grid", "21", "--tilt-max-deg", "48.0"]
    calls = {}
    for machine in ("z3", "a3"):
        z0 = home_height(default_params(Variant(machine)))
        commands = {f"{machine}_{name}": [name] for name in maps}
        for dz in (0.0, -50.0, -100.0):
            commands[f"{machine}_workspace_dz{dz:g}"] = ["workspace", "--z", repr(z0 + dz)]
        for key, command in commands.items():
            calls[key] = [*command, "--machine", machine, *grid, "--out", str(out_dir / key)]
    return calls
