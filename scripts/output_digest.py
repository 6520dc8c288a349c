#!/usr/bin/env python3
"""Print one SHA-256 per output tree of the pkm command line, and one over all of them.

The trees are:
- `pkm compare` at 21^2, 45^2 and 121^2 over +/-40 deg, and at 13^2 over
  +/-60 deg;
- `pkm compare` at 45^2 with link_length_mm = 105 in a config file;
- the twelve single-machine map commands that tests/conftest.py lists for
  the 21^2, +/-48 deg grid, one tree each;
- `pkm ik` and `pkm jacobian` at four poses per head, in one tree;
- kernel_tables: the raw bytes of evaluate_grid's values and status for
  both stock heads at 45^2 and 121^2 over +/-40 deg, default offsets, each
  grid evaluated with no closure kept and then again with its own kept.
  The CSVs print 12 digits; these files hold every bit.

Every command runs in this process through pkm.cli.main.  Next to the files
it writes, each command leaves <name>.console: its exit code, stdout and
stderr, with the tree's path masked.  A tree's digest covers the relative
path and the bytes of every file in it.  Two source trees that print the
same digests wrote the same bytes and console text.  The digests depend on
the host's numpy and BLAS, so compare two source trees on one host only:

    PYTHONPATH=src python3 scripts/output_digest.py [--out DIR]

--out DIR keeps the trees in DIR, which must be empty or absent, for
`diff -r`; without it they go to a temporary directory that is removed.
"""
import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import map_sweep_commands  # noqa: E402  (the map commands the tests run)

from pkm import Variant, cli, default_params, kernel  # noqa: E402
from pkm.grids import tilt_axes  # noqa: E402

TREE = "{tree}"  # stands for the tree's directory in a command's arguments
POSES_DEG = ((0.0, 0.0), (15.0, -10.0), (-30.0, 25.0), (40.0, 40.0))


def compare(grid_n: int, tilt_max_deg: float, *extra: str) -> list[str]:
    grid = ["--grid", str(grid_n), "--tilt-max-deg", repr(tilt_max_deg)]
    return ["compare", *grid, *extra, "--out", f"{TREE}/compare"]


def trees(root: Path) -> dict[str, dict[str, list[str]]]:
    """Tree name -> command name -> CLI arguments, in the order they run.
    Writes the config file that one comparison reads into root."""
    config = root / "link105.cfg"
    config.write_text("link_length_mm = 105\n", encoding="utf-8")
    listed = {
        "compare_21": {"compare": compare(21, 40.0)},
        "compare_45": {"compare": compare(45, 40.0)},
        "compare_121": {"compare": compare(121, 40.0)},
        "compare_13_60deg": {"compare": compare(13, 60.0)},
        "compare_45_link105": {"compare": compare(45, 40.0, "--config", str(config))},
    }
    for name, argv in map_sweep_commands(Path(TREE)).items():
        listed[name] = {name: argv}
    listed["poses"] = {
        f"{command}_{machine}_{psi:g}_{theta:g}": [
            command, "--machine", machine, "--psi-deg", repr(psi), "--theta-deg", repr(theta)
        ]
        for command in ("ik", "jacobian")
        for machine in ("z3", "a3")
        for psi, theta in POSES_DEG
    }
    return listed


def run(tree: Path, name: str, argv: list[str]) -> None:
    """Run one command in tree and write tree/name.console."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([arg.replace(TREE, str(tree)) for arg in argv])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    text = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
    (tree / f"{name}.console").write_text(text.replace(str(tree), "<tree>"), encoding="utf-8")


def write_kernel_tables(tree: Path) -> None:
    """Write the bytes of each table's values and status into tree."""
    for machine in ("z3", "a3"):
        params = default_params(Variant(machine))
        for grid_n in (45, 121):
            kernel._last_table = None
            for run_name in ("cold", "warm"):
                table = kernel.evaluate_grid(params, *tilt_axes(grid_n, 40.0))
                for field in ("values", "status"):
                    path = tree / f"{machine}_{grid_n}_{run_name}.{field}"
                    path.write_bytes(getattr(table, field).tobytes())


def tree_digest(tree: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(p for p in tree.rglob("*") if p.is_file()):
        sha.update(f"{path.relative_to(tree).as_posix()}\0{path.stat().st_size}\0".encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def digest_all(root: Path) -> list[str]:
    """The lines to print: one digest per tree, then one over those lines."""
    lines = []
    for tree_name, commands in trees(root).items():
        tree = root / tree_name
        tree.mkdir()
        for name, argv in commands.items():
            run(tree, name, argv)
        lines.append(f"{tree_digest(tree)}  {tree_name}")
    tree = root / "kernel_tables"
    tree.mkdir()
    write_kernel_tables(tree)
    lines.append(f"{tree_digest(tree)}  kernel_tables")
    overall = hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()
    return [*lines, f"{overall}  all"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="keep the trees in this empty directory")
    args = parser.parse_args(argv)
    if args.out is None:
        with tempfile.TemporaryDirectory() as tmp:
            lines = digest_all(Path(tmp))
    else:
        if args.out.exists() and any(args.out.iterdir()):
            parser.error(f"--out {args.out} is not empty")
        args.out.mkdir(parents=True, exist_ok=True)
        lines = digest_all(args.out.resolve())
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
