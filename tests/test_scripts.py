"""The scripts under scripts/, run as a user would run them."""
import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env
from pkm.stiffness import STIFFNESS_FIELDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
        check=False,
    )


def test_home_report_ties_only_kaz():
    # README's account of criterion 7: at home the two heads have the same
    # kappa, and of the six stiffness measures only kaz ties
    run = run_script("home_report.py")
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines() if line.strip()}
    assert [name for name in STIFFNESS_FIELDS if rows[name][-1] == "(tie)"] == ["kaz"]
    z3_kappa, a3_kappa = rows["kappa"]
    assert z3_kappa == a3_kappa


def test_scalar_digest_is_repeatable():
    runs = [run_script("scalar_digest.py", "--queries", "50") for _ in range(2)]
    for run in runs:
        assert run.returncode == 0, run.stderr
        assert re.fullmatch(r"[0-9a-f]{64}\n", run.stdout)
        assert "queries solved" in run.stderr
    assert runs[0].stdout == runs[1].stdout
