"""The scripts under scripts/, run as a user would run them."""
import os
import subprocess
import sys
from pathlib import Path

import pkm
from pkm.stiffness import STIFFNESS_FIELDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_home_report_ties_only_kaz():
    # README's account of criterion 7: at home the two heads have the same
    # kappa, and of the six stiffness measures only kaz ties
    env = dict(os.environ)
    src = str(Path(pkm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(SCRIPTS / "home_report.py")],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert run.returncode == 0, run.stderr
    rows = {line.split()[0]: line.split()[1:] for line in run.stdout.splitlines() if line.strip()}
    assert [name for name in STIFFNESS_FIELDS if rows[name][-1] == "(tie)"] == ["kaz"]
    z3_kappa, a3_kappa = rows["kappa"]
    assert z3_kappa == a3_kappa
