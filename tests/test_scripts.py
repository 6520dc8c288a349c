"""The scripts under scripts/, run as a user would run them."""
import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env
from pkm.stiffness import STIFFNESS_FIELDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def start_script(name: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(SCRIPTS / name), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    child = start_script(name, *args)
    stdout, stderr = child.communicate(timeout=600)
    return subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)


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


def test_output_digest_is_repeatable(tmp_path):
    # side by side, since each run takes about 3 s; one keeps its trees
    kept = tmp_path / "kept"
    children = [start_script("output_digest.py", "--out", str(kept))]
    children.append(start_script("output_digest.py"))
    runs = [(*child.communicate(timeout=600), child.returncode) for child in children]
    for stdout, stderr, code in runs:
        assert code == 0, stderr
        names = [line.split("  ")[1] for line in stdout.splitlines()]
        assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in stdout.splitlines())
        # five comparisons, twelve maps, the poses, the kernel tables, all
        assert len(names) == 5 + 12 + 1 + 1 + 1 and names[-2:] == ["kernel_tables", "all"]
    assert runs[0][0] == runs[1][0]
    assert {path.name for path in kept.iterdir() if path.is_dir()} == set(names[:-1])
    console = (kept / "compare_21" / "compare.console").read_text(encoding="utf-8")
    assert console.startswith("exit 0\n") and "to <tree>/compare\n" in console


def test_untested_lines_lists_what_one_test_leaves_unrun():
    # one test of the one-pose chain, without the hypothesis plugin, whose
    # start-up would take most of the run
    run = run_script(
        "untested_lines.py",
        "-q",
        "-p",
        "no:cacheprovider",
        "-p",
        "no:hypothesispytest",
        str(Path(__file__).parent / "test_value_types.py"),
        "-k",
        "test_per_pose_types_are_slotted_and_frozen",
    )
    assert run.returncode == 0, run.stderr
    listed = [line for line in run.stdout.splitlines() if line.startswith("src/")]
    summary = re.fullmatch(
        r"(\d+) of (\d+) executable lines of src/pkm were not executed\n", run.stderr
    )
    assert int(summary[1]) == len(listed) < int(summary[2])
    package = SCRIPTS.parent / "src" / "pkm"
    by_file = {}
    for line in listed:
        path, number, text = re.fullmatch(r"src/pkm/(\w+\.py):(\d+): (.*)", line).groups()
        source = (package / path).read_text(encoding="utf-8").splitlines()
        assert source[int(number) - 1].strip() == text
        by_file.setdefault(path, []).append(int(number))
    assert all(numbers == sorted(numbers) for numbers in by_file.values())
    texts = {line.split(": ", 1)[1] for line in listed}
    # coupling_matrices ran on a regular pose, and no comparison ran
    assert "C1 = _freeze(_constraint_rows(params, attachments))" not in texts
    assert 'raise CouplingSingular(f"coupling system determinant {det:.3g} too small")' in texts
    assert 'return "tie" if not winners else "mixed"' in texts
