#!/usr/bin/env python3
"""Print each line of src/pkm that no test executes in the pytest process.

    python3 scripts/untested_lines.py [PYTEST_ARGS ...]

Runs pytest in this process (the tests directory by default; any
arguments go to pytest in its place) with a sys.settrace line tracer on
the pkm sources, and prints one `src/pkm/FILE.py:LINE: SOURCE` line per
executable line that no traced frame reached, in file and line order.  A
line counts as executable when the compiled module maps a bytecode
instruction to it.  Code that a test runs in a child process is not
traced, so its lines are listed although a test covers them.  The exit
code is 0 when pytest ran, whether or not tests failed, and pytest's own
exit code when it could not run them.  Under the tracer, tests run
roughly twice as slowly as without it.
"""
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(os.path.realpath(ROOT / "src" / "pkm"))


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the bytecode of one source file maps instructions to."""
    lines = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """A pytest plugin that records the (file, line) pairs executed under PACKAGE."""

    def __init__(self):
        self.seen: set[tuple[str, int]] = set()
        self._ours: dict[str, bool] = {}  # co_filename -> whether it lies under PACKAGE

    def _call(self, frame, event, arg):
        # only pkm frames get a line tracer; every other frame runs untraced
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = Path(os.path.realpath(name)).parent == PACKAGE
        return self._line if ours else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @pytest.hookimpl(tryfirst=True)
    def pytest_load_initial_conftests(self):
        # before tests/conftest.py imports pkm, so import-time lines count
        sys.settrace(self._call)

    def pytest_unconfigure(self):
        sys.settrace(None)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer()
    code = pytest.main(argv or [str(ROOT / "tests")], plugins=[tracer])
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return int(code)
    seen = {(os.path.realpath(name), line) for name, line in tracer.seen}
    untested = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines):
            if (str(path), line) not in seen:
                untested += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{untested} of {total} executable lines of src/pkm were not executed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
