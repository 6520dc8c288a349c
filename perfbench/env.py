"""Locating the checkout, importing pkm from its sources, and provenance.

The benchmark measures the ``pkm`` package in the checkout it sits in:
``<root>/src/pkm``.  It never falls back to an installed copy, so a
directory without the sources makes every entry point fail.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


class MissingSources(RuntimeError):
    """The checkout holds no pkm sources to measure."""


def child_env() -> dict:
    """Environment for a fresh interpreter that imports pkm from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_pkm():
    """Import pkm from SRC and refuse any other copy."""
    if not (SRC / "pkm" / "__init__.py").is_file():
        raise MissingSources(f"no pkm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkm = importlib.import_module("pkm")
    importlib.import_module("pkm.cli")  # the package does not import its CLI
    if Path(pkm.__file__).resolve().parent != (SRC / "pkm").resolve():
        raise MissingSources(f"imported pkm from {pkm.__file__}, expected {SRC / 'pkm'}")
    return pkm


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest() -> str:
    """sha256 over src/pkm/*.py, which identifies the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "pkm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }
