"""Shared pytest plumbing: surfaces acceptance verdict lines, and runs
Python children under a chosen BLAS thread count.

Default capture swallows test stdout, so the acceptance tests record
their PASS/FAIL lines here and a terminal-summary hook prints them once
the run finishes, where they are always visible.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if _VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in _VERDICTS:
            terminalreporter.write_line(line)


def blas_env(threads: int) -> dict:
    """Environment for a child Python whose BLAS runs ``threads`` threads
    and which imports this checkout's package.

    BLAS reads its thread count once, when it loads, so only a new
    process can run under another count.
    """
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                OMP_NUM_THREADS=str(threads), PYTHONPATH=path)


def run_child(code: str, threads: int, *args: str) -> str:
    """Stdout of ``python -c code *args`` under ``threads`` BLAS threads."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=blas_env(threads), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
