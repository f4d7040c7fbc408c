"""The fences: nothing served imports ``repro.testing`` or the paper's
non-served reproductions.

The reference implementations the suites compare against (dict store,
backtracking/naive matchers, full-rematch fixpoint, snapshot
transactions) live in ``repro.testing``.  Production packages must not
pull them in — checked twice: at run time (a fresh interpreter that
imports every served entry point has no oracle module loaded) and
statically (no production source file mentions the package).

The expressiveness and figure reproductions (Turing machines,
relational completeness, graph grammars, the hypermedia example) are
not served either: only ``repro.cli`` may import them, for its figure
and demo commands.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

ENTRY_POINTS = (
    "repro.server",
    "repro.cluster",
    "repro.cluster.worker",
    "repro.cluster.replica",
    "repro.wal",
    "repro.mvcc",
    "repro.cli",
)


NON_SERVED = ("repro.turing", "repro.relcomp", "repro.grammars", "repro.hypermedia")


def loaded_modules(entry_points):
    """Every module a fresh interpreter holds after importing ``entry_points``."""
    probe = (
        "import importlib, sys\n"
        f"for name in {tuple(entry_points)!r}:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_served_entry_points_load_no_oracle_module():
    leaked = [
        m
        for m in loaded_modules(ENTRY_POINTS)
        if m == "repro.testing" or m.startswith("repro.testing.") or "refstore" in m
    ]
    assert leaked == []


def test_served_entry_points_load_no_non_served_package():
    served = [name for name in ENTRY_POINTS if name != "repro.cli"]
    leaked = [
        m
        for m in loaded_modules(served)
        if any(m == package or m.startswith(package + ".") for package in NON_SERVED)
    ]
    assert leaked == []


def test_no_production_source_mentions_the_testing_package():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "testing"
        and "repro.testing" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
