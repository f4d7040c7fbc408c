"""The fences: nothing served imports ``repro.testing`` or the paper's
non-served reproductions.

The reference implementations the suites compare against (dict store,
backtracking/naive matchers, the plan step interpreter, full-rematch
fixpoint, snapshot transactions) live in ``repro.testing``.  Production
packages must not pull them in — checked twice: at run time (a fresh
interpreter that imports every served entry point has no oracle module
loaded) and statically (no production source file mentions the
package).

The expressiveness and figure reproductions (Turing machines,
relational completeness, graph grammars, the hypermedia example) are
not served either: only ``repro.cli`` may import them, for its figure
and demo commands.  Nor are Section 5's relational and Tarski engines
(``repro.storage``, ``repro.tarski``): they are library code, and no
source file of the served packages names them.
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


NON_SERVED = (
    "repro.turing",
    "repro.relcomp",
    "repro.grammars",
    "repro.hypermedia",
    "repro.storage",
    "repro.tarski",
)

SERVED_PACKAGES = ("server", "mvcc", "wal", "cluster")


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


def test_no_production_source_names_the_plan_interpreter():
    """The step interpreter is the compiled executor's oracle: one
    execution path runs in production."""
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "testing"
        and "interpret_plan" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_no_served_source_names_an_engine_package():
    offenders = [
        str(path.relative_to(SRC))
        for package in SERVED_PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        if any(name in path.read_text(encoding="utf-8") for name in ("repro.storage", "repro.tarski"))
    ]
    assert offenders == []
