"""The oracle fence: nothing served imports ``repro.testing``.

The reference implementations the suites compare against (dict store,
backtracking/naive matchers, full-rematch fixpoint, snapshot
transactions) live in ``repro.testing``.  Production packages must not
pull them in — checked twice: at run time (a fresh interpreter that
imports every served entry point has no oracle module loaded) and
statically (no production source file mentions the package).
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


def test_served_entry_points_load_no_oracle_module():
    probe = (
        "import importlib, sys\n"
        f"for name in {ENTRY_POINTS!r}:\n"
        "    importlib.import_module(name)\n"
        "leaked = sorted(m for m in sys.modules\n"
        "                if m == 'repro.testing' or m.startswith('repro.testing.') or 'refstore' in m)\n"
        "print(','.join(leaked))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


def test_no_production_source_mentions_the_testing_package():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "testing"
        and "repro.testing" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []
