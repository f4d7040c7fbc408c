"""Smoke: the whole harness at a tenth of the scale, then compare.py.

Collected by the CI step that runs ``pytest benchmarks/``; not part of
the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(script: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *argv], capture_output=True, text=True, timeout=300
    )


def test_quick_run_traced_run_and_compare(tmp_path):
    results = tmp_path / "results.json"
    served = _run("run.py", "--quick", "--out", str(results))
    assert served.returncode == 0, served.stdout + served.stderr
    summary = json.loads(served.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == {"point_read", "join_read", "write_commit", "mixed_rw", "routed_point_read"}

    traced = _run("run.py", "--quick", "--trace", "1", "--workload", "write_commit", "--out", str(results))
    assert traced.returncode == 0, traced.stdout + traced.stderr
    layers = json.loads(traced.stdout.strip().splitlines()[-1])["metrics"]
    assert layers["wal_fsyncs_per_commit"]["value"] == 1.0
    assert 0.8 < layers["span_sum_share"]["value"] < 1.2

    compared = _run("compare.py", str(results), str(results))
    assert compared.returncode == 0, compared.stdout + compared.stderr
    assert "regressed" not in compared.stdout
