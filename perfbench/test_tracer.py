"""Tracer completeness check on every workload.

    python3 -m pytest perfbench/test_tracer.py

Runs each workload's traced run at full size (about a minute in all) and
requires its result to be correct.  That needs at least one check and
every check passing: span counts equal the counts the config implies (a
wrapper missing at an import site shows as zero calls from that module),
self times sum to each traced seed's wall time, the phases partition that
time, and traced outputs equal untraced ones.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_passes_its_checks(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seconds", "0", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
