"""Every demo under ``demos/`` runs to completion.

``tests/test_unreached.py`` counts a reference from a demo as reaching a
definition, so each demo runs here in a fresh interpreter, in an empty
working directory, with one BLAS thread.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fittedq

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(fittedq.__file__).resolve().parents[1])


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
