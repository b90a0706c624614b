"""The narrative demos run to completion without a traceback or a warning.

``demos/06_cli_specs.py`` is left out: it rewrites the committed outputs in
``demos/output/``, which ``test_cli.py`` compares against.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr, proc.stderr
