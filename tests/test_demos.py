"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TOP = Path(__file__).resolve().parent.parent
DEMOS = sorted((TOP / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(TOP / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=TOP, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
