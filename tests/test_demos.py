"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pce_loops

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# the directory pce_loops was imported from, so the scripts see the same code
PACKAGE_ROOT = str(Path(pce_loops.__file__).resolve().parents[1])


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
