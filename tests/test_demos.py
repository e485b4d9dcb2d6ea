"""Smoke test for the demo scripts.

Each `demos/*.py` runs in a subprocess against the package under test
and must exit 0; together they take about 10 s and drive the solver,
both adaptive marches and the verification checks end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracode

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    srcdir = str(Path(fracode.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [srcdir, env.get("PYTHONPATH", "")] if p)
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
