"""Smoke test for the demo scripts.

Each `demos/*.py` runs in a subprocess against the package under test
and must exit 0; together they take about 10 s and drive the solver,
both adaptive marches and the verification checks end to end.  The
documented shell session `demos/cli_session.sh` runs under `sh` with a
`fracode` command on PATH, and its `--config` replay must match.
"""

import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import fracode

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=300, env=_package_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX sh")
def test_cli_session_runs_and_replays(tmp_path):
    # the wrapper an installer makes from the declared entry point, so
    # the session needs no installed package
    with (ROOT / "pyproject.toml").open("rb") as fh:
        module, attr = tomllib.load(fh)["project"]["scripts"]["fracode"].split(":")
    script = tmp_path / "fracode"
    script.write_text(
        f"#!{sys.executable}\nimport sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    script.chmod(0o755)
    env = _package_env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    proc = subprocess.run(
        ["sh", str(ROOT / "demos" / "cli_session.sh")],
        capture_output=True, text=True, timeout=300, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "replay matches" in proc.stdout


def _package_env() -> dict:
    # the subprocess imports the package under test, not a copy
    # installed elsewhere
    srcdir = str(Path(fracode.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [srcdir, env.get("PYTHONPATH", "")] if p)
    return env
