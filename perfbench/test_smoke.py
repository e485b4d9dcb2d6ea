"""Smoke test of the benchmark itself, at small sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload untraced and traced, checks that each reports every
metric BENCHMARK.json names with its unit, and checks that the gates trip
on a perturbed reference and on a digest that changes between repeats.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_matches_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _moves, _on) in spans.LAYERS.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_workload_reports_every_metric(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    if not trace:
        assert all(v["value"] > 0.0 for v in result["metrics"].values())


def _one_pass(workload) -> run.Ledger:
    ledger = run.Ledger()
    run.run_pass(ledger, workload, random.Random(0))
    return ledger


def test_long_solve_gate_trips_on_perturbed_reference():
    fc = run.import_fracode()
    assert _one_pass(workloads.long_solve(fc, True, 0)).failed == 0

    def shifted(nodes):
        return workloads.ml_reference(nodes) * (1.0 + 1e-4)

    ledger = _one_pass(workloads.long_solve(fc, True, 0, reference=shifted))
    assert ledger.failed == 2  # both solves
    assert all("ml_max_abs_err" in p for p in ledger.problems)


def test_adaptive_gate_trips_on_perturbed_reference():
    fc = run.import_fracode()
    wrong = dict(workloads.BLOWUP_REFERENCE, constant=workloads.BLOWUP_REFERENCE["constant"] * 1.2)
    ledger = _one_pass(workloads.adaptive(fc, True, 0, reference=wrong))
    assert ledger.failed == 1
    assert "blowup_constant_rel_dev" in ledger.problems[0]


def test_changed_digest_fails_the_repeat():
    outputs = iter(["a", "a", "b"])
    op = workloads.Op("flaky", lambda: next(outputs), lambda r: ({}, []), lambda r: r)
    ledger = run.Ledger()
    for _ in range(3):
        ledger.execute(op)
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert "digest changed" in ledger.problems[0]


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(
        "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
