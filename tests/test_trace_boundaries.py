"""Every attribute the benchmark tracer rebinds exists on the package.

`perfbench/spans.py` times a traced benchmark run by rebinding each
module attribute in its `BOUNDARIES` to a wrapper.  These tests do not
collect `perfbench/`, so a dropped or renamed import (say
`cli.check_comparison`) would otherwise show up only when a traced
benchmark run fails.  The file is loaded without writing bytecode next
to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.BOUNDARIES


BOUNDARIES = _load_boundaries()


@pytest.mark.parametrize("path", [path for path, _span in BOUNDARIES])
def test_boundary_resolves_on_the_package(path):
    head, *attrs = path.split(".")
    owner = importlib.import_module(f"fracode.{head}")
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)
