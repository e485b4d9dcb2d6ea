"""Every attribute the benchmark tracer rebinds exists on the package,
and every reader it applies to a traced call accepts that call.

`perfbench/spans.py` times a traced benchmark run by rebinding each
module attribute in its `BOUNDARIES` to a wrapper, and its `_HOOKS`
read up to three numbers from a wrapped call's arguments and result.
These tests do not collect `perfbench/`, so a dropped or renamed
import (say `cli.check_comparison`), or a result field a reader no
longer finds, would otherwise show up only when a traced benchmark run
fails.  The file is loaded without writing bytecode next to it.
"""

import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fracode.fracops import Mesh, SampledFn
from fracode.solver import FracProblem
from fracode.specfun import MLQuery

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


_SPANS = _load_spans()
BOUNDARIES = _SPANS.BOUNDARIES
HOOKS = _SPANS._HOOKS


def _resolve(path):
    head, *attrs = path.split(".")
    owner = importlib.import_module(f"fracode.{head}")
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


def _tiny_args(span):
    # the arguments of one small call of the boundary traced as `span`
    mesh = Mesh.uniform(1.0, 8)
    t = mesh.nodes
    sampled = SampledFn(mesh, np.sqrt(t))
    return {
        "solver.solve": (FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0), mesh),
        "fracops.moments": (0.5, float(t[-1]), t, np.diff(t)),
        "fracops.frac_integral": (0.5, sampled),
        "fracops.caputo_l1": (0.5, sampled, 0.0),
        "specfun.mittag_leffler": (MLQuery(alpha=0.5, z=-1.0),),
        "solver.detect_blowup": (FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0), 1e2, 1),
        "solver.detect_extinction": (FracProblem.power_law(0.5, -1.0, -1.0, 1.0, 1.0), 0.5),
    }[span]


@pytest.mark.parametrize("path", [path for path, _span in BOUNDARIES])
def test_boundary_resolves_on_the_package(path):
    assert callable(_resolve(path))


@pytest.mark.parametrize("span", sorted(HOOKS))
def test_hook_reads_a_tiny_call_of_its_boundary(span):
    # the tracer stores each number the hook returns into a float array
    paths = [path for path, name in BOUNDARIES if name == span]
    assert paths, f"no boundary is traced as {span}"
    args = _tiny_args(span)
    for path in paths:
        values = tuple(HOOKS[span](args, _resolve(path)(*args)))
        assert 1 <= len(values) <= 3
        assert all(math.isfinite(float(v)) for v in values), values
