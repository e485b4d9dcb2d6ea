"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics computed from its spans.

The tracer wraps the calls into each fracode module by rebinding module
attributes from the outside; no file of the package is touched.  Each
span records its name, start, end and parent, plus up to three numbers
read from the call's arguments or result (input size, steps, sweeps).
Spans live in flat arrays while the workload runs and are written out
only when it ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter

import numpy as np


def _solve_info(args, result):
    return args[1].nodes.size, result.values.size - 1, result.corrector_iterations


def _second_arg_size(args, result):
    return (args[1].values.size,)


def _moments_cells(args, result):
    return (args[2].size - 1,)


def _ml_z(args, result):
    return (args[0].z,)


def _march_nodes(args, result):
    return (result.path.values.size,)


_HOOKS = {
    "solver.solve": _solve_info,
    "fracops.moments": _moments_cells,
    "fracops.frac_integral": _second_arg_size,
    "fracops.caputo_l1": _second_arg_size,
    "specfun.mittag_leffler": _ml_z,
    "solver.detect_blowup": _march_nodes,
    "solver.detect_extinction": _march_nodes,
}

# (attribute path under the fracode package, span name).  Each entry is
# the name a calling module binds, so a call is wrapped exactly once.
# The recursive `evaluate` inside fracode.expressions is left alone: it
# runs millions of times per corpus pass.
BOUNDARIES = (
    ("cli.run", "cli.run"),
    ("cli.check_comparison", "verify.check_comparison"),
    ("verify.check_comparison", "verify.check_comparison"),
    ("cli.stability_experiment", "verify.stability_experiment"),
    ("verify.stability_experiment", "verify.stability_experiment"),
    ("cli.check_resolvent", "verify.check_resolvent"),
    ("verify.check_resolvent", "verify.check_resolvent"),
    ("cli.solve", "solver.solve"),
    ("verify.solve", "solver.solve"),
    ("solver.solve", "solver.solve"),
    ("cli.detect_blowup", "solver.detect_blowup"),
    ("cli.detect_extinction", "solver.detect_extinction"),
    ("solver.FracProblem.f", "solver.rhs"),
    ("solver._trapezoid_moments", "fracops.moments"),
    ("fracops._trapezoid_moments", "fracops.moments"),
    ("cli.frac_integral", "fracops.frac_integral"),
    ("verify.frac_integral", "fracops.frac_integral"),
    ("fracops.frac_integral", "fracops.frac_integral"),
    ("cli.caputo_l1", "fracops.caputo_l1"),
    ("verify.caputo_l1", "fracops.caputo_l1"),
    ("fracops.caputo_l1", "fracops.caputo_l1"),
    ("solver.parse", "expressions.parse"),
    ("verify.parse", "expressions.parse"),
    ("verify.lipschitz_probe", "expressions.lipschitz_probe"),
    ("verify.evaluate", "expressions.evaluate"),
    ("cli.mittag_leffler", "specfun.mittag_leffler"),
    ("verify.mittag_leffler", "specfun.mittag_leffler"),
    ("verify.resolvent", "specfun.resolvent"),
    ("cli.fit_power", "asymptotics.fit_power"),
    ("asymptotics.fit_power", "asymptotics.fit_power"),
)


class Tracer:
    """Records spans around the wrapped boundaries while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.steps = array("d")
        self.sweeps = array("d")
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        hook = _HOOKS.get(span_name)
        nan = math.nan
        extras = (self.size, self.steps, self.sweeps)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            for arr in extras:
                arr.append(nan)
            self._open.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._open.pop()
            if hook is not None:
                for arr, value in zip(extras, hook(args, result)):
                    arr[idx] = value
            return result

        return traced

    def install(self, fc) -> None:
        """Rebind every boundary of the fracode namespace `fc` to a traced wrapper."""
        for path, span_name in BOUNDARIES:
            *owner_path, attr = path.split(".")
            owner = fc
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "size": np.frombuffer(self.size).copy(),
            "steps": np.frombuffer(self.steps).copy(),
            "sweeps": np.frombuffer(self.sweeps).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# name -> (unit, end-to-end metric it should move, workloads it is read on).
# The end-to-end names are the per-command figures the record prints; the
# generic name each one is reported under is in README.md.
LAYERS = {
    "cli.run.self_ms": ("ms", "every command time (expected near 0)", "all"),
    "verify.check_comparison.ms_per_call": ("ms", "verify_comparison_s", "corpus"),
    "verify.stability_experiment.ms_per_call": ("ms", "verify_stability_s", "corpus"),
    "verify.solves_per_trial": ("count", "verify_comparison_s, verify_stability_s", "corpus"),
    "verify.check_resolvent.self_s": ("s", "verify_resolvent_s, verify_resolvent_stiff_s", "resolvent"),
    "solver.solve.calls": ("count", "solve_s; verify times", "long_solve; corpus"),
    "solver.solve.steps": ("count", "solve_s; verify times", "long_solve; corpus"),
    "solver.solve.self_us_per_step": ("us", "solve_s; verify times", "long_solve; corpus"),
    "solver.solve.loglog_slope": ("1", "solve_s", "long_solve"),
    "solver.corrector_sweeps_per_step": ("1", "solve_s", "long_solve"),
    "solver.rhs.evals_per_step": ("1", "verify times", "corpus"),
    "solver.rhs.ns_per_eval": ("ns", "verify times", "corpus"),
    "solver.detect_blowup.self_s": ("s", "blowup_s", "adaptive"),
    "solver.detect_extinction.self_s": ("s", "extinction_s", "adaptive"),
    "solver.march.nodes": ("count", "blowup_s, extinction_s", "adaptive"),
    "solver.march.us_per_node": ("us", "blowup_s, extinction_s", "adaptive"),
    "fracops.moments.calls": ("count", "solve_s, jint_s; blowup_s, extinction_s; verify times", "long_solve; adaptive; corpus"),
    "fracops.moments.us_per_call": ("us", "solve_s, jint_s; blowup_s, extinction_s; verify times", "long_solve; adaptive; corpus"),
    "fracops.moments.mean_cells": ("count", "solve_s, jint_s; blowup_s, extinction_s; verify times", "long_solve; adaptive; corpus"),
    "fracops.frac_integral.s": ("s", "jint_s; verify_resolvent_s, verify_resolvent_stiff_s", "long_solve; resolvent"),
    "fracops.frac_integral.loglog_slope": ("1", "jint_s", "long_solve"),
    "fracops.caputo_l1.s": ("s", "caputo_s", "long_solve"),
    "expressions.parse.us_per_call": ("us", "setup_s, verify times", "corpus"),
    "expressions.lipschitz_probe.calls": ("count", "verify times", "corpus"),
    "expressions.lipschitz_probe.ms_per_call": ("ms", "verify times", "corpus"),
    "expressions.evaluate.direct_calls": ("count", "verify_stability_s", "corpus"),
    "expressions.evaluate.ns_per_call": ("ns", "verify_stability_s", "corpus"),
    "specfun.mittag_leffler.calls": ("count", "verify_resolvent_stiff_s; verify_stability_s", "resolvent; corpus"),
    "specfun.mittag_leffler.us_per_call": ("us", "verify_resolvent_stiff_s; verify_stability_s", "resolvent; corpus"),
    "specfun.mittag_leffler.z_pos.calls": ("count", "verify_stability_s", "corpus"),
    "specfun.mittag_leffler.z_pos.us_per_call": ("us", "verify_stability_s", "corpus"),
    "specfun.mittag_leffler.z_neg_le1.calls": ("count", "verify_resolvent_s", "resolvent"),
    "specfun.mittag_leffler.z_neg_le1.us_per_call": ("us", "verify_resolvent_s", "resolvent"),
    "specfun.mittag_leffler.z_neg_gt1.calls": ("count", "verify_resolvent_stiff_s", "resolvent"),
    "specfun.mittag_leffler.z_neg_gt1.us_per_call": ("us", "verify_resolvent_stiff_s", "resolvent"),
    "specfun.resolvent.calls": ("count", "verify_resolvent_s, verify_resolvent_stiff_s", "resolvent"),
    "specfun.resolvent.us_per_call": ("us", "verify_resolvent_s, verify_resolvent_stiff_s", "resolvent"),
    "asymptotics.fit_power.ms_per_call": ("ms", "blowup_s", "adaptive"),
    "trace.overhead_share": ("1", "none", "all"),
}


def _ratio(num: float, den: float) -> float:
    # a layer the workload never reaches reads 0
    return float(num / den) if den else 0.0


def _loglog_slope(sizes: np.ndarray, durations: np.ndarray) -> float:
    """Slope of log(time) against log(size) over the distinct sizes; 0 for one size."""
    distinct = np.unique(sizes)
    if distinct.size < 2:
        return 0.0
    mean_t = np.array([durations[sizes == s].mean() for s in distinct])
    return float(np.polyfit(np.log(distinct), np.log(mean_t), 1)[0])


def layer_metrics(tracer: Tracer, cycles: int, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics over `cycles` traced passes; counts are per pass."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=dur[child], minlength=dur.size)
    self_t = dur - covered
    ids = {n: i for i, n in enumerate(tracer.names)}
    name_of_parent = np.where(child, a["name"][np.maximum(a["parent"], 0)], -1)

    def mask(span, parents=None):
        m = a["name"] == ids.get(span, -1)
        if parents is not None:
            m &= np.isin(name_of_parent, [ids.get(p, -1) for p in parents])
        return m

    def calls(span):
        return int(mask(span).sum())

    def busy(span):
        return float(dur[mask(span)].sum())

    def own(span):
        return float(self_t[mask(span)].sum())

    solve = mask("solver.solve")
    steps = float(np.nansum(a["steps"][solve]))
    march = mask("solver.detect_blowup") | mask("solver.detect_extinction")
    nodes = float(np.nansum(a["size"][march]))
    trials = max(calls("verify.check_comparison"), calls("verify.stability_experiment"))
    verify_solves = int(
        mask("solver.solve", ("verify.check_comparison", "verify.stability_experiment")).sum()
    )
    moments = mask("fracops.moments")
    jint = mask("fracops.frac_integral")

    m = {
        "cli.run.self_ms": _ratio(own("cli.run") * 1e3, calls("cli.run")),
        "verify.check_comparison.ms_per_call": _ratio(
            busy("verify.check_comparison") * 1e3, calls("verify.check_comparison")
        ),
        "verify.stability_experiment.ms_per_call": _ratio(
            busy("verify.stability_experiment") * 1e3, calls("verify.stability_experiment")
        ),
        "verify.solves_per_trial": _ratio(verify_solves, trials),
        "verify.check_resolvent.self_s": _ratio(
            own("verify.check_resolvent"), calls("verify.check_resolvent")
        ),
        "solver.solve.calls": calls("solver.solve") / cycles,
        "solver.solve.steps": steps / cycles,
        "solver.solve.self_us_per_step": _ratio(own("solver.solve") * 1e6, steps),
        "solver.solve.loglog_slope": _loglog_slope(a["size"][solve], dur[solve]),
        "solver.corrector_sweeps_per_step": _ratio(float(np.nansum(a["sweeps"][solve])), steps),
        "solver.rhs.evals_per_step": _ratio(
            int(mask("solver.rhs", ("solver.solve",)).sum()), steps
        ),
        "solver.rhs.ns_per_eval": _ratio(busy("solver.rhs") * 1e9, calls("solver.rhs")),
        "solver.detect_blowup.self_s": _ratio(
            own("solver.detect_blowup"), calls("solver.detect_blowup")
        ),
        "solver.detect_extinction.self_s": _ratio(
            own("solver.detect_extinction"), calls("solver.detect_extinction")
        ),
        "solver.march.nodes": nodes / cycles,
        "solver.march.us_per_node": _ratio(float(dur[march].sum()) * 1e6, nodes),
        "fracops.moments.calls": calls("fracops.moments") / cycles,
        "fracops.moments.us_per_call": _ratio(
            busy("fracops.moments") * 1e6, calls("fracops.moments")
        ),
        "fracops.moments.mean_cells": _ratio(
            float(np.nansum(a["size"][moments])), int(moments.sum())
        ),
        "fracops.frac_integral.s": busy("fracops.frac_integral") / cycles,
        "fracops.frac_integral.loglog_slope": _loglog_slope(a["size"][jint], dur[jint]),
        "fracops.caputo_l1.s": busy("fracops.caputo_l1") / cycles,
        "expressions.parse.us_per_call": _ratio(
            busy("expressions.parse") * 1e6, calls("expressions.parse")
        ),
        "expressions.lipschitz_probe.calls": calls("expressions.lipschitz_probe") / cycles,
        "expressions.lipschitz_probe.ms_per_call": _ratio(
            busy("expressions.lipschitz_probe") * 1e3, calls("expressions.lipschitz_probe")
        ),
        "expressions.evaluate.direct_calls": calls("expressions.evaluate") / cycles,
        "expressions.evaluate.ns_per_call": _ratio(
            busy("expressions.evaluate") * 1e9, calls("expressions.evaluate")
        ),
        "specfun.resolvent.calls": calls("specfun.resolvent") / cycles,
        "specfun.resolvent.us_per_call": _ratio(
            busy("specfun.resolvent") * 1e6, calls("specfun.resolvent")
        ),
        "asymptotics.fit_power.ms_per_call": _ratio(
            busy("asymptotics.fit_power") * 1e3, calls("asymptotics.fit_power")
        ),
        "trace.overhead_share": overhead_share,
    }

    ml = mask("specfun.mittag_leffler")
    z = a["size"]
    buckets = {
        "": ml,
        ".z_pos": ml & (z >= 0.0),
        ".z_neg_le1": ml & (z < 0.0) & (z >= -1.0),
        ".z_neg_gt1": ml & (z < -1.0),
    }
    for suffix, sel in buckets.items():
        n = int(sel.sum())
        m[f"specfun.mittag_leffler{suffix}.calls"] = n / cycles
        m[f"specfun.mittag_leffler{suffix}.us_per_call"] = _ratio(float(dur[sel].sum()) * 1e6, n)
    return m
