"""The benchmark's four workloads: operations, inputs, references and gates.

Every operation drives a public entry point.  Commands go through
`fracode.cli.run` in-process with stdout captured; the large-N solve and
its transforms go through the library.  Each operation carries a check
against its reference (the gates) and a digest of its output, so that a
report that changes between repeats of the same code counts as failed.

The program's inputs are the paper's reference problems and the shipped
corpus, so reports and digests compare across commits; the benchmark's
`--seed` only orders the operations inside each pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CORPUS_TRIALS = 4


@dataclass
class Op:
    """One CLI command or library call, timed on `run` and judged on its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, list[str]]]  # -> (figures, failures)
    digest: Callable[[object], str]
    bounds: dict[str, float] = field(default_factory=dict)  # accuracy figure -> gate


@dataclass
class Workload:
    name: str
    groups: list[list[Op]]  # a group runs in order; group order is shuffled per pass
    op1: str
    op2: str
    err1: str  # "<op>.<figure>": the accuracy figures reported against their gates
    err2: str
    once: list[Op] = field(default_factory=list)  # accuracy passes, run once, untimed


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _gate(figures: dict, bounds: dict, failures: list[str]) -> tuple[dict, list[str]]:
    for key, value in figures.items():
        bound = bounds.get(key)
        if bound is not None and not value <= bound:
            failures.append(f"{key} = {value:.3e} exceeds its bound {bound:.3e}")
    return figures, failures


def _cli_op(fc, name: str, argv: list[str], judge, bounds=None) -> Op:
    """A command run through fracode.cli.run; `judge(report)` -> (figures, failures)."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fc.cli.run(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, text, err = result
        if code != 0:
            return {}, [f"{name}: exit code {code}: {err.strip()[:300]}"]
        return judge(json.loads(text))

    return Op(name, run, check, lambda result: _sha(result[1].encode()), bounds or {})


# --- corpus ------------------------------------------------------------


def corpus(fc, small: bool, corpus_seed: int) -> Workload:
    trials, n = (2, 64) if small else (CORPUS_TRIALS, 256)
    common = ["--trials", str(trials), "--seed", str(corpus_seed), "--n", str(n)]
    gates = {"eq_residual": 0.1}
    # the twin paths must stay at least 0.01 apart (0.127 today); the
    # figure is the inverse, so that lower is better like every other
    margin_gates = {"inverse_min_margin": 100.0}

    def judge_comparison(rep):
        failures = []
        if rep["violations"] != 0 or rep["pass"] is not True:
            failures.append(f"comparison: {rep['violations']} ordering violations")
        if not rep["min_margin"] > 0.0:
            return {}, failures + [f"comparison: min_margin = {rep['min_margin']}"]
        return _gate({"inverse_min_margin": 1.0 / rep["min_margin"]}, margin_gates, failures)

    def judge_stability(rep):
        failures = []
        if not rep["min_y"] > 0.0:
            failures.append(f"stability: min_y = {rep['min_y']} is not positive")
        if rep["all_envelopes_ok"] is not True or rep["pass"] is not True:
            failures.append("stability: a Mittag-Leffler envelope was exceeded")
        return {"min_y": rep["min_y"]}, failures

    problems = fc.verify.corpus_problems(corpus_seed, trials)

    def residuals():
        # variation-of-constants defect of every trial's computed pair
        return [
            fc.verify.stability_experiment(p.rhs, p.gamma, p.u10, p.u20, T=p.T, n=n).eq_residual
            for p in problems
        ]

    def judge_residuals(values):
        return _gate({"eq_residual": max(values)}, gates, [])

    return Workload(
        "corpus",
        groups=[
            [
                _cli_op(
                    fc,
                    "verify_comparison",
                    ["verify", "comparison", *common],
                    judge_comparison,
                    margin_gates,
                )
            ],
            [_cli_op(fc, "verify_stability", ["verify", "stability", *common], judge_stability)],
        ],
        op1="verify_comparison",
        op2="verify_stability",
        err1="stability_residuals.eq_residual",
        err2="verify_comparison.inverse_min_margin",
        once=[
            Op(
                "stability_residuals",
                residuals,
                judge_residuals,
                lambda values: _sha(np.array(values).tobytes()),
                gates,
            )
        ],
    )


# --- long_solve --------------------------------------------------------

LONG_N = 4096
GAMMA = 0.5


def ml_reference(nodes: np.ndarray) -> np.ndarray:
    """Exact solution of D^0.5 u = -u, u(0) = 1: E_0.5(-t^0.5) = exp(t) erfc(t^0.5).

    The closed form uses the standard library only, so the gate does not
    move when fracode's own Mittag-Leffler code does.
    """
    return np.array([math.exp(t) * math.erfc(math.sqrt(t)) for t in nodes.tolist()])


def solve_bounds(n: int) -> dict[str, float]:
    """Accuracy gates at N intervals, scaled as N^-2 from those at N = 8192.

    Measured: error against the exact solution 1.9e-9 and round trip
    7.8e-7 at N = 8192; 7.7e-9 and 2.2e-6 at N = 4096.
    """
    scale = (8192 / n) ** 2
    return {"ml_max_abs_err": 1e-8 * scale, "group_roundtrip": 4e-6 * scale}


def long_solve(fc, small: bool, corpus_seed: int, reference=ml_reference) -> Workload:
    big = 512 if small else LONG_N
    sizes = (big // 2, big)
    prob = fc.solver.FracProblem.power_law(GAMMA, -1.0, 1.0, 1.0, 1.0)
    meshes = {n: fc.fracops.Mesh.graded(1.0, n, fc.fracops.default_grading(GAMMA)) for n in sizes}
    refs: dict[int, np.ndarray] = {}
    latest: dict[tuple[str, int], object] = {}  # last result of each op, read by the next op

    def exact(n):
        if n not in refs:
            refs[n] = reference(meshes[n].nodes)
        return refs[n]

    def group(n: int) -> list[Op]:
        suffix = "" if n == big else "_half"
        bounds = solve_bounds(n)

        def solve():
            latest["u", n] = path = fc.solver.solve(prob, meshes[n])
            return path

        def check_solve(path):
            if path.status.name != "COMPLETED":
                return {}, [f"solve N={n}: status {path.status.name}"]
            err = float(np.abs(path.values - exact(n)).max())
            return _gate({"ml_max_abs_err": err}, bounds, [])

        def caputo():
            u = latest["u", n]
            latest["du", n] = du = fc.fracops.caputo_l1(GAMMA, u.sampled(), prob.u0)
            return du

        def jint():
            return fc.fracops.frac_integral(GAMMA, latest["du", n])

        def check_jint(back):
            # J^gamma(D^gamma u) against u - u0: the operator group round trip
            u = latest["u", n].values
            defect = float(np.abs(back.values - (u - prob.u0)).max())
            return _gate({"group_roundtrip": defect}, bounds, [])

        def values(result):
            return _sha(result.values.tobytes())

        return [
            Op("solve" + suffix, solve, check_solve, values, bounds),
            Op("caputo" + suffix, caputo, lambda du: ({}, []), values),
            Op("jint" + suffix, jint, check_jint, values, bounds),
        ]

    return Workload(
        "long_solve",
        groups=[group(sizes[0]), group(sizes[1])],
        op1="solve",
        op2="jint",
        err1="solve.ml_max_abs_err",
        err2="jint.group_roundtrip",
    )


# --- adaptive ----------------------------------------------------------

# closed forms for D^0.5 u = u^2 from u0 = 1: u ~ C (Tb - t)^(-1/2) with
# C = 1/sqrt(pi); extinction of D^g u = -1/u from u0 = 1 happens before
# (u0^2 Gamma(1+g))^(1/g), which is pi/4 at g = 0.5
BLOWUP_REFERENCE = {"exponent": 0.5, "constant": 1.0 / math.sqrt(math.pi)}
ADAPTIVE_GATES = {
    "blowup_exponent_rel_dev": 0.03,
    "blowup_constant_rel_dev": 0.10,
    "blowup_tb_drift": 0.01,
}


def touch_bound(gamma: float) -> float:
    return math.gamma(1.0 + gamma) ** (1.0 / gamma)


def adaptive(fc, small: bool, corpus_seed: int, reference=BLOWUP_REFERENCE) -> Workload:
    # The default stops (u_max = 1e8, eps_touch = 1e-6) take 1.3 s and
    # 3.3 s, too few passes per run for a steady statistic; stopping at
    # u = 1e4 and u = 1e-2 keeps every march and refinement level, and
    # gives the same fits, drift and touch time to 4 digits
    blowup_argv = ["blowup", "--gamma", "0.5", "--A", "1", "--p", "2", "--u0", "1"]
    blowup_argv += ["--u-max", "1e3" if small else "1e4"]
    ext_gamma = 0.8 if small else 0.5

    def judge_blowup(rep):
        figures = {
            "blowup_exponent_rel_dev": abs(rep["exponent_fit"] / reference["exponent"] - 1.0),
            "blowup_constant_rel_dev": abs(rep["constant_fit"] / reference["constant"] - 1.0),
            "blowup_tb_drift": rep["refinement_drift"],
        }
        return _gate(figures, ADAPTIVE_GATES, [])

    def judge_extinction(rep):
        limit = touch_bound(ext_gamma) * 1.02
        failures = []
        if not 0.0 < rep["touch_time"] <= limit:
            failures.append(f"extinction: touch {rep['touch_time']} outside (0, {limit}]")
        return {"touch_time": rep["touch_time"]}, failures

    ext_argv = ["extinction", "--gamma", str(ext_gamma), "--A", "-1", "--p", "-1", "--u0", "1"]
    ext_argv += ["--eps-touch", "1e-2"]
    return Workload(
        "adaptive",
        groups=[
            [_cli_op(fc, "blowup", blowup_argv, judge_blowup, ADAPTIVE_GATES)],
            [_cli_op(fc, "extinction", ext_argv, judge_extinction)],
        ],
        op1="blowup",
        op2="extinction",
        err1="blowup.blowup_constant_rel_dev",
        err2="blowup.blowup_tb_drift",
    )


# --- resolvent ---------------------------------------------------------

RESOLVENT_GATES = {"resolvent_max_residual": 1e-3, "resolvent_ml_identity_dev": 1e-3}


def resolvent(fc, small: bool, corpus_seed: int) -> Workload:
    def judge(rep):
        rec = rep["records"][0]
        failures = [] if rep["pass"] is True and rec["min_r"] > 0.0 else [
            f"resolvent lam={rec['lam']}: report does not pass"
        ]
        figures = {
            "resolvent_max_residual": rec["max_residual"],
            "resolvent_ml_identity_dev": rec["ml_identity_dev"],
        }
        return _gate(figures, RESOLVENT_GATES, failures)

    # n = 1024 instead of the default 4096 keeps a pass near 2 s, so a run
    # holds enough passes for a steady median; z still reaches -35 at
    # lam = 20, so the same ML branches run
    mild = ["verify", "resolvent", "--n", "512" if small else "1024"]
    stiff = ["verify", "resolvent", "--lam", "20", "--n", "1024"]
    return Workload(
        "resolvent",
        groups=[
            [_cli_op(fc, "verify_resolvent", mild, judge, RESOLVENT_GATES)],
            [_cli_op(fc, "verify_resolvent_stiff", stiff, judge, RESOLVENT_GATES)],
        ],
        op1="verify_resolvent",
        op2="verify_resolvent_stiff",
        err1="verify_resolvent.resolvent_max_residual",
        err2="verify_resolvent_stiff.resolvent_max_residual",
    )


BUILDERS = {"corpus": corpus, "long_solve": long_solve, "adaptive": adaptive, "resolvent": resolvent}
