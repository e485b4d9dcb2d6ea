"""fracode benchmark: one workload per run, from a single process.

    python3 perfbench/run.py --workload {corpus,long_solve,adaptive,resolvent}
        --seed N --seconds S --trace {0,1} [--corpus-seed N] [--small]

Run from the root of a fracode source tree; the package is imported from
its `src/`.  A run sets up (import plus input construction, ten times at
the start and once after each pass), warms up on a small version of the
workload, then repeats passes over the workload's operations for about
`--seconds` seconds.  Times are reported as the median of their
samples, measured against a fixed reference task timed next to them:
each operation's time is divided by the mean of the reference times
taken right before and right after it, and each set-up time by the
reference time taken right after it.  Every operation is checked
against its reference, and its output digest must repeat across passes.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` untraced and traced passes alternate and the last line holds
the per-layer metrics computed from the traced passes' spans; a layer
the workload never reaches reads 0.  The last line is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(machine, versions, per-command times, accuracy figures, digests) is
printed as the line before it and written under `perfbench/out/`.
Exits 0 when every operation passed, 1 when one failed, and 2 when no
fracode source tree is found.
"""

from __future__ import annotations

import os

# one process, no worker threads: pin numpy's BLAS before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("cli", "solver", "fracops", "verify", "specfun", "expressions", "asymptotics")
SETUP_REPEATS = 10
# setup_s is in seconds of a machine on which the reference task takes
# this long (about its time in the fast mode of a 2-vCPU x86_64 VM)
NOMINAL_REFERENCE_S = 0.010


def _loaded_fracode() -> dict[str, types.ModuleType]:
    return {k: m for k, m in sys.modules.items() if k == "fracode" or k.startswith("fracode.")}


def import_fracode() -> types.SimpleNamespace:
    """Import fracode afresh (dropping any earlier copy) and return its modules."""
    for name in _loaded_fracode():
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"fracode.{m}") for m in MODULES}
    )


class Ledger:
    """Counts operations and failures; keeps times, figures and digests.

    `ratios` holds each untraced operation's time over the reference
    time around it, and `references` every reference time taken.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.traced_times: dict[str, list[float]] = {}
        self.traced = False  # set while the tracer is installed
        self.ratios: dict[str, list[float]] = {}
        self.references: list[float] = []
        self.figures: dict[str, dict] = {}
        self.shares: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def execute(self, op: workloads.Op) -> float:
        gc.collect()
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a raising operation is a failed one
            result, error = None, exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        (self.traced_times if self.traced else self.times).setdefault(op.name, []).append(elapsed)
        if error is not None:
            self._fail(f"{op.name}: raised {type(error).__name__}: {error}")
            return elapsed
        try:
            figures, failures = op.check(result)
            digest = op.digest(result)
        except Exception as exc:  # an unreadable output fails its check
            self._fail(f"{op.name}: output unreadable: {type(exc).__name__}: {exc}")
            return elapsed
        first = self.digests.setdefault(op.name, digest)
        if digest != first:
            failures.append(f"{op.name}: output digest changed between repeats")
        self.figures[op.name] = figures
        for key, bound in op.bounds.items():
            if key in figures:
                self.shares[f"{op.name}.{key}"] = figures[key] / bound
        if failures:
            self._fail("; ".join(failures))
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def absorb(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def run_pass(ledger: Ledger, workload: workloads.Workload, rng: random.Random) -> float:
    """One pass over the workload's operations, with the reference task
    timed before the first and after each one; returns the summed
    operation time over the pass's mean reference time.

    The machine's speed drifts in phases of seconds or longer, so an
    operation and the references next to it run at the same speed.
    """
    groups = list(workload.groups)
    rng.shuffle(groups)
    refs = [time_reference()]
    total = 0.0
    for op in (op for group in groups for op in group):
        elapsed = ledger.execute(op)
        refs.append(time_reference())
        total += elapsed
        if not ledger.traced:
            ledger.ratios.setdefault(op.name, []).append(2.0 * elapsed / (refs[-2] + refs[-1]))
    ledger.references.extend(refs)
    return total / (sum(refs) / len(refs))


def _tree(depth: int, k: int) -> tuple:
    if depth == 0:
        return ("x",) if k % 2 else ("c", 0.5 + k)
    return ("+*m"[k % 3], _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 2 * k + 2))


_TREE = _tree(5, 0)


def _evaluate(node: tuple, x: float) -> float:
    op = node[0]
    if op == "x":
        return x
    if op == "c":
        return node[1]
    a, b = _evaluate(node[1], x), _evaluate(node[2], x)
    if op == "+":
        return a + b
    if op == "*":
        return a * b
    return min(max(a, -b), b)


def reference_task() -> float:
    """Fixed work that no change to fracode touches; its time tracks the machine.

    It mimics the two kinds of work the workloads spend their time in:
    recursive evaluation of a small expression tree in the interpreter,
    and short numpy calls on 256 doubles, the corpus's mesh size.  Of
    several candidates timed next to the workloads' operations on the
    2-vCPU VM, this one tracked the machine's slow and fast phases best.
    """
    acc = 0.0
    for i in range(450):
        acc += _evaluate(_TREE, i * 1e-3)
    x = np.linspace(1.0, 2.0, 256)
    for _ in range(900):
        y = np.cumsum(x * 0.5)
        acc += float(y[-1]) + float(np.dot(x, y))
    return acc


def time_reference() -> float:
    start = time.perf_counter()
    reference_task()
    return time.perf_counter() - start


def median(values) -> float:
    return float(statistics.median(values))


def machine_info(corpus_seed: int) -> dict:
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "corpus_seed": corpus_seed,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--corpus-seed", type=int, default=None, help="default: fracode's CORPUS_SEED")
    p.add_argument("--small", action="store_true", help="small inputs, for smoke runs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fracode" / "__init__.py").is_file():
        print(f"perfbench: no fracode source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    build = workloads.BUILDERS[args.workload]

    def set_up():
        gc.collect()
        start = time.perf_counter()
        fc = import_fracode()
        corpus_seed = fc.verify.CORPUS_SEED if args.corpus_seed is None else args.corpus_seed
        workload = build(fc, args.small, corpus_seed)
        setup_times.append(time.perf_counter() - start)
        setup_references.append(time_reference())
        return fc, corpus_seed, workload

    def sample_set_up():
        # time a fresh set-up, then put the live modules back, so that
        # imports made at call time still reach the ones in use
        live = _loaded_fracode()
        set_up()
        for name in _loaded_fracode():
            del sys.modules[name]
        sys.modules.update(live)

    setup_times: list[float] = []
    setup_references: list[float] = []
    for _ in range(SETUP_REPEATS):
        fc, corpus_seed, workload = set_up()

    rng = random.Random(args.seed)
    ledger = Ledger()
    if not args.small:
        # its own ledger: the small outputs have digests of their own
        warm = Ledger()
        run_pass(warm, build(fc, True, corpus_seed), rng)
        ledger.absorb(warm)

    tracer = spans.Tracer() if args.trace else None
    plain_passes, traced_passes = [], []
    start = time.perf_counter()
    while True:
        plain_passes.append(run_pass(ledger, workload, rng))
        # set-up is sampled between passes, so that it sees the same mix
        # of the machine's fast and slow phases as the operations do
        sample_set_up()
        if tracer is not None:
            tracer.install(fc)
            ledger.traced = True
            try:
                traced_passes.append(run_pass(ledger, workload, rng))
            finally:
                ledger.traced = False
                tracer.uninstall()
        rounds = len(plain_passes)
        elapsed = time.perf_counter() - start
        if rounds >= (1 if tracer else 2) and elapsed * (rounds + 1) / rounds > args.seconds:
            break
    for op in workload.once:
        ledger.execute(op)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        **machine_info(corpus_seed),
        "setup_s_samples": setup_times,
        "setup_reference_s_samples": setup_references,
        "reference_s_samples": ledger.references,
        "pass_ref_samples": {"plain": plain_passes, "traced": traced_passes},
        "command_s": {name + "_s": median(t) for name, t in ledger.times.items()},
        "op_s_samples": ledger.times,
        "op_ref_samples": ledger.ratios,
        "traced_op_s_samples": ledger.traced_times,
        "figures": ledger.figures,
        "gate_shares": ledger.shares,
        "digests": ledger.digests,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_share": ledger.failed / max(ledger.attempted, 1),
        "problems": ledger.problems,
    }
    record["reference_s"] = median(ledger.references)
    if tracer is None:
        setup_ratios = [s / r for s, r in zip(setup_times, setup_references)]
        values = {
            "setup_s": median(setup_ratios) * NOMINAL_REFERENCE_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ref": median(plain_passes),
            "op1_ref": median(ledger.ratios[workload.op1]),
            "op2_ref": median(ledger.ratios[workload.op2]),
            # a figure is missing only when its operation failed, which
            # `correct` and `failed` already report
            "err1_to_gate": ledger.shares.get(workload.err1, 0.0),
            "err2_to_gate": ledger.shares.get(workload.err2, 0.0),
        }
        units = {"setup_s": "s", "peak_rss_mb": "MiB", "err1_to_gate": "1", "err2_to_gate": "1"}
        metrics = {k: {"value": v, "unit": units.get(k, "ref")} for k, v in values.items()}
    else:
        overhead = median(traced_passes) / median(plain_passes) - 1.0
        values = spans.layer_metrics(tracer, len(traced_passes), overhead)
        metrics = {k: {"value": v, "unit": spans.LAYERS[k][0]} for k, v in values.items()}
        record["layer_map"] = {k: {"moves": v[1], "on": v[2]} for k, v in spans.LAYERS.items()}
        # layers this workload never reaches read 0: not measured here
        record["not_measured"] = [k for k, v in values.items() if v == 0.0]
    record["metrics"] = metrics

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}{'-small' if args.small else ''}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{tag}-spans.npz")

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, value in record["command_s"].items():
        print(f"{name:48s} {value:.6g} s")
    for problem in ledger.problems:
        print(f"FAILED: {problem}")
    print(json.dumps(record))
    correct = ledger.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
