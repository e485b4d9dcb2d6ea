"""Command-line front end: solve paths to CSV, checks to JSON reports.

Subcommands and their defaults (`_SCHEMAS` holds them; a `None`
default means "resolved at run time" and the resolution rule is given
in parentheses):

  solve       gamma* rhs* u0*  T=1.0  mesh=graded  n=1024  out=None (stdout CSV)
              grading=None (2/gamma), with mesh=graded only
              t-start=None (T*1e-6), with mesh=geometric only
  ml          alpha* z*  beta=1.0
  caputo      gamma* in*  u0=None (first sample)  out=None (stdout CSV)
  jint        gamma* in*  out=None (stdout CSV)
  blowup      gamma* A* p* u0*  u-max=1e8  refine-levels=2  out=None
  extinction  gamma* A* p* u0*  eps-touch=None (solver default)  out=None
  asympt      gamma* u0*  rhs or A+p*  T=1.0  mesh=graded  n=1024
              grading/t-start as in solve  t-lo/t-hi=None (last decade)  out=None
  envelope    gamma* A* p* u0*  T=10.0  n=1024  out=None
  verify      mode*, and the settings of that mode alone:
              comparison|stability  trials=100  n=256  out=None
                  seed=None (FRACODE_SEED env, then the shipped corpus seed)
              resolvent  lam=1.0  gamma=0.5  T=1.0  n=4096  out=None

(* = required.)  Every flag can instead be supplied through a JSON
config file (`--config path` or `--config=path`, keys named like the
flags with underscores); explicit flags override config values.  A flag
or key that the run would not read (one of another verify mode, a mesh
shape of another mesh kind) is a usage error; `fracode verify --help`
names the modes that read each flag.  Every JSON report embeds the
fully resolved config, exactly the settings its run read, so a run can
be reproduced bit for bit by feeding that object back as a config file.

Exit codes: 0 success, 1 a verification check failed, 2 usage or
config error, 3 numerical failure (a right-hand side that does not
evaluate included).  CSV output is `t,u` with 17
significant digits and LF line endings; files are written atomically
(temp file in the target directory, then rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from fracode import __version__
from fracode.asymptotics import eval_envelope, fit_power, supersolution_params
from fracode.expressions import EvalError, ParseError
from fracode.fracops import Mesh, SampledFn, caputo_l1, default_grading, frac_integral
from fracode.solver import (
    FracProblem,
    NonBlowupError,
    PathStatus,
    StepCollapseError,
    detect_blowup,
    detect_extinction,
    solve,
)
from fracode.specfun import AccuracyLossError, MLQuery, PoleError, mittag_leffler
from fracode.verify import (
    CORPUS_SEED,
    check_comparison,
    check_resolvent,
    corpus_reports,
    stability_experiment,
)

__all__ = ["main", "run", "load_config"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_REQUIRED = object()

# the corpus modes of verify; seed None means FRACODE_SEED, then CORPUS_SEED
_CORPUS = {"seed": (int, None), "trials": (int, 100), "n": (int, 256), "out": (str, None)}

# key -> (coercion, default); _REQUIRED means the merge must find a value
_SCHEMAS: dict[str, dict] = {
    "solve": {
        "gamma": (float, _REQUIRED),
        "rhs": (str, _REQUIRED),
        "u0": (float, _REQUIRED),
        "T": (float, 1.0),
        "mesh": (str, "graded"),
        "n": (int, 1024),
        "grading": (float, None),
        "t_start": (float, None),
        "out": (str, None),
    },
    "ml": {
        "alpha": (float, _REQUIRED),
        "beta": (float, 1.0),
        "z": (float, _REQUIRED),
    },
    "caputo": {
        "gamma": (float, _REQUIRED),
        "in": (str, _REQUIRED),
        "u0": (float, None),
        "out": (str, None),
    },
    "jint": {
        "gamma": (float, _REQUIRED),
        "in": (str, _REQUIRED),
        "out": (str, None),
    },
    "blowup": {
        "gamma": (float, _REQUIRED),
        "A": (float, _REQUIRED),
        "p": (float, _REQUIRED),
        "u0": (float, _REQUIRED),
        "u_max": (float, 1e8),
        "refine_levels": (int, 2),
        "out": (str, None),
    },
    "extinction": {
        "gamma": (float, _REQUIRED),
        "A": (float, _REQUIRED),
        "p": (float, _REQUIRED),
        "u0": (float, _REQUIRED),
        "eps_touch": (float, None),
        "out": (str, None),
    },
    "asympt": {
        "gamma": (float, _REQUIRED),
        "rhs": (str, None),
        "A": (float, None),
        "p": (float, None),
        "u0": (float, _REQUIRED),
        "T": (float, 1.0),
        "mesh": (str, "graded"),
        "n": (int, 1024),
        "grading": (float, None),
        "t_start": (float, None),
        "t_lo": (float, None),
        "t_hi": (float, None),
        "out": (str, None),
    },
    "envelope": {
        "gamma": (float, _REQUIRED),
        "A": (float, _REQUIRED),
        "p": (float, _REQUIRED),
        "u0": (float, _REQUIRED),
        "T": (float, 10.0),
        "n": (int, 1024),
        "out": (str, None),
    },
    # each mode reads its own settings
    "verify": {
        "comparison": _CORPUS,
        "resolvent": {
            "lam": (float, 1.0),
            "gamma": (float, 0.5),
            "T": (float, 1.0),
            "n": (int, 4096),
            "out": (str, None),
        },
        "stability": _CORPUS,
    },
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like "-1*u" (for --rhs) or "-1" (for --A) must parse as
        # arguments, not options; all real flags here are double-dash
        self._negative_number_matcher = re.compile(r"^-[^-].*$")

    def error(self, message):  # keep the exit code under our control
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _build_parser() -> _Parser:
    top = _Parser(prog="fracode", add_help=True)
    subs = top.add_subparsers(dest="subcommand")
    for name, schema in _SCHEMAS.items():
        sp = subs.add_parser(name, prog=f"fracode {name}")
        sp.add_argument("--config", type=str, default=None)
        readers: dict[str, list[str]] = {}
        if name == "verify":  # a flag for every mode's settings, naming its modes
            sp.add_argument("mode", nargs="?", metavar="{" + ",".join(schema) + "}")
            for mode, modal in schema.items():
                for key in modal:
                    readers.setdefault(key, []).append(mode)
            schema = {key: spec for modal in schema.values() for key, spec in modal.items()}
        for key, (typ, _default) in schema.items():
            flag = "--" + key.replace("_", "-")
            modes = readers.get(key)
            help = f"read by {', '.join(modes)}" if modes else None
            sp.add_argument(flag, dest=key, type=typ, default=None, help=help)
    return top


_PARSER = _build_parser()


def load_config(path: str) -> dict:
    """Strict JSON config: object with keys named like the flags."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )
    if not isinstance(raw, dict):
        raise UsageError("config must be a JSON object")
    if "subcommand" not in raw and isinstance(raw.get("config"), dict):
        raw = raw["config"]  # a saved report replays as its own config
    return raw


def _inject_subcommand(argv: list[str]) -> tuple[list[str], dict | None]:
    """Allow running straight from a config that names the subcommand.

    Returns the argv to parse and the config read on the way, if any.
    """
    if argv and argv[0] in _SCHEMAS:
        return argv, None
    path = None
    for i, arg in enumerate(argv):  # the last wins, as in argparse
        if arg == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a path")
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.partition("=")[2]
    if path is None:
        return argv, None
    config = load_config(path)
    sub = config.get("subcommand")
    if sub not in _SCHEMAS:
        raise UsageError(f"config names no valid subcommand: {sub!r}")
    return [sub] + argv, config


def _effective_config(sub: str, config: dict, ns: argparse.Namespace) -> dict:
    schema = _SCHEMAS[sub]
    if "subcommand" in config and config["subcommand"] != sub:
        raise UsageError(
            f'config subcommand "{config["subcommand"]}" does not match "{sub}"'
        )
    name = sub
    if sub == "verify":
        mode = ns.mode if ns.mode is not None else config.get("mode")
        if mode not in list(schema):  # a list, not the dict: a config's mode may be unhashable
            raise UsageError(f"verify mode must be one of {', '.join(schema)}, got {mode!r}")
        name, schema = f"verify {mode}", {"mode": (str, _REQUIRED), **schema[mode]}
    allowed = set(schema) | {"subcommand"}
    for key in config:
        if key not in allowed:
            raise UsageError(f'unknown config key "{key}" for {name}')
    for key, val in vars(ns).items():
        if val is not None and key not in allowed | {"config"}:
            raise UsageError(f"--{key.replace('_', '-')} does not apply to {name}")
    eff = {"subcommand": sub}
    for key, (typ, default) in schema.items():
        val = getattr(ns, key, None)
        if val is None and key in config:
            val = config[key]
        if val is None:
            val = default
        if val is _REQUIRED:
            raise UsageError(f"missing required --{key.replace('_', '-')} for {sub}")
        if val is not None:
            try:
                val = typ(val)
            except (TypeError, ValueError):
                raise UsageError(f"bad value for --{key.replace('_', '-')}: {val!r}")
        eff[key] = val
    return eff


def _atomic_write(path: str, text: str) -> None:
    target_dir = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=target_dir, prefix=".fracode-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv_text(t: np.ndarray, u: np.ndarray) -> str:
    rows = ["t,u"]
    rows.extend(f"{ti:.17g},{ui:.17g}" for ti, ui in zip(t, u))
    return "\n".join(rows) + "\n"


def _read_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise UsageError(f"cannot read --in: {exc}")
    if lines and lines[0].replace(" ", "").lower() == "t,u":
        lines = lines[1:]
    if not lines:
        raise UsageError("--in holds no samples")
    t, u = [], []
    for ln in lines:
        cells = ln.split(",")
        if len(cells) != 2:
            raise UsageError(f"--in is not two-column CSV: {ln!r}")
        try:
            t.append(float(cells[0]))
            u.append(float(cells[1]))
        except ValueError:
            raise UsageError(f"--in holds a non-numeric cell: {ln!r}")
    return np.asarray(t), np.asarray(u)


def _emit_report(eff: dict, payload: dict) -> None:
    report = {"version": __version__, "config": eff, **payload}
    text = json.dumps(report, indent=2) + "\n"
    if eff.get("out"):
        _atomic_write(eff["out"], text)
    sys.stdout.write(text)


def _emit_csv(eff: dict, t: np.ndarray, u: np.ndarray, extra: dict) -> None:
    text = _csv_text(t, u)
    if eff.get("out"):
        # the artifact goes to --out; the report (with the config echo)
        # goes to stdout so the run stays reproducible
        _atomic_write(eff["out"], text)
        report = {"version": __version__, "config": eff, **extra, "rows": int(t.size)}
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write(text)


def _build_mesh(eff: dict) -> Mesh:
    kind, T, n = eff["mesh"], eff["T"], eff["n"]
    if kind not in ("uniform", "graded", "geometric"):
        raise UsageError(f"--mesh must be uniform, graded or geometric, got {kind!r}")
    # each shape setting belongs to one kind; the echo keeps only the one read
    for owner, key in (("graded", "grading"), ("geometric", "t_start")):
        if kind != owner and eff.pop(key) is not None:
            raise UsageError(f"--{key.replace('_', '-')} goes only with --mesh {owner}")
    if kind == "uniform":
        return Mesh.uniform(T, n)
    if kind == "graded":
        if eff["grading"] is None:
            eff["grading"] = default_grading(eff["gamma"])  # materialize into the echo
        return Mesh.graded(T, n, eff["grading"])
    if eff["t_start"] is None:
        eff["t_start"] = T * 1e-6
    return Mesh.geometric(T, n, eff["t_start"])


def _run_solve(eff: dict) -> int:
    prob = FracProblem.from_rhs(eff["gamma"], eff["rhs"], eff["u0"], eff["T"])
    mesh = _build_mesh(eff)
    path = solve(prob, mesh)
    _emit_csv(eff, path.mesh.nodes, path.values, {"status": path.status.name})
    # suspected blow-up or extinction is an informative outcome; a path
    # cut short because f stopped evaluating is a numerical failure
    if path.status is PathStatus.EVALUATION_FAILURE:
        return EXIT_NUMERICAL
    return EXIT_OK


def _run_ml(eff: dict) -> int:
    val = mittag_leffler(MLQuery(alpha=eff["alpha"], beta=eff["beta"], z=eff["z"]))
    sys.stdout.write(f"{val}\n")
    return EXIT_OK


def _run_caputo(eff: dict) -> int:
    t, u = _read_csv(eff["in"])
    fn = SampledFn(Mesh(t), u)
    u0 = eff["u0"] if eff["u0"] is not None else float(u[0])
    out = caputo_l1(eff["gamma"], fn, u0)
    _emit_csv(eff, t, out.values, {"in": eff["in"]})
    return EXIT_OK


def _run_jint(eff: dict) -> int:
    t, u = _read_csv(eff["in"])
    out = frac_integral(eff["gamma"], SampledFn(Mesh(t), u))
    _emit_csv(eff, t, out.values, {"in": eff["in"]})
    return EXIT_OK


def _run_blowup(eff: dict) -> int:
    prob = FracProblem.power_law(eff["gamma"], eff["A"], eff["p"], eff["u0"], 1.0)
    rep = detect_blowup(prob, u_max=eff["u_max"], refine_levels=eff["refine_levels"])
    _emit_report(
        eff,
        {
            "Tb_estimate": rep.Tb_estimate,
            "exponent_fit": rep.exponent_fit,
            "constant_fit": rep.constant_fit,
            "theory_exponent": rep.theory_exponent,
            "theory_constant": rep.theory_constant,
            "refinement_drift": rep.refinement_drift,
        },
    )
    return EXIT_OK


def _run_extinction(eff: dict) -> int:
    prob = FracProblem.power_law(eff["gamma"], eff["A"], eff["p"], eff["u0"], 1.0)
    rep = detect_extinction(prob, eps_touch=eff["eps_touch"])
    _emit_report(
        eff,
        {"touch_time": rep.touch_time, "upper_bound_time": rep.upper_bound_time},
    )
    return EXIT_OK


def _asympt_theory(prob: FracProblem) -> tuple[float | None, float | None]:
    """Asymptotic exponent and constant of u(t) itself, where one exists."""
    if not prob.is_power_law or prob.A == 0.0:
        return None, None
    g, A, p = prob.gamma, prob.A, prob.p
    if A < 0.0 and p > 0.0:
        return -g / p, None  # two-sided bounds, no single constant
    if A > 0.0 and p < 1.0:
        from fracode.asymptotics import subsolution_params

        a, _t0 = subsolution_params(A, p, g, prob.u0)
        return g / (1.0 - p), a  # self-similar balance constant
    return None, None


def _run_asympt(eff: dict) -> int:
    has_power = eff["A"] is not None and eff["p"] is not None
    if has_power == (eff["rhs"] is not None):
        raise UsageError("asympt needs either --rhs or the pair --A/--p")
    if (eff["t_lo"] is None) != (eff["t_hi"] is None):
        raise UsageError("--t-lo and --t-hi come together")
    if has_power:
        prob = FracProblem.power_law(eff["gamma"], eff["A"], eff["p"], eff["u0"], eff["T"])
    else:
        prob = FracProblem.from_rhs(eff["gamma"], eff["rhs"], eff["u0"], eff["T"])
    path = solve(prob, _build_mesh(eff))
    window = (eff["t_lo"], eff["t_hi"]) if eff["t_lo"] is not None else None
    fit = fit_power(path, window)
    theory_exp, theory_const = _asympt_theory(prob)
    _emit_report(
        eff,
        {
            "exponent": fit.exponent,
            "constant": fit.constant,
            "window": list(fit.window),
            "rms_residual": fit.rms_residual,
            "theory_exponent": theory_exp,
            "theory_constant": theory_const,
            "status": path.status.name,
        },
    )
    return EXIT_OK


def _run_envelope(eff: dict) -> int:
    gamma, A, p, u0 = eff["gamma"], eff["A"], eff["p"], eff["u0"]
    params = supersolution_params(A, p, gamma, u0)
    prob = FracProblem.power_law(gamma, A, p, u0, eff["T"])
    mesh = Mesh.graded(eff["T"], eff["n"], default_grading(gamma))
    path = solve(prob, mesh)
    t = path.mesh.nodes
    lo = eval_envelope(params, "sub", t)
    hi = eval_envelope(params, "super", t)
    scale = np.maximum(1.0, np.abs(path.values))
    sub_margin = float(((path.values - lo) / scale).min())
    super_margin = float(((hi - path.values) / scale).min())
    ok = sub_margin >= -1e-6 and super_margin >= -1e-6
    _emit_report(
        eff,
        {
            "params": {
                "a": params.a,
                "t0": params.t0,
                "B1": params.B1,
                "B2": params.B2,
                "C1": params.C1,
                "C2": params.C2,
                "M1": params.M1,
            },
            "min_sub_margin_rel": sub_margin,
            "min_super_margin_rel": super_margin,
            "tolerance_rel": 1e-6,
            "sandwich_ok": ok,
        },
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _resolve_verify_defaults(eff: dict) -> None:
    if eff["seed"] is None:
        env = os.environ.get("FRACODE_SEED")
        if env is not None:
            try:
                eff["seed"] = int(env)
            except ValueError:
                raise UsageError(f"FRACODE_SEED is not an integer: {env!r}")
        else:
            eff["seed"] = CORPUS_SEED


def _run_verify(eff: dict) -> int:
    mode = eff["mode"]
    if mode == "resolvent":
        chk = check_resolvent(eff["lam"], eff["gamma"], eff["T"], eff["n"])
        ok = (
            chk.max_residual <= 1e-3
            and chk.min_r > 0.0
            and chk.ml_identity_dev <= 1e-3
        )
        _emit_report(
            eff,
            {
                "pass": ok,
                "records": [
                    {
                        "lam": chk.lam,
                        "gamma": chk.gamma,
                        "T": chk.T,
                        "n": eff["n"],
                        "max_residual": chk.max_residual,
                        "min_r": chk.min_r,
                        "ml_identity_dev": chk.ml_identity_dev,
                    }
                ],
            },
        )
        return EXIT_OK if ok else EXIT_VERIFICATION

    _resolve_verify_defaults(eff)
    # looked up per call, so a rebound module attribute takes effect
    check = check_comparison if mode == "comparison" else stability_experiment
    results = corpus_reports(check, eff["seed"], eff["trials"], eff["n"])
    if mode == "comparison":
        fields = ("min_margin", "violations")
        min_margin = min([math.inf] + [rep.min_margin for _, rep in results])
        violations = sum(rep.violations for _, rep in results)
        ok = violations == 0
        summary = {"min_margin": min_margin, "violations": violations}
    else:
        fields = ("min_y", "sup_ratio", "ml_envelope_ok", "lipschitz")
        min_y = min([math.inf] + [rep.min_y for _, rep in results])
        envelopes_ok = all(rep.ml_envelope_ok for _, rep in results)
        ok = min_y > 0.0 and envelopes_ok
        summary = {"min_y": min_y, "all_envelopes_ok": envelopes_ok}
    records = [
        {key: getattr(prob, key) for key in ("index", "gamma", "rhs", "u10", "u20")}
        | {key: getattr(rep, key) for key in fields}
        for prob, rep in results
    ]
    _emit_report(
        eff, {"pass": ok, "trials": eff["trials"], **summary, "records": records}
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


_DISPATCH = {
    "solve": _run_solve,
    "ml": _run_ml,
    "caputo": _run_caputo,
    "jint": _run_jint,
    "blowup": _run_blowup,
    "extinction": _run_extinction,
    "asympt": _run_asympt,
    "envelope": _run_envelope,
    "verify": _run_verify,
}


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, config = _inject_subcommand(argv)
        ns = _PARSER.parse_args(argv)
        if ns.subcommand is None:
            raise UsageError(
                "a subcommand is required\n" + _PARSER.format_usage().rstrip()
            )
        if config is None:
            config = load_config(ns.config) if ns.config else {}
        eff = _effective_config(ns.subcommand, config, ns)
        return _DISPATCH[ns.subcommand](eff)
    except UsageError as exc:
        print(f"fracode: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvalError as exc:
        # before ValueError, which it subclasses: an rhs that fails to
        # evaluate is a numerical failure, not a usage error
        print(f"fracode: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ParseError, ValueError) as exc:
        print(f"fracode: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        StepCollapseError,
        NonBlowupError,
        AccuracyLossError,
        PoleError,
        OverflowError,
        FloatingPointError,
        ZeroDivisionError,
        RuntimeError,
    ) as exc:
        print(f"fracode: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run())
