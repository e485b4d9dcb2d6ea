"""Order-theoretic checks on computed paths.

Three families of checks, all phrased as falsification attempts:

  comparison -- two trajectories of the same equation started from
  ordered initial values must stay nodewise ordered; a sub/super pair
  (same start, right-hand sides differing by a nonnegative forcing)
  must stay ordered the same way.

  stability -- the normalized difference y = (u2-u1)/(u20-u10) starts
  at 1, stays positive, and is dominated by the Mittag-Leffler
  envelope E_gamma(L Gamma(gamma) t^gamma) built from a probed
  Lipschitz constant; y also satisfies the variation-of-constants
  equation y(t) + int_0^t (t-s)^{gamma-1} v(s) y(s) ds = 1 with
  v = -(f(s,u2)-f(s,u1)) / ((u2-u1) Gamma(gamma)), whose residual is
  reported.

  resolvent -- the kernel r_lam solves
  r(t) + lam int_0^t (t-s)^{gamma-1} r(s) ds = lam t^{gamma-1},
  stays positive, and integrates to 1 - E_gamma(-lam Gamma(gamma) t^gamma).

`max_principle_defect` is the discrete surrogate of the
maximum-point sign property: at any node where the path attains its
running maximum, the L1 derivative is nonnegative up to roundoff
(summation by parts against the increasing kernel averages makes this
exact in exact arithmetic, on any mesh).

The random corpus pairs each check with reproducible problem data:
degree <= 3 polynomials in (t, u) with coefficients in [-2, 2],
optionally composed with sin or a clipped exp, then value-clipped so
that |u| <= |u0| + cap * T^gamma / Gamma(1+gamma) <= 10 holds for every
trajectory regardless of the drawn coefficients.  `corpus_reports` is
the one loop over it: `run_corpus` and the CLI's corpus modes run
their checks through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from fracode.expressions import (  # noqa: F401 -- the benchmark trace binds verify.evaluate
    Binary,
    EvalError,
    Expr,
    compile_expr,
    evaluate,
    lipschitz_probe,
    parse,
)
from fracode.fracops import (
    Mesh,
    SampledFn,
    caputo_l1,
    default_grading,
    frac_integral,
    power_weighted_integral,
)
from fracode.solver import FracProblem, SolutionPath, solve
from fracode.specfun import (  # noqa: F401 -- the benchmark trace binds verify.resolvent
    EPS,
    MLQuery,
    _ml_many,
    gamma_fn,
    mittag_leffler,
    resolvent,
)

__all__ = [
    "VIOLATION_TOL",
    "CORPUS_SEED",
    "ComparisonReport",
    "StabilityReport",
    "ResolventCheck",
    "CorpusProblem",
    "TrialRecord",
    "CorpusReport",
    "check_comparison",
    "check_subsupersolution",
    "check_resolvent",
    "stability_experiment",
    "max_principle_defect",
    "corpus_problems",
    "corpus_reports",
    "run_corpus",
]

# margins below this count as ordering violations; anything above is
# roundoff
VIOLATION_TOL = -1e-9

# the seed list shipped with the repo is this master seed; trial k uses
# the k-th child of its SeedSequence
CORPUS_SEED = 736413


@dataclass(frozen=True)
class ComparisonReport:
    trials: int
    min_margin: float  # min over trials and nodes of u2 - u1
    violations: int  # nodes with margin < VIOLATION_TOL


@dataclass(frozen=True)
class StabilityReport:
    y_path: SampledFn  # (u2 - u1) / (u20 - u10)
    min_y: float
    sup_ratio: float  # empirical stability constant
    ml_envelope_ok: bool
    lipschitz: float  # probed L over the inflated reachable hull
    eq_residual: float  # variation-of-constants equation defect
    underflow_nodes: tuple[int, ...]  # excluded from min_y / sup_ratio


@dataclass(frozen=True)
class ResolventCheck:
    lam: float
    gamma: float
    T: float
    max_residual: float  # relative to the forcing lam t^{gamma-1}
    min_r: float
    ml_identity_dev: float  # max |1 - int_0^t r - E_gamma(...)|


def _as_expr(f) -> Expr:
    return parse(f) if isinstance(f, str) else f


def _mesh_for(gamma: float, T: float, n: int) -> Mesh:
    return Mesh.graded(T, n, default_grading(gamma))


def _common_window(a: SolutionPath, b: SolutionPath):
    """Node prefix both paths resolved (they share mesh construction)."""
    n = min(a.values.size, b.values.size)
    return a.mesh.nodes[:n], a.values[:n], b.values[:n]


def _probe_lipschitz(expr: Expr, T: float, *value_arrays, compiled=None) -> float:
    lo = min(float(v.min()) for v in value_arrays)
    hi = max(float(v.max()) for v in value_arrays)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    half = 1.5 * half + 1e-6 * (1.0 + abs(mid))  # inflated hull
    return lipschitz_probe(expr, (0.0, T), (mid - half, mid + half), compiled=compiled)


class _TwinPair(NamedTuple):
    """One equation solved from two starts on a shared mesh."""

    f: Callable[[float, float], float]  # the solved problem's rhs
    compiled: Callable[[float, float], float] | None  # the tree's, None if tagged
    mesh: Mesh
    nodes: np.ndarray  # the node prefix both paths resolved
    va: np.ndarray
    vb: np.ndarray


def _solve_twin_pair(
    expr: Expr, gamma: float, u10: float, u20: float, T: float, n: int
) -> _TwinPair:
    mesh = _mesh_for(gamma, T, n)
    prob = FracProblem.from_rhs(gamma, expr, u10, T)
    a = solve(prob, mesh)
    b = solve(prob._with_u0(u20), mesh)
    return _TwinPair(prob.f, prob._rhs_fn, mesh, *_common_window(a, b))


def _margin_report(margins: np.ndarray) -> ComparisonReport:
    return ComparisonReport(
        trials=1,
        min_margin=float(margins.min()),
        violations=int(np.count_nonzero(margins < VIOLATION_TOL)),
    )


def check_comparison(
    f, gamma: float, u10: float, u20: float, T: float = 1.0, n: int = 256
) -> ComparisonReport:
    """Solve twin initial values of one equation; report the ordering margin."""
    if not u10 <= u20:
        raise ValueError("comparison check expects u10 <= u20")
    pair = _solve_twin_pair(_as_expr(f), gamma, u10, u20, T, n)
    return _margin_report(pair.vb - pair.va)


def check_subsupersolution(
    f, delta, gamma: float, u0: float, T: float = 1.0, n: int = 256
) -> ComparisonReport:
    """Same start, right-hand sides f and f + delta with delta >= 0."""
    f_expr = _as_expr(f)
    d_expr = _as_expr(delta)
    _require_nonnegative_forcing(d_expr, T)
    lifted = Binary("+", f_expr, d_expr)
    mesh = _mesh_for(gamma, T, n)
    a = solve(FracProblem.from_rhs(gamma, f_expr, u0, T), mesh)
    b = solve(FracProblem.from_rhs(gamma, lifted, u0, T), mesh)
    _, va, vb = _common_window(a, b)
    # the shared start pins node 0 at margin 0; report the margin the
    # forcing actually produces, over t > 0
    return _margin_report((vb - va)[1:])


def _require_nonnegative_forcing(d_expr: Expr, T: float, grid: int = 17):
    forcing = compile_expr(d_expr)
    seen = False
    for t in np.linspace(0.0, T, grid):
        for u in np.linspace(-10.0, 10.0, grid):
            try:
                val = forcing(float(t), float(u))
            except EvalError:
                continue
            seen = True
            if val < 0.0:
                raise ValueError(
                    f"forcing is negative at (t={t:g}, u={u:g}): {val:g}"
                )
    if not seen:
        raise ValueError("forcing expression is nowhere evaluable on the probe grid")


def stability_experiment(
    f, gamma: float, u10: float, u20: float, T: float = 1.0, n: int = 256
) -> StabilityReport:
    """Normalized twin-trajectory gap against the Mittag-Leffler envelope."""
    if u10 == u20:
        raise ValueError("stability experiment needs distinct initial values")
    expr = _as_expr(f)
    pair = _solve_twin_pair(expr, gamma, u10, u20, T, n)
    return _stability_report(expr, gamma, u20 - u10, pair)


def _stability_report(
    expr: Expr, gamma: float, gap0: float, pair: _TwinPair
) -> StabilityReport:
    nodes, va, vb = pair.nodes, pair.va, pair.vb
    lip = _probe_lipschitz(expr, pair.mesh.horizon, va, vb, compiled=pair.compiled)
    if not math.isfinite(lip):
        raise ValueError("right-hand side failed the Lipschitz probe")
    diff = vb - va
    y = diff / gap0
    under = np.abs(diff) < 1e-13 * abs(gap0)
    under[0] = False  # y(0) = 1 by construction
    kept = ~under

    # v(s) = -(f(s,u2)-f(s,u1)) / ((u2-u1) Gamma(gamma)), 0 on underflow
    rhs = pair.f
    inv_g = 1.0 / gamma_fn(gamma)
    v = np.zeros_like(y)
    for i in range(nodes.size):
        if under[i]:
            continue
        df = rhs(float(nodes[i]), float(vb[i])) - rhs(float(nodes[i]), float(va[i]))
        v[i] = -df / diff[i] * inv_g

    mesh = pair.mesh
    win_mesh = mesh if nodes.size == mesh.nodes.size else Mesh(nodes)
    conv = frac_integral(gamma, SampledFn(win_mesh, v * y)).values * gamma_fn(gamma)
    eq_residual = float(np.abs(y + conv - 1.0).max())

    # E_gamma is >= 1 on [0, inf), so only nodes with y > 1 can strain
    # the envelope; saturation to inf upstream reads as a pass.  Every
    # series term is >= 0 there, so E_gamma(z) >= 1 + z/Gamma(1+gamma):
    # a node under that bound, less 16 EPS for its rounding (gamma_fn's
    # is 3), needs no E_gamma
    scale = lip * gamma_fn(gamma)
    envelope_ok = True
    strain = np.flatnonzero(kept & (y > 1.0))
    floor = 1.0 + scale * nodes[strain] ** gamma / gamma_fn(1.0 + gamma)
    for i in strain[y[strain] > floor * ((1.0 + 1e-2) * (1.0 - 16.0 * EPS))]:
        env = mittag_leffler(MLQuery(alpha=gamma, z=scale * float(nodes[i]) ** gamma))
        if y[i] > env * (1.0 + 1e-2):
            envelope_ok = False
            break

    return StabilityReport(
        y_path=SampledFn(win_mesh, y),
        min_y=float(y[kept].min()),
        sup_ratio=float(np.abs(y[kept]).max()),
        ml_envelope_ok=envelope_ok,
        lipschitz=lip,
        eq_residual=eq_residual,
        underflow_nodes=tuple(int(i) for i in np.flatnonzero(under)),
    )


def _resolvent_residual(lam: float, gamma: float, mesh: Mesh):
    # (max relative residual of r + lam (k * r) = lam t^(gamma-1) over
    # t >= 10 T/n, the kernel r on the nodes, z = -lam Gamma(gamma) t^gamma)
    t = mesh.nodes
    T, n = t[-1], t.size - 1
    # r and the survival values share z = -c t^gamma.  The powers are
    # Python's, as resolvent() takes them (numpy's power differs from it
    # in the last bit on some inputs), so r is what resolvent() returns
    c = lam * gamma_fn(gamma)
    z = np.array([-c * s**gamma for s in t.tolist()])
    r = np.empty_like(t)
    power = np.array([s ** (gamma - 1.0) for s in t[1:].tolist()])
    r[1:] = c * power * _ml_many(gamma, gamma, z[1:])[0]
    # r ~ t^{gamma-1} at the origin; constant extension over the first
    # graded cell carries O(t1^gamma) mass, far below the residual target
    r[0] = r[1]

    conv = frac_integral(gamma, SampledFn(mesh, r)).values * gamma_fn(gamma)
    sel = t >= 10.0 * T / n
    forcing = lam * t[sel] ** (gamma - 1.0)
    residual = np.abs(r[sel] + lam * conv[sel] - forcing) / forcing
    return float(residual.max()), r, z


def check_resolvent(lam: float, gamma: float, T: float = 1.0, n: int = 4096) -> ResolventCheck:
    """Residual of the resolvent equation and the survival identity."""
    if not lam > 0.0:
        raise ValueError(f"resolvent check needs lam > 0, got {lam!r}")
    # the residual is read on t >= 10 T/n, which holds a node from n = 10
    if not n >= 10:
        raise ValueError(f"resolvent check needs n >= 10, got {n!r}")
    # grading 2/gamma overshoots here: for small gamma the first node
    # lands at T n^{-2/gamma} where r ~ t^{gamma-1} is astronomically
    # large, and the antiderivative differences inside the quadrature
    # weights of such thin cells cancel in doubles.  The garbage term
    # is ~ eps t1^{gamma-1} relative to the forcing, so keep
    # n^{r(1-gamma)} below 1e-4/eps; the capped head still carries
    # only ~1e-5 of the mass.  On meshes long enough for the far modes
    # (fracops._SOE_MIN_NODES) the far cells do not cancel, and n = 4096
    # uncapped reads 8.1e-5 at gamma 0.2; shorter meshes still need it
    grading = min(default_grading(gamma), 26.5 / ((1.0 - gamma) * math.log(n)))
    mesh = Mesh.graded(T, n, grading)
    t = mesh.nodes
    max_residual, r, z = _resolvent_residual(lam, gamma, mesh)

    # survival identity: 1 - int_0^t r = E_gamma(-lam Gamma(gamma) t^gamma);
    # the integrand splits as s^{gamma-1} * phi(s) with phi bounded;
    # phi is the kernel r computed above with its power taken off, so the
    # identity checks the kernel values against E_gamma evaluated
    # independently (beta = 1) at the same z
    phi = np.empty_like(t)
    phi[0] = lam  # E_{gamma,gamma}(0) = 1/Gamma(gamma)
    phi[1:] = r[1:] * t[1:] ** (1.0 - gamma)
    mass = power_weighted_integral(gamma, SampledFn(mesh, phi)).values
    survival = _ml_many(gamma, 1.0, z)[0]
    identity_dev = float(np.abs(1.0 - mass - survival).max())

    return ResolventCheck(
        lam=lam,
        gamma=gamma,
        T=T,
        max_residual=max_residual,
        min_r=float(r[1:].min()),
        ml_identity_dev=identity_dev,
    )


def max_principle_defect(path, gamma: float) -> float:
    """Min L1 derivative over nodes attaining the running maximum.

    Nonnegative up to roundoff for any sampled data: summation by
    parts against the increasing cell averages of the kernel leaves
    only (u_n - u_j) terms with positive coefficients.  Returns +inf
    when no node beyond the first attains the running maximum.
    """
    mesh, values = path.mesh, path.values
    d = caputo_l1(gamma, SampledFn(mesh, values), float(values[0])).values
    at_max = values >= np.maximum.accumulate(values)
    at_max[0] = False
    if not np.any(at_max):
        return math.inf
    return float(d[at_max].min())


# --- seeded random corpus ----------------------------------------------


@dataclass(frozen=True)
class CorpusProblem:
    index: int
    gamma: float
    rhs: str
    u10: float
    u20: float
    T: float


@dataclass(frozen=True)
class TrialRecord:
    index: int
    gamma: float
    rhs: str
    u10: float
    u20: float
    min_margin: float
    violations: int
    min_y: float
    ml_envelope_ok: bool


@dataclass(frozen=True)
class CorpusReport:
    comparison: ComparisonReport  # aggregated over all trials
    records: tuple[TrialRecord, ...]

    @property
    def min_y(self) -> float:
        return min(r.min_y for r in self.records)

    @property
    def all_envelopes_ok(self) -> bool:
        return all(r.ml_envelope_ok for r in self.records)


_CORPUS_GAMMAS = (0.3, 0.5, 0.8)
_MONOMIALS = tuple(
    (i, j) for i in range(4) for j in range(4) if i + j <= 3
)


def _monomial_text(c: float, i: int, j: int) -> str:
    parts = [repr(c)]
    if i:
        parts.append("t" if i == 1 else f"t^{i}")
    if j:
        parts.append("u" if j == 1 else f"u^{j}")
    return "*".join(parts)


def corpus_problems(seed: int = CORPUS_SEED, trials: int = 100) -> tuple[CorpusProblem, ...]:
    """Reproducible falsification corpus; same seed, same problems."""
    if trials < 1:
        raise ValueError(f"corpus needs trials >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"corpus needs seed >= 0, got {seed}")
    children = np.random.SeedSequence(seed).spawn(trials)
    out = []
    for k in range(trials):
        rng = np.random.default_rng(children[k])
        gamma = _CORPUS_GAMMAS[k % len(_CORPUS_GAMMAS)]
        terms = []
        for i, j in _MONOMIALS:
            if rng.random() < 0.5:
                continue
            c = float(rng.uniform(-2.0, 2.0))
            terms.append(_monomial_text(c, i, j))
        if not terms:
            terms.append(_monomial_text(float(rng.uniform(-2.0, 2.0)), 0, 1))
        body = " + ".join(terms)
        shape = rng.integers(0, 4)
        if shape == 2:
            body = f"sin({body})"
        elif shape == 3:
            body = f"exp(min({body}, 2))"  # keep the composition bounded
        u10 = float(rng.uniform(-2.0, 1.5))
        u20 = u10 + float(rng.uniform(0.1, 1.0))
        T = 1.0
        # cap the rhs so |u| <= max|u0| + cap T^gamma/Gamma(1+gamma) <= 10
        cap = (10.0 - max(abs(u10), abs(u20))) * gamma_fn(1.0 + gamma) / T**gamma
        rhs = f"min(max({body}, {-cap!r}), {cap!r})"
        out.append(CorpusProblem(k, gamma, rhs, u10, u20, T))
    return tuple(out)


def corpus_reports(
    check, seed: int = CORPUS_SEED, trials: int = 100, n: int = 256
) -> list[tuple[CorpusProblem, object]]:
    """Run `check(rhs, gamma, u10, u20, T=, n=)` on each corpus problem.

    Returns (problem, report) pairs in corpus order; a trial that raises
    surfaces as RuntimeError("corpus trial k failed: ...").  A bad
    argument raises ValueError before the first trial (every corpus
    problem has T = 1).
    """
    if not n >= 1:
        raise ValueError(f"corpus check needs n >= 1, got {n!r}")
    out = []
    for prob in corpus_problems(seed, trials):
        try:
            rep = check(prob.rhs, prob.gamma, prob.u10, prob.u20, T=prob.T, n=n)
        except Exception as exc:
            raise RuntimeError(f"corpus trial {prob.index} failed: {exc}") from exc
        out.append((prob, rep))
    return out


def _comparison_and_stability(
    f, gamma: float, u10: float, u20: float, T: float, n: int
) -> tuple[ComparisonReport, StabilityReport]:
    # the corpus draws u10 < u20, so both checks accept the pair, and
    # both reports derive from one solve of it
    expr = _as_expr(f)
    pair = _solve_twin_pair(expr, gamma, u10, u20, T, n)
    return _margin_report(pair.vb - pair.va), _stability_report(expr, gamma, u20 - u10, pair)


def run_corpus(seed: int = CORPUS_SEED, trials: int = 100, n: int = 256) -> CorpusReport:
    """Comparison plus stability across the seeded corpus."""
    records = []
    min_margin = math.inf
    violations = 0
    for prob, (comp, stab) in corpus_reports(_comparison_and_stability, seed, trials, n):
        min_margin = min(min_margin, comp.min_margin)
        violations += comp.violations
        records.append(
            TrialRecord(
                index=prob.index,
                gamma=prob.gamma,
                rhs=prob.rhs,
                u10=prob.u10,
                u20=prob.u20,
                min_margin=comp.min_margin,
                violations=comp.violations,
                min_y=stab.min_y,
                ml_envelope_ok=stab.ml_envelope_ok,
            )
        )
    report = ComparisonReport(
        trials=trials, min_margin=min_margin, violations=violations
    )
    return CorpusReport(comparison=report, records=tuple(records))
