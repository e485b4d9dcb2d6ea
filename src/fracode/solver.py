"""Time stepping for D_c^gamma u = f(t, u), u(0) = u0, gamma in (0,1).

Everything runs through the equivalent Volterra form

    u(t) = u0 + (1/Gamma(gamma)) * int_0^t (t-s)^{gamma-1} f(s, u(s)) ds

discretized by the fractional Adams pair on an arbitrary strictly
increasing mesh: product-rectangle predictor, product-trapezoid
corrector, solved to roundoff by secant steps with a bracket fallback
(`_corrector`, in every march).  Where f is affine in u,
f = a(t) u + b(t) (`FracProblem` finds the form once: a power law with
p = 1 or 0, or a tree `expressions.match_affine` accepts), `solve`'s
corrector equation x = hist + w (a x + b) has the root
(hist + w b)/(1 - w a), which `_corrector` takes with one evaluation
of f wherever 1 - w a > 0 and the root is admissible.  The Adams
weights of one row come from `_adams_row`, on `fracops._corrector_cells`
and `fracops._corrector_tip`, which `fracops.frac_integral` (u0 = 0)
applies to blocks of rows.  `solve` knows its mesh ahead: it walks the
rows `fracops._known_mesh` lays out, each moment row read once, in
order, from blocks formed ahead, and on a mesh of at least
`fracops._SOE_MIN_NODES` nodes the cells behind the tip come from
sum-of-exponentials modes from node `fracops._SOE_START` on, O(N K) per
march with K ~ 100-200 modes.  The adaptive marches, whose steps are
not known ahead, keep their Volterra history in `_History`:
preallocated numpy buffers that grow by doubling, handed to the exact
kernel moments of fracops as slices, one row per step; they and
shorter meshes keep the direct O(N^2) sums.  Every path sums in a fixed
order, so a rerun is bitwise identical; the paths agree with each other
to rounding, not bit for bit.

On top of plain `solve` sit two adaptive marches tied to the power-law
right-hand side A*u^p, each step sized from the relative change of u
over the last one (the rule above `_ETA`): `detect_blowup` (A>0, p>1)
chases the solution into its singularity, its steps shrinking as u
grows, and fits the blow-up time and strength; `detect_extinction`
(A<0, p<0) follows the decay until the corrector equation loses its
positive root, which is the discrete signature of the solution
touching 0.  In all three marches `SolutionPath.corrector_iterations`
counts the rhs evaluations of `_corrector`, the accepted one included:
one per step where the closed form holds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fracode.expressions import (
    EvalError,
    Expr,
    _pow,
    compile_expr,
    match_affine,
    match_power_law,
    parse,
)
from fracode.fracops import (
    Mesh,
    SampledFn,
    _corrector_cells,
    _corrector_tip,
    _known_mesh,
    _trapezoid_moments,
)
from fracode.specfun import EPS, gamma_fn

__all__ = [
    "FracProblem",
    "SolverOptions",
    "SolutionPath",
    "PathStatus",
    "BlowupReport",
    "ExtinctionReport",
    "NonBlowupError",
    "StepCollapseError",
    "solve",
    "detect_blowup",
    "detect_extinction",
]


class NonBlowupError(RuntimeError):
    """The trajectory refused to leave the bounded range in time."""


class StepCollapseError(RuntimeError):
    """Adaptive march stalled; carries the last reached time."""

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


class PathStatus(enum.Enum):
    COMPLETED = "completed"
    BLOWUP_SUSPECTED = "blowup_suspected"
    EXTINCTION_SUSPECTED = "extinction_suspected"
    EVALUATION_FAILURE = "evaluation_failure"


@dataclass(frozen=True)
class FracProblem:
    """Problem data: order, right-hand side, initial value, horizon.

    The right-hand side is either an expression tree or a tagged power
    law (A, p); `from_rhs` auto-tags expressions that match A*u^p so
    the asymptotic machinery sees the exact coefficients.  An untagged
    expression is compiled once, on construction, and `f` calls the
    compiled form; `_with_u0` hands that form on, so the same equation
    from another start is not compiled again.  The same goes for the
    affine form f = a(t) u + b(t), found once on construction where the
    rhs has it (a power law with p = 1 or p = 0, or a tree that
    `expressions.match_affine` accepts): `solve`'s corrector solves it
    in closed form.
    """

    gamma: float
    u0: float
    T: float
    rhs: Expr | None = None
    A: float | None = None
    p: float | None = None
    _rhs_fn: Callable[[float, float], float] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # (a, b) with f(t, u) = a(t) u + b(t), or None
    _affine: tuple[Callable[[float], float], Callable[[float], float]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self._check()
        if self.A is None:
            object.__setattr__(self, "_rhs_fn", compile_expr(self.rhs))
            object.__setattr__(self, "_affine", match_affine(self.rhs))
        elif self.p in (0.0, 1.0):
            a, b = (self.A, 0.0) if self.p == 1.0 else (0.0, self.A)
            object.__setattr__(self, "_affine", (lambda t: a, lambda t: b))

    def _check(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma!r}")
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"horizon T must be positive, got {self.T!r}")
        if not math.isfinite(self.u0):
            raise ValueError("u0 must be finite")
        if self.rhs is None and self.A is None:
            raise ValueError("need an rhs expression or power-law coefficients")
        if self.A is not None:
            if self.p is None or not math.isfinite(self.A) or not math.isfinite(self.p):
                raise ValueError("power law needs finite A and p")
            if self.p != int(self.p) and not self.u0 > 0.0:
                raise ValueError("power law with non-integer p needs u0 > 0")

    def _with_u0(self, u0: float) -> "FracProblem":
        """This problem from the start u0, sharing the compiled rhs."""
        moved = object.__new__(type(self))
        moved.__dict__.update(self.__dict__, u0=u0)
        moved._check()
        return moved

    def __reduce__(self):
        # the compiled function does not pickle; rebuild it on load
        return (type(self), (self.gamma, self.u0, self.T, self.rhs, self.A, self.p))

    @classmethod
    def from_rhs(cls, gamma: float, rhs, u0: float, T: float) -> "FracProblem":
        expr = parse(rhs) if isinstance(rhs, str) else rhs
        tagged = match_power_law(expr)
        if tagged is not None:
            return cls(gamma, u0, T, rhs=expr, A=tagged[0], p=tagged[1])
        return cls(gamma, u0, T, rhs=expr)

    @classmethod
    def power_law(cls, gamma: float, A: float, p: float, u0: float, T: float):
        return cls(gamma, u0, T, A=A, p=p)

    @property
    def is_power_law(self) -> bool:
        return self.A is not None

    def f(self, t: float, u: float) -> float:
        """Evaluate the right-hand side; raises EvalError off-domain."""
        if self.A is not None:
            return self.A * (u if self.p == 1.0 else _pow(u, self.p, 0))
        return self._rhs_fn(t, u)


@dataclass(frozen=True)
class SolverOptions:
    positivity_guard: bool = False


@dataclass(frozen=True, eq=False)
class SolutionPath:
    """A marched path.  `corrector_iterations` counts rhs evaluations of
    the corrector, the accepted one included: one per step where the
    corrector takes the closed form of an affine rhs, about three per
    secant solve."""

    mesh: Mesh
    values: np.ndarray
    corrector_iterations: int
    status: PathStatus

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != self.mesh.nodes.shape:
            raise ValueError("values and mesh lengths differ")
        if self.status is PathStatus.COMPLETED and not np.all(np.isfinite(values)):
            raise ValueError("completed path must be finite everywhere")

    def sampled(self) -> SampledFn:
        return SampledFn(self.mesh, self.values)


def _corrector(f, tn, hist, w, x0, lo_limit, peak=None, affine=None):
    # root of phi(x) = x - hist - w f(tn, x).  For f = a(t) x + b(t)
    # (affine = (a, b)) it is (hist + w b)/(1 - w a) where 1 - w a > 0,
    # taken if it lies in (lo_limit, inf) and f is finite there: one
    # evaluation.  Otherwise secant steps from the predictor x0 and its
    # first fixed-point sweep; they stop once |phi| is at roundoff or a
    # step no longer moves x.  A failed evaluation, a step out of
    # (lo_limit, inf), a slope <= 0 (past the fold, off the march's
    # branch) or 30 steps hand over to _bracket_solve (with peak(w), the
    # maximum of a concave phi, if the caller knows it).
    # Returns (x, f(tn, x), evaluations): (nan, nan, .) if the bracket finds no
    # root, (root, nan, .) if the rhs fails at the bracket's root
    lo = -math.inf if lo_limit is None else lo_limit
    evals = 0
    if affine is not None:
        try:
            den = 1.0 - w * affine[0](tn)
            if den > 0.0:
                x = (hist + w * affine[1](tn)) / den
                if lo < x < math.inf:
                    evals = 1
                    fx = f(tn, x)
                    if math.isfinite(fx):
                        return x, fx, 1
        except EvalError:
            pass
    x, slope = x0, 1.0
    try:
        for i in range(30):
            fx = f(tn, x)
            evals += 1
            r = x - hist - w * fx
            if abs(r) <= 4.0 * EPS * (abs(x) + abs(hist)):
                return x, fx, evals
            if i:
                slope = (r - r_prev) / (x - x_prev)
            if not slope > 0.0:
                break
            x_prev, r_prev, x = x, r, x - r / slope
            if x == x_prev:
                return x, fx, evals
            if not lo < x < math.inf:
                break
    except EvalError:
        pass

    def counted(t, u):
        nonlocal evals
        evals += 1
        return f(t, u)

    x, ok = _bracket_solve(counted, tn, hist, w, x0, lo_limit, peak)
    if not ok:
        return math.nan, math.nan, evals
    try:
        return x, f(tn, x), evals + 1
    except EvalError:
        return x, math.nan, evals + 1


def _bracket_solve(f, tn, hist, w, x0, lo_limit=None, peak=None):
    # robust fallback: find x with x = hist + w f(tn, x) by expanding a
    # bracket around x0 and bisecting phi(x) = x - hist - w f(tn, x).
    # For a concave phi with its maximum at peak(w), phi < 0 there means
    # no root: one evaluation instead of 80 span doublings
    def phi(x):
        return x - hist - w * f(tn, x)

    if peak is not None:
        try:
            if phi(peak(w)) < 0.0:
                return x0, False
        except (EvalError, OverflowError):
            pass  # a peak past the floats: search as without it
    span = max(abs(x0), 1.0) * 0.1
    if lo_limit is not None and x0 <= lo_limit:
        x0 = lo_limit + span  # recentre into the admissible half-line
    lo = hi = x0
    flo = fhi = None
    for _ in range(80):
        lo_try = x0 - span if lo_limit is None else max(lo_limit, x0 - span)
        hi_try = x0 + span
        try:
            flo = phi(lo_try)
            fhi = phi(hi_try)
        except EvalError:
            span *= 0.5
            continue
        lo, hi = lo_try, hi_try
        if flo == 0.0:
            return lo, True
        if fhi == 0.0:
            return hi, True
        if flo * fhi < 0.0:
            break
        span *= 2.0
    else:
        return x0, False
    if flo is None or flo * fhi > 0.0:
        return x0, False
    return _bisect(phi, lo, flo, hi)[0], True


def _bisect(phi, lo, flo, hi):
    # bisect phi on a bracket with phi(lo) = flo of the other sign than
    # phi(hi) (or phi(hi) undefined), down to adjacent doubles; returns
    # (root, evaluations).  An exact zero returns its midpoint; a
    # midpoint where phi raises EvalError moves hi there
    evals = 0
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        evals += 1
        try:
            fmid = phi(mid)
        except EvalError:
            # shrink toward the side that evaluated
            hi = mid
            continue
        if fmid == 0.0:
            return mid, evals
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi), evals


def _adams_row(gamma, inv_g, u0, xd0, d0, P, tip, f, s, df, k):
    # (predictor, corrector history, corrector weight) of the row with tip
    # cell [t_k, t_{k+1}] from its kernel moments (xd0 = x d0) and f, its
    # slopes s and increments df; the predictor shares f_j M0 with the corrector
    fk = float(f[k])
    fm0, cells = _corrector_cells(gamma, xd0, d0, P, f[:k], s[:k], df[:k])
    pred = u0 + inv_g * (float(fm0) + fk * tip) / gamma
    hist, w = _corrector_tip(gamma, inv_g, float(cells), tip, fk)
    return pred, u0 + hist, w


_HISTORY_START = 1024  # buffer length of an adaptive march; doubles on demand


class _History:
    """The Volterra history of an adaptive march: nodes t, states u, slopes f(t, u).

    numpy buffers hold the accepted nodes plus one trial slot and double
    when full.  `weights(t_next)` writes a trial node into that slot and
    returns its Adams coefficients from one kernel row over slices of the
    buffers, summed directly in a fixed order; `accept(u, f)` keeps the
    node of the last `weights` call, up to `cap` nodes, caching the
    increment df and slope df/h of f on the cell it closes.
    """

    def __init__(self, gamma: float, u0: float, f0: float, cap: int = 200_000):
        self.gamma = gamma
        self.u0 = u0
        self.inv_g = 1.0 / gamma_fn(gamma)
        self.cap = cap
        self._t = np.zeros(_HISTORY_START)
        self._h = np.empty(_HISTORY_START)
        self._u = np.empty(_HISTORY_START)
        self._f = np.empty(_HISTORY_START)
        self._df = np.empty(_HISTORY_START)
        self._s = np.empty(_HISTORY_START)
        self._u[0] = u0
        self._f[0] = f0
        self.n = 1  # accepted nodes

    @property
    def t(self) -> np.ndarray:
        return self._t[: self.n]

    @property
    def u(self) -> np.ndarray:
        return self._u[: self.n]

    def _grow(self):
        for name in ("_t", "_h", "_u", "_f", "_df", "_s"):
            old = getattr(self, name)
            new = np.empty(2 * old.size)
            new[: old.size] = old
            setattr(self, name, new)

    def weights(self, t_next: float):
        """(predictor, corrector history, corrector weight) at t_next."""
        n = self.n
        k = n - 1  # the tip cell is [t_k, t_next]
        if n == self._t.size:
            self._grow()
        self._t[n] = t_next
        self._h[k] = t_next - self._t[k]
        d0, P, tip = _trapezoid_moments(self.gamma, t_next, self._t[: n + 1], self._h[:n])
        xd0 = (t_next - self._t[:k]) * d0
        return _adams_row(
            self.gamma, self.inv_g, self.u0, xd0, d0, P, tip, self._f, self._s, self._df, k
        )

    def accept(self, u_next: float, f_next: float):
        if self.n >= self.cap:
            raise StepCollapseError("step budget exhausted", float(self._t[self.n - 1]))
        self._u[self.n] = u_next
        self._f[self.n] = f_next
        self._df[self.n - 1] = df = f_next - self._f[self.n - 1]
        self._s[self.n - 1] = df / self._h[self.n - 1]
        self.n += 1

    def path(self, status: PathStatus, iters: int) -> SolutionPath:
        return SolutionPath(Mesh(self.t.copy()), self.u.copy(), iters, status)


def solve(prob: FracProblem, mesh: Mesh, opts: SolverOptions | None = None) -> SolutionPath:
    """March the Adams predictor-corrector across the given mesh.

    Returns a completed path, or a truncated one with status
    blowup_suspected / extinction_suspected / evaluation_failure when
    the trajectory escapes, crosses 0 under the positivity guard, or
    the right-hand side stops being evaluable.
    """
    opts = opts or SolverOptions()
    t = mesh.nodes
    g, u0 = prob.gamma, prob.u0
    inv_g = 1.0 / gamma_fn(g)
    h = np.diff(t)
    u, f = np.empty(t.size), np.empty(t.size)
    df, s = np.empty(h.size), np.empty(h.size)  # increments and slopes of f
    u[0] = u0
    f[0] = prob.f(t[0], u0)  # un-startable problems raise here
    blocks, far, stop = _known_mesh(g, t, h)
    iters = 0
    # positive half-line restriction when the rhs cannot take u <= 0, or
    # when the comparison principle keeps a decaying power law positive
    lo_limit = (
        0.0
        if prob.is_power_law
        and (prob.p != int(prob.p) or prob.p < 0 or (prob.A < 0 < prob.p and u0 > 0))
        else None
    )

    def rows():
        # (n, predictor, corrector history, weight) for rows 1.., each
        # formed once node n - 1 is accepted: the direct rows block by
        # block, x d0 formed once per block, then the far modes
        for lo, hi, d0, P, tips in blocks:
            xd0 = t[lo:hi, None] - t[: hi - 2]
            xd0 *= d0
            for i, k in enumerate(range(lo - 1, hi - 1)):
                row = xd0[i, :k], d0[i, :k], P[i, :k], float(tips[i])
                yield k + 1, *_adams_row(g, inv_g, u0, *row, f, s, df, k)
            del xd0, d0, P, tips, row  # before the next block is formed
        if far is None:
            return
        far.start(f[: stop - 1], f[1:stop])
        for n in range(stop, t.size):
            k = n - 1
            cells = far.far(n)
            tip = float(h[k]) ** g
            fk = float(f[k])
            hist, w = _corrector_tip(g, inv_g, cells, tip, fk)
            yield n, u0 + inv_g * (cells + fk * tip / g), u0 + hist, w
            far.absorb(f[k], f[n])

    def truncated(n: int, status: PathStatus, x: float = 0.0) -> SolutionPath:
        # the path of the n accepted nodes; a power law, finite above
        # lo_limit, fails its first step only by losing the corrector's root
        if n < 2 and math.isnan(x) and lo_limit is not None:
            why = f"the corrector equation has no root above {lo_limit:g} at t_1 = {t[1]:g}"
            raise EvalError(why + "; refine the mesh near t = 0", 0)
        if n < 2:
            raise EvalError("right-hand side failed on the first step", 0)
        return SolutionPath(Mesh(t[:n]), u[:n], iters, status)

    def escape_status(last: float) -> PathStatus:
        # for a superlinear power law the corrector loses its root
        # exactly when the singularity crowds the cell, so any escape
        # after growth reads as blow-up; anything else is an
        # evaluation failure
        grew = abs(last) > 2.0 * abs(u0) + 1.0
        if prob.is_power_law and prob.A > 0 and prob.p > 1 and grew:
            return PathStatus.BLOWUP_SUSPECTED
        return PathStatus.EVALUATION_FAILURE

    for n, pred, hval, w in rows():
        x, fx, used = _corrector(prob.f, t[n], hval, w, pred, lo_limit, affine=prob._affine)
        iters += used
        if not math.isfinite(x) or abs(x) > 1e300:
            return truncated(n, escape_status(u[n - 1]), x)
        if opts.positivity_guard and x <= 0.0:
            return truncated(n, PathStatus.EXTINCTION_SUSPECTED)
        u[n], f[n] = x, fx
        df[n - 1] = d = fx - f[n - 1]
        s[n - 1] = d / h[n - 1]
        if math.isnan(fx):  # the state is kept; the march ends here
            return truncated(n + 1, escape_status(x))
    return SolutionPath(mesh, u, iters, PathStatus.COMPLETED)


# --- adaptive power-law marches ---------------------------------------


@dataclass(frozen=True)
class BlowupReport:
    Tb_estimate: float
    exponent_fit: float
    constant_fit: float
    theory_exponent: float
    theory_constant: float
    refinement_drift: float
    path: SolutionPath = field(repr=False)


@dataclass(frozen=True)
class ExtinctionReport:
    touch_time: float
    upper_bound_time: float
    path: SolutionPath = field(repr=False)


def _require_power(prob: FracProblem, what: str):
    if not prob.is_power_law:
        raise ValueError(f"{what} needs a power-law right-hand side")


# relative change of u per step that both marches aim at (blow-up at
# its default level).  Both size a step the same way: the growth step
# from rest for the first two, then the last step rescaled so that u
# changes by about eta u_n, h = eta u_n h_prev / |u_n - u_{n-1}|,
# capped at twice the last step.  Each march spells the rule out: as a
# shared function its call cost the extinction march 3 % of its time
_ETA = 0.01


def _growth_step(gamma: float, absA: float, p: float, u: float, eta: float) -> float:
    # step making the kernel-weighted increment about eta*u:
    # h^gamma |A| u^p / Gamma(1+gamma) = eta u
    return (eta * gamma_fn(1.0 + gamma) * u ** (1.0 - p) / absA) ** (1.0 / gamma)


def _blowup_fit(hist: _History, gamma: float, p: float) -> tuple[float, float, np.ndarray]:
    # (Tb, C, fitted times) from the regression of w = u^{-(p-1)/gamma}
    # on t over the last decades of a blow-up march
    t = np.array(hist.t)
    u = np.array(hist.u)
    # one decade of tb - t spans gamma/(p-1) decades of u, so widen the
    # window when the singularity is shallow or the tail is underfilled
    decades = max(1.0, 1.05 * gamma / (p - 1.0))
    sel = u >= u[-1] / 10.0**decades
    if np.count_nonzero(sel) < 10:
        sel = u >= u[-1] / 10.0 ** (decades + 1.0)
    ts, us = t[sel], u[sel]
    w = us ** (-(p - 1.0) / gamma)
    slope, intercept = np.polyfit(ts, w, 1)
    tb = -intercept / slope
    c_fit = (-slope) ** (-gamma / (p - 1.0))
    return tb, c_fit, ts


def detect_blowup(
    prob: FracProblem,
    u_max: float = 1e8,
    refine_levels: int = 2,
) -> BlowupReport:
    """Chase a superlinear power-law trajectory into its singularity.

    Adaptive march with steps sized to a relative change of eta in u
    per step, which shrinks them as the singularity nears: after two
    growth steps from rest, h = eta u_n h_prev / |u_n - u_{n-1}|,
    capped at twice the last step (the rule above `_ETA`, as in
    `detect_extinction`).  The march stops at u >= u_max or at the
    floating-point time-resolution floor (by then the remaining
    distance to the singularity is below 1 ulp, so the floor stop is
    itself blow-up evidence).  The blow-up time and strength come from
    linear regression on w = u^{-(p-1)/gamma}, which the asymptotic law
    makes an affine function of t; the exponent is then re-fitted
    freely as an independent check.  refine_levels = L >= 1 sets the
    step tolerance of the reported march, eta = 0.04 * 2^-L (0.01 at
    the default L = 2); the march is repeated once at twice that eta.
    The relative move of the blow-up time between the two is
    `refinement_drift`.  The fitted constant is off by O(eta^2), so
    `constant_fit` is the Richardson value c_f + (c_f - c_c)/3 of the
    fine and coarse fits; `Tb_estimate` and the exponent are the fine
    march's own.

    Raises NonBlowupError if u stays below u_max out to 100*T, and
    ValueError for p < 1.01 where the asymptotic constants degenerate,
    for L < 1, or where u stopped at u_max before Tb - t crossed a
    decade (the message names the u_max that would).
    """
    _require_power(prob, "detect_blowup")
    A, p, gamma = prob.A, prob.p, prob.gamma
    if not A > 0.0:
        raise ValueError("blow-up regime needs A > 0")
    if p < 1.01:
        raise ValueError("need p >= 1.01; constants degenerate as p -> 1")
    if not prob.u0 > 0.0:
        raise ValueError("blow-up regime needs u0 > 0")
    if not u_max > prob.u0:
        raise ValueError(f"u_max must exceed u0, got {u_max!r}")
    if refine_levels < 1:
        raise ValueError(f"refine_levels must be >= 1, got {refine_levels!r}")

    from fracode.asymptotics import blowup_constant_theory, fit_power

    horizon = 100.0 * prob.T

    def peak(w: float) -> float:
        # phi(x) = x - hist - w A x^p is concave with its maximum where
        # phi'(x) = 1 - w A p x^(p-1) = 0
        return (w * A * p) ** (-1.0 / (p - 1.0))

    def march(eta: float):
        hist = _History(gamma, prob.u0, prob.f(0.0, prob.u0))
        iters = 0
        h_prev = math.inf
        # Small gamma with steep p drives Tb - t below the resolution of
        # the time axis well before u_max; by then u has grown by several
        # decades, which is all the w-regression needs.
        accept_bar = 1e2 * max(1.0, prob.u0)
        while hist.u[-1] < u_max:
            t_n, u_n = hist.t[-1], hist.u[-1]
            if t_n > horizon:
                raise NonBlowupError(
                    f"u stayed below u_max={u_max:g} out to t={horizon:g}"
                )
            if hist.n <= 2:
                h = _growth_step(gamma, A, p, u_n, eta)
            else:
                # rescale the last step to a change of eta * u_n
                h = eta * u_n * h_prev / abs(u_n - hist.u[-2])
            h = min(h, 2.0 * h_prev)
            floor = 32.0 * math.ulp(t_n) if t_n > 0 else 0.0
            while h > floor:
                t_next = t_n + h
                try:
                    pred, hval, w = hist.weights(t_next)
                    x, fx, used = _corrector(prob.f, t_next, hval, w, pred, 0.0, peak)
                    iters += used
                    if not (x > 0.0 and math.isfinite(x) and math.isfinite(fx)):
                        raise EvalError("corrector lost its root", 0)
                    hist.accept(x, fx)
                    break
                except EvalError:
                    h *= 0.25  # overflow inside the step; resolve finer
            else:
                if u_n >= accept_bar:
                    return hist, iters  # divergence outran the float grid
                raise StepCollapseError("stalled before divergence", t_n)
            h_prev = h
        return hist, iters

    eta = _ETA * 2.0 ** (2 - refine_levels)
    tb_coarse, c_coarse, _ = _blowup_fit(march(2.0 * eta)[0], gamma, p)
    hist, iters = march(eta)
    tb, c_fit, t_sel = _blowup_fit(hist, gamma, p)
    drift = abs(tb - tb_coarse) / abs(tb)
    # the constant's error is O(eta^2): Richardson from the two levels
    c_fit += (c_fit - c_coarse) / 3.0

    # u grows gamma/(p-1) decades per decade of Tb - t, so near p = 1 a
    # march stopped at u_max can leave the fit less than the decade of
    # Tb - t that `fit_power` needs
    tau = tb - t_sel
    if tau[-1] > 0.0 and math.log(tau[0] / tau[-1]) < math.log(10.0) * 0.95:
        raise ValueError(
            f"u_max={u_max:g} leaves the blow-up fit less than a decade of Tb - t, "
            f"since u grows gamma/(p-1) = {gamma / (p - 1.0):g} decades per decade; "
            f"try u_max >= u0*10^(gamma/(p-1)) = {prob.u0 * 10.0 ** (gamma / (p - 1.0)):g}"
        )
    path = hist.path(PathStatus.BLOWUP_SUSPECTED, iters)
    free = fit_power(path, (t_sel[0], t_sel[-1]), t_b=tb)
    return BlowupReport(
        Tb_estimate=tb,
        exponent_fit=-free.exponent,
        constant_fit=c_fit,
        theory_exponent=gamma / (p - 1.0),
        theory_constant=blowup_constant_theory(A, p, gamma),
        refinement_drift=drift,
        path=path,
    )


def detect_extinction(prob: FracProblem, eps_touch: float | None = None) -> ExtinctionReport:
    """Follow a negative singular power law until it touches 0.

    The corrector equation x = hist + w*A*x^p (A<0, p<0) has a
    positive root only while the history admits one; the root
    disappearing inside a step is the discrete touch signal, and the
    step's end is the touch time.  Also reports the
    closed-form upper bound for the touch time obtained by freezing the
    right-hand side at its initial (least negative) value.

    Steps follow what the path does, by the rule of `detect_blowup`.
    The first two are the growth step for a relative change of `_ETA`
    (0.01) from rest; after that each step rescales the last one so that
    u changes by about eta u_n, h = eta u_n h_prev / |u_n - u_{n-1}|,
    capped at twice the last step and at 0.05 times the bound.  The
    corrector starts from f extrapolated linearly along the last cell.
    The march ends when u falls to eps_touch (default 1e-6 u0), at the
    touch, or, once steps reach the resolution of the time axis, at the
    floor or drain exits.
    """
    _require_power(prob, "detect_extinction")
    A, p, gamma, u0 = prob.A, prob.p, prob.gamma, prob.u0
    if not (A < 0.0 and p < 0.0 and u0 > 0.0):
        raise ValueError("extinction regime needs A < 0, p < 0, u0 > 0")
    if eps_touch is None:
        eps_touch = 1e-6 * u0
    if not 0.0 < eps_touch < u0:
        raise ValueError(f"eps_touch must be in (0, u0), got {eps_touch!r}")

    absA = abs(A)
    bound = _growth_step(gamma, absA, p, u0, 1.0)
    hist = _History(gamma, u0, prob.f(0.0, u0))
    iters = 0
    h_prev = math.inf
    touch = None
    while touch is None:
        t_n, u_n = hist.t[-1], hist.u[-1]
        if hist.n <= 2:
            h = _growth_step(gamma, absA, p, u_n, _ETA)
        else:
            # rescale the last step to a change of _ETA * u_n
            h = _ETA * u_n * h_prev / abs(u_n - hist.u[-2])
        h = min(h, 2.0 * h_prev, 0.05 * bound)
        floor = 32.0 * math.ulp(t_n) if t_n > 0 else 0.0
        if h <= floor or t_n > 4.0 * bound:
            if u_n <= 0.05 * u0:
                touch = t_n  # gap to 0 is beneath time resolution
                break
            # u only decreases, so |A| u^p only grows below u_n; freezing
            # it there bounds the remaining drain time from t_n
            drain = _growth_step(gamma, absA, p, u_n, 1.0)
            if u_n <= 0.5 * u0 and drain <= 1e-6 * max(t_n, bound):
                touch = t_n + drain
                break
            raise StepCollapseError("stalled away from zero", t_n)
        t_next = t_n + h
        _, hval, w = hist.weights(t_next)
        # phi(x) = x - hval - w A x^p dips to a minimum at x_star;
        # phi(x_star) > 0 means no root: the path hit zero inside
        # this step
        x_star = (w * absA * abs(p)) ** (1.0 / (1.0 - p))
        phi_min = x_star - hval - w * A * _pow(x_star, p, 0)
        if phi_min > 0.0:
            touch = t_next
            break
        # the root is right of x_star, where phi rises; start the
        # corrector from f extrapolated with the slope of the last
        # closed cell (held on the first step, which has none)
        k = hist.n - 1
        f_est = float(hist._f[k]) + (float(hist._s[k - 1]) * h if k else 0.0)
        x, f_next, used = _corrector(
            prob.f, t_next, hval, w, max(hval + w * f_est, x_star), x_star
        )
        iters += used
        if math.isnan(f_next):
            raise EvalError("corrector lost its root", 0)
        hist.accept(x, f_next)
        if x <= eps_touch:
            touch = t_next
        h_prev = h

    path = hist.path(PathStatus.EXTINCTION_SUSPECTED, iters)
    return ExtinctionReport(touch_time=touch, upper_bound_time=bound, path=path)
