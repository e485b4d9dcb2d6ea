"""Time stepping for D_c^gamma u = f(t, u), u(0) = u0, gamma in (0,1).

Everything runs through the equivalent Volterra form

    u(t) = u0 + (1/Gamma(gamma)) * int_0^t (t-s)^{gamma-1} f(s, u(s)) ds

discretized by the fractional Adams pair on an arbitrary strictly
increasing mesh: product-rectangle predictor, product-trapezoid
corrector, fixed-point corrector sweeps that stop once the update
stalls at roundoff (capped, no Newton).  History sums reuse the exact
kernel moments from fracops, so the scheme is deterministic down to
the bit for identical inputs.

On top of plain `solve` sit two adaptive marches tied to the power-law
right-hand side A*u^p: `detect_blowup` (A>0, p>1) chases the solution
into its singularity with growth-limited geometrically shrinking steps
and fits the blow-up time and strength; `detect_extinction` (A<0, p<0)
follows the decay until the corrector equation loses its positive root,
which is the discrete signature of the solution touching 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fracode.expressions import EvalError, Expr, compile_expr, match_power_law, parse
from fracode.fracops import Mesh, SampledFn, _trapezoid_moments
from fracode.specfun import gamma_fn

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
    compiled form.
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

    def __post_init__(self):
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
        else:
            object.__setattr__(self, "_rhs_fn", compile_expr(self.rhs))

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
            return self.A * _upow(u, self.p)
        return self._rhs_fn(t, u)


def _upow(u: float, p: float) -> float:
    if p == 1.0:
        return u
    if u == 0.0 and p < 0.0:
        raise EvalError("division by zero in power law", 0)
    if u < 0.0 and p != math.floor(p):
        raise EvalError("negative state under non-integer power", 0)
    try:
        return math.pow(u, p)
    except OverflowError:
        raise EvalError("overflow in power law", 0) from None


@dataclass(frozen=True)
class SolverOptions:
    corrector_sweeps: int = 8  # cap; each step exits once the update stalls
    positivity_guard: bool = False

    def __post_init__(self):
        if self.corrector_sweeps < 1:
            raise ValueError("corrector_sweeps must be >= 1")


@dataclass(frozen=True, eq=False)
class SolutionPath:
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


def _fixed_point_step(f, tn, hist, w, x0, sweeps):
    # returns (x, n_iters, diverging); exits early once the update is
    # below roundoff or starts growing (the bracket fallback takes over)
    x = x0
    prev_delta = math.inf
    delta = math.inf
    used = 0
    for _ in range(sweeps):
        x_new = hist + w * f(tn, x)
        used += 1
        prev_delta, delta = delta, abs(x_new - x)
        x = x_new
        if not math.isfinite(x):
            break
        if delta <= 1e-14 * (abs(x) + 1.0) or delta > prev_delta:
            break
    scale = abs(x) + 1.0
    diverging = (
        not math.isfinite(x)
        or (delta > prev_delta and delta > 1e-12 * scale)
    )
    return x, used, diverging


def _bracket_solve(f, tn, hist, w, x0, lo_limit=None):
    # robust fallback: find x with x = hist + w f(tn, x) by expanding a
    # bracket around x0 and bisecting phi(x) = x - hist - w f(tn, x)
    def phi(x):
        return x - hist - w * f(tn, x)

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
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        try:
            fmid = phi(mid)
        except EvalError:
            # shrink toward the side that evaluated
            hi = mid
            continue
        if fmid == 0.0:
            return mid, True
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi), True


def solve(prob: FracProblem, mesh: Mesh, opts: SolverOptions | None = None) -> SolutionPath:
    """March the Adams predictor-corrector across the given mesh.

    Returns a completed path, or a truncated one with status
    blowup_suspected / extinction_suspected / evaluation_failure when
    the trajectory escapes, crosses 0 under the positivity guard, or
    the right-hand side stops being evaluable.
    """
    opts = opts or SolverOptions()
    t = mesh.nodes
    n_nodes = t.size
    inv_g = 1.0 / gamma_fn(prob.gamma)
    u = np.empty(n_nodes)
    fv = np.empty(n_nodes)
    u[0] = prob.u0
    fv[0] = prob.f(t[0], prob.u0)  # un-startable problems raise here
    iters = 0

    def truncated(k: int, status: PathStatus) -> SolutionPath:
        if k < 2:
            raise EvalError("right-hand side failed on the first step", 0)
        return SolutionPath(Mesh(t[:k].copy()), u[:k].copy(), iters, status)

    def escape_status(k: int) -> PathStatus:
        # for a superlinear power law the corrector loses its root
        # exactly when the singularity crowds the cell, so any escape
        # after growth reads as blow-up; anything else is an
        # evaluation failure
        grew = abs(u[k - 1]) > 2.0 * abs(prob.u0) + 1.0
        if prob.is_power_law and prob.A > 0 and prob.p > 1 and grew:
            return PathStatus.BLOWUP_SUSPECTED
        return PathStatus.EVALUATION_FAILURE

    # positive half-line restriction when the rhs cannot take u <= 0
    lo_limit = (
        0.0
        if prob.is_power_law and (prob.p != int(prob.p) or prob.p < 0)
        else None
    )

    for n in range(1, n_nodes):
        m0, m1h, _ = _trapezoid_moments(prob.gamma, t[n], t[: n + 1])
        pred = prob.u0 + inv_g * float(np.dot(fv[:n], m0))
        hist = prob.u0 + inv_g * float(np.dot(fv[:n], m0 - m1h))
        if n > 1:
            hist += inv_g * float(np.dot(fv[1:n], m1h[: n - 1]))
        w = inv_g * m1h[n - 1]
        try:
            x, used, diverging = _fixed_point_step(
                prob.f, t[n], hist, w, pred, opts.corrector_sweeps
            )
            iters += used
        except EvalError:
            x, diverging = pred, True
        if diverging:
            x, ok = _bracket_solve(prob.f, t[n], hist, w, pred, lo_limit=lo_limit)
            if not ok or not math.isfinite(x):
                return truncated(n, escape_status(n))
        if not math.isfinite(x) or abs(x) > 1e300:
            return truncated(n, escape_status(n))
        if opts.positivity_guard and x <= 0.0:
            return truncated(n, PathStatus.EXTINCTION_SUSPECTED)
        u[n] = x
        try:
            fv[n] = prob.f(t[n], x)
        except EvalError:
            return truncated(n + 1, escape_status(n + 1))
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


class _History:
    """Incremental Volterra history over a dynamically growing mesh."""

    def __init__(self, gamma: float, u0: float, f0: float, cap: int = 200_000):
        self.gamma = gamma
        self.u0 = u0
        self.inv_g = 1.0 / gamma_fn(gamma)
        self.t = [0.0]
        self.u = [u0]
        self.fv = [f0]
        self.cap = cap

    def weights(self, t_next: float):
        nodes = np.array(self.t + [t_next])
        m0, m1h, _ = _trapezoid_moments(self.gamma, t_next, nodes)
        fv = np.array(self.fv)
        n = len(self.t)
        pred = self.u0 + self.inv_g * float(np.dot(fv, m0))
        hist = self.u0 + self.inv_g * float(np.dot(fv, m0 - m1h))
        if n > 1:
            hist += self.inv_g * float(np.dot(fv[1:], m1h[: n - 1]))
        w = self.inv_g * m1h[n - 1]
        return pred, hist, w

    def accept(self, t_next: float, u_next: float, f_next: float):
        if len(self.t) >= self.cap:
            raise StepCollapseError("step budget exhausted", self.t[-1])
        self.t.append(t_next)
        self.u.append(u_next)
        self.fv.append(f_next)

    def path(self, status: PathStatus, iters: int) -> SolutionPath:
        return SolutionPath(Mesh(np.array(self.t)), np.array(self.u), iters, status)


def _growth_step(gamma: float, absA: float, p: float, u: float, eta: float) -> float:
    # step making the kernel-weighted increment about eta*u:
    # h^gamma |A| u^p / Gamma(1+gamma) = eta u
    return (eta * gamma_fn(1.0 + gamma) * u ** (1.0 - p) / absA) ** (1.0 / gamma)


def detect_blowup(
    prob: FracProblem,
    u_max: float = 1e8,
    refine_levels: int = 2,
) -> BlowupReport:
    """Chase a superlinear power-law trajectory into its singularity.

    Adaptive march with steps sized to a fixed relative growth per
    step, which shrinks them geometrically as the singularity nears;
    stops at u >= u_max or at the floating-point time-resolution floor
    (by then the remaining distance to the singularity is below 1 ulp,
    so the floor stop is itself blow-up evidence).  The blow-up time
    and strength come from linear regression on w = u^{-(p-1)/gamma},
    which the asymptotic law makes an affine function of t; the
    exponent is then re-fitted freely as an independent check, and the
    whole march is repeated at refined step tolerances to measure the
    drift of the estimate.

    Raises NonBlowupError if u stays below u_max out to 100*T, and
    ValueError for p < 1.01 where the asymptotic constants degenerate.
    """
    _require_power(prob, "detect_blowup")
    A, p, gamma = prob.A, prob.p, prob.gamma
    if not A > 0.0:
        raise ValueError("blow-up regime needs A > 0")
    if p < 1.01:
        raise ValueError("need p >= 1.01; constants degenerate as p -> 1")
    if not prob.u0 > 0.0:
        raise ValueError("blow-up regime needs u0 > 0")

    from fracode.asymptotics import blowup_constant_theory, fit_power

    horizon = 100.0 * prob.T

    def march(eta: float):
        hist = _History(gamma, prob.u0, prob.f(0.0, prob.u0))
        iters = 0
        h_prev = math.inf
        # Small gamma with steep p drives the growth-limited step below the
        # resolution of the time axis well before u_max; by then u has grown
        # by several decades, which is all the w-regression needs.
        accept_bar = 1e2 * max(1.0, prob.u0)
        while True:
            t_n, u_n = hist.t[-1], hist.u[-1]
            if u_n >= u_max:
                return hist, iters
            h = min(_growth_step(gamma, A, p, u_n, eta), 2.0 * h_prev)
            floor = 32.0 * math.ulp(t_n) if t_n > 0 else 0.0
            if h <= floor:
                if u_n >= accept_bar:
                    return hist, iters
                raise StepCollapseError("stalled before divergence", t_n)
            if t_n > horizon:
                raise NonBlowupError(
                    f"u stayed below u_max={u_max:g} out to t={horizon:g}"
                )
            accepted = False
            while h > floor:
                t_next = t_n + h
                try:
                    pred, hval, w = hist.weights(t_next)
                    x, used, diverging = _fixed_point_step(
                        prob.f, t_next, hval, w, pred, 2
                    )
                    iters += used
                    if diverging:
                        x, ok = _bracket_solve(prob.f, t_next, hval, w, pred, lo_limit=0.0)
                        if not ok:
                            raise EvalError("corrector lost its root", 0)
                    if not math.isfinite(x) or x <= 0.0:
                        raise EvalError("state escaped", 0)
                    hist.accept(t_next, x, prob.f(t_next, x))
                    accepted = True
                    break
                except EvalError:
                    h *= 0.25  # overflow inside the step; resolve finer
            if not accepted:
                if u_n >= accept_bar:
                    return hist, iters  # divergence outran the float grid
                raise StepCollapseError("stalled before divergence", t_n)
            h_prev = h

    def estimate(hist) -> tuple[float, float, object]:
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
        return tb, c_fit, (ts, us, sel)

    etas = [0.2 * 0.5**k for k in range(max(1, refine_levels) + 1)]
    tbs = []
    last = None
    iters = 0
    for eta in etas:
        hist, iters = march(eta)
        tb, c_fit, win = estimate(hist)
        tbs.append(tb)
        last = (hist, c_fit, win)
    hist, c_fit, (t_sel, _, _) = last
    tb = tbs[-1]
    drift = abs(tbs[-1] - tbs[-2]) / abs(tbs[-1])

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
    disappearing inside a step is the discrete touch signal.  Also
    reports the closed-form upper bound for the touch time obtained by
    freezing the right-hand side at its initial (least negative) value.
    """
    _require_power(prob, "detect_extinction")
    A, p, gamma, u0 = prob.A, prob.p, prob.gamma, prob.u0
    if not (A < 0.0 and p < 0.0 and u0 > 0.0):
        raise ValueError("extinction regime needs A < 0, p < 0, u0 > 0")
    if eps_touch is None:
        eps_touch = 1e-6 * u0

    bound = (u0 ** (1.0 - p) * gamma_fn(1.0 + gamma) / abs(A)) ** (1.0 / gamma)
    absA = abs(A)
    hist = _History(gamma, u0, prob.f(0.0, u0))
    iters = 0
    eta = 0.05
    h_prev = math.inf
    touch = None
    while touch is None:
        t_n, u_n = hist.t[-1], hist.u[-1]
        h = min(_growth_step(gamma, absA, p, u_n, eta), 2.0 * h_prev, 0.05 * bound)
        floor = 32.0 * math.ulp(t_n) if t_n > 0 else 0.0
        if h <= floor or t_n > 4.0 * bound:
            if u_n <= 0.05 * u0:
                touch = t_n  # gap to 0 is beneath time resolution
                break
            # u only decreases, so |A| u^p only grows below u_n; freezing
            # it there bounds the remaining drain time from t_n
            drain = (u_n ** (1.0 - p) * gamma_fn(1.0 + gamma) / absA) ** (1.0 / gamma)
            if u_n <= 0.5 * u0 and drain <= 1e-6 * max(t_n, bound):
                touch = t_n + drain
                break
            raise StepCollapseError("stalled away from zero", t_n)
        while True:
            t_next = t_n + h
            pred, hval, w = hist.weights(t_next)
            # phi(x) = x - hval - w A x^p dips to a minimum at x_star;
            # phi(x_star) > 0 means no root: the path hit zero inside
            # this step
            x_star = (w * absA * abs(p)) ** (1.0 / (1.0 - p))
            phi_min = x_star - hval - w * A * _upow(x_star, p)
            if phi_min > 0.0:
                if h > floor * 4.0 and h > 1e-12 * max(t_n, bound):
                    h *= 0.5  # localize the touch further
                    continue
                touch = t_next
                break
            hi = max(2.0 * x_star, u_n)
            phi_hi = hi - hval - w * A * _upow(hi, p)
            grow = 0
            while phi_hi < 0.0 and grow < 200:
                hi *= 2.0
                phi_hi = hi - hval - w * A * _upow(hi, p)
                grow += 1
            lo, flo = x_star, phi_min
            for _ in range(90):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    break
                fm = mid - hval - w * A * _upow(mid, p)
                iters += 1
                if fm == 0.0:
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            x = 0.5 * (lo + hi)
            if x <= eps_touch:
                touch = t_next
                hist.accept(t_next, x, prob.f(t_next, x))
                break
            hist.accept(t_next, x, prob.f(t_next, x))
            break
        h_prev = h

    path = hist.path(PathStatus.EXTINCTION_SUSPECTED, iters)
    return ExtinctionReport(touch_time=touch, upper_bound_time=bound, path=path)
