"""Special functions on the real line for fractional-order problems.

Gamma and friends (log-gamma, reciprocal gamma, Beta), the two-parameter
Mittag-Leffler function E_{alpha,beta} for alpha in (0, 2], the power
kernel t^beta / Gamma(1+beta), and the resolvent kernel of the linear
problem.  The public API is scalar: one float in, one float out.  Gamma
and log-gamma are the standard library's math.gamma and math.lgamma.

There is one private array entry point, `_ml_many(alpha, beta, z)`, for
callers that need one (alpha, beta) pair at many z < 0 (`verify`'s
resolvent check).  For 0 < alpha < 1 it runs the scalar ladder's series
and asymptotic sums at z < 0 as lane-masked numpy loops over the term
index, with the per-term Gamma values tabulated once per pair, through
the same gate functions as the scalar evaluator, and hands every other
z to the scalar evaluator.  The integral representations share one
panel quadrature over many rows (one row per integral): an adaptive
16-point Gauss-Legendre rule per panel, with the 8-point rule on the
same panel as its error estimate, that evaluates the integrand once per
round on the nodes of every open panel of every row.

The Mittag-Leffler evaluator switches between four strategies so the
whole real axis stays usable: Taylor series where roundoff cancellation
is provably small, the algebraic asymptotic expansion at large negative
arguments (optimal truncation, plus the conjugate residue pair for
alpha > 1), one exponential leading term plus that algebraic tail at
large positive arguments (for alpha < 2 it is the only pole on the
principal sheet), and a spectral integral over the branch-cut density
for the mid-range gap where neither expansion attains tolerance.  Every
evaluation can report an error estimate alongside the value.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AccuracyLossError",
    "MLQuery",
    "PoleError",
    "ResolventQuery",
    "beta_fn",
    "gamma_fn",
    "log_gamma",
    "mittag_leffler",
    "mittag_leffler_with_error",
    "power_kernel",
    "resolvent",
    "rgamma",
]

EPS = 2.220446049250313e-16

# largest x with Gamma(x) below the double-precision ceiling
_GAMMA_XMAX = 171.62
# exp() overflows just above this
_EXP_MAX = 709.78


class PoleError(ValueError):
    """Gamma evaluated at a nonpositive integer."""


class AccuracyLossError(ArithmeticError):
    """No evaluation strategy reached the target accuracy.

    The best achieved error estimate is carried in ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


_LOG_PI = math.log(math.pi)


def _sinpi(x: float) -> float:
    # sin(pi x) with the argument reduced exactly in float arithmetic,
    # so integer x gives a true signed zero
    n = math.floor(x + 0.5)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if (n & 1) else s


def gamma_fn(x: float) -> float:
    """Gamma(x) for real x away from the poles.

    Raises PoleError at nonpositive integers and OverflowError past
    x = 171.62 where the result exceeds the double range.
    """
    if math.isnan(x):
        raise ValueError("gamma_fn: nan argument")
    if x > _GAMMA_XMAX:
        raise OverflowError(f"gamma_fn({x:g}) exceeds double range")
    try:
        return math.gamma(x)
    except ValueError:
        # math.gamma's only domain errors are the poles and -inf
        raise PoleError(f"gamma_fn pole at {x:g}") from None


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if not x > 0.0:
        raise ValueError(f"log_gamma needs x > 0, got {x!r}")
    return math.lgamma(x)


def rgamma(x: float) -> float:
    """1 / Gamma(x), entire: returns 0.0 at the poles of Gamma."""
    if x > _GAMMA_XMAX:
        # underflows to 0.0 past x ~ 178
        return math.exp(-math.lgamma(x))
    try:
        g = math.gamma(x)
    except ValueError:
        return 0.0
    except OverflowError:
        # 0 < |x| < 1/DBL_MAX, where Gamma(x) = 1/x to double precision
        return x
    # deep on the left half-axis Gamma underflows to a signed zero
    return 1.0 / g if g != 0.0 else math.copysign(math.inf, g)


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_fn needs positive arguments, got ({a!r}, {b!r})")
    lg = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    if lg > _EXP_MAX:
        raise OverflowError(f"beta_fn({a:g}, {b:g}) exceeds double range")
    return math.exp(lg)


def power_kernel(beta: float, t: float) -> float:
    """The kernel g(t) = theta(t) t^beta / Gamma(1+beta), beta > -1.

    The antiderivative convention: with beta = 1+gamma this is the ramp
    t^{1+gamma}/Gamma(2+gamma) family used in closed-form solutions, and
    with beta = gamma it is the forcing response t^gamma/Gamma(1+gamma).
    """
    if not beta > -1.0:
        raise ValueError(
            f"power_kernel needs beta > -1 (function-valued regime), got {beta!r}"
        )
    if t < 0.0:
        return 0.0
    if t == 0.0:
        if beta == 0.0:
            return 1.0
        return 0.0 if beta > 0.0 else math.inf
    return t**beta * rgamma(1.0 + beta)


# ---------------------------------------------------------------------------
# Mittag-Leffler machinery


@dataclass(frozen=True)
class MLQuery:
    """Point query for E_{alpha,beta}(z).

    beta defaults to 1 (the one-parameter function); there is a single
    code path, so beta=1 queries and one-parameter usage agree bitwise.
    """

    alpha: float
    beta: float = 1.0
    z: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"MLQuery: alpha must lie in (0, 2], got {self.alpha!r}")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"MLQuery: beta must be finite and > 0, got {self.beta!r}")
        if not math.isfinite(self.z):
            raise ValueError(f"MLQuery: z must be finite, got {self.z!r}")


@dataclass(frozen=True)
class ResolventQuery:
    """Point query for the resolvent kernel r_lam(t); all fields > 0."""

    lam: float
    gamma: float
    t: float

    def __post_init__(self):
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"ResolventQuery: lam must be > 0, got {self.lam!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(
                f"ResolventQuery: gamma must lie in (0, 1), got {self.gamma!r}"
            )
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError(f"ResolventQuery: t must be > 0, got {self.t!r}")


# series is trusted while the cancellation estimate keeps the summed
# roundoff below ~1e-12
_LOG_SERIES_OK = math.log(1e-12 / EPS)
# documented evaluation target (absolute plus relative)
_ML_TARGET = 1e-10
# a z < 0 series sum whose estimate misses this goes on to the
# asymptotic expansion or the cut integral
_SERIES_TARGET = 1e-11
# term cap of the Taylor and asymptotic sums where no tighter one is known
_MAX_TERMS = 500


# The ladder's gates, each defined once for the scalar `_ml` and the
# array `_ml_many`; the tests on values take a float or an array.
def _series_trusted(alpha: float, beta: float, z: float) -> bool:
    # the z < 0 series is tried when eps times the largest term
    # magnitude, which bounds the roundoff left after cancellation
    # against an O(1) sum, stays below ~1e-12
    az = abs(z)
    if az <= 1.0:
        return True
    if math.log(az) / alpha > _EXP_MAX:
        return False  # az^(1/alpha) would overflow
    nstar = max(0.0, (az ** (1.0 / alpha) - beta) / alpha)
    if nstar < 1.0:
        return True
    return nstar * math.log(az) - log_gamma(alpha * nstar + beta) <= _LOG_SERIES_OK


def _series_kept(v, e, converged):
    # a z < 0 series sum is kept when it converged within its target
    return converged & (e <= _SERIES_TARGET * np.maximum(1.0, np.abs(v)))


def _asymptotic_kept(v, e):
    return e <= 1e-12 * np.maximum(np.abs(v), 1e-3)


def _cut_valid(alpha: float, beta: float) -> bool:
    # a margin below the beta < 1+alpha validity edge keeps the
    # cut-integral substitution exponent bounded
    return beta <= 1.0 + alpha - 0.0625


def _cut_missed(v, e):
    return e > _ML_TARGET * np.maximum(1.0, np.abs(v))


def _ml_series(alpha: float, beta: float, z: float, max_terms: int = _MAX_TERMS):
    # Kahan-compensated Taylor sum; returns (value, err_est, converged).
    # Besides the summation roundoff, each term inherits the rounding
    # of its Gamma argument w = alpha*n + beta: |dw| <= EPS w moves
    # rgamma(w) by |psi(w)| EPS w of itself.  w |psi(w)| is at most
    # w log w + 1 for w >= 1 and 1.1 below, so the sums of |t| and w |t|
    # bound it once log w is taken at the last, largest w
    s = 0.0
    c = 0.0
    term_max = 0.0
    mass = 0.0
    wmass = 0.0
    zn = 1.0
    n = 0
    t = 1.0
    w = beta
    while n < max_terms:
        w = alpha * n + beta
        t = zn * rgamma(w)
        at = abs(t)
        if at > term_max:
            term_max = at
        mass += at
        wmass += w * at
        y = t - c
        u = s + y
        c = (u - s) - y
        s = u
        if at <= EPS * abs(s) and n > 2:
            break
        zn *= z
        if not math.isfinite(zn):
            return s, math.inf, False
        n += 1
    inherited = wmass * max(math.log(w), 0.0) + 1.1 * mass
    est = EPS * ((term_max + abs(s)) * 4.0 + inherited) + abs(t)
    return s, est, n < max_terms


def _ml_asymptotic(alpha: float, beta: float, z: float):
    # E ~ -sum_{k>=1} z^{-k} rgamma(beta - k alpha) for |z| -> inf.
    # Stop decisions use a smooth pole-free envelope (the reflection
    # magnitude with the sine factor dropped): raw terms graze Gamma
    # poles, which would fake convergence, and their sine jitter would
    # fake divergence.  Returns (sum, err_est): the remainder is at most
    # the first omitted envelope over min |1 + rho e^{i pi alpha}|, i.e.
    # |sin(pi alpha)| at z < 0 when cos(pi alpha) < 0 (else 1; the z > 0
    # tail sits e^w below its lead), plus what each term inherits from
    # rounding w = beta - k alpha: envelope x EPS (k alpha + |w|) x
    # (|psi| + pi <= log(1 + |w|) + 5.2), with |w| <= |w_last| + beta.
    s = 0.0
    zik = 1.0 / z
    lzi = -math.log(abs(z))
    prev_env = env = math.inf
    wmass = 0.0
    for k in range(1, _MAX_TERMS + 1):
        w = beta - k * alpha
        if w > 0.5:
            env = abs(zik) * rgamma(w)
        else:
            arg = k * lzi + log_gamma(1.0 - w) - _LOG_PI
            env = math.exp(arg) if arg < _EXP_MAX else math.inf
        if env >= prev_env:
            break
        s -= zik * rgamma(w)
        prev_env = env
        wmass += (k * alpha + abs(w)) * env
        if env <= EPS * abs(s):
            break
        zik /= z
        if zik == 0.0:
            break
    tail = env if env < math.inf else prev_env  # first omitted, else last kept
    if z < 0.0 and math.cos(math.pi * alpha) < 0.0:
        tail /= abs(_sinpi(alpha))
    return s, tail + EPS * (abs(s) * 4.0 + wmass * (math.log1p(abs(w) + beta) + 5.2))


def _gauss(diag: np.ndarray, off: np.ndarray):
    # Golub-Welsch: nodes of a Gauss rule from its Jacobi matrix, and the
    # first eigenvector components squared (weights over the total mass)
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return x, vec[0] ** 2


def _gauss_legendre(n: int):
    # n-point Gauss-Legendre nodes and weights on [-1, 1]
    m = np.arange(1.0, n)
    x, w = _gauss(np.zeros(n), m / np.sqrt(4.0 * m * m - 1.0))
    return x, 2.0 * w


@functools.cache
def _gauss_legendre_pair():
    # Gauss-Legendre pair on [-1, 1]: a panel keeps its 16-point value,
    # and the gap to the 8-point value is its error estimate.  Returns
    # (nodes of both rules, 8-point weights, 16-point weights).
    x8, w8 = _gauss_legendre(8)
    x16, w16 = _gauss_legendre(16)
    return np.concatenate([x8, x16]), w8, w16


def _panel_quad_rows(f, a, b, tol: float, max_panels: int = 2000):
    # Integrals over the rows [a[i], b[i]], each to absolute tol; returns
    # (integrals, ok), arrays over the rows.  f(rows, x) takes the row
    # of each open panel and the (panels, 24) nodes on those panels and
    # returns float arrays.  Each round evaluates f once on the nodes of
    # every open panel of every row and bisects only the panels that
    # fail.  A panel of width w passes when its estimate is within
    # tol * max(w / (b - a), 1 / max_panels), so a row's accepted errors
    # sum to at most 2 tol, or when it sits at the roundoff floor of the
    # panel's |f| mass (a width-proportional share alone keeps bisecting
    # a narrow peak whose panels are already at roundoff).  A row whose
    # partition would exceed max_panels stops with its open panels as
    # they are and ok False; the other rows go on.  Eight equal panels
    # per row to start let most integrals here close in a round or two;
    # each round costs a fixed numpy overhead, shared by all rows.  A
    # row's value is one math.fsum of its panels, so it does not depend
    # on the order in which they closed.
    nodes, w8, w16 = _gauss_legendre_pair()
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n_rows = a.size
    edges = np.linspace(a, b, 9, axis=-1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    row = np.repeat(np.arange(n_rows), 8)
    share = tol / (b - a)
    floor = tol / max_panels
    panels = np.full(n_rows, 8)
    ok = np.ones(n_rows, dtype=bool)
    rows, parts = [], []
    while row.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        fx = f(row, mid[:, None] + half[:, None] * nodes)
        lo_rule = half * (fx[:, :8] @ w8)
        hi_rule = half * (fx[:, 8:] @ w16)
        mass = half * (np.abs(fx[:, 8:]) @ w16)
        err = np.abs(hi_rule - lo_rule)
        good = (err <= np.maximum(2.0 * share[row] * half, floor)) | (
            err <= 64.0 * EPS * mass
        )
        panels += np.bincount(row[~good], minlength=n_rows)
        over = panels > max_panels
        ok &= ~over
        closed = good | over[row]
        rows.append(row[closed])
        parts.append(hi_rule[closed])
        split = ~closed
        lo, mid, hi, row = lo[split], mid[split], hi[split], row[split]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        row = np.concatenate([row, row])
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    cuts = np.cumsum(np.bincount(rows, minlength=n_rows))[:-1]
    sums = [math.fsum(part) for part in np.split(np.concatenate(parts)[order], cuts)]
    return np.array(sums), ok


def _panel_quad(f, a: float, b: float, tol: float, max_panels: int = 2000):
    # one row of _panel_quad_rows: the integral of f (float arrays in and
    # out) over [a, b] to absolute tol; returns (integral, ok)
    val, ok = _panel_quad_rows(lambda rows, x: f(x), [a], [b], tol, max_panels)
    return float(val[0]), bool(ok[0])


def _ml_cut_integral(alpha: float, beta: float, x):
    # Branch-cut density integral for E_{alpha,beta}(-x) at each x > 0 of
    # an array (or one float):
    #
    #   (1/pi) int_0^inf e^{-r} r^{alpha-beta}
    #          [r^alpha sin(pi beta) - x sin(pi(alpha-beta))]
    #          / (r^{2alpha} + 2 x r^alpha cos(pi alpha) + x^2) dr
    #
    # valid for alpha in (0,1) u (1,2], beta < 1+alpha.  For alpha > 1
    # the caller must add the conjugate residue pair (_ml_exp_pair).
    # Returns (values, estimates) as arrays; each x is one row of the two
    # many-row quadratures.
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sb = _sinpi(beta)
    sab = _sinpi(alpha - beta)
    if sb == 0.0 and sab == 0.0:
        return np.zeros_like(x), np.zeros_like(x)
    # the denominator as (r^alpha + x cos)^2 + (x sin)^2: both squares
    # are nonnegative, so it keeps its relative accuracy at its minimum
    # r^alpha = x, where the expanded form cancels for alpha near 1
    xc = x * math.cos(math.pi * alpha)
    xs2 = (x * _sinpi(alpha)) ** 2

    def fker(rows, r):
        ra = r**alpha
        den = (ra + xc[rows, None]) ** 2 + xs2[rows, None]
        num = (ra * sb - x[rows, None] * sab) * r ** (alpha - beta)
        return np.exp(-r) * num / den

    # [0,1]: substitute r = v^m to remove the endpoint singularity; the
    # integrand's leading power at 0 is alpha-beta (or 2 alpha-beta when
    # the x term drops out).  The caller keeps beta away from 1+alpha,
    # so qmin + 1 >= 1/16 and m stays moderate.
    qmin = (alpha - beta) if sab != 0.0 else (2.0 * alpha - beta)
    m = min(max(1.0, 4.0 / (qmin + 1.0)), 64.0)

    def fker0(rows, v):
        r = v**m
        # where v^m underflows the true value is O(v^3), far below tol
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fker(rows, r) * m * v ** (m - 1.0)
        return np.where(r > 0.0, out, 0.0)

    ones = np.ones_like(x)
    i1, ok1 = _panel_quad_rows(fker0, np.zeros_like(x), ones, 1e-14)
    r_max = np.array([60.0 + 5.0 * abs(math.log(v)) for v in x.tolist()])
    i2, ok2 = _panel_quad_rows(fker, ones, r_max, 1e-14)
    est = 3e-13 * (np.abs(i1) + np.abs(i2) + 1.0) / math.pi
    est = np.where(ok1 & ok2, est, np.maximum(est, 1e-8))
    return (i1 + i2) / math.pi, est


def _ml_exp_pair(alpha: float, beta: float, x: float) -> float:
    # conjugate residue pair (2/alpha) Re[w^{1-beta} e^w] at
    # w = x^{1/alpha} e^{i pi/alpha}; present only for alpha > 1 where
    # the poles enter the principal sector.  Re(w) <= 0 there, so the
    # exponential never overflows.
    r = x ** (1.0 / alpha)
    w = complex(r * math.cos(math.pi / alpha), r * math.sin(math.pi / alpha))
    return (2.0 / alpha) * (cmath.exp(w) * w ** (1.0 - beta)).real


def _ml_kummer_neg(beta: float, z: float):
    # alpha = 1, z < 0, generic beta.  E_{1,beta}(z) for beta > 1 equals
    # rgamma(beta) * int_0^1 exp(z(1 - sigma^{1/(beta-1)})) dsigma
    # (confluent hypergeometric M(1,beta,z) with the endpoint
    # singularity substituted away); beta <= 1 takes one upward step
    # E_{1,b}(z) = rgamma(b) + z E_{1,b+1}(z).
    if beta <= 1.0:
        v, e = _ml_kummer_neg(beta + 1.0, z)
        rg = rgamma(beta)
        return rg + z * v, abs(z) * e + EPS * (abs(rg) + abs(z * v)) * 2.0
    p = 1.0 / (beta - 1.0)

    def fker(sig):
        return np.exp(z * (1.0 - sig**p))

    i, ok = _panel_quad(fker, 0.0, 1.0, 1e-15)
    rg = rgamma(beta)
    est = abs(rg) * (3e-14 + (0.0 if ok else 1e-8)) + EPS * abs(rg * i) * 4.0
    return rg * i, est


def _missed_target(alpha: float, beta: float, z: float, est: float):
    return AccuracyLossError(
        f"mittag_leffler({alpha:g}, {beta:g}, {z:g}): achieved error "
        f"estimate {est:.3e} misses the {_ML_TARGET:.0e} target",
        est,
    )


def _ml(alpha: float, beta: float, z: float):
    # full dispatcher; returns (value, err_est)
    if z == 0.0:
        return rgamma(beta), EPS
    if alpha == 1.0:
        if beta == 1.0:
            if z > _EXP_MAX:
                return math.inf, math.inf
            v = math.exp(z)
            return v, 4.0 * EPS * v
        if beta == 2.0:
            if z > _EXP_MAX:
                return math.inf, math.inf
            v = math.expm1(z) / z
            return v, 4.0 * EPS * abs(v)
    if alpha == 2.0 and (beta == 1.0 or beta == 2.0):
        # cos/cosh family, exact closed forms
        r = math.sqrt(abs(z))
        if z > 0.0:
            if r > _EXP_MAX:
                return math.inf, math.inf
            v = math.cosh(r) if beta == 1.0 else math.sinh(r) / r
        else:
            v = math.cos(r) if beta == 1.0 else (math.sin(r) / r if r > 0 else 1.0)
        return v, 4.0 * EPS * (1.0 + abs(v))

    if z < 0.0:
        x = -z
        if _series_trusted(alpha, beta, z):
            v, e, converged = _ml_series(alpha, beta, z)
            if _series_kept(v, e, converged):
                return v, e
        if alpha == 1.0:
            return _ml_kummer_neg(beta, z)
        pair = _ml_exp_pair(alpha, beta, x) if alpha > 1.0 else 0.0
        v, e = _ml_asymptotic(alpha, beta, z)
        if _asymptotic_kept(v + pair, e):
            return v + pair, e + 4.0 * EPS * abs(pair)
        if _cut_valid(alpha, beta):
            iv, ie = _ml_cut_integral(alpha, beta, x)
            val = float(iv[0]) + pair
            est = float(ie[0]) + 4.0 * EPS * abs(pair)
            if _cut_missed(val, est):
                raise _missed_target(alpha, beta, z, est)
            return val, est
        # beta reduction: E_{a,b}(z) = (E_{a,b-a}(z) - rgamma(b-a)) / z
        rg = rgamma(beta - alpha)
        v2, e2 = _ml(alpha, beta - alpha, z)
        return (v2 - rg) / z, (e2 + EPS * (abs(rg) + abs(v2 - rg))) / x

    # z > 0: the Taylor terms are all positive (no cancellation), so the
    # series is trusted until z^n overflows before it converges (first at
    # w = 77.875 on a grid of alpha in [0.1, 2], beta in [0.01, 3], w in
    # steps of 1/8).  Past that, for alpha < 2 only the pole s = w of
    # s^(alpha-beta) / (s^alpha - z) lies on the principal sheet, so one
    # exponential term plus the algebraic tail is the whole expansion
    if math.log(z) / alpha > _EXP_MAX:
        return math.inf, math.inf  # w = z^(1/alpha) would overflow
    w = z ** (1.0 / alpha)
    if w <= 77.5:
        v, e, converged = _ml_series(
            alpha, beta, z, max_terms=int((w + 9.0 * math.sqrt(w + 1.0)) / alpha) + 80
        )
        if converged:
            return v, e
    lz = math.log(z)
    lead_log = w + (1.0 - beta) * lz / alpha - math.log(alpha)
    if lead_log > _EXP_MAX:
        # saturates IEEE-style; est is inf to flag the saturation
        return math.inf, math.inf
    lead = math.exp(lead_log)
    tail, te = _ml_asymptotic(alpha, beta, z)
    # exp() turns an absolute exponent error into a relative one: the
    # rounding of 1/alpha moves w by EPS w |log z| / alpha, the power
    # itself by EPS w, and the sum lead_log by EPS |lead_log|
    rel = EPS * (w * (1.0 + abs(lz) / alpha) + abs(lead_log) + 4.0)
    return lead + tail, te + rel * lead


# ---------------------------------------------------------------------------
# Mittag-Leffler over arrays: one (alpha, beta) pair at many z
#
# The series and the asymptotic expansion run as lane-masked loops over
# the term index: every z is a lane with its own running sums, stop test
# and estimate, doing the scalar code's float operations in the scalar
# code's order, and a lane leaves the arrays at its own stop.  The
# per-term coefficients depend on the pair alone, so they are tabulated
# once per pair.  The asymptotic envelope's exp is numpy's, which can
# differ from math.exp in the last bit; that moves estimates by a
# rounding and, only at an exact tie, a stop.


@functools.lru_cache(maxsize=32)
def _series_coeffs(alpha: float, beta: float):
    # per term k < _MAX_TERMS, as _ml_series forms them: rgamma(w) and w
    # for w = alpha*k + beta, and max(log w, 0) for the inherited rounding
    w = [alpha * k + beta for k in range(_MAX_TERMS)]
    table = (
        np.array([rgamma(v) for v in w]),
        np.array(w),
        np.array([max(math.log(v), 0.0) for v in w]),
    )
    for arr in table:
        arr.flags.writeable = False
    return table


@functools.lru_cache(maxsize=32)
def _asymptotic_coeffs(alpha: float, beta: float):
    # per k = 1.._MAX_TERMS, as _ml_asymptotic forms them from w = beta - k alpha:
    # rgamma(w), log_gamma(1 - w) where the envelope needs it (w <= 0.5,
    # else None), k alpha + |w| and log1p(|w| + beta) + 5.2
    out = []
    for k in range(1, _MAX_TERMS + 1):
        w = beta - k * alpha
        lg = log_gamma(1.0 - w) if w <= 0.5 else None
        out.append((k, rgamma(w), lg, k * alpha + abs(w), math.log1p(abs(w) + beta) + 5.2))
    return tuple(out)


def _ml_series_lanes(alpha: float, beta: float, z: np.ndarray):
    # _ml_series at every z; returns arrays (values, estimates, converged)
    n_lanes = z.size
    val = np.empty(n_lanes)
    est = np.empty(n_lanes)
    converged = np.zeros(n_lanes, dtype=bool)
    if n_lanes == 0:
        return val, est, converged
    rgs, ws, logws = _series_coeffs(alpha, beta)
    lane = np.arange(n_lanes)
    zl = z
    s, c, term_max, mass, wmass = (np.zeros(n_lanes) for _ in range(5))
    zn = np.ones(n_lanes)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(_MAX_TERMS):
            t = zn * rgs[n]
            at = np.abs(t)
            term_max = np.maximum(term_max, at)
            mass += at
            wmass += ws[n] * at
            y = t - c
            u = s + y
            c = (u - s) - y
            s = u
            stop = (at <= EPS * np.abs(s)) & (n > 2)
            zn = zn * zl
            blown = ~stop & ~np.isfinite(zn)
            ends = stop | (~blown & (n + 1 == _MAX_TERMS))
            done = ends | blown
            if done.any():
                val[lane[done]] = s[done]
                inherited = wmass[ends] * logws[n] + 1.1 * mass[ends]
                est[lane[ends]] = (
                    EPS * ((term_max[ends] + np.abs(s[ends])) * 4.0 + inherited) + at[ends]
                )
                est[lane[blown]] = math.inf
                converged[lane[stop]] = True
                go = ~done
                lane, zl, zn = lane[go], zl[go], zn[go]
                s, c, term_max, mass, wmass = s[go], c[go], term_max[go], mass[go], wmass[go]
                if not lane.size:
                    break
    return val, est, converged


def _ml_asymptotic_lanes(alpha: float, beta: float, z: np.ndarray):
    # _ml_asymptotic at every z < 0; returns arrays (values, estimates)
    n_lanes = z.size
    val = np.empty(n_lanes)
    est = np.empty(n_lanes)
    if n_lanes == 0:
        return val, est
    lane = np.arange(n_lanes)
    zl = z
    lzi = -np.array([math.log(abs(v)) for v in z.tolist()])
    zik = 1.0 / z
    s = np.zeros(n_lanes)
    wmass = np.zeros(n_lanes)
    prev_env = np.full(n_lanes, math.inf)
    sine = abs(_sinpi(alpha)) if math.cos(math.pi * alpha) < 0.0 else 1.0
    coeffs = _asymptotic_coeffs(alpha, beta)
    with np.errstate(over="ignore"):
        for k, rg, lg, kw, log_w in coeffs:
            if lg is None:
                env = np.abs(zik) * rg
            else:
                arg = k * lzi + lg - _LOG_PI
                env = np.where(arg < _EXP_MAX, np.exp(arg), math.inf)
            rising = env >= prev_env
            tail = np.where(env < math.inf, env, prev_env)
            s = np.where(rising, s, s - zik * rg)
            wmass = np.where(rising, wmass, wmass + kw * env)
            prev_env = env
            zik = zik / zl
            done = rising | (env <= EPS * np.abs(s)) | (zik == 0.0) | (k == _MAX_TERMS)
            if done.any():
                val[lane[done]] = s[done]
                est[lane[done]] = tail[done] / sine + EPS * (
                    np.abs(s[done]) * 4.0 + wmass[done] * log_w
                )
                go = ~done
                lane, zl, lzi, zik = lane[go], zl[go], lzi[go], zik[go]
                s, wmass, prev_env = s[go], wmass[go], prev_env[go]
                if not lane.size:
                    break
    return val, est


def _ml_many(alpha: float, beta: float, z: np.ndarray):
    """E_{alpha,beta} and its error estimate at every entry of the 1-D array z.

    Returns arrays (values, estimates).  For 0 < alpha < 1 the z < 0
    entries run `_ml`'s ladder over whole arrays, in the same order and
    through the same gates: the Taylor series lanes, then the asymptotic
    lanes, then one batched cut integral for the z left over.  Every
    other entry goes through `_ml` one z at a time: z >= 0, alpha >= 1,
    and the beta reduction.  Raises AccuracyLossError where `_ml` would.
    """
    z = np.asarray(z, dtype=float)
    val = np.empty(z.size)
    est = np.empty(z.size)
    lanes = z < 0.0 if 0.0 < alpha < 1.0 else np.zeros(z.size, dtype=bool)
    neg, scalar = np.flatnonzero(lanes), np.flatnonzero(~lanes)
    trusted = np.array([_series_trusted(alpha, beta, v) for v in z[neg].tolist()], bool)
    series = neg[trusted]
    v, e, converged = _ml_series_lanes(alpha, beta, z[series])
    good = _series_kept(v, e, converged)
    val[series[good]], est[series[good]] = v[good], e[good]

    far = np.concatenate([neg[~trusted], series[~good]])
    v, e = _ml_asymptotic_lanes(alpha, beta, z[far])
    good = _asymptotic_kept(v, e)
    val[far[good]], est[far[good]] = v[good], e[good]
    rest = far[~good]
    if _cut_valid(alpha, beta) and rest.size:
        v, e = _ml_cut_integral(alpha, beta, -z[rest])
        miss = np.flatnonzero(_cut_missed(v, e))
        if miss.size:
            i = miss[0]
            raise _missed_target(alpha, beta, float(z[rest[i]]), float(e[i]))
        val[rest], est[rest] = v, e
    else:
        scalar = np.concatenate([scalar, rest])
    for i in scalar.tolist():
        val[i], est[i] = _ml(alpha, beta, float(z[i]))
    return val, est


def mittag_leffler(q: MLQuery) -> float:
    """E_{alpha,beta}(z) at the query point.

    Absolute-plus-relative accuracy near 1e-11 across z in [-50, 50];
    raises AccuracyLossError (with the achieved bound) if no strategy
    attains the 1e-10 target.  For large positive z whose value exceeds
    the double range the result saturates to math.inf.
    """
    return _ml(q.alpha, q.beta, q.z)[0]


def mittag_leffler_with_error(q: MLQuery) -> tuple[float, float]:
    """Like mittag_leffler, returning (value, error_estimate)."""
    return _ml(q.alpha, q.beta, q.z)


def resolvent(q: ResolventQuery) -> float:
    """Resolvent kernel r_lam(t) = lam Gamma(g) t^{g-1} E_{g,g}(-lam Gamma(g) t^g).

    Strictly positive; integrable singularity t^{gamma-1} at the origin.
    """
    c = q.lam * gamma_fn(q.gamma)
    ml = _ml(q.gamma, q.gamma, -c * q.t**q.gamma)[0]
    return c * q.t ** (q.gamma - 1.0) * ml
