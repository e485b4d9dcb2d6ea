"""Power-law asymptotics of computed paths and explicit envelopes.

`fit_power` runs ordinary least squares in log-log coordinates, either
against t (long-time decay/growth windows) or against T_b - t (blow-up
windows).  The closed forms live here too: the blow-up strength
constant, and the sub/super-solution envelope parameters for the
sublinear growth regime A > 0, 0 < p < 1, whose two integral constants
C1 and C2 are computed by adaptive quadrature after substituting away
their endpoint singularities.  The envelopes bracket the solution for
all time, which is the checkable form of the growth rate claim.

Envelope construction is restricted to p in (0, 1).  The growth
statement formally covers p <= 0 as well, but the displayed envelope
constants are derived under 0 < p < 1; rather than extrapolate, the
constructor rejects p outside the derivation's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from fracode.specfun import (
    AccuracyLossError,
    _panel_quad,
    beta_fn,
    gamma_fn,
    log_gamma,
)

if TYPE_CHECKING:
    from fracode.solver import SolutionPath

__all__ = [
    "AsymptoticFit",
    "EnvelopeParams",
    "fit_power",
    "blowup_constant_theory",
    "growth_constant",
    "subsolution_params",
    "supersolution_params",
    "eval_envelope",
]


@dataclass(frozen=True)
class AsymptoticFit:
    exponent: float
    constant: float
    window: tuple[float, float]
    rms_residual: float  # in log-log coordinates


def fit_power(path, window: tuple[float, float] | None = None, t_b: float | None = None) -> AsymptoticFit:
    """OLS fit of log u against log t (or log(t_b - t) near blow-up).

    `path` is anything carrying .mesh.nodes and .values (solution
    paths, sampled functions).  The window must hold at least 10 nodes
    spanning a decade of the fit variable, and u must be positive on
    it.  Defaults to the last decade of the mesh.
    """
    t = np.asarray(path.mesh.nodes, dtype=float)
    u = np.asarray(path.values, dtype=float)
    if window is None:
        window = (t[-1] / 10.0, t[-1])
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError(f"bad window {window!r}")
    if t_b is None and t_hi < 10.0 * t_lo * (1.0 - 1e-12):
        raise ValueError("fit window spans less than one decade")
    sel = (t >= t_lo) & (t <= t_hi)
    if t_b is None:
        sel &= t > 0.0
    ts, us = t[sel], u[sel]
    if ts.size < 10:
        raise ValueError(
            f"window {window!r} holds {ts.size} nodes, need at least 10"
        )
    if np.any(us <= 0.0):
        raise ValueError("nonpositive values inside the fit window")
    if t_b is None:
        x = np.log(ts)
    else:
        tau = t_b - ts
        if np.any(tau <= 0.0):
            raise ValueError("window reaches past the blow-up time")
        x = np.log(tau)
    # nodes clustered into a corner of a nominally wide window would
    # make the regression an extrapolation
    if x.max() - x.min() < math.log(10.0) * 0.95:
        raise ValueError("fit nodes span less than a decade of the fit variable")
    y = np.log(us)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return AsymptoticFit(
        exponent=float(slope),
        constant=float(math.exp(intercept)),
        window=(float(t_lo), float(t_hi)),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


def blowup_constant_theory(A: float, p: float, gamma: float) -> float:
    """Strength of the blow-up singularity for D^gamma u = A u^p.

    [Gamma(p*gamma/(p-1)) / (A * Gamma(gamma/(p-1)))]^(1/(p-1)),
    evaluated through log-gamma.  Raises OverflowError when p is so
    close to 1 that the gamma arguments leave the double range.
    """
    if not (A > 0.0 and p > 1.0):
        raise ValueError("blow-up constant needs A > 0 and p > 1")
    m = gamma / (p - 1.0)
    if m + gamma > 171.0:
        raise OverflowError(
            f"gamma/(p-1) = {m:g} is too large; p is too close to 1"
        )
    log_c = (log_gamma(gamma + m) - math.log(A) - log_gamma(m)) / (p - 1.0)
    if log_c > 709.0:
        raise OverflowError("blow-up constant exceeds the double range")
    return math.exp(log_c)


def growth_constant(A: float, p: float, gamma: float) -> float:
    """a of the growth law u ~ a t^q, q = gamma/(1-p), A > 0, p < 1.

    a = (A*Gamma(q*p+1)/Gamma(q+1))^(1/(1-p)) balances D^gamma (a t^q)
    = A (a t^q)^p; at p = 0, u = u0 + A t^gamma/Gamma(1+gamma) exactly.
    """
    q = gamma / (1.0 - p)
    return (A * gamma_fn(q * p + 1.0) / gamma_fn(q + 1.0)) ** (1.0 / (1.0 - p))


def _check_growth_domain(A: float, p: float, gamma: float, u0: float):
    if not A > 0.0:
        raise ValueError("growth envelopes need A > 0")
    if not 0.0 < p < 1.0:
        raise ValueError(f"envelope construction covers p in (0, 1), got {p!r}")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    if not u0 > 0.0:
        raise ValueError("growth envelopes need u0 > 0")


def subsolution_params(A: float, p: float, gamma: float, u0: float) -> tuple[float, float]:
    """Largest a with a*t^{gamma/(1-p)} a subsolution, and its start t0.

    The defining inequality a*Gamma(q+1)/Gamma(qp+1) <= A a^p with
    q = gamma/(1-p) is tight at
    a = (A*Gamma(gamma*p/(1-p)+1)/Gamma(gamma/(1-p)+1))^(1/(1-p)),
    and t0 = (u0/a)^((1-p)/gamma) makes the ramp continue u0.
    """
    _check_growth_domain(A, p, gamma, u0)
    a = growth_constant(A, p, gamma)
    t0 = (u0 / a) ** ((1.0 - p) / gamma)
    return a, t0


@dataclass(frozen=True)
class EnvelopeParams:
    """Sub/super-solution bundle for the growth regime A>0, 0<p<1.

    sub:   u0 on [0, t0], then a*t^{gamma/(1-p)}
    super: u0 + B1*t^gamma/Gamma(1+gamma) on [0, 1], then
           B2*t^{gamma/(1-p)}, glued continuously by
           B2 = u0 + B1/Gamma(1+gamma).
    """

    gamma: float
    p: float
    A: float
    u0: float
    a: float
    t0: float
    B1: float
    B2: float
    C1: float
    C2: float
    M1: float


def _c1_constant(gamma: float) -> float:
    # (gamma/B(1+gamma,1-gamma)) * int_0^1 tau^{gamma-1} (2-tau)^{-gamma} dtau
    # substitute tau = sigma^{1/gamma}: integrand becomes smooth
    def f(sigma):
        return (2.0 - sigma ** (1.0 / gamma)) ** (-gamma)

    val, ok = _panel_quad(f, 0.0, 1.0, 1e-10)
    if not ok:
        raise AccuracyLossError("C1 quadrature did not meet tolerance")
    return val / beta_fn(1.0 + gamma, 1.0 - gamma)


def _c2_constant(p: float, gamma: float) -> float:
    # (gamma/((1-p)Gamma(1-gamma))) * int_{1/2}^1 tau^{q-1} (1-tau)^{-gamma} dtau
    # with q = gamma/(1-p); substitute 1-tau = sigma^{1/(1-gamma)}
    q = gamma / (1.0 - p)

    def f(sigma):
        tau = 1.0 - sigma ** (1.0 / (1.0 - gamma))
        return tau ** (q - 1.0)

    upper = 0.5 ** (1.0 - gamma)
    val, ok = _panel_quad(f, 0.0, upper, 1e-10)
    if not ok:
        raise AccuracyLossError("C2 quadrature did not meet tolerance")
    return val * gamma / ((1.0 - p) * (1.0 - gamma) * gamma_fn(1.0 - gamma))


def supersolution_params(A: float, p: float, gamma: float, u0: float) -> EnvelopeParams:
    """Construct the full envelope bundle for A>0, 0<p<1.

    B1 is the smallest value satisfying both super-solution
    constraints (found by doubling then bisection, so B1/2 always
    violates at least one); C1 and C2 come from adaptive quadrature at
    1e-10 tolerance; M1 = (A/C2)^{1/(1-p)}.
    """
    _check_growth_domain(A, p, gamma, u0)
    a, t0 = subsolution_params(A, p, gamma, u0)
    c1 = _c1_constant(gamma)
    c2 = _c2_constant(p, gamma)
    m1 = (A / c2) ** (1.0 / (1.0 - p))
    g1 = gamma_fn(1.0 + gamma)
    pow2 = 2.0 ** (p * gamma / (1.0 - p))

    def satisfies(b1: float) -> bool:
        b2 = u0 + b1 / g1
        if b2 < m1:
            return False
        rhs = A * max(u0**p, b2**p * pow2)
        return b1 * min(1.0, c1) >= rhs

    b1 = 1.0
    grow = 0
    while not satisfies(b1):
        b1 *= 2.0
        grow += 1
        if grow > 300:
            raise ArithmeticError("no feasible B1 found")
    lo = b1 / 2.0 if grow else 0.0
    hi = b1
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if satisfies(mid):
            hi = mid
        else:
            lo = mid
    b1 = hi
    return EnvelopeParams(
        gamma=gamma,
        p=p,
        A=A,
        u0=u0,
        a=a,
        t0=t0,
        B1=b1,
        B2=u0 + b1 / g1,
        C1=c1,
        C2=c2,
        M1=m1,
    )


def eval_envelope(params: EnvelopeParams, which: str, t):
    """Evaluate the sub or super envelope at t (scalar or array)."""
    q = params.gamma / (1.0 - params.p)
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("envelopes are defined for t >= 0")
    if which == "sub":
        out = np.where(tt <= params.t0, params.u0, params.a * tt**q)
    elif which == "super":
        ramp = params.u0 + params.B1 * tt**params.gamma / gamma_fn(1.0 + params.gamma)
        out = np.where(tt <= 1.0, ramp, params.B2 * tt**q)
    else:
        raise ValueError(f"which must be 'sub' or 'super', got {which!r}")
    if np.ndim(t) == 0:
        return float(out)
    return out
