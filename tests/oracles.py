"""Reference oracles used across the test suite.

The Mittag-Leffler reference sums the defining Taylor series in mpmath
with enough working precision to survive the cancellation peak, and
with the gamma arguments formed in arbitrary-precision arithmetic
(forming alpha*n in float poisons the reference long before the
implementation under test is at fault).  It returns None where the
term count would be astronomical; those regions are covered by
closed-form identities instead (erfcx anchors, exp, cos/cosh).

The Volterra-kernel references keep the masked moments and the
list-based history weights that the solver used before its history
became one preallocated engine.  The engine and the operators must
reproduce them to a rounding tolerance: each deviation is bounded by
1e-14 times the sum of the magnitudes of the reference's terms.
"""

import math

import mpmath as mp
import numpy as np

from fracode.specfun import gamma_fn


def ml_reference(alpha: float, beta: float, z: float, feasible_n: int = 4000):
    """High-precision E_{alpha,beta}(z), or None when infeasible."""
    az = abs(z)
    nstar = max(8.0, (az ** (1.0 / alpha) - beta) / alpha)
    if nstar > feasible_n:
        return None
    if z < 0:
        logmax = nstar * math.log(max(az, 1.0 + 1e-9)) - math.lgamma(
            alpha * nstar + beta
        )
    else:
        # all terms positive: no cancellation to survive
        logmax = 0.0
    dps = int(max(0.0, logmax) / math.log(10)) + 40
    nmax = int(3 * nstar) + 600
    with mp.workdps(dps):
        s = mp.mpf(0)
        zp = mp.mpf(1)
        zz = mp.mpf(z)
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        lim = mp.mpf(10) ** (-(dps - 8))
        for n in range(nmax):
            t = zp / mp.gamma(a * n + b)
            s += t
            # relative for z > 0, where the sum grows like exp(z^(1/alpha))
            if n > nstar and abs(t) < (lim * s if z > 0 else lim):
                break
            zp *= zz
        return float(s)


# --- Volterra-kernel references

# a deviation from these references counts as rounding while it stays
# within KERNEL_RTOL times the sum of the magnitudes of their terms
KERNEL_RTOL = 1e-14


def pow_diff_masked(p, x, y, h):
    """x^p - y^p with x = y + h, x > y >= 0, picking the y > 0 cells by mask."""
    out = np.empty_like(x)
    pos = y > 0.0
    yp = y[pos]
    out[pos] = yp**p * np.expm1(p * np.log1p(h[pos] / yp))
    out[~pos] = x[~pos] ** p
    return out


def trapezoid_moments_masked(gamma, tn, t, absolute=False):
    """(M0, M1/h) of the kernel (tn - s)^{gamma-1} on every cell of t.

    With absolute=True, M1/h is the sum of the magnitudes of the two
    terms its closed form subtracts, the scale its rounding error is
    measured against.
    """
    x = tn - t[:-1]
    y = tn - t[1:]
    h = np.diff(t)
    d0 = pow_diff_masked(gamma, x, y, h)
    d1 = pow_diff_masked(gamma + 1.0, x, y, h)
    m0 = d0 / gamma
    sign = 1.0 if absolute else -1.0
    m1 = (x * d0 / gamma + sign * d1 / (gamma + 1.0)) / h
    return m0, m1


def list_history_weights(gamma, u0, t, fv, t_next, absolute=False):
    """Adams (predictor, history, weight) at t_next from Python lists.

    With absolute=True, every term of the three sums enters by its
    magnitude (M1/h as in trapezoid_moments_masked), which gives the
    scale that a rounding deviation from the reference is measured
    against.
    """
    inv_g = 1.0 / gamma_fn(gamma)
    nodes = np.array(t + [t_next])
    m0, m1h = trapezoid_moments_masked(gamma, t_next, nodes, absolute)
    fv = np.array(fv)
    sign = -1.0
    if absolute:
        u0, fv, sign = abs(u0), np.abs(fv), 1.0
    n = len(t)
    pred = u0 + inv_g * float(np.dot(fv, m0))
    hist = u0 + inv_g * float(np.dot(fv, m0 + sign * m1h))
    if n > 1:
        hist += inv_g * float(np.dot(fv[1:], m1h[: n - 1]))
    w = inv_g * m1h[n - 1]
    return pred, hist, w
