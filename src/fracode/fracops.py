"""Discrete fractional operators on sampled functions.

Meshes (uniform, graded, geometric), the Riemann-Liouville fractional
integral J^g with the weakly singular kernel (t-s)^{g-1}/Gamma(g), the
L1 Caputo derivative, their round-trip defect, and a left-kernel
companion integral int_0^t s^{mu-1} g(s) ds.

Both operators use product rules on arbitrary strictly increasing
meshes: the integrand's smooth factor is replaced by its piecewise
linear interpolant and the kernel moments are integrated exactly, so
constants and linears are reproduced to roundoff.  `caputo_l1`,
`frac_integral` (the solver's Adams corrector with u0 = 0) and the
solver's Volterra history share one kernel, `_trapezoid_moments`:
three transcendental passes per cell, log1p(h/y), P = y^gamma and
d0 = P expm1(gamma log1p(h/y)) with y = t_n - t_{j+1} > 0, since
x^(gamma+1) - y^(gamma+1) = x d0 + h P gives the first moment; the tip
cell (y = 0) is one scalar power.  On a known mesh the kernel forms
whole blocks of rows at once (`_moment_blocks`, at most _BLOCK_CELLS
cells each): the operators take each block's rows as matrix-vector
products, and `solve` reads each row once, in order (`_block_rows`);
the adaptive marches, whose next node is not known, make one call per
step.  `frac_integral` and the solver's history take the Adams weights
from one place, `_corrector_cells` and `_corrector_tip`.  On meshes of
at least _SOE_MIN_NODES nodes all three take the far cells from node
_SOE_START on out of a sum of exponentials (`_soe`, `_FarHistory`),
O(N K) instead of the direct O(N^2) sums: `solve` every cell behind
the tip, one node at a time, and the operators, whose values are all
known, the cells before each block of _SOE_BLOCK rows, with the
block's own cells direct (`_known_blocks`); shorter meshes and the
first _SOE_START nodes stay direct; `_known_mesh` makes that split for
all three.  Summation order is fixed on every path, so
results are bitwise deterministic; the paths agree to rounding, not
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracode.specfun import _gauss, _gauss_legendre, gamma_fn

__all__ = [
    "Mesh",
    "SampledFn",
    "caputo_l1",
    "default_grading",
    "frac_integral",
    "group_roundtrip",
    "power_weighted_integral",
]


def default_grading(gamma: float) -> float:
    """Mesh grading exponent compensating the t^gamma initial layer."""
    return 2.0 / gamma


@dataclass(frozen=True, eq=False)
class Mesh:
    """Strictly increasing time nodes starting at 0.

    Construct through the factories; `kind` plus the optional shape
    fields record how the mesh was built (metadata only, the operators
    read just the nodes).
    """

    nodes: np.ndarray
    kind: str = "custom"
    grading: float | None = None
    ratio: float | None = None
    t_start: float | None = None

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("Mesh needs at least 2 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("Mesh nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError(f"Mesh must start at 0, got {nodes[0]!r}")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("Mesh nodes must be strictly increasing")

    def __len__(self) -> int:
        return int(self.nodes.size)

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def uniform(cls, T: float, n: int) -> "Mesh":
        """n equal steps on [0, T] (n+1 nodes)."""
        if not (T > 0.0 and n >= 1):
            raise ValueError("uniform mesh needs T > 0 and n >= 1")
        return cls(np.linspace(0.0, T, n + 1), kind="uniform")

    @classmethod
    def graded(cls, T: float, n: int, r: float) -> "Mesh":
        """Nodes T (i/n)^r, clustered at 0 for r > 1."""
        if not (T > 0.0 and n >= 1):
            raise ValueError("graded mesh needs T > 0 and n >= 1")
        if not r >= 1.0:
            raise ValueError(f"grading exponent must be >= 1, got {r!r}")
        i = np.arange(n + 1, dtype=float)
        return cls(T * (i / n) ** r, kind="graded", grading=r)

    @classmethod
    def geometric(cls, T: float, n: int, t_start: float) -> "Mesh":
        """0 followed by n nodes growing geometrically from t_start to T.

        The ratio (T/t_start)^{1/(n-1)} must come out > 1, i.e.
        t_start < T; suited to long-horizon decay runs where the decades
        matter more than the absolute step.
        """
        if not (T > 0.0 and 0.0 < t_start < T and n >= 2):
            raise ValueError("geometric mesh needs 0 < t_start < T and n >= 2")
        q = (T / t_start) ** (1.0 / (n - 1))
        body = t_start * q ** np.arange(n, dtype=float)
        body[-1] = T  # kill the last-node roundoff drift
        nodes = np.concatenate(([0.0], body))
        return cls(nodes, kind="geometric", ratio=q, t_start=t_start)


@dataclass(frozen=True, eq=False)
class SampledFn:
    """Function samples living on a mesh; values must be finite."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != self.mesh.nodes.shape:
            raise ValueError(
                f"values shape {values.shape} does not match mesh "
                f"{self.mesh.nodes.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("SampledFn values must be finite")

    def __len__(self) -> int:
        return int(self.values.size)


def _pow_diff(p: float, y: np.ndarray, h: np.ndarray):
    # (y^p, (y + h)^p - y^p) for y > 0.  Forming the powers separately
    # loses all digits when h << y (geometric tails), so the difference
    # goes through expm1(p log1p(h/y)).
    yp = y**p
    return yp, yp * np.expm1(p * np.log1p(h / y))


def _trapezoid_moments(gamma: float, tn, t: np.ndarray, h: np.ndarray | None = None):
    # The kernel (tn - s)^{gamma-1} on the cells [t_j, t_{j+1}] of t
    # (ending at tn; h is np.diff(t) if the caller has it).  Returns
    # d0 = x^gamma - y^gamma and P = y^gamma, x = tn - t_j, y = tn - t_{j+1},
    # on every cell but the last, and that tip cell's h^gamma.  Moments:
    # M0 = d0/gamma and M1 = x d0/(gamma(gamma+1)) - h P/(gamma+1).
    # A vector tn = t[lo:] is a block of rows n = lo..t.size-1: d0 and P
    # come as (rows, t.size-2) arrays whose row n is zero from cell n-1
    # on, and the tips as a vector, each entry what the one-row call gives
    if h is None:
        h = np.diff(t)
    if not isinstance(tn, np.ndarray):
        P, d0 = _pow_diff(gamma, tn - t[1:-1], h[:-1])
        return d0, P, float(h[-1]) ** gamma
    rows = tn.size
    lo = t.size - rows
    # cells left of row lo's tip are a full rectangle; only the triangle
    # y <= 0 beside the diagonal is masked, first to 1 and at the end to 0
    y = tn[:, None] - t[1:-1]
    cut = np.arange(rows - 1) >= np.arange(rows)[:, None]
    y[:, lo - 1 :][cut] = 1.0
    d0 = np.divide(h[:-1], y)
    np.log1p(d0, out=d0)
    d0 *= gamma
    np.expm1(d0, out=d0)
    y **= gamma  # P, the same power as the one-row call's y**gamma
    d0 *= y
    d0[:, lo - 1 :][cut] = 0.0
    y[:, lo - 1 :][cut] = 0.0
    return d0, y, np.array([x**gamma for x in h[lo - 1 :].tolist()])


# Direct rows are formed in blocks of at most _BLOCK_CELLS kernel cells
# (row n has n - 1): 128 KiB per block array
_BLOCK_CELLS = 16384


def _moment_blocks(gamma: float, t: np.ndarray, h: np.ndarray, lo: int, stop: int):
    # (lo, hi, d0, P, tips) for consecutive row blocks lo..hi-1 of lo..stop-1,
    # each of rows (lo + rows) <= _BLOCK_CELLS cells, or one row
    while lo < stop:
        rows = int(0.5 * (math.sqrt(lo * lo + 4.0 * _BLOCK_CELLS) - lo))
        hi = min(stop, lo + max(1, rows))
        yield (lo, hi, *_trapezoid_moments(gamma, t[lo:hi], t[:hi], h[: hi - 1]))
        lo = hi


# The product-trapezoid (Adams corrector) weights, for one row of a march
# (`solver._History.weights`) and for a block of rows (`frac_integral`)
# alike: on the cells behind the tip, f_j M0 + s_j M1 with s = df/h the
# slope of f; on the tip cell, f_{n-1} tip/(gamma+1) + f_n tip/(gamma(gamma+1)).


def _corrector_cells(gamma: float, x, d0, P, f, s, df):
    # (f.d0, Gamma(gamma) sum_j f_j M0 + s_j M1) over the cells behind the
    # tip, from the kernel's d0 and P and x = tn - t_j, which is overwritten;
    # 1-D for one row, 2-D (rows, cells) for a block
    fm0 = np.dot(d0, f)  # for one row np.dot is about 1 us faster than @
    x *= d0
    return fm0, fm0 / gamma + (np.dot(x, s) / gamma - np.dot(P, df)) / (gamma + 1.0)


def _corrector_tip(gamma: float, inv_g: float, cells, tip, f_tip):
    # (history, weight of f_n): the cells' sum plus the tip cell's f_{n-1}
    # part, each times 1/Gamma(gamma); cells is _corrector_cells' second
    # value or the far modes' sum
    g1 = gamma + 1.0
    return inv_g * (cells + f_tip * tip / g1), inv_g * tip / (gamma * g1)


# --- sum-of-exponentials far history -------------------------------------

# A march over a known mesh of at least _SOE_MIN_NODES nodes serves node
# _SOE_START on from exponential modes; shorter meshes, and the start,
# stay direct.  On a 2-vCPU x86_64 machine the modes mostly pay below
# 2,048 nodes already.  With this threshold set to 1,024 (gamma 0.5,
# default grading, min of 25 runs), `frac_integral` took 5.2 ms instead
# of 5.5 at 1,024 nodes and 7.5 instead of 12.8 at 1,536; `solve` of
# D^0.5 u = -u 12.2 instead of 13.4 and 18.1 instead of 24.9; but
# `caputo_l1` 4.9 instead of 4.4 at 1,024, and 8.1 instead of 9.7 at
# 1,536.  At 2,048 they save about 35 % of `solve`,
# and about 50 % of `frac_integral` and 45 % of `caputo_l1`, which take
# the far rows a block at a time.  The threshold stays at 2,048 so that
# every march below it (the corpus's n = 256, `verify resolvent --n
# 1024`) keeps the direct path's bits: at 1,024, `verify resolvent
# --n 1024`'s residual moves in its fifth digit (ROADMAP)
_SOE_MIN_NODES = 2048
_SOE_START = 512
_SOE_BLOCK = 64  # mesh rows formed at once
_SOE_CUT = 45.0  # exp(-45) ~ 3e-20: modes with s delta >= 45 are dropped


def _soe(gamma: float, delta: float, T: float):
    # (s, w) with tau^(gamma-1) = sum w exp(-s tau) to 1.6e-14 relative on
    # [delta, T] (measured for gamma in [0.2, 0.8]), from
    # Gamma(b) tau^-b = int_0^inf exp(-s tau) s^(b-1) ds, b = 1 - gamma:
    # 12-point Gauss-Jacobi for the weight s^(b-1) on [0, 8/T], then
    # 24-point Gauss-Legendre in log s on panels of ratio 64 up to
    # 45/delta (Beylkin & Monzon, ACHA 28, 2010).
    b = 1.0 - gamma
    c = b - 1.0  # Jacobi (0, c) on [-1, 1], mapped to [0, a]
    m = np.arange(1.0, 12.0)
    k = 2.0 * m + c
    x, v = _gauss(
        np.concatenate(([c / (c + 2.0)], c * c / (k * (k + 2.0)))),
        2.0 * m * (m + c) / (k * np.sqrt((k + 1.0) * (k - 1.0))),
    )
    y, wy = _gauss_legendre(24)
    a = 8.0 / T
    width = math.log(64.0)
    panels = max(1, math.ceil(math.log(_SOE_CUT / (a * delta)) / width))
    logs = math.log(a) + width * (np.arange(panels)[:, None] + 0.5 * (1.0 + y))
    s = np.concatenate((0.5 * a * (1.0 + x), np.exp(logs).ravel()))
    w = np.concatenate((a**b / b * v, (0.5 * width * wy * np.exp(b * logs)).ravel()))
    keep = s * delta < _SOE_CUT
    return s[keep], w[keep] / gamma_fn(b)


# Taylor coefficients of A/h and B/h below z = 0.05, where their closed
# forms cancel: sum (-1)^m (m+1) z^m / (m+2)! and sum (-z)^m / (m+2)!
_HAT_A = np.array([(-1) ** m * (m + 1) / math.factorial(m + 2) for m in range(10)])[::-1]
_HAT_B = np.array([(-1) ** m / math.factorial(m + 2) for m in range(10)])[::-1]


def _soe_rows(s: np.ndarray, w: np.ndarray, h: np.ndarray):
    # per cell of width h (rows) and mode (columns): the decay e = exp(-z),
    # z = s h, and w times the integrals A, B of exp(-s (h - sigma)) over
    # the cell against the hats 1 - sigma/h and sigma/h:
    # A = h (1 - e - z e)/z^2 and B = h (z - 1 + e)/z^2
    z = np.multiply.outer(h, s)
    e = np.exp(-z)
    zc = np.maximum(z, 0.05)  # the closed forms, finite but unused below 0.05
    em = -np.expm1(-zc)
    a = zc * e
    np.subtract(em, a, out=a)
    b = np.subtract(zc, em, out=em)
    zc *= zc
    np.reciprocal(zc, out=zc)
    a *= zc
    b *= zc
    small = z < 0.05
    zs = z[small]
    pa = np.full_like(zs, _HAT_A[0])
    pb = np.full_like(zs, _HAT_B[0])
    for ca, cb in zip(_HAT_A[1:], _HAT_B[1:]):  # Horner, as np.polyval
        pa *= zs
        pa += ca
        pb *= zs
        pb += cb
    a[small] = pa
    b[small] = pb
    hw = np.multiply.outer(h, w)
    a *= hw
    b *= hw
    return e, a, b


class _FarHistory:
    """The far part of a product-trapezoid kernel sum on a known mesh.

    The kernel tau^(gamma-1) is a sum of exponential modes on [delta, T]
    (`_soe`), delta the smallest step from node _SOE_START on and T the
    horizon, so the integral over every cell before the tip cell is one
    vector H of mode values that each accepted cell updates in place:
    H <- e H + f_left w A + f_right w B (Jiang, Zhang, Zhang & Zhang,
    Commun. Comput. Phys. 21, 2017).  `start` absorbs the cells ending at
    nodes 1.._SOE_START-1, _SOE_BLOCK cells at a time (`_cross`).  A
    march whose values come one node at a time (`solve`) then reads
    `far(n)`, the integral at t_n over the cells ending at nodes 1..n-1,
    for n >= _SOE_START, and absorbs the cell ending at node n with
    `absorb`, which reuses the row `far(n)` read; its rows come
    _SOE_BLOCK cells at a time.  An operator whose values are all known
    takes `blocks` instead: _SOE_BLOCK rows at a time, each row's
    integral over the cells before the block is one product with H held
    at the block's left node and decayed by exp(-s (t_n - t_lo-1)), the
    cells inside the block are the caller's direct sums, and H then
    crosses the block as in `start`.
    """

    def __init__(self, gamma: float, t: np.ndarray):
        self._t = t
        self._h = np.diff(t)
        self.s, self.w = _soe(gamma, float(self._h[_SOE_START - 1 :].min()), float(t[-1]))
        self._lo = self._hi = 0  # nodes whose rows are held

    def _rows(self, lo: int, hi: int):
        # rows of the cells ending at nodes lo..hi-1
        return _soe_rows(self.s, self.w, self._h[lo - 1 : hi - 1])

    def _row(self, n: int):
        if not self._lo <= n < self._hi:
            self._lo, self._hi = n, min(n + _SOE_BLOCK, self._h.size + 1)
            self._e, self._wa, self._wb = self._rows(self._lo, self._hi)
        i = n - self._lo
        return self._e[i], self._wa[i], self._wb[i]

    def _cross(self, e, wa, wb, left: np.ndarray, right: np.ndarray):
        # H moved over a chunk of cells with rows e, wa, wb and end values
        # left, right: each cell decays to the chunk's last node by the
        # products of the later e's
        tail = np.ones_like(e)
        tail[:-1] = np.cumprod(e[:0:-1], axis=0)[::-1]
        self.H = tail[0] * e[0] * self.H + left @ (tail * wa)
        self.H += right @ (tail * wb)

    def start(self, left: np.ndarray, right: np.ndarray):
        # cells ending at nodes 1.._SOE_START-1; left[n-1], right[n-1] are
        # the end values of the cell ending at node n
        self.H = np.zeros(self.s.size)
        for lo in range(1, _SOE_START, _SOE_BLOCK):
            hi = min(lo + _SOE_BLOCK, _SOE_START)
            self._cross(*self._rows(lo, hi), left[lo - 1 : hi - 1], right[lo - 1 : hi - 1])

    def blocks(self, left: np.ndarray, right: np.ndarray):
        # (lo, hi, far) for the rows _SOE_START.. of a march whose cell end
        # values are all known (as in `start`), _SOE_BLOCK rows at a time:
        # far[i] is the integral at t_{lo+i} over the cells ending at nodes
        # 1..lo-1, H at t_{lo-1} decayed by exp(-s (t_{lo+i} - t_{lo-1})).
        # The exponent is held at or above -700: numpy's exp takes a slow
        # path where it underflows, and exp(-700) ~ 1e-304 moves no sum
        self.start(left, right)
        t = self._t
        end = t.size
        for lo in range(_SOE_START, end, _SOE_BLOCK):
            hi = min(lo + _SOE_BLOCK, end)
            z = np.multiply.outer(t[lo - 1] - t[lo:hi], self.s)
            np.maximum(z, -700.0, out=z)
            yield lo, hi, np.exp(z, out=z) @ self.H
            if hi < end:
                self._cross(*self._rows(lo, hi), left[lo - 1 : hi - 1], right[lo - 1 : hi - 1])

    def far(self, n: int) -> float:
        # the row is held for the `absorb` of the cell ending at node n
        self._held = self._row(n)
        return float(np.dot(self._held[0], self.H))

    def absorb(self, left: float, right: float):
        # the cell ending at the node of the last `far` call
        e, wa, wb = self._held
        self.H *= e
        self.H += left * wa
        self.H += right * wb


def _known_mesh(gamma: float, t: np.ndarray, h: np.ndarray):
    # (blocks, far, stop) for a march over the known nodes t, h = np.diff(t):
    # rows 1..stop-1 are direct, the `_moment_blocks`, and far serves rows
    # stop.. on; a mesh under _SOE_MIN_NODES nodes has far None, stop t.size
    far = _FarHistory(gamma, t) if t.size >= _SOE_MIN_NODES else None
    stop = t.size if far is None else _SOE_START
    return _moment_blocks(gamma, t, h, 1, stop), far, stop


def _known_blocks(gamma: float, t: np.ndarray, h: np.ndarray, left, right):
    # (lo, hi, b, d0, P, tips, far) over the rows 1..t.size-1 of an operator
    # whose cell end values left, right are all known (as in
    # `_FarHistory.start`): the kernel moments of rows lo..hi-1 over the
    # cells of t[b:hi], and far the modes' sum over the cells before node
    # b; a direct block (`_known_mesh`) has b = 0 and far 0.0, a far block
    # b = lo - 1.  A block is released before the next is formed
    blocks, far, _ = _known_mesh(gamma, t, h)
    for lo, hi, *moments in blocks:
        yield (lo, hi, 0, *moments, 0.0)
        del moments
    if far is not None:
        for lo, hi, soe in far.blocks(left, right):
            moments = _trapezoid_moments(gamma, t[lo:hi], t[lo - 1 : hi], h[lo - 1 : hi - 1])
            yield (lo, hi, lo - 1, *moments, soe)
            del moments


def _block_rows(blocks):
    # the rows of blocks in order, each what the one-row call
    # _trapezoid_moments(gamma, t[n], t[: n + 1]) gives, bit for bit; a
    # block is released before the next is formed
    for lo, hi, d0, P, tips in blocks:
        for i, n in enumerate(range(lo, hi)):
            yield d0[i, : n - 1], P[i, : n - 1], float(tips[i])
        del d0, P, tips


def frac_integral(gamma: float, g: SampledFn) -> SampledFn:
    """Riemann-Liouville integral (J^gamma g)(t) on g's own mesh.

    Product-trapezoidal rule: exact for piecewise linear g, output[0]=0,
    nonnegative weights (so nodewise g >= 0 gives J^gamma g >= 0).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"frac_integral needs gamma in (0, 1), got {gamma!r}")
    # the Adams corrector of solver._History with u0 = 0 and f = g, a
    # block of rows at a time
    t = g.mesh.nodes
    v = g.values
    h = np.diff(t)
    df = np.diff(v)
    s = df / h
    inv_g = 1.0 / gamma_fn(gamma)
    out = np.zeros(t.size)
    for lo, hi, b, d0, P, tip, far in _known_blocks(gamma, t, h, v[:-1], v[1:]):
        c = hi - 2  # cells behind the last row's tip
        x = t[lo:hi, None] - t[b:c]
        _, cells = _corrector_cells(gamma, x, d0, P, v[b:c], s[b:c], df[b:c])
        hist, w = _corrector_tip(gamma, inv_g, cells + far, tip, v[lo - 1 : hi - 1])
        out[lo:hi] = hist + w * v[lo:hi]
        del x, d0, P, tip  # before the next block is formed
    return SampledFn(g.mesh, out)


def caputo_l1(gamma: float, u: SampledFn, u0: float) -> SampledFn:
    """L1 Caputo derivative of order gamma on u's mesh.

    Differentiates the piecewise linear reconstruction exactly under
    the kernel; the first cell's slope is taken against u0, and the
    value at t=0 is reported as 0 (no one-sided information there).
    Exact for piecewise linear u.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"caputo_l1 needs gamma in (0, 1), got {gamma!r}")
    t = u.mesh.nodes
    h = np.diff(t)
    ueff = u.values.copy()
    ueff[0] = u0
    slopes = np.diff(ueff) / h
    q = 1.0 - gamma
    inv_g2 = 1.0 / gamma_fn(2.0 - gamma)
    out = np.zeros(t.size)
    # x^q - y^q = q int tau^(-gamma) over a cell: the far modes take the
    # constant slope at both ends of each cell
    for lo, hi, b, d, P, tip, far in _known_blocks(q, t, h, slopes, slopes):
        out[lo:hi] = inv_g2 * (q * far + d @ slopes[b : hi - 2] + slopes[lo - 1 : hi - 1] * tip)
        del d, P, tip  # before the next block is formed
    return SampledFn(u.mesh, out)


def group_roundtrip(gamma: float, u: SampledFn, u0: float) -> float:
    """Max defect of J^gamma(D^gamma u) against u - u0 over the nodes.

    The continuous operators invert each other (the kernel convolution
    group); the discrete pair leaves a pure quadrature-coupling
    residual that vanishes under refinement.
    """
    du = caputo_l1(gamma, u, u0)
    back = frac_integral(gamma, du)
    return float(np.max(np.abs(back.values - (u.values - u0))))


def power_weighted_integral(mu: float, g: SampledFn) -> SampledFn:
    """Cumulative int_0^t s^{mu-1} g(s) ds for mu > 0, product rule on g.

    Companion to frac_integral with the singularity at the left end of
    the range instead of the moving upper limit; used for identities
    involving integrals of kernels that blow up at t=0.  Exact for
    piecewise linear g; the kernel weight of each cell is integrated in
    closed form, and the result accumulates in O(N).
    """
    if not mu > 0.0:
        raise ValueError(f"power_weighted_integral needs mu > 0, got {mu!r}")
    t = g.mesh.nodes
    v = g.values
    a = t[:-1]
    b = t[1:]
    h = np.diff(t)
    # a = 0 on the first cell only, where b^p - a^p is b^p
    d0 = np.concatenate((b[:1] ** mu, _pow_diff(mu, a[1:], h[1:])[1]))
    d1 = np.concatenate((b[:1] ** (mu + 1.0), _pow_diff(mu + 1.0, a[1:], h[1:])[1]))
    n0 = d0 / mu
    n1 = (d1 / (mu + 1.0) - a * d0 / mu) / h
    cell = v[:-1] * (n0 - n1) + v[1:] * n1
    out = np.concatenate(([0.0], np.cumsum(cell)))
    return SampledFn(g.mesh, out)
