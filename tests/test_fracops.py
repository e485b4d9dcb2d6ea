"""Mesh and discrete-operator tests.

Closed-form anchors (monomials are exact for product rules up to the
interpolation degree), semigroup/round-trip refinement checks against
scipy-computed references, and hypothesis properties for linearity and
kernel positivity.  The moments kernel and the operators built on it
are checked against the masked reference kernel in oracles.py, to a
rounding tolerance, at every step of several meshes and orders.
"""

import gc
import math
import sys
import threading
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import KERNEL_RTOL, pow_diff_masked, trapezoid_moments_masked

from fracode import fracops, verify
from fracode.fracops import (
    Mesh,
    SampledFn,
    _trapezoid_moments,
    caputo_l1,
    default_grading,
    frac_integral,
    group_roundtrip,
    power_weighted_integral,
)
from fracode.specfun import gamma_fn

# 1/Gamma(1.5) and 1/Gamma(2.5), frozen from scipy.special.gamma
J_HALF_OF_ONE_AT_1 = 1.1283791670955126
J_HALF_OF_T_AT_1 = 0.7522527780636751
FOUR_OVER_PI = 1.2732395447351628


class TestMesh:
    def test_uniform_nodes(self):
        m = Mesh.uniform(2.0, 4)
        assert np.allclose(m.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert m.kind == "uniform"
        assert len(m) == 5
        assert m.horizon == 2.0

    def test_graded_nodes_match_formula(self):
        m = Mesh.graded(1.0, 8, 4.0)
        i = np.arange(9) / 8.0
        assert np.array_equal(m.nodes, i**4.0)
        assert m.grading == 4.0

    def test_graded_steps_increase(self):
        m = Mesh.graded(1.0, 64, default_grading(0.5))
        assert np.all(np.diff(np.diff(m.nodes)) > 0)

    def test_geometric_constant_ratio(self):
        m = Mesh.geometric(100.0, 10, 0.1)
        body = m.nodes[1:]
        ratios = body[1:] / body[:-1]
        assert np.allclose(ratios, ratios[0])
        assert m.nodes[0] == 0.0
        assert m.nodes[-1] == 100.0
        assert m.ratio == pytest.approx((100.0 / 0.1) ** (1 / 9))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Mesh.uniform(-1.0, 4)
        with pytest.raises(ValueError):
            Mesh.graded(1.0, 4, 0.5)  # grading below 1
        with pytest.raises(ValueError):
            Mesh.geometric(1.0, 4, 2.0)  # t_start past horizon
        with pytest.raises(ValueError):
            Mesh(np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            Mesh(np.array([0.5, 1.0]))  # must start at 0
        with pytest.raises(ValueError):
            Mesh(np.array([0.0, 1.0, 1.0]))  # repeated node
        with pytest.raises(ValueError):
            Mesh(np.array([0.0]))

    def test_nodes_are_readonly(self):
        m = Mesh.uniform(1.0, 4)
        with pytest.raises(ValueError):
            m.nodes[0] = 1.0


class TestSampledFn:
    def test_shape_mismatch(self):
        m = Mesh.uniform(1.0, 4)
        with pytest.raises(ValueError):
            SampledFn(m, np.zeros(3))

    def test_rejects_nonfinite(self):
        m = Mesh.uniform(1.0, 2)
        with pytest.raises(ValueError):
            SampledFn(m, np.array([0.0, np.inf, 1.0]))


def _sample(mesh: Mesh, fn) -> SampledFn:
    return SampledFn(mesh, fn(mesh.nodes))


class TestFracIntegral:
    def test_constant_exact(self):
        # J^{1/2} 1 = t^{1/2}/Gamma(3/2), exact for the product rule
        for mesh in (Mesh.uniform(1.0, 7), Mesh.graded(1.0, 16, 3.0)):
            out = frac_integral(0.5, _sample(mesh, lambda t: np.ones_like(t)))
            want = mesh.nodes**0.5 * J_HALF_OF_ONE_AT_1
            assert np.max(np.abs(out.values - want)) < 1e-13
        assert out.values[-1] == pytest.approx(J_HALF_OF_ONE_AT_1, abs=1e-13)

    def test_linear_exact(self):
        mesh = Mesh.uniform(1.0, 11)
        out = frac_integral(0.5, _sample(mesh, lambda t: t))
        want = mesh.nodes**1.5 * J_HALF_OF_T_AT_1
        assert np.max(np.abs(out.values - want)) < 1e-13

    def test_zero_in_zero_out(self):
        mesh = Mesh.geometric(10.0, 20, 0.01)
        out = frac_integral(0.3, _sample(mesh, np.zeros_like))
        assert np.array_equal(out.values, np.zeros(len(mesh)))

    def test_starts_at_zero(self):
        mesh = Mesh.uniform(1.0, 5)
        out = frac_integral(0.7, _sample(mesh, lambda t: 1.0 + t**2))
        assert out.values[0] == 0.0

    def test_semigroup_on_quadratic(self):
        # J^{0.3} J^{0.4} t^2 = (2/Gamma(3.7)) t^{2.7}; composition is
        # inexact (t^2 and the inner result are not piecewise linear)
        # but must converge to the scipy-evaluated reference
        want = 2.0 / scipy.special.gamma(3.7)
        errs = []
        for n in (256, 512):
            mesh = Mesh.graded(1.0, n, 2.0)
            inner = frac_integral(0.4, _sample(mesh, lambda t: t**2))
            outer = frac_integral(0.3, inner)
            errs.append(abs(outer.values[-1] - want))
        assert errs[0] < 1e-4
        assert errs[0] / errs[1] > 1.5

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than double here",
    )
    @pytest.mark.parametrize("lam", [1.0, 20.0])
    def test_rounding_where_the_first_moment_cancels(self, lam):
        # the mesh and kernel r of verify.check_resolvent(lam, 0.5, n=1024):
        # r ~ t^(-1/2) falls by six decades across thin graded cells, where
        # the first moment x d0/(gamma (gamma+1)) - h P/(gamma+1) cancels.
        # Against the product-trapezoid sum in long double the error read
        # 7.04e-10 (lam 1) and 6.09e-10 (lam 20) of the forcing lam t^(-1/2)
        gamma, n = 0.5, 1024
        grading = min(default_grading(gamma), 26.5 / ((1.0 - gamma) * math.log(n)))
        mesh = Mesh.graded(1.0, n, grading)
        _, r, _ = verify._resolvent_residual(lam, gamma, mesh)
        got = frac_integral(gamma, SampledFn(mesh, r)).values
        ld = np.longdouble
        g = ld(gamma)
        t, v = mesh.nodes.astype(ld), r.astype(ld)
        h = np.diff(t)
        s = np.diff(v) / h
        ref = np.zeros(t.size, dtype=ld)
        for k in range(1, t.size):
            y, hk = t[k] - t[1:k], h[: k - 1]
            P = y**g
            d0 = P * np.expm1(g * np.log1p(hk / y))
            m1 = (t[k] - t[: k - 1]) * d0 / (g * (g + 1)) - hk * P / (g + 1)
            tip = h[k - 1] ** g
            ref[k] = np.sum(v[: k - 1] * d0 / g + s[: k - 1] * m1) + tip * (
                v[k - 1] / g + s[k - 1] * h[k - 1] / (g * (g + 1))
            )
        ref /= ld(gamma_fn(gamma))
        sel = mesh.nodes >= 10.0 / n
        forcing = lam * mesh.nodes[sel] ** (gamma - 1.0)
        assert np.max(np.abs(got[sel] - ref[sel]).astype(float) / forcing) <= 1e-9

    def test_gamma_out_of_range(self):
        mesh = Mesh.uniform(1.0, 2)
        s = _sample(mesh, lambda t: t)
        for g in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                frac_integral(g, s)

    def test_deterministic_bitwise(self):
        mesh = Mesh.graded(1.0, 64, 2.5)
        s = _sample(mesh, lambda t: np.sin(3.0 * t) + t)
        a = frac_integral(0.5, s).values
        b = frac_integral(0.5, s).values
        assert np.array_equal(a, b)


class TestCaputoL1:
    def test_linear_exact(self):
        # D^{1/2} t = t^{1/2}/Gamma(3/2)
        mesh = Mesh.uniform(1.0, 9)
        out = caputo_l1(0.5, _sample(mesh, lambda t: t), u0=0.0)
        want = mesh.nodes**0.5 * J_HALF_OF_ONE_AT_1
        want[0] = 0.0
        assert np.max(np.abs(out.values - want)) < 1e-13
        assert out.values[-1] == pytest.approx(J_HALF_OF_ONE_AT_1, abs=1e-13)

    def test_constant_is_zero(self):
        mesh = Mesh.geometric(5.0, 12, 0.05)
        out = caputo_l1(0.3, _sample(mesh, lambda t: np.full_like(t, 7.5)), u0=7.5)
        assert np.array_equal(out.values, np.zeros(len(mesh)))

    def test_derivative_of_fractional_monomial(self):
        # u = t^g/Gamma(1+g) has D^g u = 1.  The piecewise linear
        # reconstruction cannot see the infinite slope at t=0, so the
        # first few nodes carry an O(1) defect no mesh refinement
        # removes; away from the layer the scheme converges.
        gamma = 0.5
        c = 1.0 / scipy.special.gamma(1.5)

        def tail_err(n):
            mesh = Mesh.uniform(1.0, n)
            u = _sample(mesh, lambda t: c * t**gamma)
            out = caputo_l1(gamma, u, u0=0.0)
            sel = mesh.nodes >= 0.1
            return np.max(np.abs(out.values[sel] - 1.0))

        e1024 = tail_err(1024)
        assert e1024 < 5e-2
        assert tail_err(4096) < e1024

    def test_first_node_value_is_structural(self):
        # With a single cell the scheme returns exactly
        # 1/Gamma(1+g)/Gamma(2-g) for u = t^g/Gamma(1+g): 4/pi at g=1/2,
        # independent of the step size
        c = 1.0 / scipy.special.gamma(1.5)
        for n in (8, 1024):
            mesh = Mesh.uniform(1.0, n)
            u = _sample(mesh, lambda t: c * t**0.5)
            out = caputo_l1(0.5, u, u0=0.0)
            assert out.values[1] == pytest.approx(FOUR_OVER_PI, rel=1e-12)


class TestRoundtrip:
    def test_constant_defect_zero(self):
        mesh = Mesh.uniform(1.0, 16)
        u = _sample(mesh, lambda t: np.full_like(t, 3.0))
        assert group_roundtrip(0.4, u, u0=3.0) == 0.0

    def test_affine_roundtrip_converges(self):
        # D^g(1+t) = t^{1-g}/Gamma(2-g) is not piecewise linear, so the
        # J-step leaves a quadrature defect that refines away
        def defect(n):
            mesh = Mesh.graded(1.0, n, 2.0)
            u = _sample(mesh, lambda t: 1.0 + t)
            return group_roundtrip(0.5, u, u0=1.0)

        d512 = defect(512)
        assert d512 < 1e-3
        assert d512 / defect(1024) > 1.5


class TestPowerWeighted:
    def test_constant_exact(self):
        # int_0^t s^{mu-1} ds = t^mu/mu
        mesh = Mesh.graded(1.0, 32, 2.0)
        out = power_weighted_integral(0.5, _sample(mesh, np.ones_like))
        want = mesh.nodes**0.5 / 0.5
        assert np.max(np.abs(out.values - want)) < 1e-13

    def test_linear_exact(self):
        mesh = Mesh.uniform(2.0, 16)
        out = power_weighted_integral(0.5, _sample(mesh, lambda t: t))
        want = mesh.nodes**1.5 / 1.5
        assert np.max(np.abs(out.values - want)) < 1e-13

    def test_smooth_factor_against_quad(self):
        mu = 0.3
        mesh = Mesh.graded(1.0, 2048, 2.0)
        out = power_weighted_integral(mu, _sample(mesh, lambda t: np.cos(2.0 * t)))
        want, _ = scipy.integrate.quad(
            lambda s: s ** (mu - 1.0) * math.cos(2.0 * s), 0.0, 1.0
        )
        assert out.values[-1] == pytest.approx(want, abs=1e-6)

    def test_requires_positive_mu(self):
        mesh = Mesh.uniform(1.0, 2)
        with pytest.raises(ValueError):
            power_weighted_integral(0.0, _sample(mesh, np.ones_like))


# random mesh: positive increments accumulated from 0
mesh_steps = st.lists(
    st.floats(1e-3, 1.0, allow_nan=False), min_size=2, max_size=24
)
value_lists = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=3, max_size=25)


def _mesh_from_steps(steps):
    return Mesh(np.concatenate(([0.0], np.cumsum(steps))))


class TestProperties:
    @settings(max_examples=40)
    @given(steps=mesh_steps, data=st.data())
    def test_frac_integral_linear_in_data(self, steps, data):
        mesh = _mesh_from_steps(steps)
        n = len(mesh)
        v1 = np.array(
            data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        )
        v2 = np.array(
            data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        )
        a, b = 2.0, -3.0
        lhs = frac_integral(0.5, SampledFn(mesh, a * v1 + b * v2)).values
        rhs = (
            a * frac_integral(0.5, SampledFn(mesh, v1)).values
            + b * frac_integral(0.5, SampledFn(mesh, v2)).values
        )
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale

    @settings(max_examples=40)
    @given(steps=mesh_steps, data=st.data())
    def test_frac_integral_preserves_sign(self, steps, data):
        mesh = _mesh_from_steps(steps)
        n = len(mesh)
        v = np.array(
            data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
        )
        out = frac_integral(0.7, SampledFn(mesh, v)).values
        assert np.all(out >= 0.0)

    @settings(max_examples=40)
    @given(steps=mesh_steps, data=st.data())
    def test_caputo_linear_in_data(self, steps, data):
        mesh = _mesh_from_steps(steps)
        n = len(mesh)
        v1 = np.array(
            data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        )
        v2 = np.array(
            data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
        )
        lhs = caputo_l1(0.4, SampledFn(mesh, v1 + v2), u0=v1[0] + v2[0]).values
        rhs = (
            caputo_l1(0.4, SampledFn(mesh, v1), u0=v1[0]).values
            + caputo_l1(0.4, SampledFn(mesh, v2), u0=v2[0]).values
        )
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) < 1e-11 * scale

    @settings(max_examples=30)
    @given(steps=mesh_steps)
    def test_monotone_u_has_nonnegative_derivative(self, steps):
        mesh = _mesh_from_steps(steps)
        u = SampledFn(mesh, np.sort(np.linspace(0.0, 1.0, len(mesh)) ** 2))
        out = caputo_l1(0.6, u, u0=0.0).values
        assert np.all(out >= -1e-15)


ORACLE_GAMMAS = (0.1, 0.5, 0.77, 0.95)


def oracle_meshes(gamma, n=96):
    # thin_far: cells of 1e-9 next to 0, seen from t_n ~ 1 (h << y), and
    # a last cell of 1e-12, so the tip cell's x is tiny too
    thin = np.concatenate(
        ([0.0], 1e-9 * np.arange(1, 9), np.linspace(1e-3, 1.0, n // 2), [1.0 + 1e-12])
    )
    return {
        "uniform": Mesh.uniform(1.0, n),
        "graded4": Mesh.graded(1.0, n, 4.0),
        "graded_2_over_g": Mesh.graded(1.0, n, default_grading(gamma)),
        "geometric": Mesh.geometric(50.0, n, 1e-6),
        "one_cell": Mesh.uniform(1.0, 1),
        "thin_far": Mesh(thin),
    }


def _oracle_cases():
    for g in ORACLE_GAMMAS:
        for kind, mesh in oracle_meshes(g).items():
            yield pytest.param(g, mesh, id=f"{g}-{kind}")


class _UfuncLog(np.ndarray):
    """An array that records the name of every ufunc applied to it, and
    in `subnormal` those whose float result holds a nonzero entry below
    the smallest normal double (for a matrix product, whose elementwise
    products do)."""

    calls: list = []
    subnormal: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _UfuncLog.calls.append(ufunc.__name__)
        inputs = tuple(np.asarray(x) if isinstance(x, _UfuncLog) else x for x in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(np.asarray(x) for x in kwargs["out"])
        out = getattr(ufunc, method)(*inputs, **kwargs)
        seen = [np.asarray(out)]
        if ufunc is np.matmul:
            a, b = inputs
            seen.append(a[:, None] * b if a.ndim == 1 else a * b)
        for r in seen:
            if r.dtype.kind == "f" and np.any((r != 0.0) & (np.abs(r) < np.finfo(float).tiny)):
                _UfuncLog.subnormal.append(f"{ufunc.__name__}.{method}")
        return out.view(_UfuncLog) if isinstance(out, np.ndarray) else out


class TestKernelWork:
    @pytest.mark.parametrize("with_h", [False, True])
    def test_three_transcendental_passes_per_call(self, with_h, monkeypatch):
        # log1p(h/y), y^gamma and expm1 once each over the cells; the
        # tip cell's power is a scalar and the rest is arithmetic
        monkeypatch.setattr(_UfuncLog, "calls", [])
        t = Mesh.graded(1.0, 64, 4.0).nodes
        h = np.diff(t).view(_UfuncLog) if with_h else None
        _trapezoid_moments(0.37, float(t[-1]), t.view(_UfuncLog), h)
        arithmetic = {"add", "subtract", "multiply", "divide", "true_divide", "negative"}
        assert sorted(set(_UfuncLog.calls) - arithmetic) == ["expm1", "log1p", "power"]
        for name in ("expm1", "log1p", "power"):
            assert _UfuncLog.calls.count(name) == 1


    def test_three_transcendental_passes_per_block(self, monkeypatch):
        # a block of rows makes the same three passes over its cells; the
        # tips are scalar powers, the triangle beside the diagonal a mask
        monkeypatch.setattr(_UfuncLog, "calls", [])
        t = Mesh.graded(1.0, 64, 4.0).nodes
        _trapezoid_moments(0.37, t[40:].view(_UfuncLog), t.view(_UfuncLog))
        for name in ("expm1", "log1p", "power"):
            assert _UfuncLog.calls.count(name) == 1


class TestMomentsMatchMaskedOracle:
    """The kernel and its operators match the masked reference kernel.

    Each value may deviate from the reference by rounding only: at most
    KERNEL_RTOL times the sum of the magnitudes of the reference's
    terms (the first moment's closed form subtracts two of them).
    Every step index is checked, so the tip cell (y = 0, a scalar power)
    is compared at every n, and the one-cell mesh has an empty set of
    y > 0 cells.
    """

    @pytest.mark.parametrize("gamma,mesh", list(_oracle_cases()))
    def test_moments_every_step(self, gamma, mesh):
        t = mesh.nodes
        h = np.diff(t)
        for n in range(1, t.size):
            ref = trapezoid_moments_masked(gamma, t[n], t[: n + 1])
            scale = trapezoid_moments_masked(gamma, t[n], t[: n + 1], absolute=True)
            x = t[n] - t[: n - 1]
            for d0, P, tip in (
                _trapezoid_moments(gamma, t[n], t[: n + 1]),
                _trapezoid_moments(gamma, float(t[n]), t[: n + 1], h[:n]),
            ):
                assert d0.shape == P.shape == (n - 1,)
                m0 = np.append(d0, tip) / gamma
                m1h = np.append(
                    (x * d0 / (gamma * (gamma + 1.0)) - h[: n - 1] * P / (gamma + 1.0))
                    / h[: n - 1],
                    tip / (gamma * (gamma + 1.0)),
                )
                assert np.all(np.abs(m0 - ref[0]) <= KERNEL_RTOL * scale[0]), n
                assert np.all(np.abs(m1h - ref[1]) <= KERNEL_RTOL * scale[1]), n

    @pytest.mark.parametrize("gamma,mesh", list(_oracle_cases()))
    def test_operators(self, gamma, mesh):
        t = mesh.nodes
        h = np.diff(t)
        v = np.cos(7.0 * t) + t
        g = SampledFn(mesh, v)
        jint = np.zeros(t.size)
        jint_scale = np.zeros(t.size)
        l1 = np.zeros(t.size)
        l1_scale = np.zeros(t.size)
        slopes = np.diff(np.concatenate(([1.0], v[1:]))) / h
        av = np.abs(v)
        for n in range(1, t.size):
            m0, m1 = trapezoid_moments_masked(gamma, t[n], t[: n + 1])
            jint[n] = (1.0 / gamma_fn(gamma)) * (
                np.dot(v[:n], m0 - m1) + np.dot(v[1 : n + 1], m1)
            )
            _, m1_abs = trapezoid_moments_masked(gamma, t[n], t[: n + 1], absolute=True)
            jint_scale[n] = (1.0 / gamma_fn(gamma)) * (
                np.dot(av[:n], m0 + m1_abs) + np.dot(av[1 : n + 1], m1_abs)
            )
            d = pow_diff_masked(1.0 - gamma, t[n] - t[:n], t[n] - t[1 : n + 1], h[:n])
            l1[n] = (1.0 / gamma_fn(2.0 - gamma)) * np.dot(slopes[:n], d)
            l1_scale[n] = (1.0 / gamma_fn(2.0 - gamma)) * np.dot(np.abs(slopes[:n]), d)
        got = frac_integral(gamma, g).values
        assert np.all(np.abs(got - jint) <= KERNEL_RTOL * jint_scale)
        got = caputo_l1(gamma, g, 1.0).values
        assert np.all(np.abs(got - l1) <= KERNEL_RTOL * l1_scale)
        # power_weighted_integral does not use the Volterra kernel and
        # still reproduces the masked reference bit for bit
        a, b = t[:-1], t[1:]
        d0 = pow_diff_masked(gamma, b, a, h)
        d1 = pow_diff_masked(gamma + 1.0, b, a, h)
        n1 = (d1 / (gamma + 1.0) - a * d0 / gamma) / h
        cell = v[:-1] * (d0 / gamma - n1) + v[1:] * n1
        pwi = np.concatenate(([0.0], np.cumsum(cell)))
        assert np.array_equal(power_weighted_integral(gamma, g).values, pwi)


def _block_rows(gamma, t, blocks):
    # (n, d0 row, P row, tip) for every row of the given (lo, hi) blocks
    h = np.diff(t)
    for lo, hi in blocks:
        d0, P, tips = _trapezoid_moments(gamma, t[lo:hi], t[:hi], h[: hi - 1])
        assert d0.shape == P.shape == (hi - lo, hi - 2) and tips.shape == (hi - lo,)
        for i, n in enumerate(range(lo, hi)):
            # the triangle at and right of the tip cell is zero
            assert not np.any(d0[i, n - 1 :]) and not np.any(P[i, n - 1 :])
            yield n, d0[i, : n - 1], P[i, : n - 1], tips[i]


class TestMomentBlocks:
    """Rows formed in blocks are the one-row kernel's, bit for bit, and
    meet the masked oracle; the operators built on them meet a per-row
    reference to rounding."""

    @staticmethod
    def _check_rows(gamma, t, blocks):
        h = np.diff(t)
        seen = []
        for n, d0, P, tip in _block_rows(gamma, t, blocks):
            one = _trapezoid_moments(gamma, float(t[n]), t[: n + 1], h[:n])
            assert np.array_equal(d0, one[0]) and np.array_equal(P, one[1]), n
            assert tip == one[2], n
            ref = trapezoid_moments_masked(gamma, t[n], t[: n + 1])
            scale = trapezoid_moments_masked(gamma, t[n], t[: n + 1], absolute=True)
            x = t[n] - t[: n - 1]
            m0 = np.append(d0, tip) / gamma
            m1h = np.append(
                (x * d0 / (gamma * (gamma + 1.0)) - h[: n - 1] * P / (gamma + 1.0)) / h[: n - 1],
                tip / (gamma * (gamma + 1.0)),
            )
            assert np.all(np.abs(m0 - ref[0]) <= KERNEL_RTOL * scale[0]), n
            assert np.all(np.abs(m1h - ref[1]) <= KERNEL_RTOL * scale[1]), n
            seen.append(n)
        return seen

    @pytest.mark.parametrize("gamma,mesh", list(_oracle_cases()))
    def test_block_rows_match_the_masked_oracle(self, gamma, mesh):
        t = mesh.nodes
        h = np.diff(t)
        blocks = [(lo, hi) for lo, hi, *_ in fracops._moment_blocks(gamma, t, h, 1, t.size)]
        assert self._check_rows(gamma, t, blocks) == list(range(1, t.size))
        # one-row blocks, and blocks cut at every third row
        ones = [(n, n + 1) for n in range(1, t.size)]
        assert self._check_rows(gamma, t, ones) == list(range(1, t.size))
        thirds = [(lo, min(lo + 3, t.size)) for lo in range(1, t.size, 3)]
        assert self._check_rows(gamma, t, thirds) == list(range(1, t.size))

    @staticmethod
    def _unshared(fn, *args):
        # fn(*args) with its blocks formed afresh: nothing held beforehand
        fracops._HELD = None
        return fn(*args)

    def test_shared_blocks_are_keyed_on_gamma_and_nodes(self, monkeypatch):
        # operators of several orders on two meshes of one size, taken in
        # turn, give what they give on blocks formed afresh, and the held
        # blocks are read-only and those of the last (order, mesh) asked
        monkeypatch.setattr(fracops, "_HELD", None)
        meshes = (Mesh.graded(1.0, 200, 4.0), Mesh.uniform(1.0, 200))
        gammas = (0.3, 0.7)
        fns = [SampledFn(m, np.cos(3.0 * m.nodes)) for m in meshes]
        for g in gammas:
            for v in fns:
                fresh = self._unshared(frac_integral, g, v).values
                assert np.array_equal(frac_integral(g, v).values, fresh)
                fresh = self._unshared(caputo_l1, g, v, 1.0).values
                assert np.array_equal(caputo_l1(g, v, 1.0).values, fresh)
                # caputo_l1 of order g takes the kernel of order 1 - g
                assert fracops._HELD[0] == (1.0 - g, v.mesh.nodes.tobytes())
                for _, _, *arrays in fracops._HELD[1]:
                    assert not any(a.flags.writeable for a in arrays)

    def test_another_mesh_or_order_releases_the_held_blocks(self, monkeypatch):
        # at most one mesh's blocks are alive: the next short march over
        # other nodes or another order drops them, and a march over 512
        # nodes or more neither reads nor replaces them
        monkeypatch.setattr(fracops, "_HELD", None)
        mesh = Mesh.uniform(1.0, 128)
        v = SampledFn(mesh, np.cos(mesh.nodes))
        other = Mesh.graded(1.0, 128, 2.0)
        for step in (
            lambda: frac_integral(0.4, v),
            lambda: frac_integral(0.5, SampledFn(other, np.cos(other.nodes))),
        ):
            frac_integral(0.5, v)
            held = fracops._HELD
            probe = weakref.ref(held[1][0][2])
            frac_integral(0.5, v)
            assert fracops._HELD is held  # the same mesh reads them again
            long = Mesh.uniform(1.0, fracops._SOE_START - 1)
            frac_integral(0.5, SampledFn(long, np.cos(long.nodes)))
            assert fracops._HELD is held
            del held
            step()
            gc.collect()
            assert probe() is None

    def test_threads_on_two_meshes_get_their_own_blocks(self, monkeypatch):
        # two threads march two short meshes at once, each many times, and
        # get the values of one march at a time, bit for bit
        meshes = (Mesh.graded(1.0, 300, 3.0), Mesh.uniform(1.0, 301))
        fns = [SampledFn(m, np.sin(5.0 * m.nodes) + m.nodes) for m in meshes]
        monkeypatch.setattr(fracops, "_HELD", None)
        want = [self._unshared(frac_integral, 0.5, v).values for v in fns]
        bad = []

        def march(i):
            try:
                for _ in range(40):
                    if not np.array_equal(frac_integral(0.5, fns[i]).values, want[i]):
                        bad.append(i)
            except Exception as exc:  # a failed march must fail the test
                bad.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=march, args=(i,)) for i in (0, 1)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert bad == []

    @pytest.mark.parametrize("gamma", [0.2, 0.77])
    def test_blocks_straddling_the_far_start(self, gamma):
        start = fracops._SOE_START
        t = Mesh.graded(1.0, start + 200, default_grading(gamma)).nodes
        blocks = [(start - 40, start + 40), (start - 1, start + 1), (start + 40, start + 201)]
        assert len(self._check_rows(gamma, t, blocks)) == 80 + 2 + 161

    def test_block_cells_stay_under_the_limit(self):
        t = Mesh.uniform(1.0, 4096).nodes
        h = np.diff(t)
        rows = []
        for lo, hi, d0, _, _ in fracops._moment_blocks(0.5, t, h, 1, t.size):
            assert d0.size <= fracops._BLOCK_CELLS or hi == lo + 1
            rows.extend(range(lo, hi))
        assert rows == list(range(1, t.size))

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("kind", ["graded", "geometric"])
    def test_operators_match_a_per_row_reference(self, gamma, kind):
        # the rows of the product-trapezoid sums one at a time from the
        # one-row kernel; a deviation counts as rounding within
        # KERNEL_RTOL times the sum of the magnitudes of the terms
        if kind == "graded":
            mesh = Mesh.graded(1.0, 1024, default_grading(gamma))
        else:
            mesh = Mesh.geometric(50.0, 1024, 1e-6)
        t = mesh.nodes
        assert t.size < fracops._SOE_MIN_NODES
        h = np.diff(t)
        v = np.cos(7.0 * t / t[-1]) + t / t[-1]
        df = np.diff(v)
        s = df / h
        q = 1.0 - gamma
        slopes = np.diff(np.concatenate(([1.0], v[1:]))) / h
        inv_g, inv_g2, g1 = 1.0 / gamma_fn(gamma), 1.0 / gamma_fn(2.0 - gamma), gamma + 1.0
        jint, jint_scale = np.zeros(t.size), np.zeros(t.size)
        l1, l1_scale = np.zeros(t.size), np.zeros(t.size)
        for n in range(1, t.size):
            k = n - 1
            d0, P, tip = _trapezoid_moments(gamma, float(t[n]), t[: n + 1], h[:n])
            xd0 = (t[n] - t[:k]) * d0
            terms = (
                v[:k] * d0 / gamma,
                s[:k] * xd0 / (gamma * g1),
                -df[:k] * P / g1,
                [v[k] * tip / g1, tip / (gamma * g1) * v[n]],
            )
            jint[n] = inv_g * sum(math.fsum(x) for x in terms)
            jint_scale[n] = inv_g * sum(math.fsum(np.abs(x)) for x in terms)
            d, _, tip = _trapezoid_moments(q, float(t[n]), t[: n + 1], h[:n])
            l1[n] = inv_g2 * (math.fsum(slopes[:k] * d) + slopes[k] * tip)
            l1_scale[n] = inv_g2 * (math.fsum(np.abs(slopes[:k]) * d) + abs(slopes[k]) * tip)
        g = SampledFn(mesh, v)
        assert np.all(np.abs(frac_integral(gamma, g).values - jint) <= KERNEL_RTOL * jint_scale)
        assert np.all(np.abs(caputo_l1(gamma, g, 1.0).values - l1) <= KERNEL_RTOL * l1_scale)

    def test_traced_peak_of_frac_integral(self):
        # measured 547 KiB (138 KiB row by row): a block's d0, P and
        # distance arrays of at most _BLOCK_CELLS cells each, and numpy's
        # 64 KiB buffers for broadcasting a row against a column; the
        # block before is released first
        mesh = Mesh.graded(1.0, 1024, 4.0)
        g = _sample(mesh, lambda t: np.cos(7.0 * t) + t)
        tracemalloc.start()
        try:
            frac_integral(0.5, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 640 << 10


class TestFarHistory:
    """Long meshes take the far history from exponential modes."""

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("ratio", [1e-6, 1e-10])
    def test_soe_meets_its_relative_tolerance(self, gamma, ratio):
        # measured at most 1.6e-14 on [delta, T]
        T = 1.0
        s, w = fracops._soe(gamma, ratio * T, T)
        assert np.all(s > 0.0) and np.all(w > 0.0)
        assert np.all(s * ratio * T < 45.0)
        tau = np.geomspace(ratio * T, T, 20001)
        approx = np.exp(-np.multiply.outer(tau, s)) @ w
        assert np.abs(approx / tau ** (gamma - 1.0) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize(
        "gamma,n,kind",
        [pytest.param(g, 4096, "graded", id=str(g)) for g in (0.2, 0.5, 0.8)]
        + [pytest.param(g, 4096, "geometric", id=f"geometric-{g}") for g in (0.2, 0.5, 0.8)]
        + [
            pytest.param(g, n, "graded", id=f"n{n}-{g}")
            for n in (2047, 2048, 2100)
            for g in (0.2, 0.8)
        ],
    )
    def test_operators_match_the_direct_path(self, gamma, n, kind, monkeypatch):
        # measured: at most 5.3e-15 relative to the largest value on the
        # graded meshes, 2.4e-15 on the geometric one.  That one is held
        # to the 2e-13 README states for the long decay, where the direct
        # path's thin far cells carry the larger rounding error.  Far rows
        # come _SOE_BLOCK at a time from node _SOE_START on: n = 2047 is a
        # mesh of exactly _SOE_MIN_NODES nodes whose last block is full,
        # and n = 2048 and 2100 end on blocks of 1 and 53 rows
        if kind == "graded":
            mesh, bound = Mesh.graded(1.0, n, default_grading(gamma)), 1e-13
        else:
            mesh, bound = Mesh.geometric(1e6, n, 1e-3), 2e-13
        t = mesh.nodes
        assert t.size >= fracops._SOE_MIN_NODES
        g = _sample(mesh, lambda t: np.cos(7.0 * t / t[-1]) + t / t[-1])
        fast = frac_integral(gamma, g).values, caputo_l1(gamma, g, 1.0).values
        monkeypatch.setattr(fracops, "_SOE_MIN_NODES", t.size + 1)
        direct = frac_integral(gamma, g).values, caputo_l1(gamma, g, 1.0).values
        for a, b in zip(fast, direct):
            assert np.abs(a - b).max() <= bound * np.abs(b).max()

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_soe_rows_match_mpmath(self, gamma):
        # measured at most 4.1e-15 in wa and wb together.  z = s h runs from
        # 1e-20 across the series switch at 0.05 to past exp's underflow
        # at 745; the oracle needs 100 digits, since at tiny z phi = 1 -
        # em/z keeps about dps - 2 log10(1/z) of them
        s, w = fracops._soe(gamma, 1e-6, 1.0)
        s, c = s[::8], (w / s)[::8]
        h = np.concatenate((np.geomspace(1e-20, 1e3, 300), 0.05 * (1.0 + np.linspace(-1e-6, 1e-6, 9))))
        h /= s[0]
        e, wa, wb = fracops._soe_rows(s, c, h)
        z = np.multiply.outer(h, s)
        assert z.min() <= 1e-20 and z.max() > 745.0
        assert np.any((0.049 < z) & (z < 0.05)) and np.any((0.05 <= z) & (z < 0.051))
        ref = np.empty((3,) + z.shape)
        with mpmath.workdps(100):
            for (i, j), zij in np.ndenumerate(z):
                zm = mpmath.mpf(zij)  # z as the rows form it, exactly
                em = -mpmath.expm1(-zm)
                phi = 1 - em / zm
                cj = mpmath.mpf(c[j])
                ref[:, i, j] = mpmath.exp(-zm), cj * (em - phi), cj * phi
        err = (np.abs(wa - ref[1]) + np.abs(wb - ref[2])) / (np.abs(ref[1]) + np.abs(ref[2]))
        assert err.max() <= 1e-14
        # e is floored at exp(-_SOE_CUT): off by at most that, plus rounding
        cut = math.exp(-fracops._SOE_CUT)
        assert np.all(np.abs(e - ref[0]) <= cut + 4e-16 * ref[0])
        assert np.all(e >= cut)

    def test_one_exp_and_one_expm1_per_row_block(self, monkeypatch):
        # the decay and the hats' integrals share z = s h: one exp and one
        # expm1 over the cells, the series below z = 0.05 is arithmetic
        monkeypatch.setattr(_UfuncLog, "calls", [])
        s, w = fracops._soe(0.5, 1e-6, 1.0)
        h = np.geomspace(1e-9, 1e-1, fracops._SOE_BLOCK)
        fracops._soe_rows(s, w / s, h.view(_UfuncLog))
        plain = {"add", "subtract", "multiply", "divide", "negative", "maximum", "less"}
        assert sorted(set(_UfuncLog.calls) - plain) == ["exp", "expm1"]
        assert _UfuncLog.calls.count("exp") == _UfuncLog.calls.count("expm1") == 1

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize(
        "mesh",
        [Mesh.graded(1.0, 4096, 4.0), Mesh.geometric(1e6, 8192, 1e-3)],
        ids=["graded", "geometric"],
    )
    def test_no_subnormal_arithmetic(self, gamma, mesh, monkeypatch):
        # x86 multiplies subnormal doubles many times slower: every decay
        # exponent is floored at -_SOE_CUT, so neither the mode rows nor the
        # decays and their products in `start`, `blocks`, `far` and `absorb`
        # (matrix products as their elementwise terms) leave the normal range
        monkeypatch.setattr(_UfuncLog, "calls", [])
        monkeypatch.setattr(_UfuncLog, "subnormal", [])
        t = mesh.nodes
        v = np.cos(7.0 * t / t[-1]) + t / t[-1]
        far = fracops._FarHistory(gamma, t.view(_UfuncLog))
        for _ in far.blocks(v[:-1], v[1:]):
            pass
        far.start(v[:-1], v[1:])
        for n in range(fracops._SOE_START, t.size):
            far.far(n)
            far.absorb(v[n - 1], v[n])
        assert _UfuncLog.subnormal == []

    def test_traced_peak_on_the_far_path(self):
        # measured 792 KiB (852 KiB node by node): the direct start's
        # blocks of _BLOCK_CELLS cells, then per far block its moments and
        # mode rows of _SOE_BLOCK rows each
        mesh = Mesh.graded(1.0, 4096, 4.0)
        assert mesh.nodes.size >= fracops._SOE_MIN_NODES
        g = _sample(mesh, lambda t: np.cos(7.0 * t) + t)
        tracemalloc.start()
        try:
            frac_integral(0.5, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 896 << 10
