"""Tests for log-log power fits and the growth envelope constants.

The envelope constants have clean closed forms at gamma = 1/2 which we
use as exact anchors:

  C1(1/2): substituting x = sqrt(tau), the integral
  int_0^1 tau^{-1/2} (2-tau)^{-1/2} dtau becomes
  2*arcsin(x/sqrt(2)) |_0^1 = pi/2, and B(3/2, 1/2) = pi/2, so
  C1 = gamma * (pi/2)/(pi/2) = 1/2.

  C2(1/2, 1/2): q = gamma/(1-p) = 1, the integral
  int_{1/2}^1 (1-tau)^{-1/2} dtau = sqrt(2), so
  C2 = (1/Gamma(1/2)) * sqrt(2) = sqrt(2/pi), and
  M1 = (A/C2)^{1/(1-p)} = pi/2 at A = 1.

  Subsolution at A = 1, p = 1/2, gamma = 1/2: q = 1, so
  a = (Gamma(3/2)/Gamma(2))^2 = pi/4 and t0 = (u0/a)^{1/gamma} = 4/pi
  at u0 = 1.

The blow-up strength constant at p = 2, gamma = 1/2 reduces to
(Gamma(1)/ (A Gamma(1/2)))^1 = 1/(A sqrt(pi)).
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special

from fracode.asymptotics import (
    EnvelopeParams,
    _c1_constant,
    _c2_constant,
    blowup_constant_theory,
    eval_envelope,
    fit_power,
    growth_constant,
    subsolution_params,
    supersolution_params,
)
from fracode.fracops import Mesh, SampledFn
from fracode.solver import FracProblem, solve
from fracode.specfun import gamma_fn

INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi)
HALF_INV_SQRT_PI = 0.2820947917738781
A_HALF = math.pi / 4.0
T0_HALF = 4.0 / math.pi
C2_HALF = math.sqrt(2.0 / math.pi)  # 0.7978845608028654


def power_samples(exponent: float, constant: float, t_lo=1e-2, t_hi=1e3, n=400):
    body = np.geomspace(t_lo, t_hi, n)
    nodes = np.concatenate(([0.0], body))
    vals = np.concatenate(([0.0 if exponent > 0 else 1.0], constant * body**exponent))
    return SampledFn(Mesh(nodes), vals)


class TestFitPower:
    def test_recovers_exact_power_law(self):
        fn = power_samples(0.7, 3.0)
        fit = fit_power(fn, window=(1.0, 100.0))
        assert abs(fit.exponent - 0.7) < 1e-12
        assert abs(fit.constant - 3.0) / 3.0 < 1e-12
        assert fit.rms_residual < 1e-13
        assert fit.window == (1.0, 100.0)

    def test_negative_exponent(self):
        fn = power_samples(-0.25, 0.8)
        fit = fit_power(fn, window=(10.0, 1000.0))
        assert abs(fit.exponent + 0.25) < 1e-12
        assert abs(fit.constant - 0.8) / 0.8 < 1e-12

    def test_default_window_is_last_decade(self):
        fn = power_samples(1.0, 2.0, t_hi=500.0)
        fit = fit_power(fn)
        assert fit.window == (50.0, 500.0)
        assert abs(fit.exponent - 1.0) < 1e-12

    def test_time_rescaling_shifts_only_the_constant(self):
        lam = 7.3
        fn = power_samples(0.6, 2.0)
        scaled = SampledFn(Mesh(fn.mesh.nodes * lam), fn.values)
        f1 = fit_power(fn, window=(1.0, 100.0))
        f2 = fit_power(scaled, window=(lam, 100.0 * lam))
        assert abs(f1.exponent - f2.exponent) < 1e-10
        # u = C t^q sampled at t' = lam t fits as (C lam^-q) t'^q
        assert abs(f2.constant - f1.constant * lam**-0.6) / f2.constant < 1e-9

    def test_blowup_window_fits_against_gap(self):
        t_b = 1.0
        tau = np.geomspace(0.9, 1e-4, 60)
        nodes = np.concatenate(([0.0], t_b - tau))
        vals = np.concatenate(([2.0 * 0.9**-0.5 * 0.9**0.5], 2.0 * tau**-0.5))
        vals[0] = 2.0  # value at t = 0, tau = 1
        fn = SampledFn(Mesh(nodes), vals)
        fit = fit_power(fn, window=(0.1, float(nodes[-1])), t_b=t_b)
        assert abs(fit.exponent + 0.5) < 1e-10
        assert abs(fit.constant - 2.0) / 2.0 < 1e-10

    def test_rejects_thin_windows(self):
        fn = power_samples(1.0, 1.0, n=20)  # about 4 nodes per decade
        with pytest.raises(ValueError, match="at least 10"):
            fit_power(fn, window=(1.0, 100.0))

    def test_rejects_sub_decade_span(self):
        fn = power_samples(1.0, 1.0)
        with pytest.raises(ValueError, match="decade"):
            fit_power(fn, window=(100.0, 500.0))

    def test_rejects_nonpositive_values(self):
        body = np.geomspace(0.1, 100.0, 50)
        vals = np.concatenate(([1.0], body - 50.0))
        fn = SampledFn(Mesh(np.concatenate(([0.0], body))), vals)
        with pytest.raises(ValueError, match="nonpositive"):
            fit_power(fn, window=(0.1, 100.0))

    def test_rejects_window_past_blowup(self):
        fn = power_samples(1.0, 1.0)
        with pytest.raises(ValueError, match="past the blow-up"):
            fit_power(fn, window=(1.0, 100.0), t_b=50.0)

    def test_rejects_reversed_window(self):
        fn = power_samples(1.0, 1.0)
        with pytest.raises(ValueError, match="bad window"):
            fit_power(fn, window=(10.0, 1.0))


class TestBlowupConstantTheory:
    def test_reference_point(self):
        assert abs(blowup_constant_theory(1.0, 2.0, 0.5) - INV_SQRT_PI) < 1e-15

    def test_amplitude_scaling(self):
        # p = 2 makes the constant exactly 1/(A sqrt(pi))
        assert abs(blowup_constant_theory(2.0, 2.0, 0.5) - HALF_INV_SQRT_PI) < 1e-15

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_against_gamma_ratio(self, gamma, p):
        m = gamma / (p - 1.0)
        want = (scipy.special.gamma(m + gamma) / scipy.special.gamma(m)) ** (
            1.0 / (p - 1.0)
        )
        got = blowup_constant_theory(1.0, p, gamma)
        assert abs(got - want) / want < 1e-12

    def test_p_close_to_one_overflows(self):
        with pytest.raises(OverflowError):
            blowup_constant_theory(1.0, 1.0 + 1e-4, 0.5)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            blowup_constant_theory(-1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            blowup_constant_theory(1.0, 0.5, 0.5)


class TestSubsolutionParams:
    def test_closed_form_anchor(self):
        a, t0 = subsolution_params(1.0, 0.5, 0.5, 1.0)
        assert abs(a - A_HALF) / A_HALF < 1e-12
        assert abs(t0 - T0_HALF) / T0_HALF < 1e-12

    @pytest.mark.parametrize(
        "A,p,gamma", [(1.0, 0.5, 0.5), (2.0, 0.3, 0.7), (0.5, 0.8, 0.4)]
    )
    def test_defining_equality_is_tight(self, A, p, gamma):
        # a Gamma(q+1)/Gamma(qp+1) = A a^p with q = gamma/(1-p)
        a, _ = subsolution_params(A, p, gamma, 1.0)
        q = gamma / (1.0 - p)
        lhs = a * scipy.special.gamma(q + 1.0) / scipy.special.gamma(q * p + 1.0)
        rhs = A * a**p
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_ramp_continues_initial_value(self):
        A, p, gamma, u0 = 1.5, 0.4, 0.6, 2.0
        a, t0 = subsolution_params(A, p, gamma, u0)
        assert abs(a * t0 ** (gamma / (1.0 - p)) - u0) < 1e-12 * u0

    def test_rejects_bad_domain(self):
        for bad in [(-1.0, 0.5, 0.5, 1.0), (1.0, 1.5, 0.5, 1.0),
                    (1.0, 0.5, 1.5, 1.0), (1.0, 0.5, 0.5, 0.0)]:
            with pytest.raises(ValueError):
                subsolution_params(*bad)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_envelopes_reject_p_at_most_zero(self, p):
        # the growth constant exists there (growth_constant); the
        # envelope construction does not
        for build in (subsolution_params, supersolution_params):
            with pytest.raises(ValueError, match="covers p in"):
                build(1.0, p, 0.5, 1.0)

    def test_amplitude_is_the_growth_constant(self):
        a, _ = subsolution_params(1.0, 0.5, 0.5, 1.0)
        assert a == growth_constant(1.0, 0.5, 0.5)
        # p = 0: u = u0 + A t^gamma/Gamma(1+gamma)
        assert growth_constant(2.0, 0.0, 0.5) == pytest.approx(2.0 / math.gamma(1.5), rel=1e-15)


class TestEnvelopeConstants:
    def test_c1_anchor(self):
        assert abs(_c1_constant(0.5) - 0.5) < 1e-9

    def test_c2_anchor(self):
        assert abs(_c2_constant(0.5, 0.5) - C2_HALF) < 1e-9

    def test_m1_anchor(self):
        params = supersolution_params(1.0, 0.5, 0.5, 1.0)
        assert abs(params.M1 - math.pi / 2.0) < 1e-8
        assert abs(params.C1 - 0.5) < 1e-9
        assert abs(params.C2 - C2_HALF) < 1e-9

    @pytest.mark.parametrize("gamma", [0.2, 0.35, 0.5, 0.65, 0.8])
    def test_c1_against_weighted_quadrature(self, gamma):
        raw, _ = scipy.integrate.quad(
            lambda tau: (2.0 - tau) ** -gamma,
            0.0,
            1.0,
            weight="alg",
            wvar=(gamma - 1.0, 0.0),
        )
        want = gamma * raw / scipy.special.beta(1.0 + gamma, 1.0 - gamma)
        assert abs(_c1_constant(gamma) - want) / want < 1e-8

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_c2_against_weighted_quadrature(self, p, gamma):
        q = gamma / (1.0 - p)
        raw, _ = scipy.integrate.quad(
            lambda tau: tau ** (q - 1.0),
            0.5,
            1.0,
            weight="alg",
            wvar=(0.0, -gamma),
        )
        # the substitution Jacobian (1-gamma) cancels the same factor
        # in the normalization, leaving gamma/((1-p) Gamma(1-gamma))
        want = raw * gamma / ((1.0 - p) * scipy.special.gamma(1.0 - gamma))
        assert abs(_c2_constant(p, gamma) - want) / want < 1e-8

    # the panel quadrature meets its 1e-10 tolerance to within twice that;
    # mpmath's incomplete Beta integral needs no substitution
    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_c1_against_incomplete_beta(self, gamma):
        # tau = 2u maps the C1 integral onto int_0^{1/2} u^{g-1} (1-u)^{-g} du
        with mpmath.workdps(30):
            g = mpmath.mpf(gamma)
            want = g * mpmath.betainc(g, 1 - g, 0, 0.5) / mpmath.beta(1 + g, 1 - g)
        assert _c1_constant(gamma) == pytest.approx(float(want), rel=2e-10)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_c2_against_incomplete_beta(self, p, gamma):
        with mpmath.workdps(30):
            g, pp = mpmath.mpf(gamma), mpmath.mpf(p)
            raw = mpmath.betainc(g / (1 - pp), 1 - g, 0.5, 1)
            want = g * raw / ((1 - pp) * mpmath.gamma(1 - g))
        assert _c2_constant(p, gamma) == pytest.approx(float(want), rel=2e-10)

    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_c1_sits_in_unit_interval(self, gamma):
        assert 0.0 < _c1_constant(gamma) <= 1.0


class TestSupersolutionParams:
    def test_glue_identity(self):
        params = supersolution_params(1.0, 0.5, 0.5, 1.0)
        g1 = scipy.special.gamma(1.5)
        assert abs(params.B2 - (params.u0 + params.B1 / g1)) < 1e-12 * params.B2

    @staticmethod
    def _constraints_hold(params: EnvelopeParams, b1: float) -> bool:
        # B1 is the exact bisection boundary, so the test must round
        # Gamma(1+gamma) as supersolution_params does: scipy's value is
        # 1 ULP off it at gamma = 0.3 and 0.5, which decides the comparison
        g1 = gamma_fn(1.0 + params.gamma)
        b2 = params.u0 + b1 / g1
        if b2 < params.M1:
            return False
        pow2 = 2.0 ** (params.p * params.gamma / (1.0 - params.p))
        rhs = params.A * max(params.u0**params.p, b2**params.p * pow2)
        return b1 * min(1.0, params.C1) >= rhs

    @pytest.mark.parametrize(
        "A,p,gamma,u0",
        [(1.0, 0.5, 0.5, 1.0), (1.0, 0.5, 0.3, 1.0), (2.0, 0.7, 0.6, 0.5)],
    )
    def test_b1_is_minimal(self, A, p, gamma, u0):
        params = supersolution_params(A, p, gamma, u0)
        assert self._constraints_hold(params, params.B1)
        assert not self._constraints_hold(params, params.B1 / 2.0)
        # bisection pins the boundary well below 1 percent
        assert not self._constraints_hold(params, params.B1 * 0.99)

    def test_super_envelope_is_continuous_at_one(self):
        params = supersolution_params(1.0, 0.5, 0.5, 1.0)
        left = eval_envelope(params, "super", 1.0 - 1e-12)
        right = eval_envelope(params, "super", 1.0 + 1e-12)
        assert abs(left - right) < 1e-9 * right


@pytest.fixture(scope="module")
def params():
    return supersolution_params(1.0, 0.5, 0.5, 1.0)


class TestEvalEnvelope:
    def test_sub_is_flat_before_t0(self, params):
        assert eval_envelope(params, "sub", 0.0) == 1.0
        assert eval_envelope(params, "sub", params.t0 * 0.5) == 1.0

    def test_sub_follows_ramp_after_t0(self, params):
        t = 2.0 * params.t0
        q = params.gamma / (1.0 - params.p)
        assert abs(eval_envelope(params, "sub", t) - params.a * t**q) < 1e-14

    def test_super_starts_at_u0(self, params):
        assert eval_envelope(params, "super", 0.0) == params.u0

    def test_super_tail(self, params):
        q = params.gamma / (1.0 - params.p)
        assert abs(eval_envelope(params, "super", 4.0) - params.B2 * 4.0**q) < 1e-12

    def test_array_evaluation(self, params):
        t = np.array([0.0, 0.5, 1.0, 2.0, 10.0])
        sub = eval_envelope(params, "sub", t)
        sup = eval_envelope(params, "super", t)
        assert sub.shape == t.shape and sup.shape == t.shape
        assert np.all(sup >= sub)

    def test_scalar_comes_back_as_float(self, params):
        out = eval_envelope(params, "sub", 3.0)
        assert isinstance(out, float)

    def test_rejects_negative_time(self, params):
        with pytest.raises(ValueError, match="t >= 0"):
            eval_envelope(params, "sub", -1.0)

    def test_rejects_unknown_side(self, params):
        with pytest.raises(ValueError, match="which"):
            eval_envelope(params, "middle", 1.0)

    def test_rejects_envelopes_outside_sublinear_range(self):
        with pytest.raises(ValueError):
            supersolution_params(1.0, 1.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            supersolution_params(1.0, -0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            supersolution_params(-1.0, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            supersolution_params(1.0, 0.5, 0.5, -1.0)


class TestEnvelopeBracketsSolution:
    """The computed path must stay between the envelopes for all time."""

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
    def test_sandwich_to_t_fifty(self, gamma):
        prob = FracProblem.power_law(gamma, 1.0, 0.5, 1.0, 50.0)
        mesh = Mesh.graded(50.0, 2048, 2.0 / gamma)
        path = solve(prob, mesh)
        params = supersolution_params(1.0, 0.5, gamma, 1.0)
        lo = eval_envelope(params, "sub", mesh.nodes)
        hi = eval_envelope(params, "super", mesh.nodes)
        scale = np.maximum(np.abs(path.values), 1.0)
        assert np.all(path.values >= lo - 1e-6 * scale)
        assert np.all(path.values <= hi + 1e-6 * scale)


class TestLongTimeFits:
    """Fits of actual solver paths against the predicted long-time powers."""

    @staticmethod
    def _long_run(A: float, p: float) -> object:
        prob = FracProblem.power_law(0.5, A, p, 1.0, 1000.0)
        mesh = Mesh.geometric(1000.0, 4096, 1e-3)
        return solve(prob, mesh)

    def test_growth_exponent_approaches_one(self):
        # gamma/(1-p) = 1 at gamma = 1/2, p = 1/2; convergence in the
        # exponent is slow (the sub-envelope gap decays like a small
        # negative power), so the window starts late
        path = self._long_run(1.0, 0.5)
        fit = fit_power(path, window=(100.0, 1000.0))
        assert abs(fit.exponent - 1.0) < 0.05
        # prefactor heads toward the subsolution amplitude from above
        assert A_HALF * 0.9 < fit.constant < A_HALF * 1.4

    @pytest.mark.parametrize(
        "p,tol", [(0.5, 0.03), (1.0, 0.03), (2.0, 0.07)]
    )
    def test_decay_exponent_minus_gamma_over_p(self, p, tol):
        path = self._long_run(-1.0, p)
        fit = fit_power(path, window=(100.0, 1000.0))
        want = -0.5 / p
        assert abs(fit.exponent - want) <= tol * abs(want)


class TestGrowthConstant:
    """u(T) / (a T^{gamma/(1-p)}) -> 1 for D^gamma u = A u^p, A > 0, 0 < p < 1.

    a is the subsolution amplitude; the path lies above the subsolution
    (comparison principle), so the ratio falls to 1 from above.
    """

    @pytest.mark.parametrize(
        "gamma,A,p,u0,tol",
        [
            (0.5, 1.0, 0.5, 1.0, 1e-3),
            (0.3, 1.0, 0.5, 1.0, 5e-3),
            (0.5, 2.0, 0.25, 1.0, 1e-3),
            (0.8, 1.0, 0.5, 2.0, 1e-3),
        ],
    )
    def test_ratio_to_the_subsolution_ramp_tends_to_one(self, gamma, A, p, u0, tol):
        a, _t0 = subsolution_params(A, p, gamma, u0)
        ratios = []
        for T in (1e3, 1e5):
            prob = FracProblem.power_law(gamma, A, p, u0, T)
            path = solve(prob, Mesh.geometric(T, 16384, 1e-3))
            ratios.append(path.values[-1] / (a * T ** (gamma / (1.0 - p))))
        near, far = ratios
        assert 1.0 < far < near
        assert far - 1.0 < tol
