import math
import sys

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given
from hypothesis import strategies as st
from oracles import ml_reference

from fracode import specfun
from fracode.specfun import (
    AccuracyLossError,
    MLQuery,
    PoleError,
    ResolventQuery,
    _ml,
    _ml_asymptotic,
    _ml_cut_integral,
    _ml_exp_pair,
    _ml_kummer_neg,
    _ml_many,
    _ml_series,
    _panel_quad,
    _panel_quad_rows,
    beta_fn,
    gamma_fn,
    log_gamma,
    mittag_leffler,
    mittag_leffler_with_error,
    power_kernel,
    resolvent,
    rgamma,
)

SQRT_PI = 1.7724538509055160273
EPS = specfun.EPS


class TestGamma:
    def test_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half_integer_constants(self):
        # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2
        assert gamma_fn(0.5) == pytest.approx(1.77245385090552, abs=1e-13)
        assert gamma_fn(1.5) == pytest.approx(0.88622692545276, abs=1e-13)

    @staticmethod
    def _assert_within_8_ulp(lo, hi, seed):
        # 400 seeded points in (lo, hi), integers skipped
        xs = np.random.default_rng(seed).uniform(lo, hi, 400)
        with mpmath.workdps(40):
            for x in (float(x) for x in xs if x != round(x)):
                want = mpmath.gamma(mpmath.mpf(x))
                ulps = abs(mpmath.mpf(gamma_fn(x)) - want) / math.ulp(float(want))
                assert ulps <= 8.0, (x, float(ulps))

    def test_against_mpmath(self):
        # measured at most 5.6 ULP over 1000 points per range
        for seed, (lo, hi) in enumerate(((0.0, 0.5), (0.5, 2.0), (2.0, 30.0), (30.0, 171.6))):
            self._assert_within_8_ulp(lo, hi, seed)

    def test_reflection_negative_axis(self):
        # measured at most 6.2 ULP over 1000 points per range
        self._assert_within_8_ulp(-30.0, 0.0, 4)
        self._assert_within_8_ulp(-170.0, -30.0, 5)

    def test_poles(self):
        for x in (0.0, -1.0, -2.0, -40.0):
            with pytest.raises(PoleError):
                gamma_fn(x)

    def test_overflow(self):
        for x in (171.63, 172.0, 1e-320, -1e-320):
            with pytest.raises(OverflowError):
                gamma_fn(x)

    @given(st.floats(min_value=0.1, max_value=80.0))
    def test_recurrence(self, x):
        assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    def test_log_gamma_matches_mpmath(self):
        # relative error, absolute where |log Gamma| < 1 (zeros at 1 and 2)
        rng = np.random.default_rng(5)
        xs = [1e-300, 1e-3, 0.2, 1.0, 2.0, 35.0, 400.0, 1e6]
        xs += [float(x) for x in np.exp(rng.uniform(math.log(1e-300), math.log(1e6), 300))]
        xs += [float(x) for x in rng.uniform(0.5, 3.0, 300)]
        with mpmath.workdps(40):
            for x in xs:
                want = mpmath.loggamma(mpmath.mpf(x))
                err = abs(mpmath.mpf(log_gamma(x)) - want) / max(1, abs(want))
                assert err <= 2e-15, (x, float(err))

    def test_log_gamma_domain(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.2)

    def test_rgamma_entire(self):
        for x in (0.0, -0.0, -1.0, -7.0, -200.0):
            assert rgamma(x) == 0.0
        assert rgamma(2.5) == pytest.approx(float(mpmath.rgamma(2.5)), rel=1e-15)
        assert rgamma(-2.5) == pytest.approx(float(mpmath.rgamma(-2.5)), rel=1e-15)

    def test_rgamma_where_gamma_leaves_double_range(self):
        # Gamma overflows past 171.62; its reciprocal underflows quietly
        assert rgamma(171.7) == pytest.approx(float(mpmath.rgamma(171.7)), rel=1e-12)
        assert rgamma(200.5) == 0.0
        # Gamma underflows to -0.0 at -200.5; its reciprocal is -inf
        assert gamma_fn(-200.5) == 0.0 and math.copysign(1.0, gamma_fn(-200.5)) < 0.0
        assert rgamma(-200.5) == -math.inf
        # Gamma overflows for 0 < |x| < 1/DBL_MAX, where 1/Gamma(x) = x
        for x in (1e-320, -1e-320, 1e-310):
            assert rgamma(x) == x

    def test_rgamma_sign_between_poles(self):
        for x in (-1.9, -1.5, -1.1):
            assert rgamma(x) > 0.0 and gamma_fn(x) > 0.0
        for x in (-0.9, -0.5, -0.1):
            assert rgamma(x) < 0.0 and gamma_fn(x) < 0.0


class TestBeta:
    def test_known_values(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert beta_fn(0.5, 0.5) == pytest.approx(3.14159265358979, abs=1e-12)
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_against_scipy(self):
        for a, b in ((0.3, 4.2), (7.0, 0.05), (12.5, 33.0)):
            assert beta_fn(a, b) == pytest.approx(sps.beta(a, b), rel=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.05, max_value=50.0),
    )
    def test_symmetry(self, a, b):
        assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-12)

    def test_domain_and_overflow(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)
        with pytest.raises(OverflowError):
            beta_fn(1e-320, 1.0)


class TestPowerKernel:
    def test_ramp_convention(self):
        # t^beta / Gamma(1+beta); the gamma=1/2 forcing response at t=1
        assert power_kernel(0.5, 1.0) == pytest.approx(1.12837916709551, abs=1e-13)
        assert power_kernel(1.5, 1.0) == pytest.approx(float(mpmath.rgamma(2.5)), rel=1e-15)

    def test_linear_case(self):
        assert power_kernel(1.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_at_zero(self):
        assert power_kernel(0.3, 0.0) == 0.0
        assert power_kernel(0.0, 0.0) == 1.0
        assert power_kernel(-0.5, 0.0) == math.inf

    def test_heaviside(self):
        assert power_kernel(0.7, -1.0) == 0.0

    def test_distributional_range_rejected(self):
        with pytest.raises(ValueError):
            power_kernel(-1.0, 1.0)
        with pytest.raises(ValueError):
            power_kernel(-2.5, 1.0)


class TestMittagLeffler:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            MLQuery(alpha=0.0, z=1.0)
        with pytest.raises(ValueError):
            MLQuery(alpha=2.5, z=1.0)
        with pytest.raises(ValueError):
            MLQuery(alpha=0.5, beta=0.0, z=1.0)
        with pytest.raises(ValueError):
            MLQuery(alpha=0.5, z=math.inf)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_past_the_double_range_of_z_to_the_one_over_alpha(self, alpha):
        # once |z|^(1/alpha) passes the largest double, E_alpha(-|z|) is
        # its algebraic tail -sum_k z^-k/Gamma(1 - k alpha) (the first
        # term sets every digit; a fix read at most 2.2e-16 off) and
        # E_alpha(|z|) saturates to inf
        first = math.ceil(alpha * math.log10(sys.float_info.max))
        for e in (first, (first + 300) // 2, 300):
            z = -(10.0**e)
            assert math.log(-z) / alpha > math.log(sys.float_info.max)
            with mpmath.workdps(30):
                zm = mpmath.mpf(z)
                ref = -sum(zm**-k * mpmath.rgamma(1 - k * alpha) for k in (1, 2, 3))
            v = mittag_leffler(MLQuery(alpha, 1.0, z))
            assert abs(v - float(ref)) <= 1e-14 * abs(float(ref)), (alpha, z)
            assert mittag_leffler(MLQuery(alpha, 1.0, -z)) == math.inf

    def test_trivial_points(self):
        assert mittag_leffler(MLQuery(0.5, 1.0, 0.0)) == pytest.approx(1.0, rel=1e-14)
        assert mittag_leffler(MLQuery(1.0, 1.0, 1.0)) == pytest.approx(
            2.71828182845905, abs=1e-13
        )
        assert mittag_leffler(MLQuery(1.0, 2.0, 1.0)) == pytest.approx(
            1.71828182845905, abs=1e-13
        )

    def test_exp_identity(self):
        # E_1(x) = exp(x) to 1e-12 relative on [-20, 20]
        for i in range(201):
            x = -20.0 + 40.0 * i / 200.0
            v = mittag_leffler(MLQuery(1.0, 1.0, x))
            assert abs(v - math.exp(x)) <= 1e-12 * math.exp(x)

    def test_erfcx_identity_one_half(self):
        # E_{1/2}(-x) = e^{x^2} erfc(x) = erfcx(x); scipy's erfcx is an
        # independent oracle covering series, integral and asymptotic
        # branches as x sweeps [0, 26]
        frozen = mittag_leffler(MLQuery(0.5, 1.0, -1.0))
        assert frozen == pytest.approx(0.42758357615581, abs=1e-11)
        for i in range(261):
            x = 26.0 * i / 260.0
            v = mittag_leffler(MLQuery(0.5, 1.0, -x))
            assert v == pytest.approx(float(sps.erfcx(x)), abs=2e-11, rel=2e-11)

    def test_erfcx_identity_two_parameter(self):
        # E_{1/2,1/2}(-x) = 1/sqrt(pi) - x erfcx(x)
        for i in range(161):
            x = 16.0 * i / 160.0
            v = mittag_leffler(MLQuery(0.5, 0.5, -x))
            ref = 1.0 / SQRT_PI - x * float(sps.erfcx(x))
            assert v == pytest.approx(ref, abs=3e-11)

    def test_cos_cosh_family(self):
        assert mittag_leffler(MLQuery(2.0, 1.0, -4.0)) == pytest.approx(
            math.cos(2.0), rel=1e-13
        )
        assert mittag_leffler(MLQuery(2.0, 1.0, 4.0)) == pytest.approx(
            math.cosh(2.0), rel=1e-13
        )
        assert mittag_leffler(MLQuery(2.0, 2.0, -4.0)) == pytest.approx(
            math.sin(2.0) / 2.0, rel=1e-13
        )

    def test_against_series_reference(self):
        grid = [
            (0.3, 1.0, -2.5),
            (0.3, 0.3, -4.0),
            (0.5, 1.3, -7.0),
            (0.75, 1.0, -12.0),
            (0.9, 0.9, -20.0),
            (0.95, 0.95, -9.0),
            (1.05, 1.0, -30.0),
            (1.5, 0.35, -42.0),
            (1.8, 2.6, -50.0),
            (2.0, 0.35, -30.0),
            (0.5, 1.0, 3.0),
            (1.5, 1.0, 20.0),
            (0.25, 1.0, 0.5),
        ]
        for alpha, beta, z in grid:
            ref = ml_reference(alpha, beta, z)
            assert ref is not None
            v = mittag_leffler(MLQuery(alpha, beta, z))
            assert v == pytest.approx(ref, abs=2e-11, rel=2e-11), (alpha, beta, z)

    def test_deep_negative_asymptotic(self):
        # far past the series horizon; leading term -1/(z Gamma(beta-alpha))
        v = mittag_leffler(MLQuery(0.5, 1.0, -400.0))
        lead = 1.0 / (400.0 * SQRT_PI)  # rgamma(0.5)/400
        assert v == pytest.approx(float(sps.erfcx(400.0)), rel=1e-10)
        assert abs(v - lead) < 2e-2 * lead

    def test_positive_monotone_nonincreasing(self):
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            prev = None
            for i in range(240):
                x = 10.0 ** (-2.0 + 6.0 * i / 239.0)
                v = mittag_leffler(MLQuery(alpha, 1.0, -x))
                assert v > 0.0
                if prev is not None:
                    assert v <= prev * (1.0 + 1e-12)
                prev = v

    def test_error_estimates_honest_scale(self):
        for alpha, beta, z in ((0.5, 1.0, -4.5), (0.9, 1.0, -15.0), (0.3, 1.0, -4.0)):
            v, est = mittag_leffler_with_error(MLQuery(alpha, beta, z))
            ref = ml_reference(alpha, beta, z)
            assert ref is not None
            assert abs(v - ref) <= max(est * 20.0, 5e-15)

    def test_positive_overflow_saturates(self):
        v, est = mittag_leffler_with_error(MLQuery(0.3, 1.0, 50.0))
        assert math.isinf(v) and math.isinf(est)

    def test_large_positive_exponential_regime(self):
        # w = 16^2 = 256 is past the Taylor gate: one exponential term
        # plus the algebraic tail answers
        v = mittag_leffler(MLQuery(0.5, 1.0, 16.0))
        # E_{1/2}(x) = e^{x^2} erfc(-x) -> 2 e^{x^2} - erfcx(x)
        ref = 2.0 * math.exp(256.0) - float(sps.erfcx(16.0))
        assert v == pytest.approx(ref, rel=1e-10)

    @given(
        st.floats(min_value=0.1, max_value=0.95),
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=-8.0, max_value=2.0),
    )
    def test_matches_reference_where_feasible(self, alpha, beta, z):
        ref = ml_reference(alpha, beta, z)
        if ref is None:
            return
        v = mittag_leffler(MLQuery(alpha, beta, z))
        assert v == pytest.approx(ref, abs=5e-11, rel=5e-11)

    def test_series_estimate_counts_inherited_rounding(self):
        # the largest terms here are ~4e3 and their Gamma arguments carry
        # rounding, so the sum is off by ~1e-10 and must say so
        alpha, beta, z = 0.29569305354579534, 1.0812398671252064, -2.0
        v, est, converged = _ml_series(alpha, beta, z)
        assert converged
        assert abs(v - ml_reference(alpha, beta, z)) <= est

    def test_series_fallthrough_regression(self):
        # the series sum is 1.6e-10 off here; once its estimate says so,
        # the cut integral answers instead
        alpha, beta, z = 0.29569305354579534, 1.0812398671252064, -2.0
        v = mittag_leffler(MLQuery(alpha, beta, z))
        assert v == pytest.approx(ml_reference(alpha, beta, z), abs=5e-11, rel=5e-11)


# z < 0 points of the dispatch grid (alpha in linspace(0.1, 0.95, 10),
# beta in {alpha, 1, 2}, z in steps of 2.5) whose asymptotic sum missed
# its estimate when the estimate was the smallest kept envelope term;
# the error there is truncation, up to 4x that term near alpha = 1
_ASYMPTOTIC_MISSES = [
    (0.7611111111111111, 0.7611111111111111, -15.0),
    (0.7611111111111111, 2.0, -12.5),
    (0.8555555555555555, 1.0, -20.0),
    (0.8555555555555555, 2.0, -17.5),
    (0.95, 0.95, -35.0),
    (0.95, 0.95, -32.5),
    (0.95, 0.95, -30.0),
    (0.95, 1.0, -32.5),
    (0.95, 1.0, -30.0),
    (0.95, 1.0, -27.5),
    (0.95, 2.0, -27.5),
    (0.95, 2.0, -25.0),
]


class TestAsymptoticEstimate:
    @pytest.mark.parametrize("alpha,beta,z", _ASYMPTOTIC_MISSES)
    def test_estimate_bounds_error(self, alpha, beta, z):
        ref = ml_reference(alpha, beta, z)
        v, est = _ml_asymptotic(alpha, beta, z)
        assert abs(v - ref) <= est
        # and whichever branch answers, its estimate holds too
        v, est = mittag_leffler_with_error(MLQuery(alpha, beta, z))
        assert abs(v - ref) <= est

    def test_estimate_keeps_the_asymptotic_branch_tight(self):
        # where alpha <= 1/2 the remainder needs no sine factor; the
        # estimate stays near the last term and the branch still answers
        v, est = _ml_asymptotic(0.5, 1.0, -400.0)
        assert est <= 1e-12 * abs(v)


def _alpha_above_one_grid():
    # (alpha, beta, z) at z = w^alpha; w > 77.5 is past the Taylor gate
    for alpha in (1.001, 1.01, 1.05, 1.2, 1.5, 1.9):
        for beta in (0.5, 1.0, alpha, 2.0):
            for w in (60.0, 150.0, 300.0, 600.0):
                yield alpha, beta, w**alpha


class TestPositiveExponential:
    """z > 0 past the Taylor series: the lead exp(w) w^(1-beta) / alpha
    with w = z^(1/alpha), plus the algebraic tail of the z < 0 expansion."""

    def test_regression_alpha_just_above_one(self):
        # a second exponential term from the pole at angle 2 pi / alpha
        # once put this value 58 % high; for alpha < 2 that pole is off
        # the principal sheet
        v = mittag_leffler(MLQuery(1.01, 1.0, 639.6))
        assert v == pytest.approx(ml_reference(1.01, 1.0, 639.6), rel=1e-12)

    def test_alpha_above_one_grid(self):
        for alpha, beta, z in _alpha_above_one_grid():
            v = mittag_leffler(MLQuery(alpha, beta, z))
            assert v == pytest.approx(ml_reference(alpha, beta, z), rel=1e-12), (
                alpha, beta, z,
            )

    def test_past_the_taylor_gate_the_exponential_rung_answers(self, monkeypatch):
        # past w = 77.5 z^n overflows before the Taylor sum converges, so
        # the series is not tried there
        def no_series(*args, **kwargs):
            raise AssertionError("Taylor series tried past its gate")

        pts = [
            (alpha, beta, w**alpha)
            for alpha in (0.1, 0.3, 0.7611111111111111, 1.5, 1.99)
            for beta in (0.5, 1.0, alpha, 2.0)
            for w in (78.0, 80.6, 100.0, 129.0)
        ]
        refs = [ml_reference(*p) for p in pts]
        monkeypatch.setattr(specfun, "_ml_series", no_series)
        for (alpha, beta, z), ref in zip(pts, refs):
            v = mittag_leffler(MLQuery(alpha, beta, z))
            assert v == pytest.approx(ref, rel=1e-12), (alpha, beta, z)

    def test_below_the_taylor_gate_the_series_answers(self, monkeypatch):
        converged = []

        def spy(*args, **kwargs):
            out = _ml_series(*args, **kwargs)
            converged.append(out[2])
            return out

        monkeypatch.setattr(specfun, "_ml_series", spy)
        for alpha in (0.1, 0.5, 1.01, 1.5, 1.99):
            for beta in (0.01, 1.0, 3.0):
                converged.clear()
                mittag_leffler(MLQuery(alpha, beta, 77.0**alpha))
                assert converged == [True], (alpha, beta)

    def test_estimate_bounds_error(self):
        # every point past the Taylor gate, the former log-series window
        # w in (130, 500] at small alpha among them, and (0.194, 0.194,
        # 2.5) at w = 111, where z^n overflows before the series converges
        pts = [(a, b, z) for a, b, z in _alpha_above_one_grid() if z ** (1 / a) > 77.5]
        for alpha in (0.3833333333333333, 0.7):
            for beta in (alpha, 1.0, 2.0):
                pts += [(alpha, beta, w**alpha) for w in (140.0, 300.0, 480.0)]
        a1, a2 = 0.19444444444444445, 0.3833333333333333
        pts += [(a1, a1, 2.5), (a2, a2, 10.0)]
        for alpha, beta, z in pts:
            v, est = mittag_leffler_with_error(MLQuery(alpha, beta, z))
            assert abs(v - ml_reference(alpha, beta, z)) <= est, (alpha, beta, z)


def _cut_density_reference(alpha, beta, x):
    """mpmath quadrature of the branch-cut density integral for E(-x).

    r = v^k with k = 2/(1+alpha-beta) turns the r^(alpha-beta) endpoint
    power into a smooth one, and the pieces split at the density peak
    r = x^(1/alpha).
    """
    with mpmath.workdps(20):
        a, b, x = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(x)
        sb, sab, ca = mpmath.sinpi(b), mpmath.sinpi(a - b), mpmath.cospi(a)

        def f(r):
            den = r ** (2 * a) + 2 * x * r**a * ca + x**2
            return mpmath.exp(-r) * r ** (a - b) * (r**a * sb - x * sab) / den

        k = 2 / (1 + a - b)
        peak = x ** (1 / a)
        head_pts = [0, peak ** (1 / k), 1] if peak < 1 else [0, 1]
        head = mpmath.quad(lambda v: f(v**k) * k * v ** (k - 1), head_pts)
        tail_pts = [1, peak, mpmath.inf] if 1 < peak < 200 else [1, mpmath.inf]
        return float((head + mpmath.quad(f, tail_pts)) / mpmath.pi)


class TestCutIntegral:
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 1.5])
    @pytest.mark.parametrize("same_beta", [True, False], ids=["beta=alpha", "beta=1"])
    def test_against_mpmath(self, alpha, same_beta):
        beta = alpha if same_beta else 1.0
        for x in (0.5, 2.0, 8.0, 20.0):
            v, est = _ml_cut_integral(alpha, beta, x)
            ref = _cut_density_reference(alpha, beta, x)
            if alpha > 1.0:
                # the residue pair is added by the caller on both sides
                pair = _ml_exp_pair(alpha, beta, x)
                v, ref = v + pair, ref + pair
            assert abs(v - ref) <= 1e-12 * abs(ref), (x, v, ref)
            assert abs(v - ref) <= est, (x, v, ref, est)

    @pytest.mark.parametrize("beta", [0.5, 1.5, 3.0, 7.0])
    def test_kummer_against_mpmath(self, beta):
        # E_{1,beta}(z) = 1F1(1; beta; z) / Gamma(beta)
        for z in (-0.5, -3.0, -20.0):
            v, est = _ml_kummer_neg(beta, z)
            with mpmath.workdps(30):
                ref = float(mpmath.hyp1f1(1, beta, z) / mpmath.gamma(beta))
            assert abs(v - ref) <= 1e-12 * abs(ref), (z, v, ref)
            assert abs(v - ref) <= est, (z, v, ref, est)


class TestPanelQuadrature:
    def test_smooth(self):
        v, ok = _panel_quad(np.sin, 0.0, math.pi, 1e-13)
        assert ok and v == pytest.approx(2.0, rel=1e-12)

    def test_reports_failure(self):
        # interior algebraic singularity starves the panel budget
        f = lambda x: np.abs(x - 1.0 / 3.0) ** -0.9
        v, ok = _panel_quad(f, 0.0, 1.0, 1e-14, max_panels=64)
        assert not ok

    def test_narrow_peak_closes_at_roundoff(self):
        # the peak's panels carry ~1e7 of mass, so their estimates sit at
        # roundoff far above the absolute tol; a width-proportional share
        # alone bisects them until the budget runs out
        eps = 1e-7
        v, ok = _panel_quad(lambda x: 1.0 / (x**2 + eps**2), 0.0, 1.0, 1e-14, 200)
        assert ok and v == pytest.approx(math.atan(1.0 / eps) / eps, rel=1e-13)

    def test_accuracy_loss_error_carries_estimate(self):
        err = AccuracyLossError("no strategy converged", 3e-7)
        assert err.estimate == 3e-7

    def test_rows_agree_with_one_row_calls(self):
        # smooth, oscillating, narrow-peaked and budget-starved rows side
        # by side: each row runs its own bisection, budget and ok
        def f(rows, x):
            k = np.array([1.0, 7.0, 0.0, 0.0])[rows, None]
            peak = np.array([1.0, 1.0, 1e-7, 1.0])[rows, None]
            sing = np.array([0.0, 0.0, 0.0, 1.0])[rows, None]
            smooth = np.exp(-k * x) * np.cos(3.0 * k * x)
            narrow = 1.0 / (x**2 + peak**2)
            return np.where(sing > 0.0, np.abs(x - 1.0 / 3.0) ** -0.9, smooth + narrow)

        a = np.array([0.0, -1.0, 0.0, 0.0])
        b = np.array([2.0, 3.5, 1.0, 1.0])
        vals, ok = _panel_quad_rows(f, a, b, 1e-13, max_panels=200)
        assert ok.tolist() == [True, True, True, False]
        for i in range(a.size):
            v, one_ok = _panel_quad(
                lambda x: f(np.full(x.shape[0], i), x), a[i], b[i], 1e-13, 200
            )
            assert one_ok == ok[i]
            assert abs(vals[i] - v) <= 1e-15 * abs(v), i


def _dispatch_grid():
    # the mpmath dispatch grid: alpha in linspace(0.1, 0.95, 10), beta in
    # {alpha, 1, 2}, z in steps of 2.5 over [-50, 50]
    z = np.linspace(-50.0, 50.0, 41)
    for alpha in np.linspace(0.1, 0.95, 10):
        for beta in (alpha, 1.0, 2.0):
            yield float(alpha), float(beta), z


def _many_with_cut_lanes(monkeypatch, alpha, beta, z):
    # _ml_many at z, and the z its batched cut integral answered
    cut = []

    def spy(alpha, beta, x):
        cut.extend((-np.atleast_1d(x)).tolist())
        return _ml_cut_integral(alpha, beta, x)

    with monkeypatch.context() as m:
        m.setattr(specfun, "_ml_cut_integral", spy)
        values, estimates = _ml_many(alpha, beta, z)
    return values, estimates, set(cut)


class TestMittagLefflerMany:
    """`_ml_many` runs `_ml`'s ladder over arrays; `_ml` is its oracle."""

    def test_matches_scalar_on_dispatch_grid(self, monkeypatch):
        # series and asymptotic lanes do the scalar float operations in
        # the scalar order, so they agree bit for bit; the cut lanes'
        # panels are summed in batches and may move by a rounding
        lanes = {"cut": 0, "bitwise": 0}
        for alpha, beta, z in _dispatch_grid():
            values, estimates, cut = _many_with_cut_lanes(monkeypatch, alpha, beta, z)
            for zi, v, e in zip(z.tolist(), values, estimates):
                ref, ref_est = _ml(alpha, beta, zi)
                if zi in cut:
                    lanes["cut"] += 1
                    assert abs(v - ref) <= 1e-15 * (1.0 + abs(ref)), (alpha, beta, zi)
                else:
                    lanes["bitwise"] += 1
                    assert v == ref, (alpha, beta, zi)
                assert e == pytest.approx(ref_est, rel=1e-13), (alpha, beta, zi)
        assert lanes["cut"] >= 50 and lanes["bitwise"] >= 1000

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_lanes_past_the_double_range_of_z_to_the_one_over_alpha(self, alpha):
        z = np.array([-1e300, -1e280, 1e300, -(10.0 ** (math.ceil(alpha * 308.3)))])
        values, estimates = _ml_many(alpha, 1.0, z)
        # values bit for bit; the envelope's exp is numpy's in the lanes
        for zi, v, e in zip(z.tolist(), values, estimates):
            ref, ref_est = _ml(alpha, 1.0, zi)
            assert v == ref and e == pytest.approx(ref_est, rel=1e-13), zi
        assert values[2] == math.inf and np.all(values[z < 0] > 0.0)

    def test_every_lane_kind_runs_on_the_grid(self, monkeypatch):
        seen = {"_ml_series_lanes": 0, "_ml_asymptotic_lanes": 0, "_ml_cut_integral": 0}

        def counting(name):
            inner = getattr(specfun, name)

            def wrapped(*args):
                seen[name] += np.asarray(args[2]).size
                return inner(*args)

            return wrapped

        for name in seen:
            monkeypatch.setattr(specfun, name, counting(name))
        # the grid's z < 0 steps of 2.5 leave few series lanes, so small
        # negative z are added
        small = np.linspace(-2.25, -0.25, 9)
        for alpha, beta, z in _dispatch_grid():
            _ml_many(alpha, beta, np.concatenate([z, small]))
        assert min(seen.values()) >= 50, seen

    def test_estimates_bound_the_error(self):
        # every grid point whose mpmath reference needs at most 100 Taylor
        # terms: all three lane kinds are among them
        checked = 0
        for alpha, beta, z in _dispatch_grid():
            values, estimates = _ml_many(alpha, beta, z)
            for zi, v, e in zip(z.tolist(), values, estimates):
                ref = ml_reference(alpha, beta, zi, feasible_n=100)
                if ref is None or not math.isfinite(ref):
                    continue
                checked += 1
                assert abs(v - ref) <= e, (alpha, beta, zi, v, ref, e)
        assert checked >= 400

    def test_edge_inputs(self):
        values, estimates = _ml_many(0.5, 1.0, np.array([]))
        assert values.shape == estimates.shape == (0,)
        # z = 0 (both signs) and mixed signs in one array
        z = np.array([0.0, -0.0, 3.0, -1.0, -40.0, 0.25, -7.5, 100.0])
        values, estimates = _ml_many(0.5, 1.0, z)
        assert values[0] == values[1] == 1.0 and estimates[0] == EPS
        for zi, v in zip(z.tolist(), values):
            assert v == _ml(0.5, 1.0, zi)[0], zi

    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (1.0, 0.5), (1.5, 1.0), (2.0, 2.0)])
    def test_alpha_one_and_above_go_through_the_scalar_ladder(self, alpha, beta):
        z = np.linspace(-30.0, 30.0, 13)
        values, estimates = _ml_many(alpha, beta, z)
        for zi, v, e in zip(z.tolist(), values, estimates):
            assert (v, e) == _ml(alpha, beta, zi), zi

    def test_accuracy_loss_where_the_scalar_raises(self, monkeypatch):
        # a cut integral whose panels run out of budget misses the target
        # in both paths, with the same message and estimate
        def starved(f, a, b, tol, max_panels=2000):
            return np.zeros(np.size(a)), np.zeros(np.size(a), dtype=bool)

        alpha, z = 0.7611111111111111, -10.0
        monkeypatch.setattr(specfun, "_panel_quad_rows", starved)
        with pytest.raises(AccuracyLossError) as scalar:
            _ml(alpha, alpha, z)
        with pytest.raises(AccuracyLossError) as many:
            _ml_many(alpha, alpha, np.array([-1.0, z, 2.0]))
        assert str(many.value) == str(scalar.value)
        assert many.value.estimate == scalar.value.estimate


class TestResolvent:
    def test_query_validation(self):
        with pytest.raises(ValueError):
            ResolventQuery(lam=0.0, gamma=0.5, t=1.0)
        with pytest.raises(ValueError):
            ResolventQuery(lam=1.0, gamma=1.0, t=1.0)
        with pytest.raises(ValueError):
            ResolventQuery(lam=1.0, gamma=0.5, t=0.0)

    def test_closed_form_gamma_half(self):
        # r_1(t) = t^{-1/2} - pi erfcx(sqrt(pi t)) for gamma = 1/2
        for t in (1e-4, 0.02, 0.5, 1.0, 7.0, 300.0):
            got = resolvent(ResolventQuery(lam=1.0, gamma=0.5, t=t))
            ref = t**-0.5 - math.pi * float(sps.erfcx(math.sqrt(math.pi * t)))
            assert got == pytest.approx(ref, rel=2e-10, abs=1e-12)

    def test_positive(self):
        for gamma in (0.2, 0.5, 0.8):
            for lam in (0.1, 1.0, 25.0):
                for t in (1e-6, 1e-2, 1.0, 1e3):
                    assert resolvent(ResolventQuery(lam, gamma, t)) > 0.0

    def test_small_time_leading_order(self):
        # r_lam(t) ~ lam t^{gamma-1} as t -> 0 since E_{g,g}(0) = 1/Gamma(g)
        for gamma in (0.3, 0.5, 0.8):
            t = 1e-30
            got = resolvent(ResolventQuery(2.0, gamma, t))
            assert got == pytest.approx(2.0 * t ** (gamma - 1.0), rel=1e-6)
