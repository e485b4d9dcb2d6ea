"""Tests for the fractional Adams marcher and the singular-event detectors.

Reference values:
  rhs = -1:  u(t) = u0 - t^gamma / Gamma(1+gamma), exact for the
  product-trapezoid corrector on any mesh (piecewise-linear data).
  rhs = A*u: u(t) = u0 * E_gamma(A t^gamma).
  E_{1/2}(-1) = exp(1) erfc(1) = 0.42758357615581 (13 digits).
  Blow-up of D^{1/2} u = u^2, u0 = 1: strength constant
  1/sqrt(pi) = 0.5641895835477563, gap exponent 1/2.
  Extinction bound of D^{1/2} u = -1/u, u0 = 1:
  (Gamma(3/2))^2 = pi/4 = 0.7853981633974483.
"""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from fracode.expressions import EvalError, evaluate, parse
from fracode.fracops import Mesh
from fracode.solver import (
    FracProblem,
    NonBlowupError,
    PathStatus,
    SolverOptions,
    detect_blowup,
    detect_extinction,
    solve,
)
from fracode.specfun import MLQuery, mittag_leffler

E_HALF_AT_MINUS_1 = 0.42758357615581
INV_SQRT_PI = 0.5641895835477563
PI_OVER_4 = 0.7853981633974483


def ml_linear(gamma: float, A: float, t: np.ndarray) -> np.ndarray:
    return np.array([mittag_leffler(MLQuery(alpha=gamma, z=A * s**gamma)) for s in t])


class TestFracProblem:
    def test_power_law_tagging_from_text(self):
        prob = FracProblem.from_rhs(0.5, "2*u^0.5", 1.0, 1.0)
        assert prob.is_power_law
        assert prob.A == 2.0 and prob.p == 0.5

    def test_division_shape_tags_negative_power(self):
        prob = FracProblem.from_rhs(0.5, "-1/u", 1.0, 1.0)
        assert (prob.A, prob.p) == (-1.0, -1.0)

    def test_general_expression_stays_untagged(self):
        prob = FracProblem.from_rhs(0.5, "sin(u)", 1.0, 1.0)
        assert not prob.is_power_law
        assert prob.f(0.0, 2.0) == math.sin(2.0)

    def test_accepts_parsed_tree(self):
        prob = FracProblem.from_rhs(0.5, parse("u - t"), 1.0, 1.0)
        assert prob.f(0.25, 2.0) == 1.75

    def test_power_law_evaluation(self):
        prob = FracProblem.power_law(0.5, -2.0, 3.0, 1.0, 1.0)
        assert prob.f(0.0, 2.0) == -16.0

    def test_fractional_power_off_domain_raises(self):
        prob = FracProblem.power_law(0.5, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(EvalError):
            prob.f(0.0, -1.0)

    @pytest.mark.parametrize("gamma", [0.0, 1.0, -0.2, 1.5, math.nan])
    def test_rejects_gamma_outside_unit_interval(self, gamma):
        with pytest.raises(ValueError):
            FracProblem.power_law(gamma, 1.0, 2.0, 1.0, 1.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            FracProblem.power_law(0.5, 1.0, 2.0, 1.0, math.inf)

    def test_rejects_missing_rhs(self):
        with pytest.raises(ValueError, match="rhs"):
            FracProblem(0.5, 1.0, 1.0)

    def test_rejects_fractional_power_from_nonpositive_start(self):
        with pytest.raises(ValueError, match="u0 > 0"):
            FracProblem.power_law(0.5, 1.0, 0.5, 0.0, 1.0)

    def test_integer_power_allows_any_start(self):
        prob = FracProblem.power_law(0.5, 1.0, 2.0, -1.0, 1.0)
        assert prob.f(0.0, -3.0) == 9.0

    def test_compiled_rhs_matches_tree_walker(self):
        prob = FracProblem.from_rhs(0.5, "min(sin(t*u) - u^3, 2) / (1 + t)", 1.0, 1.0)
        for t, u in [(0.0, 1.0), (0.3, -2.5), (0.9, 0.0)]:
            assert prob.f(t, u) == evaluate(prob.rhs, t, u)
        assert "rhs=" in repr(prob) and "_rhs_fn" not in repr(prob)

    @pytest.mark.parametrize(
        "copy_of",
        [
            lambda p: pickle.loads(pickle.dumps(p)),
            copy.deepcopy,
            copy.copy,
            dataclasses.replace,
        ],
        ids=["pickle", "deepcopy", "copy", "replace"],
    )
    @pytest.mark.parametrize("rhs", ["sin(t) - u^3", "2*u^0.5"])
    def test_copies_compare_hash_and_evaluate_equal(self, copy_of, rhs):
        prob = FracProblem.from_rhs(0.5, rhs, 1.0, 1.0)
        twin = copy_of(prob)
        assert twin == prob
        assert hash(twin) == hash(prob)
        assert twin.f(0.25, 2.0) == prob.f(0.25, 2.0)
        # a replaced start keeps evaluating through its own compiled rhs
        moved = dataclasses.replace(twin, u0=2.0)
        assert moved != prob
        assert moved.f(0.25, 2.0) == prob.f(0.25, 2.0)


class TestSolveExact:
    def test_zero_rhs_is_constant_bitwise(self):
        prob = FracProblem.from_rhs(0.5, "0", 3.0, 1.0)
        path = solve(prob, Mesh.uniform(1.0, 64))
        assert path.status is PathStatus.COMPLETED
        assert np.all(path.values == 3.0)
        # a zero rhs converges in a single sweep per step
        assert path.corrector_iterations == 64

    def test_constant_rhs_reproduces_power_kernel(self):
        # product-trapezoid weights are exact on constant data
        prob = FracProblem.from_rhs(0.5, "-1", 1.0, 1.0)
        mesh = Mesh.uniform(1.0, 1024)
        path = solve(prob, mesh)
        exact = 1.0 - mesh.nodes**0.5 / math.gamma(1.5)
        assert np.abs(path.values - exact).max() < 1e-12
        assert abs(path.values[256] - 0.4358104164522437) < 1e-12

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_constant_rhs_exact_on_graded_meshes(self, gamma):
        prob = FracProblem.from_rhs(gamma, "-1", 1.0, 1.0)
        mesh = Mesh.graded(1.0, 512, 2.0 / gamma)
        path = solve(prob, mesh)
        exact = 1.0 - mesh.nodes**gamma / math.gamma(1.0 + gamma)
        assert np.abs(path.values - exact).max() < 1e-12

    def test_linear_decay_on_uniform_mesh(self):
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0)
        mesh = Mesh.uniform(1.0, 4096)
        path = solve(prob, mesh)
        assert abs(path.values[-1] - E_HALF_AT_MINUS_1) < 1e-4
        err = np.abs(path.values - ml_linear(0.5, -1.0, mesh.nodes))
        assert err.max() < 1e-4

    def test_linear_decay_on_graded_mesh(self):
        # grading 2/gamma restores second order through the t^gamma cusp
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0)
        mesh = Mesh.graded(1.0, 2048, 4.0)
        path = solve(prob, mesh)
        err = np.abs(path.values - ml_linear(0.5, -1.0, mesh.nodes))
        assert err.max() < 5e-7

    def test_tagged_and_untagged_constant_agree_bitwise(self):
        tagged = FracProblem.power_law(0.5, 1.0, 0.0, 1.0, 1.0)
        untagged = FracProblem.from_rhs(0.5, "1", 1.0, 1.0)
        assert tagged.is_power_law and not untagged.is_power_law
        mesh = Mesh.uniform(1.0, 128)
        assert np.array_equal(solve(tagged, mesh).values, solve(untagged, mesh).values)


class TestSolveProperties:
    def test_deterministic_rerun_is_bitwise_equal(self):
        prob = FracProblem.from_rhs(0.5, "sin(t) - u", 1.0, 2.0)
        mesh = Mesh.graded(2.0, 512, 4.0)
        a = solve(prob, mesh).values
        b = solve(prob, mesh).values
        assert np.array_equal(a, b)

    def test_sublinear_growth_is_monotone(self):
        prob = FracProblem.power_law(0.5, 1.0, 0.5, 1.0, 10.0)
        path = solve(prob, Mesh.graded(10.0, 512, 4.0))
        assert np.all(np.diff(path.values) > 0.0)

    def test_linear_decay_is_monotone_and_positive(self):
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 10.0)
        path = solve(prob, Mesh.graded(10.0, 512, 4.0))
        assert np.all(np.diff(path.values) < 0.0)
        assert np.all(path.values > 0.0)

    def test_self_convergence_under_halving(self):
        prob = FracProblem.from_rhs(0.5, "sin(t) - u", 1.0, 2.0)
        sols = {n: solve(prob, Mesh.uniform(2.0, n)).values for n in (512, 1024, 2048)}
        # uniform meshes nest: coarse node i sits at fine node 2i
        d1 = np.abs(sols[512] - sols[1024][::2]).max()
        d2 = np.abs(sols[1024] - sols[2048][::2]).max()
        assert d2 < d1 / 1.5

    def test_convergence_order_on_graded_mesh(self):
        # measured orders sit near 2 for gamma = 1/2; require a safe floor
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0)
        errs = []
        for n in (256, 512, 1024):
            mesh = Mesh.graded(1.0, n, 4.0)
            path = solve(prob, mesh)
            errs.append(np.abs(path.values - ml_linear(0.5, -1.0, mesh.nodes)).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) > 1.3

    def test_far_field_steps_survive_large_cells(self):
        # on a six-decade geometric mesh the contraction factor of the
        # corrector exceeds 1 far out; the bracketed fallback must keep
        # marching where plain iteration diverges
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1000.0)
        mesh = Mesh.geometric(1000.0, 256, 1e-3)
        path = solve(prob, mesh)
        assert path.status is PathStatus.COMPLETED
        ref = ml_linear(0.5, -1.0, mesh.nodes[1:])
        rel = np.abs(path.values[1:] - ref) / ref
        assert rel.max() < 0.10
        assert rel[-1] < 0.01

    def test_values_are_write_protected(self):
        prob = FracProblem.from_rhs(0.5, "0", 1.0, 1.0)
        path = solve(prob, Mesh.uniform(1.0, 8))
        with pytest.raises(ValueError):
            path.values[0] = 7.0

    def test_sampled_view_shares_mesh(self):
        prob = FracProblem.from_rhs(0.5, "0", 1.0, 1.0)
        path = solve(prob, Mesh.uniform(1.0, 8))
        fn = path.sampled()
        assert fn.mesh is path.mesh
        assert np.array_equal(fn.values, path.values)

    def test_single_sweep_is_allowed(self):
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0)
        mesh = Mesh.uniform(1.0, 512)
        path = solve(prob, mesh, SolverOptions(corrector_sweeps=1))
        err = np.abs(path.values - ml_linear(0.5, -1.0, mesh.nodes)).max()
        assert path.status is PathStatus.COMPLETED
        assert err < 1e-2

    def test_zero_sweeps_rejected(self):
        with pytest.raises(ValueError):
            SolverOptions(corrector_sweeps=0)


class TestTruncation:
    def test_superlinear_escape_reads_as_blowup(self):
        prob = FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0)
        path = solve(prob, Mesh.uniform(1.0, 256))
        assert path.status is PathStatus.BLOWUP_SUSPECTED
        assert path.mesh.nodes.size < 257
        assert np.all(np.isfinite(path.values))
        assert path.values[-1] > path.values[0]

    def test_vanishing_argument_reads_as_evaluation_failure(self):
        # log drives u to 0 in finite time; past the touch the rhs has
        # no evaluable corrector root
        prob = FracProblem.from_rhs(0.5, "log(u)", 0.5, 2.0)
        path = solve(prob, Mesh.uniform(2.0, 128))
        assert path.status is PathStatus.EVALUATION_FAILURE
        assert path.mesh.nodes.size < 129
        assert np.all(np.isfinite(path.values))

    def test_growing_log_completes(self):
        prob = FracProblem.from_rhs(0.5, "log(u)", 2.0, 2.0)
        path = solve(prob, Mesh.uniform(2.0, 128))
        assert path.status is PathStatus.COMPLETED
        assert np.all(np.diff(path.values) > 0.0)

    def test_positivity_guard_flags_extinction(self):
        prob = FracProblem.from_rhs(0.5, "-1", 0.5, 1.0)
        path = solve(prob, Mesh.uniform(1.0, 128), SolverOptions(positivity_guard=True))
        assert path.status is PathStatus.EXTINCTION_SUSPECTED
        assert np.all(path.values > 0.0)
        # crossing happens at (u0 Gamma(1+gamma))^(1/gamma)
        cross = (0.5 * math.gamma(1.5)) ** 2
        assert path.mesh.nodes[-1] <= cross
        assert path.mesh.nodes[-1] > cross - 3.0 / 128

    def test_unguarded_constant_drain_continues_negative(self):
        prob = FracProblem.from_rhs(0.5, "-1", 0.5, 1.0)
        path = solve(prob, Mesh.uniform(1.0, 128))
        assert path.status is PathStatus.COMPLETED
        assert path.values[-1] < 0.0


class TestDetectBlowup:
    def test_reference_case(self):
        prob = FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0)
        report = detect_blowup(prob)
        assert report.theory_exponent == 0.5
        assert abs(report.theory_constant - INV_SQRT_PI) < 1e-14
        assert abs(report.exponent_fit - 0.5) <= 0.015
        assert abs(report.constant_fit - INV_SQRT_PI) <= 0.10 * INV_SQRT_PI
        assert report.refinement_drift <= 0.01
        # the singular time sits just past the covered range
        assert report.Tb_estimate > report.path.mesh.nodes[-1]
        assert abs(report.Tb_estimate - 0.17629) < 0.002
        assert report.path.status is PathStatus.BLOWUP_SUSPECTED

    @pytest.mark.parametrize(
        "gamma,p",
        [(0.6, 1.5), (0.6, 3.0), (0.4, 3.0)],
    )
    def test_gap_exponent_across_orders(self, gamma, p):
        report = detect_blowup(FracProblem.power_law(gamma, 1.0, p, 1.0, 1.0))
        want = gamma / (p - 1.0)
        assert abs(report.exponent_fit - want) <= 0.03 * want
        assert (
            abs(report.constant_fit - report.theory_constant)
            <= 0.10 * report.theory_constant
        )

    def test_amplitude_scaling_of_the_constant(self):
        report = detect_blowup(FracProblem.power_law(0.5, 2.0, 2.0, 1.0, 1.0))
        # constant falls as 1/A at p = 2
        assert abs(report.constant_fit - INV_SQRT_PI / 2.0) < 0.05 * INV_SQRT_PI

    def test_tagged_expression_matches_explicit_coefficients(self):
        a = detect_blowup(FracProblem.from_rhs(0.5, "u^2", 1.0, 1.0))
        b = detect_blowup(FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0))
        assert a.Tb_estimate == b.Tb_estimate
        assert a.exponent_fit == b.exponent_fit

    def test_subcritical_amplitude_never_escapes(self):
        prob = FracProblem.power_law(0.5, 1e-6, 2.0, 1.0, 0.001)
        with pytest.raises(NonBlowupError):
            detect_blowup(prob)

    def test_rejects_problems_without_blowup_shape(self):
        with pytest.raises(ValueError):
            detect_blowup(FracProblem.power_law(0.5, -1.0, 2.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            detect_blowup(FracProblem.power_law(0.5, 1.0, 1.005, 1.0, 1.0))
        with pytest.raises(ValueError):
            detect_blowup(FracProblem.power_law(0.5, 1.0, 2.0, -1.0, 1.0))
        with pytest.raises(ValueError, match="power-law"):
            detect_blowup(FracProblem.from_rhs(0.5, "sin(u)", 1.0, 1.0))


class TestDetectExtinction:
    def test_reference_case(self):
        prob = FracProblem.power_law(0.5, -1.0, -1.0, 1.0, 1.0)
        report = detect_extinction(prob)
        assert abs(report.upper_bound_time - PI_OVER_4) < 1e-14
        assert 0.05 < report.touch_time < 0.12
        assert report.touch_time < report.upper_bound_time
        assert np.all(np.diff(report.path.values) < 0.0)
        assert report.path.status is PathStatus.EXTINCTION_SUSPECTED

    @pytest.mark.parametrize(
        "gamma,A,p,u0",
        [(0.7, -2.0, -0.5, 1.5), (0.4, -1.0, -4.0, 1.0)],
    )
    def test_touch_respects_the_frozen_rhs_bound(self, gamma, A, p, u0):
        report = detect_extinction(FracProblem.power_law(gamma, A, p, u0, 1.0))
        bound = (u0 ** (1.0 - p) * math.gamma(1.0 + gamma) / abs(A)) ** (1.0 / gamma)
        assert abs(report.upper_bound_time - bound) < 1e-12 * bound
        assert 0.0 < report.touch_time < bound
        assert np.all(np.diff(report.path.values) < 0.0)

    def test_rejects_problems_without_extinction_shape(self):
        with pytest.raises(ValueError):
            detect_extinction(FracProblem.power_law(0.5, 1.0, -1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            detect_extinction(FracProblem.power_law(0.5, -1.0, 2.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="power-law"):
            detect_extinction(FracProblem.from_rhs(0.5, "-sin(u)", 1.0, 1.0))
