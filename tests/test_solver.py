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

The Volterra history engine is checked against the list-based weights
in oracles.py to a rounding tolerance.
"""

import copy
import dataclasses
import math
import pickle
import time
import tracemalloc

import numpy as np
import pytest
from oracles import KERNEL_RTOL, list_history_weights

from fracode import fracops, solver
from fracode.asymptotics import blowup_constant_theory
from fracode.expressions import EvalError, evaluate, parse
from fracode.fracops import Mesh, default_grading
from fracode.solver import (
    FracProblem,
    NonBlowupError,
    PathStatus,
    SolverOptions,
    StepCollapseError,
    _History,
    detect_blowup,
    detect_extinction,
    solve,
)
from fracode.specfun import MLQuery, _ml_many, mittag_leffler

E_HALF_AT_MINUS_1 = 0.42758357615581
INV_SQRT_PI = 0.5641895835477563
PI_OVER_4 = 0.7853981633974483


def ml_linear(gamma: float, A: float, t: np.ndarray) -> np.ndarray:
    return np.array([mittag_leffler(MLQuery(alpha=gamma, z=A * s**gamma)) for s in t])


def secant_only(prob: FracProblem) -> FracProblem:
    """The same problem with the corrector's closed form switched off."""
    moved = prob._with_u0(prob.u0)
    object.__setattr__(moved, "_affine", None)
    return moved


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
        if not prob.is_power_law:
            # u^3 overflows, so the point falls back to evaluate
            for fn in (twin.f, prob.f):
                with pytest.raises(EvalError) as exc:
                    fn(0.25, 1e200)
                assert str(exc.value) == str(_eval_error(prob.rhs, 0.25, 1e200))
        # another start shares the compiled rhs instead of compiling
        moved = twin._with_u0(2.0)
        assert moved == dataclasses.replace(twin, u0=2.0) != prob
        assert moved.f(0.25, 2.0) == prob.f(0.25, 2.0)
        assert moved._rhs_fn is twin._rhs_fn and twin.u0 == 1.0

    def test_replace_compiles_the_new_rhs(self):
        prob = FracProblem.from_rhs(0.5, "sin(t) - u^3", 1.0, 1.0)
        assert dataclasses.replace(prob, rhs=parse("u")).f(0, 2) == 2
        with pytest.raises(ValueError):
            dataclasses.replace(prob, _rhs_fn=prob.f)

    def test_with_u0_checks_the_start(self):
        with pytest.raises(ValueError, match="finite"):
            FracProblem.from_rhs(0.5, "sin(t) - u^3", 1.0, 1.0)._with_u0(math.inf)
        with pytest.raises(ValueError, match="u0 > 0"):
            FracProblem.power_law(0.5, 1.0, 0.5, 1.0, 1.0)._with_u0(0.0)


def _eval_error(e, t, u) -> EvalError:
    with pytest.raises(EvalError) as exc:
        evaluate(e, t, u)
    return exc.value


class TestSolveExact:
    def test_untagged_rhs_is_evaluated_only_through_f(self, monkeypatch):
        # FracProblem.f is the one call path to the compiled rhs, which
        # perfbench times as solver.rhs: one evaluation for the start and
        # then corrector_iterations of them
        prob = FracProblem.from_rhs(0.5, "sin(t) - u^3", 1.0, 1.0)
        assert not prob.is_power_law
        calls = {"f": 0, "compiled": 0}
        compiled = prob._rhs_fn

        def counted(t, u):
            calls["compiled"] += 1
            return compiled(t, u)

        def spy(self, t, u):
            calls["f"] += 1
            return real_f(self, t, u)

        real_f = FracProblem.f
        object.__setattr__(prob, "_rhs_fn", counted)
        monkeypatch.setattr(FracProblem, "f", spy)
        path = solve(prob, Mesh.uniform(1.0, 64))
        assert path.status is PathStatus.COMPLETED
        assert calls["f"] == calls["compiled"] == path.corrector_iterations + 1

    def test_zero_rhs_is_constant_bitwise(self):
        prob = FracProblem.from_rhs(0.5, "0", 3.0, 1.0)
        path = solve(prob, Mesh.uniform(1.0, 64))
        assert path.status is PathStatus.COMPLETED
        assert np.all(path.values == 3.0)
        # the predictor solves a zero rhs's corrector: one evaluation per step
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

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_second_order_on_default_graded_mesh(self, gamma):
        # measured orders from N = 1024 to 2048: 1.97, 2.00, 2.00; the
        # Mittag-Leffler reference (~1e-11) sits far below errors ~1e-8
        prob = FracProblem.power_law(gamma, -1.0, 1.0, 1.0, 1.0)
        errs = []
        for n in (1024, 2048):
            mesh = Mesh.graded(1.0, n, default_grading(gamma))
            path = solve(prob, mesh)
            errs.append(np.abs(path.values - ml_linear(gamma, -1.0, mesh.nodes)).max())
        assert math.log2(errs[0] / errs[1]) >= 1.9

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
        # measured orders over n = 256 -> 512 -> 1024 on the default
        # grading: 1.926, 1.938 (gamma 0.2); 1.990, 1.993; 2.000, 2.000
        for gamma in (0.2, 0.5, 0.9):
            prob = FracProblem.power_law(gamma, -1.0, 1.0, 1.0, 1.0)
            errs = []
            for n in (256, 512, 1024):
                mesh = Mesh.graded(1.0, n, default_grading(gamma))
                path = solve(prob, mesh)
                errs.append(np.abs(path.values - ml_linear(gamma, -1.0, mesh.nodes)).max())
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
            assert min(orders) > 1.9, (gamma, orders)

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

    def test_corrector_takes_few_evaluations_per_step(self):
        # secant steps to roundoff take about 3 rhs evaluations per step
        # here, the accepted one included (the closed form, off here,
        # takes one)
        prob = secant_only(FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0))
        path = solve(prob, Mesh.graded(1.0, 4096, 4.0))
        assert path.status is PathStatus.COMPLETED
        assert path.corrector_iterations <= 4 * 4096


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

    def test_decay_at_long_horizons_keeps_the_positive_root(self):
        # past t ~ 4e5 the corrector's quadratic has two roots and the
        # first bracket holds both; bracketing on u > 0, where the
        # comparison principle keeps the path, picks the right one.
        # Where w |f'| nears 1 only a converged corrector keeps the
        # decay monotone
        prob = FracProblem.power_law(0.5, -1.0, 2.0, 1.0, 1e6)
        path = solve(prob, Mesh.geometric(1e6, 8192, 1e-3))
        assert path.status is PathStatus.COMPLETED
        assert path.values.size == 8193
        assert np.all(path.values > 0.0)
        assert np.all(np.diff(path.values) <= 0.0)


class TestAffineClosedForm:
    """Right-hand sides a(t) u + b(t): the corrector's root in closed form."""

    def test_detected_once_per_problem_and_shared(self):
        for prob in (
            FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0),
            FracProblem.power_law(0.5, 2.0, 0.0, 1.0, 1.0),
            FracProblem.from_rhs(0.5, "sin(t)*u + 2", 1.0, 1.0),
        ):
            assert prob._affine is not None
            assert prob._with_u0(3.0)._affine is prob._affine
            assert pickle.loads(pickle.dumps(prob))._affine is not None
        for prob in (
            FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0),
            FracProblem.from_rhs(0.5, "sin(u) + t", 1.0, 1.0),
        ):
            assert prob._affine is None

    def test_one_evaluation_per_step(self):
        n = 512
        path = solve(FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0), Mesh.graded(1.0, n, 4.0))
        assert path.status is PathStatus.COMPLETED
        assert path.corrector_iterations == n

    def test_matches_the_secant_on_the_long_decay(self):
        # n = 4096 takes the far modes as well; the closed form and the
        # secant's roundoff stop differ in the last bits only
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0)
        mesh = Mesh.graded(1.0, 4096, default_grading(0.5))
        closed = solve(prob, mesh)
        secant = solve(secant_only(prob), mesh)
        assert closed.status is secant.status is PathStatus.COMPLETED
        assert secant.corrector_iterations > 2 * closed.corrector_iterations
        rel = np.abs(closed.values - secant.values) / np.abs(secant.values)
        assert rel.max() <= 1e-14

    @pytest.mark.parametrize("tree", ["(-1*u) + (0)", "-(u) + 0*t", "0 - u"])
    def test_tagged_and_tree_forms_agree_bitwise(self, tree):
        # "-1*u" is tagged as the power law (-1, 1); the trees are not,
        # and match_affine gives them the same a = -1 and b = 0
        mesh = Mesh.graded(1.0, 256, 4.0)
        tagged = FracProblem.from_rhs(0.5, "-1*u", 1.0, 1.0)
        untagged = FracProblem.from_rhs(0.5, tree, 1.0, 1.0)
        assert tagged.is_power_law and not untagged.is_power_law
        assert np.array_equal(solve(tagged, mesh).values, solve(untagged, mesh).values)

    @pytest.mark.parametrize("rhs", ["100*u", "100*u + t"])
    def test_stiff_positive_slope_takes_the_secant_path(self, rhs):
        # on a uniform mesh of unit steps w = 1/Gamma(2.5) = 0.75 at every
        # step, so 1 - w a < 0 throughout and no step has a closed form
        prob = FracProblem.from_rhs(0.5, rhs, 1.0, 8.0)
        assert prob._affine is not None
        mesh = Mesh.uniform(8.0, 8)
        got = solve(prob, mesh)
        want = solve(secant_only(prob), mesh)
        assert got.status is want.status
        assert got.corrector_iterations == want.corrector_iterations
        assert np.array_equal(got.mesh.nodes, want.mesh.nodes)
        assert np.array_equal(got.values, want.values)

    def test_raising_coefficient_takes_the_secant_path(self):
        def broken(t):
            raise EvalError("coefficient off its domain", 0)

        prob = FracProblem.from_rhs(0.5, "t - u", 1.0, 1.0)
        patched = prob._with_u0(prob.u0)
        object.__setattr__(patched, "_affine", (broken, prob._affine[1]))
        mesh = Mesh.graded(1.0, 128, 4.0)
        got = solve(patched, mesh)
        want = solve(secant_only(prob), mesh)
        assert got.status is want.status is PathStatus.COMPLETED
        assert got.corrector_iterations == want.corrector_iterations
        assert np.array_equal(got.values, want.values)

    def test_positivity_guard_and_escape_read_as_before(self):
        mesh = Mesh.uniform(1.0, 128)
        guarded = SolverOptions(positivity_guard=True)
        for rhs, opts in (("-1 + 0*u", guarded), ("t*u - 2", guarded), ("20*u + 1e300", None)):
            prob = FracProblem.from_rhs(0.5, rhs, 0.5, 1.0)
            got = solve(prob, mesh, opts)
            want = solve(secant_only(prob), mesh, opts)
            assert got.status is want.status is not PathStatus.COMPLETED
            assert got.values.size == want.values.size
            np.testing.assert_allclose(got.values, want.values, rtol=1e-13)

    def test_root_below_the_lower_limit_takes_the_secant_path(self):
        # phi(x) = 2x + 2 has its root -1 under lo_limit 0: the closed form
        # spends no evaluation, and the bracket on (0, inf) finds no root
        calls = []

        def f(t, u):
            calls.append(u)
            return -u

        affine = (lambda t: -1.0, lambda t: 0.0)
        x, fx, used = solver._corrector(f, 1.0, -2.0, 1.0, 0.5, 0.0, affine=affine)
        assert math.isnan(x) and math.isnan(fx)
        assert used == len(calls) and -1.0 not in calls
        assert used == solver._corrector(f, 1.0, -2.0, 1.0, 0.5, 0.0)[2]


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

    def test_bracket_fallback_keeps_the_fit(self, monkeypatch):
        # a step too long for the convex rhs: the secant meets the fold
        # (slope <= 0), the bracket finds no root and the march cuts the
        # step.  The path-driven steps never go that far on a march that
        # completes, so every tenth step below u = 10 reaches a thousand
        # times further than the march asks; the march recovers and the
        # exponent and constant still meet criterion 3, with or without
        # the peak test (the forced steps move Tb, so not the drift)
        calls = []
        inner = solver._bracket_solve

        def spy(*args):
            calls.append(len(args))
            return inner(*args)

        def without_peak(*args):
            calls.append(len(args))
            return inner(*args[:6])

        class TooLong(solver._History):
            def weights(self, t_next):
                t_n = float(self._t[self.n - 1])
                if self.n % 10 == 0 and self._u[self.n - 1] < 10.0:
                    t_next = t_n + 1e3 * (t_next - t_n)
                return super().weights(t_next)

        monkeypatch.setattr(solver, "_History", TooLong)
        prob = FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0)
        reports = []
        for bracket in (spy, without_peak):
            calls.clear()
            monkeypatch.setattr(solver, "_bracket_solve", bracket)
            reports.append(detect_blowup(prob, u_max=1e4, refine_levels=1))
            assert len(calls) > 10
        report, slow = reports
        assert abs(report.exponent_fit - 0.5) <= 0.03 * 0.5
        assert abs(report.constant_fit - INV_SQRT_PI) <= 0.10 * INV_SQRT_PI
        for name in ("Tb_estimate", "exponent_fit", "constant_fit", "refinement_drift"):
            assert getattr(report, name) == getattr(slow, name), name
        assert np.array_equal(report.path.values, slow.path.values)
        assert report.path.corrector_iterations < slow.path.corrector_iterations

    def test_bracket_fallback_stops_at_the_peak(self, monkeypatch):
        # phi(x) = x - hist - w A x^p is concave: one evaluation at its
        # peak shows there is no root, where the span doublings take 160.
        # At p = 8 the coarse march of refine_levels=1 falls back 33
        # times on its way to the floor of the time axis, none with a root
        inner = solver._bracket_solve
        counts = {"fallbacks": 0, "evals": 0}

        def spy(f, *args):
            counts["fallbacks"] += 1

            def counted(t, u):
                counts["evals"] += 1
                return f(t, u)

            return inner(counted, *args)

        def without_peak(f, *args):
            return spy(f, *args[:5])

        prob = FracProblem.power_law(0.5, 1.0, 8.0, 1.0, 1.0)
        stops = []
        for bracket in (spy, without_peak):
            counts.update(fallbacks=0, evals=0)
            monkeypatch.setattr(solver, "_bracket_solve", bracket)
            with pytest.raises(StepCollapseError) as exc:
                detect_blowup(prob, u_max=1e4, refine_levels=1)
            stops.append((exc.value.last_time, dict(counts)))
        (fast_stop, fast), (slow_stop, slow) = stops
        assert fast_stop == slow_stop
        assert fast["fallbacks"] == slow["fallbacks"] > 0
        assert fast["evals"] == fast["fallbacks"]
        assert slow["evals"] == 160 * slow["fallbacks"]

    def test_steep_power_still_collapses(self):
        # at p = 5 the eta = 0.02 march stops at t = 0.01508, where
        # Tb - t is a few floors of 32 ulp(t): doubles no longer resolve
        # the time axis, whatever the step rule
        with pytest.raises(StepCollapseError):
            detect_blowup(FracProblem.power_law(0.5, 1.0, 5.0, 1.0, 1.0), u_max=1e4)

    def test_small_gamma_cubic_completes(self):
        # steps sized from rest sat at the floor of the time axis with
        # Tb - t about 670 floors away and stalled at u = 71.6; now the
        # march passes the accept bar of 100 before the floor (u = 128)
        report = detect_blowup(FracProblem.power_law(0.3, 1.0, 3.0, 1.0, 1.0), u_max=1e6)
        assert report.path.values[-1] >= 100.0
        assert abs(report.exponent_fit - 0.15) <= 0.03 * 0.15
        assert abs(report.constant_fit - report.theory_constant) <= 0.10 * report.theory_constant
        assert report.refinement_drift <= 0.01

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("gamma", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_grid_meets_criterion_3(self, gamma, p):
        # the slowest case takes about 0.12 s and the largest march
        # 1,825 nodes; no case falls back to the bracket.  Steps sized
        # from rest took 82 s and 74,095 + 8,037 nodes at gamma 0.3, p 2
        # (now 906 + 448)
        prob = FracProblem.power_law(gamma, 1.0, p, 1.0, 1.0)
        start = time.perf_counter()
        if (gamma, p) == (0.2, 3.0):
            # u ~ C (Tb - t)^-0.1 reaches only about 34 before Tb - t is
            # a few floors of 32 ulp(t), short of the accept bar of 100
            with pytest.raises(StepCollapseError):
                detect_blowup(prob)
        else:
            report = detect_blowup(prob)
            want = gamma / (p - 1.0)
            assert abs(report.exponent_fit - want) <= 0.03 * want
            theory = report.theory_constant
            assert abs(report.constant_fit - theory) <= 0.10 * theory
            assert report.refinement_drift <= 0.01
            assert report.path.values.size <= 2_000
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize(
        "gamma,p", [(0.2, 1.5), (0.3, 2.0), (0.5, 2.0), (0.5, 3.0), (0.7, 1.5), (0.9, 2.0)]
    )
    def test_constant_error_is_second_order_in_eta(self, gamma, p, monkeypatch):
        # the raw constant of the marches at eta = 0.04, 0.02, 0.01 and
        # 0.005 (refine_levels 1 to 3 march the pairs); its level
        # differences shrink about 4 times per halving (3.74 to 4.47
        # measured; 4.2 to 5.3 from eta = 0.04, which still carries higher
        # orders).  From refine_levels=2 on, the Richardson value the
        # report carries sits at least 5 times closer to theory than its
        # fine march's raw one (7 to 69 times measured)
        raw = []
        inner = solver._blowup_fit

        def spy(*args):
            fit = inner(*args)
            raw.append(fit[1])
            return fit

        monkeypatch.setattr(solver, "_blowup_fit", spy)
        prob = FracProblem.power_law(gamma, 1.0, p, 1.0, 1.0)
        reports = [detect_blowup(prob, refine_levels=level) for level in (1, 2, 3)]
        assert raw[1] == raw[2] and raw[3] == raw[4]  # one march per eta
        c = raw[0], raw[1], raw[3], raw[5]
        d = [c[k + 1] - c[k] for k in range(3)]
        assert 3.5 <= d[1] / d[2] <= 5.0
        assert 3.5 <= d[0] / d[1] <= 6.0
        theory = reports[0].theory_constant
        for report, fine in zip(reports[1:], c[2:]):
            assert abs(report.constant_fit - theory) <= abs(fine - theory) / 5.0

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

    @pytest.mark.parametrize("refine_levels", [1, 2, 3])
    def test_marches_exactly_two_levels(self, refine_levels, monkeypatch):
        # the finest eta = 0.04 / 2^L and twice that, whatever L
        built = []

        class Spy(solver._History):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(solver, "_History", Spy)
        prob = FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0)
        detect_blowup(prob, u_max=1e4, refine_levels=refine_levels)
        assert len(built) == 2

    @pytest.mark.parametrize("refine_levels", [0, -3])
    def test_rejects_fewer_than_one_refinement_level(self, refine_levels):
        prob = FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="refine_levels"):
            detect_blowup(prob, refine_levels=refine_levels)

    @pytest.mark.parametrize("u_max", [1.0, 0.5, math.nan])
    def test_rejects_threshold_at_or_below_the_start(self, u_max):
        # at u_max <= u0 the march takes no step and the fit has no data
        prob = FracProblem.power_law(0.5, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="u_max"):
            detect_blowup(prob, u_max=u_max)


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

    def test_iterations_count_the_root_search_evaluations(self, monkeypatch):
        # one _corrector call per accepted step, and corrector_iterations
        # is the sum of its evaluation counts, as in the other marches
        evals = []

        def counting(*args):
            x, fx, n = inner(*args)
            evals.append(n)
            return x, fx, n

        inner = solver._corrector
        monkeypatch.setattr(solver, "_corrector", counting)
        report = detect_extinction(FracProblem.power_law(0.8, -0.5, -2.0, 0.7, 1.0))
        assert len(evals) == report.path.values.size - 1
        assert report.path.corrector_iterations == sum(evals) > 0

    @pytest.mark.parametrize("eps_touch", [None, 1e-2])
    def test_reference_case_takes_few_evaluations_per_step(self, eps_touch, monkeypatch):
        # every power of the march: one for the touch test at x_star and
        # about 4 in the corrector, the accepted one included
        calls = []
        inner = math.pow

        def counting(x, y):
            calls.append(x)
            return inner(x, y)

        monkeypatch.setattr(math, "pow", counting)
        report = detect_extinction(FracProblem.power_law(0.5, -1.0, -1.0, 1.0, 1.0), eps_touch)
        steps = report.path.values.size - 1
        assert len(calls) <= 5.01 * steps

    @pytest.mark.parametrize(
        "gamma,A,p,u0",
        [(0.5, -1.0, -1.0, 1.0), (0.7, -2.0, -0.5, 1.5), (0.4, -1.0, -4.0, 1.0)],
    )
    def test_steps_need_no_bracket_fallback(self, gamma, A, p, u0, monkeypatch):
        # the held-f start lies above the root on the convex branch, so
        # the secant steps converge without the bracket
        def fail(*args):
            raise AssertionError("bracket fallback taken")

        monkeypatch.setattr(solver, "_bracket_solve", fail)
        report = detect_extinction(FracProblem.power_law(gamma, A, p, u0, 1.0))
        assert report.touch_time < report.upper_bound_time

    def test_reference_touch_time_and_node_count(self):
        # converged touch at eps_touch = 1e-2: 0.0986215, where steps sized
        # from rest at eta 0.0125 (67,712 nodes) and the path-driven rule
        # at eta 0.00125 agree to 4e-7.  Steps sized from rest on every
        # node miss both pins (1.7e-5 off, 4,225 nodes)
        report = detect_extinction(FracProblem.power_law(0.5, -1.0, -1.0, 1.0, 1.0), 1e-2)
        assert abs(report.touch_time - 0.0986215) <= 1e-5
        assert report.path.values.size <= 600

    def test_small_gamma_touches_before_its_bound(self):
        # steps sized from rest fall to 5.7e-9 here and do not reach the
        # touch in minutes
        report = detect_extinction(FracProblem.power_law(0.25, -2.0, -0.5, 1.0, 1.0))
        assert abs(report.upper_bound_time - 0.0421856) < 1e-7
        assert 0.0 < report.touch_time < report.upper_bound_time
        assert np.all(np.diff(report.path.values) < 0.0)
        assert report.path.values.size <= 1_000

    @pytest.mark.parametrize("p", [-0.5, -1.0, -2.0, -4.0])
    @pytest.mark.parametrize("gamma", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_grid_touches_inside_the_bound(self, gamma, p):
        # the slowest case of this grid takes about 0.07 s and the largest
        # 1,368 nodes; steps sized from rest take 31,786 nodes and 13 s at
        # gamma 0.4, p -1
        start = time.perf_counter()
        report = detect_extinction(FracProblem.power_law(gamma, -1.0, p, 1.0, 1.0))
        elapsed = time.perf_counter() - start
        assert 0.0 < report.touch_time < report.upper_bound_time
        assert np.all(np.diff(report.path.values) < 0.0)
        assert report.path.values.size <= 2_000
        assert elapsed < 2.0

    def test_rejects_problems_without_extinction_shape(self):
        with pytest.raises(ValueError):
            detect_extinction(FracProblem.power_law(0.5, 1.0, -1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            detect_extinction(FracProblem.power_law(0.5, -1.0, 2.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="power-law"):
            detect_extinction(FracProblem.from_rhs(0.5, "-sin(u)", 1.0, 1.0))

    @pytest.mark.parametrize("eps_touch", [2.0, 1.0, 0.0, -1e-3, math.nan])
    def test_rejects_touch_threshold_outside_the_start(self, eps_touch):
        # a threshold at or above u0 would read the first step as a
        # touch, and one at or below 0 would never trigger
        prob = FracProblem.power_law(0.5, -1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="eps_touch"):
            detect_extinction(prob, eps_touch)


class TestBisect:
    @staticmethod
    def recording(phi):
        calls = []

        def wrapped(x):
            calls.append(x)
            return phi(x)

        return wrapped, calls

    def test_exact_zero_returns_the_midpoint(self):
        phi, calls = self.recording(lambda x: x - 0.5)
        assert solver._bisect(phi, 0.0, -0.5, 1.0) == (0.5, 1)
        assert calls == [0.5]

    def test_evaluation_error_shrinks_hi(self):
        def phi(x):
            if x > 0.3:
                raise EvalError("outside the domain", 0)
            return x - 0.2

        phi, calls = self.recording(phi)
        root, evals = solver._bisect(phi, 0.0, -0.2, 1.0)
        assert calls[:2] == [0.5, 0.25]  # 0.5 failed, so hi moved there
        assert abs(root - 0.2) <= 2.0 * math.ulp(0.2)
        assert evals == len(calls)

    def test_counts_every_evaluation_down_to_adjacent_doubles(self):
        phi, calls = self.recording(lambda x: x**3 - 2.0)
        root, evals = solver._bisect(phi, 1.0, -1.0, 2.0)
        assert evals == len(calls) == len(set(calls))
        assert 50 <= evals <= 54  # [1, 2] holds 2^52 doubles
        assert abs(root - 2.0 ** (1.0 / 3.0)) <= 2.0 * math.ulp(root)

    def test_bracket_solve_finds_the_stiff_linear_root(self):
        # x = 1 + 0.1 * (-200 x) has the root 1/21; the fixed point diverges
        x, ok = solver._bracket_solve(lambda t, u: -200.0 * u, 0.5, 1.0, 0.1, 1.0)
        assert ok
        assert abs(x - 1.0 / 21.0) <= 4.0 * math.ulp(1.0 / 21.0)


def _assert_near_list_oracle(got, gamma, u0, t, fv, t_next, step):
    # (pred, hist, w) within rounding of the list oracle: KERNEL_RTOL
    # times the sum of the magnitudes of the oracle's terms
    ref = list_history_weights(gamma, u0, t, fv, t_next)
    scale = list_history_weights(gamma, u0, t, fv, t_next, absolute=True)
    for a, b, s in zip(got, ref, scale):
        assert type(a) is float
        assert abs(a - b) <= KERNEL_RTOL * s, step


class TestHistoryEngine:
    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9])
    def test_march_across_reallocations_matches_list_oracle(self, gamma, monkeypatch):
        monkeypatch.setattr(solver, "_HISTORY_START", 4)
        u0, f0 = 1.0, -0.5
        hist = _History(gamma, u0, f0)
        t, fv = [0.0], [f0]
        for k in range(1, 41):
            # irregular steps, each one first tried 4x too long (a
            # rejected trial node must leave no trace)
            h = 1e-3 * (1.0 + (k * 7919 % 13)) * 1.1**k
            for t_next in (t[-1] + 4.0 * h, t[-1] + h):
                got = hist.weights(t_next)
                _assert_near_list_oracle(got, gamma, u0, t, fv, t_next, k)
            x = got[1] + got[2] * math.sin(k)
            hist.accept(x, math.cos(x))
            t.append(t_next)
            fv.append(math.cos(x))
        assert hist._t.size == 64  # grew 4 -> 8 -> 16 -> 32 -> 64
        assert np.array_equal(hist.t, t)

    @pytest.mark.parametrize(
        "mesh", [Mesh.graded(1.0, 64, 4.0), Mesh.geometric(10.0, 64, 1e-5), Mesh.uniform(1.0, 1)]
    )
    def test_mesh_march_matches_list_oracle(self, mesh, monkeypatch):
        # the node-by-node march `solve` makes, with buffers that grow
        monkeypatch.setattr(solver, "_HISTORY_START", 8)
        gamma, u0, f0 = 0.37, 2.0, 0.25
        hist = _History(gamma, u0, f0, cap=mesh.nodes.size)
        t = mesh.nodes.tolist()
        fv = [f0]
        for n in range(1, len(t)):
            got = hist.weights(mesh.nodes[n])
            _assert_near_list_oracle(got, gamma, u0, t[:n], fv, t[n], n)
            hist.accept(float(n), -float(n))
            fv.append(-float(n))
        assert np.array_equal(hist.t, mesh.nodes)

    def test_accept_at_cap_raises_with_last_accepted_time(self):
        hist = _History(0.5, 1.0, -1.0, cap=3)
        for t_next in (0.1, 0.25):
            hist.weights(t_next)
            hist.accept(0.9, -0.9)
        hist.weights(0.5)
        with pytest.raises(StepCollapseError, match="budget") as info:
            hist.accept(0.8, -0.8)
        assert type(info.value.last_time) is float
        assert info.value.last_time == 0.25
        assert hist.n == 3

    def test_path_returns_copies(self, monkeypatch):
        monkeypatch.setattr(solver, "_HISTORY_START", 4)
        hist = _History(0.5, 1.0, -1.0)
        for k in range(1, 3):
            hist.weights(0.1 * k)
            hist.accept(1.0 - 0.1 * k, -1.0)
        path = hist.path(PathStatus.COMPLETED, 7)
        nodes, values = path.mesh.nodes.copy(), path.values.copy()
        hist._t[:] = -1.0  # overwrite the live buffers in place
        hist._u[:] = -1.0
        assert np.array_equal(path.mesh.nodes, nodes)
        assert np.array_equal(path.values, values)
        for k in range(3, 20):  # and march on across reallocations
            hist.weights(0.1 * k)
            hist.accept(-5.0, -5.0)
        assert np.array_equal(path.mesh.nodes, nodes)
        assert np.array_equal(path.values, values)
        assert path.corrector_iterations == 7


class TestFarHistory:
    """`solve` on a long fixed mesh takes its far history from exponential
    modes (fracops._FarHistory); the direct O(N^2) sums, forced by raising
    the mesh-size threshold, are its oracle."""

    @staticmethod
    def _direct(monkeypatch, prob, mesh):
        with monkeypatch.context() as m:
            m.setattr(fracops, "_SOE_MIN_NODES", mesh.nodes.size + 1)
            return solve(prob, mesh)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_matches_the_direct_path_on_graded_meshes(self, gamma, monkeypatch):
        # measured: at most 4.9e-15 relative
        prob = FracProblem.power_law(gamma, -1.0, 1.0, 1.0, 1.0)
        mesh = Mesh.graded(1.0, 4096, 2.0 / gamma)
        assert mesh.nodes.size >= fracops._SOE_MIN_NODES
        fast = solve(prob, mesh)
        direct = self._direct(monkeypatch, prob, mesh)
        assert fast.status is direct.status is PathStatus.COMPLETED
        scale = np.abs(direct.values).max()
        assert np.abs(fast.values - direct.values).max() <= 1e-13 * scale

    def test_matches_the_direct_path_on_the_long_decay(self, monkeypatch):
        # Here the direct path is the less accurate one: against an
        # extended-precision march with series first moments on thin
        # cells, the fast path deviates by 8.9e-16 and the direct path by
        # 1.05e-13, the first-moment cancellation of its far cells.  So
        # the bound is twice the direct path's own error
        prob = FracProblem.power_law(0.5, -1.0, 2.0, 1.0, 1e6)
        mesh = Mesh.geometric(1e6, 8192, 1e-3)
        fast = solve(prob, mesh)
        direct = self._direct(monkeypatch, prob, mesh)
        assert fast.status is direct.status is PathStatus.COMPLETED
        scale = np.abs(direct.values).max()
        assert np.abs(fast.values - direct.values).max() <= 2e-13 * scale

    def test_moments_run_only_for_the_direct_start(self, monkeypatch):
        # solve, frac_integral and caputo_l1 form the direct rows 1..511
        # in blocks of at most _BLOCK_CELLS kernel cells, one kernel call
        # per block; solve takes nothing else from the kernel, while the
        # operators add one call per _SOE_BLOCK far rows, over the cells
        # from the block's left node on; forced direct, solve's blocks
        # cover all 4096 rows
        calls = []
        moments = fracops._trapezoid_moments

        def counted(*args):
            calls.append((np.atleast_1d(args[1]), args[2]))
            return moments(*args)

        monkeypatch.setattr(fracops, "_trapezoid_moments", counted)
        monkeypatch.setattr(solver, "_trapezoid_moments", counted)
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0)
        mesh = Mesh.graded(1.0, 4096, 4.0)
        nodes = mesh.nodes
        start, block = fracops._SOE_START, fracops._SOE_BLOCK
        u = solve(prob, mesh).sampled()
        runs = [calls[:]]
        for operator in (fracops.frac_integral, lambda gamma, v: fracops.caputo_l1(gamma, v, 1.0)):
            calls.clear()
            operator(0.5, u)
            runs.append(calls[:])
        assert len(runs[0]) == 10
        for run in runs:
            direct = [tn for tn, _ in run[:10]]
            assert np.array_equal(np.concatenate(direct), nodes[1:start])
            for tn in direct:
                first = int(np.flatnonzero(nodes == tn[0])[0])
                assert tn.size * (first + tn.size - 2) <= fracops._BLOCK_CELLS
        for run in runs[1:]:
            far = run[10:]
            assert len(far) == -(-(nodes.size - start) // block) == 57
            assert np.array_equal(np.concatenate([tn for tn, _ in far]), nodes[start:])
            for i, (tn, t) in enumerate(far):
                lo = start + i * block
                assert np.array_equal(tn, nodes[lo : lo + block])
                assert np.array_equal(t, nodes[lo - 1 : lo + tn.size])
        calls.clear()
        self._direct(monkeypatch, prob, mesh)
        assert len(calls) == 557
        assert np.array_equal(np.concatenate([tn for tn, _ in calls]), nodes[1:])

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9])
    def test_second_order_on_the_fast_path(self, gamma):
        # D^gamma u = -u, u(0) = 1: u = E_gamma(-t^gamma); measured orders
        # from N = 4096 to 8192: 1.963, 1.998 and 2.000
        prob = FracProblem.power_law(gamma, -1.0, 1.0, 1.0, 1.0)
        errs = []
        for n in (4096, 8192):
            mesh = Mesh.graded(1.0, n, default_grading(gamma))
            assert mesh.nodes.size >= fracops._SOE_MIN_NODES
            path = solve(prob, mesh)
            exact, _ = _ml_many(gamma, 1.0, -(mesh.nodes**gamma))
            errs.append(np.abs(path.values - exact).max())
        assert math.log2(errs[0] / errs[1]) >= 1.9

    def test_traced_peak_stays_under_one_mebibyte(self):
        # measured 838 KiB (515 KiB with the direct history): the mode
        # rows are formed 64 mesh cells at a time
        prob = FracProblem.power_law(0.5, -1.0, 1.0, 1.0, 1.0)
        mesh = Mesh.graded(1.0, 4096, 4.0)
        assert mesh.nodes.size >= fracops._SOE_MIN_NODES
        tracemalloc.start()
        try:
            solve(prob, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20
