"""Order and stability checks: comparison, envelopes, resolvent, corpus.

Closed forms used as oracles below:

  twin linear decay      u2 - u1 = (u20 - u10) E_gamma(-t^gamma)
  unit forcing gap       v - u   = t^gamma E_{gamma, 1+gamma}(-t^gamma)
  normalized twin ratio  y       = E_gamma(-t^gamma)   (f = -u)
                         y       = E_gamma(+t^gamma)   (f = +u)

The resolvent reference numbers were measured on this code path and
are frozen an order of magnitude above the observed values; the hard
ceilings (1e-3) come from the check's contract.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracode import expressions, fracops, solver, verify
from fracode.expressions import EvalError, compile_expr, parse
from fracode.fracops import Mesh, SampledFn, default_grading
from fracode.solver import FracProblem, solve
from fracode.specfun import MLQuery, ResolventQuery, _ml, gamma_fn, mittag_leffler, resolvent
from fracode.verify import (
    CORPUS_SEED,
    VIOLATION_TOL,
    check_comparison,
    check_resolvent,
    check_subsupersolution,
    corpus_problems,
    corpus_reports,
    max_principle_defect,
    run_corpus,
    stability_experiment,
)

E_HALF_AT_MINUS_1 = 0.42758357615581


def ml(alpha, z, beta=1.0):
    return mittag_leffler(MLQuery(alpha=alpha, beta=beta, z=z))


class TestCheckComparison:
    def test_linear_decay_margin_tracks_ml(self):
        rep = check_comparison("-1*u", 0.5, 1.0, 2.0)
        assert rep.trials == 1
        assert rep.violations == 0
        # margin is tightest at t = 1 where the gap is E_{1/2}(-1)
        assert abs(rep.min_margin - E_HALF_AT_MINUS_1) < 2e-5

    def test_margin_scales_with_initial_gap(self):
        rep = check_comparison("-1*u", 0.5, 0.0, 3.0)
        assert abs(rep.min_margin - 3.0 * E_HALF_AT_MINUS_1) < 6e-5

    def test_equal_starts_zero_margin(self):
        rep = check_comparison("-1*u", 0.5, 1.5, 1.5)
        assert rep.min_margin == 0.0
        assert rep.violations == 0

    def test_rejects_unordered_starts(self):
        with pytest.raises(ValueError, match="u10 <= u20"):
            check_comparison("-1*u", 0.5, 2.0, 1.0)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_positive_margin_across_orders(self, gamma):
        rep = check_comparison("sin(t) - u", gamma, 0.5, 1.0, n=128)
        assert rep.min_margin > 0.0
        assert rep.violations == 0

    def test_truncated_paths_compared_on_common_window(self):
        # log(u) turns unevaluable once u crosses 0; both paths truncate
        rep = check_comparison("log(u)", 0.5, 0.4, 0.5, n=128)
        assert rep.min_margin > 0.0
        assert rep.violations == 0


class TestCheckSubSuperSolution:
    def test_zero_forcing_identical_paths(self):
        rep = check_subsupersolution("-1*u", "0", 0.5, 1.0)
        assert rep.min_margin == 0.0
        assert rep.violations == 0

    def test_unit_forcing_separates(self):
        rep = check_subsupersolution("-1*u", "1", 0.5, 1.0)
        assert rep.min_margin > 0.0
        assert rep.violations == 0

    def test_separation_matches_closed_form(self):
        gamma = 0.5
        mesh = Mesh.graded(1.0, 512, default_grading(gamma))
        u = solve(FracProblem.from_rhs(gamma, "-1*u", 1.0, 1.0), mesh)
        v = solve(FracProblem.from_rhs(gamma, "(-1*u) + (1)", 1.0, 1.0), mesh)
        t = mesh.nodes[1:]
        want = t**gamma * np.array(
            [ml(gamma, -float(s) ** gamma, beta=1.0 + gamma) for s in t]
        )
        assert np.abs((v.values - u.values)[1:] - want).max() < 1e-5

    def test_forced_gap_on_pre_blowup_window(self):
        rep = check_subsupersolution("u^2", "0.1", 0.5, 1.0, T=0.15, n=512)
        assert rep.min_margin > 0.0
        assert rep.violations == 0

    def test_time_dependent_forcing(self):
        # the forced gap grows like t^{2+gamma}, which underflows
        # ulp(u0) on the first graded cells; 0.0 there is honest
        rep = check_subsupersolution("-1*u", "t^2", 0.5, 1.0)
        assert rep.min_margin >= 0.0
        assert rep.violations == 0

    def test_rejects_negative_forcing(self):
        with pytest.raises(ValueError, match="negative at"):
            check_subsupersolution("-1*u", "-1", 0.5, 1.0)

    def test_rejects_sign_indefinite_forcing(self):
        with pytest.raises(ValueError, match="negative at"):
            check_subsupersolution("-1*u", "u", 0.5, 1.0)

    def test_rejects_unevaluable_forcing(self):
        with pytest.raises(ValueError, match="nowhere evaluable"):
            check_subsupersolution("-1*u", "log(-1 - t^2)", 0.5, 1.0)

    def test_failure_offset_points_into_the_forcing(self):
        # u^0.5 does not evaluate at u0 = -1; the lifted rhs f + delta
        # keeps delta's own offsets, so the error names its '^'
        with pytest.raises(EvalError) as info:
            check_subsupersolution("-1*u", "u^0.5", 0.5, -1.0, n=16)
        assert info.value.offset == "u^0.5".index("^")


class TestStabilityExperiment:
    def test_linear_decay_matches_ml(self):
        rep = stability_experiment("-1*u", 0.5, 1.0, 2.0)
        t = rep.y_path.mesh.nodes
        exact = np.array([ml(0.5, -float(s) ** 0.5) for s in t])
        assert np.abs(rep.y_path.values - exact).max() < 2e-5
        assert rep.min_y == rep.y_path.values[-1] > 0.0
        assert rep.sup_ratio == 1.0
        assert rep.ml_envelope_ok
        assert abs(rep.lipschitz - 1.0) < 1e-6
        assert rep.eq_residual < 1e-4
        assert rep.underflow_nodes == ()

    def test_zero_rhs_frozen_ratio(self):
        rep = stability_experiment("0", 0.5, 1.0, 2.0)
        assert np.all(rep.y_path.values == 1.0)
        assert rep.eq_residual == 0.0
        assert rep.min_y == rep.sup_ratio == 1.0
        assert rep.ml_envelope_ok

    def test_growth_tracks_ml_from_below(self):
        rep = stability_experiment("u", 0.5, 1.0, 2.0)
        t = rep.y_path.mesh.nodes
        exact = np.array([ml(0.5, float(s) ** 0.5) for s in t])
        assert np.abs(rep.y_path.values - exact).max() < 1e-3
        assert rep.y_path.values[-1] > 4.5  # E_{1/2}(1) ~ 5.01
        assert rep.ml_envelope_ok
        assert rep.min_y == 1.0

    def test_bistable_drift(self):
        rep = stability_experiment("u - u^3", 0.6, 0.1, 0.11, T=2.0)
        assert rep.min_y > 0.0
        assert math.isfinite(rep.sup_ratio)
        assert rep.sup_ratio < 5.0
        assert rep.ml_envelope_ok
        assert rep.eq_residual < 1e-3

    def test_corpus_meets_the_variation_of_constants_identity(self):
        # solve and frac_integral share the product-trapezoid weights, so
        # y + Gamma(gamma) J^gamma(v y) = 1 holds to roundoff once every
        # corrector step is solved; an unconverged corrector shows here
        for prob in corpus_problems(CORPUS_SEED, 4):
            rep = stability_experiment(prob.rhs, prob.gamma, prob.u10, prob.u20, T=prob.T, n=256)
            assert rep.eq_residual <= 1e-12

    @pytest.mark.parametrize("f", ["-1*u", "u", "sin(u)"])
    def test_ratio_starts_at_one(self, f):
        rep = stability_experiment(f, 0.5, 0.5, 1.0, n=64)
        assert rep.y_path.values[0] == 1.0

    def test_orientation_of_gap_is_irrelevant(self):
        rep = stability_experiment("-1*u", 0.5, 2.0, 1.0)
        assert rep.y_path.values[0] == 1.0
        assert abs(rep.min_y - E_HALF_AT_MINUS_1) < 2e-5

    def test_rejects_equal_starts(self):
        with pytest.raises(ValueError, match="distinct initial values"):
            stability_experiment("-1*u", 0.5, 1.0, 1.0)


class TestStabilityEnvelope:
    """E_gamma(z) >= 1 + z/Gamma(1+gamma) for z >= 0 settles most nodes;
    E_gamma itself is read only where that floor does not."""

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        inner = verify.mittag_leffler

        def counted(query):
            calls.append(query.z)
            return inner(query)

        monkeypatch.setattr(verify, "mittag_leffler", counted)
        return calls

    @staticmethod
    def _report(y):
        # y = (u2 - u1)/(u20 - u10) on f = 0.5 u, whose probed Lipschitz
        # constant is 0.5 to rounding
        expr = parse("0.5*u")
        mesh = Mesh.graded(1.0, 64, 2.0)
        f = compile_expr(expr)
        pair = verify._TwinPair(f, f, mesh, mesh.nodes, np.zeros_like(y), y)
        return verify._stability_report(expr, 0.5, 1.0, pair)

    def test_corpus_reads_no_mittag_leffler(self, monkeypatch):
        # 561 evaluations when every y > 1 node read E_gamma
        calls = self._counted(monkeypatch)
        reports = corpus_reports(stability_experiment, trials=4)
        assert all(rep.ml_envelope_ok for _, rep in reports)
        assert calls == []

    @pytest.mark.parametrize("factor,ok", [(1.02, False), (1.0, True)])
    def test_a_node_over_the_envelope_still_fails(self, monkeypatch, factor, ok):
        t = Mesh.graded(1.0, 64, 2.0).nodes
        i = 40
        y = np.ones(t.size)
        y[i] = factor * mittag_leffler(MLQuery(alpha=0.5, z=0.5 * gamma_fn(0.5) * t[i] ** 0.5))
        calls = self._counted(monkeypatch)
        rep = self._report(y)
        assert rep.ml_envelope_ok is ok
        assert len(calls) == 1  # y sits above the floor at node i only

    def test_a_node_on_the_floor_reads_no_mittag_leffler(self, monkeypatch):
        t = Mesh.graded(1.0, 64, 2.0).nodes
        y = 1.0 + 0.5 * gamma_fn(0.5) * t**0.5 / gamma_fn(1.5)
        calls = self._counted(monkeypatch)
        assert self._report(y).ml_envelope_ok
        assert calls == []


class TestOneCompilePerTrial:
    """A stability trial compiles its tree once: the second start and the
    Lipschitz probe reuse the first problem's compiled rhs."""

    @staticmethod
    def _counted(monkeypatch):
        count = [0]
        inner = expressions.compile_expr

        def counted(e):
            count[0] += 1
            return inner(e)

        for module in (expressions, solver, verify):
            monkeypatch.setattr(module, "compile_expr", counted)
        return count

    @pytest.mark.parametrize("rhs", ["corpus", "-1*u"])
    def test_a_trial_compiles_once(self, monkeypatch, rhs):
        # "-1*u" is tagged as a power law: only the probe compiles it
        if rhs == "corpus":
            rhs = corpus_problems(CORPUS_SEED, 1)[0].rhs
        count = self._counted(monkeypatch)
        stability_experiment(rhs, 0.5, 0.2, 0.7, n=64)
        assert count[0] == 1
        count[0] = 0
        run_corpus(trials=4, n=64)
        assert count[0] == 4

    def test_report_matches_separately_compiled_problems(self):
        prob = corpus_problems(CORPUS_SEED, 1)[0]
        rep = stability_experiment(prob.rhs, prob.gamma, prob.u10, prob.u20, T=prob.T, n=128)
        expr = parse(prob.rhs)
        mesh = verify._mesh_for(prob.gamma, prob.T, 128)
        a = solve(FracProblem.from_rhs(prob.gamma, expr, prob.u10, prob.T), mesh)
        second = FracProblem.from_rhs(prob.gamma, expr, prob.u20, prob.T)
        b = solve(second, mesh)
        pair = verify._TwinPair(second.f, None, mesh, *verify._common_window(a, b))
        ref = verify._stability_report(expr, prob.gamma, prob.u20 - prob.u10, pair)
        assert np.array_equal(rep.y_path.values, ref.y_path.values)
        for name in ("min_y", "sup_ratio", "ml_envelope_ok", "lipschitz", "eq_residual"):
            assert getattr(rep, name) == getattr(ref, name), name
        assert rep.underflow_nodes == ref.underflow_nodes


class TestCheckResolvent:
    def test_reference_case(self):
        rep = check_resolvent(1.0, 0.5, 1.0, 4096)
        assert rep.max_residual <= 1e-3  # contract ceiling
        assert rep.max_residual < 1e-5  # measured 1.96e-6
        assert rep.min_r > 0.0
        assert rep.ml_identity_dev <= 1e-3
        assert rep.ml_identity_dev < 1e-6  # measured 6.4e-8
        assert rep.lam == 1.0 and rep.gamma == 0.5 and rep.T == 1.0

    def test_min_r_is_tail_value(self):
        # r_lam decreases, so the minimum sits at the horizon
        rep = check_resolvent(1.0, 0.5, 1.0, 512)
        tail = resolvent(ResolventQuery(lam=1.0, gamma=0.5, t=1.0))
        assert rep.min_r == pytest.approx(tail, rel=1e-12)

    def test_residual_halves_under_doubling(self):
        res = [check_resolvent(1.0, 0.5, 1.0, n).max_residual for n in (1024, 2048, 4096)]
        assert res[0] / res[1] > 1.8
        assert res[1] / res[2] > 1.8

    def test_identity_dev_converges(self):
        dev = [check_resolvent(1.0, 0.5, 1.0, n).ml_identity_dev for n in (1024, 2048, 4096)]
        assert dev[0] / dev[1] > 1.8
        assert dev[1] / dev[2] > 1.8

    @pytest.mark.parametrize(
        "lam, gamma, ceiling",
        [(1.0, 0.3, 1e-3), (2.0, 0.8, 1e-4)],
    )
    def test_other_orders(self, lam, gamma, ceiling):
        rep = check_resolvent(lam, gamma, 1.0, 1024)
        assert rep.max_residual < ceiling
        assert rep.min_r > 0.0
        assert rep.ml_identity_dev < 1e-4

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="lam > 0"):
            check_resolvent(0.0, 0.5)

    @pytest.mark.parametrize("n", [-1, 0, 1, 9])
    def test_rejects_too_few_nodes(self, n):
        # below 10 nodes the window t >= 10 T/n that the residual is
        # read on is empty, and n = 1 zeroes log(n) in the grading cap
        with pytest.raises(ValueError, match="n >= 10"):
            check_resolvent(1.0, 0.5, 1.0, n)

    def test_ten_nodes_still_run(self):
        rep = check_resolvent(1.0, 0.5, 1.0, 10)
        assert math.isfinite(rep.max_residual)

    @pytest.mark.parametrize("gamma", [0.2, 0.3])
    def test_far_modes_need_no_grading_cap(self, gamma):
        # the full grading 2/gamma puts thin far cells under the kernel;
        # their direct first moments cancel (residual 2.9e13 and 59),
        # the far modes do not: measured 8.1e-5 and 1.5e-5
        mesh = Mesh.graded(1.0, 4096, default_grading(gamma))
        assert mesh.nodes.size >= fracops._SOE_MIN_NODES
        assert verify._resolvent_residual(1.0, gamma, mesh)[0] <= 2e-4

    @pytest.mark.parametrize("lam, gamma", [(20.0, 0.5), (1.0, 0.3)])
    def test_array_evaluation_matches_the_scalar_ladder(self, monkeypatch, lam, gamma):
        # check_resolvent evaluates Mittag-Leffler over whole arrays; the
        # same check through scalar _ml, one z at a time, is its reference
        rep = check_resolvent(lam, gamma, 1.0, 1024)

        def one_at_a_time(alpha, beta, z):
            pairs = [_ml(alpha, beta, zi) for zi in z.tolist()]
            return np.array([v for v, _ in pairs]), np.array([e for _, e in pairs])

        monkeypatch.setattr(verify, "_ml_many", one_at_a_time)
        ref = check_resolvent(lam, gamma, 1.0, 1024)
        for field in ("max_residual", "ml_identity_dev", "min_r"):
            got, want = getattr(rep, field), getattr(ref, field)
            assert got == pytest.approx(want, rel=1e-12), field


class TestMaxPrincipleDefect:
    def test_steady_forcing_unit_derivative(self):
        # u solves D u = 1, every node is a running maximum
        path = solve(FracProblem.from_rhs(0.5, "1", 0.0, 1.0), Mesh.uniform(1.0, 256))
        d = max_principle_defect(path, 0.5)
        assert abs(d - 1.0) < 1e-2

    def test_forced_oscillation(self):
        path = solve(
            FracProblem.from_rhs(0.5, "sin(6.283185307179586*t)", 0.0, 3.0),
            Mesh.uniform(3.0, 512),
        )
        d = max_principle_defect(path, 0.5)
        assert 0.0 <= d < 1.0

    def test_decaying_path_is_vacuous(self):
        path = solve(
            FracProblem.from_rhs(0.5, "-1*u", 1.0, 1.0), Mesh.graded(1.0, 128, 4.0)
        )
        assert max_principle_defect(path, 0.5) == math.inf

    def test_flat_path_zero_defect(self):
        path = solve(FracProblem.from_rhs(0.5, "0", 2.0, 1.0), Mesh.uniform(1.0, 64))
        assert max_principle_defect(path, 0.5) == 0.0

    @given(
        data=st.data(),
        gamma=st.floats(0.05, 0.95),
        n=st.integers(4, 48),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_for_arbitrary_data(self, data, gamma, n):
        # summation by parts makes this a mesh-free identity, so any
        # sampled values on any mesh must pass up to roundoff
        gaps = data.draw(
            st.lists(st.floats(1e-6, 2.0), min_size=n, max_size=n)
        )
        vals = data.draw(
            st.lists(st.floats(-50.0, 50.0), min_size=n + 1, max_size=n + 1)
        )
        mesh = Mesh(np.concatenate([[0.0], np.cumsum(gaps)]))
        path = SampledFn(mesh, np.asarray(vals))
        scale = 1.0 + np.abs(path.values).max()
        assert max_principle_defect(path, gamma) >= -1e-9 * scale


class TestCorpus:
    def test_deterministic(self):
        assert corpus_problems(5, 8) == corpus_problems(5, 8)

    def test_seed_changes_problems(self):
        assert corpus_problems(5, 8) != corpus_problems(6, 8)

    def test_problem_shapes(self):
        probs = corpus_problems()
        assert len(probs) == 100
        for k, p in enumerate(probs):
            assert p.index == k
            assert p.gamma == (0.3, 0.5, 0.8)[k % 3]
            assert 0.1 <= p.u20 - p.u10 <= 1.0
            assert max(abs(p.u10), abs(p.u20)) <= 2.5
            assert p.T == 1.0
            parse(p.rhs)  # must round-trip through the grammar

    def test_reduced_corpus_is_clean(self):
        rep = run_corpus(seed=CORPUS_SEED, trials=12, n=128)
        assert rep.comparison.trials == 12
        assert rep.comparison.violations == 0
        assert rep.comparison.min_margin > 0.0
        assert rep.min_y > 0.0
        assert rep.all_envelopes_ok
        assert len(rep.records) == 12

    @pytest.mark.parametrize("trials", [0, -3])
    def test_empty_corpus_is_rejected(self, trials):
        with pytest.raises(ValueError, match=rf"^corpus needs trials >= 1, got {trials}$"):
            corpus_problems(CORPUS_SEED, trials)
        with pytest.raises(ValueError, match="corpus needs trials >= 1"):
            run_corpus(trials=trials, n=32)

    @pytest.mark.parametrize("seed", [-1, -736413])
    def test_negative_seed_is_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"^corpus needs seed >= 0, got {seed}$"):
            corpus_problems(seed, 3)
        with pytest.raises(ValueError, match="corpus needs seed >= 0"):
            run_corpus(seed=seed, trials=2, n=32)

    def test_records_mirror_problems(self):
        probs = corpus_problems(CORPUS_SEED, 6)
        rep = run_corpus(seed=CORPUS_SEED, trials=6, n=64)
        for p, r in zip(probs, rep.records):
            assert (r.index, r.gamma, r.rhs) == (p.index, p.gamma, p.rhs)
            assert (r.u10, r.u20) == (p.u10, p.u20)
            assert r.min_margin >= VIOLATION_TOL
            assert r.min_y > 0.0

    def test_corpus_reports_pairs_problems_with_check_results(self):
        got = corpus_reports(lambda *a, **k: (a, k), seed=5, trials=3, n=17)
        assert [prob for prob, _ in got] == list(corpus_problems(5, 3))
        for prob, (args, kwargs) in got:
            assert args == (prob.rhs, prob.gamma, prob.u10, prob.u20)
            assert kwargs == {"T": prob.T, "n": 17}

    def test_failing_trial_names_its_index(self, monkeypatch):
        original = verify._solve_twin_pair
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ValueError("injected")
            return original(*args)

        monkeypatch.setattr(verify, "_solve_twin_pair", flaky)
        with pytest.raises(RuntimeError, match=r"^corpus trial 2 failed: injected$") as info:
            run_corpus(trials=4, n=32)
        assert isinstance(info.value.__cause__, ValueError)
        assert len(calls) == 3

    def test_aggregate_matches_records(self):
        rep = run_corpus(seed=11, trials=6, n=64)
        assert rep.comparison.min_margin == min(r.min_margin for r in rep.records)
        assert rep.comparison.violations == sum(r.violations for r in rep.records)
        assert rep.min_y == min(r.min_y for r in rep.records)


def _assert_same_report(got, want):
    # field by field: sampled paths by np.array_equal, every float, tuple
    # and bool by ==
    if isinstance(want, tuple) and not dataclasses.is_dataclass(want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same_report(g, w)
        return
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if isinstance(w, SampledFn):
            assert np.array_equal(g.mesh.nodes, w.mesh.nodes), field.name
            assert np.array_equal(g.values, w.values), field.name
        else:
            assert g == w, field.name


class TestSharedKernelBlocks:
    """The marches of one corpus trial read one set of kernel blocks,
    formed once; the reports are those of the checks run one march at a
    time, bit for bit, and nothing is held once a trial ends."""

    @staticmethod
    def _count_moments(monkeypatch):
        calls = []
        moments = fracops._trapezoid_moments

        def counted(*args):
            calls.append(args)
            return moments(*args)

        monkeypatch.setattr(fracops, "_trapezoid_moments", counted)
        monkeypatch.setattr(solver, "_trapezoid_moments", counted)
        return calls

    @staticmethod
    def _blocks_per_mesh(n):
        # the block split depends on the node count only
        t = Mesh.uniform(1.0, n).nodes
        return len(list(fracops._moment_blocks(0.5, t, np.diff(t), 1, t.size)))

    @pytest.mark.parametrize(
        "check",
        [check_comparison, stability_experiment, verify._comparison_and_stability],
        ids=lambda c: c.__name__,
    )
    @pytest.mark.parametrize("trials,n", [(6, 64), (4, 256)])
    def test_shared_reports_match_direct_checks(self, check, trials, n):
        shared = corpus_reports(check, seed=CORPUS_SEED, trials=trials, n=n)
        assert len(shared) == trials
        for prob, rep in shared:
            assert fracops._SHARED.get() is None
            direct = check(prob.rhs, prob.gamma, prob.u10, prob.u20, T=prob.T, n=n)
            _assert_same_report(rep, direct)

    def test_a_trial_forms_its_blocks_once(self, monkeypatch):
        # two solves and one frac_integral per trial: 3 sets of blocks
        # one march at a time, 1 set shared
        per_mesh = self._blocks_per_mesh(256)
        assert per_mesh > 1
        probs = corpus_problems(CORPUS_SEED, 4)
        calls = self._count_moments(monkeypatch)
        for prob in probs:
            stability_experiment(prob.rhs, prob.gamma, prob.u10, prob.u20, T=prob.T, n=256)
        assert len(calls) == 12 * per_mesh
        calls.clear()
        corpus_reports(stability_experiment, seed=CORPUS_SEED, trials=4, n=256)
        assert len(calls) == 4 * per_mesh

    def test_nothing_is_held_after_the_corpus(self, monkeypatch):
        got = corpus_reports(check_comparison, seed=CORPUS_SEED, trials=2, n=64)
        assert fracops._SHARED.get() is None
        prob = got[0][0]
        calls = self._count_moments(monkeypatch)
        # a later solve on trial 0's mesh forms its blocks again
        solve(FracProblem.from_rhs(prob.gamma, prob.rhs, prob.u10, prob.T),
              Mesh.graded(prob.T, 64, default_grading(prob.gamma)))
        assert len(calls) == self._blocks_per_mesh(64)

    def test_nothing_is_held_after_a_failing_trial(self, monkeypatch):
        held = []

        def failing(rhs, gamma, u10, u20, T, n):
            check_comparison(rhs, gamma, u10, u20, T=T, n=n)
            held.append(len(fracops._SHARED.get()))
            raise ValueError("injected")

        with pytest.raises(RuntimeError, match=r"^corpus trial 0 failed: injected$"):
            corpus_reports(failing, seed=CORPUS_SEED, trials=3, n=64)
        assert held == [1]
        assert fracops._SHARED.get() is None
        calls = self._count_moments(monkeypatch)
        prob = corpus_problems(CORPUS_SEED, 1)[0]
        check_comparison(prob.rhs, prob.gamma, prob.u10, prob.u20, T=prob.T, n=64)
        assert len(calls) == 2 * self._blocks_per_mesh(64)

    @pytest.mark.parametrize("offset,shared", [(-2, True), (-1, False), (0, False)])
    def test_only_meshes_under_the_far_start_share(self, monkeypatch, offset, shared):
        # n + 1 nodes share only below fracops._SOE_START
        n = fracops._SOE_START + offset
        per_mesh = self._blocks_per_mesh(n)
        calls = self._count_moments(monkeypatch)
        corpus_reports(check_comparison, seed=CORPUS_SEED, trials=1, n=n)
        assert len(calls) == (1 if shared else 2) * per_mesh
