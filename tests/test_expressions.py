"""Expression language tests.

Hand-checked evaluations, error offsets, canonical-print fixpoint, the
power-law matcher, and a 1000-tree randomized comparison against an
independent route: each tree is translated to fully parenthesized
Python source and evaluated by the Python interpreter itself.  The
compiled form of every tree must match the tree walker `evaluate`
exactly, values and errors alike, whether it returns its own value or
falls back to `evaluate`.
"""

import math
import random

import pytest

from fracode import expressions
from fracode.expressions import (
    Binary,
    Call,
    EvalError,
    Num,
    ParseError,
    Unary,
    Var,
    compile_expr,
    evaluate,
    lipschitz_probe,
    match_affine,
    match_power_law,
    parse,
    to_str,
)
from fracode.solver import FracProblem


class TestParse:
    def test_power_tree_shape(self):
        assert parse("u^2") == Binary("^", Var("u"), Num(2.0))

    def test_whitespace_insensitive(self):
        assert parse(" 1 +\tt ") == parse("1+t")

    def test_power_binds_tighter_than_times(self):
        assert evaluate(parse("1*u^2"), 0.0, 3.0) == 9.0

    def test_hand_evaluation(self):
        assert evaluate(parse("2*t - exp(u)"), 1.0, 0.0) == 1.0

    def test_unary_minus_under_power(self):
        # -u^2 means -(u^2)
        assert evaluate(parse("-u^2"), 0.0, 3.0) == -9.0
        assert parse("-u^2") == Unary("-", Binary("^", Var("u"), Num(2.0)))

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0, 0.0) == 512.0

    def test_subtraction_left_associative(self):
        assert evaluate(parse("2-3-4"), 0.0, 0.0) == -5.0

    def test_negative_exponent_literal(self):
        assert evaluate(parse("2^-3"), 0.0, 0.0) == 0.125

    def test_parens(self):
        assert evaluate(parse("(1+2)*3"), 0.0, 0.0) == 9.0

    def test_scientific_literals(self):
        assert evaluate(parse("1.5e2 + 2E-1"), 0.0, 0.0) == 150.2

    def test_two_arg_functions(self):
        assert evaluate(parse("pow(u, 3)"), 0.0, 2.0) == 8.0
        assert evaluate(parse("min(t, u)"), 5.0, 2.0) == 2.0
        assert evaluate(parse("max(t, u)"), 5.0, 2.0) == 5.0


class TestParseErrors:
    @pytest.mark.parametrize(
        "src, offset",
        [
            ("1 + * 2", 4),
            ("1 2", 2),
            ("(1+2", 4),
            ("#", 0),
            ("1 + v", 4),
            ("sin 3", 4),
            ("", 0),
            ("  ", 0),
        ],
    )
    def test_offset(self, src, offset):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.offset == offset

    def test_arity_errors(self):
        with pytest.raises(ParseError, match="argument"):
            parse("pow(u)")
        with pytest.raises(ParseError, match="argument"):
            parse("min(1, 2, 3)")
        with pytest.raises(ParseError, match="argument"):
            parse("sin(1, 2)")

    @pytest.mark.parametrize("src, offset", [("1e999", 0), ("u + 2.5e400", 4), ("1e309*u", 0)])
    def test_overflowing_literal(self, src, offset):
        with pytest.raises(ParseError, match="overflows") as exc:
            parse(src)
        assert exc.value.offset == offset

    def test_largest_finite_literal_round_trips(self):
        tree = parse("1.7976931348623157e308")
        assert tree == Num(1.7976931348623157e308)
        assert parse(to_str(tree)) == tree

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("2*x")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2u")
        with pytest.raises(ParseError):
            parse("2 (u)")


class TestEvaluate:
    def test_variables(self):
        assert evaluate(parse("u"), 5.0, 7.0) == 7.0
        assert evaluate(parse("t"), 5.0, 7.0) == 5.0

    def test_sqrt_shape(self):
        assert evaluate(parse("-1*u^0.5"), 0.0, 4.0) == -2.0

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(parse("u^(-1)"), 0.0, 0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(parse("1/u"), 0.0, 0.0)

    def test_log_domain(self):
        with pytest.raises(EvalError, match="log"):
            evaluate(parse("log(u)"), 0.0, 0.0)
        with pytest.raises(EvalError, match="log"):
            evaluate(parse("log(u)"), 0.0, -1.0)

    def test_negative_base_fractional_power(self):
        with pytest.raises(EvalError, match="negative base"):
            evaluate(parse("u^0.5"), 0.0, -2.0)
        # integer exponents on negative bases are fine
        assert evaluate(parse("u^2"), 0.0, -3.0) == 9.0

    def test_overflow_reported(self):
        with pytest.raises(EvalError, match="overflow"):
            evaluate(parse("exp(u)"), 0.0, 1000.0)
        with pytest.raises(EvalError, match="non-finite"):
            evaluate(parse("1e308 * 1e308"), 0.0, 0.0)

    def test_error_carries_offset(self):
        with pytest.raises(EvalError) as exc:
            evaluate(parse("1 + log(u)"), 0.0, -1.0)
        assert exc.value.offset == 4

    @pytest.mark.parametrize(
        "src, t, u, offset, message",
        [
            # math.sin and math.cos raise ValueError at an infinity
            ("sin(u)", 0.0, math.inf, 0, "non-finite result from sin"),
            ("1 + cos(u)", 0.0, -math.inf, 4, "non-finite result from cos"),
            # math.floor raises OverflowError at an infinite exponent
            ("u^t", math.inf, -2.0, 1, "negative base"),
            ("pow(u, t)", -math.inf, -0.5, 0, "negative base"),
            ("u^t", math.nan, -2.0, 1, "negative base"),
        ],
    )
    def test_infinite_inputs_raise_eval_error(self, src, t, u, offset, message):
        tree = parse(src)
        for f in (lambda t, u: evaluate(tree, t, u), compile_expr(tree)):
            with pytest.raises(EvalError, match=message) as exc:
                f(t, u)
            assert exc.value.offset == offset


_CORPUS = [
    "u^2",
    "-u^2",
    "1*u^2",
    "2*t - exp(u)",
    "2^3^2",
    "2^-3",
    "-(u + t)*3",
    "min(sin(t), cos(u)) + max(1, u)",
    "pow(u, 2) / (1 + t^2)",
    "-1*u^0.5",
    "abs(-u) + log(1 + t)",
    "1.5e2*u - 2E-1",
    "t/u/2",
    "t - u - 1",
    "-(-u)",
]


class TestCanonicalForm:
    @pytest.mark.parametrize("src", _CORPUS)
    def test_print_parse_fixpoint(self, src):
        tree = parse(src)
        assert parse(to_str(tree)) == tree

    def test_tree_equality_ignores_offsets(self):
        assert parse("1+u") == parse("1  +  u")


def _random_tree(rng: random.Random, depth: int):
    # shapes the parser itself can produce (no negative literals)
    if depth == 0 or rng.random() < 0.3:
        k = rng.randrange(3)
        if k == 0:
            return Num(round(rng.uniform(0.1, 3.0), 3))
        return Var("t" if k == 1 else "u")
    k = rng.random()
    if k < 0.55:
        op = rng.choice("+-*/^")
        right = (
            Num(float(rng.randrange(1, 4)))
            if op == "^"
            else _random_tree(rng, depth - 1)
        )
        return Binary(op, _random_tree(rng, depth - 1), right)
    if k < 0.7:
        return Unary("-", _random_tree(rng, depth - 1))
    fn = rng.choice(["sin", "cos", "exp", "log", "abs", "pow", "min", "max"])
    if fn == "pow":
        args = (_random_tree(rng, depth - 1), Num(float(rng.randrange(1, 4))))
    elif fn in ("min", "max"):
        args = (_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    else:
        args = (_random_tree(rng, depth - 1),)
    return Call(fn, args)


def _pysrc(e) -> str:
    # independent stringifier: full parens, Python operators
    if isinstance(e, Num):
        return f"({e.value!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        return f"(-{_pysrc(e.arg)})"
    if isinstance(e, Binary):
        if e.op == "^":
            return f"math.pow({_pysrc(e.left)}, {_pysrc(e.right)})"
        return f"({_pysrc(e.left)} {e.op} {_pysrc(e.right)})"
    fn = {"abs": "abs", "min": "min", "max": "max"}.get(e.fn, f"math.{e.fn}")
    return f"{fn}({', '.join(_pysrc(a) for a in e.args)})"


def _outcome(fn, t, u):
    try:
        return ("value", fn(t, u))
    except EvalError as exc:
        # every failure of a well-formed tree is an EvalError
        return ("error", type(exc).__name__, str(exc), exc.offset)


def _assert_compiled_matches(tree, t, u) -> str:
    # bit for bit on success (sign of zero included), the same type,
    # message and offset on failure; returns which of the two it was
    want = _outcome(lambda t, u: evaluate(tree, t, u), t, u)
    got = _outcome(compile_expr(tree), t, u)
    assert got == want
    if want[0] == "value":
        assert math.copysign(1.0, got[1]) == math.copysign(1.0, want[1])
    return want[0]


@pytest.fixture
def fallbacks(monkeypatch):
    # records each point a compiled rhs hands to `evaluate`
    calls = []

    def spy(e, t, u):
        calls.append((t, u))
        return evaluate(e, t, u)

    monkeypatch.setitem(expressions._COMPILED_HELPERS, "_evaluate", spy)
    return calls


class TestAgainstPythonInterpreter:
    def test_thousand_random_trees(self, fallbacks):
        rng = random.Random(20240917)
        # a separate stream, so the trees drawn stay those of rng alone
        wide = random.Random(20240918)
        ns = {"math": math, "abs": abs, "min": min, "max": max}
        checked = 0
        outcomes = set()
        for _ in range(1000):
            tree = _random_tree(rng, 4)
            # printed form must round-trip structurally
            assert parse(to_str(tree)) == tree
            t = rng.uniform(0.2, 2.5)
            u = rng.uniform(0.2, 2.5)
            u_wide = wide.uniform(-3.0, 3.0)
            # |u| up to 1e300 overflows inside trees, so many points
            # fall back to evaluate
            u_huge = wide.choice((-1.0, 1.0)) * 10.0 ** wide.uniform(0.0, 300.0)
            for uu in (u, u_wide, u_huge):
                outcomes.add(_assert_compiled_matches(tree, t, uu))
            try:
                mine = evaluate(tree, t, u)
                mine_err = False
            except EvalError:
                mine_err = True
            try:
                ref = eval(_pysrc(tree), {"__builtins__": {}}, dict(ns, t=t, u=u))
                ref_err = not math.isfinite(ref)
            except (ValueError, ZeroDivisionError, OverflowError):
                ref_err = True
            if not mine_err:
                # success must match the interpreter bit for bit
                assert not ref_err
                assert mine == ref
                assert math.copysign(1.0, mine) == math.copysign(1.0, ref)
                checked += 1
            else:
                # failure may only happen when the interpreter also
                # errored or went non-finite somewhere inside
                pass
        assert checked > 400
        assert outcomes == {"value", "error"}
        # 184 of the 3000 points fall back (measured)
        assert len(fallbacks) > 150

    @pytest.mark.parametrize(
        "src",
        [
            "-" * 400 + "u",
            "(" * 300 + "u + 1" + ")" * 300,
            "sin(" * 150 + "u" + ")" * 150,
            "1" + "+u" * 300,
            "u" + "^1" * 300,
        ],
        ids=["minus-400", "parens-300", "sin-150", "sum-300", "power-300"],
    )
    def test_deep_trees(self, src):
        # deeper than the 200 nested parentheses Python's parser accepts;
        # u = inf and 1e308 fall back to evaluate
        tree = parse(src)
        for u in (-0.0, 0.0, 0.5, -2.0, 1e308, math.inf):
            _assert_compiled_matches(tree, 0.25, u)

    @pytest.mark.parametrize(
        "src, u",
        [
            ("log(u)", 0.0),
            ("1 + log(u)", -1.0),
            ("2 / (u - 1)", 1.0),
            ("exp(u)", 1000.0),
            ("pow(u, 3) * 1e300", 1e10),
            ("u^0.5", -2.0),
            ("u^(-1)", 0.0),
            ("-u", 0.0),
            ("min(-u, u)", 0.0),
            ("max(u, -u)", 0.0),
            ("abs(-u) * 0", -1.0),
        ],
    )
    def test_compiled_edge_cases(self, src, u):
        _assert_compiled_matches(parse(src), 0.5, u)

    @pytest.mark.parametrize(
        "src, u, outcome",
        [
            # an inf that the next operation would hide
            ("min(u*1e300, 1)", 1e10, "error"),
            ("max(u*1e300, 1)", -1e10, "error"),
            ("min(1, u*1e300)", -1.0, "value"),
            ("t / (u*1e300)", 1e10, "error"),
            ("t / (u*1e300)", -1e-300, "value"),
            ("exp(-u*1e300)", 1e10, "error"),
            ("exp(-u*1e300)", -0.0, "value"),
            ("pow(0.5, u*1e300)", 1e10, "error"),
            ("0.5^(u*1e300)", 1e10, "error"),
            ("(u*1e300)^0", 1e10, "error"),
            ("(u*1e300)^-1", 1e10, "error"),
            ("(u*1e300)^2 - 1", 1e10, "error"),
            # a zero divisor, a log of a nonpositive value
            ("t / (u - 1)", 1.0, "error"),
            ("t / u", -0.0, "error"),
            ("-t / (u - 2)", 3.0, "value"),
            ("log(u - 1)", 1.0, "error"),
            ("log(u - 1)", 0.5, "error"),
            ("log(-u)", -0.0, "error"),
            # a negative base under a fractional literal exponent
            ("(u - 3)^0.5", 1.0, "error"),
            ("pow(u - 3, 0.5)", 1.0, "error"),
            # OverflowError in an integer-literal power and in exp
            ("u^3", 1e200, "error"),
            ("pow(u, 3)", 1e200, "error"),
            ("exp(u) - 1", 710.0, "error"),
            # the root may carry an input inf, which evaluate returns
            ("u", math.inf, "value"),
            ("--u", -math.inf, "value"),
            ("-0*u", 2.0, "value"),
        ],
    )
    def test_fallback_matches_evaluate(self, src, u, outcome, fallbacks):
        assert _assert_compiled_matches(parse(src), 0.25, u) == outcome
        # only a failure, or an inf the root carries, falls back
        assert len(fallbacks) == (outcome == "error" or math.isinf(u))

    def test_compiled_trees_outside_the_grammar(self):
        # shapes only a caller building nodes by hand can make: the tree
        # walker refuses them when it meets them, the compiler before it
        # emits code
        for tree in (
            Var("x"),
            Unary("+", Var("u")),
            Binary("%", Var("u"), Num(2.0)),
            Binary("^", Var("u"), Num(math.inf)),
            Binary("+", Num(1.0), Var("x")),
            Call("hypot", (Var("u"), Num(2.0))),
            Call("sin", (Var("u"), Num(2.0))),
            Call("min", (Var("u"),)),
            Num(math.inf),
            Call("sin", (Num(math.inf),)),
            "u",
        ):
            with pytest.raises(TypeError, match="grammar"):
                evaluate(tree, 0.0, 0.5)
            with pytest.raises(TypeError, match="grammar"):
                compile_expr(tree)

    def test_untagged_rhs_outside_the_grammar_is_refused(self):
        with pytest.raises(TypeError, match="grammar"):
            FracProblem.from_rhs(0.5, Binary("%", Var("u"), Num(2.0)), 1.0, 1.0)


class TestPowerLawMatch:
    @pytest.mark.parametrize(
        "src, want",
        [
            ("u", (1.0, 1.0)),
            ("-u", (-1.0, 1.0)),
            ("u^2", (1.0, 2.0)),
            ("2*u^1.5", (2.0, 1.5)),
            ("-3*u", (-3.0, 1.0)),
            ("pow(u, 3)/4", (0.25, 3.0)),
            ("u^2/3", (1.0 / 3.0, 2.0)),
            ("2*u^2*2", (4.0, 2.0)),
            ("-(2*u^0.5)", (-2.0, 0.5)),
            ("1/u", (1.0, -1.0)),
            ("0.1*u^2", (0.1, 2.0)),
            ("u^(-1)", (1.0, -1.0)),
        ],
    )
    def test_matches(self, src, want):
        got = match_power_law(parse(src))
        assert got is not None
        assert got == want  # exact, no sampling round-off

    @pytest.mark.parametrize(
        "src",
        ["t*u", "u+1", "sin(u)", "u^u", "u^t", "2^u", "3", "t^2", "u*u"],
    )
    def test_rejects(self, src):
        assert match_power_law(parse(src)) is None

    def test_constant_factor_folded_exactly(self):
        a, p = match_power_law(parse("exp(1)*u^2"))
        assert a == math.exp(1.0)
        assert p == 2.0


class TestAffineMatch:
    @pytest.mark.parametrize(
        "src, a, b",
        [
            ("u - t", lambda t: 1.0, lambda t: -t),
            ("sin(t)*u + 2", math.sin, lambda t: 2.0),
            ("-1*u", lambda t: -1.0, lambda t: 0.0),
            ("-(u*t/2) - 3*t", lambda t: -t / 2.0, lambda t: -3.0 * t),
            ("t - -u + u/t", lambda t: 1.0 + 1.0 / t, lambda t: t),
            ("exp(t)", lambda t: 0.0, math.exp),
        ],
    )
    def test_matches(self, src, a, b):
        got = match_affine(parse(src))
        assert got is not None
        f = compile_expr(parse(src))
        for t in (0.25, 0.5, 2.0):
            assert got[0](t) == pytest.approx(a(t), rel=1e-15, abs=0.0)
            assert got[1](t) == pytest.approx(b(t), rel=1e-15, abs=0.0)
            for u in (-1.5, 0.0, 3.0):
                assert got[0](t) * u + got[1](t) == pytest.approx(f(t, u), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize(
        "src",
        ["u^2", "u*u", "min(u, 1)", "sin(u)", "1/u", "t/u", "u*sin(u) + t", "u^1", "exp(u) - u"],
    )
    def test_rejects(self, src):
        assert match_affine(parse(src)) is None

    def test_coefficient_raises_where_its_terms_do_not_evaluate(self):
        a, b = match_affine(parse("log(t - 1)*u + 1/t"))
        with pytest.raises(EvalError):
            a(0.5)
        with pytest.raises(EvalError):
            b(0.0)
        assert a(3.0) == math.log(2.0) and b(4.0) == 0.25


class TestLipschitzProbe:
    def test_quadratic(self):
        e = parse("u^2")
        got = lipschitz_probe(e, (0.0, 1.0), (0.0, 2.0))
        assert got == pytest.approx(4.0, abs=1e-3)

    def test_linear_exact_slope(self):
        e = parse("2*u + t")
        got = lipschitz_probe(e, (0.0, 1.0), (-1.0, 1.0))
        assert got == pytest.approx(2.0, rel=1e-6)

    def test_constant_rhs(self):
        assert lipschitz_probe(parse("3"), (0.0, 1.0), (0.0, 1.0)) == 0.0

    def test_skips_domain_edges(self):
        # log(u) fails at and below u=0 but the box still probes
        got = lipschitz_probe(parse("log(u)"), (0.0, 1.0), (0.0, 1.0))
        assert math.isfinite(got)
        assert got > 1.0  # steepest near the left edge

    def test_unevaluable_box(self):
        with pytest.raises(EvalError):
            lipschitz_probe(parse("log(u)"), (0.0, 1.0), (-5.0, -1.0))
