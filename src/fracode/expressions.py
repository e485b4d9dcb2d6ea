"""Right-hand-side expression language: f(t, u) from text.

A small Pratt parser over real literals, the variables t and u, the
operators + - * / ^ (with ^ right-associative and binding tighter than
the operand of unary minus, so -u^2 means -(u^2)), and the functions
sin, cos, exp, log, abs, pow, min, max.  No implicit multiplication.

Trees are immutable; evaluation is pure and raises EvalError with the
byte offset of the offending node instead of letting inf or nan leak
into a solver run.  `match_power_law` recognizes A*u^p shapes exactly
(constants folded, never round-tripped through sampled evaluation), and
`match_affine` sums of u-free terms and u-free multiples of u, as
compiled coefficient functions a(t), b(t).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "compile_expr",
    "to_str",
    "match_power_law",
    "match_affine",
    "lipschitz_probe",
]


class ExprError(ValueError):
    """Base for expression failures; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ParseError(ExprError):
    pass


class EvalError(ExprError):
    pass


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    arg: Expr
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    args: tuple[Expr, ...]
    offset: int = field(default=0, compare=False)


_FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "abs": 1,
    "pow": 2,
    "min": 2,
    "max": 2,
}
_VARIABLES = ("t", "u")

# binding powers: +,- then *,/ then unary minus, ^ on top
_LBP = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_BP = 25


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | comma | end
    text: str
    offset: int


def _lex(src: str) -> list[_Token]:
    toks = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", i) from None
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} overflows", i)
            toks.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("ident", src[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            toks.append(_Token("op", c, i))
            i += 1
            continue
        if c == "(":
            toks.append(_Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            toks.append(_Token("rparen", c, i))
            i += 1
            continue
        if c == ",":
            toks.append(_Token("comma", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(_Token("end", "", n))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.offset)
        return self.advance()

    def expression(self, min_bp: int) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            left: Expr = Num(float(tok.text), tok.offset)
        elif tok.kind == "ident":
            left = self.name(tok)
        elif tok.kind == "op" and tok.text == "-":
            left = Unary("-", self.expression(_UNARY_BP), tok.offset)
        elif tok.kind == "lparen":
            left = self.expression(0)
            self.expect("rparen", "')'")
        else:
            raise ParseError("expected a value", tok.offset)

        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            bp = _LBP[tok.text]
            if bp <= min_bp:
                break
            self.advance()
            # ^ is right-associative: let an equal-power ^ on the
            # right win by re-entering with bp-1
            rhs_bp = bp - 1 if tok.text == "^" else bp
            right = self.expression(rhs_bp)
            left = Binary(tok.text, left, right, tok.offset)
        return left

    def name(self, tok: _Token) -> Expr:
        if tok.text in _VARIABLES:
            return Var(tok.text, tok.offset)
        if tok.text in _FUNCTIONS:
            arity = _FUNCTIONS[tok.text]
            self.expect("lparen", f"'(' after {tok.text}")
            args = [self.expression(0)]
            while self.peek().kind == "comma":
                self.advance()
                args.append(self.expression(0))
            self.expect("rparen", "')'")
            if len(args) != arity:
                raise ParseError(
                    f"{tok.text} takes {arity} argument(s), got {len(args)}",
                    tok.offset,
                )
            return Call(tok.text, tuple(args), tok.offset)
        raise ParseError(f"unknown identifier {tok.text!r}", tok.offset)


def parse(src: str) -> Expr:
    """Parse source text into an expression tree.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, and wrong function arities.
    """
    if not src or src.isspace():
        raise ParseError("empty expression", 0)
    p = _Parser(src)
    e = p.expression(0)
    tok = p.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
    return e


def _pow(a: float, b: float, offset: int) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalError("division by zero in power", offset)
    # an infinite or nan exponent is no integer (math.floor raises on it)
    if a < 0.0 and not (math.isfinite(b) and b == math.floor(b)):
        raise EvalError("negative base with non-integer exponent", offset)
    try:
        return math.pow(a, b)
    except OverflowError:
        raise EvalError("overflow in power", offset) from None


def evaluate(e: Expr, t: float, u: float) -> float:
    """Evaluate at (t, u) with IEEE double semantics.

    Domain failures (log of a nonpositive value, 0 raised to a negative
    power, division by zero) and overflow to non-finite raise EvalError
    pointing at the responsible node.  A node the parser cannot build
    (a foreign object, another variable, operator or function, a wrong
    arity, a non-finite literal) raises TypeError.
    """
    if isinstance(e, Num):
        if math.isfinite(e.value):
            return e.value
    elif isinstance(e, Var):
        if e.name == "t":
            return t
        if e.name == "u":
            return u
    elif isinstance(e, Unary):
        if e.op == "-":
            return -evaluate(e.arg, t, u)
    elif isinstance(e, Binary) and e.op in _LBP:
        a = evaluate(e.left, t, u)
        b = evaluate(e.right, t, u)
        if e.op == "+":
            r = a + b
        elif e.op == "-":
            r = a - b
        elif e.op == "*":
            r = a * b
        elif e.op == "/":
            if b == 0.0:
                raise EvalError("division by zero", e.offset)
            r = a / b
        else:
            r = _pow(a, b, e.offset)
        if not math.isfinite(r):
            raise EvalError(f"non-finite result from '{e.op}'", e.offset)
        return r
    elif isinstance(e, Call) and len(e.args) == _FUNCTIONS.get(e.fn):
        vals = [evaluate(a, t, u) for a in e.args]
        try:
            # sin and cos raise ValueError at an infinity; the nan they
            # get instead fails the finiteness test below
            if e.fn == "sin":
                r = math.sin(vals[0]) if math.isfinite(vals[0]) else math.nan
            elif e.fn == "cos":
                r = math.cos(vals[0]) if math.isfinite(vals[0]) else math.nan
            elif e.fn == "exp":
                r = math.exp(vals[0])
            elif e.fn == "log":
                if vals[0] <= 0.0:
                    raise EvalError("log of a nonpositive value", e.offset)
                r = math.log(vals[0])
            elif e.fn == "abs":
                r = abs(vals[0])
            elif e.fn == "pow":
                r = _pow(vals[0], vals[1], e.offset)
            elif e.fn == "min":
                r = min(vals[0], vals[1])
            else:
                r = max(vals[0], vals[1])
        except OverflowError:
            raise EvalError(f"overflow in {e.fn}", e.offset) from None
        if not math.isfinite(r):
            raise EvalError(f"non-finite result from {e.fn}", e.offset)
        return r
    raise TypeError(f"not a node of the expression grammar: {e!r}")


def _literal(e: Expr) -> float | None:
    """The value of a literal under any number of unary minus signs, else None."""
    negate = False
    while isinstance(e, Unary) and e.op == "-":
        negate = not negate
        e = e.arg
    if isinstance(e, Num) and math.isfinite(e.value):
        return -e.value if negate else e.value
    return None


class _Emitter:
    """Straight-line Python source for one tree, one statement per node.

    Values live in locals v0, v1, ... assigned by `evaluate`'s operations
    in the post-order it recurses in; literals, folded with the minus
    signs above them, are bound names k0, k1, ..., so no text from the
    tree reaches the source and no expression in it nests.

    Where `evaluate` tests every node, these statements test few.  A
    non-finite value stays non-finite through +, -, * and negation,
    through a numerator, a base under a positive literal exponent, sin,
    cos, log and abs (or they raise).  Only a divisor, the other operands
    of a power, the arguments of min, max and exp, and the root can lose
    it, so only those are tested, unless they are literals; a failed
    test raises _NonFinite.  Statements that run to the end therefore
    met finite values only, on which every check of `evaluate` passes,
    and hold its value.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.bound: dict[str, object] = {}
        self.n_locals = 0

    def bind(self, obj) -> str:
        name = f"k{len(self.bound)}"
        self.bound[name] = obj
        return name

    def assign(self, rhs: str) -> str:
        name = f"v{self.n_locals}"
        self.n_locals += 1
        self.lines.append(f"{name} = {rhs}")
        return name

    def guard(self, name: str) -> None:
        if name not in self.bound:
            self.lines.append(f"if not _isfinite({name}):")
            self.lines.append("    raise _NonFinite")

    def emit(self, e: Expr) -> str:
        """Append the statements computing `e`; return the name holding it."""
        value = _literal(e)
        if value is not None:
            return self.bind(value)
        if isinstance(e, Var) and e.name in _VARIABLES:
            return "t" if e.name == "t" else "u"
        if isinstance(e, Unary) and e.op == "-":
            return self.assign(f"-{self.emit(e.arg)}")
        if isinstance(e, Binary) and e.op in _LBP:
            a = self.emit(e.left)
            b = self.emit(e.right)
            if e.op == "^":
                return self.power(a, b, e.right)
            if e.op == "/":
                self.guard(b)
            return self.assign(f"{a} {e.op} {b}")
        if isinstance(e, Call) and len(e.args) == _FUNCTIONS.get(e.fn):
            args = [self.emit(a) for a in e.args]
            if e.fn == "pow":
                return self.power(*args, e.args[1])
            if e.fn in ("min", "max", "exp"):
                for a in args:
                    self.guard(a)
            if e.fn in ("min", "max"):
                # the comparison the builtin makes, without the call
                a, b = args
                return self.assign(f"{b} if {b} {'<' if e.fn == 'min' else '>'} {a} else {a}")
            return self.assign(f"_{e.fn}({args[0]})")
        raise TypeError(f"not a node of the expression grammar: {e!r}")

    def power(self, a: str, b: str, exponent: Expr) -> str:
        lit = _literal(exponent)
        if lit is None or not lit > 0.0:
            self.guard(a)  # inf^0, nan^0 and inf^-1 are finite
        self.guard(b)
        return self.assign(f"_mpow({a}, {b})")


class _NonFinite(ArithmeticError):
    """A compiled rhs met inf or nan where the next operation could hide it."""


# CPython interns the identifiers of every compiled function and drops
# them again when the function dies; that churn makes its table of
# interned strings grow by about 1 MiB over a corpus run.  Holding the
# names the emitter uses most keeps them interned for good.
_PINNED_NAMES = tuple(sys.intern(f"{kind}{i}") for kind in "kv" for i in range(128))

_COMPILED_HELPERS = {
    "_NonFinite": _NonFinite,
    "_Fallible": (ArithmeticError, ValueError),
    "_evaluate": evaluate,
    "_mpow": math.pow,
    "_isfinite": math.isfinite,
    "_sin": math.sin,
    "_cos": math.cos,
    "_exp": math.exp,
    "_log": math.log,
    "_abs": abs,
}


def compile_expr(e: Expr) -> Callable[[float, float], float]:
    """Compile a tree into a straight-line function f(t, u).

    The function returns what `evaluate(e, t, u)` returns and raises
    what it raises, bit for bit, sign of zero and EvalError message and
    offset included.  It runs `evaluate`'s operations in the same order
    without the per-node dispatch, with negated literals folded, powers
    taken by `math.pow` and min and max as one comparison, and tests
    finiteness only where an inf or nan could turn finite again (a
    divisor, the other operands of a power, the arguments of min, max
    and exp, and the root).  If a test fails or an operation raises (a
    zero divisor, a log of a nonpositive value, an overflow, a domain
    error), it returns `evaluate(e, t, u)` instead.  A tree `evaluate`
    rejects with TypeError is rejected here, at compile time.  Compile
    once per tree and call many times; `evaluate` stays the reference.
    """
    em = _Emitter()
    result = em.emit(e)
    em.guard(result)
    tree = em.bind(e)
    params = ", ".join([*_COMPILED_HELPERS, *em.bound])
    body = "\n".join(f"            {line}" for line in em.lines)
    src = (
        f"def _make({params}):\n"
        f"    def rhs(t, u):\n"
        f"        try:\n"
        f"{body}\n"
        f"            return {result}\n"
        f"        except _Fallible:\n"
        f"            pass\n"
        f"        return _evaluate({tree}, t, u)\n"
        f"    return rhs\n"
    )
    ns: dict = {}
    exec(compile(src, "<fracode rhs>", "exec"), {"__builtins__": {}}, ns)
    return ns["_make"](**_COMPILED_HELPERS, **em.bound)


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _LBP[e.op]
    if isinstance(e, Unary):
        return _UNARY_BP
    return 100


def to_str(e: Expr) -> str:
    """Canonical text form; parse(to_str(e)) reproduces the tree.

    Holds for any tree the parser can produce (the parser never emits
    a negative Num literal, it parses "-2" as unary minus).
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        arg = to_str(e.arg)
        if _prec(e.arg) < _UNARY_BP:
            arg = f"({arg})"
        return f"-{arg}"
    if isinstance(e, Binary):
        bp = _LBP[e.op]
        left = to_str(e.left)
        right = to_str(e.right)
        if e.op == "^":
            # right-assoc: parenthesize an equal-power left child
            if _prec(e.left) <= bp:
                left = f"({left})"
            if _prec(e.right) < bp:
                right = f"({right})"
        else:
            if _prec(e.left) < bp:
                left = f"({left})"
            if _prec(e.right) <= bp:
                right = f"({right})"
        return f"{left} {e.op} {right}" if bp == 10 else f"{left}{e.op}{right}"
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(to_str(a) for a in e.args)})"
    raise TypeError(f"not an Expr node: {e!r}")


def _has_var(e: Expr, name: str | None = None) -> bool:
    # does e mention the variable `name`, or any variable when None?
    if isinstance(e, Var):
        return name is None or e.name == name
    if isinstance(e, Unary):
        return _has_var(e.arg, name)
    if isinstance(e, Binary):
        return _has_var(e.left, name) or _has_var(e.right, name)
    if isinstance(e, Call):
        return any(_has_var(a, name) for a in e.args)
    return False


def _const_value(e: Expr) -> float | None:
    # fold a variable-free subtree; None if it has variables or fails
    if _has_var(e):
        return None
    try:
        return evaluate(e, 0.0, 0.0)
    except EvalError:
        return None


def _factors(e: Expr) -> tuple[float, list[tuple[Expr, bool]]]:
    # (sign, factors) of a product/quotient: unary minus signs folded
    # into the sign, each factor with whether it divides
    sign = 1.0
    factors: list[tuple[Expr, bool]] = []

    def split(node: Expr, inverted: bool):
        nonlocal sign
        if isinstance(node, Unary) and node.op == "-":
            sign = -sign
            split(node.arg, inverted)
        elif isinstance(node, Binary) and node.op == "*":
            split(node.left, inverted)
            split(node.right, inverted)
        elif isinstance(node, Binary) and node.op == "/":
            split(node.left, inverted)
            split(node.right, not inverted)
        else:
            factors.append((node, inverted))

    split(e, False)
    return sign, factors


def _is_u(e: Expr) -> bool:
    return isinstance(e, Var) and e.name == "u"


def match_power_law(e: Expr) -> tuple[float, float] | None:
    """Recognize f(t,u) = A * u^p; return (A, p) or None.

    Handles products/quotients of constant factors with one u-factor
    shaped like u, u^c, or pow(u, c), with unary minus folded into A.
    Constants are folded exactly (never sampled), so downstream
    asymptotic formulas see the same A and p the user typed.
    """
    a, factors = _factors(e)
    p: float | None = None
    for node, inverted in factors:
        if _has_var(node, "u"):
            if p is not None:
                return None
            if _is_u(node):
                p = 1.0
            elif isinstance(node, Binary) and node.op == "^" and _is_u(node.left):
                c = _const_value(node.right)
                if c is None:
                    return None
                p = c
            elif isinstance(node, Call) and node.fn == "pow" and _is_u(node.args[0]):
                c = _const_value(node.args[1])
                if c is None:
                    return None
                p = c
            else:
                return None
            if inverted:
                p = -p
        else:
            c = _const_value(node)
            if c is None:
                return None
            a = a / c if inverted else a * c
    if p is None:
        return None
    return a, p


def match_affine(e: Expr) -> tuple[Callable[[float], float], Callable[[float], float]] | None:
    """Recognize f(t,u) = a(t) u + b(t); return compiled (a, b) or None.

    The tree must be a sum, under + and - and unary minus, of terms
    that are each free of u or a product/quotient of u-free factors and
    one factor u that does not divide (the factor walk of
    `match_power_law`).  a sums the u terms' coefficients and b the
    u-free terms, in the order they appear, each compiled by
    `compile_expr` as a function of t alone; a sum with no term of a
    kind gives 0.0 for it.  a(t) u + b(t) equals f(t, u) up to rounding,
    and a or b raise EvalError where their terms do not evaluate.
    """
    terms: list[tuple[Expr, bool]] = []

    def split(node: Expr, negated: bool):
        if isinstance(node, Unary) and node.op == "-":
            split(node.arg, not negated)
        elif isinstance(node, Binary) and node.op in ("+", "-"):
            split(node.left, negated)
            split(node.right, negated != (node.op == "-"))
        else:
            terms.append((node, negated))

    split(e, False)
    coefs: list[Expr] = []
    free: list[Expr] = []
    for node, negated in terms:
        if not _has_var(node, "u"):
            free.append(Unary("-", node) if negated else node)
            continue
        sign, factors = _factors(node)
        rest = [(f, inv) for f, inv in factors if not _is_u(f)]
        if [inv for f, inv in factors if _is_u(f)] != [False] or any(
            _has_var(f, "u") for f, _ in rest
        ):
            return None
        coef: Expr = Num(1.0)
        for i, (f, inv) in enumerate(rest):
            coef = f if i == 0 and not inv else Binary("/" if inv else "*", coef, f)
        coefs.append(Unary("-", coef) if (sign < 0.0) != negated else coef)
    return _compile_of_t(coefs), _compile_of_t(free)


def _compile_of_t(terms: list[Expr]) -> Callable[[float], float]:
    # the compiled sum of u-free terms as a function of t; 0.0 when empty
    if not terms:
        return lambda t: 0.0
    total = terms[0]
    for term in terms[1:]:
        total = Binary("+", total, term)
    fn = compile_expr(total)
    return lambda t: fn(t, 0.0)


def lipschitz_probe(
    e: Expr,
    t_range: tuple[float, float],
    u_range: tuple[float, float],
    n: int = 33,
    compiled: Callable[[float, float], float] | None = None,
) -> float:
    """Finite-difference estimate of max |df/du| over a box.

    Central differences on an n-by-n grid; probe points where
    evaluation fails (domain edges) are skipped.  Raises EvalError if
    no probe point evaluates.  `compiled` is `compile_expr(e)` if the
    caller has it already.
    """
    t_lo, t_hi = t_range
    u_lo, u_hi = u_range
    du = max(1e-7 * (abs(u_lo) + abs(u_hi) + 1.0), 1e-9)
    f = compile_expr(e) if compiled is None else compiled
    best = None
    for i in range(n):
        t = t_lo + (t_hi - t_lo) * (i / (n - 1) if n > 1 else 0.5)
        for j in range(n):
            u = u_lo + (u_hi - u_lo) * (j / (n - 1) if n > 1 else 0.5)
            try:
                hi = f(t, u + du)
                lo = f(t, u - du)
            except EvalError:
                continue
            slope = abs(hi - lo) / (2.0 * du)
            if best is None or slope > best:
                best = slope
    if best is None:
        raise EvalError("no probe point in the box was evaluable", 0)
    return best
