"""Arithmetic expressions in the state variable x and time t.

Drift and diffusion coefficients, candidate energy functions and time
weights all enter the lab as small expression strings ("-1.0*x",
"exp(-2*t)*x^2").  This module gives them one shared meaning: a
recursive-descent parser onto an immutable tree, a checked numpy-backed
evaluator, exact symbolic differentiation, a canonical serializer, and a
codegen path for tight integration loops.

Grammar (the textual contract)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' number)?
    atom   := number | 'x' | 't' | func '(' expr ')' | '(' expr ')'
    func   := 'exp'|'log'|'sin'|'cos'|'sqrt'|'abs'|'sign'
    number := decimal literal with optional exponent

Exponents are numeric literals only, so every power node has a constant
exponent and differentiation stays closed over the node set.  Numeric
constants (decay rates, band edges) are substituted into the text before
parsing; there are no free identifiers besides x and t.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "EvalOverflowError",
    "parse",
    "evaluate",
    "check_domain",
    "differentiate",
    "to_source",
    "compile_fn",
    "contains_nonsmooth",
    "free_variables",
]

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs", "sign")
VARIABLES = ("x", "t")

# Unary ops whose pointwise derivative does not exist everywhere; their
# formal derivatives (sign(x), 0) are used and callers surface a caveat.
NONSMOOTH_OPS = frozenset({"abs", "sign"})


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Source text rejected; `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation left the domain (division by zero, log of a
    non-positive value, negative base under a fractional power, or a
    non-finite intermediate).  Identifies the offending subexpression."""

    def __init__(self, message: str, node: "Expr"):
        where = to_source(node)
        if len(where) > 60:
            where = where[:57] + "..."
        off = getattr(node, "offset", None)
        loc = f" at offset {off}" if off is not None else ""
        super().__init__(f"{message} in '{where}'{loc}")
        self.node = node


class EvalOverflowError(EvalDomainError):
    """A finite argument gave a non-finite result (arithmetic overflow,
    such as exp of a large state) rather than leaving a function's
    domain."""


@dataclass(frozen=True)
class Expr:
    """Immutable expression node.  Equality is structural and ignores
    source offsets, so parse(to_source(e)) == e can hold."""


@dataclass(frozen=True)
class Const(Expr):
    value: float
    offset: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    offset: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.name not in VARIABLES:
            raise ValueError(f"unknown variable {self.name!r}")


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' or one of FUNCTIONS
    child: Expr
    offset: int | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # 'add' | 'sub' | 'mul' | 'div' | 'pow'
    left: Expr
    right: Expr
    offset: int | None = field(default=None, compare=False)

    def __post_init__(self):
        # pow exponents are constants by the grammar; keep programmatic
        # construction honest too.
        if self.op == "pow" and not isinstance(self.right, Const):
            raise ValueError("power exponent must be a numeric constant")


def _neg(child: Expr, offset: int | None = None) -> Expr:
    # fold negated literals so "-2*t" carries the constant -2 directly
    if isinstance(child, Const):
        return Const(-child.value, offset)
    return Unary("neg", child, offset)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return e

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Binary("add" if text == "+" else "sub", node, rhs, off)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Binary("mul" if text == "*" else "div", node, rhs, off)
            else:
                return node

    def factor(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return _neg(self.factor(), off)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, noff = self.peek()
            if nkind != "num":
                raise ParseError("power exponent must be a numeric literal", noff)
            self.advance()
            return Binary("pow", base, Const(float(ntext), noff), off)
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Const(float(text), off)
        if kind == "ident":
            if text in VARIABLES:
                return Var(text, off)
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                nkind, ntext, noff = self.peek()
                if nkind == "op" and ntext == ",":
                    raise ParseError(
                        f"arity mismatch: {text} takes exactly one argument", noff
                    )
                self.expect_op(")")
                return Unary(text, arg, off)
            raise ParseError(f"unknown identifier {text!r}", off)
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected expression, got {text!r}" if text else "expected expression", off)


def parse(source: str) -> Expr:
    """Parse source text to an expression tree.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, arity mismatches, and non-constant power exponents.
    """
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# canonical serializer

# Printing precedence; parenthesization keeps parse(to_source(e)) == e for
# every tree this module can build, except power nodes with negative
# exponents, which the grammar cannot spell and which print as 1/base^|c|
# (value-equal; parse-print reaches a fixpoint after one round trip).
_PREC_ATOM = 5
_PREC_POW = 4
_PREC_NEG = 3
_PREC_MUL = 2
_PREC_ADD = 1
_PREC_WRAP_ALWAYS = 0


def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _PREC_ATOM if e.value >= 0 else _PREC_WRAP_ALWAYS
    if isinstance(e, Var):
        return _PREC_ATOM
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    assert isinstance(e, Binary)
    if e.op == "pow":
        return _PREC_POW
    if e.op in ("mul", "div"):
        return _PREC_MUL
    return _PREC_ADD


def _wrap(e: Expr, minimum: int) -> str:
    s = to_source(e)
    return f"({s})" if _prec(e) < minimum else s


def to_source(e: Expr) -> str:
    """Serialize to text the parser accepts."""
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            return "-" + _wrap(e.child, _PREC_NEG)
        return f"{e.op}({to_source(e.child)})"
    assert isinstance(e, Binary)
    if e.op == "add":
        return f"{_wrap(e.left, _PREC_ADD)} + {_wrap(e.right, _PREC_ADD + 1)}"
    if e.op == "sub":
        return f"{_wrap(e.left, _PREC_ADD)} - {_wrap(e.right, _PREC_ADD + 1)}"
    if e.op == "mul":
        return f"{_wrap(e.left, _PREC_MUL)}*{_wrap(e.right, _PREC_MUL + 1)}"
    if e.op == "div":
        return f"{_wrap(e.left, _PREC_MUL)}/{_wrap(e.right, _PREC_MUL + 1)}"
    # pow
    c = e.right.value  # type: ignore[union-attr]
    if c < 0:
        return to_source(Binary("div", Const(1.0), Binary("pow", e.left, Const(-c))))
    return f"{_wrap(e.left, _PREC_ATOM)}^{repr(float(c))}"


# ---------------------------------------------------------------------------
# checked evaluation

def _check_finite(val, node: Expr):
    if not np.all(np.isfinite(val)):
        raise EvalOverflowError("non-finite result", node)
    return val


def _eval(e: Expr, x, t):
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        return x if e.name == "x" else t
    if isinstance(e, Unary):
        u = _eval(e.child, x, t)
        with np.errstate(all="ignore"):
            if e.op == "neg":
                return -u
            if e.op == "abs":
                return np.abs(u)
            if e.op == "sign":
                return np.sign(u)
            if e.op == "exp":
                return _check_finite(np.exp(u), e)
            if e.op == "log":
                if np.any(u <= 0):
                    raise EvalDomainError("log of a non-positive value", e)
                return _check_finite(np.log(u), e)
            if e.op == "sin":
                return np.sin(u)
            if e.op == "cos":
                return np.cos(u)
            if e.op == "sqrt":
                if np.any(u < 0):
                    raise EvalDomainError("sqrt of a negative value", e)
                return np.sqrt(u)
        raise AssertionError(e.op)
    assert isinstance(e, Binary)
    a = _eval(e.left, x, t)
    if e.op == "pow":
        c = e.right.value  # type: ignore[union-attr]
        with np.errstate(all="ignore"):
            if float(c).is_integer():
                if c < 0 and np.any(a == 0):
                    raise EvalDomainError("zero base under a negative power", e)
            else:
                if np.any(a < 0):
                    raise EvalDomainError(
                        "negative base under a fractional power", e
                    )
                if c < 0 and np.any(a == 0):
                    raise EvalDomainError("zero base under a negative power", e)
            return _check_finite(np.power(a, c), e)
    b = _eval(e.right, x, t)
    with np.errstate(all="ignore"):
        if e.op == "add":
            return _check_finite(a + b, e)
        if e.op == "sub":
            return _check_finite(a - b, e)
        if e.op == "mul":
            return _check_finite(a * b, e)
        if e.op == "div":
            if np.any(b == 0):
                raise EvalDomainError("division by zero", e)
            return _check_finite(a / b, e)
    raise AssertionError(e.op)


def evaluate(e: Expr, x, t):
    """Evaluate at x, t (scalars or broadcastable arrays).

    Total on its domain: domain violations and non-finite intermediates
    raise EvalDomainError instead of propagating nan/inf.
    """
    return _eval(e, x, t)


def check_domain(exprs, x, t) -> None:
    """Re-evaluate exprs at one point whose compiled result was non-finite.

    A domain violation raises EvalDomainError naming the offending node;
    plain overflow (EvalOverflowError) returns, so the caller can treat
    it as an explosion."""
    for e in exprs:
        try:
            evaluate(e, x, t)
        except EvalOverflowError:
            pass


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, var: str) -> Expr:
    """Exact formal derivative with respect to 'x' or 't'.

    abs and sign differentiate formally (d|u| = sign(u) du, d sign(u) = 0);
    both are non-differentiable at u = 0, which callers report as a caveat
    via contains_nonsmooth.
    """
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    return _d(e, var)


def _d(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    if isinstance(e, Unary):
        u = e.child
        du = _d(u, var)
        if e.op == "neg":
            return _neg(du)
        if e.op == "abs":
            return Binary("mul", Unary("sign", u), du)
        if e.op == "sign":
            return Const(0.0)
        if e.op == "exp":
            return Binary("mul", Unary("exp", u), du)
        if e.op == "log":
            return Binary("div", du, u)
        if e.op == "sin":
            return Binary("mul", Unary("cos", u), du)
        if e.op == "cos":
            return _neg(Binary("mul", Unary("sin", u), du))
        if e.op == "sqrt":
            return Binary("div", du, Binary("mul", Const(2.0), Unary("sqrt", u)))
        raise AssertionError(e.op)
    assert isinstance(e, Binary)
    if e.op == "add":
        return Binary("add", _d(e.left, var), _d(e.right, var))
    if e.op == "sub":
        return Binary("sub", _d(e.left, var), _d(e.right, var))
    if e.op == "mul":
        return Binary(
            "add",
            Binary("mul", _d(e.left, var), e.right),
            Binary("mul", e.left, _d(e.right, var)),
        )
    if e.op == "div":
        num = Binary(
            "sub",
            Binary("mul", _d(e.left, var), e.right),
            Binary("mul", e.left, _d(e.right, var)),
        )
        return Binary("div", num, Binary("pow", e.right, Const(2.0)))
    # pow with constant exponent: d u^c = c u^(c-1) du
    c = e.right.value  # type: ignore[union-attr]
    if c == 0:
        return Const(0.0)
    return Binary(
        "mul",
        Binary("mul", Const(float(c)), Binary("pow", e.left, Const(float(c) - 1.0))),
        _d(e.left, var),
    )


# ---------------------------------------------------------------------------
# codegen for hot loops

_UNARY_SRC = {
    "neg": "(-{0})",
    "abs": "np.abs({0})",
    "sign": "np.sign({0})",
    "exp": "np.exp({0})",
    "log": "np.log({0})",
    "sin": "np.sin({0})",
    "cos": "np.cos({0})",
    "sqrt": "np.sqrt({0})",
}

_BINARY_SRC = {
    "add": "({0} + {1})",
    "sub": "({0} - {1})",
    "mul": "({0}*{1})",
    "div": "({0}/{1})",
    "pow": "({0}**{1})",
}


def _codegen(e: Expr) -> str:
    if isinstance(e, Const):
        return f"({float(e.value)!r})"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        return _UNARY_SRC[e.op].format(_codegen(e.child))
    assert isinstance(e, Binary)
    return _BINARY_SRC[e.op].format(_codegen(e.left), _codegen(e.right))


def compile_fn(e: Expr):
    """Compile to an unchecked vectorized callable (x, t) -> value.

    Used inside integration loops where per-node domain checks would
    dominate; callers watch for non-finite states instead and fall back
    to evaluate() to attribute failures.
    """
    src = _codegen(e)
    return eval(f"lambda x, t: {src}", {"np": np, "__builtins__": {}})


# ---------------------------------------------------------------------------
# tree queries

def contains_nonsmooth(e: Expr) -> bool:
    """True when the tree uses abs or sign (non-differentiable at 0)."""
    if isinstance(e, Unary):
        return e.op in NONSMOOTH_OPS or contains_nonsmooth(e.child)
    if isinstance(e, Binary):
        return contains_nonsmooth(e.left) or contains_nonsmooth(e.right)
    return False


def free_variables(e: Expr) -> set[str]:
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return free_variables(e.child)
    if isinstance(e, Binary):
        return free_variables(e.left) | free_variables(e.right)
    return set()
