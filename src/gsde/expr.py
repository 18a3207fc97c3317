"""Arithmetic expressions in the state variable x and time t.

Drift and diffusion coefficients, candidate energy functions and time
weights all enter the lab as small expression strings ("-1.0*x",
"exp(-2*t)*x^2").  This module gives them one shared meaning: a
recursive-descent parser onto an immutable tree, a checked numpy-backed
evaluator, exact symbolic differentiation, a canonical serializer, and a
codegen path for tight integration loops.

Grammar (the textual contract, its tokens spelled by the operator table)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' number)?
    atom   := number | 'x' | 't' | func '(' expr ')' | '(' expr ')'
    func   := 'exp'|'log'|'sin'|'cos'|'sqrt'|'abs'|'sign'
    number := finite decimal literal with optional exponent

Exponents are numeric literals only, so every power node has a constant
exponent and differentiation stays closed over the node set.  Numeric
constants (decay rates, band edges) are substituted into the text before
parsing; there are no free identifiers besides x and t.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

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
    "KERNEL_MODE",
    "contains_nonsmooth",
    "free_variables",
]

VARIABLES = ("x", "t")


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

    def __post_init__(self):
        # a non-finite constant has no source text the parser reads back
        if not math.isfinite(self.value):
            raise ValueError(f"constant {self.value!r} is not finite")


@dataclass(frozen=True)
class Var(Expr):
    name: str
    offset: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.name not in VARIABLES:
            raise ValueError(f"unknown variable {self.name!r}")


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # a key of _UNARY
    child: Expr
    offset: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.op not in _UNARY:
            raise ValueError(f"unknown unary op {self.op!r}")


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # a key of _BINARY
    left: Expr
    right: Expr
    offset: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.op not in _BINARY:
            raise ValueError(f"unknown binary op {self.op!r}")
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
# operator table

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


@dataclass(frozen=True)
class _Op:
    """Everything one operator means, read by evaluate, compile_fn,
    differentiate and to_source.

    fn is the numpy kernel evaluate applies and src the template compile_fn
    emits; both must give the same bits on Python floats and on arrays.
    `+ - *` emit Python operators, which are IEEE-identical to numpy's and
    cost a twentieth of a ufunc call on the scalar integration loop; `/`
    and `^` emit np.divide and np.power, since Python's raise on zero
    division and overflow and use a different pow.  A src that starts
    with `np.` is one numpy call, which _codegen's scalar form wraps in
    float().  domain lists
    (predicate, message) pairs over the operands, checked in order before
    fn; finite makes a non-finite result an EvalOverflowError.  d maps the
    operands followed by their derivatives to the derivative tree.
    rewrite maps simplified operands to a smaller tree by an exact
    identity, or to None when none applies (see _simplify).  prec and sym
    are the level and token the parser and to_source use; a unary row
    without sym is a call.  smooth is False where d is only formal."""

    fn: Callable
    src: str
    d: Callable
    domain: tuple = ()
    finite: bool = False
    prec: int = _PREC_ATOM
    sym: str = ""
    rewrite: Callable | None = None
    smooth: bool = True


_UNARY = {
    "neg": _Op(np.negative, "(-{0})", lambda u, du: _neg(du),
               prec=_PREC_NEG, sym="-"),
    "abs": _Op(np.abs, "np.abs({0})",
               lambda u, du: Binary("mul", Unary("sign", u), du), smooth=False),
    "sign": _Op(np.sign, "np.sign({0})", lambda u, du: Const(0.0), smooth=False),
    "exp": _Op(np.exp, "np.exp({0})", lambda u, du: Binary("mul", Unary("exp", u), du),
               finite=True),
    "log": _Op(np.log, "np.log({0})", lambda u, du: Binary("div", du, u),
               domain=((lambda u: np.any(u <= 0), "log of a non-positive value"),),
               finite=True),
    "sin": _Op(np.sin, "np.sin({0})",
               lambda u, du: Binary("mul", Unary("cos", u), du)),
    "cos": _Op(np.cos, "np.cos({0})",
               lambda u, du: _neg(Binary("mul", Unary("sin", u), du))),
    "sqrt": _Op(np.sqrt, "np.sqrt({0})",
                lambda u, du: Binary(
                    "div", du, Binary("mul", Const(2.0), Unary("sqrt", u))),
                domain=((lambda u: np.any(u < 0), "sqrt of a negative value"),)),
}


def _d_pow(u, c, du, dc):
    # constant exponent: d u^c = c u^(c-1) du
    if c.value == 0:
        return Const(0.0)
    return Binary(
        "mul",
        Binary("mul", Const(float(c.value)),
               Binary("pow", u, Const(float(c.value) - 1.0))),
        du,
    )


def _is(e: Expr, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


def _rewrite_mul(a, b):
    # 0*u is not exact (0*inf, 0*nan) and would hide u's domain errors;
    # it folds only where u can fail by overflow alone
    if _is(a, 1):
        return b
    if _is(b, 1):
        return a
    if (_is(a, 0) and _domain_free(b)) or (_is(b, 0) and _domain_free(a)):
        return Const(0.0)
    return None


def _rewrite_pow(u, c):
    if c.value == 1:
        return u
    if c.value == 0 and _domain_free(u):
        return Const(1.0)
    return None


_BINARY = {
    "add": _Op(np.add, "({0} + {1})", lambda a, b, da, db: Binary("add", da, db),
               finite=True, prec=_PREC_ADD, sym=" + ",
               rewrite=lambda a, b: b if _is(a, 0) else a if _is(b, 0) else None),
    "sub": _Op(np.subtract, "({0} - {1})", lambda a, b, da, db: Binary("sub", da, db),
               finite=True, prec=_PREC_ADD, sym=" - ",
               rewrite=lambda a, b: a if _is(b, 0) else _neg(b) if _is(a, 0) else None),
    "mul": _Op(np.multiply, "({0}*{1})",
               lambda a, b, da, db: Binary(
                   "add", Binary("mul", da, b), Binary("mul", a, db)),
               finite=True, prec=_PREC_MUL, sym="*", rewrite=_rewrite_mul),
    "div": _Op(np.divide, "np.divide({0}, {1})",
               lambda a, b, da, db: Binary(
                   "div",
                   Binary("sub", Binary("mul", da, b), Binary("mul", a, db)),
                   Binary("pow", b, Const(2.0))),
               domain=((lambda a, b: np.any(b == 0), "division by zero"),),
               finite=True, prec=_PREC_MUL, sym="/",
               rewrite=lambda a, b: a if _is(b, 1) else None),
    "pow": _Op(np.power, "np.power({0}, {1})", _d_pow,
               domain=(
                   (lambda a, c: not float(c).is_integer() and np.any(a < 0),
                    "negative base under a fractional power"),
                   (lambda a, c: c < 0 and np.any(a == 0),
                    "zero base under a negative power"),
               ),
               finite=True, prec=_PREC_POW, sym="^", rewrite=_rewrite_pow),
}


def _row(e: Unary | Binary) -> _Op:
    return (_UNARY if isinstance(e, Unary) else _BINARY)[e.op]


def _operands(e: Unary | Binary) -> tuple:
    return (e.child,) if isinstance(e, Unary) else (e.left, e.right)


def _nodes(e: Expr):
    """e and every node below it, in pre-order."""
    yield e
    for k in _operands(e) if isinstance(e, (Unary, Binary)) else ():
        yield from _nodes(k)


def _domain_free(e: Expr) -> bool:
    """True when no domain rule can fire anywhere in e: no log, sqrt or
    division, and no power with a fractional or negative exponent.  Such
    a tree can fail only by overflow."""
    for n in _nodes(e):
        if isinstance(n, Binary) and n.op == "pow":
            c = n.right.value  # type: ignore[union-attr]
            if c < 0 or not float(c).is_integer():
                return False
        elif isinstance(n, (Unary, Binary)) and _row(n).domain:
            return False
    return True


# ---------------------------------------------------------------------------
# tokenizer / parser

# the op tokens are the table's syms; power reads pow, whose exponent is a
# literal, and expr the other binary rows by level, loosest first
_SYMBOLS = "".join(row.sym.strip() for row in (*_UNARY.values(), *_BINARY.values()))
_INFIX = {row.sym.strip(): op for op, row in _BINARY.items() if op != "pow"}
_LEVELS = sorted({_BINARY[op].prec for op in _INFIX.values()})

# the number token; config reads a sweep value by it too
_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUMBER})"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    rf"|(?P<op>[{re.escape(_SYMBOLS)}(),])"
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

    def expr(self, level: int = 0) -> Expr:
        """A left-associative chain of the infix rows at _LEVELS[level],
        each operand read at the next level; a factor past the last."""
        if level == len(_LEVELS):
            return self.factor()
        node = self.expr(level + 1)
        while True:
            kind, text, off = self.peek()
            op = _INFIX.get(text) if kind == "op" else None
            if op is None or _BINARY[op].prec != _LEVELS[level]:
                return node
            self.advance()
            node = Binary(op, node, self.expr(level + 1), off)

    def factor(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == _UNARY["neg"].sym:
            self.advance()
            return _neg(self.factor(), off)
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == _BINARY["pow"].sym:
            self.advance()
            nkind, ntext, noff = self.peek()
            if nkind != "num":
                raise ParseError("power exponent must be a numeric literal", noff)
            self.advance()
            return Binary("pow", base, _literal(ntext, noff), off)
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return _literal(text, off)
        if kind == "ident":
            if text in VARIABLES:
                return Var(text, off)
            if text in _UNARY and not _UNARY[text].sym:
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


def _literal(text: str, offset: int) -> Const:
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"number {text} is not finite", offset)
    return Const(value, offset)


def parse(source: str) -> Expr:
    """Parse source text to an expression tree.

    Raises ParseError (with byte offset) on syntax errors, unknown
    identifiers, arity mismatches, non-constant power exponents, and
    literals too large for a float.
    """
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# canonical serializer

def _prec(e: Expr) -> int:
    if isinstance(e, Const):
        return _PREC_ATOM if e.value >= 0 else _PREC_WRAP_ALWAYS
    if isinstance(e, Var):
        return _PREC_ATOM
    return _row(e).prec


def _wrap(e: Expr, minimum: int) -> str:
    s = to_source(e)
    return f"({s})" if _prec(e) < minimum else s


def to_source(e: Expr) -> str:
    """Serialize to text the parser accepts."""
    if isinstance(e, Const):
        return repr(float(e.value))
    if isinstance(e, Var):
        return e.name
    row = _row(e)
    if isinstance(e, Unary):
        if row.sym:
            return row.sym + _wrap(e.child, row.prec)
        return f"{e.op}({to_source(e.child)})"
    if e.op != "pow":
        return f"{_wrap(e.left, row.prec)}{row.sym}{_wrap(e.right, row.prec + 1)}"
    c = e.right.value  # type: ignore[union-attr]
    if c < 0:
        return to_source(Binary("div", Const(1.0), Binary("pow", e.left, Const(-c))))
    return f"{_wrap(e.left, _PREC_ATOM)}{row.sym}{repr(float(c))}"


# ---------------------------------------------------------------------------
# checked evaluation

def _eval(e: Expr, x, t, keep=None):
    """The checked walk.  keep, if given, masks the states (x and t have its
    shape): the domain rules read the kept states only, and a kept state
    leaves where a finite row overflows instead of raising."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, Var):
        return x if e.name == "x" else t
    row = _row(e)
    args = [_eval(child, x, t, keep) for child in _operands(e)]
    kept = args if keep is None else [a[keep] if np.ndim(a) else a for a in args]
    for bad, message in row.domain:
        if bad(*kept):
            raise EvalDomainError(message, e)
    val = row.fn(*args)
    if row.finite:
        ok = np.isfinite(val)
        if keep is not None:
            keep &= ok
        elif not np.all(ok):
            raise EvalOverflowError("non-finite result", e)
    return val


def evaluate(e: Expr, x, t):
    """Evaluate at x, t (scalars or broadcastable arrays).

    Total on its domain: domain violations and non-finite intermediates
    raise EvalDomainError instead of propagating nan/inf.
    """
    with np.errstate(all="ignore"):
        return _eval(e, x, t)


def check_domain(exprs, x, t) -> None:
    """Re-check exprs at every finite state of x (one state or an array of
    states, at time t); a nan state (a flagged lane) is skipped.

    A domain violation raises EvalDomainError naming the offending node;
    plain overflow passes, so the caller can treat it as an explosion.
    Each expression is one masked walk (_eval) over all states, so one
    state's overflow cannot hide another's domain violation."""
    xs, ts = np.broadcast_arrays(np.atleast_1d(np.asarray(x, dtype=float)), t)
    with np.errstate(all="ignore"):
        for e in exprs:
            _eval(e, xs, ts, np.isfinite(xs))


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expr, var: str) -> Expr:
    """Exact formal derivative with respect to 'x' or 't', simplified by
    exact identities (_simplify).

    abs and sign differentiate formally (d|u| = sign(u) du, d sign(u) = 0);
    both are non-differentiable at u = 0, which callers report as a caveat
    via contains_nonsmooth.
    """
    if var not in VARIABLES:
        raise ValueError(f"unknown variable {var!r}")
    return _simplify(_d(e, var))


def _d(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.name == var else 0.0)
    kids = _operands(e)
    return _row(e).d(*kids, *(_d(k, var) for k in kids))


def _simplify(e: Expr) -> Expr:
    """Rewrite e bottom-up by exact identities: constant subtrees fold
    through their row's own fn where no domain rule fires and the result
    is finite, then the row's rewrite applies.  Wherever e evaluates at
    finite points, the result gives the same floats, up to the sign of a
    zero; a domain error e raises is still raised, and only an overflow
    under a dropped 0*u or u^0 can vanish."""
    if isinstance(e, (Const, Var)):
        return e
    row = _row(e)
    kids = [_simplify(k) for k in _operands(e)]
    if all(isinstance(k, Const) for k in kids):
        args = [np.float64(k.value) for k in kids]
        if not any(bad(*args) for bad, _ in row.domain):
            with np.errstate(all="ignore"):
                val = row.fn(*args)
            if np.isfinite(val):
                return Const(float(val))
    out = row.rewrite(*kids) if row.rewrite is not None else None
    if out is not None:
        return out
    return type(e)(e.op, *kids, e.offset)


# ---------------------------------------------------------------------------
# codegen for hot loops

def _codegen(e: Expr, scalar: bool = False) -> str:
    """The source of e over x and t.  scalar wraps each numpy call in
    float(): a ufunc returns np.float64 even on Python floats, and the `+ -
    *` after it would run on np.float64 at several times the cost.  The
    conversion is exact and `+ - *` are IEEE-identical on both types, so
    on Python floats both forms give the same bits."""
    if isinstance(e, Const):
        return f"({float(e.value)!r})"
    if isinstance(e, Var):
        return e.name
    src = _row(e).src.format(*(_codegen(k, scalar) for k in _operands(e)))
    return f"float({src})" if scalar and src.startswith("np.") else src


# The numpy mode of the stepping loops.  Every domain rule of the operator
# table sets the divide or invalid flag where it fires, so a kernel that
# raises one re-checks itself; overflow is left to the explosion threshold.
KERNEL_MODE = {"divide": "raise", "invalid": "raise", "over": "ignore", "under": "ignore"}

_KERNEL = """def kernel({params}):
    try:
        return {body}
    except FloatingPointError:
        check_domain(exprs, x, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        return {body}
"""


def compile_fn(e: Expr):
    """Compile to a vectorized kernel (x, t) -> value, for the stepping
    loops, where per-node checks would dominate.  Wherever evaluate
    succeeds it returns the same bits, for Python floats and arrays alike;
    under KERNEL_MODE it raises where evaluate raises a domain error at
    some state, and returns the unchecked value where evaluate overflows."""
    return _compile("x, t", _codegen(e), (e,))


def _compile(params: str, body: str, exprs):
    """_KERNEL over _codegen output: a call that raises numpy's divide or
    invalid flag runs check_domain(exprs, x, t), then recomputes body with
    both flags ignored."""
    scope = {"np": np, "check_domain": check_domain, "exprs": exprs,
             "FloatingPointError": FloatingPointError, "float": float,
             "__builtins__": {}}
    exec(_KERNEL.format(params=params, body=body), scope)
    return scope["kernel"]


# ---------------------------------------------------------------------------
# tree queries

def contains_nonsmooth(e: Expr) -> bool:
    """True when the tree uses a row that is not smooth (abs, sign)."""
    return any(isinstance(n, (Unary, Binary)) and not _row(n).smooth
               for n in _nodes(e))


def free_variables(e: Expr) -> set[str]:
    return {n.name for n in _nodes(e) if isinstance(n, Var)}
