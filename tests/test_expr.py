"""Expression parsing, printing, differentiation, evaluation."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsde.expr import (
    Binary,
    Const,
    EvalDomainError,
    EvalOverflowError,
    KERNEL_MODE,
    ParseError,
    Unary,
    Var,
    check_domain,
    compile_fn,
    contains_nonsmooth,
    differentiate,
    evaluate,
    free_variables,
    parse,
    to_source,
)
from gsde.expr import _BINARY, _UNARY, _d, _domain_free, _simplify

from conftest import any_exprs


class TestParsing:
    def test_structure_of_product(self):
        e = parse("exp(-2*t)*x^2")
        assert isinstance(e, Binary) and e.op == "mul"
        left, right = e.left, e.right
        assert isinstance(left, Unary) and left.op == "exp"
        inner = left.child
        assert isinstance(inner, Binary) and inner.op == "mul"
        assert isinstance(inner.left, Const) and inner.left.value == -2.0
        assert isinstance(inner.right, Var) and inner.right.name == "t"
        assert isinstance(right, Binary) and right.op == "pow"
        assert isinstance(right.left, Var) and right.left.name == "x"
        assert isinstance(right.right, Const) and right.right.value == 2.0

    def test_precedence(self):
        assert evaluate(parse("1+2*3"), 0.0, 0.0) == 7.0
        assert evaluate(parse("(1+2)*3"), 0.0, 0.0) == 9.0
        assert evaluate(parse("2*x^2"), 3.0, 0.0) == 18.0
        assert evaluate(parse("2^3"), 0.0, 0.0) == 8.0

    def test_unary_minus(self):
        assert evaluate(parse("-x^2"), 3.0, 0.0) == -9.0  # pow binds tighter
        assert evaluate(parse("(-x)^2"), 3.0, 0.0) == 9.0
        assert evaluate(parse("-x*t"), 3.0, 2.0) == -6.0
        assert evaluate(parse("2--3"), 0.0, 0.0) == 5.0

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + 2.5E2"), 0.0, 0.0) == 0.001 + 250.0
        assert evaluate(parse(".5*x"), 4.0, 0.0) == 2.0

    def test_functions(self):
        assert evaluate(parse("exp(0)"), 0.0, 0.0) == 1.0
        assert evaluate(parse("sin(0)+cos(0)"), 0.0, 0.0) == 1.0
        assert evaluate(parse("sqrt(x)*abs(x)*sign(x)"), 4.0, 0.0) == 8.0
        assert evaluate(parse("sign(-3)"), 0.0, 0.0) == -1.0

    def test_pow_requires_literal_exponent(self):
        with pytest.raises(ParseError, match="numeric literal"):
            parse("x^t")
        with pytest.raises(ParseError, match="numeric literal"):
            parse("x^(2)")
        with pytest.raises(ParseError, match="numeric literal"):
            parse("x^-2")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("y + 1")
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("tan(x)")

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse("exp(x, t)")

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x + 1 )")
        with pytest.raises(ParseError):
            parse("x x")

    def test_empty_and_garbage(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("*x")
        with pytest.raises(ParseError):
            parse("exp(")

    def test_error_offsets(self):
        try:
            parse("x + y")
        except ParseError as exc:
            assert exc.offset == 4
        else:
            raise AssertionError("expected ParseError")

    @pytest.mark.parametrize("text, offset", [("exp(x", 5), ("(x+1", 4)])
    def test_unclosed_parenthesis_offset(self, text, offset):
        with pytest.raises(ParseError, match=rf"^expected '\)' \(offset {offset}\)$"):
            parse(text)

    def test_free_variables(self):
        assert free_variables(parse("exp(-2*t)*x^2")) == {"x", "t"}
        assert free_variables(parse("3.5")) == set()
        assert free_variables(parse("sin(t)")) == {"t"}

    def test_contains_nonsmooth(self):
        assert contains_nonsmooth(parse("abs(x)"))
        assert contains_nonsmooth(parse("x*sign(t)"))
        assert not contains_nonsmooth(parse("exp(x)+t^2"))


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "x",
            "-x",
            "x + t",
            "x - t - 1",
            "x*t",
            "x/(t + 1)",
            "exp(-2*t)*x^2",
            "x^2 - 2*x + 1",
            "sqrt(abs(x))",
            "sign(x)*abs(x)^3",
            "1/(1 + t)",
            "-(x + t)",
            "2 - (x - t)",
            "x*(t - 1)*(t + 1)",
        ],
    )
    def test_round_trip_idempotent(self, text):
        e1 = parse(text)
        s1 = to_source(e1)
        e2 = parse(s1)
        s2 = to_source(e2)
        assert s1 == s2
        for x in (-2.0, -0.5, 0.7, 3.0):
            for t in (0.0, 0.5, 2.0):
                assert evaluate(e1, x, t) == evaluate(e2, x, t)

    def test_negative_exponent_prints_as_division(self):
        # differentiation produces negative exponents the grammar cannot
        # spell; the printer rewrites them as a division of equal value
        e = Binary("pow", Var("x", 0), Const(-2.0), 0)
        printed = to_source(e)
        e2 = parse(printed)
        assert evaluate(e, 2.0, 0.0) == evaluate(e2, 2.0, 0.0) == 0.25
        assert to_source(parse(to_source(e2))) == to_source(e2)


class TestEvaluation:
    def test_vectorized(self):
        e = parse("exp(-t)*x^2")
        x = np.array([1.0, 2.0, 3.0])
        t = np.array([0.0, 0.0, 0.0])
        np.testing.assert_allclose(evaluate(e, x, t), [1.0, 4.0, 9.0])

    def test_domain_error_log(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), -1.0, 0.0)
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), 0.0, 0.0)
        # a long subexpression is named by its first 57 characters
        with pytest.raises(EvalDomainError) as info:
            evaluate(parse("log(" + " + ".join(["x"] * 30) + ")"), -1.0, 0.0)
        assert str(info.value) == ("log of a non-positive value in 'log("
                                   + "x + " * 13 + "x...' at offset 0")

    def test_domain_error_sqrt(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("sqrt(x)"), -4.0, 0.0)

    def test_domain_error_division(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("1/x"), 0.0, 0.0)

    def test_domain_error_overflow(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("exp(x)"), 1e9, 0.0)

    def test_domain_error_vectorized_any_bad_entry(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse("log(x)"), np.array([1.0, -1.0]), np.zeros(2))

    def test_compile_matches_evaluate(self):
        e = parse("exp(-0.5*t)*x^2 + sin(x*t)")
        fn = compile_fn(e)
        xs = np.linspace(-3, 3, 11)
        ts = np.linspace(0, 5, 11)
        np.testing.assert_array_equal(fn(xs, ts), evaluate(e, xs, ts))


class TestCheckDomain:
    """check_domain re-checks every finite state, whatever a kernel gave
    there, and raises only on a domain violation."""

    LOG = (parse("log(x)"),)

    def test_every_finite_state_is_rechecked(self):
        with pytest.raises(EvalDomainError, match="log"):
            check_domain(self.LOG, -1.0, 0.0)
        with pytest.raises(EvalDomainError, match="log"):
            check_domain(self.LOG, np.array([2.0, 3.0, -0.5]), 0.0)
        # at x = 0, exp(-1/x^2) compiles to the finite 0
        with pytest.raises(EvalDomainError, match="division by zero"):
            check_domain((parse("exp(-1/x^2)"),), np.array([1.0, 0.0]), 0.0)
        check_domain(self.LOG, np.array([2.0, 3.0]), np.array([0.0, 1.0]))

    def test_nan_state_is_skipped(self):
        check_domain(self.LOG, np.nan, 0.0)
        check_domain(self.LOG, np.array([np.nan, 2.0]), 0.0)

    def test_overflow_does_not_hide_another_state(self):
        """State 3 overflows at exp before state -0.5 reaches log, in one
        expression and across two."""
        xs = np.array([3.0, -0.5])
        for exprs in ((parse("exp(100*x^2) + log(x)"),),
                      (parse("exp(100*x^2)"), parse("log(x)"))):
            with pytest.raises(EvalDomainError, match="log") as info:
                check_domain(exprs, xs, 0.0)
            assert type(info.value) is EvalDomainError

    def test_overflow_passes(self):
        check_domain((parse("exp(100*x^2)"), parse("x")), np.array([0.1, 3.0]), 0.0)
        # the overflow at exp comes before the state's own log violation
        check_domain((parse("exp(100*x^2) * log(x)"),), -3.0, 0.0)


class TestDifferentiation:
    @pytest.mark.parametrize(
        "text,dx_at",
        [
            ("x^2", ("x", 3.0, 0.0, 6.0)),
            ("x^2", ("t", 3.0, 0.0, 0.0)),
            ("exp(-2*t)*x^2", ("t", 1.0, 0.0, -2.0)),
            ("x*t", ("x", 5.0, 7.0, 7.0)),
            ("1/x", ("x", 2.0, 0.0, -0.25)),
            ("sqrt(x)", ("x", 4.0, 0.0, 0.25)),
            ("sin(x)", ("x", 0.0, 0.0, 1.0)),
            ("cos(x)", ("x", 0.0, 0.0, 0.0)),
            ("log(x)", ("x", 2.0, 0.0, 0.5)),
            ("exp(2*x)", ("x", 0.0, 0.0, 2.0)),
            ("x^0", ("x", 3.0, 0.0, 0.0)),
        ],
    )
    def test_known_derivatives(self, text, dx_at):
        var, x, t, expected = dx_at
        d = differentiate(parse(text), var)
        assert evaluate(d, x, t) == pytest.approx(expected, rel=1e-12)

    def test_unknown_variable_is_refused(self):
        with pytest.raises(ValueError, match="unknown variable 'y'"):
            differentiate(parse("x"), "y")

    def test_abs_derivative_is_sign(self):
        d = differentiate(parse("abs(x)"), "x")
        assert evaluate(d, 3.0, 0.0) == 1.0
        assert evaluate(d, -3.0, 0.0) == -1.0

    def test_sign_derivative_is_zero(self):
        d = differentiate(parse("sign(x)"), "x")
        assert evaluate(d, 3.0, 0.0) == 0.0

    def test_second_derivative(self):
        d2 = differentiate(differentiate(parse("x^2"), "x"), "x")
        assert evaluate(d2, 10.0, 0.0) == 2.0


# ---------------------------------------------------------------------------
# property tests

@st.composite
def smooth_exprs(draw, depth=0):
    """Random smooth expressions that stay well-conditioned near the probe
    points (no division, no log/sqrt: those need domain bookkeeping that
    the finite-difference check would trip over)."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["x", "t", "const"]))
        if leaf == "const":
            return Const(draw(st.floats(-2.0, 2.0, allow_nan=False)))
        return Var(leaf, 0)
    kind = draw(st.sampled_from(["add", "sub", "mul", "sin", "cos", "exp", "pow"]))
    if kind in ("sin", "cos", "exp"):
        return Unary(kind, draw(smooth_exprs(depth=depth + 1)), 0)
    if kind == "pow":
        base = draw(smooth_exprs(depth=depth + 1))
        return Binary("pow", base, Const(float(draw(st.integers(2, 3)))), 0)
    return Binary(
        kind,
        draw(smooth_exprs(depth=depth + 1)),
        draw(smooth_exprs(depth=depth + 1)),
        0,
    )


@given(e=smooth_exprs(), x=st.floats(-1.5, 1.5), t=st.floats(0.1, 2.0))
@settings(max_examples=150, deadline=None)
def test_symbolic_derivative_matches_finite_difference(e, x, t):
    h = 1e-5
    try:
        d = evaluate(differentiate(e, "x"), x, t)
        fp = evaluate(e, x + h, t)
        fm = evaluate(e, x - h, t)
        val = evaluate(e, x, t)
    except EvalDomainError:
        return
    if not all(np.isfinite(v) for v in (d, fp, fm, val)):
        return
    numeric = (fp - fm) / (2 * h)
    scale = max(1.0, abs(d), abs(val))
    assert abs(d - numeric) <= 1e-5 * scale


@given(e=smooth_exprs())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(e):
    s1 = to_source(e)
    e2 = parse(s1)
    s2 = to_source(e2)
    assert s1 == s2
    for x in (-1.0, 0.5):
        for t in (0.0, 1.0):
            try:
                v1 = evaluate(e, x, t)
            except EvalDomainError:
                continue
            v2 = evaluate(e2, x, t)
            assert v1 == v2 or (math.isnan(v1) and math.isnan(v2))


def _bits(v):
    return np.asarray(v, dtype=np.float64).tobytes()


def _scalar_outcome(e, x, t):
    """evaluate's value at one state, or its refusal."""
    try:
        return evaluate(e, x, t)
    except EvalDomainError as exc:
        return exc


@given(
    e=any_exprs(),
    xs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
    ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5),
    mode=st.sampled_from([{}, KERNEL_MODE]),
)
@example(e=parse("x^3"), xs=[0.664], ts=[0.0], mode={})
@example(e=parse("exp(-1/x^2)"), xs=[0.0, 1.0], ts=[0.0, 0.0], mode=KERNEL_MODE)
@example(e=parse("sign(log(x)) + exp(x*x*200)"), xs=[2.0, 0.0], ts=[0.0, 0.0],
         mode=KERNEL_MODE)
@example(e=parse("exp(200*x^2) * log(x)"), xs=[-3.0, 2.0], ts=[0.0, 0.0],
         mode=KERNEL_MODE)
@settings(max_examples=600, deadline=None)
def test_compile_matches_evaluate_bitwise(e, xs, ts, mode):
    """Wherever the checked evaluator succeeds, the compiled kernel gives
    the same bits, on Python floats (as integrate calls it) and on arrays
    (as the lane engine does).  Under KERNEL_MODE, the stepping loops'
    numpy mode, the kernel also raises EvalDomainError exactly where
    evaluate raises a domain error at some state, with evaluate's message
    at a single state, and returns where evaluate only overflows."""
    fn = compile_fn(e)
    n = min(len(xs), len(ts))
    outcomes = [_scalar_outcome(e, x, t) for x, t in zip(xs[:n], ts[:n])]
    with np.errstate(**mode):
        for x, t, expected in zip(xs[:n], ts[:n], outcomes):
            if not isinstance(expected, EvalDomainError):
                assert _bits(fn(x, t)) == _bits(expected), (to_source(e), x, t)
            elif isinstance(expected, EvalOverflowError):
                if mode:
                    fn(x, t)
            elif mode:
                with pytest.raises(EvalDomainError) as info:
                    fn(x, t)
                assert str(info.value) == str(expected)
        x, t = np.array(xs[:n]), np.array(ts[:n])
        if mode and any(type(o) is EvalDomainError for o in outcomes):
            with pytest.raises(EvalDomainError):
                fn(x, t)
            return
        try:
            expected = evaluate(e, x, t)
        except EvalDomainError:
            if mode:
                fn(x, t)
            return
        assert _bits(fn(x, t)) == _bits(expected), to_source(e)


# A sign-symmetric grid like the certifier's, with axis lengths that are not
# multiples of a SIMD width, so vector loops run their tails.
_AXIS_MAGS = np.geomspace(1e-3, 10.0, 9)
AXIS_XS = np.concatenate([-_AXIS_MAGS[::-1], _AXIS_MAGS])
AXIS_TS = np.linspace(0.0, 20.0, 7)


def _outcome(e, x, t):
    try:
        return np.broadcast_to(evaluate(e, x, t), (AXIS_XS.size, AXIS_TS.size))
    except EvalDomainError as exc:
        return type(exc), str(exc)


@given(e=any_exprs())
@example(e=parse("sin(x*t)+log(1+exp(-t))*x^1.5"))
@example(e=parse("exp(x*t)"))
@settings(max_examples=300, deadline=None)
def test_axes_evaluation_matches_mesh_bitwise(e):
    """Evaluating on a column of states and a row of times, then
    broadcasting, gives the bits of evaluating on the full mesh, and a
    domain violation raises the same error with the same message."""
    XX, TT = np.meshgrid(AXIS_XS, AXIS_TS, indexing="ij")
    on_axes = _outcome(e, AXIS_XS[:, None], AXIS_TS[None, :])
    on_mesh = _outcome(e, XX, TT)
    if isinstance(on_mesh, tuple) or isinstance(on_axes, tuple):
        assert on_axes == on_mesh, to_source(e)
    else:
        assert _bits(on_axes) == _bits(on_mesh), to_source(e)


# ---------------------------------------------------------------------------
# the derivative simplifier

def _node_count(e):
    if isinstance(e, (Const, Var)):
        return 1
    kids = (e.child,) if isinstance(e, Unary) else (e.left, e.right)
    return 1 + sum(_node_count(k) for k in kids)


def _message(exc):
    return str(exc).partition(" in '")[0]


@given(
    e=any_exprs(),
    xs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4),
    ts=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4),
)
@example(e=parse("3*log(x)"), xs=[-1.0], ts=[0.0])
@example(e=parse("x^2*log(x)+exp(t)*sqrt(x)"), xs=[-0.5, 0.0, 2.0], ts=[1.0])
@example(e=parse("exp(x^2)*t"), xs=[30.0], ts=[1.0])
@settings(max_examples=300, deadline=None)
def test_simplified_derivative_matches_raw(e, xs, ts):
    """Wherever the raw chain-rule tree evaluates, the simplified
    derivative gives an equal float (only a zero's sign may differ), and
    wherever the raw tree leaves its domain, the simplified one raises
    the same kind of domain error."""
    for var in ("x", "t"):
        raw, simple = _d(e, var), differentiate(e, var)
        for x, t in zip(xs, ts):
            try:
                expected = evaluate(raw, x, t)
            except EvalOverflowError:
                continue
            except EvalDomainError as exc:
                with pytest.raises(EvalDomainError) as info:
                    evaluate(simple, x, t)
                assert not isinstance(info.value, EvalOverflowError)
                assert _message(info.value) == _message(exc), to_source(e)
                continue
            assert evaluate(simple, x, t) == expected, (to_source(e), var, x, t)


BENCH_VS = {
    # V: nodes of (V_x, V_xx, V_t) simplified, then as raw chain-rule trees
    "(1+exp(-t))*x^2+x^4": ((15, 15, 9), (33, 109, 33)),
    "x^2": ((3, 1, 1), (7, 25, 7)),
    "exp(t)*x^2": ((6, 4, 6), (19, 70, 19)),
    "exp(2*t)*x^2": ((8, 6, 10), (29, 118, 29)),
}


class TestSimplifier:
    @pytest.mark.parametrize("text", sorted(BENCH_VS))
    def test_node_counts(self, text):
        V = parse(text)
        V_x = differentiate(V, "x")
        simple = (V_x, differentiate(V_x, "x"), differentiate(V, "t"))
        raw_x = _d(V, "x")
        raw = (raw_x, _d(raw_x, "x"), _d(V, "t"))
        assert tuple(map(_node_count, simple)) == BENCH_VS[text][0]
        assert tuple(map(_node_count, raw)) == BENCH_VS[text][1]

    @pytest.mark.parametrize("text", sorted(BENCH_VS))
    def test_simplified_trees_round_trip(self, text):
        V = parse(text)
        V_x = differentiate(V, "x")
        for d in (V_x, differentiate(V_x, "x"), differentiate(V, "t")):
            assert parse(to_source(d)) == d

    def test_zero_times_log_keeps_its_domain_error(self):
        # d/dx 3*log(x) is 0*log(x) + 3*(1/x): the 0*log(x) must stay
        d = differentiate(parse("3*log(x)"), "x")
        with pytest.raises(EvalDomainError, match="log of a non-positive value"):
            evaluate(d, -1.0, 0.0)
        assert evaluate(d, 2.0, 0.0) == 1.5

    def test_identities(self):
        cases = {
            "x*1": "x", "1*x": "x", "x/1": "x", "x^1": "x",
            "x+0": "x", "0+x": "x", "x-0": "x", "0-x": "-x",
            "0*exp(x)": "0.0", "exp(x)*0": "0.0", "sin(x)^0": "1.0",
            "2*3+exp(0)": "7.0",
            # domain rules block the folds that would hide them
            "0*log(x)": "0.0*log(x)", "sqrt(x)^0": "sqrt(x)^0.0",
            "0*x^0.5": "0.0*x^0.5", "(1/x)*0": "1.0/x*0.0",
            "log(0-1)": "log(-1.0)", "1/(1-1)": "1.0/0.0",
        }
        for text, expected in cases.items():
            assert to_source(_simplify(parse(text))) == to_source(parse(expected)), text


# ---------------------------------------------------------------------------
# the operator table is the language

FUNCTION_ROWS = sorted(op for op, row in _UNARY.items() if not row.sym)
INFIX_ROWS = sorted(op for op in _BINARY if op != "pow")


class TestOperatorTable:
    @pytest.mark.parametrize("op", FUNCTION_ROWS)
    def test_every_function_row_parses_as_a_call(self, op):
        e = parse(f"{op}(x)")
        assert e == Unary(op, Var("x"))
        assert to_source(e) == f"{op}(x)"
        assert parse(to_source(e)) == e

    @pytest.mark.parametrize("outer", INFIX_ROWS)
    @pytest.mark.parametrize("inner", INFIX_ROWS)
    def test_every_infix_row_parses_from_its_sym_at_its_precedence(
        self, outer, inner
    ):
        """x a t b x groups the tighter row first, and left to right
        within a level."""
        a, b = _BINARY[outer], _BINARY[inner]
        e = parse(f"x{a.sym.strip()}t{b.sym.strip()}x")
        x, t = Var("x"), Var("t")
        if b.prec > a.prec:
            assert e == Binary(outer, x, Binary(inner, t, x))
        else:
            assert e == Binary(inner, Binary(outer, x, t), x)
        assert parse(to_source(e)) == e

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Unary("tan", Var("x")),
            lambda: Binary("mod", Var("x"), Var("t")),
            lambda: Const(math.inf),
            lambda: Const(-math.inf),
            lambda: Const(math.nan),
            lambda: Var("y"),
            lambda: Binary("pow", Var("x"), Var("t")),
        ],
        ids=["tan", "mod", "inf", "-inf", "nan", "y", "pow-t"],
    )
    def test_nodes_the_table_cannot_print_are_refused(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "text, offset",
        [("1e400", 0), ("1e400*x", 0), ("x^1e400", 2), ("-x+0*sin(1e400)", 9)],
    )
    def test_literal_beyond_float_range_is_a_parse_error(self, text, offset):
        with pytest.raises(ParseError, match="number 1e400 is not finite") as info:
            parse(text)
        assert info.value.offset == offset

    def test_module_spells_no_second_operator_list(self):
        import gsde.expr

        assert not hasattr(gsde.expr, "FUNCTIONS")
        assert not hasattr(gsde.expr, "NONSMOOTH_OPS")
        assert "def term" not in Path(gsde.expr.__file__).read_text()


def _free_variables_reference(e):
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Unary):
        return _free_variables_reference(e.child)
    if isinstance(e, Binary):
        return _free_variables_reference(e.left) | _free_variables_reference(e.right)
    return set()


def _contains_nonsmooth_reference(e):
    if isinstance(e, Unary):
        return e.op in ("abs", "sign") or _contains_nonsmooth_reference(e.child)
    if isinstance(e, Binary):
        return _contains_nonsmooth_reference(e.left) or _contains_nonsmooth_reference(
            e.right
        )
    return False


def _domain_free_reference(e):
    if isinstance(e, (Const, Var)):
        return True
    if isinstance(e, Binary) and e.op == "pow":
        c = e.right.value
        free = c >= 0 and float(c).is_integer()
        return free and _domain_free_reference(e.left)
    if isinstance(e, Unary):
        return e.op not in ("log", "sqrt") and _domain_free_reference(e.child)
    return (
        e.op != "div"
        and _domain_free_reference(e.left)
        and _domain_free_reference(e.right)
    )


@given(e=any_exprs())
@example(e=parse("x*abs(t)"))
@example(e=parse("exp(x)^2*(t-1)"))
@example(e=parse("sin(x)/t"))
@settings(max_examples=300, deadline=None)
def test_tree_queries_match_their_recursive_definitions(e):
    """The one pre-order walk gives what a hand-written recursion over
    each query's own rule gives."""
    assert free_variables(e) == _free_variables_reference(e)
    assert contains_nonsmooth(e) == _contains_nonsmooth_reference(e)
    assert _domain_free(e) == _domain_free_reference(e)
