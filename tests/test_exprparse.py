import dataclasses
import gc
import inspect
import math
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpcert import exprparse
from fpcert.exprparse import (MAX_DEPTH, Bin, Call, EvalDomainError, ExprSyntaxError,
                              FUNCTIONS, Lit, Neg, UnknownVariableError, Var,
                              _CODES, _compile, _walk, bind, eval_expr, parse_expr, to_text)


# -- parsing ------------------------------------------------------------


def test_parse_precedence():
    e = parse_expr("1 + 2 * 3", ())
    assert e == Bin("+", Lit(1.0), Bin("*", Lit(2.0), Lit(3.0)))
    assert eval_expr(e, {}) == 7.0


def test_parse_power_right_associative():
    e = parse_expr("2 ^ 3 ^ 2", ())
    assert e == Bin("^", Lit(2.0), Bin("^", Lit(3.0), Lit(2.0)))
    assert eval_expr(e, {}) == 512.0


def test_parse_unary_minus_binds_tighter_than_power_base():
    # -2^2 parses as -(2^2), matching the usual convention
    assert eval_expr(parse_expr("-2^2", ()), {}) == -4.0


def test_parse_function_call():
    e = parse_expr("sin(t - s)", ("t", "s"))
    assert e == Call("sin", Bin("-", Var("t"), Var("s")))
    assert eval_expr(e, {"t": 1.0, "s": 1.0}) == 0.0


def test_parse_reports_unknown_variable_with_position():
    with pytest.raises(UnknownVariableError) as exc:
        parse_expr("t + x9", ("t",))
    assert exc.value.name == "x9"
    assert "position" in str(exc.value)


def test_parse_syntax_errors():
    for bad in ("", "  ", "1 +", "(1", "2 ** 3", "sin 3", "1 2"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad, ("x",))


_DEEP = "(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1)

# The parser's contract over the variables x1, x2: each input with the error
# it raises (type, message, position) or the repr of its tree, which holds
# every node's position.  Non-ASCII characters: ² superscript two (a digit
# to str.isdigit, yet no number to float), ½ one half (numeric, yet no
# letter), ١ Arabic-Indic one and ２ fullwidth two (decimal digits), é (a
# letter) and \u2003, the em space (whitespace).
CONTRACT = [
    ("", (ExprSyntaxError, "empty expression", 0)),
    ("  \t", (ExprSyntaxError, "empty expression", 0)),
    ("1..2", (ExprSyntaxError, "bad number literal '1..2'", 0)),
    ("1.2.3", (ExprSyntaxError, "bad number literal '1.2.3'", 0)),
    ("2²", (ExprSyntaxError, "bad number literal '2²'", 0)),
    (".²", (ExprSyntaxError, "bad number literal '.²'", 0)),
    ("x1 + (1..2", (ExprSyntaxError, "bad number literal '1..2'", 6)),
    ("1 # 2", (ExprSyntaxError, "unexpected character '#'", 2)),
    ("½", (ExprSyntaxError, "unexpected character '½'", 0)),
    ("..5", (ExprSyntaxError, "unexpected character '.'", 0)),
    ("1 + ) $", (ExprSyntaxError, "unexpected character '$'", 6)),
    ("sin 3", (ExprSyntaxError, "function 'sin' needs parentheses", 4)),
    ("exp", (ExprSyntaxError, "function 'exp' needs parentheses", 3)),
    ("(1", (ExprSyntaxError, "expected ')'", 2)),
    ("(1 2", (ExprSyntaxError, "expected ')'", 3)),
    ("sin(1", (ExprSyntaxError, "expected ')' after argument of 'sin'", 5)),
    ("sqrt(x1 x2)", (ExprSyntaxError, "expected ')' after argument of 'sqrt'", 8)),
    ("1 +", (ExprSyntaxError, "expected a value", 3)),
    (")", (ExprSyntaxError, "expected a value", 0)),
    ("2 ** 3", (ExprSyntaxError, "expected a value", 3)),
    ("exp(", (ExprSyntaxError, "expected a value", 4)),
    ("1 2", (ExprSyntaxError, "trailing input", 2)),
    ("x1)", (ExprSyntaxError, "trailing input", 2)),
    ("1e", (ExprSyntaxError, "trailing input", 1)),
    ("1e+", (ExprSyntaxError, "trailing input", 1)),
    ("2e3.5", (ExprSyntaxError, "trailing input", 3)),
    (_DEEP, (ExprSyntaxError, "expression nested more than %d levels deep" % MAX_DEPTH,
             MAX_DEPTH)),
    ("x9", (UnknownVariableError, "unknown variable 'x9'", 0)),
    ("x1²", (UnknownVariableError, "unknown variable 'x1²'", 0)),
    ("é", (UnknownVariableError, "unknown variable 'é'", 0)),
    ("SIN(x1)", (UnknownVariableError, "unknown variable 'SIN'", 0)),
    (".5", "Lit(value=0.5, pos=0)"),
    ("5.", "Lit(value=5.0, pos=0)"),
    ("1E-3", "Lit(value=0.001, pos=0)"),
    ("١ + x1",
     "Bin(op='+', left=Lit(value=1.0, pos=0), right=Var(name='x1', pos=4), pos=2)"),
    ("x1 + ２",
     "Bin(op='+', left=Var(name='x1', pos=0), right=Lit(value=2.0, pos=5), pos=3)"),
    ("x1\u2003+ 1",
     "Bin(op='+', left=Var(name='x1', pos=0), right=Lit(value=1.0, pos=5), pos=3)"),
    ("x1 +\n2", "Bin(op='+', left=Var(name='x1', pos=0), right=Lit(value=2.0, pos=5), pos=3)"),
    ("\tx1  *\t2",
     "Bin(op='*', left=Var(name='x1', pos=1), right=Lit(value=2.0, pos=7), pos=5)"),
    ("-x1^-2", "Neg(operand=Bin(op='^', left=Var(name='x1', pos=1), right=Neg(operand="
               "Lit(value=2.0, pos=5), pos=4), pos=3), pos=0)"),
    ("-(-x1)", "Neg(operand=Neg(operand=Var(name='x1', pos=3), pos=2), pos=0)"),
    ("x1^2^3", "Bin(op='^', left=Var(name='x1', pos=0), right=Bin(op='^', left="
               "Lit(value=2.0, pos=3), right=Lit(value=3.0, pos=5), pos=4), pos=2)"),
    ("sin(abs(-x2))^2", "Bin(op='^', left=Call(fn='sin', arg=Call(fn='abs', arg=Neg("
                        "operand=Var(name='x2', pos=9), pos=8), pos=4), pos=0), right="
                        "Lit(value=2.0, pos=14), pos=13)"),
    ("1.5e-3*x1 - x2/3", "Bin(op='-', left=Bin(op='*', left=Lit(value=0.0015, pos=0), "
                         "right=Var(name='x1', pos=7), pos=6), right=Bin(op='/', left="
                         "Var(name='x2', pos=12), right=Lit(value=3.0, pos=15), pos=14), "
                         "pos=10)"),
]


@pytest.mark.parametrize("text, expected", CONTRACT,
                         ids=[repr(t[:24]) for t, _ in CONTRACT])
def test_parser_contract(text, expected):
    if isinstance(expected, str):
        assert repr(parse_expr(text, ("x1", "x2"))) == expected
        return
    kind, message, pos = expected
    with pytest.raises(kind) as exc:
        parse_expr(text, ("x1", "x2"))
    assert type(exc.value) is kind
    assert str(exc.value) == "%s (at position %d)" % (message, pos)
    assert exc.value.pos == pos


# each shape nests `depth` levels; the level past MAX_DEPTH opens at `pos(depth)`
NESTINGS = {
    "parentheses": (lambda d: "(" * d + "x" + ")" * d, lambda d: d - 1),
    "function-arguments": (lambda d: "sin(" * d + "x" + ")" * d, lambda d: 4 * d - 1),
    "unary-minus": (lambda d: "-" * d + "x", lambda d: d - 1),
    "exponents": (lambda d: "^".join(["x"] * (d + 1)), lambda d: 2 * d - 1),
    "mixed": (lambda d: "1 + 2*(" * d + "x" + ")" * d, lambda d: 7 * d - 1),
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_nesting_is_refused_past_max_depth_with_position(shape):
    text, pos = NESTINGS[shape]
    e = parse_expr(text(MAX_DEPTH), ("x",))
    # walked, then compiled: both stay inside the recursion limit
    assert eval_expr(e, {"x": 0.5}) == eval_expr(e, {"x": 0.5})
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(text(MAX_DEPTH + 1), ("x",))
    assert exc.value.pos == pos(MAX_DEPTH + 1)
    assert str(exc.value) == ("expression nested more than %d levels deep (at position %d)"
                              % (MAX_DEPTH, pos(MAX_DEPTH + 1)))


def test_equality_ignores_source_position():
    a = parse_expr("x+1", ("x",))
    b = parse_expr("  x  +  1", ("x",))
    assert a == b


@pytest.mark.parametrize("node, params", [
    (Lit(1.0, 3), ["value", "pos"]),
    (Var("x", 3), ["name", "pos"]),
    (Neg(Lit(1.0), 3), ["operand", "pos"]),
    (Bin("+", Lit(1.0), Lit(2.0), 3), ["op", "left", "right", "pos"]),
    (Call("sin", Lit(1.0), 3), ["fn", "arg", "pos"]),
], ids=["Lit", "Var", "Neg", "Bin", "Call"])
def test_nodes_are_frozen_dataclasses(node, params):
    cls = type(node)
    signature = inspect.signature(cls).parameters
    assert list(signature) == params and signature["pos"].default == -1
    assert [f.name for f in dataclasses.fields(cls)] == params
    assert cls(*[getattr(node, p) for p in params[:-1]]).pos == -1
    for name in params:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, getattr(node, name))
    assert node == dataclasses.replace(node, pos=7) and node.pos == 3


# -- evaluation domain --------------------------------------------------


def test_eval_domain_errors():
    cases = [
        ("log(x)", {"x": 0.0}),
        ("log(x)", {"x": -1.0}),
        ("sqrt(x)", {"x": -4.0}),
        ("1 / x", {"x": 0.0}),
        ("x ^ (-1)", {"x": 0.0}),
        ("x ^ 0.5", {"x": -1.0}),
        ("exp(x)", {"x": 1e9}),  # overflow
    ]
    for text, env in cases:
        e = parse_expr(text, ("x",))
        with pytest.raises(EvalDomainError):
            eval_expr(e, env)


@pytest.mark.parametrize("text, message", [
    ("sin(x*1e308*10)", "sin of inf is undefined (at position 0)"),
    ("cos(-x*1e308*10)", "cos of -inf is undefined (at position 0)"),
    ("(-2)^(x*1e308*10 - x*1e308*10)", "negative base with non-integer exponent (at position 4)"),
    ("(-2)^(x*1e308*10)", "negative base with non-integer exponent (at position 4)"),
    ("(-0.5)^(-x*1e308*10)", "negative base with non-integer exponent (at position 6)"),
])
def test_math_domain_errors_name_the_node(text, message):
    e = parse_expr(text, ("x",))
    for _ in range(3):  # the walk, then the compiled code
        with pytest.raises(EvalDomainError) as exc:
            eval_expr(e, {"x": 1.0})
        assert str(exc.value) == message


def test_eval_matches_math_library():
    env = {"t": 0.7, "s": 0.2}
    checks = [
        ("sin(t) * cos(s)", math.sin(0.7) * math.cos(0.2)),
        ("exp(t - s)", math.exp(0.5)),
        ("sqrt(t) + abs(-s)", math.sqrt(0.7) + 0.2),
        ("log(t) / 2", math.log(0.7) / 2),
        ("t ^ 3", 0.7 ** 3),
    ]
    for text, want in checks:
        got = eval_expr(parse_expr(text, ("t", "s")), env)
        assert got == pytest.approx(want, rel=1e-15)


# -- round trip ----------------------------------------------------------


def random_tree(rng, depth, vars):
    """Random tree with nonnegative literals; negation is an explicit node."""
    if depth <= 0 or rng.random() < 0.25:
        if vars and rng.random() < 0.5:
            return Var(str(rng.choice(vars)))
        return Lit(round(float(rng.uniform(0.0, 9.0)), 2))
    roll = rng.random()
    if roll < 0.15:
        return Neg(random_tree(rng, depth - 1, vars))
    if roll < 0.35:
        fn = str(rng.choice(FUNCTIONS))
        return Call(fn, random_tree(rng, depth - 1, vars))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return Bin(op, random_tree(rng, depth - 1, vars),
               random_tree(rng, depth - 1, vars))


def test_round_trip_500_random_expressions():
    rng = np.random.default_rng(2024)
    vars = ("t", "s")
    agreed = 0
    for _ in range(500):
        tree = random_tree(rng, depth=4, vars=vars)
        text = to_text(tree)
        back = parse_expr(text, vars)
        assert back == tree, text
        # rendering is stable under a second pass
        assert to_text(back) == text
        env = {"t": float(rng.uniform(0.1, 2.0)), "s": float(rng.uniform(0.1, 2.0))}
        try:
            want = eval_expr(tree, env)
        except EvalDomainError:
            continue
        assert eval_expr(back, env) == want
        agreed += 1
    # most random draws should evaluate cleanly
    assert agreed > 300


def test_round_trip_preserves_grouping():
    cases = [
        "(1 + 2) * 3",
        "1 - (2 - 3)",
        "2 ^ (3 ^ 2)",
        "(2 ^ 3) ^ 2",
        "-(x + 1)",
        "1 / (x * 2)",
    ]
    for text in cases:
        tree = parse_expr(text, ("x",))
        again = parse_expr(to_text(tree), ("x",))
        assert again == tree
        env = {"x": 1.3}
        assert eval_expr(again, env) == eval_expr(tree, env)


# -- compiled evaluation ---------------------------------------------------

# literals and bindings that reach every edge of the walk: signed zeros, a
# subnormal, overflow to inf, NaN from inf - inf, negative bases under
# fractional, huge and infinite exponents
LITERALS = (0.0, -0.0, 1e-320, 1e308, float("1e999"), -2.0, -0.5, 0.5, 1.5, 2.0, 3.0, 1e300)
VALUES = (0.0, -0.0, 1e-320, 0.5, -0.5, 2.0, -3.0, 1e308, -1e308)
POS = st.integers(0, 40)


def trees(max_leaves):
    return st.recursive(
        st.builds(Lit, st.sampled_from(LITERALS), POS) | st.builds(Var, st.sampled_from("xy"), POS),
        lambda sub: (st.builds(Neg, sub, POS)
                     | st.builds(Bin, st.sampled_from("+-*/^"), sub, sub, POS)
                     | st.builds(Call, st.sampled_from(FUNCTIONS), sub, POS)
                     | st.builds(Call, st.sampled_from(("exp", "log", "sqrt")),
                                 st.builds(Call, st.sampled_from(("exp", "log", "sqrt")), sub,
                                           POS),
                                 POS)),
        max_leaves=max_leaves)


TREES = trees(12)


def outcome(fn, *args):
    """('value', bits) or (exception type, message): what one evaluation gives."""
    try:
        return "value", fn(*args).hex()
    except Exception as exc:
        return type(exc), str(exc)


class FellBack(Exception):
    """What the compiled code raises, in place of walking, where it falls back."""


def fall_back(e, bindings):
    raise FellBack


def check_compiled_matches_walk(e, env):
    want = outcome(_walk, e, env)
    # the first call walks, the second compiles, the third reuses the code
    for _ in range(3):
        assert outcome(eval_expr, e, env) == want
    names, args = tuple(env), tuple(env.values())
    assert outcome(bind(e, names), *args) == want
    # the generated code's own outcome, in both conventions: the walk's bits
    # wherever the walk gives a value, and the fallback wherever it raises
    own = want if want[0] == "value" else (FellBack, "")
    assert outcome(_compile(e, walk=fall_back), e, env) == own
    assert outcome(_compile(e, names, walk=fall_back), *args) == own


@settings(max_examples=400, deadline=None)
@given(e=TREES, x=st.sampled_from(VALUES), y=st.sampled_from(VALUES))
def test_compiled_evaluation_is_the_walk_bit_for_bit(e, x, y):
    check_compiled_matches_walk(e, {"x": x, "y": y})


@settings(max_examples=400, deadline=None)
@given(e=TREES, x=st.sampled_from(VALUES), y=st.sampled_from(VALUES))
def test_bound_function_is_the_walk_bit_for_bit(e, x, y):
    assert outcome(bind(e, ("x", "y")), x, y) == outcome(_walk, e, {"x": x, "y": y})
    # the arguments in the other order, for the other names
    assert outcome(bind(e, ("y", "x")), y, x) == outcome(_walk, e, {"x": x, "y": y})


@settings(max_examples=100, deadline=None)
@given(e=trees(60), x=st.sampled_from(VALUES), y=st.sampled_from(VALUES),
       nest=st.integers(1, 4))
def test_compiled_evaluation_of_large_trees_is_the_walk_bit_for_bit(e, x, y, nest):
    # random trees stay far below the nesting bound of one line of code, so
    # lower it here, so that their code crosses it
    with mock.patch.object(exprparse, "_NEST", nest):
        check_compiled_matches_walk(e, {"x": x, "y": y})


# keyed by repr, so that -0.0 is not merged into 0.0
EDGES = sorted({repr(v): v for v in LITERALS + VALUES + (-math.inf, math.nan)}.values(),
               key=repr)


@pytest.mark.parametrize("op", "+-*/^")
def test_compiled_operators_match_walk_on_every_edge_pair(op):
    # 1/(l op r) turns an infinite result finite, as a larger tree would
    for l in EDGES:
        for r in EDGES:
            node = Bin(op, Lit(l), Var("y"), 1)
            check_compiled_matches_walk(node, {"y": r})
            check_compiled_matches_walk(Bin("/", Lit(1.0), node, 0), {"y": r})


@pytest.mark.parametrize("op", "+-*/^")
def test_compiled_literal_operands_match_walk_on_every_edge_pair(op):
    # a literal on the right (a literal exponent has its tests precomputed),
    # and two literals, which fold at compile time; y + (...) keeps a folded
    # value inside code
    for l in EDGES:
        for r in EDGES:
            for node in (Bin(op, Var("y"), Lit(r), 1), Bin(op, Lit(l), Lit(r), 1)):
                for e in (node, Bin("/", Lit(1.0), node, 0), Bin("+", Var("y"), node, 0)):
                    check_compiled_matches_walk(e, {"y": l})


@pytest.mark.parametrize("fn", FUNCTIONS)
def test_compiled_functions_match_walk_on_every_edge(fn):
    for x in EDGES:
        node = Call(fn, Var("x"), 2)
        check_compiled_matches_walk(node, {"x": x})
        check_compiled_matches_walk(Bin("/", Lit(1.0), node, 0), {"x": x})


@pytest.mark.parametrize("e, env", [
    # 1000 terms: far deeper than one line of code or a recursive walk allows
    (parse_expr(" + ".join("%d.5*x" % i for i in range(1000)), ("x",)), {"x": 1.0}),
    # math.pow(-0.5, inf) is 0.0, but the walk refuses a negative base
    (parse_expr("(-0.5)^(1e308*10)", ()), {}),
    (parse_expr("1 / (x - x)", ("x",)), {"x": 2.0}),
    # numpy divides by zero without raising; the guard still refuses it
    (parse_expr("1 / (1 / x)", ("x",)), {"x": np.float64(0.0)}),
    (parse_expr("x + y", ("x", "y")), {"x": 1.0}),  # y is unbound
    (Bin("*", Var("x"), Lit(-0.0)), {"x": 1.0}),
    # literal-only subtrees the walk refuses stay code, so that the walk
    # raises its own positioned error at every evaluation
    (parse_expr("x + 1/0", ("x",)), {"x": 1.0}),
    (parse_expr("x*(-8)^(1/3)", ("x",)), {"x": 1.0}),
    (parse_expr("x*(0^-1)", ("x",)), {"x": 1.0}),
    # an infinite literal product whose reciprocal folds to 0.0
    (parse_expr("x + 1/(1e308*10)", ("x",)), {"x": 1.0}),
], ids=["sum-1000", "negative-base-inf", "division-by-zero", "numpy-zero", "unbound",
        "negative-zero", "refused-division", "refused-root", "refused-power",
        "overflow-folds"])
def test_compiled_evaluation_fixed_cases(e, env):
    check_compiled_matches_walk(e, env)


# exponents of ^ known at compile time: integers, zero and fractions of
# either sign, each as a literal and as a literal-only subtree that folds to
# it, and folded subtrees that end at +inf, -inf and NaN
EXPONENT_VALUES = st.integers(-3, 3).map(float) | st.sampled_from((-0.0, 0.5, -0.5, 1.5, -2.5))
_INF = Bin("*", Lit(1e308, 4), Lit(10.0, 10), 9)
EXPONENTS = (st.builds(Lit, EXPONENT_VALUES, POS)
             | st.builds(Neg, st.builds(Lit, EXPONENT_VALUES, POS), POS)
             | st.builds(lambda p, q: Bin("/", Lit(p, 4), Lit(q, 6), 5),
                         st.integers(-7, 7).map(float), st.sampled_from((1.0, 2.0, 3.0, 4.0)))
             | st.sampled_from((_INF, Neg(_INF, 3), Bin("-", _INF, _INF, 8))))
BASES = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 3.0, -2.0, 1e-320)


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from(("variable", "literal", "overflowing")), x=st.sampled_from(BASES),
       exponent=EXPONENTS, reciprocal=st.booleans())
def test_literal_exponent_guard_is_the_walk(base, x, exponent, reciprocal):
    # x*1e308 overflows to -inf for x = -2.0, and to inf for x = 3.0
    left = {"variable": Var("x", 0), "literal": Lit(x, 0),
            "overflowing": Bin("*", Var("x", 0), Lit(1e308, 2), 1)}[base]
    e = Bin("^", left, exponent, 3)
    if reciprocal:  # 1/(...) turns an infinite power finite, as a larger tree would
        e = Bin("/", Lit(1.0), e, 0)
    check_compiled_matches_walk(e, {"x": x})


def source_of(fn):
    """The generated source of a compiled function, read from exprparse._CODES."""
    return next(source for source, code in _CODES.items() if code is fn.__code__)


def guards(fn):
    """The domain-test lines of a compiled function's source."""
    return [line.strip() for line in source_of(fn).splitlines() if "raise" in line]


def test_literal_exponents_are_tested_at_compile_time():
    kernel = parse_expr("0.3*exp(-1.7*(t - s)^2)", ("t", "s"))
    for fn in (_compile(kernel), bind(kernel, ("t", "s"))):
        assert "raise ValueError" not in source_of(fn)
    # each variable read is b[n<k>], its key the default of the parameter n<k>
    cases = {"x1^-1": "if b[n0] == 0.0: raise ValueError",
             "x1^0.5": "if b[n0] < 0.0: raise ValueError",
             "x1^-0.5": "if b[n0] == 0.0 or b[n0] < 0.0: raise ValueError",
             "x1^(1e308*10)": "if b[n0] < 0.0: raise ValueError",
             # a variable exponent keeps both tests of the walk, and / its own
             "x1^x1": "if b[n0] == 0.0 and b[n1] < 0.0 or b[n0] < 0.0 and "
                      "not float(b[n1]).is_integer(): raise ValueError",
             "x1/2": "if c0 == 0.0: raise ZeroDivisionError"}
    for text, line in cases.items():
        assert guards(_compile(parse_expr(text, ("x1",)))) == [line], text
    assert guards(bind(parse_expr("t^-1", ("t",)), ("t",))) == ["if a0 == 0.0: raise ValueError"]


def test_kernel_code_is_one_nested_line():
    kernel = parse_expr("0.3*exp(-1.7*(t - s)^2)", ("t", "s"))
    fn = bind(kernel, ("t", "s"))
    assigned = [line.strip() for line in source_of(fn).splitlines() if " = " in line]
    assert assigned == ["v0 = (c2 * (exp((c1 * (pow((a0 - a1), c0))))))"]
    assert guards(fn) == []


def test_guarded_denominator_is_assigned_once_before_its_test():
    fn = _compile(parse_expr("(x1 + 1)/(x1 - 1)", ("x1",)))
    # x1 - 1 runs as x1 + -1.0
    assert fn.__defaults__ == (1.0, -1.0, "x1", "x1")
    source = source_of(fn)
    lines = [line.strip() for line in source.splitlines()]
    assert source.count("(b[n1] + c1)") == 1
    k = next(i for i, line in enumerate(lines) if line.endswith(" = (b[n1] + c1)"))
    name = lines[k].split(" = ")[0]
    assert lines[k + 1] == "if %s == 0.0: raise ZeroDivisionError" % name


DEEPEST = dict({shape: text(MAX_DEPTH) for shape, (text, _) in NESTINGS.items()}, **{
    "sum-1000": " + ".join("%d.5*x" % i for i in range(1000)),
    "right-sum-100": "x + (" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
    "right-product-100": "x * (" * MAX_DEPTH + "x" + ")" * MAX_DEPTH})


@pytest.mark.parametrize("shape", sorted(DEEPEST))
def test_every_accepted_tree_compiles(shape):
    # a tree the compiler refuses falls back to the walk, which would lose
    # only speed; so check that each of the deepest trees got its own code
    e = parse_expr(DEEPEST[shape], ("x",))
    want = outcome(_walk, e, {"x": 0.5})
    assert want[0] == "value"
    assert [outcome(eval_expr, e, {"x": 0.5}) for _ in range(2)] == [want] * 2
    assert e._fn is not _walk
    fn = bind(e, ("x",))
    assert fn.__code__ in _CODES.values()
    assert outcome(fn, 0.5) == want


def test_thousand_term_sum_evaluates():
    e = parse_expr(" + ".join("%d.5*x" % i for i in range(1000)), ("x",))
    want = 0.0
    for i in range(1000):
        want += (i + 0.5) * 2.0
    assert [eval_expr(e, {"x": 2.0}) for _ in range(3)] == [want] * 3


def test_trees_differing_in_literals_share_one_function():
    a = parse_expr("x1*0.25 + 2", ("x1",))
    b = parse_expr("x1*-0.5 + 7", ("x1",))
    assert _compile(a).__code__ is _compile(b).__code__


def test_bound_trees_differing_in_literals_share_one_function():
    a = parse_expr("0.25*exp(-1.5*(t - s)^2)", ("t", "s"))
    b = parse_expr("0.5*exp(-3*(t - s)^2)", ("t", "s"))
    fa, fb = bind(a, ("t", "s")), bind(b, ("t", "s"))
    assert fa.__code__ is fb.__code__
    assert fa(0.5, 0.25) == 0.25 * math.exp(-1.5 * 0.25 ** 2)
    assert fb(0.5, 0.25) == 0.5 * math.exp(-3.0 * 0.25 ** 2)
    # each function falls back to its own tree, with that tree's positions
    for f, pos in ((bind(parse_expr("1/(t - s)", ("t", "s")), ("t", "s")), 1),
                   (bind(parse_expr("  2/(t - s)", ("t", "s")), ("t", "s")), 3)):
        with pytest.raises(EvalDomainError, match=r"division by zero \(at position %d\)" % pos):
            f(0.5, 0.5)


def test_bind_reads_no_binding_for_a_name_outside_its_names():
    e = parse_expr("log(x) + y", ("x", "y"))
    with pytest.raises(UnknownVariableError, match=r"'y' \(at position 9\)"):
        bind(e, ("x",))(2.0)
    # the walk's order decides which error comes first
    with pytest.raises(EvalDomainError, match="log of nonpositive"):
        bind(e, ("x",))(-1.0)
    assert bind(parse_expr("2*x", ("x",)), ("x", "y"))(1.5, 7.0) == 3.0
    # equal trees (== ignores pos and 0.0 vs -0.0) still keep their own bits and positions
    pos, neg = Bin("*", Var("x"), Lit(0.0), 3), Bin("*", Var("x"), Lit(-0.0), 7)
    assert pos == neg
    for _ in range(3):
        assert eval_expr(pos, {"x": 1.0}).hex() == "0x0.0p+0"
        assert eval_expr(neg, {"x": 1.0}).hex() == "-0x0.0p+0"
    one, other = parse_expr("1/x", ("x",)), parse_expr("  1/x", ("x",))
    for _ in range(3):
        with pytest.raises(EvalDomainError, match="position 1"):
            eval_expr(one, {"x": 0.0})
        with pytest.raises(EvalDomainError, match="position 3"):
            eval_expr(other, {"x": 0.0})


def test_compiled_function_is_freed_with_its_trees():
    e = parse_expr("x*sqrt(x)*sqrt(x)*sqrt(x)*sqrt(x)", ("x",))
    for _ in range(2):
        eval_expr(e, {"x": 2.0})
    # eval_expr hands the tree to its function, which so holds no reference to it
    assert e not in e._fn.__defaults__
    code = weakref.ref(e._fn.__code__)
    assert code() in _CODES.values()
    del e
    gc.collect()
    assert code() is None


def test_literal_only_subtrees_fold_to_one_parameter():
    # Jacobian entries 0.3*W*cos(x): the sign of W folds away with the product
    pos, neg = parse_expr("0.3*0.5*cos(x1)", ("x1",)), parse_expr("0.3*-0.12*cos(x1)", ("x1",))
    assert _compile(pos).__code__ is _compile(neg).__code__
    assert _compile(pos).__defaults__ == (0.3 * 0.5, "x1")
    assert _compile(neg).__defaults__ == (0.3 * -0.12, "x1")
    # a kernel's literal exponent: the guard of ^ tests precomputed values
    kernel = _compile(parse_expr("0.83*exp(-3.7*(t - s)^2)", ("t", "s")))
    assert "is_integer" not in kernel.__code__.co_names


# l - c runs as l + (-c), and l - c*X as l + (-c)*X: subtracted values of
# either sign and at the ends of the float range, each as a literal and as
# the negation the parser makes of a negative literal, over terms that
# overflow (exp, y*MAX) or raise (log, 1/y) for some y
_MAX = sys.float_info.max
SUBTRAHENDS = (0.0, -0.0, 5e-324, -5e-324, _MAX, -_MAX)
SUBTRAHEND_TREES = st.sampled_from(SUBTRAHENDS).flatmap(
    lambda c: st.sampled_from((Lit(c, 20), Neg(Lit(-c, 21), 20))))
TERMS_OF_Y = (Var("y", 22), Call("exp", Var("y", 26), 22), Call("log", Var("y", 26), 22),
              Bin("*", Var("y", 22), Lit(_MAX, 24), 23), Bin("/", Lit(1.0, 22), Var("y", 24), 23))
SUBTRAHEND_TERMS = st.sampled_from(TERMS_OF_Y)
SPINE_TERMS = (SUBTRAHEND_TREES | SUBTRAHEND_TERMS
               | st.builds(lambda c, x: Bin("*", c, x, 30), SUBTRAHEND_TREES, SUBTRAHEND_TERMS))


@settings(max_examples=400, deadline=None)
@given(head=st.sampled_from((Var("x", 0), Lit(1.5, 0), Lit(-0.0, 0))) | SUBTRAHEND_TERMS,
       terms=st.lists(st.tuples(st.sampled_from("+-"), SPINE_TERMS), min_size=1, max_size=8),
       x=st.sampled_from(VALUES + SUBTRAHENDS), y=st.sampled_from(VALUES + SUBTRAHENDS),
       reciprocal=st.booleans())
def test_subtracted_values_fold_into_their_sign_with_the_walks_bits(head, terms, x, y,
                                                                    reciprocal):
    e = head
    for k, (op, term) in enumerate(terms):
        e = Bin(op, e, term, 40 + k)
    if reciprocal:  # 1/(...) turns an infinite sum finite, keeping the sign of its zero
        e = Bin("/", Lit(1.0), e, 50)
    check_compiled_matches_walk(e, {"x": x, "y": y})


@pytest.mark.parametrize("c", [Lit(c, 20) for c in SUBTRAHENDS]
                         + [Neg(Lit(-c, 21), 20) for c in SUBTRAHENDS], ids=repr)
def test_each_subtracted_value_is_the_walk_on_every_edge(c):
    # every binding against each c, in x - c and x - c*X, and their reciprocals
    for x in VALUES + SUBTRAHENDS:
        for e in (Bin("-", Var("x", 0), c, 1), Bin("/", Lit(1.0), Bin("-", Var("x", 0), c, 1))):
            check_compiled_matches_walk(e, {"x": x})
    for X in TERMS_OF_Y:
        for x in (0.0, -0.0, 1.5, _MAX, -_MAX):
            for y in VALUES + SUBTRAHENDS:
                check_compiled_matches_walk(Bin("-", Var("x", 0), Bin("*", c, X, 30), 1),
                                            {"x": x, "y": y})


def test_rows_differing_in_signs_and_variables_share_one_function():
    names = ("x1", "x2", "x3")
    rows = ["0.5 + 0.3*(0.25*sin(x1) - 0.5*sin(x2) + 0.125*sin(x3))",
            "-0.5 + 0.3*(-0.25*sin(x3) + 0.5*sin(x1) - 0.125*sin(x2))",
            "1 - 0.3*(0.25*sin(x2) + -0.5*sin(x3) - -0.125*sin(x1))"]
    trees = [parse_expr(text, names) for text in rows]
    fns = [_compile(e) for e in trees]
    assert len({fn.__code__ for fn in fns}) == 1
    assert " - " not in source_of(fns[0])
    env = {"x1": 0.25, "x2": -1.5, "x3": 3.0}
    for fn, e in zip(fns, trees):
        assert fn(e, env).hex() == _walk(e, env).hex()
    # a subtracted literal, and the variable read, are parameters too
    assert _compile(parse_expr("x1 - 2", names)).__code__ is \
        _compile(parse_expr("x3 + 7", names)).__code__


def test_variable_led_product_is_subtracted_as_written():
    e = parse_expr("x2 - x1*0.5", ("x1", "x2"))
    assert "(b[n0] - (b[n1] * c0))" in source_of(_compile(e))
    for x1 in (0.0, -0.0, 5e-324, 3.0, _MAX, -_MAX):
        for x2 in (0.0, -0.0, -_MAX, _MAX):
            check_compiled_matches_walk(e, {"x1": x1, "x2": x2})


def test_code_of_many_shapes_is_freed_with_their_trees():
    # every problem instance brings its own shapes; none may outlive its trees
    before = set(_CODES)
    trees = [parse_expr(" - ".join(["abs(x)"] * (i + 1)) + " * 2", ("x",)) for i in range(200)]
    for e in trees:
        for _ in range(3):
            eval_expr(e, {"x": 1.5})
    sources = set(_CODES) - before
    assert len(sources) == 200
    del trees, e
    gc.collect()
    assert not sources & set(_CODES)


def test_thousand_term_sum_round_trips_through_text():
    e = parse_expr(" + ".join("%d.5*x" % i for i in range(1000)), ("x",))
    assert parse_expr(to_text(e), ("x",)) == e


# the methods a frozen dataclass with Bin's fields generates, for comparison
GeneratedBin = dataclasses.make_dataclass(
    "Bin", [("op", str), ("left", object), ("right", object),
            ("pos", int, dataclasses.field(default=-1, compare=False))], frozen=True)


def generated(e):
    """e with every Bin node replaced by a GeneratedBin."""
    if isinstance(e, Bin):
        return GeneratedBin(e.op, generated(e.left), generated(e.right), e.pos)
    if isinstance(e, Neg):
        return Neg(generated(e.operand), e.pos)
    if isinstance(e, Call):
        return Call(e.fn, generated(e.arg), e.pos)
    return e


@pytest.mark.parametrize("text", ["1 + x", "x*2 - 3/x + sin(x)^2", "-(x + 1)*(2 - x)",
                                  "((x + 1) + (x + 2)) + (x + 3)", "x^-2"])
def test_bin_hash_and_repr_match_the_generated_methods(text):
    e = parse_expr(text, ("x",))
    assert hash(e) == hash(generated(e))
    assert repr(e) == repr(generated(e))


def test_thousand_term_sum_hashes_and_prints():
    text = " + ".join("%d.5*x" % i for i in range(1000))
    e = parse_expr(text, ("x",))
    assert hash(e) == hash(parse_expr("  " + text, ("x",)))
    assert len({e, parse_expr(text, ("x",))}) == 1
    assert repr(e).startswith("Bin(op='+', left=Bin(op='+', left=")
    assert repr(e).count("Bin(") == 1999
