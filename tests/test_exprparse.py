import math

import numpy as np
import pytest

from fpcert.exprparse import (Bin, Call, EvalDomainError, ExprSyntaxError,
                              FUNCTIONS, Lit, Neg, UnknownVariableError, Var,
                              eval_expr, parse_expr, to_text)


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


def test_equality_ignores_source_position():
    a = parse_expr("x+1", ("x",))
    b = parse_expr("  x  +  1", ("x",))
    assert a == b


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
