"""Tiny arithmetic expression language for operators and kernels.

Grammar (binding tightest to loosest): ^ (right associative), unary minus,
* /, + -.  Atoms are decimal literals, variables (x1..xd, t, s), calls of
sin, cos, exp, log, sqrt, abs, and parenthesized expressions.

The walk (`_walk`) defines a tree's value and its errors.  `eval_expr`
evaluates a tree on a mapping of bindings: the first evaluation walks, and
the second gives the tree its own Python function, compiled once from it
(`_compile`), which every later evaluation calls.  `bind` compiles a tree at
once into a function of positional arguments, one per variable name, for
callers that evaluate one tree many times (a kernel).  Both conventions come
from one code template: it does the walk's floating-point operations in the
walk's order, so it returns the same bits, and when they raise or end
non-finite it calls the walk itself, which raises, or returns, exactly what
it would have alone.  The code nests each operand, parenthesised, in its
parent's expression, and gives a local only to what must be read as a name:
the compound operands of a node with a domain test, the result, and an
operand nested as deep as a fixed bound (_NEST), so that every tree the
parser accepts compiles.  Literals reach the code as default arguments, and
so do, for eval_expr, the names of the variables it reads; a subtracted
value runs as an addition, l - c as l + (-c) and l - c*X as l + (-c)*X,
with the same bits.  So trees that differ only in their literals, in the
signs of the values they subtract, or, for eval_expr, in their variable
names share one code object: the 30 rows of a dense operator whose
coefficients differ in sign share one, and so do the 900 entries of its
Jacobian, 0.3*W*cos(x<j>).  A subtree
without variables (the 0.3*W of a Jacobian entry, the -w of a kernel) is
computed once, at compile time, by the walk's own operations, with the same
bits.  So is the walk's test of an exponent known at compile time: x^2 runs
no test at run time, and x^-1 only tests x == 0.0.
"""
from __future__ import annotations

import builtins
import math
import re
import types
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Tuple, Union


class ExprError(ValueError):
    def __init__(self, msg: str, pos: int = -1):
        super().__init__(msg if pos < 0 else "%s (at position %d)" % (msg, pos))
        self.pos = pos


class ExprSyntaxError(ExprError):
    pass


class UnknownVariableError(ExprError):
    def __init__(self, name: str, pos: int):
        super().__init__("unknown variable %r" % name, pos)
        self.name = name


class EvalDomainError(ExprError):
    pass


FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
# The parser refuses deeper nesting (parentheses, function arguments, unary
# minus and exponents each open a level).  Parsing takes at most three stack
# frames per level and the walk and the compiler at most three, so a tree
# that parses stays well inside Python's default recursion limit of 1000.
MAX_DEPTH = 100
_MATH = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
         "sqrt": math.sqrt, "abs": abs}


def _first(e: "Expr", bindings: Dict[str, float]) -> float:
    """The _fn of a tree before its own: the first evaluation walks, and the
    second compiles the tree's function, keeps it as e._fn and calls it."""
    if not e._walked:
        _set(e, "_walked", True)
        return _walk(e, bindings)
    try:
        fn = _compile(e)
    except Exception:
        fn = _walk  # a tree the compiler refuses stays with the walk
    _set(e, "_fn", fn)
    return fn(e, bindings)


class _Node:
    # eval_expr's state for this tree, kept out of the dataclass fields so
    # that equality, hashing and repr ignore it: _walked turns True at the
    # first evaluation, and the second gives the tree its own _fn(e, bindings)
    # in place of _first.
    _walked = False
    _fn = staticmethod(_first)


# Lit, Var, Bin and Call set their fields through _set: the frozen dataclass's
# own __init__ looks object.__setattr__ up per field, and a whole new instance
# dict would double a tree's memory, its keys shared with no other instance.
_set = object.__setattr__


@dataclass(frozen=True)
class Lit(_Node):
    value: float
    pos: int = field(default=-1, compare=False)

    def __init__(self, value: float, pos: int = -1):
        _set(self, "value", value)
        _set(self, "pos", pos)


@dataclass(frozen=True)
class Var(_Node):
    name: str
    pos: int = field(default=-1, compare=False)

    def __init__(self, name: str, pos: int = -1):
        _set(self, "name", name)
        _set(self, "pos", pos)


@dataclass(frozen=True)
class Neg(_Node):
    operand: "Expr"
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Bin(_Node):
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"
    pos: int = field(default=-1, compare=False)

    def __init__(self, op: str, left: "Expr", right: "Expr", pos: int = -1):
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "pos", pos)

    def __eq__(self, other):
        # the left spines in a loop, so that comparing long sums costs one
        # stack frame, not one per term; the fields compared are op, left, right
        if other.__class__ is not Bin:
            return NotImplemented
        a, b = self, other
        while a.__class__ is Bin:
            if b.__class__ is not Bin or a.op != b.op or a.right != b.right:
                return False
            a, b = a.left, b.left
        return a == b

    # hash and repr walk the left spine in a loop too, and give the values the
    # dataclass would generate: hash((op, left, right)) and Bin(op=..., pos=...)
    def __hash__(self):
        spine, node = [], self
        while node.__class__ is Bin:
            spine.append(node)
            node = node.left
        h = hash(node)
        for node in reversed(spine):
            h = hash((node.op, _Hashed(h), node.right))
        return h

    def __repr__(self):
        spine, node = [], self
        while node.__class__ is Bin:
            spine.append(node)
            node = node.left
        return "".join(["Bin(op=%r, left=" % n.op for n in spine] + [repr(node)]
                       + [", right=%r, pos=%r)" % (n.right, n.pos) for n in reversed(spine)])


class _Hashed:
    """Stands in for a subtree in a tuple, hashing to that subtree's hash."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        self.h = h

    def __hash__(self):
        return self.h


@dataclass(frozen=True)
class Call(_Node):
    fn: str
    arg: "Expr"
    pos: int = field(default=-1, compare=False)

    def __init__(self, fn: str, arg: "Expr", pos: int = -1):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "pos", pos)


Expr = Union[Lit, Var, Neg, Bin, Call]


# One match per token: the whitespace before it, then an operator or parenthesis,
# a number, a name, or any other character but whitespace (an error); so matches
# follow each other from position 0 up to trailing whitespace.  The classes hold
# the ASCII characters of str.isspace, isdigit, isalpha and isalnum; see _stand_in.
_TOKEN = re.compile(r"([\x20\t\n\r\x0b\x0c\x1c-\x1f]*)(?:([-+*/^()])"
                    r"|((?:[0-9]|\.[0-9])[0-9.]*(?:[eE][-+]?[0-9]+)?)"
                    r"|([A-Za-z_][A-Za-z0-9_\u00bd]*)|([^\x20\t\n\r\x0b\x0c\x1c-\x1f]))")


def _stand_in(c: str) -> str:
    """What _TOKEN reads for the non-ASCII c: an ASCII character of its class, \u00bd
    for one that only continues a name (numeric, no digit or letter), or c."""
    return (" " if c.isspace() else "0" if c.isdigit() else "a" if c.isalpha()
            else "\u00bd" if c.isalnum() else c)


def _tokens(text: str) -> List[Tuple[str, object, int]]:
    """(kind, value, pos) of every token, then ("end", "", len(text)); kind is "num"
    (value a float), "name" or the operator itself.  A position adds up the lengths
    of the matches before it; lexemes come from text, so float reads Unicode digits."""
    scan = text if text.isascii() else text.translate(
        {ord(c): _stand_in(c) for c in set(text) if not c.isascii()})
    tokens, pos = [], 0
    append = tokens.append
    for space, op, num, name, _ in _TOKEN.findall(scan):
        pos += len(space)
        if op:
            append((op, op, pos))
        elif name:
            append(("name", text[pos:pos + len(name)], pos))
        elif num:
            lexeme = text[pos:pos + len(num)]
            try:
                append(("num", float(lexeme), pos))
            except ValueError:
                raise ExprSyntaxError("bad number literal %r" % lexeme, pos)
        else:
            raise ExprSyntaxError("unexpected character %r" % text[pos], pos)
        pos += len(op or name or num)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens from index k on; depth counts the
    open levels, each opened by the ( - or ^ just before its first factor."""

    def __init__(self, text: str, allowed_vars: FrozenSet[str]):
        self.toks, self.k, self.vars = _tokens(text), 0, allowed_vars

    def expr(self, depth: int) -> Expr:
        e = self.term(depth)
        toks = self.toks
        kind, _, pos = toks[self.k]
        while kind == "+" or kind == "-":
            self.k += 1
            e = Bin(kind, e, self.term(depth), pos)
            kind, _, pos = toks[self.k]
        return e

    def term(self, depth: int) -> Expr:
        e = self.factor(depth)
        toks = self.toks
        kind, _, pos = toks[self.k]
        while kind == "*" or kind == "/":
            self.k += 1
            e = Bin(kind, e, self.factor(depth), pos)
            kind, _, pos = toks[self.k]
        return e

    def factor(self, depth: int) -> Expr:
        """A unary minus, or a value with an optional ^ exponent (right
        associative; the exponent may carry a unary minus, as in 2^-3)."""
        toks, k = self.toks, self.k
        if depth > MAX_DEPTH:  # refused at the ( - or ^ just read
            raise ExprSyntaxError("expression nested more than %d levels deep" % MAX_DEPTH,
                                  toks[k - 1][2])
        kind, value, pos = toks[k]
        self.k = k + 1
        if kind == "num":
            e = Lit(value, pos)
        elif kind == "name":
            if value in FUNCTIONS:
                kind, _, p2 = toks[k + 1]
                if kind != "(":
                    raise ExprSyntaxError("function %r needs parentheses" % value, p2)
                self.k = k + 2
                e = Call(value, self.expr(depth + 1), pos)
                kind, _, p3 = toks[self.k]
                if kind != ")":
                    raise ExprSyntaxError("expected ')' after argument of %r" % value, p3)
                self.k += 1
            elif value in self.vars:
                e = Var(value, pos)
            else:
                raise UnknownVariableError(value, pos)
        elif kind == "(":
            e = self.expr(depth + 1)
            kind, _, p2 = toks[self.k]
            if kind != ")":
                raise ExprSyntaxError("expected ')'", p2)
            self.k += 1
        elif kind == "-":
            return Neg(self.factor(depth + 1), pos)
        else:
            raise ExprSyntaxError("expected a value", pos)
        kind, _, pos = toks[self.k]
        if kind != "^":
            return e
        self.k += 1
        return Bin("^", e, self.factor(depth + 1), pos)


def parse_expr(text: str, allowed_vars) -> Expr:
    """Parse text into an expression tree over the given variable names."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text, frozenset(allowed_vars))
    e = parser.expr(0)
    kind, _, pos = parser.toks[parser.k]
    if kind != "end":
        raise ExprSyntaxError("trailing input", pos)
    return e


def eval_expr(e: Expr, bindings: Dict[str, float]) -> float:
    """Evaluate a tree on finite bindings; domain trouble raises EvalDomainError.

    The first evaluation of a tree walks it; every later one runs the code
    compiled from it, which falls back to the walk on any exception or a
    non-finite value, so that the walk alone decides what is an error.
    """
    return e._fn(e, bindings)


def bind(e: Expr, names) -> Callable[..., float]:
    """e as a function of one positional argument per name, compiled now.

    bind(e, ("t", "s"))(t, s) is eval_expr(e, {"t": t, "s": s}): the same
    bits, or the same error with its position.  A variable outside names
    reads no binding, so there the function raises the walk's
    UnknownVariableError.
    """
    names = tuple(names)
    try:
        return _compile(e, names)
    except Exception:  # a tree the compiler refuses stays with the walk
        return lambda *args: _walk(e, dict(zip(names, args)))


def _walk(e: Expr, b: Dict[str, float]) -> float:
    """The tree walk behind eval_expr: its value, or the error it raises."""
    v = _eval(e, b)
    if not math.isfinite(v):
        raise EvalDomainError("non-finite result %r" % v, getattr(e, "pos", -1))
    return v


def _eval(e: Expr, b: Dict[str, float]) -> float:
    if isinstance(e, Bin):
        # fold the left spine in a loop, so that a long sum or product costs
        # one stack frame, not one per term
        spine = []
        while isinstance(e, Bin):
            spine.append(e)
            e = e.left
        v = _eval(e, b)
        for node in reversed(spine):
            v = _binary(node, v, _eval(node.right, b))
        return v
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Var):
        try:
            return b[e.name]
        except KeyError:
            raise UnknownVariableError(e.name, e.pos)
    if isinstance(e, Neg):
        return -_eval(e.operand, b)
    if isinstance(e, Call):
        return _call(e, _eval(e.arg, b))
    raise ExprError("unknown node %r" % (e,))


def _call(e: Call, x: float) -> float:
    if e.fn == "log" and x <= 0.0:
        raise EvalDomainError("log of nonpositive value %r" % x, e.pos)
    if e.fn == "sqrt" and x < 0.0:
        raise EvalDomainError("sqrt of negative value %r" % x, e.pos)
    if e.fn not in _MATH:
        raise ExprError("unknown function %r" % e.fn, e.pos)
    try:
        return _MATH[e.fn](x)
    except OverflowError:
        raise EvalDomainError("overflow in %s(%r)" % (e.fn, x), e.pos)
    except ValueError:  # sin or cos of an infinity
        raise EvalDomainError("%s of %r is undefined" % (e.fn, x), e.pos)


def _binary(e: Bin, l: float, r: float) -> float:
    try:
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            if r == 0.0:
                raise EvalDomainError("division by zero", e.pos)
            return l / r
        if e.op == "^":
            if l == 0.0 and r < 0.0:
                raise EvalDomainError("zero raised to negative power", e.pos)
            # an infinite or NaN exponent is no integer either
            if l < 0.0 and not float(r).is_integer():
                raise EvalDomainError("negative base with non-integer exponent", e.pos)
            return math.pow(l, r)
    except OverflowError:
        raise EvalDomainError("overflow in %r operation" % e.op, e.pos)
    raise ExprError("unknown operator %r" % e.op, e.pos)


# -- compiled evaluation ------------------------------------------------

# Each operator as the (prefix, infix, suffix) of Python source around its
# operands, parenthesised; _guard puts the walk's domain predicates in front
# of / and ^, and any exception they raise sends the code to the walk.  log
# and sqrt need no such line: math raises on exactly the walk's predicates
# (x <= 0, x < 0).
_OPS = {"+": ("(", " + ", ")"), "-": ("(", " - ", ")"), "*": ("(", " * ", ")"),
        "/": ("(", " / ", ")"), "^": ("(pow(", ", ", "))")}
# The one template of compiled code, for both conventions: the walk's
# operations inside try, their value if finite, and otherwise the walk.
_TEMPLATE = ("def expr({params}):\n"
             "    try:\n"
             "{body}"
             "        if isfinite({result}):\n"
             "            return {result}\n"
             "    except Exception:\n"
             "        pass\n"
             "    return walk(e, {env})\n")
# the globals of every compiled function: the walk's math, math.pow for ^,
# and the walk
_SCOPE = dict(_MATH, pow=math.pow, isfinite=math.isfinite, walk=_walk, __builtins__=builtins)
# the operator or call levels one line of the code may nest: CPython's parser
# refuses more than 200 nested parentheses, and a call level opens two
_NEST = 32
# generated source -> its code object, kept while some tree's function uses it
_CODES: "weakref.WeakValueDictionary[str, types.CodeType]" = weakref.WeakValueDictionary()


def _compile(e: Expr, names=None, walk=_walk) -> Callable[..., float]:
    """A function doing the walk's operations on e in order, in one of two
    conventions: fn(e, b), reading each variable as b[n<k>], the parameter
    n<k> defaulting to its name (eval_expr's), or, given names,
    fn(a0, a1, ...), reading names[k] as a<k> (bind's).

    Where the operations raise or end non-finite, fn returns walk(e, the
    bindings); walk is the tree walk but for tests that look at the code's
    own outcome.  Each operand is nested, parenthesised, into its parent's
    expression.  A local holds only the compound operands of a node with a
    domain test (_guard), so that the test reads names and nothing runs
    twice; the result, which the template reads twice; and an operand _NEST
    levels deep, so that the code compiles however deep the tree.  A subtree without
    variables is computed here, once, by the walk's own operations; a
    literal or such a value reaches the code as the default of a parameter
    c<k>, never as source text, and a subtracted one as its negation, added
    (_bin).  So the code depends on e's shape alone: trees that differ only
    in literals, in the signs of the values they subtract or, in eval_expr's
    convention, in variable names share one code object, and 0.0 and -0.0
    keep their own signs.
    """
    keys: List[str] = []
    if names is None:
        params, env = ["e", "b"], "b"

        def read(name):  # the key reaches the code as the default of n<k>, as a literal does
            keys.append(name)
            return "b[n%d]" % (len(keys) - 1)
    else:
        slot = {n: k for k, n in enumerate(names)}
        params = ["a%d" % k for k in range(len(names))]
        env = "{%s}" % ", ".join("%r: a%d" % (n, slot[n]) for n in slot)

        def read(name):  # a name without a slot reads an empty mapping, as the walk would
            return "a%d" % slot[name] if name in slot else "{}[%r]" % name
    lines: List[str] = []
    consts: List[float] = []
    result, levels = _emit(e, lines, consts, read)
    result = _assign(lines, result) if levels else _operand(result, consts)
    params += ["c%d" % k for k in range(len(consts))] + ["n%d" % k for k in range(len(keys))]
    defaults = tuple(consts) + tuple(keys)
    if names is not None:
        params.append("e")
        defaults += (e,)
    source = _TEMPLATE.format(params=", ".join(params), result=result, env=env,
                              body="".join("        %s\n" % s for s in lines))
    code = _CODES.get(source)
    if code is None:
        defined: dict = {}
        exec(source, _SCOPE, defined)
        code = _CODES[source] = defined["expr"].__code__
    scope = _SCOPE if walk is _walk else dict(_SCOPE, walk=walk)
    return types.FunctionType(code, scope, "expr", defaults)


def _emit(e: Expr, lines: List[str], consts: List[float],
          read: Callable[[str], str]) -> Tuple[Union[str, float], int]:
    """Append the statements e needs to lines; return the operand holding it
    and the operator or call levels that operand nests, 0 for a name.

    read(name) is the operand holding the variable name.  An operator or
    call node becomes one parenthesised expression over its operands (_bin);
    l - c*X, c a value, becomes l + (-c)*X, so its factors are emitted here.
    A subtree without variables returns its value instead, computed by the
    walk's operations in the walk's order, so with the walk's bits; where
    one of them raises, the subtree stays code, and the walk raises its
    positioned error when the code runs.  A tree the walk cannot evaluate
    either (an unknown operator, function or node) raises ExprError, and
    that tree is left to the walk.
    """
    if isinstance(e, Bin):
        spine = []
        while isinstance(e, Bin):
            spine.append(e)
            e = e.left
        l, dl = _emit(e, lines, consts, read)
        for node in reversed(spine):
            if node.op not in _OPS:
                raise ExprError("unknown operator %r" % node.op, node.pos)
            op, right = node.op, node.right
            if op == "-" and right.__class__ is Bin and right.op == "*":
                c, dc = _emit(right.left, lines, consts, read)
                x, dx = _emit(right.right, lines, consts, read)
                if isinstance(x, str) and not isinstance(c, str):
                    op, c = "+", -c
                r, dr = _bin(right, "*", c, dc, x, dx, lines, consts)
            else:
                r, dr = _emit(right, lines, consts, read)
            l, dl = _bin(node, op, l, dl, r, dr, lines, consts)
        return l, dl
    if isinstance(e, Lit):
        if isinstance(e.value, str):  # only code is a str here; leave the tree to the walk
            raise ExprError("literal %r is no number" % (e.value,), e.pos)
        return e.value, 0
    if isinstance(e, Var):
        return read(e.name), 0
    if isinstance(e, Neg):
        x, d = _emit(e.operand, lines, consts, read)
        if not isinstance(x, str):
            return -x, 0
        x, d = _shallow(lines, x, d)
        return "(-" + x + ")", d + 1
    if isinstance(e, Call):
        if e.fn not in _MATH:
            raise ExprError("unknown function %r" % e.fn, e.pos)
        x, d = _emit(e.arg, lines, consts, read)
        if not isinstance(x, str):
            try:
                return _call(e, x), 0
            except ExprError:
                x = _operand(x, consts)
        x, d = _shallow(lines, x, d)
        return "(" + e.fn + "(" + x + "))", d + 1
    raise ExprError("unknown node %r" % (e,))


def _bin(node: Bin, op: str, l: Union[str, float], dl: int, r: Union[str, float], dr: int,
         lines: List[str], consts: List[float]) -> Tuple[Union[str, float], int]:
    """The operand holding node's operation on the emitted operands l and r,
    and the levels it nests, as _emit returns them; op is node.op, or + where
    the caller negated r in place of a -.

    Two values fold by the walk's operation.  Otherwise l - c, c a value,
    becomes l + (-c): IEEE defines x - y as x + (-y), so the bits are the
    same, and (-c)*X is -(c*X) exactly, so the callers' l + (-c)*X keeps them
    too.  Either way the sign of c moves out of the code into its parameter.
    """
    if not isinstance(l, str) and not isinstance(r, str):
        try:
            return _binary(node, l, r), 0
        except ExprError:
            pass
    elif op == "-" and not isinstance(r, str):
        op, r = "+", -r
    guard = _guard(op, r)
    l, r = _operand(l, consts), _operand(r, consts)
    if guard:  # the guard reads names, and each operand runs once
        if dl:
            l, dl = _assign(lines, l), 0
        if dr:
            r, dr = _assign(lines, r), 0
        lines.append(guard.format(l=l, r=r))
    l, dl = _shallow(lines, l, dl)
    r, dr = _shallow(lines, r, dr)
    prefix, infix, suffix = _OPS[op]
    return prefix + l + infix + r + suffix, max(dl, dr) + 1


def _guard(op: str, r: Union[str, float]) -> str:
    """The line of code raising where the walk refuses l op r, over {l} and
    {r}, or "" where it refuses nothing.

    Where the exponent r of ^ is a value, the walk's two tests of it, r < 0.0
    and r not an integer, are decided here, by the walk's own expressions, and
    the line keeps only the tests of the base that can still refuse: none for
    x^2, x == 0.0 for x^-1, x < 0.0 for x^0.5, both for x^-0.5.
    """
    if op == "/":
        return "if {r} == 0.0: raise ZeroDivisionError"
    if op != "^":
        return ""
    if isinstance(r, str):
        return ("if {l} == 0.0 and {r} < 0.0 or {l} < 0.0 and not float({r}).is_integer(): "
                "raise ValueError")
    tests = []
    if r < 0.0:
        tests.append("{l} == 0.0")
    if not float(r).is_integer():  # an infinite or NaN exponent is no integer either
        tests.append("{l} < 0.0")
    return "if %s: raise ValueError" % " or ".join(tests) if tests else ""


def _operand(v: Union[str, float], consts: List[float]) -> str:
    """v as an operand of the code: a value becomes the next parameter c<k>."""
    if isinstance(v, str):
        return v
    consts.append(v)
    return "c%d" % (len(consts) - 1)


def _assign(lines: List[str], value: str) -> str:
    name = "v%d" % len(lines)
    lines.append("%s = %s" % (name, value))
    return name


def _shallow(lines: List[str], x: str, levels: int) -> Tuple[str, int]:
    """The operand x nesting levels deep, or a local holding it where one
    more level would nest deeper than _NEST."""
    return (_assign(lines, x), 0) if levels >= _NEST else (x, levels)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(e: Expr) -> str:
    """Render a tree back to source; parse(to_text(e)) is structurally e."""
    return _render(e, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Lit):
        s = repr(e.value)
        # a bare negative literal needs the same care as unary minus
        if e.value < 0 and parent_prec >= _PREC["neg"]:
            return "(" + s + ")"
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return "%s(%s)" % (e.fn, _render(e.arg, 0))
    if isinstance(e, Neg):
        s = "-" + _render(e.operand, _PREC["neg"])
        return "(" + s + ")" if parent_prec > _PREC["neg"] else s
    if isinstance(e, Bin):
        prec = _PREC[e.op]
        if e.op == "^":
            # right associative; left side must bind tighter than ^
            left = _render(e.left, prec + 1)
            right = _render(e.right, _PREC["neg"])  # exponent admits unary minus
            s = left + "^" + right
        else:
            # the left spine of a chain at this precedence needs no parentheses;
            # render it in a loop, so that a long sum costs one stack frame
            spine = []
            while isinstance(e, Bin) and e.op != "^" and _PREC[e.op] == prec:
                spine.append(e)
                e = e.left
            parts = [_render(e, prec)]
            for node in reversed(spine):
                parts += [node.op, _render(node.right, prec + 1)]
            s = " ".join(parts)
        return "(" + s + ")" if prec < parent_prec else s
    raise ExprError("unknown node %r" % (e,))
