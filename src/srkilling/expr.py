"""Exact symbolic scalar expressions over chart coordinates.

The expression language is deliberately tiny: rational constants, declared
coordinate variables, the four arithmetic operations, integer and rational
powers via ``pow(e, p/q)``, and the unary functions ``sin``, ``cos``,
``exp``, ``neg``.  Constants are stored as :class:`fractions.Fraction`, so
arithmetic on polynomial data stays exact until a point evaluation.

Simplification is best effort (constant folding, 0/1 identities, exponent
merging); correctness of every downstream computation rests on evaluation
agreement, never on canonical forms.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Call",
    "ExprError",
    "ParseError",
    "EvalError",
    "parse_expression",
    "expression_depth",
    "differentiate",
    "compile_expression",
    "to_string",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_",
    "call",
    "ZERO",
    "ONE",
]


class ExprError(Exception):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    """Syntax or identifier error; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ExprError):
    """Numeric evaluation failure: an unbound variable, a constant outside
    the float range, a symbolic division by zero, or a value that is not
    finite where a finite one is needed (a curve point, a stage of
    transport)."""


class Expression:
    """Base AST node.  Nodes are immutable and safe to share."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(Expression):
    value: Fraction


@dataclass(frozen=True, slots=True)
class Var(Expression):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True, slots=True)
class Sub(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True, slots=True)
class Mul(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True, slots=True)
class Div(Expression):
    a: Expression
    b: Expression


@dataclass(frozen=True, slots=True)
class Neg(Expression):
    a: Expression


@dataclass(frozen=True, slots=True)
class Pow(Expression):
    base: Expression
    exponent: Fraction  # rational, stored exactly


@dataclass(frozen=True, slots=True)
class Call(Expression):
    fn: str  # one of "sin", "cos", "exp"
    arg: Expression


FUNCTIONS = ("sin", "cos", "exp")

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(v) -> Const:
    return Const(Fraction(v))


def var(name: str) -> Var:
    return Var(name)


# ---------------------------------------------------------------------------
# Smart constructors: every rewrite the simplifier knows happens here, at
# construction time, so parser and differentiator emit simplified trees.
# ---------------------------------------------------------------------------


def add(a: Expression, b: Expression) -> Expression:
    # literal zeros are tested first, by truthiness: they need no Fraction
    # arithmetic, and Fraction.__eq__ would cost more than the test
    if isinstance(a, Const) and not a.value:
        return b
    if isinstance(b, Const) and not b.value:
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    return Add(a, b)


def sub(a: Expression, b: Expression) -> Expression:
    if isinstance(b, Const) and not b.value:
        return a
    if isinstance(a, Const) and not a.value:
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if a is b:
        return ZERO
    return Sub(a, b)


def mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and not a.value or isinstance(b, Const) and not b.value:
        return ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 1:
            return b
        if a.value == -1:
            return neg(b)
    if isinstance(b, Const):
        if b.value == 1:
            return a
        if b.value == -1:
            return neg(a)
    return Mul(a, b)


def div(a: Expression, b: Expression) -> Expression:
    if isinstance(b, Const):
        if b.value == 0:
            raise EvalError("symbolic division by the constant zero")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1:
            return a
    if isinstance(a, Const) and a.value == 0:
        return ZERO
    if a is b:
        return ONE
    return Div(a, b)


def neg(a: Expression) -> Expression:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def pow_(base: Expression, exponent) -> Expression:
    r = Fraction(exponent)
    if r == 0:
        return ONE
    if r == 1:
        return base
    if isinstance(base, Const) and r.denominator == 1:
        if r >= 0:
            return Const(base.value**r.numerator)
        if base.value == 0:
            raise EvalError("symbolic zero raised to a negative power")
        return Const(Fraction(1) / base.value**(-r.numerator))
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * r)
    return Pow(base, r)


def call(fn: str, arg: Expression) -> Expression:
    if fn not in FUNCTIONS:
        raise ExprError(f"unknown function {fn!r}")
    return Call(fn, arg)


# ---------------------------------------------------------------------------
# Parsing.  Grammar (whitespace-insensitive, UTF-8):
#   expr   := term (("+"|"-") term)*
#   term   := factor (("*"|"/") factor)*
#   factor := ("-")? atom ("^" integer)?
#   atom   := number | ident | ident "(" expr ")" | "(" expr ")"
#           | "pow" "(" expr "," rational ")"
#   number := integer ("/" integer)?
# ---------------------------------------------------------------------------


# A fraction part or exponent right after an integer: a decimal literal.
_DECIMAL_TAIL = re.compile(r"\.\d*(?:[eE][+-]?\d+)?|[eE][+-]?\d+")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        c = self.peek()
        self.pos += 1
        return c

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        tok = self.text[start : self.pos]
        if not tok or tok == "-":
            raise ParseError("expected integer", start)
        decimal = _DECIMAL_TAIL.match(self.text, self.pos)
        if decimal:
            literal = tok + decimal.group()
            raise ParseError(
                f"decimal literal {literal!r}: numbers are exact rationals, "
                "write it as a ratio of integers such as 1/2",
                start,
            )
        return int(tok)

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


class _Parser:
    def __init__(self, text: str, variables: list[str]):
        self.t = _Tokenizer(text)
        self.vars = set(variables)

    def parse(self) -> Expression:
        e = self.expr()
        self.t.skip_ws()
        if self.t.pos != len(self.t.text):
            raise ParseError("unexpected trailing input", self.t.pos)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            c = self.t.peek()
            if c == "+":
                self.t.take()
                e = add(e, self.term())
            elif c == "-":
                self.t.take()
                e = sub(e, self.term())
            else:
                return e

    def term(self) -> Expression:
        e = self.factor()
        while True:
            c = self.t.peek()
            if c == "*":
                self.t.take()
                e = mul(e, self.factor())
            elif c == "/":
                self.t.take()
                pos = self.t.pos
                self.t.skip_ws()
                if self.t.pos >= len(self.t.text):
                    raise ParseError("division with empty denominator", pos)
                e = div(e, self.factor())
            else:
                return e

    def factor(self) -> Expression:
        negate = False
        if self.t.peek() == "-":
            self.t.take()
            negate = True
        e = self.atom()
        if self.t.peek() == "^":
            self.t.take()
            e = pow_(e, Fraction(self.t.integer()))
        return neg(e) if negate else e

    def atom(self) -> Expression:
        c = self.t.peek()
        pos = self.t.pos
        if c == "(":
            self.t.take()
            e = self.expr()
            self.t.expect(")")
            return e
        if c.isdigit():
            # number := integer ("/" integer)?  The rational form is handled
            # by the term-level "/" plus constant folding, which keeps
            # division left-associative.
            return Const(Fraction(self.t.integer()))
        if c.isalpha() or c == "_":
            name = self.t.ident()
            if name == "pow":
                self.t.expect("(")
                base = self.expr()
                self.t.expect(",")
                p = self.t.integer()
                q = 1
                if self.t.peek() == "/":
                    self.t.take()
                    q = self.t.integer()
                    if q == 0:
                        raise ParseError("zero denominator in exponent", self.t.pos)
                self.t.expect(")")
                return pow_(base, Fraction(p, q))
            if name in FUNCTIONS:
                self.t.expect("(")
                arg = self.expr()
                self.t.expect(")")
                return call(name, arg)
            if name in self.vars:
                return Var(name)
            raise ParseError(f"unknown identifier {name!r}", pos)
        raise ParseError("expected number, identifier or parenthesis", pos)


# Deepest parsed tree accepted.  Every tree walk here recurses once or twice
# per level, and derived expressions (derivatives, determinants, the nabla^m
# tower) grow deeper than their inputs, so this keeps the whole pipeline
# inside the interpreter's default recursion limit.
MAX_PARSE_DEPTH = 200


def parse_expression(text: str, variables: list[str]) -> Expression:
    """Parse ``text`` over the declared variable names.

    Raises :class:`ParseError` with the byte offset on syntax errors and on
    identifiers that are neither declared variables nor built-in functions,
    and on input whose tree is more than MAX_PARSE_DEPTH levels deep (a
    chain of k sums or products counts k levels).
    """
    try:
        e = _Parser(text, variables).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", 0) from None
    depth = expression_depth(e)
    if depth > MAX_PARSE_DEPTH:
        raise ParseError(
            f"expression tree is {depth} levels deep, over the limit {MAX_PARSE_DEPTH}", 0
        )
    return e


def _children(e: Expression) -> tuple[Expression, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.a, e.b)
    if isinstance(e, Neg):
        return (e.a,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Call):
        return (e.arg,)
    return ()


def expression_depth(e: Expression) -> int:
    """Levels of the tree (a leaf is 1), computed without recursion."""
    depth: dict[int, int] = {}
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            depth[id(node)] = 1 + max((depth[id(c)] for c in _children(node)), default=0)
        elif id(node) not in depth:
            stack.append((node, True))
            stack.extend((c, False) for c in _children(node))
    return depth[id(e)]


# ---------------------------------------------------------------------------
# Printing.  Output re-parses to an evaluation-equivalent expression.
# ---------------------------------------------------------------------------


def to_string(e: Expression) -> str:
    return _print(e, 0)


def _print(e: Expression, prec: int) -> str:
    # precedence levels: 0 sum, 1 product, 2 unary/power, 3 atom
    if isinstance(e, Const):
        s = str(e.value)
        return f"({s})" if (e.value < 0 or e.value.denominator != 1) and prec >= 1 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        s = f"{_print(e.a, 0)} + {_print(e.b, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, Sub):
        s = f"{_print(e.a, 0)} - {_print(e.b, 1)}"
        return f"({s})" if prec > 0 else s
    if isinstance(e, Mul):
        s = f"{_print(e.a, 1)}*{_print(e.b, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(e, Div):
        s = f"{_print(e.a, 1)}/{_print(e.b, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(e, Neg):
        s = f"-{_print(e.a, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(e, Pow):
        r = e.exponent
        if r.denominator == 1 and r >= 0:
            return f"{_print(e.base, 3)}^{r.numerator}"
        if r.denominator == 1:
            return f"pow({_print(e.base, 0)}, {r.numerator})"
        return f"pow({_print(e.base, 0)}, {r.numerator}/{r.denominator})"
    if isinstance(e, Call):
        return f"{e.fn}({_print(e.arg, 0)})"
    raise TypeError(f"not an Expression: {e!r}")


# ---------------------------------------------------------------------------
# Exact differentiation.
# ---------------------------------------------------------------------------


# Derivatives of shared subexpressions are shared again, which both avoids
# re-deriving common subtrees and keeps the compiled evaluation CSE tight.
_DIFF_CACHE: dict[tuple[int, str], tuple[Expression, Expression]] = {}


def differentiate(e: Expression, v: str) -> Expression:
    """Exact partial derivative of ``e`` with respect to the coordinate ``v``."""
    key = (id(e), v)
    hit = _DIFF_CACHE.get(key)
    if hit is not None and hit[0] is e:
        return hit[1]
    d = _differentiate(e, v)
    _DIFF_CACHE[key] = (e, d)
    return d


def _differentiate(e: Expression, v: str) -> Expression:
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Add):
        return add(differentiate(e.a, v), differentiate(e.b, v))
    if isinstance(e, Sub):
        return sub(differentiate(e.a, v), differentiate(e.b, v))
    if isinstance(e, Mul):
        return add(mul(differentiate(e.a, v), e.b), mul(e.a, differentiate(e.b, v)))
    if isinstance(e, Div):
        da, db = differentiate(e.a, v), differentiate(e.b, v)
        return div(sub(mul(da, e.b), mul(e.a, db)), pow_(e.b, Fraction(2)))
    if isinstance(e, Neg):
        return neg(differentiate(e.a, v))
    if isinstance(e, Pow):
        du = differentiate(e.base, v)
        return mul(mul(Const(e.exponent), pow_(e.base, e.exponent - 1)), du)
    if isinstance(e, Call):
        du = differentiate(e.arg, v)
        if e.fn == "sin":
            return mul(call("cos", e.arg), du)
        if e.fn == "cos":
            return neg(mul(call("sin", e.arg), du))
        if e.fn == "exp":
            return mul(call("exp", e.arg), du)
    raise TypeError(f"not an Expression: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation: the compiled tape, a vectorized numpy function over many
# points.  It makes no finiteness check; each caller checks what it reads.
# ---------------------------------------------------------------------------


def _const_float(value: Fraction) -> float:
    """A rational constant as a binary64; EvalError when it does not fit."""
    try:
        return float(value)
    except OverflowError:
        raise EvalError("a constant does not fit a float (magnitude over 1.8e308)") from None


def _np_rational_pow(u: np.ndarray, p: int, q: int) -> np.ndarray:
    if q == 1:
        return u.astype(float) ** p
    if q % 2 == 1:
        m = np.abs(u) ** (abs(p) / q)
        m = np.where((u < 0) & (p % 2 == 1), -m, m)
        return m if p > 0 else 1.0 / m
    # even root: negative bases yield nan, surfaced by the finiteness check
    with np.errstate(invalid="ignore"):
        return u ** (p / q)


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_NP_FNS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def _unary(node: Expression):
    """(numpy function, operand) of a Neg, Pow or Call node."""
    if isinstance(node, Neg):
        return operator.neg, node.a
    if isinstance(node, Pow):
        p, q = node.exponent.numerator, node.exponent.denominator
        return (lambda u: _np_rational_pow(np.asarray(u, dtype=float), p, q)), node.base
    fn = _NP_FNS[node.fn]
    return (lambda u: fn(np.asarray(u, dtype=float))), node.arg


def compile_expression(e: Expression | list[Expression], var_order: list[str]):
    """Compile one expression, or a list of roots, into one tape: a
    vectorized function of len(var_order) numpy arrays.

    The tape holds each distinct node (by object identity) of all roots
    once, so a subexpression the roots share is one slot, computed once; a
    slot is released after its last use.  Each root is written to the
    output as soon as it is computed, the constant roots in one write.  With
    a list of R roots the function returns an array (R,) + shape, with one
    root the array shape: the shape of the input arrays, or (1,) when there
    are none (lie mode: no coordinates, one point).  No finiteness check is
    made: a pole or an even root of a negative value gives inf or nan, and
    the caller that reads the values rejects them.  fn(*arrays, out=buf)
    writes the roots into buf, an array (R,) + shape, and returns it.
    """
    single = isinstance(e, Expression)
    roots = [e] if single else list(e)
    order: list[Expression] = []
    index: dict[int, int] = {}
    seen: set[int] = set()
    for root in roots:  # post order, without recursion
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                index[id(node)] = len(order)
                order.append(node)
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((c, False) for c in reversed(_children(node)))
    var_pos = {name: k for k, name in enumerate(var_order)}

    # Constants (numpy scalars, so that 0/0 is nan as on arrays) and
    # variables are loaded before the loop.  An op is
    # [function, target slot, operand a, operand b or -1, slots released
    # after it, roots it writes]; a slot goes after the last op that reads
    # it, or after its own op when nothing reads it.
    consts: list[tuple[int, float]] = []
    loads: list[tuple[int, int]] = []
    ops: dict[int, list] = {}
    for k, node in enumerate(order):
        if isinstance(node, Const):
            consts.append((k, np.float64(_const_float(node.value))))
        elif isinstance(node, Var):
            if node.name not in var_pos:
                raise EvalError(f"unbound variable {node.name!r}")
            loads.append((k, var_pos[node.name]))
        elif type(node) in _BINARY:
            ops[k] = [_BINARY[type(node)], k, index[id(node.a)], index[id(node.b)], [], []]
        else:
            fn, arg = _unary(node)
            ops[k] = [fn, k, index[id(arg)], -1, [], []]
    last_use = {slot: op for op in ops.values() for slot in op[1:4]}
    last_use.pop(-1, None)
    for slot, op in last_use.items():
        op[4].append(slot)
    loaded_roots: dict = {}  # slot -> rows of the roots that are a variable
    for r, root in enumerate(roots):
        k = index[id(root)]
        if k in ops:
            ops[k][5].append(r)
        elif not isinstance(root, Const):
            loaded_roots.setdefault(k, []).append(r)
    loaded = [(k, np.array(rows)) for k, rows in loaded_roots.items()]
    const_rows = np.array([r for r, root in enumerate(roots) if isinstance(root, Const)], dtype=int)
    const_vals = np.array([_const_float(roots[r].value) for r in const_rows])  # one write for all
    steps = [tuple(op) for op in ops.values()]
    nroots, nslots = len(roots), len(order)

    def fn(*arrays, out=None):
        if out is None:
            out = np.empty((nroots,) + (np.shape(arrays[0]) if arrays else (1,)))
        slots: list = [None] * nslots
        for k, value in consts:
            slots[k] = value
        for k, pos in loads:
            slots[k] = np.asarray(arrays[pos], dtype=float)
        for k, rows in loaded:
            out[rows] = slots[k]
        out[const_rows] = const_vals.reshape((-1,) + (1,) * (out.ndim - 1))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for f, k, a, b, free, rows in steps:
                v = slots[k] = f(slots[a]) if b < 0 else f(slots[a], slots[b])
                for r in rows:
                    out[r] = v
                for slot in free:
                    slots[slot] = None
        return out[0] if single else out

    return fn


# ---------------------------------------------------------------------------
# Polynomial normal form.  Expressions built from rational constants,
# variables, +, -, * and nonnegative integer powers convert to a canonical
# multivariate polynomial; normalize() rebuilds such subtrees in canonical
# form and attempts exact division for P/Q and P * Q^-k patterns.  This is
# what keeps Christoffel data of polynomial frames literally zero instead of
# zero-valued expression thickets.
#
# A Poly is {monomial: integer numerator} over one positive denominator
# den, their gcd divided out.  A monomial is one int holding the exponent of
# variable v in the _FIELD_BITS-wide bit field at _FIELD[v] (one entry per
# distinct name, the next free field on first sight), so the monomial of a
# product is a sum of ints.  deg bounds the total degree: a product whose
# bound passes _FIELD_MASK could carry into the next field and gives None,
# so as_poly falls back to rebuilding node by node, which evaluates the
# same.  Monomials become exponent tuples over the sorted names only where
# order matters: poly_to_expr and the lex leading terms of poly_div_exact.
# ---------------------------------------------------------------------------

_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1
_FIELD: dict[str, int] = {}


class Poly:
    __slots__ = ("terms", "den", "deg")

    def __init__(self, terms: dict[int, int], den: int = 1, deg: int = 0):
        """terms holds no zero numerator; their gcd with den is divided out here."""
        g = math.gcd(den, *terms.values()) if den != 1 else 1
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
        self.terms, self.den, self.deg = terms, den // g, deg

    @staticmethod
    def constant(c: Fraction) -> "Poly":
        return Poly({0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly({1 << _FIELD.setdefault(name, _FIELD_BITS * len(_FIELD)): 1}, 1, 1)

    def constant_value(self) -> Fraction:
        return Fraction(self.terms.get(0, 0), self.den)


def _poly_scale(p: Poly, c: Fraction) -> Poly:
    return Poly({m: v * c.numerator for m, v in p.terms.items()}, p.den * c.denominator, p.deg)


def _poly_add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    g = math.gcd(p.den, q.den)
    fp, fq = q.den // g, sign * (p.den // g)
    out = {m: c * fp for m, c in p.terms.items()}
    for m, c in q.terms.items():
        out[m] = out.get(m, 0) + c * fq
    return Poly({m: c for m, c in out.items() if c}, p.den * fp, max(p.deg, q.deg))


def _poly_mul(p: Poly, q: Poly) -> Poly | None:
    deg = p.deg + q.deg
    if deg > _FIELD_MASK:
        return None
    out: dict[int, int] = {}
    get = out.get
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return Poly({m: c for m, c in out.items() if c}, p.den * q.den, deg)


def _poly_pow(p: Poly, n: int) -> Poly | None:
    if p.deg * n > _FIELD_MASK:
        return None
    if len(p.terms) == 1:
        ((m, c),) = p.terms.items()
        return Poly({m * n: c**n}, p.den**n, p.deg * n)
    result = Poly({0: 1})
    base = p
    while n:
        if n & 1:
            result = _poly_mul(result, base)
        base = _poly_mul(base, base) if n > 1 else base
        n >>= 1
    return result


def _fields(*polys: Poly) -> tuple[list[str], list[int]]:
    """Sorted names of the variables the polynomials use, and their offsets."""
    used = 0
    for p in polys:
        for m in p.terms:
            used |= m
    names = sorted(v for v, shift in _FIELD.items() if used >> shift & _FIELD_MASK)
    return names, [_FIELD[v] for v in names]


def _decode(m: int, shifts: list[int]) -> tuple[int, ...]:
    return tuple(m >> s & _FIELD_MASK for s in shifts)


def poly_div_exact(p: Poly, q: Poly) -> Poly | None:
    """Quotient p/q when the division is exact, else None (lex order).  The
    numerators of q are divided by their gcd c; by Gauss's lemma an exact
    quotient by that primitive polynomial has integer coefficients."""
    if not q.terms:
        return None
    c = math.gcd(*q.terms.values())
    names, shifts = _fields(p, q)
    rem = {_decode(m, shifts): v for m, v in p.terms.items()}
    tq = {_decode(m, shifts): v // c for m, v in q.terms.items()}
    lt_q = max(tq)
    cq = tq[lt_q]
    quo: dict[int, int] = {}
    while rem:
        lt_r = max(rem)
        mono = tuple(a - b for a, b in zip(lt_r, lt_q))
        coeff, r = divmod(rem[lt_r], cq)
        if r or any(e < 0 for e in mono):
            return None
        quo[sum(e << s for e, s in zip(mono, shifts))] = coeff
        for k, v in tq.items():
            kk = tuple(a + b for a, b in zip(mono, k))
            nv = rem.get(kk, 0) - coeff * v
            if nv == 0:
                rem.pop(kk, None)
            else:
                rem[kk] = nv
    return Poly({m: v * q.den for m, v in quo.items()}, p.den * c, p.deg)


def poly_to_expr(p: Poly) -> Expression:
    if not p.terms:
        return ZERO
    names, shifts = _fields(p)
    parts: list[Expression] = []
    monomials = sorted(((_decode(m, shifts), m) for m in p.terms), reverse=True)
    for k, m in monomials:
        num = p.terms[m]
        term: Expression | None = None
        for name, e in zip(names, k):
            if e == 0:
                continue
            fac = Var(name) if e == 1 else Pow(Var(name), Fraction(e))
            term = fac if term is None else Mul(term, fac)
        if term is None:
            term = Const(Fraction(num, p.den))
        elif num == -p.den:
            term = Neg(term)
        elif num != p.den:
            term = Mul(Const(Fraction(num, p.den)), term)
        parts.append(term)
    # balanced sum keeps tree depth logarithmic in the monomial count
    while len(parts) > 1:
        nxt = []
        for i in range(0, len(parts) - 1, 2):
            a, b = parts[i], parts[i + 1]
            nxt.append(Sub(a, b.a) if isinstance(b, Neg) else Add(a, b))
        if len(parts) % 2 == 1:
            nxt.append(parts[-1])
        parts = nxt
    out = parts[0]
    # as_poly(out) hits here instead of walking the tree just built.  A
    # Poly is canonical, so the walk would give p's terms and den, and as
    # deg the largest total degree of a monomial; past _FIELD_MASK the walk
    # gives None, so such a tree is left to it.
    deg = max(sum(k) for k, _ in monomials)
    if deg <= _FIELD_MASK:
        _POLY_CACHE[id(out)] = (out, p if deg == p.deg else Poly(p.terms, p.den, deg))
    return out


_POLY_CACHE: dict[int, tuple[Expression, Poly | None]] = {}


def as_poly(e: Expression) -> Poly | None:
    key = id(e)
    hit = _POLY_CACHE.get(key)
    if hit is not None and hit[0] is e:
        return hit[1]
    p = _as_poly(e)
    _POLY_CACHE[key] = (e, p)
    return p


def _as_poly(e: Expression) -> Poly | None:
    if isinstance(e, Const):
        return Poly.constant(e.value)
    if isinstance(e, Var):
        return Poly.variable(e.name)
    if isinstance(e, Add):
        a, b = as_poly(e.a), as_poly(e.b)
        return _poly_add(a, b) if a is not None and b is not None else None
    if isinstance(e, Sub):
        a, b = as_poly(e.a), as_poly(e.b)
        return _poly_add(a, b, -1) if a is not None and b is not None else None
    if isinstance(e, Mul):
        a, b = as_poly(e.a), as_poly(e.b)
        return _poly_mul(a, b) if a is not None and b is not None else None
    if isinstance(e, Neg):
        a = as_poly(e.a)
        return _poly_scale(a, Fraction(-1)) if a is not None else None
    if isinstance(e, Div):
        a, b = as_poly(e.a), as_poly(e.b)
        if a is None or b is None:
            return None
        if b.terms.keys() <= {0}:
            c = b.constant_value()
            return _poly_scale(a, 1 / c) if c != 0 else None
        return poly_div_exact(a, b)
    if isinstance(e, Pow):
        r = e.exponent
        base = as_poly(e.base)
        if base is None or r.denominator != 1 or r < 0:
            return None
        return _poly_pow(base, r.numerator)
    return None


_NORM_CACHE: dict[int, tuple[Expression, Expression]] = {}


def normalize(e: Expression) -> Expression:
    """Best-effort canonicalization; evaluation-equivalent to the input."""
    key = id(e)
    hit = _NORM_CACHE.get(key)
    if hit is not None and hit[0] is e:
        return hit[1]
    out = _normalize(e)
    _NORM_CACHE[key] = (e, out)
    _NORM_CACHE[id(out)] = (out, out)
    return out


def _normalize(e: Expression) -> Expression:
    p = as_poly(e)
    if p is not None:
        return poly_to_expr(p)  # every Const and Var
    if isinstance(e, Add):
        return add(normalize(e.a), normalize(e.b))
    if isinstance(e, Sub):
        return sub(normalize(e.a), normalize(e.b))
    if isinstance(e, Neg):
        return neg(normalize(e.a))
    if isinstance(e, Call):
        return call(e.fn, normalize(e.arg))
    if isinstance(e, Pow):
        return pow_(normalize(e.base), e.exponent)
    if isinstance(e, Div):
        a, b = normalize(e.a), normalize(e.b)
        pa, pb = as_poly(a), as_poly(b)
        if pa is not None and pb is not None:
            q = poly_div_exact(pa, pb)
            if q is not None:
                return poly_to_expr(q)
        return div(a, b)
    if isinstance(e, Mul):
        a, b = normalize(e.a), normalize(e.b)
        q = _try_pow_division(a, b)
        if q is None:
            q = _try_pow_division(b, a)
        if q is not None:
            return q
        return mul(a, b)
    raise TypeError(f"not an Expression: {e!r}")


def _try_pow_division(num: Expression, den_pow: Expression) -> Expression | None:
    """Simplify num * base^-k by exact polynomial division, possibly partially."""
    if not isinstance(den_pow, Pow):
        return None
    r = den_pow.exponent
    if r.denominator != 1 or r >= 0:
        return None
    base = as_poly(den_pow.base)
    p = as_poly(num)
    if base is None or p is None:
        return None
    k = -r.numerator
    divided = 0
    while divided < k:
        q = poly_div_exact(p, base)
        if q is None:
            break
        p = q
        divided += 1
    if divided == 0:
        return None
    left = poly_to_expr(p)
    if divided == k:
        return left
    return mul(left, pow_(den_pow.base, Fraction(-(k - divided))))
