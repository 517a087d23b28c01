"""Reference scalar evaluator for srkilling.expr.

This is the recursive point evaluator the library used beside its compiled
tape, kept verbatim: it evaluates an expression at one point given as a
name -> value mapping with math.sin, math.cos, math.exp and Python's **, and
raises EvalError on division by zero, an even root of a negative value, a
zero raised to a negative power, an unbound variable or a non-finite
result.  Tests use it as an independent oracle for the tape and for
finite differences.
"""

from __future__ import annotations

import math
from fractions import Fraction

from srkilling.expr import (
    Add,
    Call,
    Const,
    Div,
    EvalError,
    Expression,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _const_float,
)


def _rational_pow(u: float, r: Fraction) -> float:
    p, q = r.numerator, r.denominator
    if q == 1:
        if u == 0.0 and p < 0:
            raise EvalError("zero raised to a negative power")
        return float(u) ** p
    if u < 0.0:
        if q % 2 == 0:
            raise EvalError(f"even root of negative value {u!r}")
        m = (-u) ** (abs(p) / q)
        m = m if p % 2 == 0 else -m
        return m if p > 0 else 1.0 / m
    if u == 0.0 and p < 0:
        raise EvalError("zero raised to a negative power")
    return u ** (p / q)


def evaluate(e: Expression, env: dict[str, float]) -> float:
    """Evaluate at a point given as a name -> value mapping (binary64)."""
    memo: dict[int, float] = {}
    try:
        val = _eval(e, env, memo)
    except OverflowError:
        raise EvalError("non-finite result (overflow)") from None
    if not math.isfinite(val):
        raise EvalError(f"non-finite result {val!r}")
    return val


def _eval(e: Expression, env: dict[str, float], memo: dict[int, float]) -> float:
    key = id(e)
    if key in memo:
        return memo[key]
    if isinstance(e, Const):
        val = _const_float(e.value)
    elif isinstance(e, Var):
        try:
            val = float(env[e.name])
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}") from None
    elif isinstance(e, Add):
        val = _eval(e.a, env, memo) + _eval(e.b, env, memo)
    elif isinstance(e, Sub):
        val = _eval(e.a, env, memo) - _eval(e.b, env, memo)
    elif isinstance(e, Mul):
        val = _eval(e.a, env, memo) * _eval(e.b, env, memo)
    elif isinstance(e, Div):
        den = _eval(e.b, env, memo)
        if den == 0.0:
            raise EvalError("division by zero")
        val = _eval(e.a, env, memo) / den
    elif isinstance(e, Neg):
        val = -_eval(e.a, env, memo)
    elif isinstance(e, Pow):
        val = _rational_pow(_eval(e.base, env, memo), e.exponent)
    elif isinstance(e, Call):
        u = _eval(e.arg, env, memo)
        val = {"sin": math.sin, "cos": math.cos, "exp": math.exp}[e.fn](u)
    else:
        raise TypeError(f"not an Expression: {e!r}")
    memo[key] = val
    return val
