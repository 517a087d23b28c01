"""Reference for the exact polynomial kernel of srkilling.expr.

This is the kernel the integer-coefficient one replaced, kept verbatim:
a polynomial is a dict from exponent tuples over its sorted variable names
to Fraction coefficients, two polynomials over different names are
realigned (remapped) before every sum and product, and exact division
runs in lex order on those tuples.  normalize here rebuilds an expression
through this kernel with the library's smart constructors, so its output
text is what the library's normalize must print.  Its caches are its own.
"""

from __future__ import annotations

from fractions import Fraction

from srkilling.expr import (
    ZERO,
    Add,
    Call,
    Const,
    Div,
    Expression,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    add,
    call,
    div,
    mul,
    neg,
    pow_,
    sub,
)


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple[str, ...], terms: dict[tuple[int, ...], Fraction]):
        self.vars = vars
        self.terms = {k: v for k, v in terms.items() if v != 0}

    @staticmethod
    def constant(c: Fraction) -> "Poly":
        return Poly((), {(): c} if c != 0 else {})

    @staticmethod
    def variable(name: str) -> "Poly":
        return Poly((name,), {(1,): Fraction(1)})

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in k) for k in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.vars), Fraction(0))


def _poly_align(p: Poly, q: Poly) -> tuple[tuple[str, ...], dict, dict]:
    if p.vars == q.vars:
        return p.vars, p.terms, q.terms
    names = tuple(sorted(set(p.vars) | set(q.vars)))

    def remap(poly: Poly) -> dict:
        idx = [names.index(v) for v in poly.vars]
        out: dict[tuple[int, ...], Fraction] = {}
        for k, c in poly.terms.items():
            kk = [0] * len(names)
            for pos, e in zip(idx, k):
                kk[pos] = e
            out[tuple(kk)] = c
        return out

    return names, remap(p), remap(q)


def _poly_add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    names, tp, tq = _poly_align(p, q)
    out = dict(tp)
    for k, c in tq.items():
        out[k] = out.get(k, Fraction(0)) + sign * c
    return Poly(names, out)


def _poly_mul(p: Poly, q: Poly) -> Poly:
    names, tp, tq = _poly_align(p, q)
    out: dict[tuple[int, ...], Fraction] = {}
    for k1, c1 in tp.items():
        for k2, c2 in tq.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return Poly(names, out)


def _poly_pow(p: Poly, n: int) -> Poly:
    result = Poly.constant(Fraction(1))
    base = p
    while n:
        if n & 1:
            result = _poly_mul(result, base)
        base_next = _poly_mul(base, base) if n > 1 else base
        base = base_next
        n >>= 1
    return result


def poly_div_exact(p: Poly, q: Poly) -> Poly | None:
    """Quotient p/q when the division is exact, else None (lex order)."""
    if not q.terms:
        return None
    names, tp, tq = _poly_align(p, q)
    rem = dict(tp)
    lt_q = max(tq)
    cq = tq[lt_q]
    quo: dict[tuple[int, ...], Fraction] = {}
    while rem:
        lt_r = max(rem)
        mono = tuple(a - b for a, b in zip(lt_r, lt_q))
        if any(e < 0 for e in mono):
            return None
        coeff = rem[lt_r] / cq
        quo[mono] = quo.get(mono, Fraction(0)) + coeff
        for k, c in tq.items():
            kk = tuple(a + b for a, b in zip(mono, k))
            nv = rem.get(kk, Fraction(0)) - coeff * c
            if nv == 0:
                rem.pop(kk, None)
            else:
                rem[kk] = nv
    return Poly(names, quo)


def poly_to_expr(p: Poly) -> Expression:
    if not p.terms:
        return ZERO
    parts: list[Expression] = []
    for k in sorted(p.terms, reverse=True):
        c = p.terms[k]
        term: Expression | None = None
        for name, e in zip(p.vars, k):
            if e == 0:
                continue
            fac = Var(name) if e == 1 else Pow(Var(name), Fraction(e))
            term = fac if term is None else Mul(term, fac)
        if term is None:
            term = Const(c)
        elif c == -1:
            term = Neg(term)
        elif c != 1:
            term = Mul(Const(c), term)
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
    return parts[0]


_REF_POLY_CACHE: dict[int, tuple[Expression, Poly | None]] = {}


def as_poly(e: Expression) -> Poly | None:
    key = id(e)
    hit = _REF_POLY_CACHE.get(key)
    if hit is not None and hit[0] is e:
        return hit[1]
    p = _as_poly(e)
    _REF_POLY_CACHE[key] = (e, p)
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
        return _poly_mul(Poly.constant(Fraction(-1)), a) if a is not None else None
    if isinstance(e, Div):
        a, b = as_poly(e.a), as_poly(e.b)
        if a is None or b is None:
            return None
        if b.is_constant():
            c = b.constant_value()
            return _poly_mul(Poly.constant(Fraction(1) / c), a) if c != 0 else None
        return poly_div_exact(a, b)
    if isinstance(e, Pow):
        r = e.exponent
        base = as_poly(e.base)
        if base is None or r.denominator != 1 or r < 0:
            return None
        return _poly_pow(base, r.numerator)
    return None


_REF_NORM_CACHE: dict[int, tuple[Expression, Expression]] = {}


def normalize(e: Expression) -> Expression:
    """Best-effort canonicalization; evaluation-equivalent to the input."""
    key = id(e)
    hit = _REF_NORM_CACHE.get(key)
    if hit is not None and hit[0] is e:
        return hit[1]
    out = _normalize(e)
    _REF_NORM_CACHE[key] = (e, out)
    _REF_NORM_CACHE[id(out)] = (out, out)
    return out


def _normalize(e: Expression) -> Expression:
    p = as_poly(e)
    if p is not None:
        return poly_to_expr(p)
    if isinstance(e, (Const, Var)):
        return e
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
