"""The integer-coefficient polynomial kernel of srkilling.expr against two
oracles: the Fraction kernel it replaced (poly_reference.py), which must
print the same normal form, and exact Fraction evaluation of the input
expression at rational points, which as_poly must agree with."""

from __future__ import annotations

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from srkilling import expr as ex

import poly_reference as ref

NAMES = ["x", "y", "z", "w"]
ROOT = pathlib.Path(__file__).resolve().parents[1]


def exact(e: ex.Expression, point: dict[str, Fraction]) -> Fraction:
    """e at a rational point in Fraction arithmetic; ZeroDivisionError where
    a denominator vanishes."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return point[e.name]
    if isinstance(e, ex.Neg):
        return -exact(e.a, point)
    if isinstance(e, ex.Pow):
        assert e.exponent.denominator == 1
        return exact(e.base, point) ** e.exponent.numerator
    a, b = exact(e.a, point), exact(e.b, point)
    if isinstance(e, ex.Add):
        return a + b
    if isinstance(e, ex.Sub):
        return a - b
    if isinstance(e, ex.Mul):
        return a * b
    return a / b


def poly_value(p: ex.Poly, point: dict[str, Fraction]) -> Fraction:
    """The polynomial at a point, its packed monomials read field by field."""
    total = Fraction(0)
    for m, num in p.terms.items():
        term = Fraction(num)
        for name, shift in ex._FIELD.items():
            k = m >> shift & ex._FIELD_MASK
            if k:
                term *= point[name] ** k
        total += term
    return total / p.den


def polynomials(names):
    """Polynomial expressions over names, built with the raw node classes
    and the smart constructors alike: rational constants, sums, products,
    integer powers, exact and inexact quotients, terms that cancel to zero,
    and P * Q^-k products that normalize divides out."""
    leaves = st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=5).map(ex.Const),
        st.sampled_from(names).map(ex.Var),
    )

    def extend(children):
        pair = st.tuples(children, children)
        return st.one_of(
            st.builds(
                lambda op, a, b: op(a, b),
                st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.add, ex.sub, ex.mul]),
                children,
                children,
            ),
            st.builds(ex.Neg, children),
            st.builds(lambda a, k: ex.Pow(a, Fraction(k)), children, st.integers(0, 3)),
            pair.map(lambda ab: ex.Div(ex.Mul(ab[0], ab[1]), ab[1])),
            pair.map(lambda ab: ex.Div(*ab)),
            pair.map(lambda ab: ex.Add(ab[0], ex.Sub(ab[1], ex.Add(ab[1], ab[0])))),
            st.builds(
                lambda a, b, k: ex.Mul(ex.Mul(a, ex.Pow(b, Fraction(k))), ex.Pow(b, Fraction(-k))),
                children,
                children,
                st.integers(1, 2),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def cases(draw):
    names = NAMES[: draw(st.integers(1, 4))]
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    points = st.lists(st.fixed_dictionaries({v: rationals for v in names}), min_size=3, max_size=3)
    return draw(polynomials(names)), draw(points)


def _outcome(normalize, e):
    try:
        return ex.to_string(normalize(e))
    except ex.EvalError as err:  # a quotient by a polynomial that is zero
        return f"EvalError: {err}"


@settings(max_examples=100, deadline=None)
@given(cases())
def test_kernel_matches_reference_and_exact_evaluation(case):
    e, points = case
    assert _outcome(ex.normalize, e) == _outcome(ref.normalize, e)
    p = ex.as_poly(e)
    if p is None:
        return
    assert p.den > 0 and 0 not in p.terms.values()
    assert math.gcd(p.den, *p.terms.values()) == 1
    for point in points:
        try:
            want = exact(e, point)
        except ZeroDivisionError:
            continue
        assert poly_value(p, point) == want


def test_exponent_that_could_carry_gives_no_polynomial():
    x = ex.Var("x")
    assert ex.as_poly(ex.pow_(x, ex._FIELD_MASK)) is not None
    assert ex.as_poly(ex.pow_(x, ex._FIELD_MASK + 1)) is None
    big = ex.pow_(x, 40_000)
    e = ex.Mul(ex.Add(big, ex.ONE), big)
    assert ex.as_poly(big) is not None and ex.as_poly(e) is None
    out = ex.normalize(e)  # rebuilt node by node
    for v in (Fraction(-2), Fraction(0), Fraction(1, 2)):
        assert exact(out, {"x": v}) == exact(e, {"x": v})
    # one field per distinct name, none shared
    assert len(set(ex._FIELD.values())) == len(ex._FIELD)


@pytest.mark.parametrize(
    "text",
    [
        "(x + y)^3/(x + y)",
        "(x^2 - y^2)/(x - y)",
        "(2*x^2 + 3*x + 1)/(2*x + 1)",
        "(x^2*y + y)/(3*y)",
        "x/(3*x + 2)",
        "(x^2 + 1)/(2*x + 1)",
        "(x^2 + 1)*pow(x^2 + 1, -2)",
        "(x/2)^3 - (y/3)^2",
        "x/2 + y/3 - x/6",
        "(x + y)^2 - x^2 - 2*x*y - y^2",
    ],
)
def test_normal_form_matches_reference(text):
    e = ex.parse_expression(text, ["x", "y"])
    assert ex.to_string(ex.normalize(e)) == ex.to_string(ref.normalize(e))


# ---------------------------------------------------------------------------
# poly_to_expr seeds the Poly memo with the root of the tree it builds.
# ---------------------------------------------------------------------------


def library_monomials(p: ex.Poly) -> dict[tuple[int, ...], Fraction]:
    """{exponents over NAMES: coefficient} of a packed polynomial."""
    return {
        tuple(m >> ex._FIELD[v] & ex._FIELD_MASK if v in ex._FIELD else 0 for v in NAMES): Fraction(
            c, p.den
        )
        for m, c in p.terms.items()
    }


def reference_monomials(p: ref.Poly) -> dict[tuple[int, ...], Fraction]:
    """{exponents over NAMES: coefficient} of a reference polynomial."""
    return {
        tuple(dict(zip(p.vars, k)).get(v, 0) for v in NAMES): c for k, c in p.terms.items()
    }


terms_over_names = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 3)] * len(NAMES)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    ),
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(terms_over_names)
def test_poly_to_expr_root_reads_back_the_polynomial(terms):
    """p is built with the kernel's own sums and products; the expected
    coefficients are summed in Fraction arithmetic.  as_poly of the tree
    poly_to_expr builds hits the seeded root, and must equal both the
    polynomial that walking the tree with a fresh memo gives (terms, den
    and the degree bound) and the one the reference kernel reads from the
    same tree."""
    p = ex.Poly({})
    want: dict[tuple[int, ...], Fraction] = {}
    for exps, c in terms:
        term = ex.Poly.constant(c)
        for v, k in zip(NAMES, exps):
            term = ex._poly_mul(term, ex._poly_pow(ex.Poly.variable(v), k))
        p = ex._poly_add(p, term)
        want[exps] = want.get(exps, 0) + c
    want = {k: c for k, c in want.items() if c}

    out = ex.poly_to_expr(p)
    seeded = ex.as_poly(out)
    assert library_monomials(seeded) == library_monomials(p) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "_POLY_CACHE", {})
        walked = ex.as_poly(out)
        mp.setattr(ref, "_REF_POLY_CACHE", {})
        reference = ref.as_poly(out)
    assert (seeded.terms, seeded.den, seeded.deg) == (walked.terms, walked.den, walked.deg)
    assert reference_monomials(reference) == want


def test_check_su2_chart_leaves_a_small_poly_memo():
    """Without the seed, as_poly walked every tree that poly_to_expr had
    just built and pinned a Poly for each inner node: `check su2:chart`
    left 8,768 memo entries, about 900 with it.  Counted in a fresh
    process, so no other test's entries are seen."""
    code = (
        "import contextlib, io\n"
        "from srkilling import expr\n"
        "from srkilling.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check', 'su2:chart']) == 0\n"
        "print(len(expr._POLY_CACHE))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert int(out.stdout) < 2000
