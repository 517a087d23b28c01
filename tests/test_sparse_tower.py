"""Sparse horizontal tensors and the multi-root tape.

Oracles: the closed form dim i(q) = (n+1)^2 of the Heisenberg groups
(2n+1 translations plus u(n)); a naive node-by-node numpy evaluator for
the tape; and the dense tower the sparse one replaced
(tests/tower_reference.py), built from a separate load of the structure.
"""

import contextlib
import io
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from srkilling import connection, frame, killing
from srkilling import expr as ex
from srkilling.cli import main
from srkilling.connection import (
    BudgetError,
    HTensor,
    NotSpecialError,
    compute_connection,
    covariant_derivative,
    curvature,
    eval_tensor,
    higher_derivatives,
)
from srkilling.frame import check_special, load_structure, load_structure_text
from srkilling.killing import _fq_columns, generator_space

import tower_reference as ref
from conftest import traced_peak

# X1 = 1 + x^2, 0, y/(1 + x^2); X2 = 0, 1 + x^2, 0: a rational frame with
# nonconstant curvature.
WARPED = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1 + x^2, 0, y/(1 + x^2)
X2 = 0, 1 + x^2, 0
"""

# The isometric copy of Heisenberg under (x, y, z) -> (x, y, z + p(x, y))
# with p = x/(1 + y^2): X1 = (1, 0, -y/2 + p_x), X2 = (0, 1, x/2 + p_y), a
# flat frame that is not polynomial.
RATIONAL_HEISENBERG = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, -y/2 + 1/(1+y^2)
X2 = 0, 1, x/2 - 2*x*y/(1+y^2)^2
"""

KINDS = ("nabla_R", "nabla_dalpha", "xi_R", "xi_dalpha")
DATA = pathlib.Path(__file__).resolve().parent / "data"


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def tower_of(load, order):
    cd = curvature(compute_connection(load()))
    return higher_derivatives(cd, order)


# ---------------------------------------------------------------------------
# Heisenberg dimensions: the closed form.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_heisenberg_dimension_is_closed_form(n):
    code, rep = run("dim", f"heisenberg:{n}")
    assert code == 0
    assert rep["dim_i"] == (n + 1) ** 2
    assert rep["certified"]


@pytest.mark.parametrize("n", [5, 6])
def test_heisenberg_5_and_6_are_certified_at_the_closed_form(monkeypatch, n):
    """The dense budget refused heisenberg:5 (f_q of 6.3e7 entries) while f_q
    held every row block, nearly all of them literal zeros.  With the
    blocks that store something only, both are certified at (n+1)^2, and
    no tensor that stores nothing goes through eval_tensor.  The working
    memory stays far below the 172 MB that the certification sample of
    dim 11 and 13 took when it was drawn at once."""
    evaluated = []

    def counted(s, T, points):
        evaluated.append(len(T.entries))
        return eval_tensor(s, T, points)

    monkeypatch.setattr(killing, "eval_tensor", counted)
    (code, rep), peak = traced_peak(lambda: run("dim", f"heisenberg:{n}"))
    assert code == 0
    assert rep["dim_i"] == (n + 1) ** 2 and rep["certified"]
    assert evaluated and 0 not in evaluated
    # the certification sample is made block by block, not as 5^9 x 11 floats
    assert peak < 64 * 2**20


def test_dim_heisenberg_4_works_in_bounded_memory(monkeypatch):
    """f_q of heisenberg:4 at order 2 had 303,680 x 37 entries, all but 64
    rows of them literal zeros, and `dim` peaked near 400 MB.  The kept
    rows make it a 64 x 37 matrix: the traced peak stays under 64 MiB, and
    every _fq_columns call (one per kept block and order) reads a value of
    T, the tensor its A columns act on, that is not all zero."""
    acted = []

    def counted(cd, cache, key, i, out=None):
        acted.append(bool(np.any(cache[(key, i)])))
        return _fq_columns(cd, cache, key, i, out)

    monkeypatch.setattr(killing, "_fq_columns", counted)
    (code, rep), peak = traced_peak(lambda: run("dim", "heisenberg:4"))
    assert code == 0
    assert rep["dim_i"] == 25 and rep["certified"]
    assert peak < 64 * 2**20
    assert acted and all(acted)


def test_stored_nonzeros_are_bounded(monkeypatch):
    """The count is checked as the entries are built: with room for 10 the
    first direction of nabla^2 R (more than 10 entries) already stops the
    order, before the other direction is differentiated."""
    cd = tower_of(lambda: load_structure_text(WARPED), 1)
    stored = cd.stored()
    calls = []

    def counted(conn, T, direction, room=None):
        calls.append(direction)
        return covariant_derivative(conn, T, direction, room)

    monkeypatch.setattr(connection, "covariant_derivative", counted)
    cd.max_components = stored + 10
    with pytest.raises(BudgetError, match="stored nonzero"):
        higher_derivatives(cd, 2)
    assert calls == [1]
    assert cd.order == 1 and cd.stored() == stored
    cd.max_components = 10**6
    assert higher_derivatives(cd, 2).order == 2
    assert len(cd.nabla_R[2].entries) > 10


@pytest.fixture
def no_dense_over_budget(monkeypatch):
    """np.zeros refuses any array over MAX_DENSE_ENTRIES: the budget must
    stop such an array before it is allocated."""
    zeros = np.zeros

    def guarded(shape, *args, **kwargs):
        if np.prod(shape, dtype=object) > connection.MAX_DENSE_ENTRIES:
            raise AssertionError(f"dense array of shape {shape} allocated")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded)


def test_eval_tensor_refuses_a_dense_array_over_the_budget(monkeypatch, no_dense_over_budget):
    monkeypatch.setattr(connection, "MAX_DENSE_ENTRIES", 3 * 4096)
    s = load_structure("heisenberg:1")
    T = HTensor({(0,) * 12: ex.ONE}, 2, 12, 1)  # 4096 entries at each point
    assert eval_tensor(s, T, np.zeros((3, 3))).shape == T.shape + (3,)
    with pytest.raises(BudgetError, match="dense entries"):
        eval_tensor(s, T, np.zeros((4, 3)))


def test_curvature_report_reads_only_the_stored_entries(no_dense_over_budget):
    """nabla^6 R of heisenberg:4 has 8^10 components at a point; the report
    takes its max over the stored ones, all of them zero here."""
    code, rep = run("curvature", "heisenberg:4", "--order", "6")
    assert code == 0
    assert rep["nabla_R_max_abs"] == [0.0] * 7


def test_scan_runs_a_grid_whose_tensor_values_pass_the_budget(no_dense_over_budget):
    """nabla R of heisenberg:4 at the 576 points of the grid has 8^5 * 576
    entries, over the dense budget, and the scan was refused for it while it
    evaluated the tensors at every point at once.  Point by point (f_q of
    order 0 takes 153,920 entries a point) it runs, and its working memory
    stays far below the budget's 128 MB.  The grid is kept small: a scan of
    heisenberg:4 takes about 7 ms a point."""
    counts = {"x1": 3, "y1": 3, "z": 1}
    axes = [f"{c}:-1:1:{counts.get(c, 2)}" for c in load_structure("heisenberg:4").coords]
    (code, rep), peak = traced_peak(
        lambda: run("scan", "heisenberg:4", "--order", "0", "--grid", ",".join(axes))
    )
    assert code == 0
    assert rep["dims"] == [25] * 576 and all(rep["regular"])
    assert peak < 64 * 2**20


def test_scan_refuses_a_grid_when_one_point_is_over_the_budget(monkeypatch, no_dense_over_budget):
    """f_q of order 4 of the warped heisenberg:3 keeps every row block, with
    2,071,260 x 22 entries at a single point, so no block of points fits
    the budget: refused before any tensor is evaluated, whatever the size
    of the grid."""

    def no_work(*args, **kwargs):
        raise AssertionError("a tensor was evaluated past the f_q budget")

    monkeypatch.setattr(killing, "eval_tensor", no_work)
    path = str(DATA / "warped_heisenberg3.toml")
    axes = [f"{c}:-1:1:2" for c in load_structure(path).coords]
    code, rep = run("scan", path, "--order", "4", "--grid", ",".join(axes))
    assert code == 2
    assert rep["error"]["message"] == (
        "f_q of order 4 at a point would have 45567720 dense entries, over the budget 16777216"
    )


def test_sampled_special_certification_catches_a_non_special_frame(monkeypatch):
    """X2 = (0, 1 + x^3, x/2) makes the Reeb field Killing at the origin
    only; the origin plus seeded points of the box find the defect."""
    s = load_structure_text(
        "[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n"
        "[frame]\nX1 = 1, 0, -y/2\nX2 = 0, 1 + x^3, x/2\n"
    )
    assert all(r.pass_ for r in check_special(s, points=np.zeros((1, 3))))
    monkeypatch.setattr(frame, "MAX_SPECIAL_POINTS", 5**2)
    grid = frame._default_special_grid(s)
    assert grid.shape == (25, 3) and not grid[0].any()
    assert not all(r.pass_ for r in check_special(s))
    with pytest.raises(NotSpecialError):
        compute_connection(s)


# ---------------------------------------------------------------------------
# The multi-root tape against a naive evaluator and per-root eval_scalar.
# ---------------------------------------------------------------------------

VARS = ["x", "y", "z"]
NP_FNS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


def naive(e, arrays, memo):
    """Node-by-node numpy evaluation with the ops the tape uses."""
    if id(e) in memo:
        return memo[id(e)]
    if isinstance(e, ex.Const):
        val = np.float64(e.value)
    elif isinstance(e, ex.Var):
        val = np.asarray(arrays[VARS.index(e.name)], dtype=float)
    elif isinstance(e, ex.Add):
        val = naive(e.a, arrays, memo) + naive(e.b, arrays, memo)
    elif isinstance(e, ex.Sub):
        val = naive(e.a, arrays, memo) - naive(e.b, arrays, memo)
    elif isinstance(e, ex.Mul):
        val = naive(e.a, arrays, memo) * naive(e.b, arrays, memo)
    elif isinstance(e, ex.Div):
        val = naive(e.a, arrays, memo) / naive(e.b, arrays, memo)
    elif isinstance(e, ex.Neg):
        val = -naive(e.a, arrays, memo)
    elif isinstance(e, ex.Pow):
        u = np.asarray(naive(e.base, arrays, memo), dtype=float)
        val = ex._np_rational_pow(u, e.exponent.numerator, e.exponent.denominator)
    else:
        val = NP_FNS[e.fn](np.asarray(naive(e.arg, arrays, memo), dtype=float))
    memo[id(e)] = val
    return val


def expressions(variables):
    leaves = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(ex.Const)
    if variables:
        leaves = st.one_of(leaves, st.sampled_from(variables).map(ex.Var))
    exponents = st.sampled_from([Fraction(p, q) for p, q in ((2, 1), (3, 1), (-1, 1), (1, 2), (1, 3))])

    def extend(children):
        return st.one_of(
            st.builds(
                lambda op, a, b: op(a, b),
                st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div]),
                children,
                children,
            ),
            st.builds(ex.Neg, children),
            st.builds(ex.Pow, children, exponents),
            st.builds(ex.Call, st.sampled_from(["sin", "cos", "exp"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def roots_with_sharing(pool, pairs):
    """The pool, products of pool members (shared subtrees), a repeated
    root and a constant root."""
    k = len(pool)
    shared = [ex.Mul(pool[i % k], ex.Add(pool[j % k], pool[i % k])) for i, j in pairs]
    return pool + shared + [pool[0], ex.const(7)]


def bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


@pytest.fixture(scope="module")
def chart():
    return load_structure("heisenberg:1")


@pytest.fixture(scope="module")
def lie():
    return load_structure("su2")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(expressions(VARS), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4),
)
def test_tape_is_bitwise_per_root_evaluation(chart, pool, pairs):
    roots = roots_with_sharing(pool, pairs)
    pts = np.random.default_rng(len(roots)).uniform(-1.5, 1.5, (7, 3))
    arrays = pts.T
    with np.errstate(all="ignore"):
        tape = ex.compile_expression(roots, VARS)(*arrays)
        memo = {}
        assert tape.shape == (len(roots), 7)
        for r, e in enumerate(roots):
            want = np.broadcast_to(naive(e, arrays, memo), (7,))
            assert bits(tape[r]) == bits(want)
            assert bits(tape[r]) == bits(chart.eval_scalar(e, pts))
        assert bits(chart.eval_table(roots, pts)) == bits(tape)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(expressions([]), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4),
)
def test_tape_in_lie_mode_is_one_point(lie, pool, pairs):
    roots = roots_with_sharing(pool, pairs)
    pts = np.zeros((1, 0))
    with np.errstate(all="ignore"):
        tape = ex.compile_expression(roots, [])()
        assert tape.shape == (len(roots), 1)
        memo = {}
        for r, e in enumerate(roots):
            assert bits(tape[r]) == bits(np.broadcast_to(naive(e, [], memo), (1,)))
            assert bits(tape[r]) == bits(lie.eval_scalar(e, pts))


def test_single_root_is_the_one_root_tape():
    e = ex.parse_expression("x*y + sin(x*y)", VARS)
    pts = np.random.default_rng(3).uniform(-1, 1, (5, 3))
    one = ex.compile_expression(e, VARS)(*pts.T)
    assert one.shape == (5,)
    assert bits(one) == bits(ex.compile_expression([e], VARS)(*pts.T)[0])
    assert bits(ex.compile_expression(ex.ONE, VARS)(*pts.T)) == bits(np.ones(5))


# ---------------------------------------------------------------------------
# The sparse tower against the dense reference.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "load,literal_order",
    [
        (lambda: load_structure("su2:chart"), 3),
        (lambda: load_structure_text(RATIONAL_HEISENBERG), 0),
    ],
    ids=["su2:chart", "rational-heisenberg"],
)
def test_sparse_tower_matches_dense_reference(load, literal_order):
    """Every component through order 3 has the printed form of the dense
    reference: compared by fingerprint, and as to_string too through
    literal_order (to_string grows exponentially beyond it)."""
    cd = tower_of(load, 3)
    dense = ref.tower(tower_of(load, 0), 3)
    memo = {}
    for kind in KINDS:
        for i, T in enumerate(getattr(cd, kind)):
            want = dense[kind][i]
            got = T.components
            assert got.shape == want.shape
            for a, b in zip(got.ravel(), want.ravel()):
                assert ref.fingerprint(a, memo) == ref.fingerprint(b, memo)
                if i <= literal_order:
                    assert ex.to_string(a) == ex.to_string(b)
            # only the literal zeros are left out
            zero = [isinstance(e, ex.Const) and e.value == 0 for e in want.ravel()]
            assert len(T.entries) == zero.count(False)


def test_eval_tensor_scatters_the_stored_entries():
    cd = tower_of(lambda: load_structure_text(WARPED), 1)
    s = cd.structure
    pts = s.validation_points(count=4, seed=9)
    for T in (cd.R, cd.nabla_R[1], cd.xi_dalpha[0]):
        vals = eval_tensor(s, T, pts)
        assert vals.shape == T.shape + (len(pts),)
        for idx in np.ndindex(T.shape):
            assert bits(vals[idx]) == bits(s.eval_scalar(T[idx], pts))


# ---------------------------------------------------------------------------
# Satellites: each order evaluated once, short reprs.
# ---------------------------------------------------------------------------


def test_generator_space_evaluates_each_tensor_once(monkeypatch):
    cd = tower_of(lambda: load_structure_text(WARPED), 0)
    calls = []

    def counted(s, T, points):
        calls.append(id(T))
        return eval_tensor(s, T, points)

    monkeypatch.setattr(killing, "eval_tensor", counted)
    generator_space(cd, [0.1, -0.2, 0.3], order=3)
    tower = cd.nabla_R[:5] + cd.nabla_dalpha[:5] + cd.xi_R[:4] + cd.xi_dalpha[:4]
    assert sorted(calls) == sorted(id(T) for T in tower)


def test_reprs_are_short():
    cd = tower_of(lambda: load_structure_text(WARPED), 3)
    assert len(repr(cd)) < 200
    assert len(repr(cd.connection)) < 200
    assert len(repr(cd.nabla_R[3])) < 200
