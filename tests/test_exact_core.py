"""Oracle tests for the exact symbolic core: memoized determinants,
Pfaffians, the basis coframe and the Pfaffian Reeb field.

The references here are written independently of the code under test: a
Leibniz permutation sum for determinants and wedge powers, Pf(A)^2 = det A,
the defining equations of the Reeb field, and the dimension of the isometry
algebra of the Heisenberg group.
"""

import cProfile
import itertools
import math
import os
import pathlib
import pstats
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling import frame
from srkilling.connection import compute_connection, curvature
from srkilling.expr import Const, Expression
from srkilling.frame import determinant_minors, load_structure, pfaffian_minors, wedge_power
from srkilling.killing import generator_space

from eval_reference import evaluate

ROOT = pathlib.Path(__file__).resolve().parents[1]


def perm_sign(p):
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def leibniz_det(rows):
    """Reference determinant: the full permutation sum, added as a balanced
    tree so that its depth stays logarithmic in the m! terms."""
    m = len(rows)
    terms = []
    for p in itertools.permutations(range(m)):
        term = ex.ONE
        for i in range(m):
            term = ex.mul(term, rows[i][p[i]])
        terms.append(term if perm_sign(p) > 0 else ex.neg(term))
    while len(terms) > 1:
        terms = [ex.add(*terms[i : i + 2]) if i + 1 < len(terms) else terms[i] for i in range(0, len(terms), 2)]
    return terms[0] if terms else ex.ONE


def perm_sum_wedge(B, n):
    """Reference wedge^n B on e_1..e_2n: (1/2^n) sum_p sign(p) prod B pairs."""
    total = Fraction(0)
    for p in itertools.permutations(range(2 * n)):
        term = Fraction(1)
        for k in range(n):
            term *= B[p[2 * k]][p[2 * k + 1]]
        total += perm_sign(p) * term
    return total / 2**n


def random_fraction(rng):
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))


def random_skew(rng, m):
    A = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            A[i][j] = random_fraction(rng)
            A[j][i] = -A[i][j]
    return A


def small_poly(rng):
    """A random polynomial of degree <= 1 in x, y with small coefficients."""
    c0, cx, cy = (int(v) for v in rng.integers(-2, 3, size=3))
    return ex.normalize(
        ex.parse_expression(f"{c0} + {cx}*x + {cy}*y", ["x", "y"])
    )


def canonical(e: Expression) -> str:
    return ex.to_string(ex.normalize(e))


def full_det(rows):
    m = len(rows)
    return determinant_minors(rows)(range(m), range(m))


class TestDeterminantMinors:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_rational_matches_leibniz(self, m):
        rng = np.random.default_rng(100 + m)
        rows = [[Const(random_fraction(rng)) for _ in range(m)] for _ in range(m)]
        assert canonical(full_det(rows)) == canonical(leibniz_det(rows))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_polynomial_matches_leibniz(self, m):
        rng = np.random.default_rng(200 + m)
        rows = [[small_poly(rng) for _ in range(m)] for _ in range(m)]
        assert canonical(full_det(rows)) == canonical(leibniz_det(rows))

    def test_polynomial_six_by_six_matches_leibniz(self):
        rng = np.random.default_rng(206)
        rows = [
            [small_poly(rng) if rng.random() < 0.5 else Const(random_fraction(rng)) for _ in range(6)]
            for _ in range(6)
        ]
        assert canonical(full_det(rows)) == canonical(leibniz_det(rows))

    @staticmethod
    def assert_every_minor_matches_leibniz(mat):
        minor = determinant_minors(mat)
        for size in range(1, 6):
            for rows in itertools.combinations(range(5), size):
                for cols in itertools.combinations(range(5), size):
                    sub = [[mat[r][c] for c in cols] for r in rows]
                    assert canonical(minor(rows, cols)) == canonical(leibniz_det(sub)), (rows, cols)

    def test_every_minor_matches_leibniz(self):
        rng = np.random.default_rng(207)
        self.assert_every_minor_matches_leibniz([[small_poly(rng) for _ in range(5)] for _ in range(5)])

    def test_every_minor_with_zero_entries_matches_leibniz(self):
        # every third entry a literal zero, whose term the expansion skips:
        # each kept term keeps the sign of its place among all the columns
        rng = np.random.default_rng(208)
        mat = [[ex.ZERO if (5 * r + c) % 3 == 0 else small_poly(rng) for c in range(5)] for r in range(5)]
        self.assert_every_minor_matches_leibniz(mat)


def lie_heisenberg(tmp_path, n):
    """The file of the lie Heisenberg algebra [e_(2i-1), e_(2i)] = w_i e_(2n+1)
    with w_1 = n!^(n-1) and the others 1, so that v = n! Pf(B0) is an exact
    n-th power."""
    weights = [math.factorial(n) ** (n - 1)] + [1] * (n - 1)
    path = tmp_path / f"heisenberg{n}.toml"
    path.write_text(
        f"[manifold]\nmode = lie\nn = {n}\n[brackets]\n"
        + "".join(f"c {2 * i + 1} {2 * i + 2} {2 * n + 1} = {w}\n" for i, w in enumerate(weights))
    )
    return str(path)


def pf_calls(fn, *args):
    """(calls of pfaffian_minors' pf, the result) of fn(*args), by cProfile."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args)
    stats = pstats.Stats(prof).stats
    return sum(stat[1] for (_, _, name), stat in stats.items() if name == "pf"), result


class TestPfaffian:
    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_square_is_determinant(self, m):
        rng = np.random.default_rng(300 + m)
        for _ in range(3):
            A = [[Const(v) for v in row] for row in random_skew(rng, m)]
            pf = pfaffian_minors(A)(tuple(range(m)))
            det = leibniz_det(A)
            assert isinstance(pf, Const) and isinstance(det, Const)
            assert pf.value * pf.value == det.value

    def test_square_is_determinant_with_zero_entries(self):
        # a third of the entries zeros, whose terms the expansion of the
        # Const matrix skips: each kept term keeps the sign of its place
        # among all of idx
        rng = np.random.default_rng(306)
        A = random_skew(rng, 6)
        for i, j in itertools.combinations(range(6), 2):
            if (i + 2 * j) % 3 == 0:
                A[i][j] = A[j][i] = Fraction(0)
        det = leibniz_det([[Const(v) for v in row] for row in A])
        assert det.value != 0
        pf = pfaffian_minors([[Const(v) for v in row] for row in A])(tuple(range(6)))
        # the matching sum: wedge^3 A = 3! Pf(A)
        assert pf == Const(perm_sum_wedge(A, 3) / 6)
        assert ex.normalize(ex.mul(pf, pf)) == det

    def test_lie_heisenberg_load_skips_zero_entries(self, tmp_path):
        # expanding every entry takes 40,737 pf calls
        calls, _ = pf_calls(load_structure, lie_heisenberg(tmp_path, 8))
        assert 0 < calls <= 200

    def test_lie_heisenberg_structure_checks_skip_zero_entries(self, tmp_path):
        # the normalization residual expands the symbolic dalpha frame
        # matrix, whose zero entries are skipped; a float Pfaffian of its
        # values expands all of them, in 10,227 pf calls
        s = load_structure(lie_heisenberg(tmp_path, 8))
        calls, res = pf_calls(frame.structure_checks, s, s.validation_points())
        assert 0 < calls <= 50
        assert res == {"alpha_frame": 0.0, "normalization": 0.0, "reeb": 0.0}

    def test_symbolic_square_is_determinant(self):
        names = ["a", "b", "c", "d", "e", "f"]
        A = [[ex.ZERO] * 4 for _ in range(4)]
        for (i, j), name in zip(itertools.combinations(range(4), 2), names):
            A[i][j] = ex.Var(name)
            A[j][i] = ex.neg(ex.Var(name))
        pf = pfaffian_minors(A)(tuple(range(4)))
        assert canonical(ex.mul(pf, pf)) == canonical(leibniz_det(A))
        assert canonical(pf) == canonical(ex.parse_expression("a*f - b*e + c*d", names))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wedge_power_is_n_factorial_pfaffian(self, n):
        rng = np.random.default_rng(400 + n)
        # B as Var entries b_ij (i < j), so the expansion is symbolic
        names = {(i, j): f"b{i}{j}" for i, j in itertools.combinations(range(2 * n), 2)}
        Bv = [[ex.ZERO] * (2 * n) for _ in range(2 * n)]
        for (i, j), name in names.items():
            Bv[i][j], Bv[j][i] = ex.Var(name), ex.neg(ex.Var(name))
        wedge = wedge_power(Bv, n)
        for _ in range(3):
            B = random_skew(rng, 2 * n)
            Bs = [[Const(v) for v in row] for row in B]
            assert wedge_power(Bs, n) == Const(perm_sum_wedge(B, n))
            env = {name: float(B[i][j]) for (i, j), name in names.items()}
            assert evaluate(wedge, env) == pytest.approx(float(perm_sum_wedge(B, n)), abs=1e-12)


BUILTINS = ["heisenberg:1", "su2", "su2:chart", "heisenberg:2", "heisenberg:3", "heisenberg:5"]


@pytest.fixture(scope="module")
def structures():
    return {name: load_structure(name) for name in BUILTINS}


def sample_points(s, count=20):
    if s.mode == "lie":
        return np.zeros((1, 0))
    return np.random.default_rng(7).uniform(-1.0, 1.0, size=(count, s.dim))


class TestCoframe:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_basis_vectors_decompose_to_unit_vectors(self, structures, name):
        s = structures[name]
        pts = sample_points(s)
        basis = s.frame + [s.reeb]
        for j, vec in enumerate(basis):
            hor, xi_comp = s.decompose(vec)
            got = s.eval_table(hor + [xi_comp], pts)
            want = np.zeros_like(got)
            want[j] = 1.0
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_decompose_reuses_the_coframe(self, monkeypatch):
        s = load_structure("su2:chart")
        s._coframe = None
        calls = []
        real = frame.determinant_minors

        def counting(mat):
            calls.append(len(mat))
            return real(mat)

        monkeypatch.setattr(frame, "determinant_minors", counting)
        V = s.parse_field("x, y*z, 1")
        first = s.decompose(V)
        assert calls == [s.dim]
        second = s.decompose(V)
        third = s.decompose(s.frame[0])
        assert calls == [s.dim]
        assert [str(e) for e in first[0]] == [str(e) for e in second[0]]
        assert str(first[1]) == str(second[1])
        assert len(third[0]) == s.h


class TestReebField:
    @pytest.mark.parametrize("name", ["su2:chart", "heisenberg:2", "heisenberg:3"])
    def test_defining_equations_hold_on_samples(self, structures, name):
        s = structures[name]
        pts = sample_points(s, 50)
        alpha = s.eval_table(s.alpha, pts)  # (dim, N)
        xi = s.eval_table(s.reeb, pts)
        E = s.eval_table(s.E, pts)  # (dim, dim, N); dalpha is a multiple of E
        np.testing.assert_allclose(np.einsum("iN,iN->N", alpha, xi), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("ijN,jN->iN", E, xi), 0.0, atol=1e-12)


def test_heisenberg3_isometry_dimension():
    """dim i(q) on H^7 is (2n+1) + n^2 = 16: the Heisenberg algebra (left
    translations) plus u(n) (unitary rotations about q)."""
    s = load_structure("heisenberg:3")
    cd = curvature(compute_connection(s))
    q = [0.5, -0.25, 0.125, 0.75, -0.5, 0.25, 1.0]
    gs = generator_space(cd, q)
    assert gs.certified
    assert gs.dim == 16


def test_import_leaves_recursion_limit_alone():
    code = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "import srkilling.cli\n"
        "print(before, sys.getrecursionlimit())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert out[0] == out[1]
