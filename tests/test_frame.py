import itertools
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling.frame import (
    Grid,
    NotContactError,
    OrientationError,
    StructureError,
    builtin_text,
    check_special,
    lie_bracket,
    load_structure,
    load_structure_text,
    sample_box_points,
    structure_checks,
)

from conftest import SU2C_KILLING, field
from eval_reference import evaluate
import structure_checks_reference

XYZ = ["x", "y", "z"]


def ev(s, e, pts):
    return s.eval_scalar(e, pts)


class TestLieBracket:
    def test_heisenberg_frame_bracket(self):
        X1 = field(["1", "0", "-y/2"])
        X2 = field(["0", "1", "x/2"])
        br = lie_bracket(X1, X2, XYZ)
        assert [str(e) for e in br] == ["0", "0", "1"]

    def test_antisymmetry_on_self(self):
        V = field(["x*y", "sin(z)", "x^2"])
        br = lie_bracket(V, V, XYZ)
        rng = np.random.default_rng(0)
        for _ in range(5):
            p = dict(zip(XYZ, rng.uniform(-1, 1, 3)))
            assert all(abs(evaluate(e, p)) < 1e-14 for e in br)

    def test_single_product_rule_term(self):
        dx = field(["1", "0", "0"])
        X2 = field(["0", "1", "x/2"])
        br = lie_bracket(dx, X2, XYZ)
        assert [str(e) for e in br] == ["0", "0", "1/2"]


class TestUnifiedBracket:
    """ContactStructure.bracket: one method for both structure modes."""

    def test_lie_mode_reproduces_the_structure_constants(self, su2):
        # the su2 file: [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2 on the raw basis
        e = [[ex.ONE if i == j else ex.ZERO for i in range(3)] for j in range(3)]
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            assert su2.bracket(e[a], e[b]) == e[c]
            assert su2.bracket(e[b], e[a]) == [ex.neg(x) for x in e[c]]
        # bilinear: [e1 + 2 e3, e2] = e3 - 2 e1
        two = ex.const(2)
        V = [ex.ONE, ex.ZERO, two]
        assert su2.bracket(V, e[1]) == [ex.neg(two), ex.ZERO, ex.ONE]

    def test_chart_mode_is_lie_bracket(self, su2c):
        fields = su2c.frame + [su2c.reeb] + [field(v) for v in SU2C_KILLING.values()]
        for V in fields:
            for W in fields[:3]:
                assert su2c.bracket(V, W) == lie_bracket(V, W, XYZ)


class TestNormalization:
    def test_heisenberg_normalized_form(self, heis):
        # v = dalpha0(X1,X2) = -1, so alpha = -alpha0 = -dz + (x dy - y dx)/2
        vals = {
            c: evaluate(a, {"x": 1.0, "y": 2.0, "z": 0.5})
            for c, a in zip(XYZ, heis.alpha)
        }
        assert vals == {"x": -1.0, "y": 0.5, "z": -1.0}
        assert heis.orientation_sign == -1

    def test_already_normalized_fixed_point(self):
        # mirrored Heisenberg: [X1,X2] = -dz makes v identically +1
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, y/2
X2 = 0, 1, -x/2
"""
        s = load_structure_text(text)
        assert s.orientation_sign == 1
        # alpha equals the raw annihilator (f = 1): alpha_z = 1 exactly
        assert evaluate(s.alpha[2], {"x": 0.3, "y": -0.7, "z": 0.1}) == 1.0

    def test_integrable_distribution_rejected(self):
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, 0
X2 = 0, 1, 0
"""
        with pytest.raises(NotContactError):
            load_structure_text(text)

    def test_constant_v_under_the_sampling_bound_is_contact(self):
        # Heisenberg with [X1, X2] = 10^-10 d_z: v = -10^-10 is a constant,
        # so its exact value, not the float bound of a sampled v, decides
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, -y/20000000000
X2 = 0, 1, x/20000000000
"""
        s = load_structure_text(text)
        assert s.orientation_sign == -1
        assert s.alpha[2] == ex.Const(Fraction(-10**10))

    def test_orientation_error_for_even_n(self):
        text = """
[manifold]
mode = chart
n = 2
coords = x1, y1, x2, y2, z
[frame]
X1 = 1, 0, 0, 0, -y1/2
X2 = 0, 1, 0, 0, x1/2
X3 = 0, 0, 0, 1, x2/2
X4 = 0, 0, 1, 0, -y2/2
"""
        with pytest.raises(OrientationError) as err:
            load_structure_text(text)
        assert "negate" in str(err.value)

    def test_wedge_normalization_at_random_points(self, heis):
        pts = np.vstack([np.zeros((1, 3)), sample_box_points(3, 100, seed=3)])
        B = heis.dalpha_frame()
        Bv = np.stack([np.stack([ev(heis, e, pts) for e in row]) for row in B])
        wed = Bv[0, 1]  # wedge^1 B (e_1, e_2) = 1! Pf(B) = B01
        assert np.max(np.abs(wed - 1.0)) < 1e-10

    def test_wedge_normalization_n2(self):
        s = load_structure("heisenberg:2")
        pts = np.vstack([np.zeros((1, 5)), sample_box_points(5, 50, seed=4)])
        B = s.dalpha_frame()
        Bv = np.stack([np.stack([ev(s, e, pts) for e in row]) for row in B])
        # wedge^2 B (e_1..e_4) = 2! Pf(B), the 4 x 4 Pfaffian written out
        wed = 2 * (Bv[0, 1] * Bv[2, 3] - Bv[0, 2] * Bv[1, 3] + Bv[0, 3] * Bv[1, 2])
        assert np.max(np.abs(wed - 1.0)) < 1e-10


@pytest.mark.parametrize(
    "source",
    ["su2:chart", "heisenberg:3", "warped_heisenberg3.toml", "rational_heisenberg.toml", "lie_n2.toml"],
)
def test_structure_checks_equal_the_float_path(source):
    """The symbolic residuals of structure_checks give, bit for bit, the max
    residuals of the float path, whose Pfaffian expands the evaluated dalpha
    frame matrix."""
    s = load_structure(source if ":" in source else str(DATA / source))
    point_sets = [s.validation_points(100)]
    if s.coords:
        point_sets.append(Grid(list(s.coords), [np.linspace(-1.0, 1.0, 3)] * s.dim))
    for pts in point_sets:
        want = structure_checks_reference.structure_checks(s, pts)
        assert structure_checks(s, pts) == want


class TestReeb:
    def test_heisenberg_reeb(self, heis):
        assert [str(r) for r in heis.reeb] == ["0", "0", "-1"]

    def test_su2_reeb_is_minus_e3(self, su2):
        assert [str(r) for r in su2.reeb] == ["0", "0", "-1"]

    @pytest.mark.parametrize(
        "n,brackets,xi",
        [
            (1, "c 1 2 3 = 1\nc 2 3 1 = 1\nc 1 3 2 = -1\n", [0, 0, -1]),  # su2
            (1, "c 1 2 3 = 1\nc 1 3 3 = 1\n", [0, 1, -1]),
            (2, "c 1 2 5 = 1\nc 3 4 5 = 2\n", [0, 0, 0, 0, 2]),
            # v = (2c)^2 past float precision, then past the float range
            *(
                pytest.param(2, f"c 1 2 5 = {c}\nc 3 4 5 = {2 * c}\n", [0, 0, 0, 0, 2 * c], id=f"c=1e{e}+1")
                for e, c in ((20, 10**20 + 1), (200, 10**200 + 1))
            ),
        ],
    )
    def test_lie_reeb_is_exact(self, n, brackets, xi):
        # by hand: alpha = f e^(2n+1) with f = v^(-1/n), v = n! Pf(B0), and
        # xi solves alpha(xi) = 1, alpha([xi, e_j]) = 0; for the second
        # algebra f = -1, [xi, e_1] = -(xi^2 + xi^3) e_3, [xi, e_2] = xi^1 e_3
        s = load_structure_text(f"[manifold]\nmode = lie\nn = {n}\n[brackets]\n{brackets}")
        assert [r.value for r in s.reeb] == [Fraction(v) for v in xi]

    def test_n_zero_rejected(self):
        text = """
[manifold]
mode = chart
n = 0
coords = z
[frame]
"""
        with pytest.raises(StructureError) as err:
            load_structure_text(text)
        assert "n >= 1" in str(err.value)

    def test_reeb_identities_random_points(self, heis):
        pts = np.vstack([np.zeros((1, 3)), sample_box_points(3, 100, seed=5)])
        assert np.max(np.abs(ev(heis, heis.alpha_of(heis.reeb), pts) - 1.0)) < 1e-10
        for j in range(3):
            e_j = [ex.ONE if i == j else ex.ZERO for i in range(3)]
            vals = ev(heis, heis.dalpha_on(heis.reeb, e_j), pts)
            assert np.max(np.abs(vals)) < 1e-10


class TestStructureFunctions:
    def test_heisenberg(self, heis):
        b = heis.brackets
        assert str(b.c_0[0][1]) == "-1"
        assert all(str(e) == "0" for e in b.c_h[0][1])
        assert all(str(e) == "0" for row in b.c0_h for e in row)

    def test_su2(self, su2):
        b = su2.brackets
        assert str(b.c_0[0][1]) == "-1"
        assert all(str(e) == "0" for e in b.c_h[0][1])
        assert str(b.c0_h[0][1]) == "-1"  # c^2_01
        assert str(b.c0_h[1][0]) == "1"  # c^1_02

    def test_antisymmetry(self, su2c):
        b = su2c.brackets
        pts = su2c.validation_points(count=10, seed=6)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    vals = ev(su2c, ex.add(b.c_h[i][j][k], b.c_h[j][i][k]), pts)
                    assert np.max(np.abs(vals)) < 1e-12
                vals = ev(su2c, ex.add(b.c_0[i][j], b.c_0[j][i]), pts)
                assert np.max(np.abs(vals)) < 1e-12

    def test_su2_chart_matches_lie(self, su2, su2c):
        pts = su2c.validation_points(count=20, seed=7)
        pairs = [
            (su2.brackets.c_0[0][1], su2c.brackets.c_0[0][1]),
            (su2.brackets.c0_h[0][0], su2c.brackets.c0_h[0][0]),
            (su2.brackets.c0_h[0][1], su2c.brackets.c0_h[0][1]),
            (su2.brackets.c0_h[1][0], su2c.brackets.c0_h[1][0]),
            (su2.brackets.c0_h[1][1], su2c.brackets.c0_h[1][1]),
        ]
        for lie_e, chart_e in pairs:
            want = evaluate(lie_e, {})
            got = ev(su2c, chart_e, pts)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_jacobi_identity_chart(self, heis):
        vecs = heis.frame + [heis.reeb]
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, (20, 3))
        for a, b, c in itertools.combinations(range(3), 3):
            total = [ex.ZERO] * 3
            for va, vb, vc in ((a, b, c), (b, c, a), (c, a, b)):
                inner = lie_bracket(vecs[vb], vecs[vc], XYZ)
                outer = lie_bracket(vecs[va], inner, XYZ)
                total = [ex.add(t, o) for t, o in zip(total, outer)]
            for t in total:
                assert np.max(np.abs(ev(heis, t, pts))) < 1e-8



DATA = pathlib.Path(__file__).resolve().parent / "data"
BIG_N2 = "[manifold]\nmode = lie\nn = 2\n[brackets]\nc 1 2 5 = {c}\nc 3 4 5 = {c2}\n"


def file_constants(text):
    """{(i, j, k): c^k_ij}, 0-based, from the 'c i j k = value' lines."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.split("#", 1)[0].partition("=")
        if key.split()[:1] == ["c"]:
            i, j, k = (int(x) - 1 for x in key.split()[1:])
            out[(i, j, k)] = Fraction(value.strip())
    return out


def constants_column(consts, dim, a, b):
    """[e_a, e_b] in the Lie algebra basis, read from the constants."""
    col = [Fraction(0)] * dim
    for (i, j, k), c in consts.items():
        col[k] += c if (i, j) == (a, b) else -c if (i, j) == (b, a) else 0
    return col


class TestLieStructureFunctionsRecompose:
    """Lie mode: the structure functions, put back together over the adapted
    basis (e_1..e_2n, xi), give the brackets the file's constants give."""

    @pytest.fixture(
        params=[
            "su2",
            "aff_lie.toml",
            "lie_n2.toml",
            *(
                pytest.param(BIG_N2.format(c=c, c2=2 * c), id=f"c=1e{e}+1")
                for e, c in ((20, 10**20 + 1), (200, 10**200 + 1))
            ),
        ]
    )
    def lie(self, request):
        src = request.param
        if src.startswith("[manifold]"):
            return load_structure_text(src), src
        text = builtin_text(src) or (DATA / src).read_text()
        return load_structure_text(text, name=src), text

    def test_brackets_recompose_exactly(self, lie):
        s, text = lie
        consts, dim, h, b = file_constants(text), s.dim, s.h, s.brackets
        xi = [x.value for x in s.reeb]

        def recompose(hor, xi_comp):
            # sum_k hor[k] e_k + xi_comp xi, e_k the k-th basis vector
            assert all(isinstance(e, ex.Const) for e in [*hor, xi_comp])
            return [(hor[m].value if m < h else 0) + xi_comp.value * xi[m] for m in range(dim)]

        for i in range(h):
            for j in range(h):
                assert recompose(b.c_h[i][j], b.c_0[i][j]) == constants_column(consts, dim, i, j)
            # [xi, e_j] = sum_a xi^a [e_a, e_j]
            cols = [constants_column(consts, dim, a, j) for a in range(dim)]
            xi_e = [sum(x * col[m] for x, col in zip(xi, cols)) for m in range(dim)]
            assert recompose(b.c0_h[j], b.c0_0[j]) == xi_e

class TestDalphaRoutes:
    @pytest.mark.parametrize("fixture", ["heis", "su2c"])
    def test_coordinate_route_matches_bracket_route(self, fixture, request):
        # dalpha(e_a, e_b) two ways: derivatives of alpha in coordinates
        # versus -alpha([e_a, e_b]) through the structure functions
        s = request.getfixturevalue(fixture)
        pts = s.validation_points(count=30, seed=10)
        B = s.dalpha_frame()
        for a in range(s.h):
            for b in range(s.h):
                direct = s.dalpha_on(s.frame[a], s.frame[b])
                diff = ex.sub(direct, B[a][b])
                assert np.max(np.abs(ev(s, diff, pts))) < 1e-11


class TestSpecial:
    def test_heisenberg_special(self, heis):
        records = check_special(heis)
        assert [(r.check, r.max_residual, r.pass_) for r in records] == [
            ("special_bracket_horizontal", 0.0, True),
            ("special_reeb_killing", 0.0, True),
        ]

    def test_su2_special_by_skewness(self, su2):
        assert all(r.pass_ for r in check_special(su2))
        c0 = np.array(
            [[float(evaluate(su2.brackets.c0_h[j][k], {})) for k in range(2)] for j in range(2)]
        )
        assert np.allclose(c0 + c0.T, 0)
        assert np.allclose(c0, [[0, -1], [1, 0]])

    def test_warped_frame_not_special(self):
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, -y/2
X2 = 0, 1 + x^2, x*(1 + x^2)/2
"""
        s = load_structure_text(text)
        _, reeb_killing = check_special(s)
        assert not reeb_killing.pass_
        assert reeb_killing.max_residual >= 0.1

        # independent oracle: Lie derivative of the horizontal cometric
        # h^ij = sum_a e_a^i e_a^j along the computed Reeb field
        coords = s.coords
        hmat = [
            [
                ex.normalize(
                    ex.add(
                        ex.mul(s.frame[0][i], s.frame[0][j]),
                        ex.mul(s.frame[1][i], s.frame[1][j]),
                    )
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
        xi = s.reeb
        lie_h = [[ex.ZERO] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                acc = ex.ZERO
                for k, ck in enumerate(coords):
                    acc = ex.add(acc, ex.mul(xi[k], ex.differentiate(hmat[i][j], ck)))
                    acc = ex.sub(acc, ex.mul(hmat[k][j], ex.differentiate(xi[i], ck)))
                    acc = ex.sub(acc, ex.mul(hmat[i][k], ex.differentiate(xi[j], ck)))
                lie_h[i][j] = acc
        grid = np.stack(
            np.meshgrid(*[np.linspace(-1, 1, 5)] * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        worst = max(
            float(np.max(np.abs(ev(s, lie_h[i][j], grid))))
            for i in range(3)
            for j in range(3)
        )
        assert worst >= 0.1  # xi genuinely fails to be Killing


class TestFilesAndBuiltins:
    def test_fixture_files_match_builtins(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "structures"
        pairs = [
            ("heisenberg1.toml", "heisenberg:1"),
            ("heisenberg2.toml", "heisenberg:2"),
            ("su2.toml", "su2"),
            ("su2_chart.toml", "su2:chart"),
        ]
        for fname, bname in pairs:
            assert (root / fname).read_text() == builtin_text(bname), fname
        s_file = load_structure(str(root / "su2.toml"))
        s_builtin = load_structure("su2")
        assert s_file.fingerprint() == s_builtin.fingerprint()

    def test_missing_section(self):
        with pytest.raises(StructureError):
            load_structure_text("[manifold]\nmode = chart\nn = 1\ncoords = x,y,z\n")

    def test_bad_mode(self):
        with pytest.raises(StructureError):
            load_structure_text("[manifold]\nmode = banana\nn = 1\n")

    def test_wrong_component_count(self):
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0
X2 = 0, 1, x/2
"""
        with pytest.raises(StructureError):
            load_structure_text(text)

    def test_dependent_frame(self):
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, -y/2
X2 = 2, 0, -y
"""
        with pytest.raises(StructureError):
            load_structure_text(text)

    def test_lie_jacobi_violation(self):
        # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = [e2,e1] = -e3 != 0
        text = """
[manifold]
mode = lie
n = 1
[brackets]
c 1 2 3 = 1
c 2 3 2 = 1
"""
        with pytest.raises(StructureError) as err:
            load_structure_text(text)
        assert "Jacobi" in str(err.value)

    def test_lie_bad_indices(self):
        with pytest.raises(StructureError):
            load_structure_text(
                "[manifold]\nmode = lie\nn = 1\n[brackets]\nc 2 1 3 = 1\n"
            )

    def test_pow_with_comma_in_frame_row(self):
        # component splitting must respect parentheses: pow(e, p/q) has a comma
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, -y/2
X2 = 0, pow(4, 1/2), x/2
"""
        s = load_structure_text(text)
        assert evaluate(s.frame[1][1], {"x": 0, "y": 0, "z": 0}) == 2.0

    def test_unknown_variable_in_frame(self):
        text = """
[manifold]
mode = chart
n = 1
coords = x, y, z
[frame]
X1 = 1, 0, -w/2
X2 = 0, 1, x/2
"""
        with pytest.raises(ex.ParseError):
            load_structure_text(text)
