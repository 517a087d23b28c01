import contextlib
import io

import numpy as np
import pytest

from srkilling import connection
from srkilling import expr as ex
from srkilling.cli import main
from srkilling.connection import (
    HTensor,
    NotSpecialError,
    compute_connection,
    covariant_derivative,
    curvature,
    eval_tensor,
    higher_derivatives,
    verify_geometry,
)
from srkilling.frame import load_structure, load_structure_text, sample_box_points
from srkilling.killing import a_z_matrix, derivation_apply

from conftest import HEIS_KILLING, SU2C_KILLING, field


class TestKoszul:
    def test_heisenberg_flat_connection(self, heis_cd):
        conn = heis_cd.connection
        assert all(
            str(conn.gamma_h[a][j][k]) == "0"
            for a in range(2)
            for j in range(2)
            for k in range(2)
        )
        assert all(str(conn.gamma_xi[j][k]) == "0" for j in range(2) for k in range(2))

    def test_su2_connection(self, su2_cd):
        conn = su2_cd.connection
        assert all(
            str(conn.gamma_h[a][j][k]) == "0"
            for a in range(2)
            for j in range(2)
            for k in range(2)
        )
        # nabla_xi e_1 = -e_2, nabla_xi e_2 = e_1
        assert str(conn.gamma_xi[0][1]) == "-1"
        assert str(conn.gamma_xi[1][0]) == "1"

    def test_vanishing_horizontal_structure_gives_flat_gamma(self, su2_cd):
        s = su2_cd.structure
        assert all(
            str(s.brackets.c_h[i][j][k]) == "0"
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        assert all(
            str(su2_cd.connection.gamma_h[a][j][k]) == "0"
            for a in range(2)
            for j in range(2)
            for k in range(2)
        )

    def test_not_special_refused(self):
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
        with pytest.raises(NotSpecialError):
            compute_connection(s)

    def test_uniqueness_perturbations_violate_axioms(self, heis_cd):
        # any nonzero perturbation of Gamma breaks metricity or torsion
        rng = np.random.default_rng(21)
        s = heis_cd.structure
        pts = sample_box_points(3, 10, seed=22)
        for _ in range(20):
            delta = rng.normal(size=(2, 2, 2)) * 0.1
            met = max(
                abs(delta[a, j, k] + delta[a, k, j])
                for a in range(2)
                for j in range(2)
                for k in range(2)
            )
            tor = max(
                abs(delta[a, j, k] - delta[j, a, k])
                for a in range(2)
                for j in range(2)
                for k in range(2)
            )
            assert met > 1e-6 or tor > 1e-6


class TestCovariantDerivative:
    def test_identity_tensor_is_parallel(self, su2_cd):
        h = 2
        comps = np.empty((h, h), dtype=object)
        for j in range(h):
            for k in range(h):
                comps[j, k] = ex.ONE if j == k else ex.ZERO
        delta = HTensor.from_dense(comps, n_upper=1)
        for direction in range(h + 1):
            d = covariant_derivative(su2_cd.connection, delta, direction)
            assert all(str(c) == "0" for c in d.components.ravel())

    def test_heisenberg_dalpha_parallel(self, heis_cd):
        for direction in range(3):
            d = covariant_derivative(heis_cd.connection, heis_cd.dalpha, direction)
            assert all(str(c) == "0" for c in d.components.ravel())

    def test_su2_dalpha_parallel_along_xi(self, su2_cd):
        d = covariant_derivative(su2_cd.connection, su2_cd.dalpha, 0)
        assert all(str(c) == "0" for c in d.components.ravel())


class TestCurvature:
    def test_heisenberg_identically_flat(self, heis_cd):
        assert all(str(c) == "0" for c in heis_cd.R.components.ravel())

    def test_su2_curvature_values(self, su2_cd):
        R = su2_cd.R.components
        # R(e1,e2)e1 = -e2 and R(e1,e2)e2 = e1, exactly
        assert R[0, 1, 0, 0] == ex.ZERO
        assert R[0, 1, 0, 1] == ex.const(-1)
        assert R[0, 1, 1, 0] == ex.ONE
        assert R[0, 1, 1, 1] == ex.ZERO

    def test_antisymmetry_in_first_pair(self, su2c_cd):
        R = su2c_cd.R.components
        pts = su2c_cd.structure.validation_points(count=10, seed=23)
        for a in range(2):
            for j in range(2):
                for k in range(2):
                    vals = su2c_cd.structure.eval_scalar(R[a, a, j, k], pts)
                    assert np.max(np.abs(vals)) < 1e-14

    def test_su2_chart_matches_lie_curvature(self, su2_cd, su2c_cd):
        pts = su2c_cd.structure.validation_points(count=25, seed=24)
        Rl = eval_tensor(su2_cd.structure, su2_cd.R, np.zeros((1, 0)))[..., 0]
        Rc = eval_tensor(su2c_cd.structure, su2c_cd.R, pts)
        assert np.max(np.abs(Rc - Rl[..., None])) < 1e-11


class TestHigherDerivatives:
    def test_heisenberg_all_derivatives_vanish(self, heis_cd):
        higher_derivatives(heis_cd, 3)
        for i in range(1, 4):
            assert all(str(c) == "0" for c in heis_cd.nabla_R[i].components.ravel())
            assert all(
                str(c) == "0" for c in heis_cd.nabla_dalpha[i].components.ravel()
            )

    def test_su2_curvature_parallel(self, su2_cd):
        higher_derivatives(su2_cd, 1)
        assert all(str(c) == "0" for c in su2_cd.nabla_R[1].components.ravel())

    def test_order_zero_returns_tensors_themselves(self, su2_cd):
        higher_derivatives(su2_cd, 0)
        assert su2_cd.nabla_R[0] is su2_cd.R
        assert su2_cd.nabla_dalpha[0] is su2_cd.dalpha

    def test_component_count(self, su2_cd):
        higher_derivatives(su2_cd, 2)
        for i in range(3):
            assert su2_cd.nabla_R[i].components.size == 2 ** (4 + i)

    def test_memory_bound(self, su2_cd):
        with pytest.raises(MemoryError):
            higher_derivatives(su2_cd, su2_cd.max_order + 1)


class TestVerifyGeometry:
    @pytest.mark.parametrize("fixture", ["heis_cd", "su2_cd", "su2c_cd"])
    def test_identity_suite_passes(self, fixture, request):
        cd = request.getfixturevalue(fixture)
        pts = cd.structure.validation_points(count=100, seed=25)
        records = verify_geometry(cd, points=pts, tol=1e-10)
        assert {r.check for r in records} == {
            "metricity",
            "torsion",
            "bianchi_first",
            "bianchi_second",
            "curvature_reeb",
            "curvature_skew",
            "dalpha_bianchi",
        }
        for r in records:
            assert r.pass_, f"{r.check}: {r.max_residual}"

    def test_repeated_calls_compile_no_new_tape(self):
        cd = curvature(compute_connection(load_structure("su2:chart")))
        compiled = cd.structure._compiled
        verify_geometry(cd)
        before = len(compiled)
        for _ in range(4):
            verify_geometry(cd)
        assert len(compiled) == before

    def test_axiom_terms_are_built_once_per_run(self, monkeypatch):
        """compute_connection and verify_geometry read one list of metricity
        and torsion terms."""
        calls = []

        def counted(conn):
            calls.append(conn)
            return build(conn)

        build = connection._axiom_terms
        monkeypatch.setattr(connection, "_axiom_terms", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify-geometry", "su2:chart"]) == 0
        assert len(calls) == 1

    def test_fault_injection_fails_metricity(self, su2):
        cd = curvature(compute_connection(su2))
        cd.connection.gamma_h[0][0][0] = ex.add(
            cd.connection.gamma_h[0][0][0], ex.ONE
        )
        records = verify_geometry(cd, tol=1e-10)
        by_name = {r.check: r for r in records}
        assert not by_name["metricity"].pass_
        assert by_name["metricity"].max_residual >= 1.0


@pytest.fixture(scope="module")
def aff_cd():
    # solvable structure [e1,e2] = e1 + e3: the one fixture with nonzero
    # horizontal connection coefficients, negatively curved
    text = "[manifold]\nmode = lie\nn = 1\n[brackets]\nc 1 2 1 = 1\nc 1 2 3 = 1\n"
    return curvature(compute_connection(load_structure_text(text)))


class TestAffineType:
    def test_connection_values(self, aff_cd):
        conn = aff_cd.connection
        # Koszul with c^1_12 = 1: Gamma^2_11 = -1, Gamma^1_12 = 1, rest 0
        assert str(conn.gamma_h[0][0][1]) == "-1"
        assert str(conn.gamma_h[0][1][0]) == "1"
        assert str(conn.gamma_h[0][0][0]) == "0"
        assert str(conn.gamma_h[1][0][0]) == "0"
        assert str(conn.gamma_h[1][1][1]) == "0"

    def test_negative_curvature(self, aff_cd):
        R = aff_cd.R.components
        # only the -c^1_12 Gamma_1 term survives: R(e1,e2) = -Gamma_1
        assert R[0, 1, 1, 0] == ex.const(-1)
        assert R[0, 1, 0, 1] == ex.ONE
        assert R[0, 1, 0, 0] == ex.ZERO

    def test_identity_suite(self, aff_cd):
        records = verify_geometry(aff_cd, tol=1e-12)
        for r in records:
            assert r.pass_, (r.check, r.max_residual)

    def test_isometry_dimension(self, aff_cd):
        from srkilling.killing import generator_space

        gs = generator_space(aff_cd, None)
        assert gs.dim == 4 and gs.certified


class TestLieDerivativeOfCurvature:
    @pytest.mark.parametrize("name", sorted(HEIS_KILLING))
    def test_killing_fields_annihilate_curvature_data_heis(self, heis_cd, name):
        Z = field(HEIS_KILLING[name])
        rng = np.random.default_rng(26)
        higher_derivatives(heis_cd, 3)
        for p in rng.uniform(-1, 1, (5, 3)):
            gen = a_z_matrix(heis_cd.connection, Z, p).gen
            for i in range(3):
                for which in ("R", "dalpha"):
                    val = derivation_apply(heis_cd, gen, which, i)
                    assert np.max(np.abs(val)) < 1e-8 if val.size else True

    @pytest.mark.parametrize("name", sorted(SU2C_KILLING))
    def test_killing_fields_annihilate_curvature_data_su2_chart(self, su2c_cd, name):
        Z = field(SU2C_KILLING[name])
        rng = np.random.default_rng(27)
        higher_derivatives(su2c_cd, 3)
        for p in rng.uniform(-0.8, 0.8, (3, 3)):
            gen = a_z_matrix(su2c_cd.connection, Z, p).gen
            for i in range(3):
                for which in ("R", "dalpha"):
                    val = derivation_apply(su2c_cd, gen, which, i)
                    assert np.max(np.abs(val)) < 1e-8
