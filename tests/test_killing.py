from fractions import Fraction

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling.connection import NotSpecialError, compute_connection, curvature
from srkilling.frame import (
    CheckFailure,
    StructureError,
    check_special,
    load_structure,
    sample_box_points,
    structure_checks,
)
from srkilling.killing import (
    Curve,
    Generator,
    Grid,
    a_z_matrix,
    ambient_dimension,
    derivation_apply,
    generator_space,
    load_curve_text,
    load_generator_text,
    pack_generator,
    path_independence,
    pushforward_generator,
    reconstruct_field,
    riemannian_extension_check,
    scan_regularity,
    transport,
    unpack_generator,
    verify_killing,
    verify_killing_field,
)

from conftest import HEIS_KILLING, SU2C_KILLING, field
from eval_reference import evaluate

XYZ = ["x", "y", "z"]
ORIGIN = np.zeros(3)


def tcurve(texts, t0=0.0, t1=1.0):
    return Curve([ex.parse_expression(t, ["t"]) for t in texts], t0, t1)


def _record(records, name):
    return next(r for r in records if r.check == name)


def rot_gen(cd):
    return a_z_matrix(cd.connection, field(HEIS_KILLING["J"]), ORIGIN).gen


class TestAZMatrix:
    def test_reeb_generator(self, heis_cd):
        r = a_z_matrix(heis_cd.connection, field(HEIS_KILLING["xi"]), ORIGIN)
        assert np.allclose(r.gen.X, 0)
        assert np.allclose(r.gen.A, 0)
        assert r.gen.c == pytest.approx(1.0)
        lie = _record(verify_killing(heis_cd, field(HEIS_KILLING["xi"]), ORIGIN[None]), "lie_alpha")
        assert lie.max_residual < 1e-14

    def test_translation_generator(self, heis_cd):
        conn = heis_cd.connection
        Y1 = field(HEIS_KILLING["Y1"])
        r0 = a_z_matrix(conn, Y1, ORIGIN)
        assert np.allclose(r0.gen.X, [1, 0]) and r0.gen.c == pytest.approx(0.0)
        assert np.allclose(r0.gen.A, 0)
        r1 = a_z_matrix(conn, Y1, [0, 1, 0])
        assert np.allclose(r1.gen.X, [1, 0]) and r1.gen.c == pytest.approx(-1.0)

    def test_rotation_generator(self, heis_cd):
        conn = heis_cd.connection
        J = field(HEIS_KILLING["J"])
        r = a_z_matrix(conn, J, ORIGIN)
        assert np.allclose(r.gen.X, 0) and r.gen.c == pytest.approx(0.0)
        assert np.allclose(r.gen.A, [[0, 1], [-1, 0]])
        assert _record(verify_killing(heis_cd, J, ORIGIN[None]), "killing_metric").max_residual < 1e-14
        # c-field alpha(J) = (x^2 + y^2)/2
        r2 = a_z_matrix(conn, J, [1.0, 2.0, 0.3])
        assert r2.gen.c == pytest.approx(2.5)

    def test_non_contact_field_reported(self, heis_cd):
        dx = field(["1", "0", "0"])
        r = a_z_matrix(heis_cd.connection, dx, ORIGIN)
        assert np.allclose(r.gen.X, [1, 0]) and r.gen.c == 0.0
        lie = _record(verify_killing(heis_cd, dx, ORIGIN[None]), "lie_alpha")
        assert lie.max_residual >= 0.1  # alpha([dx, X2]) = -1/2


class TestDerivationApply:
    def test_reeb_generator_annihilates_curvature(self, heis_cd):
        gen = Generator(X=[0, 0], A=np.zeros((2, 2)), c=1.0, q=ORIGIN)
        assert np.max(np.abs(derivation_apply(heis_cd, gen, "R", 0))) == 0.0

    def test_rotation_preserves_area_form_su2(self, su2_cd):
        gen = Generator(
            X=[0, 0], A=np.array([[0.0, 1.0], [-1.0, 0.0]]), c=0.0, q=None
        )
        val = derivation_apply(su2_cd, gen, "dalpha", 0)
        assert np.max(np.abs(val)) < 1e-14

    def test_zero_generator(self, su2_cd):
        gen = Generator(X=[0, 0], A=np.zeros((2, 2)), c=0.0, q=None)
        for which in ("R", "dalpha"):
            for i in range(2):
                assert np.max(np.abs(derivation_apply(su2_cd, gen, which, i))) == 0.0


class TestGeneratorSpace:
    def test_ambient_dimension(self):
        assert ambient_dimension(1) == 4
        assert ambient_dimension(2) == 11

    def test_heisenberg_full_isometry_algebra(self, heis_cd):
        gs = generator_space(heis_cd, ORIGIN)
        assert gs.dims == [4, 4, 4]
        assert gs.dim == 4 == (1 + 1) ** 2
        assert gs.certified and gs.m_used == 2
        # oracle: the four explicit Killing fields span the kernel
        vecs = []
        for name in sorted(HEIS_KILLING):
            g = a_z_matrix(heis_cd.connection, field(HEIS_KILLING[name]), ORIGIN).gen
            assert gs.membership_residual(g) < 1e-8, name
            vecs.append(g.as_vector())
        assert np.linalg.matrix_rank(np.stack(vecs), tol=1e-8) == 4

    def test_su2_dimension_with_elimination_oracle(self, su2_cd):
        gs = generator_space(su2_cd, None)
        assert gs.dim == 4 and gs.certified
        # independent oracle: dense Gaussian elimination rank of f_q
        from srkilling.killing import _assemble_block, _tensor_value_cache

        cache = _tensor_value_cache(su2_cd, 2, np.zeros((1, 0)))
        M = _assemble_block(su2_cd, 2, cache)[0]
        rank = 0
        Mw = M.copy()
        rows, cols = Mw.shape
        for col in range(cols):
            piv = None
            for r in range(rank, rows):
                if abs(Mw[r, col]) > 1e-9:
                    piv = r
                    break
            if piv is None:
                continue
            Mw[[rank, piv]] = Mw[[piv, rank]]
            Mw[rank] = Mw[rank] / Mw[rank, col]
            for r in range(rows):
                if r != rank and abs(Mw[r, col]) > 0:
                    Mw[r] = Mw[r] - Mw[r, col] * Mw[rank]
            rank += 1
        assert ambient_dimension(1) - rank == gs.dim

    def test_dims_non_increasing_and_bounded(self, su2c_cd):
        gs = generator_space(su2c_cd, [0.2, -0.3, 0.4])
        assert all(a >= b for a, b in zip(gs.dims, gs.dims[1:]))
        assert gs.dims[-1] <= (su2c_cd.structure.n + 1) ** 2

    def test_reeb_generator_always_in_kernel(self, heis_cd, su2_cd, su2c_cd):
        for cd in (heis_cd, su2_cd, su2c_cd):
            pts = (
                sample_box_points(3, 5, seed=31)
                if cd.structure.coords
                else [None]
            )
            for p in pts:
                gs = generator_space(cd, p)
                gen = Generator(
                    X=[0, 0], A=np.zeros((2, 2)), c=1.0, q=gs.q
                )
                assert gs.membership_residual(gen) < 1e-10

    def test_explicit_order(self, heis_cd):
        gs = generator_space(heis_cd, ORIGIN, order=1)
        assert gs.dims == [4, 4]
        assert gs.m_used == 1

    def test_heisenberg2_dimension_is_nine(self):
        from srkilling.frame import load_structure
        from srkilling.connection import compute_connection, curvature

        cd = curvature(compute_connection(load_structure("heisenberg:2")))
        gs = generator_space(cd, np.zeros(5))
        assert gs.dim == 9 == (2 + 1) ** 2
        assert gs.certified

    def test_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(32)
        a = rng.normal()
        A = np.array([[0, -a], [a, 0]])
        gen = Generator(X=rng.normal(size=2), A=A, c=rng.normal(), q=ORIGIN)
        back = unpack_generator(gen.as_vector(), 2, ORIGIN)
        assert np.allclose(back.X, gen.X)
        assert np.allclose(back.A, gen.A)
        assert back.c == pytest.approx(gen.c)


class TestCurvePoints:
    """A curve point that is not finite is an EvalError in each case where
    the scalar reference evaluator raises one."""

    @pytest.mark.parametrize(
        "text,t",
        [("1/t", 0.0), ("pow(t, 1/2)", -1.0), ("exp(t)", 1e9)],
        ids=["division by zero", "even root of negative", "overflow"],
    )
    def test_point_that_is_not_finite(self, text, t):
        with pytest.raises(ex.EvalError):
            evaluate(ex.parse_expression(text, ["t"]), {"t": t})
        with pytest.raises(ex.EvalError):
            tcurve(["t", text, "0"]).point_at(t)


class TestTransport:
    def test_zero_generator_fixed(self, heis_cd):
        gen = Generator(X=[0, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
        res = transport(heis_cd, gen, tcurve(["t", "t^2", "0"]), step=1e-2)
        assert np.allclose(res.gen.X, 0) and res.gen.c == 0.0
        assert np.allclose(res.gen.A, 0)

    def test_reeb_generator_fixed(self, heis_cd):
        gen = Generator(X=[0, 0], A=np.zeros((2, 2)), c=1.0, q=ORIGIN)
        res = transport(heis_cd, gen, tcurve(["t", "-t", "t*(1-t)"]), step=1e-2)
        assert np.allclose(res.gen.X, 0) and res.gen.c == 1.0

    def test_translation_generator_endpoint(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
        res = transport(heis_cd, gen, tcurve(["0", "t", "0"]), step=1e-3)
        assert np.max(np.abs(res.gen.X - [1, 0])) < 1e-8
        assert abs(res.gen.c - (-1.0)) < 1e-8
        assert np.max(np.abs(res.gen.A)) < 1e-8

    def test_base_point_mismatch(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=[0.5, 0, 0])
        with pytest.raises(ValueError):
            transport(heis_cd, gen, tcurve(["0", "t", "0"]))

    def test_bad_step(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
        with pytest.raises(ValueError):
            transport(heis_cd, gen, tcurve(["0", "t", "0"]), step=0.0)

    def test_require_horizontal(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
        # vertical curve: gamma' = dz is not horizontal
        with pytest.raises(ValueError):
            transport(
                heis_cd, gen, tcurve(["0", "0", "t"]), require_horizontal=True
            )
        # horizontal curve passes: x-line has alpha(gamma') = -y/2 = 0 at y=0
        res = transport(
            heis_cd, gen, tcurve(["t", "0", "0"]), require_horizontal=True
        )
        assert res.horizontal_violation < 1e-12

    def test_skew_preserved_along_curves(self, heis_cd, su2c_cd):
        rng = np.random.default_rng(33)
        for cd in (heis_cd, su2c_cd):
            for trial in range(3):
                a = rng.normal()
                gen = Generator(
                    X=rng.normal(size=2),
                    A=np.array([[0, -a], [a, 0]]),
                    c=rng.normal(),
                    q=ORIGIN,
                )
                curve = tcurve(["t/2", "t^2/2", "t*(1-t)*sin(2*t)"])
                res = transport(cd, gen, curve, step=1e-3)
                assert res.skew_drift < 1e-8

    def test_lie_mode_rejected(self, su2_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=None)
        with pytest.raises(StructureError):
            transport(su2_cd, gen, tcurve(["t", "0", "0"]))

    def test_curve_leaving_domain(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=[1, 0, 0])
        blowup = tcurve(["pow(1 - t, -1)", "0", "0"])
        with pytest.raises(ex.EvalError):
            transport(heis_cd, gen, blowup, step=1e-2)

    def test_membership_preserved(self, heis_cd):
        # transport of an i(q) generator stays in i(endpoint)
        gen = rot_gen(heis_cd)
        curve = tcurve(["t", "t^2", "t*(1-t)"])
        res = transport(heis_cd, gen, curve, step=1e-3)
        gs_end = generator_space(heis_cd, res.gen.q)
        assert gs_end.membership_residual(res.gen) < 1e-6

    def test_curved_transport_matches_killing_field(self, su2c_cd):
        # with nonzero curvature the A-equation is active; the transported
        # triple must match the analytic Killing field data at the endpoint
        Y3 = field(SU2C_KILLING["Y3"])
        gen = a_z_matrix(su2c_cd.connection, Y3, ORIGIN).gen
        curve = tcurve(["t/2", "t^2/3", "t*(1-t)"])
        res = transport(su2c_cd, gen, curve, step=1e-3)
        want = a_z_matrix(su2c_cd.connection, Y3, curve.point_at(1.0)).gen
        assert np.max(np.abs(res.gen.X - want.X)) < 1e-10
        assert np.max(np.abs(res.gen.A - want.A)) < 1e-10
        assert abs(res.gen.c - want.c) < 1e-10
        gs_end = generator_space(su2c_cd, res.gen.q)
        assert gs_end.membership_residual(res.gen) < 1e-6


class TestPathIndependence:
    def test_translation_generator_two_paths(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
        straight = tcurve(["t", "t", "0"])
        parabola = tcurve(["t^2", "t", "0"])
        rep = path_independence(heis_cd, gen, straight, parabola, step=1e-3)
        assert rep["deviation"] < 1e-6
        # analytic oracle at the endpoint (1,1,0)
        end = a_z_matrix(heis_cd.connection, field(HEIS_KILLING["Y1"]), [1, 1, 0]).gen
        assert np.max(np.abs(rep["end1"].gen.X - end.X)) < 1e-8
        assert abs(rep["end1"].gen.c - end.c) < 1e-8

    def test_identical_curves(self, heis_cd):
        gen = rot_gen(heis_cd)
        c1 = tcurve(["t", "0", "t*(1-t)"])
        rep = path_independence(heis_cd, gen, c1, c1, step=1e-2)
        assert rep["deviation"] == 0.0

    def test_reeb_generator_any_paths(self, heis_cd):
        gen = Generator(X=[0, 0], A=np.zeros((2, 2)), c=1.0, q=ORIGIN)
        rep = path_independence(
            heis_cd,
            gen,
            tcurve(["t", "t", "0"]),
            tcurve(["t^3", "t", "t*(1-t)"]),
            step=1e-2,
        )
        assert rep["deviation"] == 0.0

    def test_endpoint_mismatch_rejected(self, heis_cd):
        gen = rot_gen(heis_cd)
        with pytest.raises(ValueError):
            path_independence(
                heis_cd, gen, tcurve(["t", "0", "0"]), tcurve(["t", "t", "0"])
            )

    def test_each_curve_compiles_two_tapes(self, heis_cd, monkeypatch):
        s = heis_cd.structure
        gen = rot_gen(heis_cd)
        calls = []
        original = ex.compile_expression

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ex, "compile_expression", counted)
        c1, c2 = tcurve(["t", "t", "0"]), tcurve(["t^2", "t", "t*(1-t)"])
        cached = len(s._compiled)
        for _ in range(3):
            path_independence(heis_cd, gen, c1, c2, step=0.1)
        # position and velocity per curve, and the tapes the structure keeps
        assert len(calls) == 2 * 2 + len(s._compiled) - cached

    def test_fourth_order_convergence(self, heis_cd):
        rng = np.random.default_rng(0)
        for trial in range(3):
            a = rng.uniform(-1, 1, 3)
            k = trial + 3
            fr = lambda v: f"({Fraction(str(round(v, 3)))})"
            c1 = tcurve([f"{fr(v)}*t" for v in a])
            c2 = tcurve([f"{fr(v)}*t + t*(1-t)*sin({k}*t)" for v in a])
            aa = rng.uniform(-1, 1)
            gen = Generator(
                X=rng.uniform(-1, 1, 2),
                A=np.array([[0, -aa], [aa, 0]]),
                c=rng.uniform(-1, 1),
                q=ORIGIN,
            )
            d1 = path_independence(heis_cd, gen, c1, c2, step=0.1)["deviation"]
            d2 = path_independence(heis_cd, gen, c1, c2, step=0.05)["deviation"]
            assert d1 / d2 >= 8.0


class TestReconstruction:
    def test_rotation_field(self, heis_cd):
        gen = rot_gen(heis_cd)
        grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 5)] * 3)
        fieldv = reconstruct_field(heis_cd, gen, grid, step=1e-3)
        pts = grid.points
        # oracle: analytic rotation field through a_z_matrix per point
        for p in range(0, pts.shape[0], 7):
            want = a_z_matrix(heis_cd.connection, field(HEIS_KILLING["J"]), pts[p]).gen
            assert np.max(np.abs(fieldv.X[p] - want.X)) < 1e-6
            assert abs(fieldv.c[p] - want.c) < 1e-6
        # c-field is (x^2+y^2)/2
        want_c = 0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        assert np.max(np.abs(fieldv.c - want_c)) < 1e-6

    def test_reeb_generator_gives_constant_field(self, heis_cd):
        gen = Generator(X=[0, 0], A=np.zeros((2, 2)), c=1.0, q=ORIGIN)
        grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 3)] * 3)
        fieldv = reconstruct_field(heis_cd, gen, grid, step=1e-2)
        assert np.max(np.abs(fieldv.X)) == 0.0
        assert np.max(np.abs(fieldv.c - 1.0)) == 0.0
        # Z = xi = -dz everywhere
        assert np.max(np.abs(fieldv.Z_coords - [0, 0, -1])) < 1e-12

    def test_translation_generator_field(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
        grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 3)] * 3)
        fieldv = reconstruct_field(heis_cd, gen, grid, step=1e-3)
        pts = grid.points
        assert np.max(np.abs(fieldv.X - [1.0, 0.0])) < 1e-8
        assert np.max(np.abs(fieldv.c - (-pts[:, 1]))) < 1e-8
        # Z = dx + (y/2) dz in coordinates
        want = np.stack(
            [np.ones(len(pts)), np.zeros(len(pts)), pts[:, 1] / 2], axis=-1
        )
        assert np.max(np.abs(fieldv.Z_coords - want)) < 1e-8

    def test_membership_required(self, heis_cd, monkeypatch):
        # On Heisenberg every triple is a generator (dim i = dim a), so to
        # exercise the rejection path restrict the computed space to the
        # span without the rotation direction.
        import srkilling.killing as killing_mod

        gen = rot_gen(heis_cd)
        full = generator_space(heis_cd, ORIGIN)
        full.basis = [
            a_z_matrix(heis_cd.connection, field(HEIS_KILLING[name]), ORIGIN).gen
            for name in ("xi", "Y1", "Y2")
        ]
        monkeypatch.setattr(killing_mod, "generator_space", lambda *a, **k: full)
        grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 3)] * 3)
        with pytest.raises(ValueError) as err:
            killing_mod.reconstruct_field(heis_cd, gen, grid)
        assert "not in the computed" in str(err.value)

    def test_eqs_residuals(self, heis_cd):
        gen = rot_gen(heis_cd)
        grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 5)] * 3)
        fieldv = reconstruct_field(heis_cd, gen, grid, step=1e-3)
        records = verify_killing_field(heis_cd, fieldv, tol=1e-4)
        assert all(r.pass_ for r in records)


class TestVerifyKilling:
    @pytest.mark.parametrize("name", sorted(HEIS_KILLING))
    def test_heisenberg_killing_fields_pass(self, heis_cd, name):
        pts = np.vstack(
            [np.zeros((1, 3)), sample_box_points(3, 100, seed=41)]
        )
        records = verify_killing(heis_cd, field(HEIS_KILLING[name]), pts, tol=1e-9)
        assert len(records) == 6
        for r in records:
            assert r.pass_, f"{name} {r.check}: {r.max_residual}"

    def test_dx_fails_contact(self, heis_cd):
        records = verify_killing(heis_cd, field(["1", "0", "0"]))
        by_name = {r.check: r for r in records}
        assert not by_name["lie_alpha"].pass_  # Cartan: the contact condition on the frame
        assert by_name["lie_alpha"].max_residual >= 0.1

    def test_zero_field_trivially_killing(self, heis_cd):
        records = verify_killing(heis_cd, field(["0", "0", "0"]))
        assert all(r.max_residual == 0.0 for r in records)

    @pytest.mark.parametrize("name", sorted(SU2C_KILLING))
    def test_su2_chart_killing_fields_pass(self, su2c_cd, name):
        pts = su2c_cd.structure.validation_points(count=50, seed=42)
        records = verify_killing(su2c_cd, field(SU2C_KILLING[name]), pts, tol=1e-9)
        for r in records:
            assert r.pass_, f"{name} {r.check}: {r.max_residual}"

    def test_xi_field_lie_mode(self, su2_cd):
        XI = [ex.ZERO, ex.ZERO, ex.const(-1)]
        records = verify_killing(su2_cd, XI)
        for r in records:
            assert r.pass_, f"{r.check}: {r.max_residual}"


class TestScan:
    def test_heisenberg_grid_constant(self, heis_cd):
        grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 5)] * 3)
        rep = scan_regularity(heis_cd, grid)
        assert set(rep["dims"]) == {4}
        assert all(rep["regular"])
        assert rep["semicontinuity_violations"] == 0

    def test_su2_lie_single_point(self, su2_cd):
        rep = scan_regularity(su2_cd, Grid(names=[], axes=[]))
        assert rep["mode"] == "lie"
        assert rep["dims"] == [4]
        assert rep["regular"] == [True]

    def test_empty_grid(self, heis_cd):
        rep = scan_regularity(heis_cd, Grid(names=XYZ, axes=[np.array([])] * 3))
        assert rep["dims"] == []
        assert rep["semicontinuity_violations"] == 0


class TestRiemannianExtension:
    @pytest.mark.parametrize("name", sorted(HEIS_KILLING))
    def test_killing_fields_pass(self, heis_cd, name):
        pts = np.vstack([np.zeros((1, 3)), sample_box_points(3, 60, seed=43)])
        recs = riemannian_extension_check(heis_cd, field(HEIS_KILLING[name]), pts)
        assert recs[0].pass_, recs[0].max_residual

    def test_dx_fails(self, heis_cd):
        recs = riemannian_extension_check(heis_cd, field(["1", "0", "0"]))
        assert not recs[0].pass_
        assert recs[0].max_residual >= 0.1


class TestEquivariance:
    def test_rotation_flow_commutes_with_transport(self, heis_cd):
        # 3-4-5 rotation about the z axis is an isometry generated by J
        phi = field(["3/5*x - 4/5*y", "4/5*x + 3/5*y", "z"])
        gen = a_z_matrix(heis_cd.connection, field(HEIS_KILLING["Y1"]), ORIGIN).gen
        curve = tcurve(["t", "t^2", "t*(1-t)*sin(2*t)"])
        phi_curve = tcurve(
            [
                "3/5*t - 4/5*t^2",
                "4/5*t + 3/5*t^2",
                "t*(1-t)*sin(2*t)",
            ]
        )
        push_then = transport(
            heis_cd, pushforward_generator(heis_cd, phi, gen), phi_curve, step=1e-3
        ).gen
        then_push = pushforward_generator(
            heis_cd, phi, transport(heis_cd, gen, curve, step=1e-3).gen
        )
        assert np.max(np.abs(push_then.X - then_push.X)) < 1e-6
        assert np.max(np.abs(push_then.A - then_push.A)) < 1e-6
        assert abs(push_then.c - then_push.c) < 1e-6


class TestFiles:
    def test_curve_file(self, heis):
        text = """
# a parabola
[curve]
t_range = 0 1
gamma = t, t^2, 0
"""
        curve = load_curve_text(text, heis)
        assert np.allclose(curve.point_at(1.0), [1, 1, 0])

    def test_generator_file(self, heis):
        text = """
[generator]
X = 0 0
A = 0.5
c = 1.5
at = 0, 0, 0
"""
        gen = load_generator_text(text, heis)
        assert np.allclose(gen.A, [[0, -0.5], [0.5, 0]])
        assert gen.c == 1.5

    def test_generator_bad_triangle(self, heis):
        text = """
[generator]
X = 0 0
A = 0.5; 0.2
c = 0
at = 0, 0, 0
"""
        with pytest.raises(StructureError):
            load_generator_text(text, heis)


class TestCheckFailures:
    def test_hierarchy(self):
        assert issubclass(CheckFailure, ValueError)
        assert issubclass(NotSpecialError, CheckFailure)

    def test_non_horizontal_curve(self, heis_cd):
        gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
        with pytest.raises(CheckFailure, match="not horizontal"):
            transport(heis_cd, gen, tcurve(["0", "0", "t"]), require_horizontal=True)

    def test_generator_outside_i_q0(self):
        # a rotation in the x1, y2 plane of heisenberg:2 is not in u(2)
        cd = curvature(compute_connection(load_structure("heisenberg:2")))
        A = np.zeros((4, 4))
        A[3, 0], A[0, 3] = 1.0, -1.0
        gen = Generator(X=np.zeros(4), A=A, c=0.0, q=np.zeros(5))
        grid = Grid(names=["x1", "y1", "x2", "y2", "z"], axes=[np.linspace(-1, 1, 3)] * 5)
        with pytest.raises(CheckFailure, match="not in the computed"):
            reconstruct_field(cd, gen, grid)


@pytest.mark.parametrize(
    "name", ["verify_killing", "riemannian_extension_check", "a_z_matrix", "special"]
)
def test_repeated_checks_compile_no_new_tape(su2c_cd, name):
    s = su2c_cd.structure
    Z = field(SU2C_KILLING["Y1"])
    call = {
        "verify_killing": lambda: verify_killing(su2c_cd, Z),
        "riemannian_extension_check": lambda: riemannian_extension_check(su2c_cd, Z),
        "a_z_matrix": lambda: a_z_matrix(su2c_cd.connection, Z, ORIGIN),
        "special": lambda: (check_special(s), structure_checks(s, s.validation_points())),
    }[name]
    call()
    before = len(s._compiled)
    for _ in range(4):
        call()
    assert len(s._compiled) == before
