"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured figure.  Tolerances are fixed here and only here."""

import time
from fractions import Fraction

import numpy as np

from srkilling import expr as ex
from srkilling.connection import (
    compute_connection,
    curvature,
    eval_tensor,
    verify_geometry,
)
from srkilling.frame import load_structure, sample_box_points
from srkilling.killing import (
    Curve,
    Generator,
    Grid,
    a_z_matrix,
    ambient_dimension,
    derivation_apply,
    generator_space,
    path_independence,
    reconstruct_field,
    riemannian_extension_check,
    scan_regularity,
    transport,
    verify_killing,
    verify_killing_field,
)

from conftest import (
    HEIS_KILLING,
    SU2C_KILLING,
    field,
    finite_difference,
    random_expression,
)
from eval_reference import evaluate

XYZ = ["x", "y", "z"]
ORIGIN = np.zeros(3)


def tcurve(texts, t0=0.0, t1=1.0):
    return Curve([ex.parse_expression(t, ["t"]) for t in texts], t0, t1)


def report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_heisenberg_flatness():
    t0 = time.monotonic()
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    # identically zero as expressions
    assert all(str(c) == "0" for c in cd.R.components.ravel())
    pts = sample_box_points(3, 100, seed=0)
    Rv = eval_tensor(s, cd.R, pts)
    residual = float(np.max(np.abs(Rv)))
    elapsed = time.monotonic() - t0
    assert residual < 1e-12
    assert elapsed < 5.0
    report("1 heisenberg flatness", f"residual={residual:.1e}, {elapsed:.2f}s")


def test_criterion_02_heisenberg_isometry_dimension():
    t0 = time.monotonic()
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    gs = generator_space(cd, ORIGIN)
    assert gs.dim == 4 == (s.n + 1) ** 2
    assert gs.certified and gs.m_used <= 2
    vecs = []
    for name in sorted(HEIS_KILLING):
        gen = a_z_matrix(cd.connection, field(HEIS_KILLING[name]), ORIGIN).gen
        res = gs.membership_residual(gen)
        assert res < 1e-8, (name, res)
        vecs.append(gen.as_vector())
    assert np.linalg.matrix_rank(np.stack(vecs), tol=1e-8) == 4
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(
        "2 heisenberg dim",
        f"dims={gs.dims}, four fields span the kernel, {elapsed:.2f}s",
    )


def test_criterion_03_su2_structure():
    s = load_structure("su2")
    cd = curvature(compute_connection(s))
    # exact rational curvature until the final evaluation
    assert cd.R.components[0, 1, 0, 1] == ex.const(-1)  # R(e1,e2)e1 = -e2
    assert cd.R.components[0, 1, 1, 0] == ex.ONE  # R(e1,e2)e2 = e1
    assert cd.R.components[0, 1, 0, 0] == ex.ZERO
    assert cd.R.components[0, 1, 1, 1] == ex.ZERO
    gs = generator_space(cd, None)
    assert gs.dim == 4

    # independent oracle: dense Gaussian-elimination rank of the map
    from srkilling.killing import _assemble_block, _tensor_value_cache

    cache = _tensor_value_cache(cd, gs.m_used, np.zeros((1, 0)))
    M = _assemble_block(cd, gs.m_used, cache)[0].copy()
    rank = 0
    for col in range(M.shape[1]):
        piv = next((r for r in range(rank, M.shape[0]) if abs(M[r, col]) > 1e-9), None)
        if piv is None:
            continue
        M[[rank, piv]] = M[[piv, rank]]
        M[rank] /= M[rank, col]
        for r in range(M.shape[0]):
            if r != rank:
                M[r] -= M[r, col] * M[rank]
        rank += 1
    assert ambient_dimension(s.n) - rank == gs.dim

    records = verify_geometry(cd, tol=1e-12)
    worst = max(r.max_residual for r in records)
    assert all(r.pass_ for r in records)
    report("3 su2 structure", f"dim={gs.dim}, exact R, geometry worst={worst:.1e}")


def test_criterion_04_geometry_identity_suite():
    worst_all = 0.0
    for name in ("heisenberg:1", "su2"):
        s = load_structure(name)
        cd = curvature(compute_connection(s))
        pts = (
            np.vstack([np.zeros((1, 3)), sample_box_points(3, 100, seed=0)])
            if s.coords
            else None
        )
        records = verify_geometry(cd, points=pts, tol=1e-10)
        for r in records:
            assert r.pass_, (name, r.check, r.max_residual)
            worst_all = max(worst_all, r.max_residual)
    # fault injection: corrupted Gamma^1_11 must FAIL with residual >= 0.1
    s = load_structure("su2")
    cd = curvature(compute_connection(s))
    cd.connection.gamma_h[0][0][0] = ex.add(cd.connection.gamma_h[0][0][0], ex.ONE)
    bad = {r.check: r for r in verify_geometry(cd, tol=1e-10)}
    assert not bad["metricity"].pass_
    assert bad["metricity"].max_residual >= 1e-1
    report(
        "4 geometry identities",
        f"worst={worst_all:.1e} over both builtins; fault injection detected",
    )


def test_criterion_05_transport_correctness():
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    gen = Generator(X=[1, 0], A=np.zeros((2, 2)), c=0.0, q=ORIGIN)
    res = transport(cd, gen, tcurve(["0", "t", "0"]), step=1e-3)
    err = max(
        float(np.max(np.abs(res.gen.X - [1.0, 0.0]))),
        float(np.max(np.abs(res.gen.A))),
        abs(res.gen.c - (-1.0)),
    )
    assert err < 1e-8
    for c0 in (0.0, 1.0):
        g = Generator(X=[0, 0], A=np.zeros((2, 2)), c=c0, q=ORIGIN)
        r = transport(cd, g, tcurve(["0", "t", "0"]), step=1e-3)
        assert np.max(np.abs(r.gen.X)) == 0.0
        assert np.max(np.abs(r.gen.A)) == 0.0
        assert r.gen.c == c0
    report("5 transport", f"Y1 endpoint error={err:.1e}; trivial generators exact")


def test_criterion_06_path_independence():
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    rng = np.random.default_rng(0)
    worst_dev = 0.0
    worst_ratio = np.inf
    for trial in range(5):
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
        dev = path_independence(cd, gen, c1, c2, step=1e-3)["deviation"]
        assert dev < 1e-6, (trial, dev)
        worst_dev = max(worst_dev, dev)
        # convergence order measured where truncation dominates roundoff
        d1 = path_independence(cd, gen, c1, c2, step=0.1)["deviation"]
        d2 = path_independence(cd, gen, c1, c2, step=0.05)["deviation"]
        ratio = d1 / d2
        assert ratio >= 8.0, (trial, ratio)
        worst_ratio = min(worst_ratio, ratio)
    report(
        "6 path independence",
        f"max deviation={worst_dev:.1e} at h=1e-3; min halving ratio={worst_ratio:.1f}",
    )


def test_criterion_07_reconstruction():
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    J = field(HEIS_KILLING["J"])
    gen = a_z_matrix(cd.connection, J, ORIGIN).gen
    grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 5)] * 3)
    fieldv = reconstruct_field(cd, gen, grid, step=1e-3)
    pts = grid.points
    err = 0.0
    for p in range(pts.shape[0]):
        want = a_z_matrix(cd.connection, J, pts[p]).gen
        err = max(err, float(np.max(np.abs(fieldv.X[p] - want.X))))
        err = max(err, abs(fieldv.c[p] - want.c))
    assert err < 1e-6
    want_c = 0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert np.max(np.abs(fieldv.c - want_c)) < 1e-6
    records = verify_killing_field(cd, fieldv, tol=1e-4)
    for r in records:
        assert r.pass_, (r.check, r.max_residual)
    worst_eq = max(r.max_residual for r in records)
    report("7 reconstruction", f"field error={err:.1e}; eqs residual={worst_eq:.1e}")


def test_criterion_08_killing_suite():
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    pts = np.vstack([np.zeros((1, 3)), sample_box_points(3, 100, seed=0)])
    worst = 0.0
    for name in sorted(HEIS_KILLING):
        records = verify_killing(cd, field(HEIS_KILLING[name]), pts, tol=1e-9)
        assert len(records) == 6
        for r in records:
            assert r.pass_, (name, r.check, r.max_residual)
            worst = max(worst, r.max_residual)
    bad = {r.check: r for r in verify_killing(cd, field(["1", "0", "0"]), pts)}
    # not contact: alpha([dx, e_2]) = -1/2, read from lie_alpha (Cartan's formula)
    assert not bad["lie_alpha"].pass_ and bad["lie_alpha"].max_residual >= 0.1

    # the curvature identity for nabla A (check e) on the su2 builtin's
    # chart realization, same four-fields pattern
    sc = load_structure("su2:chart")
    cdc = curvature(compute_connection(sc))
    ptsc = sc.validation_points(count=40, seed=0)
    worst_c = 0.0
    for name in sorted(SU2C_KILLING):
        records = {r.check: r for r in verify_killing(cdc, field(SU2C_KILLING[name]), ptsc, tol=1e-9)}
        assert records["a_derivative_curvature"].pass_, name
        worst_c = max(worst_c, records["a_derivative_curvature"].max_residual)
    # and at the generator level on the lie-mode su2 builtin itself
    s2 = load_structure("su2")
    cd2 = curvature(compute_connection(s2))
    gs2 = generator_space(cd2, None)
    for g in gs2.basis:
        for which in ("R", "dalpha"):
            for i in range(2):
                assert np.max(np.abs(derivation_apply(cd2, g, which, i))) < 1e-9
    report(
        "8 killing suite",
        f"heis worst={worst:.1e}; dx lie_alpha={bad['lie_alpha'].max_residual:.2f}; "
        f"su2 analogues worst={worst_c:.1e}",
    )


def test_criterion_09_riemannian_extension():
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    pts = np.vstack([np.zeros((1, 3)), sample_box_points(3, 100, seed=0)])
    worst = 0.0
    for name in sorted(HEIS_KILLING):
        recs = riemannian_extension_check(cd, field(HEIS_KILLING[name]), pts, tol=1e-9)
        assert recs[0].pass_, (name, recs[0].max_residual)
        worst = max(worst, recs[0].max_residual)
    bad = riemannian_extension_check(cd, field(["1", "0", "0"]), pts)
    assert not bad[0].pass_
    report(
        "9 riemannian extension",
        f"four fields worst={worst:.1e}; dx residual={bad[0].max_residual:.2f}",
    )


def test_criterion_10_regularity_scan():
    t0 = time.monotonic()
    s = load_structure("heisenberg:1")
    cd = curvature(compute_connection(s))
    grid = Grid(names=XYZ, axes=[np.linspace(-1, 1, 5)] * 3)
    rep = scan_regularity(cd, grid)
    assert set(rep["dims"]) == {4}
    regular = np.array(rep["regular"]).reshape(5, 5, 5)
    assert regular.all()
    assert rep["semicontinuity_violations"] == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report("10 regularity scan", f"constant dim 4 on 5^3 grid, {elapsed:.2f}s")


def test_criterion_11_expression_layer():
    rng = np.random.default_rng(0)
    fd_checked = 0
    worst_fd = 0.0
    for _ in range(1000):
        e = random_expression(rng, XYZ)
        var = XYZ[rng.integers(3)]
        d = ex.differentiate(e, var)
        p = rng.uniform(-1, 1, 3)
        try:
            val = evaluate(d, dict(zip(XYZ, p)))
            fd = finite_difference(e, XYZ, var, p)
        except ex.EvalError:
            continue
        rel = abs(val - fd) / (1 + abs(val))
        assert rel < 1e-6, str(e)
        worst_fd = max(worst_fd, rel)
        fd_checked += 1
    assert fd_checked >= 800

    rt_checked = 0
    worst_rt = 0.0
    for _ in range(400):
        e = random_expression(rng, XYZ)
        back = ex.parse_expression(str(e), XYZ)
        p = dict(zip(XYZ, rng.uniform(-1, 1, 3)))
        try:
            a = evaluate(e, p)
            b = evaluate(back, p)
        except ex.EvalError:
            continue
        err = abs(a - b) / (1 + abs(a))
        assert err < 1e-14
        worst_rt = max(worst_rt, err)
        rt_checked += 1
    assert rt_checked >= 300
    report(
        "11 expression layer",
        f"{fd_checked} derivative checks worst={worst_fd:.1e}; "
        f"{rt_checked} roundtrips worst={worst_rt:.1e}",
    )
