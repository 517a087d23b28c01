"""The batched RK4 kernel against the serial per-curve loop it replaced,
against closed-form Killing fields, and its operator against the dense
einsum operator.

A narrow batch forms each step's propagator and one product per group of
steps before applying it, and a wide one carries its states through the
RK4 stages against the stage operators; each sums in another order than the
serial loop, and both agree with it to within 1e-12.  Given the frame
components v of the velocities, which Cramer's rule on the tape gives to
within rounding of np.linalg.solve, the operator M is bit for bit the dense
one, and how the kernel cuts its stage points into blocks changes no bit of
the result.
"""

import tracemalloc

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling import killing
from srkilling.connection import (
    ConnectionData,
    CurvatureData,
    HTensor,
    compute_connection,
    curvature,
)
from srkilling.frame import load_structure
from srkilling.killing import (
    Curve,
    Generator,
    Grid,
    a_z_matrix,
    reconstruct_field,
    segment_curve,
    transport,
)

from conftest import SU2C_KILLING, field, traced_peak
from rk4_reference import dense_operator, serial_reconstruct, serial_transport

TOL = 1e-12
XYZ = ["x", "y", "z"]


def tcurve(texts, t0=0.0, t1=1.0):
    return Curve([ex.parse_expression(t, ["t"]) for t in texts], t0, t1)


def random_gen(rng, q):
    a = rng.uniform(-1, 1)
    return Generator(
        X=rng.uniform(-1, 1, 2), A=np.array([[0, -a], [a, 0]]), c=rng.uniform(-1, 1), q=q
    )


def assert_same_generator(got, want):
    assert np.max(np.abs(got.X - want.X)) < TOL
    assert np.max(np.abs(got.A - want.A)) < TOL
    assert abs(got.c - want.c) < TOL


@pytest.mark.parametrize(
    "structure, texts",
    [
        ("heis_cd", ["t", "t^2", "t*(1-t)"]),
        ("su2c_cd", ["t/2", "t^2/3", "t*(1-t)*sin(2*t)"]),
    ],
)
def test_single_curve_matches_serial_loop(request, structure, texts):
    cd = request.getfixturevalue(structure)
    gen = random_gen(np.random.default_rng(5), np.zeros(3))
    if structure == "su2c_cd":  # a Killing generator keeps the curvature term active
        gen = a_z_matrix(cd.connection, field(SU2C_KILLING["Y3"]), np.zeros(3)).gen
    curve = tcurve(texts, 0.0, 1.25)
    res = transport(cd, gen, curve, step=1e-3)
    want, drift, steps = serial_transport(cd, gen, curve, 1e-3)
    assert res.steps == steps == 1250
    assert_same_generator(res.gen, want)
    assert np.array_equal(res.gen.q, want.q)
    assert abs(res.skew_drift - drift) < TOL


def test_segment_batch_matches_serial_loop(su2c_cd):
    rng = np.random.default_rng(6)
    starts = rng.uniform(-0.5, 0.5, (6, 3))
    ends = rng.uniform(-0.5, 0.5, (6, 3))
    gens = [random_gen(rng, p) for p in starts]
    y = np.stack([killing._pack_state(g) for g in gens])
    y_end, q_end = killing._segment_transport(su2c_cd, y, starts, ends, 200)
    for b, g in enumerate(gens):
        curve = segment_curve(starts[b], ends[b])
        want = serial_transport(su2c_cd, g, curve, 1 / 200)[0]
        assert np.array_equal(q_end[b], want.q)
        got = Generator(X=y_end[b, :2], A=y_end[b, 2:-1].reshape(2, 2), c=y_end[b, -1], q=None)
        assert_same_generator(got, want)


@pytest.mark.parametrize(
    "structure, q0",
    [
        ("heis_cd", [0.0, 0.0, 0.0]),  # a grid point: skipped legs on both sides
        ("heis_cd", [0.25, -0.125, 0.375]),
        ("su2c_cd", [0.125, 0.0, -0.25]),
    ],
)
def test_reconstruct_matches_serial_loop(request, structure, q0):
    cd = request.getfixturevalue(structure)
    q0 = np.array(q0)
    if structure == "heis_cd":
        gen = random_gen(np.random.default_rng(7), q0)
    else:
        gen = a_z_matrix(cd.connection, field(SU2C_KILLING["Y1"]), q0).gen
    grid = Grid(names=XYZ, axes=[np.linspace(-0.5, 0.5, 3)] * 3)
    fieldv = reconstruct_field(cd, gen, grid, step=1e-2)
    X, A, c = serial_reconstruct(cd, gen, grid, 1e-2)
    assert np.max(np.abs(fieldv.X - X)) < TOL
    assert np.max(np.abs(fieldv.A - A)) < TOL
    assert np.max(np.abs(fieldv.c - c)) < TOL


def spy_operator(monkeypatch):
    """The stage points (S, dim) of each _operator call, in order."""
    calls = []
    original = killing._operator

    def spied(cd, pts, vel, *args, **kwargs):
        calls.append(np.array(pts))
        return original(cd, pts, vel, *args, **kwargs)

    monkeypatch.setattr(killing, "_operator", spied)
    return calls


@pytest.mark.parametrize("block", [killing.STAGE_BLOCK, 64])
def test_block_bounds_stage_points_per_call(heis_cd, monkeypatch, block):
    calls = spy_operator(monkeypatch)
    monkeypatch.setattr(killing, "STAGE_BLOCK", block)

    rng = np.random.default_rng(8)
    starts = rng.uniform(-1, 1, (125, 3))
    ends = rng.uniform(-1, 1, (125, 3))
    y = np.stack([killing._pack_state(random_gen(rng, p)) for p in starts])
    y_end, _ = killing._segment_transport(heis_cd, y, starts, ends, 40)
    assert max(map(len, calls)) <= block
    # one evaluation per block covers every stage point of every curve
    assert sum(map(len, calls)) >= 125 * (2 * 40 + 1)
    monkeypatch.undo()
    whole, _ = killing._segment_transport(heis_cd, y, starts, ends, 40)
    assert np.array_equal(y_end, whole)


def segment_blocks(calls, starts, ends, nsteps):
    """(curves, first stage, last stage) of each block: each stage point is
    matched to the segment it lies on and to its stage index."""
    dp = ends - starts
    blocks = []
    for pts in calls:
        tb = (pts[:, None, :] - starts[None]) / dp[None]  # (S, B, dim): t of each coordinate
        curve = np.argmin(np.ptp(tb, axis=2), axis=1)
        stage = np.rint(tb[np.arange(len(pts)), curve, 0] * 2 * nsteps).astype(int)
        blocks.append((frozenset(curve.tolist()), stage.min(), stage.max()))
    return blocks


@pytest.mark.parametrize("nb", [1, 5, 125])
def test_tiling_changes_no_bit(su2c_cd, monkeypatch, nb):
    y, starts, ends = segment_batch(su2c_cd, nb, seed=13)
    ends_of = {}
    for block in (64, killing.STAGE_BLOCK, 4096):
        monkeypatch.setattr(killing, "STAGE_BLOCK", block)
        ends_of[block] = killing._segment_transport(su2c_cd, y, starts, ends, 300)[0]
    assert np.array_equal(ends_of[64], ends_of[killing.STAGE_BLOCK])
    assert np.array_equal(ends_of[4096], ends_of[killing.STAGE_BLOCK])


def test_every_block_of_a_pass_advances_block_steps(heis_cd, monkeypatch):
    # 14 curves are a narrow batch, which a 128-point block takes in
    # balanced passes: each block but the last of its pass advances whole
    # groups of GROUP_STEPS steps; every curve is in one pass, whose blocks
    # run in order over all stages
    calls = spy_operator(monkeypatch)
    monkeypatch.setattr(killing, "STAGE_BLOCK", 128)
    nsteps = 200
    y, starts, ends = segment_batch(heis_cd, 14, seed=14)
    assert not killing._stage_form(14, y.shape[1])
    killing._segment_transport(heis_cd, y, starts, ends, nsteps)
    passes = {}
    for curves, first, last in segment_blocks(calls, starts, ends, nsteps):
        passes.setdefault(curves, []).append((first, last))
    assert sorted(c for curves in passes for c in curves) == list(range(14))
    widths = sorted(len(curves) for curves in passes)
    assert widths[-1] - widths[0] <= 1 and len(passes) > 1
    for blocks in passes.values():
        assert blocks[0][0] == 0 and blocks[-1][1] == 2 * nsteps
        for (_, last), (first, _) in zip(blocks, blocks[1:]):
            assert first == last + 1  # the last stage's M is carried over
        for first, last in blocks[:-1]:
            advanced = last // 2 - first // 2
            assert advanced >= killing.GROUP_STEPS and advanced % killing.GROUP_STEPS == 0


@pytest.fixture(scope="module")
def heis3_cd():
    return curvature(compute_connection(load_structure("heisenberg:3")))


def segment_batch(cd, nb, seed):
    rng = np.random.default_rng(seed)
    dim, h = cd.structure.dim, cd.structure.h
    starts = rng.uniform(-0.5, 0.5, (nb, dim))
    ends = rng.uniform(-0.5, 0.5, (nb, dim))
    return rng.standard_normal((nb, h + h * h + 1)), starts, ends


def test_operator_float_cap_changes_no_bit(heis3_cd, monkeypatch):
    # d = 43: the 2^17-float cap holds a block to 70 stage points, below
    # STAGE_BLOCK, which three curves fill to 3 x 23; they take several
    # blocks either way
    calls = spy_operator(monkeypatch)
    y, starts, ends = segment_batch(heis3_cd, 3, seed=11)
    capped, _ = killing._segment_transport(heis3_cd, y, starts, ends, 400)
    assert killing.OPERATOR_FLOATS // 43**2 == 70
    assert max(map(len, calls)) == 69
    calls.clear()
    monkeypatch.setattr(killing, "OPERATOR_FLOATS", 2**40)
    whole, _ = killing._segment_transport(heis3_cd, y, starts, ends, 400)
    assert 70 < max(map(len, calls)) <= killing.STAGE_BLOCK and len(calls) > 1
    assert np.array_equal(capped, whole)


def test_kernel_memory_is_bounded(heis3_cd):
    # one curve of 1000 steps at d = 43: M and the step arrays hold at most
    # 2 x 2^17 floats (2 MiB), whatever the step count
    y, starts, ends = segment_batch(heis3_cd, 1, seed=12)
    killing._segment_transport(heis3_cd, y, starts, ends, 1)  # compile the tapes
    tracemalloc.start()
    try:
        killing._segment_transport(heis3_cd, y, starts, ends, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_transport_memory_on_heisenberg(heis_cd):
    # the benchmark's shapes: a 5^3 reconstruction at step 1e-3 and one
    # curve of 10^4 steps each stay under 1.5 MiB of working memory
    gen = random_gen(np.random.default_rng(15), np.array([0.125, -0.25, 0.375]))
    axes = [np.linspace(-0.5, 0.5, 5), np.linspace(-0.25, 0.75, 5), np.linspace(-0.75, 0.25, 5)]
    grid = Grid(names=XYZ, axes=axes)
    reconstruct_field(heis_cd, gen, grid, step=1e-3)  # compile the tapes, build the tower
    _, peak = traced_peak(lambda: reconstruct_field(heis_cd, gen, grid, step=1e-3))
    assert peak < 1.5 * 2**20
    curve = tcurve(["1/8 + t/3", "-1/4 + t^2/5", "3/8 + t*(1-t)"])
    transport(heis_cd, gen, curve, step=1e-4)
    _, peak = traced_peak(lambda: transport(heis_cd, gen, curve, step=1e-4))
    assert peak < 1.5 * 2**20


# ---------------------------------------------------------------------------
# The two forms of the kernel: RK4 stages for wide batches, grouped steps for
# narrow ones.
# ---------------------------------------------------------------------------


@pytest.fixture(params=[True, False], ids=["stages", "grouped"])
def form(request, monkeypatch):
    """Every batch runs in the form of the parameter."""
    monkeypatch.setattr(killing, "_stage_form", lambda nb, d: request.param)
    return request.param


def heisenberg_generator(a, b, k, r, q):
    """The state (X, A row-major, c) at q of the Heisenberg Killing field
    a (d/dx + y/2 d/dz) + b (d/dy - x/2 d/dz) + k d/dz + r (-y d/dx + x d/dy),
    in closed form (the oracle of perfbench/workloads.py)."""
    x, y = q[0], q[1]
    c = -a * y + b * x + r * (x * x + y * y) / 2 - k
    return np.array([a - r * y, b + r * x, 0.0, r, -r, 0.0, c])


def test_heisenberg_killing_fields_match_the_closed_form(heis_cd, form):
    rng = np.random.default_rng(18)
    coeffs = rng.uniform(-1, 1, (30, 4))
    starts = rng.uniform(-1, 1, (30, 3))
    ends = rng.uniform(-1, 1, (30, 3))
    y = np.stack([heisenberg_generator(*c, q) for c, q in zip(coeffs, starts)])
    y_end, q_end = killing._segment_transport(heis_cd, y, starts, ends, 100)
    want = np.stack([heisenberg_generator(*c, q) for c, q in zip(coeffs, q_end)])
    assert np.max(np.abs(y_end - want)) < TOL
    curve = tcurve(["1/8 + t/3", "-1/4 + t^2/5", "3/8 + t*(1-t)"])
    q0, q1 = curve.point_at(0.0), curve.point_at(1.0)
    state = heisenberg_generator(*coeffs[0], q0)
    gen = Generator(X=state[:2], A=state[2:6].reshape(2, 2), c=state[-1], q=q0)
    got = killing._pack_state(transport(heis_cd, gen, curve, step=1e-3).gen)
    assert np.max(np.abs(got - heisenberg_generator(*coeffs[0], q1))) < TOL


@pytest.mark.parametrize("name", ["Y1", "Y2", "Y3"])
def test_su2_killing_fields_match_serial_loop(su2c_cd, form, name):
    gen = a_z_matrix(su2c_cd.connection, field(SU2C_KILLING[name]), np.zeros(3)).gen
    curve = tcurve(["t/2", "t^2/3", "t*(1-t)*sin(2*t)"], 0.0, 1.25)
    res = transport(su2c_cd, gen, curve, step=1e-3)
    want, drift, _ = serial_transport(su2c_cd, gen, curve, 1e-3)
    assert_same_generator(res.gen, want)
    assert abs(res.skew_drift - drift) < TOL


@pytest.mark.parametrize("structure, nb", [("heis_cd", 5), ("su2c_cd", 30), ("heis3_cd", 2)])
def test_both_forms_agree(request, monkeypatch, structure, nb):
    # 100 steps: six whole groups and a short one
    cd = request.getfixturevalue(structure)
    y, starts, ends = segment_batch(cd, nb, seed=17)
    end = {}
    for wide in (True, False):
        monkeypatch.setattr(killing, "_stage_form", lambda n, d: wide)
        end[wide] = killing._segment_transport(cd, y, starts, ends, 100)[0]
    assert np.max(np.abs(end[True] - end[False])) <= 1e-13 * np.max(np.abs(end[True]))


def test_long_curve_updates_its_state_once_a_group(heis_cd, monkeypatch):
    # 10^4 steps of one curve: one product E y per group of GROUP_STEPS steps
    groups = []
    increments = killing._step_increments

    def spied(*args):
        E = increments(*args)
        groups.append(len(E))
        return E

    monkeypatch.setattr(killing, "_step_increments", spied)
    gen = random_gen(np.random.default_rng(19), np.array([0.125, -0.25, 0.375]))
    transport(heis_cd, gen, tcurve(["1/8 + t/3", "-1/4 + t^2/5", "3/8 + t*(1-t)"]), step=1e-4)
    assert sum(groups) == -(-(10**4) // killing.GROUP_STEPS)


def test_wide_batch_runs_by_stages(heis_cd, monkeypatch):
    # the 124 curves of the second leg of a 5^3 reconstruction: every step
    # goes through the stages, and no step's propagator is formed
    steps = []
    stage_steps = killing._stage_steps

    def spied(M, ycol, buf, hstep):
        steps.append((len(ycol), len(M) // 2))
        stage_steps(M, ycol, buf, hstep)

    monkeypatch.setattr(killing, "_stage_steps", spied)
    monkeypatch.setattr(killing, "_step_increments", None)
    y, starts, ends = segment_batch(heis_cd, 124, seed=16)
    killing._segment_transport(heis_cd, y, starts, ends, 1000)
    assert {nb for nb, _ in steps} == {124}
    assert sum(k for _, k in steps) == 1000


# ---------------------------------------------------------------------------
# The sparse operator against the dense einsum operator it replaced.
# ---------------------------------------------------------------------------


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_solves(v, v_solve):
    # Cramer's rule against LU: equal to within rounding, relative to the
    # largest component at each point
    assert v.shape == v_solve.shape
    scale = np.abs(v_solve).max(axis=1, keepdims=True)
    assert np.all(np.abs(v - v_solve) <= 1e-13 * scale)


@pytest.mark.parametrize("name", ["heisenberg:1", "heisenberg:2", "su2:chart"])
def test_operator_is_bitwise_the_dense_operator(name):
    cd = curvature(compute_connection(load_structure(name)))
    rng = np.random.default_rng(9)
    dim = cd.structure.dim
    for npts in (2, 37):
        pts = rng.uniform(-1, 1, (npts, dim))
        vel = rng.uniform(-1, 1, (npts, dim))
        vel[::3, 0] = 0.0  # zero and negative-zero velocity components
        vel[1::3, -1] = -0.0
        M, v = killing._operator(cd, pts, vel)
        M_ref, v_solve = dense_operator(cd, pts, vel, v)
        assert_bitwise(M, M_ref)
        assert_solves(v, v_solve)


class TableStructure:
    """A stand-in structure whose coefficient "expressions" are names of
    fixed value rows: every entry of Gamma, R and dalpha is stored, so each
    sum of the operator has all h of its terms.  The basis columns e_1..e_h,
    xi are names of rows too, read from basis (npts, h + 1, h + 1), and so
    are its cofactors and determinant, computed from basis by np.linalg.det."""

    def __init__(self, h, values, basis):
        self.h, self.dim, self.values, self.basis = h, h + 1, values, basis
        cols = [[f"e{a},{i}" for i in range(h + 1)] for a in range(h + 1)]
        self.frame, self.reeb = cols[:h], cols[h]
        for a, col in enumerate(cols):
            for i, name in enumerate(col):
                values[name] = basis[:, i, a]

    def eval_table(self, exprs, pts):
        table = np.array(exprs, dtype=object)
        rows = np.array([self.values[e] for e in table.ravel()])
        return rows.reshape(table.shape + (len(pts),))

    def evaluator(self, exprs):
        def values(pts, out):
            out[...] = self.eval_table(exprs, pts).reshape(out.shape)
            return out

        return values

    def basis_matrix_at(self, pts):
        return self.basis

    def basis_cofactors(self):
        cof = [[f"C{i},{k}" for i in range(self.dim)] for k in range(self.dim)]
        for i in range(self.dim):
            for k in range(self.dim):
                minor = np.delete(np.delete(self.basis, i, axis=1), k, axis=2)
                self.values[cof[k][i]] = (-1) ** (i + k) * np.linalg.det(minor)
        self.values["det"] = np.linalg.det(self.basis)
        return cof, "det"


def table_data(h, npts, seed, basis=None):
    rng = np.random.default_rng(seed)

    def names(prefix, rank):
        return np.array(
            [f"{prefix}{idx}" for idx in np.ndindex(*(h,) * rank)], dtype=object
        ).reshape((h,) * rank)

    gh, g0, R, B = names("gh", 3), names("g0", 2), names("R", 4), names("B", 2)
    values = {}
    for e in [*gh.ravel(), *g0.ravel(), *R.ravel(), *B.ravel()]:
        # magnitudes over 16 decades, so the order of a sum shows in its bits
        row = rng.standard_normal(npts) * 10.0 ** rng.integers(-8, 8, npts)
        row[rng.random(npts) < 0.2] = 0.0
        row[rng.random(npts) < 0.2] = -0.0
        values[e] = row
    if basis is None:
        basis = np.linalg.qr(rng.standard_normal((npts, h + 1, h + 1)))[0]
    s = TableStructure(h, values, basis)
    conn = ConnectionData(s, gh.tolist(), g0.tolist())
    cd = CurvatureData(conn, HTensor.from_dense(R, 1), HTensor.from_dense(B, 0))
    vel = rng.standard_normal((npts, h + 1)) * 10.0 ** rng.integers(-8, 8, (npts, h + 1))
    vel[rng.random((npts, h + 1)) < 0.2] = 0.0
    vel[rng.random((npts, h + 1)) < 0.2] = -0.0
    return cd, rng.uniform(-1, 1, (npts, h + 1)), vel


@pytest.mark.parametrize("h", [2, 4, 6])
def test_operator_sums_in_the_dense_order(h):
    # every coefficient stored and nonzero at most points: the sums over
    # a and b run over all h terms, which for h >= 4 fixes their order; with
    # a diagonal frame of signs, v is +-vel and its zeros take the sign of
    # det, so zeros of both signs reach M
    signs = np.where(np.random.default_rng(h).random((64, h + 1)) < 0.5, -1.0, 1.0)
    diagonal = signs[:, :, None] * np.eye(h + 1)
    for npts, basis in ((2, None), (3, None), (64, None), (64, diagonal)):
        cd, pts, vel = table_data(h, npts, seed=h + npts, basis=basis)
        roots = 2 * (h + 1) ** 2 + 1 + h**3 + h**2 + h**4 + h**2  # basis, cofactors, det
        assert len(cd.transport_coefficients[1]) == roots
        M, v = killing._operator(cd, pts, vel)
        M_ref, v_solve = dense_operator(cd, pts, vel, v)
        assert_bitwise(M, M_ref)
        assert_solves(v, v_solve)
        if basis is not None:
            assert np.signbit(v[v == 0]).any() and np.signbit(-v[v == 0]).any()


def test_operator_refuses_what_it_cannot_evaluate(heis_cd):
    pts = np.zeros((3, 3))
    vel = np.ones((3, 3))
    pts[1, 2] = np.nan
    with pytest.raises(ex.EvalError, match="evaluable domain"):
        killing._operator(heis_cd, pts, vel)
    cd, pts, vel = table_data(2, 4, seed=1, basis=np.zeros((4, 3, 3)))
    with pytest.raises(ex.EvalError, match="frame degenerates"):
        killing._operator(cd, pts, vel)
    cd, pts, vel = table_data(2, 4, seed=1)
    cd.structure.values["R(1, 0, 1, 1)"][2] = np.inf
    with pytest.raises(ex.EvalError, match="connection data is not finite"):
        killing._operator(cd, pts, vel)


def test_each_stage_point_is_evaluated_once(heis_cd, monkeypatch):
    calls = spy_operator(monkeypatch)
    monkeypatch.setattr(killing, "STAGE_BLOCK", 64)
    rng = np.random.default_rng(10)
    starts = rng.uniform(-1, 1, (5, 3))
    y = np.stack([killing._pack_state(random_gen(rng, p)) for p in starts])
    killing._segment_transport(heis_cd, y, starts, starts + 0.5, 40)
    assert len(calls) > 1  # several blocks per curve
    assert sum(map(len, calls)) == 5 * (2 * 40 + 1)


def test_transport_adds_no_tape_the_second_time(su2c_cd):
    s = su2c_cd.structure
    gen = a_z_matrix(su2c_cd.connection, field(SU2C_KILLING["Y1"]), np.zeros(3)).gen
    grid = Grid(names=XYZ, axes=[np.linspace(-0.25, 0.25, 3)] * 3)
    curve = tcurve(["t/2", "t^2/3", "t*(1-t)"])
    transport(su2c_cd, gen, curve, step=1e-2)
    reconstruct_field(su2c_cd, gen, grid, step=1e-1)
    before = len(s._compiled)
    transport(su2c_cd, gen, curve, step=1e-2)
    reconstruct_field(su2c_cd, gen, grid, step=1e-1)
    assert len(s._compiled) == before
