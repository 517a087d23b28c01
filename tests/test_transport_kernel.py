"""The batched RK4 kernel against the serial per-curve loop it replaced.

The kernel forms each step's propagator before applying it, so it sums in
another order than the serial loop; the two agree to within 1e-12.
"""

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling import killing
from srkilling.frame import ContactStructure
from srkilling.killing import (
    Curve,
    Generator,
    Grid,
    a_z_matrix,
    reconstruct_field,
    segment_curve,
    transport,
)

from conftest import SU2C_KILLING, field
from rk4_reference import serial_reconstruct, serial_transport

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


@pytest.mark.parametrize("block", [killing.STAGE_BLOCK, 64])
def test_block_bounds_stage_points_per_call(heis_cd, monkeypatch, block):
    calls = {"eval_scalar": [], "basis_matrix_at": []}
    for name in calls:
        original = getattr(ContactStructure, name)

        def counted(self, *args, _original=original, _log=calls[name]):
            _log.append(np.atleast_2d(args[-1]).shape[0])  # points come last
            return _original(self, *args)

        monkeypatch.setattr(ContactStructure, name, counted)
    monkeypatch.setattr(killing, "STAGE_BLOCK", block)

    rng = np.random.default_rng(8)
    starts = rng.uniform(-1, 1, (125, 3))
    ends = rng.uniform(-1, 1, (125, 3))
    y = np.stack([killing._pack_state(random_gen(rng, p)) for p in starts])
    y_end, _ = killing._segment_transport(heis_cd, y, starts, ends, 40)
    assert max(calls["eval_scalar"] + calls["basis_matrix_at"]) <= block
    # one frame evaluation per block covers every stage point of every curve
    assert sum(calls["basis_matrix_at"]) >= 125 * (2 * 40 + 1)
    monkeypatch.undo()
    whole, _ = killing._segment_transport(heis_cd, y, starts, ends, 40)
    assert np.max(np.abs(y_end - whole)) < TOL
