"""The finite-difference field check of reconstruct against exact fields.

Each field is built symbolically, (PZ, A_Z, alpha(Z)) from decompose,
a_z_field and alpha_of, and evaluated on a grid, so it shares no numeric
code with the transport operator M that verify_killing_field reads.
"""

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling import frame, killing
from srkilling.killing import DiscreteField, Grid, a_z_field, verify_killing_field

from conftest import HEIS_KILLING, SU2C_KILLING

XYZ = ["x", "y", "z"]
RECORDS = ["eqs_x_gradient", "eqs_a_curvature", "eqs_c_gradient"]


def exact_field(cd, texts, grid):
    s = cd.structure
    Z = [ex.parse_expression(t, s.coords) for t in texts]
    pts = grid.points
    zh, _ = s.decompose(Z)
    return DiscreteField(
        grid=grid,
        X=s.eval_scalar(zh, pts).T,
        c=s.eval_scalar(s.alpha_of(Z), pts),
        A=np.moveaxis(s.eval_scalar(a_z_field(cd.connection, Z), pts), -1, 0),
        Z_coords=s.eval_scalar(Z, pts).T,
    )


def cube(lo, hi, n):
    return Grid(names=XYZ, axes=[np.linspace(lo, hi, n)] * 3)


def residuals(cd, fieldv):
    records = verify_killing_field(cd, fieldv)
    assert [r.check for r in records] == RECORDS
    return {r.check: r for r in records}


@pytest.mark.parametrize("name", sorted(HEIS_KILLING))
def test_heisenberg_killing_fields_have_zero_residuals(heis_cd, name):
    recs = residuals(heis_cd, exact_field(heis_cd, HEIS_KILLING[name], cube(-1, 1, 5)))
    for r in recs.values():
        assert r.max_residual == 0.0 and r.pass_ and r.points_tested == 27


@pytest.mark.parametrize(
    "part,failing",
    [
        ("X", {"eqs_x_gradient", "eqs_c_gradient"}),
        ("A", {"eqs_x_gradient", "eqs_a_curvature"}),
        ("c", {"eqs_c_gradient"}),
    ],
)
def test_a_perturbation_fails_exactly_the_records_that_read_it(heis_cd, part, failing):
    # X enters the X rows by its derivatives and the c row by dalpha(X, e_a);
    # A enters the X rows by A e_a and the A rows by its derivatives; c
    # enters the c row only
    fieldv = exact_field(heis_cd, HEIS_KILLING["J"], cube(-1, 1, 5))
    centre = 62  # grid index (2, 2, 2)
    getattr(fieldv, part)[{"X": (centre, 0), "A": (centre, 0, 1), "c": centre}[part]] += 1e-3
    recs = residuals(heis_cd, fieldv)
    assert {name for name, r in recs.items() if not r.pass_} == failing
    for name, r in recs.items():
        if name in failing:
            assert r.max_residual == pytest.approx(1e-3, rel=1e-9)
        else:
            assert r.max_residual == 0.0


def test_su2_chart_residuals_converge_at_second_order(su2c_cd):
    # the check measures the O(spacing^2) error of its central differences
    worst = {
        n: residuals(su2c_cd, exact_field(su2c_cd, SU2C_KILLING["Y1"], cube(-0.25, 0.25, n)))
        for n in (5, 9, 17)
    }
    expected = {
        "eqs_x_gradient": (0.0307, 0.0102, 0.00268),
        "eqs_a_curvature": (0.0457, 0.0116, 0.00292),
    }
    for name, values in expected.items():
        got = [worst[n][name].max_residual for n in (5, 9, 17)]
        assert got == pytest.approx(values, rel=5e-3)
        for coarse, fine in zip(got, got[1:]):
            assert 2.9 < coarse / fine < 4.1


def test_blocks_leave_the_records_bitwise_unchanged(su2c_cd, monkeypatch):
    fieldv = exact_field(su2c_cd, SU2C_KILLING["Y2"], cube(-0.25, 0.25, 9))
    whole = [r.as_dict() for r in verify_killing_field(su2c_cd, fieldv)]
    d = 2 + 4 + 1  # transport state size for n = 1
    calls, buffers = [], []
    operator = killing._operator

    def spy(cd, pts, vel, out):
        calls.append(len(pts))
        buffers.append(out)
        return operator(cd, pts, vel, out=out)

    monkeypatch.setattr(frame, "BLOCK_ENTRIES", 3 * d * d)
    monkeypatch.setattr(killing, "_operator", spy)
    assert [r.as_dict() for r in verify_killing_field(su2c_cd, fieldv)] == whole
    # the 7^3 interior points, three a block, once for each frame direction
    assert max(calls) == 3 and sum(calls) == 2 * 7**3
    # both frame directions of a block write one operator buffer
    assert all(a is b for a, b in zip(buffers[0::2], buffers[1::2]))
    assert len({id(b) for b in buffers}) == len(calls) // 2
