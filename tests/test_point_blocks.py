"""Grid-wide checks over bounded blocks of points.

Every check over a point set evaluates it block by block (frame.point_blocks)
and folds its residuals with the exact, NaN-keeping max, and a tensor grid
makes each block's points from its axes.  Oracles: the working memory of a
check traced at two grid sizes, which must not grow with the points; the
records of a check with one or a few points a block, which must equal the
default blocks bit for bit; and the meshgrid the grid points replaced.
verify_geometry also has its own: the tensors it evaluates, the arrays
its workspace holds, its traced peak on a large grid, and the minor page
faults of a fresh process.
"""

import functools
import gc
import operator
import pathlib
import weakref

import numpy as np
import pytest

from srkilling import connection
from srkilling import expr as ex
from srkilling import frame
from srkilling.connection import compute_connection, curvature, verify_geometry
from srkilling.frame import Grid, check_special, load_structure, structure_checks
from srkilling.killing import riemannian_extension_check, scan_regularity, verify_killing

from conftest import HEIS_KILLING, SU2C_KILLING, field, fresh_rusage, traced_peak

WARPED = str(pathlib.Path(__file__).resolve().parent / "data" / "warped_heisenberg3.toml")


def grid(s, count, lo=-1.0, hi=1.0):
    return Grid(list(s.coords), [np.linspace(lo, hi, count)] * s.dim)


@functools.cache
def curvature_data(source):
    return curvature(compute_connection(load_structure(source)))


def checks(killing_fields, scan_order):
    """name -> call(cd, points) of every check that runs over a point set."""
    return {
        "verify_geometry": lambda cd, pts: verify_geometry(cd, pts),
        "check_special": lambda cd, pts: check_special(cd.structure, pts),
        "structure_checks": lambda cd, pts: structure_checks(cd.structure, pts),
        "verify_killing": lambda cd, pts: verify_killing(cd, field(killing_fields["Y1"]), pts),
        "riemannian_extension_check": lambda cd, pts: riemannian_extension_check(
            cd, field(killing_fields["Y1"]), pts
        ),
        "scan_regularity": lambda cd, pts: scan_regularity(cd, pts, order=scan_order),
    }


# heisenberg:1 scans at order 0, so that 48^3 points take about a second
HEIS_CHECKS = checks(HEIS_KILLING, 0)
SU2C_CHECKS = checks(SU2C_KILLING, "auto")


@pytest.mark.parametrize("name", HEIS_CHECKS)
def test_working_memory_does_not_grow_with_the_points(request, name):
    """16^3 and 48^3 points: 27 times the points, less than twice the
    memory.  Before the blocks, verify_geometry traced 3.5 MB at 16^3 and
    28 MB at 32^3.  heisenberg:1's special residuals are literal zeros,
    read without any point, so check_special runs on su2:chart."""
    cd = request.getfixturevalue("su2c_cd" if name == "check_special" else "heis_cd")
    call = HEIS_CHECKS[name]
    call(cd, grid(cd.structure, 3))  # extends the tower and compiles the cached tapes
    _, small = traced_peak(lambda: call(cd, grid(cd.structure, 16)))
    _, large = traced_peak(lambda: call(cd, grid(cd.structure, 48)))
    assert large < 2 * small, (small, large)


def bits(result):
    """The result with every float written exactly, -0.0 and NaN included."""
    if isinstance(result, dict):
        return repr(sorted(result.items()))
    return repr([r.as_dict() for r in result])


# verify_geometry on two more structures, (structure, points an axis):
# warped_heisenberg3 stores R, nabla R and nabla dalpha, and its
# dalpha_bianchi residual is not 0, so a sum formed in another order would
# show; heisenberg:2 stores none of them
MORE_BLOCK_CASES = {
    "verify_geometry@warped_heisenberg3": (WARPED, 2),
    "verify_geometry@heisenberg:2": ("heisenberg:2", 3),
}


@pytest.mark.parametrize("entries", [1, 3 * frame.POINT_ENTRIES])
@pytest.mark.parametrize("name", [*SU2C_CHECKS, *MORE_BLOCK_CASES])
def test_results_do_not_depend_on_the_blocks(su2c_cd, monkeypatch, name, entries):
    """su2:chart has nonzero rounding residuals, so a fold that lost or
    misplaced a block would show; 1 entry gives one point a block, three
    points' worth gives blocks of 3 to the cheap checks."""
    source, count = MORE_BLOCK_CASES.get(name, ("su2:chart", 4))
    cd = su2c_cd if source == "su2:chart" else curvature_data(source)
    call = SU2C_CHECKS[name.split("@")[0]]
    pts = grid(cd.structure, count, -0.9, 1.1)
    base = call(cd, pts)
    as_array = call(cd, pts.points) if name != "scan_regularity" else base
    monkeypatch.setattr(frame, "BLOCK_ENTRIES", entries)
    assert bits(call(cd, pts)) == bits(base) == bits(as_array)


def test_in_place_sums_are_the_allocating_sums():
    """verify_geometry's sums, formed in its workspace, give the residuals
    of the sums (T + T1) + T2 and R + R^T on fresh arrays, bit for bit, on
    the structure above whose dalpha_bianchi residual is not 0."""
    cd = curvature_data(WARPED)
    s = cd.structure
    pts = s.validation_points(count=100)
    got = {r.check: r.max_residual for r in verify_geometry(cd, pts)}

    def cyclic(T):
        v = connection.eval_tensor(s, T, pts)
        rest = tuple(range(3, v.ndim))
        return v + np.transpose(v, (1, 2, 0) + rest) + np.transpose(v, (2, 0, 1) + rest)

    Rv = connection.eval_tensor(s, cd.R, pts)
    want = {
        "bianchi_first": cyclic(cd.R),
        "bianchi_second": cyclic(cd.nabla_R[1]),
        "curvature_skew": Rv + np.transpose(Rv, (0, 1, 3, 2, 4)),
        "dalpha_bianchi": cyclic(cd.nabla_dalpha[1]),
    }
    assert {k: got[k] for k in want} == {k: float(np.max(np.abs(v))) for k, v in want.items()}
    assert got["dalpha_bianchi"] > 0.0


@pytest.mark.parametrize(
    "source", ["heisenberg:1", "heisenberg:2", "su2", pytest.param(WARPED, id="warped_heisenberg3")]
)
def test_verify_geometry_evaluates_only_the_tensors_that_store_something(monkeypatch, source):
    """An identity over a tensor that stores nothing is the exact 0.0, read
    without any point: heisenberg:1 and heisenberg:2 store none of R,
    nabla R and nabla dalpha, su2 only R, warped_heisenberg3 all three.
    Each stored tensor is evaluated once a block, R for both of its
    identities."""
    cd = curvature_data(source)
    verify_geometry(cd)  # extends the tower
    evaluated = []
    eval_tensor = connection.eval_tensor

    def counted(s, T, *args, **kwargs):
        evaluated.append(id(T))
        return eval_tensor(s, T, *args, **kwargs)

    monkeypatch.setattr(connection, "eval_tensor", counted)
    records = verify_geometry(cd)
    tensors = {
        "bianchi_first": cd.R,
        "curvature_skew": cd.R,
        "bianchi_second": cd.nabla_R[1],
        "dalpha_bianchi": cd.nabla_dalpha[1],
    }
    stored = [id(T) for T in (cd.R, cd.nabla_R[1], cd.nabla_dalpha[1]) if T.entries]
    blocks = len(list(frame.point_blocks(records[0].points_tested, cd.structure.h**5)))
    assert evaluated == stored * blocks
    skipped = [r for r in records if r.check in tensors and not tensors[r.check].entries]
    assert all(r.max_residual == 0.0 for r in skipped)
    assert all(r.pass_ for r in records)


@pytest.mark.parametrize(
    "source,count,half_width,bound_mib",
    [("heisenberg:1", 41, 1.0, 1.0), ("su2:chart", 61, 0.5, 2.0), ("heisenberg:2", 9, 0.5, 0.5)],
)
def test_verify_geometry_works_in_one_workspace(source, count, half_width, bound_mib):
    """The traced working memory of verify_geometry on a large grid: one
    workspace for the largest block, and no evaluation of a tensor that
    stores nothing.  Before, every block made fresh zeros for R, nabla R
    and nabla dalpha and a fresh array for each sum and each |.|: 2.68,
    2.68 and 1.61 MiB."""
    cd = curvature_data(source)
    verify_geometry(cd, grid(cd.structure, 3))  # extends the tower and compiles the cached tapes
    pts = grid(cd.structure, count, -half_width, half_width)
    _, peak = traced_peak(lambda: verify_geometry(cd, pts))
    assert peak < bound_mib * 2**20, peak


def test_verify_geometry_forms_every_block_in_one_workspace(monkeypatch):
    """With blocks of 3 points, every cyclic sum of every block and the
    tensor it sums are views of one array, allocated once for the call,
    and the three sums of a block share one spare buffer."""
    cd = curvature_data(WARPED)
    verify_geometry(cd)  # extends the tower
    sums = []
    cyclic_sum = connection._cyclic_sum

    def recorded(T, *args):
        out = cyclic_sum(T, *args)
        sums.append((T, out))
        return out

    monkeypatch.setattr(connection, "_cyclic_sum", recorded)
    monkeypatch.setattr(frame, "BLOCK_ENTRIES", 3 * cd.structure.h**5)
    verify_geometry(cd, grid(cd.structure, 2))
    assert len(sums) == 3 * 43  # 128 points: 42 blocks of 3 and one of 2
    owners = {id(a.base) for pair in sums for a in pair}
    assert len(owners) == 1 and sums[0][1].base is not None
    assert np.shares_memory(sums[0][1], sums[1][1]) and np.shares_memory(sums[1][1], sums[2][1])


def test_verify_geometry_does_not_churn_the_heap():
    """Fresh-process minor page faults: a block that frees and re-allocates
    its arrays makes glibc trim and regrow its heap, and every regrowth
    faults pages in again.  verify-geometry su2:chart on 61^3 points made
    about 62,000-68,000 faults that way; it now stays within 5,000 of the
    import alone (about 5,700)."""
    code, _, imported = fresh_rusage("-c", "import srkilling.cli")
    assert code == 0
    axes = ",".join(f"{c}:-0.5:0.5:61" for c in "xyz")
    argv = ["-m", "srkilling.cli", "verify-geometry", "su2:chart", "--grid", axes]
    code, _, faults = fresh_rusage(*argv)
    assert code == 0
    assert faults < imported + 5000, (imported, faults)


def test_blocks_cover_the_points_in_order(monkeypatch):
    monkeypatch.setattr(frame, "BLOCK_ENTRIES", 10 * frame.POINT_ENTRIES)
    assert [(b.start, b.stop) for b in frame.point_blocks(25, 1)] == [(0, 10), (10, 20), (20, 25)]
    # a point over the budget is a block of its own
    assert len(list(frame.point_blocks(3, 10**9))) == 3


def test_grid_points_are_the_meshgrid_points():
    axes = [np.linspace(-1.0, 0.5, 4), np.array([0.25]), np.linspace(0.0, 3.0, 7)]
    g = Grid(["x", "y", "z"], axes)
    mesh = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    assert len(g) == 28 and g.shape == (4, 1, 7)
    assert np.array_equal(g.points, mesh)
    assert np.array_equal(g[5:19], mesh[5:19]) and np.array_equal(g[11], mesh[11])
    assert g.points.flags.c_contiguous
    assert Grid([], []).points.shape == (0, 0) and len(Grid([], [])) == 0


@pytest.fixture
def grid_blocks(monkeypatch):
    """The sizes of the point blocks Grids make."""
    made = []
    getitem = Grid.__getitem__

    def counted(self, sel):
        out = getitem(self, sel)
        made.append(len(out))
        return out

    monkeypatch.setattr(Grid, "__getitem__", counted)
    return made


def test_certification_grid_is_made_block_by_block(monkeypatch, grid_blocks):
    """The 5^dim certification grid is a Grid, whose points are made a
    block at a time; 10 points' worth of entries gives blocks of 10."""
    s = load_structure("su2:chart")
    assert isinstance(frame._default_special_grid(s), Grid)
    monkeypatch.setattr(frame, "BLOCK_ENTRIES", 10 * frame.POINT_ENTRIES)
    records = check_special(s)
    assert [r.points_tested for r in records] == [125] * 2
    assert grid_blocks == [10] * 12 + [5]


GAMMA = 0x9E3779B97F4A7C15


def mix(z):
    """SplitMix64's output function in Python ints, from the published
    constants (Steele, Lea and Flood, OOPSLA 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def test_box_sample_is_made_block_by_block_in_one_buffer():
    """Above 5^9 points the certification set is the origin and a seeded
    sample of the box, each coordinate one SplitMix64 draw indexed by the
    point and axis: a point does not depend on the slices it is read by,
    so blocks of 7 and of 3,000 points read the same sample, and every
    slice is written into the one buffer (the last slice read is valid
    until the next)."""
    s = load_structure("heisenberg:5")
    sample = frame._default_special_grid(s)
    assert isinstance(sample, frame.BoxSample)
    assert len(sample) == frame.MAX_SPECIAL_POINTS and sample.shape == (5**9, 11)

    block = frame.BLOCK_ENTRIES // frame.POINT_ENTRIES
    small = frame.BoxSample(3, 2 * block + 10, seed=5)
    by_7 = np.concatenate([small[i : i + 7].copy() for i in range(0, len(small), 7)])
    by_3000 = np.concatenate([small[i : i + 3000].copy() for i in range(0, len(small), 3000)])
    assert np.array_equal(by_7, by_3000) and by_7.shape == (len(small), 3)
    assert not by_7[0].any() and np.array_equal(small[0], by_7[0])
    assert np.array_equal(small[len(small) - 1], by_7[-1])
    assert np.all(np.abs(by_7[1:]) <= 1.0)
    # the first block of seed 5 is 2u - 1 of the 53-bit floats u of the
    # SplitMix64 stream from the state mix(5), in point-major order; the
    # stream from state 0 starts with the published 0xE220A8397B1DCDAF
    assert mix(GAMMA) == 0xE220A8397B1DCDAF
    stream = (mix((mix(5) + k * GAMMA) % 2**64) for k in range(1, 3 * block + 1))
    want = [2.0 * (z >> 11) * 2.0**-53 - 1.0 for z in stream]
    assert np.array_equal(by_7[1 : block + 1], np.reshape(want, (block, 3)))
    assert np.shares_memory(small[0:50], small[100:150])
    with pytest.raises(IndexError):
        small[::2]


def test_box_sample_is_uniform_on_the_box():
    """10^5 points of [-1, 1)^3: each axis's mean within 0.01 of 0 and its
    variance within 0.01 of 1/3; seeds 0-999 give 1,000 distinct first
    points, and sample_box_points is the sample after the origin."""
    pts = frame.BoxSample(3, 10**5, seed=0)[1:]
    assert pts.shape == (10**5, 3) and pts.min() >= -1.0 and pts.max() < 1.0
    assert np.all(np.abs(pts.mean(axis=0)) < 0.01)
    assert np.all(np.abs(pts.var(axis=0) - 1 / 3) < 0.01)
    firsts = {tuple(frame.BoxSample(3, 1, seed=seed)[1]) for seed in range(1000)}
    assert len(firsts) == 1000
    assert np.array_equal(frame.sample_box_points(3, 10**5), pts)


def test_literal_constants_are_read_once(grid_blocks):
    """The special residuals of heisenberg:3 are literal zeros: their value
    is the same at every point, so none of the 5^7 points is made."""
    records = check_special(load_structure("heisenberg:3"))
    assert [(r.max_residual, r.points_tested) for r in records] == [(0.0, 5**7)] * 2
    assert grid_blocks == []


def test_axiom_terms_are_compiled_once(monkeypatch):
    """compute_connection and verify_geometry evaluate the metricity and
    torsion lists through one cached tape each.  On a fresh su2:chart the
    special certification compiles 1 tape (the alpha([xi, e_j]) are literal
    zeros), the axioms 2 and verify_geometry 1, for R: nabla R and
    nabla dalpha store no entries, and the terms of R(xi, .), literal zeros,
    are the roots of the torsion tape.  The compiles were 11 while
    verify_geometry compiled one tape an expression."""
    s = load_structure("su2:chart")
    compiled = []
    compile_expression = ex.compile_expression

    def counted(roots, var_order):
        compiled.append(roots)
        return compile_expression(roots, var_order)

    monkeypatch.setattr(ex, "compile_expression", counted)
    cd = curvature(compute_connection(s))
    verify_geometry(cd)
    verify_geometry(cd)
    assert len(compiled) == 4
    for terms in cd.connection.axiom_terms:
        same = [len(r) == len(terms) and all(map(operator.is_, r, terms)) for r in compiled]
        assert sum(same) == 1


def test_pfaffian_minors_are_freed_without_the_cycle_collector():
    """The memo of the Pfaffian minors holds every minor it expanded, and it
    must go as soon as pf does, not at the next collection of reference
    cycles."""
    names = {(i, j): ex.Var(f"b{i}{j}") for i in range(4) for j in range(i + 1, 4)}
    B = [[ex.ZERO] * 4 for _ in range(4)]
    for (i, j), b in names.items():
        B[i][j], B[j][i] = b, ex.neg(b)
    pf = frame.pfaffian_minors(B)
    written = "b01*b23 - b02*b13 + b03*b12"
    assert ex.to_string(ex.normalize(pf((0, 1, 2, 3)))) == ex.to_string(
        ex.normalize(ex.parse_expression(written, [b.name for b in names.values()]))
    )
    gone = weakref.ref(pf)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del pf
        assert gone() is None
    finally:
        if enabled:
            gc.enable()
