"""The batched generator-space assembler and the blocked scan.

The assembler builds f_q for a block of points as one stack; its
columns are exact +-1 selections of the tensor values, so every
entry must equal, bit for bit, the per-point assembly it replaced
(tests/assembly_reference.py) and the single-point assembly of
generator_space.  On su2:chart the frame components of R and dalpha are
constant and rotation invariant, so its f_q is zero; the warped structure
below has nonconstant curvature and a nonzero f_q.
"""

import pathlib

import numpy as np
import pytest

from srkilling import frame, killing
from srkilling.connection import compute_connection, curvature, eval_tensor
from srkilling.frame import load_structure, load_structure_text
from srkilling.killing import (
    Grid,
    _assemble_block,
    _kept_blocks,
    _neighbour_flags,
    ambient_dimension,
    generator_space,
    scan_regularity,
)

import assembly_reference as ref
from conftest import traced_peak


# The contact circle bundle over the plane with metric dx^2/u^2 + dy^2/u^2,
# u = 1 + x^2: alpha = dz - y/u^2 dx, Reeb field d/dz, Gaussian curvature
# depending on x.
WARPED = """
[manifold]
mode = chart
n = 1
coords = x, y, z

[frame]
X1 = 1 + x^2, 0, y/(1 + x^2)
X2 = 0, 1 + x^2, 0
"""


@pytest.fixture(scope="module")
def warped3_cd():
    """heisenberg:3 with its first pair warped: h = 6, 15 skew pairs, and R
    blocks of rank up to 6 that store something at every order."""
    path = pathlib.Path(__file__).resolve().parent / "data" / "warped_heisenberg3.toml"
    return curvature(compute_connection(load_structure(str(path))))


@pytest.fixture(scope="module")
def heis2_cd():
    return curvature(compute_connection(load_structure("heisenberg:2")))


@pytest.fixture(scope="module")
def warped():
    return load_structure_text(WARPED, name="warped")


@pytest.fixture(scope="module")
def warped_cd(warped):
    return curvature(compute_connection(warped))


@pytest.fixture(scope="module")
def rational_cd():
    path = pathlib.Path(__file__).resolve().parent / "data" / "rational_heisenberg.toml"
    return curvature(compute_connection(load_structure(str(path))))


def reference_values(cd, m, points):
    """The values assembly_reference.assemble_map reads, keyed (kind, i):
    nabla^i T ("R", "B") for i <= m + 1 and nabla_xi nabla^i T ("Rxi",
    "Bxi") for i <= m, T = R, dalpha."""
    values = {}
    for key, tower, xi in (("R", cd.nabla_R, cd.xi_R), ("B", cd.nabla_dalpha, cd.xi_dalpha)):
        for i in range(m + 2):
            values[(key, i)] = eval_tensor(cd.structure, tower[i], points)
            if i <= m:
                values[(key + "xi", i)] = eval_tensor(cd.structure, xi[i], points)
    return values


@pytest.mark.parametrize(
    "which,npts,m",
    [("su2c_cd", 9, 2), ("heis2_cd", 4, 2), ("warped_cd", 3, 2), ("warped3_cd", 2, 2)],
)
def test_stack_equals_single_point_assemblies(request, which, npts, m):
    cd = request.getfixturevalue(which)
    pts = np.random.default_rng(7).uniform(-1.2, 1.2, (npts, cd.structure.dim))
    stack = _assemble_block(cd, m, pts, {})
    assert stack.shape[0] == npts and stack.shape[2] == ambient_dimension(cd.structure.n)
    values = reference_values(cd, m, pts)
    for p in range(npts):
        single = _assemble_block(cd, m, pts[p : p + 1], {})[0]
        for other in (single, ref.assemble_map(cd, m, values, p)):
            assert other.shape == stack[p].shape
            assert np.array_equal(stack[p].view(np.int64), other.view(np.int64))
    assert np.any(stack != 0) == (which != "su2c_cd")


@pytest.mark.parametrize(
    "which,rows",
    [("su2c_cd", [20] * 4), ("rational_cd", [20, 60, 140, 300]), ("warped_cd", [20, 60, 140, 300])],
)
def test_lower_orders_are_leading_rows(request, which, rows):
    """The kept blocks of order m - 1 lead those of order m, so f_q of
    order m - 1 is, bit for bit, the leading rows of f_q of order m.  On
    su2:chart no block past order 0 stores something."""
    cd = request.getfixturevalue(which)
    pts = np.random.default_rng(5).uniform(-1, 1, (2, cd.structure.dim))
    for m in range(1, 4):
        lower, upper = (_kept_blocks(cd, k) for k in (m - 1, m))
        assert [tuple(map(id, b)) for b in upper[: len(lower)]] == [tuple(map(id, b)) for b in lower]
        short, long = _assemble_block(cd, m - 1, pts, {}), _assemble_block(cd, m, pts, {})
        assert [short.shape[1], long.shape[1]] == rows[m - 1 : m + 1]
        assert np.array_equal(long[:, : short.shape[1]].view(np.int64), short.view(np.int64))


def test_assembly_works_in_place(warped3_cd):
    """The row blocks are written into the one stack: beyond the stack, the
    assembly holds under 5 % of it (77 MiB here).  Building each block's
    columns apart and concatenating them took 1.38 times the stack."""
    pts = np.random.default_rng(3).uniform(-1, 1, (8, warped3_cd.structure.dim))
    memo: dict = {}
    _assemble_block(warped3_cd, 2, pts, memo)  # fills the memo
    stack, peak = traced_peak(lambda: _assemble_block(warped3_cd, 2, pts, memo))
    assert stack.nbytes > 64 * 2**20
    assert peak < 0.05 * stack.nbytes, (peak, stack.nbytes)


def test_block_boundaries_leave_dims_unchanged(warped, warped_cd, monkeypatch):
    # at this threshold the rank of f_q changes with x, so misplaced dims show
    monkeypatch.setattr(killing, "REL_THRESHOLD", 0.8)
    grid = Grid(names=list(warped.coords), axes=[np.linspace(-1.5, 1.5, 3)] * 3)
    base = scan_regularity(warped_cd, grid, order=2)
    assert set(base["dims"]) == {2, 3} and not all(base["regular"])
    per_point = _assemble_block(warped_cd, 2, grid.points[:1], {})[0].size

    svd = np.linalg.svd
    stacks = []

    def recording_svd(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(a.shape[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    # BLOCK_ENTRIES counts the entries of the largest array of a block, here
    # f_q: 1 gives one point a block, seven points' worth gives blocks of 7,
    # 7, 7 and 6 on the 27 points
    for entries, sizes in ((1, [1] * 27), (7 * per_point, [7, 7, 7, 6])):
        stacks.clear()
        monkeypatch.setattr(frame, "BLOCK_ENTRIES", entries)
        assert scan_regularity(warped_cd, grid, order=2) == base
        assert stacks == sizes


@pytest.mark.parametrize("which,order,counts", [("su2c", "auto", (3, 2, 3)), ("warped", 2, (2, 1, 2))])
def test_scan_dims_equal_generator_space(request, which, order, counts):
    s = request.getfixturevalue(which)
    cd = request.getfixturevalue(which + "_cd")
    bounds = [(-1.3, 0.9), (-0.4, 1.7), (-1, 1)]
    grid = Grid(names=list(s.coords), axes=[np.linspace(*b, k) for b, k in zip(bounds, counts)])
    rep = scan_regularity(cd, grid, order=order)
    m = rep["order_used"]
    expected = [generator_space(cd, p, order=m).dim for p in grid.points]
    assert rep["dims"] == expected


def loop_flags(dims):
    """The per-point neighbour loop the sliced comparison replaced."""
    regular = np.ones(dims.shape, dtype=bool)
    pit = np.zeros(dims.shape, dtype=bool)
    for idx in np.ndindex(dims.shape):
        neigh = []
        for ax in range(dims.ndim):
            for step in (-1, 1):
                jdx = list(idx)
                jdx[ax] += step
                if 0 <= jdx[ax] < dims.shape[ax]:
                    neigh.append(dims[tuple(jdx)])
        if neigh:
            regular[idx] = all(d == dims[idx] for d in neigh)
            pit[idx] = all(d > dims[idx] for d in neigh)
    return regular, pit


@pytest.mark.parametrize(
    "shape", [(1,), (5,), (1, 1, 1), (4, 1, 3), (3, 4, 5), (2, 3, 2, 3, 2), (1, 6, 1)]
)
def test_neighbour_flags_match_the_loop(shape):
    rng = np.random.default_rng(sum(shape))
    for lo, hi in ((0, 1), (0, 4), (3, 4), (2, 2)):
        dims = rng.integers(lo, hi + 1, size=shape)
        regular, pit = _neighbour_flags(dims)
        want_regular, want_pit = loop_flags(dims)
        assert np.array_equal(regular, want_regular)
        assert np.array_equal(pit, want_pit)
