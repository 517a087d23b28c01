"""The batched generator-space assembler and the blocked scan.

The assembler builds f_q for a block of cached points as one stack; its
columns are exact +-1 selections of the cached tensor values, so every
entry must equal, bit for bit, the per-point assembly it replaced
(tests/assembly_reference.py) and the single-point assembly of
generator_space.  On su2:chart the frame components of R and dalpha are
constant and rotation invariant, so its f_q is zero; the warped structure
below has nonconstant curvature and a nonzero f_q.
"""

import pathlib

import numpy as np
import pytest

from srkilling import frame
from srkilling.connection import compute_connection, curvature
from srkilling.frame import load_structure, load_structure_text
from srkilling.killing import (
    Grid,
    _assemble_block,
    _neighbour_flags,
    _tensor_value_cache,
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


@pytest.mark.parametrize(
    "which,npts,m",
    [("su2c_cd", 9, 2), ("heis2_cd", 4, 2), ("warped_cd", 3, 2), ("warped3_cd", 2, 2)],
)
def test_stack_equals_single_point_assemblies(request, which, npts, m):
    cd = request.getfixturevalue(which)
    pts = np.random.default_rng(7).uniform(-1.2, 1.2, (npts, cd.structure.dim))
    cache = _tensor_value_cache(cd, m, pts)
    stack = _assemble_block(cd, m, cache)
    assert stack.shape[0] == npts and stack.shape[2] == ambient_dimension(cd.structure.n)
    for p in range(npts):
        one = _tensor_value_cache(cd, m, pts[p : p + 1])
        single = _assemble_block(cd, m, one)[0]
        for other in (single, ref.assemble_map(cd, m, cache, p)):
            assert other.shape == stack[p].shape
            assert np.array_equal(stack[p].view(np.int64), other.view(np.int64))
    assert np.any(stack != 0) == (which != "su2c_cd")


def test_assembly_works_in_place(warped3_cd):
    """The row blocks are written into the one stack: beyond the stack, the
    assembly holds under 5 % of it (77 MiB here).  Building each block's
    columns apart and concatenating them took 1.38 times the stack."""
    pts = np.random.default_rng(3).uniform(-1, 1, (8, warped3_cd.structure.dim))
    cache = _tensor_value_cache(warped3_cd, 2, pts)
    stack, peak = traced_peak(lambda: _assemble_block(warped3_cd, 2, cache))
    assert stack.nbytes > 64 * 2**20
    assert peak < 0.05 * stack.nbytes, (peak, stack.nbytes)


def test_block_boundaries_leave_dims_unchanged(warped, warped_cd, monkeypatch):
    # at this threshold the rank of f_q changes with x, so misplaced dims show
    grid = Grid(names=list(warped.coords), axes=[np.linspace(-1.5, 1.5, 3)] * 3)
    base = scan_regularity(warped_cd, grid, order=2, rel_threshold=0.8)
    assert set(base["dims"]) == {2, 3} and not all(base["regular"])
    cache = _tensor_value_cache(warped_cd, 2, grid.points[:1])
    per_point = _assemble_block(warped_cd, 2, cache)[0].size

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
        assert scan_regularity(warped_cd, grid, order=2, rel_threshold=0.8) == base
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
