"""Isometry generators: the A_Z operator, generator spaces, transport and
reconstruction of Killing fields, and the verification suites.

A generator is a triple (X, A, c) in H_q + skew(H_q) + R.  For a Killing
field Z it is (frame components of PZ, matrix of A_Z = Lie_Z - nabla_Z,
alpha(Z)) at q.  The generator space i_m(q) is the kernel of the linear
map f_q sending (X, A, c) to the values of (nabla_{X + c xi} + A) applied
to nabla^i R and nabla^i dalpha for i <= m; it is computed by SVD with a
relative threshold, and the order m is raised until the dimension
sequence stabilizes twice.  f_q is written in place into one stack, one
row block per tensor nabla^i T (_fq_columns, also read by
derivation_apply).  A block is the tensors it reads, (nabla^(i+1) T,
nabla^i T, nabla_xi nabla^i T), whose values come through a memo keyed by
the tensor; its A columns are sums of values selected by index.  A block
whose tensors store nothing is a literal zero, so it is left out, and a
tensor that stores nothing is never evaluated.  The blocks are i-major, R
before dalpha, so f_q of order m - 1 is the leading rows of order m.  The
dense budget counts the kept rows.  A scan assembles f_q for a block of
grid points at once and ranks the stack with one SVD call.

Transport integrates the linear system

    x' = -A v - Gamma(v) x,
    A' = R(x, v) - Gamma(v) A + A Gamma(v),
    c' = -dalpha(x, v),

along a curve with frame velocity v, by fixed-step classical Runge-Kutta
(bit-reproducible for a given step).  The step is per unit of curve
parameter.  With the state y = (x, A row-major, c) of size
d = 2n + (2n)^2 + 1 the system is y' = M(t) y, so one RK4 step of size h is
the matrix

    P = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    K1 = M(t),  K2 = M(t + h/2) (I + h/2 K1),
    K3 = M(t + h/2) (I + h/2 K2),  K4 = M(t + h) (I + h K3)

(Hairer, Norsett & Wanner, Solving ODEs I, II.1).  M is built from the stored
entries of Gamma_h, Gamma_xi, R and dalpha, which one compiled tape evaluates
per block of stage points with the frame, its cofactors and determinant, for v
by Cramer's rule.  The kernel (_propagate) takes a wide batch through the four
stages with batched matrix-vector products against the block's M, and a narrow
one by forming P - I for every step of a block in place in the order of the
sum above, then one product per aligned group of GROUP_STEPS steps, pairwise
as E = D2 + D1 + D2 D1 for P2 P1 = I + E, applied as y + E y: its bits depend
on GROUP_STEPS, not on how blocks and passes cut the batch.  A block holds at
most STAGE_BLOCK stage points and OPERATOR_FLOATS floats of M, the step arrays
half its steps in whole groups: they and M stay within 2 OPERATOR_FLOATS
floats (2 MiB) for every batch and step count up to n = 6, the rest within
2 d^2 floats a stage point.  A block starts at the previous block's last stage
and reuses its M, so each stage point is evaluated once.  The full A is
transported, so its drift from skew stays measurable.  Reconstruction
transports a generator from a base point to every grid point along a
vertical-then-straight two-leg path, one batch per leg, and emits the field
Z = X^k e_k + c xi; its finite-difference check reads the same M, as the
residual e_a(y) - M(e_a) y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import Expression, Const, ZERO
from .frame import CheckFailure, ContactStructure, Grid, StructureError, _max_abs
from .frame import _parse_sections, point_blocks, residual_records, split_components
from .connection import (
    BudgetError,
    ConnectionData,
    CurvatureData,
    HTensor,
    check_dense,
    covariant_derivative,
    eval_tensor,
    higher_derivatives,
    CheckRecord,
)

__all__ = [
    "Generator",
    "GeneratorSpace",
    "Curve",
    "DiscreteField",
    "Grid",
    "TransportResult",
    "TransportInputError",
    "a_z_matrix",
    "a_z_field",
    "derivation_apply",
    "generator_space",
    "transport",
    "path_independence",
    "reconstruct_field",
    "verify_killing",
    "verify_killing_field",
    "scan_regularity",
    "riemannian_extension_check",
    "pushforward_generator",
    "load_curve_text",
    "load_generator_text",
    "segment_curve",
]

SKEW_TOL = 1e-12
# Stage points whose transport operators one kernel block holds, at most;
# with OPERATOR_FLOATS it bounds the kernel's memory whatever the number of
# curves and steps.
STAGE_BLOCK = 1024
# Floats of one block's operator array M (stage points x d^2), at most: caps
# a block below STAGE_BLOCK stage points from n = 2 on (297 at d = 21, 70 at
# d = 43).  The kernel's workspace holds M and, in the grouped form, three
# arrays of about a quarter its size.
OPERATOR_FLOATS = 2**17
# RK4 steps one propagator of the grouped form spans, a power of two: a
# block of a narrow batch advances whole groups, by passes of fewer curves.
GROUP_STEPS = 16
# Steps one curve may take; a finer step is rejected as an input error.
MAX_STEPS = 10**6
# A rank decision counts the singular values above max(REL_THRESHOLD *
# largest, ABS_FLOOR).
REL_THRESHOLD = 1e-9
ABS_FLOOR = 1e-12
# Largest relative distance from span(i(q0)) of a generator reconstruct_field
# extends.
MEMBERSHIP_TOL = 1e-8
# Largest |alpha(gamma')| of a curve that transport accepts as horizontal.
HORIZONTAL_TOL = 1e-9
# Residual tolerance of the verify_killing and riemannian_extension_check records.
FIELD_TOL = 1e-9


class TransportInputError(ValueError):
    """A transport argument no integration can honour: a step that is not
    positive and finite or needs more than MAX_STEPS steps, a generator off
    the curve start, or curves without a shared start or endpoint."""


@dataclass
class Generator:
    """(X, A, c) at a base point q; A must be skew."""

    X: np.ndarray
    A: np.ndarray
    c: float
    q: np.ndarray | None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.c = float(self.c)
        if self.q is not None:
            self.q = np.asarray(self.q, dtype=float)
        h = self.X.shape[0]
        if self.A.shape != (h, h):
            raise ValueError(f"A must be {h}x{h}, got {self.A.shape}")
        drift = _max_abs([self.A + self.A.T])
        if drift > SKEW_TOL:
            raise ValueError(f"A is not skew-symmetric (|A+A^T| = {drift:.3e})")

    def as_vector(self) -> np.ndarray:
        return pack_generator(self.X, self.A, self.c)


def pack_generator(X: np.ndarray, A: np.ndarray, c: float) -> np.ndarray:
    """Flatten (X, A, c) in the fixed unknown order: X entries, then the
    strictly lower triangle of A by rows, then c."""
    lower = np.asarray(A, float)[np.tril_indices(len(X), -1)]
    return np.concatenate([np.asarray(X, float), lower, [c]])


def unpack_generator(vec: np.ndarray, h: int, q: np.ndarray | None) -> Generator:
    A = np.zeros((h, h))
    A[np.tril_indices(h, -1)] = vec[h:-1]
    A.T[np.tril_indices(h, -1)] = -vec[h:-1]
    return Generator(X=vec[:h], A=A, c=float(vec[-1]), q=q)


def ambient_dimension(n: int) -> int:
    """dim a(q) = 2n + n(2n-1) + 1."""
    return 2 * n + n * (2 * n - 1) + 1


@dataclass
class GeneratorSpace:
    q: np.ndarray | None
    m_used: int
    dims: list[int]
    basis: list[Generator]
    singular_values: np.ndarray
    certified: bool

    @property
    def dim(self) -> int:
        return self.dims[-1]

    def membership_residual(self, gen: Generator) -> float:
        """Distance of gen from span(basis), scaled by the vector norm; the
        vector is first divided by its largest entry, so no norm overflows."""
        v = gen.as_vector()
        v = v / (np.max(np.abs(v)) or 1.0)
        if not self.basis:
            return float(np.linalg.norm(v))
        U = np.stack([g.as_vector() for g in self.basis], axis=1)
        proj = U @ np.linalg.lstsq(U, v, rcond=None)[0]
        return float(np.linalg.norm(v - proj) / max(1.0, np.linalg.norm(v)))


@dataclass
class Curve:
    exprs: list[Expression]  # components in the parameter t
    t0: float
    t1: float

    @cached_property
    def tapes(self):
        """Position and velocity tapes in t, one root per component each."""
        velocity = [ex.differentiate(e, "t") for e in self.exprs]
        return ex.compile_expression(self.exprs, ["t"]), ex.compile_expression(velocity, ["t"])

    def point_at(self, t: float) -> np.ndarray:
        p = self.tapes[0](float(t))
        if not np.all(np.isfinite(p)):
            raise ex.EvalError(f"curve point at t = {float(t)!r} is not finite")
        return p


@dataclass
class DiscreteField:
    """Reconstructed field sampled on a grid: per point the horizontal
    frame components X, the Reeb coefficient c, the transported matrix A,
    and the coordinate components of Z = X^k e_k + c xi."""

    grid: Grid
    X: np.ndarray  # (N, 2n)
    c: np.ndarray  # (N,)
    A: np.ndarray  # (N, 2n, 2n)
    Z_coords: np.ndarray  # (N, dim)


@dataclass
class TransportResult:
    gen: Generator
    skew_drift: float
    steps: int
    horizontal_violation: float  # max |alpha(gamma')| over stages


@dataclass
class AZResult:
    gen: Generator  # with A projected to skew
    bracket_data: tuple  # Z's _bracket_data, for the other checks of Z


# ---------------------------------------------------------------------------
# A_Z and the pointwise derivation.
# ---------------------------------------------------------------------------


def a_z_field(
    conn: ConnectionData, Z: list[Expression], bracket_data: tuple | None = None
) -> list[list[Expression]]:
    """Symbolic matrix field of A_Z: A[k][j] = <P[Z,e_j] - nabla_Z e_j, e_k>.
    bracket_data is Z's _bracket_data when the caller holds it."""
    s = conn.structure
    h = s.h
    zh, z0 = s.decompose(Z)
    _, dec = bracket_data or _bracket_data(s, Z)
    A = [[ZERO] * h for _ in range(h)]
    for j in range(h):
        hor = dec[j][0]
        for k in range(h):
            acc = hor[k]
            for a in range(h):
                acc = ex.sub(acc, ex.mul(zh[a], conn.gamma_h[a][j][k]))
            acc = ex.sub(acc, ex.mul(z0, conn.gamma_xi[j][k]))
            A[k][j] = ex.normalize(acc)
    return A


def a_z_matrix(conn: ConnectionData, Z: list[Expression], q) -> AZResult:
    """Evaluate (PZ, A_Z, alpha(Z)) at q, A_Z projected to skew.  A field
    that is not Killing is evaluated all the same; verify_killing reports
    its residuals."""
    s = conn.structure
    q = _as_point(s, q)
    pts = q[None, :]
    zh, z0 = s.decompose(Z)
    bracket_data = _bracket_data(s, Z)
    X = s.eval_scalar(zh, pts)[:, 0]
    c = float(s.eval_scalar(s.alpha_of(Z), pts)[0])
    A_raw = s.eval_scalar(a_z_field(conn, Z, bracket_data), pts)[..., 0]
    with np.errstate(over="ignore", invalid="ignore"):  # a pole at q shows in the residuals
        A = 0.5 * A_raw - 0.5 * A_raw.T  # exact for Killing Z; projection otherwise
    gen = Generator(X=X, A=A, c=c, q=q if s.coords else None)
    return AZResult(gen, bracket_data)


def derivation_apply(
    cd: CurvatureData, gen: Generator, which: str = "R", order: int = 0
) -> np.ndarray:
    """(nabla_{X + c xi} + A) applied to nabla^order R or nabla^order dalpha,
    evaluated at gen.q: the row block of that tensor in f_q (_fq_columns)
    times gen.as_vector(), shaped as the tensor.  Evaluates only the three
    tensors of that block."""
    if which not in ("R", "dalpha"):
        raise ValueError(f"unknown tensor kind {which!r}")
    block = _blocks(cd, order)[-1 if which == "dalpha" else -2]
    pts = np.atleast_2d(gen.q) if cd.structure.coords else np.zeros((1, 0))
    rows = _fq_columns(cd, block, pts, {})[0]
    return (rows @ gen.as_vector()).reshape(block[1].shape)


# ---------------------------------------------------------------------------
# Generator spaces i_m(q).
# ---------------------------------------------------------------------------


def _value(cd: CurvatureData, T: HTensor, points: np.ndarray, memo: dict) -> np.ndarray:
    """T at points, T.shape + (P,), through memo: one call's values keyed by
    id(T), as the tower keeps every tensor alive.  eval_tensor fills it on
    the first read of a tensor that stores something; a tensor that stores
    nothing is not evaluated, its value a read-only zero view, which holds
    no memory whatever its shape."""
    if id(T) not in memo:
        zero = np.broadcast_to(0.0, T.shape + (len(points),))
        memo[id(T)] = eval_tensor(cd.structure, T, points) if T.entries else zero
    return memo[id(T)]


def _fq_columns(
    cd: CurvatureData, block: tuple, points: np.ndarray, memo: dict, out: np.ndarray | None = None
) -> np.ndarray:
    """Row block (nabla^(i+1) T, nabla^i T, nabla_xi nabla^i T) of f_q at
    points, values read through memo (_value): a stack (P, h^rank,
    unknowns), rows the entries of nabla^i T in C order, written into out
    (its rows of a larger stack) if given.  Columns follow pack_generator:
    X^a takes slice a of nabla^(i+1) T, c the xi-derivative of T, and
    E_ab - E_ba (a > b) its derivation of T, alike on upper and lower slots
    as -A^T = A: slot by slot, + T read at b into the entries at a, - T
    read at a into those at b.  Each entry is the same sum of values at
    every point, so it equals, bit for bit, the per-point value whatever
    the block."""
    h = cd.structure.h
    T1, T, Txi = (np.moveaxis(_value(cd, S, points, memo), -1, 0) for S in block)
    if out is None:
        out = np.empty((len(T), T[0].size, ambient_dimension(cd.structure.n)))
    cols = out.reshape(T.shape + (-1,))  # splits the row axis: a view of out
    cols[..., :h] = np.moveaxis(T1, 1, -1)
    cols[..., h:-1] = 0.0
    cols[..., -1] = Txi
    for k, (a, b) in enumerate(zip(*np.tril_indices(h, -1))):  # pack_generator's order
        col = cols[..., h + k]
        for r in range(1, T.ndim):
            at = (slice(None),) * r
            col[at + (a,)] += T[at + (b,)]
            col[at + (b,)] -= T[at + (a,)]
    return out


def _blocks(cd: CurvatureData, m: int) -> list[tuple[HTensor, HTensor, HTensor]]:
    """The row blocks of f_q of order m, i <= m, R before dalpha, each the
    tensors it reads (_fq_columns): nabla^(i+1) T for the X columns,
    nabla^i T for the A columns, nabla_xi nabla^i T for the c column.
    Builds the tower through order m + 1; evaluates nothing."""
    higher_derivatives(cd, m + 1)
    towers = ((cd.nabla_R, cd.xi_R), (cd.nabla_dalpha, cd.xi_dalpha))
    return [(tower[i + 1], tower[i], xi[i]) for i in range(m + 1) for tower, xi in towers]


def _kept_blocks(cd: CurvatureData, m: int) -> list[tuple[HTensor, HTensor, HTensor]]:
    """The row blocks of f_q of order m that _assemble_block keeps: a block
    whose three tensors all store nothing is a literal zero at every point.
    Those of order m - 1 lead those of order m."""
    return [block for block in _blocks(cd, m) if any(T.entries for T in block)]


def _kept_rows(cd: CurvatureData, m: int) -> int:
    """Rows of f_q of order m: h^rank for the tensor of each kept block."""
    return sum(math.prod(T.shape) for _, T, _ in _kept_blocks(cd, m))


def _assemble_block(cd: CurvatureData, m: int, points: np.ndarray, memo: dict) -> np.ndarray:
    """Stack (P, rows, unknowns) of the f_q matrices at points, each with
    kernel i_m(q): the row blocks of _fq_columns that are kept
    (_kept_blocks), written in place into one stack, values read through
    memo.  The blocks left out are literal zeros, which change no kernel.
    dalpha's block of order 0 is always kept, as dalpha stores something on
    every contact structure: its (2n)^2 >= 2n^2 + n + 1 rows leave f_q no
    shorter than wide, so an SVD gives a singular value for every unknown."""
    blocks = _kept_blocks(cd, m)
    rows = [math.prod(T.shape) for _, T, _ in blocks]
    stack = np.empty((len(points), sum(rows), ambient_dimension(cd.structure.n)))
    start = 0
    for block, n in zip(blocks, rows):
        _fq_columns(cd, block, points, memo, stack[:, start : start + n])
        start += n
    # -0.0 becomes +0.0, as in the full sum X . nabla T + c xi T + A . T that
    # each column selects from; LAPACK's reflector signs read the sign of zero
    stack += 0.0
    # before any SVD, which fails on inf or nan; max and min, which keep nan, allocate no stack
    finite = np.isfinite(stack.max(axis=(1, 2))) & np.isfinite(stack.min(axis=(1, 2)))
    if not finite.all():
        raise ex.EvalError(f"f_q is not finite at the point {points[np.argmin(finite)].tolist()}")
    return stack


def _ranks(sv: np.ndarray) -> np.ndarray:
    """Numerical ranks of singular value rows (..., k), largest first: the
    count above max(REL_THRESHOLD * largest, ABS_FLOOR)."""
    thresh = np.maximum(REL_THRESHOLD * sv[..., 0], ABS_FLOOR)
    return np.sum(sv > thresh[..., None], axis=-1)


def _kernel(M: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(kernel dim, orthonormal kernel basis rows, singular values)."""
    _, sv, Vh = np.linalg.svd(M, full_matrices=False)
    rank = int(_ranks(sv))
    return M.shape[1] - rank, Vh[rank:], sv


def generator_space(cd: CurvatureData, q, order: int | str = "auto") -> GeneratorSpace:
    """Compute i_m(q): dims for m = 0.., the kernel basis at the final
    order, and the stabilization certificate (three equal consecutive
    dims).  'auto' stops at the certificate, or at the order
    cd.max_order - 1, the last the tower reaches.  With an explicit order,
    exactly that order is used and the certificate reflects the dims
    computed up to it.  Each order writes
    f_q with the scan's assembler at the single point q, from the row
    blocks that store something (_kept_blocks), and takes a full SVD: the
    rank counts singular values, one for each unknown, above
    max(REL_THRESHOLD * largest, ABS_FLOOR), and the kernel basis is the
    trailing right singular vectors, each tensor evaluated once for all
    orders.  The dense budget (check_dense) counts the kept rows and is
    checked before any tensor is evaluated."""
    s = cd.structure
    q = _as_point(s, q) if s.coords else None
    pts = q[None, :] if q is not None else np.zeros((1, 0))
    auto = order == "auto"
    target = cd.max_order - 1 if auto else int(order)
    if target + 1 > cd.max_order:  # order m reads nabla^(m+1)
        raise BudgetError(
            f"order {target} needs derivative order {target + 1}, which exceeds "
            f"the configured bound {cd.max_order}"
        )

    # before any tensor is evaluated; auto needs order 2 at least: the
    # certificate is three equal dims
    nunk = ambient_dimension(s.n)
    first = min(target, 2) if auto else target
    check_dense(_kept_rows(cd, first) * nunk, f"f_q of order {first} at a point")
    dims: list[int] = []
    kernel_basis: np.ndarray | None = None
    sv: np.ndarray = np.zeros(0)
    m_used = 0
    certified = False
    memo: dict = {}
    for m in range(target + 1):
        check_dense(_kept_rows(cd, m) * nunk, f"f_q of order {m} at a point")
        M = _assemble_block(cd, m, pts, memo)[0]
        dim, kernel_basis, sv = _kernel(M)
        dims.append(dim)
        m_used = m
        if len(dims) >= 3 and dims[-1] == dims[-2] == dims[-3]:
            certified = True
            if auto:
                break
    basis = [unpack_generator(v, s.h, q) for v in kernel_basis]
    return GeneratorSpace(
        q=q,
        m_used=m_used,
        dims=dims,
        basis=basis,
        singular_values=sv,
        certified=certified,
    )


def _neighbour_flags(dims: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(regular, pit) over a grid of dimensions: regular where every grid
    neighbour shares the dimension, pit where there is a neighbour and every
    neighbour's dimension is strictly larger.  Compared by shifted slices,
    along each axis in both directions."""
    regular = np.ones(dims.shape, dtype=bool)
    pit = np.ones(dims.shape, dtype=bool)
    has_neighbour = np.zeros(dims.shape, dtype=bool)
    for ax in range(dims.ndim):
        lo = (slice(None),) * ax + (slice(None, -1),)
        hi = (slice(None),) * ax + (slice(1, None),)
        for here, there in ((lo, hi), (hi, lo)):
            regular[here] &= dims[there] == dims[here]
            pit[here] &= dims[there] > dims[here]
            has_neighbour[here] = True
    return regular, pit & has_neighbour


def scan_regularity(cd: CurvatureData, grid: Grid, order: int | str = "auto") -> dict:
    """dim i(q) over a grid, regularity flags (all neighbors share the
    dimension), and an upper-semicontinuity surrogate: a point all of whose
    neighbors have strictly larger dimension is flagged as a violation.

    The order m is the one generator_space settles on at the first grid
    point.  The points then go in blocks (point_blocks) sized by the kept
    rows of f_q, the largest array of a point: each block's tensor values
    are evaluated, assembled as one stack of f_q matrices (_assemble_block)
    and ranked by one stacked np.linalg.svd without singular vectors, under
    the threshold rule of generator_space."""
    s = cd.structure
    if s.mode == "lie":
        gs = generator_space(cd, None, order)
        return {
            "mode": "lie",
            "dims": [gs.dim],
            "regular": [True],
            "certified": gs.certified,
            "note": "left-invariant structure: one algebraic point, constant by invariance",
            "semicontinuity_violations": 0,
        }
    npts = len(grid)
    if npts == 0:
        return {"mode": "chart", "dims": [], "regular": [], "semicontinuity_violations": 0}

    # stabilization order is probed at the first point, then reused
    gs0 = generator_space(cd, grid[0], order)
    m = gs0.m_used
    nunk = ambient_dimension(s.n)
    dims = np.empty(npts, dtype=np.min_scalar_type(nunk))  # a byte a point up to n = 11
    for sel in point_blocks(npts, _kept_rows(cd, m) * nunk):
        # a fresh memo: the tensor values of a block go as soon as its f_q is assembled
        stack = _assemble_block(cd, m, grid[sel], {})
        dims[sel] = nunk - _ranks(np.linalg.svd(stack, compute_uv=False))

    regular, pit = _neighbour_flags(dims.reshape(grid.shape))
    return {
        "mode": "chart",
        "order_used": m,
        "certified": gs0.certified,
        "dims": dims.tolist(),
        "shape": list(grid.shape),
        "regular": regular.ravel().tolist(),
        "semicontinuity_violations": int(np.sum(pit)),
        "max_dim_bound": (s.n + 1) ** 2,
        "unknowns": nunk,
    }


# ---------------------------------------------------------------------------
# Transport along curves (classical RK4, fixed step).
# ---------------------------------------------------------------------------


def _as_point(s: ContactStructure, q) -> np.ndarray:
    if not s.coords or q is None:
        return np.zeros(0)
    q = np.asarray(q, dtype=float)
    if q.shape != (s.dim,):
        raise StructureError(f"point must have {s.dim} coordinates")
    return q


def _step_count(span: float, step: float) -> int:
    """RK4 steps over a parameter span: ceil(|span| / step), at least one."""
    if not (math.isfinite(step) and step > 0):
        raise TransportInputError(f"step must be positive and finite, got {step!r}")
    n = abs(span) / step
    if not n <= MAX_STEPS:
        raise TransportInputError(
            f"step {step!r} over a parameter span of {abs(span)!r} needs more "
            f"than {MAX_STEPS} RK4 steps"
        )
    return max(1, math.ceil(n))


def _pack_state(gen: Generator) -> np.ndarray:
    """The transport state (X, A row-major, c)."""
    return np.concatenate([gen.X, gen.A.ravel(), [gen.c]])


def _scratch_floats(cd: CurvatureData, npts: int) -> int:
    """Floats _operator writes at npts stage points: tape values, v, Gamma(v), dalpha row, tmp."""
    s = cd.structure
    return npts * (len(cd.transport_coefficients[1]) + s.dim + s.h * s.h + s.h + 1)


def _operator(cd: CurvatureData, pts: np.ndarray, vel: np.ndarray, out=None, scratch=None):
    """The matrix M (S, d, d) of y' = M y at stage points pts (S, dim) with
    curve velocities vel (S, dim), and the frame+xi components v (S, dim)
    of the velocities.  M is written into out (S, d, d) when one is given,
    the intermediate arrays, v among them, into the first _scratch_floats
    of scratch.

    One tape evaluates the basis, its cofactors and determinant, and the
    coefficients that are not literal zeros, the stored entries of
    Gamma_h, Gamma_xi, R and dalpha (cd.transport_coefficients); v is
    Cramer's rule, the cofactors' transpose times vel over det.  Each entry
    adds its term to M for every stage point at once.  Given v, M is bit
    for bit the dense einsum contraction, signs of zeros included: every
    sum starts at +0.0 and takes its terms in the index order of that
    contraction, as einsum does for two or more points, and a left-out
    term would add +-0.0 to a partial sum that is never -0.0."""
    h, dim = cd.structure.h, cd.structure.dim
    npts, hh, nb = len(pts), h * h, dim * dim
    (Gh, G0, R, B), roots = cd.transport_coefficients
    scratch = np.empty(_scratch_floats(cd, npts)) if scratch is None else scratch
    n0 = len(roots) * npts
    n1, n2 = n0 + dim * npts, n0 + (dim + hh) * npts
    vals, vt = scratch[:n0].reshape(-1, npts), scratch[n0:n1].reshape(dim, npts)
    G, c = scratch[n1:n2].reshape(npts, h, h), scratch[n2 : n2 + h * npts].reshape(npts, h)
    tmp = scratch[n2 + h * npts : n2 + (h + 1) * npts]
    cd.transport_values(pts, vals)
    if not (np.isfinite(pts).all() and np.isfinite(vel).all() and np.isfinite(vals[:nb]).all()):
        raise ex.EvalError("curve leaves the evaluable domain of the structure")
    if not (np.isfinite(vals[nb:]).all() and vals[2 * nb].all()):
        if not (np.isfinite(vals[nb : 2 * nb + 1]).all() and vals[2 * nb].all()):
            raise ex.EvalError("frame degenerates along the curve")
        raise ex.EvalError("connection data is not finite along the curve")
    np.einsum("kis,si->ks", vals[nb : 2 * nb].reshape(dim, dim, npts), vel, out=vt)
    vt /= vals[2 * nb]
    v = vt.T
    i1 = 2 * nb + 1 + len(Gh.entries)
    i2, i3 = i1 + len(G0.entries), i1 + len(G0.entries) + len(R.entries)
    Gh_v, G0_v, R_v, B_v = vals[2 * nb + 1 : i1], vals[i1:i2], vals[i2:i3], vals[i3:]
    vh = v[:, :h]
    # Gamma(v) as matrices acting on column vectors: G[s, k, j]
    G.fill(0.0)
    for (a, j, k), g in zip(Gh.entries, Gh_v):
        G[:, k, j] += np.multiply(vt[a], g, out=tmp)
    for (j, k), g in zip(G0.entries, G0_v):
        G[:, k, j] += np.multiply(vt[h], g, out=tmp)
    M = np.empty((npts, h + hh + 1, h + hh + 1)) if out is None else out
    M.fill(0.0)
    # x' = -A v - Gamma(v) x: x^k reads -(0 + v^j) from A[k, j], -0.0 from
    # the rest of A.  A' = R(x, v) - Gamma(v) A + A Gamma(v), A row-major:
    # its A block is I (x) Gamma(v)^T - Gamma(v) (x) I, zeros +0.0, which
    # the fill leaves where Gamma stores nothing
    stored = bool(Gh.entries or G0.entries)
    M[:, :h, :-1] = -0.0
    if stored:
        np.negative(G, out=M[:, :h, :h])
    np.negative(np.add(vh, 0.0, out=c), out=c)  # -(0 + v^j), in the dalpha row's buffer
    for k in range(h):
        row = slice(h + k * h, h + (k + 1) * h)  # A[k, :]
        M[:, k, row] = c
        if stored:
            M[:, row, row] = G.transpose(0, 2, 1)
    for j in range(h * stored):
        M[:, h + j : -1 : h, h + j : -1 : h] -= G
    for (a, b, j, k), r in zip(R.entries, R_v):
        M[:, h + k * h + j, a] += np.multiply(vt[b], r, out=tmp)
    # c' = -dalpha(x, v)
    c.fill(0.0)
    for (a, b), w in zip(B.entries, B_v):
        c[:, a] += np.multiply(w, vt[b], out=tmp)
    np.negative(c, out=M[:, -1, :h])
    return M, v


def _stage_form(nb: int, d: int) -> bool:
    """Whether nb curves of state size d run by RK4 stages, whose numpy calls cost about
    10 us a step at any nb, or by grouped steps, which cost about 0.008 d^2 us a curve and
    step more: timed on heisenberg:1 and :3, stages win from 25 curves at d = 7, 1 at 43."""
    return nb * d * d >= 1200


@np.errstate(over="ignore", invalid="ignore")  # a state past the float range: inf, nan
def _propagate(cd: CurvatureData, y: np.ndarray, stages, nsteps: int, hstep: float, viol=None):
    """Advance the states y (B, d) by nsteps RK4 steps of size hstep along B curves.
    stages(rows, k0, k1, pts, vel) writes the points and velocities (dim, k1 - k0, b) of
    the curves in the slice rows at stages k0..k1-1, stage k at t0 + k hstep / 2.  The
    curves go in balanced passes: as wide as a block of three stages allows for
    _stage_steps; for _step_increments, narrow enough that a block holds a group, and
    blocks hold whole groups.  Every block-sized array is a view of one workspace.
    Returns the end states with A projected to skew (halved first: no finite A
    overflows) and the drift max |A + A^T| of each before the projection; a state past
    the float range ends in inf or nan, without a warning.  viol, zeros (B,) when given,
    takes the max |alpha(gamma')| over the stages of each curve."""
    nb_total, d = y.shape
    h, dim, dd = cd.structure.h, cd.structure.dim, d * d
    y = y.copy()
    wide = _stage_form(nb_total, d)
    least = 1 if wide else min(nsteps, GROUP_STEPS)  # steps a block takes, at least
    block = max(2 * least + 1, min(STAGE_BLOCK, OPERATOR_FLOATS // dd))  # stage points a block
    width = max(1, block // (2 * least + 1))  # curves a pass, at most
    npass = -(-nb_total // width)  # balanced: their widths differ by one at most
    passes = [slice(nb_total * p // npass, nb_total * (p + 1) // npass) for p in range(npass)]

    def steps(nb: int) -> int:  # RK4 steps a block of nb curves takes: whole groups if narrow
        k = min(nsteps, (block // nb - 1) // 2)
        return k if wide or k == nsteps else k - k % GROUP_STEPS

    def chunk(nb: int) -> int:  # steps the step arrays hold: half a block's groups, rounded up
        return 0 if wide else GROUP_STEPS * -(-steps(nb) // (2 * GROUP_STEPS))

    widths = {rows.stop - rows.start for rows in passes}
    nstage = max(((2 * steps(nb) + 1) * nb for nb in widths), default=0)
    nstep = max((chunk(nb) * nb for nb in widths), default=0)
    sizes = [nstage * dd] + [nstep * dd] * 3 + [nstage * dim] * 2
    sizes += [_scratch_floats(cd, nstage), 5 * max(widths, default=0) * d]
    Mw, tw, Dw, Kw, pw, vw, scratch, sw = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    for rows in passes:
        nb = rows.stop - rows.start
        per_block, half = steps(nb), chunk(nb)
        ycol, vec = y[rows][..., None], sw[: 5 * nb * d].reshape(5, nb, d, 1)  # ycol: a view of y
        for i0 in range(0, nsteps, per_block):
            k = min(per_block, nsteps - i0)
            carried = int(i0 > 0)  # stage 0 then holds the previous block's last M
            npts = (2 * k + 1 - carried) * nb
            pts, vel = (w[: npts * dim].reshape(dim, -1, nb) for w in (pw, vw))
            stages(rows, 2 * i0 + carried, 2 * (i0 + k) + 1, pts, vel)
            M = Mw[: (2 * k + 1) * nb * dd].reshape(2 * k + 1, nb, d, d)
            out = M[carried:].reshape(-1, d, d)
            v = _operator(cd, pts.reshape(dim, npts).T, vel.reshape(dim, npts).T, out, scratch)[1]
            if viol is not None:
                viol[rows] = np.maximum(viol[rows], np.abs(v[:, h]).reshape(-1, nb).max(axis=0))
            if wide:
                _stage_steps(M, ycol, vec, hstep)
            else:
                for j0 in range(0, k, half):
                    Mj = M[2 * j0 : 2 * min(k, j0 + half) + 1]
                    for E in _step_increments(Mj, hstep, tw, Dw, Kw):
                        np.matmul(E, ycol, out=vec[0])  # y + E y rounds once a group
                        ycol += vec[0]
            M[0] = M[-1]  # carried to the next block
    A = y[:, h:-1].reshape(-1, h, h)  # a view of y
    drift = np.abs(A + np.swapaxes(A, 1, 2)).reshape(nb_total, -1).max(axis=1, initial=0.0)
    A *= 0.5
    A -= np.swapaxes(A, 1, 2)  # numpy buffers the overlapping operand
    return y, drift


def _stage_steps(M: np.ndarray, ycol: np.ndarray, buf: np.ndarray, hstep: float) -> None:
    """Advance ycol (b, d, 1) in place by the RK4 steps of the stage operators
    M (2k + 1, b, d, d) through the stages k1 = M0 y, k2 = M1 (y + h/2 k1),
    k3 = M1 (y + h/2 k2), k4 = M2 (y + h k3), in buf (5, b, d, 1)."""
    k1, k2, k3, k4, t = buf
    half = 0.5 * hstep
    for j in range(len(M) // 2):
        M0, M1, M2 = M[2 * j], M[2 * j + 1], M[2 * j + 2]
        np.matmul(M0, ycol, out=k1)
        for src, c, Mj, dst in ((k1, half, M1, k2), (k2, half, M1, k3), (k3, hstep, M2, k4)):
            np.multiply(src, c, out=t)
            t += ycol
            np.matmul(Mj, t, out=dst)
        # y += h/6 (((k1 + 2 k2) + 2 k3) + k4), the serial loop's sum
        k2 *= 2
        k2 += k1
        k3 *= 2
        k2 += k3
        k2 += k4
        k2 *= hstep / 6.0
        ycol += k2


def _step_increments(M: np.ndarray, hstep: float, tw, Dw, Kw) -> np.ndarray:
    """E (g, b, d, d), the propagators minus I of the aligned groups of GROUP_STEPS steps
    of the stage operators M (2k + 1, b, d, d), the last short if need be: each step's
    P - I, then E = D2 + D1 + D2 D1 over adjacent pairs (an unpaired last one carried up)
    log2 GROUP_STEPS times, in the flat buffers tw, Dw, Kw."""
    M0, M1, M2 = M[0:-1:2], M[1::2], M[2::2]
    t, D, K = (w[: M1.size].reshape(M1.shape) for w in (tw, Dw, Kw))
    # K2 = M1 (I + h/2 M0) into D, then K3 = M1 (I + h/2 K2) and
    # K4 = M2 (I + h K3) into K; each I + c K is built in t
    for src, c, dst in ((M0, 0.5 * hstep, D), (D, 0.5 * hstep, K), (K, hstep, None)):
        np.multiply(src, c, out=t)
        t += np.eye(M.shape[-1])
        if dst is not None:
            np.matmul(M1, t, out=dst)
    # P - I = h/6 (((M0 + 2 K2) + 2 K3) + K4), rounded as that sum is
    D *= 2
    D += M0
    K *= 2
    D += K
    np.matmul(M2, t, out=K)
    D += K
    D *= hstep / 6.0
    E, F = D, K
    for _ in range(GROUP_STEPS.bit_length() - 1):
        n, m = len(E), len(E) // 2
        E1, E2 = E[0 : 2 * m : 2], E[1 : 2 * m : 2]
        np.matmul(E2, E1, out=t[:m])
        np.add(E2, E1, out=F[:m])
        F[:m] += t[:m]
        F[m : n - m] = E[2 * m :]  # an unpaired last one
        E, F = F[: n - m], E
    return E


def _curve_stages(curve: Curve, nsteps: int):
    """Stage points and velocities of one expression curve, by its tapes."""
    position, velocity = curve.tapes
    span = curve.t1 - curve.t0

    def stages(rows, k0, k1, pts, vel):
        ts = curve.t0 + span * np.arange(k0, k1) / (2 * nsteps)
        position(ts, out=pts[..., 0])
        velocity(ts, out=vel[..., 0])

    return stages


def _segment_stages(p: np.ndarray, dp: np.ndarray, nsteps: int):
    """Stage points p + dp t and velocities dp of straight segments over
    t in [0, 1], the arithmetic of segment_curve."""

    def stages(rows, k0, k1, pts, vel):
        ts = np.arange(k0, k1) / (2 * nsteps)
        np.multiply(dp[rows].T[:, None], ts[:, None], out=pts)
        pts += p[rows].T[:, None]
        vel[...] = dp[rows].T[:, None]

    return stages


def transport(
    cd: CurvatureData,
    gen: Generator,
    curve: Curve,
    step: float = 1e-3,
    require_horizontal: bool = False,
) -> TransportResult:
    """Integrate the prolongation system along the curve.

    The step is the RK4 step per unit of curve parameter: the curve takes
    ceil(|t1 - t0| / step) equal steps, at least one and at most MAX_STEPS.
    The endpoint state is returned with A projected back to skew (the raw
    drift is recorded).  This is the batched kernel on a batch of one.
    """
    s = cd.structure
    if not s.coords:
        raise StructureError("transport requires a chart-mode structure")
    span = curve.t1 - curve.t0
    nsteps = _step_count(span, step)
    start = curve.point_at(curve.t0)
    if gen.q is None or np.max(np.abs(gen.q - start)) > 1e-9:
        raise TransportInputError("generator base point does not match the curve start")

    viol, stages = np.zeros(1), _curve_stages(curve, nsteps)
    y, drift = _propagate(cd, _pack_state(gen)[None], stages, nsteps, span / nsteps, viol)
    viol = float(viol[0])
    if require_horizontal and viol > HORIZONTAL_TOL:
        raise CheckFailure(
            f"curve is not horizontal: max |alpha(gamma')| = {viol:.3e}"
        )
    h = s.h
    end = curve.point_at(curve.t1)
    out = Generator(X=y[0, :h], A=y[0, h:-1].reshape(h, h), c=y[0, -1], q=end)
    return TransportResult(
        gen=out, skew_drift=float(drift[0]), steps=nsteps, horizontal_violation=viol
    )


def path_independence(
    cd: CurvatureData,
    gen: Generator,
    curve1: Curve,
    curve2: Curve,
    step: float = 1e-3,
) -> dict:
    """Transport along two curves with shared endpoints; the componentwise
    endpoint deviation is the report."""
    p1, p2 = curve1.point_at(curve1.t1), curve2.point_at(curve2.t1)
    if np.max(np.abs(p1 - p2)) > 1e-9:
        raise TransportInputError("curves do not share their endpoint")
    s1, s2 = curve1.point_at(curve1.t0), curve2.point_at(curve2.t0)
    if np.max(np.abs(s1 - s2)) > 1e-9:
        raise TransportInputError("curves do not share their start point")
    r1 = transport(cd, gen, curve1, step)
    r2 = transport(cd, gen, curve2, step)
    dev = _max_abs([r1.gen.X - r2.gen.X, r1.gen.A - r2.gen.A, r1.gen.c - r2.gen.c])
    return {
        "deviation": dev,
        "end1": r1,
        "end2": r2,
    }


def segment_curve(p: np.ndarray, q: np.ndarray) -> Curve:
    """Straight coordinate segment p -> q over t in [0, 1], exact."""
    exprs = []
    for a, b in zip(p, q):
        fa, fb = Fraction(float(a)), Fraction(float(b))
        exprs.append(
            ex.add(Const(fa), ex.mul(Const(fb - fa), ex.Var("t")))
        )
    return Curve(exprs=exprs, t0=0.0, t1=1.0)


@np.errstate(over="ignore")  # a difference past the float range: inf, which _operator refuses
def _segment_transport(
    cd: CurvatureData, y: np.ndarray, starts: np.ndarray, ends: np.ndarray, nsteps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transport the states y (B, d) along the segments starts -> ends, each
    parametrized as segment_curve does: p + dp t over t in [0, 1], with dp
    the exact difference rounded once, which IEEE 754 subtraction is (+ 0.0
    turns its -0.0 into the exact difference's +0.0).  Returns the end states,
    A projected to skew, and the segment points at t = 1.  A segment shorter
    than 1e-15 is skipped: its state and point stay as they are."""
    dp = ends - starts + 0.0
    moved = ~(np.max(np.abs(dp), axis=1) < 1e-15)  # an overflowing (inf) difference moves
    y, points = y.copy(), starts.copy()
    stages = _segment_stages(starts[moved], dp[moved], nsteps)
    y[moved] = _propagate(cd, y[moved], stages, nsteps, 1.0 / nsteps)[0]
    points[moved] += dp[moved]
    return y, points


def reconstruct_field(
    cd: CurvatureData,
    gen: Generator,
    grid: Grid,
    step: float = 1e-3,
) -> DiscreteField:
    """Transport gen from its base point to every grid point along the
    two-leg path q0 -> (q0 with the vertical coordinate of q) -> q, and
    emit Z = X^k e_k + c xi in coordinates.

    Each leg is a segment over t in [0, 1], so with the step per unit of
    curve parameter every leg takes ceil(1 / step) steps whatever its
    length.  Leg 1 is one batch over the distinct vertical values, leg 2
    one batch over the grid points; a leg shorter than 1e-15 is skipped.

    The generator must lie in span(i(q0)); degenerate inputs are rejected
    because only those extend to Killing fields.
    """
    s = cd.structure
    if not s.coords:
        raise StructureError("reconstruction requires a chart-mode structure")
    nsteps = _step_count(1.0, step)
    space = generator_space(cd, gen.q)
    res = space.membership_residual(gen)
    if not res <= MEMBERSHIP_TOL:  # a NaN residual is refused too
        raise CheckFailure(
            f"generator is not in the computed i(q0) (residual {res:.3e}); "
            "only such generators extend to Killing fields"
        )
    q0 = gen.q
    points = grid.points
    h = s.h

    # leg 1: q0 -> (q0 with vertical value z), once per distinct z; mid is
    # where leg 2 starts, the leg's end point or q0 where it is skipped
    _, first, which = np.unique(points[:, -1], return_index=True, return_inverse=True)
    starts = np.repeat(q0[None, :], len(first), axis=0)
    target = starts.copy()
    target[:, -1] = points[first, -1]
    y_mid = np.repeat(_pack_state(gen)[None, :], len(first), axis=0)
    y_mid, mid = _segment_transport(cd, y_mid, starts, target, nsteps)

    # leg 2: mid -> q, for every grid point
    y = _segment_transport(cd, y_mid[which], mid[which], points, nsteps)[0]

    X = y[:, :h]
    Avals = y[:, h:-1].reshape(-1, h, h)
    cvals = y[:, -1]
    basis = s.basis_matrix_at(points)  # columns e_1..e_2n, xi
    coeff = np.concatenate([X, cvals[:, None]], axis=1)
    Z_coords = np.einsum("pik,pk->pi", basis, coeff)
    return DiscreteField(grid=grid, X=X, c=cvals, A=Avals, Z_coords=Z_coords)


# ---------------------------------------------------------------------------
# Killing verification.
# ---------------------------------------------------------------------------


def verify_killing(
    cd: CurvatureData,
    Z: list[Expression],
    points=None,
    tol: float = FIELD_TOL,
    bracket_data: tuple | None = None,
) -> list[CheckRecord]:
    """Six residual checks for an expression-valued field:
    (a) the Killing equation on frame pairs, (b) nabla_xi A_Z,
    (c) nabla_{e_a} A_Z - R(Z,e_a), (d) nabla_V PZ + A_Z V for V in frame
    and xi, (e) [xi, Z], (f) Lie_Z alpha on frame and xi arguments.  Each
    identity is checked once: the contact condition dalpha(Z, e_j) +
    e_j(alpha(Z)) is (f) on the frame (Cartan's formula), and A_Z + A_Z^T is
    (a), as Gamma is skew.  bracket_data is Z's _bracket_data when the
    caller holds it."""
    s = cd.structure
    conn = cd.connection
    h = s.h
    checks: dict[str, list[Expression]] = {}

    def rec(name: str, exprs) -> None:
        checks[name] = list(exprs)

    bracket_data = bracket_data or _bracket_data(s, Z)
    brackets, dec = bracket_data

    # (a) Killing equation: <P[Z,e_i],e_j> + <e_i,P[Z,e_j]> (Z<e_i,e_j> = 0)
    rec("killing_metric", _killing_metric_terms(dec, h))

    Af = a_z_field(conn, Z, bracket_data)
    A_tensor = HTensor.from_dense(np.array(Af, dtype=object).T, n_upper=1)  # [lower j, upper k]

    # (b) nabla_xi A_Z = 0; the entries left out are literal zeros
    rec("a_parallel_xi", covariant_derivative(conn, A_tensor, 0).entries.values())

    # (c) nabla_{e_a} A_Z = R(Z, e_a) = R(PZ, e_a)
    zh, z0 = s.decompose(Z)
    terms = []
    for a in range(h):
        da = covariant_derivative(conn, A_tensor, a + 1)
        for j in range(h):
            for k in range(h):
                rz = ZERO
                for b in range(h):
                    rz = ex.add(rz, ex.mul(zh[b], cd.R[b, a, j, k]))
                terms.append(ex.sub(da[j, k], rz))
    rec("a_derivative_curvature", terms)

    # (d) nabla_V PZ + A_Z V for V = xi and V = e_a
    PZ = HTensor.from_dense(np.array(zh, dtype=object), n_upper=1)
    terms = []
    for a in range(h + 1):
        dz = covariant_derivative(conn, PZ, a)
        terms += [ex.add(dz[k,], Af[k][a - 1]) if a else dz[k,] for k in range(h)]
    rec("pz_gradient", terms)

    # (e) [xi, Z] = 0
    rec("reeb_commutes", s.bracket(s.reeb, Z))

    # (f) Lie_Z alpha on frame and xi arguments
    lie_xi = ex.sub(s.derivative_along(Z, s.alpha_of(s.reeb)), s.alpha_of(brackets[h]))
    rec("lie_alpha", [s.alpha_of(b) for b in brackets[:h]] + [lie_xi])

    points = s.validation_points(count=100) if points is None else points
    return residual_records(s, checks, points, tol)


def _bracket_data(s: ContactStructure, Z: list[Expression]) -> tuple[list, list]:
    """[Z, e_1], .., [Z, e_2n], [Z, xi] and their decompositions, which
    verify_killing, riemannian_extension_check and a_z_matrix read."""
    brackets = [s.bracket(Z, V) for V in s.frame + [s.reeb]]
    return brackets, [s.decompose(b) for b in brackets]


def _killing_metric_terms(dec: list, h: int) -> list[Expression]:
    """<P[Z,e_i],e_j> + <e_i,P[Z,e_j]> for i <= j, from the decompositions
    of [Z, e_i]: the Killing equation on frame pairs."""
    return [ex.add(dec[i][0][j], dec[j][0][i]) for i in range(h) for j in range(i, h)]


def verify_killing_field(
    cd: CurvatureData,
    fieldv: DiscreteField,
    tol: float = 1e-4,
) -> list[CheckRecord]:
    """Residuals e_a(y) - M(e_a) y of the transport system at the interior
    grid points, in blocks (point_blocks), over frame directions e_a: y is
    the state (X, A row-major, c), M the operator of _operator, and d_i y
    central differences.  The X, A and c rows give nabla_a X + A e_a,
    nabla_a A - R(X, e_a) and e_a(c) + dalpha(X, e_a).  The tolerance is the
    documented degraded one for discrete inputs."""
    s, grid = cd.structure, fieldv.grid
    h = s.h
    if any(k < 3 for k in grid.shape):
        raise ValueError("finite-difference checks need at least 3 points per axis")
    inner = Grid(grid.names, [a[1:-1] for a in grid.axes])
    unit = np.eye(len(grid.shape), dtype=int)[:, :, None]  # index steps along each axis

    def state(idx: np.ndarray) -> np.ndarray:
        """The states y (P, d) at the grid multi-indices idx (dim, P)."""
        p = np.ravel_multi_index(tuple(idx), grid.shape)
        return np.concatenate([fieldv.X[p], fieldv.A[p].reshape(len(p), -1), fieldv.c[p, None]], 1)

    rows = {"eqs_x_gradient": slice(h), "eqs_a_curvature": slice(h, -1), "eqs_c_gradient": -1}
    worst = dict.fromkeys(rows, 0.0)
    d = h + h * h + 1
    for sel in point_blocks(len(inner), d * d):  # M of a point
        pts = inner[sel]
        M = np.empty((len(pts), d, d))  # the operator of each frame direction in turn
        idx = np.stack(np.unravel_index(np.arange(sel.start, sel.stop), inner.shape)) + 1
        dy = np.stack(
            [(state(idx + e) - state(idx - e)) / (2.0 * dx) for e, dx in zip(unit, grid.spacings)]
        )  # (dim, P, d)
        y = state(idx)[..., None]
        frame = s.eval_table(s.frame, pts)  # (h, dim, P)
        for a in range(h):
            _operator(cd, pts, frame[a].T, out=M)
            res = np.einsum("ip,ipk->pk", frame[a], dy) - (M @ y)[..., 0]
            worst = {name: _max_abs([res[:, r], worst[name]]) for name, r in rows.items()}
    return [CheckRecord(name, r, len(inner), r < tol) for name, r in worst.items()]


def riemannian_extension_check(
    cd: CurvatureData,
    Z: list[Expression],
    points=None,
    tol: float = FIELD_TOL,
    bracket_data: tuple | None = None,
) -> list[CheckRecord]:
    """Killing residuals of the extended Riemannian metric (g on H, xi unit
    and orthogonal): Z<u,v> - <[Z,u],v> - <u,[Z,v]> over u,v in the frame
    plus xi.  bracket_data is Z's _bracket_data when the caller holds it."""
    s = cd.structure
    h = s.h
    _, dec = bracket_data or _bracket_data(s, Z)
    terms = (
        _killing_metric_terms(dec, h)
        + [ex.add(dec[i][1], dec[h][0][i]) for i in range(h)]
        + [dec[h][1]]
    )
    points = s.validation_points(count=100) if points is None else points
    return residual_records(s, {"riemannian_extension": terms}, points, tol)


def pushforward_generator(
    cd: CurvatureData, phi: list[Expression], gen: Generator
) -> Generator:
    """Push (X, A, c) forward through the diffeomorphism phi: the frame
    action O of d(phi) maps X to OX and conjugates A; c is unchanged."""
    s = cd.structure
    q = gen.q
    pts = q[None, :]
    phi_q = s.eval_scalar(phi, pts)[:, 0]
    jac = s.eval_scalar([[ex.differentiate(f, c) for c in s.coords] for f in phi], pts)[..., 0]
    Mq = s.basis_matrix_at(pts)[0]
    Mphi = s.basis_matrix_at(phi_q[None, :])[0]
    T = np.linalg.solve(Mphi, jac @ Mq)
    O = T[: s.h, : s.h]
    off = _max_abs([T[: s.h, s.h :], T[s.h :, : s.h]])
    if not off < 1e-8:
        raise ValueError(
            f"phi does not preserve the splitting H + span(xi) at q (residual {off:.3e})"
        )
    return Generator(X=O @ gen.X, A=O @ gen.A @ O.T, c=gen.c, q=phi_q)


# ---------------------------------------------------------------------------
# Curve and generator files.
# ---------------------------------------------------------------------------


def load_curve_text(text: str, s: ContactStructure) -> Curve:
    sections = _parse_sections(text)
    if "curve" not in sections:
        raise StructureError("missing [curve] section")
    body = dict(sections["curve"])
    if "t_range" not in body or "gamma" not in body:
        raise StructureError("[curve] needs t_range and gamma")
    try:
        t0, t1 = (float(p) for p in body["t_range"].split())
    except ValueError:
        raise StructureError("t_range must be '<t0> <t1>'") from None
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise StructureError("t_range must be finite")
    comps = split_components(body["gamma"])
    if len(comps) != s.dim:
        raise StructureError(f"gamma needs {s.dim} expressions")
    exprs = [ex.parse_expression(t, ["t"]) for t in comps]
    return Curve(exprs=exprs, t0=t0, t1=t1)


def load_generator_text(text: str, s: ContactStructure) -> Generator:
    sections = _parse_sections(text)
    if "generator" not in sections:
        raise StructureError("missing [generator] section")
    body = dict(sections["generator"])
    try:
        X = np.array([float(v) for v in body["X"].replace(",", " ").split()])
        c = float(body["c"])
        at = np.array([float(v) for v in body["at"].replace(",", " ").split()])
    except (KeyError, ValueError) as e:
        raise StructureError(f"bad [generator] section: {e}") from None
    if not (np.isfinite(X).all() and np.isfinite(at).all() and math.isfinite(c)):
        raise StructureError("bad [generator] section: X, c and at must be finite")
    h = s.h
    if len(X) != h:
        raise StructureError(f"X needs {h} components")
    if s.coords and len(at) != s.dim:
        raise StructureError(f"at needs {s.dim} coordinates")
    A = np.zeros((h, h))
    rows = [r.strip() for r in body.get("A", "").split(";") if r.strip()]
    if len(rows) != h - 1:  # row i has i entries (strict lower)
        raise StructureError(f"A needs {h - 1} strictly-lower-triangle rows separated by ';'")
    for i, row in enumerate(rows, start=1):
        try:
            vals = [float(v) for v in row.replace(",", " ").split()]
        except ValueError as e:
            raise StructureError(f"bad [generator] section: {e}") from None
        if len(vals) != i:
            raise StructureError(f"A row {i} needs {i} entries")
        if not np.isfinite(vals).all():
            raise StructureError(f"A row {i} must be finite")
        A[i, :i] = vals
        A[:i, i] = np.negative(vals)
    return Generator(X=X, A=A, c=c, q=at if s.coords else None)
