"""Contact sub-Riemannian structures from orthonormal horizontal frames.

A structure is specified either by 2n chart-coordinate vector fields
(``chart`` mode) or by constant structure constants of a (2n+1)-dimensional
Lie algebra with H spanned by the first 2n basis vectors (``lie`` mode).
Loading a structure computes, in order: the raw annihilator of H (a
generalized cross product of the frame), the normalized contact form alpha
with wedge^n dalpha(e_1..e_2n) = 1, the Reeb field xi, the structure
functions of the basis (e_1..e_2n, xi), and the "special" certification
(the Reeb flow is an isometry) on a grid or on seeded points of the box,
by one path for both modes.  Seeded points come from a counter-based
SplitMix64 in numpy integers (BoxSample), the same on every numpy version.
Every bracket is taken by ContactStructure.bracket: the coordinate
Jacobi-Lie bracket in chart mode, the structure constants as given in lie
mode, whose frame is e_1..e_2n in basis components.

The frame is orthonormal by declaration, so the metric never appears
explicitly: inner products of horizontal fields are dot products of frame
components.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr as ex
from .expr import Expression, Const, ZERO, ONE

try:  # CPython's own sha256 (3.12+, then 3.10-3.11): no OpenSSL is loaded
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # not CPython
        from hashlib import sha256

__all__ = [
    "ContactStructure",
    "Brackets",
    "Grid",
    "CheckRecord",
    "CheckFailure",
    "StructureError",
    "OrientationError",
    "NotContactError",
    "lie_bracket",
    "normalize_contact_form",
    "compute_reeb",
    "structure_functions",
    "check_special",
    "structure_checks",
    "load_structure",
    "load_structure_text",
    "sample_box_points",
    "determinant_minors",
    "pfaffian_minors",
    "wedge_power",
]


class StructureError(Exception):
    """Invalid or inconsistent structure input."""


class OrientationError(StructureError):
    """n even and the frame orientation is incompatible with normalization."""


class NotContactError(StructureError):
    """The horizontal distribution fails the contact condition."""


class CheckFailure(ValueError):
    """A computation ran and one of its checks failed: the report is a
    check failure (CLI exit 3), not an input error."""


@dataclass
class CheckRecord:
    check: str
    max_residual: float
    points_tested: int
    pass_: bool

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "max_residual": self.max_residual,
            "points_tested": self.points_tested,
            "pass": self.pass_,
        }


DEFAULT_TOL = 1e-10
# Float entries that the largest array of one block of points may hold: a
# check over a point set runs block by block (point_blocks).  A point counts
# as at least POINT_ENTRIES floats (coordinates, grid indices, value rows).
BLOCK_ENTRIES = 2**16
POINT_ENTRIES = 16
# SplitMix64 (Steele, Lea, Flood, OOPSLA 2014): its increment, mix's multipliers.
GAMMA, MIX1, MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on the uint64 array z (tmp: scratch)."""
    for shift, mult in ((30, MIX1), (27, MIX2), (31, None)):
        z ^= np.right_shift(z, shift, out=tmp)
        if mult:
            z *= np.uint64(mult)
    return z


def sample_box_points(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """Seeded uniform sample in [-1, 1)^dim: the points of BoxSample after its origin."""
    return BoxSample(dim, count, seed)[1:]


def _max_abs(arrays) -> float:
    """max |v| over every entry of the arrays (or numbers), 0.0 when there
    are none.  It is read as max(max v, -min v), exact and with no array of
    |v| made; + 0.0 turns the -0.0 of all-zero entries into |v|'s 0.0.  A
    NaN entry makes the result NaN, so a residual test `residual < tol`
    fails on it instead of skipping it."""
    worst = 0.0
    for vals in arrays:
        vals = np.asarray(vals)
        if vals.size:
            worst = float(np.maximum(np.maximum(vals.max(), -vals.min()), worst)) + 0.0
    return worst


@dataclass
class Grid:
    """The tensor grid of the axes, in C order.  Indexed like the (N, dim)
    array of its points, it makes just those points (np.unravel_index)."""

    names: list[str]
    axes: list[np.ndarray]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    def __len__(self) -> int:
        return math.prod(self.shape) if self.axes else 0

    def __getitem__(self, sel) -> np.ndarray:
        r = range(len(self))[sel]
        flat = np.arange(r.start, r.stop, r.step) if isinstance(r, range) else r
        idx = np.unravel_index(flat, self.shape)
        return np.stack([a[i] for a, i in zip(self.axes, idx)], axis=-1)

    @property
    def points(self) -> np.ndarray:
        return self[:] if len(self) else np.zeros((0, len(self.axes)))

    @property
    def spacings(self) -> list[float]:
        return [float(a[1] - a[0]) if len(a) > 1 else 0.0 for a in self.axes]


class BoxSample:
    """The origin, then count seeded points of the box [-1, 1)^dim:
    coordinate i of sample point j (point j + 1) is 2u - 1, u the 53-bit
    float of mix(mix(seed) + (j dim + i + 1) GAMMA), a function of (seed, j)
    alone.  Indexed like the (N, dim) array of its points, by an int or a
    slice of step 1, it makes just those points, in place into one buffer
    that every slice reuses: a slice holds until the next one is read."""

    def __init__(self, dim: int, count: int, seed: int = 0):
        self.dim, self.count, self.seed = dim, count, seed
        self._key = int(_mix(np.array([seed], np.uint64), np.empty(1, np.uint64))[0])
        self._out = np.empty((0, dim))
        self._steps = self._draws = np.empty(0, np.uint64)  # k GAMMA; the draws

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self), self.dim)

    def __len__(self) -> int:
        return self.count + 1

    def __getitem__(self, sel) -> np.ndarray:
        r = range(len(self))[sel]
        if isinstance(r, int):
            return self[r : r + 1][0].copy()
        if r.step != 1:
            raise IndexError("a box sample takes slices of step 1 only")
        if len(self._out) < len(r):
            self._out = np.empty((len(r), self.dim))
            self._steps = np.arange(self._out.size, dtype=np.uint64) * np.uint64(GAMMA)
            self._draws = np.empty_like(self._steps)
        out = self._out[: len(r)]
        first = max(r.start, 1)
        out[: first - r.start] = 0.0  # the origin, when r starts at it
        coords = out[first - r.start :].reshape(-1)
        base = (self._key + ((first - 1) * self.dim + 1) * GAMMA) % 2**64
        z = np.add(self._steps[: coords.size], np.uint64(base), out=self._draws[: coords.size])
        _mix(z, coords.view(np.uint64))  # the coordinates' buffer as scratch
        z >>= 11
        np.multiply(z, 2.0**-52, out=coords)  # 2u, u = z 2^-53
        coords -= 1.0
        return out


def as_points(points):
    """points as a Grid, a BoxSample or an (N, dim) float array: each takes
    len and slices."""
    if isinstance(points, (Grid, BoxSample)):
        return points
    return np.atleast_2d(np.asarray(points, dtype=float))


def point_blocks(npts: int, per_point: int):
    """Consecutive slices over npts points, of BLOCK_ENTRIES // max(per_point,
    POINT_ENTRIES) points (at least one): an array of per_point floats a
    point stays within BLOCK_ENTRIES on every block of more than one point."""
    size = max(1, BLOCK_ENTRIES // max(per_point, POINT_ENTRIES))
    return (slice(i, min(i + size, npts)) for i in range(0, npts, size))


def fold_max_abs(points, per_point: int, residuals) -> dict[str, float]:
    """Max residuals over points (as_points), block by block: residuals(pts)
    yields each check's (name, arrays) at a block's points, and _max_abs
    (exact, NaN-keeping, so blind to the blocks) folds them.  Each check is
    folded before the next is made, so its arrays may be overwritten by the
    next one's, and a block's arrays go before the next block's."""
    points = as_points(points)
    worst: dict[str, float] = {}
    for sel in point_blocks(len(points), per_point):
        worst = {
            name: _max_abs([*arrays, worst.get(name, 0.0)])
            for name, arrays in residuals(points[sel])
        }
    return worst


def max_residuals(s: ContactStructure, checks: dict, points) -> dict[str, float]:
    """name -> max |value| at points (as_points) of each list of residual
    expressions in checks.  A literal constant has one value at every point
    and is read once; the other expressions of a list go through one tape
    compiled for this call, folded over the blocks."""
    worst, live = {}, {}
    for name, terms in checks.items():
        worst[name] = _max_abs(abs(ex._const_float(e.value)) for e in terms if isinstance(e, Const))
        live[name] = [e for e in terms if not isinstance(e, Const)]
    tapes = {k: s.evaluator(t, cached=False) for k, t in live.items() if t}

    def residuals(p: np.ndarray):
        return ((k, [f(p), worst[k]]) for k, f in tapes.items())

    if tapes:
        worst.update(fold_max_abs(points, max(map(len, live.values())), residuals))
    return worst


def residual_records(s: ContactStructure, checks: dict, points, tol: float) -> list[CheckRecord]:
    """A record for each name -> residual expressions of checks: its
    max_residuals at points (as_points), passing under tol."""
    points = as_points(points)
    worst = max_residuals(s, checks, points).items()
    return [CheckRecord(name, r, len(points), bool(r < tol)) for name, r in worst]


def _evaluate(fn, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A tape compiled by expr.compile_expression at points (N, dim), the
    point axis last, written into out (roots, N) when one is given.  In lie
    mode (no coordinates) the tape computes one point, and points is that
    one point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return fn(*points.T, out=out)


# ---------------------------------------------------------------------------
# Symbolic linear algebra over Expression entries.
# ---------------------------------------------------------------------------


def determinant_minors(mat):
    """minor(rows, cols): the determinant of the Expression matrix mat on
    the original rows and cols (increasing index tuples of equal length),
    expanded along the first remaining row,
        det = sum_p (-1)^p mat[rows[0]][cols[p]] det(rows[1:], cols without p),
    and memoized on (rows, cols): all minors of one matrix share subterms.
    A literal-zero entry's term is skipped: it would add ZERO.
    """
    memo: dict = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...], rec) -> Expression:
        if len(cols) == 1:
            return mat[rows[0]][cols[0]]
        hit = memo.get((rows, cols))
        if hit is None:
            hit = ZERO
            for p, j in enumerate(cols):
                a = mat[rows[0]][j]
                if isinstance(a, Const) and not a.value:
                    continue
                term = ex.mul(a, rec(rows[1:], cols[:p] + cols[p + 1 :], rec))
                hit = ex.add(hit, term) if p % 2 == 0 else ex.sub(hit, term)
            memo[(rows, cols)] = hit
        return hit

    # minor reaches itself through an argument, as pf does in pfaffian_minors
    return lambda rows, cols: minor(tuple(rows), tuple(cols), minor)


def pfaffian_minors(A):
    """pf(idx): the Pfaffian of the skew Expression matrix A restricted to
    the rows and columns in idx, an increasing tuple of even length.

    Expands along the first remaining row,
        Pf = sum_p (-1)^(p+1) A[idx[0]][idx[p]] Pf(idx without 0 and p),
    memoized on idx, so all Pfaffian minors of one matrix share their
    subterms.  The term of a literal-zero entry is skipped, as in
    determinant_minors: it would add ZERO.
    """
    memo: dict = {(): ONE}

    def pf(idx: tuple[int, ...], rec) -> Expression:
        hit = memo.get(idx)
        if hit is None:
            i, hit = idx[0], ZERO
            for p in range(1, len(idx)):
                a = A[i][idx[p]]
                if isinstance(a, Const) and not a.value:
                    continue
                term = ex.mul(a, rec(idx[1:p] + idx[p + 1 :], rec))
                hit = ex.add(hit, term) if p % 2 else ex.sub(hit, term)
            memo[idx] = hit
        return hit

    # pf reaches itself through an argument, not its closure: no reference
    # cycle holds the memo, so its minors go as soon as pf does
    return lambda idx: pf(idx, pf)


def wedge_power(B, n: int) -> Expression:
    """wedge^n B (e_1..e_2n) = n! Pf(B) of the 2-form whose Expression matrix
    on e_1..e_2n is B, with the Pfaffian expanded by pfaffian_minors."""
    return ex.mul(Const(Fraction(math.factorial(n))), pfaffian_minors(B)(tuple(range(2 * n))))


# ---------------------------------------------------------------------------
# Core geometric operations, for both modes: every derivative is taken by
# ContactStructure.derivative_along and every bracket by
# ContactStructure.bracket.
# ---------------------------------------------------------------------------


def lie_bracket(V: list[Expression], W: list[Expression], coords: list[str]) -> list[Expression]:
    """Jacobi-Lie bracket [V,W]^k = sum_i (V^i d_i W^k - W^i d_i V^k), exact."""
    if all(isinstance(c, Const) for c in (*V, *W)):
        return [ZERO] * len(coords)  # constant fields commute
    out = []
    for k in range(len(coords)):
        acc: Expression = ZERO
        for i, ci in enumerate(coords):
            acc = ex.add(acc, ex.mul(V[i], ex.differentiate(W[k], ci)))
            acc = ex.sub(acc, ex.mul(W[i], ex.differentiate(V[k], ci)))
        out.append(ex.normalize(acc))
    return out


def _unit_fields(dim: int) -> list[list[Expression]]:
    """The unit component fields u_1..u_dim: the coordinate fields in chart
    mode, the Lie algebra basis in lie mode."""
    return [[ONE if i == j else ZERO for i in range(dim)] for j in range(dim)]


def _exterior_derivative(s: ContactStructure, theta: list[Expression]) -> list[list[Expression]]:
    """D_ij = dtheta(u_i, u_j) = u_i(theta_j) - u_j(theta_i) - theta([u_i, u_j])
    over the unit component fields u_i (_unit_fields).  In chart mode their
    brackets vanish; in lie mode every derivative does."""
    unit = _unit_fields(s.dim)
    D = [[ZERO] * s.dim for _ in unit]
    for i, j in itertools.combinations(range(s.dim), 2):
        dij = ex.sub(s.derivative_along(unit[i], theta[j]), s.derivative_along(unit[j], theta[i]))
        D[i][j] = ex.normalize(ex.sub(dij, _pairing(theta, s.bracket(unit[i], unit[j]))))
        D[j][i] = ex.neg(D[i][j])
    return D


def _pairing(covector: list[Expression], vector: list[Expression]) -> Expression:
    acc: Expression = ZERO
    for a, v in zip(covector, vector):
        acc = ex.add(acc, ex.mul(a, v))
    return acc


def _two_form_on(D: list[list[Expression]], V: list[Expression], W: list[Expression]) -> Expression:
    """sum_ij V^i D_ij W^j; a literal-zero component's terms are skipped:
    they would add ZERO."""
    acc: Expression = ZERO
    for i, vi in enumerate(V):
        if isinstance(vi, Const) and not vi.value:
            continue
        for j, wj in enumerate(W):
            if not (isinstance(wj, Const) and not wj.value):
                acc = ex.add(acc, ex.mul(ex.mul(vi, D[i][j]), wj))
    return acc


def _power(v: Expression, r: Fraction) -> Expression:
    """v^r, an exact Const when v is a constant with a rational root (an odd
    root of a negative constant keeps its sign), pow_ otherwise."""
    if isinstance(v, Const) and v.value and r.denominator > 1:
        q, sign = r.denominator, 1 if v.value > 0 else -1
        num, den = _iroot(abs(v.value.numerator), q), _iroot(v.value.denominator, q)
        if num is not None and den is not None and (sign > 0 or q % 2):
            return ex.pow_(Const(sign * Fraction(num, den)), r.numerator)
    return ex.pow_(v, r)


def _iroot(m: int, n: int) -> int | None:
    """The exact n-th root of the integer m >= 1 by integer Newton steps, or None."""
    r = 1 << -(-m.bit_length() // n)
    while (s := ((n - 1) * r + m // r ** (n - 1)) // n) < r:
        r = s
    return r if r**n == m else None


def _sample_values(s: ContactStructure, e: Expression, samples: np.ndarray) -> np.ndarray:
    """The scalar e at the samples; a constant gives only its sign, so that a
    test on it decides from its exact value, which may lie past the float
    range."""
    if isinstance(e, Const):
        return np.array([float((e.value > 0) - (e.value < 0))])
    return _evaluate(ex.compile_expression(e, s.coords), samples)


@dataclass
class _NormalizationData:
    """Intermediates of the normalization, kept for downstream formulas.

    alpha = v^(-1/n) alpha0, and the component matrix of dalpha factors as
    dalpha_ij = v^(-(n+1)/n) E_ij with E polynomial for polynomial frames:
    E = v * dalpha0 - (1/n) (dv ^ alpha0).
    """

    alpha0: list[Expression]
    v: Expression
    E: list[list[Expression]]


def normalize_contact_form(
    s: ContactStructure, samples: np.ndarray
) -> tuple[list[Expression], int, _NormalizationData]:
    """Normalized contact form of the frame of s: alpha = v^(-1/n) * alpha0
    with v = wedge^n dalpha0(e_1..e_2n).  alpha0_i = (-1)^i det(frame
    without column i) (0-based), from one determinant_minors table of the
    frame, is its generalized cross product: alpha0(e_j) = 0 identically.

    Raises NotContactError when v vanishes on the sample set and
    OrientationError when n is even and v < 0 (the two admissible forms
    exist only for compatibly oriented frames; negate one frame field).
    """
    n, frame = s.n, s.frame
    minor = determinant_minors(frame)
    alpha0 = []
    for i in range(s.dim):
        d = ex.normalize(minor(range(2 * n), [j for j in range(s.dim) if j != i]))
        alpha0.append(d if i % 2 == 0 else ex.neg(d))
    D0 = _exterior_derivative(s, alpha0)
    B0 = [[_two_form_on(D0, frame[a], frame[b]) for b in range(2 * n)] for a in range(2 * n)]
    v = ex.normalize(wedge_power(B0, n))

    vals = _sample_values(s, v, samples)
    if np.min(np.abs(vals)) < 1e-9:
        raise NotContactError(
            "distribution is not contact: wedge^n dalpha0 vanishes at a sample point"
        )
    if n % 2 == 0 and np.min(vals) < 0:
        raise OrientationError(
            "n is even and wedge^n dalpha0 < 0 for this frame orientation; "
            "negate one frame field to flip the orientation of H"
        )
    if np.min(vals) < 0 < np.max(vals):
        raise NotContactError("wedge^n dalpha0 changes sign over the sample set")

    orientation_sign = 1 if np.min(vals) > 0 else -1
    f = _power(v, Fraction(-1, n))
    alpha = [ex.normalize(ex.mul(f, a)) for a in alpha0]

    dv = [s.derivative_along(u, v) for u in _unit_fields(s.dim)]
    inv_n = Const(Fraction(1, n))
    E = [
        [
            ex.normalize(
                ex.sub(
                    ex.mul(v, D0[i][j]),
                    ex.mul(inv_n, ex.sub(ex.mul(dv[i], alpha0[j]), ex.mul(dv[j], alpha0[i]))),
                )
            )
            for j in range(s.dim)
        ]
        for i in range(s.dim)
    ]
    return alpha, orientation_sign, _NormalizationData(alpha0=alpha0, v=v, E=E)


def compute_reeb(s: ContactStructure, norm: _NormalizationData, samples: np.ndarray) -> list[Expression]:
    """Reeb field from the kernel of E, by Pfaffians.

    dalpha(xi, .) = 0 is equivalent to E xi = 0 (the scalar prefactor of
    dalpha drops), and alpha(xi) = 1 becomes alpha0(xi) = v^(1/n).  E is
    skew of odd size 2n+1 and has rank 2n at a contact point, so
    adj E = k k^T with k_i = (-1)^i Pf(E without row and column i)
    (0-based), and k spans ker E.  With eta := v^((n-1)/n) xi this gives
        eta = v k / (alpha0 . k),
    polynomial over the one denominator alpha0 . k; finally
    xi = v^((1-n)/n) eta.  alpha0 . k vanishes exactly where the bordered
    matrix E + alpha0 alpha0^T, of determinant (alpha0 . k)^2, is singular.
    """
    alpha0, v, E = norm.alpha0, norm.v, norm.E
    pf = pfaffian_minors(E)
    full = tuple(range(s.dim))
    k = []
    for i in full:
        k_i = pf(full[:i] + full[i + 1 :])
        k.append(ex.normalize(k_i if i % 2 == 0 else ex.neg(k_i)))
    alpha0_k = ex.normalize(_pairing(alpha0, k))
    # the bound applies to det(E + alpha0 alpha0^T) = (alpha0 . k)^2
    if np.min(_sample_values(s, alpha0_k, samples) ** 2) < 1e-9:
        raise StructureError(
            "internal inconsistency: Reeb system is singular at a sample point "
            "although the contact condition held"
        )
    inv = ex.pow_(alpha0_k, Fraction(-1))
    eta = [ex.normalize(ex.mul(ex.normalize(ex.mul(v, k_i)), inv)) for k_i in k]
    scale = _power(v, Fraction(1 - s.n, s.n))
    return [ex.normalize(ex.mul(scale, e)) for e in eta]


# ---------------------------------------------------------------------------
# Structure functions and the data classes.
# ---------------------------------------------------------------------------


@dataclass
class Brackets:
    """Structure functions of the adapted basis (e_1..e_2n, xi).

    c_h[i][j][k] = c^k_ij (horizontal part of [e_i,e_j]),
    c_0[i][j]    = c^0_ij = alpha([e_i,e_j])  (so dalpha(e_i,e_j) = -c^0_ij),
    c0_h[j][k]   = c^k_0j (horizontal part of [xi,e_j]),
    c0_0[j]      = alpha([xi,e_j])  (identically 0; kept as a diagnostic).
    """

    c_h: list
    c_0: list
    c0_h: list
    c0_0: list


@dataclass
class ContactStructure:
    n: int
    mode: str  # "chart" | "lie"
    coords: list[str]
    frame: list[list[Expression]]  # 2n rows of 2n+1 coefficient expressions
    alpha: list[Expression]
    reeb: list[Expression]
    orientation_sign: int
    brackets: Brackets
    source_text: str
    name: str = ""
    # dalpha_ij = dalpha_scale * E_ij, with E polynomial for polynomial
    # frames (see _NormalizationData)
    E: list[list[Expression]] | None = None
    dalpha_scale: Expression = ONE
    # lie mode: the nonzero structure constants as given, 0-based,
    # (i, j, k) -> Const(c^k_ij) with i < j; None in chart mode.
    structure_constants: dict[tuple[int, int, int], Const] | None = None
    _compiled: dict = field(default_factory=dict, repr=False)
    _coframe: tuple | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def h(self) -> int:
        return 2 * self.n

    # -- numeric evaluation -------------------------------------------------

    def _tape(self, roots: list[Expression]):
        """The compiled tape of a list of roots, cached once per structure
        under the identities of the roots."""
        key = tuple(map(id, roots))
        hit = self._compiled.get(key)
        if hit is None or not all(map(operator.is_, hit[0], roots)):
            hit = self._compiled[key] = (tuple(roots), ex.compile_expression(roots, self.coords))
        return hit[1]

    def eval_table(self, exprs, points: np.ndarray) -> np.ndarray:
        """Evaluate an expression or a nested list structure of them through
        one tape, cached for the structure; returns an array with the list
        shape as leading axes and the point axis last.  For the expressions
        the structure or its curvature data hold."""
        return self.evaluator(exprs)(points)

    def eval_scalar(self, exprs, points: np.ndarray) -> np.ndarray:
        """eval_table through a tape compiled for this call only.  For the
        expressions a call builds for itself: cached under their ids, their
        tapes would stay in the cache and never be hit again."""
        return self.evaluator(exprs, cached=False)(points)

    def evaluator(self, exprs, cached: bool = True):
        """points -> eval_table (or, not cached, eval_scalar) of exprs at
        points, through one tape compiled here: for block by block.  Given
        out (roots, points), the tape writes its roots there."""
        table = np.array(exprs, dtype=object)
        roots = table.ravel().tolist()
        tape = self._tape(roots) if cached else ex.compile_expression(roots, self.coords)

        def values(points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            vals = _evaluate(tape, points, out)
            return vals.reshape(table.shape + vals.shape[-1:])

        return values

    def basis_matrix_at(self, points: np.ndarray) -> np.ndarray:
        """(N, dim, dim) arrays with columns e_1..e_2n, xi at each point."""
        vals = self.eval_table(self.frame + [self.reeb], points)  # (column, row, N)
        return np.ascontiguousarray(vals.transpose(2, 1, 0))

    # -- symbolic helpers ---------------------------------------------------

    def derivative_along(self, V: list[Expression], e: Expression) -> Expression:
        """V(e): the derivative of the scalar e along the field V."""
        if not self.coords or isinstance(e, Const):
            return ZERO  # lie mode: all scalars are constant
        acc: Expression = ZERO
        for i, ci in enumerate(self.coords):
            acc = ex.add(acc, ex.mul(V[i], ex.differentiate(e, ci)))
        return acc

    def frame_derivative(self, e: Expression, a: int) -> Expression:
        """Directional derivative along e_a (a = 1..2n) or xi (a = 0)."""
        return self.derivative_along(self.reeb if a == 0 else self.frame[a - 1], e)

    def bracket(self, V: list[Expression], W: list[Expression]) -> list[Expression]:
        """[V, W] in the components fields are given in.

        Chart mode: the coordinate Jacobi-Lie bracket.  Lie mode: V and W
        are constant combinations of the Lie algebra basis, and the bracket
        is read from the structure constants (_constants_bracket).
        """
        if self.structure_constants is None:
            return lie_bracket(V, W, self.coords)
        return _constants_bracket(self.structure_constants, V, W)

    def alpha_of(self, V: list[Expression]) -> Expression:
        return ex.normalize(_pairing(self.alpha, V))

    def dalpha_on(self, V: list[Expression], W: list[Expression]) -> Expression:
        """dalpha(V, W) from coordinate (chart) or basis (lie) components."""
        quad = _two_form_on(self.E, V, W)
        return ex.normalize(ex.mul(self.dalpha_scale, ex.normalize(quad)))

    def dalpha_frame(self) -> list[list[Expression]]:
        """B[a][b] = dalpha(e_a, e_b) = -c^0_ab."""
        return [
            [ex.neg(self.brackets.c_0[a][b]) for b in range(self.h)]
            for a in range(self.h)
        ]

    def decompose(self, V: list[Expression]) -> tuple[list[Expression], Expression]:
        """Split V into horizontal frame components and xi component.

        The components are u_k = (sum_i C_ik V_i) / det P for the basis
        matrix P = [e_1..e_2n, xi] and its cofactors C_ik (Cramer's rule
        expanded along column k); the cofactors and 1/det P are computed
        once per structure, so each call is a pairing.
        """
        cof, inv_det = self._basis_coframe()
        sol = [ex.normalize(ex.mul(ex.normalize(_pairing(col, V)), inv_det)) for col in cof]
        return sol[: self.h], sol[self.h]

    def _basis_coframe(self) -> tuple[list[list[Expression]], Expression]:
        """(cof, 1/det P) of basis_cofactors, each minor normalized."""
        if self._coframe is None:
            cof, det = self.basis_cofactors(ex.normalize)
            self._coframe = (cof, ex.pow_(det, Fraction(-1)))
        return self._coframe

    def basis_cofactors(self, finish=lambda e: e) -> tuple[list[list[Expression]], Expression]:
        """(cof, det P): cof[k][i] = C_ik, the cofactors of the basis matrix P = [e_1..e_2n,
        xi], from one determinant_minors table, each minor through finish before its sign;
        unfinished, sums of products of basis entry nodes, which a tape of the basis reuses."""
        minor = determinant_minors(list(zip(*self.frame, self.reeb)))
        full = tuple(range(self.dim))
        cof = [[ZERO] * self.dim for _ in full]
        for i in full:
            for k in full:
                d = finish(minor(full[:i] + full[i + 1 :], full[:k] + full[k + 1 :]))
                cof[k][i] = d if (i + k) % 2 == 0 else ex.neg(d)
        return cof, finish(minor(full, full))

    def parse_field(self, texts: list[str] | str) -> list[Expression]:
        if isinstance(texts, str):
            texts = split_components(texts)
        if len(texts) != self.dim:
            raise StructureError(f"expected {self.dim} components, got {len(texts)}")
        return [ex.parse_expression(t, self.coords) for t in texts]

    def fingerprint(self) -> str:
        return sha256(self.source_text.encode("utf-8")).hexdigest()

    def validation_points(self, count: int = 30, seed: int = 0) -> np.ndarray:
        """The origin and count seeded points of the box (BoxSample); lie mode: the one point."""
        if self.mode == "lie":
            return np.zeros((1, 0))
        return BoxSample(self.dim, count, seed)[:]


def structure_functions(s: ContactStructure) -> Brackets:
    """Brackets of the adapted basis (ContactStructure.bracket, so in either
    mode), each decomposed by pairing with the basis coframe
    (ContactStructure.decompose, whose cofactors are computed once per
    structure); see Brackets for the index conventions."""
    h = s.h
    c_h = [[[ZERO] * h for _ in range(h)] for _ in range(h)]
    c_0 = [[ZERO] * h for _ in range(h)]
    for i in range(h):
        for j in range(i + 1, h):
            hor, xi_comp = s.decompose(s.bracket(s.frame[i], s.frame[j]))
            c_h[i][j], c_h[j][i] = hor, [ex.neg(x) for x in hor]
            c_0[i][j], c_0[j][i] = xi_comp, ex.neg(xi_comp)
    xi_e = [s.bracket(s.reeb, e) for e in s.frame]
    # The coframe's xi component of [xi,e_j] equals alpha([xi,e_j]) in
    # exact arithmetic; c0_0 takes the direct pairing with alpha, which
    # check_special verifies to vanish.
    c0_h = [s.decompose(v)[0] for v in xi_e]
    c0_0 = [s.alpha_of(v) for v in xi_e]
    return Brackets(c_h=c_h, c_0=c_0, c0_h=c0_h, c0_0=c0_0)


def check_special(s: ContactStructure, points=None, tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """Is the Reeb field an infinitesimal isometry?  The structure is
    special when both records pass.  points: an (N, dim) array or a Grid,
    by default the certification grid.

    special_bracket_horizontal: the brackets [xi,e_j] stay horizontal
    (alpha component vanishes).  special_reeb_killing: the Lie derivative of
    the frame metric along xi vanishes; in the orthonormal frame this is
    skewness of the matrix c^k_0j.
    """
    if s.mode == "lie":
        points = np.zeros((1, 0))  # constants: one point stands for all
    elif points is None:
        points = _default_special_grid(s)
    b = s.brackets
    sums = [ex.add(b.c0_h[i][j], b.c0_h[j][i]) for i in range(s.h) for j in range(i, s.h)]
    checks = {"special_bracket_horizontal": b.c0_0, "special_reeb_killing": sums}
    return residual_records(s, checks, points, tol)


def structure_checks(s: ContactStructure, pts) -> dict[str, float]:
    """max_residuals at pts of the identities the normalization guarantees:
    "alpha_frame" of alpha(e_i) = 0, "normalization" of wedge^n dalpha
    (e_1..e_2n) = 1 on the symbolic dalpha frame matrix, and "reeb" of
    alpha(xi) = 1 together with dalpha(xi, .) = 0."""
    checks = {
        "alpha_frame": [s.alpha_of(vec) for vec in s.frame],
        "normalization": [ex.sub(wedge_power(s.dalpha_frame(), s.n), ONE)],
        "reeb": [ex.sub(s.alpha_of(s.reeb), ONE)] + [s.dalpha_on(s.reeb, e) for e in _unit_fields(s.dim)],
    }
    return max_residuals(s, checks, pts)


# Points of the default special-certification set: the 5^dim grid up to
# dim 9; above, where that grid would take minutes (5^11 = 4.9e7 points),
# the origin and a seeded sample in the box (BoxSample).  Both are made
# block by block.
MAX_SPECIAL_POINTS = 5**9


def _default_special_grid(s: ContactStructure):
    if 5**s.dim > MAX_SPECIAL_POINTS:
        return BoxSample(s.dim, MAX_SPECIAL_POINTS - 1)
    return Grid(list(s.coords), [np.linspace(-1.0, 1.0, 5)] * s.dim)


# ---------------------------------------------------------------------------
# Lie mode: the structure constants as given, read by one bracket.
# ---------------------------------------------------------------------------


def _constants_bracket(
    constants: dict, V: list[Expression], W: list[Expression]
) -> list[Expression]:
    """[V, W]^k = sum c^k_ij (V^i W^j - V^j W^i) over the structure constants
    (i, j, k) -> c^k_ij, i < j: the bracket of constant combinations of the
    Lie algebra basis, in basis components."""
    out = [ZERO] * len(V)
    for (i, j, k), c in constants.items():
        out[k] = ex.add(out[k], ex.mul(c, ex.sub(ex.mul(V[i], W[j]), ex.mul(V[j], W[i]))))
    return out


def _lie_build(n: int, constants: dict[tuple[int, int, int], Fraction]) -> dict[tuple[int, int, int], Const]:
    """The nonzero structure constants {(i, j, k): c^k_ij} (1-based, i < j)
    of a lie-mode structure, 0-based and as Consts, once their indices, the
    contact matching and the Jacobi identity are checked; load_structure_text
    builds the structure from them by the path of both modes."""
    dim, h = 2 * n + 1, 2 * n
    for i, j, k in constants:
        if not (1 <= i < j <= dim and 1 <= k <= dim):
            raise StructureError(f"bracket indices out of range: c {i} {j} {k}")
    consts = {(i - 1, j - 1, k - 1): Const(val) for (i, j, k), val in constants.items() if val}
    # Pf(B0) != 0 needs a perfect matching of e_1..e_2n by nonzero c^(2n+1)_ij,
    # n pairs; this is checked before anything of size dim is built
    if sum(1 for i, j, k in consts if k == h and j < h) < n:
        raise NotContactError("lie structure is not contact: wedge^n dalpha0 = 0")

    unit = _unit_fields(dim)
    bracket = functools.partial(_constants_bracket, consts)
    for i, j, k in itertools.combinations(range(dim), 3):
        cycle = ((i, j, k), (j, k, i), (k, i, j))
        cyclic = [bracket(bracket(unit[a], unit[b]), unit[c]) for a, b, c in cycle]
        for m in range(dim):
            total = sum(t[m].value for t in cyclic)
            if total != 0:
                raise StructureError(
                    f"Jacobi identity fails for (e{i+1},e{j+1},e{k+1}) "
                    f"component {m+1}: residual {total}"
                )
    return consts


# ---------------------------------------------------------------------------
# Structure file parsing and builtins.
# ---------------------------------------------------------------------------


def _parse_sections(text: str) -> dict[str, list[tuple[str, str]]]:
    sections: dict[str, list[tuple[str, str]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if "=" not in line:
            raise StructureError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise StructureError(f"line {lineno}: content before any [section]")
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip()))
    return sections


def _split_names(s: str) -> list[str]:
    return [t for t in s.replace(",", " ").split() if t]


def split_components(s: str) -> list[str]:
    """Split on commas at parenthesis depth zero, so pow(e, p/q) survives."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(s[start:i].strip())
            start = i + 1
    parts.append(s[start:].strip())
    return [p for p in parts if p]


def load_structure_text(text: str, name: str = "", seed: int = 0) -> ContactStructure:
    """Build and validate a structure from its definition text."""
    sections = _parse_sections(text)
    if "manifold" not in sections:
        raise StructureError("missing [manifold] section")
    man = dict(sections["manifold"])
    mode = man.get("mode", "").strip().lower()
    if mode not in ("chart", "lie"):
        raise StructureError(f"mode must be 'chart' or 'lie', got {mode!r}")
    try:
        n = int(man.get("n", ""))
    except ValueError:
        raise StructureError("n must be an integer") from None
    if n < 1:
        raise StructureError("n >= 1 is required (dim M = 2n+1 >= 3)")
    dim = 2 * n + 1

    consts = None
    if mode == "lie":
        if "brackets" not in sections:
            raise StructureError("lie mode requires a [brackets] section")
        constants: dict[tuple[int, int, int], Fraction] = {}
        for key, value in sections["brackets"]:
            parts = key.split()
            if len(parts) != 4 or parts[0] != "c":
                raise StructureError(f"bad bracket key {key!r}; expected 'c i j k'")
            try:
                i, j, k = int(parts[1]), int(parts[2]), int(parts[3])
                val = Fraction(value)
            except ValueError:
                raise StructureError(f"bad bracket entry {key!r} = {value!r}") from None
            if not i < j:
                raise StructureError(f"bracket indices must satisfy i < j: {key!r}")
            constants[(i, j, k)] = val
        consts = _lie_build(n, constants)
        coords, frame = [], _unit_fields(dim)[: 2 * n]
        samples = np.zeros((1, 0))  # constants: one point stands for all
    else:
        coords = _split_names(man.get("coords", ""))
        if len(coords) != dim:
            raise StructureError(f"chart mode needs {dim} coordinate names, got {len(coords)}")
        if len(set(coords)) != dim:
            raise StructureError("coordinate names must be distinct")
        if "frame" not in sections:
            raise StructureError("chart mode requires a [frame] section")
        rows = dict(sections["frame"])
        frame = []
        for a in range(1, 2 * n + 1):
            key = f"X{a}"
            if key not in rows:
                raise StructureError(f"missing frame row {key}")
            comps = split_components(rows[key])
            if len(comps) != dim:
                raise StructureError(f"{key} needs {dim} expressions, got {len(comps)}")
            frame.append([ex.parse_expression(t, coords) for t in comps])
        samples = BoxSample(dim, 30, seed)[:]
        _check_frame_rank(frame, coords, samples)

    s = ContactStructure(
        n=n,
        mode=mode,
        coords=coords,
        frame=frame,
        alpha=[],
        reeb=[],
        orientation_sign=0,
        brackets=Brackets([], [], [], []),
        source_text=text,
        name=name,
        structure_constants=consts,
    )
    s.alpha, s.orientation_sign, norm = normalize_contact_form(s, samples)
    s.reeb = compute_reeb(s, norm, samples)
    s.E, s.dalpha_scale = norm.E, _power(norm.v, Fraction(-(n + 1), n))
    s.brackets = structure_functions(s)
    if mode == "lie":
        return s
    # chart mode: the identities the normalization guarantees, at the samples
    res = structure_checks(s, samples)
    for key, bound, message in (
        ("alpha_frame", 1e-12, "alpha(e_i) != 0 after normalization"),
        ("normalization", 1e-8, "normalization failed: wedge^n dalpha(frame) != 1"),
        ("reeb", 1e-8, "Reeb identities fail: alpha(xi) != 1 or dalpha(xi, .) != 0"),
    ):
        if not res[key] < bound:
            raise StructureError(message)
    return s


def _check_frame_rank(frame, coords, points, where: str = "at a sample point") -> None:
    """Refuse the first of points where a frame row is not finite, then a point where
    the frame's rank is below 2n; where names the point set.  A Grid goes block by
    block (point_blocks), finiteness only, and its first such point is named."""
    flat = ex.compile_expression([c for vec in frame for c in vec], coords)
    grid = isinstance(points, Grid)
    for sel in point_blocks(len(points), len(frame) * len(coords)):
        pts = points[sel]
        vals = _evaluate(flat, pts).reshape(len(frame), len(coords), -1)  # (2n, dim, N)
        finite = np.isfinite(vals).all(axis=1)  # per frame row and point, before the SVD
        if not finite.all():
            k = np.argmin(finite.all(axis=0))
            at = f"at the grid point {pts[k].tolist()}" if grid else where
            raise StructureError(f"frame row X{np.argmin(finite[:, k]) + 1} is not finite {at}")
        if not grid and np.linalg.svd(vals.transpose(2, 0, 1), compute_uv=False).min() < 1e-9:
            raise StructureError(f"frame is linearly dependent {where}")


# -- builtins ---------------------------------------------------------------


def _heisenberg_text(n: int) -> str:
    if n == 1:
        coords = ["x", "y", "z"]
    else:
        coords = [c for i in range(1, n + 1) for c in (f"x{i}", f"y{i}")] + ["z"]
    lines = [
        "# Heisenberg group H^{2n+1}: left-invariant orthonormal frame",
        "[manifold]",
        "mode = chart",
        f"n = {n}",
        "coords = " + ", ".join(coords),
        "",
        "[frame]",
    ]
    dim = 2 * n + 1
    for i in range(n):
        xi_name = coords[2 * i]
        yi_name = coords[2 * i + 1]
        row1 = ["0"] * dim
        row1[2 * i] = "1"
        row1[dim - 1] = f"-{yi_name}/2"
        row2 = ["0"] * dim
        row2[2 * i + 1] = "1"
        row2[dim - 1] = f"{xi_name}/2"
        lines.append(f"X{2 * i + 1} = " + ", ".join(row1))
        lines.append(f"X{2 * i + 2} = " + ", ".join(row2))
    return "\n".join(lines) + "\n"


_SU2_TEXT = """# su(2)-type structure: [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2, H = span{e1,e2}
[manifold]
mode = lie
n = 1

[brackets]
c 1 2 3 = 1
c 2 3 1 = 1
c 1 3 2 = -1
"""

# Stereographic chart realization of the su2 builtin (unit quaternions
# projected from the antipode); e1, e2 are quadratic polynomial fields with
# [e1,e2]=e3 etc., matching the lie-mode structure constants.
_SU2_CHART_TEXT = """# su(2)-type structure in stereographic coordinates
[manifold]
mode = chart
n = 1
coords = x, y, z

[frame]
X1 = (1 + x^2 - y^2 - z^2)/4, (x*y + z)/2, (x*z - y)/2
X2 = (x*y - z)/2, (1 - x^2 + y^2 - z^2)/4, (y*z + x)/2
"""


def builtin_text(name: str) -> str | None:
    if name.startswith("heisenberg:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            return None
        if n < 1:
            return None
        return _heisenberg_text(n)
    if name == "su2":
        return _SU2_TEXT
    if name == "su2:chart":
        return _SU2_CHART_TEXT
    return None


def load_structure(source: str, seed: int = 0) -> ContactStructure:
    """Load a builtin by name or a structure definition file by path."""
    text = builtin_text(source)
    if text is not None:
        return load_structure_text(text, name=source, seed=seed)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        if isinstance(e, FileNotFoundError) and source.startswith("heisenberg:"):
            raise StructureError(f"no file {source!r}, and heisenberg:<n> needs an integer n >= 1") from None
        raise StructureError(f"cannot read structure file {source!r}: {e}") from None
    return load_structure_text(text, name=source, seed=seed)
