"""Canonical metric torsion-free connection, curvature, and derivative caches.

On a special structure the unique metric and torsion-free connection has
frame coefficients

    Gamma^k_aj = (c^k_aj - c^j_ak - c^a_jk) / 2,      Gamma^k_0j = c^k_0j,

obtained by the Koszul trick from metricity (skewness of Gamma in its
upper/lower horizontal pair) and zero torsion (antisymmetric part equals
the structure functions); the vertical coefficients are forced by
nabla_xi X = [xi, X].  Both axioms are re-verified numerically after
construction (_axiom_terms, which verify_geometry reports too).

Curvature and the iterated covariant derivatives of R and dalpha live in
the horizontal tensor algebra: every stored slot is a frame index 1..2n.
The one-step xi-derivative of each cached tensor is stored separately for
the generator machinery, which differentiates along X + c xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import expr as ex
from .expr import Expression, Const, ZERO
from .frame import CheckFailure, CheckRecord, ContactStructure, _max_abs, as_points
from .frame import DEFAULT_TOL, check_special, fold_max_abs, point_blocks

__all__ = [
    "ConnectionData",
    "CurvatureData",
    "NotSpecialError",
    "BudgetError",
    "HTensor",
    "compute_connection",
    "covariant_derivative",
    "curvature",
    "higher_derivatives",
    "verify_geometry",
    "eval_tensor",
    "CheckRecord",
]


class NotSpecialError(CheckFailure):
    """The structure failed the special certification; the canonical
    connection of the special theory does not apply."""


class BudgetError(MemoryError):
    """A derivative order, a stored tower or a dense array over its
    configured bound; raised before the memory over the bound is taken."""


# Float entries of one dense array, a tensor at points or f_q at a point:
# 128 MB.  f_q of order 2 fits for heisenberg:4 (1.1e7), not heisenberg:5.
MAX_DENSE_ENTRIES = 2**24


def check_dense(entries: int, what: str) -> None:
    """BudgetError when a dense array of what is over MAX_DENSE_ENTRIES."""
    if entries > MAX_DENSE_ENTRIES:
        raise BudgetError(
            f"{what} would have {entries} dense entries, over the budget {MAX_DENSE_ENTRIES}"
        )


@dataclass(repr=False)
class HTensor:
    """Horizontal tensor in frame components, stored sparsely.

    entries maps an index, a tuple of rank frame indices 0..h-1, to its
    Expression, for the components that are not literal zeros only, in C
    order of the index; lower slots lead, the n_upper upper slots trail.
    """

    entries: dict
    h: int
    rank: int
    n_upper: int

    @classmethod
    def from_dense(cls, components: np.ndarray, n_upper: int) -> "HTensor":
        """The tensor of an object array of Expressions, shape (h,)*rank."""
        entries = {idx: e for idx, e in np.ndenumerate(components) if not _is_zero(e)}
        return cls(entries, components.shape[0], components.ndim, n_upper)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.h,) * self.rank

    @property
    def n_lower(self) -> int:
        return self.rank - self.n_upper

    def __getitem__(self, idx: tuple[int, ...]) -> Expression:
        return self.entries.get(idx, ZERO)

    @property
    def components(self) -> np.ndarray:
        """Every component as a dense object array, zeros included: h^rank
        entries, for inspection only."""
        out = np.full(self.shape, ZERO, dtype=object)
        for idx, e in self.entries.items():
            out[idx] = e
        return out

    def __repr__(self) -> str:
        return (
            f"HTensor(h={self.h}, rank={self.rank}, n_upper={self.n_upper}, "
            f"nonzero={len(self.entries)})"
        )


@dataclass(repr=False)
class ConnectionData:
    structure: ContactStructure
    gamma_h: list  # gamma_h[a][j][k] = Gamma^k_aj, a,j,k in 0..2n-1
    gamma_xi: list  # gamma_xi[j][k] = Gamma^k_0j
    _axioms: tuple = field(default=((), None), compare=False)  # (Gamma entries, axiom_terms)

    def gamma(self, direction: int) -> list:
        """Coefficient matrix for direction 0 (= xi) or 1..2n (= e_a)."""
        return self.gamma_xi if direction == 0 else self.gamma_h[direction - 1]

    @property
    def axiom_terms(self) -> tuple[list[Expression], list[Expression]]:
        """_axiom_terms, built once for compute_connection and verify_geometry,
        and again only after an entry of Gamma is replaced (fault injection)."""
        gammas = [e for g in map(self.gamma, range(self.structure.h + 1)) for row in g for e in row]
        if self._axioms[0] != gammas:
            self._axioms = gammas, _axiom_terms(self)
        return self._axioms[1]

    def __repr__(self) -> str:
        # the expressions are left out: written as trees they can run to GBs
        return f"ConnectionData(structure={self.structure.name[:40]!r}, h={self.structure.h})"


@dataclass(repr=False)
class CurvatureData:
    """Curvature plus lazily extended derivative caches.

    The caches grow in place; extend them eagerly (higher_derivatives)
    before sharing an instance across threads.  Point evaluations are
    pure and safe to parallelize.
    """

    connection: ConnectionData
    R: HTensor  # [a, b, j, k]: component k of R(e_a,e_b)e_j
    dalpha: HTensor  # [a, b] = dalpha(e_a, e_b)
    nabla_R: list[HTensor] = field(default_factory=list)  # nabla^i R, i >= 0
    nabla_dalpha: list[HTensor] = field(default_factory=list)
    xi_R: list[HTensor] = field(default_factory=list)  # nabla_xi(nabla^i R)
    xi_dalpha: list[HTensor] = field(default_factory=list)
    max_order: int = 7  # generator spaces through m = 6 need nabla^7
    max_components: int = 1_000_000  # bound on stored() nonzero expressions

    @property
    def structure(self) -> ContactStructure:
        return self.connection.structure

    @property
    def order(self) -> int:
        return len(self.nabla_R) - 1

    def stored(self) -> int:
        """Nonzero expressions stored over the tower and its xi-derivatives."""
        tensors = self.nabla_R + self.nabla_dalpha + self.xi_R + self.xi_dalpha
        return sum(len(T.entries) for T in tensors)

    @cached_property
    def transport_coefficients(self) -> tuple[tuple[HTensor, ...], list[Expression]]:
        """((Gamma_h [a, j, k], Gamma_xi [j, k], R, dalpha) stored as HTensor
        stores a tensor, one list of tape roots): the roots are the
        coordinates of the basis columns e_1..e_2n, xi, column by column,
        its cofactors (k major) and det (ContactStructure.basis_cofactors),
        then those tensors' entries in that order, every coefficient of the
        prolongation system that is not a literal zero."""
        conn, s = self.connection, self.structure
        gammas = (np.array(conn.gamma_h, dtype=object), np.array(conn.gamma_xi, dtype=object))
        tensors = tuple(HTensor.from_dense(g, n_upper=1) for g in gammas) + (self.R, self.dalpha)
        basis = [e for col in s.frame + [s.reeb] for e in col]
        cof, det = s.basis_cofactors()
        basis += [e for row in cof for e in row] + [det]
        return tensors, basis + [e for T in tensors for e in T.entries.values()]

    @cached_property
    def transport_values(self):
        """The evaluator of the transport_coefficients roots: one tape."""
        return self.structure.evaluator(self.transport_coefficients[1])

    @cached_property
    def identity_terms(self) -> tuple[list[Expression], ...]:
        """The metricity, torsion and R(xi, .) residual expressions that
        verify_geometry evaluates, built once, so the tape of each is
        compiled once."""
        return self.connection.axiom_terms + (_reeb_curvature_terms(self.connection),)

    def __repr__(self) -> str:
        return (
            f"CurvatureData(structure={self.structure.name[:40]!r}, order={self.order}, "
            f"stored={self.stored()})"
        )


def compute_connection(s: ContactStructure, tol: float = DEFAULT_TOL) -> ConnectionData:
    """Koszul construction of the canonical connection; refuses structures
    that fail check_special on its default grid, and re-verifies metricity
    and zero torsion."""
    special = check_special(s, tol=tol)
    if not all(r.pass_ for r in special):
        r1, r2 = (r.max_residual for r in special)
        raise NotSpecialError(
            f"structure is not special (r1={r1:.3e}, r2={r2:.3e}); "
            "the canonical connection requires the Reeb field to be Killing"
        )
    h = s.h
    c = s.brackets.c_h
    half = Const(Fraction(1, 2))
    gamma_h = [
        [
            [
                ex.normalize(
                    ex.mul(half, ex.sub(ex.sub(c[a][j][k], c[a][k][j]), c[j][k][a]))
                )
                for k in range(h)
            ]
            for j in range(h)
        ]
        for a in range(h)
    ]
    gamma_xi = [[s.brackets.c0_h[j][k] for k in range(h)] for j in range(h)]
    conn = ConnectionData(structure=s, gamma_h=gamma_h, gamma_xi=gamma_xi)
    pts = s.validation_points()
    # cached tapes of the lists the connection holds, which verify_geometry reads
    worst = _max_abs(s.eval_table(terms, pts) for terms in conn.axiom_terms)
    if not worst < max(tol, 1e-9):
        raise AssertionError(
            f"internal error: connection axioms violated (residual {worst:.3e})"
        )
    return conn


def _axiom_terms(conn: ConnectionData) -> tuple[list[Expression], list[Expression]]:
    """(metricity, torsion) residual expressions: Gamma^k_aj + Gamma^j_ak
    over the directions xi and e_a, and Gamma^k_aj - Gamma^k_ja - c^k_aj."""
    s = conn.structure
    h = s.h
    metricity = [
        ex.add(g[j][k], g[k][j])
        for g in map(conn.gamma, range(h + 1))
        for j in range(h)
        for k in range(h)
    ]
    torsion = [
        ex.sub(ex.sub(conn.gamma_h[a][j][k], conn.gamma_h[j][a][k]), s.brackets.c_h[a][j][k])
        for a in range(h)
        for j in range(h)
        for k in range(h)
    ]
    return metricity, torsion


def covariant_derivative(
    conn: ConnectionData, T: HTensor, direction: int, room: int | None = None
) -> HTensor:
    """(nabla_direction T) in frame components; direction 0 means xi.
    BudgetError as soon as the result would hold more than room entries.

    Each lower slot contracts -Gamma, each upper slot +Gamma, plus the
    frame derivative of the scalar components.  Only the stored entries of
    T and the Gamma entries that are not literal zeros take part: a zero
    factor contributes ex.mul(., ZERO) = ZERO, which the sum drops.  So the
    indices visited are those of T's entries and their neighbours through a
    nonzero Gamma, in C order, and each one sums its terms in the order of
    the dense formula (slot r, then m), which builds the same expression.
    """
    s = conn.structure
    h = s.h
    g = conn.gamma(direction)
    lower = [[(m, g[i][m]) for m in range(h) if not _is_zero(g[i][m])] for i in range(h)]
    upper = [[(m, g[m][i]) for m in range(h) if not _is_zero(g[m][i])] for i in range(h)]
    n_lower = T.n_lower
    pairs = [lower if r < n_lower else upper for r in range(T.rank)]
    # reach[r][m]: the values i of slot r whose sum reads value m there
    reach = [
        [[i for i in range(h) if any(k == m for k, _ in p[i])] for m in range(h)] for p in pairs
    ]
    comps = T.entries
    targets = set(comps)
    for idx in comps:
        for r, rr in enumerate(reach):
            targets.update(idx[:r] + (i,) + idx[r + 1 :] for i in rr[idx[r]])
    out = {}
    for idx in sorted(targets):
        acc = s.frame_derivative(comps.get(idx, ZERO), direction)
        for r, p in enumerate(pairs):
            op = ex.sub if r < n_lower else ex.add
            for m, gm in p[idx[r]]:
                c = comps.get(idx[:r] + (m,) + idx[r + 1 :])
                if c is not None:
                    acc = op(acc, ex.mul(gm, c))
        acc = ex.normalize(acc)
        if not _is_zero(acc):
            out[idx] = acc
            if room is not None and len(out) > room:
                raise BudgetError(f"the stored nonzero components pass the budget at rank {T.rank}")
    return HTensor(out, h, T.rank, T.n_upper)


def _is_zero(e: Expression) -> bool:
    return isinstance(e, Const) and e.value == 0


def _extend_with_horizontal_slot(conn: ConnectionData, T: HTensor, room: int) -> HTensor:
    """nabla T with the new direction slot leading, horizontal only, of at
    most room entries (BudgetError)."""
    h = conn.structure.h
    entries = {}
    for a in range(h):
        for idx, e in covariant_derivative(conn, T, a + 1, room - len(entries)).entries.items():
            entries[(a,) + idx] = e
    return HTensor(entries, h, T.rank + 1, T.n_upper)


def _curvature_terms(
    conn: ConnectionData, a: int, b: int, j: int, k: int, c_ab: list
) -> Expression:
    """e_a(G^k_bj) - e_b(G^k_aj) + G^k_am G^m_bj - G^k_bm G^m_aj - c^m_ab G^k_mj
    for directions a, b (0 = xi, 1..2n = e_1..e_2n), with c_ab[m] = c^m_ab:
    R^k_ab,j up to its c^0_ab term."""
    s = conn.structure
    Ga, Gb, G = conn.gamma(a), conn.gamma(b), conn.gamma_h
    acc = ex.sub(s.frame_derivative(Gb[j][k], a), s.frame_derivative(Ga[j][k], b))
    for m in range(s.h):
        acc = ex.add(acc, ex.mul(Ga[m][k], Gb[j][m]))
        acc = ex.sub(acc, ex.mul(Gb[m][k], Ga[j][m]))
        acc = ex.sub(acc, ex.mul(c_ab[m], G[m][j][k]))
    return acc


def _reeb_curvature_terms(conn: ConnectionData) -> list[Expression]:
    """R(xi, e_b) e_j in components, [b, j, k] flattened, expanded from the
    curvature formula with Z = xi."""
    s = conn.structure
    h = s.h
    return [
        ex.normalize(_curvature_terms(conn, 0, b + 1, j, k, s.brackets.c0_h[b]))
        for b in range(h)
        for j in range(h)
        for k in range(h)
    ]


def curvature(conn: ConnectionData) -> CurvatureData:
    """R^k_ab,j = e_a(G^k_bj) - e_b(G^k_aj) + G^k_am G^m_bj - G^k_bm G^m_aj
    - c^m_ab G^k_mj - c^0_ab G^k_0j, stored as [a,b,j,k]."""
    s = conn.structure
    h = s.h
    c_0 = s.brackets.c_0
    comps = np.full((h, h, h, h), ZERO, dtype=object)
    for a in range(h):
        for b in range(a + 1, h):
            for j in range(h):
                for k in range(h):
                    acc = _curvature_terms(conn, a + 1, b + 1, j, k, s.brackets.c_h[a][b])
                    acc = ex.normalize(ex.sub(acc, ex.mul(c_0[a][b], conn.gamma_xi[j][k])))
                    comps[a, b, j, k] = acc
                    comps[b, a, j, k] = ex.neg(acc)
    R = HTensor.from_dense(comps, n_upper=1)
    dalpha = HTensor.from_dense(np.array(s.dalpha_frame(), dtype=object), n_upper=0)
    cd = CurvatureData(connection=conn, R=R, dalpha=dalpha)
    higher_derivatives(cd, 0)
    return cd


def higher_derivatives(cd: CurvatureData, order: int) -> CurvatureData:
    """Extend the nabla^i caches through i <= order, plus the one-step
    xi-derivatives of every cached tensor.  New slots for i >= 1 take only
    horizontal directions (the horizontal tensor algebra convention).  The
    stored nonzero expressions are counted as they are built: BudgetError
    as soon as they would pass max_components, and the order is not kept."""
    if order > cd.max_order:
        raise BudgetError(
            f"derivative order {order} exceeds the configured bound {cd.max_order}"
        )
    conn = cd.connection
    towers = (cd.nabla_R, cd.nabla_dalpha, cd.xi_R, cd.xi_dalpha)
    while cd.order < order:
        new = [] if cd.nabla_R else [cd.R, cd.dalpha]

        def room() -> int:
            return cd.max_components - cd.stored() - sum(len(T.entries) for T in new)

        for T in cd.nabla_R[-1:] + cd.nabla_dalpha[-1:]:
            new.append(_extend_with_horizontal_slot(conn, T, room()))
        for T in new[:2]:
            new.append(covariant_derivative(conn, T, 0, room()))
        for tower, T in zip(towers, new):
            tower.append(T)
    return cd


def eval_tensor(s: ContactStructure, T: HTensor, points: np.ndarray, out=None) -> np.ndarray:
    """Numeric components at points: float array T.shape + (N,), refused
    over MAX_DENSE_ENTRIES (BudgetError).  The stored entries go through
    one tape and are scattered into zeros: a fresh array, or out (C
    contiguous, of that shape), which is zeroed in place and returned."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    npts = points.shape[0]
    check_dense(T.h**T.rank * npts, f"a rank-{T.rank} tensor at {npts} points")
    if out is None:
        out = np.zeros(T.shape + (npts,))
    else:
        out.fill(0.0)
    if T.entries:
        flat = np.ravel_multi_index(np.array(list(T.entries)).T, T.shape)
        out.reshape(T.h**T.rank, npts)[flat] = s.eval_table(list(T.entries.values()), points)
    return out


# ---------------------------------------------------------------------------
# Identity verification.
# ---------------------------------------------------------------------------


def verify_geometry(cd: CurvatureData, points=None, tol: float = DEFAULT_TOL) -> list[CheckRecord]:
    """Max residuals of the geometric identity suite over points (as_points),
    block by block: metricity/torsion of Gamma, both horizontal Bianchi
    identities, R(xi, .) = 0 expanded from the curvature formula, skewness
    of R, and the cyclic identity for nabla dalpha.

    An identity over a tensor that stores nothing (R, nabla R or nabla
    dalpha) is the exact 0.0, read without any point.  Each tensor that
    stores something is evaluated once a block into its own buffer, and its
    cyclic sums and skew part are formed in one spare buffer: all are views
    of one workspace, allocated here for the largest block, so a block
    allocates no array of its size.  fold_max_abs folds each identity before
    the next is formed, which lets them share the spare buffer."""
    s = cd.structure
    points = as_points(s.validation_points(count=100) if points is None else points)
    higher_derivatives(cd, 1)
    # (a) metricity and torsion, and (d) R(xi, e_b) = 0 via the curvature
    # formula with Z = xi, each list through its cached tape
    metricity, torsion, reeb = (s.evaluator(terms) for terms in cd.identity_terms)
    tensors = (cd.R, cd.nabla_R[1], cd.nabla_dalpha[1])  # [a,b,j,k], [v,a,b,j,k], [v,a,b]
    per_point = s.h**5
    largest = next(point_blocks(len(points), per_point), slice(0, 0))
    sizes = [T.h**T.rank * (largest.stop - largest.start) if T.entries else 0 for T in tensors]
    *buffers, spare = np.split(np.empty(sum(sizes) + max(sizes)), np.cumsum(sizes))

    def residuals(pts: np.ndarray):
        n = len(pts)
        Rv, dRv, dBv = (
            eval_tensor(s, T, pts, out=b[: T.h**T.rank * n].reshape(T.shape + (n,)))
            if T.entries else None
            for T, b in zip(tensors, buffers)
        )

        def spare_like(vals: np.ndarray) -> np.ndarray:
            return spare[: vals.size].reshape(vals.shape)

        yield "metricity", [metricity(pts)]
        yield "torsion", [torsion(pts)]
        # (b) R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0
        yield "bianchi_first", [0.0 if Rv is None else _cyclic_sum(Rv, spare_like(Rv))]
        # (c) (nabla_X R)(Y,Z) + cyclic = 0
        yield "bianchi_second", [0.0 if dRv is None else _cyclic_sum(dRv, spare_like(dRv))]
        yield "curvature_reeb", [reeb(pts)]
        # (e) skewness of R(Z,W) w.r.t. g: R^k_ab,j symmetric part in (j,k)
        yield "curvature_skew", [
            0.0 if Rv is None else np.add(Rv, np.transpose(Rv, (0, 1, 3, 2, 4)), out=spare_like(Rv))
        ]
        # (f) cyclic identity for nabla dalpha
        yield "dalpha_bianchi", [0.0 if dBv is None else _cyclic_sum(dBv, spare_like(dBv))]

    worst = fold_max_abs(points, per_point, residuals)
    return [CheckRecord(name, r, len(points), bool(r < tol)) for name, r in worst.items()]


def _cyclic_sum(T: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(T plus T with its first three axes cycled once) plus T with them
    cycled twice, into out (which must not overlap T); returns out."""
    rest = tuple(range(3, T.ndim))
    np.add(T, np.transpose(T, (1, 2, 0) + rest), out=out)
    out += np.transpose(T, (2, 0, 1) + rest)
    return out
