"""Canonical metric torsion-free connection, curvature, and derivative caches.

On a special structure the unique metric and torsion-free connection has
frame coefficients

    Gamma^k_aj = (c^k_aj - c^j_ak - c^a_jk) / 2,      Gamma^k_0j = c^k_0j,

obtained by the Koszul trick from metricity (skewness of Gamma in its
upper/lower horizontal pair) and zero torsion (antisymmetric part equals
the structure functions); the vertical coefficients are forced by
nabla_xi X = [xi, X].  Both axioms are re-verified numerically after
construction (_axiom_residuals, which verify_geometry reports too).

Curvature and the iterated covariant derivatives of R and dalpha live in
the horizontal tensor algebra: every stored slot is a frame index 1..2n.
The one-step xi-derivative of each cached tensor is stored separately for
the generator machinery, which differentiates along X + c xi.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr as ex
from .expr import Expression, Const, ZERO
from .frame import ContactStructure, _max_abs, check_special

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


class NotSpecialError(Exception):
    """The structure failed the special certification; the canonical
    connection of the special theory does not apply."""


class BudgetError(MemoryError):
    """A derivative order or tensor size over its configured bound; raised
    before anything is allocated."""


@dataclass
class HTensor:
    """Horizontal tensor in frame components.

    components: object ndarray of Expressions, shape (2n,)*rank; lower
    slots lead, the n_upper upper slots trail.
    """

    components: np.ndarray
    n_upper: int

    @property
    def rank(self) -> int:
        return self.components.ndim

    @property
    def n_lower(self) -> int:
        return self.rank - self.n_upper


@dataclass
class ConnectionData:
    structure: ContactStructure
    gamma_h: list  # gamma_h[a][j][k] = Gamma^k_aj, a,j,k in 0..2n-1
    gamma_xi: list  # gamma_xi[j][k] = Gamma^k_0j
    special_report: object

    def gamma(self, direction: int) -> list:
        """Coefficient matrix for direction 0 (= xi) or 1..2n (= e_a)."""
        return self.gamma_xi if direction == 0 else self.gamma_h[direction - 1]


@dataclass
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
    max_components: int = 1_000_000

    @property
    def structure(self) -> ContactStructure:
        return self.connection.structure

    @property
    def order(self) -> int:
        return len(self.nabla_R) - 1


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


def compute_connection(
    s: ContactStructure, tol: float = 1e-10, points: np.ndarray | None = None
) -> ConnectionData:
    """Koszul construction of the canonical connection; refuses structures
    that fail check_special, and re-verifies metricity and zero torsion."""
    report = check_special(s, points=points, tol=tol)
    if not report.special:
        raise NotSpecialError(
            f"structure is not special (r1={report.r1:.3e}, r2={report.r2:.3e}); "
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
    conn = ConnectionData(structure=s, gamma_h=gamma_h, gamma_xi=gamma_xi, special_report=report)
    worst = _max_abs(_axiom_residuals(conn, s.validation_points()))
    if not worst < max(tol, 1e-9):
        raise AssertionError(
            f"internal error: connection axioms violated (residual {worst:.3e})"
        )
    return conn


def _axiom_residuals(conn: ConnectionData, points: np.ndarray) -> tuple[float, float]:
    """(metricity, torsion) at points: max |Gamma^k_aj + Gamma^j_ak| over
    the directions e_a and xi, and max |Gamma^k_aj - Gamma^k_ja - c^k_aj|."""
    s = conn.structure
    h = s.h
    metricity = _max_abs(
        s.eval_scalar(ex.add(g[j][k], g[k][j]), points)
        for g in map(conn.gamma, range(h + 1))
        for j in range(h)
        for k in range(h)
    )
    torsion = _max_abs(
        s.eval_scalar(
            ex.sub(
                ex.sub(conn.gamma_h[a][j][k], conn.gamma_h[j][a][k]),
                s.brackets.c_h[a][j][k],
            ),
            points,
        )
        for a in range(h)
        for j in range(h)
        for k in range(h)
    )
    return metricity, torsion


def covariant_derivative(
    conn: ConnectionData, T: HTensor, direction: int
) -> HTensor:
    """(nabla_direction T) in frame components; direction 0 means xi.

    Each lower slot contracts -Gamma, each upper slot +Gamma, plus the
    frame derivative of the scalar components.  Only the Gamma entries that
    are not literal zeros are contracted: a zero entry contributes
    ex.mul(ZERO, .) = ZERO, which the sum drops, so the result is the same.
    """
    s = conn.structure
    h = s.h
    g = conn.gamma(direction)
    lower = [[(m, g[i][m]) for m in range(h) if not _is_zero(g[i][m])] for i in range(h)]
    upper = [[(m, g[m][i]) for m in range(h) if not _is_zero(g[m][i])] for i in range(h)]
    comps = T.components
    out = np.empty_like(comps)
    n_lower = T.n_lower
    rank = T.rank
    for idx in np.ndindex(comps.shape):
        acc = s.frame_derivative(comps[idx], direction)
        for r in range(rank):
            if r < n_lower:
                for m, gm in lower[idx[r]]:
                    acc = ex.sub(acc, ex.mul(gm, comps[idx[:r] + (m,) + idx[r + 1 :]]))
            else:
                for m, gm in upper[idx[r]]:
                    acc = ex.add(acc, ex.mul(gm, comps[idx[:r] + (m,) + idx[r + 1 :]]))
        out[idx] = ex.normalize(acc)
    return HTensor(components=out, n_upper=T.n_upper)


def _is_zero(e: Expression) -> bool:
    return isinstance(e, Const) and e.value == 0


def _extend_with_horizontal_slot(conn: ConnectionData, T: HTensor) -> HTensor:
    """nabla T with the new direction slot leading, horizontal only."""
    h = conn.structure.h
    pieces = [covariant_derivative(conn, T, a + 1).components for a in range(h)]
    comps = np.stack(pieces, axis=0)
    return HTensor(components=comps, n_upper=T.n_upper)


def curvature(conn: ConnectionData) -> CurvatureData:
    """R^k_ab,j = e_a(G^k_bj) - e_b(G^k_aj) + G^k_am G^m_bj - G^k_bm G^m_aj
    - c^m_ab G^k_mj - c^0_ab G^k_0j, stored as [a,b,j,k]."""
    s = conn.structure
    h = s.h
    G = conn.gamma_h
    G0 = conn.gamma_xi
    c_h = s.brackets.c_h
    c_0 = s.brackets.c_0
    comps = np.empty((h, h, h, h), dtype=object)
    comps[...] = ZERO
    for a in range(h):
        for b in range(a + 1, h):
            for j in range(h):
                for k in range(h):
                    acc = ex.sub(
                        s.frame_derivative(G[b][j][k], a + 1),
                        s.frame_derivative(G[a][j][k], b + 1),
                    )
                    for m in range(h):
                        acc = ex.add(acc, ex.mul(G[a][m][k], G[b][j][m]))
                        acc = ex.sub(acc, ex.mul(G[b][m][k], G[a][j][m]))
                        acc = ex.sub(acc, ex.mul(c_h[a][b][m], G[m][j][k]))
                    acc = ex.sub(acc, ex.mul(c_0[a][b], G0[j][k]))
                    acc = ex.normalize(acc)
                    comps[a, b, j, k] = acc
                    comps[b, a, j, k] = ex.neg(acc)
    R = HTensor(components=comps, n_upper=1)
    B = np.empty((h, h), dtype=object)
    for a in range(h):
        for b in range(h):
            B[a, b] = ex.neg(s.brackets.c_0[a][b])
    dalpha = HTensor(components=B, n_upper=0)
    cd = CurvatureData(connection=conn, R=R, dalpha=dalpha)
    higher_derivatives(cd, 0)
    return cd


def higher_derivatives(cd: CurvatureData, order: int) -> CurvatureData:
    """Extend the nabla^i caches through i <= order, plus the one-step
    xi-derivatives of every cached tensor.  New slots for i >= 1 take only
    horizontal directions (the horizontal tensor algebra convention)."""
    if order > cd.max_order:
        raise BudgetError(
            f"derivative order {order} exceeds the configured bound {cd.max_order}"
        )
    h = cd.structure.h
    if h ** (4 + order) > cd.max_components:
        raise BudgetError(
            f"nabla^{order} R would store {h ** (4 + order)} components, "
            f"over the budget {cd.max_components}"
        )
    conn = cd.connection
    if not cd.nabla_R:
        cd.nabla_R.append(cd.R)
        cd.nabla_dalpha.append(cd.dalpha)
        cd.xi_R.append(covariant_derivative(conn, cd.R, 0))
        cd.xi_dalpha.append(covariant_derivative(conn, cd.dalpha, 0))
    while cd.order < order:
        cd.nabla_R.append(_extend_with_horizontal_slot(conn, cd.nabla_R[-1]))
        cd.nabla_dalpha.append(_extend_with_horizontal_slot(conn, cd.nabla_dalpha[-1]))
        cd.xi_R.append(covariant_derivative(conn, cd.nabla_R[-1], 0))
        cd.xi_dalpha.append(covariant_derivative(conn, cd.nabla_dalpha[-1], 0))
    return cd


def eval_tensor(s: ContactStructure, T: HTensor, points: np.ndarray) -> np.ndarray:
    """Numeric components at points: float array T.shape + (N,)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    npts = points.shape[0]
    out = np.empty(T.components.shape + (npts,), dtype=float)
    for idx in np.ndindex(T.components.shape):
        out[idx] = s.eval_scalar(T.components[idx], points)
    return out


# ---------------------------------------------------------------------------
# Identity verification.
# ---------------------------------------------------------------------------


def verify_geometry(
    cd: CurvatureData,
    points: np.ndarray | None = None,
    tol: float = 1e-10,
) -> list[CheckRecord]:
    """Max residuals of the geometric identity suite over sample points:
    metricity/torsion of Gamma, both horizontal Bianchi identities,
    R(xi, .) = 0 expanded from the curvature formula, skewness of R, and
    the cyclic identity for nabla dalpha."""
    s = cd.structure
    conn = cd.connection
    if points is None:
        points = s.validation_points(count=100)
    points = np.atleast_2d(points)
    npts = points.shape[0]
    h = s.h
    records: list[CheckRecord] = []

    def rec(name: str, residual: float) -> None:
        records.append(
            CheckRecord(
                check=name,
                max_residual=float(residual),
                points_tested=npts,
                pass_=bool(residual < tol),
            )
        )

    # (a) metricity and torsion
    metricity, torsion = _axiom_residuals(conn, points)
    rec("metricity", metricity)
    rec("torsion", torsion)

    Rv = eval_tensor(s, cd.R, points)  # [a,b,j,k,N]

    # (b) first Bianchi: R(X,Y)Z + R(Y,Z)X + R(Z,X)Y = 0
    first = Rv + np.transpose(Rv, (1, 2, 0, 3, 4)) + np.transpose(Rv, (2, 0, 1, 3, 4))
    rec("bianchi_first", _max_abs([first]))

    # (c) second Bianchi: (nabla_X R)(Y,Z) + cyclic = 0
    higher_derivatives(cd, 1)
    dRv = eval_tensor(s, cd.nabla_R[1], points)  # [v,a,b,j,k,N]
    second = (
        dRv
        + np.transpose(dRv, (1, 2, 0, 3, 4, 5))
        + np.transpose(dRv, (2, 0, 1, 3, 4, 5))
    )
    rec("bianchi_second", _max_abs([second]))

    # (d) R(xi, e_b) = 0 via the curvature formula with Z = xi
    G0 = conn.gamma_xi
    r_xi = []
    for b in range(h):
        for j in range(h):
            for k in range(h):
                acc = ex.sub(
                    s.frame_derivative(conn.gamma_h[b][j][k], 0),
                    s.frame_derivative(G0[j][k], b + 1),
                )
                for m in range(h):
                    acc = ex.add(acc, ex.mul(G0[m][k], conn.gamma_h[b][j][m]))
                    acc = ex.sub(acc, ex.mul(conn.gamma_h[b][m][k], G0[j][m]))
                    acc = ex.sub(acc, ex.mul(s.brackets.c0_h[b][m], conn.gamma_h[m][j][k]))
                r_xi.append(ex.normalize(acc))
    rec("curvature_reeb", _max_abs(s.eval_scalar(e, points) for e in r_xi))

    # (e) skewness of R(Z,W) w.r.t. g: R^k_ab,j symmetric part in (j,k)
    skew = Rv + np.transpose(Rv, (0, 1, 3, 2, 4))
    rec("curvature_skew", _max_abs([skew]))

    # (f) cyclic identity for nabla dalpha
    dBv = eval_tensor(s, cd.nabla_dalpha[1], points)  # [v,a,b,N]
    cyc = (
        dBv
        + np.transpose(dBv, (1, 2, 0, 3))
        + np.transpose(dBv, (2, 0, 1, 3))
    )
    rec("dalpha_bianchi", _max_abs([cyc]))

    return records
