"""Serial reference for the batched transport kernel.

This is the per-curve loop the kernel replaced: it evaluates the stage data
of one curve, then takes classical RK4 steps one at a time, evaluating the
right-hand side of the prolongation system

    x' = -A v - Gamma(v) x,
    A' = R(x, v) - Gamma(v) A + A Gamma(v),
    c' = -dalpha(x, v)

directly.  Reconstruction repeats it per grid point along the two-leg path.

dense_operator is the transport operator M of y' = M y as the batched kernel
first built it: from dense Gamma, R and dalpha tables at every stage point,
zeros included, contracted by einsum.
"""

from __future__ import annotations

import math

import numpy as np

from srkilling import expr as ex
from srkilling.connection import eval_tensor
from srkilling.killing import Generator, segment_curve


def dense_operator(cd, pts, vel, v=None):
    """(M (S, d, d), v (S, dim)) at stage points pts with velocities vel,
    from dense coefficient tables and five einsum contractions.  The v
    returned is np.linalg.solve's; M is built from the v given, if one is."""
    s = cd.structure
    h = s.h
    basis = s.basis_matrix_at(pts)  # (S, dim, dim)
    if not (np.isfinite(pts).all() and np.isfinite(vel).all() and np.isfinite(basis).all()):
        raise ex.EvalError("curve leaves the evaluable domain of the structure")
    try:
        v_solve = np.linalg.solve(basis, vel[..., None])[..., 0]
    except np.linalg.LinAlgError:
        raise ex.EvalError("frame degenerates along the curve") from None
    v = v_solve if v is None else v
    Gh = s.eval_table(cd.connection.gamma_h, pts)
    G0 = s.eval_table(cd.connection.gamma_xi, pts)
    Rv = eval_tensor(s, cd.R, pts)
    Bv = eval_tensor(s, cd.dalpha, pts)
    for arr in (Gh, G0, Rv, Bv):
        if not np.isfinite(arr).all():
            raise ex.EvalError("connection data is not finite along the curve")
    vh = v[:, :h]
    # Gamma(v) as matrices acting on column vectors: G[s, k, j]
    G = np.einsum("sa,ajks->skj", vh, Gh) + v[:, h, None, None] * G0.transpose(2, 1, 0)
    npts, hh, eye = len(pts), h * h, np.eye(h)
    M = np.zeros((npts, h + hh + 1, h + hh + 1))
    # x' = -A v - Gamma(v) x
    M[:, :h, :h] = -G
    M[:, :h, h:-1] = -np.einsum("km,sj->skmj", eye, vh).reshape(npts, h, hh)
    # A' = R(x, v) - Gamma(v) A + A Gamma(v), A row-major
    M[:, h:-1, :h] = np.einsum("sb,abjks->skja", vh, Rv).reshape(npts, hh, h)
    M[:, h:-1, h:-1] = (
        np.einsum("km,snj->skjmn", eye, G) - np.einsum("skm,jn->skjmn", G, eye)
    ).reshape(npts, hh, hh)
    # c' = -dalpha(x, v)
    M[:, -1, :h] = -np.einsum("abs,sb->sa", Bv, vh)
    return M, v_solve


def stage_data(cd, curve, nsteps):
    """Coefficient arrays at the 2*nsteps+1 half-step stage points."""
    s = cd.structure
    ts = curve.t0 + (curve.t1 - curve.t0) * np.arange(2 * nsteps + 1) / (2 * nsteps)
    pts = np.stack([ex.compile_expression(e, ["t"])(ts) for e in curve.exprs], axis=-1)
    dgamma = np.stack(
        [ex.compile_expression(ex.differentiate(e, "t"), ["t"])(ts) for e in curve.exprs],
        axis=-1,
    )
    basis = s.basis_matrix_at(pts)
    v = np.linalg.solve(basis, dgamma[..., None])[..., 0]
    h = s.h
    Gh = np.empty((h, h, h, len(ts)))
    for a in range(h):
        for j in range(h):
            for k in range(h):
                Gh[a, j, k] = s.eval_scalar(cd.connection.gamma_h[a][j][k], pts)
    G0 = np.empty((h, h, len(ts)))
    for j in range(h):
        for k in range(h):
            G0[j, k] = s.eval_scalar(cd.connection.gamma_xi[j][k], pts)
    Rv = eval_tensor(s, cd.R, pts)
    Bv = eval_tensor(s, cd.dalpha, pts)
    Gv = np.einsum("sa,ajks->skj", v[:, :h], Gh) + v[:, h][:, None, None] * np.moveaxis(
        G0, -1, 0
    ).transpose(0, 2, 1)
    return v, Gv, np.moveaxis(Rv, -1, 0), np.moveaxis(Bv, -1, 0)


def serial_transport(cd, gen, curve, step):
    """(end generator with A projected to skew, raw skew drift, steps)."""
    span = curve.t1 - curve.t0
    nsteps = max(1, int(math.ceil(abs(span) / step)))
    hstep = span / nsteps
    v, Gv, Rv, Bv = stage_data(cd, curve, nsteps)
    hz = cd.structure.h

    def rhs(stage, x, A, c):
        vh = v[stage, :hz]
        G = Gv[stage]
        xdot = -A @ vh - G @ x
        Adot = np.einsum("a,b,abjk->kj", x, vh, Rv[stage]) - G @ A + A @ G
        cdot = -x @ Bv[stage] @ vh
        return xdot, Adot, cdot

    x, A, c = gen.X.copy(), gen.A.copy(), gen.c
    for i in range(nsteps):
        s0, s1, s2 = 2 * i, 2 * i + 1, 2 * i + 2
        k1 = rhs(s0, x, A, c)
        k2 = rhs(s1, x + 0.5 * hstep * k1[0], A + 0.5 * hstep * k1[1], c + 0.5 * hstep * k1[2])
        k3 = rhs(s1, x + 0.5 * hstep * k2[0], A + 0.5 * hstep * k2[1], c + 0.5 * hstep * k2[2])
        k4 = rhs(s2, x + hstep * k3[0], A + hstep * k3[1], c + hstep * k3[2])
        x = x + hstep / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        A = A + hstep / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        c = c + hstep / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    drift = float(np.max(np.abs(A + A.T)))
    end = Generator(X=x, A=0.5 * (A - A.T), c=c, q=curve.point_at(curve.t1))
    return end, drift, nsteps


def serial_reconstruct(cd, gen, grid, step):
    """(X, A, c) per grid point, transported one leg and one point at a time."""
    q0 = gen.q
    leg1: dict[float, Generator] = {}
    out = []
    for q in grid.points:
        zq = float(q[-1])
        mid_gen = leg1.get(zq)
        if mid_gen is None:
            mid = q0.copy()
            mid[-1] = zq
            if np.max(np.abs(mid - q0)) < 1e-15:
                mid_gen = gen
            else:
                mid_gen = serial_transport(cd, gen, segment_curve(q0, mid), step)[0]
            leg1[zq] = mid_gen
        if np.max(np.abs(q - mid_gen.q)) < 1e-15:
            end = mid_gen
        else:
            end = serial_transport(cd, mid_gen, segment_curve(mid_gen.q, q), step)[0]
        out.append(end)
    return (
        np.array([g.X for g in out]),
        np.array([g.A for g in out]),
        np.array([g.c for g in out]),
    )
