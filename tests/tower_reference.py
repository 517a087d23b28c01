"""Dense reference for the sparse curvature tower.

This is the tower the sparse HTensor replaced: nabla T is built over every
index of a dense object array of components, zeros included, each
component summing the frame derivative, then over the slots r and every
m the term -+Gamma * T, exactly the formula of covariant_derivative
without any skipping.
"""

from __future__ import annotations

import hashlib

import numpy as np

from srkilling import expr as ex


def covariant_derivative(conn, comps, n_upper, direction):
    """nabla_direction of the dense tensor comps (object array)."""
    s = conn.structure
    g = conn.gamma(direction)
    n_lower = comps.ndim - n_upper
    out = np.empty_like(comps)
    for idx in np.ndindex(comps.shape):
        acc = s.frame_derivative(comps[idx], direction)
        for r in range(comps.ndim):
            for m in range(s.h):
                other = comps[idx[:r] + (m,) + idx[r + 1 :]]
                if r < n_lower:
                    acc = ex.sub(acc, ex.mul(g[idx[r]][m], other))
                else:
                    acc = ex.add(acc, ex.mul(g[m][idx[r]], other))
        out[idx] = ex.normalize(acc)
    return out


def tower(cd, order):
    """{"nabla_R", "nabla_dalpha", "xi_R", "xi_dalpha"}: dense object arrays
    through nabla^order, built in the order higher_derivatives builds them,
    the new direction slot leading."""
    conn = cd.connection
    h = cd.structure.h
    out = {"nabla_R": [cd.R.components], "nabla_dalpha": [cd.dalpha.components]}
    ups = {"R": 1, "dalpha": 0}
    out["xi_R"] = [covariant_derivative(conn, out["nabla_R"][0], 1, 0)]
    out["xi_dalpha"] = [covariant_derivative(conn, out["nabla_dalpha"][0], 0, 0)]
    for _ in range(order):
        for key in ("R", "dalpha"):
            T = out["nabla_" + key][-1]
            pieces = [covariant_derivative(conn, T, ups[key], a + 1) for a in range(h)]
            out["nabla_" + key].append(np.stack(pieces, axis=0))
        for key in ("R", "dalpha"):
            T = out["nabla_" + key][-1]
            out["xi_" + key].append(covariant_derivative(conn, T, ups[key], 0))
    return out


def fingerprint(e, memo):
    """A digest of the printed structure of e, computed once per distinct
    node: equal fingerprints mean equal to_string.  to_string itself writes
    a shared subtree out at every use, which grows exponentially with the
    order of a non-polynomial tower (about 6e8 characters at order 3 of the
    rational Heisenberg copy)."""
    stack = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        kids = ex._children(node)
        if expanded:
            label = type(node).__name__ + repr(
                [getattr(node, f) for f in ("value", "name", "exponent", "fn") if hasattr(node, f)]
            )
            text = label + "(" + ",".join(memo[id(c)][1] for c in kids) + ")"
            memo[id(node)] = (node, hashlib.sha256(text.encode()).hexdigest())
        elif id(node) not in memo:
            stack.append((node, True))
            stack.extend((c, False) for c in kids)
    return memo[id(e)][1]
