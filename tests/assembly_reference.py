"""Per-point reference for the batched generator-space assembler.

This is the loop the batched assembler replaced: for one cached point it
builds each column of f_q from one basis unknown (X, A, c) of a(q) as

    X . nabla^(i+1) T + c xi T + A . T,

where A . T is the derivation of the single endomorphism A on T, one
tensordot per slot, the slot terms added in slot order.  The row block of
nabla^i T is left out when nabla^(i+1) T, nabla^i T and nabla_xi nabla^i T
all store nothing: it is a literal zero.
"""

from __future__ import annotations

import numpy as np


def endomorphism_action(A, values, n_upper):
    """+A on each upper slot of values, minus composition with A on each
    lower slot; one endomorphism, no point axis."""
    rank = values.ndim
    n_lower = rank - n_upper
    out = np.zeros_like(values)
    for r in range(rank):
        if r < n_lower:
            term = -np.moveaxis(np.tensordot(values, A, axes=([r], [0])), -1, r)
        else:
            term = np.moveaxis(np.tensordot(values, A, axes=([r], [1])), -1, r)
        out = out + term
    return out


def unknown_basis(h):
    """Basis of a(q) in the packing order of pack_generator."""
    out = []
    for a in range(h):
        X = np.zeros(h)
        X[a] = 1.0
        out.append((X, np.zeros((h, h)), 0.0))
    for i in range(h):
        for j in range(i):
            A = np.zeros((h, h))
            A[i, j] = 1.0
            A[j, i] = -1.0
            out.append((np.zeros(h), A, 0.0))
    out.append((np.zeros(h), np.zeros((h, h)), 1.0))
    return out


def stores_something(cd, key, i):
    """Does one of the three tensors the row block of nabla^i T reads store
    an entry?  T = R (key "R") or dalpha ("B")."""
    tower = cd.nabla_R if key == "R" else cd.nabla_dalpha
    xi_tower = cd.xi_R if key == "R" else cd.xi_dalpha
    return bool(tower[i + 1].entries or tower[i].entries or xi_tower[i].entries)


def assemble_map(cd, m, cache, p):
    """Dense matrix of f_q at cached point index p, its literal-zero row
    blocks left out."""
    cols = []
    for X, A, c in unknown_basis(cd.structure.h):
        rows = []
        for i in range(m + 1):
            for key, n_upper in (("R", 1), ("B", 0)):
                if not stores_something(cd, key, i):
                    continue
                Tv = cache[(key, i)][..., p]
                Tnv = cache[(key, i + 1)][..., p]
                Txiv = cache[(key + "xi", i)][..., p]
                val = np.tensordot(X, Tnv, axes=([0], [0])) + c * Txiv
                val = val + endomorphism_action(A, Tv, n_upper)
                rows.append(val.ravel())
        cols.append(np.concatenate(rows))
    return np.stack(cols, axis=1)
