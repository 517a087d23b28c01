"""Reference float path of frame.structure_checks.

The structure identities as the library once checked them: the dalpha
frame matrix, alpha(e_i) and the Reeb identities are evaluated at the
points, and wedge^n dalpha(e_1..e_2n) = n! Pf is expanded over the
evaluated arrays by a float Pfaffian, term by term with no entry skipped.
Tests use it as an oracle for the symbolic residuals that replaced it.
"""

from __future__ import annotations

import math

from srkilling import frame


def float_pfaffian(A, idx: tuple[int, ...], memo: dict):
    """Pf of the arrays A[i][j] restricted to idx, expanded along the first
    remaining row: sum_p (-1)^(p+1) A[idx[0]][idx[p]] Pf(idx without 0 and p)."""
    hit = memo.get(idx)
    if hit is None:
        i = idx[0]
        for p in range(1, len(idx)):
            term = A[i][idx[p]] * float_pfaffian(A, idx[1:p] + idx[p + 1 :], memo)
            hit = term if p == 1 else (hit + term if p % 2 else hit - term)
        memo[idx] = hit
    return hit


def structure_checks(s, pts) -> dict[str, float]:
    """{"alpha_frame", "normalization", "reeb"} -> max residual at pts, in
    floats."""
    unit = frame._unit_fields(s.dim)
    alpha_frame = s.evaluator([s.alpha_of(vec) for vec in s.frame], cached=False)
    dalpha = s.evaluator(s.dalpha_frame(), cached=False)  # (2n, 2n, N)
    reeb = s.evaluator([s.alpha_of(s.reeb)] + [s.dalpha_on(s.reeb, e) for e in unit], cached=False)

    def residuals(p):
        r = reeb(p)
        wedge = math.factorial(s.n) * float_pfaffian(dalpha(p), tuple(range(2 * s.n)), {(): 1})
        return {
            "alpha_frame": [alpha_frame(p)],
            "normalization": [wedge - 1.0],
            "reeb": [r[0] - 1.0, r[1:]],
        }.items()

    return frame.fold_max_abs(pts, s.dim * s.dim, residuals)
