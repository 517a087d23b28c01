"""Two identities the `verify` suite once checked twice, restated here so they
stay covered by the records it keeps.

- Cartan: (L_Z alpha)(e_j) = dalpha(Z, e_j) + e_j(alpha(Z)), and since
  alpha(e_j) = 0 it is also -alpha([Z, e_j]), the frame entries of
  `lie_alpha`.
- Metricity: Gamma is skew in an orthonormal frame, so A_Z + A_Z^T is the
  Killing-equation term <P[Z,e_k],e_j> + <e_k,P[Z,e_j]> of `killing_metric`.

Both sides are compared entry by entry at sample points, on seeded fields,
Killing and not, on `heisenberg:1`, `su2:chart` and two lie-mode algebras:
`lie_n2.toml` (n = 2) and `aff_lie.toml`, whose nonzero Gamma makes the
second identity more than 0 = 0 in lie mode."""

import pathlib

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling import killing
from srkilling.connection import compute_connection, curvature
from srkilling.frame import load_structure
from srkilling.killing import a_z_field, verify_killing

from conftest import HEIS_KILLING, SU2C_KILLING, random_expression

DATA = pathlib.Path(__file__).resolve().parent / "data"
REL = 1e-12


def _cd(spec):
    return curvature(compute_connection(load_structure(spec)))


def _fields(s, killing_fields, seed):
    """The named Killing fields and three seeded fields that are not: rational
    constant components, and in chart mode one polynomial field first."""
    rng = np.random.default_rng(seed)
    drawn = [
        [ex.const(f"{rng.integers(-6, 7)}/{rng.integers(1, 5)}") for _ in range(s.dim)]
        for _ in range(3)
    ]
    if s.coords:
        drawn[0] = [random_expression(rng, s.coords, depth=2, trig=False) for _ in s.coords]
    return [s.parse_field(f) for f in killing_fields] + drawn


CASES = {
    "heisenberg:1": (list(HEIS_KILLING.values()), 11),
    "su2:chart": (list(SU2C_KILLING.values()), 12),
    str(DATA / "lie_n2.toml"): ([["0", "0", "0", "0", "1"]], 13),
    str(DATA / "aff_lie.toml"): ([["0", "0", "1"]], 14),
}


@pytest.fixture(scope="module", params=sorted(CASES), ids=lambda k: pathlib.Path(k).name)
def case(request):
    cd = _cd(request.param)
    killing_fields, seed = CASES[request.param]
    return cd, _fields(cd.structure, killing_fields, seed)


def _kept_checks(cd, Z, pts, monkeypatch):
    """The residual expressions verify_killing reports, by record name."""
    seen = {}
    real = killing.residual_records

    def capture(s, checks, points, tol):
        seen.update(checks)
        return real(s, checks, points, tol)

    monkeypatch.setattr(killing, "residual_records", capture)
    verify_killing(cd, Z, pts)
    return seen


def _assert_equal(s, got, want, pts):
    g, w = s.eval_scalar(got, pts), s.eval_scalar(want, pts)
    scale = max(1.0, np.max(np.abs(g)), np.max(np.abs(w)))
    assert np.max(np.abs(g - w)) <= REL * scale


def test_cartan_residual_is_lie_alpha_on_the_frame(case, monkeypatch):
    cd, fields = case
    s = cd.structure
    pts = s.validation_points(count=20, seed=3)
    for Z in fields:
        alphaZ = s.alpha_of(Z)
        cartan = [
            ex.add(s.dalpha_on(Z, s.frame[j]), s.frame_derivative(alphaZ, j + 1))
            for j in range(s.h)
        ]
        lie = _kept_checks(cd, Z, pts, monkeypatch)["lie_alpha"][: s.h]
        _assert_equal(s, cartan, [ex.neg(e) for e in lie], pts)


def test_a_z_plus_transpose_is_killing_metric(case, monkeypatch):
    cd, fields = case
    s = cd.structure
    pts = s.validation_points(count=20, seed=4)
    for Z in fields:
        A = a_z_field(cd.connection, Z)
        sym = [ex.add(A[k][j], A[j][k]) for k in range(s.h) for j in range(k, s.h)]
        _assert_equal(s, sym, _kept_checks(cd, Z, pts, monkeypatch)["killing_metric"], pts)


def test_the_drawn_fields_are_not_all_killing(case):
    # the comparisons above see nonzero residuals, not only rounding
    cd, fields = case
    s = cd.structure
    pts = s.validation_points(count=20, seed=3)
    worst = max(r.max_residual for r in verify_killing(cd, fields[-1], pts) if r.check == "lie_alpha")
    assert worst > 1e-3
