"""Lie mode through the normalization and Reeb path of chart mode.

The unit-weight Heisenberg algebra [e_(2i-1), e_(2i)] = e_(2n+1) is the
left-invariant model of the chart builtin heisenberg:n, so the two must
agree wherever the code can be asked: generator spaces, curvature and the
structure checks.  For n >= 2 its v = n! Pf(B0) = +-n! has no rational
n-th root, so its normalization is an irrational constant."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from srkilling import expr as ex
from srkilling.cli import main
from srkilling.frame import OrientationError, load_structure_text


def algebra(n, weights=None):
    """[e_(2i-1), e_(2i)] = w_i e_(2n+1), every other bracket zero."""
    weights = weights or [1] * n
    return f"[manifold]\nmode = lie\nn = {n}\n[brackets]\n" + "".join(
        f"c {2 * i + 1} {2 * i + 2} {2 * n + 1} = {w}\n" for i, w in enumerate(weights)
    )


def report(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def write(tmp_path):
    def to_file(text):
        path = tmp_path / "algebra.toml"
        path.write_text(text)
        return str(path)

    return to_file


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_heisenberg_algebra_matches_the_chart_builtin(capsys, write, n):
    path = write(algebra(n))
    code, lie = report(capsys, "dim", path)
    assert code == 0
    code, chart = report(capsys, "dim", f"heisenberg:{n}")
    assert code == 0
    assert lie["dims"] == chart["dims"]
    assert lie["dim_i"] == (n + 1) ** 2
    assert lie["certified"] and chart["certified"]
    np.testing.assert_allclose(lie["singular_values"], chart["singular_values"], rtol=0, atol=1e-12)

    code, curv = report(capsys, "curvature", path, "--order", "2")
    assert code == 0
    assert curv["max_abs_R"] == 0.0
    assert curv["nabla_R_max_abs"] == [0.0, 0.0, 0.0]

    code, check = report(capsys, "check", path)
    assert code == 0 and check["pass"] and check["special"]


@pytest.mark.parametrize(
    "weights,sign",
    [
        ([1, 1, 1], -1),  # v = 3! Pf(B0) = -6
        ([1, 1, -1], 1),  # e_5, e_6 swapped: isometric, v = 6
    ],
)
def test_odd_n_loads_either_orientation(capsys, write, weights, sign):
    s = load_structure_text(algebra(3, weights))
    assert s.orientation_sign == sign
    code, rep = report(capsys, "dim", write(algebra(3, weights)))
    assert code == 0 and rep["dim_i"] == 16 and rep["certified"]


def test_negative_cube_takes_its_exact_odd_root(capsys, write):
    # v = 3! (-1)(-1)(-36) = -216, so alpha = v^(-1/3) e^7 = -e^7/6 exactly,
    # and every structure check reads an exact zero
    s = load_structure_text(algebra(3, [1, 1, 36]))
    assert s.orientation_sign == -1
    assert s.alpha[-1] == ex.Const(Fraction(-1, 6))
    assert all(isinstance(x, ex.Const) for x in s.reeb)
    code, rep = report(capsys, "check", write(algebra(3, [1, 1, 36])))
    assert code == 0
    assert [r["max_residual"] for r in rep["checks"]] == [0.0] * 4
    # J has eigenvalues 1, 1, 36: the isotropy is U(2) x U(1), so
    # dim i = 7 translations + 4 + 1
    code, rep = report(capsys, "dim", write(algebra(3, [1, 1, 36])))
    assert code == 0 and rep["dim_i"] == 12 and rep["certified"]


def test_even_n_with_negative_v_is_an_orientation_error():
    with pytest.raises(OrientationError) as err:
        load_structure_text(algebra(2, [1, -1]))
    assert "negate one frame field" in str(err.value)


def test_non_contact_algebra_past_the_matching_guard(capsys, write):
    # two constants c^5_ij, but no perfect matching: Pf(B0) = 0
    text = "[manifold]\nmode = lie\nn = 2\n[brackets]\nc 1 2 5 = 1\nc 1 3 5 = 1\n"
    code, rep = report(capsys, "check", write(text))
    assert code == 2
    assert rep["error"]["message"] == (
        "distribution is not contact: wedge^n dalpha0 vanishes at a sample point"
    )


def test_exact_normalization_is_reported_exactly(capsys, write):
    # w_1 = 12!^11 and the others 1: v = 12! Pf(B0) is an exact 12th power,
    # so alpha, xi and every dalpha entry are exact constants, and so is
    # wedge^12 dalpha - 1.  A float Pfaffian of the dalpha values rounds its
    # products and reads 8.9e-16.
    n = 12
    path = write(algebra(n, [math.factorial(n) ** (n - 1)] + [1] * (n - 1)))
    code, rep = report(capsys, "check", path)
    assert code == 0
    assert {r["check"]: r["max_residual"] for r in rep["checks"]}["normalization"] == 0.0
