import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from srkilling import cli, frame, killing
from srkilling.cli import main
from srkilling.frame import ContactStructure

from conftest import fresh_env

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


CURVE_Y = """
[curve]
t_range = 0 1
gamma = 0, t, 0
"""

CURVE_POLE = """
[curve]
t_range = 0 1
gamma = 1/t, 0, 0
"""

GEN_Y1 = """
[generator]
X = 1 0
A = 0
c = 0
at = 0, 0, 0
"""

GEN_J = """
[generator]
X = 0 0
A = -1
c = 0
at = 0, 0, 0
"""

# The isometric copy of Heisenberg whose X2 has a pole on the plane y = 3.
POLE_AT_Y3 = """
[manifold]
mode = chart
n = 1
coords = x, y, z

[frame]
X1 = 1, 0, -y/2
X2 = 0, 1, x/2 - 1/(y-3)^2
"""

# dim i(q) is 2 of 4 on this frame (the warped circle bundle of
# tests/test_scan_assembly.py).
WARPED = """
[manifold]
mode = chart
n = 1
coords = x, y, z

[frame]
X1 = 1 + x^2, 0, y/(1 + x^2)
X2 = 0, 1 + x^2, 0
"""


class TestBasicCommands:
    def test_check_heisenberg(self, capsys):
        code, out = run(capsys, "check", "heisenberg:1")
        assert code == 0
        rep = json.loads(out)
        assert rep["special"] is True
        assert rep["pass"] is True
        assert all(r["pass"] for r in rep["checks"])

    def test_check_not_special_exits_3(self, capsys, tmp_path):
        f = tmp_path / "warped.toml"
        f.write_text(
            "[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n"
            "[frame]\nX1 = 1, 0, -y/2\nX2 = 0, 1 + x^2, x*(1 + x^2)/2\n"
        )
        code, out = run(capsys, "check", str(f))
        assert code == 3
        rep = json.loads(out)
        assert rep["special"] is False

    def test_dim_su2(self, capsys):
        code, out = run(capsys, "dim", "su2", "--at", "0,0,0")
        assert code == 0
        rep = json.loads(out)
        assert rep["dims"] == [4, 4, 4]
        assert rep["dim_i"] == 4
        assert rep["certified"] is True

    def test_missing_file_exits_2(self, capsys):
        code, out = run(capsys, "check", "nosuch.toml")
        assert code == 2
        rep = json.loads(out)
        assert rep["error"]["kind"] == "input_error"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.toml"
        f.write_text("[manifold]\nmode = chart\n")
        code, out = run(capsys, "check", str(f))
        assert code == 2

    @pytest.mark.parametrize(
        "rows, bad",
        [
            ("X1 = 1, 0, pow(x, 1/2)\nX2 = 0, 1, x/2\n", "X1"),  # NaN where x < 0
            ("X1 = 1, 0, 1/x\nX2 = 0, 1, x/2\n", "X1"),  # a pole at the origin sample
            ("X1 = 1, 0, -y/2\nX2 = 0, 1, x/y\n", "X2"),
        ],
    )
    def test_non_finite_frame_exits_2(self, capsys, tmp_path, rows, bad):
        # an input error naming the frame row, not an SVD failure
        f = tmp_path / "frame.toml"
        f.write_text("[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n[frame]\n" + rows)
        code, out = run(capsys, "check", str(f))
        assert code == 2
        rep = json.loads(out)
        assert rep["error"]["kind"] == "input_error"
        assert rep["error"]["message"] == f"frame row {bad} is not finite at a sample point"

    def test_curvature(self, capsys):
        code, out = run(capsys, "curvature", "su2", "--at", "0,0,0", "--order", "1")
        assert code == 0
        rep = json.loads(out)
        R = np.array(rep["R"])
        assert R[0, 1, 0, 1] == -1.0
        assert R[0, 1, 1, 0] == 1.0
        assert rep["nabla_R_max_abs"][1] == 0.0

    def test_connection(self, capsys):
        code, out = run(capsys, "connection", "su2")
        assert code == 0
        rep = json.loads(out)
        assert rep["gamma_xi"][0][1] == -1.0
        assert rep["gamma_xi"][1][0] == 1.0

    def test_named_point_syntax(self, capsys):
        code, out = run(capsys, "dim", "heisenberg:1", "--at", "x=0,y=0,z=0")
        assert code == 0
        assert json.loads(out)["dim_i"] == 4

    def test_verify_lie_mode_constant_field(self, capsys):
        code, out = run(capsys, "verify", "su2", "--field", "0, 0, -1")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("field,code", [("0,0,1", 0), ("1,0,0", 3)])
    def test_verify_lie_mode_contact_check(self, capsys, field, code):
        got, out = run(capsys, "verify", "su2", "--field", field)
        assert got == code
        lie = next(r for r in json.loads(out)["checks"] if r["check"] == "lie_alpha")
        assert lie["pass"] is (code == 0)

    @pytest.mark.parametrize("command", ["dim", "verify-geometry"])
    def test_nan_special_residual_is_a_check_failure(self, capsys, tmp_path, command):
        # heisenberg:2 with a non-special X2: the special residuals are NaN
        # at some points of the default 5^5 grid, which must not pass
        f = tmp_path / "not_special.toml"
        f.write_text(
            "[manifold]\nmode = chart\nn = 2\ncoords = x1, y1, x2, y2, z\n[frame]\n"
            "X1 = 1, 0, 0, 0, -y1/2\nX2 = 0, 1, 0, 0, x1/2 + x1*y2\n"
            "X3 = 0, 0, 1, 0, -y2/2\nX4 = 0, 0, 0, 1, x2/2\n"
        )
        code, out = run(capsys, command, str(f))
        assert code == 3
        err = json.loads(out)["error"]
        assert err["kind"] == "check_failure"
        assert "not special" in err["message"]

    def test_verify_geometry(self, capsys):
        code, out = run(capsys, "verify-geometry", "heisenberg:1")
        assert code == 0
        rep = json.loads(out)
        names = {r["check"] for r in rep["checks"]}
        assert "bianchi_first" in names and "curvature_reeb" in names
        assert rep["pass"] is True


class TestTransportCommands:
    def test_prolong(self, capsys, tmp_path):
        (tmp_path / "curve.toml").write_text(CURVE_Y)
        (tmp_path / "gen.toml").write_text(GEN_Y1)
        code, out = run(
            capsys,
            "prolong",
            "heisenberg:1",
            "--curve",
            str(tmp_path / "curve.toml"),
            "--gen",
            str(tmp_path / "gen.toml"),
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["X"] == [1.0, 0.0]
        assert abs(rep["c"] + 1.0) < 1e-8

    def test_prolong_require_horizontal_fails_on_vertical(self, capsys, tmp_path):
        (tmp_path / "curve.toml").write_text(
            "[curve]\nt_range = 0 1\ngamma = 0, 0, t\n"
        )
        (tmp_path / "gen.toml").write_text(GEN_Y1)
        code, out = run(
            capsys,
            "prolong",
            "heisenberg:1",
            "--curve",
            str(tmp_path / "curve.toml"),
            "--gen",
            str(tmp_path / "gen.toml"),
            "--require-horizontal",
        )
        assert code == 3

    def test_path_check(self, capsys, tmp_path):
        (tmp_path / "c1.toml").write_text("[curve]\nt_range = 0 1\ngamma = t, t, 0\n")
        (tmp_path / "c2.toml").write_text(
            "[curve]\nt_range = 0 1\ngamma = t^2, t, 0\n"
        )
        (tmp_path / "gen.toml").write_text(GEN_Y1)
        argv = [
            "path-check",
            "heisenberg:1",
            "--curve",
            str(tmp_path / "c1.toml"),
            "--curve",
            str(tmp_path / "c2.toml"),
            "--gen",
            str(tmp_path / "gen.toml"),
        ]
        code, out = run(capsys, *argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["deviation"] < 1e-6
        assert rep["tolerance"] == 1e-6
        # an explicit --tol is the deviation tolerance, 1e-10 included
        code, out = run(capsys, *argv, "--tol", "1e-10")
        assert json.loads(out)["tolerance"] == 1e-10

    def test_reconstruct_writes_field(self, capsys, tmp_path):
        (tmp_path / "gen.toml").write_text(GEN_J)
        out_path = tmp_path / "field.json"
        code, out = run(
            capsys,
            "reconstruct",
            "heisenberg:1",
            "--gen",
            str(tmp_path / "gen.toml"),
            "--grid",
            "x:-1:1:3,y:-1:1:3,z:-1:1:3",
            "--step",
            "0.01",
            "--out",
            str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["points"]) == 27
        assert payload["pass"] is True
        summary = json.loads(out)
        assert summary["pass"] is True


def input_error(code, out):
    return code == 2 and json.loads(out)["error"]["kind"] == "input_error"


@pytest.mark.parametrize(
    "grid,message",
    [
        ("x:-1:1:2,y:-1:1:2,z:-1:1:2", "at least 3 points per axis"),
        ("x:0:0:3,y:-1:1:3,z:-1:1:3", "all distinct"),
        (None, "reconstruct needs --grid"),
    ],
)
def test_reconstruct_grid_under_three_points_per_axis_runs_no_transport(
    capsys, tmp_path, monkeypatch, grid, message
):
    def no_transport(*args, **kwargs):
        raise AssertionError("transport ran")

    monkeypatch.setattr(killing, "_propagate", no_transport)
    (tmp_path / "gen.toml").write_text(GEN_J)
    code, out = run(
        capsys, "reconstruct", "heisenberg:1", "--gen", str(tmp_path / "gen.toml"),
        *(["--grid", grid] if grid else []),
    )
    assert input_error(code, out)
    assert message in json.loads(out)["error"]["message"]



@pytest.mark.parametrize("name", ["heisenberg:0", "heisenberg:x", "heisenberg:-1"])
def test_invalid_builtin_name_names_the_rule(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # where no file has the name
    code, out = run(capsys, "check", name)
    assert input_error(code, out)
    message = json.loads(out)["error"]["message"]
    assert "heisenberg:<n> needs an integer n >= 1" in message
    assert "Errno" not in message


def test_a_file_named_like_an_invalid_builtin_is_read(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heisenberg:0").write_text(frame.builtin_text("heisenberg:1"))
    code, out = run(capsys, "check", "heisenberg:0")
    assert code == 0 and json.loads(out)["structure"]["name"] == "heisenberg:0"


def test_lie_mode_refuses_a_huge_n_before_it_allocates(capsys, tmp_path):
    # one constant c^(2n+1)_ij where Pf(B0) != 0 needs n: refused from the
    # constants alone, before anything of size 2n + 1 is built
    path = tmp_path / "huge.toml"
    path.write_text("[manifold]\nmode = lie\nn = 200000000000000000002\n[brackets]\nc 1 2 3 = 1\n")
    code, out = run(capsys, "check", str(path))
    assert input_error(code, out)
    assert json.loads(out)["error"]["message"] == "lie structure is not contact: wedge^n dalpha0 = 0"


# Runs the CLI on its arguments, then writes the names of the loaded
# modules to stderr.
MAIN_THEN_MODULES = """
import sys
from srkilling.cli import main
code = main(sys.argv[1:])
sys.stderr.write(" ".join(sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "su2:chart"),
        ("reconstruct", "heisenberg:1", "--gen", "gen.toml", "--grid", "x:-1:1:3,y:-1:1:3,z:-1:1:3",
         "--step", "0.1"),
    ],
)
def test_a_run_loads_neither_numpy_random_nor_openssl(tmp_path, argv):
    """A run in a fresh process draws its sample points and hashes its
    structure text without numpy.random, which loads secrets, hmac and
    OpenSSL's _hashlib, and without hashlib; the fingerprint is still the
    sha256 of the structure text."""
    (tmp_path / "gen.toml").write_text(GEN_J)
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_THEN_MODULES, *argv],
        cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert {"srkilling.frame", "numpy"} <= loaded
    banned = loaded & {"numpy.random", "secrets", "_hashlib", "hashlib"}
    assert not banned, banned
    text = frame.builtin_text(argv[1])
    assert json.loads(proc.stdout)["structure"]["fingerprint"] == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_verify_computes_each_bracket_once(capsys, monkeypatch):
    pairs = []
    original = ContactStructure.bracket
    load = cli.load_structure

    def counted(self, V, W):
        pairs.append((tuple(map(str, V)), tuple(map(str, W))))
        return original(self, V, W)

    def loaded(*args, **kwargs):
        # the load's structure functions take brackets of their own
        s = load(*args, **kwargs)
        pairs.clear()
        return s

    monkeypatch.setattr(ContactStructure, "bracket", counted)
    monkeypatch.setattr(cli, "load_structure", loaded)
    y1 = "(1 + x^2 - y^2 - z^2)/4, (x*y - z)/2, (x*z + y)/2"
    code, _ = run(capsys, "verify", "su2:chart", "--field", y1)
    assert code == 0
    # [Z, e_1], [Z, e_2], [Z, xi] and [xi, Z]
    assert len(pairs) == len(set(pairs)) == 4


class TestTransportInputs:
    """Transport arguments that no integration can honour exit 2."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "curve.toml").write_text(CURVE_Y)
        (tmp_path / "gen.toml").write_text(GEN_Y1)
        (tmp_path / "gen_j.toml").write_text(GEN_J)
        return tmp_path

    def prolong(self, capsys, files, *extra, curve="curve.toml", gen="gen.toml"):
        return run(
            capsys, "prolong", "heisenberg:1",
            "--curve", str(files / curve), "--gen", str(files / gen), *extra,
        )

    # 1e-7 needs 10^7 steps on the unit curve, above the 10^6 bound
    @pytest.mark.parametrize("step", ["nan", "inf", "0", "-1", "1e-7", "abc"])
    def test_prolong_bad_step(self, capsys, files, step):
        assert input_error(*self.prolong(capsys, files, f"--step={step}"))

    def test_negative_step_is_not_positive(self, capsys, files):
        code, out = self.prolong(capsys, files, "--step", "-1e-3")
        assert (code, out) == self.prolong(capsys, files, "--step=-1e-3")
        assert input_error(code, out)
        assert json.loads(out)["error"]["message"] == "--step: '-1e-3' is not positive"

    def test_path_check_bad_step(self, capsys, files):
        code, out = run(
            capsys, "path-check", "heisenberg:1", "--curve", str(files / "curve.toml"),
            "--curve", str(files / "curve.toml"), "--gen", str(files / "gen.toml"), "--step=nan",
        )
        assert input_error(code, out)

    def test_reconstruct_bad_step(self, capsys, files):
        code, out = run(
            capsys, "reconstruct", "heisenberg:1", "--gen", str(files / "gen_j.toml"),
            "--grid", "x:-1:1:3,y:-1:1:3,z:-1:1:3", "--step=0",
        )
        assert input_error(code, out)

    def test_prolong_takes_one_curve(self, capsys, files):
        code, out = self.prolong(capsys, files, "--curve", str(files / "curve.toml"))
        assert input_error(code, out)
        assert json.loads(out)["error"]["message"] == "prolong needs exactly one --curve file"

    def test_generator_off_the_curve_start(self, capsys, files):
        (files / "gen_off.toml").write_text(GEN_Y1.replace("at = 0, 0, 0", "at = 1, 0, 0"))
        assert input_error(*self.prolong(capsys, files, gen="gen_off.toml"))

    def test_path_check_endpoint_mismatch(self, capsys, files):
        (files / "other.toml").write_text("[curve]\nt_range = 0 1\ngamma = t, t, 0\n")
        code, out = run(
            capsys, "path-check", "heisenberg:1", "--curve", str(files / "curve.toml"),
            "--curve", str(files / "other.toml"), "--gen", str(files / "gen.toml"),
        )
        assert input_error(code, out)

    def test_non_finite_t_range(self, capsys, files):
        (files / "inf.toml").write_text(CURVE_Y.replace("t_range = 0 1", "t_range = 0 inf"))
        assert input_error(*self.prolong(capsys, files, curve="inf.toml"))

    def test_decimal_literal_in_a_curve_file(self, capsys, files):
        (files / "decimal.toml").write_text(CURVE_Y.replace("0, t, 0", "-0.390625 + t, t, 0"))
        code, out = self.prolong(capsys, files, curve="decimal.toml")
        assert input_error(code, out)
        assert json.loads(out)["error"]["message"] == (
            "decimal literal '0.390625': numbers are exact rationals, write it as a "
            "ratio of integers such as 1/2 (at offset 1)"
        )

    def test_prolong_curve_with_a_pole_at_its_start(self, capsys, files):
        (files / "pole.toml").write_text(CURVE_POLE)
        assert input_error(*self.prolong(capsys, files, curve="pole.toml"))

    def test_path_check_curve_with_a_pole_at_its_start(self, capsys, files):
        (files / "pole.toml").write_text(CURVE_POLE)
        code, out = run(
            capsys, "path-check", "heisenberg:1", "--curve", str(files / "pole.toml"),
            "--curve", str(files / "pole.toml"), "--gen", str(files / "gen.toml"),
        )
        assert input_error(code, out)

    def test_non_finite_generator(self, capsys, files):
        (files / "gen_nan.toml").write_text(GEN_Y1.replace("c = 0", "c = nan"))
        assert input_error(*self.prolong(capsys, files, gen="gen_nan.toml"))

    def test_frame_degenerate_on_the_curve(self, capsys, tmp_path):
        # e2 and xi vanish at x = 3, outside the load's sample box; the
        # curve's stage point at t = 1/2 sits there, where det P = 0
        (tmp_path / "degen.toml").write_text(
            "[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n"
            "[frame]\nX1 = 1, 0, -y/2\nX2 = 0, x - 3, (x - 3)*x/2\n"
        )
        (tmp_path / "curve.toml").write_text("[curve]\nt_range = 0 1\ngamma = 2 + 2*t, 0, 0\n")
        (tmp_path / "gen.toml").write_text("[generator]\nX = 1 0\nA = 0\nc = 0\nat = 2, 0, 0\n")
        code, out = run(
            capsys, "prolong", str(tmp_path / "degen.toml"),
            "--curve", str(tmp_path / "curve.toml"), "--gen", str(tmp_path / "gen.toml"),
        )
        assert input_error(code, out)
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["message"] == "frame degenerates along the curve"


OVERSIZED_GRIDS = [
    "x:0:1:1000000000,y:0:1:1,z:0:1:1",
    "x:0:1:1,y:0:1:1,z:0:1:" + "9" * 30,
    "x:0:1:1000,y:0:1:1000,z:0:1:1000",
    "x:0:1:101,y:0:1:100,z:0:1:100",
]


class TestNonFiniteValues:
    """Poles and values near the float range in the killing layer: the
    answer stands, and nothing is printed on stderr."""

    @pytest.mark.filterwarnings("error")
    def test_field_with_a_pole_at_the_first_point(self, capsys):
        """The origin, the first sample point, is a pole of 1/x: A_Z's skew
        projection took inf - inf there, with a warning on stderr."""
        code = main(["verify", "heisenberg:1", "--field", "1/x, 0, 0"])
        captured = capsys.readouterr()
        assert code == 3 and json.loads(captured.out)["pass"] is False
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    def test_projection_to_skew_does_not_overflow(self, capsys, tmp_path):
        """A - A^T overflowed on A = 1e308 J after the drift check, and the
        report passed with A = [[0, -inf], [inf, 0]]."""
        (tmp_path / "curve.toml").write_text("[curve]\nt_range = 0 1\ngamma = t, 0, 0\n")
        (tmp_path / "gen.toml").write_text(
            "[generator]\nX = 1e308 1e308\nA = 1e308\nc = 1e308\nat = 0, 0, 0\n"
        )
        code = main([
            "prolong", "heisenberg:1",
            "--curve", str(tmp_path / "curve.toml"), "--gen", str(tmp_path / "gen.toml"),
        ])
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        assert code == 0 and rep["pass"] is True
        assert rep["A"] == [[0.0, -1e308], [1e308, 0.0]]
        values = [*rep["X"], rep["c"], rep["skew_drift"]]
        assert all(isinstance(v, float) and np.isfinite(v) for v in values)
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", ["1", "1e200"])
    def test_generator_off_the_space_is_refused(self, capsys, tmp_path, x):
        """(X, A, c) = ((x, x), 0, 0) is not in i(q0): at x = 1e200 the
        residual's norms overflowed to NaN, which the gate let through."""
        (tmp_path / "warped.toml").write_text(WARPED)
        (tmp_path / "gen.toml").write_text(f"[generator]\nX = {x} {x}\nA = 0\nc = 0\nat = 0, 0, 0\n")
        code = main([
            "reconstruct", str(tmp_path / "warped.toml"), "--gen", str(tmp_path / "gen.toml"),
            "--grid", "x:-0.1:0.1:3,y:-0.1:0.1:3,z:-0.1:0.1:3",
        ])
        captured = capsys.readouterr()
        assert code == 3
        message = json.loads(captured.out)["error"]["message"]
        assert message.startswith("generator is not in the computed i(q0) (residual 7.071e-01)")
        assert captured.err == ""


    @pytest.mark.filterwarnings("error")
    def test_leg_past_the_float_range_is_refused(self, capsys, tmp_path):
        """Leg 2 from x = -1.7e308 to the grid's x = 1e308 spans more than the
        float range: the rounding of its exact difference raised OverflowError,
        a traceback."""
        (tmp_path / "gen.toml").write_text(
            "[generator]\nX = 1, 0\nA = 0\nc = 0\nat = -1.7e308, 0, 0\n"
        )
        code = main([
            "reconstruct", "heisenberg:1", "--gen", str(tmp_path / "gen.toml"),
            "--grid", "x:0:1e308:3,y:-1:1:3,z:-1:1:3", "--step", "0.5",
        ])
        captured = capsys.readouterr()
        assert input_error(code, captured.out)
        message = json.loads(captured.out)["error"]["message"]
        assert message == "curve leaves the evaluable domain of the structure"
        assert captured.err == ""


class TestPointAndGridInputs:
    """Malformed or non-finite points, grids and orders exit 2."""

    @pytest.mark.parametrize(
        "structure,point",
        [
            ("heisenberg:1", "a,b,c"),
            ("heisenberg:1", "1e400,0,0"),
            ("heisenberg:1", "nan,0,0"),
            ("heisenberg:1", "x=inf,y=0,z=0"),
            ("heisenberg:1", "x=1,y=two,z=0"),
            ("heisenberg:1", "x=0.5,y=1,z=0,w=9"),  # unknown coordinate
            ("heisenberg:1", "x=0.5,x=2,y=1,z=0"),  # repeated coordinate
            # lie mode reads a point by the chart rules, with no coordinate names
            ("su2", "w=9,foo"),
            ("su2", "1,2"),
        ],
    )
    def test_bad_point(self, capsys, structure, point):
        assert input_error(*run(capsys, "dim", structure, f"--at={point}"))

    @pytest.mark.parametrize(
        "command,structure,grid",
        [
            ("scan", "heisenberg:1", "x:-1:1:x,y:-1:1:2,z:-1:1:2"),
            ("scan", "heisenberg:1", "x:-1:1:0,y:-1:1:2,z:-1:1:2"),
            ("scan", "heisenberg:1", "x:-1:1:-3,y:-1:1:2,z:-1:1:2"),
            ("scan", "heisenberg:1", "x:-1:b:2,y:-1:1:2,z:-1:1:2"),
            ("scan", "heisenberg:1", "x:-inf:1:2,y:-1:1:2,z:-1:1:2"),
            ("scan", "heisenberg:1", "x:-1:1e400:2,y:-1:1:2,z:-1:1:2"),
            ("scan", "heisenberg:1", "x:0:1:3,x:0:2:5,y:0:1:3,z:0:1:3"),  # repeated coordinate
            # lie mode has no coordinate names, so every grid is refused
            ("check", "su2", "nonsense"),
            ("scan", "su2", "x:0:1:3"),
        ],
    )
    def test_bad_grid(self, capsys, command, structure, grid):
        assert input_error(*run(capsys, command, structure, f"--grid={grid}"))

    @pytest.mark.parametrize("command", ["scan", "check", "verify-geometry"])
    @pytest.mark.parametrize("grid", OVERSIZED_GRIDS)
    def test_grid_over_the_point_bound(self, capsys, monkeypatch, command, grid):
        import srkilling.cli as cli

        class NoGridAllocation:
            def __getattr__(self, name):
                if name in ("linspace", "meshgrid"):
                    raise AssertionError("grid allocated past the point bound")
                return getattr(np, name)

        monkeypatch.setattr(cli, "np", NoGridAllocation())
        code, out = run(capsys, command, "heisenberg:1", f"--grid={grid}")
        assert input_error(code, out)
        assert "exceeds the bound" in json.loads(out)["error"]["message"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["check", "scan", "verify-geometry", "reconstruct"])
    def test_grid_axis_whose_span_overflows(self, capsys, tmp_path, monkeypatch, command):
        """np.linspace(-1e308, 1e308, 3) is [nan, inf, 1e308]: check exited
        3 on a NaN residual and scan passed its NaN points, each with numpy
        warnings on stderr."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gen.toml").write_text(GEN_J)
        more = ["--gen", "gen.toml", "--step", "0.1"] if command == "reconstruct" else []
        grid = "x:0:0.1:3,y:0:0.1:3,z:-1e308:1e308:3"
        code = main([command, "su2:chart", *more, "--grid", grid])
        captured = capsys.readouterr()
        assert input_error(code, captured.out)
        assert json.loads(captured.out)["error"]["message"] == "grid z: max - min is not finite"
        assert captured.err == ""

    def test_grid_at_the_point_bound_is_accepted(self, heis):
        from srkilling.cli import MAX_GRID_POINTS, _parse_grid

        assert MAX_GRID_POINTS == 100**3
        grid = _parse_grid("x:0:1:100,y:0:1:100,z:0:1:100", heis)
        assert grid.shape == (100, 100, 100)

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("dim", "--order"),
            ("scan", "--order"),
            ("curvature", "--order"),
        ],
    )
    @pytest.mark.parametrize("order", ["x", "1.5", "-1"])
    def test_bad_order(self, capsys, command, flag, order):
        assert input_error(*run(capsys, command, "heisenberg:1", f"{flag}={order}"))

    def test_frame_entry_too_deep(self, capsys, tmp_path):
        f = tmp_path / "deep.toml"
        f.write_text(
            "[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n[frame]\n"
            "X1 = 1, 0, -y/2\nX2 = 0, 1, x/2" + " + x/1000" * 1500 + "\n"
        )
        assert input_error(*run(capsys, "check", str(f)))

    def test_constant_over_the_float_range(self, capsys, tmp_path):
        f = tmp_path / "huge.toml"
        f.write_text(
            "[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n[frame]\n"
            "X1 = 1, 0, -y/2 + 10^400\nX2 = 0, 1, x/2\n"
        )
        assert input_error(*run(capsys, "check", str(f)))

    @pytest.mark.parametrize("command", ["dim", "connection", "curvature"])
    def test_point_outside_the_frame_domain(self, capsys, tmp_path, command):
        """--at 0,3,0 is on the pole of X2: dim reported a certified dim 4
        there, connection Gamma and curvature R, each with exit 0."""
        path = str(tmp_path / "pole.toml")
        (tmp_path / "pole.toml").write_text(POLE_AT_Y3)
        code, out = run(capsys, command, path, "--at", "0,3,0")
        assert input_error(code, out)
        assert json.loads(out)["error"]["message"] == "frame row X2 is not finite at the --at point"
        assert run(capsys, command, path, "--at", "0,1,0")[0] == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["scan", "verify-geometry", "check"])
    def test_grid_point_outside_the_frame_domain(self, capsys, tmp_path, command):
        """The grid's plane y = 3 is the pole of X2: each command exited 0."""
        (tmp_path / "pole.toml").write_text(POLE_AT_Y3)
        code = main([command, str(tmp_path / "pole.toml"), "--grid", "x:-1:1:3,y:2:4:3,z:-1:1:3"])
        captured = capsys.readouterr()
        assert input_error(code, captured.out)
        message = json.loads(captured.out)["error"]["message"]
        assert message == "frame row X2 is not finite at the grid point [-1.0, 3.0, -1.0]"
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv, point",
        [
            (["dim", "--at", "1e60,1e60,1e60"], "[1e+60, 1e+60, 1e+60]"),
            (["scan", "--grid", "x:1e60:2e60:3,y:1e60:2e60:3,z:0:1:3"], "[1e+60, 1e+60, 0.0]"),
        ],
    )
    def test_f_q_past_the_float_range(self, capsys, argv, point):
        """The tower's values overflow at these points: inf and nan reached
        the SVD, which raised LinAlgError, a traceback."""
        path = str(ROOT / "tests/data/rational_heisenberg.toml")
        code = main([argv[0], path, *argv[1:]])
        captured = capsys.readouterr()
        assert input_error(code, captured.out)
        assert json.loads(captured.out)["error"]["message"] == f"f_q is not finite at the point {point}"
        assert captured.err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command, what", [("connection", "Gamma"), ("curvature", "R")])
    def test_report_past_the_float_range(self, capsys, command, what):
        """Gamma and R overflow at this point: each command exited 0 with a
        passing report of "nan" entries."""
        path = str(ROOT / "tests/data/rational_heisenberg.toml")
        code = main([command, path, "--at", "1e60,1e60,1e60"])
        captured = capsys.readouterr()
        assert input_error(code, captured.out)
        message = json.loads(captured.out)["error"]["message"]
        assert message == f"{what} is not finite at the point [1e+60, 1e+60, 1e+60]"
        assert captured.err == ""

    def test_order_six_is_within_the_default_bound(self, capsys):
        code, out = run(capsys, "dim", "heisenberg:1", "--order", "6")
        assert code == 0
        assert json.loads(out)["dims"] == [4] * 7

    def test_order_over_the_bound_is_refused_before_any_work(self, capsys, monkeypatch):
        import srkilling.killing as killing

        def no_work(*args, **kwargs):
            raise AssertionError("generator space assembled past the order bound")

        monkeypatch.setattr(killing, "_assemble_block", no_work)
        code, out = run(capsys, "dim", "heisenberg:1", "--order", "7")
        assert input_error(code, out)
        assert "exceeds the configured bound" in json.loads(out)["error"]["message"]


class TestVerifyAndScan:
    def test_verify_killing_field(self, capsys):
        code, out = run(
            capsys, "verify", "heisenberg:1", "--field", "-y, x, 0"
        )
        assert code == 0
        rep = json.loads(out)
        names = [r["check"] for r in rep["checks"]]
        assert "riemannian_extension" in names
        assert len(names) == 7
        assert rep["pass"] is True

    def test_verify_reports_each_identity_once(self, capsys):
        # the contact condition is lie_alpha on the frame and A_Z + A_Z^T is
        # killing_metric, so neither has a record of its own
        code, out = run(capsys, "verify", "heisenberg:1", "--field", "y, x*z, 1+x")
        assert code == 3
        rep = json.loads(out)
        assert [r["check"] for r in rep["checks"]] == [
            "killing_metric", "a_parallel_xi", "a_derivative_curvature", "pz_gradient",
            "reeb_commutes", "lie_alpha", "riemannian_extension",
        ]
        assert list(rep["generator_at_first_point"]) == ["X", "A", "c"]

    def test_verify_tol_sets_the_tolerance_of_its_records(self, capsys):
        """Two records read 1e-8 on this perturbed rotation: over the default
        1e-9, under --tol 1e-6, which verify's records ignored."""
        argv = ["verify", "heisenberg:1", "--field", "-y, x + x/100000000, 0"]
        code, out = run(capsys, *argv)
        assert code == 3
        failed = {r["check"] for r in json.loads(out)["checks"] if not r["pass"]}
        assert failed == {"killing_metric", "riemannian_extension"}
        assert run(capsys, *argv, "--tol", "1e-6")[0] == 0

    def test_verify_non_killing_exits_3(self, capsys):
        code, out = run(capsys, "verify", "heisenberg:1", "--field", "1, 0, 0")
        assert code == 3
        rep = json.loads(out)
        lie = next(r for r in rep["checks"] if r["check"] == "lie_alpha")
        assert lie["max_residual"] >= 0.1

    def test_scan(self, capsys):
        code, out = run(
            capsys, "scan", "heisenberg:1", "--grid", "x:-1:1:3,y:-1:1:3,z:-1:1:3"
        )
        assert code == 0
        rep = json.loads(out)
        assert set(rep["dims"]) == {4}
        assert all(rep["regular"])

    def test_scan_needs_a_grid_in_chart_mode(self, capsys):
        # without one it scanned nothing and passed
        code, out = run(capsys, "scan", "heisenberg:1")
        assert input_error(code, out)
        assert json.loads(out)["error"]["message"] == "scan needs --grid"

    def test_scan_lie(self, capsys):
        code, out = run(capsys, "scan", "su2")
        assert code == 0
        rep = json.loads(out)
        assert rep["dims"] == [4]


class TestReporting:
    def test_determinism(self, capsys):
        _, out1 = run(capsys, "verify-geometry", "su2")
        _, out2 = run(capsys, "verify-geometry", "su2")
        assert out1 == out2

    def test_seed_changes_samples_not_results(self, capsys):
        code1, out1 = run(capsys, "check", "heisenberg:1", "--seed", "0")
        code2, out2 = run(capsys, "check", "heisenberg:1", "--seed", "1")
        assert code1 == code2 == 0
        assert json.loads(out1)["pass"] and json.loads(out2)["pass"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "heisenberg:1", "--seed", "-1"),
            ("verify-geometry", "heisenberg:1", "--seed", "-1"),
            ("check", "su2", "--seed", "-1"),
            ("check", "heisenberg:1", "--seed", "x"),
            ("check", "su2", "--seed", "1.5"),
            ("check", "heisenberg:1", "--seed", str(2**64)),
        ],
    )
    def test_negative_seed_is_an_input_error(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert input_error(code, out)
        assert "--seed" in json.loads(out)["error"]["message"]

    def test_largest_seed_is_accepted(self, capsys):
        code, out = run(capsys, "check", "heisenberg:1", "--seed", str(2**64 - 1))
        assert code == 0 and json.loads(out)["pass"]

    def test_pretty_rendering(self, capsys):
        code, out = run(capsys, "check", "su2", "--pretty")
        assert code == 0
        assert "PASS" in out and "checks:" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run(capsys, "check", "su2", "--out", str(path))
        assert code == 0
        rep = json.loads(path.read_text())
        assert rep["pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "heisenberg:1"),
            ("reconstruct", "heisenberg:1", "--gen", "gen.toml", "--grid", "x:-1:1:3,y:-1:1:3,z:-1:1:3",
             "--step", "0.1"),
        ],
    )
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gen.toml").write_text(GEN_J)
        path = tmp_path / "missing" / "r.json"
        code, out = run(capsys, *argv, "--out", str(path))
        assert input_error(code, out)
        assert json.loads(out)["error"]["message"].startswith(f"cannot write {str(path)!r}: ")
        assert not path.parent.exists()

    def test_fingerprint_matches_fixture_file(self, capsys):
        _, out_builtin = run(capsys, "check", "su2")
        _, out_file = run(capsys, "check", str(ROOT / "structures" / "su2.toml"))
        fp1 = json.loads(out_builtin)["structure"]["fingerprint"]
        fp2 = json.loads(out_file)["structure"]["fingerprint"]
        assert fp1 == fp2

    def test_float_format_roundtrip(self, capsys):
        _, out = run(capsys, "curvature", "su2", "--at", "0,0,0")
        rep = json.loads(out)
        assert rep["R"][0][1][0][1] == -1.0


# argparse alone reads a value that starts with '-', other than a plain
# negative decimal, as an unknown option
@pytest.mark.parametrize(
    "argv",
    [
        ("dim", "heisenberg:1", "--at", "-0.5,0,0"),
        ("verify", "heisenberg:1", "--field", "-y,x,0"),
        ("check", "heisenberg:1", "--tol", "-1e-3"),
    ],
)
def test_a_value_that_starts_with_a_minus_is_the_flags_value(capsys, argv):
    *head, flag, value = argv
    code, out = run(capsys, *argv)
    assert (code, out) == run(capsys, *head, f"{flag}={value}")
    assert "expected one argument" not in out


class TestLieModeSL2:
    def test_sl2_type_structure(self, capsys, tmp_path):
        # hyperbolic analogue: [e1,e2]=e3, [e2,e3]=-e1, [e3,e1]=-e2
        f = tmp_path / "sl2.toml"
        f.write_text(
            "[manifold]\nmode = lie\nn = 1\n[brackets]\n"
            "c 1 2 3 = 1\nc 2 3 1 = -1\nc 1 3 2 = 1\n"
        )
        code, out = run(capsys, "check", str(f))
        assert code == 0
        assert json.loads(out)["special"] is True
        code, out = run(capsys, "curvature", str(f), "--at", "0,0,0")
        R = np.array(json.loads(out)["R"])
        # opposite sectional sign to the su2-type structure
        assert R[0, 1, 0, 1] == 1.0
        code, out = run(capsys, "dim", str(f))
        assert json.loads(out)["dim_i"] == 4


class TestExitCodes:
    def test_unexpected_error_is_not_a_check_failure(self, monkeypatch):
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        with pytest.raises(np.linalg.LinAlgError):
            main(["dim", "heisenberg:1"])

    def test_generator_a_not_a_number_is_an_input_error(self, capsys, tmp_path):
        (tmp_path / "curve.toml").write_text(CURVE_Y)
        (tmp_path / "gen.toml").write_text(GEN_Y1.replace("A = 0", "A = abc"))
        code, out = run(
            capsys, "prolong", "heisenberg:1", "--curve", str(tmp_path / "curve.toml"),
            "--gen", str(tmp_path / "gen.toml"),
        )
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input_error"
        assert "could not convert string to float" in err["message"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("check", "heisenberg:1", "--tol", "nan"), "--tol: 'nan' is not finite"),
            # under a tolerance of 0 or less no residual passes
            (("dim", "heisenberg:1", "--tol", "0"), "--tol: '0' is not positive"),
            (("check", "heisenberg:1", "--tol=-1e-3"), "--tol: '-1e-3' is not positive"),
            # verify's records read --tol, so it is checked there as well
            (("verify", "heisenberg:1", "--field", "-y, x, 0", "--tol", "inf"),
             "--tol: 'inf' is not finite"),
            (("verify", "heisenberg:1", "--field", "-y, x, 0", "--tol", "0"),
             "--tol: '0' is not positive"),
        ],
    )
    def test_non_positive_or_non_finite_tolerance_is_an_input_error(self, capsys, argv, message):
        code, out = run(capsys, *argv)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["kind"] == "input_error" and err["message"] == message

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("prolong", "heisenberg:1", "--gen", "gen.toml"),
             "the following arguments are required: --curve"),
            (("check", "heisenberg:1", "--bogus"), "unrecognized arguments: --bogus"),
            # removed: --order and --tol do their jobs
            (("dim", "heisenberg:1", "--max-order", "3"), "unrecognized arguments: --max-order 3"),
            (("verify", "heisenberg:1", "--field", "-y, x, 0", "--field-tol", "1e-9"),
             "unrecognized arguments: --field-tol 1e-9"),
            (("check", "heisenberg:1", "--tol"), "argument --tol: expected one argument"),
            # a flag is never read as the value of the flag before it
            (("dim", "heisenberg:1", "--at", "--pretty"), "argument --at: expected one argument"),
        ],
    )
    def test_argument_parser_errors_get_the_json_report(self, capsys, argv, message):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        err = json.loads(captured.out)["error"]
        assert err["kind"] == "input_error" and err["message"] == message


COMMON_OPTIONS = {"-h", "--help", "--tol", "--seed", "--out", "--pretty"}
SUBCOMMAND_OPTIONS = {
    "check": {"--grid"},
    "connection": {"--at"},
    "curvature": {"--at", "--order"},
    "verify-geometry": {"--grid"},
    "dim": {"--at", "--order"},
    "prolong": {"--curve", "--gen", "--step", "--require-horizontal"},
    "path-check": {"--curve", "--gen", "--step"},
    "reconstruct": {"--gen", "--grid", "--step"},
    "verify": {"--field", "--grid"},
    "scan": {"--grid", "--order"},
}


def test_each_subcommand_takes_its_pinned_options():
    (sub,) = cli._build_parser()._subparsers._group_actions
    assert list(sub.choices) == list(SUBCOMMAND_OPTIONS)
    for name, parser in sub.choices.items():
        options = {o for a in parser._actions for o in a.option_strings}
        positionals = [a.dest for a in parser._actions if not a.option_strings]
        assert options == COMMON_OPTIONS | SUBCOMMAND_OPTIONS[name], name
        assert positionals == ["structure"], name


def test_every_option_in_the_table_is_taken_by_some_subcommand():
    taken = set(cli.COMMON_OPTIONS).union(*(flags for _, _, flags, _ in cli.SUBCOMMANDS))
    assert set(cli.OPTIONS) == taken


# Monomials x^i y^j of p with total degree at most 5, and their coefficients.
POLYNOMIALS = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda ij: sum(ij) <= 5),
    st.integers(-3, 3).filter(bool),
    max_size=4,
)


def polynomial_text(terms):
    """The sum of c x^i y^j over terms {(i, j): c}, as structure-file text."""
    return " + ".join(f"({c})*x^{i}*y^{j}" for (i, j), c in terms.items()) or "0"


@settings(max_examples=40, deadline=None)
@example(p={(2, 3): 1, (3, 0): -1, (0, 5): 1}, at=(0.25, -0.5, 0.125))  # x^2 y^3 - x^3 + y^5
@given(
    p=POLYNOMIALS,
    at=st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3),
)
def test_isometric_copy_of_heisenberg(p, at):
    """phi(x, y, z) = (x, y, z + p(x, y)) carries heisenberg:1 to the frame
    X1 = (1, 0, -y/2 + p_x), X2 = (0, 1, x/2 + p_y), an isometric copy: its
    identities hold exactly, its curvature is 0 and it has the 4 Killing
    fields of Heisenberg at every point."""
    p_x = {(i - 1, j): i * c for (i, j), c in p.items() if i}
    p_y = {(i, j - 1): j * c for (i, j), c in p.items() if j}
    text = (
        "[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n[frame]\n"
        f"X1 = 1, 0, -y/2 + {polynomial_text(p_x)}\n"
        f"X2 = 0, 1, x/2 + {polynomial_text(p_y)}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        structure, out = pathlib.Path(tmp) / "copy.toml", pathlib.Path(tmp) / "report.json"
        structure.write_text(text)

        def report(*argv):
            assert main([argv[0], str(structure), *argv[1:], "--out", str(out)]) == 0
            return json.loads(out.read_text())

        checks = report("verify-geometry")["checks"]
        curv = report("curvature", "--order", "1")
        dim = report("dim", "--at=" + ",".join(map(repr, at)))
    assert len(checks) == 7 and all(r["max_residual"] == 0.0 for r in checks)
    assert curv["max_abs_R"] == 0.0 and curv["nabla_R_max_abs"] == [0.0, 0.0]
    assert dim["dim_i"] == 4 and dim["certified"] is True
