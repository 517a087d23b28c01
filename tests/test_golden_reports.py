"""Byte-identity guard: the sha256 and exit code of the stdout report of
fixed CLI runs, the transport runs reading input files written into a
temporary directory.  A refactor that keeps the numerics must leave every hash
unchanged; a change that alters a report on purpose updates its hash and
says why.  `dim` reports are pinned without their singular values, which
come from LAPACK and differ across platforms."""

import contextlib
import hashlib
import io
import json
import pathlib
import re

import pytest

from srkilling.cli import main

GRID_3 = "x:-1:1:3,y:-1:1:3,z:-1:1:3"
GRID_33 = "x:-1:1.25:33,y:-0.75:1:33,z:-1:1:33"
# the Heisenberg Killing field a (d/dx + y/2 d/dz) + b (d/dy - x/2 d/dz) + k d/dz
# + r (-y d/dx + x d/dy) with (a, b, k, r) = (1/2, -1/4, 1/8, 3/4)
HEIS_Z = "(1/2) - (3/4)*y, (-1/4) + (3/4)*x, (1/2)*y/2 - (-1/4)*x/2 + (1/8)"

# GOLDEN and GOLDEN_DIM run in tests/data, so a structure file there is
# named, in argv and in the report, by its base name.
DATA = pathlib.Path(__file__).resolve().parent / "data"

GOLDEN = [
    (("check", "su2"), 0, "bfa9645502b3a973e6cee17de0d0b177926539c969c1cd3a667e73e105b36e8f"),
    # its special_bracket_horizontal max_residual is read at seeded box points
    (("check", "su2:chart"), 0, "9ce870a49aa24e4f024e6a5e1aa4f5b9ec87dc68ec28fbef0710b10afd23da69"),
    (("check", "heisenberg:1"), 0, "06fdfbcde2801763cf3b93575f0bb2bcc9118539c5a6549b23eaaabff537bda3"),
    (("check", "heisenberg:2"), 0, "5dfda34c77a4f7edab986ab02c90d43f146f8aa62588fc7371764ae0bd2b71dc"),
    (("check", "heisenberg:3"), 0, "bb886dbce2808e9451e262e4ddc142ab18659e400873dbc4452561a12bc4c00e"),
    (
        ("connection", "su2:chart", "--at", "0.3,-0.2,0.1"),
        0,
        "e2eb1c80c48b4cbb2e879702e8cb77e2b6877583f9dc4f150f098472163869f1",
    ),
    (
        ("curvature", "su2:chart", "--order", "2"),
        0,
        "0b8975caac912205449fe61816d352ec4340c20b408c3df8dcd9098277e85447",
    ),
    # a non-polynomial frame: its load divides polynomials exactly
    (
        ("curvature", "rational_heisenberg.toml", "--order", "2", "--at", "0.25,-0.5,0.125"),
        0,
        "4f149482493723260759da50f868e87ab74bb812998a77b8a999dbe9a9f2653e",
    ),
    (("verify-geometry", "su2"), 0, "4ef22acd37c5b96cd9f1bcbbb0c7483423bff6601ba38c49516d6abce7461adb"),
    (
        ("verify-geometry", "su2:chart"),
        0,
        "ecbcad4d30ad54e44a18a387191df0c0ba0244d4748a61028726c8907c4cd338",
    ),
    (
        ("verify", "heisenberg:1", "--field", "-y, x, 0"),
        0,
        "25120d18278bd39c03afd8d74a659db89120aa9d2803c663afdee3aa9d49327a",
    ),
    (
        ("verify", "su2", "--field", "0,0,1"),
        0,
        "0789ce0f6522711502c7a7d285ce52fcc92f4bcfb0f33fd6086b0956d5fec045",
    ),
    (
        ("verify", "su2", "--field", "1,0,0"),
        3,
        "a949224a35923f83a6dabc595f587021bc789d693ec163ea93d21bdce77d6c8e",
    ),
    (
        ("scan", "heisenberg:1", "--grid", GRID_3),
        0,
        "78924742ef5e5c790e18f9a8c07af6439112f49f53b414c4a263df41904296f5",
    ),
    (
        ("scan", "su2:chart", "--grid", GRID_3),
        0,
        "92e74526e41417f414081d6620568b3aeb8738f369adb09c95561899e1cae4f1",
    ),
    (
        ("scan", "heisenberg:1", "--grid", GRID_3, "--order", "1"),
        0,
        "26a65a0c8daf12c94c0967b48531c4b0d9c8e480b140ff6bf4b515f7d270d71b",
    ),
    # grids of several point blocks each: residuals are folded across the
    # blocks, and a tensor grid's points come from its axes block by block
    (
        ("verify-geometry", "heisenberg:1", "--grid", GRID_33),
        0,
        "211302faa7b0659d2299bc81ab070d1b3adf564f9f9791f002e22b8850080f4a",
    ),
    (
        ("verify-geometry", "su2:chart", "--grid", GRID_33),
        0,
        "03bff52898ec4ff805af09344f5231833e67100caec168a055ef3b242bdebac5",
    ),
    (
        ("check", "heisenberg:1", "--grid", GRID_33, "--seed", "5"),
        0,
        "b82c94ab6e5806cdee5c7ed082f88f8a97adac425d3bab19f0f876aacb038f7b",
    ),
    (
        ("check", "su2:chart", "--grid", GRID_33),
        0,
        "0abb50799af300ff613e53467383150f523341670221c466a425b53a1e4d1605",
    ),
    (
        ("verify", "heisenberg:1", "--field", HEIS_Z, "--grid", GRID_33),
        0,
        "9521b01f8d8cdf2e7f13ef5e63b8001d88d66b7863191f4d5d7da2c8268bf382",
    ),
    (
        ("scan", "heisenberg:1", "--grid", "x:-1:1:7,y:-0.5:1:7,z:-1:1:7"),
        0,
        "1c10ef5ae75fd8564936e7979b4fe482171a72ecd0c7b8fdb1e5d3d768165631",
    ),
    # the 5^7 points of the default special certification
    (
        ("connection", "heisenberg:3"),
        0,
        "d9f952d083a909d302bf4f269c72f81b0840461f05f48226da8e175560d373f1",
    ),
    # lie structures read from their structure constants: a solvable algebra
    # with nonzero horizontal connection coefficients, and one of n = 2
    (("check", "aff_lie.toml"), 0, "61d7b6b1a2a0a9f0d52b55ea0b37bf094b65ba4c0465431f860754208c98c0b8"),
    (
        ("verify-geometry", "aff_lie.toml"),
        0,
        "916b22300c28c631ec66e83395a65090fc65ff363708022646786100ec057828",
    ),
    (
        ("curvature", "aff_lie.toml", "--order", "2"),
        0,
        "17eb597e2308fb010121a2a3c2e3545e46687c9c86afca0552dfc9a960f25e21",
    ),
    (
        ("verify", "aff_lie.toml", "--field", "0,0,1"),
        0,
        "a9ab9bf29141dd232a4fca51b16c2beaf49138923433a980760e245e763b8506",
    ),
    (("check", "lie_n2.toml"), 0, "106eeb5318fa522745d7e1d696d98999132ee76dc0b9d7ea03132b0ebe7d3196"),
    (
        ("verify-geometry", "lie_n2.toml"),
        0,
        "ed9eb567731b7139adb5702afaee0a8a3ccf5764cc3f4c24eedd72b649d62843",
    ),
    (
        ("curvature", "lie_n2.toml", "--order", "2"),
        0,
        "8a528713b86e60a2ff15bffd98ef9ad7a21834db2c2954da409eb50846e7fcf6",
    ),
    (
        ("verify", "lie_n2.toml", "--field", "0,0,0,0,1"),
        0,
        "68be1ff8c9fe79f2e091eb1bab802ec3a411b18ca6aaa5dbcd76d2c5ee5c3899",
    ),
    # the first failing Jacobi triple and component is the one reported
    (
        ("check", "jacobi_violation.toml"),
        2,
        "a5f32f3d37a9dde79f23a8552181831eee11027d72cfc5a41f7d80359b7a162e",
    ),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_report_is_byte_identical(monkeypatch, argv, code, digest):
    monkeypatch.chdir(DATA)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(list(argv))
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


# Transport reports: the RK4 kernel's output, pinned to the bytes of the
# kernel that takes v by Cramer's rule and wide batches by RK4 stages
# (rounding-level moves against the dense-operator kernel before it).  Each input file is written into
# tmp_path; "{name}" in argv stands for its path.
TRANSPORT_FILES = {
    "heis_gen.toml": "[generator]\nX = 0.5 -0.25\nA = 0.75\nc = 0.125\nat = 0.25, -0.5, 0.125\n",
    "heis_curve.toml": "[curve]\nt_range = 0 1\ngamma = 1/4 + t/2, -1/2 + t^2/3, 1/8 + t*(1-t)\n",
    "heis_straight.toml": "[curve]\nt_range = 0 1\ngamma = 1/4 + t/2, -1/2 + t/3, 1/8 + t/4\n",
    "heis_bent.toml": "[curve]\nt_range = 0 1\ngamma = 1/4 + t/2, -1/2 + t^2/3, 1/8 + t^3/4\n",
    "su2c_gen.toml": "[generator]\nX = 0.25 -0.5\nA = 0.375\nc = -0.75\nat = 0.125, -0.25, 0.0625\n",
    "su2c_curve.toml": (
        "[curve]\nt_range = 0 1.25\ngamma = 1/8 + t/3, -1/4 + t^2/5, 1/16 + t*(1-t)*sin(2*t)\n"
    ),
    # cos and a square root: the endpoints read through the curve's tape
    "su2c_cospow.toml": (
        "[curve]\nt_range = 0 1.5\n"
        "gamma = 1/8 + t*cos(t)/3, -1/4 + (1 - cos(3*t))/5, 1/16 + t*pow(1 + t^2, 1/2)/7\n"
    ),
}

GOLDEN_TRANSPORT = [
    (
        ("prolong", "heisenberg:1", "--curve", "{heis_curve.toml}", "--gen", "{heis_gen.toml}"),
        0,
        "01a8e32d0c1201fc063d1d1034f393e2efb9eb2176944cbc14dbe984c01137ec",
    ),
    (
        (
            "path-check", "heisenberg:1", "--curve", "{heis_straight.toml}",
            "--curve", "{heis_bent.toml}", "--gen", "{heis_gen.toml}",
        ),
        0,
        "6bc7870c2d31f24b2c65ef968b4175dcd421e493ab897e0b207890bcdcccf7c3",
    ),
    (
        (
            "reconstruct", "heisenberg:1", "--gen", "{heis_gen.toml}",
            "--grid", GRID_3, "--step", "1e-2",
        ),
        0,
        "c21616fee8cf6ba62ec8492f806d625c7d87a47d89ec668446821590f7dbeac8",
    ),
    (
        ("prolong", "su2:chart", "--curve", "{su2c_curve.toml}", "--gen", "{su2c_gen.toml}"),
        0,
        "661020018f47a192c5feb6208138a93b29bf624a88870b30fdd597c1e989bb2c",
    ),
    (
        ("prolong", "su2:chart", "--curve", "{su2c_cospow.toml}", "--gen", "{su2c_gen.toml}"),
        0,
        "9d6653f4537a24e4661b211ccc868a2bce3d2e3898560ea283f1f8357456e5d8",
    ),
]


# Ids are the command and structure; a repeated pair adds its curve file.
TRANSPORT_IDS: list[str] = []
for _argv, _, _ in GOLDEN_TRANSPORT:
    _id = " ".join(_argv[:2])
    TRANSPORT_IDS.append(f"{_id} {_argv[3][1:-1]}" if _id in TRANSPORT_IDS else _id)


@pytest.mark.parametrize("argv,code,digest", GOLDEN_TRANSPORT, ids=TRANSPORT_IDS)
def test_transport_report_is_byte_identical(tmp_path, argv, code, digest):
    paths = {}
    for name, text in TRANSPORT_FILES.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main([paths[a[1:-1]] if a.startswith("{") else a for a in argv])
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


# Output paths other than the stdout report, and the reports of runs that
# end in an input error (exit 2) or a failed check (exit 3).  "{name}" in
# argv stands for the path of TRANSPORT_FILES[name] or EDGE_FILES[name] in
# tmp_path and "{out}" for tmp_path/"out"; every such path in the output is
# written back as its placeholder before hashing, so no digest depends on the
# temporary directory.  Each case pins the stdout digest and, with --out, the
# digest of the file written.
EDGE_FILES = {
    "warped.toml": (
        "[manifold]\nmode = chart\nn = 1\ncoords = x, y, z\n"
        "[frame]\nX1 = 1, 0, -y/2\nX2 = 0, 1 + x^2, x*(1 + x^2)/2\n"
    ),
    "vertical.toml": "[curve]\nt_range = 0 1\ngamma = 1/4, -1/2, 1/8 + t\n",
    # a rotation in the x1, y2 plane: outside i(q0) (residual 7.071e-01)
    "heis2_gen.toml": "[generator]\nX = 0 0 0 0\nA = 0; 0 0; 1 0 0\nc = 0\nat = 0, 0, 0, 0, 0\n",
}

EMPTY = hashlib.sha256(b"").hexdigest()  # no output
GRID_3_5 = "x1:-1:1:3,y1:-1:1:3,x2:-1:1:3,y2:-1:1:3,z:-1:1:3"

GOLDEN_EDGE = [
    (
        ("check", "su2", "--pretty"),
        0,
        "c272bfc3c92f3bf14f0abaf2e67e6868fc7736c42c5595c01be5c8f6915a3454",
        None,
    ),
    (
        ("check", "su2", "--out", "{out}"),
        0,
        EMPTY,
        "bfa9645502b3a973e6cee17de0d0b177926539c969c1cd3a667e73e105b36e8f",
    ),
    (
        (
            "reconstruct", "heisenberg:1", "--gen", "{heis_gen.toml}", "--grid", GRID_3,
            "--step", "1e-2", "--out", "{out}",
        ),
        0,
        "1a1df7672e1faa6ae6eab00121c78299c3982a476f073673dbc076df0b7afceb",
        "c21616fee8cf6ba62ec8492f806d625c7d87a47d89ec668446821590f7dbeac8",
    ),
    (
        ("check", "nosuch.toml"),
        2,
        "c40f2ea4fc2922c10445453c32a986c6332f0dd4e5dd980d392c1bb0dd53013f",
        None,
    ),
    (
        ("dim", "heisenberg:1", "--at", "1,2"),
        2,
        "e05979bfe17ca4cccb5957ebf99da24f188f5edd723323196f836399e501b593",
        None,
    ),
    (
        ("check", "{warped.toml}"),
        3,
        "8895aa23e69a680640cbb75749e3a00f25b5010caf32a22c6e67130137fa4461",
        None,
    ),
    (
        ("verify", "heisenberg:1", "--field", "1, 0, 0"),
        3,
        "e02c946e2d8d0565f99c171555037a168a40c43a1af88005470959300f59cd87",
        None,
    ),
    (
        (
            "prolong", "heisenberg:1", "--curve", "{vertical.toml}", "--gen",
            "{heis_gen.toml}", "--require-horizontal",
        ),
        3,
        "1c6a5d2b38275e7e255ef6688424d2efbeaf3f9d1ec80264474278cca7b0f7e0",
        None,
    ),
    (
        ("reconstruct", "heisenberg:2", "--gen", "{heis2_gen.toml}", "--grid", GRID_3_5),
        3,
        "66bc1704950dcbac447da740983c7e0f3b6f1eb9bf363cde1b5d148496938b98",
        None,
    ),
    # two faults each: the one checked first is reported
    (
        ("path-check", "nosuch.toml", "--curve", "{heis_curve.toml}", "--gen", "x"),
        2,
        "c40f2ea4fc2922c10445453c32a986c6332f0dd4e5dd980d392c1bb0dd53013f",
        None,
    ),
    (
        ("reconstruct", "heisenberg:1", "--gen", "{nosuch.toml}", "--grid", "x:-1:1:2"),
        2,
        "827143252de74b1af132b48ce087aef38a35ac5f8d83c5f55e1b3d02ec0ed425",
        None,
    ),
    (
        ("verify", "{warped.toml}"),
        3,
        "dc96b4ff6dde1dd19d75b5a4c2e01ace7d06553e075125503a4d004aa97abc9e",
        None,
    ),
]


def _run_with_files(tmp_path, argv):
    """(exit code, stdout, the file at {out} or None), every tmp path in the
    output written back as its placeholder."""
    files = {**TRANSPORT_FILES, **EDGE_FILES}
    paths = {"out": str(tmp_path / "out")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths.update({name: str(tmp_path / name) for name in [*files, "nosuch.toml"]})
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main([paths[a[1:-1]] if a.startswith("{") else a for a in argv])

    def placeholders(text):
        for name, path in paths.items():
            text = text.replace(path, "{" + name + "}")
        return text

    out = tmp_path / "out"
    written = placeholders(out.read_text()) if out.exists() else None
    return got, placeholders(buf.getvalue()), written


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "argv,code,digest,out_digest", GOLDEN_EDGE, ids=[" ".join(g[0]) for g in GOLDEN_EDGE]
)
def test_edge_report_is_byte_identical(tmp_path, argv, code, digest, out_digest):
    got, stdout, written = _run_with_files(tmp_path, argv)
    assert got == code
    assert _sha(stdout) == digest
    assert (written if out_digest is None else _sha(written)) == out_digest


# dim reports without their singular values, which LAPACK makes
# platform-dependent; "at" is null for a lie structure without --at and []
# with one.
GOLDEN_DIM = [
    (
        ("dim", "su2"),
        "f8f502ef66435247b02d15632598ce8904470528bab594c5ec9c34a0ea069025",
        None,
    ),
    (
        ("dim", "su2", "--at", "0,0,0"),
        "e1f8fe59cdf0e1818e6e9904c4c976f55b6dcce68fd65ad83e91070e301ed3be",
        [],
    ),
    (
        ("dim", "heisenberg:1"),
        "2fa5d085bbf7802eaeb06df2374af93a621cb9573995e56f62c7a20eace4779d",
        [0.0, 0.0, 0.0],
    ),
    (
        ("dim", "su2:chart", "--at", "0.3,-0.2,0.1"),
        "efec0375310aeb2099166f0e37364feedd6f5112187737f2049acd06f4b5f852",
        [0.3, -0.2, 0.1],
    ),
    (
        ("dim", "rational_heisenberg.toml", "--at", "0.25,-0.5,0.125"),
        "da7925202382cff8509f8356a7d1d8a12b96b3258914fe2ef00af94659da2368",
        [0.25, -0.5, 0.125],
    ),
    (("dim", "aff_lie.toml"), "faee3b07a6d0e319a7ab01e53b7bc308f5dc7fbb7c7e5d7354a0429ee2801fe8", None),
    (("dim", "lie_n2.toml"), "d4ee883351f4662fe422cceb89c79835ff7d756356fdad0f719cff2bd0748bb8", None),
]


@pytest.mark.parametrize("argv,digest,at", GOLDEN_DIM, ids=[" ".join(g[0]) for g in GOLDEN_DIM])
def test_dim_report_is_byte_identical_but_singular_values(monkeypatch, argv, digest, at):
    monkeypatch.chdir(DATA)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    text = buf.getvalue()
    assert json.loads(text)["at"] == at
    assert _sha(re.sub(r'"singular_values": \[[^\]]*\],', "", text)) == digest
