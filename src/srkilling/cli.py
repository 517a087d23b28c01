"""srkilling command line: structure ingestion, subcommand dispatch, and
deterministic JSON reporting.

Exit codes: 0 when every check passes, 2 on input errors (unreadable or
malformed files, bad arguments), 3 when a computation ran but a check
failed (CheckFailure).  Any other error is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .expr import EvalError, ExprError
from .frame import (
    CheckFailure,
    CheckRecord,
    DEFAULT_TOL,
    ContactStructure,
    StructureError,
    _check_frame_rank,
    _max_abs,
    check_special,
    load_structure,
    structure_checks,
)
from .connection import (
    BudgetError,
    CurvatureData,
    compute_connection,
    curvature,
    eval_tensor,
    higher_derivatives,
    verify_geometry,
)
from .killing import (
    FIELD_TOL,
    HORIZONTAL_TOL,
    MAX_STEPS,
    Grid,
    TransportInputError,
    a_z_matrix,
    generator_space,
    load_curve_text,
    load_generator_text,
    path_independence,
    reconstruct_field,
    riemannian_extension_check,
    scan_regularity,
    transport,
    verify_killing,
    verify_killing_field,
)
from .report import check_records_payload, render_pretty, to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CHECK = 3
# Points a --grid may hold, per axis and in all; checked before any axis or
# mesh is allocated.
MAX_GRID_POINTS = 10**6
# path-check's largest endpoint deviation without --tol.
PATH_CHECK_TOL = 1e-6


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser, and each of its subcommand parsers, whose errors
    are input errors, reported as JSON like any other."""

    def error(self, message: str):
        raise InputError(message)


def _parse_number(text: str, what: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise InputError(f"{what}: {text.strip()!r} is not a number") from None
    if not math.isfinite(val):
        raise InputError(f"{what}: {text.strip()!r} is not finite")
    return val


def _parse_positive(text: str, what: str) -> float:
    """A finite positive number: under a tolerance of 0 or less no residual
    passes, and a step of 0 or less takes a curve nowhere."""
    val = _parse_number(text, what)
    if val <= 0:
        raise InputError(f"{what}: {text.strip()!r} is not positive")
    return val


def _claim(name: str, values: dict, s: ContactStructure, what: str) -> None:
    """Refuse a name that is not a coordinate of s, or that values holds."""
    if name not in s.coords:
        raise InputError(f"unknown {what} coordinate {name!r}")
    if name in values:
        raise InputError(f"{what} coordinate {name!r} is given twice")


def _in_coordinate_order(values: dict, s: ContactStructure, what: str) -> list:
    """The values of all coordinates of s, in their order."""
    missing = [c for c in s.coords if c not in values]
    if missing:
        raise InputError(f"{what} is missing coordinates {missing}")
    return [values[c] for c in s.coords]


def _parse_point(text: str, s: ContactStructure) -> np.ndarray:
    """name=value pairs or s.dim plain values.  Lie mode reads the same text,
    with no coordinate names, as its one point, which has no coordinates."""
    vals: dict[str, float] = {}
    parts = [p for p in text.split(",") if p.strip()]
    if any("=" in p for p in parts):
        for p in parts:
            if "=" not in p:
                raise InputError(f"mixed point syntax in {text!r}")
            k, v = (b.strip() for b in p.split("=", 1))
            _claim(k, vals, s, "point")
            vals[k] = _parse_number(v, "point coordinate")
        return np.array(_in_coordinate_order(vals, s, "point"))
    if len(parts) != s.dim:
        raise InputError(f"point needs {s.dim} comma-separated values")
    q = np.array([_parse_number(p, "point coordinate") for p in parts])
    return q if s.coords else np.zeros(0)


def _parse_grid(text: str, s: ContactStructure) -> Grid:
    """name:min:max:count per coordinate; refused in lie mode, which has none,
    and at a grid point off the frame's domain."""
    specs: dict[str, tuple[float, float, int]] = {}
    for part in text.split(","):
        bits = part.strip().split(":")
        if len(bits) != 4:
            raise InputError(f"grid component {part!r} is not name:min:max:count")
        name = bits[0]
        lo = _parse_number(bits[1], f"grid {name} min")
        hi = _parse_number(bits[2], f"grid {name} max")
        if not math.isfinite(hi - lo):  # np.linspace would make inf and nan points
            raise InputError(f"grid {name}: max - min is not finite")
        try:
            count = int(bits[3])
        except ValueError:
            raise InputError(f"grid {name} count: {bits[3]!r} is not an integer") from None
        if count < 1:
            raise InputError(f"grid {name} count must be at least 1, got {count}")
        if count > MAX_GRID_POINTS:
            raise InputError(f"grid {name} count {count} exceeds the bound {MAX_GRID_POINTS}")
        _claim(name, specs, s, "grid")
        specs[name] = (lo, hi, count)
    ordered = _in_coordinate_order(specs, s, "grid")
    total = math.prod(count for _, _, count in ordered)
    if total > MAX_GRID_POINTS:
        raise InputError(f"grid has {total} points, which exceeds the bound {MAX_GRID_POINTS}")
    grid = Grid(names=list(s.coords), axes=[np.linspace(*spec) for spec in ordered])
    _check_frame_rank(s.frame, s.coords, grid)
    return grid


def _parse_order(text: str) -> int | str:
    """'auto' or a nonnegative integer derivative order."""
    if text == "auto":
        return text
    try:
        order = int(text)
    except ValueError:
        raise InputError(f"order must be 'auto' or an integer, got {text!r}") from None
    if order < 0:
        raise InputError(f"order must be nonnegative, got {order}")
    return order


def _sample_points(s: ContactStructure, args, count: int = 100):
    """The --grid (a Grid), or the origin and count seeded points of the box
    (the one point of lie mode)."""
    if not args.grid:
        return s.validation_points(count, seed=args.seed)
    return _parse_grid(args.grid, s)


def _at(s: ContactStructure, args) -> np.ndarray:
    """The --at point; by default the chart origin, or no coordinates in lie
    mode.  The load's frame check refuses a point off the frame's domain."""
    q = _parse_point(args.at, s) if args.at else np.zeros(len(s.coords))
    if s.coords:
        _check_frame_rank(s.frame, s.coords, q[None, :], "at the --at point")
    return q


def _refuse_overflow(q: np.ndarray, values: dict) -> None:
    """An EvalError naming the first of the values (name: arrays) that is not
    finite, where the tower overflows at q, as _assemble_block refuses f_q."""
    for what, arrays in values.items():
        if not math.isfinite(_max_abs(arrays)):
            raise EvalError(f"{what} is not finite at the point {q.tolist()}")


def _curvature(s: ContactStructure, args) -> CurvatureData:
    """Curvature data of the canonical connection; NotSpecialError when s
    is not special."""
    return curvature(compute_connection(s, tol=args.tol))


def _structure_header(s: ContactStructure) -> dict:
    return {
        "tool": "srkilling",
        "version": __version__,
        "structure": {
            "name": s.name or "<file>",
            "mode": s.mode,
            "n": s.n,
            "fingerprint": s.fingerprint(),
        },
    }


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path!r}: {e}") from None


def _checks(records: list[CheckRecord]) -> dict:
    return {"checks": check_records_payload(records), "pass": all(r.pass_ for r in records)}


# ---------------------------------------------------------------------------
# Subcommands: each returns the body of its report, which main writes after
# the structure header.
# ---------------------------------------------------------------------------


def cmd_check(s: ContactStructure, args) -> dict:
    pts = _sample_points(s, args)
    npts = len(pts)
    res = structure_checks(s, pts)
    special = check_special(s, points=pts, tol=args.tol)
    records = [
        CheckRecord("normalization", res["normalization"], npts, res["normalization"] < args.tol),
        CheckRecord("reeb_identities", res["reeb"], npts, res["reeb"] < max(args.tol, 1e-8)),
        *special,
    ]
    return {
        "checks": check_records_payload(records),
        "special": all(r.pass_ for r in special),
        "orientation_sign": s.orientation_sign,
        "pass": all(r.pass_ for r in records),
    }


def cmd_connection(s: ContactStructure, args) -> dict:
    conn = compute_connection(s, tol=args.tol)
    q = _at(s, args)
    pts = q[None, :]
    gamma_h, gamma_xi = (s.eval_table(t, pts)[..., 0] for t in (conn.gamma_h, conn.gamma_xi))
    _refuse_overflow(q, {"Gamma": [gamma_h, gamma_xi]})
    return {
        "at": q.tolist(),
        "gamma_h": gamma_h.tolist(),
        "gamma_xi": gamma_xi.tolist(),
        "pass": True,
    }


def cmd_curvature(s: ContactStructure, args) -> dict:
    cd = _curvature(s, args)
    q = _at(s, args)
    pts = q[None, :]
    order = 0 if args.order == "auto" else _parse_order(args.order)
    higher_derivatives(cd, order)
    Rv = eval_tensor(s, cd.R, pts)[..., 0]
    # over the stored entries only: the others are zeros; nabla^0 R is R
    maxima = [
        _max_abs([s.eval_table(list(T.entries.values()), pts)]) for T in cd.nabla_R[: order + 1]
    ]
    _refuse_overflow(q, {f"nabla^{i} R" if i else "R": [m] for i, m in enumerate(maxima)})
    return {
        "at": q.tolist(),
        "R": Rv.tolist(),
        "max_abs_R": _max_abs([Rv]),
        "nabla_R_max_abs": maxima,
        "pass": True,
    }


def cmd_verify_geometry(s: ContactStructure, args) -> dict:
    cd = _curvature(s, args)
    return _checks(verify_geometry(cd, points=_sample_points(s, args), tol=args.tol))


def cmd_dim(s: ContactStructure, args) -> dict:
    cd = _curvature(s, args)
    q = _at(s, args)
    gs = generator_space(cd, q, order=_parse_order(args.order))
    bound = (s.n + 1) ** 2
    return {
        "at": q.tolist() if s.coords or args.at else None,
        "dims": gs.dims,
        "dim_i": gs.dim,
        "certified": gs.certified,
        "m_used": gs.m_used,
        "singular_values": [float(v) for v in gs.singular_values],
        "dim_bound": bound,
        "pass": bool(gs.dim <= bound),
    }


def cmd_prolong(s: ContactStructure, args) -> dict:
    step = _parse_positive(args.step, "--step")
    if len(args.curve) != 1:
        raise InputError("prolong needs exactly one --curve file")
    cd = _curvature(s, args)
    curve = load_curve_text(_read_text(args.curve[0]), s)
    gen = load_generator_text(_read_text(args.gen), s)
    res = transport(cd, gen, curve, step=step, require_horizontal=args.require_horizontal)
    return {
        "endpoint": res.gen.q.tolist(),
        "X": res.gen.X.tolist(),
        "A": res.gen.A.tolist(),
        "c": res.gen.c,
        "skew_drift": res.skew_drift,
        "steps": res.steps,
        "max_alpha_velocity": res.horizontal_violation,
        "pass": bool(res.skew_drift < 1e-8),
    }


def cmd_path_check(s: ContactStructure, args) -> dict:
    step = _parse_positive(args.step, "--step")
    if len(args.curve) != 2:
        raise InputError("path-check needs exactly two --curve files")
    cd = _curvature(s, args)
    c1, c2 = (load_curve_text(_read_text(path), s) for path in args.curve)
    gen = load_generator_text(_read_text(args.gen), s)
    deviation = path_independence(cd, gen, c1, c2, step=step)["deviation"]
    tol = args.tol if args.tol_given else PATH_CHECK_TOL
    return {"deviation": deviation, "tolerance": tol, "pass": bool(deviation < tol)}


def cmd_reconstruct(s: ContactStructure, args) -> dict:
    step = _parse_positive(args.step, "--step")
    if not args.grid:
        raise InputError("reconstruct needs --grid")
    cd = _curvature(s, args)
    gen = load_generator_text(_read_text(args.gen), s)
    grid = _parse_grid(args.grid, s)
    if any(len(a) < 3 or len(set(a.tolist())) < len(a) for a in grid.axes):  # before any transport
        raise InputError(
            "reconstruct's finite-difference checks need at least 3 points per axis, all distinct"
        )
    field = reconstruct_field(cd, gen, grid, step=step)
    checks = _checks(verify_killing_field(cd, field))  # before the lists of the report exist
    return {
        "grid": {"names": grid.names, "axes": [a.tolist() for a in grid.axes]},
        "points": grid.points.tolist(),
        "X": field.X.tolist(),
        "c": field.c.tolist(),
        "A": field.A.tolist(),
        "Z_coords": field.Z_coords.tolist(),
        **checks,
    }


def cmd_verify(s: ContactStructure, args) -> dict:
    tol = args.tol if args.tol_given else FIELD_TOL
    cd = _curvature(s, args)
    if not args.field:
        raise InputError("verify needs --field \"<expr>,...\"")
    Z = s.parse_field(args.field)
    pts = _sample_points(s, args)
    az = a_z_matrix(cd.connection, Z, pts[0] if s.coords else None)
    # the other checks read az's brackets, so each bracket is built once
    brackets = az.bracket_data
    records = verify_killing(cd, Z, pts, tol, bracket_data=brackets)
    records += riemannian_extension_check(cd, Z, pts, tol, bracket_data=brackets)
    return {
        "generator_at_first_point": {
            "X": az.gen.X.tolist(),
            "A": az.gen.A.tolist(),
            "c": az.gen.c,
        },
        **_checks(records),
    }


def cmd_scan(s: ContactStructure, args) -> dict:
    if s.coords and not args.grid:
        raise InputError("scan needs --grid")
    cd = _curvature(s, args)
    grid = _parse_grid(args.grid, s) if args.grid else Grid(names=[], axes=[])
    rep = scan_regularity(cd, grid, order=_parse_order(args.order))
    ok = rep.get("semicontinuity_violations", 0) == 0
    if rep.get("dims"):
        ok = ok and max(rep["dims"]) <= (s.n + 1) ** 2
    return {**rep, "pass": bool(ok)}


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


STEP_HELP = (
    "RK4 step per unit of curve parameter: a curve over [t0, t1] takes "
    "ceil(|t1 - t0| / step) steps, and each reconstruct leg spans t in [0, 1], "
    f"so it takes ceil(1 / step) steps whatever its length; at most {MAX_STEPS} "
    "steps per curve (default 1e-3)"
)

# Each option once, by its flag.  Values stay text, with no argparse
# converter, so a _parse_* helper reads each one and reports a malformed
# value as an input error.
OPTIONS = {
    "--tol": {"help": f"the command's check tolerance (default {DEFAULT_TOL}; verify "
              f"{FIELD_TOL}, path-check {PATH_CHECK_TOL})"},
    "--seed": {"default": "0", "help": "seed for sample points, an integer in [0, 2^64)"},
    "--out": {"help": "write the report to this path instead of stdout"},
    "--pretty": {"action": "store_true", "help": "human-readable tables"},
    "--at": {"help": "evaluation point (x=..,y=.. or comma list)"},
    "--grid": {"help": "grid spec name:min:max:count,..."},
    "--order": {"default": "auto", "help": "'auto' or an explicit order m; curvature caches "
                "nabla^i R through m, and 'auto' is 0 there"},
    "--curve": {"action": "append", "required": True, "help": "curve file (path-check takes two)"},
    "--gen": {"required": True, "help": "generator file"},
    "--step": {"default": "1e-3", "help": STEP_HELP},
    "--require-horizontal": {"action": "store_true", "help": "fail unless the curve is "
                             f"horizontal (|alpha(gamma')| < {HORIZONTAL_TOL})"},
    "--field": {"help": "comma-separated coordinate components"},
}
COMMON_OPTIONS = ("--tol", "--seed", "--out", "--pretty")
VALUE_OPTIONS = {flag for flag, kw in OPTIONS.items() if kw.get("action") != "store_true"}

# (name, command, its options beyond the common ones, help)
SUBCOMMANDS = [
    ("check", cmd_check, ("--grid",),
     "validate the structure: normalization of the contact form, "
     "Reeb identities, and the special condition (Reeb flow is Killing)"),
    ("connection", cmd_connection, ("--at",),
     "frame coefficients of the unique metric torsion-free connection"),
    ("curvature", cmd_curvature, ("--at", "--order"),
     "curvature components R(e_a,e_b)e_j at a point, with optional "
     "higher covariant-derivative norms"),
    ("verify-geometry", cmd_verify_geometry, ("--grid",),
     "identity suite: metricity, torsion, both Bianchi identities, "
     "R(xi,.)=0, skewness of R, and the cyclic nabla-dalpha identity"),
    ("dim", cmd_dim, ("--at", "--order"),
     "dimension of the isometry generator space i_m(q) with stabilization certificate"),
    ("prolong", cmd_prolong, ("--curve", "--gen", "--step", "--require-horizontal"),
     "transport a generator (X, A, c) along a curve by the "
     "prolongation equations (fixed-step RK4)"),
    ("path-check", cmd_path_check, ("--curve", "--gen", "--step"),
     "transport along two curves with shared endpoints and report the endpoint deviation"),
    ("reconstruct", cmd_reconstruct, ("--gen", "--grid", "--step"),
     "transport a generator over a grid along vertical-then-straight "
     "legs and emit the field Z = X + c xi with finite-difference checks"),
    ("verify", cmd_verify, ("--field", "--grid"),
     "residual checks for a candidate Killing field: Killing equation, "
     "Reeb-parallelism of A_Z, the curvature identity for its derivative, "
     "gradient equations, commutation with the Reeb field, invariance of "
     "alpha (the contact condition), and the extended Riemannian metric"),
    ("scan", cmd_scan, ("--grid", "--order"),
     "generator-space dimension over a grid with regularity flags and a semicontinuity audit"),
]


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="srkilling",
        description=(
            "Contact sub-Riemannian structures from orthonormal frames: "
            "normalized contact form, Reeb field, canonical connection, "
            "curvature, generator spaces of infinitesimal isometries, and "
            "their numerical transport and reconstruction."
        ),
    )
    parser.add_argument("--version", action="version", version=f"srkilling {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, flags, help_text in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "structure",
            nargs="?",
            help="builtin name (heisenberg:<n>, su2, su2:chart) or definition file",
        )
        for flag in COMMON_OPTIONS + flags:
            p.add_argument(flag, **OPTIONS[flag])
        p.set_defaults(fn=fn)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """argv with each value flag joined as flag=value to a next argument that
    starts with '-' and is no flag, which argparse alone reads as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in VALUE_OPTIONS and arg.startswith("-") and arg not in OPTIONS:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
        if not args.structure:
            raise InputError("missing structure argument")
        try:
            args.seed = int(args.seed)
        except ValueError:
            raise InputError(f"--seed: {args.seed.strip()!r} is not an integer") from None
        if not 0 <= args.seed < 2**64:
            raise InputError(f"--seed: {args.seed} is not an integer in [0, 2^64)")
        s = load_structure(args.structure, seed=args.seed)
        args.tol_given = args.tol is not None
        args.tol = _parse_positive(args.tol, "--tol") if args.tol_given else DEFAULT_TOL
        report = {**_structure_header(s), **args.fn(s, args)}
        _write(report, args)
    except (InputError, StructureError, ExprError, TransportInputError, BudgetError) as e:
        _error_report(str(e), args)
        return EXIT_INPUT
    except CheckFailure as e:
        _error_report(str(e), args, kind="check_failure")
        return EXIT_CHECK
    return EXIT_OK if report["pass"] else EXIT_CHECK


def _write(report: dict, args) -> None:
    """The report to --out or stdout.  reconstruct --out writes its field
    file as JSON, indented with --pretty, and a summary of it to stdout.  An
    --out that cannot be written is an input error."""
    render = render_pretty if args.pretty else to_json
    if not args.out:
        sys.stdout.write(render(report))
        return
    field_file = args.command == "reconstruct"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(to_json(report, pretty=args.pretty) if field_file else render(report))
    except OSError as e:
        raise InputError(f"cannot write {args.out!r}: {e}") from None
    if field_file:
        summary = {
            "out": args.out,
            "grid_points": len(report["points"]),
            "checks": report["checks"],
            "pass": report["pass"],
        }
        sys.stdout.write(render(summary))


def _error_report(message: str, args, kind: str = "input_error") -> None:
    payload = {
        "tool": "srkilling",
        "version": __version__,
        "error": {"kind": kind, "message": message},
        "pass": False,
    }
    pretty = bool(getattr(args, "pretty", False))
    sys.stdout.write(render_pretty(payload) if pretty else to_json(payload))


if __name__ == "__main__":
    raise SystemExit(main())
