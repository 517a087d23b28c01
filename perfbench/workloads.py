"""Seeded job lists for the srkilling benchmark, and the answer oracle.

A job is one `srkilling` CLI invocation plus the input files it reads and a
check of its JSON report.  The seed picks base points, generator
coefficients, curve shapes, grid offsets and `--seed`; grid counts and step
sizes are fixed, so the amount of work does not depend on the seed.

The oracle does not use the program's own formulas or earlier output.  For
the Heisenberg group H^1 with frame e1 = d/dx - y/2 d/dz, e2 = d/dy + x/2
d/dz, the normalized contact form is alpha = -dz - y/2 dx + x/2 dy, the
Reeb field is xi = -d/dz, the canonical connection is flat with
Gamma = 0, and the Killing fields are the left translations (generated by
the right-invariant fields d/dx + y/2 d/dz, d/dy - x/2 d/dz, d/dz) and the
rotation -y d/dx + x d/dy.  For

    Z = a (d/dx + y/2 d/dz) + b (d/dy - x/2 d/dz) + k d/dz + r (-y d/dx + x d/dy)

the generator (X, A, c) at (x, y, z), with Z = X^i e_i + c xi and
A[i][j] = <P[Z, e_j] - nabla_Z e_j, e_i>, is

    X = (a - r y, b + r x),  A = [[0, r], [-r, 0]],
    c = alpha(Z) = -a y + b x + r (x^2 + y^2)/2 - k,

and Z in coordinates is (a - r y, b + r x, a y/2 - b x/2 + k).
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

# Tolerances of the closed-form comparisons.  Fixed-step RK4 on H^1 integrates
# polynomials of degree <= 2 in t, so the transported values agree with the
# closed form to rounding error; 1e-9 leaves room for it and still rejects any
# perturbation a wrong transport would cause.
TRANSPORT_TOL = 1e-9
PATH_CHECK_TOL = 1e-6


@dataclass
class Job:
    """One CLI invocation: `argv` after `srkilling`, the input files it
    reads (relative name -> text), and `check(report) -> error or None`."""

    name: str
    argv: list[str]
    check: Callable[[dict], str | None]
    files: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class KillingField:
    """Coefficients (a, b, k, r) of a Heisenberg Killing field, see the
    module docstring."""

    a: Fraction
    b: Fraction
    k: Fraction
    r: Fraction

    def coords(self, x: float, y: float) -> tuple[float, float, float]:
        a, b, k, r = (float(v) for v in (self.a, self.b, self.k, self.r))
        return (a - r * y, b + r * x, a * y / 2 - b * x / 2 + k)

    def generator(self, x: float, y: float) -> tuple[list[float], list[list[float]], float]:
        a, b, k, r = (float(v) for v in (self.a, self.b, self.k, self.r))
        X = [a - r * y, b + r * x]
        A = [[0.0, r], [-r, 0.0]]
        c = -a * y + b * x + r * (x * x + y * y) / 2 - k
        return X, A, c

    def field_text(self) -> str:
        """Coordinate components in the CLI expression language."""
        a, b, k, r = (_frac(v) for v in (self.a, self.b, self.k, self.r))
        return f"{a} - {r}*y, {b} + {r}*x, {a}*y/2 - {b}*x/2 + {k}"

    def generator_text(self, q: tuple[float, float, float]) -> str:
        X, A, c = self.generator(q[0], q[1])
        return (
            "[generator]\n"
            f"X = {X[0]!r} {X[1]!r}\n"
            f"A = {A[1][0]!r}\n"
            f"c = {c!r}\n"
            f"at = {q[0]!r}, {q[1]!r}, {q[2]!r}\n"
        )


def _frac(v: Fraction) -> str:
    return f"({v.numerator}/{v.denominator})"


def _dyadic(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    """Uniform in {lo/den, ..., hi/den}: exact in binary floating point."""
    return Fraction(rng.randint(lo, hi), den)


def _odd_dyadic(rng: random.Random, half_range: int) -> Fraction:
    """An odd multiple of 1/64 in [-half_range/64, half_range/64], so it
    never coincides with a grid coordinate (multiples of 1/32 plus k/2)."""
    return Fraction(2 * rng.randint(-half_range // 2, half_range // 2 - 1) + 1, 64)


def _killing_field(rng: random.Random) -> KillingField:
    """Every coefficient nonzero, so transport moves every component."""

    def nz() -> Fraction:
        v = Fraction(0)
        while v == 0:
            v = _dyadic(rng, -32, 32, 32)
        return v

    return KillingField(nz(), nz(), nz(), nz())


def _grid(rng: random.Random, names: list[str], count: int) -> tuple[str, list[list[float]]]:
    """Grid spec over [-1, 1]^dim shifted per axis by a multiple of 1/32,
    and its axes (as the CLI builds them with linspace)."""
    parts, axes = [], []
    for name in names:
        lo = -1.0 + float(_dyadic(rng, -8, 8, 32))
        hi = lo + 2.0
        parts.append(f"{name}:{lo!r}:{hi!r}:{count}")
        axes.append(np.linspace(lo, hi, count).tolist())
    return ",".join(parts), axes


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def _all_checks_pass(rep: dict) -> str | None:
    if rep.get("pass") is not True:
        return "report does not pass"
    bad = [c.get("check") for c in rep.get("checks", []) if c.get("pass") is not True]
    if bad:
        return f"checks failed: {bad}"
    if not rep.get("checks"):
        return "report has no checks"
    return None


def check_structure(rep: dict) -> str | None:
    err = _all_checks_pass(rep)
    if err is None and rep.get("special") is not True:
        err = "structure not reported special"
    return err


def check_dim(expected: int) -> Callable[[dict], str | None]:
    def check(rep: dict) -> str | None:
        if rep.get("dim_i") != expected:
            return f"dim_i is {rep.get('dim_i')}, expected {expected}"
        if rep.get("certified") is not True:
            return "dimension not certified"
        return None

    return check


def check_scan(expected: int, npoints: int) -> Callable[[dict], str | None]:
    def check(rep: dict) -> str | None:
        dims = rep.get("dims") or []
        if len(dims) != npoints:
            return f"scan covered {len(dims)} points, expected {npoints}"
        wrong = sum(1 for d in dims if d != expected)
        if wrong:
            return f"{wrong} scan points have dim != {expected}"
        if rep.get("semicontinuity_violations") != 0:
            return f"{rep.get('semicontinuity_violations')} semicontinuity violations"
        return None

    return check


def _max_diff(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    return float(np.max(np.abs(got - want))) if got.size else 0.0


def check_reconstruct(Z: KillingField, axes: list[list[float]]) -> Callable[[dict], str | None]:
    points = list(itertools.product(*axes))
    want = [Z.coords(x, y) for x, y, _ in points]

    def check(rep: dict) -> str | None:
        if rep.get("pass") is not True:
            return "reconstruct report does not pass"
        if _max_diff(rep.get("points"), points) > 1e-12:
            return "grid points differ from the requested grid"
        err = _max_diff(rep.get("Z_coords"), want)
        if not err <= TRANSPORT_TOL:
            return f"Z_coords differ from the closed form by {err:.3e}"
        return None

    return check


def check_endpoint(Z: KillingField, end: tuple[float, float, float]) -> Callable[[dict], str | None]:
    X, A, c = Z.generator(end[0], end[1])

    def check(rep: dict) -> str | None:
        if rep.get("pass") is not True:
            return "prolong report does not pass"
        if _max_diff(rep.get("endpoint"), end) > 1e-12:
            return f"endpoint {rep.get('endpoint')} is not the curve end {list(end)}"
        err = max(
            _max_diff(rep.get("X"), X), _max_diff(rep.get("A"), A), _max_diff([rep.get("c")], [c])
        )
        if not err <= TRANSPORT_TOL:
            return f"(X, A, c) differ from the closed form by {err:.3e}"
        return None

    return check


def check_path(rep: dict) -> str | None:
    dev = rep.get("deviation")
    if not isinstance(dev, (int, float)) or not dev < PATH_CHECK_TOL:
        return f"path deviation {dev} is not below {PATH_CHECK_TOL}"
    if rep.get("pass") is not True:
        return "path-check report does not pass"
    return None


def check_verify(Z: KillingField, first: tuple[float, float, float]) -> Callable[[dict], str | None]:
    X, A, c = Z.generator(first[0], first[1])

    def check(rep: dict) -> str | None:
        err = _all_checks_pass(rep)
        if err:
            return err
        g = rep.get("generator_at_first_point") or {}
        diff = max(_max_diff(g.get("X"), X), _max_diff(g.get("A"), A), _max_diff([g.get("c")], [c]))
        if not diff <= TRANSPORT_TOL:
            return f"generator at the first point differs from the closed form by {diff:.3e}"
        return None

    return check


def judge(job: Job, returncode: int | None, stdout: bytes) -> str | None:
    """None when the job succeeded, else why it failed."""
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        rep = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        return f"stdout is not one JSON report: {e}"
    if not isinstance(rep, dict):
        return "report is not a JSON object"
    return job.check(rep)


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

H1 = ["x", "y", "z"]


def _base_point(rng: random.Random) -> tuple[float, float, float]:
    return tuple(float(_odd_dyadic(rng, 32)) for _ in range(3))


def symbolic(seed: int) -> list[Job]:
    """Exact symbolic set-up: the Reeb solve of su2:chart, the nabla^3 R
    tower of heisenberg:2, and the basis decompositions of heisenberg:3."""
    rng = random.Random(seed)
    at = ",".join(repr(float(_dyadic(rng, -32, 32, 32))) for _ in range(5))
    s1, s2 = rng.randint(1, 10**6), rng.randint(1, 10**6)
    return [
        Job("check su2:chart", ["check", "su2:chart", "--seed", str(s1)], check_structure),
        Job("dim heisenberg:2", ["dim", "heisenberg:2", f"--at={at}"], check_dim(9)),
        Job("check heisenberg:3", ["check", "heisenberg:3", "--seed", str(s2)], check_structure),
    ]


def transport(seed: int) -> list[Job]:
    """RK4 transport of a seeded Killing generator: reconstruction over a
    5^3 grid, one long prolongation, and a two-curve path check."""
    rng = random.Random(seed)
    Z = _killing_field(rng)
    q0 = _base_point(rng)
    spec, axes = _grid(rng, H1, 5)
    u = [_dyadic(rng, -32, 32, 32) for _ in range(3)]
    w = [_dyadic(rng, -16, 16, 32) for _ in range(3)]
    end = tuple(float(Fraction(q) + du + dw) for q, du, dw in zip(q0, u, w))

    def curve(component: Callable[[Fraction, Fraction, Fraction], str]) -> str:
        comps = ", ".join(component(Fraction(q), du, dw) for q, du, dw in zip(q0, u, w))
        return f"[curve]\nt_range = 0 1\ngamma = {comps}\n"

    files = {
        "gen.toml": Z.generator_text(q0),
        "curve.toml": curve(lambda q, du, dw: f"{_frac(q)} + {_frac(du)}*t + {_frac(dw)}*t^2"),
        # two curves from q0 to q0 + u + w, for the path check
        "straight.toml": curve(lambda q, du, dw: f"{_frac(q)} + {_frac(du + dw)}*t"),
        "bent.toml": curve(lambda q, du, dw: f"{_frac(q)} + {_frac(du + dw)}*t + {_frac(dw)}*t*(1 - t)"),
    }
    return [
        Job(
            "reconstruct heisenberg:1",
            ["reconstruct", "heisenberg:1", "--gen", "gen.toml", "--grid", spec, "--step", "1e-3"],
            check_reconstruct(Z, axes),
            files,
        ),
        Job(
            "prolong heisenberg:1",
            ["prolong", "heisenberg:1", "--curve", "curve.toml", "--gen", "gen.toml", "--step", "1e-4"],
            check_endpoint(Z, end),
            files,
        ),
        Job(
            "path-check heisenberg:1",
            ["path-check", "heisenberg:1", "--curve", "straight.toml", "--curve", "bent.toml",
             "--gen", "gen.toml"],
            check_path,
            files,
        ),
    ]


def pointwise(seed: int) -> list[Job]:
    """Per-point work on heisenberg:1: the generator-space scan over a 13^3
    grid, then the structure, geometry and Killing-field checks on 41^3."""
    rng = random.Random(seed)
    scan_spec, _ = _grid(rng, H1, 13)
    spec, axes = _grid(rng, H1, 41)
    Z = _killing_field(rng)
    first = (axes[0][0], axes[1][0], axes[2][0])
    s1 = rng.randint(1, 10**6)
    return [
        Job("scan heisenberg:1", ["scan", "heisenberg:1", "--grid", scan_spec], check_scan(4, 13**3)),
        Job("check heisenberg:1", ["check", "heisenberg:1", "--grid", spec, "--seed", str(s1)],
            check_structure),
        Job("verify-geometry heisenberg:1", ["verify-geometry", "heisenberg:1", "--grid", spec],
            _all_checks_pass),
        Job("verify heisenberg:1", ["verify", "heisenberg:1", "--field", Z.field_text(), "--grid", spec],
            check_verify(Z, first)),
    ]


WORKLOADS: dict[str, Callable[[int], list[Job]]] = {
    "symbolic": symbolic,
    "transport": transport,
    "pointwise": pointwise,
}


def write_inputs(jobs: list[Job], workdir) -> None:
    """Write every job's input files into workdir."""
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        for name, text in job.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
