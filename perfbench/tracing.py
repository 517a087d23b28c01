"""Traced in-process run of a workload's job list: per-layer times and counts.

The tracer wraps the public functions of each srkilling module (the
layers: expr, frame, connection, killing, report, cli) from outside the
program; nothing under src/ is edited.  Each wrapped call records a span
(name, start, end, parent, job) in memory.  A wrapper is installed in every
srkilling module namespace that binds the function, because `cli` and
`killing` import names such as `eval_tensor` and `generator_space`
directly.  `numpy.linalg.svd` is wrapped too; its span is named
`<layer>.svd` after the layer of its caller, so only the SVDs that the
killing layer runs count as `killing.svd`.

Run as a script (by run.py, in a fresh process) it executes the job list
twice in one process: pass 1 is cold, pass 2 warm, since the expression
layer keeps global caches keyed by object id.  It prints one JSON object:
per pass the metrics below and the jobs' results; the spans are written to
`--spans`.  With `--untraced` it runs the list once without the tracer.

    python3 perfbench/tracing.py --workload pointwise --seed 1 \
        --spans perfbench/out/spans.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

# (span name, module, function).  The span name is "<layer>.<function>",
# the layer being the srkilling module that defines the function.
FUNCTIONS = [
    ("frame.load_structure", "srkilling.frame", "load_structure"),
    ("frame.normalize_contact_form", "srkilling.frame", "normalize_contact_form"),
    ("frame.compute_reeb", "srkilling.frame", "compute_reeb"),
    ("frame.structure_functions", "srkilling.frame", "structure_functions"),
    ("frame.check_special", "srkilling.frame", "check_special"),
    ("frame.wedge_power", "srkilling.frame", "wedge_power"),
    ("connection.compute_connection", "srkilling.connection", "compute_connection"),
    ("connection.curvature", "srkilling.connection", "curvature"),
    ("connection.covariant_derivative", "srkilling.connection", "covariant_derivative"),
    ("connection.eval_tensor", "srkilling.connection", "eval_tensor"),
    ("connection.verify_geometry", "srkilling.connection", "verify_geometry"),
    ("expr.compile_expression", "srkilling.expr", "compile_expression"),
    ("killing.generator_space", "srkilling.killing", "generator_space"),
    ("killing.scan_regularity", "srkilling.killing", "scan_regularity"),
    ("killing.transport", "srkilling.killing", "transport"),
    ("killing.path_independence", "srkilling.killing", "path_independence"),
    ("killing.reconstruct_field", "srkilling.killing", "reconstruct_field"),
    ("killing.verify_killing_field", "srkilling.killing", "verify_killing_field"),
    ("killing.verify_killing", "srkilling.killing", "verify_killing"),
    ("killing.riemannian_extension_check", "srkilling.killing", "riemannian_extension_check"),
    ("killing.a_z_matrix", "srkilling.killing", "a_z_matrix"),
    ("report.to_json", "srkilling.report", "to_json"),
    ("report.check_records_payload", "srkilling.report", "check_records_payload"),
]
# (span name, module, class, method).
METHODS = [
    ("frame.decompose", "srkilling.frame", "ContactStructure", "decompose"),
    ("frame.eval_scalar", "srkilling.frame", "ContactStructure", "eval_scalar"),
    ("frame.basis_matrix_at", "srkilling.frame", "ContactStructure", "basis_matrix_at"),
    ("frame.parse_field", "srkilling.frame", "ContactStructure", "parse_field"),
]
ROOT_SPAN = "cli.main"
SVD_SPAN = "killing.svd"
TRACED_PASSES = 2  # cold, then warm
# Numeric evaluation; under a transport span it is the stage data.
EVAL_SPANS = frozenset(
    {"connection.eval_tensor", "expr.compile_expression", "frame.eval_scalar", "frame.basis_matrix_at"}
)
LAYERS = ("expr", "frame", "connection", "killing", "report", "cli")
# Orders of nabla^m R / nabla^m dalpha the workloads differentiate.
ORDERS = range(4)

# Every metric of one pass: (name, unit, better).  `_s` names are seconds:
# inclusive time of the outermost span of that name unless noted.
METRICS = (
    [
        ("job_list_s", "s", "lower"),
        ("frame.load_structure_s", "s", "lower"),
        ("frame.normalize_contact_form_s", "s", "lower"),
        ("frame.compute_reeb_s", "s", "lower"),
        ("frame.structure_functions_s", "s", "lower"),
        ("frame.check_special_s", "s", "lower"),
        ("frame.decompose_calls", "count", "lower"),
        ("connection.compute_connection_s", "s", "lower"),
        ("connection.curvature_s", "s", "lower"),
    ]
    + [(f"connection.covariant_derivative.order{m}_s", "s", "lower") for m in ORDERS]
    + [
        ("connection.components", "count", "lower"),
        ("connection.nonzero_components", "count", "lower"),
        ("connection.eval_tensor_s", "s", "lower"),
        ("connection.verify_geometry_s", "s", "lower"),
        ("expr.compile_expression_s", "s", "lower"),
        ("expr.compile_expression_calls", "count", "lower"),
        ("expr.norm_cache_entries", "count", "lower"),
        ("expr.poly_cache_entries", "count", "lower"),
        ("expr.diff_cache_entries", "count", "lower"),
        ("killing.generator_space_s", "s", "lower"),
        ("killing.assembly_s", "s", "lower"),
        ("killing.svd_s", "s", "lower"),
        ("killing.svd_calls", "count", "lower"),
        ("killing.svd_rows_max", "count", "lower"),
        ("killing.scan_points", "count", "higher"),
        ("killing.transport_s", "s", "lower"),
        ("killing.transport.stage_eval_s", "s", "lower"),
        ("killing.transport.rk4_s", "s", "lower"),
        ("killing.transport_calls", "count", "lower"),
        ("killing.rk4_steps", "count", "lower"),
        ("killing.reconstruct_field_s", "s", "lower"),
        ("killing.verify_killing_field_s", "s", "lower"),
        ("report.to_json_s", "s", "lower"),
        ("report.bytes", "count", "lower"),
    ]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
)
CACHES = {
    "expr.norm_cache_entries": "_NORM_CACHE",
    "expr.poly_cache_entries": "_POLY_CACHE",
    "expr.diff_cache_entries": "_DIFF_CACHE",
}


def _tensor_order(T) -> int:
    """m of an input nabla^m R (one upper slot, base rank 4) or nabla^m dalpha
    (no upper slot, base rank 2)."""
    return T.rank - (4 if T.n_upper == 1 else 2)


def _count_components(T) -> tuple[int, int]:
    from srkilling.expr import Const

    comps = T.components.ravel()
    zero = sum(1 for e in comps if isinstance(e, Const) and e.value == 0)
    return comps.size, comps.size - zero


# Counters read once the pass is over, from (args, kwargs, result), so that
# counting costs no traced time.
def _covariant_counts(a, kw, out) -> dict:
    n, nz = _count_components(out)
    return {"order": _tensor_order(a[1] if len(a) > 1 else kw["T"]), "components": n, "nonzero": nz}


def _curvature_counts(a, kw, out) -> dict:
    n, nz = _count_components(out.R)
    return {"components": n, "nonzero": nz}


COUNTERS = {
    "connection.covariant_derivative": _covariant_counts,
    "connection.curvature": _curvature_counts,
    "killing.transport": lambda a, kw, out: {"steps": out.steps},
    "killing.scan_regularity": lambda a, kw, out: {"points": len(out.get("dims", []))},
    "killing.svd": lambda a, kw, out: {"rows": a[0].shape[0] if a else kw["a"].shape[0]},
    "report.to_json": lambda a, kw, out: {"bytes": len(out.encode("utf-8"))},
}


class Tracer:
    """Spans in memory: [name, start, end, parent index, job, counter input]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counter = self.spans, self.stack, COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            # Per-component evaluation inside eval_tensor is part of that span.
            if name == "frame.eval_scalar" and stack and spans[stack[-1]][0] == "connection.eval_tensor":
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = (counter, args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function wherever an srkilling module binds it,
        the listed methods on their class, and numpy.linalg.svd."""
        import numpy as np

        modules = [m for n, m in list(sys.modules.items()) if n == "srkilling" or n.startswith("srkilling.")]
        for name, modname, attr in FUNCTIONS:
            fn = getattr(importlib.import_module(modname), attr, None)
            if fn is None:
                continue
            wrapped = self.wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, wrapped)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            if cls is not None and attr in vars(cls):
                self._set(cls, attr, self.wrap(name, vars(cls)[attr]))
        self._set(np.linalg, "svd", self.wrap(SVD_SPAN, np.linalg.svd))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[list]:
        """Spans recorded so far (all closed), resolving their counters.  An
        SVD span is renamed after its caller's layer; only killing's keep
        their row count."""
        out = list(self.spans)
        self.spans.clear()
        for rec in out:
            if rec[0] == SVD_SPAN:
                layer = out[rec[3]][0].split(".", 1)[0] if rec[3] >= 0 else "cli"
                if layer != "killing":
                    rec[0], rec[5] = f"{layer}.svd", None
            if rec[5] is not None:
                counter, args, kwargs, result = rec[5]
                rec[5] = counter(args, kwargs, result)
        return out


def span_metrics(spans: list[list], caches: dict[str, int], job_list_s: float) -> dict[str, float]:
    """Metrics of one pass from its spans (see METRICS)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    incl: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    orders = {m: 0.0 for m in ORDERS}
    components = nonzero = steps = points = nbytes = rows_max = 0
    stage_eval = 0.0
    for i, s in enumerate(spans):
        name, c = s[0], s[5] or {}
        calls[name] = calls.get(name, 0) + 1
        selft[name] = selft.get(name, 0.0) + self_t[i]
        layer_self[name.split(".", 1)[0]] += self_t[i]
        if all(spans[p][0] != name for p in ancestors(i)):
            incl[name] = incl.get(name, 0.0) + dur[i]
        if c.get("order") in orders:
            orders[c["order"]] += dur[i]
        components += c.get("components", 0)
        nonzero += c.get("nonzero", 0)
        steps += c.get("steps", 0)
        points += c.get("points", 0)
        nbytes += c.get("bytes", 0)
        rows_max = max(rows_max, c.get("rows", 0))
        if name in EVAL_SPANS:
            # outermost evaluation whose nearest killing caller is transport
            for p in ancestors(i):
                pname = spans[p][0]
                if pname in EVAL_SPANS:
                    break
                if pname.startswith("killing."):
                    if pname == "killing.transport":
                        stage_eval += dur[i]
                    break

    names = {metric for metric, _, _ in METRICS}
    out = {f"{s}_s": incl.get(s, 0.0) for s, _, _ in FUNCTIONS if f"{s}_s" in names}
    out.update(
        {
            "job_list_s": job_list_s,
            "frame.decompose_calls": calls.get("frame.decompose", 0),
            "connection.components": components,
            "connection.nonzero_components": nonzero,
            "expr.compile_expression_calls": calls.get("expr.compile_expression", 0),
            "killing.assembly_s": selft.get("killing.generator_space", 0.0)
            + selft.get("killing.scan_regularity", 0.0),
            "killing.svd_s": incl.get(SVD_SPAN, 0.0),
            "killing.svd_calls": calls.get(SVD_SPAN, 0),
            "killing.svd_rows_max": rows_max,
            "killing.scan_points": points,
            "killing.transport.stage_eval_s": stage_eval,
            "killing.transport.rk4_s": incl.get("killing.transport", 0.0) - stage_eval,
            "killing.transport_calls": calls.get("killing.transport", 0),
            "killing.rk4_steps": steps,
            "report.bytes": nbytes,
        }
    )
    out.update({f"connection.covariant_derivative.order{m}_s": t for m, t in orders.items()})
    out.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
    out.update(caches)
    return {metric: out[metric] for metric, _, _ in METRICS}


def cache_sizes() -> dict[str, int]:
    ex = sys.modules["srkilling.expr"]
    return {metric: len(getattr(ex, attr, ())) for metric, attr in CACHES.items()}


def run_jobs(jobs: list[workloads.Job], main, tracer: Tracer | None = None, pass_no: int = 1) -> list[dict]:
    """Run each job in this process, in order; judge and hash its stdout."""
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = (pass_no, i)
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = main(list(job.argv))
        except SystemExit as e:  # argparse rejecting the arguments
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a crash is a failed job, not a failed benchmark
            rc, error = -1, f"raised {type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
        stdout = buf.getvalue().encode("utf-8")
        results.append(
            {
                "job": job.name,
                "seconds": seconds,
                "returncode": rc,
                "sha256": hashlib.sha256(stdout).hexdigest(),
                "error": error or workloads.judge(job, rc, stdout),
            }
        )
    return results


def traced_passes(jobs: list[workloads.Job], spans_path: Path | None = None) -> list[dict]:
    """Run the job list cold, then warm, under the tracer; per pass its job
    results and metrics.  Spans are written to spans_path at the end."""
    import srkilling.cli as cli

    tracer = Tracer()
    tracer.install()
    main = tracer.wrap(ROOT_SPAN, cli.main)
    all_spans, out = [], []
    try:
        for p in range(1, TRACED_PASSES + 1):
            results = run_jobs(jobs, main, tracer, p)
            spans = tracer.take()
            all_spans.append(spans)
            metrics = span_metrics(spans, cache_sizes(), sum(r["seconds"] for r in results))
            out.append({"pass": p, "results": results, "metrics": metrics, "spans": len(spans)})
    finally:
        tracer.uninstall()
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            for p, spans in enumerate(all_spans, start=1):
                for s in spans:
                    fh.write(json.dumps({"pass": p, "job": s[4], "name": s[0], "start": s[1],
                                         "end": s[2], "parent": s[3], "counts": s[5]}) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--untraced", action="store_true", help="run the list once, without the tracer")
    ap.add_argument("--spans", type=Path, help="write the spans here (JSON lines)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import srkilling.cli as cli

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    if args.untraced:
        results = run_jobs(jobs, cli.main)
        passes = [{"pass": 1, "results": results, "metrics": {"job_list_s": sum(r["seconds"] for r in results)}}]
    else:
        passes = traced_passes(jobs, args.spans)
    print(json.dumps({"passes": passes}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
