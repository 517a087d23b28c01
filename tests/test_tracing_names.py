"""The benchmark's tracer (perfbench/tracing.py) wraps srkilling functions
and methods by name and skips a name that no longer resolves, so a rename
would quietly zero its per-layer metrics.  These tests fail instead.  The
name lists are read from the tracer's source, which is not imported."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _listed(name: str) -> list[tuple]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {TRACING}")


def test_every_traced_name_exists():
    for span, module, attr in _listed("FUNCTIONS"):
        assert callable(getattr(importlib.import_module(module), attr, None)), span
    for span, module, cls, attr in _listed("METHODS"):
        assert attr in vars(getattr(importlib.import_module(module), cls)), span


def test_every_traced_cache_is_a_dict_of_expr():
    # the tracer reads len() of each as expr.*_cache_entries
    expr = importlib.import_module("srkilling.expr")
    for metric, name in _listed("CACHES").items():
        assert isinstance(getattr(expr, name, None), dict), metric


def test_cli_binds_eval_tensor():
    # perfbench/test_perfbench.py reads srkilling.cli.eval_tensor
    import srkilling.cli as cli
    from srkilling.connection import eval_tensor

    assert cli.eval_tensor is eval_tensor
