"""Deterministic JSON reports.

The emitter is hand-rolled so that key order is exactly insertion order
and floats are printed with 17 significant digits (value round-trips to
the same binary64).  Identical inputs therefore produce byte-identical
reports.
"""

from __future__ import annotations

import numpy as np

__all__ = ["to_json", "render_pretty", "check_records_payload"]


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    if x == int(x) and abs(x) < 1e15:
        return f"{x:.1f}"
    return format(x, ".17g")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def _emit(obj, parts: list[str], indent: int | None, level: int) -> None:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    pad_close = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(f'"{_escape(obj)}"')
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(pad)
            parts.append(f'"{_escape(str(k))}": ')
            _emit(v, parts, indent, level + 1)
        parts.append(pad_close + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            parts.append("[]")
            return
        parts.append("[")
        for i, v in enumerate(seq):
            if i:
                parts.append(",")
            parts.append(pad)
            _emit(v, parts, indent, level + 1)
        parts.append(pad_close + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json(obj, pretty: bool = False) -> str:
    parts: list[str] = []
    _emit(obj, parts, 2 if pretty else None, 0)
    return "".join(parts) + "\n"


def check_records_payload(records) -> list[dict]:
    return [r.as_dict() for r in records]


def render_pretty(report: dict) -> str:
    """Human-readable table rendering of a report dictionary."""
    lines = []
    for key, val in report.items():
        if key == "checks" and isinstance(val, list):
            lines.append("checks:")
            w = max((len(str(r.get("check", ""))) for r in val), default=5)
            for r in val:
                status = "PASS" if r.get("pass") else "FAIL"
                lines.append(
                    f"  {str(r.get('check','')):<{w}}  "
                    f"residual={r.get('max_residual', float('nan')):.3e}  "
                    f"points={r.get('points_tested','-')}  {status}"
                )
        elif isinstance(val, dict):
            lines.append(f"{key}:")
            for k2, v2 in val.items():
                lines.append(f"  {k2} = {v2}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"
