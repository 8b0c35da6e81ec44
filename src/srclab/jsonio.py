"""Deterministic JSON emission: stable field order, 17-significant-digit floats.

The stdlib encoder does not pin float formatting, so reports are serialized
by hand; identical inputs produce byte-identical output.  Non-finite floats
(possible only for checks that errored) serialize as null.
"""
from __future__ import annotations

import json
import math


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def dumps(obj) -> str:
    out: list[str] = []
    _write(obj, out, 0)
    return "".join(out) + "\n"


def _write(obj, out, level):
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for idx, (key, value) in enumerate(obj.items()):
            out.append(f"{pad_in}{json.dumps(str(key))}: ")
            _write(value, out, level + 1)
            out.append(",\n" if idx < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for idx, value in enumerate(obj):
            out.append(pad_in)
            _write(value, out, level + 1)
            out.append(",\n" if idx < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
