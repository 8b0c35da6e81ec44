"""Deterministic JSON emission: stable field order, 17-significant-digit floats.

The stdlib encoder does not pin float formatting, so reports are serialized
by hand; identical inputs produce byte-identical output.  Non-finite floats
(possible only for checks that errored) serialize as null.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote     # what json.dumps writes a str as

# the types written, in the order a subclass (np.float64 of float) is matched: bool before int
_KINDS = (type(None), bool, int, float, str, dict, list, tuple)


def dumps(obj) -> str:
    out: list[str] = []
    _write(obj, out, "")
    return "".join(out) + "\n"


def _write(obj, out, pad):
    """Append ``obj`` to ``out``, its nested lines indented by ``pad`` and two spaces."""
    kind = type(obj)
    if kind not in _KINDS:
        kind = next((k for k in _KINDS if isinstance(obj, k)), None)
    if kind is float:       # x.0 if integral and below 1e16, else 17 significant digits
        out.append("null" if not math.isfinite(obj) else f"{obj:.1f}"
                   if obj == int(obj) and abs(obj) < 1e16 else f"{obj:.17g}")
    elif kind is str:
        out.append(_quote(obj))
    elif kind is dict:
        inner, sep = pad + "  ", "{\n"
        for key, value in obj.items():
            out.append(f"{sep}{inner}{_quote(str(key))}: ")
            _write(value, out, inner)
            sep = ",\n"
        out.append(f"\n{pad}}}" if obj else "{}")
    elif kind is list or kind is tuple:
        inner, sep = pad + "  ", "[\n"
        for value in obj:
            out.append(sep + inner)
            _write(value, out, inner)
            sep = ",\n"
        out.append(f"\n{pad}]" if obj else "[]")
    elif kind is int:
        out.append(str(obj))
    elif kind is bool or kind is type(None):
        out.append("null" if obj is None else "true" if obj else "false")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
