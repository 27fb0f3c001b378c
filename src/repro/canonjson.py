"""Canonical indented JSON at C-encoder speed.

``json.dumps(obj, indent=n)`` always runs CPython's pure-Python encoder.
:func:`dumps` produces the same bytes, but hands every list or dict that
holds only scalars to the C encoder, with the newline and indentation
folded into its item separator; only containers that hold containers are
walked here.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["dumps"]

_NESTED = (dict, list, tuple)


def dumps(obj: Any, *, indent: int, sort_keys: bool = False) -> str:
    """``json.dumps(obj, indent=indent, sort_keys=sort_keys)``, byte for byte."""
    return _encode(obj, " " * indent, "\n", sort_keys)


def _encode(obj: Any, pad: str, nl: str, sort_keys: bool) -> str:
    if isinstance(obj, dict):
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return json.dumps(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + pad
    if not any(issubclass(t, _NESTED) for t in set(map(type, values))):
        text = json.dumps(obj, separators=("," + inner, ": "),
                          sort_keys=sort_keys)
        return text[0] + inner + text[1:-1] + nl + text[-1]
    if isinstance(obj, dict):
        items = sorted(obj.items()) if sort_keys else obj.items()
        body = [json.dumps(k if isinstance(k, str) else json.dumps(k))
                + ": " + _encode(v, pad, inner, sort_keys) for k, v in items]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    body = [_encode(v, pad, inner, sort_keys) for v in obj]
    return "[" + inner + ("," + inner).join(body) + nl + "]"
