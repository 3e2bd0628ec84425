"""Canonical structured-text serialization.

All model files, configs, and reports round-trip through JSON-shaped
text in which every float is written with 17 significant digits, enough
to reconstruct the exact IEEE-754 double.  Keys keep insertion order so
re-emitting a parsed document is byte-stable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FLOAT_FORMAT = ".17g"


def format_float(x):
    """Render a finite float with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(x, FLOAT_FORMAT)


def _emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                parts.append(", ")
            parts.append(json.dumps(key))
            parts.append(": ")
            _emit(value, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj):
    """Serialize to canonical JSON text (insertion-ordered keys)."""
    parts = []
    _emit(obj, parts)
    parts.append("\n")
    return "".join(parts)


def _finite(literal):
    """A JSON number or NaN/Infinity token as a float, unless it is not
    finite: only finite numbers are written, so only they are read back."""
    x = float(literal)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {literal}")
    return x


def loads(text):
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def dump(obj, path):
    Path(path).write_text(dumps(obj), encoding="utf-8")     # no file opens if dumps fails


def load(path):
    """The JSON document in the file at ``path``, in any UTF encoding."""
    with open(path, "rb") as fh:
        return loads(fh.read())
