"""Canonical, implementation-independent serialization helpers.

Study records and dataset content hashes must be byte-reproducible across
runs, so JSON emission here is fully pinned down: sorted keys, no
insignificant whitespace, floats at 17 significant digits (enough to
round-trip IEEE-754 doubles), and a hard rejection of NaN/Inf.
"""

from __future__ import annotations

import hashlib
import math


def canonical_float(value: float) -> str:
    """Format a float deterministically with 17 significant digits."""
    if not math.isfinite(value):
        raise ValueError(f"non-finite value cannot be canonicalized: {value!r}")
    if value == 0.0:
        return "0.0"
    text = format(value, ".17g")
    # Ensure the token reads back as a float, not an int.
    if "e" not in text and "E" not in text and "." not in text:
        text += ".0"
    return text


# JSON's short escapes, and \u00XX for every other control character
_ESCAPES = {**{c: f"\\u{c:04x}" for c in range(0x20)},
            **str.maketrans({'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
                             "\t": "\\t"})}


def _escape_string(s: str) -> str:
    return '"' + s.translate(_ESCAPES) + '"'


def canonical_json(obj) -> str:
    """Serialize nested dict/list/scalar data to canonical JSON text."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return canonical_float(obj)
    if isinstance(obj, str):
        return _escape_string(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r} in canonical JSON")
            items.append(_escape_string(key) + ":" + canonical_json(obj[key]))
        return "{" + ",".join(items) + "}"
    # numpy scalars and arrays arrive via .item()/.tolist() upstream; anything
    # else here is a programming error worth failing loudly on.
    raise TypeError(f"cannot canonicalize object of type {type(obj).__name__}")


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
