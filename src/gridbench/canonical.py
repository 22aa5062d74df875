"""Canonical, implementation-independent serialization helpers.

Study records and dataset content hashes must be byte-reproducible across
runs, so JSON emission here is fully pinned down: sorted keys, no
insignificant whitespace, floats at 17 significant digits (enough to
round-trip IEEE-754 doubles), and a hard rejection of NaN/Inf. Every config,
manifest and record schema is written in the JSON Schema dialect below.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields

import jsonschema


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


_NUMBER = {"type": "number"}
_INT = {"type": "integer"}
_STR = {"type": "string"}
_BOOL = {"type": "boolean"}

# The JSON Schema of each annotation of a dataclass field or default's type.
_TYPED = {
    "int": _INT,
    "float": _NUMBER,
    "str": _STR,
    "bool": _BOOL,
    "int | None": {"type": ["integer", "null"]},
    "float | None": {"type": ["number", "null"]},
    "str | None": {"type": ["string", "null"]},
    "list[float]": {"type": "array", "items": _NUMBER},
}


def _obj(properties: dict, required: list[str] | None = None) -> dict:
    return {
        "type": "object",
        "properties": properties,
        "required": sorted(properties) if required is None else required,
        "additionalProperties": False,
    }


def _fields(cls, **special) -> dict:
    """The closed object of dataclass ``cls``'s fields, each typed from its
    annotation unless ``special`` gives its schema; ``special`` may add keys."""
    return _obj({**{f.name: _TYPED[f.type] for f in fields(cls)
                    if f.name not in special}, **special})


# The JSON types as canonical JSON writes them: an integer has no fraction
# part, so 2.0 is not one, and NaN or Infinity is no number at all (the
# stock checker accepts both, and a bound compares false with NaN).
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, x: type(x) is int,
        "number": lambda _, x: type(x) is int or isinstance(x, float) and math.isfinite(x),
    }))


def _violations(schema: dict, document) -> list[str]:
    """``<JSON pointer>: <message>`` for each way ``document`` breaks ``schema``."""
    violations = []
    for error in sorted(_Validator(schema).iter_errors(document),
                        key=lambda e: list(map(str, e.absolute_path))):
        pointer = "/" + "/".join(str(p) for p in error.absolute_path)
        if pointer == "/":
            pointer = ""
        violations.append(f"{pointer}: {error.message}")
    return violations
