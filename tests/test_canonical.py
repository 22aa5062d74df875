import json
import math

import pytest

from gridbench.canonical import canonical_float, canonical_json, sha256_hex


def test_floats_are_17_significant_digits_and_round_trip():
    assert canonical_float(0.1) == "0.10000000000000001"
    assert canonical_float(1.0) == "1.0"
    assert float(canonical_float(0.1)) == 0.1
    for value in (3.141592653589793, -1e-300, 2.5e17, 1 / 3):
        assert float(canonical_float(value)) == value


def test_non_finite_rejected():
    with pytest.raises(ValueError):
        canonical_float(math.nan)
    with pytest.raises(ValueError):
        canonical_float(math.inf)


def test_sorted_keys_and_compact_layout():
    text = canonical_json({"b": [1, 2.5], "a": {"x": None, "y": True}})
    assert text == '{"a":{"x":null,"y":true},"b":[1,2.5]}'


def test_serialization_round_trips_through_json():
    doc = {"name": "x", "values": [0.1, 2, -3.5], "flag": False, "none": None,
           "nested": {"deep": [1e-7, "s"]}}
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text


def test_string_escaping():
    assert canonical_json({"k": 'a"b\\c\n'}) == '{"k":"a\\"b\\\\c\\n"}'
    short = {"\n": "\\n", "\r": "\\r", "\t": "\\t"}
    for code in range(0x20):
        ch = chr(code)
        assert canonical_json(ch) == '"' + short.get(ch, f"\\u{code:04x}") + '"'
        assert json.loads(canonical_json(ch)) == ch
    assert canonical_json("\b\f") == '"\\u0008\\u000c"'
    assert canonical_json("\x7fé") == '"\x7fé"'


def test_sha256_hex_stable():
    assert sha256_hex("abc") == sha256_hex(b"abc")
    assert len(sha256_hex("abc")) == 64
