import json
import math

import numpy as np
import pytest

from fittedq import serialize


class TestFloatFormat:
    def test_17_digits_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = float(rng.normal(scale=10.0 ** rng.integers(-8, 9)))
            assert float(serialize.format_float(x)) == x

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                serialize.format_float(bad)


class TestDumps:
    def test_canonical_document(self):
        doc = {"b": 1, "a": [1.5, None, True, "x"], "nested": {"k": 0.1}}
        text = serialize.dumps(doc)
        assert text == ('{"b": 1, "a": [1.5, null, true, "x"], '
                        '"nested": {"k": 0.10000000000000001}}\n')
        assert serialize.loads(text) == json.loads(text)

    def test_numpy_values_accepted(self):
        text = serialize.dumps({"v": np.float64(0.25), "n": np.int64(3),
                                "arr": np.arange(3.0)})
        parsed = serialize.loads(text)
        assert parsed == {"v": 0.25, "n": 3, "arr": [0.0, 1.0, 2.0]}

    def test_emit_is_stable(self):
        doc = {"x": 1 / 3, "y": [2 / 7, 5]}
        assert serialize.dumps(doc) == serialize.dumps(serialize.loads(serialize.dumps(doc)))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            serialize.dumps({"x": object()})
        with pytest.raises(TypeError):
            serialize.dumps({1: "non-string key"})

    def test_failed_dump_leaves_the_file_unchanged(self, tmp_path):
        path = tmp_path / "doc.json"
        serialize.dump({"x": 1.0}, path)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            serialize.dump({"x": float("inf")}, path)
        assert path.read_bytes() == before

    def test_file_round_trip(self, tmp_path):
        doc = {"values": [0.1, 0.2, 0.3], "name": "model"}
        path = tmp_path / "doc.json"
        serialize.dump(doc, path)
        assert serialize.load(path) == doc
