import json
import os

import pytest

from jetlift import ModelError, load_model

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def write_model(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestLoad:
    def test_bundled_models(self):
        for name in ("n1.json", "n2.json"):
            m = load_model(os.path.join(MODELS, name))
            inp = m.suite_inputs()
            assert len(inp.tensors) >= 3
            assert len(inp.oneforms) >= 3
            assert len(inp.twoforms) >= 3
            assert len(inp.vert_fields) >= 3
            assert len(inp.tnorm_fields) >= 3
            assert len(inp.scalars) >= 3
            assert len(inp.transforms) >= 1

    def test_object_values(self, tmp_path):
        path = write_model(tmp_path, {
            "n": 1,
            "objects": {
                "f": {"kind": "scalar_E", "components": {"value": "t*q1"}},
                "X": {"kind": "vector_E", "components": {"q1": "q1"}},
            }})
        m = load_model(path)
        kind, f = m.get("f")
        assert kind == "scalar_E"
        assert f.eval((2.0, 3.0)) == 6.0
        kind, X = m.get("X")
        assert X.is_vertical


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(ModelError):
            load_model("/nonexistent/model.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(ModelError):
            load_model(str(path))

    def test_missing_n(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(write_model(tmp_path, {"objects": {
                "f": {"kind": "scalar_E", "components": {"value": "t"}}}}))

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(write_model(tmp_path, {"n": 1, "objects": {
                "f": {"kind": "spinor", "components": {}}}}))

    def test_bad_expression(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(write_model(tmp_path, {"n": 1, "objects": {
                "f": {"kind": "scalar_E", "components": {"value": "q1 +"}}}}))

    def test_wrong_coordinate(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(write_model(tmp_path, {"n": 1, "objects": {
                "f": {"kind": "scalar_E", "components": {"value": "q2"}}}}))

    def test_tensor_with_dt_row(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(write_model(tmp_path, {"n": 1, "objects": {
                "R": {"kind": "tensor11_E", "components": {"t,q1": "1"}}}}))

    def test_partial_inverse(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(write_model(tmp_path, {"n": 2, "objects": {
                "T": {"kind": "transform", "components": {
                    "Q1": "q1", "Q2": "q2", "inv_q1": "q1"}}}}))

    def test_a_key_given_twice_at_any_level(self, tmp_path):
        # json would keep the last value of each
        R = '{"kind": "tensor11_E", "components": {"q1,q1": "q1"}}'
        for text, names in [
                ('{"n": 1, "n": 2, "objects": {"R": %s}}' % R,
                 "model file gives 'n' twice"),
                ('{"n": 1, "objects": {"R": {"kind": "tensor11_E", "kind": '
                 '"oneform_E", "components": {"q1": "q1"}}}}',
                 "object 'R' gives 'kind' twice")]:
            path = tmp_path / "model.json"
            path.write_text(text)
            with pytest.raises(ModelError) as info:
                load_model(str(path))
            assert str(info.value) == names

    def test_a_twoform_term_and_its_mirror_add(self, tmp_path):
        # "q1,t" and "t,q1" are two components of a TwoForm, not one twice
        m = load_model(write_model(tmp_path, {"n": 1, "objects": {
            "w": {"kind": "twoform_E",
                  "components": {"q1,t": "q1", "t,q1": "t"}}}}))
        _, w = m.get("w")
        assert str(w.entries[1][0]) == "q1 - t"
        assert str(w.entries[0][1]) == "t - q1"

    def test_unknown_object(self, tmp_path):
        m = load_model(write_model(tmp_path, {"n": 1, "objects": {
            "f": {"kind": "scalar_E", "components": {"value": "t"}}}}))
        with pytest.raises(ModelError):
            m.get("g")
