"""The on-disk definition format: parsing, errors, and round trips."""

import hashlib
import json

import pytest

from hopf_forge.definition import (load_definition, parse_definition,
                                   read_definition, render_definition,
                                   save_definition)
from hopf_forge.errors import DefinitionError
from hopf_forge.fixtures import packaged_fixture_names, packaged_fixture_path

ALL_NAMES = packaged_fixture_names()


def minimal_structure():
    return {
        "format": "qg-definition/1",
        "kind": "structure-constants",
        "name": "tiny",
        "description": "",
        "basis": ["e"],
        "mul": [[0, 0, 0, "1"]],
        "unit": ["1"],
        "star": None,
        "coproduct": [[0, 0, 0, "1"]],
        "counit": None,
        "antipode": None,
        "sub_bases": {},
    }


class TestRoundTrip:
    def test_every_packaged_file_reserializes_byte_identically(self):
        for name in ALL_NAMES:
            path = packaged_fixture_path(name)
            with open(path, encoding="utf-8") as f:
                shipped = f.read()
            defn = parse_definition(shipped, path)
            assert render_definition(defn) == shipped, name

    def test_save_and_load(self, tmp_path):
        defn = load_definition(packaged_fixture_path("sweedler_h4"))
        out = tmp_path / "again.qg"
        save_definition(defn, str(out))
        again = load_definition(str(out))
        assert render_definition(again) == render_definition(defn)
        with open(packaged_fixture_path("sweedler_h4"), "rb") as fh:
            shipped = fh.read()
        assert read_definition(str(out))[1] == \
            hashlib.sha256(shipped).hexdigest()


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(DefinitionError, match="invalid JSON"):
            parse_definition("{ nope", "bad.qg")

    def test_non_object_top_level(self):
        with pytest.raises(DefinitionError, match="top level"):
            parse_definition("[1, 2]")

    def test_wrong_format_tag(self):
        obj = minimal_structure()
        obj["format"] = "qg-definition/99"
        with pytest.raises(DefinitionError, match="unsupported format"):
            parse_definition(json.dumps(obj))

    def test_unknown_kind(self):
        obj = minimal_structure()
        obj["kind"] = "mystery"
        with pytest.raises(DefinitionError, match="unknown kind"):
            parse_definition(json.dumps(obj))

    def test_missing_key(self):
        obj = minimal_structure()
        del obj["mul"]
        with pytest.raises(DefinitionError, match="missing key 'mul'"):
            parse_definition(json.dumps(obj))

    def test_bad_scalar_literal(self):
        obj = minimal_structure()
        obj["mul"] = [[0, 0, 0, "s^"]]
        with pytest.raises(DefinitionError):
            parse_definition(json.dumps(obj))

    def test_index_out_of_range(self):
        obj = minimal_structure()
        obj["mul"] = [[0, 0, 5, "1"]]
        with pytest.raises(DefinitionError, match="out of range"):
            parse_definition(json.dumps(obj))

    def test_error_carries_the_source_path(self):
        with pytest.raises(DefinitionError, match="my_file.qg"):
            parse_definition("{ nope", "my_file.qg")


class TestPresentationParsing:
    def test_unknown_generator_in_rule(self):
        path = packaged_fixture_path("uq-su2")
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
        obj["rules"][0][0] = ["K", "ghost"]
        with pytest.raises(DefinitionError, match="ghost"):
            parse_definition(json.dumps(obj))

    def test_pairing_action_functional_must_name_an_action(self):
        path = packaged_fixture_path("pairing-uqsu2-suq2")
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
        obj["action_functionals"][0][0] = "ghost"
        with pytest.raises(DefinitionError, match="ghost"):
            parse_definition(json.dumps(obj))
