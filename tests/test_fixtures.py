"""Packaged example files agree with their in-code builders."""

import os

from hopf_forge.definition import (load_definition, render_definition)
from hopf_forge.fixtures import (FIXTURE_BUILDERS, build_fixture,
                                 packaged_fixture_names,
                                 packaged_fixture_path)
from hopf_forge.presets import PRESET_BUILDERS

ALL_NAMES = ["c_s3", "c_z2", "c_z4", "group_s3", "pairing-uqsu2-suq2",
             "semilattice2", "suq2", "sweedler_h4", "uq-su2"]


class TestPackagedFiles:
    def test_the_full_list_ships(self):
        assert packaged_fixture_names() == ALL_NAMES

    def test_path_lookup(self):
        assert packaged_fixture_path("c_z2") is not None
        assert packaged_fixture_path("nope") is None

    def test_paths_are_the_package_resources(self):
        from importlib import resources
        root = resources.files("hopf_forge") / "fixtures"
        for name in ALL_NAMES:
            with resources.as_file(root / (name + ".qg")) as expected:
                assert os.path.samefile(packaged_fixture_path(name),
                                        expected), name

    def test_structure_files_match_their_builders(self):
        for name in FIXTURE_BUILDERS:
            path = packaged_fixture_path(name)
            with open(path, encoding="utf-8") as f:
                shipped = f.read()
            assert shipped == render_definition(build_fixture(name)), name

    def test_presentation_files_match_their_builders(self):
        for name, builder in PRESET_BUILDERS.items():
            path = packaged_fixture_path(name)
            with open(path, encoding="utf-8") as f:
                shipped = f.read()
            assert shipped == render_definition(builder()), name

    def test_every_packaged_file_parses(self):
        for name in ALL_NAMES:
            defn = load_definition(packaged_fixture_path(name))
            assert defn.name == name


class TestBuilderShapes:
    def test_sub_bases_ship_with_the_four_point_fixture(self):
        defn = build_fixture("c_z4")
        assert "c_h" in defn.sub_bases

    def test_star_is_identity_on_function_algebras(self):
        defn = build_fixture("c_s3")
        n = len(defn.labels)
        for i in range(n):
            row = defn.star[i]
            assert [str(c) for c in row] == \
                ["1" if j == i else "0" for j in range(n)]
