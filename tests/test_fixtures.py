"""The packaged example files: their list, their bytes, and the four that
the C(G) and C[G] constructors rebuild from a group table."""

import hashlib
import os

from hopf_forge.definition import render_definition
from hopf_forge.fixtures import (function_algebra, group_algebra,
                                 packaged_fixture_names,
                                 packaged_fixture_path)
from hopf_forge.scalars import SC_ONE, SC_ZERO

from packaged import packaged

# sha256 of each shipped file's bytes
SHIPPED_SHA256 = {
    "c_s3": "ac7d4ada20400104efa67cd6109f35f614c9e748c77e8d5807301c3788e9f3e7",
    "c_z2": "c9d69f4b41986b0ac1dc883b83b80ff78e24cc0a650d3dba3ae0a6038ad69226",
    "c_z4": "350a4b582aadcc0b8f01ccf947b3b29c4b421313d84a23b3a05bcfb64c90a8b0",
    "group_s3":
        "76194bc70f7512f0262973f2df9fa28831eba94c0503352f8b328264faa5f23e",
    "pairing-uqsu2-suq2":
        "dc22b66ce73fa5e6bace9d3170afa3d9de7cdff4b21a93f28e29eefe780e62d5",
    "semilattice2":
        "f72331f9dd19033f21391e9e49e27857c66793de35d3347d6e08417a35aa4aa5",
    "suq2": "8dc9ed7592a98bbe1fbbe5016ce22848ec31f24e719394b4fe545f4914cbeab8",
    "sweedler_h4":
        "907eacc21581f36d48c9c1b1c125a95bf59edc12d405df0c3a13e390766289af",
    "uq-su2":
        "e515c5612fcb604a2a79f419b48069f70fdcbe1266cd764de846e59896dfe595",
}
ALL_NAMES = sorted(SHIPPED_SHA256)


def cyclic_group(n):
    return (["g%d" % k for k in range(n)], list(range(n)),
            lambda a, b: (a + b) % n, lambda a: (-a) % n)


# S3 in the order both S3 files list it; (p q)(t) = p(q(t)) on
# permutation tuples
S3 = [("id", (0, 1, 2)), ("r1", (1, 2, 0)), ("r2", (2, 0, 1)),
      ("t01", (1, 0, 2)), ("t02", (2, 1, 0)), ("t12", (0, 2, 1))]


def s3_group():
    perms = [p for _, p in S3]
    index = {p: k for k, p in enumerate(perms)}

    def compose(a, b):
        return index[tuple(perms[a][t] for t in perms[b])]

    def inverse(a):
        return next(b for b in range(len(perms)) if compose(a, b) == 0)

    return [label for label, _ in S3], perms, compose, inverse


GROUP_FILES = {
    "c_z2": (function_algebra, "functions on the two-element group",
             cyclic_group(2)),
    "c_z4": (function_algebra, "functions on the cyclic group of order four",
             cyclic_group(4)),
    "c_s3": (function_algebra,
             "functions on the symmetric group on three letters", s3_group()),
    "group_s3": (group_algebra,
                 "group algebra of the symmetric group on three letters",
                 s3_group()),
}


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

    def test_shipped_bytes_are_pinned(self):
        for name in ALL_NAMES:
            with open(packaged_fixture_path(name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert digest == SHIPPED_SHA256[name], name

    def test_group_files_match_their_constructors(self):
        for name, (build, description, group) in GROUP_FILES.items():
            defn = build(name, description, *group)
            if name == "c_z4":
                # the indicators of the index-two subgroup {0, 2}
                defn.sub_bases["c_h"] = [[SC_ONE, SC_ZERO, SC_ZERO, SC_ZERO],
                                         [SC_ZERO, SC_ZERO, SC_ONE, SC_ZERO]]
            with open(packaged_fixture_path(name), "rb") as fh:
                shipped = fh.read()
            assert render_definition(defn).encode("utf-8") == shipped, name

    def test_every_packaged_file_parses(self):
        for name in ALL_NAMES:
            assert packaged(name).name == name


class TestBuilderShapes:
    def test_sub_bases_ship_with_the_four_point_fixture(self):
        defn = packaged("c_z4")
        assert "c_h" in defn.sub_bases

    def test_star_is_identity_on_function_algebras(self):
        defn = packaged("c_s3")
        n = len(defn.labels)
        for i in range(n):
            row = defn.star[i]
            assert [str(c) for c in row] == \
                ["1" if j == i else "0" for j in range(n)]
