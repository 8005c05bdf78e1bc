"""Report bytes of the structure-constant pipelines, pinned by sha256.

Each digest was taken on the program before the coproduct was stored as
sparse columns and the tensor square stopped keeping a product table.  An
input is copied (or written) into a temporary directory and named by a
relative path, so the checkout path does not enter the report.
"""

import hashlib
import inspect
import shutil
import textwrap

import pytest

from hopf_forge import assemble, finalg, mhopf
from hopf_forge.cli import main
from hopf_forge.definition import save_definition
from hopf_forge.fixtures import (function_algebra, group_algebra,
                                 packaged_fixture_path)
from hopf_forge.mhopf import TMAP_FORMULAS
from hopf_forge.scalars import SC_ONE, SC_ZERO

from packaged import packaged

STRUCTURE_EXAMPLES = ("c_s3", "c_z2", "c_z4", "group_s3", "semilattice2",
                      "sweedler_h4")
FORMATS = ("text", "json")

# (command, example, extra arguments) -> {format: sha256}
PINNED = {
    ("analyze", "c_s3"): {
        "text":
            "ecabf707367ebdc7d735e39d38883ba344eff263c735541201a24e466e7c392b",
        "json":
            "4c3d0faee0c0c005a3c01e11d2109543d6910ea3874d9f3217e44c8ce81f4b15",
    },
    ("analyze", "c_z2"): {
        "text":
            "a9341872890681074d8056577d9e46b3c4b5486ddc3280d21932099a56f5f498",
        "json":
            "6f4a81d75a39e305df2b735e7d2799953d4b244c301f5ed36e95050157d5b2eb",
    },
    ("analyze", "c_z4"): {
        "text":
            "b0aa1b8a52d6128884581aecc130edcb91695e0994cbba9df1209c866b398d07",
        "json":
            "b9918e990289b1cc843921233891443456c8bb7a74abb74c280ea74a2a403cbd",
    },
    ("analyze", "group_s3"): {
        "text":
            "8895dfd1b20fe70ba4cb7912c4912bfd70fb8a4118d7faa94204765873dfa9ee",
        "json":
            "c99c6bd2b3a5a4919cd51a009dcf81386bd47ef133c5bf34aba23d56ebe2e6ba",
    },
    ("analyze", "semilattice2"): {
        "text":
            "d53f6a5ae51179276bf1fe400e41cddc8126a9b5357333e6d4f783d8b5cf879e",
        "json":
            "bb2cac77a3844310d23c5dcca1609fbc1c9596b85a2a7881ffe8d211b1460caf",
    },
    ("analyze", "sweedler_h4"): {
        "text":
            "7bf654afd18c9c902ed44335f8e6fee39c15ce482f2edcd2e9752af3e81313b5",
        "json":
            "a733312643de1209fccc62b64952d85c3e384da5fb3a8dd862ee314f57a2d56d",
    },
    ("analyze", "sweedler_h4", "--no-star-assert"): {
        "text":
            "3eb43e52d5088dd6a1f78b7684866a72510edf6c19167ea9b58c06dbdbf61d8e",
        "json":
            "401fc9daa923d716989c6b283687464287d3b2ab7a69430835fdec061c0cb25f",
    },
    ("dual", "c_s3"): {
        "text":
            "d462a9b17d40729b8f2d63f3754fe3143679d364bceb4d61afff9d46bbedcadf",
        "json":
            "4d40b2cc5e8dfe8c07431be0028ee39e0a0b14e4aa8bf3690c3b76e5f422859b",
    },
    ("dual", "c_z2"): {
        "text":
            "ca68847779f6179cc8d590b5a8ca61437866277cd64fd5d62352fe82f9e87b20",
        "json":
            "928daa40689fd634f8317aeeeb5433bc19670949be895a18a6c3bde5b1405fb0",
    },
    ("dual", "c_z4"): {
        "text":
            "9fb8ca434a19d28e2cdda7e549bf325e2e7f236f8a368279516677170e04521c",
        "json":
            "8352d58013bc166bc6661b1b9b615b49d939fbab508b49a206aa7cec7dcbdc85",
    },
    ("dual", "group_s3"): {
        "text":
            "36f511664f7a6c273bf3425dfc10529e80d2590c447352f990e2a2b57c1ded46",
        "json":
            "842cd0ad0ff481a89d4b14c295a614af50c97d635a0129b4896f5ebba4599e88",
    },
    ("dual", "semilattice2"): {
        "text":
            "68f9c5fea546aa38355032b250ada4eae942a8a88382f8d3ae7768d5c4372b53",
        "json":
            "15a2d07776d80acba203fe7648ce15358e0555b96deac50f14ea4f78008077f6",
    },
    ("dual", "sweedler_h4"): {
        "text":
            "e7dc8926cd6facca769f25cc9ce3f1ab02393660e5b4ef75e5be4c28a1acb4c5",
        "json":
            "7dc4e4508439dec63dc99535a14462af9733f96c8139cb5d3f0021def383721c",
    },
    ("subcheck", "c_z4", "--sub", "c_h"): {
        "text":
            "63d16aede387d4bc770aac40cea202bac3c96600f68120048bb12422ede37aff",
        "json":
            "8f7b0fd3120305f0d4fcee13f73a5574321cc1a37dee22360cf8709de4015a23",
    },
    ("validate", "c_d6"): {
        "text":
            "e6cb8992d781008ecbb380877a6ded08de152511be058789e271757fcf9a4f75",
        "json":
            "8a8bfe9c419d435c4e2abf7bc76ef0c70c29914e084842ec9babc1c4f780f275",
    },
    ("validate", "c_s3"): {
        "text":
            "ea384015e836d6d49444b258791aaf889589b16fa8961629959c8b4f8c88a712",
        "json":
            "8dcf12304991ace9ef531154d0612fd94228e7fe1cea19a494a5fb7ed5c65b19",
    },
    ("validate", "c_z2"): {
        "text":
            "4cbdfe7146379297a6ce659c24643a7b4eef5c2e461aef9d2c7aaff9d7b862ac",
        "json":
            "9d24e0fd599f9341b11f5ad60873c26ecfc7f0fdfd54f35585c1397c655d1f1c",
    },
    ("validate", "c_z4"): {
        "text":
            "2e9b76e5306e7aeecf1fa56c50ba8bbe6b3df3136f2f13cdbb12b9daf708ffc5",
        "json":
            "d06d259a1082aeee0a2e50efb1343cbc60f814b31bb79c1c7fb5d71fd4a7d424",
    },
    ("validate", "group_d6"): {
        "text":
            "b5d25c3a478e35aa778e01d2f60e402905623864c9799200b749e806006f7259",
        "json":
            "1a38d1c42b72e2d4cdf8f2c937d754246a40e9dc2d41e53293616eb6e5602449",
    },
    ("validate", "group_s3"): {
        "text":
            "2a01a917c5ed870ed3ad5a1a0dc16da8bd8a1be09af13fc9f5e29f651cc1381d",
        "json":
            "33bef11b2230371c5b34711f9042d80af45395e8cdbeb24a7dbf6bdc7ad71829",
    },
    ("validate", "semilattice2"): {
        "text":
            "357827af34aca2fbc34d20ace492ea105e2f237af23cd4fc0015abbfb2fa766e",
        "json":
            "6d678e93e52e2e7e595ac4a1634645cedd8bf427d04139f9d4b403ae6f0b7c49",
    },
    ("validate", "sweedler_h4"): {
        "text":
            "0e8c2bdecaf98fe4da83609b8ab298ec2414f850113ba1d1ea2e5535696d071d",
        "json":
            "0087ae4293eeab3bf5d46e3f18092e95b689a2ecd094ce3f46dc8871586ff917",
    },
}


def dihedral_group(n):
    """D_n of order 2n: element (a, b) is r^a t^b, with t r t = r^-1."""
    elems = [(a, b) for b in range(2) for a in range(n)]
    index = {e: k for k, e in enumerate(elems)}

    def compose(x, y):
        (a1, b1), (a2, b2) = elems[x], elems[y]
        a = (a1 + (a2 if b1 == 0 else -a2)) % n
        return index[(a, (b1 + b2) % 2)]

    def inverse(x):
        a, b = elems[x]
        return index[((-a) % n if b == 0 else a, b)]

    labels = ["r%dt%d" % e for e in elems]
    return labels, list(range(len(elems))), compose, inverse


def d6_definition(stem):
    group = dihedral_group(6)
    if stem == "c_d6":
        return function_algebra(
            "c_d6", "functions on the dihedral group of order 12", *group)
    return group_algebra(
        "group_d6", "group algebra of the dihedral group of order 12", *group)


def write_input(stem, directory):
    if stem in ("c_d6", "group_d6"):
        save_definition(d6_definition(stem), str(directory / (stem + ".qg")))
    else:
        shutil.copyfile(packaged_fixture_path(stem),
                        directory / (stem + ".qg"))


def report_digest(command, stem, extra, fmt, capsys):
    main([command, stem + ".qg", *extra, "--format", fmt])
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED), ids=" ".join)
def test_report_is_pinned(key, tmp_path, monkeypatch, capsys):
    command, stem, extra = key[0], key[1], key[2:]
    write_input(stem, tmp_path)
    monkeypatch.chdir(tmp_path)
    got = {fmt: report_digest(command, stem, extra, fmt, capsys)
           for fmt in FORMATS}
    assert got == PINNED[key]


def test_declared_antipode_failure_follows_bijective_tmaps(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    # c_z4 declaring the identity as its antipode: the four canonical maps
    # are bijective, and only the declared table disagrees.  The digests
    # were taken on the program that built and ranked the T-maps before it
    # derived the counit and antipode.
    defn = packaged("c_z4")
    defn.name = "c_z4_wrong_antipode"
    defn.antipode = [[SC_ONE if r == c else SC_ZERO for c in range(defn.dim)]
                     for r in range(defn.dim)]
    save_definition(defn, str(tmp_path / "wrong_antipode.qg"))
    monkeypatch.chdir(tmp_path)
    got = {fmt: report_digest("validate", "wrong_antipode", (), fmt, capsys)
           for fmt in FORMATS}
    assert got == {
        "text":
            "5cef3b87e1f7280aaeaf84dd27d59e42aff209b0e430cd3b72d1de2bb7014d4c",
        "json":
            "68ce6fafcd8d2b02328b8bde6f7f34d7b5496adb528d58d0a406e32bf5e5a0c1",
    }
    main(["validate", "wrong_antipode.qg"])
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()
             if line.startswith("  [")]
    assert lines[2:] == [
        "[PASS] canonical-map %s: rank 16 of 16" % formula
        for formula in TMAP_FORMULAS] + [
        "[FAIL] declared-antipode: declared-antipode: declared antipode "
        "disagrees with the solved one"]


# a wrong declared unit or counit of c_z4: the candidate fails its laws,
# the solve runs, and the declared table disagrees with the solution.  The
# digests were taken on the program that solved for the unit, counit and
# antipode whatever the definition declared.
WRONG_DECLARED = {
    "unit": {
        "text":
            "dc3a107ed34fff188e4e8ca9fcc7f10a01533e9ff924b474bf95581d5e955c50",
        "json":
            "9786cdd89c41925cb2bae7cd89af70d6c4435152334aed1d5c338eac7fa1e32b",
    },
    "counit": {
        "text":
            "684895282ce54e7989839954be912229e0150343a2fb1abd4ec88829526c42d8",
        "json":
            "47e575f8f58f169af872e78298a4de20df8d3c3be8a7186342469cb15f84edf1",
    },
}


@pytest.mark.parametrize("table", sorted(WRONG_DECLARED))
def test_wrong_declared_table_is_pinned(table, tmp_path, monkeypatch,
                                        capsys):
    defn = packaged("c_z4")
    defn.name = "c_z4_wrong_" + table
    # the unit is the sum of the four point masses, the counit the
    # evaluation at the identity point e0
    wrong = [SC_ONE] + [SC_ZERO] * (defn.dim - 1)
    if table == "counit":
        wrong = wrong[-1:] + wrong[:-1]
    setattr(defn, table, wrong)
    save_definition(defn, str(tmp_path / ("wrong_%s.qg" % table)))
    monkeypatch.chdir(tmp_path)
    got = {fmt: report_digest("validate", "wrong_" + table, (), fmt, capsys)
           for fmt in FORMATS}
    assert got == WRONG_DECLARED[table]


@pytest.mark.parametrize("module, function, check, test", [
    (finalg, "build_algebra", "unit is None or any(",
     lambda **kw: test_wrong_declared_table_is_pinned("unit", **kw)),
    (mhopf, "derive_counit_antipode",
     "eps is None or not holds(unit_times(eps), ident)",
     lambda **kw: test_wrong_declared_table_is_pinned("counit", **kw)),
    (mhopf, "derive_counit_antipode",
     "antipode is None or not holds(antipode, unit_times(eps))",
     test_declared_antipode_failure_follows_bijective_tmaps),
], ids=["unit", "counit", "antipode"])
def test_skipping_a_candidate_law_check_is_caught(module, function, check,
                                                  test, tmp_path,
                                                  monkeypatch, capsys):
    # the mutant takes a declared table as the solution unchecked, so the
    # wrong declaration is accepted and the pinned report changes
    source = textwrap.dedent(inspect.getsource(getattr(module, function)))
    assert source.count(check) == 1
    scope = {}
    exec(source.replace(check, check.replace(" or ", " or False and ")),
         vars(module), scope)
    # the definition's algebra is built through assemble's name for it
    monkeypatch.setattr(assemble if module is finalg else module, function,
                        scope[function])
    with pytest.raises(AssertionError):
        test(tmp_path=tmp_path, monkeypatch=monkeypatch, capsys=capsys)
