"""The eigen stage of analyze finds no eigenvalue by a characteristic
polynomial: over the benchmark's structure inputs and Taft's T_4, every run
keeps its exit code and report bytes with charpoly and rational_roots made
to fail.

T_4 at omega = i (Taft, Proc. Natl. Acad. Sci. USA 68, 1971) is built from
its defining formulas, as test_fixtures rebuilds the group examples: the
basis g^a x^b with 0 <= a, b < 4, g^4 = 1, x^4 = 0, xg = i gx, D(g) = g (x) g,
D(x) = x (x) 1 + g (x) x, eps(g) = 1, eps(x) = 0, S(g) = g^3 and
S(x) = -g^3 x.  Its modular maps have the eigenvalues +-i, which no
packaged example has.
"""

import hashlib
import json
from pathlib import Path

import pytest

from hopf_forge import exactla
from hopf_forge.cli import main
from hopf_forge.definition import StructureDefinition, save_definition
from hopf_forge.scalars import SC_I, SC_ONE, SC_ZERO

from test_bench_workloads import WORKLOADS

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
OMEGA = (SC_ONE, SC_I, -SC_ONE, -SC_I)
ORDER = 4
BASIS = [(a, b) for a in range(ORDER) for b in range(ORDER)]
INDEX = {e: k for k, e in enumerate(BASIS)}

# sha256 of the T_4 reports, taken on the program that split the modular
# maps by characteristic polynomials
T4_PINNED = {
    ("validate", "text"):
        "7872aa1d138bf2014e566dc08bcd98d7b5398df9f516b41796c514863bf6602c",
    ("validate", "json"):
        "d9ca724a1096476a40e1b49034e43e1356358ee7a68e69a111f75c165b04008f",
    ("analyze", "text"):
        "55ef76a99c7ef928bb816915977adb8b4be0ea593b59728620220b9f7a763406",
    ("analyze", "json"):
        "8b67830641568e05ed4a315e6faf61b9fa8585ea9e6a34784401a7d7cccca65b",
}


def _add(out, key, c):
    c = out.get(key, SC_ZERO) + c
    if c.is_zero:
        out.pop(key, None)
    else:
        out[key] = c


def t4_product(u, v):
    """u v for {basis index: c} elements: g^a x^b g^c x^d =
    omega^(bc) g^(a+c) x^(b+d), zero once b + d reaches 4."""
    out = {}
    for i, c in u.items():
        a, b = BASIS[i]
        for j, e in v.items():
            a2, b2 = BASIS[j]
            if b + b2 < ORDER:
                _add(out, INDEX[((a + a2) % ORDER, b + b2)],
                     OMEGA[b * a2 % ORDER] * c * e)
    return out


def t4_tensor_product(u, v):
    """u v in the tensor square, for {(left, right): c} elements."""
    out = {}
    for (i, j), c in u.items():
        for (k, m), e in v.items():
            for p, f in t4_product({i: c}, {k: e}).items():
                for q, h in t4_product({j: SC_ONE}, {m: SC_ONE}).items():
                    _add(out, (p, q), f * h)
    return out


def taft_t4():
    n = len(BASIS)
    one, g, x, g3 = (INDEX[e] for e in ((0, 0), (1, 0), (0, 1), (3, 0)))
    coproduct, antipode = [], []
    for a, b in BASIS:
        # D and S of g^a x^b = g^a x^b as a product: D is multiplicative
        # and S anti-multiplicative
        d, s = {(one, one): SC_ONE}, {one: SC_ONE}
        for _ in range(a):
            d = t4_tensor_product(d, {(g, g): SC_ONE})
        for _ in range(b):
            d = t4_tensor_product(d, {(x, one): SC_ONE, (g, x): SC_ONE})
            s = t4_product(s, t4_product({g3: -SC_ONE}, {x: SC_ONE}))
        for _ in range(a):
            s = t4_product(s, {g3: SC_ONE})
        coproduct.append(d)
        antipode.append(s)
    return StructureDefinition(
        name="taft_t4", description="Taft algebra T_4 at omega = i",
        labels=["g%dx%d" % e for e in BASIS],
        mul={(i, j): t4_product({i: SC_ONE}, {j: SC_ONE})
             for i in range(n) for j in range(n)},
        coproduct=coproduct,
        unit=[SC_ONE if k == one else SC_ZERO for k in range(n)],
        counit=[SC_ONE if b == 0 else SC_ZERO for _a, b in BASIS],
        antipode=[[antipode[col].get(row, SC_ZERO) for col in range(n)]
                  for row in range(n)])


@pytest.fixture
def no_charpoly(monkeypatch):
    """Make charpoly and rational_roots fail, and record every call."""
    calls = []

    def spy(name):
        def refuse(*args):
            calls.append(name)
            raise AssertionError("%s called" % name)
        return refuse

    for name in ("charpoly", "rational_roots"):
        monkeypatch.setattr(exactla, name, spy(name))
    return calls


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_taft_t4_splits_over_plus_minus_i(no_charpoly, tmp_path,
                                          monkeypatch, capsys):
    save_definition(taft_t4(), str(tmp_path / "taft_t4.qg"))
    monkeypatch.chdir(tmp_path)
    got = {}
    for command in ("validate", "analyze"):
        for fmt in ("text", "json"):
            code, out = run([command, "taft_t4.qg", "--format", fmt], capsys)
            assert code == 0, (command, fmt)
            got[command, fmt] = hashlib.sha256(out.encode()).hexdigest()
    assert got == T4_PINNED
    _code, out = run(["analyze", "taft_t4.qg"], capsys)
    rows = out.split("  eigentable:\n")[1].split("  map-orbit")[0]
    values = {}
    for row in rows.splitlines():
        for pair in row.split(" : ")[1].split(", "):
            name, value = pair.split(" = ")
            values.setdefault(name, set()).add(value)
    assert values == dict.fromkeys(
        ("sigma", "sigma_prime", "antipode-squared"), {"1", "-1", "i", "-i"})
    assert ("modular-square-root: delta-half: eigenvalue -1 of the modular "
            "element has no positive square root") in out
    assert no_charpoly == []


def structure_builds():
    """(workload, menu index) for the structure-ladder case list and for
    each s-deformed menu index, as the golden reports pin them."""
    return [("structure-ladder", None)] + [
        ("s-deformed", index) for index in range(WORKLOADS.DEFORM_VARIANTS)]


@pytest.mark.parametrize("workload, index", structure_builds(),
                         ids=lambda v: str(v))
def test_structure_cases_keep_their_bytes(no_charpoly, workload, index,
                                          tmp_path, monkeypatch, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["reports"]
    picks = None if index is None else {
        (name, command): index for name in WORKLOADS.DEFORMED_EXAMPLES
        for command in WORKLOADS.COMMANDS}
    # the golden reports name their inputs by this relative path
    monkeypatch.chdir(tmp_path)
    cases = WORKLOADS.build_workload(
        workload, 0, str(Path("perfbench", "_work", "inputs")), picks)
    for case in cases:
        for fmt in ("text", "json"):
            code, out = run(case["argv"] + ["--format", fmt], capsys)
            assert code == case["expect"], (case["id"], fmt)
            assert hashlib.sha256(out.encode()).hexdigest() == \
                golden[case["id"]][fmt], (case["id"], fmt)
    assert no_charpoly == []
