"""Structure checks proved from a generating set.

finalg.generating_set finds basis indices whose words span the algebra,
and each pair or triple check runs on them first
(finalg.proved_on_generators).  The differential property compares every
verdict and failure text with the full loops of tests/oracles.py, on small
group and function algebras in a seeded basis with one planted defect.
"""

import inspect
import random
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hopf_forge import finalg, mhopf
from hopf_forge.assemble import build_qg
from hopf_forge.duality import verify_qg_morphism
from hopf_forge.errors import StructureError
from hopf_forge.exactla import invert, sparse_row
from hopf_forge.finalg import (FinAlgebra, LinMap, build_algebra,
                               generating_set, transform_basis)
from hopf_forge.fixtures import function_algebra, group_algebra
from hopf_forge.mhopf import (Coproduct, attach_coproduct, check_star_compat,
                              derive_counit_antipode)
from hopf_forge.scalars import RANK_POINTS, SC_ONE, SC_ZERO, Scalar

from packaged import packaged
from test_bench_workloads import WORKLOADS


def group_d16():
    return {d.name: d for d in WORKLOADS.dihedral_definitions(16)}["group_d16"]


class TestGeneratingSet:
    def test_group_s3(self):
        assert build_qg(packaged("group_s3")).algebra.generators == [1, 3]

    def test_group_d16_has_two(self):
        assert len(build_qg(group_d16()).algebra.generators) == 2

    def test_function_algebra_needs_every_idempotent(self):
        assert build_qg(packaged("c_s3")).algebra.generators == list(
            range(6))

    def test_a_point_without_every_image_is_passed_over(self):
        # Z/3 with e1 e1 = c e2: e1 generates when c has an image mod p
        s = Scalar.s_power(1)
        poles = [s - Scalar.from_int(s0) for s0 in RANK_POINTS]
        mul = {(i, j): {(i + j) % 3: SC_ONE} for i in range(3)
               for j in range(3)}
        mul[1, 1] = {2: (poles[0] * poles[1]).inverse()}
        alg = FinAlgebra(["u0", "u1", "u2"], mul, None)
        assert generating_set(alg) == [1]
        mul[1, 1] = {2: (poles[0] * poles[1] * poles[2]).inverse()}
        assert generating_set(alg) == [0, 1, 2]

    def test_light_test_runs_two_middle_slots(self, monkeypatch):
        # two products per triple (i, g, k), g over the two generators,
        # counted while _check_associativity runs
        real_multiply = finalg.FinAlgebra.multiply
        real_check = finalg._check_associativity
        calls, inside = [], []

        def spy(alg, x, y):
            if inside:
                calls.append(1)
            return real_multiply(alg, x, y)

        def check(alg):
            inside.append(1)
            try:
                real_check(alg)
            finally:
                inside.pop()
        defn = group_d16()
        monkeypatch.setattr(finalg.FinAlgebra, "multiply", spy)
        monkeypatch.setattr(finalg, "_check_associativity", check)
        build_qg(defn)
        assert len(calls) == 2 * (2 * 32 ** 2)

    def test_stopping_before_the_span_is_certified_is_caught(self,
                                                             monkeypatch):
        # the mutant returns after the first generator's closure, which in
        # group_s3 is the three rotations only
        source = textwrap.dedent(inspect.getsource(finalg.generating_set))
        check = "if len(pivots) == n:"
        assert source.count(check) == 1
        scope = {}
        exec(source.replace(check, "if gens:"), vars(finalg), scope)
        monkeypatch.setattr(finalg, "generating_set", scope["generating_set"])
        with pytest.raises(AssertionError):
            self.test_group_s3()


class TestUnit:
    def right_projections(self, n):
        # e_i e_j = e_j: every u with coefficient sum 1 is a left unit, and
        # e_i u = u, so no u is a right unit
        return build_algebra(["p%d" % i for i in range(n)], {
            (i, j): {j: SC_ONE} for i in range(n) for j in range(n)},
            name="proj")

    def test_a_left_unit_that_is_not_a_right_unit(self):
        with pytest.raises(StructureError) as info:
            self.right_projections(3)
        assert str(info.value) == "algebra 'proj' has no unit"

    def test_solving_only_the_left_law_is_caught(self, monkeypatch):
        # the mutant keeps the rows of u e_i = e_i only, so it takes a left
        # unit of the right projections for the unit and raises nothing
        source = textwrap.dedent(inspect.getsource(finalg._solve_unit))
        edits = [("for side in (0, 1)}", "for side in (1,)}"),
                 ("laws[i, k, 0][j] = c", "pass")]
        for old, new in edits:
            assert source.count(old) == 1
            source = source.replace(old, new)
        scope = {}
        exec(source, vars(finalg), scope)
        monkeypatch.setattr(finalg, "_solve_unit", scope["_solve_unit"])
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            self.test_a_left_unit_that_is_not_a_right_unit()


# -- the differential property ----------------------------------------------

def _cyclic(n):
    return (lambda a, b: (a + b) % n), (lambda a: (-a) % n)


GROUPS = {
    "z2": (2, *_cyclic(2)), "z3": (3, *_cyclic(3)), "z4": (4, *_cyclic(4)),
    "z5": (5, *_cyclic(5)), "z2z2": (4, (lambda a, b: a ^ b), (lambda a: a)),
}
SOURCES = [(g, kind) for g in sorted(GROUPS) for kind in ("group", "function")
           ] + [("sweedler_h4", "fixture")]
# additive defects change one entry of the seeded basis by 1; star-swap
# makes the star e_g -> e_sigma(g) and twist the coproduct (sigma (x) i)D,
# for a random permutation sigma of the original basis (an involution for
# the star)
DEFECTS = ("none", "mul", "coproduct", "star", "star-swap", "twist",
           "morphism")
ENTRIES = [Scalar.from_int(k) for k in (-1, 1, 2)] + [
    Scalar.from_fraction(Fraction(1, 2))]


def source_definition(source):
    group, kind = source
    if kind == "fixture":
        return packaged(group)
    n, compose, inverse = GROUPS[group]
    build = group_algebra if kind == "group" else function_algebra
    return build(group, "", ["g%d" % k for k in range(n)], list(range(n)),
                 compose, inverse)


def unit_triangular(rng, n, below):
    return [[SC_ONE if r == c else rng.choice(ENTRIES)
             if (r > c) == below and r != c and rng.random() < 0.4
             else SC_ZERO for c in range(n)] for r in range(n)]


def planted_structure(source, seed, defect, where):
    """(labels, mul, coproduct, star) of source in the basis f_c = sum_t
    P[t][c] e_t, P a product of unit triangular matrices drawn from seed,
    with the defect planted at a place drawn from where; and the map that
    the morphism check is run on."""
    d = source_definition(source)
    n = d.dim
    rng = random.Random(where)
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    order = list(range(n))
    rng.shuffle(order)
    sigma = list(order)
    star, coproduct = d.star, d.coproduct
    if defect == "star-swap":
        sigma = list(range(n))
        for a, b in zip(order[::2], order[1::2]):
            sigma[a], sigma[b] = b, a
        star = [[SC_ONE if sigma[c] == r else SC_ZERO for c in range(n)]
                for r in range(n)]
    elif defect == "twist":
        coproduct = [{(sigma[a], b): c for (a, b), c in col.items()}
                     for col in coproduct]

    seeded = random.Random(seed)
    lower = unit_triangular(seeded, n, True)
    upper = unit_triangular(seeded, n, False)
    p = [[sum((lower[r][t] * upper[t][c] for t in range(n)), SC_ZERO)
          for c in range(n)] for r in range(n)]
    pinv = invert(p)
    alg = transform_basis(
        FinAlgebra(d.labels, d.mul, sparse_row(d.unit),
                   LinMap(star, conjugate_linear=True)),
        p, labels=["f%d" % c for c in range(n)])
    mul, star = dict(alg.mul), alg.star
    cols = []
    for c in range(n):
        col = {}
        for t in range(n):
            for (left, right), x in coproduct[t].items():
                for a in range(n):
                    for b in range(n):
                        w = p[t][c] * x * pinv[a][left] * pinv[b][right]
                        col[a, b] = col.get((a, b), SC_ZERO) + w
        cols.append({key: v for key, v in col.items() if not v.is_zero})

    lin = LinMap.identity(n)
    if defect == "mul":
        ent = dict(mul.get((i, j), {}))
        ent[k] = ent.get(k, SC_ZERO) + SC_ONE
        mul[i, j] = ent
    elif defect == "coproduct":
        cols[k][i, j] = cols[k].get((i, j), SC_ZERO) + SC_ONE
    elif defect in ("star", "morphism"):
        rows = (star if defect == "star" else lin).matrix
        rows[i][j] = rows[i][j] + SC_ONE
        if defect == "star":
            star = LinMap(rows, conjugate_linear=True)
        else:
            lin = LinMap(rows)
    return (alg.labels, mul, cols, star), lin


def verdicts(structure, lin, full):
    """The failure text of the first structure check that fails, then the
    coproduct-star and morphism-multiplicative items; by the library or,
    when full, by the full loops of tests/oracles.py."""
    labels, mul, coproduct, star = structure
    try:
        if full:
            alg = oracles.build_algebra_full(labels, mul, star, "a")
            qg = oracles.attach_coproduct_full(alg, Coproduct(coproduct))
            oracles.check_counit_full(qg)
        else:
            alg = build_algebra(labels, mul, star, "a")
            qg = attach_coproduct(alg, Coproduct(coproduct))
        derive_counit_antipode(qg)
    except StructureError as exc:
        return str(exc)
    if full:
        bad = oracles.star_compat_failures(qg)
        star_text = "fails at " + ", ".join(bad) if bad else None
        bad = oracles.morphism_failures(qg, qg, lin)
        morphism_text = "fails at " + str(bad) if bad else None
        return star_text, morphism_text
    star_item = check_star_compat(qg).items[1]
    morphism_item = verify_qg_morphism(qg, qg, lin).items[0]
    assert (star_item.name, morphism_item.name) == (
        "coproduct-star-compatibility", "morphism-multiplicative")
    return tuple(None if item.ok else item.detail
                 for item in (star_item, morphism_item))


@settings(max_examples=50)
@given(st.sampled_from(SOURCES), st.integers(0, 2 ** 16),
       st.sampled_from(DEFECTS), st.integers(0, 2 ** 16))
def test_every_verdict_matches_the_full_loops(source, seed, defect, where):
    structure, lin = planted_structure(source, seed, defect, where)
    assert verdicts(structure, lin, False) == verdicts(structure, lin, True)


# -- the transposed table ----------------------------------------------------

def magma_coproduct():
    """The functions on the magma {0, 1, 2} with x*y = 0 but 1*2 = 1, and
    the pullback D(e_k) = sum over x*y = k of e_x (x) e_y: an algebra map,
    coassociative exactly when * is associative, which it is not: (1*2)*2
    = 1 and 1*(2*2) = 0.  Its transposed table is the magma algebra e^x e^y
    = e^(x*y), generated by e^1 and e^2.  The words of e^1 alone span e^0
    and e^1, which lie in the middle nucleus, so Light's test over e^1
    alone passes, and so does D' multiplicative, as D'(e^k) = e^k (x) e^k."""
    alg = build_algebra(["e0", "e1", "e2"],
                        {(i, i): {i: SC_ONE} for i in range(3)})
    cols = [{}, {}, {}]
    for x in range(3):
        for y in range(3):
            cols[int((x, y) == (1, 2))][x, y] = SC_ONE
    return alg, Coproduct(cols)


class TestTransposedTable:
    """attach_coproduct proves D on the transposed table A' when that side
    is cheaper (mhopf._proved_transposed)."""

    def spy_sides(self, monkeypatch):
        """The side of each attach_coproduct call, in order: A', when Light's
        test runs on the transposed table, else A."""
        taken = []
        real_proved = mhopf._proved_transposed
        real_check = mhopf._check_associativity

        def proved(alg, cols):
            taken.append("A")
            return real_proved(alg, cols)

        def check(alg):
            taken[-1] = "A'"
            return real_check(alg)
        monkeypatch.setattr(mhopf, "_proved_transposed", proved)
        monkeypatch.setattr(mhopf, "_check_associativity", check)
        return taken

    def test_a_non_associative_magma_fails_coassociativity(self,
                                                           monkeypatch):
        sides = self.spy_sides(monkeypatch)
        alg, coproduct = magma_coproduct()
        with pytest.raises(StructureError) as info:
            attach_coproduct(alg, coproduct)
        assert str(info.value) == "coproduct is not coassociative at e0"
        assert sides == ["A'"]

    def test_skipping_the_span_certificate_of_g_prime_is_caught(
            self, monkeypatch):
        # the mutant G' is the closure of the first generator, e^1
        source = textwrap.dedent(inspect.getsource(finalg.generating_set))
        scope = {}
        exec(source.replace("if len(pivots) == n:", "if gens:"),
             vars(finalg), scope)
        monkeypatch.setattr(mhopf, "generating_set", scope["generating_set"])
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            self.test_a_non_associative_magma_fails_coassociativity(
                monkeypatch)

    def test_checking_d_prime_before_associativity_is_caught(
            self, monkeypatch):
        # the mutant decides on D' over G' with A' not proved associative
        source = textwrap.dedent(inspect.getsource(mhopf._proved_transposed))
        check = "        _check_associativity(dual)\n"
        assert source.count(check) == 1
        scope = {}
        exec(source.replace(check, "        pass\n"), vars(mhopf), scope)
        monkeypatch.setattr(mhopf, "_proved_transposed",
                            scope["_proved_transposed"])
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            self.test_a_non_associative_magma_fails_coassociativity(
                monkeypatch)

    @pytest.mark.parametrize("source, seed, defect, side", [
        (("z2", "group"), 0, "coproduct", "A"),
        (("z2", "group"), 1, "coproduct", "A'"),
        (("z3", "group"), 0, "twist", "A"),
        (("z3", "group"), 1, "twist", "A'"),
    ])
    def test_planted_coproduct_defects_reach_each_side(
            self, monkeypatch, source, seed, defect, side):
        # the draws of test_every_verdict_matches_the_full_loops take both
        # sides; each of these fails attach_coproduct
        sides = self.spy_sides(monkeypatch)
        structure, lin = planted_structure(source, seed, defect, 0)
        found = verdicts(structure, lin, False)
        assert sides == [side]
        assert found.startswith("coproduct is not")
        assert found == verdicts(structure, lin, True)
