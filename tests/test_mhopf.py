"""Coproducts, canonical maps, counit/antipode derivation, sub-objects."""

import copy
import inspect
import itertools
import sys
import textwrap

import pytest

from hopf_forge import exactla, finalg, mhopf
from hopf_forge.assemble import algebra_from_definition, build_qg
from hopf_forge.cli import main
from hopf_forge.errors import CheckFailure, StructureError
from hopf_forge.exactla import invert, mat_copy, rref, sparse_row
from hopf_forge.duality import build_dual
from hopf_forge.haar_modular import solve_left_haar
from hopf_forge.mhopf import (TMAP_FORMULAS, Coproduct, _tmap_columns,
                              attach_coproduct, check_grouplike_projection,
                              check_star_compat, check_sub_mha, check_tmaps,
                              derive_counit_antipode, tensor_vec)
from hopf_forge.finalg import (LinMap, TensorMap, apply_functional,
                               build_algebra, tensor_algebra, transform_basis)
from hopf_forge.scalars import RANK_POINTS, SC_ONE, SC_ZERO, Scalar

from oracles import basis, coproduct_matrix, matrix_coproduct
from packaged import packaged
from test_bench_workloads import WORKLOADS
from test_finite_order import taft_t4
from test_report_bytes import dihedral_sub_rows

# the packaged structure examples whose counit and antipode verify
HOPF_EXAMPLES = ("c_s3", "c_z2", "c_z4", "group_s3", "sweedler_h4")


def hopf_qg(name):
    qg = build_qg(packaged(name))
    return derive_counit_antipode(qg)


class TestAttachCoproduct:
    def test_rejects_non_multiplicative(self):
        defn = packaged("c_z2")
        qg = build_qg(defn)
        n = qg.dim
        broken = coproduct_matrix(qg.coproduct)
        broken[0][0] = broken[0][0] + SC_ONE
        with pytest.raises(StructureError):
            attach_coproduct(qg.algebra, matrix_coproduct(broken))

    def test_rejects_non_coassociative(self):
        # On two orthogonal idempotents, e_k |-> e_k (x) e_{swap(k)} is an
        # algebra map, but iterating it puts the swapped index in different
        # tensor legs, so coassociativity fails.
        alg = build_algebra(
            ["e0", "e1"], {(0, 0): {0: SC_ONE}, (1, 1): {1: SC_ONE}})
        cols = [tensor_vec(basis(0), basis(1)), tensor_vec(basis(1), basis(0))]
        with pytest.raises(StructureError):
            attach_coproduct(alg, Coproduct(cols))


class TestCanonicalMaps:
    def test_full_rank_on_group_fixture(self):
        qg = build_qg(packaged("c_z2"))
        report = check_tmaps(qg)
        assert [v.formula for v in report.maps] == list(TMAP_FORMULAS)
        assert all(v.rank == 4 and v.size == 4 for v in report.maps)
        assert report.all_bijective
        assert report.coproduct_unital

    def test_semilattice_fails_at_rank_2_of_4(self):
        qg = build_qg(packaged("semilattice2"))
        report = check_tmaps(qg)
        assert not report.all_bijective
        first = report.maps[0]
        assert (first.formula, first.rank, first.size) == \
            (TMAP_FORMULAS[0], 2, 4)
        assert not report.coproduct_unital

    def test_a_verified_derivation_does_not_recompute_the_unit_image(
            self, monkeypatch):
        # D(1) = 1(x)1 is the theorem of derive_counit_antipode's docstring
        # once it verifies; the oracle in test_antipode_is_anti_multiplicative
        # checks it on every structure the derivation reaches
        def tensor_vec(x, y):
            raise AssertionError("1(x)1 formed after a verified derivation")
        monkeypatch.setattr(mhopf, "tensor_vec", tensor_vec)
        report = check_tmaps(build_qg(packaged("c_z2")))
        assert report.error is None
        assert report.coproduct_unital


S = Scalar.s_power(1)
S0 = Scalar.from_int(RANK_POINTS[0])


def pole_deformed(name):
    """The fixture in the basis f_j = sum_t P[t][j] e_t, by transform_basis,
    with P = 1 + s E_01 + (s - s0 - 1) E_11 for the first rank point s0, so
    that P^-1 has a pole at s0.  The coproduct (P^-1 (x) P^-1) D P has it
    too."""
    defn = packaged(name)
    n = defn.dim
    p = [[SC_ONE if r == c else SC_ZERO for c in range(n)] for r in range(n)]
    p[0][1] = S
    p[1][1] = S - S0
    pinv = invert(p)
    cols = build_qg(defn).coproduct.columns
    images = []
    for c in range(n):
        image = {}
        for src in range(n):
            for (left, right), x in cols[src].items():
                w = p[src][c] * x
                for a in range(n):
                    for b in range(n):
                        image[(a, b)] = (image.get((a, b), SC_ZERO)
                                         + w * pinv[a][left] * pinv[b][right])
        images.append(image)
    alg = transform_basis(algebra_from_definition(defn), p)
    return attach_coproduct(alg, Coproduct(images))


def exact_ranks(qg):
    return [len(rref(_tmap_columns(qg, which)))
            for which in range(len(TMAP_FORMULAS))]


class TestModularTMaps:
    """check_tmaps builds and ranks the T-maps exactly only when the counit
    and antipode do not verify."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """Records the maps built exactly and the length of every row taken
        mod p by exactla.rank."""
        seen = {"exact": [], "rows": []}
        images, columns = exactla.terms_mod_p, mhopf._tmap_columns

        def images_spy(terms, s0):
            terms = list(terms)
            seen["rows"].append(len(terms))
            return images(terms, s0)

        def columns_spy(qg, which):
            seen["exact"].append(which)
            return columns(qg, which)
        monkeypatch.setattr(exactla, "terms_mod_p", images_spy)
        monkeypatch.setattr(mhopf, "_tmap_columns", columns_spy)
        return seen

    @pytest.mark.parametrize("name", HOPF_EXAMPLES + ("pole-deformed",))
    def test_a_verified_antipode_builds_no_tmap(self, name, spied):
        qg = (pole_deformed("sweedler_h4") if name == "pole-deformed"
              else build_qg(packaged(name)))
        n = qg.dim
        report = check_tmaps(qg)
        assert report.error is None
        assert [v.rank for v in report.maps] == [n * n] * 4
        assert qg.antipode is not None and qg.counit is not None
        # no rank is taken at all: S is bijective by theorem
        assert spied["exact"] == []
        assert spied["rows"] == []

    def test_theorem_ranks_are_the_exact_ranks(self):
        for qg in (pole_deformed("sweedler_h4"), build_qg(packaged("c_z4"))):
            assert [v.rank for v in check_tmaps(qg).maps] \
                == exact_ranks(qg) == [qg.dim ** 2] * 4

    def test_semilattice_is_ranked_exactly(self, spied):
        report = check_tmaps(build_qg(packaged("semilattice2")))
        assert spied["exact"] == [0, 1, 2, 3]
        assert isinstance(report.error, StructureError)

    def test_planted_drop_falls_back_to_the_exact_rank(self, spied):
        # e is the unit and x^2 = 0; D(e) = basis(x)e and D(x) = (s - s0) x(x)x
        # is multiplicative and coassociative.  Each T-map has rank 3 over
        # Q(i)(s) but rank 2 at s0, where D(x) vanishes.
        alg = build_algebra(["e", "x"], {(0, 0): {0: SC_ONE},
                                         (0, 1): {1: SC_ONE},
                                         (1, 0): {1: SC_ONE}})
        qg = attach_coproduct(alg, Coproduct([{(0, 0): SC_ONE},
                                              {(1, 1): S - S0}]))
        report = check_tmaps(qg)
        assert spied["exact"] == [0, 1, 2, 3]
        assert [v.rank for v in report.maps] == exact_ranks(qg) == [3] * 4
        assert not report.all_bijective

    def test_claiming_bijectivity_after_a_failure_is_caught(self,
                                                            monkeypatch):
        # the mutant reports every map bijective whatever the antipode does
        source = textwrap.dedent(inspect.getsource(mhopf.check_tmaps))
        mutant = source.replace("_rank(_tmap_columns(qg, which), n2)", "n2")
        assert mutant != source
        scope = {}
        exec(mutant, vars(mhopf), scope)
        monkeypatch.setattr(sys.modules[__name__], "check_tmaps",
                            scope["check_tmaps"])
        with pytest.raises(AssertionError):
            TestCanonicalMaps().test_semilattice_fails_at_rank_2_of_4()


# every structure whose counit and antipode verify in the packaged examples
# and the benchmark's golden inputs (the dihedral D6 pair and each
# s-deformed variant, as "name~index"), then the sub-objects induced on the
# small spans of four of them
DERIVED_CASES = (HOPF_EXAMPLES + ("c_d6", "group_d6")
                 + tuple("%s~%d" % (name, index)
                         for name in WORKLOADS.DEFORMED_EXAMPLES
                         for index in range(WORKLOADS.DEFORM_VARIANTS))
                 + tuple("sub:" + name for name in
                         ("c_s3", "c_z4", "group_s3", "sweedler_h4")))


def derived_structures(case):
    """The quantum groups a DERIVED_CASES entry reaches, each with its
    counit and antipode derived: the structure and its dual, or every
    sub-object induced on a small span or a declared sub basis."""
    if case.startswith("sub:"):
        name = case[len("sub:"):]
        reached = []
        for star in (True, False):
            qg = packaged_qg(name, star)
            spans = small_spans(qg.dim) + [
                [sparse_row(r) for r in rows]
                for rows in packaged(name).sub_bases.values()]
            for rows in spans:
                try:
                    result = check_sub_mha(qg, rows)
                except StructureError:
                    continue
                if result.induced is not None:
                    reached.append(result.induced)
        return reached
    if "~" in case:
        name, index = case.split("~")
        defn = WORKLOADS.deformed_variant(name, int(index))
    elif case in ("c_d6", "group_d6"):
        defn = {d.name: d for d in WORKLOADS.dihedral_definitions(6)}[case]
    else:
        defn = packaged(case)
    qg = derive_counit_antipode(build_qg(defn))
    return [qg, build_dual(qg, solve_left_haar(qg)).qg]


class TestCounitAntipode:
    def test_solution_is_unique_and_verified(self):
        qg = hopf_qg("c_z4")
        n = qg.dim
        # counit of a function algebra evaluates at the identity point
        assert qg.counit == {0: SC_ONE}
        # antipode inverts the group coordinate
        assert qg.antipode.apply(basis(1)) == basis(3)

    def test_declared_mismatch_raises(self):
        defn = packaged("c_z2")
        qg = build_qg(defn)
        wrong = [SC_ONE, SC_ONE]
        with pytest.raises(CheckFailure, match="declared-counit"):
            derive_counit_antipode(qg, declared_counit=wrong)

    @pytest.mark.parametrize("name", DERIVED_CASES)
    def test_antipode_is_anti_multiplicative(self, name):
        # the theorem of derive_counit_antipode's docstring, checked on the
        # structure and its dual, or on every induced sub-object
        reached = derived_structures(name)
        assert reached
        for qg in reached:
            alg, s = qg.algebra, qg.antipode
            assert apply_functional(qg.counit, alg.one) == SC_ONE
            assert s.apply(alg.one) == alg.one
            images = [s.apply(basis(i)) for i in range(alg.dim)]
            for i in range(alg.dim):
                for j in range(alg.dim):
                    assert s.apply(alg.multiply(basis(i), basis(j))) == \
                        alg.multiply(images[j], images[i]), (i, j)
            assert len(rref(mat_copy(s.matrix))) == alg.dim
            assert qg.delta(alg.one) == tensor_vec(alg.one, alg.one)

    def test_counit_multiplicativity_is_checked(self):
        # two orthogonal idempotents with D(e_k) = e_k(x)e_k: D is
        # multiplicative and coassociative, and the unique counit has
        # eps(e0) = eps(e1) = 1, which is not multiplicative
        alg = build_algebra(["e0", "e1"], {(0, 0): {0: SC_ONE},
                                           (1, 1): {1: SC_ONE}})
        qg = attach_coproduct(alg, Coproduct([{(0, 0): SC_ONE},
                                              {(1, 1): SC_ONE}]))
        error = check_tmaps(qg).error
        assert isinstance(error, StructureError)
        assert str(error) == "solved counit is not multiplicative at (e0, e1)"

    def test_dropping_counit_multiplicativity_is_caught(self, monkeypatch):
        # a premise of the theorem: without the loop the mutant no longer
        # reports the pinned failure
        source = textwrap.dedent(
            inspect.getsource(mhopf.derive_counit_antipode))
        check = "for i, j in failing_pairs(alg, lambda i, j: (\n" \
            "            apply_functional(eps"
        assert source.count(check) == 1
        scope = {}
        exec(source.replace(check, "for i, j in [] and " + check[12:]),
             vars(mhopf), scope)
        monkeypatch.setattr(mhopf, "derive_counit_antipode",
                            scope["derive_counit_antipode"])
        with pytest.raises(AssertionError):
            self.test_counit_multiplicativity_is_checked()


def benchmark_cases(directory):
    """Every case of the structure ladder, and every case of the s-deformed
    workload on each of its menu variants, with inputs under directory."""
    cases = WORKLOADS.build_workload("structure-ladder", 1,
                                     str(directory / "ladder"))
    for index in range(WORKLOADS.DEFORM_VARIANTS):
        picks = {(name, command): index
                 for name in WORKLOADS.DEFORMED_EXAMPLES
                 for command in WORKLOADS.COMMANDS}
        cases += WORKLOADS.build_workload(
            "s-deformed", 1, str(directory / ("deformed%d" % index)), picks)
    return cases


class TestKnownCandidates:
    """A known unit, counit and antipode is verified, not solved for."""

    def test_benchmark_cases_solve_only_where_no_candidate_holds(
            self, tmp_path, monkeypatch, capsys):
        # semilattice2 declares no counit, so its counit solve is the
        # failure path, and the sub-object of subcheck has no candidate.
        # Every other unit, counit and antipode, the dual's among them, is
        # a verified candidate: a dual antipode taken as the transpose of S,
        # not of S^-1, fails on the sweedler_h4 cases, where S^2 is not the
        # identity.  A missing antipode comes from the Haar functional and
        # solves nothing here.
        seen = []
        # the unit and counit solves (finalg._solve_unit, on A and on the
        # transposed table) are the only solve_affine calls of finalg, and
        # mhopf has none
        assert not hasattr(mhopf, "solve_affine")

        def spy(*args, real=finalg.solve_affine):
            seen.append("finalg")
            return real(*args)
        monkeypatch.setattr(finalg, "solve_affine", spy)
        cases = benchmark_cases(tmp_path)
        assert len(cases) == 21 + 4 * 9
        solved = {}
        for case in cases:
            del seen[:]
            assert main(case["argv"]) == case["expect"], case["id"]
            capsys.readouterr()
            if case["stem"] == "semilattice2":
                assert seen, case["id"]
            elif seen:
                solved[case["id"]] = list(seen)
        # the sub-object's unit, then its counit
        assert solved == {"subcheck c_z4 --sub c_h": ["finalg", "finalg"]}


def no_candidate_corpus():
    """{id: definition} of every declared Hopf structure the no-candidate
    property runs on: the packaged examples, the s-deformed menu variants,
    the dihedral pairs for n = 3 to 6 and Taft's T_4."""
    corpus = {name: packaged(name) for name in HOPF_EXAMPLES}
    corpus.update(("%s~%d" % (name, index),
                   WORKLOADS.deformed_variant(name, index))
                  for name in WORKLOADS.DEFORMED_EXAMPLES
                  for index in range(WORKLOADS.DEFORM_VARIANTS))
    corpus.update((d.name, d) for n in range(3, 7)
                  for d in WORKLOADS.dihedral_definitions(n))
    corpus["taft_t4"] = taft_t4()
    return corpus


NO_CANDIDATE_CORPUS = no_candidate_corpus()


class TestNoCandidate:
    """With no candidate, the counit is the unit of the transposed table
    and the antipode Van Daele's formula from the left Haar functional."""

    @pytest.mark.parametrize("case", sorted(NO_CANDIDATE_CORPUS))
    def test_derivation_matches_the_verified_candidates(self, case):
        # the declared tables, and on the dual the candidates of build_dual,
        # are verified; the derivation without them gives the same maps
        defn = NO_CANDIDATE_CORPUS[case]
        assert defn.counit is not None and defn.antipode is not None
        known = derive_counit_antipode(build_qg(defn), defn.counit,
                                       defn.antipode)
        bare = derive_counit_antipode(build_qg(defn))
        assert (bare.counit, bare.antipode) == (known.counit, known.antipode)
        dual = build_dual(known, solve_left_haar(known)).qg
        bare = derive_counit_antipode(attach_coproduct(dual.algebra,
                                                       dual.coproduct))
        assert (bare.counit, bare.antipode) == (dual.counit, dual.antipode)

    def test_a_singular_haar_form_has_no_antipode(self):
        # the monoid algebra of {1, 0}: a bialgebra with counit eps = 1 on
        # both grouplikes, whose left Haar functional, the point mass at 1,
        # is not faithful
        alg = build_algebra(["one", "zero"], {
            (0, 0): {0: SC_ONE}, (0, 1): {1: SC_ONE}, (1, 0): {1: SC_ONE},
            (1, 1): {1: SC_ONE}})
        qg = attach_coproduct(alg, Coproduct([{(0, 0): SC_ONE},
                                              {(1, 1): SC_ONE}]))
        assert str(check_tmaps(qg).error) == "antipode laws have no solution"

    def test_no_invariant_functional_means_no_antipode(self):
        # the functions on the monoid {1, 0}: left invariance admits no
        # nonzero functional
        alg = build_algebra(["d1", "d0"], {(0, 0): {0: SC_ONE},
                                           (1, 1): {1: SC_ONE}})
        qg = attach_coproduct(alg, Coproduct([
            {(0, 0): SC_ONE},
            {(1, 1): SC_ONE, (1, 0): SC_ONE, (0, 1): SC_ONE}]))
        assert str(check_tmaps(qg).error) == "antipode laws have no solution"

    def test_a_failing_formula_candidate_is_rejected(self):
        # C[Z3] with (g0 - g1) (x) (g0 - g2) added to D(g1), built without
        # attach_coproduct: the counit laws still hold and the left Haar
        # functional is unique and faithful, but D is not coassociative and
        # the formula's candidate fails the antipode laws
        n = 3
        alg = build_algebra(["g%d" % a for a in range(n)], {
            (a, b): {(a + b) % n: SC_ONE} for a in range(n)
            for b in range(n)})
        cols = [{(0, 0): SC_ONE},
                {(1, 1): SC_ONE, (0, 0): SC_ONE, (0, 2): -SC_ONE,
                 (1, 0): -SC_ONE, (1, 2): SC_ONE},
                {(2, 2): SC_ONE}]
        qg = mhopf.QGData(alg, Coproduct(cols))
        assert mhopf._coassoc_defect(qg, 1)
        candidate = mhopf._haar_antipode(qg, {a: SC_ONE for a in range(n)})
        assert candidate.n_in == n
        assert str(check_tmaps(qg).error) == "antipode laws have no solution"

    def test_accepting_the_formula_unchecked_is_caught(self, monkeypatch):
        source = textwrap.dedent(
            inspect.getsource(mhopf.derive_counit_antipode))
        check = "if not holds(antipode, unit_times(eps)):"
        assert source.count(check) == 1
        scope = {}
        exec(source.replace(check, "if False:"), vars(mhopf), scope)
        monkeypatch.setattr(mhopf, "derive_counit_antipode",
                            scope["derive_counit_antipode"])
        with pytest.raises(AssertionError):
            self.test_a_failing_formula_candidate_is_rejected()


class TestTransposedSide:
    def test_benchmark_cases_take_the_side_their_tables_favour(
            self, tmp_path, monkeypatch, capsys):
        # A function algebra's generating set is every index, but its
        # transposed table is a group algebra with two or one generators:
        # c_*, their deformations and sub-object, and the duals of group_*
        # and sweedler_h4 are proved on A'; group_*, sweedler_h4 and
        # semilattice2, their deformations and the duals of c_* stay on A,
        # where the coassociativity loop runs.
        calls = []
        real_proved = mhopf._proved_transposed
        real_check = mhopf._check_associativity
        real_defect = mhopf._coassoc_defect

        def proved(alg, cols):
            calls.append({"name": alg.name, "side": "A", "defects": 0})
            calls[-1]["proved"] = real_proved(alg, cols)
            return calls[-1]["proved"]

        def check(alg):
            calls[-1]["side"] = "A'"
            return real_check(alg)

        def defect(qg, k):
            calls[-1]["defects"] += 1
            return real_defect(qg, k)
        monkeypatch.setattr(mhopf, "_proved_transposed", proved)
        monkeypatch.setattr(mhopf, "_check_associativity", check)
        monkeypatch.setattr(mhopf, "_coassoc_defect", defect)

        def side(name):
            dual = name.startswith("dual of ")
            return "A'" if name.split()[-1].startswith("c_") != dual else "A"
        sides = set()
        for case in benchmark_cases(tmp_path):
            del calls[:]
            assert main(case["argv"]) == case["expect"], case["id"]
            capsys.readouterr()
            for call in calls:
                sides.add(call["side"])
                assert call["side"] == side(call["name"]), case["id"]
                if call["side"] == "A'":
                    assert call["proved"] and not call["defects"]
                else:
                    assert not call["proved"] and call["defects"]
        assert sides == {"A", "A'"}


class TestStarCompat:
    def test_hopf_fixtures_pass(self):
        for name in ("c_z2", "c_s3", "group_s3", "sweedler_h4"):
            report = check_star_compat(hopf_qg(name))
            assert report.all_ok, name

    def test_requires_star(self):
        defn = packaged("c_z2")
        defn.star = None
        qg = derive_counit_antipode(build_qg(defn))
        with pytest.raises(StructureError):
            check_star_compat(qg)


class TestGrouplikeProjection:
    def test_identity_element_passes(self):
        qg = hopf_qg("group_s3")
        report = check_grouplike_projection(qg, qg.algebra.one)
        assert report.all_ok

    def test_identity_point_mass_passes(self):
        qg = hopf_qg("c_z4")
        report = check_grouplike_projection(qg, basis(0))
        assert report.all_ok

    def test_non_projection_fails_idempotency(self):
        qg = hopf_qg("group_s3")
        report = check_grouplike_projection(qg, basis(1))
        assert not report.all_ok
        by_name = {it.name: it.ok for it in report.items}
        assert not by_name["idempotent"]

    def test_shifted_point_mass_fails_coproduct_condition(self):
        # e2 is a projection but D(e2)(1(x)e2) = e0(x)e2, not e2(x)e2
        qg = hopf_qg("c_z4")
        report = check_grouplike_projection(qg, basis(2))
        by_name = {it.name: it.ok for it in report.items}
        assert by_name["idempotent"] and by_name["self-adjoint"]
        assert not by_name["coproduct-condition"]


class TestSubMHA:
    def test_even_subgroup_functions_pass(self):
        defn = packaged("c_z4")
        qg = hopf_qg("c_z4")
        rows = [sparse_row(r) for r in defn.sub_bases["c_h"]]
        result = check_sub_mha(qg, rows)
        assert result.all_ok
        assert all(item.ok for item in result.memberships)
        assert all(item.ok for item in result.compat)
        assert result.induced is not None
        assert result.induced.dim == 2
        assert result.induced_tmaps.all_bijective

    def test_unit_span_passes(self):
        qg = hopf_qg("c_z4")
        rows = [sparse_row([SC_ONE, SC_ONE, SC_ONE, SC_ONE])]
        result = check_sub_mha(qg, rows)
        assert result.all_ok
        assert result.induced.dim == 1

    def test_empty_sub_basis_is_rejected(self):
        with pytest.raises(StructureError, match="^sub basis is empty$"):
            check_sub_mha(hopf_qg("c_z4"), [])

    def test_single_point_function_fails_membership(self):
        # span{e1} in the four-point function algebra is a subalgebra and
        # star-closed, but D(e1)(1(x)e1) = e0(x)e1 escapes its tensor square
        qg = hopf_qg("c_z4")
        rows = [basis(1)]
        with pytest.raises(StructureError, match="membership"):
            check_sub_mha(qg, rows)

    def test_induced_structure_is_the_small_group(self):
        defn = packaged("c_z4")
        qg = hopf_qg("c_z4")
        result = check_sub_mha(qg, [sparse_row(r)
                                    for r in defn.sub_bases["c_h"]])
        sub = result.induced
        # the induced object is the function algebra on two points
        prod = sub.algebra.multiply(basis(0), basis(0))
        assert prod == basis(0)
        assert sub.algebra.multiply(basis(0), basis(1)) == {}


def named_products(qg, elems):
    """Every product a membership or T-map formula names, keyed by its
    text, over the pairs (a, b) of elems in (a, b) order, formed from
    tensor_vec legs independently of unit_leg_product."""
    one, tsq = qg.algebra.one, tensor_algebra(qg.algebra, qg.algebra)
    d = [qg.delta(v) for v in elems]
    pairs = [(a, b) for a in range(len(elems)) for b in range(len(elems))]
    legs = {"D(a)(1(x)b)": lambda a, b: (d[a], tensor_vec(one, elems[b])),
            "D(a)(b(x)1)": lambda a, b: (d[a], tensor_vec(elems[b], one)),
            "(a(x)1)D(b)": lambda a, b: (tensor_vec(elems[a], one), d[b]),
            "(1(x)a)D(b)": lambda a, b: (tensor_vec(one, elems[a]), d[b])}
    return {text: [tsq.multiply(*pair(a, b)) for a, b in pairs]
            for text, pair in legs.items()}


def packaged_qg(name, star=True):
    defn = packaged(name)
    if not star:
        defn.star = None
    return derive_counit_antipode(build_qg(defn))


def ints(rows):
    """Integer rows as sparse {i: c} elements."""
    return [sparse_row([Scalar.from_int(x) for x in row]) for row in rows]


def sub_outcome(name, star, rows):
    """What check_sub_mha raises on the span, as "Type: text", or None when
    it returns; a mutant of it may fail in any way."""
    try:
        mhopf.check_sub_mha(packaged_qg(name, star), ints(rows))
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None


def small_spans(n):
    """Spans of one or two vectors with at most two entries in {1, -1}, the
    first of them 1, and every coordinate subspace."""
    vecs = []
    for k in (1, 2):
        for idx in itertools.combinations(range(n), k):
            for signs in itertools.product((1, -1), repeat=k - 1):
                vec = [0] * n
                for i, x in zip(idx, (1,) + signs):
                    vec[i] = x
                vecs.append(vec)
    spans = [[v] for v in vecs] + [list(p)
                                   for p in itertools.combinations(vecs, 2)]
    spans += [[[int(i == j) for i in range(n)] for j in support]
              for k in range(1, n + 1)
              for support in itertools.combinations(range(n), k)]
    return [ints(rows) for rows in spans]


MEMBERSHIP = "sub-compatibility failure: membership "

# (fixture, keep its star, sub basis, StructureError text); sweedler_h4 has
# basis one, g, x, gx, group_s3 u_id, u_r1, ..., c_s3 e_id, e_r1, ...
SUB_OBJECT_FAILURES = [
    ("sweedler_h4", True, [[0, 0, 1, 0]],
     MEMBERSHIP + "D(a)(b(x)1), fails at (v0, v0)"),
    ("sweedler_h4", True, [[0, 0, 0, 1]],
     MEMBERSHIP + "D(a)(1(x)b), fails at (v0, v0)"),
    ("sweedler_h4", True, [[0, 0, 1, 0], [1, 0, 1, 0]],
     MEMBERSHIP + "D(a)(1(x)b), fails at (v0, v1)"),
    ("sweedler_h4", True, [[1, 0, 0, 0], [0, 0, 1, 0]],
     MEMBERSHIP + "D(a)(1(x)b), fails at (v1, v0)"),
    ("sweedler_h4", False, [[0, 0, 1, 1]],
     MEMBERSHIP + "(a(x)1)D(b), fails at (v0, v0)"),
    ("sweedler_h4", False, [[0, 0, 1, -1]],
     MEMBERSHIP + "D(a)(1(x)b), fails at (v0, v0)"),
    ("c_s3", True, [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0]],
     MEMBERSHIP + "D(a)(1(x)b), fails at (v0, v1)"),
    ("group_s3", True, [[1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0]],
     MEMBERSHIP + "D(a)(1(x)b), fails at (v1, v0)"),
    ("group_s3", True, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]],
     "not a subalgebra: product of v1 and v1 leaves the span"),
    ("sweedler_h4", True, [[1, 0, 0, 0], [0, 0, 1, 1]],
     "span is not star-closed at v1"),
    ("sweedler_h4", True, [[1, 0, 1, 0], [2, 0, 2, 0]],
     "sub basis vectors are linearly dependent"),
]


class TestSubObjectFormulas:
    """Each T-map and membership formula forms the products its text names,
    and a failing span is reported by the first formula that fails, at the
    first pair where it fails."""

    def test_tmap_columns_are_the_named_products(self):
        qg = hopf_qg("sweedler_h4")
        elems = [basis(i) for i in range(qg.dim)]
        named = named_products(qg, elems)
        for which, formula in enumerate(TMAP_FORMULAS):
            assert mhopf._tmap_columns(qg, which) == named[formula], formula

    @pytest.mark.parametrize("name", HOPF_EXAMPLES + ("pole-deformed",))
    def test_unit_leg_products_read_no_unit(self, name):
        # each product multiplies one leg from the table, so a copy of the
        # algebra with no unit forms the named products all the same
        qg = (pole_deformed("sweedler_h4") if name == "pole-deformed"
              else hopf_qg(name))
        elems = [basis(i) for i in range(qg.dim)]
        elems.append({i: Scalar.from_int(i + 1) for i in range(qg.dim)})
        named = named_products(qg, elems)
        blind = copy.copy(qg)
        blind.algebra = copy.copy(qg.algebra)
        blind.algebra.one = None
        deltas = [qg.delta(v) for v in elems]
        for shape, formula in zip((0, 1, 3, 2),
                                  mhopf.SUB_MEMBERSHIP_FORMULAS):
            assert mhopf._pair_products(blind, deltas, elems, shape) == \
                named[formula], formula

    def test_failure_texts(self):
        for name, star, rows, text in SUB_OBJECT_FAILURES:
            assert sub_outcome(name, star, rows) == "StructureError: " + text, \
                (name, rows)

    def test_passing_details(self):
        result = mhopf.check_sub_mha(hopf_qg("sweedler_h4"),
                                     ints([[1, 1, 0, 0], [1, -1, 0, 0]]))
        assert [(it.name, it.ok, it.detail) for it in result.memberships] \
            == [("membership " + f, True,
                 "all products lie in the tensor square of the span")
                for f in mhopf.SUB_MEMBERSHIP_FORMULAS]
        assert [(it.name, it.ok, it.detail) for it in result.compat] \
            == [("compression " + f, True, "holds on all pairs")
                for f in mhopf.SUB_COMPAT_FORMULAS]
        assert result.all_ok and result.induced.dim == 2

    def test_each_formula_forms_its_named_products(self, monkeypatch):
        # the membership products, in formula order, and no other: the
        # compression equations are proved, not formed
        qg = hopf_qg("sweedler_h4")
        rows = [basis(i) for i in range(qg.dim)]
        named = named_products(qg, rows)
        formed = []
        real = mhopf.unit_leg_product

        def spy(*args):
            formed.append(real(*args))
            return formed[-1]
        monkeypatch.setattr(mhopf, "unit_leg_product", spy)
        assert mhopf.check_sub_mha(qg, rows).all_ok
        assert formed == [p for f in mhopf.SUB_MEMBERSHIP_FORMULAS
                          for p in named[f]]

    @staticmethod
    def assert_compression(qg, rows, result, context):
        # D0 is read off membership D(a)(1(x)b); the oracle is the
        # compression (u(x)u)D(a)(u(x)u), formed here in the big algebra
        tsq = tensor_algebra(qg.algebra, qg.algebra)
        # v_c(x)v_d goes to rows[c](x)rows[d]
        inclusion = LinMap.of_columns(rows, qg.dim)
        u = inclusion.apply(result.sub_unit)
        uu = tensor_vec(u, u)
        for a, col in enumerate(result.induced.coproduct.columns):
            d0 = TensorMap(inclusion, inclusion).apply(col)
            assert d0 == tsq.multiply(
                uu, tsq.multiply(qg.delta(rows[a]), uu)), (context, a)

    def test_induced_coproduct_is_the_compression(self):
        reached = 0
        for name in ("c_s3", "group_s3", "sweedler_h4"):
            for star in (True, False):
                qg = packaged_qg(name, star)
                for rows in small_spans(qg.dim):
                    try:
                        result = mhopf.check_sub_mha(qg, rows)
                    except StructureError:
                        continue
                    if result.induced is None:
                        continue
                    reached += 1
                    self.assert_compression(qg, rows, result,
                                            (name, star, rows))
        assert reached == 134

    @pytest.mark.parametrize("n", (4, 6))
    def test_dihedral_induced_coproducts_are_the_compressions(self, n):
        # the rotations in group_d_n and the functions on D_n / {1, r^(n/2)}
        # in c_d_n, as subcheck reads them from a sub_bases entry
        spans = dihedral_sub_rows(n)
        for defn in WORKLOADS.dihedral_definitions(n):
            qg = derive_counit_antipode(build_qg(defn))
            rows = ints(spans["quot" if defn.name.startswith("c_") else
                              "rot"])
            result = mhopf.check_sub_mha(qg, rows)
            assert result.all_ok and result.induced.dim == n, defn.name
            self.assert_compression(qg, rows, result, defn.name)

    @pytest.mark.parametrize("func, shapes, swapped, test", [
        ("_tmap_columns", "(0, 3, 1, 2)", "(0, 3, 2, 1)",
         "test_tmap_columns_are_the_named_products"),
        ("check_sub_mha", "(0, 1, 3, 2)", "(1, 0, 3, 2)",
         "test_failure_texts"),
        ("check_sub_mha", "(0, 1, 3, 2)", "(0, 1, 2, 3)",
         "test_each_formula_forms_its_named_products"),
    ])
    def test_swapped_shapes_are_caught(self, monkeypatch, func, shapes,
                                       swapped, test):
        source = textwrap.dedent(inspect.getsource(getattr(mhopf, func)))
        assert source.count(shapes) == 1
        scope = {}
        exec(source.replace(shapes, swapped), vars(mhopf), scope)
        monkeypatch.setattr(mhopf, func, scope[func])
        check = getattr(self, test)
        with pytest.raises(AssertionError):
            if test == "test_each_formula_forms_its_named_products":
                check(monkeypatch)
            else:
                check()

    @pytest.mark.parametrize("func, check", [
        ("check_sub_mha", 'raise StructureError("sub basis vectors'),
        ("_sub_items", 'raise StructureError("sub-compatibility'),
    ], ids=["rank", "memberships"])
    def test_removing_a_premise_check_is_caught(self, monkeypatch, func,
                                                check):
        # D0 and the compression items rest on independent sub rows and on
        # the four memberships; the mutant no longer reports the pinned
        # failure on a span that breaks one
        source = textwrap.dedent(inspect.getsource(getattr(mhopf, func)))
        assert source.count(check) == 1
        scope = {}
        exec(source.replace(check, check[len("raise StructureError"):]),
             vars(mhopf), scope)
        monkeypatch.setattr(mhopf, func, scope[func])
        with pytest.raises(AssertionError):
            self.test_failure_texts()
