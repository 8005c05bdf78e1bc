"""Rewriting systems, generator maps, and the two shipped presentations."""

import hashlib
import inspect
import itertools
import shutil
import textwrap

import pytest
from hypothesis import event, example, given, strategies as st

from hopf_forge import presentations
from hopf_forge.cli import main
from hopf_forge.errors import DefinitionError, StructureError
from hopf_forge.definition import PresentationDefinition
from hopf_forge.fixtures import packaged_fixture_path
from hopf_forge.presentations import (WORD_BUDGET, DiagonalAction, GenMap,
                                      Presentation, ScalarTarget,
                                      build_presented, check_word_budget)
from hopf_forge.scalars import SC_ONE, SC_ZERO, Scalar, parse_scalar

from packaged import packaged


def sc(text):
    return parse_scalar(text)


def q_plane():
    """Two generators with y.x -> s^2 x.y, the quantum plane."""
    return PresentationDefinition(
        name="qplane", description="", generators=["x", "y"],
        rules=[(("y", "x"), [(sc("s^2"), ("x", "y"))])],
        coproduct={"x": [(SC_ONE, ("x",), ())],
                   "y": [(SC_ONE, (), ("y",))]},
        counit={"x": SC_ONE, "y": SC_ONE},
        antipode={"x": [(SC_ONE, ("x",))], "y": [(SC_ONE, ("y",))]})


class TestWordOrder:
    def test_length_then_generator_index(self):
        pres = Presentation(q_plane())
        assert pres.word_key(()) < pres.word_key(("x",))
        assert pres.word_key(("x",)) < pres.word_key(("y",))
        assert pres.word_key(("y",)) < pres.word_key(("x", "x"))
        assert pres.word_key(("x", "y")) < pres.word_key(("y", "x"))

    def test_rules_must_decrease(self):
        defn = q_plane()
        defn.rules = [(("x",), [(SC_ONE, ("x", "x"))])]
        with pytest.raises(StructureError, match="decrease"):
            Presentation(defn)

    def test_empty_left_side_rejected(self):
        defn = q_plane()
        defn.rules = [((), [(SC_ONE, ())])]
        with pytest.raises(StructureError, match="empty"):
            Presentation(defn)


class TestNormalForm:
    def test_q_commutation(self):
        pres = Presentation(q_plane())
        assert pres.normal_form_word(("y", "x")) == \
            ((("x", "y"), sc("s^2")),)
        assert pres.normal_form_word(("y", "y", "x")) == \
            ((("x", "y", "y"), sc("s^4")),)

    def test_inverse_pair_cancels(self):
        pres = Presentation(packaged("uq-su2"))
        assert pres.normal_form_word(("K", "Kinv")) == (((), SC_ONE),)
        assert pres.normal_form_word(("Kinv", "K")) == (((), SC_ONE),)

    @given(st.lists(st.sampled_from(["K", "Kinv", "E", "F"]),
                    max_size=6).map(tuple))
    def test_normal_form_is_idempotent(self, word):
        pres = Presentation(packaged("uq-su2"))
        nf = pres.normal_form_word(word)
        assert pres.normal_form(nf) == nf

    @given(st.lists(st.sampled_from(["b", "bs", "a", "as"]),
                    max_size=5).map(tuple),
           st.lists(st.sampled_from(["b", "bs", "a", "as"]),
                    max_size=5).map(tuple))
    def test_normal_form_is_multiplicative_up_to_rewriting(self, u, v):
        # nf(uv) equals nf applied to the product of the normal forms
        pres = Presentation(packaged("suq2"))
        direct = pres.normal_form_word(u + v)
        nu = pres.normal_form_word(u)
        nv = pres.normal_form_word(v)
        recombined = pres.normal_form(
            tuple((wu + wv, cu * cv) for wu, cu in nu for wv, cv in nv))
        assert direct == recombined

    def test_irreducible_word_counts(self):
        for defn in (packaged("uq-su2"), packaged("suq2")):
            pres = Presentation(defn)
            counts = [len(pres.normal_words(d)) for d in range(5)]
            assert counts == [1, 5, 14, 30, 55], defn.name

    def test_normal_words_are_irreducible_and_sorted(self):
        pres = Presentation(packaged("suq2"))
        words = pres.normal_words(3)
        keys = [pres.word_key(w) for w in words]
        assert keys == sorted(keys)
        for w in words:
            assert pres.normal_form_word(w) == ((w, SC_ONE),)


def xyz_system():
    """A system whose rules disagree at z.y.x and at words containing it."""
    return PresentationDefinition(
        name="xyz", description="", generators=["x", "y", "z"],
        rules=[(("z", "y"), [(SC_ONE, ("x",))]),
               (("y", "x"), [(SC_ONE, ("x", "y"))]),
               (("z", "x"), [(sc("2"), ("x", "z"))])],
        coproduct={}, counit={}, antipode={})


@st.composite
def rule_lists(draw, gens):
    """One to four rules, each rewriting a word of length 1 to 3 into up to
    two strictly smaller words; a rule may repeat an earlier left side."""
    # every word up to length 3, in ascending deg-lex order
    words = [w for k in range(4) for w in itertools.product(gens, repeat=k)]
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        if rules and draw(st.booleans()):
            lhs = rules[draw(st.integers(0, len(rules) - 1))][0]
        else:
            lhs = draw(st.sampled_from(words[1:]))
        smaller = words[:words.index(lhs)]
        rhs = [(Scalar.from_int(draw(st.sampled_from([1, -1, 2]))), w)
               for w in draw(st.lists(st.sampled_from(smaller),
                                      max_size=2))]
        rules.append((lhs, rhs))
    return rules


def assert_pass_is_sound(rules, gens):
    """A critical-pairs PASS must leave no inconsistent word at degree 5;
    returns whether the pairs passed."""
    defn = PresentationDefinition(
        name="random", description="", generators=gens, rules=rules,
        coproduct={}, counit={}, antipode={})
    pres = Presentation(defn)
    passed = pres.check_confluence(0)[0].ok
    if passed:
        assert list(pres.inconsistent_words(5)) == []
    return passed


# x -> 1 and x -> 0: one left side, two normal forms, and no overlap
TWO_RULES_ON_X = [(("x",), [(SC_ONE, ())]), (("x",), [])]


class TestConfluence:
    def test_both_presentations_confluent_to_degree_four(self):
        for defn in (packaged("uq-su2"), packaged("suq2")):
            pres = Presentation(defn)
            items = pres.check_confluence(4)
            assert [it.name for it in items] == \
                ["critical-pairs", "exhaustive-confluence"]
            assert all(it.ok for it in items), defn.name

    def test_non_confluent_system_is_caught(self):
        # y.x -> x.y and y.x -> 2 x.y cannot both hold; the two rules share
        # their left side, so the only critical pair is that inclusion
        defn = q_plane()
        defn.rules = [(("y", "x"), [(SC_ONE, ("x", "y"))]),
                      (("y", "x"), [(sc("2"), ("x", "y"))])]
        items = Presentation(defn).check_confluence(2)
        assert [(it.name, it.ok, it.detail) for it in items] == [
            ("critical-pairs", False, "unresolved at y.x"),
            ("exhaustive-confluence", False, "inconsistent at y.x")]

    def test_disagreement_at_a_later_redex_is_caught(self):
        # z.y.x rewrites at its leftmost redex to x.x, but at y.x it goes
        # z.x.y -> 2 x.z.y -> 2 x.x; only the second redex disagrees
        items = Presentation(xyz_system()).check_confluence(3)
        assert items[1].name == "exhaustive-confluence"
        assert not items[1].ok
        assert items[1].detail == "inconsistent at z.y.x"

    def test_a_failure_lists_the_words_of_every_redex(self):
        # z.x.y.x is listed although its disagreeing redex y.x is disjoint
        # from its first redex z.x
        pres = Presentation(xyz_system())
        assert pres.check_confluence(4)[1].detail == (
            "inconsistent at z.y.x, x.z.y.x, y.z.y.x, z.x.y.x, z.y.x.x")

    def test_a_failure_rewrites_words_only_up_to_the_fifth_failure(
            self, monkeypatch):
        # K.Kinv -> 2 beside K.Kinv -> 1: every word with a K.Kinv redex
        # fails, and the fifth of them has degree 3
        defn = packaged("uq-su2")
        defn.rules.append((("K", "Kinv"), [(sc("2"), ())]))
        product = itertools.product
        lengths = set()

        def product_spy(*args, **kwargs):
            for w in product(*args, **kwargs):
                lengths.add(len(w))
                yield w
        monkeypatch.setattr(itertools, "product", product_spy)
        items = Presentation(defn).check_confluence(9)
        assert (items[1].name, items[1].ok, items[1].detail) == (
            "exhaustive-confluence", False, "inconsistent at K.Kinv, "
            "K.K.Kinv, K.Kinv.K, K.Kinv.Kinv, K.Kinv.E")
        assert max(lengths) == 3

    @given(st.sampled_from([["x", "y"], ["x", "y", "z"]]).flatmap(
        lambda gens: st.tuples(rule_lists(gens), st.just(gens))))
    @example((TWO_RULES_ON_X, ["x", "y"]))
    def test_critical_pair_pass_proves_confluence(self, system):
        event("pairs resolve" if assert_pass_is_sound(*system)
              else "a pair fails")

    def test_skipping_equal_left_sides_is_caught(self, monkeypatch):
        # the mutant compares no two rules with one left side
        source = textwrap.dedent(
            inspect.getsource(Presentation.check_confluence))
        mutant = source.replace("(l1 == l2 and j <= i)", "l1 == l2")
        assert mutant != source
        scope = {}
        exec(mutant, vars(presentations), scope)
        monkeypatch.setattr(Presentation, "check_confluence",
                            scope["check_confluence"])
        with pytest.raises(AssertionError):
            assert_pass_is_sound(TWO_RULES_ON_X, ["x", "y"])
        with pytest.raises(AssertionError):
            self.test_non_confluent_system_is_caught()


# y.x.x -> 2 x + 2 beside y.x -> 2: the inclusion y.x in y.x.x does not
# resolve, and y . x.x rewrites whole to 2 x + 2 but via NF(y.x) x to 2 x
YXX_RULES = [(("y", "x", "x"), [(Scalar.from_int(2), ("x",)),
                                (Scalar.from_int(2), ())]),
             (("y", "x"), [(Scalar.from_int(2), ())])]


def assert_products_are_normal_forms(rules, gens):
    """word_products on the words up to degree 3 must give the normal form
    of each whole word c.d, before check_confluence and after it; returns
    whether the critical pairs resolved."""
    defn = PresentationDefinition(
        name="random", description="", generators=gens, rules=rules,
        coproduct={}, counit={}, antipode={})
    pres = Presentation(defn)
    words = pres.normal_words(3)
    pairs = [(c, d) for c in words if c for d in words if d]
    unchecked = pres.word_products(words)
    passed = pres.check_confluence(0)[0].ok
    for got in (unchecked, pres.word_products(words)):
        assert [(c, d) for c, d, _cd in got] == pairs
        for c, d, cd in got:
            assert cd == pres.normal_form_word(c + d), (c, d)
    return passed


class TestWordProducts:
    @given(st.sampled_from([["x", "y"], ["x", "y", "z"]]).flatmap(
        lambda gens: st.tuples(rule_lists(gens), st.just(gens))))
    @example((YXX_RULES, ["x", "y"]))
    @example((TWO_RULES_ON_X, ["x", "y"]))
    def test_products_are_the_normal_forms_of_the_whole_words(self, system):
        event("pairs resolve" if assert_products_are_normal_forms(*system)
              else "a pair fails")

    def test_unresolved_pairs_keep_the_leftmost_value(self):
        defn = PresentationDefinition(
            name="yxx", description="", generators=["x", "y"],
            rules=YXX_RULES, coproduct={}, counit={}, antipode={})
        pres = Presentation(defn)
        assert not pres.check_confluence(2)[0].ok
        products = {(c, d): cd
                    for c, d, cd in pres.word_products(pres.normal_words(2))}
        assert products[(("y",), ("x", "x"))] == (
            (("x",), sc("2")), ((), sc("2")))

    def test_dropping_the_confluence_guard_is_caught(self, monkeypatch):
        # the mutant multiplies by one generator at a time without the proof
        source = textwrap.dedent(
            inspect.getsource(Presentation.word_products))
        mutant = source.replace("if not self._pairs_resolve:", "if False:")
        assert mutant != source
        scope = {}
        exec(mutant, vars(presentations), scope)
        monkeypatch.setattr(Presentation, "word_products",
                            scope["word_products"])
        with pytest.raises(AssertionError):
            assert_products_are_normal_forms(YXX_RULES, ["x", "y"])
        with pytest.raises(AssertionError):
            self.test_unresolved_pairs_keep_the_leftmost_value()


class TestWordBudget:
    def test_budget_bounds_the_words_of_every_degree(self):
        # 4^0 + ... + 4^9 and 1^0 + ... + 1^349524 are exactly the budget
        check_word_budget(4, 9)
        check_word_budget(1, WORD_BUDGET - 1)
        check_word_budget(0, 10 ** 12)
        for gens, degree in ((4, 10), (1, WORD_BUDGET), (2, 10 ** 12)):
            with pytest.raises(DefinitionError, match="word budget"):
                check_word_budget(gens, degree)


class TestGenMaps:
    def test_counit_violating_a_rule_is_reported(self):
        pres = Presentation(q_plane())
        eps = GenMap("counit", pres, {"x": SC_ONE, "y": SC_ONE},
                     ScalarTarget())
        item = eps.check_rules()
        assert item.name == "map-respects-rules counit"
        assert not item.ok
        assert "y.x" in item.detail

    def test_missing_image_raises(self):
        pres = Presentation(q_plane())
        with pytest.raises(StructureError, match="lacks images"):
            GenMap("counit", pres, {"x": SC_ONE}, ScalarTarget())

    def test_build_rejects_rule_breaking_counit(self):
        defn = q_plane()
        with pytest.raises(StructureError, match="map-respects-rules"):
            build_presented(defn)

    def test_antipode_squared_frozen_values(self):
        expect = {
            "uq-su2": {"K": "K", "Kinv": "Kinv",
                       "E": "(s^4) E", "F": "(1/s^4) F"},
            "suq2": {"b": "(1/s^4) b", "bs": "(s^4) bs",
                     "a": "a", "as": "as"},
        }
        for defn in (packaged("uq-su2"), packaged("suq2")):
            pq = build_presented(defn)
            for g, text in expect[defn.name].items():
                out = pq.antipode_squared((((g,), SC_ONE),))
                assert pq.pres.format_terms(out) == text, (defn.name, g)


def fold_word(m, w):
    """The unmemoized image of a word: the product of the letter images
    folded left to right (right to left for an anti-multiplicative map)."""
    acc = m.target.one
    for g in (reversed(w) if m.anti else w):
        acc = m.target.mul(acc, m.images[g])
    return acc


class TestApplyWordMemo:
    def test_memo_matches_the_fold_on_every_map(self):
        for defn in (packaged("suq2"), packaged("uq-su2")):
            pq = build_presented(defn)
            words = pq.pres.normal_words(4)
            for m in (pq.coproduct, pq.counit, pq.antipode, pq.star):
                for w in words:
                    first = m.apply_word(w)
                    assert first == fold_word(m, w), (defn.name, m.name, w)
                    again = m.apply_word(w)
                    assert again is first, (defn.name, m.name, w)

    def test_maps_do_not_share_cached_images(self):
        pres = Presentation(q_plane())
        images = {"x": sc("2"), "y": sc("3")}
        a = GenMap("a", pres, {"x": SC_ONE, "y": SC_ONE}, ScalarTarget())
        b = GenMap("b", pres, images, ScalarTarget())
        assert a.apply_word(("x", "y", "y")) == SC_ONE
        assert b.apply_word(("x", "y", "y")) == sc("18")
        # the map keeps its own copy of the images
        images["y"] = SC_ZERO
        assert b.apply_word(("x", "y")) == sc("6")
        assert a.apply_word(("x", "y")) == SC_ONE


class TestDiagonalActions:
    def test_weight_inhomogeneous_action_is_reported(self):
        # y.x -> 1 relates words with different letters, so any weights
        # with w(x) w(y) != 1 are inhomogeneous
        defn = q_plane()
        defn.rules = [(("y", "x"), [(SC_ONE, ())])]
        pres = Presentation(defn)
        act = DiagonalAction("bad", pres, {"x": sc("2"), "y": SC_ONE})
        item = act.check_rules()
        assert item.name == "action-respects-rules bad"
        assert not item.ok

    @given(st.lists(st.sampled_from(["K", "Kinv", "E", "F"]),
                    max_size=6).map(tuple))
    def test_action_commutes_with_rewriting(self, word):
        pq = build_presented(packaged("uq-su2"))
        act = pq.actions["modular"]
        via_word = pq.pres.normal_form(act.apply_terms(((word, SC_ONE),)))
        via_nf = act.apply_terms(pq.pres.normal_form_word(word))
        assert via_word == tuple((w, c) for w, c in via_nf
                                 if not c.is_zero)


class TestPresetShapes:
    def test_pairing_definition_is_consistent(self):
        p = packaged("pairing-uqsu2-suq2")
        assert p.rows.name == "uq-su2"
        assert p.cols.name == "suq2"
        for (rg, cg) in p.table:
            assert rg in p.rows.generators
            assert cg in p.cols.generators
        for action_name, word in p.action_functionals:
            assert action_name in p.cols.diagonal_actions
            for g in word:
                assert g in p.rows.generators

    def test_letter_order_of_the_matrix_presentation(self):
        assert packaged("suq2").generators == ["b", "bs", "a", "as"]


class TestReportBytes:
    # sha256 of the text report of `validate --degree 4`, run on a copy of
    # the packaged fixture named by a relative path, so that the checkout
    # path does not enter the report
    VALIDATE_DEGREE_4_SHA256 = {
        "uq-su2":
            "179269425ecac0c7bd5fb4bb5ad8e77d844834c97c9f1933e136ae4e8d039610",
        "suq2":
            "0cd6b27dd200def612e9dc469e1107615318447dfad0b1054eecdb5ae52c667e",
    }

    @pytest.mark.parametrize("name", sorted(VALIDATE_DEGREE_4_SHA256))
    def test_validate_degree_four_report_is_pinned(self, name, tmp_path,
                                                   monkeypatch, capsys):
        shutil.copyfile(packaged_fixture_path(name), tmp_path / (name + ".qg"))
        monkeypatch.chdir(tmp_path)
        assert main(["validate", name + ".qg", "--degree", "4"]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.VALIDATE_DEGREE_4_SHA256[name]

    # sha256 of the text and JSON reports of `validate` at the default
    # degree 6, run the same way
    VALIDATE_DEFAULT_DEGREE_SHA256 = {
        ("uq-su2", "text"):
            "4b280aaa81d96db24013bbebd5084c914a91b93bb786c14ec03a14b872b1df22",
        ("uq-su2", "json"):
            "5ae2e7bda03c89fd7984f85c39d47d38bbbfed7fc5bc113171c231bb8d397d7c",
        ("suq2", "text"):
            "ce1e65f278c2526613ce80f2050e72615da666ed8c780821a2bc5e69b6a3d8f9",
        ("suq2", "json"):
            "5b0e8094de7c038ba073e2b03392ff8111ac3635135852ddf5a04edb3460d330",
    }

    @pytest.mark.parametrize("name,fmt",
                             sorted(VALIDATE_DEFAULT_DEGREE_SHA256))
    def test_validate_default_degree_report_is_pinned(self, name, fmt,
                                                      tmp_path, monkeypatch,
                                                      capsys):
        shutil.copyfile(packaged_fixture_path(name), tmp_path / (name + ".qg"))
        monkeypatch.chdir(tmp_path)
        assert main(["validate", name + ".qg", "--format", fmt]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.VALIDATE_DEFAULT_DEGREE_SHA256[(name, fmt)]

    # sha256 of the text and JSON reports of `analyze --degree 5`, run the
    # same way
    ANALYZE_DEGREE_5_SHA256 = {
        ("uq-su2", "text"):
            "85d413be442bc9e31ea5d933b6a00df866cee4d0f7c012b0a5d84033cea6b7a6",
        ("uq-su2", "json"):
            "640267a6f2262bdbec72e3b13857fcc79ca880f583f1cb4c02e8208cd439a617",
        ("suq2", "text"):
            "9cf733e214f85c46c150cca49bc4992887895213ae3f49742cf053a14a94e7eb",
        ("suq2", "json"):
            "d09e05eaeb7a8b65319ffa9c707a1c84191d83ab9aee036a887f62070e84a231",
    }

    @pytest.mark.parametrize("name,fmt", sorted(ANALYZE_DEGREE_5_SHA256))
    def test_analyze_degree_five_report_is_pinned(self, name, fmt, tmp_path,
                                                  monkeypatch, capsys):
        shutil.copyfile(packaged_fixture_path(name), tmp_path / (name + ".qg"))
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", name + ".qg", "--degree", "5",
                     "--format", fmt]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.ANALYZE_DEGREE_5_SHA256[(name, fmt)]
