"""The bilinear pairing between the two shipped presentations."""

import collections
import hashlib
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from hopf_forge.cli import main
from hopf_forge.definition import PairingDefinition, PresentationDefinition
from hopf_forge.errors import StructureError
from hopf_forge.fixtures import packaged_fixture_path
from hopf_forge.presentations import (PairedPresentations, Presentation,
                                      build_presented)
from hopf_forge.report import render, run_pair
from hopf_forge.scalars import SC_ONE, SC_ZERO, Scalar, parse_scalar

from packaged import packaged


def sc(text):
    return parse_scalar(text)


def make_pairing():
    defn = packaged("pairing-uqsu2-suq2")
    return PairedPresentations(defn, build_presented(defn.rows),
                               build_presented(defn.cols))


PAIRING = make_pairing()


class TestGeneratorTable:
    def test_frozen_entries(self):
        frozen = {
            ("K", "a"): "1/s", ("K", "as"): "s",
            ("K", "b"): "0", ("K", "bs"): "0",
            ("E", "a"): "0", ("E", "as"): "0",
            ("E", "b"): "0", ("E", "bs"): "-s^2",
        }
        for (rg, cg), text in frozen.items():
            assert PAIRING.pair_words((rg,), (cg,)) == sc(text), (rg, cg)

    def test_inverse_generator_column(self):
        assert PAIRING.pair_words(("Kinv",), ("a",)) == sc("s")
        assert PAIRING.pair_words(("Kinv",), ("as",)) == sc("1/s")

    def test_incomplete_table_is_rejected(self):
        defn = packaged("pairing-uqsu2-suq2")
        del defn.table[("K", "a")]
        with pytest.raises(StructureError, match="misses"):
            PairedPresentations(defn, build_presented(defn.rows),
                                build_presented(defn.cols))


class TestEmptyWordCases:
    def test_empty_row_word_is_the_counit(self):
        for c in PAIRING.col.pres.normal_words(2):
            assert PAIRING.pair_words((), c) == \
                PAIRING.col.counit.apply_word(c)

    def test_empty_col_word_is_the_counit(self):
        for x in PAIRING.row.pres.normal_words(2):
            assert PAIRING.pair_words(x, ()) == \
                PAIRING.row.counit.apply_word(x)


class TestAxioms:
    def test_all_five_axioms_at_degree_three(self):
        items = PAIRING.check_axioms(3)
        names = [it.name for it in items]
        assert names == ["pairing-product-left", "pairing-product-right",
                         "pairing-unit-row", "pairing-unit-column",
                         "pairing-antipode"]
        for it in items:
            assert it.ok, it.name

    def test_failure_text_lists_the_first_bad_entries_in_order(self):
        defn = packaged("pairing-uqsu2-suq2")
        defn.table[("K", "b")] = SC_ONE
        paired = PairedPresentations(defn, build_presented(defn.rows),
                                     build_presented(defn.cols))
        left, right = paired.check_axioms(2)[:2]
        assert left.detail == \
            "fails at (K.K, b.b), (K.Kinv, b), (K.Kinv, b.b)"
        assert right.detail == "fails at (K, a.b), (K, a.b.b), (K, a.b.a)"

    @given(st.lists(st.sampled_from(["K", "Kinv", "E", "F"]),
                    min_size=1, max_size=3).map(tuple),
           st.lists(st.sampled_from(["b", "bs", "a", "as"]),
                    min_size=2, max_size=3).map(tuple))
    @settings(max_examples=40)
    def test_recursion_order_is_irrelevant(self, x, c):
        # the library splits the column word first; splitting the row word
        # first through the column coproduct must give the same value
        expected = PAIRING.pair_words(x, c)
        head, rest = (x[0],), x[1:]
        out = SC_ZERO
        for (w1, w2), coef in PAIRING.col.coproduct.apply_word(c):
            left = PAIRING.pair_words(head, w1)
            if left.is_zero:
                continue
            out = out + coef * left * PAIRING.pair_words(rest, w2)
        assert out == expected

    def test_pairing_respects_rewriting(self):
        # q-commutation on the row side: <EF - FE, c> must match the pairing
        # of the normal form for every short column word
        pres = PAIRING.row.pres
        lhs_terms = pres.normal_form_word(("E", "F"))
        for c in PAIRING.col.pres.normal_words(2):
            direct = PAIRING.pair_terms(lhs_terms, ((c, SC_ONE),))
            assert direct == PAIRING.pair_words(("E", "F"), c)


@pytest.fixture
def product_calls(monkeypatch):
    """The names of the presentations whose word_products is called."""
    calls = []
    word_products = Presentation.word_products

    def products_spy(self, words):
        calls.append(self.name)
        return word_products(self, words)

    monkeypatch.setattr(Presentation, "word_products", products_spy)
    return calls


class TestProducts:
    def test_products_rewrite_only_irreducible_words_times_a_generator(
            self, monkeypatch):
        # once the column pairs resolve, each product c.d is the one before
        # it times the last letter of d, never the whole word c.d
        normal_form_word = Presentation.normal_form_word
        word_products = Presentation.word_products
        forming, seen = [], []

        def products_spy(self, words):
            forming.append(self)
            try:
                return word_products(self, words)
            finally:
                forming.pop()

        def normal_form_spy(self, w):
            if forming and self is forming[-1]:
                seen.append(w)
            return normal_form_word(self, w)

        monkeypatch.setattr(Presentation, "word_products", products_spy)
        monkeypatch.setattr(Presentation, "normal_form_word", normal_form_spy)
        # a passing pairing proves pairing-product-right without forming
        # products, so the proof is refused here to reach the full loop
        monkeypatch.setattr(PairedPresentations, "_product_right_proved",
                            lambda self: False)
        rep = run_pair(packaged("pairing-uqsu2-suq2"), "pairing", "0", degree=4)
        assert rep.ok
        assert ("columns: critical-pairs", True) in [
            (item.name, item.ok) for item in rep.checks]
        monkeypatch.undo()
        col = Presentation(packaged("pairing-uqsu2-suq2").cols)
        assert seen
        for w in seen:
            assert len(w) >= 1
            assert col.normal_form_word(w[:-1]) == ((w[:-1], SC_ONE),), w

    def test_a_passing_pairing_forms_no_products(self, product_calls):
        rep = run_pair(packaged("pairing-uqsu2-suq2"), "pairing", "0", degree=4)
        assert rep.ok
        assert product_calls == []


class FullLoop(PairedPresentations):
    """The pairing with pairing-product-left and pairing-product-right
    always checked word by word: the reference the proofs must agree
    with."""

    def _product_left_proved(self):
        return False

    def _product_right_proved(self):
        return False


def word(text):
    return tuple(text.split(".")) if text else ()


def small_presentation(name, rules, coproduct, counit, antipode=None):
    """A presentation written with strings: a word is its letters joined by
    '.' ('' is the empty word) and a term leads with its coefficient.  The
    generators are the coproduct's keys, in order; the antipode defaults to
    g -> -g."""
    gens = list(coproduct)
    if antipode is None:
        antipode = {g: [("-1", g)] for g in gens}
    return PresentationDefinition(
        name, name, gens,
        [(word(lhs), [(sc(c), word(w)) for c, w in rhs])
         for lhs, rhs in rules],
        {g: [(sc(c), word(l), word(r)) for c, l, r in terms]
         for g, terms in coproduct.items()},
        {g: sc(v) for g, v in counit.items()},
        {g: [(sc(c), word(w)) for c, w in terms]
         for g, terms in antipode.items()})


def pairing(rows, cols, table):
    """A pairing definition with the table written as strings."""
    return PairingDefinition("breaker", "", rows, cols,
                             {k: sc(v) for k, v in table.items()})


def axioms(defn, degree, cls=PairedPresentations):
    """(name, ok, detail) of check_axioms, run as pair runs it: after both
    presentations' confluence checks."""
    row, col = build_presented(defn.rows), build_presented(defn.cols)
    row.pres.check_confluence(degree)
    col.pres.check_confluence(degree)
    return [(it.name, it.ok, it.detail)
            for it in cls(defn, row, col).check_axioms(degree)]


# Each pairing breaks one premise of _product_right_proved, and every other
# premise holds.  pairing-product-right fails at the listed products c.d, so
# a proof that skipped the broken premise would pass it.
PRIMITIVE = [("1", "y", ""), ("1", "", "y")]
PRIMITIVE_X = [("1", "x", ""), ("1", "", "x")]
PRIMITIVE_A = [("1", "a", ""), ("1", "", "a")]
PREMISE_BREAKERS = {
    # x mimics y^3 but with y (x) yy alone: (D (x) id)D(x) and
    # (id (x) D)D(x) differ by 2 y (x) y (x) y
    "coassociativity": (
        small_presentation(
            "x-y", [], {"x": [("1", "x", ""), ("1", "", "x"),
                              ("1", "y", "y.y")], "y": PRIMITIVE},
            {"x": "0", "y": "0"}),
        small_presentation("free-a", [], {"a": [("1", "a", ""),
                                                ("1", "", "a")]},
                           {"a": "0"}),
        {("x", "a"): "0", ("y", "a"): "1"},
        "fails at (x, a.a.a)"),
    # x is group-like with counit 4; <x, a.a> = <x, 1> holds, yet
    # <x, a.a.b> = <x, b> needs (counit (x) id)D(x) = x
    "counit": (
        small_presentation("x", [], {"x": [("1", "x", "x")]}, {"x": "4"}),
        small_presentation("a2-b", [("a.a", [("1", "")])],
                           {"a": [("1", "a", "a")], "b": [("1", "b", "b")]},
                           {"a": "1", "b": "1"}),
        {("x", "a"): "2", ("x", "b"): "1"},
        "fails at (x, a.a.b), (x, b.a.a), (x, b.a.a.b)"),
    # x mimics y^3 / 6, so D(x) has the leg y.y; the rule b.a = -a.b holds
    # at x and y but not at y.y
    "relations at every leg": (
        small_presentation(
            "x-y", [], {"x": [("1", "x", ""), ("1", "", "x"),
                              ("1/2", "y", "y.y"), ("1/2", "y.y", "y")],
                        "y": PRIMITIVE},
            {"x": "0", "y": "0"}),
        small_presentation("anti-ab", [("b.a", [("-1", "a.b")])],
                           {"a": [], "b": []}, {"a": "0", "b": "0"}),
        {("x", "a"): "0", ("x", "b"): "0", ("y", "a"): "1",
         ("y", "b"): "1"},
        "fails at (x, b.a.b), (x, a.b.a)"),
    # the rule y = x makes y reducible, and <y, b> = 2 != <x, b> = 1; the
    # counit laws give x where y is asked for, and every column rule holds
    # at x and y, yet <y, NF(a.a.b)> = <y, b> needs <y, .> = <x, .>
    "a normal word at each generator": (
        small_presentation("y-is-x", [("y", [("1", "x")])],
                           {"x": [("1", "x", "x")], "y": [("1", "y", "y")]},
                           {"x": "1", "y": "1"}),
        small_presentation("a2-b", [("a.a", [("1", "")])],
                           {"a": [("1", "a", "a")], "b": [("1", "b", "b")]},
                           {"a": "1", "b": "1"}),
        {("x", "a"): "1", ("y", "a"): "1", ("x", "b"): "1",
         ("y", "b"): "2"},
        "fails at (y, a.a.b), (y, b.a.a)"),
}


class TestProductRightProof:
    @pytest.mark.parametrize("premise", sorted(PREMISE_BREAKERS))
    def test_a_broken_premise_keeps_the_full_loop(self, premise):
        rows, cols, table, detail = PREMISE_BREAKERS[premise]
        got = axioms(pairing(rows, cols, table), 2)
        assert got == axioms(pairing(rows, cols, table), 2, FullLoop)
        assert got[1] == ("pairing-product-right", False, detail)

    def test_unresolved_row_pairs_keep_the_full_loop(self, product_calls):
        # y.z = y and z.y = z leave y.z.y at y.y or y: the row normal forms
        # are not unique, though D and the counit respect both rules and
        # every other premise holds
        rows = small_presentation(
            "band", [("y.z", [("1", "y")]), ("z.y", [("1", "z")])],
            {"y": [("1", "y", "y")], "z": [("1", "z", "z")]},
            {"y": "1", "z": "1"}, antipode={"y": [], "z": []})
        cols = small_presentation("free-a", [], {"a": [("1", "a", "a")]},
                                  {"a": "1"})
        defn = PairingDefinition("band-a", "", rows, cols,
                                 {("y", "a"): SC_ONE, ("z", "a"): SC_ONE})
        got = axioms(defn, 2)
        assert product_calls == ["free-a"]
        assert ("pairing-product-right", True) == got[1][:2]

    @given(st.dictionaries(
        st.sampled_from(sorted(PAIRING.table)),
        st.sampled_from(["0", "1", "-1", "2", "s", "1/s", "-s^2"]),
        max_size=2))
    @settings(max_examples=25)
    def test_proof_agrees_with_the_full_loop(self, perturbed):
        # a perturbed entry often breaks a column relation at a generator,
        # and a rescaled E or F keeps them, so both paths are reached
        defn = packaged("pairing-uqsu2-suq2")
        defn.table.update({k: sc(v) for k, v in perturbed.items()})
        assert axioms(defn, 2) == axioms(defn, 2, FullLoop)


def column_coproduct_words(defn, degree):
    """The column words whose coproduct GenMap.apply_word is asked for
    while check_axioms runs, after both presentations' confluence checks."""
    row, col = build_presented(defn.rows), build_presented(defn.cols)
    row.pres.check_confluence(degree)
    col.pres.check_confluence(degree)
    paired = PairedPresentations(defn, row, col)
    seen, apply_word = [], col.coproduct.apply_word
    col.coproduct.apply_word = lambda w: seen.append(w) or apply_word(w)
    paired.check_axioms(degree)
    return seen


# Each pairing breaks a premise of _product_left_proved, and
# pairing-product-left fails at the listed words in the full loop, so a
# proof that skipped the broken premise would pass it.
LEFT_PREMISE_BREAKERS = {
    # D(a) = 0 breaks the column counit laws: the base case holds at (y, y,
    # a), where both sides are 0, but fails at the pairs with the empty
    # word, as <y, a> = 1 != <1 (x) y, D(a)> = 0; no column rule exists
    "the base case at pairs with the empty word": (
        small_presentation("y", [], {"y": PRIMITIVE}, {"y": "0"}),
        small_presentation("a-zero", [], {"a": []}, {"a": "0"}),
        {("y", "a"): "1"},
        "fails at (y.y, a.a)"),
    # b.a = -a.b fails at the leg y.y of D(x) but at neither generator;
    # D = 0 on the columns also fails the base case at the empty word
    "relations at every leg": (
        PREMISE_BREAKERS["relations at every leg"][:3]
        + ("fails at (y.y, a.a), (y.y, a.b), (y.y, b.b)",)),
}


class TestProductLeftProof:
    @pytest.mark.parametrize("premise", sorted(LEFT_PREMISE_BREAKERS))
    def test_a_broken_premise_keeps_the_full_loop(self, premise):
        rows, cols, table, detail = LEFT_PREMISE_BREAKERS[premise]
        got = axioms(pairing(rows, cols, table), 2)
        assert got == axioms(pairing(rows, cols, table), 2, FullLoop)
        assert got[0] == ("pairing-product-left", False, detail)

    def test_unresolved_column_pairs_keep_the_full_loop(self):
        # a.b = a and b.a = b leave a.b.a at a.a or a, and a.b.a is a leg
        # of D(e.b.e); every other premise holds.  <k, .> kills both rules
        # in each leg, so pairing-product-left holds all the same, and the
        # full loop is seen by the coproducts of longer column words
        rows = small_presentation("k", [], {"k": [("1", "k", "k")]},
                                  {"k": "1"})
        cols = small_presentation(
            "band-e", [("a.b", [("1", "a")]), ("b.a", [("1", "b")])],
            {"a": [("1", "a", "a")], "b": [("1", "b", "b")],
             "e": [("1", "e", "a"), ("1", "b", "e")]},
            {"a": "1", "b": "1", "e": "0"},
            antipode={"a": [], "b": [], "e": []})
        defn = pairing(rows, cols,
                       {("k", "a"): "1", ("k", "b"): "1", ("k", "e"): "2"})
        assert not Presentation(cols).check_confluence(3)[0].ok
        got = axioms(defn, 3)
        assert got == axioms(defn, 3, FullLoop)
        assert got[0][:2] == ("pairing-product-left", True)
        assert max(map(len, column_coproduct_words(defn, 3))) == 3

    def test_the_legs_close_past_the_first_round(self):
        # D(e) = e (x) k + l (x) e and z mimics e.e, so k.l and l.k are legs
        # of the legs e.l, k.e, l.e and e.k of D(z) but no leg of a
        # generator; W must hold them, and every leg of a word in W
        rows = small_presentation("k-l-e-z", [], {
            "k": [("1", "k", "k")], "l": [("1", "l", "l")],
            "e": [("1", "e", "k"), ("1", "l", "e")],
            "z": [("1", "z", "k.k"), ("1", "e.l", "k.e"),
                  ("1", "l.e", "e.k"), ("1", "l.l", "z")]},
            {"k": "1", "l": "1", "e": "0", "z": "0"})
        cols = small_presentation("free-a", [], {"a": [("1", "a", "a")]},
                                  {"a": "1"})
        defn = pairing(rows, cols, {("k", "a"): "2", ("l", "a"): "3",
                                    ("e", "a"): "1", ("z", "a"): "1"})
        assert axioms(defn, 2) == axioms(defn, 2, FullLoop)
        row, col = build_presented(rows), build_presented(cols)
        row.pres.check_confluence(2)
        legs = set(PairedPresentations(defn, row, col)._row_legs)
        cop = row.coproduct.apply_word
        first = {w for g in rows.generators for (w1, w2), _c in cop((g,))
                 for w in (w1, w2)}
        assert {("k", "l"), ("l", "k")} <= legs - first
        for w in legs:
            for (w1, w2), _c in cop(w):
                assert {w1, w2} <= legs | {()}, w

    @pytest.mark.parametrize("degree", [4, 6])
    def test_a_passing_pairing_forms_no_column_word_coproduct(self, degree):
        # the full loop forms D(c) for every column word c; the proof only
        # splits the column generators
        words = column_coproduct_words(packaged("pairing-uqsu2-suq2"), degree)
        assert words and max(map(len, words)) <= 1


class TestActionFunctional:
    def test_kappa_functional_at_degree_three(self):
        defn = PAIRING.defn
        assert defn.action_functionals == [
            ("kappa", ("Kinv", "Kinv", "Kinv", "Kinv"))]
        name, word = defn.action_functionals[0]
        item = PAIRING.check_action_functional(
            "action-functional kappa", name, tuple(word), 3)
        assert item.ok, item.detail

    def test_kappa_functional_at_degree_four(self):
        name, word = PAIRING.defn.action_functionals[0]
        item = PAIRING.check_action_functional(
            "action-functional kappa", name, tuple(word), 4)
        assert item.ok, item.detail
        assert "55 words" in item.detail


class TestEvaluationRank:
    def test_rank_pin_degree_three(self):
        assert PAIRING.gram_rank(3) == (30, 30, 30)

    def test_rank_pin_degree_four(self):
        assert PAIRING.gram_rank(4) == (55, 55, 55)

    # taken on the program that ranked the whole evaluation matrix
    @pytest.mark.parametrize("degree,size", [(0, 1), (1, 5), (2, 14),
                                             (5, 91), (6, 140)])
    def test_rank_pins(self, degree, size):
        assert PAIRING.gram_rank(degree) == (size, size, size)


class OneBlock(PairedPresentations):
    """The pairing with the trivial grading, so gram_rank ranks the whole
    evaluation matrix: the reference the blocks must agree with."""

    def _weight(self, side, w):
        return SC_ZERO


def paired(defn, cls=PairedPresentations):
    return cls(defn, build_presented(defn.rows), build_presented(defn.cols))


def blocks(pairing_, degree):
    """[(row words, column words)] of each weight the words take."""
    out = {}
    for side, qg in enumerate((pairing_.row, pairing_.col)):
        for w in qg.normal_words(degree):
            out.setdefault(pairing_._weight(side, w), ([], []))[side].append(w)
    return list(out.values())


def off_block_entries(pairing_, degree):
    """The nonzero entries <x, c> of the evaluation matrix whose row and
    column words lie in different blocks."""
    found = []
    parts = blocks(pairing_, degree)
    for i, (xs, _cs) in enumerate(parts):
        for j, (_xs, cs) in enumerate(parts):
            found += [(x, c) for x in xs for c in cs if i != j
                      and not pairing_.pair_words(x, c).is_zero]
    return found


# Each pairing has a block that one family of equations alone decides:
# without it the grading has one more dimension, and the entry named lies
# off the blocks.  (rows, columns, table, degree, the entry, its value)
GRADING_DECIDERS = {
    # f.k.e is irreducible, but its legs f.e rewrite to e.f + k, so D(f.k.e)
    # holds 2 k (x) k: wt(k) = wt(e) + wt(f) comes from the rule alone
    "rules": (
        small_presentation(
            "lie-k-e-f", [("f.e", [("1", "e.f"), ("1", "k")])],
            {"k": [("1", "k", ""), ("1", "", "k")],
             "e": [("1", "e", ""), ("1", "", "e")],
             "f": [("1", "f", ""), ("1", "", "f")]},
            {"k": "0", "e": "0", "f": "0"}),
        small_presentation("free-a", [], {"a": PRIMITIVE_A}, {"a": "0"}),
        {("k", "a"): "1", ("e", "a"): "0", ("f", "a"): "0"},
        3, ("f.k.e", "a.a"), "2"),
    # x and a are group-like with counit 0: wt(x) = 0 comes from D(x)
    "coproduct": (
        small_presentation("x", [], {"x": [("1", "x", "x")]}, {"x": "0"}),
        small_presentation("a", [], {"a": [("1", "a", "a")]}, {"a": "0"}),
        {("x", "a"): "1"},
        2, ("x", "a.a"), "1"),
    # x and a are primitive with counit 1: wt(x) = 0 comes from the counit,
    # and <x, 1> = 1 pairs x against the empty column word
    "counit": (
        small_presentation("x", [], {"x": PRIMITIVE_X}, {"x": "1"}),
        small_presentation("a", [], {"a": PRIMITIVE_A}, {"a": "1"}),
        {("x", "a"): "1"},
        1, ("x", ""), "1"),
    # x and a are primitive with counit 0: only <x, a> ties their weights
    "table": (
        small_presentation("x", [], {"x": PRIMITIVE_X}, {"x": "0"}),
        small_presentation("a", [], {"a": PRIMITIVE_A}, {"a": "0"}),
        {("x", "a"): "1"},
        1, ("x", "a"), "1"),
}


class TestWeightGrading:
    def test_the_packaged_grading(self):
        # E -> 1, F -> -1, bs -> 1, b -> -1 and 0 on K, Kinv, a and as, up
        # to one common scale t
        t = PAIRING._weight(0, ("E",))
        assert t.constant_value() is not None and not t.is_zero
        expected = [{"K": 0, "Kinv": 0, "E": 1, "F": -1},
                    {"b": -1, "bs": 1, "a": 0, "as": 0}]
        for side, weights in enumerate(expected):
            for g, k in weights.items():
                assert PAIRING._weight(side, (g,)) == \
                    Scalar.from_int(k) * t, g
        assert PAIRING._weight(1, ("a", "bs", "b", "bs")) == t
        assert PAIRING._weight(0, ()) == SC_ZERO

    def test_the_blocks_at_degree_four(self):
        # the weight of a word counts E minus F, or bs minus b
        parts = blocks(PAIRING, 4)
        assert len(parts) == 9
        assert sum(len(xs) * len(cs) for xs, cs in parts) == 517
        rows = collections.Counter(
            x.count("E") - x.count("F") for x in PAIRING.row.normal_words(4))
        cols = collections.Counter(
            c.count("bs") - c.count("b") for c in PAIRING.col.normal_words(4))
        assert rows == cols
        assert sorted((len(xs), len(cs)) for xs, cs in parts) == \
            sorted((n, n) for n in rows.values())

    def test_no_entry_off_the_blocks_is_nonzero(self):
        assert off_block_entries(PAIRING, 3) == []

    @pytest.mark.parametrize("family", sorted(GRADING_DECIDERS))
    def test_each_equation_family_decides_a_block(self, family):
        rows, cols, table, degree, (x, c), value = GRADING_DECIDERS[family]
        defn = pairing(rows, cols, table)
        split = paired(defn)
        assert split.pair_words(word(x), word(c)) == sc(value)
        assert off_block_entries(split, degree) == []
        assert split.gram_rank(degree) == \
            paired(defn, OneBlock).gram_rank(degree)

    @given(st.dictionaries(
        st.sampled_from(sorted(PAIRING.table)),
        st.sampled_from(["0", "1", "-1", "2", "s", "1/s", "-s^2"]),
        max_size=2))
    @settings(max_examples=25)
    def test_blocks_agree_with_one_block(self, perturbed):
        # a perturbed entry often leaves the trivial grading, and a
        # rescaled one keeps E -> 1, F -> -1, so both are reached.  With two
        # entries perturbed, the exact rank at degree 3 can take seconds on
        # either side, so those tables are compared at degree 2
        defn = packaged("pairing-uqsu2-suq2")
        defn.table.update({k: sc(v) for k, v in perturbed.items()})
        for degree in (2, 3) if len(perturbed) < 2 else (2,):
            assert paired(defn).gram_rank(degree) == \
                paired(defn, OneBlock).gram_rank(degree)


class TestFiniteShadow:
    def test_high_powers_of_k_are_distinct_normal_words(self):
        # the group-like powers of K never rewrite into each other, so the
        # functional algebra generated by the pairing intersects the span of
        # these words only at zero; the words themselves stay irreducible
        pres = PAIRING.row.pres
        seen = set()
        for n in range(5):
            w = ("K",) * (4 * n) + ("E",)
            assert pres.normal_form_word(w) == ((w, SC_ONE),)
            seen.add(w)
        assert len(seen) == 5


class TestReportBytes:
    # sha256 of the text report of `pair --degree 3`, run on a copy of the
    # packaged fixture named by a relative path, so that the checkout path
    # does not enter the report
    PAIR_DEGREE_3_SHA256 = (
        "80f7fa43078b96c0f740e31950f5ca51e5ec3e3099b1ad55a2678c1de86ce109")

    def test_pair_degree_three_report_is_pinned(self, tmp_path, monkeypatch,
                                                capsys):
        name = "pairing-uqsu2-suq2.qg"
        shutil.copyfile(packaged_fixture_path("pairing-uqsu2-suq2"),
                        tmp_path / name)
        monkeypatch.chdir(tmp_path)
        assert main(["pair", name, "--degree", "3"]) == 0
        out = capsys.readouterr().out
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == self.PAIR_DEGREE_3_SHA256

    # sha256 of the text and JSON reports of `pair --degree D`, taken at
    # degrees 4-6 on the program that checked pairing-product-right product
    # by product, and at degrees 0 and 1 on the one that checked
    # pairing-product-left word by word
    PAIR_REPORTS_SHA256 = {
        ("0", "text"):
            "9eb27f51c7b0e3d72ced03a1fa5300e224fea6f5d1dc879c74b7ca9e41216868",
        ("0", "json"):
            "3b068860fa1121c5ed0b2408139adcb239eebbc2ddcfc8d86b208cadcfab35f4",
        ("1", "text"):
            "e605442c0015ab24781ac17095f665973a5ab083f4ade495ee8845bd4346d04b",
        ("1", "json"):
            "e6c00f05a265cfc4d9d06cfe1d31130bb8800563b05b4da480ae3cf4972b2fd1",
        ("4", "text"):
            "2682f591d3f060ade9f46a657569b4fe05836affe804edfd826baa54ebf73b00",
        ("4", "json"):
            "3280958db82ec8f82df73a15cfc167a2fd1b5fc6b32afa30bf1061e26d6184b2",
        ("5", "text"):
            "b7a838ee33babdbce64af56aede8ed74cb0a7196170b7fb5e77eb5d1c32304f0",
        ("5", "json"):
            "74a86f1a2cc202e590a027c4c849828cd95d7cb24998827367c83917277da72f",
        ("6", "text"):
            "a4578ade858f5a39138eb0888a9ef90aa6063e3b2cc7c92ca4ad7e10813aee85",
        ("6", "json"):
            "47bd99bcbcf719d9ccc79f46a53697ab6fd679d8e68e46aa6c62c529235e1360",
    }

    @pytest.mark.parametrize("degree", ["0", "1", "4", "5", "6"])
    def test_pair_reports_are_pinned(self, degree, tmp_path, monkeypatch,
                                     capsys):
        name = "pairing-uqsu2-suq2.qg"
        shutil.copyfile(packaged_fixture_path("pairing-uqsu2-suq2"),
                        tmp_path / name)
        monkeypatch.chdir(tmp_path)
        for fmt in ("text", "json"):
            assert main(["pair", name, "--degree", degree,
                         "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
                self.PAIR_REPORTS_SHA256[(degree, fmt)], fmt

    def test_perturbed_table_failure_is_pinned(self):
        # confluence has run, so the premises of the proof hold; <K, b> = 1
        # breaks a column relation at K, and the full loop names where
        defn = packaged("pairing-uqsu2-suq2")
        defn.table[("K", "b")] = SC_ONE
        rep = run_pair(defn, "perturbed", "0", degree=3)
        details = {item.name: item.detail for item in rep.checks}
        assert details["pairing-product-right"] == \
            "fails at (K, a.b), (K, a.b.b), (K, a.b.a)"
        digests = {fmt: hashlib.sha256(render(rep, fmt).encode("utf-8"))
                   .hexdigest() for fmt in ("text", "json")}
        assert digests == {
            "text":
                "6a525b450d6da02aaa6bd189efd546b2b862369efc420a16168a35a0a5435979",
            "json":
                "df45f35c4025add7c32af1a288cab569a494778312c8da429c86674d71e1000b",
        }

    def test_perturbed_rank_deficient_report_is_pinned(self):
        # <K, a> = 1 keeps the grading E -> 1, F -> -1 and lowers the rank,
        # so the blocks are ranked by rref.  Pinned on the program that
        # ranked the whole evaluation matrix
        defn = packaged("pairing-uqsu2-suq2")
        defn.table[("K", "a")] = SC_ONE
        rep = run_pair(defn, "perturbed", "0", degree=3)
        assert ("evaluation-rank",
                "rank 25 of the 30 x 30 evaluation matrix") in rep.objects
        digests = {fmt: hashlib.sha256(render(rep, fmt).encode("utf-8"))
                   .hexdigest() for fmt in ("text", "json")}
        assert digests == {
            "text":
                "803e258bbaa609c927e6cfade55d6ffad2c78af402ce8569ece929fd271b1357",
            "json":
                "a3c7852d5bf27e831228956047d65f12c3d5e6d6c74d888726ed7fecce9658e8",
        }

    def test_perturbed_base_case_failure_is_pinned(self):
        # <E, bs> = 2 rescales E, so every column relation still holds at
        # W, but <NF(F.E), a> = <F (x) E, D(a)> fails: the base case of the
        # product-left proof fails and the full loop names where.  Pinned
        # on the program that checked pairing-product-left word by word
        defn = packaged("pairing-uqsu2-suq2")
        defn.table[("E", "bs")] = sc("2")
        rep = run_pair(defn, "perturbed", "0", degree=3)
        details = {item.name: item.detail for item in rep.checks}
        assert details["pairing-product-left"] == \
            "fails at (F.E, a), (F.E, as), (F.E, a.a)"
        digests = {fmt: hashlib.sha256(render(rep, fmt).encode("utf-8"))
                   .hexdigest() for fmt in ("text", "json")}
        assert digests == {
            "text":
                "2b5203fd2d0a1cfb1e9b9b2f68ce88e506c57cd0ea3cd3d471a9b5e611189049",
            "json":
                "0065a45ef336b0bed8ff226d43c609807e2e36f7586e8206179e5e33092c8d69",
        }
