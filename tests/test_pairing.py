"""The bilinear pairing between the two shipped presentations."""

import hashlib
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from hopf_forge.cli import main
from hopf_forge.errors import StructureError
from hopf_forge.fixtures import packaged_fixture_path
from hopf_forge.presentations import (PairedPresentations, Presentation,
                                      build_presented)
from hopf_forge.report import run_pair
from hopf_forge.scalars import SC_ONE, SC_ZERO, parse_scalar

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
