"""Structure-constant algebras, linear maps and Gram forms."""

import inspect
import itertools
import textwrap
from fractions import Fraction

import pytest

from hopf_forge import finalg
from hopf_forge.errors import StructureError
from hopf_forge.exactla import (POSITIVE_DEFINITE, invert, matmul, matvec,
                                sparse_row)
from hopf_forge.finalg import (LinMap, apply_functional, build_algebra,
                               gram_matrix, gram_psd, tensor_algebra,
                               transform_basis)
from hopf_forge.mhopf import tensor_vec
from hopf_forge.scalars import (DEFAULT_SPEC_POINTS, SC_ONE, SC_ZERO,
                                GaussRat, Scalar, parse_scalar)

HALF = Scalar.from_fraction(Fraction(1, 2))


def sc(text):
    return parse_scalar(text)


def conj_rows(rows):
    return [[x.conjugate() for x in row] for row in rows]


# Dense references for LinMap: a 3x2 map whose second column is zero, a
# 2x3 map and an invertible 2x2 map, with s-dependent and Gaussian entries.
DENSE = {
    "3x2": [[sc("s"), SC_ZERO], [sc("i"), SC_ZERO],
            [sc("(1+s)/(2-s)"), SC_ZERO]],
    "2x3": [[SC_ONE, sc("i*s"), SC_ZERO], [SC_ZERO, sc("3/4"), sc("-i")]],
    "2x2": [[sc("1+s"), sc("2+i")], [sc("1/s"), sc("-1")]],
}
VECTORS = {2: [sc("s"), sc("2+i")], 3: [sc("i"), SC_ZERO, sc("1-s")]}
I_UNIT = Scalar.const(GaussRat(0, 1))
# (outer, inner) pairs whose composite is defined
COMPOSABLE = [("3x2", "2x3"), ("2x3", "3x2"), ("2x2", "2x3"),
              ("3x2", "2x2"), ("2x2", "2x2")]
FLAGS = [False, True]


def cyclic_group_mul(n):
    """Structure constants of the group algebra of Z/n."""
    return {(i, j): {(i + j) % n: SC_ONE} for i in range(n) for j in range(n)}


def pointwise_mul(n):
    """Structure constants of functions on n points."""
    return {(i, i): {i: SC_ONE} for i in range(n)}


class TestBuildAlgebra:
    def test_solves_unit_of_group_algebra(self):
        alg = build_algebra(["u0", "u1", "u2"], cyclic_group_mul(3))
        assert alg.one == {0: SC_ONE}
        assert alg.unit == [SC_ONE, SC_ZERO, SC_ZERO]

    def test_solves_unit_of_function_algebra(self):
        alg = build_algebra(["e0", "e1"], pointwise_mul(2))
        assert alg.one == {0: SC_ONE, 1: SC_ONE}
        assert alg.unit == [SC_ONE, SC_ONE]

    def test_rejects_nonassociative(self):
        # (x x) x = y x = 0 but x (x x) = x y = x
        mul = {(0, 0): {1: SC_ONE}, (0, 1): {0: SC_ONE}}
        with pytest.raises(StructureError) as info:
            build_algebra(["x", "y"], mul)
        assert "associat" in str(info.value)

    def test_associativity_failure_names_the_first_triple(self):
        # u is the unit; (y, y, z), (y, z, z), (z, y, y) and (z, z, y) fail.
        # The first in (i, j, k) order is reported, with both sides in full.
        one = parse_scalar("1")
        mul = {(0, j): {j: one} for j in range(3)}
        mul.update({(j, 0): {j: one} for j in range(3)})
        mul.update({(1, 1): {2: one}, (1, 2): {0: one}, (2, 1): {0: one},
                    (2, 2): {1: parse_scalar("-1"),
                             2: parse_scalar("(1+s)/(1-s)")}})
        with pytest.raises(StructureError) as info:
            build_algebra(["u", "y", "z"], mul)
        assert str(info.value) == (
            "associativity fails at (y, y, z): (ab)c = (-1)*y + "
            "((-s - 1)/(s - 1))*z but a(bc) = y")

    # Two tables with no unit whose failing triples all have one product
    # zero: with e_i e_j = 0, (a, a, d) and (a, b, c) fail, as a d = d and
    # b c = d; with e_j e_k = 0, (a, b, d) and (c, d, d) fail, as a b = c
    # and c d = c.  The triple loop visits every k when e_i e_j != 0, and
    # else the k with e_j e_k != 0; either half missing reports no unit.
    ONE_SIDED_FAILURES = {
        "left-zero": ({(1, 2): {3: SC_ONE}, (0, 3): {3: SC_ONE}},
                      "associativity fails at (a, a, d): (ab)c = 0 but "
                      "a(bc) = d"),
        "right-zero": ({(0, 1): {2: SC_ONE}, (2, 3): {2: SC_ONE}},
                       "associativity fails at (a, b, d): (ab)c = c but "
                       "a(bc) = 0"),
    }

    @pytest.mark.parametrize("case", sorted(ONE_SIDED_FAILURES))
    def test_a_failure_with_one_zero_product_is_found(self, case):
        mul, text = self.ONE_SIDED_FAILURES[case]
        with pytest.raises(StructureError) as info:
            build_algebra(["a", "b", "c", "d"], mul)
        assert str(info.value) == text

    @pytest.mark.parametrize("case, mutant", [
        ("left-zero", "for k in (range(n) if j in left[i] else ())"),
        ("right-zero", "for k in after[j]"),
    ])
    def test_skipping_either_half_of_the_triples_is_caught(self, monkeypatch,
                                                           case, mutant):
        source = textwrap.dedent(
            inspect.getsource(finalg._check_associativity))
        check = "for k in (range(n) if j in left[i] else after[j])"
        assert source.count(check) == 1
        scope = {}
        exec(source.replace(check, mutant), vars(finalg), scope)
        monkeypatch.setattr(finalg, "_check_associativity",
                            scope["_check_associativity"])
        with pytest.raises(AssertionError):
            self.test_a_failure_with_one_zero_product_is_found(case)

    def test_rejects_unitless(self):
        mul = {(0, 0): {0: SC_ZERO}}
        with pytest.raises(StructureError):
            build_algebra(["a"], mul)

    def test_rejects_bad_star(self):
        # star must be involutive; negating one basis vector of C(2 points)
        # breaks (e1*)* = e1
        star = LinMap([[SC_ONE, SC_ZERO],
                       [SC_ZERO, Scalar.const(GaussRat(0, 1))]],
                      conjugate_linear=True)
        with pytest.raises(StructureError):
            build_algebra(["e0", "e1"], pointwise_mul(2), star=star)

    def test_accepts_group_inverse_star(self):
        star = LinMap.of_columns([{0: SC_ONE}, {2: SC_ONE}, {1: SC_ONE}], 3)
        star = LinMap(star.matrix, conjugate_linear=True)
        alg = build_algebra(["u0", "u1", "u2"], cyclic_group_mul(3),
                            star=star)
        assert alg.star.apply({1: SC_ONE}) == {2: SC_ONE}

    def test_multiply_bilinear(self):
        alg = build_algebra(["u0", "u1"], cyclic_group_mul(2))
        x = {0: SC_ONE, 1: HALF}
        y = {1: SC_ONE, 0: -SC_ONE}
        left = alg.multiply(x, y)
        expanded = LinMap.of_columns(
            [alg.multiply({0: SC_ONE}, y), alg.multiply({1: SC_ONE}, y)],
            2).apply(x)
        assert left == expanded
        assert left == {0: -SC_ONE + HALF, 1: SC_ONE - HALF}


class TestLinMap:
    def test_of_columns_and_apply(self):
        m = LinMap.of_columns([{1: SC_ONE}, {0: SC_ONE}], 2)
        assert m.apply({0: SC_ONE}) == {1: SC_ONE}
        # a sum that cancels stores no zero
        assert m.apply({0: SC_ONE, 1: SC_ZERO - SC_ONE}) == {
            1: SC_ONE, 0: -SC_ONE}
        assert LinMap.of_columns([{0: SC_ONE}, {0: -SC_ONE}], 1).apply(
            {0: SC_ONE, 1: SC_ONE}) == {}

    def test_conjugate_linear_apply(self):
        m = LinMap([[SC_ONE]], conjugate_linear=True)
        assert m.apply({0: I_UNIT}) == {0: -I_UNIT}

    def test_compose_tracks_conjugation(self):
        c = LinMap([[SC_ONE]], conjugate_linear=True)
        assert c.compose(c).conjugate_linear is False
        m = LinMap([[I_UNIT]], conjugate_linear=True)
        # m(m(x)) = i * conj(i * conj(x)) = i * (-i) * x = x
        assert m.compose(m).apply({0: SC_ONE}) == {0: SC_ONE}

    def test_inverse_of_conjugate_linear(self):
        m = LinMap([[I_UNIT]], conjugate_linear=True)
        inv = m.inverse()
        assert inv.compose(m).apply({0: Scalar.s_power(1)}) == \
            {0: Scalar.s_power(1)}

    # The tests below check each operation against exactla.matvec / matmul
    # on the dense rows; a conjugate-linear map is v -> M conj(v).
    @pytest.mark.parametrize("name,conj",
                             list(itertools.product(DENSE, FLAGS)))
    def test_apply_and_matrix(self, name, conj):
        rows = DENSE[name]
        m = LinMap(rows, conjugate_linear=conj)
        assert (m.n_out, m.n_in) == (len(rows), len(rows[0]))
        assert m.matrix == rows
        v = VECTORS[m.n_in]
        arg = [x.conjugate() for x in v] if conj else v
        assert m.apply(sparse_row(v)) == sparse_row(matvec(rows, arg))
        images = [[row[j] for row in rows] for j in range(m.n_in)]
        assert LinMap.of_columns([sparse_row(img) for img in images],
                                 m.n_out, conjugate_linear=conj) == m
        assert m.transpose() == LinMap(images, conjugate_linear=conj)

    @pytest.mark.parametrize(
        "outer,inner,conj_f,conj_g",
        [pair + flags for pair in COMPOSABLE
         for flags in itertools.product(FLAGS, FLAGS)])
    def test_compose(self, outer, inner, conj_f, conj_g):
        f = LinMap(DENSE[outer], conjugate_linear=conj_f)
        g = LinMap(DENSE[inner], conjugate_linear=conj_g)
        g_rows = conj_rows(DENSE[inner]) if conj_f else DENSE[inner]
        want = matmul(DENSE[outer], g_rows)
        fg = f.compose(g)
        assert fg.matrix == want
        assert fg == LinMap(want, conjugate_linear=conj_f != conj_g)
        v = sparse_row(VECTORS[g.n_in])
        assert fg.apply(v) == f.apply(g.apply(v))

    @pytest.mark.parametrize("conj", FLAGS)
    def test_inverse(self, conj):
        rows = DENSE["2x2"]
        m = LinMap(rows, conjugate_linear=conj)
        inv = m.inverse()
        want = invert(rows)
        assert inv.matrix == (conj_rows(want) if conj else want)
        assert inv.conjugate_linear is conj
        assert inv.compose(m) == LinMap.identity(2)
        assert m.compose(inv) == LinMap.identity(2)
        assert m.is_bijective()

    def test_singular_and_non_square_maps(self):
        singular = LinMap(DENSE["3x2"]).compose(LinMap(DENSE["2x3"]))
        assert not singular.is_bijective()
        with pytest.raises(StructureError):
            singular.inverse()
        assert not LinMap(DENSE["3x2"]).is_bijective()
        with pytest.raises(StructureError, match="not invertible"):
            LinMap(DENSE["3x2"]).inverse()

    def test_equality_reads_shape_flag_and_entries(self):
        m = LinMap(DENSE["2x2"])
        assert m == LinMap([list(row) for row in DENSE["2x2"]])
        assert m != LinMap(DENSE["2x2"], conjugate_linear=True)
        assert m != LinMap([DENSE["2x2"][0], [sc("1/s"), sc("1")]])
        # all-zero maps with the same (empty) columns but other heights
        zero_2x2 = LinMap([[SC_ZERO] * 2 for _ in range(2)])
        zero_3x2 = LinMap([[SC_ZERO] * 2 for _ in range(3)])
        assert zero_2x2.columns == zero_3x2.columns
        assert zero_2x2 != zero_3x2


class TestTensorAlgebra:
    def test_product_is_componentwise(self):
        a = build_algebra(["u0", "u1"], cyclic_group_mul(2))
        t = tensor_algebra(a, a)
        assert t.factors[0].dim * t.factors[1].dim == 4
        # (u1 (x) u1) * (u1 (x) u0) = u0 (x) u1
        x = {(1, 1): SC_ONE}
        y = {(1, 0): SC_ONE}
        assert t.multiply(x, y) == {(0, 1): SC_ONE}

    def test_unit_is_tensor_of_units(self):
        a = build_algebra(["e0", "e1"], pointwise_mul(2))
        t = tensor_algebra(a, a)
        unit = tensor_vec(a.one, a.one)
        assert unit == {(i, j): SC_ONE for i in range(2) for j in range(2)}
        for pair in unit:
            assert t.multiply(unit, {pair: SC_ONE}) == {pair: SC_ONE}
            assert t.multiply({pair: SC_ONE}, unit) == {pair: SC_ONE}

    def test_star_is_componentwise(self):
        star = LinMap(LinMap.identity(2).matrix, conjugate_linear=True)
        a = build_algebra(["e0", "e1"], pointwise_mul(2), star=star)
        t = tensor_algebra(a, a)
        v = {(0, 0): I_UNIT}
        assert t.apply_star(v) == {(0, 0): -I_UNIT}


class TestTransformBasis:
    def test_group_to_idempotent_basis(self):
        alg = build_algebra(["u0", "u1"], cyclic_group_mul(2))
        # p0 = (u0+u1)/2 and p1 = (u0-u1)/2 are orthogonal idempotents
        p_cols = [[HALF, HALF], [HALF, -HALF]]
        new = transform_basis(alg, p_cols, labels=["p0", "p1"])
        assert new.multiply({0: SC_ONE}, {0: SC_ONE}) == {0: SC_ONE}
        assert new.multiply({0: SC_ONE}, {1: SC_ONE}) == {}
        assert new.one == {0: SC_ONE, 1: SC_ONE}
        assert new.unit == [SC_ONE, SC_ONE]


class TestGram:
    def test_counting_state_on_functions(self):
        star = LinMap(LinMap.identity(2).matrix, conjugate_linear=True)
        alg = build_algebra(["e0", "e1"], pointwise_mul(2), star=star)
        phi = {0: HALF, 1: HALF}
        g = gram_matrix(alg, phi)
        assert g == [[HALF, SC_ZERO], [SC_ZERO, HALF]]
        cert = gram_psd(alg, phi, DEFAULT_SPEC_POINTS)
        assert cert.verdict == POSITIVE_DEFINITE

    def test_apply_functional(self):
        phi = {0: SC_ONE, 1: Scalar.s_power(1)}
        assert apply_functional(phi, {0: SC_ONE, 1: SC_ONE}) == \
            SC_ONE + Scalar.s_power(1)
        assert apply_functional(phi, {1: HALF, 2: SC_ONE}) == \
            HALF * Scalar.s_power(1)
        assert apply_functional({}, {0: SC_ONE}) == SC_ZERO
