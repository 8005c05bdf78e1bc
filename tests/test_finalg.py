"""Structure-constant algebras, linear maps and Gram forms."""

from fractions import Fraction

import pytest

from hopf_forge.errors import StructureError
from hopf_forge.exactla import POSITIVE_DEFINITE
from hopf_forge.finalg import (FinAlgebra, LinMap, apply_functional,
                               basis_vector, build_algebra, gram_matrix,
                               gram_psd, tensor_algebra, transform_basis,
                               vec_add, vec_is_zero, vec_scale, vec_sub)
from hopf_forge.scalars import (DEFAULT_SPEC_POINTS, SC_ONE, SC_ZERO,
                                GaussRat, Scalar, parse_scalar)

HALF = Scalar.from_fraction(Fraction(1, 2))


def cyclic_group_mul(n):
    """Structure constants of the group algebra of Z/n."""
    return {(i, j): {(i + j) % n: SC_ONE} for i in range(n) for j in range(n)}


def pointwise_mul(n):
    """Structure constants of functions on n points."""
    return {(i, i): {i: SC_ONE} for i in range(n)}


class TestBuildAlgebra:
    def test_solves_unit_of_group_algebra(self):
        alg = build_algebra(["u0", "u1", "u2"], cyclic_group_mul(3))
        assert alg.unit == [SC_ONE, SC_ZERO, SC_ZERO]

    def test_solves_unit_of_function_algebra(self):
        alg = build_algebra(["e0", "e1"], pointwise_mul(2))
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
        star = LinMap.from_images([basis_vector(3, 0), basis_vector(3, 2),
                                   basis_vector(3, 1)])
        star = LinMap(star.matrix, conjugate_linear=True)
        alg = build_algebra(["u0", "u1", "u2"], cyclic_group_mul(3),
                            star=star)
        assert alg.apply_star(alg.basis(1)) == alg.basis(2)

    def test_multiply_bilinear(self):
        alg = build_algebra(["u0", "u1"], cyclic_group_mul(2))
        x = vec_add(alg.basis(0), vec_scale(HALF, alg.basis(1)))
        y = vec_sub(alg.basis(1), alg.basis(0))
        left = alg.multiply(x, y)
        expanded = vec_add(
            alg.multiply(alg.basis(0), y),
            vec_scale(HALF, alg.multiply(alg.basis(1), y)))
        assert left == expanded


class TestLinMap:
    def test_from_images_and_apply(self):
        m = LinMap.from_images([[SC_ZERO, SC_ONE], [SC_ONE, SC_ZERO]])
        assert m.apply([SC_ONE, SC_ZERO]) == [SC_ZERO, SC_ONE]

    def test_conjugate_linear_apply(self):
        i_unit = Scalar.const(GaussRat(0, 1))
        m = LinMap([[SC_ONE]], conjugate_linear=True)
        assert m.apply([i_unit]) == [-i_unit]

    def test_compose_tracks_conjugation(self):
        c = LinMap([[SC_ONE]], conjugate_linear=True)
        assert c.compose(c).conjugate_linear is False
        i_unit = Scalar.const(GaussRat(0, 1))
        m = LinMap([[i_unit]], conjugate_linear=True)
        # m(m(x)) = i * conj(i * conj(x)) = i * (-i) * x = x
        assert m.compose(m).apply([SC_ONE]) == [SC_ONE]

    def test_inverse_of_conjugate_linear(self):
        i_unit = Scalar.const(GaussRat(0, 1))
        m = LinMap([[i_unit]], conjugate_linear=True)
        inv = m.inverse()
        assert inv.compose(m).apply([Scalar.s_power(1)]) == \
            [Scalar.s_power(1)]


class TestTensorAlgebra:
    def test_product_is_componentwise(self):
        a = build_algebra(["u0", "u1"], cyclic_group_mul(2))
        t = tensor_algebra(a, a)
        assert t.dim == 4
        # (u1 (x) u1) * (u1 (x) u0) = u0 (x) u1
        x = [SC_ZERO, SC_ZERO, SC_ZERO, SC_ONE]
        y = [SC_ZERO, SC_ZERO, SC_ONE, SC_ZERO]
        assert t.multiply(x, y) == [SC_ZERO, SC_ONE, SC_ZERO, SC_ZERO]

    def test_unit_is_tensor_of_units(self):
        a = build_algebra(["e0", "e1"], pointwise_mul(2))
        t = tensor_algebra(a, a)
        assert t.unit == [SC_ONE] * 4

    def test_star_is_componentwise(self):
        star = LinMap(LinMap.identity(2).matrix, conjugate_linear=True)
        a = build_algebra(["e0", "e1"], pointwise_mul(2), star=star)
        t = tensor_algebra(a, a)
        i_unit = Scalar.const(GaussRat(0, 1))
        v = [i_unit, SC_ZERO, SC_ZERO, SC_ZERO]
        assert t.apply_star(v) == [-i_unit, SC_ZERO, SC_ZERO, SC_ZERO]


class TestTransformBasis:
    def test_group_to_idempotent_basis(self):
        alg = build_algebra(["u0", "u1"], cyclic_group_mul(2))
        # p0 = (u0+u1)/2 and p1 = (u0-u1)/2 are orthogonal idempotents
        p_cols = [[HALF, HALF], [HALF, -HALF]]
        new = transform_basis(alg, p_cols, labels=["p0", "p1"])
        assert new.multiply(new.basis(0), new.basis(0)) == new.basis(0)
        assert new.multiply(new.basis(0), new.basis(1)) == \
            [SC_ZERO, SC_ZERO]
        assert new.unit == [SC_ONE, SC_ONE]


class TestGram:
    def test_counting_state_on_functions(self):
        star = LinMap(LinMap.identity(2).matrix, conjugate_linear=True)
        alg = build_algebra(["e0", "e1"], pointwise_mul(2), star=star)
        phi = [HALF, HALF]
        g = gram_matrix(alg, phi)
        assert g == [[HALF, SC_ZERO], [SC_ZERO, HALF]]
        _g, cert = gram_psd(alg, phi, DEFAULT_SPEC_POINTS)
        assert cert.verdict == POSITIVE_DEFINITE

    def test_apply_functional(self):
        phi = [SC_ONE, Scalar.s_power(1)]
        assert apply_functional(phi, [SC_ONE, SC_ONE]) == \
            SC_ONE + Scalar.s_power(1)

    def test_vec_is_zero(self):
        assert vec_is_zero([SC_ZERO, SC_ZERO])
        assert not vec_is_zero([SC_ZERO, SC_ONE])
