"""Exact scalar arithmetic against an independent sympy oracle."""

import operator
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_forge import scalars as scalars_module
from hopf_forge.scalars import (DEFAULT_SPEC_POINTS, P_ONE, P_ZERO,
                                POWER_BUDGET, RANK_POINTS, SC_ONE, SC_ZERO,
                                GaussRat, Scalar, ScalarError,
                                ScalarParseError, SpecializationPoleError,
                                _coprime_mod_p, image_mod_p, padd, pdivmod,
                                pgcd, pmul, pscale, psub, ptrim, pvaluation,
                                parse_scalar, parse_spec_points,
                                validate_spec_points)

from oracles import S, gauss_to_sympy, sympy_equal, to_sympy

small_ints = st.integers(min_value=-9, max_value=9)
nonzero_ints = small_ints.filter(lambda n: n != 0)


@st.composite
def gauss_rats(draw):
    return GaussRat(draw(small_ints), draw(small_ints), draw(nonzero_ints))


@st.composite
def scalars(draw):
    """Random element of Q(i)(s) built from a few primitive pieces."""
    terms = draw(st.lists(st.tuples(gauss_rats(),
                                    st.integers(min_value=-4, max_value=4)),
                          min_size=1, max_size=4))
    num = SC_ZERO
    for coeff, power in terms:
        num = num + Scalar.const(coeff) * Scalar.s_power(power)
    den_terms = draw(st.lists(
        st.tuples(gauss_rats(), st.integers(min_value=0, max_value=3)),
        min_size=0, max_size=2))
    den = SC_ONE
    for coeff, power in den_terms:
        part = Scalar.const(coeff) * Scalar.s_power(power) + SC_ONE
        if not part.is_zero:
            den = den * part
    return num * den.inverse()


class TestGaussRat:
    def test_normalization(self):
        x = GaussRat(2, 4, -6)
        assert (x.a, x.b, x.d) == (-1, -2, 3)
        assert GaussRat(0, 0, 5) == GaussRat(0)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ScalarError):
            GaussRat(1, 0, 0)

    @given(gauss_rats(), gauss_rats())
    def test_ring_ops_match_sympy(self, x, y):
        sx, sy = gauss_to_sympy(x), gauss_to_sympy(y)
        assert sympy.expand(gauss_to_sympy(x + y) - (sx + sy)) == 0
        assert sympy.expand(gauss_to_sympy(x - y) - (sx - sy)) == 0
        assert sympy.expand(gauss_to_sympy(x * y) - sx * sy) == 0

    @given(gauss_rats())
    def test_inverse_matches_sympy(self, x):
        if x.is_zero:
            with pytest.raises(ScalarError):
                x.inverse()
        else:
            assert x * x.inverse() == GaussRat(1)
            assert sympy.simplify(gauss_to_sympy(x.inverse())
                                  - 1 / gauss_to_sympy(x)) == 0

    @given(gauss_rats())
    def test_conjugate_is_involutive(self, x):
        assert x.conjugate().conjugate() == x
        assert (x * x.conjugate()).b == 0

    def test_sign_and_real_fraction(self):
        assert GaussRat(-3, 0, 7).sign() == -1
        assert GaussRat(0).sign() == 0
        half = GaussRat(3, 0, 6)
        assert half.b == 0 and Fraction(half.a, half.d) == Fraction(1, 2)
        with pytest.raises(ScalarError):
            GaussRat(1, 1).sign()


class TestScalarArithmetic:
    @settings(max_examples=60)
    @given(scalars(), scalars())
    def test_field_ops_match_sympy(self, x, y):
        assert sympy_equal(x + y, to_sympy(x) + to_sympy(y))
        assert sympy_equal(x - y, to_sympy(x) - to_sympy(y))
        assert sympy_equal(x * y, to_sympy(x) * to_sympy(y))

    @settings(max_examples=60)
    @given(scalars())
    def test_inverse_matches_sympy(self, x):
        if x.is_zero:
            with pytest.raises(ScalarError):
                x.inverse()
        else:
            assert x * x.inverse() == SC_ONE
            assert sympy_equal(x.inverse(), 1 / to_sympy(x))

    @settings(max_examples=60)
    @given(scalars())
    def test_equality_is_canonical(self, x):
        doubled = (x + x) * Scalar.from_fraction(Fraction(1, 2))
        assert doubled == x
        assert hash(doubled) == hash(x)

    @settings(max_examples=60)
    @given(scalars())
    def test_conjugation(self, x):
        assert x.conjugate().conjugate() == x
        assert sympy_equal(
            x.conjugate(),
            to_sympy(x).subs(sympy.I, -sympy.I))

    def test_self_adjoint(self):
        assert Scalar.s_power(3).is_self_adjoint()
        assert not Scalar.const(GaussRat(0, 1)).is_self_adjoint()
        mixed = Scalar.s_power(1) + Scalar.const(GaussRat(2, 0, 3))
        assert mixed.is_self_adjoint()

    @given(scalars(), st.sampled_from(DEFAULT_SPEC_POINTS))
    @settings(max_examples=40)
    def test_substitute_matches_sympy(self, x, point):
        expr = to_sympy(x)
        denom = sympy.denom(sympy.cancel(expr))
        if denom.subs(S, sympy.Rational(point)) == 0:
            with pytest.raises(SpecializationPoleError):
                x.substitute(point)
        else:
            got = x.substitute(point)
            want = expr.subs(S, sympy.Rational(point))
            assert sympy.simplify(gauss_to_sympy(got) - want) == 0

    def test_pow_negative(self):
        x = Scalar.s_power(2) + SC_ONE
        assert x ** -2 == (x.inverse()) ** 2
        assert Scalar.s_power(-3) == Scalar.s_power(3).inverse()


def reference_canon(num, den):
    """Canonical (num, den) by the valuation shift and Euclid alone, with
    none of the shortcuts that Scalar takes."""
    num, den = ptrim(num), ptrim(den)
    if not num:
        return P_ZERO, P_ONE
    v = min(pvaluation(num), pvaluation(den))
    num, den = num[v:], den[v:]
    g = pgcd(num, den)
    if len(g) > 1:
        num, den = pdivmod(num, g)[0], pdivmod(den, g)[0]
    inv = den[-1].inverse()
    return pscale(num, inv), pscale(den, inv)


def poly_to_sympy(p):
    return sum((gauss_to_sympy(c) * S ** k for k, c in enumerate(p)),
               sympy.Integer(0))


def poly(*coeffs):
    """Polynomial in s from its coefficients, lowest degree first."""
    return ptrim(c if isinstance(c, GaussRat) else GaussRat(c)
                 for c in coeffs)


@st.composite
def polys(draw, min_size=1, max_size=4):
    p = ptrim(draw(st.lists(gauss_rats(), min_size=min_size,
                            max_size=max_size)))
    return p if p else P_ONE


@st.composite
def fraction_pairs(draw):
    """A (num, den) pair of one of the shapes the canonical form
    distinguishes: a planted common factor, a monomial side, or a constant
    denominator."""
    shape = draw(st.sampled_from(
        ["planted", "monomial-num", "monomial-den", "constant-den"]))
    num, den = draw(polys()), draw(polys())
    k = draw(st.integers(min_value=0, max_value=3))
    if shape == "planted":
        h = draw(polys(min_size=2))
        num, den = pmul(num, h), pmul(den, h)
    elif shape == "monomial-num":
        num = poly(*[0] * k, num[-1])
    elif shape == "monomial-den":
        den = poly(*[0] * k, den[-1])
    else:
        den = (den[-1],)
    # a power of s on one side exercises the valuation shift
    shift = poly(*[0] * draw(st.integers(0, 2)), 1)
    if draw(st.booleans()):
        return pmul(num, shift), den
    return num, pmul(den, shift)


class TestCanonicalForm:
    @settings(max_examples=80)
    @given(fraction_pairs())
    def test_matches_euclid_and_sympy(self, pair):
        num, den = pair
        x = Scalar(num, den)
        assert (x.num, x.den) == reference_canon(num, den)
        assert sympy.cancel(to_sympy(x) - poly_to_sympy(num)
                            / poly_to_sympy(den)) == 0

    @settings(max_examples=60)
    @given(polys(), polys(), polys(min_size=2))
    def test_sums_over_one_denominator(self, n1, n2, d):
        x, y = Scalar(n1, d), Scalar(n2, d)
        for got, combine in ((x + y, padd), (x - y, psub)):
            want = reference_canon(
                combine(pmul(x.num, y.den), pmul(y.num, x.den)),
                pmul(x.den, y.den))
            assert (got.num, got.den) == want
        assert sympy.cancel(to_sympy(x + y) - poly_to_sympy(padd(n1, n2))
                            / poly_to_sympy(d)) == 0


@st.composite
def constants(draw):
    return Scalar.const(draw(gauss_rats()))


@st.composite
def laurents(draw):
    """A Laurent polynomial p / s^k."""
    return Scalar(draw(polys()),
                  poly(*[0] * draw(st.integers(0, 3)), 1))


def operands():
    """Scalars of every shape the arithmetic distinguishes."""
    return st.one_of(scalars(), constants(), laurents(),
                     st.sampled_from([SC_ONE, SC_ZERO, -SC_ONE]))


def general_mul(a, b):
    return Scalar(pmul(a.num, b.num), pmul(a.den, b.den))


def general_sum(a, b, combine):
    """The cross-product sum over a.den * b.den, whatever the shapes."""
    return Scalar(combine(pmul(a.num, b.den), pmul(b.num, a.den)),
                  pmul(a.den, b.den))


class TestArithmeticShortcuts:
    @settings(max_examples=80)
    @given(operands(), operands())
    def test_matches_the_general_path_and_sympy(self, a, b):
        sa, sb = to_sympy(a), to_sympy(b)
        for got, want, expr in ((a * b, general_mul(a, b), sa * sb),
                                (a + b, general_sum(a, b, padd), sa + sb),
                                (a - b, general_sum(a, b, psub), sa - sb)):
            assert (got.num, got.den) == (want.num, want.den)
            assert sympy.cancel(to_sympy(got) - expr) == 0
        if not a.is_zero:
            got, want = a.inverse(), Scalar(a.den, a.num)
            assert (got.num, got.den) == (want.num, want.den)

    @pytest.mark.parametrize("text", ["0", "3/4", "i*s^2", "(s + 1)/s^3",
                                      "s^2/(s^4 - 1)"])
    def test_units_and_zeros_return_the_other_operand(self, text):
        x = parse_scalar(text)
        assert SC_ONE * x is x and x * SC_ONE is x
        assert SC_ZERO + x is x and x + SC_ZERO is x
        assert x - SC_ZERO is x
        assert SC_ZERO - x == -x

    def test_henrici_sum_cancels_the_gcd_of_the_denominators(self):
        # d1 = s - 1 and t = -(s - 1)/3, so d2 = s - 1
        a = Scalar(P_ONE, pmul(poly(-1, 1), poly(2, 1)))
        b = Scalar(poly(GaussRat(4, 0, 3)), pmul(poly(-1, 1), poly(3, 1)))
        got = a - b
        assert (got.num, got.den) == (poly(GaussRat(-1, 0, 3)),
                                      poly(6, 5, 1))

    def test_henrici_sum_cancels_a_common_power_of_s(self):
        # d1 = s and t = 2s, so d2 = s
        a = Scalar(P_ONE, pmul(poly(0, 1), poly(-1, 1)))
        b = Scalar(P_ONE, pmul(poly(0, 1), poly(1, 1)))
        got = a + b
        assert (got.num, got.den) == (poly(2), poly(-1, 0, 1))

    def test_laurent_product_shifts_out_the_valuation(self):
        got = Scalar.s_power(2) * Scalar.s_power(-3)
        assert (got.num, got.den) == (P_ONE, poly(0, 1))
        got = Scalar(poly(0, 1, 1)) * Scalar.s_power(-3)
        assert (got.num, got.den) == (poly(1, 1), poly(0, 0, 1))


def henrici_sum(a, b, combine):
    """Henrici's rule for nonzero a and b over different denominators, with
    the exact pgcd and no memo."""
    d1 = pgcd(a.den, b.den)
    ad, bd = pdivmod(a.den, d1)[0], pdivmod(b.den, d1)[0]
    t = combine(pmul(a.num, bd), pmul(b.num, ad))
    d2 = pgcd(t, d1)
    return Scalar(pdivmod(t, d2)[0], pmul(ad, pdivmod(b.den, d2)[0]),
                  _canonical=True)


def memo_operands():
    """The shapes whose products and sums can reach the memo: general,
    Laurent and polynomial."""
    return st.one_of(scalars(), laurents(),
                     st.builds(Scalar, polys(min_size=2)))


class TestMemo:
    @settings(max_examples=60)
    @given(memo_operands(), memo_operands())
    def test_miss_and_hit_match_the_unmemoized_value_and_sympy(self, a, b):
        scalars_module.clear_memo()
        sa, sb = to_sympy(a), to_sympy(b)
        general = a.constant_value() is None and b.constant_value() is None
        cross = not (a.is_zero or b.is_zero) and a.den != b.den
        cases = [(operator.mul, general_mul(a, b), sa * sb, general)]
        if cross:
            cases += [(operator.add, henrici_sum(a, b, padd), sa + sb, True),
                      (operator.sub, henrici_sum(a, b, psub), sa - sb, True)]
        for op, want, expr, memoized in cases:
            size = len(scalars_module._MEMO)
            first = op(a, b)
            assert (len(scalars_module._MEMO) == size + 1) == memoized
            again = op(a, b)
            assert len(scalars_module._MEMO) == size + memoized
            assert again is first if memoized else again == first
            assert (first.num, first.den) == (want.num, want.den)
            assert sympy.cancel(to_sympy(first) - expr) == 0

    def test_keys_tell_denominators_apart(self):
        scalars_module.clear_memo()
        x, y, z = (Scalar(P_ONE, poly(k, 1)) for k in (1, 2, 3))
        for p, q in ((x, y), (x, z), (y, z), (z, y)):
            assert p * q == general_mul(p, q)
            assert p + q == henrici_sum(p, q, padd)
            assert p - q == henrici_sum(p, q, psub)

    def test_the_cap_bounds_the_table(self, monkeypatch):
        monkeypatch.setattr(scalars_module, "MEMO_CAP", 4)
        scalars_module.clear_memo()
        xs = [Scalar(poly(k, 1), poly(-k, 0, 1)) for k in range(1, 8)]
        for p in xs:
            for q in xs:
                assert p * q == general_mul(p, q)
                assert 1 <= len(scalars_module._MEMO) <= 4
        scalars_module.clear_memo()


class TestCoprimalityCertificate:
    P = 998244353

    def test_coprime_pair_is_certified(self):
        assert _coprime_mod_p(poly(1, 1), poly(2, 1))
        assert _coprime_mod_p(poly(1, 0, 1), poly(GaussRat(0, 2), 1))
        assert not _coprime_mod_p(poly(1, 0, 1), poly(GaussRat(0, 1), 1))

    def test_shared_factor_is_never_certified(self):
        num, den = poly(-1, 0, 1), poly(-1, 0, 0, 0, 1)
        assert not _coprime_mod_p(num, den)
        assert Scalar(num, den) == parse_scalar("1/(s^2 + 1)")

    def test_denominator_divisible_by_p_falls_back(self):
        h = poly(GaussRat(1, 0, self.P), 1)
        num, den = pmul(h, poly(-1, 1)), pmul(h, poly(2, 1))
        assert not _coprime_mod_p(num, den)
        x = Scalar(num, den)
        assert (x.num, x.den) == (poly(-1, 1), poly(2, 1))

    def test_leading_coefficient_zero_mod_p_falls_back(self):
        # p*s + 1 maps to the constant 1, so the images of num and den are
        # coprime although num and den share that factor
        h = poly(1, self.P)
        num, den = pmul(h, poly(2, 1)), pmul(h, poly(3, 1))
        assert not _coprime_mod_p(num, den)
        x = Scalar(num, den)
        assert (x.num, x.den) == (poly(2, 1), poly(3, 1))

    def test_common_factor_only_mod_p_falls_back(self):
        num, den = poly(-1, 1), poly(-1 - self.P, 1)
        assert not _coprime_mod_p(num, den)
        x = Scalar(num, den)
        assert (x.num, x.den) == (num, den)


class TestImageModP:
    """The image phi(x) in Z/p at s = s0 that certifies full ranks."""

    P = 998244353

    @settings(max_examples=80)
    @given(operands(), operands(), st.sampled_from(RANK_POINTS))
    def test_image_is_a_ring_map(self, x, y, s0):
        p = self.P
        fx, fy = image_mod_p(x, s0), image_mod_p(y, s0)
        if fx is None or fy is None:
            return
        for z, want in ((x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy)):
            fz = image_mod_p(z, s0)
            if fz is not None:
                assert fz == want % p
        if fx:
            inv = image_mod_p(x.inverse(), s0)
            if inv is not None:
                assert inv * fx % p == 1

    @settings(max_examples=40)
    @given(gauss_rats(), st.sampled_from(RANK_POINTS))
    def test_constants_map_alike_in_both_types(self, c, s0):
        assert image_mod_p(c, s0) == image_mod_p(Scalar.const(c), s0)

    def test_s_maps_to_the_point(self):
        s = Scalar.s_power(1)
        for s0 in RANK_POINTS:
            assert image_mod_p(s, s0) == s0
            assert image_mod_p(parse_scalar("i"), s0) ** 2 % self.P \
                == self.P - 1

    def test_coefficient_denominator_divisible_by_p_has_no_image(self):
        for x in (GaussRat(1, 0, self.P), Scalar.const(GaussRat(3, 1, self.P)),
                  Scalar(poly(GaussRat(1, 0, self.P), 1)),
                  Scalar(P_ONE, poly(GaussRat(1, 0, 2 * self.P), 1))):
            assert all(image_mod_p(x, s0) is None for s0 in RANK_POINTS)

    def test_pole_at_a_point_has_no_image_there_only(self):
        s0, s1 = RANK_POINTS[:2]
        x = Scalar(P_ONE, poly(-s0, 1))  # 1/(s - s0)
        assert image_mod_p(x, s0) is None
        assert image_mod_p(x, s1) == pow(s1 - s0, -1, self.P)
        # a zero at the point is an image like any other
        assert image_mod_p(Scalar(poly(-s0, 1)), s0) == 0


class TestParsing:
    @settings(max_examples=80)
    @given(scalars())
    def test_render_parse_round_trip(self, x):
        assert parse_scalar(str(x)) == x

    def test_literal_forms(self):
        assert parse_scalar("s^2/(s^4 - 1)") == \
            Scalar.s_power(2) * (Scalar.s_power(4) - SC_ONE).inverse()
        assert parse_scalar("(1 + 2*i)/3") == Scalar.const(GaussRat(1, 2, 3))
        assert parse_scalar("-s") == -Scalar.s_power(1)
        assert parse_scalar("0") == SC_ZERO

    def test_error_positions(self):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar("s^")
        assert info.value.pos == 2
        with pytest.raises(ScalarParseError):
            parse_scalar("1 +")
        with pytest.raises(ScalarParseError):
            parse_scalar("")
        with pytest.raises(ScalarError):
            parse_scalar("1/0")


class TestSpecPoints:
    def test_defaults(self):
        assert DEFAULT_SPEC_POINTS == (Fraction(1, 3), Fraction(1, 2),
                                       Fraction(2, 3))

    def test_parse(self):
        assert parse_spec_points("1/2, 1/3") == (Fraction(1, 3),
                                                 Fraction(1, 2))
        with pytest.raises(ScalarError):
            parse_spec_points("0")
        with pytest.raises(ScalarError):
            parse_spec_points("nope")
        with pytest.raises(ScalarError):
            parse_spec_points("")

    def test_validate(self):
        assert validate_spec_points([Fraction(1, 2), Fraction(1, 2)]) == \
            (Fraction(1, 2),)
        with pytest.raises(ScalarError):
            validate_spec_points([Fraction(3, 2)])


class TestLiteralBudget:
    @pytest.mark.parametrize("text", ["s^1000000000", "2^1000000000",
                                      "(1+s)^100000", "s^-1000000000"])
    def test_huge_powers_are_parse_errors(self, text):
        start = time.perf_counter()
        with pytest.raises(ScalarParseError) as info:
            parse_scalar(text)
        assert time.perf_counter() - start < 0.5
        assert info.value.pos == text.index("^") + 1
        assert "literal budget" in str(info.value)

    def test_powers_within_the_budget_parse(self):
        assert parse_scalar("s^1024") == Scalar.s_power(1024)
        assert parse_scalar("s^-1024") == Scalar.s_power(-1024)
        assert parse_scalar("(s^2)^512") == Scalar.s_power(1024)
        for text in ("s^%d" % (POWER_BUDGET + 1), "(s^2)^513",
                     "(2^1024)^1024"):
            with pytest.raises(ScalarParseError):
                parse_scalar(text)

    def test_products_over_the_budget_are_parse_errors(self):
        for text in ("s^1024*s", "(1+s)^512*(1+s)^513", "1/s^1024/s",
                     "s/s^-1024"):
            with pytest.raises(ScalarParseError) as info:
                parse_scalar(text)
            assert info.value.pos == text.rindex("*" if "*" in text
                                                 else "/")
            assert "literal budget" in str(info.value)

    def test_products_within_the_budget_parse(self):
        assert parse_scalar("s^512*s^512") == Scalar.s_power(1024)
        assert parse_scalar("s^1024*s^-1024") == SC_ONE
        assert parse_scalar("s^1024/s^1024") == SC_ONE

    def test_sums_over_the_budget_are_parse_errors(self):
        six = " + ".join("1/(s^1000+%d)" % k for k in range(1, 7))
        for text in (six, "1/(s^1000+1) - 1/(s^1000+2)",
                     "s^1000/(s^1000+1) + s^25"):
            start = time.perf_counter()
            with pytest.raises(ScalarParseError) as info:
                parse_scalar(text)
            assert time.perf_counter() - start < 0.5
            # the first sum already passes the budget
            assert info.value.pos == text.index(" ") + 1
            assert "literal budget" in str(info.value)

    def test_sums_within_the_budget_parse(self):
        twice = parse_scalar("1/(s^1000+1) + 1/(s^1000+1)")
        assert twice == parse_scalar("2/(s^1000+1)")
        assert parse_scalar("s^1024 + 1") == Scalar.s_power(1024) + SC_ONE
        assert parse_scalar("1/(s^1000+1) - 1/(s^1000+1)").is_zero

    def test_overlong_integer_is_a_parse_error(self):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar("s^" + "9" * 5000)
        assert info.value.pos == 2
