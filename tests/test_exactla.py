"""Exact linear algebra against sympy on random rational matrices."""

import inspect
import sys
import textwrap
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopf_forge import exactla, finalg, haar_modular
from hopf_forge.exactla import (INDEFINITE, POSITIVE_DEFINITE,
                                POSITIVE_SEMIDEFINITE,
                                NotDiagonalizableOverField,
                                dense_row, eigensplit, eigenspaces,
                                gram_certificate, invert,
                                kernel_basis, mat_copy, matmul, matvec, rank,
                                rank_mod_p, rational_roots, rref,
                                solve_affine, sparse_row)
from hopf_forge.errors import StructureError
from hopf_forge.finalg import LinMap
from hopf_forge.haar_modular import ROOTS_OF_UNITY
from hopf_forge.scalars import (DEFAULT_SPEC_POINTS, RANK_POINTS, SC_ONE,
                                SC_ZERO, GaussRat, Scalar, parse_scalar,
                                pmul)

from deadline import deadline
from oracles import gauss_to_sympy, matrix_to_sympy

small_fracs = st.fractions(min_value=-5, max_value=5,
                           max_denominator=6)


def sc(fr) -> Scalar:
    return Scalar.from_fraction(Fraction(fr))


def dense(v, n):
    """A sparse {i: c} vector as its n dense coordinates."""
    return dense_row(v, n, SC_ZERO)


@st.composite
def rational_matrices(draw, max_size=4, square=False):
    n = draw(st.integers(min_value=1, max_value=max_size))
    m = n if square else draw(st.integers(min_value=1, max_value=max_size))
    return [[sc(draw(small_fracs)) for _ in range(m)] for _ in range(n)]


class TestRowReduction:
    @settings(max_examples=60)
    @given(rational_matrices())
    def test_rank_matches_sympy(self, rows):
        want = matrix_to_sympy(rows).rank()
        assert rank(rows) == want
        assert rank([sparse_row(row) for row in rows], len(rows[0])) == want

    @settings(max_examples=60)
    @given(rational_matrices())
    def test_kernel_matches_sympy(self, rows):
        kern = kernel_basis(rows)
        m = len(rows[0])
        null = matrix_to_sympy(rows).nullspace()
        assert len(kern) == len(null)
        for v in kern:
            image = matvec(rows, dense(v, m))
            assert all(x.is_zero for x in image)
        assert rank(kern, m) == len(kern) if kern else True

    @settings(max_examples=60)
    @given(rational_matrices(), st.data())
    def test_solve_affine(self, rows, data):
        m = len(rows[0])
        x = [sc(data.draw(small_fracs)) for _ in range(m)]
        rhs = matvec(rows, x)
        sol = solve_affine(rows, rhs)
        assert not sol.is_empty
        assert matvec(rows, dense(sol.particular, m)) == rhs
        assert len(sol.kernel) == len(kernel_basis(rows))

    def test_solve_affine_empty(self):
        rows = [[SC_ONE], [SC_ONE]]
        sol = solve_affine(rows, [SC_ONE, SC_ZERO])
        assert sol.is_empty

    def test_rref_is_idempotent(self):
        rows = [[sc(2), sc(4)], [sc(1), sc(2)]]
        rref(rows)
        assert rows == [{0: sc(1), 1: sc(2)}, {}]
        again = [dict(r) for r in rows]
        rref(again)
        assert again == rows


def combination(coeffs, vectors, dim):
    return [sum((c * v[t] for c, v in zip(coeffs, vectors)), SC_ZERO)
            for t in range(dim)]


class TestLeftInverse:
    @settings(max_examples=60)
    @given(rational_matrices(max_size=5), st.data())
    def test_image_and_coordinates_match_sympy(self, rows, data):
        # the rows that raise the sympy rank are independent vectors, the
        # columns of an injective map
        vectors = []
        for row in rows:
            if matrix_to_sympy(vectors + [row]).rank() > len(vectors):
                vectors.append(row)
        dim = len(rows[0])
        coeffs = [sc(data.draw(small_fracs)) for _ in vectors]
        targets = [combination(coeffs, vectors, dim)] + [
            [sc(data.draw(small_fracs)) for _ in range(dim)]
            for _ in range(data.draw(st.integers(0, 3)))]
        lift = LinMap.of_columns([sparse_row(v) for v in vectors], dim)
        left = lift.left_inverse()
        assert left.compose(lift) == LinMap.identity(len(vectors))
        found = [left.apply(sparse_row(t)) for t in targets]
        assert found[0] == sparse_row(coeffs)
        for target, coords in zip(targets, found):
            inside = (matrix_to_sympy(vectors + [target]).rank()
                      == len(vectors))
            assert (lift.apply(coords) == sparse_row(target)) == inside
            if inside:
                assert combination(dense(coords, len(vectors)), vectors,
                                   dim) == target

    def test_dependent_columns_raise(self):
        # without the guard, the columns e1 and 2 e1 get an L that reads
        # e1 as (1/2)(2 e1) and is no left inverse
        m = LinMap([[SC_ONE, sc(2)], [SC_ZERO, SC_ZERO]])
        with pytest.raises(StructureError, match="not injective"):
            m.left_inverse()

    def test_skipping_the_injectivity_guard_is_caught(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(LinMap.left_inverse))
        mutant = source.replace("if any(p >= n for p in lead):",
                                "if False:")
        assert mutant != source
        scope = {}
        exec(mutant, vars(finalg), scope)
        monkeypatch.setattr(LinMap, "left_inverse", scope["left_inverse"])
        with pytest.raises(pytest.fail.Exception):
            self.test_dependent_columns_raise()


P = 998244353
S = Scalar.s_power(1)


def planted_rank_matrices():
    """Small s-dependent matrices whose last row may be a combination of
    the others, so that deficient ranks are drawn as well as full ones."""
    entries = st.sampled_from(
        [SC_ZERO, SC_ONE, S, sc(Fraction(2, 3)), S * S - SC_ONE,
         (S + SC_ONE).inverse(), Scalar.const(GaussRat(0, 1)) * S])

    @st.composite
    def draw_matrix(draw):
        n = draw(st.integers(min_value=1, max_value=3))
        m = draw(st.integers(min_value=1, max_value=4))
        rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
        if draw(st.booleans()):
            coeffs = [draw(entries) for _ in range(n)]
            rows.append([sum((c * row[j] for c, row in zip(coeffs, rows)),
                             SC_ZERO) for j in range(m)])
        return rows
    return draw_matrix()


def planted_zero_matrices():
    """planted_rank_matrices as sparse rows with ncols, with zero rows and
    zero columns put in at drawn places."""
    @st.composite
    def draw_matrix(draw):
        rows = draw(planted_rank_matrices())
        m = len(rows[0])
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(0, len(rows))), [SC_ZERO] * m)
        for _ in range(draw(st.integers(0, 2))):
            at = draw(st.integers(0, len(rows[0])))
            for row in rows:
                row.insert(at, SC_ZERO)
        return [sparse_row(row) for row in rows], len(rows[0])
    return draw_matrix()


class TestModularRankCertificate:
    """exactla.rank returns a full rank found mod p at a point of
    RANK_POINTS and runs the exact rref for anything else."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Records the points tried and the number of exact rref calls."""
        seen = {"points": set(), "rref": 0}
        images, exact = exactla.terms_mod_p, exactla.rref

        def terms_mod_p(terms, s0):
            seen["points"].add(s0)
            return images(terms, s0)

        def rref(rows):
            seen["rref"] += 1
            return exact(rows)
        monkeypatch.setattr(exactla, "terms_mod_p", terms_mod_p)
        monkeypatch.setattr(exactla, "rref", rref)
        return seen

    @settings(max_examples=60)
    @given(planted_rank_matrices())
    def test_matches_exact_elimination(self, rows):
        assert rank(rows) == len(rref(mat_copy(rows)))

    @settings(max_examples=60)
    @given(planted_zero_matrices())
    def test_zero_rows_and_columns_match_exact_elimination(self, matrix):
        rows, ncols = matrix
        assert rank(rows, ncols) == len(rref(list(rows)))

    def test_zero_rows_and_columns_need_no_exact_elimination(self, counted):
        # rank 2 on three rows and three columns, full once the zero row
        # and the zero column are dropped
        rows = [{0: S, 2: SC_ONE}, {}, {0: SC_ONE, 2: S}]
        assert rank(rows, 3) == 2
        assert counted == {"points": {RANK_POINTS[0]}, "rref": 0}

    def test_a_row_zero_only_mod_p_is_kept(self):
        # p and p s vanish at every point, so the image has rank 1 on its
        # one nonzero row; over Q(i)(s) the rank is 2
        p = Scalar.from_int(P)
        assert rank([[p, p * S], [SC_ONE, SC_ONE]]) == 2

    def test_pruning_rows_by_their_image_is_caught(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(exactla.rank))
        exact = "[j for j, x in _entries(row) if not x.is_zero]"
        assert source.count(exact) == 1
        scope = {}
        exec(source.replace(exact, "list(terms_mod_p(_entries(row), "
                                   "RANK_POINTS[0]) or ())"),
             vars(exactla), scope)
        monkeypatch.setattr(sys.modules[__name__], "rank", scope["rank"])
        with pytest.raises(AssertionError):
            self.test_a_row_zero_only_mod_p_is_kept()

    def test_rank_mod_p(self):
        assert rank_mod_p([]) == 0
        assert rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 1
        assert rank_mod_p([{0: 1, 1: 2}, {0: 2, 1: 4 + P}]) == 1
        assert rank_mod_p([{1: 5}, {0: 3, 1: 1}, {0: 6}]) == 2
        assert rank_mod_p([{0: P - 1, 2: 1}, {1: 1}, {0: 1, 1: 1, 2: P - 1}]) \
            == 2

    def test_full_rank_needs_no_exact_elimination(self, counted):
        assert rank([[S, SC_ONE], [SC_ONE, S]]) == 2
        assert counted == {"points": {RANK_POINTS[0]}, "rref": 0}

    def test_planted_drop_at_the_first_point_falls_back(self, counted):
        # s - s0 vanishes at the first point, so the image there has rank
        # 1; over Q(i)(s) the rank is 2
        drop = S - Scalar.from_int(RANK_POINTS[0])
        assert rank([[drop, SC_ZERO], [SC_ZERO, SC_ONE]]) == 2
        assert counted == {"points": {RANK_POINTS[0]}, "rref": 1}

    def test_deficient_rank_is_exact(self, counted):
        assert rank([[S, SC_ONE], [S * S, S]]) == 1
        assert counted["rref"] == 1

    def test_pole_at_the_first_point_moves_to_the_next(self, counted):
        pole = (S - Scalar.from_int(RANK_POINTS[0])).inverse()
        assert rank([[pole, SC_ZERO], [SC_ZERO, SC_ONE]]) == 2
        assert counted == {"points": set(RANK_POINTS[:2]), "rref": 0}

    def test_denominator_divisible_by_p_moves_on_to_exact(self, counted):
        inv_p = Scalar.const(GaussRat(1, 0, P))
        assert rank([[inv_p, SC_ZERO], [SC_ZERO, SC_ONE]]) == 2
        assert counted == {"points": set(RANK_POINTS), "rref": 1}

    def test_denominator_divisible_by_p_is_never_read_as_a_residue(self):
        # 1/p * p - 1 * 1 = 0: the rank is 1.  Reading 1/p as 1 would give
        # the image [[1, 1], [1, 0]] and a false full rank.
        rows = [[Scalar.const(GaussRat(1, 0, P)), SC_ONE],
                [SC_ONE, Scalar.from_int(P)]]
        assert rank(rows) == 1


class TestInverse:
    @settings(max_examples=40)
    @given(rational_matrices(square=True))
    def test_invert_or_detect_singular(self, rows):
        n = len(rows)
        inv = invert(rows)
        if rank(rows) < n:
            assert inv is None
        else:
            prod = matmul(rows, inv)
            for i in range(n):
                for j in range(n):
                    assert prod[i][j] == (SC_ONE if i == j else SC_ZERO)

    def test_symbolic_inverse(self):
        s = Scalar.s_power(1)
        rows = [[s, SC_ZERO], [SC_ONE, s]]
        inv = invert(rows)
        assert matmul(rows, inv) == [[SC_ONE, SC_ZERO], [SC_ZERO, SC_ONE]]


SEMIPRIME = (10 ** 18 + 3) * (10 ** 18 + 9)
PRIMORIAL_43 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
# factors with no root in Q(i) ("" for none)
ROOTLESS = ["", "x**2 - 2", "x**2 + x + 1", "x**2 + 3", "x**3 - 2"]
gauss_rats = st.builds(GaussRat, st.integers(-6, 6), st.integers(-6, 6),
                       st.integers(1, 6))


def linear_product(roots, poly=(GaussRat(1),)):
    """Coefficients, lowest power first, of poly * prod (x - r)."""
    for r in roots:
        poly = pmul(poly, (-GaussRat(r) if isinstance(r, int) else -r,
                           GaussRat(1)))
    return list(poly)


class TestRationalRoots:
    def test_quadratic(self):
        # x^2 - 3x + 2 = (x-1)(x-2)
        roots, residual = rational_roots(
            [GaussRat(2), GaussRat(-3), GaussRat(1)])
        assert residual == 0
        assert [(r.a, r.b, r.d, m) for r, m in roots] == \
            [(1, 0, 1, 1), (2, 0, 1, 1)]

    def test_gaussian_roots(self):
        # x^2 + 1 = (x-i)(x+i)
        roots, residual = rational_roots(
            [GaussRat(1), GaussRat(0), GaussRat(1)])
        assert residual == 0
        assert set((r.a, r.b, r.d) for r, _m in roots) == \
            {(0, 1, 1), (0, -1, 1)}

    def test_repeated_root(self):
        # (x-1)^2
        roots, residual = rational_roots(
            [GaussRat(1), GaussRat(-2), GaussRat(1)])
        assert residual == 0
        assert [(r.a, m) for r, m in roots] == [(1, 2)]

    def test_degree_one_needs_no_factoring(self):
        # p*q with p, q primes near 10^18 is past any factoring budget; a
        # linear polynomial is solved without factoring
        pq = SEMIPRIME
        with deadline(5):
            roots, residual = rational_roots([GaussRat(-pq), GaussRat(1)])
            assert roots == [(GaussRat(pq), 1)] and residual == 0
            roots, residual = rational_roots(
                [GaussRat(0), GaussRat(3, 1), GaussRat(2)])
            assert roots == [(GaussRat(-3, -1, 2), 1), (GaussRat(0), 1)]
            assert residual == 0
            spaces = eigensplit([[Scalar.from_int(pq)]], DEFAULT_SPEC_POINTS)
        assert [(str(es.value), es.basis) for es in spaces] == \
            [(str(pq), [{0: SC_ONE}])]

    @pytest.mark.parametrize("c", [SEMIPRIME, PRIMORIAL_43],
                             ids=["semiprime", "primorial"])
    def test_hard_to_factor_roots_are_found_at_once(self, c):
        # (x - 1)(x - c): the old divisor search hung on the semiprime and
        # hit its divisor cap on the primorial
        with deadline(5):
            roots, residual = rational_roots(linear_product([1, c]))
        assert roots == [(GaussRat(1), 1), (GaussRat(c), 1)]
        assert residual == 0

    @pytest.mark.parametrize("c", [SEMIPRIME, PRIMORIAL_43],
                             ids=["semiprime", "primorial"])
    def test_hard_to_factor_eigenvalues_split(self, c):
        rows = [[Scalar.from_int(c), SC_ZERO], [SC_ZERO, SC_ONE]]
        with deadline(5):
            spaces = eigensplit(rows, DEFAULT_SPEC_POINTS)
        assert [(str(es.value), es.basis) for es in spaces] == [
            ("1", [{1: SC_ONE}]), (str(c), [{0: SC_ONE}])]

    def test_roots_colliding_mod_3(self):
        # 1, 4 and 1+3i are one root mod 3, and 4 is a root of x^2 - 2 mod 7,
        # so the roots are found mod 11
        with deadline(5):
            roots, residual = rational_roots(linear_product(
                [1, 4, GaussRat(1, 3), 1], [GaussRat(-2), GaussRat(0),
                                            GaussRat(1)]))
        assert roots == [(GaussRat(1), 2), (GaussRat(1, 3), 1),
                         (GaussRat(4), 1)]
        assert residual == 2

    def test_lift_passes_twice_the_root_bound(self):
        # x^2 - 51x + 50 has root bound 52 and simple roots 1, 2 mod 3; the
        # first power 81 of 3 above 52 reads 50 as its residue -31
        with deadline(5):
            roots, residual = rational_roots(linear_product([1, 50]))
        assert roots == [(GaussRat(1), 1), (GaussRat(50), 1)]
        assert residual == 0

    @pytest.mark.parametrize("func, old, new, test", [
        ("_simple_roots_mod_p",
         "if any(_eval_mod(dg, a, b, p) == (0, 0) for a, b in roots):",
         "if False:", "test_roots_colliding_mod_3"),
        ("rational_roots", "while m <= 2 * bound:", "while m <= bound:",
         "test_lift_passes_twice_the_root_bound"),
    ], ids=["simple-root-guard", "lift-bound"])
    def test_mutant_is_caught(self, monkeypatch, func, old, new, test):
        source = textwrap.dedent(inspect.getsource(getattr(exactla, func)))
        assert source.count(old) == 1
        scope = {}
        exec(source.replace(old, new), vars(exactla), scope)
        monkeypatch.setattr(exactla, func, scope[func])
        monkeypatch.setattr(sys.modules[__name__], "rational_roots",
                            exactla.rational_roots)
        # a multiple root mod p has no Newton inverse (ValueError); a short
        # lift loses the root (AssertionError)
        with pytest.raises((ValueError, AssertionError)):
            getattr(self, test)()

    @given(st.lists(st.tuples(gauss_rats, st.integers(1, 2)), min_size=1,
                    max_size=4),
           gauss_rats.filter(lambda c: not c.is_zero),
           st.sampled_from(ROOTLESS))
    @example([(GaussRat(1), 1), (GaussRat(4), 1), (GaussRat(1, 3), 1)],
             GaussRat(1), "")
    @settings(max_examples=15)
    def test_roots_match_sympy(self, roots, lead, rootless):
        poly = [lead]
        for r, m in roots:
            poly = list(pmul(poly, linear_product([r] * m)))
        x = sympy.Symbol("x")
        extra = sympy.Poly(rootless or "1", x)
        poly = list(pmul(poly, [GaussRat(int(c)) for c in
                                reversed(extra.all_coeffs())]))
        sym = sympy.Poly([gauss_to_sympy(c) for c in reversed(poly)], x,
                         domain="QQ_I")
        expected = {}
        for factor, mult in sym.factor_list()[1]:
            if factor.degree() == 1:
                c1, c0 = factor.all_coeffs()
                z = -c0 / c1
                expected[(sympy.re(z), sympy.im(z))] = mult
        with deadline(10):
            found, residual = rational_roots(poly)
        assert {(sympy.Rational(r.a, r.d), sympy.Rational(r.b, r.d)): m
                for r, m in found} == expected
        assert [r for r, _m in found] == sorted(
            (r for r, _m in found), key=GaussRat.sort_key)
        assert residual == len(poly) - 1 - sum(expected.values())

    def test_no_rational_roots(self):
        # x^2 - 2 has no roots in Q(i)
        roots, residual = rational_roots(
            [GaussRat(-2), GaussRat(0), GaussRat(1)])
        assert roots == []
        assert residual == 2


class TestEigensplit:
    def test_diagonal_with_s_powers(self):
        s2 = Scalar.s_power(2)
        rows = [[s2, SC_ZERO, SC_ZERO],
                [SC_ZERO, s2, SC_ZERO],
                [SC_ZERO, SC_ZERO, SC_ONE]]
        spaces = eigensplit(rows, DEFAULT_SPEC_POINTS)
        by_value = {str(sp.value): len(sp.basis) for sp in spaces}
        assert by_value == {"s^2": 2, "1": 1}
        for sp in spaces:
            for v in sp.basis:
                assert matvec(rows, dense(v, 3)) == [
                    sp.value * x for x in dense(v, 3)]

    @pytest.mark.parametrize("c", ["3", "0", "1+s^2", "i*s/(1-s)"])
    def test_multiple_of_identity_needs_no_polynomial(self, monkeypatch, c):
        # 1+s^2 is not r*s^k, which the eigenvalue ansatz needs
        def charpoly(rows):
            raise AssertionError("charpoly called")
        monkeypatch.setattr(exactla, "charpoly", charpoly)
        c = parse_scalar(c)
        rows = [[c if i == j else SC_ZERO for j in range(3)]
                for i in range(3)]
        spaces = eigensplit(rows, DEFAULT_SPEC_POINTS)
        assert [(es.value, es.basis) for es in spaces] == [
            (c, [{i: SC_ONE} for i in range(3)])]

    def test_permutation_matrix(self):
        z, o = SC_ZERO, SC_ONE
        rows = [[z, o], [o, z]]
        spaces = eigensplit(rows, DEFAULT_SPEC_POINTS)
        assert sorted(str(sp.value) for sp in spaces) == ["-1", "1"]

    def test_nilpotent_rejected(self):
        rows = [[SC_ZERO, SC_ONE], [SC_ZERO, SC_ZERO]]
        with pytest.raises(NotDiagonalizableOverField):
            eigensplit(rows, DEFAULT_SPEC_POINTS)

    def test_rotation_rejected(self):
        # eigenvalues are i and -i; diagonalizable over Q(i), fine
        z, o = SC_ZERO, SC_ONE
        rows = [[z, -o], [o, z]]
        spaces = eigensplit(rows, DEFAULT_SPEC_POINTS)
        assert sorted(str(sp.value) for sp in spaces) == ["-i", "i"]


# companion matrices of x^2 + x + 1 and x^2 - x + 1, of orders 3 and 6: their
# eigenvalues are roots of unity outside Q(i)
ROOTLESS_BLOCKS = ([["0", "-1"], ["1", "-1"]], [["0", "-1"], ["1", "1"]])
CONJUGATOR_ENTRIES = tuple(map(parse_scalar, ("0", "1", "-1", "i", "2")))
S_ENTRIES = tuple(map(parse_scalar, ("s", "1+s", "i*s")))
ROTATION = [[SC_ZERO, -SC_ONE], [SC_ONE, SC_ZERO]]


@st.composite
def finite_order_matrices(draw):
    """P D P^-1 of size at most 4, with D block diagonal: entries of
    ROOTS_OF_UNITY and companion blocks of ROOTLESS_BLOCKS.  P = L U with L
    and U unitriangular, so P^-1 has no pole; its entries are constant or,
    over Q(i)(s), polynomials in s."""
    blocks = [[[c]] for c in draw(st.lists(st.sampled_from(ROOTS_OF_UNITY),
                                          min_size=1, max_size=4))]
    if len(blocks) <= 2 and draw(st.booleans()):
        blocks.append([list(map(parse_scalar, row))
                       for row in draw(st.sampled_from(ROOTLESS_BLOCKS))])
    n = sum(len(b) for b in blocks)
    d = [[SC_ZERO] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            d[start + i][start:start + len(b)] = row
        start += len(b)
    entries = st.sampled_from(CONJUGATOR_ENTRIES + (
        S_ENTRIES if draw(st.booleans()) else ()))
    lower = [[SC_ONE if i == j else draw(entries) if i > j else SC_ZERO
              for j in range(n)] for i in range(n)]
    upper = [[SC_ONE if i == j else draw(entries) if i < j else SC_ZERO
              for j in range(n)] for i in range(n)]
    p = matmul(lower, upper)
    return matmul(matmul(p, d), invert(p))


def split_outcome(split, rows):
    """The (value, basis) pairs of a split, or its failure text and the
    pairs it found."""
    try:
        spaces = split(rows)
    except NotDiagonalizableOverField as exc:
        return str(exc), [(es.value, es.basis) for es in exc.found]
    return [(es.value, es.basis) for es in spaces]


def assert_same_split(rows):
    with deadline(10):
        four = split_outcome(lambda r: eigenspaces(r, ROOTS_OF_UNITY), rows)
        general = split_outcome(
            lambda r: eigensplit(r, DEFAULT_SPEC_POINTS), rows)
    assert four == general


class TestFiniteOrderSplit:
    @given(finite_order_matrices())
    @example(ROTATION)
    @example([[parse_scalar(x) for x in row] for row in ROOTLESS_BLOCKS[1]])
    @settings(max_examples=60)
    def test_four_roots_split_as_the_general_path(self, rows):
        # a finite-order map over Q(i) or Q(i)(s) has no eigenvalue in the
        # field outside +-1, +-i, so both splits agree, in their failures too
        assert_same_split(rows)

    def test_a_map_of_infinite_order_splits_differently(self):
        # diag(1, 2) breaks the premise: 2 is no root of unity
        rows = [[SC_ONE, SC_ZERO], [SC_ZERO, sc(2)]]
        with pytest.raises(NotDiagonalizableOverField,
                           match=r"span 1 of 2 dimensions .*\['1'\]"):
            eigenspaces(rows, ROOTS_OF_UNITY)
        assert [(str(es.value), es.basis) for es in eigensplit(
            rows, DEFAULT_SPEC_POINTS)] == [("1", [{0: SC_ONE}]),
                                            ("2", [{1: SC_ONE}])]

    def test_span_check_mutant_is_caught(self, monkeypatch):
        source = textwrap.dedent(inspect.getsource(exactla.eigenspaces))
        assert source.count("if total != n:") == 1
        scope = {}
        exec(source.replace("if total != n:", "if False:"), vars(exactla),
             scope)
        monkeypatch.setattr(exactla, "eigenspaces", scope["eigenspaces"])
        monkeypatch.setattr(sys.modules[__name__], "eigenspaces",
                            exactla.eigenspaces)
        with pytest.raises(pytest.fail.Exception):
            self.test_a_map_of_infinite_order_splits_differently()

    def test_candidate_mutant_is_caught(self, monkeypatch):
        # the same candidates without -i
        line = next(line for line in inspect.getsource(
            haar_modular).splitlines() if line.startswith("ROOTS_OF_UNITY"))
        assert line.count(", -SC_I)") == 1
        scope = {}
        exec(line.replace(", -SC_I)", ")"), vars(haar_modular), scope)
        monkeypatch.setattr(sys.modules[__name__], "ROOTS_OF_UNITY",
                            scope["ROOTS_OF_UNITY"])
        with pytest.raises(AssertionError):
            assert_same_split(ROTATION)


def constant_hermitian(entries):
    return [[Scalar.const(x) for x in row] for row in entries]


class TestGramCertificate:
    def test_positive_definite_exact(self):
        g = constant_hermitian([[GaussRat(2), GaussRat(1)],
                                [GaussRat(1), GaussRat(2)]])
        cert = gram_certificate(g, DEFAULT_SPEC_POINTS)
        assert cert.verdict == POSITIVE_DEFINITE
        assert cert.mode == "exact"

    def test_indefinite_with_witness(self):
        g = constant_hermitian([[GaussRat(1), GaussRat(0)],
                                [GaussRat(0), GaussRat(-1)]])
        cert = gram_certificate(g, DEFAULT_SPEC_POINTS)
        assert cert.verdict == INDEFINITE
        assert cert.witness is not None
        assert cert.witness_value.substitute(Fraction(1, 2)).sign() < 0

    def test_semidefinite(self):
        g = constant_hermitian([[GaussRat(1), GaussRat(0)],
                                [GaussRat(0), GaussRat(0)]])
        cert = gram_certificate(g, DEFAULT_SPEC_POINTS)
        assert cert.verdict == POSITIVE_SEMIDEFINITE

    def test_non_hermitian_is_indefinite(self):
        g = [[SC_ONE, Scalar.s_power(1)], [SC_ZERO, SC_ONE]]
        cert = gram_certificate(g, DEFAULT_SPEC_POINTS)
        assert cert.verdict == INDEFINITE

    def test_s_dependent_certified_at_points(self):
        g = [[Scalar.s_power(2), SC_ZERO], [SC_ZERO, Scalar.s_power(-2)]]
        cert = gram_certificate(g, DEFAULT_SPEC_POINTS)
        assert cert.verdict == POSITIVE_DEFINITE
        assert cert.mode == "at-specializations"
        assert [p for p, _v in cert.per_point] == \
            [str(p) for p in DEFAULT_SPEC_POINTS]

    @settings(max_examples=40)
    @given(rational_matrices(max_size=3, square=False))
    def test_gram_of_squares_matches_sympy_verdict(self, a):
        # G = A^H A is always positive semidefinite; definite iff A has
        # full column rank.
        at = [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]
        g = matmul(at, a)
        cert = gram_certificate(g, DEFAULT_SPEC_POINTS)
        if rank(a) == len(a[0]):
            assert cert.verdict == POSITIVE_DEFINITE
        else:
            assert cert.verdict == POSITIVE_SEMIDEFINITE
        sym = matrix_to_sympy(g)
        assert sym.is_positive_semidefinite
