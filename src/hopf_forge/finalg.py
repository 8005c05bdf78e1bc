"""Finite-dimensional *-algebras given by structure constants.

A FinAlgebra stores a basis (labels), a sparse multiplication table, the
unit, and optionally a conjugate-linear star map.  An element of A, and a
functional on A, is the sparse {i: c} of its nonzero coefficients at e_i
(or values at e_i), the form of a LinMap column and of a table entry; no
zero is stored, so dict equality is equality.  The dense unit, as a .qg
file declares it, is a view built on each read.  build_algebra finds a
generating set, verifies associativity, verifies a known unit or solves
for it, and verifies the star axioms, raising StructureError with a
concrete witness on any violation.

A LinMap keeps sparse columns, and form_map reads the form omega(e_i e_j)
of a functional into one.  An element of a tensor product (TensorAlgebra,
TensorMap) is the sparse {(i, j): c} of its nonzero coefficients at
e_i(x)f_j, and has no dense coordinates.
"""

from __future__ import annotations

from itertools import islice
from operator import ne

from .errors import StructureError
from .exactla import (SolutionSpace, _one_like, dense_row, gram_certificate,
                      insert_mod_p, invert, rank, rref, solve_affine,
                      sparse_row, terms_mod_p)
from .scalars import _MOD_P, RANK_POINTS, SC_ONE, SC_ZERO, Scalar


class LinMap:
    """A (conjugate-)linear map in coordinates: v -> M v, or v -> M conj(v).

    columns[j] is the image of the j-th basis vector as a sparse column
    {row: coefficient} with no zero entries; n_out is the length of an
    image.  LinMap(rows) reads a dense matrix, and .matrix rebuilds one on
    each read; apply, transpose, compose and left_inverse work on the columns
    and read no dense matrix.
    """

    def __init__(self, rows: list, conjugate_linear: bool = False):
        self.columns = [sparse_row(col) for col in zip(*rows)]
        self.n_out = len(rows)
        self.conjugate_linear = conjugate_linear

    @staticmethod
    def of_columns(columns: list, n_out: int,
                   conjugate_linear: bool = False) -> "LinMap":
        """Wrap sparse columns, which must store no zero, without a copy."""
        m = LinMap.__new__(LinMap)
        m.columns = columns
        m.n_out = n_out
        m.conjugate_linear = conjugate_linear
        return m

    @staticmethod
    def identity(n: int) -> "LinMap":
        return LinMap.of_columns([{i: SC_ONE} for i in range(n)], n, False)

    @property
    def n_in(self) -> int:
        return len(self.columns)

    @property
    def matrix(self) -> list:
        """The dense n_out x n_in matrix, built on each read."""
        rows = [[SC_ZERO] * self.n_in for _ in range(self.n_out)]
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                rows[i][j] = c
        return rows

    def apply(self, x: dict) -> dict:
        """The image of x = {j: x_j}, the sum of x_j (or conj(x_j)) times
        column j, as a sparse column."""
        out = {}
        for j, xj in x.items():
            if self.conjugate_linear:
                xj = xj.conjugate()
            for i, c in self.columns[j].items():
                out[i] = out.get(i, SC_ZERO) + xj * c
        return {i: c for i, c in out.items() if not c.is_zero}

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        return LinMap.of_columns(
            [self.apply(col) for col in other.columns], self.n_out,
            self.conjugate_linear != other.conjugate_linear)

    def transpose(self) -> "LinMap":
        """The map of the transposed matrix, with the same flag."""
        rows = [{} for _ in range(self.n_out)]
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                rows[i][j] = c
        return LinMap.of_columns(rows, self.n_in, self.conjugate_linear)

    def left_inverse(self) -> "LinMap":
        """The L with L M = id for an injective M, reading x off Mx at M's
        pivot rows, so y lies in the image exactly when M(Ly) = y.

        The rows [c_a | e_a] of the columns c_a are reduced once; a row that
        leads past n_out is a vanishing combination of columns, and raises
        StructureError.  Pivot row r, leading at p_r, is sum_a T[r][a] [c_a |
        e_a], so column p_r of L is T[r].  The entries keep their field, as
        exactla.invert's do, and a conjugate-linear L has them conjugated.
        """
        n, conj = self.n_out, self.conjugate_linear
        one = _one_like(next(
            (x for col in self.columns for x in col.values()), SC_ZERO))
        aug = [{**col, n + a: one} for a, col in enumerate(self.columns)]
        lead = dict(zip(rref(aug), aug))
        if any(p >= n for p in lead):
            raise StructureError("map is not injective")
        return LinMap.of_columns([
            {j - n: x.conjugate() if conj else x
             for j, x in lead.get(p, {}).items() if j >= n}
            for p in range(n)], self.n_in, conj)

    def inverse(self) -> "LinMap":
        """The left inverse of a square map."""
        if self.n_in != self.n_out:
            raise StructureError("map is not invertible")
        return self.left_inverse()

    def is_bijective(self) -> bool:
        # the rank of the columns is the rank of the matrix
        return (self.n_in == self.n_out
                and rank(self.columns, self.n_out) == self.n_in)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.n_out == other.n_out
                and self.conjugate_linear == other.conjugate_linear
                and self.columns == other.columns)


def apply_functional(phi: dict, v: dict) -> Scalar:
    """phi(v) = sum phi_i v_i, over the indices that both store."""
    if len(phi) < len(v):
        phi, v = v, phi
    acc = SC_ZERO
    for i, x in v.items():
        c = phi.get(i)
        if c is not None:
            acc = acc + c * x
    return acc


class FinAlgebra:
    """Associative unital algebra over the scalar field, by structure constants.

    mul maps a basis index pair (i, j) to the sparse expansion of e_i e_j
    as {k: coefficient}.  Absent pairs multiply to zero.  one is the unit
    as {i: c}.  generators are every index, unless build_algebra has proved
    that fewer generate.
    """

    def __init__(self, labels: list, mul: dict, one: dict | None,
                 star: LinMap | None = None, name: str = ""):
        self.labels = labels
        self.mul = mul
        self.one = one
        self.star = star
        self.name = name
        self.generators = list(range(len(labels)))
        # left_products[i] maps k to e_i e_k over the nonzero products
        self.left_products = [{} for _ in labels]
        for (i, k), ent in mul.items():
            if ent:
                self.left_products[i][k] = ent

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def unit(self) -> list:
        """The unit in dense coordinates, built on each read: the row a .qg
        file declares and is written with."""
        return dense_row(self.one, self.dim, SC_ZERO)

    def multiply(self, x: dict, y: dict) -> dict:
        """The product xy, from the nonzero entries of the table."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                ent = self.mul.get((i, j))
                if not ent:
                    continue
                c = xi * yj
                for k, coeff in ent.items():
                    out[k] = out.get(k, SC_ZERO) + c * coeff
        return {k: c for k, c in out.items() if not c.is_zero}

    def left_mul(self, x: dict) -> LinMap:
        """The map y -> x y."""
        return LinMap.of_columns([self.multiply(x, {j: SC_ONE})
                                  for j in range(self.dim)], self.dim)

    def right_mul(self, x: dict) -> LinMap:
        """The map y -> y x."""
        return LinMap.of_columns([self.multiply({j: SC_ONE}, x)
                                  for j in range(self.dim)], self.dim)

    def format_element(self, x: dict) -> str:
        terms = []
        for i in sorted(x):
            c = x[i]
            if c.is_one:
                terms.append(self.labels[i])
            else:
                terms.append("(%s)*%s" % (c, self.labels[i]))
        return " + ".join(terms) if terms else "0"


def generating_set(alg: FinAlgebra) -> list:
    """Basis indices G, in basis order, whose nonempty left-normed words
    ((g1 g2) g3)... span alg; every index if no point serves.

    A candidate joins G when it lies outside the span W of the words of G,
    which is then closed under right multiplication by G; candidates whose
    square stays on their own line (the unit, an idempotent) come last.
    Words are formed mod p at the first point of RANK_POINTS where every
    structure constant has an image.  W reaching dimension n there puts n
    words with independent images in hand, and so independent words, by
    the argument in exactla.rank's docstring.
    """
    n = alg.dim
    for s0 in RANK_POINTS:
        table = {key: terms_mod_p(ent.items(), s0)
                 for key, ent in alg.mul.items()}
        if None not in table.values():
            break
    else:
        return list(range(n))

    def times(v: dict, g: int) -> dict:
        out = {}
        for i, vi in v.items():
            for k, c in table.get((i, g), {}).items():
                out[k] = (out.get(k, 0) + vi * c) % _MOD_P
        return {k: c for k, c in out.items() if c}

    pivots, gens = {}, []
    for g in sorted(range(n), key=lambda i: set(table.get((i, i), ())) <= {i}):
        if len(pivots) == n:
            break
        new = insert_mod_p(pivots, {g: 1})
        if new is None:
            continue
        # every row of W times g, and the new row times the older generators
        todo = [(w, g) for w in pivots.values()] + [(new, h) for h in gens]
        gens.append(g)
        while todo:
            new = insert_mod_p(pivots, times(*todo.pop()))
            if new is not None:
                todo += [(new, h) for h in gens]
    return sorted(gens)


def proved_on_generators(alg: FinAlgebra, failures) -> list:
    """failures(range(n)), or failures(alg.generators) when that is empty.

    failures(rows) lists, in full-loop order, where an identity fails with
    one basis slot over rows.  Each identity holds on a subspace closed
    under products, given premises checked before it, so holding on the
    generators it holds on A (generating_set).  For a, a' in it:
    - associativity, slot b of (ab)c = a(bc) (_check_associativity): on
      the middle nucleus, (x(aa'))y = ((xa)a')y = (xa)(a'y) = x(a(a'y)) =
      x((aa')y) (Light's test; Clifford & Preston, The Algebraic Theory of
      Semigroups I, 1961, 1.2).  No premise.
    - D(ab) = D(a)D(b) (mhopf.attach_coproduct), eps(ab) = eps(a)eps(b)
      (mhopf.derive_counit_antipode) and f(ab) = f(a)f(b)
      (duality.verify_qg_morphism), slot a: D(aa'b) = D(a)D(a'b) =
      D(a)D(a')D(b) = D(aa')D(b), and likewise for eps and f.  Premise:
      associative algebras, for f the target as well (build_algebra), and
      so A(x)A.
    - (ab)* = b*a* (_check_star), slot a: ((aa')b)* = (a'b)*a* = b*a'*a*
      = b*(aa')*.  Premise: associativity, checked before it.
    - (D(x)i)D = (i(x)D)D (attach_coproduct) and D(a*) = D(a)*
      (mhopf.check_star_compat): both sides are multiplicative, or both
      anti-multiplicative, so they agree on a subalgebra.  Premises: D
      multiplicative, checked first in attach_coproduct, and the star
      anti-multiplicative (build_algebra), and so that of A(x)A.
    - e^a e^b = sum_k D(e_k)[a, b] e^k on A' (mhopf._proved_transposed):
      A' associative is D coassociative, as the same scalar equations (the
      bialgebra axioms are self-dual; Sweedler, Hopf Algebras, 1969, ch. 1;
      Abe, 1980, 2.1); by the first bullet, slot b over G' of A'.
    - D'(e^k) = sum m^k_ij e^i (x) e^j on A', for e_i e_j = sum m^k_ij e_k:
      D'(ab) = D'(a)D'(b) is D multiplicative, likewise; slot a over G', as
      in the D bullet.  Premise: A' associative, checked first.
    """
    found = failures(alg.generators)
    if found and len(alg.generators) < alg.dim:
        found = failures(range(alg.dim))
    return found


def failing_pairs(alg: FinAlgebra, sides, limit: int = 1) -> list:
    """The first limit pairs (i, j) at which the two values sides(i, j)
    differ, by proved_on_generators with i the slot."""
    n = alg.dim
    return proved_on_generators(alg, lambda rows: list(islice(
        ((i, j) for i in rows for j in range(n) if ne(*sides(i, j))), limit)))


def _check_associativity(alg: FinAlgebra) -> None:
    """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, by Light's test
    (proved_on_generators), each side one product of a table entry and a
    basis element.  The first failing triple in (i, j, k) order is
    reported."""
    n = alg.dim
    mul, left = alg.mul, alg.left_products
    # when e_i e_j = 0, only the k with e_j e_k != 0 can fail
    after = [sorted(row) for row in left]

    def sides(i, j, k):
        return (alg.multiply(mul.get((i, j), {}), {k: SC_ONE}),
                alg.multiply({i: SC_ONE}, mul.get((j, k), {})))
    bad = proved_on_generators(alg, lambda middle: list(islice(
        ((i, j, k) for i in range(n) for j in middle
         for k in (range(n) if j in left[i] else after[j])
         if ne(*sides(i, j, k))), 1)))
    for i, j, k in bad:
        lhs, rhs = sides(i, j, k)
        raise StructureError(
            "associativity fails at (%s, %s, %s): (ab)c = %s but a(bc) = %s"
            % (alg.labels[i], alg.labels[j], alg.labels[k],
               alg.format_element(lhs), alg.format_element(rhs)))


def _solve_unit(alg: FinAlgebra) -> SolutionSpace:
    """The u with u e_i = e_i and e_i u = e_i for every i, as the solution
    space of those laws; the caller names an empty one.

    A two-sided unit is unique, u' = u'u = u, with no associativity needed,
    so a nonempty solution space has dimension 0.  The rows are exactly
    those two laws at every basis element, so the solution is a two-sided
    unit by linearity, and no unit law needs a check of its own.  On the
    transposed table of a coproduct they are the counit laws
    (mhopf.derive_counit_antipode).
    """
    n = alg.dim
    # row (i, k, 0) of e_i u = e_i and row (i, k, 1) of u e_i = e_i hold
    # the coefficient of e_k in e_i e_j and in e_j e_i at the unknown u_j
    laws = {(i, k, side): {} for i in range(n) for k in range(n)
            for side in (0, 1)}
    for (i, j), ent in alg.mul.items():
        for k, c in ent.items():
            laws[i, k, 0][j] = c
            laws[j, k, 1][i] = c
    return solve_affine(list(laws.values()), [
        SC_ONE if k == i else SC_ZERO for i, k, _side in laws], n)


def _check_star(alg: FinAlgebra) -> None:
    star = alg.star
    n = alg.dim
    if star.n_in != n or star.n_out != n:
        raise StructureError("star map has wrong shape")
    if not star.conjugate_linear:
        raise StructureError("star map must be conjugate-linear")
    twice = star.compose(star)
    if twice != LinMap.identity(n):
        raise StructureError("star is not an involution")
    starred = star.columns

    def sides(i, j):
        return (star.apply(alg.mul.get((i, j), {})),
                alg.multiply(starred[j], starred[i]))
    for i, j in failing_pairs(alg, sides):
        lhs, rhs = sides(i, j)
        raise StructureError(
            "star is not anti-multiplicative at (%s, %s): "
            "star(ab) = %s but star(b) star(a) = %s"
            % (alg.labels[i], alg.labels[j],
               alg.format_element(lhs), alg.format_element(rhs)))
    if star.apply(alg.one) != alg.one:
        raise StructureError("star does not fix the unit")


def build_algebra(labels, mul, star=None, name="", unit=None) -> FinAlgebra:
    """Construct and fully verify a finite-dimensional (*-)algebra.

    The generating set is found first, then associativity, the unit and
    the star, a LinMap when given.  A candidate unit u, when given, is the
    unit if u e_i = e_i = e_i u for every i, as a unit is unique (u' =
    u'u = u; Bourbaki, Algebra I, ch. I, 2.1); otherwise the unit is
    solved for (_solve_unit).
    """
    alg = FinAlgebra(list(labels), dict(mul), None, star, name=name)
    alg.generators = generating_set(alg)
    _check_associativity(alg)
    if unit is None or any(
            alg.multiply(unit, {i: SC_ONE}) != {i: SC_ONE}
            or alg.multiply({i: SC_ONE}, unit) != {i: SC_ONE}
            for i in range(alg.dim)):
        sol = _solve_unit(alg)
        if sol.is_empty:
            raise StructureError("algebra %r has no unit" % alg.name)
        unit = sol.particular
    alg.one = unit
    if alg.star is not None:
        _check_star(alg)
    return alg


def _rows_of(terms: dict) -> dict:
    """{(i, j): c} regrouped by i as {i: {j: c}}."""
    rows = {}
    for (i, j), c in terms.items():
        rows.setdefault(i, {})[j] = c
    return rows


class TensorMap:
    """f(x)g for linear maps f and g, read from their sparse columns."""

    def __init__(self, f: LinMap, g: LinMap):
        self.f, self.g = f, g

    def apply(self, x: dict) -> dict:
        """(f(x)g)(x) for x given as {(a, b): c}, in that shape with no zero
        entry."""
        out = {}
        for (a, b), c in x.items():
            for i, fa in self.f.columns[a].items():
                w = c * fa
                for j, gb in self.g.columns[b].items():
                    t = (i, j)
                    out[t] = out.get(t, SC_ZERO) + w * gb
        return {t: c for t, c in out.items() if not c.is_zero}


class TensorAlgebra:
    """The tensor product a(x)b of two FinAlgebras.

    An element is {(i, j): c}, the nonzero coefficients of e_i(x)f_j; no
    zero is stored and no dense coordinate is formed.  No product table is
    kept: (e_i(x)f_j)(e_k(x)f_m) = e_i e_k (x) f_j f_m is expanded from the
    factors' sparse tables over the terms of both operands, and the star is
    applied factor by factor.  The construction is componentwise, so the
    axioms are inherited and not re-verified.
    """

    def __init__(self, a: FinAlgebra, b: FinAlgebra):
        self.factors = (a, b)

    def multiply(self, x: dict, y: dict) -> dict:
        """The product xy.  Only the nonzero products of the factors' basis
        elements are visited (FinAlgebra.left_products)."""
        a, b = self.factors
        a_left, b_left = a.left_products, b.left_products
        ys = _rows_of(y)
        out = {}
        for i, xrow in _rows_of(x).items():
            for k, left in a_left[i].items():
                yrow = ys.get(k)
                if yrow is None:
                    continue
                for j, xij in xrow.items():
                    for m, right in b_left[j].items():
                        if m not in yrow:
                            continue
                        c = xij * yrow[m]
                        for p, cp in left.items():
                            cl = c if cp.is_one else c * cp
                            for q, cq in right.items():
                                t = (p, q)
                                out[t] = out.get(t, SC_ZERO) + (
                                    cl if cq.is_one else cl * cq)
        return {t: c for t, c in out.items() if not c.is_zero}

    def apply_star(self, x: dict) -> dict:
        a, b = self.factors
        if a.star is None or b.star is None:
            name = "%s(x)%s" % (a.name or "A", b.name or "B")
            raise StructureError("algebra %r has no star structure" % name)
        return TensorMap(a.star, b.star).apply(
            {t: c.conjugate() for t, c in x.items()})


def tensor_algebra(a: FinAlgebra, b: FinAlgebra) -> TensorAlgebra:
    """Tensor product algebra; products are computed on demand from the
    factors (see TensorAlgebra)."""
    return TensorAlgebra(a, b)


def transform_basis(alg: FinAlgebra, p_cols: list, labels=None) -> FinAlgebra:
    """The same algebra in the basis f_j = sum_i P[i][j] e_i, P given as
    dense rows."""
    n = alg.dim
    pinv_rows = invert(p_cols)
    if pinv_rows is None:
        raise StructureError("basis transform matrix is singular")
    pinv = LinMap(pinv_rows)
    p = LinMap(p_cols)
    mul = {}
    for i in range(n):
        for j in range(n):
            ent = pinv.apply(alg.multiply(p.columns[i], p.columns[j]))
            if ent:
                mul[(i, j)] = ent
    unit = pinv.apply(alg.one)
    star = None
    if alg.star is not None:
        star = pinv.compose(alg.star).compose(p)
    new_labels = labels if labels is not None else ["f%d" % i for i in range(n)]
    return FinAlgebra(new_labels, mul, unit, star, name=alg.name)


def form_map(alg: FinAlgebra, omega: dict) -> LinMap:
    """The form B[i][j] = omega(e_i e_j) of a functional, as the map whose
    column j is {i: B[i][j]}, read from the sparse structure table."""
    cols = [{} for _ in range(alg.dim)]
    for (i, j), ent in alg.mul.items():
        b = apply_functional(omega, ent)
        if not b.is_zero:
            cols[j][i] = b
    return LinMap.of_columns(cols, alg.dim)


def gram_matrix(alg: FinAlgebra, phi: dict) -> list:
    """G[i][j] = phi(star(e_i) e_j), dense: row i is column i of B^T o star,
    with B the form of phi (form_map)."""
    if alg.star is None:
        raise StructureError("Gram matrix needs a star structure")
    return [dense_row(col, alg.dim, SC_ZERO) for col in
            form_map(alg, phi).transpose().compose(alg.star).columns]


def gram_psd(alg: FinAlgebra, phi: dict, spec_points):
    """Positivity certificate for the sesquilinear form phi(star(a) b)."""
    return gram_certificate(gram_matrix(alg, phi), spec_points)
