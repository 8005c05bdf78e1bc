"""Finite-dimensional *-algebras given by structure constants.

A FinAlgebra stores a basis (labels), a sparse multiplication table, the
unit in coordinates, and optionally a conjugate-linear star map.  Elements
are coordinate vectors of Scalars.  build_algebra finds a generating set,
verifies associativity, solves for the unit and verifies the star axioms,
raising StructureError with a concrete witness on any violation.

A LinMap keeps sparse columns, and form_map reads the form omega(e_i e_j)
of a functional into one.  An element of a tensor product (TensorAlgebra,
TensorMap) is the sparse {(i, j): c} of its nonzero coefficients at
e_i(x)f_j, and has no dense coordinates.
"""

from __future__ import annotations

from itertools import islice
from operator import ne

from .errors import StructureError
from .exactla import (gram_certificate, insert_mod_p, invert, rank,
                      solve_affine, terms_mod_p)
from .scalars import _MOD_P, RANK_POINTS, SC_ONE, SC_ZERO, Scalar


class LinMap:
    """A (conjugate-)linear map in coordinates: v -> M v, or v -> M conj(v).

    columns[j] is the image of the j-th basis vector as a sparse column
    {row: coefficient} with no zero entries; n_out is the length of an
    image.  LinMap(rows) reads a dense matrix, and .matrix rebuilds one on
    each read; transpose, compose and inverse work on the columns and read
    no dense matrix.
    """

    def __init__(self, rows: list, conjugate_linear: bool = False):
        n_in = len(rows[0]) if rows else 0
        self.columns = [{i: row[j] for i, row in enumerate(rows)
                         if not row[j].is_zero} for j in range(n_in)]
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

    @staticmethod
    def from_images(images: list, conjugate_linear: bool = False) -> "LinMap":
        """Build from the list of basis-vector images (image j = of e_j)."""
        return LinMap.of_columns(
            [{i: x for i, x in enumerate(img) if not x.is_zero}
             for img in images],
            len(images[0]) if images else 0, conjugate_linear)

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

    def image(self, terms) -> dict:
        """The image of sum x_j e_j over the (j, x_j) pairs of terms, as a
        sparse column."""
        out = {}
        for j, x in terms:
            if self.conjugate_linear:
                x = x.conjugate()
            for i, c in self.columns[j].items():
                out[i] = out.get(i, SC_ZERO) + x * c
        return {i: c for i, c in out.items() if not c.is_zero}

    def apply(self, v: list) -> list:
        out = [SC_ZERO] * self.n_out
        for i, c in self.image((j, x) for j, x in enumerate(v)
                                if not x.is_zero).items():
            out[i] = c
        return out

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        return LinMap.of_columns(
            [self.image(col.items()) for col in other.columns], self.n_out,
            self.conjugate_linear != other.conjugate_linear)

    def transpose(self) -> "LinMap":
        """The map of the transposed matrix, with the same flag."""
        rows = [{} for _ in range(self.n_out)]
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                rows[i][j] = c
        return LinMap.of_columns(rows, self.n_in, self.conjugate_linear)

    def inverse(self) -> "LinMap":
        """The inverse, reduced on the columns: they are the rows of M^T,
        and the rows of (M^T)^-1 are the columns of M^-1."""
        cols = invert(self.columns) if self.n_in == self.n_out else None
        if cols is None:
            raise StructureError("map is not invertible")
        if self.conjugate_linear:
            cols = [{i: x.conjugate() for i, x in col.items()}
                    for col in cols]
        return LinMap.of_columns(cols, self.n_in, self.conjugate_linear)

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


def zero_vector(n: int) -> list:
    return [SC_ZERO] * n

def basis_vector(n: int, i: int) -> list:
    v = [SC_ZERO] * n
    v[i] = SC_ONE
    return v


def vec_combination(coeffs: list, vecs: list, n: int) -> list:
    """sum c_k v_k over the nonzero c_k, in dimension n."""
    out = zero_vector(n)
    for c, v in zip(coeffs, vecs):
        if not c.is_zero:
            out = [x + c * y for x, y in zip(out, v)]
    return out


def vec_is_zero(v: list) -> bool:
    return all(x.is_zero for x in v)


def apply_functional(phi: list, v: list) -> Scalar:
    acc = SC_ZERO
    for c, x in zip(phi, v):
        if not (c.is_zero or x.is_zero):
            acc = acc + c * x
    return acc


class FinAlgebra:
    """Associative unital algebra over the scalar field, by structure constants.

    mul maps a basis index pair (i, j) to the sparse expansion of e_i e_j
    as {k: coefficient}.  Absent pairs multiply to zero.  generators are
    every index, unless build_algebra has proved that fewer generate.
    """

    def __init__(self, labels: list, mul: dict, unit: list,
                 star: LinMap | None = None, name: str = ""):
        self.labels = labels
        self.mul = mul
        self.unit = unit
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

    def basis(self, i: int) -> list:
        return basis_vector(self.dim, i)

    def multiply(self, x: list, y: list) -> list:
        out = [SC_ZERO] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero]
        for i, xi in enumerate(x):
            if xi.is_zero:
                continue
            for j, yj in ys:
                ent = self.mul.get((i, j))
                if not ent:
                    continue
                c = xi * yj
                for k, coeff in ent.items():
                    out[k] = out[k] + c * coeff
        return out

    def basis_product(self, i: int, j: int) -> list:
        """e_i e_j as a dense vector, read from the structure constants."""
        ent = self.mul.get((i, j), {})
        return [ent.get(k, SC_ZERO) for k in range(self.dim)]

    def apply_star(self, x: list) -> list:
        if self.star is None:
            raise StructureError("algebra %r has no star structure" % self.name)
        return self.star.apply(x)

    def left_mul(self, x: list) -> LinMap:
        """The map y -> x y."""
        return LinMap.from_images([self.multiply(x, self.basis(j))
                                   for j in range(self.dim)])

    def right_mul(self, x: list) -> LinMap:
        """The map y -> y x."""
        return LinMap.from_images([self.multiply(self.basis(j), x)
                                   for j in range(self.dim)])

    def format_element(self, x: list) -> str:
        terms = []
        for i, c in enumerate(x):
            if c.is_zero:
                continue
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
      associative algebras (build_algebra), and so A(x)A.
    - (ab)* = b*a* (_check_star), slot a: ((aa')b)* = (a'b)*a* = b*a'*a*
      = b*(aa')*.  Premise: associativity, checked before it.
    - (D(x)i)D = (i(x)D)D (attach_coproduct) and D(a*) = D(a)*
      (mhopf.check_star_compat): both sides are multiplicative, or both
      anti-multiplicative, so they agree on a subalgebra.  Premises: D
      multiplicative, checked first in attach_coproduct, and the star
      anti-multiplicative (build_algebra), and so that of A(x)A.
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


def _sparse_sum(pairs) -> dict:
    """sum c * ent over the (c, ent) pairs, ent a sparse {k: coefficient}."""
    out = {}
    for c, ent in pairs:
        for q, cq in ent.items():
            out[q] = out.get(q, SC_ZERO) + c * cq
    return {q: c for q, c in out.items() if not c.is_zero}


def _check_associativity(alg: FinAlgebra) -> None:
    """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, by Light's test
    (proved_on_generators), compared on the sparse table.  The first
    failing triple in (i, j, k) order is reported, with both sides rebuilt
    as dense products for the message."""
    n = alg.dim
    mul, left = alg.mul, alg.left_products

    def associates(i, j, k):
        # both sides are zero when e_i e_j = 0 and e_j e_k = 0
        if j not in left[i] and k not in left[j]:
            return True
        return (_sparse_sum((c, mul.get((p, k), {}))
                            for p, c in mul.get((i, j), {}).items())
                == _sparse_sum((c, mul.get((i, r), {}))
                               for r, c in mul.get((j, k), {}).items()))
    bad = proved_on_generators(alg, lambda middle: list(islice(
        ((i, j, k) for i in range(n) for j in middle for k in range(n)
         if not associates(i, j, k)), 1)))
    for i, j, k in bad:
        ei, ej, ek = alg.basis(i), alg.basis(j), alg.basis(k)
        lhs = alg.multiply(alg.multiply(ei, ej), ek)
        rhs = alg.multiply(ei, alg.multiply(ej, ek))
        raise StructureError(
            "associativity fails at (%s, %s, %s): (ab)c = %s but a(bc) = %s"
            % (alg.labels[i], alg.labels[j], alg.labels[k],
               alg.format_element(lhs), alg.format_element(rhs)))


def _solve_unit(alg: FinAlgebra) -> list:
    """The unique u with u e_i = e_i and e_i u = e_i for every i.

    The rows are exactly those two laws at every basis element, so a unique
    solution is a two-sided unit by linearity, and no unit law needs a
    check of its own.
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
    sol = solve_affine(list(laws.values()), [
        SC_ONE if k == i else SC_ZERO for i, k, _side in laws], n)
    if sol.is_empty:
        raise StructureError("algebra %r has no unit" % alg.name)
    if sol.dimension != 0:
        raise StructureError(
            "unit of algebra %r is not unique (solution space dimension %d)"
            % (alg.name, sol.dimension))
    return sol.particular


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
    starred = [star.apply(alg.basis(i)) for i in range(n)]

    def sides(i, j):
        return (star.apply(alg.basis_product(i, j)),
                alg.multiply(starred[j], starred[i]))
    for i, j in failing_pairs(alg, sides):
        lhs, rhs = sides(i, j)
        raise StructureError(
            "star is not anti-multiplicative at (%s, %s): "
            "star(ab) = %s but star(b) star(a) = %s"
            % (alg.labels[i], alg.labels[j],
               alg.format_element(lhs), alg.format_element(rhs)))
    if star.apply(alg.unit) != alg.unit:
        raise StructureError("star does not fix the unit")


def build_algebra(labels, mul, star=None, name="") -> FinAlgebra:
    """Construct and fully verify a finite-dimensional (*-)algebra.

    The generating set is found first, the unit is solved for and must be
    unique, and star, when given, is a LinMap.
    """
    alg = FinAlgebra(list(labels), dict(mul), None, star, name=name)
    alg.generators = generating_set(alg)
    _check_associativity(alg)
    alg.unit = _solve_unit(alg)
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
    """The same algebra in the basis f_j = sum_i P[i][j] e_i."""
    n = alg.dim
    pinv_rows = invert(p_cols)
    if pinv_rows is None:
        raise StructureError("basis transform matrix is singular")
    pinv = LinMap(pinv_rows)
    mul = {}
    for i in range(n):
        fi = [p_cols[t][i] for t in range(n)]
        for j in range(n):
            fj = [p_cols[t][j] for t in range(n)]
            prod = pinv.apply(alg.multiply(fi, fj))
            ent = {k: c for k, c in enumerate(prod) if not c.is_zero}
            if ent:
                mul[(i, j)] = ent
    unit = pinv.apply(alg.unit)
    star = None
    if alg.star is not None:
        star = pinv.compose(alg.star).compose(LinMap(p_cols))
    new_labels = labels if labels is not None else ["f%d" % i for i in range(n)]
    return FinAlgebra(new_labels, mul, unit, star, name=alg.name)


def form_map(alg: FinAlgebra, omega: list) -> LinMap:
    """The form B[i][j] = omega(e_i e_j) of a functional, as the map whose
    column j is {i: B[i][j]}, read from the sparse structure table."""
    cols = [{} for _ in range(alg.dim)]
    for (i, j), ent in alg.mul.items():
        b = sum((omega[t] * m for t, m in ent.items()
                 if not omega[t].is_zero), SC_ZERO)
        if not b.is_zero:
            cols[j][i] = b
    return LinMap.of_columns(cols, alg.dim)


def gram_matrix(alg: FinAlgebra, phi: list) -> list:
    """G[i][j] = phi(star(e_i) e_j), dense: row i is column i of B^T o star,
    with B the form of phi (form_map)."""
    if alg.star is None:
        raise StructureError("Gram matrix needs a star structure")
    return [[col.get(j, SC_ZERO) for j in range(alg.dim)] for col in
            form_map(alg, phi).transpose().compose(alg.star).columns]


def gram_psd(alg: FinAlgebra, phi: list, spec_points):
    """Positivity certificate for the sesquilinear form phi(star(a) b)."""
    g = gram_matrix(alg, phi)
    return g, gram_certificate(g, spec_points)
