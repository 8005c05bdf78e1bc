"""Finite-dimensional *-algebras given by structure constants.

A FinAlgebra stores a basis (labels), a sparse multiplication table, the
unit in coordinates, and optionally a conjugate-linear star map.  Elements
are coordinate vectors of Scalars.  build_algebra verifies associativity,
the unit laws (solving for the unit when it is not supplied), and the star
axioms, raising StructureError with a concrete witness on any violation.
"""

from __future__ import annotations

from .errors import StructureError
from .exactla import gram_certificate, invert, rank, solve_affine
from .scalars import SC_ONE, SC_ZERO, Scalar


class LinMap:
    """A (conjugate-)linear map in coordinates: v -> M v, or v -> M conj(v).

    columns[j] is the image of the j-th basis vector as a sparse column
    {row: coefficient} with no zero entries; n_out is the length of an
    image.  LinMap(rows) reads a dense matrix, and .matrix rebuilds one on
    each read.
    """

    def __init__(self, rows: list, conjugate_linear: bool = False):
        n_in = len(rows[0]) if rows else 0
        self.columns = [{i: row[j] for i, row in enumerate(rows)
                         if not row[j].is_zero} for j in range(n_in)]
        self.n_out = len(rows)
        self.conjugate_linear = conjugate_linear

    @staticmethod
    def _of_columns(columns: list, n_out: int,
                    conjugate_linear: bool) -> "LinMap":
        m = LinMap.__new__(LinMap)
        m.columns = columns
        m.n_out = n_out
        m.conjugate_linear = conjugate_linear
        return m

    @staticmethod
    def identity(n: int) -> "LinMap":
        return LinMap._of_columns([{i: SC_ONE} for i in range(n)], n, False)

    @staticmethod
    def from_images(images: list, conjugate_linear: bool = False) -> "LinMap":
        """Build from the list of basis-vector images (image j = of e_j)."""
        return LinMap._of_columns(
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

    def _image(self, terms) -> dict:
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
        for i, c in self._image((j, x) for j, x in enumerate(v)
                                if not x.is_zero).items():
            out[i] = c
        return out

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        return LinMap._of_columns(
            [self._image(col.items()) for col in other.columns], self.n_out,
            self.conjugate_linear != other.conjugate_linear)

    def inverse(self) -> "LinMap":
        minv = invert(self.matrix)
        if minv is None:
            raise StructureError("map is not invertible")
        if self.conjugate_linear:
            minv = [[x.conjugate() for x in row] for row in minv]
        return LinMap(minv, self.conjugate_linear)

    def is_bijective(self) -> bool:
        return self.n_in == self.n_out and rank(self.matrix) == self.n_in

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
    as {k: coefficient}.  Absent pairs multiply to zero.
    """

    def __init__(self, labels: list, mul: dict, unit: list,
                 star: LinMap | None = None, name: str = ""):
        self.labels = labels
        self.mul = mul
        self.unit = unit
        self.star = star
        self.name = name

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


def _sparse_sum(pairs) -> dict:
    """sum c * ent over the (c, ent) pairs, ent a sparse {k: coefficient}."""
    out = {}
    for c, ent in pairs:
        for q, cq in ent.items():
            out[q] = out.get(q, SC_ZERO) + c * cq
    return {q: c for q, c in out.items() if not c.is_zero}


def _check_associativity(alg: FinAlgebra) -> None:
    """(e_i e_j) e_k = e_i (e_j e_k) on every basis triple, compared on the
    sparse table.  The first failing triple in (i, j, k) order is reported,
    with both sides rebuilt as dense products for the message."""
    n = alg.dim
    mul = alg.mul
    for i in range(n):
        for j in range(n):
            left_ij = mul.get((i, j), {})
            for k in range(n):
                lhs = _sparse_sum((c, mul.get((p, k), {}))
                                  for p, c in left_ij.items())
                rhs = _sparse_sum((c, mul.get((i, r), {}))
                                  for r, c in mul.get((j, k), {}).items())
                if lhs != rhs:
                    ei, ej, ek = alg.basis(i), alg.basis(j), alg.basis(k)
                    lhs = alg.multiply(alg.multiply(ei, ej), ek)
                    rhs = alg.multiply(ei, alg.multiply(ej, ek))
                    raise StructureError(
                        "associativity fails at (%s, %s, %s): (ab)c = %s but a(bc) = %s"
                        % (alg.labels[i], alg.labels[j], alg.labels[k],
                           alg.format_element(lhs), alg.format_element(rhs)))


def _solve_unit(alg: FinAlgebra) -> list:
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


def _check_unit(alg: FinAlgebra) -> None:
    for i in range(alg.dim):
        ei = alg.basis(i)
        if alg.multiply(alg.unit, ei) != ei:
            raise StructureError(
                "left unit law fails at %s" % alg.labels[i])
        if alg.multiply(ei, alg.unit) != ei:
            raise StructureError(
                "right unit law fails at %s" % alg.labels[i])


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
    for i in range(n):
        for j in range(n):
            lhs = star.apply(alg.basis_product(i, j))
            rhs = alg.multiply(starred[j], starred[i])
            if lhs != rhs:
                raise StructureError(
                    "star is not anti-multiplicative at (%s, %s): "
                    "star(ab) = %s but star(b) star(a) = %s"
                    % (alg.labels[i], alg.labels[j],
                       alg.format_element(lhs), alg.format_element(rhs)))
    if star.apply(alg.unit) != alg.unit:
        raise StructureError("star does not fix the unit")


def build_algebra(labels, mul, unit=None, star=None, name="") -> FinAlgebra:
    """Construct and fully verify a finite-dimensional (*-)algebra.

    When unit is None it is solved for from the unit laws and must be unique.
    star, when given, is a LinMap.
    """
    alg = FinAlgebra(list(labels), dict(mul), unit, star, name=name)
    _check_associativity(alg)
    if alg.unit is None:
        alg.unit = _solve_unit(alg)
    _check_unit(alg)
    if alg.star is not None:
        _check_star(alg)
    return alg


def _rows_of(terms: dict) -> dict:
    """{(i, j): c} regrouped by i as {i: [(j, c), ...]}."""
    rows = {}
    for (i, j), c in terms.items():
        rows.setdefault(i, []).append((j, c))
    return rows


class TensorAlgebra(FinAlgebra):
    """The tensor product a(x)b on the basis e_i(x)f_j at index i*b.dim + j.

    No product table is kept: (e_i(x)f_j)(e_k(x)f_m) = e_i e_k (x) f_j f_m
    is expanded from the factors' sparse tables over the nonzero
    coordinates of both operands, and the star is applied factor by factor.
    The construction is componentwise, so the axioms are inherited and not
    re-verified.
    """

    def __init__(self, a: FinAlgebra, b: FinAlgebra):
        super().__init__(
            ["%s(x)%s" % (la, lb) for la in a.labels for lb in b.labels],
            None, [x * y for x in a.unit for y in b.unit], None,
            name="%s(x)%s" % (a.name or "A", b.name or "B"))
        self.factors = (a, b)
        self._star_columns = None
        if a.star is not None and b.star is not None:
            self._star_columns = (a.star.columns, b.star.columns)

    def terms(self, x: list) -> dict:
        """The nonzero coordinates of x as {(i, j): c}."""
        nb = self.factors[1].dim
        return {divmod(idx, nb): c for idx, c in enumerate(x)
                if not c.is_zero}

    def multiply(self, x: list, y: list) -> list:
        return self.multiply_terms(self.terms(x), self.terms(y))

    def multiply_terms(self, x: dict, y: dict) -> list:
        """The product of x and y given as {(i, j): c} (the shape of a
        Coproduct column), in dense coordinates."""
        a, b = self.factors
        nb = b.dim
        out = [SC_ZERO] * self.dim
        xs = _rows_of(x)
        ys = _rows_of(y)
        for i, xrow in xs.items():
            for k, yrow in ys.items():
                left = a.mul.get((i, k))
                if not left:
                    continue
                for j, xij in xrow:
                    for m, ykm in yrow:
                        right = b.mul.get((j, m))
                        if not right:
                            continue
                        c = xij * ykm
                        for p, cp in left.items():
                            cl = c if cp.is_one else c * cp
                            base = p * nb
                            for q, cq in right.items():
                                t = base + q
                                out[t] = out[t] + (cl if cq.is_one
                                                   else cl * cq)
        return out

    def apply_star(self, x: list) -> list:
        if self._star_columns is None:
            raise StructureError("algebra %r has no star structure"
                                 % self.name)
        cols_a, cols_b = self._star_columns
        nb = self.factors[1].dim
        out = [SC_ZERO] * self.dim
        for idx, c in enumerate(x):
            if c.is_zero:
                continue
            j, m = divmod(idx, nb)
            cc = c.conjugate()
            for i, sa in cols_a[j].items():
                ca = cc * sa
                for k, sb in cols_b[m].items():
                    t = i * nb + k
                    out[t] = out[t] + ca * sb
        return out


def tensor_algebra(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
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


def gram_matrix(alg: FinAlgebra, phi: list) -> list:
    """G[i][j] = phi(star(e_i) e_j)."""
    if alg.star is None:
        raise StructureError("Gram matrix needs a star structure")
    starred = [alg.apply_star(alg.basis(i)) for i in range(alg.dim)]
    return [[apply_functional(phi, alg.multiply(starred[i], alg.basis(j)))
             for j in range(alg.dim)] for i in range(alg.dim)]


def gram_psd(alg: FinAlgebra, phi: list, spec_points):
    """Positivity certificate for the sesquilinear form phi(star(a) b)."""
    g = gram_matrix(alg, phi)
    return g, gram_certificate(g, spec_points)
