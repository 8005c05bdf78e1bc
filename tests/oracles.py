"""Independent references used to cross-check exact arithmetic.

The library never imports sympy; these helpers re-evaluate rendered scalar
literals with a completely separate engine so the two implementations can
disagree loudly in tests.  dense_rref is the textbook dense Gauss-Jordan
elimination, the reference for the library's sparse one, and
coproduct_matrix the dense n^2 x n matrix of a coproduct's sparse columns.
dense_form and dense_gram build the form of a functional and its Gram
matrix from dense products, and orbit_closure closes an orbit under kappa
and its inverse, for the sparse forms and the Krylov orbit of the library.
The structure checks below run every basis pair or triple, the loops that
the library replaces by proofs from a generating set
(finalg.proved_on_generators), and raise or return what it does.  Elements
and functionals are the library's sparse {i: c}; basis(i) is e_i, and each
loop forms its products with FinAlgebra.multiply and LinMap.apply on basis
elements, not from table entries or map columns.
"""

from __future__ import annotations

import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from hopf_forge.errors import StructureError
from hopf_forge.exactla import rank, rref, solve_affine
from hopf_forge.finalg import (FinAlgebra, LinMap, _solve_unit,
                               apply_functional, tensor_algebra)
from hopf_forge.mhopf import Coproduct, QGData
from hopf_forge.scalars import SC_ONE, SC_ZERO

S = sympy.Symbol("s")

_TRANSFORMS = standard_transformations + (convert_xor,)
_LOCALS = {"s": S, "i": sympy.I}


def to_sympy(scalar) -> sympy.Expr:
    """Re-read a scalar through its rendered literal."""
    return parse_expr(str(scalar), local_dict=_LOCALS,
                      transformations=_TRANSFORMS)


def sympy_equal(scalar, expr) -> bool:
    """Does the scalar agree with a sympy expression identically in s?"""
    return sympy.simplify(to_sympy(scalar) - sympy.sympify(expr)) == 0


def gauss_to_sympy(value) -> sympy.Expr:
    """GaussRat (a + b i)/d as an exact sympy number."""
    return (sympy.Rational(value.a, value.d)
            + sympy.Rational(value.b, value.d) * sympy.I)


def matrix_to_sympy(rows) -> sympy.Matrix:
    return sympy.Matrix([[to_sympy(x) for x in row] for row in rows])


def dense_rref(rows):
    """(reduced rows, pivot columns) of dense rows by Gauss-Jordan
    elimination, column by column over every cell; rows is not changed."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((k for k in range(r, len(rows)) if not rows[k][c].is_zero),
                  None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for k in range(len(rows)):
            if k != r and not rows[k][c].is_zero:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
    return rows, pivots


def coproduct_matrix(coproduct):
    """The dense n^2 x n matrix of a Coproduct's sparse columns: row i*n + j
    holds the coefficients of e_i(x)e_j."""
    n = coproduct.n_in
    rows = [[SC_ZERO] * n for _ in range(n * n)]
    for k, col in enumerate(coproduct.columns):
        for (i, j), c in col.items():
            rows[i * n + j][k] = c
    return rows


def matrix_coproduct(rows):
    """The Coproduct of a dense n^2 x n matrix, read as coproduct_matrix
    writes one."""
    n = len(rows[0])
    return Coproduct([{divmod(r, n): row[k] for r, row in enumerate(rows)}
                      for k in range(n)])


def basis(i):
    """The basis element e_i as {i: 1}."""
    return {i: SC_ONE}


def dense_form(alg, omega):
    """B[i][j] = omega(e_i e_j), one product per pair."""
    n = alg.dim
    return [[apply_functional(omega, alg.multiply(basis(i), basis(j)))
             for j in range(n)] for i in range(n)]


def dense_gram(alg, phi):
    """G[i][j] = phi(star(e_i) e_j), one product per pair."""
    starred = [alg.star.apply(basis(i)) for i in range(alg.dim)]
    return [[apply_functional(phi, alg.multiply(starred[i], basis(j)))
             for j in range(alg.dim)] for i in range(alg.dim)]


def orbit_closure(md, a):
    """The reduced basis of the span of a closed under kappa and its
    inverse, both applied to every vector found until none is new."""
    n = md.kappa.n_in
    maps = (md.kappa, md.kappa.inverse())
    vecs = [a]
    current_rank = rank(vecs, n)
    changed = True
    while changed and current_rank < n:
        changed = False
        for m in maps:
            for v in list(vecs):
                img = m.apply(v)
                if rank(vecs + [img], n) > current_rank:
                    vecs.append(img)
                    current_rank += 1
                    changed = True
    reduced = list(vecs)
    rref(reduced)
    return [r for r in reduced if r]


def build_algebra_full(labels, mul, star=None, name=""):
    """build_algebra with associativity, both unit laws and the star's
    anti-multiplicativity checked on every basis triple or pair."""
    alg = FinAlgebra(list(labels), dict(mul), None, star, name=name)
    n = alg.dim
    e = basis
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = alg.multiply(alg.multiply(e(i), e(j)), e(k))
                rhs = alg.multiply(e(i), alg.multiply(e(j), e(k)))
                if lhs != rhs:
                    raise StructureError(
                        "associativity fails at (%s, %s, %s): (ab)c = %s but "
                        "a(bc) = %s" % (alg.labels[i], alg.labels[j],
                                        alg.labels[k], alg.format_element(lhs),
                                        alg.format_element(rhs)))
    sol = _solve_unit(alg)
    if sol.is_empty:
        raise StructureError("algebra %r has no unit" % name)
    if sol.kernel:
        raise StructureError(
            "unit of algebra %r is not unique (solution space dimension %d)"
            % (name, len(sol.kernel)))
    alg.one = sol.particular
    for i in range(n):
        if alg.multiply(alg.one, e(i)) != e(i):
            raise StructureError("left unit law fails at %s" % alg.labels[i])
        if alg.multiply(e(i), alg.one) != e(i):
            raise StructureError("right unit law fails at %s" % alg.labels[i])
    if star is None:
        return alg
    if star.n_in != n or star.n_out != n:
        raise StructureError("star map has wrong shape")
    if not star.conjugate_linear:
        raise StructureError("star map must be conjugate-linear")
    if star.compose(star) != LinMap.identity(n):
        raise StructureError("star is not an involution")
    for i in range(n):
        for j in range(n):
            lhs = star.apply(alg.multiply(e(i), e(j)))
            rhs = alg.multiply(star.apply(e(j)), star.apply(e(i)))
            if lhs != rhs:
                raise StructureError(
                    "star is not anti-multiplicative at (%s, %s): "
                    "star(ab) = %s but star(b) star(a) = %s"
                    % (alg.labels[i], alg.labels[j], alg.format_element(lhs),
                       alg.format_element(rhs)))
    if star.apply(alg.one) != alg.one:
        raise StructureError("star does not fix the unit")
    return alg


def _sparse(out: dict) -> dict:
    return {key: c for key, c in out.items() if not c.is_zero}


def tensor_product(alg, x: dict, y: dict) -> dict:
    """x y in A(x)A, both given as {(i, j): c}, over every pair of terms:
    the sum over (i, k) of e_i e_k (x) (sum over (j, m) of x_ij y_km e_j e_m).
    """
    out = {}
    for i, k in {(i, k) for i, _j in x for k, _m in y}:
        right = {}
        for (i2, j), c in x.items():
            for (k2, m), d in y.items():
                if (i2, k2) == (i, k):
                    for q, cq in alg.mul.get((j, m), {}).items():
                        right[q] = right.get(q, SC_ZERO) + c * d * cq
        for p, cp in alg.mul.get((i, k), {}).items():
            for q, cq in right.items():
                out[p, q] = out.get((p, q), SC_ZERO) + cp * cq
    return _sparse(out)


def attach_coproduct_full(alg, coproduct):
    """attach_coproduct with D(e_i e_j) = D(e_i)D(e_j) on every pair and
    coassociativity on every basis element."""
    n = alg.dim
    cols = coproduct.columns
    for i in range(n):
        for j in range(n):
            lhs = {}
            for k, x in alg.mul.get((i, j), {}).items():
                for key, c in cols[k].items():
                    lhs[key] = lhs.get(key, SC_ZERO) + x * c
            if _sparse(lhs) != tensor_product(alg, cols[i], cols[j]):
                raise StructureError(
                    "coproduct is not multiplicative at (%s, %s)"
                    % (alg.labels[i], alg.labels[j]))
    for k in range(n):
        left, right = {}, {}
        for (i, j), c in cols[k].items():
            for (a, b), d in cols[i].items():
                left[a, b, j] = left.get((a, b, j), SC_ZERO) + c * d
            for (a, b), d in cols[j].items():
                right[i, a, b] = right.get((i, a, b), SC_ZERO) + c * d
        if _sparse(left) != _sparse(right):
            raise StructureError(
                "coproduct is not coassociative at %s" % alg.labels[k])
    return QGData(alg, coproduct)


def check_counit_full(qg) -> None:
    """The counit solved from both counit laws, checked multiplicative on
    every basis pair; nothing is checked when it is not unique."""
    alg, n = qg.algebra, qg.dim
    rows, rhs = [], []
    for k, col in enumerate(qg.coproduct.columns):
        for t in range(n):
            rows.append({i: c for (i, j), c in col.items() if j == t})
            rows.append({j: c for (i, j), c in col.items() if i == t})
            rhs += [SC_ONE if t == k else SC_ZERO] * 2
    sol = solve_affine(rows, rhs, n)
    if sol.is_empty or sol.kernel:
        return
    eps = [sol.particular.get(k, SC_ZERO) for k in range(n)]
    for i in range(n):
        for j in range(n):
            value = SC_ZERO
            for k, c in alg.mul.get((i, j), {}).items():
                value = value + c * eps[k]
            if value != eps[i] * eps[j]:
                raise StructureError(
                    "solved counit is not multiplicative at (%s, %s)"
                    % (alg.labels[i], alg.labels[j]))


def star_compat_failures(qg) -> list:
    """The labels of the basis elements with D(a*) != D(a)*."""
    alg = qg.algebra
    star = alg.star
    tsq = tensor_algebra(alg, alg)
    return [alg.labels[i] for i in range(alg.dim)
            if qg.delta(star.apply(basis(i)))
            != tsq.apply_star(qg.delta(basis(i)))]


def morphism_failures(src, dst, lin) -> list:
    """The first three basis pairs, as labels, with f(xy) != f(x)f(y)."""
    a, b = src.algebra, dst.algebra
    n = a.dim
    f = [lin.apply(basis(k)) for k in range(n)]
    return [(a.labels[i], a.labels[j]) for i in range(n) for j in range(n)
            if lin.apply(a.multiply(basis(i), basis(j)))
            != b.multiply(f[i], f[j])][:3]
