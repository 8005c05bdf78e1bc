"""Independent references used to cross-check exact arithmetic.

The library never imports sympy; these helpers re-evaluate rendered scalar
literals with a completely separate engine so the two implementations can
disagree loudly in tests.  dense_rref is the textbook dense Gauss-Jordan
elimination, the reference for the library's sparse one, and
coproduct_matrix the dense n^2 x n matrix of a coproduct's sparse columns.
"""

from __future__ import annotations

import sympy
from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                        standard_transformations)

from hopf_forge.scalars import SC_ZERO

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
