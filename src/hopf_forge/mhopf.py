"""Hopf structure on finite-dimensional algebras: coproduct attachment,
T-map bijectivity, derived counit/antipode, star compatibility, sub-object
checks, grouplike projections.

The coproduct is a plain linear map A -> A(x)A (the unital finite shadow,
where the multiplier algebra of the tensor square is the tensor square
itself).  The counit and antipode are never taken on faith: they are solved
for from their defining laws and required to be unique; declared tables, when
present, are cross-checked against the solved ones.  Once they verify, the
four canonical maps (T-maps) are bijective by their explicit inverses, so
the maps are built and ranked only when the derivation fails (check_tmaps).
"""

from __future__ import annotations

from .errors import CheckFailure, HopfForgeError, StructureError
from .exactla import (LinearAlgebraError, coordinates, solve_affine,
                      sparse_row)
from .exactla import rank as _rank
from .finalg import (FinAlgebra, LinMap, apply_functional, build_algebra,
                     tensor_algebra, vec_combination, vec_is_zero)
from .scalars import SC_ONE, SC_ZERO


def tensor_vec(x: list, y: list) -> list:
    """Coordinates of x(x)y in the tensor-square basis (i, j) -> i*len(y)+j."""
    out = []
    for xi in x:
        if xi.is_zero:
            out.extend([SC_ZERO] * len(y))
        else:
            out.extend([xi * yj for yj in y])
    return out


class TensorMap:
    """f(x)g for linear maps f and g, read from their sparse columns."""

    def __init__(self, f: LinMap, g: LinMap):
        self.f, self.g = f, g
        self.n_out = f.n_out * g.n_out

    def apply_terms(self, terms) -> list:
        """(f(x)g)(sum c e_a(x)e_b) over the ((a, b), c) pairs of terms."""
        m = self.g.n_out
        out = [SC_ZERO] * self.n_out
        for (a, b), c in terms:
            for i, fa in self.f.columns[a].items():
                w = c * fa
                for j, gb in self.g.columns[b].items():
                    t = i * m + j
                    out[t] = out[t] + w * gb
        return out

    def apply(self, v: list) -> list:
        return self.apply_terms((divmod(idx, self.g.n_in), c)
                                for idx, c in enumerate(v) if not c.is_zero)


class Coproduct:
    """A coproduct A -> A(x)A stored as one sparse column per basis element.

    columns[k] maps (i, j) to the nonzero coefficient of e_i(x)e_j in D(e_k),
    the shape of StructureDefinition.coproduct.  Dense coordinates use the
    tensor-square index i*n + j.
    """

    def __init__(self, columns: list):
        self.columns = [{key: c for key, c in col.items() if not c.is_zero}
                        for col in columns]

    @staticmethod
    def from_linmap(m: LinMap, n: int) -> "Coproduct":
        """Re-key the columns of a linear n^2 x n map by (i, j)."""
        if m.conjugate_linear:
            raise StructureError("a coproduct must be linear")
        return Coproduct([{divmod(idx, n): c for idx, c in col.items()}
                          for col in m.columns])

    @property
    def n_in(self) -> int:
        return len(self.columns)

    @property
    def n_out(self) -> int:
        return self.n_in * self.n_in

    def combine(self, terms) -> list:
        """sum x_k D(e_k) over the (k, x_k) pairs of terms, dense."""
        n = self.n_in
        out = [SC_ZERO] * (n * n)
        for k, xk in terms:
            for (i, j), c in self.columns[k].items():
                idx = i * n + j
                out[idx] = out[idx] + (c if xk.is_one else xk * c)
        return out

    def apply(self, x: list) -> list:
        return self.combine((k, xk) for k, xk in enumerate(x)
                            if not xk.is_zero)


class QGData:
    """Algebra plus verified coproduct; counit and antipode once derived,
    the left Haar functional once solved (haar_modular.left_haar) and S^2
    once composed (haar_modular.antipode_squared)."""

    def __init__(self, algebra: FinAlgebra, coproduct: Coproduct,
                 tensor_sq: FinAlgebra):
        self.algebra = algebra
        self.coproduct = coproduct
        self.tensor_sq = tensor_sq
        self.counit = None          # list
        self.antipode = None        # LinMap
        self.haar = None            # HaarSolution
        self.antipode_sq = None     # LinMap

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def delta(self, x: list) -> list:
        return self.coproduct.apply(x)


def attach_coproduct(alg: FinAlgebra, coproduct) -> QGData:
    """Verify the coproduct is an algebra morphism and coassociative.

    coproduct is a Coproduct or a linear n^2 x n LinMap.  Unitality of the
    coproduct is deliberately not required here; it is re-examined with the
    T-maps, so that morphism-level acceptance and bijectivity-level
    rejection stay separate stages.
    """
    n = alg.dim
    if coproduct.n_in != n or coproduct.n_out != n * n:
        raise StructureError(
            "coproduct must map the %d-dim algebra into its tensor square" % n)
    if isinstance(coproduct, LinMap):
        coproduct = Coproduct.from_linmap(coproduct, n)
    tsq = tensor_algebra(alg, alg)
    qg = QGData(alg, coproduct, tsq)
    cols = coproduct.columns
    for i in range(n):
        for j in range(n):
            lhs = coproduct.combine(alg.mul.get((i, j), {}).items())
            rhs = tsq.multiply_terms(cols[i], cols[j])
            if lhs != rhs:
                raise StructureError(
                    "coproduct is not multiplicative at (%s, %s)"
                    % (alg.labels[i], alg.labels[j]))
    for k in range(n):
        if _coassoc_defect(qg, k):
            raise StructureError(
                "coproduct is not coassociative at %s" % alg.labels[k])
    return qg


def _coassoc_defect(qg: QGData, k: int) -> bool:
    cols = qg.coproduct.columns
    left = {}
    right = {}
    for (i, j), c in cols[k].items():
        for (a, b), c2 in cols[i].items():
            key = (a, b, j)
            left[key] = left.get(key, SC_ZERO) + c * c2
        for (a, b), c2 in cols[j].items():
            key = (i, a, b)
            right[key] = right.get(key, SC_ZERO) + c * c2
    keys = set(left) | set(right)
    return any(left.get(key, SC_ZERO) != right.get(key, SC_ZERO) for key in keys)


# ---------------------------------------------------------------------------
# T-maps
# ---------------------------------------------------------------------------

TMAP_FORMULAS = ("D(a)(1(x)b)", "(a(x)1)D(b)", "D(a)(b(x)1)", "(1(x)a)D(b)")


class TMapView:
    def __init__(self, formula: str, rank: int, size: int):
        self.formula = formula
        self.rank = rank
        self.size = size

    @property
    def bijective(self) -> bool:
        return self.rank == self.size


class TMapReport:
    def __init__(self, maps: list, coproduct_unital: bool,
                 error: HopfForgeError | None = None):
        self.maps = maps
        self.coproduct_unital = coproduct_unital
        self.error = error  # raised by derive_counit_antipode

    @property
    def all_bijective(self) -> bool:
        return all(m.bijective for m in self.maps)

    def failures(self) -> list:
        return [m for m in self.maps if not m.bijective]


def unit_leg_product(qg: QGData, x: dict, y: list, shape: int) -> list:
    """x(1(x)y), x(y(x)1), (1(x)y)x or (y(x)1)x for shape 0, 1, 2 or 3.

    x is an element of the tensor square as {(i, j): c}, y one of the
    algebra; the product is dense.  The canonical maps and the sub-object
    and imbedding checks are all built from these four products (Van Daele,
    Trans. AMS 342, 1994).
    """
    unit = [(t, u) for t, u in enumerate(qg.algebra.unit) if not u.is_zero]
    ys = [(k, c) for k, c in enumerate(y) if not c.is_zero]
    if shape % 2 == 0:
        leg = {(t, k): u * c for t, u in unit for k, c in ys}
    else:
        leg = {(k, t): c * u for t, u in unit for k, c in ys}
    if shape < 2:
        return qg.tensor_sq.multiply_terms(x, leg)
    return qg.tensor_sq.multiply_terms(leg, x)


def _pair_products(qg: QGData, deltas: list, elems: list, shape: int) -> list:
    """The products of shape on every pair (a, b) of elems, in (a, b) order:
    D(a) with the leg b for shapes 0 and 1, and D(b) with the leg a for
    shapes 2 and 3, which read (1(x)a)D(b) and (a(x)1)D(b).  deltas[a] is
    D(elems[a]) as {(i, j): c}."""
    m = len(elems)
    return [unit_leg_product(qg, deltas[b], elems[a], shape) if shape > 1
            else unit_leg_product(qg, deltas[a], elems[b], shape)
            for a in range(m) for b in range(m)]


def _tmap_columns(qg: QGData, which: int) -> list:
    """The images of the basis e_i(x)e_j under T-map number which: T1 to T4
    are the products of shapes 0, 3, 1 and 2."""
    basis = [qg.algebra.basis(i) for i in range(qg.dim)]
    return _pair_products(qg, qg.coproduct.columns, basis,
                          (0, 3, 1, 2)[which])


def check_tmaps(qg: QGData, declared_counit=None,
                declared_antipode=None) -> TMapReport:
    """Bijectivity of the four canonical maps on the tensor square, with the
    counit and antipode derived on the way (qg gets them on success).

    All four bijective is the regularity condition at finite dimension.
    Also records whether the coproduct sends the unit to 1(x)1: computed
    when the derivation fails, and true by the theorem in
    derive_counit_antipode's docstring when it verifies.

    derive_counit_antipode runs first, with the declared tables.  When it
    verifies, the four maps have explicit inverses, and each is reported at
    rank n^2 of n^2 without being built:
    - T1(a(x)b) = D(a)(1(x)b) has T1^-1(a(x)b) = sum a_1 (x) S(a_2) b;
    - T2(a(x)b) = (a(x)1)D(b) has T2^-1(a(x)b) = sum a S(b_1) (x) b_2;
    - T3(a(x)b) = D(a)(b(x)1) and T4(a(x)b) = (1(x)a)D(b) are T1 and T2 of
      (A, D^op) followed by the flip of the legs, and S^-1 is the antipode
      of (A, D^op), so T3^-1(a(x)b) = sum b_2 (x) S^-1(b_1) a and
      T4^-1(a(x)b) = sum b S^-1(a_2) (x) a_1.
    (Van Daele, "Multiplier Hopf algebras", Trans. AMS 342, 1994; Radford,
    Hopf Algebras, 2012, ch. 7.)  Composing either way reduces to the
    identity by coassociativity, the two counit laws and the two antipode
    laws for T1 and T2; for T3 and T4, the antipode laws of S^-1 for D^op
    follow by applying S^-1 to those of S, which needs S anti-multiplicative,
    unital and bijective.  Coassociativity is checked by attach_coproduct,
    and both one-sided counit and antipode laws by construction in
    derive_counit_antipode; S is anti-multiplicative, unital and bijective
    by the theorem in its docstring, whose premises are checked there and
    by attach_coproduct.

    When derive_counit_antipode raises, the maps are built over Q(i)(s) and
    ranked exactly, and its error is kept in the report: the callers report
    the maps first and the error only when all four are bijective.
    """
    n2 = qg.dim ** 2
    try:
        derive_counit_antipode(qg, declared_counit, declared_antipode)
    except HopfForgeError as exc:
        error = exc
        # a matrix and its transpose have the same rank
        ranks = [_rank(_tmap_columns(qg, which))
                 for which in range(len(TMAP_FORMULAS))]
        unit = qg.algebra.unit
        unital = qg.delta(unit) == tensor_vec(unit, unit)
    else:
        error = None
        ranks = [n2] * len(TMAP_FORMULAS)
        unital = True
    views = [TMapView(formula, r, n2)
             for formula, r in zip(TMAP_FORMULAS, ranks)]
    return TMapReport(views, unital, error)


# ---------------------------------------------------------------------------
# counit and antipode
# ---------------------------------------------------------------------------

def derive_counit_antipode(qg: QGData, declared_counit=None,
                           declared_antipode=None) -> QGData:
    """Solve the counit and antipode laws; each solution must be unique.

    Both one-sided laws are stacked into a single linear system, so the
    solved map satisfies the two-sided law by construction.  The solved
    counit is verified multiplicative.  Declared tables, if any, must agree
    exactly with the solved ones.

    The rest is a theorem, not a check (Sweedler, Hopf Algebras, 1969,
    ch. 4; Larson & Sweedler, Amer. J. Math. 91, 1969):
    - eps(1) = 1, as eps(1) = eps(1)^2 and eps(1) = 0 would zero every
      eps(a) = eps(a)eps(1), against the counit law on a nonzero algebra;
    - S o m and m o (S(x)S) o flip are a left and a right convolution
      inverse of m in the maps A(x)A -> A, so S is anti-multiplicative;
    - T1(sum a_1 (x) S(a_2)b) = a(x)b, so the D(a)(1(x)b) span A(x)A, and
      D(1), a left unit on them as D(1)D(a) = D(a), is 1(x)1; the antipode
      law at 1 then reads S(1) = 1;
    - A is then a finite-dimensional Hopf algebra, so S is bijective
      (Larson-Sweedler).
    Each premise is checked first: D multiplicative and coassociative by
    attach_coproduct, the only constructor of QGData; A associative and
    unital by build_algebra, and nonzero, as the definition loader takes
    only nonempty bases and sub bases and a dual keeps its original's
    dimension; eps multiplicative by the loop below; the counit and
    antipode laws by the solves, whose solutions are unique.
    """
    alg = qg.algebra
    n = alg.dim
    cols = qg.coproduct.columns

    # row (k, t, 0) holds D(e_k)[i, t] at i, and row (k, t, 1) D(e_k)[t, j]
    laws = {(k, t, side): {} for k in range(n) for t in range(n)
            for side in (0, 1)}
    for k in range(n):
        for (i, j), c in cols[k].items():
            laws[k, j, 0][i] = c
            laws[k, i, 1][j] = c
    sol = solve_affine(list(laws.values()), [
        SC_ONE if t == k else SC_ZERO for k, t, _side in laws], n)
    if sol.is_empty:
        raise StructureError("counit laws have no solution")
    if sol.dimension != 0:
        raise StructureError(
            "counit is not unique (solution space dimension %d)" % sol.dimension)
    eps = sol.particular

    for i in range(n):
        for j in range(n):
            lhs = apply_functional(eps, alg.basis_product(i, j))
            if lhs != eps[i] * eps[j]:
                raise StructureError(
                    "solved counit is not multiplicative at (%s, %s)"
                    % (alg.labels[i], alg.labels[j]))

    # e_r e_j and e_i e_r have coefficient m at e_t:
    # by_right[j][t] and by_left[i][t] list those (r, m)
    by_right = [[[] for _ in range(n)] for _ in range(n)]
    by_left = [[[] for _ in range(n)] for _ in range(n)]
    for (a, b), ent in alg.mul.items():
        for t, m in ent.items():
            by_right[b][t].append((a, m))
            by_left[a][t].append((b, m))
    rows = []
    rhs = []
    for k in range(n):
        for t in range(n):
            row1 = {}
            row2 = {}
            for (i, j), c in cols[k].items():
                for r, m in by_right[j][t]:
                    row1[r * n + i] = row1.get(r * n + i, SC_ZERO) + c * m
                for r, m in by_left[i][t]:
                    row2[r * n + j] = row2.get(r * n + j, SC_ZERO) + c * m
            target = eps[k] * alg.unit[t]
            rows += [sparse_row(row1), sparse_row(row2)]
            rhs += [target, target]
    sol = solve_affine(rows, rhs, n * n)
    if sol.is_empty:
        raise StructureError("antipode laws have no solution")
    if sol.dimension != 0:
        raise StructureError(
            "antipode is not unique (solution space dimension %d)" % sol.dimension)
    smat = [[sol.particular[r * n + c] for c in range(n)] for r in range(n)]

    if declared_counit is not None and list(declared_counit) != eps:
        raise CheckFailure("declared-counit",
                           "declared counit disagrees with the solved one")
    if declared_antipode is not None and declared_antipode != smat:
        raise CheckFailure("declared-antipode",
                           "declared antipode disagrees with the solved one")

    qg.counit = eps
    qg.antipode = LinMap(smat)
    return qg


# ---------------------------------------------------------------------------
# star compatibility
# ---------------------------------------------------------------------------

class CheckItem:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


class CheckReport:
    """A list of CheckItems; all_ok when every one passes."""

    def __init__(self, items: list):
        self.items = items

    @property
    def all_ok(self) -> bool:
        return all(it.ok for it in self.items)


def check_star_compat(qg: QGData) -> CheckReport:
    """S(S(a)*)* = a, coproduct/star exchange, counit/star exchange."""
    alg = qg.algebra
    n = alg.dim
    if alg.star is None:
        raise StructureError("star compatibility requires a star structure")
    if qg.antipode is None or qg.counit is None:
        raise StructureError("derive the counit and antipode first")
    s, star = qg.antipode, alg.star

    items = []
    bad = [alg.labels[i] for i in range(n)
           if star.apply(s.apply(star.apply(s.apply(alg.basis(i))))) != alg.basis(i)]
    items.append(CheckItem(
        "antipode-star-involutivity",
        not bad,
        "S(S(a)*)* = a on every basis element" if not bad
        else "fails at " + ", ".join(bad)))

    bad = [alg.labels[i] for i in range(n)
           if qg.delta(star.apply(alg.basis(i)))
           != qg.tensor_sq.apply_star(qg.delta(alg.basis(i)))]
    items.append(CheckItem(
        "coproduct-star-compatibility",
        not bad,
        "D(a*) = D(a)* on every basis element" if not bad
        else "fails at " + ", ".join(bad)))

    bad = [alg.labels[i] for i in range(n)
           if apply_functional(qg.counit, star.apply(alg.basis(i)))
           != apply_functional(qg.counit, alg.basis(i)).conjugate()]
    items.append(CheckItem(
        "counit-star-compatibility",
        not bad,
        "eps(a*) = conj(eps(a)) on every basis element" if not bad
        else "fails at " + ", ".join(bad)))
    return CheckReport(items)


# ---------------------------------------------------------------------------
# grouplike projections
# ---------------------------------------------------------------------------

def check_grouplike_projection(qg: QGData, p: list) -> CheckReport:
    """p nonzero, p = p* = p^2, and D(p)(1(x)p) = p(x)p, all exact."""
    alg = qg.algebra
    if alg.star is None:
        raise StructureError("grouplike projection check requires a star structure")
    items = [CheckItem("nonzero", not vec_is_zero(p))]
    items.append(CheckItem("idempotent", alg.multiply(p, p) == p))
    items.append(CheckItem("self-adjoint", alg.apply_star(p) == p))
    lhs = qg.tensor_sq.multiply(qg.delta(p), tensor_vec(alg.unit, p))
    items.append(CheckItem("coproduct-condition", lhs == tensor_vec(p, p),
                           "D(p)(1(x)p) = p(x)p"))
    return CheckReport(items)


# ---------------------------------------------------------------------------
# sub-quantum-groups
# ---------------------------------------------------------------------------

SUB_MEMBERSHIP_FORMULAS = ("D(a)(1(x)b)", "D(a)(b(x)1)",
                           "(a(x)1)D(b)", "(1(x)a)D(b)")
SUB_COMPAT_FORMULAS = ("D0(a)(1(x)b) = D(a)(1(x)b)",
                       "D0(a)(b(x)1) = D(a)(b(x)1)",
                       "(1(x)b)D0(a) = (1(x)b)D(a)",
                       "(b(x)1)D0(a) = (b(x)1)D(a)")


class SubMHAResult:
    def __init__(self, rows: list, labels: list, memberships: list):
        self.rows = rows                # spanning vectors in big coordinates
        self.labels = labels
        self.memberships = memberships  # CheckItems for the four product families
        self.compat = []                # CheckItems for the compression equations
        self.sub_unit = None            # in sub coordinates
        self.induced = None             # QGData
        self.induced_tmaps = None       # TMapReport
        self.notes = []

    @property
    def all_ok(self) -> bool:
        return (all(it.ok for it in self.memberships)
                and all(it.ok for it in self.compat)
                and self.induced_tmaps is not None
                and self.induced_tmaps.all_bijective)


def _first_outside(coords: list):
    """The index of the first None in coords, or None when there is none."""
    return next((k for k, c in enumerate(coords) if c is None), None)


def _sub_items(kind: str, formulas, bads: list, ok_detail: str) -> list:
    """A CheckItem per formula from the labels of its first failing pair,
    or None; StructureError names the first formula that fails."""
    items = [CheckItem(kind + " " + formula, bad is None,
                       ok_detail if bad is None else "fails at (%s, %s)" % bad)
             for formula, bad in zip(formulas, bads)]
    for it in items:
        if not it.ok:
            raise StructureError("sub-compatibility failure: %s, %s"
                                 % (it.name, it.detail))
    return items


def check_sub_mha(qg: QGData, sub_rows: list, sub_labels=None) -> SubMHAResult:
    """Verify span(sub_rows) is a compatible sub-quantum-group.

    Requires exact closure under multiplication (and star), membership of
    the four product families in the tensor square of the span (one solve
    for all four), and, when the span has its own unit, derives the
    induced structure (coproduct, T-maps, counit, antipode).  Every
    coordinate on the span or its tensor square is read by
    exactla.coordinates.  Its premise, independent sub_rows (and so
    independent v_a(x)v_b), is proved by the pivots of the first call.

    D0 is read off the memberships, and the compression equations (Van
    Daele, Trans. AMS 342, 1994, for the four products) follow from them.
    Write B for the span and u for its unit; every Y in B(x)B has
    (u(x)1)Y = Y(1(x)u) = Y.  Membership D(a)(1(x)b) at b = u puts
    X = D(a)(1(x)u) in B(x)B, so (u(x)u)D(a)(u(x)u) = (u(x)u)X(u(x)1) = X,
    which is D0(a) = sum_b u_b D(a)(1(x)v_b); likewise (a(x)1)D(b) gives
    D0(a) = (u(x)1)D(a).  So D0(a)(1(x)b) = D(a)(1(x)ub) = D(a)(1(x)b),
    D0(a)(b(x)1) = D(a)(b(x)1)(1(x)u) = D(a)(b(x)1) by membership
    D(a)(b(x)1), and the other two mirror these through (1(x)a)D(b) and
    bu = b.  The premises (subalgebra, the unit build_algebra solves and
    checks, the memberships) each raise or return before D0 is read.
    """
    alg = qg.algebra
    tsq = qg.tensor_sq
    n0 = len(sub_rows)
    if n0 == 0:
        raise StructureError("sub basis is empty")
    if sub_labels is None:
        sub_labels = ["v%d" % a for a in range(n0)]
    pairs = [(a, b) for a in range(n0) for b in range(n0)]

    def at(k):
        return None if k is None else tuple(sub_labels[a] for a in pairs[k])

    targets = [alg.multiply(sub_rows[a], sub_rows[b]) for a, b in pairs]
    try:
        products = coordinates(sub_rows, targets)
    except LinearAlgebraError:
        raise StructureError("sub basis vectors are linearly dependent")
    bad = _first_outside(products)
    if bad is not None:
        raise StructureError(
            "not a subalgebra: product of %s and %s leaves the span" % at(bad))
    mul0 = {pair: col for pair, col
            in zip(pairs, LinMap.from_images(products).columns) if col}

    star0 = None
    if alg.star is not None:
        images = coordinates(sub_rows, [alg.apply_star(r) for r in sub_rows])
        bad = _first_outside(images)
        if bad is not None:
            raise StructureError(
                "span is not star-closed at %s" % sub_labels[bad])
        star0 = LinMap.from_images(images, conjugate_linear=True)

    tens = [tensor_vec(sub_rows[a], sub_rows[b]) for a, b in pairs]
    deltas = [tsq.terms(qg.delta(r)) for r in sub_rows]
    m = len(pairs)
    coords = coordinates(tens, [p for shape in (0, 1, 3, 2)
                                for p in _pair_products(qg, deltas, sub_rows,
                                                        shape)])
    memberships = _sub_items("membership", SUB_MEMBERSHIP_FORMULAS, [
        at(_first_outside(coords[k * m:(k + 1) * m])) for k in range(4)],
        "all products lie in the tensor square of the span")
    result = SubMHAResult(sub_rows, sub_labels, memberships)

    try:
        alg0 = build_algebra(sub_labels, mul0, unit=None, star=star0,
                             name=(alg.name or "A") + "_sub")
    except StructureError as exc:
        result.notes.append("span has no unit of its own: %s" % exc)
        return result
    result.sub_unit = alg0.unit
    result.compat = _sub_items("compression", SUB_COMPAT_FORMULAS, [None] * 4,
                               "holds on all pairs")

    d0 = LinMap.from_images([
        vec_combination(alg0.unit, coords[a * n0:(a + 1) * n0], m)
        for a in range(n0)])
    induced = attach_coproduct(alg0, d0)
    tmr = check_tmaps(induced)
    result.induced = induced
    result.induced_tmaps = tmr
    if not tmr.all_bijective:
        result.notes.append("induced structure fails T-map bijectivity")
    elif tmr.error is not None:
        raise tmr.error
    return result
