"""Hopf structure on finite-dimensional algebras: coproduct attachment,
T-map bijectivity, derived counit/antipode, star compatibility, sub-object
checks, grouplike projections.

The coproduct is a plain linear map A -> A(x)A (the unital finite shadow,
where the multiplier algebra of the tensor square is the tensor square
itself).  Every element of the tensor square, D(a) among them, is the
sparse {(i, j): c} of finalg.TensorAlgebra, and every element of A, and
the counit, the sparse {i: c} of finalg.  The counit and antipode are
never taken on faith: each is checked against its defining laws, whose
solution is unique.  A missing or failing known one is replaced by the
unit of the transposed table (the counit) or by Van Daele's formula from
the left Haar functional (the antipode), then checked the same way;
declared tables, when present, are cross-checked.  Once they verify, the
four canonical maps (T-maps) are bijective by their explicit inverses, so
the maps are built and ranked only when the derivation fails (check_tmaps).
"""

from __future__ import annotations

from itertools import islice

from .errors import CheckFailure, HopfForgeError, StructureError
from .exactla import LinearAlgebraError, coordinates, sparse_row
from .exactla import rank as _rank
from .finalg import (FinAlgebra, LinMap, TensorAlgebra, TensorMap,
                     _check_associativity, _rows_of, _solve_unit,
                     apply_functional, build_algebra, failing_pairs,
                     form_map, generating_set, proved_on_generators,
                     tensor_algebra)
from .scalars import SC_ONE, SC_ZERO


def tensor_vec(x: dict, y: dict) -> dict:
    """x(x)y as {(i, j): x_i y_j}."""
    return {(i, j): xi * yj for i, xi in x.items() for j, yj in y.items()}


class Coproduct:
    """A coproduct A -> A(x)A stored as one sparse column per basis element.

    columns[k] maps (i, j) to the nonzero coefficient of e_i(x)e_j in D(e_k),
    the shape of StructureDefinition.coproduct and of every element of the
    tensor square.
    """

    def __init__(self, columns: list):
        self.columns = [{key: c for key, c in col.items() if not c.is_zero}
                        for col in columns]

    @property
    def n_in(self) -> int:
        return len(self.columns)


class QGData:
    """Algebra plus verified coproduct; counit and antipode once derived,
    the left Haar functional once solved (haar_modular.left_haar) and S^2
    once composed (haar_modular.antipode_squared)."""

    def __init__(self, algebra: FinAlgebra, coproduct: Coproduct,
                 tensor_sq: TensorAlgebra):
        self.algebra = algebra
        self.coproduct = coproduct
        self.tensor_sq = tensor_sq
        self.counit = None          # {i: eps(e_i)}
        self.antipode = None        # LinMap
        self.haar = None            # {i: phi(e_i)}
        self.antipode_sq = None     # LinMap

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def delta(self, x: dict) -> dict:
        """D(x) = sum x_k D(e_k), as {(i, j): c} with no zero entry."""
        out = {}
        for k, xk in x.items():
            for key, c in self.coproduct.columns[k].items():
                out[key] = out.get(key, SC_ZERO) + (c if xk.is_one else xk * c)
        return {key: c for key, c in out.items() if not c.is_zero}


def attach_coproduct(alg: FinAlgebra, coproduct: Coproduct) -> QGData:
    """Verify the coproduct is an algebra morphism and coassociative.

    Both are proved on the transposed table A' (_proved_transposed) when
    |G'| times its nonzero entries is below the column terms visited by
    coassociativity over A's generators, G' found only if A' wins at
    |G'| = 1; else, or if A' fails, they run on A, multiplicativity first.

    Unitality of the coproduct is deliberately not required here; it is
    re-examined with the T-maps, so that morphism-level acceptance and
    bijectivity-level rejection stay separate stages.
    """
    n = alg.dim
    if coproduct.n_in != n:
        raise StructureError(
            "coproduct must map the %d-dim algebra into its tensor square" % n)
    tsq = tensor_algebra(alg, alg)
    qg = QGData(alg, coproduct, tsq)
    cols = coproduct.columns
    if _proved_transposed(alg, cols):
        return qg
    for i, j in failing_pairs(alg, lambda i, j: (
            qg.delta(alg.mul.get((i, j), {})),
            tsq.multiply(cols[i], cols[j]))):
        raise StructureError("coproduct is not multiplicative at (%s, %s)"
                             % (alg.labels[i], alg.labels[j]))
    for k in proved_on_generators(alg, lambda rows: list(islice(
            (k for k in rows if _coassoc_defect(qg, k)), 1))):
        raise StructureError(
            "coproduct is not coassociative at %s" % alg.labels[k])
    return qg


def _proved_transposed(alg: FinAlgebra, cols: list) -> bool:
    """Whether A' is cheaper and proves D (finalg.proved_on_generators)."""
    work = sum(len(cols[i]) + len(cols[j])
               for k in alg.generators for i, j in cols[k])
    terms = sum(map(len, cols))
    if work <= terms:
        return False
    dual = _transposed(alg, cols)
    dual.generators = generating_set(dual)
    if work <= len(dual.generators) * terms:
        return False
    try:
        _check_associativity(dual)
    except StructureError:
        return False
    mcols = [{key: ent[k] for key, ent in alg.mul.items() if k in ent}
             for k in range(alg.dim)]
    qd = QGData(dual, Coproduct(mcols), tensor_algebra(dual, dual))
    return not failing_pairs(dual, lambda a, b: (
        qd.delta(dual.mul.get((a, b), {})),
        qd.tensor_sq.multiply(mcols[a], mcols[b])))


def _transposed(alg: FinAlgebra, cols: list) -> FinAlgebra:
    """A', with e^a e^b = sum_k D(e_k)[a, b] e^k for D(e_k) = cols[k], as a
    FinAlgebra with no unit."""
    return FinAlgebra(alg.labels, _rows_of({
        (key, k): c for k, col in enumerate(cols) for key, c in col.items()}),
        None)


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


def unit_leg_product(qg: QGData, x: dict, y: dict, shape: int) -> dict:
    """x(1(x)y), x(y(x)1), (1(x)y)x or (y(x)1)x for shape 0, 1, 2 or 3.

    x and the product are elements of the tensor square, y one of the
    algebra.  The canonical maps and the sub-object and imbedding checks
    are all built from these four products (Van Daele, Trans. AMS 342,
    1994).
    """
    unit = qg.algebra.one
    leg = tensor_vec(unit, y) if shape % 2 == 0 else tensor_vec(y, unit)
    tsq = qg.tensor_sq
    return tsq.multiply(x, leg) if shape < 2 else tsq.multiply(leg, x)


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
    basis = [{i: SC_ONE} for i in range(qg.dim)]
    return _pair_products(qg, qg.coproduct.columns, basis,
                          (0, 3, 1, 2)[which])


def check_tmaps(qg: QGData, declared_counit=None,
                declared_antipode=None, candidate=None) -> TMapReport:
    """Bijectivity of the four canonical maps on the tensor square, with the
    counit and antipode derived on the way (qg gets them on success).

    All four bijective is the regularity condition at finite dimension.
    Also records whether the coproduct sends the unit to 1(x)1: computed
    when the derivation fails, and true by the theorem in
    derive_counit_antipode's docstring when it verifies.

    derive_counit_antipode runs first, with the declared tables and the
    candidate (eps, S), when known (duality.build_dual).  When it
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
    and both one-sided counit and antipode laws by derive_counit_antipode's
    law checks; S is anti-multiplicative, unital and bijective by the
    theorem in its docstring, whose premises are checked there and by
    attach_coproduct.

    When derive_counit_antipode raises, the maps are built over Q(i)(s) and
    ranked exactly, and its error is kept in the report: the callers report
    the maps first and the error only when all four are bijective.
    """
    n2 = qg.dim ** 2
    try:
        derive_counit_antipode(qg, declared_counit, declared_antipode,
                               candidate)
    except HopfForgeError as exc:
        error = exc
        # a matrix and its transpose have the same rank
        ranks = [_rank(_tmap_columns(qg, which), n2)
                 for which in range(len(TMAP_FORMULAS))]
        unit = qg.algebra.one
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
                           declared_antipode=None, candidate=None) -> QGData:
    """The counit and antipode, each the unique solution of its laws.

    A known (eps, S), candidate or else the declared tables, is checked
    exactly with products only, in the convolution monoid f*g = m(f(x)g)D
    of maps A -> A with unit 1eps: eps against 1eps*i = i = i*1eps, S
    against S*i = 1eps = i*S.  The monoid is associative and unital, as A
    is, D is coassociative and eps a counit, all checked before; so each
    law has at most one solution, eps' = (eps'(x)eps)D = eps and S' =
    S'*(i*S) = (S'*i)*S = S (Sweedler, Hopf Algebras, 1969, ch. 4), and a
    candidate that holds is it.  A missing or failing one is replaced, and
    the replacement is checked by the same laws:
    - the counit laws are the unit laws of the transposed table A' (e^a e^b
      = sum_k D(e_k)[a, b] e^k), row for row, so eps is the unit of A',
      solved by finalg._solve_unit, which finds it unique when it exists;
    - S is Van Daele's S((i(x)phi)(D(a)(1(x)b))) = (i(x)phi)((1(x)a)D(b))
      at the b_eps with phi(x b_eps) = eps(x), where the left side is S(a):
      S(e_a) = sum D(b_eps)[i, j] phi(e_a e_j) e_i, for the left Haar
      functional phi (Van Daele, Adv. Math. 140, 1998, section 3).
    When phi is not unique, its form B (b_eps = B^-1 eps) is singular or
    the formula's S fails its laws, the antipode laws have no solution: an
    antipode would make A a finite-dimensional Hopf algebra, whose left
    integral is unique and faithful (Larson & Sweedler, Amer. J. Math. 91,
    1969; Van Daele 1998, section 3), and the formula would give it.  The
    counit is verified multiplicative.  Declared tables, if any, must agree
    exactly with the result.

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
    attach_coproduct, which builds every QGData passed here (the double
    dual of duality.biduality, carried over by transport, never is); A
    associative and unital by build_algebra, and nonzero, as the
    definition loader takes only nonempty bases and sub bases and a dual
    keeps its original's dimension; eps multiplicative by the loop below;
    the counit and antipode laws by the law checks.
    """
    alg = qg.algebra
    n = alg.dim
    ident = LinMap.identity(n)

    def unit_times(e):
        """x -> e(x)1."""
        return LinMap.of_columns([{i: e[k] * c for i, c in alg.one.items()}
                                  if k in e else {} for k in range(n)], n)

    def holds(f, target):
        """f*i = target = i*f."""
        return (_convolution(qg, f, ident) == target
                == _convolution(qg, ident, f))

    eps, antipode = candidate or (
        declared_counit and sparse_row(declared_counit),
        declared_antipode and LinMap(declared_antipode))
    if eps is None or not holds(unit_times(eps), ident):
        sol = _solve_unit(_transposed(alg, qg.coproduct.columns))
        if sol.is_empty:
            raise StructureError("counit laws have no solution")
        eps = sol.particular

    for i, j in failing_pairs(alg, lambda i, j: (
            apply_functional(eps, alg.mul.get((i, j), {})),
            eps.get(i, SC_ZERO) * eps.get(j, SC_ZERO))):
        raise StructureError("solved counit is not multiplicative at (%s, %s)"
                             % (alg.labels[i], alg.labels[j]))

    if antipode is None or not holds(antipode, unit_times(eps)):
        antipode = _haar_antipode(qg, eps)
        if not holds(antipode, unit_times(eps)):
            raise StructureError("antipode laws have no solution")

    if (declared_counit is not None
            and sparse_row(declared_counit) != eps):
        raise CheckFailure("declared-counit",
                           "declared counit disagrees with the solved one")
    if (declared_antipode is not None
            and LinMap(declared_antipode) != antipode):
        raise CheckFailure("declared-antipode",
                           "declared antipode disagrees with the solved one")

    qg.counit = eps
    qg.antipode = antipode
    return qg


def _haar_antipode(qg: QGData, eps: dict) -> LinMap:
    """S(e_a) = sum D(b_eps)[i, j] phi(e_a e_j) e_i, derive_counit_antipode's
    candidate, for phi = haar_modular.left_haar(qg) and b_eps = B^-1 eps, B
    the form of phi; StructureError when phi is not unique or B singular."""
    # haar_modular imports this module
    from .haar_modular import left_haar
    try:
        form = form_map(qg.algebra, left_haar(qg))
        b_eps = form.inverse().apply(eps)
    except StructureError:
        raise StructureError("antipode laws have no solution") from None
    # column j of M is {i: D(b_eps)[i, j]}, and S = M B^T
    m = _rows_of({(j, i): c for (i, j), c in qg.delta(b_eps).items()})
    return LinMap.of_columns([m.get(j, {}) for j in range(qg.dim)],
                             qg.dim).compose(form.transpose())


def _convolution(qg: QGData, f: LinMap, g: LinMap) -> LinMap:
    """f*g = m(f(x)g)D, read column by column off the coproduct."""
    legs = TensorMap(f, g)
    cols = []
    for col in qg.coproduct.columns:
        out = {}
        for pair, c in legs.apply(col).items():
            for k, x in qg.algebra.mul.get(pair, {}).items():
                out[k] = out.get(k, SC_ZERO) + c * x
        cols.append({k: x for k, x in out.items() if not x.is_zero})
    return LinMap.of_columns(cols, qg.dim)


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
           if star.apply(s.apply(star.apply(s.columns[i]))) != {i: SC_ONE}]
    items.append(CheckItem(
        "antipode-star-involutivity",
        not bad,
        "S(S(a)*)* = a on every basis element" if not bad
        else "fails at " + ", ".join(bad)))

    bad = [alg.labels[i] for i in proved_on_generators(alg, lambda rows: [
        i for i in rows if qg.delta(star.columns[i])
        != qg.tensor_sq.apply_star(qg.coproduct.columns[i])])]
    items.append(CheckItem(
        "coproduct-star-compatibility",
        not bad,
        "D(a*) = D(a)* on every basis element" if not bad
        else "fails at " + ", ".join(bad)))

    bad = [alg.labels[i] for i in range(n)
           if apply_functional(qg.counit, star.columns[i])
           != qg.counit.get(i, SC_ZERO).conjugate()]
    items.append(CheckItem(
        "counit-star-compatibility",
        not bad,
        "eps(a*) = conj(eps(a)) on every basis element" if not bad
        else "fails at " + ", ".join(bad)))
    return CheckReport(items)


# ---------------------------------------------------------------------------
# grouplike projections
# ---------------------------------------------------------------------------

def check_grouplike_projection(qg: QGData, p: dict) -> CheckReport:
    """p nonzero, p = p* = p^2, and D(p)(1(x)p) = p(x)p, all exact."""
    alg = qg.algebra
    if alg.star is None:
        raise StructureError("grouplike projection check requires a star structure")
    items = [CheckItem("nonzero", bool(p))]
    items.append(CheckItem("idempotent", alg.multiply(p, p) == p))
    items.append(CheckItem("self-adjoint", alg.star.apply(p) == p))
    lhs = qg.tensor_sq.multiply(qg.delta(p), tensor_vec(alg.one, p))
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
        self.rows = rows                # spanning {i: c} in big coordinates
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


def check_sub_mha(qg: QGData, sub_rows: list) -> SubMHAResult:
    """Verify span(sub_rows), sparse {i: c} elements, is a compatible
    sub-quantum-group.

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
    n0 = len(sub_rows)
    if n0 == 0:
        raise StructureError("sub basis is empty")
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
    mul0 = {pair: col for pair, col in zip(pairs, products) if col}

    star0 = None
    if alg.star is not None:
        images = coordinates(sub_rows, [alg.star.apply(r) for r in sub_rows])
        bad = _first_outside(images)
        if bad is not None:
            raise StructureError(
                "span is not star-closed at %s" % sub_labels[bad])
        star0 = LinMap.of_columns(images, n0, conjugate_linear=True)

    tens = [tensor_vec(sub_rows[a], sub_rows[b]) for a, b in pairs]
    deltas = [qg.delta(r) for r in sub_rows]
    m = len(pairs)
    coords = coordinates(tens, [p for shape in (0, 1, 3, 2)
                                for p in _pair_products(qg, deltas, sub_rows,
                                                        shape)])
    memberships = _sub_items("membership", SUB_MEMBERSHIP_FORMULAS, [
        at(_first_outside(coords[k * m:(k + 1) * m])) for k in range(4)],
        "all products lie in the tensor square of the span")
    result = SubMHAResult(sub_rows, sub_labels, memberships)

    try:
        alg0 = build_algebra(sub_labels, mul0, star=star0,
                             name=(alg.name or "A") + "_sub")
    except StructureError as exc:
        result.notes.append("span has no unit of its own: %s" % exc)
        return result
    result.sub_unit = alg0.one
    result.compat = _sub_items("compression", SUB_COMPAT_FORMULAS, [None] * 4,
                               "holds on all pairs")

    # D0(v_a) = sum_b u_b D(v_a)(1(x)v_b), in the coordinates of the pairs
    d0 = Coproduct([
        {pairs[t]: c for t, c in LinMap.of_columns(
            coords[a * n0:(a + 1) * n0], m).apply(alg0.one).items()}
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
