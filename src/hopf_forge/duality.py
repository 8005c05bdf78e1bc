"""The dual quantum group, biduality, and sub-object imbeddings.

The dual carries the basis w_i = phi(. e_i).  Its product is dual to the
coproduct, its coproduct evaluates against the flipped product,
D(w)(x (x) y) = w(yx), and its star is w*(x) = conj(w(S(x)*)).  Everything
constructed here is re-verified from scratch: the dual runs the whole
structural suite, the canonical map into the double dual is checked to be an
isomorphism of quantum groups, and sub-object imbeddings are checked
equation by equation.
"""

from __future__ import annotations

import itertools

from .errors import CheckFailure, NotFaithful
from .exactla import dense_row, invert, matvec, sparse_row
from .finalg import (LinMap, apply_functional, basis_vector, build_algebra,
                     zero_vector)
from .haar_modular import ModularData, left_haar, modular_element, split_block
from .mhopf import (CheckItem, CheckReport, Coproduct, QGData, TensorMap,
                    attach_coproduct, check_star_compat, check_tmaps,
                    unit_leg_product)
from .scalars import SC_ONE, SC_ZERO


class DualBuild:
    def __init__(self, qg: QGData, phi: list, b_matrix: list, b_inv: list,
                 tmaps, star_compat, unit_is_counit: bool):
        self.qg = qg
        self.phi = phi            # the functional the basis w_i = phi(. e_i) is on
        self.b_matrix = b_matrix  # [j][i] = phi(e_j e_i), the value of w_i at e_j
        self.b_inv = b_inv
        self.tmaps = tmaps
        self.star_compat = star_compat
        self.unit_is_counit = unit_is_counit  # the dual unit is the counit functional


def build_dual(qg: QGData, phi: list, name: str = "") -> DualBuild:
    """Construct the dual on the basis w_i = phi(. e_i) and re-run the whole
    structural suite on it.  phi must be faithful; it need not be normalized."""
    alg = qg.algebra
    n = alg.dim
    b_mat = [[apply_functional(phi, alg.basis_product(j, i))
              for i in range(n)] for j in range(n)]
    b_inv = invert(b_mat)
    if b_inv is None:
        raise NotFaithful(
            "functional is not faithful; the dual basis does not span")
    b_inv_map = LinMap(b_inv)
    labels = ["w_" + lab for lab in alg.labels]

    # w_i w_j takes at e_k the value sum c B[a][i] B[b][j] over the terms
    # c e_a(x)e_b of D(e_k), formed on the nonzero entries of B only
    b_rows = [sparse_row(row) for row in b_mat]
    values = {}
    for k, col in enumerate(qg.coproduct.columns):
        for (a, b), c in col.items():
            for i, x in b_rows[a].items():
                for j, y in b_rows[b].items():
                    at_k = values.setdefault((i, j), {})
                    at_k[k] = at_k.get(k, SC_ZERO) + c * x * y
    mul = {}
    for pair, at_k in sorted(values.items()):
        coords = b_inv_map.apply(dense_row(at_k, n, SC_ZERO))
        entry = {k: c for k, c in enumerate(coords) if not c.is_zero}
        if entry:
            mul[pair] = entry

    star_lin = None
    if alg.star is not None:
        starred = [alg.apply_star(qg.antipode.apply(alg.basis(j)))
                   for j in range(n)]
        cols_star = []
        for i in range(n):
            values = [apply_functional(phi, alg.multiply(u, alg.basis(i)))
                      .conjugate() for u in starred]
            cols_star.append(b_inv_map.apply(values))
        star_lin = LinMap.from_images(cols_star, conjugate_linear=True)

    dual_alg = build_algebra(labels, mul, unit=None, star=star_lin,
                             name=name or ("dual of " + alg.name))

    counit_coords = b_inv_map.apply(qg.counit)
    unit_is_counit = dual_alg.unit == counit_coords

    # D(w_k)(w_i (x) w_j) is read off V[a][b] = phi(e_b e_a e_k) through
    # B^-1 on both legs: sum_a B^-1[i][a] sum_b B^-1[j][b] V[a][b]
    b_inv_cols = b_inv_map.columns
    dual_cols = []
    for k in range(n):
        v_rows = {}
        for (b, a), ent in alg.mul.items():
            v = SC_ZERO
            for t, m in ent.items():
                v = v + m * b_mat[t][k]
            if not v.is_zero:
                v_rows.setdefault(a, []).append((b, v))
        col = {}
        for a, terms in v_rows.items():
            w_a = {}
            for b, v in terms:
                for j, bjb in b_inv_cols[b].items():
                    w_a[j] = w_a.get(j, SC_ZERO) + bjb * v
            for i, bia in b_inv_cols[a].items():
                for j, w in w_a.items():
                    col[(i, j)] = col.get((i, j), SC_ZERO) + bia * w
        dual_cols.append(col)

    dual_qg = attach_coproduct(dual_alg, Coproduct(dual_cols))
    tmaps = check_tmaps(dual_qg)
    if not tmaps.all_bijective:
        raise CheckFailure(
            "dual-tmaps",
            "translation maps of the dual are not all bijective: "
            + "; ".join("%s has rank %d of %d"
                        % (v.formula, v.rank, v.size)
                        for v in tmaps.failures()))
    if tmaps.error is not None:
        raise tmaps.error
    star_compat = None
    if dual_alg.star is not None:
        star_compat = check_star_compat(dual_qg)
        if not star_compat.all_ok:
            raise CheckFailure(
                "dual-star",
                "; ".join(it.name + ": " + it.detail
                          for it in star_compat.items if not it.ok))
    return DualBuild(dual_qg, phi, b_mat, b_inv, tmaps, star_compat,
                     unit_is_counit)


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------

def verify_qg_morphism(src: QGData, dst: QGData, lin: LinMap,
                       require_bijective: bool = True) -> CheckReport:
    """Check that lin respects product, unit, coproduct, counit, antipode
    and star (when both sides have one), and that it is bijective."""
    a, b = src.algebra, dst.algebra
    n = a.dim
    items = []
    images = [lin.apply(a.basis(k)) for k in range(n)]

    bad = [(a.labels[i], a.labels[j])
           for i in range(n) for j in range(n)
           if lin.apply(a.basis_product(i, j))
           != b.multiply(images[i], images[j])]
    items.append(CheckItem("morphism-multiplicative", not bad,
                           "f(xy) = f(x)f(y) on all basis pairs" if not bad
                           else "fails at " + str(bad[:3])))
    items.append(CheckItem("morphism-unit", lin.apply(a.unit) == b.unit,
                           "f(1) = 1"))
    lin2 = TensorMap(lin, lin)
    bad = [a.labels[k] for k in range(n)
           if lin2.apply_terms(src.coproduct.columns[k].items())
           != dst.delta(images[k])]
    items.append(CheckItem("morphism-coproduct", not bad,
                           "(f (x) f) D = D f" if not bad
                           else "fails at " + ", ".join(bad)))
    bad = [a.labels[k] for k in range(n)
           if apply_functional(dst.counit, images[k]) != src.counit[k]]
    items.append(CheckItem("morphism-counit", not bad,
                           "counit f = counit" if not bad
                           else "fails at " + ", ".join(bad)))
    bad = [a.labels[k] for k in range(n)
           if lin.apply(src.antipode.apply(a.basis(k)))
           != dst.antipode.apply(images[k])]
    items.append(CheckItem("morphism-antipode", not bad,
                           "f S = S f" if not bad
                           else "fails at " + ", ".join(bad)))
    if a.star is not None and b.star is not None:
        bad = [a.labels[k] for k in range(n)
               if lin.apply(a.apply_star(a.basis(k)))
               != b.apply_star(images[k])]
        items.append(CheckItem("morphism-star", not bad,
                               "f(x*) = f(x)*" if not bad
                               else "fails at " + ", ".join(bad)))
    if require_bijective:
        items.append(CheckItem("morphism-bijective", lin.is_bijective(),
                               "dimension %d onto dimension %d"
                               % (lin.n_in, lin.n_out)))
    return CheckReport(items)


# ---------------------------------------------------------------------------
# biduality
# ---------------------------------------------------------------------------

class BidualityResult:
    def __init__(self, dual_haar, bidual: DualBuild, gamma: LinMap,
                 report: CheckReport):
        self.dual_haar = dual_haar  # HaarSolution on the dual
        self.bidual = bidual
        self.gamma = gamma
        self.report = report


def biduality(qg: QGData, dual_build: DualBuild) -> BidualityResult:
    """The canonical map a -> (w -> w(S^(-1) a)) into the double dual,
    verified to be an isomorphism of quantum groups."""
    haar2 = left_haar(dual_build.qg)
    bidual = build_dual(dual_build.qg, haar2.phi,
                        name="double dual of " + qg.algebra.name)
    alg = qg.algebra
    n = alg.dim
    s_inv = qg.antipode.inverse()
    cols = []
    for k in range(n):
        u = s_inv.apply(alg.basis(k))
        values = [apply_functional(u, [dual_build.b_matrix[t][i]
                                       for t in range(n)])
                  for i in range(n)]
        cols.append(matvec(bidual.b_inv, values))
    gamma = LinMap.from_images(cols)
    report = verify_qg_morphism(qg, bidual.qg, gamma)
    if not report.all_ok:
        raise CheckFailure(
            "biduality",
            "; ".join(it.name + ": " + it.detail
                      for it in report.items if not it.ok))
    return BidualityResult(haar2, bidual, gamma, report)


# ---------------------------------------------------------------------------
# the dual modular element
# ---------------------------------------------------------------------------

def dual_modular_check(qg: QGData, md: ModularData,
                       dual_build: DualBuild) -> list:
    """The modular element of the dual must be the functional counit after
    kappa, in coordinates and against every evaluation pair."""
    dual_qg = dual_build.qg
    haar2 = left_haar(dual_qg)
    delta_hat = modular_element(dual_qg, haar2.phi)
    alg = qg.algebra
    n = alg.dim
    kappa_values = [apply_functional(qg.counit,
                                     md.kappa.apply(alg.basis(j)))
                    for j in range(n)]
    expected = matvec(dual_build.b_inv, kappa_values)
    items = [CheckItem(
        "dual-modular-element", delta_hat == expected,
        "modular element of the dual equals counit after kappa")]
    dalg = dual_qg.algebra
    bad = []
    for i in range(n):
        prod = dalg.multiply(basis_vector(n, i), delta_hat)
        values = matvec(dual_build.b_matrix, prod)
        for j in range(n):
            rhs = apply_functional(
                md.kappa.apply(alg.basis(j)),
                [dual_build.b_matrix[t][i] for t in range(n)])
            if values[j] != rhs:
                bad.append((dalg.labels[i], alg.labels[j]))
    items.append(CheckItem(
        "dual-modular-pairing", not bad,
        "<w delta_hat, x> = <w, kappa(x)> on all pairs" if not bad
        else "fails at " + str(bad[:3])))
    return items


# ---------------------------------------------------------------------------
# recovering a group from a pointwise-idempotent basis
# ---------------------------------------------------------------------------

def find_idempotent_basis(qg: QGData, spec_points) -> list:
    """The basis of primitive idempotents of a commutative function-like
    algebra, found as the joint eigenbasis of all left multiplications."""
    alg = qg.algebra
    n = alg.dim
    blocks = [[basis_vector(n, i) for i in range(n)]]
    for g in range(n):
        left = alg.left_mul(alg.basis(g))
        nxt = []
        for vecs in blocks:
            if len(vecs) == 1:
                nxt.append(vecs)
                continue
            nxt.extend(lifted for _value, lifted
                       in split_block(left, vecs, spec_points))
        blocks = nxt
    if any(len(vecs) != 1 for vecs in blocks):
        raise CheckFailure(
            "idempotent-basis",
            "algebra has no basis of joint eigenvectors; it is not a "
            "function algebra over the scalar field")
    idems = []
    for (v,) in blocks:
        sq = alg.multiply(v, v)
        t = next((i for i in range(n) if not v[i].is_zero), None)
        c = sq[t] * v[t].inverse()
        if c.is_zero or sq != [c * x for x in v]:
            raise CheckFailure(
                "idempotent-basis",
                "joint eigenvector does not scale to an idempotent")
        cinv = c.inverse()
        idems.append([cinv * x for x in v])
    for i, p in enumerate(idems):
        for j, q in enumerate(idems):
            want = p if i == j else zero_vector(n)
            if alg.multiply(p, q) != want:
                raise CheckFailure("idempotent-basis",
                                   "products are not pointwise")
    total = zero_vector(n)
    for p in idems:
        total = [x + y for x, y in zip(total, p)]
    if total != alg.unit:
        raise CheckFailure("idempotent-basis",
                           "idempotents do not sum to the unit")
    return idems


def group_table_from_coproduct(qg: QGData, idems: list):
    """Multiplication table of the underlying group, read off the coproduct
    support in the idempotent basis.  Returns (table, identity index)."""
    alg = qg.algebra
    n = alg.dim
    p_cols = [[idems[c][t] for c in range(n)] for t in range(n)]
    p_inv = invert(p_cols)
    if p_inv is None:
        raise CheckFailure("group-recovery", "idempotents do not span")
    # D(p_g) in the idempotent basis: P^-1 on both tensor legs
    to_idem = TensorMap(LinMap(p_inv), LinMap(p_inv))
    table = {}
    for g in range(n):
        coords = to_idem.apply(qg.delta(idems[g]))
        for idx, c in enumerate(coords):
            if c.is_zero:
                continue
            if c != SC_ONE:
                raise CheckFailure(
                    "group-recovery",
                    "coproduct is not group-like on the idempotent basis")
            h, k = divmod(idx, n)
            if (h, k) in table:
                raise CheckFailure("group-recovery",
                                   "coproduct support is not a graph")
            table[(h, k)] = g
    if len(table) != n * n:
        raise CheckFailure("group-recovery",
                           "coproduct support misses some pairs")
    identity = next((e for e in range(n)
                     if all(table[(e, h)] == h and table[(h, e)] == h
                            for h in range(n))), None)
    if identity is None:
        raise CheckFailure("group-recovery", "no identity element")
    return table, identity


def _element_orders(table, identity, n):
    orders = []
    for h in range(n):
        k, acc = 1, h
        while acc != identity:
            acc = table[(acc, h)]
            k += 1
            if k > n:
                raise CheckFailure("group-recovery", "element has no order")
        orders.append(k)
    return orders


class GroupIsoResult:
    def __init__(self, bijection: list, lin: LinMap, report: CheckReport):
        self.bijection = bijection  # index map on idempotent labels
        self.lin = lin
        self.report = report


def find_group_iso(src: QGData, dst: QGData, spec_points) -> GroupIsoResult:
    """Search for an isomorphism of quantum groups between two function-like
    algebras by matching their recovered group laws."""
    idems_s = find_idempotent_basis(src, spec_points)
    idems_d = find_idempotent_basis(dst, spec_points)
    n = len(idems_s)
    if len(idems_d) != n:
        raise CheckFailure("group-iso", "dimensions differ")
    table_s, id_s = group_table_from_coproduct(src, idems_s)
    table_d, id_d = group_table_from_coproduct(dst, idems_d)
    ord_s = _element_orders(table_s, id_s, n)
    ord_d = _element_orders(table_d, id_d, n)
    classes = {}
    for h in range(n):
        classes.setdefault(ord_s[h], ([], []))[0].append(h)
    for h in range(n):
        if ord_d[h] not in classes:
            raise CheckFailure("group-iso", "order profiles differ")
        classes[ord_d[h]][1].append(h)
    if any(len(a) != len(b) for a, b in classes.values()):
        raise CheckFailure("group-iso", "order profiles differ")

    keys = sorted(classes)
    pools = [itertools.permutations(classes[k][1]) for k in keys]
    from_src = LinMap.from_images(idems_s).inverse()
    for choice in itertools.product(*pools):
        beta = [None] * n
        for k, perm in zip(keys, choice):
            for h, img in zip(classes[k][0], perm):
                beta[h] = img
        if any(beta[table_s[(h, k)]] != table_d[(beta[h], beta[k])]
               for h in range(n) for k in range(n)):
            continue
        # idempotent h of src goes to idempotent beta[h] of dst
        to_dst = LinMap.from_images([idems_d[beta[h]] for h in range(n)])
        lin = to_dst.compose(from_src)
        report = verify_qg_morphism(src, dst, lin)
        if report.all_ok:
            return GroupIsoResult(beta, lin, report)
    raise CheckFailure("group-iso", "no isomorphism of quantum groups found")


# ---------------------------------------------------------------------------
# imbedding the dual of a sub-object
# ---------------------------------------------------------------------------

class ImbeddingReport(CheckReport):
    def __init__(self, j_map: LinMap, items: list):
        super().__init__(items)
        self.j_map = j_map


def dual_imbedding(sub, dual_build: DualBuild) -> ImbeddingReport:
    """Imbed the dual of a sub-object into the dual.

    The functional on the sub-object is the exact restriction of the phi
    dual_build is on (no rescaling; a rescaled restriction would break
    multiplicativity of the imbedding).  j sends the a-th dual basis
    vector of the sub-object to phi(. v_a), which is sum_i (v_a)_i w_i on
    the dual basis w_i = phi(. e_i) (Van Daele, Adv. Math. 140, 1998): j
    is the inclusion of the sub rows, injective since check_sub_mha
    proved them independent.  Checked: multiplicativity, star, both
    coproduct compatibilities and the counit identity.
    """
    qg0 = sub.induced
    if qg0 is None or qg0.counit is None:
        raise CheckFailure("dual-imbedding",
                           "sub-object did not induce a quantum group")
    rows = sub.rows
    d = len(rows)
    items = []

    phi0 = [apply_functional(dual_build.phi, v) for v in rows]
    nonzero = any(not x.is_zero for x in phi0)
    items.append(CheckItem("restriction-nonzero", nonzero,
                           "phi restricted to the sub-object is nonzero"))
    if not nonzero:
        return ImbeddingReport(LinMap.identity(0), items)

    haar0 = left_haar(qg0)
    pivot = next(i for i in range(d) if not haar0.phi[i].is_zero)
    scale = phi0[pivot] * haar0.phi[pivot].inverse()
    invariant = phi0 == [scale * x for x in haar0.phi]
    items.append(CheckItem(
        "restriction-invariant", invariant,
        "the restriction is a left invariant functional of the sub-object"))
    if not invariant:
        return ImbeddingReport(LinMap.identity(0), items)

    dual0 = build_dual(qg0, phi0, name="dual of " + qg0.algebra.name)

    j_cols = [list(r) for r in rows]
    j_map = LinMap.from_images(j_cols)
    items.append(CheckItem("imbedding-injective", True,
                           "j has full rank %d" % d))

    d_alg = dual_build.qg.algebra
    d0_alg = dual0.qg.algebra
    bad = [(a, b) for a in range(d) for b in range(d)
           if j_map.apply(d0_alg.basis_product(a, b))
           != d_alg.multiply(j_cols[a], j_cols[b])]
    items.append(CheckItem("imbedding-multiplicative", not bad,
                           "j(w w') = j(w) j(w')" if not bad
                           else "fails at " + str(bad[:3])))

    if d0_alg.star is not None and d_alg.star is not None:
        bad = [a for a in range(d)
               if j_map.apply(d0_alg.apply_star(d0_alg.basis(a)))
               != d_alg.apply_star(j_cols[a])]
        items.append(CheckItem("imbedding-star", not bad,
                               "j(w*) = j(w)*" if not bad
                               else "fails at " + str(bad)))

    j2 = TensorMap(j_map, j_map)
    bad1, bad2 = [], []
    for a in range(d):
        cop0 = dual0.qg.coproduct.columns[a]
        cop1 = dual_build.qg.tensor_sq.terms(dual_build.qg.delta(j_cols[a]))
        for b in range(d):
            # D(w)(1 (x) w') and (w' (x) 1)D(w)
            for shape, bad in zip((0, 3), (bad1, bad2)):
                lhs = j2.apply(unit_leg_product(dual0.qg, cop0,
                                                d0_alg.basis(b), shape))
                if lhs != unit_leg_product(dual_build.qg, cop1, j_cols[b],
                                           shape):
                    bad.append((a, b))
    items.append(CheckItem(
        "imbedding-coproduct-right", not bad1,
        "(j (x) j)(D0(w)(1 (x) w')) = D(j w)(1 (x) j w')" if not bad1
        else "fails at " + str(bad1[:3])))
    items.append(CheckItem(
        "imbedding-coproduct-left", not bad2,
        "(j (x) j)((w' (x) 1)D0(w)) = (j w' (x) 1)D(j w)" if not bad2
        else "fails at " + str(bad2[:3])))

    bad = [a for a in range(d)
           if dual0.qg.counit[a]
           != apply_functional(dual_build.qg.counit, j_cols[a])]
    items.append(CheckItem("imbedding-counit", not bad,
                           "counit0 = counit after j" if not bad
                           else "fails at " + str(bad)))
    return ImbeddingReport(j_map, items)
