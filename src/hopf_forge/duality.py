"""The dual quantum group, biduality, and sub-object imbeddings.

The dual carries the basis w_i = phi(. e_i), on which a functional with
values v at the e_j has coordinates B^-1 v, B the sparse form of phi
(finalg.form_map), read with its transpose and inverse as LinMaps, never
densely.  The dual product is dual to the coproduct, its coproduct
evaluates against the flipped product, D(w)(x (x) y) = w(yx), and its star
is w*(x) = conj(w(S(x)*)).  The dual is re-verified from scratch by the
whole structural suite, the double dual is carried over from A along the
canonical map once its premises are checked (biduality), and sub-object
imbeddings are checked equation by equation.
"""

from __future__ import annotations

import itertools
from operator import ne

from .errors import CheckFailure, NotFaithful, StructureError
from .exactla import eigensplit
from .finalg import (FinAlgebra, LinMap, TensorMap, apply_functional,
                     build_algebra, failing_pairs, form_map)
from .haar_modular import ModularData, left_haar, modular_element, split_block
from .mhopf import (CheckItem, CheckReport, Coproduct, QGData,
                    attach_coproduct, check_star_compat, check_tmaps,
                    unit_leg_product)
from .scalars import SC_ONE, SC_ZERO


class DualBuild:
    def __init__(self, qg: QGData, phi: dict, form: LinMap, form_inv: LinMap,
                 antipode_inv: LinMap, tmaps, star_compat,
                 unit_is_counit: bool):
        self.qg = qg
        self.phi = phi            # the functional the basis w_i = phi(. e_i) is on
        self.form = form          # B, [j][i] = phi(e_j e_i), the value of w_i at e_j
        self.form_inv = form_inv  # B^-1, values on the e_j to coordinates
        self.antipode_inv = antipode_inv  # S^-1 of the original
        self.tmaps = tmaps
        self.star_compat = star_compat
        self.unit_is_counit = unit_is_counit  # the dual unit is the counit functional


def build_dual(qg: QGData, phi: dict) -> DualBuild:
    """Construct the dual on the basis w_i = phi(. e_i) and re-run the whole
    structural suite on it.  phi must be faithful; it need not be normalized."""
    form, form_inv, alg, coproduct = _dual_tables(
        qg, phi, "dual of " + qg.algebra.name)
    return _check_dual(qg, phi, form, form_inv, alg, coproduct)


def _dual_tables(qg: QGData, phi: dict, name: str):
    """The table half of build_dual: B, B^-1, the dual's product and star
    as a FinAlgebra with no unit, and its coproduct, none of it checked."""
    alg = qg.algebra
    n = alg.dim
    form = form_map(alg, phi)
    try:
        form_inv = form.inverse()
    except StructureError as exc:
        raise NotFaithful("functional is not faithful; the dual basis does "
                          "not span") from exc
    form_t = form.transpose()
    labels = ["w_" + lab for lab in alg.labels]

    # w_i w_j takes at e_k the value sum c B[a][i] B[b][j] over the terms
    # c e_a(x)e_b of D(e_k): entry (i, j) of (B^T (x) B^T) D(e_k)
    legs = TensorMap(form_t, form_t)
    values = {}
    for k, col in enumerate(qg.coproduct.columns):
        for pair, c in legs.apply(col).items():
            values.setdefault(pair, {})[k] = c
    mul = {}
    for pair, at_k in sorted(values.items()):
        entry = form_inv.apply(at_k)
        if entry:
            mul[pair] = entry

    star_lin = None
    if alg.star is not None:
        # w_i*(e_j) = conj(w_i(S(e_j)*)), entry (i, j) of B^T o star o S
        at_j = form_t.compose(alg.star.compose(qg.antipode)).transpose()
        star_lin = LinMap.of_columns(
            [form_inv.apply({j: c.conjugate() for j, c in col.items()})
             for col in at_j.columns], n, conjugate_linear=True)

    # D(w_k)(w_i (x) w_j) is read off V_k[a, b] = phi(e_b e_a e_k), entry k
    # of B^T(e_b e_a), through B^-1 on both legs
    v_cols = [{} for _ in range(n)]
    for (b, a), ent in alg.mul.items():
        for k, v in form_t.apply(ent).items():
            v_cols[k][a, b] = v
    legs = TensorMap(form_inv, form_inv)
    coproduct = Coproduct([legs.apply(v) for v in v_cols])
    dual_alg = FinAlgebra(labels, mul, None, star_lin, name=name)
    return form, form_inv, dual_alg, coproduct


def _check_dual(qg: QGData, phi: dict, form: LinMap, form_inv: LinMap,
                alg: FinAlgebra, coproduct: Coproduct) -> DualBuild:
    """The check half of build_dual: the structural suite on the tables,
    with the known unit, counit and antipode as candidates: eps, at B^-1
    eps; w -> w(1), which is phi; and w -> w o S^-1, B^-1 (S^-1)^T B, the
    transpose of S^-1 as the coproduct evaluates against the flipped
    product."""
    antipode_inv = qg.antipode.inverse()
    counit_coords = form_inv.apply(qg.counit)
    dual_alg = build_algebra(alg.labels, alg.mul, star=alg.star,
                             name=alg.name, unit=counit_coords)
    unit_is_counit = dual_alg.one == counit_coords

    dual_qg = attach_coproduct(dual_alg, coproduct)
    tmaps = check_tmaps(dual_qg, candidate=(phi, form_inv.compose(
        antipode_inv.transpose()).compose(form)))
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
    return DualBuild(dual_qg, phi, form, form_inv, antipode_inv, tmaps,
                     star_compat, unit_is_counit)


# ---------------------------------------------------------------------------
# morphism verification
# ---------------------------------------------------------------------------

def verify_qg_morphism(src: QGData, dst: QGData, lin: LinMap,
                       target_associative: bool = True) -> CheckReport:
    """Check that lin respects product, unit, coproduct, counit, antipode
    and star (when both sides have one), and that it is bijective.  The
    product is checked on all n^2 basis pairs unless the target is known
    to be associative (finalg.proved_on_generators)."""
    a, b = src.algebra, dst.algebra
    n = a.dim
    items = []
    images = lin.columns

    def sides(i, j):
        return (lin.apply(a.mul.get((i, j), {})),
                b.multiply(images[i], images[j]))
    bad = [(a.labels[i], a.labels[j]) for i, j in (
        failing_pairs(a, sides, limit=3) if target_associative else
        [(i, j) for i in range(n) for j in range(n) if ne(*sides(i, j))])]
    items.append(CheckItem("morphism-multiplicative", not bad,
                           "f(xy) = f(x)f(y) on all basis pairs" if not bad
                           else "fails at " + str(bad[:3])))
    items.append(CheckItem("morphism-unit", lin.apply(a.one) == b.one,
                           "f(1) = 1"))
    lin2 = TensorMap(lin, lin)
    bad = [a.labels[k] for k in range(n)
           if lin2.apply(src.coproduct.columns[k]) != dst.delta(images[k])]
    items.append(CheckItem("morphism-coproduct", not bad,
                           "(f (x) f) D = D f" if not bad
                           else "fails at " + ", ".join(bad)))
    bad = [a.labels[k] for k in range(n)
           if apply_functional(dst.counit, images[k])
           != src.counit.get(k, SC_ZERO)]
    items.append(CheckItem("morphism-counit", not bad,
                           "counit f = counit" if not bad
                           else "fails at " + ", ".join(bad)))
    bad = [a.labels[k] for k in range(n)
           if lin.apply(src.antipode.columns[k])
           != dst.antipode.apply(images[k])]
    items.append(CheckItem("morphism-antipode", not bad,
                           "f S = S f" if not bad
                           else "fails at " + ", ".join(bad)))
    if a.star is not None and b.star is not None:
        bad = [a.labels[k] for k in range(n)
               if lin.apply(a.star.columns[k]) != b.star.apply(images[k])]
        items.append(CheckItem("morphism-star", not bad,
                               "f(x*) = f(x)*" if not bad
                               else "fails at " + ", ".join(bad)))
    items.append(CheckItem("morphism-bijective", lin.is_bijective(),
                           "dimension %d onto dimension %d"
                           % (lin.n_in, lin.n_out)))
    return CheckReport(items)


# ---------------------------------------------------------------------------
# biduality
# ---------------------------------------------------------------------------

class BidualityResult:
    def __init__(self, gamma: LinMap, report: CheckReport):
        self.gamma = gamma
        self.report = report


def biduality(qg: QGData, dual_build: DualBuild) -> BidualityResult:
    """The canonical map gamma: a -> (w -> w(S^(-1) a)) into the double
    dual, verified to be an isomorphism of quantum groups.

    Only the double dual's tables are built, and A's unit, counit and
    antipode are carried over: gamma(1), eps o gamma^-1 and gamma S
    gamma^-1, gamma^-1 = S (B^-1)^T B2 composed.  The morphism check is the
    check of the premises, with the product on all pairs, as the target's
    associativity is what they prove: gamma bijective and compatible with
    product, coproduct and star.  Then the double dual's tables are A's
    carried through gamma (Bourbaki, Theory of Sets, IV 1.5), so it is a
    Hopf *-algebra as A is, and its unit, counit and antipode, each
    unique, are the carried ones.  A's star is compatible, as the dual's
    verified star axioms restate it: an involution iff S(S(a)*)* = a,
    anti-multiplicative iff D(a*) = D(a)*, fixing the unit iff eps(a*) =
    conj(eps(a)).  When a premise fails, the check half runs on the same
    tables, as in build_dual, and gamma is checked against its result.
    """
    dual = dual_build.qg
    phi2 = left_haar(dual)
    form2, form2_inv, alg2, coproduct2 = _dual_tables(
        dual, phi2, "double dual of " + qg.algebra.name)
    # the values of a -> (w -> w(S^-1 a)) at the w_i are B^T S^-1 a
    gamma = form2_inv.compose(dual_build.form.transpose()).compose(
        dual_build.antipode_inv)
    gamma_inv = qg.antipode.compose(
        dual_build.form_inv.transpose()).compose(form2)
    alg2.one = gamma.apply(qg.algebra.one)
    bidual = QGData(alg2, coproduct2)
    bidual.counit = gamma_inv.transpose().apply(qg.counit)
    bidual.antipode = gamma.compose(qg.antipode).compose(gamma_inv)
    report = verify_qg_morphism(qg, bidual, gamma, target_associative=False)
    if not report.all_ok:
        bidual = _check_dual(dual, phi2, form2, form2_inv, alg2,
                             coproduct2).qg
        report = verify_qg_morphism(qg, bidual, gamma)
    if not report.all_ok:
        raise CheckFailure(
            "biduality",
            "; ".join(it.name + ": " + it.detail
                      for it in report.items if not it.ok))
    return BidualityResult(gamma, report)


# ---------------------------------------------------------------------------
# the dual modular element
# ---------------------------------------------------------------------------

def dual_modular_check(qg: QGData, md: ModularData,
                       dual_build: DualBuild) -> list:
    """The modular element of the dual must be the functional counit after
    kappa, in coordinates and against every evaluation pair."""
    dual_qg = dual_build.qg
    delta_hat = modular_element(dual_qg, left_haar(dual_qg))
    alg = qg.algebra
    n = alg.dim
    kappa_t = md.kappa.transpose()
    expected = dual_build.form_inv.apply(kappa_t.apply(qg.counit))
    items = [CheckItem(
        "dual-modular-element", delta_hat == expected,
        "modular element of the dual equals counit after kappa")]
    dalg = dual_qg.algebra
    # column i of each: <w_i delta_hat, e_j> and <w_i, kappa(e_j)> at j
    lhs = dual_build.form.compose(dalg.right_mul(delta_hat)).columns
    rhs = kappa_t.compose(dual_build.form).columns
    bad = [(dalg.labels[i], alg.labels[j]) for i in range(n)
           for j in range(n)
           if lhs[i].get(j, SC_ZERO) != rhs[i].get(j, SC_ZERO)]
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
    blocks = [[{i: SC_ONE} for i in range(n)]]
    for g in range(n):
        left = alg.left_mul({g: SC_ONE})
        nxt = []
        for vecs in blocks:
            if len(vecs) == 1:
                nxt.append(vecs)
                continue
            nxt.extend(lifted for _value, lifted in split_block(
                left, vecs, lambda rows: eigensplit(rows, spec_points)))
        blocks = nxt
    if any(len(vecs) != 1 for vecs in blocks):
        raise CheckFailure(
            "idempotent-basis",
            "algebra has no basis of joint eigenvectors; it is not a "
            "function algebra over the scalar field")
    idems = []
    for (v,) in blocks:
        sq = alg.multiply(v, v)
        t = min(v)
        c = sq.get(t, SC_ZERO) * v[t].inverse()
        if c.is_zero or sq != {i: c * x for i, x in v.items()}:
            raise CheckFailure(
                "idempotent-basis",
                "joint eigenvector does not scale to an idempotent")
        cinv = c.inverse()
        idems.append({i: cinv * x for i, x in v.items()})
    for i, p in enumerate(idems):
        for j, q in enumerate(idems):
            want = p if i == j else {}
            if alg.multiply(p, q) != want:
                raise CheckFailure("idempotent-basis",
                                   "products are not pointwise")
    total = LinMap.of_columns(idems, n).apply(
        {k: SC_ONE for k in range(len(idems))})
    if total != alg.one:
        raise CheckFailure("idempotent-basis",
                           "idempotents do not sum to the unit")
    return idems


def group_table_from_coproduct(qg: QGData, idems: list):
    """Multiplication table of the underlying group, read off the coproduct
    support in the idempotent basis.  Returns (table, identity index)."""
    n = qg.dim
    try:
        p_inv = LinMap.of_columns(idems, n).inverse()
    except StructureError as exc:
        raise CheckFailure("group-recovery",
                           "idempotents do not span") from exc
    # D(p_g) in the idempotent basis: P^-1 on both tensor legs
    to_idem = TensorMap(p_inv, p_inv)
    table = {}
    for g in range(n):
        # in (h, k) order, so the failure reported does not depend on the
        # order of the terms
        for (h, k), c in sorted(to_idem.apply(qg.delta(idems[g])).items()):
            if c != SC_ONE:
                raise CheckFailure(
                    "group-recovery",
                    "coproduct is not group-like on the idempotent basis")
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
    from_src = LinMap.of_columns(idems_s, n).inverse()
    for choice in itertools.product(*pools):
        beta = [None] * n
        for k, perm in zip(keys, choice):
            for h, img in zip(classes[k][0], perm):
                beta[h] = img
        if any(beta[table_s[(h, k)]] != table_d[(beta[h], beta[k])]
               for h in range(n) for k in range(n)):
            continue
        # idempotent h of src goes to idempotent beta[h] of dst
        to_dst = LinMap.of_columns([idems_d[beta[h]] for h in range(n)], n)
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
    j_map = LinMap.of_columns(rows, dual_build.qg.dim)

    # phi0(v_a) = phi(v_a): the restriction is j^T phi
    phi0 = j_map.transpose().apply(dual_build.phi)
    items.append(CheckItem("restriction-nonzero", bool(phi0),
                           "phi restricted to the sub-object is nonzero"))
    if not phi0:
        return ImbeddingReport(LinMap.identity(0), items)

    haar0 = left_haar(qg0)
    pivot = min(haar0)
    # phi0 is nonzero, so it is no multiple of haar0 without the pivot
    invariant = False
    if pivot in phi0:
        scale = phi0[pivot] * haar0[pivot].inverse()
        invariant = phi0 == {i: scale * x for i, x in haar0.items()}
    items.append(CheckItem(
        "restriction-invariant", invariant,
        "the restriction is a left invariant functional of the sub-object"))
    if not invariant:
        return ImbeddingReport(LinMap.identity(0), items)

    dual0 = build_dual(qg0, phi0)

    items.append(CheckItem("imbedding-injective", True,
                           "j has full rank %d" % d))

    d_alg = dual_build.qg.algebra
    d0_alg = dual0.qg.algebra
    bad = [(a, b) for a in range(d) for b in range(d)
           if j_map.apply(d0_alg.mul.get((a, b), {}))
           != d_alg.multiply(rows[a], rows[b])]
    items.append(CheckItem("imbedding-multiplicative", not bad,
                           "j(w w') = j(w) j(w')" if not bad
                           else "fails at " + str(bad[:3])))

    if d0_alg.star is not None and d_alg.star is not None:
        bad = [a for a in range(d)
               if j_map.apply(d0_alg.star.columns[a])
               != d_alg.star.apply(rows[a])]
        items.append(CheckItem("imbedding-star", not bad,
                               "j(w*) = j(w)*" if not bad
                               else "fails at " + str(bad)))

    j2 = TensorMap(j_map, j_map)
    bad1, bad2 = [], []
    for a in range(d):
        cop0 = dual0.qg.coproduct.columns[a]
        cop1 = dual_build.qg.delta(rows[a])
        for b in range(d):
            # D(w)(1 (x) w') and (w' (x) 1)D(w)
            for shape, bad in zip((0, 3), (bad1, bad2)):
                lhs = j2.apply(unit_leg_product(dual0.qg, cop0,
                                                {b: SC_ONE}, shape))
                if lhs != unit_leg_product(dual_build.qg, cop1, rows[b],
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
           if dual0.qg.counit.get(a, SC_ZERO)
           != apply_functional(dual_build.qg.counit, rows[a])]
    items.append(CheckItem("imbedding-counit", not bad,
                           "counit0 = counit after j" if not bad
                           else "fails at " + str(bad)))
    return ImbeddingReport(j_map, items)
