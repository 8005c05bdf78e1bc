"""Dual construction, biduality, group recovery, and dual imbedding."""

import copy
import inspect
import itertools
import textwrap

import pytest

from hopf_forge import duality
from hopf_forge.assemble import build_qg
from hopf_forge.duality import (biduality, build_dual, dual_imbedding,
                                dual_modular_check, find_group_iso,
                                find_idempotent_basis,
                                group_table_from_coproduct,
                                verify_qg_morphism)
from hopf_forge.exactla import dense_row, matvec, sparse_row
from hopf_forge.finalg import LinMap, apply_functional
from hopf_forge.errors import StructureError
from hopf_forge.haar_modular import (compute_modular_data, left_haar,
                                     solve_left_haar)
from hopf_forge.mhopf import Coproduct, check_sub_mha, derive_counit_antipode
from hopf_forge.scalars import (DEFAULT_SPEC_POINTS, SC_ONE, SC_ZERO,
                                parse_scalar)

from oracles import basis
from packaged import packaged
from test_bench_workloads import WORKLOADS

HOPF_FIXTURES = ("c_z2", "c_z4", "c_s3", "group_s3", "sweedler_h4")


def sc(text):
    return parse_scalar(text)


def hopf_qg(name):
    qg = build_qg(packaged(name))
    return derive_counit_antipode(qg)


def sub_rows(name, sub_name):
    """A declared sub basis as sparse {i: c} rows."""
    return [sparse_row(r) for r in packaged(name).sub_bases[sub_name]]


def dual_of(name):
    qg = hopf_qg(name)
    phi = solve_left_haar(qg)
    return qg, phi, build_dual(qg, phi)


class TestBuildDual:
    def test_two_point_dual_is_the_group_convolution(self):
        # on two points with phi = (1/2, 1/2): w_i(e_j) = phi(e_j e_i),
        # so B = diag(1/2, 1/2) and the w_i multiply by convolution
        qg, phi, build = dual_of("c_z2")
        half = sc("1/2")
        assert build.form.matrix == [[half, SC_ZERO], [SC_ZERO, half]]
        dalg = build.qg.algebra
        w0w1 = dalg.multiply(basis(0), basis(1))
        assert w0w1 == {1: half}
        w1w1 = dalg.multiply(basis(1), basis(1))
        assert w1w1 == {0: half}
        assert dalg.one == {0: sc("2")}
        assert dalg.unit == [sc("2"), SC_ZERO]

    def test_dual_unit_is_counit_flag(self):
        for name in HOPF_FIXTURES:
            qg, phi, build = dual_of(name)
            assert build.unit_is_counit, name
            unit_values = matvec(build.form.matrix, build.qg.algebra.unit)
            assert sparse_row(unit_values) == qg.counit, name

    def test_dual_passes_its_own_validation(self):
        for name in HOPF_FIXTURES:
            qg, phi, build = dual_of(name)
            assert build.tmaps.all_bijective, name
            assert build.star_compat is not None and \
                build.star_compat.all_ok, name
            # solve_left_haar raises unless the kernel is one-dimensional
            assert solve_left_haar(build.qg), name

    def test_dual_haar_of_two_point_function_algebra(self):
        qg, phi, build = dual_of("c_z2")
        assert solve_left_haar(build.qg) == {0: sc("1/2")}


class TestBiduality:
    def test_gamma_is_an_isomorphism_everywhere(self):
        for name in HOPF_FIXTURES:
            qg, phi, build = dual_of(name)
            result = biduality(qg, build)
            assert result.report.all_ok, name
            names = [it.name for it in result.report.items]
            for want in ("morphism-multiplicative", "morphism-unit",
                         "morphism-coproduct", "morphism-counit",
                         "morphism-antipode", "morphism-bijective"):
                assert want in names, (name, want)

    def test_gamma_on_two_points_is_twice_identity(self):
        qg, phi, build = dual_of("c_z2")
        result = biduality(qg, build)
        two = sc("2")
        assert result.gamma.matrix == [[two, SC_ZERO], [SC_ZERO, two]]


def declared_qg(defn):
    """The quantum group of a definition with its declared counit and
    antipode as the candidates, as the command line builds it."""
    return derive_counit_antipode(build_qg(defn), defn.counit, defn.antipode)


# the packaged Hopf examples, every s-deformed menu variant and the
# function and group algebras of D3 to D6
TRANSPORT_CASES = (HOPF_FIXTURES
                   + tuple("%s~%d" % (name, index)
                           for name in WORKLOADS.DEFORMED_EXAMPLES
                           for index in range(WORKLOADS.DEFORM_VARIANTS))
                   + tuple("%s%d" % (kind, n) for n in range(3, 7)
                           for kind in ("c_d", "group_d")))


def transport_case(case):
    if "~" in case:
        name, index = case.split("~")
        return WORKLOADS.deformed_variant(name, int(index))
    if case in HOPF_FIXTURES:
        return packaged(case)
    kind, n = case[:-1], int(case[-1])
    return WORKLOADS.dihedral_definitions(n)[kind == "group_d"]


class TestTransportedBidual:
    @pytest.mark.parametrize("case", TRANSPORT_CASES)
    def test_transport_matches_the_full_build(self, case, monkeypatch):
        # the double dual built and checked from scratch, and gamma
        # verified against it as before the transport
        defn = transport_case(case)
        assert defn.name.startswith(case.split("~")[0])
        qg = declared_qg(defn)
        build = build_dual(qg, left_haar(qg))
        full = build_dual(build.qg, left_haar(build.qg))
        gamma = full.form_inv.compose(build.form.transpose()).compose(
            qg.antipode.inverse())
        want = verify_qg_morphism(qg, full.qg, gamma)
        # the transported double dual is the target gamma is checked
        # against, and the check half never runs
        targets, checked = [], []
        verify = duality.verify_qg_morphism
        monkeypatch.setattr(duality, "verify_qg_morphism",
                            lambda src, dst, *args, **kw: targets.append(dst)
                            or verify(src, dst, *args, **kw))
        monkeypatch.setattr(duality, "_check_dual",
                            lambda *args: checked.append(args))
        result = biduality(qg, build)
        assert checked == [] and len(targets) == 1
        assert result.gamma == gamma
        got = targets[0]
        assert got.algebra.one == full.qg.algebra.one
        assert got.counit == full.qg.counit
        assert got.antipode == full.qg.antipode
        assert full.tmaps.all_bijective and full.tmaps.error is None
        assert [(it.name, it.ok, it.detail) for it in result.report.items] \
            == [(it.name, it.ok, it.detail) for it in want.items]
        assert want.all_ok

    @staticmethod
    def break_a_product(monkeypatch):
        """Doubles the first product e_2 e_q of the double dual's table;
        gamma is diagonal on group_s3, whose generators are e_1 and e_3, so
        the generators' slot never reaches row 2."""
        tables = duality._dual_tables

        def broken(qg, phi, name):
            form, form_inv, alg, coproduct = tables(qg, phi, name)
            if name.startswith("double dual"):
                key = min(k for k in alg.mul if k[0] == 2)
                alg.mul[key] = {k: c + c for k, c in alg.mul[key].items()}
                alg = duality.FinAlgebra(alg.labels, alg.mul, None,
                                         alg.star, alg.name)
            return form, form_inv, alg, coproduct
        monkeypatch.setattr(duality, "_dual_tables", broken)

    def test_a_broken_product_outside_the_generators_fails(self,
                                                           monkeypatch):
        qg = declared_qg(packaged("group_s3"))
        build = build_dual(qg, left_haar(qg))
        assert qg.algebra.generators == [1, 3]
        self.break_a_product(monkeypatch)
        # the text build_dual's checks gave on the double dual before the
        # transport
        with pytest.raises(StructureError) as info:
            biduality(qg, build)
        assert str(info.value) == (
            "associativity fails at (w_w_u_r1, w_w_u_r1, w_w_u_id): "
            "(ab)c = (1/18)*w_w_u_r2 but a(bc) = (1/36)*w_w_u_r2")

    def test_the_generators_slot_in_place_of_all_pairs_is_caught(
            self, monkeypatch):
        # the shortcut assumes the target associative, which is what the
        # transport proves: it misses the broken product
        source = textwrap.dedent(inspect.getsource(duality.biduality))
        check = "target_associative=False"
        assert source.count(check) == 1
        scope = {}
        exec(source.replace(check, "target_associative=True"),
             vars(duality), scope)
        monkeypatch.setattr(duality, "biduality", scope["biduality"])
        monkeypatch.setitem(globals(), "biduality", scope["biduality"])
        with pytest.raises(pytest.fail.Exception):
            self.test_a_broken_product_outside_the_generators_fails(
                monkeypatch)


class TestDualModular:
    def test_dual_modular_items_pass(self):
        for name in ("c_z2", "group_s3", "sweedler_h4"):
            qg, phi, build = dual_of(name)
            md = compute_modular_data(qg)
            items = dual_modular_check(qg, md, build)
            assert [it.name for it in items] == \
                ["dual-modular-element", "dual-modular-pairing"], name
            assert all(it.ok for it in items), name


class TestGroupRecovery:
    def test_idempotents_of_function_algebra_are_point_masses(self):
        qg = hopf_qg("c_z4")
        idems = find_idempotent_basis(qg, DEFAULT_SPEC_POINTS)
        units = sorted(tuple(str(c) for c in dense_row(v, 4, SC_ZERO))
                       for v in idems)
        expect = sorted(tuple("1" if i == k else "0" for i in range(4))
                        for k in range(4))
        assert units == expect

    def test_recovered_table_of_cyclic_four(self):
        qg = hopf_qg("c_z4")
        idems = find_idempotent_basis(qg, DEFAULT_SPEC_POINTS)
        table, identity = group_table_from_coproduct(qg, idems)
        n = 4
        orders = sorted(
            next(k for k in range(1, n + 1)
                 if _power(table, identity, g, k) == identity)
            for g in range(n))
        assert orders == [1, 2, 4, 4]

    def test_dual_of_group_s3_matches_function_algebra(self):
        qg, phi, build = dual_of("group_s3")
        target = hopf_qg("c_s3")
        iso = find_group_iso(build.qg, target, DEFAULT_SPEC_POINTS)
        assert iso.report.all_ok
        check = verify_qg_morphism(build.qg, target, iso.lin)
        assert check.all_ok

    def test_wrong_map_is_rejected(self):
        src = hopf_qg("c_z2")
        swap = LinMap([[SC_ZERO, SC_ONE], [SC_ONE, SC_ZERO]])
        report = verify_qg_morphism(src, src, swap)
        assert not report.all_ok


def _power(table, identity, g, k):
    out = identity
    for _ in range(k):
        out = table[(out, g)]
    return out


class TestDualImbedding:
    def test_even_sub_imbeds_into_the_dual(self):
        qg = hopf_qg("c_z4")
        phi = solve_left_haar(qg)
        build = build_dual(qg, phi)
        sub = check_sub_mha(qg, sub_rows("c_z4", "c_h"))
        report = dual_imbedding(sub, build)
        assert report.all_ok
        names = [it.name for it in report.items]
        for want in ("restriction-nonzero", "restriction-invariant",
                     "imbedding-injective", "imbedding-multiplicative",
                     "imbedding-star", "imbedding-coproduct-right",
                     "imbedding-coproduct-left", "imbedding-counit"):
            assert want in names, want

    def test_imbedding_image_values(self):
        # the imbedded functionals separate the even group characters
        qg = hopf_qg("c_z4")
        phi = solve_left_haar(qg)
        build = build_dual(qg, phi)
        sub = check_sub_mha(qg, sub_rows("c_z4", "c_h"))
        report = dual_imbedding(sub, build)
        sub_dim = len(sub.rows)
        cols = [[report.j_map.matrix[i][j] for i in range(qg.dim)]
                for j in range(sub_dim)]
        seen = {tuple(str(c) for c in col) for col in cols}
        assert len(seen) == sub_dim

    def test_twisted_dual_coproduct_fails_both_equations(self):
        # sweedler_h4 as its own sub-object, imbedded into its dual with the
        # coproduct replaced by flip (S^2 (x) id) D: j stays an injective
        # unital *-algebra map that keeps the counit, and only the two
        # coproduct equations fail, at pairs that differ for each of the
        # four products D(w)(1 (x) w'), D(w)(w' (x) 1), (1 (x) w')D(w) and
        # (w' (x) 1)D(w)
        qg, phi, build = dual_of("sweedler_h4")
        sub = check_sub_mha(qg, [basis(i) for i in range(qg.dim)])
        s2 = build.qg.antipode.compose(build.qg.antipode)
        columns = []
        for col in build.qg.coproduct.columns:
            twisted = {}
            for (i, j), c in col.items():
                for k, x in s2.columns[i].items():
                    twisted[(j, k)] = twisted.get((j, k), SC_ZERO) + c * x
            columns.append(twisted)
        build = copy.copy(build)
        build.qg = copy.copy(build.qg)
        build.qg.coproduct = Coproduct(columns)
        report = duality.dual_imbedding(sub, build)
        failed = [(it.name, it.detail) for it in report.items if not it.ok]
        assert failed == [
            ("imbedding-coproduct-right", "fails at [(0, 1), (0, 2), (1, 1)]"),
            ("imbedding-coproduct-left", "fails at [(0, 1), (0, 2), (0, 3)]")]
        assert len(report.items) == 8

    @pytest.mark.parametrize("name, sub_name", [
        ("c_z4", "c_h"), ("c_s3", None), ("group_s3", None),
        ("sweedler_h4", None)])
    def test_j_columns_are_the_functionals_on_the_dual_basis(self, name,
                                                             sub_name):
        # j sends v_a to phi(. v_a), whose coordinates on the dual basis
        # w_i = phi(. e_i) are B^-1 (phi(e_t v_a))_t
        qg, phi, build = dual_of(name)
        alg = qg.algebra
        rows = (sub_rows(name, sub_name) if sub_name
                else [basis(i) for i in range(qg.dim)])
        report = dual_imbedding(check_sub_mha(qg, rows), build)
        assert report.all_ok
        b_inv = build.form_inv.matrix
        for a, v in enumerate(rows):
            values = [apply_functional(phi, alg.multiply(basis(t), v))
                      for t in range(qg.dim)]
            assert [row[a] for row in report.j_map.matrix] == \
                matvec(b_inv, values), (name, a)

    @pytest.mark.parametrize("shapes", [
        pair for pair in itertools.product(range(4), repeat=2)
        if pair != (0, 3)])
    def test_changed_shapes_are_caught(self, monkeypatch, shapes):
        source = textwrap.dedent(inspect.getsource(duality.dual_imbedding))
        assert source.count("zip((0, 3),") == 1
        scope = {}
        exec(source.replace("zip((0, 3),", "zip(%r," % (shapes,)),
             vars(duality), scope)
        monkeypatch.setattr(duality, "dual_imbedding",
                            scope["dual_imbedding"])
        with pytest.raises(AssertionError):
            self.test_twisted_dual_coproduct_fails_both_equations()
