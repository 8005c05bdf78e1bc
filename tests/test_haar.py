"""Invariant functionals and the modular machinery, against frozen values
and against the per-pair identities that the modular stage proves."""

import inspect
import textwrap

import pytest

from hopf_forge import haar_modular, mhopf
from hopf_forge.assemble import build_qg
from hopf_forge.duality import build_dual
from hopf_forge.errors import CheckFailure, StructureError
from hopf_forge.exactla import (dense_row, eigensplit, mat_copy, rref,
                                sparse_row)
from hopf_forge.finalg import LinMap, apply_functional, build_algebra
from hopf_forge.haar_modular import (FIVE_MAP_NAMES, antipode_squared,
                                     compute_modular_data,
                                     delta_square_root, orbit_analysis,
                                     orbit_span, psi_positivity,
                                     scaling_constant,
                                     check_sigma_coproduct_rule,
                                     simultaneous_eigenbasis, solve_left_haar,
                                     split_block)
from hopf_forge.mhopf import (Coproduct, attach_coproduct,
                              derive_counit_antipode)
from hopf_forge.report import Report, _modular_stages
from hopf_forge.scalars import (DEFAULT_SPEC_POINTS, SC_ONE, SC_ZERO,
                                parse_scalar)

from oracles import basis, orbit_closure
from packaged import packaged
from test_bench_workloads import WORKLOADS
from test_mhopf import DERIVED_CASES, NO_CANDIDATE_CORPUS, derived_structures

HOPF_FIXTURES = ("c_z2", "c_z4", "c_s3", "group_s3", "sweedler_h4")
# the packaged Hopf examples, and two benchmark variants of sweedler_h4 in
# which f_gx has an orbit of dimension 2
ORBIT_DEFINITIONS = [packaged(name) for name in HOPF_FIXTURES] + [
    WORKLOADS.deformed_definition(packaged("sweedler_h4"), positions)
    for positions in ((2, 3, 0), (2, 3, 1))]


def sc(text):
    return parse_scalar(text)


def hopf_qg(name):
    # the declared tables are verified candidates, so no Haar functional is
    # solved on the way (TestModularPremises mutates that solve)
    defn = packaged(name)
    return derive_counit_antipode(build_qg(defn), defn.counit, defn.antipode)


def dense(x, n):
    """The element or functional {i: c} as its n dense coordinates."""
    return dense_row(x, n, SC_ZERO)


def scaled(c, x):
    """c x, storing no zero."""
    return {} if c.is_zero else {k: c * y for k, y in x.items()}


class TestLeftHaar:
    def test_solution_space_is_one_dimensional_everywhere(self):
        # solve_left_haar raises unless the kernel is one-dimensional
        # (test_haar_uniqueness_is_checked)
        for name in HOPF_FIXTURES:
            assert solve_left_haar(hopf_qg(name)), name

    def test_uniform_weights_on_function_algebras(self):
        frozen = {"c_z2": "1/2", "c_z4": "1/4", "c_s3": "1/6"}
        for name, w in frozen.items():
            qg = hopf_qg(name)
            phi = solve_left_haar(qg)
            assert phi == {i: sc(w) for i in range(qg.dim)}, name

    def test_identity_coefficient_on_group_algebra(self):
        phi = solve_left_haar(hopf_qg("group_s3"))
        assert phi == {0: SC_ONE}

    def test_left_invariance_by_direct_expansion(self):
        # (i (x) phi)(D(a)) = phi(a) 1, expanded without the solver
        qg = hopf_qg("c_s3")
        alg = qg.algebra
        n = alg.dim
        phi = dense(solve_left_haar(qg), n)
        for k in range(n):
            dk = qg.delta(basis(k))
            out = [SC_ZERO] * n
            for (i, j), c in dk.items():
                w = c * phi[j]
                out = [x + w * y for x, y in zip(out, dense(basis(i), n))]
            assert out == [phi[k] * u for u in alg.unit]

    def test_sweedler_haar_is_the_corner_functional(self):
        phi = solve_left_haar(hopf_qg("sweedler_h4"))
        assert phi == {3: SC_ONE}


class TestRightHaarAndModularMaps:
    def test_sweedler_frozen_data(self):
        qg = hopf_qg("sweedler_h4")
        md = compute_modular_data(qg)
        neg = SC_ZERO - SC_ONE
        assert md.phi == {3: SC_ONE}
        assert md.psi == {2: neg}
        diag = [SC_ONE, neg, neg, SC_ONE]
        assert md.sigma.matrix == \
            [[diag[i] if i == j else SC_ZERO for j in range(4)]
             for i in range(4)]
        assert md.delta == {1: SC_ONE}
        assert md.mu == neg
        kdiag = [SC_ONE, neg, SC_ONE, neg]
        assert md.kappa.matrix == \
            [[kdiag[i] if i == j else SC_ZERO for j in range(4)]
             for i in range(4)]

    def test_commutative_fixtures_have_trivial_modular_data(self):
        for name in ("c_z2", "c_z4", "c_s3"):
            qg = hopf_qg(name)
            md = compute_modular_data(qg)
            n = qg.dim
            ident = [[SC_ONE if i == j else SC_ZERO for j in range(n)]
                     for i in range(n)]
            assert md.sigma.matrix == ident, name
            assert md.delta == qg.algebra.one, name
            assert md.mu == SC_ONE, name
            assert delta_square_root(qg, md.delta) == qg.algebra.one, name

    def test_scaling_constant_matches_brute_force(self):
        for name in HOPF_FIXTURES:
            qg = hopf_qg(name)
            phi = solve_left_haar(qg)
            mu = scaling_constant(qg, phi)
            s2 = qg.antipode.compose(qg.antipode)
            lhs = [apply_functional(phi, s2.apply(basis(i)))
                   for i in range(qg.dim)]
            rhs = [mu * x for x in dense(phi, qg.dim)]
            assert lhs == rhs, name

    def test_positive_mode_rejects_sweedler_scaling(self):
        qg = hopf_qg("sweedler_h4")
        rep = Report("analyze", "sweedler_h4", "", "")
        _modular_stages(rep, qg, positive_mode=True)
        assert [(c.name, c.detail) for c in rep.checks if not c.ok] == [
            ("scaling-constant", "scaling-constant: positive case requires "
             "mu = 1 but mu = -1")]

    def test_delta_square_root_obstruction_on_sweedler(self):
        qg = hopf_qg("sweedler_h4")
        md = compute_modular_data(qg)
        with pytest.raises(CheckFailure, match="delta-half"):
            delta_square_root(qg, md.delta)

    def test_sigma_prime_is_modular_for_psi(self):
        qg = hopf_qg("sweedler_h4")
        md = compute_modular_data(qg)
        alg = qg.algebra
        for i in range(qg.dim):
            for j in range(qg.dim):
                ab = alg.multiply(basis(i), basis(j))
                bsa = alg.multiply(basis(j), md.sigma_prime.apply(basis(i)))
                assert apply_functional(md.psi, ab) == \
                    apply_functional(md.psi, bsa)

    def test_sigma_coproduct_rule(self):
        for name in HOPF_FIXTURES:
            qg = hopf_qg(name)
            md = compute_modular_data(qg)
            item = check_sigma_coproduct_rule(qg, md)
            assert item.name == "coproduct-modular-rule"
            assert item.ok, name


class TestEigentable:
    def test_commutative_fixture_has_all_ones(self):
        qg = hopf_qg("c_s3")
        md = compute_modular_data(qg)
        assert md.mu == SC_ONE
        report = simultaneous_eigenbasis(qg, md, positive_mode=True)
        assert report.used_maps == list(FIVE_MAP_NAMES)
        assert report.skipped == []
        assert len(report.rows) == 6
        for row in report.rows:
            for name in FIVE_MAP_NAMES:
                assert row.values[name] == SC_ONE
        assert report.all_positive

    def test_sweedler_skips_delta_multiplications(self):
        qg = hopf_qg("sweedler_h4")
        md = compute_modular_data(qg)
        report = simultaneous_eigenbasis(qg, md, positive_mode=False)
        skipped_names = [name for name, _reason in report.skipped]
        assert "left-mult-delta" in skipped_names
        assert "right-mult-delta" in skipped_names
        assert "antipode-squared" in report.used_maps

    def test_sweedler_records_negative_eigenvalue(self):
        qg = hopf_qg("sweedler_h4")
        md = compute_modular_data(qg)
        report = simultaneous_eigenbasis(qg, md, positive_mode=False)
        neg = SC_ZERO - SC_ONE
        s2_values = [row.values["antipode-squared"] for row in report.rows]
        assert neg in s2_values
        assert not report.all_positive
        bad = [it for it in report.positivity if not it.ok]
        assert bad
        assert any("-1" in it.detail for it in bad)


class TestPsiPositivity:
    def test_shifted_identity_and_positivity(self):
        for name in ("c_z2", "c_z4", "c_s3", "group_s3"):
            qg = hopf_qg(name)
            md = compute_modular_data(qg)
            assert md.mu == SC_ONE, name
            cert = psi_positivity(qg, md, DEFAULT_SPEC_POINTS)
            assert cert.verdict == "positive-definite", name

    def test_sweedler_psi_gram_is_indefinite(self):
        qg = hopf_qg("sweedler_h4")
        md = compute_modular_data(qg)
        cert = psi_positivity(qg, md, DEFAULT_SPEC_POINTS)
        assert cert.verdict == "indefinite"


class TestOrbitWindow:
    def test_window_passes_on_group_fixture(self):
        qg = hopf_qg("group_s3")
        md = compute_modular_data(qg)
        assert md.mu == SC_ONE
        report = orbit_analysis(qg, md, basis(1))
        assert report.all_ok

    def test_window_vanishes_on_sweedler(self):
        qg = hopf_qg("sweedler_h4")
        md = compute_modular_data(qg)
        report = orbit_analysis(qg, md, basis(1))
        assert not report.all_ok


class TestOrbitSpan:
    @pytest.mark.parametrize("defn", ORBIT_DEFINITIONS,
                             ids=[d.name for d in ORBIT_DEFINITIONS])
    def test_krylov_span_is_the_two_map_closure(self, defn):
        qg = derive_counit_antipode(build_qg(defn))
        md = compute_modular_data(qg)
        for i in range(qg.dim):
            assert orbit_span(md, basis(i)) == orbit_closure(md, basis(i)), \
                (defn.name, i)


class TestSplitBlock:
    def test_invariant_plane_and_non_invariant_block(self):
        # m e0 = 2 e0, m e1 = 3 e1, m e2 = e0 + 5 e2: span(e0, e1) is
        # invariant, span(e1, e2) is not
        m = LinMap([[sc("2"), SC_ZERO, SC_ONE],
                    [SC_ZERO, sc("3"), SC_ZERO],
                    [SC_ZERO, SC_ZERO, sc("5")]])
        plane = [{0: SC_ONE, 1: SC_ONE}, {0: SC_ONE, 1: sc("-1")}]

        def split(rows):
            return eigensplit(rows, DEFAULT_SPEC_POINTS)

        assert split_block(m, plane, split) == [
            (sc("2"), [{0: sc("2")}]),
            (sc("3"), [{1: sc("-2")}]),
        ]
        with pytest.raises(StructureError, match="block is not invariant"):
            split_block(m, [basis(1), basis(2)], split)


def leg_action(qg, omega, a, b, right):
    """(omega(x)i) of D(e_a)(1(x)e_b), or of (1(x)e_b)D(e_a) when right,
    expanded term by term."""
    alg = qg.algebra
    n = alg.dim
    out = [SC_ZERO] * n
    for (i, j), c in qg.coproduct.columns[a].items():
        leg = dense(alg.multiply(basis(b), basis(j)) if right
                    else alg.multiply(basis(j), basis(b)), n)
        w = c * omega[i]
        out = [x + w * y for x, y in zip(out, leg)]
    return sparse_row(out)


@pytest.mark.parametrize("name", DERIVED_CASES)
def test_modular_identities_hold_on_every_basis_pair(name):
    # the theorems of the modular stage's docstrings, checked by the loops
    # they replace on the structure and its dual, or on every induced
    # sub-object; compute_modular_data succeeds on each of them
    reached = derived_structures(name)
    assert reached
    for qg in reached:
        md = compute_modular_data(qg)
        alg = qg.algebra
        n = alg.dim
        elems = [basis(i) for i in range(n)]
        phi, psi, delta = md.phi, md.psi, md.delta
        dphi, dpsi = dense(phi, n), dense(psi, n)
        for a in range(n):
            for b in range(n):
                # psi is right invariant
                assert leg_action(qg, dpsi, a, b, False) == \
                    scaled(dpsi[a], elems[b]), (a, b)
                # both modular-element laws
                assert leg_action(qg, dphi, a, b, False) == \
                    scaled(dphi[a], alg.multiply(delta, elems[b]))
                assert leg_action(qg, dphi, a, b, True) == \
                    scaled(dphi[a], alg.multiply(elems[b], delta))
        for omega, sigma in ((phi, md.sigma), (psi, md.sigma_prime)):
            images = [sigma.apply(v) for v in elems]
            assert sigma.apply(alg.one) == alg.one
            for i in range(n):
                for j in range(n):
                    prod = alg.multiply(elems[i], elems[j])
                    assert apply_functional(omega, prod) == apply_functional(
                        omega, alg.multiply(elems[j], images[i])), (i, j)
                    assert sigma.apply(prod) == \
                        alg.multiply(images[i], images[j]), (i, j)
            assert len(rref(mat_copy(sigma.matrix))) == n
        s2 = antipode_squared(qg)
        for i in range(n):
            assert apply_functional(phi, s2.apply(elems[i])) == \
                md.mu * dphi[i]
            # phi(S a) = phi(a delta)
            assert dpsi[i] == apply_functional(phi,
                                               alg.multiply(elems[i], delta))


@pytest.mark.parametrize("case", sorted(NO_CANDIDATE_CORPUS))
def test_the_modular_stages_cannot_fail_on_a_hopf_algebra(case):
    # compute_modular_data has no failure path: each of its stages is a
    # theorem on a verified Hopf (*-)algebra (its docstring), here each
    # declared structure and its dual; on taft_t4 sigma has order 4 and
    # S^2 != id
    defn = NO_CANDIDATE_CORPUS[case]
    qg = derive_counit_antipode(build_qg(defn), defn.counit, defn.antipode)
    md = compute_modular_data(qg)
    dual = build_dual(qg, md.phi).qg
    for md in (md, compute_modular_data(dual)):
        assert md.phi and md.delta and not md.mu.is_zero, case


def outcome(call, *args):
    """What call(*args) raises, as "Type: text", or None when it returns;
    a mutant of it may fail in any way."""
    try:
        call(*args)
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return None


def every_functional_invariant():
    """C^2 on two orthogonal idempotents with D(a) = 1(x)a: multiplicative
    and coassociative, and (i(x)w)D(a) = w(a)1 for every functional w."""
    alg = build_algebra(["e0", "e1"], {(0, 0): {0: SC_ONE},
                                       (1, 1): {1: SC_ONE}})
    return attach_coproduct(alg, Coproduct([{(0, 0): SC_ONE, (1, 0): SC_ONE},
                                            {(0, 1): SC_ONE, (1, 1): SC_ONE}]))


class TestModularPremises:
    """The premises the modular stage's theorems rest on and that the
    program checks itself: Haar uniqueness and a faithful functional."""

    def test_haar_uniqueness_is_checked(self):
        assert outcome(haar_modular.solve_left_haar,
                       every_functional_invariant()) == (
            "StructureError: left Haar functional is not unique "
            "(solution space dimension 2)")

    def test_the_unit_rows_give_the_law_at_every_b(self):
        # (i(x)phi)(D(a)(b(x)1)) = phi(a) b on every basis pair, expanded
        # from the multiplication table: solve_left_haar keeps only the rows
        # at b = 1, which rests on alg.one being the unit
        for name in HOPF_FIXTURES:
            qg = hopf_qg(name)
            alg = qg.algebra
            try:
                phi = haar_modular.solve_left_haar(qg)
            except StructureError as exc:
                raise AssertionError("%s: %s" % (name, exc)) from None
            for a in range(qg.dim):
                for b in range(qg.dim):
                    lhs = {}
                    for (i, j), c in qg.coproduct.columns[a].items():
                        for t, m in alg.mul.get((i, b), {}).items():
                            lhs[t] = lhs.get(t, SC_ZERO) + c * m * phi.get(
                                j, SC_ZERO)
                    assert {t: x for t, x in lhs.items() if not x.is_zero} \
                        == scaled(phi.get(a, SC_ZERO), basis(b)), (name, a, b)

    def test_a_haar_functional_that_is_not_unique_means_no_antipode(self):
        # the antipode formula needs the unique left integral every
        # finite-dimensional Hopf algebra has
        assert outcome(mhopf._haar_antipode, every_functional_invariant(),
                       {0: SC_ONE}) == (
            "StructureError: antipode laws have no solution")

    def test_faithfulness_is_checked(self):
        assert outcome(haar_modular.modular_automorphism, hopf_qg("c_z2"),
                       {0: SC_ONE}) == (
            "NotFaithful: functional is not faithful: its multiplication "
            "form is singular")

    @pytest.mark.parametrize("func, original, mutant, test", [
        ("solve_left_haar", "if dim > 1:", "if False:",
         "test_haar_uniqueness_is_checked"),
        ("modular_automorphism", "if b_inv is None:", "if False:",
         "test_faithfulness_is_checked"),
        # e_0 is the unit of a group algebra, not of a function algebra
        ("solve_left_haar", "alg.one.items()", "{0: SC_ONE}.items()",
         "test_the_unit_rows_give_the_law_at_every_b"),
    ], ids=["uniqueness", "faithfulness", "unit"])
    def test_dropping_a_premise_check_is_caught(self, monkeypatch, func,
                                                original, mutant, test):
        source = textwrap.dedent(inspect.getsource(getattr(haar_modular,
                                                           func)))
        assert source.count(original) == 1
        scope = {}
        exec(source.replace(original, mutant), vars(haar_modular), scope)
        monkeypatch.setattr(haar_modular, func, scope[func])
        with pytest.raises(AssertionError):
            getattr(self, test)()
