"""One test per published acceptance criterion, each exact and timed.

Every test in this file is a full criterion: it either passes in one
verbose line or fails with the offending value in the assertion message.
All equalities are exact (no tolerances); time budgets are wall clock.
"""

import json
import os
import subprocess
import sys
import time

from hopf_forge.assemble import build_qg
from hopf_forge.definition import read_definition
from hopf_forge.duality import (biduality, build_dual, dual_imbedding,
                                dual_modular_check, find_group_iso,
                                verify_qg_morphism)
from hopf_forge.exactla import POSITIVE_DEFINITE, INDEFINITE, sparse_row
from hopf_forge.finalg import apply_functional, gram_psd
from hopf_forge.fixtures import packaged_fixture_path
from hopf_forge.haar_modular import (compute_modular_data, psi_positivity,
                                     scaling_constant,
                                     check_sigma_coproduct_rule,
                                     simultaneous_eigenbasis, solve_left_haar)
from hopf_forge.mhopf import check_sub_mha, derive_counit_antipode
from hopf_forge.presentations import Presentation, build_presented
from hopf_forge.report import run_validate
from hopf_forge.scalars import (DEFAULT_SPEC_POINTS, SC_ONE, SC_ZERO,
                                parse_scalar)

from oracles import basis
from packaged import packaged

GOOD_FIXTURES = ("c_z2", "c_z4", "c_s3", "group_s3")
HOPF_FIXTURES = GOOD_FIXTURES + ("sweedler_h4",)


def sc(text):
    return parse_scalar(text)


def hopf_qg(name):
    qg = build_qg(packaged(name))
    return derive_counit_antipode(qg)


def validate_by_name(name):
    path = packaged_fixture_path(name)
    defn, sha = read_definition(path)
    return run_validate(defn, path, sha)


def run_cli(*args):
    env = dict(os.environ)
    env.pop("HOPF_FORGE_SPEC_POINTS", None)
    return subprocess.run(
        [sys.executable, "-m", "hopf_forge", *args],
        capture_output=True, text=True, env=env)


def test_criterion_01_validation_accepts_and_rejects_correctly():
    for name in GOOD_FIXTURES:
        t0 = time.monotonic()
        rep = validate_by_name(name)
        took = time.monotonic() - t0
        assert rep.ok, "%s: %s" % (name, [(c.name, c.detail)
                                          for c in rep.checks if not c.ok])
        assert took < 2.0, "%s took %.2fs" % (name, took)
    t0 = time.monotonic()
    rep = validate_by_name("semilattice2")
    took = time.monotonic() - t0
    assert took < 2.0
    assert not rep.ok
    failed = [c for c in rep.checks if not c.ok]
    assert failed and all(c.name.startswith("canonical-map") for c in failed)
    assert failed[0].name == "canonical-map D(a)(1(x)b)"
    assert "rank 2 of 4" in failed[0].detail
    before = [c for c in rep.checks if c.name in ("algebra-axioms",
                                                  "coproduct-axioms")]
    assert before and all(c.ok for c in before)


def test_criterion_02_left_invariant_space_is_one_dimensional():
    # solve_left_haar raises unless the kernel is one-dimensional
    for name in HOPF_FIXTURES:
        assert solve_left_haar(hopf_qg(name)), name


def test_criterion_03_commutative_and_cocommutative_modular_data():
    for name in ("c_s3", "group_s3"):
        qg = hopf_qg(name)
        md = compute_modular_data(qg, positive_mode=True)
        n = qg.dim
        ident = [[SC_ONE if i == j else SC_ZERO for j in range(n)]
                 for i in range(n)]
        assert md.sigma.matrix == ident, name
        assert md.delta == qg.algebra.one, name
        assert md.mu == SC_ONE, name
        phi_cert = gram_psd(qg.algebra, md.phi, DEFAULT_SPEC_POINTS)
        assert phi_cert.verdict == POSITIVE_DEFINITE, name
        assert phi_cert.mode == "exact", name
        psi_cert = psi_positivity(qg, md, DEFAULT_SPEC_POINTS)
        assert psi_cert.verdict == POSITIVE_DEFINITE, name
        item = check_sigma_coproduct_rule(qg, md)
        assert item.ok, (name, item.detail)


def test_criterion_04_scaling_constant_one_iff_positive():
    for name in GOOD_FIXTURES:
        qg = hopf_qg(name)
        phi = solve_left_haar(qg)
        cert = gram_psd(qg.algebra, phi, DEFAULT_SPEC_POINTS)
        assert cert.verdict == POSITIVE_DEFINITE, name
        assert scaling_constant(qg, phi, assert_one=True) == SC_ONE, name
    qg = hopf_qg("sweedler_h4")
    phi = solve_left_haar(qg)
    cert = gram_psd(qg.algebra, phi, DEFAULT_SPEC_POINTS)
    assert cert.verdict == INDEFINITE
    mu = scaling_constant(qg, phi, assert_one=False)
    neg = SC_ZERO - SC_ONE
    assert mu == neg
    # independent brute force: phi(S^2(e_k)) = mu phi(e_k) on all four
    s2 = qg.antipode.compose(qg.antipode)
    for k in range(qg.dim):
        assert apply_functional(phi, s2.apply(basis(k))) == \
            mu * phi.get(k, SC_ZERO)


def test_criterion_05_joint_eigenbasis_and_positivity_obstruction():
    for name in GOOD_FIXTURES:
        qg = hopf_qg(name)
        md = compute_modular_data(qg, positive_mode=True)
        rep = simultaneous_eigenbasis(qg, md, positive_mode=True)
        assert len(rep.rows) == qg.dim, name
        assert rep.all_positive, name
        assert all(it.ok for it in rep.positivity), name
    qg = hopf_qg("sweedler_h4")
    md = compute_modular_data(qg, positive_mode=False)
    rep = simultaneous_eigenbasis(qg, md, positive_mode=False)
    neg = SC_ZERO - SC_ONE
    assert neg in [row.values["antipode-squared"] for row in rep.rows]
    assert not rep.all_positive
    assert any("antipode-squared" in it.name and not it.ok
               for it in rep.positivity)


def test_criterion_06_right_functional_is_the_shifted_left_one():
    for name in GOOD_FIXTURES:
        qg = hopf_qg(name)
        md = compute_modular_data(qg, positive_mode=True)
        alg = qg.algebra
        # direct identity check, element by element
        for i in range(qg.dim):
            for j in range(qg.dim):
                si = alg.star.apply(basis(i))
                lhs = apply_functional(md.psi, alg.multiply(si, basis(j)))
                shifted = alg.multiply(basis(j), md.delta)
                rhs = apply_functional(md.phi, alg.multiply(si, shifted))
                assert lhs == rhs, (name, i, j)
        cert = psi_positivity(qg, md, DEFAULT_SPEC_POINTS)
        assert cert.verdict == POSITIVE_DEFINITE, name


def test_criterion_07_duality_suite():
    # the dual of the group algebra is the function algebra
    t0 = time.monotonic()
    qg = hopf_qg("group_s3")
    phi = solve_left_haar(qg)
    build = build_dual(qg, phi)
    assert build.tmaps.all_bijective
    assert build.star_compat.all_ok
    assert solve_left_haar(build.qg)
    target = hopf_qg("c_s3")
    iso = find_group_iso(build.qg, target, DEFAULT_SPEC_POINTS)
    assert iso.report.all_ok
    assert verify_qg_morphism(build.qg, target, iso.lin).all_ok
    assert time.monotonic() - t0 < 5.0
    # biduality and the dual modular element on three named fixtures
    for name in ("c_z2", "group_s3", "sweedler_h4"):
        t0 = time.monotonic()
        qg = hopf_qg(name)
        phi = solve_left_haar(qg)
        build = build_dual(qg, phi)
        bi = biduality(qg, build)
        assert bi.report.all_ok, name
        md = compute_modular_data(qg, positive_mode=False)
        items = dual_modular_check(qg, md, build)
        assert all(it.ok for it in items), \
            (name, [(it.name, it.detail) for it in items if not it.ok])
        assert time.monotonic() - t0 < 5.0, name


def test_criterion_08_sub_object_and_its_dual_imbedding():
    defn = packaged("c_z4")
    qg = hopf_qg("c_z4")
    sub = check_sub_mha(qg, [sparse_row(r) for r in defn.sub_bases["c_h"]])
    assert len(sub.memberships) == 4 and all(it.ok for it in sub.memberships)
    assert len(sub.compat) == 4 and all(it.ok for it in sub.compat)
    assert sub.induced is not None and sub.induced.dim == 2
    assert sub.induced_tmaps.all_bijective
    assert sub.induced.counit is not None
    assert sub.induced.antipode is not None
    phi = solve_left_haar(qg)
    build = build_dual(qg, phi)
    report = dual_imbedding(sub, build)
    by_name = {it.name: it for it in report.items}
    assert by_name["restriction-nonzero"].ok
    assert by_name["imbedding-injective"].ok
    assert by_name["imbedding-coproduct-right"].ok
    assert by_name["imbedding-coproduct-left"].ok
    assert report.all_ok, [(it.name, it.detail)
                           for it in report.items if not it.ok]


def test_criterion_09_pairing_table_axioms_and_functional():
    t0 = time.monotonic()
    proc3 = run_cli("pair", "pairing-uqsu2-suq2", "--degree", "3",
                    "--format", "json")
    assert proc3.returncode == 0, proc3.stdout + proc3.stderr
    payload = json.loads(proc3.stdout)
    table = dict(payload["objects"])["pairing-table"]
    frozen = {
        "<K, a> = 1/s", "<K, as> = s", "<K, b> = 0", "<K, bs> = 0",
        "<E, a> = 0", "<E, as> = 0", "<E, b> = 0", "<E, bs> = -s^2",
    }
    assert frozen.issubset(set(table)), sorted(set(table))
    checks = {c["name"]: c["ok"] for c in payload["checks"]}
    for axiom in ("pairing-product-left", "pairing-product-right",
                  "pairing-unit-row", "pairing-unit-column",
                  "pairing-antipode"):
        assert checks[axiom], axiom
    proc4 = run_cli("pair", "pairing-uqsu2-suq2", "--degree", "4",
                    "--format", "json")
    assert proc4.returncode == 0, proc4.stdout + proc4.stderr
    payload4 = json.loads(proc4.stdout)
    func = [c for c in payload4["checks"]
            if c["name"] == "action-functional kappa"]
    assert func and func[0]["ok"], func
    assert "55 words" in func[0]["detail"]
    assert time.monotonic() - t0 < 30.0


def test_criterion_10_double_antipode_and_confluence():
    t0 = time.monotonic()
    col = build_presented(packaged("suq2"))
    fixed = col.antipode.apply_terms(
        col.antipode.apply_terms(((("a",), SC_ONE),)))
    assert col.pres.normal_form(fixed) == ((("a",), SC_ONE),)
    scaled = col.antipode.apply_terms(
        col.antipode.apply_terms(((("b",), SC_ONE),)))
    assert col.pres.normal_form(scaled) == ((("b",), sc("1/s^4")),)
    for defn in (packaged("uq-su2"), packaged("suq2")):
        pres = Presentation(defn)
        items = pres.check_confluence(6)
        assert all(it.ok for it in items), \
            (defn.name, [(it.name, it.detail) for it in items if not it.ok])
    assert time.monotonic() - t0 < 30.0


def test_criterion_11_reports_are_deterministic():
    for args in (("analyze", "group_s3"),
                 ("analyze", "sweedler_h4", "--no-star-assert"),
                 ("pair", "pairing-uqsu2-suq2", "--degree", "3")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, args
        assert first.stdout.strip(), args
