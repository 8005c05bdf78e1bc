"""Verification pipelines and deterministic reports.

Each CLI command maps to one run_* function here.  A pipeline appends named
check items to a report in a fixed order, records the certified objects it
computed (functionals, matrices, tables) as canonical literals, and never
consults the clock, so rendering the same input twice gives byte-identical
output.  Errors raised by the library become failed checks; the stages that
depend on the failed one are skipped rather than reported as passing.
"""

from __future__ import annotations

import json

from . import __version__
from .assemble import (algebra_from_definition, coproduct_map,
                       definition_from_qg)
from .definition import (PairingDefinition, PresentationDefinition,
                         StructureDefinition, save_definition)
from .duality import biduality, build_dual, dual_imbedding, dual_modular_check
from .errors import CheckFailure, DefinitionError, HopfForgeError
from .exactla import POSITIVE_DEFINITE
from .finalg import gram_psd
from .haar_modular import (MODULAR_STAGES, ModularStageFailure,
                           check_sigma_coproduct_rule, compute_modular_data,
                           delta_square_root, left_haar, nonvanishing_window,
                           orbit_span, psi_positivity,
                           simultaneous_eigenbasis)
from .mhopf import (CheckItem, attach_coproduct, check_star_compat,
                    check_sub_mha, check_tmaps)
from .presentations import (PairedPresentations, build_presented,
                            check_word_budget)
from .scalars import DEFAULT_SPEC_POINTS, SC_ONE

DEFAULT_CONFLUENCE_DEGREE = 6
DEFAULT_PAIRING_DEGREE = 4


def _word_degree(degree, default: int, *presentations) -> int:
    """The degree bound to use, refused before any rewriting when the words
    of one of the presentations would pass the word budget."""
    deg = degree if degree is not None else default
    for defn in presentations:
        check_word_budget(len(defn.generators), deg)
    return deg


class Report:
    def __init__(self, command: str, subject: str, source: str, sha256: str):
        self.command = command
        self.subject = subject
        self.source = source
        self.sha256 = sha256
        self.params = []    # ordered (key, value) pairs
        self.checks = []    # CheckItems
        self.objects = []   # (name, str or list of str)
        self.notes = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append(CheckItem(name, ok, detail))

    def fail_from(self, name: str, exc: HopfForgeError) -> None:
        if isinstance(exc, CheckFailure):
            self.checks.append(CheckItem(exc.check, False, str(exc)))
        else:
            self.checks.append(CheckItem(name, False, str(exc)))


def fmt_vector(v) -> str:
    return "[" + ", ".join(str(x) for x in v) + "]"


def fmt_matrix(m) -> list:
    return [fmt_vector(row) for row in m]


def fmt_spec_points(spec_points) -> str:
    return ", ".join(str(p) for p in spec_points)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_text(rep: Report) -> str:
    out = ["hopf-forge %s" % __version__,
           "command: %s" % rep.command,
           "input: %s (%s)" % (rep.subject, rep.source),
           "sha256: %s" % rep.sha256]
    if rep.params:
        out.append("parameters:")
        for key, value in rep.params:
            out.append("  %s = %s" % (key, value))
    out.append("")
    out.append("checks:")
    for c in rep.checks:
        mark = "PASS" if c.ok else "FAIL"
        out.append("  [%s] %s: %s" % (mark, c.name, c.detail))
    if not rep.checks:
        out.append("  (none)")
    if rep.objects:
        out.append("")
        out.append("objects:")
        for name, value in rep.objects:
            if isinstance(value, list):
                out.append("  %s:" % name)
                for line in value:
                    out.append("    %s" % line)
            else:
                out.append("  %s = %s" % (name, value))
    if rep.notes:
        out.append("")
        out.append("notes:")
        for note in rep.notes:
            out.append("  - %s" % note)
    out.append("")
    failed = sum(1 for c in rep.checks if not c.ok)
    if failed:
        out.append("result: FAIL (%d of %d checks failed)"
                   % (failed, len(rep.checks)))
    else:
        out.append("result: PASS (%d checks)" % len(rep.checks))
    return "\n".join(out) + "\n"


def render_json(rep: Report) -> str:
    payload = {
        "tool": "hopf-forge",
        "version": __version__,
        "command": rep.command,
        "subject": rep.subject,
        "input": rep.source,
        "sha256": rep.sha256,
        "parameters": [[k, v] for k, v in rep.params],
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in rep.checks],
        "objects": [[name, value] for name, value in rep.objects],
        "notes": list(rep.notes),
        "ok": rep.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render(rep: Report, fmt: str) -> str:
    return render_json(rep) if fmt == "json" else render_text(rep)


# ---------------------------------------------------------------------------
# structure-constant stages
# ---------------------------------------------------------------------------

def _structure_checks(rep: Report, defn: StructureDefinition):
    """Validate stages for structure constants; returns the verified quantum
    group on full success and None as soon as a stage fails."""
    try:
        alg = algebra_from_definition(defn)
    except HopfForgeError as exc:
        rep.fail_from("algebra-axioms", exc)
        return None
    star_note = "; star is involutive and twists products" if alg.star else ""
    rep.add("algebra-axioms", True,
            "associative and unital on %d basis elements%s"
            % (alg.dim, star_note))

    try:
        qg = attach_coproduct(alg, coproduct_map(defn))
    except HopfForgeError as exc:
        rep.fail_from("coproduct-axioms", exc)
        return None
    rep.add("coproduct-axioms", True, "multiplicative and coassociative")

    tmaps = check_tmaps(qg, defn.counit, defn.antipode)
    for view in tmaps.maps:
        rep.add("canonical-map %s" % view.formula, view.bijective,
                "rank %d of %d" % (view.rank, view.size))
    rep.notes.append("coproduct sends the unit to 1 (x) 1"
                     if tmaps.coproduct_unital else
                     "coproduct does not send the unit to 1 (x) 1")
    if not tmaps.all_bijective:
        return None
    if tmaps.error is not None:
        rep.fail_from("counit-antipode", tmaps.error)
        return None
    declared = []
    if defn.counit is not None:
        declared.append("counit")
    if defn.antipode is not None:
        declared.append("antipode")
    agree = ("; agrees with the declared %s" % " and ".join(declared)
             if declared else "")
    rep.add("counit-antipode", True,
            "unique solution of both one-sided laws; the antipode is "
            "anti-multiplicative, unital and bijective" + agree)

    if alg.star is not None:
        try:
            star_rep = check_star_compat(qg)
        except HopfForgeError as exc:
            rep.fail_from("star-compatibility", exc)
            return None
        rep.checks.extend(star_rep.items)
        if not star_rep.all_ok:
            return None
    return qg


def _modular_stages(rep: Report, qg, positive_mode: bool):
    """Run compute_modular_data with one check per stage.

    Returns the modular data, or None when a stage before the scaling
    constant fails.  A failed scaling constant is recorded and the run goes
    on without mu.  Its PASS line is asserted only in positive mode, and its
    value is an object whenever it is known.
    """
    try:
        md, failed = compute_modular_data(qg, positive_mode), None
    except ModularStageFailure as exc:
        md, failed = exc.data, exc
    passed = (MODULAR_STAGES.index(failed.stage) if failed
              else len(MODULAR_STAGES))
    if passed > 0:
        rep.add("haar-functional", True,
                "left invariance has a one-dimensional solution space "
                "(dimension %d)" % left_haar(qg).dimension)
        rep.objects.append(("haar-functional", fmt_vector(md.phi)))
    if passed > 1:
        rep.add("right-invariance", True,
                "the antipode image of the left functional is right invariant")
        rep.objects.append(("right-invariant-functional", fmt_vector(md.psi)))
    if passed > 2:
        rep.add("modular-automorphism", True,
                "phi(a b) = phi(b sigma(a)) with sigma a bijective algebra "
                "automorphism, and likewise for the right functional")
        rep.objects.append(("modular-automorphism",
                            fmt_matrix(md.sigma.matrix)))
    if passed > 3:
        rep.add("modular-element", True,
                "both intertwining laws hold on every basis pair"
                + ("; self-adjoint" if qg.algebra.star is not None else ""))
        rep.objects.append(("modular-element", fmt_vector(md.delta)))
    if failed is not None:
        rep.fail_from(failed.stage, failed)
        if failed.stage != "scaling-constant":
            return None
    elif positive_mode:
        rep.add("scaling-constant", True,
                "phi is invariant under the squared antipode")
    if md.mu is not None:
        rep.objects.append(("scaling-constant", str(md.mu)))
    return md


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _presentation_checks(rep: Report, defn: PresentationDefinition,
                         degree: int, prefix: str = ""):
    """Validate stages for a presented quantum group; returns the built
    object or None."""
    try:
        pqg = build_presented(defn)
    except HopfForgeError as exc:
        rep.fail_from(prefix + "generator-maps", exc)
        return None
    for item in pqg.checks + pqg.pres.check_confluence(degree):
        rep.add(prefix + item.name, item.ok, item.detail)
    words = pqg.normal_words(degree)
    counts = [str(sum(1 for w in words if len(w) <= d))
              for d in range(degree + 1)]
    rep.objects.append((prefix + "irreducible-word-counts",
                        "[" + ", ".join(counts) + "] by degree"))
    return pqg


def run_validate(defn, source: str, sha256: str, degree=None) -> Report:
    rep = Report("validate", defn.name, source, sha256)
    if isinstance(defn, StructureDefinition):
        _structure_checks(rep, defn)
    elif isinstance(defn, PresentationDefinition):
        deg = _word_degree(degree, DEFAULT_CONFLUENCE_DEGREE, defn)
        rep.params.append(("degree", str(deg)))
        _presentation_checks(rep, defn, deg)
    elif isinstance(defn, PairingDefinition):
        deg = _word_degree(degree, DEFAULT_CONFLUENCE_DEGREE, defn.rows,
                           defn.cols)
        rep.params.append(("degree", str(deg)))
        _presentation_checks(rep, defn.rows, deg, prefix="rows: ")
        _presentation_checks(rep, defn.cols, deg, prefix="columns: ")
    else:
        raise DefinitionError("unsupported definition type")
    return rep


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _analyze_structure(rep: Report, qg, spec_points, star_assert: bool):
    alg = qg.algebra

    positive_mode = False
    if alg.star is not None:
        try:
            haar_probe = left_haar(qg)
        except HopfForgeError as exc:
            rep.fail_from("haar-functional", exc)
            return
        _g, cert = gram_psd(alg, haar_probe.phi, spec_points)
        positive_mode = cert.verdict == POSITIVE_DEFINITE
        detail = ("the form phi(a* b) is %s (certified %s)"
                  % (cert.verdict, cert.mode))
        if positive_mode or star_assert:
            rep.add("state-positivity", positive_mode, detail)
        else:
            rep.notes.append("state-positivity not asserted: " + detail)
    else:
        rep.notes.append(
            "no star structure declared: positivity does not apply")

    md = _modular_stages(rep, qg, positive_mode)
    if md is None:
        return

    half = None
    try:
        half = delta_square_root(qg, md.delta, md.sigma, spec_points)
    except HopfForgeError as exc:
        if positive_mode:
            rep.fail_from("modular-square-root", exc)
        else:
            rep.notes.append("modular-square-root: %s" % exc)
    if half is not None:
        rep.add("modular-square-root", True,
                "positive square root of the modular element found and "
                "fixed by the modular automorphism")
        rep.objects.append(("modular-element-square-root", fmt_vector(half)))

    rep.checks.append(check_sigma_coproduct_rule(qg, md))

    eigentable = None
    try:
        eigentable = simultaneous_eigenbasis(qg, md, spec_points,
                                             positive_mode)
    except HopfForgeError as exc:
        rep.fail_from("eigentable", exc)
    if eigentable is not None:
        rep.add("eigentable", True,
                "simultaneous eigenbasis of %s covers the whole algebra"
                % ", ".join(eigentable.used_maps))
        for name, reason in eigentable.skipped:
            rep.notes.append("eigentable skips %s: %s" % (name, reason))
        if positive_mode:
            rep.checks.extend(eigentable.positivity)
        else:
            for item in eigentable.positivity:
                rep.notes.append(
                    "%s: %s" % (item.name, item.detail) if item.ok else
                    "positivity obstruction at %s: %s"
                    % (item.name, item.detail))
        lines = []
        for row in eigentable.rows:
            values = ", ".join("%s = %s" % (name, row.values[name])
                               for name in eigentable.used_maps)
            lines.append("%s : %s" % (fmt_vector(row.vector), values))
        rep.objects.append(("eigentable", lines))

    if alg.star is not None:
        cert2 = None
        try:
            _g2, cert2 = psi_positivity(qg, md, spec_points)
        except HopfForgeError as exc:
            rep.fail_from("psi-agrees-with-shifted-phi", exc)
        if cert2 is not None:
            rep.add("psi-agrees-with-shifted-phi", True,
                    "psi(a* b) = phi(a* b delta) on every basis pair")
            detail = ("the form psi(a* b) is %s (certified %s)"
                      % (cert2.verdict, cert2.mode))
            if positive_mode:
                rep.add("psi-positivity",
                        cert2.verdict == POSITIVE_DEFINITE, detail)
            else:
                rep.notes.append("psi-positivity: " + detail)

    spans = ["%s: dimension %d" % (alg.labels[i],
                                   len(orbit_span(md, alg.basis(i))))
             for i in range(alg.dim)]
    rep.objects.append(("map-orbit-span-dimensions", spans))
    window_items = nonvanishing_window(qg, md)
    if positive_mode:
        rep.checks.extend(window_items)
    else:
        for item in window_items:
            rep.notes.append(
                "%s: %s" % (item.name, item.detail) if item.ok else
                "window obstruction at %s: %s" % (item.name, item.detail))


def _analyze_presentation(rep: Report, pqg):
    lines = []
    for g in pqg.pres.generators:
        terms = pqg.antipode_squared((((g,), SC_ONE),))
        lines.append("S^2(%s) = %s" % (g, pqg.pres.format_terms(terms)))
    rep.objects.append(("antipode-squared-on-generators", lines))


def run_analyze(defn, source: str, sha256: str,
                degree=None, spec_points=DEFAULT_SPEC_POINTS,
                star_assert=True) -> Report:
    rep = Report("analyze", defn.name, source, sha256)
    if isinstance(defn, StructureDefinition):
        rep.params.append(("spec-points", fmt_spec_points(spec_points)))
        rep.params.append(("star-assert",
                           "on" if star_assert else "off"))
        qg = _structure_checks(rep, defn)
        if qg is not None:
            _analyze_structure(rep, qg, spec_points, star_assert)
    elif isinstance(defn, PresentationDefinition):
        deg = _word_degree(degree, DEFAULT_CONFLUENCE_DEGREE, defn)
        rep.params.append(("degree", str(deg)))
        pqg = _presentation_checks(rep, defn, deg)
        if pqg is not None:
            _analyze_presentation(rep, pqg)
    else:
        raise DefinitionError(
            "analyze expects a structure or presentation definition; "
            "use the pair command for pairings")
    return rep


# ---------------------------------------------------------------------------
# dual
# ---------------------------------------------------------------------------

def run_dual(defn, source: str, sha256: str, output=None) -> Report:
    if not isinstance(defn, StructureDefinition):
        raise DefinitionError(
            "dual expects a structure-constant definition")
    rep = Report("dual", defn.name, source, sha256)
    qg = _structure_checks(rep, defn)
    if qg is None:
        return rep

    md = _modular_stages(rep, qg, positive_mode=False)
    if md is None:
        return rep

    try:
        build = build_dual(qg, md.phi, name="dual of " + defn.name)
    except HopfForgeError as exc:
        rep.fail_from("dual-build", exc)
        return rep
    rep.add("dual-build", True,
            "dual algebra, coproduct, counit and antipode assembled from "
            "the functional basis")
    for view in build.tmaps.maps:
        rep.add("dual canonical-map %s" % view.formula, view.bijective,
                "rank %d of %d" % (view.rank, view.size))
    if build.star_compat is not None:
        for item in build.star_compat.items:
            rep.add("dual %s" % item.name, item.ok, item.detail)
    rep.add("dual-unit-is-counit", build.unit_is_counit,
            "the unit of the dual is the counit functional")

    try:
        haar2 = left_haar(build.qg)
    except HopfForgeError as exc:
        rep.fail_from("dual-haar-functional", exc)
        return rep
    rep.add("dual-haar-functional", True,
            "left invariance on the dual has a one-dimensional solution "
            "space (dimension %d)" % haar2.dimension)
    rep.objects.append(("dual-haar-functional", fmt_vector(haar2.phi)))

    try:
        bid = biduality(qg, build)
    except HopfForgeError as exc:
        rep.fail_from("biduality", exc)
        bid = None
    if bid is not None:
        for item in bid.report.items:
            rep.add("biduality %s" % item.name, item.ok, item.detail)

    try:
        for item in dual_modular_check(qg, md, build):
            rep.checks.append(item)
    except HopfForgeError as exc:
        rep.fail_from("dual-modular-element", exc)

    if output is not None:
        out_defn = definition_from_qg(
            build.qg, name="dual_of_" + defn.name,
            description="dual quantum group of " + defn.name
                        + " on the basis of evaluation functionals")
        save_definition(out_defn, output)
        rep.notes.append("dual definition written to %s" % output)
    return rep


# ---------------------------------------------------------------------------
# subcheck
# ---------------------------------------------------------------------------

def run_subcheck(defn, source: str, sha256: str, sub_name=None) -> Report:
    if not isinstance(defn, StructureDefinition):
        raise DefinitionError(
            "subcheck expects a structure-constant definition")
    if not defn.sub_bases:
        raise DefinitionError(
            "%s declares no sub-bases to check" % defn.name)
    if sub_name is not None:
        if sub_name not in defn.sub_bases:
            raise DefinitionError(
                "%s declares no sub-basis named %r (has: %s)"
                % (defn.name, sub_name, ", ".join(sorted(defn.sub_bases))))
        selected = [(sub_name, defn.sub_bases[sub_name])]
    else:
        selected = list(defn.sub_bases.items())

    rep = Report("subcheck", defn.name, source, sha256)
    qg = _structure_checks(rep, defn)
    if qg is None:
        return rep

    md = _modular_stages(rep, qg, positive_mode=False)
    if md is None:
        return rep
    try:
        build = build_dual(qg, md.phi, name="dual of " + defn.name)
    except HopfForgeError as exc:
        rep.fail_from("dual-build", exc)
        return rep

    for name, rows in selected:
        prefix = "sub(%s) " % name
        try:
            result = check_sub_mha(qg, rows)
        except HopfForgeError as exc:
            rep.fail_from(prefix + "membership", exc)
            continue
        for item in result.memberships + result.compat:
            rep.add(prefix + item.name, item.ok, item.detail)
        if result.induced_tmaps is not None:
            for view in result.induced_tmaps.maps:
                rep.add(prefix + "induced canonical-map %s" % view.formula,
                        view.bijective,
                        "rank %d of %d" % (view.rank, view.size))
        for note in result.notes:
            rep.notes.append(prefix + note)
        if not result.all_ok or result.induced is None:
            rep.notes.append(prefix + "imbedding skipped: the sub-object "
                             "checks did not pass")
            continue
        try:
            imbedding = dual_imbedding(result, build)
        except HopfForgeError as exc:
            rep.fail_from(prefix + "imbedding", exc)
            continue
        for item in imbedding.items:
            rep.add(prefix + item.name, item.ok, item.detail)
    return rep


# ---------------------------------------------------------------------------
# pair
# ---------------------------------------------------------------------------

def run_pair(defn, source: str, sha256: str, degree=None) -> Report:
    if not isinstance(defn, PairingDefinition):
        raise DefinitionError("pair expects a pairing definition")
    deg = _word_degree(degree, DEFAULT_PAIRING_DEGREE, defn.rows, defn.cols)
    rep = Report("pair", defn.name, source, sha256)
    rep.params.append(("degree", str(deg)))

    row_qg = _presentation_checks(rep, defn.rows, deg, prefix="rows: ")
    col_qg = _presentation_checks(rep, defn.cols, deg, prefix="columns: ")
    if row_qg is None or col_qg is None:
        return rep

    try:
        paired = PairedPresentations(defn, row_qg, col_qg)
    except HopfForgeError as exc:
        rep.fail_from("pairing-table", exc)
        return rep
    lines = ["<%s, %s> = %s" % (rg, cg, defn.table[(rg, cg)])
             for rg in defn.rows.generators
             for cg in defn.cols.generators]
    rep.objects.append(("pairing-table", lines))

    rep.checks.extend(paired.check_axioms(deg))

    for action_name, word in defn.action_functionals:
        item = paired.check_action_functional(
            "action-functional %s" % action_name, action_name,
            tuple(word), deg)
        rep.checks.append(item)

    n_rows, n_cols, rank_value = paired.gram_rank(deg)
    rep.objects.append(("evaluation-rank",
                        "rank %d of the %d x %d evaluation matrix"
                        % (rank_value, n_rows, n_cols)))
    rep.notes.append("the evaluation rank at this degree is reported, "
                     "not asserted")
    return rep
