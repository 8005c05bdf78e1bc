"""What a command does when the modular pipeline does not go through.

No verified quantum group fails a modular stage, so the tests replace one
of them: a stage that raises ends the command with its error and no
report, and a scaling constant other than 1 is the one modular verdict
that positive mode asserts, pinned with the check lines and object names
around it.
"""

import sys

from hopf_forge import haar_modular
from hopf_forge.cli import main
from hopf_forge.errors import StructureError
from hopf_forge.scalars import SC_ONE

STRUCTURE_LINES = [
    "[PASS] algebra-axioms: associative and unital on %d basis elements; "
    "star is involutive and twists products",
    "[PASS] coproduct-axioms: multiplicative and coassociative",
    "[PASS] canonical-map D(a)(1(x)b): rank %d of %d",
    "[PASS] canonical-map (a(x)1)D(b): rank %d of %d",
    "[PASS] canonical-map D(a)(b(x)1): rank %d of %d",
    "[PASS] canonical-map (1(x)a)D(b): rank %d of %d",
    "[PASS] counit-antipode: unique solution of both one-sided laws; the "
    "antipode is anti-multiplicative, unital and bijective; agrees with the "
    "declared counit and antipode",
    "[PASS] antipode-star-involutivity: S(S(a)*)* = a on every basis element",
    "[PASS] coproduct-star-compatibility: D(a*) = D(a)* on every basis "
    "element",
    "[PASS] counit-star-compatibility: eps(a*) = conj(eps(a)) on every basis "
    "element",
]

MODULAR_PASS_LINES = [
    "[PASS] haar-functional: left invariance has a one-dimensional solution "
    "space (dimension 1)",
    "[PASS] right-invariance: the antipode image of the left functional is "
    "right invariant",
    "[PASS] modular-automorphism: phi(a b) = phi(b sigma(a)) with sigma a "
    "bijective algebra automorphism, and likewise for the right functional",
    "[PASS] modular-element: both intertwining laws hold on every basis "
    "pair; self-adjoint",
]


def structure_lines(dim):
    sq = dim * dim
    return [STRUCTURE_LINES[0] % dim, STRUCTURE_LINES[1]] + \
        [line % (sq, sq) for line in STRUCTURE_LINES[2:6]] + \
        STRUCTURE_LINES[6:]


def replace_stage(monkeypatch, name, stub):
    """Put stub in place of haar_modular.<name> wherever the package holds
    it."""
    original = getattr(haar_modular, name)
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("hopf_forge")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, stub)


def text_report(capsys, *argv):
    """(check lines, objects as (name, value lines)) of a text report."""
    main([*argv, "--format", "text"])
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("checks:") + 1
    checks = lines[start:lines.index("", start)]
    objects = []
    if "objects:" in lines:
        start = lines.index("objects:") + 1
        for line in lines[start:lines.index("", start)]:
            if line.startswith("    "):
                objects[-1][1].append(line.strip())
            elif line.endswith(":"):
                objects.append((line.strip()[:-1], []))
            else:
                name, value = line.strip().split(" = ", 1)
                objects.append((name, [value]))
    return [c.strip() for c in checks], objects, lines[-1]


def test_dual_stops_at_a_failed_modular_element(monkeypatch, capsys):
    # a stage that raises is a bug: no report, the error and exit code 1
    def fail(*_args):
        raise StructureError("modular element system is inconsistent")

    replace_stage(monkeypatch, "modular_element", fail)
    assert main(["dual", "c_z2", "--format", "text"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: modular element system is inconsistent\n"


def test_positive_analyze_goes_on_after_a_failed_scaling_constant(
        monkeypatch, capsys):
    replace_stage(monkeypatch, "scaling_constant", lambda *_args: -SC_ONE)
    checks, objects, result = text_report(capsys, "analyze", "c_s3")
    positivity = [
        "[PASS] positivity %s: all eigenvalues positive at every spec point"
        % name for name in haar_modular.FIVE_MAP_NAMES]
    assert checks == structure_lines(6) + [
        "[PASS] state-positivity: the form phi(a* b) is positive-definite "
        "(certified exact)"] + MODULAR_PASS_LINES + [
        "[FAIL] scaling-constant: scaling-constant: positive case requires "
        "mu = 1 but mu = -1",
        "[PASS] modular-square-root: positive square root of the modular "
        "element found and fixed by the modular automorphism",
        "[PASS] coproduct-modular-rule: D(sigma(a)) = (S^2 (x) sigma) D(a) "
        "on every basis element",
        "[PASS] eigentable: simultaneous eigenbasis of sigma, sigma_prime, "
        "antipode-squared, left-mult-delta, right-mult-delta covers the "
        "whole algebra"] + positivity + [
        "[PASS] psi-agrees-with-shifted-phi: psi(a* b) = phi(a* b delta) on "
        "every basis pair",
        "[PASS] psi-positivity: the form psi(a* b) is positive-definite "
        "(certified exact)",
        "[PASS] nonvanishing-window: b*(sigma'^n S^(2n))(b) != 0 for all "
        "basis b, even |n| <= 4"]
    assert [name for name, _ in objects] == [
        "haar-functional", "right-invariant-functional",
        "modular-automorphism", "modular-element",
        "modular-element-square-root", "eigentable",
        "map-orbit-span-dimensions"]
    eigentable = dict(objects)["eigentable"]
    assert len(eigentable) == 6
    assert result == "result: FAIL (1 of 27 checks failed)"
