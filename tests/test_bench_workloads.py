"""The benchmark's s-deformed set-up still runs on hopf_forge.

perfbench/workloads.py is loaded from its path and only read.  Its
`deformed_definition` calls `finalg.transform_basis`, `exactla.invert` and
`exactla.matvec` and reads `LinMap.matrix`; a refactor that changes those
names then fails here, instead of breaking the benchmark's set-up.
"""

import types
from pathlib import Path

import pytest

from hopf_forge.assemble import build_qg
from hopf_forge.definition import parse_definition, render_definition

WORKLOADS_PATH = (Path(__file__).resolve().parents[1] / "perfbench"
                  / "workloads.py")


def load_workloads():
    """Run the workloads' source in a fresh module; no bytecode is written
    next to it."""
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PATH)
    code = compile(WORKLOADS_PATH.read_text(encoding="utf-8"),
                   str(WORKLOADS_PATH), "exec")
    exec(code, module.__dict__)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("name", WORKLOADS.DEFORMED_EXAMPLES)
def test_deformed_definition_round_trips_and_builds(name):
    d = WORKLOADS.deformed_definition(WORKLOADS.packaged(name),
                                      WORKLOADS.DEFORM_MENU[name][0])
    text = render_definition(d)
    parsed = parse_definition(text, d.name)
    assert render_definition(parsed) == text
    assert build_qg(parsed).dim == d.dim
