"""Every name the benchmark tracer wraps still exists in hopf_forge.

perfbench/tracer.py is loaded from its path and only read.  A refactor that
renames or moves a traced function then fails here, instead of crashing a
traced benchmark run.
"""

import importlib
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    """Run the tracer's source in a fresh module; no bytecode is written
    next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH),
                   "exec")
    exec(code, module.__dict__)
    return module


TRACER = load_tracer()
SPAN_NAMES = [(module, name) for module, names in TRACER.SPANS.items()
              for name in names]
ARITHMETIC = [(cls, meth) for cls, meths in TRACER.SCALAR_ARITHMETIC.items()
              for meth in meths]


@pytest.mark.parametrize("module,name", SPAN_NAMES,
                         ids=["%s.%s" % pair for pair in SPAN_NAMES])
def test_span_name_resolves(module, name):
    home = importlib.import_module("hopf_forge." + module)
    if "." in name:
        # a method is wrapped through its class's own __dict__
        cls_name, meth = name.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, name))


@pytest.mark.parametrize("cls,meth", ARITHMETIC,
                         ids=["%s.%s" % pair for pair in ARITHMETIC])
def test_scalar_arithmetic_resolves(cls, meth):
    scalars = importlib.import_module("hopf_forge.scalars")
    assert callable(vars(getattr(scalars, cls))[meth])
