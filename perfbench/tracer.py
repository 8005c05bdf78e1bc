"""Outside-in layer tracing of hopf_forge.

`install()` replaces selected public functions and methods of the
`hopf_forge` modules with wrappers that record spans and counters.  A
function is replaced in every `hopf_forge` module namespace that holds the
same object (modules use `from .exactla import rref`), and a method is
replaced on its class.  The program's own files are not touched.

A span belongs to the module that defines the wrapped function.  Its
exclusive time (duration minus the durations of the spans directly nested
in it) is added to that module's self time, so each instant of a traced
case counts for exactly one module: the module of the innermost open span.

The arithmetic of `Scalar` and `GaussRat` is wrapped as well, so the
polynomial and Q(i) work done for another module counts as `scalars` time.
Those methods open a span only when called from outside `scalars`; nested
calls inside a scalars span run unwrapped, which keeps the overhead down.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

clock = time.perf_counter

# module -> wrapped names; "Class.method" names a method.  Each wrapped
# name records an inclusive time "<name>_s" (outermost call only) and a
# call count "<name>_calls".
SPANS = {
    "definition": ["load_definition", "parse_definition"],
    "report": ["run_validate", "run_analyze", "run_dual", "run_subcheck",
               "run_pair", "render"],
    "assemble": ["build_qg", "algebra_from_definition", "coproduct_map",
                 "definition_from_qg"],
    "scalars": ["pgcd", "parse_scalar"],
    "exactla": ["rref", "matvec", "matmul", "invert", "rank", "solve_affine",
                "kernel_basis", "charpoly", "rational_roots", "eigensplit",
                "gram_certificate"],
    "finalg": ["FinAlgebra.multiply", "build_algebra", "tensor_algebra",
               "transform_basis", "gram_matrix", "gram_psd"],
    "mhopf": ["attach_coproduct", "check_tmaps", "derive_counit_antipode",
              "check_star_compat", "check_grouplike_projection",
              "check_sub_mha"],
    "haar_modular": ["solve_left_haar", "right_haar", "modular_automorphism",
                     "modular_element", "delta_square_root",
                     "scaling_constant", "orbit_analysis",
                     "simultaneous_eigenbasis", "psi_positivity",
                     "check_sigma_coproduct_rule", "compute_modular_data"],
    "duality": ["build_dual", "verify_qg_morphism", "biduality",
                "dual_modular_check", "find_idempotent_basis",
                "group_table_from_coproduct", "find_group_iso",
                "dual_imbedding"],
    "presentations": ["Presentation.normal_form_word",
                      "Presentation.normal_form", "Presentation.multiply",
                      "Presentation.normal_words",
                      "Presentation.check_confluence", "GenMap.apply_word",
                      "GenMap.apply_terms", "GenMap.check_rules",
                      "DiagonalAction.check_rules", "build_presented",
                      "PairedPresentations.pair_words",
                      "PairedPresentations.check_axioms",
                      "PairedPresentations.gram_rank"],
}

# Arithmetic methods that open a scalars span only on entry from another
# module; they have no metric of their own.
SCALAR_ARITHMETIC = {
    "Scalar": ["__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
               "__pow__", "inverse", "conjugate"],
    "GaussRat": ["__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
                 "__pow__", "inverse", "conjugate"],
}

# Per-layer metrics: metric -> (unit, what it reads).  A count or time
# reads the span key "<module>.<wrapped name>".
LAYER_METRICS = {
    "scalars.canon_calls": ("count", "canon"),
    "scalars.pgcd_calls": ("count", "scalars.pgcd"),
    "scalars.pgcd_s": ("s", "scalars.pgcd"),
    "scalars.self_s": ("s", "scalars"),
    "exactla.rref_calls": ("count", "exactla.rref"),
    "exactla.rref_cells": ("count", "cells"),
    "exactla.rref_s": ("s", "exactla.rref"),
    "exactla.matvec_calls": ("count", "exactla.matvec"),
    "exactla.gram_certificate_s": ("s", "exactla.gram_certificate"),
    "exactla.eigensplit_s": ("s", "exactla.eigensplit"),
    "exactla.self_s": ("s", "exactla"),
    "finalg.multiply_calls": ("count", "finalg.FinAlgebra.multiply"),
    "finalg.tensor_algebra_s": ("s", "finalg.tensor_algebra"),
    "finalg.self_s": ("s", "finalg"),
    "mhopf.attach_coproduct_s": ("s", "mhopf.attach_coproduct"),
    "mhopf.check_tmaps_s": ("s", "mhopf.check_tmaps"),
    "mhopf.derive_counit_antipode_s": ("s", "mhopf.derive_counit_antipode"),
    "mhopf.self_s": ("s", "mhopf"),
    "haar_modular.solve_left_haar_calls":
        ("count", "haar_modular.solve_left_haar"),
    "haar_modular.orbit_analysis_calls":
        ("count", "haar_modular.orbit_analysis"),
    "haar_modular.simultaneous_eigenbasis_s":
        ("s", "haar_modular.simultaneous_eigenbasis"),
    "haar_modular.self_s": ("s", "haar_modular"),
    "duality.build_dual_s": ("s", "duality.build_dual"),
    "duality.biduality_s": ("s", "duality.biduality"),
    "duality.self_s": ("s", "duality"),
    "presentations.check_confluence_s":
        ("s", "presentations.Presentation.check_confluence"),
    "presentations.normal_form_word_calls":
        ("count", "presentations.Presentation.normal_form_word"),
    "presentations.nf_distinct_ratio":
        ("ratio", "presentations.Presentation.normal_form_word"),
    "presentations.check_rules_calls":
        ("count", "presentations.GenMap.check_rules"),
    "presentations.normal_words_calls":
        ("count", "presentations.Presentation.normal_words"),
    "presentations.apply_word_calls":
        ("count", "presentations.GenMap.apply_word"),
    "presentations.apply_word_repeat_ratio":
        ("ratio", "presentations.GenMap.apply_word"),
    "presentations.pair_words_calls":
        ("count", "presentations.PairedPresentations.pair_words"),
    "presentations.self_s": ("s", "presentations"),
    "assemble.self_s": ("s", "assemble"),
    "definition.load_s": ("s", "definition.load_definition"),
    "report.render_s": ("s", "report.render"),
    "report.self_s": ("s", "report"),
}
# Argument-keyed spans: their ratio metric is distinct (object, word)
# pairs over calls.
KEYED = ("presentations.Presentation.normal_form_word",
         "presentations.GenMap.apply_word")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.calls = {}       # "module.name" -> calls
        self.inclusive = {}   # "module.name" -> seconds, outermost calls
        self.self_time = {}   # module -> seconds
        self.cells = 0        # sum of rows x cols over rref calls
        self.canon_calls = 0  # Scalar constructions that canonicalize
        self.keys = {}        # "module.name" -> argument keys of this case
        self.distinct = {}    # "module.name" -> distinct keys, ended cases
        self.edges = {}       # (parent span key, span key) -> [calls, s]
        self._stack = []      # open span frames
        self._active = {}     # "module.name" -> open depth
        self._alive = {}      # id -> object, so ids stay unique in a case
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def span(self, module, key, fn, keyed=False, entry_only=False):
        """Wrap `fn` as a span of `module`.  With `entry_only`, a call made
        while a span of the same module is innermost runs unwrapped."""
        stack, active, calls, edges = (self._stack, self._active, self.calls,
                                       self.edges)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if entry_only and stack and stack[-1][3] == module:
                return fn(*args, **kwargs)
            calls[key] = calls.get(key, 0) + 1
            if keyed:
                self._note_key(key, args)
            depth = active.get(key, 0)
            active[key] = depth + 1
            # span, start, time in child spans, module
            frame = [key, clock(), 0.0, module]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - frame[1]
                stack.pop()
                active[key] = depth
                self_time = self.self_time
                self_time[module] = (self_time.get(module, 0.0)
                                     + took - frame[2])
                parent = None
                if stack:
                    stack[-1][2] += took
                    parent = stack[-1][0]
                edge = edges.get((parent, key))
                if edge is None:
                    edges[(parent, key)] = [1, took]
                else:
                    edge[0] += 1
                    edge[1] += took
                if not depth:
                    self.inclusive[key] = self.inclusive.get(key, 0.0) + took

        return wrapper

    def _note_key(self, key, args):
        # args = (self, word, ...); the object is kept alive until the case
        # ends so that its id cannot be reused within the case
        obj = args[0]
        self._alive[id(obj)] = obj
        self.keys.setdefault(key, set()).add((id(obj), args[1]))

    def end_case(self):
        """Bank the distinct keys of the finished case and forget its
        objects, whose ids a later case may reuse."""
        for key, seen in self.keys.items():
            self.distinct[key] = self.distinct.get(key, 0) + len(seen)
            seen.clear()
        self._alive.clear()

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "hopf_forge" or name.startswith("hopf_forge.")]
        for module_name, names in SPANS.items():
            home = importlib.import_module("hopf_forge." + module_name)
            for name in names:
                key = "%s.%s" % (module_name, name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    self._set(cls, meth, self.span(
                        module_name, key, cls.__dict__[meth], key in KEYED))
                    continue
                original = getattr(home, name)
                inner = (self._count_cells(original)
                         if key == "exactla.rref" else original)
                wrapped = self.span(module_name, key, inner)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapped)
        self._install_scalar_arithmetic()
        self._install_canon_counter()

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _count_cells(self, rref):
        def counted(rows):
            if rows:
                self.cells += len(rows) * len(rows[0])
            return rref(rows)
        return counted

    def _install_scalar_arithmetic(self):
        scalars = importlib.import_module("hopf_forge.scalars")
        for cls_name, methods in SCALAR_ARITHMETIC.items():
            cls = getattr(scalars, cls_name)
            for meth in methods:
                key = "scalars.%s.%s" % (cls_name, meth)
                self._set(cls, meth, self.span(
                    "scalars", key, cls.__dict__[meth], entry_only=True))

    def _install_canon_counter(self):
        # Canonicalization runs in Scalar.__init__ unless the caller passes
        # _canonical=True; only those calls are counted and timed.
        from hopf_forge.scalars import P_ONE, Scalar
        init = Scalar.__init__
        timed = self.span("scalars", "scalars.Scalar.__init__", init)

        def __init__(obj, num, den=P_ONE, _canonical=False):
            if _canonical:
                init(obj, num, den, True)
            else:
                self.canon_calls += 1
                timed(obj, num, den)

        self._set(Scalar, "__init__", __init__)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def edge_list(self):
        """Spans aggregated by (parent, span): calls and seconds."""
        return [{"parent": parent, "span": key, "calls": n, "seconds": s}
                for (parent, key), (n, s) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1])]

    def metrics(self):
        """Every per-layer metric as {name: value}."""
        counts = {"canon": self.canon_calls, "cells": self.cells}
        values = {}
        for metric, (unit, source) in LAYER_METRICS.items():
            if source in counts:
                values[metric] = counts[source]
            elif unit == "count":
                values[metric] = self.calls.get(source, 0)
            elif unit == "ratio":
                n = self.calls.get(source, 0)
                seen = (self.distinct.get(source, 0)
                        + len(self.keys.get(source, ())))
                values[metric] = seen / n if n else 0.0
            elif "." in source:
                values[metric] = self.inclusive.get(source, 0.0)
            else:
                values[metric] = self.self_time.get(source, 0.0)
        return values
