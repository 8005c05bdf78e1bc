"""Command line interface.

Exit codes: 0 when every check passes, 1 when a verification check fails
(the report is still printed), 2 for unusable input (bad file, bad flag,
unknown name, unreadable input, unwritable output), 3 for internal errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .definition import read_definition
from .errors import DefinitionError, HopfForgeError
from .fixtures import packaged_fixture_names, packaged_fixture_path
from .report import (render, run_analyze, run_dual, run_pair, run_subcheck,
                     run_validate)
from .scalars import (DEFAULT_SPEC_POINTS, ScalarError, clear_memo,
                      parse_spec_points)

SPEC_POINTS_ENV = "HOPF_FORGE_SPEC_POINTS"


def degree_arg(text: str) -> int:
    """A word degree bound: an integer that is 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be 0 or more, got %d" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopf-forge",
        description="Construct and verify algebraic quantum groups in "
                    "exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output_help, degree=False, positivity=False):
        p.add_argument("input",
                       help="packaged definition name or path to a .qg file")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="report format (default: text)")
        if degree:
            p.add_argument("--degree", type=degree_arg, default=None,
                           metavar="N",
                           help="degree bound for word enumeration")
        if positivity:
            p.add_argument("--spec-points", default=None, metavar="LIST",
                           help="comma-separated rationals in (0,1) used to "
                                "certify positivity, e.g. 1/3,1/2,2/3 "
                                "(default: env %s or 1/3,1/2,2/3)"
                                % SPEC_POINTS_ENV)
            p.add_argument("--no-star-assert", action="store_true",
                           help="record positivity of the invariant state "
                                "as a note instead of a required check")
        p.add_argument("--output", default=None, metavar="PATH",
                       help=output_help)

    p = sub.add_parser("validate",
                       help="check the algebra, coproduct, canonical maps, "
                            "counit, antipode and star of one definition")
    common(p, "also write the report to this file", degree=True)

    p = sub.add_parser("analyze",
                       help="derive invariant functionals, modular data and "
                            "eigenstructure on top of validate")
    common(p, "also write the report to this file", degree=True,
           positivity=True)

    p = sub.add_parser("dual",
                       help="build the dual quantum group, verify it and "
                            "the canonical map into the double dual")
    common(p, "write the dual as a .qg definition to this file")

    p = sub.add_parser("subcheck",
                       help="verify declared sub-bases as compatible "
                            "sub-objects and imbed their duals")
    common(p, "also write the report to this file")
    p.add_argument("--sub", default=None, metavar="NAME",
                   help="check only this declared sub-basis")

    p = sub.add_parser("pair",
                       help="evaluate a generator pairing, its axioms and "
                            "its declared action functionals")
    common(p, "also write the report to this file", degree=True)

    p = sub.add_parser("examples",
                       help="write the packaged example definitions to a "
                            "directory")
    p.add_argument("--output", default="examples", metavar="DIR",
                   help="target directory (default: examples)")
    return parser


def resolve_input(name: str) -> str:
    if os.path.exists(name):
        return name
    packaged = packaged_fixture_path(name)
    if packaged is not None:
        return packaged
    raise DefinitionError(
        "no file or packaged definition named %r (packaged: %s)"
        % (name, ", ".join(packaged_fixture_names())))


def resolve_spec_points(args) -> tuple:
    text = getattr(args, "spec_points", None)
    if text is None:
        text = os.environ.get(SPEC_POINTS_ENV)
    if text is None:
        return DEFAULT_SPEC_POINTS
    try:
        return parse_spec_points(text)
    except ScalarError as exc:
        raise DefinitionError("bad spec points: %s" % exc) from None


def _run_examples(args) -> int:
    os.makedirs(args.output, exist_ok=True)
    for name in packaged_fixture_names():
        src = packaged_fixture_path(name)
        with open(src, "rb") as fh:
            data = fh.read()
        dst = os.path.join(args.output, name + ".qg")
        with open(dst, "wb") as fh:
            fh.write(data)
        print("wrote %s" % dst)
    return 0


def _dispatch(args) -> int:
    if args.command == "examples":
        return _run_examples(args)

    path = resolve_input(args.input)
    defn, sha = read_definition(path)

    if args.command == "validate":
        rep = run_validate(defn, path, sha, degree=args.degree)
    elif args.command == "analyze":
        rep = run_analyze(defn, path, sha, degree=args.degree,
                          spec_points=resolve_spec_points(args),
                          star_assert=not args.no_star_assert)
    elif args.command == "dual":
        rep = run_dual(defn, path, sha, output=args.output)
    elif args.command == "subcheck":
        rep = run_subcheck(defn, path, sha, sub_name=args.sub)
    else:
        rep = run_pair(defn, path, sha, degree=args.degree)

    text = render(rep, args.format)
    # the copy is written first, so an unwritable path ends the run before
    # any of the report reaches stdout
    if args.command != "dual" and args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if rep.ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except DefinitionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        # an input is read by read_definition, so this is an output path
        print("error: %s: cannot write: %s"
              % (exc.filename or args.output, exc.strerror or exc),
              file=sys.stderr)
        return 2
    except HopfForgeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except Exception:
        import traceback
        traceback.print_exc()
        return 3
    finally:
        # The scalar memo lives for one command, whatever its exit code.
        clear_memo()


if __name__ == "__main__":
    sys.exit(main())
