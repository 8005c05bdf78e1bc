"""Command line interface.

Exit codes: 0 when every check passes, 1 when a verification check fails
(the report is still printed), 2 for unusable input (bad file, bad flag,
unknown name, unreadable input, unwritable output), 3 for internal errors.
"""

from __future__ import annotations

import os
import re
import sys
import types

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
        raise ValueError("invalid int value: %r" % text) from None
    if value < 0:
        raise ValueError("must be 0 or more, got %d" % value)
    return value


# Each command's help line and its options.  An option is (flag, metavar,
# default, check): metavar None marks a switch, and check is a function
# that raises ValueError, a tuple of choices or None.  A field is named by
# its flag without the dashes.
FORMAT = ("--format", "{text,json}", "text", ("text", "json"))
DEGREE = ("--degree", "N", None, degree_arg)
OUTPUT = ("--output", "PATH", None, None)
HELP = ("-h/--help", None, None, None)
COMMANDS = {
    "validate": ("check the algebra, coproduct, canonical maps, counit, "
                 "antipode and star of one definition",
                 (FORMAT, DEGREE, OUTPUT)),
    "analyze": ("derive invariant functionals, modular data and "
                "eigenstructure on top of validate",
                (FORMAT, DEGREE, ("--spec-points", "LIST", None, None),
                 ("--no-star-assert", None, False, None), OUTPUT)),
    "dual": ("build the dual quantum group, verify it and the canonical map "
             "into the double dual", (FORMAT, OUTPUT)),
    "subcheck": ("verify declared sub-bases as compatible sub-objects and "
                 "imbed their duals",
                 (FORMAT, OUTPUT, ("--sub", "NAME", None, None))),
    "pair": ("evaluate a generator pairing, its axioms and its declared "
             "action functionals", (FORMAT, DEGREE, OUTPUT)),
    "examples": ("write the packaged example definitions to a directory",
                 (("--output", "DIR", "examples", None),)),
}
NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


class CommandLineExit(Exception):
    """The (exit code, text) of a run that ends before the pipeline: 0 and
    the help for stdout, or 2 and a usage error for stderr."""


def _usage(command) -> str:
    if command is None:
        return "usage: hopf-forge [-h] {%s} ..." % ",".join(COMMANDS)
    return " ".join(["usage: hopf-forge", command, "[-h]"] + [
        "[%s]" % " ".join(opt[:2] if opt[1] else opt[:1])
        for opt in COMMANDS[command][1]]
        + ["input"] * (command != "examples"))


def _help(command) -> str:
    return "\n".join([_usage(command), ""] + [
        "  %-9s %s" % (name, entry[0]) for name, entry in COMMANDS.items()
        if command in (None, name)]) + "\n"


def _fail(command, message):
    raise CommandLineExit(2, "%s\nhopf-forge%s: error: %s\n" % (
        _usage(command), " " + command if command else "", message))


def _checked(command, name, check, value):
    try:
        if isinstance(check, tuple) and value not in check:
            raise ValueError("invalid choice: %r (choose from %s)"
                             % (value, ", ".join(map(repr, check))))
        return check(value) if callable(check) else value
    except ValueError as exc:
        _fail(command, "argument %s: %s" % (name, exc))


def _option(command, options, token):
    """None when token is a positional: "-", "--", a negative number or a
    word with a space.  Else (the option, or None when no flag of options
    matches, and the value after = or None).  A --flag may be shortened to
    any unique prefix, and -hVALUE is -h=VALUE."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    if token[1] != "-":
        name, eq, value = token[:2], token[2:], token[2 + (token[2:3] == "="):]
    flags = [flag for flag in options if flag == name
             or name[1] == "-" and flag.startswith(name)]
    if len(flags) > 1:
        _fail(command, "ambiguous option: %s could match %s"
              % (token, ", ".join(flags)))
    if flags:
        return options[flags[0]], value if eq else None
    if NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def parse_args(argv) -> types.SimpleNamespace:
    """The command and its fields, read from argv against COMMANDS as
    argparse read them with one subparser per command: before the command
    only -h is an option, and after it options and the input come in any
    order until a --.  Help and usage errors raise CommandLineExit."""
    options, fields, extras = {"-h": HELP, "--help": HELP}, {}, []
    command, wanted, ended, i, at = None, "command", False, 0, None
    while i < len(argv):
        token, i = argv[i], i + 1
        found = None if ended else _option(command, options, token)
        if token == "--" and not ended and (command or i == len(argv)):
            ended = True  # and dropped next to the input, as argparse did
            if not wanted and at != i - 2:
                extras.append(token)
        elif found is None and command is None:
            command = _checked(None, "command", tuple(COMMANDS), token)
            options.update((opt[0], opt) for opt in COMMANDS[command][1])
            fields = {opt[0]: opt[2] for opt in COMMANDS[command][1]}
            fields["command"] = command
            wanted = "input" if command != "examples" else ""
        elif found is None and wanted:
            fields["input"], wanted, at = token, "", i - 1
        elif found is None or found[0] is None:
            extras.append(token)
        else:
            (flag, metavar, _, check), value = found
            if metavar is None:  # a switch, and -hh is -h twice
                if value is not None and token[1] == "h":
                    value = value.lstrip("h") or (None if value else "")
                if value is not None:
                    _fail(command, "argument %s: ignored explicit argument "
                          "%r" % (flag, value))
                if flag == HELP[0]:
                    raise CommandLineExit(0, _help(command))
                fields[flag] = True
                continue
            if value is None:
                if i == len(argv) or argv[i] == "--" or _option(
                        command, options, argv[i]):
                    _fail(command, "argument %s: expected one argument"
                          % flag)
                value, i = argv[i], i + 1
            fields[flag] = _checked(command, flag, check, value)
    if wanted:
        _fail(command, "the following arguments are required: " + wanted)
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return types.SimpleNamespace(**{name.lstrip("-").replace("-", "_"): value
                                    for name, value in fields.items()})


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
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except CommandLineExit as stop:
        code, text = stop.args
        (sys.stdout if code == 0 else sys.stderr).write(text)
        return code
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
