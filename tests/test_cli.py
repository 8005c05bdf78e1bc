"""End-to-end command line behavior via subprocesses."""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hopf_forge.fixtures import packaged_fixture_names, packaged_fixture_path

from deadline import deadline
from test_bench_workloads import WORKLOADS


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("HOPF_FORGE_SPEC_POINTS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hopf_forge", *args],
        capture_output=True, text=True, env=env)


# What the command line reads from argv, pinned on the behaviour of the
# argparse parser it replaced: the fields handed to the pipeline, or the
# exit code and the last line of stderr.
VALIDATE = {"command": "validate", "input": "c_z2", "degree": None,
            "format": "text", "output": None}
ANALYZE = {"command": "analyze", "input": "c_z2", "degree": None,
           "format": "text", "no_star_assert": False, "output": None,
           "spec_points": None}
DEFAULTS = {
    "validate": VALIDATE,
    "analyze": ANALYZE,
    "dual": {"command": "dual", "input": "c_z2", "format": "text",
             "output": None},
    "subcheck": {"command": "subcheck", "input": "c_z2", "format": "text",
                 "output": None, "sub": None},
    "pair": {"command": "pair", "input": "c_z2", "degree": None,
             "format": "text", "output": None},
    "examples": {"command": "examples", "output": "examples"},
}
CHOICES = ("(choose from 'validate', 'analyze', 'dual', 'subcheck', 'pair', "
           "'examples')")
HELP = (0, "")


def usage_error(command, message):
    prog = "hopf-forge" + (" " + command if command else "")
    return 2, "%s: error: %s" % (prog, message)


def unrecognized(text):
    return usage_error(None, "unrecognized arguments: " + text)


PARSES = [
    # every command's defaults
    *[([command] + ([] if command == "examples" else ["c_z2"]), fields)
      for command, fields in DEFAULTS.items()],
    # the README's examples
    ("validate c_s3", {**VALIDATE, "input": "c_s3"}),
    ("analyze group_s3", {**ANALYZE, "input": "group_s3"}),
    ("analyze sweedler_h4 --no-star-assert",
     {**ANALYZE, "input": "sweedler_h4", "no_star_assert": True}),
    ("dual group_s3 --output dual_s3.qg",
     {**DEFAULTS["dual"], "input": "group_s3", "output": "dual_s3.qg"}),
    ("subcheck c_z4 --sub c_h",
     {**DEFAULTS["subcheck"], "input": "c_z4", "sub": "c_h"}),
    ("pair pairing-uqsu2-suq2 --degree 3",
     {**DEFAULTS["pair"], "input": "pairing-uqsu2-suq2", "degree": 3}),
    ("examples --output ./examples",
     {"command": "examples", "output": "./examples"}),
    # options before or after the input, --opt VALUE and --opt=VALUE, the
    # last of a repeated option
    ("validate --degree 3 c_z2", {**VALIDATE, "degree": 3}),
    ("validate c_z2 --degree=3", {**VALIDATE, "degree": 3}),
    ("validate c_z2 --degree 3 --degree 4", {**VALIDATE, "degree": 4}),
    ("validate c_z2 --format json --format text", VALIDATE),
    ("validate --format=json c_z2", {**VALIDATE, "format": "json"}),
    ("analyze c_z2 --no-star-assert --no-star-assert",
     {**ANALYZE, "no_star_assert": True}),
    ("validate c_z2 --degree +3", {**VALIDATE, "degree": 3}),
    (["validate", "c_z2", "--output", ""], {**VALIDATE, "output": ""}),
    ("validate c_z2 --output=", {**VALIDATE, "output": ""}),
    (["validate", "c_z2", "--output", "a b"], {**VALIDATE, "output": "a b"}),
    ("validate c_z2 --output -", {**VALIDATE, "output": "-"}),
    # a unique prefix
    ("validate c_z2 --deg 3", {**VALIDATE, "degree": 3}),
    ("analyze c_z2 --no-star", {**ANALYZE, "no_star_assert": True}),
    ("validate c_z2 --o f", {**VALIDATE, "output": "f"}),
    ("validate c_z2 --outp=f", {**VALIDATE, "output": "f"}),
    ("examples --out d", {"command": "examples", "output": "d"}),
    ("subcheck c_z4 --s c_h",
     {**DEFAULTS["subcheck"], "input": "c_z4", "sub": "c_h"}),
    ("analyze c_z2 --spec=1/2", {**ANALYZE, "spec_points": "1/2"}),
    # -- ends the options; a dash alone, a negative number and a word with
    # a space are positionals
    ("validate -- c_z2", VALIDATE),
    ("validate c_z2 --", VALIDATE),
    ("validate --degree 3 c_z2 --", {**VALIDATE, "degree": 3}),
    ("validate --format=json -- c_z2", {**VALIDATE, "format": "json"}),
    ("validate -- --degree", {**VALIDATE, "input": "--degree"}),
    ("validate -- -h", {**VALIDATE, "input": "-h"}),
    ("validate -", {**VALIDATE, "input": "-"}),
    ("validate - --", {**VALIDATE, "input": "-"}),
    ("validate -1", {**VALIDATE, "input": "-1"}),
    (["validate", "--with space"], {**VALIDATE, "input": "--with space"}),
    # help, at the top level or after a command
    ("-h", HELP),
    ("--help", HELP),
    ("--he", HELP),
    ("--bogus --help", HELP),
    ("-h bogus", HELP),
    ("validate c_z2 -h", HELP),
    ("validate c_z2 --help", HELP),
    ("validate --h", HELP),
    ("validate -hh", HELP),
    ("examples -h", HELP),
    ("validate c_z2 -h --degree -1", HELP),
    # usage errors
    ("validate c_z2 --degree -1",
     usage_error("validate", "argument --degree: must be 0 or more, got -1")),
    ("validate --degree -1",
     usage_error("validate", "argument --degree: must be 0 or more, got -1")),
    ("validate c_z2 --degree x",
     usage_error("validate", "argument --degree: invalid int value: 'x'")),
    ("validate c_z2 --degree=",
     usage_error("validate", "argument --degree: invalid int value: ''")),
    ("validate c_z2 --degree -1.5",
     usage_error("validate", "argument --degree: invalid int value: '-1.5'")),
    ("validate c_z2 --degree -1 -h",
     usage_error("validate", "argument --degree: must be 0 or more, got -1")),
    ("validate --format xml --degree -1",
     usage_error("validate", "argument --format: invalid choice: 'xml' "
                             "(choose from 'text', 'json')")),
    ("validate --bogus --degree -1",
     usage_error("validate", "argument --degree: must be 0 or more, got -1")),
    ("validate", usage_error("validate",
                             "the following arguments are required: input")),
    ("validate --degree 3", usage_error(
        "validate", "the following arguments are required: input")),
    ("validate --format json --", usage_error(
        "validate", "the following arguments are required: input")),
    ("", usage_error(None, "the following arguments are required: command")),
    ("--bogus", usage_error(
        None, "the following arguments are required: command")),
    ("bogus", usage_error(
        None, "argument command: invalid choice: 'bogus' " + CHOICES)),
    ("bogus -h", usage_error(
        None, "argument command: invalid choice: 'bogus' " + CHOICES)),
    ([""], usage_error(None, "argument command: invalid choice: '' "
                       + CHOICES)),
    ("-1", usage_error(None, "argument command: invalid choice: '-1' "
                       + CHOICES)),
    ("-- validate c_z2", usage_error(
        None, "argument command: invalid choice: '--' " + CHOICES)),
    ("--format json validate c_z2", usage_error(
        None, "argument command: invalid choice: 'json' " + CHOICES)),
    ("validate c_z2 --format xml",
     usage_error("validate", "argument --format: invalid choice: 'xml' "
                             "(choose from 'text', 'json')")),
    ("validate c_z2 --format=",
     usage_error("validate", "argument --format: invalid choice: '' "
                             "(choose from 'text', 'json')")),
    ("validate c_z2 --degree",
     usage_error("validate", "argument --degree: expected one argument")),
    ("validate c_z2 --degree --format json",
     usage_error("validate", "argument --degree: expected one argument")),
    ("validate c_z2 --output --",
     usage_error("validate", "argument --output: expected one argument")),
    ("validate c_z2 --output -x",
     usage_error("validate", "argument --output: expected one argument")),
    ("examples --output",
     usage_error("examples", "argument --output: expected one argument")),
    ("analyze c_z2 --no-star-assert=x",
     usage_error("analyze", "argument --no-star-assert: ignored explicit "
                            "argument 'x'")),
    ("analyze c_z2 --no-star-assert=",
     usage_error("analyze", "argument --no-star-assert: ignored explicit "
                            "argument ''")),
    ("validate c_z2 --help=x", usage_error(
        "validate", "argument -h/--help: ignored explicit argument 'x'")),
    ("validate c_z2 -h=x", usage_error(
        "validate", "argument -h/--help: ignored explicit argument 'x'")),
    ("validate c_z2 -hx", usage_error(
        "validate", "argument -h/--help: ignored explicit argument 'x'")),
    ("--help=x", usage_error(
        None, "argument -h/--help: ignored explicit argument 'x'")),
    ("--=x", usage_error(
        None, "argument -h/--help: ignored explicit argument 'x'")),
    ("validate c_z2 --=x", usage_error(
        "validate", "ambiguous option: --=x could match --help, --format, "
                    "--degree, --output")),
    # each command accepts only its own options, and one input
    ("dual x --degree 3", unrecognized("--degree 3")),
    ("dual --degree 3", unrecognized("--degree")),
    ("validate x --no-star-assert", unrecognized("--no-star-assert")),
    ("examples --output d --format json", unrecognized("--format json")),
    ("validate c_z2 extra", unrecognized("extra")),
    ("dual x extra --bogus", unrecognized("extra --bogus")),
    ("examples extra", unrecognized("extra")),
    ("--bogus validate c_z2", unrecognized("--bogus")),
    ("validate c_z2 --bogus=1", unrecognized("--bogus=1")),
    ("validate c_z2 -x", unrecognized("-x")),
    ("validate x -1", unrecognized("-1")),
    ("validate c_z2 -", unrecognized("-")),
    ("validate x -- -", unrecognized("-")),
    # -- is dropped next to the input, and is otherwise one more argument
    ("validate c_z2 -- --degree 3", unrecognized("--degree 3")),
    ("validate x --degree 3 -- y", unrecognized("-- y")),
    ("validate c_z2 --format json --", unrecognized("--")),
    ("validate x --format json extra --", unrecognized("extra --")),
    ("validate x y --", unrecognized("y --")),
    ("validate x -- y --", unrecognized("y --")),
    ("validate -- x --", unrecognized("--")),
    ("validate -- x y", unrecognized("y")),
    ("validate -- -- x", unrecognized("x")),
    ("validate x -- --", unrecognized("--")),
    ("examples --", unrecognized("--")),
    ("examples -- --", unrecognized("-- --")),
]


def read_argv(monkeypatch, capsys, argv):
    """What cli.main makes of argv: the fields it hands the pipeline, or
    (exit code, last line of stderr) when it ends before."""
    from hopf_forge import cli
    handed = []
    monkeypatch.setattr(cli, "_dispatch",
                        lambda args: handed.append(vars(args)) or 0)
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    if handed:
        assert (code, out, err) == (0, "", "")
        return handed[0]
    # help goes to stdout, usage errors to stderr alone
    assert out.startswith("usage: hopf-forge") if code == 0 else out == ""
    return code, (err.splitlines() or [""])[-1]


class TestParse:
    @pytest.mark.parametrize("argv, expected", PARSES, ids=[
        argv if isinstance(argv, str) and argv else repr(argv)
        for argv, _ in PARSES])
    def test_argv(self, monkeypatch, capsys, argv, expected):
        if isinstance(argv, str):
            argv = argv.split()
        assert read_argv(monkeypatch, capsys, argv) == expected

    # the workloads' option tuples, as the parser must read them
    EXTRA = {(): {}, ("--no-star-assert",): {"no_star_assert": True},
             ("--sub", "c_h"): {"sub": "c_h"},
             ("--degree", "3"): {"degree": 3},
             ("--degree", "4"): {"degree": 4},
             ("--degree", "5"): {"degree": 5}}

    @pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
    def test_every_benchmark_case(self, monkeypatch, capsys, tmp_path,
                                  workload):
        cases = WORKLOADS.build_workload(workload, 2, str(tmp_path))
        for case in cases:
            for fmt in ("text", "json"):
                # the benchmark's worker appends the format to each argv
                expected = {**DEFAULTS[case["command"]],
                            "input": case["input"],
                            **self.EXTRA[tuple(case["extra"])],
                            "format": fmt}
                assert read_argv(monkeypatch, capsys, case["argv"] + [
                    "--format", fmt]) == expected, case["id"]

    @pytest.mark.parametrize("argv", [["--help"], ["-h", "validate"]])
    def test_help_names_every_command(self, capsys, argv):
        from hopf_forge import cli
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        for command in DEFAULTS:
            assert command in out


class TestValidate:
    def test_good_fixture_exits_zero(self):
        proc = run_cli("validate", "c_z2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "result: PASS" in proc.stdout

    def test_failing_fixture_exits_one_and_names_the_rank(self):
        proc = run_cli("validate", "semilattice2")
        assert proc.returncode == 1
        assert "rank 2 of 4" in proc.stdout
        assert "result: FAIL" in proc.stdout

    def test_path_input_wins_over_packaged_name(self, tmp_path):
        src = packaged_fixture_path("c_z2")
        with open(src, encoding="utf-8") as f:
            body = f.read()
        target = tmp_path / "c_z2"
        target.write_text(body, encoding="utf-8")
        proc = run_cli("validate", str(target))
        assert proc.returncode == 0
        assert str(target) in proc.stdout

    def test_unknown_input_exits_two(self):
        proc = run_cli("validate", "no_such_thing")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_json_format(self):
        proc = run_cli("validate", "c_z2", "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["command"] == "validate"
        assert all(c["ok"] for c in payload["checks"])

    def test_output_file_matches_stdout(self, tmp_path):
        out = tmp_path / "report.txt"
        proc = run_cli("validate", "c_z4", "--output", str(out))
        assert proc.returncode == 0
        assert out.read_text(encoding="utf-8") == proc.stdout


class TestAnalyze:
    def test_star_assert_fails_on_sweedler(self):
        proc = run_cli("analyze", "sweedler_h4")
        assert proc.returncode == 1

    def test_no_star_assert_reports_obstructions(self):
        proc = run_cli("analyze", "sweedler_h4", "--no-star-assert")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "obstruction" in proc.stdout

    def test_bad_spec_points_flag_exits_two(self):
        proc = run_cli("analyze", "c_z2", "--spec-points", "nope")
        assert proc.returncode == 2

    def test_bad_spec_points_env_exits_two(self):
        proc = run_cli("analyze", "c_z2",
                       env_extra={"HOPF_FORGE_SPEC_POINTS": "3/2"})
        assert proc.returncode == 2

    def test_flag_overrides_env(self):
        proc = run_cli("analyze", "c_z2", "--spec-points", "1/2,1/3",
                       env_extra={"HOPF_FORGE_SPEC_POINTS": "3/2"})
        assert proc.returncode == 0

    def test_pairing_input_is_rejected(self):
        proc = run_cli("analyze", "pairing-uqsu2-suq2")
        assert proc.returncode == 2


class TestDual:
    def test_dual_output_revalidates(self, tmp_path):
        out = tmp_path / "dual.qg"
        proc = run_cli("dual", "c_z2", "--output", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert out.exists()
        again = run_cli("validate", str(out))
        assert again.returncode == 0, again.stdout + again.stderr


class TestSubcheck:
    def test_named_sub_passes(self):
        proc = run_cli("subcheck", "c_z4", "--sub", "c_h")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "imbedding-injective" in proc.stdout

    def test_fixture_without_subs_exits_two(self):
        proc = run_cli("subcheck", "c_z2")
        assert proc.returncode == 2

    def test_unknown_sub_name_exits_two(self):
        proc = run_cli("subcheck", "c_z4", "--sub", "ghost")
        assert proc.returncode == 2


class TestPair:
    def test_pair_reports_the_table(self):
        proc = run_cli("pair", "pairing-uqsu2-suq2", "--degree", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "<K, a> = 1/s" in proc.stdout
        assert "<E, bs> = -s^2" in proc.stdout
        assert "reported, not asserted" in proc.stdout

    def test_pair_rejects_structure_input(self):
        proc = run_cli("pair", "c_z2")
        assert proc.returncode == 2


class TestDegreeBound:
    @pytest.mark.parametrize("args", [
        ("validate", "suq2", "--degree", "-2"),
        ("analyze", "suq2", "--degree", "-1"),
        ("pair", "pairing-uqsu2-suq2", "--degree", "-1"),
    ])
    def test_negative_degree_is_a_usage_error(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "--degree" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ("validate", "suq2", "--degree", "40"),
        ("analyze", "uq-su2", "--degree", "40"),
        ("pair", "pairing-uqsu2-suq2", "--degree", "40"),
    ])
    def test_degree_over_the_word_budget_exits_two(self, args):
        start = time.perf_counter()
        proc = run_cli(*args)
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert "word budget of 349525 words" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("name", ["uq-su2", "suq2"])
    def test_degree_nine_is_proved_without_enumerating_words(
            self, name, monkeypatch, capsys):
        from hopf_forge import cli
        from hopf_forge.presentations import Presentation

        def refuse(self, max_degree):
            raise AssertionError("words enumerated after the pairs resolved")

        monkeypatch.setattr(Presentation, "inconsistent_words", refuse)
        assert cli.main(["validate", name, "--degree", "9"]) == 0
        assert ("all 349525 words up to degree 9 rewrite consistently"
                in capsys.readouterr().out)

    def test_degree_zero_is_valid(self):
        proc = run_cli("validate", "suq2", "--degree", "0")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all 1 words up to degree 0" in proc.stdout


class TestLiteralBudget:
    @pytest.mark.parametrize("literal, message", [
        ("s^1000000000", "literal budget"),
        ("2^1000000000", "literal budget"),
        ("(1+s)^100000", "literal budget"),
        ("s^1024*s^1024", "literal budget"),
        (" + ".join("1/(s^1000+%d)" % k for k in range(1, 7)),
         "literal budget"),
        ("1" * 5000, "integer literal too long"),
    ])
    def test_huge_literal_in_a_definition_exits_two(self, tmp_path, literal,
                                                    message):
        with open(packaged_fixture_path("c_z2"), encoding="utf-8") as f:
            body = json.load(f)
        body["mul"][0][3] = literal
        target = tmp_path / "huge.qg"
        target.write_text(json.dumps(body), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "hopf_forge", "validate", str(target)],
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr


class TestInternalError:
    def test_internal_error_exits_three_with_a_traceback(self, monkeypatch,
                                                         capsys):
        from hopf_forge import cli

        def crash(*args, **kwargs):
            raise RuntimeError("internal fault")

        monkeypatch.setattr(cli, "run_validate", crash)
        assert cli.main(["validate", "c_z2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last)")
        assert "RuntimeError: internal fault" in captured.err


class TestFileErrors:
    """An input that cannot be read or decoded, and an output that cannot be
    written, end in exit 2 with a one-line error naming the path."""

    def _main(self, capsys, *argv):
        from hopf_forge import cli
        code = cli.main(list(argv))
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: "), err
        return code, err

    def test_input_that_is_not_utf8(self, tmp_path, capsys):
        target = tmp_path / "latin1.qg"
        with open(packaged_fixture_path("c_z2"), "rb") as fh:
            target.write_bytes(fh.read().replace(b'"c_z2"', b'"c_z2\xff"'))
        assert self._main(capsys, "validate", str(target)) == (
            2, "error: %s: not UTF-8 text (byte 0xff at offset %d)\n"
            % (target, target.read_bytes().index(b"\xff")))

    def test_directory_as_input(self, tmp_path, capsys):
        assert self._main(capsys, "validate", str(tmp_path)) == (
            2, "error: %s: cannot read: Is a directory\n" % tmp_path)

    @pytest.mark.parametrize("command", ["validate", "dual"])
    def test_output_in_a_missing_directory(self, tmp_path, capsys, command):
        target = tmp_path / "missing" / "x"
        assert self._main(capsys, command, "c_z2", "--output",
                          str(target)) == (
            2, "error: %s: cannot write: No such file or directory\n"
            % target)

    @pytest.mark.parametrize("command", ["validate", "dual"])
    def test_an_unwritable_output_prints_no_report(self, tmp_path, capsys,
                                                   command):
        from hopf_forge import cli
        target = tmp_path / "missing" / "x"
        assert cli.main([command, "c_z2", "--output", str(target)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command, fmt", [("validate", "text"),
                                              ("analyze", "json")])
    def test_a_written_output_equals_stdout(self, tmp_path, capsys, command,
                                            fmt):
        from hopf_forge import cli
        target = tmp_path / "report"
        assert cli.main([command, "c_z2", "--format", fmt,
                         "--output", str(target)]) == 0
        out = capsys.readouterr().out
        assert out and target.read_text(encoding="utf-8") == out


class TestLineEnds:
    @pytest.mark.parametrize("command, name", [
        ("validate", "c_z2"), ("analyze", "suq2"),
        ("pair", "pairing-uqsu2-suq2")])
    def test_crlf_copy_gives_the_same_report(self, tmp_path, command, name):
        src = packaged_fixture_path(name)
        with open(src, "rb") as fh:
            data = fh.read()
        crlf = data.replace(b"\n", b"\r\n")
        assert crlf != data
        target = tmp_path / (name + ".qg")
        target.write_bytes(crlf)
        plain = run_cli(command, src).stdout.splitlines()
        copy_ = run_cli(command, str(target)).stdout.splitlines()
        assert plain[2] == "input: %s (%s)" % (name, src)
        assert copy_[2] == "input: %s (%s)" % (name, target)
        assert plain[3] == "sha256: " + hashlib.sha256(data).hexdigest()
        assert copy_[3] == "sha256: " + hashlib.sha256(crlf).hexdigest()
        assert copy_[:2] + copy_[4:] == plain[:2] + plain[4:]

    def test_json_error_positions_ignore_line_ends(self, tmp_path, capsys):
        from hopf_forge import cli
        errors = []
        for end in (b"\n", b"\r\n", b"\r"):
            target = tmp_path / "bad.qg"
            target.write_bytes(end.join([b"{", b'  "format": 1,', b"  oops"]))
            assert cli.main(["validate", str(target)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == errors[2]
        assert "line 3 column 3" in errors[0]


class TestExamples:
    def test_writes_all_packaged_files(self, tmp_path):
        out = tmp_path / "ex"
        proc = run_cli("examples", "--output", str(out))
        assert proc.returncode == 0
        names = sorted(p.name for p in out.iterdir())
        assert len(names) == 9
        assert "pairing-uqsu2-suq2.qg" in names


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        a = run_cli("analyze", "group_s3", "--format", "json")
        b = run_cli("analyze", "group_s3", "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


class TestScalarMemoScope:
    """The scalar memo lives for one cli.main call, whatever its exit."""

    @pytest.mark.parametrize("argv, code", [
        (["validate", "suq2"], 0),
        (["validate", "semilattice2"], 1),
        (["validate", "BAD_LITERAL"], 2),
    ])
    def test_memo_is_empty_after_main(self, tmp_path, capsys, argv, code):
        from hopf_forge import cli, scalars
        if argv[1] == "BAD_LITERAL":
            # the summands fill the memo before the sum exceeds its budget
            with open(packaged_fixture_path("c_z2"), encoding="utf-8") as f:
                body = json.load(f)
            body["mul"][0][3] = " + ".join("1/(s^1000+%d)" % k
                                           for k in range(1, 7))
            target = tmp_path / "bad.qg"
            target.write_text(json.dumps(body), encoding="utf-8")
            argv = ["validate", str(target)]
        # an entry from before the command must not survive it either
        scalars.parse_scalar("1/(s + 1)") * scalars.parse_scalar("1/(s + 2)")
        assert scalars._MEMO
        assert cli.main(argv) == code
        assert not scalars._MEMO


FUZZ_ATOMS = ["0", "1", "-1", "s", "1+i", "1/2", "s^-1", "", "x", "1/0",
              "(", 0, 1, 2, 7, -1, 2 ** 70, 1.5, None, True, [], {}, [0],
              ["1"]]


@st.composite
def mutated_fixtures(draw):
    """A packaged fixture's JSON with one or two random edits: a dropped
    key or item, a replaced value, or an appended one."""
    name = draw(st.sampled_from(packaged_fixture_names()))
    with open(packaged_fixture_path(name), encoding="utf-8") as fh:
        body = json.load(fh)
    for _ in range(draw(st.integers(1, 2))):
        node = body
        while True:
            kids = node.values() if isinstance(node, dict) else node
            inner = [k for k in kids if isinstance(k, (dict, list)) and k]
            if not inner or draw(st.integers(0, 3)) == 0:
                break
            node = draw(st.sampled_from(inner))
        if not node:
            continue
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        atom = copy.deepcopy(draw(st.sampled_from(FUZZ_ATOMS)))
        edit = draw(st.sampled_from(["drop", "replace", "append"]))
        if edit == "drop":
            del node[key]
        elif edit == "replace":
            node[key] = atom
        elif isinstance(node, list):
            node.append(atom)
        else:
            node["extra"] = atom
    return body


class TestLoaderFuzz:
    @given(mutated_fixtures(),
           st.sampled_from(["validate", "analyze", "dual", "subcheck",
                            "pair"]))
    @settings(max_examples=300,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mutated_definition_ends_in_a_verdict(self, body, command):
        from hopf_forge import cli
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "mutant.qg")
            with open(target, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
            out, err = io.StringIO(), io.StringIO()
            with deadline(20), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main([command, target])
        assert code in (0, 1, 2), err.getvalue()
