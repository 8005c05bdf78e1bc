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


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("HOPF_FORGE_SPEC_POINTS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hopf_forge", *args],
        capture_output=True, text=True, env=env)


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
