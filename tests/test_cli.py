"""CLI surface: command wiring, grammars, JSON schema, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsip
from qsip import catalog
from qsip.cli import SCHEMA, build_parser, main, parse_partition, parse_spec
from qsip.sip import GLASGOW, SCHUR


class TestGrammars:
    def test_partition(self):
        assert parse_partition("2,7") == (2, 7)
        assert parse_partition("") == ()
        with pytest.raises(ValueError):
            parse_partition("7,2")
        with pytest.raises(ValueError):
            parse_partition("0,1")
        with pytest.raises(ValueError):
            parse_partition("a,b")

    def test_spec_names(self):
        assert parse_spec("glasgow") == GLASGOW
        assert parse_spec("schur") == SCHUR

    def test_spec_inline(self):
        spec = parse_spec("k=2,c=1:2,d=2:3")
        assert (spec.k, spec.c, spec.d) == (2, (1, 2), (2, 3))
        with pytest.raises(ValueError):
            parse_spec("k=2,c=1:2")
        with pytest.raises(ValueError):
            parse_spec("k=2,c=2:2,d=0:0")

    @pytest.mark.parametrize("text, key", [("k=1,c=1,d=2,zz=9", "'zz'"),
                                           ("k=1,c=1,d=2,k=3", "'k'"),
                                           ("k=1, c=1, d=2, c=1", "'c'")])
    def test_spec_unknown_or_repeated_key(self, text, key):
        with pytest.raises(ValueError, match=key):
            parse_spec(text)


class TestOptions:
    """Each subcommand takes only the flags it reads."""

    WANT = {
        "verify": {"--identity", "--trunc", "--output"},
        "verify-all": {"--trunc", "--output"},
        "oracle": {"--identity", "--total-max", "--output"},
        "basis": {"--spec", "--n", "--h-max", "--output"},
        "table": {"--spec", "--n", "--h-max", "--output"},
        "decompose": {"--spec", "--partition", "--output"},
    }

    def test_option_sets(self):
        (commands,) = [a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        got = {name: {opt for action in sub._actions
                      for opt in action.option_strings} - {"-h", "--help"}
               for name, sub in commands.choices.items()}
        assert got == self.WANT

    @pytest.mark.parametrize("argv", [
        ["oracle", "--identity", "slater-46", "--trunc", "5"],
        ["verify", "--identity", "slater-46", "--total-max", "5"],
        ["verify-all", "--h-max", "5"],
        ["basis", "--spec", "natural", "--n", "2", "--trunc", "5"],
        ["table", "--spec", "natural", "--n", "2", "--total-max", "5"],
        ["decompose", "--spec", "natural", "--partition", "2", "--n", "1"],
    ])
    def test_ignored_flag_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and captured.out == ""
        # the subcommand's own usage, which lists the flags it does take
        assert captured.err.startswith(f"usage: qsip {argv[0]} [-h]")
        assert f"qsip {argv[0]}: error: unrecognized arguments" in captured.err

    def test_h_max_defaults_to_twenty(self, capsys):
        assert main(["basis", "--spec", "natural", "--n", "1",
                     "--output", "json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert result["h_max"] == 20


class TestCommands:
    def test_verify_all_exit_zero(self, capsys):
        assert main(["verify-all", "--trunc", "25"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 12

    def test_verify_json_roundtrip(self, capsys):
        assert main(["verify", "--identity", "rogers-ramanujan",
                     "--trunc", "30", "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "qsip-report/1"
        assert report["command"] == "verify"
        (result,) = report["results"]
        assert result["id"] == "rogers-ramanujan"
        assert result["pass"] is True
        assert result["trunc"] == 30
        assert result["first_mismatch"] is None

    def test_basis_command(self, capsys):
        assert main(["basis", "--spec", "k=2,c=1:2,d=2:3", "--n", "2",
                     "--h-max", "30"]) == 0
        out = capsys.readouterr().out
        assert "1+3" in out and "2+6" in out

    def test_basis_command_beyond_recursion_limit(self, capsys):
        assert main(["basis", "--spec", "natural", "--n", "1200",
                     "--h-max", "1", "--output", "json"]) == 0
        (result,) = json.loads(capsys.readouterr().out)["results"]
        assert result["count"] == 1
        assert result["elements"] == [[1] * 1200]

    def test_decompose_command(self, capsys):
        assert main(["decompose", "--spec", "k=3,c=1:2:3,d=3:3:4",
                     "--partition", "2,7", "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        (result,) = report["results"]
        assert result["basis"] == [2, 7]
        assert result["padding"] == [0, 0]
        assert result["pass"] is True

    def test_table_command(self, capsys):
        assert main(["table", "--spec", "gollnitz", "--n", "2",
                     "--h-max", "8"]) == 0
        out = capsys.readouterr().out
        assert "b(2,3) = q^4" in out

    @pytest.mark.parametrize("command", ["table", "basis"])
    @pytest.mark.parametrize("text, message", [
        ("k=1,c=1,d=2,zz=9", "unknown key 'zz'"), ("k=1,c=1,d=2,k=3", "key 'k' given twice")])
    def test_spec_unknown_or_repeated_key_exit_two(self, capsys, command, text, message):
        assert main([command, "--spec", text, "--n", "1", "--h-max", "3"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["table", "basis"])
    def test_spec_not_separable_exit_two(self, capsys, command):
        # the basis step 3 over the part 1 lies below c_3 = 6
        assert main([command, "--spec", "k=3,c=1:2:6,d=0:0:0", "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not separable" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("h_max", ["-4", "0"])
    def test_table_bad_h_max_exit_two(self, capsys, h_max):
        assert main(["table", "--spec", "glasgow", "--n", "2", "--h-max", h_max,
                     "--output", "json"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("h_max", ["-3", "0"])
    def test_basis_bad_h_max_exit_two(self, capsys, h_max):
        assert main(["basis", "--spec", "natural", "--n", "2", "--h-max", h_max]) == 2
        captured = capsys.readouterr()
        assert "h_max must be at least 1" in captured.err and captured.out == ""

    def test_oracle_command(self, capsys):
        assert main(["oracle", "--identity", "glasgow-mod8",
                     "--total-max", "12"]) == 0
        assert "oracle = lhs = rhs" in capsys.readouterr().out

    @pytest.mark.parametrize("identity", catalog.identity_ids())
    def test_oracle_negative_total_exit_two(self, capsys, identity):
        assert main(["oracle", "--identity", identity, "--total-max", "-3"]) == 2
        captured = capsys.readouterr()
        assert "total_max must be non-negative" in captured.err and captured.out == ""

    @pytest.mark.parametrize("identity", catalog.identity_ids())
    def test_oracle_huge_total_exit_two(self, capsys, identity):
        # the oracle allocates its row before its walk visits any state
        assert main(["oracle", "--identity", identity, "--total-max", str(10**20)]) == 2
        captured = capsys.readouterr()
        assert "error: sizes too large to allocate (OverflowError" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("identity", catalog.identity_ids())
    def test_negative_trunc_exit_two(self, capsys, identity):
        assert main(["verify", "--identity", identity, "--trunc", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: truncation order must be non-negative" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("identity", catalog.identity_ids())
    def test_huge_trunc_exit_two(self, capsys, identity):
        # fails at its first list allocation, before any memory is taken
        assert main(["verify", "--identity", identity, "--trunc", str(10**20)]) == 2
        captured = capsys.readouterr()
        assert "error: sizes too large to allocate (OverflowError" in captured.err
        assert captured.out == ""

    def test_memory_error_exit_two(self, capsys, monkeypatch):
        def exhausted(identity, trunc):
            raise MemoryError

        monkeypatch.setattr(catalog, "verify", exhausted)
        assert main(["verify", "--identity", "euler-any", "--trunc", "10"]) == 2
        captured = capsys.readouterr()
        assert "error: sizes too large to allocate (MemoryError" in captured.err
        assert captured.out == ""

    def test_unknown_identity_exit_two(self, capsys):
        assert main(["verify", "--identity", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_spec_exit_two(self, capsys):
        assert main(["basis", "--spec", "k=2,c=1:1,d=0:0", "--n", "1"]) == 2

    def test_bad_spec_fragment_exit_two(self, capsys):
        assert main(["basis", "--spec", "k2", "--n", "1"]) == 2
        captured = capsys.readouterr()
        assert "error: bad spec fragment 'k2': expected key=value" in captured.err
        assert captured.out == ""

    def test_partition_outside_class_exit_two(self, capsys):
        assert main(["decompose", "--spec", "rogers-ramanujan",
                     "--partition", "1,2"]) == 2

    def test_failing_check_exit_one(self, capsys, monkeypatch):
        broken = catalog.IdentityEntry(
            "broken", "synthetic failure",
            lhs=lambda t: catalog.QSeries.one(t),
            rhs=lambda t: catalog.QSeries.zero(t),
            oracle=lambda t: catalog.QSeries.one(t))
        monkeypatch.setitem(catalog.REGISTRY, "broken", broken)
        assert main(["verify", "--identity", "broken", "--trunc", "10"]) == 1
        out = capsys.readouterr().out
        assert "FAIL at q^0" in out

    def test_json_report_matches_structure(self, capsys):
        assert main(["verify-all", "--trunc", "20", "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {r["id"] for r in report["results"]} == set(catalog.identity_ids())
        assert all(set(r) >= {"id", "pass", "trunc", "first_mismatch"}
                   for r in report["results"])


class TestReports:
    """Both output modes carry the same rows; the exit status follows them."""

    VERIFY_KEYS = {"id", "pass", "trunc", "first_mismatch", "text"}
    CASES = {
        "verify": (["--identity", "rogers-ramanujan", "--trunc", "20"], VERIFY_KEYS),
        # verify-all also runs the failing identity registered below
        "verify-all": (["--trunc", "12"], VERIFY_KEYS),
        "oracle": (["--identity", "glasgow-mod8", "--total-max", "10"],
                   {"id", "pass", "total_max", "oracle_vs_lhs", "oracle_vs_rhs", "text"}),
        "basis": (["--spec", "gollnitz", "--n", "2", "--h-max", "12"],
                  {"pass", "n", "h_max", "count", "elements", "text"}),
        "decompose": (["--spec", "schur", "--partition", "2,7"],
                      {"pass", "partition", "basis", "padding", "text"}),
        "table": (["--spec", "gollnitz", "--n", "2", "--h-max", "8"],
                  {"pass", "n", "h", "series", "text"}),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_text_lines_are_json_texts(self, capsys, monkeypatch, command):
        broken = catalog.IdentityEntry(
            "broken", "synthetic failure",
            lhs=lambda t: catalog.QSeries.one(t),
            rhs=lambda t: catalog.QSeries.zero(t),
            oracle=lambda t: catalog.QSeries.one(t))
        monkeypatch.setitem(catalog.REGISTRY, "broken", broken)
        flags, keys = self.CASES[command]
        text_status = main([command, *flags])
        lines = capsys.readouterr().out.splitlines()
        json_status = main([command, *flags, "--output", "json"])
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"schema", "command", "results"}
        assert (report["schema"], report["command"]) == (SCHEMA, command)
        rows = report["results"]
        assert rows and all(set(row) == keys for row in rows)
        assert lines == [row["text"] for row in rows]
        want = 0 if all(row["pass"] for row in rows) else 1
        assert text_status == json_status == want


def python(*args, **kwargs):
    """Run a fresh interpreter that imports this qsip, capturing its output."""
    src = str(Path(qsip.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), **kwargs)


class TestParserReuse:
    """``main`` builds the parser once per process, and a call's output does
    not depend on the calls made before it."""

    def test_built_once_per_process(self, capsys):
        assert main(["verify", "--identity", "euler-any", "--trunc", "8"]) == 0
        assert main(["verify-all", "--trunc", "8", "--output", "json"]) == 0
        assert main(["oracle", "--identity", "slater-46", "--total-max", "8"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--identity", "euler-any"])
        assert exc.value.code == 2
        assert main(["verify", "--identity", "nope"]) == 2
        capsys.readouterr()
        assert build_parser.cache_info().misses <= 1

    # Runs the calls of its JSON argument in order in one interpreter and
    # prints [stdout, stderr, exit status] per call and the parser builds.
    SEQUENCE = """if True:
        import contextlib, io, json, sys
        from qsip.cli import build_parser, main

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
            return [out.getvalue(), err.getvalue(), status]

        runs = [run(argv) for argv in json.loads(sys.argv[1])]
        print(json.dumps({"runs": runs, "builds": build_parser.cache_info().misses}))
    """

    # (call, earlier call, the earlier call's exit status)
    CASES = {
        "verify-all after verify": (
            ["verify-all", "--trunc", "12", "--output", "json"],
            ["verify", "--identity", "rogers-ramanujan", "--trunc", "12"], 0),
        "after an unrecognized flag": (
            ["verify", "--identity", "euler-any", "--trunc", "10", "--output", "json"],
            ["verify", "--identity", "euler-any", "--total-max", "5"], 2),
        "after an unknown identity": (
            ["verify", "--identity", "euler-any", "--trunc", "10"],
            ["verify", "--identity", "nope", "--output", "json"], 2),
        "help twice": (["verify", "--help"], ["verify", "--help"], 0),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_same_output_as_the_first_call(self, case):
        argv, earlier, earlier_status = self.CASES[case]
        proc = python("-c", self.SEQUENCE, json.dumps([argv, earlier, argv]), timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        first, between, again = report["runs"]
        assert between[2] == earlier_status
        assert again == first  # stdout, stderr and exit status
        assert report["builds"] == 1


def cap_address_space():
    """Limit the calling process to 512 MiB of address space."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


class TestHugeSizes:
    """A size no list or tuple can hold exits 2 before any walk.  Each case
    runs in a child capped at 512 MiB of address space and a timeout, so a
    walk that grows toward the size fails the test instead of taking the
    machine's memory."""

    @pytest.mark.parametrize("argv", [
        ["table", "--spec", "glasgow", "--n", str(10**20)],
        ["table", "--spec", "natural", "--n", str(10**20), "--h-max", "1"],
        ["basis", "--spec", "natural", "--n", str(10**20)],
        # rows that run empty exit 2 as well, as verify does at a huge trunc
        ["table", "--spec", "distinct", "--n", str(10**20), "--output", "json"],
    ], ids=["table-glasgow", "table-natural", "basis-natural", "table-distinct"])
    def test_exit_two_at_once(self, argv):
        proc = python("-m", "qsip", *argv, preexec_fn=cap_address_space, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: sizes too large to allocate (OverflowError")


class TestModuleEntryPoint:
    """``python -m qsip`` runs :func:`qsip.cli.main` and exits with its status."""

    @staticmethod
    def run(*argv):
        return python("-m", "qsip", *argv)

    def test_verify(self, capsys):
        argv = ["verify", "--identity", "euler-any", "--trunc", "10"]
        proc = self.run(*argv)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)

    def test_unknown_identity(self):
        proc = self.run("verify", "--identity", "nope")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and proc.stdout == ""
