import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from inv3sat import ModelSet, inverse, oracle_decide
from inv3sat.cli import build_parser, main

from conftest import WORKED_MODELS, affine_models, parity_models


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "phi.models"
    path.write_text("\n".join(WORKED_MODELS) + "\n")
    return str(path)


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "one.models"
    path.write_text("111\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The flags each subcommand reads; any other of these is an argparse error.
COMMAND_FLAGS = {
    "candidate": ("--input", "--json"),
    "closure": ("--input", "--json", "--verbose"),
    "cover": ("--input", "--json"),
    "decide": ("--input", "--json", "--verbose", "--timeout"),
    "oracle": ("--input", "--oracle-cap", "--json"),
    "fuzz": ("--seed", "--oracle-cap", "--json"),
}
FLAG_ARGS = {
    "--seed": ("--seed", "1"),
    "--oracle-cap": ("--oracle-cap", "10"),
    "--json": ("--json",),
    "--verbose": ("--verbose",),
    "--timeout": ("--timeout", "5"),
}
UNREAD_FLAGS = [
    (command, flag)
    for command, read in COMMAND_FLAGS.items()
    for flag in FLAG_ARGS
    if flag not in read
]


class TestFlags:
    def test_unread_flag_count(self):
        assert len(UNREAD_FLAGS) == 18

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_read_flags_parse(self, command):
        argv = [command]
        for flag in COMMAND_FLAGS[command]:
            argv += ("--input", "x") if flag == "--input" else FLAG_ARGS[flag]
        assert build_parser().parse_args(argv).command == command

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_is_an_argparse_error(self, capsys, command, flag):
        argv = [command, *FLAG_ARGS[flag]]
        if "--input" in COMMAND_FLAGS[command]:
            argv += ["--input", "x"]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    @pytest.mark.parametrize("flag", [("--kmin", "4"), ("--paper-mode",)], ids=["kmin", "paper-mode"])
    def test_retired_stratum_floor_flags_are_argparse_errors(self, capsys, worked_file, command, flag):
        # every command walks and lists the cover from stratum 1
        family = ["--random", "4:2"] if command == "fuzz" else ["--input", worked_file]
        with pytest.raises(SystemExit) as exc:
            main([command, *family, *flag])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err


class TestCandidateCommand:
    def test_single_model_dimacs_golden(self, capsys, tiny_file):
        code, out, _ = run(capsys, "candidate", "--input", tiny_file)
        assert code == 0
        assert out == (
            "p cnf 3 7\n"
            "1 2 3 0\n"
            "1 2 -3 0\n"
            "1 -2 3 0\n"
            "1 -2 -3 0\n"
            "-1 2 3 0\n"
            "-1 2 -3 0\n"
            "-1 -2 3 0\n"
        )

    def test_json_output(self, capsys, tiny_file):
        code, out, _ = run(capsys, "candidate", "--input", tiny_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_vars"] == 3
        assert payload["clause_count"] == 7
        assert [1, 2, 3] in payload["clauses"]

    def test_output_reparses_to_the_in_memory_formula(self, capsys, worked_file):
        from inv3sat import ModelSet, candidate_formula

        code, out, _ = run(capsys, "candidate", "--input", worked_file)
        assert code == 0
        header, *lines = out.splitlines()
        formula = candidate_formula(ModelSet(5, WORKED_MODELS))
        assert header == f"p cnf 5 {len(formula.clauses)}"
        assert {tuple(int(t) for t in line.split()[:-1]) for line in lines} == formula.clauses


class TestClosureCommand:
    def test_worked_closure_golden(self, capsys, worked_file):
        code, out, _ = run(capsys, "closure", "--input", worked_file)
        assert code == 0
        assert out == (
            "p cnf 5 7\n"
            "1 2 3 0\n"
            "1 -2 5 0\n"
            "-1 2 5 0\n"
            "-1 -2 3 0\n"
            "3 4 0\n"
            "3 5 0\n"
            "-4 5 0\n"
        )

    def test_verbose_counters_go_to_stderr(self, capsys, worked_file):
        code, out, err = run(
            capsys, "closure", "--input", worked_file, "--verbose"
        )
        assert code == 0
        assert "resolution_steps=" in err
        assert "resolution_steps=" not in out


class TestCoverCommand:
    def test_kmin_1_includes_short_stratum(self, capsys, worked_file):
        code, out, _ = run(capsys, "cover", "--input", worked_file)
        assert code == 0
        assert out == (
            "# k=3 (2 prefixes)\n000\n110\n"
            "# k=4 (4 prefixes)\n0100\n0111\n1000\n1011\n"
            "# k=5 (8 prefixes)\n00101\n00110\n01010\n01100\n10010\n10100\n11101\n11110\n"
        )


class TestDecideCommand:
    def test_worked_text_golden(self, capsys, worked_file):
        code, out, _ = run(capsys, "decide", "--input", worked_file)
        assert code == 0
        assert out == (
            "n=5 models=8 kmin=1\n"
            "extra model exists: yes\n"
            "input is the exact model set of a 3-CNF: no\n"
            "witness: 10111\n"
            "cover size: 14, prefixes checked: 4\n"
            "trace:\n"
            "  000 k=3 closure_size=1 empty=yes {()}\n"
            "  110 k=3 closure_size=1 empty=yes {()}\n"
            "  0100 k=4 closure_size=1 empty=yes {()}\n"
            "  1011 k=4 closure_size=1 empty=no {(5)}\n"
        )

    def test_json_fields(self, capsys, worked_file):
        code, out, _ = run(capsys, "decide", "--input", worked_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kmin"] == 1
        assert payload["cover_size"] == 14
        assert payload["answer"] == "extra-model-exists"
        assert payload["extra_model_exists"] is True
        assert payload["exactly_representable"] is False
        assert payload["witness"] == "10111"
        assert payload["trace"][-1]["closure"] == [[5]]

    def test_output_is_byte_identical_across_runs(self, capsys, worked_file):
        _, first, _ = run(capsys, "decide", "--input", worked_file)
        _, second, _ = run(capsys, "decide", "--input", worked_file)
        assert first == second

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_verbose_counts_closed_clauses_on_stderr_only(self, capsys, tmp_path, json_flag):
        # a constant first variable adds a unit to the worked closure's pairs and triples
        ms = ModelSet(6, tuple("1" + m for m in WORKED_MODELS))
        path = tmp_path / "phi.models"
        path.write_text("\n".join(ms.models) + "\n")
        _, plain, quiet = run(capsys, "decide", "--input", str(path), *json_flag)
        code, out, err = run(capsys, "decide", "--input", str(path), "--verbose", *json_flag)
        assert code == 0 and out == plain and quiet == ""
        counts = re.fullmatch(r"timings: .* closed: units=(\d+) pairs=(\d+) triples=(\d+)\n", err)
        width = Counter(map(len, inverse.analyze(ms).closed.clauses))
        assert tuple(map(int, counts.groups())) == (width[1], width[2], width[3]) == (1, 3, 4)

    def test_verbose_names_no_open_stratum(self, capsys, tmp_path):
        # the models of (x1 v x2 v x3): its refuter bit refutes the one cover
        # prefix 000, so no stratum holds an open prefix and nothing is probed
        path = tmp_path / "clause.models"
        path.write_text("".join(f"{a:03b}\n" for a in range(1, 8)))
        code, _, err = run(capsys, "decide", "--input", str(path), "--verbose")
        assert code == 0
        assert " open: strata=- probed=0 closed: " in err

    def test_no_answer_phrasing(self, capsys, tmp_path):
        path = tmp_path / "full.models"
        path.write_text("".join(f"{a:03b}\n" for a in range(8)))
        code, out, _ = run(capsys, "decide", "--input", str(path))
        assert code == 0
        assert "extra model exists: no\n" in out
        assert "input is the exact model set of a 3-CNF: yes\n" in out
        assert "witness:" not in out


class TestOracleCommand:
    def test_worked_extras(self, capsys, worked_file):
        code, out, _ = run(capsys, "oracle", "--input", worked_file)
        assert code == 0
        assert "extra model exists: yes" in out
        assert "00101" in out and "10111" in out

    def test_shows_the_first_32_extra_models(self, capsys, tmp_path):
        # the even assignments over seven variables show every pattern on
        # every triple, so the candidate is empty and all 64 odd ones are
        # extra models
        even = ModelSet(7, tuple(format(a, "07b") for a in range(128) if a.bit_count() % 2 == 0))
        path = tmp_path / "even.models"
        path.write_text("\n".join(even.models) + "\n")
        verdict = oracle_decide(even)
        code, out, _ = run(capsys, "oracle", "--input", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["extra_model_count"] == len(verdict.extra_models) == 64
        assert payload["extra_models"] == list(verdict.extra_models[:32])
        assert payload["extra_models_truncated"]
        code, out, _ = run(capsys, "oracle", "--input", str(path))
        lines = out.splitlines()
        assert lines[4:36] == [f"  {m}" for m in verdict.extra_models[:32]]
        assert lines[36] == f"  ... and {len(verdict.extra_models) - 32} more"

    def test_cap_error_exits_2(self, capsys, worked_file):
        code, _, err = run(
            capsys, "oracle", "--input", worked_file, "--oracle-cap", "4"
        )
        assert code == 2
        assert "error" in err


class TestErrorPaths:
    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "decide", "--input", "/nonexistent/x")
        assert code == 2
        assert "error" in err

    def test_garbage_model_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.models"
        path.write_text("10a\n")
        code, _, _ = run(capsys, "decide", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["candidate", "closure", "cover", "decide", "oracle"])
    def test_non_utf8_input_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "latin.models"
        path.write_bytes(b"\xff\xfe01\n")
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_decide_timeout_exits_2(self, capsys, worked_file):
        code, out, err = run(capsys, "decide", "--input", worked_file, "--timeout", "1e-9")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["decide"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
    def test_timeout_must_be_finite_and_positive(self, capsys, worked_file, command, value):
        # 0 and nan would turn the deadline off, a negative one would expire at once
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", worked_file, f"--timeout={value}"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: ")
        assert "--timeout: want a finite number of seconds above 0" in err

    def test_unknown_command_is_an_argparse_error(self, capsys):
        for command in ("no-such-command", "bench"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


@pytest.fixture
def parity_file(tmp_path):
    path = tmp_path / "parity.models"
    path.write_text("\n".join(parity_models().models) + "\n")
    return str(path)


# Three models over 18 variables, the benchmark's dense regime: no extra
# model, and from stratum 6 on every stratum holds one flip per model.
DENSE_MODELS = ("101101101010011101", "110101101010100101", "110111011010010111")

# sha256 of stdout, recorded when every stratum was still built by slicing
# the model strings and every trace line printed from its own record:
# reading strata off bitsets and writing a stratum at a time moved no byte.
# The --json and dense pins were recorded while each trace line was still
# formatted per prefix and `_flips` ran on every stratum.
STDOUT_SHA256 = {
    ("decide", "affine"): "6a4956368329e336a6230baea44ba01729d52ed7c6dd47034026485ebda564ee",
    ("decide --json", "affine"): "e6420b76be29a87a6bc4f40f4db824f859cd9ddafccf3893df435b6701601e66",
    ("cover", "affine"): "13a37cd693e7100ca6ec45de972c8361edf2c3ad2102ce48dbb5a8f37bc241d0",
    ("decide", "worked"): "f2998c8fae257e736ee79845f156eda35a61c6a3b6ef0a82f054f7d28edd6e6d",
    ("decide --json", "worked"): "79cdb6aa75733cee045c3dcc392d9dfaae6cb86e84a7d4071d0084227fa3bde0",
    ("cover", "worked"): "8f495d2ed257122bb4a45c9cd30b7025a95217075a2a079cef0756a781bb6dac",
    ("decide", "dense"): "356b06aa686474547feadcc3940679b930b772950cb27859f10b9e441eca1a92",
    ("decide --json", "dense"): "5344fc60e9c149585e34ce2261df2a929e9daac6f02e173cdb50d8483d7d9ddc",
    ("decide", "parity"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",  # exits 3
    ("cover", "parity"): "164795adf4e2ff0f1e7a901cadbb8df09b677d31c9298f23bdbbc613d8852fcf",
}


@pytest.mark.parametrize("command, name", sorted(STDOUT_SHA256))
def test_stdout_is_pinned(capsys, tmp_path, command, name):
    models = {"affine": affine_models(40, 10, 0), "worked": ModelSet(5, WORKED_MODELS),
              "dense": ModelSet(18, DENSE_MODELS), "parity": parity_models()}[name]
    path = tmp_path / f"{name}.models"
    path.write_text("\n".join(models.models) + "\n")
    code, out, _ = run(capsys, *command.split(), "--input", str(path))
    assert code == (3 if (command, name) == ("decide", "parity") else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command, name]
    if name == "affine" and command == "decide":
        assert len(out.splitlines()) == 30_725


# sha256 of the campaign files, recorded while the harness still re-walked
# the open prefixes for the stratum-4 slice and `inverse.walk` drove the
# quine probe: reading the slice off decide's stop moved no byte
FUZZ_SHA256 = {
    "quine": (("--exhaustive", "3", "--quine-probe"), {
        "records.txt": "3a2545a4c52aac0a5671726e916afdfcbd143cd4e1b884f7ba5b4a1f0925ab7b",
        "summary.json": "79d08249afa9f51b087c819cce811f706dc8da5e9ab67108ed98469d1879cd99",
    }),
    "closedness": (("--random", "7:200", "--cnf-random", "7:50", "--seed", "5", "--closedness-sample", "2"), {
        "records.txt": "196ac2f709632386fbaf836078db12d8220a3a55ae6c232738e1fd3b8617a518",
        "summary.json": "6b56b8723e6eb2ff13f6563e2b1044adf45eea8b843472b42afd4c531032cd27",
    }),
}


@pytest.mark.parametrize("name", sorted(FUZZ_SHA256))
def test_fuzz_files_are_pinned(capsys, tmp_path, name):
    argv, want = FUZZ_SHA256[name]
    code, _, _ = run(capsys, "fuzz", *argv, "--out", str(tmp_path))
    assert code == 0
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in want} == want


class TestExitThree:
    def test_closure_test_failure_says_the_method_failed(self, capsys, parity_file):
        code, out, err = run(capsys, "decide", "--input", parity_file)
        assert code == 3
        assert out == ""
        assert err.startswith("paper method failed: ")
        assert "prefix 0001:" in err
        assert "internal inconsistency" not in err

    def test_verbose_explains_the_failed_run(self, capsys, parity_file):
        code, out, err = run(capsys, "decide", "--input", parity_file, "--verbose")
        assert code == 3
        assert out == ""
        timings, failed = err.splitlines()
        # the new stderr field: strata holding an open prefix, prefixes probed
        assert re.fullmatch(r"timings: step1=\S+s step2=\S+s step3=\S+s open: strata=4 probed=1 "
                            r"closed: units=0 pairs=0 triples=32", timings)
        assert failed.startswith("paper method failed: ")

    def test_failed_verification_is_an_internal_inconsistency(self, capsys, worked_file, monkeypatch):
        monkeypatch.setattr(inverse, "extract_witness", lambda formula, prefix: "00000")
        code, out, err = run(capsys, "decide", "--input", worked_file)
        assert code == 3
        assert out == ""
        assert err.startswith("internal inconsistency: witness 00000 ")


class TestRepeatedMain:
    # build_parser is built once per process and shared by every main call
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_give_the_first_output(self, capsys, worked_file):
        calls = [
            ["candidate", "--input", worked_file],
            ["closure", "--input", worked_file, "--json"],
            ["cover", "--input", worked_file, "--json"],
            ["decide", "--input", worked_file],
            ["decide", "--input", worked_file, "--json"],
            ["oracle", "--input", worked_file],
            ["cover", "--input", worked_file, "--verbose"],
            ["fuzz", "--random", "5:3", "--seed", "2"],
        ]

        def once(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [once(argv) for argv in calls]
        assert first[6][0] == 2 and "unrecognized arguments: --verbose" in first[6][2]
        for _ in range(2):
            assert [once(argv) for argv in calls] == first


class TestModuleEntryPoint:
    def test_python_m_inv3sat_is_main(self, capsys, worked_file):
        proc = subprocess.run([sys.executable, "-m", "inv3sat", "decide", "--input", worked_file],
                              capture_output=True, text=True, env=_src_env())
        code, out, _ = run(capsys, "decide", "--input", worked_file)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert "witness: 10111" in out

    # A reader that closes the pipe early, as `| head -1` does, ends the
    # run with exit 141 and nothing on stderr, whether the write that
    # fails comes mid-trace or at the final flush.

    def test_closed_pipe_mid_trace_exits_quietly(self, tmp_path):
        path = tmp_path / "affine.models"
        path.write_text("\n".join(affine_models(40, 10, seed=0).models) + "\n")
        proc = subprocess.Popen([sys.executable, "-m", "inv3sat", "decide", "--input", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
        assert proc.stdout.readline() == b"n=40 models=1024 kmin=1\n"
        proc.stdout.close()  # 30 725 lines are far more than the pipe holds
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
        proc.stderr.close()

    def test_pipe_closed_before_the_first_write_exits_quietly(self, worked_file):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "inv3sat", "decide", "--input", worked_file],
                                  stdout=write, stderr=subprocess.PIPE, env=_src_env(), timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")


def _src_env():
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


class TestFuzzCommand:
    def test_small_campaign_json(self, capsys):
        code, out, _ = run(
            capsys, "fuzz", "--random", "5:20", "--seed", "3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["instances"] == 20
        assert payload["disagreements"] == 0

    def test_out_directory_written(self, capsys, tmp_path):
        out_dir = tmp_path / "campaign"
        code, _, _ = run(
            capsys, "fuzz", "--random", "4:10", "--out", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "records.txt").exists()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["instances"] == 10

    def test_no_family_exits_2(self, capsys):
        code, _, _ = run(capsys, "fuzz")
        assert code == 2

    def test_jobs_below_one_exits_2(self, capsys):
        code, _, _ = run(capsys, "fuzz", "--random", "4:2", "--jobs", "0")
        assert code == 2

    def test_jobs_above_cpu_count_exits_2_before_any_work(self, capsys, monkeypatch):
        import multiprocessing

        from inv3sat import harness

        def refuse(*args, **kwargs):
            raise AssertionError("no instance or worker may be started")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(harness, "generate_with_ids", refuse)
        jobs = str((os.cpu_count() or 1) + 1)
        code, out, err = run(capsys, "fuzz", "--random", "4:2", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --jobs")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--exhaustive", "5"],
            ["--exhaustive", "0"],
            ["--random", "0:3"],
            ["--random", "4:-1"],
            ["--cnf-random", "0:3"],
            ["--cnf-random", "2:3"],
            ["--random", "4:2", "--closedness-sample", "-1"],
        ],
    )
    def test_family_it_cannot_generate_exits_2(self, capsys, argv):
        code, _, err = run(capsys, "fuzz", *argv)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [["--random", "6:3000", "--random", "30:1"], ["--exhaustive", "4", "--oracle-cap", "3"]],
        ids=["random-above-default-cap", "exhaustive-above-cap"],
    )
    def test_family_above_oracle_cap_exits_2_before_any_work(self, capsys, monkeypatch, argv):
        from inv3sat import harness

        def refuse(*args, **kwargs):
            raise AssertionError("no instance may be generated")

        monkeypatch.setattr(harness, "generate_with_ids", refuse)
        code, out, err = run(capsys, "fuzz", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "--oracle-cap" in err

    @pytest.mark.parametrize("out_path", ["afile", "afile/sub"], ids=["out-is-a-file", "out-below-a-file"])
    def test_out_path_it_cannot_make_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path, out_path):
        from inv3sat import harness

        def refuse(*args, **kwargs):
            raise AssertionError("no instance may be generated")

        monkeypatch.setattr(harness, "generate_with_ids", refuse)
        (tmp_path / "afile").write_text("")
        code, out, err = run(capsys, "fuzz", "--random", "4:2", "--out", str(tmp_path / out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_jobs_is_a_fuzz_flag_only(self, capsys, worked_file):
        with pytest.raises(SystemExit):
            main(["decide", "--input", worked_file, "--jobs", "2"])
