import argparse
import errno
import hashlib
import io
import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import efxlab
from efxlab import acceptance, cli, verification
from efxlab.cli import build_parser, main
from efxlab.decoding import (
    dump_dyadic,
    dump_rank_blocks,
    dump_value_blocks,
    load_bundled_counterexample,
    load_value_blocks,
)
from efxlab.dimacs import assignment_from_ranks, parse_dimacs, parse_model, write_dimacs
from efxlab.encoding import EncodeOptions, encode_formula, var_id
from efxlab.simplify import preprocess
from efxlab.smtlib import emit_smtlib
from efxlab.three_agent import _confirmed, _dispatch
from efxlab.valuations import RealValuation, random_monotone_rank_valuation

from conftest import as_real
from test_three_agent import final_case_state_with_certificate

THREE_GOODS = random_monotone_rank_valuation(3, 8)


def stdin_from(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin: UTF-8 with surrogateescape, no newline translation."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n")


@pytest.fixture()
def counterexample_file(tmp_path):
    path = tmp_path / "counterexample8.txt"
    path.write_text(dump_rank_blocks(load_bundled_counterexample()))
    return path


def test_encode_writes_dimacs_with_reported_stats(tmp_path, capsys):
    out = tmp_path / "efx4.cnf"
    assert main(["encode", "-m", "4", "-k", "2", "--item-order", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "total clauses: 711" in printed
    formula = parse_dimacs(out.read_text())
    assert len(formula.clauses) == 711
    assert formula.num_vars == 360


def test_stats_json_reports_reference_match(capsys):
    assert main(["stats", "-m", "6", "-k", "5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_clauses"] == 461_835
    assert any("matches" in note for note in payload["notes"])
    assert any("6084" in note for note in payload["notes"])


# sha256 of the concatenated `stats --json` output of these configurations,
# frozen so that the published figures and their notes stay byte-identical.
STATS_CONFIGS = (
    ["-m", "6", "-k", "5"],
    ["-m", "6", "-k", "4"],
    ["-m", "6", "-k", "4", "--item-order"],
    ["-m", "7", "-k", "5", "--item-order"],
    ["-m", "8", "-k", "6", "--item-order"],
    ["-m", "8", "-k", "8", "--item-order"],
    ["-m", "5", "-k", "3"],
)
STATS_DIGEST = "382b336d24c3f7af7b3c3621e24325c87ac7d9187a37780992f8404eccb35250"


def test_stats_json_output_is_pinned(capsys):
    for flags in STATS_CONFIGS:
        assert main(["stats", *flags, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == STATS_DIGEST


@pytest.fixture()
def small_inputs(tmp_path):
    """`efx`: three valuations over 4 goods with an EFX allocation; `hard`: the m=4, k=3
    item-order formula, which the solver does not settle without a conflict."""
    efx = tmp_path / "efx4.txt"
    efx.write_text(dump_rank_blocks([random_monotone_rank_valuation(4, 100 + j) for j in range(3)]))
    hard = tmp_path / "hard.cnf"
    hard.write_text(write_dimacs(encode_formula(EncodeOptions(4, 3, True))))
    return {"efx": efx, "hard": hard}


@pytest.mark.parametrize(
    "argv, code, lines",
    [
        pytest.param(
            ["verify", "--vals", "{efx}", "--expect-none"], 1,
            ["EFX count: 3 / 36", "first EFX allocation: [5, 8, 2]"], id="verify-expect-none-finds-efx",
        ),
        pytest.param(["sat", "-i", "{hard}", "--budget", "0"], 1, ["s UNKNOWN"], id="sat-budget-spent"),
        pytest.param(
            ["stats", "-m", "6", "-k", "4"], 0,
            [
                "note: variable count 6048 = 3*P*(P-1)/2 with P=2^6 disagrees with the previously"
                " reported 6084; the formula value is used",
                "note: generated-clause total 189720 differs from the previously reported 189723 by -3"
                " (0.0016%, within the 0.02% tolerance); per-family counts: item_order=0,"
                " leveled=3465, monotonicity=1995, not_efx=540, transitivity=183720",
            ],
            id="stats-text-notes",
        ),
    ],
)
def test_exit_code_and_printed_lines(small_inputs, capsys, argv, code, lines):
    assert main([arg.format(**small_inputs) for arg in argv]) == code
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line in lines] == lines


def test_preprocess_writes_an_unsat_formula_that_sat_refutes(tmp_path, capsys):
    cnf, reduced = tmp_path / "in.cnf", tmp_path / "out.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["preprocess", "-i", str(cnf), "-o", str(reduced), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["unsat"] is True
    assert reduced.read_text() == "p cnf 1 1\n0\n"
    assert main(["sat", "-i", str(reduced)]) == 0
    assert capsys.readouterr().out == "s UNSATISFIABLE\n"


def test_sat_and_decode_pipeline(tmp_path, capsys):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 2 2\n1 0\n-1 2 0\n")
    assert main(["sat", "-i", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out
    model = parse_model(out)
    assert model.values[1] is True and model.values[2] is True


def test_sat_reports_unsat(tmp_path, capsys):
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["sat", "-i", str(cnf)]) == 0
    assert "s UNSATISFIABLE" in capsys.readouterr().out


@pytest.mark.parametrize("num_vars", [0, 1, 19, 20, 40, 41])
def test_sat_model_lines_parse_back(tmp_path, capsys, num_vars):
    cnf = tmp_path / "free.cnf"
    cnf.write_text(f"p cnf {num_vars} 1\n{num_vars} 0\n" if num_vars else "p cnf 0 0\n")
    assert main(["sat", "-i", str(cnf)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "s SATISFIABLE"
    assert [len(line.split()) - 1 for line in lines[1:-1]] == [20] * ((num_vars - 1) // 20)
    assert lines[-1].startswith("v ") and lines[-1].endswith(" 0")
    model = parse_model(out, num_vars)
    assert sorted(model.values) == list(range(1, num_vars + 1))
    if num_vars:
        assert model.values[num_vars] is True


def test_sat_and_preprocess_read_stdin(tmp_path, monkeypatch, capsys):
    text = "c from stdin\r\np cnf 3 3\r\n1 0\r\n1 2\r\n0 -1 3 0\r\n"
    monkeypatch.setattr("sys.stdin", stdin_from(text.encode()))
    assert main(["sat", "-i", "-"]) == 0
    assert parse_model(capsys.readouterr().out).values == {1: True, 2: False, 3: True}
    monkeypatch.setattr("sys.stdin", stdin_from(text.encode()))
    assert main(["preprocess", "-i", "-", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["input_clauses"] == 3 and payload["output_clauses"] == 0


@pytest.mark.parametrize(
    "text", ["p cnf 2 2\rc note\r1 0\r2 0\r", "c mixed\r\np cnf 2 2\rc note\n1 0\r\n2 0\r"]
)
def test_stdin_ends_lines_as_a_file_does(tmp_path, monkeypatch, capsys, text):
    """A lone carriage return ends a line read from stdin, as it does in a file."""
    path = tmp_path / "line-ends.cnf"
    path.write_bytes(text.encode())
    assert main(["sat", "-i", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert from_file.startswith("s SATISFIABLE\n")
    monkeypatch.setattr("sys.stdin", stdin_from(text.encode()))
    assert main(["sat", "-i", "-"]) == 0
    assert capsys.readouterr().out == from_file


@pytest.mark.parametrize("command", ["sat", "preprocess"])
@pytest.mark.parametrize("header", ["p cnf -3 0", "p cnf 3 -1"])
def test_negative_header_counts_exit_one_with_one_error_line(tmp_path, capsys, command, header):
    cnf = tmp_path / "negative.cnf"
    cnf.write_text(f"c counts\n{header}\n")
    assert main([command, "-i", str(cnf)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: negative header counts\n"


@pytest.mark.parametrize(
    "argv, data",
    [
        (["sat", "-i"], b"p cnf 1 1\n\xff 0\n"),
        (["preprocess", "-i"], b"p cnf 1 1\n\xff 0\n"),
        (["verify", "--vals"], b"0 000\xff 1\n"),
        (["sat", "-i", "-"], b"p cnf 1 1\n\xff 0\n"),
    ],
)
def test_non_utf8_input_exits_one_with_one_error_line(tmp_path, monkeypatch, capsys, argv, data):
    if argv[-1] == "-":
        path = "-"
        monkeypatch.setattr("sys.stdin", stdin_from(data))
    else:
        path = tmp_path / "latin1.txt"
        path.write_bytes(data)
        argv = [*argv, str(path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: not UTF-8 text: byte 0xff (invalid start byte)\n"


def test_preprocess_roundtrip(tmp_path, capsys):
    cnf = tmp_path / "in.cnf"
    cnf.write_text("p cnf 3 3\n1 0\n1 2 0\n-1 3 0\n")
    out = tmp_path / "out.cnf"
    assert main(["preprocess", "-i", str(cnf), "-o", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["unsat"] is False
    reduced = parse_dimacs(out.read_text())
    assert (1,) in reduced.clauses and (3,) in reduced.clauses


def write_model_of(triple, path: Path) -> None:
    """A one-line `v` model of the rank tables of three valuations over 3 goods."""
    assignment = assignment_from_ranks(
        [v.rank for v in triple], lambda i, a, b: var_id(i, a, b, 3)
    )
    literals = [var if value else -var for var, value in sorted(assignment.values.items())]
    path.write_text("s SATISFIABLE\nv " + " ".join(map(str, literals)) + " 0\n")


def test_decode_model_into_blocks(tmp_path, capsys):
    triple = [random_monotone_rank_valuation(3, 70 + j) for j in range(3)]
    model = tmp_path / "model.txt"
    write_model_of(triple, model)
    out = tmp_path / "vals.txt"
    assert main(["decode", "-i", str(model), "-o", str(out)]) == 0
    assert out.read_text() == dump_rank_blocks(triple)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "56e8345137020c1d1ed575f20965e4888ce8d016fd2be3c74fb2ab9949ea13d2"
    )


def test_verify_expect_none_passes_on_counterexample(counterexample_file, capsys):
    code = main(
        ["verify", "--vals", str(counterexample_file), "--expect-none", "--jobs", "1"]
    )
    assert code == 0
    assert "EFX count: 0 / 5796" in capsys.readouterr().out


def test_verify_scans_serially_by_default(counterexample_file, monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("verify started a worker pool")

    monkeypatch.setattr(verification, "Pool", no_pool)
    assert main(["verify", "--vals", str(counterexample_file)]) == 0
    assert "EFX count: 0 / 5796" in capsys.readouterr().out


def test_verify_expect_some_fails_on_counterexample(counterexample_file, capsys):
    code = main(
        ["verify", "--vals", str(counterexample_file), "--expect-some", "--jobs", "1"]
    )
    assert code == 1


def test_contradictory_expectations_are_a_usage_error(counterexample_file, capsys):
    argv = ["verify", "--vals", str(counterexample_file), "--expect-none", "--expect-some"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_reads_rank_and_value_blocks_alike(tmp_path, counterexample_file, capsys):
    values_file = tmp_path / "counterexample8_values.txt"
    values_file.write_text(dump_value_blocks([as_real(v) for v in load_bundled_counterexample()]))
    outputs = []
    for path in (counterexample_file, values_file):
        for flags in ([], ["--json"]):
            assert main(["verify", "--vals", str(path), "--jobs", "1", *flags]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


# sha256 of `submodular --agent 0/1/2` on the bundled counterexample
SUBMODULAR_DIGESTS = (
    "9a0f538b4197ebb586b83ff643cb36fbc81bb8746d9c525a761cd26683f0c264",
    "1e367eda5c2a8f74be9d9d51728033b5c960ac3a1a2d306d122befe40c2eeac3",
    "768930c7d67f9b2ecf6288e4383166b464f05137d72d22b47f8e78f319e989d8",
)


def test_submodular_dumps_are_pinned(tmp_path, counterexample_file):
    for agent, digest in enumerate(SUBMODULAR_DIGESTS):
        dump = tmp_path / f"dyadic{agent}.txt"
        assert main(["submodular", "--vals", str(counterexample_file), "--agent", str(agent), "-o", str(dump)]) == 0
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


def test_submodular_pipeline(tmp_path, counterexample_file, capsys):
    dump = tmp_path / "dyadic0.txt"
    assert main(["submodular", "--vals", str(counterexample_file), "--agent", "0", "-o", str(dump)]) == 0
    assert main(["check-submodular", "-i", str(dump)]) == 0
    assert "submodular" in capsys.readouterr().out


def test_check_submodular_rejects_with_witness(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    values = [0, 1, 1, 1, 1, 1, 1, 1000]
    bad.write_text("\n".join(f"{i} {v}" for i, v in enumerate(values)) + "\n")
    assert main(["check-submodular", "-i", str(bad)]) == 1
    assert "not submodular" in capsys.readouterr().out


def test_extend_then_verify_extended(tmp_path, counterexample_file, capsys):
    out = tmp_path / "extended.txt"
    assert main(["extend", "--vals", str(counterexample_file), "-n", "4", "-o", str(out)]) == 0
    extended = load_value_blocks(out.read_text())
    assert len(extended) == 4 and extended[0].m == 9


def test_solve3_prints_verified_tag(counterexample_file, capsys):
    assert main(["solve3", "--vals", str(counterexample_file), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tag"] in ("tEFX", "EF1&EEFX")
    assert len(payload["bundles"]) == 3


def test_solve3_text_lists_each_bundle_and_its_goods(counterexample_file, capsys):
    assert main(["solve3", "--vals", str(counterexample_file)]) == 0
    assert capsys.readouterr().out == (
        "tag: tEFX\n"
        "agent 0: bundle 6 (goods [1, 2])\n"
        "agent 1: bundle 73 (goods [0, 3, 6])\n"
        "agent 2: bundle 176 (goods [4, 5, 7])\n"
        "iterations: 1\n"
    )


@pytest.fixture()
def ef1_eefx_result(tmp_path, monkeypatch):
    """A valuation file whose solve3 run returns the confirmed EF1&EEFX exit of a final-case state.

    Every instance `solve_three` meets in the tests exits tEFX, so the exit is
    taken from `_dispatch` on the hand-built state and put in its place.
    """
    partition, vals = final_case_state_with_certificate()
    result = _confirmed(vals, *_dispatch(partition, vals), 1)
    monkeypatch.setattr(cli.three_agent, "solve_three", lambda valuations: result)
    path = tmp_path / "final_case.txt"
    path.write_text(dump_rank_blocks(vals))
    return path


def test_solve3_text_lists_each_ef1_eefx_certificate(ef1_eefx_result, capsys):
    assert main(["solve3", "--vals", str(ef1_eefx_result)]) == 0
    assert capsys.readouterr().out == (
        "tag: EF1&EEFX\n"
        "agent 0: bundle 1 (goods [0])\n"
        "agent 1: bundle 6 (goods [1, 2])\n"
        "agent 2: bundle 24 (goods [3, 4])\n"
        "iterations: 1\n"
        "certificate agent 0: parts [1, 6, 24]\n"
        "certificate agent 1: parts [6, 9, 16]\n"
        "certificate agent 2: parts [24, 0, 7]\n"
    )


def test_solve3_json_keys_ef1_eefx_certificates_by_agent(ef1_eefx_result, capsys):
    assert main(["solve3", "--vals", str(ef1_eefx_result), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "tag": "EF1&EEFX",
        "bundles": [1, 6, 24],
        "iterations": 1,
        "certificates": {"0": [1, 6, 24], "1": [6, 9, 16], "2": [24, 0, 7]},
    }


def test_smt_subcommand(tmp_path, capsys):
    out = tmp_path / "efx4.smt2"
    assert main(["smt", "-m", "4", "-o", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["disjuncts"] == 36
    assert "(set-logic QF_LRA)" in out.read_text()


M4_OPTS = EncodeOptions(4, 2, True)
M4_ARGV = ["encode", "-m", "4", "-k", "2", "--item-order"]
M4_COMMENT = "no-EFX encoding: m=4 level_k=2 item_order=True"


def m4_artifact() -> str:
    """What `M4_ARGV` writes: its comment line, then the formula."""
    return f"c {M4_COMMENT}\n" + write_dimacs(encode_formula(M4_OPTS))


@pytest.fixture()
def m4_cnf(tmp_path):
    path = tmp_path / "efx4.cnf"
    path.write_text(write_dimacs(encode_formula(M4_OPTS)))
    return path


def _preprocessed(path: Path) -> str:
    return write_dimacs(preprocess(parse_dimacs(path.read_text())).as_standalone_formula())


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, artifact, line, key, value",
    [
        pytest.param(
            M4_ARGV, lambda cnf: m4_artifact(),
            "total clauses: 711", "total_clauses", 711, id="encode",
        ),
        pytest.param(
            ["smt", "-m", "4"], lambda cnf: emit_smtlib(4)[0],
            "disjuncts: 36", "disjuncts", 36, id="smt",
        ),
        pytest.param(
            ["preprocess", "-i", "{cnf}", "-o", "-"], _preprocessed,
            "input_clauses: 711", "input_clauses", 711, id="preprocess",
        ),
    ],
)
def test_stdout_artifact_comes_without_its_report(m4_cnf, capsys, argv, artifact, line, key, value, as_json):
    argv = [arg.format(cnf=m4_cnf) for arg in argv]
    assert main([*argv, *(["--json"] if as_json else [])]) == 0
    captured = capsys.readouterr()
    assert captured.out == artifact(m4_cnf)
    if argv[0] != "smt":
        parse_dimacs(captured.out)
    if as_json:
        assert json.loads(captured.err)[key] == value
    else:
        assert line in captured.err.splitlines()


def test_encode_pipes_into_sat(monkeypatch, capsys):
    assert main(M4_ARGV) == 0
    monkeypatch.setattr("sys.stdin", stdin_from(capsys.readouterr().out.encode()))
    assert main(["sat", "-i", "-"]) == 0
    assert capsys.readouterr().out == "s UNSATISFIABLE\n"


OUTPUT_COMMANDS = {
    "encode": M4_ARGV,
    "preprocess": ["preprocess", "-i", "{cnf}"],
    "decode": ["decode", "-i", "{model}"],
    "submodular": ["submodular", "--vals", "{vals}", "--agent", "1"],
    "extend": ["extend", "--vals", "{vals}", "-n", "4"],
    "smt": ["smt", "-m", "4"],
}


@pytest.mark.parametrize("command", list(OUTPUT_COMMANDS))
def test_file_and_stdout_outputs_hold_the_same_artifact(tmp_path, m4_cnf, counterexample_file, capsys, command):
    model = tmp_path / "model.txt"
    write_model_of([random_monotone_rank_valuation(3, 70 + j) for j in range(3)], model)
    inputs = {"cnf": m4_cnf, "model": model, "vals": counterexample_file}
    argv = [arg.format(**inputs) for arg in OUTPUT_COMMANDS[command]]
    path = tmp_path / "artifact.txt"
    assert main([*argv, "-o", str(path)]) == 0
    to_file = capsys.readouterr()
    assert main([*argv, "-o", "-"]) == 0
    to_stdout = capsys.readouterr()
    assert to_stdout.out.encode() == path.read_bytes()
    assert (to_file.err, to_stdout.err) == ("", to_file.out)  # the report moves to stderr


@pytest.mark.parametrize("existing", [None, b"kept bytes\n"], ids=["new", "existing"])
def test_failing_command_leaves_its_output_path_as_it_was(tmp_path, capsys, existing):
    path = tmp_path / "left.cnf"
    if existing is not None:
        path.write_bytes(existing)
    assert main(["encode", "-m", "2", "-o", str(path)]) == 1
    assert "outside supported range" in capsys.readouterr().err
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing
    assert [child.name for child in tmp_path.iterdir()] == ([] if existing is None else ["left.cnf"])


def test_command_failing_mid_write_leaves_its_output_file_as_it_was(tmp_path, monkeypatch, capsys):
    def write_then_fail(opts, out, comments):
        out.write("p cnf 1 1\n")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "write_dimacs_stream", write_then_fail)
    path = tmp_path / "kept.cnf"
    path.write_bytes(b"kept bytes\n")
    assert main(["encode", "-m", "4", "-o", str(path)]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert path.read_bytes() == b"kept bytes\n"
    assert [child.name for child in tmp_path.iterdir()] == ["kept.cnf"]  # no kept.cnf.*.tmp


def test_successful_output_replaces_the_file_behind_a_link_and_keeps_its_mode(tmp_path, capsys):
    path, link = tmp_path / "efx4.cnf", tmp_path / "latest.cnf"
    path.write_text("c an older and longer file\n" * 2000)
    path.chmod(0o640)
    link.symlink_to(path.name)
    assert main([*M4_ARGV, "-o", str(link)]) == 0
    assert path.read_text() == m4_artifact()
    assert path.stat().st_mode & 0o777 == 0o640
    assert link.is_symlink()
    assert sorted(child.name for child in tmp_path.iterdir()) == ["efx4.cnf", "latest.cnf"]


def test_output_to_a_named_pipe_is_written_in_place(tmp_path, capsys):
    fifo = tmp_path / "efx4.pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # the artifact fits in the pipe's buffer
    try:
        assert main([*M4_ARGV, "-o", str(fifo)]) == 0
        artifact = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert artifact.decode() == m4_artifact()


def test_output_into_a_missing_directory_exits_two_naming_the_path(tmp_path, capsys):
    path = tmp_path / "missing" / "efx4.cnf"
    assert main([*M4_ARGV, "-o", str(path)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{path}'\n"


def _efxlab(*argv):
    """The command line that runs the CLI of this checkout in a fresh interpreter."""
    src = str(Path(efxlab.__file__).resolve().parents[1])
    run = f"import sys; sys.path.insert(0, {src!r}); from efxlab.cli import main; sys.exit(main())"
    return [sys.executable, "-c", run, *argv]


def test_closed_stdout_pipe_ends_quietly_with_exit_zero():
    # m=5 writes megabytes, far more than a pipe buffers, so the writer is
    # still writing when the reader closes the pipe after one line
    proc = subprocess.Popen(_efxlab("encode", "-m", "5"), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"c no-EFX encoding: m=5 level_k=None item_order=False\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_output_to_dev_stdout_goes_down_a_pipe():
    piped = subprocess.run(_efxlab("encode", "-m", "3", "-o", "/dev/stdout"), capture_output=True)
    dashed = subprocess.run(_efxlab("encode", "-m", "3", "-o", "-"), capture_output=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, dashed.stdout, dashed.stderr)
    assert piped.stdout.startswith(b"c no-EFX encoding: m=3") and b"total clauses: 729" in piped.stderr


@pytest.mark.parametrize("mode", ["w", "a"], ids=[">", ">>"])
def test_output_to_dev_stdout_goes_to_the_file_stdout_is_redirected_to(tmp_path, mode):
    """`> f` truncates f and `>> f` appends to it; the report goes to stderr either way."""
    dashed = subprocess.run(_efxlab("smt", "-m", "3", "-o", "-"), capture_output=True, check=True)
    path = tmp_path / "out.smt2"
    path.write_bytes(b"; an earlier line\n")
    with open(path, mode + "b") as stdout:
        proc = subprocess.run(
            _efxlab("smt", "-m", "3", "-o", "/dev/stdout"), stdout=stdout, stderr=subprocess.PIPE
        )
    kept = b"; an earlier line\n" if mode == "a" else b""
    assert (proc.returncode, proc.stderr) == (0, dashed.stderr)
    assert path.read_bytes() == kept + dashed.stdout
    assert [child.name for child in tmp_path.iterdir()] == ["out.smt2"]


def test_domain_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 00000000 1\n")
    assert main(["verify", "--vals", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("loader", ["rank", "value", "dyadic"])
def test_malformed_valuation_line_exits_one_naming_the_line(tmp_path, capsys, loader):
    v = THREE_GOODS
    path = tmp_path / "vals.txt"
    argv = ["verify", "--vals", str(path)]
    if loader == "rank":
        text, line, broken = dump_rank_blocks([v] * 3), 2, "1 001 x"
    elif loader == "value":
        text, line, broken = dump_value_blocks([as_real(v)] * 3), 3, "1 001"
    else:
        text, line, broken = dump_dyadic(RealValuation(3, tuple(range(8)))), 2, "1 x"
        argv = ["check-submodular", "-i", str(path)]
    lines = text.splitlines()
    lines[line - 1] = broken
    path.write_text("\n".join(lines) + "\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}:") and err.count("\n") == 1


def test_rank_file_with_a_short_first_line_exits_one_naming_it(tmp_path, capsys):
    lines = dump_rank_blocks([THREE_GOODS] * 3).splitlines()
    lines[0] = "0 000"
    path = tmp_path / "vals.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--vals", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 1: need 3 fields, got 2\n"


def test_encode_with_a_level_out_of_range_exits_one_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "out.cnf"
    assert main(["encode", "-m", "4", "-k", "6", "-o", str(path)]) == 1
    assert capsys.readouterr().err == "error: level threshold k=6 outside 0..5\n"
    assert list(tmp_path.iterdir()) == []


def test_encode_with_a_good_count_out_of_range_exits_one_and_writes_nothing(tmp_path, capsys):
    """`EncodeOptions` refuses m=17 when it is made, before the output is opened."""
    path = tmp_path / "out.cnf"
    assert main(["encode", "-m", "17", "-o", str(path)]) == 1
    assert capsys.readouterr().err == "error: good count m=17 outside supported range [3, 16]\n"
    assert list(tmp_path.iterdir()) == []


def test_io_errors_exit_two(tmp_path, capsys):
    assert main(["verify", "--vals", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "-m", "20"], ["encode", "-m", "2"], ["stats", "-m", "6", "-k", "20"],
        ["stats", "-m", "4", "--level", "9"], ["smt", "-m", "9"], ["sat", "-i", "{hard}", "--budget", "-5"],
    ],
)
def test_out_of_range_arguments_exit_one_with_one_error_line(small_inputs, argv, capsys):
    assert main([arg.format(**small_inputs) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def _value_block(values: tuple[int, ...]) -> str:
    """One generalized value block over 3 goods, written as text: a `RealValuation` refuses a
    malformed table when it is made, so the file cannot come from `dump_value_blocks`."""
    return "1 3\n" + "".join(f"{s} {s:03b} {value}\n" for s, value in enumerate(values))


@pytest.mark.parametrize(
    "argv, text, named",
    [
        pytest.param(
            ["verify", "--vals"], _value_block((1,) * 8),
            "empty set must have value 0", id="empty-set-valued",
        ),
        pytest.param(
            ["verify", "--vals"], _value_block((0, -1) + (0,) * 6),
            "values must be non-negative", id="negative-value",
        ),
        pytest.param(
            ["verify", "--vals"], _value_block((0, 2, 1, 3, 1, 1, 3, 4)),
            "error: subset 1 ranked at or above superset 5", id="value-block-not-monotone",
        ),
        pytest.param(
            ["verify", "--vals"], "".join(f"{s} {s:02b} {s}\n" for s in range(4)),
            "good count m=2", id="bitstring-width-2",
        ),
        pytest.param(["verify", "--vals"], f"0 {0:017b} 0\n", "good count m=17", id="bitstring-width-17"),
        pytest.param(
            ["verify", "--vals"], "".join(dump_rank_blocks([THREE_GOODS] * 3).splitlines(True)[:23]),
            "23 lines are not whole blocks of 8", id="partial-block",
        ),
        pytest.param(["verify", "--vals"], "", "no valuation lines", id="empty-file"),
        pytest.param(["decode", "-i"], "v 0\n", "good count m=0", id="decode-m0"),
        pytest.param(["decode", "-i"], "v 1 0\n", "no good count m has 1 comparison variables", id="decode-v1"),
        pytest.param(
            ["solve3", "--vals"], dump_rank_blocks([THREE_GOODS] * 2),
            "exactly three valuations required", id="solve3-two-blocks",
        ),
        pytest.param(
            ["extend", "-n", "4", "--vals"], dump_rank_blocks([THREE_GOODS] * 3),
            "base valuations must be over 8 goods", id="extend-m3",
        ),
        pytest.param(["check-submodular", "-i"], "0 0\n1 -5\n", "good count m=1", id="dyadic-m1"),
        pytest.param(
            ["check-submodular", "-i"], "".join(f"{s} {-5 if s == 6 else 0}\n" for s in range(8)),
            "values must be non-negative", id="dyadic-negative",
        ),
        pytest.param(
            ["check-submodular", "-i"], "".join(f"{s} {10 if s else 5}\n" for s in range(8)),
            "empty set must have value 0", id="dyadic-empty-set-valued",
        ),
        pytest.param(
            ["check-submodular", "-i"], "".join(f"{s} {100 - 10 * s.bit_count()}\n" for s in range(8)),
            "empty set must have value 0", id="dyadic-falling",
        ),
        pytest.param(
            ["check-submodular", "-i"], "".join(f"{s} {5 if s == 7 else 10 if s else 0}\n" for s in range(8)),
            "subset 3 ranked at or above superset 7", id="dyadic-not-monotone",
        ),
    ],
)
def test_invalid_values_and_counts_exit_one_with_one_error_line(tmp_path, capsys, argv, text, named):
    path = tmp_path / "input.txt"
    path.write_text(text)
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err
    assert captured.err.count("\n") == 1


def test_more_agents_than_goods_exits_one_with_one_error_line(tmp_path, capsys):
    v = as_real(random_monotone_rank_valuation(3, 9))
    path = tmp_path / "four_agents_three_goods.txt"
    path.write_text(dump_value_blocks([v] * 4))
    assert main(["verify", "--vals", str(path), "--jobs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need 1 <= agents <= goods, got n=4, m=3") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command,flags,named",
    [
        ("submodular", ["--agent", "3"], "agent 3 outside 0..2"),
        ("submodular", ["--agent", "-1"], "agent -1 outside 0..2"),
        ("extend", ["-n", "3"], "n >= 4 agents, got n=3"),
        ("extend", ["-n", "12"], "good count m=17"),
    ],
)
def test_out_of_range_counts_on_valuation_files_exit_one(counterexample_file, capsys, command, flags, named):
    assert main([command, "--vals", str(counterexample_file), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and err.count("\n") == 1


@pytest.mark.parametrize("budget", ["many"])
def test_bad_conflict_budget_is_a_usage_error(tmp_path, capsys, budget):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        main(["sat", "-i", str(cnf), "--budget", budget])
    assert exc.value.code == 2
    assert "argument --budget: invalid int value: 'many'" in capsys.readouterr().err


def test_zero_conflict_budget_is_accepted(tmp_path, capsys):
    cnf = tmp_path / "tiny.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    assert main(["sat", "-i", str(cnf), "--budget", "0"]) == 0
    assert "s SATISFIABLE" in capsys.readouterr().out


@pytest.mark.parametrize("command,jobs", [("verify", "0"), ("verify", "-3"), ("selfcheck", "0")])
def test_jobs_below_one_exit_one_with_one_error_line(counterexample_file, capsys, command, jobs):
    argv = ["verify", "--vals", str(counterexample_file)] if command == "verify" else ["selfcheck"]
    assert main([*argv, "--jobs", jobs]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need jobs >= 1, got {jobs}\n"


@pytest.mark.parametrize("flags,skipped", [(["--quick"], True), ([], False)])
def test_quick_selfcheck_skips_the_n6_extension(monkeypatch, capsys, flags, skipped):
    seen = []

    def record(jobs, skip):
        seen.append(skip)
        return iter(())

    monkeypatch.setattr(acceptance, "run_all", record)
    assert main(["selfcheck", *flags]) == 0
    assert ("extension-n6" in seen[0]) is skipped
    assert "extension-n6" in {c.key for c in acceptance.ALL_CHECKS}


def test_quick_selfcheck_output_is_pinned(capsys):
    assert main(["selfcheck", "--quick", "-v", "--jobs", "1"]) == 0
    masked = re.sub(r"\(\d+\.\ds\)$", "(N.Ns)", capsys.readouterr().out, flags=re.M)
    digest = hashlib.sha256(masked.encode()).hexdigest()
    assert digest == "01c0947d60c8205f2c14293ff1612802cb1138f7665928e9a722fa4cd2509cc4"


OPTION_STRINGS = {
    "encode": "-h --help -m -k --level --item-order -o --output --json",
    "stats": "-h --help -m -k --level --item-order --json",
    "preprocess": "-h --help -i --input --json -o --output",
    "sat": "-h --help -i --input --budget",
    "decode": "-h --help -i --input -o --output",
    "verify": "-h --help --vals --json --expect-none --expect-some --jobs",
    "submodular": "-h --help --vals -o --output --agent",
    "check-submodular": "-h --help -i --input",
    "extend": "-h --help --vals -o --output -n --agents",
    "solve3": "-h --help --vals --json",
    "smt": "-h --help -m -o --output --json",
    "selfcheck": "-h --help --quick --jobs -v --verbose",
}


def _subparsers():
    """Each subcommand's parser by name."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_each_subcommand_takes_its_option_strings():
    taken = {
        name: sorted(option for action in subparser._actions for option in action.option_strings)
        for name, subparser in _subparsers().items()
    }
    assert taken == {name: sorted(options.split()) for name, options in OPTION_STRINGS.items()}


# each integer option, after the arguments its command requires
INTEGER_OPTIONS = [
    pytest.param(["encode"], "-m", "m", id="encode-m"),
    pytest.param(["stats"], "-m", "m", id="stats-m"),
    pytest.param(["smt"], "-m", "m", id="smt-m"),
    pytest.param(["encode", "-m", "6"], "-k", "level", id="encode-k"),
    pytest.param(["stats", "-m", "6"], "-k", "level", id="stats-k"),
    pytest.param(["sat", "-i", "f.cnf"], "--budget", "budget", id="sat-budget"),
    pytest.param(["verify", "--vals", "v.txt"], "--jobs", "jobs", id="verify-jobs"),
    pytest.param(["selfcheck"], "--jobs", "jobs", id="selfcheck-jobs"),
    pytest.param(["submodular", "--vals", "v.txt"], "--agent", "agent", id="submodular-agent"),
    pytest.param(["extend", "--vals", "v.txt"], "-n", "agents", id="extend-n"),
]


@pytest.mark.parametrize("argv, option, dest", INTEGER_OPTIONS)
def test_integer_options_read_integers_as_files_do(capsys, argv, option, dest):
    assert getattr(build_parser().parse_args([*argv, option, "+3"]), dest) == 3
    for token in ("\u0661", "1_0", " 3"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, option, token])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid int value: {token!r}" in err and err.count("error:") == 1


def test_every_integer_option_is_in_the_table():
    declared = {
        (name, action.option_strings[0])
        for name, subparser in _subparsers().items()
        for action in subparser._actions
        if action.type is int
    }
    assert declared == {(param.values[0][0], param.values[1]) for param in INTEGER_OPTIONS}


def test_a_form_feed_ends_a_line_in_a_dimacs_file(tmp_path, capsys):
    cnf = tmp_path / "form_feed.cnf"
    cnf.write_text("c note\fp cnf 1 1\n1 0\n")
    assert main(["sat", "-i", str(cnf)]) == 0
    assert capsys.readouterr().out == "s SATISFIABLE\nv 1 0\n"


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line for line in readme.read_text().splitlines() if line.startswith("$ efxlab ")]
    assert lines
    parser = build_parser()
    for line in lines:
        for command in line[2:].split("#")[0].split("|"):  # each command of a pipe
            argv = shlex.split(command)
            assert argv[0] == "efxlab", line
            parser.parse_args(argv[1:])
