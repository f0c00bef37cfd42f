import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from objident import __version__
from objident.cli import main

from conftest import FIXTURE_DIR

STACKS = str(FIXTURE_DIR / "stacks.json")
STACKS_DECLS = str(FIXTURE_DIR / "stacks.decls")


def cluster_args(tmp_path, *extra):
    return ["cluster", "--input", STACKS, "--kind", "components",
            "--policy", "paper", *extra,
            "--trace", str(tmp_path / "trace.json")]


def test_full_run_with_report(tmp_path, capsys):
    code = main(cluster_args(
        tmp_path, "--cut", "k:2",
        "--report", str(tmp_path / "report.json"),
        "--dendrogram", str(tmp_path / "tree.txt")))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["dominant_subject"] for e in report["entries"]] == [
        "refstack", "execstack"]
    assert [e["affinity"] for e in report["entries"]] == [
        {"num": 1, "den": 1}, {"num": 1, "den": 1}]
    assert "C7  2.00" in (tmp_path / "tree.txt").read_text()
    out = capsys.readouterr().out
    assert "C5: initRef, isEmptyRef, rPush, rPop, traRef" in out


def test_repeated_runs_byte_identical(tmp_path, capsys):
    blobs = []
    for sub in ("a", "b"):
        base = tmp_path / sub
        code = main(["cluster", "--input", STACKS, "--kind", "components",
                     "--policy", "paper", "--cut", "h:1.0",
                     "--trace", str(base / "t.json"),
                     "--dendrogram", str(base / "d.json"),
                     "--format", "structured",
                     "--report", str(base / "r.json")])
        assert code == 0
        blobs.append([(base / n).read_bytes() for n in ("t.json", "d.json", "r.json")])
    assert blobs[0] == blobs[1]
    # The trace and the structured dendrogram are the same document.
    assert blobs[0][0] == blobs[0][1]


def test_declarations_input(tmp_path, capsys):
    code = main(["cluster", "--input", STACKS_DECLS, "--kind", "decls",
                 "--metric", "Euclidean", "--policy", "paper",
                 "--trace", str(tmp_path / "trace.json")])
    assert code == 0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert [r["min_display"] for r in trace["rounds"]] == [
        "0.00", "1.00", "1.00", "2.00"]


def test_parse_subcommand_matches_canonical_fixture(tmp_path, capsys):
    out = tmp_path / "components.json"
    assert main(["parse", "--decls", STACKS_DECLS, "--out", str(out)]) == 0
    assert out.read_bytes() == (FIXTURE_DIR / "stacks.json").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"objident {__version__}"


def test_missing_input_is_io_error(tmp_path, capsys):
    code = main(["cluster", "--input", str(tmp_path / "absent.json"),
                 "--kind", "components"])
    assert code == 5
    assert "error[io]" in capsys.readouterr().err


def test_unknown_metric_is_config_error(tmp_path, capsys):
    code = main(cluster_args(tmp_path, "--metric", "cosine"))
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_bad_cut_spec_is_config_error(tmp_path, capsys):
    code = main(cluster_args(tmp_path, "--cut", "q:2"))
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_report_without_cut_is_config_error(tmp_path, capsys):
    code = main(cluster_args(tmp_path, "--report", str(tmp_path / "r.json")))
    assert code == 2
    assert "error[config]" in capsys.readouterr().err


def test_malformed_declarations_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.decls"
    bad.write_text("int ok (int n)\nfloat nope (int n)\n")
    code = main(["cluster", "--input", str(bad), "--kind", "decls"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error[parse]" in err
    assert "line 2" in err


def test_undeclared_uses_name_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.decls"
    proto = "struct stack * mk (int n) ! uses: queue"
    bad.write_text(f"%types stack\n{proto}\n")
    code = main(["cluster", "--input", str(bad), "--kind", "decls"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error[parse]" in err
    assert f"line 2, column {proto.index('queue') + 1}" in err


@pytest.mark.parametrize("first, second", [
    (("--trace", "o.json"), ("--report", "o.json")),
    (("--trace", "t.json"), ("--dendrogram", "./t.json")),
])
def test_two_outputs_on_one_path_is_config_error(tmp_path, monkeypatch, capsys,
                                                 first, second):
    # The input does not exist, so exit 2 rather than 5 shows the clash is
    # refused before the input is read.
    monkeypatch.chdir(tmp_path)
    code = main(["cluster", "--input", "absent.json", "--kind", "components",
                 "--cut", "k:2", *first, *second])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error[config]: {first[0]} and {second[0]} name the same file" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("size", ["0", "-3"])
def test_cut_size_below_one_is_config_error(tmp_path, monkeypatch, capsys, size):
    # The input does not exist, so exit 2 rather than 5 shows the size is
    # refused before the input is read.
    monkeypatch.chdir(tmp_path)
    code = main(["cluster", "--input", "absent.json", "--kind", "components",
                 "--cut", f"k:{size}", "--trace", "t.json", "--report", "r.json"])
    assert code == 2
    assert "error[config]: cut size must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_linkage_flag(tmp_path, capsys):
    assert main(cluster_args(tmp_path, "--linkage", "complete")) == 2
    assert "error[config]" in capsys.readouterr().err
    assert main(cluster_args(tmp_path, "--linkage", "SINGLE")) == 0
    assert "linkage: single" in capsys.readouterr().out


def test_cut_out_of_range_is_validation_error(tmp_path, capsys):
    code = main(cluster_args(tmp_path, "--cut", "k:40"))
    assert code == 4
    assert "error[validation]" in capsys.readouterr().err


@pytest.mark.parametrize("name, data, offset", [
    ("bad.json", b"\xff\xfe{}", 0),
    ("bad.decls", b"%types s\nint f\xe9 (int n)\n", 14),
])
@pytest.mark.parametrize("command", ["cluster", "parse"])
def test_undecodable_input_is_parse_error(tmp_path, capsys, name, data, offset, command):
    bad = tmp_path / name
    bad.write_bytes(data)
    out = tmp_path / "out"
    if command == "cluster":
        kind = "components" if name.endswith(".json") else "decls"
        argv = ["cluster", "--input", str(bad), "--kind", kind, "--trace", str(out)]
    else:
        argv = ["parse", "--decls", str(bad), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"error[parse]: {bad}: not UTF-8: cannot decode byte 0x{data[offset]:02x} " \
           f"at byte offset {offset}" in err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("text, message", [
    ("[" * 200000, "nested too deeply"),
    ('{"a": ' * 3000 + "1" + "}" * 3000, "nested too deeply"),
    ('{"subject_types": [' + "1" * 5000 + "]}", "a number is too long"),
])
def test_unreadable_json_is_parse_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = main(["cluster", "--input", str(bad), "--kind", "components",
                 "--trace", str(tmp_path / "t.json")])
    assert code == 3
    assert f"error[parse]: document: invalid JSON: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("text, message", [
    ("int g(int a)\n", "line 1: no subject type"),
    ("", "line 1: expected a function prototype, found end of input"),
])
@pytest.mark.parametrize("command", ["cluster", "parse"])
def test_declarations_without_subject_or_prototype_is_parse_error(tmp_path, capsys, text,
                                                                 message, command):
    bad = tmp_path / "bad.decls"
    bad.write_text(text)
    out = tmp_path / "out"
    if command == "cluster":
        argv = ["cluster", "--input", str(bad), "--kind", "decls", "--trace", str(out)]
    else:
        argv = ["parse", "--decls", str(bad), "--out", str(out)]
    assert main(argv) == 3
    assert f"error[parse]: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bad]


def test_closed_stdout_is_io_error_after_complete_outputs(tmp_path, capsys):
    # The read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE whatever the timing.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        child = subprocess.run(
            [sys.executable, "-m", "objident.cli", *cluster_args(tmp_path / "child")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert child.returncode == 5
    assert child.stderr == "error[io]: cannot write the summary to stdout: Broken pipe\n"
    assert main(cluster_args(tmp_path / "parent")) == 0
    assert ((tmp_path / "child" / "trace.json").read_bytes()
            == (tmp_path / "parent" / "trace.json").read_bytes())
