import gc
import json
import os
import subprocess
import sys
import time
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


@pytest.mark.parametrize("height", ["1/0", "1e999999999", "1e-999999999", "1e4300",
                                    "1_0", "1e1_0"])
def test_unusable_cut_height_is_config_error_at_once(tmp_path, capsys, height):
    # An exponent is bounded before its power of ten is built, a height the
    # summary could not print (10**4300 has 4,301 digits) is refused, and so
    # is a "_", which Fraction reads only from Python 3.11 on.
    start = time.perf_counter()
    code = main(cluster_args(tmp_path, "--cut", f"h:{height}"))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert f"error[config]: invalid cut height '{height}'" in capsys.readouterr().err
    assert not (tmp_path / "trace.json").exists()


def test_cut_height_at_the_digit_limit_runs(tmp_path, capsys):
    assert main(cluster_args(tmp_path, "--cut", "h:1e4299")) == 0
    assert "cut h:1" + "0" * 4299 + " -> 1 group(s)" in capsys.readouterr().out


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


@pytest.mark.parametrize("flag", ["--trace", "--dendrogram", "--report"])
def test_output_naming_the_input_is_config_error(tmp_path, monkeypatch, capsys, flag):
    monkeypatch.chdir(tmp_path)
    corpus = tmp_path / "c.json"
    corpus.write_bytes(Path(STACKS).read_bytes())
    code = main(["cluster", "--input", "c.json", "--kind", "components",
                 "--cut", "k:2", flag, "./c.json"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error[config]: --input and {flag} name the same file 'c.json'" in err
    assert corpus.read_bytes() == Path(STACKS).read_bytes()
    assert list(tmp_path.iterdir()) == [corpus]


def test_parse_output_naming_the_input_is_config_error(tmp_path, capsys):
    decls = tmp_path / "f.decls"
    decls.write_bytes(Path(STACKS_DECLS).read_bytes())
    link = tmp_path / "link.decls"
    link.symlink_to(decls)
    assert main(["parse", "--decls", str(decls), "--out", str(link)]) == 2
    err = capsys.readouterr().err
    assert f"error[config]: --decls and --out name the same file {str(link)!r}" in err
    assert decls.read_bytes() == Path(STACKS_DECLS).read_bytes()
    assert sorted(tmp_path.iterdir()) == [decls, link]


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


def test_repeated_key_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"subject_types": ["stack"], '
                   '"components": [{"name": "f", "uses_fields": [], "name": "g"}]}')
    code = main(["cluster", "--input", str(bad), "--kind", "components",
                 "--trace", str(tmp_path / "t.json")])
    assert code == 3
    assert "error[parse]: document: repeated key 'name'" in capsys.readouterr().err
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


def test_import_loads_neither_dataclasses_nor_inspect():
    root = Path(__file__).resolve().parent.parent
    child = subprocess.run(
        [sys.executable, str(root / "tests" / "check_imports.py")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert (child.returncode, child.stderr) == (0, "")


# The command line's ``main`` in a fresh interpreter, then, on the last line
# of stdout, its exit code (argparse's included) and the ``objident``
# modules the run loaded.
LOAD_SET = ("import sys\n"
            "from objident.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('objident')))\n")
COMPONENTS = ["cluster", "--input", STACKS, "--kind", "components"]
DECLS = ["cluster", "--input", STACKS_DECLS, "--kind", "decls"]
START_UP = ["objident", "objident.cli", "objident.errors"]
PIPELINE = START_UP + ["objident.dendrogram", "objident.engine", "objident.features",
                       "objident.ingest", "objident.metrics", "objident.report"]


def fresh_python(cwd, *args):
    """A fresh interpreter over ``args``, importing objident from ``src/``."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


def load_set(tmp_path, argv):
    return fresh_python(tmp_path, "-c", LOAD_SET, *argv)


@pytest.mark.parametrize("argv, loaded", [
    (COMPONENTS + ["--cut", "k:2", "--report", "r.json", "--dendrogram", "tree.txt"], []),
    (COMPONENTS + ["--dendrogram", "tree.dot", "--format", "dot"], []),
    (DECLS + ["--dendrogram", "tree.txt"], ["objident.declarations"]),
    (["parse", "--decls", STACKS_DECLS, "--out", "stacks.json"], ["objident.declarations"]),
    (COMPONENTS + ["--trace", "trace.json"], ["objident.document"]),
    (COMPONENTS + ["--dendrogram", "tree.json", "--format", "structured"],
     ["objident.document"]),
])
def test_each_run_loads_only_the_modules_it_uses(tmp_path, argv, loaded):
    child = load_set(tmp_path, argv)
    assert child.stderr == ""
    assert child.stdout.splitlines()[-1] == f"0 {sorted(PIPELINE + loaded)}"


@pytest.mark.parametrize("tree_format", ["structured", "dot"])
def test_format_without_dendrogram_is_config_error(tmp_path, tree_format):
    # Refused before any pipeline module is imported or the input is read.
    child = load_set(tmp_path, COMPONENTS + ["--format", tree_format])
    assert child.stderr == ("error[config]: --format requires --dendrogram "
                            "(it is the format of that file)\n")
    assert child.stdout.splitlines()[-1] == f"2 {START_UP}"


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["cluster", "--kind", "components"], 2),
])
def test_start_up_loads_no_pipeline_module(tmp_path, argv, code):
    child = load_set(tmp_path, argv)
    assert child.stdout.splitlines()[-1] == f"{code} {START_UP}"
    if code:
        assert child.stderr.endswith(
            "error: the following arguments are required: --input\n")
    else:
        assert child.stderr == ""


def run_cli(cwd, argv):
    """``python -m objident.cli`` over ``argv`` in a fresh interpreter, so
    through ``cli.run``."""
    return fresh_python(cwd, "-m", "objident.cli", *argv)


def test_entry_point_exits_with_mains_code_and_streams(tmp_path):
    child = run_cli(tmp_path, ["--version"])
    assert (child.returncode, child.stdout, child.stderr) == (0, f"objident {__version__}\n", "")
    child = run_cli(tmp_path, ["--help"])
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith("usage: objident")
    child = run_cli(tmp_path, ["cluster", "--kind", "components"])
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.endswith("error: the following arguments are required: --input\n")
    child = run_cli(tmp_path, COMPONENTS + ["--metric", "nope"])
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.startswith("error[config]: unknown metric 'nope'")
    absent = tmp_path / "absent.json"
    child = run_cli(tmp_path, ["cluster", "--input", str(absent), "--kind", "components"])
    assert (child.returncode, child.stdout) == (5, "")
    assert child.stderr.startswith(f"error[io]: cannot read {absent}: ")
    assert list(tmp_path.iterdir()) == []


def test_entry_point_run_matches_main_in_process(tmp_path, capsys):
    def argv(base):
        return COMPONENTS + ["--cut", "k:2", "--report", str(base / "report.json"),
                             "--dendrogram", str(base / "tree.txt")]

    child = run_cli(tmp_path, argv(tmp_path / "child"))
    assert (child.returncode, child.stderr) == (0, "")
    assert main(argv(tmp_path / "parent")) == 0
    assert child.stdout == capsys.readouterr().out
    for name in ("report.json", "tree.txt"):
        assert ((tmp_path / "child" / name).read_bytes()
                == (tmp_path / "parent" / name).read_bytes())


def test_main_in_process_freezes_nothing(tmp_path, capsys):
    frozen = gc.get_freeze_count()
    assert main(cluster_args(tmp_path, "--cut", "k:2",
                             "--report", str(tmp_path / "report.json"))) == 0
    assert main(COMPONENTS + ["--metric", "nope"]) == 2
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == frozen


# ``cli.run`` over the arguments, then, from an ``atexit`` handler (which
# runs after ``run`` has left), whether anything was frozen.
FREEZE_PROBE = ("import atexit, gc\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                "from objident.cli import run\n"
                "run()\n")


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["cluster", "--kind", "components"], 2),
    (["cluster", "--input", "absent.json", "--kind", "components"], 5),
    (COMPONENTS + ["--cut", "k:2", "--report", "report.json"], 0),
])
def test_entry_point_freezes_on_every_way_out(tmp_path, argv, code):
    child = fresh_python(tmp_path, "-c", FREEZE_PROBE, *argv)
    assert (child.returncode, child.stdout.splitlines()[-1]) == (code, "frozen True")


def test_console_script_is_run():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip() == 'objident = "objident.cli:run"'
