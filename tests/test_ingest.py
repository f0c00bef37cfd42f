import collections
import enum
import errno
import json
import os
import stat
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from objident import (
    ConfigError,
    InputOutputError,
    MergePolicy,
    ParseError,
    ValidationError,
    canonical_json,
    parse_components,
    parse_cut_spec,
    write_text_atomic,
)
from objident.ingest import (
    DendrogramFormat,
    InputKind,
    RunConfig,
    execute,
    read_text,
)

from conftest import FIXTURE_DIR


def components_text(**overrides):
    doc = {
        "subject_types": ["stack"],
        "components": [
            {"name": "f", "returns": "stack", "args": [], "uses_fields": []},
            {"name": "g", "returns": None, "args": ["stack"], "uses_fields": ["stack"]},
        ],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_components_fixture(stacks):
    subjects, records = parse_components((FIXTURE_DIR / "stacks.json").read_text())
    assert subjects == ("execstack", "refstack")
    assert [r.name for r in records] == list(stacks.pattern.row_labels)


def test_parse_components_defaults_optional_fields():
    text = json.dumps({"subject_types": ["t"], "components": [{"name": "f"}]})
    _, records = parse_components(text)
    assert records[0].returns is None
    assert records[0].args == ()
    assert records[0].uses_fields == frozenset()


@pytest.mark.parametrize("text,fragment", [
    ("[1, 2]", "top-level object"),
    ("{}", "missing required key"),
    (components_text(subject_types=[]), "non-empty"),
    (components_text(subject_types=["a", "a"]), "unique"),
    (components_text(subject_types=["int"]), "subject_types: 'int' is a primitive type"),
    (components_text(subject_types=["stack", "void"]),
     "subject_types: 'void' is a primitive type"),
    (components_text(components=[]), "non-empty"),
    (components_text(extra=1), "unknown top-level key"),
    (components_text(components=[{"name": "f", "nope": 1}]), "unknown key"),
    (components_text(components=[{"returns": "x"}]), "missing or empty 'name'"),
    (components_text(components=[{"name": "f"}, {"name": "f"}]), "duplicate component"),
    (components_text(components=[{"name": "f", "returns": 3}]), "'returns'"),
    (components_text(components=[{"name": "f", "args": [1]}]), "non-empty strings"),
    (components_text(components=[{"name": "f", "uses_fields": ["heap"]}]),
     "unknown subject type"),
])
def test_parse_components_schema_violations(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_components(text)
    assert fragment in str(info.value)


def test_parse_components_locates_bad_entry():
    text = components_text(components=[
        {"name": "f"}, {"name": "g", "uses_fields": ["heap"]}])
    with pytest.raises(ParseError) as info:
        parse_components(text)
    assert "components[1].uses_fields" in str(info.value)


def test_parse_components_invalid_json_has_position():
    with pytest.raises(ParseError) as info:
        parse_components('{"subject_types": [,]}')
    assert info.value.line == 1
    assert info.value.column is not None


def test_canonical_json_roundtrip_on_fixture():
    text = (FIXTURE_DIR / "stacks.json").read_text()
    assert canonical_json(json.loads(text)) == text


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text())
json_keys = st.text() | st.integers() | st.floats() | st.booleans() | st.none()
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner) | st.lists(st.text()) | st.tuples(inner, inner)
                   | st.dictionaries(json_keys, inner)),
    max_leaves=40)


@given(json_values, st.dictionaries(json_keys, json_scalars))
def test_canonical_json_matches_json_dumps(value, shared):
    # ``shared`` is one dict object at several depths and twice in one list,
    # the case whose rendered text the writer reuses.
    for doc in (value, {"value": value, "shared": shared,
                        "deeper": [[shared, value, shared], [shared, shared]]}):
        assert canonical_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_canonical_json_rejects_cycles():
    looped = [1, {"a": []}]
    looped[1]["a"].append(looped)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_json(looped)
    itself: dict = {}
    itself["x"] = itself
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_json(itself)
    within: list = []
    within.append(within)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_json(within)


def test_canonical_json_nests_lists_past_the_recursion_limit():
    depth = 5000
    doc: list = []
    for _ in range(depth):
        doc = [doc]
    lines = ["  " * level + "[" for level in range(depth)]
    lines += ["  " * depth + "[]"] + ["  " * level + "]" for level in reversed(range(depth))]
    assert canonical_json(doc) == "\n".join(lines) + "\n"


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


Point = collections.namedtuple("Point", "x y")


@pytest.mark.parametrize("doc", [
    Colour.RED,
    [Colour.RED, 2, [Colour.RED]],
    {Colour.RED: Colour.RED, "flat": {Colour.RED: 0}, "list": [{Colour.RED: 1}]},
    Name("n\u00e9\n"),
    [Name("a"), "b", [Name("c")]],
    {Name("k"): Name("v"), "nested": {Name("k"): [Name("v")]}},
    [1, Point(2, 3), [Point(4, [5])]],
    collections.OrderedDict(a=Point(1, 2), b=collections.OrderedDict(c=[Point(3, 4)])),
])
def test_canonical_json_matches_json_dumps_on_subclasses(doc):
    assert canonical_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def test_parse_cut_spec():
    assert parse_cut_spec("k:3") == ("k", 3)
    assert parse_cut_spec("h:1.5") == ("h", Fraction(3, 2))
    for bad in ("k", "q:3", "k:x", "k:0", "k:-2", "h:tall", "h:-1", "3"):
        with pytest.raises(ConfigError):
            parse_cut_spec(bad)


def test_report_requires_cut(tmp_path):
    with pytest.raises(ConfigError, match="requires --cut"):
        RunConfig(input_path=FIXTURE_DIR / "stacks.json",
                  input_kind=InputKind.COMPONENTS,
                  report_path=tmp_path / "report.json")


def test_read_text_missing_file(tmp_path):
    with pytest.raises(InputOutputError):
        read_text(tmp_path / "absent.json")


def test_write_text_atomic_leaves_no_partial_file(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("x")
    target = blocker / "out.txt"
    with pytest.raises(InputOutputError):
        write_text_atomic(target, "data")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == [blocker]


def test_write_text_atomic_writes_and_replaces(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(target, "one")
    write_text_atomic(target, "two")
    assert target.read_text() == "two"
    assert list(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_write_text_atomic_mode_follows_umask(tmp_path, umask):
    # The same mode a plain open(path, "w") gives a new file.
    old = os.umask(umask)
    try:
        write_text_atomic(tmp_path / "out.txt", "data")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o666 & ~umask


def stacks_config(tmp_path, **kwargs):
    return RunConfig(input_path=FIXTURE_DIR / "stacks.json",
                     input_kind=InputKind.COMPONENTS,
                     policy=MergePolicy.PAPER_REPRO, **kwargs)


def test_execute_writes_requested_outputs(tmp_path, capsys):
    config = stacks_config(
        tmp_path,
        cut=("k", 2),
        trace_path=tmp_path / "trace.json",
        dendrogram_path=tmp_path / "tree.txt",
        report_path=tmp_path / "report.json",
    )
    execute(config)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert len(trace["rounds"]) == 4
    assert trace["report"]["entries"][0]["dominant_subject"] == "refstack"
    assert "C7  2.00" in (tmp_path / "tree.txt").read_text()
    report = json.loads((tmp_path / "report.json").read_text())
    assert [e["dominant_subject"] for e in report["entries"]] == [
        "refstack", "execstack"]
    out = capsys.readouterr().out
    assert "round 4 @ 2.00: C7 = C5 + C6" in out
    assert "cut k:2 -> 2 group(s)" in out


def test_execute_dot_and_structured_formats(tmp_path):
    for fmt, probe in ((DendrogramFormat.DOT, "digraph dendrogram"),
                       (DendrogramFormat.STRUCTURED, '"rounds"')):
        path = tmp_path / f"tree.{fmt.value}"
        execute(stacks_config(tmp_path, dendrogram_path=path,
                              dendrogram_format=fmt))
        assert probe in path.read_text()


def test_execute_warns_when_declarations_lack_uses(tmp_path, capsys):
    decls = tmp_path / "bare.decls"
    decls.write_text("%types stack queue\n"
                     "struct stack * initStack (int size)\n"
                     "int pop (struct stack * s)\n"
                     "void enQ (struct queue * q, int i)\n")
    config = RunConfig(input_path=decls, input_kind=InputKind.DECLARATIONS,
                       trace_path=tmp_path / "trace.json")
    execute(config)
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "annotations" in captured.err
    trace = json.loads((tmp_path / "trace.json").read_text())
    uses_cols = [4, 5]
    for row in trace["pattern_matrix"]["rows"]:
        assert all(row[c] == 0 for c in uses_cols)


def test_execute_raises_categorised_errors(tmp_path):
    missing = RunConfig(input_path=tmp_path / "absent.json",
                        input_kind=InputKind.COMPONENTS)
    with pytest.raises(InputOutputError) as info:
        execute(missing)
    assert (info.value.category, info.value.exit_code) == ("io", 5)

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(ParseError) as info:
        execute(RunConfig(input_path=bad, input_kind=InputKind.COMPONENTS))
    assert (info.value.category, info.value.exit_code) == ("parse", 3)

    with pytest.raises(ValidationError) as info:
        execute(stacks_config(tmp_path, cut=("k", 99)))
    assert (info.value.category, info.value.exit_code) == ("validation", 4)


def test_execute_failure_writes_nothing(tmp_path, capsys):
    target = tmp_path / "trace.json"
    config = stacks_config(tmp_path, cut=("k", 99), trace_path=target)
    with pytest.raises(ValidationError):
        execute(config)
    assert not target.exists()


@pytest.mark.parametrize("blocked", ["parent is a file", "path is a directory",
                                     "path is a FIFO"])
def test_unwritable_report_leaves_no_other_output(tmp_path, capsys, blocked):
    blocker = tmp_path / "blocker"
    if blocked == "parent is a file":
        blocker.write_text("x")
        report = blocker / "report.json"
    elif blocked == "path is a directory":
        blocker.mkdir()
        report = blocker
    else:
        os.mkfifo(blocker)
        report = blocker
    config = stacks_config(tmp_path, cut=("k", 2),
                           trace_path=tmp_path / "t.json",
                           dendrogram_path=tmp_path / "tree.txt",
                           report_path=report)
    with pytest.raises(InputOutputError) as info:
        execute(config)
    assert info.value.exit_code == 5
    if blocked == "path is a FIFO":
        # A rename would have replaced the FIFO with a regular file.
        assert "not a regular file" in str(info.value)
        assert stat.S_ISFIFO(os.stat(blocker).st_mode)
    assert list(tmp_path.iterdir()) == [blocker]
    assert capsys.readouterr().out == ""


def test_failed_run_removes_the_directories_it_made(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    kept = tmp_path / "kept"
    kept.mkdir()
    config = stacks_config(tmp_path, cut=("k", 2),
                           trace_path=kept / "sub" / "deeper" / "t.json",
                           dendrogram_path=blocker / "x")
    with pytest.raises(InputOutputError) as info:
        execute(config)
    assert "File exists" in str(info.value)
    assert sorted(tmp_path.iterdir()) == [blocker, kept]
    assert list(kept.iterdir()) == []
    assert capsys.readouterr().out == ""


def test_failed_summary_is_io_error_after_complete_outputs(tmp_path):
    class BrokenOut:
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        def flush(self):
            pass

    trace = tmp_path / "trace.json"
    with pytest.raises(InputOutputError) as info:
        execute(stacks_config(tmp_path, cut=("k", 2), trace_path=trace), out=BrokenOut())
    assert (info.value.category, info.value.exit_code) == ("io", 5)
    assert "cannot write the summary to stdout" in str(info.value)
    json.loads(trace.read_text())


def test_execute_is_byte_deterministic(tmp_path):
    outputs = []
    for attempt in ("first", "second"):
        base = tmp_path / attempt
        config = stacks_config(
            tmp_path,
            cut=("k", 2),
            trace_path=base / "trace.json",
            dendrogram_path=base / "tree.dot",
            dendrogram_format=DendrogramFormat.DOT,
            report_path=base / "report.json",
        )
        execute(config)
        outputs.append(tuple((base / name).read_bytes()
                             for name in ("trace.json", "tree.dot", "report.json")))
    assert outputs[0] == outputs[1]
