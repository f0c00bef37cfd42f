"""Every input text or file ends in records or an ``ObjidentError``.

The parsers and the file reader take input from outside the program, so no
input may end in any other exception: not a ``UnicodeDecodeError`` from
bytes that are not UTF-8, not a ``RecursionError`` from JSON nested deeper
than the interpreter's recursion limit, and not the ``ValueError`` of a
JSON number with more digits than ``int()`` converts.  And whatever
``parse_declarations`` returns converts to a components document that
``parse_components`` reads back unchanged.  The command line, given any
corpus and any mix of flags, exits 0 or with an ``error[<category>]`` line
and its exit code, and a failed run leaves the directory as it found it.
"""

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from objident import (
    ObjidentError,
    canonical_json,
    components_document,
    parse_components,
    parse_declarations,
)
from objident.cli import main
from objident.ingest import read_text

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)
component_keys = st.sampled_from(["name", "returns", "args", "uses_fields", "other"])
names = st.sampled_from(["s", "t", "int", "f", "g", ""])

# Text shaped like a components document, so the fuzzing gets past the JSON
# grammar into the schema checks, or nests past the recursion limit.
components_like = (
    st.fixed_dictionaries({
        "subject_types": st.lists(names, max_size=3) | json_values,
        "components": st.lists(st.dictionaries(
            component_keys, names | st.lists(names, max_size=3) | json_values),
            max_size=4) | json_values,
    }).map(json.dumps)
    | st.builds(lambda opener, depth, tail: opener * depth + tail,
                st.sampled_from(["[", '{"a": ', '{"components": [', "1"]),
                st.integers(1000, 6000), st.text(max_size=4)))

# Lines made of the declaration grammar's pieces and a little noise.
declaration_like = st.lists(
    st.lists(st.sampled_from([
        "%types", "struct", "s", "t", "*", "int", "void", "f", "g", "(", ")",
        ",", "!", "uses:", "#", "p", "\t", "é",
    ]) | st.text(max_size=3), max_size=10).map(" ".join),
    max_size=6).map("\n".join)

# Files of well-formed lines, many of which parse.
c_types = st.sampled_from(["void", "int", "struct s", "struct t *", "struct int"])
prototypes = st.builds(
    lambda returns, name, params, uses: (
        f"{returns} {name} ({', '.join(f'{t} p{i}' for i, t in enumerate(params))})"
        + (f" ! uses: {', '.join(uses)}" if uses else "")),
    c_types, st.sampled_from(["f", "g", "h"]), st.lists(c_types, max_size=3),
    st.lists(st.sampled_from(["s", "t"]), max_size=2, unique=True))
declaration_files = st.lists(
    prototypes | st.sampled_from(["%types s t", "%types int", "# note", ""]),
    max_size=4).map("\n".join)


def records_or_error(parse, text):
    try:
        subjects, records = parse(text)
    except ObjidentError:
        return
    assert isinstance(subjects, tuple) and isinstance(records, tuple)


@FUZZ
@given(st.text() | components_like)
def test_parse_components_ends_in_records_or_error(text):
    records_or_error(parse_components, text)


@FUZZ
@given(st.text() | declaration_like)
def test_parse_declarations_ends_in_records_or_error(text):
    records_or_error(parse_declarations, text)


@FUZZ
@given(declaration_files | declaration_like)
def test_parsed_declarations_convert_to_a_readable_document(text):
    # What `objident parse` writes, `cluster --kind components` must read.
    try:
        subjects, records = parse_declarations(text)
    except ObjidentError:
        return
    document = canonical_json(components_document(subjects, records))
    assert parse_components(document) == (subjects, records)


@FUZZ
@given(st.binary() | st.text().map(str.encode))
def test_read_text_ends_in_text_or_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-input"
    path.write_bytes(data)
    try:
        text = read_text(path)
    except ObjidentError as exc:
        assert "byte offset" in str(exc)
        return
    assert text == path.read_text(encoding="utf-8")


# Small components documents, most of which pass the schema checks.
def documents_over(subjects):
    subject = st.sampled_from(subjects)
    return st.fixed_dictionaries({
        "subject_types": st.just(subjects),
        "components": st.lists(st.fixed_dictionaries({
            "name": st.sampled_from(["f", "g", "h", "i", "j", "k"]),
            "returns": st.none() | subject,
            "args": st.lists(subject | st.just("int"), max_size=3),
            "uses_fields": st.lists(subject, max_size=2, unique=True),
        }), min_size=2, max_size=6, unique_by=lambda component: component["name"]),
    })


components_documents = st.lists(st.sampled_from(["s", "t", "u"]), min_size=1, max_size=3,
                                unique=True).flatmap(documents_over).map(json.dumps)

corpora = (st.tuples(st.just("components"), components_documents)
           | st.tuples(st.just("decls"), declaration_files)
           | st.tuples(st.sampled_from(["components", "decls"]),
                       components_like | declaration_like | st.text()))


def flag(name, *values):
    """The flag with one of ``values``, or nothing for None."""
    return st.sampled_from(values).map(lambda value: [] if value is None else [name, value])


cli_options = st.tuples(
    flag("--metric", None, "euclidean", "manhattan", "SMC", "jaccard", "cosine"),
    flag("--policy", None, "sequential", "paper", "PAPER"),
    flag("--cut", None, "k:1", "k:2", "k:3", "h:0", "h:0.5", "h:1.25", "k:0", "h:-1.5"),
    flag("--format", None, "ascii", "dot", "structured"),
)
# Relative to the run's directory, which holds the input "in" and the
# directory "d"; a failed run must leave only those two, and no temp file.
cli_outputs = st.dictionaries(st.sampled_from(["--trace", "--dendrogram", "--report"]),
                              st.sampled_from(["t.json", "r.json", "sub/o.txt", "./in", "d"]))
EXIT_CODES = {"config": 2, "parse": 3, "validation": 4, "io": 5}


@FUZZ
@given(corpora, cli_options, cli_outputs)
def test_cli_exits_with_a_category_and_leaves_nothing_on_failure(corpus, options, outputs):
    kind, text = corpus
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        source = work / "in"
        source.write_text(text, encoding="utf-8")
        data = source.read_bytes()
        (work / "d").mkdir()
        argv = ["cluster", "--input", str(source), "--kind", kind, *sum(options, [])]
        for option, path in outputs.items():
            argv += [option, str(work / path)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert source.read_bytes() == data
        left = {str(path.relative_to(work)) for path in work.rglob("*")}
        if code == 0:
            written = {str(Path(path)) for path in outputs.values()}
            assert left == {"in", "d", *written, *(Path(path).parts[0] for path in written)}
            return
        last = err.getvalue().splitlines()[-1]
        category = re.fullmatch(r"error\[(\w+)\]: .+", last).group(1)
        assert EXIT_CODES[category] == code
        assert left == {"in", "d"} and out.getvalue() == ""
