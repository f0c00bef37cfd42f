"""Every input text or file ends in records or an ``ObjidentError``.

The parsers and the file reader take input from outside the program, so no
input may end in any other exception: not a ``UnicodeDecodeError`` from
bytes that are not UTF-8, not a ``RecursionError`` from JSON nested deeper
than the interpreter's recursion limit, and not the ``ValueError`` of a
JSON number with more digits than ``int()`` converts.  And whatever
``parse_declarations`` returns converts to a components document that
``parse_components`` reads back unchanged.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from objident import (
    ObjidentError,
    canonical_json,
    components_document,
    parse_components,
    parse_declarations,
)
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
