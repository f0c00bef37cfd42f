import pytest

from objident import (
    ComponentRecord,
    ParseError,
    build_pattern_matrix,
    canonical_json,
    components_document,
    derive_relations,
    parse_components,
    parse_declarations,
)

from conftest import FIXTURE_DIR


def parse_one(line):
    subjects, records = parse_declarations(line)
    assert len(records) == 1
    return records[0]


def test_struct_return_with_annotation():
    record = parse_one("struct refstack * initRef (int size) ! uses: refstack")
    assert record == ComponentRecord("initRef", "refstack", ("int",),
                                     frozenset({"refstack"}))


def test_void_return_maps_to_none():
    record = parse_one("void ePush (struct execstack * es, int i) ! uses: execstack")
    assert record.returns is None
    assert record.args == ("execstack", "int")
    assert record.uses_fields == frozenset({"execstack"})


def test_int_return_is_kept_but_non_subject():
    record = parse_one("int rPop (struct refstack * rs) ! uses: refstack")
    assert record.returns == "int"
    assert record.args == ("refstack",)


def test_empty_parameter_list():
    record = parse_one("struct queue *initQ ()")
    assert record.args == ()
    assert record.uses_fields == frozenset()


def test_pointer_star_is_optional():
    record = parse_one("struct stack copy (struct stack s)")
    assert record.returns == "stack"
    assert record.args == ("stack",)


def test_multiple_uses_annotations():
    record = parse_one("void link (struct a * x, struct b * y) ! uses: a, b")
    assert record.uses_fields == frozenset({"a", "b"})


def test_types_directive_fixes_subject_order():
    text = "%types execstack refstack\nstruct refstack * f (int n)\n"
    subjects, _ = parse_declarations(text)
    assert subjects == ("execstack", "refstack")


def test_subjects_default_to_first_appearance():
    text = ("struct refstack * f (int n)\n"
            "void g (struct execstack * e)\n"
            "int h (struct refstack * r)\n")
    subjects, _ = parse_declarations(text)
    assert subjects == ("refstack", "execstack")


def test_comments_and_blank_lines_ignored():
    text = ("# a comment line\n"
            "\n"
            "int f (int n)  # trailing comment\n"
            "   \n")
    _, records = parse_declarations(text)
    assert [r.name for r in records] == ["f"]


@pytest.mark.parametrize("line,fragment", [
    ("float f (int n)", "unknown type 'float'"),
    ("struct stack f int n)", "expected '('"),
    ("struct stack f (int n", "found end of line"),
    ("int f (int) ", "parameter name"),
    ("int f (int n) ! loads: stack", "expected 'uses'"),
    ("int f (int n) ! uses:", "subject type name"),
    ("int f (int n) extra", "expected end of line"),
    ("int f (int n) @", "unexpected character '@'"),
    ("struct f (int n)", "expected function name"),
    ("struct stack * mk (int n) ! uses: stack, queue", "unknown subject type 'queue'"),
])
def test_malformed_lines_rejected(line, fragment):
    with pytest.raises(ParseError) as info:
        parse_declarations(line)
    assert fragment in str(info.value)
    assert info.value.line == 1
    assert info.value.column is not None


def test_error_reports_correct_line_number():
    text = "int ok (int n)\n# fine\nint bad (\n"
    with pytest.raises(ParseError) as info:
        parse_declarations(text)
    assert info.value.line == 3


def test_duplicate_function_name_rejected():
    text = "int f (int n)\nint f (int m)\n"
    with pytest.raises(ParseError) as info:
        parse_declarations(text)
    assert "duplicate function name 'f'" in str(info.value)
    assert "line 1" in str(info.value)
    assert info.value.line == 2


def test_duplicate_types_directive_rejected():
    with pytest.raises(ParseError, match="duplicate %types"):
        parse_declarations("%types a\n%types b\n")


def test_types_directive_rejects_duplicates_and_emptiness():
    with pytest.raises(ParseError, match="duplicate subject type"):
        parse_declarations("%types a a\n")
    with pytest.raises(ParseError, match="at least one"):
        parse_declarations("%types\n")


def test_stacks_fixture_round_trips_through_components_format(stacks):
    subjects, records = parse_declarations(
        (FIXTURE_DIR / "stacks.decls").read_text())
    assert subjects == stacks.subjects
    assert records == stacks.records
    text = canonical_json(components_document(subjects, records))
    subjects_again, records_again = parse_components(text)
    assert subjects_again == subjects
    assert records_again == records
    pattern = build_pattern_matrix(records_again, derive_relations(subjects_again))
    assert pattern == stacks.pattern


def test_stack_queue_fixture_parses(stack_queue):
    subjects, records = parse_declarations(
        (FIXTURE_DIR / "stack_queue.decls").read_text())
    assert subjects == ("stack", "queue")
    assert records == stack_queue.records
