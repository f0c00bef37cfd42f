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
            "int f (struct s * x)  # trailing comment\n"
            "   \n")
    _, records = parse_declarations(text)
    assert [r.name for r in records] == ["f"]


@pytest.mark.parametrize("line,fragment,column", [
    ("float f (int n)", "unknown type 'float'", 1),
    ("struct stack f int n)", "expected '('", 16),
    ("struct stack f (int n", "found end of line", 22),
    ("int f (int) ", "parameter name", 11),
    ("int f (int n) ! loads: stack", "expected 'uses'", 17),
    ("int f (int n) ! uses:", "subject type name", 22),
    ("int f (int n) extra", "expected end of line", 15),
    ("int f (int n) @", "unexpected character '@'", 15),
    ("struct f (int n)", "expected function name", 10),
    ("struct stack * mk (int n) ! uses: stack, queue", "unknown subject type 'queue'", 42),
    ("struct void *f (struct int x)", "expected struct name, found 'void'", 8),
    ("int f (struct int x)", "expected struct name, found 'int'", 15),
    ("struct struct * f (int n)", "expected struct name, found 'struct'", 8),
    ("%types int", "expected type name, found 'int'", 8),
    ("%types stack void", "expected type name, found 'void'", 14),
    ("struct s struct (int void, struct s int) ! uses: s",
     "expected function name, found 'struct'", 10),
    ("int void (int n)", "expected function name, found 'void'", 5),
    ("int f (int void)", "expected parameter name, found 'void'", 12),
    ("int f (int n, struct s int)", "expected parameter name, found 'int'", 24),
    ("void f (int struct)", "expected parameter name, found 'struct'", 13),
    # The whole line is tokenized first, so a stray character wins over
    # the grammar error before it.
    ("float f @", "unexpected character '@'", 9),
    ("int f (%types x)", "expected a type ('void', 'int', or 'struct <name>'), found '%types'", 8),
    # End of line is the comment-stripped length + 1.
    ("struct s * f (int n  # no closing paren", "expected ')', found end of line", 22),
])
def test_malformed_lines_rejected(line, fragment, column):
    with pytest.raises(ParseError) as info:
        parse_declarations(line)
    assert fragment in str(info.value)
    assert info.value.line == 1
    assert info.value.column == column


@pytest.mark.parametrize("text, fragment, line", [
    ("", "expected a function prototype, found end of input", 1),
    ("%types stack\n# nothing else\n", "expected a function prototype", 3),
    ("int g (int a)", "no subject type", 1),
    ("# helpers\nint g (int a)\nvoid h (int b)\n", "no subject type", 2),
])
def test_file_without_prototype_or_subject_type_rejected(text, fragment, line):
    # A components document needs both, so the file is refused at parse time.
    with pytest.raises(ParseError, match=fragment) as info:
        parse_declarations(text)
    assert info.value.line == line


def test_error_reports_correct_line_number():
    text = "int ok (int n)\n# fine\nint bad (\n"
    with pytest.raises(ParseError) as info:
        parse_declarations(text)
    assert info.value.line == 3


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
def test_lines_end_at_newline_and_carriage_return_only(line_end):
    # A form feed, vertical tab or Unicode separator is whitespace inside a
    # line, so a page break on its own line shifts no later line number.
    text = line_end.join(["%types s", "int f (struct s * x)", "\x0c",
                          "int g (struct s * y\x0b\x1c\x85\u2028", ""])
    with pytest.raises(ParseError, match="expected '\\)', found end of line") as info:
        parse_declarations(text)
    assert (info.value.line, info.value.column) == (4, 24)


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
