import random
import tracemalloc

import pytest

from objident import (
    ComponentRecord,
    ValidationError,
    build_pattern_matrix,
    derive_relations,
)
from objident.features import Relation, RelationKind, RelationSchema

from conftest import STACK_QUEUE_GOLD_ROWS, STACKS_GOLD_ROWS, bit_rows


def test_derive_relations_two_stacks_layout():
    schema = derive_relations(["execstack", "refstack"])
    got = [(r.label, r.kind, r.subject) for r in schema.relations]
    assert got == [
        ("R0", RelationKind.RETURNS, "execstack"),
        ("R1", RelationKind.RETURNS, "refstack"),
        ("R2", RelationKind.HAS_ARG, "execstack"),
        ("R3", RelationKind.HAS_ARG, "refstack"),
        ("R4", RelationKind.USES_FIELD, "execstack"),
        ("R5", RelationKind.USES_FIELD, "refstack"),
    ]


def test_derive_relations_stack_queue_layout():
    schema = derive_relations(["stack", "queue"])
    assert schema.labels == ("R0", "R1", "R2", "R3", "R4", "R5")
    assert [r.subject for r in schema.relations] == [
        "stack", "queue", "stack", "queue", "stack", "queue"]


def test_derive_relations_single_type():
    schema = derive_relations(["T"])
    assert [(r.kind, r.subject) for r in schema.relations] == [
        (RelationKind.RETURNS, "T"),
        (RelationKind.HAS_ARG, "T"),
        (RelationKind.USES_FIELD, "T"),
    ]


def test_derive_relations_duplicate_subject():
    with pytest.raises(ValidationError, match="'stack'"):
        derive_relations(["stack", "queue", "stack"])


def test_derive_relations_empty():
    with pytest.raises(ValidationError):
        derive_relations([])
    with pytest.raises(ValidationError, match="names must be non-empty"):
        derive_relations(["stack", ""])


@pytest.mark.parametrize("primitive", ["void", "int"])
def test_derive_relations_refuses_primitive_types(primitive):
    with pytest.raises(ValidationError, match=f"'{primitive}' is a primitive type"):
        derive_relations(["stack", primitive])


def test_relation_count_scales_with_subjects():
    for n in (1, 2, 5):
        schema = derive_relations([f"t{i}" for i in range(n)])
        assert len(schema.relations) == 3 * n


def test_pattern_row_init_ref(stacks):
    assert bit_rows(stacks.pattern)[stacks.pattern.row_labels.index("initRef")] == (0, 1, 0, 0, 0, 1)


def test_pattern_row_tra_exec(stacks):
    assert bit_rows(stacks.pattern)[stacks.pattern.row_labels.index("traExec")] == (1, 0, 1, 0, 1, 0)


def test_pattern_row_all_zero_without_relations():
    schema = derive_relations(["stack"])
    records = [
        ComponentRecord("plain", returns="int", args=("int",)),
        ComponentRecord("user", returns="stack"),
    ]
    pattern = build_pattern_matrix(records, schema)
    assert pattern.rows == (0, 0b001)  # "user" sets only R0, returns stack


def test_stacks_pattern_matches_golden(stacks):
    assert stacks.pattern.row_labels == tuple(STACKS_GOLD_ROWS)
    assert bit_rows(stacks.pattern) == tuple(STACKS_GOLD_ROWS.values())


def test_stack_queue_pattern_matches_golden(stack_queue):
    assert stack_queue.pattern.row_labels == tuple(STACK_QUEUE_GOLD_ROWS)
    assert bit_rows(stack_queue.pattern) == tuple(STACK_QUEUE_GOLD_ROWS.values())


def holds(record, relation):
    """Per-cell reference: whether the record has the relation's fact."""
    if relation.kind is RelationKind.RETURNS:
        return record.returns == relation.subject
    if relation.kind is RelationKind.HAS_ARG:
        return relation.subject in record.args
    return relation.subject in record.uses_fields


SUBJECTS = ("a", "b", "c")


def repeated_schema():
    """A hand-built schema that is not kind-major: it repeats (kind, subject)
    columns, so one subject's columns are not adjacent, and names the
    non-subject type ``int``."""
    schema = derive_relations(SUBJECTS)
    return RelationSchema(SUBJECTS, (
        Relation(RelationKind.HAS_ARG, "b", "X0"),
        *schema.relations[:4],
        Relation(RelationKind.RETURNS, "a", "X1"),
        Relation(RelationKind.HAS_ARG, "b", "X2"),
        Relation(RelationKind.HAS_ARG, "int", "X3"),
        *schema.relations[4:],
        Relation(RelationKind.USES_FIELD, "c", "X4"),
    ))


def random_records(rng, n):
    """``n`` components over ``SUBJECTS``, with ``int`` returns and args."""
    records = []
    for case in range(n):
        returns = rng.choice([None, "int", *SUBJECTS])
        args = tuple(rng.choice(["int", *SUBJECTS]) for _ in range(rng.randrange(4)))
        uses = frozenset(s for s in SUBJECTS if rng.random() < 0.5)
        records.append(ComponentRecord(f"f{case}", returns, args, uses))
    return records


def test_returns_block_has_at_most_one_bit():
    schema = derive_relations(SUBJECTS)
    records = random_records(random.Random(7), 50)
    # Boundary rows: only column 0 (returns a), only column W-1 (uses c).
    records += [ComponentRecord("first", "a"), ComponentRecord("last", uses_fields={"c"})]
    # Every column gets the bit its predicate holds, also a repeated one or
    # one of a non-subject type, and no bit is set past the last column.
    for each in (schema, repeated_schema()):
        rows = build_pattern_matrix(records, each).rows
        assert rows == tuple(sum(holds(record, relation) << c
                                 for c, relation in enumerate(each.relations))
                             for record in records)
    rows = build_pattern_matrix(records, schema).rows
    assert rows[-2:] == (1, 1 << len(schema.relations) - 1)
    returns_block = (1 << len(SUBJECTS)) - 1
    assert all((row & returns_block).bit_count() <= 1 for row in rows)
    assert any((row & returns_block).bit_count() == 1 for row in rows[:-2])


def test_pattern_holds_no_per_cell_form():
    # 2,000 rows of 600 columns as tuples of cells would take ~10 MB.
    rng = random.Random(5)
    subjects = [f"t{i}" for i in range(200)]
    records = [ComponentRecord(f"f{i}", rng.choice([None, *subjects]), rng.sample(subjects, 2),
                               rng.sample(subjects, 3)) for i in range(2000)]
    schema = derive_relations(subjects)
    tracemalloc.start()
    try:
        pattern = build_pattern_matrix(records, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (pattern.n_rows, pattern.n_cols) == (2000, 600)
    assert peak < 2 * 1024 * 1024


def test_rebuild_is_deterministic(stacks):
    again = build_pattern_matrix(stacks.records, stacks.schema)
    assert again == stacks.pattern


def test_duplicate_component_name_rejected():
    schema = derive_relations(["stack"])
    records = [ComponentRecord("f"), ComponentRecord("f")]
    with pytest.raises(ValidationError, match="duplicate component name"):
        build_pattern_matrix(records, schema)


def test_undeclared_uses_field_rejected():
    schema = derive_relations(["stack"])
    record = ComponentRecord("f", uses_fields=frozenset({"heap"}))
    with pytest.raises(ValidationError) as info:
        build_pattern_matrix([record], schema)
    assert "heap" in str(info.value)
    assert "f" in str(info.value)


def test_empty_record_list_rejected():
    with pytest.raises(ValidationError):
        build_pattern_matrix([], derive_relations(["stack"]))


def test_empty_component_name_rejected():
    with pytest.raises(ValidationError):
        ComponentRecord("")


@pytest.mark.parametrize("fields", [{"returns": ""}, {"args": ("stack", "")},
                                    {"uses_fields": frozenset({""})}])
def test_empty_type_name_rejected(fields):
    with pytest.raises(ValidationError, match="'g' names an empty type"):
        ComponentRecord("g", **fields)
