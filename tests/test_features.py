import random

import pytest

from objident import (
    ComponentRecord,
    ValidationError,
    build_pattern_matrix,
    derive_relations,
)
from objident.features import Relation, RelationKind, RelationSchema

from conftest import STACK_QUEUE_GOLD_ROWS, STACKS_GOLD_ROWS


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


def test_relation_count_scales_with_subjects():
    for n in (1, 2, 5):
        schema = derive_relations([f"t{i}" for i in range(n)])
        assert len(schema.relations) == 3 * n


def test_pattern_row_init_ref(stacks):
    assert stacks.pattern.rows[stacks.pattern.row_labels.index("initRef")] == (0, 1, 0, 0, 0, 1)


def test_pattern_row_tra_exec(stacks):
    assert stacks.pattern.rows[stacks.pattern.row_labels.index("traExec")] == (1, 0, 1, 0, 1, 0)


def test_pattern_row_all_zero_without_relations():
    schema = derive_relations(["stack"])
    records = [
        ComponentRecord("plain", returns="int", args=("int",)),
        ComponentRecord("user", returns="stack"),
    ]
    pattern = build_pattern_matrix(records, schema)
    assert pattern.rows[0] == (0, 0, 0)


def test_stacks_pattern_matches_golden(stacks):
    assert stacks.pattern.row_labels == tuple(STACKS_GOLD_ROWS)
    assert stacks.pattern.rows == tuple(STACKS_GOLD_ROWS.values())


def test_stack_queue_pattern_matches_golden(stack_queue):
    assert stack_queue.pattern.row_labels == tuple(STACK_QUEUE_GOLD_ROWS)
    assert stack_queue.pattern.rows == tuple(STACK_QUEUE_GOLD_ROWS.values())


def holds(record, relation):
    """Per-cell reference: whether the record has the relation's fact."""
    if relation.kind is RelationKind.RETURNS:
        return record.returns == relation.subject
    if relation.kind is RelationKind.HAS_ARG:
        return relation.subject in record.args
    return relation.subject in record.uses_fields


def test_returns_block_has_at_most_one_bit():
    rng = random.Random(7)
    subjects = ["a", "b", "c"]
    schema = derive_relations(subjects)
    # A hand-built schema may repeat a (kind, subject) column, or name a
    # non-subject type; every such column gets the bit its predicate holds.
    repeated = RelationSchema(tuple(subjects), (
        Relation(RelationKind.HAS_ARG, "b", "X0"),
        *schema.relations[:4],
        Relation(RelationKind.RETURNS, "a", "X1"),
        Relation(RelationKind.HAS_ARG, "b", "X2"),
        Relation(RelationKind.HAS_ARG, "int", "X3"),
        *schema.relations[4:],
        Relation(RelationKind.USES_FIELD, "c", "X4"),
    ))
    records = []
    for case in range(50):
        returns = rng.choice([None, "int", *subjects])
        args = tuple(rng.choice(["int", *subjects]) for _ in range(rng.randrange(4)))
        uses = frozenset(s for s in subjects if rng.random() < 0.5)
        records.append(ComponentRecord(f"f{case}", returns, args, uses))
    for each in (schema, repeated):
        rows = build_pattern_matrix(records, each).rows
        assert rows == tuple(tuple(int(holds(record, relation)) for relation in each.relations)
                             for record in records)
    rows = build_pattern_matrix(records, schema).rows
    assert all(sum(row[:len(subjects)]) <= 1 for row in rows)
    assert any(sum(row[:len(subjects)]) == 1 for row in rows)


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
