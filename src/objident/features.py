"""Component descriptions, relation schemas, and the binary pattern matrix.

A *component* is one procedural function, described at declaration level:
what it returns, what it takes as arguments, and which record types' fields
it touches.  A *relation schema* turns an ordered list of subject (struct)
types into binary predicates: for each subject T there is one RETURNS T,
one HAS_ARG T, and one USES_FIELD T column.  The *pattern matrix* is the
0/1 matrix of every predicate against every component, which the cluster
engine consumes.  Each row is stored as one int whose bit c is column c.
It is built without testing each cell: each of the component's facts ORs
in one mask of its columns, looked up by (kind, subject), so the Python
work is O(rows + facts).
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError


class RelationKind(enum.Enum):
    RETURNS = "returns"
    HAS_ARG = "has_arg"
    USES_FIELD = "uses_field"


class ComponentRecord(NamedTuple("ComponentRecord", [
        ("name", str), ("returns", str | None),
        ("args", tuple[str, ...]), ("uses_fields", frozenset[str])])):
    """One software component: a function described by its declaration.

    ``returns`` keeps the declared type name ("int" included) or None for
    void; only subject types generate relations, so non-subject names are
    carried but never set a bit.  ``uses_fields`` is an explicit fact, not
    something derivable from the prototype.
    """

    # A NamedTuple's own class body may not define __new__, so the checks
    # and coercions sit in this subclass.
    __slots__ = ()

    def __new__(cls, name: str, returns: str | None = None, args: Iterable[str] = (),
                uses_fields: Iterable[str] = frozenset()):
        if not name:
            raise ValidationError("component name must be non-empty")
        self = super().__new__(cls, name, returns, tuple(args), frozenset(uses_fields))
        if returns == "" or "" in self.args or "" in self.uses_fields:
            raise ValidationError(f"component {name!r} names an empty type")
        return self


class Relation(NamedTuple):
    """One binary predicate: kind applied to a subject type."""

    kind: RelationKind
    subject: str
    label: str


class RelationSchema(NamedTuple):
    """Ordered relation columns derived from an ordered subject-type list.

    Column order is fixed kind-major: all RETURNS columns first (in subject
    order), then all HAS_ARG, then all USES_FIELD.  Labels are R0..R(n-1).
    """

    subject_types: tuple[str, ...]
    relations: tuple[Relation, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(r.label for r in self.relations)


def derive_relations(subject_types: Sequence[str]) -> RelationSchema:
    """Build the kind-major relation schema for the given subject types."""
    subjects = tuple(subject_types)
    if not subjects:
        raise ValidationError("subject type list must be non-empty")
    seen = set()
    for name in subjects:
        if not name:
            raise ValidationError("subject type names must be non-empty")
        if name in seen:
            raise ValidationError(f"duplicate subject type: {name!r}")
        if name in ("void", "int"):
            raise ValidationError(f"{name!r} is a primitive type, not a subject type")
        seen.add(name)
    relations = []
    for kind in (RelationKind.RETURNS, RelationKind.HAS_ARG, RelationKind.USES_FIELD):
        for subject in subjects:
            relations.append(Relation(kind, subject, f"R{len(relations)}"))
    return RelationSchema(subjects, tuple(relations))


class PatternMatrix(NamedTuple):
    """Binary matrix: rows are components, columns are relations.  Each row
    is an int whose bit c is set when column c holds (``row >> c & 1``);
    no bit at or past ``n_cols`` is set."""

    row_labels: tuple[str, ...]
    schema: RelationSchema
    rows: tuple[int, ...]

    @property
    def col_labels(self) -> tuple[str, ...]:
        return self.schema.labels

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.schema.relations)


def build_pattern_matrix(records: Iterable[ComponentRecord],
                         schema: RelationSchema) -> PatternMatrix:
    """Evaluate every relation against every record.

    Each row is the OR of one mask per fact of the record, looked up in a
    (kind, subject) -> columns mask dict, so the work is O(rows + facts)
    Python steps and no cell is stored on its own.  A hand-built schema
    that repeats a (kind, subject) column sets the bit of each copy.

    Raises ValidationError for an empty record list, duplicate component
    names, or a uses_fields entry naming a type the schema does not declare.
    """
    records = tuple(records)
    if not records:
        raise ValidationError("component list must be non-empty")
    seen = set()
    declared = set(schema.subject_types)
    for record in records:
        if record.name in seen:
            raise ValidationError(f"duplicate component name: {record.name!r}")
        seen.add(record.name)
        unknown = sorted(record.uses_fields - declared)
        if unknown:
            raise ValidationError(
                f"component {record.name!r} uses fields of undeclared subject "
                f"type(s): {', '.join(unknown)}")
    masks: dict[tuple[RelationKind, str], int] = {}
    for c, (kind, subject, _) in enumerate(schema.relations):
        masks[kind, subject] = masks.get((kind, subject), 0) | 1 << c
    rows = []
    for record in records:
        row = masks.get((RelationKind.RETURNS, record.returns), 0)
        for arg in record.args:
            row |= masks.get((RelationKind.HAS_ARG, arg), 0)
        for subject in record.uses_fields:
            row |= masks.get((RelationKind.USES_FIELD, subject), 0)
        rows.append(row)
    return PatternMatrix(tuple(r.name for r in records), schema, tuple(rows))
