"""Component descriptions, relation schemas, and the binary pattern matrix.

A *component* is one procedural function, described at declaration level:
what it returns, what it takes as arguments, and which record types' fields
it touches.  A *relation schema* turns an ordered list of subject (struct)
types into binary predicates: for each subject T there is one RETURNS T,
one HAS_ARG T, and one USES_FIELD T column.  The *pattern matrix* is the
0/1 matrix of every predicate against every component, which the cluster
engine consumes.  It is built without testing each cell: a row starts as
zeros and each of the component's facts sets its columns, looked up by
(kind, subject), so the Python work is O(rows + set bits).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import ValidationError


class RelationKind(enum.Enum):
    RETURNS = "returns"
    HAS_ARG = "has_arg"
    USES_FIELD = "uses_field"


@dataclass(frozen=True)
class ComponentRecord:
    """One software component: a function described by its declaration.

    ``returns`` keeps the declared type name ("int" included) or None for
    void; only subject types generate relations, so non-subject names are
    carried but never set a bit.  ``uses_fields`` is an explicit fact, not
    something derivable from the prototype.
    """

    name: str
    returns: str | None = None
    args: tuple[str, ...] = ()
    uses_fields: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not self.name:
            raise ValidationError("component name must be non-empty")
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "uses_fields", frozenset(self.uses_fields))
        if self.returns == "" or "" in self.args or "" in self.uses_fields:
            raise ValidationError(f"component {self.name!r} names an empty type")


@dataclass(frozen=True)
class Relation:
    """One binary predicate: kind applied to a subject type."""

    kind: RelationKind
    subject: str
    label: str


@dataclass(frozen=True)
class RelationSchema:
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


@dataclass(frozen=True)
class PatternMatrix:
    """Binary matrix: rows are components, columns are relations."""

    row_labels: tuple[str, ...]
    schema: RelationSchema
    rows: tuple[tuple[int, ...], ...]

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

    Each row starts as zeros and gets only the record's own bits, found
    through a (kind, subject) -> column indexes dict, so the work is
    O(rows + set bits) Python steps plus one C-level fill per row.

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
    columns: dict[tuple[RelationKind, str], list[int]] = {}
    for c, relation in enumerate(schema.relations):
        columns.setdefault((relation.kind, relation.subject), []).append(c)
    width = len(schema.relations)
    rows = []
    for record in records:
        row = [0] * width
        facts = [(RelationKind.RETURNS, record.returns)]
        facts += [(RelationKind.HAS_ARG, arg) for arg in record.args]
        facts += [(RelationKind.USES_FIELD, subject) for subject in record.uses_fields]
        for fact in facts:
            for c in columns.get(fact, ()):
                row[c] = 1
        rows.append(tuple(row))
    return PatternMatrix(tuple(r.name for r in records), schema, tuple(rows))
