"""Component descriptions, relation schemas, and the binary pattern matrix.

A *component* is one procedural function, described at declaration level:
what it returns, what it takes as arguments, and which record types' fields
it touches.  A *relation schema* turns an ordered list of subject (struct)
types into binary predicates: for each subject T there is one RETURNS T,
one HAS_ARG T, and one USES_FIELD T column.  The *pattern matrix* evaluates
every predicate against every component, producing the 0/1 matrix that the
cluster engine consumes.
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

    def columns_for_subject(self, subject: str) -> tuple[int, ...]:
        """Indices of the columns whose subject is ``subject``."""
        return tuple(i for i, r in enumerate(self.relations) if r.subject == subject)


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


def _holds(record: ComponentRecord, relation: Relation) -> bool:
    if relation.kind is RelationKind.RETURNS:
        return record.returns == relation.subject
    if relation.kind is RelationKind.HAS_ARG:
        return relation.subject in record.args
    return relation.subject in record.uses_fields


def build_pattern_matrix(records: Iterable[ComponentRecord],
                         schema: RelationSchema) -> PatternMatrix:
    """Evaluate every relation against every record.

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
    rows = tuple(
        tuple(1 if _holds(record, relation) else 0 for relation in schema.relations)
        for record in records)
    return PatternMatrix(tuple(r.name for r in records), schema, rows)
