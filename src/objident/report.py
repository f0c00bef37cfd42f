"""Attribute each cluster of a partition to the subject type it serves.

For every group the set bits of its members' pattern rows are counted per
subject type (across all three relation kinds, unweighted).  The subject
with the most bits is the group's dominant subject and the group is
proposed as a candidate object around that type; ties are reported as
ambiguous, never broken silently.  Affinity is the fraction of the group's
set bits that fall in the dominant subject's columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .dendrogram import PartitionGroup
from .errors import ValidationError
from .features import PatternMatrix, RelationSchema
from .metrics import two_decimals


@dataclass(frozen=True)
class ClusterAttribution:
    """Report entry for one cluster of the partition."""

    cluster_label: str
    members: tuple[str, ...]
    dominant_subject: str | None          # None when ambiguous
    tied_subjects: tuple[str, ...]        # the tied maximum, when ambiguous
    affinity: Fraction

    @property
    def is_ambiguous(self) -> bool:
        return self.dominant_subject is None


@dataclass(frozen=True)
class CandidateObjectReport:
    entries: tuple[ClusterAttribution, ...]

    def to_doc(self) -> dict:
        """Machine-readable form used by the structured output document."""
        entries = []
        for e in self.entries:
            doc = {
                "cluster": e.cluster_label,
                "members": list(e.members),
                "dominant_subject": e.dominant_subject,
            }
            if e.is_ambiguous:
                doc["tied_subjects"] = list(e.tied_subjects)
            doc["affinity"] = {"num": e.affinity.numerator,
                               "den": e.affinity.denominator}
            doc["affinity_display"] = two_decimals(e.affinity)
            entries.append(doc)
        return {"entries": entries}


def _normalize(partition: Iterable) -> list[tuple[str, tuple[str, ...]]]:
    groups = []
    for index, group in enumerate(partition):
        if isinstance(group, PartitionGroup):
            groups.append((group.label, tuple(group.members)))
        else:
            groups.append((f"G{index + 1}", tuple(group)))
    return groups


def label_clusters(partition: Sequence, pattern: PatternMatrix,
                   schema: RelationSchema) -> CandidateObjectReport:
    """Build the candidate-object report for a partition of the pattern rows.

    The partition must cover every pattern row exactly once; groups may be
    PartitionGroup objects (from the dendrogram cuts) or plain name
    sequences, which get positional G1, G2, ... labels.  Each group's column
    sums go to their subjects in one pass over ``schema.relations``.
    """
    groups = _normalize(partition)
    covered = [name for _, members in groups for name in members]
    if sorted(covered) != sorted(pattern.row_labels):
        raise ValidationError(
            "partition does not cover the pattern rows exactly once")
    column_subjects = [r.subject for r in schema.relations]
    row_of = dict(zip(pattern.row_labels, pattern.rows))
    entries = []
    for label, members in groups:
        counts = dict.fromkeys(schema.subject_types, 0)
        sums = map(sum, zip(*(row_of[name] for name in members)))
        for subject, bits in zip(column_subjects, sums):
            counts[subject] += bits
        total = sum(counts.values())
        best = max(counts.values())
        tied = tuple(t for t in schema.subject_types if counts[t] == best)
        if total == 0 or len(tied) > 1:
            dominant = None
            affinity = Fraction(0) if total == 0 else Fraction(best, total)
        else:
            dominant = tied[0]
            affinity = Fraction(best, total)
        entries.append(ClusterAttribution(
            label, tuple(members), dominant,
            tied if dominant is None else (), affinity))
    return CandidateObjectReport(tuple(entries))
