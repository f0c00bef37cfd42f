import random
from fractions import Fraction

import pytest

from objident import (
    MergePolicy,
    Metric,
    ValidationError,
    build_pattern_matrix,
    cluster,
    cut_k,
    derive_relations,
    label_clusters,
)

from conftest import bit_rows
from test_engine import make_pattern
from test_features import SUBJECTS, random_records, repeated_schema


@pytest.fixture(scope="module")
def stacks_partition(stacks):
    dend, _ = cluster(stacks.pattern, Metric.EUCLIDEAN,
                      policy=MergePolicy.PAPER_REPRO)
    return cut_k(dend, 2)


def test_two_stack_attribution(stacks, stacks_partition):
    report = label_clusters(stacks_partition, stacks.pattern, stacks.schema)
    assert [e.cluster_label for e in report.entries] == ["C5", "C6"]
    ref, exe = report.entries
    assert ref.dominant_subject == "refstack"
    assert ref.affinity == Fraction(1)
    assert not ref.is_ambiguous
    assert exe.dominant_subject == "execstack"
    assert exe.affinity == Fraction(1)
    assert set(ref.members) == {"initRef", "isEmptyRef", "rPush", "rPop", "traRef"}


def test_affinity_counts_eleven_refstack_bits(stacks, stacks_partition):
    # traRef sets three bits, the other four members two each; all eleven
    # fall in refstack columns.
    report = label_clusters(stacks_partition, stacks.pattern, stacks.schema)
    ref = report.entries[0]
    row_of = dict(zip(stacks.pattern.row_labels, stacks.pattern.rows))
    total_bits = sum(row_of[name].bit_count() for name in ref.members)
    assert total_bits == 11
    assert ref.affinity == Fraction(11, 11)


@pytest.mark.parametrize("subjects", [("refstack", "execstack"), ("refstack",)])
def test_schema_must_be_the_patterns_own(stacks, stacks_partition, subjects):
    # The reversed schema would otherwise label the refstack cluster
    # execstack, and a shorter one has no subject for the last columns.
    with pytest.raises(ValidationError, match="schema"):
        label_clusters(stacks_partition, stacks.pattern, derive_relations(subjects))


def reference_entries(partition, pattern, schema):
    """Each group's (label, members, dominant, tied, affinity), from subject
    counts summed cell by cell over the 0/1 rows."""
    cells = dict(zip(pattern.row_labels, bit_rows(pattern)))
    entries = []
    for index, members in enumerate(partition):
        counts = dict.fromkeys(schema.subject_types, 0)
        for name in members:
            for c, relation in enumerate(schema.relations):
                if relation.subject in counts:
                    counts[relation.subject] += cells[name][c]
        total, best = sum(counts.values()), max(counts.values())
        tied = tuple(s for s in schema.subject_types if counts[s] == best)
        dominant = tied[0] if total and len(tied) == 1 else None
        entries.append((f"G{index + 1}", tuple(members), dominant,
                        () if dominant else tied, Fraction(best, total or 1)))
    return entries


def test_counts_match_per_column_reference():
    rng = random.Random(21)
    for case in range(40):
        schema = repeated_schema() if case % 2 else derive_relations(SUBJECTS)
        pattern = build_pattern_matrix(random_records(rng, rng.randrange(1, 30)), schema)
        names = list(pattern.row_labels)
        rng.shuffle(names)
        cuts = sorted(rng.sample(range(1, len(names)), rng.randrange(len(names))))
        partition = [names[a:b] for a, b in zip([0, *cuts], [*cuts, len(names)])]
        report = label_clusters(partition, pattern, schema)
        assert list(report.entries) == reference_entries(partition, pattern, schema)


def test_all_zero_singleton_is_ambiguous():
    pattern = make_pattern([(0, 0), (1, 0)], labels=["empty", "busy"])
    schema = pattern.schema
    report = label_clusters([["empty"], ["busy"]], pattern, schema)
    empty, busy = report.entries
    assert empty.is_ambiguous
    assert empty.affinity == 0
    assert empty.tied_subjects == schema.subject_types
    assert busy.dominant_subject == "s0"


def test_tie_between_subjects_reported_ambiguous():
    pattern = make_pattern([(1, 0), (0, 1)], labels=["f0", "f1"])
    report = label_clusters([["f0", "f1"]], pattern, pattern.schema)
    entry = report.entries[0]
    assert entry.is_ambiguous
    assert entry.tied_subjects == ("s0", "s1")
    assert entry.affinity == Fraction(1, 2)


def test_plain_sequences_get_positional_labels():
    pattern = make_pattern([(1, 0), (0, 1)])
    report = label_clusters([["f1"], ["f0"]], pattern, pattern.schema)
    assert [e.cluster_label for e in report.entries] == ["G1", "G2"]


def test_partition_must_cover_rows_exactly(stacks, stacks_partition):
    with pytest.raises(ValidationError, match="cover"):
        label_clusters([["initRef"]], stacks.pattern, stacks.schema)
    doubled = [list(stacks_partition[0].members),
               list(stacks_partition[1].members) + ["initRef"]]
    with pytest.raises(ValidationError, match="cover"):
        label_clusters(doubled, stacks.pattern, stacks.schema)


def test_member_counts_sum_to_component_count(stacks):
    dend, _ = cluster(stacks.pattern, Metric.EUCLIDEAN,
                      policy=MergePolicy.PAPER_REPRO)
    for k in (1, 2, 3, 4):
        report = label_clusters(cut_k(dend, k), stacks.pattern, stacks.schema)
        assert sum(len(e.members) for e in report.entries) == 10


def test_attribution_invariant_to_member_order(stacks, stacks_partition):
    report = label_clusters(stacks_partition, stacks.pattern, stacks.schema)
    shuffled = [list(reversed(g.members)) for g in stacks_partition]
    again = label_clusters(shuffled, stacks.pattern, stacks.schema)
    for before, after in zip(report.entries, again.entries):
        assert before.dominant_subject == after.dominant_subject
        assert before.affinity == after.affinity


def test_report_document_shape(stacks, stacks_partition):
    report = label_clusters(stacks_partition, stacks.pattern, stacks.schema)
    doc = report.to_doc()
    assert doc["entries"][0]["cluster"] == "C5"
    assert doc["entries"][0]["dominant_subject"] == "refstack"
    assert doc["entries"][0]["affinity"] == {"num": 1, "den": 1}
    assert doc["entries"][0]["affinity_display"] == "1.00"
    assert "tied_subjects" not in doc["entries"][0]
