from fractions import Fraction

import pytest

from objident import (
    MergePolicy,
    Metric,
    ValidationError,
    cluster,
    cut_k,
    label_clusters,
)

from test_engine import make_pattern


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
    total_bits = sum(sum(row_of[name]) for name in ref.members)
    assert total_bits == 11
    assert ref.affinity == Fraction(11, 11)


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
