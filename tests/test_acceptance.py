"""Acceptance suite: one test per shipping criterion, each printing a
[PASS]/[FAIL] line (run with ``pytest -s`` to see them on success).

The reference proximity tables transcribed below contain four cells that
contradict their own source data: the rows for isEmptyRef/rPush/rPop are
identical, as are isEmptyExec/ePush/ePop, yet the transcribed tables print
different distances against them in a few places, and later tables inherit
those slips through the minimum rule.  An independent oracle (tests/oracle,
which recomputes everything from the rows) is run first and decides the
correct values; the implementation must agree with the oracle everywhere
and with the reference tables everywhere else.
"""

import itertools
import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction

from objident import (
    Metric,
    MergePolicy,
    ParseError,
    build_pattern_matrix,
    canonical_json,
    cluster,
    components_document,
    cut_k,
    derive_relations,
    initial_proximity,
    label_clusters,
    parse_components,
    parse_declarations,
)
from objident.cli import main

import oracle
from conftest import FIXTURE_DIR, STACK_QUEUE_GOLD_ROWS, STACKS_GOLD_ROWS
from test_engine import METRIC_NAMES, UNIQUE_MIN_ROWS, make_pattern, random_rows


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


STACK_NAMES = list(STACKS_GOLD_ROWS)

# Reference first proximity table, lower triangle in row order.  The two
# starred cells disagree with the rows themselves (compare each against the
# equal-row partners: d(ePush, initRef) must equal d(isEmptyExec, initRef),
# and d(traRef, isEmptyRef) must equal d(traRef, rPush)).
_REFERENCE_FIRST_ROWS = [
    ("initExec", (2.00,)),
    ("isEmptyRef", (1.41, 2.00)),
    ("isEmptyExec", (2.00, 1.41, 2.00)),
    ("ePush", (1.41, 1.41, 2.00, 0.00)),            # (ePush, initRef) starred
    ("rPush", (1.41, 2.00, 0.00, 2.00, 2.00)),
    ("ePop", (2.00, 1.41, 2.00, 0.00, 0.00, 2.00)),
    ("rPop", (1.41, 2.00, 0.00, 2.00, 2.00, 0.00, 2.00)),
    ("traRef", (1.00, 2.24, 2.00, 2.24, 2.24, 1.00, 2.24, 1.00)),  # (traRef, isEmptyRef) starred
    ("traExec", (2.24, 1.00, 2.24, 1.00, 1.00, 2.24, 1.00, 2.24, 2.45)),
]

REFERENCE_FIRST_PROXIMITY = {
    frozenset((name, STACK_NAMES[j])): value
    for name, values in _REFERENCE_FIRST_ROWS
    for j, value in enumerate(values)
}

FIRST_PROXIMITY_CORRECTIONS = {
    frozenset(("ePush", "initRef")): 2.00,
    frozenset(("traRef", "isEmptyRef")): 1.00,
}

# Reference snapshots after rounds 1..3, with the cells inherited from the
# starred slips above.
REFERENCE_ROUND_SNAPSHOTS = [
    ({
        frozenset(("initExec", "initRef")): 2.00,
        frozenset(("C1", "initRef")): 1.41,
        frozenset(("C1", "initExec")): 2.00,
        frozenset(("C2", "initRef")): 1.41,
        frozenset(("C2", "initExec")): 1.41,
        frozenset(("C2", "C1")): 2.00,
        frozenset(("traRef", "initRef")): 1.00,
        frozenset(("traRef", "initExec")): 2.24,
        frozenset(("traRef", "C1")): 1.00,
        frozenset(("traRef", "C2")): 2.24,
        frozenset(("traExec", "initRef")): 2.24,
        frozenset(("traExec", "initExec")): 1.00,
        frozenset(("traExec", "C1")): 2.24,
        frozenset(("traExec", "C2")): 1.00,
        frozenset(("traExec", "traRef")): 2.45,
    }, {frozenset(("C2", "initRef")): 2.00}),
    ({
        frozenset(("C2", "C1")): 2.00,
        frozenset(("C3", "C1")): 1.00,
        frozenset(("C3", "C2")): 1.41,
        frozenset(("C4", "C1")): 2.00,
        frozenset(("C4", "C2")): 1.00,
        frozenset(("C4", "C3")): 2.00,
    }, {frozenset(("C3", "C2")): 2.00}),
    ({
        frozenset(("C6", "C5")): 1.41,
    }, {frozenset(("C6", "C5")): 2.00}),
]


def test_criterion_1_pattern_matrix_fidelity(stacks, stack_queue):
    with criterion(1, "pattern-matrix fidelity on both corpora"):
        assert stacks.pattern.row_labels == tuple(STACKS_GOLD_ROWS)
        assert stacks.pattern.rows == tuple(STACKS_GOLD_ROWS.values())
        assert stacks.pattern.n_cols == 6
        assert stack_queue.pattern.row_labels == tuple(STACK_QUEUE_GOLD_ROWS)
        assert stack_queue.pattern.rows == tuple(STACK_QUEUE_GOLD_ROWS.values())
        assert stack_queue.pattern.n_cols == 6


def test_criterion_2_first_proximity_with_corrections(stacks):
    with criterion(2, "first proximity matrix: 43/45 reference cells plus "
                      "2 oracle-corrected cells"):
        rows = STACKS_GOLD_ROWS
        # Oracle first: direct evaluation from the rows.
        oracle_values = {
            frozenset((a, b)): oracle.euclidean_value(rows[a], rows[b])
            for a, b in itertools.combinations(rows, 2)
        }
        prox = initial_proximity(stacks.pattern, Metric.EUCLIDEAN)
        ids = {c.label: c.id for c in prox.active}
        assert len(oracle_values) == 45

        mismatches = {}
        for pair, reference in REFERENCE_FIRST_PROXIMITY.items():
            i, j = sorted(ids[name] for name in pair)
            cell = prox.cells[i, j]
            assert abs(math.sqrt(cell.key) - oracle_values[pair]) < 1e-9
            if abs(float(cell.display) - reference) > 0.005:
                mismatches[pair] = cell
        assert len(REFERENCE_FIRST_PROXIMITY) == 45
        assert set(mismatches) == set(FIRST_PROXIMITY_CORRECTIONS)
        for pair, corrected in FIRST_PROXIMITY_CORRECTIONS.items():
            assert abs(float(mismatches[pair].display) - corrected) <= 0.005
            assert abs(oracle_values[pair] - corrected) <= 0.005


def test_criterion_3_round_trace_fidelity(stacks):
    with criterion(3, "round trace: 4 rounds, reference snapshots plus "
                      "3 oracle-corrected cells"):
        dend, trace = cluster(stacks.pattern, Metric.EUCLIDEAN,
                              policy=MergePolicy.PAPER_REPRO)
        shape = [
            (r.min_key.display,
             [(m.new.label, tuple(c.label for c in m.constituents)) for m in r.merges])
            for r in trace
        ]
        assert shape == [
            ("0.00", [("C1", ("isEmptyRef", "rPush", "rPop")),
                      ("C2", ("isEmptyExec", "ePush", "ePop"))]),
            ("1.00", [("C3", ("initRef", "traRef")),
                      ("C4", ("initExec", "traExec"))]),
            ("1.00", [("C5", ("C1", "C3")), ("C6", ("C2", "C4"))]),
            ("2.00", [("C7", ("C5", "C6"))]),
        ]

        rows = list(stacks.pattern.rows)
        for merge_round, (reference, corrections) in zip(
                trace, REFERENCE_ROUND_SNAPSHOTS):
            prox = merge_round.matrix_after
            ids = {c.label: c.id for c in prox.active}
            assert len(reference) == len(prox.cells)
            mismatches = {}
            for pair, printed in reference.items():
                i, j = sorted(ids[name] for name in pair)
                cell = prox.cells[i, j]
                expected = oracle.group_key(
                    "euclidean", rows, dend.members(i), dend.members(j))
                assert cell.key == expected
                if abs(float(cell.display) - printed) > 0.005:
                    mismatches[pair] = cell
            assert set(mismatches) == set(corrections)
            for pair, corrected in corrections.items():
                assert abs(float(mismatches[pair].display) - corrected) <= 0.005


def test_criterion_4_candidate_object_conclusion(stacks):
    with criterion(4, "k=2 cut attributes the groups to refstack and "
                      "execstack at affinity 1"):
        dend, _ = cluster(stacks.pattern, Metric.EUCLIDEAN,
                          policy=MergePolicy.PAPER_REPRO)
        report = label_clusters(cut_k(dend, 2), stacks.pattern, stacks.schema)
        assert len(report.entries) == 2
        assert [e.dominant_subject for e in report.entries] == [
            "refstack", "execstack"]
        assert all(e.affinity == Fraction(1) for e in report.entries)
        assert not any(e.is_ambiguous for e in report.entries)


def test_criterion_5_property_suite():
    with criterion(5, "oracle equivalence on 500 random matrices plus "
                      "exhaustive metric invariants"):
        rng = random.Random(0xC0FFEE)
        metrics = list(Metric)
        for case in range(500):
            rows = random_rows(rng)
            metric = metrics[case % len(metrics)]
            name = METRIC_NAMES[metric]
            pairwise = [[oracle.pair_key(name, a, b) for b in rows] for a in rows]
            pattern = make_pattern(rows)
            for policy in MergePolicy:
                dend, trace = cluster(pattern, metric, policy=policy)
                for merge_round in trace:
                    for (a, b), cell in merge_round.matrix_after.cells.items():
                        expected = min(
                            pairwise[p][q]
                            for p in dend.members(a) for q in dend.members(b))
                        assert cell.key == expected
            heights = [r.min_key.key for r in cluster(pattern, metric).trace]
            assert heights == sorted(heights)
            for policy in MergePolicy:
                groups_e = [
                    [dend_e.members(m.new.id) for m in r.merges]
                    for dend_e, trace_e in
                    [cluster(pattern, Metric.EUCLIDEAN, policy=policy)]
                    for r in trace_e
                ]
                groups_m = [
                    [dend_m.members(m.new.id) for m in r.merges]
                    for dend_m, trace_m in
                    [cluster(pattern, Metric.MANHATTAN, policy=policy)]
                    for r in trace_m
                ]
                assert groups_e == groups_m

        from objident import distance
        six_bit = list(itertools.product((0, 1), repeat=6))
        for a, b in itertools.combinations_with_replacement(six_bit, 2):
            for metric in Metric:
                forward = distance(metric, a, b)
                assert forward == distance(metric, b, a)
                upper = 6 if metric in (Metric.EUCLIDEAN, Metric.MANHATTAN) else 1
                assert 0 <= forward.key <= upper
                if a == b:
                    assert forward.key == 0
            assert abs(math.sqrt(distance(Metric.EUCLIDEAN, a, b).key)
                       - oracle.euclidean_value(a, b)) < 1e-9


def test_criterion_6_determinism(tmp_path):
    with criterion(6, "byte-identical outputs and permutation-stable "
                      "partitions"):
        blobs = []
        for attempt in ("one", "two"):
            base = tmp_path / attempt
            for fmt in ("ascii", "dot", "structured"):
                code = main([
                    "cluster", "--input", str(FIXTURE_DIR / "stacks.json"),
                    "--kind", "components", "--policy", "paper",
                    "--cut", "k:2",
                    "--trace", str(base / "trace.json"),
                    "--dendrogram", str(base / f"tree.{fmt}"),
                    "--format", fmt,
                    "--report", str(base / "report.json"),
                ])
                assert code == 0
            blobs.append([
                (base / name).read_bytes()
                for name in ("trace.json", "tree.ascii", "tree.dot",
                             "tree.structured", "report.json")
            ])
        assert blobs[0] == blobs[1]

        reference_cuts = None
        for order in itertools.permutations(UNIQUE_MIN_ROWS):
            pattern = make_pattern(
                [UNIQUE_MIN_ROWS[k] for k in order], labels=list(order))
            dend, _ = cluster(pattern, Metric.EUCLIDEAN,
                              policy=MergePolicy.SEQUENTIAL)
            cuts = [
                frozenset(frozenset(g.members) for g in cut_k(dend, k))
                for k in range(1, 5)
            ]
            if reference_cuts is None:
                reference_cuts = cuts
            assert cuts == reference_cuts


def test_criterion_7_parser_fidelity(stacks):
    with criterion(7, "declaration parsing round-trips to the criterion-1 "
                      "matrix; malformed lines carry line numbers"):
        subjects, records = parse_declarations(
            (FIXTURE_DIR / "stacks.decls").read_text())
        assert len(records) == 10
        text = canonical_json(components_document(subjects, records))
        subjects2, records2 = parse_components(text)
        assert (subjects2, records2) == (subjects, records)
        pattern = build_pattern_matrix(records2, derive_relations(subjects2))
        assert pattern.rows == tuple(STACKS_GOLD_ROWS.values())
        assert pattern.row_labels == tuple(STACKS_GOLD_ROWS)

        for bad_line, expected_line in [
            ("int ok (int n)\nstruct oops\n", 2),
            ("%types a\nint f (int n)\nint f (int n)\n", 3),
            ("int f (int n) ! uses stack\n", 1),
        ]:
            try:
                parse_declarations(bad_line)
            except ParseError as exc:
                assert exc.line == expected_line
            else:
                raise AssertionError(f"accepted malformed input: {bad_line!r}")
