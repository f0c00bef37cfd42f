import itertools
import random
from fractions import Fraction

import pytest

from objident import (
    ConfigError,
    MergePolicy,
    Metric,
    ValidationError,
    cluster,
    cut_k,
    distance,
    initial_proximity,
    policy_from_name,
)
from objident import engine
from objident.features import (
    ComponentRecord,
    Relation,
    RelationKind,
    RelationSchema,
    build_pattern_matrix,
)

import oracle

METRIC_NAMES = {
    Metric.EUCLIDEAN: "euclidean",
    Metric.MANHATTAN: "manhattan",
    Metric.SIMPLE_MATCHING: "smc",
    Metric.JACCARD: "jaccard",
}


def make_pattern(rows, labels=None):
    """Realize arbitrary binary rows: one uses-field column per subject."""
    labels = labels or [f"f{i}" for i in range(len(rows))]
    t = len(rows[0])
    subjects = tuple(f"s{j}" for j in range(t))
    schema = RelationSchema(subjects, tuple(
        Relation(RelationKind.USES_FIELD, s, f"R{j}") for j, s in enumerate(subjects)))
    records = [
        ComponentRecord(label, None, (),
                        frozenset(s for s, bit in zip(subjects, row) if bit))
        for label, row in zip(labels, rows)
    ]
    pattern = build_pattern_matrix(records, schema)
    assert pattern.rows == tuple(tuple(row) for row in rows)
    return pattern


def pair_ints(pattern, metric):
    """The replay's table before any merge: one list of ints per row, filled
    from the engine's buckets of distinct-row pairs."""
    return engine._leaf_table(pattern, metric)


def by_label(prox, a, b):
    ids = {c.label: c.id for c in prox.active}
    return prox.cells[tuple(sorted((ids[a], ids[b])))]


def leaf_members(dend, node_id):
    return frozenset(dend.nodes[i].label for i in dend.members(node_id))


def test_initial_proximity_examples(stacks):
    prox = initial_proximity(stacks.pattern, Metric.EUCLIDEAN)
    assert by_label(prox, "isEmptyRef", "rPush").display == "0.00"
    assert by_label(prox, "traRef", "initRef").display == "1.00"
    assert by_label(prox, "traRef", "isEmptyRef").key == Fraction(1)
    assert by_label(prox, "traRef", "isEmptyRef").display == "1.00"
    assert by_label(prox, "ePush", "initRef").key == Fraction(4)
    assert by_label(prox, "ePush", "initRef").display == "2.00"


def test_initial_proximity_needs_two_rows():
    with pytest.raises(ValidationError):
        initial_proximity(make_pattern([(0, 1)]), Metric.EUCLIDEAN)


def test_paper_zero_closure_round(stacks):
    first = cluster(stacks.pattern, Metric.EUCLIDEAN,
                    policy=MergePolicy.PAPER_REPRO).trace[0]
    assert first.min_key.key == 0
    assert [[c.label for c in m.constituents] for m in first.merges] == [
        ["isEmptyRef", "rPush", "rPop"],
        ["isEmptyExec", "ePush", "ePop"],
    ]


def test_select_merges_second_round_pairs(stacks):
    dend, trace = cluster(stacks.pattern, Metric.EUCLIDEAN,
                          policy=MergePolicy.PAPER_REPRO)
    second = trace[1]
    assert second.min_key.display == "1.00"
    assert [(m.new.label, [c.label for c in m.constituents]) for m in second.merges] == [
        ("C3", ["initRef", "traRef"]),
        ("C4", ["initExec", "traExec"]),
    ]


def test_unique_minimum_both_policies():
    pattern = make_pattern([(0, 0, 0), (0, 0, 1), (1, 1, 1)])
    for policy in MergePolicy:
        first = cluster(pattern, Metric.EUCLIDEAN, policy=policy).trace[0]
        assert [[c.label for c in m.constituents] for m in first.merges] == [["f0", "f1"]]
        assert first.min_key.key == 1


def test_single_linkage_minimum_rule_examples(stacks):
    first = cluster(stacks.pattern, Metric.EUCLIDEAN,
                    policy=MergePolicy.PAPER_REPRO).trace[0]
    assert by_label(first.matrix_after, "C1", "initRef").display == "1.41"
    assert by_label(first.matrix_after, "C1", "traRef").display == "1.00"


def test_linkage_update_between_merged_clusters(stacks):
    dend, trace = cluster(stacks.pattern, Metric.EUCLIDEAN,
                          policy=MergePolicy.PAPER_REPRO)
    assert by_label(trace[1].matrix_after, "C3", "C4").display == "2.00"


def test_cluster_reproduction_trace(stacks):
    dend, trace = cluster(stacks.pattern, Metric.EUCLIDEAN,
                          policy=MergePolicy.PAPER_REPRO)
    shape = [
        (r.round_index, r.min_key.display,
         [(m.new.label, [c.label for c in m.constituents]) for m in r.merges])
        for r in trace
    ]
    assert shape == [
        (1, "0.00", [("C1", ["isEmptyRef", "rPush", "rPop"]),
                     ("C2", ["isEmptyExec", "ePush", "ePop"])]),
        (2, "1.00", [("C3", ["initRef", "traRef"]),
                     ("C4", ["initExec", "traExec"])]),
        (3, "1.00", [("C5", ["C1", "C3"]), ("C6", ["C2", "C4"])]),
        (4, "2.00", [("C7", ["C5", "C6"])]),
    ]


def test_cluster_two_identical_rows():
    pattern = make_pattern([(0, 1), (0, 1)])
    dend, trace = cluster(pattern, Metric.EUCLIDEAN,
                          policy=MergePolicy.PAPER_REPRO)
    assert len(trace) == 1
    assert trace[0].min_key.key == 0
    assert dend.nodes[dend.root].height.display == "0.00"


def test_sequential_matches_brute_force_oracle(stacks):
    dend, trace = cluster(stacks.pattern, Metric.EUCLIDEAN,
                          policy=MergePolicy.SEQUENTIAL)
    assert len(trace) == 9
    steps = oracle.single_linkage_steps(list(stacks.pattern.rows), "euclidean")
    assert len(steps) == 9
    for merge_round, (key, pair_ids, members) in zip(trace, steps):
        merge = merge_round.merges[0]
        assert merge_round.min_key.key == key
        assert tuple(sorted(c.id for c in merge.constituents)) == tuple(sorted(pair_ids))
        assert dend.members(merge.new.id) == members


def test_sequential_pre_root_partition_splits_by_stack(stacks):
    dend, trace = cluster(stacks.pattern, Metric.EUCLIDEAN,
                          policy=MergePolicy.SEQUENTIAL)
    partition = cut_k(dend, 2)
    groups = {frozenset(g.members) for g in partition}
    assert groups == {
        frozenset({"initRef", "isEmptyRef", "rPush", "rPop", "traRef"}),
        frozenset({"initExec", "isEmptyExec", "ePush", "ePop", "traExec"}),
    }


def test_sequential_heights_non_decreasing(stacks):
    for metric in Metric:
        dend, trace = cluster(stacks.pattern, metric)
        keys = [r.min_key.key for r in trace]
        assert keys == sorted(keys)


def random_rows(rng, n=None, t=None):
    n = n or rng.randint(2, 10)
    t = t or rng.randint(1, 8)
    return [tuple(rng.randint(0, 1) for _ in range(t)) for _ in range(n)]


def test_cells_match_brute_force_on_random_matrices():
    rng = random.Random(20240601)
    metrics = list(Metric)
    for case in range(80):
        rows = random_rows(rng)
        metric = metrics[case % len(metrics)]
        pattern = make_pattern(rows)
        for policy in MergePolicy:
            dend, trace = cluster(pattern, metric, policy=policy)
            for merge_round in trace:
                prox = merge_round.matrix_after
                for (a, b), cell in prox.cells.items():
                    expected = oracle.group_key(
                        METRIC_NAMES[metric], rows,
                        dend.members(a), dend.members(b))
                    assert cell.key == expected


def oracle_rounds(rows, metric_name, policy):
    """The oracle's rounds as (key, [(member_ids, new_id), ...]) lists."""
    if policy is MergePolicy.PAPER_REPRO:
        return oracle.paper_rounds(rows, metric_name)
    n = len(rows)
    return [(key, [(pair, n + step)]) for step, (key, pair, _) in
            enumerate(oracle.single_linkage_steps(rows, metric_name))]


def assert_matches_oracle(rows, metric):
    """Both policies' merges and every round's snapshot equal the oracle's."""
    name = METRIC_NAMES[metric]
    pattern = make_pattern(rows)
    for policy in MergePolicy:
        expected = oracle_rounds(rows, name, policy)
        trace = cluster(pattern, metric, policy=policy).trace
        assert [
            (r.min_key.key,
             [(tuple(c.id for c in m.constituents), m.new.id) for m in r.merges])
            for r in trace
        ] == expected
        members = {i: frozenset((i,)) for i in range(len(rows))}
        for merge_round, (_, merges) in zip(trace, expected):
            for group, new in merges:
                members[new] = frozenset().union(*(members.pop(i) for i in group))
            prox = merge_round.matrix_after
            assert [c.id for c in prox.active] == sorted(members)
            for (a, b), cell in prox.cells.items():
                assert cell.key == oracle.group_key(
                    name, rows, members[a], members[b])


def test_tie_order_and_snapshots_match_oracle_both_policies():
    # Few columns make ties and copies common, so the id-order tie rules
    # decide most merges.
    rng = random.Random(20261018)
    metrics = list(Metric)
    for case in range(320):
        rows = random_rows(rng, n=rng.randint(2, 9), t=rng.randint(1, 4))
        assert_matches_oracle(rows, metrics[case % len(metrics)])


@pytest.mark.parametrize("metric", list(Metric))
def test_star_tie_order_matches_oracle_both_policies(metric):
    # One empty row plus one row per column with only that bit set.  Under
    # the mismatch-count metrics every one-bit row is nearest the empty row
    # and ties with all the others; under Jaccard every pair ties.  Most
    # merges take away some rows' partner, so the partner repair decides
    # the tree.  The same rows with copies (a second empty row, and one
    # one-bit row three times) add a zero round under the paper policy and
    # leave dead clusters at the repeated distances of every row.
    for width in range(1, 8):
        one_bit = [tuple(int(i == j) for i in range(width)) for j in range(width)]
        for empty_at in sorted({0, width // 2, width}):
            rows = one_bit[:empty_at] + [(0,) * width] + one_bit[empty_at:]
            assert_matches_oracle(rows, metric)
            half = len(rows) // 2
            copy = one_bit[width // 2]
            assert_matches_oracle(
                [copy] + rows[:half] + [copy] + rows[half:] + [(0,) * width], metric)


@pytest.mark.parametrize(
    "metric", [Metric.EUCLIDEAN, Metric.MANHATTAN, Metric.SIMPLE_MATCHING], ids=lambda m: m.value)
def test_hamming_four_cycle_follows_the_id_order_tie_rule(metric):
    # a-b, b-c, c-d and d-a are 2 apart, a-c and b-d 4 apart, so ties decide
    # every merge.  Kruskal with its edges in leaf-id order would give
    # (((a, b), d), c) instead.
    pattern = make_pattern([(0, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0), (1, 0, 0, 0)],
                           labels=list("abcd"))

    def rounds(policy):
        return [[(m.new.label, tuple(c.label for c in m.constituents)) for m in r.merges]
                for r in cluster(pattern, metric, policy=policy).trace]

    c1, c2, c3 = ("C1", ("a", "b")), ("C2", ("c", "d")), ("C3", ("C1", "C2"))
    assert rounds(MergePolicy.SEQUENTIAL) == [[c1], [c2], [c3]]
    assert rounds(MergePolicy.PAPER_REPRO) == [[c1, c2], [c3]]


def test_snapshots_read_out_of_order_match_in_order_reads():
    # Reading an earlier round than the last one read restarts the replay.
    rng = random.Random(31)
    for case in range(12):
        rows = random_rows(rng, n=rng.randint(6, 14), t=rng.randint(2, 5))
        for policy in MergePolicy:
            trace = cluster(make_pattern(rows), list(Metric)[case % 4], policy=policy).trace

            def read(order):
                return {i: (trace[i].matrix_after.keys,
                            [c.id for c in trace[i].matrix_after.active]) for i in order}

            in_order = read(range(len(trace)))
            shuffled = list(range(len(trace)))
            rng.shuffle(shuffled)
            assert read(reversed(range(len(trace)))) == in_order
            assert read(shuffled) == in_order


def test_euclidean_manhattan_identical_traces():
    rng = random.Random(99)
    for _ in range(40):
        rows = random_rows(rng)
        pattern = make_pattern(rows)
        for policy in MergePolicy:
            trace_e = cluster(pattern, Metric.EUCLIDEAN, policy=policy).trace
            trace_m = cluster(pattern, Metric.MANHATTAN, policy=policy).trace
            shape_e = [[{c.id for c in m.constituents} for m in r.merges] for r in trace_e]
            shape_m = [[{c.id for c in m.constituents} for m in r.merges] for r in trace_m]
            assert shape_e == shape_m


def test_merge_counts():
    rng = random.Random(4)
    for _ in range(40):
        rows = random_rows(rng)
        pattern = make_pattern(rows)
        dend, trace = cluster(pattern, Metric.JACCARD)
        assert sum(len(r.merges) for r in trace) == len(rows) - 1
        dend, trace = cluster(pattern, Metric.JACCARD, policy=MergePolicy.PAPER_REPRO)
        assert sum(len(r.merges) for r in trace) <= len(rows) - 1
        assert all(len(r.merges) >= 1 for r in trace)


# Pairwise distances 1, 3, 7, 2, 6, 4: unique at every step, so the
# hierarchy must not depend on row order.
UNIQUE_MIN_ROWS = {
    "a": (0, 0, 0, 0, 0, 0, 0, 0),
    "b": (0, 0, 0, 0, 0, 0, 0, 1),
    "c": (0, 0, 0, 0, 0, 1, 1, 1),
    "d": (0, 1, 1, 1, 1, 1, 1, 1),
}


def test_permutation_invariance_with_unique_minima():
    reference = None
    for order in itertools.permutations(UNIQUE_MIN_ROWS):
        pattern = make_pattern([UNIQUE_MIN_ROWS[k] for k in order], labels=list(order))
        dend, trace = cluster(pattern, Metric.EUCLIDEAN)
        hierarchy = frozenset(leaf_members(dend, nid)
                              for nid in dend.nodes if not dend.nodes[nid].is_leaf)
        if reference is None:
            reference = hierarchy
        assert hierarchy == reference
    assert frozenset({"a", "b"}) in reference
    assert frozenset({"a", "b", "c"}) in reference


def test_merge_below_its_parts_is_rejected():
    # Single linkage never does this; the guard keeps cut_height's use of a
    # node's own height as its subtree's maximum sound.
    replay = engine._Replay(make_pattern([(0, 0), (0, 1), (1, 1)]), Metric.EUCLIDEAN)
    exact = engine._ExactKeys(Metric.EUCLIDEAN, 2)
    first = replay.record((0, 2), exact[2], 1)
    with pytest.raises(ValidationError, match="below"):
        replay.record((1, first.id), exact[1], 2)


def test_name_resolution_helpers():
    assert policy_from_name("Paper") is MergePolicy.PAPER_REPRO
    assert policy_from_name("sequential") is MergePolicy.SEQUENTIAL
    with pytest.raises(ConfigError, match="random"):
        policy_from_name("random")


def test_proximity_matrix_diagonal_not_stored(stacks):
    prox = initial_proximity(stacks.pattern, Metric.EUCLIDEAN)
    assert len(prox.cells) == 45
    assert (0, 0) not in prox.cells


@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
def test_exact_keys_invert_every_int(metric):
    # Rows b_0..b_W with b_v = v leading ones: b_(u-x) and b_u differ in x
    # columns and have u set between them, so their int is the one for
    # (x, u), for every 0 <= x <= u <= W.
    for width in range(metric is Metric.SIMPLE_MATCHING, 41):
        rows = [(1,) * v + (0,) * (width - v) for v in range(width + 1)]
        ints = pair_ints(make_pattern(rows), metric)
        exact = engine._ExactKeys(metric, width)
        for u in range(width + 1):
            for x in range(u + 1):
                assert exact[ints[u - x][u]] == distance(metric, rows[u - x], rows[u]), \
                    (width, x, u)


def per_pair_int(metric, a, b):
    """The engine's int for two rows, computed on its own."""
    x = sum(p != q for p, q in zip(a, b))
    if metric is not Metric.JACCARD:
        return x
    u = sum(p | q for p, q in zip(a, b))
    return x * len(a) ** 2 // u if u else 0


@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
def test_pair_ints_with_planted_copies_match_per_pair_ints(metric):
    rng = random.Random(11)
    width = 6
    for _ in range(40):
        distinct = {tuple(rng.randint(0, 1) for _ in range(width))
                    for _ in range(rng.randint(1, 6))}
        rows = [*distinct, *rng.choices(sorted(distinct), k=rng.randint(1, 8))]
        rng.shuffle(rows)
        pattern = make_pattern(rows)
        # Each pair of distinct rows is bucketed once, as p * count + q, p < q.
        classes = engine._row_classes(pattern)
        count, buckets = len(classes), engine._pair_ints(pattern, metric, classes)
        assert sorted(pq for pairs in buckets.values() for pq in pairs) == [
            p * count + q for p, q in itertools.combinations(range(count), 2)]
        ints = pair_ints(pattern, metric)
        assert ints == [[per_pair_int(metric, a, b) for b in rows] for a in rows]
        for i, j in itertools.combinations(range(len(rows)), 2):
            if rows[i] == rows[j]:
                before = list(ints[j])
                ints[i][j] = -1
                ints[i].append(-1)
                assert ints[j] == before
