import gc
import itertools
import random
import re
import weakref
from fractions import Fraction
from functools import partial

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
from conftest import bit_rows

METRIC_NAMES = {
    Metric.EUCLIDEAN: "euclidean",
    Metric.MANHATTAN: "manhattan",
    Metric.SIMPLE_MATCHING: "smc",
    Metric.JACCARD: "jaccard",
}


def uses_schema(width):
    """Subjects s0..s(width-1), and one uses-field column for each."""
    subjects = tuple(f"s{j}" for j in range(width))
    return RelationSchema(subjects, tuple(
        Relation(RelationKind.USES_FIELD, s, f"R{j}") for j, s in enumerate(subjects)))


def make_pattern(rows, labels=None):
    """Realize arbitrary binary rows over ``uses_schema``'s columns."""
    labels = labels or [f"f{i}" for i in range(len(rows))]
    schema = uses_schema(len(rows[0]))
    records = [
        ComponentRecord(label, None, (),
                        frozenset(s for s, bit in zip(schema.subject_types, row) if bit))
        for label, row in zip(labels, rows)
    ]
    pattern = build_pattern_matrix(records, schema)
    assert bit_rows(pattern) == tuple(tuple(row) for row in rows)
    return pattern


def pair_ints(pattern, metric):
    """The int of every two rows, one full list per row: the replay's lower
    triangle before any merge, mirrored, with 0 on the diagonal."""
    low = engine._leaf_table(pattern, metric)
    return [[low[p][q] if q < p else low[q][p] if q > p else 0 for q in range(len(low))]
            for p in range(len(low))]


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
    steps = oracle.single_linkage_steps(list(bit_rows(stacks.pattern)), "euclidean")
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
    """Both policies' merges and every round's snapshot equal the oracle's,
    with the snapshots read in order and then shuffled."""
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
        snapshots = []
        for _, merges in expected:
            for group, new in merges:
                members[new] = frozenset().union(*(members.pop(i) for i in group))
            ids = sorted(members)
            snapshots.append((ids, {(a, b): oracle.group_key(name, rows, members[a], members[b])
                                    for x, a in enumerate(ids) for b in ids[x + 1:]}))
        order = list(range(len(trace)))
        for reading in (order, random.Random(str(rows)).sample(order, len(order))):
            for index in reading:
                prox = trace[index].matrix_after
                assert ([c.id for c in prox.active],
                        {pair: cell.key for pair, cell in prox.cells.items()}) == snapshots[index]


def test_tie_order_and_snapshots_match_oracle_both_policies():
    # Few columns make ties and copies common, so the id-order tie rules
    # decide most merges.
    rng = random.Random(20261018)
    metrics = list(Metric)
    for case in range(320):
        rows = random_rows(rng, n=rng.randint(2, 9), t=rng.randint(1, 4))
        assert_matches_oracle(rows, metrics[case % len(metrics)])
    # Classes of three or more spread-out copies: under the paper policy each
    # merges whole, so the replay drops several rows and columns at once.
    for case in range(80):
        distinct = random_rows(rng, n=rng.randint(1, 4), t=rng.randint(2, 5))
        rows = (distinct + [distinct[0]] * rng.randint(2, 4)
                + rng.choices(distinct, k=rng.randint(0, 5)))
        rng.shuffle(rows)
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


VIEWS = (lambda e: e.display, lambda e: (e.key, e.metric))


def viewed(views, matrix):
    """Each view's lower triangle of ``matrix``, as ``walk_rounds`` hands it out."""
    return tuple([[view(matrix.exact[k]) for k in row] for row in matrix.keys]
                 for view in views)


def test_walk_rounds_tables_are_views_of_the_matrix():
    # In any read order, each step's table per view is that view of the
    # round's matrix, a row per active cluster.
    rng = random.Random(32)
    for case in range(6):
        rows = random_rows(rng, n=rng.randint(6, 14), t=rng.randint(2, 5))
        for metric, policy in itertools.product(Metric, MergePolicy):
            trace = cluster(make_pattern(rows), metric, policy=policy).trace
            shuffled = list(trace)
            rng.shuffle(shuffled)
            for order in (trace, trace[::-1], trace[::2], shuffled):
                for views in (VIEWS, VIEWS[:1], ()):
                    read = []
                    for step in engine.walk_rounds(order, *views):
                        matrix = step.round.matrix_after
                        assert step.active == matrix.active
                        assert step.tables == viewed(views, matrix)
                        read.append(step.round)
                    assert read == list(order)


def test_walk_rounds_owns_its_tables():
    trace = cluster(make_pattern(random_rows(random.Random(33), n=12)),
                    Metric.EUCLIDEAN).trace
    steps = engine.walk_rounds(trace, *VIEWS)
    step = next(steps)
    tables = tuple([row.copy() for row in table] for table in step.tables)
    # The public replay goes to the last round and back to the first.
    assert len(trace[-1].matrix_after.active) == 1
    assert viewed(VIEWS, trace[0].matrix_after) == tables
    assert step.tables == tables
    rest = [(s.active, viewed(VIEWS, s.round.matrix_after), s.tables) for s in steps]
    assert [(active, table) for active, table, _ in rest] == [
        (r.matrix_after.active, viewed(VIEWS, r.matrix_after)) for r in trace[1:]]
    # The tables are the walk's own, moved on in place.
    assert all(s_tables is step.tables for _, _, s_tables in rest)
    assert list(engine.walk_rounds(())) == []
    assert list(engine.walk_rounds((), *VIEWS)) == []
    other = cluster(make_pattern(random_rows(random.Random(34), n=5)), Metric.EUCLIDEAN).trace
    with pytest.raises(ValidationError, match="one run"):
        list(engine.walk_rounds(trace[:1] + other[:1], *VIEWS))


def test_walk_rounds_calls_each_view_once_per_distinct_distance():
    # The walk keeps every view's results for the whole run, across its
    # starts from the leaves, so a sequential run's O(n^3) cells take O(n^2)
    # calls, one per distinct distance of the leaf table.
    rng = random.Random(35)
    for case in range(6):
        rows = random_rows(rng, n=rng.randint(6, 14), t=rng.randint(2, 5))
        for metric, policy in itertools.product(Metric, MergePolicy):
            pattern = make_pattern(rows)
            trace = cluster(pattern, metric, policy=policy).trace
            distinct = sorted(set(initial_proximity(pattern, metric).cells.values()))
            shuffled = list(trace)
            rng.shuffle(shuffled)
            for order in (trace, trace[::-1], trace[::2], shuffled, trace + trace, trace[-1:]):
                calls: tuple[list, list] = ([], [])
                views = [lambda e, seen=seen, view=view: seen.append(e) or view(e)
                         for seen, view in zip(calls, VIEWS)]
                for _ in engine.walk_rounds(order, *views):
                    pass
                assert [sorted(seen) for seen in calls] == [distinct, distinct]
    assert list(engine.walk_rounds((), lambda e: pytest.fail("called"))) == []


@pytest.mark.parametrize("read", ["untouched", "matrix_after", "walk_rounds"])
def test_dropped_result_frees_its_replay_without_a_collection(read):
    # Each round holds the run's triangle, and nothing the triangle holds
    # (its nodes, memos, or a walk_rounds triangle) may hold a round or the
    # triangle back: a cycle would keep a dropped run alive until a
    # collection.
    result = cluster(make_pattern(random_rows(random.Random(36), n=12)), Metric.EUCLIDEAN)
    if read == "matrix_after":
        assert [len(r.matrix_after.active) for r in result.trace][-1] == 1
    elif read == "walk_rounds":
        assert len(list(engine.walk_rounds(result.trace, *VIEWS))) == len(result.trace)
    replay = weakref.ref(result.trace[0]._replay)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del result
        assert replay() is None
    finally:
        if enabled:
            gc.enable()


def test_names_for_metric_or_policy_are_refused():
    # A name is not a Metric: compared by identity, it would fall through
    # to the mismatch count, and a policy name to the sequential policy.
    pattern = make_pattern([(1, 0, 1), (1, 1, 0), (0, 1, 1)])
    for call in (lambda: cluster(pattern, "jaccard"),
                 lambda: cluster(pattern, "jaccard", "paper"),
                 lambda: initial_proximity(pattern, "jaccard")):
        with pytest.raises(ValidationError, match="'jaccard'"):
            call()
    for policy in ("paper", "sequential", None):
        with pytest.raises(ValidationError, match=repr(policy)):
            cluster(pattern, Metric.JACCARD, policy)
    assert len(cluster(pattern, Metric.JACCARD, MergePolicy.PAPER_REPRO).trace) == 2


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
    # node's own height as its subtree's maximum sound.  It compares the
    # engine's ints, whose order must be the heights' under every metric.
    # A level source of its own merges rows 0 and 2 at their distance, then
    # row 1 into that cluster at `second`.
    pattern = make_pattern([(0, 0, 1), (0, 1, 1), (1, 1, 1)])
    for metric, policy in itertools.product(Metric, MergePolicy):
        (near,), (far, _) = engine._leaf_table(pattern, metric)[1:]
        cells = initial_proximity(pattern, metric).cells
        assert cells[0, 1] < cells[0, 2]

        def walk(second):
            source = [(far, [(0, 2)]), (second, [(1, 0)])]
            return engine._cluster(pattern, metric, policy, lambda *_: iter(source))

        message = f"merge at {cells[0, 1].display} would sit below one of its parts"
        with pytest.raises(ValidationError, match=re.escape(message)):
            walk(near)
        # A merge at its part's own height is allowed: a level's merges share it.
        trace = walk(far).trace
        assert [[m.new.children for m in r.merges] for r in trace] == [[(0, 2)], [(1, 3)]]
        assert [r.min_key for r in trace] == [cells[0, 2]] * 2


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
        for u in range(width + 1):
            for x in range(u + 1):
                assert engine._exact(metric, width, ints[u - x][u]) == distance(
                    metric, rows[u - x], rows[u]), \
                    (width, x, u)


def per_pair_int(metric, a, b):
    """The engine's int for two rows, computed on its own."""
    x = sum(p != q for p, q in zip(a, b))
    if metric is not Metric.JACCARD:
        return x
    u = sum(p | q for p, q in zip(a, b))
    return x * len(a) ** 2 // u if u else 0


def drain(pattern, metric, dense):
    """Every (int, p, q), p < q, that ``_levels`` lists for the classes of
    ``pattern`` while each class is a cluster of its own, and the ints of
    its levels in the order listed.  A pair (p, p), which the walk skips,
    is left out."""
    classes = engine._row_classes(pattern)
    inside = {c: [c] for c in range(len(classes))}
    listed, keys = [], []
    for key, pairs in engine._levels(pattern, metric, classes, inside, dense):
        keys.append(key)
        listed += [(key, min(p, q), max(p, q)) for p, q in pairs if p != q]
    return listed, keys


def last_merge_int(rows, metric):
    """The longest edge of a minimum spanning tree over ``rows`` under the
    engine's ints: the level of single linkage's last merge."""
    joined, longest = {0}, 0
    while len(joined) < len(rows):
        key, q = min((per_pair_int(metric, rows[p], rows[q]), q)
                     for p in joined for q in range(len(rows)) if q not in joined)
        joined.add(q)
        longest = max(longest, key)
    return longest


@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
def test_pair_ints_with_planted_copies_match_per_pair_ints(metric):
    rng = random.Random(11)
    width = 6
    inputs = []
    for _ in range(40):
        distinct = {tuple(rng.randint(0, 1) for _ in range(width))
                    for _ in range(rng.randint(1, 6))}
        rows = [*distinct, *rng.choices(sorted(distinct), k=rng.randint(1, 8))]
        rng.shuffle(rows)
        inputs.append(rows)
    # Copies of the all-zero row: under Jaccard two empty rows are at 0,
    # though their x/u would be 0/0.
    zero, ends, middle = (0,) * width, (1, 0, 0, 0, 0, 1), (0, 1, 1, 0, 0, 0)
    inputs.append([zero, ends, zero, middle, zero, ends])
    for rows in inputs:
        pattern = make_pattern(rows)
        distinct = [rows[ids[0]] for ids in engine._row_classes(pattern)]
        every = sorted((per_pair_int(metric, distinct[p], distinct[q]), p, q)
                       for p, q in itertools.combinations(range(len(distinct)), 2))
        # The sparse source lists each pair of distinct rows at its int, with
        # the levels ascending and each level listed once: the pairs that
        # share a column from the index, the others from the row weights.
        # A level of the weights gets one pair per two clusters (each class
        # is one here, as drain merges nothing) with classes of weights of
        # that sum, every two under Jaccard, whether they share a column or
        # not; those that do are below that level, where a walk merges them.
        listed, keys = drain(pattern, metric, dense=False)
        assert len(set(listed)) == len(listed) and set(every) <= set(listed)
        for key, p, q in set(listed) - set(every):
            level = width * width if metric is Metric.JACCARD else sum(distinct[p] + distinct[q])
            assert key == level > per_pair_int(metric, distinct[p], distinct[q]), (key, p, q)
        assert keys == sorted(set(keys))
        # The dense source computes every pair, and lists those up to the
        # last merge, which no later level can hold.
        dense, keys = drain(pattern, metric, dense=True)
        last = last_merge_int(distinct, metric) if len(distinct) > 1 else -1
        assert sorted(dense) == [pair for pair in every if pair[0] <= last]
        assert keys == sorted(set(keys))
        # By default, the source is dense when a column index would list
        # more pairs, repeats included, than there are.
        indexed = sum(k * (k - 1) // 2 for k in map(sum, zip(*distinct)))
        chosen = listed if indexed <= len(every) else dense
        assert sorted(drain(pattern, metric, dense=None)[0]) == sorted(chosen)
        assert pair_ints(pattern, metric) == [[per_pair_int(metric, a, b) for b in rows]
                                              for a in rows]
        # Each row, copies included, is computed against the rows before it
        # into a list of its own: the replay deletes from its rows in place.
        table = engine._leaf_table(pattern, metric)
        assert [len(row) for row in table] == list(range(len(rows)))
        assert len(set(map(id, table))) == len(rows)


def overlapping_pairs(pattern):
    distinct = list(dict.fromkeys(pattern.rows))
    return sum(1 for a, b in itertools.combinations(distinct, 2) if a & b)


@pytest.mark.parametrize("metric, policy, n", [
    (Metric.JACCARD, MergePolicy.PAPER_REPRO, 300),
    (Metric.EUCLIDEAN, MergePolicy.SEQUENTIAL, 200),
], ids=["jaccard-paper", "euclidean-sequential"])
def test_pair_source_computes_only_what_the_walk_reaches(monkeypatch, metric, policy, n):
    # An eager source, or a dense one, gives the same merges: only the
    # work it does tells it apart.
    from test_reference_net import generated

    pattern = generated(n, 0.5, n)
    computed, apart, listed = [], [], []
    row_ints, apart_pairs = engine._row_ints, engine._apart_pairs

    def counted_row_ints(metric, width, a, rows, weights):
        computed.append(len(rows))
        return row_ints(metric, width, a, rows, weights)

    def recorded_apart_pairs(key, *args):
        apart.append(key)
        return apart_pairs(key, *args)

    def recorded_levels(*args):
        for key, pairs in engine._levels(*args):
            listed.append(key)
            yield key, pairs

    monkeypatch.setattr(engine, "_row_ints", counted_row_ints)
    monkeypatch.setattr(engine, "_apart_pairs", recorded_apart_pairs)
    trace = engine._cluster(pattern, metric, policy, recorded_levels).trace
    # Only the pairs of distinct rows that share a column get an int.
    overlapping = overlapping_pairs(pattern)
    distinct = len(set(pattern.rows))
    assert sum(computed) == overlapping < distinct * (distinct - 1) // 2
    # No level past the last merge is listed, nor are its pairs looked for,
    # though the row weights make levels above it.
    assert engine._exact(metric, pattern.n_cols, listed[-1]) == trace[-1].min_key
    assert listed == sorted(set(listed)) and all(key <= listed[-1] for key in apart)
    if metric is Metric.JACCARD:
        assert trace[-1].min_key.key < 1 and not apart
    else:
        weights = {row.bit_count() for row in pattern.rows}
        assert apart and max(weights) * 2 > listed[-1]


@pytest.mark.parametrize("policy", list(MergePolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
def test_implicit_levels_meet_no_two_clusters_that_share_a_column(monkeypatch, metric, policy):
    # _apart_pairs names a level's pairs from the class weights alone: two
    # rows that share a column are below the sum of their weights (the top
    # level under Jaccard), so the walk has put them in one cluster before
    # it asks for that level.
    from test_reference_net import chain, generated, star

    apart_pairs, calls = engine._apart_pairs, []

    def checked(key, inside, weights):
        calls.append(key)
        at = {p: c for c, ps in inside.items() for p in ps}
        for p, q in itertools.combinations(at, 2):
            if at[p] != at[q] and (weights is None or weights[p] + weights[q] == key):
                assert not rows[p] & rows[q], (key, p, q)
        yield from apart_pairs(key, inside, weights)

    monkeypatch.setattr(engine, "_apart_pairs", checked)
    reached = []
    for pattern in (generated(200, 0.3, 28), star(101), chain(60)):
        rows = [pattern.rows[ids[0]] for ids in engine._row_classes(pattern)]
        engine._cluster(pattern, metric, policy, partial(engine._levels, dense=False))
        reached.append(bool(calls))
        calls.clear()
    # The generated corpus ends below Jaccard's top level, its one level of
    # the weights; the star and the chain reach one under every metric.
    assert reached == [metric is not Metric.JACCARD, True, True]
