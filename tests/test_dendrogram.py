import json
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from objident import (
    MergePolicy,
    Metric,
    ValidationError,
    build_pattern_matrix,
    canonical_json,
    cluster,
    cut_height,
    cut_k,
    derive_relations,
    label_clusters,
    parse_components,
    parse_declarations,
    render_ascii,
    render_dot,
)
from objident.dendrogram import DendroNode, Dendrogram
from objident.document import structured_chunks, to_structured
from objident.engine import MergeRound
from objident.metrics import ExactDissimilarity

from conftest import FIXTURE_DIR
from test_engine import make_pattern, uses_schema
from test_golden import INPUT_DIR

REF_GROUP = frozenset({"initRef", "isEmptyRef", "rPush", "rPop", "traRef"})
EXEC_GROUP = frozenset({"initExec", "isEmptyExec", "ePush", "ePop", "traExec"})


@pytest.fixture(scope="module")
def stacks_tree(stacks):
    return cluster(stacks.pattern, Metric.EUCLIDEAN, policy=MergePolicy.PAPER_REPRO)


@pytest.fixture(scope="module")
def two_leaf_tree():
    return cluster(make_pattern([(0, 1), (0, 1)]), Metric.EUCLIDEAN)


def test_cut_k_two_groups(stacks_tree):
    partition = cut_k(stacks_tree.dendrogram, 2)
    assert [g.label for g in partition] == ["C5", "C6"]
    assert frozenset(partition[0].members) == REF_GROUP
    assert frozenset(partition[1].members) == EXEC_GROUP


def test_cut_k_four_groups(stacks_tree):
    partition = cut_k(stacks_tree.dendrogram, 4)
    # Ordered by smallest member id: C3 holds initRef (id 0), C4 holds
    # initExec (id 1), then C1 and C2.
    assert [g.label for g in partition] == ["C3", "C4", "C1", "C2"]
    assert [set(g.members) for g in partition] == [
        {"initRef", "traRef"},
        {"initExec", "traExec"},
        {"isEmptyRef", "rPush", "rPop"},
        {"isEmptyExec", "ePush", "ePop"},
    ]


def test_cut_k_extremes(stacks_tree):
    dend = stacks_tree.dendrogram
    whole = cut_k(dend, 1)
    assert len(whole) == 1 and len(whole[0].members) == 10
    singletons = cut_k(dend, 10)
    assert [g.members for g in singletons] == [(n,) for n in dend.leaf_labels(dend.root)]


def test_cut_k_out_of_range(stacks_tree):
    for k in (0, -1, 11):
        with pytest.raises(ValidationError, match="out of range"):
            cut_k(stacks_tree.dendrogram, k)


def test_cut_k_unreachable_with_multiway_merges(stacks_tree):
    # The three-way merges make exactly-7 and exactly-9 group cuts
    # impossible; the neighbouring sizes all work.
    for k in (7, 9):
        with pytest.raises(ValidationError, match="not reachable"):
            cut_k(stacks_tree.dendrogram, k)
    for k in (5, 6, 8):
        assert len(cut_k(stacks_tree.dendrogram, k)) == k


def test_cut_height_zero(stacks_tree):
    partition = cut_height(stacks_tree.dendrogram, 0)
    assert [g.label for g in partition] == [
        "initRef", "initExec", "C1", "C2", "traRef", "traExec"]
    assert set(partition[2].members) == {"isEmptyRef", "rPush", "rPop"}
    assert set(partition[3].members) == {"isEmptyExec", "ePush", "ePop"}


def test_cut_height_one(stacks_tree):
    partition = cut_height(stacks_tree.dendrogram, "1.0")
    assert [g.label for g in partition] == ["C5", "C6"]
    assert frozenset(partition[0].members) == REF_GROUP


def test_cut_height_above_root(stacks_tree):
    for h in ("2.00", 2, 100):
        partition = cut_height(stacks_tree.dendrogram, h)
        assert len(partition) == 1
        assert len(partition[0].members) == 10


def test_cut_height_between_levels(stacks_tree):
    assert len(cut_height(stacks_tree.dendrogram, "0.5")) == 6
    assert len(cut_height(stacks_tree.dendrogram, "1.99")) == 2


def test_cut_height_rejects_bad_input(stacks_tree):
    with pytest.raises(ValidationError):
        cut_height(stacks_tree.dendrogram, -1)
    with pytest.raises(ValidationError):
        cut_height(stacks_tree.dendrogram, "tall")


@pytest.mark.parametrize("height", ["1/0", "1e999999999", "1e-999999999", "1e4300",
                                    float("inf"), float("nan"), Decimal("1e99999999"),
                                    Decimal("1e-99999999"), Decimal("NaN"),
                                    Decimal("Infinity"), "1_0", "1e1_0"])
def test_cut_height_refuses_unusable_heights_at_once(stacks_tree, height):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="invalid cut height"):
        cut_height(stacks_tree.dendrogram, height)
    assert time.perf_counter() - start < 1


def test_render_ascii_contents(stacks_tree):
    text = render_ascii(stacks_tree.dendrogram)
    assert "C7  2.00" in text
    assert "C5  1.00" in text
    assert "C6  1.00" in text
    assert "C1  0.00" in text
    for leaf in REF_GROUP | EXEC_GROUP:
        assert leaf in text


def test_render_ascii_two_leaves(two_leaf_tree):
    text = render_ascii(two_leaf_tree.dendrogram)
    assert text.splitlines() == ["C1  0.00", "|-- f0", "`-- f1"]


def test_render_ascii_deterministic(stacks_tree):
    assert render_ascii(stacks_tree.dendrogram) == render_ascii(stacks_tree.dendrogram)


def test_render_dot_structure(stacks_tree):
    text = render_dot(stacks_tree.dendrogram)
    assert text.startswith("digraph dendrogram {")
    assert text.count("shape=box") == 10
    assert text.count("label=") == 17
    assert text.count(" -> ") == 16
    assert 'n10 [label="C1\\n0.00"];' in text
    assert render_dot(stacks_tree.dendrogram) == text


def test_render_dot_two_leaves(two_leaf_tree):
    text = render_dot(two_leaf_tree.dendrogram)
    assert text.count("label=") == 3
    assert text.count(" -> ") == 2


def test_to_structured_rounds(stacks, stacks_tree):
    doc = to_structured(stacks_tree.dendrogram, stacks_tree.trace,
                        schema=stacks.schema, pattern=stacks.pattern)
    assert [r["round"] for r in doc["rounds"]] == [1, 2, 3, 4]
    assert [r["min_display"] for r in doc["rounds"]] == ["0.00", "1.00", "1.00", "2.00"]
    assert doc["rounds"][0]["merges"][0] == {
        "label": "C1", "member_labels": ["isEmptyRef", "rPush", "rPop"]}
    assert doc["pattern_matrix"]["rows"][0] == [0, 1, 0, 0, 0, 1]
    assert doc["schema"]["relations"][0] == {
        "label": "R0", "kind": "returns", "subject": "execstack"}
    last = doc["rounds"][2]["matrix"]
    assert last["labels"] == ["C5", "C6"]
    assert last["display_values"] == [["2.00"]]
    assert last["exact_keys"] == [[{"num": 4, "den": 1}]]


def test_to_structured_dendrogram_section(stacks_tree):
    doc = to_structured(stacks_tree.dendrogram, stacks_tree.trace)
    root = doc["dendrogram"]
    assert root["label"] == "C7"
    assert root["height"] == "2.00"
    assert [child["label"] for child in root["children"]] == ["C5", "C6"]


def test_to_structured_two_leaves(two_leaf_tree):
    doc = to_structured(two_leaf_tree.dendrogram, two_leaf_tree.trace)
    assert len(doc["rounds"]) == 1
    assert doc["dendrogram"]["children"] == [{"label": "f0"}, {"label": "f1"}]


def test_structured_serialize_parse_serialize_roundtrip(stacks, stacks_tree):
    doc = to_structured(stacks_tree.dendrogram, stacks_tree.trace,
                        schema=stacks.schema, pattern=stacks.pattern)
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text


def test_cut_height_agrees_with_cut_k_between_levels():
    # Distinct merge heights 1.00, 1.41, 2.00: any threshold between two
    # consecutive heights must reproduce the corresponding count cut.
    pattern = make_pattern([
        (0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 0, 0, 1, 1, 1),
        (0, 1, 1, 1, 1, 1, 1, 1),
    ], labels=["a", "b", "c", "d"])
    dend, _ = cluster(pattern, Metric.EUCLIDEAN)
    for h, k in (("0.5", 4), ("1.2", 3), ("1.7", 2), ("2.0", 1)):
        by_height = {frozenset(g.members) for g in cut_height(dend, h)}
        by_count = {frozenset(g.members) for g in cut_k(dend, k)}
        assert by_height == by_count


def test_cut_partitions_disjoint_and_cover(stacks_tree):
    dend = stacks_tree.dendrogram
    for k in (1, 2, 3, 4, 5, 6, 8, 10):
        partition = cut_k(dend, k)
        names = [m for g in partition for m in g.members]
        assert sorted(names) == sorted(dend.leaf_labels(dend.root))


def key_doc(key):
    return {"num": key.numerator, "den": key.denominator}


def reference_tree(d, node_id):
    node = d.nodes[node_id]
    if node.is_leaf:
        return {"label": node.label}
    kids = sorted(node.children, key=lambda c: min(d.members(c)))
    return {"label": node.label, "height": node.height.display,
            "height_key": key_doc(node.height.key), "round": node.round_index,
            "children": [reference_tree(d, c) for c in kids]}


def reference_matrix(prox):
    """One display string and one fresh key dict per cell, read through
    ``matrix_after``'s ``ProximityMatrix``."""
    rows = range(1, len(prox.active))
    cells = [[prox.cells[prox.active[j].id, prox.active[i].id] for j in range(i)]
             for i in rows]
    return {"labels": [c.label for c in prox.active],
            "display_values": [[c.display for c in row] for row in cells],
            "exact_keys": [[key_doc(c.key) for c in row] for row in cells]}


CORPORA = [FIXTURE_DIR / "stacks.json", FIXTURE_DIR / "stack_queue.json",
           INPUT_DIR / "syn40.json", INPUT_DIR / "syn48.json",
           INPUT_DIR / "syn32.decls", INPUT_DIR / "syn60.decls"]


def reference_text(dend, trace, doc):
    """``json.dumps`` of ``doc`` with its rounds and tree built by hand,
    every matrix read through ``matrix_after``."""
    reference = dict(doc, dendrogram=reference_tree(dend, dend.root), rounds=[
        {"round": r.round_index, "min_display": r.min_key.display,
         "min_key": key_doc(r.min_key.key),
         "merges": [{"label": m.new.label,
                     "member_labels": [c.label for c in m.constituents]}
                    for m in r.merges],
         "matrix": reference_matrix(r.matrix_after)}
        for r in trace])
    return json.dumps(reference, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("path", CORPORA, ids=lambda p: p.name)
def test_structured_text_matches_per_cell_reference(path):
    parse = parse_components if path.suffix == ".json" else parse_declarations
    subjects, records = parse(path.read_text())
    schema = derive_relations(subjects)
    pattern = build_pattern_matrix(records, schema)
    for metric in Metric:
        for policy in MergePolicy:
            dend, trace = cluster(pattern, metric, policy=policy)
            report = label_clusters(cut_height(dend, "0.5"), pattern, schema)
            sections = dict(schema=schema, pattern=pattern, report=report)
            doc = to_structured(dend, trace, **sections)
            text = reference_text(dend, trace, doc)
            assert canonical_json(doc) == text
            assert "".join(structured_chunks(dend, trace, **sections)) == text


# Names that need each kind of JSON escape, and some that need none but
# are not ASCII: a round's merges and labels are formatted by hand.
ESCAPED_NAMES = ['say "hi"', "back\\slash", "tab\there", "unit\x1fsep", "café",
                 "line\u2028break", "astral \U0001F600"]


@pytest.mark.parametrize("policy", MergePolicy, ids=lambda p: p.value)
def test_structured_text_escapes_labels(policy):
    # Three functions per name whose rows are each shared by three names,
    # so the names stand in merges (the paper policy's three-way ones at
    # 0), and a fourth whose row is its own, so that leaves of every name
    # are still active, and in a matrix's labels, after the first round.
    subjects = ["s0", "s1", "s2", "s3"]
    uses = [[], ["s0"], ["s1"], ["s0", "s2"], ["s1", "s2"], ["s0", "s1", "s2"], ["s2"]]
    components = [{"name": name + suffix, "uses_fields": uses[(i + k) % len(uses)]}
                  for i, name in enumerate(ESCAPED_NAMES)
                  for k, suffix in enumerate(("", "\t2", "\\3"))]
    components += [{"name": name + " 4", "uses_fields": uses[i] + ["s3"]}
                   for i, name in enumerate(ESCAPED_NAMES)]
    subjects, records = parse_components(json.dumps(
        {"subject_types": subjects, "components": components}))
    schema = derive_relations(subjects)
    pattern = build_pattern_matrix(records, schema)
    dend, trace = cluster(pattern, Metric.MANHATTAN, policy=policy)
    assert max(len(m.constituents) for r in trace for m in r.merges) == (
        3 if policy is MergePolicy.PAPER_REPRO else 2)
    doc = to_structured(dend, trace, schema=schema, pattern=pattern)
    text = "".join(structured_chunks(dend, trace, schema=schema, pattern=pattern))
    assert text == reference_text(dend, trace, doc)
    assert "\\u001f" in text and "\u2028" in text and "\U0001F600" in text


@pytest.mark.parametrize("policy", MergePolicy, ids=lambda p: p.value)
def test_structured_chunks_share_no_state_with_matrix_after(policy, monkeypatch):
    subjects, records = parse_components((INPUT_DIR / "syn48.json").read_text())
    pattern = build_pattern_matrix(records, derive_relations(subjects))
    dend, trace = cluster(pattern, Metric.EUCLIDEAN, policy=policy)
    text = "".join(structured_chunks(dend, trace))
    # A stream suspended halfway through the rounds, while the public
    # replay goes to the last round and then back to the first.
    chunks = structured_chunks(dend, trace)
    middle = '"round": %d,' % (len(trace) // 2 + 1)
    half = [next(chunks)]
    while middle not in half[-1]:
        half.append(next(chunks))
    half += [next(chunks), next(chunks)]  # its labels and first row of cells
    assert len(trace[-1].matrix_after.active) == 1
    assert len(trace[0].matrix_after.active) == pattern.n_rows - sum(
        len(m.constituents) - 1 for m in trace[0].merges)
    assert "".join(half) + "".join(chunks) == text
    # After a whole stream, every matrix is still the one in the text.
    assert [reference_matrix(r.matrix_after) for r in trace] == [
        r["matrix"] for r in json.loads(text)["rounds"]]

    # Neither writer reads matrix_after.
    def refuse(self):
        raise AssertionError("matrix_after read")

    monkeypatch.setattr(MergeRound, "matrix_after", property(refuse))
    with pytest.raises(AssertionError, match="matrix_after read"):
        trace[0].matrix_after
    assert "".join(structured_chunks(dend, trace)) == text
    assert canonical_json(to_structured(dend, trace)) == text


@st.composite
def corpus_rows(draw):
    """2 to 40 rows drawn from a few distinct ones, the all-zero row among
    them when drawn: copies are common, and so are ties."""
    width = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(0, 1)] * width)
    pool = draw(st.lists(row | st.just((0,) * width), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40))


@settings(max_examples=100, deadline=None)
@given(corpus_rows(), st.tuples(st.booleans(), st.booleans(), st.booleans()))
@example([(0, 1), (0, 1)], (False, False, False))
@example([(0,), (1,)], (True, True, True))
def test_structured_chunks_join_to_the_documents_text(rows, include):
    pattern = make_pattern(rows)
    schema = uses_schema(len(rows[0]))
    for metric in Metric:
        for policy in MergePolicy:
            dend, trace = cluster(pattern, metric, policy=policy)
            report = label_clusters(cut_height(dend, "0.5"), pattern, schema)
            sections = {name: value for name, value, wanted in zip(
                ("schema", "pattern", "report"), (schema, pattern, report), include) if wanted}
            text = "".join(structured_chunks(dend, trace, **sections))
            doc = to_structured(dend, trace, **sections)
            # The chunks against every cell read through matrix_after, and
            # the dict API's round trip of them.
            assert text == reference_text(dend, trace, doc)
            assert text == canonical_json(doc)
            # The last round leaves one cluster and an empty matrix.
            assert text.count('"display_values": []') == 1


def assert_matrices_follow(dend, trace, active_ids):
    """``structured_chunks`` of ``trace``, whose rounds leave ``active_ids``
    active, has the per-cell reference matrices and the document's text."""
    assert [[c.id for c in r.matrix_after.active] for r in trace] == active_ids
    text = "".join(structured_chunks(dend, trace))
    assert [r["matrix"] for r in json.loads(text)["rounds"]] == [
        reference_matrix(r.matrix_after) for r in trace]
    assert text == canonical_json(to_structured(dend, trace))


def test_matrix_rows_follow_interleaved_paper_merges():
    # Round 2 merges f0 + f2 and f3 + C1 (f4 + f5): the columns at 0, 2, 3
    # and 5 go from the rows of the survivors f1 and f6, between them, and
    # two rows are appended.  Round 3 leaves none of round 2's clusters.
    rows = [(1, 0, 1, 0, 0), (0, 1, 0, 0, 1), (1, 0, 1, 1, 0), (0, 0, 0, 1, 0),
            (0, 1, 0, 1, 0), (0, 1, 0, 1, 0), (1, 1, 1, 0, 1)]
    dend, trace = cluster(make_pattern(rows), Metric.EUCLIDEAN,
                          policy=MergePolicy.PAPER_REPRO)
    assert [[c.id for c in m.constituents] for m in trace[1].merges] == [[0, 2], [3, 7]]
    assert_matrices_follow(dend, trace, [[0, 1, 2, 3, 6, 7], [1, 6, 8, 9], [10, 11], [12]])
    # An earlier round after a later one: f1 and f6 survive, but not first.
    assert_matrices_follow(dend, trace[1::-1], [[1, 6, 8, 9], [0, 1, 2, 3, 6, 7]])


def test_matrix_rows_follow_a_merge_of_the_last_position():
    # Round 2 merges f0 with C1, the last active cluster, so column 0 goes
    # from the rows of f1, f4 and f5; round 3 merges the first two of them.
    rows = [(1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 1), (1, 0, 0, 0),
            (0, 0, 1, 0)]
    dend, trace = cluster(make_pattern(rows), Metric.EUCLIDEAN)
    assert [c.id for c in trace[1].merges[0].constituents] == [0, 6]
    assert_matrices_follow(dend, trace, [[0, 1, 4, 5, 6], [1, 4, 5, 7], [5, 7, 8],
                                         [7, 9], [10]])


@pytest.mark.parametrize("policy", MergePolicy)
def test_matrix_rows_of_two_rows(policy):
    for rows in ([(0, 1), (1, 0)], [(0, 1), (0, 1)]):
        dend, trace = cluster(make_pattern(rows), Metric.EUCLIDEAN, policy=policy)
        assert_matrices_follow(dend, trace, [[2]])


def test_traced_matrices_stream_a_row_at_a_time():
    # 299 rounds over up to 300 clusters: a round's matrix is MBs of text,
    # its longest row about 23 KB.
    rng = random.Random(300)
    rows = [tuple(rng.randint(0, 1) for _ in range(16)) for _ in range(300)]
    dend, trace = cluster(make_pattern(rows), Metric.EUCLIDEAN)
    assert len(trace) == 299
    assert max(map(len, structured_chunks(dend, trace))) < 64 * 1024


def chain_dendrogram(n):
    """Leaves f0..f{n-1}; C1 joins f0 and f1, and each later Ck joins
    C(k-1) and fk, so the tree is n - 1 merges deep."""
    nodes = {i: DendroNode(i, f"f{i}") for i in range(n)}
    below = 0
    for k in range(1, n):
        nodes[n + k - 1] = DendroNode(
            n + k - 1, f"C{k}", (below, k),
            ExactDissimilarity(Fraction(k), Metric.MANHATTAN), k)
        below = n + k - 1
    return Dendrogram(nodes, root=below, n_leaves=n)


def test_deep_chain_renders_and_cuts():
    d = chain_dendrogram(5000)
    root = to_structured(d, [])["dendrogram"]
    labels, stack = 0, [root]
    while stack:
        node = stack.pop()
        labels += 1
        stack.extend(node.get("children", ()))
    assert labels == 9999
    assert render_ascii(d).count("\n") == 9999
    assert render_dot(d).count(" -> ") == 9998
    assert [(g.label, len(g.members)) for g in cut_k(d, 2)] == [("C4998", 4999),
                                                                ("f4999", 1)]
    assert [g.label for g in cut_k(d, 4000)] == ["C1000"] + [f"f{i}" for i in range(1001, 5000)]
    assert d.leaf_labels(d.root)[:3] == ("f0", "f1", "f2")


def test_deep_chain_serialises():
    # 1,500 merges nest the document about 3,000 containers deep, past the
    # default recursion limit; its text grows with the square of the depth,
    # so it is written a node at a time, in short chunks.
    d = chain_dendrogram(1500)
    text = canonical_json(to_structured(d, []))
    chunks = list(structured_chunks(d, []))
    assert "".join(chunks) == text
    assert max(map(len, chunks)) < 64 * 1024
    assert text.count('"label": ') == 2999
    assert text.count('"children": [') == 1499
