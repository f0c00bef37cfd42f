import json
from fractions import Fraction

import pytest

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
    to_structured,
)
from objident.dendrogram import DendroNode, Dendrogram
from objident.metrics import ExactDissimilarity

from conftest import FIXTURE_DIR
from test_engine import make_pattern
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
            doc = to_structured(dend, trace, schema=schema, pattern=pattern, report=report)
            reference = dict(doc, dendrogram=reference_tree(dend, dend.root), rounds=[
                {"round": r.round_index, "min_display": r.min_key.display,
                 "min_key": key_doc(r.min_key.key),
                 "merges": [{"label": m.new.label,
                             "member_labels": [c.label for c in m.constituents]}
                            for m in r.merges],
                 "matrix": reference_matrix(r.matrix_after)}
                for r in trace])
            assert canonical_json(doc) == json.dumps(
                reference, indent=2, ensure_ascii=False) + "\n"


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
    # default recursion limit; its text grows with the square of the depth.
    text = canonical_json(to_structured(chain_dendrogram(1500), []))
    assert text.count('"label": ') == 2999
    assert text.count('"children": [') == 1499
