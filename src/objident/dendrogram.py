"""Merge tree: flat cuts and ASCII / DOT / structured-document renderings.

Node ids follow creation order (leaves 0..n-1, merged clusters n, n+1, ...),
so a child's id is always smaller than its parent's.  All renderings are
pure functions of the tree; child ordering in every rendering is canonical
(by smallest leaf id in the subtree) so output is byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import ValidationError
from .metrics import ExactDissimilarity

if TYPE_CHECKING:
    from .engine import MergeRound, ProximityMatrix
    from .features import PatternMatrix
    from .report import CandidateObjectReport


@dataclass(frozen=True)
class DendroNode:
    """One tree node; leaves have no children and no height."""

    id: int
    label: str
    children: tuple[int, ...] = ()
    height: ExactDissimilarity | None = None
    round_index: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Dendrogram:
    """The full merge tree over ``n_leaves`` original components."""

    nodes: Mapping[int, DendroNode]
    root: int
    n_leaves: int

    @cached_property
    def _min_leaf(self) -> dict[int, int]:
        # Children ids precede parent ids, so one ascending pass suffices.
        low: dict[int, int] = {}
        for nid in sorted(self.nodes):
            kids = self.nodes[nid].children
            low[nid] = min(map(low.__getitem__, kids)) if kids else nid
        return low

    def members(self, node_id: int) -> frozenset[int]:
        """Leaf ids of the subtree at ``node_id``, by an explicit-stack walk."""
        leaves = []
        stack = [node_id]
        while stack:
            nid = stack.pop()
            kids = self.nodes[nid].children
            if kids:
                stack.extend(kids)
            else:
                leaves.append(nid)
        return frozenset(leaves)

    def leaf_labels(self, node_id: int) -> tuple[str, ...]:
        """Leaf labels of a subtree, ordered by leaf id."""
        return tuple(self.nodes[i].label for i in sorted(self.members(node_id)))

    def ordered_children(self, node_id: int) -> tuple[int, ...]:
        """Children sorted by their smallest contained leaf id."""
        return tuple(sorted(self.nodes[node_id].children, key=self._min_leaf.__getitem__))


@dataclass(frozen=True)
class PartitionGroup:
    """One group of a flat partition: the subtree label plus its leaves."""

    label: str
    members: tuple[str, ...]


Partition = tuple[PartitionGroup, ...]


def _as_groups(d: Dendrogram, node_ids: Iterable[int]) -> Partition:
    ordered = sorted(node_ids, key=d._min_leaf.__getitem__)
    return tuple(
        PartitionGroup(d.nodes[g].label, d.leaf_labels(g)) for g in ordered)


def cut_k(d: Dendrogram, k: int) -> Partition:
    """Undo merges from the top (highest creation order first) down to k groups.

    Once the merges above id t are undone, merge t is a group (its parent
    is newer) and the newest one, so one walk down the merge ids does the
    cut in O(n).  Multiway merge nodes split into all their children at
    once, so with such nodes some group counts are not reachable; those
    raise ValidationError rather than returning an approximate cut.
    """
    if not 1 <= k <= d.n_leaves:
        raise ValidationError(
            f"cut size {k} out of range 1..{d.n_leaves}")
    groups = {d.root}
    for target in range(d.root, d.n_leaves - 1, -1):
        if len(groups) >= k:
            break
        groups.remove(target)
        groups.update(d.nodes[target].children)
    if len(groups) != k:
        raise ValidationError(
            f"cut of exactly {k} groups is not reachable: a multiway merge "
            f"steps straight to {len(groups)} groups")
    return _as_groups(d, groups)


def cut_height(d: Dendrogram, h) -> Partition:
    """Maximal subtrees whose merge heights are all <= h.

    ``h`` is in display units (the dissimilarity itself, not its rounded
    form) and is compared exactly; pass a string like "1.5" for an exact
    decimal threshold.  Merge heights never fall going up the tree (the
    engine enforces it), so a node's own height is its subtree's maximum.
    """
    try:
        threshold = Fraction(h)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"invalid cut height {h!r}") from exc
    if threshold < 0:
        raise ValidationError("cut height must be >= 0")
    groups: list[int] = []
    stack = [d.root]
    while stack:
        nid = stack.pop()
        node = d.nodes[nid]
        if node.is_leaf or node.height.within_height(threshold):
            groups.append(nid)
        else:
            stack.extend(node.children)
    return _as_groups(d, groups)


def _node_line(node: DendroNode) -> str:
    if node.is_leaf:
        return node.label
    return f"{node.label}  {node.height.display}"


def render_ascii(d: Dendrogram) -> str:
    """Deterministic monospaced tree, one node per line, root first."""
    lines: list[str] = []
    # Stack holds (node id, prefix for this line, prefix for its children).
    stack: list[tuple[int, str, str]] = [(d.root, "", "")]
    while stack:
        nid, prefix, child_prefix = stack.pop()
        lines.append(prefix + _node_line(d.nodes[nid]))
        kids = d.ordered_children(nid)
        for pos in range(len(kids) - 1, -1, -1):
            last = pos == len(kids) - 1
            stack.append((
                kids[pos],
                child_prefix + ("`-- " if last else "|-- "),
                child_prefix + ("    " if last else "|   "),
            ))
    lines.append("")
    return "\n".join(lines)


def render_dot(d: Dendrogram) -> str:
    """Directed graph text: one node per leaf and merge, edges child -> parent."""
    def esc(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph dendrogram {", "  rankdir=BT;"]
    for nid in sorted(d.nodes):
        node = d.nodes[nid]
        if node.is_leaf:
            lines.append(f'  n{nid} [shape=box, label="{esc(node.label)}"];')
        else:
            lines.append(
                f'  n{nid} [label="{esc(node.label)}\\n{node.height.display}"];')
    for nid in sorted(d.nodes):
        for child in d.ordered_children(nid):
            lines.append(f"  n{child} -> n{nid};")
    lines.extend(("}", ""))
    return "\n".join(lines)


def _key_doc(key: Fraction) -> dict:
    return {"num": key.numerator, "den": key.denominator}


def _node_doc(d: Dendrogram) -> dict:
    """The nested label/height tree, built without recursion."""
    root: dict = {}
    # Each entry is a node id and the empty dict, already in place in its
    # parent's document, that becomes its own.
    stack = [(d.root, root)]
    while stack:
        nid, doc = stack.pop()
        node = d.nodes[nid]
        doc["label"] = node.label
        if node.is_leaf:
            continue
        kids = [{} for _ in node.children]
        doc.update(height=node.height.display, height_key=_key_doc(node.height.key),
                   round=node.round_index, children=kids)
        stack.extend(zip(d.ordered_children(nid), kids))
    return root


class _CellText(dict):
    """Int distance -> its display string, made on first use; ``key_docs``
    gets the same keys' ``{num, den}`` dicts at the same time."""

    def __init__(self, exact: Mapping[int, ExactDissimilarity]):
        super().__init__()
        self._exact = exact
        self.key_docs: dict[int, dict] = {}

    def __missing__(self, key: int) -> str:
        value = self._exact[key]
        self.key_docs[key] = _key_doc(value.key)
        text = self[key] = value.display
        return text


def _matrix_doc(matrix: "ProximityMatrix", text: _CellText) -> dict:
    # Display strings first: looking them up makes any missing key doc.
    display_rows = [list(map(text.__getitem__, keys)) for keys in matrix.keys[1:]]
    key_rows = [list(map(text.key_docs.__getitem__, keys)) for keys in matrix.keys[1:]]
    return {"labels": [c.label for c in matrix.active],
            "display_values": display_rows, "exact_keys": key_rows}


def to_structured(d: Dendrogram, trace: Sequence["MergeRound"], *,
                  schema=None, pattern: "PatternMatrix | None" = None,
                  report: "CandidateObjectReport | None" = None) -> dict:
    """Assemble the machine-readable output document.

    Always contains ``rounds`` (per-round merges plus lower-triangle matrix
    snapshots with 2-decimal display values and exact rational keys) and
    ``dendrogram``; ``schema``, ``pattern_matrix``, and ``report`` sections
    are included when the corresponding inputs are given.

    The snapshots of a sequential run hold O(n^3) cells, each one a
    lookup: they are read from each round's ``matrix_after.keys``, the
    engine's int distances, without building its ``cells``; every
    distinct distance gets one display string and one ``{num, den}`` dict,
    so all cells at the same distance share one dict object.  The nested
    ``dendrogram`` is built without recursion, for trees of any depth.
    """
    doc: dict = {}
    if schema is not None:
        doc["schema"] = {
            "subject_types": list(schema.subject_types),
            "relations": [
                {"label": r.label, "kind": r.kind.value, "subject": r.subject}
                for r in schema.relations
            ],
        }
    if pattern is not None:
        doc["pattern_matrix"] = {
            "row_labels": list(pattern.row_labels),
            "col_labels": list(pattern.col_labels),
            "rows": [list(row) for row in pattern.rows],
        }
    doc["rounds"] = []
    text = None
    for r in trace:
        matrix = r.matrix_after
        if text is None:
            text = _CellText(matrix.exact)
        doc["rounds"].append({
            "round": r.round_index,
            "min_display": r.min_key.display,
            "min_key": _key_doc(r.min_key.key),
            "merges": [
                {
                    "label": m.new.label,
                    "member_labels": [c.label for c in m.constituents],
                }
                for m in r.merges
            ],
            "matrix": _matrix_doc(matrix, text),
        })
    doc["dendrogram"] = _node_doc(d)
    if report is not None:
        doc["report"] = report.to_doc()
    return doc
