"""Independent output check for the benchmark.

Nothing here imports objident.  The check rebuilds the pattern rows from
the corpus file itself, packed one int per row, computes the dissimilarity
of every pair with its own Hamming / Jaccard arithmetic, and takes a
minimum spanning tree (Prim, O(n^2)).  Exact single linkage merges at the
global minimum under both merge policies, so:

* the merge heights, each counted (children - 1) times, are the MST edge
  weights, whether read from the ASCII tree, the DOT graph or the
  ``height_key`` values of the structured document;
* a flat cut into g groups lies between the threshold components strictly
  below and at the (n - g)-th smallest MST weight, and a height cut equals
  the threshold components at that height;
* each report entry's dominant subject and affinity follow from the
  per-subject bit counts of its members.

Every ``check_*`` function returns a list of error strings; empty means the
output passed.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

METRICS = ("euclidean", "jaccard")


# ---------------------------------------------------------------------------
# Corpus -> packed rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rows:
    """Pattern rows, packed: column c (kind-major, as objident lays them
    out) is bit c of the row's int."""

    subjects: tuple[str, ...]
    names: tuple[str, ...]
    bits: tuple[int, ...]

    def subject_mask(self, position: int) -> int:
        m = len(self.subjects)
        return (1 << position) | (1 << (m + position)) | (1 << (2 * m + position))


def _pack(subjects, functions) -> Rows:
    index = {s: i for i, s in enumerate(subjects)}
    m = len(subjects)
    bits = []
    for _, returns, args, uses in functions:
        row = 0
        if returns in index:
            row |= 1 << index[returns]
        for a in args:
            if a in index:
                row |= 1 << (m + index[a])
        for u in uses:
            row |= 1 << (2 * m + index[u])
        bits.append(row)
    return Rows(tuple(subjects), tuple(f[0] for f in functions), tuple(bits))


def rows_from_components(text: str) -> Rows:
    doc = json.loads(text)
    functions = [(c["name"], c.get("returns"), c.get("args", []), c.get("uses_fields", []))
                 for c in doc["components"]]
    return _pack(doc["subject_types"], functions)


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _decl_type(words: list[str]) -> str:
    return words[1] if words[0] == "struct" else words[0]


def rows_from_decls(text: str) -> Rows:
    declared = None
    seen: list[str] = []
    functions = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%types"):
            declared = line.split()[1:]
            continue
        proto, _, note = line.partition("!")
        head, _, params = proto.partition("(")
        words = _WORD.findall(head)
        returns = _decl_type(words[:-1])
        args = [_decl_type(_WORD.findall(p)) for p in params.rstrip(") ").split(",")
                if p.strip()]
        uses = [u.strip() for u in note.partition(":")[2].split(",") if u.strip()]
        for t in (returns, *args):
            if t not in ("void", "int") and t not in seen:
                seen.append(t)
        functions.append((words[-1], returns, args, uses))
    return _pack(declared if declared is not None else seen, functions)


def load_rows(text: str, kind: str) -> Rows:
    return rows_from_components(text) if kind == "components" else rows_from_decls(text)


# ---------------------------------------------------------------------------
# Dissimilarities, display rounding, minimum spanning tree
# ---------------------------------------------------------------------------

def dissimilarity(metric: str, a: int, b: int) -> Fraction:
    """Exact comparison key: the squared distance for Euclidean."""
    mismatches = (a ^ b).bit_count()
    if metric == "euclidean":
        return Fraction(mismatches)
    union = (a | b).bit_count()
    return Fraction(mismatches, union) if union else Fraction(0)


def half_up(value: Fraction) -> str:
    """Round a non-negative rational half-up to two decimals."""
    hundredths = (200 * value.numerator + value.denominator) // (2 * value.denominator)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def display(metric: str, key: Fraction) -> str:
    if metric == "jaccard":
        return half_up(key)
    # round(100 * sqrt(k)) half-up is the largest r with (2r - 1)^2 <= 40000 k.
    if key.denominator != 1:
        raise ValueError("a Euclidean key on binary rows is an integer")
    hundredths = (math.isqrt(40000 * key.numerator) + 1) // 2
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def within(metric: str, key: Fraction, threshold: Fraction) -> bool:
    """Is the displayed magnitude of ``key`` at most ``threshold``?"""
    return key <= (threshold * threshold if metric == "euclidean" else threshold)


def mst_edges(rows: Rows, metric: str) -> list[tuple[Fraction, int, int]]:
    """Edges (key, i, j) of a minimum spanning tree, ascending by key."""
    n = len(rows.bits)
    best = [None] * n
    link = [0] * n
    done = [False] * n
    done[0] = True
    last = 0
    edges = []
    for _ in range(n - 1):
        pick = -1
        for j in range(n):
            if done[j]:
                continue
            key = dissimilarity(metric, rows.bits[last], rows.bits[j])
            if best[j] is None or key < best[j]:
                best[j], link[j] = key, last
            if pick < 0 or best[j] < best[pick]:
                pick = j
        done[pick] = True
        edges.append((best[pick], link[pick], pick))
        last = pick
    edges.sort()
    return edges


class _Components:
    """Union-find over row indices."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        self.parent[self.find(i)] = self.find(j)


@dataclass(frozen=True)
class Reference:
    """What every correct run on one corpus must agree with."""

    rows: Rows
    metric: str
    mst: tuple[tuple[Fraction, int, int], ...]

    @classmethod
    def build(cls, text: str, kind: str, metric: str) -> "Reference":
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        rows = load_rows(text, kind)
        return cls(rows, metric, tuple(mst_edges(rows, metric)))

    def heights(self) -> Counter:
        return Counter(key for key, _, _ in self.mst)

    def displays(self) -> Counter:
        return Counter(display(self.metric, key) for key, _, _ in self.mst)

    def threshold_labels(self, keep) -> list[int]:
        """Component of each row in the graph of MST edges with keep(key)."""
        parts = _Components(len(self.rows.bits))
        for key, i, j in self.mst:
            if keep(key):
                parts.union(i, j)
        return [parts.find(i) for i in range(len(self.rows.bits))]


# ---------------------------------------------------------------------------
# Merge heights, per output format
# ---------------------------------------------------------------------------

def _compare(found: Counter, expected: Counter, what: str) -> list[str]:
    if found == expected:
        return []
    extra = sorted((found - expected).items())[:5]
    missing = sorted((expected - found).items())[:5]
    return [f"{what}: merge heights differ from the MST weights "
            f"(unexpected {extra}, missing {missing})"]


def _leaves_once(leaves: list[str], ref: Reference, what: str) -> list[str]:
    if sorted(leaves) != sorted(ref.rows.names):
        return [f"{what}: leaves do not cover every function exactly once"]
    return []


_ASCII_MERGE = re.compile(r"(\S+)  (\d+\.\d\d)")
_ASCII_INDENT = ("|-- ", "`-- ", "|   ", "    ")


def check_ascii(text: str, ref: Reference) -> list[str]:
    displays: Counter = Counter()
    leaves = []
    stack: list[list] = []          # open nodes: [depth, display, children]

    def close(depth: int) -> None:
        while stack and stack[-1][0] >= depth:
            _, height, children = stack.pop()
            displays[height] += children - 1

    for line in text.splitlines():
        depth = 0
        while line[4 * depth:4 * depth + 4] in _ASCII_INDENT:
            depth += 1
        close(depth)
        if stack:
            stack[-1][2] += 1
        content = line[4 * depth:]
        merge = _ASCII_MERGE.fullmatch(content)
        if merge:
            stack.append([depth, merge.group(2), 0])
        else:
            leaves.append(content)
    close(0)
    return _leaves_once(leaves, ref, "ascii") + _compare(displays, ref.displays(), "ascii")


_DOT_LEAF = re.compile(r'  n(\d+) \[shape=box, label="(.*)"\];')
_DOT_MERGE = re.compile(r'  n(\d+) \[label=".*\\n(\d+\.\d\d)"\];')
_DOT_EDGE = re.compile(r"  n(\d+) -> n(\d+);")


def check_dot(text: str, ref: Reference) -> list[str]:
    heights = {}
    leaves = []
    children: Counter = Counter()
    for line in text.splitlines():
        if m := _DOT_LEAF.fullmatch(line):
            leaves.append(m.group(2))
        elif m := _DOT_MERGE.fullmatch(line):
            heights[m.group(1)] = m.group(2)
        elif m := _DOT_EDGE.fullmatch(line):
            children[m.group(2)] += 1
    displays = Counter()
    for node, height in heights.items():
        displays[height] += children[node] - 1
    return _leaves_once(leaves, ref, "dot") + _compare(displays, ref.displays(), "dot")


def check_structured(text: str, ref: Reference) -> list[str]:
    """Heights of the ``dendrogram`` section of a structured document."""
    doc = json.loads(text)
    keys: Counter = Counter()
    displays: Counter = Counter()
    leaves = []
    stack = [doc["dendrogram"]]
    while stack:
        node = stack.pop()
        if "children" not in node:
            leaves.append(node["label"])
            continue
        key = Fraction(node["height_key"]["num"], node["height_key"]["den"])
        keys[key] += len(node["children"]) - 1
        displays[node["height"]] += len(node["children"]) - 1
        stack.extend(node["children"])
    return (_leaves_once(leaves, ref, "structured")
            + _compare(keys, ref.heights(), "structured height_key")
            + _compare(displays, ref.displays(), "structured height"))


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _refines(fine: list[int], coarse: list[int]) -> bool:
    """Does every block of ``fine`` lie inside one block of ``coarse``?"""
    owner: dict[int, int] = {}
    return all(owner.setdefault(f, c) == c for f, c in zip(fine, coarse))


def _check_partition(groups: list[list[str]], ref: Reference, cut: str) -> list[str]:
    index = {name: i for i, name in enumerate(ref.rows.names)}
    labels = [0] * len(index)
    for g, members in enumerate(groups):
        for name in members:
            labels[index[name]] = g
    n, g = len(index), len(groups)
    mode, _, value = cut.partition(":")
    if mode == "k" and g != int(value):
        return [f"report: cut {cut} gave {g} groups"]
    if mode == "h":
        threshold = Fraction(value)
        expected = ref.threshold_labels(lambda key: within(ref.metric, key, threshold))
        if not (_refines(labels, expected) and _refines(expected, labels)):
            return [f"report: groups differ from the threshold components at {cut}"]
    if g < n:
        w = ref.mst[n - g - 1][0]
        below = ref.threshold_labels(lambda key: key < w)
        upto = ref.threshold_labels(lambda key: key <= w)
        if not (_refines(below, labels) and _refines(labels, upto)):
            return [f"report: {g} groups are not a single-linkage cut at {w}"]
    return []


def check_report(text: str, ref: Reference, cut: str) -> list[str]:
    entries = json.loads(text)["entries"]
    members = [name for e in entries for name in e["members"]]
    if sorted(members) != sorted(ref.rows.names):
        return ["report: groups do not cover every function exactly once"]
    errors = _check_partition([e["members"] for e in entries], ref, cut)
    row_of = dict(zip(ref.rows.names, ref.rows.bits))
    masks = [ref.rows.subject_mask(p) for p in range(len(ref.rows.subjects))]
    for e in entries:
        counts = [sum((row_of[name] & mask).bit_count() for name in e["members"])
                  for mask in masks]
        total, top = sum(counts), max(counts)
        tied = [s for s, c in zip(ref.rows.subjects, counts) if c == top]
        affinity = Fraction(top, total) if total else Fraction(0)
        if total == 0 or len(tied) > 1:
            expected = {"dominant_subject": None, "tied_subjects": tied}
        else:
            expected = {"dominant_subject": tied[0]}
        expected["affinity"] = {"num": affinity.numerator, "den": affinity.denominator}
        expected["affinity_display"] = half_up(affinity)
        found = {k: e.get(k) for k in expected}
        if found != expected:
            errors.append(f"report: {e['cluster']} reads {found}, bit counts give {expected}")
    return errors


# ---------------------------------------------------------------------------
# One run's outputs
# ---------------------------------------------------------------------------

TREE_CHECKS = {"ascii": check_ascii, "dot": check_dot, "trace": check_structured}


def check_outputs(ref: Reference, outputs: dict[str, bytes], cut: str) -> list[str]:
    """Check a run's outputs, keyed by role: ``report``, ``trace`` (the
    structured document) and ``ascii`` / ``dot`` for the dendrogram file."""
    errors = []
    try:
        for role, blob in outputs.items():
            text = blob.decode("utf-8")
            if role == "report":
                errors += check_report(text, ref, cut)
            else:
                errors += TREE_CHECKS[role](text, ref)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return errors


def check_same_bytes(first: dict[str, str], later: dict[str, str]) -> list[str]:
    """Compare two runs' output digests, keyed by role."""
    return [f"{role}: bytes differ from the first run"
            for role in sorted(set(first) | set(later))
            if first.get(role) != later.get(role)]
