"""Agglomerative single-linkage clustering over binary pattern rows.

Two merge policies are provided, both deterministic given the row order:

* SEQUENTIAL: one merge per round, of the lexicographically first (by
  ascending id pair) of the pairs at the minimum dissimilarity.
* PAPER_REPRO: at distance zero, which only identical rows are at, each
  class of identical rows merges as one multiway cluster, all in the first
  round; above it, each round merges disjoint minimum pairs picked greedily
  in ascending (i, j) id order.

Ties are decided exactly, never by float luck: the engine compares ints
whose order and equality match the metric's exact rational keys, and
``metrics.distance`` makes the ``ExactDissimilarity`` of each int that a
height or snapshot shows.

Single linkage is a process of distance levels (Gower & Ross; Müllner,
arXiv:1109.2378): at each distance, the clusters that have a pair of rows
at that distance merge, and only the order of a level's merges is left to
choose.  So the engine computes the int of each pair of distinct rows once,
buckets the pairs by int and walks the levels upwards, each id in ascending
order taking its smallest neighbour.  Time is O(n^2 log n) and memory O(n^2)
for n pattern rows, whatever the ties.

No distance table between clusters is kept.  A round's proximity matrix is
re-derived from the merge list by a replay that applies the merges, by the
single-linkage row minimum, to a table of the leaf distances built on the
first read.  Reading rounds in order costs O(active^2) each; going back to
an earlier round restarts the replay.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heapreplace
from itertools import chain
from typing import Mapping, NamedTuple

from .dendrogram import DendroNode, Dendrogram
from .errors import ConfigError, ValidationError
from .features import PatternMatrix
from .metrics import ExactDissimilarity, Metric, distance


class MergePolicy(enum.Enum):
    SEQUENTIAL = "sequential"
    PAPER_REPRO = "paper"


def policy_from_name(name: str) -> MergePolicy:
    """Resolve a CLI/config policy name (case-insensitive)."""
    try:
        return MergePolicy(name.lower())
    except ValueError:
        valid = ", ".join(p.value for p in MergePolicy)
        raise ConfigError(f"unknown policy {name!r} (expected one of: {valid})") from None


@dataclass(frozen=True)
class ProximityMatrix:
    """Symmetric dissimilarity matrix over the clusters active at one point.

    ``active`` is ascending by id; ``keys[p][q]``, q < p, is the engine's int
    distance between ``active[p]`` and ``active[q]``, and ``exact`` maps each
    int to its ``ExactDissimilarity``, one value shared by all cells at it.
    ``cells`` maps (i, j) ids, i < j, to the dissimilarity; it is built on
    first read.  These three are the readers: ``cells[i, j]`` for one pair,
    ``cells.items()`` for all of them.  The diagonal is implicitly zero and
    never stored, so no (i, i) key exists.
    """

    active: tuple[DendroNode, ...]
    keys: list[list[int]]
    exact: Mapping[int, ExactDissimilarity] = field(repr=False, compare=False)

    def __post_init__(self):
        ids = [c.id for c in self.active]
        if ids != sorted(ids):
            raise ValidationError("active clusters must be ascending by id")

    @cached_property
    def cells(self) -> dict[tuple[int, int], ExactDissimilarity]:
        ids = [c.id for c in self.active]
        cells: dict[tuple[int, int], ExactDissimilarity] = {}
        for pos, (b, row) in enumerate(zip(ids, self.keys)):
            cells.update(zip(((a, b) for a in ids[:pos]), map(self.exact.__getitem__, row)))
        return cells


class Merge(NamedTuple):
    new: DendroNode
    constituents: tuple[DendroNode, ...]


@dataclass(frozen=True)
class MergeRound:
    """One round of the engine: what merged, at what minimum, and (through
    ``matrix_after``) the proximity matrix left after all of its merges."""

    round_index: int
    min_key: ExactDissimilarity
    merges: tuple[Merge, ...]
    _replay: "_Replay" = field(repr=False, compare=False)

    @property
    def matrix_after(self) -> ProximityMatrix:
        """The proximity matrix after this round's merges, rebuilt on every
        access by the run's replay: its int ``keys`` in O(active^2) time when
        rounds are read in order (an earlier round restarts the replay), its
        ``cells`` dict only when read.  Hold on to the result to read it
        twice.  ``dendrogram.to_structured`` reads ``keys`` alone."""
        return self._replay.matrix_after(self.round_index)


class ClusterResult(NamedTuple):
    dendrogram: Dendrogram
    trace: tuple[MergeRound, ...]


def _row_classes(pattern: PatternMatrix) -> list[list[int]]:
    """Leaf ids grouped by identical pattern row, in order of first
    appearance: each class is ascending, and the classes are ordered by
    their smallest member."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(pattern.rows):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _pair_ints(pattern: PatternMatrix, metric: Metric,
               classes: list[list[int]]) -> dict[int, array]:
    """The distance of each pair of distinct pattern rows, as an int that
    orders and ties exactly like the metric's key, bucketed by int: a pair
    of classes p < q is stored once, packed as ``p * len(classes) + q``.

    ``classes`` is ``_row_classes(pattern)``: each distinct row is packed
    once, and only the upper triangle of the class pairs is computed."""
    packed = [int(bytes(pattern.rows[ids[0]]).translate(_DIGITS) or b"0", 2)
              for ids in classes]
    count, scale = len(packed), pattern.n_cols ** 2
    buckets: dict[int, array] = defaultdict(lambda: array("I"))
    for p, a in enumerate(packed):
        if metric is not Metric.JACCARD:
            # The Euclidean (squared), Manhattan and SMC keys are the
            # mismatch count or a fixed multiple of it.
            keys = [(a ^ b).bit_count() for b in packed[p + 1:]]
        else:
            # Jaccard is x/u with x mismatches and 0 < u <= W set columns.
            # Two distinct fractions with denominators <= W differ by at
            # least 1/W^2, so floor(x * W^2 / u) orders and ties like x/u.
            keys = [(a ^ b).bit_count() * scale // (a | b).bit_count()
                    for b in packed[p + 1:]]
        for pq, key in enumerate(keys, p * count + p + 1):
            buckets[key].append(pq)
    return buckets


def _leaf_table(pattern: PatternMatrix, metric: Metric) -> list[list[int]]:
    """The int distance between every two pattern rows, one list per row."""
    classes = _row_classes(pattern)
    count = len(classes)
    table = [[0] * count for _ in classes]
    for key, pairs in _pair_ints(pattern, metric, classes).items():
        for pq in pairs:
            p, q = divmod(pq, count)
            table[p][q] = table[q][p] = key
    index = {pattern.rows[ids[0]]: c for c, ids in enumerate(classes)}
    of = [index[row] for row in pattern.rows]
    return [list(map(table[c].__getitem__, of)) for c in of]


class _ExactKeys(dict):
    """Int distance -> ExactDissimilarity, made on first use by
    ``metrics.distance`` on two made-up rows of ``width`` columns whose
    mismatch and either-set counts the int stands for."""

    def __init__(self, metric: Metric, width: int):
        super().__init__()
        self._metric, self._width = metric, width

    def __missing__(self, key: int) -> ExactDissimilarity:
        width = self._width
        if self._metric is Metric.JACCARD and key:
            # Invert key = floor(x * W^2 / u): at the first u where
            # x = ceil(key * u / W^2) gives the key back, x/u is its fraction.
            scale = width * width
            u = next(u for u in range(1, width + 1) if -(-key * u // scale) * scale // u == key)
            x = -(-key * u // scale)
        else:
            x = u = key
        row = [1] * u + [0] * (width - u)
        value = self[key] = distance(self._metric, [0] * x + row[x:], row)
        return value


class _Replay:
    """An agglomeration's merge list, ``clusters`` (tree nodes by id), and
    the proximity matrices re-derived from it.  On the first read the
    merges are applied, by the single-linkage row minimum, to a table of
    the active clusters' int distances: ``rows[x][y]`` for active x and y,
    where a merged-away row is freed (None) and the entries at its id in
    other rows are stale.  The table only moves forward; an earlier round
    than the last one read starts again from the leaves."""

    def __init__(self, pattern: PatternMatrix, metric: Metric):
        if pattern.n_rows < 2:
            raise ValidationError("clustering needs at least 2 pattern rows")
        self.pattern, self.metric = pattern, metric
        self.clusters = [DendroNode(i, label) for i, label in enumerate(pattern.row_labels)]
        self.exact = _ExactKeys(metric, pattern.n_cols)
        self.rows: list[list[int] | None] = []
        self.active: list[int] = []

    def record(self, group: tuple[int, ...], height: ExactDissimilarity,
               round_index: int) -> DendroNode:
        """Append and return the ``DendroNode`` of a merge of ``group``."""
        clusters, n = self.clusters, self.pattern.n_rows
        if any(clusters[g].height > height for g in group if g >= n):
            raise ValidationError(f"merge at {height.display} would sit below one of its parts")
        new = DendroNode(len(clusters), f"C{len(clusters) - n + 1}", group, height, round_index)
        clusters.append(new)
        return new

    def _merge(self, group: tuple[int, ...]) -> None:
        rows, active = self.rows, self.active
        row = rows[group[0]]
        for g in group[1:]:
            row = [a if a < b else b for a, b in zip(row, rows[g])]
        row.append(0)
        for g in group:
            del active[bisect_left(active, g)]
            rows[g] = None
        for k in active:
            rows[k].append(row[k])
        active.append(len(rows))
        rows.append(row)

    def matrix_after(self, round_index: int) -> ProximityMatrix:
        """The proximity matrix over the clusters active after a round
        (round 0: the original rows)."""
        clusters = self.clusters
        if not self.rows or (clusters[len(self.rows) - 1].round_index or 0) > round_index:
            self.rows = _leaf_table(self.pattern, self.metric)
            self.active = list(range(self.pattern.n_rows))
        for node in clusters[len(self.rows):]:
            if node.round_index > round_index:
                break
            self._merge(node.children)
        ids, rows = self.active, self.rows
        return ProximityMatrix(tuple(map(clusters.__getitem__, ids)),
                               [list(map(rows[b].__getitem__, ids[:pos]))
                                for pos, b in enumerate(ids)],
                               self.exact)


def initial_proximity(pattern: PatternMatrix, metric: Metric) -> ProximityMatrix:
    """Pairwise dissimilarities between all original pattern rows."""
    return _Replay(pattern, metric).matrix_after(0)


def cluster(pattern: PatternMatrix, metric: Metric,
            policy: MergePolicy = MergePolicy.SEQUENTIAL) -> ClusterResult:
    """Run the full agglomeration and return the merge tree plus round trace.

    Leaves 0..n-1 keep the row labels; merged clusters get ids n, n+1, ...
    and labels C1, C2, ... in creation order within and across rounds.  One
    ``DendroNode`` per cluster serves the tree, ``Merge`` and
    ``ProximityMatrix.active``.

    The merges are chosen one distance level at a time, upwards, until one
    cluster is left; level 0 is the classes of identical rows.  At a higher
    level two clusters are neighbours if a pair of their rows is at that
    distance, and a merge's neighbours are its parts'.  Memory is one int
    per pair of distinct rows plus one neighbour entry per pair at the
    current level, all freed on return: a replay of the merges rebuilds a
    round's ``matrix_after`` when it is read, so reading every round's
    matrix of a sequential run costs O(n^3).
    """
    replay = _Replay(pattern, metric)
    clusters, n = replay.clusters, pattern.n_rows
    trace: list[MergeRound] = []

    def merge_round(groups: list[tuple[int, ...]], key: int) -> list[int]:
        height = replay.exact[key]
        merges = [Merge(replay.record(group, height, len(trace) + 1),
                        tuple(map(clusters.__getitem__, group))) for group in groups]
        trace.append(MergeRound(len(trace) + 1, height, tuple(merges), replay))
        return [new.id for new, _ in merges]

    classes = _row_classes(pattern)
    live = [deque(ids) for ids in classes]
    copies = [ids for ids in live if len(ids) > 1]
    if policy is MergePolicy.PAPER_REPRO:
        # Each class of identical rows merges whole, all in one round.
        if copies:
            for ids, new in zip(copies, merge_round(list(map(tuple, copies)), 0)):
                ids.append(new)
    else:
        # The class holding the smallest id that has a copy left merges its
        # two smallest live members.
        heap = [(ids[0], k) for k, ids in enumerate(copies)]
        while heap:
            ids = copies[heap[0][1]]
            ids.extend(merge_round([(ids.popleft(), ids.popleft())], 0))
            if len(ids) > 1:
                heapreplace(heap, (ids[0], heap[0][1]))
            else:
                heappop(heap)

    # at[p]: the cluster that holds class p; inside[c]: the classes of c.
    at = [ids[-1] for ids in live]
    inside = {c: [p] for p, c in enumerate(at)}

    count, buckets = len(classes), _pair_ints(pattern, metric, classes)
    # near[c]: c's larger neighbours at the level, each named by one of its
    # classes; merges leave a name valid, and make some repeat.  In id order,
    # each cluster takes its smallest neighbour not yet taken (one greedy
    # matching per round, or only the first pair), and a smaller neighbour
    # still free would have taken it first, so the larger ones are enough.
    near: dict[int, array] = defaultdict(lambda: array("I"))
    for key in sorted(buckets):
        if len(inside) == 1:
            break
        for pq in buckets.pop(key):
            p, q = divmod(pq, count)
            if at[p] < at[q]:
                near[at[p]].append(q)
            elif at[q] < at[p]:
                near[at[q]].append(p)
        while near:
            taken: set[int] = set()
            groups = []
            # The sequential policy merges the matching's first pair only.
            for c in sorted(near) if policy is MergePolicy.PAPER_REPRO else [min(near)]:
                if c in taken:
                    continue
                ids = set(map(at.__getitem__, near[c]))
                free = ids - taken
                if free:
                    groups.append((c, min(free)))
                    taken.update(groups[-1])
                elif len(ids) < len(near[c]):
                    # Blocked now, and read again next round: keep one name
                    # per cluster.
                    by_cluster = dict(zip(map(at.__getitem__, near[c]), near[c]))
                    near[c] = array("I", by_cluster.values())
            for (c, d), new in zip(groups, merge_round(groups, key)):
                inside[new] = inside.pop(c) + inside.pop(d)
                for p in inside[new]:
                    at[p] = new
                # `new` has the largest id, so the parts' larger neighbours
                # now hold the pair.
                for x in set(map(at.__getitem__, chain(near.pop(c), near.pop(d, ())))) - {new}:
                    near[x].append(inside[new][0])
    dend = Dendrogram(dict(enumerate(clusters)), root=len(clusters) - 1, n_leaves=n)
    return ClusterResult(dend, tuple(trace))
