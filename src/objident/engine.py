"""Agglomerative single-linkage clustering over binary pattern rows.

Two merge policies are provided:

* SEQUENTIAL: the classic one-merge-per-step algorithm.  Each round merges
  exactly the lexicographically first (by ascending id pair) of the pairs
  achieving the global minimum dissimilarity.
* PAPER_REPRO: a round-based variant.  When the global minimum is exactly
  zero, every connected component of the zero-dissimilarity graph merges as
  one multiway cluster; otherwise disjoint minimum pairs are picked greedily
  in ascending (i, j) id order.  Several merges can happen per round.

Both are deterministic given the input row order.  Ties are decided
exactly, never by float luck: the engine compares ints whose order and
equality match the metric's exact rational keys, and exact
``ExactDissimilarity`` values are made from ``metrics.distance`` for the
merge heights and for the snapshots a caller reads.

The engine keeps, for each active cluster, its nearest partner among the
active clusters with a larger id (the smallest such id on a tie).  A new
cluster always takes the largest id, so after a merge only the rows whose
partner was consumed need a search; every other row compares against the
new cluster alone.  Time and memory are O(n^2) for n pattern rows.
"""

from __future__ import annotations

import enum
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

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
class ClusterId:
    """A cluster handle: numeric id plus display label.

    Ids 0..n-1 are the original rows (labelled by component name); merged
    clusters get ids n, n+1, ... and labels C1, C2, ... in creation order.
    """

    id: int
    label: str


@dataclass(frozen=True)
class ProximityMatrix:
    """Symmetric dissimilarity matrix over the clusters active at one point.

    ``active`` is ascending by id; ``cells`` maps (i, j) with i < j to the
    dissimilarity.  The diagonal is implicitly zero and never stored.
    Built on request by ``initial_proximity`` and ``MergeRound.matrix_after``.
    """

    active: tuple[ClusterId, ...]
    cells: dict[tuple[int, int], ExactDissimilarity]

    def __post_init__(self):
        ids = [c.id for c in self.active]
        if ids != sorted(ids):
            raise ValidationError("active clusters must be ascending by id")

    def get(self, i: int, j: int) -> ExactDissimilarity:
        """Cell for two distinct active cluster ids, in either order."""
        if i == j:
            raise ValidationError("diagonal cells are not stored")
        return self.cells[(i, j) if i < j else (j, i)]

    def pairs(self) -> Iterator[tuple[ClusterId, ClusterId, ExactDissimilarity]]:
        """All unordered pairs in ascending lexicographic (i, j) id order."""
        for a_pos in range(len(self.active)):
            for b_pos in range(a_pos + 1, len(self.active)):
                a, b = self.active[a_pos], self.active[b_pos]
                yield a, b, self.cells[(a.id, b.id)]


class Merge(NamedTuple):
    new: ClusterId
    constituents: tuple[ClusterId, ...]


@dataclass(frozen=True)
class MergeRound:
    """One round of the engine: what merged, at what minimum, and (through
    ``matrix_after``) the proximity matrix left after all of its merges."""

    round_index: int
    min_key: ExactDissimilarity
    merges: tuple[Merge, ...]
    _table: "_ClusterTable" = field(repr=False, compare=False)

    @property
    def matrix_after(self) -> ProximityMatrix:
        """The proximity matrix after this round's merges.

        Rebuilt on every access, in O(active^2) time, from distances the
        engine keeps anyway; hold on to the result to read it twice.
        """
        return self._table.snapshot(self.round_index)


class ClusterResult(NamedTuple):
    dendrogram: Dendrogram
    trace: tuple[MergeRound, ...]


def _pair_ints(pattern: PatternMatrix, metric: Metric) -> list[list[int]]:
    """All pairwise distances between pattern rows as ints that order and
    tie exactly like the metric's keys."""
    packed = [int("".join(map(str, row)) or "0", 2) for row in pattern.rows]
    if metric is not Metric.JACCARD:
        # The Euclidean (squared), Manhattan and SMC keys are the mismatch
        # count or a fixed multiple of it.
        return [[(a ^ b).bit_count() for b in packed] for a in packed]
    # Jaccard is x/u with x mismatches and u <= W set columns.  Two distinct
    # fractions with denominators <= W differ by at least 1/W^2, so
    # floor(x * W^2 / u) orders and ties exactly like x/u.
    width = pattern.n_cols
    scale = width * width
    table = [[x * scale // u if u else 0 for u in range(width + 1)]
             for x in range(width + 1)]
    return [[table[(a ^ b).bit_count()][(a | b).bit_count()] for b in packed]
            for a in packed]


class _ExactKeys(dict):
    """Int distance -> ExactDissimilarity, made on first use by
    ``metrics.distance`` on one leaf pair at that distance."""

    def __init__(self, pattern: PatternMatrix, metric: Metric, rows: list[list[int]]):
        super().__init__()
        self._pattern_rows = pattern.rows
        self._metric = metric
        self._leaf_pair: dict[int, tuple[int, int]] = {}
        for a, row in enumerate(rows):
            for key in set(row):
                if key not in self._leaf_pair:
                    self._leaf_pair[key] = (a, row.index(key))

    def __missing__(self, key: int) -> ExactDissimilarity:
        a, b = self._leaf_pair[key]
        value = self[key] = distance(self._metric, self._pattern_rows[a],
                                     self._pattern_rows[b])
        return value


def _ids_at(row: list[int], ids: list[int], key: int) -> Iterator[int]:
    """The ids, in the given order, whose distance in ``row`` equals ``key``."""
    values = list(map(row.__getitem__, ids))
    at = -1
    while True:
        try:
            at = values.index(key, at + 1)
        except ValueError:
            return
        yield ids[at]


_NEVER = sys.maxsize


class _ClusterTable:
    """Every cluster an agglomeration has made, and the distances between them.

    ``rows[x][y]`` is the int distance between clusters x and y for any two
    that were active at the same time.  A row gets one entry for each
    cluster made while its own cluster is active, and no entry is ever
    rewritten, so the matrix after any round can be rebuilt later.  When a
    cluster is merged away its row keeps only the entries below its own id,
    the only ones a snapshot reads.  Entries for two clusters that were
    never active together are meaningless.
    """

    def __init__(self, pattern: PatternMatrix, metric: Metric):
        n = pattern.n_rows
        if n < 2:
            raise ValidationError("clustering needs at least 2 pattern rows")
        self.n_leaves = n
        self.rows = _pair_ints(pattern, metric)
        self.exact = _ExactKeys(pattern, metric, self.rows)
        self.clusters = [ClusterId(i, label) for i, label in enumerate(pattern.row_labels)]
        self.active = list(range(n))
        self.born = [0] * n
        self.ended = [_NEVER] * n
        self.height = [0] * n

    def merge(self, group: tuple[int, ...], key: int, round_index: int) -> ClusterId:
        """Replace the active clusters ``group`` (ascending ids) by a new
        cluster at distance ``key``, using the single-linkage minimum rule."""
        if any(self.height[g] > key for g in group):
            raise ValidationError(
                f"merge at {self.exact[key].display} would sit below one of its parts")
        new_id = len(self.clusters)
        new = ClusterId(new_id, f"C{new_id - self.n_leaves + 1}")
        rows, active = self.rows, self.active
        row = rows[group[0]]
        for g in group[1:]:
            row = [a if a < b else b for a, b in zip(row, rows[g])]
        row.append(0)
        for g in group:
            del active[bisect_left(active, g)]
            del rows[g][g:]  # a snapshot reads a row only below its own id
            self.ended[g] = round_index
        for k in active:
            rows[k].append(row[k])
        rows.append(row)
        active.append(new_id)
        self.clusters.append(new)
        self.born.append(round_index)
        self.ended.append(_NEVER)
        self.height.append(key)
        return new

    def snapshot(self, round_index: int) -> ProximityMatrix:
        """The proximity matrix over the clusters active after a round
        (round 0: the original rows)."""
        ids = [x for x in range(len(self.clusters))
               if self.born[x] <= round_index < self.ended[x]]
        cells: dict[tuple[int, int], ExactDissimilarity] = {}
        for pos, b in enumerate(ids):
            lower = ids[:pos]
            cells.update(zip(((a, b) for a in lower),
                             map(self.exact.__getitem__, map(self.rows[b].__getitem__, lower))))
        return ProximityMatrix(tuple(self.clusters[x] for x in ids), cells)


def initial_proximity(pattern: PatternMatrix, metric: Metric) -> ProximityMatrix:
    """Pairwise dissimilarities between all original pattern rows."""
    return _ClusterTable(pattern, metric).snapshot(0)


def _zero_components(table: _ClusterTable, near_key: list) -> list[tuple[int, ...]]:
    """Connected components of the zero-distance graph over the active
    clusters: ascending ids, ordered by smallest member."""
    parent: dict[int, int] = {}

    def root(x: int) -> int:
        while x in parent:
            x = parent[x]
        return x

    active = table.active
    for pos, c in enumerate(active):
        if near_key[c] == 0:
            for b in _ids_at(table.rows[c], active[pos + 1:], 0):
                top_c, top_b = root(c), root(b)
                if top_c != top_b:
                    parent[max(top_c, top_b)] = min(top_c, top_b)
    groups: dict[int, list[int]] = {}
    for c in active:
        if c in parent:
            groups.setdefault(root(c), []).append(c)
    return sorted((top, *rest) for top, rest in groups.items())


def _greedy_pairs(table: _ClusterTable, near_key: list, near_id: list,
                  low: int) -> list[tuple[int, int]]:
    """Disjoint pairs at distance ``low``, taken greedily in ascending
    (i, j) id order."""
    active = table.active
    taken: set[int] = set()
    pairs = []
    for pos, c in enumerate(active):
        if near_key[c] != low or c in taken:
            continue
        partner = near_id[c]
        if partner in taken:
            partner = next((b for b in _ids_at(table.rows[c], active[pos + 1:], low)
                            if b not in taken), None)
            if partner is None:
                continue
        pairs.append((c, partner))
        taken.update((c, partner))
    return pairs


def cluster(pattern: PatternMatrix, metric: Metric,
            policy: MergePolicy = MergePolicy.SEQUENTIAL) -> ClusterResult:
    """Run the full agglomeration and return the merge tree plus round trace.

    Merged-cluster labels C1, C2, ... follow creation order within and
    across rounds.  Each round's ``matrix_after`` is rebuilt from the
    engine's distances on every access rather than stored, so the engine
    needs O(n^2) time and memory for n pattern rows; reading every round's
    matrix costs O(n^3) for the sequential policy.
    """
    table = _ClusterTable(pattern, metric)
    rows, active = table.rows, table.active
    n = pattern.n_rows
    # near_key[c], near_id[c]: c's nearest partner among the active clusters
    # with a larger id, the smallest id on a tie; `far` when there is none.
    far = max(map(max, rows)) + 1
    near_key = [far] * (2 * n - 1)
    near_id: list[int | None] = [None] * (2 * n - 1)
    for c in range(n - 1):
        near_key[c] = min(rows[c][c + 1:])
        near_id[c] = rows[c].index(near_key[c], c + 1)
    nodes: dict[int, DendroNode] = {c.id: DendroNode(c.id, c.label) for c in table.clusters}
    trace: list[MergeRound] = []
    round_index = 0
    while len(active) > 1:
        round_index += 1
        if policy is MergePolicy.SEQUENTIAL:
            first = min(active, key=near_key.__getitem__)
            low = near_key[first]
            groups = [(first, near_id[first])]
        else:
            low = min(map(near_key.__getitem__, active))
            groups = (_zero_components(table, near_key) if low == 0
                      else _greedy_pairs(table, near_key, near_id, low))
        height = table.exact[low]
        merges = []
        for group in groups:
            new = table.merge(group, low, round_index)
            nodes[new.id] = DendroNode(new.id, new.label, group, height, round_index)
            merges.append(Merge(new, tuple(table.clusters[g] for g in group)))
            to_new = rows[new.id]
            for pos, c in enumerate(active[:-1]):
                if to_new[c] < near_key[c]:
                    near_key[c], near_id[c] = to_new[c], new.id
                elif near_id[c] in group:
                    # Its partner was merged into `new`, which is now exactly
                    # as near: take the smallest id at that distance (`new`
                    # itself, at the latest).
                    near_id[c] = next(_ids_at(rows[c], active[pos + 1:], near_key[c]))
        trace.append(MergeRound(round_index, height, tuple(merges), table))
    dend = Dendrogram(nodes, root=active[0], n_leaves=n)
    return ClusterResult(dend, tuple(trace))
