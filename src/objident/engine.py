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
choose.  So the engine walks the levels upwards, each id in ascending order
taking its smallest neighbour, and takes each level's pairs from a source
when it reaches the level.  Only the pairs of distinct rows that share a
column get an int, found through a column -> rows index as in all-pairs
similarity search (Bayardo, Ma & Srikant, WWW 2007).  Any other pair's int
follows from the two row weights (w_a + w_b, or the top level under
Jaccard).  Such a level is listed only when the walk gets there, and then
the weights alone name its pairs, one per two clusters with rows of weights
of that sum: two rows that share a column are below that sum, so in one
cluster by then.  So time and memory follow the pairs that share a column
and the clusters at the levels reached, not n^2.
Rows dense enough that the index would list more pairs than there are get
every pair's int instead, O(n^2) time and memory, and only the pairs up to
the last merge, found from a spanning tree, are sorted into levels.

No distance table between clusters is kept.  A round's proximity matrix is
re-derived from the merge list by a forward walk that applies the merges,
by the single-linkage row minimum, in place to a lower triangle of the leaf
distances that it owns, whose rows are the matrix's ``keys``: a round only
deletes its merged clusters' rows and columns and appends a row per new
cluster.  Next to it the walk keeps one lower triangle per *view*, a
function of an ``ExactDissimilarity`` called once per distinct int of the
run, and moves every triangle through the same deletions and appends.
A run is such a walk with no views that also keeps the merge list and
the exact memo; ``MergeRound.matrix_after`` copies its rows, and
``walk_rounds`` walks with views of its own and copies nothing.  Read in
order, a round costs O(active^2); an earlier one restarts from the leaves.
"""

from __future__ import annotations

import enum
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from functools import cached_property, partial
from heapq import heappop, heapreplace
from itertools import chain, groupby, repeat
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .dendrogram import DendroNode, Dendrogram, _Memo
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


class ProximityMatrix(NamedTuple("ProximityMatrix", [
        ("active", tuple[DendroNode, ...]), ("keys", list[list[int]])])):
    """Symmetric dissimilarity matrix over the clusters active at one point.

    ``active`` is ascending by id; ``keys[p][q]``, q < p, is the engine's int
    distance between ``active[p]`` and ``active[q]``, and ``exact`` maps each
    int to its ``ExactDissimilarity``, one value shared by all cells at it;
    it is not a field, so equality and repr leave it out.
    ``cells`` maps (i, j) ids, i < j, to the dissimilarity; it is built on
    first read.  These three are the readers: ``cells[i, j]`` for one pair,
    ``cells.items()`` for all of them.  The diagonal is implicitly zero and
    never stored, so no (i, i) key exists.
    """

    def __new__(cls, active: tuple[DendroNode, ...], keys: list[list[int]],
                exact: Mapping[int, ExactDissimilarity]):
        ids = [c.id for c in active]
        if ids != sorted(ids):
            raise ValidationError("active clusters must be ascending by id")
        self = super().__new__(cls, active, keys)
        self.exact = exact
        return self

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


class MergeRound(NamedTuple("MergeRound", [
        ("round_index", int), ("min_key", ExactDissimilarity), ("merges", tuple[Merge, ...])])):
    """One round of the engine: what merged, at what minimum, and (through
    ``matrix_after``) the proximity matrix left after all of its merges.
    The run's triangle, ``_replay``, is not a field: equality and repr leave it out."""

    def __new__(cls, round_index: int, min_key: ExactDissimilarity,
                merges: tuple[Merge, ...], replay: _Triangle):
        self = super().__new__(cls, round_index, min_key, merges)
        self._replay = replay
        return self

    @property
    def matrix_after(self) -> ProximityMatrix:
        """The proximity matrix after this round's merges, rebuilt on every
        access by the run's triangle: its int ``keys`` are a copy of the
        rows of the triangle's walk, which has no views, made in O(active^2)
        time when rounds are read in order (an earlier round starts the
        walk again), its ``cells`` dict only when read.  Hold on to the
        result to read it twice.  This is the library's reader:
        ``document.structured_chunks``, and ``to_structured`` through it,
        never call it, and read instead the tables of a ``walk_rounds`` of
        their own."""
        return self._replay.matrix_after(self.round_index)


class RoundRows(NamedTuple):
    """One step of ``walk_rounds``: a round, the clusters active after it
    (ascending by id) and one lower triangle per view, whose row p holds
    the view of each ``ExactDissimilarity`` between ``active[p]`` and the
    clusters before it.  The tables are the walk's own: they change when
    it moves on."""

    round: MergeRound
    active: tuple[DendroNode, ...]
    tables: tuple[list[list], ...]


def walk_rounds(trace: Sequence[MergeRound], *views) -> Iterator[RoundRows]:
    """Each round of ``trace``, rounds of one run, with its active clusters
    and a table per view of ``views``, functions of an
    ``ExactDissimilarity``, from one walk over the merge list that applies
    the merges in place to the lower triangles of its own: no table is
    copied, and nothing is shared with ``matrix_after``.  Each view is
    called once per distinct distance of the run, whatever the order of
    ``trace``: the walk keeps its results, also when it starts again from
    the leaves, at a round earlier than the one before it."""
    if trace:
        run = trace[0]._replay
        table = _Triangle(run.pattern, run.metric, run.clusters, run.exact, *views)
        for r in trace:
            if r._replay is not run:
                raise ValidationError("the rounds of a trace must come from one run")
            table.move_to(r.round_index)
            yield RoundRows(r, table.nodes(), table.tables)


class ClusterResult(NamedTuple):
    dendrogram: Dendrogram
    trace: tuple[MergeRound, ...]


def _row_classes(pattern: PatternMatrix) -> list[list[int]]:
    """Leaf ids grouped by identical pattern row, in order of first
    appearance: each class is ascending, and the classes are ordered by
    their smallest member."""
    classes: dict[int, list[int]] = {}
    for i, row in enumerate(pattern.rows):
        classes.setdefault(row, []).append(i)
    return list(classes.values())


def _row_ints(metric: Metric, width: int, a: int, rows: Sequence[int],
              weights: Sequence[int]) -> list[int]:
    """The distance of pattern row ``a`` to each pattern row of ``rows``, as
    an int that orders and ties exactly like the metric's key; ``weights``
    holds the bit count of each row of ``rows``.  Only bit counts are read,
    so bit order is free."""
    xs = [(a ^ b).bit_count() for b in rows]
    if metric is not Metric.JACCARD:
        # The Euclidean (squared), Manhattan and SMC keys are the mismatch
        # count or a fixed multiple of it.
        return xs
    # Jaccard is x/u with x mismatches and 0 < u <= W set columns, or 0 for
    # two empty rows, where u = (w_a + w_b + x) / 2.  Two distinct fractions
    # with denominators <= W differ by at least 1/W^2, so floor(x * W^2 / u)
    # orders and ties like x/u.
    scale, wa = width * width, a.bit_count()
    return [x * scale // ((wa + wb + x) >> 1 or 1) for x, wb in zip(xs, weights)]


def _levels(pattern: PatternMatrix, metric: Metric, classes: list[list[int]],
            inside: dict[int, list[int]], dense: bool | None = None
            ) -> Iterator[tuple[int, Iterable[tuple[int, int]]]]:
    """The distance levels of the pairs of distinct pattern rows, ascending,
    each with pairs of classes (indexes into ``classes``, which is
    ``_row_classes(pattern)``) that make the level's neighbours: every pair
    of classes at the level, or, for a pair that shares no column, one pair
    per two clusters of ``inside`` (cluster -> its classes) as it stands
    when the level is asked for.  Nothing is computed before the first
    level is asked for, and no level past the last one asked for is listed.

    A pair that shares a column is found through a column -> classes index
    and its int computed by ``_row_ints``.  Any other pair's int is fixed by
    the two row weights: w_a + w_b, or under Jaccard the top level W^2;
    ``_apart_pairs`` names such a level's pairs from the clusters' class
    weights when it is reached, and the level also lists the pair (0, 0),
    which the walk skips.  Unless ``dense`` is False, an input whose index
    would list more pairs than there are (dense rows, such as a chain's) has
    every pair computed instead, as ``dense`` True asks; then the levels
    stop at the longest edge of a spanning tree, which no merge is above."""
    rows = [pattern.rows[ids[0]] for ids in classes]
    weights = [a.bit_count() for a in rows]
    count, width, jaccard = len(rows), pattern.n_cols, metric is Metric.JACCARD
    # The column -> classes index, while it lists fewer pairs than the
    # square has: mine[p] holds (column, the length it had before p).
    cols: list[list[int]] = [[] for _ in range(width)]
    mine: list[list[tuple[list[int], int]]] = []
    budget = count * (count - 1) // 2
    for a in rows:
        if dense or dense is None and budget < 0:
            break
        mine.append([])
        while a:
            low = a & -a
            a ^= low
            col = cols[low.bit_length() - 1]
            budget -= len(col)
            mine[-1].append((col, len(col)))
            col.append(len(mine) - 1)
    if dense is None:
        dense = budget < 0
    # One int per pair: its level, then its two classes.
    shift = count.bit_length()
    level_shift = 2 * shift
    found, typecode = [], "I" if width * width < 1 << 32 else "Q"
    for p in range(1, count):
        if dense:
            qs, near_rows, near_weights = range(p), rows[:p], weights[:p]
        else:
            qs = tuple(set().union(*(col[:k] for col, k in mine[p])))
            near_rows = list(map(rows.__getitem__, qs))
            near_weights = list(map(weights.__getitem__, qs))
        keys = _row_ints(metric, width, rows[p], near_rows, near_weights)
        found.append((p << shift, qs, array(typecode, keys)))
    bound = width * width
    if dense and found:
        # No merge is above the longest edge of a spanning tree: first the
        # one that joins each class to its nearest earlier class; if that
        # edge is not the shortest pair, Prim's, whose longest edge is the
        # last merge.
        tri = [keys for _, _, keys in found]
        earlier = list(map(min, tri))
        bound = max(earlier)
        if bound > min(earlier):
            # out: the classes not in the tree yet; dist: their distance.
            out, dist, bound = list(range(count - 1)), list(tri[-1]), 0
            while out:
                i = dist.index(min(dist))
                v, bound = out.pop(i), max(bound, dist.pop(i))
                dist = list(map(min, dist, [tri[v - 1][q] if q < v else tri[q - 1][v]
                                            for q in out]))
    packed = [key << level_shift | base | q for base, qs, keys in found
              for key, q in zip(keys, qs) if key <= bound]
    del cols, mine, found
    # Each level of the pairs that share no column gets a pair (0, 0), so
    # that it is listed even if it has no other.
    tiers = Counter([0] * count if jaccard else weights)
    apart = set() if dense else {width * width if jaccard else s + t for s in tiers
                                 for t in tiers if s < t or s == t and tiers[s] > 1}
    packed += [key << level_shift for key in apart]
    packed.sort()
    pair_bits = (1 << level_shift) - 1
    for key, group in groupby(packed, level_shift.__rrshift__):
        pairs = map(divmod, map(pair_bits.__and__, group), repeat(1 << shift))
        if key in apart:
            pairs = chain(pairs, _apart_pairs(key, inside, None if jaccard else weights))
        yield key, pairs


def _apart_pairs(key: int, inside: dict[int, list[int]],
                 weights: list[int] | None) -> Iterator[tuple[int, int]]:
    """One class pair for each two clusters of ``inside`` that hold classes
    whose weights sum to ``key``, or for each two clusters if ``weights``
    is ``None`` (Jaccard's top level), read from ``inside`` as it stands
    when the first pair is asked for.  No pair is tested for a column in
    common: two rows that share one are below the sum of their weights
    (below the top under Jaccard), and the walk asks for a level only when
    every pair below it is inside one cluster (Gower & Ross)."""
    # weight -> cluster -> the cluster's name, its first class
    tiers: dict[int, dict[int, int]] = defaultdict(dict)
    for c, ps in inside.items():
        for p in ps:
            tiers[weights[p] if weights else 0][c] = ps[0]
    for s, left in tiers.items():
        t = key - s if weights else s
        if s <= t and t in tiers:
            yield from ((name, other) for c, name in left.items() for d, other in tiers[t].items()
                        if (c < d if s == t else c != d))


def _leaf_table(pattern: PatternMatrix, metric: Metric) -> list[list[int]]:
    """The int distance between every two pattern rows, as a lower
    triangle: row p is ``_row_ints`` of row p against rows 0..p-1, copies
    included, each row a list of its own."""
    rows, weights = pattern.rows, [a.bit_count() for a in pattern.rows]
    return [_row_ints(metric, pattern.n_cols, a, rows[:p], weights[:p])
            for p, a in enumerate(rows)]


def _exact(metric: Metric, width: int, key: int) -> ExactDissimilarity:
    """The ``ExactDissimilarity`` of the int distance ``key``, by
    ``metrics.distance`` on two made-up rows of ``width`` columns whose
    mismatch and either-set counts the int stands for."""
    if metric is Metric.JACCARD and key:
        # Invert key = floor(x * W^2 / u): at the first u where
        # x = ceil(key * u / W^2) gives the key back, x/u is its fraction.
        scale = width * width
        u = next(u for u in range(1, width + 1) if -(-key * u // scale) * scale // u == key)
        x = -(-key * u // scale)
    else:
        x = u = key
    row = [1] * u + [0] * (width - u)
    return distance(metric, [0] * x + row[x:], row)


class _Triangle:
    """A run: its ``pattern``, ``metric``, ``clusters`` (tree nodes by id:
    the merge list) and ``exact`` memo (int -> ``ExactDissimilarity``),
    and the int distances between the clusters active after a round, as a
    lower triangle: ``rows[p][q]``, q < p, is the distance between the
    clusters of ids ``active[p]`` and ``active[q]``; and in ``tables``, one
    triangle per view with the view of each of them, made once per int by
    a memo kept across moves.  Built from the leaves on the first move, it
    then only moves forward, in place; ``applied`` counts the clusters it
    holds or has merged away."""

    def __init__(self, pattern: PatternMatrix, metric: Metric, clusters: list[DendroNode],
                 exact: _Memo, *views):
        self.pattern, self.metric, self.clusters, self.exact = pattern, metric, clusters, exact
        self.rows: list[list[int]] = []
        self.memos = [_Memo(lambda k, view=view: view(exact[k])) for view in views]
        self.tables = tuple([] for _ in views)
        self.active: list[int] = []
        self.applied = 0

    def matrix_after(self, round_index: int) -> ProximityMatrix:
        """The proximity matrix over the clusters active after a round
        (round 0: the original rows), with a copy of the walk's rows."""
        self.move_to(round_index)
        return ProximityMatrix(self.nodes(), list(map(list.copy, self.rows)), self.exact)

    def nodes(self) -> tuple[DendroNode, ...]:
        return tuple(map(self.clusters.__getitem__, self.active))

    def move_to(self, round_index: int) -> None:
        """Apply the merges of the rounds up to ``round_index`` (0: none),
        starting again from the leaves if it is past that round."""
        clusters, n = self.clusters, self.pattern.n_rows
        if not self.applied or (clusters[self.applied - 1].round_index or 0) > round_index:
            self.rows = _leaf_table(self.pattern, self.metric)
            for table, memo in zip(self.tables, self.memos):
                table[:] = [list(map(memo.__getitem__, row)) for row in self.rows]
            self.active = list(range(n))
            self.applied = n
        while self.applied < len(clusters) and clusters[self.applied].round_index <= round_index:
            self._merge(clusters[self.applied])

    def _merge(self, node: DendroNode) -> None:
        """Replace the rows and columns of ``node``'s children by one last
        row, their minimum, in every table: ``node`` has the largest id yet."""
        rows, active = self.rows, self.active
        at = [bisect_left(active, g) for g in node.children]
        # Each child's distances to every position, 0 at its own.
        row = list(map(min, *(rows[p] + [0] + [later[p] for later in rows[p + 1:]]
                              for p in at)))
        # From the last position down, so that each one still holds: the
        # rows after it are the ones with a column there.
        for p in reversed(at):
            del row[p], active[p]
            for table in (rows, *self.tables):
                del table[p]
                for later in table[p:]:
                    del later[p]
        rows.append(row)
        for table, memo in zip(self.tables, self.memos):
            table.append(list(map(memo.__getitem__, row)))
        active.append(node.id)
        self.applied += 1


def _leaves(pattern: PatternMatrix, metric: Metric) -> _Triangle:
    """A new run's triangle: one leaf per pattern row, nothing merged."""
    if not isinstance(metric, Metric):
        raise ValidationError(f"metric must be a Metric, not {metric!r}")
    if pattern.n_rows < 2:
        raise ValidationError("clustering needs at least 2 pattern rows")
    clusters = [DendroNode(i, label) for i, label in enumerate(pattern.row_labels)]
    return _Triangle(pattern, metric, clusters, _Memo(partial(_exact, metric, pattern.n_cols)))


def initial_proximity(pattern: PatternMatrix, metric: Metric) -> ProximityMatrix:
    """Pairwise dissimilarities between all original pattern rows."""
    return _leaves(pattern, metric).matrix_after(0)


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
    per pair of distinct rows that share a column (per pair up to the last
    merge, for rows too dense for a column index) plus one neighbour entry
    per pair at the current level, or per two clusters for the pairs that
    share no column, all freed on return: a replay of the merges rebuilds a
    round's ``matrix_after`` when it is read, from a lower triangle over
    the active clusters alone, so reading every round's matrix of a
    sequential run costs O(n^3) in time and O(n^2) in memory;
    ``walk_rounds`` hands out each round's tables of its views of the
    distances without copying them.  A ``metric`` or ``policy`` that is not
    a ``Metric`` or ``MergePolicy`` (a name, say) is refused.
    """
    return _cluster(pattern, metric, policy, _levels)


def _cluster(pattern: PatternMatrix, metric: Metric, policy: MergePolicy,
             levels: Callable[..., Iterator[tuple[int, Iterable[tuple[int, int]]]]]
             ) -> ClusterResult:
    """``cluster``, with the pairs of each level pulled from the iterator
    ``levels(pattern, metric, classes, inside)``: ``_levels`` for
    ``cluster``, or another source to check the walk against."""
    run = _leaves(pattern, metric)
    if not isinstance(policy, MergePolicy):
        raise ValidationError(f"policy must be a MergePolicy, not {policy!r}")
    clusters, n = run.clusters, pattern.n_rows
    keys = [0] * n  # each cluster's height as the engine's int, 0 for a leaf
    trace: list[MergeRound] = []

    def merge_round(groups: list[tuple[int, ...]], key: int) -> list[int]:
        height, merges, index = run.exact[key], [], len(trace) + 1
        for group in groups:
            if any(keys[g] > key for g in group):
                raise ValidationError(
                    f"merge at {height.display} would sit below one of its parts")
            new = DendroNode(len(clusters), f"C{len(clusters) - n + 1}", group, height, index)
            merges.append(Merge(new, tuple(map(clusters.__getitem__, group))))
            clusters.append(new)
            keys.append(key)
        trace.append(MergeRound(index, height, tuple(merges), run))
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

    # near[c]: c's larger neighbours at the level, each named by one of its
    # classes; merges leave a name valid, and make some repeat.  In id order,
    # each cluster takes its smallest neighbour not yet taken (one greedy
    # matching per round, or only the first pair), and a smaller neighbour
    # still free would have taken it first, so the larger ones are enough.
    near: dict[int, array] = defaultdict(lambda: array("I"))
    pairs_by_level = levels(pattern, metric, classes, inside)
    while len(inside) > 1:
        key, pairs = next(pairs_by_level)
        for p, q in pairs:
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
