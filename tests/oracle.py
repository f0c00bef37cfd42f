"""Independent reference computations used to cross-check the package.

Everything here is recomputed from first principles: pairwise values come
straight from the rows, and cluster-to-cluster values are minima over all
member pairs, recomputed at every step.  This module must not import
anything from the package under test, so agreement between the two is a
real check rather than a tautology.
"""

import math
from fractions import Fraction


def euclidean_value(row_a, row_b):
    """Direct floating-point root-of-squared-differences evaluation."""
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(row_a, row_b)))


def pair_key(metric_name, row_a, row_b):
    """Exact rational comparison key for one row pair, by metric name."""
    assert len(row_a) == len(row_b)
    diff = sum(1 for a, b in zip(row_a, row_b) if a != b)
    if metric_name in ("euclidean", "manhattan"):
        return Fraction(diff)
    if metric_name == "smc":
        return Fraction(diff, len(row_a))
    if metric_name == "jaccard":
        both = sum(1 for a, b in zip(row_a, row_b) if a == 1 and b == 1)
        return Fraction(0) if both + diff == 0 else Fraction(diff, both + diff)
    raise ValueError(metric_name)


def group_key(metric_name, rows, members_a, members_b):
    """Single-linkage cluster distance: min over all cross member pairs."""
    return min(pair_key(metric_name, rows[p], rows[q])
               for p in members_a for q in members_b)


def single_linkage_steps(rows, metric_name="euclidean"):
    """Brute-force one-merge-per-step single linkage.

    Minimum recomputed over all member pairs at every step; ties broken by
    the lexicographically first ascending (i, j) cluster-id pair; merged
    clusters take fresh ascending ids.  Returns a list of
    (key, merged_pair_ids, merged_member_set) steps.
    """
    clusters = {i: frozenset((i,)) for i in range(len(rows))}
    next_id = len(rows)
    steps = []
    while len(clusters) > 1:
        ids = sorted(clusters)
        best = None
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                i, j = ids[x], ids[y]
                key = group_key(metric_name, rows, clusters[i], clusters[j])
                if best is None or key < best[0]:
                    best = (key, i, j)
        key, i, j = best
        merged = clusters.pop(i) | clusters.pop(j)
        clusters[next_id] = merged
        steps.append((key, (i, j), merged))
        next_id += 1
    return steps


def paper_rounds(rows, metric_name="euclidean"):
    """Brute-force round-based single linkage (the paper policy).

    Every round recomputes all cluster distances from member pairs.  At a
    zero minimum, each connected component of the zero-distance graph merges
    as one cluster; otherwise disjoint minimum pairs are taken greedily in
    ascending (i, j) id order.  Groups are ordered by smallest member id,
    members ascend, and merged clusters take fresh ascending ids.  Returns a
    list of (key, [(member_ids, new_id), ...]) rounds.
    """
    pairwise = [[pair_key(metric_name, a, b) for b in rows] for a in rows]
    clusters = {i: frozenset((i,)) for i in range(len(rows))}
    next_id = len(rows)
    rounds = []
    while len(clusters) > 1:
        ids = sorted(clusters)
        keys = {
            (i, j): min(pairwise[p][q] for p in clusters[i] for q in clusters[j])
            for x, i in enumerate(ids) for j in ids[x + 1:]
        }
        low = min(keys.values())
        if low == 0:
            component = {i: {i} for i in ids}
            for (i, j), key in keys.items():
                if key == 0 and component[i] is not component[j]:
                    joined = component[i] | component[j]
                    for member in joined:
                        component[member] = joined
            groups = sorted({tuple(sorted(c)) for c in component.values() if len(c) > 1})
        else:
            taken = set()
            groups = []
            for (i, j), key in keys.items():
                if key == low and i not in taken and j not in taken:
                    groups.append((i, j))
                    taken.update((i, j))
        merges = []
        for group in groups:
            clusters[next_id] = frozenset().union(*(clusters.pop(i) for i in group))
            merges.append((group, next_id))
            next_id += 1
        rounds.append((low, merges))
    return rounds
