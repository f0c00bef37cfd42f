"""The engine's merges equal the frozen reference engine's at scale.

Each case runs ``objident.cluster`` and ``reference_engine.reference_merges``
on one corpus of 200 to 800 functions and compares every merge: its new
id, its constituents' ids, its exact height and its round.  The shapes are
the benchmark generator's random and dup-heavy corpora plus four built
here: a star (every row one bit from an empty row, so nearly every pair
ties), a chain (distances |i - j|), identical rows and all-zero rows.
Every shape x policy x metric case runs; the sizes rotate across them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from objident import (
    MergePolicy,
    Metric,
    build_pattern_matrix,
    cluster,
    derive_relations,
    parse_components,
)

import reference_engine
from test_engine import make_pattern

_CORPUS_PY = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
_spec = importlib.util.spec_from_file_location("bench_corpus", _CORPUS_PY)
bench_corpus = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_corpus)


def generated(n, dup_rate, seed):
    subjects, records = parse_components(
        bench_corpus.to_components(bench_corpus.generate(n, dup_rate, seed)))
    return build_pattern_matrix(records, derive_relations(subjects))


def star(n):
    width = n - 1
    one_bit = [tuple(int(i == j) for i in range(width)) for j in range(width)]
    return make_pattern(one_bit[:n // 3] + [(0,) * width] + one_bit[n // 3:])


def chain(n):
    return make_pattern([(1,) * i + (0,) * (n - 1 - i) for i in range(n)])


SHAPES = {
    "random": lambda n: generated(n, 0.0, n),
    "dups": lambda n: generated(n, 0.5, n),
    "star": star,
    "chain": chain,
    "identical": lambda n: make_pattern([(1, 0, 1)] * n),
    "all-zero": lambda n: make_pattern([(0, 0)] * n),
}
SIZES = (200, 300, 450, 800)


def cases():
    for s, shape in enumerate(SHAPES):
        for p, policy in enumerate(MergePolicy):
            for m, metric in enumerate(Metric):
                n = SIZES[(s + p + m) % len(SIZES)]
                yield pytest.param(shape, policy, metric, n,
                                   id=f"{shape}-{policy.value}-{metric.value}-{n}")


@pytest.mark.parametrize("shape, policy, metric, n", cases())
def test_merges_match_reference_engine(shape, policy, metric, n):
    pattern = SHAPES[shape](n)
    assert pattern.n_rows == n
    expected = reference_engine.reference_merges(
        pattern, metric, paper=policy is MergePolicy.PAPER_REPRO)
    trace = cluster(pattern, metric, policy=policy).trace
    got = [(r.round_index, m.new.id, tuple(c.id for c in m.constituents), m.new.height)
           for r in trace for m in r.merges]
    assert got == expected
    assert all(m.new.height == r.min_key and m.new.round_index == r.round_index
               for r in trace for m in r.merges)
