import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from objident import (
    ConfigError,
    Metric,
    ValidationError,
    distance,
    metric_from_name,
)

import oracle

ROW_INIT_REF = (0, 1, 0, 0, 0, 1)
ROW_INIT_EXEC = (1, 0, 0, 0, 1, 0)
ROW_IS_EMPTY_REF = (0, 0, 0, 1, 0, 1)
ROW_TRA_REF = (0, 1, 0, 1, 0, 1)
ROW_TRA_EXEC = (1, 0, 1, 0, 1, 0)

row_pairs = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    ))


def test_hamming_examples():
    assert distance(Metric.MANHATTAN, ROW_INIT_REF, ROW_INIT_EXEC).key == 4
    assert distance(Metric.MANHATTAN, ROW_TRA_REF, ROW_TRA_REF).key == 0
    assert distance(Metric.MANHATTAN, ROW_TRA_REF, ROW_TRA_EXEC).key == 6


@pytest.mark.parametrize("metric", list(Metric))
def test_row_length_mismatch(metric):
    with pytest.raises(ValidationError, match="mismatch"):
        distance(metric, (0, 1), (0, 1, 0))


def test_euclidean_examples():
    assert distance(Metric.EUCLIDEAN, ROW_INIT_REF, ROW_INIT_EXEC).display == "2.00"
    assert distance(Metric.EUCLIDEAN, ROW_TRA_REF, ROW_TRA_EXEC).display == "2.45"
    # Squared key 4 for four differing positions.
    cell = distance(Metric.EUCLIDEAN, ROW_INIT_REF, (0, 0, 1, 0, 1, 0))
    assert cell.key == Fraction(4)
    assert cell.display == "2.00"


def test_euclidean_display_rounding():
    assert distance(Metric.EUCLIDEAN, (0, 1), (1, 0)).display == "1.41"      # sqrt(2)
    assert distance(Metric.EUCLIDEAN, (1,) * 5, (0,) * 5).display == "2.24"  # sqrt(5)
    assert distance(Metric.EUCLIDEAN, (1,) * 3, (0,) * 3).display == "1.73"  # sqrt(3)


def test_manhattan_examples():
    assert distance(Metric.MANHATTAN, ROW_INIT_REF, ROW_INIT_EXEC).key == 4
    assert distance(Metric.MANHATTAN, ROW_INIT_REF, ROW_INIT_REF).key == 0
    assert distance(Metric.MANHATTAN, ROW_TRA_REF, ROW_TRA_EXEC).key == 6
    assert distance(Metric.MANHATTAN, ROW_TRA_REF, ROW_TRA_EXEC).display == "6.00"


def test_simple_matching_examples():
    assert distance(Metric.SIMPLE_MATCHING, ROW_INIT_REF, ROW_IS_EMPTY_REF).key == Fraction(2, 6)
    assert distance(Metric.SIMPLE_MATCHING, ROW_INIT_REF, ROW_IS_EMPTY_REF).display == "0.33"
    assert distance(Metric.SIMPLE_MATCHING, ROW_TRA_REF, ROW_TRA_REF).key == 0
    assert distance(Metric.SIMPLE_MATCHING, ROW_TRA_REF, ROW_TRA_EXEC).key == 1


def test_simple_matching_zero_length():
    with pytest.raises(ValidationError):
        distance(Metric.SIMPLE_MATCHING, (), ())


def test_simple_matching_half_up_display():
    assert distance(Metric.SIMPLE_MATCHING, (1, 0, 0, 0, 0, 0, 0, 0), (0,) * 8).display == "0.13"


def test_jaccard_examples():
    assert distance(Metric.JACCARD, ROW_INIT_REF, ROW_IS_EMPTY_REF).key == Fraction(2, 3)
    assert distance(Metric.JACCARD, ROW_INIT_REF, ROW_IS_EMPTY_REF).display == "0.67"
    assert distance(Metric.JACCARD, ROW_TRA_REF, ROW_TRA_REF).key == 0
    assert distance(Metric.JACCARD, (0, 0, 0), (0, 0, 0)).key == 0


@given(row_pairs)
def test_symmetry(pair):
    a, b = pair
    for metric in Metric:
        assert distance(metric, a, b) == distance(metric, b, a)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
def test_identity(row):
    for metric in Metric:
        assert distance(metric, row, row).key == 0


@given(row_pairs)
def test_ranges(pair):
    a, b = pair
    t = len(a)
    assert 0 <= distance(Metric.EUCLIDEAN, a, b).key <= t
    assert 0 <= distance(Metric.MANHATTAN, a, b).key <= t
    assert 0 <= distance(Metric.SIMPLE_MATCHING, a, b).key <= 1
    assert 0 <= distance(Metric.JACCARD, a, b).key <= 1


@given(row_pairs, row_pairs)
def test_euclidean_manhattan_order_agreement(first, second):
    e1, e2 = distance(Metric.EUCLIDEAN, *first), distance(Metric.EUCLIDEAN, *second)
    m1, m2 = distance(Metric.MANHATTAN, *first), distance(Metric.MANHATTAN, *second)
    assert (e1.key < e2.key) == (m1.key < m2.key)
    assert (e1.key == e2.key) == (m1.key == m2.key)


def test_euclidean_value_matches_float_oracle_exhaustively():
    rows = list(itertools.product((0, 1), repeat=6))
    for a in rows:
        for b in rows:
            assert abs(math.sqrt(distance(Metric.EUCLIDEAN, a, b).key)
                       - oracle.euclidean_value(a, b)) < 1e-9


def test_ordering_is_exact_and_same_metric_only():
    small = distance(Metric.SIMPLE_MATCHING, (1, 0, 0), (0, 0, 0))   # 1/3
    large = distance(Metric.SIMPLE_MATCHING, (1, 0), (0, 1))         # 1/1... 2/2 = 1
    assert small < large
    assert not large < small
    with pytest.raises(ValueError):
        _ = small < distance(Metric.EUCLIDEAN, (0,), (1,))


def test_metric_from_name():
    assert metric_from_name("Euclidean") is Metric.EUCLIDEAN
    assert metric_from_name("MANHATTAN") is Metric.MANHATTAN
    assert metric_from_name("smc") is Metric.SIMPLE_MATCHING
    assert metric_from_name("jaccard") is Metric.JACCARD
    with pytest.raises(ConfigError, match="cosine"):
        metric_from_name("cosine")
