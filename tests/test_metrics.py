import itertools
import math
import operator
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
from objident.metrics import two_decimals

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


@pytest.mark.parametrize("metric", list(Metric), ids=lambda m: m.value)
def test_within_height_admits_nothing_below_zero(metric):
    # Euclidean squares the threshold, so -1 would otherwise admit 1.
    for a, b in [((0, 1), (0, 1)), ((0, 1), (1, 1)), ((0, 1), (1, 0))]:
        d = distance(metric, a, b)
        assert d.within_height(Fraction(2))
        assert not d.within_height(Fraction(-1)) and not d.within_height(Fraction(-1, 2))


def test_metric_name_is_refused():
    # Compared by identity, a name would fall through to the mismatch count.
    for metric in ("jaccard", "smc", None):
        with pytest.raises(ValidationError, match=repr(metric)):
            distance(metric, [1, 0, 1], [1, 1, 0])


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


def rounds_half_up(text, value, sqrt):
    """Whether ``text`` shows q hundredths with q the nearest to ``value``
    (or its square root), a tie going up: (2q-1)/200 <= v < (2q+1)/200,
    squared under ``sqrt``, in exact fractions."""
    whole, dot, cents = text.partition(".")
    assert dot and len(cents) == 2 and (whole + cents).isdigit(), text
    q = int(whole + cents)
    if sqrt:
        return max(2 * q - 1, 0) ** 2 <= 40000 * value < (2 * q + 1) ** 2
    return Fraction(2 * q - 1, 200) <= value < Fraction(2 * q + 1, 200)


def test_two_decimals_rounds_half_up_exactly():
    values = {Fraction(x, u) for u in range(1, 61) for x in range(u + 1)}
    values.update(map(Fraction, range(10001)))
    ties = {Fraction(1, 8): "0.13", Fraction(3, 8): "0.38", Fraction(1, 200): "0.01"}
    for value in sorted(values | set(ties)):
        for sqrt in (False, True):
            assert rounds_half_up(two_decimals(value, sqrt=sqrt), value, sqrt), (value, sqrt)
    assert {value: two_decimals(value) for value in ties} == ties
    # sqrt(9/40000) = 0.015 exactly.
    assert two_decimals(Fraction(9, 40000), sqrt=True) == "0.02"


def test_ordering_is_exact_and_same_metric_only():
    small = distance(Metric.SIMPLE_MATCHING, (1, 0, 0), (0, 0, 0))   # 1/3
    large = distance(Metric.SIMPLE_MATCHING, (1, 0), (0, 1))         # 1/1... 2/2 = 1
    assert small < large and small <= large and small <= small
    assert large > small and large >= small and large >= large
    assert not large < small and not small > large and not small < small
    assert not large <= small and not small >= large and not small > small
    other = distance(Metric.EUCLIDEAN, (0,), (1,))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ValueError, match="cannot order smc against euclidean"):
            compare(small, other)
        # Against a number or a plain tuple, even one with the same fields,
        # the ordering is not defined, in either operand order.
        for plain in (1, (1,), (Fraction(1, 3), Metric.SIMPLE_MATCHING),
                      (Fraction(1, 3), Metric.JACCARD)):
            for left, right in ((small, plain), (plain, small)):
                with pytest.raises(TypeError, match="not supported"):
                    compare(left, right)
    # Equality is still the tuple's.
    assert small == (Fraction(1, 3), Metric.SIMPLE_MATCHING)


def test_metric_from_name():
    assert metric_from_name("Euclidean") is Metric.EUCLIDEAN
    assert metric_from_name("MANHATTAN") is Metric.MANHATTAN
    assert metric_from_name("smc") is Metric.SIMPLE_MATCHING
    assert metric_from_name("jaccard") is Metric.JACCARD
    with pytest.raises(ConfigError, match="cosine"):
        metric_from_name("cosine")
