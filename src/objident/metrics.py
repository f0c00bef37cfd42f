"""Exact, tie-stable dissimilarities between binary pattern rows.

All four indices are computed as dissimilarities over an exact rational
``key`` (a ``fractions.Fraction``), so that comparisons and tie detection
in the cluster engine never touch floating point.  For the Euclidean index
the key is the *squared* distance, which is an integer on binary rows and
orders identically to the distance itself; the square root only appears in
the 2-decimal display value.
"""

from __future__ import annotations

import decimal
import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ConfigError, ValidationError

Row = Sequence[int]


class Metric(enum.Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    SIMPLE_MATCHING = "smc"
    JACCARD = "jaccard"


def metric_from_name(name: str) -> Metric:
    """Resolve a CLI/config metric name (case-insensitive)."""
    try:
        return Metric(name.lower())
    except ValueError:
        valid = ", ".join(m.value for m in Metric)
        raise ConfigError(f"unknown metric {name!r} (expected one of: {valid})") from None


def two_decimals(value: Fraction, *, sqrt: bool = False) -> str:
    """``value``, or its square root, rounded half-up to two decimals, e.g. '1.41'."""
    with decimal.localcontext() as ctx:
        ctx.prec = 30
        dec = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
        if sqrt:
            dec = dec.sqrt()
        return str(dec.quantize(decimal.Decimal("0.01"), rounding=decimal.ROUND_HALF_UP))


@functools.total_ordering
@dataclass(frozen=True)
class ExactDissimilarity:
    """A comparison key plus the metric it was computed under.

    key is >= 0 and is 0 exactly when the metric treats the rows as
    identical.  Ordering is exact rational comparison and is only defined
    between values of the same metric.  A magnitude has two readers: ``key``
    (exact; the squared distance under Euclidean) and ``display`` (rounded).
    """

    key: Fraction
    metric: Metric

    def __lt__(self, other: "ExactDissimilarity") -> bool:
        if not isinstance(other, ExactDissimilarity):
            return NotImplemented
        if other.metric is not self.metric:
            raise ValueError(
                f"cannot order {self.metric.value} against {other.metric.value}")
        return self.key < other.key

    @property
    def display(self) -> str:
        """Magnitude rounded half-up to two decimals, e.g. '1.41'."""
        return two_decimals(self.key, sqrt=self.metric is Metric.EUCLIDEAN)

    def within_height(self, threshold: Fraction) -> bool:
        """Exact test of magnitude <= threshold (threshold in display units)."""
        if threshold < 0:
            return False
        if self.metric is Metric.EUCLIDEAN:
            return self.key <= threshold * threshold
        return self.key <= threshold


def distance(metric: Metric, row_a: Row, row_b: Row) -> ExactDissimilarity:
    """Compute the dissimilarity of two rows under the given metric.

    Every key counts the mismatched positions.  Euclidean (whose key is the
    squared distance) and Manhattan keep the count; simple matching divides
    it by the row length; Jaccard divides it by the positions where either
    row is set, and gives 0 for two all-zero rows.
    """
    if len(row_a) != len(row_b):
        raise ValidationError(
            f"row length mismatch: {len(row_a)} vs {len(row_b)}")
    mismatches = sum(1 for a, b in zip(row_a, row_b) if a != b)
    if metric is Metric.SIMPLE_MATCHING:
        if not row_a:
            raise ValidationError("simple matching is undefined for zero-length rows")
        key = Fraction(mismatches, len(row_a))
    elif metric is Metric.JACCARD:
        either = mismatches + sum(1 for a, b in zip(row_a, row_b) if a and b)
        key = Fraction(mismatches, either) if either else Fraction(0)
    else:
        key = Fraction(mismatches)
    return ExactDissimilarity(key, metric)
