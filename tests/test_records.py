"""The result records: equal by their fields, immutable, and checked when made."""

import pytest

from objident import (
    ComponentRecord,
    MergePolicy,
    Metric,
    ValidationError,
    cluster,
    cut_k,
    initial_proximity,
    label_clusters,
)
from objident.engine import ProximityMatrix
from objident.ingest import InputKind, RunConfig

from conftest import FIXTURE_DIR


@pytest.fixture(scope="module", params=list(MergePolicy))
def runs(stacks, request):
    return [cluster(stacks.pattern, Metric.EUCLIDEAN, request.param) for _ in range(2)]


def test_two_runs_give_equal_records(runs):
    first, second = runs
    assert first.trace == second.trace
    assert first.dendrogram == second.dendrogram
    assert [r.matrix_after for r in first.trace] == [r.matrix_after for r in second.trace]
    # Each run's replay and distance table stay out of equality and repr.
    assert "_replay" not in repr(first.trace[0])
    assert "exact=" not in repr(first.trace[0].matrix_after)


def test_fields_cannot_be_set(stacks, runs):
    result = runs[0]
    partition = cut_k(result.dendrogram, 2)
    report = label_clusters(partition, stacks.pattern, stacks.schema)
    fields = [
        (stacks.records[0], "name"),
        (stacks.schema.relations[0], "label"),
        (stacks.schema, "relations"),
        (stacks.pattern, "rows"),
        (result.trace[0].min_key, "key"),
        (result.dendrogram.nodes[0], "label"),
        (result.dendrogram, "root"),
        (partition[0], "members"),
        (result.trace[0].matrix_after, "active"),
        (result.trace[0], "merges"),
        (report.entries[0], "affinity"),
        (report, "entries"),
        (RunConfig(FIXTURE_DIR / "stacks.json", InputKind.COMPONENTS), "metric"),
    ]
    settable = []
    for record, field in fields:
        try:
            setattr(record, field, getattr(record, field))
        except AttributeError:
            continue
        settable.append(f"{type(record).__name__}.{field}")
    assert settable == []


def test_derived_views_are_cached(runs):
    result = runs[0]
    matrix = result.trace[0].matrix_after
    assert matrix.cells is matrix.cells
    assert result.dendrogram._min_leaf is result.dendrogram._min_leaf


def test_component_record_coerces_and_refuses():
    record = ComponentRecord("f", "stack", ["stack", "int"], {"stack"})
    assert type(record.args) is tuple and type(record.uses_fields) is frozenset
    assert record == ComponentRecord(name="f", returns="stack", args=("stack", "int"),
                                     uses_fields=frozenset({"stack"}))
    assert ComponentRecord("g") == ComponentRecord("g", None, (), frozenset())
    with pytest.raises(ValidationError, match="names an empty type"):
        ComponentRecord("g", args=["stack", ""])
    with pytest.raises(ValidationError, match="non-empty"):
        ComponentRecord("")


def test_proximity_matrix_refuses_unordered_active(stacks):
    matrix = initial_proximity(stacks.pattern, Metric.EUCLIDEAN)
    assert ProximityMatrix(matrix.active, matrix.keys, matrix.exact) == matrix
    with pytest.raises(ValidationError, match="ascending by id"):
        ProximityMatrix(matrix.active[::-1], matrix.keys, matrix.exact)
