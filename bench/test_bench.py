"""Self-tests of the benchmark: generator, independent check, traced replay.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import corpus
import run

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# (fixture, policy, metric, cut): the sequential runs use k-cuts, the paper
# runs height cuts, which multiway merges always allow.
CASES = [
    (name, policy, metric, "k:3" if policy == "sequential" else "h:1.5")
    for name in ("stacks", "stack_queue")
    for policy in ("sequential", "paper")
    for metric in ("euclidean", "jaccard")
]


def objident(*args: str) -> None:
    subprocess.run([sys.executable, "-m", "objident.cli", *args],
                   env=ENV, check=True, capture_output=True)


def cluster(tmp_path: Path, name: str, kind: str, policy: str, metric: str, cut: str,
            tree_format: str) -> tuple[check.Reference, dict[str, bytes]]:
    source = FIXTURES / f"{name}.{'json' if kind == 'components' else 'decls'}"
    out = {"report": tmp_path / "report.json", "trace": tmp_path / "trace.json",
           tree_format: tmp_path / f"tree.{tree_format}"}
    objident("cluster", "--input", str(source), "--kind", kind, "--policy", policy,
             "--metric", metric, "--cut", cut, "--report", str(out["report"]),
             "--trace", str(out["trace"]), "--dendrogram", str(out[tree_format]),
             "--format", tree_format)
    ref = check.Reference.build(source.read_text(), kind, metric)
    return ref, {role: path.read_bytes() for role, path in out.items()}


# -- generator ----------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    for render in (corpus.to_components, corpus.to_decls):
        assert render(corpus.generate(150, 0.3, 7)) == render(corpus.generate(150, 0.3, 7))
        assert render(corpus.generate(150, 0.3, 7)) != render(corpus.generate(150, 0.3, 8))


def test_generator_plants_exactly_the_requested_copies():
    generated = corpus.generate(200, 0.5, 3)
    rows = check.rows_from_components(corpus.to_components(generated))
    assert len(rows.subjects) == 20
    assert len(set(rows.bits)) == 100
    assert rows == check.rows_from_decls(corpus.to_decls(generated))
    assert len(set(check.rows_from_components(
        corpus.to_components(corpus.generate(200, 0.0, 3))).bits)) == 200


def test_generated_decls_parse_like_the_components_document(tmp_path):
    generated = corpus.generate(60, 0.2, 5)
    (tmp_path / "c.decls").write_text(corpus.to_decls(generated))
    objident("parse", "--decls", str(tmp_path / "c.decls"), "--out", str(tmp_path / "c.json"))
    assert (tmp_path / "c.json").read_text() == corpus.to_components(generated)


# -- independent check --------------------------------------------------------

@pytest.mark.parametrize("name,policy,metric,cut", CASES)
@pytest.mark.parametrize("kind", ["components", "decls"])
def test_check_passes_on_bundled_fixtures(tmp_path, name, policy, metric, cut, kind):
    for tree_format in ("ascii", "dot"):
        ref, blobs = cluster(tmp_path, name, kind, policy, metric, cut, tree_format)
        assert check.check_outputs(ref, blobs, cut) == []


def test_display_rounding_is_half_up():
    assert [check.display("euclidean", check.Fraction(k)) for k in (0, 1, 2, 3, 8)] == [
        "0.00", "1.00", "1.41", "1.73", "2.83"]
    assert check.half_up(check.Fraction(1, 8)) == "0.13"
    assert check.half_up(check.Fraction(2, 3)) == "0.67"


@pytest.fixture
def stacks_run(tmp_path):
    return cluster(tmp_path, "stacks", "components", "sequential", "euclidean", "k:3", "dot")


def test_check_rejects_a_tampered_height(stacks_run):
    ref, blobs = stacks_run
    dot = blobs["dot"].decode()
    assert "\\n2.00" in dot
    tampered = dot.replace("\\n2.00", "\\n1.41", 1).encode()
    assert check.check_outputs(ref, {"dot": tampered}, "k:3")
    trace = json.loads(blobs["trace"])
    trace["dendrogram"]["height_key"]["num"] += 1
    assert check.check_outputs(ref, {"trace": json.dumps(trace).encode()}, "k:3")


def test_check_rejects_a_tampered_ascii_tree(tmp_path):
    ref, blobs = cluster(tmp_path, "stacks", "components", "paper", "euclidean", "h:1.5",
                         "ascii")
    lines = blobs["ascii"].decode().splitlines()
    assert check.check_outputs(ref, {"ascii": "\n".join(lines[:-1]).encode()}, "h:1.5")
    assert check.check_outputs(
        ref, {"ascii": blobs["ascii"].replace(b"1.00", b"1.01", 1)}, "h:1.5")


def test_check_rejects_a_dropped_report_member(stacks_run):
    ref, blobs = stacks_run
    report = json.loads(blobs["report"])
    report["entries"][0]["members"].pop()
    errors = check.check_outputs(ref, {"report": json.dumps(report).encode()}, "k:3")
    assert any("exactly once" in e for e in errors)


def test_check_rejects_a_wrong_affinity_or_cut(stacks_run):
    ref, blobs = stacks_run
    report = json.loads(blobs["report"])
    report["entries"][0]["affinity"]["num"] += 1
    assert check.check_outputs(ref, {"report": json.dumps(report).encode()}, "k:3")
    assert check.check_outputs(ref, {"report": blobs["report"]}, "k:4")


def test_check_rejects_output_that_differs_between_runs():
    first = {"report": "aa", "dot": "bb"}
    assert check.check_same_bytes(first, dict(first)) == []
    assert check.check_same_bytes(first, {"report": "aa", "dot": "bc"})
    assert check.check_same_bytes(first, {"report": "aa"})


# -- harness ------------------------------------------------------------------

def test_tail_leaves_ten_samples_above_it():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 30)
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 1)


def test_traced_replay_writes_the_cli_bytes(tmp_path):
    ref, blobs = cluster(tmp_path / "cli", "stacks", "decls", "paper", "jaccard", "h:1.5",
                         "dot")
    out = tmp_path / "traced"
    job = {"input": str(FIXTURES / "stacks.decls"), "kind": "decls", "metric": "jaccard",
           "policy": "paper", "cut": "h:1.5", "format": "dot",
           "outputs": {"report": str(out / "r"), "trace": str(out / "t"),
                       "dendrogram": str(out / "d")}}
    (tmp_path / "job.json").write_text(json.dumps(job))
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "traced.py"),
                           "--job", str(tmp_path / "job.json")],
                          env=ENV, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout)
    assert result["counts"]["features.cells"] == 10 * 6
    assert result["counts"]["engine.pairs"] == 45
    assert (out / "r").read_bytes() == blobs["report"]
    assert (out / "t").read_bytes() == blobs["trace"]
    assert (out / "d").read_bytes() == blobs["dot"]


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                           "engine-seq", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
