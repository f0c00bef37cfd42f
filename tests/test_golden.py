"""Byte-for-byte golden outputs of ``objident cluster``.

Each case runs the command line twice, once with an ASCII dendrogram and
once with a DOT one, and compares every file it writes (trace, both trees,
report) plus the standard-output summary against ``tests/golden/<case>/``.
An output over ``INLINE_LIMIT`` bytes is stored as its SHA-256 digest
(``<name>.sha256``) instead of its bytes, to keep the goldens small.

The synthetic inputs in ``tests/golden/inputs/`` come from the benchmark's
seeded generator and carry planted copies, so they exercise ties and
zero-distance merges:

    python3 bench/corpus.py --n 40 --dup-rate 0.3 --seed 1 --format components --out syn40.json
    python3 bench/corpus.py --n 48 --dup-rate 0.25 --seed 2 --format components --out syn48.json
    python3 bench/corpus.py --n 32 --dup-rate 0.4 --seed 3 --format decls --out syn32.decls
    python3 bench/corpus.py --n 60 --dup-rate 0.5 --seed 4 --format decls --out syn60.decls
    python3 bench/corpus.py --n 100 --dup-rate 0.1 --seed 5 --format components --out syn100.json

A change that alters output bytes on purpose regenerates the goldens with

    PYTHONPATH=src python3 tests/test_golden.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import shutil
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from objident.cli import main

ROOT = Path(__file__).resolve().parent
GOLDEN_DIR = ROOT / "golden"
FIXTURE_DIR = ROOT.parent / "fixtures"
INPUT_DIR = GOLDEN_DIR / "inputs"
INLINE_LIMIT = 32 * 1024

# name: (input file, kind, metric, cut)
CORPORA = {
    "stacks": (FIXTURE_DIR / "stacks.json", "components", "euclidean", "k:2"),
    "stack_queue": (FIXTURE_DIR / "stack_queue.json", "components", "euclidean", "k:2"),
    "syn40-euclidean": (INPUT_DIR / "syn40.json", "components", "euclidean", "h:1.0"),
    "syn48-manhattan": (INPUT_DIR / "syn48.json", "components", "manhattan", "k:6"),
    "syn32-smc": (INPUT_DIR / "syn32.decls", "decls", "smc", "h:0.2"),
    "syn60-jaccard": (INPUT_DIR / "syn60.decls", "decls", "jaccard", "h:0.5"),
    "syn100-euclidean": (INPUT_DIR / "syn100.json", "components", "euclidean", "k:10"),
}
POLICIES = ("sequential", "paper")
CASES = [f"{corpus}-{policy}" for corpus in CORPORA for policy in POLICIES]


def render(case: str, workdir: Path) -> dict[str, bytes]:
    """Run the command line for one case; return each output's bytes by name."""
    corpus, _, policy = case.rpartition("-")
    path, kind, metric, cut = CORPORA[corpus]
    common = ["cluster", "--input", str(path), "--kind", kind, "--metric", metric,
              "--policy", policy, "--cut", cut]
    outputs: dict[str, bytes] = {}
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = main(common + ["--trace", str(workdir / "trace.json"),
                              "--report", str(workdir / "report.json"),
                              "--dendrogram", str(workdir / "tree.txt")])
    assert code == 0, f"{case}: exit code {code}"
    outputs["stdout.txt"] = stdout.getvalue().encode()
    with redirect_stdout(io.StringIO()):
        code = main(common + ["--dendrogram", str(workdir / "tree.dot"),
                              "--format", "dot"])
    assert code == 0, f"{case}: exit code {code}"
    for name in ("trace.json", "report.json", "tree.txt", "tree.dot"):
        outputs[name] = (workdir / name).read_bytes()
    return outputs


def stored_form(content: bytes) -> tuple[str, bytes]:
    """The file suffix and bytes under which an output is kept."""
    if len(content) > INLINE_LIMIT:
        return ".sha256", (hashlib.sha256(content).hexdigest() + "\n").encode()
    return "", content


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_goldens(case, tmp_path):
    for name, content in render(case, tmp_path).items():
        suffix, stored = stored_form(content)
        golden = GOLDEN_DIR / case / (name + suffix)
        assert golden.read_bytes() == stored, f"{case}/{name} differs from {golden}"


def regenerate() -> None:
    for case in CASES:
        target = GOLDEN_DIR / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as work:
            for name, content in render(case, Path(work)).items():
                suffix, stored = stored_form(content)
                (target / (name + suffix)).write_bytes(stored)


if __name__ == "__main__":
    regenerate()
