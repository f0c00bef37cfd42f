"""Benchmark of the ``objident cluster`` command line.

    python3 bench/run.py --workload engine-seq --seed 1 --seconds 40 --trace 0

Run it from the root of an objident checkout: the program is imported from
``src/``.  The seed generates the workload's corpora (``corpus.py``);
objident sees only the generated files.  One client runs one ``objident cluster`` process
at a time (a closed loop), cycling through the corpora, until ``--seconds``
have passed.  The first run on each corpus is checked against an
independent reference (``check.py``), outside the timed region; every later
run must reproduce its bytes.

``--trace 0`` reports the end-to-end metrics.  On a shared host other
tenants slow every instruction by up to a third for minutes at a time
(the child's CPU time rises with its wall time), so a run's median wall
time says as much about the host as about the program.  The gated times
are therefore in units of a fixed reference program (``REF_PROGRAM``)
that runs between every two ``objident`` processes: each process's wall
time is divided by the mean of the reference runs just before and after
it.  The raw wall times are still printed, on the line before the result.  An
``objident --version`` run precedes every timed run, so the ``setup_s``
median spans the whole run.  ``--trace 1`` alternates the
CLI with a traced replay of the same pipeline (``traced.py``), whose output
files must also match, and reports the per-layer metrics: span medians,
counts, allocation peaks from one extra ``tracemalloc`` pass, the CLI time
outside the spans, and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the
sample counts, which percentile the tail is, the raw wall times and the
reference program's median time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402


@dataclass(frozen=True)
class Workload:
    n: int
    dup_rate: float
    kind: str                      # "components" or "decls"
    metric: str
    policy: str
    cut: str
    dendrogram: str | None         # dendrogram format, or None for no dendrogram
    trace: bool                    # write objident's structured run document
    corpora: int                   # corpora per run, cycled through

    def roles(self) -> list[str]:
        """Output files, named by the check that reads them."""
        return (["report"] + (["trace"] if self.trace else [])
                + ([self.dendrogram] if self.dendrogram else []))


# Each run cycles through several corpora so that one draw's quirks weigh
# less; engine-seq uses the most because its ASCII tree's size follows the
# tree's depth, which varies most from draw to draw.  An untraced run visits
# every corpus at least once, so its sizes do not depend on its speed.
WORKLOADS = {
    "engine-seq": Workload(220, 0.0, "components", "euclidean", "sequential",
                           "k:22", "ascii", trace=False, corpora=32),
    "trace-seq": Workload(100, 0.0, "components", "euclidean", "sequential",
                          "k:10", None, trace=True, corpora=4),
    "paper-dups": Workload(400, 0.5, "decls", "jaccard", "paper",
                           "h:0.5", "dot", trace=False, corpora=8),
}

MIN_STEPS = 3           # loop steps made even when --seconds is short
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
HARD_LIMIT_S = 170      # the whole benchmark stays under this
SUFFIX = {"report": ".json", "trace": ".json", "ascii": ".txt", "dot": ".dot"}

# The host-speed yardstick: a child that does the engine's kind of work (a
# dict of tuple keys built, rebuilt without some cells, then scanned for its
# least value) over a comparable working set, about 0.2 s on a 2-vCPU VM.
# A loop over a small dict inside the harness tracked the host's slow spells
# far worse, because they slow memory-bound code most.
REF_PROGRAM = '''
cells = {}
for i in range(400_000):
    key = (i % 613, i % 617)
    cells[key] = cells.get(key, 0) + i % 7
kept = {key: value for key, value in cells.items() if value % 3}
min(kept.items(), key=lambda item: (item[1], item[0]))
'''


@dataclass
class Input:
    """One generated corpus, its reference, and the bytes runs must give."""

    path: Path
    reference: check.Reference
    golden: dict[str, str] | None = None
    output_bytes: int = 0


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    errors: list[str]
    stdout: str = ""
    corpus: int = 0


class Bench:
    """Runs one workload for one seed inside a scratch directory."""

    def __init__(self, root: Path, work: Path, name: str, seed: int):
        self.root = root
        self.work = work
        self.workload = w = WORKLOADS[name]
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        render = corpus.to_components if w.kind == "components" else corpus.to_decls
        self.inputs = []
        for part in range(w.corpora):
            text = render(corpus.generate(w.n, w.dup_rate, seed * w.corpora + part))
            path = work / f"corpus{part}.{'json' if w.kind == 'components' else 'decls'}"
            path.write_text(text, encoding="utf-8")
            self.inputs.append(Input(path, check.Reference.build(text, w.kind, w.metric)))
        self.runs = 0

    # -- processes ---------------------------------------------------------

    def spawn(self, cmd: list[str]) -> Run:
        """Run one child to completion; wall time from spawn to exit."""
        remaining = HARD_LIMIT_S - (time.perf_counter() - self.started)
        if remaining < 5:
            return Run(0.0, 0.0, ["out of time before the run started"])
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(remaining - 2, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        errors = []
        if proc.returncode != 0:
            last = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            errors.append(f"exit code {proc.returncode}: {' '.join(last)}")
        return Run(wall, usage.ru_maxrss / 1024, errors,
                   stdout=out_path.read_text(errors="replace"))

    def outputs(self, directory: Path) -> dict[str, Path]:
        return {role: directory / f"{role}{SUFFIX[role]}" for role in self.workload.roles()}

    def cli_command(self, source: Path, directory: Path) -> list[str]:
        w = self.workload
        out = self.outputs(directory)
        cmd = [sys.executable, "-m", "objident.cli", "cluster",
               "--input", str(source), "--kind", w.kind, "--metric", w.metric,
               "--policy", w.policy, "--cut", w.cut, "--report", str(out["report"])]
        if w.trace:
            cmd += ["--trace", str(out["trace"])]
        if w.dendrogram:
            cmd += ["--dendrogram", str(out[w.dendrogram]), "--format", w.dendrogram]
        return cmd

    def traced_command(self, source: Path, directory: Path, memory: bool) -> list[str]:
        w = self.workload
        flag = {"report": "report", "trace": "trace", w.dendrogram: "dendrogram"}
        job = {"input": str(source), "kind": w.kind, "metric": w.metric,
               "policy": w.policy, "cut": w.cut, "format": w.dendrogram,
               "outputs": {flag[r]: str(p) for r, p in self.outputs(directory).items()}}
        job_path = self.work / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        return ([sys.executable, str(HERE / "traced.py"), "--job", str(job_path)]
                + (["--memory"] if memory else []))

    def run(self, part: int, traced: bool = False, memory: bool = False) -> Run:
        """One timed run on corpus ``part``, then (untimed) its output check
        and clean-up."""
        self.runs += 1
        source = self.inputs[part]
        directory = self.work / f"out{self.runs}"
        result = self.spawn(self.traced_command(source.path, directory, memory) if traced
                            else self.cli_command(source.path, directory))
        result.corpus = part
        if not result.errors:
            result.errors = self.check_run(source, directory)
        shutil.rmtree(directory, ignore_errors=True)
        return result

    def check_run(self, source: Input, directory: Path) -> list[str]:
        """The first good run on a corpus gets the full check; later runs
        must give its bytes."""
        paths = self.outputs(directory)
        missing = [f"{role}: output missing" for role, p in paths.items() if not p.is_file()]
        if missing:
            return missing
        blobs = {role: p.read_bytes() for role, p in paths.items()}
        digests = {role: hashlib.sha256(b).hexdigest() for role, b in blobs.items()}
        if source.golden is not None:
            return check.check_same_bytes(source.golden, digests)
        errors = check.check_outputs(source.reference, blobs, self.workload.cut)
        if not errors:
            source.golden = digests
            source.output_bytes = sum(len(b) for b in blobs.values())
        return errors

    # -- measurement -------------------------------------------------------

    def setup_run(self) -> Run:
        """One ``objident --version`` run: interpreter start, package import
        and parser build, which every invocation pays."""
        run = self.spawn([sys.executable, "-m", "objident.cli", "--version"])
        if not run.errors and not run.stdout.startswith("objident "):
            run.errors.append(f"--version printed {run.stdout.strip()!r}")
        return run

    def loop(self, seconds: float, step, min_steps: int = MIN_STEPS) -> None:
        """Call ``step(i)`` for i = 0, 1, ... until at least ``min_steps``
        calls are made and the next would end more than ``seconds`` after
        the first began."""
        deadline = time.perf_counter() + seconds
        taken = []
        while True:
            start = time.perf_counter()
            step(len(taken))
            taken.append(time.perf_counter() - start)
            if len(taken) >= min_steps and (
                    time.perf_counter() + statistics.median(taken) > deadline):
                return


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest nearest-rank percentile that leaves TAIL_BEYOND samples
    above it: returns (value, rank), rank counted from 1."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], rank


def end_to_end(bench: Bench, seconds: float):
    """Metrics of the untraced CLI; returns (runs, metrics, detail)."""
    bench.setup_run()  # warm-up: byte-compiles the package once
    setup: list[Run] = []
    timed: list[Run] = []
    reference = [bench.spawn([sys.executable, "-c", REF_PROGRAM])]

    def step(i: int) -> None:
        setup.append(bench.setup_run())
        timed.append(bench.run(i % bench.workload.corpora))
        reference.append(bench.spawn([sys.executable, "-c", REF_PROGRAM]))

    bench.loop(seconds, step, max(MIN_STEPS, bench.workload.corpora))

    # Process i ran between reference runs i and i + 1.
    kept = [(r, r.wall_s / ((before.wall_s + after.wall_s) / 2))
            for r, before, after in zip(timed, reference, reference[1:])
            if not (r.errors or before.errors or after.errors)]
    if not kept:
        return setup + timed + reference, {}, {}
    good = [r for r, _ in kept]
    ratios = [ratio for _, ratio in kept]
    walls = [r.wall_s for r in good]
    tail_value, rank = tail(ratios)
    # Sizes are averaged per corpus, so every corpus weighs the same.
    parts = sorted({r.corpus for r in good})
    rss = [statistics.median(r.rss_mb for r in good if r.corpus == part) for part in parts]
    written = [bench.inputs[part].output_bytes for part in parts]
    metrics = {
        "wall_ref.p50": (statistics.median(ratios), "ref_runs"),
        "wall_ref.tail": (tail_value, "ref_runs"),
        "peak_rss_mb": (statistics.mean(rss), "MB"),
        "output_mb": (statistics.mean(written) / 1e6, "MB"),
        "ok_ratio": (sum(not r.errors for r in timed) / len(timed), "ratio"),
        "setup_s": (statistics.median(r.wall_s for r in setup), "s"),
    }
    detail = {"samples": len(walls), "tail_percentile": round(100 * rank / len(walls), 1),
              "tail_beyond": len(walls) - rank, "setup_samples": len(setup),
              "wall_s.p50": statistics.median(walls), "wall_s.tail": tail(walls)[0],
              "wall_s.min": min(walls),
              "ref_s.p50": statistics.median(r.wall_s for r in reference),
              "harness_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return setup + timed + reference, metrics, detail


def per_layer(bench: Bench, seconds: float):
    """Per-layer metrics from traced replays alternated with CLI runs;
    returns (runs, metrics, detail)."""
    runs: list[Run] = []
    cli_walls: list[float] = []
    traced: list[tuple[dict, float]] = []

    def cli(part: int) -> None:
        runs.append(bench.run(part))
        if not runs[-1].errors:
            cli_walls.append(runs[-1].wall_s)

    def replay(part: int, memory: bool = False) -> dict | None:
        runs.append(bench.run(part, traced=True, memory=memory))
        if runs[-1].errors:
            return None
        result = json.loads(runs[-1].stdout.strip().splitlines()[-1])
        if not memory:
            traced.append((result, runs[-1].wall_s))
        return result

    memory = replay(0, memory=True)

    def step(i: int) -> None:
        part = i % bench.workload.corpora
        if i % 2:                   # alternate which side of a pair runs first
            cli(part)
            replay(part)
        else:
            replay(part)
            cli(part)

    bench.loop(seconds, step)
    if memory is None or not traced or not cli_walls:
        return runs, {}, {}

    results = [r for r, _ in traced]
    cli_p50 = statistics.median(cli_walls)
    traced_p50 = statistics.median(wall for _, wall in traced)
    on_path = statistics.median(sum(r["spans"].values()) for r in results)
    off_path = statistics.median(sum(r["off_path"].values()) for r in results)
    metrics = {name: (statistics.median(r[kind][name] for r in results), "s")
               for kind in ("spans", "off_path") for name in results[0][kind]}
    metrics.update({name: (statistics.median(r["counts"][name] for r in results),
                           "MB" if name.endswith("_mb") else "count")
                    for name in results[0]["counts"]})
    metrics["engine.cluster_peak_mb"] = (memory["peak_mb"]["engine.cluster_s"], "MB")
    metrics["dendrogram.to_structured_peak_mb"] = (
        memory["peak_mb"]["dendrogram.to_structured_s"], "MB")
    metrics["cli.other_s"] = (cli_p50 - on_path, "s")
    metrics["bench.trace_overhead_s"] = (traced_p50 - off_path - cli_p50, "s")
    detail = {"cli_samples": len(cli_walls), "traced_samples": len(traced),
              "cli_wall_s.p50": cli_p50, "traced_wall_s.p50": traced_p50}
    return runs, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="objident cluster benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an exception, so the running child is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "objident" / "__init__.py").is_file():
        print("bench/run.py: no src/objident here; run it from the root of an "
              "objident checkout", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix=".bench_run.", dir=root))
    try:
        bench = Bench(root, work, args.workload, args.seed)
        measure = per_layer if args.trace else end_to_end
        runs, metrics, detail = measure(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [e for r in runs for e in r.errors]
    detail.update(workload=args.workload, seed=args.seed, errors=errors[:10])
    print(json.dumps(detail))
    print(json.dumps({
        "correct": bool(metrics) and not errors,
        "attempted": len(runs),
        "failed": sum(bool(r.errors) for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
