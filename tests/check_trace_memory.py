"""Check that ``--trace`` streams its document: bounded memory, same bytes.

This script writes ``bench/corpus.py``'s n=200, seed 3 corpus as a
components document and runs ``python -m objident.cli cluster --trace`` on
it (sequential Euclidean), a trace of about 128 MB.  The run is spawned by
a small helper process, ``python -S``, that waits for it and prints its
maximum resident set size, so the RSS of this script is not counted: a
child's ``ru_maxrss`` starts from the RSS of the process that spawned it.
The check fails if that peak passes 64 MB, or if the trace's SHA-256 is not
the recorded one.  pytest does not collect it: one run takes about a second
and writes the trace to a temporary directory, which it removes.

    PYTHONPATH=src python tests/check_trace_memory.py
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

_CORPUS_PY = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
N, SEED = 200, 3
MAX_RSS_MB = 64
TRACE_SHA256 = "b372fc7aa259306aa84ef1ebef6fc48451f75d947abcc43edea41fc6a14ba9c8"

# Spawns argv[1:] and prints its exit status and its max RSS in KiB, as
# Linux reports it.  Run with -S, it loads no site packages.
_HELPER = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def main():
    with tempfile.TemporaryDirectory() as folder:
        source, trace = Path(folder) / "corpus.json", Path(folder) / "trace.json"
        subprocess.run([sys.executable, str(_CORPUS_PY), "--n", str(N), "--seed", str(SEED),
                        "--format", "components", "--out", str(source)], check=True)
        run = [sys.executable, "-m", "objident.cli", "cluster", "--input", str(source),
               "--kind", "components", "--metric", "euclidean", "--policy", "sequential",
               "--trace", str(trace)]
        helper = subprocess.run([sys.executable, "-S", "-c", _HELPER, *run],
                                stdout=subprocess.PIPE, text=True, check=True)
        # The run's own summary line comes first, on the same stdout.
        code, max_rss_kib = map(int, helper.stdout.splitlines()[-1].split())
        digest, size = hashlib.sha256(), 0
        if code == 0:
            with open(trace, "rb") as handle:
                while block := handle.read(1 << 20):
                    digest.update(block)
                    size += len(block)
    max_rss_mb = max_rss_kib / 1024
    print(f"n={N} seed={SEED}: exit {code}, trace {size / 1e6:.1f} MB, "
          f"max RSS {max_rss_mb:.1f} MB (limit {MAX_RSS_MB}), sha256 {digest.hexdigest()}")
    failed = code != 0
    if max_rss_mb > MAX_RSS_MB:
        print(f"the run's max RSS passes {MAX_RSS_MB} MB")
        failed = True
    if digest.hexdigest() != TRACE_SHA256:
        print(f"the trace's SHA-256 is not the recorded {TRACE_SHA256}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
