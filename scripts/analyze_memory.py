"""Peak memory and wall time of the ``analyze`` command, one child process per run.

Runs ``python -m walksample.cli analyze --sampler SAMPLER`` on each edge list
given, in a fresh child process, and prints per run: the largest component's
node count n, the size of one dense n x n float64 matrix (8n^2 bytes), the
child's peak RSS as ``os.wait4`` reports it, and the wall time. Sizes are in
MiB (2^20 bytes), the unit of the benchmark's ``peak_rss_mb``. ``analyze``
is capped at 4096 nodes, so the inputs are small:

    python3 perfbench/graphgen.py 2000 800 /tmp/pa2000.txt
    python3 perfbench/graphgen.py 4096 800 /tmp/pa4096.txt
    PYTHONPATH=src python3 scripts/analyze_memory.py /tmp/pa2000.txt /tmp/pa4096.txt

The child inherits the environment, so ``PYTHONPATH`` picks the source tree
that is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time


def measure(path: str, sampler: str) -> tuple[int, float, float]:
    """(n, peak RSS in MiB, wall seconds) of one analyze run on ``path``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "analyze.json")
        argv = [sys.executable, "-m", "walksample.cli", "analyze", "--dataset", path, "--sampler", sampler]
        actions = [(os.POSIX_SPAWN_OPEN, 1, out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - t0
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"analyze failed on {path} (exit {os.waitstatus_to_exitcode(status)})")
        with open(out, encoding="utf-8") as fh:
            n = json.load(fh)["n"]
    return n, usage.ru_maxrss / 1024, wall  # ru_maxrss is in KiB on Linux


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("edge_lists", nargs="+", help="edge-list files (largest component <= 4096 nodes)")
    parser.add_argument("--sampler", default="wjrw", help="sampler to analyze (default wjrw)")
    parser.add_argument("--repeats", type=int, default=1, help="runs per file (default 1)")
    args = parser.parse_args()
    print(f"{'file':<28} {'n':>6} {'8n^2 MiB':>9} {'peak RSS MiB':>13} {'wall s':>8}")
    for path in args.edge_lists:
        for _ in range(args.repeats):
            n, peak_mb, wall = measure(path, args.sampler)
            name = os.path.basename(path)
            print(f"{name:<28} {n:>6} {8 * n * n / 2**20:>9.1f} {peak_mb:>13.1f} {wall:>8.2f}", flush=True)


if __name__ == "__main__":
    main()
