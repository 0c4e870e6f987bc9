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

The child runs the copy of walksample this script imports, so
``PYTHONPATH`` picks the source tree that is measured.
"""

from __future__ import annotations

import argparse
import json
import os

from scale_stress import run_child


def measure(path: str, sampler: str) -> tuple[int, float, float]:
    """(n, peak RSS in MiB, wall seconds) of one analyze run on ``path``."""
    wall, peak_mb, out = run_child(["-m", "walksample.cli", "analyze", "--dataset", path, "--sampler", sampler])
    return json.loads(out)["n"], peak_mb, wall


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("edge_lists", nargs="+", help="edge-list files (largest component <= 4096 nodes)")
    parser.add_argument("--sampler", default="wjrw", help="sampler to analyze (default wjrw)")
    parser.add_argument("--repeats", type=int, default=1, help="runs per file (default 1)")
    args = parser.parse_args(argv)
    print(f"{'file':<28} {'n':>6} {'8n^2 MiB':>9} {'peak RSS MiB':>13} {'wall s':>8}")
    for path in args.edge_lists:
        for _ in range(args.repeats):
            n, peak_mb, wall = measure(path, args.sampler)
            name = os.path.basename(path)
            print(f"{name:<28} {n:>6} {8 * n * n / 2**20:>9.1f} {peak_mb:>13.1f} {wall:>8.2f}", flush=True)


if __name__ == "__main__":
    main()
