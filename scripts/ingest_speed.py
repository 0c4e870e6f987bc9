"""Parse speed of the chunked numpy edge-list parser against its per-line path.

Times ``load_edge_list`` on one edge-list file two ways: as shipped (numpy
tokenises each block of whole lines) and with the numpy scan switched off, so
that every block goes through the per-line tokeniser, the path any block the
scan rejects takes. Prints the median parse speed and the median set-up time
(load, largest connected component, true degree distribution) of
``--repeats`` runs, and the process's peak RSS (``ru_maxrss``) after the
numpy runs, read before the per-line runs can raise it; and checks that both
give identical graphs and ingest reports.

    python3 perfbench/graphgen.py 20000 800 pa.txt
    PYTHONPATH=src taskset -c 0 python3 scripts/ingest_speed.py pa.txt
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import time
from unittest import mock

import numpy as np

from walksample import graph as graph_module
from walksample import largest_connected_component, load_edge_list, true_degree_distribution


def timed(fn, repeats: int):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def setup(path: str):
    graph, _ = load_edge_list(path)
    true_degree_distribution(largest_connected_component(graph))


def measure(path: str, repeats: int):
    parse_s, (graph, report) = timed(lambda: load_edge_list(path), repeats)
    setup_s, _ = timed(lambda: setup(path), repeats)
    return parse_s, setup_s, graph, report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dataset")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    mb = os.path.getsize(args.dataset) / 1e6
    rows = {"numpy blocks": measure(args.dataset, args.repeats)}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    with mock.patch.object(graph_module, "_scan_block", lambda block: None):
        rows["per-line tokeniser, every block"] = measure(args.dataset, args.repeats)
    (_, _, want, want_report), (_, _, got, got_report) = rows.values()
    fields = ("indptr", "indices", "degrees", "labels")
    if got_report != want_report or not all(np.array_equal(getattr(got, f), getattr(want, f)) for f in fields):
        raise SystemExit("the per-line path gives a different graph")
    print(f"{args.dataset}: {mb:.2f} MB, n={want.n} m={want.m}; median of {args.repeats}")
    print(f"peak RSS of the numpy runs: {peak_mb:.1f} MB\n")
    print("| tokeniser | parse MB/s | parse s | set-up s (load, LCC, truth) |")
    print("|---|---|---|---|")
    for label, (parse_s, setup_s, _, _) in rows.items():
        print(f"| {label} | {mb / parse_s:.1f} | {parse_s:.3f} | {setup_s:.3f} |")


if __name__ == "__main__":
    main()
