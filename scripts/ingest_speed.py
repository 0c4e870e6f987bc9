"""Parse speed of the chunked numpy edge-list parser against its per-line path.

Times ``parse_edge_list`` on one opened edge-list file two ways: as shipped
(numpy tokenises each block of whole lines) and with the numpy scan switched
off, so that every block goes through the per-line tokeniser, the path any
block the scan rejects takes. Then times ``load_edge_list`` through the
dataset cache: a miss, on a cache directory emptied of records before each
run (the file hashed, then parsed while hashed again, then the record
written), and a hit of that record. Prints the median load speed and the
median set-up time (load, largest connected component, true degree
distribution) of ``--repeats`` runs, and checks that all four give identical
graphs and ingest reports. Peak RSS is that of one ``load_edge_list`` (a
first load into an empty cache: the parse, hashed, then the record written)
plus largest component in a fresh child process (``os.wait4``), beside the
peak of a child that only imports the package: a process's own ``ru_maxrss``
after repeated runs also holds what earlier runs left in its heap. A child's
peak includes that of the process it was started from, so both children
start before any run, while this process holds only its imports; the second
one reads that floor.

    python3 perfbench/graphgen.py 20000 800 pa.txt
    PYTHONPATH=src taskset -c 0 python3 scripts/ingest_speed.py pa.txt
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from scale_stress import run_child
from walksample import graph as graph_module
from walksample import largest_connected_component, load_edge_list, parse_edge_list, true_degree_distribution

_IMPORTS = "import numpy, walksample"
_LOAD_AND_LCC = _IMPORTS + "; walksample.largest_connected_component(walksample.load_edge_list({path!r})[0])"


def timed(fn, repeats: int, before=lambda: None):
    times, result = [], None
    for _ in range(repeats):
        before()
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def parse(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh)


def measure(path: str, repeats: int, load=parse, before=lambda: None):
    def setup():
        graph, _ = load(path)
        true_degree_distribution(largest_connected_component(graph))

    load_s, (graph, report) = timed(lambda: load(path), repeats, before)
    setup_s, _ = timed(setup, repeats, before)
    return load_s, setup_s, graph, report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dataset")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    mb = os.path.getsize(args.dataset) / 1e6
    _, peak_mb, _ = run_child(["-c", _LOAD_AND_LCC.format(path=os.path.abspath(args.dataset))])
    _, imports_mb, _ = run_child(["-c", _IMPORTS])
    rows = {"numpy blocks": measure(args.dataset, args.repeats)}
    with mock.patch.object(graph_module, "_scan_block", lambda block: None):
        rows["per-line tokeniser, every block"] = measure(args.dataset, args.repeats)
    with tempfile.TemporaryDirectory() as cache, mock.patch.dict(os.environ, XDG_CACHE_HOME=cache):
        records = Path(cache, "walksample")
        records.mkdir()
        empty = lambda: [record.unlink() for record in records.iterdir()]
        rows["dataset cache miss (load_edge_list)"] = measure(args.dataset, args.repeats, load_edge_list, empty)
        rows["dataset cache hit (load_edge_list)"] = measure(args.dataset, args.repeats, load_edge_list)
    (_, _, want, want_report), *_ = rows.values()
    fields = ("indptr", "indices", "degrees", "labels")
    for label, (_, _, got, got_report) in list(rows.items())[1:]:
        if got_report != want_report or not all(np.array_equal(getattr(got, f), getattr(want, f)) for f in fields):
            raise SystemExit(f"the {label} row gives a different graph")
    print(f"{args.dataset}: {mb:.2f} MB, n={want.n} m={want.m}; median of {args.repeats}")
    print(f"peak RSS of one load + LCC in a fresh process: {peak_mb:.1f} MB (imports alone: {imports_mb:.1f} MB)\n")
    print("| load | MB/s | load s | set-up s (load, LCC, truth) |")
    print("|---|---|---|---|")
    for label, (parse_s, setup_s, _, _) in rows.items():
        print(f"| {label} | {mb / parse_s:.1f} | {parse_s:.3f} | {setup_s:.3f} |")


if __name__ == "__main__":
    main()
