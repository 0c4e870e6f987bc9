"""Walk steps/s of the scalar ``run_walk`` and the lockstep ``run_walks``.

Runs the walks of a ``walk-seq``-shaped sweep (5 kinds x budgets 1000 and
5000 x 25 repetitions, paper defaults: rwe alpha = mean degree, gmd/wjrw
c = d_max // 2) on the largest component of an edge list, three ways: one
walker at a time through ``run_walk``, each kind's 50 walkers as one
``run_walks`` batch, and all 250 as one batch. Steps are recorded trace
nodes. Every lockstep trace is checked against its scalar one. Prints the
median of ``--repeats`` timings.

    python3 perfbench/graphgen.py 11631 800 pa.txt
    PYTHONPATH=src taskset -c 0 python3 scripts/walk_speed.py pa.txt
"""

from __future__ import annotations

import argparse

import numpy as np

from ingest_speed import timed
from walksample import WalkConfig, average_degree, derive_seed, largest_connected_component, load_edge_list, run_walk, run_walks

KINDS = ("srw", "rwe", "md", "gmd", "wjrw")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dataset")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    graph = largest_connected_component(load_edge_list(args.dataset)[0])
    params = {"rwe": {"alpha": average_degree(graph)}, "gmd": {"c": max(1, graph.d_max // 2)}}
    params["wjrw"] = params["gmd"]
    sweep = {
        kind: [
            WalkConfig(kind=kind, budget=budget, seed=derive_seed(800, rep), **params.get(kind, {}))
            for budget in (1000, 5000)
            for rep in range(25)
        ]
        for kind in KINDS
    }
    print(f"graph n={graph.n} m={graph.m} d_max={graph.d_max}; median of {args.repeats}; M steps/s\n")
    print("| walks | " + " | ".join(KINDS) + " | all five |")
    print("|---" * (len(KINDS) + 2) + "|")
    rows = {"`run_walk`, one walker at a time": [], "`run_walks`, one walker": [], "`run_walks`, the kind's 50 walkers": []}
    for kind in KINDS:
        configs = sweep[kind]
        s, want = timed(lambda: [run_walk(graph, cfg) for cfg in configs], args.repeats)
        w, _ = timed(lambda: run_walks(graph, configs[-1:]), args.repeats)
        b, got = timed(lambda: run_walks(graph, configs), args.repeats)
        if not all(np.array_equal(x, y) for x, y in zip(want, got)):
            raise SystemExit(f"{kind}: run_walks differs from run_walk")
        steps = sum(cfg.budget for cfg in configs)
        for row, rate in zip(rows.values(), (steps / s, configs[-1].budget / w, steps / b)):
            row.append(f"{rate / 1e6:.2f}")
    every = [cfg for kind in KINDS for cfg in sweep[kind]]
    fused, _ = timed(lambda: run_walks(graph, every), args.repeats)
    for label, rates in rows.items():
        print(f"| {label} | " + " | ".join(rates) + " | |")
    print("| `run_walks`, all 250 walkers |" + " |" * len(KINDS) + f" {sum(c.budget for c in every) / fused / 1e6:.2f} |")


if __name__ == "__main__":
    main()
