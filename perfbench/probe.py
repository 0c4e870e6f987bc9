"""Fresh-process probe: environment, timed set-up, and the wjrw weight gap.

    python3 perfbench/probe.py '<spec json>' OUT.json

The spec names the dataset, the samplers, the pinned ``c`` (or null for the
CLI default ``d_max // 2``), the weights mode (``paper``, ``oracle`` or
``both`` for ``analyze``), how often to time the set-up (at least
``repeats`` times and for at least ``min_seconds``; 0 repeats skips it), and
whether to compute the L1 distance between the closed-form and exact wjrw
stationaries.

Set-up is what a command does before its first walk, timed by calling the
package's public functions in the harness's order: load the edge list, take
the largest component, compute the true degree distribution, then the
estimation weights of every sampler. Each set-up is bracketed by host-speed
calibrations and reported scaled to reference speed (``calibrate.py``) as
``setup_s``, and unscaled as ``setup_raw_s``. Writes one JSON object to
OUT.json.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

import calibrate

from walksample import (
    WalkConfig,
    average_degree,
    estimation_weights,
    largest_connected_component,
    load_edge_list,
    stationary_closed_form,
    stationary_numeric,
    true_degree_distribution,
)


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(spec: dict) -> dict:
    def threshold(graph) -> int:
        return spec["c"] if spec["c"] is not None else max(1, graph.d_max // 2)

    def configs(graph):
        c = threshold(graph)
        alpha = average_degree(graph)
        for kind in spec["samplers"]:
            yield WalkConfig(
                kind=kind,
                alpha=alpha if kind == "rwe" else None,
                c=c if kind in ("gmd", "wjrw") else None,
            )

    def setup():
        graph, report = load_edge_list(spec["dataset"])
        graph = largest_connected_component(graph)
        true_degree_distribution(graph)
        for cfg in configs(graph):
            if spec["weights"] == "both":
                stationary_closed_form(graph, cfg)
                stationary_numeric(graph, cfg)
            else:
                estimation_weights(graph, cfg, spec["weights"])
        return graph, report

    out = {"environment": environment(), "setup_s": [], "setup_raw_s": []}
    graph = report = None
    began = time.perf_counter()
    cpus = os.sched_getaffinity(0)
    before = calibrate.calibration_s(cpus) if spec["repeats"] else 0.0
    while spec["repeats"] and (len(out["setup_s"]) < spec["repeats"] or time.perf_counter() - began < spec["min_seconds"]):
        start = time.perf_counter()
        graph, report = setup()
        raw = time.perf_counter() - start
        after = calibrate.calibration_s(cpus)
        out["setup_raw_s"].append(raw)
        out["setup_s"].append(raw * calibrate.scale(before, after))
        before = after
    if graph is None:
        graph, report = load_edge_list(spec["dataset"])
        graph = largest_connected_component(graph)
    out["ingest"] = {
        "kept_edges": report.kept_edges,
        "dropped_duplicates": report.dropped_duplicates,
        "dropped_self_loops": report.dropped_self_loops,
        "comment_lines": report.comment_lines,
        "lcc_n": graph.n,
        "lcc_m": graph.m,
    }
    if spec["gap"]:
        cfg = WalkConfig(kind="wjrw", c=threshold(graph))
        gap = np.abs(stationary_closed_form(graph, cfg) - stationary_numeric(graph, cfg)).sum()
        out["paper_vs_exact_l1_wjrw"] = float(gap)
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
