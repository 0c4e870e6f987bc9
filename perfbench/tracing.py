"""Span tracing around the layer calls the harness makes, from outside the package.

``walksample.harness`` reaches every layer through its own module globals
(``load_edge_list``, ``run_walk``, ``spectrum``, ...). ``Tracer.install``
swaps each of those globals for a wrapper that records a span (name, start,
end, parent) and, for a few calls, counts read off the arguments or the
result. Nothing inside the package changes, so the traced command writes the
same bytes as the untraced one.

Spans stay in memory and are written when a process ends, one JSON file per
process. Process-pool workers are forked with the wrappers in place; a
multiprocessing after-fork hook gives each worker an empty span list and a
finaliser that writes it when the worker shuts down.

Run as a script, this module is the traced command:

    python3 perfbench/tracing.py SPAN_DIR REQUEST_ID <walksample CLI args...>
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

# harness global -> span name. Spans are named by module (layer).
SPAN_NAMES = {
    "load_edge_list": "graph.load",
    "largest_connected_component": "graph.lcc",
    "true_degree_distribution": "estimation.truth",
    "estimation_weights": "harness.weights",
    "stationary_closed_form": "samplers.weights_closed",
    "stationary_numeric": "samplers.weights_exact",
    "run_walk": "samplers.walk",
    "degree_distribution_estimate": "estimation.estimate",
    "kl_divergence": "estimation.kl",
    "unique_count": "estimation.unique",
    "render_rows": "harness.render",
    "render_csv": "harness.render",
    "render_json": "harness.render",
    "dense_transition_matrix": "spectral.dense_matrix",
    "spectrum": "spectral.spectrum",
    "expected_repeat_probability": "spectral.repeat_prob",
    "reversibility_residual": "spectral.reversibility",
}


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Counts recorded on a span: walk kind and steps, ingest report, file size."""
    if name == "samplers.walk":
        return {"kind": args[1].kind.value, "steps": len(result)}
    if name == "samplers.weights_exact":
        return {"kind": args[1].kind.value}
    if name == "graph.load":
        report = result[1]
        return {
            "bytes": os.path.getsize(args[0]),
            "kept_edges": report.kept_edges,
            "dropped_duplicates": report.dropped_duplicates,
            "dropped_self_loops": report.dropped_self_loops,
            "comment_lines": report.comment_lines,
        }
    return None


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self, span_dir: Path, request: int):
        self.span_dir = span_dir
        self.request = request
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [name, time.perf_counter(), None, parent, None]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            record[4] = _attrs(name, args, result)
            return result

        return traced

    def install(self, module) -> None:
        for attr, name in SPAN_NAMES.items():
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self.stack = []
        mp_util.Finalize(None, self.write, exitpriority=100)

    def write(self) -> None:
        payload = {"pid": os.getpid(), "request": self.request, "spans": self.spans}
        path = self.span_dir / f"spans-{self.request}-{os.getpid()}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")


def main(argv: list[str]) -> int:
    span_dir, request, cli_args = Path(argv[0]), int(argv[1]), argv[2:]
    from walksample import cli, harness

    tracer = Tracer(span_dir, request)
    tracer.install(harness)
    try:
        return tracer.wrap("cli.command", cli.main)(cli_args)
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
