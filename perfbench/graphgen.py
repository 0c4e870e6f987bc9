"""Seeded benchmark inputs: preferential-attachment graphs as edge-list files.

The benchmark owns its generator and writer so that edits to the test suite
never move its inputs. The model is the heavy-tailed one the tests use: a
clique on ``attach + 1`` nodes, then each new node links to ``attach``
distinct earlier nodes, each picked degree-proportionally with probability
0.9 and uniformly otherwise. The graph is connected by construction.

The file is written the way real crawl dumps look, so that every branch of
the parser's normalisation runs: a ``#`` header, every edge in both
orientations (one of each pair is a duplicate), a few self-loops, shuffled
lines and sparse, non-dense node ids. ``EdgeListInput`` records what was
injected so a run can check the ingest report against it; it is stored
beside the file as JSON.

    python3 perfbench/graphgen.py N SEED PATH
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ATTACH = 15
HEADER_LINES = ("# perfbench preferential-attachment graph",
                "# both orientations of every edge, shuffled; self-loops injected")


@dataclass(frozen=True)
class EdgeListInput:
    """One generated edge-list file and the counts its ingest must report."""

    path: Path
    n: int
    m: int
    self_loops: int
    comment_lines: int

    def expected_report(self) -> dict:
        """The ingest report parsing this file must give (one duplicate per edge)."""
        return {
            "kept_edges": self.m,
            "dropped_duplicates": self.m,
            "dropped_self_loops": self.self_loops,
            "comment_lines": self.comment_lines,
        }

    @staticmethod
    def meta_path(path: Path) -> Path:
        return path.with_name(path.name + ".json")

    @classmethod
    def load(cls, path: Path) -> "EdgeListInput":
        meta = json.loads(cls.meta_path(path).read_text(encoding="utf-8"))
        return cls(path=path, **meta)


def preferential_edges(n: int, attach: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Edge endpoints (u < v) of one preferential-attachment graph on n nodes."""
    us: list[int] = []
    vs: list[int] = []
    ends: list[int] = []
    for i in range(attach + 1):
        for j in range(i):
            us.append(j)
            vs.append(i)
            ends += [i, j]
    uniforms: list[float] = []
    pos = 0
    for v in range(attach + 1, n):
        targets: set[int] = set()
        while len(targets) < attach:
            if pos + 2 > len(uniforms):
                uniforms = rng.random(1 << 16).tolist()
                pos = 0
            coin, pick = uniforms[pos], uniforms[pos + 1]
            pos += 2
            if coin < 0.9:
                t = ends[int(pick * len(ends))]
            else:
                t = int(pick * v)
            targets.add(t)
        for t in targets:
            us.append(t)
            vs.append(v)
            ends += [v, t]
    return np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def write_input(path: Path, n: int, seed: int) -> EdgeListInput:
    """Generate the graph for ``(n, seed)``; write it to ``path``, then its counts."""
    rng = np.random.default_rng([seed, n])
    u, v = preferential_edges(n, ATTACH, rng)
    m = len(u)
    # Sparse ids: increasing random gaps, then a shuffle, so ids are neither
    # dense nor in first-appearance order.
    labels = rng.permutation(np.cumsum(rng.integers(1, 200, size=n)) + 10**6)
    self_loops = int(rng.integers(3, 10))
    loops = labels[rng.integers(0, n, self_loops)]
    src = np.concatenate([labels[u], labels[v], loops])
    dst = np.concatenate([labels[v], labels[u], loops])
    order = rng.permutation(len(src))
    body = "\n".join(f"{a} {b}" for a, b in zip(src[order].tolist(), dst[order].tolist()))
    _write_atomic(path, "\n".join(HEADER_LINES) + "\n" + body + "\n")
    written = EdgeListInput(
        path=path,
        n=n,
        m=m,
        self_loops=self_loops,
        comment_lines=len(HEADER_LINES),
    )
    meta = {k: v for k, v in asdict(written).items() if k != "path"}
    _write_atomic(EdgeListInput.meta_path(path), json.dumps(meta))
    return written


if __name__ == "__main__":
    write_input(Path(sys.argv[3]), int(sys.argv[1]), int(sys.argv[2]))
