from __future__ import annotations

import io
import os
from pathlib import Path
from typing import IO

import numpy as np
import pytest

from walksample import Graph, largest_connected_component, parse_edge_list
from walksample.graph import build_graph

# Worked 5-node reference graph: node 1 joined to everything, plus the
# edges (2,4), (3,4), (3,5). Degrees (4,2,3,3,2), 7 edges.
EXAMPLE_EDGES = "1 2\n1 3\n1 4\n1 5\n2 4\n3 4\n3 5\n"

# Path on three nodes: the smallest graph where the padded-jump walk's
# closed-form stationary disagrees with the true one.
PATH3_EDGES = "1 2\n2 3\n"

DATASET_FILES = {
    "wiki-crocodile": "wiki-crocodile.txt",
    "slashdot": "slashdot.txt",
    "dblp": "dblp.txt",
    "youtube": "youtube.txt",
}


def make_graph(text: str) -> Graph:
    graph, _ = parse_edge_list(io.StringIO(text))
    return graph


def random_connected_graph(rng: np.random.Generator, n: int, lo: float = 0.25, hi: float = 0.7) -> Graph:
    """Erdos-Renyi style connected graph on n nodes (resamples until connected)."""
    iu, iv = np.triu_indices(n, k=1)
    while True:
        mask = rng.random(len(iu)) < rng.uniform(lo, hi)
        if not mask.any():
            continue
        graph = build_graph(iu[mask], iv[mask], n)
        if largest_connected_component(graph).n == n:
            return graph


def preferential_graph(n: int, attach: int, seed: int) -> Graph:
    """Heavy-tailed graph: each new node attaches to ``attach`` distinct
    targets, mostly degree-proportionally."""
    rng = np.random.default_rng(seed)
    ends: list[int] = []
    edges = set()
    for i in range(attach + 1):
        for j in range(i):
            edges.add((j, i))
            ends += [i, j]
    for v in range(attach + 1, n):
        targets: set[int] = set()
        while len(targets) < attach:
            if rng.random() < 0.9:
                t = ends[int(rng.integers(len(ends)))]
            else:
                t = int(rng.integers(v))
            if t != v:
                targets.add(t)
        for t in targets:
            edges.add((min(t, v), max(t, v)))
            ends += [v, t]
    u = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    w = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    return build_graph(u, w, n)


def write_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Serialize as one "<label_u> <label_v>" line per edge (u < v order)."""
    labels = graph.labels
    for v in range(graph.n):
        for u in graph.neighbors(v):
            if v < u:
                stream.write(f"{labels[v]} {labels[u]}\n")


def data_dir() -> Path:
    return Path(os.environ.get("WALKSAMPLE_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def dataset_path(name: str) -> Path:
    """Path to a user-supplied dataset, or a skip if it is absent."""
    path = data_dir() / DATASET_FILES[name]
    if not path.exists():
        pytest.skip(
            f"dataset {name!r} not found at {path}; download the edge list "
            f"and place it there, or point WALKSAMPLE_DATA_DIR at it"
        )
    return path


@pytest.fixture(autouse=True)
def dataset_cache(tmp_path_factory, monkeypatch) -> Path:
    """A fresh, empty dataset cache for each test, outside its ``tmp_path``:
    no test writes under HOME or reads a graph another test cached, so a
    test that measures or patches the parser parses on its first load."""
    cache = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    return cache / "walksample"


@pytest.fixture(scope="session")
def example_graph() -> Graph:
    return make_graph(EXAMPLE_EDGES)


@pytest.fixture(scope="session")
def path3_graph() -> Graph:
    return make_graph(PATH3_EDGES)


@pytest.fixture()
def example_file(tmp_path: Path) -> Path:
    path = tmp_path / "example.txt"
    path.write_text("# five node reference graph\n" + EXAMPLE_EDGES, encoding="utf-8")
    return path
