"""Immutable undirected simple graphs in compressed adjacency (CSR) form.

Graphs are loaded from whitespace-separated edge lists ("<u> <v>" per line,
'#' comments ignored). External node ids are remapped to dense internal ids
0..n-1 in order of first appearance; self-loops and duplicate edges are
dropped and counted. The resulting structure is read-only and safe to share
across threads or forked workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


# Node ids are kept as int64 labels.
_MAX_ID = 2**63 - 1


class EdgeListParseError(ValueError):
    """Raised when an edge-list line cannot be parsed; names the line number."""


class EmptyGraphError(ValueError):
    """Raised when the input yields no usable edges."""


@dataclass(frozen=True)
class IngestReport:
    """Bookkeeping from one edge-list ingestion."""

    kept_edges: int
    dropped_self_loops: int
    dropped_duplicates: int
    comment_lines: int


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with per-node sorted adjacency.

    Attributes
    ----------
    n : number of nodes (internal ids 0..n-1)
    m : number of undirected edges
    indptr : (n+1,) int64, row offsets into ``indices``
    indices : (2m,) int64, neighbor lists, sorted within each row
    degrees : (n,) int64, ``degrees[v] == indptr[v+1] - indptr[v]``
    labels : (n,) int64, original external id for each internal id
    """

    n: int
    m: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    labels: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of node ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @cached_property
    def label_to_internal(self) -> dict[int, int]:
        """Mapping from original external id back to internal id."""
        return {int(lab): i for i, lab in enumerate(self.labels)}

    @property
    def d_max(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    @property
    def min_degree(self) -> int:
        return int(self.degrees.min()) if self.n else 0

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        assert self.indptr.shape == (self.n + 1,)
        assert self.indptr[0] == 0 and self.indptr[-1] == 2 * self.m
        assert np.array_equal(np.diff(self.indptr), self.degrees)
        assert int(self.degrees.sum()) == 2 * self.m
        for v in range(self.n):
            nbrs = self.neighbors(v)
            assert np.all(np.diff(nbrs) > 0), f"row {v} not sorted/unique"
            assert v not in nbrs, f"self-loop at {v}"
        # symmetry: the multiset of (u, v) arcs equals the multiset of (v, u)
        src = np.repeat(np.arange(self.n), self.degrees)
        fwd = {(int(a), int(b)) for a, b in zip(src, self.indices)}
        assert fwd == {(b, a) for a, b in fwd}, "adjacency not symmetric"


def build_graph(
    u: np.ndarray, v: np.ndarray, n: int, labels: np.ndarray | None = None
) -> Graph:
    """Assemble a Graph from deduplicated edge endpoints with internal ids.

    ``u``/``v`` hold one entry per undirected edge (no self-loops, no
    duplicates); both orientations are generated here.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if labels is None:
        labels = np.arange(n, dtype=np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indices = dst[order]
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    return Graph(
        n=n,
        m=len(u),
        indptr=indptr,
        indices=indices,
        degrees=degrees,
        labels=np.asarray(labels, dtype=np.int64),
    )


def parse_edge_list(stream: Iterable[str]) -> tuple[Graph, IngestReport]:
    """Parse a text edge list into a normalized simple undirected Graph.

    Each non-comment, non-blank line must contain exactly two nonnegative
    integer tokens; the ids of kept edges must fit in int64. Self-loops and
    duplicate edges (in either orientation) are dropped and counted in the
    report. Node ids are densified in order of first appearance within kept
    edges.

    Raises
    ------
    EdgeListParseError
        On a malformed line or an id beyond int64 (names the 1-based line
        number).
    EmptyGraphError
        If no edges survive normalization.
    """
    internal: dict[int, int] = {}
    us: list[int] = []
    vs: list[int] = []
    self_loops = 0
    comments = 0
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments += 1
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(
                f"line {lineno}: expected 2 tokens, found {len(parts)}"
            )
        try:
            a = int(parts[0])
            b = int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-integer token in {parts!r}"
            ) from None
        if a < 0 or b < 0:
            raise EdgeListParseError(f"line {lineno}: negative node id")
        if a == b:
            self_loops += 1
            continue
        ia = internal.get(a)
        if ia is None:
            if a > _MAX_ID:
                raise EdgeListParseError(f"line {lineno}: node id {a} exceeds {_MAX_ID}")
            ia = internal[a] = len(internal)
        ib = internal.get(b)
        if ib is None:
            if b > _MAX_ID:
                raise EdgeListParseError(f"line {lineno}: node id {b} exceeds {_MAX_ID}")
            ib = internal[b] = len(internal)
        us.append(ia)
        vs.append(ib)

    if not us:
        raise EmptyGraphError("edge list contains no usable edges")

    n = len(internal)
    u = np.asarray(us, dtype=np.int64)
    v = np.asarray(vs, dtype=np.int64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    keys = lo * np.int64(n) + hi
    unique_keys = np.unique(keys)
    dropped_dup = len(keys) - len(unique_keys)
    lo = unique_keys // n
    hi = unique_keys % n
    labels = np.fromiter(internal.keys(), dtype=np.int64, count=n)
    graph = build_graph(lo, hi, n, labels)
    report = IngestReport(
        kept_edges=len(unique_keys),
        dropped_self_loops=self_loops,
        dropped_duplicates=dropped_dup,
        comment_lines=comments,
    )
    return graph, report


def load_edge_list(path: str | Path) -> tuple[Graph, IngestReport]:
    """Parse an edge-list file (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh)


def write_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Serialize as one "<label_u> <label_v>" line per edge (u < v order)."""
    labels = graph.labels
    for v in range(graph.n):
        for u in graph.neighbors(v):
            if v < u:
                stream.write(f"{labels[v]} {labels[u]}\n")


def components(graph: Graph) -> tuple[int, np.ndarray]:
    """Number of connected components and each node's component label."""
    adj = csr_matrix(
        (np.ones(len(graph.indices), dtype=np.int8), graph.indices, graph.indptr),
        shape=(graph.n, graph.n),
    )
    return connected_components(adj, directed=False, return_labels=True)


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest component, ids re-densified.

    Size ties break toward the component containing the smallest internal
    node id. A connected (or empty) graph is returned unchanged.
    """
    if graph.n == 0:
        return graph
    ncomp, comp = components(graph)
    if ncomp <= 1:
        return graph
    sizes = np.bincount(comp, minlength=ncomp)
    first_member = np.full(ncomp, graph.n, dtype=np.int64)
    np.minimum.at(first_member, comp, np.arange(graph.n, dtype=np.int64))
    candidates = np.flatnonzero(sizes == sizes.max())
    chosen = candidates[np.argmin(first_member[candidates])]

    keep = comp == chosen
    new_id = np.full(graph.n, -1, dtype=np.int64)
    new_id[keep] = np.arange(int(keep.sum()), dtype=np.int64)
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees)
    mask = keep[src] & (src < graph.indices)
    lo = new_id[src[mask]]
    hi = new_id[graph.indices[mask]]
    return build_graph(lo, hi, int(keep.sum()), labels=graph.labels[keep])


def average_degree(graph: Graph) -> float:
    """Mean degree 2m/n."""
    if graph.n == 0:
        raise EmptyGraphError("average degree of an empty graph is undefined")
    return 2.0 * graph.m / graph.n


@dataclass(frozen=True)
class GraphStats:
    """Headline statistics of a loaded graph."""

    n: int
    m: int
    d_max: int
    tvd_srw_vs_uniform: float


def graph_stats(graph: Graph) -> GraphStats:
    """n, m, max degree, and the total variation distance between the
    degree-proportional distribution and the uniform distribution."""
    if graph.n == 0:
        raise EmptyGraphError("stats of an empty graph are undefined")
    from .estimation import Distribution, tvd

    pi_srw = Distribution.over_nodes(graph.degrees / (2.0 * graph.m))
    uniform = Distribution.over_nodes(np.full(graph.n, 1.0 / graph.n))
    return GraphStats(
        n=graph.n,
        m=graph.m,
        d_max=graph.d_max,
        tvd_srw_vs_uniform=tvd(pi_srw, uniform),
    )
