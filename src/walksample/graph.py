"""Immutable undirected simple graphs in compressed adjacency (CSR) form.

Graphs are loaded from whitespace-separated edge lists ("<u> <v>" per line,
'#' comments ignored). External node ids are remapped to dense internal ids
0..n-1 in order of first appearance, through a hash table that grows as
blocks of the input arrive (internal ids are int32, so a graph holds at most
2**31 - 1 nodes); self-loops and duplicate edges are dropped and counted.
The resulting structure is read-only and safe to share across threads or
forked workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np


# Node ids are kept as int64 labels; internal ids are int32.
_MAX_ID = 2**63 - 1
_MAX_NODES = 2**31 - 1


class EdgeListParseError(ValueError):
    """An edge-list line cannot be parsed (names the line), a file is not
    UTF-8 (names the file), or the edges hold more distinct ids than int32
    can number."""


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

    @cached_property
    def arc_tails(self) -> np.ndarray:
        """(2m,) int64, the row of each entry of ``indices``: arc i runs
        from ``arc_tails[i]`` to ``indices[i]``."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """Number of connected components and each node's int32 component label.

        Labels are numbered in order of each component's lowest node id.
        Min-label union-find over the arcs in numpy (hook and shortcut,
        Shiloach & Vishkin 1982): hook the root of each arc's tail under the
        root of its head where that is lower, then jump pointers until every
        node points at a root; repeat until both ends of every arc share a
        root. A node's parent never exceeds it, so each root is its
        component's lowest node.
        """
        parent = np.arange(self.n, dtype=np.int64)
        tails, heads = self.arc_tails, self.indices
        while not np.array_equal(tail_roots := parent[tails], head_roots := parent[heads]):
            np.minimum.at(parent, tail_roots, head_roots)
            while not np.array_equal(jumped := parent[parent], parent):
                parent = jumped
        is_root = parent == np.arange(self.n)
        rank = np.cumsum(is_root, dtype=np.int32) - 1
        return int(is_root.sum()), rank[parent]

    @cached_property
    def degree_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct degree values (increasing) and each node's index among them."""
        return np.unique(self.degrees, return_inverse=True)

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
        fwd = {(int(a), int(b)) for a, b in zip(self.arc_tails, self.indices)}
        assert fwd == {(b, a) for a, b in fwd}, "adjacency not symmetric"


def build_graph(
    u: np.ndarray, v: np.ndarray, n: int, labels: np.ndarray | None = None
) -> Graph:
    """Assemble a Graph from deduplicated edge endpoints with internal ids.

    ``u``/``v`` hold one entry per undirected edge (no self-loops, no
    duplicates); both orientations are generated here. Arcs are ordered by
    one sort of the key ``src * n + dst`` (row major, sorted rows), so
    ``n * n`` must fit in int64.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if labels is None:
        labels = np.arange(n, dtype=np.int64)
    src = np.concatenate([u, v])
    keys = src * np.int64(n)
    keys[: len(u)] += v
    keys[len(u) :] += u
    keys.sort()
    indices = keys % n
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


# Edge lists are read in blocks of whole lines of about this many characters.
# A block's numpy temporaries are a few times its size; at 1 << 20 they raised
# the peak RSS of commands on ~1 MB inputs, and larger blocks parse no faster.
_CHUNK_CHARS = 1 << 18


def _blocks(stream: Iterable[str]) -> Iterator[str | list[str]]:
    """Split the input into blocks of whole lines, about ``_CHUNK_CHARS`` each.

    A block is either a string whose lines end at '\n' (the last line of the
    input may lack it) or, for a plain iterable whose lines hold a '\n'
    before their end, the list of those lines. A stream with ``read`` is read
    in blocks and split at '\n', as iterating a text stream splits it.
    """
    read = getattr(stream, "read", None)
    if read is not None:
        carry = ""
        while chunk := read(_CHUNK_CHARS):
            chunk = carry + chunk
            cut = chunk.rfind("\n") + 1
            carry = chunk[cut:]
            if cut:
                yield chunk[:cut]
        if carry:
            yield carry
        return
    lines = iter(stream)
    while batch := list(islice(lines, _CHUNK_CHARS // 16 or 1)):  # ~16 characters a line
        text = "\n".join(line.removesuffix("\n") for line in batch) + "\n"
        yield text if text.count("\n") == len(batch) else batch


def _tokenise_lines(block: str | list[str], first_lineno: int) -> tuple[np.ndarray, int, int, int]:
    """Per-line tokeniser: ``_scan_block``'s result for any block of ``_blocks``.

    That is the kept-edge endpoints as one int64 array in file order (u, v,
    u, v, ...), the self-loop and comment counts, and the line count: a
    string block's count of '\n', or a list block's count of lines.

    Each non-comment, non-blank line must hold two tokens ``int()`` accepts,
    neither negative; a kept edge's ids must fit in int64. Errors name the
    line, counted from ``first_lineno``.
    """
    if isinstance(block, str):
        lines, count = block.split("\n"), block.count("\n")  # a final '\n' leaves a blank last item
    else:
        lines, count = block, len(block)
    ends: list[int] = []
    self_loops = 0
    comments = 0
    for lineno, raw in enumerate(lines, first_lineno):
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
        for label in (a, b):
            if label > _MAX_ID:
                raise EdgeListParseError(f"line {lineno}: node id {label} exceeds {_MAX_ID}")
        ends += (a, b)
    return np.array(ends, dtype=np.int64), self_loops, comments, count


def _drop_comments(data: bytes) -> tuple[bytes, int]:
    """``data`` with the text of its comment lines removed, and their count."""
    pieces = []
    comments = 0
    kept_from = 0
    at = data.find(b"#")
    while at >= 0:
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        end = len(data) if end < 0 else end
        if not data[start:at].strip():
            pieces.append(data[kept_from:start])
            kept_from = end
            comments += 1
        at = data.find(b"#", end)
    pieces.append(data[kept_from:])
    return b"".join(pieces), comments


def _scan_block(text: str) -> tuple[np.ndarray, int, int, int] | None:
    """The numpy tokeniser: ``_tokenise_lines``' result for one string block,
    or None.

    Accepts only blocks whose data lines are two runs of ASCII digits
    separated by ASCII whitespace, each an id below 10**18; any other block
    (signs, ids of 10**18 or more, stray tokens, non-ASCII text, ...) returns
    None and goes to the per-line tokeniser, which parses or rejects it
    exactly.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    comments = 0
    if b"#" in data:
        data, comments = _drop_comments(data)
    b = np.frombuffer(data, dtype=np.uint8)
    digit = (b - np.uint8(48)) < 10
    allowed = (b - np.uint8(9)) < 5  # \t \n \v \f \r
    allowed |= b == 32
    allowed |= digit
    if not allowed.all():
        return None
    # One structural pass, in the buffer of ``allowed``: the positions of
    # every token start (a digit not preceded by one) and every newline.
    start = allowed
    start[:1] = digit[:1]
    np.greater(digit[1:], digit[:-1], out=start[1:])
    del digit
    start |= b == 10
    events = np.flatnonzero(start)
    del allowed, start
    # Every line holds 0 or 2 tokens: with a newline imagined before and
    # after the block, consecutive newlines lie 1 or 3 events apart (setting
    # bit 1 maps exactly those gaps to 3).
    at_newline = np.flatnonzero(b[events] == 10)
    gaps = np.diff(at_newline, prepend=-1, append=len(events))
    gaps |= 2
    if not (gaps == 3).all():
        return None
    lines, tokens = len(at_newline), len(events) - len(at_newline)
    del events, at_newline, gaps
    if not tokens:  # np.fromstring reads a blank block as [0]
        return np.empty(0, dtype=np.int64), 0, comments, lines
    pairs = np.fromstring(data, dtype=np.int64, sep=" ")
    # A token of up to 18 digits is below 10**18, and numpy reads a longer
    # one exactly when it is zero-padded, else as at least 10**18 (it
    # saturates at 2**63 - 1 past int64).
    if pairs.max() >= 10**18:
        return None
    pairs = pairs.reshape(-1, 2)
    kept = pairs[:, 0] != pairs[:, 1]
    loops = len(kept) - int(kept.sum())
    # compress, not a boolean index: the same rows at a tenth of the cost.
    ends = pairs.compress(kept, axis=0) if loops else pairs
    return ends.ravel(), loops, comments, lines


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values by sort plus mask (numpy 2.4's hash-based
    ``np.unique`` is many times slower on large int64 arrays)."""
    values = np.sort(values)
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


# Fibonacci hashing (Knuth, TAOCP vol. 3, section 6.4): the top bits of
# label * 2**64 / phi spread runs and strides of ids over the table.
_FIBONACCI = np.uint64(0x9E3779B97F4A7C15)


class _LabelTable:
    """The internal id of each external label, in order of first appearance.

    An open-addressing hash table with linear probing: slot ``s`` holds the
    label ``keys[s]`` (-1 marks an empty slot; labels are never negative) and
    its int32 id ``vals[s]``. Its load stays at or below one quarter, so most
    labels sit in their home slot and probe runs stay short; past that it
    doubles and is rebuilt from ``labels``, each block's new labels in order
    of first appearance, which the ids index.
    """

    def __init__(self) -> None:
        self.bits = 10
        self.keys = np.full(1 << self.bits, -1, dtype=np.int64)
        self.vals = np.empty(1 << self.bits, dtype=np.int32)
        self.labels: list[np.ndarray] = []
        self.n = 0

    def _slots(self, labels: np.ndarray) -> np.ndarray:
        return (labels.view(np.uint64) * _FIBONACCI >> np.uint64(64 - self.bits)).astype(np.intp)

    def ids(self, ends: np.ndarray) -> np.ndarray:
        """The int32 id of each label of ``ends``; labels not yet seen get the
        next ids in order of their first position in ``ends``."""
        slot = self._slots(ends)
        ids = self.vals[slot]  # right where the label sits in its home slot
        at = np.flatnonzero(self.keys[slot] != ends)
        slot = slot[at]
        absent = np.zeros(len(ends), dtype=bool)
        mask = len(self.keys) - 1
        # Probe the rest in rounds: a label is found in its slot, or absent
        # at an empty one; the others move on to the next slot.
        while len(at):
            key = self.keys[slot]
            found = key == ends[at]
            ids[at[found]] = self.vals[slot[found]]
            empty = key == -1
            absent[at[empty]] = True
            go = ~(found | empty)
            at, slot = at[go], (slot[go] + 1) & mask
        missing = np.flatnonzero(absent)
        if len(missing):
            # First positions by minimum.at: np.unique's return_index sorts
            # stably, three times the cost on a block of new labels.
            new, inverse = np.unique(ends[missing], return_inverse=True)
            first = np.full(len(new), len(missing))
            np.minimum.at(first, inverse, np.arange(len(missing)))
            order = np.argsort(first)
            rank = np.empty(len(new), dtype=np.int32)
            rank[order] = self._add(new[order])
            ids[missing] = rank[inverse]
        return ids

    def _add(self, new: np.ndarray) -> np.ndarray:
        """Give the distinct labels ``new``, none in the table, the next ids
        and return those ids."""
        start = self.n
        self.n += len(new)
        if self.n > _MAX_NODES:
            raise EdgeListParseError(f"more than {_MAX_NODES} distinct node ids")
        ids = np.arange(start, self.n, dtype=np.int32)
        self.labels.append(new)
        if 4 * self.n <= len(self.keys):
            self._place(new, ids)
        else:
            self.bits = (4 * self.n - 1).bit_length()
            self.keys = np.full(1 << self.bits, -1, dtype=np.int64)
            self.vals = np.empty(1 << self.bits, dtype=np.int32)
            self.labels = [np.concatenate(self.labels)]
            self._place(self.labels[0], np.arange(self.n, dtype=np.int32))
        return ids

    def _place(self, labels: np.ndarray, ids: np.ndarray) -> None:
        """Insert ``labels``, none in the table, with their ``ids``.

        Write-then-read-back: of the labels that write one empty slot, the
        one read back holds it and the others move on. Ids are fixed before
        placing, so they do not depend on which write wins.
        """
        slot = self._slots(labels)
        mask = len(self.keys) - 1
        while len(labels):
            free = self.keys[slot] == -1
            self.keys[slot[free]] = labels[free]
            placed = self.keys[slot] == labels
            self.vals[slot[placed]] = ids[placed]
            left = ~placed
            labels, ids, slot = labels[left], ids[left], (slot[left] + 1) & mask


def parse_edge_list(stream: Iterable[str]) -> tuple[Graph, IngestReport]:
    """Parse a text edge list into a normalized simple undirected Graph.

    Each non-comment, non-blank line must contain exactly two nonnegative
    integer tokens; the ids of kept edges must fit in int64. Self-loops and
    duplicate edges (in either orientation) are dropped and counted in the
    report. Node ids are densified in order of first appearance within kept
    edges, to int32 internal ids: at most 2**31 - 1 distinct nodes.

    The input is tokenised in blocks of whole lines by numpy; a block that
    holds anything but ASCII digits and whitespace in its data lines, an id
    of 10**18 or more, or a line without exactly two tokens is tokenised
    line by line instead, which raises on the first malformed line. Both
    tokenisers return a block's endpoints, self-loop, comment and line counts.

    Raises
    ------
    EdgeListParseError
        On a malformed line or an id beyond int64 (names the 1-based line
        number), or if the kept edges hold more distinct ids than int32 can
        number.
    EmptyGraphError
        If no edges survive normalization.
    """
    # Per block, the int32 id of each endpoint in file order. The label
    # table assigns ids as blocks arrive, so only each block's new labels
    # are sorted; one np.unique over all endpoints of a 600k-line file
    # raised the peak RSS above the per-line parser's.
    table = _LabelTable()
    parts: list[np.ndarray] = []
    self_loops = 0
    comments = 0
    lineno = 1
    for block in _blocks(stream):
        scanned = isinstance(block, str) and _scan_block(block)
        ends, block_loops, block_comments, block_lines = scanned or _tokenise_lines(block, lineno)
        lineno += block_lines
        self_loops += block_loops
        comments += block_comments
        if len(ends):
            parts.append(table.ids(ends))
    if not parts:
        raise EmptyGraphError("edge list contains no usable edges")
    n, labels = table.n, np.concatenate(table.labels)
    del table
    ids = np.concatenate(parts)
    del parts

    # Deduplicate by sorting the key lo * n + hi.
    u, v = ids[0::2], ids[1::2]
    keys = np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v)
    del ids, u, v
    unique_keys = _sorted_distinct(keys)
    graph = build_graph(unique_keys // n, unique_keys % n, n, labels)
    report = IngestReport(
        kept_edges=len(unique_keys),
        dropped_self_loops=self_loops,
        dropped_duplicates=len(keys) - len(unique_keys),
        comment_lines=comments,
    )
    return graph, report


def load_edge_list(path: str | Path) -> tuple[Graph, IngestReport]:
    """Parse an edge-list file (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_edge_list(fh)
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start]
            raise EdgeListParseError(f"{path}: not UTF-8 (byte 0x{bad:02x}: {exc.reason})") from None


def write_edge_list(graph: Graph, stream: IO[str]) -> None:
    """Serialize as one "<label_u> <label_v>" line per edge (u < v order)."""
    labels = graph.labels
    for v in range(graph.n):
        for u in graph.neighbors(v):
            if v < u:
                stream.write(f"{labels[v]} {labels[u]}\n")


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest component, ids re-densified.

    Size ties break toward the component containing the smallest internal
    node id: components are labelled in order of their lowest node, and
    ``argmax`` takes the first largest. A connected (or empty) graph is
    returned unchanged.
    """
    if graph.n == 0:
        return graph
    ncomp, comp = graph.components
    if ncomp <= 1:
        return graph
    chosen = np.argmax(np.bincount(comp, minlength=ncomp))

    keep = comp == chosen
    new_id = np.full(graph.n, -1, dtype=np.int64)
    new_id[keep] = np.arange(int(keep.sum()), dtype=np.int64)
    src = graph.arc_tails
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
