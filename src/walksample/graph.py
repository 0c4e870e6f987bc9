"""Immutable undirected simple graphs in compressed adjacency (CSR) form.

Graphs are loaded from whitespace-separated edge lists ("<u> <v>" per line,
'#' comments ignored). External node ids are remapped to dense internal ids
0..n-1 in order of first appearance, through a hash table that grows as
blocks of the input arrive (internal ids are int32, so a graph holds at most
2**31 - 1 nodes); self-loops and duplicate edges are dropped and counted.
A ``Graph`` is its three arrays, ``indptr``, ``indices`` and ``labels``;
``n``, ``m`` and ``degrees`` are derived from them when it is built. It is
read-only and safe to share across threads or forked workers.

The ingest holds the edges in one growing key buffer, sorted in place, then
in one (2m,) arc buffer that becomes ``indices``: at its peak about 1.6
times the CSR arrays (see ``parse_edge_list``). That is the whole peak of
load plus ``largest_connected_component`` on a connected input. On a
disconnected one the component is selected from the loaded graph's rows,
beside it, which adds about 24 bytes per kept edge at the selection's peak
(see ``largest_connected_component``). A graph caches nothing of size m.

``load_edge_list`` keeps what it parses in a dataset cache addressed by each
file's content, so a file is parsed once however many commands read it. A
record is those three arrays after a 7-word header, in one flat int64 file.
``parse_edge_list`` never touches the cache.
"""

from __future__ import annotations

import io
import os
import stat
import sys
import tempfile
from contextlib import suppress
from dataclasses import astuple, dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np


# Node ids are kept as int64 labels; internal ids are int32.
_MAX_ID = 2**63 - 1
_MAX_NODES = 2**31 - 1

# An edge key ``a << 32 | b`` of two internal ids is written and read as its
# int32 halves, columns ``_HIGH`` (a) and ``_LOW`` (b) of the key array's
# ``view(np.int32).reshape(-1, 2)``. Ids are below 2**31, so keys are
# non-negative and sort as the pairs (a, b) do.
_HIGH, _LOW = (1, 0) if sys.byteorder == "little" else (0, 1)


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
    """Undirected simple graph with per-node sorted adjacency: its three
    arrays. ``n``, ``m`` and ``degrees`` are derived from them once, when the
    graph is built.

    Attributes
    ----------
    indptr : (n+1,) int64, row offsets into ``indices``
    indices : (2m,) int64, neighbor lists, sorted within each row
    labels : (n,) int64, original external id for each internal id
    n : number of nodes (internal ids 0..n-1), ``len(indptr) - 1``
    m : number of undirected edges, ``len(indices) // 2``
    degrees : (n,) int64, ``np.diff(indptr)``
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray
    n: int = field(init=False)
    m: int = field(init=False)
    degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", len(self.indptr) - 1)
        object.__setattr__(self, "m", len(self.indices) // 2)
        object.__setattr__(self, "degrees", np.diff(self.indptr))

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of node ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @cached_property
    def components(self) -> tuple[int, np.ndarray]:
        """Number of connected components and each node's int32 component label.

        Labels are numbered in order of each component's lowest node id.
        Min-label union-find over the rows in numpy (hook and shortcut,
        Shiloach & Vishkin 1982): hook the root of each node under the lowest
        root among its neighbours where that is lower, then jump pointers
        until every node points at a root; repeat until no node has a
        neighbour of lower root, which, the adjacency being symmetric, leaves
        both ends of every arc on one root. A node's parent never exceeds it,
        so each root is its component's lowest node. Each round gathers the
        neighbours' roots once and takes each row's least by
        ``np.minimum.reduceat``; no (2m,) array of arc tails is built.
        """
        parent = np.arange(self.n, dtype=np.int32)
        # reduceat gives an empty row the value at its offset, so only
        # non-empty rows are reduced.
        rows = np.flatnonzero(self.degrees)
        starts = self.indptr[rows]
        while True:
            lowest = np.minimum.reduceat(parent[self.indices], starts)
            roots = parent[rows]
            lower = lowest < roots
            if not lower.any():
                break
            np.minimum.at(parent, roots[lower], lowest[lower])
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
        assert self.indptr[0] == 0 and self.indptr[-1] == len(self.indices)
        assert len(self.labels) == self.n
        for v in range(self.n):
            nbrs = self.neighbors(v)
            assert np.all(np.diff(nbrs) > 0), f"row {v} not sorted/unique"
            assert v not in nbrs, f"self-loop at {v}"
        # symmetry: the multiset of (u, v) arcs equals the multiset of (v, u)
        tails = np.repeat(np.arange(self.n), self.degrees)
        fwd = {(int(a), int(b)) for a, b in zip(tails, self.indices)}
        assert fwd == {(b, a) for a, b in fwd}, "adjacency not symmetric"


def build_graph(
    u: np.ndarray, v: np.ndarray, n: int, labels: np.ndarray | None = None
) -> Graph:
    """Assemble a Graph from deduplicated edge endpoints with internal ids:
    the CSR builder of the parser and of callers holding edge lists.

    ``u``/``v`` hold one entry per undirected edge (no self-loops, no
    duplicates), ids below ``n``, which is at most 2**31 - 1; they may be
    lists or integer arrays of any width and stride, and are read without a
    copy. Both orientations go into one (2m,) int64 buffer as the key
    ``src << 32 | dst``, written as its two int32 halves, and one in-place
    sort orders the arcs row major with sorted rows. Each row's offset is
    the binary search of its first key; masking off the high halves then
    leaves ``indices`` in the same buffer.
    """
    m = len(u)
    arcs = np.empty(2 * m, dtype=np.int64)
    halves = arcs.view(np.int32).reshape(2 * m, 2)
    halves[:m, _HIGH] = u
    halves[:m, _LOW] = v
    halves[m:, _HIGH] = v
    halves[m:, _LOW] = u
    arcs.sort()
    indptr = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) << 32).astype(np.int64, copy=False)
    arcs &= 0xFFFFFFFF
    if labels is None:
        labels = np.arange(n, dtype=np.int64)
    return Graph(indptr=indptr, indices=arcs, labels=np.asarray(labels, dtype=np.int64))


# Edge lists are read in blocks of whole lines of about this many characters.
# A block's numpy temporaries are a few times its size; at 1 << 20 they raised
# the peak RSS of commands on ~1 MB inputs, and larger blocks parse no faster.
_CHUNK_CHARS = 1 << 18


def _blocks(stream: Iterable[str]) -> Iterator[str]:
    """Split the input into blocks of whole lines, about ``_CHUNK_CHARS`` each.

    A block is a string whose lines end at '\n' (the last line of the input
    may lack it). A stream with ``read`` is read in blocks and split at '\n',
    as iterating a text stream splits it. Any other iterable is read as one
    line per item: its final '\n' is dropped and any other '\n' becomes a
    space, which the tokenisers treat alike inside a line.
    """
    read = getattr(stream, "read", None)
    if read is None:
        items = iter(stream)

        def read(size: int) -> str:  # ~16 characters a line
            return "".join(item.removesuffix("\n").replace("\n", " ") + "\n" for item in islice(items, size // 16 or 1))

    carry = ""
    while chunk := read(_CHUNK_CHARS):
        chunk = carry + chunk
        cut = chunk.rfind("\n") + 1
        carry = chunk[cut:]
        if cut:
            yield chunk[:cut]
    if carry:
        yield carry


def _tokenise_lines(block: str, first_lineno: int) -> tuple[np.ndarray, int, int, int]:
    """Per-line tokeniser: ``_scan_block``'s result for any block of ``_blocks``.

    That is the kept-edge endpoints as one int64 array in file order (u, v,
    u, v, ...), the self-loop and comment counts, and the line count: the
    block's count of '\n'.

    Each non-comment, non-blank line must hold two tokens ``int()`` accepts,
    neither negative; a kept edge's ids must fit in int64. Errors name the
    line, counted from ``first_lineno``.
    """
    ends: list[int] = []
    self_loops = 0
    comments = 0
    for lineno, raw in enumerate(block.split("\n"), first_lineno):  # a final '\n' leaves a blank last item
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
    return np.array(ends, dtype=np.int64), self_loops, comments, block.count("\n")


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


def _put_keys(keys: np.ndarray, count: int, ids: np.ndarray) -> int:
    """Write the key ``lo << 32 | hi`` of each id pair of ``ids`` (u, v, u,
    v, ... in int32) at ``keys[count:]``; return the new count.

    ``keys`` grows in place by half, or to fit, when full: a large buffer is
    moved by ``realloc`` without a second copy alive. No view of it may
    outlive this call.
    """
    k = len(ids) // 2
    if count + k > len(keys):
        keys.resize(max(count + k, len(keys) * 3 // 2), refcheck=False)
    halves = keys[count : count + k].view(np.int32).reshape(k, 2)
    u, v = ids[0::2], ids[1::2]
    np.minimum(u, v, out=halves[:, _HIGH])
    np.maximum(u, v, out=halves[:, _LOW])
    return count + k


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

    Memory: with L kept lines (duplicates included) and m distinct edges,
    the parse holds at its peak the largest of
      - while reading, the key buffer, 8 bytes per line read (up to half
        again while it grows), beside the label table (12 bytes per slot,
        at least 4 slots per node) and one block's temporaries (a few MB);
      - while deduplicating, the L sorted keys, a 1-byte mask per key and
        the m distinct keys: 9L + 8m bytes;
      - while building the CSR, the m distinct keys and the 16m-byte arc
        buffer that becomes ``indices``: 24m bytes.
    On a file that lists every edge in both orientations (L = 2m) that is
    26m bytes, about 1.6 times the graph's arrays. Load plus
    ``largest_connected_component`` of a 103 MB, 6M-line file of 200k nodes
    (connected) peaks at ~123 MB RSS, ~38 MB of it the interpreter with
    numpy; a disconnected input adds the selection of its largest component.

    Raises
    ------
    EdgeListParseError
        On a malformed line or an id beyond int64 (names the 1-based line
        number), or if the kept edges hold more distinct ids than int32 can
        number.
    EmptyGraphError
        If no edges survive normalization.
    """
    # One int64 key lo << 32 | hi per kept line, in one buffer. The label
    # table assigns ids as blocks arrive, so only each block's new labels
    # are sorted; one np.unique over all endpoints of a 600k-line file
    # raised the peak RSS above the per-line parser's.
    table = _LabelTable()
    keys = np.empty(0, dtype=np.int64)
    count = 0
    self_loops = 0
    comments = 0
    lineno = 1
    for block in _blocks(stream):
        ends, block_loops, block_comments, block_lines = _scan_block(block) or _tokenise_lines(block, lineno)
        lineno += block_lines
        self_loops += block_loops
        comments += block_comments
        if len(ends):
            count = _put_keys(keys, count, table.ids(ends))
    if not count:
        raise EmptyGraphError("edge list contains no usable edges")
    n, labels = table.n, np.concatenate(table.labels)
    del table

    # Deduplicate by sorting the keys in place.
    keys.resize(count, refcheck=False)
    keys.sort()
    distinct = np.empty(count, dtype=bool)
    distinct[0] = True
    np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
    edges = keys[distinct]
    del keys, distinct
    pairs = edges.view(np.int32).reshape(len(edges), 2)
    graph = build_graph(pairs[:, _HIGH], pairs[:, _LOW], n, labels)
    report = IngestReport(
        kept_edges=len(edges),
        dropped_self_loops=self_loops,
        dropped_duplicates=count - len(edges),
        comment_lines=comments,
    )
    return graph, report


# The dataset cache: ``load_edge_list`` keeps each file's graph and report
# under ``<cache dir>/walksample/<key>.csr``, the key being the BLAKE2b-256 of
# ``_CACHE_TAG`` and the file's bytes. A record is one file of native-endian
# int64 words: a header of ``_HEADER_WORDS`` (``_CACHE_VERSION``, n, m and the
# four report counts), then ``indptr``, ``indices`` and ``labels``, so
# exactly 8 * (2n + 2m + 8) bytes. A byte-swapped record never reads as this
# version. A change to what ``parse_edge_list`` returns must bump
# ``_CACHE_VERSION``, which retires every older record.
_CACHE_VERSION = 2
_CACHE_TAG = b"walksample edge-list graph %d\n" % _CACHE_VERSION
_HEADER_WORDS = 7
_HASH_BUFFER = 1 << 16

# BLAKE2b-256 from the interpreter's own module: ``hashlib``'s sha256 loads
# OpenSSL, ~3.6 MB of resident pages in every command that loads a graph,
# and the interpreter's own sha256 takes 2.6x BLAKE2b's time (38 against
# 14 ms on a 9.6 MB file, one core of a 2-vCPU Xeon, Python 3.11); a miss
# hashes the file twice.
try:
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b


def _new_digest():
    return blake2b(_CACHE_TAG, digest_size=32)


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/walksample``, under ``~/.cache`` where
    ``XDG_CACHE_HOME`` is unset, empty or relative (the XDG rule); None
    without a home directory, which means no cache."""
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.expanduser("~/.cache")
    return Path(root) / "walksample" if os.path.isabs(root) else None


def _writable(folder: Path) -> bool:
    """Whether a record can be written in ``folder``, made here if missing.
    Where none can, a miss parses without hashing the file a second time."""
    try:
        folder.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(folder, os.W_OK)


class _HashingReader(io.RawIOBase):
    """Reads a binary file through, feeding every byte read to ``digest``."""

    def __init__(self, raw: io.RawIOBase, digest) -> None:
        self.raw = raw
        self.digest = digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.raw.readinto(buffer)
        self.digest.update(memoryview(buffer)[:count])
        return count


def _record(folder: Path, digest) -> Path:
    return folder / f"{digest.hexdigest()}.csr"


def _read_cached(folder: Path, digest) -> tuple[Graph, IngestReport] | None:
    """The graph and report stored in ``folder`` under ``digest``, or None when the record
    is missing, unreadable or fails a structural check.

    Before anything past the header is read, the header must hold this
    version and a report that kept its m >= 1 edges, and the file's size must
    be exactly 8 * (2n + 2m + 8) for its n and m: ``np.fromfile`` drops a
    trailing partial word, so the size is what refuses trailing bytes. The
    other checks cost O(n + m): ``indptr`` runs from 0 to 2m without
    decreasing and every index is in [0, n). The content itself is vouched
    for by the key.
    """
    try:
        with open(_record(folder, digest), "rb") as fh:
            head = fh.read(8 * _HEADER_WORDS)
            if len(head) != 8 * _HEADER_WORDS:
                return None
            version, n, m, kept, self_loops, duplicates, comments = np.frombuffer(head, dtype=np.int64).tolist()
            if version != _CACHE_VERSION or kept != m or m < 1 or n < 1:
                return None
            if os.fstat(fh.fileno()).st_size != 8 * (2 * n + 2 * m + 8):
                return None
            words = np.fromfile(fh, dtype=np.int64)
    except OSError:  # no record, or not a file
        return None
    if len(words) != 2 * n + 2 * m + 1:  # the file was cut short since its size was read
        return None
    graph = Graph(indptr=words[: n + 1], indices=words[n + 1 : n + 1 + 2 * m], labels=words[n + 1 + 2 * m :])
    if graph.indptr[0] != 0 or graph.indptr[-1] != 2 * m or graph.degrees.min() < 0:
        return None
    if not (graph.indices.min() >= 0 and graph.indices.max() < n):
        return None
    return graph, IngestReport(kept, self_loops, duplicates, comments)


def _store(folder: Path, digest, graph: Graph, report: IngestReport) -> None:
    """Write the record of ``graph`` and ``report`` in ``folder`` under
    ``digest`` through a temporary file and ``os.replace``; a failure leaves
    the cache as it was. Each array is written from its own buffer, with no
    copy."""
    header = np.array([_CACHE_VERSION, graph.n, graph.m, *astuple(report)], dtype=np.int64)
    try:
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            for array in (header, graph.indptr, graph.indices, graph.labels):
                array.tofile(fh)
        os.replace(tmp, _record(folder, digest))
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if not isinstance(exc, OSError):
            raise


def load_edge_list(path: str | Path) -> tuple[Graph, IngestReport]:
    """Parse an edge-list file (UTF-8), or read its graph from the dataset cache.

    A regular file is hashed first (BLAKE2b-256 of ``_CACHE_TAG`` and its
    bytes, through a small buffer) where the cache directory exists; a
    record under that key is returned when it passes ``_read_cached``'s
    checks, equal bit for bit to a fresh parse. Otherwise the file is parsed
    while its bytes are hashed again, and the result is stored under the
    digest of exactly the bytes parsed, so a file edited since the lookup is
    never stored under the old content's key. Where no record can be
    written, the file is parsed without that second hash. Any cache failure
    (an unwritable directory, a damaged or old record) is silently a parse,
    and a file that fails to parse is never stored. Other paths (a pipe, a
    device) are parsed without the cache.
    """
    with open(path, "rb", buffering=0) as raw:
        folder = _cache_dir() if stat.S_ISREG(os.fstat(raw.fileno()).st_mode) else None
        if folder is not None and folder.is_dir():
            lookup = _HashingReader(raw, _new_digest())
            buffer = bytearray(_HASH_BUFFER)
            while lookup.readinto(buffer):
                pass
            cached = _read_cached(folder, lookup.digest)
            if cached is not None:
                return cached
            raw.seek(0)
        digest = _new_digest() if folder is not None and _writable(folder) else None
        source = raw if digest is None else _HashingReader(raw, digest)
        with io.TextIOWrapper(io.BufferedReader(source), encoding="utf-8") as text:
            try:
                graph, report = parse_edge_list(text)
            except UnicodeDecodeError as exc:
                bad = exc.object[exc.start]
                raise EdgeListParseError(f"{path}: not UTF-8 (byte 0x{bad:02x}: {exc.reason})") from None
    if digest is not None:
        _store(folder, digest, graph, report)
    return graph, report


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

    The component is a selection of the input's rows: its nodes' rows of
    ``indices`` (a component is closed under adjacency), renumbered through
    an int32 map in node order, which keeps each row sorted; nothing is
    sorted. With m' edges kept it peaks, beside the input graph, at about
    24m' bytes: the kept int32 heads beside their int64 source, then beside
    the int64 ``indices``.
    """
    if graph.n == 0:
        return graph
    ncomp, comp = graph.components
    if ncomp <= 1:
        return graph
    keep = comp == np.argmax(np.bincount(comp, minlength=ncomp))
    new_id = np.cumsum(keep, dtype=np.int32) - 1
    indices = new_id[graph.indices[np.repeat(keep, graph.degrees)]].astype(np.int64)
    indptr = np.zeros(np.count_nonzero(keep) + 1, dtype=np.int64)
    np.cumsum(graph.degrees[keep], out=indptr[1:])
    return Graph(indptr=indptr, indices=indices, labels=graph.labels[keep])


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
    if graph.m == 0:  # the degree-proportional distribution needs an edge
        raise EmptyGraphError("stats of a graph without edges are undefined")
    return GraphStats(
        n=graph.n,
        m=graph.m,
        d_max=graph.d_max,
        tvd_srw_vs_uniform=0.5 * float(np.abs(graph.degrees / (2.0 * graph.m) - 1.0 / graph.n).sum()),
    )
