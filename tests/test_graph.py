from __future__ import annotations

import io
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import walksample.graph as graph_module
from conftest import EXAMPLE_EDGES, make_graph, preferential_graph, random_connected_graph
from walksample import (
    EdgeListParseError,
    EmptyGraphError,
    Graph,
    IngestReport,
    average_degree,
    largest_connected_component,
    load_edge_list,
    parse_edge_list,
)
from walksample.graph import build_graph, graph_stats, write_edge_list


def test_parse_example_shape(example_graph):
    g = example_graph
    assert (g.n, g.m, g.d_max, g.min_degree) == (5, 7, 4, 2)
    assert g.degrees.tolist() == [4, 2, 3, 3, 2]
    assert g.labels.tolist() == [1, 2, 3, 4, 5]
    g.validate()


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n1 2\n   \n# more\n2 3\n"
    graph, report = parse_edge_list(io.StringIO(text))
    assert (graph.n, graph.m) == (3, 2)
    assert report.comment_lines == 2
    assert report.kept_edges == 2


def test_parse_accepts_tabs_and_extra_whitespace():
    graph, _ = parse_edge_list(io.StringIO("1\t2\n  2   3 \n"))
    assert (graph.n, graph.m) == (3, 2)


def test_parse_drops_duplicates_and_reversed_edges():
    graph, report = parse_edge_list(io.StringIO("1 2\n2 1\n1 2\n2 3\n"))
    assert (graph.n, graph.m) == (3, 2)
    assert report.dropped_duplicates == 2
    assert report.kept_edges == 2


def test_parse_drops_self_loops():
    graph, report = parse_edge_list(io.StringIO("1 1\n1 2\n3 3\n"))
    assert (graph.n, graph.m) == (2, 1)
    assert report.dropped_self_loops == 2


def test_parse_ids_assigned_by_first_appearance():
    graph, _ = parse_edge_list(io.StringIO("7 3\n3 9\n"))
    assert graph.labels.tolist() == [7, 3, 9]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list(io.StringIO("1 2\n3\n"))
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list(io.StringIO("1 2 3\n"))
    with pytest.raises(EdgeListParseError, match="line 3"):
        parse_edge_list(io.StringIO("1 2\n2 3\n4 x\n"))
    with pytest.raises(EdgeListParseError, match="negative"):
        parse_edge_list(io.StringIO("-1 2\n"))


def test_parse_rejects_node_ids_beyond_int64():
    assert parse_edge_list(io.StringIO(f"1 2\n2 {2**63 - 1}\n"))[0].labels[-1] == 2**63 - 1
    with pytest.raises(EdgeListParseError, match="line 2"):
        parse_edge_list(io.StringIO(f"1 2\n2 {2**63}\n"))
    with pytest.raises(EdgeListParseError, match="line 1"):
        parse_edge_list(io.StringIO(f"{2**70} 1\n"))


def test_parse_rejects_inputs_without_edges():
    with pytest.raises(EmptyGraphError):
        parse_edge_list(io.StringIO(""))
    with pytest.raises(EmptyGraphError):
        parse_edge_list(io.StringIO("# only comments\n\n"))
    with pytest.raises(EmptyGraphError):
        parse_edge_list(io.StringIO("4 4\n"))


def test_neighbors_sorted_and_invariants_hold():
    rng = np.random.default_rng(101)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 20)))
        g.validate()
        for v in range(g.n):
            nbrs = g.neighbors(v)
            assert len(nbrs) == g.degrees[v]
            assert np.all(np.diff(nbrs) > 0)


def test_validate_rejects_broken_hand_built_graphs():
    def graph(rows, extra=(), nodes=None):
        lengths = [len(r) for r in rows]
        return Graph(
            indptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            indices=np.array([v for r in rows for v in r] + list(extra), dtype=np.int64),
            labels=np.arange(len(rows) if nodes is None else nodes, dtype=np.int64),
        )

    graph([[1, 2], [0, 2], [0, 1]]).validate()  # the triangle
    with pytest.raises(AssertionError, match="row 0 not sorted/unique"):
        graph([[2, 1], [0, 2], [0, 1]]).validate()
    with pytest.raises(AssertionError, match="self-loop at 0"):
        graph([[0, 1], [0, 1]]).validate()
    with pytest.raises(AssertionError, match="adjacency not symmetric"):
        graph([[1, 2], [2], [0]]).validate()
    with pytest.raises(AssertionError):  # indptr[-1] != len(indices)
        graph([[1, 2], [0, 2], [0, 1]], extra=[0, 1]).validate()
    with pytest.raises(AssertionError):  # labels of the wrong length
        graph([[1, 2], [0, 2], [0, 1]], nodes=2).validate()


def test_write_read_roundtrip():
    rng = np.random.default_rng(77)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(4, 15)))
        buf = io.StringIO()
        write_edge_list(g, buf)
        back, _ = parse_edge_list(io.StringIO(buf.getvalue()))
        assert back.n == g.n and back.m == g.m
        # labels here are 0..n-1 so adjacency must match exactly
        assert np.array_equal(back.degrees[np.argsort(back.labels)], g.degrees)


def test_lcc_keeps_largest_component():
    g = make_graph("1 2\n2 3\n3 1\n10 11\n")
    lcc = largest_connected_component(g)
    assert (lcc.n, lcc.m) == (3, 3)
    assert sorted(lcc.labels.tolist()) == [1, 2, 3]
    lcc.validate()


def test_lcc_tie_breaks_toward_smallest_internal_id():
    # two components of equal size; the one appearing first wins
    g = make_graph("5 6\n1 2\n")
    assert largest_connected_component(g).labels.tolist() == [5, 6]


def test_lcc_connected_graph_unchanged(example_graph):
    lcc = largest_connected_component(example_graph)
    assert lcc.n == example_graph.n
    assert np.array_equal(lcc.indices, example_graph.indices)


def _bfs_components(graph) -> list[set[int]]:
    seen = set()
    comps = []
    for s in range(graph.n):
        if s in seen:
            continue
        comp = {s}
        frontier = [s]
        while frontier:
            v = frontier.pop()
            for u in graph.neighbors(v):
                if int(u) not in comp:
                    comp.add(int(u))
                    frontier.append(int(u))
        seen |= comp
        comps.append(comp)
    return comps


def _induced_subgraph(u, v, keep, labels):
    """The subgraph ``build_graph`` makes from the edges (u, v) inside the
    sorted node list ``keep``, ids renumbered in node order."""
    new_id = {old: new for new, old in enumerate(keep)}
    pairs = [(new_id[a], new_id[b]) for a, b in zip(u.tolist(), v.tolist()) if a in new_id]
    return build_graph([a for a, _ in pairs], [b for _, b in pairs], len(keep), labels=labels[keep])


def _assert_same_arrays(got, want):
    for name in ("indptr", "indices", "degrees", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_lcc_matches_hand_bfs():
    # Sparse random graphs, most with isolated nodes; every other one is two
    # copies of a graph, ids shuffled, so its largest components tie in size.
    rng = np.random.default_rng(2024)
    for trial in range(40):
        n = int(rng.integers(6, 30))
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < 0.08
        if not mask.any():
            continue
        u, v = iu[mask], iv[mask]
        if trial % 2:
            ids = rng.permutation(2 * n)
            u, v, n = ids[np.concatenate([u, u + n])], ids[np.concatenate([v, v + n])], 2 * n
        g = build_graph(u, v, n, labels=100 + rng.permutation(n))
        comps = _bfs_components(g)  # in order of their lowest node
        size = max(len(c) for c in comps)
        keep = sorted(next(c for c in comps if len(c) == size))
        lcc = largest_connected_component(g)
        lcc.validate()
        assert lcc.n == size
        _assert_same_arrays(lcc, _induced_subgraph(u, v, keep, g.labels))


def test_average_degree(example_graph):
    assert average_degree(example_graph) == pytest.approx(2.8)


def test_graph_stats_example(example_graph):
    st = graph_stats(example_graph)
    assert (st.n, st.m, st.d_max) == (5, 7, 4)
    assert st.tvd_srw_vs_uniform == pytest.approx(4 / 35, abs=1e-12)
    with pytest.raises(EmptyGraphError, match="without edges"):
        graph_stats(build_graph([], [], 3))


def test_degrees_match_edge_count():
    g = make_graph(EXAMPLE_EDGES)
    assert int(g.degrees.sum()) == 2 * g.m


# --- the chunked numpy parser against the per-line reference ---------------

_MAX_ID = 2**63 - 1


def _reference_build(u, v, n, labels):
    """``build_graph`` as it was before the single-key sort (lexsort)."""
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    indices = dst[np.lexsort((dst, src))]
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    return indptr, indices, degrees, np.asarray(labels, dtype=np.int64)


def _reference_parse(stream):
    """The per-line parser the chunked one replaced: (n, m, arrays, report)."""
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
            raise EdgeListParseError(f"line {lineno}: expected 2 tokens, found {len(parts)}")
        try:
            a = int(parts[0])
            b = int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: non-integer token in {parts!r}") from None
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
    keys = np.minimum(u, v) * np.int64(n) + np.maximum(u, v)
    unique_keys = np.unique(keys)
    labels = np.fromiter(internal.keys(), dtype=np.int64, count=n)
    arrays = _reference_build(unique_keys // n, unique_keys % n, n, labels)
    report = IngestReport(
        kept_edges=len(unique_keys),
        dropped_self_loops=self_loops,
        dropped_duplicates=len(keys) - len(unique_keys),
        comment_lines=comments,
    )
    return n, len(unique_keys), arrays, report


def _assert_same_as_reference(result, lines):
    graph, report = result
    n, m, arrays, want_report = _reference_parse(lines)
    assert (graph.n, graph.m) == (n, m)
    for name, want in zip(("indptr", "indices", "degrees", "labels"), arrays):
        got = getattr(graph, name)
        assert got.dtype == np.int64 and np.array_equal(got, want), name
    assert report == want_report
    graph.validate()


def _random_edge_lines(rng: np.random.Generator, count: int, long_ids: bool = True) -> list[str]:
    """Lines of a messy edge list, each ending in '\\n' or '\\r\\n'."""
    pool = rng.integers(0, 10**6, size=40).tolist() + [10**17 + 7, 10**18 - 1]  # up to 18 digits
    if long_ids:
        pool += [10**18, 2**63 - 1]  # 19 digits: the per-line tokeniser reads these
    seps = [" ", "\t", "  ", " \t "]
    lines = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.04:
            lines.append("# comment 1 2\n")
        elif roll < 0.06:
            lines.append(rng.choice(["\n", "   \n", "\t\n", " # indented comment\n"]))
        else:
            a = pool[int(rng.integers(len(pool)))]
            b = a if roll < 0.1 else pool[int(rng.integers(len(pool)))]
            sep = seps[int(rng.integers(len(seps)))]
            end = "\r\n" if rng.random() < 0.2 else "\n"
            lines.append(f"{' ' * int(rng.integers(2))}{a}{sep}{b}{end}")
    return lines


@pytest.mark.parametrize("chunk", [16, 100, 1 << 20])
def test_chunked_parser_matches_per_line_reference(monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", chunk)
    rng = np.random.default_rng(chunk)
    for trial in range(8):
        lines = _random_edge_lines(rng, int(rng.integers(1, 300)))
        lines[-1] = lines[-1].rstrip("\r\n")  # no trailing newline
        text = "".join(lines)
        _assert_same_as_reference(parse_edge_list(io.StringIO(text)), lines)
        _assert_same_as_reference(parse_edge_list(lines), lines)
        _assert_same_as_reference(parse_edge_list([line.rstrip("\r\n") for line in lines]), lines)
        path = tmp_path / f"edges{trial}.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            _assert_same_as_reference(load_edge_list(path), list(fh))


# Ids of 18 and 19 digits among small ones, and ids below 10**18 zero-padded
# to 19-25 digits.
_PADDED = st.builds(lambda value, width: str(value).zfill(width), st.integers(0, 10**18 - 1), st.integers(19, 25))
_IDS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from([10**17 + 7, 10**18 - 1, 10**18, 2**63 - 1]).map(str),
    _PADDED,
)
_NOISE = ["# comment 1 2", "  # indented comment", "\t# tab comment", "", "   ", "\t"]
_MALFORMED = ["1 2 3", "4 x", "-1 2", "7"]


@st.composite
def _messy_lines(draw) -> list[str]:
    """Lines of a messy edge list: comments, blanks, tabs, '+' signs,
    self-loops, duplicates, zero-padded ids, the odd malformed line or id
    beyond int64; '\n' or '\r\n' endings and none on the last line, which at
    times holds one token."""
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        roll = draw(st.integers(0, 99))
        if roll < 12:
            body = draw(st.sampled_from(_NOISE))
        elif roll < 13:
            body = draw(st.sampled_from(_MALFORMED))
        else:
            a = str(2**63) if roll < 15 else draw(_IDS)  # one past int64
            b = a if 15 <= roll < 21 else draw(_IDS)
            lead = draw(st.sampled_from(["", " ", "\t"]))
            sign = draw(st.sampled_from(["", "", "", "+"]))
            sep = draw(st.sampled_from([" ", "\t", " \t "]))
            body = f"{lead}{sign}{a}{sep}{b}"
        lines.append(body + draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(_IDS))  # a one-token tail
    lines[-1] = lines[-1].rstrip("\r\n")
    return lines


def _error_of(parse, lines):
    """(the error text or None, the result or None) of one parse."""
    try:
        return None, parse(lines)
    except (EdgeListParseError, EmptyGraphError) as exc:
        return f"{type(exc).__name__}: {exc}", None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(lines=_messy_lines(), chunk=st.integers(1, 512))
def test_chunked_parser_matches_reference_on_messy_input(lines, chunk):
    error, _ = _error_of(_reference_parse, lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_CHUNK_CHARS", chunk)
        for source in (io.StringIO("".join(lines)), lines):
            got_error, got = _error_of(parse_edge_list, source)
            assert got_error == error
            if error is None:
                _assert_same_as_reference(got, lines)


@st.composite
def _label_pool_lines(draw) -> list[str]:
    """Edge lines over a pool of 1-5000 distinct labels, every one of which
    appears: consecutive runs, multiples of 2**32, random ids up to 18
    digits, 0 and 10**18 - 1, and at times a few 19-digit ids near 2**63 - 1,
    whose blocks take the per-line path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 5000))
    run_start = draw(st.sampled_from([0, 1, 2**32 - 7, 10**17]))
    candidates = [
        np.array([0, 10**18 - 1]),
        run_start + np.arange(size),
        np.arange(1, size + 1) << 32,
        rng.integers(0, 10**18, size=size),
    ]
    if draw(st.booleans()):
        candidates.append(2**63 - 1 - np.arange(3))
    pool = rng.permutation(np.unique(np.concatenate(candidates)))[:size]
    # Every label once in random order, then random ones; each against a
    # random partner.
    left = np.concatenate([rng.permutation(len(pool)), rng.integers(0, len(pool), size=len(pool) // 2)])
    right = rng.integers(0, len(pool), size=len(left))
    return [f"{pool[a]} {pool[b]}\n" for a, b in zip(left.tolist(), right.tolist())]


@settings(derandomize=True, max_examples=12, deadline=None)
@given(lines=_label_pool_lines(), chunk=st.integers(64, 1 << 14))
def test_label_table_matches_reference_across_resizes(lines, chunk):
    # New labels arrive over many blocks, so the table grows several times
    # while earlier ids must keep their first-appearance order.
    error, _ = _error_of(_reference_parse, lines)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_CHUNK_CHARS", chunk)
        got_error, got = _error_of(parse_edge_list, io.StringIO("".join(lines)))
    assert got_error == error
    if error is None:
        _assert_same_as_reference(got, lines)


def test_node_count_beyond_int32_ids_is_refused(monkeypatch):
    monkeypatch.setattr(graph_module, "_MAX_NODES", 4)
    assert parse_edge_list(io.StringIO("1 2\n3 4\n"))[0].n == 4
    with pytest.raises(ValueError, match="more than 4 distinct node ids"):
        parse_edge_list(io.StringIO("1 2\n3 4\n4 5\n"))


@pytest.mark.parametrize(
    "text",
    ["1 2\n7\n3 4\n", "1 2\n3 4 5\n", "1 2\n3 4\n7", f"1 {10**18}\n", f"{2**63 - 1} 2\n", f"3 {2**70}\n"],
    ids=["one-token line", "three-token line", "one-token tail", "1e18", "2**63-1", "2**70"],
)
def test_scan_block_leaves_to_the_per_line_tokeniser(text):
    # 2**70 pins numpy's saturation of an overflowing token at 2**63 - 1,
    # which the scan's value rule relies on.
    assert graph_module._scan_block(text) is None


def test_scan_block_reads_zero_padded_long_ids():
    text = f"{'12'.zfill(22)} {'34'.zfill(25)}\n\n{str(10**18 - 1).zfill(19)} 5\n6 {'6'.zfill(20)}"
    ends, loops, comments, lines = graph_module._scan_block(text)
    assert ends.tolist() == [12, 34, 10**18 - 1, 5]
    assert (loops, comments, lines) == (1, 0, 3)


@pytest.mark.parametrize(
    "block",
    [
        "1 2\n3 4\n",
        "# header\n1 2\n\n  # indented comment\n3 3\n5\t6\n",
        "1 2\r\n4 4\r\n\r\n#c\r\n7 8\r\n",
        "1 2\n3 4\n5 6",
        "\n\n# only a comment\n",
        "9 9",
    ],
    ids=["plain", "comments-blanks-loops", "crlf", "no-final-newline", "no-edges", "lone-loop"],
)
def test_both_tokenisers_return_one_shape(block):
    scanned, per_line = graph_module._scan_block(block), graph_module._tokenise_lines(block, 1)
    assert scanned is not None and len(scanned) == len(per_line) == 4
    assert np.array_equal(scanned[0], per_line[0]) and scanned[0].dtype == per_line[0].dtype
    assert scanned[1:] == per_line[1:]


def test_scan_and_per_line_tokenisers_agree(monkeypatch):
    rng = np.random.default_rng(5)
    text = "".join(_random_edge_lines(rng, 2000))
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", 256)
    fast = parse_edge_list(io.StringIO(text))
    monkeypatch.setattr(graph_module, "_scan_block", lambda block: None)
    slow = parse_edge_list(io.StringIO(text))
    for name in ("indptr", "indices", "degrees", "labels"):
        assert np.array_equal(getattr(fast[0], name), getattr(slow[0], name)), name
    assert fast[1] == slow[1]


def test_clean_input_never_reaches_the_per_line_tokeniser(monkeypatch):
    calls = []
    per_line = graph_module._tokenise_lines
    monkeypatch.setattr(graph_module, "_tokenise_lines", lambda *args: calls.append(1) or per_line(*args))
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", 64)
    lines = _random_edge_lines(np.random.default_rng(9), 500, long_ids=False)
    _assert_same_as_reference(parse_edge_list(io.StringIO("".join(lines))), lines)
    _assert_same_as_reference(parse_edge_list(lines), lines)  # lines that keep their '\n'
    assert calls == []
    # A rejected block goes per line; the blocks around it do not.
    lines[250] = "+5 007\n"
    _assert_same_as_reference(parse_edge_list(io.StringIO("".join(lines))), lines)
    assert len(calls) == 1
    # A listed line with a '\n' before its end is one line: its batch goes per line.
    with pytest.raises(EdgeListParseError, match="^line 2: expected 2 tokens, found 4"):
        parse_edge_list(["1 2\n", "2 3\n3 4\n", "4 5\n"])
    assert len(calls) == 2


@pytest.mark.parametrize(
    "bad",
    ["1 2 3", "7", "1 2 3 4", "7\n8 9 10", "4 x", "3 4:", "-1 2", "3 -4", f"1 {2**63}", f"{2**70} 5",
     "1 2 # note", "1\xa02 3", "\u0663 \u0664 5"],
)
def test_malformed_line_in_a_later_chunk(monkeypatch, bad):
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", 128)
    lines = [f"{i} {i + 1}\n" for i in range(200)]
    lines[20] = "+5 007\n"  # an earlier block goes per line too
    lines[157:157] = (bad + "\n").splitlines(keepends=True)
    with pytest.raises(EdgeListParseError) as want:
        _reference_parse(lines)
    with pytest.raises(EdgeListParseError) as got:
        parse_edge_list(io.StringIO("".join(lines)))
    assert str(got.value) == str(want.value) and str(got.value).startswith("line 158:")
    with pytest.raises(EdgeListParseError, match=f"^{re.escape(str(want.value))}$"):
        parse_edge_list([line.rstrip("\n") for line in lines])


def test_per_line_leniency_is_kept(monkeypatch):
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", 32)
    big = 10**30
    lines = ["+5 007\n", "5 1234567890123456789\n", f"{big} {big}\n", "0000000000000000000000000008 5\n",
             "1_000 5\n", "\u0663 5\n", "# caf\xe9\n", "\xa07\t5\xa0\n", "9\x0b10\n", "11\x0c12\n"]
    lines += [f"{i} {i + 3}\n" for i in range(40)]
    _assert_same_as_reference(parse_edge_list(io.StringIO("".join(lines))), lines)
    graph, report = parse_edge_list(io.StringIO("".join(lines)))
    assert graph.labels[:3].tolist() == [5, 7, 1234567890123456789]
    assert report.dropped_self_loops == 1


def test_lines_without_newlines_parse_as_before(monkeypatch):
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", 48)
    lines = ["# header", "1 2", "", "2\t3", "3 1", "1 1", "4 3 "]
    _assert_same_as_reference(parse_edge_list(lines), lines)
    # A list element holding two lines is one malformed line, as before.
    with pytest.raises(EdgeListParseError, match="^line 2: expected 2 tokens, found 4$"):
        parse_edge_list(["1 2", "2 3\n3 4", "4 5"])


@pytest.mark.parametrize("text", ["", "\n\n", "  \n\t\n", "# only\n  # comments\n", "6 6\n", "6 6"])
def test_blank_and_loop_only_blocks(monkeypatch, text):
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", 4)
    with pytest.raises(EmptyGraphError):
        parse_edge_list(io.StringIO(text))
    graph, report = parse_edge_list(io.StringIO(text + "\n1 2\n" + text))
    assert (graph.n, graph.m, report.kept_edges) == (2, 1, 1)


def test_build_graph_orders_rows_like_lexsort():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        iu, iv = np.triu_indices(n, k=1)
        pick = rng.permutation(len(iu))[: int(rng.integers(1, len(iu) + 1))]
        u, v = iu[pick], iv[pick]
        flip = rng.random(len(u)) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        graph = build_graph(u, v, n)
        want = _reference_build(u.astype(np.int64), v.astype(np.int64), n, np.arange(n))
        for name, arr in zip(("indptr", "indices", "degrees", "labels"), want):
            got = getattr(graph, name)
            assert got.dtype == arr.dtype and np.array_equal(got, arr), name


def _reference_sort_build(u, v, n, labels):
    """``build_graph`` as it was before the arcs shared one buffer: both
    orientations concatenated, one sort of the key ``src * n + dst``."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    src = np.concatenate([u, v])
    keys = src * np.int64(n)
    keys[: len(u)] += v
    keys[len(u) :] += u
    keys.sort()
    indices = keys % n if n else keys
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    return indptr, indices, degrees, np.asarray(labels, dtype=np.int64)


@st.composite
def _edge_sets(draw):
    """(u, v, n): a random set of distinct edges on n nodes, each in a random
    orientation and order, as a list, an int64 array or strided int32 views."""
    n = draw(st.integers(0, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    iu, iv = np.triu_indices(n, k=1)
    pick = rng.permutation(len(iu))[: draw(st.integers(0, len(iu)))]
    u, v = iu[pick], iv[pick]
    flip = rng.random(len(u)) < 0.5
    u, v = np.where(flip, v, u), np.where(flip, u, v)
    form = draw(st.sampled_from(["list", "int64", "int32 view"]))
    if form == "list":
        return u.tolist(), v.tolist(), n
    if form == "int32 view":
        both = np.stack([u, v], axis=1).astype(np.int32)
        return both[:, 0], both[:, 1], n
    return u.astype(np.int64), v.astype(np.int64), n


@settings(derandomize=True, max_examples=80, deadline=None)
@given(edges=_edge_sets())
@example(edges=([], [], 0))
@example(edges=([], [], 3))
@example(edges=([4], [1], 6))
@example(edges=(np.array([0]), np.array([1]), 2))
def test_build_graph_equals_the_concatenate_and_sort_construction(edges):
    u, v, n = edges
    labels = np.arange(n) * 7 + 3
    graph = build_graph(u, v, n, labels)
    assert (graph.n, graph.m) == (n, len(u))
    want = _reference_sort_build(u, v, n, labels)
    for name, arr in zip(("indptr", "indices", "degrees", "labels"), want):
        got = getattr(graph, name)
        assert got.dtype == arr.dtype and np.array_equal(got, arr), name
    graph.validate()


def test_edge_keys_order_like_the_id_pairs():
    # The parser's key lo << 32 | hi, written as two int32 halves, must sort
    # as the pairs (lo, hi) do up to the largest int32 id, and read back as
    # the same halves.
    top = 2**31 - 1
    ends = np.array([top, 0, 1, top, top - 1, top, 5, 2, 0, 1], dtype=np.int32)
    keys = np.empty(0, dtype=np.int64)
    count = 0
    for block in (ends[:4], ends[4:]):
        count = graph_module._put_keys(keys, count, block)
    keys.resize(count, refcheck=False)
    pairs = sorted(zip(np.minimum(ends[0::2], ends[1::2]).tolist(), np.maximum(ends[0::2], ends[1::2]).tolist()))
    assert (keys >= 0).all()
    assert np.array_equal(np.sort(keys), [(a << 32) | b for a, b in pairs])
    halves = np.sort(keys).view(np.int32).reshape(-1, 2)
    assert list(zip(halves[:, graph_module._HIGH].tolist(), halves[:, graph_module._LOW].tolist())) == pairs


def _disjoint_union_graph(rng, sizes, isolated):
    """Random connected parts of the given sizes (a random tree plus extra
    edges each) and ``isolated`` edgeless nodes, all under shuffled ids."""
    n = sum(sizes) + isolated
    ids = rng.permutation(n)
    us, vs = [], []
    offset = 0
    for size in sizes:
        part = ids[offset : offset + size]
        offset += size
        if size > 1:
            us.append(part[1:])
            vs.append(part[rng.integers(0, np.arange(1, size))])
            a, b = rng.integers(0, size, size=(2, size))
            keep = a != b
            us.append(part[a[keep]])
            vs.append(part[b[keep]])
    u = np.concatenate(us or [np.empty(0, dtype=np.int64)])
    v = np.concatenate(vs or [np.empty(0, dtype=np.int64)])
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    return build_graph(keys // n, keys % n, n)


def _assert_components_match_scipy(graph):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adjacency = csr_matrix((np.ones(len(graph.indices)), graph.indices, graph.indptr), shape=(graph.n, graph.n))
    want_count, want_labels = connected_components(adjacency, directed=False, return_labels=True)
    count, labels = graph.components
    assert count == want_count
    assert labels.dtype == np.int32
    assert np.array_equal(labels, want_labels)


def test_components_match_scipy():
    rng = np.random.default_rng(606)
    # A long path with shuffled ids: labels travel far, over many hook rounds.
    n = 100_000
    order = rng.permutation(n)
    _assert_components_match_scipy(build_graph(order[:-1], order[1:], n))
    # A sparse random graph: thousands of components, many of them single nodes.
    n = 50_000
    u, v = rng.integers(0, n, size=(2, int(0.4 * n)))
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[keys // n != keys % n]
    sparse = build_graph(keys // n, keys % n, n)
    assert sparse.components[0] > 10_000
    _assert_components_match_scipy(sparse)
    # Isolated nodes first, in the middle and last; and graphs with no edges.
    _assert_components_match_scipy(build_graph([1, 2, 6, 4], [2, 3, 7, 6], 9))
    _assert_components_match_scipy(build_graph([], [], 4))
    _assert_components_match_scipy(build_graph([], [], 0))
    # Parts of many shapes and sizes among isolated nodes, ids shuffled.
    for sizes, isolated in (([2, 2, 2], 0), ([50, 1, 7, 300], 40), ([1, 1], 5), (list(rng.integers(1, 60, 80)), 100)):
        graph = _disjoint_union_graph(rng, sizes, isolated)
        assert graph.components[0] == len(sizes) + isolated
        _assert_components_match_scipy(graph)
    for text in ("1 2\n2 3\n3 1\n10 11\n", "5 6\n1 2\n", EXAMPLE_EDGES):
        _assert_components_match_scipy(make_graph(text))


def _graph_bytes(graph):
    return sum(getattr(graph, name).nbytes for name in ("indptr", "indices", "degrees", "labels"))


@pytest.fixture(scope="module")
def crawl_file(tmp_path_factory):
    """A connected heavy-tailed graph written as crawl dumps are: every edge
    in both orientations, lines shuffled, sparse ids (1 MB, 60k lines)."""
    graph = preferential_graph(2000, 15, seed=3)
    rng = np.random.default_rng(4)
    labels = rng.permutation(10**6 + 7 * np.arange(graph.n))
    order = rng.permutation(2 * graph.m)
    tails = np.repeat(np.arange(graph.n), graph.degrees)
    tails, heads = labels[tails[order]], labels[graph.indices[order]]
    path = tmp_path_factory.mktemp("crawl") / "pa2000.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in zip(tails.tolist(), heads.tolist())))
    return path


def _traced_load_and_lcc(path):
    """(the LCC, tracemalloc's held and peak bytes) of load, LCC and
    components, with the loaded graph dropped."""
    tracemalloc.start()
    try:
        graph, _ = load_edge_list(path)
        lcc = largest_connected_component(graph)
        lcc.components
        del graph
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return lcc, held, peak


def test_ingest_holds_little_beyond_the_graph(crawl_file):
    # What load, LCC and components leave held is the graph's arrays plus
    # small change: no cached (2m,) arc tails (which held 1.9x).
    lcc, held, _ = _traced_load_and_lcc(crawl_file)
    assert (lcc.n, lcc.m) == (2000, 29880)
    assert held < 1.1 * _graph_bytes(lcc), f"held {held / _graph_bytes(lcc):.2f} x the graph"


def test_ingest_peak_is_a_small_multiple_of_the_graph(crawl_file, monkeypatch):
    # Small blocks, so that their temporaries do not hide the whole-file
    # buffers: one key per line, the distinct keys, then the arc buffer.
    # The per-block id arrays, their concatenation and the second (2m,)
    # arrays of the CSR build peaked at 5.2x.
    monkeypatch.setattr(graph_module, "_CHUNK_CHARS", 1 << 14)
    lcc, _, peak = _traced_load_and_lcc(crawl_file)
    assert lcc.n == 2000
    assert peak < 2.5 * _graph_bytes(lcc), f"peak {peak / _graph_bytes(lcc):.2f} x the graph"


def test_lcc_rebuild_of_a_disconnected_graph_is_lean():
    # A heavy-tailed 2000-node component beside a path, isolated edges and
    # isolated nodes, ids shuffled. The component is a selection of its rows
    # of ``indices``; rebuilt through the cached (2m,) arc tails it held 1.9x
    # the component after the call and peaked at 4.8x, and rebuilt from its
    # rows by ``build_graph`` it peaked at 1.5x.
    rng = np.random.default_rng(9)
    big = preferential_graph(2000, 15, seed=3)
    tails = np.repeat(np.arange(big.n), big.degrees)
    forward = tails < big.indices
    u = np.concatenate([tails[forward], np.arange(2000, 2039), np.arange(2040, 2060, 2)])
    v = np.concatenate([big.indices[forward], np.arange(2001, 2040), np.arange(2041, 2061, 2)])
    ids = rng.permutation(2065)
    graph = build_graph(ids[u], ids[v], 2065, labels=10**6 + ids)
    graph.components
    tracemalloc.start()
    try:
        lcc = largest_connected_component(graph)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.1 * _graph_bytes(lcc), f"held {held / _graph_bytes(lcc):.2f} x the component"
    assert peak < 1.45 * _graph_bytes(lcc), f"peak {peak / _graph_bytes(lcc):.2f} x the component"
    (keep,) = [sorted(c) for c in _bfs_components(graph) if len(c) == 2000]
    _assert_same_arrays(lcc, _induced_subgraph(ids[u], ids[v], keep, graph.labels))
    assert (lcc.n, lcc.m) == (2000, big.m)


# --- the dataset cache -------------------------------------------------------


def _records(cache):
    return sorted(cache.glob("*")) if cache.exists() else []


def _assert_same_load(got, want):
    (graph, report), (fresh, fresh_report) = got, want
    assert report == fresh_report
    assert (graph.n, graph.m) == (fresh.n, fresh.m)
    assert all(type(a) is int for a in (graph.n, graph.m, *vars(report).values()))
    for name in ("indptr", "indices", "degrees", "labels"):
        a, b = getattr(graph, name), getattr(fresh, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name


def _parse_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_edge_list(fh)


def _no_parse(stream):
    raise AssertionError("parsed instead of reading the cache")


def test_a_cache_hit_equals_a_fresh_parse(crawl_file, dataset_cache, monkeypatch):
    fresh = _parse_file(crawl_file)
    _assert_same_load(load_edge_list(crawl_file), fresh)  # a miss
    (record,) = _records(dataset_cache)
    graph = fresh[0]
    assert record.stat().st_size == 8 * (2 * graph.n + 2 * graph.m + 8)  # a 7-word header and the three arrays
    monkeypatch.setattr(graph_module, "parse_edge_list", _no_parse)
    tracemalloc.start()
    try:
        hit = load_edge_list(str(crawl_file))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_same_load(hit, fresh)
    # a hit holds the graph's arrays and one small hashing buffer
    assert peak < 1.25 * _graph_bytes(hit[0]), f"peak {peak / _graph_bytes(hit[0]):.2f} x the graph"
    assert _records(dataset_cache) == [record]


def test_a_file_rewritten_at_the_same_size_and_mtime_is_parsed_again(tmp_path, dataset_cache):
    path = tmp_path / "edges.txt"
    path.write_text("1 2\n2 3\n", encoding="utf-8")
    before = path.stat()
    assert load_edge_list(path)[0].labels.tolist() == [1, 2, 3]
    path.write_text("1 2\n2 4\n", encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert path.stat().st_size == before.st_size and path.stat().st_mtime_ns == before.st_mtime_ns
    graph, report = load_edge_list(path)
    assert graph.labels.tolist() == [1, 2, 4]
    _assert_same_load((graph, report), _parse_file(path))
    assert len(_records(dataset_cache)) == 2


def _parts(words):
    """The header, ``indptr``, ``indices`` and ``labels`` of a record's
    words, as views."""
    n, m = words[1], words[2]
    return np.split(words, [7, 8 + n, 8 + n + 2 * m])


def _set(which, at, value):
    """A damage that sets word ``at`` of part ``which`` of the record."""

    def damage(record):
        words = np.fromfile(record, dtype=np.int64)
        _parts(words)[which][at] = value
        words.tofile(record)

    return damage


def _int32_labels(record):
    """Rewrite the record with its labels as int32: a size that is not a
    multiple of 8, as the fixture has an odd n."""
    *parts, labels = _parts(np.fromfile(record, dtype=np.int64))
    with open(record, "wb") as fh:
        for array in (*parts, labels.astype(np.int32)):
            array.tofile(fh)
    assert record.stat().st_size % 8


def _as_version_1(record):
    """Rewrite the record as version 1 stored it: its header, with version 1,
    and the three arrays as consecutive .npy arrays."""
    header, *arrays = _parts(np.fromfile(record, dtype=np.int64))
    header[0] = 1
    with open(record, "wb") as fh:
        for array in (header, *arrays):
            np.save(fh, array)


def _claim_huge_indices(record):
    """Set the header's m, and the report's kept edges with it, to 10^15:
    far more words than the file holds."""
    words = np.fromfile(record, dtype=np.int64)
    words[2:4] = 10**15
    words.tofile(record)


DAMAGES = {
    "truncated": lambda record: record.write_bytes(record.read_bytes()[:-9]),
    "garbage": lambda record: record.write_bytes(b"not a cached graph\n" * 50),
    "a zip archive": lambda record: record.write_bytes(b"PK\x03\x04" + bytes(100)),
    "empty": lambda record: record.write_bytes(b""),
    "trailing bytes": lambda record: record.write_bytes(record.read_bytes() + b"\0"),
    "trailing word": lambda record: record.write_bytes(record.read_bytes() + bytes(8)),
    "old version": _as_version_1,
    "version 1 header": _set(0, 0, 1),
    "byte-swapped": lambda record: np.fromfile(record, dtype=np.int64).byteswap().tofile(record),
    "index out of range": _set(2, 0, 10**6),
    "decreasing indptr": _set(1, 1, -1),
    "report off m": _set(0, 3, 0),
    "int32 labels": _int32_labels,
    "huge indices header": _claim_huge_indices,
    "huge node count": _set(0, 1, 10**15),
    "a directory": lambda record: (record.unlink(), record.mkdir()),
}


@pytest.mark.parametrize("damage", DAMAGES, ids=list(DAMAGES))
def test_a_damaged_cache_record_is_parsed_again_and_rewritten(tmp_path, dataset_cache, monkeypatch, damage):
    path = tmp_path / "edges.txt"
    path.write_text("# two components\n" + EXAMPLE_EDGES + "1 1\n2 1\n10 11\n", encoding="utf-8")
    fresh = _parse_file(path)
    load_edge_list(path)
    (record,) = _records(dataset_cache)
    DAMAGES[damage](record)
    parses = []
    monkeypatch.setattr(graph_module, "parse_edge_list", lambda stream: parses.append(1) or parse_edge_list(stream))
    _assert_same_load(load_edge_list(path), fresh)
    assert parses == [1]
    if damage != "a directory":  # os.replace cannot put a file over a directory
        monkeypatch.setattr(graph_module, "parse_edge_list", _no_parse)
        _assert_same_load(load_edge_list(path), fresh)
    assert _records(dataset_cache) == [record]


def test_a_record_cut_short_while_it_is_read_is_parsed_again(tmp_path, dataset_cache, monkeypatch):
    # np.fromfile reads what the file holds, so a record cut short after its
    # size was checked reads fewer words than the header claims.
    path = tmp_path / "edges.txt"
    path.write_text(EXAMPLE_EDGES, encoding="utf-8")
    fresh = _parse_file(path)
    load_edge_list(path)
    fromfile = np.fromfile
    monkeypatch.setattr(np, "fromfile", lambda *args, **kwargs: fromfile(*args, **kwargs)[:-1])
    parses = []
    monkeypatch.setattr(graph_module, "parse_edge_list", lambda stream: parses.append(1) or parse_edge_list(stream))
    _assert_same_load(load_edge_list(path), fresh)
    assert parses == [1]


@st.composite
def _small_edge_list(draw) -> str:
    """A small edge list over ids in a few disjoint groups (so often several
    components), with self-loops, duplicates in either orientation, and
    comment and blank lines; at least one edge is kept."""
    edges = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=40))
    assume(any(a != b for _, a, b in edges))
    lines = []
    for group, a, b in edges:
        lines.append(f"{100 * group + a} {100 * group + b}\n")
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["# a comment\n", "  # indented\n", "\n"])))
    return "".join(lines)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(text=_small_edge_list())
def test_a_parse_a_cache_miss_and_a_cache_hit_agree(text):
    fresh = parse_edge_list(io.StringIO(text))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "edges.txt"
        path.write_text(text, encoding="utf-8")
        cache = Path(tmp) / "cache"
        patch.setenv("XDG_CACHE_HOME", str(cache))
        _assert_same_load(load_edge_list(path), fresh)  # a miss
        (record,) = _records(cache / "walksample")
        graph = fresh[0]
        assert record.stat().st_size == 8 * (2 * graph.n + 2 * graph.m + 8)
        patch.setattr(graph_module, "parse_edge_list", _no_parse)
        _assert_same_load(load_edge_list(path), fresh)  # a hit


def test_an_unwritable_cache_directory_still_loads(tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_text(EXAMPLE_EDGES, encoding="utf-8")
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a regular file", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    for _ in range(2):
        _assert_same_load(load_edge_list(path), _parse_file(path))
    assert not_a_directory.read_text(encoding="utf-8") == "a regular file"


def test_a_load_hashes_the_file_only_where_a_record_can_be_read_or_written(tmp_path, dataset_cache, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_text(EXAMPLE_EDGES, encoding="utf-8")
    hashes = []
    new_digest = graph_module._new_digest
    monkeypatch.setattr(graph_module, "_new_digest", lambda: hashes.append(1) or new_digest())
    for edges, hashed in ((EXAMPLE_EDGES, 1), (EXAMPLE_EDGES, 1), (EXAMPLE_EDGES + "1 6\n", 2)):
        path.write_text(edges, encoding="utf-8")
        hashes.clear()
        _assert_same_load(load_edge_list(path), _parse_file(path))
        assert len(hashes) == hashed  # a first-ever load (no directory yet), a hit, a miss
    assert len(_records(dataset_cache)) == 2
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a regular file", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    hashes.clear()
    _assert_same_load(load_edge_list(path), _parse_file(path))
    assert hashes == []  # no record can be read or written: a plain parse


def test_cache_lives_under_home_without_an_absolute_xdg_cache_home(tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_text(EXAMPLE_EDGES, encoding="utf-8")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.chdir(tmp_path)
    for value in (None, "", "relative"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        load_edge_list(path)
        assert len(_records(tmp_path / "home" / ".cache" / "walksample")) == 1
    assert not (tmp_path / "relative").exists()
    # without a home directory, expanduser leaves "~" as it is: no cache
    monkeypatch.setattr(os.path, "expanduser", lambda p: p)
    _assert_same_load(load_edge_list(path), _parse_file(path))
    assert not (tmp_path / "~").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_is_parsed_without_the_cache(tmp_path, dataset_cache):
    fifo = tmp_path / "edges.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_text(EXAMPLE_EDGES, encoding="utf-8"))
    writer.start()
    try:
        got = load_edge_list(fifo)
    finally:
        writer.join()
    _assert_same_load(got, parse_edge_list(io.StringIO(EXAMPLE_EDGES)))
    assert _records(dataset_cache) == []


@pytest.mark.parametrize(
    "content, error",
    [
        (b"1 2\n2 x\n", "line 2: non-integer token in ['2', 'x']"),
        (b"# nothing\n3 3\n", "edge list contains no usable edges"),
        (b"1 2\n\xff 3\n", "bad.txt: not UTF-8 (byte 0xff: invalid start byte)"),
    ],
    ids=["malformed line", "no edges", "not UTF-8"],
)
def test_a_file_that_fails_to_parse_is_never_cached(tmp_path, dataset_cache, content, error):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    for _ in range(2):
        with pytest.raises((EdgeListParseError, EmptyGraphError)) as info:
            load_edge_list(path)
        assert str(info.value).endswith(error)
    assert _records(dataset_cache) == []
