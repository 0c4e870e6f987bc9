from __future__ import annotations

import io

import numpy as np
import pytest

from conftest import EXAMPLE_EDGES, make_graph, random_connected_graph
from walksample import (
    EdgeListParseError,
    EmptyGraphError,
    average_degree,
    build_graph,
    graph_stats,
    largest_connected_component,
    parse_edge_list,
    write_edge_list,
)


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
    assert graph.label_to_internal == {7: 0, 3: 1, 9: 2}


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


def test_lcc_matches_hand_bfs():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        n = int(rng.integers(6, 30))
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < 0.08
        if not mask.any():
            continue
        g = build_graph(iu[mask], iv[mask], n)
        expected = max((len(c) for c in _bfs_components(g)))
        assert largest_connected_component(g).n == expected


def test_average_degree(example_graph):
    assert average_degree(example_graph) == pytest.approx(2.8)


def test_graph_stats_example(example_graph):
    st = graph_stats(example_graph)
    assert (st.n, st.m, st.d_max) == (5, 7, 4)
    assert st.tvd_srw_vs_uniform == pytest.approx(4 / 35, abs=1e-12)


def test_degrees_match_edge_count():
    g = make_graph(EXAMPLE_EDGES)
    assert int(g.degrees.sum()) == 2 * g.m
