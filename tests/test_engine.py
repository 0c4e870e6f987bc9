"""The lockstep engine ``run_walks`` against the scalar reference ``run_walk``.

Both walk every config from its own Philox stream under the same law, so
trace i of a batch must equal the scalar walk of config i node for node,
whatever else shares the batch.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import preferential_graph
from walksample import SamplerError, WalkConfig, WalkTooLongError, derive_seed, run_walk, run_walks, samplers
from walksample.graph import build_graph

CHUNK = 1 << 15  # steps per chunk of run_walk's variates


@pytest.fixture(scope="module")
def heavy_graph():
    return preferential_graph(1500, 4, seed=7)


def _seed(i: int) -> int:
    return derive_seed(2022, i)


# One batch mixing every kind, budget edge, burn-in and start policy.
MIXED = [
    dict(kind="srw", budget=1),
    dict(kind="srw", budget=1, burn_in=9),
    dict(kind="srw", budget=2, start_policy="fixed", start_node=3),
    dict(kind="rwe", alpha=2.5, budget=2, start_policy="degree"),
    dict(kind="rwe", alpha=2.5, budget=900, burn_in=37, start_policy="degree"),
    dict(kind="md", budget=CHUNK + 700),
    dict(kind="md", budget=300, start_policy="fixed", start_node=1499),
    dict(kind="gmd", c=12, budget=500, burn_in=CHUNK - 3),
    dict(kind="gmd", c=30, budget=400),
    dict(kind="wjrw", c=12, budget=4000),
    dict(kind="wjrw", c=12, budget=700, burn_in=CHUNK + 11, start_policy="degree"),
    dict(kind="wjrw", c=1, budget=1200),  # empty jump set: the simple walk
    dict(kind="wjrw", c=12, budget=1000, start_policy="fixed", start_node=0),
    # Laws that pad no node: alpha 0 of either sign, c below the least degree (4).
    dict(kind="rwe", alpha=0.0, budget=300),
    dict(kind="rwe", alpha=-0.0, budget=300, start_policy="degree"),
    dict(kind="gmd", c=3, budget=300),
    dict(kind="wjrw", c=200, budget=800),  # c > d_max (118): U is every node, padded unequally
    # A cap that float64 cannot hold: both engines pad with its nearest double.
    dict(kind="gmd", c=2**53 + 1, budget=300),
    dict(kind="wjrw", c=2**53 + 1, budget=300, start_policy="degree"),
]


def _assert_same(graph, configs):
    got = run_walks(graph, configs)
    assert len(got) == len(configs)
    for cfg, trace in zip(configs, got):
        want = run_walk(graph, cfg)
        assert trace.dtype == want.dtype == np.int32
        assert np.array_equal(trace, want), cfg
    # A walk's start is the first node of its walk with no burn-in, of
    # burn_in + budget nodes, whose tail after the burn-in is the trace.
    burned = [(cfg, trace) for cfg, trace in zip(configs, got) if cfg.burn_in]
    fulls = [replace(cfg, burn_in=0, budget=cfg.burn_in + cfg.budget) for cfg, _ in burned]
    for (cfg, trace), full, path in zip(burned, fulls, run_walks(graph, fulls)):
        assert path[0] == run_walk(graph, full)[0], cfg
        assert np.array_equal(path[cfg.burn_in :], trace), cfg


def test_mixed_batch_equals_scalar_walks(heavy_graph):
    _assert_same(heavy_graph, [WalkConfig(seed=_seed(i), **fields) for i, fields in enumerate(MIXED)])


def test_repetitions_of_every_kind_equal_scalar_walks(heavy_graph):
    kinds = [("srw", {}), ("rwe", {"alpha": 5.8}), ("md", {}), ("gmd", {"c": 20}), ("wjrw", {"c": 20})]
    configs = [
        WalkConfig(kind=kind, budget=budget, seed=_seed(rep), burn_in=burn_in, **kw)
        for kind, kw in kinds
        for budget, burn_in in ((50, 0), (400, 3))
        for rep in range(6)
    ]
    _assert_same(heavy_graph, configs)


def test_batch_of_one_and_empty_batch(heavy_graph):
    for fields in MIXED[:6]:
        _assert_same(heavy_graph, [WalkConfig(seed=5, **fields)])
    assert run_walks(heavy_graph, []) == []


def test_a_path_too_long_to_allocate_fails_before_a_shorter_one_is_allocated(heavy_graph, monkeypatch):
    # The batch allocates its paths longest first, whatever the config order.
    sizes, empty_path = [], samplers._empty_path

    def recorded(config):
        sizes.append(config.burn_in + config.budget)
        return empty_path(config)

    monkeypatch.setattr(samplers, "_empty_path", recorded)
    configs = [WalkConfig(kind="srw", budget=b) for b in (1 << 20, (1 << 60) - 1, 10)]
    with pytest.raises(WalkTooLongError, match=f"burn-in \\+ budget = {(1 << 60) - 1} nodes"):
        run_walks(heavy_graph, configs)
    assert sizes == [(1 << 60) - 1]


def test_batch_memory_is_set_by_its_pool_and_traces_not_its_laws():
    # 40 laws, two walkers each. The batch holds its escape pool (arange(n)
    # and each wjrw law's jump set, built from a list of the parts), its
    # traces at 4 bytes a step and chunk buffers (a few times the traces),
    # and a few n-long arrays at a time; an n-long table per law would be 40.
    g = preferential_graph(2000, 4, seed=3)
    cs = range(5, 105, 5)
    configs = [WalkConfig(kind=kind, c=c, budget=50, seed=_seed(rep)) for kind in ("gmd", "wjrw") for c in cs for rep in range(2)]
    pool = 8 * (g.n + sum(len(samplers.WalkLaw(g, WalkConfig("wjrw", c=c)).targets) for c in cs))
    traces = 4 * sum(cfg.budget for cfg in configs)
    tracemalloc.start()
    try:
        run_walks(g, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * pool + 6 * traces + 8 * (8 * g.n)


def test_batch_memory_is_its_traces_at_4_bytes_a_step_not_its_arcs():
    # A dense graph (n = 800, ~320k arcs), where a copy of graph.indices at 8
    # bytes an arc (2.6 MB) would outweigh everything else the batch holds:
    # its paths at 4 bytes a step, chunk buffers of 2^15 walker-steps (two
    # copies of the draws at 16 bytes a step, the visits at 8) and a few
    # n-long arrays (the escape pool, the float degrees, one law's tables).
    n = 800
    iu, iv = np.triu_indices(n, k=1)
    mask = np.random.default_rng(5).random(len(iu)) < 0.5
    g = build_graph(iu[mask], iv[mask], n)
    kinds = [("srw", {}), ("rwe", {"alpha": 3.0}), ("md", {}), ("gmd", {"c": 420}), ("wjrw", {"c": 420})]
    configs = [WalkConfig(kind=k, budget=2000, burn_in=3 * r, seed=_seed(r), **kw) for k, kw in kinds for r in range(4)]
    steps = sum(cfg.burn_in + cfg.budget for cfg in configs)
    tracemalloc.start()
    try:
        run_walks(g, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * steps + 32 * CHUNK + 16 * 8 * n < 8 * len(g.indices)


@st.composite
def _small_graphs_and_walks(draw):
    """A graph of 1-8 nodes, isolated ones allowed (the edgeless graph too),
    and 1-6 walks of every kind on it: rwe with alpha 0 of either sign, c
    below the least degree and above the largest."""
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = np.array(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [], dtype=np.int64).reshape(-1, 2)
    graph = build_graph(edges[:, 0], edges[:, 1], n)
    least, most = int(graph.degrees.min()), int(graph.d_max)
    laws = st.one_of(
        st.just({"kind": "srw"}),
        st.just({"kind": "md"}),
        st.builds(lambda a: {"kind": "rwe", "alpha": a}, st.sampled_from([0.0, -0.0, 0.5, 1.0, 7.25])),
        st.builds(
            lambda k, c: {"kind": k, "c": c},
            st.sampled_from(["gmd", "wjrw"]),
            st.sampled_from(sorted({max(1, c) for c in (least - 1, least, least + 1, most, most + 1, most + 5)})),
        ),
    )
    starts = st.one_of(
        st.just({"start_policy": "uniform"}),
        st.just({"start_policy": "degree"}),
        st.builds(lambda v: {"start_policy": "fixed", "start_node": v}, st.integers(0, n - 1)),
    )
    walk = st.builds(
        lambda law, start, budget, burn_in, seed: WalkConfig(budget=budget, burn_in=burn_in, seed=seed, **law, **start),
        laws,
        starts,
        st.integers(1, 30),
        st.integers(0, 10),
        st.integers(0, 2**64 - 1),
    )
    return graph, draw(st.lists(walk, min_size=1, max_size=6))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=_small_graphs_and_walks())
def test_random_small_graphs_walk_alike_in_both_engines(case):
    # A walk the scalar engine cannot take (stuck on an isolated node, or a
    # degree-proportional start without an edge) raises in the batch too.
    graph, configs = case
    walkable = []
    for cfg in configs:
        try:
            run_walk(graph, cfg)
        except SamplerError:
            with pytest.raises(SamplerError):
                run_walks(graph, [cfg])
        else:
            walkable.append(cfg)
    _assert_same(graph, walkable)


def test_isolated_nodes():
    # path 0-1-2 plus isolated nodes 3 and 4
    g = build_graph(np.array([0, 1]), np.array([1, 2]), 5)
    escaping = [
        WalkConfig(kind="gmd", c=3, budget=60, seed=1, start_policy="fixed", start_node=3),
        WalkConfig(kind="wjrw", c=3, budget=60, seed=2, start_policy="fixed", start_node=4),
        WalkConfig(kind="rwe", alpha=1.0, budget=60, seed=3),
    ]
    _assert_same(g, escaping)
    stuck = WalkConfig(kind="srw", budget=5, seed=4, start_policy="fixed", start_node=4)
    for walk in (lambda: run_walk(g, stuck), lambda: run_walks(g, escaping + [stuck])):
        with pytest.raises(SamplerError, match="isolated node 4"):
            walk()


def test_bad_start_and_empty_graph_raise(heavy_graph):
    bad = WalkConfig(kind="srw", budget=3, start_policy="fixed", start_node=heavy_graph.n)
    with pytest.raises(SamplerError, match="out of range"):
        run_walk(heavy_graph, bad)
    with pytest.raises(SamplerError, match="out of range"):
        run_walks(heavy_graph, [WalkConfig(kind="srw", budget=3), bad])
    empty = build_graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0)
    with pytest.raises(SamplerError, match="empty graph"):
        run_walk(empty, WalkConfig(kind="srw", budget=3))
    with pytest.raises(SamplerError, match="empty graph"):
        run_walks(empty, [WalkConfig(kind="srw", budget=3)])
