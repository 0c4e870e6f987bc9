"""The lockstep engine ``run_walks`` against the scalar reference ``run_walk``.

Both walk every config from its own Philox stream under the same law, so
trace i of a batch must equal the scalar walk of config i node for node,
whatever else shares the batch.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import preferential_graph
from walksample import SamplerError, WalkConfig, build_graph, derive_seed, jump_set, run_walk, run_walks

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
    # A cap that float64 cannot hold: the padding must be taken on int64 degrees.
    dict(kind="gmd", c=2**53 + 1, budget=300),
    dict(kind="wjrw", c=2**53 + 1, budget=300, start_policy="degree"),
]


def _assert_same(graph, configs):
    got = run_walks(graph, configs)
    assert len(got) == len(configs)
    for cfg, trace in zip(configs, got):
        want = run_walk(graph, cfg)
        assert trace.config == cfg
        assert trace.start == want.start, cfg
        assert trace.nodes.dtype == want.nodes.dtype
        assert np.array_equal(trace.nodes, want.nodes), cfg


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


def test_batch_memory_is_set_by_its_pool_and_traces_not_its_laws():
    # 40 laws, two walkers each. The batch holds its pick pool (arange(n),
    # the neighbor array and each wjrw law's jump set, built from a list of
    # the parts), its traces and chunk buffers (a few times the traces), and
    # a few n-long arrays at a time; an n-long table per law would be 40.
    g = preferential_graph(2000, 4, seed=3)
    cs = range(5, 105, 5)
    configs = [WalkConfig(kind=kind, c=c, budget=50, seed=_seed(rep)) for kind in ("gmd", "wjrw") for c in cs for rep in range(2)]
    pool = 8 * (g.n + len(g.indices) + sum(jump_set(g, c).size for c in cs))
    traces = 8 * sum(cfg.budget for cfg in configs)
    tracemalloc.start()
    try:
        run_walks(g, configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * pool + 6 * traces + 8 * (8 * g.n)


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
