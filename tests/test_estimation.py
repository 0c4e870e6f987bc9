from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_connected_graph
from walksample import (
    WalkConfig,
    ZeroInclusionProbability,
    degree_distribution_estimate,
    derive_seed,
    ht_ratio_estimate,
    kl_divergence,
    run_walk,
    run_walks,
    stationary_closed_form,
    stationary_numeric,
    true_degree_distribution,
)
from walksample.estimation import degree_estimate_from_pi, unique_count
from walksample.graph import build_graph

# ------------------------------------------------- distribution checks


def test_distribution_validation():
    # kl_divergence checks both mass arrays it is given
    ok = np.array([0.25, 0.75])
    assert kl_divergence(ok, ok) == pytest.approx(0.0, abs=1e-12)
    for bad, match in [
        ([-0.1, 1.1], "negative"),
        ([0.5, 0.6], "sums"),
        ([np.nan, 1.0], "sums"),
        ([[1.0]], "1-d"),
    ]:
        with pytest.raises(ValueError, match=match):
            kl_divergence(bad, ok)
        with pytest.raises(ValueError, match=match):
            kl_divergence(ok, bad)
    with pytest.raises(ValueError, match="categories"):
        kl_divergence(ok, [0.25, 0.25, 0.5])


def test_normalised_refuses_a_total_that_is_not_positive_and_finite(example_graph):
    est = degree_distribution_estimate(np.array([0, 1, 1]), np.array([1.0, 2.0, 1.0, 1.0, 1.0]), example_graph)
    assert np.allclose(est, [0.5, 0.0, 0.5])  # degree classes [2, 3, 4]
    nodes = np.array([1, 3])
    for pivals in ([np.inf, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="total"):
            degree_estimate_from_pi(nodes, np.array(pivals), example_graph)
    with pytest.raises(ValueError, match="total"):
        true_degree_distribution(build_graph(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 0))


# ------------------------------------------------------------- metrics


def test_kl_examples():
    p = np.array([0.5, 0.5])
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)
    q = np.array([0.25, 0.75])
    assert kl_divergence(p, q) == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)


def test_kl_smoothing_keeps_missing_categories_finite():
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])  # no mass at the second category
    value = kl_divergence(p, q)
    assert math.isfinite(value)
    expected = 0.5 * math.log(0.5 / 1.0) + 0.5 * math.log(0.5 / 1e-12)
    assert value == pytest.approx(expected, rel=1e-3)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        p, q = (w / w.sum() for w in (rng.random(k) + 1e-9, rng.random(k) + 1e-9))
        assert kl_divergence(p, q) >= -1e-12
    assert kl_divergence(p, p) <= 1e-9


def test_kl_ignores_zero_true_mass_categories():
    p = np.array([0.5, 0.5, 0.0])
    q = np.array([0.25, 0.25, 0.5])
    direct = 0.5 * math.log(0.5 / 0.25) * 2
    assert kl_divergence(p, q) == pytest.approx(direct, rel=1e-9)


# ------------------------------------------------------ ratio estimator


def test_constant_function_identity(example_graph):
    pi = stationary_closed_form(example_graph, WalkConfig(kind="srw"))
    trace = run_walk(example_graph, WalkConfig(kind="srw", budget=500, seed=4))
    est = ht_ratio_estimate(trace, pi, np.full(5, 3.7))
    assert est == pytest.approx(3.7, rel=1e-12)


def test_single_node_trace_returns_f_value(example_graph):
    f = example_graph.degrees.astype(float)
    assert ht_ratio_estimate(np.array([3]), np.full(5, 0.2), f) == f[3]


def test_scale_invariance(example_graph):
    f = (example_graph.degrees == 2).astype(float)
    pi = stationary_closed_form(example_graph, WalkConfig(kind="gmd", c=3))
    trace = run_walk(example_graph, WalkConfig(kind="gmd", c=3, budget=2000, seed=12))
    a = ht_ratio_estimate(trace, pi, f)
    b = ht_ratio_estimate(trace, pi * 123.456, f)
    assert b == pytest.approx(a, rel=1e-12)


def test_callable_weight_or_function_refused(example_graph):
    # pi and f are n-long arrays; a callable is not evaluated node by node
    trace = run_walk(example_graph, WalkConfig(kind="srw", budget=100, seed=5))
    deg = example_graph.degrees.astype(float)
    with pytest.raises(TypeError):
        ht_ratio_estimate(trace, lambda v: deg[v], deg == 2)
    with pytest.raises(TypeError):
        ht_ratio_estimate(trace, deg, lambda v: float(deg[v] == 2))


def test_zero_inclusion_probability_rejected(example_graph):
    pi = np.array([0.5, 0.5, 0.0, 0.0, 0.0])
    with pytest.raises(ZeroInclusionProbability, match="node 2"):
        ht_ratio_estimate(np.array([0, 2]), pi, np.ones(5))


def test_empty_trace_rejected():
    with pytest.raises(ValueError, match="empty"):
        ht_ratio_estimate(np.array([], dtype=np.int64), np.ones(3), np.ones(3))


def test_exactness_at_stationarity_weights():
    rng = np.random.default_rng(424242)
    g = random_connected_graph(rng, 50, lo=0.08, hi=0.15)
    pi = stationary_numeric(g, WalkConfig(kind="srw"))
    f = (g.degrees <= 3).astype(float)
    theta = float(f.mean())
    counts = np.round(1e6 * pi).astype(np.int64)
    trace = np.repeat(np.arange(g.n), counts)
    assert ht_ratio_estimate(trace, pi, f) == pytest.approx(theta, abs=1e-3)


def test_error_shrinks_with_budget_for_every_sampler():
    """Mean absolute estimation error is non-increasing across budgets
    1e3 -> 1e4 -> 1e5 (20 seeds each, true stationary weights)."""
    rng = np.random.default_rng(424242)
    g = random_connected_graph(rng, 50, lo=0.08, hi=0.15)
    f = (g.degrees <= 3).astype(float)
    theta = float(f.mean())
    half = max(1, g.d_max // 2)
    cases = [
        ("srw", {}),
        ("rwe", {"alpha": 2.0}),
        ("md", {}),
        ("gmd", {"c": half}),
        ("wjrw", {"c": half}),
    ]
    pis = [stationary_numeric(g, WalkConfig(kind=kind, **kw)) for kind, kw in cases]
    errs = [[] for _ in cases]
    for budget in (10**3, 10**4, 10**5):
        # every kind's 20 repetitions at this budget as one lockstep batch
        configs = [
            WalkConfig(kind=kind, budget=budget, seed=derive_seed(2026, rep), **kw)
            for kind, kw in cases
            for rep in range(20)
        ]
        traces = run_walks(g, configs)
        for i, pi in enumerate(pis):
            vals = [abs(ht_ratio_estimate(trace, pi, f) - theta) for trace in traces[20 * i : 20 * i + 20]]
            errs[i].append(float(np.mean(vals)))
    for (kind, _), e in zip(cases, errs):
        assert e[0] >= e[1] >= e[2], (kind, e)


# ------------------------------------------------- degree distributions


def test_degree_distribution_estimate_single_cover(example_graph):
    # one visit to every node with degree-proportional weights: degree-2
    # mass 14/2 per node, degree-3 mass 14/3, degree-4 mass 14/4
    pi = stationary_closed_form(example_graph, WalkConfig(kind="srw"))
    est = degree_distribution_estimate(np.arange(5), pi, example_graph)
    assert example_graph.degree_classes[0].tolist() == [2, 3, 4]
    assert est.dtype == np.float64 and est.shape == (3,)
    assert np.max(np.abs(est - np.array([12, 8, 3]) / 23)) <= 1e-12


def test_true_degree_distribution(example_graph):
    d = true_degree_distribution(example_graph)
    assert example_graph.degree_classes[0].tolist() == [2, 3, 4]
    assert d.dtype == np.float64
    assert np.allclose(d, [0.4, 0.4, 0.2])


def test_unvisited_degree_gets_zero_mass(example_graph):
    # trace avoids node 0, the only degree-4 node
    est = degree_distribution_estimate(np.array([1, 2, 3]), np.full(5, 0.2), example_graph)
    assert example_graph.degree_classes[0].tolist() == [2, 3, 4]
    assert est.shape == (3,)
    assert est[2] == 0.0
    assert est.sum() == pytest.approx(1.0, abs=1e-12)


def test_degree_estimate_sums_to_one_on_random_walks():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 20)
    cfg = WalkConfig(kind="wjrw", c=max(1, g.d_max // 2), budget=500, seed=1)
    pi = stationary_closed_form(g, cfg)
    est = degree_distribution_estimate(run_walk(g, cfg), pi, g)
    assert est.shape == g.degree_classes[0].shape
    assert est.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(est >= 0)


def test_unique_count(example_graph):
    assert unique_count(np.array([1, 1, 2])) == 2
    assert unique_count(np.array([4])) == 1
    assert unique_count(np.arange(5)) == 5
    trace = run_walk(example_graph, WalkConfig(kind="srw", budget=50, seed=2))
    assert unique_count(trace) <= 50


# ------------------------------------------------------ input checking


@pytest.mark.parametrize(
    "nodes",
    [[-1], [5], np.array([1.9]), np.array([True, False]), np.array([2**63], dtype=np.uint64)],
    ids=["negative", "past-n", "float", "bool", "uint64-past-int64"],
)
def test_estimators_refuse_node_ids_that_are_not_nodes(example_graph, nodes):
    # n = 5: take() wrapped -1 to node 4, astype truncated 1.9 to node 1
    pi, f = np.full(5, 0.2), example_graph.degrees.astype(float)
    with pytest.raises(ValueError, match="node ids"):
        ht_ratio_estimate(nodes, pi, f)
    with pytest.raises(ValueError, match="node ids"):
        degree_distribution_estimate(nodes, pi, example_graph)


def test_estimators_refuse_node_arrays_of_another_length(example_graph):
    nodes, f = np.arange(5), example_graph.degrees.astype(float)
    for pi in (np.ones(10), np.ones(4), np.ones((5, 1)), np.ones(())):
        with pytest.raises(ValueError, match="^pi "):
            degree_distribution_estimate(nodes, pi, example_graph)
    # ht_ratio_estimate's n is len(pi): node 4 is not among 4 nodes
    with pytest.raises(ValueError, match="node ids"):
        ht_ratio_estimate(nodes, np.ones(4), np.ones(4))
    with pytest.raises(ValueError, match="^pi "):
        ht_ratio_estimate(nodes, np.ones((5, 1)), f)
    with pytest.raises(ValueError, match="^f "):
        ht_ratio_estimate(nodes, np.ones(5), f[:4])
    # the empty trace is reported first, whatever the arrays
    with pytest.raises(ValueError, match="empty"):
        ht_ratio_estimate([], np.ones((2, 2)), np.ones(7))
    with pytest.raises(ValueError, match="empty"):
        degree_distribution_estimate(np.array([], dtype=np.int32), np.ones(9), example_graph)
    # ids of any integer dtype, lists included, are read as they are
    assert ht_ratio_estimate([0, 3], np.full(5, 0.2), f) == 3.5
    assert ht_ratio_estimate(np.array([0, 3], dtype=np.uint8), np.full(5, 0.2), f) == 3.5
