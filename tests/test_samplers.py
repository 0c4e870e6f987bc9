from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, random_connected_graph
from walksample import (
    ConvergenceError,
    SamplerError,
    WalkConfig,
    dense_transition_matrix,
    derive_seed,
    run_walk,
    run_walks,
    samplers,
    stationary_closed_form,
    stationary_numeric,
)
from walksample.graph import build_graph
from walksample.samplers import SamplerKind, WalkLaw, _transition_rows, make_rng

ALL_KINDS = [
    ("srw", {}),
    ("rwe", {"alpha": 2.0}),
    ("md", {}),
    ("gmd", {"c": 3}),
    ("wjrw", {"c": 3}),
]


def config(kind: str, **kw) -> WalkConfig:
    return WalkConfig(kind=kind, **kw)


def one_row(graph, cfg: WalkConfig, v: int) -> np.ndarray:
    """Row v of the walk's transition matrix, built on its own."""
    return _transition_rows(graph, cfg, v, v + 1)[0]


# ---------------------------------------------------------------- config


def test_config_coerces_kind_string():
    assert config("srw").kind is SamplerKind.SRW
    with pytest.raises(SamplerError, match="unknown sampler 'zigzag'"):
        config("zigzag")


def test_config_requires_alpha_only_for_escaping_walk():
    with pytest.raises(SamplerError):
        config("rwe")
    with pytest.raises(SamplerError):
        config("rwe", alpha=-0.5)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SamplerError, match="finite"):
            config("rwe", alpha=bad)
    with pytest.raises(SamplerError):
        config("srw", alpha=1.0)
    for bad in ("a", "1.0", 1j, [1.0]):  # not numpy's or the comparison's TypeError
        with pytest.raises(SamplerError, match="alpha must be a real number"):
            config("rwe", alpha=bad)
    assert config("rwe", alpha=0.0).alpha == 0.0
    assert config("rwe", alpha=np.float32(0.5)).alpha == 0.5 and config("rwe", alpha=2).alpha == 2.0
    # an alpha of 2^63 or more, the largest finite double among them, would
    # overflow a padded size or a stationary total
    for bad in (2.0**63, np.finfo(np.float64).max):
        with pytest.raises(SamplerError, match=r"alpha must be < 2\^63"):
            config("rwe", alpha=bad)
    assert config("rwe", alpha=np.nextafter(2.0**63, 0)).alpha < 2**63


def test_config_requires_threshold_only_for_padded_walks():
    for kind in ("gmd", "wjrw"):
        with pytest.raises(SamplerError):
            config(kind)
        with pytest.raises(SamplerError):
            config(kind, c=0)
        with pytest.raises(SamplerError, match="c must be an integer"):
            config(kind, c=2.5)
        assert config(kind, c=np.int64(3)).c == 3
        for bad in (2**63, 2**64):  # before the walk, not numpy's OverflowError in it
            with pytest.raises(SamplerError, match=r"c must be < 2\^63"):
                config(kind, c=bad)
        assert config(kind, c=2**63 - 1).c == 2**63 - 1
    with pytest.raises(SamplerError):
        config("md", c=3)
    with pytest.raises(SamplerError):
        config("srw", c=3)


def test_config_rejects_bad_budget_burn_in_and_start():
    with pytest.raises(SamplerError):
        config("srw", budget=0)
    with pytest.raises(SamplerError):
        config("srw", burn_in=-1)
    with pytest.raises(SamplerError):
        config("srw", start_policy="nope")
    with pytest.raises(SamplerError):
        config("srw", start_policy="fixed")  # start_node missing
    with pytest.raises(SamplerError):
        config("srw", start_node=2)  # start_node without fixed policy
    bads = (dict(budget=2.5), dict(burn_in=1.5), dict(seed=1.5), dict(seed=None), dict(budget=None))
    for bad in (*bads, dict(start_policy="fixed", start_node=1.5)):
        with pytest.raises(SamplerError, match="must be an integer"):
            config("srw", **bad)
    ok = config("srw", budget=np.int32(2), burn_in=np.int64(1), start_policy="fixed", start_node=np.int64(1))
    assert (ok.budget, ok.burn_in, ok.start_node) == (2, 1, 1)
    # a path's bytes, 4 a node, fit int64
    for bad in (dict(budget=2**60), dict(budget=2**59, burn_in=2**59), dict(budget=2**63), dict(burn_in=2**63)):
        with pytest.raises(SamplerError, match=r"^burn-in \+ budget must be < 2\^60$"):
            config("srw", **bad)
    assert config("srw", budget=2**59, burn_in=2**59 - 1).budget == 2**59


def test_a_walk_of_2_62_nodes_raises_sampler_error_before_numpy_sizes_its_path(example_graph):
    for walk in (run_walk, lambda graph, cfg: run_walks(graph, [cfg])):
        with pytest.raises(SamplerError, match=r"burn-in \+ budget must be < 2\^60"):
            walk(example_graph, WalkConfig("srw", budget=2**62))


def test_law_cap_is_d_max_for_md_else_c(example_graph):
    caps = [WalkLaw(example_graph, cfg).cap for cfg in (config("md"), config("gmd", c=3), config("srw"))]
    assert caps == [4.0, 3.0, 0.0]
    assert all(type(cap) is float for cap in caps)


# ------------------------------------------------------------- jump set


def test_jump_set_example(example_graph):
    # wjrw at c escapes to U = {v : d_v < c}, each padded by c - d_v.
    law = WalkLaw(example_graph, config("wjrw", c=3))
    assert law.targets.tolist() == [1, 4]  # the two degree-2 nodes
    assert law.pad[law.targets].sum() == 2
    # The law escapes to the padded nodes: U for wjrw, every node for rwe.
    assert np.array_equal(WalkLaw(example_graph, config("rwe", alpha=0.5)).targets, np.arange(example_graph.n))


def test_jump_set_empty_when_threshold_below_degrees(example_graph):
    # No node pads, so the law escapes nowhere: it is the simple walk's.
    law = WalkLaw(example_graph, config("wjrw", c=1))
    assert law.targets is None and law.pad.sum() == 0


def test_jump_set_at_a_huge_c_is_every_node():
    # c = 2^62 pads in float64 (WalkConfig refuses a c of 2^63 or more), so
    # every padded size, and their sum, is finite.
    graph = make_graph("1 2\n1 3\n1 4\n2 3\n")  # degrees 3, 2, 2, 1
    law = WalkLaw(graph, config("wjrw", c=2**62))
    assert law.targets.tolist() == [0, 1, 2, 3]
    assert np.isfinite(law.big).all()
    assert law.pad[law.targets].sum() == 2.0**64  # the exact 2^64 - 8, rounded


# ------------------------------------------------------- transition rows


def test_rows_are_distributions_for_every_kind():
    rng = np.random.default_rng(5)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(4, 12)))
        cases = [
            config("srw"),
            config("rwe", alpha=float(rng.uniform(0.1, 4))),
            config("md"),
            config("gmd", c=int(rng.integers(1, g.d_max + 2))),
            config("wjrw", c=int(rng.integers(1, g.d_max + 2))),
        ]
        for cfg in cases:
            for v in range(g.n):
                row = one_row(g, cfg, v)
                assert np.all(row >= 0)
                assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_golden_rows_on_reference_graph(example_graph):
    F = Fraction
    want_srw = [
        [0, F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
        [F(1, 2), 0, 0, F(1, 2), 0],
        [F(1, 3), 0, 0, F(1, 3), F(1, 3)],
        [F(1, 3), F(1, 3), F(1, 3), 0, 0],
        [F(1, 2), 0, F(1, 2), 0, 0],
    ]
    want_wjrw = [
        [0, F(1, 4), F(1, 4), F(1, 4), F(1, 4)],
        [F(1, 3), F(1, 6), 0, F(1, 3), F(1, 6)],
        [F(1, 3), 0, 0, F(1, 3), F(1, 3)],
        [F(1, 3), F(1, 3), F(1, 3), 0, 0],
        [F(1, 3), F(1, 6), F(1, 3), 0, F(1, 6)],
    ]
    for cfg, want in [(config("srw"), want_srw), (config("wjrw", c=3), want_wjrw)]:
        for v in range(5):
            got = one_row(example_graph, cfg, v)
            assert np.max(np.abs(got - np.array([float(x) for x in want[v]]))) <= 1e-15


def test_escaping_walk_row_values(example_graph):
    # node 0 has degree 4; with alpha=2 the jump share is 2/(6*5) per node
    row = one_row(example_graph, config("rwe", alpha=2.0), 0)
    expect = np.full(5, 2 / 30)
    expect[[1, 2, 3, 4]] += 1 / 6
    assert np.max(np.abs(row - expect)) <= 1e-15


def test_md_rows_equal_gmd_rows_at_max_degree(example_graph):
    g = example_graph
    for v in range(g.n):
        md = one_row(g, config("md"), v)
        gmd = one_row(g, config("gmd", c=g.d_max), v)
        assert np.array_equal(md, gmd)


def test_wjrw_without_padding_equals_srw(example_graph):
    g = example_graph
    for v in range(g.n):
        assert np.array_equal(
            one_row(g, config("wjrw", c=1), v),
            one_row(g, config("srw"), v),
        )


def test_isolated_node_has_no_transition():
    g = build_graph(np.array([0]), np.array([1]), 3)  # node 2 isolated
    with pytest.raises(SamplerError, match="no outgoing transition from isolated node 2"):
        one_row(g, config("srw"), 2)
    with pytest.raises(SamplerError, match="no outgoing transition from isolated node 2"):
        run_walk(g, config("srw", budget=2, start_policy="fixed", start_node=2))
    # the diagonal raises where the rows raise, rather than dividing 0 by 0
    for cfg in (config("srw"), config("rwe", alpha=0.0)):
        with pytest.raises(SamplerError, match="no outgoing transition from isolated node 2"):
            WalkLaw(g, cfg).escape_share()


# ---------------------------------------------------------------- walks


def test_fixed_start_walk_steps_along_rows_in_both_engines(example_graph):
    for kind, kw in ALL_KINDS:
        cfg = config(kind, budget=6, seed=77, start_policy="fixed", start_node=2, **kw)
        trace = run_walk(example_graph, cfg)
        assert trace.start == trace.nodes[0] == 2
        assert np.array_equal(run_walks(example_graph, [cfg])[0].nodes, trace.nodes)
        entries = dense_transition_matrix(example_graph, cfg).entries
        assert (entries[trace.nodes[:-1], trace.nodes[1:]] > 0).all(), kind


def test_empirical_step_frequencies_match_rows(example_graph):
    # A walk's exits from a node are independent draws from that node's row,
    # so the first 6000 exits from each node, over one lockstep batch of long
    # walks that start at every node, sample each row as 6000 one-step walks
    # from it would.
    g = example_graph
    reps = 6000
    for kind, kw in ALL_KINDS:
        walks = [
            config(kind, budget=1500, seed=derive_seed(11, i), start_policy="fixed", start_node=i % g.n, **kw)
            for i in range(50)
        ]
        paths = [trace.nodes for trace in run_walks(g, walks)]
        tails, heads = np.concatenate([p[:-1] for p in paths]), np.concatenate([p[1:] for p in paths])
        want = dense_transition_matrix(g, config(kind, **kw)).entries
        for v in range(g.n):
            exits = heads[tails == v][:reps]
            assert len(exits) == reps, (kind, v)
            assert np.max(np.abs(np.bincount(exits, minlength=g.n) / reps - want[v])) < 0.025, kind


def test_walk_is_deterministic(example_graph):
    cfg = config("wjrw", c=3, budget=400, seed=123)
    a = run_walk(example_graph, cfg)
    b = run_walk(example_graph, cfg)
    assert np.array_equal(a.nodes, b.nodes)
    assert a.start == b.start


def test_different_seeds_give_different_walks(example_graph):
    a = run_walk(example_graph, config("srw", budget=400, seed=derive_seed(0, 0)))
    b = run_walk(example_graph, config("srw", budget=400, seed=derive_seed(0, 1)))
    assert not np.array_equal(a.nodes, b.nodes)


def test_burn_in_drops_a_prefix(example_graph):
    # Both engines: the trace is the tail of the burn-in-0 walk of
    # burn_in + budget nodes, from the same start.
    configs = [config(kind, budget=40, seed=9, burn_in=20, **kw) for kind, kw in ALL_KINDS]
    lockstep = run_walks(example_graph, configs)
    for (kind, kw), cfg, batched in zip(ALL_KINDS, configs, lockstep):
        full = run_walk(example_graph, config(kind, budget=60, seed=9, **kw))
        for burned in (run_walk(example_graph, cfg), batched):
            assert np.array_equal(burned.nodes, full.nodes[20:])
            assert burned.start == full.start


def test_budget_one(example_graph):
    tr = run_walk(example_graph, config("srw", budget=1, seed=3))
    assert tr.nodes.tolist() == [tr.start]
    tr2 = run_walk(example_graph, config("srw", budget=1, seed=3, burn_in=5))
    assert len(tr2) == 1


def test_fixed_start_policy(example_graph):
    tr = run_walk(example_graph, config("srw", budget=3, seed=1, start_policy="fixed", start_node=4))
    assert tr.start == 4 and tr.nodes[0] == 4
    with pytest.raises(SamplerError):
        run_walk(example_graph, config("srw", budget=3, start_policy="fixed", start_node=99))


def test_start_policy_distributions(example_graph):
    g = example_graph
    reps = 4000
    uni = np.zeros(g.n)
    deg = np.zeros(g.n)
    for r in range(reps):
        uni[run_walk(g, config("srw", budget=1, seed=derive_seed(1, r))).start] += 1
        deg[run_walk(g, config("srw", budget=1, seed=derive_seed(2, r), start_policy="degree")).start] += 1
    assert np.max(np.abs(uni / reps - 1 / g.n)) < 0.03
    assert np.max(np.abs(deg / reps - g.degrees / (2 * g.m))) < 0.03


def test_escaping_walk_with_zero_alpha_tracks_simple_walk(example_graph):
    a = run_walk(example_graph, config("srw", budget=300, seed=42))
    b = run_walk(example_graph, config("rwe", alpha=0.0, budget=300, seed=42))
    assert np.array_equal(a.nodes, b.nodes)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data(), graph_seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), chunk=st.integers(1, 40))
def test_lockstep_walks_equal_scalar_walks_at_any_chunk(data, graph_seed, n, chunk):
    g = random_connected_graph(np.random.default_rng(graph_seed), n)
    law = st.sampled_from(
        [dict(kind="srw"), dict(kind="md")]
        + [dict(kind="rwe", alpha=a) for a in (0.0, 0.5, 3.0)]
        + [dict(kind=kind, c=c) for kind in ("gmd", "wjrw") for c in range(1, g.d_max + 2)]
    )
    start = st.sampled_from([dict(start_policy="uniform"), dict(start_policy="degree")]) | st.builds(
        dict, start_policy=st.just("fixed"), start_node=st.integers(0, n - 1)
    )
    walk = st.builds(
        lambda law, start, **kw: WalkConfig(**law, **start, **kw),
        law,
        start,
        budget=st.integers(1, 50),
        burn_in=st.integers(0, 20),
        seed=st.integers(0, 2**64 - 1),
    )
    configs = data.draw(st.lists(walk, min_size=1, max_size=8))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(samplers, "_LOCKSTEP_CHUNK", chunk)
        got = run_walks(g, configs)
    for cfg, trace in zip(configs, got):
        want = run_walk(g, cfg)
        assert trace.start == want.start
        assert np.array_equal(trace.nodes, want.nodes), cfg


def test_a_draw_below_one_picks_below_every_size():
    # run_walks takes int(r * size) without the scalar stepper's clamp to
    # size - 1: for the largest draw r = 1 - 2^-53 and any integer size below
    # 2^53, the rounded product stays below size.
    r = np.nextafter(1.0, 0.0)
    powers = np.array([1 << k for k in range(17, 54)], dtype=np.int64)
    sizes = np.concatenate([np.arange(1, (1 << 16) + 1), powers - 1, powers[:-1], powers[:-1] + 1])
    assert sizes.max() == (1 << 53) - 1
    products = r * sizes.astype(np.float64)
    assert (products < sizes).all()
    assert (products.astype(np.int64) < sizes).all()


# ----------------------------------------------------------- stationary


def test_closed_form_values_on_reference_graph(example_graph):
    g = example_graph
    assert np.allclose(stationary_closed_form(g, config("srw")), np.array([4, 2, 3, 3, 2]) / 14, atol=1e-15)
    assert np.allclose(stationary_closed_form(g, config("rwe", alpha=2.0)), np.array([6, 4, 5, 5, 4]) / 24, atol=1e-15)
    assert np.allclose(stationary_closed_form(g, config("md")), np.full(5, 0.2), atol=1e-15)
    assert np.allclose(stationary_closed_form(g, config("gmd", c=3)), np.array([4, 3, 3, 3, 3]) / 16, atol=1e-15)
    assert np.allclose(stationary_closed_form(g, config("wjrw", c=3)), np.array([4, 3, 3, 3, 3]) / 16, atol=1e-15)


def test_closed_form_at_degree_classes_has_the_bits_of_the_vector():
    # A node's closed-form mass depends on its degree alone: given the degree
    # classes, the masses per class equal the vector's at every node, bit for
    # bit, for reversible laws and for wjrw with unequal padding alike.
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, 40, 0.05, 0.3)
    support, category = g.degree_classes
    least, most = g.min_degree, g.d_max
    laws = [config("srw"), config("rwe", alpha=0.7), config("md")]
    laws += [config(kind, c=c) for kind in ("gmd", "wjrw") for c in (least, least + 2, most + 3, 2**53 + 1)]
    for cfg in laws:
        assert stationary_closed_form(g, cfg, support)[category].tobytes() == stationary_closed_form(g, cfg).tobytes(), cfg


def _fixed_point_l1(g, cfg, pi) -> float:
    """||pi P - pi||_1 against the dense transition matrix, which does not
    go through ``stationary_numeric``."""
    return float(np.abs(pi @ dense_transition_matrix(g, cfg).entries - pi).sum())


def test_numeric_matches_closed_form_for_reversible_kinds():
    # stationary_numeric returns the closed form of a reversible law, so the
    # gap alone is 0 by construction; the fixed-point check ties it to P.
    rng = np.random.default_rng(31)
    for _ in range(30):
        g = random_connected_graph(rng, int(rng.integers(4, 25)))
        cases = [
            config("srw"),
            config("rwe", alpha=float(rng.uniform(0.1, 3))),
            config("md"),
            config("gmd", c=int(rng.integers(1, g.d_max + 2))),
        ]
        for cfg in cases:
            closed = stationary_closed_form(g, cfg)
            gap = float(np.abs(closed - stationary_numeric(g, cfg)).sum())
            assert gap <= 1e-10, (cfg.kind, gap)
            residual = _fixed_point_l1(g, cfg, closed)
            assert residual <= 1e-13, (cfg.kind, residual)


def test_numeric_matches_dense_left_eigenvector():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 9)
    cfg = config("wjrw", c=int(max(2, g.d_max - 1)))
    pi = stationary_numeric(g, cfg)
    dense = np.array([one_row(g, cfg, v) for v in range(g.n)])
    assert np.max(np.abs(pi @ dense - pi)) <= 1e-12


def test_padded_jump_closed_form_exact_when_jump_set_has_one_degree():
    # choosing c just above the minimum degree makes every jump-set member
    # share that degree, where the closed form provably matches
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 15:
        g = random_connected_graph(rng, int(rng.integers(5, 16)))
        degs = np.unique(g.degrees)
        if len(degs) < 2:
            continue
        c = int(degs[1])
        cfg = config("wjrw", c=c)
        closed = stationary_closed_form(g, cfg)
        gap = float(np.abs(closed - stationary_numeric(g, cfg)).sum())
        assert gap <= 1e-10, gap
        # numeric returns this closed form itself, so check it against P too
        dense = np.array([one_row(g, cfg, v) for v in range(g.n)])
        assert np.max(np.abs(closed @ dense - closed)) <= 1e-15
        checked += 1


def test_padded_jump_closed_form_breaks_on_mixed_degree_path(path3_graph):
    cfg = config("wjrw", c=3)
    closed = stationary_closed_form(path3_graph, cfg)
    numeric = stationary_numeric(path3_graph, cfg)
    assert np.max(np.abs(closed - np.array([8, 11, 8]) / 27)) <= 1e-12
    assert np.max(np.abs(numeric - np.array([4, 5, 4]) / 13)) <= 1e-10
    assert float(np.abs(closed - numeric).sum()) == pytest.approx(16 / 351, abs=1e-12)


def test_numeric_requires_connectivity():
    g = make_graph("1 2\n3 4\n")
    with pytest.raises(SamplerError, match="connected"):
        stationary_numeric(g, config("srw"))
    # a positive uniform-jump weight makes the chain irreducible anyway
    cfg = config("rwe", alpha=1.5)
    closed = stationary_closed_form(g, cfg)
    gap = float(np.abs(closed - stationary_numeric(g, cfg)).sum())
    assert gap <= 1e-10
    assert _fixed_point_l1(g, cfg, closed) <= 1e-13
    with pytest.raises(SamplerError, match="empty graph"):
        stationary_numeric(build_graph([], [], 0), config("srw"))
    with pytest.raises(SamplerError, match="graph has no edges"):
        stationary_closed_form(build_graph([], [], 3), config("srw"))


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.skipif(_CPUS < 2, reason="needs two usable CPUs for two BLAS threads")
def test_numeric_bits_do_not_depend_on_blas_threads():
    # A CG solve over more than 10,000 nodes: OpenBLAS splits a ddot of that
    # length across its threads, so the solve must take no BLAS reduction.
    probe = (
        "import sys\n"
        "from conftest import preferential_graph\n"
        "from walksample import WalkConfig, stationary_numeric\n"
        "from walksample.samplers import WalkLaw\n"
        "g = preferential_graph(12000, 3, 1)\n"
        "cfg = WalkConfig('wjrw', c=8)\n"
        "assert g.n > 10_000 and not WalkLaw(g, cfg).reversible\n"
        "sys.stdout.write(stationary_numeric(g, cfg).tobytes().hex())\n"
    )
    paths = [Path(samplers.__file__).resolve().parent.parent, Path(__file__).resolve().parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", probe], env=dict(env, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0]) == 2 * 8 * 12000
    assert outputs[0] == outputs[1]


def test_numeric_converges_on_bipartite_graphs():
    g = make_graph("1 2\n2 3\n3 4\n4 1\n")  # 4-cycle, period 2 without smoothing
    gap = float(np.abs(stationary_closed_form(g, config("srw")) - stationary_numeric(g, config("srw"))).sum())
    assert gap <= 1e-10


def test_numeric_raises_when_iteration_budget_exhausted(example_graph):
    # c=4 pads degrees 2 and 3 unequally: the law is not reversible
    with pytest.raises(ConvergenceError, match="after 1 iterations"):
        stationary_numeric(example_graph, config("wjrw", c=4), max_iters=1)
    # srw's stationary is its closed form, with no solve to run out of iterations
    for max_iters in (1, 3):
        assert np.array_equal(
            stationary_numeric(example_graph, config("srw"), max_iters=max_iters),
            stationary_closed_form(example_graph, config("srw")),
        )


def test_numeric_rwe_is_its_closed_form_without_a_solve(example_graph):
    # (diag(d + p) - A) 1/p = 1_targets when every target pads by p: the
    # balance system of every reversible law needs no iteration. On the
    # example graph wjrw at c=3 pads only its two degree-2 nodes.
    cases = [config("rwe", alpha=alpha) for alpha in (0.5, 2.8, 7.0)]
    cases += [config("srw"), config("md"), config("gmd", c=3), config("wjrw", c=3)]
    for cfg in cases:
        assert WalkLaw(example_graph, cfg).reversible, cfg
        assert np.array_equal(
            stationary_numeric(example_graph, cfg, max_iters=1),
            stationary_closed_form(example_graph, cfg),
        )


def test_numeric_solves_exactly_the_laws_that_are_not_reversible(monkeypatch):
    # Random connected graphs: a law is reversible unless it is wjrw with
    # several degrees in U. A reversible law returns its closed form bit for
    # bit with no solve; every other law runs one CG solve.
    solves = []
    solve = samplers._solve_balance
    monkeypatch.setattr(samplers, "_solve_balance", lambda *a: solves.append(1) or solve(*a))
    rng = np.random.default_rng(61)
    seen = {True: 0, False: 0}
    for _ in range(40):
        g = random_connected_graph(rng, int(rng.integers(4, 18)), lo=0.15)
        degs = np.unique(g.degrees)
        cases = [config("srw"), config("md"), config("rwe", alpha=float(rng.uniform(0, 3)))]
        cases.append(config("gmd", c=int(rng.integers(1, g.d_max + 2))))
        cases += [config("wjrw", c=int(c)) for c in (degs[min(1, len(degs) - 1)], rng.integers(1, g.d_max + 2))]
        for cfg in cases:
            reversible = cfg.kind is not SamplerKind.WJRW or len(np.unique(g.degrees[g.degrees < cfg.c])) <= 1
            assert WalkLaw(g, cfg).reversible == reversible, cfg
            seen[reversible] += 1
            del solves[:]
            if reversible:
                closed = stationary_closed_form(g, cfg)
                assert np.array_equal(stationary_numeric(g, cfg, max_iters=1), closed), cfg
                assert not solves
            else:
                stationary_numeric(g, cfg)
                assert solves == [1], cfg
    assert min(seen.values()) >= 10, seen


def barbell_graph(clique: int = 40, path: int = 60):
    """Two cliques joined end to end by a path of ``path`` nodes."""
    edges = [(a, b) for a in range(clique) for b in range(a + 1, clique)]
    edges += [(clique + a, clique + b) for a, b in edges]
    chain = [clique - 1, *range(2 * clique, 2 * clique + path), clique]
    edges += list(zip(chain, chain[1:]))
    u, v = np.array(edges).T
    return build_graph(u, v, 2 * clique + path)


BARBELL_KINDS = [("srw", {}), ("rwe", {"alpha": 1.5}), ("md", {}), ("gmd", {"c": 20}), ("wjrw", {"c": 40})]


def criterion_04_cases():
    """The random graphs of acceptance criterion 04, each with all five kinds."""
    rng, extra = np.random.default_rng(77), np.random.default_rng(78)
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(4, 30)))
        alpha, c = float(rng.uniform(0.5, 3.0)), int(rng.integers(1, g.d_max + 1))
        kinds = [("srw", {}), ("rwe", {"alpha": alpha}), ("md", {}), ("gmd", {"c": c})]
        yield g, kinds + [("wjrw", {"c": int(extra.integers(1, g.d_max + 2))})]


def test_numeric_is_a_fixed_point_of_the_dense_matrix():
    # tol bounds the solve's relative residual, not this L1 residual, which
    # reaches ~3e-13 for rwe and wjrw here at the default 1e-12: each tol is
    # checked as the bound on its own L1 residual.
    cases = [(barbell_graph(), BARBELL_KINDS), *criterion_04_cases()]
    for g, kinds in cases:
        for kind, kw in kinds:
            cfg = config(kind, **kw)
            entries = dense_transition_matrix(g, cfg).entries
            for tol in (1e-12, 1e-13):
                pi = stationary_numeric(g, cfg, tol=tol)
                residual = float(np.abs(pi @ entries - pi).sum())
                assert residual <= tol, (g.n, kind, kw, tol, residual)


def test_numeric_error_on_barbell_is_bounded():
    g = barbell_graph()
    srw = stationary_numeric(g, config("srw"))
    assert float(np.abs(srw - g.degrees / (2 * g.m)).sum()) <= 1e-12
    adjacency = np.zeros((g.n, g.n))
    adjacency[np.repeat(np.arange(g.n), g.degrees), g.indices] = 1.0
    for cfg, big, targets in (
        (config("rwe", alpha=1.5), g.degrees + 1.5, np.ones(g.n, dtype=bool)),
        (config("wjrw", c=40), np.maximum(g.degrees, 40.0), g.degrees < 40),
    ):
        x = np.linalg.solve(np.diag(big) - adjacency, targets.astype(float))
        reference = big * x / (big * x).sum()
        error = float(np.abs(stationary_numeric(g, cfg) - reference).sum())
        assert error <= 1e-12, (cfg.kind, error)


def test_numeric_on_graph_with_isolated_nodes_matches_dense_solve():
    # Isolated nodes (first, in the middle, last) leave empty adjacency rows;
    # walks that escape to every node still have a unique stationary.
    base = random_connected_graph(np.random.default_rng(5), 30)
    tails = np.repeat(np.arange(base.n), base.degrees)
    keep = tails < base.indices
    u, v = tails[keep], base.indices[keep]
    u, v = u + 1 + (u >= 15), v + 1 + (v >= 15)
    g = build_graph(u, v, base.n + 3)
    assert g.degrees[[0, 16, g.n - 1]].tolist() == [0, 0, 0]
    adjacency = np.zeros((g.n, g.n))
    adjacency[u, v] = adjacency[v, u] = 1.0
    for cfg in (config("rwe", alpha=0.75), config("wjrw", c=g.d_max + 1)):
        big = g.degrees + (0.75 if cfg.kind is SamplerKind.RWE else np.maximum(cfg.c - g.degrees, 0))
        x = np.linalg.solve(np.diag(big) - adjacency, np.ones(g.n))
        reference = big * x / (big * x).sum()
        error = float(np.abs(stationary_numeric(g, cfg) - reference).sum())
        assert error <= 1e-12, (cfg.kind, error)


# ----------------------------------------------------------------- seeds


def test_derived_seeds_are_frozen_and_distinct():
    # frozen values guard against accidental changes to the derivation
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(0, 1) == 7960286522194355700
    assert derive_seed(42, 0) == 13679457532755275413
    seeds = {derive_seed(0, r) for r in range(2000)}
    assert len(seeds) == 2000
    assert all(0 <= s < 2**64 for s in seeds)


def test_make_rng_reproducible():
    assert np.array_equal(make_rng(9).random(4), make_rng(9).random(4))
