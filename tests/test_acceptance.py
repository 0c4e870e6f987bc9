"""Acceptance gate: ten numbered end-to-end checks.

Each test prints one ``[ACCEPTANCE] criterion N: PASS/FAIL`` line (visible
with ``pytest -s`` or on failure). Checks 6 through 9 exercise user-supplied
reference datasets and skip, with a SKIP line, when the files are absent;
everything else runs self-contained.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import DATASET_FILES, data_dir, make_graph, random_connected_graph
from walksample import (
    Distribution,
    WalkConfig,
    characteristic_polynomial,
    dense_transition_matrix,
    derive_seed,
    expected_repeat_probability,
    graph_stats,
    ht_ratio_estimate,
    load_edge_list,
    run_walk,
    run_walks,
    spectrum,
    stationary_closed_form,
    stationary_numeric,
)
from walksample.cli import main
from walksample.harness import ExperimentConfig, cmd_sweep_budget, cmd_sweep_c

F = Fraction
HALF, THIRD, QUARTER, SIXTH = F(1, 2), F(1, 3), F(1, 4), F(1, 6)

# reference one-step transition matrices for the worked five-node graph
SRW_MATRIX = [
    [0, QUARTER, QUARTER, QUARTER, QUARTER],
    [HALF, 0, 0, HALF, 0],
    [THIRD, 0, 0, THIRD, THIRD],
    [THIRD, THIRD, THIRD, 0, 0],
    [HALF, 0, HALF, 0, 0],
]
GMD_MATRIX = [
    [0, QUARTER, QUARTER, QUARTER, QUARTER],
    [THIRD, THIRD, 0, THIRD, 0],
    [THIRD, 0, 0, THIRD, THIRD],
    [THIRD, THIRD, THIRD, 0, 0],
    [THIRD, 0, THIRD, 0, THIRD],
]
WJRW_MATRIX = [
    [0, QUARTER, QUARTER, QUARTER, QUARTER],
    [THIRD, SIXTH, 0, THIRD, SIXTH],
    [THIRD, 0, 0, THIRD, THIRD],
    [THIRD, THIRD, THIRD, 0, 0],
    [THIRD, SIXTH, THIRD, 0, SIXTH],
]

MU_EXPECTED = {
    "wjrw": (math.sqrt(5) - 1) / 6,
    "srw": (math.sqrt(7) - 1) / 6,
    "gmd": math.sqrt(2) / 3,
}

# expected whole-graph statistics per reference dataset:
# (nodes, undirected edges, max degree, tvd of the degree-proportional
# stationary law against uniform)
DATASET_STATS = {
    "wiki-crocodile": (11631, 170773, 3546, 0.473),
    "slashdot": (70999, 365572, 2510, 0.608),
    "dblp": (317080, 1049866, 343, 0.400),
    "youtube": (1134890, 2987624, 28754, 0.578),
}

BUDGET_GRID = (1000, 2000, 3000, 4000, 5000)


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def skip(num: int, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {num}: SKIP - {detail}")
    pytest.skip(detail)


def require_dataset(num: int, name: str = "wiki-crocodile") -> str:
    path = data_dir() / DATASET_FILES[name]
    if not path.exists():
        skip(num, f"{name} dataset absent; place it at {path} or set WALKSAMPLE_DATA_DIR")
    return str(path)


def l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def test_criterion_01_golden_transition_matrices(example_graph):
    t0 = time.perf_counter()
    worst = 0.0
    for kind, c, golden in (("srw", None, SRW_MATRIX), ("gmd", 3, GMD_MATRIX), ("wjrw", 3, WJRW_MATRIX)):
        matrix = dense_transition_matrix(example_graph, WalkConfig(kind=kind, c=c))
        expected = np.array([[float(x) for x in row] for row in golden])
        worst = max(worst, float(np.max(np.abs(matrix.entries - expected))))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-15 and elapsed < 1.0, f"max entry gap {worst:.3g} (tol 1e-15) in {elapsed:.3f}s (< 1s)")


def test_criterion_02_second_largest_eigenvalues(example_graph, path3_graph):
    mus = {}
    for kind, c in (("srw", None), ("gmd", 3), ("wjrw", 3)):
        rep = spectrum(dense_transition_matrix(example_graph, WalkConfig(kind=kind, c=c)))
        mus[kind] = rep.second_largest_signed
    worst = max(abs(mus[k] - MU_EXPECTED[k]) for k in MU_EXPECTED)
    ordered = mus["wjrw"] < mus["srw"] < mus["gmd"]

    # solver vs characteristic-polynomial oracle on every walk for n <= 4
    diamond = make_graph("1 2\n1 3\n2 3\n2 4\n3 4\n")
    cross_worst = 0.0
    for graph in (path3_graph, diamond):
        for kind, kw in (("srw", {}), ("rwe", {"alpha": 1.5}), ("md", {}), ("gmd", {"c": 3}), ("wjrw", {"c": 3})):
            matrix = dense_transition_matrix(graph, WalkConfig(kind=kind, **kw))
            rep = spectrum(matrix)  # n <= 4 also triggers the internal cross-check
            roots = np.sort_complex(np.roots([float(x) for x in characteristic_polynomial(matrix.entries)]))
            cross_worst = max(cross_worst, float(np.max(np.abs(roots - np.sort_complex(rep.eigenvalues)))))
    ok = worst <= 1e-9 and ordered and cross_worst <= 1e-8
    report(
        2,
        ok,
        f"mu wjrw={mus['wjrw']:.9f} srw={mus['srw']:.9f} gmd={mus['gmd']:.9f}, "
        f"max gap {worst:.2e} (tol 1e-9), strict ordering {ordered}, "
        f"polynomial-root cross-check gap {cross_worst:.2e} on n<=4 chains",
    )


def test_criterion_03_repeat_probability_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    graphs = 0
    comparisons = 0
    worst_slack = math.inf
    while graphs < 200:
        g = random_connected_graph(rng, int(rng.integers(5, 13)))
        thresholds = range(g.min_degree + 1, g.d_max)
        if not thresholds:
            continue
        graphs += 1
        cfg_md = WalkConfig(kind="md")
        e_md = expected_repeat_probability(
            g, cfg_md, Distribution.over_nodes(stationary_numeric(g, cfg_md))
        )
        for c in thresholds:
            cfg_gmd = WalkConfig(kind="gmd", c=c)
            cfg_wj = WalkConfig(kind="wjrw", c=c)
            e_gmd = expected_repeat_probability(
                g, cfg_gmd, Distribution.over_nodes(stationary_numeric(g, cfg_gmd))
            )
            e_wj = expected_repeat_probability(
                g, cfg_wj, Distribution.over_nodes(stationary_numeric(g, cfg_wj))
            )
            worst_slack = min(worst_slack, e_md - e_gmd, e_gmd - e_wj)
            comparisons += 1
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-12 and elapsed < 30.0
    report(
        3,
        ok,
        f"md >= gmd >= wjrw expected-repeat chain over {graphs} graphs "
        f"({comparisons} thresholds), worst slack {worst_slack:.2e} (>= -1e-12), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_04_stationary_closed_vs_numeric(example_graph, path3_graph):
    # stationary_numeric returns the closed form of a reversible law, so each
    # closed form is also checked as a left fixed point of the dense P.
    def fixed_point_l1(g, cfg, pi):
        return l1(pi @ dense_transition_matrix(g, cfg).entries, pi)

    rng = np.random.default_rng(77)
    worst = worst_residual = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, int(rng.integers(4, 30)))
        configs = [
            WalkConfig(kind="srw"),
            WalkConfig(kind="rwe", alpha=float(rng.uniform(0.5, 3.0))),
            WalkConfig(kind="md"),
            WalkConfig(kind="gmd", c=int(rng.integers(1, g.d_max + 1))),
        ]
        for cfg in configs:
            closed = stationary_closed_form(g, cfg)
            worst = max(worst, l1(closed, stationary_numeric(g, cfg)))
            worst_residual = max(worst_residual, fixed_point_l1(g, cfg, closed))

    wj_cfg = WalkConfig(kind="wjrw", c=3)
    example_closed = stationary_closed_form(example_graph, wj_cfg)
    example_gap = l1(example_closed, stationary_numeric(example_graph, wj_cfg))
    worst_residual = max(worst_residual, fixed_point_l1(example_graph, wj_cfg, example_closed))

    numeric_path = stationary_numeric(path3_graph, wj_cfg)
    closed_path = stationary_closed_form(path3_graph, wj_cfg)
    numeric_gap = float(np.max(np.abs(numeric_path - np.array([4, 5, 4]) / 13)))
    closed_gap = float(np.max(np.abs(closed_path - np.array([8, 11, 8]) / 27)))
    distance = l1(numeric_path, closed_path)
    counterexample_ok = numeric_gap <= 1e-10 and closed_gap <= 1e-10 and abs(distance - 16 / 351) <= 1e-10

    ok = worst <= 1e-10 and example_gap <= 1e-10 and worst_residual <= 1e-13 and counterexample_ok
    report(
        4,
        ok,
        f"closed vs numeric worst l1 gap {worst:.2e} over 400 reversible configs (tol 1e-10); "
        f"wjrw example gap {example_gap:.2e}; worst l1 of pi P - pi for those closed forms "
        f"{worst_residual:.2e} (tol 1e-13); path counterexample numeric (4,5,4)/13 and "
        f"closed (8,11,8)/27 reproduce (gaps {numeric_gap:.1e}/{closed_gap:.1e}), "
        f"l1 distance {distance:.6f} = 16/351",
    )


def test_criterion_05_estimator_consistency(example_graph):
    indicator = (example_graph.degrees == 2).astype(float)
    srw_pi = stationary_closed_form(example_graph, WalkConfig(kind="srw"))
    configs = [WalkConfig(kind="srw", budget=200_000, seed=derive_seed(5, rep)) for rep in range(20)]
    values = [ht_ratio_estimate(trace, srw_pi, indicator) for trace in run_walks(example_graph, configs)]
    mean = float(np.mean(values))

    const_worst = 0.0
    scale_worst = 0.0
    for kind, kw in (("srw", {}), ("rwe", {"alpha": 2.8}), ("md", {}), ("gmd", {"c": 3}), ("wjrw", {"c": 3})):
        cfg = WalkConfig(kind=kind, budget=4000, seed=11, **kw)
        trace = run_walk(example_graph, cfg)
        weights = stationary_closed_form(example_graph, cfg)
        const_worst = max(const_worst, abs(ht_ratio_estimate(trace, weights, np.full(5, 2.5)) / 2.5 - 1.0))
        a = ht_ratio_estimate(trace, weights, indicator)
        b = ht_ratio_estimate(trace, weights * 59.0, indicator)
        scale_worst = max(scale_worst, abs(a - b) / abs(a))
    ok = abs(mean - 0.40) <= 0.02 and const_worst <= 1e-12 and scale_worst <= 1e-12
    report(
        5,
        ok,
        f"degree-2 fraction mean {mean:.4f} over 20 seeds at budget 2e5 (target 0.40 +/- 0.02); "
        f"constant-function worst relative error {const_worst:.1e}, "
        f"scale-invariance worst relative error {scale_worst:.1e} (tol 1e-12, all five walks)",
    )


def test_criterion_06_dataset_statistics():
    present = [(name, data_dir() / DATASET_FILES[name]) for name in DATASET_STATS]
    present = [(name, path) for name, path in present if path.exists()]
    if not present:
        skip(6, "reference datasets absent; set WALKSAMPLE_DATA_DIR (see README)")
    ok = True
    parts = []
    for name, path in present:
        graph, _ = load_edge_list(str(path))
        stats = graph_stats(graph)
        n_exp, m_exp, dmax_exp, tvd_exp = DATASET_STATS[name]
        good = (
            stats.n == n_exp
            and stats.m == m_exp
            and stats.d_max == dmax_exp
            and abs(stats.tvd_srw_vs_uniform - tvd_exp) <= 0.01
        )
        ok = ok and good
        parts.append(
            f"{name}: n={stats.n} m={stats.m} d_max={stats.d_max} "
            f"tvd={stats.tvd_srw_vs_uniform:.3f} ({'ok' if good else 'MISMATCH'})"
        )
    report(6, ok, "; ".join(parts) + f" [{len(present)}/4 files present]")


def test_criterion_07_accuracy_ordering_and_budget_trend():
    path = require_dataset(7)
    config = ExperimentConfig(
        dataset_path=path,
        samplers=("srw", "gmd", "wjrw"),
        budgets=BUDGET_GRID,
        repetitions=100,
        base_seed=7,
        output_format="json",
    )
    payload = json.loads(cmd_sweep_budget(config))
    stats = {
        (row["sampler"], row["budget"]): (row["kl"], row["kl_std"] / math.sqrt(100))
        for row in payload["rows"]
        if row["repetition"] == "mean"
    }
    final = {kind: stats[(kind, 5000)][0] for kind in ("srw", "gmd", "wjrw")}
    order_ok = final["wjrw"] < final["gmd"] and final["wjrw"] < final["srw"]
    trend_ok = True
    slack_note = []
    for kind in ("srw", "gmd", "wjrw"):
        series = [stats[(kind, b)] for b in BUDGET_GRID]
        for (m0, s0), (m1, s1) in zip(series, series[1:]):
            if m1 > m0 + math.hypot(s0, s1):
                trend_ok = False
                slack_note.append(f"{kind} rose {m0:.4f}->{m1:.4f}")
    ok = order_ok and trend_ok
    report(
        7,
        ok,
        f"mean KL at budget 5000: wjrw={final['wjrw']:.4f} gmd={final['gmd']:.4f} srw={final['srw']:.4f} "
        f"(wjrw smallest: {order_ok}); per-sampler KL non-increasing within one pooled standard error: "
        f"{trend_ok}{'; ' + ', '.join(slack_note) if slack_note else ''}",
    )


def test_criterion_08_unique_node_ordering():
    path = require_dataset(8)
    config = ExperimentConfig(
        dataset_path=path,
        samplers=("srw", "rwe", "gmd", "wjrw"),
        budgets=(10000,),
        repetitions=100,
        base_seed=8,
        output_format="json",
    )
    payload = json.loads(cmd_sweep_budget(config))
    unique = {row["sampler"]: row["unique_nodes"] for row in payload["rows"] if row["repetition"] == "mean"}
    ok = unique["wjrw"] > unique["gmd"] > unique["rwe"] > unique["srw"]
    report(
        8,
        ok,
        "mean unique nodes at budget 10000: "
        + ", ".join(f"{kind}={unique[kind]:.1f}" for kind in ("wjrw", "gmd", "rwe", "srw"))
        + " (required strict ordering wjrw > gmd > rwe > srw)",
    )


def test_criterion_09_threshold_sweep_and_full_padding_identity(example_graph):
    rng = np.random.default_rng(99)
    graphs = [example_graph] + [random_connected_graph(rng, int(rng.integers(4, 20))) for _ in range(10)]
    identity_worst = 0.0
    for g in graphs:
        md = dense_transition_matrix(g, WalkConfig(kind="md")).entries
        gmd = dense_transition_matrix(g, WalkConfig(kind="gmd", c=g.d_max)).entries
        identity_worst = max(identity_worst, float(np.max(np.abs(md - gmd))))
    identity_ok = identity_worst == 0.0

    path = data_dir() / DATASET_FILES["wiki-crocodile"]
    if not path.exists():
        report(
            9,
            identity_ok,
            f"full-threshold rows identical to max-degree rows on 11 graphs (max gap {identity_worst:.1g}); "
            "threshold KL sweep skipped: wiki-crocodile dataset absent",
        )
        pytest.skip("wiki-crocodile dataset absent (KL half of criterion 9)")

    config = ExperimentConfig(
        dataset_path=str(path),
        samplers=("wjrw",),
        budgets=(5000,),
        repetitions=100,
        base_seed=9,
        c_fractions=(0.1, 0.5),
        output_format="json",
    )
    payload = json.loads(cmd_sweep_c(config))
    c_low, c_high = payload["meta"]["c_values"]
    kl = {row["C"]: row["kl"] for row in payload["rows"] if row["repetition"] == "mean"}
    sweep_ok = kl[c_high] <= kl[c_low]
    report(
        9,
        identity_ok and sweep_ok,
        f"wjrw mean KL at threshold fraction 0.5 (C={c_high}) {kl[c_high]:.4f} <= "
        f"fraction 0.1 (C={c_low}) {kl[c_low]:.4f}: {sweep_ok}; "
        f"full-threshold rows identical to max-degree rows (max gap {identity_worst:.1g})",
    )


def test_criterion_10_determinism(example_file, tmp_path):
    base = dict(
        dataset_path=str(example_file),
        samplers=("srw", "wjrw"),
        budgets=(60, 120),
        repetitions=5,
        c_values=(3,),
        base_seed=10,
    )
    rerun_ok = cmd_sweep_budget(ExperimentConfig(**base)) == cmd_sweep_budget(ExperimentConfig(**base))
    parallel_ok = cmd_sweep_budget(ExperimentConfig(parallel=1, **base)) == cmd_sweep_budget(
        ExperimentConfig(parallel=2, **base)
    )

    commands = {
        "stats": ["stats"],
        "run": ["run", "--sampler", "md", "--budget", "40", "--reps", "4", "--seed", "3"],
        "sweep-budget": ["sweep-budget", "--sampler", "srw", "--sampler", "gmd", "--budget", "30",
                         "--budget", "60", "--c", "2", "--reps", "3", "--format", "json"],
        "sweep-c": ["sweep-c", "--budget", "40", "--c-frac", "0.5", "--c-frac", "1.0", "--reps", "3"],
        "analyze": ["analyze", "--sampler", "wjrw", "--c", "3"],
    }
    stable = []
    for name, argv in commands.items():
        outputs = []
        for attempt in range(2):
            target = tmp_path / f"{name}.{attempt}"
            rc = main(argv + ["--dataset", str(example_file), "--out", str(target)])
            assert rc == 0, f"{name} exited {rc}"
            outputs.append(target.read_bytes())
        stable.append(outputs[0] == outputs[1])
    bytes_ok = all(stable)
    ok = rerun_ok and parallel_ok and bytes_ok
    report(
        10,
        ok,
        f"library rerun identical: {rerun_ok}; parallel(2) == sequential: {parallel_ok}; "
        f"byte-identical CLI reruns across all five commands: {bytes_ok}",
    )
