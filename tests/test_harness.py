from __future__ import annotations

import concurrent.futures
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import walksample.graph as graph_module
from conftest import EXAMPLE_EDGES, preferential_graph
from walksample import ConvergenceError, WalkConfig, average_degree, cli, derive_seed, harness
from walksample.cli import build_parser, main, parse_config_file, resolve_config
from walksample.harness import (
    CSV_HEADER,
    OUTPUT_FORMATS,
    SAMPLER_ORDER,
    SWEEP_C_SAMPLERS,
    WEIGHT_MODES,
    ExperimentConfig,
    ReportRow,
    UsageError,
    _fmt,
    _even_slices,
    _thresholds,
    _walk_groups,
    aggregate_rows,
    cmd_analyze,
    cmd_run,
    cmd_stats,
    cmd_sweep_budget,
    cmd_sweep_c,
    render_json,
)
from walksample.samplers import KINDS_READING, SamplerError

MU_WJRW = (math.sqrt(5) - 1) / 6


def example_config(path, **kw) -> ExperimentConfig:
    return ExperimentConfig(dataset_path=str(path), **kw)


def data_lines(text: str) -> list[str]:
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return lines[1:]


def cells(line: str) -> list[str]:
    return line.split(",")


# -------------------------------------------------------- config object


def test_experiment_config_validation(tmp_path):
    p = str(tmp_path / "x.txt")
    with pytest.raises(UsageError, match="sampler"):
        ExperimentConfig(p, samplers=("zigzag",))
    with pytest.raises(UsageError, match="reps"):
        ExperimentConfig(p, repetitions=0)
    with pytest.raises(UsageError, match="budget"):
        ExperimentConfig(p, budgets=(0,))
    with pytest.raises(UsageError, match="c must"):
        ExperimentConfig(p, c_values=(0,))
    for bad in (1.5, "a", None):  # a non-number fails as an out-of-range one, not with TypeError
        with pytest.raises(UsageError, match=r"c-frac must lie in \(0, 1\]"):
            ExperimentConfig(p, c_fractions=(bad,))
    with pytest.raises(UsageError, match="format"):
        ExperimentConfig(p, output_format="yaml")
    with pytest.raises(UsageError, match="weights"):
        ExperimentConfig(p, weight_mode="guess")
    with pytest.raises(UsageError, match="burn-in"):
        ExperimentConfig(p, burn_in=-1)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(UsageError, match="alpha must be finite and >= 0"):
            ExperimentConfig(p, alpha=bad)
    with pytest.raises(UsageError, match="alpha must be a real number"):
        ExperimentConfig(p, alpha="a")
    for bad in (2.0**63, 1.7976931348623157e308):
        with pytest.raises(UsageError, match=r"alpha must be < 2\^63"):
            ExperimentConfig(p, alpha=bad)
    for bad in (2**31, 2**63):
        with pytest.raises(UsageError, match=r"reps must be < 2\^31"):
            ExperimentConfig(p, repetitions=bad)
    assert ExperimentConfig(p, repetitions=2**31 - 1, alpha=2.0**62).repetitions == 2**31 - 1
    for bad in (-1, 2**64, 10**23):
        with pytest.raises(UsageError, match=r"seed must lie in \[0, 2\^64\)"):
            ExperimentConfig(p, base_seed=bad)
    assert ExperimentConfig(p, base_seed=2**64 - 1).base_seed == 2**64 - 1


WALK_EDGE_VALUES = (0, -1, 1, 2.5, -0.0, 2**53 + 1, 2**60 - 1, 2**60, 2**62, 2**63, math.nan, math.inf, 1e308)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    budget=st.sampled_from(WALK_EDGE_VALUES),
    burn_in=st.sampled_from(WALK_EDGE_VALUES),
    c=st.sampled_from(WALK_EDGE_VALUES),
    alpha=st.sampled_from(WALK_EDGE_VALUES),
)
def test_experiment_config_rejects_the_walk_values_walk_config_rejects(budget, burn_in, c, alpha):
    # the config's walk values, checked in this order, each by the walk of it
    walks = (dict(kind="srw", budget=budget, burn_in=burn_in), dict(kind="gmd", c=c), dict(kind="rwe", alpha=alpha))
    rejected = None
    for walk in walks:
        try:
            WalkConfig(**walk)
        except SamplerError as exc:
            rejected = str(exc)
            break
    build = lambda: ExperimentConfig("x.txt", budgets=(budget,), burn_in=burn_in, c_values=(c,), alpha=alpha)
    if rejected is None:
        assert build().alpha == float(alpha)
    else:
        with pytest.raises(UsageError) as info:
            build()
        assert str(info.value) == rejected


@pytest.mark.parametrize(
    "bad, message",
    [
        (dict(budgets=(2.5,)), "budget must be an integer"),
        (dict(c_values=(2.5,)), "c must be an integer"),
        (dict(burn_in=1.5), "burn_in must be an integer"),
        (dict(base_seed=2.5), "seed must be an integer"),
        (dict(base_seed=None), "seed must be an integer"),
        (dict(repetitions=2.5), "reps must be an integer"),
        (dict(parallel=1.5), "parallel must be an integer"),
    ],
    ids=["budget", "c", "burn-in", "seed", "no-seed", "reps", "parallel"],
)
def test_a_non_integer_walk_value_is_a_usage_error_before_the_dataset_loads(example_file, monkeypatch, bad, message):
    loads = []
    monkeypatch.setattr(harness, "load_edge_list", loads.append)
    with pytest.raises(UsageError, match=f"^{message}$"):
        cmd_run(example_config(example_file, **{"samplers": ("gmd",), "budgets": (3,), **bad}))
    assert loads == []


def test_experiment_config_keeps_each_list_value_once_in_the_order_given(tmp_path):
    cfg = ExperimentConfig(
        str(tmp_path / "x.txt"),
        samplers=("wjrw", "srw", "wjrw"),
        budgets=(30, 10, 30, 10),
        c_values=(3, 1, 3),
        c_fractions=(0.5, 0.25, 0.5),
    )
    assert cfg.samplers == ("wjrw", "srw")
    assert cfg.budgets == (30, 10)
    assert cfg.c_values == (3, 1)
    assert cfg.c_fractions == (0.5, 0.25)


def test_fmt_cells():
    assert _fmt(None) == ""
    assert _fmt(5) == "5"
    assert _fmt("wjrw") == "wjrw"
    assert _fmt(1 / 3) == "0.333333333333"
    assert _fmt(2e-13) == "2e-13"


def test_csv_header_schema():
    assert CSV_HEADER == "dataset,sampler,C,alpha,budget,repetition,seed,kl,log10_kl,unique_nodes,wall_millis"


def test_report_row_csv_line_blanks_for_none():
    row = ReportRow("d", "srw", None, None, 10, 0, 7, 0.5, math.log10(0.5), 4, None)
    line = row.csv_line()
    assert line.startswith("d,srw,,,10,0,7,0.5,")
    assert line.endswith(",4,")


# ----------------------------------------------------------- aggregates


def test_aggregate_rows_means_and_stds():
    def raw(sampler, budget, rep, kl, uniq):
        return ReportRow("d", sampler, None, None, budget, rep, rep, kl, math.log10(kl), uniq, None)

    rows = [raw("srw", 10, 0, 0.2, 4), raw("srw", 10, 1, 0.4, 6), raw("md", 10, 0, 0.1, 3)]
    aggs = aggregate_rows(rows)
    assert len(aggs) == 2
    first = aggs[0]
    assert first.repetition == "mean" and first.seed is None
    assert first.kl == pytest.approx(0.3, abs=1e-15)
    assert first.log10_kl == pytest.approx((math.log10(0.2) + math.log10(0.4)) / 2, abs=1e-15)
    assert first.unique_nodes == pytest.approx(5.0)
    assert first.kl_std == pytest.approx(math.sqrt(((0.2 - 0.3) ** 2 + (0.4 - 0.3) ** 2) / 1))
    assert first.unique_nodes_std == pytest.approx(math.sqrt(2.0))
    assert aggs[1].kl_std is None  # single-member group


def test_aggregate_log10_mean_is_none_when_any_member_is_none():
    rows = [
        ReportRow("d", "srw", None, None, 10, 0, 1, 0.0, None, 4, None),
        ReportRow("d", "srw", None, None, 10, 1, 2, 0.2, math.log10(0.2), 5, None),
    ]
    assert aggregate_rows(rows)[0].log10_kl is None


def test_render_json_is_sorted_and_parseable():
    row = ReportRow("d", "srw", None, None, 10, 0, 7, 0.5, math.log10(0.5), 4, None)
    text = render_json([row], {"command": "run", "zeta": 1})
    payload = json.loads(text)
    assert list(payload) == ["meta", "rows"]
    assert payload["rows"][0]["unique_nodes"] == 4
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------- commands


def test_cmd_stats_golden(example_file):
    payload = json.loads(cmd_stats(example_config(example_file)))
    assert payload["dataset"] == "example"
    assert payload["n"] == 5 and payload["m"] == 7
    assert payload["d_max"] == 4
    assert payload["avg_degree"] == pytest.approx(2.8)
    assert payload["tvd_srw_vs_uniform"] == pytest.approx(4 / 35)
    assert payload["lcc_n"] == 5 and payload["lcc_m"] == 7
    assert payload["dropped_self_loops"] == 0 and payload["dropped_duplicates"] == 0


def test_cmd_stats_reports_lcc_of_disconnected_input(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("1 2\n2 3\n1 3\n7 8\n", encoding="utf-8")
    payload = json.loads(cmd_stats(example_config(path)))
    assert payload["n"] == 5 and payload["m"] == 4
    assert payload["lcc_n"] == 3 and payload["lcc_m"] == 3


def test_cmd_run_rows_and_determinism(example_file):
    cfg = example_config(example_file, samplers=("srw",), budgets=(60,), repetitions=4, base_seed=9)
    out = cmd_run(cfg)
    rows = data_lines(out)
    assert len(rows) == 4
    seeds = [cells(r)[6] for r in rows]
    assert len(set(seeds)) == 4
    for r in rows:
        c = cells(r)
        assert c[0] == "example" and c[1] == "srw"
        assert c[2] == "" and c[3] == ""  # no C or alpha for srw
        assert c[4] == "60"
        assert c[10] == ""  # timing off
        assert 1 <= int(c[9]) <= 5
    assert cmd_run(cfg) == out


def test_cmd_run_defaults_c_and_alpha(example_file):
    out = cmd_run(example_config(example_file, samplers=("gmd",), budgets=(30,), repetitions=1))
    assert cells(data_lines(out)[0])[2] == "2"  # d_max//2
    out = cmd_run(example_config(example_file, samplers=("rwe",), budgets=(30,), repetitions=1))
    assert cells(data_lines(out)[0])[3] == "2.8"  # mean degree


def test_cmd_run_usage_errors(example_file):
    with pytest.raises(UsageError, match="one --sampler"):
        cmd_run(example_config(example_file, samplers=("srw", "md"), budgets=(10,)))
    with pytest.raises(UsageError, match="one --budget"):
        cmd_run(example_config(example_file, samplers=("srw",), budgets=(10, 20)))
    with pytest.raises(UsageError, match="sweep-c"):
        cmd_run(example_config(example_file, samplers=("gmd",), budgets=(10,), c_fractions=(0.5,)))


def test_single_threshold_commands_reject_c_ranges(example_file):
    with pytest.raises(UsageError, match=r"sweep-budget takes at most one --c \(use sweep-c for ranges\)"):
        cmd_sweep_budget(example_config(example_file, samplers=("gmd",), budgets=(10,), c_values=(2, 3)))
    with pytest.raises(UsageError, match=r"analyze takes at most one --c \(use sweep-c for ranges\)"):
        cmd_analyze(example_config(example_file, samplers=("gmd",), c_values=(2, 3)))
    with pytest.raises(UsageError, match="--c-frac belongs to sweep-c"):
        cmd_analyze(example_config(example_file, samplers=("gmd",), c_fractions=(0.25,)))
    with pytest.raises(UsageError, match="--c-frac belongs to sweep-c"):
        cmd_sweep_budget(example_config(example_file, samplers=("gmd",), budgets=(10,), c_fractions=(0.25,)))


def test_cmd_run_timing_fills_wall_millis(example_file):
    out = cmd_run(example_config(example_file, samplers=("srw",), budgets=(30,), repetitions=2, timing=True))
    for r in data_lines(out):
        assert float(cells(r)[10]) >= 0.0


def test_timed_cells_are_finite_and_positive(example_file):
    cfg = example_config(
        example_file, samplers=("srw", "wjrw"), budgets=(1, 40), repetitions=3, c_values=(3,), burn_in=2, timing=True
    )
    for r in data_lines(cmd_sweep_budget(cfg)):
        millis = float(cells(r)[10])
        assert math.isfinite(millis) and millis > 0.0, r


def test_sweep_budget_counts_sorting_and_means(example_file):
    cfg = example_config(
        example_file,
        samplers=("wjrw", "srw"),  # deliberately out of canonical order
        budgets=(80, 40),
        repetitions=3,
        c_values=(3,),
    )
    out = cmd_sweep_budget(cfg)
    rows = data_lines(out)
    assert len(rows) == 2 * 2 * 3 + 4  # raw rows plus one mean row per group
    raw = [r for r in rows if cells(r)[5] != "mean"]
    means = [r for r in rows if cells(r)[5] == "mean"]
    assert len(means) == 4
    order = [(cells(r)[1], int(cells(r)[4])) for r in raw]
    assert order == sorted(order, key=lambda t: (("srw", "wjrw").index(t[0]), t[1]))
    for m in means:
        mc = cells(m)
        group = [r for r in raw if cells(r)[1] == mc[1] and cells(r)[4] == mc[4]]
        kl_mean = sum(float(cells(r)[7]) for r in group) / len(group)
        assert float(mc[7]) == pytest.approx(kl_mean, rel=1e-12)
        assert mc[6] == ""  # no seed on mean rows


def test_sweep_budget_parallel_matches_sequential(example_file):
    base = dict(samplers=("srw", "gmd"), budgets=(50,), repetitions=3, c_values=(2,))
    seq = cmd_sweep_budget(example_config(example_file, parallel=1, **base))
    par = cmd_sweep_budget(example_config(example_file, parallel=2, **base))
    assert seq == par


def test_sweep_budget_parallel_matches_sequential_with_oracle_weights_and_burn_in(example_file):
    base = dict(
        samplers=("srw", "rwe", "md", "gmd", "wjrw"),
        budgets=(40, 90),
        repetitions=3,
        c_values=(3,),
        weight_mode="oracle",
        burn_in=3,
        output_format="json",
    )
    seq = cmd_sweep_budget(example_config(example_file, parallel=1, **base))
    par = cmd_sweep_budget(example_config(example_file, parallel=2, **base))
    assert seq == par


@settings(
    derandomize=True, max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    samplers=st.lists(st.sampled_from(SAMPLER_ORDER), min_size=1, max_size=5, unique=True),
    budgets=st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True),
    reps=st.integers(1, 4),
    burn_in=st.integers(0, 5),
    weights=st.sampled_from(WEIGHT_MODES),
    c=st.integers(1, 5),
    alpha=st.floats(0, 4),
    parallel=st.sampled_from([2, 3]),
    batch_steps=st.integers(8, 64),
)
def test_parallel_sweep_equals_sequential_bytes(
    example_file, monkeypatch, samplers, budgets, reps, burn_in, weights, c, alpha, parallel, batch_steps
):
    # A small batch cuts the sweep into more slices than workers.
    monkeypatch.setattr(harness, "_BATCH_STEPS", batch_steps)
    c = (c,) if {"gmd", "wjrw"} & set(samplers) else ()
    alpha = alpha if "rwe" in samplers else None
    base = dict(
        samplers=tuple(samplers), budgets=tuple(budgets), repetitions=reps, burn_in=burn_in, weight_mode=weights
    )
    for fmt in OUTPUT_FORMATS:
        cfg = dict(base, c_values=c, alpha=alpha, output_format=fmt)
        want = cmd_sweep_budget(example_config(example_file, parallel=1, **cfg))
        assert cmd_sweep_budget(example_config(example_file, parallel=parallel, **cfg)) == want


def test_even_slices_are_contiguous_and_balanced():
    # five laws at budgets 10 and 300, each group's 4 repetitions in a row, burn-in 1
    steps = np.repeat([1 + budget for _ in range(5) for budget in (10, 300)], 4)
    for parts in range(1, 8):
        spans = _even_slices(steps, parts)
        assert len(spans) == parts
        assert all(spans)
        assert [i for span in spans for i in span] == list(range(len(steps)))  # contiguous, in order
        for span in spans:  # within one walk of an equal share
            assert abs(steps[span.start : span.stop].sum() - steps.sum() / parts) <= steps.max()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    walks=st.lists(st.tuples(st.integers(1, 5000), st.integers(0, 50)), min_size=1, max_size=60),
    parts=st.integers(1, 80),
)
def test_even_slices_property(walks, parts):
    steps = np.array([budget + burn_in for budget, burn_in in walks])
    spans = _even_slices(steps, parts)
    assert 1 <= len(spans) <= parts
    assert all(spans)
    assert [i for span in spans for i in span] == list(range(len(walks)))  # contiguous, in order
    for span in spans:  # within one walk of an equal share
        assert abs(steps[span.start : span.stop].sum() - steps.sum() / parts) <= steps.max()


def test_even_slices_never_cut_more_ranges_than_walks():
    # the ranges come from the walks, so a huge part count allocates nothing of its size
    assert _even_slices(np.full(3, 5), 1 << 62) == [range(0, 1), range(1, 2), range(2, 3)]
    # nor more than ``parts``, where an int64 sum of the steps would wrap past 2^63
    assert _even_slices(np.repeat([2**59], 16), 2) == [range(0, 8), range(8, 16)]
    assert _even_slices(np.repeat([2**59], 40), 1) == [range(0, 40)]


def test_a_sweep_lists_only_the_walks_of_its_first_slice_before_the_first_batch(example_file, monkeypatch):
    built, batches = [], []

    class FirstBatch(Exception):
        pass

    def counted_config(**fields):
        built.append(fields)
        return WalkConfig(**fields)

    def first_batch(graph, walks):
        batches.append((len(built), len(walks)))
        raise FirstBatch

    cfg = example_config(
        example_file, samplers=("srw", "gmd", "wjrw"), budgets=(10, 20), repetitions=50, c_values=(3,), parallel=1
    )
    monkeypatch.setattr(harness, "WalkConfig", counted_config)
    monkeypatch.setattr(harness, "run_walks", first_batch)
    monkeypatch.setattr(harness, "_BATCH_STEPS", 100)  # 45 slices of the 300 walks
    with pytest.raises(FirstBatch):
        cmd_sweep_budget(cfg)
    [(configs, walks)] = batches
    assert walks <= 10  # the first slice is a few of the 3 x 2 x 50 walks
    assert configs <= walks + 3  # its walks and one config per law, not all 300


def test_sweep_cut_into_many_slices_matches_one_batch(example_file, monkeypatch):
    base = dict(
        samplers=("srw", "rwe", "md", "gmd", "wjrw"),
        budgets=(40, 90),
        repetitions=3,
        c_values=(3,),
        weight_mode="oracle",
        burn_in=3,
    )
    want = cmd_sweep_budget(example_config(example_file, parallel=1, **base))
    monkeypatch.setattr(harness, "_BATCH_STEPS", 64)
    for parallel in (1, 2):
        assert cmd_sweep_budget(example_config(example_file, parallel=parallel, **base)) == want


def test_slices_cut_inside_a_group_keep_each_walks_repetition_and_seed(example_file, monkeypatch):
    cfg = example_config(
        example_file,
        samplers=("srw", "wjrw"),
        budgets=(20, 50),
        repetitions=3,
        base_seed=5,
        c_values=(3,),
        output_format="json",
        parallel=1,
    )
    want = cmd_sweep_budget(cfg)
    # One walk per slice, so most slices start inside a group of R walks.
    monkeypatch.setattr(harness, "_BATCH_STEPS", 1)
    got = cmd_sweep_budget(cfg)
    groups: dict = {}
    for row in json.loads(got)["rows"]:
        if row["repetition"] != "mean":
            groups.setdefault((row["sampler"], row["budget"]), []).append(row)
    assert len(groups) == 4
    for rows in groups.values():
        assert [row["repetition"] for row in rows] == [0, 1, 2]
        assert [row["seed"] for row in rows] == [derive_seed(5, rep) for rep in range(3)]
    assert got == want


def _start_pools_by(monkeypatch, method: str) -> None:
    """Make the harness start its pools, and their CPU-id queues, by ``method``."""
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda name=None: get_context(name or method))


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_under_a_pickling_start_method_equals_sequential_bytes(example_file, monkeypatch, method):
    # Unlike fork, these start methods pickle the initializer's arguments,
    # the CPU-id queue among them.
    pools, pool = [], concurrent.futures.ProcessPoolExecutor

    def pool_with_context(*args, **kwargs):
        pools.append(kwargs["mp_context"].get_start_method())
        return pool(*args, **kwargs)

    _start_pools_by(monkeypatch, method)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool_with_context)
    base = dict(samplers=("srw", "rwe", "gmd", "wjrw"), budgets=(40, 90), repetitions=3, c_values=(3,), burn_in=2)
    for fmt in OUTPUT_FORMATS:
        want = cmd_sweep_budget(example_config(example_file, parallel=1, output_format=fmt, **base))
        assert cmd_sweep_budget(example_config(example_file, parallel=2, output_format=fmt, **base)) == want
    assert pools == [method, method]


def test_weights_are_computed_once_per_group_under_a_pool(example_file, monkeypatch):
    calls, pools = [], []
    weights, pool = harness.estimation_weights, concurrent.futures.ProcessPoolExecutor

    def counted_weights(graph, config, mode):
        calls.append((config.kind.value, config.c, config.alpha))
        return weights(graph, config, mode)

    def counted_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(harness, "estimation_weights", counted_weights)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    cfg = example_config(
        example_file,
        samplers=("srw", "rwe", "gmd", "wjrw"),
        budgets=(40, 90),
        repetitions=3,
        c_values=(3,),
        alpha=2.0,
        weight_mode="oracle",
        parallel=2,
    )
    cmd_sweep_budget(cfg)
    assert pools == [2]
    assert calls == [("srw", None, None), ("rwe", None, 2.0), ("gmd", 3, None), ("wjrw", 3, None)]


def test_paper_sweep_peak_does_not_grow_with_its_laws():
    # Under paper weights a group keeps one value per degree class, not an
    # (n,) vector, so 20 gmd thresholds peak as 2 do: within one 8n-byte vector.
    graph = preferential_graph(20000, 2, seed=4)
    graph.degree_classes  # cached before either run is measured
    thresholds = range(2, 2 + 5 * 20, 5)

    def peak(laws: int) -> int:
        groups = [("gmd", c, None, 20) for c in thresholds[:laws]]
        tracemalloc.start()
        try:
            harness._run_tasks(example_config("g.txt", repetitions=2, parallel=1), graph, groups)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20) < peak(2) + 8 * graph.n


def test_default_parallel_counts_only_cpus_in_the_affinity_set(example_file, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    base = dict(samplers=("srw", "wjrw"), budgets=(30,), repetitions=4, c_values=(3,))
    assert cmd_sweep_budget(example_config(example_file, **base)) == cmd_sweep_budget(
        example_config(example_file, parallel=1, **base)
    )


_sched_getaffinity = getattr(os, "sched_getaffinity", None)
_worker_init = harness._worker_init
_affinity_log = None  # the file that _logged_worker_init appends to


def _logged_worker_init(cpus, *sweep) -> None:
    """``harness._worker_init``, then one line with the worker's affinity set.

    Forked pool workers inherit it, and the log path, from the test."""
    _worker_init(cpus, *sweep)
    with open(_affinity_log, "a", encoding="utf-8") as log:
        log.write(" ".join(map(str, sorted(_sched_getaffinity(0)))) + "\n")


def _refuse_affinity(pid, cpus) -> None:
    raise OSError(22, "Invalid argument")


def _logged_forked_sweep(example_file, tmp_path, monkeypatch, **kw) -> list[set[int]]:
    """Each worker's affinity set in a forked pool that runs a sweep; its
    output must equal the same sweep's at parallel=1."""
    base = dict(samplers=("srw", "wjrw"), budgets=(30,), repetitions=4, c_values=(3,))
    want = cmd_sweep_budget(example_config(example_file, parallel=1, **base))
    log = tmp_path / "affinity.txt"
    log.touch()
    _start_pools_by(monkeypatch, "fork")
    monkeypatch.setattr(harness, "_worker_init", _logged_worker_init)
    monkeypatch.setitem(globals(), "_affinity_log", log)
    assert cmd_sweep_budget(example_config(example_file, **base, **kw)) == want
    return [set(map(int, line.split())) for line in log.read_text(encoding="utf-8").splitlines()]


needs_affinity = pytest.mark.skipif(_sched_getaffinity is None, reason="no sched_getaffinity")
needs_two_cpus = pytest.mark.skipif(
    _sched_getaffinity is None or len(_sched_getaffinity(0)) < 2, reason="needs two usable CPUs"
)


@needs_two_cpus
def test_pool_workers_run_on_different_cpus(example_file, tmp_path, monkeypatch):
    # Two slices on two workers; each worker is pinned to a CPU of its own.
    affinities = _logged_forked_sweep(example_file, tmp_path, monkeypatch, parallel=2)
    assert len(affinities) == 2
    assert all(len(cpus) == 1 for cpus in affinities)
    assert affinities[0] != affinities[1]
    assert set.union(*affinities) <= _sched_getaffinity(0)


@needs_two_cpus
def test_more_pool_workers_than_cpus_share_them_round_robin(example_file, tmp_path, monkeypatch):
    two = set(sorted(_sched_getaffinity(0))[:2])
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: two)
    affinities = _logged_forked_sweep(example_file, tmp_path, monkeypatch, parallel=3)
    assert len(affinities) == 3 and all(len(cpus) == 1 for cpus in affinities)
    taken = [cpu for cpus in affinities for cpu in cpus]
    assert set(taken) == two
    assert sorted(taken.count(cpu) for cpu in two) == [1, 2]


@needs_affinity
@pytest.mark.parametrize("refusal", ["raises", "missing"])
def test_a_worker_that_cannot_pin_runs_unpinned_with_the_same_bytes(example_file, tmp_path, monkeypatch, refusal):
    if refusal == "raises":
        monkeypatch.setattr(os, "sched_setaffinity", _refuse_affinity)
    else:
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    affinities = _logged_forked_sweep(example_file, tmp_path, monkeypatch, parallel=2)
    assert affinities == [_sched_getaffinity(0)] * 2


def test_sweep_budget_shares_seeds_across_samplers(example_file):
    out = cmd_sweep_budget(example_config(example_file, samplers=("srw", "md"), budgets=(20,), repetitions=2))
    raw = [r for r in data_lines(out) if cells(r)[5] != "mean"]
    srw_seeds = [cells(r)[6] for r in raw if cells(r)[1] == "srw"]
    md_seeds = [cells(r)[6] for r in raw if cells(r)[1] == "md"]
    assert srw_seeds == md_seeds


def test_sweep_c_resolves_fractions_against_d_max(example_file):
    cfg = example_config(
        example_file,
        samplers=("wjrw",),
        budgets=(40,),
        repetitions=2,
        c_fractions=(0.5, 1.0),
        output_format="json",
    )
    payload = json.loads(cmd_sweep_c(cfg))
    assert payload["meta"]["c_values"] == [2, 4]
    assert payload["meta"]["d_max"] == 4
    raw = [r for r in payload["rows"] if r["repetition"] != "mean"]
    assert sorted({r["C"] for r in raw}) == [2, 4]
    assert len(raw) == 2 * 2


def test_sweep_c_defaults_to_both_padded_samplers(example_file):
    out = cmd_sweep_c(example_config(example_file, budgets=(30,), repetitions=1, c_values=(2,)))
    raw = [r for r in data_lines(out) if cells(r)[5] != "mean"]
    assert [cells(r)[1] for r in raw] == ["gmd", "wjrw"]


def test_sweep_c_usage_errors(example_file):
    with pytest.raises(UsageError, match="supports only"):
        cmd_sweep_c(example_config(example_file, samplers=("srw",), budgets=(30,), c_values=(2,)))
    with pytest.raises(UsageError, match="one --budget"):
        cmd_sweep_c(example_config(example_file, samplers=("gmd",), budgets=(30, 40), c_values=(2,)))
    with pytest.raises(UsageError, match="not both"):
        cmd_sweep_c(
            example_config(example_file, samplers=("gmd",), budgets=(30,), c_values=(2,), c_fractions=(0.5,))
        )
    with pytest.raises(UsageError, match="--c values or --c-frac"):
        cmd_sweep_c(example_config(example_file, samplers=("gmd",), budgets=(30,)))


@settings(
    derandomize=True, max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    samplers=st.lists(st.sampled_from(SAMPLER_ORDER), min_size=1, max_size=7),
    budgets=st.lists(st.integers(1, 40), min_size=1, max_size=5),
    c_values=st.lists(st.integers(1, 6), max_size=4),
    c_fractions=st.lists(st.floats(0, 1, exclude_min=True), max_size=4),
    alpha=st.none() | st.floats(0, 10),
)
def test_walk_groups_are_distinct_in_report_order(
    example_graph, example_file, samplers, budgets, c_values, c_fractions, alpha
):
    cfg = example_config(
        example_file,
        samplers=tuple(samplers),
        budgets=tuple(budgets),
        c_values=tuple(c_values),
        c_fractions=tuple(c_fractions),
        alpha=alpha,
    )
    groups = _walk_groups(cfg, example_graph, cfg.samplers, cfg.budgets)
    d_max = example_graph.d_max
    resolved = c_values or [max(1, round(f * d_max)) for f in c_fractions] or [max(1, d_max // 2)]
    resolved_alpha = average_degree(example_graph) if alpha is None else alpha
    assert len(set(groups)) == len(groups)
    assert groups == sorted(groups, key=lambda g: (SAMPLER_ORDER.index(g[0]), g[1] or 0, g[3]))
    assert set(groups) == {
        (kind, c, resolved_alpha if kind == "rwe" else None, budget)
        for kind in samplers
        for c in (resolved if kind in ("gmd", "wjrw") else [None])
        for budget in budgets
    }
    # sweep-c reports its thresholds in the order given, each once
    assert _thresholds(cfg, example_graph) == list(dict.fromkeys(resolved))
    if bool(c_values) != bool(c_fractions):
        sweep = example_config(
            example_file,
            budgets=(budgets[0],),
            c_values=tuple(c_values),
            c_fractions=tuple(c_fractions),
            repetitions=1,
            parallel=1,
            output_format="json",
        )
        meta = json.loads(cmd_sweep_c(sweep))["meta"]
        assert meta["c_values"] == list(dict.fromkeys(resolved))
        assert meta["c_fractions"] == (list(dict.fromkeys(c_fractions)) or None)


def test_cmd_analyze_wjrw_golden(example_file):
    payload = json.loads(cmd_analyze(example_config(example_file, samplers=("wjrw",), c_values=(3,))))
    assert payload["sampler"] == "wjrw" and payload["C"] == 3
    spec_obj = payload["spectrum"]
    assert set(spec_obj) == {"eigenvalues", "mu", "slem"}
    assert len(spec_obj["eigenvalues"]) == 5
    assert spec_obj["eigenvalues"][0] == [1.0, 0.0]
    assert spec_obj["mu"] == pytest.approx(MU_WJRW, abs=1e-9)
    assert payload["is_real_spectrum"] is True
    assert payload["expected_repeat_probability"] == pytest.approx(1 / 16, abs=1e-12)
    assert payload["closed_vs_numeric_l1_gap"] <= 1e-10
    assert payload["reversibility_residual"] <= 1e-12
    total = sum(payload["stationary_closed_form"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cmd_analyze_requires_one_sampler(example_file):
    with pytest.raises(UsageError, match="one --sampler"):
        cmd_analyze(example_config(example_file, samplers=("srw", "md")))


def test_gmd_at_full_threshold_matches_md_row_for_row(example_file):
    md = cmd_run(example_config(example_file, samplers=("md",), budgets=(100,), repetitions=3))
    gmd = cmd_run(example_config(example_file, samplers=("gmd",), budgets=(100,), repetitions=3, c_values=(4,)))
    md_tail = [cells(r)[4:] for r in data_lines(md)]
    gmd_tail = [cells(r)[4:] for r in data_lines(gmd)]
    assert md_tail == gmd_tail


# -------------------------------------------------------- config + CLI


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "sampler = srw, md\n"
        "sampler = wjrw\n"
        "budget = 100\n"
        "reps = 5\n"
        "reps = 7\n"
        "\n",
        encoding="utf-8",
    )
    vals = parse_config_file(str(cfg))
    assert vals["sampler"] == ["srw", "md", "wjrw"]
    assert vals["budget"] == ["100"]
    assert vals["reps"] == ["7"]  # later scalar lines win


def test_parse_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sampler = srw\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(UsageError, match=r"bad\.cfg:2: unknown key"):
        parse_config_file(str(cfg))
    # --config is a flag but not a config key: a file cannot name another file
    cfg.write_text("sampler = srw\nconfig = other.cfg\n", encoding="utf-8")
    with pytest.raises(UsageError, match=r"bad\.cfg:2: unknown key 'config'"):
        parse_config_file(str(cfg))
    cfg.write_text("no equals sign\n", encoding="utf-8")
    with pytest.raises(UsageError, match="key = value"):
        parse_config_file(str(cfg))


def test_cli_config_file_with_flag_override(tmp_path, example_file, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset = {example_file}\nsampler = srw\nbudget = 40\nreps = 3\nseed = 11\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(data_lines(capsys.readouterr().out)) == 3
    assert main(["run", "--config", str(cfg), "--reps", "2"]) == 0
    assert len(data_lines(capsys.readouterr().out)) == 2


_GRID = ["sweep-budget", "--sampler", "wjrw", "--sampler", "srw", "--budget", "30", "--budget", "10"]


@pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
@pytest.mark.parametrize(
    "argv, repeat",
    [
        (["sweep-budget", "--sampler", "srw", "--budget", "10"], ["--budget", "10"]),
        (_GRID, ["--sampler", "srw"]),
        (_GRID, ["--budget", "30"]),
        (["sweep-budget", "--sampler", "gmd", "--budget", "10", "--c", "3"], ["--c", "3"]),
        (["run", "--sampler", "rwe", "--budget", "10"], ["--sampler", "rwe"]),
        (["sweep-c", "--budget", "20", "--c", "3", "--c", "1"], ["--c", "3"]),
        (["sweep-c", "--budget", "20", "--c-frac", "0.5", "--c-frac", "0.25"], ["--c-frac", "0.5"]),
    ],
)
def test_repeated_values_are_walked_once(example_file, capsys, argv, repeat, fmt):
    common = ["--dataset", str(example_file), "--reps", "2", "--seed", "3", "--format", fmt]
    assert main(argv + common) == 0
    once = capsys.readouterr().out
    assert main(argv + repeat + common) == 0
    assert capsys.readouterr().out == once


def test_threshold_flag_overrides_both_file_keys(tmp_path, example_file, capsys):
    sweep = ["sweep-c", "--sampler", "gmd", "--budget", "30", "--reps", "2"]
    for file_line, flag in (("c-frac = 0.5", ["--c", "3"]), ("c = 2", ["--c-frac", "0.75"])):
        cfg = tmp_path / "threshold.cfg"
        cfg.write_text(f"dataset = {example_file}\n{file_line}\n", encoding="utf-8")
        assert main(sweep + flag + ["--dataset", str(example_file)]) == 0
        expected = capsys.readouterr().out
        assert main(sweep + flag + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == expected
    # a file's c-frac would be rejected outside sweep-c; a --c flag replaces it
    cfg.write_text(f"dataset = {example_file}\nc-frac = 0.5\n", encoding="utf-8")
    assert main(["analyze", "--config", str(cfg), "--sampler", "gmd"]) == 2
    assert "--c-frac belongs to sweep-c" in capsys.readouterr().err
    assert main(["analyze", "--config", str(cfg), "--sampler", "gmd", "--c", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["C"] == 3


def _flags_by_command() -> dict[str, set[str]]:
    """Each subcommand's flags, without dashes, as the parser defines them."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return {
        name: {opt[2:] for action in p._actions for opt in action.option_strings if opt not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }


def test_config_keys_are_the_parser_flags(tmp_path):
    flags = _flags_by_command()
    every_flag = {"config", *cli._FLAGS}
    assert set().union(*flags.values()) == every_flag
    for command in ("run", "sweep-budget", "sweep-c"):
        assert flags[command] == every_flag
    assert flags["stats"] == {"dataset", "config", "out"}
    walk_only = {"budget", "reps", "weights", "parallel", "burn-in", "timing"}
    assert flags["analyze"] == every_flag - walk_only
    # a config file still sets every key, whichever command runs
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "dataset = x.txt\nbudget = 5\nreps = 3\nweights = oracle\nparallel = 2\nburn-in = 4\ntiming = yes\n",
        encoding="utf-8",
    )
    resolved = resolve_config(build_parser().parse_args(["analyze", "--config", str(cfg)]))
    assert resolved == ExperimentConfig(
        "x.txt", budgets=(5,), repetitions=3, weight_mode="oracle", parallel=2, burn_in=4, timing=True
    )


@pytest.mark.parametrize(
    "flag", ["--budget=5", "--reps=3", "--weights=oracle", "--parallel=2", "--burn-in=4", "--timing"]
)
def test_analyze_rejects_the_walk_flags(example_file, flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "--dataset", str(example_file), "--sampler", "srw", flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# Valid values of each config key.
_KEY_VALUES = {
    "dataset": st.sampled_from(["a.txt", "dir/b.txt"]),
    "sampler": st.lists(st.sampled_from(SAMPLER_ORDER), min_size=1, max_size=3).map(tuple),
    "budget": st.lists(st.integers(1, 10**6), min_size=1, max_size=3).map(tuple),
    "c": st.lists(st.integers(1, 999), min_size=1, max_size=3).map(tuple),
    "c-frac": st.lists(st.floats(0, 1, exclude_min=True), min_size=1, max_size=3).map(tuple),
    "alpha": st.floats(0, 1e6),
    "reps": st.integers(1, 1000),
    "seed": st.integers(0, 2**63),
    "weights": st.sampled_from(WEIGHT_MODES),
    "out": st.sampled_from(["o.csv", "dir/o.json"]),
    "format": st.sampled_from(OUTPUT_FORMATS),
    "parallel": st.integers(0, 64),
    "burn-in": st.integers(0, 1000),
    "timing": st.booleans(),
}


def _text(value) -> str:
    if isinstance(value, bool):
        return "Yes" if value else "off"
    return repr(value) if isinstance(value, float) else str(value)


@settings(
    derandomize=True, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data(), command=st.sampled_from(["stats", "run", "sweep-budget", "sweep-c", "analyze"]))
def test_resolved_config_is_flag_else_file_else_default(tmp_path, data, command):
    flag_keys = sorted(_flags_by_command()[command] - {"config"})
    by_flag = data.draw(st.fixed_dictionaries({}, optional={k: _KEY_VALUES[k] for k in flag_keys}))
    by_file = data.draw(st.fixed_dictionaries({}, optional=_KEY_VALUES))
    if by_flag.get("timing") is False:  # --timing can only set True
        del by_flag["timing"]

    argv = [command]
    for key, value in by_flag.items():
        if key == "timing":
            argv.append("--timing")
        else:
            for item in value if key in cli._LIST_KEYS else (value,):
                argv += [f"--{key}", _text(item)]
    lines = []
    for key, value in by_file.items():
        if key in cli._LIST_KEYS:  # all items on one line, or one item a line
            items = [_text(v) for v in value]
            one_line = data.draw(st.booleans())
            lines += [f"{key} = {', '.join(items)}"] if one_line else [f"{key} = {item}" for item in items]
        else:  # the last line wins over an earlier one
            lines += [f"{key} = {_text(not value if key == 'timing' else 'junk')}", f"{key} = {_text(value)}"]
    cfg = tmp_path / "prop.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")

    if {"c", "c-frac"} & by_flag.keys():  # one setting: a flag for either drops the file's both
        by_file = {key: value for key, value in by_file.items() if key not in ("c", "c-frac")}
    fields = {key: field for key, (field, _) in cli._FLAGS.items()}
    expected = {fields[key]: value for key, value in {**by_file, **by_flag}.items()}
    args = build_parser().parse_args(argv + ["--config", str(cfg)])
    if "dataset_path" not in expected:
        with pytest.raises(UsageError, match="--dataset is required"):
            resolve_config(args)
    else:
        assert resolve_config(args) == ExperimentConfig(**expected)


def test_cli_stats_stdout_and_out_file(tmp_path, example_file, capsys):
    assert main(["stats", "--dataset", str(example_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5

    target = tmp_path / "stats.json"
    assert main(["stats", "--dataset", str(example_file), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["m"] == 7


def test_cli_out_in_a_missing_directory_fails_before_loading(tmp_path, example_file, capsys, monkeypatch):
    loads = []
    monkeypatch.setattr(harness, "load_edge_list", loads.append)
    for out, message in ((tmp_path / "missing" / "x.csv", "no such directory"), (tmp_path, "is a directory")):
        argv = ["run", "--dataset", str(example_file), "--sampler", "srw", "--budget", "10", "--out", str(out)]
        assert main(argv) == 2
        assert loads == []
        assert capsys.readouterr().err == f"error: --out {out}: {message}\n"
    assert not (tmp_path / "missing").exists()


def test_cli_rerun_writes_identical_bytes(tmp_path, example_file):
    argv = [
        "sweep-budget",
        "--dataset",
        str(example_file),
        "--sampler",
        "srw",
        "--sampler",
        "wjrw",
        "--budget",
        "50",
        "--c",
        "3",
        "--reps",
        "3",
        "--seed",
        "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# Every command, walking commands in one process; stats takes no --format.
CACHED_COMMANDS = [
    ["stats"],
    ["run", "--sampler", "wjrw", "--budget", "40", "--c", "3", "--reps", "3", "--parallel", "1"],
    ["sweep-budget", "--sampler", "srw", "--sampler", "gmd", "--budget", "20", "--budget", "40", "--c", "3"]
    + ["--reps", "2", "--weights", "oracle", "--parallel", "1"],
    ["sweep-c", "--sampler", "wjrw", "--c-frac", "0.5", "--c-frac", "1", "--budget", "30", "--reps", "2", "--parallel", "1"],
    ["analyze", "--sampler", "wjrw", "--c", "3"],
]


def _command_outputs(dataset, out_dir, before=lambda: None) -> dict:
    """Each command's output bytes in each format; ``before`` runs before each."""
    outputs = {}
    for argv in CACHED_COMMANDS:
        for fmt in ("csv", "json") if argv[0] != "stats" else ("json",):
            before()
            out = out_dir / f"{argv[0]}.{fmt}"
            flags = ["--format", fmt] if argv[0] != "stats" else []
            assert main([*argv, "--dataset", str(dataset), *flags, "--out", str(out)]) == 0
            outputs[argv[0], fmt] = out.read_bytes()
    return outputs


@pytest.fixture()
def two_component_file(tmp_path) -> Path:
    path = tmp_path / "edges.txt"
    path.write_text("# two components\n" + EXAMPLE_EDGES + "1 1\n2 1\n10 11\n", encoding="utf-8")
    return path


def test_cli_writes_the_same_bytes_on_a_cache_miss_and_a_hit(tmp_path, two_component_file, dataset_cache, monkeypatch):
    clear = lambda: shutil.rmtree(dataset_cache, ignore_errors=True)
    misses = _command_outputs(two_component_file, tmp_path, before=clear)
    assert len(list(dataset_cache.iterdir())) == 1
    with monkeypatch.context() as m:
        m.setattr(graph_module, "parse_edge_list", lambda stream: pytest.fail("parsed on a cache hit"))
        hits = _command_outputs(two_component_file, tmp_path)
    assert hits == misses and all(misses.values())
    assert json.loads(misses["stats", "json"])["lcc_n"] == 5


def test_cli_runs_alike_when_the_cache_directory_cannot_be_made(tmp_path, two_component_file, monkeypatch):
    cached = _command_outputs(two_component_file, tmp_path)
    not_a_directory = tmp_path / "cache"
    not_a_directory.write_text("a regular file", encoding="utf-8")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_directory))
    assert _command_outputs(two_component_file, tmp_path) == cached


def test_cli_malformed_input_fails_alike_on_every_run(tmp_path, dataset_cache, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n2 x\n", encoding="utf-8")
    for _ in range(2):
        assert main(["stats", "--dataset", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 2: non-integer token in ['2', 'x']\n"
    assert not list(dataset_cache.glob("*"))  # the directory may be made, but holds no record


def test_cli_too_many_node_ids_is_malformed_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(graph_module, "_MAX_NODES", 4)
    edges = tmp_path / "edges.txt"
    edges.write_text("1 2\n3 4\n4 5\n", encoding="utf-8")
    assert main(["stats", "--dataset", str(edges)]) == 2
    assert capsys.readouterr().err == "error: more than 4 distinct node ids\n"


def test_cli_exit_codes(tmp_path, example_file, capsys, monkeypatch):
    # missing dataset file -> 2, message names the path
    rc = main(["stats", "--dataset", str(tmp_path / "absent.txt")])
    assert rc == 2
    assert "absent.txt" in capsys.readouterr().err

    # malformed edge list -> 2, message carries the line number
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 x\n", encoding="utf-8")
    assert main(["stats", "--dataset", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err

    # bad usage -> 2
    assert main(["run", "--dataset", str(example_file), "--sampler", "srw"]) == 2
    capsys.readouterr()
    assert main(["run", "--dataset", str(example_file), "--budget", "10"]) == 2
    capsys.readouterr()
    # a threshold range outside sweep-c -> 2
    sweep = ["sweep-budget", "--dataset", str(example_file), "--sampler", "gmd", "--budget", "10"]
    assert main(sweep + ["--c", "10", "--c", "20"]) == 2
    assert "at most one --c" in capsys.readouterr().err
    analyze = ["analyze", "--dataset", str(example_file), "--sampler", "gmd"]
    assert main(analyze + ["--c", "3", "--c", "4"]) == 2
    assert "at most one --c" in capsys.readouterr().err
    assert main(analyze + ["--c-frac", "0.25"]) == 2
    assert "--c-frac belongs to sweep-c" in capsys.readouterr().err
    # a --c or --alpha that none of the command's samplers reads -> 2
    run_srw = ["run", "--dataset", str(example_file), "--sampler", "srw", "--budget", "10"]
    assert main(run_srw + ["--c", "3"]) == 2
    assert "--c applies only to gmd and wjrw" in capsys.readouterr().err
    assert main(["sweep-c", "--dataset", str(example_file), "--c", "2", "--budget", "10", "--alpha", "3"]) == 2
    assert "--alpha applies only to rwe" in capsys.readouterr().err
    assert main(["analyze", "--dataset", str(example_file), "--sampler", "srw", "--alpha", "3"]) == 2
    assert "--alpha applies only to rwe" in capsys.readouterr().err
    assert main(sweep + ["--sampler", "srw", "--alpha", "3"]) == 2
    assert "--alpha applies only to rwe" in capsys.readouterr().err
    # an alpha that is negative or not finite -> 2
    run_rwe = ["run", "--dataset", str(example_file), "--sampler", "rwe", "--budget", "10"]
    for bad in ("-1", "nan", "inf"):
        assert main(run_rwe + [f"--alpha={bad}"]) == 2
        assert "alpha must be finite and >= 0" in capsys.readouterr().err
    # a seed outside [0, 2^64) -> 2, not taken mod 2^64
    for bad in ("-1", str(2**64), str(10**23)):
        assert main(run_srw + ["--seed", bad]) == 2
        assert "seed must lie in [0, 2^64)" in capsys.readouterr().err
    # a config value its key cannot convert -> 2, naming the key
    for line, message in (
        ("timing = maybe", "config key 'timing': expected a boolean, got 'maybe'\n"),
        ("budget = abc", "config key 'budget': invalid literal for int() with base 10: 'abc'\n"),
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"dataset = {example_file}\nsampler = srw\n{line}\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: " + message
    assert main(run_srw + ["--parallel", "-1"]) == 2
    assert "parallel must be >= 0" in capsys.readouterr().err
    # a --parallel far above the slice count starts one worker per slice: exit 0, same rows
    assert main(run_srw + ["--reps", "2", "--parallel", "1"]) == 0
    sequential = capsys.readouterr()
    assert main(run_srw + ["--reps", "2", "--parallel", str(2**62)]) == 0
    assert capsys.readouterr() == sequential
    # a --c, --budget or --burn-in of 2^63 or more -> 2, not an overflow or allocation error
    huge = str(2**63)
    for argv, message in (
        (["run", "--sampler", "wjrw", "--c", huge, "--budget", "3", "--reps", "1"], "c must be < 2^63"),
        (["sweep-c", "--sampler", "gmd", "--c", huge, "--budget", "3", "--reps", "1"], "c must be < 2^63"),
        (["analyze", "--sampler", "gmd", "--c", huge], "c must be < 2^63"),
        (["run", "--sampler", "srw", "--budget", huge, "--reps", "1"], "burn-in + budget must be < 2^60"),
        (["run", "--sampler", "srw", "--budget", "3", "--burn-in", huge, "--reps", "1"],
         "burn-in + budget must be < 2^60"),
        # a walk of 2^60 nodes or more -> 2 at config validation, not numpy's "array is too big"
        (["run", "--sampler", "srw", "--budget", str(2**60), "--reps", "1"], "burn-in + budget must be < 2^60"),
        (["run", "--sampler", "srw", "--budget", "5", "--burn-in", str(2**62)], "burn-in + budget must be < 2^60"),
        (["sweep-budget", "--sampler", "srw", "--budget", "5", "--budget", str(2**60 - 5), "--burn-in", "5"],
         "burn-in + budget must be < 2^60"),
    ):
        assert main(argv + ["--dataset", str(example_file)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # a walk below that bound whose path cannot be allocated -> 2, naming its
    # burn-in + budget and its bytes, in this process and from a pool worker
    pools, pool = [], concurrent.futures.ProcessPoolExecutor

    def counted_pool(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    long = 2**60 - 1
    for argv in (
        ["run", "--sampler", "srw", "--budget", str(long), "--reps", "1"],
        ["sweep-budget", "--sampler", "srw", "--budget", "5", "--budget", str(long), "--reps", "2", "--parallel", "2"],
    ):
        assert main(argv + ["--dataset", str(example_file)]) == 2
        nodes = f"burn-in + budget = {long} nodes ({4 * long} bytes)"
        assert capsys.readouterr().err == f"error: cannot allocate the path of a walk of {nodes}\n"
    assert pools == [2]
    # an --alpha of 2^63 or more (which overflowed a stationary total and
    # exited 1), or a --reps of 2^31 or more (which listed every walk first) -> 2
    # before the dataset loads
    with monkeypatch.context() as patch:
        loads = []
        patch.setattr(harness, "load_edge_list", loads.append)
        for argv, message in (
            (run_rwe + ["--alpha", "1e308", "--reps", "1"], "alpha must be < 2^63"),
            (run_rwe + ["--alpha", "1e308", "--reps", "1", "--weights", "oracle"], "alpha must be < 2^63"),
            (run_rwe + ["--alpha", str(2.0**63)], "alpha must be < 2^63"),
            (["sweep-budget", "--sampler", "rwe", "--budget", "3", "--alpha", "1.7976931348623157e308"],
             "alpha must be < 2^63"),
            (["analyze", "--sampler", "rwe", "--alpha", "1e308"], "alpha must be < 2^63"),
            (run_srw + ["--reps", str(2**31)], "reps must be < 2^31"),
            (run_srw + ["--reps", str(2**62)], "reps must be < 2^31"),
            (run_srw + ["--reps", str(2**63)], "reps must be < 2^31"),
        ):
            assert main(argv + ["--dataset", str(example_file)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []
    # sweep-budget without a sampler or without a budget -> 2
    sweep_bare = ["sweep-budget", "--dataset", str(example_file)]
    assert main(sweep_bare + ["--budget", "10"]) == 2
    assert "needs at least one --sampler" in capsys.readouterr().err
    assert main(sweep_bare + ["--sampler", "srw"]) == 2
    assert "needs at least one --budget" in capsys.readouterr().err

    # an internal or numeric failure -> 1, its message on stderr
    def no_convergence(graph, config):
        raise ConvergenceError("stationary solve: residual 1e-03 > rtol=1e-12 after 1 iterations")

    monkeypatch.setattr(harness, "stationary_numeric", no_convergence)
    argv = ["run", "--dataset", str(example_file), "--sampler", "srw", "--budget", "10", "--weights", "oracle"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: stationary solve: residual 1e-03 > rtol=1e-12 after 1 iterations\n")


# Arguments for the CLI property test below, as text. "<example>" is the
# five-node example, "<config>" a config file naming it, "<out>" a new file,
# "<dir>" a directory and "<missing>" a path in a missing directory. Each
# flag has small valid values and edge values, most of them invalid. No
# --budget or --burn-in is 2^31 (valid: an 8 GiB path, a walk of 2^31
# steps), and --parallel stays at a few workers, as the walk lists do:
# at most 8 walks.
_EDGE = ("0", "-1", str(2**31), str(2**62), str(2**63), "nan", "inf", "-0.0", "1.7976931348623157e308", "")
_PATHS = ("", "<dir>", "<missing>")
_NO_2_31 = tuple(value for value in _EDGE if value != str(2**31))
_CLI_ARGUMENTS = {  # flag -> (valid values, edge values)
    "dataset": (("<example>",), _PATHS),
    "config": (("<config>",), _PATHS),
    "out": (("<out>",), _PATHS),
    "sampler": (SAMPLER_ORDER, ("", "0")),
    "budget": (("1", "3", "20"), _NO_2_31),
    "c": (("1", "3", "5"), _EDGE),
    "c-frac": (("0.25", "1"), _EDGE),
    "alpha": (("0.5", "3"), _EDGE),
    "reps": (("1", "2"), _EDGE),
    "seed": (("7",), _EDGE),
    "weights": (WEIGHT_MODES, ("",)),
    "format": (OUTPUT_FORMATS, ("",)),
    "parallel": (("1", "2"), ("-1", "0")),
    "burn-in": (("0", "2"), _NO_2_31),
}


@st.composite
def _cli_argv(draw) -> list[str]:
    """A command and valid values of its own flags, then up to two of those
    flags set to an edge value instead."""
    command = draw(st.sampled_from(tuple(cli._COMMANDS)))
    flags = cli._COMMANDS[command][2]

    def valid(flag, choices=None, most=1):
        values = st.sampled_from(choices or _CLI_ARGUMENTS[flag][0])
        return draw(st.lists(values, min_size=1, max_size=most, unique=True))

    args = {"dataset": ["<example>"]}
    if command != "stats":
        sweep = command.startswith("sweep")
        args["sampler"] = valid("sampler", SWEEP_C_SAMPLERS if command == "sweep-c" else None, 1 + sweep)
        reads = {param: set(args["sampler"]) & {kind.value for kind in kinds} for param, kinds in KINDS_READING.items()}
        if command == "sweep-c" or (reads["c"] and draw(st.booleans())):
            threshold = "c-frac" if command == "sweep-c" and draw(st.booleans()) else "c"
            args[threshold] = valid(threshold, most=1 + (command == "sweep-c"))
        if reads["alpha"] and draw(st.booleans()):
            args["alpha"] = valid("alpha")
    if "budget" in flags:  # and --reps, lest the default 100 walks a group start a worker per CPU
        args["budget"] = valid("budget", most=1 + (command == "sweep-budget"))
        args["reps"] = valid("reps")
    for flag in ("config", "out", "seed", "weights", "format", "parallel", "burn-in"):
        if flag in flags and draw(st.booleans()):
            args[flag] = valid(flag)
    for flag in draw(st.lists(st.sampled_from([f for f in flags if f != "timing"]), max_size=2, unique=True)):
        args[flag] = [draw(st.sampled_from(_CLI_ARGUMENTS[flag][1]))]
    timing = ["--timing"] if "timing" in flags and draw(st.booleans()) else []
    return [command, *(f"--{flag}={value}" for flag, values in args.items() for value in values), *timing]


@settings(
    derandomize=True, max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=_cli_argv())
@example(argv=["run", "--dataset=<example>", "--sampler=rwe", "--budget=3", "--alpha=1.7976931348623157e308"])
def test_cli_exits_0_or_2_and_finds_what_needs_no_graph_before_loading(
    tmp_path, example_file, monkeypatch, capsys, argv
):
    # Any argv built from a command's own flags exits 0, or 2 with one error
    # line; an error that needs no graph is found before the dataset loads.
    places = {"<example>": example_file, "<config>": tmp_path / "valid.cfg", "<out>": tmp_path / "out"}
    places.update({"<dir>": tmp_path, "<missing>": tmp_path / "missing" / "x"})
    for name, path in places.items():
        argv = [arg.replace(name, str(path)) for arg in argv]
    (tmp_path / "valid.cfg").write_text(f"dataset = {example_file}\nreps = 1\n", encoding="utf-8")
    loads = []

    def counted_load(path):
        loads.append(path)
        return graph_module.load_edge_list(path)

    monkeypatch.setattr(harness, "load_edge_list", counted_load)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), (argv, err)
    if code == 0:
        assert err == "", argv
    else:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
        assert "Traceback" not in err
        # the only error left after a load is the dataset's own
        assert len(loads) <= 1 and str(example_file) not in loads, (argv, err)


def test_analyze_above_the_dense_cap_is_a_usage_error(example_file, monkeypatch, capsys):
    monkeypatch.setattr(harness, "DENSE_CAP", 3)
    assert main(["analyze", "--dataset", str(example_file), "--sampler", "srw"]) == 2
    assert capsys.readouterr().err == (
        "error: largest component has 5 nodes; dense analysis is capped at 3 "
        "(use run/sweep commands for large graphs)\n"
    )


def test_cli_node_id_beyond_int64_is_an_input_error(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("1 2\n2 9223372036854775808\n", encoding="utf-8")
    assert main(["stats", "--dataset", str(huge)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_non_utf8_input_is_an_input_error(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("# caf\u00e9\n1 2\n".encode("latin-1"))
    assert main(["stats", "--dataset", str(latin1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "latin1.txt" in err and "UTF-8" in err

    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("# caf\u00e9\nsampler = srw\n".encode("latin-1"))
    assert main(["stats", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "latin1.cfg" in err and "UTF-8" in err


def test_cli_json_format(example_file, capsys):
    rc = main(
        [
            "run",
            "--dataset",
            str(example_file),
            "--sampler",
            "md",
            "--budget",
            "25",
            "--reps",
            "2",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["command"] == "run"
    assert payload["meta"]["rng"] == "philox4x64"
    assert len(payload["rows"]) == 2
    assert all(r["sampler"] == "md" for r in payload["rows"])


def test_cli_weight_modes_agree_when_closed_form_is_exact(example_file, capsys):
    argv = ["run", "--dataset", str(example_file), "--sampler", "wjrw", "--budget", "200", "--c", "3", "--reps", "2"]
    assert main(argv) == 0
    closed = capsys.readouterr().out
    assert main(argv + ["--weights", "oracle"]) == 0
    oracle = capsys.readouterr().out
    # equal-degree jump set: formula weights are exact, so rows agree closely
    for cl, orr in zip(data_lines(closed), data_lines(oracle)):
        assert float(cells(cl)[7]) == pytest.approx(float(cells(orr)[7]), abs=1e-9)


def _modules_loaded_by_cli_import() -> list[str]:
    """The modules a fresh interpreter holds after ``import walksample.cli``."""
    import walksample

    src = str(Path(walksample.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = "import sys, walksample.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    return out.split()


def test_cli_import_loads_no_scipy():
    assert [m for m in _modules_loaded_by_cli_import() if m.split(".")[0] == "scipy"] == []


def test_cli_import_loads_no_process_pool():
    # Only a --parallel run starts a pool; every other run skips its import.
    modules = _modules_loaded_by_cli_import()
    assert "walksample.harness" in modules
    assert "concurrent.futures.process" not in modules


# Records OPENBLAS_THREAD_TIMEOUT when ``import walksample`` first asks for
# numpy, which starts OpenBLAS's threads as it loads.
_TIMEOUT_AT_NUMPY_IMPORT = """
import os, sys

class Spy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not Spy.seen:
            Spy.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Spy())
import walksample
print(*Spy.seen, os.environ.get("GOTO_THREAD_TIMEOUT"))
"""


@pytest.mark.parametrize(
    "given, seen",
    [
        ({}, "20 None"),
        ({"OPENBLAS_THREAD_TIMEOUT": "28"}, "28 None"),
        ({"GOTO_THREAD_TIMEOUT": "28"}, "None 28"),
    ],
)
def test_import_sets_blas_thread_timeout_before_numpy_loads(given, seen):
    import walksample

    src = str(Path(walksample.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_THREAD_TIMEOUT", "GOTO_THREAD_TIMEOUT")}
    env.update(given, PYTHONPATH=src)
    probe = [sys.executable, "-c", _TIMEOUT_AT_NUMPY_IMPORT]
    assert subprocess.run(probe, env=env, capture_output=True, text=True, check=True).stdout.split() == seen.split()
