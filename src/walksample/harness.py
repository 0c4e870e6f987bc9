"""Experiment harness behind the command line.

Loads an edge-list dataset, restricts sampling to its largest connected
component, runs seeded repetitions of the configured walks, scores each
trace's degree-distribution estimate against the exact distribution, and
renders CSV or JSON reports. Also exposes dataset stats and a dense
spectral diagnostic for small graphs.

Determinism contract: repetition r of every command uses a seed derived
only from (base_seed, r), rows are sorted by (sampler, budget, threshold,
repetition) before writing, and wall-clock timing is left blank unless
explicitly requested, so identical configs produce byte-identical output
and parallel execution matches sequential execution exactly.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .estimation import Distribution, degree_distribution_estimate, kl_divergence, true_degree_distribution, unique_count
from .graph import Graph, average_degree, graph_stats, largest_connected_component, load_edge_list
from .samplers import (
    RNG_ALGORITHM,
    SamplerError,
    SamplerKind,
    WalkConfig,
    derive_seed,
    run_walks,
    stationary_closed_form,
    stationary_numeric,
)
from .spectral import DENSE_CAP, dense_transition_matrix, expected_repeat_probability, reversibility_residual, spectrum

_COLUMNS = (
    "dataset", "sampler", "C", "alpha", "budget", "repetition", "seed", "kl", "log10_kl", "unique_nodes", "wall_millis"
)
CSV_HEADER = ",".join(_COLUMNS)
SAMPLER_ORDER = tuple(kind.value for kind in SamplerKind)
SWEEP_C_SAMPLERS = ("gmd", "wjrw")  # the kinds that read --c
WEIGHT_MODES = ("paper", "oracle")
OUTPUT_FORMATS = ("csv", "json")


class UsageError(ValueError):
    """Bad command usage or configuration; maps to exit code 2."""


def _fmt(value) -> str:
    """One CSV cell; floats use 12 significant digits, None is empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _round12(value):
    """Round floats to 12 significant digits for stable JSON output; other values pass."""
    if isinstance(value, float) and math.isfinite(value):
        return float(f"{value:.12g}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one harness command needs, resolved from flags and file."""

    dataset_path: str
    samplers: tuple[str, ...] = ()
    budgets: tuple[int, ...] = ()
    c_values: tuple[int, ...] = ()
    c_fractions: tuple[float, ...] = ()
    alpha: Optional[float] = None
    repetitions: int = 100
    base_seed: int = 0
    output_path: Optional[str] = None
    output_format: str = "csv"
    weight_mode: str = "paper"
    parallel: int = 0
    burn_in: int = 0
    timing: bool = False

    def __post_init__(self):
        for kind in self.samplers:
            if kind not in SAMPLER_ORDER:
                raise UsageError(f"unknown sampler {kind!r}")
        if self.repetitions < 1:
            raise UsageError("reps must be >= 1")
        for b in self.budgets:
            if b < 1:
                raise UsageError("budget must be >= 1")
        for c in self.c_values:
            if c < 1:
                raise UsageError("c must be >= 1")
        for f in self.c_fractions:
            if not 0 < f <= 1:
                raise UsageError("c-frac must lie in (0, 1]")
        if self.output_format not in OUTPUT_FORMATS:
            raise UsageError(f"unknown format {self.output_format!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise UsageError(f"unknown weights mode {self.weight_mode!r}")
        if self.burn_in < 0:
            raise UsageError("burn-in must be >= 0")
        if self.parallel < 0:
            raise UsageError("parallel must be >= 0")
        if self.alpha is not None and not 0 <= self.alpha < math.inf:
            raise UsageError("alpha must be finite and >= 0")


@dataclass(frozen=True)
class ReportRow:
    """One output record: a single repetition or a per-group mean."""

    dataset: str
    sampler: str
    c: Optional[int]
    alpha: Optional[float]
    budget: int
    repetition: object  # int, or "mean" for aggregates
    seed: Optional[int]
    kl: float
    log10_kl: Optional[float]
    unique_nodes: object  # int, or float mean
    wall_millis: Optional[float]
    kl_std: Optional[float] = None
    unique_nodes_std: Optional[float] = None

    def _cells(self) -> tuple:
        """The values of ``_COLUMNS``, in order."""
        return (
            self.dataset,
            self.sampler,
            self.c,
            self.alpha,
            self.budget,
            self.repetition,
            self.seed,
            self.kl,
            self.log10_kl,
            self.unique_nodes,
            self.wall_millis,
        )

    def csv_line(self) -> str:
        return ",".join(_fmt(c) for c in self._cells())

    def to_dict(self) -> dict:
        out = {name: _round12(cell) for name, cell in zip(_COLUMNS, self._cells())}
        if self.kl_std is not None:
            out["kl_std"] = _round12(self.kl_std)
        if self.unique_nodes_std is not None:
            out["unique_nodes_std"] = _round12(self.unique_nodes_std)
        return out


def estimation_weights(graph: Graph, config: WalkConfig, mode: str) -> np.ndarray:
    """Per-node inclusion weights: formula stationary or the numeric one."""
    if mode == "paper":
        return stationary_closed_form(graph, config)
    if mode == "oracle":
        return stationary_numeric(graph, config)
    raise UsageError(f"unknown weights mode {mode!r}")


# A sweep is cut into slices of at most about this many walk steps, each
# walked as one lockstep batch, which bounds the traces held at once.
_BATCH_STEPS = 1 << 20


def _even_slices(walks: Sequence[WalkConfig], parts: int) -> list[list[WalkConfig]]:
    """At most ``parts`` contiguous, non-empty slices of about equal walk steps.

    A walk joins the slice its middle step (burn-in plus budget) falls in, so
    each slice is within one walk of an equal share.
    """
    steps = np.array([w.burn_in + w.budget for w in walks])
    middles = (np.cumsum(steps) - steps / 2) * parts / steps.sum()
    bounds = np.searchsorted(middles, np.arange(parts + 1))
    return [walks[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


_SWEEP: tuple = ()  # set in each pool worker


def _worker_init(*sweep) -> None:
    global _SWEEP
    _SWEEP = sweep


def _walk_slice(walks: list[WalkConfig], sweep: tuple = ()) -> list[tuple]:
    """(kl, unique nodes, wall millis or None) for each walk of one slice.

    ``sweep`` is (graph, truth, weights by group, timing); a pool worker
    reads the one its initializer received. The slice runs as one lockstep
    batch. Under timing a walk's millis are its share of the slice's walk
    time, in proportion to its burn-in plus budget, plus the time spent
    scoring its own trace.
    """
    graph, truth, weights, timing = sweep or _SWEEP
    t0 = time.perf_counter()
    traces = run_walks(graph, walks)
    walk_s_per_step = (time.perf_counter() - t0) / sum(w.burn_in + w.budget for w in walks)
    scores = []
    for walk, trace in zip(walks, traces):
        t0 = time.perf_counter()
        estimate = degree_distribution_estimate(trace, weights[walk.kind, walk.c, walk.alpha], graph)
        kl = kl_divergence(truth, estimate)
        unique = unique_count(trace)
        walk_s = walk_s_per_step * (walk.burn_in + walk.budget)
        millis = (walk_s + time.perf_counter() - t0) * 1000.0 if timing else None
        scores.append((kl, unique, millis))
    return scores


def _run_tasks(config: ExperimentConfig, graph: Graph, combos: Sequence[tuple]) -> list[ReportRow]:
    """Run R repetitions of every (sampler, c, alpha, budget) combo, sorted by group.

    The truth and each group's weights are computed once, here; the walks
    are then cut once into slices of about equal walk steps, which this
    process or a process pool walks. Pool workers receive the graph and
    weights through the initializer; under the fork start method they
    inherit them without copying. ``parallel`` 0 means one worker per CPU
    in this process's affinity set.
    """
    walks = _make_tasks(config, combos)
    truth = true_degree_distribution(graph)
    weights: dict = {}
    for walk in walks:
        group = (walk.kind, walk.c, walk.alpha)
        if group not in weights:
            weights[group] = estimation_weights(graph, walk, config.weight_mode)
    sweep = (graph, truth, weights, config.timing)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = config.parallel or cpus
    total_steps = sum(w.burn_in + w.budget for w in walks)
    slices = _even_slices(walks, max(workers, math.ceil(total_steps / _BATCH_STEPS)))
    if workers > 1 and len(slices) > 1:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(slices)), initializer=_worker_init, initargs=sweep
        ) as pool:
            parts = list(pool.map(_walk_slice, slices))
    else:
        parts = [_walk_slice(part, sweep) for part in slices]

    name = _dataset_name(config.dataset_path)
    reps = product(combos, range(config.repetitions))
    scores = (score for part in parts for score in part)
    rows = [
        ReportRow(
            dataset=name,
            sampler=sampler,
            c=c,
            alpha=alpha,
            budget=budget,
            repetition=rep,
            seed=walk.seed,
            kl=kl,
            log10_kl=math.log10(kl) if kl > 0 else None,
            unique_nodes=unique,
            wall_millis=millis,
        )
        for ((sampler, c, alpha, budget), rep), walk, (kl, unique, millis) in zip(reps, walks, scores)
    ]
    rows.sort(key=lambda r: (SAMPLER_ORDER.index(r.sampler), r.budget, r.c if r.c is not None else -1, r.repetition))
    return rows


def _mean(values) -> Optional[float]:
    vals = [v for v in values if v is not None]
    if len(vals) != len(list(values)):
        return None
    return float(np.mean(vals))


def aggregate_rows(rows: Sequence[ReportRow]) -> list[ReportRow]:
    """One mean row per (sampler, C, alpha, budget) group, in row order.

    Sample standard deviations ride along for the JSON format; the CSV
    schema carries only the means.
    """
    groups: dict = {}
    for row in rows:
        groups.setdefault((row.sampler, row.c, row.alpha, row.budget), []).append(row)
    out = []
    for key, members in groups.items():
        kls = [r.kl for r in members]
        uniques = [float(r.unique_nodes) for r in members]
        sampler, c, alpha, budget = key
        out.append(
            ReportRow(
                dataset=members[0].dataset,
                sampler=sampler,
                c=c,
                alpha=alpha,
                budget=budget,
                repetition="mean",
                seed=None,
                kl=float(np.mean(kls)),
                log10_kl=_mean([r.log10_kl for r in members]),
                unique_nodes=float(np.mean(uniques)),
                wall_millis=_mean([r.wall_millis for r in members]),
                kl_std=float(np.std(kls, ddof=1)) if len(kls) > 1 else None,
                unique_nodes_std=float(np.std(uniques, ddof=1)) if len(uniques) > 1 else None,
            )
        )
    return out


def render_csv(rows: Sequence[ReportRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.csv_line() for row in rows)
    return "\n".join(lines) + "\n"


def render_json(rows: Sequence[ReportRow], meta: dict) -> str:
    payload = {"meta": meta, "rows": [row.to_dict() for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_rows(config: ExperimentConfig, command: str, rows: Sequence[ReportRow], meta_extra: dict) -> str:
    if config.output_format == "json":
        meta = {
            "command": command,
            "dataset_path": config.dataset_path,
            "repetitions": config.repetitions,
            "base_seed": config.base_seed,
            "weight_mode": config.weight_mode,
            "burn_in": config.burn_in,
            "rng": RNG_ALGORITHM,
        }
        meta.update(meta_extra)
        return render_json(rows, meta)
    return render_csv(rows)


def _dataset_name(path: str) -> str:
    return Path(path).stem


def _load_component(config: ExperimentConfig) -> Graph:
    graph, _ = load_edge_list(config.dataset_path)
    return largest_connected_component(graph)


def _resolve_sampler_params(graph: Graph, config: ExperimentConfig, kind: str):
    """(c, alpha) actually used for one sampler on this graph."""
    c = None
    alpha = None
    if kind in SWEEP_C_SAMPLERS:
        c = config.c_values[0] if config.c_values else max(1, graph.d_max // 2)
    if kind == "rwe":
        alpha = config.alpha if config.alpha is not None else average_degree(graph)
    return c, alpha


def _check_one_threshold(config: ExperimentConfig, command: str) -> None:
    """Commands other than sweep-c use a single threshold: one --c at most."""
    if len(config.c_values) > 1:
        raise UsageError(f"{command} takes at most one --c (use sweep-c for ranges)")
    if config.c_fractions:
        raise UsageError("--c-frac belongs to sweep-c")


def _check_params_used(config: ExperimentConfig, samplers: Sequence[str]) -> None:
    """Reject a --c or --alpha that none of the command's samplers reads."""
    if config.c_values and not any(kind in SWEEP_C_SAMPLERS for kind in samplers):
        raise UsageError(f"--c applies only to {' and '.join(SWEEP_C_SAMPLERS)}")
    if config.alpha is not None and "rwe" not in samplers:
        raise UsageError("--alpha applies only to rwe")


def _make_tasks(config: ExperimentConfig, combos: Sequence[tuple]) -> list[WalkConfig]:
    """The walks of (sampler, c, alpha, budget) combos: each combo's
    repetitions in a row, repetition r seeded by ``derive_seed(base_seed, r)``."""
    return [
        WalkConfig(
            kind=sampler,
            c=c,
            alpha=alpha,
            budget=budget,
            seed=derive_seed(config.base_seed, rep),
            burn_in=config.burn_in,
        )
        for sampler, c, alpha, budget in combos
        for rep in range(config.repetitions)
    ]


def cmd_stats(config: ExperimentConfig) -> str:
    """Whole-graph and largest-component statistics as a JSON object."""
    graph, report = load_edge_list(config.dataset_path)
    stats = graph_stats(graph)
    lcc = largest_connected_component(graph)
    payload = {
        "dataset": _dataset_name(config.dataset_path),
        "n": stats.n,
        "m": stats.m,
        "d_max": stats.d_max,
        "avg_degree": _round12(average_degree(graph)),
        "tvd_srw_vs_uniform": _round12(stats.tvd_srw_vs_uniform),
        "lcc_n": lcc.n,
        "lcc_m": lcc.m,
        "dropped_self_loops": report.dropped_self_loops,
        "dropped_duplicates": report.dropped_duplicates,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_run(config: ExperimentConfig) -> str:
    """One sampler at one budget; one row per repetition, no aggregates."""
    if len(config.samplers) != 1:
        raise UsageError("run takes exactly one --sampler")
    if len(config.budgets) != 1:
        raise UsageError("run takes exactly one --budget")
    _check_one_threshold(config, "run")
    _check_params_used(config, config.samplers)
    graph = _load_component(config)
    kind = config.samplers[0]
    c, alpha = _resolve_sampler_params(graph, config, kind)
    rows = _run_tasks(config, graph, [(kind, c, alpha, config.budgets[0])])
    meta = {"samplers": [kind], "budgets": list(config.budgets), "c": c, "alpha": _round12(alpha)}
    return render_rows(config, "run", rows, meta)


def cmd_sweep_budget(config: ExperimentConfig) -> str:
    """Samplers x budgets x repetitions, plus one mean row per group."""
    if not config.samplers:
        raise UsageError("sweep-budget needs at least one --sampler")
    if not config.budgets:
        raise UsageError("sweep-budget needs at least one --budget")
    _check_one_threshold(config, "sweep-budget")
    _check_params_used(config, config.samplers)
    graph = _load_component(config)
    combos = []
    resolved = {}
    for kind in config.samplers:
        c, alpha = _resolve_sampler_params(graph, config, kind)
        resolved[kind] = {"c": c, "alpha": _round12(alpha)}
        for budget in config.budgets:
            combos.append((kind, c, alpha, budget))
    rows = _run_tasks(config, graph, combos)
    rows = rows + aggregate_rows(rows)
    meta = {"samplers": list(config.samplers), "budgets": list(config.budgets), "resolved": resolved}
    return render_rows(config, "sweep-budget", rows, meta)


def cmd_sweep_c(config: ExperimentConfig) -> str:
    """Threshold sweep for the padded walks, plus mean rows per group."""
    samplers = config.samplers or SWEEP_C_SAMPLERS
    for kind in samplers:
        if kind not in SWEEP_C_SAMPLERS:
            raise UsageError(f"sweep-c supports only {SWEEP_C_SAMPLERS}, got {kind!r}")
    if len(config.budgets) != 1:
        raise UsageError("sweep-c takes exactly one --budget")
    if bool(config.c_values) == bool(config.c_fractions):
        raise UsageError("sweep-c needs --c values or --c-frac fractions (not both)")
    _check_params_used(config, samplers)
    graph = _load_component(config)
    if config.c_fractions:
        cs = []
        for frac in config.c_fractions:
            c = max(1, round(frac * graph.d_max))
            if c not in cs:
                cs.append(c)
    else:
        cs = list(dict.fromkeys(config.c_values))
    budget = config.budgets[0]
    combos = [(kind, c, None, budget) for kind in samplers for c in cs]
    rows = _run_tasks(config, graph, combos)
    rows = rows + aggregate_rows(rows)
    meta = {
        "samplers": list(samplers),
        "budgets": [budget],
        "c_values": cs,
        "c_fractions": list(config.c_fractions) or None,
        "d_max": graph.d_max,
    }
    return render_rows(config, "sweep-c", rows, meta)


def cmd_analyze(config: ExperimentConfig) -> str:
    """Dense spectral and stationary diagnostics for one sampler (small graphs)."""
    if len(config.samplers) != 1:
        raise UsageError("analyze takes exactly one --sampler")
    _check_one_threshold(config, "analyze")
    _check_params_used(config, config.samplers)
    graph = _load_component(config)
    if graph.n > DENSE_CAP:
        raise SamplerError(
            f"largest component has {graph.n} nodes; dense analysis is capped at "
            f"{DENSE_CAP} (use run/sweep commands for large graphs)"
        )
    kind = config.samplers[0]
    c, alpha = _resolve_sampler_params(graph, config, kind)
    cfg = WalkConfig(kind=kind, c=c, alpha=alpha)
    matrix = dense_transition_matrix(graph, cfg)
    report = spectrum(matrix)
    closed = stationary_closed_form(graph, cfg)
    numeric = stationary_numeric(graph, cfg)
    numeric_dist = Distribution.over_nodes(numeric)
    payload = {
        "dataset": _dataset_name(config.dataset_path),
        "sampler": kind,
        "C": c,
        "alpha": _round12(alpha),
        "n": graph.n,
        "m": graph.m,
        "spectrum": {
            "eigenvalues": [[_round12(ev.real), _round12(ev.imag)] for ev in report.eigenvalues],
            "mu": _round12(report.second_largest_signed),
            "slem": _round12(report.slem),
        },
        "is_real_spectrum": report.is_real_spectrum,
        "stationary_closed_form": [_round12(x) for x in closed.tolist()],
        "stationary_numeric": [_round12(x) for x in numeric.tolist()],
        "closed_vs_numeric_l1_gap": _round12(float(np.abs(closed - numeric).sum())),
        "expected_repeat_probability": _round12(expected_repeat_probability(graph, cfg, numeric_dist)),
        "reversibility_residual": _round12(reversibility_residual(matrix, numeric_dist)),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
