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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .estimation import Distribution, degree_distribution_estimate, kl_divergence, true_degree_distribution, unique_count
from .graph import Graph, average_degree, graph_stats, largest_connected_component, load_edge_list
from .samplers import (
    RNG_ALGORITHM,
    SamplerError,
    WalkConfig,
    derive_seed,
    run_walks,
    stationary_closed_form,
    stationary_numeric,
)
from .spectral import DENSE_CAP, dense_transition_matrix, expected_repeat_probability, reversibility_residual, spectrum

CSV_HEADER = "dataset,sampler,C,alpha,budget,repetition,seed,kl,log10_kl,unique_nodes,wall_millis"
SAMPLER_ORDER = ("srw", "rwe", "md", "gmd", "wjrw")
SWEEP_C_SAMPLERS = ("gmd", "wjrw")
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
    """Round floats to 12 significant digits for stable JSON output."""
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

    def csv_line(self) -> str:
        cells = (
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
        return ",".join(_fmt(c) for c in cells)

    def to_dict(self) -> dict:
        out = {
            "dataset": self.dataset,
            "sampler": self.sampler,
            "C": self.c,
            "alpha": _round12(self.alpha),
            "budget": self.budget,
            "repetition": self.repetition,
            "seed": self.seed,
            "kl": _round12(self.kl),
            "log10_kl": _round12(self.log10_kl),
            "unique_nodes": _round12(self.unique_nodes),
            "wall_millis": _round12(self.wall_millis),
        }
        if self.kl_std is not None:
            out["kl_std"] = _round12(self.kl_std)
        if self.unique_nodes_std is not None:
            out["unique_nodes_std"] = _round12(self.unique_nodes_std)
        return out


@dataclass(frozen=True)
class _Task:
    """One repetition's worth of work; fully determines its ReportRow."""

    dataset: str
    sampler: str
    c: Optional[int]
    alpha: Optional[float]
    budget: int
    repetition: int
    seed: int
    burn_in: int
    timing: bool


def _walk_config(sampler: str, c: Optional[int], alpha: Optional[float], **walk) -> WalkConfig:
    """WalkConfig of one sampler with its resolved (c, alpha).

    ``c`` and ``alpha`` are None where the sampler takes none, as
    ``_resolve_sampler_params`` leaves them; ``walk`` carries the per-walk
    fields (budget, seed, burn_in).
    """
    return WalkConfig(kind=sampler, alpha=alpha, c=c, **walk)


def estimation_weights(graph: Graph, config: WalkConfig, mode: str) -> np.ndarray:
    """Per-node inclusion weights: formula stationary or the numeric one."""
    if mode == "paper":
        return stationary_closed_form(graph, config)
    if mode == "oracle":
        return stationary_numeric(graph, config)
    raise UsageError(f"unknown weights mode {mode!r}")


# Whole walkers are batched into one ``run_walks`` call up to this many
# recorded nodes, which bounds the traces held at once.
_BATCH_NODES = 1 << 20


def _batches(tasks: Sequence[_Task]):
    """Consecutive runs of tasks whose budgets sum to at most ``_BATCH_NODES``."""
    batch, nodes = [], 0
    for task in tasks:
        if batch and nodes + task.budget > _BATCH_NODES:
            yield batch
            batch, nodes = [], 0
        batch.append(task)
        nodes += task.budget
    if batch:
        yield batch


class _TaskRunner:
    """Runs slices of tasks on one graph, computing each group's weights once.

    The walks of a slice run in lockstep batches; each trace is then scored
    in task order. Under ``timing`` a row's ``wall_millis`` is its share of
    its batch's walk time, in proportion to its burn-in plus budget, plus
    the time spent scoring its own trace.
    """

    def __init__(self, graph: Graph, weight_mode: str):
        self.graph = graph
        self.truth = true_degree_distribution(graph)
        self.weight_mode = weight_mode
        self.weights: dict = {}

    def __call__(self, tasks: Sequence[_Task]) -> list[ReportRow]:
        rows = []
        for batch in _batches(tasks):
            configs = [
                _walk_config(t.sampler, t.c, t.alpha, budget=t.budget, seed=t.seed, burn_in=t.burn_in) for t in batch
            ]
            t0 = time.perf_counter()
            traces = run_walks(self.graph, configs)
            walk_s_per_step = (time.perf_counter() - t0) / sum(t.burn_in + t.budget for t in batch)
            for task, trace in zip(batch, traces):
                rows.append(self._score(task, trace, walk_s_per_step * (task.burn_in + task.budget)))
        return rows

    def _score(self, task: _Task, trace, walk_s: float) -> ReportRow:
        key = (task.sampler, task.c, task.alpha)
        if key not in self.weights:
            self.weights[key] = estimation_weights(self.graph, _walk_config(*key), self.weight_mode)
        t0 = time.perf_counter()
        kl = kl_divergence(self.truth, degree_distribution_estimate(trace, self.weights[key], self.graph))
        unique = unique_count(trace)
        millis = (walk_s + time.perf_counter() - t0) * 1000.0 if task.timing else None
        return ReportRow(
            dataset=task.dataset,
            sampler=task.sampler,
            c=task.c,
            alpha=task.alpha,
            budget=task.budget,
            repetition=task.repetition,
            seed=task.seed,
            kl=kl,
            log10_kl=math.log10(kl) if kl > 0 else None,
            unique_nodes=unique,
            wall_millis=millis,
        )


def _group_slices(tasks: Sequence[_Task], parts: int) -> list[list[_Task]]:
    """At most ``parts`` contiguous slices of whole (sampler, C, alpha) groups.

    Each group's tasks land in exactly one slice, so each group's weights
    are solved by one process. Cuts fall where the running total of walk
    steps (burn-in plus budget) is nearest an equal share.
    """
    groups: dict = {}
    for task in tasks:
        groups.setdefault((task.sampler, task.c, task.alpha), []).append(task)
    groups = list(groups.values())
    steps = [sum(t.burn_in + t.budget for t in group) for group in groups]
    parts = max(1, min(parts, len(groups)))
    share = sum(steps) / parts
    slices, current, done = [], [], 0
    for i, group in enumerate(groups):
        current += group
        done += steps[i]
        left = parts - len(slices) - 1  # slices still to open after this one
        # Cut when every group left must open a slice of its own, or when the
        # next group would overshoot this slice's share by more than half.
        if left and (len(groups) - i - 1 == left or done + steps[i + 1] / 2 >= share * (len(slices) + 1)):
            slices.append(current)
            current = []
    slices.append(current)
    return slices


_POOL_RUNNER: Optional[_TaskRunner] = None  # set in each pool worker


def _worker_init(graph: Graph, weight_mode: str) -> None:
    global _POOL_RUNNER
    _POOL_RUNNER = _TaskRunner(graph, weight_mode)


def _worker_run(tasks: list[_Task]) -> list[ReportRow]:
    return _POOL_RUNNER(tasks)


def _run_tasks(config: ExperimentConfig, graph: Graph, tasks: list[_Task]) -> list[ReportRow]:
    """Run every task, in a process pool or in this process, sorted by group.

    The pool maps one slice of whole groups to each worker. Workers receive
    the graph as an initializer argument; under the fork start method they
    inherit it without copying or re-parsing.
    """
    slices = _group_slices(tasks, config.parallel or os.cpu_count() or 1)
    if len(slices) > 1:
        with ProcessPoolExecutor(
            max_workers=len(slices),
            initializer=_worker_init,
            initargs=(graph, config.weight_mode),
        ) as pool:
            rows = [row for part in pool.map(_worker_run, slices) for row in part]
    else:
        rows = _TaskRunner(graph, config.weight_mode)(tasks)
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
    order = []
    for row in rows:
        key = (row.sampler, row.c, row.alpha, row.budget)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    out = []
    for key in order:
        members = groups[key]
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


def _resolve_sampler_params(graph: Graph, config: ExperimentConfig, kind: str, c_override: Optional[int] = None):
    """(c, alpha) actually used for one sampler on this graph."""
    c = None
    alpha = None
    if kind in ("gmd", "wjrw"):
        if c_override is not None:
            c = c_override
        elif config.c_values:
            c = config.c_values[0]
        else:
            c = max(1, graph.d_max // 2)
    if kind == "rwe":
        alpha = config.alpha if config.alpha is not None else average_degree(graph)
    return c, alpha


def _make_tasks(config: ExperimentConfig, combos) -> list[_Task]:
    """combos: iterable of (sampler, c, alpha, budget)."""
    name = _dataset_name(config.dataset_path)
    tasks = []
    for sampler, c, alpha, budget in combos:
        for rep in range(config.repetitions):
            tasks.append(
                _Task(
                    dataset=name,
                    sampler=sampler,
                    c=c,
                    alpha=alpha,
                    budget=budget,
                    repetition=rep,
                    seed=derive_seed(config.base_seed, rep),
                    burn_in=config.burn_in,
                    timing=config.timing,
                )
            )
    return tasks


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
    if len(config.c_values) > 1 or config.c_fractions:
        raise UsageError("run takes at most one --c (use sweep-c for ranges)")
    graph = _load_component(config)
    kind = config.samplers[0]
    c, alpha = _resolve_sampler_params(graph, config, kind)
    tasks = _make_tasks(config, [(kind, c, alpha, config.budgets[0])])
    rows = _run_tasks(config, graph, tasks)
    meta = {"samplers": [kind], "budgets": list(config.budgets), "c": c, "alpha": _round12(alpha)}
    return render_rows(config, "run", rows, meta)


def cmd_sweep_budget(config: ExperimentConfig) -> str:
    """Samplers x budgets x repetitions, plus one mean row per group."""
    if not config.samplers:
        raise UsageError("sweep-budget needs at least one --sampler")
    if not config.budgets:
        raise UsageError("sweep-budget needs at least one --budget")
    if config.c_fractions:
        raise UsageError("--c-frac belongs to sweep-c")
    graph = _load_component(config)
    combos = []
    resolved = {}
    for kind in config.samplers:
        c, alpha = _resolve_sampler_params(graph, config, kind)
        resolved[kind] = {"c": c, "alpha": _round12(alpha)}
        for budget in config.budgets:
            combos.append((kind, c, alpha, budget))
    tasks = _make_tasks(config, combos)
    rows = _run_tasks(config, graph, tasks)
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
    tasks = _make_tasks(config, combos)
    rows = _run_tasks(config, graph, tasks)
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
    graph = _load_component(config)
    if graph.n > DENSE_CAP:
        raise SamplerError(
            f"largest component has {graph.n} nodes; dense analysis is capped at "
            f"{DENSE_CAP} (use run/sweep commands for large graphs)"
        )
    kind = config.samplers[0]
    c, alpha = _resolve_sampler_params(graph, config, kind)
    cfg = _walk_config(kind, c, alpha)
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
