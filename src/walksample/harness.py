"""Experiment harness behind the command line.

Loads an edge-list dataset, restricts sampling to its largest connected
component, runs seeded repetitions of the configured walks, scores each
trace's degree-distribution estimate against the exact distribution, and
renders CSV or JSON reports. Also exposes dataset stats and a dense
spectral diagnostic for small graphs.

Determinism contract: repetition r of every command uses a seed derived
only from (base_seed, r), each command's walk groups are built in report
order (sampler, threshold, budget) and its rows come out in walk order, and
wall-clock timing is left blank unless explicitly requested, so identical
configs produce byte-identical output and parallel execution matches
sequential execution exactly.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .estimation import degree_estimate_from_pi, kl_divergence, true_degree_distribution, unique_count
from .graph import Graph, average_degree, largest_connected_component, load_edge_list, tvd_srw_vs_uniform
from .samplers import (
    KINDS_READING,
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
SWEEP_C_SAMPLERS = tuple(kind.value for kind in KINDS_READING["c"])
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
    """Everything one harness command needs, resolved from flags and file;
    list fields keep the order given, each value once."""

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
        for name in ("samplers", "budgets", "c_values", "c_fractions"):
            object.__setattr__(self, name, tuple(dict.fromkeys(getattr(self, name))))
        for kind in self.samplers:
            if kind not in SAMPLER_ORDER:
                raise UsageError(f"unknown sampler {kind!r}")
        for name, flag in (("repetitions", "reps"), ("parallel", "parallel")):
            if not isinstance(getattr(self, name), Integral):
                raise UsageError(f"{flag} must be an integer")
        if self.repetitions < 1:
            raise UsageError("reps must be >= 1")
        if self.repetitions >= 1 << 31:  # found here, not while listing reps walks a group
            raise UsageError("reps must be < 2^31")
        try:  # each walk value is checked by building a walk of it, before the dataset loads
            for budget in self.budgets or (1,):
                WalkConfig(kind="srw", budget=budget, burn_in=self.burn_in, seed=self.base_seed)
            for c in self.c_values:
                WalkConfig(kind="gmd", c=c)
            if self.alpha is not None:
                object.__setattr__(self, "alpha", WalkConfig(kind="rwe", alpha=self.alpha).alpha)
        except SamplerError as exc:
            raise UsageError(str(exc)) from None
        if not all(isinstance(f, Real) and 0 < f <= 1 for f in self.c_fractions):
            raise UsageError("c-frac must lie in (0, 1]")
        if self.output_format not in OUTPUT_FORMATS:
            raise UsageError(f"unknown format {self.output_format!r}")
        if self.weight_mode not in WEIGHT_MODES:
            raise UsageError(f"unknown weights mode {self.weight_mode!r}")
        if self.parallel < 0:
            raise UsageError("parallel must be >= 0")
        if not 0 <= self.base_seed < 1 << 64:
            raise UsageError("seed must lie in [0, 2^64)")


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
        """The values of ``_COLUMNS``: the row's first fields, in order."""
        return tuple(getattr(self, f.name) for f in fields(self)[: len(_COLUMNS)])

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


def _even_slices(steps: np.ndarray, parts: int) -> list[range]:
    """At most ``parts`` contiguous, non-empty ranges of walk indices, of about
    equal walk steps, where ``steps[i]`` is walk i's burn-in plus budget.

    A walk joins the range its middle step falls in, so each range is within
    one walk of an equal share, and no range is empty: there are never more
    ranges than walks, however large ``parts`` is, nor more than ``parts``:
    the steps are summed in float64 (exact below 2^53; an int64 sum wraps)
    and a rounded share is held in [0, parts) and never below the last.
    """
    cum = np.cumsum(steps, dtype=np.float64)
    shares = np.minimum(np.floor((cum - steps / 2) * parts / cum[-1]), parts - 1)
    bounds = [0, *(np.flatnonzero(np.diff(np.maximum.accumulate(shares))) + 1), len(steps)]
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


_SWEEP: tuple = ()  # set in each pool worker


def _worker_init(cpus, *sweep) -> None:
    """Keep the sweep, and pin this worker to the CPU id at the head of the
    ``cpus`` queue, which it puts back at the tail: workers take the ids in
    turn, round-robin once there are more workers than ids. Where
    ``sched_setaffinity`` is missing or refuses, the worker runs unpinned."""
    global _SWEEP
    _SWEEP = sweep
    cpu = cpus.get()
    cpus.put(cpu)
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        pass


def _walk_slice(span: range, sweep: tuple = ()) -> list[ReportRow]:
    """The report row of each walk in ``span``, a range of the sweep's walk indices.

    ``sweep`` is (config, graph, groups, truth, weights by law); a pool
    worker reads the one its initializer received. Walk i is repetition
    i mod R of group i div R, seeded by ``derive_seed(base_seed, i mod R)``;
    the slice lists only its own walks and runs them as one lockstep batch.
    A law's weights are its pi per degree class under ``paper`` (a node's
    closed form depends on its degree alone), or its solved (n,) vector
    under ``oracle``. Under timing a walk's millis are its share of the
    slice's walk time, in proportion to its burn-in plus budget, plus the
    time spent scoring its own trace.
    """
    config, graph, groups, truth, weights = sweep or _SWEEP
    category = graph.degree_classes[1]
    places = [divmod(index, config.repetitions) for index in span]
    walks = [
        WalkConfig(
            kind=kind, c=c, alpha=alpha, budget=budget, seed=derive_seed(config.base_seed, rep), burn_in=config.burn_in
        )
        for group, rep in places
        for kind, c, alpha, budget in [groups[group]]
    ]
    dataset = Path(config.dataset_path).stem
    t0 = time.perf_counter()
    traces = run_walks(graph, walks)
    walk_s_per_step = (time.perf_counter() - t0) / sum(w.burn_in + w.budget for w in walks)
    rows = []
    for (_, rep), walk, nodes in zip(places, walks, traces):
        t0 = time.perf_counter()
        pi, by_class = weights[walk.kind, walk.c, walk.alpha]
        estimate = degree_estimate_from_pi(nodes, pi.take(category.take(nodes) if by_class else nodes), graph)
        kl = kl_divergence(truth, estimate)
        unique = unique_count(nodes)
        walk_s = walk_s_per_step * (walk.burn_in + walk.budget)
        millis = (walk_s + time.perf_counter() - t0) * 1000.0 if config.timing else None
        rows.append(
            ReportRow(
                dataset=dataset,
                sampler=walk.kind.value,
                c=walk.c,
                alpha=walk.alpha,
                budget=walk.budget,
                repetition=rep,
                seed=walk.seed,
                kl=kl,
                log10_kl=math.log10(kl) if kl > 0 else None,
                unique_nodes=unique,
                wall_millis=millis,
            )
        )
    return rows


def _run_tasks(config: ExperimentConfig, graph: Graph, groups: Sequence[tuple]) -> list[ReportRow]:
    """Run R repetitions of every (sampler, c, alpha, budget) group; one row
    per walk, in walk order: each group's R walks in a row.

    The truth and each law's weights are computed once, here (under
    ``paper`` one value per degree class, read off the closed form's (n,)
    vector, which is not kept); the walk
    indices are then cut once into ranges of about equal walk steps, and
    this process or a process pool maps ``_walk_slice`` over them, which
    lists each range's walks itself. Pool workers receive the config,
    graph, groups and weights through the initializer; under the fork start
    method they inherit them without copying. Each worker runs on one CPU of
    this process's affinity set, in turn. ``parallel`` 0 means one worker
    per CPU in that set.
    """
    truth = true_degree_distribution(graph)
    support, category = graph.degree_classes
    weights: dict = {}  # law -> (pi, whether pi is indexed by degree class rather than node)
    for kind, c, alpha in dict.fromkeys(group[:3] for group in groups):
        law = WalkConfig(kind=kind, c=c, alpha=alpha)
        if config.weight_mode == "paper":
            # Every class has a node, so every slot is written.
            by_class = np.empty(len(support))
            by_class[category] = stationary_closed_form(graph, law)
            weights[law.kind, law.c, law.alpha] = (by_class, True)
        else:
            weights[law.kind, law.c, law.alpha] = (estimation_weights(graph, law, "oracle"), False)
    sweep = (config, graph, groups, truth, weights)

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    workers = config.parallel or len(cpus)
    group_steps = [config.burn_in + budget for *_, budget in groups]
    total_steps = config.repetitions * sum(group_steps)  # a Python int: an int64 sum could wrap
    steps = np.repeat(group_steps, config.repetitions)
    slices = _even_slices(steps, max(workers, math.ceil(total_steps / _BATCH_STEPS)))
    if workers > 1 and len(slices) > 1:
        import multiprocessing  # only a pool pays its import
        from concurrent.futures import ProcessPoolExecutor

        # A kernel that does not balance load across CPUs leaves every
        # forked worker on its parent's CPU, where they take turns; so each
        # worker pins itself to one of these ids (see _worker_init). The
        # queue and the pool share one start method: a queue made for fork
        # cannot be pickled into a spawned worker.
        context = multiprocessing.get_context()
        queue = context.SimpleQueue()
        for cpu in cpus[: min(workers, len(slices))]:
            queue.put(cpu)
        with ProcessPoolExecutor(
            max_workers=min(workers, len(slices)),
            mp_context=context,
            initializer=_worker_init,
            initargs=(queue, *sweep),
        ) as pool:
            parts = list(pool.map(_walk_slice, slices))
    else:
        parts = [_walk_slice(span, sweep) for span in slices]
    return [row for part in parts for row in part]


def _mean(values: list) -> Optional[float]:
    return None if None in values else float(np.mean(values))


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


def _load_component(config: ExperimentConfig) -> Graph:
    graph, _ = load_edge_list(config.dataset_path)
    return largest_connected_component(graph)


def _check_walk_params(config: ExperimentConfig, command: str, samplers: Sequence[str]) -> None:
    """Reject more than one threshold outside sweep-c, and a --c or --alpha
    that none of the command's samplers reads."""
    if command != "sweep-c":
        if len(config.c_values) > 1:
            raise UsageError(f"{command} takes at most one --c (use sweep-c for ranges)")
        if config.c_fractions:
            raise UsageError("--c-frac belongs to sweep-c")
    given = {"c": bool(config.c_values), "alpha": config.alpha is not None}
    for param, kinds in KINDS_READING.items():
        if given[param] and not any(kind in kinds for kind in samplers):
            raise UsageError(f"--{param} applies only to {' and '.join(kind.value for kind in kinds)}")


def _thresholds(config: ExperimentConfig, graph: Graph) -> list[int]:
    """The distinct thresholds in the order given: --c, else the --c-frac
    fractions of d_max, else d_max // 2."""
    fractions = [max(1, round(frac * graph.d_max)) for frac in config.c_fractions]
    return list(dict.fromkeys(config.c_values or fractions or [max(1, graph.d_max // 2)]))


def _walk_groups(config: ExperimentConfig, graph: Graph, samplers: Sequence[str], budgets: Sequence) -> list[tuple]:
    """A command's distinct (sampler, C, alpha, budget) groups in report order
    (``SAMPLER_ORDER``, then C, then budget). Each kind gets only the
    parameters it reads: every threshold, and --alpha or else the mean degree."""
    thresholds = sorted(_thresholds(config, graph))
    alpha = config.alpha if config.alpha is not None else average_degree(graph)
    return [
        (kind, c, alpha if kind in KINDS_READING["alpha"] else None, budget)
        for kind in SAMPLER_ORDER
        if kind in samplers
        for c in (thresholds if kind in KINDS_READING["c"] else [None])
        for budget in sorted(budgets)
    ]


def cmd_stats(config: ExperimentConfig) -> str:
    """Whole-graph and largest-component statistics as a JSON object."""
    graph, report = load_edge_list(config.dataset_path)
    tvd = tvd_srw_vs_uniform(graph)
    lcc = largest_connected_component(graph)
    payload = {
        "dataset": Path(config.dataset_path).stem,
        "n": graph.n,
        "m": graph.m,
        "d_max": graph.d_max,
        "avg_degree": _round12(average_degree(graph)),
        "tvd_srw_vs_uniform": _round12(tvd),
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
    _check_walk_params(config, "run", config.samplers)
    graph = _load_component(config)
    groups = _walk_groups(config, graph, config.samplers, config.budgets)
    rows = _run_tasks(config, graph, groups)
    [(kind, c, alpha, _)] = groups
    meta = {"samplers": [kind], "budgets": list(config.budgets), "c": c, "alpha": _round12(alpha)}
    return render_rows(config, "run", rows, meta)


def cmd_sweep_budget(config: ExperimentConfig) -> str:
    """Samplers x budgets x repetitions, plus one mean row per group."""
    if not config.samplers:
        raise UsageError("sweep-budget needs at least one --sampler")
    if not config.budgets:
        raise UsageError("sweep-budget needs at least one --budget")
    _check_walk_params(config, "sweep-budget", config.samplers)
    graph = _load_component(config)
    groups = _walk_groups(config, graph, config.samplers, config.budgets)
    rows = _run_tasks(config, graph, groups)
    rows = rows + aggregate_rows(rows)
    resolved = {kind: {"c": c, "alpha": _round12(alpha)} for kind, c, alpha, _ in groups}
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
    _check_walk_params(config, "sweep-c", samplers)
    graph = _load_component(config)
    rows = _run_tasks(config, graph, _walk_groups(config, graph, samplers, config.budgets))
    rows = rows + aggregate_rows(rows)
    meta = {
        "samplers": list(samplers),
        "budgets": list(config.budgets),
        "c_values": _thresholds(config, graph),
        "c_fractions": list(config.c_fractions) or None,
        "d_max": graph.d_max,
    }
    return render_rows(config, "sweep-c", rows, meta)


def cmd_analyze(config: ExperimentConfig) -> str:
    """Dense spectral and stationary diagnostics for one sampler (small graphs)."""
    if len(config.samplers) != 1:
        raise UsageError("analyze takes exactly one --sampler")
    _check_walk_params(config, "analyze", config.samplers)
    graph = _load_component(config)
    if graph.n > DENSE_CAP:
        raise UsageError(
            f"largest component has {graph.n} nodes; dense analysis is capped at "
            f"{DENSE_CAP} (use run/sweep commands for large graphs)"
        )
    [(kind, c, alpha, _)] = _walk_groups(config, graph, config.samplers, [None])
    cfg = WalkConfig(kind=kind, c=c, alpha=alpha)
    matrix = dense_transition_matrix(graph, cfg)
    report = spectrum(matrix)
    closed = stationary_closed_form(graph, cfg)
    numeric = stationary_numeric(graph, cfg)
    payload = {
        "dataset": Path(config.dataset_path).stem,
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
        "expected_repeat_probability": _round12(expected_repeat_probability(graph, cfg, numeric)),
        "reversibility_residual": _round12(reversibility_residual(matrix, numeric)),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
