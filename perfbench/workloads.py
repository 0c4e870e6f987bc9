"""The benchmark's workloads and the checks applied to every output.

Each workload is a closed loop: one iteration runs its CLI command(s) one
after another from one process, and the next iteration starts when the last
command has exited. Inputs come from the workload seed: the graph is
generated from it and it is passed on as the CLI's ``--seed``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

SAMPLERS = ("srw", "rwe", "md", "gmd", "wjrw")
# Frozen CSV schema of the sweep and run commands.
CSV_HEADER = "dataset,sampler,C,alpha,budget,repetition,seed,kl,log10_kl,unique_nodes,wall_millis"


class CheckFailed(Exception):
    """An output broke one of the benchmark's correctness checks."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation of an iteration."""

    subcommand: str  # sweep-budget, run or analyze
    samplers: tuple[str, ...]
    budgets: tuple[int, ...] = ()
    reps: int = 100
    weights: str = "paper"
    c: Optional[int] = None
    parallel: int = 1

    @property
    def groups(self) -> int:
        return len(self.samplers) * len(self.budgets)

    @property
    def steps(self) -> int:
        """Walk steps (recorded trace nodes) the command takes."""
        return len(self.samplers) * sum(self.budgets) * self.reps

    def argv(self, dataset: str, seed: int, out: str) -> list[str]:
        args = [self.subcommand, "--dataset", dataset, "--seed", str(seed), "--out", out]
        for kind in self.samplers:
            args += ["--sampler", kind]
        if self.subcommand == "analyze":
            return args + ["--format", "json"]
        for budget in self.budgets:
            args += ["--budget", str(budget)]
        args += ["--reps", str(self.reps), "--weights", self.weights, "--parallel", str(self.parallel)]
        if self.c is not None:
            args += ["--c", str(self.c)]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # nodes of the generated graph
    commands: tuple[Command, ...]
    # Output must equal, byte for byte, what this workload writes for the
    # same seed (the process pool must not change results).
    same_bytes_as: Optional["Workload"] = None

    @property
    def steps(self) -> int:
        return sum(cmd.steps for cmd in self.commands)

    @property
    def groups(self) -> int:
        return sum(cmd.groups for cmd in self.commands)


@dataclass(frozen=True)
class Quality:
    """Deterministic accuracy figures of one command's output."""

    kl_means: tuple[float, ...]  # per group
    unique_fracs: tuple[float, ...]  # mean unique nodes over budget, per group


def _float(cell: str, what: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CheckFailed(f"{what} {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what} {cell!r} is not finite")
    return value


def check_rows(cmd: Command, text: str) -> Quality:
    """CSV of sweep-budget (rows plus one mean row per group) or run (rows only)."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed("CSV header differs from the frozen schema")
    rows = [line.split(",") for line in lines[1:]]
    per_group = cmd.reps + (1 if cmd.subcommand == "sweep-budget" else 0)
    if len(rows) != cmd.groups * per_group:
        raise CheckFailed(f"{len(rows)} rows, expected {cmd.groups} groups x {per_group}")
    groups: dict[tuple[str, str], list[list[str]]] = {}
    for row in rows:
        if len(row) != 11:
            raise CheckFailed(f"row has {len(row)} cells, expected 11")
        kl = _float(row[7], "kl")
        if kl < 0:
            raise CheckFailed(f"negative kl {kl}")
        groups.setdefault((row[1], row[4]), []).append(row)
    if len(groups) != cmd.groups:
        raise CheckFailed(f"{len(groups)} (sampler, budget) groups, expected {cmd.groups}")
    kls, uniques = [], []
    for (sampler, budget), members in groups.items():
        means = [r for r in members if r[5] == "mean"]
        if cmd.subcommand == "sweep-budget" and len(means) != 1:
            raise CheckFailed(f"group {sampler}/{budget} has {len(means)} mean rows")
        reps = [r for r in members if r[5] != "mean"]
        kl = _float(means[0][7], "mean kl") if means else sum(_float(r[7], "kl") for r in reps) / len(reps)
        unique = sum(_float(r[9], "unique_nodes") for r in reps) / len(reps)
        if unique > int(budget):
            raise CheckFailed(f"group {sampler}/{budget}: {unique} unique nodes exceed the budget")
        kls.append(kl)
        uniques.append(unique / int(budget))
    return Quality(tuple(kls), tuple(uniques))


def check_analyze(n: int, text: str) -> None:
    """JSON of analyze: the graph size, a leading eigenvalue of 1, the weight gap."""
    try:
        payload = json.loads(text)
        lead_re, lead_im = payload["spectrum"]["eigenvalues"][0]
        gap = payload["closed_vs_numeric_l1_gap"]
        size = payload["n"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CheckFailed(f"analyze output is malformed: {exc!r}") from None
    if size != n:
        raise CheckFailed(f"analyze saw {size} nodes, expected {n}")
    if abs(lead_re - 1.0) > 1e-9 or abs(lead_im) > 1e-9:
        raise CheckFailed(f"leading eigenvalue {lead_re}+{lead_im}j is not 1")
    if not isinstance(gap, (int, float)) or not math.isfinite(gap) or gap < 0:
        raise CheckFailed(f"closed_vs_numeric_l1_gap {gap!r} is not a finite distance")


def check_output(cmd: Command, n: int, text: str) -> Optional[Quality]:
    if cmd.subcommand == "analyze":
        check_analyze(n, text)
        return None
    return check_rows(cmd, text)


# R=25, not the CLI's 100: one command then takes ~2.5 s, short enough that
# the host-speed calibrations right before and after it track the host
# (calibrate.py). At R=100 (7 s) the scaled times spread as much as raw ones.
_SWEEP = dict(subcommand="sweep-budget", samplers=SAMPLERS, budgets=(1000, 5000), reps=25)


def workloads(nproc: int) -> dict[str, Workload]:
    """The benchmark's workloads; ``nproc`` sizes the process pool."""
    # Single-process baseline: walking and estimation dominate.
    seq = Workload("walk-seq", 11631, (Command(**_SWEEP),))
    return {
        w.name: w
        for w in (
            seq,
            # Same command through the process pool: worker start, per-worker
            # re-parse and weight solve, chunked map. Bytes must match walk-seq.
            Workload("walk-pool", 11631, (Command(**_SWEEP, parallel=nproc),), same_bytes_as=seq),
            # Parse and exact (power-iteration) weights dominate; walking is ~3%.
            # A 9.6 MB file, 600k lines: at n=35k the iteration time followed
            # the host's memory contention (+-20%), at 20k it stayed within
            # +-7%. c is pinned near the mean degree: at the default d_max // 2
            # the gmd power iteration alone dwarfs everything else.
            Workload(
                "ingest-oracle",
                20000,
                (Command("sweep-budget", SAMPLERS, (1000,), reps=10, weights="oracle", c=30),),
            ),
            # The only path into the dense spectral layer, then a short walk of
            # the same chain so the accuracy figures exist for this graph too.
            Workload(
                "analyze-dense",
                2000,
                (Command("analyze", ("wjrw",)), Command("run", ("wjrw",), (1000,), reps=100)),
            ),
        )
    }
