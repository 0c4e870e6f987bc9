"""Toy-size self-check of the benchmark itself (not part of the test suite).

    python3 perfbench/selfcheck.py

Runs every workload shape at toy size, untraced and traced, and asserts that
each metric declared in BENCHMARK.json is reported with its unit, that good
outputs pass, that corrupted outputs and a wrong ingest report count as
failures, and that the benchmark refuses to run without the package source. Takes about a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import SAMPLERS, CheckFailed, Command, Workload  # noqa: E402

ROOT = run.BENCH_DIR.parent
SEED = 3


def toy_workloads(nproc: int) -> list[Workload]:
    sweep = dict(subcommand="sweep-budget", samplers=SAMPLERS, budgets=(40, 80), reps=3)
    seq = Workload("toy-walk-seq", 120, (Command(**sweep),))
    return [
        seq,
        Workload("toy-walk-pool", 120, (Command(**sweep, parallel=nproc),), same_bytes_as=seq),
        Workload("toy-ingest-oracle", 150, (Command("sweep-budget", SAMPLERS, (40,), reps=2, weights="oracle", c=20),)),
        Workload("toy-analyze-dense", 60, (Command("analyze", ("wjrw",)), Command("run", ("wjrw",), (50,), reps=3))),
    ]


class CorruptingBench(run.Bench):
    """Flips the first output's KL cell, or the leading eigenvalue, after each command."""

    def spawn(self, argv):
        result = super().spawn(argv)
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            text = out.read_text(encoding="utf-8")
            if text.startswith("{"):
                payload = json.loads(text)
                payload["spectrum"]["eigenvalues"][0][0] = 0.5
                out.write_text(json.dumps(payload), encoding="utf-8")
            else:
                lines = text.splitlines()
                cells = lines[1].split(",")
                cells[7] = "nan"
                lines[1] = ",".join(cells)
                out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return result


class MiscountingBench(run.Bench):
    """Expects one self-loop more than the file holds, as a misparse would show."""

    def ensure_graph(self):
        graph = super().ensure_graph()
        self.graph = dataclasses.replace(graph, self_loops=graph.self_loops + 1)
        return self.graph


def check_reported(trace: bool, result: dict, printed: str) -> None:
    declared = run.declared_metrics(ROOT, trace)
    assert set(result["metrics"]) == set(declared), sorted(set(result["metrics"]) ^ set(declared))
    for name, unit in declared.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit and math.isfinite(metric["value"]), (name, metric)
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in printed.splitlines()), name
    last = json.loads(printed.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()


def measure_toy(workload: Workload, trace: bool, scratch: Path, bench_class=run.Bench):
    nproc = len(os.sched_getaffinity(0))
    scratch = scratch / f"{workload.name}-{int(trace)}-{bench_class.__name__}"
    scratch.mkdir()
    bench = bench_class(ROOT, workload, SEED, nproc, scratch)
    metrics, iterations, environment = run.measure(bench, 0.0, trace)
    result = run.result_line(ROOT, trace, metrics, iterations)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        run.report(f"workload={workload.name} trace={int(trace)}", environment, iterations, result)
    return bench, iterations, result, printed.getvalue()


def check_corruptions(bench: run.Bench, outputs: list[str]) -> None:
    """Each corrupted copy of a good output must fail the checks."""
    workload, n = bench.workload, bench.graph.n
    text = outputs[0]
    lines = text.splitlines()
    if workload.commands[0].subcommand == "analyze":
        payload = json.loads(text)
        del payload["closed_vs_numeric_l1_gap"]
        bad = [json.dumps(payload), text.replace('"n": ', '"n": 1')]
    else:
        cells = lines[1].split(",")
        bad = [
            "\n".join(lines[:-1]) + "\n",  # a row missing
            "\n".join([lines[0].replace("kl", "KL", 1)] + lines[1:]) + "\n",  # header changed
            "\n".join([lines[0], ",".join(cells[:7] + ["-0.5"] + cells[8:])] + lines[2:]) + "\n",  # negative KL
            "\n".join([lines[0], ",".join(cells[:7] + ["inf"] + cells[8:])] + lines[2:]) + "\n",  # infinite KL
        ]
    for corrupted in bad:
        try:
            run.evaluate(workload, n, [corrupted] + outputs[1:], None)
        except CheckFailed:
            continue
        raise AssertionError(f"{workload.name}: corrupted output passed the checks")
    changed = outputs[:-1] + [outputs[-1] + " "]
    try:
        run.evaluate(workload, n, outputs, changed)
    except CheckFailed:
        return
    raise AssertionError(f"{workload.name}: output differing from the reference passed")


def check_refuses_without_source(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk-seq", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0, proc.returncode
    assert not proc.stdout.strip(), proc.stdout


def main() -> int:
    scratch = run.CACHE_DIR / f"selfcheck-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        for workload in toy_workloads(len(os.sched_getaffinity(0))):
            for trace in (False, True):
                bench, iterations, result, printed = measure_toy(workload, trace, scratch)
                assert result["correct"] and result["failed"] == 0, [it.error for it in iterations]
                check_reported(trace, result, printed)
            check_corruptions(bench, iterations[0].outputs)
            _, iterations, result, printed = measure_toy(workload, False, scratch, CorruptingBench)
            assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
            check_reported(False, result, printed)
            if workload.name == "toy-walk-seq":
                for trace in (False, True):
                    _, _, result, _ = measure_toy(workload, trace, scratch, MiscountingBench)
                    assert not result["correct"] and result["failed"] == result["attempted"], result
            print(f"ok {workload.name}")
        check_refuses_without_source(scratch)
        print("ok refuses to run without src/walksample")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
