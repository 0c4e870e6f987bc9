"""walksample benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload walk-seq --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. The workloads are in ``workloads.py``. Each run

1. generates the workload's graph from the seed (untimed, cached under
   ``.perfbench_cache/`` at the checkout root),
2. runs a fresh probe process that records the environment and checks the
   ingest report against what the generator injected,
3. runs the workload's CLI commands in a closed loop for ``--seconds``
   seconds and checks every output.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``;
the probe also times the set-up several times. With ``--trace 1`` the loop
alternates untraced and traced iterations (see ``tracing.py``) and the run
reports the per-layer metrics, including the tracing overhead. Timings are
medians over the loop's iterations.

End-to-end times are scaled to a host running at reference speed: each CLI
command and each set-up is bracketed by a host-speed calibration on the CPUs
it runs on (see ``calibrate.py``), because a shared host's speed drifts by
20-40% in phases as long as a run. A single-process workload is pinned to one
CPU, so that it and its calibrations share a core; the pool workload gets all
of them. Raw times are printed beside the scaled ones; per-layer times are
raw, except ``trace_overhead_s``, a difference of scaled iteration times.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
from graphgen import EdgeListInput  # noqa: E402
from workloads import SAMPLERS, CheckFailed, Quality, Workload, check_output, workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR.parent / ".perfbench_cache"  # inputs and references; git-ignored
SETUP_REPEATS = 3  # at least, and for at least SETUP_SECONDS
SETUP_SECONDS = 2.0
STARTUP_REPEATS = 3
MIN_ITERATIONS = 3  # so every timing is a median of at least three
CHILD_TIMEOUT_S = 170.0
LOOP_LIMIT_S = 120.0  # stop starting iterations well before the 180 s run limit


class BenchError(Exception):
    """The benchmark cannot run here (no package source, a probe failed)."""


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    outputs: list[str]
    error: Optional[str] = None
    qualities: list[Quality] = field(default_factory=list)
    span_dir: Optional[Path] = None
    # The same times with each command scaled to reference host speed by the
    # calibrations right before and after it (calibrate.py).
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0


class Bench:
    """State of one benchmark run inside one checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int, nproc: int, scratch: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.nproc = nproc
        self.scratch = scratch
        # A single-process workload runs pinned to one CPU, where its
        # calibrations run too; a pool workload gets every CPU.
        own = sorted(os.sched_getaffinity(0))
        self.cpus = own if any(cmd.parallel > 1 for cmd in workload.commands) else own[:1]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(len(self.cpus))
        self.counter = 0
        self.graph: Optional[EdgeListInput] = None
        self.calibration: Optional[float] = None  # the latest, in seconds

    # -- inputs -------------------------------------------------------------

    def ensure_graph(self) -> EdgeListInput:
        """Generate (or reuse) this seed's graph; generation is not timed.

        It runs in a child so this process stays small: a child's peak RSS
        starts from its parent's at fork.
        """
        path = CACHE_DIR / "graphs" / f"pa-{self.workload.n}-{self.seed}.txt"
        if not EdgeListInput.meta_path(path).exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            argv = [sys.executable, str(BENCH_DIR / "graphgen.py"), str(self.workload.n), str(self.seed), str(path)]
            code, err = self.spawn(argv)[3:]
            if code != 0:
                raise BenchError(f"graph generation exited with {code}: {err.strip()[-2000:]}")
        self.graph = EdgeListInput.load(path)
        return self.graph

    def code_digest(self) -> str:
        digest = hashlib.sha256()
        for path in sorted((self.root / "src" / "walksample").rglob("*.py")):
            digest.update(path.relative_to(self.root).as_posix().encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()[:16]

    # -- child processes ----------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[float, float, float, int, str]:
        """Run one child to completion: wall, cpu (children included), peak RSS, exit code, stderr."""
        err_path = self.scratch / f"stderr-{self.counter}.txt"
        self.counter += 1
        own = os.sched_getaffinity(0)
        with open(err_path, "wb") as err:
            os.sched_setaffinity(0, self.cpus)  # the child inherits it
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(
                    argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
                )
            finally:
                os.sched_setaffinity(0, own)
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:  # kill any worker the command left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")

    def probe(self, repeats: int, gap: bool) -> dict:
        cmd = self.workload.commands[-1]
        weights = "both" if self.workload.commands[0].subcommand == "analyze" else cmd.weights
        spec = {
            "dataset": str(self.graph.path), "samplers": list(cmd.samplers), "c": cmd.c,
            "weights": weights, "repeats": repeats, "min_seconds": SETUP_SECONDS, "gap": gap,
        }
        out_path = self.scratch / f"probe-{self.counter}.json"
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), json.dumps(spec), str(out_path)]
        _, _, _, code, err = self.spawn(argv)
        if code != 0:
            raise BenchError(f"probe exited with {code}: {err.strip()[-2000:]}")
        return json.loads(out_path.read_text(encoding="utf-8"))

    def ingest_error(self, probe: dict) -> Optional[str]:
        """Mismatch between the probe's ingest report and what was generated."""
        expected = dict(self.graph.expected_report(), lcc_n=self.graph.n, lcc_m=self.graph.m)
        if probe["ingest"] != expected:
            return f"ingest report {probe['ingest']} differs from the generated {expected}"
        return None

    def startup_s(self) -> float:
        walls = [self.spawn([sys.executable, "-c", "import walksample"])[0] for _ in range(STARTUP_REPEATS)]
        return statistics.median(walls)

    # -- iterations ---------------------------------------------------------

    def iterate(self, traced: bool, reference: Optional[list[str]]) -> Iteration:
        """One closed-loop iteration: every command of the workload, in order."""
        request = self.counter
        work = self.scratch / f"iter-{request}"
        work.mkdir()
        wall = cpu = rss = scaled_wall = scaled_cpu = 0.0
        outputs, error = [], None
        if self.calibration is None:
            self.calibration = calibrate.calibration_s(self.cpus)
        for i, cmd in enumerate(self.workload.commands):
            out = work / f"out-{i}"
            cli_args = cmd.argv(str(self.graph.path), self.seed, str(out))
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "tracing.py"), str(work), str(request), *cli_args]
            else:
                argv = [sys.executable, "-m", "walksample.cli", *cli_args]
            w, c, r, code, err = self.spawn(argv)
            before, self.calibration = self.calibration, calibrate.calibration_s(self.cpus)
            factor = calibrate.scale(before, self.calibration)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            scaled_wall, scaled_cpu = scaled_wall + w * factor, scaled_cpu + c * factor
            text = out.read_text(encoding="utf-8") if out.exists() else ""
            outputs.append(text)
            if code != 0 and error is None:
                error = f"{cmd.subcommand} exited with {code}: {err.strip()[-500:]}"
        it = Iteration(
            wall, cpu, rss, outputs, error, span_dir=work if traced else None,
            scaled_wall_s=scaled_wall, scaled_cpu_s=scaled_cpu,
        )
        if it.error is None:
            try:
                it.qualities = evaluate(self.workload, self.graph.n, outputs, reference)
            except CheckFailed as exc:
                it.error = str(exc)
        return it

    def loop(self, seconds: float, traced_pairs: bool, reference: Optional[list[str]]) -> list[Iteration]:
        """Iterate until ``seconds`` have passed and MIN_ITERATIONS are done.

        With ``traced_pairs`` each step is an untraced and a traced iteration,
        alternating which runs first.
        """
        done: list[Iteration] = []
        start = time.perf_counter()
        while True:
            if traced_pairs:
                order = (False, True) if len(done) % 4 == 0 else (True, False)
                done += [self.iterate(t, reference) for t in order]
            else:
                done.append(self.iterate(False, reference))
            reference = reference or (done[0].outputs if done[0].error is None else None)
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(done) >= MIN_ITERATIONS) or elapsed >= LOOP_LIMIT_S:
                return done


def evaluate(workload: Workload, n: int, outputs: list[str], reference: Optional[list[str]]) -> list[Quality]:
    """Check one iteration's outputs; raises CheckFailed on the first problem."""
    qualities = []
    for cmd, text in zip(workload.commands, outputs):
        quality = check_output(cmd, n, text)
        if quality is not None:
            qualities.append(quality)
    if reference is not None and outputs != reference:
        raise CheckFailed("output bytes differ from the reference output for this seed")
    return qualities


# -- metrics ------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(workload: Workload, iterations: list[Iteration], setup: list[float]) -> dict:
    ok = [it for it in iterations if it.error is None]
    qualities = ok[0].qualities if ok else []
    kls = [kl for q in qualities for kl in q.kl_means]
    uniques = [u for q in qualities for u in q.unique_fracs]
    wall = median(it.scaled_wall_s for it in iterations)
    return {
        "wall_s": wall,
        "setup_s": median(setup),
        "steps_per_s": workload.steps / wall,
        "cpu_s": median(it.scaled_cpu_s for it in iterations),
        "peak_rss_mb": median(it.peak_rss_mb for it in iterations),
        # Geometric: each group's relative change counts alike. The arithmetic
        # mean is mostly md/gmd at the small budget, which tracks the seed's d_max.
        "kl_geomean": math.exp(sum(math.log(max(kl, 1e-12)) for kl in kls) / len(kls)) if kls else 0.0,
        "unique_frac_mean": sum(uniques) / len(uniques) if uniques else 0.0,
    }


def load_spans(span_dir: Path) -> list[dict]:
    """All spans of one traced iteration, across processes, with self times."""
    spans = []
    for path in sorted(span_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        records = payload["spans"]
        child_time = [0.0] * len(records)
        for name, start, end, parent, attrs in records:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, attrs) in enumerate(records):
            spans.append({
                "name": name, "pid": payload["pid"], "dur": end - start,
                "self": end - start - child_time[i], "parent": parent, "attrs": attrs or {},
            })
    return spans


def layer_metrics(workload: Workload, graph: EdgeListInput, it: Iteration, startup: float) -> dict:
    """Per-layer figures of one traced iteration.

    Times are self times (span minus its child spans) summed over all
    processes, so with a pool they are busy time, not wall time.
    ``harness.self_s`` is the command span's own time, which includes waiting
    on pool workers. ``trace.unaccounted_s`` is the traced wall time not
    covered by interpreter start-up and the command span.
    """
    spans = load_spans(it.span_dir)

    def busy(name: str, kind: Optional[str] = None) -> float:
        return sum(s["self"] for s in spans if s["name"] == name and (kind is None or s["attrs"].get("kind") == kind))

    def count(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    loads = [s for s in spans if s["name"] == "graph.load"]
    if not loads:
        raise CheckFailed("the traced command recorded no graph.load span")
    want = graph.expected_report()
    for load in loads:
        got = {k: load["attrs"][k] for k in want}
        if got != want:
            raise CheckFailed(f"ingest report {got} differs from the generated {want}")
    walks = [s for s in spans if s["name"] == "samplers.walk"]
    parse_s = busy("graph.load")
    commands = [s for s in spans if s["name"] == "cli.command"]
    metrics = {
        "cli.startup_s": startup,
        "graph.parse_s": parse_s,
        "graph.parse_mb_per_s": sum(s["attrs"]["bytes"] for s in loads) / 1e6 / parse_s,
        "graph.lcc_s": busy("graph.lcc"),
        "graph.kept_edges": loads[0]["attrs"]["kept_edges"],
        "graph.dropped_duplicates": loads[0]["attrs"]["dropped_duplicates"],
        "graph.dropped_self_loops": loads[0]["attrs"]["dropped_self_loops"],
        "graph.load_calls": len(loads),
        "samplers.walk_s": busy("samplers.walk"),
        "samplers.weights_closed_s": busy("samplers.weights_closed"),
        "estimation.truth_s": busy("estimation.truth"),
        "estimation.estimate_s": busy("estimation.estimate"),
        "estimation.kl_s": busy("estimation.kl"),
        "estimation.unique_s": busy("estimation.unique"),
        "estimation.calls": sum(count(f"estimation.{x}") for x in ("truth", "estimate", "kl", "unique")),
        "harness.self_s": busy("cli.command") + busy("harness.weights"),
        "harness.render_s": busy("harness.render"),
        "harness.workers": len({s["pid"] for s in walks}),
        "harness.tasks": len(walks),
        "harness.weight_reuse": workload.groups / max(1, count("harness.weights")),
        "harness.parse_reuse": len(commands) / len(loads),
        "spectral.dense_matrix_s": busy("spectral.dense_matrix"),
        "spectral.spectrum_s": busy("spectral.spectrum"),
        "spectral.repeat_prob_s": busy("spectral.repeat_prob"),
        "spectral.reversibility_s": busy("spectral.reversibility"),
        "trace.unaccounted_s": it.wall_s - len(commands) * startup - sum(s["dur"] for s in commands),
    }
    for kind in SAMPLERS:
        mine = [s for s in walks if s["attrs"]["kind"] == kind]
        walk_time = sum(s["dur"] for s in mine)
        metrics[f"samplers.walk_steps_per_s.{kind}"] = sum(s["attrs"]["steps"] for s in mine) / walk_time if mine else 0.0
        metrics[f"samplers.weights_exact_s.{kind}"] = busy("samplers.weights_exact", kind)
    return metrics


# -- one run ------------------------------------------------------------------


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, list[Iteration], dict]:
    """Run the workload; returns (metrics, iterations, environment)."""
    workload = bench.workload
    bench.ensure_graph()
    environment = {
        "nproc": bench.nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "loadavg_at_start": os.getloadavg(),
        "cpus": bench.cpus,
        "blas_threads_pinned": len(bench.cpus),
    }
    reference = None
    if workload.same_bytes_as:
        reference = reference_outputs(bench, workload.same_bytes_as)
    # The loop runs first: right after the probe's repeated set-ups the first
    # ingest iteration ran ~5% slow.
    iterations = bench.loop(seconds, trace, reference)
    probe = bench.probe(0 if trace else SETUP_REPEATS, gap=trace)
    startup = bench.startup_s() if trace else 0.0
    ingest_error = bench.ingest_error(probe)
    for it in iterations:  # every iteration ran on the misread graph
        it.error = it.error or ingest_error
    if not trace:
        metrics = end_to_end(workload, iterations, probe["setup_s"])
        environment["setup_raw_s"] = probe["setup_raw_s"]
        if iterations[0].error is None and not workload.same_bytes_as:
            store_reference(bench, workload, iterations[0].outputs)
    else:
        plain = [it for it in iterations if it.span_dir is None]
        traced = [it for it in iterations if it.span_dir is not None]
        per_iter = []
        for it in traced:
            if it.error is None:
                try:
                    per_iter.append(layer_metrics(workload, bench.graph, it, startup))
                except CheckFailed as exc:
                    it.error = str(exc)
        metrics = {name: median(m[name] for m in per_iter) for name in (per_iter[0] if per_iter else {})}
        metrics["samplers.paper_vs_exact_l1.wjrw"] = probe["paper_vs_exact_l1_wjrw"]
        # Scaled, so that host drift between the two kinds of iteration cancels.
        metrics["trace_overhead_s"] = median(it.scaled_wall_s for it in traced) - median(it.scaled_wall_s for it in plain)
    environment.update(probe["environment"])
    return metrics, iterations, environment


def reference_outputs(bench: Bench, workload: Workload) -> list[str]:
    """Outputs of ``workload`` for this seed and this source tree (cached)."""
    path = reference_path(bench, workload)
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    scratch = bench.scratch / "reference"
    scratch.mkdir()
    other = Bench(bench.root, workload, bench.seed, bench.nproc, scratch)
    other.graph = bench.graph
    it = other.iterate(False, None)
    if it.error is not None:
        raise BenchError(f"reference workload {workload.name} failed: {it.error}")
    store_reference(bench, workload, it.outputs)
    return it.outputs


def reference_path(bench: Bench, workload: Workload) -> Path:
    return CACHE_DIR / "outputs" / f"{bench.code_digest()}-{workload.name}-{bench.seed}.json"


def store_reference(bench: Bench, workload: Workload, outputs: list[str]) -> None:
    path = reference_path(bench, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(outputs), encoding="utf-8")
    os.replace(tmp, path)


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(root: Path, trace: bool, metrics: dict, iterations: list[Iteration]) -> dict:
    units = declared_metrics(root, trace)
    failed = sum(1 for it in iterations if it.error is not None)
    if failed:  # figures of failed iterations are not computed; report them as 0
        metrics = {name: metrics.get(name, 0.0) for name in units}
    if set(units) != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and declared")
    return {
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = BENCH_DIR.parent
    if not (root / "src" / "walksample" / "cli.py").is_file():
        print(f"error: no walksample source under {root / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    table = workloads(nproc)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    scratch = CACHE_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)  # left by an earlier run with this pid
    scratch.mkdir(parents=True)
    try:
        bench = Bench(root, table[args.workload], args.seed, nproc, scratch)
        metrics, iterations, environment = measure(bench, args.seconds, bool(args.trace))
        result = result_line(root, bool(args.trace), metrics, iterations)
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report(f"workload={args.workload} seed={args.seed} trace={args.trace}", environment, iterations, result)
    return 0


def report(title: str, environment: dict, iterations: list[Iteration], result: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    print(f"perfbench {title} iterations={len(iterations)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for it in iterations:
        kind = "traced" if it.span_dir is not None else "plain"
        status = "ok" if it.error is None else f"FAILED: {it.error}"
        print(
            f"  iteration {kind:6s} wall {it.wall_s:9.4f} s  cpu {it.cpu_s:9.4f} s"
            f"  scaled wall {it.scaled_wall_s:9.4f} s  rss {it.peak_rss_mb:8.1f} MB  {status}"
        )
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':34s} {failed_frac:.4g} ({result['failed']}/{result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
