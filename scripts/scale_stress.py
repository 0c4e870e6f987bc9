"""Wall time and peak RSS of the CLI on large benchmark graphs.

For each ``--sizes`` n, runs ``perfbench/graphgen.py n 800`` to write the
benchmark's edge-list file into a temporary directory, then runs one load
plus largest component (the parse rate is the file size over its load
time), ``stats``, ``sweep-budget`` (five samplers, budget 1000, 10
repetitions, ``--c 30``, one process) under ``--weights paper`` and
``--weights oracle``, and ``sweep-c`` at ten ``--c-frac`` fractions (gmd
and wjrw at each, 20 walk laws, the same budget and repetitions). Prints
the wall time and peak RSS (``os.wait4``) of each, and checks ``stats``
against the counts graphgen records beside the file. The failure to look
for is work or memory that grows with n per walker, per group or per law,
not per graph. Each sweep row's "over stats MB" is its peak minus that of
``stats``, which loads the same graph and walks nothing: what the sweep
holds beyond the graph.

Each step, the generator too, runs in a fresh child process with an empty
dataset cache of its own, so every command parses the file: a child's peak
RSS includes that of the process it was started from, so this one holds
only its imports. The load + LCC row times ``parse_edge_list`` on the opened
file, the parse alone.

    PYTHONPATH=src python3 scripts/scale_stress.py --sizes 200000

The generator joins the whole file into one string: it peaks at ~1.2 GB
RSS for the 200k file (103 MB) and grows with the line count, so n = 1M
(0.5 GB, 30M lines) needs several GB until it writes in slices.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import walksample
from walksample.harness import SAMPLER_ORDER

ROOT = Path(__file__).resolve().parent.parent
_LOAD_AND_LCC = (
    "import time, walksample; fh = open({path!r}, encoding='utf-8'); t0 = time.perf_counter(); "
    "graph, _ = walksample.parse_edge_list(fh); print(time.perf_counter() - t0); walksample.largest_connected_component(graph)"
)
_SAMPLERS = [arg for kind in SAMPLER_ORDER for arg in ("--sampler", kind)]
_SWEEP = ["sweep-budget", *_SAMPLERS, "--budget", "1000", "--reps", "10", "--c", "30", "--parallel", "1"]
_FRACTIONS = [arg for tenth in range(1, 11) for arg in ("--c-frac", str(tenth / 10))]
_SWEEP_C = ["sweep-c", *_FRACTIONS, "--budget", "1000", "--reps", "10", "--parallel", "1"]


def run_child(argv: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB (``os.wait4``) and stdout of one child
    process, with this process's copy of walksample first on its path and an
    empty dataset cache (``XDG_CACHE_HOME``), so that its loads parse."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(walksample.__file__)), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as cache:
        env["XDG_CACHE_HOME"] = cache
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, text=True) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"exit status {proc.returncode}: {' '.join(argv)}")
    return wall, usage.ru_maxrss / 1024, out  # KiB on Linux


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[200_000])
    args = parser.parse_args(argv)
    print("| n | file MB | command | wall s | peak RSS MB | over stats MB | |")
    print("|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as tmp:
        for n in args.sizes:
            path = Path(tmp) / f"pa{n}.txt"
            wall, peak, _ = run_child([str(ROOT / "perfbench" / "graphgen.py"), str(n), "800", str(path)])
            written = json.loads(path.with_name(path.name + ".json").read_text(encoding="utf-8"))
            mb = path.stat().st_size / 1e6
            print(f"| {n} | {mb:.0f} | graphgen.py | {wall:.2f} | {peak:.0f} | | |")
            cli = ["-m", "walksample.cli"]
            wall, peak, out = run_child(["-c", _LOAD_AND_LCC.format(path=str(path))])
            print(f"| {n} | {mb:.0f} | load + LCC | {wall:.2f} | {peak:.0f} | | parse {mb / float(out):.1f} MB/s |")
            wall, peak, out = run_child([*cli, "stats", "--dataset", str(path)])
            stats = json.loads(out)
            m = written["m"]
            want = {"n": n, "m": m, "lcc_n": n, "dropped_self_loops": written["self_loops"], "dropped_duplicates": m}
            if any(stats[key] != value for key, value in want.items()):
                raise SystemExit(f"stats of {path.name} read {stats}, not {want}")
            print(f"| {n} | {mb:.0f} | stats | {wall:.2f} | {peak:.0f} | | |")
            stats_peak = peak
            out = str(Path(tmp) / "sweep.csv")
            sweeps = [(f"sweep-budget --weights {w}", [*_SWEEP, "--weights", w]) for w in ("paper", "oracle")]
            for command, argv in [*sweeps, ("sweep-c, 10 c-fracs", _SWEEP_C)]:
                wall, peak, _ = run_child([*cli, *argv, "--dataset", str(path), "--out", out])
                print(f"| {n} | {mb:.0f} | {command} | {wall:.2f} | {peak:.0f} | {peak - stats_peak:.0f} | |")
            path.unlink()


if __name__ == "__main__":
    main()
