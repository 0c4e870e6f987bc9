"""Golden traces: frozen hashes of seeded walks and of sweep reports.

The hashes pin the exact node sequence every walk kind draws from its
Philox stream, and the exact bytes of small ``sweep-budget`` (paper and
oracle weights, JSON) and ``sweep-c`` (CSV, with burn-in) reports.
Any rewrite of the walk engine, the transition law or the report must keep
them; a hash that changes means the walks or their scoring changed, not
just their speed.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import preferential_graph, write_edge_list
from walksample import WalkConfig, derive_seed, run_walk
from walksample.cli import main


@pytest.fixture(scope="module")
def heavy_graph():
    return preferential_graph(1500, 4, seed=7)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SEED = derive_seed(2022, 0)

# (id, config fields, sha256 of the little-endian int64 trace)
TRACES = [
    ("srw", dict(kind="srw", budget=4000), "b8c939f5c5d2cdfb30de70fec79eea725758b56a5305207c49e6b01e8eb37162"),
    ("rwe", dict(kind="rwe", alpha=2.5, budget=4000), "8432409ec82e3cad93159ce35e0c00be1d4e568c703eb8c052142427be4f315b"),
    ("md", dict(kind="md", budget=4000), "fd407c4dbc2fe88a22a70845fd26651a0e0e54cc55405e9f0d940dbce886a5fa"),
    ("gmd", dict(kind="gmd", c=12, budget=4000), "7f38176a3d6b586edaf26a793a181fc330bad5b3a7e866391eda54df05b23ef7"),
    ("wjrw", dict(kind="wjrw", c=12, budget=4000), "9a8544dbd367d021af8764bfd2686d71f59c2127d8f30de1ecd33b95f8ba848a"),
    # burn-in that ends past the first 2**15-step chunk of variates
    ("wjrw-burn-in", dict(kind="wjrw", c=12, budget=33000, burn_in=500), "e427843546d2c33434dcff61fdae34a56def6d767e0deb148b57f5e81f8d6b7d"),
    ("rwe-burn-in-degree-start", dict(kind="rwe", alpha=2.5, budget=900, burn_in=37, start_policy="degree"), "30bbc07125a44327a163e59abba7eb6c711a258e2184e9bce89c97d85e2e90e5"),
    # c=1: the jump set is empty and the walk is the simple walk
    ("wjrw-empty-jump-set", dict(kind="wjrw", c=1, budget=4000), "b8c939f5c5d2cdfb30de70fec79eea725758b56a5305207c49e6b01e8eb37162"),
]


@pytest.mark.parametrize("fields,want", [(f, w) for _, f, w in TRACES], ids=[t[0] for t in TRACES])
def test_walk_trace_is_frozen(heavy_graph, fields, want):
    trace = run_walk(heavy_graph, WalkConfig(seed=SEED, **fields))
    assert len(trace) == fields["budget"]
    assert _digest(trace.astype("<i8").tobytes()) == want


SWEEP_DIGEST = "19f9ae78869f8c2a425d5d4a9f99785005472051dfa3316395a830934109428a"

SWEEP_ARGS = ["--format", "json", "--budget", "300", "--budget", "700", "--reps", "3", "--seed", "11", "--parallel", "1"]
for _kind in ("srw", "rwe", "md", "gmd", "wjrw"):
    SWEEP_ARGS += ["--sampler", _kind]


def _report(heavy_graph, command: list[str]) -> bytes:
    """The bytes ``command`` writes for the heavy graph, as ``heavy.txt``."""
    with open("heavy.txt", "w", encoding="utf-8") as fh:
        write_edge_list(heavy_graph, fh)
    assert main([command[0], "--dataset", "heavy.txt", "--out", "report", *command[1:]]) == 0
    with open("report", "rb") as fh:
        return fh.read()


def test_sweep_budget_report_is_frozen(heavy_graph, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report names the dataset path
    assert _digest(_report(heavy_graph, ["sweep-budget", *SWEEP_ARGS])) == SWEEP_DIGEST


SWEEP_C_ARGS = ["--c-frac", "0.25", "--c-frac", "0.75", "--burn-in", "20", "--budget", "500", "--reps", "3"]
SWEEP_C_ARGS += ["--seed", "11", "--parallel", "1"]

# (id, command and its flags, sha256 of the report on the heavy graph)
REPORTS = [
    (
        "sweep-budget-oracle-json",
        ["sweep-budget", *SWEEP_ARGS, "--weights", "oracle"],
        "4cb5ffd7fb85e88e67d20f5730924671cfac646f83c4e52c9e8d7e95bfed6196",
    ),
    ("sweep-c-csv", ["sweep-c", *SWEEP_C_ARGS], "3485209e2eb1c9933fdc80039ba1071795a0b7e1ef04c0f2493d421b23bf4e90"),
]


@pytest.mark.parametrize("command,want", [(c, w) for _, c, w in REPORTS], ids=[r[0] for r in REPORTS])
def test_report_is_frozen(heavy_graph, tmp_path, monkeypatch, command, want):
    monkeypatch.chdir(tmp_path)
    assert _digest(_report(heavy_graph, command)) == want


# sha256 of each command's output on the heavy graph among other components
DISCONNECTED_DIGESTS = {
    "stats": "1ea637d5058725e812b21349207e7631c719ab9b8930dfdf0be4eebd072b8223",
    "sweep-budget": "187736fb20dc53431d60924648352422505b629145148bac45a104c985e3ce2c",
}


def test_reports_on_a_disconnected_input_are_frozen(heavy_graph, tmp_path, monkeypatch):
    # A comment, a 300-node ring read first (so the heavy graph's ids do not
    # start at 0), the heavy graph, isolated edges, a self-loop and a
    # duplicate line: the walks run on the heavy graph alone.
    monkeypatch.chdir(tmp_path)
    with open("disconnected.txt", "w", encoding="utf-8") as fh:
        fh.write("# a ring, the heavy graph, isolated edges\n")
        fh.write("".join(f"{10**6 + i} {10**6 + (i + 1) % 300}\n" for i in range(300)))
        write_edge_list(heavy_graph, fh)
        fh.write("".join(f"{2 * 10**6 + 2 * i} {2 * 10**6 + 2 * i + 1}\n" for i in range(20)))
        fh.write("7 7\n1 0\n")
    assert main(["stats", "--dataset", "disconnected.txt", "--out", "stats.json"]) == 0
    assert main(["sweep-budget", "--dataset", "disconnected.txt", "--out", "sweep-budget.json", *SWEEP_ARGS]) == 0
    for command, want in DISCONNECTED_DIGESTS.items():
        with open(f"{command}.json", "rb") as fh:
            assert _digest(fh.read()) == want, command
