from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path
from unittest import mock

import pytest

import walksample
from conftest import make_graph
from walksample import WalkConfig, dense_transition_matrix, spectrum

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path: Path):
    # As `python3 scripts/<name>.py` does, put the script's directory first
    # on the path, so that scripts can import each other.
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "path", [str(path.parent), *sys.path]):
        spec.loader.exec_module(module)
    return module


def test_scripts_directory_is_not_empty():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # Loading runs the module-level imports, not main(): a public name the
    # script imports that the package renamed fails here.
    assert callable(_load(path).main)


def test_ingest_speed_runs_on_a_small_benchmark_file(tmp_path, capsys, monkeypatch):
    # The script checks the numpy path against the per-line path and exits
    # with a message when they differ.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    graphgen = importlib.import_module("graphgen")
    written = graphgen.write_input(tmp_path / "pa.txt", 16, 800)  # a 16-node clique: ~250 lines
    _load(ROOT / "scripts" / "ingest_speed.py").main([str(written.path), "--repeats", "1"])
    out = capsys.readouterr().out
    assert f"n={written.n} m={written.m}" in out
    assert "peak RSS of one load + LCC in a fresh process:" in out
    assert "| per-line tokeniser, every block |" in out
    assert "| dataset cache miss (load_edge_list) |" in out and "| dataset cache hit (load_edge_list) |" in out


def test_analyze_memory_runs_on_a_small_benchmark_file(tmp_path, capsys, monkeypatch):
    # The script reads n from the JSON the analyze child prints.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    written = importlib.import_module("graphgen").write_input(tmp_path / "pa.txt", 16, 800)
    _load(ROOT / "scripts" / "analyze_memory.py").main([str(written.path), "--sampler", "gmd"])
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[:2] == ["pa.txt", str(written.n)] and float(row[3]) > 0


def test_scale_stress_runs_on_a_tiny_graph(capsys):
    # The script runs graphgen, checks stats against the counts it records
    # and exits with a message when a command fails or the counts differ.
    _load(ROOT / "scripts" / "scale_stress.py").main(["--sizes", "300"])
    out = capsys.readouterr().out
    cells = [[cell.strip() for cell in line.strip("|").split("|")] for line in out.splitlines()]
    rows = {row[2]: row[3:] for row in cells if row[:2] == ["300", "0"]}
    sweeps = ("sweep-budget --weights paper", "sweep-budget --weights oracle", "sweep-c, 10 c-fracs")
    assert list(rows) == ["graphgen.py", "load + LCC", "stats", *sweeps]
    # "over stats MB": each sweep's peak RSS minus that of stats (both printed
    # rounded, so within 1 of their difference), blank on the other rows
    stats_peak = float(rows["stats"][1])
    for command, (_, peak, over, _) in rows.items():
        if command in sweeps:
            assert abs(float(over) - (float(peak) - stats_peak)) <= 1
        else:
            assert over == ""


def test_readme_quickstart_runs(capsys):
    # The README's one Python block, run as written: it prints the KL of its
    # estimate and the signed second-largest eigenvalue of its walk.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    kl_line, eig_line = capsys.readouterr().out.splitlines()
    label, kl = kl_line.split(": ")
    assert label == "KL(true || estimate)" and 0 <= float(kl) < 0.01
    label, eig = eig_line.split(": ")
    assert label == "signed second-largest eigenvalue" and -1 < float(eig) < 1


def _readme_public_api() -> list[str]:
    """The names listed under the README's "Public API" heading: every
    backticked name in that section's bullets."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (section,) = re.findall(r"^## Public API\n(.*?)(?=^## )", readme, flags=re.M | re.S)
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.M)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_all_is_the_readme_public_api():
    listed = _readme_public_api()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert sorted(walksample.__all__) == sorted(listed)
    assert all(hasattr(walksample, name) for name in listed)


@pytest.mark.parametrize("path", [*SCRIPTS, ROOT / "perfbench" / "probe.py"], ids=lambda p: p.name)
def test_names_scripts_import_from_the_package_are_public(path):
    # The benchmark's set-up probe and the scripts import only what
    # ``__all__`` promises (or a submodule), so no name they need can leave
    # the package's top level unnoticed.
    imports = [node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.ImportFrom)]
    names = {alias.name for node in imports if node.module == "walksample" for alias in node.names}
    modules = {"cli", "estimation", "graph", "harness", "samplers", "spectral"}
    assert names - modules <= set(walksample.__all__)


# Each value type that holds arrays, built from a graph: the same build twice
# gives equal arrays in two distinct objects.
ARRAY_HOLDERS = {
    "Graph": lambda g: g,
    "SpectrumReport": lambda g: spectrum(dense_transition_matrix(g, WalkConfig(kind="srw"))),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_values_compare_by_identity(build):
    # Field-wise equality would ask numpy for the truth of an array (a
    # ValueError) and hash an ndarray (a TypeError); identity does neither.
    a, b = (build(make_graph("1 2\n2 3\n3 4\n4 1\n")) for _ in range(2))
    assert a == a and a != b
    assert a in [a] and a not in [b]
    assert len({a, b}) == 2 and hash(a) == hash(a)
