from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
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
    assert "peak RSS of the numpy runs:" in out
    assert "| per-line tokeniser, every block |" in out
