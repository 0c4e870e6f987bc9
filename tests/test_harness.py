from __future__ import annotations

import json
import math

import pytest

from conftest import EXAMPLE_EDGES
from walksample.cli import main, parse_config_file
from walksample.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ReportRow,
    UsageError,
    _fmt,
    _group_slices,
    _make_tasks,
    aggregate_rows,
    cmd_analyze,
    cmd_run,
    cmd_stats,
    cmd_sweep_budget,
    cmd_sweep_c,
    render_json,
)

MU_WJRW = (math.sqrt(5) - 1) / 6


def example_config(path, **kw) -> ExperimentConfig:
    return ExperimentConfig(dataset_path=str(path), **kw)


def data_lines(text: str) -> list[str]:
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return lines[1:]


def cells(line: str) -> list[str]:
    return line.split(",")


# -------------------------------------------------------- config object


def test_experiment_config_validation(tmp_path):
    p = str(tmp_path / "x.txt")
    with pytest.raises(UsageError, match="sampler"):
        ExperimentConfig(p, samplers=("zigzag",))
    with pytest.raises(UsageError, match="reps"):
        ExperimentConfig(p, repetitions=0)
    with pytest.raises(UsageError, match="budget"):
        ExperimentConfig(p, budgets=(0,))
    with pytest.raises(UsageError, match="c must"):
        ExperimentConfig(p, c_values=(0,))
    with pytest.raises(UsageError, match="c-frac"):
        ExperimentConfig(p, c_fractions=(1.5,))
    with pytest.raises(UsageError, match="format"):
        ExperimentConfig(p, output_format="yaml")
    with pytest.raises(UsageError, match="weights"):
        ExperimentConfig(p, weight_mode="guess")
    with pytest.raises(UsageError, match="burn-in"):
        ExperimentConfig(p, burn_in=-1)


def test_fmt_cells():
    assert _fmt(None) == ""
    assert _fmt(5) == "5"
    assert _fmt("wjrw") == "wjrw"
    assert _fmt(1 / 3) == "0.333333333333"
    assert _fmt(2e-13) == "2e-13"


def test_csv_header_schema():
    assert CSV_HEADER == "dataset,sampler,C,alpha,budget,repetition,seed,kl,log10_kl,unique_nodes,wall_millis"


def test_report_row_csv_line_blanks_for_none():
    row = ReportRow("d", "srw", None, None, 10, 0, 7, 0.5, math.log10(0.5), 4, None)
    line = row.csv_line()
    assert line.startswith("d,srw,,,10,0,7,0.5,")
    assert line.endswith(",4,")


# ----------------------------------------------------------- aggregates


def test_aggregate_rows_means_and_stds():
    def raw(sampler, budget, rep, kl, uniq):
        return ReportRow("d", sampler, None, None, budget, rep, rep, kl, math.log10(kl), uniq, None)

    rows = [raw("srw", 10, 0, 0.2, 4), raw("srw", 10, 1, 0.4, 6), raw("md", 10, 0, 0.1, 3)]
    aggs = aggregate_rows(rows)
    assert len(aggs) == 2
    first = aggs[0]
    assert first.repetition == "mean" and first.seed is None
    assert first.kl == pytest.approx(0.3, abs=1e-15)
    assert first.log10_kl == pytest.approx((math.log10(0.2) + math.log10(0.4)) / 2, abs=1e-15)
    assert first.unique_nodes == pytest.approx(5.0)
    assert first.kl_std == pytest.approx(math.sqrt(((0.2 - 0.3) ** 2 + (0.4 - 0.3) ** 2) / 1))
    assert first.unique_nodes_std == pytest.approx(math.sqrt(2.0))
    assert aggs[1].kl_std is None  # single-member group


def test_aggregate_log10_mean_is_none_when_any_member_is_none():
    rows = [
        ReportRow("d", "srw", None, None, 10, 0, 1, 0.0, None, 4, None),
        ReportRow("d", "srw", None, None, 10, 1, 2, 0.2, math.log10(0.2), 5, None),
    ]
    assert aggregate_rows(rows)[0].log10_kl is None


def test_render_json_is_sorted_and_parseable():
    row = ReportRow("d", "srw", None, None, 10, 0, 7, 0.5, math.log10(0.5), 4, None)
    text = render_json([row], {"command": "run", "zeta": 1})
    payload = json.loads(text)
    assert list(payload) == ["meta", "rows"]
    assert payload["rows"][0]["unique_nodes"] == 4
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------- commands


def test_cmd_stats_golden(example_file):
    payload = json.loads(cmd_stats(example_config(example_file)))
    assert payload["dataset"] == "example"
    assert payload["n"] == 5 and payload["m"] == 7
    assert payload["d_max"] == 4
    assert payload["avg_degree"] == pytest.approx(2.8)
    assert payload["tvd_srw_vs_uniform"] == pytest.approx(4 / 35)
    assert payload["lcc_n"] == 5 and payload["lcc_m"] == 7
    assert payload["dropped_self_loops"] == 0 and payload["dropped_duplicates"] == 0


def test_cmd_stats_reports_lcc_of_disconnected_input(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("1 2\n2 3\n1 3\n7 8\n", encoding="utf-8")
    payload = json.loads(cmd_stats(example_config(path)))
    assert payload["n"] == 5 and payload["m"] == 4
    assert payload["lcc_n"] == 3 and payload["lcc_m"] == 3


def test_cmd_run_rows_and_determinism(example_file):
    cfg = example_config(example_file, samplers=("srw",), budgets=(60,), repetitions=4, base_seed=9)
    out = cmd_run(cfg)
    rows = data_lines(out)
    assert len(rows) == 4
    seeds = [cells(r)[6] for r in rows]
    assert len(set(seeds)) == 4
    for r in rows:
        c = cells(r)
        assert c[0] == "example" and c[1] == "srw"
        assert c[2] == "" and c[3] == ""  # no C or alpha for srw
        assert c[4] == "60"
        assert c[10] == ""  # timing off
        assert 1 <= int(c[9]) <= 5
    assert cmd_run(cfg) == out


def test_cmd_run_defaults_c_and_alpha(example_file):
    out = cmd_run(example_config(example_file, samplers=("gmd",), budgets=(30,), repetitions=1))
    assert cells(data_lines(out)[0])[2] == "2"  # d_max//2
    out = cmd_run(example_config(example_file, samplers=("rwe",), budgets=(30,), repetitions=1))
    assert cells(data_lines(out)[0])[3] == "2.8"  # mean degree


def test_cmd_run_usage_errors(example_file):
    with pytest.raises(UsageError, match="one --sampler"):
        cmd_run(example_config(example_file, samplers=("srw", "md"), budgets=(10,)))
    with pytest.raises(UsageError, match="one --budget"):
        cmd_run(example_config(example_file, samplers=("srw",), budgets=(10, 20)))
    with pytest.raises(UsageError, match="sweep-c"):
        cmd_run(example_config(example_file, samplers=("gmd",), budgets=(10,), c_fractions=(0.5,)))


def test_cmd_run_timing_fills_wall_millis(example_file):
    out = cmd_run(example_config(example_file, samplers=("srw",), budgets=(30,), repetitions=2, timing=True))
    for r in data_lines(out):
        assert float(cells(r)[10]) >= 0.0


def test_timed_cells_are_finite_and_positive(example_file):
    cfg = example_config(
        example_file, samplers=("srw", "wjrw"), budgets=(1, 40), repetitions=3, c_values=(3,), burn_in=2, timing=True
    )
    for r in data_lines(cmd_sweep_budget(cfg)):
        millis = float(cells(r)[10])
        assert math.isfinite(millis) and millis > 0.0, r


def test_sweep_budget_counts_sorting_and_means(example_file):
    cfg = example_config(
        example_file,
        samplers=("wjrw", "srw"),  # deliberately out of canonical order
        budgets=(80, 40),
        repetitions=3,
        c_values=(3,),
    )
    out = cmd_sweep_budget(cfg)
    rows = data_lines(out)
    assert len(rows) == 2 * 2 * 3 + 4  # raw rows plus one mean row per group
    raw = [r for r in rows if cells(r)[5] != "mean"]
    means = [r for r in rows if cells(r)[5] == "mean"]
    assert len(means) == 4
    order = [(cells(r)[1], int(cells(r)[4])) for r in raw]
    assert order == sorted(order, key=lambda t: (("srw", "wjrw").index(t[0]), t[1]))
    for m in means:
        mc = cells(m)
        group = [r for r in raw if cells(r)[1] == mc[1] and cells(r)[4] == mc[4]]
        kl_mean = sum(float(cells(r)[7]) for r in group) / len(group)
        assert float(mc[7]) == pytest.approx(kl_mean, rel=1e-12)
        assert mc[6] == ""  # no seed on mean rows


def test_sweep_budget_parallel_matches_sequential(example_file):
    base = dict(samplers=("srw", "gmd"), budgets=(50,), repetitions=3, c_values=(2,))
    seq = cmd_sweep_budget(example_config(example_file, parallel=1, **base))
    par = cmd_sweep_budget(example_config(example_file, parallel=2, **base))
    assert seq == par


def test_sweep_budget_parallel_matches_sequential_with_oracle_weights_and_burn_in(example_file):
    base = dict(
        samplers=("srw", "rwe", "md", "gmd", "wjrw"),
        budgets=(40, 90),
        repetitions=3,
        c_values=(3,),
        weight_mode="oracle",
        burn_in=3,
        output_format="json",
    )
    seq = cmd_sweep_budget(example_config(example_file, parallel=1, **base))
    par = cmd_sweep_budget(example_config(example_file, parallel=2, **base))
    assert seq == par


def test_group_slices_keep_every_weight_group_in_one_slice(example_file):
    cfg = example_config(example_file, repetitions=4, burn_in=1)
    groups = (("srw", None, None), ("rwe", None, 2.5), ("gmd", 2, None), ("gmd", 3, None), ("wjrw", 3, None))
    tasks = _make_tasks(cfg, [(kind, c, alpha, budget) for kind, c, alpha in groups for budget in (10, 300)])
    for parts in range(1, 8):
        slices = _group_slices(tasks, parts)
        assert len(slices) == min(parts, 5)
        assert all(slices)
        assert [t for part in slices for t in part] == tasks  # contiguous, in order
        owner = {}
        for i, part in enumerate(slices):
            for t in part:
                assert owner.setdefault((t.sampler, t.c, t.alpha), i) == i
        assert len(owner) == 5


def test_sweep_budget_shares_seeds_across_samplers(example_file):
    out = cmd_sweep_budget(example_config(example_file, samplers=("srw", "md"), budgets=(20,), repetitions=2))
    raw = [r for r in data_lines(out) if cells(r)[5] != "mean"]
    srw_seeds = [cells(r)[6] for r in raw if cells(r)[1] == "srw"]
    md_seeds = [cells(r)[6] for r in raw if cells(r)[1] == "md"]
    assert srw_seeds == md_seeds


def test_sweep_c_resolves_fractions_against_d_max(example_file):
    cfg = example_config(
        example_file,
        samplers=("wjrw",),
        budgets=(40,),
        repetitions=2,
        c_fractions=(0.5, 1.0),
        output_format="json",
    )
    payload = json.loads(cmd_sweep_c(cfg))
    assert payload["meta"]["c_values"] == [2, 4]
    assert payload["meta"]["d_max"] == 4
    raw = [r for r in payload["rows"] if r["repetition"] != "mean"]
    assert sorted({r["C"] for r in raw}) == [2, 4]
    assert len(raw) == 2 * 2


def test_sweep_c_defaults_to_both_padded_samplers(example_file):
    out = cmd_sweep_c(example_config(example_file, budgets=(30,), repetitions=1, c_values=(2,)))
    raw = [r for r in data_lines(out) if cells(r)[5] != "mean"]
    assert [cells(r)[1] for r in raw] == ["gmd", "wjrw"]


def test_sweep_c_usage_errors(example_file):
    with pytest.raises(UsageError, match="supports only"):
        cmd_sweep_c(example_config(example_file, samplers=("srw",), budgets=(30,), c_values=(2,)))
    with pytest.raises(UsageError, match="one --budget"):
        cmd_sweep_c(example_config(example_file, samplers=("gmd",), budgets=(30, 40), c_values=(2,)))
    with pytest.raises(UsageError, match="not both"):
        cmd_sweep_c(
            example_config(example_file, samplers=("gmd",), budgets=(30,), c_values=(2,), c_fractions=(0.5,))
        )
    with pytest.raises(UsageError, match="--c values or --c-frac"):
        cmd_sweep_c(example_config(example_file, samplers=("gmd",), budgets=(30,)))


def test_cmd_analyze_wjrw_golden(example_file):
    payload = json.loads(cmd_analyze(example_config(example_file, samplers=("wjrw",), c_values=(3,))))
    assert payload["sampler"] == "wjrw" and payload["C"] == 3
    spec_obj = payload["spectrum"]
    assert set(spec_obj) == {"eigenvalues", "mu", "slem"}
    assert len(spec_obj["eigenvalues"]) == 5
    assert spec_obj["eigenvalues"][0] == [1.0, 0.0]
    assert spec_obj["mu"] == pytest.approx(MU_WJRW, abs=1e-9)
    assert payload["is_real_spectrum"] is True
    assert payload["expected_repeat_probability"] == pytest.approx(1 / 16, abs=1e-12)
    assert payload["closed_vs_numeric_l1_gap"] <= 1e-10
    assert payload["reversibility_residual"] <= 1e-12
    total = sum(payload["stationary_closed_form"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_cmd_analyze_requires_one_sampler(example_file):
    with pytest.raises(UsageError, match="one --sampler"):
        cmd_analyze(example_config(example_file, samplers=("srw", "md")))


def test_gmd_at_full_threshold_matches_md_row_for_row(example_file):
    md = cmd_run(example_config(example_file, samplers=("md",), budgets=(100,), repetitions=3))
    gmd = cmd_run(example_config(example_file, samplers=("gmd",), budgets=(100,), repetitions=3, c_values=(4,)))
    md_tail = [cells(r)[4:] for r in data_lines(md)]
    gmd_tail = [cells(r)[4:] for r in data_lines(gmd)]
    assert md_tail == gmd_tail


# -------------------------------------------------------- config + CLI


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\n"
        "sampler = srw, md\n"
        "sampler = wjrw\n"
        "budget = 100\n"
        "reps = 5\n"
        "reps = 7\n"
        "\n",
        encoding="utf-8",
    )
    vals = parse_config_file(str(cfg))
    assert vals["sampler"] == ["srw", "md", "wjrw"]
    assert vals["budget"] == ["100"]
    assert vals["reps"] == ["7"]  # later scalar lines win


def test_parse_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sampler = srw\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(UsageError, match=r"bad\.cfg:2: unknown key"):
        parse_config_file(str(cfg))
    cfg.write_text("no equals sign\n", encoding="utf-8")
    with pytest.raises(UsageError, match="key = value"):
        parse_config_file(str(cfg))


def test_cli_config_file_with_flag_override(tmp_path, example_file, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        f"dataset = {example_file}\nsampler = srw\nbudget = 40\nreps = 3\nseed = 11\n",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(data_lines(capsys.readouterr().out)) == 3
    assert main(["run", "--config", str(cfg), "--reps", "2"]) == 0
    assert len(data_lines(capsys.readouterr().out)) == 2


def test_cli_stats_stdout_and_out_file(tmp_path, example_file, capsys):
    assert main(["stats", "--dataset", str(example_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5

    target = tmp_path / "stats.json"
    assert main(["stats", "--dataset", str(example_file), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["m"] == 7


def test_cli_rerun_writes_identical_bytes(tmp_path, example_file):
    argv = [
        "sweep-budget",
        "--dataset",
        str(example_file),
        "--sampler",
        "srw",
        "--sampler",
        "wjrw",
        "--budget",
        "50",
        "--c",
        "3",
        "--reps",
        "3",
        "--seed",
        "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_exit_codes(tmp_path, example_file, capsys):
    # missing dataset file -> 2, message names the path
    rc = main(["stats", "--dataset", str(tmp_path / "absent.txt")])
    assert rc == 2
    assert "absent.txt" in capsys.readouterr().err

    # malformed edge list -> 2, message carries the line number
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 x\n", encoding="utf-8")
    assert main(["stats", "--dataset", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err

    # bad usage -> 2
    assert main(["run", "--dataset", str(example_file), "--sampler", "srw"]) == 2
    capsys.readouterr()
    assert main(["run", "--dataset", str(example_file), "--budget", "10"]) == 2
    capsys.readouterr()

    # dense analysis on an oversized graph -> 1 (internal limit, not usage)
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 4098)), encoding="utf-8")
    assert main(["analyze", "--dataset", str(big), "--sampler", "srw"]) == 1
    assert "capped" in capsys.readouterr().err


def test_cli_node_id_beyond_int64_is_an_input_error(tmp_path, capsys):
    huge = tmp_path / "huge.txt"
    huge.write_text("1 2\n2 9223372036854775808\n", encoding="utf-8")
    assert main(["stats", "--dataset", str(huge)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_json_format(example_file, capsys):
    rc = main(
        [
            "run",
            "--dataset",
            str(example_file),
            "--sampler",
            "md",
            "--budget",
            "25",
            "--reps",
            "2",
            "--format",
            "json",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["command"] == "run"
    assert payload["meta"]["rng"] == "philox4x64"
    assert len(payload["rows"]) == 2
    assert all(r["sampler"] == "md" for r in payload["rows"])


def test_cli_weight_modes_agree_when_closed_form_is_exact(example_file, capsys):
    argv = ["run", "--dataset", str(example_file), "--sampler", "wjrw", "--budget", "200", "--c", "3", "--reps", "2"]
    assert main(argv) == 0
    closed = capsys.readouterr().out
    assert main(argv + ["--weights", "oracle"]) == 0
    oracle = capsys.readouterr().out
    # equal-degree jump set: formula weights are exact, so rows agree closely
    for cl, orr in zip(data_lines(closed), data_lines(oracle)):
        assert float(cells(cl)[7]) == pytest.approx(float(cells(orr)[7]), abs=1e-9)
