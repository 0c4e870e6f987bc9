from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_graph, preferential_graph, random_connected_graph
from walksample import spectral as spectral_module
from walksample import (
    SamplerError,
    SpectrumReport,
    WalkConfig,
    characteristic_polynomial,
    dense_transition_matrix,
    expected_repeat_probability,
    reversibility_residual,
    spectrum,
    stationary_closed_form,
    stationary_numeric,
)
from walksample.cli import main
from walksample.samplers import WalkLaw

MU_WJRW = (math.sqrt(5) - 1) / 6
MU_SRW = (math.sqrt(7) - 1) / 6
MU_GMD = math.sqrt(2) / 3

K4_EDGES = "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"
STAR_EDGES = "1 2\n1 3\n1 4\n"


# Each matrix that is not square row-stochastic, with the refusal it earns.
BAD_MATRICES = [
    (np.array([[0.5, 0.6], [0.5, 0.5]]), "sum to 1"),
    (np.array([[1.5, -0.5], [0.5, 0.5]]), "negative"),
    (np.array([[np.nan, 0.5], [0.5, 0.5]]), "sum to 1"),
    (np.full((2, 4), 0.25), "n x n"),
]


def test_walk_matrix_validation(example_graph):
    check = spectral_module._check_stochastic
    check(dense_transition_matrix(example_graph, WalkConfig(kind="srw")))
    for entries, message in BAD_MATRICES:
        with pytest.raises(ValueError, match=message):
            check(entries)


@pytest.mark.parametrize("entries, message", BAD_MATRICES)
def test_spectrum_and_residual_refuse_a_bad_matrix(entries, message):
    with pytest.raises(ValueError, match=message):
        spectrum(entries)
    with pytest.raises(ValueError, match=message):
        reversibility_residual(entries, np.full(2, 0.5))


@pytest.mark.parametrize("length", [1, 6])
def test_pi_of_the_wrong_length_refused(example_graph, length):
    # A length-1 pi would broadcast over every row if it were not refused.
    cfg = WalkConfig(kind="md")
    pi = np.full(length, 1 / length)
    with pytest.raises(ValueError, match=r"pi has shape"):
        reversibility_residual(dense_transition_matrix(example_graph, cfg), pi)
    with pytest.raises(ValueError):
        expected_repeat_probability(example_graph, cfg, pi)


def test_dense_cap_enforced(monkeypatch):
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 8)
    monkeypatch.setattr(spectral_module, "DENSE_CAP", 4)
    with pytest.raises(SamplerError, match="capped at 4"):
        dense_transition_matrix(g, WalkConfig(kind="srw"))


def test_second_largest_eigenvalues_on_reference_graph(example_graph):
    rep_srw = spectrum(dense_transition_matrix(example_graph, WalkConfig(kind="srw")))
    rep_gmd = spectrum(dense_transition_matrix(example_graph, WalkConfig(kind="gmd", c=3)))
    rep_wjrw = spectrum(dense_transition_matrix(example_graph, WalkConfig(kind="wjrw", c=3)))
    assert rep_srw.second_largest_signed == pytest.approx(MU_SRW, abs=1e-9)
    assert rep_gmd.second_largest_signed == pytest.approx(MU_GMD, abs=1e-9)
    assert rep_wjrw.second_largest_signed == pytest.approx(MU_WJRW, abs=1e-9)
    assert rep_wjrw.second_largest_signed < rep_srw.second_largest_signed < rep_gmd.second_largest_signed


def test_full_spectra_on_reference_graph(example_graph):
    rep_srw = spectrum(dense_transition_matrix(example_graph, WalkConfig(kind="srw")))
    want = sorted([1.0, MU_SRW, -1 / 6, -1 / 2, -(1 + math.sqrt(7)) / 6], reverse=True)
    assert np.max(np.abs(rep_srw.eigenvalues.real - want)) < 1e-9
    assert rep_srw.is_real_spectrum
    # the signed second-largest and the largest modulus disagree here
    assert rep_srw.slem == pytest.approx((1 + math.sqrt(7)) / 6, abs=1e-9)
    assert rep_srw.slem > rep_srw.second_largest_signed

    rep_gmd = spectrum(dense_transition_matrix(example_graph, WalkConfig(kind="gmd", c=3)))
    want = sorted([1.0, MU_GMD, 0.0, -1 / 3, -MU_GMD], reverse=True)
    assert np.max(np.abs(rep_gmd.eigenvalues.real - want)) < 1e-9

    # K4's simple walk: 1 and a triple -1/3
    rep_k4 = spectrum(dense_transition_matrix(make_graph(K4_EDGES), WalkConfig(kind="srw")))
    assert np.max(np.abs(rep_k4.eigenvalues - [1, -1 / 3, -1 / 3, -1 / 3])) < 1e-12


def test_characteristic_polynomial_known_matrices():
    # swap matrix: x^2 - 1
    assert characteristic_polynomial([[0, 1], [1, 0]]) == [1, 0, -1]
    # triangle walk: eigenvalues 1, -1/2, -1/2
    third = Fraction(1, 2)
    p = [[0, third, third], [third, 0, third], [third, third, 0]]
    coeffs = characteristic_polynomial(p)
    assert coeffs == [Fraction(1), Fraction(0), Fraction(-3, 4), Fraction(-1, 4)]


def test_eigensolver_agrees_with_polynomial_roots(path3_graph):
    matrix = dense_transition_matrix(path3_graph, WalkConfig(kind="wjrw", c=3))
    rep = spectrum(matrix)
    coeffs = characteristic_polynomial([[Fraction(x) for x in row] for row in matrix])
    roots = np.sort_complex(np.roots([float(c) for c in coeffs]))
    assert np.max(np.abs(np.sort_complex(rep.eigenvalues) - roots)) < 1e-9


@pytest.mark.parametrize("edges", [K4_EDGES, STAR_EDGES], ids=["K4", "star"])
def test_analyze_exits_0_on_repeated_eigenvalues(tmp_path, edges):
    # K4's walks have a triple eigenvalue and the star's md walk a double one.
    # The roots of their characteristic polynomials are accurate only to
    # about eps^(1/3) and eps^(1/2) there, so the spectrum must not be held
    # to them: the eigensolver is the accurate one.
    dataset = tmp_path / "graph.txt"
    dataset.write_text(edges, encoding="utf-8")
    for sampler in (["srw"], ["rwe", "--alpha", "1"], ["md"], ["gmd", "--c", "2"], ["wjrw", "--c", "2"]):
        argv = ["analyze", "--dataset", str(dataset), "--sampler", *sampler, "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0, sampler


def test_spectrum_invariants_on_random_graphs():
    rng = np.random.default_rng(17)
    for _ in range(8):
        g = random_connected_graph(rng, int(rng.integers(4, 12)))
        for cfg in (
            WalkConfig(kind="srw"),
            WalkConfig(kind="rwe", alpha=1.0),
            WalkConfig(kind="wjrw", c=max(2, g.d_max - 1)),
        ):
            rep = spectrum(dense_transition_matrix(g, cfg))
            assert abs(rep.eigenvalues[0] - 1) < 1e-9
            assert rep.slem <= 1 + 1e-9
            assert rep.second_largest_signed <= 1 + 1e-9
    shifted = SpectrumReport(np.array([0.9, 0.5]), second_largest_signed=0.5, slem=0.5, is_real_spectrum=True)
    with pytest.raises(ValueError, match="leading eigenvalue 0.9 is not 1"):
        shifted.validate()


def test_self_transition_diagonal_matches_dense_matrix(example_graph):
    cases = [
        WalkConfig(kind="srw"),
        WalkConfig(kind="rwe", alpha=2.0),
        WalkConfig(kind="md"),
        WalkConfig(kind="gmd", c=3),
        WalkConfig(kind="wjrw", c=3),
    ]
    for cfg in cases:
        diag = WalkLaw(example_graph, cfg).escape_share()
        dense = np.diag(dense_transition_matrix(example_graph, cfg))
        assert np.max(np.abs(diag - dense)) <= 1e-15


def test_dense_diagonal_equals_escape_share_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(4, 14)))
        c = int(rng.integers(1, g.d_max + 2))
        for cfg in (
            WalkConfig(kind="srw"),
            WalkConfig(kind="rwe", alpha=float(rng.uniform(0.1, 4))),
            WalkConfig(kind="md"),
            WalkConfig(kind="gmd", c=c),
            WalkConfig(kind="wjrw", c=c),
        ):
            dense = dense_transition_matrix(g, cfg)
            assert np.array_equal(WalkLaw(g, cfg).escape_share(), np.diag(dense)), cfg.kind


def test_expected_repeat_probability_examples(example_graph):
    g = example_graph
    uniform = np.full(5, 0.2)
    assert expected_repeat_probability(g, WalkConfig(kind="srw"), uniform) == 0.0
    md = expected_repeat_probability(g, WalkConfig(kind="md"), uniform)
    assert md == pytest.approx(0.3, abs=1e-12)
    gmd_cfg = WalkConfig(kind="gmd", c=3)
    gmd = expected_repeat_probability(g, gmd_cfg, stationary_numeric(g, gmd_cfg))
    assert gmd == pytest.approx(1 / 8, abs=1e-12)
    wj_cfg = WalkConfig(kind="wjrw", c=3)
    wj = expected_repeat_probability(g, wj_cfg, stationary_numeric(g, wj_cfg))
    assert wj == pytest.approx(1 / 16, abs=1e-12)
    assert md >= gmd >= wj


def test_repeat_probability_ordering_smoke():
    rng = np.random.default_rng(23)
    done = 0
    while done < 25:
        g = random_connected_graph(rng, int(rng.integers(5, 13)))
        if g.min_degree + 1 >= g.d_max:
            continue
        done += 1
        for c in range(g.min_degree + 1, g.d_max):
            md_cfg = WalkConfig(kind="md")
            gmd_cfg = WalkConfig(kind="gmd", c=c)
            wj_cfg = WalkConfig(kind="wjrw", c=c)
            e_md = expected_repeat_probability(g, md_cfg, stationary_numeric(g, md_cfg))
            e_gmd = expected_repeat_probability(g, gmd_cfg, stationary_numeric(g, gmd_cfg))
            e_wj = expected_repeat_probability(g, wj_cfg, stationary_numeric(g, wj_cfg))
            assert e_md >= e_gmd - 1e-12
            assert e_gmd >= e_wj - 1e-12


def test_reversibility_residuals(example_graph, path3_graph):
    srw = WalkConfig(kind="srw")
    matrix = dense_transition_matrix(example_graph, srw)
    assert reversibility_residual(matrix, stationary_closed_form(example_graph, srw)) < 1e-14

    rwe = WalkConfig(kind="rwe", alpha=1.0)
    matrix = dense_transition_matrix(example_graph, rwe)
    assert reversibility_residual(matrix, stationary_closed_form(example_graph, rwe)) < 1e-14

    gmd = WalkConfig(kind="gmd", c=3)
    matrix = dense_transition_matrix(example_graph, gmd)
    assert reversibility_residual(matrix, stationary_closed_form(example_graph, gmd)) < 1e-14

    wj = WalkConfig(kind="wjrw", c=3)
    matrix = dense_transition_matrix(path3_graph, wj)
    residual = reversibility_residual(matrix, stationary_closed_form(path3_graph, wj))
    assert residual > 0.01


def one_shot_residual(entries: np.ndarray, pi: np.ndarray) -> float:
    """The residual over whole n x n temporaries, as first written."""
    flow = pi[:, None] * entries
    return float(np.max(np.abs(flow - flow.T)))


@pytest.mark.parametrize("block_bytes", [1, 8 * 40 * 3, 8 * 40 * 40])
def test_blocked_residual_equals_one_shot_on_random_graphs(monkeypatch, block_bytes):
    monkeypatch.setattr(spectral_module, "_RESIDUAL_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(block_bytes)
    for _ in range(4):
        g = random_connected_graph(rng, int(rng.integers(5, 41)))
        c = int(rng.integers(1, g.d_max + 2))
        kinds = [("srw", {}), ("rwe", {"alpha": float(rng.uniform(0.2, 3))}), ("md", {}), ("gmd", {"c": c}), ("wjrw", {"c": c})]
        for kind, kw in kinds:
            cfg = WalkConfig(kind=kind, **kw)
            matrix = dense_transition_matrix(g, cfg)
            pi = stationary_closed_form(g, cfg)
            assert reversibility_residual(matrix, pi) == one_shot_residual(matrix, pi)


# (n, rows per block): below one block, exactly one, one block plus one row,
# several blocks with a remainder, and one row per block.
@pytest.mark.parametrize("n, rows", [(9, 12), (12, 12), (13, 12), (50, 7), (17, 1)])
def test_blocked_residual_equals_one_shot_at_block_edges(monkeypatch, n, rows):
    monkeypatch.setattr(spectral_module, "_RESIDUAL_BLOCK_BYTES", 8 * n * rows)
    rng = np.random.default_rng(n * 100 + rows)
    for _ in range(3):
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        raw[np.arange(n), rng.integers(0, n, n)] += 0.1  # no empty row
        matrix = raw / raw.sum(axis=1, keepdims=True)
        weights = rng.random(n)
        pi = weights / weights.sum()
        got = reversibility_residual(matrix, pi)
        assert got > 0 and got == one_shot_residual(matrix, pi)


def test_blocked_residual_propagates_nan_from_a_later_block(monkeypatch):
    # Validation rejects NaN entries; with it bypassed, a NaN in the last
    # block must still reach the result, as np.max does one-shot.
    monkeypatch.setattr(spectral_module, "_RESIDUAL_BLOCK_BYTES", 1)
    monkeypatch.setattr(spectral_module, "_check_stochastic", lambda entries: None)
    entries = np.full((4, 4), 0.25)
    entries[0, 1], entries[0, 2] = 0.5, 0.0
    entries[3, 3] = np.nan
    assert math.isnan(reversibility_residual(entries, np.full(4, 0.25)))


def test_residual_peak_memory_is_a_fraction_of_the_matrix():
    g = preferential_graph(1500, 3, seed=5)
    cfg = WalkConfig(kind="wjrw", c=max(1, g.d_max // 2))
    matrix = dense_transition_matrix(g, cfg)
    pi = stationary_closed_form(g, cfg)
    tracemalloc.start()
    try:
        residual = reversibility_residual(matrix, pi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual > 0
    assert peak < matrix.nbytes / 2, f"peak {peak / matrix.nbytes:.2f} x the matrix"
