from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import preferential_graph, random_connected_graph
from walksample import spectral as spectral_module
from walksample import (
    Distribution,
    SamplerError,
    SpectrumReport,
    WalkConfig,
    WalkMatrix,
    characteristic_polynomial,
    dense_transition_matrix,
    expected_repeat_probability,
    reversibility_residual,
    spectrum,
    stationary_closed_form,
    stationary_numeric,
)
from walksample.samplers import WalkLaw, _transition_rows

MU_WJRW = (math.sqrt(5) - 1) / 6
MU_SRW = (math.sqrt(7) - 1) / 6
MU_GMD = math.sqrt(2) / 3


def node_dist(weights) -> Distribution:
    return Distribution.over_nodes(np.asarray(weights, dtype=float))


def test_walk_matrix_validation(example_graph):
    cfg = WalkConfig(kind="srw")
    wm = dense_transition_matrix(example_graph, cfg)
    wm.validate()
    bad = WalkMatrix(np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        bad.validate()
    neg = WalkMatrix(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        neg.validate()
    nan = WalkMatrix(np.array([[np.nan, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="sum to 1"):
        nan.validate()
    wide = WalkMatrix(np.full((2, 4), 0.25))
    with pytest.raises(ValueError, match="n x n"):
        wide.validate()


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


def test_characteristic_polynomial_known_matrices():
    # swap matrix: x^2 - 1
    assert characteristic_polynomial([[0, 1], [1, 0]]) == [1, 0, -1]
    # triangle walk: eigenvalues 1, -1/2, -1/2
    third = Fraction(1, 2)
    p = [[0, third, third], [third, 0, third], [third, third, 0]]
    coeffs = characteristic_polynomial(p)
    assert coeffs == [Fraction(1), Fraction(0), Fraction(-3, 4), Fraction(-1, 4)]


def test_eigensolver_agrees_with_polynomial_roots(path3_graph, monkeypatch):
    wm = dense_transition_matrix(path3_graph, WalkConfig(kind="wjrw", c=3))
    rep = spectrum(wm)  # n <= 4 triggers the internal cross-check too
    coeffs = characteristic_polynomial([[Fraction(x) for x in row] for row in wm.entries])
    roots = np.sort_complex(np.roots([float(c) for c in coeffs]))
    assert np.max(np.abs(np.sort_complex(rep.eigenvalues) - roots)) < 1e-9
    # the cross-check catches an eigensolver that is off
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) + 1e-6)
    with pytest.raises(ArithmeticError, match="disagrees with characteristic polynomial roots"):
        spectrum(wm)


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
        dense = np.diag(dense_transition_matrix(example_graph, cfg).entries)
        assert np.max(np.abs(diag - dense)) <= 1e-15


def test_dense_matrix_equals_stacked_rows_bit_for_bit():
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
            rows = np.concatenate([_transition_rows(g, cfg, v, v + 1) for v in range(g.n)])
            dense = dense_transition_matrix(g, cfg).entries
            assert np.array_equal(dense, rows), cfg.kind
            assert np.array_equal(WalkLaw(g, cfg).escape_share(), np.diag(dense)), cfg.kind


def test_expected_repeat_probability_examples(example_graph):
    g = example_graph
    uniform = node_dist(np.full(5, 0.2))
    assert expected_repeat_probability(g, WalkConfig(kind="srw"), uniform) == 0.0
    md = expected_repeat_probability(g, WalkConfig(kind="md"), uniform)
    assert md == pytest.approx(0.3, abs=1e-12)
    gmd_cfg = WalkConfig(kind="gmd", c=3)
    gmd = expected_repeat_probability(g, gmd_cfg, node_dist(stationary_numeric(g, gmd_cfg)))
    assert gmd == pytest.approx(1 / 8, abs=1e-12)
    wj_cfg = WalkConfig(kind="wjrw", c=3)
    wj = expected_repeat_probability(g, wj_cfg, node_dist(stationary_numeric(g, wj_cfg)))
    assert wj == pytest.approx(1 / 16, abs=1e-12)
    assert md >= gmd >= wj
    beyond = Distribution(np.array([0, 5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="not a set of node ids"):
        expected_repeat_probability(g, WalkConfig(kind="md"), beyond)


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
            e_md = expected_repeat_probability(g, md_cfg, node_dist(stationary_numeric(g, md_cfg)))
            e_gmd = expected_repeat_probability(g, gmd_cfg, node_dist(stationary_numeric(g, gmd_cfg)))
            e_wj = expected_repeat_probability(g, wj_cfg, node_dist(stationary_numeric(g, wj_cfg)))
            assert e_md >= e_gmd - 1e-12
            assert e_gmd >= e_wj - 1e-12


def test_reversibility_residuals(example_graph, path3_graph):
    srw = WalkConfig(kind="srw")
    wm = dense_transition_matrix(example_graph, srw)
    assert reversibility_residual(wm, node_dist(stationary_closed_form(example_graph, srw))) < 1e-14

    rwe = WalkConfig(kind="rwe", alpha=1.0)
    wm = dense_transition_matrix(example_graph, rwe)
    assert reversibility_residual(wm, node_dist(stationary_closed_form(example_graph, rwe))) < 1e-14

    gmd = WalkConfig(kind="gmd", c=3)
    wm = dense_transition_matrix(example_graph, gmd)
    assert reversibility_residual(wm, node_dist(stationary_closed_form(example_graph, gmd))) < 1e-14

    wj = WalkConfig(kind="wjrw", c=3)
    wm = dense_transition_matrix(path3_graph, wj)
    residual = reversibility_residual(wm, node_dist(stationary_closed_form(path3_graph, wj)))
    assert residual > 0.01


def one_shot_residual(matrix: WalkMatrix, pi: Distribution) -> float:
    """The residual over whole n x n temporaries, as first written."""
    p = np.zeros(matrix.n)
    p[pi.support] = pi.mass
    flow = p[:, None] * matrix.entries
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
            wm = dense_transition_matrix(g, cfg)
            pi = node_dist(stationary_closed_form(g, cfg))
            assert reversibility_residual(wm, pi) == one_shot_residual(wm, pi)


# (n, rows per block): below one block, exactly one, one block plus one row,
# several blocks with a remainder, and one row per block.
@pytest.mark.parametrize("n, rows", [(9, 12), (12, 12), (13, 12), (50, 7), (17, 1)])
def test_blocked_residual_equals_one_shot_at_block_edges(monkeypatch, n, rows):
    monkeypatch.setattr(spectral_module, "_RESIDUAL_BLOCK_BYTES", 8 * n * rows)
    rng = np.random.default_rng(n * 100 + rows)
    for _ in range(3):
        raw = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        raw[np.arange(n), rng.integers(0, n, n)] += 0.1  # no empty row
        wm = WalkMatrix(raw / raw.sum(axis=1, keepdims=True))
        pi = Distribution.from_weights(np.arange(n), rng.random(n))
        got = reversibility_residual(wm, pi)
        assert got > 0 and got == one_shot_residual(wm, pi)


def test_blocked_residual_propagates_nan_from_a_later_block(monkeypatch):
    # Validation rejects NaN entries; with it bypassed, a NaN in the last
    # block must still reach the result, as np.max does one-shot.
    monkeypatch.setattr(spectral_module, "_RESIDUAL_BLOCK_BYTES", 1)
    monkeypatch.setattr(WalkMatrix, "validate", lambda self: None)
    entries = np.full((4, 4), 0.25)
    entries[0, 1], entries[0, 2] = 0.5, 0.0
    entries[3, 3] = np.nan
    wm = WalkMatrix(entries)
    assert math.isnan(reversibility_residual(wm, node_dist(np.full(4, 0.25))))


def test_residual_peak_memory_is_a_fraction_of_the_matrix():
    g = preferential_graph(1500, 3, seed=5)
    cfg = WalkConfig(kind="wjrw", c=max(1, g.d_max // 2))
    wm = dense_transition_matrix(g, cfg)
    pi = node_dist(stationary_closed_form(g, cfg))
    tracemalloc.start()
    try:
        residual = reversibility_residual(wm, pi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual > 0
    assert peak < wm.entries.nbytes / 2, f"peak {peak / wm.entries.nbytes:.2f} x the matrix"
