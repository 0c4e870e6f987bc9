"""Dense exact analysis of walk matrices on small graphs.

Takes the full transition matrix of any configured sampler from its walk law
(``samplers``, which alone turns a law into probabilities), computes its
eigenvalue spectrum (second-largest signed eigenvalue and second-largest
eigenvalue modulus), the expected repeat probability of a walk at
stationarity, and a detailed-balance residual for reversibility checks.

Everything here is dense and exact-arithmetic-friendly on purpose: it is a
diagnostic path for small graphs (n <= 4096 by default), not a scalable
eigensolver. Memory: one n x n float64 matrix (8n^2 bytes) is held while it
is analysed. ``np.linalg.eigvals`` hands LAPACK a copy of it, so the
spectrum, and with it the ``analyze`` command, peaks at two such matrices
(2 * 8n^2 bytes, ~268 MB at ``DENSE_CAP``). The detailed-balance residual
works in row blocks of about 1 MB and adds no second matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .estimation import Distribution
from .graph import Graph
from .samplers import SamplerError, WalkConfig, _transition_rows, self_transition_probabilities

DENSE_CAP = 4096

# Bytes per temporary in reversibility_residual: it never holds a second
# n x n array, whatever n is.
_RESIDUAL_BLOCK_BYTES = 1 << 20

_CROSS_CHECK_N = 4
_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class WalkMatrix:
    """Dense row-stochastic one-step transition matrix of a configured walk."""

    n: int
    entries: np.ndarray
    config: WalkConfig

    def validate(self) -> None:
        if self.entries.shape != (self.n, self.n):
            raise ValueError("entries must be n x n")
        if np.any(self.entries < 0):
            raise ValueError("negative transition probability")
        rows = self.entries.sum(axis=1)
        # Written as not (<= tol) so that a NaN entry fails too.
        if not np.max(np.abs(rows - 1.0)) <= 1e-12:
            raise ValueError("rows must sum to 1")


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by descending real part, with the two gap summaries.

    ``second_largest_signed`` (mu) is the real part of the second entry in
    that order; ``slem`` is the largest modulus among the non-unit
    eigenvalues. The two differ whenever the most negative eigenvalue beats
    the second-largest positive one in magnitude.
    """

    eigenvalues: np.ndarray
    second_largest_signed: float
    slem: float
    is_real_spectrum: bool

    def validate(self) -> None:
        lead = self.eigenvalues[0]
        if abs(lead - 1.0) > 1e-9:
            raise ValueError(f"leading eigenvalue {lead} is not 1")
        if self.slem > 1 + 1e-9 or self.second_largest_signed > 1 + 1e-9:
            raise ValueError("eigenvalue summary exceeds 1")


def dense_transition_matrix(graph: Graph, config: WalkConfig, cap: int = DENSE_CAP) -> WalkMatrix:
    """The full transition matrix in one dense array (n <= cap)."""
    if graph.n > cap:
        raise SamplerError(f"graph has {graph.n} nodes; dense analysis capped at {cap}")
    matrix = WalkMatrix(n=graph.n, entries=_transition_rows(graph, config, 0, graph.n), config=config)
    matrix.validate()
    return matrix


def characteristic_polynomial(entries: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Exact characteristic polynomial coefficients, leading term first.

    Faddeev-LeVerrier recurrence over Fractions; returns
    [1, c1, ..., cn] with p(x) = x^n + c1 x^(n-1) + ... + cn.
    """
    n = len(entries)
    a = [[Fraction(x) for x in row] for row in entries]
    coeffs = [Fraction(1)]
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        if k < n:
            m = am
            for i in range(n):
                m[i][i] += c
    return coeffs


def _cross_check_small(entries: np.ndarray, eigenvalues: np.ndarray) -> None:
    """Compare the eigensolver against exact polynomial roots (tiny n only)."""
    coeffs = characteristic_polynomial([[Fraction(x) for x in row] for row in entries])
    roots = np.roots([float(c) for c in coeffs])
    got = np.sort_complex(eigenvalues)
    want = np.sort_complex(roots)
    gap = float(np.max(np.abs(got - want))) if len(got) else 0.0
    if gap > _CROSS_CHECK_TOL:
        raise ArithmeticError(
            f"eigensolver disagrees with characteristic polynomial roots by {gap:.3e}"
        )


def spectrum(matrix: WalkMatrix) -> SpectrumReport:
    """Full spectrum of a walk matrix, sorted by descending real part."""
    matrix.validate()
    eig = np.linalg.eigvals(matrix.entries)
    if matrix.n <= _CROSS_CHECK_N:
        _cross_check_small(matrix.entries, eig)
    order = np.lexsort((-eig.imag, -eig.real))
    eig = eig[order]
    lead = int(np.argmin(np.abs(eig - 1.0)))
    rest = np.delete(eig, lead)
    mu = float(eig[1].real) if len(eig) > 1 else float("nan")
    slem = float(np.max(np.abs(rest))) if len(rest) else 0.0
    report = SpectrumReport(
        eigenvalues=eig,
        second_largest_signed=mu,
        slem=slem,
        is_real_spectrum=bool(np.max(np.abs(eig.imag), initial=0.0) <= 1e-9),
    )
    report.validate()
    return report


def _dense_pi(n: int, pi: Distribution) -> np.ndarray:
    """pi as a dense length-n vector; its support must be node ids."""
    support = pi.support
    if len(support) and (support.min() < 0 or support.max() >= n):
        raise ValueError("distribution support is not a set of node ids")
    out = np.zeros(n)
    out[support] = pi.mass
    return out


def expected_repeat_probability(graph: Graph, config: WalkConfig, pi: Distribution) -> float:
    """Chance the next sample repeats the current one, averaged under pi.

    Equals sum over nodes of pi_v times the self-transition probability of
    the configured walk at v.
    """
    return float(_dense_pi(graph.n, pi) @ self_transition_probabilities(graph, config))


def reversibility_residual(matrix: WalkMatrix, pi: Distribution) -> float:
    """Worst detailed-balance violation max |pi_v P_vu - pi_u P_uv|.

    Zero (to rounding) iff the chain is reversible under pi. The support of
    pi is validated against the matrix.

    Works on blocks of rows of about ``_RESIDUAL_BLOCK_BYTES`` each: rows
    ``lo:hi`` of the flow ``pi_v P_vu`` minus the same rows of its transpose
    are the same products as in the whole ``flow - flow.T``, so the result is
    the same to the bit.
    """
    matrix.validate()
    p = _dense_pi(matrix.n, pi)
    entries = matrix.entries
    step = max(1, _RESIDUAL_BLOCK_BYTES // (8 * max(matrix.n, 1)))  # float64 rows
    block_max = []
    for lo in range(0, matrix.n, step):
        hi = lo + step
        diff = p[lo:hi, None] * entries[lo:hi]
        diff -= (p[:, None] * entries[:, lo:hi]).T
        block_max.append(np.max(np.abs(diff, out=diff)))
    # np.max, not max(): a NaN in any block propagates, as it does one-shot.
    return float(np.max(block_max))
