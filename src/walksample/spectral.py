"""Dense exact analysis of walk matrices on small graphs.

Plain linear algebra on numpy arrays: a walk's transition matrix P is an
(n, n) array and a stationary distribution pi an (n,) array over node ids.
Takes the full P of any configured sampler from its walk law (``samplers``,
which alone turns a law into probabilities), computes its eigenvalue
spectrum (second-largest signed eigenvalue and second-largest eigenvalue
modulus), the expected repeat probability of a walk at stationarity, and a
detailed-balance residual for reversibility checks.

Everything here is dense on purpose: it is a diagnostic path for small
graphs (n <= 4096 by default), not a scalable eigensolver. The spectrum is
numpy's eigensolver's at every n. ``characteristic_polynomial`` is the exact
polynomial of a matrix of rationals, an oracle for tests; the spectrum does
not consult it, as the roots of a polynomial with a k-fold root are accurate
only to about eps^(1/k) (K4's triple -1/3 to ~1e-6). Memory: one n x n
float64 matrix (8n^2 bytes) is held while it is analysed.
``np.linalg.eigvals`` hands LAPACK a copy of it, so the spectrum, and with
it the ``analyze`` command, peaks at two such matrices (2 * 8n^2 bytes, ~268
MB at ``DENSE_CAP``). The detailed-balance residual works in row blocks of
about 1 MB and adds no second matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graph import Graph
from .samplers import SamplerError, WalkConfig, WalkLaw, _transition_matrix

DENSE_CAP = 4096

# Bytes per temporary in reversibility_residual: it never holds a second
# n x n array, whatever n is.
_RESIDUAL_BLOCK_BYTES = 1 << 20


def _check_stochastic(entries: np.ndarray) -> None:
    """Refuse anything but a square row-stochastic matrix."""
    n = len(entries)
    if entries.shape != (n, n):
        raise ValueError("entries must be n x n")
    if np.any(entries < 0):
        raise ValueError("negative transition probability")
    # Written as not (<= tol) so that a NaN entry fails too.
    if not np.max(np.abs(entries.sum(axis=1) - 1.0)) <= 1e-12:
        raise ValueError("rows must sum to 1")


@dataclass(frozen=True, eq=False)
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


def dense_transition_matrix(graph: Graph, config: WalkConfig) -> np.ndarray:
    """The full n x n transition matrix in one dense array (n <= ``DENSE_CAP``)."""
    if graph.n > DENSE_CAP:
        raise SamplerError(f"graph has {graph.n} nodes; dense analysis capped at {DENSE_CAP}")
    entries = _transition_matrix(graph, config)
    _check_stochastic(entries)
    return entries


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


def spectrum(entries: np.ndarray) -> SpectrumReport:
    """Full spectrum of a transition matrix, sorted by descending real part."""
    _check_stochastic(entries)
    eig = np.linalg.eigvals(entries)
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


def expected_repeat_probability(graph: Graph, config: WalkConfig, pi: np.ndarray) -> float:
    """Chance the next sample repeats the current one, averaged under pi.

    Equals sum over nodes of pi_v times the self-transition probability of
    the configured walk at v; ``pi`` is an (n,) array over node ids.
    """
    return float(pi @ WalkLaw(graph, config).escape_share())


def reversibility_residual(entries: np.ndarray, pi: np.ndarray) -> float:
    """Worst detailed-balance violation max |pi_v P_vu - pi_u P_uv|.

    Zero (to rounding) iff the chain is reversible under pi. ``entries`` is
    the (n, n) transition matrix P and ``pi`` an (n,) array over node ids;
    any other shape is refused, as a length-1 pi would otherwise broadcast.

    Works on blocks of rows of about ``_RESIDUAL_BLOCK_BYTES`` each: rows
    ``lo:hi`` of the flow ``pi_v P_vu`` minus the same rows of its transpose
    are the same products as in the whole ``flow - flow.T``, so the result is
    the same to the bit.
    """
    _check_stochastic(entries)
    n = len(entries)
    if pi.shape != (n,):
        raise ValueError(f"pi has shape {pi.shape}, not ({n},)")
    step = max(1, _RESIDUAL_BLOCK_BYTES // (8 * max(n, 1)))  # float64 rows
    block_max = []
    for lo in range(0, n, step):
        hi = lo + step
        diff = pi[lo:hi, None] * entries[lo:hi]
        diff -= (pi[:, None] * entries[:, lo:hi]).T
        block_max.append(np.max(np.abs(diff, out=diff)))
    # np.max, not max(): a NaN in any block propagates, as it does one-shot.
    return float(np.max(block_max))
