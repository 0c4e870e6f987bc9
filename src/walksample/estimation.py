"""Ratio estimation from walk traces and distribution comparison metrics.

The core estimator reweights every trace occurrence s by 1/pi(s), where pi
is the sampler's stationary distribution (or any positive multiple of it;
the ratio form cancels normalization):

    estimate = sum_s f(s)/pi(s)  /  sum_s 1/pi(s)

Degree-distribution estimates apply the same weights per degree category.
Accuracy is scored with KL divergence and total variation distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

if TYPE_CHECKING:
    from .graph import Graph
    from .samplers import Trace

WeightFunction = Union[np.ndarray, "list[float]", Callable[[int], float]]

_MASS_TOL = 1e-12


class ZeroInclusionProbability(ValueError):
    """A visited node has zero inclusion probability under the given weights."""


@dataclass(frozen=True)
class Distribution:
    """Probability mass over integer categories (node ids or degree values).

    ``support`` is strictly increasing; ``mass`` is nonnegative and sums
    to 1 within 1e-12. Categories absent from ``support`` carry zero mass.
    """

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=np.float64)
        if support.shape != mass.shape or support.ndim != 1:
            raise ValueError("support and mass must be 1-d arrays of equal length")
        if len(support) and np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(mass < -_MASS_TOL):
            raise ValueError("negative mass")
        if not abs(float(mass.sum()) - 1.0) <= _MASS_TOL:  # a NaN mass fails too
            raise ValueError(f"mass sums to {mass.sum()!r}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", np.maximum(mass, 0.0))

    @classmethod
    def from_weights(cls, support, weights) -> "Distribution":
        """Normalize nonnegative weights into a Distribution."""
        weights = np.asarray(weights, dtype=np.float64)
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("weights must have positive total")
        return cls(np.asarray(support, dtype=np.int64), weights / total)

    @classmethod
    def over_nodes(cls, mass) -> "Distribution":
        """Distribution whose support is the full node range 0..n-1."""
        mass = np.asarray(mass, dtype=np.float64)
        return cls(np.arange(len(mass), dtype=np.int64), mass)


def _aligned(p: Distribution, q: Distribution) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masses of p and q on the union of their supports."""
    if p.support is q.support:  # e.g. both over a graph's cached degree support
        return p.support, p.mass, q.mass
    union = np.union1d(p.support, q.support)
    pv = np.zeros(len(union))
    qv = np.zeros(len(union))
    pv[np.searchsorted(union, p.support)] = p.mass
    qv[np.searchsorted(union, q.support)] = q.mass
    return union, pv, qv


def tvd(p: Distribution, q: Distribution) -> float:
    """Total variation distance 0.5 * sum |p - q| over the union support."""
    _, pv, qv = _aligned(p, q)
    return 0.5 * float(np.abs(pv - qv).sum())


def kl_divergence(true_p: Distribution, est_q: Distribution, eps: float = 1e-12) -> float:
    """KL(true || estimated) in nats, with additive smoothing of the estimate.

    ``eps`` is added to the estimate on every category of ``true_p``'s
    support and the estimate is renormalized, so unsampled categories yield
    a large but finite penalty. Terms with zero true mass contribute 0.
    """
    union, pv, qv = _aligned(true_p, est_q)
    in_true = union is true_p.support or np.isin(union, true_p.support)
    q_smooth = qv + eps * in_true
    q_smooth /= q_smooth.sum()
    pos = pv > 0
    return float(np.sum(pv[pos] * np.log(pv[pos] / q_smooth[pos])))


def _trace_nodes(trace) -> np.ndarray:
    nodes = getattr(trace, "nodes", trace)
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size == 0:
        raise ValueError("empty trace")
    return nodes


def _node_values(fn: WeightFunction, nodes: np.ndarray) -> np.ndarray:
    """Evaluate a node function given as an indexable array or a callable."""
    if callable(fn):
        uniq, inverse = np.unique(nodes, return_inverse=True)
        vals = np.asarray([float(fn(int(v))) for v in uniq])
        return vals[inverse]
    return np.asarray(fn, dtype=np.float64)[nodes]


def _inclusion_weights(pi: WeightFunction, nodes: np.ndarray) -> np.ndarray:
    pivals = _node_values(pi, nodes)
    if np.any(pivals <= 0):
        bad = int(nodes[np.argmax(pivals <= 0)])
        raise ZeroInclusionProbability(
            f"zero inclusion probability at node {bad}"
        )
    return 1.0 / pivals


def ht_ratio_estimate(trace, pi: WeightFunction, f: WeightFunction) -> float:
    """Self-normalized importance-weighted estimate of the mean of f.

    All trace occurrences, repeats included, enter both sums. ``pi`` may be
    unnormalized; any positive scaling cancels in the ratio.
    """
    nodes = _trace_nodes(trace)
    w = _inclusion_weights(pi, nodes)
    fvals = _node_values(f, nodes)
    return float((w * fvals).sum() / w.sum())


def degree_distribution_estimate(trace, pi: WeightFunction, graph: "Graph") -> Distribution:
    """Estimated degree distribution from a trace.

    Each occurrence of node s adds 1/pi(s) to the mass of degree d_s; masses
    are normalized. The support covers every degree value present in the
    graph, so degrees never visited carry explicit zero mass.
    """
    nodes = _trace_nodes(trace)
    w = _inclusion_weights(pi, nodes)
    support, category = graph.degree_classes
    sums = np.bincount(category[nodes], weights=w, minlength=len(support))
    return Distribution.from_weights(support, sums)


def true_degree_distribution(graph: "Graph") -> Distribution:
    """Exact degree distribution of the graph (the estimation target)."""
    support, category = graph.degree_classes
    counts = np.bincount(category, minlength=len(support))
    return Distribution.from_weights(support, counts.astype(np.float64))


def unique_count(trace) -> int:
    """Number of distinct node ids in a trace."""
    nodes = np.sort(_trace_nodes(trace))
    return 1 + int(np.count_nonzero(nodes[1:] != nodes[:-1]))
