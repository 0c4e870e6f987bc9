"""Ratio estimation from walk traces, scored against the true distribution.

The core estimator reweights every trace occurrence s by 1/pi(s), where pi
is the sampler's stationary distribution (or any positive multiple of it;
the ratio form cancels normalization):

    estimate = sum_s f(s)/pi(s)  /  sum_s 1/pi(s)

Degree-distribution estimates apply the same weights per degree class. A
degree distribution is a (K,) float64 array of masses, one per entry of
``graph.degree_classes[0]``, so an estimate and the truth are aligned by
position. Accuracy is scored with KL divergence. A trace is the array of
node ids a walk visits, repeats included.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graph import Graph

_MASS_TOL = 1e-12


class ZeroInclusionProbability(ValueError):
    """A visited node has zero inclusion probability under the given weights."""


def _normalised(weights: np.ndarray) -> np.ndarray:
    """Nonnegative weights as masses summing to 1; the total must be positive and finite."""
    total = float(weights.sum())
    if not 0 < total < np.inf:  # a NaN total fails too
        raise ValueError(f"weights total {total!r}, not a positive finite number")
    return weights / total


def _masses(dist) -> np.ndarray:
    """A distribution's masses: 1-d, none below -1e-12, summing to 1 within 1e-12."""
    mass = np.asarray(dist, dtype=np.float64)
    if mass.ndim != 1:
        raise ValueError("a distribution must be a 1-d array of masses")
    if np.any(mass < -_MASS_TOL):
        raise ValueError("negative mass")
    if not abs(float(mass.sum()) - 1.0) <= _MASS_TOL:  # a NaN mass fails too
        raise ValueError(f"mass sums to {mass.sum()!r}, not 1")
    return np.maximum(mass, 0.0)


def kl_divergence(true_p, est_q, eps: float = 1e-12) -> float:
    """KL(true || estimated) in nats, with additive smoothing of the estimate.

    ``true_p`` and ``est_q`` are mass arrays over the same categories.
    ``eps`` is added to the estimate on every category and the estimate is
    renormalized, so unsampled categories yield a large but finite penalty.
    Terms with zero true mass contribute 0.
    """
    p, q = _masses(true_p), _masses(est_q)
    if p.shape != q.shape:
        raise ValueError(f"distributions over {len(p)} and {len(q)} categories")
    q_smooth = q + eps
    q_smooth /= q_smooth.sum()
    pos = p > 0
    return float(np.sum(p[pos] * np.log(p[pos] / q_smooth[pos])))


def _trace_nodes(nodes) -> np.ndarray:
    """A trace's node ids: int32 ones (a walk's) as they are, other integers as int64."""
    nodes = np.asarray(nodes)
    if nodes.size == 0:
        raise ValueError("empty trace")
    if nodes.dtype.kind not in "iu":
        raise ValueError(f"node ids must be integers, not {nodes.dtype}")
    if nodes.dtype != np.int32:
        nodes = nodes.astype(np.int64, copy=False)
    return nodes


def _check_ids(nodes: np.ndarray, n: int) -> None:
    """Raise unless every node id lies in [0, n)."""
    if nodes.min() < 0 or nodes.max() >= n:
        raise ValueError(f"node ids must lie in [0, {n}), got {nodes.min()}..{nodes.max()}")


def _node_array(values, name: str, n: int | None = None) -> np.ndarray:
    """A node function as its 1-d float64 array, of ``n`` values where given."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or n is not None and len(values) != n:
        raise ValueError(f"{name} must be a 1-d array of one value per node, got shape {values.shape}")
    return values


def _inverse(pivals: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """1/pi of each occurrence, given its pi value; raises at a nonpositive one."""
    if np.any(pivals <= 0):
        bad = int(nodes[np.argmax(pivals <= 0)])
        raise ZeroInclusionProbability(
            f"zero inclusion probability at node {bad}"
        )
    return 1.0 / pivals


def ht_ratio_estimate(nodes, pi, f) -> float:
    """Self-normalized importance-weighted estimate of the mean of f.

    All trace occurrences, repeats included, enter both sums. ``pi`` may be
    unnormalized; any positive scaling cancels in the ratio. ``pi`` and
    ``f`` are arrays of one value per node, n = ``len(pi)``.
    """
    nodes = _trace_nodes(nodes)
    pi = _node_array(pi, "pi")
    f = _node_array(f, "f", len(pi))
    _check_ids(nodes, len(pi))
    w = _inverse(pi.take(nodes), nodes)
    return float((w * f.take(nodes)).sum() / w.sum())


def degree_distribution_estimate(nodes, pi, graph: "Graph") -> np.ndarray:
    """Estimated degree distribution from a trace.

    Each occurrence of node s adds 1/pi(s) to the mass of degree d_s; masses
    are normalized. There is one mass per degree class of the graph, so
    degrees never visited carry explicit zero mass.
    """
    nodes = _trace_nodes(nodes)
    pi = _node_array(pi, "pi", graph.n)
    _check_ids(nodes, graph.n)
    return degree_estimate_from_pi(nodes, pi.take(nodes), graph)


def degree_estimate_from_pi(nodes: np.ndarray, pivals: np.ndarray, graph: "Graph") -> np.ndarray:
    """``degree_distribution_estimate`` of a trace's ``nodes``, given the pi
    value of each occurrence rather than a weight function over all nodes."""
    support, category = graph.degree_classes
    return _normalised(np.bincount(category.take(nodes), weights=_inverse(pivals, nodes), minlength=len(support)))


def true_degree_distribution(graph: "Graph") -> np.ndarray:
    """Exact degree distribution of the graph (the estimation target)."""
    support, category = graph.degree_classes
    return _normalised(np.bincount(category, minlength=len(support)))


def unique_count(nodes) -> int:
    """Number of distinct node ids in a trace."""
    nodes = np.sort(_trace_nodes(nodes))
    return 1 + int(np.count_nonzero(nodes[1:] != nodes[:-1]))
