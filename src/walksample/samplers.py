"""Five random-walk node samplers over undirected graphs, one transition law.

All five walks follow the same law (n nodes, d_v = degree, N(v) =
neighbors). Each node v pads by pad_v = max(cap - d_v, alpha) to a size
big_v = d_v + pad_v. From v the walk moves to a uniform member of N(v)
with probability d_v/big_v; otherwise it escapes to a uniform member of
its escape target. The kinds differ only in (cap, alpha) and that target:

* ``srw``  - simple random walk: cap 0, alpha 0, so it never escapes.
* ``rwe``  - random walk with escaping: cap 0 and its alpha, escaping to
  all n nodes (self included); Avrachenkov, Ribeiro & Towsley, WAW 2010.
* ``gmd``  - generalized maximum-degree walk: cap c, alpha 0, escaping to
  v itself (a virtual self-loop); Li et al., ICDE 2015.
* ``md``   - maximum-degree walk: ``gmd`` with c bound to d_max.
* ``wjrw`` - weighted-jump random walk: ``gmd``'s padding, escaping to the
  jump set U = {u : d_u < c} (self included when v is in U).

A law's cap and alpha are both float64, so every reader pads in the same
double arithmetic: exactly for a cap below 2^53, and as the cap's nearest
double above that. ``WalkConfig`` bounds c and alpha below 2^63, so every
padded size is finite.

``WalkLaw`` holds big, pad and U, the padded nodes that rwe and wjrw
escape to, for one (graph, config). The seeded stepper, the closed-form and
numeric stationary distributions and the transition matrix's rows (all of
them for the dense matrix of ``spectral``) are all derived from it here; its
diagonal is the law's own ``escape_share``.

Walks run on two engines that give the same traces, int32 node ids at 4
bytes a step. ``run_walk`` is the scalar reference: one walker, one Python
step at a time (~1 us a step). ``run_walks`` is the lockstep engine: it
advances a whole batch of walkers, each with its own law (its cap and alpha,
no table per law), budget, burn-in, start and Philox stream, one numpy step
at a time (~15 us a step at any width), so it pays off from a few dozen
walkers on; the harness runs every sweep through it. It picks neighbours
from the graph's own ``indices`` and escapes from a small pool of the node
ids and the jumping laws' targets, so beyond the graph a batch holds its
traces, that pool and fixed-size chunk buffers.

The closed form weights each node by big_v. That is exact for every law
whose escape targets pad equally (srw, md, gmd, rwe, and wjrw when all of U
shares one degree): such a law is reversible with pi proportional to big.
Otherwise (wjrw) the closed form spreads the padding evenly over U, which is
what the ``paper`` estimation-weights mode uses. A node's closed-form
weight depends on its degree alone, so a sweep keeps one value per degree
class and law (``stationary_closed_form`` given degrees), not an n-long
vector per law.
The ``oracle`` mode uses the numeric
stationary, there one conjugate-gradient solve of the law's balance
equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real
from typing import Optional, Sequence

import numpy as np

from .graph import Graph

RNG_ALGORITHM = "philox4x64"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SamplerError(ValueError):
    """Invalid sampler configuration or an impossible transition."""


class WalkTooLongError(SamplerError):
    """A walk's path of ``burn_in + budget`` nodes cannot be allocated."""


class ConvergenceError(RuntimeError):
    """The stationary solve did not reach tolerance."""


class SamplerKind(str, Enum):
    SRW = "srw"
    RWE = "rwe"
    MD = "md"
    GMD = "gmd"
    WJRW = "wjrw"


_START_POLICIES = ("uniform", "degree", "fixed")

# The kinds that read each walk parameter, which ``WalkConfig`` requires of
# exactly them (md reads no c: it binds its threshold to d_max when it runs).
KINDS_READING = {"c": (SamplerKind.GMD, SamplerKind.WJRW), "alpha": (SamplerKind.RWE,)}


@dataclass(frozen=True)
class WalkConfig:
    """Sampler kind plus everything needed to reproduce one walk.

    ``alpha`` and ``c`` are given for, and only for, the kinds in
    ``KINDS_READING``. ``seed`` fully determines the walk on a given graph.
    It is the one place that states the bounds of a walk's values.
    """

    kind: SamplerKind
    alpha: Optional[float] = None
    c: Optional[int] = None
    budget: int = 1
    seed: int = 0
    start_policy: str = "uniform"
    start_node: Optional[int] = None
    burn_in: int = 0

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", SamplerKind(self.kind))
        except ValueError:
            raise SamplerError(f"unknown sampler {self.kind!r}") from None
        for name in ("c", "budget", "burn_in", "seed", "start_node"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) or value is None and name in ("c", "start_node")):
                raise SamplerError(f"{name} must be an integer")
        if not (self.alpha is None or isinstance(self.alpha, Real)):
            raise SamplerError("alpha must be a real number")
        for name, kinds in KINDS_READING.items():
            if getattr(self, name) is None and self.kind in kinds:
                raise SamplerError(f"{self.kind.value} requires {name}")
            if getattr(self, name) is not None and self.kind not in kinds:
                raise SamplerError(f"{name} is not a parameter of {self.kind.value}")
        if self.c is not None and self.c < 1:
            raise SamplerError("c must be >= 1")
        if self.alpha is not None and not 0 <= self.alpha < np.inf:
            raise SamplerError("alpha must be finite and >= 0")
        for name, cast in (("alpha", float), ("c", int)):
            if getattr(self, name) is not None:
                if getattr(self, name) >= 1 << 63:  # so that every padded size is finite
                    raise SamplerError(f"{name} must be < 2^63")
                object.__setattr__(self, name, cast(getattr(self, name)))
        if self.budget < 1:
            raise SamplerError("budget must be >= 1")
        if self.burn_in < 0:
            raise SamplerError("burn-in must be >= 0")
        if self.burn_in + self.budget >= 1 << 60:  # a path's bytes, 4 a node, fit int64
            raise SamplerError("burn-in + budget must be < 2^60")
        if self.start_policy not in _START_POLICIES:
            raise SamplerError(f"unknown start policy {self.start_policy!r}")
        if (self.start_node is None) == (self.start_policy == "fixed"):
            raise SamplerError("start_node must be given exactly for the fixed policy")


@dataclass(frozen=True)
class Trace:
    """Ordered node visits of one walk, with its provenance.

    ``nodes`` are int32 node ids, 4 bytes a step. With a burn-in, ``nodes``
    is a view of the walk's whole path, whose base keeps the ``burn_in``
    unrecorded nodes alive: ``burn_in + budget`` nodes a walk, as the harness
    counts them when it cuts a sweep into batches.
    """

    nodes: np.ndarray
    config: WalkConfig
    start: int

    def __len__(self) -> int:
        return len(self.nodes)


def padding(cap, alpha, degrees) -> np.ndarray:
    """Padding max(cap - d, alpha) of nodes of the given degrees, float64 for
    a float cap or alpha; one law over all nodes, or per walker over a batch."""
    return np.maximum(cap - degrees, alpha)


def derive_seed(base_seed: int, repetition: int) -> int:
    """Deterministic 64-bit per-repetition seed (SplitMix64 sequence)."""
    x = (base_seed + (repetition + 1) * _GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; independent streams for distinct seeds."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


class WalkLaw:
    """The transition law every walk kind is an instance of.

    Node v pads by ``pad[v] = padding(cap, alpha, d_v)``, with each kind's
    cap and alpha as in the module docstring, both float64. From v the walk
    escapes with probability ``pad[v] / big[v]``, else it moves to a uniform
    neighbor (``big = d + pad``). An escape lands on a uniform member of
    ``targets``, the padded nodes (rwe, wjrw), or stays at v when ``targets``
    is None (md, gmd, and any law that pads no node). Built once per (graph,
    config). P's rows (``_transition_rows``) and ``spectral``'s repeat
    probability read ``escape_share``, both stationary distributions read
    ``reversible``, and the engines read the rest.
    """

    __slots__ = ("cap", "alpha", "big", "pad", "targets")

    def __init__(self, graph: Graph, config: WalkConfig):
        self.cap = float(graph.d_max if config.kind is SamplerKind.MD else (config.c or 0))
        self.alpha = 0.0 if config.alpha is None else config.alpha  # keeps alpha = -0.0
        self.pad = pad = padding(self.cap, self.alpha, graph.degrees)
        self.big = graph.degrees + pad
        jumps = config.kind in (SamplerKind.RWE, SamplerKind.WJRW) and pad.any()
        self.targets = np.flatnonzero(pad) if jumps else None  # never an empty array

    def escape_share(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """P(v -> t) for each node v in ``lo:hi`` and each of v's escape
        destinations t (v itself, or every target). The targets are the padded
        nodes, so this is also P's diagonal. Raises for an isolated node."""
        big, pad = self.big[lo:hi], self.pad[lo:hi]
        isolated = np.flatnonzero(big == 0)
        if len(isolated):
            raise SamplerError(f"no outgoing transition from isolated node {lo + isolated[0]}")
        return pad / big if self.targets is None else pad / (big * len(self.targets))

    @property
    def reversible(self) -> bool:
        """Whether pi is proportional to ``big``: the law escapes to self, or
        every target pads equally (see ``stationary_numeric``)."""
        return self.targets is None or bool(np.ptp(self.pad[self.targets]) == 0)


def _stepper(graph: Graph, law: WalkLaw):
    """One transition from v driven by two uniforms (escape test, then pick).

    Per-node values are read from Python lists, which index faster than
    arrays; the 2m-long neighbor array stays an array, as a list of it would
    cost more time and memory than a walk saves.
    """
    big, pad, targets = law.big.tolist(), law.pad.tolist(), law.targets
    degrees, indptr, indices = graph.degrees.tolist(), graph.indptr.tolist(), graph.indices
    size = 0 if targets is None else len(targets)

    def advance(v: int, r_mode: float, r_pick: float) -> int:
        if r_mode * big[v] < pad[v]:
            if targets is None:
                return v
            j = int(r_pick * size)
            return int(targets[j if j < size else size - 1])
        d = degrees[v]
        if d == 0:
            raise SamplerError(f"no outgoing transition from isolated node {v}")
        j = int(r_pick * d)
        return int(indices[indptr[v] + (j if j < d else d - 1)])

    return advance


def _transition_rows(graph: Graph, config: WalkConfig, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of the walk's transition matrix, as one dense array."""
    law = WalkLaw(graph, config)
    share = law.escape_share(lo, hi)
    rows = np.zeros((hi - lo, graph.n))
    if law.targets is None:
        rows[np.arange(hi - lo), np.arange(lo, hi)] = share
    else:
        rows[:, law.targets] = share[:, None]
    tails = np.repeat(np.arange(hi - lo), graph.degrees[lo:hi])
    rows[tails, graph.indices[graph.indptr[lo] : graph.indptr[hi]]] += 1.0 / law.big[lo + tails]
    return rows


def _draw_start(graph: Graph, config: WalkConfig, rng: np.random.Generator) -> int:
    if config.start_policy == "fixed":
        v = int(config.start_node)
        if not 0 <= v < graph.n:
            raise SamplerError(f"start node {v} out of range")
        return v
    r = float(rng.random())
    if config.start_policy == "degree":
        cum = graph.indptr[1:]  # cumulative degrees
        if not cum[-1]:
            raise SamplerError("a degree-proportional start needs an edge")
        return int(np.searchsorted(cum, r * cum[-1], side="right"))
    v = int(r * graph.n)
    return v if v < graph.n else graph.n - 1


def _empty_path(config: WalkConfig) -> np.ndarray:
    """An uninitialised int32 path of the walk's ``burn_in + budget`` nodes."""
    size = config.burn_in + config.budget
    try:
        return np.empty(size, dtype=np.int32)
    except MemoryError:
        raise WalkTooLongError(
            f"cannot allocate the path of a walk of burn-in + budget = {size} nodes ({4 * size} bytes)"
        ) from None


def run_walk(graph: Graph, config: WalkConfig) -> Trace:
    """Run one seeded walk; the trace has exactly ``budget`` nodes.

    The walk records its whole path of ``burn_in + budget`` nodes: the start,
    then the node after each step. Its trace is the path's tail after the
    burn-in, so burn-in steps do not count toward the budget. Identical
    (graph, config) always produce the identical trace.
    """
    if graph.n == 0:
        raise SamplerError("cannot walk an empty graph")
    advance = _stepper(graph, WalkLaw(graph, config))
    rng = make_rng(config.seed)
    path = _empty_path(config)
    path[0] = v = start = _draw_start(graph, config, rng)
    chunk = 1 << 15
    for first in range(1, len(path), chunk):  # first: the index the chunk's first step fills
        k = min(chunk, len(path) - first)
        buf = rng.random(2 * k).tolist()
        for t, r_mode, r_pick in zip(range(first, first + k), buf[::2], buf[1::2]):
            path[t] = v = advance(v, r_mode, r_pick)
    return Trace(nodes=path[config.burn_in :], config=config, start=start)


# Steps x walkers advanced per chunk of drawn variates (two per step), so a
# chunk holds about as many variates as one of ``run_walk``'s.
_LOCKSTEP_CHUNK = 1 << 15


def run_walks(graph: Graph, configs: Sequence[WalkConfig]) -> list[Trace]:
    """Run many seeded walks in lockstep; trace i equals ``run_walk(graph, configs[i])``.

    Every walker of the batch takes its step t in the same numpy operations,
    whatever its law, budget, burn-in or start policy, and like ``run_walk``
    records its whole path, int32 node ids at 4 bytes a step, and returns the
    tail after its burn-in. A walker carries its law's float64 cap and alpha,
    pads its node's float64 degree d at each step and tests
    ``r * (d + pad) < pad``: the values of the scalar stepper's
    ``r * big < pad``. A neighbour pick reads ``graph.indices`` in place, at
    offset ``indptr[v]``. An escape pick is a uniform index into a block of a
    small pool, ``arange(n)`` (an escape to self picks v, a block of size 1 at
    offset v) then each jumping law's targets; a walker carries its escape
    block's offset (0 to self) and size, and escaping walkers take the escape
    pick in place of the neighbour pick. A batch in which no law escapes makes
    only the neighbour pick. Each walker keeps its own Philox stream, drawn in
    chunks; ``random(a)`` then ``random(b)`` yields the numbers of one
    ``random(a + b)``, so the chunk size changes no trace. Both picks are the
    scalar stepper's, bit for bit.
    """
    if graph.n == 0:
        raise SamplerError("cannot walk an empty graph")
    if not configs:
        return []
    pool = [np.arange(graph.n, dtype=np.int64)]
    laws: dict = {}  # (kind, alpha, c) -> (cap, alpha, escape offset, escape size)
    for cfg in configs:
        key = (cfg.kind, cfg.alpha, cfg.c)
        if key not in laws:
            law = WalkLaw(graph, cfg)
            if law.targets is None:
                laws[key] = (law.cap, law.alpha, 0, 1)
            else:
                laws[key] = (law.cap, law.alpha, sum(map(len, pool)), len(law.targets))
                pool.append(law.targets)
    pool = np.concatenate(pool)
    # The float64 operands of each step, so that it casts nothing: one table
    # a batch, not one a law.
    degrees, indptr = graph.degrees.astype(np.float64), graph.indptr[:-1]
    # Picks are clipped into range, as an escaping walker's neighbour pick
    # may point past the array; an edgeless graph's walkers all escape, and
    # pick from a stand-in of one element.
    neighbours = graph.indices if len(graph.indices) else np.zeros(1, dtype=np.int64)
    isolated = not degrees.all()

    # The batch in walker order, by steps to take, most first: those still
    # walking at any step are a prefix of it, and a path too long to allocate
    # fails before a shorter one is allocated.
    order = sorted(range(len(configs)), key=lambda i: -(configs[i].burn_in + configs[i].budget))
    walkers = [configs[i] for i in order]
    rngs = [make_rng(cfg.seed) for cfg in walkers]
    starts = [_draw_start(graph, cfg, rng) for cfg, rng in zip(walkers, rngs)]
    paths = [_empty_path(cfg) for cfg in walkers]
    totals = [len(path) - 1 for path in paths]
    columns = zip(*(laws[cfg.kind, cfg.alpha, cfg.c] for cfg in walkers))
    cap, alpha, escape_first, escape_size = map(np.array, columns, (np.float64, np.float64, np.int64, np.float64))
    escapes = bool(padding(cap, alpha, graph.min_degree).any())  # a law pads some node iff one of least degree
    v = np.array(starts, dtype=np.int64)
    for path, start in zip(paths, starts):
        path[0] = start

    done, active, width = 0, len(walkers), 0
    while done < totals[0]:
        while totals[active - 1] <= done:
            active -= 1
        k = min(max(1, _LOCKSTEP_CHUNK // active), totals[0] - done)
        draws = np.empty((active, 2 * k))
        for i in range(active):
            rngs[i].random(out=draws[i, : 2 * min(k, totals[i] - done)])
        draws = draws.T.copy()  # row 2r: escape tests of step r; row 2r + 1: picks
        visits = np.empty((k, active), dtype=np.int64)
        a = active
        for r in range(k):
            while totals[a - 1] <= done + r:
                a -= 1
            if a != width:  # cut the per-walker columns only when walkers stop
                width = a
                v, cap_a, alpha_a, first_a, size_a = v[:a], cap[:a], alpha[:a], escape_first[:a], escape_size[:a]
            size = degrees.take(v)
            if escapes:
                pad = padding(cap_a, alpha_a, size)
                esc = draws[2 * r, :a] * (size + pad) < pad
                np.putmask(size, esc, size_a)
            if isolated and not size.all():
                raise SamplerError(f"no outgoing transition from isolated node {int(v[size == 0][0])}")
            # A draw r < 1 times an integer size below 2^53 rounds below
            # size, so j < size: the scalar stepper's clamp never binds here.
            j = (draws[2 * r + 1, :a] * size).astype(np.int64)
            first = indptr.take(v)
            nxt = visits[r, :a]
            neighbours.take(np.add(first, j, out=first), out=nxt, mode="clip")
            if escapes:
                # A jumping law's block lies past every node id, so the
                # maximum is its offset, or v for an escape to self.
                first = np.maximum(first_a, v)
                np.putmask(nxt, esc, pool.take(np.add(first, j, out=first), mode="clip"))
            v = nxt
        del draws  # before the next chunk draws its own
        for i in range(active):
            paths[i][done + 1 : done + 1 + k] = visits[: totals[i] - done, i]
        done += k
    traces = [Trace(nodes=path[w.burn_in :], config=w, start=start) for w, path, start in zip(walkers, paths, starts)]
    return [traces[i] for i in np.argsort(order)]  # in config order


def stationary_closed_form(graph: Graph, config: WalkConfig, degrees: Optional[np.ndarray] = None) -> np.ndarray:
    """Stationary distribution by formula, normalized to sum 1.

    Proportional to ``big = d + pad``, which is exact for a reversible law:
    srw: d_v; rwe: d_v + alpha; md: uniform; gmd: max(c, d_v); wjrw when all
    members of U share one degree. Otherwise (wjrw) the mass escaping to the
    targets is spread evenly over them: each member of U gets d_v plus the
    average padding sum(c - d_u)/|U| (see module docstring).

    A node's mass depends on its degree alone. Given int64 ``degrees``, the
    result is instead the mass of a node of each of those degrees, with no
    n-long result beyond the transient one its total is summed over; each
    mass is one correctly rounded division, so it equals the distribution's
    value at such a node bit for bit.
    """
    law = WalkLaw(graph, config)
    share = None if law.reversible else law.pad.sum() / len(law.targets)

    def weights(d: np.ndarray) -> np.ndarray:
        pad = padding(law.cap, law.alpha, d)
        if share is not None:
            pad[pad > 0] = share
        return d + pad

    every = weights(graph.degrees)
    total = every.sum()
    if total <= 0:
        raise SamplerError("graph has no edges; stationary undefined")
    return (every if degrees is None else weights(degrees)) / total


def stationary_numeric(
    graph: Graph,
    config: WalkConfig,
    tol: float = 1e-12,
    max_iters: int = 10**6,
) -> np.ndarray:
    """Exact stationary distribution from the law's balance equations.

    With pi = big * x and A the adjacency matrix, they read
    (diag(big) - A) x = 1_targets up to scale; padding that escapes to self
    cancels from them. When every target pads by one p, x = 1/p: the closed
    form is exact for every law whose escape targets pad equally (srw, md,
    gmd, rwe, and wjrw when U has one degree), and no solve runs. Otherwise
    the system is symmetric, diagonally dominant and positive definite, and
    one Jacobi-preconditioned conjugate-gradient solve in numpy gives x, to a
    relative 2-norm residual of ``tol`` within ``max_iters`` iterations. Its
    products with the matrix sum over the graph's CSR rows; no sparse matrix
    is built.
    """
    if graph.n == 0:
        raise SamplerError("empty graph")
    law = WalkLaw(graph, config)
    # A walk that can escape from every node to every node is irreducible.
    jumps_everywhere = law.targets is not None and len(law.targets) == graph.n
    if not jumps_everywhere and graph.components[0] != 1:
        raise SamplerError("graph must be connected for a unique stationary distribution")
    if law.reversible:
        return stationary_closed_form(graph, config)
    rhs = np.zeros(graph.n)
    rhs[law.targets] = 1.0
    pi = law.big * _solve_balance(graph, law.big, rhs, tol, max_iters)
    return pi / pi.sum()


def _solve_balance(graph: Graph, big: np.ndarray, rhs: np.ndarray, tol: float, max_iters: int) -> np.ndarray:
    """Solve (diag(big) - A) x = rhs by Jacobi-preconditioned conjugate
    gradients (Hestenes & Stiefel 1952) from x = 0, until the residual's
    2-norm is below ``tol`` times the right-hand side's.

    Raises ``ConvergenceError`` after ``max_iters`` iterations.
    """
    # reduceat gives an empty row (an isolated node) the value at its offset,
    # not 0, so the sums start at non-empty rows only; np.bincount over the
    # arcs' rows gives the same sums but takes twice as long.
    heads, rows = graph.indices, np.flatnonzero(graph.degrees)
    starts = graph.indptr[rows]

    def system(x: np.ndarray) -> np.ndarray:
        out = big * x
        out[rows] -= np.add.reduceat(x.take(heads), starts)
        return out

    # Inner products and norms are numpy's own sums, not BLAS ddot
    # (np.dot, np.linalg.norm): OpenBLAS splits a ddot of more than 10,000
    # elements across its threads, so its bits would depend on their count.
    def norm(v: np.ndarray) -> float:
        return np.sqrt((v * v).sum())

    inverse_big = 1.0 / big
    x = np.zeros(graph.n)
    r = rhs.copy()
    stop = tol * norm(rhs)
    for iteration in range(max_iters):
        if norm(r) < stop:
            return x
        z = inverse_big * r
        rho = (r * z).sum()
        p = z if iteration == 0 else z + (rho / rho_prev) * p
        q = system(p)
        alpha = rho / (p * q).sum()
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    residual = norm(rhs - system(x)) / norm(rhs)
    raise ConvergenceError(f"stationary solve: residual {residual:.3e} > rtol={tol:g} after {max_iters} iterations")
