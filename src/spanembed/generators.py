"""Seeded instance generators: random hosts, extremal examples, planted systems.

Every generator is a pure function of its parameters and seed, so instances
regenerate bit-exactly.  Random adjacency is produced with numpy and packed
straight into graph rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graphs import (
    DenseGraph,
    InvalidParameters,
    VertexLabelling,
    cycle_power,
    folded_labelling,
    identity_labelling,
    make_named,
    path_power,
    z_rule_edge,
)


def _graph_from_bool(adj: np.ndarray) -> DenseGraph:
    """Pack a symmetric boolean adjacency matrix into a DenseGraph."""
    n = adj.shape[0]
    np.fill_diagonal(adj, False)
    adj |= adj.T
    packed = np.packbits(adj, axis=1, bitorder="little")
    rows = [int.from_bytes(packed[v].tobytes(), "little") for v in range(n)]
    return DenseGraph(n, rows, check=False)


def gnp(n: int, p: float, seed: int = 0) -> DenseGraph:
    """Erdos-Renyi G(n,p), deterministic per (n, p, seed)."""
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return _graph_from_bool(adj)


def random_bipartite(a: int, b: int, p: float, seed: int = 0) -> DenseGraph:
    """Bipartite G(a+b, p) with parts 0..a-1 and a..a+b-1."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = rng.random((a, b)) < p
    return _graph_from_bool(adj)


def complete_bipartite(a: int, b: int) -> DenseGraph:
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    return _graph_from_bool(adj)


def two_cliques(n: int) -> DenseGraph:
    """Two vertex-disjoint cliques of sizes floor(n/2) and ceil(n/2)."""
    h = n // 2
    adj = np.zeros((n, n), dtype=bool)
    adj[:h, :h] = True
    adj[h:, h:] = True
    return _graph_from_bool(adj)


def clique_factor_extremal(r: int, n: int) -> DenseGraph:
    """All edges except those inside a part A of size n/r + 1.

    The classic obstruction to a K_r-factor: A has one vertex too many for
    the rest of the graph to cover.
    """
    if n % r != 0:
        raise InvalidParameters("n must be divisible by r")
    a = n // r + 1
    adj = np.ones((n, n), dtype=bool)
    adj[:a, :a] = False
    return _graph_from_bool(adj)


@dataclass(frozen=True)
class PlantedStructure:
    """A blown-up cycle host plus the planted ground truth."""

    G: DenseGraph
    ell: int
    r: int
    clusters: dict[tuple[int, int], tuple[int, ...]]
    exceptional: tuple[int, ...]
    p_inside: float
    p_between: float


def planted_blown_cycle(
    ell: int,
    r: int,
    m: int,
    p_inside: float = 0.7,
    p_between: float = 0.6,
    n_exceptional: int = 0,
    p_exceptional: float = 0.9,
    seed: int = 0,
) -> PlantedStructure:
    """Blow up each block-cycle cell into a cluster of m vertices.

    Cluster pairs inside a block get density ``p_inside`` (superregular-ish),
    pairs whose cells are joined by the blown-cycle rule get ``p_between``,
    all remaining pairs stay empty.  Exceptional vertices attach everywhere
    with density ``p_exceptional``.  Cells follow the lexicographic layout,
    cluster (i,j) holding vertices [cell*m, (cell+1)*m).
    """
    if ell < 2 or r < 1 or m < 1:
        raise InvalidParameters("need ell >= 2, r >= 1, m >= 1")
    cells = [(i, j) for i in range(1, ell + 1) for j in range(1, r + 1)]
    n = ell * r * m + n_exceptional
    rng = np.random.default_rng(seed)
    adj = np.zeros((n, n), dtype=bool)
    for ci, (i, j) in enumerate(cells):
        lo1, hi1 = ci * m, (ci + 1) * m
        for cj in range(ci + 1, len(cells)):
            i2, j2 = cells[cj]
            lo2, hi2 = cj * m, (cj + 1) * m
            if i == i2:
                p = p_inside
            elif z_rule_edge(i, j, i2, j2, ell):
                p = p_between
            else:
                continue
            adj[lo1:hi1, lo2:hi2] = rng.random((m, m)) < p
    base = ell * r * m
    if n_exceptional:
        adj[:base, base:] = rng.random((base, n_exceptional)) < p_exceptional
        adj[base:, base:] = np.triu(rng.random((n_exceptional, n_exceptional)) < p_exceptional, 1)
    G = _graph_from_bool(adj)
    clusters = {
        (i, j): tuple(range(ci * m, (ci + 1) * m)) for ci, (i, j) in enumerate(cells)
    }
    return PlantedStructure(
        G=G,
        ell=ell,
        r=r,
        clusters=clusters,
        exceptional=tuple(range(base, n)),
        p_inside=p_inside,
        p_between=p_between,
    )


def planted_superregular_pair(
    a: int, b: int, p: float, seed: int = 0
) -> DenseGraph:
    """Bipartite pair of density ~p; random bipartite graphs of constant
    density are the canonical regular pairs."""
    return random_bipartite(a, b, p, seed)


def planted_multipartite(
    L: int, m: int, p: float, seed: int = 0
) -> tuple[DenseGraph, list[list[int]]]:
    """L clusters of size m, every cluster pair random bipartite of density p,
    clusters internally empty.  Returns the host and the planted clusters."""
    n = L * m
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < p, 1)
    for i in range(L):
        lo, hi = i * m, (i + 1) * m
        adj[lo:hi, lo:hi] = False
    G = _graph_from_bool(adj)
    clusters = [list(range(i * m, (i + 1) * m)) for i in range(L)]
    return G, clusters


# -- H-side generators ------------------------------------------------------


@dataclass(frozen=True)
class BandwidthedH:
    """A bounded-degree graph with a bandwidth ordering and proper colouring."""

    H: DenseGraph
    order: VertexLabelling
    colouring: tuple[int, ...]
    beta: float

    def __post_init__(self):
        from .graphs import bandwidth_of

        if bandwidth_of(self.H, self.order) > self.beta * self.H.n:
            raise InvalidParameters("ordering exceeds the declared bandwidth")
        for u, v in self.H.edges():
            if self.colouring[u] == self.colouring[v]:
                raise InvalidParameters(f"colouring not proper at edge ({u},{v})")

    @property
    def n(self) -> int:
        return self.H.n

    def num_colours(self) -> int:
        return max(self.colouring, default=0)


def cycle_power_H(r_pow: int, n: int, beta: float | None = None) -> BandwidthedH:
    """C^{r_pow}_n with the folded (zigzag) low-bandwidth order.

    Proper colouring uses r_pow+1 colours, so n must be divisible by
    r_pow + 1.  Colours are 1-based.
    """
    k = r_pow + 1
    if n % k != 0:
        raise InvalidParameters(f"n must be divisible by {k}")
    H = cycle_power(r_pow, n)
    order = folded_labelling(n)
    colouring = tuple(v % k + 1 for v in range(n))
    if beta is None:
        beta = 2 * r_pow / n
    return BandwidthedH(H, order, colouring, beta)


def path_power_H(r_pow: int, n: int, beta: float | None = None) -> BandwidthedH:
    """P^{r_pow}_n in its natural order (bandwidth r_pow)."""
    H = path_power(r_pow, n)
    order = identity_labelling(n)
    colouring = tuple(v % (r_pow + 1) + 1 for v in range(n))
    if beta is None:
        beta = max(r_pow, 1) / n
    return BandwidthedH(H, order, colouring, beta)


def tiling_H(r: int, copies: int, beta: float | None = None) -> BandwidthedH:
    """A K_r-tiling of `copies` blocks in consecutive order (bandwidth r-1)."""
    n = r * copies
    edges = []
    for c in range(copies):
        for u in range(c * r, (c + 1) * r):
            for v in range(u + 1, (c + 1) * r):
                edges.append((u, v))
    H = DenseGraph.from_edges(n, edges)
    colouring = tuple(v % r + 1 for v in range(n))
    if beta is None:
        beta = max(r - 1, 1) / n
    return BandwidthedH(H, identity_labelling(n), colouring, beta)


def random_window_H(
    n: int,
    window: int,
    max_degree: int,
    num_colours: int,
    seed: int = 0,
) -> BandwidthedH:
    """Random low-bandwidth H: edges only within the given window of the
    identity order, degree-capped, coloured greedily with num_colours."""
    rng = random.Random(seed)
    degree = [0] * n
    colouring = [0] * n
    rows_edges: list[tuple[int, int]] = []
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(n):
        used = {colouring[w] for w in adj[u] if w < u}
        options = [c for c in range(1, num_colours + 1) if c not in used]
        colouring[u] = rng.choice(options) if options else num_colours
        # propose a few window edges forward
        for _ in range(max_degree):
            v = u + rng.randint(1, window)
            if v >= n or degree[u] >= max_degree or degree[v] >= max_degree:
                continue
            if v in adj[u]:
                continue
            adj[u].add(v)
            adj[v].add(u)
            degree[u] += 1
            degree[v] += 1
            rows_edges.append((u, v))
    # greedy recolour to repair conflicts introduced by forward edges
    for u in range(n):
        used = {colouring[w] for w in adj[u]}
        if colouring[u] in used:
            options = [c for c in range(1, num_colours + 1) if c not in used]
            if not options:
                # drop conflicting edges (keeps degree bound and window)
                for w in sorted(adj[u]):
                    if colouring[w] == colouring[u]:
                        adj[u].discard(w)
                        adj[w].discard(u)
                        rows_edges.remove((min(u, w), max(u, w)))
            else:
                colouring[u] = options[0]
    edges = [(min(u, v), max(u, v)) for u, v in rows_edges if v in adj[u]]
    H = DenseGraph.from_edges(n, set(edges))
    return BandwidthedH(H, identity_labelling(n), tuple(colouring), window / n)


# -- instance-spec dispatch ---------------------------------------------------


@dataclass(frozen=True)
class InstanceSpec:
    """Named generator + parameters + seed; regeneration is bit-exact."""

    generator: str
    params: tuple = ()
    seed: int = 0


def gen_instance(spec: InstanceSpec):
    """Dispatch an InstanceSpec to its generator."""
    g = spec.generator
    if g == "gnp":
        n, p = spec.params
        return gnp(int(n), float(p), spec.seed)
    if g == "two-clique":
        (n,) = spec.params
        return two_cliques(int(n))
    if g == "factor-extremal":
        r, n = spec.params
        return clique_factor_extremal(int(r), int(n))
    if g == "complete":
        (n,) = spec.params
        return DenseGraph.complete(int(n))
    if g == "complete-bipartite":
        a, b = spec.params
        return complete_bipartite(int(a), int(b))
    if g == "named":
        kind = spec.params[0]
        return make_named(kind, [int(x) for x in spec.params[1:]])
    if g == "planted-z":
        ell, r, m, p_in, p_btw, n_exc = spec.params
        return planted_blown_cycle(
            int(ell), int(r), int(m), float(p_in), float(p_btw), int(n_exc),
            seed=spec.seed,
        )
    if g == "h-cycle-power":
        r_pow, n = spec.params
        return cycle_power_H(int(r_pow), int(n))
    if g == "h-path-power":
        r_pow, n = spec.params
        return path_power_H(int(r_pow), int(n))
    if g == "h-tiling":
        r, copies = spec.params
        return tiling_H(int(r), int(copies))
    if g == "h-random-window":
        n, window, max_degree, num_colours = spec.params
        return random_window_H(
            int(n), int(window), int(max_degree), int(num_colours), seed=spec.seed
        )
    raise InvalidParameters(f"unknown generator {g!r}")
