"""Seeded instance generators: random hosts, extremal examples, planted systems.

Every generator depends on its parameters and seed alone, so instances
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
    bandwidth_of,
    cycle_power,
    folded_labelling,
    identity_labelling,
    packed_rows,
    path_power,
    z_rule_edge,
)


def _graph_from_bool(adj: np.ndarray) -> DenseGraph:
    """Pack a symmetric boolean adjacency matrix into a DenseGraph."""
    n = adj.shape[0]
    np.fill_diagonal(adj, False)
    adj |= adj.T
    return DenseGraph(n, packed_rows(adj), check=False)


def _refuse_negative(**counts: int) -> None:
    """Refuse a vertex count below 0, naming it."""
    for name, k in counts.items():
        if k < 0:
            raise InvalidParameters(f"{name} must be >= 0, got {k}")


def gnp(n: int, p: float, seed: int = 0) -> DenseGraph:
    """Erdos-Renyi G(n,p), deterministic per (n, p, seed)."""
    _refuse_negative(n=n)
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < p
    adj = np.triu(adj, 1)
    return _graph_from_bool(adj)


def random_bipartite(a: int, b: int, p: float, seed: int = 0) -> DenseGraph:
    """Bipartite G(a+b, p) with parts 0..a-1 and a..a+b-1."""
    _refuse_negative(a=a, b=b)
    rng = np.random.default_rng(seed)
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = rng.random((a, b)) < p
    return _graph_from_bool(adj)


def complete_bipartite(a: int, b: int) -> DenseGraph:
    _refuse_negative(a=a, b=b)
    adj = np.zeros((a + b, a + b), dtype=bool)
    adj[:a, a:] = True
    return _graph_from_bool(adj)


def two_cliques(n: int) -> DenseGraph:
    """Two vertex-disjoint cliques of sizes floor(n/2) and ceil(n/2)."""
    _refuse_negative(n=n)
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
    _refuse_negative(n=n)
    if r < 1:
        raise InvalidParameters(f"r must be >= 1, got {r}")
    if n % r != 0:
        raise InvalidParameters("n must be divisible by r")
    a = n // r + 1
    adj = np.ones((n, n), dtype=bool)
    adj[:a, :a] = False
    return _graph_from_bool(adj)


def planted_blown_cycle(
    ell: int,
    r: int,
    m: int,
    p_inside: float = 0.7,
    p_between: float = 0.6,
    seed: int = 0,
) -> tuple[DenseGraph, dict[tuple[int, int], tuple[int, ...]]]:
    """Blow up each block-cycle cell into a cluster of m vertices.

    Cluster pairs inside a block get density ``p_inside`` (superregular-ish),
    pairs whose cells are joined by the blown-cycle rule get ``p_between``,
    all remaining pairs stay empty.  Cells follow the lexicographic layout,
    cluster (i,j) holding vertices [cell*m, (cell+1)*m).  Returns the host
    and the planted clusters.
    """
    if ell < 2 or r < 1 or m < 1:
        raise InvalidParameters("need ell >= 2, r >= 1, m >= 1")
    cells = [(i, j) for i in range(1, ell + 1) for j in range(1, r + 1)]
    n = ell * r * m
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
    clusters = {
        (i, j): tuple(range(ci * m, (ci + 1) * m)) for ci, (i, j) in enumerate(cells)
    }
    return _graph_from_bool(adj), clusters


def planted_multipartite(
    L: int, m: int, p: float, seed: int = 0
) -> tuple[DenseGraph, list[list[int]]]:
    """L clusters of size m, every cluster pair random bipartite of density p,
    clusters internally empty.  Returns the host and the planted clusters."""
    _refuse_negative(L=L, m=m)
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
    """A bounded-degree graph with a bandwidth ordering and a proper
    colouring that gives each vertex one colour >= 1."""

    H: DenseGraph
    order: VertexLabelling
    colouring: tuple[int, ...]
    beta: float

    def __post_init__(self):
        if len(self.colouring) != self.H.n or min(self.colouring, default=1) < 1:
            raise InvalidParameters(
                f"colouring must give each of the {self.H.n} vertices one colour >= 1"
            )
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
    if n < 1 or r_pow < 0:
        raise InvalidParameters(f"need n >= 1 vertices and r_pow >= 0, got {n}, {r_pow}")
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
    if n < 1 or r_pow < 0:
        raise InvalidParameters(f"need n >= 1 vertices and r_pow >= 0, got {n}, {r_pow}")
    H = path_power(r_pow, n)
    order = identity_labelling(n)
    colouring = tuple(v % (r_pow + 1) + 1 for v in range(n))
    if beta is None:
        beta = max(r_pow, 1) / n
    return BandwidthedH(H, order, colouring, beta)


def tiling_H(r: int, copies: int, beta: float | None = None) -> BandwidthedH:
    """A K_r-tiling of `copies` blocks in consecutive order (bandwidth r-1)."""
    if r < 1 or copies < 1:
        raise InvalidParameters(f"need r >= 1 and copies >= 1, got {r}, {copies}")
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
    if n < 1 or window < 1:
        raise InvalidParameters(f"need n >= 1 vertices and window >= 1, got {n}, {window}")
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

