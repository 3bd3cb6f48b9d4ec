"""Cluster rebalancing onto exact cell sizes (the lemma for G).

The clusters of a spanning partition of V(G) sit on the cells (a,b) of the
blown-cycle template [2ell] x [2r], all of one size m; a row a is one half
of a block of 4r clusters on the reduced graph's power cycle.  ``lemma_g``
meets exact target sizes n_{a,b} by augmenting paths: while some cell is
over-full, one vertex is shifted along each edge of a shortest path of valid
moves to an under-full cell, where a move into (a,b) is valid when the
vertex sees enough of every other cell of row a.  The final partition is
rechecked from scratch: exact sizes, every moved vertex valid in its new
cell, and bounded drift from the original clusters.  A refusal is a
``StageFailure`` labelled ``lemma-g``.
"""

from __future__ import annotations

import math
from collections import deque

from .graphs import DenseGraph, StageFailure, first_misplaced, mask_of


Cell = tuple[int, int]


def is_valid_move(
    G: DenseGraph,
    v: int,
    target: Cell,
    Y: dict[Cell, tuple[int, ...]],
    delta: float,
    eps: float,
    m: int,
) -> bool:
    """v -> Y_{a,b} is valid when v sees at least (delta-2eps)m vertices of
    every other cell of row a."""
    need = (delta - 2 * eps) * m
    return all(
        G.degree_into(v, mask_of(Y[cell])) >= need
        for cell in Y
        if cell[0] == target[0] and cell != target
    )


def _reallocate(
    G: DenseGraph,
    Y: dict[Cell, tuple[int, ...]],
    want: dict[Cell, int],
    delta: float,
    eps: float,
    m: int,
) -> dict[Cell, set[int]]:
    """Starting from W = Y, shift vertices along augmenting paths until
    every cell c holds exactly want[c] vertices.

    The smallest over-full cell is the source of a breadth-first search over
    cells, with an edge c -> d when a vertex still in its own cell Y_c may
    validly move into d (the smallest such vertex is the edge's mover).  One
    vertex is shifted along each edge of the path to the nearest under-full
    cell, so a vertex moves at most once.
    """
    cells = sorted(Y)
    W = {c: set(Y[c]) for c in cells}

    def mover(c: Cell, d: Cell) -> int | None:
        for v in Y[c]:
            if v in W[c] and is_valid_move(G, v, d, Y, delta, eps, m):
                return v
        return None

    while True:
        over = [c for c in cells if len(W[c]) > want[c]]
        if not over:
            return W
        source = over[0]
        edge_into: dict[Cell, tuple[Cell, int]] = {}
        queue, sink = deque([source]), None
        while queue and sink is None:
            c = queue.popleft()
            for d in cells:
                if d == source or d in edge_into:
                    continue
                v = mover(c, d)
                if v is None:
                    continue
                edge_into[d] = (c, v)
                queue.append(d)
                if len(W[d]) < want[d]:
                    sink = d
                    break
        if sink is None:
            a, b = source
            raise StageFailure(
                "lemma-g",
                f"cell ({a},{b}) left over-full by {len(W[source]) - want[source]}: "
                "no augmenting path to an under-full cell"
            )
        d = sink
        while d != source:
            c, v = edge_into[d]
            W[c].remove(v)
            W[d].add(v)
            d = c


def lemma_g(
    G: DenseGraph,
    clusters: dict[Cell, tuple[int, ...]],
    targets: dict[Cell, int],
    eps: float,
    delta: float,
) -> dict[Cell, tuple[int, ...]]:
    """Rebalance spanning clusters of one size m onto exact targets n_{a,b}.

    Checks that the clusters have one size m and partition V(G) and that the
    targets name every cell and sum to n, reallocates them
    along augmenting paths (``_reallocate``) and returns the partition X
    with |X_{a,b}| = n_{a,b} exactly, every moved vertex valid in its new
    cell and every cell within min(eps, sqrt(eps))*m of its original
    cluster.  Every refusal is a ``StageFailure("lemma-g", ...)``.
    """
    m = max(map(len, clusters.values()), default=0)
    if any(len(c) != m for c in clusters.values()):
        raise StageFailure("lemma-g", "cells must have equal size m")
    if misplaced := first_misplaced(G.n, clusters.values()):
        raise StageFailure("lemma-g", misplaced)
    held = sum(len(c) for c in clusters.values())
    if held != G.n:
        raise StageFailure("lemma-g", f"clusters hold {held} != n = {G.n} vertices")
    missing = sorted(set(clusters) - set(targets))
    if missing:
        raise StageFailure("lemma-g", f"no target for cell {missing[0]}")
    if sum(targets[c] for c in clusters) != G.n:
        raise StageFailure("lemma-g", "targets must sum to n")
    Y = {cell: tuple(sorted(cluster)) for cell, cluster in clusters.items()}
    W = _reallocate(G, Y, targets, delta, eps, m)
    # binding checks, recomputed from the final state; a cell starts as its
    # original cluster, so the proof's drift bounds eps*m (from the size-m
    # cell) and sqrt(eps)*m (from the cluster) measure the same set
    max_drift = min(eps, math.sqrt(eps)) * m
    X: dict[Cell, tuple[int, ...]] = {}
    for (a, b), cluster in Y.items():
        X[(a, b)] = tuple(sorted(W[(a, b)]))
        if len(X[(a, b)]) != targets[(a, b)]:
            raise StageFailure("lemma-g", f"cell ({a},{b}) missed its exact size")
        drift = set(X[(a, b)]) ^ set(cluster)
        if len(drift) > max_drift + 1e-9:
            raise StageFailure(
                "lemma-g",
                f"cell ({a},{b}) drifted by {len(drift)} > "
                f"min(eps, sqrt(eps))*m = {max_drift:.1f}"
            )
        for v in drift - set(cluster):
            if not is_valid_move(G, v, (a, b), Y, delta, eps, m):
                raise StageFailure("lemma-g", f"vertex {v} sits invalidly in ({a},{b})")
    return X
