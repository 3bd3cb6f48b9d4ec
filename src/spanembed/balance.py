"""Cycle structures and two-phase cluster rebalancing.

A cycle structure is a spanning partition of V(G) into clusters of one size
m, indexed by the cells [ell] x [r] of the blown-cycle template, with the
pair parameters (eps, delta) that decide which vertex moves are valid.  The
rebalancing of ``lemma_g`` has two phases.  Phase one is arithmetic and
moves no vertex: every cell, relabelled through ``phi_bijection``, has size
m.  Phase two meets exact target sizes by augmenting paths: while some cell
is over-full, one vertex is shifted along each edge of a shortest path of
valid moves to an under-full cell.  The final partition is rechecked from
scratch: exact sizes, every moved vertex valid in its new cell, and bounded
drift from the original clusters.  A refusal is a ``StageFailure`` labelled
``lemma-g``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .graphs import DenseGraph, InvalidParameters, StageFailure, mask_of


Cell = tuple[int, int]


# -- the relabelling bijection ------------------------------------------------


def phi_bijection(i: int, j: int, r: int, ell: int) -> Cell:
    """Map cell (i,j) of [ell] x [2r] to [2ell] x [r] lexicographically:
    (1,1)...(1,r) -> (1,1)...(1,r), (1,r+1)...(1,2r) -> (2,1)...(2,r), etc."""
    if not (1 <= i <= ell and 1 <= j <= 2 * r):
        raise InvalidParameters(f"cell ({i},{j}) outside [{ell}]x[{2 * r}]")
    a = 2 * (i - 1) + math.ceil(j / r)
    b = (j - 1) % r + 1
    return a, b


def phi_inverse(a: int, b: int, r: int, ell: int) -> Cell:
    if not (1 <= a <= 2 * ell and 1 <= b <= r):
        raise InvalidParameters(f"cell ({a},{b}) outside [{2 * ell}]x[{r}]")
    i = math.ceil(a / 2)
    j = ((a - 1) % 2) * r + b
    return i, j


# -- cycle structures ---------------------------------------------------


@dataclass
class CycleStructure:
    """Definition-17 package without an exceptional set: clusters over
    [ell] x [r] cells that span V(G), and pair parameters."""

    ell: int
    r: int
    clusters: dict[Cell, tuple[int, ...]]
    eps: float
    delta: float

    def cells(self) -> list[Cell]:
        return [(i, j) for i in range(1, self.ell + 1) for j in range(1, self.r + 1)]

    def n(self) -> int:
        return sum(len(c) for c in self.clusters.values())

    def m(self) -> int:
        sizes = {len(c) for c in self.clusters.values()}
        return max(sizes) if sizes else 0


# -- rebalancing ------------------------------------------------------------


def is_valid_move(
    G: DenseGraph,
    v: int,
    target: Cell,
    Y: dict[Cell, tuple[int, ...]],
    r: int,
    delta: float,
    eps: float,
    m: int,
) -> bool:
    """v -> Y_{i,j} is valid when v sees at least (delta-2eps)m vertices of
    every other same-half cell of the target block."""
    i, j = target
    need = (delta - 2 * eps) * m
    half = range(1, r + 1) if j <= r else range(r + 1, 2 * r + 1)
    for j2 in half:
        if j2 == j:
            continue
        if G.degree_into(v, mask_of(Y[(i, j2)])) < need:
            return False
    return True


def _reallocate(
    G: DenseGraph,
    Y: dict[Cell, tuple[int, ...]],
    want: dict[Cell, int],
    ell: int,
    r: int,
    delta: float,
    eps: float,
    m: int,
) -> dict[Cell, set[int]]:
    """Phase two: starting from W = Y, shift vertices along augmenting paths
    until every cell c holds exactly want[c] vertices.

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
            if v in W[c] and is_valid_move(G, v, d, Y, r, delta, eps, m):
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
            a, b = phi_bijection(*source, r, ell)
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


@dataclass
class LemmaGResult:
    m_ab: dict[Cell, int]
    X: dict[Cell, tuple[int, ...]] | None = None


def lemma_g(
    G: DenseGraph,
    C: CycleStructure,
    targets: dict[Cell, int] | None = None,
) -> LemmaGResult:
    """Two-phase rebalancing of a spanning 2r-cycle structure.

    Phase one moves no vertex: it checks that the structure spans G with
    clusters of one size m and sizes every cell m_{a,b} = m (relabelled
    through the bijection).  Given targets n_{a,b}, phase two reallocates
    the clusters along augmenting paths (``_reallocate``) and returns the
    partition X with |X_{a,b}| = n_{a,b} exactly, every moved vertex valid
    in its new cell and every cell within min(eps, sqrt(eps))*m of its
    original cluster.  Every refusal is a ``StageFailure("lemma-g", ...)``.
    """
    ell = C.ell
    two_r = C.r
    if two_r % 2 != 0:
        raise StageFailure(
            "lemma-g", "structure must sit on an even number of columns"
        )
    r = two_r // 2
    m = C.m()
    if any(len(c) != m for c in C.clusters.values()):
        raise StageFailure("lemma-g", "cells must have equal size m")
    if C.n() != G.n:
        raise StageFailure("lemma-g", f"clusters hold {C.n()} != n = {G.n} vertices")
    m_ab = {phi_bijection(*cell, r, ell): m for cell in C.cells()}
    result = LemmaGResult(m_ab)
    if targets is None:
        return result

    if sum(targets[c] for c in m_ab) != G.n:
        raise StageFailure("lemma-g", "phase-two targets must sum to n")
    want = {phi_inverse(*c, r, ell): targets[c] for c in m_ab}
    Y = {cell: tuple(sorted(cluster)) for cell, cluster in C.clusters.items()}
    W = _reallocate(G, Y, want, ell, r, C.delta, C.eps, m)
    # binding checks, recomputed from the final state; phase one moved no
    # vertex, so the drift from the phase-one cell (at most eps*m) and from
    # the original cluster (at most sqrt(eps)*m) are the same set
    max_drift = min(C.eps, math.sqrt(C.eps)) * m
    X: dict[Cell, tuple[int, ...]] = {}
    for (a, b), pre in ((c, phi_inverse(*c, r, ell)) for c in m_ab):
        X[(a, b)] = tuple(sorted(W[pre]))
        if len(X[(a, b)]) != targets[(a, b)]:
            raise StageFailure("lemma-g", f"cell ({a},{b}) missed its exact size")
        drift = set(X[(a, b)]) ^ set(Y[pre])
        if len(drift) > max_drift + 1e-9:
            raise StageFailure(
                "lemma-g",
                f"cell ({a},{b}) drifted by {len(drift)} > "
                f"min(eps, sqrt(eps))*m = {max_drift:.1f}"
            )
        for v in drift - set(Y[pre]):
            if not is_valid_move(G, v, pre, Y, r, C.delta, C.eps, m):
                raise StageFailure("lemma-g", f"vertex {v} sits invalidly in ({a},{b})")
    result.X = X
    return result
