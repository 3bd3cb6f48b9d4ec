"""Cycle structures and two-phase cluster rebalancing.

A cycle structure packages a cluster partition indexed by [ell] x [r] with a
reduced graph containing the blown-cycle template, regular-pair annotations
on its edges, and superregular pairs inside blocks.  The rebalancing of
``lemma_g`` has two phases.  Phase one is arithmetic and moves no vertex:
it carves off the reservations and splits each half-block's remaining
vertices evenly into sizes that differ by at most one.  Phase two meets
exact target sizes by augmenting paths: while some cell is over-full, one
vertex is shifted along each edge of a shortest path of valid moves to an
under-full cell.  The final partition is rechecked from scratch: exact
sizes, every moved vertex valid in its new cell, and bounded drift from the
original clusters.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .graphs import DenseGraph, mask_of, z_rule_edge
from .regularity import is_superregular, regularity_up_to_cap


Cell = tuple[int, int]


class BalanceError(ValueError):
    pass


# -- the relabelling bijection ------------------------------------------------


def phi_bijection(i: int, j: int, r: int, ell: int) -> Cell:
    """Map cell (i,j) of [ell] x [2r] to [2ell] x [r] lexicographically:
    (1,1)...(1,r) -> (1,1)...(1,r), (1,r+1)...(1,2r) -> (2,1)...(2,r), etc."""
    if not (1 <= i <= ell and 1 <= j <= 2 * r):
        raise BalanceError(f"cell ({i},{j}) outside [{ell}]x[{2 * r}]")
    a = 2 * (i - 1) + math.ceil(j / r)
    b = (j - 1) % r + 1
    return a, b


def phi_inverse(a: int, b: int, r: int, ell: int) -> Cell:
    if not (1 <= a <= 2 * ell and 1 <= b <= r):
        raise BalanceError(f"cell ({a},{b}) outside [{2 * ell}]x[{r}]")
    i = math.ceil(a / 2)
    j = ((a - 1) % 2) * r + b
    return i, j


# -- cycle structures ---------------------------------------------------


@dataclass
class CycleStructure:
    """Definition-17 package: clusters over [ell] x [r] cells, a reduced graph
    containing the blown-cycle template, and pair parameters."""

    ell: int
    r: int
    clusters: dict[Cell, tuple[int, ...]]
    exceptional: tuple[int, ...]
    eps: float
    delta: float

    def cells(self) -> list[Cell]:
        return [(i, j) for i in range(1, self.ell + 1) for j in range(1, self.r + 1)]

    def n(self) -> int:
        return len(self.exceptional) + sum(len(c) for c in self.clusters.values())

    def m(self) -> int:
        sizes = {len(c) for c in self.clusters.values()}
        return max(sizes) if sizes else 0

    def template_pairs(self) -> list[tuple[Cell, Cell]]:
        """All template edges between distinct cells (block + consecutive)."""
        cells = self.cells()
        out = []
        for k, c1 in enumerate(cells):
            for c2 in cells[k + 1 :]:
                if z_rule_edge(c1[0], c1[1], c2[0], c2[1], self.ell):
                    out.append((c1, c2))
        return out


@dataclass
class StructureReport:
    partition_ok: bool
    exceptional_ok: bool
    pair_results: dict[tuple[Cell, Cell], bool] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def all_pass(self) -> bool:
        return self.partition_ok and self.exceptional_ok and all(
            self.pair_results.values()
        )


def check_cycle_structure(G: DenseGraph, C: CycleStructure) -> StructureReport:
    """Verify the partition exactly and the pair annotations as far as
    ``regularity_up_to_cap`` checks them: block pairs by ``is_superregular``,
    the other template pairs by regularity and density at least delta;
    itemized pass/fail per pair."""
    seen: set[int] = set(C.exceptional)
    partition_ok = len(seen) == len(C.exceptional)
    total = len(C.exceptional)
    for cluster in C.clusters.values():
        total += len(cluster)
        for v in cluster:
            if v in seen:
                partition_ok = False
            seen.add(v)
    if total != G.n or len(seen) != G.n:
        partition_ok = False
    exceptional_ok = len(C.exceptional) <= C.eps * G.n + 1e-9
    report = StructureReport(partition_ok, exceptional_ok)
    for c1, c2 in C.template_pairs():
        A, B = list(C.clusters[c1]), list(C.clusters[c2])
        if not A or not B:
            report.pair_results[(c1, c2)] = False
            report.failures.append(f"empty cluster in pair {c1},{c2}")
            continue
        try:
            if c1[0] == c2[0]:
                verdict = is_superregular(G, A, B, C.eps, C.delta)
            else:
                verdict = regularity_up_to_cap(G, A, B, C.eps)
                if verdict and verdict.density < C.delta:
                    verdict = None
        except ValueError:
            verdict = None
        ok = bool(verdict)
        report.pair_results[(c1, c2)] = ok
        if not ok:
            report.failures.append(f"pair {c1},{c2} failed its annotation")
    return report


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
            raise BalanceError(
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
    structure: CycleStructure | None = None


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
    original cluster, packaged as a cycle structure at (eps^(1/3), delta/2).
    """
    if C.exceptional:
        raise BalanceError("lemma_g needs a spanning structure (empty V0)")
    ell = C.ell
    two_r = C.r
    if two_r % 2 != 0:
        raise BalanceError("structure must sit on an even number of columns")
    r = two_r // 2
    m = C.m()
    if any(len(c) != m for c in C.clusters.values()):
        raise BalanceError("cells must have equal size m")
    if C.n() != G.n:
        raise BalanceError(f"clusters hold {C.n()} != n = {G.n} vertices")
    m_ab = {phi_bijection(*cell, r, ell): m for cell in C.cells()}
    result = LemmaGResult(m_ab)
    if targets is None:
        return result

    if sum(targets[c] for c in m_ab) != G.n:
        raise BalanceError("phase-two targets must sum to n")
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
            raise BalanceError(f"cell ({a},{b}) missed its exact size")
        drift = set(X[(a, b)]) ^ set(Y[pre])
        if len(drift) > max_drift + 1e-9:
            raise BalanceError(
                f"cell ({a},{b}) drifted by {len(drift)} > "
                f"min(eps, sqrt(eps))*m = {max_drift:.1f}"
            )
        for v in drift - set(Y[pre]):
            if not is_valid_move(G, v, pre, Y, r, C.delta, C.eps, m):
                raise BalanceError(f"vertex {v} sits invalidly in ({a},{b})")
    # the promised parameters follow the slicing arithmetic: eps^(1/3)
    # dominates eps + 6*sqrt(3*r*eps) for small eps, delta drops to delta/2
    result.X = X
    result.structure = CycleStructure(
        ell=2 * ell,
        r=r,
        clusters=X,
        exceptional=(),
        eps=C.eps ** (1 / 3),
        delta=C.delta / 2,
    )
    return result
