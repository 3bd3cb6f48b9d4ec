"""Cycle structures and two-phase cluster rebalancing.

A cycle structure packages a cluster partition indexed by [ell] x [r] with a
reduced graph containing the blown-cycle template, regular-pair annotations
on its edges, and superregular pairs inside blocks.  The rebalancing first
evens out cell sizes inside each block (moving vertices from the heavy half
to the light half), then shifts single vertices along good chains of cells
until every cell hits its exact target size.  Every move is logged in a
replayable ledger and revalidated against the degree conditions it claimed.
"""

from __future__ import annotations

import math
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
    extra_edges: frozenset[frozenset] = frozenset()  # R-edges beyond the template

    def cells(self) -> list[Cell]:
        return [(i, j) for i in range(1, self.ell + 1) for j in range(1, self.r + 1)]

    def n(self) -> int:
        return len(self.exceptional) + sum(len(c) for c in self.clusters.values())

    def m(self) -> int:
        sizes = {len(c) for c in self.clusters.values()}
        return max(sizes) if sizes else 0

    def reduced_has_edge(self, c1: Cell, c2: Cell) -> bool:
        if c1 == c2:
            return False
        if z_rule_edge(c1[0], c1[1], c2[0], c2[1], self.ell):
            return True
        return frozenset((c1, c2)) in self.extra_edges

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
    for cell, cluster in C.clusters.items():
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


# -- move machinery -----------------------------------------------------


@dataclass(frozen=True)
class Move:
    vertex: int
    source: Cell
    target: Cell
    chain_index: int


@dataclass
class MoveLedger:
    moves: list[Move] = field(default_factory=list)
    chains: list[tuple[Cell, ...]] = field(default_factory=list)

    def replay(self, initial: dict[Cell, set[int]]) -> dict[Cell, set[int]]:
        state = {cell: set(vs) for cell, vs in initial.items()}
        for mv in self.moves:
            if mv.vertex not in state[mv.source]:
                raise BalanceError(
                    f"replay: vertex {mv.vertex} not in {mv.source} at its move"
                )
            state[mv.source].discard(mv.vertex)
            state[mv.target].add(mv.vertex)
        return state

    def to_json_list(self) -> list[dict]:
        return [
            {
                "v": mv.vertex,
                "from": list(mv.source),
                "to": list(mv.target),
                "chain_index": mv.chain_index,
            }
            for mv in self.moves
        ]


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


def balance_within_blocks(
    clusters: dict[Cell, tuple[int, ...]],
    tau: dict[Cell, int],
    ell: int,
    r: int,
    eps: float,
) -> tuple[dict[Cell, set[int]], dict[Cell, tuple[int, ...]], dict[Cell, tuple[int, ...]]]:
    """Phase one: carve off the reservations, then even out each block.

    Reservations A_{i,j} are the tau_{phi(i,j)} smallest-id vertices of each
    cluster.  Inside each block the first-half cells only ever gain vertices
    and the second-half cells only ever lose them, one vertex at a time from
    the currently largest second-half cell to the currently smallest
    first-half cell.  Returns (U, A, Y); the three balance properties are
    verified by recount before returning.
    """
    m = max(len(c) for c in clusters.values())
    A: dict[Cell, tuple[int, ...]] = {}
    Y: dict[Cell, tuple[int, ...]] = {}
    for cell, cluster in clusters.items():
        t = tau[phi_bijection(cell[0], cell[1], r, ell)]
        if not 0 <= t <= eps * m + 1e-9:
            raise BalanceError(f"reservation tau at {cell} = {t} outside [0, eps*m]")
        ordered = sorted(cluster)
        A[cell] = tuple(ordered[:t])
        Y[cell] = tuple(ordered[t:])

    U: dict[Cell, set[int]] = {}
    for i in range(1, ell + 1):
        a_cells = [(i, j) for j in range(1, r + 1)]
        b_cells = [(i, j) for j in range(r + 1, 2 * r + 1)]
        a_sets = {c: set(Y[c]) for c in a_cells}
        b_sets = {c: set(Y[c]) for c in b_cells}
        a0 = sorted((len(Y[c]) for c in a_cells), reverse=True)
        b0 = sorted((len(Y[c]) for c in b_cells), reverse=True)
        S = max(
            sum(a0[0] - x for x in a0),
            sum(x - b0[-1] for x in b0),
        )
        moved = 0
        while moved < S:
            t_minus = min(a_cells, key=lambda c: (len(a_sets[c]), c))
            t_plus = max(b_cells, key=lambda c: (len(b_sets[c]), [-x for x in c]))
            # movable vertices: still-original members of the heavy cell
            movable = b_sets[t_plus] & set(Y[t_plus])
            if not movable:
                raise BalanceError(f"block {i}: no movable vertex left in {t_plus}")
            x = min(movable)
            b_sets[t_plus].discard(x)
            a_sets[t_minus].add(x)
            moved += 1
        for c in a_cells:
            U[c] = a_sets[c]
        for c in b_cells:
            U[c] = b_sets[c]

    _verify_balance(U, Y, ell, r, eps, m)
    return U, A, Y


def _verify_balance(
    U: dict[Cell, set[int]],
    Y: dict[Cell, tuple[int, ...]],
    ell: int,
    r: int,
    eps: float,
    m: int,
) -> None:
    for i in range(1, ell + 1):
        sizes_a = [len(U[(i, j)]) for j in range(1, r + 1)]
        sizes_b = [len(U[(i, j)]) for j in range(r + 1, 2 * r + 1)]
        if max(sizes_a) - min(sizes_a) > 1 or max(sizes_b) - min(sizes_b) > 1:
            raise BalanceError(f"block {i} not balanced within 1 per half")
        for j in range(1, 2 * r + 1):
            cell = (i, j)
            sym_diff = U[cell] ^ set(Y[cell])
            if len(sym_diff) > r * eps * m + 1e-9:
                raise BalanceError(f"cell {cell} moved more than r*eps*m vertices")
            if j <= r:
                gained = U[cell] - set(Y[cell])
                second_half = set()
                for k in range(r + 1, 2 * r + 1):
                    second_half |= set(Y[(i, k)])
                if gained - second_half:
                    raise BalanceError(f"cell {cell} gained from outside the block")
            else:
                if U[cell] - set(Y[cell]):
                    raise BalanceError(f"second-half cell {cell} gained vertices")


def _good_chain(
    source: Cell, sink: Cell, r: int, ell: int
) -> tuple[Cell, ...]:
    """The proof's chain: cross to the sink's column inside the source block
    (via the opposite half when the columns share a half), then walk blocks
    forward cyclically; truncated at the first visit to the sink."""
    (ip, jp), (im, jm) = source, sink

    def nxt_block(i: int) -> int:
        return i % ell + 1

    chain: list[Cell] = [source]
    if source != sink:
        if jp == jm:
            middle: Cell | None = None  # same column: walk straight forward
        elif jp <= r and jm <= r:
            middle = (ip, jm + r)
        elif jp > r and jm > r:
            middle = (ip, jm - r)
        else:
            middle = (ip, jm)
        if middle == sink:
            chain.append(middle)
        else:
            if middle is not None:
                chain.append(middle)
            cur = (nxt_block(ip), jm)
            chain.append(cur)
            guard = 0
            while chain[-1] != sink:
                cur = (nxt_block(cur[0]), jm)
                chain.append(cur)
                guard += 1
                if guard > ell + 2:
                    raise BalanceError("chain construction failed to reach the sink")
    if len(set(chain)) != len(chain):
        raise BalanceError(f"chain revisits a cell: {chain}")
    return tuple(chain)


def reallocate_by_chains(
    G: DenseGraph,
    U: dict[Cell, set[int]],
    Y: dict[Cell, tuple[int, ...]],
    targets: dict[Cell, int],
    ell: int,
    r: int,
    eps: float,
    delta: float,
    m: int,
    xi_budget: int | None = None,
) -> tuple[dict[Cell, set[int]], MoveLedger]:
    """Phase two: shift single vertices along good chains until every cell
    holds exactly its target count.

    Over- and under-full cells are picked lexicographically smallest among
    the maximal-deviation ones; the mover at every chain position is the
    smallest-id vertex of U ∩ Y whose move to the next cell is valid.  The
    ledger replays to the final partition bit-exactly.
    """
    cells = [(i, j) for i in range(1, ell + 1) for j in range(1, 2 * r + 1)]
    if sum(targets[c] for c in cells) != sum(len(U[c]) for c in cells):
        raise BalanceError("targets do not preserve the vertex count")
    deviations = [abs(len(U[c]) - targets[c]) for c in cells]
    if xi_budget is None:
        xi_budget = sum(deviations)
    if xi_budget > eps * m / 2 + 1e-9 and max(deviations, default=0) > 0:
        raise BalanceError(
            f"iteration budget K = {xi_budget} exceeds eps*m/2 = {eps * m / 2:.1f}"
        )

    state = {c: set(U[c]) for c in cells}
    ledger = MoveLedger()
    iterations = 0
    while True:
        over = [c for c in cells if len(state[c]) > targets[c]]
        under = [c for c in cells if len(state[c]) < targets[c]]
        if not over and not under:
            break
        iterations += 1
        if iterations > max(1, xi_budget):
            raise BalanceError(f"budget-exceeded after {iterations - 1} chains")
        plus = min(over, key=lambda c: (-(len(state[c]) - targets[c]), c))
        minus = min(under, key=lambda c: (-(targets[c] - len(state[c])), c))
        chain = _good_chain(plus, minus, r, ell)
        ledger.chains.append(chain)
        chain_idx = len(ledger.chains) - 1
        movers: list[int] = []
        for s in range(len(chain) - 1):
            src, dst = chain[s], chain[s + 1]
            eligible = sorted(state[src] & set(Y[src]))
            pick = None
            for v in eligible:
                if v in movers:
                    continue
                if is_valid_move(G, v, dst, Y, r, delta, eps, m):
                    pick = v
                    break
            if pick is None:
                raise BalanceError(
                    f"no-valid-mover at chain position {s} ({src} -> {dst}); "
                    "superregularity hypothesis too weak"
                )
            movers.append(pick)
        for s in range(len(chain) - 1):
            src, dst = chain[s], chain[s + 1]
            state[src].discard(movers[s])
            state[dst].add(movers[s])
            ledger.moves.append(Move(movers[s], src, dst, chain_idx))

    # final verification
    for c in cells:
        if len(state[c]) != targets[c]:
            raise BalanceError(f"cell {c} missed its target after reallocation")
        if len(state[c] ^ U[c]) > eps * m + 1e-9:
            raise BalanceError(f"cell {c} drifted more than eps*m from U")
        for v in state[c] - set(Y[c]):
            if not is_valid_move(G, v, c, Y, r, delta, eps, m):
                raise BalanceError(f"vertex {v} sits invalidly in {c}")
    replayed = ledger.replay({c: set(U[c]) for c in cells})
    if replayed != state:
        raise BalanceError("ledger replay does not reproduce the final partition")
    return state, ledger


@dataclass
class LemmaGResult:
    m_ab: dict[Cell, int]
    U: dict[Cell, set[int]]
    A: dict[Cell, tuple[int, ...]]
    Y: dict[Cell, tuple[int, ...]]
    X: dict[Cell, tuple[int, ...]] | None = None
    ledger: MoveLedger | None = None
    structure: CycleStructure | None = None
    structure_report: StructureReport | None = None


def lemma_g(
    G: DenseGraph,
    C: CycleStructure,
    tau: dict[Cell, int],
    targets: dict[Cell, int] | None = None,
    xi: float | None = None,
    check_structure: bool = True,
) -> LemmaGResult:
    """Two-phase rebalancing of a spanning 2r-cycle structure.

    Phase one returns the balanced sizes m_{a,b} (relabelled through the
    bijection).  Given targets n_{a,b}, phase two reallocates along good
    chains and returns the partition X with |X_{a,b}| = n_{a,b} + tau_{a,b}
    exactly, each cell within sqrt(eps)*m of its original cluster, packaged
    as a cycle structure at (eps^(1/3), delta/2).
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
    U, A, Y = balance_within_blocks(C.clusters, tau, ell, r, C.eps)
    m_ab: dict[Cell, int] = {}
    for a in range(1, 2 * ell + 1):
        for b in range(1, r + 1):
            m_ab[(a, b)] = len(U[phi_inverse(a, b, r, ell)])
    # phase-one conclusions
    n = G.n
    total = sum(m_ab.values()) + sum(tau[c] for c in m_ab)
    if total != n:
        raise BalanceError(f"sizes plus reservations sum to {total} != n")
    for (a, b), size in m_ab.items():
        if size < (1 - math.sqrt(C.eps)) * m - 1e-9:
            raise BalanceError(f"cell ({a},{b}) fell below (1-sqrt(eps))m")
    for a in range(1, 2 * ell + 1):
        row = [m_ab[(a, b)] for b in range(1, r + 1)]
        if max(row) - min(row) > 1:
            raise BalanceError(f"block {a} sizes differ by more than 1")
    result = LemmaGResult(m_ab, U, A, Y)
    if targets is None:
        return result

    if sum(targets[c] + tau[c] for c in targets) != n:
        raise BalanceError("phase-two targets plus reservations must sum to n")
    for cell, t in targets.items():
        dev = abs(m_ab[cell] - t)
        if xi is not None and dev > xi * n + 1e-9:
            raise BalanceError(
                f"target at {cell} deviates by {dev} > xi*n = {xi * n:.1f}"
            )
    pre_targets = {
        phi_inverse(a, b, r, ell): targets[(a, b)] for (a, b) in targets
    }
    W, ledger = reallocate_by_chains(
        G, U, Y, pre_targets, ell, r, C.eps, C.delta, m
    )
    X: dict[Cell, tuple[int, ...]] = {}
    for a in range(1, 2 * ell + 1):
        for b in range(1, r + 1):
            pre = phi_inverse(a, b, r, ell)
            X[(a, b)] = tuple(sorted(W[pre] | set(A[pre])))
            if len(X[(a, b)]) != targets[(a, b)] + tau[(a, b)]:
                raise BalanceError(f"cell ({a},{b}) missed its exact size")
            drift = set(X[(a, b)]) ^ set(C.clusters[pre])
            if len(drift) > math.sqrt(C.eps) * m + 1e-9:
                raise BalanceError(f"cell ({a},{b}) drifted beyond sqrt(eps)*m")
    # the promised parameters follow the slicing arithmetic: eps^(1/3)
    # dominates eps + 6*sqrt(3*r*eps) for small eps, delta drops to delta/2
    in_edges = {frozenset(p) for p in C.template_pairs()} | set(C.extra_edges)
    mapped = {
        frozenset((phi_bijection(*c1, r, ell), phi_bijection(*c2, r, ell)))
        for pair in in_edges
        for c1, c2 in [tuple(pair)]
    }
    out_structure = CycleStructure(
        ell=2 * ell,
        r=r,
        clusters=X,
        exceptional=(),
        eps=C.eps ** (1 / 3),
        delta=C.delta / 2,
    )
    out_structure.extra_edges = frozenset(
        pair
        for pair in mapped
        if not out_structure.reduced_has_edge(*tuple(pair))
    )
    result.X = X
    result.ledger = ledger
    result.structure = out_structure
    if check_structure:
        result.structure_report = check_cycle_structure(G, out_structure)
    return result
