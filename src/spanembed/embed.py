"""Embedding engines: targeted partial embedding, per-block spanning
embedding, and an exact brute-force oracle.

The two constructive embedders are backtracking list-embedders over cluster
candidate sets (fail-first ordering, node budgets, seeded restarts); the
oracle is a complete search whose "no-embedding" answer is a certificate.
Every success is revalidated edge-by-edge by a checker that shares no code
with the constructions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import DenseGraph, bits, mask_of


class EmbedError(RuntimeError):
    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        self.detail = detail
        super().__init__(f"{stage}: {detail}" if detail else stage)


def verify_embedding(H: DenseGraph, G: DenseGraph, mapping: dict[int, int]) -> str:
    """Independent edge-by-edge check; returns '' when the map embeds H."""
    seen: set[int] = set()
    for u, gv in mapping.items():
        if not (0 <= u < H.n and 0 <= gv < G.n):
            return f"vertex {u}->{gv} out of range"
        if gv in seen:
            return f"image {gv} used twice"
        seen.add(gv)
    for u, v in H.edges():
        if u in mapping and v in mapping:
            if not G.has_edge(mapping[u], mapping[v]):
                return f"edge ({u},{v}) maps to a non-edge"
    return ""


# -- embedding with target sets ----------------------------------------------


@dataclass
class PartialEmbedding:
    mapping: dict[int, int]
    candidate_sets: dict[int, tuple[int, ...]]  # y -> C_y
    nodes: int = 0


def embed_with_targets(
    G: DenseGraph,
    H: DenseGraph,
    order: list[int],
    phi: dict[int, int],
    clusters: dict[int, tuple[int, ...]],
    Y: list[int],
    S_w: dict[int, set[int]],
    c: float,
    eps: float | None = None,
    node_budget: int = 1_000_000,
    seed: int = 0,
) -> PartialEmbedding:
    """Embed the ordered vertices into their phi-clusters with target sets.

    Guarantees on success: f(x) lands in cluster phi(x) (inside S_x for the
    targeted vertices), and every boundary vertex y of Y keeps a candidate
    set C_y of at least c*|cluster| fresh common neighbours of its embedded
    neighbours.  Candidate floors for Y are enforced during the search, so a
    placement that starves a boundary vertex is backtracked.
    """
    m = max((len(vs) for vs in clusters.values()), default=0)
    if eps is not None:
        loads: dict[int, int] = {}
        for x in order:
            loads[phi[x]] = loads.get(phi[x], 0) + 1
        for a, load in loads.items():
            if load > 2 * eps * m:
                raise EmbedError(
                    "load", f"cluster {a} receives {load} > 2*eps*m vertices"
                )
    for w, s in S_w.items():
        if len(s) < c * m:
            raise EmbedError("target-set", f"S_w of {w} has {len(s)} < c*m vertices")

    floor = c * m
    rng = random.Random(f"targets:{seed}")
    cluster_mask = {a: mask_of(vs) for a, vs in clusters.items()}
    used = 0
    mapping: dict[int, int] = {}
    order_pos = {x: i for i, x in enumerate(order)}
    nodes = 0

    # candidate masks for boundary vertices, updated as neighbours embed
    y_mask: dict[int, int] = {y: cluster_mask[phi[y]] for y in Y}
    h_adj = H.rows

    def y_floor_ok(masks: dict[int, int]) -> bool:
        return all(mk.bit_count() >= floor for mk in masks.values())

    def place(idx: int, used_mask: int, masks: dict[int, int]) -> bool:
        nonlocal nodes
        if idx == len(order):
            return True
        nodes += 1
        if nodes > node_budget:
            raise EmbedError(
                "backtrack-budget-exhausted",
                f"budget {node_budget} hit at vertex {order[idx]}; trace: "
                f"{[(y, mk.bit_count()) for y, mk in masks.items()][:6]}",
            )
        x = order[idx]
        cands = cluster_mask[phi[x]] & ~used_mask
        for u in bits(h_adj[x]):
            if u in mapping:
                cands &= G.rows[mapping[u]]
        if x in S_w:
            cands &= mask_of(S_w[x])
        cand_list = list(bits(cands))
        if len(cand_list) > 4:
            rng.shuffle(cand_list)
        for gv in cand_list:
            # tentative floor check for boundary neighbours of x
            new_masks = masks
            touched = [y for y in bits(h_adj[x]) if y in masks]
            if touched or True:
                new_masks = dict(masks)
                ok = True
                for y in masks:
                    mk = masks[y] & ~(1 << gv)
                    if y in touched or (h_adj[x] >> y) & 1:
                        mk &= G.rows[gv]
                    if mk.bit_count() < floor:
                        ok = False
                        break
                    new_masks[y] = mk
                if not ok:
                    continue
            mapping[x] = gv
            if place(idx + 1, used_mask | (1 << gv), new_masks):
                return True
            del mapping[x]
        return False

    # restrict boundary masks by nothing initially; verify floors up front
    if not y_floor_ok(y_mask):
        bad = min(y_mask, key=lambda y: y_mask[y].bit_count())
        raise EmbedError(
            "target-set", f"boundary vertex {bad} starts below the floor"
        )
    if not place(0, used, dict(y_mask)):
        raise EmbedError(
            "backtrack-budget-exhausted",
            f"no embedding within the search tree (nodes={nodes})",
        )

    final_masks: dict[int, tuple[int, ...]] = {}
    placed_images = mask_of(mapping.values())
    for y in Y:
        mk = cluster_mask[phi[y]] & ~placed_images
        for u in bits(h_adj[y]):
            if u in mapping:
                mk &= G.rows[mapping[u]]
        final_masks[y] = tuple(bits(mk))
        if len(final_masks[y]) < floor:
            raise EmbedError(
                "target-set", f"boundary vertex {y} finished below the floor"
            )
    problem = verify_embedding(H, G, mapping)
    if problem:
        raise EmbedError("revalidation", problem)
    return PartialEmbedding(mapping, final_masks, nodes)


# -- per-block spanning embedding ------------------------------------------


def blowup_embed(
    G: DenseGraph,
    H: DenseGraph,
    phi: dict[int, int],
    clusters: dict[int, tuple[int, ...]],
    special: dict[int, set[int]] | None = None,
    alpha: float = 0.5,
    node_budget: int = 10_000_000,
    restarts: int = 4,
    seed: int = 0,
) -> dict[int, int]:
    """Spanning list-embedding of H into the block clusters.

    Every vertex must land in its phi-cluster; special vertices must land in
    their S_y.  Per-cluster demand may not exceed supply (checked).  Search
    is fail-first (smallest candidate set next) with seeded restarts; the
    result is revalidated edge-by-edge.
    """
    special = special or {}
    demand: dict[int, int] = {}
    for x in phi:
        demand[phi[x]] = demand.get(phi[x], 0) + 1
    for a, need in demand.items():
        if need > len(clusters.get(a, ())):
            raise EmbedError(
                "load", f"cluster {a} demanded {need} > {len(clusters.get(a, ()))}"
            )
    if special:
        per_cluster: dict[int, int] = {}
        for y in special:
            per_cluster[phi[y]] = per_cluster.get(phi[y], 0) + 1
        for a, cnt in per_cluster.items():
            if cnt > alpha * len(clusters[a]):
                raise EmbedError(
                    "load", f"cluster {a} has {cnt} special vertices > alpha*n_a"
                )

    cluster_mask = {a: mask_of(vs) for a, vs in clusters.items()}
    vertices = sorted(phi)
    h_adj = H.rows
    last_trace = ""
    for attempt in range(restarts):
        rng = random.Random(f"blowup:{seed}:{attempt}")
        mapping: dict[int, int] = {}
        cands: dict[int, int] = {}
        for x in vertices:
            mk = cluster_mask[phi[x]]
            if x in special:
                mk &= mask_of(special[x])
            cands[x] = mk
        nodes = 0

        def search() -> bool:
            nonlocal nodes
            if len(mapping) == len(vertices):
                return True
            nodes += 1
            if nodes > node_budget // restarts:
                return False
            # fail-first: fewest candidates, ties by most unplaced neighbours
            x = min(
                (v for v in vertices if v not in mapping),
                key=lambda v: (cands[v].bit_count(), -h_adj[v].bit_count(), v),
            )
            options = list(bits(cands[x]))
            rng.shuffle(options)
            for gv in options:
                saved: list[tuple[int, int]] = []
                feasible = True
                for u in bits(h_adj[x]):
                    if u in mapping or u not in cands:
                        continue
                    saved.append((u, cands[u]))
                    cands[u] &= G.rows[gv] & ~(1 << gv)
                    if cands[u] == 0:
                        feasible = False
                for u in vertices:
                    if u in mapping or u == x or not feasible:
                        continue
                    if cands[u] == 1 << gv:
                        feasible = False
                        break
                if feasible:
                    pre = {u: cands[u] for u in vertices if u not in mapping and u != x}
                    for u in pre:
                        cands[u] &= ~(1 << gv)
                    mapping[x] = gv
                    if search():
                        return True
                    del mapping[x]
                    for u, mk in pre.items():
                        cands[u] = mk
                for u, mk in saved:
                    cands[u] = mk
            return False

        if search():
            problem = verify_embedding(H, G, mapping)
            if problem:
                raise EmbedError("revalidation", problem)
            return mapping
        last_trace = f"attempt {attempt}: {nodes} nodes"
    raise EmbedError("backtrack-budget-exhausted", last_trace)


# -- exact oracle -----------------------------------------------------------


@dataclass
class OracleResult:
    status: str  # "embedded" | "no-embedding" | "budget-exceeded"
    mapping: dict[int, int] | None = None
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.status == "embedded"


def brute_force_embed(H: DenseGraph, G: DenseGraph, budget: int = 5_000_000) -> OracleResult:
    """Complete backtracking over injective homomorphisms of H into G.

    "no-embedding" is a certificate (the search space was exhausted);
    "budget-exceeded" is explicitly distinct from non-containment.
    """
    if H.n > G.n:
        return OracleResult("no-embedding", nodes=0)
    if H.n == 0:
        return OracleResult("embedded", {}, 0)

    # order H-vertices: max degree first, then most-placed-neighbours first
    order: list[int] = []
    placed = set()
    degs = [(H.degree(v), v) for v in range(H.n)]
    first = max(range(H.n), key=lambda v: (H.degree(v), -v))
    order.append(first)
    placed.add(first)
    while len(order) < H.n:
        best = max(
            (v for v in range(H.n) if v not in placed),
            key=lambda v: (
                sum(1 for u in bits(H.rows[v]) if u in placed),
                H.degree(v),
                -v,
            ),
        )
        order.append(best)
        placed.add(best)

    g_degree = [G.degree(v) for v in range(G.n)]
    nodes = 0
    mapping: dict[int, int] = {}

    class _Budget(Exception):
        pass

    def rec(idx: int, used_mask: int) -> bool:
        nonlocal nodes
        if idx == H.n:
            return True
        nodes += 1
        if nodes > budget:
            raise _Budget()
        u = order[idx]
        cands = ~used_mask & G.full_mask()
        for w in bits(H.rows[u]):
            if w in mapping:
                cands &= G.rows[mapping[w]]
        du = H.degree(u)
        for gv in bits(cands):
            if g_degree[gv] < du:
                continue
            mapping[u] = gv
            if rec(idx + 1, used_mask | (1 << gv)):
                return True
            del mapping[u]
        return False

    try:
        found = rec(0, 0)
    except _Budget:
        return OracleResult("budget-exceeded", nodes=nodes)
    if found:
        problem = verify_embedding(H, G, mapping)
        assert not problem, problem
        return OracleResult("embedded", dict(mapping), nodes)
    return OracleResult("no-embedding", nodes=nodes)
