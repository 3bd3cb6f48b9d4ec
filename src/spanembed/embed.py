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

from .graphs import DenseGraph, StageFailure, bits, mask_of


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
    c: float,
    eps: float | None = None,
    node_budget: int = 1_000_000,
    seed: int = 0,
) -> PartialEmbedding:
    """Embed the ordered vertices into their phi-clusters, keeping target
    sets for the boundary.

    Guarantees on success: f(x) lands in cluster phi(x), and every boundary
    vertex y of Y keeps a candidate set C_y of at least c*|cluster| fresh
    common neighbours of its embedded neighbours.  Candidate floors for Y
    are enforced during the search, so a placement that starves a boundary
    vertex is backtracked.
    """
    m = max((len(vs) for vs in clusters.values()), default=0)
    if eps is not None:
        loads: dict[int, int] = {}
        for x in order:
            loads[phi[x]] = loads.get(phi[x], 0) + 1
        for a, load in loads.items():
            if load > 2 * eps * m:
                raise StageFailure(
                    "load", f"cluster {a} receives {load} > 2*eps*m vertices"
                )

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
            raise StageFailure(
                "backtrack-budget-exhausted",
                f"budget {node_budget} hit at vertex {order[idx]}; trace: "
                f"{[(y, mk.bit_count()) for y, mk in masks.items()][:6]}",
            )
        x = order[idx]
        cands = cluster_mask[phi[x]] & ~used_mask
        for u in bits(h_adj[x]):
            if u in mapping:
                cands &= G.rows[mapping[u]]
        cand_list = list(bits(cands))
        if len(cand_list) > 4:
            rng.shuffle(cand_list)
        for gv in cand_list:
            # tentative floor check for boundary neighbours of x
            new_masks = dict(masks)
            ok = True
            for y in masks:
                mk = masks[y] & ~(1 << gv)
                if (h_adj[x] >> y) & 1:
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
        raise StageFailure(
            "target-set", f"boundary vertex {bad} starts below the floor"
        )
    if not place(0, used, dict(y_mask)):
        raise StageFailure(
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
            raise StageFailure(
                "target-set", f"boundary vertex {y} finished below the floor"
            )
    problem = verify_embedding(H, G, mapping)
    if problem:
        raise StageFailure("revalidation", problem)
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
            raise StageFailure(
                "load", f"cluster {a} demanded {need} > {len(clusters.get(a, ()))}"
            )
    if special:
        per_cluster: dict[int, int] = {}
        for y in special:
            per_cluster[phi[y]] = per_cluster.get(phi[y], 0) + 1
        for a, cnt in per_cluster.items():
            if cnt > alpha * len(clusters[a]):
                raise StageFailure(
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
                raise StageFailure("revalidation", problem)
            return mapping
        last_trace = f"attempt {attempt}: {nodes} nodes"
    raise StageFailure("backtrack-budget-exhausted", last_trace)


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
    h_degree = [H.degree(v) for v in range(H.n)]
    placed_nbrs = [0] * H.n
    unplaced = set(range(H.n))
    order: list[int] = []
    best = max(range(H.n), key=lambda v: (h_degree[v], -v))
    while True:
        order.append(best)
        unplaced.discard(best)
        if not unplaced:
            break
        for w in bits(H.rows[best]):
            placed_nbrs[w] += 1
        best = max(unplaced, key=lambda v: (placed_nbrs[v], h_degree[v], -v))

    # per order position: the positions of its earlier-placed H-neighbours,
    # and the G-vertices whose degree can host it
    position = {u: i for i, u in enumerate(order)}
    back = [
        [position[w] for w in bits(H.rows[u]) if position[w] < i]
        for i, u in enumerate(order)
    ]
    g_rows = G.rows
    g_degree = [row.bit_count() for row in g_rows]
    fit_of = {
        du: mask_of(gv for gv in range(G.n) if g_degree[gv] >= du) for du in set(h_degree)
    }
    fits = [fit_of[h_degree[u]] for u in order]
    image = [0] * H.n
    image_rows = [0] * H.n
    nodes = 0

    class _Budget(Exception):
        pass

    def rec(idx: int, free: int) -> bool:
        nonlocal nodes
        if idx == H.n:
            return True
        nodes += 1
        if nodes > budget:
            raise _Budget()
        cands = free & fits[idx]
        for j in back[idx]:
            cands &= image_rows[j]
        while cands:
            low = cands & -cands
            cands ^= low
            gv = low.bit_length() - 1
            image[idx] = gv
            image_rows[idx] = g_rows[gv]
            if rec(idx + 1, free ^ low):
                return True
        return False

    try:
        found = rec(0, G.full_mask())
    except _Budget:
        return OracleResult("budget-exceeded", nodes=nodes)
    if found:
        mapping = dict(zip(order, image))
        problem = verify_embedding(H, G, mapping)
        if problem:
            raise StageFailure("revalidation", problem)
        return OracleResult("embedded", mapping, nodes)
    return OracleResult("no-embedding", nodes=nodes)
