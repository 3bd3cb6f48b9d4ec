"""Embedding engines: targeted partial embedding, per-block spanning
embedding, an exact brute-force oracle, and the oracle's search for a
spanning power of a cycle.

The two constructive embedders are backtracking list-embedders over cluster
candidate sets (fail-first ordering, node budgets, seeded restarts); the
oracle is a complete search whose "no-embedding" answer is a certificate,
and ``power_cycle_oracle`` walks the oracle's tree on the cycle-power
template without building it.
The clusters of the list-embedders are cells, which are disjoint, as the
cells V_{a,b} of the proof are: both refuse two cells that share a vertex
with ``InvalidParameters``, and index each vertex's cell-mates by its cell.
All four search depth-first with an explicit stack, never recursing, so a
block or template of any size fits.  The list-embedders keep live candidate
masks: a placement x -> gv narrows only the masks it can change (those of
x's unplaced neighbours and of gv's cell) and the search undoes it from a
saved list.  A node keeps its untried candidates as a mask and draws each
try uniformly from it (one ``randrange`` and one ``kth_bit`` per candidate
tried), so it never lists or shuffles the candidates it does not reach.
Both are complete over their candidates, so running out of search tree
below the node budget is the refusal "no-list-embedding", kept apart from
"backtrack-budget-exhausted".  Every embedding is
revalidated edge-by-edge by a checker that shares no code with the
constructions; a power cycle, by its caller's ``validate_witness``.
"""

from __future__ import annotations

import heapq
import random
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .graphs import DenseGraph, InvalidParameters, StageFailure, bits, kth_bit, mask_of


def _cell_masks(clusters: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """The vertex mask of every cell; cells that share a vertex raise
    ``InvalidParameters``."""
    masks: dict[int, int] = {}
    covered = 0
    for a, vs in clusters.items():
        mk = mask_of(vs)
        if covered & mk:
            raise InvalidParameters(f"cell {a} shares a vertex with another cell")
        covered |= mk
        masks[a] = mk
    return masks


def verify_embedding(H: DenseGraph, G: DenseGraph, mapping: dict[int, int]) -> str:
    """Independent edge-by-edge check of the H-edges with both ends mapped;
    returns '' when the map embeds that part of H.

    The edges are walked from each mapped vertex, in increasing order, to
    its higher neighbours, lowest first, skipping the unmapped ones, so the
    first violation is the one ``H.edges()`` order meets first.  Each
    vertex's image row is read once, and the cost is that of the mapped part
    of H.
    """
    seen: set[int] = set()
    for u, gv in mapping.items():
        if not (0 <= u < H.n and 0 <= gv < G.n):
            return f"vertex {u}->{gv} out of range"
        if gv in seen:
            return f"image {gv} used twice"
        seen.add(gv)
    g_rows, h_rows = G.rows, H.rows
    for u in sorted(mapping):
        row = g_rows[mapping[u]]
        higher = h_rows[u] >> (u + 1)  # bit i is the neighbour u + 1 + i
        while higher:
            low = higher & -higher
            v = u + low.bit_length()
            gv = mapping.get(v)
            if gv is not None and not row >> gv & 1:
                return f"edge ({u},{v}) maps to a non-edge"
            higher ^= low
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
    phi: Sequence[Hashable] | Mapping[int, Hashable],
    clusters: dict[int, tuple[int, ...]],
    Y: list[int],
    c: float,
    node_budget: int = 1_000_000,
    seed: int = 0,
) -> PartialEmbedding:
    """Embed the ordered vertices into their phi-clusters, which must be
    disjoint, keeping target sets for the boundary.  ``phi`` gives the cell
    of each vertex of ``order`` and ``Y``, indexed by vertex: a tuple over
    all of H (the assignment's) or a dict; a vertex it gives no cell, or a
    cell that is not a key of ``clusters``, raises ``InvalidParameters``.

    Guarantees on success: f(x) lands in cluster phi(x), and every boundary
    vertex y of Y keeps a candidate set C_y of at least c*|cluster| fresh
    common neighbours of its embedded neighbours.  Candidate floors for Y
    are enforced during the search, so a placement that starves a boundary
    vertex is backtracked.

    The search is depth-first over ``order`` with an explicit stack; each
    position draws its tries one at a time, uniformly from its untried
    candidates, with the seeded generator.  The boundary masks are updated
    in place and restored on backtracking.  It raises
    "backtrack-budget-exhausted" when it would enter more than
    ``node_budget`` nodes, and "no-list-embedding" when it runs out of tree
    first, which certifies that no placement keeps every floor.
    """
    m = max((len(vs) for vs in clusters.values()), default=0)
    floor = c * m
    rng = random.Random(f"targets:{seed}")
    cluster_mask = _cell_masks(clusters)
    for x in [*order, *Y]:
        try:
            cell = phi[x]
        except (IndexError, KeyError):
            raise InvalidParameters(f"phi gives vertex {x} no cell") from None
        if cell not in cluster_mask:
            raise InvalidParameters(f"vertex {x}'s cell {cell} is not a cluster")
    g_rows = G.rows
    h_adj = H.rows

    # live candidate masks of the boundary vertices, kept in Y's order (the
    # budget trace lists the first six); every mask stays at or above the
    # floor, so a placement x -> gv need only look at the masks it changes:
    # those of x's neighbours in Y and those holding gv, i.e. of the Y
    # vertices in x's cell
    masks: dict[int, int] = {y: cluster_mask[phi[y]] for y in Y}
    if any(mk.bit_count() < floor for mk in masks.values()):
        bad = min(masks, key=lambda y: masks[y].bit_count())
        raise StageFailure(
            "target-set", f"boundary vertex {bad} starts below the floor"
        )
    y_cells: dict[int, int] = {}  # cell -> mask of its Y vertices
    for y in masks:
        y_cells[phi[y]] = y_cells.get(phi[y], 0) | 1 << y
    y_mask = mask_of(masks)
    y_nbrs = {x: list(bits(h_adj[x] & y_mask)) for x in order}
    y_mates = {x: list(bits(y_cells.get(phi[x], 0) & ~h_adj[x])) for x in order}
    position = {x: i for i, x in enumerate(order)}
    # per order position, the earlier positions of its H-neighbours
    back = [
        [position[u] for u in bits(h_adj[x]) if position.get(u, i) < i]
        for i, x in enumerate(order)
    ]

    def narrow(x: int, gv: int) -> list[tuple[int, int]] | None:
        """Narrow the boundary masks for x -> gv; returns the (y, old mask)
        pairs overwritten, or None, changing nothing, if a mask would drop
        below the floor."""
        bit = 1 << gv
        keep = g_rows[gv] & ~bit
        saved = []
        for y in y_nbrs[x]:
            mk = masks[y] & keep
            if mk.bit_count() < floor:
                break
            saved.append((y, masks[y]))
            masks[y] = mk
        else:
            for y in y_mates[x]:
                mk = masks[y]
                if mk & bit:
                    if mk.bit_count() - 1 < floor:
                        break
                    saved.append((y, mk))
                    masks[y] = mk ^ bit
            else:
                return saved
        for y, mk in saved:
            masks[y] = mk
        return None

    image = [0] * len(order)
    used = 0
    nodes = 0
    # depth-first without recursion: frames[i] holds position i's untried
    # candidates as a mask, each try drawn uniformly from it, and the masks
    # its current placement overwrote; every entered position counts one
    # node
    frames: list[list] = []
    while len(frames) < len(order):
        idx = len(frames)
        nodes += 1
        if nodes > node_budget:
            raise StageFailure(
                "backtrack-budget-exhausted",
                f"budget {node_budget} hit at vertex {order[idx]}; trace: "
                f"{[(y, mk.bit_count()) for y, mk in masks.items()][:6]}",
            )
        cands = cluster_mask[phi[order[idx]]] & ~used
        for j in back[idx]:
            cands &= g_rows[image[j]]
        frames.append([cands, None])
        # move the deepest frame to a random untried candidate that keeps
        # every boundary mask at the floor, undoing its current one first
        while frames:
            idx = len(frames) - 1
            frame = frames[idx]
            rest, saved = frame
            if saved is not None:
                used ^= 1 << image[idx]
                for y, mk in saved:
                    masks[y] = mk
            saved = None
            while saved is None and rest:
                gv = kth_bit(rest, rng.randrange(rest.bit_count()))
                rest ^= 1 << gv
                saved = narrow(order[idx], gv)
            if saved is None:
                frames.pop()
                continue
            frame[0], frame[1] = rest, saved
            image[idx] = gv
            used |= 1 << gv
            break
        else:
            raise StageFailure(
                "no-list-embedding",
                f"no embedding within the search tree (nodes={nodes})",
            )
    mapping = dict(zip(order, image))

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
    special: dict[int, Iterable[int]] | None = None,
    node_budget: int = 10_000_000,
    restarts: int = 4,
    seed: int = 0,
) -> tuple[dict[int, int], int]:
    """List-embedding of the vertices of ``phi`` into the block clusters,
    returned with the search nodes it entered, over all its restarts.

    H may be a whole guest of which ``phi`` names one block: only the
    vertices of ``phi`` are embedded, only the H-edges among them are
    constrained, and fail-first ranks by degree within them.  Every vertex
    must land in its phi-cluster; special vertices must land in their S_y.
    Clusters must be disjoint and per-cluster demand may not exceed supply
    (both checked).  Search is fail-first (smallest candidate set next) with
    seeded restarts; the result is revalidated edge-by-edge.

    Each restart searches depth-first with an explicit stack and may enter
    ``node_budget // restarts`` nodes; a node draws its tries one at a time,
    uniformly from its vertex's untried candidates, with the restart's
    seeded generator.  The block's state is kept in lists indexed by block
    position; candidate masks and fail-first keys are updated in place for
    the vertices a placement affects and restored on backtracking.  A
    restart that runs out of tree within its budget raises
    "no-list-embedding" at once, since the search is complete and the other
    restarts would only visit the same tree in another order; when every
    restart hits its budget the refusal is "backtrack-budget-exhausted".
    """
    special = special or {}
    cluster_mask = _cell_masks(clusters)
    demand: dict[int, int] = {}
    for x in phi:
        demand[phi[x]] = demand.get(phi[x], 0) + 1
    for a, need in demand.items():
        if need > len(clusters.get(a, ())):
            raise StageFailure(
                "load", f"cluster {a} demanded {need} > {len(clusters.get(a, ()))}"
            )

    # the block's state lives in lists indexed by block position (the
    # vertices of phi in increasing order).  A placement x -> gv changes
    # only the masks of x's unplaced neighbours and of the unplaced vertices
    # whose cluster holds gv: x's cell-mates, since cells are disjoint
    vertices = sorted(phi)
    position = {x: i for i, x in enumerate(vertices)}
    h_adj = H.rows
    g_rows = G.rows
    nbrs = [[position[u] for u in bits(h_adj[x]) if u in position] for x in vertices]
    cell_members: dict[int, list[int]] = {}
    for i, x in enumerate(vertices):
        cell_members.setdefault(phi[x], []).append(i)
    mates = [cell_members[phi[x]] for x in vertices]
    start = [
        cluster_mask[phi[x]] & mask_of(special[x]) if x in special else cluster_mask[phi[x]]
        for x in vertices
    ]
    # fail-first key (live count, -deg, v) cached as one int per vertex:
    # count * stride + the vertex's rank in (-deg, v) order
    stride = len(vertices)
    rank = [0] * stride
    for k, i in enumerate(sorted(range(stride), key=lambda i: (-len(nbrs[i]), i))):
        rank[i] = k
    last_trace, total = "", 0  # total: nodes over all restarts
    for attempt in range(restarts):
        rng = random.Random(f"blowup:{seed}:{attempt}")
        limit = node_budget // restarts
        cands = start.copy()
        key = [mk.bit_count() * stride + rank[i] for i, mk in enumerate(cands)]
        unplaced = set(range(stride))
        image = [0] * stride
        nodes = 0

        def place(x: int, gv: int) -> list[tuple[int, int, int]] | None:
            """Place x at gv and narrow the masks it changes; returns the
            (u, old mask, old key) triples overwritten, or None, changing
            nothing, if an unplaced neighbour of x would be left without
            candidates or another unplaced vertex has gv as its only one."""
            bit = 1 << gv
            keep = g_rows[gv] & ~bit
            saved = []
            for u in nbrs[x]:
                if u in unplaced:
                    mk = cands[u] & keep
                    if not mk:
                        break
                    saved.append((u, cands[u], key[u]))
                    cands[u] = mk
                    key[u] = mk.bit_count() * stride + rank[u]
            else:
                for u in mates[x]:
                    mk = cands[u]
                    if mk & bit and u in unplaced and u != x:
                        if mk == bit:
                            break
                        saved.append((u, mk, key[u]))
                        cands[u] = mk ^ bit
                        key[u] -= stride
                else:
                    unplaced.discard(x)
                    image[x] = gv
                    return saved
            restore(saved)
            return None

        def restore(saved: list[tuple[int, int, int]]) -> None:
            for u, mk, k in saved:
                cands[u] = mk
                key[u] = k

        # depth-first without recursion: a frame holds the vertex a node
        # chose, its untried candidates as a mask, each try drawn uniformly
        # from it, and the masks its current placement overwrote; every
        # entered node counts, and one entered past the budget ends the
        # restart, since no placement in the open frames can complete
        # without another node
        frames: list[list] = []
        while unplaced:
            nodes += 1
            if nodes > limit:
                break
            # fail-first: fewest candidates, ties by most H-neighbours in phi
            x = min(unplaced, key=key.__getitem__)
            frames.append([x, cands[x], None])
            while frames:
                frame = frames[-1]
                x, rest, saved = frame
                if saved is not None:
                    unplaced.add(x)
                    restore(saved)
                saved = None
                while saved is None and rest:
                    gv = kth_bit(rest, rng.randrange(rest.bit_count()))
                    rest ^= 1 << gv
                    saved = place(x, gv)
                if saved is not None:
                    frame[1], frame[2] = rest, saved
                    break
                frames.pop()
            else:
                break
        total += nodes
        if not unplaced:
            # the frames hold the placements in the order they were made
            mapping = {vertices[x]: image[x] for x, _, _ in frames}
            problem = verify_embedding(H, G, mapping)
            if problem:
                raise StageFailure("revalidation", problem)
            return mapping, total
        if nodes <= limit:
            # the search tree is exhausted: no restart can find an embedding
            raise StageFailure(
                "no-list-embedding", f"attempt {attempt}: tree exhausted in {nodes} nodes"
            )
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

    # order H-vertices: most placed neighbours first, then max degree, then
    # the smallest label, from a heap of (-placed_nbrs, -deg, v) that gets a
    # new entry whenever v gains a placed neighbour; v's newest entry sorts
    # before its older ones, so an entry popped for a placed v is stale
    h_degree = [H.degree(v) for v in range(H.n)]
    placed_nbrs = [0] * H.n
    placed = [False] * H.n
    heap = [(0, -h_degree[v], v) for v in range(H.n)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        best = heapq.heappop(heap)[2]
        if placed[best]:
            continue
        order.append(best)
        placed[best] = True
        for w in bits(H.rows[best]):
            if not placed[w]:
                placed_nbrs[w] += 1
                heapq.heappush(heap, (-placed_nbrs[w], -h_degree[w], w))

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
    # depth-first over order positions without recursion: rest[i] holds
    # position i's untried candidates while deeper positions are searched,
    # and every entered position counts one node
    rest = [0] * H.n
    last = H.n - 1
    free = G.full_mask()
    nodes = 0
    idx = 0
    while True:
        nodes += 1
        if nodes > budget:
            return OracleResult("budget-exceeded", nodes=nodes)
        cands = free & fits[idx]
        for j in back[idx]:
            cands &= image_rows[j]
        while not cands and idx:  # backtrack to the last untried candidate
            idx -= 1
            free |= 1 << image[idx]
            cands = rest[idx]
        if not cands:
            return OracleResult("no-embedding", nodes=nodes)
        low = cands & -cands
        rest[idx] = cands ^ low
        gv = low.bit_length() - 1
        image[idx] = gv
        image_rows[idx] = g_rows[gv]
        if idx == last:
            break
        free ^= low
        idx += 1
    mapping = dict(zip(order, image))
    problem = verify_embedding(H, G, mapping)
    if problem:
        raise StageFailure("revalidation", problem)
    return OracleResult("embedded", mapping, nodes)


def power_cycle_oracle(G: DenseGraph, q: int, budget: int) -> OracleResult:
    """Complete search for a spanning q-th power of a cycle in G: the
    oracle's search tree on ``cycle_power(q, G.n)``, without the template.

    On that template the oracle's order is the cycle order 0..L-1 (after
    0..k-1 are placed, k has as many placed neighbours as any later vertex
    and the lowest label), so position k is searched against positions
    k-q..k-1 and, for k >= L-q, also 0..k+q-L; its candidates are the free
    vertices of degree at least the template's, lowest first.  Status,
    mapping (position -> vertex) and node count are the oracle's.  The
    cycle is not rechecked here: the caller certifies it.
    """
    L = G.n
    if L == 0:
        return OracleResult("embedded", {}, 0)
    # per position, the earlier positions at cyclic distance at most q, each
    # once: k-q..k-1, then those of 0..k+q-L below k-q
    back = [
        [*range(max(0, k - q), k), *range(max(0, min(k - q, k + q - L + 1)))]
        for k in range(L)
    ]
    g_rows = G.rows
    fits = mask_of(gv for gv in range(L) if g_rows[gv].bit_count() >= min(2 * q, L - 1))
    image = [0] * L
    image_rows = [0] * L
    # the oracle's loop: rest[k] holds position k's untried candidates while
    # deeper positions are searched, and every entered position counts one
    # node
    rest = [0] * L
    last = L - 1
    free = fits
    nodes = 0
    k = 0
    while True:
        nodes += 1
        if nodes > budget:
            return OracleResult("budget-exceeded", nodes=nodes)
        cands = free
        for j in back[k]:
            cands &= image_rows[j]
        while not cands and k:  # backtrack to the last untried candidate
            k -= 1
            free |= 1 << image[k]
            cands = rest[k]
        if not cands:
            return OracleResult("no-embedding", nodes=nodes)
        low = cands & -cands
        rest[k] = cands ^ low
        gv = low.bit_length() - 1
        image[k] = gv
        image_rows[k] = g_rows[gv]
        if k == last:
            return OracleResult("embedded", dict(enumerate(image)), nodes)
        free ^= low
        k += 1
