"""Embedding engines: one list-embedding engine behind the targeted partial
embedding and the per-block spanning embedding, and one exact search loop
behind the brute-force oracle and its search for a spanning power of a cycle.

``_list_search`` keeps a live candidate mask per tracked vertex.  A
placement x -> gv narrows only the masks of x's unplaced neighbours and
cell-mates, is refused if one would drop below its vertex's floor or the
tracked vertices of a cell would lose distinct candidates (checked by
``graphs.distinct_representatives``), and is undone from a saved list; a
node draws each try uniformly from its untried candidates with one
``kth_bit``.  ``embed_with_targets`` and ``blowup_embed`` wrap it and differ
in three inputs: the vertex rule (the next of ``order``, or fail-first), the
floor (0 on ordered and c*m on boundary vertices, against 1 on every
blow-up vertex: a cell-mate keeps a candidate) and the budget stop (a
refusal, or the blow-up's next restart on Luby's schedule).

``_exact_search`` is the complete search: template positions in a fixed
order, candidates lowest first.  ``brute_force_embed`` and
``power_cycle_oracle`` differ only in the earlier positions each position
must see and in the vertices that fit it.

Cells are disjoint, as the cells V_{a,b} of the proof are.  No search here
recurses.  Every embedding is revalidated edge by edge by a checker that
shares no code with the constructions; a power cycle, by its caller's
``validate_witness``.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass

from .graphs import (
    DenseGraph, InvalidParameters, StageFailure, bits, distinct_representatives, first_misplaced,
    kth_bit, mask_of,
)


def _cell_masks(n: int, clusters: dict[int, tuple[int, ...]]) -> dict[int, int]:
    """The vertex mask of every cell; cells that are not disjoint sets of
    vertices of the n-vertex host (``first_misplaced``) raise ``InvalidParameters``."""
    if misplaced := first_misplaced(n, clusters.values()):
        raise InvalidParameters(misplaced)
    return {a: mask_of(vs) for a, vs in clusters.items()}


def _refusal(label: str, detail: str, nodes: int) -> StageFailure:
    """A search's refusal, carrying the nodes it entered for its caller's audit."""
    refusal = StageFailure(label, detail)
    refusal.nodes = nodes
    return refusal


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


# -- the list-embedding engine ----------------------------------------------


def _list_search(
    G: DenseGraph, H: DenseGraph, vertices: list[int], cells: list[Hashable],
    cands: list[int], floors: list[int], size: int, fail_first: bool, limit: int, seed: str,
) -> tuple[dict[int, int], int]:
    """Depth-first list-embedding of the first ``size`` of ``vertices`` into
    their candidate masks ``cands``, narrowed in place; the rest are tracked,
    never placed, and those of one cell keep distinct candidates.  Position
    i lies in cell ``cells[i]`` and keeps at least ``floors[i]`` candidates
    while unplaced.  The next vertex is position ``len(placed)`` or, with
    ``fail_first``, the unplaced one with fewest candidates, ties by most
    H-neighbours among ``vertices``, then position.  The search stops at the
    first node past ``limit``.  Returns the placements made, in order, and
    the nodes entered.
    """
    g_rows, n = G.rows, len(vertices)
    position = {v: i for i, v in enumerate(vertices)}
    nbrs = [[position[u] for u in bits(H.rows[v]) if u in position] for v in vertices]
    mates: dict[Hashable, list[int]] = {}  # cell -> its positions; cells are disjoint
    for i, a in enumerate(cells):
        mates.setdefault(a, []).append(i)
    # fail-first key (live count, -deg, position) cached as one int per
    # position, less its alarm: (count - alarm) * n + the position's rank in
    # (-deg, position) order, so a key below 0 is a count below the alarm.
    # The alarm is the floor or, for a tracked vertex, the number of tracked
    # vertices in its cell if larger: only below it can they lose distinct
    # candidates
    base = [0] * n
    ranked = sorted(range(n), key=lambda i: (-len(nbrs[i]), i)) if fail_first else range(n)
    for k, i in enumerate(ranked):
        base[i] = k - floors[i] * n
    joint: dict[Hashable, list[int]] = {}  # cell -> its tracked positions
    for u in range(size, n):
        joint.setdefault(cells[u], []).append(u)
    for group in joint.values():
        for u in group:
            base[u] -= max(len(group) - floors[u], 0) * n
    key = [mk.bit_count() * n + base[i] for i, mk in enumerate(cands)]
    unplaced = set(range(n))
    rng = random.Random(seed)

    def place(x: int, gv: int) -> list[tuple[int, int, int]] | None:
        """Narrow the masks x -> gv changes; the (u, old mask, old key) triples
        overwritten, or None, changing nothing, if one drops below its floor
        or the tracked vertices of a cell lose distinct candidates."""
        bit = 1 << gv
        keep = g_rows[gv] & ~bit
        saved = []
        short = ()  # cells of tracked vertices narrowed below their alarm
        for u in nbrs[x]:
            if u in unplaced:
                mk = cands[u]
                new = mk & keep
                k = new.bit_count() * n + base[u]
                saved.append((u, mk, key[u]))
                cands[u], key[u] = new, k
                if k < 0:
                    if u < size or new.bit_count() < floors[u]:
                        break
                    short += (cells[u],)
        else:
            for u in mates[cells[x]]:
                mk = cands[u]
                if mk & bit and u in unplaced and u != x:
                    k = key[u]
                    saved.append((u, mk, k))
                    cands[u], key[u] = mk ^ bit, k - n
                    if k < n:
                        if u < size or mk.bit_count() <= floors[u]:
                            break
                        short += (cells[u],)
            else:
                if not short or all(
                    len(distinct_representatives([cands[j] for j in joint[a]])) == len(joint[a])
                    for a in short
                ):
                    unplaced.discard(x)
                    return saved
        for u, mk, k in saved:
            cands[u], key[u] = mk, k
        return None

    # a frame holds a node's position, its untried candidates as a mask, its
    # image and the masks its placement overwrote (None before the first)
    frames: list[list] = []
    nodes = 0
    while len(frames) < size:
        nodes += 1
        if nodes > limit:
            break
        x = min(unplaced, key=key.__getitem__) if fail_first else len(frames)
        frames.append([x, cands[x], 0, None])
        # move the deepest frame on to a random untried candidate, undoing its placement
        while frames:
            x, rest, _, saved = frame = frames[-1]
            if saved is not None:
                unplaced.add(x)
                for u, mk, k in saved:
                    cands[u], key[u] = mk, k
            saved = None
            while saved is None and rest:
                gv = kth_bit(rest, rng.randrange(rest.bit_count()))
                rest ^= 1 << gv
                saved = place(x, gv)
            if saved is not None:
                frame[1:] = rest, gv, saved
                break
            frames.pop()
        else:
            break
    mapping = {vertices[x]: gv for x, _, gv, _ in frames}
    if len(frames) == size and (problem := verify_embedding(H, G, mapping)):
        raise StageFailure("revalidation", problem)
    return mapping, nodes


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
    disjoint, keeping target sets for the boundary Y (disjoint from
    ``order``).  ``phi`` gives the cell of each vertex of ``order`` and
    ``Y``, indexed by vertex: a tuple over all of H (the assignment's) or a
    dict; a vertex it gives no cell, or a cell that is not a key of
    ``clusters``, raises ``InvalidParameters``.

    Guarantees on success: f(x) lands in cluster phi(x), and every boundary
    vertex y keeps a candidate set C_y of at least c*|cluster| fresh common
    neighbours of its embedded neighbours; the boundary vertices of one cell
    have distinct candidates, one each (Hall's condition).  The engine
    places ``order`` in turn with that floor on Y.  It raises
    "backtrack-budget-exhausted" past ``node_budget`` nodes, and
    "no-list-embedding" when it runs out of tree first, which certifies that
    no placement keeps every floor; either refusal states its node count and
    carries it as ``nodes``.
    """
    floor = math.ceil(c * max((len(vs) for vs in clusters.values()), default=0))
    cluster_mask = _cell_masks(G.n, clusters)
    vertices = [*order, *Y]
    for x in vertices:
        try:
            cell = phi[x]
        except (IndexError, KeyError):
            raise InvalidParameters(f"phi gives vertex {x} no cell") from None
        if cell not in cluster_mask:
            raise InvalidParameters(f"vertex {x}'s cell {cell} is not a cluster")
    cells = [phi[x] for x in vertices]
    cands = [cluster_mask[a] for a in cells]
    k = len(order)
    if any(mk.bit_count() < floor for mk in cands[k:]):
        bad = min(Y, key=lambda y: cluster_mask[phi[y]].bit_count())
        raise StageFailure("target-set", f"boundary vertex {bad} starts below the floor")
    for a, count in Counter(cells[k:]).items():
        if count > cluster_mask[a].bit_count():
            raise StageFailure(
                "target-set", f"cell {a} holds fewer vertices than its {count} boundary vertices"
            )
    floors = [0] * k + [floor] * len(Y)
    mapping, nodes = _list_search(
        G, H, vertices, cells, cands, floors, k, False, node_budget, f"targets:{seed}"
    )
    if nodes > node_budget:  # the trace: the first six live boundary masks
        trace = [(y, mk.bit_count()) for y, mk in zip(Y, cands[k:])][:6]
        at = order[len(mapping)]
        detail = f"budget {node_budget} hit at vertex {at}, nodes {nodes}; trace: {trace}"
        raise _refusal("backtrack-budget-exhausted", detail, nodes)
    if len(mapping) < k:
        raise _refusal(
            "no-list-embedding", f"no embedding within the search tree (nodes={nodes})", nodes
        )
    placed, sets = mask_of(mapping.values()), {}
    for y in Y:  # C_y again, from the mapping alone
        mk = cluster_mask[phi[y]] & ~placed
        for u in bits(H.rows[y]):
            mk &= G.rows[mapping[u]] if u in mapping else -1
        sets[y] = tuple(bits(mk))
        if len(sets[y]) < floor:
            raise StageFailure("target-set", f"boundary vertex {y} finished below the floor")
    return PartialEmbedding(mapping, sets, nodes)


# -- per-block spanning embedding ------------------------------------------

# Nodes of the shortest blow-up restart.  Restart i, from 0, may enter
# RESTART_UNIT * luby(i + 1) nodes (Luby, Sinclair and Zuckerman, IPL 1993),
# so an unlucky draw costs one short restart, not a fixed share of the budget.
RESTART_UNIT = 2_000


def _luby(i: int) -> int:
    """The i-th term, from 1, of Luby's sequence 1, 1, 2, 1, 1, 2, 4, 1, ...:
    2^(k-1) at i = 2^k - 1, and otherwise the term of i less 2^(k-1) - 1,
    for the k with 2^(k-1) <= i < 2^k."""
    while (i + 1) & i:
        i -= (1 << (i.bit_length() - 1)) - 1
    return (i + 1) >> 1


def blowup_embed(
    G: DenseGraph,
    H: DenseGraph,
    phi: dict[int, int],
    clusters: dict[int, tuple[int, ...]],
    special: dict[int, Iterable[int]] | None = None,
    node_budget: int = 10_000_000,
    seed: int = 0,
) -> tuple[dict[int, int], int]:
    """List-embedding of the vertices of ``phi`` into the block clusters,
    returned with the search nodes it entered, over all its restarts.

    H may be a whole guest of which ``phi`` names one block: only the
    vertices of ``phi`` are embedded, only the H-edges among them are
    constrained, and fail-first ranks by degree within them.  Every vertex
    lands in its phi-cluster, a special vertex in its S_y.  Clusters must be
    disjoint and per-cluster demand may not exceed supply (both checked).

    Each restart runs the engine fail-first with floor 1 on every vertex.
    Restart i may enter ``RESTART_UNIT * luby(i + 1)`` nodes, as many as are
    left of ``node_budget``.  One that runs out of tree raises
    "no-list-embedding" at once, since the other restarts would only search
    the same tree in another order; once the restarts have spent the budget
    the refusal is "backtrack-budget-exhausted", naming the restarts and the
    largest slice.  Either refusal names the nodes of all restarts and
    carries them as ``nodes``.
    """
    special = special or {}
    cluster_mask = _cell_masks(G.n, clusters)
    for a, need in Counter(phi.values()).items():
        if need > len(clusters.get(a, ())):
            raise StageFailure("load", f"cluster {a} demanded {need} > {len(clusters.get(a, ()))}")
    vertices = sorted(phi)
    cells = [phi[x] for x in vertices]
    start = [cluster_mask[a] & (mask_of(special[x]) if x in special else -1)
             for x, a in zip(vertices, cells)]
    attempt = total = largest = 0  # total: nodes over all restarts
    while True:
        limit = min(RESTART_UNIT * _luby(attempt + 1), node_budget - total)
        mapping, nodes = _list_search(G, H, vertices, cells, start.copy(), [1] * len(vertices),
                                      len(vertices), True, limit, f"blowup:{seed}:{attempt}")
        total += nodes
        if len(mapping) == len(vertices):
            return mapping, total
        if nodes <= limit:
            # the search tree is exhausted: no restart can find an embedding
            raise _refusal("no-list-embedding", f"attempt {attempt}: tree exhausted in {nodes} "
                           f"nodes, {total} over all restarts", total)
        attempt, largest = attempt + 1, max(largest, limit)
        if total >= node_budget:
            raise _refusal("backtrack-budget-exhausted",
                           f"restarts {attempt}, largest slice {largest}, nodes {total}", total)


# -- exact oracle -----------------------------------------------------------


@dataclass
class OracleResult:
    status: str  # "embedded" | "no-embedding" | "budget-exceeded"
    mapping: dict[int, int] | None = None
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.status == "embedded"


def _exact_search(
    g_rows: list[int], back: list[list[int]], fits: list[int], budget: int
) -> OracleResult:
    """The oracle's complete depth-first search, without recursion: position
    k takes a free vertex of ``fits[k]`` adjacent to the images of the
    earlier positions ``back[k]``, lowest first.  ``rest[k]`` holds position
    k's untried candidates while deeper positions are searched, and every
    entered position counts one node.  The mapping is position -> vertex.
    """
    n = len(back)
    if n == 0:
        return OracleResult("embedded", {}, 0)
    image, image_rows, rest = [0] * n, [0] * n, [0] * n
    free = (1 << len(g_rows)) - 1
    nodes = k = 0
    while True:
        nodes += 1
        if nodes > budget:
            return OracleResult("budget-exceeded", nodes=nodes)
        cands = free & fits[k]
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
        image[k] = gv = low.bit_length() - 1
        image_rows[k] = g_rows[gv]
        if k == n - 1:
            return OracleResult("embedded", dict(enumerate(image)), nodes)
        free ^= low
        k += 1


def brute_force_embed(H: DenseGraph, G: DenseGraph, budget: int = 5_000_000) -> OracleResult:
    """Complete backtracking over injective homomorphisms of H into G.

    H's vertices are searched with most placed neighbours first, then most
    neighbours, then the smallest label; a vertex's candidates are the
    G-vertices of at least its degree.  "no-embedding" is a certificate (the
    search space was exhausted); "budget-exceeded" is explicitly distinct
    from non-containment.
    """
    if H.n > G.n:
        return OracleResult("no-embedding", nodes=0)
    h_degree = [H.degree(v) for v in range(H.n)]
    placed_nbrs = [0] * H.n
    unplaced = set(range(H.n))
    order: list[int] = []
    for _ in range(H.n):
        best = min(unplaced, key=lambda v: (-placed_nbrs[v], -h_degree[v], v))
        order.append(best)
        unplaced.discard(best)
        for w in bits(H.rows[best]):
            placed_nbrs[w] += 1
    position = {u: i for i, u in enumerate(order)}
    back = [[position[w] for w in bits(H.rows[u]) if position[w] < i] for i, u in enumerate(order)]
    g_degree = [row.bit_count() for row in G.rows]
    fit_of = {du: mask_of(v for v, dg in enumerate(g_degree) if dg >= du) for du in set(h_degree)}
    res = _exact_search(G.rows, back, [fit_of[h_degree[u]] for u in order], budget)
    if res:
        res.mapping = {order[i]: gv for i, gv in res.mapping.items()}
        if problem := verify_embedding(H, G, res.mapping):
            raise StageFailure("revalidation", problem)
    return res


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
    # per position, the earlier positions at cyclic distance at most q, each
    # once: k-q..k-1, then those of 0..k+q-L below k-q
    back = [
        [*range(max(0, k - q), k), *range(max(0, min(k - q, k + q - L + 1)))]
        for k in range(L)
    ]
    fits = mask_of(gv for gv in range(L) if G.rows[gv].bit_count() >= min(2 * q, L - 1))
    return _exact_search(G.rows, back, [fits] * L, budget)
