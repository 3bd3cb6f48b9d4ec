"""Local density oracles and the clique search.

The exact checker is exhaustive (and therefore capped in size); the
sampled checker never certifies density, it only reports the absence of
found violations, and every witness it returns is rechecked exactly.
A subset X can only violate local density when its size k makes
``local_threshold`` positive, so both checkers count edges only for
subsets of such sizes.  Each returns the violating subset it found, or
None.

One depth-first search, ``_clique_search``, finds cliques inside a vertex
mask; ``cliques`` walks it in lexicographic order and ``find_clique`` takes
its first clique under a node budget, in degree order or a seeded random
order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import DenseGraph, InvalidParameters, bits, kth_bit


EXACT_LOCAL_THRESHOLD = 22


@dataclass(frozen=True)
class DensityParams:
    rho: float
    d: float

    def __post_init__(self):
        if self.rho < 0:
            raise InvalidParameters("rho must be >= 0")
        if not 0 < self.d <= 1:
            raise InvalidParameters("d must lie in (0,1]")


def local_threshold(n: int, k: int, p: DensityParams) -> float:
    """d*C(k,2) - rho n^2: the fewest edges a k-subset of an n-vertex host may
    span.  A k-subset can violate local density only when this is positive."""
    return p.d * k * (k - 1) / 2 - p.rho * n * n


def local_deficit(G: DenseGraph, xmask: int, p: DensityParams) -> float:
    """e(G[X]) - (d*C(|X|,2) - rho n^2); negative iff X violates."""
    return G.edges_within(xmask) - local_threshold(G.n, xmask.bit_count(), p)


def is_locally_dense_exact(G: DenseGraph, p: DensityParams) -> tuple[int, ...] | None:
    """Exhaustively check e(G[X]) >= d*C(|X|,2) - rho n^2 for every X: the
    first violating X, or None when every X holds.

    Scans subset sizes in increasing order so a returned witness has minimum
    size.  Sizes where the inequality is vacuous (d*C(k,2) <= rho n^2) are
    skipped outright.  Hosts above ``EXACT_LOCAL_THRESHOLD`` vertices are
    refused.
    """
    n = G.n
    if n > EXACT_LOCAL_THRESHOLD:
        raise InvalidParameters(f"n={n} exceeds exact threshold {EXACT_LOCAL_THRESHOLD}")
    rows = G.rows
    for k in range(n + 1):
        need = local_threshold(n, k, p)
        if need <= 0:
            continue

        # DFS over k-subsets in lexicographic order, tracking internal edges.
        def rec(
            start: int, chosen: list[int], cmask: int, edges: int
        ) -> tuple[int, ...] | None:
            if len(chosen) == k:
                return tuple(chosen) if edges < need else None
            slots = k - len(chosen)
            for v in range(start, n - slots + 1):
                gained = (rows[v] & cmask).bit_count()
                chosen.append(v)
                found = rec(v + 1, chosen, cmask | (1 << v), edges + gained)
                if found is not None:
                    return found
                chosen.pop()
            return None

        found = rec(0, [], 0, 0)
        if found is not None:
            return found
    return None


def _greedy_sparse_prefixes(G: DenseGraph, limit: int) -> Iterator[tuple[int, int]]:
    """Greedy sparsest-growth prefixes, promising local-density violators,
    each with its edge count: a grown vertex adds its degree into the prefix."""
    n = G.n
    if n == 0:
        return
    cur = min(range(n), key=lambda v: (G.degree(v), v))
    cmask = 0
    edges = 0
    remaining = set(range(n))
    for _ in range(min(n, limit)):
        edges += G.degree_into(cur, cmask)
        cmask |= 1 << cur
        remaining.discard(cur)
        yield cmask, edges
        if not remaining:
            break
        cur = min(remaining, key=lambda v: (G.degree_into(v, cmask), G.degree(v), v))


def is_locally_dense_sampled(
    G: DenseGraph,
    p: DensityParams,
    trials: int = 1000,
    seed: int = 0,
) -> tuple[int, ...] | None:
    """Search for a local-density violation: the first violating subset
    found, or None, which never certifies that none exists.

    Candidates come as one lazy stream, in this order: the full set (with
    its stored edge count), the anti-neighbourhoods of up to 64 sampled
    vertices, the greedy sparsest-growth prefixes (with their running edge
    sums), then ``trials`` uniform random subsets.  The prefixes are not even
    built when the longest cannot violate (the threshold grows with k).  A
    candidate of size k is counted with ``G.edges_within`` only when
    ``local_threshold(n, k, p) > 0``, and the first violation is returned,
    so any violation reported has been evaluated exactly.
    """
    if trials < 1:
        raise InvalidParameters("trials must be >= 1")
    rng = random.Random(seed)
    n = G.n
    full = G.full_mask()

    def candidates() -> Iterator[tuple[int, int | None]]:
        """(mask, its edge count, or None when it is still to be counted)."""
        yield full, G.edge_count()
        for v in range(n) if n <= 64 else rng.sample(range(n), 64):
            yield full & ~G.rows[v] & ~(1 << v), None
        limit = min(n, 4 * math.isqrt(n) + 8)
        if local_threshold(n, limit, p) > 0:
            yield from _greedy_sparse_prefixes(G, limit)
        for _ in range(trials):
            yield rng.getrandbits(n) & full, None

    for mask, edges in candidates():
        need = local_threshold(n, mask.bit_count(), p)
        if need > 0 and (G.edges_within(mask) if edges is None else edges) < need:
            return tuple(bits(mask))
    return None


def scope(G: DenseGraph, mask: int | None, name: str = "within") -> int:
    """``mask``, or every vertex when it is None; a bit outside 0..n-1 (a
    negative mask has infinitely many) is refused, naming the argument."""
    if mask is None:
        return G.full_mask()
    if mask >> G.n:
        raise InvalidParameters(f"{name} has a bit outside 0..{G.n - 1}")
    return mask


def _shuffled_bits(mask: int, rng: random.Random) -> Iterator[int]:
    """Yield the set bits of ``mask`` in uniform random order, one
    ``randrange`` per bit taken.

    A Fisher–Yates over the ascending list of set bits, run lazily and
    sparsely: the list is never built.  ``moved`` maps each position that a
    swap refilled to the list index now standing there, and a list entry
    becomes a vertex (its set bit found by ``kth_bit``) only when drawn.  A
    consumer that stops early pays only for the prefix it used.
    """
    moved: dict[int, int] = {}
    for left in range(mask.bit_count(), 0, -1):
        i = rng.randrange(left)
        v = kth_bit(mask, moved.get(i, i))
        moved[i] = moved.pop(left - 1, left - 1)
        yield v


def _by_degree(rows: Sequence[int], candidates: int) -> Iterator[int]:
    """The set bits of ``candidates`` by descending degree into
    ``candidates`` (ties by id): the best in one pass, the rest sorted only
    when a second one is asked for."""
    vs = list(bits(candidates))
    degrees = [(rows[v] & candidates).bit_count() for v in vs]
    yield vs[degrees.index(max(degrees))]
    # a stable descending sort keeps ties in ascending id, so its head is the
    # vertex already yielded
    for i in sorted(range(len(vs)), key=degrees.__getitem__, reverse=True)[1:]:
        yield vs[i]


def _clique_search(
    G: DenseGraph,
    size: int,
    scope: int,
    order: Callable[[int], Iterable[int]],
    budget: float,
) -> Iterator[tuple[int, ...]]:
    """Yield each K_size inside the ``scope`` mask, as its sorted vertex tuple.

    One depth-first search: a node's children are its candidates (the
    vertices of ``scope`` adjacent to every vertex chosen so far), taken in
    ``order(candidates)``, and each child is dropped from its siblings once
    tried, so every clique is met once.  A node is cut when too few
    candidates remain.  Opening a node costs one unit of ``budget``; a node
    met with none left returns at once, but its siblings are still tried
    (and drawn, when ``order`` draws them).

    It runs on an explicit stack of ``[candidates, children]`` frames, one
    per open node; ``chosen`` holds the vertex each child was entered by, so
    a frame is back from its child when ``chosen`` is as long as the stack.
    Such a frame drops that child and closes when too few candidates remain,
    at the latest once all are tried, so ``next`` never exhausts its children.
    """
    rows = G.rows
    chosen: list[int] = []
    stack: list[list] = []
    candidates = scope
    while True:
        if len(chosen) == size:
            yield tuple(sorted(chosen))
        elif candidates.bit_count() >= size - len(chosen) and budget > 0:
            budget -= 1
            stack.append([candidates, iter(order(candidates))])
        while stack:
            frame = stack[-1]
            if len(chosen) == len(stack):
                frame[0] &= ~(1 << chosen.pop())
                if frame[0].bit_count() < size - len(chosen):
                    stack.pop()
                    continue
            v = next(frame[1])
            chosen.append(v)
            candidates = frame[0] & rows[v]
            break
        else:
            return


def cliques(G: DenseGraph, r: int, within: int | None = None) -> Iterator[tuple[int, ...]]:
    """The K_r's inside the ``within`` mask (every vertex when None), as
    sorted vertex tuples in lexicographic order, drawn lazily.  An ``r`` below
    1, or a ``within`` with a bit outside 0..n-1, raises ``InvalidParameters``
    at the call."""
    if r < 1:
        raise InvalidParameters("r must be >= 1")
    return _clique_search(G, r, scope(G, within), bits, math.inf)


def find_clique(
    G: DenseGraph,
    size: int,
    within: int | None = None,
    node_budget: int = 200_000,
    rng: random.Random | None = None,
) -> tuple[int, ...] | None:
    """The first K_size inside the ``within`` mask that ``_clique_search``
    meets, or None.

    By default candidates are tried in descending order of degree restricted
    to the current candidate set (ties by id), which finds cliques quickly in
    dense hosts and is fully deterministic.  A node takes its best candidate
    in one pass over the degrees and sorts the rest only when the search
    comes back to it (``_by_degree``), which a first descent that succeeds
    never does.  With ``rng`` each child is drawn uniformly from the
    candidates not yet tried at that node (a lazy, sparse Fisher–Yates draw
    over the candidate mask, ``_shuffled_bits``), spreading which vertices
    get consumed: the vertices tried are a prefix of a uniform random
    permutation, and only that prefix costs random draws and bit lookups;
    the candidates are never listed.  Gives up after ``node_budget`` DFS
    nodes.  A ``within`` with a bit outside 0..n-1 raises
    ``InvalidParameters``.
    """
    if size < 0:
        raise InvalidParameters("size must be >= 0")
    within = scope(G, within)
    rows = G.rows

    def order(candidates: int) -> Iterator[int]:
        if rng is None:
            return _by_degree(rows, candidates)
        return _shuffled_bits(candidates, rng)

    return next(_clique_search(G, size, within, order, node_budget), None)
