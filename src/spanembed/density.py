"""Local density oracles, clique search and extendable-clique enumeration.

The exact checker is exhaustive (and therefore capped in size); the
sampled checker never certifies density, it only reports the absence of
found violations, and every witness it returns is rechecked exactly.
A subset X can only violate local density when its size k makes
``local_threshold`` positive, so both checkers count edges only for
subsets of such sizes.  Each returns the violating subset it found, or
None.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import DenseGraph, InvalidParameters, bits


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


def _scope(G: DenseGraph, within: int | None) -> int:
    """``within``, or every vertex when it is None; a bit outside 0..n-1 is
    refused."""
    if within is None:
        return G.full_mask()
    if within >> G.n:
        raise InvalidParameters(f"within has a bit outside 0..{G.n - 1}")
    return within


def enumerate_extendable_cliques(
    G: DenseGraph,
    r: int,
    s: int = 0,
    cap: int | None = None,
    within: int | None = None,
) -> list[tuple[int, ...]]:
    """Enumerate K_r's with joint degree >= s, lexicographically, as vertex
    tuples.

    Follows the inductive tuple construction: every prefix of a returned
    clique already has joint neighbourhood of size >= s (the common
    neighbourhood only shrinks as vertices are added), which is also the
    pruning rule.  ``within`` restricts the clique to a vertex bitmask;
    the joint degree is still measured in the whole host.  Enumeration
    stops after ``cap`` results, so ``cap=0`` finds none.  A ``within`` with
    a bit outside 0..n-1 raises ``InvalidParameters``.
    """
    if r < 1:
        raise InvalidParameters("r must be >= 1")
    if cap is not None and cap < 0:
        raise InvalidParameters("cap must be >= 0")
    scope = _scope(G, within)
    out: list[tuple[int, ...]] = []
    rows = G.rows
    full = G.full_mask()

    def rec(start: int, chosen: list[int], common: int, candidates: int) -> bool:
        """Return True when the cap is reached."""
        if len(chosen) == r:
            out.append(tuple(chosen))
            return cap is not None and len(out) >= cap
        # candidates: vertices > last chosen, inside scope, adjacent to all chosen
        for v in bits(candidates >> start << start):
            new_common = common & rows[v]
            if new_common.bit_count() < s:
                continue
            new_cands = candidates & rows[v]
            if (new_cands >> (v + 1)).bit_count() < r - len(chosen) - 1:
                continue
            chosen.append(v)
            if rec(v + 1, chosen, new_common, new_cands):
                return True
            chosen.pop()
        return False

    if cap != 0:
        rec(0, [], full, scope)
    return out


def _kth_bit(mask: int, k: int) -> int:
    """Position of the k-th (from 0) set bit of ``mask``, by binary search on
    the popcounts of its low prefixes."""
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _shuffled_bits(mask: int, rng: random.Random) -> Iterator[int]:
    """Yield the set bits of ``mask`` in uniform random order, one
    ``randrange`` per bit taken.

    A Fisher–Yates over the ascending list of set bits, run lazily and
    sparsely: the list is never built.  ``moved`` maps each position that a
    swap refilled to the list index now standing there, and a list entry
    becomes a vertex (its set bit found by ``_kth_bit``) only when drawn.  A
    consumer that stops early pays only for the prefix it used.
    """
    moved: dict[int, int] = {}
    for left in range(mask.bit_count(), 0, -1):
        i = rng.randrange(left)
        v = _kth_bit(mask, moved.get(i, i))
        moved[i] = moved.pop(left - 1, left - 1)
        yield v


def find_clique(
    G: DenseGraph,
    size: int,
    within: int | None = None,
    node_budget: int = 200_000,
    rng: random.Random | None = None,
) -> tuple[int, ...] | None:
    """DFS for one K_size inside the ``within`` mask.

    By default candidates are tried in descending order of degree restricted
    to the current candidate set (ties by id), which finds cliques quickly in
    dense hosts and is fully deterministic.  With ``rng`` each child is drawn
    uniformly from the candidates not yet tried at that node (a lazy, sparse
    Fisher–Yates draw over the candidate mask, ``_shuffled_bits``), spreading
    which vertices get consumed: the vertices tried are a prefix of a
    uniform random permutation, and only that prefix costs random draws and
    bit lookups; the candidates are never listed.  Gives up after
    ``node_budget`` DFS nodes.  A ``within`` with a bit outside 0..n-1
    raises ``InvalidParameters``.
    """
    if size < 0:
        raise InvalidParameters("size must be >= 0")
    scope = _scope(G, within)
    if size == 0:
        return ()
    rows = G.rows
    budget = node_budget

    def order(candidates: int) -> Iterable[int]:
        if rng is None:
            return sorted(
                bits(candidates),
                key=lambda v: (-(rows[v] & candidates).bit_count(), v),
            )
        return _shuffled_bits(candidates, rng)

    def rec(chosen: list[int], candidates: int) -> tuple[int, ...] | None:
        nonlocal budget
        if len(chosen) == size:
            return tuple(sorted(chosen))
        if candidates.bit_count() < size - len(chosen):
            return None
        if budget <= 0:
            return None
        budget -= 1
        for v in order(candidates):
            chosen.append(v)
            got = rec(chosen, candidates & rows[v])
            chosen.pop()
            if got is not None:
                return got
            candidates &= ~(1 << v)
            if candidates.bit_count() < size - len(chosen):
                return None
        return None

    return rec([], scope)
