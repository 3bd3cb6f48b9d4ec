"""Local/uniform density oracles and extendable-clique enumeration.

The exact checkers are exhaustive (and therefore capped in size); the
sampled checkers never certify density, they only report the absence of
found violations, and every witness they return is rechecked exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable

from .graphs import DenseGraph, bits


class SizeLimitExceeded(ValueError):
    """Exact mode requested above the exhaustive threshold."""


EXACT_LOCAL_THRESHOLD = 22
EXACT_UNIFORM_THRESHOLD = 18


@dataclass(frozen=True)
class DensityParams:
    rho: float
    d: float

    def __post_init__(self):
        if self.rho < 0:
            raise ValueError("rho must be >= 0")
        if not 0 < self.d <= 1:
            raise ValueError("d must lie in (0,1]")


@dataclass(frozen=True)
class DensityVerdict:
    """Outcome of a density check; witness is a violating subset (or pair)."""

    holds: bool
    witness: tuple[int, ...] | None = None
    witness_y: tuple[int, ...] | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.holds


def local_deficit(G: DenseGraph, xmask: int, p: DensityParams) -> float:
    """e(G[X]) - (d*C(|X|,2) - rho n^2); negative iff X violates."""
    k = xmask.bit_count()
    return G.edges_within(xmask) - (p.d * k * (k - 1) / 2 - p.rho * G.n * G.n)


def is_locally_dense_exact(
    G: DenseGraph, p: DensityParams, threshold: int = EXACT_LOCAL_THRESHOLD
) -> DensityVerdict:
    """Exhaustively check e(G[X]) >= d*C(|X|,2) - rho n^2 for every X.

    Scans subset sizes in increasing order so a returned witness has minimum
    size.  Sizes where the inequality is vacuous (d*C(k,2) <= rho n^2) are
    skipped outright.
    """
    n = G.n
    if n > threshold:
        raise SizeLimitExceeded(f"n={n} exceeds exact threshold {threshold}")
    rn2 = p.rho * n * n
    checked = 0

    # Smallest k at which the inequality can bite at all.
    k0 = None
    for k in range(n + 1):
        if p.d * k * (k - 1) / 2 - rn2 > 0:
            k0 = k
            break
    if k0 is None:
        return DensityVerdict(True, checked=0)

    rows = G.rows
    for k in range(k0, n + 1):
        need = p.d * k * (k - 1) / 2 - rn2
        # DFS over k-subsets in lexicographic order, tracking internal edges.
        found: list[int] | None = None

        def rec(start: int, chosen: list[int], cmask: int, edges: int) -> bool:
            nonlocal checked, found
            if len(chosen) == k:
                checked += 1
                if edges < need:
                    found = list(chosen)
                    return True
                return False
            slots = k - len(chosen)
            for v in range(start, n - slots + 1):
                gained = (rows[v] & cmask).bit_count()
                chosen.append(v)
                if rec(v + 1, chosen, cmask | (1 << v), edges + gained):
                    return True
                chosen.pop()
            return False

        if rec(0, [], 0, 0):
            assert found is not None
            return DensityVerdict(False, witness=tuple(found), checked=checked)
    return DensityVerdict(True, checked=checked)


def _greedy_sparse_subsets(G: DenseGraph, limit: int) -> Iterable[int]:
    """Greedy sparsest-growth prefixes: promising local-density violators."""
    n = G.n
    if n == 0:
        return
    order = sorted(range(n), key=lambda v: (G.degree(v), v))
    cmask = 0
    remaining = set(range(n))
    cur = order[0]
    for _ in range(min(n, limit)):
        cmask |= 1 << cur
        remaining.discard(cur)
        yield cmask
        if not remaining:
            break
        cur = min(remaining, key=lambda v: (G.degree_into(v, cmask), G.degree(v), v))


def is_locally_dense_sampled(
    G: DenseGraph,
    p: DensityParams,
    trials: int = 1000,
    seed: int = 0,
) -> DensityVerdict:
    """Search for local-density violations; never certifies their absence.

    Candidates: the full set first (by design), anti-neighbourhoods,
    greedy-sparsest growth prefixes, then uniform random subsets.  Any
    violation reported has been evaluated exactly.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    n = G.n
    full = G.full_mask()
    checked = 0

    def test(mask: int) -> DensityVerdict | None:
        nonlocal checked
        if mask == 0:
            return None
        checked += 1
        if local_deficit(G, mask, p) < 0:
            return DensityVerdict(False, witness=tuple(bits(mask)), checked=checked)
        return None

    bad = test(full)
    if bad is not None:
        return bad
    sample_vs = list(range(n)) if n <= 64 else rng.sample(range(n), 64)
    for v in sample_vs:
        bad = test(full & ~G.rows[v] & ~(1 << v))
        if bad is not None:
            return bad
    for mask in _greedy_sparse_subsets(G, limit=min(n, 4 * int(math.isqrt(n)) + 8)):
        bad = test(mask)
        if bad is not None:
            return bad
    for _ in range(trials):
        mask = rng.getrandbits(n) & full
        bad = test(mask)
        if bad is not None:
            return bad
    return DensityVerdict(True, checked=checked)


def _uniform_check_for_y(
    G: DenseGraph, ymask: int, p: DensityParams
) -> tuple[int, ...] | None:
    """For fixed Y, test all X via the prefix-sum reduction; return violating X."""
    n = G.n
    ysize = ymask.bit_count()
    if ysize == 0:
        return None
    rn2 = p.rho * n * n
    degs = sorted(
        ((G.rows[v] & ymask).bit_count(), v) for v in range(n)
    )
    prefix = 0
    chosen: list[int] = []
    for k, (c, v) in enumerate(degs, start=1):
        prefix += c
        chosen.append(v)
        if prefix < p.d * k * ysize - rn2:
            return tuple(sorted(chosen))
    return None


def is_uniformly_dense(
    G: DenseGraph,
    p: DensityParams,
    mode: str = "exact",
    trials: int = 2000,
    seed: int = 0,
    threshold: int = EXACT_UNIFORM_THRESHOLD,
) -> DensityVerdict:
    """Check e_G(X,Y) >= d|X||Y| - rho n^2 over (sampled) pairs X,Y.

    e_G counts ordered incidences, so e_G(X,X) = 2 e(G[X]).  For each fixed Y
    the X side is closed exactly: the minimising X of each size is the set of
    vertices with fewest neighbours in Y, so scanning prefix sums of the
    sorted Y-degrees decides all X at once.
    """
    n = G.n
    if mode == "exact":
        if n > threshold:
            raise SizeLimitExceeded(f"n={n} exceeds exact threshold {threshold}")
        checked = 0
        for ymask in range(1, 1 << n):
            checked += 1
            x = _uniform_check_for_y(G, ymask, p)
            if x is not None:
                return DensityVerdict(
                    False, witness=x, witness_y=tuple(bits(ymask)), checked=checked
                )
        return DensityVerdict(True, checked=checked)
    if mode == "sampled":
        rng = random.Random(seed)
        full = G.full_mask()
        candidates = [full]
        for v in range(n) if n <= 64 else rng.sample(range(n), 64):
            candidates.append(full & ~G.rows[v] & ~(1 << v))
            candidates.append(G.rows[v])
        candidates.extend(
            rng.getrandbits(n) & full for _ in range(trials)
        )
        checked = 0
        for ymask in candidates:
            if ymask == 0:
                continue
            checked += 1
            x = _uniform_check_for_y(G, ymask, p)
            if x is not None:
                return DensityVerdict(
                    False, witness=x, witness_y=tuple(bits(ymask)), checked=checked
                )
        return DensityVerdict(True, checked=checked)
    raise ValueError(f"unknown mode {mode!r}")


def high_degree_vertices(G: DenseGraph, d: float) -> set[int]:
    """Y = { v : d_G(v) >= d*n/2 }."""
    bound = d * G.n / 2
    return {v for v in range(G.n) if G.degree(v) >= bound}


@dataclass(frozen=True)
class ExtendableClique:
    """A K_r whose joint neighbourhood has size at least the requested bound."""

    vertices: tuple[int, ...]
    joint_degree: int

    def revalidate(self, G: DenseGraph) -> bool:
        return (
            G.is_clique(self.vertices)
            and G.joint_degree(self.vertices) == self.joint_degree
        )


def enumerate_extendable_cliques(
    G: DenseGraph,
    r: int,
    s: int = 0,
    cap: int | None = None,
    within: int | None = None,
) -> list[ExtendableClique]:
    """Enumerate K_r's with joint degree >= s, lexicographically.

    Follows the inductive tuple construction: every prefix of a returned
    clique already has joint neighbourhood of size >= s (the common
    neighbourhood only shrinks as vertices are added), which is also the
    pruning rule.  ``within`` restricts the clique to a vertex bitmask;
    the joint degree is still measured in the whole host.  Enumeration
    stops after ``cap`` results.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    n = G.n
    scope = G.full_mask() if within is None else within
    out: list[ExtendableClique] = []
    rows = G.rows
    full = G.full_mask()

    def rec(start: int, chosen: list[int], common: int, candidates: int) -> bool:
        """Return True when the cap is reached."""
        if len(chosen) == r:
            out.append(ExtendableClique(tuple(chosen), common.bit_count()))
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

    rec(0, [], full, scope)
    return out


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
    dense hosts and is fully deterministic.  With ``rng`` the order is
    shuffled instead, spreading which vertices get consumed.  Gives up after
    ``node_budget`` DFS nodes.
    """
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return ()
    scope = G.full_mask() if within is None else within
    rows = G.rows
    budget = node_budget

    def order(candidates: int) -> list[int]:
        if rng is None:
            return sorted(
                bits(candidates),
                key=lambda v: (-(rows[v] & candidates).bit_count(), v),
            )
        out = list(bits(candidates))
        rng.shuffle(out)
        return out

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


def count_expected_cliques(n: int, d: float, r: int) -> float:
    """Reported-only lower bound (d/2)^C(r+1,2) * n^r / r! from the count claim."""
    return (d / 2) ** (r * (r + 1) // 2) * n**r / math.factorial(r)


def independence_number_exact(G: DenseGraph, threshold: int = 24) -> int:
    """Exact independence number for small hosts (test utility)."""
    if G.n > threshold:
        raise SizeLimitExceeded(f"n={G.n} exceeds threshold {threshold}")
    comp_rows = [
        G.full_mask() & ~G.rows[v] & ~(1 << v) for v in range(G.n)
    ]
    comp = DenseGraph(G.n, comp_rows, check=False)
    best = 0
    for k in range(G.n, 0, -1):
        if k <= best:
            break
        if find_clique(comp, k, node_budget=10_000_000) is not None:
            best = k
            break
    return best
