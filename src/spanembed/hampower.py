"""Powers of (near-)Hamilton cycles by the connecting-absorbing method.

Pipeline: absorber blocks -> absorbing path -> flanking cliques -> reservoir
-> path cover -> threading through the reservoir (a bounded backtracking
search over the bridges) -> cycle closure -> final absorption.  Every
probabilistic existence step becomes a seeded construction whose
postcondition is verified exactly; the final witness is always run through
the generic validator before being returned.  Stage failures carry the
stage name; the driver retries the stochastic stages with derived seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .connect import Bridge, HypothesisViolation, bridging_cliques, connect_cliques
from .density import find_clique
from .graphs import (
    DenseGraph, InvalidParameters, StageFailure, WitnessSequence, bits, mask_of, validate_witness
)

# Desk-scale constants.  The paper picks them from right to left
# (eta2 << eta0); at a few hundred vertices no such separation holds, and
# these values are the ones the greedy constructions are feasible at.
ETA = 0.2  # the reservoir draw and the threading bridges get degree slack ETA/2
ETA0 = 0.8  # the absorber has at most ETA0*n/(8r) blocks
D1 = 0.3  # absorbing-path connectors need d(x, U) >= (1/2 + D1)|U|
ETA2 = 0.1  # the absorbing path swallows at most ETA2*n leftover vertices
ATTEMPTS = 30  # derived-seed attempts of find_hamilton_power
COVER_BACKOFFS = 6  # pop-and-retry steps of one cover path


@dataclass(frozen=True)
class AbsorberSystem:
    """Vertex-disjoint K_{2r} blocks.  A vertex z can be absorbed by a block
    inside its neighbourhood; ``absorb`` tests that per block itself."""

    r: int
    blocks: tuple[tuple[int, ...], ...]

    def revalidate(self, G: DenseGraph) -> None:
        used: set[int] = set()
        for block in self.blocks:
            if len(block) != 2 * self.r or not G.is_clique(block) or used & set(block):
                raise StageFailure("revalidation", f"absorber block {block} is not a fresh K_2r")
            used |= set(block)


@dataclass(frozen=True)
class AbsorbingPath:
    """A 2r-path of blocks and connectors with one insertion slot per block."""

    r: int
    path: WitnessSequence  # power-2r path
    blocks: tuple[tuple[int, ...], ...]
    block_start: tuple[int, ...]  # position of each block inside the path

    @property
    def S(self) -> tuple[int, ...]:
        return self.path.vertices[: 2 * self.r]

    @property
    def E_end(self) -> tuple[int, ...]:
        return self.path.vertices[-2 * self.r :]

    def insertion_position(self, block_index: int) -> int:
        """Sequence position after which an absorbed vertex lands (the slot
        between the r-th and (r+1)-th block vertex)."""
        return self.block_start[block_index] + self.r


def build_absorber(G: DenseGraph, r: int, seed: int | str, max_blocks: int) -> AbsorberSystem:
    """Greedily pick vertex-disjoint K_{2r}'s, at most ``max_blocks`` of them,
    until every vertex sees 2r + 2 blocks inside its neighbourhood.

    Always serves the currently worst-covered vertex, drawing its block at
    random from ``seed``; failing to find any disjoint block inside that
    vertex's neighbourhood is the coverage-unreachable signal (the
    density/degree hypotheses are too weak at this scale), unless every
    vertex already sees a block.
    """
    rng = random.Random(f"absorber:{seed}")
    blocks: list[tuple[int, ...]] = []
    used = 0
    coverage = [0] * G.n  # blocks inside each vertex's neighbourhood
    while len(blocks) < max_blocks:
        worst = min(range(G.n), key=coverage.__getitem__)
        if coverage[worst] >= 2 * r + 2:
            break
        scope = G.rows[worst] & ~used
        got = find_clique(G, 2 * r, within=scope, rng=rng)
        if got is None:
            if blocks and min(coverage) > 0:
                break  # budget-style exit: every vertex has some coverage
            raise StageFailure(
                "absorber",
                f"coverage-unreachable: no disjoint K_{2 * r} inside the "
                f"neighbourhood of starved vertex {worst}",
            )
        blocks.append(got)
        used |= mask_of(got)
        # v is covered by a block B iff v lies in N(B), which excludes B itself
        for v in bits(G.common_neighborhood(got)):
            coverage[v] += 1
    system = AbsorberSystem(r, tuple(blocks))
    system.revalidate(G)
    return system


def build_absorbing_path(G: DenseGraph, absorber: AbsorberSystem, seed: int | str) -> AbsorbingPath:
    """Thread the absorber blocks into one power-2r path.

    Consecutive blocks are joined by fresh 6r-vertex connectors at power 2r,
    with the avoided set growing as connectors are placed; the result has
    exactly (t-1)*8r + 2r vertices and is validated before being returned.
    """
    r = absorber.r
    blocks = absorber.blocks
    if not blocks:
        raise StageFailure("absorber", "no blocks to thread")
    protected = set()
    for b in blocks:
        protected |= set(b)
    sequence: list[int] = list(blocks[0])
    starts = [0]
    avoid = set(protected)
    for i in range(len(blocks) - 1):
        X, Y = list(blocks[i]), list(blocks[i + 1])
        W = sorted(avoid - set(X) - set(Y))
        try:
            conn = connect_cliques(G, X, Y, W, r=2 * r, eta=D1, seed=f"{seed}:pabs:{i}")
        except StageFailure as exc:
            raise StageFailure(
                "connector", f"absorbing path, block pair ({i},{i + 1}): {exc}"
            ) from exc
        sequence.extend(conn.vertices)
        starts.append(len(sequence))
        sequence.extend(blocks[i + 1])
        avoid |= set(conn.vertices)
    path = WitnessSequence(tuple(sequence), "path", 2 * r)
    res = validate_witness(G, path)
    if not res:
        raise StageFailure("connector", f"absorbing path invalid: {res.reason}")
    expected = (len(blocks) - 1) * 8 * r + 2 * r
    if len(sequence) != expected:
        raise StageFailure(
            "revalidation", f"absorbing path has {len(sequence)} != {expected} vertices"
        )
    return AbsorbingPath(r, path, blocks, tuple(starts))


def _match_to_blocks(candidates: dict[int, list[int]]) -> dict[int, int]:
    """Maximum bipartite matching z -> block via augmenting paths.

    Raises matching-infeasible naming the first unmatchable vertex.
    """
    match_block: dict[int, int] = {}
    order = sorted(candidates, key=lambda z: (len(candidates[z]), z))
    for z in order:
        seen: set[int] = set()

        def augment(u: int) -> bool:
            for b in candidates[u]:
                if b in seen:
                    continue
                seen.add(b)
                if b not in match_block or augment(match_block[b]):
                    match_block[b] = u
                    return True
            return False

        if not augment(z):
            raise StageFailure(
                "matching-infeasible", f"no free interior block for vertex {z}"
            )
    return {z: b for b, z in match_block.items()}


def absorb(
    G: DenseGraph,
    pabs: AbsorbingPath,
    Z: list[int],
) -> WitnessSequence:
    """Insert each z of Z into a distinct interior block, keeping the path's
    first and last 2r vertices intact; returns the power-r path.

    Each z needs an interior block fully inside its neighbourhood; the
    assignment is a maximum bipartite matching and a Hall violation is
    reported as matching-infeasible naming the unmatched vertex.
    """
    r = pabs.r
    pset = set(pabs.path.vertices)
    if set(Z) & pset:
        raise StageFailure("absorb", "Z intersects the absorbing path")
    t = len(pabs.blocks)
    usable = range(1, t - 1)  # interior blocks only: ends anchor the closure
    candidates: dict[int, list[int]] = {}
    for z in Z:
        opts = [
            j
            for j in usable
            if (G.rows[z] & mask_of(pabs.blocks[j])) == mask_of(pabs.blocks[j])
        ]
        if not opts:
            raise StageFailure(
                "matching-infeasible",
                f"vertex {z} is adjacent to no interior block",
            )
        candidates[z] = opts
    result = _match_to_blocks(candidates) if candidates else {}
    inserts: dict[int, int] = {}
    for z, j in result.items():
        inserts[pabs.insertion_position(j)] = z
    # rebuild with explicit slot positions (slot p means "after p vertices")
    out: list[int] = []
    for pos, v in enumerate(pabs.path.vertices):
        out.append(v)
        if (pos + 1) in inserts:
            out.append(inserts[pos + 1])
    witness = WitnessSequence(tuple(out), "path", r)
    res = validate_witness(G, witness)
    if not res:
        raise StageFailure("absorb", f"absorbed path invalid: {res.reason}")
    if witness.vertices[: 2 * r] != pabs.S or witness.vertices[-2 * r :] != pabs.E_end:
        raise StageFailure("revalidation", "absorption moved the path's end blocks")
    return witness


def select_reservoir(
    G: DenseGraph, pool: list[int], size: int, seed: int | str
) -> tuple[int, ...]:
    """Draw V' of ``size`` vertices from ``pool`` with
    d(x, V') >= (1/2 + ETA/2)|V'| for every vertex x of G.

    Seeded random draws, each repaired by at most 2·size swaps and verified
    exactly, replace the concentration argument.  After 50 draws the
    refusal names the vertex with the fewest neighbours in the pool.
    """
    n = G.n
    if len(pool) < size:
        raise StageFailure("reservoir", f"pool {len(pool)} smaller than size {size}")
    pool_mask = mask_of(pool)
    rng = random.Random(f"{seed}:reservoir")
    need = (0.5 + ETA / 2) * size

    def deficit_vertex(dmask: int) -> int | None:
        for x in range(n):
            if (G.rows[x] & dmask).bit_count() < need:
                return x
        return None

    for _ in range(50):
        draw = set(rng.sample(pool, size))
        dmask = mask_of(draw)
        # greedy repair: swap a draw vertex for a pool neighbour of the
        # currently starving vertex; bounded, then re-drawn
        for _ in range(2 * size):
            x = deficit_vertex(dmask)
            if x is None:
                return tuple(sorted(draw))
            gains = [v for v in bits(G.rows[x] & pool_mask & ~dmask)]
            if not gains:
                break
            u_in = rng.choice(gains)
            swappable = [u for u in draw if not G.has_edge(x, u)] or list(draw)
            u_out = rng.choice(swappable)
            draw.discard(u_out)
            draw.add(u_in)
            dmask = mask_of(draw)
        if deficit_vertex(dmask) is None:
            return tuple(sorted(draw))
    worst = min(range(n), key=lambda x: G.degree_into(x, pool_mask))
    raise StageFailure(
        "reservoir",
        f"retries-exhausted after 50 draws of size {size} "
        f"(weakest vertex {worst} has {G.degree_into(worst, pool_mask)}/{len(pool)} "
        f"pool neighbours, needs {need:.1f} into the draw)",
    )


def cover_with_paths(
    G2: DenseGraph, r: int, max_paths: int, seed: int | str
) -> tuple[list[WitnessSequence], list[int]]:
    """Cover G2 by at most ``max_paths`` vertex-disjoint power-2r paths on at
    least 2r + 1 vertices each.

    The power is 2r so that reordering a path's first or last r vertices
    (``_reorder_ends``) leaves a power-r path.  Greedy: seed each path with
    a clique, repeatedly append a vertex adjacent to the last 2r vertices
    (preferring vertices that are hard to reach later), falling back to head
    extension and at most ``COVER_BACKOFFS`` pop-and-retry rotations per
    path; each path aims at its share of the vertices still uncovered.
    Returns (paths, leftover); cover quality is measured by the caller,
    degenerate covers are legal.
    """
    r_cover, min_path = 2 * r, 2 * r + 1
    rng = random.Random(f"{seed}:cover")
    remaining = G2.full_mask()
    paths: list[WitnessSequence] = []
    leftover: list[int] = []

    def extend_once(seq: list[int], pool: int, at_head: bool) -> bool:
        anchor = seq[:r_cover] if at_head else seq[-r_cover:]
        cands = pool & G2.common_neighborhood(anchor)
        if not cands:
            return False
        ranked = sorted(
            bits(cands),
            key=lambda v: ((G2.rows[v] & pool).bit_count(), v),
        )
        pick = ranked[0] if len(ranked) == 1 or rng.random() < 0.7 else rng.choice(ranked[: min(3, len(ranked))])
        if at_head:
            seq.insert(0, pick)
        else:
            seq.append(pick)
        return True

    def grow_path(goal: int, scope: int) -> list[int] | None:
        """One greedy path attempt inside ``scope``; None when no seed fits."""
        core = find_clique(G2, min(r_cover, scope.bit_count()), within=scope)
        if core is None:
            return None
        seq = list(core)
        pool = scope & ~mask_of(seq)
        tabu = 0
        budget = COVER_BACKOFFS
        while len(seq) < goal:
            if extend_once(seq, pool, at_head=False):
                pool &= ~mask_of(seq)
                continue
            if extend_once(seq, pool, at_head=True):
                pool &= ~mask_of(seq)
                continue
            if budget > 0 and r_cover < len(seq) < min_path:
                # rotation-style retreat, only while the path is unusable
                victim = seq.pop()
                tabu |= 1 << victim
                pool &= ~tabu
                budget -= 1
                continue
            break
        return seq

    while remaining.bit_count() >= min_path and len(paths) < max_paths:
        # spread the remaining vertices over the paths still to come
        goal = max(min_path, math.ceil(remaining.bit_count() / (max_paths - len(paths))))
        seq = None
        scope = remaining
        for _ in range(4):  # reseed around an unlucky core
            got = grow_path(goal, scope)
            if got is None:
                break
            if len(got) >= min_path:
                seq = got
                break
            scope &= ~(1 << got[0])
            if scope.bit_count() < min_path:
                break
        if seq is None:
            if got is None:
                break
            # stranded: drop the last attempt into the leftover and keep going
            leftover.extend(got)
            remaining &= ~mask_of(got)
            continue
        w = WitnessSequence(tuple(seq), "path", r_cover)
        check = validate_witness(G2, w)
        if not check:
            raise StageFailure("revalidation", f"greedy cover emitted a bad path: {check.reason}")
        paths.append(w)
        remaining &= ~mask_of(seq)

    # post-pass: tack stray vertices onto path ends where adjacency allows
    strays = remaining
    changed = True
    while changed and strays:
        changed = False
        for i, w in enumerate(paths):
            seq = list(w.vertices)
            for v in list(bits(strays)):
                if (G2.rows[v] & mask_of(seq[-r_cover:])).bit_count() == min(
                    r_cover, len(seq)
                ):
                    seq.append(v)
                    strays &= ~(1 << v)
                    changed = True
                elif (G2.rows[v] & mask_of(seq[:r_cover])).bit_count() == min(
                    r_cover, len(seq)
                ):
                    seq.insert(0, v)
                    strays &= ~(1 << v)
                    changed = True
            if len(seq) != len(w.vertices):
                w2 = WitnessSequence(tuple(seq), "path", r_cover)
                check = validate_witness(G2, w2)
                if not check:
                    raise StageFailure(
                        "revalidation", f"stray tack-on broke a path: {check.reason}"
                    )
                paths[i] = w2
    leftover.extend(bits(strays))
    return paths, sorted(leftover)


# -- the full pipeline ------------------------------------------------------


@dataclass
class HamPlan:
    """Desk-scale sizing for one run, derived from (n, r)."""

    t_blocks: int
    reservoir: int
    target_paths: int

    @staticmethod
    def derive(n: int, r: int) -> "HamPlan":
        flank = min_path = 2 * r + 1
        # the most blocks t >= 1 whose path, two flanks, a reservoir of
        # max(4, r + 2) and one cover path fit: (t-1)8r + 2r + 2flank +
        # max(4, r + 2) + min_path = 8rt + 3 + max(4, r + 2) <= n
        t_max = max(1, (n - 3 - max(4, r + 2)) // (8 * r))
        budget = max(2, int(ETA0 * n / (8 * r)))
        t = min(t_max, budget)
        if t < 2:
            raise StageFailure(
                "absorber", f"host too small: cannot fit two blocks plus flanks at n={n}"
            )
        B = n - ((t - 1) * 8 * r + 2 * r) - 2 * flank
        capacity = max(0, t - 2)
        # tiny reservoirs make the verified draw statistically hopeless, so
        # insist on a floor of ~5 whenever the absorber can swallow the slack
        reserve_floor = max(r + 2, 5 if capacity >= 1 else 4)
        plan = None
        for p in range(max(1, B // (min_path + r)), 0, -1):
            R = max(r * (p + 1), reserve_floor)
            slack = R - r * (p + 1)
            if slack > capacity:
                continue
            G2 = B - R
            if G2 >= p * min_path:
                plan = (p, R)
                break
        if plan is None:
            raise StageFailure(
                "reservoir",
                f"no feasible sizing at n={n}, r={r}, t={t} (budget {B})",
            )
        p, R = plan
        return HamPlan(t_blocks=t, reservoir=R, target_paths=p)


@dataclass
class HamAudit:
    """Records of one find_hamilton_power call: its plan, the attempts made,
    the stages some attempt completed, and each failed attempt's stage and
    detail."""

    attempts: int = 0
    stages: list[str] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    plan: HamPlan | None = None


def _reorder_ends(
    seq: tuple[int, ...], r: int, head_first: tuple[int, ...] | None, tail_last: tuple[int, ...] | None
) -> list[int]:
    """Reorder a cover path so the connector-attached r-subsets sit innermost:
    head_first comes first in the head block, tail_last comes last in the
    tail block (both blocks are cliques, so any order inside them is valid)."""
    out = list(seq)
    if head_first is not None:
        head = list(seq[:r])
        chosen = [v for v in head if v in set(head_first)]
        rest = [v for v in head if v not in set(head_first)]
        out[:r] = chosen + rest
    if tail_last is not None:
        tail = list(out[-r:])
        chosen = [v for v in tail if v in set(tail_last)]
        rest = [v for v in tail if v not in set(tail_last)]
        out[-r:] = rest + chosen
    return out


def find_hamilton_power(
    G: DenseGraph,
    r: int,
    seed: int = 0,
    audit: HamAudit | None = None,
) -> WitnessSequence:
    """Find the r-th power of a Hamilton cycle of G.

    Runs the full connecting-absorbing pipeline; stochastic stages (reservoir
    draw, cover randomisation) are retried with derived seeds, ``ATTEMPTS``
    times at most.  No degree or density hypothesis on G is prechecked: the
    returned witness is validated, and on exhaustion the last stage-labelled
    failure is re-raised.  A power r < 1 raises ``InvalidParameters``.
    """
    if r < 1:
        raise InvalidParameters(f"power r={r} must be >= 1")
    audit = audit if audit is not None else HamAudit()
    plan = HamPlan.derive(G.n, r)
    audit.plan = plan

    # Everything is rebuilt per attempt under a derived seed: the clique
    # searches draw each candidate uniformly from the untried ones, so that
    # which vertices the absorber, path and flanks consume varies, keeping
    # the residual pool unbiased.
    last_failure: StageFailure | None = None
    for attempt in range(ATTEMPTS):
        audit.attempts = attempt + 1
        sub_seed = f"{seed}:attempt:{attempt}"
        try:
            witness = _one_attempt(G, r, plan, sub_seed, audit)
        except StageFailure as exc:
            audit.failures.append((exc.stage, exc.detail))
            last_failure = exc
            continue
        _check_cycle(G, witness)
        return witness
    raise last_failure


def _check_cycle(G: DenseGraph, witness: WitnessSequence) -> None:
    """The returned certificate: a valid power cycle through all of G."""
    res = validate_witness(G, witness)
    if not res:
        raise StageFailure("revalidation", f"final cycle invalid: {res.reason}")
    if len(witness.vertices) != G.n:
        raise StageFailure(
            "revalidation", f"final cycle has {len(witness.vertices)} != {G.n} vertices"
        )


def _one_attempt(
    G: DenseGraph,
    r: int,
    plan: HamPlan,
    sub_seed: str,
    audit: HamAudit,
) -> WitnessSequence:
    n = G.n
    absorber = build_absorber(G, r, sub_seed, max_blocks=plan.t_blocks)
    _note(audit, "absorber")
    pabs = build_absorbing_path(G, absorber, sub_seed)
    _note(audit, "absorbing-path")

    # flanking K_{2r+1}'s adjacent to everything in S / E
    rng = random.Random(f"{sub_seed}:flank")
    pset = mask_of(pabs.path.vertices)
    scope_S = G.common_neighborhood(pabs.S) & ~pset
    flank_S = find_clique(G, 2 * r + 1, within=scope_S, rng=rng)
    if flank_S is None:
        raise StageFailure("flank-clique", "no clique >= 2r+1 adjacent to all of S")
    scope_E = G.common_neighborhood(pabs.E_end) & ~pset & ~mask_of(flank_S)
    flank_E = find_clique(G, 2 * r + 1, within=scope_E, rng=rng)
    if flank_E is None:
        raise StageFailure("flank-clique", "no clique >= 2r+1 adjacent to all of E")
    _note(audit, "flank-clique")

    protected = pset | mask_of(flank_S) | mask_of(flank_E)
    pool = [v for v in range(n) if not protected >> v & 1]
    return _thread_and_close(G, r, plan, pabs, flank_S, flank_E, pool, sub_seed)


def _note(audit: HamAudit, stage: str) -> None:
    if stage not in audit.stages:
        audit.stages.append(stage)


def _thread_and_close(
    G: DenseGraph,
    r: int,
    plan: HamPlan,
    pabs: AbsorbingPath,
    flank_S: tuple[int, ...],
    flank_E: tuple[int, ...],
    pool: list[int],
    sub_seed: str,
) -> WitnessSequence:
    """Draw the reservoir from ``pool``, cover the rest by power paths,
    thread flank_E, the cover paths and flank_S into one power-r path
    through reservoir bridges, and close it into the cycle through the
    absorbing path, which swallows the vertices left over.

    The threading is ``_thread``'s backtracking search over the segment
    pairs, whose first assignment is the greedy one; a pair it cannot
    bridge is a ``connector`` failure naming that pair.
    """
    n = G.n
    reservoir = select_reservoir(G, pool, plan.reservoir, sub_seed)
    g2_vertices = sorted(set(pool) - set(reservoir))
    G2, ids = G.induced(g2_vertices)
    paths2, leftover2 = cover_with_paths(G2, r, plan.target_paths, sub_seed)
    cover_paths = [tuple(ids[v] for v in w.vertices) for w in paths2]
    uncovered = [ids[v] for v in leftover2]

    # threading order: flank_E first, cover paths, flank_S last
    segs: list[tuple[int, ...]] = [tuple(sorted(flank_E))] + cover_paths + [
        tuple(sorted(flank_S))
    ]
    bridges = _thread(G, r, segs, reservoir)
    head_orders: list[tuple[int, ...] | None] = [None] * len(segs)
    tail_orders: list[tuple[int, ...] | None] = [None] * len(segs)
    for i, bridge in enumerate(bridges):
        tail_orders[i] = bridge.X_prime
        head_orders[i + 1] = bridge.Y_prime
    connectors = [tuple(sorted(bridge.Z)) for bridge in bridges]
    used_res = set().union(*(bridge.Z for bridge in bridges))

    big: list[int] = []
    for i, seg in enumerate(segs):
        big.extend(_reorder_ends(seg, r, head_orders[i], tail_orders[i]))
        if i < len(connectors):
            big.extend(connectors[i])

    leftovers = sorted(set(uncovered) | (set(reservoir) - used_res))
    if len(leftovers) > ETA2 * n:
        raise StageFailure(
            "cover-too-lossy",
            f"{len(leftovers)} uncovered vertices exceed eta2*n = {ETA2 * n:.1f}",
        )
    absorbed = absorb(G, pabs, leftovers)
    cycle = WitnessSequence(tuple(absorbed.vertices) + tuple(big), "cycle", r)
    res = validate_witness(G, cycle)
    if not res:
        raise StageFailure("closure", f"cycle validation failed: {res.reason}")
    return cycle


# Bridges a threading search may draw beyond one per pair; see _thread.
# Over 360 instances of gnp(300, .9) with r = 2 and gnp(400, .95) with
# r = 3, a search that succeeded needed at most 146 extra draws (90% needed
# 8 or fewer).  On a 2-vCPU Xeon one that fails spends ~7 ms, under the
# ~12 ms of the attempt it would save; 1,024 saved 4 more attempts in 720
# at ~26 ms per failed search.
THREAD_BUDGET = 256


def _thread(
    G: DenseGraph, r: int, segs: list[tuple[int, ...]], reservoir: tuple[int, ...]
) -> list[Bridge]:
    """One bridge per consecutive segment pair (the last r vertices of one,
    the first r of the next), with pairwise disjoint cliques from the
    reservoir, each drawn at degree slack ETA/2.

    A depth-first search over the pairs, with an explicit stack: each pair
    draws its bridges from ``bridging_cliques`` in ``find_bridging_clique``'s
    order, avoiding the cliques the earlier pairs hold, and a pair that runs
    out sends the search back to draw the previous pair's next bridge.  So
    the first assignment tried is the greedy one.  What a pair can still
    draw depends only on the reservoir vertices the earlier pairs hold, so a
    (pair, held) state that was exhausted once is not entered again.  After
    one bridge per pair plus ``THREAD_BUDGET`` more, or when the first pair
    runs out, the search raises the failure of the deepest pair it reached
    (the first such failure met); a violated hypothesis, which no other
    choice of the earlier bridges can mend, is raised at once.
    """
    res_mask = mask_of(reservoir)
    pairs = [(list(segs[i][-r:]), list(segs[i + 1][:r])) for i in range(len(segs) - 1)]

    def draws(i: int, held: int):
        X, Y = pairs[i]
        return bridging_cliques(G, list(reservoir), X, Y, list(bits(held)), r, ETA / 2)

    def failure(i: int, exc: StageFailure) -> StageFailure:
        return StageFailure("connector", f"threading pair ({i},{i + 1}): {exc}")

    chosen: list[Bridge] = []
    held = [0]  # held[i]: reservoir vertices taken by the bridges of pairs < i
    stack = [draws(0, 0)] if pairs else []
    exhausted: set[tuple[int, int]] = set()
    deepest: tuple[int, StageFailure] | None = None
    budget = len(pairs) + THREAD_BUDGET
    while len(chosen) < len(pairs):
        i = len(chosen)
        if budget <= 0:
            raise failure(*deepest) from deepest[1]
        budget -= 1
        try:
            bridge = next(stack[-1])
        except HypothesisViolation as exc:
            raise failure(i, exc) from exc
        except StageFailure as exc:
            if deepest is None or i > deepest[0]:
                deepest = (i, exc)
            exhausted.add((i, held[i]))
            stack.pop()
            if not chosen:
                raise failure(*deepest) from deepest[1]
            chosen.pop()
            held.pop()
            continue
        zmask = mask_of(bridge.Z)
        if len(bridge.Z) != r or zmask & ~res_mask or zmask & held[i]:
            raise StageFailure("revalidation", f"threading bridge {bridge.Z} leaves the reservoir")
        if (i + 1, held[i] | zmask) in exhausted:
            continue
        chosen.append(bridge)
        held.append(held[i] | zmask)
        if len(chosen) < len(pairs):
            stack.append(draws(i + 1, held[-1]))
    return chosen
