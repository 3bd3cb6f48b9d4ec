"""Partitioning machinery for the guest graph H.

Two jobs: (1) produce a balanced homomorphism of a low-bandwidth H into the
blown-cycle template (a proper 2r-colouring whose colour classes stay within
2W of each other on every prefix, W = ceil(beta*n) the interval width, then
block-slicing into cells), and (2) assign a short prefix of H onto a
framework trail in the reduced graph so that a 2-independent set lands
exactly on the exceptional vertices.  Job (2) has no caller in the
pipeline, which refuses a non-empty exceptional set; the benchmark's tracer
still names ``build_framework`` and ``special_assignment``, so they go with
its next refresh (ROADMAP item 6, "Delete the framework path").

All outputs are checked by independent recounts that share no code with the
constructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .connect import HypothesisViolation, connect_cliques
from .density import DensityParams, enumerate_extendable_cliques, find_clique, is_locally_dense_sampled
from .generators import BandwidthedH
from .graphs import DenseGraph, StageFailure, WitnessSequence, mask_of, validate_witness, z_rule_edge


V0Target = tuple[str, int]  # ("V0", vertex-id in the host)
Cell = tuple[int, int]


@dataclass(frozen=True)
class Assignment:
    """A total map V(H) -> cells ∪ V0 plus the special-vertex set B."""

    f: tuple[Cell | V0Target, ...]
    B: frozenset[int]
    tallies: dict[Cell, int]


def interval_width(beta: float, n: int) -> int:
    """W = ceil(beta*n), the interval width; a beta given as W/n reads W even
    where the float product beta*n overshoots W."""
    return max(1, math.ceil(beta * n - 1e-9))


def _intervals(order: tuple[int, ...], width: int) -> list[list[int]]:
    return [list(order[i : i + width]) for i in range(0, len(order), width)]


def balanced_2r_colouring(Hb: BandwidthedH, r: int | None = None) -> tuple[int, ...]:
    """A proper 2r-colouring whose classes are balanced on every prefix.

    ``r`` defaults to the number of colours of ``Hb``.  Slices the bandwidth
    order into width-ceil(beta*n) intervals (beta = ``Hb.beta``), colours odd
    intervals inside [r] and even ones inside [2r]\\[r], and keeps the colour
    classes as vertex lists.  The first interval keeps its colours and is not
    counted; the second is one step and later intervals go in pairs.  Every
    step reorders the classes of each half by size, largest first, and gives
    the step's new classes, smallest first, to those positions; ties keep the
    colour order.  The three promised properties are verified by an
    independent recount before returning.
    """
    H, order, chi = Hb.H, Hb.order.order, Hb.colouring
    n = H.n
    if r is None:
        r = max(chi)
    if max(chi) > r:
        raise StageFailure(
            "balanced-colouring", f"colouring uses {max(chi)} colours, template has r={r}"
        )
    A = _intervals(order, interval_width(Hb.beta, n))
    halves = (slice(0, r), slice(r, 2 * r))
    classes: list[list[int]] = [[] for _ in range(2 * r)]
    for first in range(0, len(A), 2):
        for half in halves:
            classes[half] = sorted(classes[half], key=len, reverse=True)
        fresh: list[list[int]] = [[] for _ in range(2 * r)]
        for t in range(max(first, 1), min(first + 2, len(A))):
            for x in A[t]:
                fresh[chi[x] - 1 + r * (t % 2)].append(x)
        for half in halves:
            for cls, new in zip(classes[half], sorted(fresh[half], key=len)):
                cls.extend(new)

    colouring = list(chi)
    for c, cls in enumerate(classes, start=1):
        for x in cls:
            colouring[x] = c
    result = tuple(colouring)
    report = check_balanced_colouring(Hb, result, r)
    if report:
        raise StageFailure("balanced-colouring", "failed verification: " + report)
    return result


def check_balanced_colouring(
    Hb: BandwidthedH,
    colouring: tuple[int, ...],
    r: int | None = None,
) -> str:
    """Independent recount of the three colouring properties, bounded in the
    interval width W; empty = pass."""
    H, order, chi = Hb.H, Hb.order.order, Hb.colouring
    n = H.n
    if r is None:
        r = max(chi)
    W = interval_width(Hb.beta, n)
    A = _intervals(order, W)
    for u, v in H.edges():
        if colouring[u] == colouring[v]:
            return f"not proper at edge ({u},{v})"
    for t, interval in enumerate(A, start=1):
        lo, hi = (1, r) if t % 2 == 1 else (r + 1, 2 * r)
        for x in interval:
            if not lo <= colouring[x] <= hi:
                return f"interval {t} colour {colouring[x]} outside its half"
    counts = [0] * (2 * r + 1)
    bound = 2 * W
    for t, interval in enumerate(A, start=1):
        for x in interval:
            counts[colouring[x]] += 1
        for lo, hi in ((1, r), (r + 1, 2 * r)):
            for j in range(lo, hi + 1):
                for j2 in range(lo, hi + 1):
                    if abs(counts[j] - counts[j2]) > bound:
                        return (
                            f"prefix {t}: classes {j},{j2} differ by "
                            f"{abs(counts[j] - counts[j2])} > {bound}"
                        )
    return ""


def basic_assignment(Hb: BandwidthedH, targets: dict[Cell, int]) -> Assignment:
    """Slice H along its bandwidth order into ell blocks of the target sizes
    and map x -> (block, balanced-colour).

    The cells of ``targets`` are [ell] x [2r]: ell is the largest block
    index and 2r the largest colour.  Preconditions (all checked): targets
    cover those cells exactly, sum to n, every target is at least
    1, every block is at least 4 interval-widths wide, and within-block
    targets differ by at most 1.  The output satisfies the four
    block-homomorphism properties, which the independent checker recounts.
    """
    n = Hb.n
    cells = sorted(targets)
    ell = max(i for i, _ in cells)
    r = max(j for _, j in cells) // 2
    if set(cells) != {(i, j) for i in range(1, ell + 1) for j in range(1, 2 * r + 1)}:
        raise StageFailure("basic-assignment", "targets must cover [ell] x [2r] exactly")
    total = sum(targets.values())
    if total != n:
        raise StageFailure("basic-assignment", f"targets sum to {total}, vertex count is {n}")
    W = interval_width(Hb.beta, n)
    # the asymptotic per-cell floor is 10*beta*n; the construction only
    # needs nonempty cells and block widths that dominate the buffers
    for cell, m in targets.items():
        if m < 1:
            raise StageFailure("floor", f"target m{cell} = {m} below the floor 1")
    for i in range(1, ell + 1):
        block_total = sum(targets[(i, j)] for j in range(1, 2 * r + 1))
        if block_total < 4 * W:
            raise StageFailure(
                "floor", f"block {i} width {block_total} below the floor 4*beta*n = {4 * W}"
            )
    for i in range(1, ell + 1):
        row = [targets[(i, j)] for j in range(1, 2 * r + 1)]
        if max(row) - min(row) > 1:
            raise StageFailure("basic-assignment", f"block {i} targets differ by more than 1")

    chi2 = balanced_2r_colouring(Hb, r)
    order = Hb.order.order
    block_sizes = [sum(targets[(i, j)] for j in range(1, 2 * r + 1)) for i in range(1, ell + 1)]
    boundaries = [0]
    for size in block_sizes:
        boundaries.append(boundaries[-1] + size)

    f: list[Cell | V0Target] = [(0, 0)] * n
    B: set[int] = set()
    for i in range(1, ell + 1):
        lo, hi = boundaries[i - 1], boundaries[i]
        for pos in range(lo, hi):
            x = order[pos]
            f[x] = (i, chi2[x])
        if i >= 2:
            B.update(order[lo : lo + W])
        if i <= ell - 1:
            B.update(order[hi - W : hi])
    tallies: dict[Cell, int] = {}
    for val in f:
        tallies[val] = tallies.get(val, 0) + 1

    asg = Assignment(tuple(f), frozenset(B), tallies)
    report = check_basic_assignment(Hb, asg, targets)
    if report:
        raise StageFailure("basic-assignment", "failed verification: " + report)
    return asg


def check_basic_assignment(
    Hb: BandwidthedH,
    asg: Assignment,
    targets: dict[Cell, int],
) -> str:
    """Independent recount of the four slicing properties plus the template
    homomorphism, bounded in the interval width W; empty string = pass.
    Shares no code with the constructor.
    """
    n = Hb.n
    ell = max(i for i, _ in targets)
    order = Hb.order.order
    W = interval_width(Hb.beta, n)
    f, B = asg.f, asg.B

    # B avoids the first W vertices and is small
    head = set(order[:W])
    if head & B:
        return "B intersects the first W vertices"
    if len(B) > 2 * ell * W:
        return f"|B| = {len(B)} exceeds 2*ell*W"

    # per-cell size deviation
    counts: dict[Cell, int] = {}
    for val in f:
        if val[0] == "V0":
            return "basic assignment may not use V0"
        counts[val] = counts.get(val, 0) + 1
    for cell in targets:
        got = counts.get(cell, 0)
        if abs(got - targets[cell]) > 10 * W:
            return f"cell {cell} holds {got}, target {targets[cell]}"

    # edge condition and the block equality off B
    for u, v in Hb.H.edges():
        (i, j), (i2, j2) = f[u], f[v]
        if abs(i - i2) > 1:
            return f"edge ({u},{v}) spans blocks {i},{i2}"
        if j == j2:
            return f"edge ({u},{v}) lands in one colour {j}"
        if u not in B and v not in B and i != i2:
            return f"edge ({u},{v}) off B spans blocks {i},{i2}"
        if not z_rule_edge(i, j, i2, j2, ell):
            return f"edge ({u},{v}) maps outside the template: {(i, j)}-{(i2, j2)}"

    # prefix pinning
    for pos in range(min(W, n)):
        x = order[pos]
        if f[x] != (1, Hb.colouring[x]):
            return f"prefix vertex {x} maps to {f[x]}"
    return ""


# -- framework trail -------------------------------------------------------


@dataclass(frozen=True)
class FrameworkTrail:
    """A power-2r trail in the reduced graph whose blocks cover the
    exceptional vertices' candidate sets, ending at the anchor clique."""

    r: int
    sequence: tuple[int, ...]
    K: int
    block_map: dict[int, tuple[int, ...]]  # block index -> exceptional vertices
    multiplicity: dict[int, int]

    @property
    def t(self) -> int:
        return len(self.sequence)

    def block_vertices(self, k: int) -> tuple[int, ...]:
        """Trail vertices of the k-th block (1-based), the 2r-clique."""
        start = 8 * (k - 1) * self.r
        return self.sequence[start : start + 2 * self.r]


def build_framework(
    R: DenseGraph,
    V0_requirements: dict[int, set[int]],
    b: tuple[int, ...],
    eta: float,
    rho: float = 0.05,
    d: float = 0.3,
    group_cap: int | None = None,
    appearance_cap: int | None = None,
    extend_s: int = 0,
    seed: int = 0,
) -> FrameworkTrail:
    """Build the covering trail: one extendable 2r-clique per exceptional
    group, threaded by power-2r connectors that dodge overused vertices,
    ending with a connector into the anchor clique b.

    Hypotheses checked: candidate sets of size >= eta*L, sampled local
    density plus minimum degree (1/2+eta)L on R, and b sitting inside a
    clique twice its size.  The emitted trail is validated as a power-2r
    trail and the four structural properties are re-checked.
    """
    r = len(b)
    L = R.n
    if not R.is_clique(b):
        raise HypothesisViolation("anchor", "b must span a clique")
    for v, nv in V0_requirements.items():
        if len(nv) < eta * L:
            raise HypothesisViolation(
                "candidate-set", f"|N_v| = {len(nv)} < eta*L for vertex {v}"
            )
    if not is_locally_dense_sampled(R, DensityParams(rho, d), trials=200, seed=seed):
        raise HypothesisViolation("reduced-density", "R fails sampled local density")
    if R.min_degree() < (0.5 + eta) * L:
        raise HypothesisViolation(
            "reduced-degree", f"delta(R) = {R.min_degree()} < (1/2+eta)L"
        )
    if group_cap is None:
        # the asymptotic per-group cap sqrt(eps)*m/L^(2r-1) is vacuous at desk
        # scale; by default let a block serve every vertex it covers
        group_cap = max(1, len(V0_requirements))
    # assign each exceptional vertex to the first extendable block inside N_v,
    # preferring blocks disjoint from previous picks and from the anchor
    # (trail revisits are legal but disjointness keeps the connectors simple)
    blocks: list[tuple[int, ...]] = []
    groups: dict[int, list[int]] = {}
    used_blocks = mask_of(b)
    for v in sorted(V0_requirements):
        nv_mask = mask_of(V0_requirements[v])
        placed = False
        for k, blk in enumerate(blocks):
            if len(groups[k]) < group_cap and mask_of(blk) & ~nv_mask == 0:
                groups[k].append(v)
                placed = True
                break
        if not placed:
            got = enumerate_extendable_cliques(
                R, 2 * r, s=extend_s, cap=1, within=nv_mask & ~used_blocks
            ) or enumerate_extendable_cliques(
                R, 2 * r, s=extend_s, cap=1, within=nv_mask & ~mask_of(b)
            )
            if not got:
                raise StageFailure(
                    "no-covering-clique",
                    f"no K_{2 * r} inside the candidate set "
                    f"of exceptional vertex {v} (avoiding the anchor)",
                )
            blocks.append(got[0].vertices)
            used_blocks |= mask_of(got[0].vertices)
            groups[len(blocks) - 1] = [v]
    K = len(blocks)

    # r extra anchor companions so the final connection targets a 2r-clique
    b_prime = find_clique(
        R, r, within=R.common_neighborhood(b) & ~used_blocks
    )
    if b_prime is None:
        raise HypothesisViolation(
            "anchor", "b does not extend to a 2r-clique clear of the blocks"
        )

    if appearance_cap is None:
        appearance_cap = max(4, L)
    multiplicity: dict[int, int] = {}

    def bump(vs) -> None:
        for a in vs:
            multiplicity[a] = multiplicity.get(a, 0) + 1

    def bad_set() -> list[int]:
        return [a for a, c in multiplicity.items() if c >= appearance_cap]

    sequence: list[int] = []
    for k in range(K):
        sequence.extend(blocks[k])
        bump(blocks[k])
        target = blocks[k + 1] if k + 1 < K else tuple(sorted(set(b) | set(b_prime)))
        try:
            conn = connect_cliques(
                R,
                list(blocks[k]),
                list(target),
                sorted(set(bad_set()) - set(blocks[k]) - set(target)),
                r=2 * r,
                eta=eta,
                seed=f"framework:{seed}:{k}",
            )
        except StageFailure as exc:
            raise StageFailure("framework", f"connector {k}: {exc}") from exc
        sequence.extend(conn.vertices)
        bump(conn.vertices)
    sequence.extend(b)
    bump(b)

    trail = FrameworkTrail(
        r=r,
        sequence=tuple(sequence),
        K=K,
        block_map={k + 1: tuple(groups[k]) for k in range(K)},
        multiplicity=multiplicity,
    )
    report = check_framework(R, trail, V0_requirements, b, appearance_cap)
    if report:
        raise StageFailure("framework", "failed verification: " + report)
    return trail


def check_framework(
    R: DenseGraph,
    F: FrameworkTrail,
    V0_requirements: dict[int, set[int]],
    b: tuple[int, ...],
    appearance_cap: int,
) -> str:
    r = F.r
    if F.t != (8 * F.K + 1) * r:
        return f"trail length {F.t} != (8K+1)r"
    w = WitnessSequence(F.sequence, "trail", 2 * r)
    res = validate_witness(R, w)
    if not res:
        return f"trail invalid: {res.reason}"
    covered: set[int] = set()
    for k, vs in F.block_map.items():
        blk = set(F.block_vertices(k))
        for v in vs:
            if v in covered:
                return f"exceptional vertex {v} grouped twice"
            covered.add(v)
            if not blk <= V0_requirements[v]:
                return f"block {k} outside the candidate set of {v}"
    if covered != set(V0_requirements):
        return "exceptional vertices not fully grouped"
    if F.sequence[-r:] != tuple(b):
        return "trail does not end at the anchor clique"
    for a, c in F.multiplicity.items():
        if c > appearance_cap:
            return f"vertex {a} appears {c} > cap {appearance_cap}"
    return ""


# -- 2-independent sets and the special assignment ---------------------------


def find_2_independent(
    H: DenseGraph,
    order: tuple[int, ...],
    window: tuple[int, int],
    k: int,
    margin: int = 0,
) -> list[int]:
    """Greedily pick k vertices of the order-window, pairwise at distance >= 3
    in H, keeping ``margin`` positions clear at both window ends.

    The exclusion argument: each chosen vertex rules out itself, its
    neighbours and their neighbours; infeasibility is reported when the
    window cannot host k such vertices.  The result is rechecked by BFS.
    """
    lo, hi = window
    lo += margin
    hi -= margin
    chosen: list[int] = []
    excluded: set[int] = set()
    for pos in range(lo, hi):
        x = order[pos]
        if x in excluded:
            continue
        chosen.append(x)
        if len(chosen) == k:
            break
        ball = {x} | set(H.neighbors(x))
        for y in set(ball):
            ball |= set(H.neighbors(y))
        excluded |= ball
    if len(chosen) < k:
        raise StageFailure(
            "2-independent",
            f"infeasible: window of {max(0, hi - lo)} positions holds only "
            f"{len(chosen)} of {k} requested 2-independent vertices"
        )
    for i, x in enumerate(chosen):
        dist = H.bfs_distances(x)
        for y in chosen[i + 1 :]:
            if dist[y] != -1 and dist[y] < 3:
                raise StageFailure("2-independent", f"recheck failed at ({x},{y})")
    return chosen


@dataclass
class SpecialAssignment:
    """f maps each prefix vertex to a reduced-graph vertex or ("V0", host id)."""

    f: tuple[int | V0Target, ...]
    I: tuple[int, ...]
    W_v: dict[int, tuple[int, ...]]  # exceptional host vertex -> its H-neighbours
    loads: dict[int, int]
    report: dict[str, float] = field(default_factory=dict)


def special_assignment(
    Hprefix: BandwidthedH,
    F: FrameworkTrail,
    R: DenseGraph,
    V0_requirements: dict[int, set[int]],
    W_amb: int,
    load_cap: float | None = None,
) -> SpecialAssignment:
    """Map the prefix of H onto the framework trail, reserving a
    2-independent set I that lands bijectively on the exceptional set.

    The prefix splits into 8K width-b intervals plus a final width-W_amb
    tail.  Inside each first-of-eight interval a 2-independent set of the
    group's size is chosen; everything else follows the trail homomorphism
    x -> a_{(8(i-1)+(j-1))r + chi(x)}.  The five output properties are
    recomputed from scratch before returning; the asymptotic width and load
    forms are reported, the exact greedy feasibility bound is enforced.
    """
    H, order, chi = Hprefix.H, Hprefix.order.order, Hprefix.colouring
    n_pref = H.n
    r = F.r
    K = F.K
    if K == 0:
        raise StageFailure("special-assignment", "framework has no blocks; nothing to cover")
    if (n_pref - W_amb) % (8 * K) != 0:
        raise StageFailure(
            "special-assignment",
            f"prefix size {n_pref} minus tail {W_amb} must divide into 8K={8 * K} intervals",
        )
    b_width = (n_pref - W_amb) // (8 * K)
    max_group = max(len(F.block_map[k]) for k in F.block_map)
    delta_h = max((H.degree(v) for v in range(n_pref)), default=0)
    need = 4 * W_amb + 2 * delta_h * delta_h * max_group + 1
    if b_width < need:
        raise StageFailure(
            "interval-too-small",
            f"width {b_width} < {need} (= 4*beta_n + 2*Delta^2*max|V0_group| + 1)",
        )
    if b_width < W_amb:
        raise StageFailure("interval-too-small", "width below the bandwidth window")

    # trail position (1-based) per vertex via the interval layout
    phi_pos: list[int] = [0] * n_pref
    for i in range(1, K + 1):
        for j in range(1, 9):
            lo = ((i - 1) * 8 + (j - 1)) * b_width
            for pos in range(lo, lo + b_width):
                x = order[pos]
                phi_pos[x] = (8 * (i - 1) + (j - 1)) * r + chi[x]
    for pos in range(8 * K * b_width, n_pref):
        x = order[pos]
        phi_pos[x] = 8 * K * r + chi[x]

    I: list[int] = []
    g: dict[int, int] = {}
    for i in range(1, K + 1):
        group = F.block_map.get(i, ())
        if not group:
            continue
        lo = (i - 1) * 8 * b_width
        picked = find_2_independent(
            H, order, (lo, lo + b_width), len(group), margin=2 * W_amb
        )
        for x, v in zip(picked, sorted(group)):
            g[x] = v
        I.extend(picked)

    f: list[int | V0Target] = [0] * n_pref
    loads: dict[int, int] = {}
    for x in range(n_pref):
        if x in g:
            f[x] = ("V0", g[x])
        else:
            a = F.sequence[phi_pos[x] - 1]
            f[x] = a
            loads[a] = loads.get(a, 0) + 1

    W_v: dict[int, tuple[int, ...]] = {}
    for x, v in g.items():
        W_v[v] = tuple(sorted(H.neighbors(x)))

    out = SpecialAssignment(tuple(f), tuple(sorted(I)), W_v, loads)
    out.report["b_width"] = b_width
    out.report["K"] = K
    out.report["max_load"] = max(loads.values(), default=0)
    if load_cap is not None:
        out.report["load_cap"] = load_cap
        if out.report["max_load"] > load_cap:
            raise StageFailure(
                "load", f"per-vertex load {out.report['max_load']} exceeds cap {load_cap}"
            )
    problem = check_special_assignment(
        Hprefix, F, R, V0_requirements, W_amb, out
    )
    if problem:
        raise StageFailure("special-assignment", "failed verification: " + problem)
    return out


def check_special_assignment(
    Hprefix: BandwidthedH,
    F: FrameworkTrail,
    R: DenseGraph,
    V0_requirements: dict[int, set[int]],
    W_amb: int,
    out: SpecialAssignment,
) -> str:
    """Recompute the five promised properties from scratch; empty = pass."""
    H, order, chi = Hprefix.H, Hprefix.order.order, Hprefix.colouring
    n_pref = H.n
    f = out.f
    # bijection between I and the exceptional set
    image = {}
    for x in out.I:
        val = f[x]
        if not (isinstance(val, tuple) and val[0] == "V0"):
            return f"I vertex {x} not mapped to V0"
        if val[1] in image:
            return f"exceptional vertex {val[1]} hit twice"
        image[val[1]] = x
    if set(image) != set(V0_requirements):
        return "I does not map onto the exceptional set"
    # I inside X (not the tail) and 2-independent
    tail = set(order[n_pref - W_amb :])
    if set(out.I) & tail:
        return "I reaches into the tail"
    for i, x in enumerate(out.I):
        dist = H.bfs_distances(x)
        for y in out.I[i + 1 :]:
            if dist[y] != -1 and dist[y] < 3:
                return f"I not 2-independent at ({x},{y})"
    # neighbour sets land inside the candidate sets
    for v, wv in out.W_v.items():
        for w in wv:
            if w in tail:
                return f"W_v of {v} reaches the tail"
            if isinstance(f[w], tuple):
                return f"W_v vertex {w} mapped to V0"
            if f[w] not in V0_requirements[v]:
                return f"f(W_v) leaves the candidate set of {v}"
    # homomorphism off V0
    for u, v in H.edges():
        fu, fv = f[u], f[v]
        if isinstance(fu, tuple) or isinstance(fv, tuple):
            continue
        if fu == fv or not R.has_edge(fu, fv):
            return f"edge ({u},{v}) maps to non-edge ({fu},{fv}) of R"
    # tail pinned to the anchor clique
    anchor = F.sequence[-F.r :]
    for x in tail:
        if f[x] != anchor[chi[x] - 1]:
            return f"tail vertex {x} not pinned to the anchor"
    return ""
