"""End-to-end spanning embedding: partition the host, find a power cycle in
the reduced graph, refine to superregular blocks, refuse a non-empty
exceptional set, assign H onto the cells, rebalance cluster sizes to the
exact demands, and embed in two stages (target sets, then blow-up).

Every hypothesis check and displayed inequality is evaluated into an audit
(pass/fail with the computed quantities); the asymptotic displays are
physically false at desk scale, so they are recorded rather than enforced,
and the binding feasibility checks gate execution.  A failure is always
labelled with its stage and carries the first violated named inequality.
Successes are revalidated edge-by-edge before being reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .balance import (
    BalanceError,
    CycleStructure,
    lemma_g,
    phi_inverse,
)
from .constants import ConstantsHierarchy
from .density import DensityParams, is_locally_dense_sampled
from .embed import blowup_embed, embed_with_targets, brute_force_embed, verify_embedding
from .generators import BandwidthedH
from .graphs import (
    DenseGraph,
    StageFailure,
    WitnessSequence,
    bandwidth_of,
    cycle_power,
    identity_labelling,
    validate_witness,
)
from .hampower import HamConfig, find_hamilton_power
from .hpartition import basic_assignment, interval_width
from .regularity import (
    InsufficientVertices,
    heuristic_degree_form_partition,
    inheritance_check,
    refine_to_superregular,
)


@dataclass
class PipelineAudit:
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    stages: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = (bool(ok), detail)

    def stage(self, name: str) -> None:
        if name not in self.stages:
            self.stages.append(name)

    def first_violated(self) -> str | None:
        for name, (ok, _) in self.checks.items():
            if not ok:
                return name
        return None


@dataclass
class EmbeddingResult:
    mapping: dict[int, int] | None
    audit: PipelineAudit
    failure_stage: str | None = None
    failure_detail: str = ""
    violated_display: str | None = None

    @property
    def success(self) -> bool:
        return self.mapping is not None

    def __bool__(self) -> bool:
        return self.success


@dataclass
class PipelineConfig:
    min_cluster: int = 6
    eps: float = 0.02
    delta: float = 0.25
    c: float = 0.2
    relax_target_floor: bool = True
    ham_config: HamConfig | None = None
    oracle_budget: int = 3_000_000
    blowup_budget: int = 6_000_000


def run_main_pipeline(
    G: DenseGraph,
    Hb: BandwidthedH,
    constants: ConstantsHierarchy | None = None,
    seed: int = 0,
    config: PipelineConfig | None = None,
) -> EmbeddingResult:
    """Orchestrate the full embedding of Hb into G; returns a result whose
    failures are stage-labelled and cite a named violated inequality."""
    config = config or PipelineConfig()
    audit = PipelineAudit()
    try:
        mapping = _pipeline(G, Hb, constants, seed, config, audit)
        return EmbeddingResult(mapping, audit)
    except StageFailure as exc:
        violated = exc.violated or audit.first_violated() or exc.stage
        return EmbeddingResult(
            None,
            audit,
            failure_stage=exc.stage,
            failure_detail=exc.detail,
            violated_display=violated,
        )


def _pipeline(
    G: DenseGraph,
    Hb: BandwidthedH,
    constants: ConstantsHierarchy | None,
    seed: int,
    config: PipelineConfig,
    audit: PipelineAudit,
) -> dict[int, int]:
    n = G.n
    if Hb.n != n:
        raise StageFailure("precheck", f"|H| = {Hb.n} != |G| = {n}")
    r = Hb.num_colours()
    eta = constants.get("eta", 0.2) if constants else 0.2
    d = constants.get("d", 0.3) if constants else 0.3
    rho = constants.get("rho", 0.05) if constants else 0.05
    eps = config.eps
    delta = config.delta
    beta = Hb.beta
    W = interval_width(beta, n)
    audit.notes["r"] = r
    audit.notes["beta_n"] = W

    # -- advisory prechecks --------------------------------------------------
    dense = is_locally_dense_sampled(G, DensityParams(rho, d), trials=300, seed=seed)
    audit.record("locally-dense-sampled", bool(dense), f"witness={dense.witness is not None}")
    audit.record(
        "min-degree",
        G.min_degree() >= (0.5 + eta) * n,
        f"{G.min_degree()} vs {(0.5 + eta) * n:.1f}",
    )

    # -- stage: partition -----------------------------------------------------
    ell = max(2, n // (4 * r * config.min_cluster))
    L_target = 4 * r * ell  # ell >= 2 blocks of 4r clusters
    degenerate = L_target > n or n // L_target < config.min_cluster
    if degenerate:
        # singleton clusters: the reduced graph is the host itself
        audit.notes["partition"] = "degenerate-singleton"
        reduced = G
        clusters_list = [(v,) for v in range(n)]
        exceptional: tuple[int, ...] = ()
        pure = G
        audit.stage("partition")
    else:
        partition, pure, reduced, _ = heuristic_degree_form_partition(
            G, delta=delta, L_min=L_target, seed=seed
        )
        clusters_list = [tuple(c) for c in partition.clusters]
        exceptional = tuple(partition.exceptional)
        audit.stage("partition")
        audit.record(
            "exceptional-bound",
            len(exceptional) <= 2 * math.sqrt(eps) * n,
            f"{len(exceptional)} vs {2 * math.sqrt(eps) * n:.1f}",
        )
        inh = inheritance_check(
            reduced, rho=rho, d=d, delta=delta, eta=eta
        ) if reduced.n <= 22 else None
        if inh is not None:
            audit.record("inheritance-density", inh.density_pass)
            audit.record("inheritance-degree", inh.min_degree_pass)
        else:
            audit.record(
                "inheritance-degree",
                reduced.min_degree() >= (0.5 + eta / 2) * reduced.n,
                f"{reduced.min_degree()} vs {(0.5 + eta / 2) * reduced.n:.1f}",
            )
        audit.stage("inheritance")

    # -- stage: power cycle in the reduced graph ------------------------------
    L = reduced.n
    # the direct singleton embedding needs only a bandwidth-th power (at
    # least a Hamilton cycle, also for an edgeless H)
    q = max(1, bandwidth_of(Hb.H, Hb.order)) if degenerate else 4 * r - 1
    r_star_formula = 324 * r / (eta * eta)
    audit.record(
        "r-star-cap",
        q + 1 <= r_star_formula,
        f"using r*={q + 1}, formula gives {r_star_formula:.0f}",
    )
    ell_eff = L // (4 * r)
    if degenerate:
        n_cycle = L  # singleton clusters: span the whole host directly
    elif ell_eff < 2:
        raise StageFailure(
            "hamilton-power", f"reduced graph has {L} < {8 * r} vertices"
        )
    else:
        n_cycle = 4 * r * ell_eff
    cycle = _reduced_power_cycle(reduced, q, n_cycle, seed, config, audit)
    audit.stage("hamilton-power")

    if degenerate:
        # at singleton scale the cycle itself is the final object only when
        # H is a subgraph of the power cycle; continue with a direct embed
        return _degenerate_embed(G, Hb, cycle, q, audit)

    # -- stage: refine to superregular blocks --------------------------------
    ell = ell_eff
    cell_cluster: dict[tuple[int, int], tuple[int, ...]] = {}
    for idx, rv in enumerate(cycle):
        i, j = idx // (4 * r) + 1, idx % (4 * r) + 1
        cell_cluster[(i, j)] = clusters_list[rv]
    off_cycle = set(range(L)) - set(cycle)

    # one refinement over all cells with R = ell disjoint K_{4r}, so that a
    # failing vertex may be swapped into another block
    refine_eps = min(0.01, eps)
    cells = list(cell_cluster)
    block = (1 << (4 * r)) - 1
    R_blocks = DenseGraph(
        len(cells),
        [(block << (x - x % (4 * r))) ^ (1 << x) for x in range(len(cells))],
        check=False,
    )
    try:
        refined_list = refine_to_superregular(
            pure,
            [list(cell_cluster[c]) for c in cells],
            R_blocks,
            refine_eps,
            delta,
            verify=False,
        )
    except InsufficientVertices as exc:
        raise StageFailure("refine", str(exc), violated="refine") from exc
    refined = dict(zip(cells, map(tuple, refined_list)))
    audit.stage("refine")

    m = len(next(iter(refined.values())))
    V0 = n - sum(len(vs) for vs in refined.values())
    audit.notes["V0"] = V0
    audit.notes["m"] = m
    audit.notes["ell"] = ell

    # -- stage: exceptional vertices -----------------------------------------
    # the paper covers a non-empty V0 by a framework and a special assignment
    # of an H-prefix; at desk scale that prefix is longer than H itself, and
    # no measured run has embedded through it (ROADMAP item 3), so V0 must
    # be empty here
    if V0:
        off = len(off_cycle) * len(clusters_list[0])
        raise StageFailure(
            "exceptional",
            f"|V0| = {V0}: {len(exceptional)} from the n mod L remainder, "
            f"{off} from {len(off_cycle)} clusters off the power cycle, "
            f"{V0 - len(exceptional) - off} dropped by refine",
            violated="exceptional",
        )

    # displayed inequality (beta): beta*n <= eps^2 * m / L
    audit.record(
        "(beta)",
        W <= eps * eps * m / max(L, 1),
        f"{W} vs {eps * eps * m / max(L, 1):.4f}",
    )

    # -- stage: lemma for G, phase 1 ----------------------------------------
    # lemma_g's drift bound eps*m must leave room for moves at desk-scale m:
    # a cell on an augmenting path drifts by 2, and m = 6 gives eps = 0.9,
    # a drift of at most 5 per cell.  While m <= 8 this puts the valid-move
    # threshold (delta/2 - 2*eps)*m below 0, so phase 2 checks no degree
    eps_balance = min(0.9, max(refine_eps, 8 / m))
    audit.notes["lemma-g-move-threshold"] = (delta / 2 - 2 * eps_balance) * m
    struct = CycleStructure(
        ell=ell,
        r=4 * r,
        clusters=refined,
        exceptional=(),
        eps=eps_balance,
        delta=delta / 2,
    )
    try:
        phase1 = lemma_g(G, struct)
    except BalanceError as exc:
        raise StageFailure("lemma-g", str(exc), violated="lemma-g") from exc
    m_ab = phase1.m_ab
    audit.stage("lemma-g-sizes")

    # -- stage: basic assignment of H in its bandwidth order ------------------
    order = list(Hb.order.order)
    H_in_order_graph, _ = Hb.H.induced(order)
    H_in_order = BandwidthedH(
        H_in_order_graph,
        identity_labelling(n),
        tuple(Hb.colouring[v] for v in order),
        W / n,
    )
    try:
        asg = basic_assignment(
            H_in_order,
            dict(m_ab),
            ell=2 * ell,
            r=r,
            relax_floor=config.relax_target_floor,
        )
    except StageFailure as exc:
        raise StageFailure("basic-assignment", str(exc), violated=exc.stage) from exc
    audit.stage("basic-assignment")
    n_ab = {cell: asg.tallies.get(cell, 0) for cell in m_ab}
    dev = max(abs(n_ab[cellx] - m_ab[cellx]) for cellx in m_ab)
    audit.record("(B2)", dev <= 10 * beta * n + 1e-9, f"max dev {dev} vs {10 * beta * n:.1f}")

    # -- stage: lemma for G, phase 2 ----------------------------------------
    # displayed inequality (K): the proof's iteration budget, an asymptotic
    # display like (beta); the reallocation itself has no budget
    K = sum(abs(n_ab[cell] - m_ab[cell]) for cell in m_ab)
    audit.record("(K)", K <= eps_balance * m / 2, f"{K} vs {eps_balance * m / 2:.1f}")
    try:
        phase2 = lemma_g(G, struct, targets=n_ab)
    except BalanceError as exc:
        raise StageFailure("lemma-g", str(exc), violated="lemma-g") from exc
    X_cells = phase2.X
    original = {
        cell: set(refined[phi_inverse(*cell, 2 * r, ell)]) for cell in X_cells
    }
    audit.notes["lemma-g-moves"] = sum(
        len(set(X_cells[cell]) - original[cell]) for cell in X_cells
    )
    drift = max(len(set(X_cells[cell]) ^ original[cell]) for cell in X_cells)
    audit.record(
        "(Xprops)",
        drift <= max(refine_eps, 2 / m) ** (1 / 18) * m + 1e-9,
        f"max drift {drift}",
    )
    audit.stage("lemma-g-partition")

    # -- guide psi: the assignment's cell for every vertex of H ---------------
    psi = {orig: asg.f[local] for local, orig in enumerate(order)}
    X_prime = [order[x] for x in sorted(asg.B)]
    X_set = set(X_prime)
    N_boundary = sorted(
        {y for x in X_prime for y in Hb.H.neighbors(x) if y not in X_set}
    )
    audit.record(
        "(N)",
        len(N_boundary) <= max(eps, refine_eps) * m,
        f"{len(N_boundary)} vs {max(eps, refine_eps) * m:.2f}",
    )
    audit.record(
        "(psistar)",
        max(
            [sum(1 for x in X_prime if psi[x] == cell) for cell in m_ab] or [0]
        )
        <= max(eps, refine_eps) ** (1 / 12) * m + len(X_prime),
        "",
    )

    # -- stage: embed X' with target sets ------------------------------------
    try:
        part = embed_with_targets(
            G,
            Hb.H,
            X_prime,
            psi,
            X_cells,
            Y=N_boundary,
            c=config.c / 2,
            node_budget=config.blowup_budget,
            seed=seed,
        )
    except StageFailure as exc:
        raise StageFailure("target-embedding", str(exc), violated=exc.stage) from exc
    g2 = part.mapping
    audit.stage("target-embedding")

    # -- stage: blow-up per block ---------------------------------------------
    g3: dict[int, int] = {}
    placed_images = set(g2.values())
    rest = [v for v in range(n) if v not in g2]
    for a in range(1, 2 * ell + 1):
        block_vertices = [x for x in rest if psi[x][0] == a]
        if not block_vertices:
            continue
        U_cells = {}
        for b in range(1, 2 * r + 1):
            U_cells[(a, b)] = tuple(
                gv for gv in X_cells[(a, b)] if gv not in placed_images
            )
        demand: dict[tuple[int, int], int] = {}
        for x in block_vertices:
            demand[psi[x]] = demand.get(psi[x], 0) + 1
        for b in range(1, 2 * r + 1):
            cell = (a, b)
            need = demand.get(cell, 0)
            if need != len(U_cells[cell]):
                raise StageFailure(
                    "blow-up",
                    f"cell {cell} demand {need} != supply {len(U_cells[cell])}",
                    violated="(Xprops)",
                )
        Hblock_graph, block_list = Hb.H.induced(block_vertices)
        local_phi = {k: psi[block_list[k]] for k in range(len(block_list))}
        special = {}
        for k, orig in enumerate(block_list):
            if orig in part.candidate_sets or orig in N_boundary:
                cand = set(part.candidate_sets.get(orig, ()))
                cand &= set(U_cells[psi[orig]])
                if not cand:
                    raise StageFailure(
                        "blow-up", f"candidate set of boundary vertex {orig} died"
                    )
                special[k] = cand
        try:
            local_map = blowup_embed(
                G,
                Hblock_graph,
                local_phi,
                U_cells,
                special=special,
                alpha=1.0,
                node_budget=config.blowup_budget,
                seed=f"{seed}:block:{a}",
            )
        except StageFailure as exc:
            raise StageFailure("blow-up", f"block {a}: {exc}") from exc
        for k, gv in local_map.items():
            g3[block_list[k]] = gv
            placed_images.add(gv)
    audit.stage("blow-up")

    mapping = {**g2, **g3}
    if len(mapping) != n or len(set(mapping.values())) != n:
        raise StageFailure(
            "assembly", f"assembled map covers {len(mapping)} of {n} vertices"
        )
    problem = verify_embedding(Hb.H, G, mapping)
    if problem:
        raise StageFailure("assembly", f"revalidation failed: {problem}")
    audit.stage("assembly")
    return mapping


def _reduced_power_cycle(
    reduced: DenseGraph,
    q: int,
    n_cycle: int,
    seed: int,
    config: PipelineConfig,
    audit: PipelineAudit,
) -> list[int]:
    """Spanning power-q cycle on n_cycle reduced vertices: the absorbing
    pipeline when it fits, otherwise the exact oracle as a fallback."""
    q_eff = min(q, (n_cycle - 1) // 2)
    # every vertex of a q_eff-th power of a cycle has 2*q_eff neighbours on
    # it, so when the cycle must span R a vertex of smaller degree refuses
    # both routes at once
    if n_cycle == reduced.n and reduced.min_degree() < 2 * q_eff:
        audit.notes["hamilton-power"] = "refused: δ(R) < 2q"
        raise StageFailure(
            "hamilton-power",
            f"δ(R) = {reduced.min_degree()} < 2q = {2 * q_eff}: no spanning "
            f"power-{q_eff} cycle on {n_cycle} vertices",
            violated="hamilton-power",
        )
    try:
        w = find_hamilton_power(
            reduced, q, n_target=n_cycle, seed=seed, config=config.ham_config
        )
        audit.notes["hamilton-power"] = "connecting-absorbing"
        return list(w.vertices)
    except StageFailure as exc:
        audit.notes["hamilton-power"] = f"pipeline failed ({exc.stage}); oracle fallback"
        first_failure = exc
    template = cycle_power(q_eff, n_cycle)
    res = brute_force_embed(template, reduced, budget=config.oracle_budget)
    if res.status == "embedded":
        order = [res.mapping[k] for k in range(n_cycle)]
        check = validate_witness(
            reduced, WitnessSequence(tuple(order), "cycle", q_eff)
        )
        if not check:
            raise StageFailure(
                "hamilton-power",
                f"oracle cycle revalidation failed: {check.reason}",
                violated="hamilton-power",
            )
        return order
    raise StageFailure(
        "hamilton-power",
        f"pipeline ({first_failure.stage}: {first_failure.detail}) and oracle "
        f"({res.status}) both failed",
        violated="hamilton-power",
    )


def _degenerate_embed(
    G: DenseGraph,
    Hb: BandwidthedH,
    cycle: list[int],
    q: int,
    audit: PipelineAudit,
) -> dict[int, int]:
    """Singleton-cluster fallback: embed H along the power cycle directly."""
    n = G.n
    if len(cycle) < n:
        raise StageFailure(
            "hamilton-power", f"cycle covers {len(cycle)} < {n} vertices"
        )
    order = Hb.order.order
    pos = {v: k for k, v in enumerate(order)}
    bw = bandwidth_of(Hb.H, Hb.order)
    if bw > q:
        raise StageFailure(
            "blow-up", f"bandwidth {bw} exceeds the cycle power {q}"
        )
    mapping = {order[k]: cycle[k] for k in range(n)}
    problem = verify_embedding(Hb.H, G, mapping)
    if problem:
        raise StageFailure("assembly", f"revalidation failed: {problem}")
    audit.stage("assembly")
    return mapping
