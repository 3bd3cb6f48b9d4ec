"""End-to-end spanning embedding: partition the host, find a power cycle in
the reduced graph, refine to superregular blocks, assign H onto the cells,
rebalance cluster sizes to the exact demands, and embed in three stages.

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
    phi_bijection,
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
    mask_of,
    validate_witness,
)
from .hampower import HamConfig, find_hamilton_power
from .hpartition import (
    basic_assignment,
    build_framework,
    interval_width,
    special_assignment,
)
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
        cluster_of = {v: (v,) for v in range(n)}
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
    uncovered = [clusters_list[rv] for rv in range(L) if rv not in set(cycle)]
    extra_exceptional = [v for cl in uncovered for v in cl]

    refine_eps = min(0.01, eps)
    try:
        refined_per_block: dict[tuple[int, int], list[int]] = {}
        Rblock = DenseGraph.complete(4 * r)
        for i in range(1, ell + 1):
            block_cells = [(i, j) for j in range(1, 4 * r + 1)]
            block_clusters = [list(cell_cluster[c]) for c in block_cells]
            refined = refine_to_superregular(
                pure, block_clusters, Rblock, refine_eps, delta, verify=False
            )
            for c, vs in zip(block_cells, refined):
                refined_per_block[c] = list(vs)
    except InsufficientVertices as exc:
        raise StageFailure("refine", str(exc), violated="refine") from exc
    audit.stage("refine")

    m = len(next(iter(refined_per_block.values())))
    covered = set()
    for vs in refined_per_block.values():
        covered.update(vs)
    V0 = tuple(sorted(set(range(n)) - covered))
    audit.record(
        "V0-bound",
        len(V0) <= 2 * math.sqrt(max(eps, refine_eps)) * n + len(extra_exceptional),
        f"|V0|={len(V0)}",
    )
    audit.notes["V0"] = len(V0)
    audit.notes["m"] = m
    audit.notes["ell"] = ell

    struct = CycleStructure(
        ell=ell,
        r=4 * r,
        clusters={c: tuple(vs) for c, vs in refined_per_block.items()},
        exceptional=V0,
        eps=7 * max(eps, refine_eps) ** 0.25,
        delta=delta / 2,
        extra_edges=_extra_edges_from_cycle(reduced, cycle, ell, r),
    )

    # displayed inequality (beta): beta*n <= eps^2 * m / L
    audit.record(
        "(beta)",
        W <= eps * eps * m / max(L, 1),
        f"{W} vs {eps * eps * m / max(L, 1):.4f}",
    )

    # -- stage: framework + special assignment (exceptional coverage) ---------
    cell_index = {c: k for k, c in enumerate(sorted(struct.clusters))}
    index_cell = {k: c for c, k in cell_index.items()}
    Rstar = _reduced_star(struct, cell_index)
    c_floor = config.c
    psi_special: dict[int, object] = {}
    I_vertices: tuple[int, ...] = ()
    W_glue: dict[int, int] = {}  # H-vertex w -> host vertex psi(u) of its I-neighbour
    tau = {cell: 0 for cell in _post_cells(ell, r)}
    s_len = 0
    if V0:
        reqs: dict[int, set[int]] = {}
        for v in V0:
            nv = {
                cell_index[c]
                for c in struct.clusters
                if G.degree_into(v, mask_of(struct.clusters[c])) >= c_floor * m
            }
            reqs[v] = nv
        if reqs:
            min_req = min(len(x) for x in reqs.values())
            audit.record(
                "(dalpha)",
                min_req >= len(cell_index) / 2,
                f"min |N^c| = {min_req} vs {len(cell_index) / 2:.1f}",
            )
        anchor = tuple(
            cell_index[phi_inverse(1, b, 2 * r, ell)] for b in range(1, 2 * r + 1)
        )
        try:
            F = build_framework(Rstar, reqs, anchor, eta=eta / 3, seed=seed)
        except StageFailure as exc:
            raise StageFailure("special-assignment", str(exc), violated=exc.stage) from exc
        delta_h = max(Hb.H.degree(v) for v in range(n))
        max_group = max(len(vs) for vs in F.block_map.values()) if F.block_map else 0
        b_width = 4 * W + 2 * delta_h * delta_h * max_group + 1
        s_len = 8 * F.K * b_width
        audit.record(
            "(seq)", s_len <= eps ** (1 / 9) * n, f"s={s_len} vs {eps ** (1 / 9) * n:.1f}"
        )
        audit.record(
            "(15sizes)", b_width > 99 * beta * n, f"b={b_width} vs {99 * beta * n:.1f}"
        )
        prefix_ids = list(Hb.order.order[: s_len + W])
        if s_len + W > n:
            raise StageFailure(
                "special-assignment",
                f"prefix {s_len + W} exceeds |H| = {n}",
                violated="(seq)",
            )
        Hpref_graph, _ = Hb.H.induced(prefix_ids)
        Hpref = BandwidthedH(
            Hpref_graph,
            identity_labelling(len(prefix_ids)),
            tuple(Hb.colouring[v] for v in prefix_ids),
            W / len(prefix_ids),
        )
        try:
            sp = special_assignment(Hpref, F, Rstar, reqs, W)
        except StageFailure as exc:
            raise StageFailure("special-assignment", str(exc), violated=exc.stage) from exc
        for local, val in enumerate(sp.f):
            orig = prefix_ids[local]
            psi_special[orig] = val
        I_vertices = tuple(prefix_ids[x] for x in sp.I)
        for v0_vertex, wv in sp.W_v.items():
            for w_local in wv:
                W_glue[prefix_ids[w_local]] = v0_vertex
        audit.record(
            "(D3)",
            sp.report["max_load"] <= eps ** (1 / 9) * m,
            f"{sp.report['max_load']} vs {eps ** (1 / 9) * m:.2f}",
        )
        for orig in prefix_ids[: s_len]:
            val = psi_special[orig]
            if isinstance(val, tuple):
                continue
            tau[phi_bijection(*index_cell[val], 2 * r, ell)] += 1
        audit.stage("special-assignment")
    else:
        audit.notes["special"] = "skipped: empty exceptional set"
        audit.stage("special-assignment")

    # -- stage: lemma for G, phase 1 ----------------------------------------
    sub_ids = sorted(covered)
    G_sub, sub_list = G.induced(sub_ids)
    to_sub = {v: k for k, v in enumerate(sub_list)}
    # lemma_g's drift bound eps*m must leave room for moves at desk-scale m:
    # a cell on an augmenting path drifts by 2, and m = 6 gives eps = 0.9,
    # a drift of at most 5 per cell
    eps_balance = min(0.9, max(refine_eps, 8 / m))
    struct_sub = CycleStructure(
        ell=ell,
        r=4 * r,
        clusters={
            c: tuple(sorted(to_sub[v] for v in vs))
            for c, vs in struct.clusters.items()
        },
        exceptional=(),
        eps=eps_balance,
        delta=delta / 2,
        extra_edges=struct.extra_edges,
    )
    try:
        phase1 = lemma_g(G_sub, struct_sub, tau)
    except BalanceError as exc:
        raise StageFailure("lemma-g", str(exc), violated="lemma-g") from exc
    m_ab = phase1.m_ab
    audit.stage("lemma-g-sizes")

    # -- stage: basic assignment on the suffix -------------------------------
    suffix_ids = list(Hb.order.order[s_len:])
    audit.record(
        "(mab)",
        sum(m_ab.values()) == len(suffix_ids),
        f"{sum(m_ab.values())} vs |Z| = {len(suffix_ids)}",
    )
    Hsuf_graph, _ = Hb.H.induced(suffix_ids)
    Hsuf = BandwidthedH(
        Hsuf_graph,
        identity_labelling(len(suffix_ids)),
        tuple(Hb.colouring[v] for v in suffix_ids),
        W / len(suffix_ids),
    )
    try:
        asg = basic_assignment(
            Hsuf,
            {cell: m_ab[cell] for cell in m_ab},
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
        phase2 = lemma_g(G_sub, struct_sub, tau, targets=n_ab)
    except BalanceError as exc:
        raise StageFailure("lemma-g", str(exc), violated="lemma-g") from exc
    X_cells = {
        cell: tuple(sub_list[v] for v in vs) for cell, vs in phase2.X.items()
    }
    original = {
        cell: set(struct.clusters[phi_inverse(*cell, 2 * r, ell)]) for cell in X_cells
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

    # -- stage 1: exceptional vertices ---------------------------------------
    g1 = {u: psi_special[u][1] for u in I_vertices}

    # -- combined guide psi ----------------------------------------------------
    psi: dict[int, tuple[int, int]] = {}
    for local, orig in enumerate(suffix_ids):
        psi[orig] = asg.f[local]
    B_set = {suffix_ids[x] for x in asg.B}
    for orig, val in psi_special.items():
        if isinstance(val, tuple):
            continue  # I-vertex
        psi[orig] = phi_bijection(*index_cell[val], 2 * r, ell)

    X_prime = sorted(
        (set(psi_special) - set(I_vertices)) | B_set,
        key={v: k for k, v in enumerate(Hb.order.order)}.get,
    )
    N_boundary = sorted(
        {
            y
            for x in X_prime
            for y in Hb.H.neighbors(x)
            if y not in set(X_prime) and y not in set(I_vertices)
        }
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
        <= max(eps, refine_eps) ** (1 / 12) * m + len(B_set),
        "",
    )

    # -- stage 2: embed X' with target sets ---------------------------------
    S_w: dict[int, set[int]] = {}
    for w, host_u in W_glue.items():
        cellw = psi[w]
        S_w[w] = {
            gv for gv in X_cells[cellw] if G.has_edge(gv, host_u)
        }
    try:
        part = embed_with_targets(
            G,
            Hb.H,
            X_prime,
            psi,
            X_cells,
            Y=N_boundary,
            S_w=S_w,
            c=config.c / 2,
            node_budget=config.blowup_budget,
            seed=seed,
        )
    except StageFailure as exc:
        raise StageFailure("target-embedding", str(exc), violated=exc.stage) from exc
    g2 = part.mapping
    audit.stage("target-embedding")

    # -- stage 3: blow-up per block ------------------------------------------
    g3: dict[int, int] = {}
    placed_images = set(g1.values()) | set(g2.values())
    rest = [
        v
        for v in range(n)
        if v not in g1 and v not in g2 and v not in set(I_vertices)
    ]
    rest_set = set(rest)
    for a in range(1, 2 * ell + 1):
        block_vertices = [
            x for x in rest if x in psi and psi[x][0] == a
        ]
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

    mapping: dict[int, int] = {}
    mapping.update(g1)
    mapping.update(g2)
    mapping.update(g3)
    if len(mapping) != n or len(set(mapping.values())) != n:
        raise StageFailure(
            "assembly", f"assembled map covers {len(mapping)} of {n} vertices"
        )
    problem = verify_embedding(Hb.H, G, mapping)
    if problem:
        raise StageFailure("assembly", f"revalidation failed: {problem}")
    audit.stage("assembly")
    return mapping


def _post_cells(ell: int, r: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, 2 * ell + 1) for b in range(1, 2 * r + 1)]


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
    try:
        w = find_hamilton_power(
            reduced, q, n_target=n_cycle, seed=seed, config=config.ham_config
        )
        audit.notes["hamilton-power"] = "connecting-absorbing"
        return list(w.vertices)
    except StageFailure as exc:
        audit.notes["hamilton-power"] = f"pipeline failed ({exc.stage}); oracle fallback"
        first_failure = exc
    q_eff = min(q, (n_cycle - 1) // 2)
    template = cycle_power(q_eff, n_cycle)
    res = brute_force_embed(template, reduced, budget=config.oracle_budget)
    if res.status == "embedded":
        order = [res.mapping[k] for k in range(n_cycle)]
        check = validate_witness(
            reduced, WitnessSequence(tuple(order), "cycle", q_eff)
        )
        if not check:
            raise StageFailure(
                "hamilton-power", f"oracle cycle revalidation failed: {check.reason}"
            )
        return order
    raise StageFailure(
        "hamilton-power",
        f"pipeline ({first_failure.stage}: {first_failure.detail}) and oracle "
        f"({res.status}) both failed",
    )


def _extra_edges_from_cycle(
    reduced: DenseGraph, cycle: list[int], ell: int, r: int
) -> frozenset:
    """Reduced-graph edges among cycle cells beyond the template."""
    pos_cell = {}
    for idx, rv in enumerate(cycle):
        pos_cell[rv] = (idx // (4 * r) + 1, idx % (4 * r) + 1)
    extra = set()
    probe = CycleStructure(ell, 4 * r, {}, (), 0.5, 0.1)
    for k, u in enumerate(cycle):
        for v in cycle[k + 1 :]:
            if reduced.has_edge(u, v):
                c1, c2 = pos_cell[u], pos_cell[v]
                if not probe.reduced_has_edge(c1, c2):
                    extra.add(frozenset((c1, c2)))
    return frozenset(extra)


def _reduced_star(struct: CycleStructure, cell_index: dict) -> DenseGraph:
    """The relabelled reduced graph as a plain DenseGraph over cell indices."""
    cells = sorted(cell_index, key=cell_index.get)
    edges = []
    for a, c1 in enumerate(cells):
        for c2 in cells[a + 1 :]:
            if struct.reduced_has_edge(c1, c2):
                edges.append((cell_index[c1], cell_index[c2]))
    return DenseGraph.from_edges(len(cells), edges)


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
