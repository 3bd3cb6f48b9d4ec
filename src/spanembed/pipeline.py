"""End-to-end spanning embedding: partition the host, find a power cycle in
the reduced graph, refine to superregular blocks, refuse a non-empty
exceptional set, assign H onto the cells, rebalance cluster sizes to the
exact demands, and embed in two stages (target sets, then blow-up).

Every hypothesis check and displayed inequality is evaluated into an audit
(pass/fail with the computed quantities); the asymptotic displays are
physically false at desk scale, so they are recorded rather than enforced,
and the binding feasibility checks gate execution.  A failure is labelled
with its stage and with the label it was raised under: the pipeline's own
refusals name their stage or the inequality that gated them, and a library
refusal keeps the library's label.  Successes are revalidated edge-by-edge
before being reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .balance import lemma_g
from .embed import blowup_embed, embed_with_targets, power_cycle_oracle, verify_embedding
from .generators import BandwidthedH
from .graphs import DenseGraph, StageFailure, WitnessSequence, bandwidth_of, validate_witness
from .hampower import find_hamilton_power
from .hpartition import basic_assignment, interval_width
from .regularity import heuristic_degree_form_partition, refine_to_superregular

# Desk-scale constants.  The paper picks them from right to left
# (eps << d << eta); these values are the ones the stages are feasible at
# for a few hundred host vertices, where no such separation holds.
MIN_CLUSTER = 6  # the partition asks for clusters of at least this size
EPS = 0.02  # the eps of the displayed inequalities
REFINE_EPS = 0.01  # superregularity of the refined clusters
DELTA = 0.25  # a cluster pair of density below DELTA is sparse
C = 0.2  # target sets keep C/2 of a cluster as candidates
ORACLE_BUDGET = 3_000_000  # exact-search nodes for the reduced power cycle
BLOWUP_BUDGET = 6_000_000  # nodes of the target-set and blow-up searches


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


@dataclass
class EmbeddingResult:
    mapping: dict[int, int] | None
    audit: PipelineAudit
    failure_stage: str | None = None
    failure_detail: str = ""
    violated_display: str | None = None

    def __bool__(self) -> bool:
        return self.mapping is not None


def run_main_pipeline(
    G: DenseGraph,
    Hb: BandwidthedH,
    seed: int = 0,
) -> EmbeddingResult:
    """Orchestrate the full embedding of Hb into G; returns a result whose
    failures carry their stage and the label they were raised under."""
    audit = PipelineAudit()
    try:
        mapping = _pipeline(G, Hb, seed, audit)
        return EmbeddingResult(mapping, audit)
    except StageFailure as exc:
        return EmbeddingResult(
            None,
            audit,
            failure_stage=exc.stage,
            failure_detail=exc.detail,
            violated_display=exc.violated or exc.stage,
        )


def _pipeline(
    G: DenseGraph,
    Hb: BandwidthedH,
    seed: int,
    audit: PipelineAudit,
) -> dict[int, int]:
    n = G.n
    if Hb.n != n:
        raise StageFailure("precheck", f"|H| = {Hb.n} != |G| = {n}")
    r = max(1, Hb.num_colours())  # an H on no vertex has no colour
    beta = Hb.beta
    W = interval_width(beta, n)
    audit.notes["r"] = r
    audit.notes["beta_n"] = W

    # -- advisory precheck ---------------------------------------------------
    # the paper's threshold n/2 for a locally dense host, and the (1 - 1/r)n
    # that the bandwidth theorem of Böttcher-Schacht-Taraz (Math. Ann. 2009)
    # asks of every host
    min_deg_G = G.min_degree()
    audit.record("min-degree", min_deg_G >= n / 2, f"{min_deg_G} vs {n / 2:.1f}")
    audit.record(
        "chromatic-degree", min_deg_G >= (1 - 1 / r) * n, f"{min_deg_G} vs {(1 - 1 / r) * n:.1f}"
    )

    # -- stage: partition -----------------------------------------------------
    ell = max(2, n // (4 * r * MIN_CLUSTER))
    L_target = 4 * r * ell  # ell >= 2 blocks of 4r clusters
    degenerate = n // L_target < MIN_CLUSTER
    if degenerate:
        # singleton clusters: the reduced graph is the host itself
        audit.notes["partition"] = "degenerate-singleton"
        reduced, min_deg_R = G, min_deg_G
        audit.stage("partition")
    else:
        partition, reduced, degrees = heuristic_degree_form_partition(
            G, delta=DELTA, L_min=L_target, seed=seed
        )
        audit.stage("partition")
        min_deg_R = reduced.min_degree()
        audit.record(
            "inheritance-degree", min_deg_R >= reduced.n / 2, f"{min_deg_R} vs {reduced.n / 2:.1f}"
        )
        audit.stage("inheritance")

    # -- stage: power cycle in the reduced graph ------------------------------
    L = reduced.n
    # the direct singleton embedding needs only a bandwidth-th power (at
    # least a Hamilton cycle, also for an edgeless H)
    q = max(1, bandwidth_of(Hb.H, Hb.order)) if degenerate else 4 * r - 1
    cycle = _reduced_power_cycle(reduced, min_deg_R, q, seed, audit)
    audit.stage("hamilton-power")

    if degenerate:
        # at singleton scale the cycle itself is the final object only when
        # H is a subgraph of the power cycle; continue with a direct embed
        return _degenerate_embed(G, Hb, cycle, audit)

    # -- stage: refine to superregular blocks --------------------------------
    # R has exactly L_target clusters and its power cycle spans R; the
    # cycle's clusters in runs of 2r are the rows a of the template cells
    # (a,b) in [2ell] x [2r]; a block of 4r clusters is two rows
    cell_cluster: dict[tuple[int, int], tuple[int, ...]] = {}
    for idx, rv in enumerate(cycle):
        a, b = divmod(idx, 2 * r)
        cell_cluster[(a + 1, b + 1)] = partition.clusters[rv]

    # one refinement over all cells with R = ell disjoint K_{4r}, so that a
    # failing vertex may be swapped into another block; the cells follow
    # the cycle, so the partitioner's degree table goes in cycle order
    cells = list(cell_cluster)
    block = (1 << (4 * r)) - 1
    R_blocks = DenseGraph(
        len(cells),
        [(block << (x - x % (4 * r))) ^ (1 << x) for x in range(len(cells))],
        check=False,
    )
    clusters = [list(cell_cluster[c]) for c in cells]
    refined_list = refine_to_superregular(
        G, clusters, degrees[cycle], R_blocks, REFINE_EPS, DELTA
    )
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
    # no measured run has embedded through it (ROADMAP item 6, "Equitable
    # clusters and a re-homed V0"), so V0 must be empty here
    if V0:
        raise StageFailure(
            "exceptional",
            f"|V0| = {V0}: {len(partition.exceptional)} from the n mod L "
            f"remainder, {V0 - len(partition.exceptional)} dropped by refine",
        )

    # displayed inequality (beta): beta*n <= eps^2 * m / L
    audit.record(
        "(beta)",
        W <= EPS * EPS * m / max(L, 1),
        f"{W} vs {EPS * EPS * m / max(L, 1):.4f}",
    )

    # every cell starts at size m; lemma_g moves vertices to the demands of
    # the assignment below.  Its drift bound eps*m must leave room for moves
    # at desk-scale m: a cell on an augmenting path drifts by 2, and m = 6
    # gives eps = 0.9, a drift of at most 5 per cell.  For every m < 128,
    # where 8/m and so eps exceed delta/4, this puts the valid-move threshold
    # (delta/2 - 2*eps)*m below 0, so lemma_g checks no degree
    m_ab = {cell: m for cell in refined}
    eps_balance = min(0.9, max(REFINE_EPS, 8 / m))
    audit.notes["lemma-g-move-threshold"] = (DELTA / 2 - 2 * eps_balance) * m

    # -- stage: basic assignment of H in its bandwidth order ------------------
    try:
        asg = basic_assignment(Hb, m_ab)
    except StageFailure as exc:
        raise StageFailure("basic-assignment", str(exc), violated=exc.stage) from exc
    audit.stage("basic-assignment")
    n_ab = {cell: asg.tallies.get(cell, 0) for cell in m_ab}
    dev = max(abs(n_ab[cellx] - m_ab[cellx]) for cellx in m_ab)
    audit.record("(B2)", dev <= 10 * beta * n + 1e-9, f"max dev {dev} vs {10 * beta * n:.1f}")

    # -- stage: lemma for G ----------------------------------------------------
    # displayed inequality (K): the proof's iteration budget, an asymptotic
    # display like (beta); the reallocation itself has no budget
    K = sum(abs(n_ab[cell] - m_ab[cell]) for cell in m_ab)
    audit.record("(K)", K <= eps_balance * m / 2, f"{K} vs {eps_balance * m / 2:.1f}")
    X_cells = lemma_g(G, refined, n_ab, eps_balance, DELTA / 2)
    audit.notes["lemma-g-moves"] = sum(
        len(set(X_cells[cell]) - set(refined[cell])) for cell in X_cells
    )
    audit.stage("lemma-g-partition")

    # -- guide psi: the assignment's cell for every vertex of H ---------------
    psi = asg.f
    X_prime = sorted(asg.B, key=Hb.order.positions().__getitem__)
    X_set = set(X_prime)
    N_boundary = sorted(
        {y for x in X_prime for y in Hb.H.neighbors(x) if y not in X_set}
    )
    audit.record(
        "(N)",
        len(N_boundary) <= EPS * m,
        f"{len(N_boundary)} vs {EPS * m:.2f}",
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
            c=C / 2,
            node_budget=BLOWUP_BUDGET,
            seed=seed,
        )
    except StageFailure as exc:
        audit.notes["target-nodes"] = exc.nodes
        raise StageFailure("target-embedding", str(exc), violated=exc.stage) from exc
    g2 = part.mapping
    audit.notes["target-nodes"] = part.nodes
    audit.stage("target-embedding")

    # -- stage: blow-up per block ---------------------------------------------
    # each block embeds its own vertices of H into the unplaced part of the
    # cells of row a of the template.  Cells are disjoint, lemma_g sized
    # each to its demand, and embed_with_targets placed every x of X' in its
    # own cell, so supply meets demand cell by cell; a boundary vertex keeps
    # the candidate set its embedded neighbours left it, which lies in the
    # unplaced part of its cell.  The blow-up's load check and the
    # assembly's checks below certify the result
    placed_images = set(g2.values())
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        if x not in g2:
            blocks.setdefault(psi[x][0], []).append(x)
    g3: dict[int, int] = {}
    audit.notes["blowup-nodes"] = 0  # summed over the blocks
    for a, block in sorted(blocks.items()):
        U_cells = {}
        for b in range(1, 2 * r + 1):
            U_cells[(a, b)] = tuple(
                gv for gv in X_cells[(a, b)] if gv not in placed_images
            )
        special = {x: part.candidate_sets[x] for x in block if x in part.candidate_sets}
        try:
            embedded, nodes = blowup_embed(
                G,
                Hb.H,
                {x: psi[x] for x in block},
                U_cells,
                special=special,
                node_budget=BLOWUP_BUDGET,
                seed=f"{seed}:block:{a}",
            )
        except StageFailure as exc:
            audit.notes["blowup-nodes"] += exc.nodes
            raise StageFailure("blow-up", f"block {a}: {exc}", violated=exc.stage) from exc
        g3 |= embedded
        audit.notes["blowup-nodes"] += nodes
    audit.stage("blow-up")

    mapping = {**g2, **g3}
    if len(mapping) != n:
        raise StageFailure(
            "assembly",
            f"assembled map covers {len(mapping)} of {n} vertices",
        )
    problem = verify_embedding(Hb.H, G, mapping)
    if problem:
        raise StageFailure("assembly", f"revalidation failed: {problem}")
    audit.stage("assembly")
    return mapping


def _reduced_power_cycle(
    reduced: DenseGraph,
    min_degree: int,
    q: int,
    seed: int,
    audit: PipelineAudit,
) -> list[int]:
    """A power cycle through every vertex of the reduced graph, whose
    minimum degree is ``min_degree``, of power q capped at (n - 1) // 2:
    the connecting-absorbing construction when it succeeds, otherwise the
    exact search of ``power_cycle_oracle``, whose cycle ``validate_witness``
    certifies and whose node count the audit notes as
    "hamilton-power-nodes"."""
    n = reduced.n
    q_eff = min(q, (n - 1) // 2)
    if q_eff < 1:
        audit.notes["hamilton-power"] = "refused: fewer than 3 vertices"
        raise StageFailure("hamilton-power", f"no power cycle on {n} < 3 vertices")
    # every vertex of a q_eff-th power of a cycle has 2*q_eff neighbours on
    # it, so a vertex of R of smaller degree refuses both routes at once
    if min_degree < 2 * q_eff:
        audit.notes["hamilton-power"] = "refused: δ(R) < 2q"
        raise StageFailure(
            "hamilton-power",
            f"δ(R) = {min_degree} < 2q = {2 * q_eff}: no spanning "
            f"power-{q_eff} cycle on {n} vertices",
        )
    try:
        w = find_hamilton_power(reduced, q, seed=seed)
        audit.notes["hamilton-power"] = "connecting-absorbing"
        return list(w.vertices)
    except StageFailure as exc:
        audit.notes["hamilton-power"] = f"pipeline failed ({exc.stage}); oracle fallback"
        first_failure = exc
    res = power_cycle_oracle(reduced, q_eff, budget=ORACLE_BUDGET)
    audit.notes["hamilton-power-nodes"] = res.nodes
    if res.status == "embedded":
        # the search shares no code with validate_witness, which checks that
        # the entries of the n positions are distinct vertices of R and that
        # every pair at cyclic distance <= q_eff is an edge
        cycle = [res.mapping[k] for k in range(n)]
        problem = validate_witness(reduced, WitnessSequence(tuple(cycle), "cycle", q_eff))
        if problem:
            raise StageFailure("revalidation", problem)
        return cycle
    raise StageFailure(
        "hamilton-power",
        f"pipeline ({first_failure.stage}: {first_failure.detail}) and oracle "
        f"({res.status}) both failed",
    )


def _degenerate_embed(
    G: DenseGraph,
    Hb: BandwidthedH,
    cycle: list[int],
    audit: PipelineAudit,
) -> dict[int, int]:
    """Singleton-cluster fallback: embed H along the spanning power cycle
    directly, H's k-th vertex in bandwidth order onto the cycle's k-th; the
    embedding check is the only guard."""
    order = Hb.order.order
    mapping = {order[k]: cycle[k] for k in range(G.n)}
    problem = verify_embedding(Hb.H, G, mapping)
    if problem:
        raise StageFailure("assembly", f"revalidation failed: {problem}")
    audit.stage("assembly")
    return mapping
