import dataclasses
import hashlib
import random

import pytest

from spanembed import graphs, hampower
from spanembed.connect import HypothesisViolation
from spanembed.generators import complete_bipartite, gnp, two_cliques
from spanembed.density import find_clique
from spanembed.graphs import DenseGraph, WitnessSequence, mask_of, validate_witness
from spanembed.hampower import (
    AbsorberSystem,
    HamAudit,
    HamPlan,
    StageFailure,
    absorb,
    build_absorber,
    build_absorbing_path,
    cover_with_paths,
    find_hamilton_power,
    select_reservoir,
)


# -- absorber -----------------------------------------------------------


def coverage(G, system):
    """Per vertex, the number of absorber blocks inside its neighbourhood."""
    return [
        sum((G.rows[v] & mask_of(block)) == mask_of(block) for block in system.blocks)
        for v in range(G.n)
    ]


def test_absorber_complete_host_full_coverage():
    G = DenseGraph.complete(100)
    system = build_absorber(G, 2, seed=0, max_blocks=50)
    assert len(system.blocks) >= 3
    assert min(coverage(G, system)) >= 3
    used = set()
    for block in system.blocks:
        assert G.is_clique(block) and len(block) == 4
        assert not used & set(block)
        used |= set(block)


def test_absorber_bipartite_unreachable():
    G = complete_bipartite(30, 30)
    with pytest.raises(StageFailure) as exc:
        build_absorber(G, 2, seed=0, max_blocks=3)
    assert exc.value.stage == "absorber"
    assert "coverage-unreachable" in exc.value.detail


def test_absorber_random_dense_verified():
    G = gnp(200, 0.9, 4)
    system = build_absorber(G, 2, seed=4, max_blocks=8)
    system.revalidate(G)
    assert len(system.blocks) <= 8
    assert min(coverage(G, system)) >= 2


# -- absorbing path ------------------------------------------------------


def test_absorbing_path_two_blocks_has_twenty_vertices():
    G = DenseGraph.complete(60)
    system = build_absorber(G, 2, seed=0, max_blocks=2)
    assert len(system.blocks) == 2
    pabs = build_absorbing_path(G, system, seed=0)
    assert len(pabs.path.vertices) == 20  # (t-1)*8r + 2r with t=2, r=2
    assert validate_witness(G, pabs.path)


@pytest.mark.parametrize("t", [1, 3, 4])
def test_absorbing_path_length_formula(t):
    r = 2
    G = DenseGraph.complete(120)
    system = build_absorber(G, r, seed=1, max_blocks=t)
    assert len(system.blocks) == t
    pabs = build_absorbing_path(G, system, seed=1)
    assert len(pabs.path.vertices) == (t - 1) * 8 * r + 2 * r
    assert pabs.S == pabs.path.vertices[: 2 * r]
    assert pabs.E_end == pabs.path.vertices[-2 * r :]


# -- absorb ------------------------------------------------------------


def make_pabs(n=140, r=2, t=6, seed=0):
    G = DenseGraph.complete(n)
    system = build_absorber(G, r, seed=seed, max_blocks=t)
    return G, build_absorbing_path(G, system, seed=seed)


def test_absorb_empty_set_is_identity():
    G, pabs = make_pabs()
    out = absorb(G, pabs, [])
    assert out.vertices == pabs.path.vertices
    assert out.kind == "path" and out.r == pabs.r


def test_absorb_three_vertices_complete_host():
    G, pabs = make_pabs(t=6)
    free = [v for v in range(G.n) if v not in set(pabs.path.vertices)][:3]
    out = absorb(G, pabs, free)
    assert validate_witness(G, out)
    assert set(out.vertices) == set(pabs.path.vertices) | set(free)
    assert out.vertices[: 2 * pabs.r] == pabs.S
    assert out.vertices[-2 * pabs.r :] == pabs.E_end


def test_absorb_pigeonhole_failure():
    G, pabs = make_pabs(t=4)  # 2 interior blocks
    free = [v for v in range(G.n) if v not in set(pabs.path.vertices)][:3]
    with pytest.raises(StageFailure) as exc:
        absorb(G, pabs, free)
    assert exc.value.stage == "matching-infeasible"


def test_absorb_rejects_overlapping_z():
    G, pabs = make_pabs()
    with pytest.raises(StageFailure):
        absorb(G, pabs, [pabs.path.vertices[0]])


# -- reservoir -----------------------------------------------------------


def test_reservoir_complete_host_first_draw():
    G = DenseGraph.complete(50)
    res = select_reservoir(G, list(range(G.n)), 5, seed=3)
    assert len(res) == 5
    for x in range(G.n):
        assert G.degree_into(x, sum(1 << v for v in res)) >= (0.5 + 0.1) * 5 - 1e-9


def test_reservoir_random_dense_verified():
    G = gnp(300, 0.8, 11)
    res = select_reservoir(G, list(range(G.n)), 30, seed=11)
    assert len(res) == 30
    mask = sum(1 << v for v in res)
    need = (0.5 + 0.1) * 30
    assert min(G.degree_into(x, mask) for x in range(G.n)) >= need


def test_reservoir_impossible_demand_exhausts():
    # a vertex of tiny degree can never see half of any sizable draw
    n = 40
    edges = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    edges.append((0, 1))  # vertex 0 has degree 1
    G = DenseGraph.from_edges(n, edges)
    with pytest.raises(StageFailure) as exc:
        select_reservoir(G, list(range(n)), 10, seed=0)
    assert exc.value.stage == "reservoir"
    assert "retries-exhausted" in exc.value.detail


def test_reservoir_deterministic_per_seed():
    G = gnp(100, 0.8, 5)
    a = select_reservoir(G, list(range(G.n)), 10, seed=7)
    b = select_reservoir(G, list(range(G.n)), 10, seed=7)
    assert a == b


def test_reservoir_draws_inside_its_pool():
    G = gnp(120, 0.9, 8)
    pool = list(range(0, G.n, 2))
    res = select_reservoir(G, pool, 12, seed=8)
    assert len(res) == 12 and set(res) <= set(pool)


# -- cover ---------------------------------------------------------------


def test_cover_complete_host_single_path():
    G = DenseGraph.complete(50)
    paths, leftover = cover_with_paths(G, 2, max_paths=1, seed=0)
    assert len(paths) == 1
    assert len(paths[0].vertices) == 50
    assert leftover == []


def test_cover_random_dense_leftover_bound():
    G = gnp(200, 0.9, 6)
    paths, leftover = cover_with_paths(G, 2, max_paths=10, seed=6)
    for w in paths:
        assert validate_witness(G, w)
        assert len(w.vertices) >= 5
    covered = set()
    for w in paths:
        assert not covered & set(w.vertices)
        covered |= set(w.vertices)
    eta3 = 0.05
    assert len(leftover) <= 2 * eta3 * G.n


def test_cover_edgeless_everything_leftover():
    G = DenseGraph.empty(30)
    paths, leftover = cover_with_paths(G, 1, max_paths=10, seed=0)
    assert paths == []
    assert leftover == list(range(30))


def test_cover_respects_max_paths():
    G = DenseGraph.complete(40)
    paths, leftover = cover_with_paths(G, 2, max_paths=3, seed=1)
    assert len(paths) <= 3
    assert sum(len(p.vertices) for p in paths) + len(leftover) == 40


# -- full pipeline ------------------------------------------------------


def test_hamilton_power_complete_r3():
    G = DenseGraph.complete(70)
    w = find_hamilton_power(G, 3, seed=0)
    assert w.kind == "cycle" and w.r == 3
    assert len(w.vertices) == 70
    assert validate_witness(G, w)


def test_hamilton_power_random_dense():
    G = gnp(80, 0.9, 1)
    w = find_hamilton_power(G, 2, seed=1)
    assert validate_witness(G, w)
    assert sorted(w.vertices) == list(range(80))


def test_hamilton_power_disconnected_fails_at_connector():
    G = two_cliques(30)
    audit = HamAudit()
    with pytest.raises(StageFailure) as exc:
        find_hamilton_power(G, 1, seed=0, audit=audit)
    assert exc.value.stage == "connector"
    assert audit.attempts == hampower.ATTEMPTS


@pytest.mark.parametrize("r", [0, -1])
def test_hamilton_power_rejects_a_power_below_one(r):
    # r = 0 used to die with ZeroDivisionError in HamPlan.derive
    with pytest.raises(graphs.InvalidParameters, match=f"power r={r} must be >= 1"):
        find_hamilton_power(DenseGraph.complete(20), r)


def test_host_too_small_for_the_plan_refuses_before_any_attempt():
    # the reduced graph of a pipeline-dense run: 80 clusters, q = 7
    with pytest.raises(StageFailure) as exc:
        HamPlan.derive(80, 7)
    audit = HamAudit()
    with pytest.raises(StageFailure) as got:
        find_hamilton_power(DenseGraph.complete(80), 7, seed=0, audit=audit)
    assert (got.value.stage, got.value.detail) == ("absorber", exc.value.detail)
    assert audit.plan is None and audit.attempts == 0


def test_hamilton_power_never_emits_invalid(subtests=None):
    # failure paths raise; success paths carry a validated witness
    for seed in range(4):
        G = gnp(60, 0.9, seed + 40)
        try:
            w = find_hamilton_power(G, 2, seed=seed)
        except StageFailure:
            continue
        assert validate_witness(G, w)


def test_hamilton_power_deterministic_per_seed():
    G = gnp(60, 0.9, 3)
    w1 = find_hamilton_power(G, 2, seed=9)
    w2 = find_hamilton_power(G, 2, seed=9)
    assert w1 == w2


def test_hamilton_power_reservoir_accounting():
    # every threading connector consumes exactly r reservoir vertices; with
    # the plan's sizing the final cycle covers everything exactly once
    G = gnp(100, 0.95, 12)
    w = find_hamilton_power(G, 3, seed=12)
    assert sorted(w.vertices) == list(range(100))


@pytest.mark.parametrize(
    "n, p, r, seed, expected",
    [
        (300, 0.9, 2, 0, "e20b4fd9800e0311"),
        (300, 0.9, 2, 1, "2c0328b096fd1e54"),
        (400, 0.95, 3, 0, "fcde1af20b03f174"),
        (400, 0.95, 3, 1, "e14efadede4fcc05"),
    ],
)
def test_hamilton_power_outputs_pinned(n, p, r, seed, expected):
    # the benchmark's hampower templates at seeds whose first attempt
    # succeeded with greedy threading: the search must keep those witnesses
    audit = HamAudit()
    w = find_hamilton_power(gnp(n, p, seed), r, seed=seed, audit=audit)
    assert audit.attempts == 1
    assert hashlib.sha256(repr(w.vertices).encode()).hexdigest()[:16] == expected


@pytest.mark.parametrize(
    "seed, pair, expected",
    [(14, "(8,9)", "0b2708d5b9f4918a"), (29, "(7,8)", "c986f4c2725ed764")],
)
def test_hamilton_power_outputs_pinned_after_a_failed_attempt(seed, pair, expected):
    # the benchmark's gnp(400, .95) template at r = 3 on seeds whose first
    # attempt refuses in the threading search: the second attempt's witness
    audit = HamAudit()
    w = find_hamilton_power(gnp(400, 0.95, seed), 3, seed=seed, audit=audit)
    assert audit.attempts == 2
    assert audit.failures == [(
        "connector",
        f"threading pair {pair}: no-clique-in-bucket: no attachment bucket of size >= 3 "
        "spans a K_3 (and no loosely-attached clique either)",
    )]
    assert hashlib.sha256(repr(w.vertices).encode()).hexdigest()[:16] == expected


def test_hamilton_power_threads_where_greedy_lost_the_attempt():
    # gnp(300, .9) at seed 3: greedy threading ran out of reservoir at pair
    # (7,8) and the attempt was retried; the search threads it at once
    G = gnp(300, 0.9, 3)
    audit = HamAudit()
    w = find_hamilton_power(G, 2, seed=3, audit=audit)
    assert audit.attempts == 1 and not audit.failures
    assert audit.plan == HamPlan.derive(G.n, 2)
    assert validate_witness(G, w) and sorted(w.vertices) == list(range(G.n))


# -- the threading search ----------------------------------------------------

# Segments (a,), (b, c), (d, e), (f,) on vertices 0..5 give the pairs
# (a, b), (c, d), (e, f) at r = 1; the reservoir is 6, 7, 8.  A bridge of a
# pair is a reservoir vertex adjacent to both its ends.  Every end sees 2 of
# the 3 reservoir vertices, which meets the half-degree hypothesis at slack
# ETA/2: 2 >= (1/2 + ETA/2) * 3.
THREAD_SEGS = [(0,), (1, 2), (3, 4), (5,)]
THREAD_RESERVOIR = (6, 7, 8)


def _thread_host(sees: dict[int, tuple[int, ...]]) -> DenseGraph:
    return DenseGraph.from_edges(9, [(v, z) for v, zs in sees.items() for z in zs])


def _count_draws(monkeypatch) -> list[int]:
    drawn = []
    real = hampower.bridging_cliques

    def counting(*args, **kwargs):
        draws = real(*args, **kwargs)  # ends by raising, never quietly
        while True:
            drawn.append(1)
            yield next(draws)

    monkeypatch.setattr(hampower, "bridging_cliques", counting)
    return drawn


def test_threading_search_threads_where_greedy_fails(monkeypatch):
    # greedy gives pair (a, b) vertex 6, the smallest; then (e, f), which
    # sees only 6 in common, has no bridge.
    G = _thread_host({0: (6, 7), 1: (6, 7), 2: (7, 8), 3: (7, 8), 4: (6, 7), 5: (6, 8)})
    monkeypatch.setattr(hampower, "THREAD_BUDGET", 0)
    with pytest.raises(StageFailure) as exc:
        hampower._thread(G, 1, THREAD_SEGS, THREAD_RESERVOIR)
    assert exc.value.stage == "connector"
    assert exc.value.detail.startswith("threading pair (2,3): no-high-attachment")
    monkeypatch.setattr(hampower, "THREAD_BUDGET", 16)
    bridges = hampower._thread(G, 1, THREAD_SEGS, THREAD_RESERVOIR)
    assert [b.Z for b in bridges] == [(7,), (8,), (6,)]
    for (i, j), b in zip([(0, 1), (2, 3), (4, 5)], bridges):
        assert G.has_edge(i, b.Z[0]) and G.has_edge(j, b.Z[0])


@pytest.mark.parametrize("budget", [2, 256])
def test_threading_search_refuses_at_the_deepest_pair_within_its_budget(monkeypatch, budget):
    # (a, b) and (e, f) both see only 6 in common: no assignment exists,
    # and the search gets no further than pair (2,3) whichever bridge
    # (c, d) takes.  It gives up when its budget runs out (2) or when the
    # first pair has nothing left to try (256).
    G = _thread_host({0: (6, 7), 1: (6, 8), 2: (7, 8), 3: (7, 8), 4: (6, 7), 5: (6, 8)})
    monkeypatch.setattr(hampower, "THREAD_BUDGET", budget)
    drawn = _count_draws(monkeypatch)
    with pytest.raises(StageFailure) as exc:
        hampower._thread(G, 1, THREAD_SEGS, THREAD_RESERVOIR)
    assert exc.value.stage == "connector"
    assert exc.value.detail == (
        "threading pair (2,3): no-high-attachment: no vertex of U has >= 2 neighbours in X ∪ Y"
    )
    assert len(drawn) == min(7, 3 + budget)


# -- one failure type, -O-safe certificates --------------------------------


def test_every_layer_raises_the_graphs_stage_failure():
    assert hampower.StageFailure is graphs.StageFailure
    assert issubclass(HypothesisViolation, graphs.StageFailure)


def test_hamilton_power_refuses_an_invalid_final_cycle(monkeypatch):
    n = 40
    G = DenseGraph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) != (0, 1)]
    )
    bogus = WitnessSequence(tuple(range(n)), "cycle", 2)  # uses the missing edge 01
    monkeypatch.setattr(hampower, "_one_attempt", lambda *args: bogus)
    with pytest.raises(StageFailure) as exc:
        find_hamilton_power(G, 2, seed=0)
    assert exc.value.stage == "revalidation"


@pytest.mark.parametrize(
    "system",
    [
        AbsorberSystem(2, ((0, 1, 2, 3), (3, 4, 5, 6))),  # blocks overlap
        AbsorberSystem(2, ((0, 1, 2),)),  # a block of 3 vertices at r = 2
    ],
)
def test_absorber_revalidation_raises(system):
    with pytest.raises(StageFailure) as exc:
        system.revalidate(DenseGraph.complete(8))
    assert exc.value.stage == "revalidation"


def test_absorber_revalidation_rejects_a_wrong_block():
    G = gnp(120, 0.9, 5)
    system = build_absorber(G, 2, seed=1, max_blocks=6)
    system.revalidate(G)
    a, b, c, d = system.blocks[0]
    w = next(w for w in range(G.n) if not G.has_edge(a, w) and w != a)
    not_clique = ((a, b, c, w),) + system.blocks[1:]
    with pytest.raises(StageFailure) as exc:
        dataclasses.replace(system, blocks=not_clique).revalidate(G)
    assert exc.value.stage == "revalidation"


def _reference_build_absorber(G, r, seed, max_blocks):
    """build_absorber as it was before it counted coverage from common
    neighbourhoods: one mask test per vertex and block."""
    coverage_target = 2 * r + 2
    rng = random.Random(f"absorber:{seed}")
    blocks = []
    used = 0
    coverage = [0] * G.n
    while len(blocks) < max_blocks:
        worst = min(range(G.n), key=lambda v: (coverage[v], v))
        if coverage[worst] >= coverage_target:
            break
        scope = G.rows[worst] & ~used
        got = find_clique(G, 2 * r, within=scope, rng=rng)
        if got is None:
            if blocks and min(coverage) > 0:
                break
            raise StageFailure("absorber", f"starved vertex {worst}")
        blocks.append(got)
        used |= mask_of(got)
        bm = mask_of(got)
        for v in range(G.n):
            if not bm >> v & 1 and (G.rows[v] & bm) == bm:
                coverage[v] += 1
    return AbsorberSystem(r, tuple(blocks))


@pytest.mark.parametrize("n,p,r", [(300, 0.9, 2), (400, 0.95, 3)])
@pytest.mark.parametrize("seed", ["0", "7:attempt:0", "7:attempt:3"])
@pytest.mark.parametrize("max_blocks", [None, 3])
def test_build_absorber_matches_the_per_vertex_reference(n, p, r, seed, max_blocks):
    if max_blocks is None:  # the absorber's share of the host, ETA0*n/(8r)
        max_blocks = max(1, int(hampower.ETA0 * n / (8 * r)))
    G = gnp(n, p, len(seed))
    got = build_absorber(G, r, seed=seed, max_blocks=max_blocks)
    assert got == _reference_build_absorber(G, r, seed, max_blocks)
