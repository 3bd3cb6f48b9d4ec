import random

import pytest

from spanembed import embed
from spanembed.embed import (
    OracleResult,
    blowup_embed,
    brute_force_embed,
    embed_with_targets,
    verify_embedding,
)
from spanembed.generators import (
    gnp,
    planted_blown_cycle,
    tiling_H,
    two_cliques,
    clique_factor_extremal,
)
from spanembed.graphs import DenseGraph, StageFailure, bits, cycle_power, make_named


# -- brute force oracle ------------------------------------------------------


def test_oracle_cycle_into_complete():
    H = make_named("C", [1, 4])
    res = brute_force_embed(H, DenseGraph.complete(4))
    assert res and verify_embedding(H, DenseGraph.complete(4), res.mapping) == ""


def test_oracle_disconnected_host_certificate():
    H = make_named("C", [1, 12])
    G = two_cliques(12)
    res = brute_force_embed(H, G)
    assert res.status == "no-embedding"


def test_oracle_identity_power_cycle():
    H = make_named("C", [2, 9])
    res = brute_force_embed(H, H)
    assert res.status == "embedded"
    assert verify_embedding(H, H, res.mapping) == ""


def test_oracle_triangle_factor_extremal():
    G = clique_factor_extremal(3, 9)
    H = tiling_H(3, 3).H  # three disjoint triangles
    res = brute_force_embed(H, G)
    assert res.status == "no-embedding"


def test_oracle_budget_exceeded_distinct():
    H = gnp(14, 0.5, 3)
    G = gnp(16, 0.5, 4)
    res = brute_force_embed(H, G, budget=10)
    assert res.status in ("budget-exceeded", "embedded", "no-embedding")
    res2 = brute_force_embed(H, G, budget=1)
    assert res2.status == "budget-exceeded"


def test_oracle_raises_when_its_embedding_fails_revalidation(monkeypatch):
    monkeypatch.setattr(embed, "verify_embedding", lambda H, G, mapping: "forged")
    with pytest.raises(StageFailure) as exc:
        brute_force_embed(make_named("C", [1, 5]), DenseGraph.complete(6))
    assert exc.value.stage == "revalidation"


def test_oracle_bigger_h_trivial_no():
    assert brute_force_embed(DenseGraph.complete(5), DenseGraph.complete(4)).status == "no-embedding"


def _reference_brute_force_embed(H, G, budget=5_000_000):
    """The oracle as it searched before its nodes were precomputed: the same
    order and candidate order, re-summed and re-filtered at every node."""
    if H.n > G.n:
        return OracleResult("no-embedding", nodes=0)
    if H.n == 0:
        return OracleResult("embedded", {}, 0)

    order = []
    placed = set()
    first = max(range(H.n), key=lambda v: (H.degree(v), -v))
    order.append(first)
    placed.add(first)
    while len(order) < H.n:
        best = max(
            (v for v in range(H.n) if v not in placed),
            key=lambda v: (
                sum(1 for u in bits(H.rows[v]) if u in placed),
                H.degree(v),
                -v,
            ),
        )
        order.append(best)
        placed.add(best)

    g_degree = [G.degree(v) for v in range(G.n)]
    nodes = 0
    mapping = {}

    class _Budget(Exception):
        pass

    def rec(idx, used_mask):
        nonlocal nodes
        if idx == H.n:
            return True
        nodes += 1
        if nodes > budget:
            raise _Budget()
        u = order[idx]
        cands = ~used_mask & G.full_mask()
        for w in bits(H.rows[u]):
            if w in mapping:
                cands &= G.rows[mapping[w]]
        du = H.degree(u)
        for gv in bits(cands):
            if g_degree[gv] < du:
                continue
            mapping[u] = gv
            if rec(idx + 1, used_mask | (1 << gv)):
                return True
            del mapping[u]
        return False

    try:
        found = rec(0, 0)
    except _Budget:
        return OracleResult("budget-exceeded", nodes=nodes)
    if found:
        return OracleResult("embedded", dict(mapping), nodes)
    return OracleResult("no-embedding", nodes=nodes)


def _oracle_cases():
    rng = random.Random(2)
    for seed in range(40):
        nh = rng.randint(1, 7)
        H = gnp(nh, rng.random(), seed)
        G = gnp(rng.randint(nh, 9), rng.random(), seed + 1000)
        yield H, G
    for n, p, q in ((40, 0.9, 3), (48, 0.8, 2), (60, 0.95, 5), (64, 0.9, 4), (80, 0.97, 7)):
        for seed in range(2):
            yield cycle_power(q, n), gnp(n, p, seed)
    yield cycle_power(2, 12), two_cliques(12)
    yield tiling_H(3, 3).H, clique_factor_extremal(3, 9)


@pytest.mark.parametrize("budget", [1, 10, 100, 20_000])
def test_oracle_matches_the_unprecomputed_search(budget):
    statuses = set()
    for H, G in _oracle_cases():
        got = brute_force_embed(H, G, budget=budget)
        want = _reference_brute_force_embed(H, G, budget=budget)
        assert (got.status, got.mapping, got.nodes) == (want.status, want.mapping, want.nodes)
        assert list((got.mapping or {}).items()) == list((want.mapping or {}).items())
        statuses.add(got.status)
    assert statuses == {"embedded", "no-embedding", "budget-exceeded"}


def test_oracle_agrees_with_random_truth():
    rng = random.Random(0)
    for seed in range(25):
        nh = rng.randint(2, 6)
        ng = rng.randint(nh, 8)
        H = gnp(nh, rng.random(), seed)
        G = gnp(ng, rng.random(), seed + 1000)
        res = brute_force_embed(H, G)
        if res.status == "embedded":
            assert verify_embedding(H, G, res.mapping) == ""
        else:
            # cross-check with a dumb permutation scan
            import itertools

            found = False
            for perm in itertools.permutations(range(ng), nh):
                if all(
                    G.has_edge(perm[u], perm[v]) for u, v in H.edges()
                ):
                    found = True
                    break
            assert not found


# -- embed_with_targets ------------------------------------------------------


def make_clustered_host(L=4, m=12, p=0.9, seed=0):
    G = gnp(L * m, p, seed)
    clusters = {a: tuple(range(a * m, (a + 1) * m)) for a in range(L)}
    return G, clusters


def test_targets_complete_multipartite_greedy():
    # complete host: everything embeds without backtracking
    L, m = 3, 8
    G = DenseGraph.complete(L * m)
    clusters = {a: tuple(range(a * m, (a + 1) * m)) for a in range(L)}
    H = make_named("P", [1, 6])
    phi = {x: x % L for x in range(6)}
    out = embed_with_targets(
        G, H, list(range(6)), phi, clusters, Y=[], c=0.3
    )
    assert verify_embedding(H, G, out.mapping) == ""
    for x, gv in out.mapping.items():
        assert gv in clusters[phi[x]]


def test_targets_boundary_candidate_sets():
    G, clusters = make_clustered_host(L=3, m=12, p=0.9, seed=2)
    # H: a path 0-1-2 with boundary vertex 3 adjacent to 2
    H = DenseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    phi = {0: 0, 1: 1, 2: 2, 3: 0}
    out = embed_with_targets(
        G, H, [0, 1, 2], phi, clusters, Y=[3], c=0.3
    )
    C3 = out.candidate_sets[3]
    assert len(C3) >= 0.3 * 12
    for gv in C3:
        assert gv in clusters[0]
        assert G.has_edge(gv, out.mapping[2])
        assert gv not in out.mapping.values()


def test_targets_rejects_small_target_set():
    G, clusters = make_clustered_host()
    H = DenseGraph.empty(1)
    # the boundary vertex's target set is its whole cluster, 12 < 1.5*m
    with pytest.raises(StageFailure) as exc:
        embed_with_targets(G, H, [], {0: 0}, clusters, Y=[0], c=1.5)
    assert exc.value.stage == "target-set"


def test_targets_rejects_overload():
    G, clusters = make_clustered_host(L=2, m=10)
    H = DenseGraph.empty(12)
    phi = {x: 0 for x in range(12)}
    with pytest.raises(StageFailure) as exc:
        embed_with_targets(
            G, H, list(range(12)), phi, clusters, Y=[], c=0.1, eps=0.2
        )
    assert exc.value.stage == "load"


def test_targets_planted_superregular_segments():
    base = planted_blown_cycle(3, 2, 14, p_inside=0.85, p_between=0.8, seed=5)
    G = base.G
    clusters = {}
    cell_ids = {}
    for k, (cell, vs) in enumerate(sorted(base.clusters.items())):
        clusters[k] = vs
        cell_ids[cell] = k
    # H = short power-of-path segment walking the template
    H = make_named("P", [1, 6])
    walk = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    phi = {x: cell_ids[walk[x]] for x in range(6)}
    out = embed_with_targets(G, H, list(range(6)), phi, clusters, Y=[], c=0.2)
    assert verify_embedding(H, G, out.mapping) == ""


# -- blow-up embedding -------------------------------------------------------


def test_blowup_complete_multipartite_exact_sizes():
    L, m = 3, 6
    G = DenseGraph.complete(L * m)
    clusters = {a: tuple(range(a * m, (a + 1) * m)) for a in range(L)}
    # H: disjoint triangles filling the clusters exactly
    H = tiling_H(3, m).H
    phi = {x: x % 3 for x in range(H.n)}
    mapping = blowup_embed(G, H, phi, clusters)
    assert verify_embedding(H, G, mapping) == ""
    for x, gv in mapping.items():
        assert gv in clusters[phi[x]]
    assert len(set(mapping.values())) == L * m  # spanning


def test_blowup_union_of_paths_in_planted_system():
    base = planted_blown_cycle(2, 2, 10, p_inside=0.8, p_between=0.7, seed=7)
    G = base.G
    block = [(1, 1), (1, 2)]
    clusters = {k: base.clusters[cell] for k, cell in enumerate(block)}
    # H: ten disjoint edges spanning the two clusters
    H = DenseGraph.from_edges(20, [(2 * i, 2 * i + 1) for i in range(10)])
    phi = {}
    for i in range(10):
        phi[2 * i] = 0
        phi[2 * i + 1] = 1
    mapping = blowup_embed(G, H, phi, clusters, seed=7)
    assert verify_embedding(H, G, mapping) == ""
    assert len(mapping) == 20


def test_blowup_special_vertices_hit_their_sets():
    L, m = 2, 8
    G = DenseGraph.complete(L * m)
    clusters = {a: tuple(range(a * m, (a + 1) * m)) for a in range(L)}
    H = DenseGraph.from_edges(4, [(0, 1), (2, 3)])
    phi = {0: 0, 1: 1, 2: 0, 3: 1}
    special = {0: {3}, 3: {9, 10}}
    mapping = blowup_embed(G, H, phi, clusters, special=special)
    assert mapping[0] == 3
    assert mapping[3] in {9, 10}


def test_blowup_pigeonhole_rejection():
    L, m = 2, 5
    G = DenseGraph.complete(L * m)
    clusters = {a: tuple(range(a * m, (a + 1) * m)) for a in range(L)}
    H = DenseGraph.empty(6)
    phi = {x: 0 for x in range(6)}
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, phi, clusters)
    assert exc.value.stage == "load"


def test_blowup_budget_failure_is_labelled():
    # demand a spanning independent-set-free embedding into an empty pair
    G = DenseGraph.empty(8)
    clusters = {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}
    H = DenseGraph.from_edges(8, [(i, i + 4) for i in range(4)])
    phi = {x: 0 if x < 4 else 1 for x in range(8)}
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, phi, clusters, node_budget=10_000)
    assert exc.value.stage == "backtrack-budget-exhausted"


def test_blowup_matches_oracle_on_small_instances():
    rng = random.Random(1)
    for seed in range(15):
        n = rng.randint(4, 9)
        G = gnp(n, rng.uniform(0.4, 0.95), seed)
        H = gnp(n, rng.uniform(0.1, 0.5), seed + 500)
        phi = {x: 0 for x in range(n)}
        clusters = {0: tuple(range(n))}
        oracle = brute_force_embed(H, G)
        try:
            mapping = blowup_embed(G, H, phi, clusters, seed=seed)
            assert verify_embedding(H, G, mapping) == ""
            assert oracle.status == "embedded"
        except StageFailure:
            # the embedder may give up, but it must never succeed where the
            # oracle certifies non-containment (checked by the branch above)
            pass
