import ast
import inspect
import random
import re
from itertools import combinations, count
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from spanembed import embed, graphs, hampower
from spanembed.embed import (
    OracleResult,
    PartialEmbedding,
    blowup_embed,
    brute_force_embed,
    embed_with_targets,
    power_cycle_oracle,
    verify_embedding,
)
from spanembed.generators import (
    gnp,
    planted_blown_cycle,
    tiling_H,
    two_cliques,
    clique_factor_extremal,
)
from spanembed.graphs import (
    DenseGraph, InvalidParameters, StageFailure, bits, cycle_power, make_named, mask_of
)


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


@pytest.mark.parametrize("budget", [1, 10, 100, 20_000])
def test_power_cycle_oracle_is_the_oracle_on_the_cycle_power(budget):
    statuses = set()
    filtered = 0
    for _, G in _oracle_cases():
        for q in sorted({1, 2, 3, (G.n - 1) // 2}):
            got = power_cycle_oracle(G, q, budget)
            want = brute_force_embed(cycle_power(q, G.n), G, budget=budget)
            assert (got.status, got.nodes) == (want.status, want.nodes), (G, q)
            if want:
                assert [got.mapping[k] for k in range(G.n)] == [
                    want.mapping[k] for k in range(G.n)
                ]
            else:
                assert got.mapping is None
            statuses.add(got.status)
            filtered += G.min_degree() < min(2 * q, G.n - 1)
    assert statuses == {"embedded", "no-embedding", "budget-exceeded"}
    # hosts with a vertex below the template's degree reach the degree filter
    assert filtered >= 20


def _recursive_brute_force_embed(H, G, budget=5_000_000):
    """The oracle as it searched with one recursive call per template
    vertex: the same order, candidates and node count."""
    if H.n > G.n:
        return OracleResult("no-embedding", nodes=0)
    if H.n == 0:
        return OracleResult("embedded", {}, 0)

    h_degree = [H.degree(v) for v in range(H.n)]
    placed_nbrs = [0] * H.n
    unplaced = set(range(H.n))
    order = []
    best = max(range(H.n), key=lambda v: (h_degree[v], -v))
    while True:
        order.append(best)
        unplaced.discard(best)
        if not unplaced:
            break
        for w in bits(H.rows[best]):
            placed_nbrs[w] += 1
        best = max(unplaced, key=lambda v: (placed_nbrs[v], h_degree[v], -v))

    position = {u: i for i, u in enumerate(order)}
    back = [
        [position[w] for w in bits(H.rows[u]) if position[w] < i]
        for i, u in enumerate(order)
    ]
    g_rows = G.rows
    g_degree = [row.bit_count() for row in g_rows]
    fit_of = {
        du: mask_of(gv for gv in range(G.n) if g_degree[gv] >= du) for du in set(h_degree)
    }
    fits = [fit_of[h_degree[u]] for u in order]
    image = [0] * H.n
    image_rows = [0] * H.n
    nodes = 0

    class _Budget(Exception):
        pass

    def rec(idx, free):
        nonlocal nodes
        if idx == H.n:
            return True
        nodes += 1
        if nodes > budget:
            raise _Budget()
        cands = free & fits[idx]
        for j in back[idx]:
            cands &= image_rows[j]
        while cands:
            low = cands & -cands
            cands ^= low
            gv = low.bit_length() - 1
            image[idx] = gv
            image_rows[idx] = g_rows[gv]
            if rec(idx + 1, free ^ low):
                return True
        return False

    try:
        found = rec(0, G.full_mask())
    except _Budget:
        return OracleResult("budget-exceeded", nodes=nodes)
    if found:
        return OracleResult("embedded", dict(zip(order, image)), nodes)
    return OracleResult("no-embedding", nodes=nodes)


@given(
    st.integers(0, 14),
    st.integers(0, 14),
    st.floats(0, 1),
    st.floats(0, 1),
    st.integers(0, 10_000),
    st.sampled_from([1, 3, 30, 300, 5_000_000]),
)
@settings(max_examples=150, deadline=None)
def test_oracle_matches_the_recursive_search(nh, ng, ph, pg, seed, budget):
    H, G = gnp(nh, ph, seed), gnp(ng, pg, seed + 1)
    got = brute_force_embed(H, G, budget=budget)
    want = _recursive_brute_force_embed(H, G, budget=budget)
    assert (got.status, got.mapping, got.nodes) == (want.status, want.mapping, want.nodes)
    assert list((got.mapping or {}).items()) == list((want.mapping or {}).items())


def test_oracle_embeds_a_template_deeper_than_the_recursion_limit():
    # one stack frame per template vertex would exceed Python's default
    # recursion limit of 1,000
    H = cycle_power(1, 1100)
    res = brute_force_embed(H, H, budget=10_000)
    assert res.status == "embedded" and res.nodes == 1100
    assert verify_embedding(H, H, res.mapping) == ""


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


def _reference_verify_embedding(H, G, mapping):
    """The embedding checker as a loop over ``H.edges()``:
    ``verify_embedding`` must name the same first violation."""
    seen = set()
    for u, gv in mapping.items():
        if not (0 <= u < H.n and 0 <= gv < G.n):
            return f"vertex {u}->{gv} out of range"
        if gv in seen:
            return f"image {gv} used twice"
        seen.add(gv)
    for u, v in H.edges():
        if u in mapping and v in mapping and not G.has_edge(mapping[u], mapping[v]):
            return f"edge ({u},{v}) maps to a non-edge"
    return ""


def test_verify_embedding_matches_the_edge_loop_reference():
    # partial maps of random guests, injective or not, some reaching out of
    # range, into hosts from sparse to complete
    rng = random.Random(3)
    verdicts = set()
    for seed in range(400):
        H = gnp(rng.randint(0, 70), rng.uniform(0.0, 0.3), seed)
        G = gnp(rng.randint(H.n, 80), rng.choice([0.5, 0.9, 0.99, 1.0]), seed + 1)
        images = rng.sample(range(G.n), H.n)
        mapping = {x: images[x] for x in rng.sample(range(H.n), rng.randint(0, H.n))}
        if mapping and rng.random() < 0.2:
            x = rng.choice(list(mapping))
            mapping[x] = rng.choice([-1, G.n, *mapping.values()])
        want = _reference_verify_embedding(H, G, mapping)
        assert verify_embedding(H, G, mapping) == want, (seed, mapping)
        verdicts.add(want.split()[0] if want else "ok")
    assert verdicts == {"ok", "vertex", "image", "edge"}


# -- embed_with_targets ------------------------------------------------------


def _hall(masks):
    """Hall's condition by brute force: every set of the masks covers at
    least as many vertices as it has masks."""
    return all(
        mask_of(v for mk in subset for v in bits(mk)).bit_count() >= size
        for size in range(1, len(masks) + 1)
        for subset in combinations(masks, size)
    )


def _recursive_embed_with_targets(G, H, order, phi, clusters, Y, c, node_budget=1_000_000, seed=0):
    """The target embedder as it searched with one recursive call per
    ordered vertex and a copy of every boundary mask per candidate: the same
    candidates, draws, node count and failures.  Each try is drawn uniformly
    from the untried candidates, the k-th of their ascending list for one
    ``randrange`` k, and is refused if a boundary mask drops below the floor
    or the boundary masks of some cell fail Hall's condition.  Returns the
    PartialEmbedding, or the StageFailure it raised."""
    m = max((len(vs) for vs in clusters.values()), default=0)
    floor = c * m
    rng = random.Random(f"targets:{seed}")
    cluster_mask = {a: mask_of(vs) for a, vs in clusters.items()}
    mapping = {}
    nodes = 0
    y_mask = {y: cluster_mask[phi[y]] for y in Y}
    h_adj = H.rows

    def place(idx, used_mask, masks):
        nonlocal nodes
        if idx == len(order):
            return True
        nodes += 1
        if nodes > node_budget:
            raise StageFailure(
                "backtrack-budget-exhausted",
                f"budget {node_budget} hit at vertex {order[idx]}, nodes {nodes}; trace: "
                f"{[(y, mk.bit_count()) for y, mk in masks.items()][:6]}",
            )
        x = order[idx]
        cands = cluster_mask[phi[x]] & ~used_mask
        for u in bits(h_adj[x]):
            if u in mapping:
                cands &= G.rows[mapping[u]]
        rest = cands
        while rest:
            gv = list(bits(rest))[rng.randrange(rest.bit_count())]
            rest ^= 1 << gv
            new_masks = dict(masks)
            ok = True
            for y in masks:
                mk = masks[y] & ~(1 << gv)
                if (h_adj[x] >> y) & 1:
                    mk &= G.rows[gv]
                if mk.bit_count() < floor:
                    ok = False
                    break
                new_masks[y] = mk
            if not ok or not all(
                _hall([new_masks[y] for y in Y if phi[y] == a]) for a in {phi[y] for y in Y}
            ):
                continue
            mapping[x] = gv
            if place(idx + 1, used_mask | (1 << gv), new_masks):
                return True
            del mapping[x]
        return False

    try:
        if not all(mk.bit_count() >= floor for mk in y_mask.values()):
            bad = min(y_mask, key=lambda y: y_mask[y].bit_count())
            raise StageFailure("target-set", f"boundary vertex {bad} starts below the floor")
        for a in dict.fromkeys(phi[y] for y in Y):
            count = sum(phi[y] == a for y in Y)
            if count > len(clusters[a]):
                raise StageFailure(
                    "target-set",
                    f"cell {a} holds fewer vertices than its {count} boundary vertices",
                )
        if not place(0, 0, dict(y_mask)):
            raise StageFailure(
                "no-list-embedding", f"no embedding within the search tree (nodes={nodes})"
            )
        final_masks = {}
        placed_images = mask_of(mapping.values())
        for y in Y:
            mk = cluster_mask[phi[y]] & ~placed_images
            for u in bits(h_adj[y]):
                if u in mapping:
                    mk &= G.rows[mapping[u]]
            final_masks[y] = tuple(bits(mk))
            if len(final_masks[y]) < floor:
                raise StageFailure("target-set", f"boundary vertex {y} finished below the floor")
    except StageFailure as exc:
        return exc
    return PartialEmbedding(mapping, final_masks, nodes)




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


def test_targets_planted_superregular_segments():
    G, planted = planted_blown_cycle(3, 2, 14, p_inside=0.85, p_between=0.8, seed=5)
    clusters = {}
    cell_ids = {}
    for k, (cell, vs) in enumerate(sorted(planted.items())):
        clusters[k] = vs
        cell_ids[cell] = k
    # H = short power-of-path segment walking the template
    H = make_named("P", [1, 6])
    walk = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)]
    phi = {x: cell_ids[walk[x]] for x in range(6)}
    out = embed_with_targets(G, H, list(range(6)), phi, clusters, Y=[], c=0.2)
    assert verify_embedding(H, G, out.mapping) == ""


# -- blow-up embedding -------------------------------------------------------


def _luby_reference(i):
    """Luby's sequence by its recursive definition: 2^(k-1) at i = 2^k - 1,
    and the term of i - 2^(k-1) + 1 for 2^(k-1) <= i < 2^k - 1."""
    k = 1
    while (1 << k) - 1 < i:
        k += 1
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return _luby_reference(i - (1 << (k - 1)) + 1)


def _recursive_blowup_embed(G, H, phi, clusters, special=None, node_budget=10_000_000, seed=0):
    """The blow-up embedder as it searched with one recursive call per
    placed vertex, a fail-first scan of every unplaced vertex and a copy of
    every candidate mask per node: the same choices, draws, node count and
    failures.  Each try is drawn uniformly from the node's untried
    candidates, the k-th of their ascending list for one ``randrange`` k.
    Restart i may enter ``embed.RESTART_UNIT * luby(i + 1)`` nodes, as many
    as are left of the budget.  Returns the mapping with the nodes entered
    over all restarts, or the StageFailure it raised."""
    special = special or {}
    cluster_mask = {a: mask_of(vs) for a, vs in clusters.items()}
    vertices = sorted(phi)
    h_adj = H.rows
    total = largest = 0
    for attempt in count():
        limit = min(embed.RESTART_UNIT * _luby_reference(attempt + 1), node_budget - total)
        rng = random.Random(f"blowup:{seed}:{attempt}")
        mapping = {}
        cands = {}
        for x in vertices:
            mk = cluster_mask[phi[x]]
            if x in special:
                mk &= mask_of(special[x])
            cands[x] = mk
        nodes = 0

        def search():
            nonlocal nodes
            if len(mapping) == len(vertices):
                return True
            nodes += 1
            if nodes > limit:
                return False
            x = min(
                (v for v in vertices if v not in mapping),
                key=lambda v: (cands[v].bit_count(), -h_adj[v].bit_count(), v),
            )
            rest = cands[x]
            while rest:
                gv = list(bits(rest))[rng.randrange(rest.bit_count())]
                rest ^= 1 << gv
                saved = []
                feasible = True
                for u in bits(h_adj[x]):
                    if u in mapping or u not in cands:
                        continue
                    saved.append((u, cands[u]))
                    cands[u] &= G.rows[gv] & ~(1 << gv)
                    if cands[u] == 0:
                        feasible = False
                for u in vertices:
                    if u in mapping or u == x or not feasible:
                        continue
                    if cands[u] == 1 << gv:
                        feasible = False
                        break
                if feasible:
                    pre = {u: cands[u] for u in vertices if u not in mapping and u != x}
                    for u in pre:
                        cands[u] &= ~(1 << gv)
                    mapping[x] = gv
                    if search():
                        return True
                    if nodes > limit:
                        return False  # the budget is spent: no sibling is tried
                    del mapping[x]
                    for u, mk in pre.items():
                        cands[u] = mk
                for u, mk in saved:
                    cands[u] = mk
            return False

        found = search()
        total += nodes
        if found:
            return mapping, total
        if nodes <= limit:
            return StageFailure(
                "no-list-embedding",
                f"attempt {attempt}: tree exhausted in {nodes} nodes, {total} over all restarts",
            )
        largest = max(largest, limit)
        if total >= node_budget:
            return StageFailure(
                "backtrack-budget-exhausted",
                f"restarts {attempt + 1}, largest slice {largest}, nodes {total}",
            )




def test_blowup_complete_multipartite_exact_sizes():
    L, m = 3, 6
    G = DenseGraph.complete(L * m)
    clusters = {a: tuple(range(a * m, (a + 1) * m)) for a in range(L)}
    # H: disjoint triangles filling the clusters exactly
    H = tiling_H(3, m).H
    phi = {x: x % 3 for x in range(H.n)}
    mapping, _ = blowup_embed(G, H, phi, clusters)
    assert verify_embedding(H, G, mapping) == ""
    for x, gv in mapping.items():
        assert gv in clusters[phi[x]]
    assert len(set(mapping.values())) == L * m  # spanning


def test_blowup_union_of_paths_in_planted_system():
    G, planted = planted_blown_cycle(2, 2, 10, p_inside=0.8, p_between=0.7, seed=7)
    block = [(1, 1), (1, 2)]
    clusters = {k: planted[cell] for k, cell in enumerate(block)}
    # H: ten disjoint edges spanning the two clusters
    H = DenseGraph.from_edges(20, [(2 * i, 2 * i + 1) for i in range(10)])
    phi = {}
    for i in range(10):
        phi[2 * i] = 0
        phi[2 * i + 1] = 1
    mapping, _ = blowup_embed(G, H, phi, clusters, seed=7)
    assert verify_embedding(H, G, mapping) == ""
    assert len(mapping) == 20


def test_blowup_special_vertices_hit_their_sets():
    L, m = 2, 8
    G = DenseGraph.complete(L * m)
    clusters = {a: tuple(range(a * m, (a + 1) * m)) for a in range(L)}
    H = DenseGraph.from_edges(4, [(0, 1), (2, 3)])
    phi = {0: 0, 1: 1, 2: 0, 3: 1}
    special = {0: {3}, 3: {9, 10}}
    mapping, _ = blowup_embed(G, H, phi, clusters, special=special)
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


def test_embed_with_targets_refuses_a_cell_that_is_not_a_cluster():
    # blowup_embed refuses the same input as a "load" failure
    G, H = DenseGraph.complete(4), DenseGraph.empty(2)
    with pytest.raises(InvalidParameters, match="vertex 0's cell 9 is not a cluster"):
        embed_with_targets(G, H, [0], {0: 9}, {}, [], c=0.0)
    with pytest.raises(InvalidParameters, match="vertex 1's cell 9 is not a cluster"):
        embed_with_targets(G, H, [0], {0: 0, 1: 9}, {0: (0, 1)}, [1], c=0.0)
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, {0: 9}, {})
    assert exc.value.stage == "load"


@pytest.mark.parametrize("phi", [{0: 0}, (0,)], ids=["dict", "tuple"])
def test_embed_with_targets_refuses_a_vertex_phi_gives_no_cell(phi):
    # phi is a dict or, as the pipeline passes it, the assignment tuple; a
    # vertex of Y beyond it raised a bare KeyError or IndexError
    G, H = DenseGraph.complete(4), DenseGraph.empty(2)
    with pytest.raises(InvalidParameters, match="phi gives vertex 1 no cell"):
        embed_with_targets(G, H, [0], phi, {0: (0, 1)}, [1], c=0.0)


def test_blowup_exhausted_tree_is_labelled_and_not_restarted():
    # an empty host: every placement starves its partner, so the complete
    # search runs out of tree far below the budget and no restart can help
    G = DenseGraph.empty(8)
    clusters = {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}
    H = DenseGraph.from_edges(8, [(i, i + 4) for i in range(4)])
    phi = {x: 0 if x < 4 else 1 for x in range(8)}
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, phi, clusters, node_budget=10_000)
    assert exc.value.stage == "no-list-embedding"
    assert exc.value.detail.startswith("attempt 0: tree exhausted in ")


def test_blowup_exhausted_tree_names_the_nodes_of_every_restart(monkeypatch):
    # at a unit of 1, restarts 0-13 stop at the node past their slices 1, 1,
    # 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4 (38 nodes), and restart 14 runs out
    # of its tree in 6 of its 8: the refusal names all 44 and carries them
    monkeypatch.setattr(embed, "RESTART_UNIT", 1)
    G, H = gnp(12, 0.45, 0), gnp(12, 0.3, 101)
    clusters = {0: tuple(range(6)), 1: tuple(range(6, 12))}
    phi = {x: x % 2 for x in range(12)}
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, phi, clusters, node_budget=10_000)
    assert exc.value.stage == "no-list-embedding"
    assert exc.value.detail == "attempt 14: tree exhausted in 6 nodes, 44 over all restarts"
    assert exc.value.nodes == 44


def test_blowup_never_enters_a_placement_that_takes_an_only_candidate():
    # both template vertices may only go to host vertex 0: placing the
    # first there would leave the second with nothing, so the root node has
    # no feasible option and the tree ends after one node
    G = DenseGraph.complete(2)
    H = DenseGraph.empty(2)
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, {0: 0, 1: 0}, {0: (0, 1)}, special={0: {0}, 1: {0}})
    assert exc.value.stage == "no-list-embedding"
    assert exc.value.detail == "attempt 0: tree exhausted in 1 nodes, 1 over all restarts"


def test_blowup_budget_failure_is_labelled(monkeypatch):
    # the embedding needs 16 nodes; at a unit of 4 the restarts may enter
    # 4, 4 and then the 6 left of 8, and each stops at the node past its
    # slice: 5 + 5 + 7 = 17 nodes
    monkeypatch.setattr(embed, "RESTART_UNIT", 4)
    G = DenseGraph.complete(16)
    clusters = {0: tuple(range(8)), 1: tuple(range(8, 16))}
    H = DenseGraph.from_edges(16, [(i, i + 8) for i in range(8)])
    phi = {x: 0 if x < 8 else 1 for x in range(16)}
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, phi, clusters, node_budget=16)
    assert exc.value.stage == "backtrack-budget-exhausted"
    assert exc.value.detail == "restarts 3, largest slice 6, nodes 17"
    assert exc.value.nodes == 17


def test_targets_labels_budget_and_exhausted_tree_apart():
    # two vertices of an edge into clusters with no edges between them
    G = DenseGraph.empty(8)
    clusters = {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}
    H = DenseGraph.from_edges(2, [(0, 1)])
    phi = {0: 0, 1: 1}
    with pytest.raises(StageFailure) as exc:
        embed_with_targets(G, H, [0, 1], phi, clusters, Y=[], c=0.0)
    assert exc.value.stage == "no-list-embedding"
    assert exc.value.detail == "no embedding within the search tree (nodes=5)"
    assert exc.value.nodes == 5
    with pytest.raises(StageFailure) as exc:
        embed_with_targets(G, H, [0, 1], phi, clusters, Y=[], c=0.0, node_budget=3)
    assert exc.value.stage == "backtrack-budget-exhausted"
    assert exc.value.detail.startswith("budget 3 hit at vertex 1, nodes 4; trace: ")
    assert exc.value.nodes == 4


def test_targets_keep_the_floor_of_a_boundary_cell_mate():
    # the boundary vertex 3 shares cluster 0 with the three ordered
    # vertices; each placement takes one of its 4 candidates, and the floor
    # 0.5 * 4 = 2 leaves room for two, so every third placement is refused
    # and the search backtracks through all 4 * 3 pairs before it
    G = DenseGraph.complete(8)
    clusters = {0: (0, 1, 2, 3), 1: (4, 5, 6, 7)}
    H = DenseGraph.empty(4)
    phi = {x: 0 for x in range(4)}
    with pytest.raises(StageFailure) as exc:
        embed_with_targets(G, H, [0, 1, 2], phi, clusters, Y=[3], c=0.5)
    assert exc.value.stage == "no-list-embedding"
    assert exc.value.detail == "no embedding within the search tree (nodes=17)"
    out = embed_with_targets(G, H, [0, 1], phi, clusters, Y=[3], c=0.5)
    assert len(out.candidate_sets[3]) == 2 and out.nodes == 2


def test_targets_backtrack_a_placement_that_leaves_two_boundary_vertices_one_candidate():
    # boundary vertices 2 and 3 share cell 0; placing 0 at host vertex 4 and
    # 1 at 6 would leave each with the single candidate 0, which passes the
    # floor 0.25 * 4 = 1 per vertex but not Hall's condition, so 1 -> 6
    # is refused there and the search backtracks to 0 -> 5
    G = DenseGraph.from_edges(7, [(4, 0), (5, 0), (5, 1), (5, 2), (5, 3), (6, 0)])
    H = DenseGraph.from_edges(4, [(0, 2), (1, 3)])
    phi = {0: 1, 1: 2, 2: 0, 3: 0}
    clusters = {0: (0, 1, 2, 3), 1: (4, 5), 2: (6,)}
    nodes = set()
    for seed in range(8):
        out = embed_with_targets(G, H, [0, 1], phi, clusters, Y=[2, 3], c=0.25, seed=seed)
        assert out.mapping == {0: 5, 1: 6}
        assert out.candidate_sets == {2: (0, 1, 2, 3), 3: (0,)}
        want = _recursive_embed_with_targets(G, H, [0, 1], phi, clusters, [2, 3], 0.25, seed=seed)
        assert (out.mapping, out.candidate_sets, out.nodes) == (
            want.mapping, want.candidate_sets, want.nodes
        )
        nodes.add(out.nodes)
    # 3 nodes when 0 -> 4 was drawn first: 0, then 1 refused, then 1 again
    assert nodes == {2, 3}
    # with 4 as 0's only candidate no placement keeps the boundary apart
    with pytest.raises(StageFailure) as exc:
        embed_with_targets(G, H, [0, 1], phi, {**clusters, 1: (4,)}, Y=[2, 3], c=0.25)
    assert exc.value.stage == "no-list-embedding"
    assert exc.value.detail == "no embedding within the search tree (nodes=2)"


def test_targets_refuse_a_cell_with_more_boundary_vertices_than_vertices():
    G, H = DenseGraph.complete(4), DenseGraph.empty(3)
    with pytest.raises(StageFailure) as exc:
        embed_with_targets(G, H, [], {0: 0, 1: 0, 2: 0}, {0: (0, 1)}, Y=[0, 1, 2], c=0.0)
    assert exc.value.stage == "target-set"
    assert exc.value.detail == "cell 0 holds fewer vertices than its 3 boundary vertices"


def test_distinct_candidates_is_halls_condition():
    # the matching against the brute-force subset check, on masks over 6
    # vertices with up to 7 masks: the representatives are distinct members
    # of their masks, and they stop at the longest prefix that has them
    rng = random.Random(5)
    verdicts = set()
    for _ in range(2000):
        masks = [rng.getrandbits(6) & rng.getrandbits(6) for _ in range(rng.randint(1, 7))]
        reps = graphs.distinct_representatives(masks)
        want = _hall(masks)
        assert (len(reps) == len(masks)) == want, masks
        assert len(set(reps)) == len(reps), masks
        assert all(mk >> v & 1 for v, mk in zip(reps, masks)), masks
        assert _hall(masks[: len(reps)]), masks
        assert want or not _hall(masks[: len(reps) + 1]), masks
        verdicts.add(want)
    assert verdicts == {True, False}


def test_blowup_embeds_a_block_deeper_than_the_recursion_limit():
    # one stack frame per placed vertex would exceed Python's default
    # recursion limit of 1,000
    n = 1100
    G = gnp(n, 0.9, 1)
    H = cycle_power(1, n)
    clusters = {a: tuple(range(a, n, 2)) for a in range(2)}
    phi = {x: x % 2 for x in range(n)}
    mapping, _ = blowup_embed(G, H, phi, clusters, seed=1)
    assert len(mapping) == n and verify_embedding(H, G, mapping) == ""
    assert all(gv % 2 == phi[x] for x, gv in mapping.items())


def test_embedders_refuse_cells_that_share_a_vertex():
    # cells are disjoint: a vertex's cell-mates are those of its own cell
    G, H = DenseGraph.complete(6), DenseGraph.empty(2)
    phi, clusters = {0: 0, 1: 1}, {0: (0, 1, 2), 1: (2, 3, 4)}
    with pytest.raises(InvalidParameters, match="vertex 2 lies in two clusters"):
        embed_with_targets(G, H, [0, 1], phi, clusters, Y=[], c=0.0)
    with pytest.raises(InvalidParameters, match="vertex 2 lies in two clusters"):
        blowup_embed(G, H, phi, clusters)


@pytest.mark.parametrize("v", [99, -1])
def test_embedders_refuse_a_cell_vertex_outside_the_host(v):
    # 99 raised a bare IndexError in the blow-up and came back as a target
    # set of the list embedder; -1 raised "negative shift count"
    G, H = DenseGraph.complete(4), DenseGraph.empty(2)
    phi, clusters = {0: 0, 1: 0}, {0: (0, v)}
    with pytest.raises(InvalidParameters, match=f"vertex {v} lies outside 0..3"):
        embed_with_targets(G, H, [0], phi, clusters, [1], c=0)
    with pytest.raises(InvalidParameters, match=f"vertex {v} lies outside 0..3"):
        blowup_embed(G, H, phi, clusters)


def test_embed_module_has_no_recursive_function():
    # every search in embed.py keeps an explicit stack; a function (nested
    # ones included) that calls itself by name is refused
    tree = ast.parse(inspect.getsource(embed))
    recursive = [
        (fn.name, call.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == fn.name
    ]
    assert recursive == []


def test_list_search_is_the_only_function_that_draws_a_candidate():
    # both list-embedders run on one engine: a function (nested ones
    # included) that calls kth_bit outside _list_search is a second search
    tree = ast.parse(inspect.getsource(embed))
    drawing = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and "kth_bit" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    }
    assert drawing == {"_list_search"}


def _functions(module, nested=True):
    """The functions of ``module``'s source: every one, or the module-level ones."""
    tree = ast.parse(inspect.getsource(module))
    nodes = ast.walk(tree) if nested else tree.body
    return [fn for fn in nodes if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls(fn, name):
    return any(
        isinstance(call, ast.Call)
        and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        for call in ast.walk(fn)
    )


def test_one_exact_search_loop_and_one_matcher():
    # the two oracles only build the search's inputs: each calls
    # _exact_search and runs no while loop of its own
    names = ("brute_force_embed", "power_cycle_oracle")
    oracles = [fn for fn in _functions(embed) if fn.name in names]
    assert len(oracles) == 2
    for fn in oracles:
        assert _calls(fn, "_exact_search"), fn.name
        assert not any(isinstance(node, ast.While) for node in ast.walk(fn)), fn.name
    # the joint boundary floor and the absorber's slots both match through
    # graphs.distinct_representatives, and no function here is a matcher
    # of its own
    top = _functions(embed, nested=False) + _functions(hampower, nested=False)
    assert {fn.name for fn in top if _calls(fn, "distinct_representatives")} == {
        "_list_search", "absorb"
    }
    fns = _functions(embed) + _functions(hampower)
    matcher = re.compile("match|distinct|augment|hall", re.I)
    assert [fn.name for fn in fns if matcher.search(fn.name)] == []


def test_restart_slices_follow_lubys_sequence():
    want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
    assert [embed._luby(i) for i in range(1, 16)] == want
    assert all(embed._luby(i) == _luby_reference(i) for i in range(1, 1025))


@st.composite
def list_instances(draw):
    """A host on at most 30 vertices with 1-4 disjoint cells, a template
    whose vertices fit the cells, special sets, and budgets small enough to
    be hit."""
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    n_g = sum(sizes) + draw(st.integers(0, 2))
    G = gnp(n_g, draw(st.floats(0.3, 1.0)), draw(st.integers(0, 10**6)))
    perm = draw(st.permutations(range(n_g)))
    clusters, start = {}, 0
    for a, size in enumerate(sizes):
        clusters[a] = tuple(sorted(perm[start : start + size]))
        start += size
    slots = [a for a, size in enumerate(sizes) for _ in range(size)]
    n_h = draw(st.integers(0, len(slots)))
    H = gnp(n_h, draw(st.floats(0.0, 0.6)), draw(st.integers(0, 10**6)))
    phi = dict(enumerate(draw(st.permutations(slots))[:n_h]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    special = {
        x: set(rng.sample(clusters[phi[x]], rng.randint(1, len(clusters[phi[x]]))))
        for x in range(n_h)
        if rng.random() < 0.2
    }
    return G, H, clusters, phi, special, rng


def _outcome(run):
    try:
        return run()
    except StageFailure as exc:
        return exc


def _failure(got):
    return (got.stage, got.detail) if isinstance(got, StageFailure) else None


@given(
    list_instances(),
    st.sampled_from([1, 4, 10, 40, 200, 10_000]),
    st.sampled_from([1, 3, 2_000]),
    st.integers(0, 99),
)
@settings(max_examples=200, deadline=None)
def test_blowup_matches_the_recursive_search(instance, budget, unit, seed):
    G, H, clusters, phi, special, _ = instance
    with mock.patch.object(embed, "RESTART_UNIT", unit):
        got = _outcome(
            lambda: blowup_embed(G, H, phi, clusters, special, node_budget=budget, seed=seed)
        )
        want = _recursive_blowup_embed(
            G, H, phi, clusters, special, node_budget=budget, seed=seed
        )
    # the failure details carry each failed attempt's node count, and an
    # embedding comes with the nodes of all its restarts
    assert _failure(got) == _failure(want)
    event(_failure(got)[0] if _failure(got) else "embedded")
    if _failure(got) is None:
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]


@given(
    list_instances(),
    st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    st.sampled_from([1, 3, 10, 50, 10_000]),
    st.integers(0, 99),
)
@settings(max_examples=200, deadline=None)
def test_targets_match_the_recursive_search(instance, c, budget, seed):
    G, H, clusters, phi, _, rng = instance
    xs = list(range(H.n))
    rng.shuffle(xs)
    k = rng.randint(0, len(xs))
    order, Y = xs[:k], xs[k : k + rng.randint(0, 6)]
    got = _outcome(
        lambda: embed_with_targets(G, H, order, phi, clusters, Y, c, node_budget=budget, seed=seed)
    )
    want = _recursive_embed_with_targets(G, H, order, phi, clusters, Y, c, node_budget=budget, seed=seed)
    assert _failure(got) == _failure(want)
    event(_failure(got)[0] if _failure(got) else "embedded")
    if _failure(got) is None:
        assert list(got.mapping.items()) == list(want.mapping.items())
        assert (got.candidate_sets, got.nodes) == (want.candidate_sets, want.nodes)


def test_blowup_counts_the_nodes_of_every_restart(monkeypatch):
    # at a unit of 50, restart 0 runs out of its 50 nodes and restart 1
    # embeds: the count returned is of both restarts, as the recursive
    # search counts them.  A restart stops at the first node past its
    # slice, so it counts one more
    monkeypatch.setattr(embed, "RESTART_UNIT", 50)
    G, H = gnp(16, 0.6, 24), gnp(16, 0.3, 124)
    clusters = {0: tuple(range(8)), 1: tuple(range(8, 16))}
    phi = {x: x % 2 for x in range(16)}
    with pytest.raises(StageFailure) as exc:
        blowup_embed(G, H, phi, clusters, node_budget=50, seed=18)
    assert exc.value.detail == "restarts 1, largest slice 50, nodes 51"
    mapping, nodes = blowup_embed(G, H, phi, clusters, node_budget=100, seed=18)
    assert verify_embedding(H, G, mapping) == "" and nodes == 51 + 26
    assert (mapping, nodes) == _recursive_blowup_embed(
        G, H, phi, clusters, node_budget=100, seed=18
    )


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
            mapping, _ = blowup_embed(G, H, phi, clusters, seed=seed)
            assert verify_embedding(H, G, mapping) == ""
            assert oracle.status == "embedded"
        except StageFailure:
            # the embedder may give up, but it must never succeed where the
            # oracle certifies non-containment (checked by the branch above)
            pass
