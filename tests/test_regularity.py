import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanembed.generators import (
    clique_factor_extremal,
    complete_bipartite,
    gnp,
    random_bipartite,
    two_cliques,
)
from spanembed.graphs import DenseGraph, InvalidParameters, StageFailure, bits, mask_of
from spanembed.regularity import (
    EXACT_SIDE_THRESHOLD,
    ClusterPartition,
    RegularityVerdict,
    cluster_degrees,
    heuristic_degree_form_partition,
    is_eps_regular,
    is_superregular,
    pair_density,
    refine_to_superregular,
    regularity_up_to_cap,
)


def brute_regular(G, A, B, eps):
    """Exhaustive double loop over qualifying subset pairs."""
    d_ab = pair_density(G, A, B)
    for ka in range(1, len(A) + 1):
        if ka < eps * len(A):
            continue
        for X in itertools.combinations(A, ka):
            xm = mask_of(X)
            for kb in range(1, len(B) + 1):
                if kb < eps * len(B):
                    continue
                for Y in itertools.combinations(B, kb):
                    dxy = G.edges_between(xm, mask_of(Y)) / (ka * kb)
                    if abs(d_ab - dxy) > eps:
                        return False
    return True


# -- pair density ---------------------------------------------------------


def test_pair_density_complete_bipartite():
    G = complete_bipartite(3, 3)
    assert pair_density(G, [0, 1, 2], [3, 4, 5]) == 1.0


def test_pair_density_edgeless():
    G = DenseGraph.empty(6)
    assert pair_density(G, [0, 1], [2, 3]) == 0.0


def test_pair_density_cycle_example():
    from spanembed.graphs import make_named

    G = make_named("C", [1, 6])
    assert pair_density(G, [0, 2], [1, 3]) == pytest.approx(3 / 4)


def _zeros(rows, columns=5):
    # a degree table of the given shape, for the checks that precede its use
    return np.zeros((rows, columns), dtype=np.int32)


def _refine(clusters, table, R=None):
    """refine_to_superregular on the host G, with R = G unless given."""
    return lambda G: refine_to_superregular(
        G, clusters, table, G if R is None else R, 0.01, 0.25
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda G: pair_density(G, [0, 1], [1, 2]),
        lambda G: ClusterPartition((), ((0, 1), (2,))),
        lambda G: ClusterPartition((0,), ((0, 1), (2, 3))),
        _refine([[0, 1], [2]], _zeros(2), DenseGraph.complete(2)),
        _refine([], _zeros(0)),
        _refine([[0], [1]], _zeros(2)),
        _refine([[0], [1], [2]], _zeros(3), DenseGraph.complete(2)),
        _refine([[0], [1]], _zeros(3), DenseGraph.complete(2)),
        _refine([[0], [1]], _zeros(1), DenseGraph.complete(2)),
        _refine([[0], [1]], _zeros(2, 4), DenseGraph.complete(2)),
        _refine([[0], [1]], _zeros(2, 6), DenseGraph.complete(2)),
        _refine([[0], [1]], _zeros(5, 2), DenseGraph.complete(2)),
        _refine([[0], [1]], [0] * 10, DenseGraph.complete(2)),
        lambda G: cluster_degrees(G, [[0, 1], [2]]),
        lambda G: heuristic_degree_form_partition(G, 0.25, L_min=0),
        lambda G: heuristic_degree_form_partition(G, 0.25, L_min=6),
    ],
    ids=[
        "overlap",
        "unequal-clusters",
        "vertex-twice",
        "refine-unequal",
        "refine-no-cluster",
        "refine-R-larger",
        "refine-R-smaller",
        "refine-table-more-rows",
        "refine-table-fewer-rows",
        "refine-table-fewer-columns",
        "refine-table-more-columns",
        "refine-table-transposed",
        "refine-table-flat",
        "cluster-degrees-unequal",
        "L_min",
        "too-few",
    ],
)
def test_bad_parameters_raise_invalid_parameters(call):
    with pytest.raises(InvalidParameters):
        call(DenseGraph.complete(5))


@pytest.mark.parametrize(
    "clusters, named",
    [([[0, 1], [2, 99]], "vertex 99 lies outside 0..29"), ([[0, 1], [1, 2]], "vertex 1 lies in two clusters")],
)
def test_refine_refuses_clusters_that_are_not_disjoint_vertex_sets(clusters, named):
    # the first raised a bare IndexError, the second a refinement failure
    with pytest.raises(InvalidParameters, match=named):
        refine_to_superregular(
            gnp(30, 0.9, 1), clusters, _zeros(2, 30), DenseGraph.complete(2), 0.1, 0.2
        )


@pytest.mark.parametrize(
    "parts, named",
    [
        (((), ((0, 1), (2, 9))), "vertex 9 lies outside 0..3"),
        (((0,), ((0, 1), (2, 3))), "vertex 0 lies in two clusters"),
    ],
)
def test_cluster_partition_refuses_parts_that_are_not_its_vertices(parts, named):
    # the parts of a partition of N vertices hold 0..N-1, each once; the
    # first was accepted
    with pytest.raises(InvalidParameters, match=named):
        ClusterPartition(*parts)


def test_pair_density_rejects_empty_or_overlap():
    G = DenseGraph.empty(4)
    with pytest.raises(InvalidParameters):
        pair_density(G, [], [1])
    with pytest.raises(ValueError):
        pair_density(G, [0, 1], [1, 2])


# -- exact regularity ---------------------------------------------------------


def test_complete_bipartite_regular():
    G = complete_bipartite(8, 8)
    A, B = list(range(8)), list(range(8, 16))
    assert is_eps_regular(G, A, B, 0.1)


def test_half_matching_is_irregular():
    # pairs i -- i matched only: density 1/8, tiny subsets deviate wildly
    n = 8
    G = DenseGraph.from_edges(2 * n, [(i, n + i) for i in range(n)])
    A, B = list(range(n)), list(range(n, 2 * n))
    res = is_eps_regular(G, A, B, 0.1)
    assert not res
    X, Y = res.witness
    dxy = G.edges_between(mask_of(X), mask_of(Y)) / (len(X) * len(Y))
    assert abs(res.density - dxy) > 0.1
    assert len(X) >= 0.1 * n and len(Y) >= 0.1 * n


def test_random_bipartite_regular_at_large_eps():
    G = random_bipartite(12, 12, 0.5, 3)
    A, B = list(range(12)), list(range(12, 24))
    assert is_eps_regular(G, A, B, 0.45)


def test_exact_matches_bruteforce_small():
    rng = random.Random(9)
    for seed in range(10):
        a = rng.randint(2, 5)
        b = rng.randint(2, 5)
        G = random_bipartite(a, b, rng.random(), seed)
        A, B = list(range(a)), list(range(a, a + b))
        eps = rng.uniform(0.15, 0.6)
        assert bool(is_eps_regular(G, A, B, eps)) == brute_regular(
            G, A, B, eps
        )


def test_exact_side_cap():
    G = complete_bipartite(13, 5)
    with pytest.raises(InvalidParameters):
        is_eps_regular(G, list(range(13)), list(range(13, 18)), 0.1)


# -- superregularity -----------------------------------------------------


def test_complete_bipartite_superregular():
    G = complete_bipartite(5, 5)
    assert is_superregular(G, list(range(5)), list(range(5, 10)), 0.2, 0.5)


def test_isolated_vertex_breaks_superregularity():
    G = complete_bipartite(5, 5)
    rows = list(G.rows)
    a = 0
    for b in range(5, 10):
        rows[b] &= ~(1 << a)
    rows[a] = 0
    G2 = DenseGraph(10, rows, check=False)
    res = is_superregular(G2, list(range(5)), list(range(5, 10)), 0.2, 0.5)
    assert not res
    assert res.witness[0] == (0,)


def test_random_dense_pair_superregular():
    G = random_bipartite(10, 10, 0.6, 1)
    assert is_superregular(G, list(range(10)), list(range(10, 20)), 0.4, 0.3)


# -- refinement ----------------------------------------------------------


def planted_cluster_system(L, m, p, seed):
    from spanembed.generators import planted_multipartite

    return planted_multipartite(L, m, p, seed)


@pytest.mark.parametrize("m, eps", [(10, 0.09), (12, 0.01)])
def test_refine_complete_multipartite_keeps_every_vertex(m, eps):
    # complete multipartite: every pair complete, no vertex can fail, so
    # every cluster stays whole (a trim to ceil((1-sqrt(eps))*m) kept 7 of
    # 10 and 11 of 12)
    L = 4
    edges = []
    for i in range(L):
        for j in range(i + 1, L):
            for u in range(i * m, (i + 1) * m):
                for v in range(j * m, (j + 1) * m):
                    edges.append((u, v))
    G = DenseGraph.from_edges(L * m, edges)
    clusters = [list(range(i * m, (i + 1) * m)) for i in range(L)]
    R = DenseGraph.complete(L)
    refined = refine_to_superregular(G, clusters, cluster_degrees(G, clusters), R, eps, 0.5)
    assert refined == clusters


def test_refine_discards_planted_isolated_vertex():
    L, m = 3, 12
    G, clusters = planted_cluster_system(L, m, 0.8, seed=2)
    # isolate one vertex of cluster 0
    victim = clusters[0][0]
    rows = list(G.rows)
    for u in G.neighbors(victim):
        rows[u] &= ~(1 << victim)
    rows[victim] = 0
    G = DenseGraph(G.n, rows, check=False)
    R = DenseGraph.complete(L)
    refined = refine_to_superregular(G, clusters, cluster_degrees(G, clusters), R, 0.09, 0.4)
    assert victim not in refined[0]


def test_refine_reports_hypothesis_violation():
    # empty pair: every vertex fails the degree test
    L, m = 2, 10
    G = DenseGraph.empty(L * m)
    clusters = [list(range(10)), list(range(10, 20))]
    R = DenseGraph.complete(L)
    with pytest.raises(StageFailure) as exc:
        refine_to_superregular(G, clusters, cluster_degrees(G, clusters), R, 0.04, 0.5)
    assert (exc.value.stage, exc.value.violated) == ("refine", None)


def _k12_without(pairs):
    G = DenseGraph.complete(12)
    rows = list(G.rows)
    for u, v in pairs:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return DenseGraph(12, rows, check=False)


def test_refine_swaps_a_lone_failing_vertex():
    # m = 6, eps = 0.01: no vertex may drop.  Vertex 0 sees 1 of cluster 1
    # (threshold 2.94); the first swap in (cluster, id) order that keeps
    # every vertex passing is 0 <-> 6
    G = _k12_without([(0, v) for v in range(7, 12)])
    clusters = [list(range(6)), list(range(6, 12))]
    refined = refine_to_superregular(
        G, clusters, cluster_degrees(G, clusters), DenseGraph.complete(2), 0.01, 0.5
    )
    assert refined == [[1, 2, 3, 4, 5, 6], [0, 7, 8, 9, 10, 11]]


def test_refine_refuses_when_no_swap_exists():
    # an isolated vertex passes in no cluster
    G = _k12_without([(0, v) for v in range(1, 12)])
    clusters = [list(range(6)), list(range(6, 12))]
    with pytest.raises(
        StageFailure, match=r"cluster 0: 1 vertices fail .* cluster 1 \(allowed 0.60\)"
    ) as exc:
        refine_to_superregular(
            G, clusters, cluster_degrees(G, clusters), DenseGraph.complete(2), 0.01, 0.5
        )
    assert (exc.value.stage, exc.value.violated) == ("refine", None)


def test_refine_swaps_only_up_to_the_rounded_allowance():
    # two failing vertices toward one cluster exceed ceil(sqrt(eps)*m) = 1:
    # refused as before, although swaps would repair it
    G = _k12_without([(u, v) for u in (0, 1) for v in range(7, 12)])
    clusters = [list(range(6)), list(range(6, 12))]
    with pytest.raises(StageFailure, match="cluster 0: 2 vertices fail") as exc:
        refine_to_superregular(
            G, clusters, cluster_degrees(G, clusters), DenseGraph.complete(2), 0.01, 0.5
        )
    assert (exc.value.stage, exc.value.violated) == ("refine", None)


def test_refine_output_sizes_and_degrees():
    L, m = 3, 20
    G, clusters = planted_cluster_system(L, m, 0.7, seed=5)
    R = DenseGraph.complete(L)
    eps, delta = 0.05, 0.3
    refined = refine_to_superregular(G, clusters, cluster_degrees(G, clusters), R, eps, delta)
    for i, j in itertools.combinations(range(L), 2):
        assert is_superregular(G, refined[i], refined[j], 4 * math.sqrt(eps), delta / 2)
    for i, c in enumerate(refined):
        assert len(c) == m  # no vertex fails here, and none is trimmed
        for j in range(L):
            if j == i:
                continue
            for v in c:
                assert G.degree_into(v, mask_of(refined[j])) >= (delta - eps) * m


@pytest.mark.parametrize("n", [8, 63, 64, 65, 480])
def test_cluster_degrees_match_the_popcount_reference(n):
    rng = random.Random(n)
    G = gnp(n, 0.6, n)
    for L in {1, 2, max(1, n // 8), n}:
        m = n // L
        order = rng.sample(range(n), n)
        clusters = [order[i * m : (i + 1) * m] for i in range(L)]
        table = cluster_degrees(G, clusters)
        assert table.shape == (L, n) and table.dtype == np.int32
        want = [[(G.rows[w] & mask_of(c)).bit_count() for w in range(n)] for c in clusters]
        assert table.tolist() == want
    assert cluster_degrees(G, []).shape == (0, n)


def _refine_outcome(G, clusters, table, R, eps, delta):
    try:
        return refine_to_superregular(G, clusters, table, R, eps, delta)
    except StageFailure as exc:
        return exc.stage, exc.detail


@pytest.mark.parametrize(
    "case",
    [
        lambda: (*planted_cluster_system(3, 20, 0.7, seed=5), DenseGraph.complete(3), 0.05, 0.3),
        lambda: (
            *planted_cluster_system(4, 12, 0.8, seed=2),
            DenseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
            0.09,
            0.4,
        ),
        lambda: (
            _k12_without([(0, v) for v in range(7, 12)]),
            [list(range(6)), list(range(6, 12))],
            DenseGraph.complete(2),
            0.01,
            0.5,
        ),
        lambda: (
            _k12_without([(0, v) for v in range(1, 12)]),
            [list(range(6)), list(range(6, 12))],
            DenseGraph.complete(2),
            0.01,
            0.5,
        ),
    ],
    ids=["planted", "planted-path-R", "swap", "no-swap"],
)
def test_refine_reads_the_rows_of_a_permuted_table(case):
    # the rows of one table, permuted with the clusters, are the table of
    # the permuted cluster list: refine answers the same with either, and
    # on these hosts it refines each cluster as in the first order
    G, clusters, R, eps, delta = case()
    table = cluster_degrees(G, clusters)
    first = _refine_outcome(G, clusters, table, R, eps, delta)
    for perm in itertools.permutations(range(len(clusters))):
        permuted = [clusters[i] for i in perm]
        pairs = itertools.combinations(range(R.n), 2)
        R_perm = DenseGraph.from_edges(
            R.n, [(a, b) for a, b in pairs if R.has_edge(perm[a], perm[b])]
        )
        got = _refine_outcome(G, permuted, table[list(perm)], R_perm, eps, delta)
        assert got == _refine_outcome(G, permuted, cluster_degrees(G, permuted), R_perm, eps, delta)
        if isinstance(first, list):
            assert got == [first[i] for i in perm]
        else:
            assert got[0] == first[0] == "refine"


# -- partitioner ----------------------------------------------------------


def test_partitioner_accepts_complete_host():
    G = DenseGraph.complete(60)
    part, R, _ = heuristic_degree_form_partition(G, delta=0.2, L_min=4, seed=0)
    assert R == DenseGraph.complete(part.L)


def test_partitioner_random_graph_all_regular():
    G = gnp(200, 0.5, 5)
    part, R, _ = heuristic_degree_form_partition(G, delta=0.2, L_min=4, seed=5)
    assert R == DenseGraph.complete(part.L)
    # structural postconditions
    sizes = {len(c) for c in part.clusters}
    assert len(sizes) == 1
    assert len(part.exceptional) <= 0.3 * G.n


def test_partitioner_bipartite_keeps_crossing_pairs():
    G = complete_bipartite(60, 60)
    part, R, _ = heuristic_degree_form_partition(G, delta=0.2, L_min=2, seed=1)
    # dropped pairs are exactly the intra-side ones (density ~0 < delta)
    for i, j in itertools.combinations(range(part.L), 2):
        ci, cj = part.clusters[i], part.clusters[j]
        cross = pair_density(G, list(ci), list(cj))
        if not R.has_edge(i, j):
            assert cross < 0.2
        if cross >= 0.9:
            assert R.has_edge(i, j)


def test_partitioner_reduced_graph_symmetric_with_dropped_pairs():
    # pairs of density about 1/2 are dropped; two vertices are exceptional
    G = complete_bipartite(61, 60)
    part, R, _ = heuristic_degree_form_partition(G, delta=0.5, L_min=7, seed=2)
    assert part.exceptional and R.edge_count() < math.comb(part.L, 2)
    DenseGraph(R.n, R.rows)  # checks symmetry and loops


# -- reference copies, regressions and pinned outputs --------------------------


def reference_exact(G, A, B, eps):
    """Exact mode as first written: one sorted prefix scan per Y."""
    d_ab = pair_density(G, A, B)

    def extremal_x_for_y(side, ymask, min_x):
        ysize = ymask.bit_count()
        degs = sorted(((G.rows[v] & ymask).bit_count(), v) for v in side)
        prefix, chosen = 0, []
        for k, (c, v) in enumerate(degs, start=1):
            prefix += c
            chosen.append(v)
            if k >= min_x and d_ab - prefix / (k * ysize) > eps:
                return tuple(sorted(chosen)), d_ab - prefix / (k * ysize)
        prefix, chosen = 0, []
        for k, (c, v) in enumerate(reversed(degs), start=1):
            prefix += c
            chosen.append(v)
            if k >= min_x and prefix / (k * ysize) - d_ab > eps:
                return tuple(sorted(chosen)), prefix / (k * ysize) - d_ab
        return None

    for side_a, side_b in ((A, B), (B, A)):
        min_xa = max(1, math.ceil(eps * len(side_a)))
        min_yb = max(1, math.ceil(eps * len(side_b)))
        for ym in range(1, 1 << len(side_b)):
            if ym.bit_count() < min_yb:
                continue
            ymask = mask_of(side_b[i] for i in bits(ym))
            hit = extremal_x_for_y(side_a, ymask, min_xa)
            if hit is not None:
                X, dev = hit
                Y = tuple(sorted(bits(ymask)))
                pair = (X, Y) if side_a is A else (Y, X)
                return RegularityVerdict(False, d_ab, pair, dev)
    return RegularityVerdict(True, d_ab)


def seeded_pairs(count, max_side, seed):
    """(G, A, B) with disjoint shuffled sides drawn from gnp, two_cliques and
    clique_factor_extremal hosts."""
    rng = random.Random(seed)
    for i in range(count):
        a, b = rng.randint(4, max_side), rng.randint(4, max_side)
        n = a + b + rng.randint(0, 6)
        family = i % 3
        if family == 0:
            G = gnp(n, rng.choice([0.3, 0.6, 0.9]), rng.randrange(1000))
        elif family == 1:
            G = two_cliques(n)
        else:
            n += -n % 3
            G = clique_factor_extremal(3, n)
        vs = rng.sample(range(n), a + b)
        yield G, vs[:a], vs[a:]


def test_exact_matches_reference_scan():
    rng = random.Random(23)
    irregular = 0
    for G, A, B in seeded_pairs(60, 9, seed=8):
        eps = rng.choice([0.1, 0.25, 0.4])
        want = reference_exact(G, A, B, eps)
        assert is_eps_regular(G, A, B, eps) == want, (A, B, eps)
        irregular += not want.regular
    assert 0 < irregular < 60


def test_heuristic_two_cliques_example():
    # Every vertex of A sees exactly half of B (the cliques are 0..5 and
    # 6..11), so the pair passes the min-degree and density tests, yet X =
    # {0,1,2} and Y = {3,4,5} deviate by 0.5.  The refinement keeps the pair
    # whole (3 > (0.5 - 0.01)*6 neighbours each); the independent check of
    # its output runs the exact check at 6×6 and refuses it.
    G = two_cliques(12)
    A, B = [0, 1, 2, 6, 7, 8], [3, 4, 5, 9, 10, 11]
    assert is_eps_regular(G, A, B, 0.25).deviation == 0.5
    table = cluster_degrees(G, [A, B])
    assert refine_to_superregular(G, [A, B], table, DenseGraph.complete(2), 0.01, 0.5) == [A, B]
    assert not is_superregular(G, A, B, 4 * math.sqrt(0.01), 0.5 / 2)


def test_regularity_checked_only_up_to_cap():
    # pairs mixing both cliques of two_cliques(48) are far from regular;
    # above the cap only the density is reported (ROADMAP item 3)
    G = two_cliques(48)
    k = EXACT_SIDE_THRESHOLD // 2
    A = list(range(k)) + list(range(24, 24 + k))
    B = list(range(k, 2 * k)) + list(range(24 + k, 24 + 2 * k))
    assert regularity_up_to_cap(G, A, B, 0.25) == is_eps_regular(G, A, B, 0.25)
    assert not regularity_up_to_cap(G, A, B, 0.25)
    A, B = A + [2 * k, 24 + 2 * k], B + [2 * k + 1, 25 + 2 * k]
    assert regularity_up_to_cap(G, A, B, 0.25) == RegularityVerdict(True, 0.5)
    with pytest.raises(InvalidParameters):
        is_eps_regular(G, A, B, 0.25)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _pair_labels(R):
    """{(i, j): "dense" or "sparse"} over the cluster pairs i < j, read from
    the edges of the reduced graph R."""
    return {
        (i, j): "dense" if R.has_edge(i, j) else "sparse"
        for i, j in itertools.combinations(range(R.n), 2)
    }


def _legacy_labels(R):
    """The sorted pair labels, named as when the partitioner ran a heuristic
    regularity search that answered "regular-heuristic" for every dense pair."""
    old = {"sparse": "sparse", "dense": "regular-heuristic"}
    return sorted((pair, old[label]) for pair, label in _pair_labels(R).items())


@pytest.mark.parametrize(
    "seed, clusters, verdicts",
    [
        (3, "e4de348ac9c6d77a", "2d99d2f711795da0"),
        (11, "806a626087cefacf", "2d99d2f711795da0"),
    ],
)
def test_partitioner_outputs_pinned(seed, clusters, verdicts):
    # digests recorded with the one-recheck-per-candidate search
    G = gnp(160, 0.97, 7)
    part, R, _ = heuristic_degree_form_partition(G, delta=0.25, L_min=16, seed=seed)
    assert _digest((part.exceptional, part.clusters)) == clusters
    assert _digest(_legacy_labels(R)) == verdicts
    assert _digest(R.rows) == "57b7f95a5cb157e6"


def test_refine_verified_output_pinned():
    G, clusters = planted_cluster_system(3, 20, 0.7, seed=5)
    R = DenseGraph.complete(3)
    refined = refine_to_superregular(G, clusters, cluster_degrees(G, clusters), R, 0.05, 0.3)
    assert _digest(refined) == "341e28c3063f9e6f"
    for i, j in itertools.combinations(range(3), 2):
        assert is_superregular(G, refined[i], refined[j], 4 * math.sqrt(0.05), 0.3 / 2)


def reference_labels(G, delta, L_min, seed):
    """The pair labels as first computed: one shuffle, then one
    edges_between per cluster pair, visited one at a time."""
    order = list(range(G.n))
    random.Random(seed).shuffle(order)
    m = G.n // L_min
    masks = [mask_of(order[i * m : (i + 1) * m]) for i in range(L_min)]
    return {
        (i, j): "sparse"
        if G.edges_between(masks[i], masks[j]) / (m * m) < delta
        else "dense"
        for i in range(L_min)
        for j in range(i + 1, L_min)
    }


@pytest.mark.parametrize(
    "host, delta, L_min, seed, labels, exceptional, digests",
    [
        (gnp(100, 0.5, 4), 0.5, 9, 1, {"sparse": 21, "dense": 15}, 1,
         ("929d4ac4547247f4", "7dc982b24196821b", "52679c6ef5c038a6")),
        (gnp(160, 0.97, 7), 0.25, 16, 1, {"dense": 120}, 0,
         ("020e9a8198285ddb", "57b7f95a5cb157e6", "2d99d2f711795da0")),
        (two_cliques(96), 0.25, 4, 1, {"dense": 6}, 0,
         ("f57c1dfb67565057", "a65ce4b261088b8e", "6c731214ebd525d7")),
        (clique_factor_extremal(3, 96), 0.25, 4, 1, {"dense": 6}, 0,
         ("f57c1dfb67565057", "a65ce4b261088b8e", "6c731214ebd525d7")),
    ],
    ids=["gnp100", "gnp160", "two-cliques", "extremal"],
)
def test_partitioner_matches_one_pass_reference(
    host, delta, L_min, seed, labels, exceptional, digests
):
    # digests of (partition, R, labels) recorded while the partitioner
    # still ran its heuristic search on every dense pair
    part, R, _ = heuristic_degree_form_partition(host, delta, L_min, seed=seed)
    reference = reference_labels(host, delta, L_min, seed)
    assert _pair_labels(R) == reference
    dense = [pair for pair, label in reference.items() if label == "dense"]
    assert R == DenseGraph.from_edges(L_min, dense)
    assert part.L == L_min and len(part.exceptional) == exceptional
    assert Counter(reference.values()) == labels
    got = (
        _digest((part.exceptional, part.clusters)),
        _digest(R.rows),
        _digest(_legacy_labels(R)),
    )
    assert got == digests


def test_partitioner_rejects_more_clusters_than_vertices():
    G = gnp(20, 0.5, 0)
    with pytest.raises(ValueError, match="cannot split 20 vertices into 21 clusters"):
        heuristic_degree_form_partition(G, 0.25, L_min=21)
    part, _, _ = heuristic_degree_form_partition(G, 0.25, L_min=20)
    assert len(part.clusters[0]) == 1 and not part.exceptional


def test_induced_matches_loop_reference():
    def reference_induced(G, vs):
        pos = {v: i for i, v in enumerate(vs)}
        rows = [0] * len(vs)
        for i, v in enumerate(vs):
            for w in bits(G.rows[v] & mask_of(vs)):
                rows[i] |= 1 << pos[w]
        return rows

    rng = random.Random(31)
    for n in (1, 7, 8, 9, 64, 130):
        G = gnp(n, rng.choice([0.2, 0.5, 0.9]), rng.randrange(1000))
        for size in (0, 1, n // 2, n):
            vs = rng.sample(range(n), size)
            H, ids = G.induced(vs)
            assert ids == vs
            assert H.n == size and list(H.rows) == reference_induced(G, vs)
        H, _ = G.induced(range(n))
        assert H == G


def _reference_partition(G, delta, L_min, seed):
    """The partitioner with a per-pair loop: pair counts summed over the
    cluster blocks of the unpacked matrix, labels and R's edges pair by
    pair, and R through ``DenseGraph.from_edges``."""
    n, L = G.n, L_min
    m = n // L
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    clusters = [sorted(order[i * m : (i + 1) * m]) for i in range(L)]
    exceptional = sorted(order[L * m :])

    flat = [v for c in clusters for v in c]
    blocks = G.bit_matrix(flat)[:, flat].reshape(L, m, L, m)
    counts = blocks.sum(axis=(1, 3)).tolist()
    labels = {}
    r_edges = []
    for i in range(L):
        for j in range(i + 1, L):
            if counts[i][j] / (m * m) < delta:
                labels[(i, j)] = "sparse"
            else:
                labels[(i, j)] = "dense"
                r_edges.append((i, j))
    R = DenseGraph.from_edges(L, r_edges)
    return exceptional, clusters, R.rows, labels


@st.composite
def _partition_cases(draw):
    # n = L*m + extra with 1 <= extra < L, so the exceptional set is never
    # empty; delta at p puts pair densities on both sides of it
    L = draw(st.integers(2, 12))
    m = draw(st.integers(1, 8))
    extra = draw(st.integers(1, L - 1))
    p = draw(st.floats(0.1, 0.9))
    return gnp(L * m + extra, p, draw(st.integers(0, 999))), p, L, draw(st.integers(0, 99))


@given(_partition_cases())
@example((gnp(79, 0.5, 3), 0.5, 9, 1))
@settings(max_examples=60, deadline=None)
def test_partitioner_matches_the_per_cluster_loop(case):
    G, delta, L_min, seed = case
    part, R, degrees = heuristic_degree_form_partition(G, delta, L_min, seed=seed)
    exceptional, clusters, r_rows, labels = _reference_partition(G, delta, L_min, seed)
    assert degrees.tolist() == [
        [(G.rows[w] & mask_of(c)).bit_count() for w in range(G.n)] for c in clusters
    ]
    assert part.exceptional == tuple(exceptional)
    assert part.clusters == tuple(map(tuple, clusters))
    assert R.rows == r_rows
    assert _pair_labels(R) == labels
    DenseGraph(R.n, R.rows)  # symmetric, no loops


def test_partitioner_reference_cases_reach_sparse_pairs_and_v0():
    # the example above exercises every branch of the reference loop
    G = gnp(79, 0.5, 3)
    part, R, _ = heuristic_degree_form_partition(G, 0.5, 9, seed=1)
    assert part.exceptional
    assert Counter(_pair_labels(R).values()).keys() == {"sparse", "dense"}
