import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

from spanembed.density import SizeLimitExceeded
from spanembed.generators import (
    clique_factor_extremal,
    complete_bipartite,
    gnp,
    planted_blown_cycle,
    random_bipartite,
    two_cliques,
)
from spanembed.graphs import DenseGraph, bits, mask_of
from spanembed.regularity import (
    EXACT_SIDE_THRESHOLD,
    EmptySide,
    InsufficientVertices,
    NotSuperregular,
    RegularityVerdict,
    heuristic_degree_form_partition,
    inheritance_check,
    is_eps_regular,
    is_superregular,
    pair_density,
    refine_to_superregular,
    regularity_up_to_cap,
    slice_robustness_expected,
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


def test_pair_density_rejects_empty_or_overlap():
    G = DenseGraph.empty(4)
    with pytest.raises(EmptySide):
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
    with pytest.raises(SizeLimitExceeded):
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


# -- slicing ------------------------------------------------------------


def test_slice_formula_identity_at_zero():
    assert slice_robustness_expected(0.1, 0.5, 0.0) == (0.1, 0.5)


def test_slice_formula_paper_values():
    eps2, delta2 = slice_robustness_expected(0.1, 0.5, 0.01)
    assert eps2 == pytest.approx(0.7)
    assert delta2 == pytest.approx(0.46)


def test_slice_formula_derived_values():
    eps2, delta2 = slice_robustness_expected(0.05, 0.4, 0.0025)
    assert eps2 == pytest.approx(0.35)
    assert delta2 == pytest.approx(0.39)


def test_slice_property_perturbed_pairs_stay_regular():
    # swap one vertex across planted regular pairs and accept at the slice params
    rng = random.Random(4)
    for seed in range(8):
        a = b = 12
        G = random_bipartite(a, b, 0.55, seed)
        A, B = list(range(a)), list(range(a, a + b))
        eps = 0.45
        if not is_eps_regular(G, A, B, eps):
            continue
        alpha = 1 / 12
        A2 = A[1:] + [A[0]]  # same set; size-preserving noop keeps |A△A'|=0
        eps2, delta2 = slice_robustness_expected(eps, 0.2, alpha)
        if eps2 < 1:
            assert is_eps_regular(G, A2, B, eps2)


# -- refinement ----------------------------------------------------------


def planted_cluster_system(L, m, p, seed):
    from spanembed.generators import planted_multipartite

    return planted_multipartite(L, m, p, seed)


def test_refine_complete_multipartite_trims_only():
    # complete multipartite: every pair complete, no vertex can fail
    L, m = 4, 10
    edges = []
    for i in range(L):
        for j in range(i + 1, L):
            for u in range(i * m, (i + 1) * m):
                for v in range(j * m, (j + 1) * m):
                    edges.append((u, v))
    G = DenseGraph.from_edges(L * m, edges)
    clusters = [list(range(i * m, (i + 1) * m)) for i in range(L)]
    R = DenseGraph.complete(L)
    eps = 0.09
    refined = refine_to_superregular(G, clusters, R, eps, 0.5)
    target = math.ceil((1 - math.sqrt(eps)) * m)
    assert all(len(c) == target for c in refined)
    assert all(set(c) <= set(orig) for c, orig in zip(refined, clusters))


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
    refined = refine_to_superregular(G, clusters, R, 0.09, 0.4, verify=False)
    assert victim not in refined[0]


def test_refine_reports_hypothesis_violation():
    # empty pair: every vertex fails the degree test
    L, m = 2, 10
    G = DenseGraph.empty(L * m)
    clusters = [list(range(10)), list(range(10, 20))]
    R = DenseGraph.complete(L)
    with pytest.raises(InsufficientVertices):
        refine_to_superregular(G, clusters, R, 0.04, 0.5, verify=False)


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
    refined = refine_to_superregular(G, clusters, DenseGraph.complete(2), 0.01, 0.5)
    assert refined == [[1, 2, 3, 4, 5, 6], [0, 7, 8, 9, 10, 11]]


def test_refine_refuses_when_no_swap_exists():
    # an isolated vertex passes in no cluster
    G = _k12_without([(0, v) for v in range(1, 12)])
    clusters = [list(range(6)), list(range(6, 12))]
    with pytest.raises(
        InsufficientVertices, match=r"cluster 0: 1 vertices fail .* cluster 1 \(allowed 0.60\)"
    ):
        refine_to_superregular(G, clusters, DenseGraph.complete(2), 0.01, 0.5, verify=False)


def test_refine_swaps_only_up_to_the_rounded_allowance():
    # two failing vertices toward one cluster exceed ceil(sqrt(eps)*m) = 1:
    # refused as before, although swaps would repair it
    G = _k12_without([(u, v) for u in (0, 1) for v in range(7, 12)])
    clusters = [list(range(6)), list(range(6, 12))]
    with pytest.raises(InsufficientVertices, match="cluster 0: 2 vertices fail"):
        refine_to_superregular(G, clusters, DenseGraph.complete(2), 0.01, 0.5, verify=False)


def test_refine_output_sizes_and_degrees():
    L, m = 3, 20
    G, clusters = planted_cluster_system(L, m, 0.7, seed=5)
    R = DenseGraph.complete(L)
    eps, delta = 0.05, 0.3
    refined = refine_to_superregular(G, clusters, R, eps, delta, verify=True)
    target = math.ceil((1 - math.sqrt(eps)) * m)
    for i, c in enumerate(refined):
        assert len(c) == target
        for j in range(L):
            if j == i:
                continue
            for v in c:
                assert G.degree_into(v, mask_of(refined[j])) >= (
                    (delta - eps) * m - (m - target)
                )


# -- inheritance ----------------------------------------------------------


def test_inheritance_on_complete_host():
    rep = inheritance_check(DenseGraph.complete(4), rho=0.01, d=0.9, delta=0.02, eta=0.2)
    assert rep.all_pass()


def test_inheritance_detects_two_clique_reduced():
    rep = inheritance_check(two_cliques(10), rho=0.01, d=0.9, delta=0.02, eta=0.2)
    assert not rep.density_pass
    assert rep.density_witness is not None


# -- partitioner ----------------------------------------------------------


def test_partitioner_accepts_complete_host():
    G = DenseGraph.complete(60)
    part, pure, R, report = heuristic_degree_form_partition(
        G, delta=0.2, L_min=4, seed=0
    )
    assert R.edge_count() == math.comb(part.L, 2)
    assert all(v == "dense" for v in report.pair_verdicts.values())


def test_partitioner_random_graph_all_regular():
    G = gnp(200, 0.5, 5)
    part, pure, R, report = heuristic_degree_form_partition(
        G, delta=0.2, L_min=4, seed=5
    )
    assert all(v == "dense" for v in report.pair_verdicts.values())
    # structural postconditions
    sizes = {len(c) for c in part.clusters}
    assert len(sizes) == 1
    assert len(part.exceptional) <= 0.3 * G.n
    for c in part.clusters:
        cm = mask_of(c)
        for v in c:
            assert pure.rows[v] & cm == 0  # no intra-cluster pure edges


def test_partitioner_bipartite_keeps_crossing_pairs():
    G = complete_bipartite(60, 60)
    part, pure, R, report = heuristic_degree_form_partition(
        G, delta=0.2, L_min=2, seed=1
    )
    # dropped pairs are exactly the intra-side ones (density ~0 < delta)
    for (i, j), verdict in report.pair_verdicts.items():
        ci, cj = part.clusters[i], part.clusters[j]
        cross = pair_density(G, list(ci), list(cj))
        if verdict == "sparse":
            assert cross < 0.2
        if cross >= 0.9:
            assert verdict != "sparse"


def test_partitioner_pure_graph_symmetric_with_dropped_pairs():
    # pairs of density about 1/2 are dropped; two vertices are exceptional
    G = complete_bipartite(61, 60)
    part, pure, R, report = heuristic_degree_form_partition(
        G, delta=0.5, L_min=7, seed=2
    )
    assert part.exceptional and "sparse" in report.pair_verdicts.values()
    DenseGraph(pure.n, pure.rows)  # checks symmetry and loops
    assert all(p & ~g == 0 for p, g in zip(pure.rows, G.rows))


def test_partitioner_pure_graph_is_subgraph():
    G = gnp(120, 0.6, 8)
    part, pure, R, report = heuristic_degree_form_partition(
        G, delta=0.25, L_min=3, seed=8
    )
    for v in range(G.n):
        assert pure.rows[v] & ~G.rows[v] == 0


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
    # {0,1,2} and Y = {3,4,5} deviate by 0.5.  The refinement's verify step
    # once asked the heuristic search, which let the pair through; at 6×6 it
    # now runs the exact check and refuses.
    G = two_cliques(12)
    A, B = [0, 1, 2, 6, 7, 8], [3, 4, 5, 9, 10, 11]
    assert is_eps_regular(G, A, B, 0.25).deviation == 0.5
    assert not is_superregular(G, A, B, 0.4, 0.25)
    with pytest.raises(NotSuperregular, match="clusters 0 and 1 are not superregular"):
        refine_to_superregular(G, [A, B], DenseGraph.complete(2), 0.01, 0.5, verify=True)


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
    with pytest.raises(SizeLimitExceeded):
        is_eps_regular(G, A, B, 0.25)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _legacy_labels(report):
    """The sorted pair labels, named as when the partitioner ran a heuristic
    regularity search that answered "regular-heuristic" for every dense pair."""
    old = {"sparse": "sparse", "dense": "regular-heuristic"}
    return sorted((pair, old[label]) for pair, label in report.pair_verdicts.items())


@pytest.mark.parametrize(
    "seed, clusters, verdicts, pure_rows",
    [
        (3, "e4de348ac9c6d77a", "2d99d2f711795da0", "19e83e0aa8463057"),
        (11, "806a626087cefacf", "2d99d2f711795da0", "64105bbd788b6bf9"),
    ],
)
def test_partitioner_outputs_pinned(seed, clusters, verdicts, pure_rows):
    # digests recorded with the one-recheck-per-candidate search
    G = gnp(160, 0.97, 7)
    part, pure, R, report = heuristic_degree_form_partition(
        G, delta=0.25, L_min=16, seed=seed
    )
    assert _digest((part.exceptional, part.clusters)) == clusters
    assert _digest(_legacy_labels(report)) == verdicts
    assert _digest(pure.rows) == pure_rows
    assert _digest(R.rows) == "57b7f95a5cb157e6"


def test_refine_verified_output_pinned():
    G, clusters = planted_cluster_system(3, 20, 0.7, seed=5)
    R = DenseGraph.complete(3)
    refined = refine_to_superregular(G, clusters, R, 0.05, 0.3, verify=True)
    assert _digest(refined) == "fa8d9586e729b270"


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
         ("929d4ac4547247f4", "3c45d839f7d13a25", "7dc982b24196821b", "52679c6ef5c038a6")),
        (gnp(160, 0.97, 7), 0.25, 16, 1, {"dense": 120}, 0,
         ("020e9a8198285ddb", "d69413d9c37a71b5", "57b7f95a5cb157e6", "2d99d2f711795da0")),
        (two_cliques(96), 0.25, 4, 1, {"dense": 6}, 0,
         ("f57c1dfb67565057", "252299f0a2bbd197", "a65ce4b261088b8e", "6c731214ebd525d7")),
        (clique_factor_extremal(3, 96), 0.25, 4, 1, {"dense": 6}, 0,
         ("f57c1dfb67565057", "ca8783fae557bac3", "a65ce4b261088b8e", "6c731214ebd525d7")),
    ],
    ids=["gnp100", "gnp160", "two-cliques", "extremal"],
)
def test_partitioner_matches_one_pass_reference(
    host, delta, L_min, seed, labels, exceptional, digests
):
    # digests of (partition, pure rows, R, labels) recorded while the
    # partitioner still ran its heuristic search on every dense pair
    part, pure, R, report = heuristic_degree_form_partition(host, delta, L_min, seed=seed)
    assert list(report.pair_verdicts.items()) == list(
        reference_labels(host, delta, L_min, seed).items()
    )
    dense = [pair for pair, label in report.pair_verdicts.items() if label == "dense"]
    assert R == DenseGraph.from_edges(L_min, dense)
    assert report.L == L_min and len(part.exceptional) == exceptional
    assert Counter(report.pair_verdicts.values()) == labels
    got = (
        _digest((part.exceptional, part.clusters)),
        _digest(pure.rows),
        _digest(R.rows),
        _digest(_legacy_labels(report)),
    )
    assert got == digests


def test_partitioner_rejects_more_clusters_than_vertices():
    G = gnp(20, 0.5, 0)
    with pytest.raises(ValueError, match="cannot split 20 vertices into 21 clusters"):
        heuristic_degree_form_partition(G, 0.25, L_min=21)
    part, _, _, report = heuristic_degree_form_partition(G, 0.25, L_min=20)
    assert report.m == 1 and not part.exceptional


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
