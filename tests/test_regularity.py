import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from spanembed import regularity
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
    PAIR_CHUNK,
    ClusterPartition,
    EmptySide,
    InsufficientVertices,
    PartitionReport,
    RegularityVerdict,
    _fair_coins,
    _heuristic_verdicts,
    heuristic_degree_form_partition,
    inheritance_check,
    is_eps_regular,
    is_superregular,
    pair_density,
    refine_to_superregular,
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
    assert is_eps_regular(G, A, B, 0.1, mode="exact")


def test_half_matching_is_irregular():
    # pairs i -- i matched only: density 1/8, tiny subsets deviate wildly
    n = 8
    G = DenseGraph.from_edges(2 * n, [(i, n + i) for i in range(n)])
    A, B = list(range(n)), list(range(n, 2 * n))
    res = is_eps_regular(G, A, B, 0.1, mode="exact")
    assert not res
    X, Y = res.witness
    dxy = G.edges_between(mask_of(X), mask_of(Y)) / (len(X) * len(Y))
    assert abs(res.density - dxy) > 0.1
    assert len(X) >= 0.1 * n and len(Y) >= 0.1 * n


def test_random_bipartite_regular_at_large_eps():
    G = random_bipartite(12, 12, 0.5, 3)
    A, B = list(range(12)), list(range(12, 24))
    assert is_eps_regular(G, A, B, 0.45, mode="exact")


def test_exact_matches_bruteforce_small():
    rng = random.Random(9)
    for seed in range(10):
        a = rng.randint(2, 5)
        b = rng.randint(2, 5)
        G = random_bipartite(a, b, rng.random(), seed)
        A, B = list(range(a)), list(range(a, a + b))
        eps = rng.uniform(0.15, 0.6)
        assert bool(is_eps_regular(G, A, B, eps, mode="exact")) == brute_regular(
            G, A, B, eps
        )


def test_exact_side_cap():
    G = complete_bipartite(13, 5)
    with pytest.raises(SizeLimitExceeded):
        is_eps_regular(G, list(range(13)), list(range(13, 18)), 0.1, mode="exact")


def test_heuristic_verdicts_one_sided():
    # heuristic "irregular" must come with an exactly-rechecked witness
    rng = random.Random(1)
    for seed in range(12):
        a = rng.randint(4, 10)
        b = rng.randint(4, 10)
        G = random_bipartite(a, b, rng.choice([0.15, 0.5, 0.9]), seed)
        A, B = list(range(a)), list(range(a, a + b))
        eps = rng.uniform(0.1, 0.4)
        h = is_eps_regular(G, A, B, eps, mode="heuristic", seed=seed)
        if not h:
            X, Y = h.witness
            d_ab = pair_density(G, A, B)
            dxy = G.edges_between(mask_of(X), mask_of(Y)) / (len(X) * len(Y))
            assert abs(d_ab - dxy) > eps
            assert len(X) >= eps * a and len(Y) >= eps * b
            # and the exact checker agrees the pair is irregular
            assert not is_eps_regular(G, A, B, eps, mode="exact")


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
    assert is_superregular(
        G, list(range(10)), list(range(10, 20)), 0.4, 0.3, mode="exact"
    )


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
        if not is_eps_regular(G, A, B, eps, mode="exact"):
            continue
        alpha = 1 / 12
        A2 = A[1:] + [A[0]]  # same set; size-preserving noop keeps |A△A'|=0
        eps2, delta2 = slice_robustness_expected(eps, 0.2, alpha)
        if eps2 < 1:
            assert is_eps_regular(G, A2, B, eps2, mode="exact")


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


def test_refine_output_sizes_and_degrees():
    L, m = 3, 20
    G, clusters = planted_cluster_system(L, m, 0.7, seed=5)
    R = DenseGraph.complete(L)
    eps, delta = 0.05, 0.3
    refined = refine_to_superregular(G, clusters, R, eps, delta, verify=True, seed=5)
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
        G, eps=0.3, delta=0.2, L_min=4, seed=0
    )
    assert R.edge_count() == math.comb(part.L, 2)
    assert all(v == "regular-heuristic" for v in report.pair_verdicts.values())


def test_partitioner_random_graph_all_regular():
    G = gnp(200, 0.5, 5)
    part, pure, R, report = heuristic_degree_form_partition(
        G, eps=0.3, delta=0.2, L_min=4, seed=5
    )
    assert all(v == "regular-heuristic" for v in report.pair_verdicts.values())
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
        G, eps=0.3, delta=0.2, L_min=2, seed=1
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
        G, eps=0.3, delta=0.5, L_min=7, seed=2
    )
    assert part.exceptional and "sparse" in report.pair_verdicts.values()
    DenseGraph(pure.n, pure.rows)  # checks symmetry and loops
    assert all(p & ~g == 0 for p, g in zip(pure.rows, G.rows))


def test_partitioner_pure_graph_is_subgraph():
    G = gnp(120, 0.6, 8)
    part, pure, R, report = heuristic_degree_form_partition(
        G, eps=0.35, delta=0.25, L_min=3, seed=8
    )
    for v in range(G.n):
        assert pure.rows[v] & ~G.rows[v] == 0


# -- heuristic search: reference copy and pinned outputs ---------------------


def reference_heuristic(G, A, B, eps, trials, seed):
    """The heuristic search as first written: one mask_of/edges_between
    recheck per candidate, coins drawn one ``random()`` at a time."""
    d_ab = pair_density(G, A, B)
    min_x = max(1, math.ceil(eps * len(A)))
    min_y = max(1, math.ceil(eps * len(B)))

    def recheck(X, Y):
        if len(X) < min_x or len(Y) < min_y:
            return None
        dxy = G.edges_between(mask_of(X), mask_of(Y)) / (len(X) * len(Y))
        dev = abs(d_ab - dxy)
        if dev > eps:
            return RegularityVerdict(False, d_ab, (tuple(X), tuple(Y)), dev)
        return None

    rng = random.Random(seed)
    bmask = mask_of(B)
    amask = mask_of(A)

    def outlier_sets(side, other_mask, min_k):
        degs = sorted(((G.rows[v] & other_mask).bit_count(), v) for v in side)
        order = [v for _, v in degs]
        for k in range(min_k, len(side) + 1):
            yield tuple(order[:k])
            yield tuple(order[-k:])

    for X in outlier_sets(A, bmask, min_x):
        hit = recheck(X, tuple(B))
        if hit:
            return hit
    for Y in outlier_sets(B, amask, min_y):
        hit = recheck(tuple(A), Y)
        if hit:
            return hit
    sample_a = A if len(A) <= 24 else rng.sample(A, 24)
    for a in sample_a:
        for ym in (G.rows[a] & bmask, ~G.rows[a] & bmask):
            Y = tuple(bits(ym))
            if len(Y) < min_y:
                continue
            for X in outlier_sets(A, ym, min_x):
                hit = recheck(X, Y)
                if hit:
                    return hit
    for _ in range(trials):
        X = tuple(v for v in A if rng.random() < 0.5)
        Y = tuple(v for v in B if rng.random() < 0.5)
        if len(X) >= min_x and len(Y) >= min_y:
            hit = recheck(X, Y)
            if hit:
                return hit
    return RegularityVerdict(True, d_ab)


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


def test_heuristic_matches_reference_search(monkeypatch):
    # Truthy verdicts make both searches stop at their first violating
    # candidate, so equal verdicts mean equal candidate order and scores.
    monkeypatch.setattr(RegularityVerdict, "__bool__", lambda v: True)
    rng = random.Random(17)
    irregular = 0
    pairs = list(seeded_pairs(240, 30, seed=5))
    G12 = two_cliques(12)
    pairs.append((G12, [0, 1, 2, 6, 7, 8], [3, 4, 5, 9, 10, 11]))
    for G, A, B in pairs:
        eps = rng.choice([0.1, 0.25, 0.4])
        trials = rng.choice([0, 5, 60])
        seed = rng.randrange(1 << 30)
        want = reference_heuristic(G, A, B, eps, trials, seed)
        got = is_eps_regular(G, A, B, eps, mode="heuristic", trials=trials, seed=seed)
        assert got == want, (A, B, eps, trials, seed)
        irregular += not want.regular
    assert irregular > len(pairs) // 2


def test_heuristic_visits_same_violations(monkeypatch):
    # With the verdict's truth as it is, neither search stops early and every
    # violating candidate passes through one `if hit:`; recording those tests
    # compares the two searches candidate by candidate.
    seen = []

    def record(verdict):
        if not verdict.regular:
            seen.append((verdict.witness, verdict.deviation))
        return verdict.regular

    monkeypatch.setattr(RegularityVerdict, "__bool__", record)
    rng = random.Random(29)
    visited = 0
    for G, A, B in seeded_pairs(60, 30, seed=6):
        eps = rng.choice([0.1, 0.25, 0.4])
        trials = rng.choice([0, 5, 60])
        seed = rng.randrange(1 << 30)
        seen.clear()
        want = reference_heuristic(G, A, B, eps, trials, seed)
        expected = list(seen)
        seen.clear()
        got = is_eps_regular(G, A, B, eps, mode="heuristic", trials=trials, seed=seed)
        assert seen == expected, (A, B, eps, trials, seed)
        assert got == want
        visited += len(expected)
    assert visited > 1000


def test_heuristic_two_cliques_example():
    G = two_cliques(12)
    A, B = [0, 1, 2, 6, 7, 8], [3, 4, 5, 9, 10, 11]
    assert is_eps_regular(G, A, B, 0.25, mode="exact").deviation == 0.5
    # known defect: every heuristic hit is falsy, so the search runs out
    h = is_eps_regular(G, A, B, 0.25, mode="heuristic", seed=3)
    assert h == reference_heuristic(G, A, B, 0.25, 200, 3)
    assert h.regular


def test_exact_matches_reference_scan():
    rng = random.Random(23)
    irregular = 0
    for G, A, B in seeded_pairs(60, 9, seed=8):
        eps = rng.choice([0.1, 0.25, 0.4])
        want = reference_exact(G, A, B, eps)
        assert is_eps_regular(G, A, B, eps, mode="exact") == want, (A, B, eps)
        irregular += not want.regular
    assert 0 < irregular < 60


def test_fair_coins_replay_random_stream():
    for seed in (0, 1, 99, 4217, 2**40 + 3):
        batched, single = random.Random(seed), random.Random(seed)
        coins = _fair_coins(batched, 10_000)
        assert coins.tolist() == [single.random() < 0.5 for _ in range(10_000)]
        assert batched.getstate() == single.getstate()
    assert _fair_coins(random.Random(0), 0).size == 0


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


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
        G, eps=0.25, delta=0.25, L_min=16, seed=seed
    )
    assert _digest((part.exceptional, part.clusters)) == clusters
    assert _digest(sorted(report.pair_verdicts.items())) == verdicts
    assert _digest(pure.rows) == pure_rows


def test_refine_verified_output_pinned():
    G, clusters = planted_cluster_system(3, 20, 0.7, seed=5)
    R = DenseGraph.complete(3)
    refined = refine_to_superregular(G, clusters, R, 0.05, 0.3, verify=True, seed=5)
    assert _digest(refined) == "fa8d9586e729b270"


# -- batch kernel, batched partitioner, induced subgraphs ----------------------


def test_negative_trials_rejected():
    G = gnp(12, 0.5, 0)
    for mode in ("exact", "heuristic"):
        with pytest.raises(ValueError, match="trials"):
            is_eps_regular(G, [0, 1, 2], [3, 4, 5], 0.25, mode=mode, trials=-1)


def same_size_pairs(G, a, b, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        vs = rng.sample(range(G.n), a + b)
        yield vs[:a], vs[a:]


@pytest.mark.parametrize("truthy", [False, True], ids=["as-is", "truthy"])
@pytest.mark.parametrize(
    "host, a, b",
    [
        (gnp(40, 0.6, 1), 6, 6),
        (two_cliques(36), 5, 9),
        (clique_factor_extremal(3, 45), 27, 6),
        (gnp(60, 0.9, 2), 25, 30),
    ],
    ids=["gnp-6x6", "two-cliques-5x9", "extremal-27x6", "gnp-25x30"],
)
def test_kernel_equals_single_calls(monkeypatch, truthy, host, a, b):
    # pair counts that are not a multiple of the chunk; sides above 24 take
    # the rng.sample path
    if truthy:
        monkeypatch.setattr(RegularityVerdict, "__bool__", lambda v: True)
    rng = random.Random(a * b)
    pairs = list(same_size_pairs(host, a, b, PAIR_CHUNK + 37, seed=a + b))
    eps = 0.25
    trials = rng.choice([0, 5, 60])
    seeds = [rng.randrange(1 << 30) for _ in pairs]
    A = np.array([p[0] for p in pairs])
    B = np.array([p[1] for p in pairs])
    M = np.stack([host.bit_matrix(X)[:, Y] for X, Y in pairs])
    got = list(_heuristic_verdicts(M, A, B, eps, trials, seeds))
    want = [
        is_eps_regular(host, X, Y, eps, mode="heuristic", trials=trials, seed=s)
        for (X, Y), s in zip(pairs, seeds)
    ]
    assert got == want
    if truthy:
        assert any(not v.regular for v in want)


def reference_partition(G, eps, delta, L_min, seed=0, heuristic_trials=60):
    """The partitioner as first written, without its refinement rounds: one
    is_eps_regular call and one edges_between per pair, visited one at a
    time."""
    if L_min < 1:
        raise ValueError("L_min must be >= 1")
    n = G.n
    rng = random.Random(seed)
    L = L_min
    order = list(range(n))
    rng.shuffle(order)
    m = n // L
    if m == 0:
        raise ValueError(f"cannot split {n} vertices into {L} clusters")
    clusters = [sorted(order[i * m : (i + 1) * m]) for i in range(L)]
    exceptional = sorted(order[L * m :])

    masks = [mask_of(c) for c in clusters]
    # pure-graph assembly: keep regular+dense pairs, drop the rest
    pair_verdicts: dict[tuple[int, int], str] = {}
    r_edges: list[tuple[int, int]] = []
    keep_mask_pairs: list[tuple[int, int]] = []
    for i in range(L):
        for j in range(i + 1, L):
            dens = G.edges_between(masks[i], masks[j]) / (m * m)
            if dens < delta:
                pair_verdicts[(i, j)] = "sparse"
                continue
            verdict = is_eps_regular(
                G, clusters[i], clusters[j], eps,
                mode="heuristic", trials=heuristic_trials,
                seed=rng.randrange(1 << 30),
            )
            if verdict.regular:
                pair_verdicts[(i, j)] = "regular-heuristic"
                r_edges.append((i, j))
                keep_mask_pairs.append((i, j))
            else:
                pair_verdicts[(i, j)] = "irregular"

    keep = [[False] * L for _ in range(L)]
    for i, j in keep_mask_pairs:
        keep[i][j] = keep[j][i] = True
    cluster_of = {}
    for i, c in enumerate(clusters):
        for v in c:
            cluster_of[v] = i
    exc_mask = mask_of(exceptional)
    pure_rows = [0] * n
    for v in range(n):
        ci = cluster_of.get(v)
        if ci is None:
            pure_rows[v] = G.rows[v]  # exceptional vertices keep their edges
            continue
        row = G.rows[v] & exc_mask
        for j in range(L):
            if keep[ci][j]:
                row |= G.rows[v] & masks[j]
        pure_rows[v] = row
    pure = DenseGraph(n, pure_rows, check=False)

    partition = ClusterPartition(
        tuple(exceptional), tuple(tuple(c) for c in clusters)
    )
    R = DenseGraph.from_edges(L, r_edges)
    hist: dict[int, int] = {}
    for v in range(n):
        loss = G.degree(v) - pure.degree(v)
        bucket = int(10 * loss / max(1, n))
        hist[bucket] = hist.get(bucket, 0) + 1
    report = PartitionReport(
        L=L,
        m=m,
        exceptional_size=len(exceptional),
        pair_verdicts=pair_verdicts,
        degree_loss_histogram=hist,
    )
    return partition, pure, R, report


@pytest.mark.parametrize(
    "host, eps, delta, L_min, seed, labels, exceptional",
    [
        (gnp(100, 0.5, 4), 0.35, 0.5, 9, 1, {"sparse": 21, "regular-heuristic": 3, "irregular": 12}, 1),
        (gnp(160, 0.97, 7), 0.2, 0.25, 16, 1, {"regular-heuristic": 91, "irregular": 29}, 0),
        (two_cliques(96), 0.3, 0.25, 4, 1, None, 0),
        (clique_factor_extremal(3, 96), 0.2, 0.25, 4, 1, None, 0),
    ],
    ids=["gnp100", "gnp160", "two-cliques", "extremal"],
)
def test_partitioner_matches_one_pass_reference(
    monkeypatch, host, eps, delta, L_min, seed, labels, exceptional
):
    # Truthy verdicts make every first violating candidate an "irregular"
    # verdict, so all three labels occur; recording the pair and seed of
    # every verdict the partitioner consumes checks the seed stream too.
    monkeypatch.setattr(RegularityVerdict, "__bool__", lambda v: True)
    visits = []
    kernel = regularity._heuristic_verdicts

    def recording(M, A, B, eps, trials, seeds):
        for p, verdict in enumerate(kernel(M, A, B, eps, trials, seeds)):
            visits.append((A[p].tolist(), B[p].tolist(), seeds[p]))
            yield verdict

    monkeypatch.setattr(regularity, "_heuristic_verdicts", recording)
    args = (host, eps, delta, L_min)
    part, pure, R, report = heuristic_degree_form_partition(*args, seed=seed)
    batched_visits = list(visits)
    visits.clear()
    ref_part, ref_pure, ref_R, ref_report = reference_partition(*args, seed=seed)
    assert batched_visits == visits
    assert part == ref_part
    assert list(report.pair_verdicts.items()) == list(ref_report.pair_verdicts.items())
    assert pure.rows == ref_pure.rows
    assert R == ref_R
    assert report == ref_report
    assert report.L == L_min and len(part.exceptional) == exceptional
    if labels is not None:
        assert Counter(report.pair_verdicts.values()) == labels
    else:
        assert "irregular" in report.pair_verdicts.values()


def test_partitioner_rejects_more_clusters_than_vertices():
    G = gnp(20, 0.5, 0)
    with pytest.raises(ValueError, match="cannot split 20 vertices into 21 clusters"):
        heuristic_degree_form_partition(G, 0.25, 0.25, L_min=21)
    part, _, _, report = heuristic_degree_form_partition(G, 0.25, 0.25, L_min=20)
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
