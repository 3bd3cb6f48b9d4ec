import pytest

from spanembed.balance import (
    BalanceError,
    CycleStructure,
    check_cycle_structure,
    is_valid_move,
    lemma_g,
    phi_bijection,
    phi_inverse,
)
from spanembed.generators import planted_blown_cycle
from spanembed.graphs import DenseGraph, mask_of


def planted_structure(ell, two_r, m, p_in=0.7, p_btw=0.6, eps=0.2, delta=0.4, seed=0):
    base = planted_blown_cycle(ell, two_r, m, p_in, p_btw, 0, seed=seed)
    C = CycleStructure(
        ell=ell,
        r=two_r,
        clusters={cell: tuple(vs) for cell, vs in base.clusters.items()},
        exceptional=(),
        eps=eps,
        delta=delta,
    )
    return base.G, C


def complete_host_structure(ell, two_r, m, eps=0.2, delta=0.4):
    n = ell * two_r * m
    G = DenseGraph.complete(n)
    clusters = {}
    cells = [(i, j) for i in range(1, ell + 1) for j in range(1, two_r + 1)]
    for k, cell in enumerate(cells):
        clusters[cell] = tuple(range(k * m, (k + 1) * m))
    return G, CycleStructure(ell, two_r, clusters, (), eps, delta)


# -- phi ------------------------------------------------------------------


def test_phi_prefix_property():
    for r in range(1, 7):
        for ell in range(1, 7):
            for b in range(1, r + 1):
                assert phi_bijection(1, b, r, ell) == (1, b)


def test_phi_specific_value():
    assert phi_bijection(1, 3, 2, 3) == (2, 1)


def test_phi_round_trip_all_cells():
    for r in range(1, 7):
        for ell in range(1, 7):
            seen = set()
            for i in range(1, ell + 1):
                for j in range(1, 2 * r + 1):
                    a, b = phi_bijection(i, j, r, ell)
                    assert 1 <= a <= 2 * ell and 1 <= b <= r
                    assert phi_inverse(a, b, r, ell) == (i, j)
                    seen.add((a, b))
            assert len(seen) == 2 * ell * r  # bijection


def test_phi_lexicographic_order():
    # the image of the row-major order of [ell]x[2r] is row-major on [2ell]x[r]
    r, ell = 3, 2
    cells = [(i, j) for i in range(1, ell + 1) for j in range(1, 2 * r + 1)]
    images = [phi_bijection(i, j, r, ell) for i, j in cells]
    assert images == sorted(images)


def test_phi_out_of_range():
    with pytest.raises(BalanceError):
        phi_bijection(0, 1, 2, 2)
    with pytest.raises(BalanceError):
        phi_inverse(5, 1, 2, 2)


# -- cycle structure checks ----------------------------------------------


def test_structure_complete_multipartite_passes():
    G, C = complete_host_structure(3, 4, 6)
    # complete host: every pair is complete bipartite, trivially superregular
    report = check_cycle_structure(G, C)
    assert report.all_pass()


def test_structure_planted_passes_heuristically():
    G, C = planted_structure(2, 4, 25, p_in=0.8, delta=0.35, seed=3)
    report = check_cycle_structure(G, C)
    assert report.partition_ok and report.exceptional_ok
    assert all(report.pair_results.values())


def test_structure_detects_starved_vertex():
    G, C = planted_structure(2, 4, 20, seed=4)
    victim = C.clusters[(1, 1)][0]
    rows = list(G.rows)
    for u in G.neighbors(victim):
        rows[u] &= ~(1 << victim)
    rows[victim] = 0
    G2 = DenseGraph(G.n, rows, check=False)
    report = check_cycle_structure(G2, C)
    assert not all(
        ok for (c1, c2), ok in report.pair_results.items() if c1[0] == c2[0] == 1
    )


def test_structure_detects_partition_corruption():
    G, C = planted_structure(2, 4, 10, seed=5)
    bad = dict(C.clusters)
    bad[(1, 1)] = bad[(1, 2)]  # duplicate cluster
    C2 = CycleStructure(C.ell, C.r, bad, (), C.eps, C.delta)
    report = check_cycle_structure(G, C2)
    assert not report.partition_ok


# -- valid moves ---------------------------------------------------------


def phi_cells(two_ell, r):
    return [(a, b) for a in range(1, two_ell + 1) for b in range(1, r + 1)]


def without_edges(G, pairs):
    rows = list(G.rows)
    for u, v in pairs:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return DenseGraph(G.n, rows, check=False)


def test_valid_move_complete_host():
    G, C = complete_host_structure(2, 4, 8)
    for cell in C.clusters:
        for v in C.clusters[cell][:3]:
            assert is_valid_move(G, v, cell, C.clusters, 2, C.delta, C.eps, 8)


def test_valid_move_isolated_vertex():
    # needs delta > 2*eps so the degree threshold is positive
    G, C = complete_host_structure(2, 4, 8, eps=0.1, delta=0.4)
    victim = 0
    G2 = without_edges(G, [(victim, u) for u in G.neighbors(victim)])
    assert not is_valid_move(G2, victim, (1, 1), C.clusters, 2, C.delta, C.eps, 8)


def test_valid_move_own_cell_in_planted_system():
    G, C = planted_structure(2, 4, 30, p_in=0.75, delta=0.5, seed=6)
    for cell in C.clusters:
        for v in C.clusters[cell][:5]:
            assert is_valid_move(G, v, cell, C.clusters, 2, C.delta, C.eps, 30)


# -- phase one: sizes ----------------------------------------------------


def test_balance_already_balanced_no_moves():
    G, C = complete_host_structure(2, 4, 10)
    res = lemma_g(G, C)
    assert res.X is None
    assert res.m_ab == {cell: 10 for cell in phi_cells(4, 2)}


# -- phase two: augmenting-path reallocation -----------------------------


def moved_into(C, res, r):
    return {
        cell: set(X) - set(C.clusters[phi_inverse(*cell, r, C.ell)])
        for cell, X in res.X.items()
    }


def test_balance_hand_simulated_example():
    # one block, r = 2, m = 10 on a complete host: every move is valid, so
    # the over-full cell (1,1) hands its smallest vertex to the under-full
    # cell (1,2) along a one-edge path; nothing else moves
    G, C = complete_host_structure(1, 4, 10, eps=0.3)
    targets = {(1, 1): 9, (1, 2): 11, (2, 1): 10, (2, 2): 10}
    res = lemma_g(G, C, targets=targets)
    assert res.X == {
        (1, 1): tuple(range(1, 10)),
        (1, 2): (0, *range(10, 20)),
        (2, 1): tuple(range(20, 30)),
        (2, 2): tuple(range(30, 40)),
    }


def test_reallocation_zero_deviation_no_moves():
    G, C = complete_host_structure(2, 4, 10)
    res = lemma_g(G, C, targets=dict(lemma_g(G, C).m_ab))
    assert all(not vs for vs in moved_into(C, res, 2).values())


def test_reallocation_shift_three_vertices_exact_targets():
    G, C = complete_host_structure(2, 4, 40, eps=0.4)
    targets = dict(lemma_g(G, C).m_ab)
    targets[(1, 1)] -= 3
    targets[(4, 1)] += 3
    res = lemma_g(G, C, targets=targets)
    assert {c: len(X) for c, X in res.X.items()} == targets
    assert sum(len(vs) for vs in moved_into(C, res, 2).values()) == 3


def test_reallocation_every_move_was_valid():
    G, C = planted_structure(2, 4, 40, p_in=0.8, p_btw=0.7, delta=0.5, seed=8)
    targets = dict(lemma_g(G, C).m_ab)
    targets[(1, 2)] -= 1
    targets[(4, 2)] += 1
    res = lemma_g(G, C, targets=targets)
    moved = moved_into(C, res, 2)
    assert sum(len(vs) for vs in moved.values()) >= 1
    for cell, vs in moved.items():
        for v in vs:
            assert is_valid_move(
                G, v, phi_inverse(*cell, 2, 2), C.clusters, 2, C.delta, C.eps, 40
            )


def blocked_host():
    # m = 10, eps = 0.2, delta = 0.5: a move needs a degree of at least
    # (delta - 2*eps)*m = 1 into each other cell of the target's half, and
    # a cell may drift by eps*m = 2.  Clusters (1,2) and (1,3) see nothing
    # of each other, so no vertex of (1,3) may move into (1,1).
    G, C = complete_host_structure(2, 4, 10, eps=0.2, delta=0.5)
    G = without_edges(G, [(u, v) for u in C.clusters[(1, 2)] for v in C.clusters[(1, 3)]])
    return G, C


def test_reallocation_takes_a_path_when_the_direct_move_is_invalid():
    G, C = blocked_host()
    targets = dict(lemma_g(G, C).m_ab)
    targets[(2, 1)] -= 1  # pre-bijection cell (1,3): over-full
    targets[(1, 1)] += 1  # pre-bijection cell (1,1): under-full
    res = lemma_g(G, C, targets=targets)
    Y = C.clusters
    assert not any(is_valid_move(G, v, (1, 1), Y, 2, C.delta, C.eps, 10) for v in Y[(1, 3)])
    # the shortest path is (1,3) -> (1,2) -> (1,1), each edge moving its
    # smallest valid vertex
    moved = moved_into(C, res, 2)
    assert moved[(1, 1)] == {C.clusters[(1, 2)][0]}
    assert moved[(1, 2)] == {C.clusters[(1, 3)][0]}
    assert sum(len(vs) for vs in moved.values()) == 2
    assert {c: len(X) for c, X in res.X.items()} == targets


def test_reallocation_refusal_names_the_cell_left_over_full():
    G, C = complete_host_structure(2, 4, 10, eps=0.2, delta=0.5)
    # isolated vertices may move nowhere
    G = without_edges(G, [(u, v) for u in C.clusters[(1, 3)] for v in range(G.n)])
    targets = dict(lemma_g(G, C).m_ab)
    targets[(2, 1)] -= 1
    targets[(1, 1)] += 1
    with pytest.raises(BalanceError, match=r"cell \(2,1\) left over-full by 1"):
        lemma_g(G, C, targets=targets)


# -- lemma_g end to end ----------------------------------------------------


def test_lemma_g_identity_targets():
    G, C = complete_host_structure(2, 4, 10)
    res = lemma_g(G, C)
    # phase-1 sizes are exactly m
    assert all(size == 10 for size in res.m_ab.values())
    res2 = lemma_g(G, C, targets=dict(res.m_ab))
    assert res2.X is not None
    for (a, b), cluster in res2.X.items():
        assert set(cluster) == set(C.clusters[phi_inverse(a, b, 2, 2)])


def test_lemma_g_planted_with_perturbation():
    G, C = planted_structure(2, 4, 40, p_in=0.8, p_btw=0.7, eps=0.25, delta=0.5, seed=9)
    res = lemma_g(G, C)
    targets = dict(res.m_ab)
    # shift one unit between two cells, preserving the total
    targets[(1, 1)] -= 1
    targets[(3, 2)] += 1
    res2 = lemma_g(G, C, targets=targets)
    assert res2.X is not None
    for cell, cluster in res2.X.items():
        assert len(cluster) == targets[cell]
    report = check_cycle_structure(G, res2.structure)
    assert report.partition_ok
    assert res2.structure.ell == 4 and res2.structure.r == 2


def test_lemma_g_rejects_drifted_targets():
    # moving 5 vertices out of one cell drifts it beyond eps*m = 2
    G, C = complete_host_structure(2, 4, 10)
    res = lemma_g(G, C)
    targets = dict(res.m_ab)
    targets[(1, 1)] -= 5
    targets[(1, 2)] += 5
    with pytest.raises(BalanceError, match="drifted by 5"):
        lemma_g(G, C, targets=targets)


def test_lemma_g_rejects_targets_that_lose_vertices():
    G, C = complete_host_structure(2, 4, 10)
    targets = dict(lemma_g(G, C).m_ab)
    targets[(1, 1)] -= 1
    with pytest.raises(BalanceError, match="sum to n"):
        lemma_g(G, C, targets=targets)


def test_lemma_g_requires_spanning():
    G, C = complete_host_structure(2, 4, 10)
    C2 = CycleStructure(C.ell, C.r, dict(C.clusters), (999,), C.eps, C.delta)
    with pytest.raises(BalanceError):
        lemma_g(G, C2)


def test_lemma_g_conservation():
    G, C = planted_structure(2, 4, 30, seed=10)
    res = lemma_g(G, C)
    assert sum(res.m_ab.values()) == G.n
