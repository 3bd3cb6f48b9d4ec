import random

import pytest

from spanembed.balance import (
    BalanceError,
    CycleStructure,
    MoveLedger,
    balance_within_blocks,
    check_cycle_structure,
    is_valid_move,
    lemma_g,
    phi_bijection,
    phi_inverse,
    reallocate_by_chains,
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


def test_valid_move_complete_host():
    G, C = complete_host_structure(2, 4, 8)
    _, A, Y = balance_within_blocks(C.clusters, {c: 0 for c in phi_cells(4, 2)}, 2, 2, C.eps)
    for cell in C.clusters:
        for v in C.clusters[cell][:3]:
            assert is_valid_move(G, v, cell, Y, 2, C.delta, C.eps, 8)


def phi_cells(two_ell, r):
    return [(a, b) for a in range(1, two_ell + 1) for b in range(1, r + 1)]


def test_valid_move_isolated_vertex():
    # needs delta > 2*eps so the degree threshold is positive
    G, C = complete_host_structure(2, 4, 8, eps=0.1, delta=0.4)
    rows = list(G.rows)
    victim = 0
    for u in G.neighbors(victim):
        rows[u] &= ~(1 << victim)
    rows[victim] = 0
    G2 = DenseGraph(G.n, rows, check=False)
    _, A, Y = balance_within_blocks(C.clusters, {c: 0 for c in phi_cells(4, 2)}, 2, 2, C.eps)
    assert not is_valid_move(G2, victim, (1, 1), Y, 2, C.delta, C.eps, 8)


def test_valid_move_own_cell_in_planted_system():
    G, C = planted_structure(2, 4, 30, p_in=0.75, delta=0.5, seed=6)
    _, A, Y = balance_within_blocks(C.clusters, {c: 0 for c in phi_cells(4, 2)}, 2, 2, C.eps)
    for cell in C.clusters:
        for v in Y[cell][:5]:
            assert is_valid_move(G, v, cell, Y, 2, C.delta, C.eps, 30)


# -- within-block balancing ----------------------------------------------


def test_balance_already_balanced_no_moves():
    G, C = complete_host_structure(2, 4, 10)
    tau = {c: 0 for c in phi_cells(4, 2)}
    U, A, Y = balance_within_blocks(C.clusters, tau, 2, 2, C.eps)
    for cell in C.clusters:
        assert U[cell] == set(Y[cell]) == set(C.clusters[cell])


def test_balance_hand_simulated_example():
    # one block, r=2: first-half sizes (10, 8), second-half (11, 9):
    # S = max(2, 2) = 2 moves, everything within 1 afterwards
    m = 11
    sizes = {(1, 1): 10, (1, 2): 8, (1, 3): 11, (1, 4): 9}
    clusters = {}
    v = 0
    for cell, size in sizes.items():
        clusters[cell] = tuple(range(v, v + size))
        v += size
    G = DenseGraph.complete(v)
    tau = {c: 0 for c in phi_cells(2, 2)}
    U, A, Y = balance_within_blocks(clusters, tau, 1, 2, eps=0.4)
    out_sizes = {cell: len(U[cell]) for cell in clusters}
    # within-1 balance on each half after exactly S = 2 moves
    assert abs(out_sizes[(1, 1)] - out_sizes[(1, 2)]) <= 1
    assert abs(out_sizes[(1, 3)] - out_sizes[(1, 4)]) <= 1
    assert out_sizes[(1, 1)] + out_sizes[(1, 2)] == 20
    assert out_sizes[(1, 3)] + out_sizes[(1, 4)] == 18
    # first half only gained, second half only lost
    assert set(clusters[(1, 1)]) <= U[(1, 1)]
    assert U[(1, 4)] <= set(clusters[(1, 4)])
    assert sum(out_sizes.values()) == v


def test_balance_with_reservations():
    G, C = planted_structure(2, 4, 40, seed=7)
    rng = random.Random(7)
    tau = {c: rng.randint(0, 3) for c in phi_cells(4, 2)}
    U, A, Y = balance_within_blocks(C.clusters, tau, 2, 2, C.eps)
    for cell in C.clusters:
        t = tau[phi_bijection(cell[0], cell[1], 2, 2)]
        assert len(A[cell]) == t
        assert A[cell] == tuple(sorted(C.clusters[cell])[:t])
        assert not set(A[cell]) & U[cell]


# -- chain reallocation ------------------------------------------------------


def test_chains_zero_deviation_no_moves():
    G, C = complete_host_structure(2, 4, 10)
    tau = {c: 0 for c in phi_cells(4, 2)}
    U, A, Y = balance_within_blocks(C.clusters, tau, 2, 2, C.eps)
    targets = {cell: len(U[cell]) for cell in U}
    W, ledger = reallocate_by_chains(G, U, Y, targets, 2, 2, C.eps, C.delta, 10)
    assert ledger.moves == []
    assert W == U


def test_chains_shift_three_vertices_complete_host():
    G, C = complete_host_structure(2, 4, 40, eps=0.4)
    tau = {c: 0 for c in phi_cells(4, 2)}
    U, A, Y = balance_within_blocks(C.clusters, tau, 2, 2, C.eps)
    targets = {cell: len(U[cell]) for cell in U}
    targets[(1, 1)] -= 3
    targets[(2, 3)] += 3
    W, ledger = reallocate_by_chains(G, U, Y, targets, 2, 2, 0.4, C.delta, 40)
    assert len(ledger.chains) == 3
    assert {c: len(W[c]) for c in W} == targets
    replay = ledger.replay({c: set(U[c]) for c in U})
    assert replay == W


def test_chains_every_move_was_valid():
    G, C = planted_structure(2, 4, 40, p_in=0.8, p_btw=0.7, delta=0.5, seed=8)
    tau = {c: 0 for c in phi_cells(4, 2)}
    U, A, Y = balance_within_blocks(C.clusters, tau, 2, 2, C.eps)
    targets = {cell: len(U[cell]) for cell in U}
    targets[(1, 2)] -= 1
    targets[(2, 4)] += 1
    W, ledger = reallocate_by_chains(G, U, Y, targets, 2, 2, C.eps, C.delta, 40)
    for mv in ledger.moves:
        assert is_valid_move(G, mv.vertex, mv.target, Y, 2, C.delta, C.eps, 40)


# -- lemma_g end to end ----------------------------------------------------


def test_lemma_g_identity_targets():
    G, C = complete_host_structure(2, 4, 10)
    tau = {c: 0 for c in phi_cells(4, 2)}
    res = lemma_g(G, C, tau)
    # no reservations, complete host: phase-1 sizes are exactly m
    assert all(size == 10 for size in res.m_ab.values())
    res2 = lemma_g(G, C, tau, targets=dict(res.m_ab), check_structure=False)
    assert res2.X is not None and res2.ledger.moves == []
    for (a, b), cluster in res2.X.items():
        assert set(cluster) == set(C.clusters[phi_inverse(a, b, 2, 2)])


def test_lemma_g_planted_with_reservations_and_perturbation():
    G, C = planted_structure(2, 4, 40, p_in=0.8, p_btw=0.7, eps=0.25, delta=0.5, seed=9)
    rng = random.Random(9)
    tau = {c: rng.randint(0, 2) for c in phi_cells(4, 2)}
    res = lemma_g(G, C, tau)
    targets = dict(res.m_ab)
    # shift one unit between two cells, preserving the total
    targets[(1, 1)] -= 1
    targets[(3, 2)] += 1
    res2 = lemma_g(G, C, tau, targets=targets, xi=2 / G.n)
    assert res2.X is not None
    for cell, cluster in res2.X.items():
        assert len(cluster) == targets[cell] + tau[cell]
    # ledger replays and the structure report exists
    assert res2.structure_report is not None
    assert res2.structure.ell == 4 and res2.structure.r == 2


def test_lemma_g_rejects_drifted_targets():
    G, C = complete_host_structure(2, 4, 10)
    tau = {c: 0 for c in phi_cells(4, 2)}
    res = lemma_g(G, C, tau)
    targets = dict(res.m_ab)
    targets[(1, 1)] -= 5
    targets[(1, 2)] += 5
    with pytest.raises(BalanceError):
        lemma_g(G, C, tau, targets=targets, xi=2 / G.n)


def test_lemma_g_requires_spanning():
    G, C = complete_host_structure(2, 4, 10)
    C2 = CycleStructure(C.ell, C.r, dict(C.clusters), (999,), C.eps, C.delta)
    with pytest.raises(BalanceError):
        lemma_g(DenseGraph.complete(G.n + 1000)._replace if False else G, C2, {c: 0 for c in phi_cells(4, 2)})


def test_lemma_g_conservation():
    G, C = planted_structure(2, 4, 30, seed=10)
    tau = {c: (1 if c == (1, 1) else 0) for c in phi_cells(4, 2)}
    res = lemma_g(G, C, tau)
    total = sum(res.m_ab.values()) + sum(tau.values())
    assert total == G.n
