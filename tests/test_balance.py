import pytest

from spanembed.balance import is_valid_move, lemma_g
from spanembed.generators import planted_blown_cycle
from spanembed.graphs import DenseGraph, StageFailure


# Clusters sit on the cells (a,b) of [rows] x [cols], row-major, cell k
# holding vertices [k*m, (k+1)*m).  A planted blown cycle of ell blocks of
# 2*cols clusters puts each block on two rows.


def planted_structure(ell, cols, m, p_in=0.7, p_btw=0.6, seed=0):
    G, planted = planted_blown_cycle(ell, 2 * cols, m, p_in, p_btw, seed=seed)
    clusters = {
        (k // cols + 1, k % cols + 1): tuple(vs)
        for k, vs in enumerate(planted.values())
    }
    return G, clusters


def complete_host_structure(rows, cols, m):
    cells = [(a, b) for a in range(1, rows + 1) for b in range(1, cols + 1)]
    clusters = {cell: tuple(range(k * m, (k + 1) * m)) for k, cell in enumerate(cells)}
    return DenseGraph.complete(rows * cols * m), clusters


def without_edges(G, pairs):
    rows = list(G.rows)
    for u, v in pairs:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return DenseGraph(G.n, rows, check=False)


def sizes(clusters):
    return {cell: len(vs) for cell, vs in clusters.items()}


def moved_into(Y, X):
    return {cell: set(vs) - set(Y[cell]) for cell, vs in X.items()}


# -- valid moves ---------------------------------------------------------


def test_valid_move_complete_host():
    G, Y = complete_host_structure(4, 2, 8)
    for cell in Y:
        for v in Y[cell][:3]:
            assert is_valid_move(G, v, cell, Y, 0.4, 0.2, 8)


def test_valid_move_isolated_vertex():
    # needs delta > 2*eps so the degree threshold is positive
    G, Y = complete_host_structure(4, 2, 8)
    victim = 0
    G2 = without_edges(G, [(victim, u) for u in G.neighbors(victim)])
    assert not is_valid_move(G2, victim, (1, 1), Y, 0.4, 0.1, 8)


def test_valid_move_own_cell_in_planted_system():
    G, Y = planted_structure(2, 2, 30, p_in=0.75, seed=6)
    for cell in Y:
        for v in Y[cell][:5]:
            assert is_valid_move(G, v, cell, Y, 0.5, 0.2, 30)


def test_valid_move_looks_only_at_the_target_row():
    # cut (1,2) from (2,1): a vertex of (1,2) may still enter (1,1), whose
    # row is {(1,1), (1,2)}, but not (2,2), whose row holds (2,1)
    G, Y = complete_host_structure(4, 2, 10)
    G = without_edges(G, [(u, v) for u in Y[(1, 2)] for v in Y[(2, 1)]])
    v = Y[(1, 2)][0]
    assert is_valid_move(G, v, (1, 1), Y, 0.5, 0.2, 10)
    assert not is_valid_move(G, v, (2, 2), Y, 0.5, 0.2, 10)


# -- augmenting-path reallocation ----------------------------------------


def test_balance_already_balanced_no_moves():
    # targets equal to the cluster sizes move nothing, also on a host where
    # some moves are invalid
    G, Y = planted_structure(2, 2, 30, seed=10)
    X = lemma_g(G, Y, sizes(Y), eps=0.2, delta=0.4)
    assert X == Y


def test_balance_hand_simulated_example():
    # one block, 2 x 2 cells, m = 10 on a complete host: every move is
    # valid, so the over-full cell (1,1) hands its smallest vertex to the
    # under-full cell (1,2) along a one-edge path; nothing else moves
    G, Y = complete_host_structure(2, 2, 10)
    targets = {(1, 1): 9, (1, 2): 11, (2, 1): 10, (2, 2): 10}
    X = lemma_g(G, Y, targets, eps=0.3, delta=0.4)
    assert X == {
        (1, 1): tuple(range(1, 10)),
        (1, 2): (0, *range(10, 20)),
        (2, 1): tuple(range(20, 30)),
        (2, 2): tuple(range(30, 40)),
    }


def test_reallocation_zero_deviation_no_moves():
    G, Y = complete_host_structure(4, 2, 10)
    X = lemma_g(G, Y, sizes(Y), eps=0.2, delta=0.4)
    assert all(not vs for vs in moved_into(Y, X).values())


def test_reallocation_shift_three_vertices_exact_targets():
    G, Y = complete_host_structure(4, 2, 40)
    targets = sizes(Y)
    targets[(1, 1)] -= 3
    targets[(4, 1)] += 3
    X = lemma_g(G, Y, targets, eps=0.4, delta=0.4)
    assert sizes(X) == targets
    assert sum(len(vs) for vs in moved_into(Y, X).values()) == 3


def test_reallocation_every_move_was_valid():
    G, Y = planted_structure(2, 2, 40, p_in=0.8, p_btw=0.7, seed=8)
    targets = sizes(Y)
    targets[(1, 2)] -= 1
    targets[(4, 2)] += 1
    X = lemma_g(G, Y, targets, eps=0.2, delta=0.5)
    moved = moved_into(Y, X)
    assert sum(len(vs) for vs in moved.values()) >= 1
    for cell, vs in moved.items():
        for v in vs:
            assert is_valid_move(G, v, cell, Y, 0.5, 0.2, 40)


def blocked_host():
    # m = 10, eps = 0.2, delta = 0.5: a move needs a degree of at least
    # (delta - 2*eps)*m = 1 into each other cell of the target's row, and
    # a cell may drift by eps*m = 2.  Clusters (1,2) and (2,1) see nothing
    # of each other, so no vertex of (2,1) may move into (1,1).
    G, Y = complete_host_structure(4, 2, 10)
    G = without_edges(G, [(u, v) for u in Y[(1, 2)] for v in Y[(2, 1)]])
    return G, Y


def test_reallocation_takes_a_path_when_the_direct_move_is_invalid():
    G, Y = blocked_host()
    targets = sizes(Y)
    targets[(2, 1)] -= 1  # over-full
    targets[(1, 1)] += 1  # under-full
    X = lemma_g(G, Y, targets, eps=0.2, delta=0.5)
    assert not any(is_valid_move(G, v, (1, 1), Y, 0.5, 0.2, 10) for v in Y[(2, 1)])
    # the shortest path is (2,1) -> (1,2) -> (1,1), each edge moving its
    # smallest valid vertex
    moved = moved_into(Y, X)
    assert moved[(1, 1)] == {Y[(1, 2)][0]}
    assert moved[(1, 2)] == {Y[(2, 1)][0]}
    assert sum(len(vs) for vs in moved.values()) == 2
    assert sizes(X) == targets


def test_reallocation_refusal_names_the_cell_left_over_full():
    G, Y = complete_host_structure(4, 2, 10)
    # isolated vertices may move nowhere
    G = without_edges(G, [(u, v) for u in Y[(2, 1)] for v in range(G.n)])
    targets = sizes(Y)
    targets[(2, 1)] -= 1
    targets[(1, 1)] += 1
    with pytest.raises(StageFailure, match=r"lemma-g: cell \(2,1\) left over-full by 1"):
        lemma_g(G, Y, targets, eps=0.2, delta=0.5)


# -- lemma_g end to end ----------------------------------------------------


def test_lemma_g_identity_targets():
    G, Y = complete_host_structure(4, 2, 10)
    X = lemma_g(G, Y, sizes(Y), eps=0.2, delta=0.4)
    assert {cell: set(vs) for cell, vs in X.items()} == {cell: set(vs) for cell, vs in Y.items()}


def test_lemma_g_planted_with_perturbation():
    G, Y = planted_structure(2, 2, 40, p_in=0.8, p_btw=0.7, seed=9)
    targets = sizes(Y)
    # shift one unit between two cells, preserving the total
    targets[(1, 1)] -= 1
    targets[(3, 2)] += 1
    X = lemma_g(G, Y, targets, eps=0.25, delta=0.5)
    assert sizes(X) == targets
    # the cells of X partition V(G)
    placed = [v for cluster in X.values() for v in cluster]
    assert sorted(placed) == list(range(G.n))


def test_lemma_g_rejects_drifted_targets():
    # moving 5 vertices out of one cell drifts it beyond eps*m = 2
    G, Y = complete_host_structure(4, 2, 10)
    targets = sizes(Y)
    targets[(1, 1)] -= 5
    targets[(1, 2)] += 5
    with pytest.raises(StageFailure, match="drifted by 5"):
        lemma_g(G, Y, targets, eps=0.2, delta=0.4)


def test_lemma_g_rejects_targets_that_lose_vertices():
    G, Y = complete_host_structure(4, 2, 10)
    targets = sizes(Y)
    targets[(1, 1)] -= 1
    with pytest.raises(StageFailure, match="sum to n"):
        lemma_g(G, Y, targets, eps=0.2, delta=0.4)


def test_lemma_g_refuses_targets_that_miss_a_cell():
    # a missing target used to escape as a bare KeyError
    G = DenseGraph.complete(8)
    with pytest.raises(StageFailure) as exc:
        lemma_g(G, {(1, 1): (0, 1, 2, 3), (1, 2): (4, 5, 6, 7)}, {(1, 1): 8}, 0.2, 0.4)
    assert (exc.value.stage, exc.value.detail) == ("lemma-g", "no target for cell (1, 2)")


def test_lemma_g_requires_spanning():
    # one host vertex outside every cluster
    _, Y = complete_host_structure(4, 2, 10)
    G = DenseGraph.complete(81)
    with pytest.raises(StageFailure, match="clusters hold 80 != n = 81 vertices") as exc:
        lemma_g(G, Y, sizes(Y), eps=0.2, delta=0.4)
    assert exc.value.stage == "lemma-g"


@pytest.mark.parametrize(
    "clusters, named",
    [
        ({(1, 1): (0, 1), (1, 2): (1, 2)}, "vertex 1 lies in two clusters"),
        ({(1, 1): (0, 1), (1, 2): (2, 4)}, "vertex 4 lies outside 0..3"),
    ],
)
def test_lemma_g_refuses_clusters_that_overlap_or_leave_g(clusters, named):
    # both hold n = 4 vertices in cells of one size, and miss vertex 3
    with pytest.raises(StageFailure) as exc:
        lemma_g(DenseGraph.complete(4), clusters, {(1, 1): 2, (1, 2): 2}, 0.1, 0.2)
    assert (exc.value.stage, exc.value.detail) == ("lemma-g", named)


def test_lemma_g_conservation():
    # several units shifted at once: every vertex stays placed exactly once
    G, Y = planted_structure(2, 2, 30, seed=10)
    targets = sizes(Y)
    targets[(1, 1)] -= 1
    targets[(2, 2)] -= 1
    targets[(3, 1)] += 2
    X = lemma_g(G, Y, targets, eps=0.25, delta=0.4)
    assert sorted(v for vs in X.values() for v in vs) == list(range(G.n))
    assert sum(sizes(X).values()) == G.n
