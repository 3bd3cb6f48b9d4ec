import pytest

from spanembed.generators import (
    BandwidthedH,
    clique_factor_extremal,
    complete_bipartite,
    cycle_power_H,
    gnp,
    path_power_H,
    planted_multipartite,
    random_bipartite,
    random_window_H,
    tiling_H,
    two_cliques,
)
from spanembed.graphs import InvalidParameters, mask_of


def test_gnp_is_a_function_of_its_seed():
    assert gnp(60, 0.5, 3) == gnp(60, 0.5, 3)
    assert gnp(60, 0.5, 3) != gnp(60, 0.5, 4)


def test_random_window_H_is_a_function_of_its_seed():
    a, b = random_window_H(80, 4, 3, 3, seed=5), random_window_H(80, 4, 3, 3, seed=5)
    assert a.H == b.H and a.colouring == b.colouring
    c = random_window_H(80, 4, 3, 3, seed=6)
    assert (c.H, c.colouring) != (a.H, a.colouring)


@pytest.mark.parametrize("window, max_degree", [(1, 2), (4, 3), (9, 5)])
def test_random_window_H_keeps_its_degree_cap_and_window(window, max_degree):
    for seed in range(5):
        Hb = random_window_H(120, window, max_degree, 3, seed=seed)
        assert Hb.H.edge_count() > 0
        assert max(Hb.H.degree(v) for v in range(Hb.n)) <= max_degree
        assert all(0 < v - u <= window for u, v in Hb.H.edges())


@pytest.mark.parametrize("r, n", [(2, 10), (3, 12), (4, 40)])
def test_clique_factor_extremal_has_one_vertex_too_many_in_its_independent_part(r, n):
    G = clique_factor_extremal(r, n)
    part = [0] + [v for v in range(1, n) if not G.has_edge(0, v)]
    assert len(part) == n // r + 1
    assert all(G.rows[v] & mask_of(part) == 0 for v in part)
    # every other vertex sees the whole graph
    assert all(G.degree(v) == n - 1 for v in range(n) if v not in part)


def test_clique_factor_extremal_needs_r_to_divide_n():
    with pytest.raises(InvalidParameters):
        clique_factor_extremal(3, 10)


@pytest.mark.parametrize("r_pow, n", [(1, 9), (2, 10), (3, 30)])
def test_cycle_power_H_needs_r_plus_one_to_divide_n(r_pow, n):
    with pytest.raises(InvalidParameters):
        cycle_power_H(r_pow, n)


@pytest.mark.parametrize(
    "make",
    [
        lambda: path_power_H(1, 0),
        lambda: cycle_power_H(1, 0),
        lambda: tiling_H(3, 0),
        lambda: tiling_H(0, 5),
        lambda: random_window_H(0, 4, 3, 3),
        lambda: random_window_H(10, 0, 3, 3),
        lambda: cycle_power_H(-1, 4),
        lambda: path_power_H(-1, 4),
    ],
    ids=[
        "path-power-n0", "cycle-power-n0", "tiling-0-copies", "tiling-r0", "window-n0", "window-0",
        "cycle-power-r-1", "path-power-r-1",
    ],
)
def test_guest_generators_refuse_no_vertex_and_a_window_below_1(make):
    # the default beta divided by n = 0, and window 0 reached randint(1, 0);
    # an empty guest is built as a BandwidthedH directly
    with pytest.raises(InvalidParameters):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: gnp(-1, 0.5),
        lambda: random_bipartite(-1, 3, 0.5),
        lambda: complete_bipartite(-1, 3),
        lambda: two_cliques(-1),
        lambda: clique_factor_extremal(3, -3),
        lambda: clique_factor_extremal(0, 6),
        lambda: clique_factor_extremal(-1, 6),
        lambda: planted_multipartite(2, -1, 0.5),
    ],
    ids=[
        "gnp-n-1", "bipartite-a-1", "complete-bipartite-a-1", "two-cliques-n-1",
        "extremal-n-3", "extremal-r0", "extremal-r-1", "multipartite-m-1",
    ],
)
def test_host_generators_refuse_negative_counts_and_a_part_count_below_1(make):
    # numpy's ValueError, a ZeroDivisionError, a 2-vertex complete bipartite
    # graph and K_6 before
    with pytest.raises(InvalidParameters):
        make()


@pytest.mark.parametrize(
    "recolour",
    [
        lambda c: c[:-1],
        lambda c: c + (1,),
        lambda c: tuple(x - 1 for x in c),
    ],
    ids=["shorter-than-n", "longer-than-n", "zero-based"],
)
def test_bandwidthed_h_needs_one_colour_at_least_1_per_vertex(recolour):
    # a short colouring used to escape as a bare IndexError, and a long or
    # 0-based one was accepted (the 0-based one refused at basic-assignment)
    Hb = path_power_H(1, 96)
    assert BandwidthedH(Hb.H, Hb.order, Hb.colouring, Hb.beta) == Hb
    with pytest.raises(InvalidParameters, match="one colour >= 1"):
        BandwidthedH(Hb.H, Hb.order, recolour(Hb.colouring), Hb.beta)
