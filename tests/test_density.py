import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanembed import density
from spanembed.density import (
    DensityParams,
    cliques,
    find_clique,
    is_locally_dense_exact,
    is_locally_dense_sampled,
    local_deficit,
)
from spanembed.generators import clique_factor_extremal, complete_bipartite, gnp, two_cliques
from spanembed.graphs import DenseGraph, InvalidParameters, bits, make_named, mask_of


def brute_locally_dense(G, p):
    """Independent subset-by-subset recount (shares no code with the checker)."""
    n = G.n
    for size in range(n + 1):
        for X in itertools.combinations(range(n), size):
            e = sum(
                1 for u, v in itertools.combinations(X, 2) if G.has_edge(u, v)
            )
            if e < p.d * size * (size - 1) / 2 - p.rho * n * n:
                return False, X
    return True, None


@pytest.mark.parametrize(
    "call",
    [
        lambda G: DensityParams(-1, 0.3),
        lambda G: DensityParams(0.05, 0),
        lambda G: is_locally_dense_sampled(G, DensityParams(0.05, 0.3), trials=0),
        lambda G: cliques(G, 0),
        lambda G: find_clique(G, -1),
        lambda G: find_clique(G, 2, within=(1 << 12) | 3),
        lambda G: find_clique(G, 2, within=1 << 12, rng=random.Random(0)),
        lambda G: find_clique(G, 0, within=-1),
        lambda G: cliques(G, 2, within=1 << 12),
        lambda G: cliques(G, 2, within=1 << 5),
    ],
    ids=[
        "rho", "d", "trials", "clique-order", "clique-size",
        "clique-scope", "clique-scope-rng", "clique-scope-negative",
        "enumerate-scope", "enumerate-scope-at-n",
    ],
)
def test_bad_parameters_raise_invalid_parameters(call):
    with pytest.raises(InvalidParameters):
        call(DenseGraph.complete(5))


# -- exact local density ------------------------------------------------------


def test_complete_graph_is_1_dense():
    G = DenseGraph.complete(8)
    assert is_locally_dense_exact(G, DensityParams(0.0, 1.0)) is None


def test_edgeless_graph_violates_with_full_witness():
    G = DenseGraph.empty(8)
    witness = is_locally_dense_exact(G, DensityParams(0.01, 0.5))
    assert witness is not None
    # a minimum-size violating subset: d*C(k,2) > rho*n^2 first at k=2
    k = len(witness)
    assert 0.5 * k * (k - 1) / 2 > 0.01 * 64
    assert 0.5 * (k - 1) * (k - 2) / 2 <= 0.01 * 64


def test_two_disjoint_k4_pass():
    G = two_cliques(8)
    assert is_locally_dense_exact(G, DensityParams(0.2, 0.5)) is None


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_exact_checker_matches_bruteforce(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    G = gnp(n, rng.random(), seed)
    p = DensityParams(rng.uniform(0, 0.05), rng.uniform(0.1, 1.0))
    expected_ok, _ = brute_locally_dense(G, p)
    witness = is_locally_dense_exact(G, p)
    assert (witness is None) == expected_ok
    if witness is not None:
        assert local_deficit(G, mask_of(witness), p) < 0


def test_exact_checker_witness_has_minimum_size():
    rng = random.Random(5)
    for seed in range(12):
        n = rng.randint(3, 9)
        G = gnp(n, 0.35, seed)
        p = DensityParams(0.005, 0.9)
        witness = is_locally_dense_exact(G, p)
        ok, _ = brute_locally_dense(G, p)
        assert (witness is None) == ok
        if witness is not None:
            k = len(witness)
            for size in range(k):
                for X in itertools.combinations(range(n), size):
                    e = sum(
                        1
                        for u, v in itertools.combinations(X, 2)
                        if G.has_edge(u, v)
                    )
                    assert e >= p.d * size * (size - 1) / 2 - p.rho * n * n


def test_exact_threshold_enforced():
    with pytest.raises(InvalidParameters):
        is_locally_dense_exact(DenseGraph.empty(23), DensityParams(0, 0.5))


def test_monotonicity_in_params():
    rng = random.Random(11)
    for seed in range(20):
        n = rng.randint(3, 10)
        G = gnp(n, rng.random(), seed)
        rho, d = rng.uniform(0, 0.05), rng.uniform(0.2, 1.0)
        if is_locally_dense_exact(G, DensityParams(rho, d)) is None:
            worse = DensityParams(rho * rng.uniform(1, 3), d * rng.uniform(0.3, 1))
            assert is_locally_dense_exact(G, worse) is None


# -- sampled local density ---------------------------------------------------


def test_sampled_no_violation_on_complete():
    G = DenseGraph.complete(100)
    assert is_locally_dense_sampled(G, DensityParams(0.0, 1.0), trials=1000, seed=3) is None


def test_sampled_catches_edgeless_with_full_set():
    G = DenseGraph.empty(100)
    witness = is_locally_dense_sampled(G, DensityParams(0.001, 0.5), trials=10, seed=0)
    assert witness == tuple(range(100))


def test_sampled_agrees_with_exact_on_small_instances():
    rng = random.Random(7)
    for seed in range(15):
        n = rng.randint(4, 12)
        G = gnp(n, rng.random(), seed)
        p = DensityParams(rng.uniform(0, 0.03), rng.uniform(0.3, 0.9))
        exact = is_locally_dense_exact(G, p)
        sampled = is_locally_dense_sampled(G, p, trials=400, seed=seed)
        if exact is None:
            # sampled may not certify, but must not fabricate a violation
            assert sampled is None
        if sampled is not None:
            assert local_deficit(G, mask_of(sampled), p) < 0


def test_sampled_no_false_violation_on_random_dense():
    G = gnp(100, 0.5, 7)
    assert is_locally_dense_sampled(G, DensityParams(0.05, 0.3), trials=1000, seed=7) is None


def _reference_greedy_sparse_subsets(G, limit):
    """The greedy prefixes as the sampled check built them when it counted
    every candidate's edges (reference for the equivalence test below)."""
    n = G.n
    if n == 0:
        return
    order = sorted(range(n), key=lambda v: (G.degree(v), v))
    cmask = 0
    remaining = set(range(n))
    cur = order[0]
    for _ in range(min(n, limit)):
        cmask |= 1 << cur
        remaining.discard(cur)
        yield cmask
        if not remaining:
            break
        cur = min(remaining, key=lambda v: (G.degree_into(v, cmask), G.degree(v), v))


def _reference_sampled(G, p, trials, seed):
    """The sampled check scoring every candidate with ``local_deficit``: its
    violating subset or None, and the number of non-empty candidates it
    scored, which tells the family of a violation."""
    rng = random.Random(seed)
    n = G.n
    full = G.full_mask()
    checked = 0

    def test(mask):
        nonlocal checked
        if mask == 0:
            return None
        checked += 1
        if local_deficit(G, mask, p) < 0:
            return tuple(bits(mask)), checked
        return None

    bad = test(full)
    if bad is not None:
        return bad
    sample_vs = list(range(n)) if n <= 64 else rng.sample(range(n), 64)
    for v in sample_vs:
        bad = test(full & ~G.rows[v] & ~(1 << v))
        if bad is not None:
            return bad
    for mask in _reference_greedy_sparse_subsets(
        G, limit=min(n, 4 * int(math.isqrt(n)) + 8)
    ):
        bad = test(mask)
        if bad is not None:
            return bad
    for _ in range(trials):
        mask = rng.getrandbits(n) & full
        bad = test(mask)
        if bad is not None:
            return bad
    return None, checked


def _anti_neighbourhoods(G, seed):
    """The anti-neighbourhood candidates, drawn as the sampled check draws them."""
    rng = random.Random(seed)
    n = G.n
    vs = list(range(n)) if n <= 64 else rng.sample(range(n), 64)
    return rng, [G.full_mask() & ~G.rows[v] & ~(1 << v) for v in vs]


def _first_violating_family(G, seed, checked):
    anti = sum(1 for m in _anti_neighbourhoods(G, seed)[1] if m)
    prefixes = min(G.n, 4 * math.isqrt(G.n) + 8)
    if checked == 1:
        return "full"
    if checked <= 1 + anti:
        return "anti-neighbourhood"
    if checked <= 1 + anti + prefixes:
        return "greedy"
    return "random"


SAMPLED_HOSTS = [
    *(gnp(n, pr, n) for n in (0, 1, 2, 7, 40, 63, 64, 65, 129, 300) for pr in (0.5, 0.9)),
    gnp(7, 0.5, 8),  # a sparse triple that only a random subset finds
    DenseGraph.complete(70),  # every anti-neighbourhood is empty and not counted
    DenseGraph.empty(40),
    complete_bipartite(20, 20),
    two_cliques(96),
    clique_factor_extremal(3, 96),
]
SAMPLED_PARAMS = [
    (0.0, 0.3),  # every k >= 2 can violate
    (0.0, 0.9),
    (0.001, 0.5),
    (0.01, 0.3),
    (0.02, 0.8),
    (0.05, 0.3),  # the pipeline's constants
    (5.0, 0.5),  # no size can violate
]


def test_sampled_matches_the_score_everything_reference(monkeypatch):
    built = 0
    real_prefixes = density._greedy_sparse_prefixes

    def counting_prefixes(G, limit):
        nonlocal built
        built += 1
        return real_prefixes(G, limit)

    monkeypatch.setattr(density, "_greedy_sparse_prefixes", counting_prefixes)
    families = set()
    for G in SAMPLED_HOSTS:
        for rho, d in SAMPLED_PARAMS:
            p = DensityParams(rho, d)
            for seed in (0, 1):
                for trials in (1, 50):
                    got = is_locally_dense_sampled(G, p, trials=trials, seed=seed)
                    want, checked = _reference_sampled(G, p, trials, seed)
                    assert got == want, (G.n, rho, d, seed, trials)
                    if want is not None:
                        families.add(_first_violating_family(G, seed, checked))
    assert families == {"full", "anti-neighbourhood", "greedy", "random"}
    assert built > 0


@pytest.mark.parametrize("rho", [0.05, 0.01])
def test_sampled_counts_edges_only_where_the_size_can_violate(monkeypatch, rho):
    """Only candidates whose size k has d*C(k,2) > rho n^2 are counted with
    ``edges_within``; the full set takes the stored edge count and the
    prefixes a running sum."""
    G = gnp(480, 0.97, 1)
    n, d, trials, seed = G.n, 0.3, 300, 1
    rng, anti = _anti_neighbourhoods(G, seed)
    randoms = [rng.getrandbits(n) & G.full_mask() for _ in range(trials)]

    def can_violate(mask):
        return d * math.comb(mask.bit_count(), 2) > rho * n * n

    scored = 0
    real_edges_within = DenseGraph.edges_within

    def counting_edges_within(self, mask):
        nonlocal scored
        scored += 1
        return real_edges_within(self, mask)

    monkeypatch.setattr(DenseGraph, "edges_within", counting_edges_within)
    assert is_locally_dense_sampled(G, DensityParams(rho, d), trials=trials, seed=seed) is None
    assert scored == sum(1 for m in anti + randoms if m and can_violate(m))


# -- ordered incidences ------------------------------------------------------


def test_uniform_ordered_incidence_convention():
    # e_G(X,X) counts each inside edge twice
    G = DenseGraph.complete(4)
    full = G.full_mask()
    assert G.edges_between(full, full) == 2 * G.edge_count()


# -- clique search -----------------------------------------------------------


def test_all_triangles_of_k10():
    G = DenseGraph.complete(10)
    out = list(cliques(G, 3))
    assert len(out) == math.comb(10, 3)
    assert all(G.common_neighborhood(c).bit_count() == 7 and G.is_clique(c) for c in out)
    # lexicographic order on sorted vertex tuples
    assert out == sorted(out) == list(itertools.combinations(range(10), 3))


def test_triangle_free_host_yields_nothing():
    G = make_named("C", [1, 6])
    assert list(cliques(G, 3)) == []


def test_two_cliques_edges():
    G = two_cliques(10)
    out = list(cliques(G, 2))
    assert len(out) == 2 * math.comb(5, 2)
    assert all(G.common_neighborhood(c).bit_count() == 3 for c in out)


def test_cliques_stream_stops_where_the_caller_stops():
    # the first five triangles of K_10; and the first K_5 of K_200 without
    # walking the C(200, 5) others
    out = list(itertools.islice(cliques(DenseGraph.complete(10), 3), 5))
    assert out == list(itertools.islice(itertools.combinations(range(10), 3), 5))
    assert next(cliques(DenseGraph.complete(200), 5)) == (0, 1, 2, 3, 4)


def test_within_mask_restricts_vertices():
    G = DenseGraph.complete(8)
    scope = mask_of(range(4))
    out = list(cliques(G, 2, within=scope))
    assert all(set(c) <= set(range(4)) for c in out)
    assert len(out) == math.comb(4, 2)


def test_find_clique_in_dense_graph():
    G = gnp(60, 0.8, 1)
    got = find_clique(G, 6)
    assert got is not None and G.is_clique(got)
    assert find_clique(make_named("C", [1, 8]), 3) is None


def _find_clique_shuffled(
    G: DenseGraph,
    size: int,
    within: int | None = None,
    node_budget: int = 200_000,
    rng: random.Random | None = None,
    lazy: bool = False,
) -> tuple[int, ...] | None:
    """``find_clique`` as it was when the seeded order was a full per-node
    shuffle; the reference for the unchanged ``rng=None`` order.  With
    ``lazy`` the seeded order draws as ``find_clique`` now does, by
    ``density._shuffled_bits``: the reference for its seeded search."""
    if size < 0:
        raise ValueError("size must be >= 0")
    if size == 0:
        return ()
    scope = G.full_mask() if within is None else within
    rows = G.rows
    budget = node_budget

    def order(candidates: int):
        if rng is None:
            return sorted(
                bits(candidates),
                key=lambda v: (-(rows[v] & candidates).bit_count(), v),
            )
        if lazy:
            return density._shuffled_bits(candidates, rng)
        out = list(bits(candidates))
        rng.shuffle(out)
        return out

    def rec(chosen: list[int], candidates: int) -> tuple[int, ...] | None:
        nonlocal budget
        if len(chosen) == size:
            return tuple(sorted(chosen))
        if candidates.bit_count() < size - len(chosen):
            return None
        if budget <= 0:
            return None
        budget -= 1
        for v in order(candidates):
            chosen.append(v)
            got = rec(chosen, candidates & rows[v])
            chosen.pop()
            if got is not None:
                return got
            candidates &= ~(1 << v)
            if candidates.bit_count() < size - len(chosen):
                return None
        return None

    return rec([], scope)


def _recursive_clique_search(G, size, scope, order, budget):
    """``density._clique_search`` as it was before its explicit stack: a
    recursive generator, one generator per node, each clique passed up
    through ``size`` nested ``yield from`` frames.  The reference for the
    stack search's cliques, their order, its ``order`` calls and its budget."""
    rows = G.rows

    def rec(chosen, candidates):
        nonlocal budget
        if len(chosen) == size:
            yield tuple(sorted(chosen))
            return
        if candidates.bit_count() < size - len(chosen) or budget <= 0:
            return
        budget -= 1
        for v in order(candidates):
            chosen.append(v)
            yield from rec(chosen, candidates & rows[v])
            chosen.pop()
            candidates &= ~(1 << v)
            if candidates.bit_count() < size - len(chosen):
                return

    return rec([], scope)


def _sorted_by_degree(rows):
    """The degree order as one full sort per node, as ``find_clique`` took it
    before ``density._by_degree``."""
    return lambda candidates: sorted(
        bits(candidates), key=lambda v: (-(rows[v] & candidates).bit_count(), v)
    )


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the raw draws behind every method."""

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)

    def random(self):
        self.draws += 1
        return super().random()


# More DFS nodes than a host with n <= 12 has subsets: the search is complete.
EXHAUSTIVE = 1 << 13


@st.composite
def clique_queries(draw):
    n = draw(st.integers(0, 12))
    G = gnp(n, draw(st.sampled_from([0.3, 0.6, 0.85, 1.0])), draw(st.integers(0, 10**6)))
    within = draw(st.integers(0, (1 << n) - 1))
    return G, within, draw(st.integers(1, 6)), draw(st.integers(0, 10**6))


def assert_clique_in(G, got, size, within):
    assert isinstance(got, tuple) and len(got) == size
    assert list(got) == sorted(set(got))
    assert mask_of(got) & ~within == 0
    assert G.is_clique(got)


@given(clique_queries())
@settings(max_examples=150, deadline=None)
def test_find_clique_seeded_finds_a_clique_iff_one_exists(query):
    G, within, size, seed = query
    exists = any(
        G.is_clique(c) for c in itertools.combinations(bits(within), size)
    )
    plain = find_clique(G, size, within=within, node_budget=EXHAUSTIVE)
    seeded = find_clique(
        G, size, within=within, node_budget=EXHAUSTIVE, rng=random.Random(seed)
    )
    assert (plain is not None) == (seeded is not None) == exists
    for got in (plain, seeded):
        if got is not None:
            assert_clique_in(G, got, size, within)
    assert plain == _find_clique_shuffled(G, size, within=within, node_budget=EXHAUSTIVE)


@given(clique_queries(), st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_find_clique_tiny_budget_returns_none_or_a_clique(query, budget):
    G, within, size, seed = query
    plain = find_clique(G, size, within=within, node_budget=budget)
    rng, reference_rng = random.Random(seed), random.Random(seed)
    seeded = find_clique(G, size, within=within, node_budget=budget, rng=rng)
    for got in (plain, seeded):
        if got is not None:
            assert_clique_in(G, got, size, within)
    assert plain == _find_clique_shuffled(G, size, within=within, node_budget=budget)
    # siblings of a node met with no budget left are still drawn
    assert seeded == _find_clique_shuffled(
        G, size, within=within, node_budget=budget, rng=reference_rng, lazy=True
    )
    assert rng.getstate() == reference_rng.getstate()


@given(clique_queries())
@settings(max_examples=150, deadline=None)
def test_clique_search_matches_the_recursive_reference(query):
    G, within, size, seed = query
    reference_order = _sorted_by_degree(G.rows)
    assert list(cliques(G, size, within)) == list(
        _recursive_clique_search(G, size, within, bits, math.inf)
    )
    assert list(
        density._clique_search(
            G, size, within, lambda c: density._by_degree(G.rows, c), math.inf
        )
    ) == list(_recursive_clique_search(G, size, within, reference_order, math.inf))
    streams = []
    for search in (density._clique_search, _recursive_clique_search):
        rng = CountingRandom(seed)
        found = list(search(G, size, within, lambda c: density._shuffled_bits(c, rng), math.inf))
        streams.append((found, rng.draws))
    assert streams[0] == streams[1]
    for budget in range(9):
        want = next(_recursive_clique_search(G, size, within, reference_order, budget), None)
        assert find_clique(G, size, within=within, node_budget=budget) == want
        rng, reference_rng = CountingRandom(seed), CountingRandom(seed)
        seeded = find_clique(G, size, within=within, node_budget=budget, rng=rng)
        want = next(
            _recursive_clique_search(
                G, size, within, lambda c: density._shuffled_bits(c, reference_rng), budget
            ),
            None,
        )
        assert seeded == want
        assert rng.draws == reference_rng.draws
        assert rng.getstate() == reference_rng.getstate()


@given(clique_queries())
@settings(max_examples=150, deadline=None)
def test_cliques_match_the_brute_force_list(query):
    G, within, r, _ = query
    want = [c for c in itertools.combinations(bits(within), r) if G.is_clique(c)]
    assert list(cliques(G, r, within)) == want


def test_find_clique_seeded_first_pick_is_uniform():
    # With size 1 on K_8 the clique returned is the first vertex drawn.  The
    # bound 24.32 is the 0.999 quantile of chi-square with 7 degrees of
    # freedom, fixed before the test was first run.
    n, runs = 8, 4000
    G = DenseGraph.complete(n)
    counts = [0] * n
    for seed in range(runs):
        (v,) = find_clique(G, 1, rng=random.Random(seed))
        counts[v] += 1
    expected = runs / n
    assert sum((c - expected) ** 2 / expected for c in counts) < 24.32


def test_find_clique_seeded_draws_only_the_prefix_it_uses():
    # K_5 in K_200: each node's first child succeeds, so five draws suffice;
    # a shuffle of every node's candidate list takes at least one raw draw
    # per swap, 199 + 198 + 197 + 196 + 195 = 985.
    G = DenseGraph.complete(200)
    for seed in range(10):
        rng = CountingRandom(seed)
        assert_clique_in(G, find_clique(G, 5, rng=rng), 5, G.full_mask())
        assert rng.draws <= 20
        shuffled = CountingRandom(seed)
        _find_clique_shuffled(G, 5, rng=shuffled)
        assert shuffled.draws >= 985


def test_find_clique_seeded_tries_each_candidate_once():
    # No K_2 in an edgeless host: the root tries n - 1 distinct vertices
    # before one is left (each draw takes under two raw draws on average).
    # Redrawing a tried vertex would need ~n ln n draws to see n - 1 of them.
    n = 40
    G = DenseGraph.empty(n)
    for seed in range(10):
        rng = CountingRandom(seed)
        assert find_clique(G, 2, rng=rng) is None
        assert n - 1 <= rng.draws <= 2 * (n - 1)


def _lazy_shuffle(pool: list[int], rng: random.Random):
    """The listed lazy Fisher–Yates draw ``find_clique`` made before its draw
    became sparse: the reference for ``density._shuffled_bits``."""
    while pool:
        i = rng.randrange(len(pool))
        v = pool[i]
        pool[i] = pool[-1]
        pool.pop()
        yield v


@given(st.integers(0, 40).flatmap(lambda n: st.integers(0, (1 << n) - 1)), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_shuffled_bits_replays_the_lazy_shuffle(mask, seed):
    # every prefix: the same vertices, and the generator left in the same state
    full = list(_lazy_shuffle(list(bits(mask)), random.Random(seed)))
    assert sorted(full) == list(bits(mask))
    for k in range(len(full) + 2):
        sparse, listed = random.Random(seed), random.Random(seed)
        got = list(itertools.islice(density._shuffled_bits(mask, sparse), k))
        want = list(itertools.islice(_lazy_shuffle(list(bits(mask)), listed), k))
        assert got == want == full[:k]
        assert sparse.getstate() == listed.getstate()


# -- induced-subgraph density property (hereditary check) --------------------


def test_induced_density_property_on_small_instances():
    rng = random.Random(3)
    for seed in range(8):
        n = rng.randint(6, 10)
        G = gnp(n, 0.7, seed)
        p = DensityParams(0.02, 0.4)
        if is_locally_dense_exact(G, p) is not None:
            continue
        size = rng.randint(3, n - 1)
        U = rng.sample(range(n), size)
        H, _ = G.induced(U)
        alpha = size / n
        # induced graphs stay dense at rho scaled by 1/alpha^2
        assert is_locally_dense_exact(H, DensityParams(p.rho / alpha**2, p.d)) is None
