import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spanembed import connect
from spanembed.connect import (
    HypothesisViolation,
    bridging_cliques,
    connect_cliques,
    find_bridging_clique,
)
from spanembed.density import cliques
from spanembed.generators import complete_bipartite, gnp
from spanembed.graphs import (
    DenseGraph,
    InvalidParameters,
    StageFailure,
    WitnessSequence,
    mask_of,
    validate_witness,
)


def make_two_lobes(lobe=40, shared=20):
    """Two K_40s sharing `shared` vertices."""
    n = 2 * lobe - shared
    edges = set()
    left = range(0, lobe)
    right = range(lobe - shared, n)
    for block in (left, right):
        bs = list(block)
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                edges.add((bs[i], bs[j]))
    return DenseGraph.from_edges(n, edges)


# -- find_bridging_clique ------------------------------------------------------


def test_bridge_in_complete_host():
    G = DenseGraph.complete(60)
    X, Y = [0, 1], [2, 3]
    Z = find_bridging_clique(G, G.full_mask(), X, Y, 0, r=2, eta=0.4)
    assert len(Z) == 2 and G.is_clique(Z)
    assert not set(Z) & (set(X) | set(Y))
    assert mask_of(X + Y) & ~G.common_neighborhood(Z) == 0


def test_bridge_bucket_independent_set_fails():
    # X, Y on one side of a complete bipartite host, U the other side:
    # every U-vertex sees all of X ∪ Y, and U is independent.
    G = complete_bipartite(30, 30)
    side1 = list(range(30))
    X, Y = [30, 31], [32, 33]
    with pytest.raises(StageFailure) as exc:
        find_bridging_clique(G, mask_of(side1), X, Y, 0, r=2, eta=0.4)
    assert exc.value.stage == "no-clique-in-bucket"


def test_bridge_reports_degree_violation():
    G = DenseGraph.empty(40)
    with pytest.raises(HypothesisViolation) as exc:
        find_bridging_clique(G, mask_of(range(20)), [20, 21], [22, 23], 0, 2, 0.2)
    assert exc.value.stage == "half-degree"


def test_bridge_no_high_attachment():
    # each end sees 6 of the 10 vertices of U, which meets the half-degree
    # hypothesis, but the common neighbourhood of X = {10, 11} is {4, 5},
    # which Y = {12, 13} misses
    sees = {10: range(0, 6), 11: range(4, 10), 12: (0, 1, 2, 3, 6, 7), 13: (0, 1, 2, 3, 8, 9)}
    G = DenseGraph.from_edges(14, [(a, u) for a, us in sees.items() for u in us])
    with pytest.raises(StageFailure) as exc:
        find_bridging_clique(G, mask_of(range(10)), [10, 11], [12, 13], 0, 2, 0.05)
    assert exc.value.stage == "no-high-attachment"


def test_bridge_respects_w():
    G = DenseGraph.complete(40)
    W = mask_of(range(6, 30))
    Z = find_bridging_clique(G, G.full_mask(), [0, 1, 2], [3, 4, 5], W, 3, 0.3)
    assert Z == (30, 31, 32)


def test_bridge_requires_equal_sides():
    G = DenseGraph.complete(30)
    with pytest.raises(HypothesisViolation):
        find_bridging_clique(G, mask_of(range(30)), [0, 1, 2], [3, 4], 0, 2, 0.3)


def test_bridge_requires_ends_of_r_vertices():
    # equal sides of the wrong size: the ends of a bridge are r-cliques' worth
    G = DenseGraph.complete(30)
    for X, Y in (([0, 1, 2], [3, 4, 5]), ([0], [1])):
        with pytest.raises(HypothesisViolation) as exc:
            find_bridging_clique(G, mask_of(range(30)), X, Y, 0, 2, 0.3)
        assert exc.value.stage == "attachment-sets"


def test_bridge_deterministic():
    G = gnp(80, 0.8, 3)
    X, Y = [0, 1], [2, 3]
    # make X, Y fully attached so the precondition holds
    rows = list(G.rows)
    for x in X + Y:
        for v in range(4, 80):
            rows[x] |= 1 << v
            rows[v] |= 1 << x
    G = DenseGraph(80, rows, check=False)
    b1 = find_bridging_clique(G, mask_of(range(4, 80)), X, Y, 0, 2, 0.2)
    b2 = find_bridging_clique(G, mask_of(range(4, 80)), X, Y, 0, 2, 0.2)
    assert b1 == b2


def _reference_bridges(G, U, X, Y, W, r, eta):
    """(cliques, closing stage) of ``bridging_cliques``, by brute force: the
    vertices of U outside X ∪ Y ∪ W adjacent to each of X ∪ Y, one by one,
    and the first 64 of their r-subsets that span cliques."""
    U = range(G.n) if U is None else U
    for x in X + Y:
        if sum(G.has_edge(x, u) for u in U) < (0.5 + eta) * len(U):
            return [], "half-degree"
    M = [
        v
        for v in sorted(U)
        if v not in X + Y + W and all(G.has_edge(v, a) for a in X + Y)
    ]
    if not M:
        return [], "no-high-attachment"
    cliques = (
        Z
        for Z in itertools.combinations(M, r)
        if all(G.has_edge(a, b) for a, b in itertools.combinations(Z, 2))
    )
    return list(itertools.islice(cliques, 64)), "no-clique-in-bucket"


@st.composite
def bridge_queries(draw):
    n = draw(st.integers(2, 30))
    G = gnp(n, draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])), draw(st.integers(0, 10**6)))
    order = draw(st.permutations(range(n)))
    r = draw(st.integers(1, min(3, n // 2)))
    X, Y = list(order[:r]), list(order[r : 2 * r])
    rest = order[2 * r :]
    W = sorted(draw(st.lists(st.sampled_from(rest), unique=True))) if rest else []
    U = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    # eta = -1/2 waives the half-degree hypothesis, so most queries search
    eta = draw(st.sampled_from([-0.5, -0.5, 0.0]))
    return G, U, X, Y, W, r, eta


@given(bridge_queries())
@example((DenseGraph.complete(20), None, [0, 1], [2, 3], [], 2, 0.0))  # 120 K_2's in M
@settings(max_examples=300, deadline=None)
def test_bridging_cliques_match_the_brute_force_reference(query):
    G, U, X, Y, W, r, eta = query
    got = []
    # the reference reads U and W as lists, the connector as masks
    draws = bridging_cliques(G, None if U is None else mask_of(U), X, Y, mask_of(W), r, eta)
    with pytest.raises(StageFailure) as exc:
        while True:
            got.append(next(draws))
    assert (got, exc.value.stage) == _reference_bridges(G, U, X, Y, W, r, eta)


def test_bridging_cliques_start_with_the_bridge_found():
    G = gnp(80, 0.8, 3)
    X, Y, W = [0, 1], [2, 3], mask_of([4, 5])
    U = mask_of(range(4, 80))
    found = find_bridging_clique(G, U, X, Y, W, 2, 0.0)
    listed = list(itertools.islice(bridging_cliques(G, U, X, Y, W, 2, 0.0), 40))
    assert listed[0] == found
    assert len(set(listed)) == len(listed) > 1
    for Z in listed:
        connect._revalidate_bridge(G, Z, mask_of(X), mask_of(Y), W, 2)


def test_bridging_cliques_end_with_the_failure_label():
    # X = {0} and Y = {1} both see U = {4, 5}: the K_1's (4,) and (5,),
    # then the list runs out; with W = U no vertex is left to attach
    G = DenseGraph.from_edges(6, [(0, 4), (0, 5), (1, 4), (1, 5)])
    draws = bridging_cliques(G, mask_of([4, 5]), [0], [1], 0, 1, 0.0)
    assert next(draws) == (4,)
    assert next(draws) == (5,)
    with pytest.raises(StageFailure) as exc:
        next(draws)
    assert exc.value.stage == "no-clique-in-bucket"
    with pytest.raises(StageFailure) as exc:
        next(bridging_cliques(G, mask_of([4, 5]), [0], [1], mask_of([4, 5]), 1, 0.0))
    assert exc.value.stage == "no-high-attachment"


# a mask with a bit outside 0..n-1, or a negative one, names a vertex the
# host does not have; each connector refuses it instead of folding it in
BAD_MASKS = [1 << 30, mask_of([0, 31]), -1, -(1 << 5)]


@pytest.mark.parametrize("bad", BAD_MASKS)
@pytest.mark.parametrize("where", ["U", "W"])
def test_bridging_cliques_refuse_a_mask_outside_the_host(where, bad):
    G = DenseGraph.complete(30)
    U, W = (bad, 0) if where == "U" else (None, bad)
    with pytest.raises(InvalidParameters, match=f"{where} has a bit outside 0..29"):
        next(bridging_cliques(G, U, [0, 1], [2, 3], W, 2, 0.0))


@pytest.mark.parametrize("bad", BAD_MASKS)
@pytest.mark.parametrize("where", ["U", "W"])
def test_find_bridging_clique_refuses_a_mask_outside_the_host(where, bad):
    G = DenseGraph.complete(30)
    U, W = (bad, 0) if where == "U" else (None, bad)
    with pytest.raises(InvalidParameters, match=f"{where} has a bit outside 0..29"):
        find_bridging_clique(G, U, [0, 1], [2, 3], W, 2, 0.0)


@pytest.mark.parametrize("bad", BAD_MASKS)
def test_connect_cliques_refuses_a_mask_outside_the_host(bad):
    with pytest.raises(InvalidParameters, match="W has a bit outside 0..29"):
        connect_cliques(DenseGraph.complete(30), [0, 1], [2, 3], bad, 2, 0.2, seed=0)


# -- connect_cliques -----------------------------------------------------


def check_connection(G, path, X, Y, r, W):
    seq = path.vertices
    assert len(seq) == 3 * r
    assert validate_witness(G, path) == ""
    assert validate_witness(G, WitnessSequence(tuple(sorted(X)) + seq, "path", r)) == ""
    assert validate_witness(G, WitnessSequence(seq + tuple(sorted(Y)), "path", r)) == ""
    assert not set(seq) & set(W)
    assert not set(seq) & (set(X) | set(Y))


def test_connect_complete_host():
    G = DenseGraph.complete(80)
    X, Y = [0, 1], [2, 3]
    path = connect_cliques(G, X, Y, 0, r=2, eta=0.4, seed=0)
    check_connection(G, path, X, Y, 2, [])


def test_connect_two_lobes_through_core():
    G = make_two_lobes()
    n = G.n
    X = [0, 1]          # deep in the left lobe
    Y = [n - 1, n - 2]  # deep in the right lobe
    path = connect_cliques(G, X, Y, 0, r=2, eta=0.1, seed=0)
    check_connection(G, path, X, Y, 2, [])
    # any left-to-right connection must route through the shared core:
    # only core vertices are adjacent to both lobes
    core = set(range(20, 40))
    assert set(path.vertices) & core


def first_clique_of_joint_degree(G, r, s, within):
    """The lexicographically first K_r inside ``within`` whose vertices have
    at least s common neighbours in G, as a list."""
    return list(next(c for c in cliques(G, r, within) if G.common_neighborhood(c).bit_count() >= s))


def test_connect_random_dense_with_avoid_set():
    G = gnp(150, 0.85, 9)
    rng = random.Random(9)
    lower = mask_of(range(G.n // 2))
    upper = mask_of(range(G.n // 2, G.n))
    X = first_clique_of_joint_degree(G, 3, int(0.2 * G.n), lower)
    Y = first_clique_of_joint_degree(G, 3, int(0.2 * G.n), upper)
    W = [v for v in rng.sample(range(G.n), 30) if v not in X + Y][:9]
    path = connect_cliques(G, X, Y, mask_of(W), r=3, eta=0.25, seed=0)
    check_connection(G, path, X, Y, 3, W)


def test_connect_deterministic():
    G = gnp(120, 0.8, 2)
    lower = mask_of(range(G.n // 2))
    upper = mask_of(range(G.n // 2, G.n))
    X = first_clique_of_joint_degree(G, 2, int(0.2 * G.n), lower)
    Y = first_clique_of_joint_degree(G, 2, int(0.2 * G.n), upper)
    assert connect_cliques(G, X, Y, 0, 2, 0.1, seed=0) == connect_cliques(G, X, Y, 0, 2, 0.1, seed=0)


def star_host(n=30):
    """X = {0, 1} sees every other vertex, and the only other edge is 23."""
    edges = [(0, v) for v in range(2, n)] + [(1, v) for v in range(2, n)] + [(0, 1)]
    return DenseGraph.from_edges(n, edges + [(2, 3)])


def test_connect_envelope_failure_on_sparse_host():
    # star-ish host: X extendable but its neighbourhood is an independent set
    G = star_host()
    with pytest.raises(StageFailure) as exc:
        connect_cliques(G, [0, 1], [2, 3], 0, 2, 0.2, seed=0)
    assert exc.value.stage in ("envelope-not-found", "no-clique-in-bucket")


def test_connect_raises_when_its_path_fails_revalidation(monkeypatch):
    # the emitted path is rechecked by an explicit test that survives -O
    monkeypatch.setattr(connect, "validate_witness", lambda G, w: "rejected")
    with pytest.raises(StageFailure) as exc:
        connect_cliques(DenseGraph.complete(40), [0, 1], [2, 3], 0, 2, 0.2, seed=0)
    assert exc.value.stage == "revalidation"


def _reference_revalidate(G, seq, X, Y, W, r):
    """The connection checked as three witnesses, the path, X·path and
    path·Y; "" when all of them hold."""
    if len(seq) != 3 * r or len(set(seq)) != 3 * r:
        return "not 3r distinct vertices"
    if set(seq) & (set(W) | set(X) | set(Y)):
        return "meets W, X or Y"
    for w in (seq, tuple(sorted(X)) + seq, seq + tuple(sorted(Y))):
        problem = validate_witness(G, WitnessSequence(w, "path", r))
        if problem:
            return problem
    return ""


@pytest.mark.parametrize("seed", range(4))
def test_one_connection_witness_matches_the_three_witness_check(seed):
    # connections emitted on seeded hosts, and corruptions of them: a path
    # vertex replaced by one outside the path, and two path vertices swapped
    G = gnp(60, 0.85, seed)
    r = 2 + seed % 2
    rng = random.Random(seed)
    lower, upper = mask_of(range(30)), mask_of(range(30, 60))
    X = first_clique_of_joint_degree(G, r, 10, lower)
    Y = first_clique_of_joint_degree(G, r, 10, upper)
    W = [v for v in rng.sample(range(G.n), 8) if v not in X + Y]
    seq = connect_cliques(G, X, Y, mask_of(W), r, 0.1, seed=seed).vertices
    variants = [seq]
    outside = [v for v in range(G.n) if v not in seq]
    for i in range(len(seq)):
        for v in rng.sample(outside, 3):
            variants.append(seq[:i] + (v,) + seq[i + 1 :])
    for i, j in itertools.combinations(range(len(seq)), 2):
        swapped = list(seq)
        swapped[i], swapped[j] = seq[j], seq[i]
        variants.append(tuple(swapped))
    outcomes = set()
    for vs in variants:
        want = _reference_revalidate(G, vs, X, Y, W, r) == ""
        try:
            connect._revalidate_connection(G, WitnessSequence(vs, "path", r), X, Y, mask_of(W), r)
            got = True
        except StageFailure as exc:
            assert exc.stage == "revalidation"
            got = False
        assert got == want, vs
        outcomes.add(got)
    assert outcomes == {True, False}


def test_connect_records_branch():
    # a failed envelope search names the hypothesis that held for its ends:
    # a joint neighbourhood of >= eta*n vertices ("extendable") or not
    # ("clique"); here X's has 28 of 30 vertices, and in the K_6 host, where
    # X's envelope is the edge 45, Y's has 4 of 40
    small = DenseGraph.from_edges(40, list(itertools.combinations(range(6), 2)))
    for G, ends, branch in ((star_host(), [0, 1], "extendable"), (small, [2, 3], "clique")):
        with pytest.raises(StageFailure) as exc:
            connect_cliques(G, [0, 1], [2, 3], 0, 2, 0.2, seed=0)
        assert (exc.value.stage, exc.value.detail) == (
            "envelope-not-found",
            f"no K_2 in the joint neighbourhood of {ends} (branch {branch})",
        )

