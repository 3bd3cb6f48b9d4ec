import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanembed import connect
from spanembed.connect import (
    HypothesisViolation,
    bridging_cliques,
    connect_cliques,
    find_bridging_clique,
)
from spanembed.density import enumerate_extendable_cliques
from spanembed.generators import complete_bipartite, gnp
from spanembed.graphs import (
    DenseGraph,
    bits,
    StageFailure,
    ValidationResult,
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
    X, Y = list(range(8)), list(range(8, 16))
    b = find_bridging_clique(G, list(range(G.n)), X, Y, [], r=2, eta=0.4)
    assert G.is_clique(b.Z)
    assert not set(b.Z) & (set(X) | set(Y))
    assert set(b.X_prime) <= set(X) and set(b.Y_prime) <= set(Y)
    common = G.common_neighborhood(b.Z)
    for v in b.X_prime + b.Y_prime:
        assert common >> v & 1


def test_bridge_bucket_independent_set_fails():
    # X, Y on one side of a complete bipartite host, U the other side:
    # every U-vertex attaches fully, the single bucket is independent.
    G = complete_bipartite(30, 30)
    side1 = list(range(30))
    X, Y = list(range(30, 34)), list(range(34, 38))
    with pytest.raises(StageFailure) as exc:
        find_bridging_clique(G, side1, X, Y, [], r=2, eta=0.4)
    assert exc.value.stage == "no-clique-in-bucket"


def test_bridge_reports_degree_violation():
    G = DenseGraph.empty(40)
    with pytest.raises(HypothesisViolation):
        find_bridging_clique(
            G, list(range(20)), list(range(20, 24)), list(range(24, 28)), [], 2, 0.2
        )


def test_bridge_no_high_attachment():
    # U sees nothing of X and Y except what the degree bound forces; make
    # U-vertices adjacent to U only plus barely half of X ∪ Y
    n = 30
    edges = set()
    U = list(range(10))
    X = list(range(10, 14))
    Y = list(range(14, 18))
    for i in U:
        for j in U:
            if i < j:
                edges.add((i, j))
    # X, Y vertices adjacent to all of U (degree condition) and to each other
    for x in X + Y:
        for u in U:
            edges.add((u, x))
    for i in X + Y:
        for j in X + Y:
            if i < j:
                edges.add((i, j))
    G = DenseGraph.from_edges(n, edges)
    # each u in U is adjacent to all 8 of X ∪ Y: qualifies; remove most of it
    edges2 = {e for e in edges if not (e[0] in U and e[1] in X + Y)}
    # keep degree of X,Y into U high by connecting them to a fresh clique? not
    # needed: degree check is on X ∪ Y into U, which is now 0 -> violation
    G2 = DenseGraph.from_edges(n, edges2)
    with pytest.raises(StageFailure):
        find_bridging_clique(G2, U, X, Y, [], 2, 0.2)


def test_bridge_respects_w():
    G = DenseGraph.complete(40)
    W = list(range(20, 30))
    b = find_bridging_clique(G, list(range(G.n)), list(range(6)), list(range(6, 12)), W, 3, 0.3)
    assert not set(b.Z) & set(W)


def test_bridge_requires_equal_sides():
    G = DenseGraph.complete(30)
    with pytest.raises(HypothesisViolation):
        find_bridging_clique(G, list(range(30)), [0, 1, 2], [3, 4], [], 2, 0.3)


def test_bridge_deterministic():
    G = gnp(80, 0.8, 3)
    X, Y = list(range(6)), list(range(6, 12))
    # make X, Y fully attached so the precondition holds
    rows = list(G.rows)
    for x in X + Y:
        for v in range(12, 80):
            rows[x] |= 1 << v
            rows[v] |= 1 << x
    G = DenseGraph(80, rows, check=False)
    b1 = find_bridging_clique(G, list(range(12, 80)), X, Y, [], 2, 0.2)
    b2 = find_bridging_clique(G, list(range(12, 80)), X, Y, [], 2, 0.2)
    assert b1 == b2


def _buckets_per_vertex(G, candidates, X, Y, r):
    """The per-vertex attachment bucketing ``_attachment_buckets`` replaced."""
    xmask, ymask = mask_of(X), mask_of(Y)
    buckets = {}
    for v in bits(candidates):
        ax, ay = G.rows[v] & xmask, G.rows[v] & ymask
        if ax.bit_count() + ay.bit_count() >= len(X) + r:
            buckets.setdefault((ax, ay), []).append(v)
    return {key: mask_of(members) for key, members in buckets.items()}


@st.composite
def bucket_queries(draw):
    n = draw(st.integers(2, 40))
    G = gnp(n, draw(st.sampled_from([0.3, 0.6, 0.9, 1.0])), draw(st.integers(0, 10**6)))
    order = draw(st.permutations(range(n)))
    c = draw(st.integers(1, n // 2))
    X, Y = list(order[:c]), list(order[c : 2 * c])
    r = draw(st.integers(1, c))
    candidates = draw(st.integers(0, (1 << n) - 1)) & ~mask_of(X + Y)
    return G, candidates, X, Y, r


@given(bucket_queries())
@settings(max_examples=200, deadline=None)
def test_attachment_buckets_match_the_per_vertex_loop(query):
    G, candidates, X, Y, r = query
    assert connect._attachment_buckets(G, candidates, X, Y, r) == _buckets_per_vertex(
        G, candidates, X, Y, r
    )


def test_bridging_cliques_start_with_the_bridge_found():
    G = gnp(80, 0.8, 3)
    X, Y, W = list(range(4)), list(range(4, 8)), [8, 9]
    U = list(range(8, 80))
    found = find_bridging_clique(G, U, X, Y, W, 2, 0.0)
    listed = list(itertools.islice(bridging_cliques(G, U, X, Y, W, 2, 0.0), 40))
    assert listed[0] == found
    assert len({b.Z for b in listed}) == len(listed) > 1
    for b in listed:
        connect._revalidate_bridge(G, b, mask_of(X), mask_of(Y), mask_of(W), 2)


def test_bridging_cliques_end_with_the_failure_label():
    # X = {0} and Y = {1} both see U = {4, 5}: the one bucket gives Z = (4,),
    # the loosely attached vertices add (5,), then the list runs out; with
    # W = U no vertex is left to attach
    G = DenseGraph.from_edges(6, [(0, 4), (0, 5), (1, 4), (1, 5)])
    draws = bridging_cliques(G, [4, 5], [0], [1], [], 1, 0.0)
    assert next(draws).Z == (4,)
    assert next(draws).Z == (5,)
    with pytest.raises(StageFailure) as exc:
        next(draws)
    assert exc.value.stage == "no-clique-in-bucket"
    with pytest.raises(StageFailure) as exc:
        next(bridging_cliques(G, [4, 5], [0], [1], [4, 5], 1, 0.0))
    assert exc.value.stage == "no-high-attachment"


# -- connect_cliques -----------------------------------------------------


def check_connection(G, path, X, Y, r, W):
    seq = path.vertices
    assert len(seq) == 3 * r
    assert validate_witness(G, path)
    assert validate_witness(
        G, WitnessSequence(tuple(sorted(X)) + seq, "path", r)
    )
    assert validate_witness(
        G, WitnessSequence(seq + tuple(sorted(Y)), "path", r)
    )
    assert not set(seq) & set(W)
    assert not set(seq) & (set(X) | set(Y))


def test_connect_complete_host():
    G = DenseGraph.complete(80)
    X, Y = [0, 1], [2, 3]
    path = connect_cliques(G, X, Y, [], r=2, eta=0.4, seed=0)
    check_connection(G, path, X, Y, 2, [])


def test_connect_two_lobes_through_core():
    G = make_two_lobes()
    n = G.n
    X = [0, 1]          # deep in the left lobe
    Y = [n - 1, n - 2]  # deep in the right lobe
    path = connect_cliques(G, X, Y, [], r=2, eta=0.1, seed=0)
    check_connection(G, path, X, Y, 2, [])
    # any left-to-right connection must route through the shared core:
    # only core vertices are adjacent to both lobes
    core = set(range(20, 40))
    assert set(path.vertices) & core


def test_connect_random_dense_with_avoid_set():
    G = gnp(150, 0.85, 9)
    rng = random.Random(9)
    lower = mask_of(range(G.n // 2))
    upper = mask_of(range(G.n // 2, G.n))
    X = list(
        enumerate_extendable_cliques(G, 3, s=int(0.2 * G.n), cap=1, within=lower)[0].vertices
    )
    Y = list(
        enumerate_extendable_cliques(G, 3, s=int(0.2 * G.n), cap=1, within=upper)[0].vertices
    )
    W = [v for v in rng.sample(range(G.n), 30) if v not in X + Y][:9]
    path = connect_cliques(G, X, Y, W, r=3, eta=0.25, seed=0)
    check_connection(G, path, X, Y, 3, W)


def test_connect_deterministic():
    G = gnp(120, 0.8, 2)
    lower = mask_of(range(G.n // 2))
    upper = mask_of(range(G.n // 2, G.n))
    X = list(
        enumerate_extendable_cliques(G, 2, s=int(0.2 * G.n), cap=1, within=lower)[0].vertices
    )
    Y = list(
        enumerate_extendable_cliques(G, 2, s=int(0.2 * G.n), cap=1, within=upper)[0].vertices
    )
    assert connect_cliques(G, X, Y, [], 2, 0.1, seed=0) == connect_cliques(G, X, Y, [], 2, 0.1, seed=0)


def star_host(n=30):
    """X = {0, 1} sees every other vertex, and the only other edge is 23."""
    edges = [(0, v) for v in range(2, n)] + [(1, v) for v in range(2, n)] + [(0, 1)]
    return DenseGraph.from_edges(n, edges + [(2, 3)])


def test_connect_envelope_failure_on_sparse_host():
    # star-ish host: X extendable but its neighbourhood is an independent set
    G = star_host()
    with pytest.raises(StageFailure) as exc:
        connect_cliques(G, [0, 1], [2, 3], [], 2, 0.2, seed=0)
    assert exc.value.stage in ("envelope-not-found", "no-clique-in-bucket")


def test_connect_raises_when_its_path_fails_revalidation(monkeypatch):
    # the emitted path is rechecked by an explicit test that survives -O
    monkeypatch.setattr(
        connect, "validate_witness", lambda G, w: ValidationResult(False, "rejected")
    )
    with pytest.raises(StageFailure) as exc:
        connect_cliques(DenseGraph.complete(40), [0, 1], [2, 3], [], 2, 0.2, seed=0)
    assert exc.value.stage == "revalidation"


def test_connect_records_branch():
    # a failed envelope search names the hypothesis that held for its ends:
    # a joint neighbourhood of >= eta*n vertices ("extendable") or not
    # ("clique"); here X's has 28 of 30 vertices, and in the K_6 host, where
    # X's envelope is the edge 45, Y's has 4 of 40
    small = DenseGraph.from_edges(40, list(itertools.combinations(range(6), 2)))
    for G, ends, branch in ((star_host(), [0, 1], "extendable"), (small, [2, 3], "clique")):
        with pytest.raises(StageFailure) as exc:
            connect_cliques(G, [0, 1], [2, 3], [], 2, 0.2, seed=0)
        assert (exc.value.stage, exc.value.detail) == (
            "envelope-not-found",
            f"no K_2 in the joint neighbourhood of {ends} (branch {branch})",
        )

