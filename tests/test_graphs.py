import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spanembed
from spanembed import graphs
from spanembed.embed import verify_embedding
from spanembed.generators import gnp
from spanembed.graphs import (
    DenseGraph,
    MAX_EDGELIST_N,
    InvalidParameters,
    VertexLabelling,
    WitnessSequence,
    bandwidth_of,
    bits,
    folded_labelling,
    from_edgelist_text,
    identity_labelling,
    kth_bit,
    make_named,
    to_edgelist_text,
    validate_witness,
    z_rule_edge,
)


def test_kth_bit_is_the_kth_entry_of_the_ascending_bits():
    # masks from one bit to a few thousand, sparse and dense, and every k,
    # on both sides of the switch from the low-bit walk to the binary search
    rng = random.Random(0)
    masks = [1, 2, 3, 1 << 63, (1 << 64) - 1, 1 << 1000 | 1]
    for _ in range(300):
        width = rng.choice([4, 30, 64, 65, 480, 3000])
        mask = rng.getrandbits(width) & rng.getrandbits(width) | 1 << rng.randrange(width)
        masks.append(mask)
    for mask in masks:
        ascending = list(bits(mask))
        for k in range(len(ascending)):
            assert kth_bit(mask, k) == ascending[k], (mask, k)


def brute_edge_count(G):
    return sum(
        1 for u in range(G.n) for v in range(u + 1, G.n) if G.has_edge(u, v)
    )


def test_package_exports_resolve():
    for name in spanembed.__all__:
        assert hasattr(spanembed, name), name


# -- named graphs ---------------------------------------------------------


def grid_cells(r, ell):
    """The cells of [ell]x[r] in lexicographic order; cell (i,j) is vertex
    (i-1)*r + (j-1)."""
    return [(i, j) for i in range(1, ell + 1) for j in range(1, r + 1)]


def z_rule_pairs(r, ell):
    """Independent enumeration of the blown-cycle edge rule."""
    pairs = set()
    for (i, j), (i2, j2) in itertools.combinations(grid_cells(r, ell), 2):
        if j == j2:
            continue
        if abs(i - i2) <= 1 or {i, i2} == {1, ell}:
            pairs.add(((i - 1) * r + (j - 1), (i2 - 1) * r + (j2 - 1)))
    return pairs


def z_graph(r, ell):
    """The blown-up cycle of ell blocks of r vertices, from the enumeration."""
    return DenseGraph.from_edges(r * ell, z_rule_pairs(r, ell))


def test_z_2_3_has_six_vertices_nine_edges():
    cells = grid_cells(2, 3)
    edges = [(c1, c2) for c1, c2 in itertools.combinations(cells, 2) if z_rule_edge(*c1, *c2, 3)]
    assert len(cells) == 6
    assert len(edges) == len(z_rule_pairs(2, 3)) == 9


def test_c_2_6_has_twelve_edges():
    G = make_named("C", [2, 6])
    expected = set()
    for i in range(6):
        for j in (1, 2):
            expected.add(frozenset((i, (i + j) % 6)))
    assert G.n == 6
    assert G.edge_count() == len(expected) == 12


def test_p_1_2_is_single_edge():
    G = make_named("P", [1, 2])
    assert G.n == 2 and G.edge_count() == 1


@pytest.mark.parametrize(
    "kind,params",
    # Z, the blown-up cycle, is not a named kind: it is refused as unknown
    # C (1,) and K (1, 2) raised an unpacking ValueError
    [
        ("Z", [2, 2]), ("Z", [1, 1]), ("C", [2, 4]), ("C", [3, 6]), ("P", [0, 5]),
        ("C", (1,)), ("K", (1, 2)),
    ],
)
def test_degenerate_named_parameters_rejected(kind, params):
    with pytest.raises(InvalidParameters):
        make_named(kind, params)


@pytest.mark.parametrize("r,ell", [(r, ell) for r in (1, 2, 3) for ell in (3, 4, 5)])
def test_z_matches_rule_enumeration(r, ell):
    cells = grid_cells(r, ell)
    pairs = z_rule_pairs(r, ell)
    for x, c1 in enumerate(cells):
        for y, c2 in enumerate(cells):
            if x < y:
                assert z_rule_edge(*c1, *c2, ell) == ((x, y) in pairs), (c1, c2)
            assert z_rule_edge(*c1, *c2, ell) == z_rule_edge(*c2, *c1, ell)


@pytest.mark.parametrize("r,ell", [(2, 3), (2, 4), (3, 3), (3, 5)])
def test_z_blocks_span_cliques(r, ell):
    for i in range(1, ell + 1):
        for j, j2 in itertools.combinations(range(1, r + 1), 2):
            assert z_rule_edge(i, j, i, j2, ell)


# -- containment chain ------------------------------------------------------


def tiling_graph(copies, r):
    edges = []
    for c in range(copies):
        for u in range(c * r, (c + 1) * r):
            for v in range(u + 1, (c + 1) * r):
                edges.append((u, v))
    return DenseGraph.from_edges(copies * r, edges)


@pytest.mark.parametrize("r,ell", [(r, ell) for r in (2, 3, 4) for ell in (3, 4, 5)])
def test_containment_chain_under_identity(r, ell):
    n = 2 * r * ell
    ident = {v: v for v in range(n)}
    tiling = tiling_graph(2 * ell, r)
    c_low = make_named("C", [r - 1, n]) if r >= 2 else None
    z_mid = z_graph(r, 2 * ell)
    c_high = make_named("C", [2 * r - 1, n])
    z_top = z_graph(2 * r, ell)
    assert verify_embedding(tiling, c_low, ident) == ""
    assert verify_embedding(c_low, z_mid, ident) == ""
    assert verify_embedding(z_mid, c_high, ident) == ""
    assert verify_embedding(c_high, z_top, ident) == ""


def test_labelled_subgraph_identity_triangle():
    K3 = DenseGraph.complete(3)
    assert verify_embedding(K3, K3, {0: 0, 1: 1, 2: 2}) == ""


def test_labelled_subgraph_rejects_noninjective():
    K3 = DenseGraph.complete(3)
    assert verify_embedding(K3, K3, {0: 0, 1: 0, 2: 1}) == "image 0 used twice"


# -- bandwidth ----------------------------------------------------------


def test_zigzag_cycle_bandwidth_two():
    for n in (4, 6, 10, 50, 200):
        G = make_named("C", [1, n])
        assert bandwidth_of(G, folded_labelling(n)) == 2


def test_complete_graph_bandwidth():
    for n in (2, 5, 9):
        G = DenseGraph.complete(n)
        assert bandwidth_of(G, identity_labelling(n)) == n - 1


def test_cycle_order_labelling_of_squared_cycle():
    G = make_named("C", [2, 12])
    assert bandwidth_of(G, identity_labelling(12)) == 11
    assert bandwidth_of(G, folded_labelling(12)) <= 4


def test_bandwidth_zero_iff_edgeless():
    assert bandwidth_of(DenseGraph.empty(7), identity_labelling(7)) == 0
    G = DenseGraph.from_edges(7, [(0, 6)])
    assert bandwidth_of(G, identity_labelling(7)) > 0


def test_labelling_must_be_permutation():
    with pytest.raises(InvalidParameters):
        VertexLabelling((0, 0, 1))


# -- path and cycle powers -----------------------------------------------------


def test_power_of_cycle_equals_named_power():
    # the square of C_6 joins the vertices at distance 1 or 2 in C_6
    base = make_named("C", [1, 6])
    square = make_named("C", [2, 6])
    for v in range(6):
        dist = base.bfs_distances(v)
        assert set(square.neighbors(v)) == {u for u in range(6) if 0 < dist[u] <= 2}


def test_power_of_path_is_complete():
    assert make_named("P", [3, 4]) == DenseGraph.complete(4)


@given(st.integers(2, 7), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_power_monotone(n, r):
    low = make_named("P", [r, n])
    high = make_named("P", [r + 1, n])
    for u in range(n):
        assert low.rows[u] & ~high.rows[u] == 0


# -- witnesses ----------------------------------------------------------


def test_witness_cycle_in_complete_host():
    K5 = DenseGraph.complete(5)
    w = WitnessSequence((3, 0, 4, 1, 2), "cycle", 2)
    assert validate_witness(K5, w) == ""


def test_witness_cycle_missing_chord():
    C6 = make_named("C", [1, 6])
    w = WitnessSequence((0, 1, 2, 3, 4, 5), "cycle", 2)
    assert validate_witness(C6, w) == "missing edge (0,2) at offsets (0,2)"


def test_witness_trail_allows_revisits():
    Z = z_graph(2, 3)
    # (1,1)(1,2)(2,1)(2,2)(1,1)... revisiting vertex 0: check the 2-trail edges
    seq = (0, 1, 2, 3, 0, 1)
    needed = set()
    ok = True
    for i in range(len(seq)):
        for j in (1, 2):
            if i + j < len(seq):
                ok = ok and Z.has_edge(seq[i], seq[i + j])
    w = WitnessSequence(seq, "trail", 2)
    assert (validate_witness(Z, w) == "") == ok


def test_witness_path_rejects_duplicates():
    K5 = DenseGraph.complete(5)
    w = WitnessSequence((0, 1, 0), "path", 1)
    assert validate_witness(K5, w) == "duplicate vertex 0"


def test_witness_trail_rejects_collapsing_pair():
    K5 = DenseGraph.complete(5)
    w = WitnessSequence((0, 1, 0), "path", 2)
    # as a path it's a dup; as a trail the pair (0,0) at offsets (0,2) collapses
    w2 = WitnessSequence((0, 1, 0), "trail", 2)
    assert validate_witness(K5, w) == "duplicate vertex 0"
    assert validate_witness(K5, w2) == "pair (0,2) collapses to vertex 0"


@given(st.integers(5, 40), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_named_cycle_power_is_its_own_witness(k, r):
    if k <= 2 * r:
        return
    G = make_named("C", [r, k])
    w = WitnessSequence(tuple(range(k)), "cycle", r)
    assert validate_witness(G, w) == ""


def _reference_cycle_power(r, k):
    """C^r_k as an edge set through ``DenseGraph.from_edges``."""
    edges = set()
    for i in range(k):
        for j in range(1, r + 1):
            u, v = i, (i + j) % k
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return DenseGraph.from_edges(k, edges)


def test_cycle_power_matches_the_edge_set_construction():
    # includes every k <= 2r + 1, where the power is complete, and k <= 2
    for r in range(8):
        for k in range(41):
            G = graphs.cycle_power(r, k)
            assert G.rows == _reference_cycle_power(r, k).rows, (r, k)
            DenseGraph(G.n, G.rows)  # symmetric, no loops, no stray bits


# -- serialization ------------------------------------------------------


def test_edgelist_round_trip():
    G = z_graph(2, 4)
    text = to_edgelist_text(G)
    assert text.splitlines()[0] == f"p {G.n} {G.edge_count()}"
    assert from_edgelist_text(text) == G


def test_edgelist_rejects_bad_header_count():
    with pytest.raises(InvalidParameters):
        from_edgelist_text("p 3 5\ne 0 1\n")


@pytest.mark.parametrize("text", ["p x 3\n", "p 3 1\ne 0 x\n", "p 3 1.0\n"])
def test_edgelist_rejects_non_integer_fields(text):
    with pytest.raises(InvalidParameters, match="line"):
        from_edgelist_text(text)


def test_edgelist_refuses_a_header_above_the_size_limit():
    # a 12-byte text must not claim memory for millions of rows
    assert from_edgelist_text(f"p {MAX_EDGELIST_N} 0\n").n == MAX_EDGELIST_N
    with pytest.raises(InvalidParameters, match="line 2: header declares 4000000 > "):
        from_edgelist_text("# big\np 4000000 0\n")


# Header vertex counts stay small: every n up to MAX_EDGELIST_N is valid and
# allocates its n rows.
_edgelist_token = st.one_of(
    st.integers(-3, 64).map(str),
    st.text(alphabet="xe.-+_#é", min_size=1, max_size=4),
    st.sampled_from(["1.5", "0x3", "1e3", "3.0", "½", "٣", "1_0"]),
)
_edgelist_line = st.one_of(
    st.lists(_edgelist_token, max_size=4).map(lambda ts: " ".join(["p", *ts])),
    st.lists(_edgelist_token, max_size=4).map(lambda ts: " ".join(["e", *ts])),
    st.text(max_size=10).map(lambda t: "#" + t),
    st.lists(_edgelist_token, min_size=1, max_size=4).map(" ".join),
    st.just(""),
)


@given(st.lists(_edgelist_line, max_size=12))
@settings(max_examples=300, deadline=None)
def test_edgelist_fuzz_only_raises_invalid_parameters(lines):
    try:
        G = from_edgelist_text("\n".join(lines))
    except InvalidParameters:
        return
    assert from_edgelist_text(to_edgelist_text(G)) == G


# -- invariants --------------------------------------------------------------


@given(st.integers(0, 10), st.integers(0, 200))
@settings(max_examples=50, deadline=None)
def test_edge_count_is_half_popcount(n, seed):
    import random as _r

    rng = _r.Random(seed)
    edges = set()
    for _ in range(n * 2):
        if n >= 2:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
    G = DenseGraph.from_edges(n, edges)
    assert G.edge_count() == brute_edge_count(G) == len(edges)
    assert sum(r.bit_count() for r in G.rows) == 2 * G.edge_count()


def test_adjacency_symmetric_and_loopless():
    G = z_graph(3, 4)
    for u in range(G.n):
        assert not G.has_edge(u, u)
        for v in range(G.n):
            assert G.has_edge(u, v) == G.has_edge(v, u)


def test_bits_helper():
    assert list(bits(0b101001)) == [0, 3, 5]


def _reference_bits(mask):
    """The set bit positions read off the binary string of ``mask``."""
    return [i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"]


@given(
    st.integers(1, 5000),
    st.sampled_from([0, 1, 2, 3, 31, 32, 33, 100, 5000]),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_bits_matches_the_per_bit_loop(width, count, seed):
    positions = random.Random(seed).sample(range(width), min(count, width))
    mask = sum(1 << v for v in positions)
    got = bits(mask)
    assert iter(got) is got  # an iterator, so callers may stop early
    assert list(got) == _reference_bits(mask) == sorted(positions)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 480, 5000])
def test_bits_full_and_top_bit_masks(width):
    for mask in ((1 << width) - 1, 1 << (width - 1), (1 << width) - 2, 0):
        assert list(bits(mask)) == _reference_bits(mask)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 480])
def test_edges_within_matches_the_induced_edge_count(n):
    """Masks of every density, the empty and the full one, against the
    edge count of the induced subgraph."""
    rng = random.Random(n)
    full = (1 << n) - 1
    for G in (gnp(n, 0.5, 1), gnp(n, 0.97, 2), DenseGraph.complete(n), DenseGraph.empty(n)):
        masks = [0, full] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(20)]
        masks += [rng.getrandbits(n) for _ in range(20)] + [1 << v for v in range(min(n, 3))]
        for mask in masks:
            assert G.edges_within(mask) == G.induced(list(bits(mask)))[0].edge_count()


def _reference_asymmetry_message(rows):
    """The first asymmetric pair as the constructor's symmetry loop named it
    before it masked each row below the diagonal."""
    for u in range(len(rows)):
        for v in _reference_bits(rows[u]):
            if v > u:
                break
            if not rows[v] >> u & 1:
                return f"asymmetric pair ({u},{v})"
    return None


@given(st.integers(2, 70), st.integers(0, 2**32), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_constructor_names_the_same_first_asymmetric_pair(n, seed, drops):
    G = gnp(n, 0.7, seed)
    rows = list(G.rows)
    rng = random.Random(seed)
    for _ in range(drops):  # remove one direction of a few edges
        u = rng.randrange(n)
        if rows[u]:
            rows[u] &= ~(1 << rng.choice(list(bits(rows[u]))))
    want = _reference_asymmetry_message(rows)
    if want is None:
        assert DenseGraph(n, rows).rows == tuple(rows)
        return
    with pytest.raises(InvalidParameters) as exc:
        DenseGraph(n, rows)
    assert str(exc.value) == want


def _reference_validate(G, w):
    """The pairwise witness checker: every required pair, one at a time, in
    position-then-offset order; ``validate_witness`` must name the same
    first violation."""
    vs = w.vertices
    k = len(vs)
    for v in vs:
        if not 0 <= v < G.n:
            return f"vertex {v} outside host"
    if w.kind in ("path", "cycle"):
        seen = set()
        for v in vs:
            if v in seen:
                return f"duplicate vertex {v}"
            seen.add(v)
    if w.kind == "cycle":
        for i in range(k):
            for j in range(1, w.r + 1):
                u, v = vs[i], vs[(i + j) % k]
                if u == v:
                    return f"cyclic pair ({i},{i + j}) collapses"
                if not G.has_edge(u, v):
                    return f"missing edge ({u},{v}) at offsets ({i},{(i + j) % k})"
    else:
        for i in range(k):
            for j in range(1, w.r + 1):
                if i + j >= k:
                    break
                u, v = vs[i], vs[i + j]
                if u == v:
                    return f"pair ({i},{i + j}) collapses to vertex {u}"
                if not G.has_edge(u, v):
                    return f"missing edge ({u},{v}) at offsets ({i},{i + j})"
    return ""


# the kind of violation each first word of a reason names
_VIOLATION_KINDS = {
    "vertex": "range", "duplicate": "dup", "cyclic": "loop", "pair": "loop", "missing": "edge"
}


def _witness_variants(seq, n, rng):
    """``seq`` and corruptions of it: out-of-range vertices, a duplicate, a
    vertex repeated inside a window, a swapped pair, prefixes down to empty."""
    out = [seq, seq[: len(seq) // 2], seq[:1], seq[:2], seq[:3], ()]
    if seq:
        i = rng.randrange(len(seq))
        out.append(seq[:i] + (n,) + seq[i + 1 :])
        out.append(seq[:i] + (-1,) + seq[i + 1 :])
        out.append(seq + (seq[i],))
        out.append(seq[:i] + (seq[i],) + seq[i:])
        if i + 2 < len(seq):
            out.append(seq[: i + 2] + (seq[i],) + seq[i + 3 :])
        j = rng.randrange(len(seq))
        swapped = list(seq)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        out.append(tuple(swapped))
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
def test_validate_witness_matches_the_pairwise_checker(r):
    rng = random.Random(r)
    hosts = [
        make_named("C", [r, 11]),
        make_named("P", [r, 9]),
        DenseGraph.complete(7),
        gnp(14, 0.85, r),
        gnp(70, 0.97, r),
    ]
    outcomes = set()
    for G in hosts:
        bases = [tuple(range(G.n))]
        for _ in range(6):
            bases.append(tuple(rng.sample(range(G.n), rng.randint(1, G.n))))
        for base in bases:
            for seq in _witness_variants(base, G.n, rng):
                for kind in ("path", "trail", "cycle"):
                    w = WitnessSequence(seq, kind, r)
                    want = _reference_validate(G, w)
                    assert validate_witness(G, w) == want, (G, seq, kind)
                    outcomes.add(_VIOLATION_KINDS[want.split()[0]] if want else "ok")
    assert outcomes == {"ok", "range", "dup", "loop", "edge"}


def _with_power(G, seq, r, cyclic):
    """``G`` with every pair of ``seq`` at most ``r`` places apart (also
    across the end when ``cyclic``) added as an edge, unless it is a loop."""
    rows = list(G.rows)
    k = len(seq)
    for p in range(k):
        for j in range(1, r + 1):
            if p + j < k or cyclic:
                u, v = seq[p], seq[(p + j) % k]
                if u != v:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
    return DenseGraph(G.n, rows)


def _without_edge(G, u, v):
    rows = list(G.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return DenseGraph(G.n, rows, check=False)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_validate_witness_on_long_witnesses(r):
    """Paths and cycles of 200-400 vertices on gnp hosts with their r-th
    power planted: the valid witness passes the one-pass check, and each
    single planted fault (a missing pair, also one across a cycle's end; a
    duplicate; a collapsing pair of a trail) fails it and is named as the
    pairwise checker names it."""
    rng = random.Random(r)
    outcomes = set()
    for n in (200, 300, 400):
        G = gnp(n, 0.5, 100 * r + n)
        for kind in ("path", "cycle"):
            seq = tuple(rng.sample(range(n), rng.randint(200, n)))
            k = len(seq)
            host = _with_power(G, seq, r, kind == "cycle")
            cases = [(host, seq, kind)]
            ends = [rng.randrange(k - r)]
            if kind == "cycle":
                ends.append(rng.randrange(k - r, k))
            for p in ends:
                j = rng.randint(1, r)
                cases.append((_without_edge(host, seq[p], seq[(p + j) % k]), seq, kind))
            i, i2 = rng.sample(range(k), 2)
            cases.append((host, seq[:i] + (seq[i2],) + seq[i + 1 :], kind))
            trail = seq[: i + r] + (seq[i],) + seq[i + r + 1 :]
            cases.append((_with_power(G, trail, r, False), trail, "trail"))
            for H, vs, as_kind in cases:
                w = WitnessSequence(vs, as_kind, r)
                want = _reference_validate(H, w)
                assert validate_witness(H, w) == want, (n, as_kind, want)
                outcomes.add(_VIOLATION_KINDS[want.split()[0]] if want else "ok")
    assert outcomes == {"ok", "dup", "loop", "edge"}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_validate_witness_short_cycles_collapse(r):
    """A cycle of k <= r vertices wraps onto itself; the fast path must not
    judge it, and the pairwise scan reports the collapse."""
    K = DenseGraph.complete(6)
    for k in range(0, r + 1):
        w = WitnessSequence(tuple(range(k)), "cycle", r)
        assert validate_witness(K, w) == _reference_validate(K, w)
        assert (validate_witness(K, w) == "") == (k == 0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_validate_witness_on_a_host_with_loops(r):
    """Rows built unchecked may hold loops; a window that wraps onto its own
    vertex must still be reported as the pairwise checker reports it."""
    n = 6
    looped = DenseGraph(n, [(1 << n) - 1] * n, check=False)
    seqs = [tuple(range(k)) for k in range(n + 1)] + [(0, 0), (0, 1, 0), (2, 1, 3, 1)]
    for seq in seqs:
        for kind in ("path", "trail", "cycle"):
            w = WitnessSequence(seq, kind, r)
            assert validate_witness(looped, w) == _reference_validate(looped, w)
