import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanembed import graphs
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
    graph_power,
    grid_vertex,
    identity_labelling,
    is_labelled_subgraph,
    make_named,
    to_edgelist_text,
    validate_witness,
)
from spanembed.graphs import ValidationResult


def brute_edge_count(G):
    return sum(
        1 for u in range(G.n) for v in range(u + 1, G.n) if G.has_edge(u, v)
    )


# -- named graphs ---------------------------------------------------------


def z_rule_pairs(r, ell):
    """Independent enumeration of the blown-cycle edge rule."""
    cells = [(i, j) for i in range(1, ell + 1) for j in range(1, r + 1)]
    pairs = set()
    for (i, j), (i2, j2) in itertools.combinations(cells, 2):
        if j == j2:
            continue
        if abs(i - i2) <= 1 or {i, i2} == {1, ell}:
            pairs.add((grid_vertex(i, j, r), grid_vertex(i2, j2, r)))
    return pairs


def test_z_2_3_has_six_vertices_nine_edges():
    G = make_named("Z", [2, 3])
    assert G.n == 6
    assert G.edge_count() == len(z_rule_pairs(2, 3)) == 9


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
    [("Z", [2, 2]), ("Z", [1, 1]), ("C", [2, 4]), ("C", [3, 6]), ("P", [0, 5])],
)
def test_degenerate_named_parameters_rejected(kind, params):
    with pytest.raises(InvalidParameters):
        make_named(kind, params)


@pytest.mark.parametrize("r,ell", [(r, ell) for r in (1, 2, 3) for ell in (3, 4, 5)])
def test_z_matches_rule_enumeration(r, ell):
    G = make_named("Z", [r, ell])
    assert set(G.edges()) == z_rule_pairs(r, ell)


@pytest.mark.parametrize("r,ell", [(2, 3), (2, 4), (3, 3), (3, 5)])
def test_z_blocks_span_cliques(r, ell):
    G = make_named("Z", [r, ell])
    for i in range(1, ell + 1):
        block = [grid_vertex(i, j, r) for j in range(1, r + 1)]
        assert G.is_clique(block)


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
    ident = list(range(n))
    tiling = tiling_graph(2 * ell, r)
    c_low = make_named("C", [r - 1, n]) if r >= 2 else None
    z_mid = make_named("Z", [r, 2 * ell])
    c_high = make_named("C", [2 * r - 1, n])
    z_top = make_named("Z", [2 * r, ell])
    assert is_labelled_subgraph(tiling, c_low, ident)
    assert is_labelled_subgraph(c_low, z_mid, ident)
    assert is_labelled_subgraph(z_mid, c_high, ident)
    assert is_labelled_subgraph(c_high, z_top, ident)


def test_labelled_subgraph_identity_triangle():
    K3 = DenseGraph.complete(3)
    assert is_labelled_subgraph(K3, K3, [0, 1, 2])


def test_labelled_subgraph_rejects_noninjective():
    K3 = DenseGraph.complete(3)
    with pytest.raises(InvalidParameters):
        is_labelled_subgraph(K3, K3, [0, 0, 1])


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


# -- graph powers -----------------------------------------------------------


def test_power_of_cycle_equals_named_power():
    base = make_named("C", [1, 6])
    assert graph_power(base, 2) == make_named("C", [2, 6])


def test_power_of_path_is_complete():
    base = make_named("P", [1, 4])
    assert graph_power(base, 3) == DenseGraph.complete(4)


def test_power_never_joins_components():
    G = DenseGraph.from_edges(4, [(0, 1), (2, 3)])
    assert graph_power(G, 5) == G


@given(st.integers(2, 7), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_power_monotone(n, r):
    base = make_named("P", [1, n])
    low = graph_power(base, r)
    high = graph_power(base, r + 1)
    for u in range(n):
        assert low.rows[u] & ~high.rows[u] == 0


# -- witnesses ----------------------------------------------------------


def test_witness_cycle_in_complete_host():
    K5 = DenseGraph.complete(5)
    w = WitnessSequence((3, 0, 4, 1, 2), "cycle", 2)
    assert validate_witness(K5, w)


def test_witness_cycle_missing_chord():
    C6 = make_named("C", [1, 6])
    w = WitnessSequence((0, 1, 2, 3, 4, 5), "cycle", 2)
    res = validate_witness(C6, w)
    assert not res
    assert res.violation == ("edge", 0, 2)


def test_witness_trail_allows_revisits():
    Z = make_named("Z", [2, 3])
    # (1,1)(1,2)(2,1)(2,2)(1,1)... revisiting vertex 0: check the 2-trail edges
    seq = (0, 1, 2, 3, 0, 1)
    needed = set()
    ok = True
    for i in range(len(seq)):
        for j in (1, 2):
            if i + j < len(seq):
                ok = ok and Z.has_edge(seq[i], seq[i + j])
    w = WitnessSequence(seq, "trail", 2)
    assert bool(validate_witness(Z, w)) == ok


def test_witness_path_rejects_duplicates():
    K5 = DenseGraph.complete(5)
    w = WitnessSequence((0, 1, 0), "path", 1)
    res = validate_witness(K5, w)
    assert not res and res.violation == ("dup", 0)


def test_witness_trail_rejects_collapsing_pair():
    K5 = DenseGraph.complete(5)
    w = WitnessSequence((0, 1, 0), "path", 2)
    # as a path it's a dup; as a trail the pair (0,0) at offsets (0,2) collapses
    w2 = WitnessSequence((0, 1, 0), "trail", 2)
    assert not validate_witness(K5, w)
    assert not validate_witness(K5, w2)


@given(st.integers(5, 40), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_named_cycle_power_is_its_own_witness(k, r):
    if k <= 2 * r:
        return
    G = make_named("C", [r, k])
    w = WitnessSequence(tuple(range(k)), "cycle", r)
    assert validate_witness(G, w)


# -- serialization ------------------------------------------------------


def test_edgelist_round_trip():
    G = make_named("Z", [2, 4])
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
    G = make_named("Z", [3, 4])
    for u in range(G.n):
        assert not G.has_edge(u, u)
        for v in range(G.n):
            assert G.has_edge(u, v) == G.has_edge(v, u)


def test_bits_helper():
    assert list(bits(0b101001)) == [0, 3, 5]


def _reference_bits(mask):
    """The per-bit loop ``bits`` ran before it unpacked dense masks with numpy."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


_CUT = graphs.BITS_NUMPY_FROM


@given(
    st.integers(1, 5000),
    st.sampled_from([0, 1, 2, _CUT - 2, _CUT - 1, _CUT, _CUT + 1, _CUT + 2, 100, 5000]),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_bits_matches_the_per_bit_loop(width, count, seed):
    positions = random.Random(seed).sample(range(width), min(count, width))
    mask = sum(1 << v for v in positions)
    got = bits(mask)
    assert iter(got) is got  # an iterator, as the generator was
    assert list(got) == list(_reference_bits(mask)) == sorted(positions)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 480, 5000])
def test_bits_full_and_top_bit_masks(width):
    for mask in ((1 << width) - 1, 1 << (width - 1), (1 << width) - 2, 0):
        assert list(bits(mask)) == list(_reference_bits(mask))


@pytest.mark.parametrize(
    "n,batch_bytes",
    [(n, graphs.BATCH_BYTES) for n in (0, 1, 63, 64, 65, 480)]
    + [(n, 2048) for n in (63, 64, 65, 480)]
    + [(65, 8)],
)
def test_edges_within_many_matches_single_counts(monkeypatch, n, batch_bytes):
    """Masks of every density, the empty and the full one; the small tiles
    split the batch into single masks (n = 65) and the rows into runs of
    32 (n = 480) or of one row (8 bytes)."""
    monkeypatch.setattr(graphs, "BATCH_BYTES", batch_bytes)
    rng = random.Random(n)
    full = (1 << n) - 1
    for G in (gnp(n, 0.5, 1), gnp(n, 0.97, 2), DenseGraph.complete(n), DenseGraph.empty(n)):
        masks = [0, full] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(40)]
        masks += [rng.getrandbits(n) for _ in range(60)] + [1 << v for v in range(min(n, 3))]
        assert G.edges_within_many(masks) == [G.edges_within(m) for m in masks]
    assert G.edges_within_many([]) == []


def test_edges_within_many_spans_several_mask_tiles():
    G = gnp(480, 0.9, 3)
    per = graphs.BATCH_BYTES // (8 * 8 * G.n)  # masks per tile at n = 480
    rng = random.Random(0)
    masks = [rng.getrandbits(G.n) for _ in range(3 * per + 1)]
    assert G.edges_within_many(masks) == [G.edges_within(m) for m in masks]


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
    """The pairwise witness checker as it was before its per-position fast path."""
    vs = w.vertices
    k = len(vs)
    for v in vs:
        if not 0 <= v < G.n:
            return ValidationResult(False, f"vertex {v} outside host", ("range", v))
    if w.kind in ("path", "cycle"):
        seen = set()
        for v in vs:
            if v in seen:
                return ValidationResult(False, f"duplicate vertex {v}", ("dup", v))
            seen.add(v)
    if w.kind == "cycle":
        for i in range(k):
            for j in range(1, w.r + 1):
                u, v = vs[i], vs[(i + j) % k]
                if u == v:
                    return ValidationResult(
                        False, f"cyclic pair ({i},{i + j}) collapses", ("loop", i, j)
                    )
                if not G.has_edge(u, v):
                    return ValidationResult(
                        False,
                        f"missing edge ({u},{v}) at offsets ({i},{(i + j) % k})",
                        ("edge", u, v),
                    )
    else:
        for i in range(k):
            for j in range(1, w.r + 1):
                if i + j >= k:
                    break
                u, v = vs[i], vs[i + j]
                if u == v:
                    return ValidationResult(
                        False, f"pair ({i},{i + j}) collapses to vertex {u}", ("loop", i, j)
                    )
                if not G.has_edge(u, v):
                    return ValidationResult(
                        False,
                        f"missing edge ({u},{v}) at offsets ({i},{i + j})",
                        ("edge", u, v),
                    )
    return ValidationResult(True)


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
                    outcomes.add(want.violation[0] if want.violation else "ok")
    assert outcomes == {"ok", "range", "dup", "loop", "edge"}


@pytest.mark.parametrize("r", [1, 2, 3])
def test_validate_witness_short_cycles_collapse(r):
    """A cycle of k <= r vertices wraps onto itself; the fast path must not
    judge it, and the pairwise scan reports the collapse."""
    K = DenseGraph.complete(6)
    for k in range(0, r + 1):
        w = WitnessSequence(tuple(range(k)), "cycle", r)
        assert validate_witness(K, w) == _reference_validate(K, w)
        assert bool(validate_witness(K, w)) == (k == 0)


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
