"""Regular/superregular pair checkers, subcluster refinement and a one-pass
partitioner.

Regularity is decided exactly and exhaustively, for sides of at most
``EXACT_SIDE_THRESHOLD`` vertices: for a fixed witness side Y, the extremal X
of every size is a prefix of the vertices sorted by degree into Y, so one
subset scan per side settles all pairs.  Pairs are read as 0/1 matrices
unpacked from the bit rows (``DenseGraph.bit_matrix``), and the prefixes of
every Y are scored at once by sorted degrees and running sums
(``_sorted_prefix_densities``).  Larger pairs are not checked for regularity
yet (ROADMAP, "Certify regularity at an ε the cluster size can carry"):
``regularity_up_to_cap`` states the one rule the superregularity check
applies.

The partitioner stands in for the degree form of the regularity lemma: a
seeded equitable chop into exactly ``L_min`` clusters and one density
classification of every cluster pair.  It keeps the dense pairs without
checking their regularity and never refines a cluster.  A reduced graph is
a plain ``DenseGraph`` on the cluster indices.  The partitioner's degrees of
every vertex into every cluster (``cluster_degrees``) are returned with it,
and the superregular refinement reads them instead of the host's edges:
every pair it checks is one that R joins, and only a swap reads G again.
The refinement drops only failing vertices, at most m − ⌈(1−√ε)m⌉ per
cluster, so sizes may differ (the pipeline then refuses at ``exceptional``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graphs import (
    DenseGraph, InvalidParameters, StageFailure, bits, first_misplaced, mask_of, packed_rows
)


EXACT_SIDE_THRESHOLD = 12


def pair_density(G: DenseGraph, A: list[int], B: list[int]) -> float:
    """e_G(A,B) / (|A||B|) for disjoint nonempty A, B."""
    if not A or not B:
        raise InvalidParameters("pair density needs nonempty sides")
    am, bm = mask_of(A), mask_of(B)
    if am & bm:
        raise InvalidParameters("sides must be disjoint")
    return G.edges_between(am, bm) / (len(A) * len(B))


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    density: float
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    deviation: float = 0.0

    def __bool__(self) -> bool:
        return self.regular


def _sorted_prefix_densities(
    side: list[int], counts: np.ndarray, other_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The extremal-prefix argument, for every column of ``counts`` at once.

    ``counts[i, c]`` is the number of edges from ``side[i]`` into a fixed set
    Y_c of ``other_sizes[c]`` vertices.  Among the X ⊆ side with |X| = k,
    d(X, Y_c) is least for the k vertices of lowest degree into Y_c and
    greatest for the k of highest degree, so one sort and one running sum per
    column give both extremes for every k.  Returns ``ids`` (each column's
    vertices sorted ascending by (count, vertex)) and ``dens``:
    ``dens[0, k-1, c]`` is e(X, Y_c) / (k |Y_c|) for X = ids[:k, c], and
    ``dens[1, k-1, c]`` the same for X = ids[-k:, c].
    """
    side = np.asarray(side)
    span = int(side.max()) + 1
    keys = np.sort(counts * span + side[:, None], axis=0)
    degs = keys // span
    sums = np.cumsum(np.stack([degs, degs[::-1]]), axis=1)
    ks = np.arange(1, len(side) + 1)[:, None]
    return keys % span, sums / (ks * other_sizes)


def _extremal_x_for_y(
    side_a: list[int],
    side_b: list[int],
    M: np.ndarray,
    min_x: int,
    min_y: int,
    d_ab: float,
    eps: float,
) -> tuple[tuple[int, ...], tuple[int, ...], float] | None:
    """Exact scan of one orientation, M being the |side_a|×|side_b| matrix.

    For every Y ⊆ side_b with |Y| >= min_y, test every X ⊆ side_a with
    |X| >= min_x via sorted prefix sums.  Returns the first (X, Y, deviation)
    that deviates by more than eps, visiting Y by increasing subset index,
    then the k lowest for k = min_x, min_x+1, ..., then the k highest.
    """
    ys = np.arange(1, 1 << len(side_b))
    ybits = (ys[:, None] >> np.arange(len(side_b))) & 1
    keep = ybits.sum(1) >= min_y
    ys, ybits = ys[keep], ybits[keep]
    if min_x > len(side_a) or not len(ys):
        return None
    ids, dens = _sorted_prefix_densities(side_a, M @ ybits.T, ybits.sum(1))
    dens = dens[:, min_x - 1 :]
    devs = np.stack([d_ab - dens[0], dens[1] - d_ab]).transpose(2, 0, 1)
    hits = np.flatnonzero(devs > eps)
    if not len(hits):
        return None
    c, highest, i = np.unravel_index(hits[0], devs.shape)
    k = min_x + i
    X = tuple(sorted((ids[-k:, c] if highest else ids[:k, c]).tolist()))
    Y = tuple(sorted(side_b[j] for j in bits(int(ys[c]))))
    return X, Y, float(devs[c, highest, i])


def is_eps_regular(
    G: DenseGraph, A: list[int], B: list[int], eps: float
) -> RegularityVerdict:
    """Decide |d(A,B) - d(X,Y)| <= eps over X ⊆ A, Y ⊆ B with the size bounds.

    Exhaustive for sides up to ``EXACT_SIDE_THRESHOLD``: every Y on each
    side, with X closed by the sorted prefix sums; larger sides raise
    ``InvalidParameters``.  An irregular verdict carries a violating witness.
    """
    if not A or not B:
        raise InvalidParameters("regularity needs nonempty sides")
    d_ab = pair_density(G, A, B)
    if len(A) > EXACT_SIDE_THRESHOLD or len(B) > EXACT_SIDE_THRESHOLD:
        raise InvalidParameters(
            f"sides ({len(A)},{len(B)}) exceed exact cap {EXACT_SIDE_THRESHOLD}"
        )
    # scan Y ⊆ B and close the X side analytically; then the mirror image
    M = G.bit_matrix(A)[:, B].astype(np.int64)
    for side_a, side_b, counts in ((A, B, M), (B, A, M.T)):
        min_xa = max(1, math.ceil(eps * len(side_a)))
        min_yb = max(1, math.ceil(eps * len(side_b)))
        hit = _extremal_x_for_y(side_a, side_b, counts, min_xa, min_yb, d_ab, eps)
        if hit is not None:
            X, Y, dev = hit
            if side_a is A:
                return RegularityVerdict(False, d_ab, (X, Y), dev)
            return RegularityVerdict(False, d_ab, (Y, X), dev)
    return RegularityVerdict(True, d_ab)


def regularity_up_to_cap(
    G: DenseGraph, A: list[int], B: list[int], eps: float
) -> RegularityVerdict:
    """``is_eps_regular`` when both sides have at most
    ``EXACT_SIDE_THRESHOLD`` vertices; a larger pair is reported regular at
    its density, unchecked (ROADMAP, "Certify regularity at an ε the
    cluster size can carry")."""
    if len(A) <= EXACT_SIDE_THRESHOLD and len(B) <= EXACT_SIDE_THRESHOLD:
        return is_eps_regular(G, A, B, eps)
    return RegularityVerdict(True, pair_density(G, A, B))


def is_superregular(
    G: DenseGraph, A: list[int], B: list[int], eps: float, delta: float
) -> RegularityVerdict:
    """Per-vertex minimum degree delta into the other side, density at least
    delta, and eps-regularity by ``regularity_up_to_cap``."""
    bm, am = mask_of(B), mask_of(A)
    for a in A:
        if (G.rows[a] & bm).bit_count() < delta * len(B):
            return RegularityVerdict(
                False, pair_density(G, A, B), ((a,), tuple(B)), 0.0
            )
    for b in B:
        if (G.rows[b] & am).bit_count() < delta * len(A):
            return RegularityVerdict(
                False, pair_density(G, A, B), (tuple(A), (b,)), 0.0
            )
    verdict = regularity_up_to_cap(G, A, B, eps)
    if not verdict:
        return verdict
    if verdict.density < delta:
        return RegularityVerdict(False, verdict.density, (tuple(A), tuple(B)), 0.0)
    return verdict


# -- cluster partitions and reduced graphs ---------------------------------


@dataclass(frozen=True)
class ClusterPartition:
    """Exceptional set V0 plus equal-sized clusters, the N vertices they hold
    being 0..N-1, each once (``first_misplaced``)."""

    exceptional: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = {len(c) for c in self.clusters}
        if len(sizes) > 1:
            raise InvalidParameters(f"clusters must be equal-sized, got sizes {sorted(sizes)}")
        parts = (self.exceptional, *self.clusters)
        if misplaced := first_misplaced(sum(map(len, parts)), parts):
            raise InvalidParameters(misplaced)

    @property
    def L(self) -> int:
        return len(self.clusters)


def cluster_degrees(G: DenseGraph, clusters: list[list[int]]) -> np.ndarray:
    """The L × n int32 table whose entry [i, w] is |N(w) ∩ clusters[i]|, for
    equal-sized clusters: one unpack of the cluster rows, summed per
    cluster."""
    m = len(clusters[0]) if clusters else 0
    if any(len(c) != m for c in clusters):
        raise InvalidParameters("clusters must be equal-sized")
    flat = [v for c in clusters for v in c]
    return G.bit_matrix(flat).reshape(len(clusters), m, G.n).sum(axis=1, dtype=np.int32)


def refine_to_superregular(
    G: DenseGraph,
    clusters: list[list[int]],
    degrees: np.ndarray,
    R: DenseGraph,
    eps: float,
    delta: float,
) -> list[list[int]]:
    """Delete the vertices of low degree, as Böttcher–Schacht–Taraz do, so
    R-neighbour pairs become superregular at (4*sqrt(eps), delta/2).

    A vertex fails when its degree in G into some R-neighbour cluster falls
    below (delta-eps)*m.  Each cluster loses its failing vertices and no
    other, so the refined clusters may differ in size.  Degrees are
    read from ``degrees``, the ``cluster_degrees`` table of G whose rows
    follow ``clusters``; only a swap unpacks G's rows, so that moving a
    vertex to another cluster of its block counts its edges into the
    cluster it leaves.  More than sqrt(eps)*m failures toward one cluster,
    or more than m - ceil((1-sqrt(eps))*m) failing vertices in one cluster,
    means the regularity hypothesis was violated.  When no pair has
    more than ceil(sqrt(eps)*m) failures, the clusters are first repaired by
    swaps (``_swap_failing``) and the violation is reported only if that
    fails.  ``is_superregular`` is the independent check of the refined
    pairs.

    A violated hypothesis is a ``StageFailure`` at stage ``refine``; R must
    have one vertex per cluster, there must be a cluster, the clusters must
    be disjoint sets of vertices of G, and the table must have one row per
    cluster and one column per vertex of G.
    """
    if not 1 <= len(clusters) == R.n:
        raise InvalidParameters(
            f"{len(clusters)} clusters for a reduced graph on {R.n} vertices"
        )
    m = len(clusters[0])
    if any(len(c) != m for c in clusters):
        raise InvalidParameters("clusters must be equal-sized")
    if misplaced := first_misplaced(G.n, clusters):
        raise InvalidParameters(misplaced)
    L = len(clusters)
    if np.shape(degrees) != (L, G.n):
        raise InvalidParameters(
            f"degree table of shape {np.shape(degrees)} for {L} clusters of a "
            f"host on {G.n} vertices"
        )
    drop = m - math.ceil((1 - math.sqrt(eps)) * m)
    allowed = math.sqrt(eps) * m
    thresh = (delta - eps) * m
    nbrs = R.bit_matrix(range(L))[:, :L].astype(bool)
    flat = [v for c in clusters for v in c]
    # deg[x, j] = degree of flat[x] into cluster j (a copy, which a swap
    # updates); where[x] = the cluster holding flat[x]
    deg = degrees[:, flat].T
    where = np.repeat(np.arange(L), m)
    fails = (deg < thresh) & nbrs[where]
    counts = fails.reshape(L, m, L).sum(axis=1)
    refusal = _first_refusal(fails, counts, allowed, drop)
    if refusal is not None:
        if counts.max() > math.ceil(allowed) or not _swap_failing(
            G.bit_matrix(flat)[:, flat], deg, where, nbrs, thresh, fails, flat
        ):
            raise StageFailure("refine", refusal)
        fails = (deg < thresh) & nbrs[where]
    survivors: list[list[int]] = [[] for _ in range(L)]
    for v, i, bad in zip(flat, where.tolist(), fails.any(axis=1).tolist()):
        if not bad:
            survivors[i].append(v)
    return [sorted(vs) for vs in survivors]


def _first_refusal(
    fails: np.ndarray, counts: np.ndarray, allowed: float, drop: int
) -> str | None:
    """The detail of the first violated refinement hypothesis in cluster
    order: a pair with more than ``allowed`` failures, or a cluster with
    more than ``drop`` failing vertices (named by its worst pair)."""
    failing = fails.any(axis=1).reshape(len(counts), -1).sum(axis=1)
    over = counts > allowed
    violated = np.flatnonzero(over.any(axis=1) | (failing > drop))
    if not violated.size:
        return None
    i = int(violated[0])
    j = int(np.argmax(over[i] if over[i].any() else counts[i]))
    failed, bound = (counts[i, j], allowed) if over[i].any() else (failing[i], drop)
    return (
        f"cluster {i}: {failed} vertices fail the degree test toward "
        f"cluster {j} (allowed {bound:.2f})"
    )


def _swap_failing(
    adj: np.ndarray,
    deg: np.ndarray,
    where: np.ndarray,
    nbrs: np.ndarray,
    thresh: float,
    fails: np.ndarray,
    flat: list[int],
) -> bool:
    """Swap every failing vertex with a vertex of another cluster, updating
    ``deg`` and ``where`` in place; False (and nothing changed) when some
    failing vertex has no valid swap.  ``adj`` is the 0/1 uint8 matrix of G
    on ``flat``; numpy promotes its columns to the int32 of ``deg``.

    For a failing v, the swap taken is the first partner w in (cluster, id)
    order after which v and w both pass the degree test in their new
    clusters and no vertex that passed starts failing.  A swap changes only
    the degrees into the two clusters involved.
    """
    new_deg, new_where = deg.copy(), where.copy()
    failing = fails.any(axis=1)
    for v in sorted(np.flatnonzero(failing), key=lambda x: (where[x], flat[x])):
        if not failing[v]:
            continue  # repaired by an earlier swap
        i = new_where[v]
        for w in sorted(range(len(flat)), key=lambda x: (new_where[x], flat[x])):
            k = new_where[w]
            if k == i:
                continue
            v_row, w_row = new_deg[v].copy(), new_deg[w].copy()
            v_row[i] += adj[v, w]
            w_row[k] += adj[w, v]
            if (v_row[nbrs[k]] < thresh).any() or (w_row[nbrs[i]] < thresh).any():
                continue
            col_i = new_deg[:, i] - adj[:, v] + adj[:, w]
            col_k = new_deg[:, k] - adj[:, w] + adj[:, v]
            starts = ~failing & (
                (nbrs[new_where, i] & (col_i < thresh))
                | (nbrs[new_where, k] & (col_k < thresh))
            )
            starts[[v, w]] = False
            if starts.any():
                continue
            new_deg[:, i], new_deg[:, k] = col_i, col_k
            new_where[v], new_where[w] = k, i
            failing = ((new_deg < thresh) & nbrs[new_where]).any(axis=1)
            break
        else:
            return False
    deg[:], where[:] = new_deg, new_where
    return True


# -- one-pass degree-form partitioner ---------------------------------------


def heuristic_degree_form_partition(
    G: DenseGraph,
    delta: float,
    L_min: int,
    seed: int = 0,
) -> tuple[ClusterPartition, DenseGraph, np.ndarray]:
    """One-pass stand-in for the degree-form partition.

    A seeded shuffle of V(G) is chopped into L = L_min clusters of
    m = n // L_min vertices; the n mod L_min vertices left over are the
    exceptional set.  A cluster pair is dense when its density is at least
    delta, and the dense pairs are kept without a regularity check, which
    is not done yet (ROADMAP, "Certify regularity at an ε the cluster size
    can carry").  Returns the partition, the reduced graph R on the L
    clusters, whose edges are the dense pairs, and the ``cluster_degrees``
    table of the clusters, which the refinement reads.  Clusters are never
    refined, and equal cluster sizes hold by construction.

    Cost: one n × n unpack of the cluster rows, summed to the L × n table
    that is returned and then to the L × L pair counts; R's rows come from
    one L × L boolean array without a per-pair loop.  No later stage
    unpacks G again, apart from a swap in the refinement.
    """
    if L_min < 1:
        raise InvalidParameters("L_min must be >= 1")
    n, L = G.n, L_min
    m = n // L
    if m == 0:
        raise InvalidParameters(f"cannot split {n} vertices into {L} clusters")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    clusters = [sorted(order[i * m : (i + 1) * m]) for i in range(L)]
    exceptional = sorted(order[L * m :])

    # the degree table summed per cluster of columns:
    # counts[i, j] = e(clusters[i], clusters[j])
    degrees = cluster_degrees(G, clusters)
    counts = degrees[:, [v for c in clusters for v in c]].reshape(L, L, m).sum(axis=2)
    # dense[i, j]: the pair {i, j} is kept, judged on i < j alone
    dense = np.triu(counts / (m * m) >= delta, k=1)
    dense |= dense.T
    partition = ClusterPartition(
        tuple(exceptional), tuple(tuple(c) for c in clusters)
    )
    return partition, DenseGraph(L, packed_rows(dense), check=False), degrees
