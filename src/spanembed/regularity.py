"""Regular/superregular pair checkers, slicing arithmetic, subcluster
refinement, density inheritance of reduced graphs, and a one-pass partitioner.

Regularity is decided exactly and exhaustively, for sides of at most
``EXACT_SIDE_THRESHOLD`` vertices: for a fixed witness side Y, the extremal X
of every size is a prefix of the vertices sorted by degree into Y, so one
subset scan per side settles all pairs.  Pairs are read as 0/1 matrices
unpacked from the bit rows (``DenseGraph.bit_matrix``), and the prefixes of
every Y are scored at once by sorted degrees and running sums
(``_sorted_prefix_densities``).  Larger pairs are not checked for regularity
yet (ROADMAP item 3): ``regularity_up_to_cap`` states the one rule the
superregularity and cycle-structure checks apply.

The partitioner stands in for the degree form of the regularity lemma: a
seeded equitable chop into exactly ``L_min`` clusters and one density
classification of every cluster pair.  It keeps the dense pairs without
checking their regularity and never refines a cluster.  A reduced graph is
a plain ``DenseGraph`` on the cluster indices.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .density import DensityParams, SizeLimitExceeded, is_locally_dense_exact
from .graphs import DenseGraph, bits, mask_of


EXACT_SIDE_THRESHOLD = 12


class EmptySide(ValueError):
    pass


class InsufficientVertices(ValueError):
    """A cluster lost more vertices than the refinement allows."""

    def __init__(self, cluster: int, against: int, failed: int, allowed: float):
        self.cluster = cluster
        self.against = against
        self.failed = failed
        self.allowed = allowed
        super().__init__(
            f"cluster {cluster}: {failed} vertices fail the degree test toward "
            f"cluster {against} (allowed {allowed:.2f})"
        )


class NotSuperregular(InsufficientVertices):
    """A refined R-pair fails the superregularity check of the refinement."""

    def __init__(self, cluster: int, against: int, verdict: "RegularityVerdict"):
        self.cluster = cluster
        self.against = against
        self.verdict = verdict
        X, Y = verdict.witness
        ValueError.__init__(
            self,
            f"refined clusters {cluster} and {against} are not superregular: "
            f"density {verdict.density:.3f}, witness of sizes "
            f"({len(X)},{len(Y)}) deviates by {verdict.deviation:.3f}",
        )


def pair_density(G: DenseGraph, A: list[int], B: list[int]) -> float:
    """e_G(A,B) / (|A||B|) for disjoint nonempty A, B."""
    if not A or not B:
        raise EmptySide("pair density needs nonempty sides")
    am, bm = mask_of(A), mask_of(B)
    if am & bm:
        raise ValueError("sides must be disjoint")
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
    ``SizeLimitExceeded``.  An irregular verdict carries a violating witness.
    """
    if not A or not B:
        raise EmptySide("regularity needs nonempty sides")
    d_ab = pair_density(G, A, B)
    if len(A) > EXACT_SIDE_THRESHOLD or len(B) > EXACT_SIDE_THRESHOLD:
        raise SizeLimitExceeded(
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
    its density, unchecked (ROADMAP item 3)."""
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


def slice_robustness_expected(
    eps: float, delta: float, alpha: float
) -> tuple[float, float]:
    """Parameters surviving a perturbation of relative size alpha:
    (eps + 6*sqrt(alpha), delta - 4*alpha)."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0,1)")
    return eps + 6 * math.sqrt(alpha), delta - 4 * alpha


# -- cluster partitions and reduced graphs ---------------------------------


@dataclass(frozen=True)
class ClusterPartition:
    """Exceptional set V0 plus equal-sized disjoint clusters covering V(G)."""

    exceptional: tuple[int, ...]
    clusters: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sizes = {len(c) for c in self.clusters}
        if len(sizes) > 1:
            raise ValueError(f"clusters must be equal-sized, got sizes {sorted(sizes)}")
        seen: set[int] = set()
        for part in (self.exceptional, *self.clusters):
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} appears twice in the partition")
                seen.add(v)

    @property
    def L(self) -> int:
        return len(self.clusters)

    @property
    def m(self) -> int:
        return len(self.clusters[0]) if self.clusters else 0

    def covered(self) -> int:
        return len(self.exceptional) + self.L * self.m

    def to_json_dict(self) -> dict:
        return {
            "exceptional": list(self.exceptional),
            "clusters": [list(c) for c in self.clusters],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ClusterPartition":
        return cls(
            tuple(d["exceptional"]), tuple(tuple(c) for c in d["clusters"])
        )


@dataclass
class InheritanceReport:
    density_pass: bool
    density_witness: tuple[int, ...] | None
    min_degree_pass: bool
    min_degree: int
    min_degree_required: float

    def all_pass(self) -> bool:
        return self.density_pass and self.min_degree_pass


def inheritance_check(
    R: DenseGraph,
    rho: float,
    d: float,
    delta: float,
    eta: float,
) -> InheritanceReport:
    """Check that R is (max{3rho,3delta}, d)-dense with delta(R) >= (1/2+eta/2)L."""
    L = R.n
    rho_star = max(3 * rho, 3 * delta)
    verdict = is_locally_dense_exact(R, DensityParams(rho_star, d))
    min_deg = R.min_degree()
    required = (0.5 + eta / 2) * L
    return InheritanceReport(
        density_pass=bool(verdict),
        density_witness=verdict.witness,
        min_degree_pass=min_deg >= required,
        min_degree=min_deg,
        min_degree_required=required,
    )


def refine_to_superregular(
    G: DenseGraph,
    clusters: list[list[int]],
    R: DenseGraph,
    eps: float,
    delta: float,
    verify: bool = True,
) -> list[list[int]]:
    """Shrink each cluster to ceil((1-sqrt(eps))*m) so R-neighbour pairs become
    superregular at (4*sqrt(eps), delta/2).

    A vertex fails when its degree into some R-neighbour cluster falls below
    (delta-eps)*m, and failing vertices are discarded.  More than sqrt(eps)*m
    failures toward one cluster, or more than m minus the target size in one
    cluster, means the regularity hypothesis was violated.  When no pair has
    more than ceil(sqrt(eps)*m) failures, the clusters are first repaired by
    swaps (``_swap_failing``) and the violation is reported only if that
    fails.  Survivors are trimmed deterministically (highest ids first) to the
    exact target size.  With ``verify``, every refined R-pair is rechecked by
    ``is_superregular`` and a failing pair raises ``NotSuperregular``.
    """
    m = len(clusters[0])
    if any(len(c) != m for c in clusters):
        raise ValueError("clusters must be equal-sized")
    L = len(clusters)
    target = math.ceil((1 - math.sqrt(eps)) * m)
    allowed = math.sqrt(eps) * m
    thresh = (delta - eps) * m
    nbrs = R.bit_matrix(range(L))[:, :L].astype(bool)
    flat = [v for c in clusters for v in c]
    # adj[x, y] for positions x, y of flat; deg[x, j] = degree of flat[x]
    # into cluster j; where[x] = the cluster holding flat[x]
    adj = G.bit_matrix(flat)[:, flat]
    deg = adj.reshape(L * m, L, m).sum(axis=2, dtype=np.int64)
    where = np.repeat(np.arange(L), m)
    fails = (deg < thresh) & nbrs[where]
    counts = fails.reshape(L, m, L).sum(axis=1)
    refusal = _first_refusal(fails, counts, allowed, m - target)
    if refusal is not None:
        if counts.max() > math.ceil(allowed) or not _swap_failing(
            adj.astype(np.int64), deg, where, nbrs, thresh, fails, flat
        ):
            raise refusal
        fails = (deg < thresh) & nbrs[where]
    survivors: list[list[int]] = [[] for _ in range(L)]
    for v, i, bad in zip(flat, where.tolist(), fails.any(axis=1).tolist()):
        if not bad:
            survivors[i].append(v)
    refined = [sorted(vs)[:target] for vs in survivors]
    if verify:
        for i in range(len(refined)):
            for j in range(i + 1, len(refined)):
                if not R.has_edge(i, j):
                    continue
                verdict = is_superregular(
                    G, refined[i], refined[j], 4 * math.sqrt(eps), delta / 2
                )
                if not verdict:
                    raise NotSuperregular(i, j, verdict)
    return refined


def _first_refusal(
    fails: np.ndarray, counts: np.ndarray, allowed: float, drop: int
) -> InsufficientVertices | None:
    """The first violated refinement hypothesis in cluster order: a pair
    with more than ``allowed`` failures, or a cluster with more than
    ``drop`` failing vertices (named by its worst pair)."""
    failing = fails.any(axis=1).reshape(len(counts), -1).sum(axis=1)
    over = counts > allowed
    violated = np.flatnonzero(over.any(axis=1) | (failing > drop))
    if not violated.size:
        return None
    i = int(violated[0])
    if over[i].any():
        j = int(np.argmax(over[i]))
        return InsufficientVertices(i, j, int(counts[i, j]), allowed)
    return InsufficientVertices(i, int(np.argmax(counts[i])), int(failing[i]), drop)


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
    failing vertex has no valid swap.

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


@dataclass
class PartitionReport:
    """Measured (not guaranteed) properties of an emitted partition.

    ``pair_verdicts`` labels every cluster pair i < j "sparse" or "dense" by
    its density alone; no pair's regularity is checked (ROADMAP item 3).
    """

    L: int
    m: int
    exceptional_size: int
    pair_verdicts: dict[tuple[int, int], str] = field(default_factory=dict)


def heuristic_degree_form_partition(
    G: DenseGraph,
    delta: float,
    L_min: int,
    seed: int = 0,
) -> tuple[ClusterPartition, DenseGraph, DenseGraph, PartitionReport]:
    """One-pass stand-in for the degree-form partition.

    A seeded shuffle of V(G) is chopped into L = L_min clusters of
    m = n // L_min vertices; the n mod L_min vertices left over are the
    exceptional set.  Every cluster pair i < j is then labelled "sparse"
    (density below delta) or "dense", and the dense pairs are kept without
    a regularity check, which is not done yet (ROADMAP item 3).  Returns
    the partition, the pure subgraph (edges of the dense pairs,
    intra-cluster edges dropped, exceptional-vertex edges kept), the
    reduced graph on the L clusters with the dense pairs as edges, and a
    report.  Clusters are never refined.  Equal cluster sizes and missing
    intra-cluster pure edges hold by construction.
    """
    if L_min < 1:
        raise ValueError("L_min must be >= 1")
    n, L = G.n, L_min
    m = n // L
    if m == 0:
        raise ValueError(f"cannot split {n} vertices into {L} clusters")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    clusters = [sorted(order[i * m : (i + 1) * m]) for i in range(L)]
    exceptional = sorted(order[L * m :])

    masks = [mask_of(c) for c in clusters]
    # one unpack of the cluster rows; counts[i][j] = e(clusters[i], clusters[j])
    flat = [v for c in clusters for v in c]
    blocks = G.bit_matrix(flat)[:, flat].reshape(L, m, L, m)
    counts = blocks.sum(axis=(1, 3)).tolist()
    pair_verdicts: dict[tuple[int, int], str] = {}
    r_edges: list[tuple[int, int]] = []
    for i in range(L):
        for j in range(i + 1, L):
            if counts[i][j] / (m * m) < delta:
                pair_verdicts[(i, j)] = "sparse"
            else:
                pair_verdicts[(i, j)] = "dense"
                r_edges.append((i, j))

    keep = [[False] * L for _ in range(L)]
    for i, j in r_edges:
        keep[i][j] = keep[j][i] = True
    cluster_of = {}
    for i, c in enumerate(clusters):
        for v in c:
            cluster_of[v] = i
    exc_mask = mask_of(exceptional)
    pure_rows = [0] * n
    for v in range(n):
        ci = cluster_of.get(v)
        if ci is None:
            pure_rows[v] = G.rows[v]  # exceptional vertices keep their edges
            continue
        row = G.rows[v] & exc_mask
        for j in range(L):
            if keep[ci][j]:
                row |= G.rows[v] & masks[j]
        pure_rows[v] = row
    # symmetric by construction: keep is symmetric, exceptional rows are G's,
    # and every cluster row keeps its edges to the exceptional set
    pure = DenseGraph(n, pure_rows, check=False)

    partition = ClusterPartition(
        tuple(exceptional), tuple(tuple(c) for c in clusters)
    )
    R = DenseGraph.from_edges(L, r_edges)
    report = PartitionReport(
        L=L, m=m, exceptional_size=len(exceptional), pair_verdicts=pair_verdicts
    )
    return partition, pure, R, report
