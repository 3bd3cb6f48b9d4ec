"""Regular/superregular pair checkers, slicing arithmetic, subcluster
refinement, reduced graphs, density inheritance, and a best-effort partitioner.

Exact regularity is decided exhaustively (sides capped at 12): for a fixed
witness side Y, the extremal X of every size is a prefix of the vertices
sorted by degree into Y, so one subset scan per side settles all pairs.
Heuristic mode searches degree/codegree outliers and random subsets; it may
miss violations.  Pairs are read as 0/1 matrices unpacked from the bit rows
(``DenseGraph.bit_matrix``) and candidates are scored in bulk: the outlier
families of every Y at once by sorted degrees and running sums
(``_sorted_prefix_densities``, the one implementation of the prefix
argument here), the random subsets by one matrix product.  The heuristic
search is one kernel, ``_heuristic_verdicts``, that scores a list of pairs
with equal side sizes ``PAIR_CHUNK`` at a time, each pair with its own
seed; ``is_eps_regular`` runs it on one pair, the partitioner on all
cluster pairs of a pass.  Scores are exact integer edge counts, divided as
a per-candidate recheck would, so verdicts and witnesses do not depend on
the batching.  Heuristic mode never reports "irregular" today: known
defect 1 in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .density import DensityParams, SizeLimitExceeded, is_locally_dense_exact
from .graphs import DenseGraph, bits, mask_of


EXACT_SIDE_THRESHOLD = 12
# pairs the heuristic kernel scores per batch: bounds its scratch arrays
PAIR_CHUNK = 64


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


def _fair_coins(rng: random.Random, k: int) -> np.ndarray:
    """``[rng.random() < 0.5 for _ in range(k)]`` as a bool array, in one draw.

    ``random()`` takes the top 27 bits of its float from the first of two
    32-bit Mersenne Twister words, so it is below 0.5 exactly when that word
    is below 2**31.  ``getrandbits(64*k)`` consumes the same 2k words in the
    same order, least significant first, and leaves ``rng`` in the state
    ``k`` calls of ``random()`` would.
    """
    if k == 0:
        return np.zeros(0, dtype=bool)
    words = np.frombuffer(
        rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4"
    )
    return words[0::2] < 1 << 31


def _sorted_prefix_densities(
    side: np.ndarray | list[int], counts: np.ndarray, other_sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The extremal-prefix argument, for every column of ``counts`` at once.

    ``counts[..., i, c]`` is the number of edges from ``side[..., i]`` into a
    fixed set Y_c of ``other_sizes[..., c]`` vertices; leading axes index
    independent pairs.  Among the X ⊆ side with |X| = k, d(X, Y_c) is least
    for the k vertices of lowest degree into Y_c and greatest for the k of
    highest degree, so one sort and one running sum per column give both
    extremes for every k.  Returns ``ids`` (each column's vertices sorted
    ascending by (count, vertex)) and ``dens``: ``dens[0, ..., k-1, c]`` is
    e(X, Y_c) / (k |Y_c|) for X = ids[..., :k, c], and ``dens[1, ..., k-1, c]``
    the same for X = ids[..., -k:, c].
    """
    side = np.asarray(side)
    span = int(side.max()) + 1
    keys = np.sort(counts * span + side[..., None], axis=-2)
    degs = keys // span
    sums = np.cumsum(np.stack([degs, np.flip(degs, axis=-2)]), axis=-2)
    ks = np.arange(1, side.shape[-1] + 1)[:, None]
    return keys % span, sums / (ks * other_sizes[..., None, :])


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


def _outlier_devs(
    side: np.ndarray,
    counts: np.ndarray,
    other_sizes: np.ndarray,
    min_k: int,
    d_ab: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """|d_ab - d(X, Y_c)| for the degree-outlier subsets X of every pair's side.

    Returns ``ids`` as in ``_sorted_prefix_densities`` and ``devs`` indexed
    (pair, c, k - min_k, highest), so that C order is the heuristic's
    visiting order: column by column, and for k = min_k, min_k+1, ... the k
    lowest rows, then the k highest.
    """
    ids, dens = _sorted_prefix_densities(side, counts, other_sizes)
    devs = np.abs(d_ab[:, None, None] - dens[:, :, min_k - 1 :])
    return ids, devs.transpose(1, 3, 2, 0)


def _outlier_set(ids: np.ndarray, c: int, i: int, highest: int, min_k: int):
    k = min_k + i
    return tuple((ids[-k:, c] if highest else ids[:k, c]).tolist())


def _score_chunk(
    M: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    eps: float,
    trials: int,
    seeds: list[int],
) -> Iterator[RegularityVerdict]:
    """The heuristic search on the pairs (A[p], B[p]) with 0/1 matrices M[p]."""
    P, a, b = M.shape
    min_x = max(1, math.ceil(eps * a))
    min_y = max(1, math.ceil(eps * b))
    rngs = [random.Random(seed) for seed in seeds]
    d_ab = M.sum((1, 2)) / (a * b)

    # column c of W[p] is the indicator of a set Y_c ⊆ B[p]: Y_0 = B[p], then
    # N(a) ∩ B[p] and B[p] \ N(a) for each sampled a (sampling positions
    # draws what rng.sample(A[p], 24) would); columns of fewer than min_y
    # vertices are masked out
    if a <= 24:
        sampled = M
    else:
        sample = np.array([rng.sample(range(a), 24) for rng in rngs])
        sampled = np.take_along_axis(M, sample[:, :, None], axis=1)
    W = np.ones((P, b, 1 + 2 * sampled.shape[1]), dtype=np.int64)
    W[:, :, 1::2] = sampled.transpose(0, 2, 1)
    W[:, :, 2::2] -= W[:, :, 1::2]
    sizes = W.sum(1)
    big = sizes >= min_y
    a_ids, a_devs = _outlier_devs(A, M @ W, np.maximum(sizes, 1), min_x, d_ab)
    a_over = (a_devs > eps) & big[:, :, None, None]
    b_ids, b_devs = _outlier_devs(
        B, M.sum(1)[:, :, None], np.full((P, 1), a), min_y, d_ab
    )
    b_over = b_devs > eps

    # random subsets: trial t keeps A[p][i] on coin (t, i), B[p][j] on (t, a+j)
    coins = np.stack([_fair_coins(rng, trials * (a + b)) for rng in rngs])
    coins = coins.reshape(P, trials, a + b)
    xs, ys = coins[:, :, :a], coins[:, :, a:]
    nx, ny = xs.sum(2), ys.sum(2)
    edges = ((xs.astype(np.int64) @ M) * ys).sum(2)
    t_devs = np.abs(d_ab[:, None] - edges / np.maximum(nx * ny, 1))
    t_over = (nx >= min_x) & (ny >= min_y) & (t_devs > eps)

    violated = a_over.any((1, 2, 3)) | b_over.any((1, 2, 3)) | t_over.any(1)
    for p in range(P):
        d = float(d_ab[p])
        verdict = RegularityVerdict(True, d)
        if not violated[p]:
            yield verdict
            continue
        Ap, Bp = A[p].tolist(), B[p].tolist()

        def candidates():
            # the order of the search: degree outliers of A, of B, the
            # codegree slices, the random subsets
            a_hits = np.argwhere(a_over[p]).tolist()
            for c, i, h in a_hits:
                if c == 0:
                    X = _outlier_set(a_ids[p], c, i, h, min_x)
                    yield X, tuple(Bp), a_devs[p, c, i, h]
            for _, i, h in np.argwhere(b_over[p]).tolist():
                Y = _outlier_set(b_ids[p], 0, i, h, min_y)
                yield tuple(Ap), Y, b_devs[p, 0, i, h]
            for c, i, h in a_hits:
                if c > 0:
                    X = _outlier_set(a_ids[p], c, i, h, min_x)
                    Y = tuple(sorted(Bp[j] for j in np.flatnonzero(W[p, :, c])))
                    yield X, Y, a_devs[p, c, i, h]
            for t in np.flatnonzero(t_over[p]):
                X = tuple(v for v, keep in zip(Ap, xs[p, t]) if keep)
                Y = tuple(v for v, keep in zip(Bp, ys[p, t]) if keep)
                yield X, Y, t_devs[p, t]

        for X, Y, dev in candidates():
            hit = RegularityVerdict(False, d, (X, Y), float(dev))
            if hit:  # known defect 1: an irregular verdict is falsy
                verdict = hit
                break
        yield verdict


def _heuristic_verdicts(
    M: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    eps: float,
    trials: int,
    seeds: list[int],
) -> Iterator[RegularityVerdict]:
    """Heuristic verdicts of the pairs (A[p], B[p]), in order.

    ``M[p]`` is the 0/1 matrix of pair p (entry (i, j) is 1 iff
    A[p][i]B[p][j] is an edge); all pairs share the side sizes and pair p is
    searched with ``random.Random(seeds[p])``.  Pairs are scored
    ``PAIR_CHUNK`` at a time, so a caller that stops early stops the work,
    and the scratch arrays stay bounded however many pairs there are.
    """
    for s in range(0, len(seeds), PAIR_CHUNK):
        chunk = slice(s, s + PAIR_CHUNK)
        yield from _score_chunk(
            M[chunk].astype(np.int64), A[chunk], B[chunk], eps, trials, seeds[chunk]
        )


def is_eps_regular(
    G: DenseGraph,
    A: list[int],
    B: list[int],
    eps: float,
    mode: str = "exact",
    trials: int = 200,
    seed: int = 0,
) -> RegularityVerdict:
    """Check |d(A,B) - d(X,Y)| <= eps over X ⊆ A, Y ⊆ B with the size bounds.

    Exact mode is exhaustive for sides up to 12: every Y on each side, with
    X closed by the sorted prefix sums.  Heuristic mode tries, in this
    order, degree outliers of A against B and of B against A, outliers of A
    against Y = N(a) ∩ B and B \\ N(a) for up to 24 vertices a of A, and
    ``trials`` random subset pairs, with the coins drawn from
    ``random.Random(seed)`` in the order one ``random()`` per vertex would
    draw them.  It is the batch kernel ``_heuristic_verdicts`` run on one
    pair, the kernel the partitioner runs on every cluster pair of a pass.
    A "regular" answer may be wrong; an "irregular" one would carry a
    violating witness, but today heuristic mode never returns one (known
    defect 1 in ``perfbench/NOTES.md``: ``if hit:`` tests the verdict's
    truth, which is False for an irregular verdict).
    """
    if not A or not B:
        raise EmptySide("regularity needs nonempty sides")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    d_ab = pair_density(G, A, B)

    if mode == "exact":
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

    if mode == "heuristic":
        M = G.bit_matrix(A)[:, B][None]
        batch = _heuristic_verdicts(M, np.array([A]), np.array([B]), eps, trials, [seed])
        return next(batch)

    raise ValueError(f"unknown mode {mode!r}")


def is_superregular(
    G: DenseGraph,
    A: list[int],
    B: list[int],
    eps: float,
    delta: float,
    mode: str = "exact",
    seed: int = 0,
) -> RegularityVerdict:
    """(eps,delta)-regular plus per-vertex minimum degree into the other side."""
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
    verdict = is_eps_regular(G, A, B, eps, mode=mode, seed=seed)
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


@dataclass(frozen=True)
class ReducedGraph:
    """Cluster-level graph; edges annotate (eps,delta)-regular pairs."""

    base: DenseGraph
    pair_params: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)
    superregular_edges: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self):
        for (u, v) in self.superregular_edges:
            if not self.base.has_edge(u, v):
                raise ValueError(f"superregular pair ({u},{v}) not an edge of R")


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
    G: DenseGraph,
    partition: ClusterPartition,
    R: ReducedGraph,
    rho: float,
    d: float,
    delta: float,
    eta: float,
) -> InheritanceReport:
    """Check that R is (max{3rho,3delta}, d)-dense with delta(R) >= (1/2+eta/2)L."""
    L = R.base.n
    rho_star = max(3 * rho, 3 * delta)
    verdict = is_locally_dense_exact(R.base, DensityParams(rho_star, d))
    min_deg = R.base.min_degree()
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
    R: ReducedGraph,
    eps: float,
    delta: float,
    verify: bool = True,
    seed: int = 0,
) -> list[list[int]]:
    """Shrink each cluster to ceil((1-sqrt(eps))*m) so R-neighbour pairs become
    superregular at (4*sqrt(eps), delta/2).

    A vertex is discarded when its degree into some R-neighbour cluster falls
    below (delta-eps)*m; more than sqrt(eps)*m failures in one cluster means
    the regularity hypothesis was violated and is reported.  Survivors are
    trimmed deterministically (highest ids first) to the exact target size.
    """
    m = len(clusters[0])
    if any(len(c) != m for c in clusters):
        raise ValueError("clusters must be equal-sized")
    target = math.ceil((1 - math.sqrt(eps)) * m)
    allowed = math.sqrt(eps) * m
    masks = [mask_of(c) for c in clusters]
    refined: list[list[int]] = []
    for i, cluster in enumerate(clusters):
        bad: set[int] = set()
        for j in range(len(clusters)):
            if not R.base.has_edge(i, j):
                continue
            thresh = (delta - eps) * m
            failing = [v for v in cluster if (G.rows[v] & masks[j]).bit_count() < thresh]
            if len(failing) > allowed:
                raise InsufficientVertices(i, j, len(failing), allowed)
            bad.update(failing)
        if len(bad) > m - target:
            # hypothesis violated jointly even though each pair was fine
            worst = max(
                (j for j in range(len(clusters)) if R.base.has_edge(i, j)),
                key=lambda j: sum(
                    1 for v in cluster if (G.rows[v] & masks[j]).bit_count() < (delta - eps) * m
                ),
                default=i,
            )
            raise InsufficientVertices(i, worst, len(bad), m - target)
        survivors = [v for v in cluster if v not in bad]
        refined.append(sorted(survivors)[:target])
    if verify:
        for i in range(len(refined)):
            for j in range(i + 1, len(refined)):
                if not R.base.has_edge(i, j):
                    continue
                verdict = is_superregular(
                    G,
                    refined[i],
                    refined[j],
                    4 * math.sqrt(eps),
                    delta / 2,
                    mode="heuristic",
                    seed=seed,
                )
                if not verdict:
                    raise InsufficientVertices(i, j, -1, allowed)
    return refined


# -- best-effort degree-form partitioner ------------------------------------


class BudgetExhausted(RuntimeError):
    pass


def _cluster_blocks(
    G: DenseGraph, clusters: list[list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """One unpack of the cluster rows: ``blocks[i, :, j, :]`` is the 0/1
    matrix of the pair (clusters[i], clusters[j]); ``sides`` is the L×m
    array of the clusters."""
    sides = np.array(clusters)
    flat = sides.ravel().tolist()
    blocks = G.bit_matrix(flat)[:, flat].reshape(sides.shape * 2)
    return blocks, sides


def _pair_verdicts(
    blocks: np.ndarray,
    sides: np.ndarray,
    pairs: list[tuple[int, int]],
    eps: float,
    trials: int,
    seeds: list[int],
) -> Iterator[RegularityVerdict]:
    """Heuristic verdicts of the cluster pairs, in order (see ``_cluster_blocks``)."""
    I = np.array([i for i, _ in pairs], dtype=np.intp)
    J = np.array([j for _, j in pairs], dtype=np.intp)
    return _heuristic_verdicts(blocks[I, :, J, :], sides[I], sides[J], eps, trials, seeds)


def _find_splits(
    G: DenseGraph,
    clusters: list[list[int]],
    eps: float,
    trials: int,
    rng: random.Random,
) -> dict[int, list[int]]:
    """One refinement pass: visit the pairs i < j in order, skip a pair once
    one of its clusters is marked, and mark the sides of each irregularity
    witness that are proper subsets of their clusters.

    The pairs left to visit are scored optimistically in one batch, each
    with the next seed of ``rng``.  A verdict that marks a cluster changes
    which later pairs are skipped, so the batch is dropped there, ``rng`` is
    rewound to just after that pair's seed, and the rest is scored again:
    the seeds and verdicts are those of visiting the pairs one at a time.
    """
    blocks, sides = _cluster_blocks(G, clusters)
    pairs = [(i, j) for i in range(len(clusters)) for j in range(i + 1, len(clusters))]
    splits: dict[int, list[int]] = {}
    start = 0
    while start < len(pairs):
        todo = [
            k for k in range(start, len(pairs))
            if pairs[k][0] not in splits and pairs[k][1] not in splits
        ]
        state = rng.getstate()
        seeds = [rng.randrange(1 << 30) for _ in todo]
        verdicts = _pair_verdicts(blocks, sides, [pairs[k] for k in todo], eps, trials, seeds)
        start = len(pairs)
        for drawn, (k, verdict) in enumerate(zip(todo, verdicts), start=1):
            if verdict.regular:
                continue
            i, j = pairs[k]
            X, Y = verdict.witness
            marked = len(splits)
            if 0 < len(X) < len(clusters[i]):
                splits[i] = list(X)
            if 0 < len(Y) < len(clusters[j]):
                splits[j] = list(Y)
            if len(splits) > marked:
                rng.setstate(state)
                for _ in range(drawn):
                    rng.randrange(1 << 30)
                start = k + 1
                break
    return splits


@dataclass
class PartitionReport:
    """Measured (not guaranteed) properties of an emitted partition."""

    L: int
    m: int
    exceptional_size: int
    pair_verdicts: dict[tuple[int, int], str] = field(default_factory=dict)
    degree_loss_histogram: dict[int, int] = field(default_factory=dict)
    rounds: int = 0


def heuristic_degree_form_partition(
    G: DenseGraph,
    eps: float,
    delta: float,
    L_min: int,
    seed: int = 0,
    max_rounds: int = 3,
    max_L: int | None = None,
    heuristic_trials: int = 60,
) -> tuple[ClusterPartition, DenseGraph, ReducedGraph, PartitionReport]:
    """Iterative-refinement stand-in for the degree-form partition.

    Starts from a seeded random equitable partition with L in
    [L_min, 8*L_min], splits clusters along heuristic irregularity witnesses
    for a bounded number of rounds, then emits the pure subgraph (edges of
    regular pairs with density >= delta, intra-cluster edges dropped,
    exceptional-vertex edges kept) and the reduced graph.  Equal cluster
    sizes, the exceptional bound and missing intra-cluster pure edges are
    enforced structurally; the degree condition is measured into the report.
    """
    if L_min < 1:
        raise ValueError("L_min must be >= 1")
    if heuristic_trials < 0:
        raise ValueError(f"heuristic_trials must be >= 0, got {heuristic_trials}")
    n = G.n
    rng = random.Random(seed)
    cap = max_L if max_L is not None else 8 * L_min
    L = L_min
    order = list(range(n))
    rng.shuffle(order)

    def equitable(order_: list[int], L_: int) -> tuple[list[list[int]], list[int]]:
        m_ = n // L_
        if m_ == 0:
            raise BudgetExhausted(f"cannot split {n} vertices into {L_} clusters")
        clusters_ = [sorted(order_[i * m_ : (i + 1) * m_]) for i in range(L_)]
        exceptional_ = sorted(order_[L_ * m_ :])
        return clusters_, exceptional_

    clusters, exceptional = equitable(order, L)
    rounds = 0
    for rounds in range(max_rounds + 1):
        if rounds == max_rounds:
            break
        splits = _find_splits(G, clusters, eps, heuristic_trials, rng)
        if not splits:
            break
        if 2 * len(clusters) > cap:
            break
        # split marked clusters along their witnesses, re-chop equitably
        pieces: list[int] = []
        for i, cluster in enumerate(clusters):
            if i in splits:
                w = set(splits[i])
                pieces.extend(v for v in cluster if v in w)
                pieces.extend(v for v in cluster if v not in w)
            else:
                pieces.extend(cluster)
        pieces.extend(exceptional)
        L = min(cap, 2 * L)
        clusters, exceptional = equitable(pieces, L)
        if len(exceptional) > eps * n:
            raise BudgetExhausted(
                f"exceptional set grew to {len(exceptional)} > eps*n"
            )

    m = len(clusters[0])
    masks = [mask_of(c) for c in clusters]
    # pure-graph assembly: keep regular+dense pairs, drop the rest
    blocks, sides = _cluster_blocks(G, clusters)
    counts = blocks.sum(axis=(1, 3)).tolist()
    pairs = [(i, j) for i in range(L) for j in range(i + 1, L)]
    dense = [(i, j) for i, j in pairs if counts[i][j] / (m * m) >= delta]
    seeds = [rng.randrange(1 << 30) for _ in dense]
    verdicts = _pair_verdicts(blocks, sides, dense, eps, heuristic_trials, seeds)
    pair_verdicts: dict[tuple[int, int], str] = {}
    r_edges: list[tuple[int, int]] = []
    for i, j in pairs:
        if counts[i][j] / (m * m) < delta:
            pair_verdicts[(i, j)] = "sparse"
        elif next(verdicts).regular:
            pair_verdicts[(i, j)] = "regular-heuristic"
            r_edges.append((i, j))
        else:
            pair_verdicts[(i, j)] = "irregular"

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
    R = ReducedGraph(
        DenseGraph.from_edges(L, r_edges),
        pair_params={e: (eps, delta) for e in r_edges},
    )
    hist: dict[int, int] = {}
    for v in range(n):
        loss = G.degree(v) - pure.degree(v)
        bucket = int(10 * loss / max(1, n))
        hist[bucket] = hist.get(bucket, 0) + 1
    report = PartitionReport(
        L=L,
        m=m,
        exceptional_size=len(exceptional),
        pair_verdicts=pair_verdicts,
        degree_loss_histogram=hist,
        rounds=rounds,
    )
    return partition, pure, R, report
