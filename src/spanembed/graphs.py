"""Dense graph core: bit-matrix graphs, named constructions, bandwidth, witnesses.

Vertices are integers 0..n-1.  Adjacency is stored as one Python int per
vertex (bit v of row u set iff uv is an edge), which makes degree, common
neighbourhood and induced-count kernels single AND/popcount operations.
``distinct_representatives`` is the one matcher on such masks: the target
embedder's joint boundary floor and the absorber's insertion slots both
call it.  ``validate_witness`` checks a claimed power of a path or cycle
with one AND per required pair and names the first violation in that same
pass.  Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, eq
from typing import Iterable, Iterator, Sequence

import numpy as np


class InvalidParameters(ValueError):
    """Raised for every rejected parameter: a graph, generator, IO, density,
    regularity or Hamilton-power argument outside what its function accepts."""


class StageFailure(RuntimeError):
    """A failure labelled with the proof stage or named condition that broke.

    ``detail`` says what was found; ``violated`` optionally names the
    displayed inequality or inner label a caller attributes the failure to.
    """

    def __init__(self, stage: str, detail: str = "", violated: str | None = None):
        self.stage = stage
        self.detail = detail
        self.violated = violated
        self.nodes = 0  # the nodes a refused search entered; the embedders set it
        super().__init__(f"{stage}: {detail}" if detail else stage)


# Largest vertex count an edge-list `p` header may declare.  The pipeline
# embeds C^1 in gnp(9600, .97); at n = 10,000 the bit rows take 12.5 MB and
# one unpacked 0/1 matrix (``bit_matrix``) 100 MB, so a larger header is
# refused before anything is allocated.
MAX_EDGELIST_N = 10_000


def bits(mask: int) -> Iterator[int]:
    """Iterator over the set bit positions of ``mask`` in ascending order,
    one lowest-bit step per position, so a caller that stops early pays
    only for the positions it read."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def kth_bit(mask: int, k: int) -> int:
    """Position of the k-th (from 0) set bit of ``mask``, for k below its
    popcount.  A k below the binary search's step count (the bit length of
    ``mask.bit_length()``) clears the k low bits one at a time; a larger k
    searches on the popcounts of the low prefixes of ``mask``."""
    if k < mask.bit_length().bit_length():
        for _ in range(k):
            mask &= mask - 1
        return (mask & -mask).bit_length() - 1
    lo, hi = 0, mask.bit_length() - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mask & ((2 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def packed_rows(matrix: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as a mask: bit w set iff entry w is nonzero
    (the inverse of ``DenseGraph.bit_matrix``)."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def distinct_representatives(masks: Sequence[int]) -> list[int]:
    """Distinct representatives, one vertex of each mask, of the longest
    prefix of ``masks`` that has them: they cover every mask iff Hall's
    condition holds (Hall, J. London Math. Soc. 1935).  Mask i is matched by
    an augmenting path, searched depth-first on an explicit stack: a mask on
    the path tries the vertices this search has not reached, lowest first,
    and a free vertex flips the path."""
    owner: dict[int, int] = {}  # vertex -> the index of the mask it represents
    for i in range(len(masks)):
        path, seen = [i], 0
        taken: list[int] = []  # taken[d]: the vertex by which path[d] reached path[d + 1]
        while path:
            fresh = masks[path[-1]] & ~seen
            if not fresh:  # a dead end: the mask before it tries its next vertex
                path.pop()
                if taken:
                    taken.pop()
                continue
            low = fresh & -fresh
            seen |= low
            taken.append(v := low.bit_length() - 1)
            if v in owner:
                path.append(owner[v])
                continue
            for j, v in zip(path, taken):  # each mask on the path takes the vertex it tried
                owner[v] = j
            break
        else:
            break
    reps = [0] * len(owner)
    for v, j in owner.items():
        reps[j] = v
    return reps


def first_misplaced(n: int, groups: Iterable[Iterable[int]]) -> str | None:
    """The first vertex, in group order, that lies outside 0..n-1 or in two
    of ``groups``, described; None when the groups are disjoint sets of
    vertices of an n-vertex graph."""
    seen: set[int] = set()
    for group in groups:
        for v in group:
            if not 0 <= v < n:
                return f"vertex {v} lies outside 0..{n - 1}"
            if v in seen:
                return f"vertex {v} lies in two clusters"
            seen.add(v)
    return None


class DenseGraph:
    """Immutable undirected graph over 0..n-1 backed by a row bit-matrix."""

    __slots__ = ("n", "rows", "_edge_count")

    def __init__(self, n: int, rows: Sequence[int], check: bool = True):
        if n < 0:
            raise InvalidParameters("vertex count must be nonnegative")
        if len(rows) != n:
            raise InvalidParameters("row count does not match n")
        self.n = n
        self.rows = tuple(rows)
        if check:
            full = (1 << n) - 1
            for u, row in enumerate(self.rows):
                if row & ~full:
                    raise InvalidParameters(f"row {u} has bits outside 0..n-1")
                if row >> u & 1:
                    raise InvalidParameters(f"self-loop at vertex {u}")
            for u in range(n):
                for v in bits(self.rows[u] & ((1 << u) - 1)):
                    if not self.rows[v] >> u & 1:
                        raise InvalidParameters(f"asymmetric pair ({u},{v})")
        self._edge_count = sum(r.bit_count() for r in self.rows) // 2

    # -- constructors ---------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "DenseGraph":
        return cls(n, [0] * n, check=False)

    @classmethod
    def complete(cls, n: int) -> "DenseGraph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)], check=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DenseGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise InvalidParameters(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameters(f"edge ({u},{v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, check=False)

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degree_into(self, v: int, mask: int) -> int:
        """d_G(v, A) for A given as a bitmask."""
        return (self.rows[v] & mask).bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.rows[v]))

    def edge_count(self) -> int:
        return self._edge_count

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def common_neighborhood(self, vertices: Iterable[int]) -> int:
        """Bitmask of the joint neighbourhood of ``vertices`` (full set if empty)."""
        m = self.full_mask()
        for v in vertices:
            m &= self.rows[v]
        return m

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        vmask = mask_of(vs)
        for v in vs:
            if (self.rows[v] & vmask).bit_count() != len(vs) - 1:
                return False
        return True

    def edges_within(self, mask: int) -> int:
        """e(G[X]) for X a bitmask."""
        return self.edges_between(mask, mask) // 2

    def edges_between(self, xmask: int, ymask: int) -> int:
        """Ordered incidence count e_G(X,Y); e_G(X,X) = 2 e(G[X])."""
        total = 0
        for v in bits(xmask):
            total += (self.rows[v] & ymask).bit_count()
        return total

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(r.bit_count() for r in self.rows)

    def bit_matrix(self, vertices: Sequence[int]) -> np.ndarray:
        """The rows of ``vertices`` unpacked into a len(vertices)×n 0/1 uint8
        matrix: entry (i, w) is 1 iff vertices[i]w is an edge."""
        nbytes = (self.n + 7) // 8
        packed = np.frombuffer(
            b"".join(self.rows[v].to_bytes(nbytes, "little") for v in vertices),
            dtype=np.uint8,
        ).reshape(len(vertices), nbytes)
        return np.unpackbits(packed, axis=1, count=self.n, bitorder="little")

    def induced(self, vertices: Sequence[int]) -> tuple["DenseGraph", list[int]]:
        """Induced subgraph on distinct ``vertices``, plus the list mapping new
        ids to original ids."""
        vs = list(vertices)
        rows = packed_rows(self.bit_matrix(vs)[:, vs])
        return DenseGraph(len(vs), rows, check=False), vs

    def bfs_distances(self, source: int) -> list[int]:
        """BFS distances from source; -1 for unreachable vertices."""
        dist = [-1] * self.n
        dist[source] = 0
        frontier = 1 << source
        seen = frontier
        d = 0
        while frontier:
            d += 1
            nxt = 0
            for v in bits(frontier):
                nxt |= self.rows[v]
            nxt &= ~seen
            for v in bits(nxt):
                dist[v] = d
            seen |= nxt
            frontier = nxt
        return dist

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DenseGraph)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"DenseGraph(n={self.n}, m={self.edge_count()})"


# -- named graphs ---------------------------------------------------------


def z_rule_edge(i: int, j: int, i2: int, j2: int, ell: int) -> bool:
    """Edge rule of the blown-up cycle on [ell]x[r] blocks (1-based cells).

    Consecutive or equal blocks (cyclically) are joined completely except for
    the matching j == j2.  Well defined for ell >= 2; for ell >= 3 the
    consecutive and the wrap-around pairs are disjoint.
    """
    if j == j2:
        return False
    di = abs(i - i2)
    return di <= 1 or {i, i2} == {1, ell}


def path_power(r: int, k: int) -> DenseGraph:
    edges = []
    for i in range(k):
        for j in range(1, r + 1):
            if i + j < k:
                edges.append((i, i + j))
    return DenseGraph.from_edges(k, edges)


def cycle_power(r: int, k: int) -> DenseGraph:
    """The r-th power of the cycle on 0..k-1: i ~ i ± j (mod k) for
    1 <= j <= r, so the complete graph once k <= 2r + 1.

    Cost: vertex 0's row, built from min(r, k-1) bit pairs, and one rotation
    of it per vertex: O(k) big-int operations on k bits.
    """
    full = (1 << k) - 1
    base = 0
    for j in range(1, min(r, k - 1) + 1):
        base |= 1 << j | 1 << (k - j)
    rows = [(base << i | base >> (k - i)) & full for i in range(k)]
    return DenseGraph(k, rows, check=False)


def make_named(kind: str, params: Sequence[int]) -> DenseGraph:
    """Construct a named graph: P (r,k), C (r,k), K (n)."""
    arity = {"P": 2, "C": 2, "K": 1}
    if kind not in arity:
        raise InvalidParameters(f"unknown named graph kind {kind!r}")
    if len(params) != arity[kind]:
        raise InvalidParameters(f"{kind} takes {arity[kind]} parameters, got {len(params)}")
    if kind == "P":
        r, k = params
        if r < 1 or k < 1:
            raise InvalidParameters("P needs r >= 1, k >= 1")
        return path_power(r, k)
    if kind == "C":
        r, k = params
        if r < 1 or k <= 2 * r:
            raise InvalidParameters("C needs r >= 1, k >= 2r+1")
        return cycle_power(r, k)
    (n,) = params
    if n < 0:
        raise InvalidParameters("K needs n >= 0")
    return DenseGraph.complete(n)


# -- vertex labellings ------------------------------------------------------


@dataclass(frozen=True)
class VertexLabelling:
    """A bandwidth ordering: position k holds the vertex labelled k+1."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise InvalidParameters("labelling is not a permutation of 0..n-1")

    def positions(self) -> list[int]:
        pos = [0] * len(self.order)
        for k, v in enumerate(self.order):
            pos[v] = k
        return pos

    def __len__(self) -> int:
        return len(self.order)


def identity_labelling(n: int) -> VertexLabelling:
    return VertexLabelling(tuple(range(n)))


def folded_labelling(n: int) -> VertexLabelling:
    """Zigzag order 0, 1, n-1, 2, n-2, ... interleaving the two cycle arcs.

    On C^r_n (vertices in cycle order) this ordering has bandwidth at most 2r.
    """
    order = []
    lo, hi = 0, n
    order.append(0)
    lo = 1
    hi = n - 1
    while lo <= hi:
        order.append(lo)
        lo += 1
        if hi >= lo:
            order.append(hi)
            hi -= 1
    return VertexLabelling(tuple(order))


def bandwidth_of(G: DenseGraph, labelling: VertexLabelling) -> int:
    """max |pos(u)-pos(v)| over edges uv; 0 for an edgeless graph."""
    if len(labelling) != G.n:
        raise InvalidParameters("labelling size mismatch")
    pos = labelling.positions()
    best = 0
    for u, v in G.edges():
        gap = abs(pos[u] - pos[v])
        if gap > best:
            best = gap
    return best


# -- witnesses ----------------------------------------------------------


WITNESS_KINDS = ("path", "trail", "cycle")


@dataclass(frozen=True)
class WitnessSequence:
    """An ordered vertex list claimed to be an r-path, r-trail or r-cycle."""

    vertices: tuple[int, ...]
    kind: str
    r: int

    def __post_init__(self):
        if self.kind not in WITNESS_KINDS:
            raise InvalidParameters(f"unknown witness kind {self.kind!r}")
        if self.r < 1:
            raise InvalidParameters("witness power must be >= 1")


def validate_witness(G: DenseGraph, w: WitnessSequence) -> str:
    """Check the claimed witness against the host: its first violation, or
    "" when it holds.

    Path/cycle entries must be pairwise distinct; trails may repeat vertices
    but every required pair must still be a (non-loop) edge.  One pass over
    the pairs (p, p + j), offset by offset, tests each position's row against
    the bit of the vertex j places on (cyclically for a cycle), and also
    compares the two bits where a pair can join a vertex to itself.  Only an
    offset that fails is rescanned to its first failing position, and the
    least (position, offset) pair over the failing offsets is named, as a
    pair-by-pair scan in position-then-offset order would name it.
    """
    vs, r = w.vertices, w.r
    k = len(vs)
    if not vs:
        return ""
    if min(vs) < 0 or max(vs) >= G.n:
        return f"vertex {next(v for v in vs if not 0 <= v < G.n)} outside host"
    cyclic = w.kind == "cycle"
    if w.kind != "trail" and len(set(vs)) != k:
        seen = set()
        for v in vs:
            if v in seen:
                return f"duplicate vertex {v}"
            seen.add(v)
    # a pair joins a vertex to itself only in a trail or in a cycle of at
    # most r vertices, and a row built unchecked may hold that loop
    loops = w.kind == "trail" or (cyclic and k <= r)
    row = [G.rows[v] for v in vs]
    bit = [1 << v for v in vs]
    if cyclic:
        bit += [bit[p % k] for p in range(r)]
    bad = (k, 0)  # the least failing (position, offset) so far
    for j in range(1, r + 1):
        ahead = bit[j:]
        if all(map(and_, row, ahead)) and not (loops and any(map(eq, bit, ahead))):
            continue
        p = next(p for p, (m, b) in enumerate(zip(row, ahead)) if not m & b or b == bit[p])
        bad = min(bad, (p, j))
    p, j = bad
    if p == k:
        return ""
    u, v = vs[p], vs[(p + j) % k]
    if u == v and cyclic:
        return f"cyclic pair ({p},{p + j}) collapses"
    if u == v:
        return f"pair ({p},{p + j}) collapses to vertex {u}"
    return f"missing edge ({u},{v}) at offsets ({p},{(p + j) % k})"


# -- edge-list text format --------------------------------------------------


def to_edgelist_text(G: DenseGraph) -> str:
    """Canonical serialization: header `p n m`, then lexicographic `e u v` lines."""
    lines = [f"p {G.n} {G.edge_count()}"]
    for u, v in G.edges():
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def _record_ints(parts: list[str], lineno: int, record: str) -> tuple[int, int]:
    """The two integer fields of a `p` or `e` record."""
    try:
        return int(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameters(
            f"line {lineno}: non-integer field in {record}: {' '.join(parts)!r}"
        ) from None


def from_edgelist_text(text: str) -> DenseGraph:
    n = None
    m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise InvalidParameters(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise InvalidParameters(f"line {lineno}: malformed header")
            n, m = _record_ints(parts, lineno, "header")
            if n > MAX_EDGELIST_N:
                raise InvalidParameters(
                    f"line {lineno}: header declares {n} > {MAX_EDGELIST_N} vertices"
                )
        elif parts[0] == "e":
            if n is None:
                raise InvalidParameters(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise InvalidParameters(f"line {lineno}: malformed edge")
            edges.append(_record_ints(parts, lineno, "edge"))
        else:
            raise InvalidParameters(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise InvalidParameters("missing `p` header")
    G = DenseGraph.from_edges(n, edges)
    if m is not None and G.edge_count() != m:
        raise InvalidParameters(
            f"header claims {m} edges, file defines {G.edge_count()}"
        )
    return G
