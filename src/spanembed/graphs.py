"""Dense graph core: bit-matrix graphs, named constructions, bandwidth, witnesses.

Vertices are integers 0..n-1.  Adjacency is stored as one Python int per
vertex (bit v of row u set iff uv is an edge), which makes degree, common
neighbourhood and induced-count kernels single AND/popcount operations.
Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


class InvalidParameters(ValueError):
    """Raised when a named-graph or IO parameter combination is rejected."""


class StageFailure(RuntimeError):
    """A failure labelled with the proof stage or named condition that broke.

    ``detail`` says what was found; ``violated`` optionally names the
    displayed inequality or inner label a caller attributes the failure to.
    """

    def __init__(self, stage: str, detail: str = "", violated: str | None = None):
        self.stage = stage
        self.detail = detail
        self.violated = violated
        super().__init__(f"{stage}: {detail}" if detail else stage)


# Popcount from which ``bits`` unpacks with numpy: below it the per-bit loop
# is faster (1.1 against 3.8 us at 16 bits), above it numpy wins (20 against
# 98 us at 466 of 480 bits).
BITS_NUMPY_FROM = 24

# Bytes of the uint64 tile one ``edges_within_many`` step allocates at most;
# at n = 300 and n = 5,000 neither 64 KB nor 1 MB tiles were faster.
BATCH_BYTES = 1 << 18

# Largest vertex count an edge-list `p` header may declare.  Desk-scale runs
# top out at n = 4,800; at n = 10,000 the bit rows take 12.5 MB and one
# unpacked 0/1 matrix (``bit_matrix``) 100 MB, so a larger header is refused
# before anything is allocated.
MAX_EDGELIST_N = 10_000


def _bits_loop(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bits(mask: int) -> Iterator[int]:
    """Iterator over the set bit positions of ``mask`` in ascending order.

    A mask with at least ``BITS_NUMPY_FROM`` set bits is unpacked whole with
    numpy before the first position is returned, so its cost does not depend
    on how many positions the caller reads; sparser masks are walked one bit
    at a time.
    """
    if mask.bit_count() < BITS_NUMPY_FROM:
        return _bits_loop(mask)
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return iter(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def _words(masks: Sequence[int], nwords: int) -> np.ndarray:
    """``masks`` as a len(masks)×nwords uint64 array, bit v in word v // 64."""
    nbytes = 8 * nwords
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), nwords)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


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

    def joint_degree(self, vertices: Iterable[int]) -> int:
        return self.common_neighborhood(vertices).bit_count()

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        vmask = mask_of(vs)
        for v in vs:
            if (self.rows[v] & vmask).bit_count() != len(vs) - 1:
                return False
        return True

    def edges_within(self, mask: int) -> int:
        """e(G[X]) for X a bitmask."""
        total = 0
        for v in bits(mask):
            total += (self.rows[v] & mask).bit_count()
        return total // 2

    def edges_within_many(self, masks: Sequence[int]) -> list[int]:
        """[e(G[X]) for X in masks], by word-wide ANDs and popcounts.

        The rows are laid out word-major, so each step ANDs one word of a
        few masks with that word of a run of rows.  A step's uint64 tile
        holds at most ``BATCH_BYTES``, so memory stays bounded in n and in
        the number of masks.
        """
        if not masks:
            return []
        n = self.n
        nwords = max(1, (n + 63) // 64)
        rows = np.ascontiguousarray(_words(self.rows, nwords).T)  # word w of row v at [w, v]
        xs = _words(masks, nwords)
        member = np.unpackbits(xs.view(np.uint8), axis=1, count=n, bitorder="little")
        budget = max(1, BATCH_BYTES // (8 * nwords))  # masks × rows per tile
        span = max(1, min(n, budget))
        per = max(1, budget // span)
        totals = np.zeros(len(masks), dtype=np.int64)
        for lo in range(0, len(masks), per):
            hi = min(lo + per, len(masks))
            for v0 in range(0, n, span):
                v1 = min(v0 + span, n)
                tile = rows[None, :, v0:v1] & xs[lo:hi, :, None]
                degs = np.bitwise_count(tile).sum(axis=1, dtype=np.int32)
                totals[lo:hi] += (degs * member[lo:hi, v0:v1]).sum(axis=1, dtype=np.int64)
        return [t // 2 for t in totals.tolist()]

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
        packed = np.packbits(self.bit_matrix(vs)[:, vs], axis=1, bitorder="little")
        rows = [int.from_bytes(row.tobytes(), "little") for row in packed]
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


def grid_vertex(i: int, j: int, r: int) -> int:
    """Encode grid cell (i,j) in [ell]x[r] (1-based) lexicographically."""
    return (i - 1) * r + (j - 1)


def z_rule_edge(i: int, j: int, i2: int, j2: int, ell: int) -> bool:
    """Edge rule of the blown-up cycle on [ell]x[r] blocks (1-based cells).

    Consecutive or equal blocks (cyclically) are joined completely except for
    the matching j == j2.  Well defined for ell >= 2; the named-graph
    constructor additionally insists on ell >= 3 where the two rules are
    disjoint.
    """
    if j == j2 and i == i2:
        return False
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
    edges = set()
    for i in range(k):
        for j in range(1, r + 1):
            u, v = i, (i + j) % k
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return DenseGraph.from_edges(k, edges)


def blown_cycle(r: int, ell: int) -> DenseGraph:
    """Cycle of ell blocks of r vertices: cliques inside blocks, complete
    minus a perfect matching between cyclically consecutive blocks."""
    n = ell * r
    edges = []
    for i in range(1, ell + 1):
        for j in range(1, r + 1):
            u = grid_vertex(i, j, r)
            for i2 in range(1, ell + 1):
                for j2 in range(1, r + 1):
                    v = grid_vertex(i2, j2, r)
                    if v > u and z_rule_edge(i, j, i2, j2, ell):
                        edges.append((u, v))
    return DenseGraph.from_edges(n, edges)


def make_named(kind: str, params: Sequence[int]) -> DenseGraph:
    """Construct a named graph: P (r,k), C (r,k), Z (r,ell), K (n).

    Grid-backed kinds use the lexicographic vertex encoding
    (i,j) -> (i-1)*r + (j-1), so containment chains between them hold under
    the identity labelling.
    """
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
    if kind == "Z":
        r, ell = params
        if r < 1 or ell <= 2:
            raise InvalidParameters(
                "Z needs r >= 1, ell >= 3 (wrap-around degenerates below)"
            )
        return blown_cycle(r, ell)
    if kind == "K":
        (n,) = params
        if n < 0:
            raise InvalidParameters("K needs n >= 0")
        return DenseGraph.complete(n)
    raise InvalidParameters(f"unknown named graph kind {kind!r}")


def graph_power(G: DenseGraph, r: int) -> DenseGraph:
    """Add an edge between every pair of vertices at BFS distance <= r."""
    if r < 1:
        raise InvalidParameters("power needs r >= 1")
    rows = [0] * G.n
    for v in range(G.n):
        dist = G.bfs_distances(v)
        row = 0
        for u in range(G.n):
            if u != v and 0 < dist[u] <= r:
                row |= 1 << u
        rows[v] = row
    return DenseGraph(G.n, rows, check=False)


def is_labelled_subgraph(A: DenseGraph, B: DenseGraph, mapping: Sequence[int]) -> bool:
    """True iff every edge of A maps to an edge of B under the injective map."""
    if len(mapping) != A.n:
        raise InvalidParameters("mapping must cover V(A)")
    if len(set(mapping)) != A.n:
        raise InvalidParameters("mapping must be injective")
    for u, v in A.edges():
        if not B.has_edge(mapping[u], mapping[v]):
            return False
    return True


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

    def __len__(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "r": self.r, "vertices": list(self.vertices)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "WitnessSequence":
        return cls(tuple(d["vertices"]), d["kind"], d["r"])


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""
    violation: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _windows_hold(G: DenseGraph, w: WitnessSequence) -> bool:
    """True when the vertices are distinct, in range, and each one's row
    holds the next r vertices (cyclically for a cycle of more than r)."""
    vs, r = w.vertices, w.r
    k = len(vs)
    if not vs or min(vs) < 0 or max(vs) >= G.n or len(set(vs)) != k:
        return False
    if w.kind == "cycle":
        if k <= r:
            return False
        ext = [1 << v for v in vs + vs[:r]]
    else:
        ext = [1 << v for v in vs] + [0] * r
    windows = [0] * k
    for j in range(1, r + 1):
        windows = [m | b for m, b in zip(windows, ext[j : j + k])]
    rows = G.rows
    return all(rows[v] & m == m for v, m in zip(vs, windows))


def validate_witness(G: DenseGraph, w: WitnessSequence) -> ValidationResult:
    """Check the claimed witness against the host; reports the first violation.

    Path/cycle entries must be pairwise distinct; trails may repeat vertices
    but every required pair must still be a (non-loop) edge.  A witness of
    distinct in-range vertices is first checked one mask per position; when
    any condition fails, the pairwise scan below finds and reports it.
    """
    if _windows_hold(G, w):
        return ValidationResult(True)
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
