"""The connectivity engine: bridging cliques and short power-path connections.

``bridging_cliques`` follows the common-neighbourhood argument step by
step: restrict to vertices with high attachment to X ∪ Y, bucket them by
exact attachment pattern, and find a clique inside a bucket.  It yields
every bridge it finds, in one fixed order, for a caller that may need more
than one (the threading search of ``hampower``); ``find_bridging_clique``
is its first bridge.  Every failure names the proof step that broke.
``connect_cliques`` wraps the first bridge into the connecting power
path, which is all it returns: envelope cliques around the endpoints
supply fresh attachment sets, and the path is revalidated as one X·path·Y
witness by the generic witness validator.  Everything here depends
on its inputs alone: the bridging search breaks ties
lexicographically, and ``connect_cliques`` draws its envelope cliques at
random from its ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .density import enumerate_extendable_cliques, find_clique
from .graphs import DenseGraph, StageFailure, WitnessSequence, bits, mask_of, validate_witness


class HypothesisViolation(StageFailure):
    """A checked hypothesis does not hold for the input (not a failed search)."""


@dataclass(frozen=True)
class Bridge:
    Z: tuple[int, ...]
    X_prime: tuple[int, ...]
    Y_prime: tuple[int, ...]


def bridging_cliques(
    G: DenseGraph,
    U: list[int] | None,
    X: list[int],
    Y: list[int],
    W: list[int],
    r: int,
    eta: float,
) -> Iterator[Bridge]:
    """Yield every bridge ``find_bridging_clique`` would consider, in its
    order, each clique Z once; then raise the failure that ends the list.

    Requires |X| = |Y| and the half-degree condition d(x,U) >= (1/2+eta)|U|
    for x in X ∪ Y (violations are reported, not assumed away); ``U=None``
    stands for the whole vertex set.  Vertices of U need at least |X| + r
    neighbours in X ∪ Y to qualify.  They are bucketed by their exact
    attachment pattern (``_attachment_buckets``, no per-vertex loop), and
    buckets are searched largest first (ties by lexicographically smallest
    pattern), each for its lexicographically first K_r.  Any bucket of size >= r is admitted at desk scale; the
    asymptotic bucket-size bound is not enforced because every bridge is
    revalidated before it is yielded.  After the buckets come the K_r's
    among vertices that see >= r of each side (up to 64, lexicographically)
    whose joint attachment still covers r of each side.

    The generator never ends quietly: when no bucket qualifies it raises
    ``no-high-attachment`` before yielding anything, and once its bridges
    run out it raises ``no-clique-in-bucket``, whose detail reads as the
    case where there was none.  Hypothesis violations are raised by the
    first ``next``.
    """
    if len(X) != len(Y):
        raise HypothesisViolation(
            "attachment-sets", f"|X|={len(X)} != |Y|={len(Y)}"
        )
    c = len(X)
    if c < r:
        raise HypothesisViolation("attachment-sets", f"|X|={c} < r={r}")
    xmask, ymask, wmask = mask_of(X), mask_of(Y), mask_of(W)
    if xmask & ymask or (xmask | ymask) & wmask:
        raise HypothesisViolation("attachment-sets", "X, Y, W must be disjoint")
    umask = G.full_mask() if U is None else mask_of(U)
    need = (0.5 + eta) * umask.bit_count()
    rows = G.rows
    for x in X + Y:
        if (rows[x] & umask).bit_count() < need:
            raise HypothesisViolation(
                "half-degree",
                f"vertex {x} has {G.degree_into(x, umask)} < {need:.2f} "
                f"neighbours in U",
            )

    u_prime = umask & ~xmask & ~ymask & ~wmask
    buckets = _attachment_buckets(G, u_prime, X, Y, r)
    if not buckets:
        raise StageFailure(
            "no-high-attachment",
            f"no vertex of U has >= {c + r} neighbours in X ∪ Y",
        )
    ordered = sorted(
        buckets.items(),
        key=lambda kv: (-kv[1].bit_count(), tuple(bits(kv[0][0])), tuple(bits(kv[0][1]))),
    )
    seen: set[tuple[int, ...]] = set()
    for (ax, ay), members in ordered:
        if members.bit_count() < r:
            break
        # every member attaches to >= c + r of the 2c attachment vertices,
        # so at least r land on each side; take the r smallest of each
        x_att = list(bits(ax))
        y_att = list(bits(ay))
        if len(x_att) < r or len(y_att) < r:
            continue
        got = enumerate_extendable_cliques(G, r, s=0, cap=1, within=members)
        if not got or got[0] in seen:
            continue
        Z = got[0]
        seen.add(Z)
        bridge = Bridge(Z, tuple(x_att[:r]), tuple(y_att[:r]))
        _revalidate_bridge(G, bridge, xmask, ymask, wmask, r)
        yield bridge
    # Desk-scale fallback when the pigeonhole buckets are all too thin:
    # search directly for a K_r among vertices seeing >= r of each side,
    # whose joint attachment still covers r of each side.
    loose = [
        v
        for v in bits(u_prime)
        if (rows[v] & xmask).bit_count() >= r
        and (rows[v] & ymask).bit_count() >= r
    ]
    for cand in enumerate_extendable_cliques(
        G, r, s=0, cap=64, within=mask_of(loose)
    ):
        if cand in seen:
            continue
        common = G.common_neighborhood(cand)
        x_att = list(bits(common & xmask))
        y_att = list(bits(common & ymask))
        if len(x_att) >= r and len(y_att) >= r:
            seen.add(cand)
            bridge = Bridge(cand, tuple(x_att[:r]), tuple(y_att[:r]))
            _revalidate_bridge(G, bridge, xmask, ymask, wmask, r)
            yield bridge
    raise StageFailure(
        "no-clique-in-bucket",
        f"no attachment bucket of size >= {r} spans a K_{r} "
        f"(and no loosely-attached clique either)",
    )


def _attachment_buckets(
    G: DenseGraph, candidates: int, X: list[int], Y: list[int], r: int
) -> dict[tuple[int, int], int]:
    """{(ax, ay): members} over the vertices v of the ``candidates`` mask with
    at least |X| + r neighbours in X ∪ Y, where ax and ay are the masks of
    v's neighbours in X and in Y and ``members`` the mask of the vertices
    sharing them (|X| = |Y| >= r).

    The mask is split once per attachment vertex into the part adjacent to
    it and the rest; a part is dropped once it has missed more than
    |X| - r attachment vertices.  For |X| = r that is one AND per vertex of
    X ∪ Y.
    """
    rows = G.rows
    slack = len(X) - r
    # (members, attachment pattern so far, attachment vertices missed)
    groups = [(candidates, 0, 0)] if candidates else []
    for a in X + Y:
        row, abit = rows[a], 1 << a
        split = []
        for members, pattern, missed in groups:
            if members & row:
                split.append((members & row, pattern | abit, missed))
            if members & ~row and missed < slack:
                split.append((members & ~row, pattern, missed + 1))
        groups = split
    xmask = mask_of(X)
    return {(pattern & xmask, pattern & ~xmask): members for members, pattern, _ in groups}


def find_bridging_clique(
    G: DenseGraph,
    U: list[int] | None,
    X: list[int],
    Y: list[int],
    W: list[int],
    r: int,
    eta: float,
) -> Bridge:
    """Find Z ⊆ U spanning K_r, fresh of X ∪ Y ∪ W, with r-subsets of both X
    and Y inside its joint neighbourhood.

    The first bridge of ``bridging_cliques`` (see there for the hypotheses,
    the bucketing and the order), or its stage-labelled failure:
    ``no-high-attachment`` when no vertex of U attaches to |X| + r vertices
    of X ∪ Y, ``no-clique-in-bucket`` when no bucket, nor the loosely
    attached vertices, spans a K_r.  ``U=None`` is the whole vertex set.
    """
    return next(bridging_cliques(G, U, X, Y, W, r, eta))


def _revalidate_bridge(
    G: DenseGraph, b: Bridge, xmask: int, ymask: int, wmask: int, r: int
) -> None:
    common = G.common_neighborhood(b.Z)
    for broken, what in (
        (len(b.Z) != r or not G.is_clique(b.Z), "Z is not an r-clique"),
        (mask_of(b.Z) & (xmask | ymask | wmask), "Z meets X, Y or W"),
        ((mask_of(b.X_prime) | mask_of(b.Y_prime)) & ~common, "X' or Y' leaves N(Z)"),
        (not len(b.X_prime) == len(b.Y_prime) == r, "X' or Y' does not have r vertices"),
    ):
        if broken:
            raise StageFailure("revalidation", f"bridge: {what}")


def connect_cliques(
    G: DenseGraph,
    X: list[int],
    Y: list[int],
    W: list[int],
    r: int,
    eta: float,
    seed: int | str,
) -> WitnessSequence:
    """Connect the r-cliques X and Y by a fresh power-r path on 3r vertices.

    The returned path x_1..x_{3r} avoids W and both concatenations X·path
    and path·Y span power-r paths on 4r vertices.  Construction: find a K_r
    inside each endpoint's joint neighbourhood (the envelope, where the
    proof takes ceil(4r/eta) vertices; a failed search names which branch,
    extendable or clique, held), then bridge the two envelopes through a
    common-neighbourhood clique.  The envelope searches draw their
    candidates at random from ``seed`` within ``find_clique``'s default
    node budget.  |W| is not capped: the absorbing path's connectors avoid
    the whole path built so far.
    """
    if len(X) != r or len(Y) != r:
        raise HypothesisViolation("endpoint", f"|X|={len(X)}, |Y|={len(Y)}, want {r}")
    if not G.is_clique(X) or not G.is_clique(Y):
        raise HypothesisViolation("endpoint", "X and Y must span cliques")
    xmask, ymask, wmask = mask_of(X), mask_of(Y), mask_of(W)
    if xmask & ymask:
        raise HypothesisViolation("endpoint", "X and Y overlap")
    rng = random.Random(f"connect:{seed}")

    def envelope(ends: list[int], avoid: int) -> tuple[int, ...]:
        joint = G.common_neighborhood(ends)
        scope = joint & ~avoid & ~wmask
        got = find_clique(G, r, within=scope, rng=rng)
        if got is None:
            branch = "extendable" if joint.bit_count() >= eta * G.n else "clique"
            raise StageFailure(
                "envelope-not-found",
                f"no K_{r} in the joint neighbourhood of {sorted(ends)} "
                f"(branch {branch})",
            )
        return got

    env_x = envelope(X, xmask | ymask)
    env_y = envelope(Y, xmask | ymask | mask_of(env_x))

    bridge = find_bridging_clique(
        G,
        U=None,
        X=list(env_x),
        Y=list(env_y),
        W=sorted(set(W) | set(X) | set(Y)),
        r=r,
        eta=eta,
    )
    seq = tuple(sorted(bridge.X_prime)) + tuple(sorted(bridge.Z)) + tuple(
        sorted(bridge.Y_prime)
    )
    path = WitnessSequence(seq, "path", r)
    _revalidate_connection(G, path, X, Y, W, r)
    return path


def _revalidate_connection(
    G: DenseGraph, path: WitnessSequence, X: list[int], Y: list[int], W: list[int], r: int
) -> None:
    seq = path.vertices
    if len(seq) != 3 * r or len(set(seq)) != 3 * r:
        raise StageFailure("revalidation", f"connection is not {3 * r} distinct vertices")
    if set(seq) & (set(W) | set(X) | set(Y)):
        raise StageFailure("revalidation", "connection meets W, X or Y")
    # X and Y sit 3r positions apart, so X·path·Y holds exactly the pairs of
    # the path, of X·path and of path·Y
    w = WitnessSequence(tuple(sorted(X)) + seq + tuple(sorted(Y)), "path", r)
    problem = validate_witness(G, w)
    if problem:
        raise StageFailure("revalidation", f"X·path·Y invalid: {problem}")
