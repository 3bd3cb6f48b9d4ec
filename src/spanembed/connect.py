"""The connectivity engine: bridging cliques and short power-path connections.

``bridging_cliques`` is the common-neighbourhood argument at desk scale:
two r-vertex ends X and Y are bridged by a K_r of U that lies inside the
common neighbourhood of X ∪ Y.  (The proof takes envelopes of ⌈4r/η⌉
vertices and a pigeonhole over attachment patterns; with r-vertex ends
there is one pattern, all of X ∪ Y.)  It yields every bridge it finds, in
one fixed order, for a caller that may need more than one (the threading
search of ``hampower``); ``find_bridging_clique`` is its first bridge.
Every failure names the proof step that broke.  ``connect_cliques`` wraps
the first bridge into the connecting power path, which is all it returns:
envelope cliques around the endpoints supply fresh ends, and the path is
revalidated as one X·path·Y witness by the generic witness validator.
The ends X and Y are ordered vertex lists; the host part U and the avoided
set W are vertex masks, which the clique search reads as they are.
Everything here depends on its inputs alone: the bridging search breaks
ties lexicographically, and ``connect_cliques`` draws its envelope cliques
at random from its ``seed``.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator

from .density import cliques, find_clique, scope
from .graphs import DenseGraph, StageFailure, WitnessSequence, mask_of, validate_witness


class HypothesisViolation(StageFailure):
    """A checked hypothesis does not hold for the input (not a failed search)."""


def bridging_cliques(
    G: DenseGraph,
    U: int | None,
    X: list[int],
    Y: list[int],
    W: int,
    r: int,
    eta: float,
) -> Iterator[tuple[int, ...]]:
    """Yield the K_r's of U′ = U − X − Y − W that lie inside the common
    neighbourhood of X ∪ Y, the first 64 in lexicographic order, each as
    its sorted vertex tuple; then raise the failure that ends the list.

    U and W are vertex masks, ``U=None`` standing for the whole vertex set;
    a mask with a bit outside 0..n-1 raises ``InvalidParameters``.
    Requires |X| = |Y| = r, X, Y and W disjoint, and the half-degree
    condition d(x,U) >= (1/2+eta)|U| for x in X ∪ Y (violations are
    reported, not assumed away).  The bridges are drawn lazily from one
    lexicographic clique search, so a caller that takes only the first pays
    for no other.  Every bridge is revalidated before it is yielded.

    The generator never ends quietly: when no vertex of U′ sees all of
    X ∪ Y it raises ``no-high-attachment`` before yielding anything, and
    once its bridges run out it raises ``no-clique-in-bucket``.
    Invalid masks and hypothesis violations are raised by the first
    ``next``.
    """
    umask, wmask = scope(G, U, "U"), scope(G, W, "W")
    if len(X) != r or len(Y) != r:
        raise HypothesisViolation(
            "attachment-sets", f"|X|={len(X)}, |Y|={len(Y)}, want r={r}"
        )
    xmask, ymask = mask_of(X), mask_of(Y)
    if xmask & ymask or (xmask | ymask) & wmask:
        raise HypothesisViolation("attachment-sets", "X, Y, W must be disjoint")
    need = (0.5 + eta) * umask.bit_count()
    rows = G.rows
    for x in X + Y:
        if (rows[x] & umask).bit_count() < need:
            raise HypothesisViolation(
                "half-degree",
                f"vertex {x} has {G.degree_into(x, umask)} < {need:.2f} "
                f"neighbours in U",
            )

    attached = umask & ~xmask & ~ymask & ~wmask & G.common_neighborhood(X + Y)
    if not attached:
        raise StageFailure(
            "no-high-attachment",
            f"no vertex of U has >= {2 * r} neighbours in X ∪ Y",
        )
    for Z in islice(cliques(G, r, within=attached), 64):
        _revalidate_bridge(G, Z, xmask, ymask, wmask, r)
        yield Z
    raise StageFailure(
        "no-clique-in-bucket",
        f"no K_{r} left to try among the {attached.bit_count()} vertices of U "
        f"that see all of X ∪ Y",
    )


def find_bridging_clique(
    G: DenseGraph,
    U: int | None,
    X: list[int],
    Y: list[int],
    W: int,
    r: int,
    eta: float,
) -> tuple[int, ...]:
    """Find Z ⊆ U spanning K_r, fresh of X ∪ Y ∪ W, with X ∪ Y inside its
    joint neighbourhood, for r-vertex ends X and Y.

    The first bridge of ``bridging_cliques`` (see there for the hypotheses,
    the masks U and W and the order), or its stage-labelled failure:
    ``no-high-attachment`` when no vertex of U sees all of X ∪ Y,
    ``no-clique-in-bucket`` when those that do span no K_r.
    """
    return next(bridging_cliques(G, U, X, Y, W, r, eta))


def _revalidate_bridge(
    G: DenseGraph, Z: tuple[int, ...], xmask: int, ymask: int, wmask: int, r: int
) -> None:
    for broken, what in (
        (len(Z) != r or not G.is_clique(Z), "Z is not an r-clique"),
        (mask_of(Z) & (xmask | ymask | wmask), "Z meets X, Y or W"),
        ((xmask | ymask) & ~G.common_neighborhood(Z), "X ∪ Y leaves N(Z)"),
    ):
        if broken:
            raise StageFailure("revalidation", f"bridge: {what}")


def connect_cliques(
    G: DenseGraph,
    X: list[int],
    Y: list[int],
    W: int,
    r: int,
    eta: float,
    seed: int | str,
) -> WitnessSequence:
    """Connect the r-cliques X and Y by a fresh power-r path on 3r vertices.

    The returned path x_1..x_{3r} avoids the vertex mask W (a bit outside
    0..n-1 raises ``InvalidParameters``) and both concatenations X·path
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
    xmask, ymask, wmask = mask_of(X), mask_of(Y), scope(G, W, "W")
    if xmask & ymask:
        raise HypothesisViolation("endpoint", "X and Y overlap")
    rng = random.Random(f"connect:{seed}")

    def envelope(ends: list[int], avoid: int) -> tuple[int, ...]:
        joint = G.common_neighborhood(ends)
        got = find_clique(G, r, within=joint & ~avoid & ~wmask, rng=rng)
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

    Z = find_bridging_clique(
        G, U=None, X=list(env_x), Y=list(env_y), W=wmask | xmask | ymask, r=r, eta=eta
    )
    seq = tuple(sorted(env_x) + sorted(Z) + sorted(env_y))
    path = WitnessSequence(seq, "path", r)
    _revalidate_connection(G, path, X, Y, W, r)
    return path


def _revalidate_connection(
    G: DenseGraph, path: WitnessSequence, X: list[int], Y: list[int], W: int, r: int
) -> None:
    seq = path.vertices
    if len(seq) != 3 * r or len(set(seq)) != 3 * r:
        raise StageFailure("revalidation", f"connection is not {3 * r} distinct vertices")
    if mask_of(seq) & (W | mask_of(X) | mask_of(Y)):
        raise StageFailure("revalidation", "connection meets W, X or Y")
    # X and Y sit 3r positions apart, so X·path·Y holds exactly the pairs of
    # the path, of X·path and of path·Y
    w = WitnessSequence(tuple(sorted(X)) + seq + tuple(sorted(Y)), "path", r)
    problem = validate_witness(G, w)
    if problem:
        raise StageFailure("revalidation", f"X·path·Y invalid: {problem}")
