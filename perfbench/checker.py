"""The benchmark's own output checker.

It reads the host and guest only through their adjacency rows and shares no
code with ``spanembed.embed.verify_embedding`` or
``spanembed.graphs.validate_witness``.  Every check returns "" when the
output is valid and a reason otherwise.
"""

from __future__ import annotations

import hashlib
import json


def _adjacent(rows, u: int, v: int) -> bool:
    return (rows[u] >> v) & 1 == 1


def _neighbours(row: int):
    v = 0
    while row:
        if row & 1:
            yield v
        row >>= 1
        v += 1


def check_embedding(H, G, mapping) -> str:
    """A bijection V(H) -> V(G) under which every H edge lands on a G edge."""
    if mapping is None:
        return "no mapping"
    if H.n != G.n:
        return f"|H| = {H.n} != |G| = {G.n}"
    if set(mapping) != set(range(H.n)):
        return "mapping does not cover V(H) exactly"
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return "mapping repeats an image"
    if set(images) != set(range(G.n)):
        return "mapping is not onto V(G)"
    for u in range(H.n):
        for v in _neighbours(H.rows[u]):
            if u < v and not _adjacent(G.rows, mapping[u], mapping[v]):
                return f"H edge ({u},{v}) maps to non-edge ({mapping[u]},{mapping[v]})"
    return ""


def check_power_cycle(G, vertices, r: int) -> str:
    """vertices is a cyclic order of V(G) in which any two vertices at cyclic
    distance at most r are adjacent in G."""
    n = G.n
    vs = list(vertices)
    if len(vs) != n:
        return f"cycle has {len(vs)} vertices, host has {n}"
    if sorted(vs) != list(range(n)):
        return "cycle does not visit every host vertex exactly once"
    for i in range(n):
        for j in range(1, r + 1):
            u, v = vs[i], vs[(i + j) % n]
            if u == v or not _adjacent(G.rows, u, v):
                return f"positions {i} and {(i + j) % n} are not adjacent"
    return ""


def digest(payload) -> str:
    """Short stable hash of a JSON-serialisable output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def classify_pipeline(result, H, G) -> tuple[str, str, str]:
    """(outcome, checker problem, digest) for a run_main_pipeline result."""
    if result.mapping is None:
        outcome = f"refused:{result.failure_stage}"
        if not result.failure_stage:
            return outcome, "refusal without a stage label", digest(outcome)
        return outcome, "", digest(outcome)
    problem = check_embedding(H, G, result.mapping)
    return "embedded", problem, digest(sorted(result.mapping.items()))


def classify_witness(witness, G, r: int) -> tuple[str, str, str]:
    """(outcome, checker problem, digest) for a find_hamilton_power witness."""
    problem = check_power_cycle(G, witness.vertices, r)
    if not problem and witness.r != r:
        problem = f"witness claims power {witness.r}, asked for {r}"
    return "embedded", problem, digest(list(witness.vertices))


def classify_refusal(stage: str) -> tuple[str, str, str]:
    outcome = f"refused:{stage}"
    return outcome, "", digest(outcome)


def classify_error(exc: BaseException) -> tuple[str, str, str]:
    outcome = f"error:{type(exc).__name__}"
    return outcome, "", digest(outcome)
