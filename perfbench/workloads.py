"""Seeded workload definitions for the spanembed benchmark.

A workload is a fixed list of instance templates.  A run answers the list
round after round (one caller, closed loop); every instance of every round
gets its own seed, derived from the run's ``--seed``, the round and the
position in the list, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

PIPELINE = "pipeline"
HAMPOWER = "hampower"


@dataclass(frozen=True)
class Template:
    label: str
    kind: str  # PIPELINE | HAMPOWER
    host: tuple  # generator name and its arguments (seed is added for gnp)
    guest: tuple | None = None  # BandwidthedH constructor and its arguments
    r: int | None = None  # power of the cycle for HAMPOWER


@dataclass(frozen=True)
class Instance:
    id: str
    template: Template
    seed: int


WORKLOADS: dict[str, tuple[Template, ...]] = {
    "pipeline-dense": (
        Template("gnp480-C1", PIPELINE, ("gnp", 480, 0.97), ("cycle_power_H", 1, 480)),
        Template("gnp480-P1", PIPELINE, ("gnp", 480, 0.97), ("path_power_H", 1, 480)),
        Template("gnp400-C1", PIPELINE, ("gnp", 400, 0.97), ("cycle_power_H", 1, 400)),
        Template("gnp480-K3tiling", PIPELINE, ("gnp", 480, 0.97), ("tiling_H", 3, 160)),
    ),
    # two_cliques(480) x C^1 is left out: on about 1 instance in 9 the oracle
    # fallback spends its whole node budget (17-20 s against ~5 s), so its
    # time is bimodal across seeds (see perfbench/NOTES.md, known defects).
    "pipeline-refuse": (
        Template(
            "extremal3x480-K3tiling",
            PIPELINE,
            ("clique_factor_extremal", 3, 480),
            ("tiling_H", 3, 160),
        ),
    ),
    # n is 300/400, not 2000/1200: an attempt of find_hamilton_power fails
    # more often as n grows (about half the time at n >= 500) and a retry
    # repeats the whole construction, so only many small instances per run
    # give a wall time that is steady across seeds (see perfbench/NOTES.md).
    "hampower-gnp": (
        Template("gnp300-r2-a", HAMPOWER, ("gnp", 300, 0.9), r=2),
        Template("gnp300-r2-b", HAMPOWER, ("gnp", 300, 0.9), r=2),
        Template("gnp400-r3", HAMPOWER, ("gnp", 400, 0.95), r=3),
    ),
}

# Rounds a run answers at least, however short --seconds is.  A round of
# pipeline-refuse is one ~4.5 s instance, and about one instance in a
# hundred spends ~30 s in the oracle fallback (known defect 3).  With five
# rounds or more, the trimmed mean of run.py drops such a round; it stays in
# the run's records.
MIN_ROUNDS = {"pipeline-refuse": 5}

# Outcome each workload should produce for every instance.
EXPECTED = {
    "pipeline-dense": "embedded",
    "pipeline-refuse": "refused",
    "hampower-gnp": "embedded",
}


def derive_seed(workload: str, seed: int, round_no: int, k: int) -> int:
    text = f"{workload}:{seed}:{round_no}:{k}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


def instances(workload: str, seed: int, round_no: int) -> list[Instance]:
    return [
        Instance(f"r{round_no}.{k}.{t.label}", t, derive_seed(workload, seed, round_no, k))
        for k, t in enumerate(WORKLOADS[workload])
    ]


def build(inst: Instance):
    """Generate (G, Hb) for a pipeline instance or (G, None) for a hampower one."""
    from spanembed import generators

    name, *args = inst.template.host
    if name == "gnp":
        G = generators.gnp(*args, seed=inst.seed)
    else:
        G = getattr(generators, name)(*args)
    Hb = None
    if inst.template.guest is not None:
        gname, *gargs = inst.template.guest
        Hb = getattr(generators, gname)(*gargs)
    return G, Hb
