"""Stage labels of run_main_pipeline refusals, and pinned end-to-end runs.

A library failure keeps its own label as ``violated_display`` and the
pipeline stage that called it as ``failure_stage``.
"""

import hashlib

import pytest

from spanembed import pipeline
from spanembed.balance import BalanceError
from spanembed.embed import verify_embedding
from spanembed.generators import (
    clique_factor_extremal,
    cycle_power_H,
    gnp,
    path_power_H,
    tiling_H,
)
from spanembed.graphs import DenseGraph, StageFailure


def _raise(stage: str, detail: str):
    def fail(*args, **kwargs):
        raise StageFailure(stage, detail)

    return fail


@pytest.mark.parametrize(
    "target, stage, detail, failure_stage",
    [
        ("basic_assignment", "floor", "target m(1, 1) = 0 below the floor 1", "basic-assignment"),
        (
            "embed_with_targets",
            "target-set",
            "boundary vertex 7 starts below the floor",
            "target-embedding",
        ),
    ],
    ids=["basic-assignment", "target-embedding"],
)
def test_library_label_becomes_the_violated_display(
    monkeypatch, target, stage, detail, failure_stage
):
    monkeypatch.setattr(pipeline, target, _raise(stage, detail))
    res = pipeline.run_main_pipeline(gnp(480, 0.97, 0), cycle_power_H(1, 480), seed=0)
    assert not res
    assert res.failure_stage == failure_stage
    assert res.violated_display == stage
    assert res.failure_detail == f"{stage}: {detail}"


def test_own_refusal_keeps_its_displayed_inequality():
    # 400 mod 48 = 16 vertices fit no cluster; the pipeline's own refusal
    # must reach the result as raised, not be relabelled or re-wrapped
    res = pipeline.run_main_pipeline(gnp(400, 0.97, 0), cycle_power_H(1, 400), seed=0)
    assert res.failure_stage == "exceptional"
    assert res.violated_display == "exceptional"
    assert res.failure_detail == (
        "|V0| = 16: 16 from the n mod L remainder, "
        "0 from 0 clusters off the power cycle, 0 dropped by refine"
    )


@pytest.mark.parametrize("phase", [1, 2])
def test_lemma_g_refusal_is_labelled_lemma_g(monkeypatch, phase):
    # a rebalancing refusal must not be attributed to an asymptotic display
    # such as (beta), which fails on every desk-scale run
    real = pipeline.lemma_g

    def lemma_g(*args, **kwargs):
        if (kwargs.get("targets") is not None) == (phase == 2):
            raise BalanceError(f"phase {phase}: iteration budget exceeded")
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "lemma_g", lemma_g)
    res = pipeline.run_main_pipeline(gnp(480, 0.97, 0), cycle_power_H(1, 480), seed=0)
    assert not res
    assert res.failure_stage == "lemma-g"
    assert res.violated_display == "lemma-g"
    assert res.failure_detail == f"phase {phase}: iteration budget exceeded"


V0_TAIL = (
    "from the n mod L remainder, 0 from 0 clusters off the power cycle, "
    "0 dropped by refine"
)


@pytest.mark.parametrize(
    "host, guest, expected",
    [
        (lambda: gnp(480, 0.97, 4), lambda: cycle_power_H(1, 480), "86abe1d47e9e175a"),
        (lambda: gnp(480, 0.97, 4), lambda: path_power_H(1, 480), "bbb2f613ba934c23"),
        (
            lambda: gnp(400, 0.97, 4),
            lambda: cycle_power_H(1, 400),
            ("exceptional", "exceptional", f"|V0| = 16: 16 {V0_TAIL}"),
        ),
        (
            lambda: gnp(480, 0.97, 4),
            lambda: tiling_H(3, 160),
            ("exceptional", "exceptional", f"|V0| = 48: 48 {V0_TAIL}"),
        ),
        (
            lambda: clique_factor_extremal(3, 480),
            lambda: tiling_H(3, 160),
            (
                "refine",
                "refine",
                "cluster 60: 3 vertices fail the degree test toward cluster 67 (allowed 0.60)",
            ),
        ),
    ],
    ids=["gnp480-C1", "gnp480-P1", "gnp400-C1", "gnp480-K3tiling", "extremal3x480-K3tiling"],
)
def test_pipeline_outputs_pinned(host, guest, expected):
    # the benchmark's pipeline templates at seed 4: a digest of the mapping
    # for an embedding, the (stage, display, detail) triple for a refusal
    res = pipeline.run_main_pipeline(host(), guest(), seed=4)
    if res:
        got = hashlib.sha256(repr(sorted(res.mapping.items())).encode()).hexdigest()[:16]
    else:
        got = (res.failure_stage, res.violated_display, res.failure_detail)
    assert got == expected


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [288, 576])
@pytest.mark.parametrize(
    "guest", [lambda n: cycle_power_H(2, n), lambda n: tiling_H(3, n // 3)], ids=["C2", "K3tiling"]
)
@pytest.mark.parametrize(
    "host",
    [lambda n, seed: DenseGraph.complete(n), lambda n, seed: gnp(n, 0.97, seed)],
    ids=["complete", "gnp97"],
)
def test_pipeline_embeds_three_colour_guests(host, guest, n, seed):
    # 4r*m divides n, so V0 is empty and the cells reach lemma_g at size m;
    # the assignment's demands differ from m, so phase two must move vertices
    G = host(n, seed)
    Hb = guest(n)
    res = pipeline.run_main_pipeline(G, Hb, seed=seed)
    assert res, (res.failure_stage, res.failure_detail)
    assert verify_embedding(Hb.H, G, res.mapping) == ""
    assert res.audit.notes["lemma-g-moves"] > 0
    # the proof's iteration budget fails at m = 6 and is only recorded
    assert res.audit.checks["(K)"][0] is False


@pytest.mark.parametrize(
    "G, Hb",
    [
        (gnp(60, 0.95, 1), cycle_power_H(1, 60)),
        (gnp(96, 0.9, 1), tiling_H(3, 32)),
        (gnp(12, 0.95, 1), tiling_H(1, 12)),  # edgeless: bandwidth 0
    ],
    ids=["gnp60-C1", "gnp96-K3tiling", "gnp12-edgeless"],
)
def test_singleton_path_embeds_with_the_guest_bandwidth(G, Hb):
    # too few vertices for clusters: the host itself is the reduced graph
    # and the power cycle needs only H's bandwidth, not 4r - 1
    res = pipeline.run_main_pipeline(G, Hb, seed=1)
    assert res.audit.notes["partition"] == "degenerate-singleton"
    assert res, (res.failure_stage, res.failure_detail)
    assert verify_embedding(Hb.H, G, res.mapping) == ""


MATRIX_GUESTS = {
    "C1": lambda n: cycle_power_H(1, n),
    "K3tiling": lambda n: tiling_H(3, n // 3),
}


@pytest.mark.parametrize(
    "n, guest",
    [(n, g) for n in (240, 288, 400, 480) for g in MATRIX_GUESTS if g == "C1" or n % 3 == 0],
)
@pytest.mark.parametrize(
    "host",
    [lambda n: DenseGraph.complete(n), lambda n: gnp(n, 0.97, 1)],
    ids=["complete", "gnp97"],
)
def test_exceptional_vertices_refuse_and_the_rest_embeds(host, n, guest):
    # V0 is empty exactly when 4r*m divides n (48 for C1, 72 for K3-tiling)
    G, Hb = host(n), MATRIX_GUESTS[guest](n)
    res = pipeline.run_main_pipeline(G, Hb, seed=1)
    if n % (4 * Hb.num_colours() * 6):
        assert res.audit.notes["V0"] > 0
        assert (res.failure_stage, res.violated_display) == ("exceptional", "exceptional")
    else:
        assert res.audit.notes["V0"] == 0
        assert res, (res.failure_stage, res.failure_detail)
        assert verify_embedding(Hb.H, G, res.mapping) == ""


@pytest.mark.parametrize("seed", [2780996939, 4236761169, 3846038391])
def test_refine_swap_repairs_a_lone_failing_vertex(seed):
    # benchmark instances (pipeline-dense seeds 1, 4, 7; rounds 165, 224,
    # 134): one vertex sees at most 1 of the 6 vertices of a cluster in its
    # block, and at m = 6 refine may drop none; a swap into another block
    # repairs the partition
    G, Hb = gnp(480, 0.97, seed), cycle_power_H(1, 480)
    res = pipeline.run_main_pipeline(G, Hb, seed=seed)
    assert res, (res.failure_stage, res.failure_detail)
    assert verify_embedding(Hb.H, G, res.mapping) == ""
