"""Stage labels of run_main_pipeline refusals, and pinned end-to-end runs.

A library failure keeps its own label as ``violated_display`` and the
pipeline stage that called it as ``failure_stage``.
"""

import hashlib
import time

import pytest

from spanembed import pipeline
from spanembed.embed import verify_embedding
from spanembed.generators import (
    clique_factor_extremal,
    cycle_power_H,
    gnp,
    path_power_H,
    random_window_H,
    tiling_H,
    two_cliques,
)
from spanembed.graphs import DenseGraph, StageFailure


def _raise(stage: str, detail: str):
    def fail(*args, **kwargs):
        raise StageFailure(stage, detail)

    return fail


@pytest.mark.parametrize(
    "target, stage, detail, failure_stage, prefix",
    [
        (
            "basic_assignment",
            "floor",
            "target m(1, 1) = 0 below the floor 1",
            "basic-assignment",
            "",
        ),
        (
            "embed_with_targets",
            "target-set",
            "boundary vertex 7 starts below the floor",
            "target-embedding",
            "",
        ),
        (
            "blowup_embed",
            "no-list-embedding",
            "attempt 0: tree exhausted in 3 nodes",
            "blow-up",
            "block 1: ",
        ),
    ],
    ids=["basic-assignment", "target-embedding", "blow-up"],
)
def test_library_label_becomes_the_violated_display(
    monkeypatch, target, stage, detail, failure_stage, prefix
):
    monkeypatch.setattr(pipeline, target, _raise(stage, detail))
    res = pipeline.run_main_pipeline(gnp(480, 0.97, 0), cycle_power_H(1, 480), seed=0)
    assert not res
    assert res.failure_stage == failure_stage
    assert res.violated_display == stage
    assert res.failure_detail == f"{prefix}{stage}: {detail}"


def test_own_refusal_keeps_its_displayed_inequality():
    # 400 mod 48 = 16 vertices fit no cluster; the pipeline's own refusal
    # must reach the result as raised, not be relabelled or re-wrapped
    res = pipeline.run_main_pipeline(gnp(400, 0.97, 0), cycle_power_H(1, 400), seed=0)
    assert res.failure_stage == "exceptional"
    assert res.violated_display == "exceptional"
    assert res.failure_detail == (
        "|V0| = 16: 16 from the n mod L remainder, 0 dropped by refine"
    )


def test_lemma_g_refusal_is_labelled_lemma_g(monkeypatch):
    # a rebalancing refusal must not be attributed to an asymptotic display
    # such as (beta), which fails on every desk-scale run
    monkeypatch.setattr(pipeline, "lemma_g", _raise("lemma-g", "iteration budget exceeded"))
    res = pipeline.run_main_pipeline(gnp(480, 0.97, 0), cycle_power_H(1, 480), seed=0)
    assert not res
    assert res.failure_stage == "lemma-g"
    assert res.violated_display == "lemma-g"
    assert res.failure_detail == "iteration budget exceeded"


V0_TAIL = "from the n mod L remainder, 0 dropped by refine"


@pytest.mark.parametrize(
    "host, guest, expected",
    [
        (lambda: gnp(480, 0.97, 4), lambda: cycle_power_H(1, 480), "86abe1d47e9e175a"),
        (lambda: gnp(480, 0.97, 4), lambda: path_power_H(1, 480), "bbb2f613ba934c23"),
        # 3-colour guests, on which lemma_g moves 32 and 37 vertices
        (lambda: gnp(576, 0.97, 4), lambda: cycle_power_H(2, 576), "5a0fb342a0d12a72"),
        (
            lambda: gnp(576, 0.97, 4),
            lambda: random_window_H(576, 4, 3, 3),
            "865e8d63fc128f3b",
        ),
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
    ids=[
        "gnp480-C1",
        "gnp480-P1",
        "gnp576-C2",
        "gnp576-window",
        "gnp400-C1",
        "gnp480-K3tiling",
        "extremal3x480-K3tiling",
    ],
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


@pytest.mark.parametrize("seed, expected", [(1, "008a87ae8e2459b8"), (2, "141a1510ca0d32d3")])
def test_pipeline_outputs_pinned_on_the_connecting_absorbing_route(seed, expected):
    # L = 160 clusters: find_hamilton_power builds R's power cycle, not the oracle
    res = pipeline.run_main_pipeline(gnp(960, 0.97, seed), cycle_power_H(1, 960), seed=seed)
    assert res, (res.failure_stage, res.failure_detail)
    assert res.audit.notes["hamilton-power"] == "connecting-absorbing"
    got = hashlib.sha256(repr(sorted(res.mapping.items())).encode()).hexdigest()[:16]
    assert got == expected


def test_a_fractional_beta_is_read_as_the_whole_interval_width():
    # beta*n = 2.16 slices H into width-3 intervals; the assignment's
    # checker must bound |B| by 2*ell*3, not 2*ell*2.16, or this embeddable
    # run refuses at basic-assignment
    res = pipeline.run_main_pipeline(
        gnp(480, 0.97, 4), cycle_power_H(1, 480, beta=0.0045), seed=4
    )
    assert res, (res.failure_stage, res.failure_detail)
    got = hashlib.sha256(repr(sorted(res.mapping.items())).encode()).hexdigest()[:16]
    assert got == "1d7f7630421a8d3b"


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
    # the assignment's demands differ from m, so lemma_g must move vertices
    G = host(n, seed)
    Hb = guest(n)
    res = pipeline.run_main_pipeline(G, Hb, seed=seed)
    assert res, (res.failure_stage, res.failure_detail)
    assert verify_embedding(Hb.H, G, res.mapping) == ""
    assert res.audit.notes["lemma-g-moves"] > 0
    # the proof's iteration budget fails at m = 6 and is only recorded
    assert res.audit.checks["(K)"][0] is False
    # (delta/2 - 2*eps_balance)*m at eps_balance = 0.9: no degree is checked
    assert res.audit.notes["lemma-g-move-threshold"] == pytest.approx(-10.05)
    assert "lemma-g-move-threshold" not in res.audit.checks


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


def test_singleton_path_refuses_an_order_that_does_not_carry_h(monkeypatch):
    # the embedding check is the singleton path's only guard: a spanning
    # order whose first two vertices are not adjacent cannot carry the
    # cycle edge between H's first two vertices in bandwidth order
    G, Hb = gnp(60, 0.95, 1), cycle_power_H(1, 60)
    u, v = next((u, v) for u in range(G.n) for v in range(G.n) if u != v and not G.has_edge(u, v))
    order = [u, v] + [w for w in range(G.n) if w not in (u, v)]
    monkeypatch.setattr(pipeline, "_reduced_power_cycle", lambda *args: order)
    res = pipeline.run_main_pipeline(G, Hb, seed=1)
    assert res.audit.notes["partition"] == "degenerate-singleton"
    assert res.mapping is None
    assert (res.failure_stage, res.violated_display) == ("assembly", "assembly")
    assert res.failure_detail == "revalidation failed: edge (0,1) maps to a non-edge"
    assert "assembly" not in res.audit.stages


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


@pytest.mark.parametrize("seed", [1, 2])
def test_small_reduced_graph_records_only_the_degree_inheritance(seed):
    # L = 16 clusters: every run records the same (1/2 + eta/2)L degree
    # check of R, whatever the size of R
    G, Hb = gnp(96, 0.97, seed), cycle_power_H(1, 96)
    res = pipeline.run_main_pipeline(G, Hb, seed=seed)
    assert res, (res.failure_stage, res.failure_detail)
    assert verify_embedding(Hb.H, G, res.mapping) == ""
    assert res.audit.checks["inheritance-degree"][0]
    assert "inheritance-density" not in res.audit.checks


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


def test_reduced_graph_below_twice_the_power_refuses_at_once():
    # two_cliques(96) at seed 2: R has 16 clusters and delta(R) = 13, so no
    # spanning 7th power of a cycle exists; the oracle used to spend its
    # whole node budget (3.5 s) before refusing
    start = time.process_time()
    res = pipeline.run_main_pipeline(two_cliques(96), cycle_power_H(1, 96), seed=2)
    elapsed = time.process_time() - start
    assert res.failure_stage == "hamilton-power"
    assert res.failure_detail == "δ(R) = 13 < 2q = 14: no spanning power-7 cycle on 16 vertices"
    # the refusal names its own stage, not the first failed advisory check
    assert res.violated_display == "hamilton-power"
    assert elapsed < 0.1


@pytest.mark.parametrize("n", [1, 2])
def test_host_below_three_vertices_refuses_at_hamilton_power(n):
    # no power cycle exists on fewer than 3 vertices; the oracle route used
    # to let its witness's InvalidParameters("witness power must be >= 1")
    # escape
    res = pipeline.run_main_pipeline(DenseGraph.complete(n), path_power_H(1, n))
    assert not res
    assert (res.failure_stage, res.violated_display) == ("hamilton-power", "hamilton-power")
    assert res.failure_detail == f"no power cycle on {n} < 3 vertices"
