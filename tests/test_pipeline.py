"""Stage labels of run_main_pipeline refusals.

A library failure keeps its own label as ``violated_display`` and the
pipeline stage that called it as ``failure_stage``.
"""

import pytest

from spanembed import pipeline
from spanembed.balance import BalanceError
from spanembed.generators import cycle_power_H, gnp
from spanembed.graphs import StageFailure


def _raise(stage: str, detail: str):
    def fail(*args, **kwargs):
        raise StageFailure(stage, detail)

    return fail


@pytest.mark.parametrize(
    "target, stage, detail, failure_stage",
    [
        ("basic_assignment", "floor", "target m(1, 1) = 0 below the floor 1", "basic-assignment"),
        ("embed_with_targets", "target-set", "S_w of 7 has 0 < c*m vertices", "target-embedding"),
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
    # the special-assignment prefix does not fit in n = 400 (a known defect
    # of the sizing); the refusal must name (seq), not be relabelled
    res = pipeline.run_main_pipeline(gnp(400, 0.97, 0), cycle_power_H(1, 400), seed=0)
    assert res.failure_stage == "special-assignment"
    assert res.violated_display == "(seq)"
    assert res.failure_detail == "prefix 1098 exceeds |H| = 400"


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
