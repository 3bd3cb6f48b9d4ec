"""Tests of the benchmark's own code: checker, instance generation, tracer, speed probe.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from spanembed.generators import cycle_power_H, gnp  # noqa: E402
from spanembed.graphs import DenseGraph, cycle_power  # noqa: E402


def _square():
    return DenseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_checker_accepts_a_valid_embedding():
    assert checker.check_embedding(_square(), _square(), {0: 1, 1: 2, 2: 3, 3: 0}) == ""


def test_checker_rejects_one_non_edge():
    H = DenseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])  # path
    G = DenseGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert "non-edge" in checker.check_embedding(H, G, {0: 0, 1: 1, 2: 3, 3: 2})


def test_checker_rejects_a_repeated_image():
    assert "repeats" in checker.check_embedding(_square(), _square(), {0: 0, 1: 1, 2: 2, 3: 0})


def test_checker_power_cycle():
    G = cycle_power(2, 7)
    assert checker.check_power_cycle(G, range(7), 2) == ""
    assert checker.check_power_cycle(G, range(7), 3) != ""
    assert "exactly once" in checker.check_power_cycle(G, [0, 1, 2, 3, 4, 5, 5], 1)
    assert checker.check_power_cycle(G, range(6), 1) != ""


def test_instance_generation_is_identical_for_equal_seeds():
    for name in workloads.WORKLOADS:
        first = workloads.instances(name, 7, 0)
        assert first == workloads.instances(name, 7, 0)
        assert first != workloads.instances(name, 8, 0)
    (inst,) = [i for i in workloads.instances("pipeline-dense", 7, 0) if "gnp400" in i.id]
    G1, H1 = workloads.build(inst)
    G2, H2 = workloads.build(inst)
    assert G1.rows == G2.rows and H1.H.rows == H2.H.rows


def _bindings():
    return [(owner, attr, original) for owner, attr, original, _ in tracing.Tracer().targets()]


def test_tracer_restores_every_wrapped_attribute():
    before = _bindings()
    assert len(before) > len(tracing.FUNCTIONS)  # names bound in several modules
    t = tracing.Tracer()
    t.install()
    try:
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in before)
        from spanembed import hampower

        hampower.find_hamilton_power(gnp(120, 0.95, seed=3), 1, seed=3)
    finally:
        t.remove()
    assert all(getattr(owner, attr) is orig for owner, attr, orig in before)
    metrics = t.layer_metrics()
    assert metrics["hampower.find_hamilton_power.attempts"] >= 1
    assert 0 < metrics["hampower.attempt_yield"] <= 1


def test_tracer_restores_after_an_exception():
    before = _bindings()
    t = tracing.Tracer()
    t.install()
    try:
        from spanembed import pipeline

        res = pipeline.run_main_pipeline(gnp(30, 0.9, seed=1), cycle_power_H(1, 32))
        assert res.failure_stage == "precheck"
    finally:
        t.remove()
    assert [(o, a, f) for o, a, f in _bindings()] == before


def test_benchmark_json_declares_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_speed_probe_samples_and_uninstalls():
    with run.SpeedProbe() as probe:
        end = time.process_time() + 0.2
        while time.process_time() < end:
            pass
    assert probe.samples > 0 and probe.unit_s() > 0
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_trimmed_mean_drops_one_slow_round_of_the_minimum_run():
    rounds = [5.0] * (workloads.MIN_ROUNDS["pipeline-refuse"] - 1) + [35.0]
    assert run.trimmed_mean(rounds) == 5.0
    assert run.trimmed_mean([1.0, 3.0]) == 2.0  # too few rounds to trim
