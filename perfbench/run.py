"""Benchmark of spanembed's embedding pipeline and Hamilton-power search.

    python3 perfbench/run.py --workload pipeline-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process, one thread, one caller in a closed loop: the workload's
instances are answered one after another, round after round, until
``--seconds`` have passed and at least ``workloads.MIN_ROUNDS`` rounds (one
by default) are done.  Times are trimmed means over the run's rounds.
Every output is checked by ``checker.py``.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics; with
``--trace 1`` each round is answered once untraced and once traced, and the
JSON holds the per-layer metrics, averaged per round, and the tracing
overhead.  Run records (and spans, when traced) go to ``perfbench/out/``.
Exit code 1 means the checker rejected an output, 2 that the sources to
benchmark are missing.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
from tracer import LAYER_METRICS, Tracer
from workloads import EXPECTED, MIN_ROUNDS, PIPELINE, WORKLOADS, build, instances

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
SETUP_REPEATS = 5
IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
    "import numpy, spanembed.generators, spanembed.hampower, spanembed.pipeline; "
    "print(time.process_time() - t)"
)

END_TO_END = (
    ("cpu_ref", "ref"),
    ("max_instance_cpu_ref", "ref"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class SpeedProbe:
    """Samples the host's speed while the workload runs.

    Every 20 ms of process CPU time a SIGPROF handler times a fixed ~0.2 ms
    loop of big-integer ANDs and popcounts that uses nothing from spanembed.
    On a shared host the same work takes 20% more or less CPU time from one
    minute to the next; dividing CPU seconds by the loop's mean time during
    the same run cancels most of that drift.  The loop is timed in CPU time,
    as the instances are, since wall time would count time stolen by other
    tenants.  It reads the thread's clock: the process clock, which the
    instances' seconds-long spans can use, may lag by more than the loop
    takes.
    """

    ROWS = [random.Random(k).getrandbits(480) for k in range(40)]

    def __init__(self):
        self.seconds = 0.0
        self.samples = 0

    def _sample(self, signum, frame) -> None:
        start, total = time.thread_time(), 0
        for a in self.ROWS:
            for b in self.ROWS:
                total += (a & b).bit_count()
        self.seconds += time.thread_time() - start
        self.samples += 1

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, 0.02, 0.02)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def unit_s(self) -> float:
        """Mean seconds of one loop so far."""
        return self.seconds / self.samples


def trimmed_mean(values: list[float], cut: float = 0.2) -> float:
    """Mean of the values left once the lowest and the highest ``cut`` share
    are dropped.  Like a median, it ignores a rare slow round (known defect
    3 in NOTES.md); unlike a median, it averages most rounds, which the
    retry-driven round times of hampower-gnp need."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library() -> None:
    """Import spanembed from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "spanembed" / "__init__.py").is_file():
        print(f"perfbench: no spanembed sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import spanembed

    if Path(spanembed.__file__).resolve().parent != src / "spanembed":
        print(f"perfbench: imported spanembed from {spanembed.__file__}", file=sys.stderr)
        raise SystemExit(2)


def fresh_import_seconds() -> float:
    """CPU seconds a fresh interpreter takes to import numpy and spanembed."""
    cmd = [sys.executable, "-c", IMPORT, str(ROOT / "src")]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def solve(inst, G, Hb, probe: SpeedProbe) -> dict:
    """Answer one instance; returns its record (outcome, times, digest, problem).
    The probe's own time is left out of the instance's times."""
    from spanembed import hampower, pipeline

    r = inst.template.r
    probe_start = probe.seconds
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        if inst.template.kind == PIPELINE:
            value = pipeline.run_main_pipeline(G, Hb, seed=inst.seed)
        else:
            value = hampower.find_hamilton_power(G, r, seed=inst.seed)
    except Exception as exc:  # an escaped error is an outcome, not the end of the run
        value = exc
    probe_s = probe.seconds - probe_start
    wall_s = time.perf_counter() - start - probe_s
    cpu_s = time.process_time() - cpu_start - probe_s
    if isinstance(value, hampower.StageFailure) and inst.template.kind != PIPELINE:
        outcome, problem, dig = checker.classify_refusal(value.stage)
    elif isinstance(value, Exception):
        outcome, problem, dig = checker.classify_error(value)
    elif inst.template.kind == PIPELINE:
        outcome, problem, dig = checker.classify_pipeline(value, Hb.H, G)
    else:
        outcome, problem, dig = checker.classify_witness(value, G, r)
    return {"id": inst.id, "outcome": outcome, "wall_s": wall_s, "cpu_s": cpu_s,
            "digest": dig, "problem": problem}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import_library()
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_seconds()
        start = time.process_time()
        built = [(inst, *build(inst)) for inst in instances(workload, seed, 0)]
        setups.append(import_s + time.process_time() - start)
    setup_s = statistics.median(setups)

    tracer = Tracer() if trace else None
    records, mismatches, walls, cpus, maxima, traced_cpus = [], [], [], [], [], []
    deadline = time.perf_counter() + seconds
    round_no = 0
    with SpeedProbe() as probe:
        while True:
            if round_no:
                built = [(inst, *build(inst)) for inst in instances(workload, seed, round_no)]
            done = [solve(inst, G, Hb, probe) for inst, G, Hb in built]
            records += done
            walls.append(sum(rec["wall_s"] for rec in done))
            cpus.append(sum(rec["cpu_s"] for rec in done))
            maxima.append(max(rec["cpu_s"] for rec in done))
            if tracer is not None:
                traced = []
                tracer.install()
                try:
                    for inst, G, Hb in built:
                        tracer.instance = inst.id
                        traced.append(solve(inst, G, Hb, probe))
                finally:
                    tracer.remove()
                traced_cpus.append(sum(rec["cpu_s"] for rec in traced))
                for plain, rec in zip(done, traced):
                    if plain["digest"] != rec["digest"]:
                        rec["problem"] = "traced output differs from the untraced one"
                        mismatches.append(rec)
            round_no += 1
            if time.perf_counter() >= deadline and round_no >= MIN_ROUNDS.get(workload, 1):
                break

    expected = EXPECTED[workload]
    attempted = len(records)
    failed = sum(1 for rec in records if rec["outcome"].split(":")[0] != expected)
    problems = [rec for rec in records + mismatches if rec["problem"]]
    for rec in records + mismatches:
        print(f"instance {rec['id']} {rec['outcome']} {rec['cpu_s']:.3f} s digest={rec['digest']}"
              + (f" REJECTED: {rec['problem']}" if rec["problem"] else ""))
    changed = changed_digests(workload, seed, records)
    print(f"digests changed against baseline: {len(changed)}" + "".join(f"\n  {c}" for c in changed))

    cpu_s = trimmed_mean(cpus)
    unit_s = probe.unit_s()
    e2e = {
        "cpu_ref": cpu_s / unit_s,
        "max_instance_cpu_ref": trimmed_mean(maxima) / unit_s,
        "success_ratio": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {workload} seed {seed}: {round_no} rounds, {attempted} instances, {failed} failed")
    for name, unit in END_TO_END:
        print(f"{name} {e2e[name]:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio")
    print(f"cpu_s {cpu_s:.6g} s")
    print(f"max_instance_cpu_s {trimmed_mean(maxima):.6g} s")
    print(f"wall_s {trimmed_mean(walls):.6g} s")
    slowest = max(records, key=lambda rec: rec["cpu_s"])
    print(f"slowest instance of the run: {slowest['id']} {slowest['cpu_s']:.3f} s"
          f" ({slowest['cpu_s'] / cpu_s:.2f} x the mean round)")
    print(f"probe_unit_s {unit_s:.6g} s ({probe.samples} samples)")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        layer = {k: v / round_no for k, v in tracer.layer_metrics().items()}
        layer["hampower.attempt_yield"] *= round_no  # a ratio, not a per-round total
        layer["trace.spans"] = len(tracer.spans) / round_no
        layer["trace.overhead_s"] = trimmed_mean(traced_cpus) - cpu_s
        layer["trace.overhead_ratio"] = layer["trace.overhead_s"] / cpu_s
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in LAYER_METRICS}
        for name, unit in LAYER_METRICS:
            print(f"{name} {layer[name]:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload, "seed": seed, "rounds": round_no, "instances": records,
              "metrics": metrics, "end_to_end": e2e, "probe_unit_s": unit_s}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans_json()))

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def changed_digests(workload: str, seed: int, records: list[dict]) -> list[str]:
    """Instances whose output digest differs from the committed baseline (informational)."""
    if not BASELINE.is_file():
        return []
    known = json.loads(BASELINE.read_text())["digests"].get(workload, {}).get(str(seed), {})
    return [
        f"{rec['id']}: {known[rec['id']]} -> {rec['digest']}"
        for rec in records
        if rec["id"] in known and known[rec["id"]] != rec["digest"]
    ]


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status, summary = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("instance ")))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
