"""Rewrite perfbench/baseline.json from the run records in perfbench/out/.

    python3 perfbench/record_baseline.py

Untraced records give the output digests, the outcome counts and each
end-to-end metric's median and quartiles over the seeds run; traced records
give the per-layer values per seed.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    baseline = {"digests": {}, "outcomes": {}, "end_to_end": {}, "per_layer": {}}
    values: dict[str, dict[str, list[float]]] = {}
    for path in sorted((HERE / "out").glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        wl, seed = rec["workload"], str(rec["seed"])
        if path.stem.endswith("trace1"):
            baseline["per_layer"].setdefault(wl, {})[seed] = {
                k: m["value"] for k, m in rec["metrics"].items()
            }
            continue
        baseline["digests"].setdefault(wl, {})[seed] = {
            i["id"]: i["digest"] for i in rec["instances"]
        }
        baseline["outcomes"].setdefault(wl, {})[seed] = dict(
            Counter(i["outcome"] for i in rec["instances"])
        )
        for k, m in rec["metrics"].items():
            values.setdefault(wl, {}).setdefault(k, []).append(m["value"])
    for wl, metrics in values.items():
        for k, vs in metrics.items():
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            baseline["end_to_end"].setdefault(wl, {})[k] = {
                "median": statistics.median(vs), "q1": q1, "q3": q3, "runs": len(vs)
            }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
