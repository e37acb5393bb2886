#!/usr/bin/env python3
"""Check every committed BENCH_*.json against BENCHMARK.json.

    python3 scripts/check_bench.py

Run from the repository root. A BENCH file records before/after numbers
for one change as {"workloads": {workload: {metric: {...}}}}. Each
workload it names must be a workload of BENCHMARK.json and each metric an
end-to-end metric there, and each metric must hold a "parent" and a
"change" entry with a "median". Prints every problem and exits 1 when
there is one.
"""

import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems(bench: dict, workloads: set, metrics: set) -> list[str]:
    out = []
    for wl, by_metric in bench.get("workloads", {}).items():
        if wl not in workloads:
            out.append(f"unknown workload {wl!r}")
            continue
        for metric, sides in by_metric.items():
            if metric not in metrics:
                out.append(f"{wl}: unknown end-to-end metric {metric!r}")
            elif not all("median" in sides.get(side, {}) for side in ("parent", "change")):
                out.append(f"{wl}.{metric}: needs a parent and a change median")
    if not bench.get("workloads"):
        out.append("names no workload")
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    failed = False
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json"))):
        with open(path, encoding="utf-8") as fh:
            found = problems(json.load(fh), workloads, metrics)
        for line in found:
            print(f"{os.path.basename(path)}: {line}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
