#!/usr/bin/env python3
"""Fast self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Shrinks every workload to a few small datasets, runs each one untraced and
traced through run.main, and checks that every metric BENCHMARK.json names
is printed with its unit, that every per-layer metric is measured by some
workload, and that the mc_grid replay check rejects a mismatched estimate.
Exits 0 when all checks pass.
"""

import contextlib
import io
import json
import os
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spatsel.montecarlo import SimCell, run_cell  # noqa: E402

# per-layer metrics that read zero unless the program misbehaves
MAY_BE_ZERO = {"probit.nonconverged_s"}


def shrink() -> None:
    run.SETUP_PROBES = 0
    w = workloads.WORKLOADS
    w["mc_grid"].REPS = 4
    w["mc_grid"].GRID = {"J_list": (4, 40), "s_list": (2,), "n_list": (8,)}
    w["boot_ci"].cell = (6, 2, 8)
    w["boot_ci"].configs = ({"rule": "sublocation", "op": "fixed-effect", "boot": 99},)
    w["large_fit"].cell = (6, 2, 10)
    w["graph_fit"].cell = (4, 3, 10)


def run_main(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", str(trace)])
    assert rc == 0, f"{workload} trace={trace}: exit {rc}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    measured = set()
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run_main(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["attempted"] >= 1, (workload, trace, result)
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            got = result["metrics"]
            assert set(got) == set(declared), (workload, kind, set(got) ^ set(declared))
            for name, unit in declared.items():
                assert got[name]["unit"] == unit, (workload, name, got[name])
                assert isinstance(got[name]["value"], (int, float)), (workload, name)
                if trace == 0:
                    assert got[name]["value"] > 0, (workload, name, got[name])
                elif got[name]["value"] != 0:
                    measured.add(name)
        print(f"ok: {workload} prints every metric with its unit")
    unmeasured = {m["name"] for m in spec["per_layer"]} - measured - MAY_BE_ZERO
    assert not unmeasured, f"per-layer metrics no workload measures: {sorted(unmeasured)}"
    print("ok: every per-layer metric is measured by some workload")


def check_replay_mismatch() -> None:
    cell = SimCell(J=4, s=2, n=5, replications=3, seed=3)
    results = [run_cell(cell, threads=1)]
    replay = workloads.replay_replication
    replayed = {0: np.stack([replay(cell, r, workloads.OFF, defaultdict(float))
                             for r in range(2)])}
    assert workloads.check_replay(results, replayed) == [], "replay must match run_cell"
    slot = int(np.flatnonzero(np.isfinite(replayed[0][0, :, 0]))[0])
    replayed[0][0, slot, 0] = np.nextafter(replayed[0][0, slot, 0], np.inf)
    assert workloads.check_replay(results, replayed), "mismatched estimate not caught"
    print("ok: the mc_grid replay check rejects a mismatched estimate")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    shrink()
    check_replay_mismatch()
    check_metrics(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
