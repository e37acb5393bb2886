#!/usr/bin/env python3
"""spatsel benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from ./src. With
--trace 0 the run prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it replays the workload under spans and prints the per-layer
metrics, writing the spans to .bench_run/. Lines before the last one give
the run manifest and details (unit counts, tail percentile, table digest,
failed checks); the last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts units and `failed` the units whose output failed a
check. Estimator failures the program itself reports (such as probit fits
that stop unconverged in the grid) are not check failures; they lower
`ok_frac`.
"""

# Nothing imports numpy before `import spatsel.cli` is timed below.
import os

# One BLAS thread per process: the program's matrices are small, mc_grid
# already runs one worker per core, and threaded BLAS on shared cores makes
# unit times swing by a fifth between repeats of the same input.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 2          # fresh interpreters timed next to this process
PROBE_TIMEOUT_S = 60
# a tail percentile needs 10 samples beyond it and must not fall below p50
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time import plus one warm-up unit, print it, exit")
    return p.parse_args(argv)


def tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when too few samples put it at or
    above the median."""
    xs = sorted(samples)
    idx = len(xs) - 1 - TAIL_BEYOND
    if idx < len(xs) // 2:
        return xs[-1], 100.0
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def peak_rss_mb() -> float:
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0           # ru_maxrss is in KiB on Linux


def manifest(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    threads = {k: os.environ.get(k, "unset")
               for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads, "git_commit": commit,
    }


def setup_probe(args) -> dict:
    """Import plus warm-up in a fresh interpreter, timed by that interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warmup_s(wl, args, workdir) -> float:
    """Prepare the warm-up unit's input untimed, then time the unit."""
    warm = wl.warmup(args.seed, workdir)
    start = time.perf_counter()
    warm()
    return time.perf_counter() - start


def untraced(args, wl, workdir, import_s):
    setups = [import_s + warmup_s(wl, args, workdir)]
    for _ in range(SETUP_PROBES):
        probe = setup_probe(args)
        setups.append(probe["import_s"] + probe["warmup_s"])

    timed = wl.timed(args.seed, args.seconds, workdir)
    tail_ms, tail_pct = tail(timed.samples_ms)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": timed.wall_s,
        "units_per_s": timed.units / timed.wall_s,
        "unit_ms_p50": statistics.median(timed.samples_ms),
        "unit_ms_tail": tail_ms,
        "ok_frac": timed.ok_units / timed.units,
        "peak_rss_mb": peak_rss_mb(),
    }
    details = dict(timed.notes, setup_samples_s=setups, unit_samples=len(timed.samples_ms),
                   unit_ms_tail_percentile=tail_pct)
    return values, timed.units, timed.failed, details


def traced(args, wl, workdir, declared):
    from spans import Tracer
    tr = Tracer()
    result = wl.traced(args.seed, args.seconds, workdir, tr)
    os.makedirs(RUN_DIR, exist_ok=True)
    spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    tr.dump(spans_path)
    unknown = sorted(set(result.layers) - set(declared))
    if unknown:
        raise RuntimeError(f"undeclared per-layer metrics: {unknown}")
    # layers this workload never enters read zero
    values = {name: result.layers.get(name, 0.0) for name in declared}
    return values, result.units, result.failed, dict(result.notes, spans=spans_path)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spatsel", "__init__.py")):
        print(f"error: no spatsel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import spatsel.cli  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - start

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        if args.setup_probe:
            print(json.dumps({"import_s": import_s, "warmup_s": warmup_s(wl, args, workdir)}))
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        kind = "per_layer" if args.trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        if args.trace:
            values, attempted, failed, details = traced(args, wl, workdir, declared)
        else:
            values, attempted, failed, details = untraced(args, wl, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("manifest " + json.dumps(manifest(args)))
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": failed == 0 and not details.get("problems"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
