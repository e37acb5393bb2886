"""The four benchmark workloads, their output checks and their traced replays.

Every workload is a closed loop with one client: a unit starts only when
the previous one has returned, because a user waits for each result. The
untraced run (`timed`) gives the end-to-end numbers; the traced run
(`traced`) replays the same public calls with a span around each call into
a layer and gives the per-layer numbers.

The timed part is a fixed number of units, sized from --seconds by each
workload's nominal unit cost (measured on a 2-core x86 machine). The unit
count therefore depends on --seconds only, and `wall_s` measures a fixed
amount of work rather than the length of the run.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from spatsel import cli
from spatsel.dataset import CsvSchema, build_neighborhoods, load_adjacency, load_csv
from spatsel.differencing import fixed_effect_operator, kernel_operator, pairwise_operator
from spatsel.estimator import heckman_classic, two_step_fit
from spatsel.exceptions import EstimationError
from spatsel.inference import wild_cluster_bootstrap
from spatsel.montecarlo import (
    ESTIMATOR_NAMES,
    GridConfig,
    SimCell,
    generate_sample,
    rep_seed,
    run_tables,
    write_tables,
)
from spatsel.numerics import mills_lambda_dee
from spatsel.probit import ProbitSpec, fit_probit, predict_index

import inputs
from spans import OFF, Tracer

NPROC = os.cpu_count() or 1
MB = float(2**20)
# cells with at most this many observations are bound by per-call overhead
SMALL_CELL_N = 600
# normal equations (DW)'(Dy - DW theta) must vanish to this share of (DW)'Dy
NORMAL_EQ_TOL = 1e-9
ROW_SUM_TOL = 1e-12
MILLS_PROBE_REPEATS = 20


@dataclass
class Timed:
    """Outcome of an untraced run."""

    samples_ms: list[float]    # unit-time samples behind unit_ms_p50 and the tail
    units: int                 # units attempted in the timed part
    wall_s: float              # wall time of the timed part
    ok_units: float            # units that succeeded and passed every check
    failed: int                # units that failed a benchmark check
    notes: dict = field(default_factory=dict)


@dataclass
class Traced:
    """Outcome of a traced run: per-layer values and check counts."""

    layers: dict
    units: int
    failed: int
    notes: dict = field(default_factory=dict)


def unit_count(seconds: float, nominal_unit_s: float, minimum: int = 2) -> int:
    return max(minimum, round(seconds / nominal_unit_s))


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# ---------------------------------------------------------------------------
# instrumented library calls shared by the replays
# ---------------------------------------------------------------------------


def _probit(ds, spec, tr: Tracer, stats):
    """fit_probit under a span; None when it raises or does not converge."""
    start = time.perf_counter()
    try:
        with tr.span("probit.fit"):
            probit = fit_probit(ds, spec)
    except EstimationError:
        probit = None
    stats["probit.fits"] += 1
    if probit is not None:
        stats["probit.iterations"] += probit.iterations
        if probit.converged:
            stats["probit.converged"] += 1
            return probit
    stats["probit.nonconverged_s"] += time.perf_counter() - start
    return None


def _graph(ds, rule, tr: Tracer, **kw):
    with tr.span("dataset.graph"):
        return build_neighborhoods(ds, rule, **kw)


def _operator(build, kind, rule, tr: Tracer, stats, *args):
    with tr.span(f"differencing.build.{kind}.{rule}"):
        op = build(*args)
    key = f"{kind}.{rule}"
    m = op.matrix
    stats["builds." + key] += 1
    stats["differencing.nnz." + key] += m.nnz
    stats["differencing.rows." + key] += op.rows
    csr_mb = (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes) / MB
    stats["differencing.csr_mb"] = max(stats["differencing.csr_mb"], csr_mb)
    return op


def _two_step(ds, op, probit, rule, tr: Tracer):
    with tr.span(f"estimator.two_step.{rule}"):
        return two_step_fit(ds, op, probit_fit=probit)


def mills_probe(n: int, seed: int, tr: Tracer) -> None:
    """Time mills_lambda_dee on n standard-normal index values."""
    c = np.random.default_rng(seed).standard_normal(n)
    for _ in range(MILLS_PROBE_REPEATS):
        with tr.span("numerics.mills"):
            mills_lambda_dee(c)


def layer_values(tr: Tracer, stats, units: int, untraced_s: float) -> dict:
    """Per-layer metrics from the spans and counts of a traced run.

    Layer times are self time per replayed unit (mean, so the layers and
    the unattributed remainder add up to the unit time). Probes that run
    outside the units (`numerics.mills`, `inference.p_value`,
    `montecarlo.write_tables`) report their median duration, and
    `inference.boot_ci` its time per coefficient. Counts are computed from
    array sizes and fit results over the whole traced replay.
    """
    probes = ("numerics.mills", "inference.p_value", "montecarlo.write_tables")
    selfs = tr.self_seconds()
    out = {}
    for name, secs in selfs.items():
        if name in probes or name in ("unit", "cli.fit"):
            continue
        head, _, tail = name.partition(".")
        sub, _, rest = tail.partition(".")
        metric = f"{head}.{sub}_ms" + (f".{rest}" if rest else "")
        calls = len(tr.durations(name)) if name == "inference.boot_ci" else units
        out[metric] = 1e3 * secs / calls
    for name in probes:
        spans = tr.durations(name)
        if spans:
            out[name + "_ms"] = 1e3 * statistics.median(spans)

    traced_s = sum(tr.durations("unit"))
    layer_s = traced_s - selfs.get("unit", 0.0)
    out["trace.units"] = units
    out["trace.unattributed_ms"] = 1e3 * selfs.get("unit", 0.0) / units
    out["trace.untraced_unit_ms"] = 1e3 * untraced_s / units
    out["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    cli_spans = tr.durations("cli.fit")
    if cli_spans:
        out["cli.overhead_ms"] = 1e3 * (sum(cli_spans) - layer_s) / len(cli_spans)

    fits = stats["probit.fits"]
    if fits:
        out["probit.fits"] = fits
        out["probit.iterations"] = stats["probit.iterations"]
        out["probit.converged_ratio"] = stats["probit.converged"] / fits
        out["probit.nonconverged_s"] = stats["probit.nonconverged_s"]
    for key, builds in stats.items():
        if key.startswith("builds."):
            kind_rule = key[len("builds."):]
            for count in ("nnz", "rows"):
                name = f"differencing.{count}.{kind_rule}"
                out[name] = stats[name] / builds
    for key in ("differencing.csr_mb", "inference.row_draws"):
        if stats.get(key):
            out[key] = stats[key]
    return out


def _rotated(i: int, *steps) -> list[float]:
    """Run the steps of unit i starting from step i mod len(steps), so no
    step always runs first; return each step's wall time in given order."""
    times = [0.0] * len(steps)
    for j in range(len(steps)):
        k = (i + j) % len(steps)
        start = time.perf_counter()
        steps[k]()
        times[k] = time.perf_counter() - start
    return times


# ---------------------------------------------------------------------------
# mc_grid
# ---------------------------------------------------------------------------

TABLE_HEADER = ["J", "s", "n", "estimator", "mean_bias", "coverage", "empirical_sd",
                "mean_se", "failures", "replications"]


def check_tables(out_dir, cells: list[SimCell]) -> list[str]:
    """The tables parse, with the three estimators once per grid cell."""
    problems = []
    reps = cells[0].replications
    seen: dict = defaultdict(list)
    for j in sorted({c.J for c in cells}):
        path = os.path.join(out_dir, f"table_J{j}.csv")
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            return [f"table J={j}: {exc}"]
        if rows[:1] != [TABLE_HEADER]:
            problems.append(f"table J={j}: header {rows[:1]}")
            continue
        for row in rows[1:]:
            try:
                key = (int(row[0]), int(row[1]), int(row[2]))
                [float(v) for v in row[4:8]]
                failures, replications = int(row[8]), int(row[9])
            except (ValueError, IndexError):
                problems.append(f"table J={j}: unparseable row {row}")
                continue
            if not 0 <= failures <= reps or replications != reps:
                problems.append(f"table J={j}: bad counts in {row}")
            seen[key].append(row[3])
    for cell in cells:
        got = sorted(seen.pop((cell.J, cell.s, cell.n), []))
        if got != sorted(ESTIMATOR_NAMES):
            problems.append(f"cell J={cell.J} s={cell.s} n={cell.n}: estimators {got}")
    if seen:
        problems.append(f"tables hold cells outside the grid: {sorted(seen)}")
    if not os.path.isfile(os.path.join(out_dir, "tables_report.txt")):
        problems.append("tables_report.txt missing")
    return problems


def tables_digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def replay_replication(cell: SimCell, rep: int, tr: Tracer, stats) -> np.ndarray:
    """One replication through the public calls `_replicate` makes:
    (3 estimators) x (estimate, se), NaN marking a failed estimator."""
    out = np.full((3, 2), np.nan)
    with tr.span("montecarlo.generate"):
        ds = generate_sample(cell, rep_seed(cell, rep))
    spec = ProbitSpec(include_location_dummies=cell.probit_dummies, include_intercept=True)
    probit = _probit(ds, spec, tr, stats)
    if probit is None:
        return out
    sel = ds.selected_indices()
    x_name = ds.x_names[0]
    try:
        with tr.span("estimator.heckman"):
            fit = heckman_classic(ds, probit_fit=probit)
        i = fit.names.index(x_name)
        out[0] = fit.theta[i], fit.se()[i]
    except EstimationError:
        pass
    for slot, rule in ((1, "location"), (2, "sublocation")):
        try:
            graph = _graph(ds, rule, tr)
            op = _operator(fixed_effect_operator, "fixed_effect", rule, tr, stats, graph, sel)
            fit = _two_step(ds, op, probit, rule, tr)
            i = fit.names.index(x_name)
            out[slot] = fit.theta[i], fit.se()[i]
        except EstimationError:
            pass
    return out


def check_replay(results, replayed: dict) -> list[str]:
    """Replayed replications 0..k-1 of each cell must equal, bit for bit,
    the leading entries of run_cell's EstimatorSummary arrays."""
    problems = []
    for ci, arr in replayed.items():
        res = results[ci]
        for slot, name in enumerate(ESTIMATOR_NAMES):
            est, se = arr[:, slot, 0], arr[:, slot, 1]
            ok = np.isfinite(est) & np.isfinite(se)
            su = res.estimators[name]
            n = int(ok.sum())
            if not (np.array_equal(est[ok], su.estimates[:n])
                    and np.array_equal(se[ok], su.standard_errors[:n])):
                c = res.cell
                problems.append(f"replay differs: J={c.J} s={c.s} n={c.n} {name}")
    return problems


class McGrid:
    """run_tables over the 36-cell acceptance grid at REPS replications."""

    name = "mc_grid"
    REPS = 30
    GRID: dict = {}             # GridConfig overrides; empty is the acceptance grid
    nominal_unit_s = 5.0        # one grid pass, tables included
    MILLS_N = 4300              # selected rows of the largest cell (J=100 s=8 n=10)

    def cells(self, seed: int, part: int = 0) -> list[SimCell]:
        """The grid under master seed `seed`; `part` picks one of several
        grid seeds derived from it."""
        return GridConfig(reps=self.REPS, seed=seed * 100 + part, **self.GRID).cells()

    def warmup(self, seed: int, workdir):
        # one small cell through the same pool, off the timed seeds
        cells = [SimCell(J=20, s=2, n=3, replications=4 * NPROC, seed=seed * 100 + 99)]
        out = os.path.join(workdir, "warmup")
        return lambda: run_tables(cells, threads=NPROC, out_dir=out)

    def timed(self, seed: int, seconds: float, workdir) -> Timed:
        # Each pass but the last draws a different grid seed, so one run
        # averages over several sets of seeded probit stalls, which cost
        # ~0.6 s of wall time each. The last pass repeats the first seed
        # and must reproduce its tables byte for byte.
        passes = unit_count(seconds, self.nominal_unit_s, minimum=3)
        parts = list(range(passes - 1)) + [0]
        per_pass = len(self.cells(seed)) * self.REPS
        walls, digests, passes_ok, fail_frac = [], [], [], []
        problems: list[str] = []
        for p, part in enumerate(parts):
            cells = self.cells(seed, part)
            out = os.path.join(workdir, f"pass{p}")
            start = time.perf_counter()
            results = run_tables(cells, threads=NPROC, out_dir=out)
            walls.append(time.perf_counter() - start)
            pass_problems = check_tables(out, cells)
            digests.append(tables_digest(out))
            if p == passes - 1:
                if digests[-1] != digests[0]:
                    pass_problems.append("repeated pass: tables differ from the first pass")
                replayed = {ci: np.stack([replay_replication(c, 0, OFF, defaultdict(float))])
                            for ci, c in enumerate(cells)}
                pass_problems += check_replay(results, replayed)
            failures = sum(su.failures for r in results for su in r.estimators.values())
            fail_frac.append(failures / (3 * per_pass))
            passes_ok.append(not pass_problems)
            problems += pass_problems
        ok_units = sum(per_pass * (1.0 - f) for f, ok in zip(fail_frac, passes_ok) if ok)
        # replications run inside the pool's workers, so the unit-time
        # samples are each pass's wall time per replication
        return Timed(
            samples_ms=[1e3 * w / per_pass for w in walls], units=passes * per_pass,
            wall_s=sum(walls),
            ok_units=ok_units, failed=per_pass * passes_ok.count(False),
            notes={"passes": passes, "grid_seeds": [seed * 100 + q for q in parts],
                   "replications_per_cell": self.REPS, "pass_wall_s": walls,
                   "tables_sha256": digests[0],
                   "estimator_failures": [round(f * 3 * per_pass) for f in fail_frac],
                   "problems": problems},
        )

    def traced(self, seed: int, seconds: float, workdir, tr: Tracer) -> Traced:
        cells = self.cells(seed)
        self.warmup(seed, workdir)()
        cpu0, start = cpu_seconds(), time.perf_counter()
        results = run_tables(cells, threads=NPROC)
        grid_wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu0
        out = os.path.join(workdir, "tables")
        with tr.span("montecarlo.write_tables"):
            write_tables(results, out)
        problems = check_tables(out, cells)

        # single-process replay of the first k replications of every cell
        k = min(self.REPS, unit_count(seconds, 4.0))
        stats: dict = defaultdict(float)
        replayed, untraced_s = {}, 0.0
        for ci, cell in enumerate(cells):
            rows = []
            for r in range(k):
                tr.unit = ci * k + r

                def traced_rep(cell=cell, r=r):
                    with tr.span("unit"):
                        rows.append(replay_replication(cell, r, tr, stats))

                untraced_s += _rotated(
                    tr.unit, traced_rep,
                    lambda cell=cell, r=r: replay_replication(cell, r, OFF, defaultdict(float)))[1]
            replayed[ci] = np.stack(rows)
        tr.unit = None
        problems += check_replay(results, replayed)
        mills_probe(self.MILLS_N, seed, tr)

        layers = layer_values(tr, stats, len(cells) * k, untraced_s)
        small = [r.elapsed_seconds for r in results if r.cell.n_obs <= SMALL_CELL_N]
        large = [r.elapsed_seconds for r in results if r.cell.n_obs > SMALL_CELL_N]
        layers.update({
            "montecarlo.small_cells_s": sum(small),
            "montecarlo.large_cells_s": sum(large),
            "montecarlo.grid_wall_s": grid_wall,
            "montecarlo.cpu_util": cpu / (grid_wall * NPROC),
        })
        return Traced(layers=layers, units=len(cells) * self.REPS,
                      failed=len(cells) * self.REPS if problems else 0,
                      notes={"replayed_per_cell": k, "problems": problems})


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    """spatsel.cli.main in-process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def read_coefficients(path) -> tuple[list[str], dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], {row[0]: dict(zip(rows[0], row)) for row in rows[1:]}


def replay_fit(cfg: dict, item: dict, seed: int, tr: Tracer, stats):
    """The steps of `spatsel fit` (cli._cmd_fit) as library calls.

    Returns (dataset, operator, fit, {coefficient: BootstrapResult}).
    """
    rule = cfg["rule"]
    with tr.span("dataset.load_csv"):
        ds = load_csv(item["csv"], CsvSchema())
    if rule == "edges":
        with tr.span("dataset.load_adjacency"):
            edges = load_adjacency(item["adjacency"])
        graph = _graph(ds, rule, tr, edges=edges)
    elif rule == "distance":
        graph = _graph(ds, rule, tr, d=cfg["d"])
    else:
        graph = _graph(ds, rule, tr)
    sel = ds.selected_indices()
    spec = ProbitSpec()
    if cfg["op"] == "pairwise":
        op = _operator(pairwise_operator, "pairwise", rule, tr, stats, graph, sel)
    elif cfg["op"] == "fixed-effect":
        op = _operator(fixed_effect_operator, "fixed_effect", rule, tr, stats, graph, sel)
    else:
        # two-pass plug-in: a pilot fixed-effect fit supplies the kernel index
        pilot_op = _operator(fixed_effect_operator, "fixed_effect", rule, tr, stats, graph, sel)
        pilot = _two_step(ds, pilot_op, _probit(ds, spec, tr, stats), rule, tr)
        index = ds.x[sel] @ pilot.delta + predict_index(pilot.probit, ds)
        op = _operator(kernel_operator, "kernel", rule, tr, stats,
                       graph, sel, index, cfg["bandwidth"], "epanechnikov")
    fit = _two_step(ds, op, _probit(ds, spec, tr, stats), rule, tr)
    boot = {}
    for name in fit.names if cfg.get("boot") else ():
        with tr.span("inference.boot_ci"):
            boot[name] = wild_cluster_bootstrap(fit, op, ds, name, null_value=0.0,
                                                B=cfg["boot"], seed=seed, compute_ci=True)
        stats["inference.row_draws"] = cfg["boot"] * op.rows
    return ds, op, fit, boot


class CliWorkload:
    """In-process `spatsel fit` runs on generated CSVs.

    A unit is one pass over `configs`, each a `spatsel fit` call on the
    unit's input; the traced run replays each call with library calls.
    """

    name: str
    cell: tuple[int, int, int]
    configs: tuple[dict, ...]
    graph_inputs = False
    nominal_unit_s: float
    distinct_inputs: int | None = None   # cycle this many inputs; None: one per unit
    columns = ["name", "estimate", "se", "t"]

    def argv(self, cfg: dict, item: dict, seed: int, out: str) -> list[str]:
        argv = ["fit", "--input", item["csv"], "--rule", cfg["rule"], "--op", cfg["op"],
                "--out", out]
        if cfg["rule"] == "edges":
            argv += ["--adjacency", item["adjacency"]]
        if cfg["rule"] == "distance":
            argv += ["--d", repr(cfg["d"])]
        if cfg["op"] == "kernel":
            argv += ["--bandwidth", repr(cfg["bandwidth"])]
        if cfg.get("boot"):
            argv += ["--boot", str(cfg["boot"]), "--seed", str(seed)]
        return argv

    def inputs(self, seed: int, workdir, units: int) -> list[dict]:
        distinct = min(units, self.distinct_inputs or units)
        items = inputs.csv_inputs(os.path.join(workdir, "inputs"), *self.cell, seed,
                                  range(1, distinct + 1), graph=self.graph_inputs)
        return [items[i % distinct] for i in range(units)]

    def warmup(self, seed: int, workdir):
        item = inputs.csv_inputs(os.path.join(workdir, "warmup"), *self.cell, seed, [0],
                                 graph=self.graph_inputs)[0]
        out = os.path.join(workdir, "warmup", "out")
        return lambda: [run_cli(self.argv(cfg, item, seed, out)) for cfg in self.configs]

    def run_unit(self, item: dict, seed: int, out: str) -> list:
        return [(cfg, run_cli(self.argv(cfg, item, seed, os.path.join(out, str(c)))))
                for c, cfg in enumerate(self.configs)]

    def check_unit(self, outputs: list, seed: int, out: str) -> tuple[list[str], int]:
        """(failed checks, estimation failures the CLI itself reported)."""
        problems, reported = [], 0
        for c, (cfg, (rc, err)) in enumerate(outputs):
            tag = f"{cfg['rule']}/{cfg['op']}"
            if rc == cli.EXIT_ESTIMATION and "estimation failed:" in err:
                reported += 1
                continue
            if rc != 0:
                problems.append(f"{tag}: exit {rc}: {err.strip()[-200:]}")
                continue
            header, rows = read_coefficients(os.path.join(out, str(c), "fit_coefficients.csv"))
            want = self.columns + (["p_boot", "ci_low", "ci_high", "B", "seed"]
                                   if cfg.get("boot") else [])
            if header != want or sorted(rows) != ["mills", "x1"]:
                problems.append(f"{tag}: columns {header}, rows {sorted(rows)}")
                continue
            for name, row in rows.items():
                est, se = float(row["estimate"]), float(row["se"])
                if not (np.isfinite(est) and se > 0):
                    problems.append(f"{tag}: {name} estimate {est} se {se}")
                if cfg.get("boot"):
                    lo, hi = float(row["ci_low"]), float(row["ci_high"])
                    if int(row["B"]) != cfg["boot"] or int(row["seed"]) != seed:
                        problems.append(f"{tag}: {name} B={row['B']} seed={row['seed']}")
                    if not lo < est < hi:
                        problems.append(f"{tag}: {name} interval ({lo}, {hi}) misses {est}")
        return problems, reported

    def timed(self, seed: int, seconds: float, workdir) -> Timed:
        units = unit_count(seconds, self.nominal_unit_s)
        items = self.inputs(seed, workdir, units)
        samples, failed, reported, problems = [], 0, 0, []
        for i, item in enumerate(items):
            out = os.path.join(workdir, "out", str(i))
            start = time.perf_counter()
            outputs = self.run_unit(item, seed, out)
            samples.append(time.perf_counter() - start)
            unit_problems, unit_reported = self.check_unit(outputs, seed, out)
            failed += bool(unit_problems)
            reported += bool(unit_reported and not unit_problems)
            problems += unit_problems
        return Timed(samples_ms=[1e3 * s for s in samples], units=units, wall_s=sum(samples),
                     ok_units=units - failed - reported, failed=failed,
                     notes={"units": units, "distinct_inputs": len({i["rep"] for i in items}),
                            "estimation_failures": reported, "problems": problems})

    def traced(self, seed: int, seconds: float, workdir, tr: Tracer) -> Traced:
        # one round: the CLI unit and its traced and untraced replays
        rounds = unit_count(seconds, 3.0 * self.nominal_unit_s)
        items = self.inputs(seed, workdir, rounds)
        self.warmup(seed, workdir)()
        stats: dict = defaultdict(float)
        failed, problems, untraced_s = 0, [], 0.0
        for i, item in enumerate(items):
            tr.unit = i
            out = os.path.join(workdir, "out", str(i))
            outputs, replays = [], []

            def cli_unit(item=item, out=out):
                with tr.span("cli.fit"):
                    outputs.extend(self.run_unit(item, seed, out))

            def traced_unit(item=item):
                with tr.span("unit"):
                    try:
                        replays.extend(replay_fit(cfg, item, seed, tr, stats)
                                       for cfg in self.configs)
                    except EstimationError:
                        replays.clear()     # the CLI reports it too

            def untraced_unit(item=item):
                with contextlib.suppress(EstimationError):
                    for cfg in self.configs:
                        replay_fit(cfg, item, seed, OFF, defaultdict(float))

            untraced_s += _rotated(i, cli_unit, traced_unit, untraced_unit)[2]
            unit_problems, _ = self.check_unit(outputs, seed, out)
            for c, (cfg, (ds, op, fit, boot)) in enumerate(zip(self.configs, replays)):
                if not unit_problems:
                    unit_problems += self.check_replay(cfg, fit, boot, os.path.join(out, str(c)))
                for name in fit.names if cfg.get("boot") else ():
                    with tr.span("inference.p_value"):
                        wild_cluster_bootstrap(fit, op, ds, name, null_value=0.0,
                                               B=cfg["boot"], seed=seed)
            failed += bool(unit_problems)
            problems += unit_problems
        tr.unit = None
        mills_probe(items[0]["n_selected"], seed, tr)
        layers = layer_values(tr, stats, rounds, untraced_s)
        return Traced(layers=layers, units=rounds, failed=failed,
                      notes={"rounds": rounds, "problems": problems})

    @staticmethod
    def check_replay(cfg, fit, boot, out) -> list[str]:
        """The replay reproduces the CLI's coefficient file exactly."""
        _, rows = read_coefficients(os.path.join(out, "fit_coefficients.csv"))
        problems = []
        for i, name in enumerate(fit.names):
            want = [fit.theta[i]]
            got = [float(rows[name]["estimate"])]
            if name in boot:
                b = boot[name]
                want += [b.p_value, b.ci_low, b.ci_high]
                got += [float(rows[name][k]) for k in ("p_boot", "ci_low", "ci_high")]
            if want != got:
                problems.append(f"{cfg['rule']}/{cfg['op']}: replay {name} {want} != cli {got}")
        return problems


class BootCi(CliWorkload):
    name = "boot_ci"
    cell = (100, 8, 10)                  # N = 8000, ~4.3k differenced rows, 100 clusters
    configs = ({"rule": "sublocation", "op": "fixed-effect", "boot": 999},)
    nominal_unit_s = 2.5


class GraphFit(CliWorkload):
    name = "graph_fit"
    cell = (100, 10, 20)                 # N = 20000 with coordinates
    graph_inputs = True
    # a unit is one fit of each kind, so its time is not bimodal
    configs = ({"rule": "edges", "op": "pairwise"},
               {"rule": "distance", "op": "kernel", "d": 2.0, "bandwidth": 1.0})
    nominal_unit_s = 0.8
    distinct_inputs = 6                  # each input CSV takes ~0.4 s to write


# ---------------------------------------------------------------------------
# large_fit
# ---------------------------------------------------------------------------


def check_operator(op) -> list[str]:
    worst = float(np.abs(np.asarray(op.matrix.sum(axis=1))).max()) if op.rows else 0.0
    return [] if worst <= ROW_SUM_TOL else [f"{op.kind}: operator row sum {worst}"]


def check_fit(label: str, fit) -> list[str]:
    dw, dy = fit.design_diff, fit.outcome_diff
    residual = dw.T @ (dy - dw @ fit.theta)
    scale = float(np.abs(dw.T @ dy).max())
    problems = []
    if not float(np.abs(residual).max()) <= NORMAL_EQ_TOL * scale:
        problems.append(f"{label}: normal equations off by {np.abs(residual).max()} of {scale}")
    v = fit.v_twostep
    if not np.array_equal(v, v.T) or (np.diag(v) < 0).any():
        problems.append(f"{label}: v_twostep not symmetric with non-negative diagonal")
    return problems


class LargeFit:
    """Library fit of one N = 1e5 dataset under both membership rules."""

    name = "large_fit"
    cell = (250, 20, 20)
    nominal_unit_s = 1.1

    def unit(self, ds, tr: Tracer = OFF, stats=None):
        """The fits of one dataset; None when the program reports an
        estimation failure."""
        stats = defaultdict(float) if stats is None else stats
        probit = _probit(ds, ProbitSpec(), tr, stats)
        if probit is None:
            return None
        try:
            return self._fits(ds, probit, tr, stats)
        except EstimationError:
            return None

    def _fits(self, ds, probit, tr: Tracer, stats):
        with tr.span("estimator.heckman"):
            heckman = heckman_classic(ds, probit_fit=probit)
        sel = ds.selected_indices()
        fits = []
        for rule in ("location", "sublocation"):
            graph = _graph(ds, rule, tr)
            op = _operator(fixed_effect_operator, "fixed_effect", rule, tr, stats, graph, sel)
            fits.append((rule, op, _two_step(ds, op, probit, rule, tr)))
        return heckman, fits

    @staticmethod
    def check(result) -> list[str]:
        heckman, fits = result
        problems = check_fit("heckman", heckman)
        for rule, op, fit in fits:
            problems += check_operator(op) + check_fit(rule, fit)
        return problems

    def datasets(self, seed: int, units: int):
        return [inputs.dataset(*self.cell, seed, rep) for rep in range(1, units + 1)]

    def warmup(self, seed: int, workdir):
        ds = inputs.dataset(*self.cell, seed, 0)
        return lambda: self.unit(ds)

    def timed(self, seed: int, seconds: float, workdir) -> Timed:
        units = unit_count(seconds, self.nominal_unit_s)
        samples, failed, reported, problems = [], 0, 0, []
        for ds in self.datasets(seed, units):
            start = time.perf_counter()
            result = self.unit(ds)
            samples.append(time.perf_counter() - start)
            if result is None:
                reported += 1
                continue
            unit_problems = self.check(result)
            result = None
            failed += bool(unit_problems)
            problems += unit_problems
        return Timed(samples_ms=[1e3 * s for s in samples], units=units, wall_s=sum(samples),
                     ok_units=units - failed - reported, failed=failed,
                     notes={"units": units, "estimation_failures": reported,
                            "problems": problems})

    def traced(self, seed: int, seconds: float, workdir, tr: Tracer) -> Traced:
        units = unit_count(seconds, 2.0 * self.nominal_unit_s)
        data = self.datasets(seed, units)
        self.warmup(seed, workdir)()
        stats: dict = defaultdict(float)
        failed, problems, untraced_s = 0, [], 0.0
        for i, ds in enumerate(data):
            tr.unit = i
            unit_problems = []

            def traced_unit(ds=ds):
                with tr.span("unit"):
                    result = self.unit(ds, tr, stats)
                if result is not None:
                    unit_problems.extend(self.check(result))

            untraced_s += _rotated(i, traced_unit, lambda ds=ds: self.unit(ds))[1]
            failed += bool(unit_problems)
            problems += unit_problems
        tr.unit = None
        mills_probe(data[0].n_selected, seed, tr)
        return Traced(layers=layer_values(tr, stats, units, untraced_s), units=units,
                      failed=failed, notes={"units": units, "problems": problems})


WORKLOADS = {w.name: w for w in (McGrid(), BootCi(), LargeFit(), GraphFit())}
