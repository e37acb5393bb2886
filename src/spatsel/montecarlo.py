"""Simulation harness: data generation, per-cell replication, table output.

The generating process has J locations, s sub-locations per location and n
individuals per sub-location. With location index j in 1..J and
sub-location index a in 1..s, the latent equations are

    y1* = z * beta  + ts * j * a + tl * j + e1        (selection)
    y2* = x * delta + gs * j * a + gl * j + e2        (outcome)

with x ~ N(0,1), z ~ U(0,1), e1 ~ N(0,1), e2 = rho * e1 + v, v ~ N(0,1).
Defaults: delta = 1, beta = 0.2, rho = 0.7, outcome effect scales
gs = 5, gl = 10, selection effect scales ts = tl = 1e-5. An observation is
selected when y1* > 0 and its outcome is recorded only then.

`run_cell` fits three estimators per replication: the no-differencing
baseline, fixed-effect differencing against the whole location, and
fixed-effect differencing against the sub-location. It reports mean bias
and 95% coverage of the x coefficient using each estimator's own
standard errors, plus empirical-sd / mean-se diagnostics. For the
sub-location estimator it also records the x standard error under the
`"residual"` variance middle, computed from the same fit; the tables
report only the default (`"mills"`) standard error. Failed replications
are tallied and excluded from the averages, never silently dropped.
Everything is deterministic given (seed, cell, replication).

`run_tables` sends the whole grid through one pool of worker processes:
every cell's replications are split into chunks, all chunks are queued at
once, and each cell is summarised when its last chunk is back. So workers
never idle at the end of a cell, and the tables do not depend on the
number of workers or on scheduling. `run_cell` is the same runner on one
cell. A cell's `elapsed_seconds` is the worker time its replications took,
summed, not the wall time between its start and end.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from .dataset import ClusteredDataset, build_neighborhoods
from .differencing import fixed_effect_operator
from .estimator import _first_stage, _second_step, variance_two_step
from .exceptions import EstimationError, ValidationError
from .probit import ProbitSpec, fit_probit

NO_DIFFERENCING = "No-differencing"
LOCATION_DIFFERENCING = "Location Differencing"
SUBLOCATION_DIFFERENCING = "Sub-location Differencing"
ESTIMATOR_NAMES = (NO_DIFFERENCING, LOCATION_DIFFERENCING, SUBLOCATION_DIFFERENCING)

Z_CRIT_95 = 1.96


@dataclass(frozen=True)
class SimCell:
    """One simulation configuration."""

    J: int
    s: int
    n: int
    rho: float = 0.7
    delta: float = 1.0
    beta: float = 0.2
    replications: int = 1000
    seed: int = 0
    gamma_location: float = 10.0
    gamma_sublocation: float = 5.0
    theta_location: float = 1e-5
    theta_sublocation: float = 1e-5
    probit_dummies: bool = False

    def __post_init__(self) -> None:
        if self.J < 2 or self.s < 1 or self.n < 1:
            raise ValidationError("cell requires J >= 2, s >= 1, n >= 1")
        if self.replications < 1:
            raise ValidationError("replications must be positive")

    @property
    def n_obs(self) -> int:
        return self.J * self.s * self.n


@dataclass
class EstimatorSummary:
    """Replication summary for one estimator within a cell.

    `estimates` and `standard_errors` hold the successful replications in
    order. `residual_standard_errors` is set for the sub-location
    estimator only: the x standard error of the same fits under the
    `"residual"` variance middle, over the same replications.
    """

    name: str
    mean_bias: float
    coverage: float
    empirical_sd: float
    mean_se: float
    failures: int
    estimates: np.ndarray = field(repr=False)
    standard_errors: np.ndarray = field(repr=False)
    residual_standard_errors: np.ndarray | None = field(default=None, repr=False)


@dataclass
class SimResult:
    """All estimator summaries for one cell.

    `elapsed_seconds` is the worker time the cell's replications took,
    summed over workers.
    """

    cell: SimCell
    estimators: dict[str, EstimatorSummary]
    elapsed_seconds: float = 0.0


def rep_seed(cell: SimCell, rep: int) -> int:
    """Integer seed for one replication, derived from (seed, cell, rep)."""
    ss = np.random.SeedSequence([int(cell.seed) & (2**64 - 1),
                                 cell.J, cell.s, cell.n, int(rep)])
    return int.from_bytes(ss.generate_state(4, np.uint32).tobytes(), "little")


def generate_sample(cell: SimCell, rep_seed_value: int) -> ClusteredDataset:
    """Draw one dataset from the cell's generating process.

    Deterministic given `rep_seed_value`; draws are taken in the fixed
    order x, z, e1, v.
    """
    rng = np.random.default_rng(rep_seed_value)
    n_obs = cell.n_obs
    j_idx = np.repeat(np.arange(1, cell.J + 1), cell.s * cell.n)
    a_idx = np.tile(np.repeat(np.arange(1, cell.s + 1), cell.n), cell.J)

    x = rng.standard_normal(n_obs)
    z = rng.random(n_obs)
    e1 = rng.standard_normal(n_obs)
    v = rng.standard_normal(n_obs)
    e2 = cell.rho * e1 + v

    theta_eff = cell.theta_sublocation * j_idx * a_idx + cell.theta_location * j_idx
    gamma_eff = cell.gamma_sublocation * j_idx * a_idx + cell.gamma_location * j_idx

    y1_latent = z * cell.beta + theta_eff + e1
    y2_latent = x * cell.delta + gamma_eff + e2
    selected = y1_latent > 0
    outcome = np.where(selected, y2_latent, np.nan)

    return ClusteredDataset(
        obs_ids=np.arange(n_obs),
        location_ids=j_idx,
        sublocation_ids=a_idx,
        selected=selected,
        outcome=outcome,
        x=x[:, None],
        z=z[:, None],
    )


def _replicate(cell: SimCell, rep: int) -> np.ndarray:
    """One replication: (3 estimators) x (estimate, se, residual-middle se).

    NaN marks a failure; the residual-middle se is filled for the
    sub-location slot only.
    """
    out = np.full((3, 3), np.nan)
    ds = generate_sample(cell, rep_seed(cell, rep))
    spec = ProbitSpec(include_location_dummies=cell.probit_dummies,
                      include_intercept=True)
    try:
        first = _first_stage(ds, fit_probit(ds, spec))
    except EstimationError:
        return out

    x_name = ds.x_names[0]
    try:
        fit = _second_step(ds, None, first, "classic")
        i = fit.names.index(x_name)
        out[0, :2] = fit.theta[i], fit.se()[i]
    except EstimationError:
        pass
    for slot, rule in ((1, "location"), (2, "sublocation")):
        try:
            graph = build_neighborhoods(ds, rule)
            op = fixed_effect_operator(graph, first.rows)
            fit = _second_step(ds, op, first, "mills")
            i = fit.names.index(x_name)
            out[slot, :2] = fit.theta[i], fit.se()[i]
            if rule == "sublocation":
                v = variance_two_step(fit, op, variant="residual")
                out[slot, 2] = np.sqrt(max(v[i, i], 0.0))
        except EstimationError:
            pass
    return out


def _replicate_chunk(cell: SimCell, rep_indices: Sequence[int]) -> tuple[np.ndarray, float]:
    """Replications `rep_indices` of one cell and the seconds they took."""
    start = time.perf_counter()
    out = np.stack([_replicate(cell, r) for r in rep_indices])
    return out, time.perf_counter() - start


def _summarise(cell: SimCell, results: np.ndarray, seconds: float) -> SimResult:
    """Per-estimator summaries of a cell's (reps, 3, 3) replication array."""
    reps = cell.replications
    estimators = {}
    for slot, name in enumerate(ESTIMATOR_NAMES):
        est = results[:, slot, 0]
        se = results[:, slot, 1]
        ok = np.isfinite(est) & np.isfinite(se)
        n_ok = int(ok.sum())
        if n_ok:
            bias = float(est[ok].mean() - cell.delta)
            covered = np.abs(est[ok] - cell.delta) <= Z_CRIT_95 * se[ok]
            coverage = float(100.0 * covered.mean())
            emp_sd = float(est[ok].std(ddof=1)) if n_ok > 1 else float("nan")
            mean_se = float(se[ok].mean())
        else:
            bias = coverage = emp_sd = mean_se = float("nan")
        estimators[name] = EstimatorSummary(
            name=name, mean_bias=bias, coverage=coverage,
            empirical_sd=emp_sd, mean_se=mean_se,
            failures=reps - n_ok, estimates=est[ok], standard_errors=se[ok],
            residual_standard_errors=(results[:, slot, 2][ok]
                                      if name == SUBLOCATION_DIFFERENCING else None),
        )
    return SimResult(cell=cell, estimators=estimators, elapsed_seconds=seconds)


def _run_cells(cells: list[SimCell], *, threads: int | None = None) -> Iterator[SimResult]:
    """Run every replication of every cell through one worker pool.

    Yields one SimResult per cell, in cell order, as soon as all of that
    cell's chunks are back; the chunks of every cell are queued up front.
    """
    if threads is None:
        threads = os.cpu_count() or 1
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    threads = min(threads, sum(c.replications for c in cells))
    if threads == 1:
        for cell in cells:
            yield _summarise(cell, *_replicate_chunk(cell, range(cell.replications)))
        return

    ctx = get_context("fork")
    with ProcessPoolExecutor(max_workers=threads, mp_context=ctx) as pool:
        try:
            jobs = [[(chunk, pool.submit(_replicate_chunk, cell, chunk.tolist()))
                     for chunk in np.array_split(np.arange(cell.replications), threads * 4)
                     if len(chunk)]
                    for cell in cells]
            for cell, cell_jobs in zip(cells, jobs):
                results = np.full((cell.replications, 3, 3), np.nan)
                seconds = 0.0
                for chunk, fut in cell_jobs:
                    results[chunk], chunk_seconds = fut.result()
                    seconds += chunk_seconds
                yield _summarise(cell, results, seconds)
        except BaseException:
            # an error, or a caller that stops early: drop the queued chunks
            pool.shutdown(cancel_futures=True)
            raise


def run_cell(cell: SimCell, *, threads: int | None = None) -> SimResult:
    """Run every replication of a cell and summarise the three estimators."""
    [result] = _run_cells([cell], threads=threads)
    return result


# ---------------------------------------------------------------------------
# grids, tables, config files
# ---------------------------------------------------------------------------

DEFAULT_J = (20, 30, 100)
DEFAULT_S = (2, 4, 8)
DEFAULT_N = (3, 5, 8, 10)


def parse_int_list(raw: str) -> tuple[int, ...]:
    """Integers separated by commas and/or spaces, such as "20, 30 100"."""
    try:
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("0", "1", "true", "false"):
        raise ValueError(f"expected 0, 1, true or false, got {raw!r}")
    return raw.lower() in ("1", "true")


@dataclass
class GridConfig:
    """Flat key-value configuration of a simulation grid."""

    J_list: tuple[int, ...] = DEFAULT_J
    s_list: tuple[int, ...] = DEFAULT_S
    n_list: tuple[int, ...] = DEFAULT_N
    rho: float = 0.7
    delta: float = 1.0
    beta: float = 0.2
    reps: int = 1000
    seed: int = 0
    probit_dummies: bool = False

    # how a config file's value is read, per key
    PARSERS = {"J_list": parse_int_list, "s_list": parse_int_list, "n_list": parse_int_list,
               "rho": float, "delta": float, "beta": float, "reps": int, "seed": int,
               "probit_dummies": _parse_bool}

    @classmethod
    def from_file(cls, path) -> "GridConfig":
        values: dict = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                if "=" not in text:
                    raise ValidationError(f"{path}:{lineno}: expected key = value")
                key, _, raw = text.partition("=")
                key, raw = key.strip(), raw.strip()
                if key not in cls.PARSERS:
                    raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = cls.PARSERS[key](raw)
                except (ValueError, ValidationError) as exc:
                    raise ValidationError(f"{path}:{lineno}: {key}: {exc}") from None
        cfg = cls(**values)
        if not (cfg.J_list and cfg.s_list and cfg.n_list):
            raise ValidationError(f"{path}: J_list, s_list, n_list must be non-empty")
        if cfg.reps < 1:
            raise ValidationError(f"{path}: reps must be positive")
        return cfg

    def cells(self) -> list[SimCell]:
        return [
            SimCell(J=j, s=s, n=n, rho=self.rho, delta=self.delta,
                    beta=self.beta, replications=self.reps, seed=self.seed,
                    probit_dummies=self.probit_dummies)
            for j in self.J_list for s in self.s_list for n in self.n_list
        ]


def run_tables(cells: list[SimCell], *, threads: int | None = None,
               out_dir=None, progress=None) -> list[SimResult]:
    """Run a grid of cells; optionally write per-J CSVs and a text report.

    Output files are `table_J{J}.csv` for each J present plus
    `tables_report.txt`, written under `out_dir`.
    """
    if not cells:
        raise ValidationError("grid is empty")
    results = []
    for res in _run_cells(cells, threads=threads):
        cell = res.cell
        results.append(res)
        if progress is not None:
            progress(
                f"cell J={cell.J} s={cell.s} n={cell.n}: "
                f"{cell.replications} replications in {res.elapsed_seconds:.1f}s"
            )
    if out_dir is not None:
        write_tables(results, out_dir)
    return results


def _csv_value(v: float) -> str:
    return repr(float(v))


def write_tables(results: list[SimResult], out_dir) -> list[str]:
    """Write table_J{J}.csv per location count plus a combined text report."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    js = sorted({r.cell.J for r in results})
    for j in js:
        path = os.path.join(out_dir, f"table_J{j}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("J,s,n,estimator,mean_bias,coverage,empirical_sd,"
                     "mean_se,failures,replications\n")
            for res in results:
                if res.cell.J != j:
                    continue
                for name in ESTIMATOR_NAMES:
                    su = res.estimators[name]
                    fh.write(",".join([
                        str(res.cell.J), str(res.cell.s), str(res.cell.n),
                        f'"{name}"', _csv_value(su.mean_bias),
                        _csv_value(su.coverage), _csv_value(su.empirical_sd),
                        _csv_value(su.mean_se), str(su.failures),
                        str(res.cell.replications),
                    ]) + "\n")
        written.append(path)
    report = os.path.join(out_dir, "tables_report.txt")
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(format_tables(results))
    written.append(report)
    return written


def format_tables(results: list[SimResult]) -> str:
    """Aligned text rendering, one block per location count."""
    lines = []
    js = sorted({r.cell.J for r in results})
    for j in js:
        lines.append(f"Simulation results with {j} locations")
        lines.append(f"{'s':>3} {'n':>3}  {'estimator':<28}{'mean bias':>12}"
                     f"{'coverage':>10}{'emp sd':>12}{'mean se':>12}{'fail':>6}")
        for res in results:
            if res.cell.J != j:
                continue
            for name in ESTIMATOR_NAMES:
                su = res.estimators[name]
                lines.append(
                    f"{res.cell.s:>3} {res.cell.n:>3}  {name:<28}"
                    f"{su.mean_bias:>12.6g}{su.coverage:>10.6g}"
                    f"{su.empirical_sd:>12.6g}{su.mean_se:>12.6g}"
                    f"{su.failures:>6d}"
                )
        lines.append("")
    return "\n".join(lines)
