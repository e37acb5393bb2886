"""Command-line front end.

Subcommands:

fit            load a dataset, build an operator, run the two-step fit,
               optionally bootstrap every coefficient, write reports
simulate       run a simulation grid from a config file, write tables
dump-operator  write an operator as a row,col,weight CSV

Exit codes: 0 success, 2 validation/configuration error, 3 estimation
failure, 4 internal error (an unexpected exception, a fault in the
program rather than in the data). All outputs are reproducible byte for
byte given the same inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .dataset import CsvSchema, build_neighborhoods, load_adjacency, load_csv
from .differencing import KERNELS, fixed_effect_operator, kernel_operator, pairwise_operator
from .estimator import _first_stage, _second_step, report_text, write_coefficients_csv
from .exceptions import EstimationError, ValidationError
from .inference import ALPHA, MIN_REPLICATIONS, wild_cluster_bootstrap
from .montecarlo import GridConfig, parse_int_list, run_tables
from .probit import ProbitSpec, fit_probit

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3
EXIT_INTERNAL = 4


@functools.cache   # built once per process; each parse_args gives a new Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatsel",
        description="Two-step sample-selection estimation with spatial differencing.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_data_flags(p):
        p.add_argument("--input", required=True, help="dataset CSV path")
        p.add_argument("--adjacency", help="two-column obs_id pair CSV (rule 'edges')")
        p.add_argument("--rule", choices=["sublocation", "location", "edges", "distance"],
                       default="sublocation", help="neighborhood rule")
        p.add_argument("--d", type=float, help="distance threshold for rule 'distance'")
        p.add_argument("--op", choices=["pairwise", "fixed-effect", "kernel"],
                       default="fixed-effect", help="difference operator kind")
        p.add_argument("--bandwidth", type=float, help="kernel bandwidth")
        p.add_argument("--kernel", choices=list(KERNELS), default="epanechnikov",
                       help="kernel shape for --op kernel")
        p.add_argument("--col-id", default="obs_id", help="obs id column name")
        p.add_argument("--col-location", default="location", help="location column name")
        p.add_argument("--col-sublocation", default="sublocation", help="sublocation column name")
        p.add_argument("--col-selected", default="selected", help="selection column name")
        p.add_argument("--col-outcome", default="y2", help="outcome column name")
        p.add_argument("--x-cols", help="comma-separated outcome covariate columns")
        p.add_argument("--z-cols", help="comma-separated selection covariate columns")
        p.add_argument("--coord-cols", help="comma-separated coordinate columns (2)")

    fit_p = sub.add_parser("fit", help="fit the two-step estimator on a dataset")
    add_data_flags(fit_p)
    fit_p.add_argument("--probit-dummies", action="store_true",
                       help="include location dummies in the first stage")
    fit_p.add_argument("--boot", type=int, metavar="B",
                       help="wild cluster bootstrap replications per coefficient")
    fit_p.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    fit_p.add_argument("--out", default=".", help="output directory")

    sim_p = sub.add_parser("simulate", help="run a simulation grid")
    sim_p.add_argument("--config", help="flat key=value grid config (defaults apply without it)")
    sim_p.add_argument("--J-list", dest="J_list", help="override: location counts, comma separated")
    sim_p.add_argument("--s-list", dest="s_list", help="override: sublocations per location")
    sim_p.add_argument("--n-list", dest="n_list", help="override: individuals per sublocation")
    sim_p.add_argument("--rho", type=float, help="override: selection correlation")
    sim_p.add_argument("--delta", type=float, help="override: outcome coefficient")
    sim_p.add_argument("--beta", type=float, help="override: selection coefficient")
    sim_p.add_argument("--reps", type=int, help="override: replications per cell")
    sim_p.add_argument("--seed", type=int, help="override: master seed")
    sim_p.add_argument("--probit-dummies", dest="probit_dummies",
                       action="store_true", default=None,
                       help="override: location dummies in the first stage")
    sim_p.add_argument("--out", default=".", help="output directory for tables")
    sim_p.add_argument("--threads", type=int, help="worker processes for the whole grid")

    dump_p = sub.add_parser("dump-operator", help="write an operator as row,col,weight CSV")
    add_data_flags(dump_p)
    dump_p.add_argument("--out", default=".", help="output directory")
    dump_p.add_argument("--probit-dummies", action="store_true",
                        help="first-stage dummies for the kernel plug-in index")

    return parser


def _schema_from_args(args) -> CsvSchema:
    coords = args.coord_cols.split(",") if args.coord_cols else [None, None]
    if len(coords) != 2:
        raise ValidationError(f"--coord-cols needs two column names, got {args.coord_cols!r}")
    return CsvSchema(
        obs_id=args.col_id,
        location=args.col_location,
        sublocation=args.col_sublocation,
        selected=args.col_selected,
        outcome=args.col_outcome,
        x_cols=args.x_cols.split(",") if args.x_cols else [],
        z_cols=args.z_cols.split(",") if args.z_cols else [],
        coord_x=coords[0],
        coord_y=coords[1],
    )


def _load_graph(args, ds):
    if args.rule == "edges":
        if not args.adjacency:
            raise ValidationError("--rule edges requires --adjacency")
        edges = load_adjacency(args.adjacency)
        return build_neighborhoods(ds, "edges", edges=edges)
    if args.rule == "distance":
        if args.d is None or args.d <= 0:
            raise ValidationError("--rule distance requires --d > 0")
        return build_neighborhoods(ds, "distance", d=args.d)
    return build_neighborhoods(ds, args.rule)


def _check_bandwidth(args) -> None:
    if args.op == "kernel" and (args.bandwidth is None or args.bandwidth <= 0):
        raise ValidationError("--op kernel requires --bandwidth > 0")


def _fit_first_stage(args, ds):
    """The first stage (probit, selected-row design, Mills ratio) the flags
    ask for, shared by the kernel pilot and the final fit."""
    spec = ProbitSpec(include_location_dummies=args.probit_dummies)
    return _first_stage(ds, fit_probit(ds, spec))


def _build_operator(args, ds, graph, first):
    """The operator the flags ask for; `first` is the first stage, read only
    by --op kernel."""
    sel = ds.selected_indices()
    if args.op == "pairwise":
        return pairwise_operator(graph, sel)
    if args.op == "fixed-effect":
        return fixed_effect_operator(graph, sel)
    # two-pass plug-in: a pilot fixed-effect fit supplies the index x'd + z'b
    pilot = _second_step(ds, fixed_effect_operator(graph, sel), first, "mills")
    index = ds.x[sel] @ pilot.delta + first.z @ first.probit.beta
    return kernel_operator(graph, sel, index, args.bandwidth, args.kernel)


def _cmd_fit(args) -> int:
    _check_bandwidth(args)
    if args.boot is not None and args.boot < MIN_REPLICATIONS:
        raise ValidationError(f"B must be at least {MIN_REPLICATIONS}")
    ds = load_csv(args.input, _schema_from_args(args))
    graph = _load_graph(args, ds)
    first = _fit_first_stage(args, ds)
    op = _build_operator(args, ds, graph, first)
    fit = _second_step(ds, op, first, "mills")

    boot_rows = {}
    if args.boot is not None:
        for name in fit.names:
            res = wild_cluster_bootstrap(fit, op, ds, name, null_value=0.0,
                                         B=args.boot, seed=args.seed,
                                         compute_ci=True)
            boot_rows[name] = res

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "fit_coefficients.csv")
    write_coefficients_csv(fit, csv_path, bootstrap=boot_rows or None)

    extra = {
        "operator_kind": op.kind,
        "operator_rows": op.rows,
        "dropped_anchors": op.dropped_anchors,
        "skipped_cross_location": op.skipped_cross_location,
    }
    report_path = os.path.join(args.out, "fit_report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report_text(fit, extra))
        if boot_rows:
            fh.write("\nwild cluster bootstrap (null = 0; * another kept piece holds the null)\n")
            fh.write(f"{'name':<16}{'p_boot':>10}{'ci_low':>14}{'ci_high':>14}{'pieces':>8}\n")
            for name, b in boot_rows.items():
                mark = "*" * (b.p_value >= ALPHA and not b.ci_low <= 0.0 <= b.ci_high)
                fh.write(f"{name:<16}{b.p_value:>10.4g}{b.ci_low:>14.6g}{b.ci_high:>14.6g}"
                         f"{f'{b.pieces}{mark}':>8}\n")
    print(f"wrote {csv_path}")
    print(f"wrote {report_path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = GridConfig.from_file(args.config) if args.config else GridConfig()
    for key in ("J_list", "s_list", "n_list"):
        raw = getattr(args, key)
        if raw is not None:
            setattr(cfg, key, parse_int_list(raw))
    for key in ("rho", "delta", "beta", "reps", "seed", "probit_dummies"):
        value = getattr(args, key)
        if value is not None:
            setattr(cfg, key, value)
    if cfg.reps < 1:
        raise ValidationError("reps must be positive")
    cells = cfg.cells()
    print(f"running {len(cells)} cells x {cfg.reps} replications")
    run_tables(cells, threads=args.threads, out_dir=args.out, progress=print)
    print(f"wrote tables under {args.out}")
    return EXIT_OK


def _cmd_dump_operator(args) -> int:
    _check_bandwidth(args)
    ds = load_csv(args.input, _schema_from_args(args))
    graph = _load_graph(args, ds)
    first = _fit_first_stage(args, ds) if args.op == "kernel" else None
    op = _build_operator(args, ds, graph, first)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "operator.csv")
    op.dump_csv(path)
    print(f"wrote {path} ({op.rows} rows, {op.dropped_anchors} dropped anchors)")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "fit":
            return _cmd_fit(args)
        if args.subcommand == "simulate":
            return _cmd_simulate(args)
        return _cmd_dump_operator(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except Exception as exc:  # surface anything unexpected without a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
