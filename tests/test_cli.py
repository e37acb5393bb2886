import numpy as np
import pytest

from spatsel import cli, estimator
from spatsel.cli import main
from spatsel.dataset import ClusteredDataset, write_csv
from spatsel.probit import fit_probit

from conftest import make_dataset


@pytest.fixture
def data_csv(tmp_path):
    ds = make_dataset(n_locations=6, n_sublocations=2, n_per_sub=5, p=2, seed=21)
    path = tmp_path / "data.csv"
    write_csv(ds, path)
    return path


def municipality_fixture(tmp_path, n_obs=403, n_locations=19, seed=4):
    """Synthetic dataset shaped like the empirical application: 403
    observations across 19 locations with adjacency-defined neighbors."""
    rng = np.random.default_rng(seed)
    base = n_obs // n_locations
    sizes = np.full(n_locations, base)
    sizes[: n_obs - base * n_locations] += 1
    loc = np.repeat(np.arange(1, n_locations + 1), sizes)
    sub = np.concatenate([np.arange(1, s + 1) for s in sizes])  # one per obs
    x = rng.standard_normal((n_obs, 2))
    z = np.column_stack([x[:, 0], rng.random(n_obs)])
    e1 = rng.standard_normal(n_obs)
    selected = 0.3 * z[:, 1] + 0.1 * z[:, 0] + e1 > 0
    y = x @ [1.0, -0.5] + 0.7 * e1 + rng.standard_normal(n_obs)
    outcome = np.where(selected, y, np.nan)
    ds = ClusteredDataset(
        obs_ids=np.arange(n_obs), location_ids=loc, sublocation_ids=sub,
        selected=selected, outcome=outcome, x=x, z=z,
    )
    data_path = tmp_path / "muni.csv"
    write_csv(ds, data_path)
    adj_path = tmp_path / "muni_adj.csv"
    with open(adj_path, "w", encoding="utf-8") as fh:
        start = 0
        for s in sizes:
            for k in range(start, start + s - 1):
                fh.write(f"{k},{k + 1}\n{k + 1},{k}\n")
            start += s
    return data_path, adj_path


def test_fit_fixed_effect_sublocation(data_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["fit", "--input", str(data_csv), "--op", "fixed-effect",
                 "--rule", "sublocation", "--out", str(out)])
    assert code == 0
    csv_text = (out / "fit_coefficients.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "name,estimate,se,t"
    assert len(lines) == 1 + 3  # x1, x2, mills
    report = (out / "fit_report.txt").read_text()
    assert "operator_rows" in report and "mills" in report


def test_fit_distance_zero_rejected(data_csv, tmp_path, capsys):
    code = main(["fit", "--input", str(data_csv), "--op", "pairwise",
                 "--rule", "distance", "--d", "0", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--d" in err


def test_fit_missing_input(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "absent.csv")])
    assert code == 2


def test_fit_estimation_failure_exit_3(tmp_path, capsys):
    # x2 constant within every sublocation: collinear after differencing
    ds = make_dataset(n_locations=4, n_sublocations=2, n_per_sub=4, p=2, seed=3)
    x = ds.x.copy()
    x[:, 1] = ds.sublocation_codes.astype(float)
    bad = ClusteredDataset(
        obs_ids=ds.obs_ids, location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=ds.selected,
        outcome=ds.outcome, x=x, z=ds.z,
    )
    path = tmp_path / "bad.csv"
    write_csv(bad, path)
    code = main(["fit", "--input", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "collinear" in capsys.readouterr().err


def test_fit_internal_error_exit_4(data_csv, tmp_path, monkeypatch, capsys):
    # an unexpected exception is a fault in the program, not an estimation failure
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_second_step", broken)
    code = main(["fit", "--input", str(data_csv), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_INTERNAL == 4
    assert "internal error: RuntimeError: boom" in capsys.readouterr().err


def test_fit_bootstrap_deterministic(data_csv, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code = main(["fit", "--input", str(data_csv), "--boot", "199",
                     "--seed", "42", "--out", str(out)])
        assert code == 0
    assert (out1 / "fit_coefficients.csv").read_bytes() == \
        (out2 / "fit_coefficients.csv").read_bytes()
    assert (out1 / "fit_report.txt").read_bytes() == \
        (out2 / "fit_report.txt").read_bytes()
    header = (out1 / "fit_coefficients.csv").read_text().splitlines()[0]
    assert header == "name,estimate,se,t,p_boot,ci_low,ci_high,B,seed"


def test_fit_calls_share_no_state(data_csv, tmp_path):
    # the parser is built once per process; a second call must not see the first's flags
    for out, boot in ((tmp_path / "boot", ["--boot", "99"]), (tmp_path / "plain", [])):
        assert main(["fit", "--input", str(data_csv), *boot, "--out", str(out)]) == 0
    assert cli._build_parser() is cli._build_parser()
    assert "p_boot" in (tmp_path / "boot" / "fit_coefficients.csv").read_text()
    header = (tmp_path / "plain" / "fit_coefficients.csv").read_text().splitlines()[0]
    assert header == "name,estimate,se,t"


@pytest.mark.parametrize("boot", ["0", "50", "-1"])
def test_fit_boot_below_99_rejected(data_csv, tmp_path, capsys, boot):
    out = tmp_path / "o"
    code = main(["fit", "--input", str(data_csv), "--boot", boot, "--out", str(out)])
    assert code == 2
    assert "B must be at least 99" in capsys.readouterr().err
    assert not (out / "fit_coefficients.csv").exists()


def test_fit_boot_checked_before_load(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "missing.csv"), "--boot", "50",
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "B must be at least 99" in capsys.readouterr().err


def test_fit_location_bootstrap_never_builds_operator_matrix(data_csv, tmp_path, monkeypatch):
    ops = []

    def recording(*args, **kwargs):
        ops.append(cli_fixed_effect(*args, **kwargs))
        return ops[-1]

    cli_fixed_effect = cli.fixed_effect_operator
    monkeypatch.setattr(cli, "fixed_effect_operator", recording)
    code = main(["fit", "--input", str(data_csv), "--rule", "location",
                 "--boot", "99", "--out", str(tmp_path / "o")])
    assert code == 0
    assert len(ops) == 1 and "matrix" not in vars(ops[0])


def test_fit_kernel_plugin(data_csv, tmp_path):
    code = main(["fit", "--input", str(data_csv), "--op", "kernel",
                 "--bandwidth", "2.0", "--kernel", "gaussian",
                 "--out", str(tmp_path / "k")])
    assert code == 0


@pytest.fixture
def probit_calls(monkeypatch):
    """Count every first-stage fit the CLI runs, directly or through the estimator."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_probit(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_probit", counting)
    monkeypatch.setattr(estimator, "fit_probit", counting)
    return calls


@pytest.mark.parametrize("command", ["fit", "dump-operator"])
def test_kernel_path_fits_probit_once(data_csv, tmp_path, probit_calls, command):
    code = main([command, "--input", str(data_csv), "--op", "kernel",
                 "--bandwidth", "2.0", "--out", str(tmp_path / "k")])
    assert code == 0
    assert len(probit_calls) == 1


def test_kernel_fit_builds_one_first_stage(data_csv, tmp_path, monkeypatch):
    # the pilot and the final fit share one selected-row design and Mills ratio
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return first_stage(*args, **kwargs)

    first_stage = estimator._first_stage
    monkeypatch.setattr(estimator, "_first_stage", counting)
    monkeypatch.setattr(cli, "_first_stage", counting, raising=False)
    code = main(["fit", "--input", str(data_csv), "--op", "kernel",
                 "--bandwidth", "2.0", "--out", str(tmp_path / "k")])
    assert code == 0
    assert len(calls) == 1


def test_fit_kernel_requires_bandwidth(data_csv, tmp_path, capsys):
    code = main(["fit", "--input", str(data_csv), "--op", "kernel",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--bandwidth" in capsys.readouterr().err


def test_kernel_bandwidth_checked_before_estimation(data_csv, tmp_path, probit_calls):
    for command in ("fit", "dump-operator"):
        code = main([command, "--input", str(data_csv), "--op", "kernel",
                     "--bandwidth", "0", "--out", str(tmp_path)])
        assert code == 2
    assert probit_calls == []


def test_fit_coord_cols_needs_two_names(data_csv, tmp_path, capsys):
    code = main(["fit", "--input", str(data_csv), "--coord-cols", "x1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--coord-cols needs two column names" in capsys.readouterr().err


def test_fit_edges_requires_adjacency(data_csv, tmp_path, capsys):
    code = main(["fit", "--input", str(data_csv), "--rule", "edges",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "--adjacency" in capsys.readouterr().err


def test_municipality_shape_fit_with_bootstrap(tmp_path):
    data_path, adj_path = municipality_fixture(tmp_path)
    out = tmp_path / "muni_out"
    code = main(["fit", "--input", str(data_path), "--adjacency", str(adj_path),
                 "--rule", "edges", "--op", "fixed-effect",
                 "--boot", "199", "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = (out / "fit_coefficients.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + x1, x2, mills
    report = (out / "fit_report.txt").read_text()
    assert "n_selected" in report


def test_dump_operator(data_csv, tmp_path):
    out = tmp_path / "dump"
    code = main(["dump-operator", "--input", str(data_csv),
                 "--op", "pairwise", "--out", str(out)])
    assert code == 0
    lines = (out / "operator.csv").read_text().strip().splitlines()
    assert lines[0] == "row,col,weight"
    assert len(lines) > 1


def test_simulate_smoke(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("J_list = 4\ns_list = 2\nn_list = 3\nreps = 8\nseed = 1\n",
                   encoding="utf-8")
    out = tmp_path / "sim"
    code = main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--threads", "1"])
    assert code == 0
    assert (out / "table_J4.csv").exists()
    assert (out / "tables_report.txt").exists()
    assert "cell J=4" in capsys.readouterr().out


def test_simulate_flag_overrides(tmp_path, capsys):
    out = tmp_path / "sim_flags"
    code = main(["simulate", "--J-list", "4", "--s-list", "2", "--n-list", "3",
                 "--reps", "6", "--seed", "2", "--out", str(out), "--threads", "1"])
    assert code == 0
    assert (out / "table_J4.csv").exists()
    assert "6 replications" in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_threads_below_one_rejected(tmp_path, capsys, threads):
    code = main(["simulate", "--J-list", "4", "--s-list", "2", "--n-list", "3",
                 "--reps", "2", "--threads", threads, "--out", str(tmp_path / "sim")])
    assert code == 2
    assert "threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "sim" / "table_J4.csv").exists()


def test_simulate_bad_list_flag(tmp_path, capsys):
    code = main(["simulate", "--J-list", "4,x", "--out", str(tmp_path)])
    assert code == 2
    assert "integer list" in capsys.readouterr().err


def test_simulate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("J_list = 4\nbogus_key = 1\n", encoding="utf-8")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["J_list = 20, x", "rho = abc", "reps = 1.5"])
def test_simulate_malformed_config_value(tmp_path, capsys, line):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"s_list = 2\n{line}\n", encoding="utf-8")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    key = line.split("=")[0].strip()
    assert f"{cfg}:2: {key}: " in capsys.readouterr().err


def test_simulate_reproducible(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("J_list = 4\ns_list = 2\nn_list = 3\nreps = 8\nseed = 3\n",
                   encoding="utf-8")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(a), "--threads", "2"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b), "--threads", "1"]) == 0
    assert (a / "table_J4.csv").read_bytes() == (b / "table_J4.csv").read_bytes()


def test_schema_remap_flags(tmp_path):
    ds = make_dataset(n_locations=4, n_sublocations=2, n_per_sub=4, seed=30)
    path = tmp_path / "renamed.csv"
    write_csv(ds, path)
    text = path.read_text().replace(
        "obs_id,location,sublocation,selected,y2,x1,z1",
        "id,region,muni,sel,tax,pop,age",
    )
    path.write_text(text)
    code = main(["fit", "--input", str(path), "--col-id", "id",
                 "--col-location", "region", "--col-sublocation", "muni",
                 "--col-selected", "sel", "--col-outcome", "tax",
                 "--x-cols", "pop", "--z-cols", "age",
                 "--out", str(tmp_path / "o")])
    assert code == 0


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--input", "--adjacency", "--op", "--rule", "--d",
                 "--bandwidth", "--kernel", "--probit-dummies", "--boot",
                 "--seed", "--out"):
        assert flag in out
