import numpy as np
import pytest

from spatsel.exceptions import ValidationError
from spatsel.montecarlo import (
    ESTIMATOR_NAMES,
    GridConfig,
    LOCATION_DIFFERENCING,
    NO_DIFFERENCING,
    SUBLOCATION_DIFFERENCING,
    SimCell,
    generate_sample,
    rep_seed,
    run_cell,
    run_tables,
)

# E[Phi(0.2 z)] over z ~ U(0,1), by 60-digit quadrature: 0.539761777309219
SELECTION_RATE_ORACLE = 0.539761777309219


def test_generate_sample_arithmetic():
    cell = SimCell(J=20, s=2, n=3, seed=0)
    ds = generate_sample(cell, rep_seed(cell, 0))
    assert ds.n_obs == 120
    assert len(np.unique(ds.location_codes)) == 20
    assert len(np.unique(ds.sublocation_codes)) == 40
    assert ds.p == 1 and ds.q == 1


def test_selection_fraction_matches_quadrature_oracle():
    assert 0.5 < SELECTION_RATE_ORACLE < 0.6
    cell = SimCell(J=30, s=2, n=5, seed=1)
    fractions = [
        generate_sample(cell, rep_seed(cell, r)).selected.mean()
        for r in range(60)
    ]
    avg = float(np.mean(fractions))
    assert 0.5 < avg < 0.6
    # 60 draws of N=300: binomial-ish noise ~ 0.0029/sqrt(60)*...
    assert avg == pytest.approx(SELECTION_RATE_ORACLE, abs=0.02)


def test_generate_sample_deterministic():
    cell = SimCell(J=5, s=2, n=3, seed=7)
    a = generate_sample(cell, rep_seed(cell, 3))
    b = generate_sample(cell, rep_seed(cell, 3))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.selected, b.selected)
    sel = a.selected
    assert np.array_equal(a.outcome[sel], b.outcome[sel])
    c = generate_sample(cell, rep_seed(cell, 4))
    assert not np.array_equal(a.x, c.x)


def test_effect_formulas_use_ordinal_indexes():
    cell = SimCell(J=3, s=2, n=2, rho=0.0, seed=2)
    ds = generate_sample(cell, rep_seed(cell, 0))
    # outcome effect for location j, sublocation a is 5*j*a + 10*j;
    # recover it from the mean outcome shift of a large-effect variant
    big = SimCell(J=3, s=2, n=2, rho=0.0, gamma_location=1000.0,
                  gamma_sublocation=0.0, theta_location=0.0,
                  theta_sublocation=0.0, seed=2)
    ds_big = generate_sample(big, rep_seed(big, 0))
    sel = ds_big.selected
    for j in (1, 2, 3):
        members = ds_big.location_ids == j
        vals = ds_big.outcome[members]
        vals = vals[np.isfinite(vals)]
        if len(vals):
            assert abs(vals.mean() - 1000.0 * j) < 50.0


def test_switch_off_case_is_null_model():
    cell = SimCell(J=4, s=2, n=3, rho=0.0, gamma_location=0.0,
                   gamma_sublocation=0.0, theta_location=0.0,
                   theta_sublocation=0.0, seed=3)
    ds = generate_sample(cell, rep_seed(cell, 0))
    sel = ds.selected
    resid = ds.outcome[sel] - ds.x[sel, 0]
    # errors are the raw e2 = v: mean zero, unit-ish variance
    assert abs(resid.mean()) < 0.5
    assert 0.5 < resid.std() < 1.6


def test_cell_validation():
    with pytest.raises(ValidationError):
        SimCell(J=1, s=2, n=3)
    with pytest.raises(ValidationError):
        SimCell(J=5, s=2, n=3, replications=0)


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_rejected(threads):
    cell = SimCell(J=4, s=2, n=3, replications=2)
    with pytest.raises(ValidationError, match="threads must be at least 1"):
        run_cell(cell, threads=threads)
    with pytest.raises(ValidationError, match="threads must be at least 1"):
        run_tables([cell], threads=threads)


def test_run_cell_summaries_and_determinism():
    cell = SimCell(J=10, s=2, n=3, replications=40, seed=11)
    a = run_cell(cell, threads=1)
    b = run_cell(cell, threads=2)
    assert set(a.estimators) == set(ESTIMATOR_NAMES)
    for name in ESTIMATOR_NAMES:
        sa, sb = a.estimators[name], b.estimators[name]
        assert sa.mean_bias == sb.mean_bias  # schedule independence, bitwise
        assert sa.coverage == sb.coverage
        assert np.array_equal(sa.estimates, sb.estimates)
        assert sa.failures + len(sa.estimates) == cell.replications
        assert 0.0 <= sa.coverage <= 100.0
    # the residual-middle se is recorded for the sub-location estimator only,
    # over the same replications, and is schedule independent too
    ra = a.estimators[SUBLOCATION_DIFFERENCING].residual_standard_errors
    rb = b.estimators[SUBLOCATION_DIFFERENCING].residual_standard_errors
    assert len(ra) == len(a.estimators[SUBLOCATION_DIFFERENCING].estimates)
    assert np.isfinite(ra).all()
    assert np.array_equal(ra, rb)
    for name in (NO_DIFFERENCING, LOCATION_DIFFERENCING):
        assert a.estimators[name].residual_standard_errors is None


def test_degenerate_null_cell_unbiased():
    # with every effect and the selection correlation switched off, all
    # three estimators are unbiased for delta = 1, and the no-differencing
    # baseline's textbook covariance delivers nominal coverage
    cell = SimCell(J=20, s=2, n=3, rho=0.0, gamma_location=0.0,
                   gamma_sublocation=0.0, theta_location=0.0,
                   theta_sublocation=0.0, replications=300, seed=123)
    res = run_cell(cell, threads=2)
    for name in ESTIMATOR_NAMES:
        su = res.estimators[name]
        assert su.failures <= 3
        noise = 3 * su.empirical_sd / np.sqrt(len(su.estimates))
        assert abs(su.mean_bias) < max(noise, 0.05)
    assert 90.0 <= res.estimators[NO_DIFFERENCING].coverage <= 98.0


def test_degenerate_null_cell_residual_variant_coverage():
    # the empirical-residual variance restores nominal coverage on the
    # null model once J is large; the default "mills" middle rho-hat^2 * d_i
    # scales with the mills coefficient estimate and leaves out Var(v)
    # (see "Tests" in README.md)
    from spatsel.dataset import build_neighborhoods
    from spatsel.differencing import fixed_effect_operator
    from spatsel.estimator import two_step_fit
    from spatsel.probit import fit_probit

    cell = SimCell(J=100, s=2, n=5, rho=0.0, gamma_location=0.0,
                   gamma_sublocation=0.0, theta_location=0.0,
                   theta_sublocation=0.0, replications=300, seed=123)
    hits = []
    for r in range(cell.replications):
        ds = generate_sample(cell, rep_seed(cell, r))
        probit = fit_probit(ds)
        g = build_neighborhoods(ds, "sublocation")
        op = fixed_effect_operator(g, ds.selected_indices())
        fit = two_step_fit(ds, op, probit_fit=probit, variance="residual")
        i = fit.names.index("x1")
        hits.append(abs(fit.theta[i] - 1.0) <= 1.96 * fit.se()[i])
    coverage = 100.0 * float(np.mean(hits))
    assert 92.0 <= coverage <= 98.0


def test_run_tables_single_cell_matches_run_cell():
    cell = SimCell(J=8, s=2, n=3, replications=25, seed=5)
    solo = run_cell(cell, threads=1)
    grid = run_tables([cell], threads=1)
    assert len(grid) == 1
    for name in ESTIMATOR_NAMES:
        assert grid[0].estimators[name].mean_bias == solo.estimators[name].mean_bias
        assert grid[0].estimators[name].coverage == solo.estimators[name].coverage


def test_run_tables_outputs(tmp_path):
    cells = [SimCell(J=J, s=2, n=3, replications=10, seed=5) for J in (4, 6)]
    results = run_tables(cells, threads=1, out_dir=tmp_path)
    assert (tmp_path / "table_J4.csv").exists()
    assert (tmp_path / "table_J6.csv").exists()
    report = (tmp_path / "tables_report.txt").read_text()
    assert "Simulation results with 4 locations" in report
    for name in ESTIMATOR_NAMES:
        assert name in report
    lines = (tmp_path / "table_J4.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3  # header + three estimator rows
    assert lines[0].startswith("J,s,n,estimator,mean_bias")
    assert len(results) == 2


def test_run_tables_reproducible_files(tmp_path):
    # two cells of different J and replication counts share one pool
    cells = [SimCell(J=5, s=2, n=3, replications=12, seed=9),
             SimCell(J=7, s=2, n=4, replications=17, seed=9)]
    pooled = run_tables(cells, threads=2, out_dir=tmp_path / "a")
    serial = run_tables(cells, threads=1, out_dir=tmp_path / "b")
    for name in ("table_J5.csv", "table_J7.csv", "tables_report.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    for a, b in zip(pooled, serial):
        assert a.cell == b.cell
        for name in ESTIMATOR_NAMES:
            su_a, su_b = a.estimators[name], b.estimators[name]
            assert su_a.failures + len(su_a.estimates) == a.cell.replications
            assert np.array_equal(su_a.estimates, su_b.estimates)
            assert np.array_equal(su_a.standard_errors, su_b.standard_errors)
            if name == SUBLOCATION_DIFFERENCING:
                assert np.array_equal(su_a.residual_standard_errors,
                                      su_b.residual_standard_errors)
            else:
                assert su_a.residual_standard_errors is None


def test_grid_config_parsing(tmp_path):
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(
        "# shrunk default grid\n"
        "J_list = 4, 6\n"
        "s_list = 2\n"
        "n_list = 3 5\n"
        "rho = 0.5\n"
        "reps = 7\n"
        "seed = 99\n"
        "probit_dummies = false\n",
        encoding="utf-8",
    )
    cfg = GridConfig.from_file(cfg_path)
    assert cfg.J_list == (4, 6)
    assert cfg.n_list == (3, 5)
    assert cfg.rho == 0.5
    cells = cfg.cells()
    assert len(cells) == 4
    assert all(c.seed == 99 and c.replications == 7 for c in cells)


def test_grid_config_unknown_key(tmp_path):
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text("J_list = 4\nwhat = 3\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="what"):
        GridConfig.from_file(cfg_path)


def test_grid_config_malformed_line(tmp_path):
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text("J_list 4\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="key = value"):
        GridConfig.from_file(cfg_path)


def test_default_grid_shape():
    cfg = GridConfig()
    cells = cfg.cells()
    assert len(cells) == 36
    assert len(cells) * len(ESTIMATOR_NAMES) == 108


def test_probit_dummies_switch_runs():
    # small locations make separation drops likely; the harness must still
    # produce summaries and account for every replication
    cell = SimCell(J=12, s=2, n=3, replications=30, seed=21, probit_dummies=True)
    res = run_cell(cell, threads=1)
    for name in ESTIMATOR_NAMES:
        su = res.estimators[name]
        assert su.failures + len(su.estimates) == cell.replications
    base = run_cell(SimCell(J=12, s=2, n=3, replications=30, seed=21), threads=1)
    sub_a = res.estimators[SUBLOCATION_DIFFERENCING]
    sub_b = base.estimators[SUBLOCATION_DIFFERENCING]
    # the first stage differs, so the estimates must differ too
    n = min(len(sub_a.estimates), len(sub_b.estimates))
    assert n > 10
    assert not np.allclose(sub_a.estimates[:n], sub_b.estimates[:n])


def test_failures_are_counted_not_dropped():
    # J=2, s=1, n=2 is fragile: tiny probits and operators can fail, and
    # when they do the tally must account for every replication
    cell = SimCell(J=2, s=1, n=2, replications=30, seed=17)
    res = run_cell(cell, threads=1)
    for name in ESTIMATOR_NAMES:
        su = res.estimators[name]
        assert su.failures + len(su.estimates) == cell.replications


def _replicate_through_public_fits(cell, rep):
    """`_replicate` as three public fits, each building its own first stage."""
    from spatsel.dataset import build_neighborhoods
    from spatsel.differencing import fixed_effect_operator
    from spatsel.estimator import heckman_classic, two_step_fit, variance_two_step
    from spatsel.probit import ProbitSpec, fit_probit

    out = np.full((3, 3), np.nan)
    ds = generate_sample(cell, rep_seed(cell, rep))
    probit = fit_probit(ds, ProbitSpec(include_location_dummies=cell.probit_dummies))
    assert probit.converged
    fit = heckman_classic(ds, probit_fit=probit)
    i = fit.names.index("x1")
    out[0, :2] = fit.theta[i], fit.se()[i]
    for slot, rule in ((1, "location"), (2, "sublocation")):
        op = fixed_effect_operator(build_neighborhoods(ds, rule), ds.selected_indices())
        fit = two_step_fit(ds, op, probit_fit=probit)
        i = fit.names.index("x1")
        out[slot, :2] = fit.theta[i], fit.se()[i]
    out[2, 2] = np.sqrt(max(variance_two_step(fit, op, "residual")[i, i], 0.0))
    return out


@pytest.mark.parametrize("cell", [SimCell(J=20, s=2, n=3),
                                  SimCell(J=30, s=4, n=5, probit_dummies=True)],
                         ids=["20-2-3", "30-4-5-dummies"])
def test_replicate_matches_public_fits_bitwise(cell):
    from spatsel.montecarlo import _replicate

    for r in range(5):
        np.testing.assert_array_equal(_replicate(cell, r),
                                      _replicate_through_public_fits(cell, r))


def test_replicate_builds_one_first_stage(monkeypatch):
    from spatsel import estimator
    from spatsel.montecarlo import _replicate
    from spatsel.probit import ProbitFit

    calls = {"mills": 0, "design": 0}
    mills, design = estimator.mills_lambda_dee, ProbitFit.design

    def counted_mills(c):
        calls["mills"] += 1
        return mills(c)

    def counted_design(self, ds, rows=None):
        calls["design"] += 1
        return design(self, ds, rows)

    monkeypatch.setattr(estimator, "mills_lambda_dee", counted_mills)
    monkeypatch.setattr(ProbitFit, "design", counted_design)
    out = _replicate(SimCell(J=20, s=2, n=3), 0)
    assert np.isfinite(out[:, :2]).all()
    assert calls == {"mills": 1, "design": 1}
