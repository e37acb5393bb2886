import dataclasses

import numpy as np
import pytest

from spatsel.dataset import ClusteredDataset, build_neighborhoods
from spatsel.differencing import (
    fixed_effect_operator,
    kernel_operator,
    pairwise_operator,
)
from spatsel.estimator import (
    coefficient_table,
    heckman_classic,
    report_text,
    two_step_fit,
    variance_two_step,
)
from spatsel.exceptions import EstimationError
from spatsel.montecarlo import SimCell, generate_sample
from spatsel.probit import fit_probit

from conftest import make_dataset, shuffled
from oracles import dense_heckman, dense_two_step


def fixture_12() -> ClusteredDataset:
    """Deterministic 12-observation dataset: 2 locations x 2 sublocations x 3."""
    rng = np.random.default_rng(1234)
    n = 12
    loc = np.repeat([1, 2], 6)
    sub = np.tile(np.repeat([1, 2], 3), 2)
    x = rng.standard_normal((n, 2))
    z = rng.random((n, 1))
    selected = np.array([1, 1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 1], dtype=bool)
    y = x @ [1.0, -0.5] + 0.3 * rng.standard_normal(n)
    outcome = np.where(selected, y, np.nan)
    return ClusteredDataset(
        obs_ids=np.arange(n), location_ids=loc, sublocation_ids=sub,
        selected=selected, outcome=outcome, x=x, z=z,
    )


def null_dgp_cell(J, s, n, reps=1, seed=0):
    return SimCell(J=J, s=s, n=n, rho=0.0, gamma_location=0.0,
                   gamma_sublocation=0.0, theta_location=0.0,
                   theta_sublocation=0.0, replications=reps, seed=seed)


# -- oracle equivalence --------------------------------------------------------


def test_fixture_matches_dense_oracle():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    theta_o, v_o = dense_two_step(ds, op, fit.probit)
    np.testing.assert_allclose(fit.theta, theta_o, atol=1e-10)
    scale = np.abs(v_o).max()
    np.testing.assert_allclose(fit.v_twostep, v_o, atol=1e-10 * scale, rtol=1e-9)


def test_pairwise_fixture_matches_dense_oracle():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = pairwise_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    theta_o, v_o = dense_two_step(ds, op, fit.probit)
    np.testing.assert_allclose(fit.theta, theta_o, atol=1e-10)
    np.testing.assert_allclose(fit.v_twostep, v_o, rtol=1e-9,
                               atol=1e-10 * np.abs(v_o).max())


def test_heckman_matches_dense_oracle():
    ds = fixture_12()
    fit = heckman_classic(ds, variance="mills")
    theta_o, v_o = dense_heckman(ds, fit.probit, middle="mills")
    np.testing.assert_allclose(fit.theta, theta_o, atol=1e-10)
    np.testing.assert_allclose(fit.v_twostep, v_o, rtol=1e-9,
                               atol=1e-10 * np.abs(v_o).max())


def test_heckman_classic_variance_matches_dense_oracle():
    ds = fixture_12()
    fit = heckman_classic(ds)  # textbook middle is the default
    theta_o, v_o = dense_heckman(ds, fit.probit, middle="classic")
    np.testing.assert_allclose(fit.theta, theta_o, atol=1e-10)
    np.testing.assert_allclose(fit.v_twostep, v_o, rtol=1e-9,
                               atol=1e-10 * np.abs(v_o).max())
    assert not np.allclose(fit.v_twostep,
                           heckman_classic(ds, variance="mills").v_twostep)


def _rules_and_orders(ds, trial):
    """The dataset as generated and with its rows permuted, under both
    membership rules; permuted rows leave no group contiguous."""
    for data in (ds, shuffled(ds, trial)):
        for rule in ("sublocation", "location"):
            yield data, build_neighborhoods(data, rule)


def test_random_instances_match_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(8):
        ds = make_dataset(
            n_locations=int(rng.integers(3, 6)),
            n_sublocations=int(rng.integers(1, 4)),
            n_per_sub=int(rng.integers(2, 5)),
            p=int(rng.integers(1, 4)), q=int(rng.integers(1, 3)),
            seed=int(rng.integers(1_000_000)),
        )
        for data, g in _rules_and_orders(ds, trial):
            op = fixed_effect_operator(g, data.selected_indices())
            if op.rows < op.cols // 2 or op.rows <= data.p + 2:
                continue
            for middle in ("mills", "residual"):
                try:
                    fit = two_step_fit(data, op, variance=middle)
                except EstimationError:
                    continue
                theta_o, v_o = dense_two_step(data, op, fit.probit, middle=middle)
                np.testing.assert_allclose(fit.theta, theta_o,
                                           atol=1e-9 * max(1, np.abs(theta_o).max()))
                np.testing.assert_allclose(fit.v_twostep, v_o, rtol=1e-9,
                                           atol=1e-9 * np.abs(v_o).max())
                checked += 1
    assert checked >= 30


def test_residual_variant_matches_dense_oracle():
    # the "residual" middle's per-observation scale comes from the
    # operator's row norms and column sums; the oracle rebuilds it from the
    # dense operator
    rng = np.random.default_rng(17)
    checked = 0
    for trial in range(40):
        ds = make_dataset(
            n_locations=int(rng.integers(3, 6)),
            n_sublocations=int(rng.integers(1, 4)),
            n_per_sub=int(rng.integers(2, 6)),
            p=int(rng.integers(1, 3)), seed=int(rng.integers(1_000_000)),
        )
        sel = ds.selected_indices()
        if len(sel) < 2:
            continue
        index = rng.standard_normal(len(sel))
        for data, g in _rules_and_orders(ds, trial):
            sel = data.selected_indices()
            for op in (pairwise_operator(g, sel), fixed_effect_operator(g, sel),
                       kernel_operator(g, sel, index, 1.0, "gaussian")):
                if op.rows <= data.p + 2:
                    continue
                try:
                    fit = two_step_fit(data, op, variance="residual")
                except EstimationError:
                    continue
                _, v_o = dense_two_step(data, op, fit.probit, middle="residual")
                np.testing.assert_allclose(fit.v_twostep, v_o, rtol=1e-9,
                                           atol=1e-10 * np.abs(v_o).max())
                checked += 1
    assert checked >= 30


@pytest.mark.parametrize("build", [fixed_effect_operator, pairwise_operator],
                         ids=["fixed_effect", "pairwise"])
def test_untouched_columns_never_reach_residual_variance(build):
    # an observation in no differenced row has a zero row of G = D'(DW), so
    # the residual middle's 0 for it and the oracle's pooled mean agree
    ds = make_dataset(n_locations=6, n_sublocations=4, n_per_sub=2, p=2, seed=4)
    op = build(build_neighborhoods(ds, "sublocation"), ds.selected_indices())
    fit = two_step_fit(ds, op, variance="residual")
    untouched = op.column_sums(np.ones(op.rows)) == 0
    assert op.dropped_anchors == untouched.sum() > 0
    assert np.all(fit.g[untouched] == 0.0)
    _, v_o = dense_two_step(ds, op, fit.probit, middle="residual")
    np.testing.assert_allclose(fit.v_twostep, v_o, rtol=1e-9,
                               atol=1e-10 * np.abs(v_o).max())


# -- structural variance cases ---------------------------------------------------


def test_rho_zero_gives_zero_variance():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    frozen = dataclasses.replace(fit, rho=0.0)
    v = variance_two_step(frozen, op)
    assert np.all(v == 0.0)


def test_vbeta_zero_drops_first_stage_component():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    probit0 = dataclasses.replace(fit.probit, vbeta=np.zeros_like(fit.probit.vbeta))
    first0 = dataclasses.replace(fit.first, probit=probit0)
    v = variance_two_step(dataclasses.replace(fit, first=first0), op)
    np.testing.assert_allclose(v, fit.v1, atol=1e-14 * np.abs(fit.v1).max())
    assert np.abs(fit.v2).max() > 0


def test_variance_components_sum():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    np.testing.assert_allclose(fit.v_twostep, fit.v1 + fit.v2, atol=1e-15)


def test_sandwich_positive_semidefinite():
    for seed in range(5):
        ds = make_dataset(n_locations=4, n_sublocations=2, n_per_sub=4,
                          p=2, seed=seed)
        g = build_neighborhoods(ds, "sublocation")
        op = fixed_effect_operator(g, ds.selected_indices())
        try:
            fit = two_step_fit(ds, op)
        except EstimationError:
            continue
        eigs = np.linalg.eigvalsh(fit.v_twostep)
        assert eigs.min() >= -1e-10 * np.abs(fit.v_twostep).max()


def test_classic_variant_rejected_for_differenced_fit():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    with pytest.raises(EstimationError, match="classic"):
        two_step_fit(ds, op, variance="classic")


def test_residual_variance_variant_runs():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op, variance="residual")
    assert np.isfinite(fit.se()).all()
    v_mills = variance_two_step(fit, op, variant="mills")
    assert not np.allclose(fit.v_twostep, v_mills)


# -- normal equations, invariances ---------------------------------------------


def test_normal_equations_residual_orthogonality():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    scale = np.abs(fit.design_diff).max() * np.abs(fit.outcome_diff).max()
    grad = fit.design_diff.T @ fit.residuals
    assert np.abs(grad).max() <= 1e-8 * max(scale, 1.0)


def test_sublocation_shift_annihilated_end_to_end():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    base = two_step_fit(ds, op)

    shift = 3.7 * ds.sublocation_codes.astype(float) - 11.0
    outcome = np.where(ds.selected, ds.outcome + shift, np.nan)
    ds2 = ClusteredDataset(
        obs_ids=ds.obs_ids, location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=ds.selected,
        outcome=outcome, x=ds.x, z=ds.z,
    )
    shifted = two_step_fit(ds2, op)
    np.testing.assert_allclose(shifted.theta, base.theta, atol=1e-10)


def test_scale_equivariance():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    base = two_step_fit(ds, op)
    kappa = 3.0
    ds2 = ClusteredDataset(
        obs_ids=ds.obs_ids, location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=ds.selected,
        outcome=ds.outcome, x=ds.x * kappa, z=ds.z,
    )
    scaled = two_step_fit(ds2, op)
    np.testing.assert_allclose(scaled.delta, base.delta / kappa, atol=1e-10)
    assert scaled.rho == pytest.approx(base.rho, abs=1e-10)


def test_rank_deficiency_names_column():
    ds = fixture_12()
    x = ds.x.copy()
    x[:, 1] = ds.sublocation_codes.astype(float)  # constant within sublocations
    ds2 = ClusteredDataset(
        obs_ids=ds.obs_ids, location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=ds.selected,
        outcome=ds.outcome, x=x, z=ds.z,
    )
    g = build_neighborhoods(ds2, "sublocation")
    op = fixed_effect_operator(g, ds2.selected_indices())
    with pytest.raises(EstimationError, match="x2"):
        two_step_fit(ds2, op)


def test_operator_dataset_mismatch_rejected():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, np.arange(ds.n_obs))  # not the selected set
    with pytest.raises(EstimationError, match="selected"):
        two_step_fit(ds, op)


def test_too_few_rows_rejected():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=3,
                      selected=[True, True, True, False])
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    with pytest.raises(EstimationError, match="rows"):
        two_step_fit(ds, op)


# -- consistency on generated data -----------------------------------------------


def test_heckman_consistent_under_rho_zero():
    cell = null_dgp_cell(J=100, s=2, n=25, seed=5)  # N = 5000
    ds = generate_sample(cell, 77)
    fit = heckman_classic(ds)
    i = fit.names.index("x1")
    assert abs(fit.theta[i] - 1.0) < 0.05


def test_two_step_null_envelope():
    # harness-established empirical SDs at this configuration (30 draws):
    # sd(delta-hat) ~ 0.011, sd(rho-hat) ~ 0.42 (the mills coefficient is
    # weakly identified when the index only spans 0.2 * U(0,1)); bounds are
    # 3x those, with the per-draw delta envelope also holding at 0.05
    cell = null_dgp_cell(J=100, s=1, n=100, seed=6)  # N = 10000
    reps = 12
    deltas, rhos = [], []
    for rep in range(reps):
        ds = generate_sample(cell, 1000 + rep)
        g = build_neighborhoods(ds, "sublocation")
        op = fixed_effect_operator(g, ds.selected_indices())
        fit = two_step_fit(ds, op)
        deltas.append(fit.theta[fit.names.index("x1")])
        rhos.append(fit.rho)
        assert abs(deltas[-1] - 1.0) < 0.05
        assert abs(rhos[-1]) < 3 * 0.45
    assert abs(np.mean(deltas) - 1.0) < 3 * 0.011 / np.sqrt(reps)
    assert abs(np.mean(rhos)) < 3 * 0.42 / np.sqrt(reps)


def test_two_step_and_heckman_agree_on_null_dgp():
    cell = null_dgp_cell(J=50, s=2, n=50, seed=8)  # N = 5000
    ds = generate_sample(cell, 11)
    probit = fit_probit(ds)
    heck = heckman_classic(ds, probit_fit=probit)
    g = build_neighborhoods(ds, "location")
    op = pairwise_operator(g, ds.selected_indices())
    diff = two_step_fit(ds, op, probit_fit=probit)
    i_h = heck.names.index("x1")
    i_d = diff.names.index("x1")
    joint_se = float(np.hypot(heck.se()[i_h], diff.se()[i_d]))
    assert abs(heck.theta[i_h] - diff.theta[i_d]) < 2 * max(joint_se, 0.02)


def test_full_dgp_single_draw_envelope():
    cell = SimCell(J=100, s=2, n=3, seed=9)
    ds = generate_sample(cell, 0)
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    i = fit.names.index("x1")
    assert abs(fit.theta[i] - 1.0) < 0.5


# -- reports ------------------------------------------------------------------


def test_reports():
    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    rows = coefficient_table(fit)
    assert [r[0] for r in rows] == fit.names
    text = report_text(fit, extra={"operator_rows": op.rows})
    assert "operator_rows" in text
    assert "mills" in text
    assert f"probit_gradient_max = {fit.probit.gradient_max:.3e}" in text
    assert f"probit_newton_decrement = {fit.probit.newton_decrement:.3e}" in text
    assert f"rho = {fit.rho:.6g}" in text
    assert "variance = mills" in text
    tr1, tr2 = np.trace(fit.v1), np.trace(fit.v2)
    assert tr1 > 0 and tr2 > 0
    assert f"v1_trace_share = {tr1 / (tr1 + tr2):.4f}" in text
    assert f"v2_trace_share = {tr2 / (tr1 + tr2):.4f}" in text
    residual = two_step_fit(ds, op, variance="residual")
    assert "variance = residual" in report_text(residual)
    assert heckman_classic(ds).variance == "classic"


def test_write_coefficients_csv_round_trip(tmp_path):
    from spatsel.estimator import write_coefficients_csv

    ds = fixture_12()
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    path = tmp_path / "coef.csv"
    write_coefficients_csv(fit, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,estimate,se,t"
    assert len(lines) == 1 + len(fit.names)
    # full precision: estimates parse back bitwise
    for line, est in zip(lines[1:], fit.theta):
        assert float(line.split(",")[1]) == est


# -- membership operators stay free of their CSR matrix -------------------------


@pytest.mark.parametrize("rule", ["sublocation", "location"])
def test_fit_never_builds_membership_matrix(rule):
    from spatsel.inference import wild_cluster_bootstrap

    ds = make_dataset(n_locations=6, n_sublocations=3, n_per_sub=5, p=2, seed=11)
    op = fixed_effect_operator(build_neighborhoods(ds, rule), ds.selected_indices())
    for middle in ("mills", "residual"):
        fit = two_step_fit(ds, op, variance=middle)
    variance_two_step(fit, op, variant="residual")
    wild_cluster_bootstrap(fit, op, ds, "x1", B=99, compute_ci=True)
    assert "matrix" not in vars(op)


def test_location_fit_memory_peak():
    # J=250, s=20, n=40: N = 2e5 with ~109k selected and ~437 selected per
    # location, so the location operator's CSR alone would hold ~47.7M
    # entries (~570 MB); built from it, the fit peaked at ~917 MB traced.
    # Held as group codes it peaks at ~21 MB.
    import tracemalloc

    ds = generate_sample(SimCell(J=250, s=20, n=40), 3)
    probit = fit_probit(ds)
    tracemalloc.start()
    try:
        op = fixed_effect_operator(build_neighborhoods(ds, "location"),
                                   ds.selected_indices())
        fit = two_step_fit(ds, op, probit_fit=probit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(fit.v_twostep).all()
    assert peak < 100 * 2**20
