import dataclasses

import numpy as np
import pytest

from spatsel.dataset import ClusteredDataset, build_neighborhoods
from spatsel.differencing import fixed_effect_operator, pairwise_operator
from spatsel.estimator import heckman_classic, two_step_fit
from spatsel.exceptions import ValidationError
from spatsel.inference import ALPHA, wild_cluster_bootstrap
from spatsel.montecarlo import SimCell, generate_sample
from spatsel.probit import fit_probit

from oracles import row_level_bootstrap, row_level_p_at


def fitted_cell(J=8, s=2, n=4, seed=3, rep=0, **cell_kw):
    cell = SimCell(J=J, s=s, n=n, seed=seed, **cell_kw)
    ds = generate_sample(cell, rep)
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    return ds, op, fit


def test_determinism_bitwise():
    ds, op, fit = fitted_cell()
    r1 = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=99, seed=42)
    r2 = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=99, seed=42)
    assert r1.p_value == r2.p_value
    assert r1.t_observed == r2.t_observed


def test_different_seeds_differ():
    ds, op, fit = fitted_cell()
    r1 = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=199, seed=1)
    r2 = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=199, seed=2)
    assert r1.p_value != r2.p_value  # 199 draws, J=8: collision essentially impossible


def test_p_value_add_one_rule_lattice():
    ds, op, fit = fitted_cell()
    B = 99
    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=B, seed=7)
    k = round(res.p_value * (B + 1))
    assert res.p_value == pytest.approx(k / (B + 1), abs=1e-15)
    assert 1 <= k <= B + 1


def test_zero_residuals_degenerate():
    # outcome exactly reproduced by the regressors: restricted residuals are 0
    cell = SimCell(J=4, s=1, n=3, seed=1)
    ds0 = generate_sample(cell, 0)
    rows = ds0.selected_indices()
    g = build_neighborhoods(ds0, "sublocation")
    op = fixed_effect_operator(g, rows)
    probit = fit_probit(ds0)
    from spatsel.numerics import mills_lambda_dee
    from spatsel.probit import predict_index

    lam, _ = mills_lambda_dee(predict_index(probit, ds0))
    y_exact = np.where(ds0.selected, 0.0, np.nan)
    y_exact[rows] = ds0.x[rows, 0] * 1.0 + 0.5 * lam
    ds = ClusteredDataset(
        obs_ids=ds0.obs_ids, location_ids=ds0.location_ids,
        sublocation_ids=ds0.sublocation_ids, selected=ds0.selected,
        outcome=y_exact, x=ds0.x, z=ds0.z,
    )
    fit = two_step_fit(ds, op, probit_fit=probit)
    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=99, seed=0)
    assert res.p_value == 1.0
    assert abs(res.t_observed) < 1e-12


def test_unknown_coefficient():
    ds, op, fit = fitted_cell()
    with pytest.raises(ValidationError, match="unknown coefficient"):
        wild_cluster_bootstrap(fit, op, ds, "nope", B=99, seed=0)


def test_b_floor():
    ds, op, fit = fitted_cell()
    with pytest.raises(ValidationError, match="at least 99"):
        wild_cluster_bootstrap(fit, op, ds, "x1", B=50, seed=0)


def test_relabel_and_reorder_invariance():
    cell = SimCell(J=8, s=2, n=4, seed=3)
    ds = generate_sample(cell, 0)
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    fit = two_step_fit(ds, op)
    base = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=299, seed=9)

    # order-preserving relabel of locations plus observation shuffle
    rng = np.random.default_rng(0)
    perm = rng.permutation(ds.n_obs)
    ds2 = ClusteredDataset(
        obs_ids=ds.obs_ids[perm], location_ids=ds.location_ids[perm] * 10,
        sublocation_ids=ds.sublocation_ids[perm], selected=ds.selected[perm],
        outcome=ds.outcome[perm], x=ds.x[perm], z=ds.z[perm],
    )
    g2 = build_neighborhoods(ds2, "sublocation")
    op2 = fixed_effect_operator(g2, ds2.selected_indices())
    fit2 = two_step_fit(ds2, op2)
    other = wild_cluster_bootstrap(fit2, op2, ds2, "x1", null_value=1.0, B=299, seed=9)
    assert other.p_value == pytest.approx(base.p_value, abs=1e-12)
    assert other.t_observed == pytest.approx(base.t_observed, abs=1e-9)


def test_full_enumeration_matches_monte_carlo_limit():
    ds, op, fit = fitted_cell(J=8, s=2, n=4, seed=5)
    exact = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0,
                                   full_enumeration=True)
    assert exact.replications == 2**8
    mc = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=9999, seed=11)
    assert abs(exact.p_value - mc.p_value) <= 0.02


def test_full_enumeration_matches_brute_force_oracle():
    # dense re-implementation: per sign pattern, rebuild the outcome, run
    # plain lstsq, and form t* from the same rho-scaled variance
    from itertools import product

    ds, op, fit = fitted_cell(J=4, s=1, n=4, seed=21)
    col = fit.names.index("x1")
    x, y = fit.design_diff, fit.outcome_diff
    null = 1.0

    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=null,
                                 full_enumeration=True)

    # restricted fit imposing the null
    others = [j for j in range(x.shape[1]) if j != col]
    coef, *_ = np.linalg.lstsq(x[:, others], y - null * x[:, col], rcond=None)
    fitted = x[:, others] @ coef + null * x[:, col]
    resid = y - fitted

    anchors_ds = op.selected_indices[op.anchor]
    clusters = ds.location_codes[anchors_ds]
    uniq = np.unique(clusters)

    from spatsel.estimator import _first_stage, _sandwich

    first = _first_stage(ds, fit_probit(ds))
    kmat, _, _ = _sandwich(op.matrix.T @ x, fit.xtx_inv, op, first, 1.0, "mills",
                           fit.residuals)
    k_cc = float(kmat[col, col])
    se_obs = abs(fit.rho) * np.sqrt(k_cc)
    t_obs = (fit.theta[col] - null) / se_obs

    count = 0
    total = 0
    for signs in product((-1.0, 1.0), repeat=len(uniq)):
        w = np.array(signs)[np.searchsorted(uniq, clusters)]
        y_star = fitted + w * resid
        theta_star, *_ = np.linalg.lstsq(x, y_star, rcond=None)
        se_star = abs(theta_star[-1]) * np.sqrt(k_cc)
        t_star = (theta_star[col] - null) / se_star if se_star > 0 else 0.0
        count += abs(t_star) >= abs(t_obs)
        total += 1
    assert res.replications == total
    assert res.p_value == pytest.approx(count / total, abs=1e-12)


def test_ci_test_inversion_contains_estimate():
    ds, op, fit = fitted_cell(J=10, s=2, n=4, seed=6)
    i = fit.names.index("x1")
    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=399,
                                 seed=3, compute_ci=True)
    assert res.ci_low is not None and res.ci_high is not None
    assert res.ci_low < fit.theta[i] < res.ci_high
    # on this input the piece that holds the estimate is bounded on both sides
    assert np.isfinite(res.ci_low) and np.isfinite(res.ci_high)
    for end in (res.ci_low, res.ci_high):
        inner = wild_cluster_bootstrap(fit, op, ds, "x1",
                                       null_value=0.5 * (fit.theta[i] + end),
                                       B=399, seed=3)
        assert inner.p_value > 0.05


def test_ci_keeps_null_whose_p_equals_alpha():
    # p_boot is exactly 20/400 = 0.05 from null -33.25 down to the lower end
    # at -34.3986 on this input; those nulls stay inside the 95% interval,
    # and p drops to 19/400 just past the end
    ds, op, fit = fitted_cell(J=10, s=2, n=4, seed=6)
    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=399,
                                 seed=3, compute_ci=True)

    def p_at(null):
        return wild_cluster_bootstrap(fit, op, ds, "x1", null_value=null, B=399, seed=3).p_value

    assert res.ci_low == pytest.approx(-34.3986, abs=1e-4)
    step = 1e-9 * abs(res.ci_low)
    for null in (-33.25, -34.0, res.ci_low + step):
        assert p_at(null) == 20 / 400
    assert p_at(res.ci_low - step) == 19 / 400


@pytest.mark.parametrize("draws", [{"B": 199, "seed": 8}, {"full_enumeration": True}],
                         ids=["draws", "enumeration"])
@pytest.mark.parametrize("null", [0.0, 1.0])
@pytest.mark.parametrize("coef", ["x1", "mills"])
@pytest.mark.parametrize("kind", ["heckman", "fixed_effect", "pairwise"])
def test_cluster_sums_match_row_level_oracle(kind, coef, null, draws):
    # theta* summed over clusters must rank draws exactly as the per-row
    # y* -> theta* projection does: p-values bitwise equal. The oracle finds
    # the interval from per-draw quartics fitted to row-level refits; its
    # ends agree to 1e-9 relative (4e-13 seen on these inputs)
    ds = generate_sample(SimCell(J=10, s=2, n=5, seed=7), 0)
    if kind == "heckman":
        op, fit = None, heckman_classic(ds)
    else:
        build = fixed_effect_operator if kind == "fixed_effect" else pairwise_operator
        op = build(build_neighborhoods(ds, "sublocation"), ds.selected_indices())
        fit = two_step_fit(ds, op)
    res = wild_cluster_bootstrap(fit, op, ds, coef, null_value=null,
                                 compute_ci=True, **draws)
    p_value, ci_low, ci_high = row_level_bootstrap(fit, op, ds, coef, null_value=null, **draws)
    assert res.p_value == p_value
    assert res.ci_low == pytest.approx(ci_low, rel=1e-9, abs=1e-9)
    assert res.ci_high == pytest.approx(ci_high, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("coef", ["x1", "mills"])
@pytest.mark.parametrize("kind", ["heckman", "fixed_effect", "pairwise"])
def test_affine_draws_match_refit_at_every_null(kind, coef):
    # the package's draws are affine in the null value; the oracle refits
    # the restricted model at each null: p-values equal across +-50 se
    ds = generate_sample(SimCell(J=10, s=2, n=5, seed=7), 0)
    if kind == "heckman":
        op, fit = None, heckman_classic(ds)
    else:
        build = fixed_effect_operator if kind == "fixed_effect" else pairwise_operator
        op = build(build_neighborhoods(ds, "sublocation"), ds.selected_indices())
        fit = two_step_fit(ds, op)
    p_at, theta_obs, se_obs = row_level_p_at(fit, op, ds, coef, B=199, seed=8)
    nulls = theta_obs + se_obs * np.linspace(-50.0, 50.0, 31)
    got = [wild_cluster_bootstrap(fit, op, ds, coef, null_value=v, B=199, seed=8).p_value
           for v in nulls]
    want = [p_at(v) for v in nulls]
    assert got == want
    assert len(set(want)) > 3


def kind_fit(kind, rep):
    ds = generate_sample(SimCell(J=10, s=2, n=5), rep)
    if kind == "heckman":
        return ds, None, heckman_classic(ds)
    build = fixed_effect_operator if kind == "fixed_effect" else pairwise_operator
    op = build(build_neighborhoods(ds, "sublocation"), ds.selected_indices())
    return ds, op, two_step_fit(ds, op)


@pytest.mark.parametrize("draws", [{"B": 199, "seed": 8}, {"full_enumeration": True}],
                         ids=["draws", "enumeration"])
@pytest.mark.parametrize("coef", ["x1", "mills"])
@pytest.mark.parametrize("kind", ["heckman", "fixed_effect", "pairwise"])
def test_interval_ends_are_where_p_crosses_alpha(kind, coef, draws):
    # the package's own p-value is >= 0.05 at the estimate, just inside each
    # finite end and at every point of a grid between the ends, and < 0.05
    # just outside each finite end
    for rep in (0, 1):
        ds, op, fit = kind_fit(kind, rep)
        theta = float(fit.theta[fit.names.index(coef)])
        res = wild_cluster_bootstrap(fit, op, ds, coef, null_value=0.0, compute_ci=True,
                                     **draws)

        def p_at(null):
            return wild_cluster_bootstrap(fit, op, ds, coef, null_value=null, **draws).p_value

        assert res.ci_low < theta < res.ci_high and res.pieces >= 1
        assert p_at(theta) >= ALPHA
        for end, outward in ((res.ci_low, -1.0), (res.ci_high, 1.0)):
            if np.isfinite(end):
                step = 1e-9 * max(1.0, abs(end))
                assert p_at(end - outward * step) >= ALPHA
                assert p_at(end + outward * step) < ALPHA
        low, high = np.clip([res.ci_low, res.ci_high], theta - 1e3, theta + 1e3)
        assert min(map(p_at, np.linspace(low, high, 402)[1:-1])) >= ALPHA


@pytest.mark.xfail(strict=True, reason="a near-tie draw's root misses where p changes")
def test_end_set_by_near_tie_draw_is_where_p_crosses_alpha():
    # J = 6 under full enumeration: the all-+1 draw ties |t_obs| at every null
    # to within rounding, so the root of its quadratic (57.4188) lies ~3e-3
    # below the null where the package's own p first drops below 0.05 (57.4218)
    ds = generate_sample(SimCell(J=6, s=2, n=3, seed=0), 160557)
    op = pairwise_operator(build_neighborhoods(ds, "sublocation"), ds.selected_indices())
    fit = two_step_fit(ds, op)
    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=0.0, full_enumeration=True,
                                 compute_ci=True)

    def p_at(null):
        return wild_cluster_bootstrap(fit, op, ds, "x1", null_value=null,
                                      full_enumeration=True).p_value

    step = 1e-9 * max(1.0, abs(res.ci_high))
    assert p_at(res.ci_high - step) >= ALPHA
    assert p_at(res.ci_high + step) < ALPHA


def test_pieces_counts_the_runs_of_kept_nulls():
    # p is not monotone in the null: on this input {p >= 0.05} has four
    # pieces, which a fine grid of p-values finds as four runs
    ds, op, fit = fitted_cell(J=10, s=2, n=4, seed=6)
    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=399,
                                 seed=3, compute_ci=True)
    grid = np.linspace(-60.0, 40.0, 2001)
    kept = np.array([wild_cluster_bootstrap(fit, op, ds, "x1", null_value=v, B=399,
                                            seed=3).p_value >= ALPHA for v in grid])
    assert not kept[0] and not kept[-1]
    assert res.pieces == np.count_nonzero(kept[1:] & ~kept[:-1]) == 4


def test_zero_se_interval_is_the_estimate():
    # a mills coefficient of exactly 0 gives a zero se: |t_obs| is infinite at
    # every null but the estimate, so the set {p >= 0.05} is that one point
    ds, op, fit = fitted_cell(J=10, s=2, n=4, seed=6)
    flat = dataclasses.replace(fit, rho=0.0)
    theta = float(fit.theta[fit.names.index("x1")])
    res = wild_cluster_bootstrap(flat, op, ds, "x1", null_value=0.0, B=399, seed=3,
                                 compute_ci=True)
    assert (res.ci_low, res.ci_high, res.pieces) == (theta, theta, 1)
    assert res.t_observed == np.inf and res.p_value < ALPHA
    for null in (theta - 1e-9, theta + 1e-9):
        p = wild_cluster_bootstrap(flat, op, ds, "x1", null_value=null, B=399, seed=3).p_value
        assert p < ALPHA


def test_bootstrap_on_undifferenced_baseline():
    cell = SimCell(J=10, s=2, n=4, seed=12)
    ds = generate_sample(cell, 0)
    fit = heckman_classic(ds)
    res = wild_cluster_bootstrap(fit, None, ds, "x1", null_value=1.0, B=199, seed=2)
    assert 0.0 < res.p_value <= 1.0
    again = wild_cluster_bootstrap(fit, None, ds, "x1", null_value=1.0, B=199, seed=2)
    assert res.p_value == again.p_value


def test_mills_coefficient_testable():
    # At null 0 the studentising se is |mills coefficient| * sqrt(k_cc), so
    # every draw's |t*| equals |t_obs| = 1/sqrt(k_cc) up to rounding and the
    # p-value is 1 by construction. Without a tie slack this input gives
    # 0.335 (draws), 0.408 (enumeration) and 0.55 (shuffled rows).
    ds, op, fit = fitted_cell(J=16, s=2, n=5, seed=1)
    res = wild_cluster_bootstrap(fit, op, ds, "mills", null_value=0.0, B=199, seed=4)
    assert res.p_value == 1.0
    exact = wild_cluster_bootstrap(fit, op, ds, "mills", null_value=0.0,
                                   full_enumeration=True)
    assert exact.replications == 2**16
    assert exact.p_value == 1.0

    perm = np.random.default_rng(0).permutation(ds.n_obs)
    ds2 = ClusteredDataset(
        obs_ids=ds.obs_ids[perm], location_ids=ds.location_ids[perm],
        sublocation_ids=ds.sublocation_ids[perm], selected=ds.selected[perm],
        outcome=ds.outcome[perm], x=ds.x[perm], z=ds.z[perm],
    )
    op2 = fixed_effect_operator(build_neighborhoods(ds2, "sublocation"),
                                ds2.selected_indices())
    fit2 = two_step_fit(ds2, op2)
    res2 = wild_cluster_bootstrap(fit2, op2, ds2, "mills", null_value=0.0, B=199, seed=4)
    assert res2.p_value == 1.0


def test_result_fields():
    ds, op, fit = fitted_cell()
    res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0, B=99, seed=5)
    assert res.coefficient == "x1"
    assert res.replications == 99
    assert res.seed == 5
    assert res.ci_low is None and res.ci_high is None and res.pieces is None
