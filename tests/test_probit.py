import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from spatsel import probit
from spatsel.dataset import ClusteredDataset
from spatsel.exceptions import EstimationError, SeparationError
from spatsel.montecarlo import SimCell, generate_sample, rep_seed
from spatsel.numerics import inverse_mills, mills_lambda_dee
from spatsel.probit import (
    GRADIENT_TOL,
    MAX_ITERATIONS,
    ProbitFit,
    ProbitSpec,
    _build_design,
    fit_probit,
    log_likelihood,
    predict_index,
)

from conftest import make_dataset
from oracles import loop_build_design, two_pass_fit_probit


def selection_dgp(n, beta=0.2, seed=0, n_locations=10):
    """Dataset whose selection follows s = 1{beta * z + e > 0}, z ~ U(0,1)."""
    rng = np.random.default_rng(seed)
    z = rng.random(n)
    e1 = rng.standard_normal(n)
    selected = beta * z + e1 > 0
    x = rng.standard_normal(n)
    outcome = np.where(selected, x + rng.standard_normal(n), np.nan)
    per = n // n_locations
    loc = np.repeat(np.arange(n_locations), per)
    if len(loc) < n:
        loc = np.concatenate([loc, np.full(n - len(loc), n_locations - 1)])
    return ClusteredDataset(
        obs_ids=np.arange(n), location_ids=loc, sublocation_ids=np.ones(n, dtype=int),
        selected=selected, outcome=outcome, x=x[:, None], z=z[:, None],
    )


def test_recovery_large_sample():
    # bound is 3x the asymptotic se from the no-intercept information matrix
    ds = selection_dgp(100_000, beta=0.2, seed=42)
    fit = fit_probit(ds, ProbitSpec(include_intercept=False))
    assert fit.converged
    assert abs(fit.beta[0] - 0.2) < 0.03


def test_all_selected_raises():
    ds = make_dataset(seed=1, selected=[True] * 12)
    with pytest.raises(SeparationError):
        fit_probit(ds)


def test_none_selected_raises():
    ds = make_dataset(seed=1, selected=[False] * 12)
    with pytest.raises(SeparationError):
        fit_probit(ds)


def test_null_case_z_orthogonal_to_selection():
    # selection independent of z: coefficient within 3 standard errors of 0
    rng = np.random.default_rng(3)
    n = 20_000
    ds = selection_dgp(n, beta=0.0, seed=3)
    fit = fit_probit(ds)
    se = fit.se()[0]
    assert abs(fit.beta[0]) < 3 * se


def test_score_at_optimum_small():
    ds = make_dataset(n_locations=4, n_sublocations=2, n_per_sub=10, seed=5)
    fit = fit_probit(ds)
    assert fit.converged
    design = fit.design(ds)
    eps = 1e-7
    base = log_likelihood(design, ds.selected, fit.beta)
    for k in range(len(fit.beta)):
        step = np.zeros_like(fit.beta)
        step[k] = eps
        deriv = (log_likelihood(design, ds.selected, fit.beta + step) - base) / eps
        assert abs(deriv) < 1e-5


def test_vbeta_matches_fd_hessian():
    ds = make_dataset(n_locations=5, n_sublocations=2, n_per_sub=10, seed=6,
                      p=1, q=2)
    fit = fit_probit(ds)
    design = fit.design(ds)
    k = len(fit.beta)
    # 4-point second difference: h ~ eps^(1/4) balances truncation and roundoff
    h = 3e-4
    hess = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            bpp = fit.beta.copy(); bpp[i] += h; bpp[j] += h
            bpm = fit.beta.copy(); bpm[i] += h; bpm[j] -= h
            bmp = fit.beta.copy(); bmp[i] -= h; bmp[j] += h
            bmm = fit.beta.copy(); bmm[i] -= h; bmm[j] -= h
            hess[i, j] = (
                log_likelihood(design, ds.selected, bpp)
                - log_likelihood(design, ds.selected, bpm)
                - log_likelihood(design, ds.selected, bmp)
                + log_likelihood(design, ds.selected, bmm)
            ) / (4 * h * h)
    fd_vbeta = np.linalg.inv(-hess)
    np.testing.assert_allclose(fit.vbeta, fd_vbeta, rtol=1e-4)


def test_vbeta_symmetric_psd():
    ds = make_dataset(n_locations=4, n_sublocations=2, n_per_sub=8, seed=7)
    fit = fit_probit(ds)
    assert np.abs(fit.vbeta - fit.vbeta.T).max() < 1e-10
    assert (np.diag(fit.vbeta) >= 0).all()
    assert np.linalg.eigvalsh(fit.vbeta).min() > 0


def test_permutation_invariance():
    ds = make_dataset(n_locations=4, n_sublocations=2, n_per_sub=10, seed=8)
    rng = np.random.default_rng(0)
    perm = rng.permutation(ds.n_obs)
    ds2 = ClusteredDataset(
        obs_ids=ds.obs_ids[perm], location_ids=ds.location_ids[perm],
        sublocation_ids=ds.sublocation_ids[perm], selected=ds.selected[perm],
        outcome=ds.outcome[perm], x=ds.x[perm], z=ds.z[perm],
    )
    f1, f2 = fit_probit(ds), fit_probit(ds2)
    np.testing.assert_allclose(f1.beta, f2.beta, atol=1e-12)
    np.testing.assert_allclose(f1.vbeta, f2.vbeta, atol=1e-12)
    assert f1.loglik == pytest.approx(f2.loglik, abs=1e-9)


def test_location_dummies_and_separation_drop():
    ds = make_dataset(n_locations=5, n_sublocations=2, n_per_sub=10, seed=9)
    # location 2 is entirely selected and location 4 entirely unselected
    sel = ds.selected.copy()
    sel[ds.location_ids == 2] = True
    sel[ds.location_ids == 4] = False
    out = np.where(sel, np.nan_to_num(ds.outcome, nan=0.0), np.nan)
    ds2 = ClusteredDataset(
        obs_ids=ds.obs_ids, location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=sel, outcome=out,
        x=ds.x, z=ds.z,
    )
    fit = fit_probit(ds2, ProbitSpec(include_location_dummies=True))
    assert fit.converged
    # ids come back as numpy scalars in code order; the first kept
    # location is the reference absorbed by the intercept
    assert fit.dropped_dummies == [2, 4]
    assert fit.reference_location == 1
    assert fit.dummy_locations == [3, 5]
    assert all(isinstance(lid, np.integer)
               for lid in [*fit.dropped_dummies, *fit.dummy_locations, fit.reference_location])
    assert fit.column_names == ["z1", "loc[3]", "loc[5]", "const"]
    # the same design with the kept dummies given as z columns fits bitwise alike
    dummies = [(ds2.location_ids == lid).astype(np.float64) for lid in (3, 5)]
    explicit = ClusteredDataset(
        obs_ids=ds2.obs_ids, location_ids=ds2.location_ids,
        sublocation_ids=ds2.sublocation_ids, selected=sel, outcome=out,
        x=ds2.x, z=np.column_stack([ds2.z, *dummies]),
    )
    ref = fit_probit(explicit)
    assert np.array_equal(fit.beta, ref.beta)
    assert np.array_equal(fit.vbeta, ref.vbeta)


@pytest.mark.parametrize("ids", ["int", "str"])
@pytest.mark.parametrize("intercept", [True, False])
def test_dummy_block_matches_per_dummy_loop(ids, intercept):
    # shuffled rows, so locations are not contiguous; location 2 is entirely
    # selected and its dummy is dropped
    ds = make_dataset(n_locations=6, n_sublocations=2, n_per_sub=4, seed=5)
    perm = np.random.default_rng(5).permutation(ds.n_obs)
    sel = ds.selected[perm]
    sel[ds.location_ids[perm] == 2] = True
    loc = ds.location_ids[perm]
    ds = ClusteredDataset(
        obs_ids=ds.obs_ids[perm],
        location_ids=loc.astype(str) if ids == "str" else loc,
        sublocation_ids=ds.sublocation_ids[perm], selected=sel,
        outcome=np.where(sel, 1.0, np.nan), x=ds.x[perm], z=ds.z[perm],
    )
    fit = fit_probit(ds, ProbitSpec(include_location_dummies=True,
                                    include_intercept=intercept))
    assert len(fit.dropped_dummies) == 1
    rows = ds.selected_indices()
    # an id absent from the dataset gives an all-zero column, as the loop does
    for dummies in (fit.dummy_locations, fit.dummy_locations[::-1] + ["absent"], []):
        for r in (None, rows, rows[::-1]):
            got = _build_design(ds, dummies, intercept, r)
            want = loop_build_design(ds, dummies, intercept, r)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_predict_index_zero_beta():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=6, seed=10)
    fit = fit_probit(ds)
    frozen = ProbitFit(
        beta=np.zeros_like(fit.beta), vbeta=fit.vbeta, loglik=fit.loglik,
        iterations=fit.iterations, converged=True, dropped_dummies=[],
        column_names=fit.column_names, z_dim=fit.z_dim,
        dummy_locations=fit.dummy_locations,
        reference_location=fit.reference_location,
        include_intercept=fit.include_intercept,
    )
    idx = predict_index(frozen, ds)
    assert np.all(idx == 0.0)
    assert inverse_mills(0.0).lam == pytest.approx(0.7978845608, abs=1e-10)


def test_predict_index_single_regressor_no_intercept():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=6, seed=11)
    ds.z[:, 0] = 1.0
    fit = fit_probit(ds, ProbitSpec(include_intercept=False))
    frozen = ProbitFit(
        beta=np.array([0.2]), vbeta=fit.vbeta, loglik=fit.loglik,
        iterations=fit.iterations, converged=True, dropped_dummies=[],
        column_names=fit.column_names, z_dim=1, dummy_locations=[],
        reference_location=None, include_intercept=False,
    )
    idx = predict_index(frozen, ds)
    np.testing.assert_allclose(idx, 0.2)


def test_predict_index_requires_convergence():
    ds = make_dataset(seed=12)
    fit = fit_probit(ds)
    fit.converged = False
    with pytest.raises(EstimationError, match="converge"):
        predict_index(fit, ds)


def test_predict_index_matches_scalar_oracle():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=8, seed=13)
    fit = fit_probit(ds)
    idx = predict_index(fit, ds)
    rows = ds.selected_indices()
    lam_vec, dee_vec = mills_lambda_dee(idx)
    for i in range(len(rows)):
        mv = inverse_mills(float(idx[i]))
        assert lam_vec[i] == pytest.approx(mv.lam, rel=1e-14)
        assert dee_vec[i] == pytest.approx(mv.dee, rel=1e-12)


def test_no_stall_when_gain_is_below_rounding():
    # N = 1920: near the optimum the predicted gain g'H^-1 g / 2 is below the
    # rounding of the log-likelihood sum, so step-halving used to reject the
    # Newton step and stall at |g| ~ 1e-6 until the iteration cap
    cell = SimCell(J=30, s=8, n=8, seed=10100)
    ds = generate_sample(cell, rep_seed(cell, 15))
    fit = fit_probit(ds)
    assert fit.converged
    assert fit.iterations <= 10
    design = fit.design(ds)
    w = design @ fit.beta
    lam, _ = mills_lambda_dee(np.where(ds.selected, w, -w))
    score = design.T @ np.where(ds.selected, lam, -lam)
    assert np.abs(score).max() <= GRADIENT_TOL
    assert fit.gradient_max == np.abs(score).max()
    assert 0.0 <= fit.newton_decrement <= 1e-10


SPECS = {
    "intercept": ProbitSpec(),
    "dummies": ProbitSpec(include_location_dummies=True),
    "no_intercept": ProbitSpec(include_intercept=False),
}


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
@pytest.mark.parametrize("seed", range(4))
def test_loglik_is_that_of_returned_beta(spec, seed):
    ds = make_dataset(n_locations=5, n_sublocations=2, n_per_sub=6, q=2, seed=seed)
    fit = fit_probit(ds, spec)
    assert fit.loglik == log_likelihood(fit.design(ds), ds.selected, fit.beta)


def test_loglik_is_that_of_returned_beta_when_halvings_run_out(monkeypatch):
    # with log cdf negated every Newton step descends the searched function,
    # so each line search evaluates all 40 candidates without a rise
    monkeypatch.setattr(probit, "log_ndtr", lambda c: -log_ndtr(c))
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=5, seed=3)
    fit = fit_probit(ds)
    assert not fit.converged and fit.iterations == MAX_ITERATIONS
    assert fit.loglik == log_likelihood(fit.design(ds), ds.selected, fit.beta)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000), n_locations=st.integers(2, 6),
       n_per_sub=st.integers(2, 6), q=st.integers(1, 2),
       beta=st.floats(-3.0, 3.0), spec=st.sampled_from(list(SPECS.values())))
def test_fit_probit_matches_two_pass_loop(seed, n_locations, n_per_sub, q, beta, spec):
    ds = make_dataset(n_locations=n_locations, n_sublocations=2, n_per_sub=n_per_sub,
                      q=q, seed=seed, beta=beta)
    try:
        fit = fit_probit(ds, spec)
    except SeparationError:
        assume(False)
    ref = two_pass_fit_probit(fit.design(ds), ds.selected)
    assume(not ref["exhausted"])
    for name in ("beta", "vbeta"):
        assert getattr(fit, name).tobytes() == ref[name].tobytes()
    for name in ("loglik", "iterations", "converged", "gradient_max", "newton_decrement"):
        assert getattr(fit, name) == ref[name]
