"""Wild cluster bootstrap for second-step coefficients.

Designed for few clusters: residuals from the null-imposed (restricted)
second-step regression are flipped blockwise by location-level Rademacher
signs, the second step is re-estimated on each synthetic outcome, and the
observed t statistic is ranked inside the bootstrap t distribution. The
first stage is held fixed across draws, so the probit fit and the mills
ratios are unchanged by construction.

Draws are formed at cluster level (Roodman, MacKinnon, Nielsen & Webb,
"Fast and wild", Stata Journal 19(1), 2019): theta* = theta_r + sum_g w_g C_g,
with theta_r the restricted coefficients, P = (X'X)^-1 X', e the restricted
residuals and C_g the sum of P[:, r] e[r] over the rows r of cluster g.
The restricted fit is linear in the null value t, so theta_r = a + t b,
e = r0 - t r1 and C_g = C0_g - t C1_g. One pass over the M differenced rows
per coefficient forms the draws' two affine parts for the tested and the
mills coefficient (B x 2 each); after that a p-value at any null value,
and so each step of the interval search, costs O(B). The per-draw t uses
the corrected covariance, which for a fixed first stage scales with the
draw's squared mills coefficient; its scale-free part is computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import ClusteredDataset
from .differencing import DifferenceOperator
from .estimator import TwoStepFit, _sandwich
from .exceptions import ValidationError

# fewest bootstrap replications a sampled (not enumerated) test accepts
MIN_REPLICATIONS = 99

# relative shortfall of |t*| below |t_obs| still counted as a tie
_TIE_SLACK = 1e-12
# an interval end is searched at this many constant steps from the
# estimate, then at this many more steps that double each time
_CONSTANT_WIDENINGS = 6
_DOUBLING_WIDENINGS = 10


@dataclass
class BootstrapResult:
    """Outcome of a wild cluster bootstrap test on one coefficient."""

    coefficient: str
    t_observed: float
    p_value: float
    ci_low: float | None
    ci_high: float | None
    replications: int
    seed: int


def _row_clusters(op: DifferenceOperator | None, ds: ClusteredDataset) -> np.ndarray:
    """Location code of each differenced row (rows never mix locations)."""
    rows = ds.selected_indices() if op is None else op.selected_indices[op.anchor]
    return ds.location_codes[rows]


def _t_for_draws(draws: np.ndarray, null_value: float, k_cc: float) -> np.ndarray:
    """t statistics for bootstrap draws of (tested, mills) coefficients, one
    draw per row."""
    num = draws[:, 0] - null_value
    se = np.abs(draws[:, 1]) * np.sqrt(k_cc)
    # a zero se gives +-inf, or 0 where the numerator is 0 too
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / se
    t[np.isnan(t)] = 0.0
    return t


def wild_cluster_bootstrap(fit: TwoStepFit, op: DifferenceOperator | None,
                           ds: ClusteredDataset, coef: str,
                           null_value: float = 0.0, B: int = 999,
                           seed: int = 0, *,
                           full_enumeration: bool = False,
                           compute_ci: bool = False,
                           ci_level: float = 0.95) -> BootstrapResult:
    """Restricted wild cluster bootstrap p-value (and optional interval).

    Rademacher signs are drawn once per location per replication; all
    replications are generated up front from `seed`, so the result is
    deterministic and independent of scheduling. The p-value uses the
    add-one rule (1 + #{|t*| >= |t_obs|}) / (1 + B). With
    `full_enumeration` every one of the 2^J sign patterns is evaluated
    instead and the p-value is the exact fraction.

    A draw whose |t*| falls short of |t_obs| by no more than a relative
    1e-12 counts as an exceedance, like an exact tie. For the `mills`
    coefficient at null 0, |t*| = |t_obs| = 1/sqrt(k_cc) in every draw
    (the se is |mills coefficient| * sqrt(k_cc)), so that p-value is 1
    by construction instead of a share decided by rounding.

    With `compute_ci` the interval holds every null value whose p-value is
    at least 1 - ci_level, and a null is rejected when its p-value is
    strictly below it: at B = 399 and ci_level 0.95 a p-value of 20/400 is
    kept.
    """
    if B < MIN_REPLICATIONS and not full_enumeration:
        raise ValidationError(f"B must be at least {MIN_REPLICATIONS}")
    if coef not in fit.names:
        raise ValidationError(f"unknown coefficient {coef!r}; have {fit.names}")
    col = fit.names.index(coef)

    clusters = _row_clusters(op, ds)
    uniq, cluster_idx = np.unique(clusters, return_inverse=True)
    n_clusters = len(uniq)
    if n_clusters < 2:
        raise ValidationError("need at least 2 locations to cluster on")

    x = fit.design_diff
    y = fit.outcome_diff
    k = x.shape[1]
    # scale-free covariance: v_twostep(rho) = rho^2 * kmat
    kmat, _, _ = _sandwich(fit.g, fit.xtx_inv, op, fit.first, 1.0, "mills",
                           fit.residuals)
    k_cc = float(kmat[col, col])

    # observed and bootstrap t statistics use the same corrected-variance
    # form (se = |mills coefficient| * sqrt(k_cc)), regardless of which
    # variant the fit itself reports
    se_obs = float(abs(fit.rho) * np.sqrt(k_cc))
    theta_obs = float(fit.theta[col])
    if se_obs > 0:
        t_obs = (theta_obs - null_value) / se_obs
    else:
        t_obs = 0.0 if theta_obs == null_value else np.inf

    if full_enumeration:
        if n_clusters > 20:
            raise ValidationError("full enumeration supported for at most 20 clusters")
        patterns = ((np.arange(2**n_clusters)[:, None] >> np.arange(n_clusters)[None, :]) & 1)
        signs = (2 * patterns - 1).astype(np.float64)
    else:
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(B, n_clusters)) * 2.0 - 1.0
    reps = signs.shape[0]

    # The restricted fit is linear in the null value: theta_rest = a + null * b
    # and its residuals r0 - null * r1. So are the cluster scores C0 - null * C1
    # and every draw a + W C0' + null * (b - W C1'), which are formed once.
    others = [j for j in range(k) if j != col]
    a, b = np.zeros(k), np.zeros(k)
    b[col] = 1.0
    if others:
        coef_ab, *_ = np.linalg.lstsq(x[:, others], np.column_stack([y, x[:, col]]),
                                      rcond=None)
        a[others], b[others] = coef_ab[:, 0], -coef_ab[:, 1]
    r0, r1 = y - x @ a, x @ b
    kept = [col, k - 1]                      # the tested and the mills coefficient
    proj = fit.xtx_inv[kept] @ x.T

    def scores(resid):
        """Per-cluster projected residuals, 2 x G."""
        return np.stack([np.bincount(cluster_idx, weights=p_row * resid,
                                     minlength=n_clusters) for p_row in proj])

    draws0 = a[kept] + signs @ scores(r0).T
    draws1 = b[kept] - signs @ scores(r1).T

    tol = 1e-12 * max(1.0, float(np.abs(y).max()) if len(y) else 0.0)
    # every residual is within tol only if the one with the largest |r1| is,
    # so that row screens each null before a pass over all M rows
    pivot = int(np.argmax(np.abs(r1)))

    def p_at(null: float) -> float:
        t_ref = (theta_obs - null) / se_obs if se_obs > 0 else t_obs
        if (abs(r0[pivot] - null * r1[pivot]) <= tol
                and np.abs(r0 - null * r1).max() <= tol):
            # degenerate: every draw reproduces the observed statistic
            return 1.0
        t_star = _t_for_draws(draws0 + null * draws1, null, k_cc)
        count = int(np.sum(np.abs(t_star) >= abs(t_ref) * (1.0 - _TIE_SLACK)))
        if full_enumeration:
            return count / reps
        return (1 + count) / (1 + reps)

    p_value = p_at(null_value)

    ci_low = ci_high = None
    if compute_ci:
        # the level's complement as the decimal it is written in (1.0 - 0.95
        # is 0.050000000000000044, which would reject a p-value of exactly
        # 0.05); p and alpha are then the doubles nearest two fractions with
        # small denominators, so p < alpha orders them as the fractions do
        alpha = float(1 - Fraction(str(ci_level)))
        half = 6.0 * se_obs if se_obs > 0 else max(1.0, abs(theta_obs))
        lo_bracket = (theta_obs - half, theta_obs)
        hi_bracket = (theta_obs, theta_obs + half)
        rejected = null_value if p_value < alpha else None
        ci_low = _invert(p_at, lo_bracket, alpha, -half, rejected)
        ci_high = _invert(p_at, hi_bracket, alpha, half, rejected)

    return BootstrapResult(
        coefficient=coef, t_observed=t_obs, p_value=p_value,
        ci_low=ci_low, ci_high=ci_high, replications=reps, seed=seed,
    )


def _invert(p_at, bracket: tuple[float, float], alpha: float, widen: float,
            rejected: float | None = None, tol: float = 1e-4) -> float:
    """Bisect for the null value where the bootstrap p-value crosses alpha.

    The outer end moves by `widen` for the first `_CONSTANT_WIDENINGS`
    steps, then by steps that double. If p stays >= alpha through all of
    them, `rejected` (a null value with p < alpha, if any) closes the
    bracket when it lies on this side; otherwise the end was never
    bracketed and is -inf or +inf.
    """
    inner, outer = (bracket[1], bracket[0]) if widen < 0 else (bracket[0], bracket[1])
    step = widen
    for i in range(_CONSTANT_WIDENINGS + _DOUBLING_WIDENINGS):
        if p_at(outer) < alpha:
            break
        if i >= _CONSTANT_WIDENINGS:
            step *= 2
        outer += step
    else:
        if rejected is None or (rejected - inner) * widen <= 0:
            return -np.inf if widen < 0 else np.inf
        outer = rejected
    lo, hi = (outer, inner) if widen < 0 else (inner, outer)
    # p >= alpha at the inner end, < alpha at the outer end
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol * (1 + abs(mid)):
            break
        if (p_at(mid) >= alpha) == (widen > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
