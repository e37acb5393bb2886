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
mills coefficient (B x 2 each). Whether a draw's |t*| reaches |t_obs| at
null t is then the sign of a product of two quadratics in t, so one sort
of their real roots gives p(t) at every t, and the interval, exactly. The
per-draw t uses the corrected covariance, which for a fixed first stage
scales with the draw's squared mills coefficient; its scale-free part is
computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ClusteredDataset
from .differencing import DifferenceOperator
from .estimator import TwoStepFit, _sandwich
from .exceptions import ValidationError

# fewest bootstrap replications a sampled (not enumerated) test accepts
MIN_REPLICATIONS = 99

# a null value stays in the interval when its p-value is at least ALPHA.
# p and ALPHA are the doubles nearest two fractions with small denominators,
# so p < ALPHA orders them as the fractions do: 20/400 is kept
ALPHA = 0.05
# relative shortfall of |t*| below |t_obs| still counted as a tie
_TIE_SLACK = 1e-12


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
    pieces: int | None = None   # intervals that make up {null : p >= ALPHA}


def wild_cluster_bootstrap(fit: TwoStepFit, op: DifferenceOperator | None,
                           ds: ClusteredDataset, coef: str,
                           null_value: float = 0.0, B: int = 999,
                           seed: int = 0, *,
                           full_enumeration: bool = False,
                           compute_ci: bool = False) -> BootstrapResult:
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

    With `compute_ci`, (ci_low, ci_high) is the piece of {null : p >= ALPHA}
    that holds the estimate, -inf or inf where it is unbounded (20/400 is
    kept). p is not monotone in the null, and `pieces` counts all the
    pieces of the set. With a zero se (mills coefficient exactly 0) the
    interval is the estimate alone.
    """
    if B < MIN_REPLICATIONS and not full_enumeration:
        raise ValidationError(f"B must be at least {MIN_REPLICATIONS}")
    if coef not in fit.names:
        raise ValidationError(f"unknown coefficient {coef!r}; have {fit.names}")
    col = fit.names.index(coef)

    # the location of each differenced row (rows never mix locations)
    rows = ds.selected_indices() if op is None else op.selected_indices[op.anchor]
    uniq, cluster_idx = np.unique(ds.location_codes[rows], return_inverse=True)
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
    t_obs = ((theta_obs - null_value) / se_obs if se_obs > 0
             else 0.0 if theta_obs == null_value else np.inf)

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

    def share(count):
        """The p-value of an exceedance count."""
        return count / reps if full_enumeration else (1 + count) / (1 + reps)

    if np.abs(r0 - null_value * r1).max() <= 1e-12 * max(1.0, float(np.abs(y).max())):
        count = reps   # degenerate: every draw reproduces the observed statistic
    else:
        here = draws0 + null_value * draws1
        # a zero se gives +-inf, or 0 where the numerator is 0 too
        with np.errstate(divide="ignore", invalid="ignore"):
            t_star = (here[:, 0] - null_value) / (np.abs(here[:, 1]) * np.sqrt(k_cc))
        t_star[np.isnan(t_star)] = 0.0
        count = int(np.sum(np.abs(t_star) >= abs(t_obs) * (1.0 - _TIE_SLACK)))

    ci_low = ci_high = pieces = None
    if compute_ci and se_obs > 0:
        ci_low, ci_high, pieces = _kept_set(draws0, draws1, theta_obs, se_obs,
                                            np.sqrt(k_cc) * (1.0 - _TIE_SLACK), share)
    elif compute_ci:   # |t_obs| is infinite at every null but the estimate
        ci_low, ci_high, pieces = theta_obs, theta_obs, 1
    return BootstrapResult(
        coefficient=coef, t_observed=t_obs, p_value=share(count),
        ci_low=ci_low, ci_high=ci_high, replications=reps, seed=seed, pieces=pieces,
    )


def _kept_set(draws0: np.ndarray, draws1: np.ndarray, theta_obs: float, se_obs: float,
              c: float, share) -> tuple[float, float, int]:
    """(low, high, pieces): the ends of the piece of {t : p(t) >= ALPHA}
    that holds theta_obs, and the number of pieces. `share` turns an
    exceedance count into its p-value.

    At t = theta_obs + s a draw's n = theta* - t and mills coefficient m are
    affine in s, and it exceeds when se_obs |n| >= c |s m|, that is when
    f+(s) f-(s) >= 0 for the quadratics f+-(s) = se_obs n(s) +- c s m(s).
    Every draw exceeds beside s = 0, where f+ = f- = se_obs n, and flips at
    each real root of f+ or f-; on each side one sort of the roots and a
    cumulative sum of +-1 flips give the count on every gap between roots.
    """
    at_hat = draws0 + theta_obs * draws1
    n0, m0 = at_hat[:, 0] - theta_obs, at_hat[:, 1]
    n1, m1 = draws1[:, 0] - 1.0, draws1[:, 1]
    const = se_obs * n0
    roots = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sign in (1.0, -1.0):
            a, b = sign * c * m1, se_obs * n1 + sign * c * m0
            # the stable pair of roots, each polished by one Newton step; no
            # real root, or none at all when a = 0, comes out non-finite
            q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * const), b))
            for r in (q / a, const / q):
                step = ((a * r + b) * r + const) / (2.0 * a * r + b)
                roots.append(np.where(np.isfinite(step), r - step, r))
    roots = np.column_stack(roots)
    # where n0 is 0 so are f+ and f- at 0, and beside 0 their product has
    # the sign of their slopes' product
    exceeds = (n0 != 0) | ((se_obs * n1) ** 2 >= (c * m0) ** 2)

    def reach(side: float) -> tuple[float, np.ndarray]:
        """How far the piece reaches on one side, and whether each gap
        between roots there, nearest first, is kept."""
        dist = np.sort(np.where(side * roots > 0, side * roots, np.inf), axis=1)
        found = np.isfinite(dist)
        # a draw that exceeds before its j-th root stops there when j is even
        stops = exceeds[:, None] ^ (np.arange(roots.shape[1]) % 2 == 1)
        start = dist[found]
        order = np.argsort(start)
        start = start[order]
        count = np.count_nonzero(exceeds) + np.cumsum(np.where(stops[found], -1, 1)[order])
        wide = np.append(start[1:] > start[:-1], True)   # roots at one point: no gap
        kept = share(count[wide]) >= ALPHA
        fails = np.flatnonzero(~kept)
        return (float(start[wide][fails[0]]) if fails.size else np.inf), kept

    (low, left), (high, right) = reach(-1.0), reach(1.0)
    verdicts = np.concatenate([left[::-1], [True], right])
    pieces = int(verdicts[0]) + int(np.count_nonzero(verdicts[1:] > verdicts[:-1]))
    return theta_obs - low, theta_obs + high, pieces
