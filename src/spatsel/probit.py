"""First-step probit maximum likelihood for the selection equation.

Fits P(selected = 1 | z) = cdf(design @ beta) on the full sample by
damped Newton-Raphson: step-halving far from the optimum, full Newton
steps once the predicted gain falls below rounding. The design is the z
block, optionally a location-dummy block, and optionally an intercept, in
that order. Location dummies that perfectly predict selection (the
location's indicator is constant) are dropped and recorded rather than
letting the likelihood diverge; with an intercept present the first
remaining location serves as the reference category.

Special functions run once per point: each line-search candidate gets one
log cdf pass at its signed index c = +-(design @ beta), which gives its
log-likelihood, and the accepted candidate's c then gets one Mills pass,
which gives the next score and information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .dataset import ClusteredDataset
from .exceptions import EstimationError, SeparationError
from .numerics import mills_lambda_dee

GRADIENT_TOL = 1e-8
# Newton decrement g'H^-1 g below which the full step is taken unchecked:
# its predicted log-likelihood gain is below the rounding of the sum
DECREMENT_FLOOR = 1e-10
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class ProbitSpec:
    """First-stage specification switches."""

    include_location_dummies: bool = False
    include_intercept: bool = True


@dataclass
class ProbitFit:
    """Converged (or diagnosed) probit fit.

    `beta` is ordered (z block, kept location dummies, intercept). `vbeta`
    is the inverse observed information at the optimum. `dropped_dummies`
    lists location ids whose dummy was removed for separation.
    `gradient_max` and `newton_decrement` are max|g| and g'H^-1 g at the
    returned beta.
    """

    beta: np.ndarray
    vbeta: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    dropped_dummies: list
    column_names: list[str]
    z_dim: int
    dummy_locations: list
    reference_location: object | None
    include_intercept: bool
    gradient_max: float = float("nan")
    newton_decrement: float = float("nan")

    def design(self, ds: ClusteredDataset, rows: np.ndarray | None = None) -> np.ndarray:
        """Design matrix rows matching the columns this fit was estimated on."""
        return _build_design(ds, self.dummy_locations, self.include_intercept, rows)

    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.vbeta))


def _build_design(ds: ClusteredDataset, dummy_locations, include_intercept: bool,
                  rows: np.ndarray | None = None) -> np.ndarray:
    z = ds.z if rows is None else ds.z[rows]
    if not dummy_locations and not include_intercept:
        return z
    q = z.shape[1]
    design = np.zeros((z.shape[0], q + len(dummy_locations) + include_intercept))
    design[:, :q] = z
    if dummy_locations:
        # the id of each location code, then the design column of each code
        # (-1 without a dummy), then one scatter of ones at (row, column)
        ids = np.empty(ds.location_codes.max() + 1, dtype=ds.location_ids.dtype)
        ids[ds.location_codes] = ds.location_ids
        column = dict(zip(dummy_locations, range(q, q + len(dummy_locations))))
        col_of = np.array([column.get(lid, -1) for lid in ids.tolist()], dtype=np.int64)
        codes = ds.location_codes if rows is None else ds.location_codes[rows]
        cols = col_of[codes]
        hit = np.flatnonzero(cols >= 0)
        design[hit, cols[hit]] = 1.0
    if include_intercept:
        design[:, -1] = 1.0
    return design


def _candidate(design, sign, s_mask, beta):
    """Signed index c = sign * (design @ beta), +w where selected and -w
    where not, with the log-likelihood sum of log cdf(c) per group."""
    c = sign * (design @ beta)
    return c, float(log_ndtr(c[s_mask]).sum() + log_ndtr(c[~s_mask]).sum())


def log_likelihood(design: np.ndarray, selected: np.ndarray, beta: np.ndarray) -> float:
    """Probit log-likelihood at beta (used directly by tests as an oracle hook)."""
    s = np.asarray(selected, dtype=bool)
    return _candidate(design, np.where(s, 1.0, -1.0), s, beta)[1]


def _score_and_information(design, sign, c):
    # one Mills evaluation at the signed index c
    lam, dee = mills_lambda_dee(c)
    # d/dw log cdf(w) = lam(w); d/dw log cdf(-w) = -lam(-w)
    grad = design.T @ (sign * lam)
    # -d2/dw2 log-likelihood contribution = 1 - dee at the signed index
    info = (design * (1.0 - dee)[:, None]).T @ design
    return grad, info


def fit_probit(ds: ClusteredDataset, spec: ProbitSpec | None = None) -> ProbitFit:
    """Maximise the probit likelihood on the full sample.

    Starts at beta = 0 and iterates Newton steps until the gradient
    max-norm falls below 1e-8 or 100 iterations pass. A step is halved until
    the log-likelihood does not fall, except once the Newton decrement
    g'H^-1 g is at most 1e-10: there the predicted gain is below the
    rounding of the log-likelihood sum, so the line search could not tell a
    good step from a bad one, and the full step is taken (the Newton phase
    of damped Newton). After 40 candidates without a rise the last one, at
    2^-39 of the step, is taken. Returns a fit with `converged=False`
    rather than raising when the iteration cap binds.
    """
    spec = spec or ProbitSpec()

    s_mask = ds.selected
    n_sel = int(s_mask.sum())
    if n_sel == 0 or n_sel == ds.n_obs:
        raise SeparationError(
            "selection indicator is constant across the sample; "
            "the probit likelihood has no maximiser"
        )

    dropped: list = []
    dummy_locations: list = []
    reference = None
    if spec.include_location_dummies:
        # ids are read at each location's first row, in code order; a dummy
        # separates when none or all of its location's rows are selected
        codes = ds.location_codes
        _, first = np.unique(codes, return_index=True)
        n_sel_at = np.bincount(codes[s_mask], minlength=len(first))
        constant = (n_sel_at == 0) | (n_sel_at == np.bincount(codes))
        dropped = list(ds.location_ids[first[constant]])
        kept = list(ds.location_ids[first[~constant]])
        if not kept:
            raise SeparationError(
                "every location's selection indicator is constant; "
                "all location dummies would be dropped"
            )
        if spec.include_intercept:
            reference = kept[0]
            dummy_locations = kept[1:]
        else:
            dummy_locations = kept

    design = _build_design(ds, dummy_locations, spec.include_intercept)
    names = list(ds.z_names) + [f"loc[{lid}]" for lid in dummy_locations]
    if spec.include_intercept:
        names.append("const")

    sign = np.where(s_mask, 1.0, -1.0)
    beta = np.zeros(design.shape[1])
    c, loglik = _candidate(design, sign, s_mask, beta)
    for iterations in range(MAX_ITERATIONS + 1):
        grad, info = _score_and_information(design, sign, c)
        converged = bool(np.max(np.abs(grad)) <= GRADIENT_TOL)
        if converged or iterations == MAX_ITERATIONS:
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise EstimationError(
                "selection design matrix is rank deficient after dummy drops"
            ) from None
        checked = grad @ step > DECREMENT_FLOOR
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            cand_c, cand_ll = _candidate(design, sign, s_mask, cand)
            if not checked or cand_ll >= loglik - 1e-13:
                break
            scale *= 0.5
        # the last candidate evaluated is taken, so beta, c and loglik
        # describe one point even when every halving failed
        beta, c, loglik = cand, cand_c, cand_ll

    try:
        vbeta = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise EstimationError(
            "observed information is singular at the optimum"
        ) from None
    vbeta = 0.5 * (vbeta + vbeta.T)

    return ProbitFit(
        beta=beta, vbeta=vbeta, loglik=loglik, iterations=iterations,
        converged=converged, dropped_dummies=dropped, column_names=names,
        z_dim=ds.q, dummy_locations=dummy_locations,
        reference_location=reference, include_intercept=spec.include_intercept,
        gradient_max=float(np.max(np.abs(grad))),
        newton_decrement=float(grad @ vbeta @ grad),
    )


def predict_index(fit: ProbitFit, ds: ClusteredDataset) -> np.ndarray:
    """Fitted selection index design @ beta for every selected observation,
    in dataset order."""
    if not fit.converged:
        raise EstimationError("probit fit did not converge; refusing to predict")
    rows = ds.selected_indices()
    return fit.design(ds, rows) @ fit.beta
