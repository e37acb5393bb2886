"""Second-step estimation and the corrected variance.

`two_step_fit` runs the full pipeline on a dataset and a difference
operator: probit first stage, inverse Mills ratio per selected
observation, then OLS of the differenced outcome on the differenced
regressors W = [x, mills]. No constant enters the differenced regression
(the operator annihilates it).

The variance of the second-step coefficients combines two pieces built
from the same sandwich B (DW)' [V1 + V2] (DW) B' with B = [(DW)'DW]^-1:

V1 = rho^2 * D R D'         R   diagonal, entries d_i = 1 - lam_i (c_i + lam_i)
V2 = rho^2 * D S z Vb z' S D'   S = diag(1 - d_i), z the selection design,
                                Vb the probit coefficient covariance

The default middle (`variance="mills"`) is the rho^2 * d_i of V1, the
formula this package attributes to the paper. It models only the
rho * e1 part of the outcome error: under e2 = rho * e1 + v,
Var(e2 | selected) = Var(v) + rho^2 * d_i, so it leaves out Var(v) and the
whole covariance scales with rho-hat^2. `variance="residual"` replaces
rho^2 * d_i by a per-observation scale from the differenced residuals.

Everything is evaluated in factored form through G = D'(DW); no dense
N x N matrix is ever formed. `heckman_classic` is the no-differencing
baseline: OLS of the outcome on [1, x, mills] over the selected sample
with the same variance algebra at D = identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ClusteredDataset
from .differencing import DifferenceOperator
from .exceptions import EstimationError
from .numerics import mills_lambda_dee
from .probit import ProbitFit, ProbitSpec, fit_probit

RANK_TOL = 1e-10
MILLS_NAME = "mills"
VARIANCE_VARIANTS = ("mills", "residual", "classic")


@dataclass(frozen=True)
class _FirstStage:
    """One (dataset, probit) pair's selected `rows`, their probit design
    `z`, and lambda and d at z beta, shared by every second step."""

    probit: ProbitFit
    rows: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    lam: np.ndarray = field(repr=False)
    dee: np.ndarray = field(repr=False)


def _first_stage(ds: ClusteredDataset, probit: ProbitFit) -> _FirstStage:
    if not probit.converged:
        raise EstimationError("first-stage probit did not converge")
    rows = ds.selected_indices()
    z = probit.design(ds, rows)
    lam, dee = mills_lambda_dee(z @ probit.beta)
    return _FirstStage(probit, rows, z, lam, dee)


@dataclass
class TwoStepFit:
    """Second-step OLS fit with its corrected covariance.

    `theta` holds every coefficient in column order (`names`); `delta` is
    the x block and `rho` the mills coefficient, always last. `v1`/`v2` are
    the two sandwich components of `v_twostep` (selection-error part and
    first-step estimation part). `g` is G = D'(DW) (DW itself without an
    operator) and `first` the shared first stage, kept so that other
    sandwiches reuse them. `variance` is the middle `v_twostep` was built
    with.
    """

    names: list[str]
    theta: np.ndarray
    delta: np.ndarray
    rho: float
    v_twostep: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    residuals: np.ndarray
    first: _FirstStage
    design_diff: np.ndarray = field(repr=False)
    outcome_diff: np.ndarray = field(repr=False)
    xtx_inv: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    variance: str = "mills"

    @property
    def probit(self) -> ProbitFit:
        return self.first.probit

    def se(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.v_twostep), 0.0))

    def tstats(self) -> np.ndarray:
        se = self.se()
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(se > 0, self.theta / se, np.nan)


def _solve_ols(design: np.ndarray, y: np.ndarray, names: list[str]):
    """QR least squares with an explicit collinearity check.

    A column is declared collinear when its post-QR diagonal falls below
    RANK_TOL times the leading diagonal.
    """
    m, k = design.shape
    if m < k + 1:
        raise EstimationError(
            f"differenced system has {m} rows, need at least {k + 1} "
            f"for {k} coefficients"
        )
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    lead = diag.max() if k else 0.0
    bad = np.flatnonzero(diag < RANK_TOL * lead)
    if bad.size:
        raise EstimationError(
            f"design column {names[bad[0]]!r} is collinear after differencing"
        )
    theta = np.linalg.solve(r, q.T @ y)
    rinv = np.linalg.solve(r, np.eye(k))
    xtx_inv = rinv @ rinv.T
    return theta, xtx_inv


def _obs_residual_scale(op, residuals: np.ndarray) -> np.ndarray:
    """Per-observation squared-error scale from differenced residuals.

    Each row's squared residual is deflated by its weight norm, then
    averaged over the rows touching the observation. An observation in no
    row gets 0: its row of G = D'(DW) is zero, so its scale never reaches V1.
    """
    if op is None:
        return residuals**2
    totals = op.column_sums(residuals**2 / op.row_norms_sq())
    counts = op.column_sums(np.ones(op.rows))
    return np.divide(totals, counts, out=np.zeros(op.cols), where=counts > 0)


def _sandwich(g, xtx_inv, op, first: _FirstStage, rho, variant: str,
              residuals: np.ndarray | None):
    """B (DW)'[V1 + V2](DW) B' in factored form, given G = D'(DW); d, the
    selected probit design and Vb come from `first`. Returns (v, v1, v2)."""
    if variant not in VARIANCE_VARIANTS:
        raise EstimationError(f"unknown variance variant {variant!r}")
    if variant == "mills":
        omega = (rho * rho) * first.dee
    elif variant == "classic":
        # textbook two-step middle: residual-based total error variance
        # less the explained truncation part, sigma2 - rho^2 * (1 - d_i)
        if op is not None:
            raise EstimationError(
                "the classic variance middle is defined for the undifferenced fit"
            )
        one_minus_d = 1.0 - first.dee
        sigma2 = float(residuals @ residuals) / len(residuals) \
            + float(one_minus_d.mean()) * rho * rho
        omega = np.maximum(sigma2 - (rho * rho) * one_minus_d, 0.0)
    else:
        omega = _obs_residual_scale(op, residuals)
    # B enters each factor before the meat is formed: B times a rounded
    # meat would amplify its rounding by the condition number of B
    gb = g @ xtx_inv                                # n x k
    bgz = gb.T @ ((1.0 - first.dee)[:, None] * first.z)   # k x kz
    v1 = (gb * omega[:, None]).T @ gb
    v2 = (rho * rho) * bgz @ first.probit.vbeta @ bgz.T
    v = v1 + v2
    return 0.5 * (v + v.T), v1, v2


def variance_two_step(fit: TwoStepFit, op: DifferenceOperator | None,
                      variant: str = "mills") -> np.ndarray:
    """Corrected covariance of the second-step coefficients.

    Recomputes the sandwich from the pieces stored on `fit` (G = D'(DW),
    its first stage), so callers can probe structural cases (a fit with
    rho forced to zero, a first stage with vbeta zeroed) without
    refitting. `variant="residual"` swaps the default diagonal rho^2 * d_i
    for empirical squared residuals.
    """
    v, _, _ = _sandwich(fit.g, fit.xtx_inv, op, fit.first, fit.rho,
                        variant, fit.residuals)
    return v


def _second_step(ds: ClusteredDataset, op: DifferenceOperator | None,
                 first: _FirstStage, variance: str) -> TwoStepFit:
    """OLS of D y on D [1?, x, mills] over the selected rows, then the
    sandwich. Without an operator D = I and the intercept enters."""
    rows = first.rows
    intercept = int(op is None)
    names = ["const"] * intercept + list(ds.x_names) + [MILLS_NAME]
    w = np.column_stack([np.ones((len(rows), intercept)), ds.x[rows], first.lam])
    y = ds.outcome[rows]
    if op is not None:
        w, y = op.apply(w), op.apply(y)
    theta, xtx_inv = _solve_ols(w, y, names)
    residuals = y - w @ theta
    rho = float(theta[-1])
    # D'(DW), n_sel x k
    g = w if op is None else op.apply_transpose(w)
    v, v1, v2 = _sandwich(g, xtx_inv, op, first, rho, variance, residuals)
    return TwoStepFit(
        names=names, theta=theta, delta=theta[intercept:-1], rho=rho,
        v_twostep=v, v1=v1, v2=v2, residuals=residuals, first=first,
        design_diff=w, outcome_diff=y, xtx_inv=xtx_inv, g=g, variance=variance,
    )


def two_step_fit(ds: ClusteredDataset, op: DifferenceOperator,
                 probit_spec: ProbitSpec | None = None, *,
                 probit_fit: ProbitFit | None = None,
                 variance: str = "mills") -> TwoStepFit:
    """Differenced two-step fit: probit, mills ratio, differenced OLS.

    The operator must have been built over the selected subsample of `ds`
    (same observations, same order). Pass `probit_fit` to reuse a first
    stage across several operators.
    """
    rows = ds.selected_indices()
    if op.cols != len(rows) or not np.array_equal(op.selected_indices, rows):
        raise EstimationError(
            "operator columns do not match the dataset's selected observations"
        )
    probit = probit_fit or fit_probit(ds, probit_spec)
    return _second_step(ds, op, _first_stage(ds, probit), variance)


def heckman_classic(ds: ClusteredDataset, probit_spec: ProbitSpec | None = None,
                    *, probit_fit: ProbitFit | None = None,
                    variance: str = "classic") -> TwoStepFit:
    """No-differencing baseline: OLS of the outcome on [1, x, mills] over the
    selected sample, with the textbook two-step-corrected covariance.

    The default middle matrix is the classic residual-based one,
    sigma2-hat - rho-hat^2 * (1 - d_i) with sigma2-hat = e'e/N +
    mean(1 - d) * rho-hat^2; `variance="mills"` instead applies the
    diagonal the differenced fits use by default (rho^2 * d_i), and
    `variance="residual"` the per-observation squared residuals. The
    first-step correction term is identical across variants.
    """
    probit = probit_fit or fit_probit(ds, probit_spec)
    return _second_step(ds, None, _first_stage(ds, probit), variance)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def coefficient_table(fit: TwoStepFit) -> list[tuple[str, float, float, float]]:
    """Rows of (name, estimate, se, t)."""
    se = fit.se()
    t = fit.tstats()
    return [(n, float(b), float(s), float(tv))
            for n, b, s, tv in zip(fit.names, fit.theta, se, t)]


def write_coefficients_csv(fit: TwoStepFit, path, bootstrap: dict | None = None) -> None:
    """Write (name, estimate, se, t) rows; full float precision.

    `bootstrap` maps coefficient name -> BootstrapResult and appends the
    columns (p_boot, ci_low, ci_high, B, seed) when given.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = "name,estimate,se,t"
        if bootstrap:
            header += ",p_boot,ci_low,ci_high,B,seed"
        fh.write(header + "\n")
        for name, est, se, t in coefficient_table(fit):
            row = f'"{name}",{est!r},{se!r},{t!r}'
            if bootstrap:
                b = bootstrap[name]
                row += (f",{b.p_value!r},{b.ci_low!r},{b.ci_high!r},"
                        f"{b.replications},{b.seed}")
            fh.write(row + "\n")


def report_text(fit: TwoStepFit, extra: dict | None = None) -> str:
    """Flat key-value text report of a fit.

    `v1_trace_share` and `v2_trace_share` split the covariance between its
    selection-error and first-step parts: tr(V_i) / (tr(V1) + tr(V2)).
    """
    tr1, tr2 = float(np.trace(fit.v1)), float(np.trace(fit.v2))
    total = tr1 + tr2
    share1, share2 = (tr1 / total, tr2 / total) if total > 0 else (np.nan, np.nan)
    lines = [
        f"n_selected = {len(fit.first.rows)}",
        f"m_rows = {len(fit.outcome_diff)}",
        f"probit_converged = {fit.probit.converged}",
        f"probit_iterations = {fit.probit.iterations}",
        f"probit_gradient_max = {fit.probit.gradient_max:.3e}",
        f"probit_newton_decrement = {fit.probit.newton_decrement:.3e}",
        f"probit_dropped_dummies = {len(fit.probit.dropped_dummies)}",
        f"rho = {fit.rho:.6g}",
        f"variance = {fit.variance}",
        f"v1_trace_share = {share1:.4f}",
        f"v2_trace_share = {share2:.4f}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    lines.append("")
    lines.append(f"{'name':<16}{'estimate':>14}{'se':>14}{'t':>10}")
    for name, b, s, t in coefficient_table(fit):
        lines.append(f"{name:<16}{b:>14.6g}{s:>14.6g}{t:>10.4g}")
    return "\n".join(lines) + "\n"
