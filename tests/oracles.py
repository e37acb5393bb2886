"""Independent dense oracles for the second step and its covariance.

These deliberately reimplement the estimator naively: the difference
operator is materialised as a dense matrix, the coefficient solve uses
dense normal equations, the covariance assembles the full N x N pieces
V1 = rho^2 D R D' and V2 = rho^2 D S z Vb z' S D' explicitly, and the
inverse Mills ratio comes from scipy.stats.norm rather than the package's
own kernels. `row_level_bootstrap` is the wild cluster bootstrap evaluated
draw by draw over every differenced row. `loop_operator` builds a
difference operator row by row from the graph's neighbor sets.
"""

import numpy as np
from scipy.stats import norm


def loop_operator(graph, selected, kind, index_values=None, bandwidth=None,
                  kernel=None):
    """Reference CSR arrays (indptr, indices, data) of a difference operator.

    Each selected observation's partners are its selected neighbors from
    `graph.neighbors_of` in its own location, in ascending column order.
    pairwise: one +1/-1 row per partner above the anchor. fixed_effect: +1
    at the anchor and -1/N_d at each partner. kernel: +1 at the anchor and
    -K_k / sum(K) at each partner with K_k > 0, where
    K_k = kernel((index_anchor - index_k) / h) / h and the sum runs in
    partner order. Anchors without a partner give no row.
    """
    sel = [int(i) for i in selected]
    col_of = {obs: c for c, obs in enumerate(sel)}
    loc = graph.location_codes
    indptr, indices, data = [0], [], []

    def add_row(entries):
        for col, weight in sorted(entries):
            indices.append(col)
            data.append(weight)
        indptr.append(len(indices))

    for c, obs in enumerate(sel):
        partners = sorted(col_of[k] for k in graph.neighbors_of(obs)
                          if k in col_of and loc[k] == loc[obs])
        if kind == "pairwise":
            for k in partners:
                if k > c:
                    add_row([(c, 1.0), (k, -1.0)])
            continue
        if not partners:
            continue
        if kind == "fixed_effect":
            weights = [1.0 / float(len(partners))] * len(partners)
        else:
            u = (index_values[c] - index_values[partners]) / bandwidth
            if kernel == "gaussian":
                raw = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi) / bandwidth
            else:
                raw = np.where(np.abs(u) < 1.0, 0.75 * (1.0 - u * u), 0.0) / bandwidth
            partners = [k for k, r in zip(partners, raw) if r > 0]
            raw = [float(r) for r in raw if r > 0]
            total = 0.0
            for r in raw:
                total += r
            weights = [r / total for r in raw]
        if partners:
            add_row([(c, 1.0)] + [(k, -w) for k, w in zip(partners, weights)])
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data, dtype=np.float64))


def dense_operator(op) -> np.ndarray:
    r, c, w = op.entries
    dense = np.zeros((op.rows, op.cols))
    dense[r, c] = w
    return dense


def dense_mills(index: np.ndarray):
    lam = norm.pdf(index) / norm.cdf(index)
    dee = 1.0 - lam * (index + lam)
    return lam, dee


def dense_residual_scale(delta_mat: np.ndarray, resid: np.ndarray) -> np.ndarray:
    """Per-observation squared-error scale of the "residual" middle: each
    row's squared residual over its squared weight norm, averaged over the
    rows with a nonzero weight on the observation; untouched observations
    take the mean over rows."""
    scaled = resid**2 / (delta_mat**2).sum(axis=1)
    touches = (delta_mat != 0).astype(float)
    counts = touches.sum(axis=0)
    out = np.full(delta_mat.shape[1], scaled.mean())
    hit = counts > 0
    out[hit] = (touches.T @ scaled)[hit] / counts[hit]
    return out


def dense_two_step(ds, op, probit, middle="mills"):
    """Brute-force theta-hat and covariance given a first-stage fit.

    `middle` is "mills" (rho^2 * d_i) or "residual" (empirical scale from
    the differenced residuals)."""
    rows = ds.selected_indices()
    delta_mat = dense_operator(op)
    z_sel = probit.design(ds, rows)
    index = z_sel @ probit.beta
    lam, dee = dense_mills(index)
    w = np.column_stack([ds.x[rows], lam])
    dw = delta_mat @ w
    dy = delta_mat @ ds.outcome[rows]

    xtx = dw.T @ dw
    theta = np.linalg.solve(xtx, dw.T @ dy)
    b = np.linalg.inv(xtx)
    rho = theta[-1]

    if middle == "mills":
        omega = rho**2 * dee
    else:
        omega = dense_residual_scale(delta_mat, dy - dw @ theta)
    v1_full = delta_mat @ np.diag(omega) @ delta_mat.T
    s = np.diag(1.0 - dee)
    v2_full = rho**2 * delta_mat @ s @ z_sel @ probit.vbeta @ z_sel.T @ s @ delta_mat.T
    v = b @ dw.T @ (v1_full + v2_full) @ dw @ b
    return theta, v


def dense_heckman(ds, probit, middle="mills"):
    rows = ds.selected_indices()
    z_sel = probit.design(ds, rows)
    index = z_sel @ probit.beta
    lam, dee = dense_mills(index)
    w = np.column_stack([np.ones(len(rows)), ds.x[rows], lam])
    y = ds.outcome[rows]
    xtx = w.T @ w
    theta = np.linalg.solve(xtx, w.T @ y)
    b = np.linalg.inv(xtx)
    rho = theta[-1]
    if middle == "mills":
        v1_full = rho**2 * np.diag(dee)
    else:  # textbook residual-based middle
        e = y - w @ theta
        sigma2 = e @ e / len(e) + (1.0 - dee).mean() * rho**2
        v1_full = np.diag(np.maximum(sigma2 - rho**2 * (1.0 - dee), 0.0))
    s = np.diag(1.0 - dee)
    v2_full = rho**2 * s @ z_sel @ probit.vbeta @ z_sel.T @ s
    v = b @ w.T @ (v1_full + v2_full) @ w @ b
    return theta, v


def row_level_bootstrap(fit, op, ds, coef, null_value=0.0, B=999, seed=0, *,
                        full_enumeration=False, ci_level=0.95):
    """Reference wild cluster bootstrap: (p_value, ci_low, ci_high).

    Every draw rebuilds the synthetic outcome y* = fitted + w * resid over
    all M differenced rows and projects it, theta* = (X'X)^-1 X' y*, so each
    null value costs a draws x M array. The restricted fit, the studentising
    scale and the interval search are the package's own, so a difference
    from `wild_cluster_bootstrap` can only come from how theta* is formed.
    """
    from spatsel.estimator import _sandwich
    from spatsel.inference import _invert, _restricted

    col = fit.names.index(coef)
    x, y = fit.design_diff, fit.outcome_diff
    rows = ds.selected_indices() if op is None else op.selected_indices[op.anchor]
    uniq, cluster_idx = np.unique(ds.location_codes[rows], return_inverse=True)
    n_clusters = len(uniq)
    kmat, _, _ = _sandwich(fit.g, fit.xtx_inv, op, fit.dee, 1.0, fit.z_sel,
                           fit.probit.vbeta, "mills", fit.residuals)
    k_cc = float(kmat[col, col])
    proj = fit.xtx_inv @ x.T
    theta_obs = float(fit.theta[col])
    se_obs = float(abs(fit.rho) * np.sqrt(k_cc))
    assert se_obs > 0
    if full_enumeration:
        patterns = (np.arange(2**n_clusters)[:, None] >> np.arange(n_clusters)) & 1
        signs = 2.0 * patterns - 1.0
    else:
        signs = np.random.default_rng(seed).integers(0, 2, size=(B, n_clusters)) * 2.0 - 1.0

    def p_at(null):
        t_ref = (theta_obs - null) / se_obs
        _, fitted, resid = _restricted(x, y, col, null)
        if np.abs(resid).max() <= 1e-12 * max(1.0, float(np.abs(y).max())):
            return 1.0
        theta = (fitted[None, :] + signs[:, cluster_idx] * resid[None, :]) @ proj.T
        num = theta[:, col] - null
        se = np.abs(theta[:, fit.mills_col]) * np.sqrt(k_cc)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(se > 0, num / se, np.where(num != 0, np.inf * np.sign(num), 0.0))
        count = int(np.sum(np.abs(t) >= abs(t_ref) * (1.0 - 1e-12)))
        if full_enumeration:
            return count / len(signs)
        return (1 + count) / (1 + len(signs))

    alpha = 1.0 - ci_level
    half = 6.0 * se_obs
    p_value = p_at(null_value)
    rejected = null_value if p_value < alpha else None
    return (p_value,
            _invert(p_at, (theta_obs - half, theta_obs), alpha, -half, rejected),
            _invert(p_at, (theta_obs, theta_obs + half), alpha, half, rejected))
