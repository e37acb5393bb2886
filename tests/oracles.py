"""Independent dense oracles for the second step and its covariance.

These deliberately reimplement the estimator naively: the difference
operator is materialised as a dense matrix, the coefficient solve uses
dense normal equations, the covariance assembles the full N x N pieces
V1 = rho^2 D R D' and V2 = rho^2 D S z Vb z' S D' explicitly, and the
inverse Mills ratio comes from scipy.stats.norm rather than the package's
own kernels. `row_level_bootstrap` is the wild cluster bootstrap evaluated
draw by draw over every differenced row, with a restricted refit at every
null value (`row_level_p_at`), and its interval from per-draw quartics
solved by np.roots. `neighbors_of` lists one observation's
neighbors in a graph, and `loop_operator` builds a difference operator row
by row from those sets.
`row_loop_load_csv` reads a dataset CSV one row at a time and
`row_loop_write_csv` writes one the same way. `loop_build_design` builds
the probit design with one location comparison per dummy column.
`two_pass_fit_probit` is the damped Newton probit loop that forms the
index and signs it again for the score and for the log-likelihood.
"""

import csv

import numpy as np
from scipy.special import log_ndtr
from scipy.stats import norm

from spatsel.dataset import ClusteredDataset, CsvSchema, _detect_block, _records
from spatsel.exceptions import EstimationError, ValidationError
from spatsel.numerics import mills_lambda_dee
from spatsel.probit import DECREMENT_FLOOR, GRADIENT_TOL, MAX_ITERATIONS


def neighbors_of(graph, i: int) -> set:
    """The neighbor set of observation index i in a `NeighborhoodGraph`
    (self excluded)."""
    if graph.group_codes is not None:
        return set(np.flatnonzero(graph.group_codes == graph.group_codes[i]).tolist()) - {i}
    return set(graph.indices[graph.indptr[i]:graph.indptr[i + 1]].tolist())


def loop_operator(graph, selected, kind, index_values=None, bandwidth=None,
                  kernel=None):
    """Reference CSR arrays (indptr, indices, data) of a difference operator.

    Each selected observation's partners are its selected neighbors from
    `neighbors_of` in its own location, in ascending column order.
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
        partners = sorted(col_of[k] for k in neighbors_of(graph, obs)
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


def loop_build_design(ds, dummy_locations, include_intercept, rows=None):
    """Reference probit design: z, one `location_ids == lid` pass per dummy
    column, then the intercept, the per-dummy loop `_build_design` replaced."""
    z = ds.z if rows is None else ds.z[rows]
    loc = ds.location_ids if rows is None else ds.location_ids[rows]
    blocks = [z]
    for lid in dummy_locations:
        blocks.append((loc == lid).astype(np.float64)[:, None])
    if include_intercept:
        blocks.append(np.ones((z.shape[0], 1)))
    return np.hstack(blocks) if len(blocks) > 1 else z


def two_pass_fit_probit(design, selected):
    """Reference probit loop: each iteration recomputes design @ beta and
    signs it for the score, and each line-search candidate recomputes it
    for the log-likelihood; after the loop the score is evaluated once
    more. After 40 failed halvings beta moves by 2^-40 of the step while
    the log-likelihood keeps the 2^-39 candidate's value; `exhausted` says
    whether that happened. Returns a dict of the ProbitFit fields the loop
    sets."""
    s = np.asarray(selected, dtype=bool)

    def loglik_at(beta):
        w = design @ beta
        return float(log_ndtr(w[s]).sum() + log_ndtr(-w[~s]).sum())

    def score_and_information(w):
        lam, dee = mills_lambda_dee(np.where(s, w, -w))
        grad = design.T @ np.where(s, lam, -lam)
        info = (design * (1.0 - dee)[:, None]).T @ design
        return grad, info

    k = design.shape[1]
    beta = np.zeros(k)
    loglik = loglik_at(beta)
    converged = False
    exhausted = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        grad, info = score_and_information(design @ beta)
        if np.max(np.abs(grad)) <= GRADIENT_TOL:
            converged = True
            iterations -= 1
            break
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise EstimationError("rank deficient") from None
        scale = 1.0
        if grad @ step > DECREMENT_FLOOR:
            for _ in range(40):
                cand_ll = loglik_at(beta + scale * step)
                if cand_ll >= loglik - 1e-13:
                    break
                scale *= 0.5
            else:
                exhausted = True
        else:
            cand_ll = loglik_at(beta + step)
        beta = beta + scale * step
        loglik = cand_ll
    else:
        grad, info = score_and_information(design @ beta)
        converged = bool(np.max(np.abs(grad)) <= GRADIENT_TOL)
        iterations = MAX_ITERATIONS
    try:
        vbeta = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        raise EstimationError("singular information") from None
    vbeta = 0.5 * (vbeta + vbeta.T)
    return dict(beta=beta, vbeta=vbeta, loglik=loglik, iterations=iterations,
                converged=converged, gradient_max=float(np.max(np.abs(grad))),
                newton_decrement=float(grad @ vbeta @ grad), exhausted=exhausted)


def dense_operator(op) -> np.ndarray:
    return op.matrix.toarray()


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


def _restricted(x: np.ndarray, y: np.ndarray, col: int, null_value: float):
    """Null-imposed OLS: coefficient `col` fixed at null_value. Returns
    (theta_rest, fitted, residuals)."""
    k = x.shape[1]
    others = [j for j in range(k) if j != col]
    y_adj = y - null_value * x[:, col]
    theta_rest = np.zeros(k)
    theta_rest[col] = null_value
    if others:
        coef, *_ = np.linalg.lstsq(x[:, others], y_adj, rcond=None)
        theta_rest[others] = coef
    fitted = x @ theta_rest
    return theta_rest, fitted, y - fitted


def _row_level_draws(fit, op, ds, coef, B, seed, full_enumeration):
    """(draws_at, theta_obs, se_obs, k_cc). `draws_at(null)` refits the
    restricted model at the null (`_restricted`), rebuilds every draw's
    synthetic outcome y* = fitted + w * resid over all M differenced rows and
    projects it, theta* = (X'X)^-1 X' y*, returning each draw's tested and
    mills coefficient, or None where the restricted residuals vanish."""
    from spatsel.estimator import _sandwich

    col = fit.names.index(coef)
    x, y = fit.design_diff, fit.outcome_diff
    rows = ds.selected_indices() if op is None else op.selected_indices[op.anchor]
    uniq, cluster_idx = np.unique(ds.location_codes[rows], return_inverse=True)
    n_clusters = len(uniq)
    kmat, _, _ = _sandwich(fit.g, fit.xtx_inv, op, fit.first, 1.0, "mills",
                           fit.residuals)
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

    def draws_at(null):
        _, fitted, resid = _restricted(x, y, col, null)
        if np.abs(resid).max() <= 1e-12 * max(1.0, float(np.abs(y).max())):
            return None
        theta = (fitted[None, :] + signs[:, cluster_idx] * resid[None, :]) @ proj.T
        return theta[:, col], theta[:, -1]

    return draws_at, theta_obs, se_obs, k_cc


def row_level_p_at(fit, op, ds, coef, B=999, seed=0, *, full_enumeration=False):
    """Reference bootstrap p-value as a function of the null value.

    Each null value gets its own restricted refit and row-level draws
    (`_row_level_draws`), so a null value costs a draws x M array. The
    studentising scale, the tie slack and the degenerate-residual rule are
    the package's. Returns (p_at, theta_obs, se_obs).
    """
    draws_at, theta_obs, se_obs, k_cc = _row_level_draws(fit, op, ds, coef, B, seed,
                                                         full_enumeration)

    def p_at(null):
        t_ref = (theta_obs - null) / se_obs
        draws = draws_at(null)
        if draws is None:
            return 1.0
        num = draws[0] - null
        se = np.abs(draws[1]) * np.sqrt(k_cc)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(se > 0, num / se, np.where(num != 0, np.inf * np.sign(num), 0.0))
        count = int(np.sum(np.abs(t) >= abs(t_ref) * (1.0 - 1e-12)))
        if full_enumeration:
            return count / len(num)
        return (1 + count) / (1 + len(num))

    return p_at, theta_obs, se_obs


def row_level_bootstrap(fit, op, ds, coef, null_value=0.0, B=999, seed=0, *,
                        full_enumeration=False):
    """Reference wild cluster bootstrap: (p_value, ci_low, ci_high).

    The p-value is `row_level_p_at`'s. The interval ends come from the
    row-level draws by another route than the package's: at null
    t = theta_obs + u * se_obs a draw exceeds when the quartic
    se_obs^2 n^2 - c^2 (u se_obs)^2 m^2 >= 0 (n = theta* - t, m the draw's
    mills coefficient, c = sqrt(k_cc) (1 - 1e-12)). Each draw's quartic is
    fitted through row-level refits at 9 nulls (np.polyfit) and solved as a
    companion-matrix eigenproblem (np.roots). Between consecutive real roots
    the count is the number of quartics >= 0 at the midpoint, and the ends
    are the roots that bound the gaps around u = 0 where the p-value stays
    at least 0.05.
    """
    draws_at, theta_obs, se_obs, k_cc = _row_level_draws(fit, op, ds, coef, B, seed,
                                                         full_enumeration)
    p_at, _, _ = row_level_p_at(fit, op, ds, coef, B, seed, full_enumeration=full_enumeration)
    c = np.sqrt(k_cc) * (1.0 - 1e-12)
    u = np.linspace(-4.0, 4.0, 9)
    values = []
    for ui in u:
        null = theta_obs + ui * se_obs
        tested, mills = draws_at(null)
        values.append((tested - null) ** 2 - (c * ui * mills) ** 2)
    quartics = np.polyfit(u, np.array(values), 4)           # 5 x draws
    roots = np.concatenate([r.real[r.imag == 0] for r in map(np.roots, quartics.T)])
    roots = np.unique(roots[np.isfinite(roots)])
    mids = np.concatenate([[roots[0] - 1.0], 0.5 * (roots[1:] + roots[:-1]), [roots[-1] + 1.0]])
    counts = (np.polynomial.polynomial.polyval(mids, quartics[::-1], tensor=True) >= 0).sum(axis=0)
    draws = quartics.shape[1]
    p = counts / draws if full_enumeration else (1 + counts) / (1 + draws)
    here = int(np.searchsorted(roots, 0.0))                 # the gap that holds u = 0
    below = np.flatnonzero(p[:here] < 0.05)
    above = here + 1 + np.flatnonzero(p[here + 1:] < 0.05)
    low = roots[below[-1]] if below.size else -np.inf
    high = roots[above[0] - 1] if above.size else np.inf
    return (p_at(null_value), float(theta_obs + low * se_obs), float(theta_obs + high * se_obs))


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"row {row}: column {col!r} has unparseable value {text!r}") from None


def row_loop_load_csv(path, schema=None):
    """Reference `load_csv`: the row-by-row loop it replaced, kept verbatim.

    Each row is checked and parsed in turn and the first failing check
    raises, which defines the error a file with several faults gives.
    Identifiers come back as object arrays of str.

    The header row is required. Canonical columns are
    `obs_id, location, sublocation, selected, y2, x1..xp, z1..zq[, coord_x, coord_y]`;
    `schema` remaps any of them. A missing outcome is an empty field.
    Row numbers in error messages count the header as row 1.
    """
    schema = schema or CsvSchema()
    with open(path, newline="", encoding="utf-8") as fh:
        # a record the csv module cannot read raises where the loop meets it
        reader = _records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        pos = {name: i for i, name in enumerate(header)}

        x_cols = schema.x_cols or _detect_block(header, "x")
        z_cols = schema.z_cols or _detect_block(header, "z")
        coord_cols = []
        if schema.coord_x and schema.coord_y:
            coord_cols = [schema.coord_x, schema.coord_y]
        elif "coord_x" in pos and "coord_y" in pos and schema.coord_x is None:
            coord_cols = ["coord_x", "coord_y"]

        required = [schema.obs_id, schema.location, schema.sublocation,
                    schema.selected, schema.outcome, *x_cols, *z_cols, *coord_cols]
        missing = [c for c in required if c not in pos]
        if missing:
            raise ValidationError(f"{path}: missing column(s) {missing}")
        if not x_cols:
            raise ValidationError(f"{path}: no x columns found (expected x1, x2, ...)")
        if not z_cols:
            raise ValidationError(f"{path}: no z columns found (expected z1, z2, ...)")

        obs_ids, loc_ids, sub_ids = [], [], []
        selected, outcome, xs, zs, coords = [], [], [], [], []
        seen: set = set()
        for rownum, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) < len(header):
                raise ValidationError(f"row {rownum}: expected {len(header)} fields, got {len(row)}")
            oid = row[pos[schema.obs_id]].strip()
            if oid in seen:
                raise ValidationError(f"row {rownum}: duplicate obs_id {oid!r}")
            seen.add(oid)
            sel_raw = row[pos[schema.selected]].strip()
            if sel_raw not in ("0", "1"):
                raise ValidationError(f"row {rownum}: column {schema.selected!r} must be 0 or 1, got {sel_raw!r}")
            sel = sel_raw == "1"
            out_raw = row[pos[schema.outcome]].strip()
            if sel and out_raw == "":
                raise ValidationError(f"row {rownum}: selected observation {oid!r} has empty outcome")
            if not sel and out_raw != "":
                raise ValidationError(f"row {rownum}: non-selected observation {oid!r} carries an outcome")
            obs_ids.append(oid)
            loc_ids.append(row[pos[schema.location]].strip())
            sub_ids.append(row[pos[schema.sublocation]].strip())
            selected.append(sel)
            outcome.append(_parse_float(out_raw, rownum, schema.outcome) if sel else np.nan)
            xs.append([_parse_float(row[pos[c]], rownum, c) for c in x_cols])
            zs.append([_parse_float(row[pos[c]], rownum, c) for c in z_cols])
            if coord_cols:
                coords.append([_parse_float(row[pos[c]], rownum, c) for c in coord_cols])

    if not obs_ids:
        raise ValidationError(f"{path}: no data rows")
    return ClusteredDataset(
        obs_ids=np.array(obs_ids, dtype=object),
        location_ids=np.array(loc_ids, dtype=object),
        sublocation_ids=np.array(sub_ids, dtype=object),
        selected=np.array(selected, dtype=bool),
        outcome=np.array(outcome, dtype=np.float64),
        x=np.array(xs, dtype=np.float64),
        z=np.array(zs, dtype=np.float64),
        coords=np.array(coords, dtype=np.float64) if coord_cols else None,
        x_names=x_cols,
        z_names=z_cols,
    )


def row_loop_write_csv(ds, path):
    """Reference `write_csv`: the row-by-row writer it replaced, kept verbatim."""
    header = ["obs_id", "location", "sublocation", "selected", "y2",
              *ds.x_names, *ds.z_names]
    if ds.coords is not None:
        header += ["coord_x", "coord_y"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_obs):
            row = [ds.obs_ids[i], ds.location_ids[i], ds.sublocation_ids[i],
                   int(ds.selected[i]),
                   repr(float(ds.outcome[i])) if ds.selected[i] else ""]
            row += [repr(float(v)) for v in ds.x[i]]
            row += [repr(float(v)) for v in ds.z[i]]
            if ds.coords is not None:
                row += [repr(float(v)) for v in ds.coords[i]]
            writer.writerow(row)
