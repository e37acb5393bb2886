"""Spatial difference operators over the selected subsample.

An operator is a linear M x N map D taking vectors indexed by the N
selected observations to M differenced equations. Every row sums to zero,
so anything constant within the row's neighborhood (location effects,
sub-location effects under membership graphs) is annihilated. Three kinds:

pairwise      one row per unordered selected neighbor pair {i, k}: +1, -1
fixed_effect  one row per selected anchor i: +1 at i, -1/N_d at each
              selected neighbor
kernel        like fixed_effect but neighbors weighted by a kernel in the
              distance between plug-in index values, normalised to sum one

The estimator reads an operator only through four methods: `apply` (D v),
`apply_transpose` (D' u), `row_norms_sq` and `column_sums` (the sum of a
row vector over the rows touching each column).

Under a membership rule (`sublocation`, `location`) a fixed_effect row is
the anchor's whole selected group of m members: -1/(m-1) at each and +1 at
the anchor, so each group block is m/(m-1) (I - 11'/m). A
`MembershipOperator` keeps the group codes and evaluates every method as a
scaled within-group demeaning, one `bincount` per column; it lays its CSR
`matrix` out from the codes only when something reads it. Every other
operator is a `CsrOperator` built from one list of ordered (anchor,
partner) column pairs, sorted by anchor then partner, as D = E - P: E has
a unit row at each row's anchor column and P the partner weights. Because
the pair list is sorted, P is a CSR matrix as it stands, and scipy's
sparse subtraction slots each anchor's +1 among its partners. Either way
rows ascend by anchor column and the columns ascend within each row,
whatever the neighborhood rule.

Rows never mix locations; neighbors from a different location are skipped
and counted. Anchors that yield no row (no usable neighbor, or zero total
kernel weight) are counted in `dropped_anchors`.
"""

from __future__ import annotations

import csv as _csv
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .dataset import NeighborhoodGraph, group_layout, group_pairs
from .exceptions import ValidationError

KERNELS = ("epanechnikov", "gaussian")


def _leading(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != n:
        raise ValidationError(f"operator expects leading dimension {n}, got {v.shape[0]}")
    return v


@dataclass(kw_only=True)
class DifferenceOperator:
    """Difference map with bookkeeping for diagnostics.

    `anchor[r]` is the operator-column index of row r's anchor observation;
    for pairwise operators `partner[r]` is the column of the subtracted
    observation. `selected_indices[c]` maps column c back to the dataset
    row it represents. The methods here read the CSR `matrix` a subclass
    provides.
    """

    kind: str
    rows: int
    cols: int
    anchor: np.ndarray
    partner: np.ndarray | None
    selected_indices: np.ndarray
    dropped_anchors: int = 0
    skipped_cross_location: int = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        """D v for a vector or matrix over selected observations."""
        return self.matrix @ _leading(v, self.cols)

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        """D' u for a vector or matrix over differenced rows."""
        return self.matrix.T @ _leading(u, self.rows)

    def _row_of(self) -> np.ndarray:
        return np.repeat(np.arange(self.rows), np.diff(self.matrix.indptr))

    def row_norms_sq(self) -> np.ndarray:
        """Squared Euclidean norm of each row."""
        data = self.matrix.data
        return np.bincount(self._row_of(), weights=data * data, minlength=self.rows)

    def column_sums(self, s: np.ndarray) -> np.ndarray:
        """Per column, the sum of the row vector `s` over the rows with a
        stored entry in that column; `column_sums(ones)` counts those rows."""
        s = _leading(s, self.rows)
        return np.bincount(self.matrix.indices, weights=s[self._row_of()],
                           minlength=self.cols)

    def dump_csv(self, path) -> None:
        """Debug dump as a triple-list CSV (row,col,weight)."""
        coo = self.matrix.tocoo()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["row", "col", "weight"])
            writer.writerows(zip(coo.row.tolist(), coo.col.tolist(),
                                  map(repr, coo.data.tolist())))


@dataclass(kw_only=True)
class CsrOperator(DifferenceOperator):
    """Operator held as its CSR matrix."""

    matrix: sparse.csr_matrix = field(repr=False)


@dataclass(kw_only=True)
class MembershipOperator(DifferenceOperator):
    """Fixed-effect operator of a membership graph, held as group codes.

    `codes[c]` is column c's group code and `sizes[g]` the number of
    columns in group g. There is one row per column whose group has m >= 2
    members, so row r and column `anchor[r]` share a group, and within a
    group D (and D') maps t to (m t - sum t) / (m - 1). The per-row group
    arrays are formed on each call rather than cached on the operator:
    cached, they raised peak RSS over a run of N = 1e5 fits by ~5 MB.
    """

    codes: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    def _groups(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(group code of each row, its group size m as float, code count)."""
        row_codes = self.codes[self.anchor]
        return row_codes, self.sizes[row_codes].astype(np.float64), len(self.sizes)

    def _demean(self, t: np.ndarray) -> np.ndarray:
        """(m t - group sum of t) / (m - 1) for t indexed by rows.

        Column by column: broadcasting m over a few columns at once runs
        numpy's inner loop along the short axis, at twice the cost."""
        row_codes, m, n_codes = self._groups()
        cols = t if t.ndim > 1 else t[:, None]
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            c = cols[:, j]
            sums = np.bincount(row_codes, weights=c, minlength=n_codes)
            out[:, j] = (m * c - sums[row_codes]) / (m - 1.0)
        return out if t.ndim > 1 else out[:, 0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._demean(_leading(v, self.cols)[self.anchor])

    def apply_transpose(self, u: np.ndarray) -> np.ndarray:
        u = _leading(u, self.rows)
        out = np.zeros((self.cols,) + u.shape[1:])
        out[self.anchor] = self._demean(u)
        return out

    def row_norms_sq(self) -> np.ndarray:
        _, m, _ = self._groups()
        return m / (m - 1.0)

    def column_sums(self, s: np.ndarray) -> np.ndarray:
        # every member column of a group lies in all of its m rows
        row_codes, _, n_codes = self._groups()
        sums = np.bincount(row_codes, weights=_leading(s, self.rows), minlength=n_codes)
        out = np.zeros(self.cols)
        out[self.anchor] = sums[row_codes]
        return out

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """The CSR layout: each row holds its group's columns in ascending
        order, -1/(m-1) at each and +1 at the anchor."""
        n = self.cols
        row_codes = self.codes[self.anchor]
        sizes, order, start, rank = group_layout(self.codes)
        lens = sizes[row_codes]
        indptr = np.zeros(self.rows + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        # row r reads its group's slice of `order`, from start[code] onwards
        slot = np.arange(indptr[-1], dtype=np.int64)
        slot -= np.repeat(indptr[:-1] - start[row_codes], lens)
        # gather int32 columns when they fit, the index dtype scipy would pick,
        # so the CSR constructor neither scans nor converts them
        if n <= np.iinfo(np.int32).max:
            order = order.astype(np.int32)
        data = np.repeat(-(1.0 / (lens - 1)), lens)
        data[indptr[:-1] + rank[self.anchor]] = 1.0
        return sparse.csr_matrix((data, order[slot], indptr), shape=(self.rows, n))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def _selected(graph: NeighborhoodGraph, selected) -> np.ndarray:
    sel = np.asarray(selected, dtype=np.int64)
    if sel.ndim != 1:
        raise ValidationError("selected must be a 1-d index array")
    if len(sel) and not (
        (np.diff(sel) > 0).all() and 0 <= sel[0] and sel[-1] < graph.n_obs
    ):
        raise ValidationError(
            "selected must be strictly increasing observation indices within the graph"
        )
    return sel


def _pairs(graph: NeighborhoodGraph, sel: np.ndarray):
    """Selected same-location neighbor pairs as operator columns.

    Returns (anchor, partner, skipped): every ordered pair, sorted by anchor
    then partner, and the number of cross-location links discarded.
    """
    if graph.group_codes is not None:
        # groups nest within locations, so no pair crosses one
        return (*group_pairs(graph.group_codes[sel]), 0)
    adj = sparse.csr_matrix(
        (np.ones(len(graph.indices), dtype=np.int8), graph.indices, graph.indptr),
        shape=(graph.n_obs, graph.n_obs),
    )
    sub = adj[sel][:, sel].tocoo()
    a, k = sub.row.astype(np.int64), sub.col.astype(np.int64)
    loc = graph.location_codes[sel]
    same_loc = loc[a] == loc[k]
    return a[same_loc], k[same_loc], int(len(a) - same_loc.sum())


def _unit_rows(cols: np.ndarray, n: int) -> sparse.csr_matrix:
    """One row per entry of `cols`, holding a single 1 at that column."""
    m = len(cols)
    return sparse.csr_matrix((np.ones(m), cols, np.arange(m + 1)), shape=(m, n))


def _anchored(kind: str, sel: np.ndarray, counts: np.ndarray, k: np.ndarray,
              w: np.ndarray, skipped: int) -> CsrOperator:
    """One row per anchor: E - P, with +1 at the anchor and -w at each partner.

    `counts[c]` is the number of pairs anchored at column c. The pairs are
    sorted by anchor then partner `k`, so the partner weights P are already
    a CSR matrix with one row per anchor. E holds the unit rows at the
    anchor columns.
    """
    n = len(sel)
    anchors = np.flatnonzero(counts)
    rows = len(anchors)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts[anchors], out=indptr[1:])
    partners = sparse.csr_matrix((w, k, indptr), shape=(rows, n))
    return CsrOperator(
        kind=kind, rows=rows, cols=n, matrix=_unit_rows(anchors, n) - partners,
        anchor=anchors, partner=None, selected_indices=sel,
        dropped_anchors=n - rows, skipped_cross_location=skipped,
    )


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------


def pairwise_operator(graph: NeighborhoodGraph, selected) -> CsrOperator:
    """One +1/-1 row per unordered selected neighbor pair within a location.

    Each pair appears once, anchored at the lower column index. An empty
    operator (no usable pairs) is allowed.
    """
    sel = _selected(graph, selected)
    n = len(sel)
    a, k, skipped = _pairs(graph, sel)
    keep = a < k
    a, k = a[keep], k[keep]
    m = len(a)
    # a selected observation is "dropped" when it appears in no pair
    touched = np.zeros(n, dtype=bool)
    touched[a] = touched[k] = True
    return CsrOperator(
        kind="pairwise", rows=m, cols=n,
        matrix=_unit_rows(a, n) - _unit_rows(k, n),
        anchor=a, partner=k, selected_indices=sel,
        dropped_anchors=n - int(touched.sum()), skipped_cross_location=skipped,
    )


def fixed_effect_operator(graph: NeighborhoodGraph, selected) -> DifferenceOperator:
    """One row per selected anchor: +1 at the anchor, -1/N_d at each
    selected same-location neighbor.

    N_d counts selected neighbors only. Anchors with no usable neighbor
    produce no row and are counted in `dropped_anchors`.
    """
    sel = _selected(graph, selected)
    n = len(sel)
    if graph.group_codes is not None:
        # one row per anchor whose group has m >= 2 selected members; groups
        # nest within locations, so no row crosses one
        codes = graph.group_codes[sel]
        sizes = np.bincount(codes)
        anchors = np.flatnonzero(sizes[codes] > 1)
        return MembershipOperator(
            kind="fixed_effect", rows=len(anchors), cols=n, anchor=anchors,
            partner=None, selected_indices=sel, dropped_anchors=n - len(anchors),
            codes=codes, sizes=sizes,
        )
    a, k, skipped = _pairs(graph, sel)
    n_d = np.bincount(a, minlength=n)
    deg = n_d[n_d > 0]
    return _anchored("fixed_effect", sel, n_d, k, np.repeat(1.0 / deg, deg), skipped)


def _kernel_values(u: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "epanechnikov":
        out = 0.75 * (1.0 - u * u)
        out[np.abs(u) >= 1.0] = 0.0
        return out
    if kernel == "gaussian":
        return np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    raise ValidationError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")


def kernel_operator(graph: NeighborhoodGraph, selected, index_values,
                    bandwidth: float, kernel: str = "epanechnikov") -> CsrOperator:
    """Kernel-weighted neighborhood difference rows.

    `index_values` holds one plug-in index value per selected observation
    (operator column order). Raw neighbor weights are
    K((index_i - index_k) / h) / h over selected same-location neighbors,
    then normalised to sum one so each row sums to zero. Anchors whose raw
    weights sum to zero produce no row and are counted in `dropped_anchors`.
    """
    if not bandwidth > 0:
        raise ValidationError("bandwidth must be positive")
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
    sel = _selected(graph, selected)
    n = len(sel)
    index_values = np.asarray(index_values, dtype=np.float64)
    if index_values.shape != (n,):
        raise ValidationError(
            f"index_values must have one entry per selected observation ({n}), got {index_values.shape}"
        )
    a, k, skipped = _pairs(graph, sel)
    raw = _kernel_values((index_values[a] - index_values[k]) / bandwidth, kernel) / bandwidth
    pos = raw > 0
    a, k, raw = a[pos], k[pos], raw[pos]
    totals = np.bincount(a, weights=raw, minlength=n)
    return _anchored("kernel", sel, np.bincount(a, minlength=n), k, raw / totals[a], skipped)
