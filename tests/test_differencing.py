import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatsel.dataset import ClusteredDataset, NeighborhoodGraph, build_neighborhoods, group_pairs
from spatsel.differencing import (
    fixed_effect_operator,
    kernel_operator,
    pairwise_operator,
)
from spatsel.exceptions import ValidationError

from conftest import make_dataset, shuffled
from oracles import loop_operator

ROW_SUM_TOL = 1e-12


def _row_sums(op):
    return np.asarray(op.matrix.sum(axis=1)).ravel()


def all_selected(ds):
    return np.arange(ds.n_obs)


# -- pairwise ----------------------------------------------------------------


def test_pairwise_three_clique():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1,
                      selected=[True] * 6)
    g = build_neighborhoods(ds, "sublocation")
    op = pairwise_operator(g, all_selected(ds))
    assert op.rows == 6  # 3 pairs per clique of 3, two locations
    dense = op.matrix.toarray()
    loc1 = dense[:3, :3]
    expected = {(1, -1, 0), (1, 0, -1), (0, 1, -1)}
    assert {tuple(int(v) for v in row) for row in loc1} == expected
    assert np.abs(_row_sums(op)).max() <= ROW_SUM_TOL


def test_pairwise_unselected_partner_gives_no_row():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=1,
                      selected=[True, False, True, False])
    g = build_neighborhoods(ds, "sublocation")
    op = pairwise_operator(g, ds.selected_indices())
    assert op.rows == 0
    assert op.dropped_anchors == 2


def test_pairwise_each_pair_once_lower_anchor():
    ds = make_dataset(n_locations=2, n_sublocations=2, n_per_sub=4, seed=2)
    g = build_neighborhoods(ds, "sublocation")
    sel = ds.selected_indices()
    op = pairwise_operator(g, sel)
    pairs = set()
    for a, k in zip(op.anchor, op.partner):
        assert a < k
        assert (a, k) not in pairs
        pairs.add((int(a), int(k)))


def test_pairwise_constant_vector_annihilated():
    ds = make_dataset(n_locations=3, n_sublocations=1, n_per_sub=3, seed=3,
                      selected=[True] * 9)
    g = build_neighborhoods(ds, "location")
    op = pairwise_operator(g, all_selected(ds))
    v = np.repeat([5.0, -2.0, 7.0], 3)
    assert np.abs(op.apply(v)).max() <= ROW_SUM_TOL


def test_pairwise_indicator_application():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1,
                      selected=[True] * 6)
    g = build_neighborhoods(ds, "sublocation")
    op = pairwise_operator(g, all_selected(ds))
    e0 = np.zeros(op.cols)
    e0[0] = 1.0
    out = op.apply(e0)
    for r in range(op.rows):
        if op.anchor[r] == 0:
            assert out[r] == 1.0
        elif op.partner[r] == 0:
            assert out[r] == -1.0
        else:
            assert out[r] == 0.0


# -- fixed effect ------------------------------------------------------------


def test_fixed_effect_triple():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1,
                      selected=[True] * 6)
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, all_selected(ds))
    assert op.rows == 6
    dense = op.matrix.toarray()
    row_a = dense[list(op.anchor).index(0)]
    np.testing.assert_allclose(row_a[:3], [1.0, -0.5, -0.5])


def test_fixed_effect_counts_selected_neighbors_only():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1,
                      selected=[True, True, False, True, True, True])
    g = build_neighborhoods(ds, "sublocation")
    sel = ds.selected_indices()
    op = fixed_effect_operator(g, sel)
    dense = op.matrix.toarray()
    # first location has two selected members: rows are pairwise-like
    r0 = dense[list(op.anchor).index(0)]
    np.testing.assert_allclose(r0[:2], [1.0, -1.0])


def test_fixed_effect_anchor_without_selected_neighbors_dropped():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1,
                      selected=[True, False, False, True, True, True])
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    assert op.rows == 3
    assert op.dropped_anchors == 1


def test_fixed_effect_annihilates_group_constants():
    ds = make_dataset(n_locations=2, n_sublocations=2, n_per_sub=3, seed=4,
                      selected=[True] * 12)
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, all_selected(ds))
    v = 5.0 * np.ones(12)
    assert np.abs(op.apply(v)).max() <= ROW_SUM_TOL
    per_group = ds.sublocation_codes.astype(float) * 3.25
    assert np.abs(op.apply(per_group)).max() <= ROW_SUM_TOL


def test_one_neighbor_case_matches_pairwise():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=2, seed=5,
                      selected=[True] * 12)
    g = build_neighborhoods(ds, "sublocation")
    sel = all_selected(ds)
    fe = fixed_effect_operator(g, sel)
    pw = pairwise_operator(g, sel)
    assert fe.rows == 2 * pw.rows  # each unordered pair yields two mirrored rows
    fe_rows = {tuple(np.round(r, 12)) for r in fe.matrix.toarray()}
    pw_rows = set()
    for r in pw.matrix.toarray():
        pw_rows.add(tuple(np.round(r, 12)))
        pw_rows.add(tuple(np.round(-r, 12)))
    assert fe_rows == pw_rows


# -- kernel ------------------------------------------------------------------


def test_kernel_identical_indices_matches_fixed_effect():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1,
                      selected=[True] * 6)
    g = build_neighborhoods(ds, "sublocation")
    sel = all_selected(ds)
    idx = np.zeros(6)
    ko = kernel_operator(g, sel, idx, bandwidth=1.0, kernel="gaussian")
    fe = fixed_effect_operator(g, sel)
    np.testing.assert_allclose(ko.matrix.toarray(), fe.matrix.toarray(), atol=1e-15)


def test_kernel_epanechnikov_compact_support():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1,
                      selected=[True] * 6)
    g = build_neighborhoods(ds, "sublocation")
    sel = all_selected(ds)
    idx = np.array([0.0, 0.5, 10.0, 0.0, 0.0, 0.0])
    ko = kernel_operator(g, sel, idx, bandwidth=1.0, kernel="epanechnikov")
    dense = ko.matrix.toarray()
    row0 = dense[list(ko.anchor).index(0)]
    np.testing.assert_allclose(row0[:3], [1.0, -1.0, 0.0])


def test_kernel_single_neighbor_equals_pairwise_row():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=1,
                      selected=[True] * 4)
    g = build_neighborhoods(ds, "sublocation")
    sel = all_selected(ds)
    idx = np.array([0.0, 0.7, 0.1, 0.2])
    ko = kernel_operator(g, sel, idx, bandwidth=1.0, kernel="gaussian")
    dense = ko.matrix.toarray()
    row0 = dense[list(ko.anchor).index(0)]
    np.testing.assert_allclose(row0, [1.0, -1.0, 0.0, 0.0])


def test_kernel_zero_mass_rows_dropped():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=1,
                      selected=[True] * 4)
    g = build_neighborhoods(ds, "sublocation")
    idx = np.array([0.0, 99.0, 0.0, 0.0])
    ko = kernel_operator(g, all_selected(ds), idx, bandwidth=1.0,
                         kernel="epanechnikov")
    assert ko.rows == 2  # the separated pair contributes no rows
    assert ko.dropped_anchors == 2


def test_kernel_validation():
    ds = make_dataset(seed=1)
    g = build_neighborhoods(ds, "sublocation")
    sel = ds.selected_indices()
    with pytest.raises(ValidationError, match="bandwidth"):
        kernel_operator(g, sel, np.zeros(len(sel)), bandwidth=0.0)
    with pytest.raises(ValidationError, match="one entry per selected"):
        kernel_operator(g, sel, np.zeros(len(sel) + 1), bandwidth=1.0)
    with pytest.raises(ValidationError, match="kernel"):
        kernel_operator(g, sel, np.zeros(len(sel)), bandwidth=1.0, kernel="box")


# -- apply / generic behavior --------------------------------------------------


def test_apply_linearity():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=3, seed=6)
    g = build_neighborhoods(ds, "sublocation")
    sel = ds.selected_indices()
    op = fixed_effect_operator(g, sel)
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal((2, op.cols))
    np.testing.assert_allclose(op.apply(2.0 * u - 3.0 * v),
                               2.0 * op.apply(u) - 3.0 * op.apply(v), atol=1e-12)


def test_apply_matrix_and_dimension_error():
    ds = make_dataset(seed=6)
    g = build_neighborhoods(ds, "sublocation")
    sel = ds.selected_indices()
    op = fixed_effect_operator(g, sel)
    m = np.random.default_rng(1).standard_normal((op.cols, 3))
    out = op.apply(m)
    assert out.shape == (op.rows, 3)
    with pytest.raises(ValidationError, match="leading dimension"):
        op.apply(np.zeros(op.cols + 1))


@settings(max_examples=80, deadline=None)
@given(
    codes=st.lists(st.integers(0, 5), max_size=24),
    keep=st.lists(st.booleans(), min_size=24, max_size=24),
    seed=st.integers(0, 10_000),
)
@example(codes=[], keep=[True] * 24, seed=0)
@example(codes=[3, 0, 3, 1, 2, 0, 4], keep=[True] * 24, seed=1)
@example(codes=[2, 1, 0], keep=[True] * 24, seed=2)
def test_membership_methods_match_matrix(codes, keep, seed):
    # codes are drawn in any order, so groups are not contiguous; groups of
    # one selected member (no row) and of two are common, and so is an
    # empty selection. Every method must agree with the product through
    # the CSR laid out afterwards, and none may build it.
    codes = np.array(codes, dtype=np.int64)
    graph = NeighborhoodGraph(n_obs=len(codes), location_codes=codes, group_codes=codes)
    sel = np.flatnonzero(np.array(keep[:len(codes)], dtype=bool))
    op = fixed_effect_operator(graph, sel)
    rng = np.random.default_rng(seed)
    v, u = rng.standard_normal((op.cols, 3)), rng.standard_normal((op.rows, 2))
    s = rng.standard_normal(op.rows)
    got = [op.apply(v), op.apply(v[:, 0]), op.apply_transpose(u),
           op.apply_transpose(u[:, 0]), op.row_norms_sq(), op.column_sums(s),
           op.column_sums(np.ones(op.rows))]
    assert "matrix" not in vars(op)
    mat = op.matrix
    touches = (mat != 0).astype(np.float64)
    want = [mat @ v, mat @ v[:, 0], mat.T @ u, mat.T @ u[:, 0],
            np.asarray(mat.multiply(mat).sum(axis=1)).ravel(), touches.T @ s,
            touches.T @ np.ones(op.rows)]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


def test_dump_csv(tmp_path):
    ds = make_dataset(seed=8)
    g = build_neighborhoods(ds, "sublocation")
    op = fixed_effect_operator(g, ds.selected_indices())
    path = tmp_path / "op.csv"
    op.dump_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,weight"
    assert len(lines) == 1 + op.matrix.nnz
    # the triples rebuild the matrix bitwise, in row-major order
    triples = [line.split(",") for line in lines[1:]]
    r, c = (np.array([int(t[i]) for t in triples]) for i in (0, 1))
    assert np.all(np.diff(r * op.cols + c) > 0)
    rebuilt = np.zeros((op.rows, op.cols))
    rebuilt[r, c] = [float(t[2]) for t in triples]
    np.testing.assert_array_equal(rebuilt, op.matrix.toarray())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_loc=st.integers(2, 4),
    n_sub=st.integers(1, 3),
    n_per=st.integers(2, 5),
    rule=st.sampled_from(["sublocation", "location"]),
    kind=st.sampled_from(["pairwise", "fixed_effect", "kernel"]),
)
def test_membership_and_graph_paths_agree(seed, n_loc, n_sub, n_per, rule, kind):
    # Observations are shuffled, so group codes do not ascend with row
    # order. A membership graph and the same neighbor sets passed as an
    # explicit CSR adjacency must give the same operator bit for bit, with
    # rows ascending by anchor and columns ascending within each row. For
    # fixed_effect the two graphs take different builders: rows laid out
    # from the group codes, and rows assembled from the pair list.
    ds = shuffled(make_dataset(n_locations=n_loc, n_sublocations=n_sub,
                               n_per_sub=n_per, seed=seed), seed)
    _assert_membership_and_graph_agree(ds, ds.selected_indices(), rule, kind, seed)


@pytest.mark.parametrize("rule", ["sublocation", "location"])
@pytest.mark.parametrize("sel", [[0, 1, 2, 3, 6], [0, 3, 6], []],
                         ids=["some-singletons", "all-singletons", "empty"])
def test_membership_and_graph_paths_agree_small_groups(rule, sel):
    # groups with one selected member give no fixed_effect row; an empty
    # selection gives a 0 x 0 operator
    ds = ClusteredDataset(
        obs_ids=np.arange(9), location_ids=[1, 1, 1, 2, 2, 2, 3, 3, 3],
        sublocation_ids=[1, 1, 2, 1, 2, 2, 1, 1, 2], selected=[True] * 9,
        outcome=np.zeros(9), x=np.zeros((9, 1)), z=np.zeros((9, 1)),
    )
    sel = np.array(sel, dtype=np.int64)
    for kind in ("pairwise", "fixed_effect", "kernel"):
        _assert_membership_and_graph_agree(ds, sel, rule, kind, 0)
    op = fixed_effect_operator(build_neighborhoods(ds, rule), sel)
    if len(sel) == 5:
        # only 0, 1 (and 2 under the location rule) share a group
        assert (op.rows, op.dropped_anchors) == ((2, 3) if rule == "sublocation" else (3, 2))
    else:
        assert op.rows == 0 and op.dropped_anchors == len(sel)


def _assert_membership_and_graph_agree(ds, sel, rule, kind, seed):
    fast = build_neighborhoods(ds, rule)
    i, k = group_pairs(fast.group_codes)
    indptr = np.zeros(ds.n_obs + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=ds.n_obs), out=indptr[1:])
    slow = NeighborhoodGraph(n_obs=ds.n_obs, location_codes=ds.location_codes,
                             indptr=indptr, indices=k)
    if kind == "pairwise":
        a, b = pairwise_operator(fast, sel), pairwise_operator(slow, sel)
    elif kind == "fixed_effect":
        a, b = fixed_effect_operator(fast, sel), fixed_effect_operator(slow, sel)
    else:
        idx = np.random.default_rng(seed).standard_normal(len(sel))
        a = kernel_operator(fast, sel, idx, 0.5, "gaussian")
        b = kernel_operator(slow, sel, idx, 0.5, "gaussian")
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a.matrix, name), getattr(b.matrix, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert a.matrix.shape == b.matrix.shape == (a.rows, len(sel))
    np.testing.assert_array_equal(a.anchor, b.anchor)
    assert a.dropped_anchors == b.dropped_anchors
    assert a.skipped_cross_location == b.skipped_cross_location == 0
    steps = np.diff(a.anchor)
    assert (steps >= 0).all() if kind == "pairwise" else (steps > 0).all()
    assert a.matrix.has_sorted_indices


def test_cross_location_edges_skipped():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=0,
                      selected=[True] * 4)
    ids = ds.obs_ids.tolist()
    # edge crossing the location boundary plus one legal edge
    g = build_neighborhoods(ds, "edges",
                            edges=[(ids[0], ids[2]), (ids[2], ids[0]),
                                   (ids[0], ids[1]), (ids[1], ids[0])])
    op = fixed_effect_operator(g, all_selected(ds))
    assert op.skipped_cross_location == 2
    assert op.rows == 2
    dense = op.matrix.toarray()
    for r in dense:
        locs = {int(ds.location_codes[c]) for c in np.flatnonzero(r)}
        assert len(locs) == 1


# -- randomized property suite -------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_loc=st.integers(2, 5),
    n_sub=st.integers(1, 3),
    n_per=st.integers(2, 5),
    kind=st.sampled_from(["pairwise", "fixed_effect", "kernel"]),
)
def test_row_sums_and_annihilation_random(seed, n_loc, n_sub, n_per, kind):
    ds = make_dataset(n_locations=n_loc, n_sublocations=n_sub, n_per_sub=n_per,
                      seed=seed)
    g = build_neighborhoods(ds, "sublocation")
    sel = ds.selected_indices()
    if len(sel) == 0:
        return
    rng = np.random.default_rng(seed)
    if kind == "pairwise":
        op = pairwise_operator(g, sel)
    elif kind == "fixed_effect":
        op = fixed_effect_operator(g, sel)
    else:
        op = kernel_operator(g, sel, rng.standard_normal(len(sel)), 1.0, "gaussian")
    if op.rows == 0:
        return
    assert np.abs(_row_sums(op)).max() <= ROW_SUM_TOL
    # location-constant and sublocation-constant vectors are annihilated
    loc_const = ds.location_codes[sel].astype(float) * 11.5 - 3.0
    sub_const = ds.sublocation_codes[sel].astype(float) * 2.5 + 1.0
    assert np.abs(op.apply(loc_const)).max() <= 1e-10
    assert np.abs(op.apply(sub_const)).max() <= 1e-10


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_obs=st.integers(4, 30),
    n_loc=st.integers(2, 4),
    rule=st.sampled_from(["sublocation", "location", "edges", "distance"]),
    kind=st.sampled_from(["pairwise", "fixed_effect", "gaussian", "epanechnikov"]),
)
def test_operator_matches_loop_reference(seed, n_obs, n_loc, rule, kind):
    # random locations, sub-locations, selection, coordinates and edge lists;
    # every operator must equal the row-by-row reference bit for bit
    rng = np.random.default_rng(seed)
    loc = rng.integers(0, n_loc, n_obs)
    loc[:2] = [0, 1]
    selected = rng.random(n_obs) < 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-member locations, asymmetric edges
        ds = ClusteredDataset(
            obs_ids=np.arange(n_obs), location_ids=loc,
            sublocation_ids=rng.integers(0, 3, n_obs), selected=selected,
            outcome=np.where(selected, 0.0, np.nan), x=np.zeros(n_obs),
            z=np.zeros(n_obs), coords=rng.uniform(0.0, 4.0, (n_obs, 2)),
        )
        edges = [tuple(e) for e in rng.integers(0, n_obs, (2 * n_obs, 2)).tolist()]
        g = build_neighborhoods(ds, rule, d=1.0, edges=edges)
    sel = ds.selected_indices()
    if kind == "pairwise":
        op, want = pairwise_operator(g, sel), loop_operator(g, sel, kind)
    elif kind == "fixed_effect":
        op, want = fixed_effect_operator(g, sel), loop_operator(g, sel, kind)
    else:
        idx, h = rng.standard_normal(len(sel)), rng.uniform(0.2, 2.0)
        op = kernel_operator(g, sel, idx, h, kind)
        want = loop_operator(g, sel, "kernel", idx, h, kind)
    indptr, indices, data = want
    np.testing.assert_array_equal(op.matrix.indptr, indptr)
    np.testing.assert_array_equal(op.matrix.indices, indices)
    assert op.matrix.data.tobytes() == data.tobytes()
    assert op.matrix.has_sorted_indices
