import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatsel.dataset import (
    ClusteredDataset,
    CsvSchema,
    build_neighborhoods,
    group_pairs,
    load_adjacency,
    load_csv,
    write_csv,
)
from spatsel.exceptions import ValidationError

from conftest import make_dataset


CSV_6ROW = """obs_id,location,sublocation,selected,y2,x1,z1
a,L1,S1,1,1.5,0.1,0.2
b,L1,S1,1,2.5,0.3,0.4
c,L1,S1,0,,0.5,0.6
d,L2,S1,1,3.5,0.7,0.8
e,L2,S1,0,,0.9,1.0
f,L2,S1,1,4.5,1.1,1.2
"""


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    ds = load_csv(_write(tmp_path, CSV_6ROW))
    assert ds.n_obs == 6
    assert len(ds.locations) == 2
    assert ds.p == 1 and ds.q == 1
    assert ds.n_selected == 4
    assert np.isnan(ds.outcome[2])
    assert ds.outcome[0] == 1.5


def test_load_csv_nonselected_with_outcome(tmp_path):
    bad = CSV_6ROW.replace("c,L1,S1,0,,", "c,L1,S1,0,9.9,")
    with pytest.raises(ValidationError, match="row 4"):
        load_csv(_write(tmp_path, bad))


def test_load_csv_selected_missing_outcome(tmp_path):
    bad = CSV_6ROW.replace("b,L1,S1,1,2.5,", "b,L1,S1,1,,")
    with pytest.raises(ValidationError, match="row 3"):
        load_csv(_write(tmp_path, bad))


def test_load_csv_duplicate_obs_id(tmp_path):
    bad = CSV_6ROW.replace("b,L1", "a,L1")
    with pytest.raises(ValidationError, match="duplicate obs_id"):
        load_csv(_write(tmp_path, bad))


def test_load_csv_missing_column(tmp_path):
    bad = CSV_6ROW.replace("selected", "chosen")
    with pytest.raises(ValidationError, match="missing column"):
        load_csv(_write(tmp_path, bad))


def test_load_csv_unparseable_numeric(tmp_path):
    bad = CSV_6ROW.replace("0.1,0.2", "oops,0.2")
    with pytest.raises(ValidationError, match="row 2.*x1"):
        load_csv(_write(tmp_path, bad))


def test_load_csv_bad_selected_flag(tmp_path):
    bad = CSV_6ROW.replace("a,L1,S1,1,", "a,L1,S1,yes,")
    with pytest.raises(ValidationError, match="row 2"):
        load_csv(_write(tmp_path, bad))


def test_single_observation_location_warns(tmp_path):
    text = CSV_6ROW + "g,L3,S1,1,5.5,1.3,1.4\n"
    with pytest.warns(UserWarning, match="single observation"):
        load_csv(_write(tmp_path, text))


def test_single_location_rejected(tmp_path):
    rows = [r for r in CSV_6ROW.splitlines() if not r.startswith(("d", "e", "f"))]
    with pytest.raises(ValidationError, match="at least 2 locations"):
        load_csv(_write(tmp_path, "\n".join(rows) + "\n"))


def test_schema_remapping(tmp_path):
    text = CSV_6ROW.replace("obs_id,location,sublocation,selected,y2,x1,z1",
                            "id,region,muni,sel,tax,pop,age")
    schema = CsvSchema(obs_id="id", location="region", sublocation="muni",
                       selected="sel", outcome="tax", x_cols=["pop"], z_cols=["age"])
    ds = load_csv(_write(tmp_path, text), schema)
    assert ds.x_names == ["pop"] and ds.z_names == ["age"]
    assert ds.n_obs == 6


def test_round_trip_exact(tmp_path):
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=4, p=2, q=2, seed=3)
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert back.n_obs == ds.n_obs
    assert np.array_equal(back.selected, ds.selected)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.z, ds.z)
    sel = ds.selected
    assert np.array_equal(back.outcome[sel], ds.outcome[sel])
    assert np.array_equal(back.location_codes, ds.location_codes)
    assert np.array_equal(back.sublocation_codes, ds.sublocation_codes)


def test_double_round_trip_exact(tmp_path):
    # after one write/load cycle all fields live in CSV-native types, so a
    # second cycle reproduces every field exactly
    ds0 = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=3, p=2, seed=44)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(ds0, p1)
    d1 = load_csv(p1)
    write_csv(d1, p2)
    d2 = load_csv(p2)
    assert np.array_equal(d1.obs_ids, d2.obs_ids)
    assert np.array_equal(d1.location_ids, d2.location_ids)
    assert np.array_equal(d1.sublocation_ids, d2.sublocation_ids)
    assert np.array_equal(d1.selected, d2.selected)
    assert np.array_equal(d1.x, d2.x)
    assert np.array_equal(d1.z, d2.z)
    sel = d1.selected
    assert np.array_equal(d1.outcome[sel], d2.outcome[sel])
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_with_coords(tmp_path):
    ds = make_dataset(seed=11)
    rng = np.random.default_rng(0)
    ds = ClusteredDataset(
        obs_ids=ds.obs_ids, location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=ds.selected,
        outcome=ds.outcome, x=ds.x, z=ds.z,
        coords=rng.standard_normal((ds.n_obs, 2)),
    )
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.coords, ds.coords)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 3), q=st.integers(1, 2))
def test_round_trip_property(tmp_path_factory, seed, p, q):
    ds = make_dataset(n_locations=2, n_sublocations=2, n_per_sub=2,
                      p=p, q=q, seed=seed)
    path = tmp_path_factory.mktemp("rt") / "d.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.z, ds.z)
    assert np.array_equal(back.selected, ds.selected)


def test_sublocations_nest_within_locations():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=2, seed=5)
    # sublocation id "1" appears in every location but codes must differ
    assert len(ds.sublocations) == 6
    for (lid, _), members in ds.sublocations.items():
        assert (ds.location_ids[members] == lid).all()


# -- neighborhoods -----------------------------------------------------------


def test_sublocation_membership_graph():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1)
    g = build_neighborhoods(ds, "sublocation")
    for i in range(ds.n_obs):
        nb = g.neighbors_of(i)
        assert len(nb) == 2
        assert i not in nb
        assert all(ds.sublocation_codes[k] == ds.sublocation_codes[i] for k in nb)


def test_graph_symmetry_and_irreflexivity():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=4, seed=2)
    for rule in ("sublocation", "location"):
        g = build_neighborhoods(ds, rule)
        nm = g.neighbor_map()
        for i, nb in nm.items():
            assert i not in nb
            for k in nb:
                assert i in nm[k]


def test_distance_rule_threshold():
    with pytest.warns(UserWarning, match="single observation"):
        ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=1, seed=0,
                          selected=[True, True])
    ds.coords = np.array([[0.0, 0.0], [1.5, 0.0]])
    g = build_neighborhoods(ds, "distance", d=1.0)
    assert g.neighbors_of(0) == set() and g.neighbors_of(1) == set()
    g2 = build_neighborhoods(ds, "distance", d=1.5)
    assert g2.neighbors_of(0) == {1} and g2.neighbors_of(1) == {0}


def test_distance_rule_validation():
    ds = make_dataset(seed=0)
    with pytest.raises(ValidationError, match="d > 0"):
        build_neighborhoods(ds, "distance", d=0.0)
    with pytest.raises(ValidationError, match="coordinates"):
        build_neighborhoods(ds, "distance", d=1.0)


def test_edge_list_rule():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=0)
    ids = ds.obs_ids.tolist()
    g = build_neighborhoods(ds, "edges",
                            edges=[(ids[0], ids[1]), (ids[1], ids[0])])
    assert g.neighbors_of(0) == {1}
    assert g.neighbors_of(1) == {0}
    assert g.neighbors_of(2) == set()


def test_one_directional_pair_symmetrized():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=0)
    ids = ds.obs_ids.tolist()
    with pytest.warns(UserWarning, match="asymmetric"):
        g = build_neighborhoods(ds, "edges", edges=[(ids[0], ids[1])])
    assert g.neighbors_of(0) == {1}
    assert g.neighbors_of(1) == {0}


def test_asymmetric_edge_list_warns():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=0)
    ids = ds.obs_ids.tolist()
    with pytest.warns(UserWarning, match="asymmetric"):
        g = build_neighborhoods(ds, "edges",
                                edges=[(ids[0], ids[1]), (ids[2], ids[3]),
                                       (ids[3], ids[2])])
    assert g.neighbors_of(1) == {0}


def test_edge_list_unknown_id():
    ds = make_dataset(seed=0)
    with pytest.raises(ValidationError, match="unknown obs_id"):
        build_neighborhoods(ds, "edges", edges=[("nope", ds.obs_ids[0])])


def test_unknown_rule():
    ds = make_dataset(seed=0)
    with pytest.raises(ValidationError, match="unknown neighborhood rule"):
        build_neighborhoods(ds, "voronoi")


def test_build_neighborhoods_deterministic():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=3, seed=9)
    g1 = build_neighborhoods(ds, "sublocation")
    g2 = build_neighborhoods(ds, "sublocation")
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)


@settings(max_examples=100, deadline=None)
@given(codes=st.lists(st.integers(0, 6), max_size=30))
def test_group_pairs_matches_loop(codes):
    # reference: a double loop over positions, in (i, k) order
    want = [(i, k) for i in range(len(codes)) for k in range(len(codes))
            if i != k and codes[i] == codes[k]]
    i, k = group_pairs(np.array(codes, dtype=np.int64))
    assert i.dtype == k.dtype == np.int64
    assert list(zip(i.tolist(), k.tolist())) == want


def test_load_adjacency(tmp_path):
    path = tmp_path / "adj.csv"
    path.write_text("a,b\nb,c\n\n", encoding="utf-8")
    assert load_adjacency(path) == [("a", "b"), ("b", "c")]
    short = tmp_path / "bad.csv"
    short.write_text("a\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="two obs_id fields"):
        load_adjacency(short)
