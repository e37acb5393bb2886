import csv
import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spatsel import dataset
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
from oracles import neighbors_of, row_loop_load_csv, row_loop_write_csv


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
    assert len(np.unique(ds.location_codes)) == 2
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


@pytest.mark.parametrize("obs_ids", [[3, 1, 4, 1], ["b", "a", "c", "a"]],
                         ids=["int", "str"])
def test_dataset_duplicate_obs_id(obs_ids):
    # built directly: the loader's own duplicate check never runs
    with pytest.raises(ValidationError, match="duplicate obs_id values present"):
        ClusteredDataset(obs_ids=obs_ids, location_ids=[1, 1, 2, 2],
                         sublocation_ids=[1, 1, 1, 1], selected=[True, False, True, False],
                         outcome=[1.0, np.nan, 2.0, np.nan], x=np.zeros((4, 1)),
                         z=np.ones((4, 1)))


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


@pytest.mark.parametrize("str_ids", [True, False], ids=["str-ids-coords", "int-ids"])
def test_write_csv_matches_row_loop(tmp_path, str_ids):
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=4, p=2, q=2, seed=3)
    assert 0 < ds.n_selected < ds.n_obs
    if str_ids:
        # an id with a comma and a quote makes the writer quote the field
        obs = [f"o{i}" for i in range(ds.n_obs)]
        obs[1] = 'o,"1"'
        ds = ClusteredDataset(
            obs_ids=np.array(obs), location_ids=np.char.add("L", ds.location_ids.astype(str)),
            sublocation_ids=np.char.add("S", ds.sublocation_ids.astype(str)),
            selected=ds.selected, outcome=ds.outcome, x=ds.x, z=ds.z,
            coords=np.random.default_rng(3).standard_normal((ds.n_obs, 2)) * 1e3,
        )
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(ds, got)
    row_loop_write_csv(ds, want)
    assert got.read_bytes() == want.read_bytes()


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
    assert len(np.unique(ds.sublocation_codes)) == 6
    # each sub-location code lies inside one location
    pairs = np.unique(np.column_stack([ds.sublocation_codes, ds.location_codes]), axis=0)
    assert len(pairs) == 6


# -- neighborhoods -----------------------------------------------------------


def test_sublocation_membership_graph():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=1)
    g = build_neighborhoods(ds, "sublocation")
    for i in range(ds.n_obs):
        nb = neighbors_of(g, i)
        assert len(nb) == 2
        assert i not in nb
        assert all(ds.sublocation_codes[k] == ds.sublocation_codes[i] for k in nb)


def test_graph_symmetry_and_irreflexivity():
    ds = make_dataset(n_locations=3, n_sublocations=2, n_per_sub=4, seed=2)
    for rule in ("sublocation", "location"):
        g = build_neighborhoods(ds, rule)
        i, k = group_pairs(g.group_codes)
        assert not (i == k).any()
        pairs = set(zip(i.tolist(), k.tolist()))
        assert pairs == {(b, a) for a, b in pairs}
        for a in range(ds.n_obs):
            assert neighbors_of(g, a) == set(k[i == a].tolist())


def test_distance_rule_threshold():
    with pytest.warns(UserWarning, match="single observation"):
        ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=1, seed=0,
                          selected=[True, True])
    ds.coords = np.array([[0.0, 0.0], [1.5, 0.0]])
    g = build_neighborhoods(ds, "distance", d=1.0)
    assert neighbors_of(g, 0) == set() and neighbors_of(g, 1) == set()
    g2 = build_neighborhoods(ds, "distance", d=1.5)
    assert neighbors_of(g2, 0) == {1} and neighbors_of(g2, 1) == {0}


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
    assert neighbors_of(g, 0) == {1}
    assert neighbors_of(g, 1) == {0}
    assert neighbors_of(g, 2) == set()


def test_one_directional_pair_symmetrized():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=0)
    ids = ds.obs_ids.tolist()
    with pytest.warns(UserWarning, match="asymmetric"):
        g = build_neighborhoods(ds, "edges", edges=[(ids[0], ids[1])])
    assert neighbors_of(g, 0) == {1}
    assert neighbors_of(g, 1) == {0}


def test_asymmetric_edge_list_warns():
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=2, seed=0)
    ids = ds.obs_ids.tolist()
    with pytest.warns(UserWarning, match="asymmetric"):
        g = build_neighborhoods(ds, "edges",
                                edges=[(ids[0], ids[1]), (ids[2], ids[3]),
                                       (ids[3], ids[2])])
    assert neighbors_of(g, 1) == {0}


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
    assert g1.indptr is None and np.array_equal(g1.group_codes, g2.group_codes)
    ds.coords = np.random.default_rng(9).random((ds.n_obs, 2))
    g1 = build_neighborhoods(ds, "distance", d=0.3)
    g2 = build_neighborhoods(ds, "distance", d=0.3)
    assert g1.group_codes is None
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
    pairs = load_adjacency(path)
    assert pairs.dtype.kind == "U" and pairs.tolist() == [["a", "b"], ["b", "c"]]
    short = tmp_path / "bad.csv"
    short.write_text("a\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="two obs_id fields"):
        load_adjacency(short)


@pytest.mark.parametrize("text", [
    "a,b\nb,c\n",                       # numpy's C reader
    "a,b,1\nb,c,2\n",                   # the same number of fields past the second
    '"a,1", b \r\n"b\n2",#c\r\n',     # quoted delimiter and line break, CRLF, '#'
    "\xa0a\xa0,b\n",                    # padding that str.strip drops
    "a,b\n , \nb,c\n",                 # a row of blank fields, which is skipped
    "a,b\n  \nb,c\n",                  # a whitespace-only line
    "a,b,1\nb,c\n",                     # rows of different widths
    "a,b\nb,c \x00\n",                 # a NUL, which str.strip keeps
])
def test_load_adjacency_matches_csv_reader(tmp_path, text):
    path = _write(tmp_path, text, name="adj.csv")
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if "".join(r).strip()]
    want = np.array([[f.strip() for f in r[:2]] for r in rows], dtype=str)
    assert load_adjacency(path).tolist() == want.tolist()


def _oversized_field():
    # one character past the csv module's default field size limit
    return "a" * (csv.field_size_limit() + 1)


def test_load_csv_unreadable_record_is_validation_error(tmp_path):
    bad = CSV_6ROW.replace("e,L2,", f"{_oversized_field()},L2,")
    with pytest.raises(ValidationError, match=r"data\.csv: line 6: field larger than field limit"):
        load_csv(_write(tmp_path, bad))


def test_load_adjacency_unreadable_record_is_validation_error(tmp_path):
    path = _write(tmp_path, f"a,b\nb,{_oversized_field()}\n", name="adj.csv")
    with pytest.raises(ValidationError, match=r"adj\.csv: line 2: field larger than field limit"):
        load_adjacency(path)


# -- columnar load_csv against the row loop it replaced ------------------------

LOAD_FAULTS = ("short", "duplicate", "flag", "empty_outcome", "carried_outcome",
               "bad_outcome", "nan_outcome", "bad_x", "inf_x", "bad_z", "bad_coord")


@st.composite
def dataset_csv(draw):
    """CSV text that is mostly valid, with up to two faulty rows and blank rows."""
    pad = st.sampled_from(["", " ", "  "])
    number = st.sampled_from(["0.5", "-1.25e3", "3", " 7 ", "1_0", "2.5E-3"])
    coords = draw(st.booleans())
    header = ["obs_id", "location", "sublocation", "selected", "y2", "x1", "z1"]
    header += ["coord_x", "coord_y"] * coords
    rows = []
    n = draw(st.integers(2, 8))
    for i in range(n):
        sel = draw(st.booleans())
        # the first and last rows lie in two different locations
        location = {0: " L1", n - 1: "North, East"}.get(i) or draw(st.sampled_from(["L1", "L3"]))
        row = [draw(pad) + draw(st.sampled_from([f"id{i}", f"id,{i}", f"{i}"])) + draw(pad),
               location,
               draw(st.sampled_from(["S1", "S 2", "a,b"])),
               draw(pad) + ("1" if sel else "0") + draw(pad),
               draw(number) if sel else draw(pad),
               draw(number), draw(number)]
        row += [draw(number), draw(number)] * coords
        row += draw(st.lists(st.sampled_from(["", "extra", "9"]), max_size=2))
        rows.append(row)
    # up to two faulty rows among the first three, each with one or two faults
    faults = [(i, kind) for i, kinds in draw(st.lists(st.tuples(
        st.integers(0, min(n, 3) - 1),
        st.lists(st.sampled_from(LOAD_FAULTS), min_size=1, max_size=2)), max_size=2))
        for kind in kinds]
    # a short row is cut last, after any other fault in it
    for i, kind in sorted(faults, key=lambda f: f[1] == "short"):
        row = rows[i]
        if kind == "short":
            del row[draw(st.integers(1, len(header) - 1)):]
        elif kind == "duplicate":
            row[0] = " " + rows[draw(st.integers(0, max(i - 1, 0)))][0].strip()
        elif kind == "flag":
            row[3] = draw(st.sampled_from(["yes", "2", "", " 01"]))
        elif kind == "empty_outcome":
            row[3], row[4] = "1", draw(pad)
        elif kind == "carried_outcome":
            row[3], row[4] = " 0", "4.5"
        elif kind == "bad_outcome":
            row[3], row[4] = "1", draw(st.sampled_from(["oops", "1,5", "--1"]))
        elif kind == "nan_outcome":
            row[3], row[4] = "1", "nan"
        elif kind == "inf_x":
            row[5] = " -inf"
        else:
            col = {"bad_x": 5, "bad_z": 6, "bad_coord": 7 if coords else 5}[kind]
            row[col] = draw(st.sampled_from(["oops", " x ", "1.2.3"]))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    lines = buf.getvalue().splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        blank = draw(st.sampled_from(["\n", "   \n", " , ,\n", ",,,,,,,,,\n"]))
        lines.insert(draw(st.integers(1, len(lines))), blank)
    return "".join(lines)


def _outcome_of(loader, path):
    """(dataset or error text, warning texts) of one load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = loader(path)
        except ValidationError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


CSV_HEADER = "obs_id,location,sublocation,selected,y2,x1,z1\n"


GOOD_ROWS = "a,L1,S,1,1.5,0.5,2\nb,L2,S,0,,-1e3,3\n"
LONG_FIELD = "9" * (csv.field_size_limit() + 1)


@settings(max_examples=200, deadline=None)
@given(text=dataset_csv())
# two faults in one row: the duplicate id is checked before the flag and the outcome
@example(text=CSV_HEADER + "a,L1,S,1,1,0,0\n a ,L2,S,yes,,0,0\n")
@example(text=CSV_HEADER + "a,L1,S,1,1,0,0\nb,L2,S,0,,0,0\n a,L2,S,1,,0,0\n")
# inputs numpy's C reader reads, and inputs it leaves to csv.reader
@example(text=CSV_HEADER + GOOD_ROWS + "#c,L1,S#1,1,2,0,0\nd#,L2,S,0,,0,0\n")
@example(text=CSV_HEADER + GOOD_ROWS + "\xa0c\xa0,\xa0L1,S,\xa01,\xa02\xa0,\xa00,0\n")
# a trailing NUL, which np.strings.strip drops (`test_label_ending_in_nul_refused`
# covers one in an id, which the row loop keeps)
@example(text=CSV_HEADER + GOOD_ROWS + "c,L1,S,0, \x00 ,0,0\n")
@example(text=CSV_HEADER + GOOD_ROWS + "c,L1,S,1\x00,2,0,0\n")
@example(text=CSV_HEADER + GOOD_ROWS + f"c,L1,S,1,2,{LONG_FIELD},0\n")
@example(text=CSV_HEADER + GOOD_ROWS + "c,L1,S,1,1e400,0,0\nd,L2,S,0,,-17976931348623158e308,0\n")
@example(text=CSV_HEADER + GOOD_ROWS + "c,L1,S,2,,0,0\n")
@example(text=CSV_HEADER + GOOD_ROWS.replace("\n", f",x,{LONG_FIELD}\n"))
@example(text=CSV_HEADER + GOOD_ROWS + "   \nc,L1,S,1,2,0,0\n")
@example(text=CSV_HEADER + GOOD_ROWS + ",,,,,,,\n")
@example(text=CSV_HEADER + GOOD_ROWS.replace("\n", ",extra,9\n"))
@example(text=CSV_HEADER + GOOD_ROWS.replace("\n", ",extra\n", 1))
@example(text=CSV_HEADER + GOOD_ROWS + '"c,1",L1,"S ""2""",1,"2",0,0\n')
@example(text=CSV_HEADER + GOOD_ROWS + '"c\n1",L1,S,1,2,0,0\n"d",L1,"S\r\n2",0,,0,0\n')
@example(text=(CSV_HEADER + GOOD_ROWS).replace("\n", "\r\n"))
@example(text=(CSV_HEADER + GOOD_ROWS).replace("\n", "\r"))
@example(text='"obs_id",location,sublocation,selected,y2,x1,z1\n' + GOOD_ROWS)
# the header's last name spans two lines, the second shaped like a record
@example(text=CSV_HEADER.replace("\n", ',"h\n') + 'z,L1,S,1,1.5,0.5,2,h"\n'
         + GOOD_ROWS.replace("\n", ",0\n"))
@example(text=CSV_HEADER + GOOD_ROWS.replace("a,", "b,", 1))
# faulty files with more lines than records: the C reader skips an empty
# line and lets a quoted field span lines, so csv.reader numbers the rows
@example(text=CSV_HEADER + GOOD_ROWS + "\nc,L1,S,2,,0,0\n")
# a row of blank fields as wide as the header, which the C reader keeps and
# csv.reader skips; alone, and above a faulty row
@example(text=CSV_HEADER + GOOD_ROWS + ",,,,,,\n")
@example(text=CSV_HEADER + GOOD_ROWS + " , ,,,,,\nc,L1,S,2,,0,0\n")
# every record narrower than the header, which the C reader reads; and the
# same with a blank first record, which csv.reader skips
@example(text=CSV_HEADER + GOOD_ROWS.replace(",2\n", "\n").replace(",3\n", "\n"))
@example(text=CSV_HEADER + ",,,,,\n" + GOOD_ROWS.replace(",2\n", "\n").replace(",3\n", "\n"))
# a header ending in a lone carriage return, which no line count sees
@example(text=CSV_HEADER.replace("\n", "\r") + GOOD_ROWS + "\nc,L1,S,2,,0,0\n")
@example(text=CSV_HEADER + '"a\n",L1,S,1,1.5,0.5,2\n' + GOOD_ROWS[GOOD_ROWS.index("b"):]
         + "c,L1,S,1,oops,0,0\n")
def test_load_csv_matches_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("parity") / "d.csv"
    path.write_text(text, encoding="utf-8")
    want, want_warnings = _outcome_of(row_loop_load_csv, path)
    # load_csv reads a clean file with numpy's C reader only, so the
    # csv.reader route is also run on every file directly
    for loader in (load_csv, lambda p: dataset._load_rows(p, CsvSchema(), dataset._has_nul(p))):
        got, got_warnings = _outcome_of(loader, path)
        assert got_warnings == want_warnings
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            continue
        for name in ("obs_ids", "location_ids", "sublocation_ids"):
            assert getattr(got, name).dtype.kind == "U"
            assert getattr(got, name).tolist() == getattr(want, name).tolist()
        for name in ("selected", "x", "z", "location_codes", "sublocation_codes"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.outcome, want.outcome, equal_nan=True)
        assert (got.coords is None) == (want.coords is None)
        if want.coords is not None:
            assert np.array_equal(got.coords, want.coords)
        assert (got.x_names, got.z_names) == (want.x_names, want.z_names)


PADDING = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003"])


@st.composite
def number_text(draw):
    """A number as a CSV cell may hold it: several text forms of a double
    (subnormals and both zeros among them), exponent forms, the words for
    infinity and NaN, each with padding."""
    value = draw(st.floats(allow_subnormal=True)
                 | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308]))
    text = draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.17E}",
                                 f"{value:.6g}", f"{value:+.3f}"])
                | st.from_regex(r"[+-]?(\d{1,20}\.?\d{0,20}|\.\d{1,20})([eE][+-]?\d{1,3})?",
                                fullmatch=True)
                | st.sampled_from(["inf", "-inf", "+Infinity", "INF", "nan", "-nan", "+NaN",
                                   "1_000.5", "1e-400", "-1e400", "4.9406564584124654e-324",
                                   "17976931348623158e308"]))
    return draw(PADDING) + text + draw(PADDING)


@settings(max_examples=100, deadline=None)
@given(texts=st.lists(st.tuples(number_text(), number_text()), min_size=4, max_size=12))
# numpy's cast warns of an overflow at this text, where float() is silent
@example(texts=[("17976931348623158e308", " -0 ")] * 4)
def test_c_reader_floats_equal_float(tmp_path_factory, texts):
    # coordinates take any double, so every text reaches the parsed array;
    # the csv.reader path is patched out, so the C reader parsed them all
    lines = [CSV_HEADER.strip() + ",coord_x,coord_y"]
    lines += [f"o{i},L{i % 2},S,0,,0,0,{a},{b}" for i, (a, b) in enumerate(texts)]
    path = tmp_path_factory.mktemp("floats") / "d.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with (mock.patch.object(dataset, "_load_rows", side_effect=AssertionError("csv.reader")),
          warnings.catch_warnings()):
        warnings.simplefilter("error")      # float() parses 1e400 without a warning
        coords = load_csv(path).coords
    want = np.array([[float(a), float(b)] for a, b in texts])
    assert coords.tobytes() == want.tobytes()


@pytest.mark.parametrize("end", ["\n", ""])
def test_fault_in_one_line_per_record_file_named_by_c_reader(tmp_path, end):
    # every record is one line, so the C reader's i-th record is row i + 2;
    # the csv.reader path is patched out, so it never read the file again
    path = _write(tmp_path, CSV_6ROW.replace("d,L2,S1,1,", "d,L2,S1,2,").rstrip("\n") + end)
    with (mock.patch.object(dataset, "_load_rows", side_effect=AssertionError("csv.reader")),
          pytest.raises(ValidationError,
                        match=r"^row 5: column 'selected' must be 0 or 1, got '2'$")):
        load_csv(path)


def test_quoted_header_read_by_c_reader(tmp_path):
    # R's write.csv quotes every header name; the csv.reader path is patched
    # out, so numpy's C reader read the records after the quoted header
    plain = load_csv(_write(tmp_path, CSV_6ROW))
    path = tmp_path / "quoted.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(csv.reader(CSV_6ROW.splitlines()))
    with mock.patch.object(dataset, "_load_rows", side_effect=AssertionError("csv.reader")):
        quoted = load_csv(path)
    for name in ("obs_ids", "location_ids", "sublocation_ids", "selected", "x", "z"):
        assert np.array_equal(getattr(quoted, name), getattr(plain, name))
    assert np.array_equal(quoted.outcome, plain.outcome, equal_nan=True)


def test_label_ending_in_nul_refused(tmp_path):
    # fixed-width str arrays would drop the NUL and merge "L1\x00" into "L1"
    bad = CSV_6ROW.replace("d,L2,", "d,L1\x00,")
    with pytest.raises(ValidationError, match="row 5: column 'location' ends in a NUL"):
        load_csv(_write(tmp_path, bad))


def test_validation_error_shows_plain_id():
    # fixed-width str ids are np.str_ scalars; messages show them as str
    with pytest.raises(ValidationError) as exc:
        ClusteredDataset(obs_ids=np.array(["a", "b", "c"]), location_ids=["L1", "L1", "L2"],
                         sublocation_ids=["S", "S", "S"], selected=[True, False, True],
                         outcome=[np.nan, np.nan, 1.0], x=np.zeros(3), z=np.zeros(3))
    assert str(exc.value) == "observation 'a' (row 0) is selected but has no outcome"
    with pytest.warns(UserWarning, match=r"single observation.*: 'L2'$"):
        ClusteredDataset(obs_ids=np.array(["a", "b", "c"]), location_ids=np.array(["L1", "L1", "L2"]),
                         sublocation_ids=["S", "S", "S"], selected=[True, False, True],
                         outcome=[1.0, np.nan, 1.0], x=np.zeros(3), z=np.zeros(3))


def test_edge_ends_of_another_kind_are_unknown():
    # int ids never equal text edge ends, as in a dict lookup
    ds = make_dataset(seed=0)
    with pytest.raises(ValidationError, match=r"unknown obs_id '0' or '1'"):
        build_neighborhoods(ds, "edges", edges=np.array([["0", "1"]]))
    text_ds = ClusteredDataset(
        obs_ids=ds.obs_ids.astype(str), location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=ds.selected,
        outcome=ds.outcome, x=ds.x, z=ds.z)
    with pytest.raises(ValidationError, match=r"unknown obs_id 0 or 1"):
        build_neighborhoods(text_ds, "edges", edges=[(0, 1)])
    with pytest.raises(ValidationError, match=r"unknown obs_id 'zz' or '1'"):
        build_neighborhoods(text_ds, "edges", edges=[("zz", "1")])
    g = build_neighborhoods(text_ds, "edges", edges=[("0", "1"), ("1", "0")])
    assert neighbors_of(g, 0) == {1}


@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
       as_text=st.booleans())
def test_edges_warn_exactly_when_asymmetric(pairs, as_text):
    ds = make_dataset(n_locations=2, n_sublocations=1, n_per_sub=3, seed=0)
    if as_text:
        ds = ClusteredDataset(
            obs_ids=ds.obs_ids.astype(str), location_ids=ds.location_ids,
            sublocation_ids=ds.sublocation_ids, selected=ds.selected,
            outcome=ds.outcome, x=ds.x, z=ds.z)
        pairs = [(str(a), str(b)) for a, b in pairs]
    given_pairs = set(pairs)
    asymmetric = any((b, a) not in given_pairs for a, b in pairs if a != b)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = build_neighborhoods(ds, "edges", edges=pairs)
    assert any("asymmetric" in str(w.message) for w in caught) == asymmetric
    want = {(int(a), int(b)) for a, b in pairs if a != b}
    want |= {(b, a) for a, b in want}
    assert {(i, k) for i in range(ds.n_obs) for k in neighbors_of(g, i)} == want
