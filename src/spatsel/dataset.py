"""Clustered cross-sectional data: validation, CSV ingestion, neighborhoods.

A dataset is a flat list of observations, each belonging to one location
and one sub-location nested inside it. Selection is a 0/1 indicator; the
outcome is recorded only for selected rows. Storage is column-oriented
(numpy arrays) so the simulation harness can build thousands of datasets
cheaply. A group (location or sub-location) is held only as its dense
integer code; `group_layout` and `group_pairs` lay groups out from codes.

CSV ingestion is columnar too. numpy's C reader (`np.loadtxt` into
StringDType) tokenizes a file once. csv.reader tokenizes only what the C
reader refuses or could read differently (a whitespace-only line, a short
or ragged row, a lone carriage return, any NUL, a header whose quoted name
spans lines, a field longer than `csv.field_size_limit()`), and a faulty
file whose C-read records are not its rows (see `load_csv`); it only
tokenizes and numbers the rows. One set of record checks (`_dataset`) then
runs on the records whichever reader tokenized them, each check once as a
vector, and number columns are cast to float64, which parses as float()
does.
Identifiers read from a file are fixed-width str arrays; `load_adjacency`
returns its obs_id pairs as an (m, 2) str array, which the `edges` rule
matches to rows with one sort and a binary search.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Sequence

import numpy as np

from .exceptions import ValidationError

NEIGHBOR_RULES = ("sublocation", "location", "edges", "distance")


@dataclass
class ClusteredDataset:
    """Validated clustered cross-section.

    Columns are stored as arrays aligned on the observation index:
    `location_ids` / `sublocation_ids` hold the raw identifiers while
    `location_codes` / `sublocation_codes` hold dense integer codes
    (sub-location codes are unique per (location, sublocation) pair).
    `outcome` is NaN exactly where `selected` is False.
    """

    obs_ids: np.ndarray
    location_ids: np.ndarray
    sublocation_ids: np.ndarray
    selected: np.ndarray
    outcome: np.ndarray
    x: np.ndarray
    z: np.ndarray
    coords: np.ndarray | None = None
    x_names: list[str] = field(default_factory=list)
    z_names: list[str] = field(default_factory=list)

    location_codes: np.ndarray = field(init=False, repr=False)
    sublocation_codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.obs_ids = np.asarray(self.obs_ids)
        self.location_ids = np.asarray(self.location_ids)
        self.sublocation_ids = np.asarray(self.sublocation_ids)
        self.selected = np.asarray(self.selected, dtype=bool)
        self.outcome = np.asarray(self.outcome, dtype=np.float64)
        self.x = np.ascontiguousarray(np.atleast_2d(self.x), dtype=np.float64)
        self.z = np.ascontiguousarray(np.atleast_2d(self.z), dtype=np.float64)
        if self.x.shape[0] != self.n_obs:
            self.x = self.x.T
        if self.z.shape[0] != self.n_obs:
            self.z = self.z.T
        if not self.x_names:
            self.x_names = [f"x{i + 1}" for i in range(self.p)]
        if not self.z_names:
            self.z_names = [f"z{i + 1}" for i in range(self.q)]
        self._validate()

    # -- basic dimensions -------------------------------------------------
    @property
    def n_obs(self) -> int:
        return len(self.obs_ids)

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.z.shape[1]

    @property
    def n_selected(self) -> int:
        return int(self.selected.sum())

    def selected_indices(self) -> np.ndarray:
        return np.flatnonzero(self.selected)

    # -- validation --------------------------------------------------------
    def _validate(self) -> None:
        n = self.n_obs
        for name, arr in (
            ("location_ids", self.location_ids),
            ("sublocation_ids", self.sublocation_ids),
            ("selected", self.selected),
            ("outcome", self.outcome),
        ):
            if len(arr) != n:
                raise ValidationError(f"{name} has length {len(arr)}, expected {n}")
        if self.x.shape[0] != n or self.z.shape[0] != n:
            raise ValidationError("x and z must have one row per observation")
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.float64)
            if self.coords.shape != (n, 2):
                raise ValidationError("coords must be an (n, 2) array")

        ids = np.sort(self.obs_ids, kind="stable")   # fast on ids in order
        if (ids[1:] == ids[:-1]).any():
            raise ValidationError("duplicate obs_id values present")

        bad = np.flatnonzero(self.selected != np.isfinite(self.outcome))
        if bad.size:
            i = int(bad[0])
            if self.selected[i]:
                raise ValidationError(
                    f"observation {self.obs_ids.item(i)!r} (row {i}) is selected but has no outcome"
                )
            raise ValidationError(
                f"observation {self.obs_ids.item(i)!r} (row {i}) is not selected but carries an outcome"
            )
        if not (np.isfinite(self.x).all() and np.isfinite(self.z).all()):
            raise ValidationError("x and z must be finite")

        loc_unique, loc_codes = np.unique(self.location_ids, return_inverse=True)
        if len(loc_unique) < 2:
            raise ValidationError("dataset must contain at least 2 locations")
        # Sub-locations nest within locations: code the (location, sublocation) pair.
        sub_unique, sub_within = np.unique(self.sublocation_ids, return_inverse=True)
        pair = loc_codes.astype(np.int64) * (len(sub_unique) + 1) + sub_within
        _, sub_codes = np.unique(pair, return_inverse=True)
        self.location_codes = loc_codes.astype(np.int64)
        self.sublocation_codes = sub_codes.astype(np.int64)

        counts = np.bincount(loc_codes)
        singles = np.flatnonzero(counts == 1)
        if singles.size:
            ids = ", ".join(repr(loc_unique.item(i)) for i in singles[:5])
            warnings.warn(
                f"{singles.size} location(s) contain a single observation "
                f"(no within-location pair exists): {ids}",
                stacklevel=3,
            )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


@dataclass
class CsvSchema:
    """Column mapping for CSV ingestion.

    `x_cols`/`z_cols` left empty means auto-detection of `x1..xp` / `z1..zq`
    prefixes from the header. Coordinates are optional.
    """

    obs_id: str = "obs_id"
    location: str = "location"
    sublocation: str = "sublocation"
    selected: str = "selected"
    outcome: str = "y2"
    x_cols: list[str] = field(default_factory=list)
    z_cols: list[str] = field(default_factory=list)
    coord_x: str | None = None
    coord_y: str | None = None


def _detect_block(header: Sequence[str], prefix: str) -> list[str]:
    cols = []
    k = 1
    while f"{prefix}{k}" in header:
        cols.append(f"{prefix}{k}")
        k += 1
    return cols


def _records(fh, path):
    """Records of an open CSV file; an unreadable one is a ValidationError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from None


def _filled(rows: list) -> tuple[list, np.ndarray]:
    """The rows with a field that is not blank, and their 0-based positions.

    A row of empty or whitespace-only fields (or none) is skipped.
    """
    filled = np.fromiter(map(bool, map(str.strip, map("".join, rows))), dtype=bool,
                         count=len(rows))
    if filled.all():
        return rows, np.arange(len(rows))
    return list(itertools.compress(rows, filled)), np.flatnonzero(filled)


def _parses(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _layout(header: list | None, schema: CsvSchema, path):
    """The header's width, column positions and x, z and coordinate columns;
    a missing column is a ValidationError."""
    if header is None:
        raise ValidationError(f"{path}: file is empty")
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
    return len(header), pos, x_cols, z_cols, coord_cols


def _c_fields(fh) -> np.ndarray | None:
    """The remaining records of an open CSV file as a 2-D StringDType array,
    tokenized by numpy's C reader; None for input that only csv.reader reads.

    The C reader splits records as csv.reader does where it accepts them.
    It refuses a row with another field count than the first (a short or
    whitespace-only line among them) and a lone carriage return. It has no
    field-size limit, so a longer field than csv.reader allows is sent back.
    A file with a NUL never reaches it (see `_has_nul`).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # input with no data
            fields = np.loadtxt(fh, dtype="T", delimiter=",", quotechar='"',
                                comments=None, ndmin=2)
    except ValueError:
        return None
    if not fields.size or np.strings.str_len(fields).max() > csv.field_size_limit():
        return None
    return fields


def _has_nul(path) -> bool:
    """Whether a file holds a NUL character. StringDType strings and their
    `np.strings` functions treat a trailing NUL as absent, where `str.strip`
    keeps it, so such a file is read by csv.reader."""
    with open(path, "rb") as fh:
        return any(b"\x00" in chunk for chunk in iter(partial(fh.read, 1 << 20), b""))


def _fixed_width(texts: np.ndarray) -> np.ndarray:
    """StringDType text as a fixed-width str array as wide as its longest."""
    return texts.astype(f"U{max(int(np.strings.str_len(texts).max(initial=0)), 1)}")


def _dataset(fields: np.ndarray, layout: tuple, schema: CsvSchema, line: np.ndarray,
             counts: np.ndarray | None = None, nul: bool = False) -> ClusteredDataset:
    """The dataset in a 2-D StringDType array of records, whichever reader
    tokenized them, after every record check.

    `layout` is what `_layout` returns and `line` the records' row numbers in
    the file. A fault raises a ValidationError naming the first faulty row
    and, within it, the first failing check in this order: field count, an
    id or label ending in a NUL, duplicate obs_id, the 0/1 flag, outcome
    present exactly when selected, then each number (outcome, x, z,
    coordinates). Rows after a short row are not checked. `counts` holds
    each record's field count (default: the array's width). `nul` marks text
    with a NUL, which `np.strings` drops from a string's end, so that text
    is stripped in Python. Flags and outcomes are stripped and checked only
    when they fail as read, and a repeated obs_id's row is looked for only
    on a fault (on a clean load the dataset's own sort of the ids is the check).
    """
    width, pos, x_cols, z_cols, coord_cols = layout
    # (row, place in the check order, message); the least is raised
    faults: list = []

    def check(mask, message, place=None) -> None:
        bad = np.flatnonzero(mask)
        if bad.size:
            faults.append((int(bad[0]), len(faults) if place is None else place,
                           message(int(bad[0]))))

    counts = np.broadcast_to(fields.shape[1], len(fields)) if counts is None else counts
    check(counts < width, lambda i: f"row {line[i]}: expected {width} fields, got {counts[i]}")
    if faults:
        fields = fields[:faults[0][0]]   # rows past a short one are never reached
        if not len(fields):   # a narrow C-read record has no column to index
            raise ValidationError(faults[0][2])
    n = len(fields)

    def text(name: str) -> np.ndarray:
        col = fields[:, pos[name]]
        if nul:
            return np.array([t.strip() for t in col.tolist()], dtype="T")
        return np.strings.strip(col)

    def labels(name: str) -> np.ndarray:
        """A text column as a fixed-width str array. Those drop trailing NUL
        characters, so a field that ends in one is refused."""
        texts = text(name)
        if nul:
            check([t.endswith("\x00") for t in texts.tolist()],
                  lambda i: f"row {line[i]}: column {name!r} ends in a NUL character")
        return _fixed_width(texts)

    obs_ids = labels(schema.obs_id)
    location_ids, sublocation_ids = labels(schema.location), labels(schema.sublocation)
    # the duplicate obs_id check, made last, ranks here in the check order
    repeat_place = len(faults) - 0.5

    def numbers(name: str, col: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Parse the `rows` of one text column. The cast parses as float()
        does, which turns 1e400 into inf silently."""
        texts = col[rows]
        try:
            with np.errstate(over="ignore"):
                return texts.astype(np.float64)
        except ValueError:
            bad = np.zeros(n, dtype=bool)
            bad[rows] = [not _parses(t) for t in texts.tolist()]
            check(bad, lambda i: (
                f"row {line[i]}: column {name!r} has unparseable value {col[i]!r}"))
            return np.zeros(len(texts))

    def block(names: list) -> np.ndarray:
        return np.column_stack([numbers(c, fields[:, pos[c]]) for c in names])

    # flags and outcomes as read; only if they fail so are they stripped and
    # checked (float() ignores an outcome's padding; a blank one fails to parse)
    flags, outcome_text = fields[:, pos[schema.selected]], fields[:, pos[schema.outcome]]
    selected, outcome = flags == "1", np.full(n, np.nan)
    try:
        if not ((selected | (flags == "0")).all() and np.array_equal(selected, outcome_text != "")):
            raise ValueError("a flag or outcome fails as read")
        with np.errstate(over="ignore"):
            outcome[selected] = outcome_text[selected].astype(np.float64)
    except ValueError:
        flags, outcome_text = text(schema.selected), text(schema.outcome)
        selected, unselected, has_outcome = flags == "1", flags == "0", outcome_text != ""
        check(~(selected | unselected), lambda i: (
            f"row {line[i]}: column {schema.selected!r} must be 0 or 1, got {flags[i]!r}"))
        check(selected & ~has_outcome, lambda i: (
            f"row {line[i]}: selected observation {obs_ids.item(i)!r} has empty outcome"))
        check(unselected & has_outcome, lambda i: (
            f"row {line[i]}: non-selected observation {obs_ids.item(i)!r} carries an outcome"))
        parsed = selected & has_outcome
        outcome[parsed] = numbers(schema.outcome, outcome_text, parsed)
    x, z = block(x_cols), block(z_cols)
    coords = block(coord_cols) if coord_cols else None
    if not faults:
        try:
            return ClusteredDataset(obs_ids, location_ids, sublocation_ids, selected, outcome,
                                    x, z, coords, x_cols, z_cols)
        except ValidationError as exc:   # its sort finds a repeated obs_id, not its row
            error = exc
    # only now is a repeated obs_id looked for, so a clean load sorts its ids once
    order = np.argsort(obs_ids, kind="stable")
    repeat = np.zeros(n, dtype=bool)
    repeat[order[1:]] = obs_ids[order[1:]] == obs_ids[order[:-1]]
    check(repeat, lambda i: f"row {line[i]}: duplicate obs_id {obs_ids.item(i)!r}", repeat_place)
    raise ValidationError(min(faults)[2]) if faults else error


def load_csv(path, schema: CsvSchema | None = None) -> ClusteredDataset:
    """Load and validate a clustered dataset from a UTF-8 CSV file.

    The header row is required. Canonical columns are
    `obs_id, location, sublocation, selected, y2, x1..xp, z1..zq[, coord_x, coord_y]`;
    `schema` remaps any of them. A missing outcome is an empty field.
    Row numbers in error messages count the header as row 1.

    numpy's C reader tokenizes the file. csv.reader, which only tokenizes
    and numbers rows, reads input the C reader cannot read as it would (see
    `_c_fields`), a header whose quoted name spans lines, and a faulty file
    with more lines than records or a blank record, whose C record i need
    not be row i + 2. One set of record checks (`_dataset`) runs on either
    reader's records, each check one vector mask; when several rows fail,
    the error names the first. A record the csv module cannot read is
    refused before any row is checked.
    """
    schema = schema or CsvSchema()
    nul = _has_nul(path)
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        header = None if nul else next(_records([first], path), None)
        # a header whose quotes stay open at the line break spans lines, and
        # so is left to csv.reader, as are an empty file and a file with a NUL
        if header and not header[-1].endswith(("\n", "\r")):
            layout = _layout(header, schema, path)
            fields = _c_fields(fh)
            if fields is not None:
                try:
                    return _dataset(fields, layout, schema, np.arange(len(fields)) + 2)
                except ValidationError:
                    # C record i is row i + 2 when each record is one line and
                    # none is blank (csv.reader skips those); otherwise
                    # csv.reader reads again to name the faulty row
                    fh.seek(0)
                    if (sum(1 for _ in fh) == len(fields) + 1
                            and np.strings.str_len(np.strings.strip(fields)).any(axis=1).all()):
                        raise
    return _load_rows(path, schema, nul)


def _load_rows(path, schema: CsvSchema, nul: bool) -> ClusteredDataset:
    """`load_csv` through csv.reader, which only tokenizes: it drops blank
    rows, ends the records at the first short row and numbers the rows for
    `_dataset`'s messages. `nul` tells whether the file holds a NUL."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _records(fh, path)
        layout = _layout(next(reader, None), schema, path)
        rows = list(reader)

    rows, line = _filled(rows)
    line += 2   # the header is row 1
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    width = layout[0]
    counts = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    short = np.flatnonzero(counts < width)
    if short.size:
        # the short row ends the records, padded so that the array is
        # rectangular; its count still refuses it
        end = int(short[0]) + 1
        rows, line, counts = rows[:end], line[:end], counts[:end]
        rows[-1] = rows[-1] + [""] * width
    if (counts != width).any():
        rows = [r[:width] for r in rows]
    # one flat pass of the fields builds the array ~3x faster than np.array
    # does from the nested rows
    fields = np.fromiter(itertools.chain.from_iterable(rows), dtype="T",
                         count=len(rows) * width).reshape(len(rows), width)
    del rows
    return _dataset(fields, layout, schema, line, counts, nul)


def write_csv(ds: ClusteredDataset, path) -> None:
    """Write a dataset in the canonical CSV layout (full float precision)."""
    header = ["obs_id", "location", "sublocation", "selected", "y2",
              *ds.x_names, *ds.z_names]
    numbers = [ds.x, ds.z]
    if ds.coords is not None:
        header += ["coord_x", "coord_y"]
        numbers.append(ds.coords)
    # column by column; a cell's text is made only as its row is written, so
    # the text of the whole file is never held at once (repr keeps floats exact)
    cols = [ds.obs_ids, ds.location_ids, ds.sublocation_ids, ds.selected.astype(int).tolist(),
            (repr(float(v)) if s else "" for v, s in zip(ds.outcome, ds.selected))]
    cols += [map(repr, map(float, c)) for block in numbers for c in block.T]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))


def load_adjacency(path) -> np.ndarray:
    """Read a two-column CSV of obs_id pairs (no header) as an (m, 2) str array.

    Blank rows are skipped, fields are stripped and fields past the second
    are ignored. numpy's C reader tokenizes the file; csv.reader reads it
    instead where the C reader could differ (see `_c_fields`) or a row is
    blank.
    """
    fields = None
    if not _has_nul(path):
        with open(path, newline="", encoding="utf-8") as fh:
            fields = _c_fields(fh)
    if fields is not None and fields.shape[1] >= 2:
        texts = np.strings.strip(fields)
        if np.strings.str_len(texts).any(axis=1).all():
            return _fixed_width(texts[:, :2])
    with open(path, newline="", encoding="utf-8") as fh:
        rows, record = _filled(list(_records(fh, path)))
    short = np.flatnonzero(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)) < 2)
    if short.size:
        raise ValidationError(f"adjacency row {record[short[0]] + 1}: expected two obs_id fields")
    return np.array([list(map(str.strip, map(itemgetter(k), rows))) for k in (0, 1)],
                    dtype=str).T


# ---------------------------------------------------------------------------
# Neighborhood graphs
# ---------------------------------------------------------------------------


def group_layout(codes: np.ndarray):
    """Where each position sits among the positions sharing its code.

    `codes` are non-negative integers. Returns (sizes, order, start, rank):
    `sizes[c]` members carry code c, `order` lists every group's members in
    ascending position (stable sort by code), group c fills
    `order[start[c]:start[c] + sizes[c]]`, and position i is the
    `rank[i]`-th member of its group.
    """
    sizes = np.bincount(codes)
    order = np.argsort(codes, kind="stable")
    start = np.cumsum(sizes) - sizes
    rank = np.empty(len(codes), dtype=np.int64)
    rank[order] = np.arange(len(codes)) - start[codes[order]]
    return sizes, order, start, rank


def group_pairs(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (i, k), i != k, of positions sharing a code.

    `codes` are non-negative integers. The pairs come back as two int64
    arrays sorted by i, then by k.
    """
    codes = np.asarray(codes, dtype=np.int64)
    sizes, order, start, rank = group_layout(codes)
    deg = sizes[codes] - 1
    i = np.repeat(np.arange(len(codes), dtype=np.int64), deg)
    # the t-th partner of i is the t-th member of its group, skipping i itself
    t = np.arange(len(i)) - np.repeat(np.cumsum(deg) - deg, deg)
    k = order[np.repeat(start[codes], deg) + t + (t >= np.repeat(rank, deg))]
    return i, k


@dataclass
class NeighborhoodGraph:
    """Symmetric, irreflexive neighbor sets over the observations of a dataset.

    A membership rule (`sublocation`, `location`) keeps only `group_codes`:
    the neighbors of an observation are the others carrying its code. The
    other rules keep CSR adjacency (`indptr`, `indices`) instead, neighbor
    indices ascending within each row.
    """

    n_obs: int
    location_codes: np.ndarray
    group_codes: np.ndarray | None = None
    indptr: np.ndarray | None = None
    indices: np.ndarray | None = None


def _graph_from_pairs(ds: ClusteredDataset, src: np.ndarray,
                      dst: np.ndarray) -> NeighborhoodGraph:
    # Symmetrize, drop self loops and duplicates, then pack to CSR.
    keep = src != dst
    if not keep.all():
        warnings.warn("adjacency contains self-pairs; they were dropped", stacklevel=3)
        src, dst = src[keep], dst[keep]
    keys = np.sort(np.concatenate([src * np.int64(ds.n_obs) + dst,
                                   dst * np.int64(ds.n_obs) + src]))
    # sorted keys give pairs ascending by a, then by b; np.unique would hash
    # the keys first, which costs several times the sort
    a, b = np.divmod(keys[np.diff(keys, prepend=-1) > 0], ds.n_obs)
    indptr = np.zeros(ds.n_obs + 1, dtype=np.int64)
    np.cumsum(np.bincount(a, minlength=ds.n_obs), out=indptr[1:])
    return NeighborhoodGraph(n_obs=ds.n_obs, location_codes=ds.location_codes,
                             indptr=indptr, indices=b)


def build_neighborhoods(ds: ClusteredDataset, rule: str, *,
                        d: float | None = None,
                        edges: Sequence | np.ndarray | None = None) -> NeighborhoodGraph:
    """Build the neighbor sets of every observation under one of four rules.

    rule = "sublocation": all other members of the observation's sub-location.
    rule = "location":    all other members of the observation's location.
    rule = "edges":       explicit obs_id pairs, an (m, 2) array (as
                          `load_adjacency` returns) or a list of pairs; an
                          asymmetric (directed) list is symmetrized with a
                          warning.
    rule = "distance":    all observations within Euclidean distance d
                          (requires coordinates and d > 0).

    The result is always symmetric and irreflexive.
    """
    if rule not in NEIGHBOR_RULES:
        raise ValidationError(f"unknown neighborhood rule {rule!r}; expected one of {NEIGHBOR_RULES}")

    if rule in ("sublocation", "location"):
        codes = ds.location_codes if rule == "location" else ds.sublocation_codes
        return NeighborhoodGraph(n_obs=ds.n_obs, location_codes=ds.location_codes,
                                 group_codes=codes)
    if rule == "edges":
        if edges is None:
            raise ValidationError("rule 'edges' requires an adjacency list")
        pairs = np.asarray(edges).reshape(len(edges), 2)
        # one sort of the ids, then a binary search per edge end; ends of
        # another kind than the ids (text against integers) never compare equal
        order = np.argsort(ds.obs_ids)
        ids = ds.obs_ids[order]
        at = np.minimum(np.searchsorted(ids, pairs), ds.n_obs - 1)
        ends = np.where(ids[at] == pairs, order[at], -1)
        unknown = np.flatnonzero((ends < 0).any(axis=1))
        if unknown.size:
            a_id, b_id = pairs[unknown[0]].tolist()
            raise ValidationError(f"adjacency references unknown obs_id {a_id!r} or {b_id!r}")
        src, dst = ends[:, 0], ends[:, 1]
        loops = src == dst
        # symmetric when every reversed pair is a given pair; np.isin on these
        # keys costs several times one sort and a binary search
        keys = np.sort(src * ds.n_obs + dst)
        reverse = dst[~loops] * ds.n_obs + src[~loops]
        if not (keys[np.searchsorted(keys, reverse).clip(max=len(keys) - 1)] == reverse).all():
            warnings.warn("edge list is asymmetric; it was symmetrized", stacklevel=2)
        return _graph_from_pairs(ds, src, dst)

    # distance rule
    if d is None or not d > 0:
        raise ValidationError("rule 'distance' requires a threshold d > 0")
    if ds.coords is None:
        raise ValidationError("rule 'distance' requires coordinates on every observation")
    from scipy.spatial import cKDTree

    pairs = cKDTree(ds.coords).query_pairs(r=float(d), output_type="ndarray").reshape(-1, 2)
    return _graph_from_pairs(ds, pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64))
