"""Seeded inputs for the benchmark workloads.

Every dataset is drawn by spatsel's own generating process,
`generate_sample(SimCell(..., seed=seed), rep_seed(cell, rep))`, with the
benchmark's --seed as the cell's master seed, so one seed always gives the
same files. Inputs are written before any timing starts; the program only
ever sees the generated files or datasets.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from spatsel.dataset import ClusteredDataset, write_csv
from spatsel.montecarlo import SimCell, generate_sample, rep_seed

# Location centres sit LOCATION_SPACING apart on a square lattice and
# sub-location centres on a circle of SUBLOCATION_RADIUS around them;
# individuals scatter N(0, 1) around their sub-location. With the distance
# threshold far below the spacing, distance neighbourhoods never cross
# locations.
LOCATION_SPACING = 100.0
SUBLOCATION_RADIUS = 10.0
# Each observation is linked to the next EDGE_SPAN members of its
# sub-location, listed in one direction only.
EDGE_SPAN = 3


def dataset(J: int, s: int, n: int, seed: int, rep: int) -> ClusteredDataset:
    cell = SimCell(J=J, s=s, n=n, seed=seed)
    return generate_sample(cell, rep_seed(cell, rep))


def with_coordinates(ds: ClusteredDataset, seed: int, rep: int) -> ClusteredDataset:
    """The same dataset with clustered planar coordinates attached."""
    rng = np.random.default_rng([seed, rep])
    loc = ds.location_codes
    side = int(np.ceil(np.sqrt(loc.max() + 1)))
    loc_xy = LOCATION_SPACING * np.column_stack([loc % side, loc // side])
    # generated sub-location ids run 1..s inside every location
    sub = ds.sublocation_ids.astype(np.float64)
    angle = 2.0 * np.pi * (sub - 1.0) / sub.max()
    sub_xy = SUBLOCATION_RADIUS * np.column_stack([np.cos(angle), np.sin(angle)])
    coords = loc_xy + sub_xy + rng.standard_normal((ds.n_obs, 2))
    return ClusteredDataset(
        obs_ids=ds.obs_ids, location_ids=ds.location_ids,
        sublocation_ids=ds.sublocation_ids, selected=ds.selected,
        outcome=ds.outcome, x=ds.x, z=ds.z, coords=coords,
        x_names=ds.x_names, z_names=ds.z_names,
    )


def write_adjacency(ds: ClusteredDataset, path) -> None:
    """One-directional obs_id pairs within sub-locations."""
    order = np.argsort(ds.sublocation_codes, kind="stable")
    codes = ds.sublocation_codes[order]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for step in range(1, EDGE_SPAN + 1):
            same = codes[step:] == codes[:-step]
            for a, b in zip(order[:-step][same], order[step:][same]):
                writer.writerow([ds.obs_ids[a], ds.obs_ids[b]])


def csv_inputs(workdir, J: int, s: int, n: int, seed: int, reps, *,
               graph: bool = False) -> list[dict]:
    """Write one dataset CSV (plus, for `graph`, its adjacency file) per rep."""
    os.makedirs(workdir, exist_ok=True)
    out = []
    for rep in reps:
        ds = dataset(J, s, n, seed, rep)
        item = {"rep": rep, "csv": os.path.join(workdir, f"data_{rep}.csv"),
                "n_selected": ds.n_selected}
        if graph:
            ds = with_coordinates(ds, seed, rep)
            item["adjacency"] = os.path.join(workdir, f"adjacency_{rep}.csv")
            write_adjacency(ds, item["adjacency"])
        write_csv(ds, item["csv"])
        out.append(item)
    return out
