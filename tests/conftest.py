import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spatsel.dataset import ClusteredDataset  # noqa: E402

# one line per acceptance criterion, echoed after the run (never captured)
acceptance_lines: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def make_dataset(n_locations=2, n_sublocations=2, n_per_sub=3, p=1, q=1,
                 seed=0, beta=0.5, rho=0.7, selected=None) -> ClusteredDataset:
    """Small synthetic clustered dataset for unit tests."""
    rng = np.random.default_rng(seed)
    n = n_locations * n_sublocations * n_per_sub
    loc = np.repeat(np.arange(1, n_locations + 1), n_sublocations * n_per_sub)
    sub = np.tile(np.repeat(np.arange(1, n_sublocations + 1), n_per_sub), n_locations)
    x = rng.standard_normal((n, p))
    z = rng.random((n, q))
    e1 = rng.standard_normal(n)
    if selected is None:
        selected = (z.sum(axis=1) * beta + e1) > 0
    else:
        selected = np.asarray(selected, dtype=bool)
    e2 = rho * e1 + rng.standard_normal(n)
    y = x.sum(axis=1) + e2
    outcome = np.where(selected, y, np.nan)
    return ClusteredDataset(
        obs_ids=np.arange(n), location_ids=loc, sublocation_ids=sub,
        selected=selected, outcome=outcome, x=x, z=z,
    )


def shuffled(ds: ClusteredDataset, seed) -> ClusteredDataset:
    """The dataset with its rows permuted, so groups are not contiguous."""
    perm = np.random.default_rng(seed).permutation(ds.n_obs)
    return ClusteredDataset(
        obs_ids=ds.obs_ids[perm], location_ids=ds.location_ids[perm],
        sublocation_ids=ds.sublocation_ids[perm], selected=ds.selected[perm],
        outcome=ds.outcome[perm], x=ds.x[perm], z=ds.z[perm],
    )


@pytest.fixture
def tiny_dataset():
    return make_dataset(seed=7)
