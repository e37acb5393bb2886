#!/usr/bin/env python3
"""Size experiment for the wild cluster bootstrap with few clusters.

Generates data with the x coefficient truly equal to 1, tests that null
with the restricted wild cluster bootstrap on the sub-location
differencing fit, and reports the rejection rate at the 5% level. A draw
rejects when its p-value is strictly below 0.05, the rule the bootstrap
interval applies.

    python3 scripts/bootstrap_size.py --locations 6 --outer 5 --boot 99
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spatsel.dataset import build_neighborhoods  # noqa: E402
from spatsel.differencing import fixed_effect_operator  # noqa: E402
from spatsel.estimator import two_step_fit  # noqa: E402
from spatsel.exceptions import EstimationError  # noqa: E402
from spatsel.inference import wild_cluster_bootstrap  # noqa: E402
from spatsel.montecarlo import SimCell, generate_sample, rep_seed  # noqa: E402
from spatsel.probit import fit_probit  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--locations", type=int, default=19)
    parser.add_argument("--outer", type=int, default=500, help="outer replications")
    parser.add_argument("--boot", type=int, default=999, help="bootstrap draws")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    cell = SimCell(J=args.locations, s=2, n=3, seed=args.seed)
    start = time.perf_counter()
    rejections = failures = done = 0
    for r in range(args.outer):
        ds = generate_sample(cell, rep_seed(cell, r))
        try:
            probit = fit_probit(ds)
            graph = build_neighborhoods(ds, "sublocation")
            op = fixed_effect_operator(graph, ds.selected_indices())
            fit = two_step_fit(ds, op, probit_fit=probit)
        except EstimationError:
            failures += 1
            continue
        res = wild_cluster_bootstrap(fit, op, ds, "x1", null_value=1.0,
                                     B=args.boot, seed=r)
        done += 1
        rejections += res.p_value < 0.05

    rate = rejections / done if done else float("nan")
    print(f"clusters={args.locations} outer={done} failures={failures} "
          f"B={args.boot}: rejection rate at 5% = {rate:.4f} "
          f"({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
