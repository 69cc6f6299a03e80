#!/usr/bin/env python3
"""Wall time of `routing.route` and `routing.sweep` at a chosen item count.

Run from anywhere:

    python3 tools/route_probe.py [--items 60000]

The probe builds --items synthetic items of a 3-class task: a focal label,
labels from 2 auxiliaries and a reference label, each drawn uniformly, and an
fsd in fifths (0, 0.2, ..., 1).  It times one `route` at tau 1 and one
11-point `sweep` (tau 0, 0.1, ..., 1) over 3 runs and prints the median and
range of each.  Each run checks that every routed item's label equals
`majority_vote` of its votes (the focal label, then each auxiliary's), and the
probe exits 1 if any differ.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from silicon.core import LabelValue, TaskKind, TaskSpec, majority_vote  # noqa: E402
from silicon.routing import RoutingPlan, route, sweep  # noqa: E402

REPEATS = 3
SPEC = TaskSpec(task_id="probe", kind=TaskKind.MULTICLASS, label_universe=("a", "b", "c"))
PLAN = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0)
TAUS = [k / 10 for k in range(11)]


def inputs(n_items: int, seed: int = 0):
    """Focal labels, fsd, auxiliary labels and reference labels of n_items items."""
    rng = np.random.default_rng(seed)
    items = [f"it{k:07d}" for k in range(n_items)]
    labels = [LabelValue.single(k) for k in range(SPEC.n_categories)]

    def column():
        return dict(zip(items, map(labels.__getitem__, rng.integers(len(labels), size=n_items))))

    focal, aux = column(), {name: column() for name in PLAN.auxiliaries}
    fsd = dict(zip(items, (rng.integers(6, size=n_items) / 5).tolist()))
    return focal, fsd, aux, column()


def timed(run):
    t0 = time.perf_counter()
    out = run()
    return time.perf_counter() - t0, out


def wrong_votes(result, focal, aux) -> int:
    """Routed items whose label is not majority_vote of their votes; each
    distinct tuple of votes is voted once."""
    want: dict = {}
    wrong = 0
    for item in result.routed:
        votes = (focal[item], *(aux[name][item] for name in PLAN.auxiliaries))
        if votes not in want:
            want[votes] = majority_vote(list(votes), SPEC, PLAN.tie_rule, focal=votes[0])
        wrong += result.final[item] != want[votes]
    return wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=60_000)
    args = parser.parse_args(argv)
    if args.items < 2:
        parser.error("--items must be at least 2")

    focal, fsd, aux, reference = inputs(args.items)
    route_name, sweep_name = "route at tau 1", f"sweep of {len(TAUS)} points"
    times: dict[str, list[float]] = {route_name: [], sweep_name: []}
    for _ in range(REPEATS):
        t, result = timed(lambda: route(PLAN, focal, fsd, aux, SPEC))
        times[route_name].append(t)
        times[sweep_name].append(timed(lambda: sweep(PLAN, TAUS, focal, fsd, aux, reference,
                                                     SPEC))[0])
        wrong = wrong_votes(result, focal, aux)
        if wrong:
            print(f"{wrong} routed labels differ from majority_vote", file=sys.stderr)
            return 1
    print(f"{args.items} items, {len(result.routed)} routed at tau 1, {REPEATS} runs each:")
    for name, values in times.items():
        print(f"  {name}: median {statistics.median(values) * 1e3:.1f} ms "
              f"(min {min(values) * 1e3:.1f}, max {max(values) * 1e3:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
