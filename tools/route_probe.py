#!/usr/bin/env python3
"""Wall time of `routing.route` and `routing.sweep` at a chosen item count.

Run from anywhere:

    python3 tools/route_probe.py [--items 60000]

The probe runs two tasks: a 3-class one, and a 6-category multilabel one whose
voters only give sets of one or two categories.  For each it builds --items
synthetic items: a focal label, labels from 2 auxiliaries and a reference
label, each drawn uniformly, and an fsd in fifths (0, 0.2, ..., 1).  In the
multilabel task three pairs such as {a, b}, {b, c} and {a, c} vote the triple
{a, b, c}, a set no voter gives, which sorts into the middle of the coded
labels.  The probe times one `route` at tau 1 and one 11-point `sweep`
(tau 0, 0.1, ..., 1) over 3 runs and prints the median and range of each.

It exits 1 if any check fails.  Each run checks that every routed item's label
equals `majority_vote` of its votes (the focal label, then each
auxiliary's).  Once per task it checks that each sweep point equals `route` at
that tau scored by `kappa_for_kind` against the reference: the same kappa bit
for bit, degeneracy and routed count.
"""

import argparse
import os
import statistics
import sys
import time
from dataclasses import replace
from itertools import combinations

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from silicon.agreement import kappa_for_kind  # noqa: E402
from silicon.core import LabelValue, TaskKind, TaskSpec, majority_vote  # noqa: E402
from silicon.routing import RoutingPlan, route, sweep  # noqa: E402

REPEATS = 3
TASKS = {
    "3-class": TaskSpec(task_id="probe", kind=TaskKind.MULTICLASS,
                        label_universe=("a", "b", "c")),
    "6-category multilabel": TaskSpec(task_id="probe-ml", kind=TaskKind.MULTILABEL,
                                      label_universe=("a", "b", "c", "d", "e", "f")),
}
PLAN = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0)
TAUS = [k / 10 for k in range(11)]


def voter_labels(spec: TaskSpec) -> list[LabelValue]:
    """The labels voters give: every single category, and for a multilabel
    task also every pair."""
    singles = [LabelValue.single(k) for k in range(spec.n_categories)]
    if spec.kind is not TaskKind.MULTILABEL:
        return singles
    return singles + [LabelValue.of(pair) for pair in combinations(range(spec.n_categories), 2)]


def inputs(spec: TaskSpec, n_items: int, seed: int = 0):
    """Focal labels, fsd, auxiliary labels and reference labels of n_items items."""
    rng = np.random.default_rng(seed)
    items = [f"it{k:07d}" for k in range(n_items)]
    labels = voter_labels(spec)

    def column():
        return dict(zip(items, map(labels.__getitem__, rng.integers(len(labels), size=n_items))))

    focal, aux = column(), {name: column() for name in PLAN.auxiliaries}
    fsd = dict(zip(items, (rng.integers(6, size=n_items) / 5).tolist()))
    return focal, fsd, aux, column()


def timed(run):
    t0 = time.perf_counter()
    out = run()
    return time.perf_counter() - t0, out


def wrong_votes(spec, result, focal, aux) -> int:
    """Routed items whose label is not majority_vote of their votes; each
    distinct tuple of votes is voted once."""
    want: dict = {}
    wrong = 0
    for item in result.routed:
        votes = (focal[item], *(aux[name][item] for name in PLAN.auxiliaries))
        if votes not in want:
            want[votes] = majority_vote(list(votes), spec, PLAN.tie_rule, focal=votes[0])
        wrong += result.final[item] != want[votes]
    return wrong


def wrong_points(spec, points, focal, fsd, aux, reference) -> int:
    """Sweep points that differ from route at their tau scored by kappa_for_kind."""
    wrong = 0
    for point in points:
        result = route(replace(PLAN, tau=point.tau), focal, fsd, aux, spec)
        want = kappa_for_kind([result.final[i] for i in focal], list(reference.values()),
                              spec.kind)
        wrong += ((point.kappa, point.degenerate, point.n_routed)
                  != (want.kappa, want.degenerate, len(result.routed)))
    return wrong


def probe(name: str, spec: TaskSpec, n_items: int) -> int:
    focal, fsd, aux, reference = inputs(spec, n_items)
    route_name, sweep_name = "route at tau 1", f"sweep of {len(TAUS)} points"
    times: dict[str, list[float]] = {route_name: [], sweep_name: []}
    for _ in range(REPEATS):
        t, result = timed(lambda: route(PLAN, focal, fsd, aux, spec))
        times[route_name].append(t)
        t, points = timed(lambda: sweep(PLAN, TAUS, focal, fsd, aux, reference, spec))
        times[sweep_name].append(t)
        wrong = wrong_votes(spec, result, focal, aux)
        if wrong:
            print(f"{name}: {wrong} routed labels differ from majority_vote", file=sys.stderr)
            return 1
    wrong = wrong_points(spec, points, focal, fsd, aux, reference)
    if wrong:
        print(f"{name}: {wrong} sweep points differ from route and kappa_for_kind",
              file=sys.stderr)
        return 1
    given = set(voter_labels(spec))
    unseen = len({result.final[i] for i in result.routed} - given)
    print(f"{name}, {n_items} items, {len(result.routed)} routed at tau 1, "
          f"{unseen} voted labels no voter gives, {REPEATS} runs each:")
    for what, values in times.items():
        print(f"  {what}: median {statistics.median(values) * 1e3:.1f} ms "
              f"(min {min(values) * 1e3:.1f}, max {max(values) * 1e3:.1f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=60_000)
    args = parser.parse_args(argv)
    if args.items < 2:
        parser.error("--items must be at least 2")
    return max(probe(name, spec, args.items) for name, spec in TASKS.items())


if __name__ == "__main__":
    sys.exit(main())
