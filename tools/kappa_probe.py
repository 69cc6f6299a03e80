#!/usr/bin/env python3
"""Wall time of mean pairwise kappa over a code matrix, against the frozen walk.

Run from anywhere:

    python3 tools/kappa_probe.py [--sources 8,30] [--items 1000]

The probe runs two tasks: a 3-class one, and a 6-category multilabel one whose
labels are sets of one to three categories.  For each task and each source
count in --sources it builds a seeded items x sources code matrix of --items
items: every source copies a shared true label on about 70% of items and
draws uniformly otherwise, and leaves about 10% of items unlabelled.  It times
`agreement.mean_pairwise_kappa_codes` (every pair counted by one bincount and
finished as one stack) and, for comparison, the frozen per-pair walk in
tests/pairwise_oracle.py, alternated over 5 runs, and prints the median and
range of each.

It exits 1 if any check fails: every run compares each PairKappa, the mean and
n_items with the frozen walk's, every float by its repr.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, os.path.join(HERE, os.pardir, "tests"))

from silicon.agreement import mean_pairwise_kappa_codes  # noqa: E402
from silicon.core import LabelValue, TaskKind  # noqa: E402
from pairwise_oracle import frozen_mean_pairwise_kappa_codes  # noqa: E402

REPEATS = 5
TASKS = {"3-class": (TaskKind.MULTICLASS, 3), "6-category multilabel": (TaskKind.MULTILABEL, 6)}


def inputs(kind: TaskKind, n_categories: int, n_sources: int, n_items: int, seed: int = 0):
    """(names, items, table, matrix) for mean_pairwise_kappa_codes."""
    rng = np.random.default_rng([seed, n_sources, n_items])
    if kind is TaskKind.MULTILABEL:
        table = list({LabelValue.of(rng.choice(n_categories, size=int(m), replace=False))
                      for m in rng.integers(1, 4, size=200)})
    else:
        table = [LabelValue.single(k) for k in range(n_categories)]
    truth = rng.integers(len(table), size=(n_items, 1))
    drawn = rng.integers(len(table), size=(n_items, n_sources))
    matrix = np.where(rng.random((n_items, n_sources)) < 0.7, truth, drawn)
    matrix[rng.random((n_items, n_sources)) < 0.1] = -1
    names = [f"crowd{j:02d}" for j in range(n_sources)]
    items = [f"it{k:07d}" for k in range(n_items)]
    return names, items, table, matrix


def fingerprint(report) -> tuple:
    return repr(report.pairwise), repr(report.mean_kappa), repr(report.kappa), report.n_items


def timed(run):
    t0 = time.perf_counter()
    out = run()
    return time.perf_counter() - t0, out


def probe(name: str, kind: TaskKind, n_categories: int, n_sources: int, n_items: int) -> int:
    args = (*inputs(kind, n_categories, n_sources, n_items), kind)
    times: dict[str, list[float]] = {"mean_pairwise_kappa_codes": [], "frozen per-pair walk": []}
    for _ in range(REPEATS):
        t, got = timed(lambda: mean_pairwise_kappa_codes(*args))
        times["mean_pairwise_kappa_codes"].append(t)
        t, want = timed(lambda: frozen_mean_pairwise_kappa_codes(*args))
        times["frozen per-pair walk"].append(t)
        if fingerprint(got) != fingerprint(want):
            print(f"{name}, {n_sources} sources: the pairs differ from the frozen walk",
                  file=sys.stderr)
            return 1
    pairs = n_sources * (n_sources - 1) // 2
    print(f"{name}, {n_items} items, {n_sources} sources ({pairs} pairs), {REPEATS} runs each:")
    for what, values in times.items():
        print(f"  {what}: median {statistics.median(values) * 1e3:.2f} ms "
              f"(min {min(values) * 1e3:.2f}, max {max(values) * 1e3:.2f})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sources", default="8,30",
                        help="comma-separated source counts, each at least 2 (default 8,30)")
    parser.add_argument("--items", type=int, default=1000)
    args = parser.parse_args(argv)
    try:
        sources = [int(tok) for tok in args.sources.split(",")]
    except ValueError:
        parser.error(f"bad --sources {args.sources!r}")
    if min(sources) < 2:
        parser.error("every --sources count must be at least 2")
    if args.items < 20:
        parser.error("--items must be at least 20")
    return max(probe(name, kind, k, s, args.items)
               for name, (kind, k) in TASKS.items() for s in sources)


if __name__ == "__main__":
    sys.exit(main())
