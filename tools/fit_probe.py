#!/usr/bin/env python3
"""Time and memory of the equivalence fit, against the frozen dense fit.

Run from anywhere:

    python3 tools/fit_probe.py [--items 60000] [--models 5]

The probe builds 10 seeded items x models match matrices: each model's match
log-odds is a shared item difficulty plus a model shift, and no column is
constant.  On each it runs `equivalence.fit_equivalence` (the fit on one logit
per model, with item-influence standard errors) and, for comparison, the
frozen dense fit in tests/dense_fit_oracle.py (an (items*models) x models
design, a solve per Newton step and the dense cluster sandwich), alternating
which runs first.  It prints the median and range of each one's wall time,
each one's tracemalloc peak on the first design, and how many designs'
n_iter or converged differ.

It exits 1 if any check fails: on every design the intercept and each
coefficient must lie within 1e-10 of the closed form (the baseline's logit
and each model's logit difference from it), and every standard error within
1e-10 (relative) of the frozen sandwich's.
"""

import argparse
import math
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, os.path.join(HERE, os.pardir, "tests"))

from silicon.equivalence import MatchMatrix, fit_equivalence  # noqa: E402
from dense_fit_oracle import dense_fit  # noqa: E402

DESIGNS = 10
TOL = 1e-10


def design(n_items: int, n_models: int, seed: int) -> MatchMatrix:
    rng = np.random.default_rng([seed, n_items, n_models])
    difficulty = rng.normal(rng.uniform(-1, 2), rng.uniform(0.1, 2.5), (n_items, 1))
    shift = rng.normal(0, 0.5, n_models)
    matches = (rng.random((n_items, n_models)) < 1 / (1 + np.exp(-(difficulty + shift))))
    matches[:2] = [[True], [False]]  # no column is constant
    return MatchMatrix(tuple(f"i{i}" for i in range(n_items)),
                       tuple(f"m{k}" for k in range(n_models)),
                       matches.astype(float), "m0")


def timed(run):
    t0 = time.perf_counter()
    out = run()
    return time.perf_counter() - t0, out


def peak_mb(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def failures(m: MatchMatrix, report, dense) -> list[str]:
    """What of `report` disagrees with the closed form or the dense fit."""
    logits = [math.log(a / (1 - a)) for a in (m.accuracy(k) for k in m.models)]
    got = [report.intercept] + [c.coefficient for c in report.comparisons]
    want = [logits[0]] + [v - logits[0] for v in logits[1:]]
    out = [f"{name}: estimate {g!r}, closed form {w!r}"
           for name, g, w in zip(m.models, got, want) if not abs(g - w) <= TOL]
    ses = [report.intercept_se] + [c.se for c in report.comparisons]
    out += [f"{name}: se {g!r}, dense sandwich {w!r}"
            for name, g, w in zip(m.models, ses, dense[1]) if not abs(g - w) <= TOL * w]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=60000)
    parser.add_argument("--models", type=int, default=5)
    args = parser.parse_args(argv)
    if args.items < 20:
        parser.error("--items must be at least 20")
    if args.models < 2:
        parser.error("--models must be at least 2")
    times: dict[str, list[float]] = {"fit_equivalence": [], "frozen dense fit": []}
    status, iter_differ = 0, 0
    fit_equivalence(design(20, args.models, 0))  # loads scipy.special before any timing
    for seed in range(DESIGNS):
        m = design(args.items, args.models, seed)
        runs = {"fit_equivalence": lambda: fit_equivalence(m),
                "frozen dense fit": lambda: dense_fit(m.matches)}
        order = list(runs) if seed % 2 == 0 else list(runs)[::-1]
        out = {}
        for name in order:
            t, out[name] = timed(runs[name])
            times[name].append(t)
        report, dense = out["fit_equivalence"], out["frozen dense fit"]
        for line in failures(m, report, dense):
            print(f"design {seed}: {line}", file=sys.stderr)
            status = 1
        if (report.converged, report.n_iter) != (dense[2], dense[3]):
            iter_differ += 1
            print(f"  design {seed}: converged, n_iter {report.converged}, {report.n_iter}; "
                  f"dense fit {dense[2]}, {dense[3]}")
        if seed == 0:
            peaks = {name: peak_mb(run) for name, run in runs.items()}
    print(f"{args.items} items x {args.models} models, {DESIGNS} designs:")
    for name, values in times.items():
        print(f"  {name}: median {statistics.median(values) * 1e3:.2f} ms "
              f"(min {min(values) * 1e3:.2f}, max {max(values) * 1e3:.2f}), "
              f"tracemalloc peak {peaks[name]:.1f} MB")
    print(f"  designs whose n_iter or converged differ: {iter_differ} of {DESIGNS}")
    return status


if __name__ == "__main__":
    sys.exit(main())
