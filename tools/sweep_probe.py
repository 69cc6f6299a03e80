#!/usr/bin/env python3
"""Wall time of a coupling sweep in `noise_sim.simulate_many`.

Run from anywhere:

    python3 tools/sweep_probe.py [--samples 1000000] [--points 51]

The sweep is --points couplings evenly spaced from 0 to 0.5 on one 3-class
config of --samples draws, as `silicon simulate --sweep-coupling` runs it.  The
probe times three things, alternated over 3 runs, and prints the median and
range of each:

- one `simulate_many` call over the whole sweep;
- the uncoupled config alone, which is the draws every point shares;
- one `simulate` call per point.

The difference between the first two medians is the cost of the couplings
themselves.  Each run checks that the sweep's results equal the one-config
results, and the probe exits 1 if any differ.
"""

import argparse
import os
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from silicon.noise_sim import SimConfig, simulate, simulate_many  # noqa: E402

REPEATS = 3
BASE = SimConfig(n_classes=3, priors=(0.5, 0.3, 0.2), error_rate=0.15,
                 llm_confusion=((0.75, 0.15, 0.1), (0.125, 0.75, 0.125), (0.1, 0.15, 0.75)),
                 seed=17)


def timed(run):
    t0 = time.perf_counter()
    out = run()
    return time.perf_counter() - t0, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--points", type=int, default=51)
    args = parser.parse_args(argv)
    if args.samples < 100:
        parser.error("--samples must be at least 100")
    if args.points < 1:
        parser.error("--points must be at least 1")

    base = replace(BASE, n_samples=args.samples)
    sweep = [replace(base, coupling=float(c)) for c in np.linspace(0.0, 0.5, args.points)]
    times: dict[str, list[float]] = {"sweep": [], "base": [], "one by one": []}
    for _ in range(REPEATS):
        t, got = timed(lambda: simulate_many(sweep))
        times["sweep"].append(t)
        times["base"].append(timed(lambda: simulate(base))[0])
        t, want = timed(lambda: [simulate(cfg) for cfg in sweep])
        times["one by one"].append(t)
        if got != want:
            print("sweep results differ from one-config results", file=sys.stderr)
            return 1
    med = {name: statistics.median(values) for name, values in times.items()}
    print(f"coupling sweep of {args.points} points over {args.samples} samples, "
          f"{REPEATS} runs each:")
    for name, values in times.items():
        print(f"  {name}: median {med[name] * 1e3:.1f} ms "
              f"(min {min(values) * 1e3:.1f}, max {max(values) * 1e3:.1f})")
    print(f"  couplings (sweep - base): {(med['sweep'] - med['base']) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
