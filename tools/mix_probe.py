#!/usr/bin/env python3
"""Wall time of `sensitivity.sensitivity_curve` at a chosen item count.

Run from anywhere:

    python3 tools/mix_probe.py [--items 60000]

The probe runs two tasks: a 3-class one, and a 6-category multilabel one whose
labels are sets of one to three categories.  For each it builds seeded llm,
expert and crowd label maps of --items items: the crowd copies the expert on
about 60% of items and the llm on about 75%, and draws uniformly otherwise.
It times `sensitivity_curve` at the `silicon mix-sensitivity` defaults
(alphas 0, 0.25, 0.5, 0.75, 1; 20 replicates; seed 0) and, for comparison, a
frozen copy of the loop that draws and scores every replicate of every alpha,
alternated over 5 runs, and prints the median and range of each.

It exits 1 if any check fails: every run compares each `AlphaGap` of the
curve with the frozen loop's, every float bit for bit.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from silicon.agreement import _Codes  # noqa: E402
from silicon.core import LabelValue, TaskKind, _sorted_ids  # noqa: E402
from silicon.sensitivity import (AlphaGap, MixConfig, _check_crowd,  # noqa: E402
                                 _replicate_seed, _swap_positions, sensitivity_curve)

REPEATS = 5
CFG = MixConfig(alphas=(0.0, 0.25, 0.5, 0.75, 1.0), replicates=20, seed=0)  # the CLI defaults
TASKS = {"3-class": (TaskKind.MULTICLASS, 3), "6-category multilabel": (TaskKind.MULTILABEL, 6)}


def labels(kind: TaskKind, n_categories: int, rng, size: int) -> list[LabelValue]:
    if kind is not TaskKind.MULTILABEL:
        return [LabelValue.single(int(k)) for k in rng.integers(n_categories, size=size)]
    return [LabelValue.of(rng.choice(n_categories, size=int(m), replace=False))
            for m in rng.integers(1, 4, size=size)]


def inputs(kind: TaskKind, n_categories: int, n_items: int, seed: int = 0):
    """llm, expert and crowd label maps of n_items items."""
    rng = np.random.default_rng(seed)
    items = [f"it{k:07d}" for k in range(n_items)]
    expert = labels(kind, n_categories, rng, n_items)

    def near(share):
        other = labels(kind, n_categories, rng, n_items)
        keep = rng.random(n_items) < share
        return dict(zip(items, (e if k else o for e, o, k in zip(expert, other, keep))))

    return near(0.75), dict(zip(items, expert)), near(0.6)


def frozen_curve(llm, expert, crowd, cfg: MixConfig, kind: TaskKind) -> list[AlphaGap]:
    """sensitivity_curve as it was before the swap-nothing and swap-everything
    alphas were scored once: one draw and one table per replicate of every alpha."""
    items = _sorted_ids(set(llm) & set(expert))
    codes = _Codes(kind, None, [llm[i] for i in items], [expert[i] for i in items],
                   [crowd[i] for i in items if i in crowd])
    llm_codes, expert_codes, crowd_codes = codes.columns
    codes.check(llm_codes, expert_codes)
    base = codes.table(llm_codes, expert_codes)
    kappa_ref = codes.score(base)[0]
    _check_crowd(items, crowd)
    leave, enter = codes.cells(llm_codes, expert_codes), codes.cells(llm_codes, crowd_codes)
    out = []
    for a_idx, alpha in enumerate(cfg.alphas):
        gaps = []
        for rep in range(cfg.replicates):
            swapped = _swap_positions(len(items), alpha, _replicate_seed(cfg.seed, a_idx, rep))
            codes.check(crowd_codes[swapped], key=swapped.__getitem__)
            table = codes.moved(base, leave[swapped], enter[swapped])
            gaps.append(abs(kappa_ref - codes.score(table)[0]))
        out.append(AlphaGap(alpha=alpha, mean_gap=float(np.mean(gaps)), lo=float(np.min(gaps)),
                            hi=float(np.max(gaps)), gaps=tuple(gaps)))
    return out


def bits(point: AlphaGap) -> tuple:
    """Every float of an AlphaGap as its exact hex form."""
    return (point.alpha.hex(), point.mean_gap.hex(), point.lo.hex(), point.hi.hex(),
            tuple(g.hex() for g in point.gaps))


def timed(run):
    t0 = time.perf_counter()
    out = run()
    return time.perf_counter() - t0, out


def probe(name: str, kind: TaskKind, n_categories: int, n_items: int) -> int:
    llm, expert, crowd = inputs(kind, n_categories, n_items)
    times: dict[str, list[float]] = {"sensitivity_curve": [], "frozen per-replicate loop": []}
    for _ in range(REPEATS):
        t, got = timed(lambda: sensitivity_curve(llm, expert, crowd, CFG, kind))
        times["sensitivity_curve"].append(t)
        t, want = timed(lambda: frozen_curve(llm, expert, crowd, CFG, kind))
        times["frozen per-replicate loop"].append(t)
        wrong = [p.alpha for p, q in zip(got, want) if bits(p) != bits(q)]
        if wrong or len(got) != len(want):
            print(f"{name}: the curve differs from the frozen loop at alphas {wrong}",
                  file=sys.stderr)
            return 1
    print(f"{name}, {n_items} items, {len(CFG.alphas)} alphas x {CFG.replicates} replicates, "
          f"{REPEATS} runs each:")
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
    return max(probe(name, kind, k, args.items) for name, (kind, k) in TASKS.items())


if __name__ == "__main__":
    sys.exit(main())
