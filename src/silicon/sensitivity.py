"""How fragile is a kappa verdict to who defined the reference labels?

mix_baseline swaps a fraction alpha of the expert reference for crowd labels
on a seeded random subset of items; sensitivity_curve reports, per alpha, the
absolute shift of the model-vs-reference kappa relative to the pure-expert
reference, averaged over seeded replicates.  alpha = 0 is a zero gap by
construction and alpha = 1 is the full expert-vs-crowd reference swap, both
independent of the seed: an alpha whose swap count is 0 or n (all n items) is
scored once for all its replicates, with the same numbers and first error, bit
for bit, as scoring each replicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .agreement import _Codes
from .agreement import kappa_for_kind  # unused here, but perfbench/tracing.py wraps this name
from .core import LabelValue, TaskKind, ValidationError, _rng_from_seed, _sorted_ids

__all__ = ["MixConfig", "AlphaGap", "mix_baseline", "sensitivity_curve"]


@dataclass(frozen=True)
class MixConfig:
    alphas: tuple[float, ...]
    replicates: int = 20
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not self.alphas:
            raise ValidationError("no alphas given")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ValidationError("alphas must lie in [0, 1]")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class AlphaGap:
    alpha: float
    mean_gap: float
    lo: float            # min over replicates
    hi: float            # max over replicates
    gaps: tuple[float, ...]


def _swap_positions(n: int, alpha: float, seed: int) -> np.ndarray:
    """The round(alpha * n) positions, of n sorted items, that a mix hands to the crowd."""
    return _rng_from_seed(seed).choice(n, size=int(round(alpha * n)), replace=False)


def _check_crowd(items, crowd) -> None:
    missing = [i for i in items if i not in crowd]
    if missing:
        raise ValidationError(f"crowd labels missing for items: {missing[:5]!r}")


def mix_baseline(
    expert: Mapping[str, LabelValue],
    crowd: Mapping[str, LabelValue],
    alpha: float,
    seed: int,
) -> dict[str, LabelValue]:
    """Replace round(alpha * n) items' expert labels with crowd labels.

    The count rounds to nearest with ties to even, and the replaced items are
    a seeded uniform draw over the (sorted) item ids, so the mix is
    reproducible.  Crowd labels must cover every expert item.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError("alpha must lie in [0, 1]")
    items = _sorted_ids(expert)
    if not items:
        raise ValidationError("empty reference")
    _check_crowd(items, crowd)
    mixed = {i: expert[i] for i in items}
    for idx in _swap_positions(len(items), alpha, seed):
        item = items[int(idx)]
        mixed[item] = crowd[item]
    return mixed


def _replicate_seed(seed: int, alpha_index: int, replicate: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(alpha_index, replicate))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sensitivity_curve(
    llm: Mapping[str, LabelValue],
    expert: Mapping[str, LabelValue],
    crowd: Mapping[str, LabelValue],
    cfg: MixConfig,
    kind: TaskKind,
) -> list[AlphaGap]:
    """|kappa(llm, expert) - kappa(llm, mixed)| per alpha, over seeded replicates.

    Items are the intersection of llm and expert coverage; crowd must cover
    them all.  Replicate r of alpha index a uses a seed derived from
    (cfg.seed, a, r), so curves are bit-reproducible.  Each replicate swaps
    in crowd labels at the positions mix_baseline would draw, which gives
    exactly the numbers of kappa_for_kind on the mixed labels.

    The (llm, expert) count table is built once.  A replicate's table is that
    table with each swapped item moved from its (llm, expert) cell to its
    (llm, crowd) cell, and only the crowd labels swapped in are checked: the
    first rejected one by position is the error a check of the whole mixed
    column would raise.  One replicate's table is held at a time.

    An alpha whose swap count round(alpha * n) is 0 or n swaps the same items
    in every replicate, none or all, so it is scored once, with no draw, and
    that gap fills all its replicates: the same numbers and the same first
    error, bit for bit, as drawing each replicate.
    """
    items = _sorted_ids(set(llm) & set(expert))
    if len(items) < 2:
        raise ValidationError("need at least 2 items shared by llm and expert")
    # a bad llm or expert label is reported before any crowd gap
    codes = _Codes(kind, None, [llm[i] for i in items], [expert[i] for i in items],
                   [crowd[i] for i in items if i in crowd])
    llm_codes, expert_codes, crowd_codes = codes.columns
    codes.check(llm_codes, expert_codes)
    base = codes.table(llm_codes, expert_codes)
    kappa_ref = codes.score(base)[0]
    _check_crowd(items, crowd)
    leave, enter = codes.cells(llm_codes, expert_codes), codes.cells(llm_codes, crowd_codes)

    n = len(items)
    out = []
    for a_idx, alpha in enumerate(cfg.alphas):
        k = int(round(alpha * n))  # the swap count _swap_positions draws
        fixed = k in (0, n)  # every replicate swaps the same items, none or all
        gaps = []
        for rep in range(1 if fixed else cfg.replicates):
            swapped = np.arange(k) if fixed else _swap_positions(
                n, alpha, _replicate_seed(cfg.seed, a_idx, rep))
            codes.check(crowd_codes[swapped], key=swapped.__getitem__)
            table = codes.moved(base, leave[swapped], enter[swapped])
            gaps.append(abs(kappa_ref - codes.score(table)[0]))
        if fixed:
            gaps *= cfg.replicates
        out.append(AlphaGap(
            alpha=alpha,
            mean_gap=float(np.mean(gaps)),
            lo=float(np.min(gaps)),
            hi=float(np.max(gaps)),
            gaps=tuple(gaps),
        ))
    return out
