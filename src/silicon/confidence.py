"""First-second distance: margin between the two most frequent answers.

Resampling the same item several times at temperature 1 and measuring how far
the modal answer outruns the runner-up gives a self-consistency score in
[0, 1]: 1 means unanimous, 0 means the top two answers tied.  The probability
variant reads the margin off a renormalized option distribution instead; for
two options it reduces to |2p - 1|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import LabelValue, ValidationError, _label_codes

__all__ = ["FsdScore", "fsd_from_samples", "fsd_from_probabilities"]


@dataclass(frozen=True)
class FsdScore:
    fsd: float
    top_label: LabelValue
    second_label: LabelValue | None
    n_samples: int
    method: str  # "sampling" | "probability"

    def __post_init__(self):
        if not 0.0 <= self.fsd <= 1.0:
            raise ValidationError(f"fsd out of range: {self.fsd}")


def fsd_from_codes(item: np.ndarray, rank: np.ndarray):
    """First-second distance of every item from (item code, label rank) pairs.

    One pair per sample: `item` codes the item, and `rank` the label by its
    place in LabelValue order.  Returns five arrays over the distinct items in
    ascending code order: the item codes, each item's fsd, the ranks of its
    modal and runner-up labels (-1 when every sample agrees) and its sample
    count.  Ties for either place go to the smaller rank.  The work is one
    np.unique count per distinct (item, rank) pair and one lexsort, so memory
    stays O(samples) however many labels there are.
    """
    item = np.asarray(item, dtype=np.int64)
    rank = np.asarray(rank, dtype=np.int64)
    width = int(rank.max()) + 1   # keys stay below records**2, in int64 range
    pairs, count = np.unique(item * width + rank, return_counts=True)
    pair_item, pair_rank = np.divmod(pairs, width)
    order = np.lexsort((pair_rank, -count, pair_item))
    pair_item, pair_rank, count = pair_item[order], pair_rank[order], count[order]
    first = np.flatnonzero(np.r_[True, pair_item[1:] != pair_item[:-1]])
    n = np.add.reduceat(count, first)
    has_second = np.r_[first[1:], len(pair_item)] - first > 1
    runner_up = np.minimum(first + 1, len(pair_item) - 1)
    second = np.where(has_second, pair_rank[runner_up], -1)
    fsd = (count[first] - np.where(has_second, count[runner_up], 0)) / n
    return pair_item[first], fsd, pair_rank[first], second, n


def fsd_from_samples(samples: Sequence[LabelValue]) -> FsdScore:
    """(count of mode - count of runner-up) / n over repeated generations.

    Unanimous samples give 1.0 (missing runner-up counts 0), a tied mode gives
    0.0.  Ties for either rank are broken toward the lexicographically smallest
    label so the reported labels are deterministic; the score itself is
    tie-order invariant.  One item of fsd_from_codes.
    """
    n = len(samples)
    if n < 2:
        raise ValidationError("need at least 2 samples")
    labels, (rank,) = _label_codes(samples)
    _, fsd, top, second, _ = fsd_from_codes(np.zeros(n, dtype=np.int64), rank)
    second = int(second[0])
    return FsdScore(fsd=float(fsd[0]), top_label=labels[top[0]],
                    second_label=labels[second] if second >= 0 else None,
                    n_samples=n, method="sampling")


def fsd_from_probabilities(option_probs: Mapping[LabelValue, float]) -> FsdScore:
    """Margin between the two largest option probabilities after renormalization.

    The mass may sum below 1 when the option list was truncated; it is scaled
    back to 1 before taking the difference.  Sums above 1 (beyond fp slack),
    negative or non-finite entries, and all-zero mass are errors.
    """
    if len(option_probs) < 2:
        raise ValidationError("need at least 2 options")
    if not all(0.0 <= p < math.inf for p in option_probs.values()):  # nan fails too
        raise ValidationError("option probabilities must be finite and non-negative")
    total = float(sum(option_probs.values()))
    if total <= 0.0:
        raise ValidationError("option probabilities sum to zero")
    if total > 1.0 + 1e-6:
        raise ValidationError(f"option probabilities sum to {total} > 1")
    ranked = sorted(option_probs.items(), key=lambda kv: (-kv[1], kv[0]))
    (top_label, top), (second_label, second) = ranked[0], ranked[1]
    return FsdScore(
        fsd=min(1.0, (top - second) / total),
        top_label=top_label,
        second_label=second_label,
        n_samples=0,
        method="probability",
    )
