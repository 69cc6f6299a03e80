"""Confidence-thresholded multi-model routing.

Items where the focal model's self-consistency (FSD) falls strictly below a
threshold tau are escalated: auxiliary models vote together with the focal
label and the majority wins.  tau = 0 keeps every focal label untouched;
tau = 1 routes every item whose focal runs are not unanimous (fsd < 1), so
unanimous items keep the focal label even at tau = 1.
Raising tau can only grow the routed set, so the routed fraction q(tau) is
monotone non-decreasing.  Thresholds in the middle of the unit interval
(roughly 0.3 to 0.7) tend to buy most of the agreement gain at a fraction of
the auxiliary cost; sweep() measures the actual trade-off.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import compress, count
from operator import not_
from typing import Mapping, Sequence

import numpy as np

from .agreement import _Codes, _indices
from .agreement import kappa_for_kind  # unused here, but perfbench/tracing.py wraps this name
from .core import LabelValue, TaskSpec, TieRule, ValidationError, _vote

__all__ = ["RoutingPlan", "RoutingResult", "SweepPoint", "route", "sweep"]


@dataclass(frozen=True)
class RoutingPlan:
    focal: str
    auxiliaries: tuple[str, ...]
    tau: float
    tie_rule: TieRule = TieRule.KEEP_FOCAL

    def __post_init__(self):
        object.__setattr__(self, "auxiliaries", tuple(self.auxiliaries))
        if not self.auxiliaries:
            raise ValidationError("routing needs at least one auxiliary model")
        if self.focal in self.auxiliaries:
            raise ValidationError("focal model cannot also be an auxiliary")
        if not 0.0 <= self.tau <= 1.0:
            raise ValidationError("tau must lie in [0, 1]")


@dataclass(frozen=True)
class RoutingResult:
    final: dict[str, LabelValue]
    routed: frozenset[str]
    tau: float


@dataclass(frozen=True)
class SweepPoint:
    tau: float
    kappa: float
    q: float          # routed fraction
    n_routed: int
    degenerate: bool = False


def route(
    plan: RoutingPlan,
    focal_labels: Mapping[str, LabelValue],
    fsd: Mapping[str, float],
    aux_labels: Mapping[str, Mapping[str, LabelValue]],
    spec: TaskSpec,
    seed: int | None = None,
) -> RoutingResult:
    """Escalate low-confidence items (fsd < plan.tau, strictly) to a model vote.

    Votes are the focal label plus one label per auxiliary, aggregated under
    core.majority_vote's rules and the plan's tie rule, with the focal label
    as the keep-focal fallback (the default): single-label ties keep the focal
    label when it is among the modal candidates; multilabel exact-half
    categories follow the focal's choice, and an empty strict majority keeps
    it whole.  Every routed item is voted at once by core._vote, with the
    focal label as its first column.
    """
    missing_aux = [name for name in plan.auxiliaries if name not in aux_labels]
    if missing_aux:
        raise ValidationError(f"no labels supplied for auxiliaries: {missing_aux!r}")
    items = list(focal_labels)
    # Each item is checked in turn: fsd present, fsd in range, then (if
    # routed) each auxiliary's label, then its vote.  items[:stop] pass the
    # first three checks and `fault` is the failure at items[stop]; a vote
    # before it may still fail first.
    stop, fault = len(items), None
    k = _first(map(not_, map(fsd.__contains__, items)))
    if k is not None:
        stop, fault = k, ValidationError(f"missing fsd for item {items[k]!r}")
    scores = list(map(fsd.__getitem__, items[:stop]))
    values = np.array(scores)  # no dtype: comparing a string or None raises, as in Python
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))  # nan included
    if len(bad):
        k = int(bad[0])
        stop, fault = k, ValidationError(f"fsd out of range for item {items[k]!r}: {scores[k]}")
    at = np.flatnonzero(values[:stop] < plan.tau).tolist()
    routed = list(map(items.__getitem__, at))
    for name in plan.auxiliaries:
        k = _first(map(not_, map(aux_labels[name].__contains__, routed)))
        if k is not None and at[k] < stop:
            stop, fault = at[k], ValidationError(
                f"auxiliary {name!r} lacks a label for item {routed[k]!r}")
    del routed[bisect_left(at, stop):]
    # the routed votes as one code matrix over their distinct labels; a row
    # holding a label the task rejects faults, after the votes of the rows
    # before it, which are voted over the labels those rows hold
    columns = [list(map(labels.__getitem__, routed))
               for labels in (focal_labels, *(aux_labels[n] for n in plan.auxiliaries))]
    first: dict = {}  # label indices -> label, in first-seen order; the tuples hash in C
    for col in columns:
        first.update(zip(map(_indices, col), col))
    code = dict(zip(first, count()))
    codes = np.array([list(map(code.__getitem__, map(_indices, col))) for col in columns],
                     dtype=np.intp).T
    table, rejected = list(first.values()), {}
    for c, label in enumerate(table):
        try:
            spec.validate_label(label)
        except ValidationError as exc:
            rejected[c] = exc
    if rejected:
        bad = np.isin(codes, list(rejected))
        r = _first(bad.any(axis=1).tolist())
        fault = rejected[int(codes[r, np.argmax(bad[r])])]
        del routed[r:]
        used, inverse = np.unique(codes[:r], return_inverse=True)
        table, codes = [table[c] for c in used.tolist()], inverse.reshape(r, codes.shape[1])
    voted = _vote(codes, table, spec, plan.tie_rule, seed, focal=codes[:, 0])
    if fault is not None:
        raise fault
    final = dict(focal_labels)
    final.update(zip(routed, voted))
    return RoutingResult(final=final, routed=frozenset(routed), tau=plan.tau)


def _first(flags) -> int | None:
    """Position of the first true flag, or None."""
    return next(compress(count(), flags), None)


def sweep(
    plan: RoutingPlan,
    taus: Sequence[float],
    focal_labels: Mapping[str, LabelValue],
    fsd: Mapping[str, float],
    aux_labels: Mapping[str, Mapping[str, LabelValue]],
    reference: Mapping[str, LabelValue],
    spec: TaskSpec,
    seed: int | None = None,
) -> list[SweepPoint]:
    """Agreement-vs-reference and routed fraction at each threshold.

    Items are restricted to those present in both focal_labels and reference.
    The plan's own tau is ignored.  An item's vote does not depend on tau, so
    items are routed once, at the largest tau; each point then takes the voted
    label where fsd < tau and the focal label elsewhere, exactly as route()
    at that tau would.  The (focal, reference) count table is built once, and
    a point's table is that table with each item it routes moved from its
    (focal, reference) cell to its (voted, reference) cell.
    """
    items = [i for i in focal_labels if i in reference]
    if len(items) < 2:
        raise ValidationError("sweep needs at least 2 items shared with the reference")
    plans = [replace(plan, tau=float(tau)) for tau in taus]
    if not plans:
        return []
    focal = {i: focal_labels[i] for i in items}
    top = route(max(plans, key=lambda p: p.tau), focal, fsd, aux_labels, spec, seed)
    codes = _Codes(spec.kind, None, focal.values(), [top.final[i] for i in items],
                   [reference[i] for i in items])
    focal_codes, voted_codes, ref_codes = codes.columns
    scores = np.array([fsd[i] for i in items], dtype=float)
    base = codes.table(focal_codes, ref_codes)
    leave, enter = codes.cells(focal_codes, ref_codes), codes.cells(voted_codes, ref_codes)
    points = []
    for p in plans:
        routed = scores < p.tau
        codes.check(np.where(routed, voted_codes, focal_codes), ref_codes)
        kappa, degenerate = codes.score(codes.moved(base, leave[routed], enter[routed]))
        n_routed = int(np.count_nonzero(routed))
        points.append(SweepPoint(
            tau=p.tau,
            kappa=kappa,
            q=n_routed / len(items),
            n_routed=n_routed,
            degenerate=degenerate,
        ))
    return points
