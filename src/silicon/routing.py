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

from dataclasses import dataclass, replace
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .agreement import _Codes
from .agreement import kappa_for_kind  # unused here, but perfbench/tracing.py wraps this name
from .core import LabelValue, TaskSpec, TieRule, ValidationError, _label_codes, _vote, majority_vote

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
    it whole.  Every routed item is voted at once by core._vote, from one code
    matrix (core._label_codes) whose first column is the focal label.

    The first item in order with a fault raises it: no fsd, an fsd outside
    [0, 1] (a non-number raises the TypeError of comparing it), or, if routed,
    no label from an auxiliary (in plan order) or a vote majority_vote rejects.
    Items are checked in bulk and walked one by one only to name a fault.
    """
    missing_aux = [name for name in plan.auxiliaries if name not in aux_labels]
    if missing_aux:
        raise ValidationError(f"no labels supplied for auxiliaries: {missing_aux!r}")
    items = list(focal_labels)
    try:
        if not all(map(fsd.__contains__, items)):  # by `in`: a key a defaultdict lacks is missing
            raise KeyError
        values = np.array(list(map(fsd.__getitem__, items)))  # no dtype: a non-number fails
        if not ((values >= 0.0) & (values <= 1.0)).all():  # nan included
            raise ValueError
        routed = list(compress(items, (values < plan.tau).tolist()))
        columns = [list(map(focal_labels.__getitem__, routed))]
        for labels in map(aux_labels.__getitem__, plan.auxiliaries):
            if not all(map(labels.__contains__, routed)):
                raise KeyError
            columns.append(list(map(labels.__getitem__, routed)))
        table, codes = _label_codes(*columns)
        for label in table:
            spec.validate_label(label)
        codes = np.array(codes).T
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        error = exc
    else:  # _vote raises the error of the first row it cannot settle
        voted = _vote(codes, table, spec, plan.tie_rule, seed, focal=codes[:, 0])
        final = dict(focal_labels)
        final.update(zip(routed, voted))
        return RoutingResult(final=final, routed=frozenset(routed), tau=plan.tau)
    for item, label in focal_labels.items():  # a check failed: raise the first item's fault
        if item not in fsd:
            raise ValidationError(f"missing fsd for item {item!r}")
        score = fsd[item]
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"fsd out of range for item {item!r}: {score}")
        if score < plan.tau:
            votes = [label]
            for name in plan.auxiliaries:
                if item not in aux_labels[name]:
                    raise ValidationError(f"auxiliary {name!r} lacks a label for item {item!r}")
                votes.append(aux_labels[name][item])
            majority_vote(votes, spec, plan.tie_rule, seed, focal=label)
    raise error


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
