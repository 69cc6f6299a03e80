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
from typing import Mapping, Sequence

from .agreement import kappa_for_kind
from .core import LabelValue, TaskSpec, TieRule, ValidationError, majority_vote

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

    Votes are the focal label plus one label per auxiliary, aggregated by
    core.majority_vote under the plan's tie rule with the focal label as the
    keep-focal fallback (the default): single-label ties keep the focal label
    when it is among the modal candidates; multilabel exact-half categories
    follow the focal's choice, and an empty strict majority keeps it whole.
    """
    missing_aux = [name for name in plan.auxiliaries if name not in aux_labels]
    if missing_aux:
        raise ValidationError(f"no labels supplied for auxiliaries: {missing_aux!r}")
    final: dict[str, LabelValue] = {}
    routed = set()
    for item, focal_label in focal_labels.items():
        if item not in fsd:
            raise ValidationError(f"missing fsd for item {item!r}")
        score = fsd[item]
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"fsd out of range for item {item!r}: {score}")
        if score >= plan.tau:
            final[item] = focal_label
            continue
        votes = [focal_label]
        for name in plan.auxiliaries:
            if item not in aux_labels[name]:
                raise ValidationError(f"auxiliary {name!r} lacks a label for item {item!r}")
            votes.append(aux_labels[name][item])
        final[item] = majority_vote(votes, spec, plan.tie_rule, seed, focal=focal_label)
        routed.add(item)
    return RoutingResult(final=final, routed=frozenset(routed), tau=plan.tau)


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
    at that tau would.
    """
    items = [i for i in focal_labels if i in reference]
    if len(items) < 2:
        raise ValidationError("sweep needs at least 2 items shared with the reference")
    plans = [replace(plan, tau=float(tau)) for tau in taus]
    if not plans:
        return []
    focal = {i: focal_labels[i] for i in items}
    top = route(max(plans, key=lambda p: p.tau), focal, fsd, aux_labels, spec, seed)
    ref = [reference[i] for i in items]
    points = []
    for p in plans:
        routed = [fsd[i] < p.tau for i in items]
        rep = kappa_for_kind(
            [top.final[i] if r else focal[i] for i, r in zip(items, routed)], ref, spec.kind,
        )
        n_routed = sum(routed)
        points.append(SweepPoint(
            tau=p.tau,
            kappa=rep.kappa,
            q=n_routed / len(items),
            n_routed=n_routed,
            degenerate=rep.degenerate,
        ))
    return points
