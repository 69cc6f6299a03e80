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

from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .agreement import AgreementReport, kappa_for_kind
from .core import LabelValue, TaskKind, TaskSpec, TieRule, ValidationError, _pick, _rng_from_seed

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


def _vote_single(votes: Sequence[LabelValue], focal_label: LabelValue,
                 tie_rule: TieRule, seed) -> LabelValue:
    counts = Counter(lab.index for lab in votes)
    best = max(counts.values())
    cands = sorted(k for k, c in counts.items() if c == best)
    if len(cands) == 1:
        return LabelValue.single(cands[0])
    if tie_rule is TieRule.KEEP_FOCAL:
        if focal_label.index in cands:
            return focal_label
        return LabelValue.single(cands[0])
    return LabelValue.single(_pick(cands, tie_rule, seed, "modal labels"))


def _vote_multilabel(votes: Sequence[LabelValue], focal_label: LabelValue,
                     tie_rule: TieRule, seed) -> LabelValue:
    n = len(votes)
    counts = Counter()
    for lab in votes:
        counts.update(lab.indices)
    included = {k for k, c in counts.items() if 2 * c > n}
    tied = sorted(k for k, c in counts.items() if 2 * c == n)
    if tied:
        if tie_rule is TieRule.KEEP_FOCAL:
            included |= {k for k in tied if k in focal_label.indices}
        elif tie_rule is TieRule.ERROR:
            raise ValidationError(f"per-category ties at exactly half: {tied!r}")
        elif tie_rule is TieRule.RANDOM_SEEDED:
            if seed is None:
                raise ValidationError("tie_rule=random-seeded requires a seed")
            rng = _rng_from_seed(seed)
            included |= {k for k in tied if rng.integers(2) == 1}
    if not included:
        if tie_rule is TieRule.KEEP_FOCAL:
            return focal_label
        best = max(counts.values())
        cands = sorted(k for k, c in counts.items() if c == best)
        included = {_pick(cands, tie_rule, seed, "max-count categories")}
    return LabelValue.of(included)


def route(
    plan: RoutingPlan,
    focal_labels: Mapping[str, LabelValue],
    fsd: Mapping[str, float],
    aux_labels: Mapping[str, Mapping[str, LabelValue]],
    spec: TaskSpec,
    seed: int | None = None,
) -> RoutingResult:
    """Escalate low-confidence items (fsd < plan.tau, strictly) to a model vote.

    Votes are the focal label plus one label per auxiliary.  Single-label
    ties keep the focal label when it is among the modal candidates (default),
    or follow the plan's tie rule.  Multilabel votes include a category on a
    strict majority; exact-half ties follow the focal's choice under
    keep-focal, and an empty strict-majority set keeps the focal label whole.
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
        for lab in votes:
            spec.validate_label(lab)
        if spec.kind is TaskKind.MULTILABEL:
            final[item] = _vote_multilabel(votes, focal_label, plan.tie_rule, seed)
        else:
            final[item] = _vote_single(votes, focal_label, plan.tie_rule, seed)
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
    The plan's own tau is ignored; each sweep point re-routes at its tau.
    """
    items = [i for i in focal_labels if i in reference]
    if len(items) < 2:
        raise ValidationError("sweep needs at least 2 items shared with the reference")
    focal = {i: focal_labels[i] for i in items}
    points = []
    for tau in taus:
        result = route(replace(plan, tau=float(tau)), focal, fsd, aux_labels, spec, seed)
        rep: AgreementReport = kappa_for_kind(
            [result.final[i] for i in items],
            [reference[i] for i in items],
            spec.kind,
        )
        points.append(SweepPoint(
            tau=float(tau),
            kappa=rep.kappa,
            q=len(result.routed) / len(items),
            n_routed=len(result.routed),
            degenerate=rep.degenerate,
        ))
    return points
