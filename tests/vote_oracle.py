"""Frozen copies of the per-item `majority_vote` and the per-tuple
`majority_reference` that `core._vote` replaced: the oracles for the vote
kernel and for `routing.route`.  Do not edit them to follow the package."""

from collections import Counter

from silicon.core import LabelValue, TaskKind, TieRule, ValidationError, _rng_from_seed


def oracle_pick(candidates, tie_rule, seed, what):
    # candidates sorted ascending; callers guarantee non-empty
    if len(candidates) == 1:
        return candidates[0]
    if tie_rule is TieRule.ERROR:
        raise ValidationError(f"unresolved tie among {what}: {candidates!r}")
    if tie_rule is TieRule.RANDOM_SEEDED:
        if seed is None:
            raise ValidationError("tie_rule=random-seeded requires a seed")
        return candidates[int(_rng_from_seed(seed).integers(len(candidates)))]
    return candidates[0]  # lowest index


def oracle_majority_vote(labels, spec, tie_rule=TieRule.LOWEST_INDEX, seed=None, focal=None):
    if len(labels) == 0:
        raise ValidationError("majority_vote needs at least one label")
    keep_focal = tie_rule is TieRule.KEEP_FOCAL
    if keep_focal and focal is None:
        raise ValidationError("keep-focal needs a focal label; plain majorities have none")
    for lab in labels:
        spec.validate_label(lab)
    if focal is not None:
        spec.validate_label(focal)

    n = len(labels)
    if spec.kind is not TaskKind.MULTILABEL:
        counts = Counter(lab.index for lab in labels)
        best = max(counts.values())
        cands = sorted(k for k, c in counts.items() if c == best)
        if keep_focal and focal.index in cands:
            return focal
        return LabelValue.single(oracle_pick(cands, tie_rule, seed, "modal labels"))

    counts = Counter()
    for lab in labels:
        counts.update(lab.indices)
    included = {k for k, c in counts.items() if 2 * c > n}
    tied = sorted(k for k, c in counts.items() if 2 * c == n)
    if tied:
        if keep_focal:
            included.update(k for k in tied if k in focal.indices)
        elif tie_rule is TieRule.ERROR:
            raise ValidationError(f"per-category ties at exactly half: {tied!r}")
        elif tie_rule is TieRule.RANDOM_SEEDED:
            if seed is None:
                raise ValidationError("tie_rule=random-seeded requires a seed")
            rng = _rng_from_seed(seed)
            for k in tied:
                if rng.integers(2) == 1:
                    included.add(k)
    if not included:
        if keep_focal:
            return focal
        best = max(counts.values())
        cands = sorted(k for k, c in counts.items() if c == best)
        included = {oracle_pick(cands, tie_rule, seed, "max-count categories")}
    return LabelValue.of(included)


def oracle_majority_reference(dataset, role=None, tie_rule=TieRule.LOWEST_INDEX, seed=None):
    sources = [s for s in dataset.sources() if role is None or s.role == role]
    if not sources:
        raise ValidationError("no sources to aggregate")
    labels = dataset.label_table
    voted = {}
    out = {}
    for item, row in zip(dataset.item_ids(), dataset.code_matrix(sources).tolist()):
        votes = tuple(code for code in row if code >= 0)
        if votes:
            if votes not in voted:
                voted[votes] = oracle_majority_vote([labels[c] for c in votes], dataset.spec,
                                                    tie_rule=tie_rule, seed=seed)
            out[item] = voted[votes]
    return out
