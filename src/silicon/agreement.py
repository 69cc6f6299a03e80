"""Chance-corrected agreement between annotators.

Single-label agreement is Cohen's kappa,

    kappa = (p_o - p_e) / (1 - p_e),    p_e = sum_k pa(k) * pb(k),

with annotator-specific marginals.  Set-valued (multilabel) agreement uses the
distance-weighted form

    kappa = 1 - sum_ij w_ij x_ij / sum_ij w_ij m_ij,

where x_ij counts observed label-set pairs, m_ij = n * pa(i) * pb(j) is the
chance-expected count, and w is the set-disagreement weight below.  Categories
are the distinct label sets actually observed, never the power set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import LabelValue, TaskKind, TaskSpec, ValidationError

__all__ = [
    "set_weight",
    "cohen_kappa",
    "weighted_kappa",
    "mean_pairwise_kappa",
    "kappa_for_kind",
    "AgreementReport",
    "PairKappa",
]


def set_weight(p, q) -> float:
    """Disagreement weight between two non-empty label sets: w = 1 - J * M.

    J is the Jaccard overlap |P & Q| / |P | Q|.  M scores the set relation:
    1 identical, 2/3 one a proper subset of the other, 1/3 overlapping with
    material on both sides, 0 disjoint.  Identical sets get w = 0, disjoint
    sets w = 1, and e.g. {a} vs {a, b} gets w = 1 - (1/2)(2/3) = 2/3.
    """
    ps = p.as_set() if isinstance(p, LabelValue) else frozenset(p)
    qs = q.as_set() if isinstance(q, LabelValue) else frozenset(q)
    if not ps or not qs:
        raise ValidationError("set_weight requires non-empty sets")
    # M = m3 / 3; one division of exact integers rounds anchors like 2/3 correctly
    inter = len(ps & qs)
    union = len(ps | qs)
    m3 = 1 + (inter == min(len(ps), len(qs))) + (inter == max(len(ps), len(qs)))
    return (3 * union - inter * m3) / (3 * union)


def _set_weights(cats: Sequence[LabelValue]) -> np.ndarray:
    """set_weight for every pair of `cats`, as a matrix, in the same closed form.

    w = (3 * union - inter * m3) / (3 * union), with M = m3 / 3 and m3 = 3 for
    identical sets, 2 for a proper subset, 1 otherwise (disjoint sets have
    inter = 0, so w = 1 whatever m3 is).  Numerator and denominator are exact
    integers, so the one float division rounds exactly as set_weight does.
    """
    column = {c: j for j, c in enumerate(sorted({c for lab in cats for c in lab.indices}))}
    member = np.zeros((len(cats), len(column)), dtype=np.int64)
    for row, lab in enumerate(cats):
        member[row, [column[c] for c in lab.indices]] = 1
    size = member.sum(axis=1)
    inter = member @ member.T
    union = size[:, None] + size[None, :] - inter
    m3 = 1 + (inter == np.minimum.outer(size, size)) + (inter == np.maximum.outer(size, size))
    return (3 * union - inter * m3) / (3 * union)


@dataclass(frozen=True)
class PairKappa:
    source_a: str
    source_b: str
    kappa: float
    n_items: int


@dataclass(frozen=True)
class AgreementReport:
    """Agreement result with its contingency evidence.

    kappa = (p_o - p_e) / (1 - p_e) always holds; in the weighted case p_o and
    p_e are 1 minus the mean weighted observed/expected disagreement, which
    reduces to raw agreement rates when all cross-category weights are 1.
    observed/expected are over `categories`, the distinct labels seen in this
    comparison (None for multi-pair summaries).
    """

    kappa: float
    p_o: float
    p_e: float
    n_items: int
    degenerate: bool = False
    weighted: bool = False
    categories: tuple[LabelValue, ...] = ()
    observed: np.ndarray | None = None
    expected: np.ndarray | None = None
    weights: np.ndarray | None = None
    pairwise: tuple[PairKappa, ...] = field(default_factory=tuple)
    mean_kappa: float | None = None


_indices = attrgetter("indices")


def _encode(*columns: Iterable[LabelValue]):
    """One code table for several label columns.

    Returns the distinct labels sorted in LabelValue order and, per column, an
    int array of codes into them.  Labels are keyed by their `indices` tuple,
    which hashes in C.
    """
    table = {}
    for col in columns:
        table.update(zip(map(_indices, col), col))
    keys = sorted(table)
    code = {key: i for i, key in enumerate(keys)}
    return ([table[key] for key in keys],
            [np.fromiter(map(code.__getitem__, map(_indices, col)), np.intp) for col in columns])


def _tabulate(a: Sequence[LabelValue], b: Sequence[LabelValue]):
    if len(a) != len(b):
        raise ValidationError(f"annotator lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValidationError("need at least 2 items to measure agreement")
    cats, (ca, cb) = _encode(a, b)
    return cats, ca, cb


def _kappa_codes(ca: np.ndarray, cb: np.ndarray, cats: Sequence[LabelValue],
                 weights: np.ndarray, weighted_flag: bool) -> AgreementReport:
    """Kappa of two aligned code arrays into `cats` (sorted in LabelValue order).

    Only the codes either side uses become categories, with `weights`
    restricted to them, so K, the matrix layout and every float operation are
    those of tabulating the two label lists directly.
    """
    n = len(ca)
    used, inv = np.unique(np.concatenate((ca, cb)), return_inverse=True)
    k = len(used)
    cats = [cats[u] for u in used]
    weights = weights[np.ix_(used, used)]
    observed = np.bincount(inv[:n] * k + inv[n:], minlength=k * k).reshape(k, k).astype(float)
    marg_a = observed.sum(axis=1) / n
    marg_b = observed.sum(axis=0) / n
    expected = n * np.outer(marg_a, marg_b)
    num = float((weights * observed).sum())
    den = float((weights * expected).sum())
    # den <= 0: all mass on one category for both annotators, so chance agreement is total
    degenerate = den <= 0.0
    return AgreementReport(
        kappa=(1.0 if num <= 0.0 else 0.0) if degenerate else 1.0 - num / den,
        p_o=1.0 - num / n, p_e=1.0 - den / n, n_items=n, degenerate=degenerate,
        weighted=weighted_flag, categories=tuple(cats),
        observed=observed, expected=expected, weights=weights,
    )


def _label_error(lab: LabelValue, spec: TaskSpec | None, single: bool):
    """The ValidationError kappa raises for `lab`, or None if it is fine."""
    if single and len(lab.indices) != 1:
        return ValidationError("cohen_kappa takes single labels; use weighted_kappa for sets")
    if spec is not None:
        try:
            spec.validate_label(lab)
        except ValidationError as exc:
            return exc
    return None


def _check_labels(a: Sequence[LabelValue], b: Sequence[LabelValue],
                  spec: TaskSpec | None, single: bool) -> None:
    """Validate each distinct label once, in first-seen order, so the label
    reported is the first bad one in `a` then `b`."""
    for lab in {lab.indices: lab for col in (a, b) for lab in col}.values():
        error = _label_error(lab, spec, single)
        if error is not None:
            raise error


def cohen_kappa(a: Sequence[LabelValue], b: Sequence[LabelValue],
                spec: TaskSpec | None = None) -> AgreementReport:
    """Unweighted kappa for single-label annotations, aligned by position."""
    _check_labels(a, b, spec, single=True)
    cats, ca, cb = _tabulate(a, b)
    return _kappa_codes(ca, cb, cats, 1.0 - np.eye(len(cats)), weighted_flag=False)


def weighted_kappa(a: Sequence[LabelValue], b: Sequence[LabelValue],
                   spec: TaskSpec | None = None) -> AgreementReport:
    """Set-weighted kappa for label-set annotations, aligned by position.

    On singleton sets every off-diagonal weight is 1 and the result equals
    cohen_kappa exactly.
    """
    _check_labels(a, b, spec, single=False)
    cats, ca, cb = _tabulate(a, b)
    return _kappa_codes(ca, cb, cats, _set_weights(cats), weighted_flag=True)


def kappa_for_kind(a: Sequence[LabelValue], b: Sequence[LabelValue],
                   kind: TaskKind, spec: TaskSpec | None = None) -> AgreementReport:
    if kind is TaskKind.MULTILABEL:
        return weighted_kappa(a, b, spec)
    return cohen_kappa(a, b, spec)


def _code_matrix(sources: Mapping[str, Mapping[str, LabelValue]]):
    """One items x sources matrix of codes into the distinct labels (sorted in
    LabelValue order), -1 where a source lacks the item.  Returns the labels,
    the items in first-seen order (the rows) and the matrix."""
    maps = list(sources.values())
    cats, codes = _encode(*(m.values() for m in maps))
    items = list(dict.fromkeys(chain.from_iterable(maps)))
    row = {item: i for i, item in enumerate(items)}
    matrix = np.full((len(items), len(maps)), -1, dtype=np.intp)
    for col, (m, code) in enumerate(zip(maps, codes)):
        matrix[np.fromiter(map(row.__getitem__, m), np.intp, len(m)), col] = code
    return cats, items, matrix


def mean_pairwise_kappa(
    sources: Mapping[str, Mapping[str, LabelValue]],
    kind: TaskKind,
    spec: TaskSpec | None = None,
    min_common: int = 2,
) -> AgreementReport:
    """Mean kappa over all annotator pairs, pairwise-deleting items either side lacks.

    `sources` maps annotator name -> {item_id -> label}.  With exactly two
    annotators the full pair report is returned (mean equals the pair kappa);
    with more, the summary carries the pair list and the unweighted mean.

    All sources are encoded once into one code matrix, each distinct label is
    validated once and the weight matrix is built once; each pair is then
    its two columns where both are present.  Kappa counts label pairs, so
    the row order does not change it.  A pair reports the first bad label it
    holds, as kappa_for_kind on its label lists in sorted item order would.
    """
    names = list(sources)
    if len(names) < 2:
        raise ValidationError("need at least 2 annotators")
    weighted = kind is TaskKind.MULTILABEL
    cats, items, matrix = _code_matrix(sources)
    errors = [_label_error(lab, spec, single=not weighted) for lab in cats]
    bad = np.array([e is not None for e in errors], dtype=bool)
    weights = _set_weights(cats) if weighted else 1.0 - np.eye(len(cats))
    present = matrix >= 0
    pair_reports = []
    pairs = []
    for a, b in combinations(range(len(names)), 2):
        rows = np.flatnonzero(present[:, a] & present[:, b])
        n = len(rows)
        if n < min_common:
            raise ValidationError(
                f"annotators {names[a]!r} and {names[b]!r} share only {n} items "
                f"(need >= {min_common})"
            )
        ca, cb = matrix[rows, a], matrix[rows, b]
        for col, codes in ((a, ca), (b, cb)):
            if bad[codes].any():
                # kappa_for_kind lists a pair's items sorted: report the earliest bad one
                first = min(rows[bad[codes]].tolist(), key=items.__getitem__)
                raise errors[matrix[first, col]]
        if n < 2:
            raise ValidationError("need at least 2 items to measure agreement")
        rep = _kappa_codes(ca, cb, cats, weights, weighted)
        pair_reports.append(rep)
        pairs.append(PairKappa(names[a], names[b], rep.kappa, n))
    mean = float(np.mean([p.kappa for p in pairs]))
    if len(pairs) == 1:
        return replace(pair_reports[0], pairwise=tuple(pairs), mean_kappa=mean)
    return AgreementReport(
        kappa=mean, p_o=float("nan"), p_e=float("nan"), n_items=len(matrix),
        weighted=weighted, pairwise=tuple(pairs), mean_kappa=mean,
    )
