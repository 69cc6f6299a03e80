"""Chance-corrected agreement between annotators.

Single-label agreement is Cohen's kappa,

    kappa = (p_o - p_e) / (1 - p_e),    p_e = sum_k pa(k) * pb(k),

with annotator-specific marginals.  Set-valued (multilabel) agreement uses the
distance-weighted form

    kappa = 1 - sum_ij w_ij x_ij / sum_ij w_ij m_ij,

where x_ij counts observed label-set pairs, m_ij = n * pa(i) * pb(j) is the
chance-expected count, and w is the set-disagreement weight below.  Categories
are the distinct label sets actually observed, never the power set.

Every kappa the package reports takes one path, _Codes: it codes the label
columns once, picks the weight matrix for the task kind and decides once per
distinct label whether kappa rejects it; each kappa is then one bincount of two
code arrays.  kappa_for_kind (behind cohen_kappa and weighted_kappa),
mean_pairwise_kappa_codes (behind mean_pairwise_kappa), routing.sweep and
sensitivity_curve all use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import LabelValue, TaskKind, TaskSpec, ValidationError, _code_maps

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


class _Codes:
    """Several label columns coded once for kappa under one task kind.

    `cats` are the distinct labels sorted in LabelValue order (keyed by their
    `indices` tuple, which hashes in C) and `columns` each column's int codes
    into them.  `errors[k]` is the ValidationError kappa raises for cats[k],
    or None, and `weights` the disagreement weights over `cats`: set weights
    for multilabel tasks, 1 - identity otherwise.
    """

    def __init__(self, kind: TaskKind, spec: TaskSpec | None, *columns: Iterable[LabelValue]):
        table = {}
        for col in columns:
            table.update(zip(map(_indices, col), col))
        keys = sorted(table)
        code = {key: i for i, key in enumerate(keys)}
        self.cats = [table[key] for key in keys]
        self.columns = [np.fromiter(map(code.__getitem__, map(_indices, col)), np.intp)
                        for col in columns]
        self.weighted = kind is TaskKind.MULTILABEL
        self.errors = [_label_error(lab, spec, not self.weighted) for lab in self.cats]
        self._bad = np.array([e is not None for e in self.errors], dtype=bool)
        self.weights = _set_weights(self.cats) if self.weighted else 1.0 - np.eye(len(self.cats))

    def check(self, *columns: np.ndarray, key=None) -> None:
        """Raise the error of the first rejected label, column by column: the
        first by position, or by `key` of its position."""
        for col in columns:
            hits = np.flatnonzero(self._bad[col]).tolist()
            if hits:
                raise self.errors[col[min(hits, key=key)]]

    def kappa(self, ca: np.ndarray, cb: np.ndarray) -> AgreementReport:
        """Kappa of two aligned code arrays.

        Only the codes either side uses become categories, with the weights
        restricted to them, so K, the matrix layout and every float operation
        are those of coding the two label lists on their own.
        """
        n = len(ca)
        used, inv = np.unique(np.concatenate((ca, cb)), return_inverse=True)
        k = len(used)
        weights = self.weights[np.ix_(used, used)]
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
            weighted=self.weighted, categories=tuple(self.cats[u] for u in used),
            observed=observed, expected=expected, weights=weights,
        )


def kappa_for_kind(a: Sequence[LabelValue], b: Sequence[LabelValue],
                   kind: TaskKind, spec: TaskSpec | None = None) -> AgreementReport:
    """Kappa of two label lists aligned by position: set-weighted for
    multilabel tasks, Cohen's otherwise.  The first rejected label, in `a`
    then `b`, is reported before any length problem."""
    codes = _Codes(kind, spec, a, b)
    codes.check(*codes.columns)
    if len(a) != len(b):
        raise ValidationError(f"annotator lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValidationError("need at least 2 items to measure agreement")
    return codes.kappa(*codes.columns)


def cohen_kappa(a: Sequence[LabelValue], b: Sequence[LabelValue],
                spec: TaskSpec | None = None) -> AgreementReport:
    """Unweighted kappa for single-label annotations, aligned by position."""
    return kappa_for_kind(a, b, TaskKind.MULTICLASS, spec)


def weighted_kappa(a: Sequence[LabelValue], b: Sequence[LabelValue],
                   spec: TaskSpec | None = None) -> AgreementReport:
    """Set-weighted kappa for label-set annotations, aligned by position.

    On singleton sets every off-diagonal weight is 1 and the result equals
    cohen_kappa exactly.
    """
    return kappa_for_kind(a, b, TaskKind.MULTILABEL, spec)


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
    The maps are coded into one items x sources matrix for
    mean_pairwise_kappa_codes.
    """
    items, table, matrix = _code_maps(list(sources.values()))
    return mean_pairwise_kappa_codes(list(sources), items, table, matrix, kind, spec, min_common)


def mean_pairwise_kappa_codes(
    names: Sequence[str],
    items: Sequence,
    table: Sequence[LabelValue],
    matrix: np.ndarray,
    kind: TaskKind,
    spec: TaskSpec | None = None,
    min_common: int = 2,
) -> AgreementReport:
    """mean_pairwise_kappa of an items x sources code matrix.

    `matrix[r, j]` is the code into `table` of source `names[j]`'s label for
    `items[r]`, or -1 where it has none (Dataset.code_matrix gives this).  The
    labels used are coded once for kappa; each pair is then its two columns
    where both are present.  Kappa counts label pairs, so the row order does
    not change it, and rows no source labels are not counted.  A pair reports
    the first bad label it holds, as kappa_for_kind on its label lists in
    sorted item order would.
    """
    if len(names) < 2:
        raise ValidationError("need at least 2 annotators")
    present = matrix >= 0
    used = np.unique(matrix[present])
    codes = _Codes(kind, spec, [table[c] for c in used.tolist()])
    rank = np.full(len(table) + 1, -1, dtype=np.intp)  # the last entry keeps -1 at -1
    rank[used] = codes.columns[0]
    matrix = rank[matrix]
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
        # kappa_for_kind lists a pair's items sorted: report the earliest bad one
        codes.check(ca, cb, key=lambda k: items[rows[k]])
        if n < 2:
            raise ValidationError("need at least 2 items to measure agreement")
        rep = codes.kappa(ca, cb)
        pair_reports.append(rep)
        pairs.append(PairKappa(names[a], names[b], rep.kappa, n))
    mean = float(np.mean([p.kappa for p in pairs]))
    if len(pairs) == 1:
        return replace(pair_reports[0], pairwise=tuple(pairs), mean_kappa=mean)
    return AgreementReport(
        kappa=mean, p_o=float("nan"), p_e=float("nan"),
        n_items=int(np.count_nonzero(present.any(axis=1))),
        weighted=codes.weighted, pairwise=tuple(pairs), mean_kappa=mean,
    )
