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
distinct label whether kappa rejects it; each kappa is then an integer count
table over those codes, finished by one float path.  kappa_for_kind (behind
cohen_kappa and weighted_kappa), mean_pairwise_kappa_codes (behind
mean_pairwise_kappa), routing.sweep and sensitivity_curve all use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Collection, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .core import LabelValue, TaskKind, TaskSpec, ValidationError, _code_maps, _label_codes

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
    ps = p.indices if isinstance(p, LabelValue) else frozenset(p)
    qs = q.indices if isinstance(q, LabelValue) else frozenset(q)
    if not ps or not qs:
        raise ValidationError("set_weight requires non-empty sets")
    return float(_set_weights([ps, qs])[0, 1])


def _set_weights(cats: Sequence[Collection[Hashable]]) -> np.ndarray:
    """set_weight for every pair of the label sets `cats`, as a matrix.

    Each set is a collection of distinct hashable categories.  w = (3 * union
    - inter * m3) / (3 * union), with M = m3 / 3 and m3 = 3 for identical
    sets, 2 for a proper subset, 1 otherwise (disjoint sets have inter = 0,
    so w = 1 whatever m3 is).  Numerator and denominator are exact integers,
    so the one float division rounds anchors like 2/3 correctly.
    """
    column = {c: j for j, c in enumerate(dict.fromkeys(c for lab in cats for c in lab))}
    member = np.zeros((len(cats), len(column)), dtype=np.int64)
    for row, lab in enumerate(cats):
        member[row, [column[c] for c in lab]] = 1
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

    `cats` are the distinct labels in LabelValue order and `columns` each
    column's int codes into them, both from core._label_codes, the one label
    coder.  `errors[k]` is the ValidationError kappa raises for cats[k], or
    None, and `weights` the disagreement weights over `cats`: set weights for
    multilabel tasks, 1 - identity otherwise.

    Every kappa starts from an integer K x K count table over `cats`
    (K = len(cats)): `table` counts the code pairs of two aligned columns.
    A caller whose columns differ from an already tabled pair in a few items
    builds its table with `moved`, which shifts those items' counts from their
    old `cells` to their new ones.  `kappa` (the full report) and `score`
    (kappa and degeneracy only) finish a table with one float path.
    """

    def __init__(self, kind: TaskKind, spec: TaskSpec | None, *columns: Iterable[LabelValue]):
        self.cats, self.columns = _label_codes(*columns)
        self.weighted = kind is TaskKind.MULTILABEL
        self.errors = [_label_error(lab, spec, not self.weighted) for lab in self.cats]
        self._bad = np.array([e is not None for e in self.errors], dtype=bool)
        self.weights = (_set_weights([lab.indices for lab in self.cats]) if self.weighted
                        else 1.0 - np.eye(len(self.cats)))

    def check(self, *columns: np.ndarray, key=None) -> None:
        """Raise the error of the first rejected label, column by column: the
        first by position, or by `key` of its position."""
        for col in columns:
            hits = np.flatnonzero(self._bad[col]).tolist()
            if hits:
                raise self.errors[col[min(hits, key=key)]]

    def cells(self, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
        """The flat index into a count table of each (ca, cb) code pair."""
        return ca * len(self.cats) + cb

    def table(self, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
        """The K x K int counts of the code pairs of two aligned code arrays."""
        k = len(self.cats)
        return np.bincount(self.cells(ca, cb), minlength=k * k).reshape(k, k)

    @staticmethod
    def moved(table: np.ndarray, leave: np.ndarray, enter: np.ndarray) -> np.ndarray:
        """A copy of `table` with one count moved from flat cell leave[j] to
        flat cell enter[j], for every j."""
        size = table.size
        return table + (np.bincount(enter, minlength=size)
                        - np.bincount(leave, minlength=size)).reshape(table.shape)

    def _finish(self, table: np.ndarray):
        """Kappa's float steps on `table`, restricted to the categories either
        side uses, so K, the matrix layout and every float operation are those
        of coding the two label lists on their own."""
        used = np.flatnonzero(table.any(axis=1) | table.any(axis=0))
        weights = self.weights.take(used, axis=0).take(used, axis=1)
        observed = table.take(used, axis=0).take(used, axis=1).astype(float)
        n = int(table.sum())
        marg_a = observed.sum(axis=1) / n
        marg_b = observed.sum(axis=0) / n
        expected = n * np.outer(marg_a, marg_b)
        num = float((weights * observed).sum())
        den = float((weights * expected).sum())
        # den <= 0: all mass on one category for both annotators, so chance agreement is total
        degenerate = den <= 0.0
        kappa = (1.0 if num <= 0.0 else 0.0) if degenerate else 1.0 - num / den
        return kappa, degenerate, n, num, den, used, observed, expected, weights

    def score(self, table: np.ndarray) -> tuple[float, bool]:
        """(kappa, degenerate) of a count table, without the report."""
        return self._finish(table)[:2]

    def kappa(self, ca: np.ndarray, cb: np.ndarray) -> AgreementReport:
        """The AgreementReport of two aligned code arrays: their table, finished."""
        kappa, degenerate, n, num, den, used, observed, expected, weights = self._finish(
            self.table(ca, cb))
        return AgreementReport(
            kappa=kappa, p_o=1.0 - num / n, p_e=1.0 - den / n, n_items=n,
            degenerate=degenerate, weighted=self.weighted,
            categories=tuple(self.cats[u] for u in used),
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
    whole table is coded once for kappa; each pair is then the count table,
    one bincount, of its two columns where both are present, which
    _Codes._finish restricts to the labels the pair uses.  Kappa counts label
    pairs, so the row order does not change it, and rows no source labels are
    not counted.  A pair reports the first bad label it holds, as
    kappa_for_kind on its label lists in sorted item order would.
    """
    if len(names) < 2:
        raise ValidationError("need at least 2 annotators")
    present = matrix >= 0
    codes = _Codes(kind, spec, table)
    matrix = np.append(codes.columns[0], -1)[matrix]  # the last entry keeps -1 at -1
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
