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
    old `cells` to their new ones.  One float path, `_finish`, finishes a
    stack of tables: mean pairwise kappa finishes all its pairs in one call,
    and `kappa` (the full report) and `score` (kappa and degeneracy only)
    finish a stack of one.
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

    def _finish(self, stack: np.ndarray):
        """Kappa's float steps on every table of `stack`, m K x K count tables.

        Each table is restricted to the categories either side uses, so K, the
        matrix layout and every float operation are those of coding its two
        label lists on their own.  Tables that use the same categories are
        restricted once and finished together.  Returns per-table lists of
        kappa, degenerate, n, num and den, and per group of tables (their rows
        in `stack`, used, observed, expected, weights).
        """
        # integer row and column sums are exact in float, so the marginals are
        # those of the restricted float table
        count_a, count_b = stack.sum(axis=2), stack.sum(axis=1)
        n = count_a.sum(axis=1)
        num, den = np.empty(len(stack)), np.empty(len(stack))
        groups = []
        for rows, used in _same_rows(count_a + count_b > 0):
            block, weights, count_a_g, count_b_g = (
                stack[rows], self.weights, count_a[rows], count_b[rows])
            if len(used) < len(self.cats):
                block = block.take(used, axis=1).take(used, axis=2)
                weights = weights.take(used, axis=0).take(used, axis=1)
                count_a_g, count_b_g = count_a_g.take(used, axis=1), count_b_g.take(used, axis=1)
            # C-ordered whatever the layout of `stack`: a sum over a table walks
            # memory in layout order, and a block with the stack axis innermost
            # would round each table's sums differently
            observed = np.ascontiguousarray(block, dtype=float)
            n_g = n[rows, None]
            marg_a = count_a_g / n_g
            marg_b = count_b_g / n_g
            expected = n_g[:, :, None] * (marg_a[:, :, None] * marg_b[:, None, :])
            num[rows] = (weights * observed).sum(axis=(1, 2))
            den[rows] = (weights * expected).sum(axis=(1, 2))
            groups.append((rows, used, observed, expected, weights))
        num, den = num.tolist(), den.tolist()
        # den <= 0: all mass on one category for both annotators, so chance agreement is total
        degenerate = [d <= 0.0 for d in den]
        kappa = [(1.0 if x <= 0.0 else 0.0) if d <= 0.0 else 1.0 - x / d
                 for x, d in zip(num, den)]
        return kappa, degenerate, n.tolist(), num, den, groups

    def score(self, table: np.ndarray) -> tuple[float, bool]:
        """(kappa, degenerate) of a count table, without the report."""
        kappa, degenerate = self._finish(table[None])[:2]
        return kappa[0], degenerate[0]

    def kappa(self, table: np.ndarray) -> AgreementReport:
        """The AgreementReport of a count table: a stack of one, finished."""
        (kappa,), (degenerate,), (n,), (num,), (den,), groups = self._finish(table[None])
        _, used, observed, expected, weights = groups[0]
        return AgreementReport(
            kappa=kappa, p_o=1.0 - num / n, p_e=1.0 - den / n, n_items=n,
            degenerate=degenerate, weighted=self.weighted,
            categories=tuple(self.cats[u] for u in used),
            observed=observed[0], expected=expected[0], weights=weights,
        )


def _same_rows(used: np.ndarray) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """For each distinct row of the boolean matrix `used`: the rows equal to
    it, and its true columns."""
    if len(used) == 1:
        return [(slice(0, 1), np.flatnonzero(used[0]))]
    width, raw, rows = used.shape[1], used.tobytes(), {}
    for r in range(len(used)):
        rows.setdefault(raw[r * width:(r + 1) * width], []).append(r)
    return [(np.array(group), np.flatnonzero(used[group[0]])) for group in rows.values()]


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
    return codes.kappa(codes.table(*codes.columns))


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
    whole table is coded once for kappa.  Every pair's count table, over the
    rows where both its sources are present, comes from one bincount
    (_pair_tables), and one _Codes._finish call finishes the stack, each
    table restricted to the labels its pair uses.  Kappa counts label pairs,
    so the row order does not change it, and rows no source labels are not
    counted.  If any pair fails, the first in pair order raises its error; a
    bad label is reported as kappa_for_kind on the pair's label lists in
    sorted item order would.
    """
    if len(names) < 2:
        raise ValidationError("need at least 2 annotators")
    present = matrix >= 0
    codes = _Codes(kind, spec, table)
    matrix = np.append(codes.columns[0], -1)[matrix]  # the last entry keeps -1 at -1
    first, second = np.triu_indices(len(names), 1)  # the pairs in combinations order
    stack = _pair_tables(codes, matrix, present, first, second, max(min_common, 2))
    if stack is None:
        _raise_pair_error(names, items, codes, matrix, present, min_common)
    if len(stack) == 1:
        rep = codes.kappa(stack[0])
        return replace(rep, pairwise=(PairKappa(names[0], names[1], rep.kappa, rep.n_items),),
                       mean_kappa=rep.kappa)
    kappas, _, counts = codes._finish(stack)[:3]
    mean = float(np.mean(kappas))
    return AgreementReport(
        kappa=mean, p_o=float("nan"), p_e=float("nan"),
        n_items=int(np.count_nonzero(present.any(axis=1))),
        weighted=codes.weighted, mean_kappa=mean,
        pairwise=tuple(PairKappa(names[a], names[b], kappa, n) for a, b, kappa, n
                       in zip(first.tolist(), second.tolist(), kappas, counts)),
    )


# Most rows x pairs cells _pair_tables codes in one bincount (8 MB of int64).
_PAIR_CELLS = 2**20


def _pair_tables(codes: _Codes, matrix: np.ndarray, present: np.ndarray,
                 first: np.ndarray, second: np.ndarray, need: int) -> np.ndarray | None:
    """The K x K count tables of the source pairs (first[p], second[p]) of a
    coded items x sources `matrix`, as one pairs x K x K stack, or None if a
    pair shares fewer than `need` rows or holds a rejected label on one.

    Pair p's cell (ca, cb) is flat index (p * K + ca) * K + cb, so the pairs
    are counted by one bincount over the rows where both sources are present,
    for each block of pairs that keeps the rows x pairs arrays under
    _PAIR_CELLS cells.
    """
    k = len(codes.cats)
    bad = codes._bad[matrix] & present
    stack = np.empty((len(first), k, k), dtype=np.int64)
    step = max(1, _PAIR_CELLS // max(len(matrix), 1))
    for lo in range(0, len(first), step):
        a, b = first[lo:lo + step], second[lo:lo + step]
        both = present[:, a] & present[:, b]
        if (np.count_nonzero(both, axis=0) < need).any() or (both & (bad[:, a] | bad[:, b])).any():
            return None
        cells = (np.arange(len(a)) * k + matrix[:, a]) * k + matrix[:, b]
        stack[lo:lo + len(a)] = np.bincount(
            cells[both], minlength=len(a) * k * k).reshape(len(a), k, k)
    return stack


def _raise_pair_error(names: Sequence[str], items: Sequence, codes: _Codes,
                      matrix: np.ndarray, present: np.ndarray, min_common: int) -> None:
    """Raise the error of the first failing pair, in pair order: too few shared
    items, a bad label (the first, as kappa_for_kind on the pair's label lists
    in sorted item order would report it), or fewer than 2 items."""
    for a, b in combinations(range(len(names)), 2):
        rows = np.flatnonzero(present[:, a] & present[:, b])
        n = len(rows)
        if n < min_common:
            raise ValidationError(
                f"annotators {names[a]!r} and {names[b]!r} share only {n} items "
                f"(need >= {min_common})"
            )
        # ids that do not sort, ints and strs, put the ints first
        codes.check(matrix[rows, a], matrix[rows, b],
                    key=lambda k: (isinstance(items[rows[k]], str), items[rows[k]]))
        if n < 2:
            raise ValidationError("need at least 2 items to measure agreement")
