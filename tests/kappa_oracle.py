"""Frozen copies of the record-era kappa path: label lists tabulated pair by
pair, with the unique-and-bincount table and float steps that the count-table
kappa in `agreement._Codes` replaced.  They are the oracles for every kappa the
package reports (kappa_for_kind, mean pairwise kappa, routing sweeps and
sensitivity curves), with `assert_reports_equal` to compare reports bit for
bit.  Do not edit them to follow the package."""

import math
from dataclasses import replace
from itertools import combinations

import numpy as np

from silicon.agreement import AgreementReport, PairKappa
from silicon.core import TaskKind, ValidationError


def old_set_weights(cats):
    column = {c: j for j, c in enumerate(sorted({c for lab in cats for c in lab.indices}))}
    member = np.zeros((len(cats), len(column)), dtype=np.int64)
    for row, lab in enumerate(cats):
        member[row, [column[c] for c in lab.indices]] = 1
    size = member.sum(axis=1)
    inter = member @ member.T
    union = size[:, None] + size[None, :] - inter
    m3 = 1 + (inter == np.minimum.outer(size, size)) + (inter == np.maximum.outer(size, size))
    return (3 * union - inter * m3) / (3 * union)


def old_tabulate(a, b):
    if len(a) != len(b):
        raise ValidationError(f"annotator lengths differ: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValidationError("need at least 2 items to measure agreement")
    table = {lab.indices: lab for col in (a, b) for lab in col}
    keys = sorted(table)
    code = {key: i for i, key in enumerate(keys)}
    return ([table[key] for key in keys],
            np.array([code[lab.indices] for lab in a], dtype=np.intp),
            np.array([code[lab.indices] for lab in b], dtype=np.intp))


def old_kappa_codes(ca, cb, cats, weights, weighted_flag):
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
    degenerate = den <= 0.0
    return AgreementReport(
        kappa=(1.0 if num <= 0.0 else 0.0) if degenerate else 1.0 - num / den,
        p_o=1.0 - num / n, p_e=1.0 - den / n, n_items=n, degenerate=degenerate,
        weighted=weighted_flag, categories=tuple(cats),
        observed=observed, expected=expected, weights=weights,
    )


def old_cohen_kappa(a, b, spec=None):
    for lab in list(a) + list(b):
        if len(lab.indices) != 1:
            raise ValidationError("cohen_kappa takes single labels; use weighted_kappa for sets")
        if spec is not None:
            spec.validate_label(lab)
    cats, ca, cb = old_tabulate(a, b)
    return old_kappa_codes(ca, cb, cats, 1.0 - np.eye(len(cats)), weighted_flag=False)


def old_weighted_kappa(a, b, spec=None):
    if spec is not None:
        for lab in list(a) + list(b):
            spec.validate_label(lab)
    cats, ca, cb = old_tabulate(a, b)
    return old_kappa_codes(ca, cb, cats, old_set_weights(cats), weighted_flag=True)


def old_kappa_for_kind(a, b, kind, spec=None):
    """old_weighted_kappa for multilabel tasks, old_cohen_kappa otherwise."""
    return (old_weighted_kappa if kind is TaskKind.MULTILABEL else old_cohen_kappa)(a, b, spec)


def old_mean_pairwise_kappa(sources, kind, spec=None, min_common=2):
    names = list(sources)
    if len(names) < 2:
        raise ValidationError("need at least 2 annotators")
    pair_reports, pairs = [], []
    for na, nb in combinations(names, 2):
        common = sorted(set(sources[na]) & set(sources[nb]))
        if len(common) < min_common:
            raise ValidationError(
                f"annotators {na!r} and {nb!r} share only {len(common)} items "
                f"(need >= {min_common})"
            )
        la = [sources[na][i] for i in common]
        lb = [sources[nb][i] for i in common]
        kappa = old_weighted_kappa if kind is TaskKind.MULTILABEL else old_cohen_kappa
        rep = kappa(la, lb, spec)
        pair_reports.append(rep)
        pairs.append(PairKappa(na, nb, rep.kappa, len(common)))
    mean = float(np.mean([p.kappa for p in pairs]))
    if len(pairs) == 1:
        return replace(pair_reports[0], pairwise=tuple(pairs), mean_kappa=mean)
    n_union = len({i for m in sources.values() for i in m})
    return AgreementReport(
        kappa=mean, p_o=float("nan"), p_e=float("nan"), n_items=n_union,
        weighted=kind is TaskKind.MULTILABEL, pairwise=tuple(pairs), mean_kappa=mean,
    )


def same_float(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1.0, a) == math.copysign(1.0, b))
    return a == b


def assert_reports_equal(new, old):
    for name in ("kappa", "p_o", "p_e", "mean_kappa"):
        assert type(getattr(new, name)) is type(getattr(old, name)), name
        assert same_float(getattr(new, name), getattr(old, name)), name
    for name in ("n_items", "degenerate", "weighted", "categories"):
        assert getattr(new, name) == getattr(old, name), name
    assert [(p.source_a, p.source_b, p.n_items) for p in new.pairwise] == [
        (p.source_a, p.source_b, p.n_items) for p in old.pairwise]
    assert all(same_float(p.kappa, q.kappa) for p, q in zip(new.pairwise, old.pairwise))
    for name in ("observed", "expected", "weights"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name
