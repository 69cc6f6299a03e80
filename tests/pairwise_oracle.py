"""Frozen copy of the per-pair mean pairwise kappa over a code matrix.

`frozen_mean_pairwise_kappa_codes` is `agreement.mean_pairwise_kappa_codes` as
it stood before every pair was counted by one bincount and finished as one
stack: a walk over the pairs, one bincount, one `frozen_finish` (the
one-table `_Codes._finish` of that time) and one AgreementReport per pair.
It still codes labels and checks them through `agreement._Codes`.  It is the
oracle for the stacked pair path (tests/test_pairwise_stack.py,
tools/kappa_probe.py).  Do not edit it to follow the package.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np

from silicon.agreement import AgreementReport, PairKappa, _Codes
from silicon.core import ValidationError


def frozen_finish(codes, table):
    """Kappa's float steps on `table`, restricted to the categories either
    side uses."""
    used = np.flatnonzero(table.any(axis=1) | table.any(axis=0))
    weights = codes.weights.take(used, axis=0).take(used, axis=1)
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


def frozen_kappa(codes, ca, cb):
    kappa, degenerate, n, num, den, used, observed, expected, weights = frozen_finish(
        codes, codes.table(ca, cb))
    return AgreementReport(
        kappa=kappa, p_o=1.0 - num / n, p_e=1.0 - den / n, n_items=n,
        degenerate=degenerate, weighted=codes.weighted,
        categories=tuple(codes.cats[u] for u in used),
        observed=observed, expected=expected, weights=weights,
    )


def frozen_mean_pairwise_kappa_codes(names, items, table, matrix, kind, spec=None,
                                     min_common=2):
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
        # (ids that do not sort, ints and strs, put the ints first)
        codes.check(ca, cb, key=lambda k: (isinstance(items[rows[k]], str), items[rows[k]]))
        if n < 2:
            raise ValidationError("need at least 2 items to measure agreement")
        rep = frozen_kappa(codes, ca, cb)
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
