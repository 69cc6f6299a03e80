"""Mean pairwise kappa as one stack against the frozen per-pair walk.

`mean_pairwise_kappa_codes` counts every pair's table in one bincount and
finishes them in one `_Codes._finish` call; pairwise_oracle.py walks the pairs
one table at a time.  Every PairKappa, the mean and n_items must be identical,
floats by repr, and so must the first error, on seeded code matrices with: 2 to
30 sources of both task kinds; -1 gaps; labels some pairs never use; a
degenerate pair; pairs of n = 2; and bad labels, too few shared items and
n < 2.  The finisher must also equal the frozen one-table finish on a
fancy-indexed stack, whose tables do not lie contiguously in memory.
"""

import copy

import numpy as np
import pytest

from silicon import agreement
from silicon.agreement import _Codes, mean_pairwise_kappa_codes
from silicon.core import LabelValue, TaskKind, TaskSpec, ValidationError
from kappa_oracle import assert_reports_equal
from pairwise_oracle import frozen_finish, frozen_mean_pairwise_kappa_codes

SPECS = {
    "multiclass": TaskSpec("t-mc", TaskKind.MULTICLASS, ("a", "b", "c", "d", "e")),
    "multilabel": TaskSpec("t-ml", TaskKind.MULTILABEL, ("a", "b", "c", "d", "e", "f")),
}
KINDS = pytest.mark.parametrize("kind", sorted(SPECS))


def universe(spec):
    """Every label of `spec`: its single categories, or all 63 non-empty sets."""
    k = spec.n_categories
    if spec.kind is TaskKind.MULTILABEL:
        return [LabelValue.of([c for c in range(k) if mask >> c & 1]) for mask in range(1, 2**k)]
    return [LabelValue.single(c) for c in range(k)]


def inputs(spec, n_sources, seed, n_items=50):
    """(names, items, table, matrix): a shuffled label table and an items x
    sources code matrix with about 20% gaps.  Items draw a true label from a
    few of the table's labels; each source keeps it with its own accuracy and
    otherwise gives a label from its own small pool, so pairs use different
    label subsets.  Some seeds make sources 0 and 1 always give one label (a
    degenerate pair), or leave the last source only 2 items, both shared by
    every source (pairs of n = 2)."""
    rng = np.random.default_rng([seed, n_sources])
    table = universe(spec)
    table = [table[k] for k in rng.permutation(len(table))]
    common = rng.choice(len(table), size=min(len(table), 8), replace=False)
    truth = rng.choice(common, size=n_items)
    matrix = np.empty((n_items, n_sources), dtype=np.intp)
    for j in range(n_sources):
        pool = rng.choice(len(table), size=int(rng.integers(1, 5)), replace=False)
        keep = rng.random(n_items) < rng.uniform(0.3, 0.95)
        matrix[:, j] = np.where(keep, truth, rng.choice(pool, size=n_items))
    matrix[rng.random(matrix.shape) < 0.2] = -1
    if seed % 3 == 1 and n_sources >= 3:
        matrix[:, :2] = int(common[0])
    if seed % 3 == 2:
        matrix[2:, -1] = -1
        matrix[:2, :] = np.where(matrix[:2, :] < 0, int(common[1]), matrix[:2, :])
    items = [f"it{k:03d}" for k in rng.permutation(n_items)]
    names = [f"src{j:02d}" for j in range(n_sources)]
    return names, items, table, matrix


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValidationError as exc:
        return "error", str(exc)


def assert_same(got, want):
    assert got[0] == want[0]
    if got[0] == "error":
        assert got == want
        return
    new, old = got[1], want[1]
    assert_reports_equal(new, old)
    assert repr(new.pairwise) == repr(old.pairwise)
    assert repr(new.mean_kappa) == repr(old.mean_kappa) and repr(new.kappa) == repr(old.kappa)
    assert new.n_items == old.n_items


def compare(names, items, table, matrix, spec, min_common=2, check=True):
    args = (names, items, table, matrix, spec.kind, spec if check else None, min_common)
    assert_same(outcome(mean_pairwise_kappa_codes, *args),
                outcome(frozen_mean_pairwise_kappa_codes, *args))


@KINDS
@pytest.mark.parametrize("n_sources", [2, 3, 5, 8, 30])
@pytest.mark.parametrize("seed", range(3))
def test_pairs_match_the_frozen_walk(kind, n_sources, seed):
    spec = SPECS[kind]
    names, items, table, matrix = inputs(spec, n_sources, seed)
    for check in (True, False):
        compare(names, items, table, matrix, spec, check=check)
    if seed % 3 == 1 and n_sources >= 3:
        assert mean_pairwise_kappa_codes(names, items, table, matrix, spec.kind).pairwise[0].kappa \
            in (0.0, 1.0)
    if seed % 3 == 2:
        report = mean_pairwise_kappa_codes(names, items, table, matrix, spec.kind)
        assert report.pairwise[-1].n_items == 2


@KINDS
def test_pairs_in_several_bincount_blocks(kind, monkeypatch):
    """Blocks of 3 pairs give the same stack as one bincount, and a pair that
    fails in a later block still reports the frozen walk's error."""
    spec = SPECS[kind]
    names, items, table, matrix = inputs(spec, 8, 4)
    monkeypatch.setattr(agreement, "_PAIR_CELLS", 3 * len(matrix))
    compare(names, items, table, matrix, spec)
    matrix[1:, 6] = -1
    matrix[0, 6] = matrix[0, 0]  # sources 0 and 1 label every item (seed 4)
    compare(names, items, table, matrix, spec)
    assert outcome(mean_pairwise_kappa_codes, names, items, table, matrix, spec.kind) == (
        "error", "annotators 'src00' and 'src06' share only 1 items (need >= 2)")


def with_bad_labels(spec, seed, n_sources=6):
    """Inputs whose table holds labels `spec` rejects (out of range, or sets on
    a single-label task), placed at a few random cells of a few sources."""
    names, items, table, matrix = inputs(spec, n_sources, seed)
    bad = [LabelValue.single(7), LabelValue.of([2, 9]), LabelValue.single(8)]
    if spec.kind is not TaskKind.MULTILABEL:
        bad.append(LabelValue.of([0, 1]))
    rng = np.random.default_rng([seed, 77])
    at = len(table)
    table = table + bad
    for _ in range(int(rng.integers(1, 5))):
        matrix[rng.integers(len(matrix)), rng.integers(n_sources)] = at + rng.integers(len(bad))
    if seed % 2:  # ints and strs: the ints sort first
        items = [int(i[2:]) if k % 3 == 0 else i for k, i in enumerate(items)]
    return names, items, table, matrix


@KINDS
@pytest.mark.parametrize("seed", range(8))
def test_first_bad_label_matches_the_frozen_walk(kind, seed):
    spec = SPECS[kind]
    names, items, table, matrix = with_bad_labels(spec, seed)
    compare(names, items, table, matrix, spec)
    compare(names, items, table, matrix, spec, check=False)


@KINDS
@pytest.mark.parametrize("seed", range(4))
def test_too_few_shared_and_n_below_two_match_the_frozen_walk(kind, seed):
    spec = SPECS[kind]
    names, items, table, matrix = inputs(spec, 7, seed)
    rng = np.random.default_rng([seed, 5])
    lonely = int(rng.integers(7))
    matrix[rng.permutation(len(matrix))[seed % 3:], lonely] = -1  # keeps 0, 1 or 2 items
    for min_common in (0, 1, 2, 3, 10):
        compare(names, items, table, matrix, spec, min_common=min_common)
    assert outcome(mean_pairwise_kappa_codes, names, items, table, matrix, spec.kind,
                   min_common=0) == ("error", "need at least 2 items to measure agreement")


def test_fewer_than_two_sources():
    spec = SPECS["multiclass"]
    names, items, table, matrix = inputs(spec, 1, 0)
    compare(names, items, table, matrix, spec)


@KINDS
@pytest.mark.parametrize("seed", range(3))
def test_finish_of_a_fancy_indexed_restricted_stack(kind, seed):
    """Restricting a stack of tables by fancy indexing puts the stack axis
    innermost in memory.  Finishing it must still round as the frozen finish
    of each table on its own does."""
    spec = SPECS[kind]
    names, items, table, matrix = inputs(spec, 8, seed)
    codes = _Codes(spec.kind, None, table)
    coded = np.append(codes.columns[0], -1)[matrix]
    present = matrix >= 0
    stack = np.stack([codes.table(coded[both, a], coded[both, b])
                      for a in range(8) for b in range(a + 1, 8)
                      for both in [present[:, a] & present[:, b]]])
    cols = np.flatnonzero(stack.any(axis=(0, 2)) | stack.any(axis=(0, 1)))
    restricted = stack[:, cols[:, None], cols]
    assert not restricted.flags.c_contiguous and restricted.strides[0] == 8
    sub = copy.copy(codes)
    sub.cats = [codes.cats[c] for c in cols]
    sub.weights = codes.weights[np.ix_(cols, cols)]
    got = sub._finish(restricted)
    want = [frozen_finish(sub, np.ascontiguousarray(t)) for t in restricted]
    for field in range(5):  # kappa, degenerate, n, num, den
        assert repr(got[field]) == repr([w[field] for w in want])
    for rows, used, observed, expected, weights in got[5]:
        for row, obs, exp in zip(np.arange(len(stack))[rows], observed, expected):
            _, _, _, _, _, w_used, w_obs, w_exp, w_weights = want[row]
            assert np.array_equal(used, w_used) and np.array_equal(weights, w_weights)
            assert np.array_equal(obs, w_obs) and np.array_equal(exp, w_exp)
    # the tables fall into groups of used labels; on one task some use every label
    assert len(got[5]) > 1 or spec.kind is TaskKind.MULTICLASS
    assert len(cols) in [len(used) for _, used, *_ in got[5]] or spec.kind is TaskKind.MULTILABEL
    # a stack of one in column-major order, over just the labels it uses (so
    # nothing is restricted and copied), rounds the same
    for t, w in zip(restricted, want):
        own = copy.copy(sub)
        own.cats, own.weights = [sub.cats[u] for u in w[5]], w[8]
        assert repr(own.score(np.asfortranarray(t[np.ix_(w[5], w[5])]))) == repr(w[:2])
