from fractions import Fraction

import numpy as np
import pytest

from silicon.agreement import (
    _set_weights,
    cohen_kappa,
    mean_pairwise_kappa,
    set_weight,
    weighted_kappa,
)
from silicon.core import LabelValue, TaskKind, ValidationError


def S(*indices):
    return LabelValue.of(indices)


# ------------------------------------------------------------------- oracles
# Independent implementations used to freeze expected values: plain dict
# counting, no shared code with the library.

def kappa_oracle(a, b):
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    cats = sorted(set(a) | set(b))
    p_e = sum(
        (sum(1 for x in a if x == c) / n) * (sum(1 for y in b if y == c) / n)
        for c in cats
    )
    if 1.0 - p_e <= 0.0:
        return 1.0 if p_o >= 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def weight_oracle(p, q):
    p, q = frozenset(p), frozenset(q)
    inter, union = p & q, p | q
    jac = len(inter) / len(union)
    if p == q:
        m = 1.0
    elif p < q or q < p:
        m = 2.0 / 3.0
    elif inter:
        m = 1.0 / 3.0
    else:
        m = 0.0
    return 1.0 - jac * m


def weighted_kappa_oracle(a, b):
    n = len(a)
    cats = sorted(set(a) | set(b))
    num = sum(weight_oracle(x.indices, y.indices) for x, y in zip(a, b))
    den = 0.0
    for ci in cats:
        for cj in cats:
            pa = sum(1 for x in a if x == ci) / n
            pb = sum(1 for y in b if y == cj) / n
            den += weight_oracle(ci.indices, cj.indices) * n * pa * pb
    if den <= 0.0:
        return 1.0 if num <= 0.0 else 0.0
    return 1.0 - num / den


def random_single_dataset(rng, n_max=50, k_max=6):
    n = int(rng.integers(2, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    a = [LabelValue.single(int(x)) for x in rng.integers(0, k, size=n)]
    b = [LabelValue.single(int(x)) for x in rng.integers(0, k, size=n)]
    return a, b


def random_set(rng, k=6, max_size=4):
    size = int(rng.integers(1, max_size + 1))
    return LabelValue.of(rng.choice(k, size=size, replace=False))


def fraction_weight(p, q):
    """set_weight in exact rational arithmetic, rounded to a float once at the end."""
    p, q = frozenset(p), frozenset(q)
    inter = p & q
    if not inter:
        return 1.0
    if p == q:
        m = Fraction(1)
    elif p < q or q < p:
        m = Fraction(2, 3)
    else:
        m = Fraction(1, 3)
    return float(1 - Fraction(len(inter), len(p | q)) * m)


def loop_tabulation(a, b, weight):
    """Contingency table and weights built by dict lookup and += 1.0, per pair."""
    cats = sorted(set(a) | set(b))
    index = {lab: i for i, lab in enumerate(cats)}
    observed = np.zeros((len(cats), len(cats)))
    for la, lb in zip(a, b):
        observed[index[la], index[lb]] += 1.0
    n = len(a)
    expected = n * np.outer(observed.sum(axis=1) / n, observed.sum(axis=0) / n)
    weights = np.zeros((len(cats), len(cats)))
    for i in range(len(cats)):
        for j in range(i + 1, len(cats)):
            weights[i, j] = weights[j, i] = weight(cats[i].indices, cats[j].indices)
    return tuple(cats), observed, expected, weights


# ----------------------------------------------------------------- weights

class TestSetWeight:
    def test_identical_and_disjoint_anchors(self):
        assert set_weight(S(0), S(0)) == 0.0
        assert set_weight(S(0), S(1)) == 1.0
        assert set_weight(S(0, 1), S(2, 3)) == 1.0

    def test_subset_anchor(self):
        # {x} vs {x, y}: jaccard 1/2, subset score 2/3 -> weight 2/3
        assert set_weight(S(0), S(0, 1)) == pytest.approx(2.0 / 3.0, abs=0)

    def test_crossing_anchor(self):
        # {a,b} vs {b,c}: jaccard 1/3, crossing score 1/3 -> 8/9
        assert set_weight(S(0, 1), S(1, 2)) == pytest.approx(8.0 / 9.0, abs=0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            set_weight(frozenset(), S(0))

    def test_matrix_equals_set_weight_on_every_subset_pair(self):
        # all 63 non-empty subsets of 6 categories; equality is exact, not approx
        sets = [LabelValue.of(c for c in range(6) if mask >> c & 1) for mask in range(1, 64)]
        matrix = _set_weights([s.indices for s in sets])
        for i, p in enumerate(sets):
            for j, q in enumerate(sets):
                assert matrix[i, j] == set_weight(p, q) == fraction_weight(p.indices, q.indices)

    def test_axioms_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            p, q = random_set(rng), random_set(rng)
            w = set_weight(p, q)
            assert 0.0 <= w <= 1.0
            assert w == set_weight(q, p)
            if p == q:
                assert w == 0.0
            else:
                assert w > 0.0
            if not (p.as_set() & q.as_set()):
                assert w == 1.0


# ------------------------------------------------------------------- kappa

class TestCohenKappa:
    def test_hand_example_zero(self):
        a = [S(0), S(0), S(1), S(1)]
        b = [S(0), S(1), S(0), S(1)]
        rep = cohen_kappa(a, b)
        assert rep.p_o == 0.5
        assert rep.p_e == 0.5
        assert rep.kappa == 0.0

    def test_perfect_agreement(self):
        a = [S(0), S(1), S(2), S(0)]
        rep = cohen_kappa(a, list(a))
        assert rep.kappa == 1.0
        assert not rep.degenerate

    def test_degenerate_single_category(self):
        a = [S(0)] * 5
        rep = cohen_kappa(a, list(a))
        assert rep.degenerate
        assert rep.kappa == 1.0
        assert rep.p_e == 1.0

    def test_rejects_sets_and_mismatch(self):
        with pytest.raises(ValidationError):
            cohen_kappa([S(0, 1), S(0)], [S(0), S(0)])
        with pytest.raises(ValidationError):
            cohen_kappa([S(0)], [S(0), S(1)])
        with pytest.raises(ValidationError):
            cohen_kappa([S(0)], [S(0)])
        # a bad label is reported before the length mismatch
        with pytest.raises(ValidationError, match="single labels"):
            cohen_kappa([S(0), S(1)], [S(0), S(0, 1), S(1)])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            a, b = random_single_dataset(rng)
            rep = cohen_kappa(a, b)
            assert rep.kappa == pytest.approx(kappa_oracle(a, b), abs=1e-12)

    def test_report_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_single_dataset(rng)
            rep = cohen_kappa(a, b)
            if not rep.degenerate:
                assert rep.kappa == pytest.approx(
                    (rep.p_o - rep.p_e) / (1 - rep.p_e), abs=1e-12
                )
            assert rep.observed.sum() == rep.n_items
            assert rep.expected.sum() == pytest.approx(rep.n_items, abs=1e-9)


class TestWeightedKappa:
    def test_equals_cohen_on_singletons(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            a, b = random_single_dataset(rng)
            assert weighted_kappa(a, b).kappa == pytest.approx(
                cohen_kappa(a, b).kappa, abs=1e-12
            )

    def test_matches_oracle_on_sets(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            n = int(rng.integers(2, 30))
            a = [random_set(rng, k=4, max_size=3) for _ in range(n)]
            b = [random_set(rng, k=4, max_size=3) for _ in range(n)]
            rep = weighted_kappa(a, b)
            assert rep.kappa == pytest.approx(weighted_kappa_oracle(a, b), abs=1e-12)

    def test_tables_equal_loop_tabulation_exactly(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            a = [random_set(rng, k=6, max_size=4) for _ in range(n)]
            b = [random_set(rng, k=6, max_size=4) for _ in range(n)]
            single_a, single_b = random_single_dataset(rng)
            for rep, (a_, b_, weight) in (
                (weighted_kappa(a, b), (a, b, fraction_weight)),
                (cohen_kappa(single_a, single_b), (single_a, single_b, lambda p, q: 1.0)),
            ):
                cats, observed, expected, weights = loop_tabulation(a_, b_, weight)
                assert rep.categories == cats
                assert np.array_equal(rep.observed, observed)
                assert np.array_equal(rep.expected, expected)
                assert np.array_equal(rep.weights, weights)
                den = float((weights * expected).sum())
                if den > 0.0:
                    assert rep.kappa == 1.0 - float((weights * observed).sum()) / den

    def test_partial_credit_beats_atomic_on_subset_disagreement(self):
        # one subset-relation disagreement; atomic treats it as total
        a = [S(0), S(1), S(0, 1), S(0)]
        b = [S(0), S(1), S(0), S(0)]
        weighted = weighted_kappa(a, b).kappa
        atomic = kappa_oracle(a, b)
        assert weighted > atomic

    def test_disjoint_sets_reduce_to_atomic(self):
        # every disagreeing pair is disjoint, so all off-diagonal weights are 1
        sets = [S(0), S(1), S(2)]
        a = [sets[i % 3] for i in range(12)]
        b = [sets[(i + 1) % 3] if i % 4 == 0 else sets[i % 3] for i in range(12)]
        assert weighted_kappa(a, b).kappa == pytest.approx(kappa_oracle(a, b), abs=1e-12)

    def test_degenerate_single_set(self):
        a = [S(0, 1)] * 4
        rep = weighted_kappa(a, list(a))
        assert rep.degenerate and rep.kappa == 1.0

    def test_categories_are_observed_sets_only(self):
        a = [S(0), S(0, 1)]
        b = [S(0), S(0)]
        rep = weighted_kappa(a, b)
        assert rep.categories == (S(0), S(0, 1))


class TestMeanPairwise:
    def test_two_sources_equals_single_pair(self):
        a = {"i1": S(0), "i2": S(1), "i3": S(0)}
        b = {"i1": S(0), "i2": S(0), "i3": S(0)}
        rep = mean_pairwise_kappa({"x": a, "y": b}, TaskKind.MULTICLASS)
        direct = cohen_kappa([a[i] for i in ("i1", "i2", "i3")],
                             [b[i] for i in ("i1", "i2", "i3")])
        assert rep.kappa == direct.kappa
        assert rep.mean_kappa == direct.kappa
        assert len(rep.pairwise) == 1

    def test_three_sources_mean_of_pairs(self):
        rng = np.random.default_rng(42)
        items = [f"i{j}" for j in range(20)]
        maps = {
            name: {i: LabelValue.single(int(x)) for i, x in zip(items, rng.integers(0, 3, 20))}
            for name in ("a", "b", "c")
        }
        rep = mean_pairwise_kappa(maps, TaskKind.MULTICLASS)
        expected = np.mean([
            kappa_oracle([maps[x][i] for i in items], [maps[y][i] for i in items])
            for x, y in (("a", "b"), ("a", "c"), ("b", "c"))
        ])
        assert rep.mean_kappa == pytest.approx(expected, abs=1e-12)
        assert len(rep.pairwise) == 3

    def test_pairwise_deletion(self):
        a = {"i1": S(0), "i2": S(1), "i3": S(0), "i4": S(1)}
        b = {"i1": S(0), "i2": S(1), "i5": S(0)}  # only i1, i2 shared
        rep = mean_pairwise_kappa({"x": a, "y": b}, TaskKind.MULTICLASS)
        assert rep.pairwise[0].n_items == 2
        assert rep.kappa == 1.0

    def test_insufficient_overlap_is_error(self):
        a = {"i1": S(0), "i2": S(1)}
        b = {"i9": S(0), "i8": S(1)}
        with pytest.raises(ValidationError, match="share only"):
            mean_pairwise_kappa({"x": a, "y": b}, TaskKind.MULTICLASS)

    def test_single_source_is_error(self):
        with pytest.raises(ValidationError):
            mean_pairwise_kappa({"x": {"i": S(0)}}, TaskKind.MULTICLASS)

    def test_multilabel_uses_weighted(self):
        a = {"i1": S(0, 1), "i2": S(2)}
        b = {"i1": S(0), "i2": S(2)}
        rep = mean_pairwise_kappa({"x": a, "y": b}, TaskKind.MULTILABEL)
        assert rep.weighted
