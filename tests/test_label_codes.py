"""The one label coder, core._label_codes, and the analyses built on it.

The coder returns the distinct labels of its columns in LabelValue order and
each column's codes into them.  Every analysis codes labels through it, so no
result may depend on the order in which its inputs first show a label: route,
sweep, build_match_matrix and mean_pairwise_kappa must return equal results
when the items of each input map are listed in another order.
"""

from itertools import combinations

import numpy as np
import pytest

from silicon.agreement import mean_pairwise_kappa
from silicon.core import LabelValue, TaskKind, TaskSpec, TieRule, _code_maps, _label_codes
from silicon.equivalence import build_match_matrix
from silicon.routing import RoutingPlan, route, sweep
from kappa_oracle import assert_reports_equal

SPECS = {
    "multiclass": TaskSpec("t-mc", TaskKind.MULTICLASS, ("a", "b", "c", "d", "e")),
    "multilabel": TaskSpec("t-ml", TaskKind.MULTILABEL, ("a", "b", "c", "d", "e", "f")),
}


def pool(spec):
    """Every label of `spec`: its singles, or all non-empty subsets."""
    k = spec.n_categories
    if spec.kind is TaskKind.MULTILABEL:
        return [LabelValue.of(c) for r in range(1, k + 1) for c in combinations(range(k), r)]
    return [LabelValue.single(c) for c in range(k)]


def random_column(rng, labels, n):
    """n labels drawn from a random subset of `labels`, each a fresh object."""
    size = int(rng.integers(1, min(len(labels), 8) + 1))
    some = [labels[j] for j in rng.choice(len(labels), size=size, replace=False)]
    return [LabelValue(some[j].indices) for j in rng.integers(len(some), size=n)]


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("seed", range(20))
def test_label_codes_sort_and_round_trip(kind, seed):
    rng = np.random.default_rng(seed)
    labels = pool(SPECS[kind])
    columns = [random_column(rng, labels, int(rng.integers(0, 30)))
               for _ in range(int(rng.integers(1, 5)))]
    columns.append([])                          # an empty column
    columns.append(list(columns[0]))            # a repeated one
    if seed % 2:  # dict views, as _code_maps passes them
        columns = [dict(enumerate(col)).values() for col in columns]
    table, codes = _label_codes(*columns)
    assert table == sorted({lab for col in columns for lab in col})
    assert len(codes) == len(columns)
    for col, code in zip(columns, codes):
        assert code.dtype == np.intp and code.shape == (len(col),)
        assert [table[c] for c in code.tolist()] == list(col)


def test_label_codes_of_no_labels():
    assert _label_codes() == ([], [])
    table, (code,) = _label_codes([])
    assert table == [] and code.dtype == np.intp and code.shape == (0,)


def test_code_maps_use_label_order():
    maps = [{"i1": LabelValue.of((2, 3)), "i0": LabelValue.single(0)},
            {"i2": LabelValue.single(1), "i1": LabelValue.single(0)}]
    items, table, matrix = _code_maps(maps)
    assert items == ["i1", "i0", "i2"]
    assert table == [LabelValue.single(0), LabelValue.single(1), LabelValue.of((2, 3))]
    assert matrix.tolist() == [[2, 0], [0, -1], [-1, 1]]


def shuffled(rng, mapping):
    """`mapping` with its items listed in a random order."""
    keys = list(mapping)
    return {keys[j]: mapping[keys[j]] for j in rng.permutation(len(keys)).tolist()}


def routing_case(spec, seed, n=60):
    rng = np.random.default_rng(seed)
    labels = pool(spec)
    items = [f"i{j:02d}" for j in range(n)]

    def column():
        return dict(zip(items, random_column(rng, labels, n)))

    focal, aux, reference = column(), {name: column() for name in ("x", "y", "z")}, column()
    fsd = {i: float(rng.integers(0, 6)) / 5.0 for i in items}
    return rng, focal, fsd, aux, reference


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("tie_rule", [TieRule.KEEP_FOCAL, TieRule.RANDOM_SEEDED,
                                      TieRule.LOWEST_INDEX])
@pytest.mark.parametrize("seed", range(3))
def test_routing_ignores_first_seen_label_order(kind, tie_rule, seed):
    spec = SPECS[kind]
    rng, focal, fsd, aux, reference = routing_case(spec, seed)
    plan = RoutingPlan(focal="f", auxiliaries=("x", "y", "z"), tau=0.7, tie_rule=tie_rule)
    taus = [0.0, 0.3, 0.7, 1.0]
    want_route = route(plan, focal, fsd, aux, spec, seed=seed)
    want_sweep = sweep(plan, taus, focal, fsd, aux, reference, spec, seed=seed)
    assert want_route.routed
    for _ in range(3):
        args = (shuffled(rng, focal), shuffled(rng, fsd),
                {name: shuffled(rng, labels) for name, labels in aux.items()})
        got = route(plan, *args, spec, seed=seed)
        assert (got.final, got.routed, got.tau) == (
            want_route.final, want_route.routed, want_route.tau)
        assert sweep(plan, taus, *args, shuffled(rng, reference), spec,
                     seed=seed) == want_sweep


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("seed", range(3))
def test_match_matrix_ignores_first_seen_label_order(kind, seed):
    rng, focal, _, aux, reference = routing_case(SPECS[kind], seed)
    models = {"f": focal, **aux}
    models["copy"] = dict(reference)  # matches on every item
    want = build_match_matrix(models, reference)
    assert want.matches[:, -1].all()
    for _ in range(3):
        got = build_match_matrix({name: shuffled(rng, labels) for name, labels in models.items()},
                                 shuffled(rng, reference))
        assert (got.items, got.models, got.baseline_model, got.separation_flag) == (
            want.items, want.models, want.baseline_model, want.separation_flag)
        assert np.array_equal(got.matches, want.matches)


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("n_sources", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_pairwise_kappa_ignores_first_seen_label_order(kind, n_sources, seed):
    rng, focal, _, aux, reference = routing_case(SPECS[kind], seed)
    sources = dict(list({"f": focal, **aux, "ref": reference}.items())[:n_sources])
    spec = SPECS[kind]
    want = mean_pairwise_kappa(sources, spec.kind, spec)
    for _ in range(3):
        got = mean_pairwise_kappa(
            {name: shuffled(rng, labels) for name, labels in sources.items()}, spec.kind, spec)
        assert_reports_equal(got, want)
