from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from silicon import agreement
from silicon.core import LabelValue, TaskKind, TaskSpec, TieRule, ValidationError
from silicon.routing import RoutingPlan, route, sweep
from kappa_oracle import old_cohen_kappa, old_kappa_for_kind


def S(*indices):
    return LabelValue.of(indices)


SPEC = TaskSpec(task_id="t", kind=TaskKind.MULTICLASS,
                label_universe=("a", "b", "c"))
MSPEC = TaskSpec(task_id="tm", kind=TaskKind.MULTILABEL,
                 label_universe=("a", "b", "c"))


def majority_oracle(votes, focal_label):
    """Exhaustive-count majority with keep-focal ties, written independently."""
    counts = Counter(votes)
    best = max(counts.values())
    cands = sorted(lab for lab, c in counts.items() if c == best)
    if len(cands) == 1:
        return cands[0]
    return focal_label if focal_label in cands else cands[0]


def random_case(rng, n=200):
    items = [f"i{j}" for j in range(n)]
    focal = {i: S(int(rng.integers(0, 3))) for i in items}
    fsd = {i: float(rng.integers(0, 6)) / 5.0 for i in items}
    aux = {
        name: {i: S(int(rng.integers(0, 3))) for i in items}
        for name in ("x", "y")
    }
    reference = {i: S(int(rng.integers(0, 3))) for i in items}
    return items, focal, fsd, aux, reference


def random_label(rng, spec):
    if spec.kind is TaskKind.MULTILABEL:
        return LabelValue.of(rng.choice(3, size=int(rng.integers(1, 3)), replace=False))
    return S(int(rng.integers(0, 3)))


class TestPlanValidation:
    def test_needs_auxiliaries(self):
        with pytest.raises(ValidationError):
            RoutingPlan(focal="f", auxiliaries=(), tau=0.5)

    def test_focal_not_auxiliary(self):
        with pytest.raises(ValidationError):
            RoutingPlan(focal="f", auxiliaries=("f",), tau=0.5)

    def test_tau_range(self):
        with pytest.raises(ValidationError):
            RoutingPlan(focal="f", auxiliaries=("x",), tau=1.5)


class TestRoute:
    def test_tau_zero_is_identity(self):
        rng = np.random.default_rng(0)
        items, focal, fsd, aux, _ = random_case(rng)
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
        result = route(plan, focal, fsd, aux, SPEC)
        assert result.final == focal
        assert result.routed == frozenset()

    def test_tau_one_is_full_majority(self):
        rng = np.random.default_rng(1)
        items, focal, fsd, aux, _ = random_case(rng)
        fsd = {i: min(v, 0.99) for i, v in fsd.items()}  # tau=1 must route all
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0)
        result = route(plan, focal, fsd, aux, SPEC)
        assert result.routed == frozenset(items)
        for i in items:
            votes = [focal[i], aux["x"][i], aux["y"][i]]
            assert result.final[i] == majority_oracle(votes, focal[i])

    def test_strictly_below_threshold_routes(self):
        focal = {"i1": S(0), "i2": S(0)}
        fsd = {"i1": 0.5, "i2": 0.49}
        aux = {"x": {"i1": S(1), "i2": S(1)}, "y": {"i1": S(1), "i2": S(1)}}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.5)
        result = route(plan, focal, fsd, aux, SPEC)
        assert result.routed == frozenset({"i2"})
        assert result.final == {"i1": S(0), "i2": S(1)}

    def test_three_way_tie_keeps_focal(self):
        focal = {"i": S(2)}
        aux = {"x": {"i": S(0)}, "y": {"i": S(1)}}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0)
        result = route(plan, focal, {"i": 0.0}, aux, SPEC)
        assert result.final["i"] == S(2)

    def test_three_way_tie_other_rules(self):
        focal = {"i": S(2)}
        aux = {"x": {"i": S(0)}, "y": {"i": S(1)}}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0,
                           tie_rule=TieRule.LOWEST_INDEX)
        assert route(plan, focal, {"i": 0.0}, aux, SPEC).final["i"] == S(0)
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0,
                           tie_rule=TieRule.ERROR)
        with pytest.raises(ValidationError):
            route(plan, focal, {"i": 0.0}, aux, SPEC)

    def test_missing_aux_label_is_error(self):
        plan = RoutingPlan(focal="f", auxiliaries=("x",), tau=1.0)
        with pytest.raises(ValidationError, match="lacks a label"):
            route(plan, {"i": S(0)}, {"i": 0.0}, {"x": {}}, SPEC)

    def test_missing_aux_model_is_error(self):
        plan = RoutingPlan(focal="f", auxiliaries=("x", "z"), tau=1.0)
        with pytest.raises(ValidationError, match="z"):
            route(plan, {"i": S(0)}, {"i": 0.0}, {"x": {"i": S(0)}}, SPEC)

    def test_fsd_out_of_range(self):
        plan = RoutingPlan(focal="f", auxiliaries=("x",), tau=1.0)
        with pytest.raises(ValidationError, match="fsd"):
            route(plan, {"i": S(0)}, {"i": 1.5}, {"x": {"i": S(0)}}, SPEC)

    def test_a_fault_the_walk_cannot_name_is_raised_as_found(self):
        """The walk re-asks each check to name the first faulty item; if no
        item fails it (a mapping whose answer changed in between), the bulk
        check's own error is raised."""
        class Flaky(dict):
            asked = 0

            def __contains__(self, key):  # missing for the bulk check, present for the walk
                self.asked += 1
                return self.asked > 1

        plan = RoutingPlan(focal="f", auxiliaries=("x",), tau=1.0)
        with pytest.raises(KeyError):
            route(plan, {"i": S(0)}, Flaky(i=0.0), {"x": {"i": S(0)}}, SPEC)


class TestRouteMultilabel:
    def test_per_category_majority(self):
        focal = {"i": S(0, 1)}
        aux = {"x": {"i": S(0)}, "y": {"i": S(0, 2)}}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0)
        result = route(plan, focal, {"i": 0.0}, aux, MSPEC)
        assert result.final["i"] == S(0)  # only category 0 has 3/3... 2/3 majority

    def test_half_tie_follows_focal(self):
        focal = {"i": S(0, 1)}
        aux = {"x": {"i": S(1, 2)}}  # two voters: 1 has 2/2, 0 and 2 are half
        plan = RoutingPlan(focal="f", auxiliaries=("x",), tau=1.0)
        result = route(plan, focal, {"i": 0.0}, aux, MSPEC)
        assert result.final["i"] == S(0, 1)

    def test_empty_majority_keeps_focal(self):
        focal = {"i": S(0)}
        aux = {"x": {"i": S(1)}, "y": {"i": S(2)}}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0)
        result = route(plan, focal, {"i": 0.0}, aux, MSPEC)
        assert result.final["i"] == S(0)


class TestSweep:
    def test_q_monotone(self):
        rng = np.random.default_rng(11)
        items, focal, fsd, aux, reference = random_case(rng, n=200)
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
        taus = [k / 10 for k in range(11)]
        points = sweep(plan, taus, focal, fsd, aux, reference, SPEC)
        assert [p.tau for p in points] == taus
        for prev, nxt in zip(points, points[1:]):
            assert nxt.q >= prev.q
            assert nxt.n_routed >= prev.n_routed
        assert points[0].n_routed == 0

    def test_kappa_against_direct_computation(self):
        rng = np.random.default_rng(12)
        items, focal, fsd, aux, reference = random_case(rng, n=60)
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
        points = sweep(plan, [0.5], focal, fsd, aux, reference, SPEC)
        routed = route(RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.5),
                       focal, fsd, aux, SPEC)
        want = old_cohen_kappa([routed.final[i] for i in items],
                               [reference[i] for i in items]).kappa
        assert points[0].kappa == want

    @pytest.mark.parametrize("spec", [SPEC, MSPEC], ids=["multiclass", "multilabel"])
    @pytest.mark.parametrize("tie_rule", [TieRule.KEEP_FOCAL, TieRule.LOWEST_INDEX,
                                          TieRule.RANDOM_SEEDED])
    def test_every_point_equals_route_at_its_tau(self, spec, tie_rule):
        # three auxiliaries make four voters: modal ties, exact-half categories
        # and empty strict majorities all occur
        rng = np.random.default_rng(14)
        items = [f"i{j}" for j in range(150)]
        focal = {i: random_label(rng, spec) for i in items}
        fsd = {i: float(rng.integers(0, 11)) / 10.0 for i in items}
        aux = {name: {i: random_label(rng, spec) for i in items} for name in ("x", "y", "z")}
        shared = items[:140]  # the rest have no reference label
        reference = {i: random_label(rng, spec) for i in shared}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y", "z"), tau=0.0, tie_rule=tie_rule)
        taus = [k / 10 for k in range(11)]
        points = sweep(plan, taus, focal, fsd, aux, reference, spec, seed=5)
        assert len(points) == len(taus)
        for point, tau in zip(points, taus):
            routed = route(replace(plan, tau=tau), focal, fsd, aux, spec, seed=5)
            want = old_kappa_for_kind([routed.final[i] for i in shared],
                                      [reference[i] for i in shared], spec.kind)
            n_routed = len(routed.routed & set(shared))
            assert (point.tau, point.kappa, point.n_routed, point.q, point.degenerate) == (
                tau, want.kappa, n_routed, n_routed / len(shared), want.degenerate)

    def test_one_weight_matrix_per_sweep(self, monkeypatch):
        # the set weights depend only on the coded labels, not on tau
        built = []
        set_weights = agreement._set_weights
        monkeypatch.setattr(agreement, "_set_weights",
                            lambda cats: built.append(len(cats)) or set_weights(cats))
        rng = np.random.default_rng(16)
        items = [f"i{j}" for j in range(80)]
        focal = {i: random_label(rng, MSPEC) for i in items}
        fsd = {i: float(rng.integers(0, 11)) / 10.0 for i in items}
        aux = {name: {i: random_label(rng, MSPEC) for i in items} for name in ("x", "y")}
        reference = {i: random_label(rng, MSPEC) for i in items}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
        points = sweep(plan, [k / 10 for k in range(11)], focal, fsd, aux, reference, MSPEC)
        assert len(points) == 11
        assert len(built) == 1

    def test_empty_taus_and_bad_tau(self):
        rng = np.random.default_rng(15)
        items, focal, fsd, aux, reference = random_case(rng, n=20)
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
        assert sweep(plan, [], focal, fsd, aux, reference, SPEC) == []
        with pytest.raises(ValidationError):
            sweep(plan, [0.5, 1.5], focal, fsd, aux, reference, SPEC)

    def test_oracle_auxiliaries_reach_perfect_agreement(self):
        # focal is wrong exactly where it is unsure; both auxiliaries equal the
        # reference, so routing at 0.5 fixes every mistake
        rng = np.random.default_rng(13)
        items = [f"i{j}" for j in range(100)]
        reference = {i: S(int(rng.integers(0, 3))) for i in items}
        focal, fsd = {}, {}
        for idx, item in enumerate(items):
            if idx % 4 == 0:
                focal[item] = S((reference[item].index + 1) % 3)
                fsd[item] = 0.2
            else:
                focal[item] = reference[item]
                fsd[item] = 0.8
        aux = {"x": dict(reference), "y": dict(reference)}
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
        points = sweep(plan, [0.0, 0.5], focal, fsd, aux, reference, SPEC)
        assert points[0].kappa < 1.0
        assert points[1].kappa == 1.0
        assert points[1].q == pytest.approx(0.25, abs=0)

    def test_needs_shared_items(self):
        plan = RoutingPlan(focal="f", auxiliaries=("x",), tau=0.0)
        with pytest.raises(ValidationError):
            sweep(plan, [0.5], {"i": S(0)}, {"i": 0.5}, {"x": {"i": S(0)}},
                  {"other": S(0)}, SPEC)

    def test_set_reference_label_on_single_label_task(self):
        rng = np.random.default_rng(17)
        items, focal, fsd, aux, reference = random_case(rng, n=20)
        reference[items[7]] = S(0, 2)
        plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
        with pytest.raises(ValidationError, match="cohen_kappa takes single labels"):
            sweep(plan, [0.0, 0.5, 1.0], focal, fsd, aux, reference, SPEC)
