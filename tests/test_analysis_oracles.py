"""The analyses that read a Dataset's columns against frozen copies of the
per-item, dict-based code they replaced.

The oracles below are copies of the earlier `cli._fsd_scores` (with the
Counter-based `fsd_from_samples`), `routing.route` (one frozen
`majority_vote` call per routed item, see vote_oracle.py),
`cli._source_maps` and `equivalence.build_match_matrix`; mean pairwise
kappa is checked against the label-list oracle in kappa_oracle.py.
Results, error types, error texts and which fault is reported first must
all agree on seeded random inputs.
"""

import json
from collections import Counter, defaultdict

import numpy as np
import pytest

from silicon import cli, core, routing
from silicon.agreement import mean_pairwise_kappa, mean_pairwise_kappa_codes
from silicon.confidence import FsdScore, fsd_from_samples
from silicon.core import (
    Dataset,
    LabelValue,
    Role,
    SourceId,
    TaskKind,
    TaskSpec,
    TieRule,
    ValidationError,
    _sorted_ids,
)
from silicon.equivalence import MatchMatrix, build_match_matrix, build_match_matrix_codes
from silicon.routing import RoutingPlan, RoutingResult, route
from kappa_oracle import old_mean_pairwise_kappa
from vote_oracle import oracle_majority_vote

SPEC = TaskSpec(task_id="t", kind=TaskKind.MULTICLASS, label_universe=("a", "b", "c"))
MSPEC = TaskSpec(task_id="tm", kind=TaskKind.MULTILABEL,
                 label_universe=("a", "b", "c", "d"))
SPECS = pytest.mark.parametrize("spec", [SPEC, MSPEC], ids=["multiclass", "multilabel"])


# ------------------------------------------------------------- frozen oracles

def oracle_fsd_from_samples(samples):
    n = len(samples)
    if n < 2:
        raise ValidationError("need at least 2 samples")
    counts = Counter(samples)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    top_label, top = ranked[0]
    if len(ranked) == 1:
        return FsdScore(fsd=1.0, top_label=top_label, second_label=None,
                        n_samples=n, method="sampling")
    second_label, second = ranked[1]
    return FsdScore(fsd=(top - second) / n, top_label=top_label,
                    second_label=second_label, n_samples=n, method="sampling")


def oracle_fsd_scores(dataset, source_name):
    sources = dataset.sources()
    if source_name:
        matching = [s for s in sources if s.name == source_name]
        if not matching:
            raise ValidationError(f"source {source_name!r} not in dataset")
        source = matching[0]
    elif len(sources) == 1:
        source = sources[0]
    else:
        raise ValidationError(
            f"dataset has {len(sources)} sources; pick one with --source"
        )
    runs = dataset.runs(source)
    scores = {}
    for item in dataset.item_ids():
        if item not in runs:
            continue
        labels = runs[item]
        if len(labels) < 2:
            raise ValidationError(
                f"item {item!r} has {len(labels)} runs from {source.name!r}; need >= 2"
            )
        scores[item] = oracle_fsd_from_samples(labels)
    return source, scores


def oracle_route(plan, focal_labels, fsd, aux_labels, spec, seed=None):
    missing_aux = [name for name in plan.auxiliaries if name not in aux_labels]
    if missing_aux:
        raise ValidationError(f"no labels supplied for auxiliaries: {missing_aux!r}")
    final = {}
    routed = set()
    for item, focal_label in focal_labels.items():
        if item not in fsd:
            raise ValidationError(f"missing fsd for item {item!r}")
        score = fsd[item]
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"fsd out of range for item {item!r}: {score}")
        if score >= plan.tau:
            final[item] = focal_label
            continue
        votes = [focal_label]
        for name in plan.auxiliaries:
            if item not in aux_labels[name]:
                raise ValidationError(f"auxiliary {name!r} lacks a label for item {item!r}")
            votes.append(aux_labels[name][item])
        final[item] = oracle_majority_vote(votes, spec, plan.tie_rule, seed, focal=focal_label)
        routed.add(item)
    return RoutingResult(final=final, routed=frozenset(routed), tau=plan.tau)


def oracle_source_maps(dataset, role=None):
    out = {}
    for source in dataset.sources():
        if role is not None and source.role is not role:
            continue
        if source.name in out:
            raise ValidationError(f"duplicate source name across roles: {source.name!r}")
        out[source.name] = dataset.label_map(source)
    return out


def oracle_build_match_matrix(model_labels, reference, baseline_model=None):
    models = tuple(model_labels)
    if len(models) < 2:
        raise ValidationError("need at least 2 models")
    items = tuple(_sorted_ids(reference))
    if len(items) < 2:
        raise ValidationError("need at least 2 reference items")
    missing = {
        name: [i for i in items if i not in labels]
        for name, labels in model_labels.items()
        if any(i not in labels for i in items)
    }
    if missing:
        detail = "; ".join(f"{name}: {ids[:5]!r}" for name, ids in missing.items())
        raise ValidationError(f"models missing reference items ({detail})")
    matches = np.zeros((len(items), len(models)))
    for j, name in enumerate(models):
        labels = model_labels[name]
        for i, item in enumerate(items):
            matches[i, j] = 1.0 if labels[item] == reference[item] else 0.0
    return MatchMatrix(items=items, models=models, matches=matches,
                       baseline_model=baseline_model or models[0])


# ------------------------------------------------------------------ helpers

def outcome(fn, *args, **kwargs):
    """('ok', result) or ('error', exception type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValidationError, TypeError) as exc:
        return ("error", type(exc), str(exc))


def same_report(got, want):
    # repr compares floats exactly and nan (the multi-pair p_o and p_e) as equal
    fields = ("kappa", "p_o", "p_e", "n_items", "degenerate", "weighted", "categories",
              "pairwise", "mean_kappa")
    assert repr([getattr(got, f) for f in fields]) == repr([getattr(want, f) for f in fields])
    for field in ("observed", "expected", "weights"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b)


def same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
    return got[0] == "ok"


def random_label(rng, spec, pool=None):
    if pool is not None:
        return pool[int(rng.integers(len(pool)))]
    k = spec.n_categories
    if spec.kind is TaskKind.MULTILABEL:
        return LabelValue.of(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
    return LabelValue.single(int(rng.integers(k)))


def label_pool(rng, spec):
    """A few labels, so that counts tie often."""
    return [random_label(rng, spec) for _ in range(int(rng.integers(1, 4)))]


def random_ids(rng, n, int_ids):
    order = rng.permutation(n)
    return [int(k) + 1 for k in order] if int_ids else [f"it{k:03d}" for k in order]


def focal_dataset(rng, spec, int_ids, min_runs=2):
    """Focal runs (2-7 per item, from a small label pool) plus another source,
    in shuffled record order."""
    ids = random_ids(rng, int(rng.integers(3, 30)), int_ids)
    focal = SourceId(Role.MODEL, "f")
    other = SourceId(Role.MODEL, "g")
    rows = []
    for item in ids:
        pool = label_pool(rng, spec)
        if rng.random() < 0.85:
            for run in range(int(rng.integers(min_runs, 8))):
                rows.append((item, focal, random_label(rng, spec, pool), run))
        if rng.random() < 0.7:
            rows.append((item, other, random_label(rng, spec), 0))
    rows = [rows[k] for k in rng.permutation(len(rows))]
    return Dataset.from_rows(spec, rows)


# ---------------------------------------------------------------------- FSD

class TestFsd:
    @SPECS
    def test_samples_match_the_counter_oracle(self, spec):
        rng = np.random.default_rng(100)
        for _ in range(400):
            pool = label_pool(rng, spec)
            samples = [random_label(rng, spec, pool) for _ in range(int(rng.integers(2, 8)))]
            assert fsd_from_samples(samples) == oracle_fsd_from_samples(samples)

    def test_ties_at_both_ranks(self):
        a, b, c, d = (LabelValue.single(i) for i in range(4))
        for samples in ([c, b, b, c, a, a], [d, a, c, c, b, b], [b, a], [c, c, b, a, d]):
            got = fsd_from_samples(samples)
            assert got == oracle_fsd_from_samples(samples)
        assert fsd_from_samples([c, b, b, c, a, a]).top_label == a
        assert fsd_from_samples([d, a, c, c, b, b]).second_label == c

    def test_short_samples_error(self):
        assert outcome(fsd_from_samples, [LabelValue.single(0)]) == outcome(
            oracle_fsd_from_samples, [LabelValue.single(0)])

    @SPECS
    @pytest.mark.parametrize("int_ids", [False, True], ids=["str-ids", "int-ids"])
    def test_scores_match_the_oracle(self, spec, int_ids):
        rng = np.random.default_rng(101 + int_ids)
        for _ in range(60):
            ds = focal_dataset(rng, spec, int_ids)
            got = outcome(cli._fsd_scores, ds, "f")
            want = outcome(oracle_fsd_scores, ds, "f")
            if same_outcome(got, want):
                source, labels, (items, fsd, top, second, n) = got[1]
                assert source == want[1][0]
                assert items == list(want[1][1])
                assert [FsdScore(f, labels[t], labels[s] if s >= 0 else None, k, "sampling")
                        for f, t, s, k in zip(fsd, top, second, n)] == list(want[1][1].values())

    @SPECS
    def test_single_run_errors_match_the_oracle(self, spec):
        # min_runs=1: some items have one run; the first in item order is named
        rng = np.random.default_rng(103)
        errors = 0
        for _ in range(60):
            ds = focal_dataset(rng, spec, bool(rng.integers(2)), min_runs=1)
            got, want = outcome(cli._fsd_scores, ds, "f"), outcome(oracle_fsd_scores, ds, "f")
            errors += not same_outcome(got, want)
        assert errors > 20

    def test_source_choice_errors_match_the_oracle(self):
        rng = np.random.default_rng(104)
        ds = focal_dataset(rng, SPEC, False)
        for name in (None, "nope"):
            assert outcome(cli._fsd_scores, ds, name) == outcome(oracle_fsd_scores, ds, name)

    @SPECS
    def test_command_output_matches_one_dumps_per_line(self, spec, tmp_path):
        rng = np.random.default_rng(105)
        task = tmp_path / "task.json"
        task.write_text(json.dumps(spec.to_json()), encoding="utf-8")
        for k in range(5):
            ds = focal_dataset(rng, spec, bool(k % 2))
            runs, out = tmp_path / f"runs{k}.jsonl", tmp_path / f"fsd{k}.jsonl"
            core.save_dataset(ds, runs)
            assert cli.run(["fsd", "--task", str(task), "--runs", str(runs),
                            "--source", "f", "--out", str(out)]) == 0
            source, scores = oracle_fsd_scores(core.load_dataset(runs, spec), "f")
            want = "".join(json.dumps({
                "item_id": item, "source": source.to_json(), "fsd": round(s.fsd, 6),
                "top_label": s.top_label.to_names(spec),
                "second_label": s.second_label.to_names(spec) if s.second_label else None,
                "n_samples": s.n_samples, "method": s.method,
            }, sort_keys=True, ensure_ascii=False) + "\n" for item, s in scores.items())
            assert out.read_text(encoding="utf-8") == want


# ------------------------------------------------------------------ routing

TIE_RULES = pytest.mark.parametrize("tie_rule", list(TieRule), ids=[r.value for r in TieRule])


def routing_case(rng, spec, faults):
    """Focal labels, fsd and two or three auxiliaries over int or str ids; with
    `faults`, some fsd values are missing, out of range or not numbers, some
    auxiliary labels missing and some labels outside the task."""
    ids = random_ids(rng, int(rng.integers(2, 40)), bool(rng.integers(2)))
    pool = label_pool(rng, spec) + [random_label(rng, spec)]
    focal = {i: random_label(rng, spec, pool) for i in ids}
    fsd = {i: float(rng.integers(0, 11)) / 10 for i in ids}
    names = ("x", "y", "z")[:int(rng.integers(2, 4))]
    aux = {name: {i: random_label(rng, spec, pool) for i in ids} for name in names}
    if faults:
        for _ in range(int(rng.integers(1, 3))):
            item = ids[int(rng.integers(len(ids)))]
            kind = int(rng.integers(5))
            if kind == 0:
                fsd.pop(item, None)
            elif kind == 1:
                fsd[item] = [1.5, -0.1, float("nan")][int(rng.integers(3))]
            elif kind == 2:
                aux[names[int(rng.integers(len(names)))]].pop(item, None)
            elif kind == 3:
                aux[names[int(rng.integers(len(names)))]][item] = LabelValue.single(9)
            else:
                fsd[item] = ["0.5", None][int(rng.integers(2))]
    return focal, fsd, names, aux


class TestRoute:
    @SPECS
    @TIE_RULES
    @pytest.mark.parametrize("seed", [7, None], ids=["seed", "no-seed"])
    def test_route_matches_the_per_item_oracle(self, spec, tie_rule, seed):
        rng = np.random.default_rng(200)
        errors = 0
        for case in range(120):
            focal, fsd, names, aux = routing_case(rng, spec, faults=case % 2 == 1)
            plan = RoutingPlan(focal="f", auxiliaries=names,
                               tau=float(rng.integers(0, 11)) / 10, tie_rule=tie_rule)
            got = outcome(route, plan, focal, fsd, aux, spec, seed)
            want = outcome(oracle_route, plan, focal, fsd, aux, spec, seed)
            if same_outcome(got, want):
                assert got[1] == want[1]
                assert list(got[1].final) == list(want[1].final)
            else:
                errors += 1
        assert errors > 10

    def test_first_item_then_first_auxiliary_is_named(self):
        a = LabelValue.single(0)
        focal = {f"i{k}": a for k in range(4)}
        fsd = dict.fromkeys(focal, 0.0)
        aux = {"x": {"i0": a, "i1": a, "i3": a}, "y": {"i0": a, "i3": a},
               "z": {"i0": a, "i2": a, "i3": a}}
        plan = RoutingPlan(focal="f", auxiliaries=("z", "y", "x"), tau=0.5)
        got = outcome(route, plan, focal, fsd, aux, SPEC)
        assert got == outcome(oracle_route, plan, focal, fsd, aux, SPEC)
        assert got[2] == "auxiliary 'z' lacks a label for item 'i1'"

    @pytest.mark.parametrize("score", ["0.5", None])
    def test_fsd_that_is_not_a_number_is_a_type_error(self, score):
        a = LabelValue.single(0)
        plan = RoutingPlan(focal="f", auxiliaries=("x",), tau=1.0)
        args = (plan, {"i": a, "j": a}, {"i": 0.5, "j": score}, {"x": {"i": a, "j": a}}, SPEC)
        for fn in (route, oracle_route):
            with pytest.raises(TypeError):
                fn(*args)

    def test_defaultdict_keys_read_as_missing(self):
        a = LabelValue.single(0)
        focal = {"i": a, "j": a, "k": a}
        plan = RoutingPlan(focal="f", auxiliaries=("x",), tau=1.0)
        cases = [
            (defaultdict(float, {"i": 0.5, "k": 0.5}), {"x": dict.fromkeys(focal, a)},
             "missing fsd for item 'j'"),
            (dict.fromkeys(focal, 0.5), {"x": defaultdict(lambda: a, {"i": a, "k": a})},
             "auxiliary 'x' lacks a label for item 'j'"),
        ]
        for fsd, aux, message in cases:
            sizes = (len(fsd), len(aux["x"]))
            got = outcome(route, plan, focal, fsd, aux, SPEC)
            assert got == outcome(oracle_route, plan, focal, fsd, aux, SPEC)
            assert got == ("error", ValidationError, message)
            assert (len(fsd), len(aux["x"])) == sizes

    def test_missing_auxiliary_map_matches_the_oracle(self):
        plan = RoutingPlan(focal="f", auxiliaries=("x", "w"), tau=1.0)
        args = (plan, {"i": LabelValue.single(0)}, {"i": 0.5}, {"x": {}}, SPEC)
        assert outcome(route, *args) == outcome(oracle_route, *args)

    @SPECS
    @TIE_RULES
    def test_one_vote_per_distinct_label_tuple(self, spec, tie_rule, monkeypatch):
        """Items routed with the same (focal, aux...) labels get that tuple's one
        vote, the frozen majority_vote's, from a single kernel call per route
        and no majority_vote call."""
        calls = []

        def counting_vote(codes, *args, **kwargs):
            calls.append(len(codes))
            return vote(codes, *args, **kwargs)

        def no_vote(*args, **kwargs):
            raise AssertionError("majority_vote called")

        vote = routing._vote
        monkeypatch.setattr(routing, "_vote", counting_vote)
        monkeypatch.setattr(core, "majority_vote", no_vote)
        rng = np.random.default_rng(201)
        for _ in range(20):
            focal, fsd, names, aux = routing_case(rng, spec, faults=False)
            plan = RoutingPlan(focal="f", auxiliaries=names, tau=0.75, tie_rule=tie_rule)
            calls.clear()
            got = outcome(route, plan, focal, fsd, aux, spec, 3)
            routed = [i for i in focal if fsd[i] < plan.tau]
            assert calls == [len(routed)]
            if got[0] == "ok":
                assert got[1].routed == frozenset(routed)
                for i in routed:
                    votes = [focal[i], *(aux[name][i] for name in names)]
                    assert got[1].final[i] == oracle_majority_vote(votes, spec, tie_rule, 3,
                                                                   focal=focal[i])


# --------------------------------------------------- kappa and match matrix

def role_dataset(rng, spec, int_ids, coverage=0.8, min_sources=1):
    """Several sources of each role, some items missing from some sources,
    some labels only at run 1, and a few items no source labels at run 0."""
    ids = random_ids(rng, int(rng.integers(2, 30)), int_ids)
    sources = [SourceId(role, f"{role.value[0]}{k}")
               for role in Role for k in range(int(rng.integers(min_sources, 4)))]
    rows = []
    for item in ids:
        pool = label_pool(rng, spec)
        for source in sources:
            if rng.random() < coverage:
                rows.append((item, source, random_label(rng, spec, pool),
                             int(rng.random() < 0.1)))
    rows = [rows[k] for k in rng.permutation(len(rows))]
    return Dataset.from_rows(spec, rows)


class TestKappaAndMatches:
    @SPECS
    @pytest.mark.parametrize("role", [None, Role.EXPERT, Role.MODEL], ids=["all", "expert",
                                                                           "model"])
    def test_dataset_kappa_matches_the_dict_oracle(self, spec, role):
        rng = np.random.default_rng(300)
        for case in range(60):
            ds = role_dataset(rng, spec, case % 2 == 0)
            want = outcome(lambda: old_mean_pairwise_kappa(
                oracle_source_maps(ds, role), spec.kind, spec))
            got = outcome(lambda: cli._pairwise_kappa(ds, cli._role_sources(ds, role), spec))
            if same_outcome(got, want):
                same_report(got[1], want[1])

    @SPECS
    def test_adapter_matches_the_oracle_with_bad_labels(self, spec):
        # a label outside the task, or a set on a single-label kind: the first
        # bad one in sorted item order of the first failing pair is reported
        rng = np.random.default_rng(301)
        errors = 0
        for case in range(150):
            ids = random_ids(rng, int(rng.integers(1, 12)), case % 2 == 0)
            maps = {name: {i: random_label(rng, MSPEC) for i in ids if rng.random() < 0.8}
                    for name in ("p", "q", "r")[:int(rng.integers(1, 4))]}
            if case % 3 == 0:
                maps[next(iter(maps))][ids[0]] = LabelValue.single(7)
            for kind in (TaskKind.MULTICLASS, TaskKind.MULTILABEL):
                for check in (spec, None):
                    got = outcome(mean_pairwise_kappa, maps, kind, check)
                    want = outcome(old_mean_pairwise_kappa, maps, kind, check)
                    if same_outcome(got, want):
                        same_report(got[1], want[1])
                    else:
                        errors += 1
        assert errors > 50

    def test_multi_pair_n_items_counts_only_labelled_rows(self):
        e1, e2, e3 = (SourceId(Role.EXPERT, f"e{k}") for k in range(3))
        crowd = SourceId(Role.CROWD, "c")
        a, b = LabelValue.single(0), LabelValue.single(1)
        rows = [(f"i{k}", s, a if (k + j) % 3 else b, 0)
                for k in range(6) for j, s in enumerate((e1, e2, e3))]
        rows += [("crowd-only", crowd, a, 0), ("late", e1, a, 1), ("late", e2, b, 1),
                 ("i0", crowd, b, 0)]
        ds = Dataset.from_rows(SPEC, rows)
        experts = cli._role_sources(ds, Role.EXPERT)
        rep = cli._pairwise_kappa(ds, experts, SPEC)
        assert len(rep.pairwise) == 3
        assert rep.n_items == 6
        assert len(ds.item_ids()) == 8
        same_report(rep, old_mean_pairwise_kappa(
            oracle_source_maps(ds, Role.EXPERT), SPEC.kind, SPEC))
        # through the code matrix directly, with rows no source labels
        matrix = ds.code_matrix(experts)
        assert (matrix < 0).all(axis=1).sum() == 2
        assert mean_pairwise_kappa_codes(
            [s.name for s in experts], ds.item_ids(), ds.label_table, matrix,
            SPEC.kind, SPEC).n_items == 6

    @SPECS
    def test_dataset_matches_match_the_dict_oracle(self, spec):
        rng = np.random.default_rng(302)
        errors = 0
        for case in range(80):
            ds = role_dataset(rng, spec, case % 2 == 0, coverage=0.95,
                              min_sources=1 + (case % 5 > 0))
            models = cli._role_sources(ds, Role.MODEL)
            maps = oracle_source_maps(ds, Role.MODEL)
            # mostly items every model labels, so most cases build a matrix
            covered = [i for i in ds.item_ids() if all(i in m for m in maps.values())]
            reference = {i: random_label(rng, spec) for i in covered if rng.random() < 0.9}
            if case % 4 == 0:
                missed = [i for i in ds.item_ids() if i not in covered]
                reference[missed[0] if missed and case % 8 else 10_000] = random_label(rng, spec)
            baseline = None if case % 3 else "m0"
            got = outcome(build_match_matrix_codes, [s.name for s in models], ds.item_ids(),
                          ds.label_table, ds.code_matrix(models), reference, baseline)
            want = outcome(oracle_build_match_matrix, maps, reference, baseline)
            if same_outcome(got, want):
                g, w = got[1], want[1]
                assert (g.items, g.models, g.baseline_model, g.separation_flag) == (
                    w.items, w.models, w.baseline_model, w.separation_flag)
                assert np.array_equal(g.matches, w.matches) and g.matches.dtype == float
            else:
                errors += 1
        assert 10 < errors < 40

    def test_missing_items_text_names_five_per_model(self):
        a = LabelValue.single(0)
        reference = {k: a for k in range(12)}
        maps = {"p": {k: a for k in range(0, 12, 2)}, "q": dict(reference),
                "r": {k: a for k in range(3)}}
        got = outcome(build_match_matrix, maps, reference)
        assert got == outcome(oracle_build_match_matrix, maps, reference)
        assert got[2] == ("models missing reference items (p: [1, 3, 5, 7, 9]; "
                          "r: [3, 4, 5, 6, 7])")

    @SPECS
    def test_adapter_matches_the_oracle(self, spec):
        rng = np.random.default_rng(303)
        for case in range(100):
            ids = random_ids(rng, int(rng.integers(1, 12)), case % 2 == 0)
            maps = {name: {i: random_label(rng, spec) for i in ids if rng.random() < 0.9}
                    for name in ("p", "q", "r")[:int(rng.integers(1, 4))]}
            reference = {i: random_label(rng, spec) for i in ids if rng.random() < 0.9}
            got = outcome(build_match_matrix, maps, reference)
            want = outcome(oracle_build_match_matrix, maps, reference)
            if same_outcome(got, want):
                assert got[1].items == want[1].items
                assert np.array_equal(got[1].matches, want[1].matches)
