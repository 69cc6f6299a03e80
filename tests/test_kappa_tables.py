"""Kappa from integer count tables against the frozen label-list oracle.

kappa_for_kind, mean pairwise kappa, routing sweeps and sensitivity curves all
finish a count table; kappa_oracle.py scores each pair of label lists on its
own.  Reports must be equal bit for bit (assert_reports_equal), sweep points
and gaps by `==` on their repr, and errors by type and text, on: both task
kinds; set labels over all 63 non-empty subsets of 6 categories; a degenerate
table; a category only one side uses; n = 2; and a third column (crowd or
voted labels) that brings in a category neither other column uses.
"""

import tracemalloc
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from silicon import sensitivity
from silicon.agreement import _Codes, kappa_for_kind, mean_pairwise_kappa
from silicon.core import LabelValue, TaskKind, TaskSpec, ValidationError
from silicon.routing import RoutingPlan, SweepPoint, route, sweep
from silicon.sensitivity import AlphaGap, MixConfig, sensitivity_curve
from kappa_oracle import assert_reports_equal, old_kappa_for_kind, old_mean_pairwise_kappa
from test_sensitivity import curve_oracle

SPECS = {
    "multiclass": TaskSpec("t-mc", TaskKind.MULTICLASS, ("a", "b", "c", "d", "e")),
    "multilabel": TaskSpec("t-ml", TaskKind.MULTILABEL, ("a", "b", "c", "d", "e", "f")),
}
ALL_SETS = [LabelValue.of(c) for r in range(1, 7) for c in combinations(range(6), r)]
CASES = ("random", "all sets", "degenerate", "one side only", "n = 2")


def pool(spec, cats):
    """Every label of `spec` over the category indices `cats`."""
    if spec.kind is TaskKind.MULTILABEL:
        return [lab for lab in ALL_SETS if set(lab.indices) <= set(cats)]
    return [LabelValue.single(c) for c in cats]


def columns(spec, case, seed):
    """Three aligned label lists (a, b, c) for `case`.  a and b mostly agree;
    c copies b on about half the items and elsewhere holds a label from a
    category neither a nor b uses (the last category of the task)."""
    rng = np.random.default_rng(seed)
    last = spec.n_categories - 1
    low = pool(spec, range(last))             # a and b never use the last category
    n = {"n = 2": 2, "all sets": 189}.get(case, 60)
    if case == "degenerate":
        a = b = [low[0]] * n
    else:
        a = [low[k] for k in rng.integers(len(low), size=n)]
        b = [x if rng.random() < 0.6 else low[int(rng.integers(len(low)))] for x in a]
        if case == "all sets" and spec.kind is TaskKind.MULTILABEL:
            # every one of the 63 sets in a, the last category's ones included
            a = [ALL_SETS[k] for k in rng.permutation(n) % len(ALL_SETS)]
        if case == "one side only":
            a = [pool(spec, [last])[0] if k % 7 == 0 else x for k, x in enumerate(a)]
    fresh = [lab for lab in pool(spec, range(spec.n_categories)) if last in lab.indices]
    c = [y if k % 2 == 0 else fresh[int(rng.integers(len(fresh)))] for k, y in enumerate(b)]
    return a, b, c


def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except ValidationError as exc:
        return "error", str(exc)


KINDS = pytest.mark.parametrize("kind", sorted(SPECS))
EACH_CASE = pytest.mark.parametrize("case", CASES)


@KINDS
@EACH_CASE
def test_kappa_for_kind(kind, case):
    spec = SPECS[kind]
    for seed in range(3):
        a, b, c = columns(spec, case, seed)
        for x, y in ((a, b), (b, a), (a, c), (c, b)):
            for check in (None, spec):
                assert_reports_equal(kappa_for_kind(x, y, spec.kind, check),
                                     old_kappa_for_kind(x, y, spec.kind, check))


def test_degenerate_case_is_degenerate():
    for spec in SPECS.values():
        a, b, _ = columns(spec, "degenerate", 0)
        assert kappa_for_kind(a, b, spec.kind).degenerate


@KINDS
@EACH_CASE
def test_mean_pairwise_kappa(kind, case):
    spec = SPECS[kind]
    for seed in range(3):
        rng = np.random.default_rng([seed, 1])
        a, b, c = columns(spec, case, seed)
        items = [f"i{k:03d}" for k in rng.permutation(len(a))]
        keep = 1.0 if case == "n = 2" else 0.9
        maps = {name: {i: lab for i, lab in zip(items, col) if rng.random() < keep}
                for name, col in (("x", a), ("y", b), ("z", c))}
        for names in (("x", "y"), ("x", "z"), ("x", "y", "z")):
            sub = {name: maps[name] for name in names}
            got = outcome(mean_pairwise_kappa, sub, spec.kind, spec)
            want = outcome(old_mean_pairwise_kappa, sub, spec.kind, spec)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert_reports_equal(got[1], want[1])
            else:
                assert got == want


@KINDS
@EACH_CASE
def test_sensitivity_curve(kind, case):
    spec = SPECS[kind]
    cfg = MixConfig(alphas=(0.0, 0.25, 0.5, 0.8, 1.0), replicates=7, seed=11)
    for seed in range(3):
        llm, expert, crowd = ({f"i{k:03d}": lab for k, lab in enumerate(col)}
                              for col in columns(spec, case, seed))
        curve = sensitivity_curve(llm, expert, crowd, cfg, spec.kind)
        gaps = curve_oracle(llm, expert, crowd, cfg, spec.kind)
        want = [AlphaGap(alpha, float(np.mean(g)), float(np.min(g)), float(np.max(g)), g)
                for alpha, g in zip(cfg.alphas, gaps)]
        assert repr(curve) == repr(want)


def sweep_oracle(plan, taus, focal, fsd, aux, reference, spec):
    """Each point the direct way: route at its tau, then the frozen kappa."""
    points = []
    for tau in taus:
        routed = route(replace(plan, tau=tau), focal, fsd, aux, spec)
        rep = old_kappa_for_kind([routed.final[i] for i in focal],
                                 [reference[i] for i in focal], spec.kind)
        n_routed = len(routed.routed)
        points.append(SweepPoint(tau, rep.kappa, n_routed / len(focal), n_routed, rep.degenerate))
    return points


@KINDS
@EACH_CASE
def test_sweep(kind, case):
    """Both auxiliaries hold c, so a routed item's vote is c: on single
    labels two of three votes, on sets every category of c wins 2 of 3 and
    every other loses.  Its category is one that focal and reference lack."""
    spec = SPECS[kind]
    taus = [k / 10 for k in range(11)]
    plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
    for seed in range(3):
        rng = np.random.default_rng([seed, 2])
        focal, reference, voted = ({f"i{k:03d}": lab for k, lab in enumerate(col)}
                                   for col in columns(spec, case, seed))
        fsd = {i: float(rng.integers(0, 11)) / 10.0 for i in focal}
        aux = {"x": voted, "y": dict(voted)}
        points = sweep(plan, taus, focal, fsd, aux, reference, spec)
        assert repr(points) == repr(sweep_oracle(plan, taus, focal, fsd, aux, reference, spec))


def test_sweep_error_matches_the_oracle():
    """A set label on a single-label task that is never routed is in every
    point's final labels: the first point fails, as the oracle does."""
    spec = SPECS["multiclass"]
    focal, reference, voted = ({f"i{k:03d}": lab for k, lab in enumerate(col)}
                               for col in columns(spec, "random", 4))
    focal["i005"] = LabelValue.of([0, 1])
    rng = np.random.default_rng(6)
    fsd = {i: float(rng.integers(0, 10)) / 10.0 for i in focal}
    fsd["i005"] = 1.0
    plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
    aux = {"x": voted, "y": voted}
    for taus in ([0.0, 0.5, 1.0], [1.0, 0.3]):
        got = outcome(sweep, plan, taus, focal, fsd, aux, reference, spec)
        want = outcome(sweep_oracle, plan, taus, focal, fsd, aux, reference, spec)
        assert got == want == ("error",
                               "cohen_kappa takes single labels; use weighted_kappa for sets")


def test_curve_error_comes_at_the_oracle_replicate(monkeypatch):
    """A crowd set label on a single-label task fails the first replicate that
    swaps it in, after the same number of draws as the whole-column check."""
    spec = SPECS["multiclass"]
    llm, expert, crowd = ({f"i{k:03d}": lab for k, lab in enumerate(col)}
                          for col in columns(spec, "random", 5))
    crowd["i017"] = LabelValue.of([0, 1])
    cfg = MixConfig(alphas=(0.05, 0.1, 0.2), replicates=6, seed=3)
    draws = []
    swap = sensitivity._swap_positions
    monkeypatch.setattr(sensitivity, "_swap_positions",
                        lambda *args: draws.append(args) or swap(*args))
    got = outcome(sensitivity_curve, llm, expert, crowd, cfg, spec.kind)
    at, draws[:] = list(draws), []
    want = outcome(curve_oracle, llm, expert, crowd, cfg, spec.kind)
    assert got == want == ("error", "cohen_kappa takes single labels; use weighted_kappa for sets")
    assert at == draws and 1 < len(at) < 18


def test_moved_table_is_the_table_of_the_mixed_column():
    spec = SPECS["multilabel"]
    a, b, c = columns(spec, "all sets", 1)
    codes = _Codes(spec.kind, None, a, b, c)
    ca, cb, cc = codes.columns
    swapped = np.array([3, 4, 50, 188, 0])
    mixed = cb.copy()
    mixed[swapped] = cc[swapped]
    moved = codes.moved(codes.table(ca, cb), codes.cells(ca, cb)[swapped],
                        codes.cells(ca, cc)[swapped])
    assert moved.dtype == np.int64 and np.array_equal(moved, codes.table(ca, mixed))
    assert len(codes.cats) == 63 and moved.shape == (63, 63)


def test_curve_memory_does_not_grow_with_replicates():
    """One replicate's table at a time: a replicates x K x K stack for 400
    replicates over 63 label sets would add about 12 MB."""
    spec = SPECS["multilabel"]
    llm, expert, crowd = ({f"i{k:03d}": lab for k, lab in enumerate(col)}
                          for col in columns(spec, "all sets", 2))
    peaks = []
    for replicates in (2, 400):
        cfg = MixConfig(alphas=(0.5,), replicates=replicates, seed=0)
        tracemalloc.start()
        try:
            sensitivity_curve(llm, expert, crowd, cfg, spec.kind)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024
