"""Acceptance suite: one test per release criterion, each printing a single
pass line (pytest -v adds the fail line when an assertion trips).

Every numeric target is checked against an oracle implemented inside this
module (explicit counting loops, closed-form algebra) rather than against the
library's own helpers, so a regression in the library cannot silently update
the expectation.
"""

import json
import math
import os
import pathlib
import shutil
import socket
import time
from collections import Counter

import numpy as np
import pytest

from silicon import cli
from silicon.agreement import cohen_kappa, kappa_for_kind, set_weight, weighted_kappa
from silicon.confidence import fsd_from_probabilities, fsd_from_samples
from silicon.core import LabelValue, TaskKind, TaskSpec
from silicon.equivalence import MatchMatrix, fit_equivalence
from silicon.gateway import REPLAY_ENV, Placement, PromptConfig, Strategy, assemble_prompt
from silicon.noise_sim import SimConfig, contrast, simulate
from silicon.routing import RoutingPlan, route, sweep
from silicon.sensitivity import MixConfig, sensitivity_curve

DATA = pathlib.Path(__file__).parent / "data"


def S(*indices):
    return LabelValue.of(indices)


def _pass(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS  {detail}")


@pytest.fixture(autouse=True)
def clean_replay_env():
    os.environ.pop(REPLAY_ENV, None)
    yield
    os.environ.pop(REPLAY_ENV, None)


# 1 ---------------------------------------------------------------------------

def test_criterion_1_set_weight_anchors_and_axioms():
    universe = ("fearspeech", "hatespeech", "profanity", "threat", "insult", "other")
    spec = TaskSpec(task_id="speech", kind=TaskKind.MULTILABEL, label_universe=universe)
    fear = LabelValue.from_names(["fearspeech"], spec)
    hate = LabelValue.from_names(["hatespeech"], spec)
    both = LabelValue.from_names(["fearspeech", "hatespeech"], spec)
    assert set_weight(fear, hate) == 1.0
    assert set_weight(fear, both) == 2.0 / 3.0  # exact, not approx

    start = time.perf_counter()
    rng = np.random.default_rng(np.random.Philox(101))
    for _ in range(1000):
        a = S(*rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
        b = S(*rng.choice(6, size=int(rng.integers(1, 5)), replace=False))
        w = set_weight(a, b)
        assert 0.0 <= w <= 1.0
        assert w == set_weight(b, a)
        assert set_weight(a, a) == 0.0
        if not (a.as_set() & b.as_set()):
            assert w == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _pass(1, f"anchors exact (1, 2/3); 1000-case axiom suite in {elapsed:.3f}s")


# 2 ---------------------------------------------------------------------------

def kappa_oracle(xs, ys):
    """Direct P_o / P_e computation over hashable labels."""
    n = len(xs)
    p_o = sum(x == y for x, y in zip(xs, ys)) / n
    ca, cb = Counter(xs), Counter(ys)
    p_e = sum((ca[c] / n) * (cb[c] / n) for c in set(ca) | set(cb))
    if p_e >= 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1.0 - p_e)


def test_criterion_2_kappa_matches_brute_force():
    rng = np.random.default_rng(np.random.Philox(202))
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 51))
        k = int(rng.integers(2, 7))
        xs = [int(v) for v in rng.integers(0, k, size=n)]
        ys = [int(v) for v in rng.integers(0, k, size=n)]
        got = cohen_kappa([S(x) for x in xs], [S(y) for y in ys]).kappa
        want = kappa_oracle(xs, ys)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12
        wk = weighted_kappa([S(x) for x in xs], [S(y) for y in ys]).kappa
        assert abs(wk - got) <= 1e-12
    _pass(2, f"500 datasets; max |kappa - oracle| = {worst:.2e}; "
             "singleton weighted == cohen")


# 3 ---------------------------------------------------------------------------

def uniform_confusion(k: int, diag: float) -> list:
    off = (1.0 - diag) / (k - 1)
    return [[diag if i == j else off for j in range(k)] for i in range(k)]


def test_criterion_3_identity_residual_grid():
    start = time.perf_counter()
    checked = 0
    for k in (2, 4, 6):
        for e in (0.0, 0.1, 0.3):
            for c in (-0.3, 0.0, 0.5):
                cfg = SimConfig(
                    n_classes=k,
                    priors=[1.0 / k] * k,
                    error_rate=e,
                    llm_confusion=uniform_confusion(k, 0.7),
                    coupling=c,
                    n_samples=100_000,
                    seed=1000 + checked,
                )
                r = simulate(cfg)
                assert abs(r.identity_residual) <= 4.0 * r.std_error, (k, e, c)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 27 and elapsed < 30.0

    small = simulate(SimConfig(
        n_classes=4, priors=[0.25] * 4, error_rate=0.2,
        llm_confusion=uniform_confusion(4, 0.7), n_samples=100, seed=0,
    ))
    assert abs(small.slope - 11.0 / 15.0) <= 1e-15
    assert abs(small.chance_rate - 1.0 / 15.0) <= 1e-15
    _pass(3, f"27 configs at n=1e5, residual <= 4*SE, {elapsed:.1f}s; "
             "a=11/15, b=1/15 to 1e-15")


# 4 ---------------------------------------------------------------------------

def test_criterion_4_coupling_only_contrast_sign():
    # diagonal = 1 - e makes coupling accuracy-neutral: E[A_T] is identical
    # with and without coupling, so any A_R gain is pure co-labeling
    hits = 0
    for seed in range(100):
        base = SimConfig(
            n_classes=4, priors=[0.25] * 4, error_rate=0.2,
            llm_confusion=uniform_confusion(4, 0.8), coupling=0.0,
            n_samples=20_000, seed=seed,
        )
        variant = SimConfig(**{**base.to_json(), "coupling": 0.5})
        rep = contrast(base, variant)
        if rep.reference_gain and not rep.error_reduced:
            hits += 1
    assert hits >= 95
    _pass(4, f"reference gain without error reduction in {hits}/100 seeded trials")


# 5 ---------------------------------------------------------------------------

def test_criterion_5_fsd_anchors_and_probability_law():
    a, b, c = S(0), S(1), S(2)
    assert fsd_from_samples([a] * 5).fsd == 1.0
    assert fsd_from_samples([a, a, b, b, c]).fsd == 0.0
    assert fsd_from_samples([a, a, a, b, c]).fsd == 0.4

    worst = 0.0
    for p in np.linspace(0.0, 1.0, 101):
        got = fsd_from_probabilities({a: float(p), b: float(1.0 - p)}).fsd
        worst = max(worst, abs(got - abs(2.0 * p - 1.0)))
        assert abs(got - abs(2.0 * p - 1.0)) <= 1e-12
    _pass(5, f"sample anchors exact; |2p-1| law over 101-point grid, "
             f"max dev {worst:.2e}")


# 6 ---------------------------------------------------------------------------

def majority_oracle(votes, focal_label):
    counts = Counter(votes)
    best = max(counts.values())
    cands = sorted(lab for lab, cnt in counts.items() if cnt == best)
    if len(cands) == 1:
        return cands[0]
    return focal_label if focal_label in cands else cands[0]


def test_criterion_6_routing_endpoints():
    spec = TaskSpec(task_id="t", kind=TaskKind.MULTICLASS,
                    label_universe=("a", "b", "c"))
    rng = np.random.default_rng(np.random.Philox(606))
    items = [f"i{j}" for j in range(200)]
    focal = {i: S(int(rng.integers(0, 3))) for i in items}
    fsd = {i: float(rng.integers(0, 100)) / 100.0 for i in items}
    aux = {name: {i: S(int(rng.integers(0, 3))) for i in items}
           for name in ("x", "y")}
    reference = {i: S(int(rng.integers(0, 3))) for i in items}

    plan = RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=0.0)
    assert route(plan, focal, fsd, aux, spec).final == focal  # bit-identical

    full = route(RoutingPlan(focal="f", auxiliaries=("x", "y"), tau=1.0),
                 focal, fsd, aux, spec)
    for i in items:
        votes = [focal[i], aux["x"][i], aux["y"][i]]
        assert full.final[i] == majority_oracle(votes, focal[i])

    taus = [k / 10 for k in range(11)]
    points = sweep(plan, taus, focal, fsd, aux, reference, spec)
    qs = [p.q for p in points]
    assert qs == sorted(qs)

    # focal errs exactly where it is unsure; oracle auxiliaries equal reference
    ref2 = {i: S(int(rng.integers(0, 3))) for i in items}
    focal2, fsd2 = {}, {}
    for idx, item in enumerate(items):
        if idx % 4 == 0:
            focal2[item] = S((ref2[item].index + 1) % 3)
            fsd2[item] = 0.2
        else:
            focal2[item] = ref2[item]
            fsd2[item] = 0.8
    aux2 = {"x": dict(ref2), "y": dict(ref2)}
    perfect = sweep(plan, [0.0, 0.5], focal2, fsd2, aux2, ref2, spec)
    assert perfect[0].kappa < 1.0
    assert perfect[1].kappa == 1.0
    _pass(6, "tau=0 identity, tau=1 matches vote oracle, q monotone, "
             "kappa=1 at tau=0.5 with oracle auxiliaries")


# 7 ---------------------------------------------------------------------------

def logit(p):
    return math.log(p / (1.0 - p))


def acceptance_matrix(baseline="m0"):
    matches = np.array([
        [1, 1, 1],
        [0, 1, 0],
        [1, 1, 1],
        [0, 1, 0],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 0],
        [0, 1, 0],
        [1, 1, 1],
        [0, 0, 1],
    ], dtype=float)
    return MatchMatrix(items=tuple(f"i{j}" for j in range(10)),
                       models=("m0", "m1", "m2"), matches=matches,
                       baseline_model=baseline)


def sandwich_oracle(matrix, baseline):
    models = list(matrix.models)
    order = [baseline] + [m for m in models if m != baseline]
    acc = {m: float(np.mean(matrix.matches[:, models.index(m)])) for m in models}
    p = len(order)
    bread_inv = np.zeros((p, p))
    meat = np.zeros((p, p))
    for i in range(len(matrix.items)):
        g = np.zeros(p)
        for col, m in enumerate(order):
            y = matrix.matches[i, models.index(m)]
            mu = acc[m]
            x = np.zeros(p)
            x[0] = 1.0
            if col > 0:
                x[col] = 1.0
            bread_inv += mu * (1.0 - mu) * np.outer(x, x)
            g += (y - mu) * x
        meat += np.outer(g, g)
    bread = np.linalg.inv(bread_inv)
    return bread @ meat @ bread


def test_criterion_7_equivalence_regression():
    rep = fit_equivalence(acceptance_matrix())
    acc = {"m0": 0.5, "m1": 0.8, "m2": 0.6}
    assert abs(rep.intercept - logit(acc["m0"])) <= 1e-6
    for comp in rep.comparisons:
        assert abs(comp.coefficient - (logit(acc[comp.model]) - logit(acc["m0"]))) <= 1e-6

    cov = sandwich_oracle(acceptance_matrix(), "m0")
    want_se = {"m1": math.sqrt(cov[1, 1]), "m2": math.sqrt(cov[2, 2])}
    for comp in rep.comparisons:
        assert abs(comp.se - want_se[comp.model]) <= 1e-8

    alt = fit_equivalence(acceptance_matrix(baseline="m1"))
    assert abs(rep.lr_stat - alt.lr_stat) <= 1e-9

    twin = MatchMatrix(
        items=tuple(f"i{j}" for j in range(10)),
        models=("m0", "m1"),
        matches=np.column_stack([acceptance_matrix().matches[:, 0]] * 2),
        baseline_model="m0",
    )
    twin_rep = fit_equivalence(twin)
    comp = twin_rep.comparisons[0]
    assert comp.coefficient == 0.0
    assert comp.verdict == "equivalent"
    _pass(7, "logit point estimates 1e-6, sandwich SEs 1e-8, "
             "LR baseline-invariant 1e-9, identical columns -> 0/equivalent")


# 8 ---------------------------------------------------------------------------

def mix_maps():
    llm = {f"i{j}": S(j % 3) for j in range(40)}
    expert = {f"i{j}": S(j % 3 if j % 5 else (j + 1) % 3) for j in range(40)}
    crowd = {f"i{j}": S(j % 3 if j % 4 else (j + 2) % 3) for j in range(40)}
    return llm, expert, crowd


def test_criterion_8_sensitivity_endpoints():
    llm, expert, crowd = mix_maps()
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)

    def curve(seed):
        return sensitivity_curve(llm, expert, crowd,
                                 MixConfig(alphas=alphas, replicates=10, seed=seed),
                                 TaskKind.MULTICLASS)

    items = sorted(llm)
    k_expert = kappa_for_kind([llm[i] for i in items], [expert[i] for i in items],
                              TaskKind.MULTICLASS).kappa
    k_crowd = kappa_for_kind([llm[i] for i in items], [crowd[i] for i in items],
                             TaskKind.MULTICLASS).kappa

    first, second, other_seed = curve(7), curve(7), curve(8)
    assert first[0].mean_gap == 0.0 and first[0].lo == 0.0 and first[0].hi == 0.0
    assert first[-1].mean_gap == abs(k_expert - k_crowd)
    assert first[-1].lo == first[-1].hi == first[-1].mean_gap
    assert other_seed[0].mean_gap == first[0].mean_gap
    assert other_seed[-1].mean_gap == first[-1].mean_gap
    for g1, g2 in zip(first, second):
        assert g1.gaps == g2.gaps  # bit-exact reproduction
    assert any(g1.gaps != g2.gaps for g1, g2 in zip(first[1:-1], other_seed[1:-1]))
    _pass(8, "gap(0)=0, gap(1)=|k_expert-k_crowd| seed-independently, "
             "interior curve bit-exact under a fixed seed")


# 9 ---------------------------------------------------------------------------

def run_pipeline(workdir: pathlib.Path) -> dict:
    """annotate x3 -> fsd -> route-sweep -> equivalence, all --replay."""
    workdir.mkdir()
    cache = workdir / "cache.jsonl"
    shutil.copyfile(DATA / "replay_cache.jsonl", cache)
    task = str(DATA / "task.json")
    outs = {}
    for model, prompt in (("focal", "prompt_focal.json"),
                          ("aux1", "prompt_aux.json"),
                          ("aux2", "prompt_aux.json")):
        out = workdir / f"{model}.jsonl"
        code = cli.run(["annotate", "--task", task,
                        "--items", str(DATA / "items.jsonl"),
                        "--endpoint", str(DATA / f"endpoint_{model}.json"),
                        "--prompt", str(DATA / prompt),
                        "--cache", str(cache), "--out", str(out), "--replay"])
        assert code == 0
        outs[model] = out
    assert cli.run(["fsd", "--task", task, "--runs", str(outs["focal"]),
                    "--out", str(workdir / "fsd.jsonl")]) == 0
    assert cli.run(["route-sweep", "--task", task,
                    "--focal", str(outs["focal"]),
                    "--aux", str(outs["aux1"]), "--aux", str(outs["aux2"]),
                    "--reference", str(DATA / "reference.jsonl"),
                    "--out", str(workdir / "sweep")]) == 0
    assert cli.run(["equivalence", "--task", task,
                    "--models", str(outs["focal"]),
                    "--models", str(outs["aux1"]),
                    "--models", str(outs["aux2"]),
                    "--reference", str(DATA / "reference.jsonl"),
                    "--out", str(workdir / "eq")]) == 0
    return {
        p.relative_to(workdir): p.read_bytes()
        for p in workdir.rglob("*")
        if p.is_file() and "manifest" not in p.name
    }


def test_criterion_9_gateway_contracts(tmp_path, monkeypatch):
    guideline = (DATA / "guideline.txt").read_text(encoding="utf-8")
    spec = TaskSpec(task_id="stance", kind=TaskKind.MULTICLASS,
                    label_universe=("support", "oppose", "unclear"))
    layouts = 0
    for strategy in (Strategy.BASE, Strategy.PERSONA, Strategy.COT):
        for placement in (Placement.SYSTEM, Placement.USER):
            cfg = PromptConfig(
                task=spec, guideline_text=guideline, strategy=strategy,
                placement=placement,
                persona_text="You are a careful annotator." if strategy is Strategy.PERSONA else None,
            )
            messages = assemble_prompt(cfg, "it001: some post text")
            joined = "\n<sep>\n".join(m["content"] for m in messages)
            assert joined.count(guideline) == 1
            layouts += 1
    assert layouts == 6

    def no_network(*args, **kwargs):
        raise AssertionError("network call attempted during replay")

    # every connection attempt, by any client library, goes through one of these
    monkeypatch.setattr(socket, "create_connection", no_network)
    monkeypatch.setattr(socket.socket, "connect", no_network)
    start = time.perf_counter()
    first = run_pipeline(tmp_path / "run_a")
    second = run_pipeline(tmp_path / "run_b")
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert set(first) == set(second) and len(first) >= 8
    for rel in first:
        assert first[rel] == second[rel], f"output differs across runs: {rel}"
    # replay must not grow the cache
    assert first[pathlib.Path("cache.jsonl")] == (DATA / "replay_cache.jsonl").read_bytes()

    report = json.loads(first[pathlib.Path("eq") / "report.json"])
    assert report["n_items"] == 24 and not report["separation_flag"]
    _pass(9, f"6 layouts verbatim; replay pipeline byte-identical twice, "
             f"no network, {elapsed:.1f}s")
