"""Majority votes: the vote kernel against the frozen per-item vote, and the
reports of the commands that vote, pinned byte for byte.

`core._vote` votes every row of a code matrix at once; `majority_vote`,
`majority_reference` and `routing.route` go through it.  vote_oracle.py holds
the per-item `majority_vote` and per-tuple `majority_reference` it replaced.
Results, error texts and which row's error is raised must agree over every
tie rule, with and without a seed and a focal label, single-label and
multilabel tasks of 2 to 10 categories, and even, odd and missing voters.

The benchmark's workloads have 3 experts and 5 crowd workers, so their
references never see an exact-half multilabel tie, and route-sweep there
only runs the keep-focal rule.  The cases below have 2 and 4 voters, some
voters missing, and every route-sweep tie rule; each output's sha256 (or the
exit code and message) was recorded from the per-item `majority_vote` path.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from silicon import cli, core
from silicon.core import (
    Dataset,
    LabelValue,
    Role,
    SourceId,
    TaskKind,
    TaskSpec,
    TieRule,
    ValidationError,
    majority_reference,
    majority_vote,
)
from vote_oracle import oracle_majority_reference, oracle_majority_vote

TIE_RULES = pytest.mark.parametrize("tie_rule", list(TieRule), ids=[r.value for r in TieRule])
SEEDS = pytest.mark.parametrize("seed", [11, None], ids=["seed", "no-seed"])
MULTI = pytest.mark.parametrize("multilabel", [False, True], ids=["single", "multilabel"])


def outcome(fn, *args, **kwargs):
    """('ok', result) or ('error', exception type, message)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except ValidationError as exc:
        return ("error", type(exc), str(exc))


def task(rng, k, multilabel):
    if multilabel:
        kind = TaskKind.MULTILABEL
    else:  # a two-label single-label task is binary or multiclass
        kind = TaskKind.BINARY if k == 2 and rng.random() < 0.5 else TaskKind.MULTICLASS
    return TaskSpec(task_id="t", kind=kind, label_universe=tuple(f"l{j}" for j in range(k)))


def draw_label(rng, spec):
    k = spec.n_categories
    if spec.kind is TaskKind.MULTILABEL:
        return LabelValue.of(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
    return LabelValue.single(int(rng.integers(k)))


def pool(rng, spec):
    """A few labels to vote from, so that counts tie often."""
    return [draw_label(rng, spec) for _ in range(int(rng.integers(1, 4)))]


def pick(rng, labels):
    return labels[int(rng.integers(len(labels)))]


class TestKernel:
    @MULTI
    @TIE_RULES
    @SEEDS
    def test_majority_vote_matches_the_oracle(self, multilabel, tie_rule, seed):
        rng = np.random.default_rng([21, multilabel, list(TieRule).index(tie_rule)])
        outcomes = set()
        for k in range(2, 11):
            for case in range(60):
                spec = task(rng, k, multilabel)
                labels = pool(rng, spec)
                votes = [pick(rng, labels) for _ in range(int(rng.integers(1, 9)))]
                if case % 15 == 14:  # a label outside the task, or a set in a single-label one
                    votes[int(rng.integers(len(votes)))] = LabelValue((0, k) if case % 2
                                                                      else (k,))
                focal = pick(rng, labels + [draw_label(rng, spec)]) if case % 3 else None
                got = outcome(majority_vote, votes, spec, tie_rule, seed, focal)
                want = outcome(oracle_majority_vote, votes, spec, tie_rule, seed, focal)
                assert got == want, (votes, focal)
                outcomes.add(got[0] if got[0] == "ok" else got[2].split(":")[0])
        assert "ok" in outcomes and len(outcomes) > 1

    @MULTI
    def test_every_vote_size_and_draw(self, multilabel):
        """Every count of exact-half categories and of tied candidates, with
        seeds whose draws differ."""
        rng = np.random.default_rng(22)
        for k in range(2, 11):
            spec = task(rng, k, multilabel)
            for n in range(1, 2 * k + 1):
                votes = [LabelValue.single(j % k) for j in range(n)]
                if multilabel:
                    votes = [LabelValue.of(set(v.indices) | {(j + 1) % k})
                             for j, v in enumerate(votes)]
                for seed in range(6):
                    for tie_rule in TieRule:
                        focal = votes[seed % n]
                        assert (outcome(majority_vote, votes, spec, tie_rule, seed, focal)
                                == outcome(oracle_majority_vote, votes, spec, tie_rule, seed,
                                           focal))

    def test_coin_flips_in_one_draw_match_scalar_draws(self):
        """_vote draws a row's m exact-half coin flips in one integers(2, size=m)
        call; the oracle draws them one integers(2) call at a time."""
        sizes = [*range(1, 65), 100, 255, 256, 257, 999, 1000]
        for seed in range(50):
            rng = core._rng_from_seed(seed)
            scalar = [int(rng.integers(2)) for _ in range(max(sizes))]
            for m in sizes:
                flips = core._rng_from_seed(seed).integers(2, size=m)
                assert flips.tolist() == scalar[:m], (seed, m)

    def test_empty_and_focal_less_votes_are_errors(self):
        spec = TaskSpec(task_id="t", kind=TaskKind.MULTICLASS, label_universe=("a", "b"))
        a = LabelValue.single(0)
        for args in (([], spec), ([a], spec, TieRule.KEEP_FOCAL)):
            assert outcome(majority_vote, *args) == outcome(oracle_majority_vote, *args)

    def test_no_per_item_vote(self, monkeypatch):
        """majority_reference votes every item in one kernel call (route's
        test is in test_analysis_oracles.py)."""
        calls = []

        def counting_vote(codes, *args, **kwargs):
            calls.append(len(codes))
            return vote(codes, *args, **kwargs)

        def no_vote(*args, **kwargs):
            raise AssertionError("majority_vote called")

        vote = core._vote
        monkeypatch.setattr(core, "_vote", counting_vote)
        monkeypatch.setattr(core, "majority_vote", no_vote)
        rng = np.random.default_rng(23)
        ds = vote_dataset(rng, task(rng, 4, True), n_items=30)
        got = majority_reference(ds, tie_rule=TieRule.RANDOM_SEEDED, seed=1)
        assert got == oracle_majority_reference(ds, tie_rule=TieRule.RANDOM_SEEDED, seed=1)
        assert calls == [len(got)]


def vote_dataset(rng, spec, n_items=None):
    """Two to six sources of two roles, each skipping some items; some labels
    only at run 1, so a few items have no vote at all."""
    sources = [SourceId(Role.EXPERT if j % 2 else Role.CROWD, f"s{j}")
               for j in range(int(rng.integers(2, 7)))]
    rows = []
    for item in range(n_items or int(rng.integers(1, 30))):
        labels = pool(rng, spec)
        for source in sources:
            if rng.random() < 0.75:
                rows.append((f"i{item}", source, pick(rng, labels), int(rng.random() < 0.1)))
    return Dataset.from_rows(spec, [rows[j] for j in rng.permutation(len(rows))])


class TestMajorityReference:
    @MULTI
    @TIE_RULES
    @SEEDS
    def test_matches_the_oracle(self, multilabel, tie_rule, seed):
        rng = np.random.default_rng([31, multilabel, list(TieRule).index(tie_rule)])
        oks = 0
        for k in range(2, 11):
            for _ in range(12):
                ds = vote_dataset(rng, task(rng, k, multilabel))
                for role in (None, Role.EXPERT):
                    got = outcome(majority_reference, ds, role, tie_rule, seed)
                    want = outcome(oracle_majority_reference, ds, role, tie_rule, seed)
                    assert got == want
                    if got[0] == "ok":
                        oks += 1
                        assert list(got[1]) == list(want[1])
        assert (oks > 0) is (tie_rule is not TieRule.KEEP_FOCAL)  # keep-focal has no focal

    @pytest.mark.parametrize("i1, i2, message", [
        ("b c", "a b c", "per-category ties at exactly half: [1, 2]"),
        ("a b d", "b c", "unresolved tie among max-count categories: [0, 1, 3]"),
    ])
    def test_error_names_the_first_tied_item(self, i1, i2, message):
        """i0 is settled; i1 and i2 each tie, and i1's error is raised."""
        spec = TaskSpec(task_id="t", kind=TaskKind.MULTILABEL,
                        label_universe=("a", "b", "c", "d"))
        rows = [(item, SourceId(Role.EXPERT, f"s{j}"), LabelValue.from_names([name], spec), 0)
                for item, names in (("i0", "a a"), ("i1", i1), ("i2", i2))
                for j, name in enumerate(names.split())]
        ds = Dataset.from_rows(spec, rows)
        for fn in (majority_reference, oracle_majority_reference):
            with pytest.raises(ValidationError) as exc:
                fn(ds, tie_rule=TieRule.ERROR)
            assert str(exc.value) == message

    def test_no_votes_at_run_0(self):
        spec = TaskSpec(task_id="t", kind=TaskKind.MULTICLASS, label_universe=("a", "b"))
        ds = Dataset.from_rows(spec, [("i", SourceId(Role.EXPERT, "x"), LabelValue((0,)), 1)])
        for tie_rule in TieRule:
            assert majority_reference(ds, tie_rule=tie_rule) == {}
            assert oracle_majority_reference(ds, tie_rule=tie_rule) == {}


LABELS = {"multiclass": ("a", "b", "c"), "multilabel": ("a", "b", "c", "d")}
KINDS = pytest.mark.parametrize("kind", list(LABELS))


def write_task(tmp_path, kind):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"task_id": "votes", "kind": kind,
                                "labels": list(LABELS[kind])}), encoding="utf-8")
    return str(path)


def random_label(rng, kind, truth):
    """The item's true label half the time, else a random one; multilabel
    labels are non-empty subsets."""
    names = LABELS[kind]
    if rng.random() < 0.5:
        return truth
    if kind == "multiclass":
        return [names[rng.randrange(len(names))]]
    picked = [name for name in names if rng.random() < 0.4]
    return picked or [names[rng.randrange(len(names))]]


def write_source_file(path, rng, kind, role, names, truths, runs=1, missing=0.0):
    """One record per item, source and run; a source skips an item with
    probability `missing` (never all of them)."""
    with open(path, "w", encoding="utf-8") as fh:
        for item, truth in truths.items():
            skip = rng.randrange(len(names)) if rng.random() < missing else None
            for k, name in enumerate(names):
                if k == skip:
                    continue
                for run in range(runs):
                    fh.write(json.dumps({
                        "item_id": item, "source": {"role": role, "name": name},
                        "run": run, "labels": random_label(rng, kind, truth),
                    }) + "\n")
    return str(path)


def truths(rng, kind, n=40):
    return {f"i{k:02d}": random_label(rng, kind, [LABELS[kind][k % len(LABELS[kind])]])
            for k in range(n)}


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(out.iterdir()) if p.name != "manifest.json"}


PINNED = {  # case -> {output file: sha256 prefix}
    "equivalence-multiclass-2":
        {"forest.csv": "27728dc19c6250e3", "report.json": "5be239506528c911"},
    "equivalence-multiclass-4":
        {"forest.csv": "ce3337fd9682e375", "report.json": "acf0c3ae80169a63"},
    "equivalence-multilabel-2":
        {"forest.csv": "94434af0793a908c", "report.json": "3682c6e7b374c527"},
    "equivalence-multilabel-4":
        {"forest.csv": "1477095c01ccd5b3", "report.json": "fa998fa08f5aacd4"},
    "mix-sensitivity-multiclass-2":
        {"curve.csv": "38b6928666fa5d48", "report.json": "a699497f118b966b"},
    "mix-sensitivity-multiclass-4":
        {"curve.csv": "f2fb0e50dc3aa9e4", "report.json": "b083ed371b024bf4"},
    "mix-sensitivity-multilabel-2":
        {"curve.csv": "41c0db559faa88c7", "report.json": "14187aea9d69c2ac"},
    "mix-sensitivity-multilabel-4":
        {"curve.csv": "8eed17d7f9a065ac", "report.json": "00680ade925a8d79"},
    "route-sweep-multiclass-1-keep-focal":
        {"report.json": "c5319614120811f8", "sweep.csv": "4f38ad7f9491d184"},
    "route-sweep-multiclass-1-lowest-index":
        {"report.json": "e376818b4316d92b", "sweep.csv": "f022635cb7dd9703"},
    "route-sweep-multiclass-1-random-seeded":
        {"report.json": "d118df206cb340e6", "sweep.csv": "cf263690b52a3b97"},
    "route-sweep-multiclass-2-keep-focal":
        {"report.json": "af5c47f1cfa1c87f", "sweep.csv": "7dd69419aceca568"},
    "route-sweep-multiclass-2-lowest-index":
        {"report.json": "a53c0bf318cfb01b", "sweep.csv": "380948031f868830"},
    "route-sweep-multiclass-2-random-seeded":
        {"report.json": "6539ad2ea042a2fc", "sweep.csv": "0410c02efae10432"},
    "route-sweep-multiclass-3-keep-focal":
        {"report.json": "64f5f4a294a736fa", "sweep.csv": "1a71131a995f17f2"},
    "route-sweep-multiclass-3-lowest-index":
        {"report.json": "00af395936b009af", "sweep.csv": "04c1d76df90179d2"},
    "route-sweep-multiclass-3-random-seeded":
        {"report.json": "d4fad16905c11a4b", "sweep.csv": "62f90e6fe6fe0128"},
    "route-sweep-multilabel-1-keep-focal":
        {"report.json": "e395db8696fb08a7", "sweep.csv": "6216740bcaf922cb"},
    "route-sweep-multilabel-1-lowest-index":
        {"report.json": "37577fe532cd142f", "sweep.csv": "0a070e6f1cbf0a15"},
    "route-sweep-multilabel-1-random-seeded":
        {"report.json": "cc9576a4eaea579c", "sweep.csv": "0455986a4eca6076"},
    "route-sweep-multilabel-2-keep-focal":
        {"report.json": "a8392a6bb8402ced", "sweep.csv": "22a73b547a0e8e19"},
    "route-sweep-multilabel-2-lowest-index":
        {"report.json": "09de87b7a440ffc4", "sweep.csv": "60afadfa1eb0c090"},
    "route-sweep-multilabel-2-random-seeded":
        {"report.json": "f0ca4c974424d7d8", "sweep.csv": "9fa58797f6df8d21"},
    "route-sweep-multilabel-3-keep-focal":
        {"report.json": "cfed0d619b146a26", "sweep.csv": "5868deb83f066d32"},
    "route-sweep-multilabel-3-lowest-index":
        {"report.json": "ac0908528109c8bf", "sweep.csv": "c2aff7550b50244d"},
    "route-sweep-multilabel-3-random-seeded":
        {"report.json": "40a44f0f71115507", "sweep.csv": "b8b75a295228e2d1"},
}


class TestPinnedReports:
    @KINDS
    @pytest.mark.parametrize("voters", [2, 4])
    def test_equivalence(self, tmp_path, kind, voters):
        rng = random.Random(f"equivalence-{kind}-{voters}")
        truth = truths(rng, kind)
        task = write_task(tmp_path, kind)
        reference = write_source_file(tmp_path / "ref.jsonl", rng, kind, "expert",
                                      [f"e{k}" for k in range(voters)], truth, missing=0.3)
        argv = ["equivalence", "--task", task, "--reference", reference,
                "--out", str(tmp_path / "out")]
        for name in ("m1", "m2", "m3"):
            argv += ["--models", write_source_file(tmp_path / f"{name}.jsonl", rng, kind,
                                                   "model", [name], truth)]
        assert cli.run(argv) == 0
        assert digests(tmp_path / "out") == PINNED[f"equivalence-{kind}-{voters}"]

    @KINDS
    @pytest.mark.parametrize("voters", [2, 4])
    def test_mix_sensitivity(self, tmp_path, kind, voters):
        rng = random.Random(f"mix-sensitivity-{kind}-{voters}")
        truth = truths(rng, kind)
        task = write_task(tmp_path, kind)
        llm = write_source_file(tmp_path / "llm.jsonl", rng, kind, "model", ["m1"], truth)
        expert = write_source_file(tmp_path / "expert.jsonl", rng, kind, "expert",
                                   [f"e{k}" for k in range(voters)], truth, missing=0.3)
        crowd = write_source_file(tmp_path / "crowd.jsonl", rng, kind, "crowd",
                                  [f"c{k}" for k in range(voters)], truth, missing=0.3)
        assert cli.run(["mix-sensitivity", "--task", task, "--llm", llm, "--expert", expert,
                        "--crowd", crowd, "--replicates", "5", "--seed", "3",
                        "--out", str(tmp_path / "out")]) == 0
        assert digests(tmp_path / "out") == PINNED[f"mix-sensitivity-{kind}-{voters}"]

    def route_sweep(self, tmp_path, kind, n_aux, tie_rule):
        rng = random.Random(f"route-sweep-{kind}-{n_aux}")
        truth = truths(rng, kind)
        task = write_task(tmp_path, kind)
        focal = write_source_file(tmp_path / "focal.jsonl", rng, kind, "model", ["f"],
                                  truth, runs=4)
        reference = write_source_file(tmp_path / "ref.jsonl", rng, kind, "expert",
                                      ["e0", "e1", "e2", "e3"], truth, missing=0.3)
        argv = ["route-sweep", "--task", task, "--focal", focal, "--reference", reference,
                "--tie-rule", tie_rule, "--seed", "5", "--out", str(tmp_path / "out")]
        for k in range(n_aux):
            argv += ["--aux", write_source_file(tmp_path / f"aux{k}.jsonl", rng, kind,
                                                "model", [f"x{k}"], truth)]
        return cli.run(argv)

    @KINDS
    @pytest.mark.parametrize("n_aux", [1, 2, 3])
    @pytest.mark.parametrize("tie_rule", ["lowest-index", "random-seeded", "keep-focal"])
    def test_route_sweep(self, tmp_path, kind, n_aux, tie_rule):
        assert self.route_sweep(tmp_path, kind, n_aux, tie_rule) == 0
        assert digests(tmp_path / "out") == PINNED[f"route-sweep-{kind}-{n_aux}-{tie_rule}"]

    @pytest.mark.parametrize("kind, n_aux, message", [
        ("multiclass", 1, "unresolved tie among modal labels: [0, 1]"),
        ("multiclass", 2, "unresolved tie among modal labels: [0, 1, 2]"),
        ("multiclass", 3, "unresolved tie among modal labels: [0, 2]"),
        ("multilabel", 1, "per-category ties at exactly half: [1]"),
        ("multilabel", 2, "unresolved tie among max-count categories: [0, 2, 3]"),
        ("multilabel", 3, "per-category ties at exactly half: [1]"),
    ])
    def test_route_sweep_error_ties(self, tmp_path, capsys, kind, n_aux, message):
        assert self.route_sweep(tmp_path, kind, n_aux, "error") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()
