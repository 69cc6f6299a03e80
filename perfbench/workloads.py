"""Seeded synthetic inputs for the benchmark workloads, and the subcommands one pass runs.

Every workload has the same sources: a 5-run focal model, two 1-run auxiliary
models, three experts, five crowd workers and one LLM label file (16 records
per item), two simulator configs, and an `annotate` setup (items, endpoint and
prompt configs, a 90%-warm response cache).  Workloads differ in task kind and
in where the sizes put the work; see WORKLOADS.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

from mock_endpoint import answer

MULTICLASS_LABELS = ("positive", "negative", "neutral")
MULTILABEL_LABELS = ("economy", "health", "crime", "education", "environment", "culture")
N_RUNS = 5
N_EXPERTS = 3
N_CROWD = 5
WARM_SHARE = 0.9
COUPLING_SWEEP = "0,0.1,0.2,0.3,0.4,0.5"


@dataclass(frozen=True)
class Workload:
    name: str
    multilabel: bool
    items: int            # items in the analysis inputs
    annotate_items: int   # items sent through `annotate`, 5 samples each
    sim_samples: int      # Monte Carlo draws per simulate() call


WORKLOADS = {
    w.name: w for w in (
        # the analyst's main path: ingest, single-label kappa, and a 2k-item
        # annotate whose cache load, replay and HTTP fill weigh as much as one analysis
        Workload("single-1k", False, 1000, 2000, 100_000),
        # set-weighted kappa over all 63 label sets, multilabel votes, and the
        # same 2k-item annotate parsing label sets
        Workload("multilabel-500", True, 500, 2000, 100_000),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload at a size that runs in about a second, for the smoke test."""
    return Workload(w.name, w.multilabel, 60, 40, 2_000)


def labels_of(w: Workload) -> tuple[str, ...]:
    return MULTILABEL_LABELS if w.multilabel else MULTICLASS_LABELS


class _Labeler:
    """Draws noisy copies of latent true labels, as category-name lists."""

    def __init__(self, rng: np.random.Generator, w: Workload):
        self.rng = rng
        self.names = labels_of(w)
        self.multilabel = w.multilabel
        k = len(self.names)
        if self.multilabel:
            truth = rng.random((w.items, k)) < 0.3
            # every non-empty set is some item's truth, so the number of observed
            # sets, which the set-weighted kappa's cost grows with, is seed-independent
            every = (np.arange(1, 2 ** k)[:, None] >> np.arange(k) & 1).astype(bool)
            m = min(len(every), w.items)
            truth[:m] = every[:m]
            empty = ~truth.any(axis=1)
            truth[empty, rng.integers(0, k, size=int(empty.sum()))] = True
        else:
            truth = rng.choice(k, size=w.items, p=[0.5, 0.3, 0.2])
        self.truth = truth
        # per-item difficulty spreads the focal model's run agreement (FSD)
        self.difficulty = rng.beta(1.2, 4.0, size=w.items)

    def draw(self, error: np.ndarray | float) -> list[list[str]]:
        rng, k = self.rng, len(self.names)
        n = len(self.truth)
        error = np.broadcast_to(np.asarray(error, dtype=float), (n,))
        if self.multilabel:
            flips = rng.random((n, k)) < (error[:, None] / 2)
            sets = self.truth ^ flips
            empty = ~sets.any(axis=1)
            sets[empty] = self.truth[empty]
            return [[self.names[j] for j in np.flatnonzero(row)] for row in sets]
        wrong = rng.random(n) < error
        labels = np.where(wrong, (self.truth + rng.integers(1, k, size=n)) % k, self.truth)
        return [[self.names[j]] for j in labels]


def _write_records(path: str, sources: list[tuple[str, str, int, list[list[str]]]]) -> None:
    """sources: (role, name, run, labels per item), written item-major within each source."""
    with open(path, "w", encoding="utf-8") as fh:
        for role, name, run, labels in sources:
            src = {"role": role, "name": name}
            for i, names in enumerate(labels):
                fh.write(json.dumps({"item_id": f"it{i:06d}", "source": src, "run": run,
                                     "labels": names}, sort_keys=True) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


_VOCAB = ("the", "council", "budget", "plan", "school", "clinic", "river", "tax",
          "bus", "park", "police", "museum", "jobs", "vote", "levy", "housing",
          "rent", "funding", "report", "delay", "cost", "city", "state", "road")


def _item_text(i: int, rng: np.random.Generator) -> str:
    words = " ".join(_VOCAB[j] for j in rng.integers(0, len(_VOCAB), size=24))
    return f"post {i:06d}: {words}."

GUIDELINE = ("Label the topic(s) the post is about. Use the most specific label that "
             "applies; a post that touches no listed topic gets the closest one.\n")


def make_inputs(w: Workload, seed: int, root: str, api_key_env: str) -> dict:
    """Write every input of workload `w` for `seed` under `root`; return the paths."""
    from silicon.core import TaskKind, TaskSpec
    from silicon.gateway import (AnnotationCache, ScriptedTransport, annotate,
                                 load_endpoint, load_prompt_config)

    if os.path.exists(root):
        shutil.rmtree(root)
    os.makedirs(root)
    p = {name: os.path.join(root, name) for name in (
        "task.json", "focal.jsonl", "aux1.jsonl", "aux2.jsonl", "expert.jsonl",
        "crowd.jsonl", "llm.jsonl", "sim.json", "sim_variant.json", "items.jsonl",
        "endpoint.json", "prompt.json", "guideline.txt", "warm_cache.jsonl")}
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    labels = labels_of(w)
    spec = TaskSpec(task_id=f"bench-{w.name}",
                    kind=TaskKind.MULTILABEL if w.multilabel else TaskKind.MULTICLASS,
                    label_universe=labels, agreement_threshold=0.6)
    _write_json(p["task.json"], spec.to_json())

    lab = _Labeler(rng, w)
    _write_records(p["focal.jsonl"], [("model", "focal", r, lab.draw(lab.difficulty))
                                      for r in range(N_RUNS)])
    _write_records(p["aux1.jsonl"], [("model", "aux-a", 0, lab.draw(0.25))])
    _write_records(p["aux2.jsonl"], [("model", "aux-b", 0, lab.draw(0.3))])
    _write_records(p["expert.jsonl"], [("expert", f"expert-{j + 1}", 0, lab.draw(0.1))
                                       for j in range(N_EXPERTS)])
    _write_records(p["crowd.jsonl"], [("crowd", f"crowd-{j + 1}", 0, lab.draw(0.25))
                                      for j in range(N_CROWD)])
    _write_records(p["llm.jsonl"], [("model", "llm", 0, lab.draw(0.2))])

    k = 3
    conf = rng.dirichlet([1.0] * k, size=k) * 0.3 + np.eye(k) * 0.7
    sim = {"n_classes": k, "priors": [0.5, 0.3, 0.2], "error_rate": 0.15,
           "llm_confusion": (conf / conf.sum(axis=1, keepdims=True)).tolist(),
           "coupling": 0.0, "n_samples": w.sim_samples, "seed": int(rng.integers(2**31))}
    _write_json(p["sim.json"], sim)
    _write_json(p["sim_variant.json"], {**sim, "coupling": 0.3})

    items = [(f"it{i:06d}", _item_text(i, rng)) for i in range(w.annotate_items)]
    with open(p["items.jsonl"], "w", encoding="utf-8") as fh:
        for item_id, text in items:
            fh.write(json.dumps({"item_id": item_id, "text": text}) + "\n")
    with open(p["guideline.txt"], "w", encoding="utf-8") as fh:
        fh.write(GUIDELINE)
    _write_json(p["prompt.json"], {"guideline_file": "guideline.txt", "n_samples": N_RUNS,
                                   "placement": "system", "strategy": "base",
                                   "temperature": 0.7})
    _write_json(p["endpoint.json"], {
        "name": "mock-llm", "base_url": "http://127.0.0.1:1", "api_key_env": api_key_env,
        "max_in_flight": min(2, len(os.sched_getaffinity(0))), "supports_n": True,
        "timeout": 30.0, "retry": {"max_attempts": 2, "backoff": []}})

    # whole items are missing, so the endpoint's choice index equals the sample index
    warm = sorted(rng.choice(len(items), size=round(WARM_SHARE * len(items)), replace=False))
    script = ScriptedTransport(
        lambda messages, call, choice: answer(messages[-1]["content"], choice, labels,
                                              w.multilabel))
    annotate(load_endpoint(p["endpoint.json"]), load_prompt_config(p["prompt.json"], spec),
             [items[i] for i in warm], AnnotationCache(p["warm_cache.jsonl"]),
             transport=script, replay=False)
    p["missing_items"] = len(items) - len(warm)
    return p


def set_endpoint_port(paths: dict, port: int) -> None:
    with open(paths["endpoint.json"], encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg["base_url"] = f"http://127.0.0.1:{port}"
    _write_json(paths["endpoint.json"], cfg)


def pass_commands(p: dict, out: str) -> list[tuple[str, list[str]]]:
    """(metric name, `silicon` argv) for every timed subcommand of one pass, in order."""
    task = ["--task", p["task.json"]]
    annotate = ["annotate", *task, "--items", p["items.jsonl"], "--endpoint",
                p["endpoint.json"], "--prompt", p["prompt.json"], "--cache",
                os.path.join(out, "cache.jsonl")]
    return [
        ("agreement_s", ["agreement", *task, "--a", p["expert.jsonl"], "--b", p["crowd.jsonl"],
                         "--out", os.path.join(out, "agreement.json")]),
        ("baseline_compare_s", ["baseline-compare", *task, "--expert", p["expert.jsonl"],
                                "--crowd", p["crowd.jsonl"],
                                "--out", os.path.join(out, "compare.json")]),
        ("fsd_s", ["fsd", *task, "--runs", p["focal.jsonl"],
                   "--out", os.path.join(out, "fsd.jsonl")]),
        ("route_sweep_s", ["route-sweep", *task, "--focal", p["focal.jsonl"],
                           "--aux", p["aux1.jsonl"], "--aux", p["aux2.jsonl"],
                           "--reference", p["expert.jsonl"],
                           "--out", os.path.join(out, "sweep")]),
        ("equivalence_s", ["equivalence", *task, "--models", p["focal.jsonl"],
                           "--models", p["aux1.jsonl"], "--models", p["aux2.jsonl"],
                           "--reference", p["expert.jsonl"],
                           "--out", os.path.join(out, "equivalence")]),
        ("mix_sensitivity_s", ["mix-sensitivity", *task, "--llm", p["llm.jsonl"],
                               "--expert", p["expert.jsonl"], "--crowd", p["crowd.jsonl"],
                               "--out", os.path.join(out, "mix")]),
        ("simulate_s", ["simulate", "--config", p["sim.json"],
                        "--sweep-coupling", COUPLING_SWEEP,
                        "--contrast", p["sim_variant.json"],
                        "--out", os.path.join(out, "simulate")]),
        ("annotate_fill_s", [*annotate, "--out", os.path.join(out, "fill.jsonl")]),
        ("annotate_replay_s", [*annotate, "--replay", "--out", os.path.join(out, "replay.jsonl")]),
    ]
