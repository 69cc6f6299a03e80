"""Regenerate the offline replay fixture under tests/data/.

The fixture is a small stance-labeling task: 24 posts, one expert reference,
and three mock models (a 5-sample focal model plus two single-sample
auxiliaries) whose scripted responses are recorded into a replay cache.  Tests
and the acceptance suite then drive the real CLI pipeline
(annotate -> fsd -> route-sweep -> equivalence) from that cache with the
network disabled.

Run from the repository root:

    PYTHONPATH=src python tools/make_replay_fixture.py

The cache is written with one request in flight, so its lines come in the
order the items are listed and a rerun reproduces the committed bytes.  CI
regenerates the fixture and fails if `git diff tests/data` is not empty.
"""

import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import silicon.gateway as gateway
from silicon.core import (
    AnnotationRecord,
    Dataset,
    LabelValue,
    Role,
    SourceId,
    TaskKind,
    TaskSpec,
    save_dataset,
)
from silicon.gateway import AnnotationCache, ScriptedTransport, annotate, load_endpoint, load_prompt_config

DATA = Path(__file__).resolve().parent.parent / "tests" / "data"

LABELS = ("support", "oppose", "unclear")

SPEC = TaskSpec(
    task_id="stance-pilot",
    kind=TaskKind.MULTICLASS,
    label_universe=LABELS,
    agreement_threshold=0.7,
)

GUIDELINE = """Label the stance the post takes toward the proposal it discusses.

support: the author argues in favor of the proposal, even with reservations.
oppose: the author argues against the proposal or mocks it.
unclear: the stance cannot be determined from the text alone.

Quoting another person's view does not change the author's own stance.
Sarcasm counts as the stance it conveys, not its literal wording.
"""

BODIES = [
    "Finally someone put the transit levy on the ballot. About time.",
    "The levy numbers do not add up and nobody will say why.",
    "I read the levy text twice and I still cannot tell what it funds.",
    "Vote it down. We were promised audits last time and got none.",
    "My street floods every winter; the drainage bond cannot pass soon enough.",
    "Another bond, another decade of orange cones. No thanks.",
    "Hard to have an opinion when the council keeps changing the figures.",
    "The library annex plan is the best thing on this ballot.",
    "Sure, let's pay twice for the same annex. Brilliant as always.",
    "Whatever happens with the annex, my kids just want the study rooms.",
    "The bike lane pilot made my commute safer within a week.",
    "Those lanes sat empty all January, and we paid for the paint.",
    "I keep hearing both sides about the lanes and honestly both sound right.",
    "Expanding the night bus is the cheapest win this city can buy.",
    "Night buses ran empty in the trial. Scrap the expansion.",
    "The night bus math depends on numbers the agency has not shared.",
    "The stadium deal brings jobs; sign it already.",
    "Public money for a private stadium is a straight giveaway.",
    "The stadium term sheet is forty pages of maybes.",
    "Rank the school retrofit first; everything else can wait a cycle.",
    "Retrofit costs tripled since the estimate. Pull the plug.",
    "Has anyone actually seen the retrofit engineering report?",
    "The composting rule saved my building money in month one.",
    "The composting rule is fine in theory and a mess in my alley.",
]

FOCAL_WRONG = {3, 7, 11, 15, 19, 23}
AUX1_WRONG = {5, 17}
AUX2_WRONG = {1, 4, 9, 13, 16, 19, 22}
JUNK_ITEM = 6
JUNK_SAMPLE = 2
JUNK_TEXT = "hmm, hard to call this one."


def item_id(i: int) -> str:
    return f"it{i + 1:03d}"


def item_text(i: int) -> str:
    return f"{item_id(i)}: {BODIES[i]}"


def wrong_label(right: int, i: int) -> int:
    others = [x for x in range(3) if x != right]
    return others[i % 2]


def focal_samples(i: int, majority: int) -> list:
    """Per-sample label indices (None marks the injected junk response)."""
    o1 = (majority + 1) % 3
    o2 = (majority + 2) % 3
    if i == JUNK_ITEM:
        plan = [majority, o1, majority, majority, majority]
        plan[JUNK_SAMPLE] = None
        return plan
    if i in FOCAL_WRONG:
        return [majority, o1, majority, o1, majority]
    if i % 5 == 0:
        return [majority, majority, o1, majority, majority]
    if i % 7 == 2:
        return [majority, o1, majority, o2, majority]
    return [majority] * 5


def focal_text(i: int, sample: int, label: int | None) -> str:
    if label is None:
        return JUNK_TEXT
    name = LABELS[label]
    style = (i + sample) % 3
    if style == 0:
        return name
    if style == 1:
        return f"labels: [{name}]"
    return f"I would call this one {name}."


def aux_text(label: int) -> str:
    return f"Reasoning: the writer's stance is evident from the second clause.\n{LABELS[label]}"


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.Philox(20260815))
    reference = [int(rng.integers(0, 3)) for _ in range(len(BODIES))]

    (DATA / "task.json").write_text(
        json.dumps(SPEC.to_json(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (DATA / "guideline.txt").write_text(GUIDELINE, encoding="utf-8")
    with open(DATA / "items.jsonl", "w", encoding="utf-8") as fh:
        for i in range(len(BODIES)):
            fh.write(json.dumps({"item_id": item_id(i), "text": item_text(i)}) + "\n")

    ref_records = tuple(
        AnnotationRecord(
            item_id=item_id(i),
            source=SourceId(role=Role.EXPERT, name="exp-ref"),
            labels=LabelValue.single(reference[i]),
        )
        for i in range(len(BODIES))
    )
    save_dataset(Dataset(spec=SPEC, records=ref_records), DATA / "reference.jsonl")

    for name in ("focal", "aux1", "aux2"):
        (DATA / f"endpoint_{name}.json").write_text(
            json.dumps({
                "name": f"mock-{name}",
                "base_url": "http://replay.invalid",
                "api_key_env": "SILICON_MOCK_KEY",
                "supports_n": True,
                "timeout": 10.0,
                "retry": {"max_attempts": 1, "backoff": []},
            }, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    (DATA / "prompt_focal.json").write_text(
        json.dumps({
            "guideline_file": "guideline.txt",
            "strategy": "base",
            "placement": "system",
            "temperature": 0.7,
            "n_samples": 5,
        }, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (DATA / "prompt_aux.json").write_text(
        json.dumps({
            "guideline_file": "guideline.txt",
            "strategy": "cot",
            "placement": "user",
            "temperature": 0.0,
            "n_samples": 1,
        }, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

    # response table keyed (model, item index, sample index)
    table = {}
    for i, right in enumerate(reference):
        focal_major = wrong_label(right, i) if i in FOCAL_WRONG else right
        for s, lab in enumerate(focal_samples(i, focal_major)):
            table[("mock-focal", i, s)] = focal_text(i, s, lab)
        a1 = wrong_label(right, i) if i in AUX1_WRONG else right
        a2 = wrong_label(right, i + 1) if i in AUX2_WRONG else right
        table[("mock-aux1", i, 0)] = aux_text(a1)
        table[("mock-aux2", i, 0)] = aux_text(a2)

    texts = {item_text(i): i for i in range(len(BODIES))}

    def transport_for(model: str) -> ScriptedTransport:
        def script(messages, call_index, choice_index):
            content = messages[-1]["content"]
            hits = [i for text, i in texts.items() if content.endswith(text)]
            assert len(hits) == 1, f"cannot place prompt for {model}"
            return table[(model, hits[0], choice_index)]

        return ScriptedTransport(script)

    gateway._now = lambda: "2026-08-15T00:00:00+00:00"  # stable fixture bytes
    cache_path = DATA / "replay_cache.jsonl"
    if cache_path.exists():
        os.remove(cache_path)
    cache = AnnotationCache(cache_path)
    items = [(item_id(i), item_text(i)) for i in range(len(BODIES))]
    for model, prompt in (("focal", "prompt_focal.json"),
                          ("aux1", "prompt_aux.json"),
                          ("aux2", "prompt_aux.json")):
        # cache lines are written as responses arrive: one in flight keeps their order
        endpoint = replace(load_endpoint(DATA / f"endpoint_{model}.json"), max_in_flight=1)
        cfg = load_prompt_config(DATA / prompt, SPEC)
        annotate(endpoint, cfg, items, cache, transport=transport_for(f"mock-{model}"))

    n_entries = len(cache)
    print(f"wrote {DATA} ({n_entries} cached responses)")


if __name__ == "__main__":
    main()
