#!/usr/bin/env python3
"""Wall time of `annotate` filling a fresh response cache.

Run from anywhere:

    python3 tools/fill_probe.py [--items 1800]

Each run annotates --items items, 5 samples each, through a
`ScriptedTransport` whose reply is a deterministic function of the item text
and the choice index, into a cache file that does not exist yet, so every
sample is fetched, parsed and appended.  It prints the median wall time (and
the range) over 5 runs each with one, two and four workers, alternated.  The
default size is the benchmark set-up's warm-cache fill (1,800 items x 5
samples, two workers); the set-up itself is not traced, so this stands in for
a trace of it.  After every fill the probe reloads the cache and checks that
it holds one line per (item, sample), each with the scripted reply.  The
probe ends with one untimed fill of --items items that repeat a third as many
texts, through a script whose reply also depends on the call index: it must
post once per distinct text, and a replay of its cache must return the
fill's samples for every item.  The probe exits 1 if a check fails.  Timings
are printed, never checked.  Caches go to a temporary directory that is
removed at the end; nothing is written under `perfbench/`.
"""

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from silicon.core import TaskKind, TaskSpec  # noqa: E402
from silicon.gateway import (AnnotationCache, ModelEndpoint, PromptConfig,  # noqa: E402
                             RetryPolicy, ScriptedTransport, annotate, assemble_prompt,
                             cache_key)

LABELS = ("budget", "transport", "schools", "health", "housing", "policing")
SAMPLES = 5
REPEATS = 5
MODEL = "probe-llm"
SPEC = TaskSpec(task_id="fill-probe", kind=TaskKind.MULTICLASS, label_universe=LABELS)
WORDS = ("the", "council", "budget", "plan", "school", "clinic", "river", "tax",
         "bus", "park", "police", "museum", "jobs", "vote", "levy", "housing")


def reply(messages, call_index, choice_index) -> str:
    """A label line picked by a digest of the item text and the choice, with a
    short preamble, as a chat model might answer."""
    digest = hashlib.blake2b(f"{messages[-1]['content']}|{choice_index}".encode(),
                             digest_size=2).digest()
    return f"The post is mostly about this topic.\n{LABELS[digest[0] % len(LABELS)]}"


def items(n: int) -> list[tuple[str, str]]:
    return [(f"it{i:06d}", f"post {i:06d}: " + " ".join(WORDS[(i * 7 + j * 3) % len(WORDS)]
                                                           for j in range(24)))
            for i in range(n)]


def endpoint(workers: int) -> ModelEndpoint:
    return ModelEndpoint(name=MODEL, base_url="http://127.0.0.1:1", api_key_env="FILL_PROBE_KEY",
                         max_in_flight=workers, retry=RetryPolicy(max_attempts=1, backoff=()))


def fill(path: str, batch: list, cfg: PromptConfig, workers: int) -> float:
    t0 = time.perf_counter()
    annotate(endpoint(workers), cfg, batch, AnnotationCache(path),
             transport=ScriptedTransport(reply), replay=False)
    return time.perf_counter() - t0


def check(path: str, batch: list, cfg: PromptConfig) -> list[str]:
    """What is wrong with the cache a fill left: it must hold one line per
    (item, sample), each with the reply the script gave for it."""
    with open(path, encoding="utf-8") as fh:
        keys = [json.loads(line)["key"] for line in fh.readlines()[1:]]
    cache = AnnotationCache(path)
    problems = []
    if len(keys) != len(set(keys)):
        problems.append(f"{len(keys) - len(set(keys))} keys written more than once")
    if len(cache) != len(batch) * SAMPLES:
        problems.append(f"{len(cache)} entries, not {len(batch) * SAMPLES}")
    wrong = 0
    for _, text in batch:
        messages = assemble_prompt(cfg, text)
        for s in range(SAMPLES):
            entry = cache.get(cache_key(MODEL, messages, cfg.temperature, s))
            wrong += entry is None or entry.raw_response != reply(messages, 0, s)
    if wrong:
        problems.append(f"{wrong} samples missing or not the scripted reply")
    return problems


def check_repeats(path: str, n: int, cfg: PromptConfig) -> list[str]:
    """What is wrong with a fill of n items that repeat n // 3 texts: it must
    post once per distinct text, and a replay must return its samples."""
    texts = [text for _, text in items(max(1, n // 3))]
    batch = [(f"rep{i:06d}", texts[i % len(texts)]) for i in range(n)]
    transport = ScriptedTransport(
        lambda messages, call, choice: reply(messages, call, choice) + f" (call {call})")
    filled = annotate(endpoint(2), cfg, batch, AnnotationCache(path), transport=transport,
                      replay=False)
    replayed = annotate(endpoint(2), cfg, batch, AnnotationCache(path), replay=True)
    problems = []
    if transport.calls != len(texts):
        problems.append(f"{transport.calls} posts for {len(texts)} distinct texts")

    def samples(annotations):
        return [[(s.sample_index, s.raw, s.label, s.failure) for s in a.samples]
                for a in annotations]
    wrong = sum(a != b for a, b in zip(samples(filled), samples(replayed)))
    if wrong:
        problems.append(f"{wrong} items whose replay differs from the fill")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=1800)
    args = parser.parse_args(argv)
    if args.items < 1:
        parser.error("--items must be at least 1")

    batch = items(args.items)
    cfg = PromptConfig(task=SPEC, guideline_text="Label the topic of the post.",
                       temperature=0.7, n_samples=SAMPLES)
    times: dict[int, list[float]] = {1: [], 2: [], 4: []}
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(REPEATS):
            for workers in times:  # alternated, so a slow spell of the host hits each
                path = os.path.join(tmp, f"cache-{r}-{workers}.jsonl")
                times[workers].append(fill(path, batch, cfg, workers))
                problems += [f"{workers} workers, run {r + 1}: {problem}"
                             for problem in check(path, batch, cfg)]
        problems += [f"repeated texts: {problem}" for problem in
                     check_repeats(os.path.join(tmp, "cache-repeats.jsonl"), args.items, cfg)]
    print(f"annotate fill of {args.items} items x {SAMPLES} samples, {REPEATS} runs each:")
    for workers, values in times.items():
        print(f"  {workers} worker{'s' * (workers > 1)}: median {statistics.median(values):.3f} s "
              f"(min {min(values):.3f}, max {max(values):.3f})")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
