#!/usr/bin/env python3
"""Load time and memory of a large response cache.

Run from anywhere:

    python3 tools/cache_probe.py --entries 200000

It writes two synthetic caches of --entries entries with distinct keys to a
temporary directory through `AnnotationCache.put`, 10,000 entries a call, as
`annotate` writes them: model `mock-llm`, temperature 0.7, five samples per
item sharing one timestamp.  In the `labels` cache the responses are drawn
from a few dozen texts (label lines, `labels: [...]` blocks and unparseable
text), as the benchmark's warm cache holds them, so the loader decodes each
distinct line once.  In the `cot` cache every response is a distinct
multi-line reasoning text, as chain-of-thought prompts return them, so no
line repeats another.  For each cache a fresh child process imports the
package, loads the cache with `AnnotationCache`, and reports the load's wall
time and how far it raised the process's peak RSS (`ru_maxrss`).  The child
then builds the same entries again and checks that `get()` returns each one
for its key, and decodes every line with `json.loads` and checks that `get()`
returns that line's entry: what the writer accepted, the loader returns.  The
probe exits 1 unless every entry of both caches matches.  The temporary
directory is removed at the end.
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, SRC)

from silicon.gateway import AnnotationCache, CacheEntry  # noqa: E402

LABELS = ("positive", "negative", "neutral", "economy", "health", "crime")
SAMPLES = 5
SHAPES = ("labels", "cot")


def responses() -> list[tuple[str, tuple[str, ...] | None, str | None]]:
    """(raw response, parsed label names, failure) for every response text used."""
    out = [("I cannot tell what this post is about.", None, "no label found")]
    for i, name in enumerate(LABELS):
        out.append((name, (name,), None))
        out.append((f"Reasoning done.\nlabels: [{name}]", (name,), None))
        for other in LABELS[i + 1:]:
            out.append((f"{name}, {other}", (name, other), None))
    return out


def entries(n: int, shape: str):
    """The n entries of the synthetic cache of `shape`, in the order they are written."""
    texts = responses()
    for i in range(n):
        raw, parsed, failure = texts[hashlib.blake2b(str(i).encode(), digest_size=2)
                                     .digest()[0] % len(texts)]
        if shape == "cot":
            raw = f"Post {i} reads as a report, so I weigh each label in turn.\n{raw}"
        created = f"2026-01-01T00:00:00.{i // SAMPLES:06d}+00:00"  # one per item
        yield CacheEntry(hashlib.sha256(str(i).encode()).hexdigest(), "mock-llm",
                         0.7, i % SAMPLES, raw, parsed, failure, created)


def write_cache(path: str, n: int, shape: str) -> None:
    cache, batch = AnnotationCache(path), []
    for entry in entries(n, shape):
        batch.append(entry)
        if len(batch) == 10_000:
            cache.put(*batch)
            batch = []
    cache.put(*batch)


def child(path: str, n: int, shape: str) -> int:
    """Load the cache of `n` entries of `shape` at `path`, check it, and print
    the measurements as JSON."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    cache = AnnotationCache(path)
    load_s = time.perf_counter() - t0
    rise_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    mismatched = 0
    for entry in entries(n, shape):
        if cache.get(entry.key) != entry:
            mismatched += 1
            if mismatched <= 3:
                print(f"{entry!r} was put, get() returned {cache.get(entry.key)!r}",
                      file=sys.stderr)
    with open(path, encoding="utf-8") as fh:
        next(fh)  # the header
        for lineno, line in enumerate(fh, start=2):
            want = json.loads(line)
            entry = cache.get(want["key"])
            if entry is None or entry.to_json() != want:
                mismatched += 1
                if mismatched <= 3:
                    print(f"line {lineno}: get() returned {entry!r}", file=sys.stderr)
    print(json.dumps({"entries": len(cache), "load_s": load_s, "rss_rise_mb": rise_kb / 1024,
                      "mismatched": mismatched}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entries", type=int, default=200_000)
    parser.add_argument("--child", help=argparse.SUPPRESS)  # the path the child loads
    parser.add_argument("--shape", choices=SHAPES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child, args.entries, args.shape)
    if args.entries < 1:
        parser.error("--entries must be at least 1")

    failed = False
    for shape in SHAPES:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cache.jsonl")
            write_cache(path, args.entries, shape)
            size = os.path.getsize(path)
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", path,
                                   "--entries", str(args.entries), "--shape", shape],
                                  stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{shape}: the child process exited with {proc.returncode}", file=sys.stderr)
            failed = True
            continue
        result = json.loads(proc.stdout)
        print(f"{shape}: {args.entries} entries, {size / 2**20:.1f} MB: "
              f"load {result['load_s']:.3f} s, peak RSS +{result['rss_rise_mb']:.1f} MB "
              f"({result['rss_rise_mb'] * 2**20 / args.entries:.0f} B per entry)")
        if result["entries"] != args.entries or result["mismatched"]:
            print(f"FAIL: {shape}: loaded {result['entries']} entries; {result['mismatched']} "
                  f"differ from the entry put or json.loads of their line", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
