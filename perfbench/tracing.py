"""Spans and counters recorded around the calls into each `silicon` layer.

The wrappers are installed from outside the package, on the module or class
attribute where the calling code looks the function up, and removed again
afterwards; untraced passes run with none installed.  Spans stay in memory:
(name, start, end, parent, workload, pass).  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, WORKLOAD, PASS = range(6)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.pass_index = -1
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None     # parent for spans opened on worker threads
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.workload, self.pass_index])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def open_root(self, name: str) -> int:
        """A top-level span (one subcommand); threads the call starts attach to it."""
        self._root = self.open(name)
        return self._root

    def close_root(self, idx: int) -> None:
        self.close(idx)
        self._root = None

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, span: str | None, after=None) -> None:
        """Replace owner.attr by a call that opens `span` (none if None) and then
        runs `after(tracer, result)` to add counts.  Calls are counted as
        `<span>.calls`, calls that raise as `<span>.errors`.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if span is None:
                result = orig(*args, **kwargs)
            else:
                idx = tracer.open(span)
                try:
                    result = orig(*args, **kwargs)
                except BaseException:
                    tracer.count(span + ".errors")
                    raise
                finally:
                    tracer.close(idx)
                tracer.count(span + ".calls")
            if after is not None:
                after(tracer, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Self time of every span, in the order the spans were opened."""
        children = defaultdict(list)
        for s in self.spans:
            if s[PARENT] is not None:
                children[s[PARENT]].append((s[START], s[END]))
        out = []
        for idx, s in enumerate(self.spans):
            covered, reach = 0.0, s[START]
            for start, end in sorted(children.get(idx, ())):
                start, end = max(start, reach), min(end, s[END])
                if end > start:
                    covered += end - start
                    reach = end
            out.append((s[END] - s[START]) - covered)
        return out

    def write(self, path: str, self_times: list[float]) -> None:
        """All spans as gzipped JSON lines, with their self time."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for s, self_s in zip(self.spans, self_times):
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "workload": s[WORKLOAD],
                                     "pass": s[PASS], "self_s": self_s}) + "\n")

    def durations(self, name: str, pass_index: int) -> list[float]:
        return [s[END] - s[START] for s in self.spans
                if s[NAME] == name and s[PASS] == pass_index]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer where their callers look them up."""
    import silicon.agreement as agreement
    import silicon.cli as cli
    import silicon.gateway as gateway
    import silicon.noise_sim as noise_sim
    import silicon.routing as routing
    import silicon.sensitivity as sensitivity
    from silicon.core import Dataset

    def records(t, ds):
        t.count("core.records_loaded", len(ds.records))

    def routed(t, result):
        t.count("routing.items_routed", len(result.routed))

    def irls(t, report):
        t.count("equivalence.irls_iters", report.n_iter)

    def samples(t, result):
        t.count("noise_sim.samples", result.n_samples)

    def hit(t, entry):
        t.count("gateway.cache_hits" if entry is not None else "gateway.cache_misses")

    def parsed(t, result):
        if isinstance(result, gateway.ParseFailure):
            t.count("gateway.parse_failures")

    def served(t, resp):
        t.count("gateway.choices_served", len(resp.get("choices", ())))

    tracer.wrap(cli, "load_dataset", "core.load_dataset", records)
    tracer.wrap(cli, "save_dataset", "core.save_dataset")
    tracer.wrap(cli, "majority_reference", "core.majority_reference")
    tracer.wrap(Dataset, "label_map", "core.label_map")
    tracer.wrap(Dataset, "runs", "core.runs")

    tracer.wrap(cli, "mean_pairwise_kappa", "agreement.mean_pairwise")
    for module in (agreement, routing, sensitivity):
        tracer.wrap(module, "kappa_for_kind", "agreement.kappa")
    # set_weight runs once per pair of observed label sets: a count, not a span
    tracer.wrap(agreement, "set_weight", None,
                lambda t, _: t.count("agreement.set_weight_calls"))

    tracer.wrap(cli, "fsd_from_samples", "confidence.fsd")

    tracer.wrap(cli, "sweep", "routing.sweep")
    tracer.wrap(routing, "route", "routing.route", routed)

    tracer.wrap(cli, "build_match_matrix", "equivalence.match_matrix")
    tracer.wrap(cli, "fit_equivalence", "equivalence.fit", irls)

    tracer.wrap(cli, "sensitivity_curve", "sensitivity.curve")
    tracer.wrap(sensitivity, "mix_baseline", "sensitivity.mix_baseline")

    for module in (cli, noise_sim):
        tracer.wrap(module, "simulate", "noise_sim.simulate", samples)
    tracer.wrap(cli, "contrast", "noise_sim.contrast")

    cache_init = gateway.AnnotationCache.__init__

    @functools.wraps(cache_init)
    def load_cache(self, path):
        idx = tracer.open("gateway.cache_load")
        try:
            cache_init(self, path)
        finally:
            tracer.close(idx)
        tracer.count("gateway.cache_entries", len(self))

    gateway.AnnotationCache.__init__ = load_cache
    tracer._undo.append((gateway.AnnotationCache, "__init__", cache_init))
    tracer.wrap(gateway.AnnotationCache, "get", None, hit)
    tracer.wrap(gateway.AnnotationCache, "put", "gateway.cache_put")
    tracer.wrap(gateway, "assemble_prompt", "gateway.assemble_prompt")
    tracer.wrap(gateway, "cache_key", "gateway.cache_key")
    tracer.wrap(gateway, "parse_response", "gateway.parse_response", parsed)
    tracer.wrap(gateway.HttpTransport, "post", "gateway.transport", served)
