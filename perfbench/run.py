#!/usr/bin/env python3
"""Benchmark of the `silicon` command line on seeded synthetic workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload single-1k --seed 0 --seconds 40 --trace 0

It generates the workload's inputs from the seed, starts a loopback mock LLM
endpoint in a child process, then runs passes of every subcommand through
`silicon.cli.run` for --seconds, checking each output (see check.py).

With --trace 0 it reports the end-to-end metrics: per subcommand and for the
whole pass, the median over passes of its time; the median of five set-ups;
and peak RSS.  Each time is the call's wall time scaled to a reference host
speed.  Two fixed calibration loops, one of interpreted Python and one of
numpy, are timed right before and right after every call, and the wall time is
multiplied by the loop's reference time over the mean of its two timings
(numpy for `simulate`, Python for the rest).  On a shared host whose CPU speed
switches by 40% from one second to the next, wall times alone spread by 20-40%
between runs, which would hide any regression smaller than that; the raw
wall-time medians are printed beside the scaled ones.

With --trace 1 it alternates untraced passes with passes in which every
layer's public functions are wrapped (see tracing.py), and reports per-layer
self times (raw wall time) and counts plus the tracing overhead; the spans are
written to .perfbench_spans/.  The last stdout line is the JSON result; the line
before it holds the environment record, the calibration times, and each
metric's quartiles and sample count.

--tiny runs the same workload at a few dozen items (the smoke test uses it);
--record-digests stores the output digests of one pass for this seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from tracing import NAME, PASS, Tracer, install  # noqa: E402

API_KEY_ENV = "PERFBENCH_MOCK_KEY"
SETUP_REPEATS = 5
MIN_PASSES = 3
# what the two calibration loops take on the reference host (2 vCPUs,
# Python 3.11.7, numpy 2.4.6), in s
REFERENCE_CALIBRATION_S = {"python": 0.025, "numpy": 0.012}
# simulate is vectorised Monte Carlo; every other subcommand interprets Python
# over records, and host speed swings move the two kinds of work differently
CALIBRATION_KIND = {"simulate_s": "numpy"}
WORK_DIR = ".perfbench_work"
SPANS_DIR = ".perfbench_spans"   # traced runs leave their spans here

END_TO_END = {
    "setup_s": "s", "agreement_s": "s", "baseline_compare_s": "s", "fsd_s": "s",
    "route_sweep_s": "s", "equivalence_s": "s", "mix_sensitivity_s": "s",
    "simulate_s": "s", "annotate_fill_s": "s", "annotate_replay_s": "s",
    "pass_s": "s", "peak_rss_mb": "MB",
}

# per-layer metric -> the span whose self time, summed over a pass, it reports
SPAN_METRICS = {
    "core.load_dataset_s": "core.load_dataset",
    "core.label_map_s": "core.label_map",
    "core.runs_s": "core.runs",
    "core.majority_reference_s": "core.majority_reference",
    "core.save_dataset_s": "core.save_dataset",
    "agreement.kappa_s": "agreement.kappa",
    "agreement.mean_pairwise_s": "agreement.mean_pairwise",
    "confidence.fsd_s": "confidence.fsd",
    "routing.sweep_s": "routing.sweep",
    "routing.route_s": "routing.route",
    "equivalence.match_matrix_s": "equivalence.match_matrix",
    "equivalence.fit_s": "equivalence.fit",
    "sensitivity.curve_s": "sensitivity.curve",
    "sensitivity.mix_baseline_s": "sensitivity.mix_baseline",
    "noise_sim.simulate_s": "noise_sim.simulate",
    "noise_sim.contrast_s": "noise_sim.contrast",
    "gateway.cache_load_s": "gateway.cache_load",
    "gateway.assemble_prompt_s": "gateway.assemble_prompt",
    "gateway.cache_key_s": "gateway.cache_key",
    "gateway.parse_response_s": "gateway.parse_response",
    "gateway.transport_wait_s": "gateway.transport",
    "gateway.cache_put_s": "gateway.cache_put",
}
# per-layer metric -> the counter it reads, per pass
COUNT_METRICS = {
    "core.records_loaded": "core.records_loaded",
    "agreement.kappa_calls": "agreement.kappa.calls",
    "agreement.set_weight_calls": "agreement.set_weight_calls",
    "confidence.fsd_calls": "confidence.fsd.calls",
    "routing.route_calls": "routing.route.calls",
    "routing.items_routed": "routing.items_routed",
    "equivalence.irls_iters": "equivalence.irls_iters",
    "sensitivity.mix_baseline_calls": "sensitivity.mix_baseline.calls",
    "noise_sim.simulate_calls": "noise_sim.simulate.calls",
    "gateway.cache_entries": "gateway.cache_entries",
    "gateway.cache_hits": "gateway.cache_hits",
    "gateway.cache_misses": "gateway.cache_misses",
    "gateway.parse_failures": "gateway.parse_failures",
    "gateway.choices_served": "gateway.choices_served",
    "gateway.retries": "gateway.transport.errors",
}
PER_LAYER = {
    **{m: "s" for m in SPAN_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    "noise_sim.samples_per_s": "1/s",
    "gateway.requests_sent": "count",
    "gateway.request_latency_p50_ms": "ms",
    "gateway.request_latency_p99_ms": "ms",
    "gateway.cache_bytes_appended": "bytes",
    "gateway.paid_kept_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}


def _calibrate_python() -> float:
    """Time a fixed loop of dict, tuple, string and sort work, the analyses' own mix.

    It shares no code with the program, so its time follows only the host's
    momentary CPU speed.
    """
    t0 = time.perf_counter()
    table = {f"it{i:06d}": (i % 7, f"label{i % 5}") for i in range(10_000)}
    sum(table[f"it{i:06d}"][0] for i in range(0, 10_000, 2))
    sorted(table.items(), key=lambda kv: (kv[1][1], kv[0]))
    return time.perf_counter() - t0


def _calibrate_numpy() -> float:
    """Time a fixed vectorised loop of draws, cumulative sums and counts, like simulate's."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(7))
    picks = (rng.random(100_000)[:, None]
             < np.cumsum(np.full((100_000, 3), 1 / 3), axis=1)).argmax(axis=1)
    np.bincount(picks[rng.random(100_000) < 0.5], minlength=3)
    return time.perf_counter() - t0


def _calibrate() -> dict[str, float]:
    return {"python": _calibrate_python(), "numpy": _calibrate_numpy()}


def _scaled(wall: float, before: dict, after: dict, kind: str = "python") -> float:
    """Wall time at the reference host speed, from the calibrations around it."""
    return wall * REFERENCE_CALIBRATION_S[kind] / ((before[kind] + after[kind]) / 2)


def _summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    return out


class Endpoint:
    """The mock endpoint child process, bound to 127.0.0.1."""

    def __init__(self, w: workloads.Workload):
        cmd = [sys.executable, os.path.join(HERE, "mock_endpoint.py"),
               "--labels", ",".join(workloads.labels_of(w))]
        if w.multilabel:
            cmd.append("--multilabel")
        # the child serves until its stdin closes, so it also ends if this process dies
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        if not line.strip():
            self.stop()
            raise RuntimeError("mock endpoint did not start")
        self.port = int(line)
        # loopback only: never route these calls through a proxy
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def stats(self) -> dict:
        """Counters since the last call (the endpoint zeroes them on every read)."""
        with self._opener.open(f"http://127.0.0.1:{self.port}/stats", timeout=30) as resp:
            return json.load(resp)

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, w: workloads.Workload, seed: int, work: str, digests: dict | None):
        self.w, self.seed, self.work, self.digests = w, seed, work, digests
        self.paths: dict = {}
        self.endpoint: Endpoint | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorded: dict[str, str] = {}
        self.calibrations: list[dict[str, float]] = []

    def setup(self) -> tuple[float, float]:
        """Generate the inputs and start the endpoint: (scaled, wall) time."""
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None
        gc.collect()
        before = _calibrate()
        t0 = time.perf_counter()
        self.paths = workloads.make_inputs(self.w, self.seed, os.path.join(self.work, "in"),
                                           API_KEY_ENV)
        self.endpoint = Endpoint(self.w)
        workloads.set_endpoint_port(self.paths, self.endpoint.port)
        wall = time.perf_counter() - t0
        after = _calibrate()
        self.calibrations += [before, after]
        return _scaled(wall, before, after), wall

    def run_pass(self, tracer: Tracer | None = None) -> tuple[dict, dict, dict]:
        """One pass of every subcommand: (scaled times, wall times, facts for tracing)."""
        from silicon import cli

        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        cache = os.path.join(out, "cache.jsonl")
        shutil.copyfile(self.paths["warm_cache.jsonl"], cache)
        self.endpoint.stats()
        ctx = {"items": self.w.items, "samples": workloads.N_RUNS,
               "missing_items": self.paths["missing_items"]}
        facts = {"output_bytes": 0}
        scaled, wall = {}, {}
        calibration = _calibrate()
        for metric, argv in workloads.pass_commands(self.paths, out):
            if metric == "annotate_fill_s":
                lines, size = check.count_lines(cache), os.path.getsize(cache)
            # each `silicon` invocation is a fresh process for its user; a full
            # collection here gives every timed call that same empty collector
            # state instead of whatever garbage the previous call left behind
            gc.collect()
            root = tracer.open_root("cli." + argv[0]) if tracer else None
            t0 = time.perf_counter()
            rc = cli.run(argv)
            wall[metric] = time.perf_counter() - t0
            if tracer:
                tracer.close_root(root)
            after = _calibrate()
            scaled[metric] = _scaled(wall[metric], calibration, after,
                                     CALIBRATION_KIND.get(metric, "python"))
            self.calibrations.append(after)
            calibration = after
            if metric == "annotate_fill_s":
                ctx["fill_stats"] = self.endpoint.stats()
                ctx["lines_appended"] = check.count_lines(cache) - lines
                ctx["fill_outputs"] = check.output_files(argv)
                facts["cache_bytes_appended"] = os.path.getsize(cache) - size
                facts["lines_appended"] = ctx["lines_appended"]
            elif metric == "annotate_replay_s":
                ctx["replay_stats"] = self.endpoint.stats()
                ctx["replay_argv"] = argv
            self._check(metric, argv, rc, out, ctx, facts)
        scaled["pass_s"] = sum(scaled.values())
        wall["pass_s"] = sum(wall.values())
        return scaled, wall, facts

    def _check(self, metric, argv, rc, out, ctx, facts) -> None:
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.problems.append(f"{metric}: exit code {rc}")
            return
        problems = check.invariants(metric, argv[argv.index("--out") + 1], ctx)
        for path in check.output_files(argv):
            facts["output_bytes"] += os.path.getsize(path)
            name = os.path.relpath(path, out)
            digest = check.sha256(path)
            self.recorded[name] = digest
            if self.digests is not None and self.digests.get(name) != digest:
                problems.append(f"{name}: sha256 {digest[:12]} differs from the recorded "
                                f"{str(self.digests.get(name))[:12]}")
        self.failed += bool(problems)
        self.problems += [f"{metric}: {p}" for p in problems]

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.stop()
            self.endpoint = None


def _layer_metrics(tracer: Tracer, self_times: list[float], passes: list[int],
                   facts: list[dict], counts: list[dict]) -> dict[str, list[float]]:
    by_pass: dict[int, dict[str, float]] = {p: {} for p in passes}
    for span, self_s in zip(tracer.spans, self_times):
        totals = by_pass[span[PASS]]
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + self_s
    per_pass: dict[str, list[float]] = {m: [] for m in PER_LAYER}
    latencies = []
    for p, f, c in zip(passes, facts, counts):
        self_s = by_pass[p]
        for metric, span in SPAN_METRICS.items():
            per_pass[metric].append(self_s.get(span, 0.0))
        for metric, counter in COUNT_METRICS.items():
            per_pass[metric].append(c.get(counter, 0))
        sim_s = self_s.get("noise_sim.simulate", 0.0)
        per_pass["noise_sim.samples_per_s"].append(
            c.get("noise_sim.samples", 0) / sim_s if sim_s else 0.0)
        per_pass["gateway.requests_sent"].append(
            c.get("gateway.transport.calls", 0) + c.get("gateway.transport.errors", 0))
        served = c.get("gateway.choices_served", 0)
        per_pass["gateway.paid_kept_ratio"].append(
            f["lines_appended"] / served if served else 0.0)
        per_pass["gateway.cache_bytes_appended"].append(f["cache_bytes_appended"])
        per_pass["cli.self_s"].append(sum(v for k, v in self_s.items() if k.startswith("cli.")))
        per_pass["cli.output_bytes"].append(f["output_bytes"])
        latencies += tracer.durations("gateway.transport", p)
    # request latency percentiles pool every traced pass, so p99 has samples beyond it
    if latencies:
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        per_pass["gateway.request_latency_p50_ms"] = [1000 * statistics.median(latencies)]
        per_pass["gateway.request_latency_p99_ms"] = [1000 * q[98]]
    else:
        per_pass["gateway.request_latency_p50_ms"] = [0.0]
        per_pass["gateway.request_latency_p99_ms"] = [0.0]
    return per_pass


def _record(name: str, seed: int, recorded: dict[str, str]) -> None:
    digests = check.load_digests()
    digests.setdefault(name, {})[str(seed)] = dict(sorted(recorded.items()))
    with open(check.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="a few dozen items, for the smoke test")
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass and store its output digests for this seed")
    args = parser.parse_args(argv)
    # a terminated run still stops the endpoint and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "silicon", "cli.py")):
        print(f"perfbench: no src/silicon under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import scipy
    import silicon
    if not os.path.abspath(silicon.__file__).startswith(src + os.sep):
        print(f"perfbench: imported silicon from {silicon.__file__}, not {src}", file=sys.stderr)
        return 2
    os.environ[API_KEY_ENV] = "perfbench"
    for var in ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY",
                "ALL_PROXY"):
        os.environ.pop(var, None)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ.pop("SILICON_REPLAY", None)

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    digests = None if (args.tiny or args.record_digests) else (
        check.load_digests().get(w.name, {}).get(str(args.seed)))
    work = os.path.join(root, WORK_DIR, w.name)
    bench = Bench(w, args.seed, work, digests)
    setups, passes, facts, counts = [], [], [], []
    scaled: list[dict[str, float]] = []
    walls: list[dict[str, float]] = []
    tracer = Tracer(w.name)
    try:
        for _ in range(1 if (args.trace or args.record_digests) else SETUP_REPEATS):
            setups.append(bench.setup())
        bench.run_pass()  # warm-up: first-call costs, page cache
        if args.record_digests:
            _record(w.name, args.seed, bench.recorded)
        else:
            start = time.perf_counter()
            while True:
                began = time.perf_counter()
                s, t, _ = bench.run_pass()
                scaled.append(s)
                walls.append(t)
                if args.trace:
                    tracer.pass_index += 1
                    install(tracer)
                    try:
                        _, t, f = bench.run_pass(tracer)
                    finally:
                        tracer.uninstall()
                    passes.append(tracer.pass_index)
                    facts.append({**f, "pass_s": t["pass_s"]})
                    counts.append(dict(tracer.counts))
                    tracer.counts.clear()
                now = time.perf_counter()
                # stop once another round like the last would end after --seconds
                if len(walls) >= MIN_PASSES and (now - start) + (now - began) > args.seconds:
                    break
    finally:
        bench.close()
        shutil.rmtree(os.path.join(root, WORK_DIR), ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.record_digests:
        return 0 if not bench.problems else 1
    if args.trace:
        self_times = tracer.self_times()
        os.makedirs(os.path.join(root, SPANS_DIR), exist_ok=True)
        tracer.write(os.path.join(root, SPANS_DIR, f"{w.name}-seed{args.seed}.jsonl.gz"),
                     self_times)
        series = _layer_metrics(tracer, self_times, passes, facts, counts)
        series["trace.pass_s"] = [f["pass_s"] for f in facts]
        series["trace.untraced_pass_s"] = [t["pass_s"] for t in walls]
        series["trace.overhead_s"] = [statistics.median(series["trace.pass_s"])
                                      - statistics.median(series["trace.untraced_pass_s"])]
        units = PER_LAYER
        wall_detail = {}
    else:
        series = {m: [s[m] for s in scaled] for m in scaled[0]}
        series["setup_s"] = [s for s, _ in setups]
        series["peak_rss_mb"] = [rss_mb]
        units = END_TO_END
        wall_detail = {m: _summary([t[m] for t in walls]) for m in walls[0]}
        wall_detail["setup_s"] = _summary([t for _, t in setups])

    detail = {m: _summary(v) for m, v in series.items()}
    env = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "workload": w.name, "seed": args.seed, "passes": len(walls) + len(passes),
        "calibration_s": {kind: _summary([c[kind] for c in bench.calibrations])
                          for kind in REFERENCE_CALIBRATION_S},
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "failed_ops": bench.failed / bench.attempted, "problems": bench.problems,
        "digests_checked": digests is not None,
    }
    for problem in bench.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"perfbench": {"env": env, "detail": detail, "wall": wall_detail}},
                     sort_keys=True))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": detail[m]["median"], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
