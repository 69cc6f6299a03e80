"""Correctness gate for one pass: recorded output digests plus seed-independent invariants.

A subcommand fails the gate when it exits non-zero, when an output's sha256
differs from the digest recorded for this workload and seed in digests.json,
or when an invariant below does not hold.  Manifests are never digested: they
carry timestamps and absolute paths.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def output_files(argv: list[str]) -> list[str]:
    """Report outputs a `silicon` invocation wrote, manifests excluded."""
    out = argv[argv.index("--out") + 1]
    if os.path.isdir(out):
        return sorted(os.path.join(out, f) for f in os.listdir(out) if f != "manifest.json")
    return [f for f in (out, out + ".failures.jsonl") if os.path.exists(f)]


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_digests() -> dict:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _residual_ok(result: dict) -> bool:
    # acceptance criterion 3's bound: the identity holds to within 4 standard errors
    return result["identity_residual"] <= 4 * result["std_error"]


def invariants(metric: str, out: str, ctx: dict) -> list[str]:
    """Problems with the outputs of one subcommand; `ctx` carries what the pass knows."""
    problems = []
    if metric == "fsd_s":
        lines = count_lines(out)
        if lines != ctx["items"]:
            problems.append(f"fsd wrote {lines} lines for {ctx['items']} items")
        with open(out, encoding="utf-8") as fh:
            scores = [json.loads(line)["fsd"] for line in fh]
        ctx["unsure_share"] = round(sum(s < 1.0 for s in scores) / len(scores), 6)
    elif metric == "route_sweep_s":
        points = {p["tau"]: p["q"] for p in _json(os.path.join(out, "report.json"))["points"]}
        qs = [points[t] for t in sorted(points)]
        if qs != sorted(qs):
            problems.append(f"sweep q not monotone: {qs}")
        if points.get(0.0) != 0.0:
            problems.append(f"sweep q(0) = {points.get(0.0)}, not 0")
        # items are routed when fsd < tau strictly, so q(1) is the share of
        # items whose focal runs are not unanimous
        if points.get(1.0) != ctx.get("unsure_share"):
            problems.append(f"sweep q(1) = {points.get(1.0)}, not {ctx.get('unsure_share')}")
    elif metric == "mix_sensitivity_s":
        curve = {g["alpha"]: g for g in _json(os.path.join(out, "report.json"))["curve"]}
        zero = curve.get(0.0)
        if zero is None or (zero["mean_gap"], zero["lo"], zero["hi"]) != (0.0, 0.0, 0.0):
            problems.append(f"mix gap at alpha=0 is not exactly 0: {zero}")
    elif metric == "simulate_s":
        results = [_json(os.path.join(out, "result.json"))["result"]]
        contrast = _json(os.path.join(out, "contrast.json"))
        results += [contrast["base"], contrast["variant"]]
        with open(os.path.join(out, "sweep.csv"), newline="", encoding="utf-8") as fh:
            results += [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
        bad = [r for r in results if not _residual_ok(r)]
        if bad:
            problems.append(f"{len(bad)} simulate results outside 4 std errors of the identity")
    elif metric == "annotate_fill_s":
        stats = ctx["fill_stats"]
        missing = ctx["missing_items"]
        if stats["requests"] != missing + stats["errors_503"]:
            problems.append(f"fill sent {stats['requests']} requests for {missing} missing "
                            f"items and {stats['errors_503']} retries")
        if stats["choices"] != missing * ctx["samples"]:
            problems.append(f"endpoint served {stats['choices']} choices, "
                            f"expected {missing * ctx['samples']}")
        if ctx["lines_appended"] != stats["choices"]:
            problems.append(f"cache kept {ctx['lines_appended']} of "
                            f"{stats['choices']} paid responses")
    elif metric == "annotate_replay_s":
        if ctx["replay_stats"]["requests"] != 0:
            problems.append(f"replay sent {ctx['replay_stats']['requests']} requests")
        fill = [sha256(f) for f in ctx["fill_outputs"]]
        replay = [sha256(f) for f in output_files(ctx["replay_argv"])]
        if fill != replay:
            problems.append("replay outputs differ from fill outputs")
    return problems
