"""Command-line surface for the annotation toolkit.

Subcommands: agreement, baseline-compare, annotate, fsd, route-sweep,
equivalence, mix-sensitivity, simulate.  Every run writes exactly one JSON
manifest beside its outputs recording the inputs (with digests), the output
names, the seed, the version, a digest of the options, and when the run
`started` and `finished`; it records no per-stage timings.  Exit codes:
0 success, 1 bad input or usage, 2 runtime or transport failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .agreement import mean_pairwise_kappa_codes
from .agreement import mean_pairwise_kappa  # unused here, but perfbench/tracing.py wraps this name
from .confidence import fsd_from_codes
from .confidence import fsd_from_samples  # unused here, but perfbench/tracing.py wraps this name
from .core import (
    Dataset,
    Role,
    SiliconError,
    SourceId,
    TaskSpec,
    TieRule,
    ValidationError,
    _JSONL_ENCODER,
    atomic_open,
    load_dataset,
    load_task_spec,
    majority_reference,
    save_dataset,
)
from .equivalence import build_match_matrix_codes, fit_equivalence
from .equivalence import build_match_matrix  # unused here, but perfbench/tracing.py wraps this name
from .gateway import (
    GatewayError,
    annotate,
    annotations_to_dataset,
    AnnotationCache,
    load_endpoint,
    load_prompt_config,
)
from .noise_sim import _check_contrast_pair, contrast, load_sim_config, simulate_many
from .noise_sim import simulate  # unused here, but perfbench/tracing.py wraps this name
from .routing import RoutingPlan, sweep
from .sensitivity import MixConfig, sensitivity_curve

__all__ = ["main", "run"]


class UsageError(SiliconError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage problems to 1
        raise UsageError(message)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _round_floats(obj, ndigits: int = 6):
    if isinstance(obj, float):
        return round(obj, ndigits)
    if isinstance(obj, dict):
        return {k: _round_floats(v, ndigits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, ndigits) for v in obj]
    return obj


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    with atomic_open(path) as fh:
        json.dump(_round_floats(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                round(v, 6) if isinstance(v, float) else v for v in row
            ])


def _write_manifest(subcommand: str, args, inputs: list[str], outputs: list[str],
                    started: str) -> str:
    """One manifest beside the outputs: <out>/manifest.json for directories,
    <out>.manifest.json for single files."""
    out = args.out
    if os.path.isdir(out):
        path = os.path.join(out, "manifest.json")
    else:
        path = out + ".manifest.json"
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "replay": bool(getattr(args, "replay", False)),
        "inputs": {p: _file_digest(p) for p in inputs if p and os.path.exists(p)},
        "outputs": [os.path.basename(p) for p in outputs],
        "config_digest": hashlib.sha256(
            json.dumps(config, sort_keys=True, default=str).encode()
        ).hexdigest(),
        "started": started,
        "finished": _now(),
    }
    _write_json(path, manifest)
    return path


def _load_task(args) -> TaskSpec:
    if not args.task:
        raise UsageError("--task is required for this subcommand")
    return load_task_spec(args.task)


def _ensure_outdir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _role_sources(dataset: Dataset, role: Role | None = None) -> list[SourceId]:
    """The sources of `role` (all if None) in first-seen order, erroring on
    name collisions."""
    sources = [s for s in dataset.sources() if role is None or s.role is role]
    names = set()
    for source in sources:
        if source.name in names:
            raise ValidationError(f"duplicate source name across roles: {source.name!r}")
        names.add(source.name)
    return sources


def _pairwise_kappa(dataset: Dataset, sources: list[SourceId], spec: TaskSpec):
    """mean_pairwise_kappa of the sources' run-0 labels, read off the code matrix."""
    return mean_pairwise_kappa_codes([s.name for s in sources], dataset.item_ids(),
                                     dataset.label_table, dataset.code_matrix(sources),
                                     spec.kind, spec)


def _merge_datasets(spec: TaskSpec, paths: list[str]) -> Dataset:
    return Dataset.concat([load_dataset(path, spec) for path in paths])


def _reference_map(path: str, spec: TaskSpec, tie_rule=TieRule.LOWEST_INDEX, seed=None):
    ds = load_dataset(path, spec)
    sources = ds.sources()
    if not sources:
        raise ValidationError(f"{path}: no annotation records")
    if len(sources) == 1:
        return ds.label_map(sources[0])
    return majority_reference(ds, tie_rule=tie_rule, seed=seed)


def _report_json(rep) -> dict:
    out = {
        "kappa": rep.kappa,
        "p_o": rep.p_o,
        "p_e": rep.p_e,
        "n_items": rep.n_items,
        "degenerate": rep.degenerate,
        "weighted": rep.weighted,
        "mean_kappa": rep.mean_kappa,
        "pairwise": [
            {"source_a": p.source_a, "source_b": p.source_b,
             "kappa": p.kappa, "n_items": p.n_items}
            for p in rep.pairwise
        ],
    }
    return out


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty {what} list")
    return values


# ---------------------------------------------------------------- subcommands

def cmd_agreement(args) -> int:
    started = _now()
    spec = _load_task(args)
    paths = [args.a] + ([args.b] if args.b else [])
    dataset = _merge_datasets(spec, paths)
    sources = _role_sources(dataset)
    if len(sources) < 2:
        raise ValidationError("agreement needs at least 2 annotation sources")
    rep = _pairwise_kappa(dataset, sources, spec)
    report = _report_json(rep)
    report["task_id"] = spec.task_id
    report["sources"] = sorted(s.name for s in sources)
    _write_json(args.out, report)
    outputs = [args.out]
    if args.confusion_csv and rep.observed is not None:
        names = ["|".join(c.to_names(spec)) for c in rep.categories]
        rows = [[names[i]] + [int(v) for v in rep.observed[i]] for i in range(len(names))]
        _write_csv(args.confusion_csv, ["category"] + names, rows)
        outputs.append(args.confusion_csv)
    _write_manifest("agreement", args, [args.task] + paths, outputs, started)
    return 0


def cmd_baseline_compare(args) -> int:
    started = _now()
    spec = _load_task(args)
    dataset = _merge_datasets(spec, [args.expert, args.crowd])
    by_role = {}
    for role in (Role.EXPERT, Role.CROWD):
        sources = _role_sources(dataset, role)
        if len(sources) < 2:
            raise ValidationError(
                f"need at least 2 {role.value} annotators, found {len(sources)}"
            )
        by_role[role.value] = _pairwise_kappa(dataset, sources, spec)
    expert_kappa = by_role["expert"].kappa
    crowd_kappa = by_role["crowd"].kappa
    delta = expert_kappa - crowd_kappa
    report = {
        "task_id": spec.task_id,
        "expert": _report_json(by_role["expert"]),
        "crowd": _report_json(by_role["crowd"]),
        "delta": delta,
        "threshold": spec.agreement_threshold,
        "expert_meets_threshold": expert_kappa >= spec.agreement_threshold,
    }
    _write_json(args.out, report)
    _write_manifest("baseline-compare", args,
                    [args.task, args.expert, args.crowd], [args.out], started)
    return 0


def cmd_annotate(args) -> int:
    started = _now()
    spec = _load_task(args)
    endpoint = load_endpoint(args.endpoint)
    cfg = load_prompt_config(args.prompt, spec)
    items = []
    with open(args.items, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                items.append((obj["item_id"], obj["text"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValidationError(f"{args.items}:{lineno}: bad item ({exc})") from exc
    cache = AnnotationCache(args.cache)
    if cache.dropped_tail:
        print(f"warning: {args.cache}: skipped a torn last line ({len(cache.dropped_tail)} "
              f"bytes); it is cut off before the next append", file=sys.stderr)
    replay = True if args.replay else None
    annotations = annotate(endpoint, cfg, items, cache, replay=replay)
    dataset, failures = annotations_to_dataset(annotations, endpoint.name, spec)
    save_dataset(dataset, args.out)
    outputs = [args.out]
    if failures:
        fail_path = args.out + ".failures.jsonl"
        with atomic_open(fail_path) as fh:
            for f in failures:
                fh.write(json.dumps(f, sort_keys=True, ensure_ascii=False) + "\n")
        outputs.append(fail_path)
    _write_manifest("annotate", args,
                    [args.task, args.items, args.endpoint, args.prompt, args.cache],
                    outputs, started)
    return 0


def _fsd_scores(dataset: Dataset, source_name: str | None):
    """FSD of every item the focal source labels, from one count pass over its
    records.

    Returns the source, its labels in LabelValue order, and five lists over
    the items in item_ids() order: item id, fsd, top and second label (as
    indices into those labels; second is -1 for unanimous runs) and n_samples.
    """
    sources = dataset.sources()
    if source_name:
        matching = [s for s in sources if s.name == source_name]
        if not matching:
            raise ValidationError(f"source {source_name!r} not in dataset")
        if len(matching) > 1:
            roles = ", ".join(s.role.value for s in matching)
            raise ValidationError(
                f"source name {source_name!r} is used by several roles ({roles}); "
                f"it does not pick one source"
            )
        source = matching[0]
    elif len(sources) == 1:
        source = sources[0]
    else:
        raise ValidationError(
            f"dataset has {len(sources)} sources; pick one with --source"
        )
    table = dataset.label_table
    order = sorted(range(len(table)), key=lambda c: table[c].indices)
    rank = np.empty(len(table), dtype=np.int64)
    rank[order] = np.arange(len(table))
    rows = np.flatnonzero(dataset.source_code == sources.index(source))
    items, fsd, top, second, n = fsd_from_codes(dataset.item_code[rows],
                                                rank[dataset.label_code[rows]])
    short = np.flatnonzero(n < 2)
    item_ids = dataset.item_ids()
    if len(short):
        k = short[0]
        raise ValidationError(
            f"item {item_ids[items[k]]!r} has {n[k]} runs from {source.name!r}; need >= 2"
        )
    columns = ([item_ids[i] for i in items.tolist()], fsd.tolist(), top.tolist(),
               second.tolist(), n.tolist())
    return source, [table[c] for c in order], columns


def cmd_fsd(args) -> int:
    started = _now()
    spec = _load_task(args)
    dataset = load_dataset(args.runs, spec)
    source, labels, columns = _fsd_scores(dataset, args.source)
    with atomic_open(args.out) as fh:
        # each line is json.dumps(record, sort_keys=True, ensure_ascii=False),
        # joined from fragments: the source and every distinct label list are
        # dumped once, the item ids go through the same encoder without
        # building one per call
        source_json = json.dumps(source.to_json(), sort_keys=True, ensure_ascii=False)
        names = [json.dumps(lab.to_names(spec), sort_keys=True, ensure_ascii=False)
                 for lab in labels] + ["null"]  # names[-1]: no second label
        encode = _JSONL_ENCODER.encode
        fh.writelines(
            f'{{"fsd": {round(fsd, 6)!r}, "item_id": {encode(item)}, "method": "sampling", '
            f'"n_samples": {n}, "second_label": {names[second]}, "source": {source_json}, '
            f'"top_label": {names[top]}}}\n'
            for item, fsd, top, second, n in zip(*columns))
    _write_manifest("fsd", args, [args.task, args.runs], [args.out], started)
    return 0


def cmd_route_sweep(args) -> int:
    started = _now()
    spec = _load_task(args)
    focal_ds = load_dataset(args.focal, spec)
    source, labels, (items, scores, top, _, _) = _fsd_scores(focal_ds, args.source)
    focal_labels = dict(zip(items, map(labels.__getitem__, top)))
    fsd = dict(zip(items, scores))
    aux_labels = {}
    for path in args.aux:
        ds = load_dataset(path, spec)
        for aux_source in ds.sources():
            if aux_source.name in aux_labels or aux_source.name == source.name:
                raise ValidationError(f"duplicate model name {aux_source.name!r}")
            aux_labels[aux_source.name] = ds.label_map(aux_source)
    reference = _reference_map(args.reference, spec, seed=args.seed)
    taus = _parse_float_list(args.taus, "tau")
    plan = RoutingPlan(
        focal=source.name,
        auxiliaries=tuple(aux_labels),
        tau=0.0,
        tie_rule=TieRule(args.tie_rule),
    )
    points = sweep(plan, taus, focal_labels, fsd, aux_labels, reference, spec,
                   seed=args.seed)
    _ensure_outdir(args.out)
    csv_path = os.path.join(args.out, "sweep.csv")
    _write_csv(csv_path, ["tau", "kappa", "q", "n_routed"],
               [[p.tau, p.kappa, p.q, p.n_routed] for p in points])
    best = max(points, key=lambda p: (p.kappa, -p.q))
    report = {
        "task_id": spec.task_id,
        "focal": source.name,
        "auxiliaries": sorted(aux_labels),
        "n_items": len(focal_labels),
        "points": [
            {"tau": p.tau, "kappa": p.kappa, "q": p.q,
             "n_routed": p.n_routed, "degenerate": p.degenerate}
            for p in points
        ],
        "best": {"tau": best.tau, "kappa": best.kappa, "q": best.q},
    }
    json_path = os.path.join(args.out, "report.json")
    _write_json(json_path, report)
    _write_manifest("route-sweep", args,
                    [args.task, args.focal, args.reference] + list(args.aux),
                    [csv_path, json_path], started)
    return 0


def cmd_equivalence(args) -> int:
    started = _now()
    spec = _load_task(args)
    dataset = _merge_datasets(spec, list(args.models))
    models = _role_sources(dataset, Role.MODEL)
    if len(models) < 2:
        raise ValidationError("equivalence needs at least 2 model sources")
    reference = _reference_map(args.reference, spec, seed=args.seed)
    matrix = build_match_matrix_codes([s.name for s in models], dataset.item_ids(),
                                      dataset.label_table, dataset.code_matrix(models),
                                      reference, baseline_model=args.baseline)
    report = fit_equivalence(
        matrix, correction=args.correction, tost_margin=args.tost_margin
    )
    _ensure_outdir(args.out)
    json_path = os.path.join(args.out, "report.json")
    _write_json(json_path, report.to_json())
    csv_path = os.path.join(args.out, "forest.csv")
    _write_csv(csv_path, ["model", "estimate", "lo", "hi"],
               [[c.model, c.coefficient, c.ci_low, c.ci_high]
                for c in report.comparisons])
    _write_manifest("equivalence", args,
                    [args.task, args.reference] + list(args.models),
                    [json_path, csv_path], started)
    return 0


def cmd_mix_sensitivity(args) -> int:
    started = _now()
    spec = _load_task(args)
    llm = _reference_map(args.llm, spec)
    expert = _reference_map(args.expert, spec, seed=args.seed)
    crowd = _reference_map(args.crowd, spec, seed=args.seed)
    cfg = MixConfig(
        alphas=tuple(_parse_float_list(args.alphas, "alpha")),
        replicates=args.replicates,
        seed=args.seed,
    )
    curve = sensitivity_curve(llm, expert, crowd, cfg, spec.kind)
    _ensure_outdir(args.out)
    csv_path = os.path.join(args.out, "curve.csv")
    _write_csv(csv_path, ["alpha", "mean_gap", "lo", "hi"],
               [[g.alpha, g.mean_gap, g.lo, g.hi] for g in curve])
    report = {
        "task_id": spec.task_id,
        "replicates": cfg.replicates,
        "seed": cfg.seed,
        "curve": [
            {"alpha": g.alpha, "mean_gap": g.mean_gap, "lo": g.lo, "hi": g.hi}
            for g in curve
        ],
    }
    json_path = os.path.join(args.out, "report.json")
    _write_json(json_path, report)
    _write_manifest("mix-sensitivity", args,
                    [args.task, args.llm, args.expert, args.crowd],
                    [csv_path, json_path], started)
    return 0


def cmd_simulate(args) -> int:
    started = _now()
    if args.sweep_e and args.sweep_coupling:
        raise UsageError("--sweep-e and --sweep-coupling are mutually exclusive")
    sweep_field, values = None, []
    if args.sweep_e:
        sweep_field, values = "error_rate", _parse_float_list(args.sweep_e, "error rate")
    elif args.sweep_coupling:
        sweep_field, values = "coupling", _parse_float_list(args.sweep_coupling, "coupling")
    cfg = load_sim_config(args.config)
    variant = load_sim_config(args.contrast) if args.contrast else None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
        if variant is not None:
            variant = replace(variant, seed=args.seed)

    if variant is not None:
        _check_contrast_pair(cfg, variant)
    points = [replace(cfg, **{sweep_field: v}) for v in values]
    # one kernel call for every distinct config: the base, the sweep points and
    # the variant share their draws, and a repeated config is simulated once
    grid = list(dict.fromkeys([cfg, *points] + ([variant] if variant is not None else [])))
    results = dict(zip(grid, simulate_many(grid)))
    result = results[cfg]
    rows = [[v, r.truth_agreement, r.reference_agreement, r.co_label_term,
             r.slope, r.chance_rate, r.measurement_error, r.identity_residual, r.std_error]
            for v, r in zip(values, map(results.__getitem__, points))]
    report = None if variant is None else contrast(cfg, variant, run=results.__getitem__)

    _ensure_outdir(args.out)
    json_path = os.path.join(args.out, "result.json")
    _write_json(json_path, {"config": cfg.to_json(), "result": result.to_json()})
    outputs = [json_path]
    if sweep_field:
        csv_path = os.path.join(args.out, "sweep.csv")
        _write_csv(csv_path, [
            sweep_field, "truth_agreement", "reference_agreement", "co_label_term",
            "slope", "chance_rate", "measurement_error", "identity_residual",
            "std_error",
        ], rows)
        outputs.append(csv_path)
    if report is not None:
        contrast_path = os.path.join(args.out, "contrast.json")
        _write_json(contrast_path, report.to_json())
        outputs.append(contrast_path)
    _write_manifest("simulate", args,
                    [args.config] + ([args.contrast] if args.contrast else []),
                    outputs, started)
    return 0


# -------------------------------------------------------------------- parser

def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--task", help="task spec JSON")
    common.add_argument("--seed", type=int, default=None, help="seed for any randomized step")

    parser = _Parser(prog="silicon", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                parser_class=_Parser)

    p = sub.add_parser("agreement", parents=[common],
                       help="chance-corrected agreement between annotators")
    p.add_argument("--a", required=True, help="annotation JSONL/CSV")
    p.add_argument("--b", help="second annotation file (optional if --a has many sources)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--confusion-csv", help="also write the confusion table")
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("baseline-compare", parents=[common],
                       help="expert vs crowd mean pairwise agreement")
    p.add_argument("--expert", required=True)
    p.add_argument("--crowd", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline_compare)

    p = sub.add_parser("annotate", parents=[common],
                       help="label items with an LLM endpoint, cache-first")
    p.add_argument("--items", required=True, help="JSONL of {item_id, text}")
    p.add_argument("--endpoint", required=True, help="endpoint config JSON")
    p.add_argument("--prompt", required=True, help="prompt config JSON")
    p.add_argument("--cache", required=True, help="response cache JSONL")
    p.add_argument("--out", required=True, help="annotation JSONL path")
    p.add_argument("--replay", action="store_true",
                   help="answer from the response cache only; any miss is an error")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("fsd", parents=[common],
                       help="per-item first-second distance from repeated runs")
    p.add_argument("--runs", required=True, help="annotation JSONL with run 0..n-1")
    p.add_argument("--source", help="model name when the file has several sources")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fsd)

    p = sub.add_parser("route-sweep", parents=[common],
                       help="agreement/cost curve for confidence-routed voting")
    p.add_argument("--focal", required=True, help="focal model runs JSONL")
    p.add_argument("--source", help="focal model name when the file has several sources")
    p.add_argument("--aux", action="append", required=True,
                   help="auxiliary annotation JSONL (repeatable)")
    p.add_argument("--reference", required=True)
    p.add_argument("--taus", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p.add_argument("--tie-rule", default=TieRule.KEEP_FOCAL.value,
                   choices=[r.value for r in TieRule])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_route_sweep)

    p = sub.add_parser("equivalence", parents=[common],
                       help="clustered logistic equivalence test of model accuracies")
    p.add_argument("--models", action="append", required=True,
                   help="model annotation JSONL (repeatable)")
    p.add_argument("--reference", required=True)
    p.add_argument("--baseline", help="baseline model name (default: first)")
    p.add_argument("--correction", default="CR0", choices=["CR0", "CR1"])
    p.add_argument("--tost-margin", type=float, default=None,
                   help="also run two one-sided tests against this log-odds margin")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_equivalence)

    p = sub.add_parser("mix-sensitivity", parents=[common],
                       help="kappa gap when crowd labels replace part of the expert reference")
    p.add_argument("--llm", required=True)
    p.add_argument("--expert", required=True)
    p.add_argument("--crowd", required=True)
    p.add_argument("--alphas", default="0,0.25,0.5,0.75,1")
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_mix_sensitivity)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo check of agreement against a noisy reference")
    p.add_argument("--config", required=True, help="sim config JSON")
    p.add_argument("--sweep-e", help="comma list of reference error rates")
    p.add_argument("--sweep-coupling", help="comma list of coupling values")
    p.add_argument("--contrast", help="variant sim config JSON to compare against")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            parser.print_usage(sys.stderr)
            return 1
        if args.seed is None and getattr(args, "func", None) is not cmd_simulate:
            args.seed = 0
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GatewayError as exc:
        print(f"gateway error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except SiliconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
