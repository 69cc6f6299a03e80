"""Command-line surface for the annotation toolkit.

Subcommands: agreement, baseline-compare, annotate, fsd, route-sweep,
equivalence, mix-sensitivity, simulate.  Each `cmd_*` returns the inputs it
read and the outputs it wrote; `run` then writes exactly one JSON manifest
beside those outputs, once they are complete, recording the inputs (with
digests), the output names, the seed, the version, a digest of the options,
and when the run `started` and `finished`; it records no per-stage timings.
`--task` is required by every subcommand except `simulate`, which takes none.
`--seed` defaults to 0, and for `simulate` to the config's own seed.  Exit
codes: 0 success, 1 bad input or usage, 2 runtime or transport failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict, replace

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
    _Columns,
    _JSONL_ENCODER,
    _check_record,
    _decode_line,
    _json_value,
    _label_codes,
    _now,
    _open_text,
    _read_records,
    atomic_open,
    load_dataset,
    load_task_spec,
    majority_reference,
    save_dataset,
)
from .equivalence import _CORRECTIONS, build_match_matrix_codes, fit_equivalence
from .equivalence import build_match_matrix  # unused here, but perfbench/tracing.py wraps this name
from .gateway import (
    GatewayError,
    _replay_mode,
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


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
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
        writer.writerows(map(_round_floats, rows))


def _write_manifest(args, inputs: list[str], outputs: list[str], started: str) -> None:
    """One manifest beside the outputs: <out>/manifest.json for directories,
    <out>.manifest.json for single files."""
    out = args.out
    if os.path.isdir(out):
        path = os.path.join(out, "manifest.json")
    else:
        path = out + ".manifest.json"
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "seed": args.seed,
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
    """Every record of `paths`, in order, read into one set of columns: the
    files share their tables, so nothing is re-coded, copied or checked for
    duplicates twice.  It fails as loading each file and concatenating them
    would: a file read in full reports its own duplicate key before a later
    file's error, and a key repeated across files names its earliest repeat."""
    cols = _Columns(spec)
    ends = [0]
    try:
        for path in paths:
            _read_records(cols, path)
            ends.append(len(cols.key_rows))
        return cols.fill(Dataset.__new__(Dataset))
    except ValidationError:
        for start, stop in zip(ends, ends[1:]):
            cols.fill(Dataset.__new__(Dataset), slice(start, stop))
        raise


def _reference_map(path: str, spec: TaskSpec):
    """The majority vote of the file's sources; one source is its own vote."""
    ds = load_dataset(path, spec)
    if not ds.sources():
        raise ValidationError(f"{path}: no annotation records")
    return majority_reference(ds)


def _report_json(rep) -> dict:
    return {
        "kappa": rep.kappa,
        "p_o": rep.p_o,
        "p_e": rep.p_e,
        "n_items": rep.n_items,
        "degenerate": rep.degenerate,
        "weighted": rep.weighted,
        "mean_kappa": rep.mean_kappa,
        # a PairKappa holds two strs, a float and an int: asdict's deep copy buys nothing
        "pairwise": [vars(p) for p in rep.pairwise],
    }


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as every seeded generator takes."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return seed


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty {what} list")
    return values


# ---------------------------------------------------------------- subcommands

def cmd_agreement(args) -> tuple[list[str], list[str]]:
    spec = load_task_spec(args.task)
    paths = [args.a] + ([args.b] if args.b else [])
    dataset = _merge_datasets(spec, paths)
    sources = _role_sources(dataset)
    if len(sources) < 2:
        raise ValidationError("agreement needs at least 2 annotation sources")
    if args.confusion_csv and len(sources) != 2:  # a confusion table is of one pair
        raise UsageError(f"--confusion-csv needs exactly 2 sources, found {len(sources)}")
    rep = _pairwise_kappa(dataset, sources, spec)
    report = _report_json(rep)
    report["task_id"] = spec.task_id
    report["sources"] = sorted(s.name for s in sources)
    _write_json(args.out, report)
    outputs = [args.out]
    if args.confusion_csv:
        names = ["|".join(c.to_names(spec)) for c in rep.categories]
        rows = [[names[i]] + [int(v) for v in rep.observed[i]] for i in range(len(names))]
        _write_csv(args.confusion_csv, ["category"] + names, rows)
        outputs.append(args.confusion_csv)
    return [args.task] + paths, outputs


def cmd_baseline_compare(args) -> tuple[list[str], list[str]]:
    spec = load_task_spec(args.task)
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
    return [args.task, args.expert, args.crowd], [args.out]


def cmd_annotate(args) -> tuple[list[str], list[str]]:
    args.replay = _replay_mode(args.replay or None)  # the mode the manifest records
    spec = load_task_spec(args.task)
    endpoint = load_endpoint(args.endpoint)
    cfg = load_prompt_config(args.prompt, spec)
    items = []
    with _open_text(args.items) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:  # extra keys are allowed: an item is data, not config
                obj = _decode_line(line)
                item_id, text = obj["item_id"], obj["text"]
                _check_record(item_id, 0)  # the records' item id rule; an item has no run
                items.append((item_id, _json_value(text, str, "text")))
            except (ValueError, KeyError, TypeError, ValidationError) as exc:
                raise ValidationError(f"{args.items}:{lineno}: bad item ({exc})") from exc
    cache = AnnotationCache(args.cache)
    if cache.dropped_tail:
        print(f"warning: {args.cache}: skipped a torn last line ({len(cache.dropped_tail)} "
              f"bytes); it is cut off before the next append", file=sys.stderr)
    annotations = annotate(endpoint, cfg, items, cache, replay=args.replay)
    dataset, failures = annotations_to_dataset(annotations, endpoint.name, spec)
    save_dataset(dataset, args.out)
    outputs, fail_path = [args.out], args.out + ".failures.jsonl"
    if failures:
        with atomic_open(fail_path) as fh:
            for f in failures:
                fh.write(_JSONL_ENCODER.encode(f) + "\n")
        outputs.append(fail_path)
    else:  # an earlier run's failures would outlive the output they were about
        with suppress(FileNotFoundError):
            os.remove(fail_path)
    return [args.task, args.items, args.endpoint, args.prompt, args.cache], outputs


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
    labels, (rank,) = _label_codes(dataset.label_table)
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
    return source, labels, columns


def cmd_fsd(args) -> tuple[list[str], list[str]]:
    spec = load_task_spec(args.task)
    dataset = load_dataset(args.runs, spec)
    source, labels, columns = _fsd_scores(dataset, args.source)
    with atomic_open(args.out) as fh:
        # each line is _JSONL_ENCODER.encode(record), joined from fragments it
        # writes: the source and each distinct label list once (names[-1] is
        # "null", no second label), and each item id
        encode = _JSONL_ENCODER.encode
        source_json = encode(source.to_json())
        names = [encode(lab.to_names(spec)) for lab in labels] + ["null"]
        fh.writelines(
            f'{{"fsd": {round(fsd, 6)!r}, "item_id": {encode(item)}, "method": "sampling", '
            f'"n_samples": {n}, "second_label": {names[second]}, "source": {source_json}, '
            f'"top_label": {names[top]}}}\n'
            for item, fsd, top, second, n in zip(*columns))
    return [args.task, args.runs], [args.out]


def cmd_route_sweep(args) -> tuple[list[str], list[str]]:
    spec = load_task_spec(args.task)
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
    reference = _reference_map(args.reference, spec)
    taus = _parse_float_list(args.taus, "tau")
    plan = RoutingPlan(
        focal=source.name,
        auxiliaries=tuple(aux_labels),
        tau=0.0,
        tie_rule=TieRule(args.tie_rule),
    )
    points = sweep(plan, taus, focal_labels, fsd, aux_labels, reference, spec,
                   seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "sweep.csv")
    _write_csv(csv_path, ["tau", "kappa", "q", "n_routed"],
               [[p.tau, p.kappa, p.q, p.n_routed] for p in points])
    best = max(points, key=lambda p: (p.kappa, -p.q))
    report = {
        "task_id": spec.task_id,
        "focal": source.name,
        "auxiliaries": sorted(aux_labels),
        "n_items": len(focal_labels),
        "points": [asdict(p) for p in points],
        "best": {"tau": best.tau, "kappa": best.kappa, "q": best.q},
    }
    json_path = os.path.join(args.out, "report.json")
    _write_json(json_path, report)
    return [args.task, args.focal, args.reference] + list(args.aux), [csv_path, json_path]


def cmd_equivalence(args) -> tuple[list[str], list[str]]:
    spec = load_task_spec(args.task)
    dataset = _merge_datasets(spec, list(args.models))
    models = _role_sources(dataset, Role.MODEL)
    if len(models) < 2:
        raise ValidationError("equivalence needs at least 2 model sources")
    reference = _reference_map(args.reference, spec)
    matrix = build_match_matrix_codes([s.name for s in models], dataset.item_ids(),
                                      dataset.label_table, dataset.code_matrix(models),
                                      reference, baseline_model=args.baseline)
    report = fit_equivalence(
        matrix, correction=args.correction, tost_margin=args.tost_margin
    )
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "report.json")
    _write_json(json_path, report.to_json())
    csv_path = os.path.join(args.out, "forest.csv")
    _write_csv(csv_path, ["model", "estimate", "lo", "hi"],
               [[c.model, c.coefficient, c.ci_low, c.ci_high]
                for c in report.comparisons])
    return [args.task, args.reference] + list(args.models), [json_path, csv_path]


def cmd_mix_sensitivity(args) -> tuple[list[str], list[str]]:
    spec = load_task_spec(args.task)
    llm = _reference_map(args.llm, spec)
    expert = _reference_map(args.expert, spec)
    crowd = _reference_map(args.crowd, spec)
    cfg = MixConfig(
        alphas=tuple(_parse_float_list(args.alphas, "alpha")),
        replicates=args.replicates,
        seed=args.seed,
    )
    curve = sensitivity_curve(llm, expert, crowd, cfg, spec.kind)
    os.makedirs(args.out, exist_ok=True)
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
    return [args.task, args.llm, args.expert, args.crowd], [csv_path, json_path]


def cmd_simulate(args) -> tuple[list[str], list[str]]:
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

    os.makedirs(args.out, exist_ok=True)
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
    return [args.config] + ([args.contrast] if args.contrast else []), outputs


# -------------------------------------------------------------------- parser

def _task_and_seed(p) -> None:
    p.add_argument("--task", required=True, help="task spec JSON")
    p.add_argument("--seed", type=_seed, default=0, help="seed for any randomized step")


def _agreement_args(p) -> None:
    _task_and_seed(p)
    p.add_argument("--a", required=True, help="annotation JSONL/CSV")
    p.add_argument("--b", help="second annotation file (optional if --a has many sources)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--confusion-csv", help="also write the confusion table (2 sources only)")


def _baseline_compare_args(p) -> None:
    _task_and_seed(p)
    p.add_argument("--expert", required=True)
    p.add_argument("--crowd", required=True)
    p.add_argument("--out", required=True)


def _annotate_args(p) -> None:
    _task_and_seed(p)
    p.add_argument("--items", required=True, help="JSONL of {item_id, text}")
    p.add_argument("--endpoint", required=True, help="endpoint config JSON")
    p.add_argument("--prompt", required=True, help="prompt config JSON")
    p.add_argument("--cache", required=True, help="response cache JSONL")
    p.add_argument("--out", required=True, help="annotation JSONL path")
    p.add_argument("--replay", action="store_true",
                   help="answer from the response cache only; any miss is an error")


def _fsd_args(p) -> None:
    _task_and_seed(p)
    p.add_argument("--runs", required=True, help="annotation JSONL with run 0..n-1")
    p.add_argument("--source", help="model name when the file has several sources")
    p.add_argument("--out", required=True)


def _route_sweep_args(p) -> None:
    _task_and_seed(p)
    p.add_argument("--focal", required=True, help="focal model runs JSONL")
    p.add_argument("--source", help="focal model name when the file has several sources")
    p.add_argument("--aux", action="append", required=True,
                   help="auxiliary annotation JSONL (repeatable)")
    p.add_argument("--reference", required=True)
    p.add_argument("--taus", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p.add_argument("--tie-rule", default=RoutingPlan.tie_rule.value,
                   choices=[r.value for r in TieRule])
    p.add_argument("--out", required=True, help="output directory")


def _equivalence_args(p) -> None:
    _task_and_seed(p)
    p.add_argument("--models", action="append", required=True,
                   help="model annotation JSONL (repeatable)")
    p.add_argument("--reference", required=True)
    p.add_argument("--baseline", help="baseline model name (default: first)")
    p.add_argument("--correction", default=_CORRECTIONS[0], choices=_CORRECTIONS)
    p.add_argument("--tost-margin", type=float, default=None,
                   help="also run two one-sided tests against this log-odds margin")
    p.add_argument("--out", required=True, help="output directory")


def _mix_sensitivity_args(p) -> None:
    _task_and_seed(p)
    p.add_argument("--llm", required=True)
    p.add_argument("--expert", required=True)
    p.add_argument("--crowd", required=True)
    p.add_argument("--alphas", default="0,0.25,0.5,0.75,1")
    p.add_argument("--replicates", type=int, default=MixConfig.replicates)
    p.add_argument("--out", required=True, help="output directory")


def _simulate_args(p) -> None:
    p.add_argument("--config", required=True, help="sim config JSON")
    p.add_argument("--seed", type=_seed, help="seed in place of the configs' own")
    sweeps = p.add_mutually_exclusive_group()
    sweeps.add_argument("--sweep-e", help="comma list of reference error rates")
    sweeps.add_argument("--sweep-coupling", help="comma list of coupling values")
    p.add_argument("--contrast", help="variant sim config JSON to compare against")
    p.add_argument("--out", required=True, help="output directory")


# name -> (help, function, argument adder), in the order `silicon -h` lists them
_SUBCOMMANDS = {
    "agreement": ("chance-corrected agreement between annotators",
                  cmd_agreement, _agreement_args),
    "baseline-compare": ("expert vs crowd mean pairwise agreement",
                         cmd_baseline_compare, _baseline_compare_args),
    "annotate": ("label items with an LLM endpoint, cache-first",
                 cmd_annotate, _annotate_args),
    "fsd": ("per-item first-second distance from repeated runs", cmd_fsd, _fsd_args),
    "route-sweep": ("agreement/cost curve for confidence-routed voting",
                    cmd_route_sweep, _route_sweep_args),
    "equivalence": ("clustered logistic equivalence test of model accuracies",
                    cmd_equivalence, _equivalence_args),
    "mix-sensitivity": ("kappa gap when crowd labels replace part of the expert reference",
                        cmd_mix_sensitivity, _mix_sensitivity_args),
    "simulate": ("Monte Carlo check of agreement against a noisy reference",
                 cmd_simulate, _simulate_args),
}


def _build_parser(names=None) -> _Parser:
    """The `silicon` parser with the subparsers of `names` (all of them if None)."""
    parser = _Parser(prog="silicon", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                parser_class=_Parser)
    for name, (text, func, add_arguments) in _SUBCOMMANDS.items():
        if names is None or name in names:
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a named subcommand needs only its own subparser; -h, --version and errors get all
    parser = _build_parser([argv[0]] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            parser.print_usage(sys.stderr)
            return 1
        started = _now()
        inputs, outputs = args.func(args)
        _write_manifest(args, inputs, outputs, started)
        return 0
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


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
