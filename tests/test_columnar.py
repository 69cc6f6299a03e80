"""The columnar Dataset against a frozen copy of the record-based code it replaced.

The oracle below is the record-per-object data path as it stood before the
columns: a Dataset of AnnotationRecords validated record by record, label_map
and runs as scans, and majority_reference over label maps; mean pairwise kappa
validating every label of every pair is in kappa_oracle.py.  Every report,
table and error message of the new code must equal the oracle's, floats bit
for bit.
"""

import csv
import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import pytest

from silicon import cli, core
from silicon.agreement import cohen_kappa, mean_pairwise_kappa
from silicon.core import (
    AnnotationRecord,
    Dataset,
    LabelValue,
    Role,
    SourceId,
    TaskKind,
    TaskSpec,
    TieRule,
    ValidationError,
    load_dataset,
    majority_reference,
    save_dataset,
)
from kappa_oracle import assert_reports_equal, old_cohen_kappa, old_mean_pairwise_kappa
from vote_oracle import oracle_majority_vote

# ------------------------------------------------------------- frozen oracle


@dataclass(frozen=True)
class OldDataset:
    spec: TaskSpec
    records: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        seen = set()
        for rec in self.records:
            self.spec.validate_label(rec.labels)
            key = (rec.item_id, rec.source, rec.run_index)
            if key in seen:
                raise ValidationError(
                    f"duplicate record for item={rec.item_id!r} source={rec.source.name!r} "
                    f"run={rec.run_index}"
                )
            seen.add(key)

    def item_ids(self):
        out, seen = [], set()
        for rec in self.records:
            if rec.item_id not in seen:
                seen.add(rec.item_id)
                out.append(rec.item_id)
        return tuple(out)

    def sources(self):
        out, seen = [], set()
        for rec in self.records:
            if rec.source not in seen:
                seen.add(rec.source)
                out.append(rec.source)
        return tuple(out)

    def label_map(self, source, run_index=0):
        return {
            rec.item_id: rec.labels
            for rec in self.records
            if rec.source == source and rec.run_index == run_index
        }

    def runs(self, source):
        grouped = {}
        for rec in self.records:
            if rec.source == source:
                grouped.setdefault(rec.item_id, []).append((rec.run_index, rec.labels))
        return {item: [lab for _, lab in sorted(pairs)] for item, pairs in grouped.items()}


def old_record_from_obj(obj, spec, where, sources, labels):
    # Changed on purpose when ingest stopped coercing: role, name and each
    # label must be strings, labels a list, item_id a string or an integer and
    # run an integer.  The record path used to take int() of the run, iterate
    # a string of labels as its characters, and take any name and item id.
    try:
        role, name = obj["source"]["role"], obj["source"]["name"]
        try:
            source = sources[role, name]
        except (KeyError, TypeError):
            if type(role) is not str:
                raise TypeError(f"role must be a string, not {type(role).__name__}")
            role = Role(role)
            if type(name) is not str:
                raise TypeError(f"name must be a string, not {type(name).__name__}")
            source = SourceId(role=role, name=name)
            sources[role.value, name] = source
        names = obj["labels"]
        if type(names) is not list:
            raise TypeError(f"labels must be a list, not {type(names).__name__}")
        try:
            label = labels[tuple(names)]
        except (KeyError, TypeError):
            for n in names:
                if type(n) is not str:
                    raise TypeError(f"each label must be a string, not {type(n).__name__}")
            label = LabelValue.from_names(names, spec)
            labels[tuple(names)] = label
        item_id = obj["item_id"]
        if type(item_id) not in (str, int):
            raise TypeError(f"item_id must be a string or an integer, "
                            f"not {type(item_id).__name__}")
        run = obj.get("run", 0)
        if type(run) is not int:
            raise TypeError(f"run must be an integer, not {type(run).__name__}")
        return AnnotationRecord(item_id=item_id, source=source, labels=label, run_index=run)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{where}: bad annotation record ({exc})") from exc


def old_load_dataset(path, spec):
    path = str(path)
    records, sources, labels = [], {}, {}
    if path.endswith(".csv"):
        if spec.kind is TaskKind.MULTILABEL:
            raise ValidationError("CSV ingestion supports single-label tasks only")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for lineno, row in enumerate(reader, start=2):
                try:
                    run = int(row["run"])
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}:{lineno}: bad annotation record ({exc})") from exc
                obj = {
                    "item_id": row["item_id"],
                    "source": {"role": row["role"], "name": row["name"]},
                    "run": run,
                    "labels": [row["label"]],
                }
                records.append(old_record_from_obj(obj, spec, f"{path}:{lineno}", sources, labels))
    else:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
                records.append(old_record_from_obj(obj, spec, f"{path}:{lineno}", sources, labels))
    return OldDataset(spec=spec, records=tuple(records))


def old_merge(spec, paths):
    records = []
    for path in paths:
        records.extend(old_load_dataset(path, spec).records)
    return OldDataset(spec=spec, records=tuple(records))


def old_majority_reference(dataset, role=None, tie_rule=TieRule.LOWEST_INDEX, seed=None):
    sources = [s for s in dataset.sources() if role is None or s.role == role]
    if not sources:
        raise ValidationError("no sources to aggregate")
    per_source = [dataset.label_map(s) for s in sources]
    out = {}
    for item in dataset.item_ids():
        votes = [m[item] for m in per_source if item in m]
        if votes:
            out[item] = oracle_majority_vote(votes, dataset.spec, tie_rule=tie_rule,
                                             seed=seed)
    return out


# ------------------------------------------------------------------ helpers

# not in sorted order, so names written in index order differ from sorted names
LABELS = ("gamma", "alpha", "ε", "beta", "δέλτα")
SPECS = {
    "multiclass": TaskSpec("t-mc", TaskKind.MULTICLASS, LABELS),
    "multilabel": TaskSpec("t-ml", TaskKind.MULTILABEL, LABELS),
}
ROLES = (Role.EXPERT, Role.CROWD, Role.MODEL)


def random_rows(rng, spec, n_items=30, n_sources=5, max_runs=3, p_missing=0.25, tag=""):
    """Shuffled JSON records: sources of every role, some with several runs,
    items missing for some sources, label lists in random order."""
    rows = []
    for j in range(n_sources):
        source = {"role": ROLES[j % 3].value, "name": f"src{tag}{j}-é"}
        runs = int(rng.integers(1, max_runs + 1))
        for i in rng.permutation(n_items):
            if rng.random() < p_missing:
                continue
            for run in range(runs):
                if spec.kind is TaskKind.MULTILABEL:
                    names = [LABELS[k] for k in rng.choice(len(LABELS), int(rng.integers(1, 4)),
                                                           replace=False)]
                else:
                    names = [LABELS[int(rng.integers(len(LABELS)))]]
                row = {"item_id": f"ítem-{i:03d}", "source": source, "labels": names}
                if run or rng.random() < 0.5:
                    row["run"] = run
                rows.append(row)
    return [rows[k] for k in rng.permutation(len(rows))]


def write_jsonl(path, rows, sort_keys=False):
    path.write_text("".join(json.dumps(r, ensure_ascii=False, sort_keys=sort_keys) + "\n"
                            for r in rows), encoding="utf-8")
    return path


def source_maps(ds):
    return {s.name: ds.label_map(s) for s in ds.sources()}


def assert_same_dataset(new, old):
    assert new.records == old.records
    assert len(new) == len(old.records)
    assert new.item_ids() == old.item_ids()
    assert new.sources() == old.sources()
    for s in old.sources():
        for run in range(4):
            got, want = new.label_map(s, run), old.label_map(s, run)
            assert got == want and list(got) == list(want)
        got, want = new.runs(s), old.runs(s)
        assert got == want and list(got) == list(want)
    missing = SourceId(Role.EXPERT, "nobody")
    assert new.label_map(missing) == {} and new.runs(missing) == {}


def assert_same_analyses(new, old):
    spec = new.spec
    for role in (None,) + ROLES:
        for tie_rule, seed in ((TieRule.LOWEST_INDEX, None), (TieRule.RANDOM_SEEDED, 5)):
            if not [s for s in old.sources() if role is None or s.role == role]:
                with pytest.raises(ValidationError, match="no sources"):
                    majority_reference(new, role=role)
                continue
            got = majority_reference(new, role, tie_rule, seed)
            want = old_majority_reference(old, role, tie_rule, seed)
            assert got == want and list(got) == list(want)
    new_maps, old_maps = source_maps(new), source_maps(old)
    assert_reports_equal(mean_pairwise_kappa(new_maps, spec.kind, spec),
                         old_mean_pairwise_kappa(old_maps, spec.kind, spec))
    for na, nb in combinations(list(old_maps), 2):  # each pair on its own
        pair = {na: new_maps[na], nb: new_maps[nb]}
        assert_reports_equal(mean_pairwise_kappa(pair, spec.kind, spec),
                             old_mean_pairwise_kappa(pair, spec.kind, spec))


def raised(fn, *args, **kwargs):
    with pytest.raises(ValidationError) as info:
        fn(*args, **kwargs)
    return str(info.value)


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("seed", range(6))
def test_random_files_match_the_record_oracle(tmp_path, kind, seed, sort_keys=False):
    spec = SPECS[kind]
    rng = np.random.default_rng([seed, len(kind)])
    path = write_jsonl(tmp_path / "ann.jsonl", random_rows(rng, spec), sort_keys)
    new, old = load_dataset(path, spec), old_load_dataset(path, spec)
    assert_same_dataset(new, old)
    assert_same_analyses(new, old)
    # built from records, or from their fields as rows, the dataset holds the same columns
    rows = [(r.item_id, r.source, r.labels, r.run_index) for r in old.records]
    for again in (Dataset(spec=spec, records=old.records), Dataset.from_rows(spec, rows)):
        assert again.records == old.records
        for name in ("item_code", "source_code", "run", "label_code"):
            assert np.array_equal(getattr(again, name), getattr(new, name))
        assert again.label_table == new.label_table


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("seed", range(6))
def test_sorted_key_files_match_the_record_oracle(tmp_path, kind, seed):
    """The same files with sorted keys, as save_dataset writes them: every
    line starts with its item id."""
    test_random_files_match_the_record_oracle(tmp_path, kind, seed, sort_keys=True)


@pytest.mark.parametrize("kind", sorted(SPECS))
@pytest.mark.parametrize("seed", range(4))
def test_two_merged_files_match_the_oracle(tmp_path, kind, seed):
    spec = SPECS[kind]
    rng = np.random.default_rng([seed, 99])
    # the second file shares items and adds sources, so its tables overlap the first's
    a = write_jsonl(tmp_path / "a.jsonl", random_rows(rng, spec, n_sources=3, tag="a"))
    b = write_jsonl(tmp_path / "b.jsonl", random_rows(rng, spec, n_items=40, n_sources=3,
                                                      tag="b"))
    paths = [str(a), str(b)]
    new, old = cli._merge_datasets(spec, paths), old_merge(spec, paths)
    assert_same_dataset(new, old)
    assert_same_analyses(new, old)
    # the public concat of the files loaded one by one gives the same dataset
    parts = [load_dataset(path, spec) for path in paths]
    assert_same_dataset(Dataset.concat(parts), old)
    assert Dataset.concat(parts[:1]) is parts[0]


def test_duplicate_across_merged_files(tmp_path):
    spec = SPECS["multiclass"]
    rows = random_rows(np.random.default_rng(3), spec, n_sources=2, max_runs=1, p_missing=0)
    a = write_jsonl(tmp_path / "a.jsonl", rows[:20])
    b = write_jsonl(tmp_path / "b.jsonl", rows[25:] + rows[7:9])
    paths = [str(a), str(b)]
    message = raised(old_merge, spec, paths)
    assert message.startswith("duplicate record")
    assert raised(cli._merge_datasets, spec, paths) == message
    parts = [load_dataset(path, spec) for path in paths]
    assert raised(Dataset.concat, parts) == message


def test_concat_rejects_mixed_tasks(tmp_path):
    rows = random_rows(np.random.default_rng(1), SPECS["multiclass"], n_sources=2)
    path = write_jsonl(tmp_path / "a.jsonl", rows)
    parts = [load_dataset(path, SPECS["multiclass"]), load_dataset(path, SPECS["multilabel"])]
    assert "different tasks" in raised(Dataset.concat, parts)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_min_common_error_matches(tmp_path, kind):
    spec = SPECS[kind]
    rows = random_rows(np.random.default_rng(8), spec, n_sources=3, max_runs=1, p_missing=0)
    # source 2 keeps a single item, so every pair with it shares too few
    rows = [r for r in rows if r["source"]["name"] != "src2-é" or r["item_id"] == "ítem-004"]
    path = write_jsonl(tmp_path / "ann.jsonl", rows)
    new, old = source_maps(load_dataset(path, spec)), source_maps(old_load_dataset(path, spec))
    message = raised(old_mean_pairwise_kappa, old, spec.kind, spec)
    assert "share only 1 items" in message
    assert raised(mean_pairwise_kappa, new, spec.kind, spec) == message
    for min_common in (0, 1):  # below 2, the pair's own size check speaks
        message = raised(old_mean_pairwise_kappa, old, spec.kind, spec, min_common)
        assert raised(mean_pairwise_kappa, new, spec.kind, spec, min_common) == message


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_int_and_str_item_ids(tmp_path, kind):
    """JSON item ids may be ints.  Only a pair's common items are ever sorted,
    so ids that do not compare across sources are no obstacle."""
    spec = SPECS[kind]
    items = {"A": ["x", "y", 1, 2], "B": ["y", "x"], "C": ["x", "y"]}
    rows = [{"item_id": item, "source": {"role": "crowd", "name": name},
             "labels": [LABELS[(i + j) % 3]]}
            for j, (name, ids) in enumerate(items.items()) for i, item in enumerate(ids)]
    path = write_jsonl(tmp_path / "ann.jsonl", rows)
    new, old = load_dataset(path, spec), old_load_dataset(path, spec)
    assert_same_dataset(new, old)
    assert_same_analyses(new, old)
    # no pair shares an item: the min_common message, not a failed sort
    disjoint = {"A": {1: LabelValue.single(0), 2: LabelValue.single(1)},
                "B": {"x": LabelValue.single(0), "y": LabelValue.single(1)}}
    message = raised(old_mean_pairwise_kappa, disjoint, spec.kind, spec)
    assert "share only 0 items" in message
    assert raised(mean_pairwise_kappa, disjoint, spec.kind, spec) == message


def test_bad_labels_reported_as_per_pair_validation_would():
    narrow = TaskSpec("t", TaskKind.MULTICLASS, ("a", "b"))
    rng = np.random.default_rng(4)
    for _ in range(40):
        maps = {}
        for name in ("x", "y", "z"):  # items listed out of sorted order
            maps[name] = {f"i{i}": LabelValue.of(rng.choice(4, int(rng.integers(1, 3)),
                                                            replace=False))
                          for i in rng.permutation(8) if rng.random() < 0.8}
        for kind in (TaskKind.MULTICLASS, TaskKind.MULTILABEL):
            for spec in (None, narrow):
                try:
                    want = old_mean_pairwise_kappa(maps, kind, spec)
                except ValidationError as exc:
                    assert raised(mean_pairwise_kappa, maps, kind, spec) == str(exc)
                else:
                    assert_reports_equal(mean_pairwise_kappa(maps, kind, spec), want)


def test_cohen_kappa_reports_first_bad_label():
    spec = TaskSpec("t", TaskKind.MULTICLASS, ("a", "b", "c"))
    a = [LabelValue.single(0), LabelValue.single(1), LabelValue.single(2)]
    for b in ([LabelValue.single(0), LabelValue.single(5), LabelValue.of([0, 1])],
              [LabelValue.single(0), LabelValue.of([0, 1]), LabelValue.single(5)]):
        assert raised(cohen_kappa, a, b, spec) == raised(old_cohen_kappa, a, b, spec)


def test_csv_ingest_matches(tmp_path):
    spec = SPECS["multiclass"]
    rows = random_rows(np.random.default_rng(12), spec)
    path = tmp_path / "ann.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id", "role", "name", "run", "label"])
        for r in rows:
            writer.writerow([r["item_id"], r["source"]["role"], r["source"]["name"],
                             r.get("run", 0), r["labels"][0]])
    new, old = load_dataset(path, spec), old_load_dataset(path, spec)
    assert_same_dataset(new, old)
    assert_same_analyses(new, old)
    bad = tmp_path / "bad.csv"
    bad.write_text(path.read_text(encoding="utf-8") + "i9,expert,e,-1,alpha\n", encoding="utf-8")
    assert raised(load_dataset, bad, spec) == raised(old_load_dataset, bad, spec)


def _line(item="i1", role="expert", name="e", run=0, labels=("alpha",)):
    return json.dumps({"item_id": item, "source": {"role": role, "name": name},
                       "run": run, "labels": list(labels)}) + "\n"


ERROR_FILES = {
    "duplicate key": _line() + _line("i2") + _line(run=1) + _line("i2"),
    "duplicate after good runs": _line() + _line(name="f") + _line(run=1) + _line(name="f"),
    "two duplicates": _line() + _line("i2") + _line("i2") + _line(),
    "unknown label": _line() + _line("i2", labels=("omega",)),
    "bad json": _line() + "\n" + '{"item_id": "i2", "source": \n',
    "extra data": _line() + _line("i2").strip() + " {}\n",
    "byte order mark": "\ufeff" + _line(),
    "empty item_id": _line() + _line(""),
    "negative run": _line() + _line("i2", run=-1),
    "bad run": _line() + _line("i2", run="two"),
    "missing source": _line() + '{"item_id": "i2", "labels": ["alpha"]}\n',
    "bad role": _line() + _line("i2", role="boss"),
    "not an object": _line() + "[1, 2]\n",
    "fault before a duplicate": _line() + _line() + _line("i3", labels=("omega",)),
    # the lines below share their text after the item id with an earlier line
    "known tail, extra data": _line() + _line("i2").strip() + "x\n",
    "known tail, unterminated item id": _line() + '{"item_id": "i2\n',
    "known tail, bad escape in item id": _line() + _line("i2").replace("i2", "i\\x2"),
    "known tail, raw control character in item id": _line() + _line("i2").replace("i2", "i\t2"),
    "known tail, raw control character at the end of the item id": (
        _line() + _line("i2").replace("i2", "i2\x1f")),
    "escaped item id repeats": _line("é").replace("\\u00e9", "é") + _line("é"),
    "tail repeats item_id": (_line("a").replace("}\n", ', "item_id": "i1"}\n')
                             + _line("b").replace("}\n", ', "item_id": "i1"}\n')),
    "tail repeats item_id, escaped": (
        _line("a").replace("}\n", ', "\\u0069tem_id": "i1"}\n')
        + _line("b").replace("}\n", ', "\\u0069tem_id": "i1"}\n')),
    "integer item ids repeat": _line(5) + _line("5") + _line(5),
    "spaced item id repeats": _line() + _line().replace('{"item_id": "i1"', '{ "item_id":"i1"'),
    # nothing is coerced: each field has one JSON type
    "labels a string": _line() + _line("i2").replace('["alpha"]', '"alpha"'),
    # tuple("ε") is the memo key of ["ε"]: the type is checked before the memo
    "labels a string that matches a known list": (
        _line(labels=("ε",)) + _line("i2").replace('["alpha"]', '"\\u03b5"')),
    "labels not strings": _line() + _line("i2", labels=(1,)),
    "labels a nested list": _line() + _line("i2", labels=(["alpha"],)),
    "role not a string": _line() + _line("i2", role=5),
    "name not a string": _line() + _line("i2", name=5),
    "bad role and name": _line() + _line("i2", role="boss", name=5),
    "item_id true": _line() + _line(True),
    "item_id a fraction": _line() + _line(1.5),
    "item_id null": _line() + _line(None),
    "run a numeric string": _line() + _line("i2", run="1"),
    "run a whole float": _line() + _line("i2", run=2.0),
    "run true": _line() + _line("i2", run=True),
}


@pytest.mark.parametrize("case", sorted(ERROR_FILES))
def test_ingest_errors_unchanged(tmp_path, case):
    path = tmp_path / "bad.jsonl"
    path.write_text(ERROR_FILES[case], encoding="utf-8")
    spec = SPECS["multiclass"]
    message = raised(old_load_dataset, path, spec)
    assert raised(load_dataset, path, spec) == message


# files for the merge error grid below, besides a few of ERROR_FILES
MERGE_FILES = {
    "good": _line("m1") + _line("m2", name="f"),
    "repeats good": _line("m2", name="f"),
    "own duplicate after a repeat": _line("m2", name="f") + _line("z") + _line("z"),
    **{case: ERROR_FILES[case] for case in (
        "duplicate key", "bad json", "unknown label", "known tail, extra data",
        "fault before a duplicate")},
}


@pytest.mark.parametrize("first", sorted(MERGE_FILES))
def test_merged_files_fail_as_the_record_oracle(tmp_path, first):
    """Every ordered pair and a few triples of files: a file read in full
    reports its own duplicate before a later file's fault or a key repeated
    across files, and each fault names its file and line."""
    spec = SPECS["multiclass"]
    paths = {}
    for k, (case, text) in enumerate(sorted(MERGE_FILES.items())):
        paths[case] = tmp_path / f"f{k}.jsonl"
        paths[case].write_text(text, encoding="utf-8")
    for rest in [[case] for case in sorted(MERGE_FILES)] + [["good", "bad json"],
                                                            ["repeats good", "good"]]:
        files = [str(paths[case]) for case in [first, *rest]]
        try:
            old = old_merge(spec, files)
        except ValidationError as exc:
            assert raised(cli._merge_datasets, spec, files) == str(exc), (first, rest)
        else:
            assert_same_dataset(cli._merge_datasets(spec, files), old)


def test_merged_run_overflow_comes_before_a_later_fault(tmp_path):
    """The record oracle stores any run; the columns stop at 64 bits, and a
    file whose run overflows fails before the next file is looked at, as
    loading each file and concatenating them does."""
    spec = SPECS["multiclass"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(_line(run=2**70), encoding="utf-8")
    b.write_text(ERROR_FILES["bad json"], encoding="utf-8")
    paths = [str(a), str(b)]
    message = raised(lambda: Dataset.concat([load_dataset(p, spec) for p in paths]))
    assert raised(cli._merge_datasets, spec, paths) == message == (
        "run index does not fit in 64 bits")


def test_merge_reads_each_file_into_one_set_of_columns(tmp_path, monkeypatch):
    """No file becomes a Dataset of its own, so nothing is concatenated."""
    spec = SPECS["multilabel"]
    rng = np.random.default_rng(12)
    paths = [str(write_jsonl(tmp_path / f"{k}.jsonl", random_rows(rng, spec, tag=str(k))))
             for k in range(3)]
    monkeypatch.setattr(Dataset, "concat", None)
    monkeypatch.setattr(cli, "load_dataset", None)
    assert_same_dataset(cli._merge_datasets(spec, paths), old_merge(spec, paths))


def test_concat_of_nothing_is_a_validation_error():
    assert raised(Dataset.concat, []) == "concat needs at least one dataset"


def test_item_ids_of_every_form_match_the_oracle(tmp_path):
    """Lines that share their text after the item id, with item ids that are
    escaped, astral, a lone surrogate, spaced differently, or overridden by a
    later item_id key, load as the record oracle loads them."""
    spec = SPECS["multiclass"]
    ids = ['plain', 'q\\"uote', 'back\\\\slash', '\\u00e9t\\u00e9', 'été-raw', '\\ud800',
           '\\ud83d\\ude00', '😀x', 'tab\\tbed', '\\u0000nul']
    lines = []
    for name, label in (("e", "alpha"), ("c", "beta")):
        tail = f', "labels": ["{label}"], "run": 0, "source": {{"name": "{name}", "role": "crowd"}}}}'
        lines += [f'{{"item_id": "{i}"{tail}' for i in ids]
        lines.append(f'{{ "item_id":"spaced"{tail}')
        lines.append(f'{{"item_id": "overridden"{tail[:-1]}, "item_id": "over-{name}"}}')
        lines.append(f'{{"item_id": "x"{tail[:-1]}, "\\u0069tem_id": "esc-over-{name}"}}')
    path = tmp_path / "ann.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    new, old = load_dataset(path, spec), old_load_dataset(path, spec)
    assert len(new) == len(lines)
    assert {"\ud800", "😀", "été", "over-e", "esc-over-c"} <= set(new.item_ids())
    assert_same_dataset(new, old)
    assert_same_analyses(new, old)


def test_a_tail_with_other_escapes_is_decoded_once(tmp_path, monkeypatch):
    """Only a \\u escape can spell a member name without its letters: a tail
    that holds other escapes, here a source name with a backslash and a
    quote, enters the memo, and the lines that repeat it are not decoded."""
    spec = SPECS["multiclass"]
    source = {"name": 'back\\slash "quoted"', "role": "model"}
    rows = [{"item_id": f"i{i}", "labels": ["alpha"], "run": 0, "source": source}
            for i in range(20)]
    path = write_jsonl(tmp_path / "ann.jsonl", rows, sort_keys=True)
    assert "\\\\" in path.read_text(encoding="utf-8")
    decoded, decode = [], core._decode_line
    monkeypatch.setattr(core, "_decode_line", lambda line: decoded.append(line) or decode(line))
    new = load_dataset(path, spec)
    assert len(decoded) == 1
    assert_same_dataset(new, old_load_dataset(path, spec))


@pytest.mark.parametrize("hits_first", [False, True])
def test_more_distinct_tails_than_the_memo_holds(tmp_path, hits_first):
    """Past core._TAIL_MEMO_SIZE distinct tails the memo takes no more, and
    once it has missed more lines than it served the rest of the file skips
    it.  Whether it stays on (5,000 hits first) or is dropped (the distinct
    tails first), the dataset is the oracle's."""
    spec = SPECS["multiclass"]
    source = {"name": "m", "role": "model"}

    def rows(prefix, n_items, runs):
        return [{"item_id": f"{prefix}{i}", "labels": [LABELS[run % 5]], "run": run,
                 "source": source} for run in runs for i in range(n_items)]

    distinct = rows("d", 1, range(100, 100 + core._TAIL_MEMO_SIZE + 50))
    repeated = rows("r", 1000, range(5))
    again = rows("s", 100, range(5))
    ordered = repeated + distinct + again if hits_first else distinct + repeated + again
    path = write_jsonl(tmp_path / "ann.jsonl", ordered, sort_keys=True)
    new, old = load_dataset(path, spec), old_load_dataset(path, spec)
    assert len(new) == len(ordered)
    assert_same_dataset(new, old)


def test_records_constructor_errors_unchanged():
    spec = SPECS["multiclass"]
    src = SourceId(Role.EXPERT, "e")
    good = [AnnotationRecord(f"i{i}", src, LabelValue.single(i % 3)) for i in range(4)]
    bad_label = AnnotationRecord("i9", src, LabelValue.single(7))
    for records in (good + [good[1]] + [bad_label],   # duplicate first
                    good + [bad_label] + [good[1]],   # bad label first
                    good + [AnnotationRecord("i9", src, LabelValue.of([0, 1]))]):
        assert raised(Dataset, spec, records) == raised(OldDataset, spec, records)
        rows = [(r.item_id, r.source, r.labels, r.run_index) for r in records]
        assert raised(Dataset.from_rows, spec, rows) == raised(OldDataset, spec, records)
    # rows skip AnnotationRecord, so they are checked as it checks its fields
    for row in (("", src, good[0].labels, 0), ("i9", src, good[0].labels, -1)):
        with pytest.raises(ValidationError) as info:
            AnnotationRecord(*row)
        assert raised(Dataset.from_rows, spec, [row]) == str(info.value)


def test_save_from_columns_round_trips_merged_data(tmp_path):
    spec = SPECS["multilabel"]
    rng = np.random.default_rng(21)
    a = write_jsonl(tmp_path / "a.jsonl", random_rows(rng, spec, tag="a"))
    b = write_jsonl(tmp_path / "b.jsonl", random_rows(rng, spec, tag="b"))
    merged = cli._merge_datasets(spec, [str(a), str(b)])
    out = tmp_path / "out.jsonl"
    save_dataset(merged, out)
    expected = "".join(
        json.dumps({"item_id": r.item_id, "source": r.source.to_json(), "run": r.run_index,
                    "labels": r.labels.to_names(spec)}, sort_keys=True, ensure_ascii=False)
        + "\n" for r in old_merge(spec, [str(a), str(b)]).records)
    assert out.read_bytes() == expected.encode("utf-8")
    assert load_dataset(out, spec).records == merged.records


def test_run_indices_too_large_to_combine(tmp_path):
    """Runs near 2**63 overflow the combined duplicate key; the check then
    compares (item, source, run) rows and still names the earliest repeat.
    A run past 64 bits cannot be stored in the run column."""
    spec = SPECS["multiclass"]
    big = 2**62 + 5
    path = tmp_path / "big.jsonl"
    path.write_text(_line(run=big) + _line("i2", run=big) + _line(run=0), encoding="utf-8")
    new, old = load_dataset(path, spec), old_load_dataset(path, spec)
    assert_same_dataset(new, old)
    assert [r.run_index for r in new.records] == [big, big, 0]
    path.write_text(ERROR_FILES["two duplicates"] + _line("i3", run=big) + _line("i3", run=big),
                    encoding="utf-8")
    assert raised(load_dataset, path, spec) == raised(old_load_dataset, path, spec)
    path.write_text(_line(run=2**70), encoding="utf-8")
    assert raised(load_dataset, path, spec) == "run index does not fit in 64 bits"
