"""Shared data model for annotation tasks: task specs, label values, records, majority votes.

A task fixes an ordered label universe.  Labels are stored as canonical tuples of
category indices into that universe: single-label tasks use one index, multilabel
tasks use a sorted deduplicated non-empty tuple.  "None of the above" must be an
explicit category; the empty set is never a legal label.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from itertools import chain
from json.decoder import scanstring
from operator import attrgetter
from typing import AbstractSet, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "SiliconError",
    "ValidationError",
    "TaskKind",
    "Role",
    "TieRule",
    "TaskSpec",
    "LabelValue",
    "SourceId",
    "AnnotationRecord",
    "Dataset",
    "load_task_spec",
    "load_dataset",
    "save_dataset",
    "majority_vote",
    "majority_reference",
]


class SiliconError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SiliconError):
    """Bad input data or configuration."""


class TaskKind(str, Enum):
    BINARY = "binary"
    MULTICLASS = "multiclass"
    MULTILABEL = "multilabel"


class Role(str, Enum):
    EXPERT = "expert"
    CROWD = "crowd"
    MODEL = "model"


class TieRule(str, Enum):
    """How vote ties are broken.

    KEEP_FOCAL only makes sense where a focal annotator exists (routing);
    majority_vote rejects it unless given a focal label.
    """

    LOWEST_INDEX = "lowest-index"
    ERROR = "error"
    RANDOM_SEEDED = "random-seeded"
    KEEP_FOCAL = "keep-focal"


@dataclass(frozen=True, order=True)
class LabelValue:
    """Canonical label: sorted, deduplicated, non-empty tuple of category indices."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.indices, tuple) or len(self.indices) == 0:
            raise ValidationError("label must hold at least one category index")
        if any(not isinstance(i, int) or i < 0 for i in self.indices):
            raise ValidationError(f"category indices must be non-negative ints: {self.indices!r}")
        if tuple(sorted(set(self.indices))) != self.indices:
            raise ValidationError(f"indices must be sorted and unique: {self.indices!r}")

    @classmethod
    def single(cls, index: int) -> "LabelValue":
        return cls((index,))

    @classmethod
    def of(cls, indices: Iterable[int]) -> "LabelValue":
        return cls(tuple(sorted(set(int(i) for i in indices))))

    @classmethod
    def from_names(cls, names: Sequence[str], spec: "TaskSpec") -> "LabelValue":
        if isinstance(names, str):  # not its characters
            raise ValidationError("labels must be a list, not str")
        if len(names) == 0:
            raise ValidationError("empty label list (use an explicit 'none' category)")
        if spec.kind is not TaskKind.MULTILABEL and len(names) != 1:
            raise ValidationError(
                f"{spec.kind.value} task takes exactly one label, got {list(names)!r}"
            )
        return cls.of(spec.index(n) for n in names)

    @property
    def index(self) -> int:
        """The category index of a single label; error on sets."""
        if len(self.indices) != 1:
            raise ValidationError(f"label {self.indices!r} is a set, not a single category")
        return self.indices[0]

    def to_names(self, spec: "TaskSpec") -> list[str]:
        return [spec.label_universe[i] for i in self.indices]

    def as_set(self) -> frozenset[int]:
        return frozenset(self.indices)


@dataclass(frozen=True)
class TaskSpec:
    """Annotation task definition: identifier, kind, ordered label universe, pass threshold."""

    task_id: str
    kind: TaskKind
    label_universe: tuple[str, ...]
    agreement_threshold: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "kind", TaskKind(self.kind))
        object.__setattr__(self, "label_universe", tuple(self.label_universe))
        if not self.task_id:
            raise ValidationError("task_id must be non-empty")
        labels = self.label_universe
        if len(labels) < 2:
            raise ValidationError("label universe needs at least 2 categories")
        if len(set(labels)) != len(labels):
            raise ValidationError("label universe entries must be unique")
        for name in labels:
            if not name or name != name.strip():
                raise ValidationError(f"bad label name {name!r}")
            # commas/newlines would break the CSV format and the response grammar
            if "," in name or "\n" in name:
                raise ValidationError(f"label name may not contain commas or newlines: {name!r}")
        if self.kind is TaskKind.BINARY and len(labels) != 2:
            raise ValidationError("binary task must have exactly 2 labels")
        if not -1.0 <= self.agreement_threshold <= 1.0:
            raise ValidationError("agreement_threshold must lie in [-1, 1]")

    @property
    def n_categories(self) -> int:
        return len(self.label_universe)

    def index(self, name: str) -> int:
        try:
            return self.label_universe.index(name)
        except ValueError:
            raise ValidationError(
                f"unknown label {name!r} for task {self.task_id!r}"
            ) from None

    def validate_label(self, label: LabelValue) -> None:
        if label.indices[-1] >= self.n_categories:
            raise ValidationError(
                f"label index {label.indices[-1]} out of range for task {self.task_id!r}"
            )
        if self.kind is not TaskKind.MULTILABEL and len(label.indices) != 1:
            raise ValidationError(f"{self.kind.value} task requires single labels")

    def to_json(self) -> dict:
        return {
            "task_id": self.task_id,
            "kind": self.kind.value,
            "labels": list(self.label_universe),
            "threshold": self.agreement_threshold,
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "TaskSpec":
        _json_object(obj, _TASK_KEYS, "task spec")
        try:
            return cls(
                task_id=_json_value(obj["task_id"], str, "task_id"),
                kind=TaskKind(_json_value(obj["kind"], str, "kind")),
                label_universe=tuple(_json_value(name, str, "labels")
                                     for name in _json_value(obj["labels"], list, "labels")),
                agreement_threshold=_json_value(obj.get("threshold", 0.5), float, "threshold"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad task spec: {exc}") from exc


_TASK_KEYS = frozenset({"task_id", "kind", "labels", "threshold"})


def load_task_spec(path) -> TaskSpec:
    with _read_json(path) as obj:
        return TaskSpec.from_json(obj)


# Every JSON input is read the same way: no value is coerced, and a config
# object may hold only the keys its reader knows.
_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               list: "a list"}


@contextmanager
def _open_text(path, newline: str | None = None):
    """Open the UTF-8 text file at `path` for reading.  A byte read in the
    block that is not UTF-8 is a ValidationError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 ({exc})") from exc


@contextmanager
def _read_json(path):
    """Yield the JSON value in the file at `path`.  A file that is not valid
    JSON, and a ValidationError raised in the block, are errors naming the file."""
    with _open_text(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    try:
        yield obj
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _json_value(value, kind: type, name: str, null: bool = False):
    """`value` if it is a JSON value of `kind`, else a TypeError naming `name`.

    `kind` is str, int (a JSON integer, not a bool), float (a JSON integer or
    fraction, returned as a float; a ValueError if no float holds it), bool or
    list; `null` also lets None through.
    """
    if type(value) is kind or value is None and null:
        return value
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large a number") from None
    raise TypeError(f"{name} must be {_KIND_NAMES[kind]}{' or null' if null else ''}, "
                    f"not {type(value).__name__}")


def _json_object(obj, known: AbstractSet[str], what: str) -> None:
    """Reject `obj` unless it is a JSON object whose keys are all in `known`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"bad {what}: expected a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - known)
    if unknown:
        raise ValidationError(f"bad {what}: unknown keys {unknown}; "
                              f"expected some of {sorted(known)}")


@dataclass(frozen=True, order=True)
class SourceId:
    """Who produced an annotation: (role, name)."""

    role: Role
    name: str

    def __post_init__(self):
        if not isinstance(self.role, str):  # a Role is a str
            raise ValidationError(f"role must be a string, not {type(self.role).__name__}")
        object.__setattr__(self, "role", Role(self.role))
        if type(self.name) is not str:
            raise ValidationError(f"name must be a string, not {type(self.name).__name__}")
        if not self.name:
            raise ValidationError("source name must be non-empty")

    def to_json(self) -> dict:
        return {"role": self.role.value, "name": self.name}


@dataclass(frozen=True)
class AnnotationRecord:
    item_id: str
    source: SourceId
    labels: LabelValue
    run_index: int = 0

    def __post_init__(self):
        _check_record(self.item_id, self.run_index)


def _check_record(item_id, run) -> None:
    """Reject an item id or run index that load_dataset would reject, in its words."""
    if type(item_id) is not str and type(item_id) is not int:
        raise ValidationError(
            f"item_id must be a string or an integer, not {type(item_id).__name__}")
    if type(run) is not int:
        raise ValidationError(f"run must be an integer, not {type(run).__name__}")
    if not item_id:
        raise ValidationError("item_id must be non-empty")
    if run < 0:
        raise ValidationError("run index must be >= 0")


class Dataset:
    """Annotation records for one task, stored as integer columns.

    Four int arrays hold one entry per record, in input order:

    - `item_code` indexes `item_ids()`, the distinct item ids;
    - `source_code` indexes `sources()`, the distinct SourceIds;
    - `run` is the run index;
    - `label_code` indexes `label_table`, the distinct LabelValues.

    Each table lists its values in first-seen order.  Every distinct label is
    validated against `spec` once, as it enters the table, and no
    (item, source, run) key occurs twice.  `Dataset(spec, records)` encodes
    the records it is given; `from_rows`, `load_dataset` and `concat` fill
    the columns without building records.  `records` is built from the
    columns on first use; `label_map`, `runs` and `code_matrix` read the
    columns on each call.
    """

    def __init__(self, spec: TaskSpec, records: Iterable[AnnotationRecord] = ()):
        records = tuple(records)
        self._fill_rows(spec, ((r.item_id, r.source, r.labels, r.run_index) for r in records))
        self._records = records

    @classmethod
    def from_rows(cls, spec: TaskSpec, rows: Iterable[tuple]) -> "Dataset":
        """The dataset of (item_id, source, label, run_index) rows, in AnnotationRecord
        field order, built without the records.  Each row is checked in turn as
        AnnotationRecord checks its fields and Dataset(spec, records) its label."""
        return cls.__new__(cls)._fill_rows(spec, rows)

    def _fill_rows(self, spec: TaskSpec, rows: Iterable[tuple]) -> "Dataset":
        cols = _Columns(spec)
        try:
            for item_id, source, label, run in rows:
                cols.add(item_id, cols.source(source), run, cols.label(label))
        except ValidationError:
            # a record-by-record check reports a duplicate before the first bad row
            cols.fill(self)
            raise
        return cols.fill(self)

    def _set_columns(self, spec, item_ids, sources, label_table,
                     item_code, source_code, run, label_code) -> "Dataset":
        self.spec = spec
        self._item_ids, self._sources, self.label_table = item_ids, sources, label_table
        self._source_index = {s: i for i, s in enumerate(sources)}
        self.item_code, self.source_code, self.run, self.label_code = (
            item_code, source_code, run, label_code)
        self._records = None
        _check_duplicates(self)
        return self

    @classmethod
    def concat(cls, datasets: Sequence["Dataset"]) -> "Dataset":
        """One dataset holding every record of `datasets`, in order.

        The columns are re-coded into merged tables and concatenated; labels
        are not validated again.  Keys repeated across datasets are rejected.
        """
        if not datasets:
            raise ValidationError("concat needs at least one dataset")
        if len(datasets) == 1:
            return datasets[0]
        spec = datasets[0].spec
        if any(ds.spec != spec for ds in datasets):
            raise ValidationError("cannot merge datasets of different tasks")
        items: dict = {}
        sources: dict = {}
        labels: dict = {}
        columns = []
        for ds in datasets:  # each table's codes -> merged codes, then the columns
            item_to = [items.setdefault(i, len(items)) for i in ds._item_ids]
            source_to = [sources.setdefault(s, len(sources)) for s in ds._sources]
            label_to = [labels.setdefault(lab, len(labels)) for lab in ds.label_table]
            columns.append((np.array(item_to, dtype=np.intp)[ds.item_code],
                            np.array(source_to, dtype=np.intp)[ds.source_code],
                            ds.run,
                            np.array(label_to, dtype=np.intp)[ds.label_code]))
        return cls.__new__(cls)._set_columns(
            spec, tuple(items), tuple(sources), tuple(labels),
            *(np.concatenate(col) for col in zip(*columns)))

    def __len__(self):
        return len(self.item_code)

    @property
    def records(self) -> tuple[AnnotationRecord, ...]:
        if self._records is None:
            items, sources, labels = self._item_ids, self._sources, self.label_table
            self._records = tuple(
                AnnotationRecord(items[i], sources[s], labels[lab], r)
                for i, s, r, lab in zip(self.item_code.tolist(), self.source_code.tolist(),
                                        self.run.tolist(), self.label_code.tolist()))
        return self._records

    def item_ids(self) -> tuple[str, ...]:
        return self._item_ids

    def sources(self) -> tuple[SourceId, ...]:
        return self._sources

    def label_map(self, source: SourceId, run_index: int = 0) -> dict[str, LabelValue]:
        """item_id -> label for one source at one run index."""
        code = self._source_index.get(source)
        if code is None:
            return {}
        rows = np.flatnonzero((self.source_code == code) & (self.run == run_index))
        items, labels = self._item_ids, self.label_table
        return {items[i]: labels[lab] for i, lab in zip(self.item_code[rows].tolist(),
                                                       self.label_code[rows].tolist())}

    def runs(self, source: SourceId) -> dict[str, list[LabelValue]]:
        """item_id -> labels ordered by run index, for one source.

        Items come in the order of their first record from that source.
        """
        code = self._source_index.get(source)
        if code is None:
            return {}
        rows = np.flatnonzero(self.source_code == code)
        item = self.item_code[rows]
        _, first, inverse = np.unique(item, return_index=True, return_inverse=True)
        order = np.lexsort((self.run[rows], first[inverse]))
        items, labels = self._item_ids, self.label_table
        out: dict[str, list[LabelValue]] = {}
        for i, lab in zip(item[order].tolist(), self.label_code[rows[order]].tolist()):
            out.setdefault(items[i], []).append(labels[lab])
        return out

    def code_matrix(self, sources: Sequence[SourceId]) -> np.ndarray:
        """items x sources label codes at run 0; -1 where a source has no label.

        Row i is item `item_ids()[i]`, column j is `sources[j]`, and codes
        index `label_table`.
        """
        column = np.full(len(self._sources), -1, dtype=np.intp)
        for j, source in enumerate(sources):
            if source in self._source_index:
                column[self._source_index[source]] = j
        col = column[self.source_code]
        rows = np.flatnonzero((col >= 0) & (self.run == 0))
        out = np.full((len(self._item_ids), len(sources)), -1, dtype=np.intp)
        out[self.item_code[rows], col[rows]] = self.label_code[rows]
        return out


class _Columns:
    """First-seen code tables and one row per record for building one
    Dataset: the row's item code in `item_rows`, and its (source, run, label)
    codes as one tuple in `key_rows`.  JSONL lines that differ only in their
    item id share one key tuple (see load_dataset).

    `source_keys` and `label_keys` map the raw JSON values of a record to
    codes, so a file parses each distinct source and label list once; a
    lookup that misses (or cannot hash) goes the slow way, and only
    successful parses are stored, so a bad record fails on its own line with
    its own message.
    """

    def __init__(self, spec: TaskSpec):
        self.spec = spec
        self.items: dict = {}
        self.sources: dict = {}
        self.labels: dict = {}            # LabelValue.indices -> code
        self.label_table: list[LabelValue] = []
        self.source_keys: dict = {}       # (role, name) as read -> code
        self.label_keys: dict = {}        # tuple of label names as read -> code
        self.item_rows: list[int] = []
        self.key_rows: list[tuple[int, int, int]] = []

    def source(self, source: SourceId) -> int:
        if type(source) is not SourceId:
            raise ValidationError(f"source must be a SourceId, not {type(source).__name__}")
        return self.sources.setdefault(source, len(self.sources))

    def label(self, label: LabelValue) -> int:
        if type(label) is not LabelValue:
            raise ValidationError(f"label must be a LabelValue, not {type(label).__name__}")
        code = self.labels.get(label.indices)
        if code is None:
            self.spec.validate_label(label)
            code = self.labels[label.indices] = len(self.label_table)
            self.label_table.append(label)
        return code

    def add(self, item_id, source: int, run: int, label: int) -> tuple[int, int, int]:
        """One row, checked as AnnotationRecord would check it; returns its
        (source, run, label) codes."""
        _check_record(item_id, run)
        key = source, run, label
        self.item_rows.append(self.items.setdefault(item_id, len(self.items)))
        self.key_rows.append(key)
        return key

    def add_obj(self, obj, path: str, lineno: int) -> tuple[int, int, int]:
        """One parsed JSON record; errors name `path:lineno`.  Returns its
        (source, run, label) codes.  Nothing is coerced: `role` and `name` are
        strings, `labels` a list of strings, `item_id` a string or an integer
        and `run` an integer (see _json_value)."""
        try:
            role, name = obj["source"]["role"], obj["source"]["name"]
            try:
                source = self.source_keys[role, name]
            except (KeyError, TypeError):
                source = self.source(SourceId(role=role, name=name))
                self.source_keys[role, name] = source
            names = _json_value(obj["labels"], list, "labels")
            try:
                label = self.label_keys[tuple(names)]
            except (KeyError, TypeError):
                for n in names:
                    _json_value(n, str, "each label")
                label = self.label(LabelValue.from_names(names, self.spec))
                self.label_keys[tuple(names)] = label
            return self.add(obj["item_id"], source, obj.get("run", 0), label)
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad annotation record ({exc})") from exc

    def fill(self, ds: Dataset, rows: slice | None = None) -> Dataset:
        """Give `ds` these columns, or just `rows` of them over the same
        tables; duplicate keys are rejected."""
        item_rows, key_rows = ((self.item_rows, self.key_rows) if rows is None
                               else (self.item_rows[rows], self.key_rows[rows]))
        n = len(key_rows)
        try:
            keys = np.fromiter(chain.from_iterable(key_rows), dtype=np.int64,
                               count=3 * n).reshape(n, 3).T.copy()
        except OverflowError:
            raise ValidationError("run index does not fit in 64 bits") from None
        return ds._set_columns(self.spec, tuple(self.items), tuple(self.sources),
                               tuple(self.label_table),
                               np.fromiter(item_rows, dtype=np.int64, count=n), *keys)


def _check_duplicates(ds: Dataset) -> None:
    """Reject a repeated (item, source, run) key, naming its earliest repeat."""
    n = len(ds)
    if n == 0:
        return
    n_sources, n_runs = len(ds._sources), int(ds.run.max()) + 1
    if len(ds._item_ids) * n_sources * n_runs < 2**63:
        key = (ds.item_code * n_sources + ds.source_code) * n_runs + ds.run
        _, first = np.unique(key, return_index=True)
    else:  # run indices too large to combine: compare (item, source, run) rows
        key = np.stack((ds.item_code, ds.source_code, ds.run), axis=1)
        _, first = np.unique(key, axis=0, return_index=True)
    if len(first) == n:
        return
    repeat = np.ones(n, dtype=bool)
    repeat[first] = False
    at = int(np.argmax(repeat))
    raise ValidationError(
        f"duplicate record for item={ds._item_ids[ds.item_code[at]]!r} "
        f"source={ds._sources[ds.source_code[at]].name!r} run={ds.run[at]}"
    )


# (value, end index) of the JSON value a string starts with: on a stripped line,
# json.loads without its BOM and whitespace checks.
_raw_decode = json.JSONDecoder().raw_decode


def _decode_line(line: str):
    """json.loads(line), by the C scanner alone when the line is one JSON value
    followed by nothing or by one newline; json.loads reruns on any other line,
    so it accepts, rejects and words each error exactly as before."""
    try:
        obj, end = _raw_decode(line)
        if end == len(line) or line[end:] == "\n":
            return obj
    except ValueError:
        pass
    return json.loads(line)


# Most tails one read of a JSONL file remembers (see _remember_tail).
_TAIL_MEMO_SIZE = 4096


def _remember_tail(memo: dict, tail, value, text: str, names: tuple[str, ...],
                   served: int, missed: int) -> dict | None:
    """The tail memo rule of load_dataset and AnnotationCache._scan.  They
    read a line's leading JSON string tokens with json's own scanner (as
    strict as json.loads) and look the rest of the line, the tail, up in
    `memo`.  Swapping one valid string token for another leaves a line valid
    and every other member unchanged, so a hit yields what a full decode
    would, unless a member of the tail repeats a scanned token's name.  A
    line that missed, decoded and passed its reader's checks stores `value`
    under `tail` only if `text`, the tail's text, holds neither a \\u escape
    nor one of the quoted member `names`: without a \\u escape a name is
    spelled out.  The memo holds at most _TAIL_MEMO_SIZE tails; once it is
    full and has missed more lines than it served, None drops it.
    """
    if len(memo) >= _TAIL_MEMO_SIZE:
        return None if missed > served else memo
    if "\\u" not in text:
        for name in names:
            if name in text:
                return memo
        memo[tail] = value
    return memo


# How every save_dataset line starts (and any record of its keys written with
# sort_keys=True); load_dataset reads the item id of such a line on its own.
_ITEM_FIRST = '{"item_id": "'


def load_dataset(path, spec: TaskSpec) -> Dataset:
    """Read annotations from JSONL (any task) or CSV (single-label tasks only).

    JSONL lines that differ only in their item id are decoded once: for a
    line that starts with `{"item_id": "`, the text after the item id's token
    is looked up in a memo of (source, run, label) codes (see _remember_tail).
    Lines with an empty item id, and all other lines, take the full decode,
    which words every error.
    """
    cols = _Columns(spec)
    _read_records(cols, str(path))
    return cols.fill(Dataset.__new__(Dataset))


def _read_records(cols: _Columns, path: str) -> None:
    """Append the records of the file at `path` to `cols` (see load_dataset)."""
    add = cols.add_obj
    if path.endswith(".csv"):
        if cols.spec.kind is TaskKind.MULTILABEL:
            raise ValidationError("CSV ingestion supports single-label tasks only")
        with _open_text(path, newline="") as fh:
            reader = csv.reader(fh)
            needed = ("item_id", "role", "name", "run", "label")
            try:
                header = next(reader, None)
                if header is None or not set(needed).issubset(header):
                    raise ValidationError(f"{path}: CSV must have columns {sorted(needed)}")
                at = {name: j for j, name in enumerate(header)}
                if len(at) < len(header):
                    repeated = next(name for j, name in enumerate(header) if at[name] != j)
                    raise ValidationError(f"{path}: CSV header repeats column {repeated!r}")
                item_at, role_at, name_at, run_at, label_at = (at[name] for name in needed)
                for row in reader:  # a row's line is its last: a quoted cell may span lines
                    if not row:
                        continue  # a blank line holds no record
                    if len(row) != len(header):
                        raise ValidationError(
                            f"{path}:{reader.line_num}: bad annotation record "
                            f"(row has {len(row)} cells, header has {len(header)})")
                    try:
                        run = int(row[run_at])  # CSV cells are text: the one explicit conversion
                    except ValueError as exc:
                        raise ValidationError(
                            f"{path}:{reader.line_num}: bad annotation record ({exc})") from exc
                    add({
                        "item_id": row[item_at],
                        "source": {"role": row[role_at], "name": row[name_at]},
                        "run": run,
                        "labels": [row[label_at]],
                    }, path, reader.line_num)
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                raise ValidationError(
                    f"{path}:{reader.line_num}: bad annotation record ({exc})") from exc
    else:
        items, item_rows, key_rows = cols.items, cols.item_rows, cols.key_rows
        memo: dict | None = {}            # tail -> (source, run, label) codes
        served = missed = 0
        with _open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                tail = None
                if memo is not None and line.startswith(_ITEM_FIRST):
                    try:
                        item_id, end = scanstring(line, len(_ITEM_FIRST), True)
                    except ValueError:
                        pass              # not valid JSON: the full decode words it
                    else:
                        tail = line[end:]
                        key = memo.get(tail)
                        if key is not None and item_id:  # a row as `add` appends it
                            item_rows.append(items.setdefault(item_id, len(items)))
                            key_rows.append(key)
                            served += 1
                            continue
                        missed += 1
                try:
                    obj = _decode_line(line)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
                key = add(obj, path, lineno)
                if tail is not None:
                    memo = _remember_tail(memo, tail, key, tail, ('"item_id"',), served, missed)


# One JSON line per record or cache entry: json.dumps(obj, sort_keys=True, ensure_ascii=False).
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a UTF-8 text file for writing at `path`, through a temp file beside
    it that replaces `path` only once the block completes.  A run that fails or
    is killed part-way leaves `path` as it was, never half-written; a failure
    inside the process also removes the temp file (no fsync: this guards against
    a crashed process, not a crashed host).  A lone surrogate is written as \\udXXXX."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", errors="backslashreplace", newline=newline)
    except OSError as exc:  # name the file the caller asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_dataset(dataset: Dataset, path) -> None:
    """Emit canonical JSONL. load(save(ds)) reproduces the records exactly.

    Each line is the record's json.dumps(sort_keys=True, ensure_ascii=False);
    every distinct item id, source and label list is encoded once and the
    lines are joined from those fragments in sorted-key order.
    """
    encode = _JSONL_ENCODER.encode
    with atomic_open(path) as fh:
        items = [encode(i) for i in dataset.item_ids()]
        sources = [encode(s.to_json()) for s in dataset.sources()]
        labels = [encode(lab.to_names(dataset.spec)) for lab in dataset.label_table]
        fh.writelines(
            f'{{"item_id": {items[i]}, "labels": {labels[lab]}, "run": {r}, '
            f'"source": {sources[s]}}}\n'
            for i, s, r, lab in zip(dataset.item_code.tolist(), dataset.source_code.tolist(),
                                    dataset.run.tolist(), dataset.label_code.tolist()))


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sorted_ids(ids: Iterable) -> list:
    """Item ids in sorted order.  JSON ids may be ints or strings, which do
    not compare: a mix of them is a ValidationError that names the types."""
    try:
        return sorted(ids)
    except TypeError:
        types = " and ".join(sorted({type(i).__name__ for i in ids}))
        raise ValidationError(f"item ids mix {types} and cannot be sorted") from None


def _label_codes(*columns: Iterable[LabelValue]) -> tuple[list[LabelValue], list[np.ndarray]]:
    """The one label coder of the analyses: the distinct labels of `columns`
    in LabelValue order, and each column's intp codes into them.  Labels are
    keyed by their `indices` tuple, which hashes in C; each column is read
    twice, so it must not be an iterator."""
    indices, table = attrgetter("indices"), {}
    for col in columns:
        table.update(zip(map(indices, col), col))
    keys = sorted(table)
    code = dict(zip(keys, range(len(keys))))
    return ([table[key] for key in keys],
            [np.fromiter(map(code.__getitem__, map(indices, col)), np.intp) for col in columns])


def _code_maps(maps: Sequence[Mapping]) -> tuple[list, list[LabelValue], np.ndarray]:
    """The {item -> label} maps as one code matrix: the items in first-seen
    order, the distinct labels from _label_codes (in LabelValue order), and an
    items x maps array of codes into those labels, -1 where a map lacks the
    item (the layout of Dataset.code_matrix)."""
    items = list(dict.fromkeys(chain.from_iterable(maps)))
    row = {item: r for r, item in enumerate(items)}
    table, codes = _label_codes(*(m.values() for m in maps))
    matrix = np.full((len(items), len(maps)), -1, dtype=np.intp)
    for col, (m, code) in enumerate(zip(maps, codes)):
        matrix[np.fromiter(map(row.__getitem__, m), np.intp, len(m)), col] = code
    return items, table, matrix


def _rng_from_seed(seed) -> np.random.Generator:
    """Philox generator for an int seed or a SeedSequence (an int is hashed through one)."""
    return np.random.Generator(np.random.Philox(seed))


def _vote(codes: np.ndarray, table: Sequence[LabelValue], spec: TaskSpec,
          tie_rule: TieRule, seed, focal: np.ndarray | None = None) -> list[LabelValue]:
    """The majority vote of every row of `codes`, under majority_vote's rules.

    `codes` is rows x voters, each code an index into `table` or -1 where a
    voter has no label; every row holds at least one vote.  The labels in
    `table` must already fit `spec`.  `focal` is each row's focal label as a
    code into `table` (read by keep-focal; it is not a vote).  Returns each
    row's voted label.  A row the tie rule cannot settle raises majority_vote's
    error for that row, first row first.

    No step loops over rows.  Each row's category counts come from a
    label -> category membership table, and every array is categories x rows,
    so a reduction over the categories is a few passes over the rows.  The tie
    draws do not depend on the row: majority_vote starts a fresh Philox(seed)
    for every pick and for each row's coin flips, so the pick among m
    candidates is one draw per m, and the j-th exact-half category of any row
    gets the j-th coin flip.
    """
    rows, k = len(codes), spec.n_categories
    keep_focal = tie_rule is TieRule.KEEP_FOCAL
    if keep_focal and focal is None and rows:
        raise ValidationError("keep-focal needs a focal label; plain majorities have none")
    if not rows:
        return []
    member = np.zeros((k, len(table) + 1), dtype=bool)  # the last column is code -1, no label
    for code, label in enumerate(table):
        member[label.indices, code] = True
    counts = np.zeros((k, rows), dtype=np.intp)
    n = np.zeros(rows, dtype=np.intp)
    for column in codes.T:
        counts += member[:, column]
        n += column >= 0
    focal_set = member[:, focal] if keep_focal else None
    seeded = tie_rule is TieRule.RANDOM_SEEDED and seed is not None

    if spec.kind is not TaskKind.MULTILABEL:
        what, half = "modal labels", np.zeros((k, rows), dtype=bool)
        included = np.zeros((k, rows), dtype=bool)
        pick = np.ones(rows, dtype=bool)
    else:  # strict majorities, then exact-half ties, then the max-count fallback
        what, included, half = "max-count categories", 2 * counts > n, 2 * counts == n
        if keep_focal:
            included |= half & focal_set
        elif seeded and half.any():
            flips = _rng_from_seed(seed).integers(2, size=half.sum(axis=0).max()) == 1
            included |= half & flips[np.cumsum(half, axis=0) - 1]
        pick = ~included.any(axis=0)
        if keep_focal:
            included |= focal_set & pick
            pick[:] = False
    cands = counts == counts.max(axis=0)
    if keep_focal:  # a single label keeps the focal label when it is a mode
        cands = np.where((cands & focal_set).any(axis=0), focal_set, cands)
    n_cands = cands.sum(axis=0)
    unsettled = half.any(axis=0) | (pick & (n_cands > 1))
    if tie_rule in (TieRule.ERROR, TieRule.RANDOM_SEEDED) and not seeded and unsettled.any():
        r = int(np.argmax(unsettled))
        if tie_rule is TieRule.RANDOM_SEEDED:
            raise ValidationError("tie_rule=random-seeded requires a seed")
        if half[:, r].any():
            raise ValidationError(
                f"per-category ties at exactly half: {np.flatnonzero(half[:, r]).tolist()!r}")
        raise ValidationError(
            f"unresolved tie among {what}: {np.flatnonzero(cands[:, r]).tolist()!r}")
    draws = np.zeros(k + 1, dtype=np.intp)  # the candidate a pick among m takes, lowest first
    if seeded:
        for m in np.unique(n_cands[pick & (n_cands > 1)]).tolist():
            draws[m] = _rng_from_seed(seed).integers(m)
    included |= cands & pick & (np.cumsum(cands, axis=0) == draws[n_cands] + 1)

    # one bytes key per category set: the table's labels, then each row's vote
    bits = np.packbits(np.hstack((member[:, :-1], included)), axis=0, bitorder="little")
    keys = np.ascontiguousarray(bits.T).view(f"V{len(bits)}").ravel().tolist()
    voted = dict(zip(keys, table))
    for key in dict.fromkeys(keys[len(table):]):
        if key not in voted:
            mask = int.from_bytes(key, "little")
            voted[key] = LabelValue(tuple(j for j in range(k) if mask >> j & 1))
    return list(map(voted.__getitem__, keys[len(table):]))


def majority_vote(
    labels: Sequence[LabelValue],
    spec: TaskSpec,
    tie_rule: TieRule = TieRule.LOWEST_INDEX,
    seed: int | None = None,
    focal: LabelValue | None = None,
) -> LabelValue:
    """Aggregate one item's labels across annotators.

    Single / multiclass: the modal label; ties among modes per tie_rule.
    Multilabel: a category is included iff strictly more than half of the
    annotators include it.  Exact-half counts (even n) are ties: lowest-index
    excludes them, error raises, random-seeded flips a seeded coin per
    category.  If nothing reaches a strict majority the vote falls back to the
    max-count categories (unique argmax wins outright, otherwise tie_rule).

    keep-focal needs the `focal` label (routing passes the focal model's): tied
    modes keep it when it is among them (else the lowest index wins),
    exact-half categories follow it, and an empty strict majority keeps it whole.

    The labels are checked against `spec`, then voted as one row of `_vote`.
    """
    if len(labels) == 0:
        raise ValidationError("majority_vote needs at least one label")
    if tie_rule is TieRule.KEEP_FOCAL and focal is None:
        raise ValidationError("keep-focal needs a focal label; plain majorities have none")
    table = [*labels] + ([] if focal is None else [focal])
    for lab in table:
        spec.validate_label(lab)
    n = len(labels)
    return _vote(np.arange(n)[None, :], table, spec, tie_rule, seed,
                 None if focal is None else np.array([n]))[0]


def majority_reference(
    dataset: Dataset,
    role: Role | None = None,
    tie_rule: TieRule = TieRule.LOWEST_INDEX,
    seed: int | None = None,
) -> dict[str, LabelValue]:
    """Majority-vote labels per item across the dataset's sources (optionally one role).

    Items annotated by a single source pass through unchanged.  Uses run 0 of
    each source.  Every item is voted at once from the code matrix, whose
    labels ingest has already checked.
    """
    sources = [s for s in dataset.sources() if role is None or s.role == role]
    if not sources:
        raise ValidationError("no sources to aggregate")
    matrix = dataset.code_matrix(sources)
    rows = np.flatnonzero((matrix >= 0).any(axis=1))
    voted = _vote(matrix[rows], dataset.label_table, dataset.spec, tie_rule, seed)
    return dict(zip(map(dataset.item_ids().__getitem__, rows.tolist()), voted))
