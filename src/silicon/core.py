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
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

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
        try:
            return cls(
                task_id=obj["task_id"],
                kind=TaskKind(obj["kind"]),
                label_universe=tuple(obj["labels"]),
                agreement_threshold=float(obj.get("threshold", 0.5)),
            )
        except (KeyError, ValueError) as exc:
            raise ValidationError(f"bad task spec: {exc}") from exc


def load_task_spec(path) -> TaskSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return TaskSpec.from_json(obj)


@dataclass(frozen=True, order=True)
class SourceId:
    """Who produced an annotation: (role, name)."""

    role: Role
    name: str

    def __post_init__(self):
        object.__setattr__(self, "role", Role(self.role))
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
        if not self.item_id:
            raise ValidationError("item_id must be non-empty")
        if self.run_index < 0:
            raise ValidationError("run index must be >= 0")


@dataclass(frozen=True)
class Dataset:
    """Validated collection of annotation records for one task."""

    spec: TaskSpec
    records: tuple[AnnotationRecord, ...] = field(default_factory=tuple)

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

    def __len__(self):
        return len(self.records)

    def item_ids(self) -> tuple[str, ...]:
        out, seen = [], set()
        for rec in self.records:
            if rec.item_id not in seen:
                seen.add(rec.item_id)
                out.append(rec.item_id)
        return tuple(out)

    def sources(self) -> tuple[SourceId, ...]:
        out, seen = [], set()
        for rec in self.records:
            if rec.source not in seen:
                seen.add(rec.source)
                out.append(rec.source)
        return tuple(out)

    def label_map(self, source: SourceId, run_index: int = 0) -> dict[str, LabelValue]:
        """item_id -> label for one source at one run index."""
        return {
            rec.item_id: rec.labels
            for rec in self.records
            if rec.source == source and rec.run_index == run_index
        }

    def runs(self, source: SourceId) -> dict[str, list[LabelValue]]:
        """item_id -> labels ordered by run index, for one source."""
        grouped: dict[str, list[tuple[int, LabelValue]]] = {}
        for rec in self.records:
            if rec.source == source:
                grouped.setdefault(rec.item_id, []).append((rec.run_index, rec.labels))
        return {item: [lab for _, lab in sorted(pairs)] for item, pairs in grouped.items()}


def _record_from_obj(obj: Mapping, spec: TaskSpec, where: str,
                     sources: dict, labels: dict) -> AnnotationRecord:
    """One record; `sources` and `labels` intern SourceIds and LabelValues across a file.

    A lookup that misses (or cannot hash) parses exactly as an uncached
    record would, and only successful parses are stored, so a bad record
    fails on its own line with its own message.
    """
    try:
        try:
            source = sources[obj["source"]["role"], obj["source"]["name"]]
        except (KeyError, TypeError):
            source = SourceId(role=Role(obj["source"]["role"]), name=obj["source"]["name"])
            if isinstance(source.name, str):
                sources[source.role, source.name] = source
        try:
            label = labels[tuple(obj["labels"])]
        except (KeyError, TypeError):
            # from_names only takes len() of and iterates the list, as tuple() does
            label = LabelValue.from_names(obj["labels"], spec)
            labels[tuple(obj["labels"])] = label
        return AnnotationRecord(
            item_id=obj["item_id"],
            source=source,
            labels=label,
            run_index=int(obj.get("run", 0)),
        )
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{where}: bad annotation record ({exc})") from exc


def load_dataset(path, spec: TaskSpec) -> Dataset:
    """Read annotations from JSONL (any task) or CSV (single-label tasks only)."""
    path = str(path)
    records = []
    sources: dict = {}
    labels: dict = {}
    if path.endswith(".csv"):
        if spec.kind is TaskKind.MULTILABEL:
            raise ValidationError("CSV ingestion supports single-label tasks only")
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            needed = {"item_id", "role", "name", "run", "label"}
            if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
                raise ValidationError(f"{path}: CSV must have columns {sorted(needed)}")
            for lineno, row in enumerate(reader, start=2):
                obj = {
                    "item_id": row["item_id"],
                    "source": {"role": row["role"], "name": row["name"]},
                    "run": row["run"],
                    "labels": [row["label"]],
                }
                records.append(_record_from_obj(obj, spec, f"{path}:{lineno}", sources, labels))
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
                records.append(_record_from_obj(obj, spec, f"{path}:{lineno}", sources, labels))
    return Dataset(spec=spec, records=tuple(records))


# One JSON line per record or cache entry: json.dumps(obj, sort_keys=True, ensure_ascii=False).
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a UTF-8 text file for writing at `path`, through a temp file beside
    it that replaces `path` only once the block completes.  A run that fails or
    is killed part-way leaves `path` as it was, never half-written; a failure
    inside the process also removes the temp file.  (No fsync: this guards
    against a crashed process, not a crashed host.)"""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline=newline)
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
    """Emit canonical JSONL. load(save(ds)) reproduces the records exactly."""
    with atomic_open(path) as fh:
        for rec in dataset.records:
            obj = {
                "item_id": rec.item_id,
                "source": rec.source.to_json(),
                "run": rec.run_index,
                "labels": rec.labels.to_names(dataset.spec),
            }
            fh.write(_JSONL_ENCODER.encode(obj) + "\n")


def _rng_from_seed(seed) -> np.random.Generator:
    """Philox generator for an int seed or a SeedSequence (an int is hashed through one)."""
    return np.random.Generator(np.random.Philox(seed))


def _pick(candidates: list, tie_rule: TieRule, seed, what: str):
    # candidates sorted ascending; callers guarantee non-empty
    if len(candidates) == 1:
        return candidates[0]
    if tie_rule is TieRule.ERROR:
        raise ValidationError(f"unresolved tie among {what}: {candidates!r}")
    if tie_rule is TieRule.RANDOM_SEEDED:
        if seed is None:
            raise ValidationError("tie_rule=random-seeded requires a seed")
        return candidates[int(_rng_from_seed(seed).integers(len(candidates)))]
    return candidates[0]  # lowest index


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
    """
    if len(labels) == 0:
        raise ValidationError("majority_vote needs at least one label")
    keep_focal = tie_rule is TieRule.KEEP_FOCAL
    if keep_focal and focal is None:
        raise ValidationError("keep-focal needs a focal label; plain majorities have none")
    for lab in labels:
        spec.validate_label(lab)
    if focal is not None:
        spec.validate_label(focal)

    n = len(labels)
    if spec.kind is not TaskKind.MULTILABEL:
        counts = Counter(lab.index for lab in labels)
        best = max(counts.values())
        cands = sorted(k for k, c in counts.items() if c == best)
        if keep_focal and focal.index in cands:
            return focal
        return LabelValue.single(_pick(cands, tie_rule, seed, "modal labels"))

    counts = Counter()
    for lab in labels:
        counts.update(lab.indices)
    included = {k for k, c in counts.items() if 2 * c > n}
    tied = sorted(k for k, c in counts.items() if 2 * c == n)
    if tied:
        if keep_focal:
            included.update(k for k in tied if k in focal.indices)
        elif tie_rule is TieRule.ERROR:
            raise ValidationError(f"per-category ties at exactly half: {tied!r}")
        elif tie_rule is TieRule.RANDOM_SEEDED:
            if seed is None:
                raise ValidationError("tie_rule=random-seeded requires a seed")
            rng = _rng_from_seed(seed)
            for k in tied:
                if rng.integers(2) == 1:
                    included.add(k)
    if not included:
        if keep_focal:
            return focal
        best = max(counts.values())
        cands = sorted(k for k, c in counts.items() if c == best)
        included = {_pick(cands, tie_rule, seed, "max-count categories")}
    return LabelValue.of(included)


def majority_reference(
    dataset: Dataset,
    role: Role | None = None,
    tie_rule: TieRule = TieRule.LOWEST_INDEX,
    seed: int | None = None,
) -> dict[str, LabelValue]:
    """Majority-vote labels per item across the dataset's sources (optionally one role).

    Items annotated by a single source pass through unchanged.  Uses run 0 of
    each source.
    """
    sources = [s for s in dataset.sources() if role is None or s.role == role]
    if not sources:
        raise ValidationError("no sources to aggregate")
    per_source = [dataset.label_map(s) for s in sources]
    out: dict[str, LabelValue] = {}
    for item in dataset.item_ids():
        votes = [m[item] for m in per_source if item in m]
        if votes:
            out[item] = majority_vote(votes, dataset.spec, tie_rule=tie_rule, seed=seed)
    return out
