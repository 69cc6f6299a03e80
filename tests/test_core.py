import json
import os

import numpy as np
import pytest

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
    _json_members,
    _json_value,
    atomic_open,
    load_dataset,
    load_task_spec,
    majority_reference,
    majority_vote,
    save_dataset,
)


def make_spec(kind="multiclass", labels=("alpha", "beta", "gamma", "delta")):
    return TaskSpec(task_id="t", kind=TaskKind(kind), label_universe=tuple(labels))


MULTI = make_spec("multilabel")
SINGLE = make_spec("multiclass")

# (field, JSON text, ingest's message) of record fields that ingest rejects
UNCOERCED_FIELDS = [
    ("labels", '"ab"', "labels must be a list, not str"),
    ("labels", '["a", 5]', "each label must be a string, not int"),
    ("labels", '[["a"]]', "each label must be a string, not list"),
    ("role", "5", "role must be a string, not int"),
    ("name", "5", "name must be a string, not int"),
    ("name", '["m"]', "name must be a string, not list"),
    ("name", '""', "source name must be non-empty"),
    ("item_id", "true", "item_id must be a string or an integer, not bool"),
    ("item_id", "1.5", "item_id must be a string or an integer, not float"),
    ("item_id", "1.0", "item_id must be a string or an integer, not float"),
    ("run", '"1"', "run must be an integer, not str"),
    ("run", "2.0", "run must be an integer, not float"),
]


class TestLabelValue:
    def test_canonical_construction(self):
        assert LabelValue.of([2, 0, 2]).indices == (0, 2)
        assert LabelValue.single(1).indices == (1,)
        assert LabelValue.of([3]).index == 3

    def test_rejects_empty_and_unsorted(self):
        with pytest.raises(ValidationError):
            LabelValue(())
        with pytest.raises(ValidationError):
            LabelValue((2, 1))
        with pytest.raises(ValidationError):
            LabelValue((1, 1))
        with pytest.raises(ValidationError):
            LabelValue((-1,))

    def test_names_round_trip(self):
        lab = LabelValue.from_names(["gamma", "alpha"], MULTI)
        assert lab.indices == (0, 2)
        assert lab.to_names(MULTI) == ["alpha", "gamma"]

    @pytest.mark.parametrize("kind", ["multilabel", "multiclass"])
    def test_names_are_a_list_not_a_string(self, kind):
        """A string is not the set of its characters, whatever the universe holds."""
        spec = make_spec(kind, labels=("a", "b", "ab"))
        for names in ("ab", "a"):
            with pytest.raises(ValidationError, match="labels must be a list, not str"):
                LabelValue.from_names(names, spec)
        assert LabelValue.from_names(("ab",), spec).indices == (2,)

    def test_single_label_task_rejects_sets(self):
        with pytest.raises(ValidationError):
            LabelValue.from_names(["alpha", "beta"], SINGLE)
        with pytest.raises(ValidationError):
            SINGLE.validate_label(LabelValue.of([0, 1]))

    def test_set_accessor_guards(self):
        with pytest.raises(ValidationError):
            LabelValue.of([0, 1]).index


class TestTaskSpec:
    def test_validation(self):
        with pytest.raises(ValidationError):
            make_spec(labels=("only",))
        with pytest.raises(ValidationError):
            make_spec(labels=("dup", "dup"))
        with pytest.raises(ValidationError):
            make_spec(labels=("a,b", "c"))
        with pytest.raises(ValidationError):
            TaskSpec(task_id="t", kind=TaskKind.BINARY, label_universe=("a", "b", "c"))
        with pytest.raises(ValidationError):
            TaskSpec(task_id="t", kind=TaskKind.BINARY, label_universe=("a", "b"),
                     agreement_threshold=2.0)

    @pytest.mark.parametrize("task_id, labels, message", [
        ("", ("a", "b"), "task_id must be non-empty"),
        ("t", ("a", ""), "bad label name ''"),
        ("t", ("a", " b"), "bad label name ' b'"),
    ])
    def test_empty_task_id_and_bad_label_names(self, task_id, labels, message):
        with pytest.raises(ValidationError, match=message):
            TaskSpec(task_id=task_id, kind=TaskKind.MULTICLASS, label_universe=labels)

    def test_json_round_trip(self):
        spec = make_spec()
        again = TaskSpec.from_json(spec.to_json())
        assert again == spec

    @pytest.mark.parametrize("change, message", [
        ({"labels": "ab"}, "labels must be a list, not str"),
        ({"labels": [1, 2]}, "labels must be a string, not int"),
        ({"treshold": 0.7}, r"unknown keys \['treshold'\]"),
        ({"threshold": None}, "threshold must be a number, not NoneType"),
        ({"threshold": True}, "threshold must be a number, not bool"),
        ({"threshold": "0.7"}, "threshold must be a number, not str"),
        ({"task_id": 5}, "task_id must be a string, not int"),
        ({"kind": ["multiclass"]}, "kind must be a string, not list"),
    ])
    def test_from_json_coerces_nothing(self, change, message):
        with pytest.raises(ValidationError, match=f"bad task spec: {message}"):
            TaskSpec.from_json({**make_spec().to_json(), **change})

    def test_from_json_needs_an_object(self):
        with pytest.raises(ValidationError, match="expected a JSON object, got list"):
            TaskSpec.from_json([["task_id", "t"]])

    def test_integer_threshold_is_a_number(self):
        spec = TaskSpec.from_json({**make_spec().to_json(), "threshold": 1})
        assert spec.agreement_threshold == 1.0 and type(spec.agreement_threshold) is float

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "task.json"
        path.write_text(json.dumps({**make_spec().to_json(), "labels": "ab"}), encoding="utf-8")
        with pytest.raises(ValidationError, match=f"^{path}: bad task spec: labels must be"):
            load_task_spec(path)


class TestJsonValue:
    @pytest.mark.parametrize("value, kind, expected", [
        ("a", str, "a"), (3, int, 3), (3, float, 3.0), (0.5, float, 0.5),
        (False, bool, False), ([1], list, [1]),
    ])
    def test_value_of_its_kind_passes(self, value, kind, expected):
        out = _json_value(value, kind, "x")
        assert out == expected and type(out) is type(expected)

    @pytest.mark.parametrize("value, kind, message", [
        (True, int, "x must be an integer, not bool"),
        (2.0, int, "x must be an integer, not float"),
        ("2", int, "x must be an integer, not str"),
        (True, float, "x must be a number, not bool"),
        ("0.5", float, "x must be a number, not str"),
        (1, bool, "x must be true or false, not int"),
        (5, str, "x must be a string, not int"),
        ("ab", list, "x must be a list, not str"),
        (None, str, "x must be a string, not NoneType"),
    ])
    def test_nothing_is_coerced(self, value, kind, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            _json_value(value, kind, "x")

    def test_integer_beyond_float_range(self):
        with pytest.raises(ValueError, match="^x is too large a number$"):
            _json_value(10**400, float, "x")

    def test_null(self):
        assert _json_value(None, str, "x", null=True) is None
        with pytest.raises(TypeError, match="^x must be a list or null, not str$"):
            _json_value("ab", list, "x", null=True)


def test_json_members_reads_by_kind_in_table_order():
    kinds = {"a": int, "b": [[float]], "c": (str, None), "d": None, "e": bool}
    assert _json_members({"b": [[1], []], "c": None, "d": object()}, kinds, "x") == {
        "b": ((1.0,), ()), "c": None}
    with pytest.raises(KeyError, match="'a'"):  # the first missing required member
        _json_members({}, kinds, "x", required=("e", "a"))
    with pytest.raises(TypeError, match="^p.b must be a number, not str$"):
        _json_members({"b": [["1"]], "e": 1}, kinds, "x", prefix="p.")
    with pytest.raises(ValidationError, match=r"^bad x: unknown keys \['f'\]"):
        _json_members({"f": 1}, kinds, "x")


class TestDatasetIO:
    def _records(self, spec):
        src_a = SourceId(role=Role.EXPERT, name="e1")
        src_b = SourceId(role=Role.MODEL, name="m1")
        return (
            AnnotationRecord("i1", src_a, LabelValue.single(0)),
            AnnotationRecord("i2", src_a, LabelValue.single(1)),
            AnnotationRecord("i1", src_b, LabelValue.single(2), run_index=0),
            AnnotationRecord("i1", src_b, LabelValue.single(0), run_index=1),
        )

    def test_round_trip_is_idempotent(self, tmp_path):
        spec = make_spec()
        ds = Dataset(spec=spec, records=self._records(spec))
        path = tmp_path / "ann.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path, spec)
        assert loaded.records == ds.records
        path2 = tmp_path / "ann2.jsonl"
        save_dataset(loaded, path2)
        assert path.read_text() == path2.read_text()

    def test_lone_surrogate_item_id_round_trips(self, tmp_path):
        """No UTF-8 holds a lone surrogate, so the file has its JSON escape."""
        spec = make_spec()
        src = SourceId(role=Role.MODEL, name="m1")
        records = tuple(AnnotationRecord(item, src, LabelValue.single(0), run_index=run)
                        for item in ("x", "\ud800") for run in (0, 1))
        path = tmp_path / "ann.jsonl"
        save_dataset(Dataset(spec=spec, records=records), path)
        assert path.read_bytes().count(b'"item_id": "\\ud800"') == 2
        loaded = load_dataset(path, spec)
        assert loaded.records == records
        assert loaded.item_ids() == ("x", "\ud800")

    def test_bytes_match_per_record_json_dumps(self, tmp_path):
        labels = ("naïve", "Übersicht", "日本")
        spec = make_spec("multilabel", labels)
        src = SourceId(role=Role.MODEL, name="modèle-α")
        others = [SourceId(role=Role.EXPERT, name="e1"),
                  SourceId(role=Role.CROWD, name="wörker\t2"),
                  SourceId(role=Role.MODEL, name='quote"back\\slash')]
        records = (
            AnnotationRecord("café-1", src, LabelValue.of([0, 2]), run_index=0),
            AnnotationRecord("ß“2”", src, LabelValue.single(1), run_index=3),
            AnnotationRecord("plain", others[0], LabelValue.of([0, 1, 2]), run_index=7),
        ) + tuple(
            # several sources and runs, items and labels repeating in interleaved order
            AnnotationRecord(item, source, LabelValue.of(lab), run_index=run)
            for run in (0, 1, 12)
            for item, lab in (("café-1", [1]), ("日本-\u2028", [0, 2]), ("plain", [1]))
            for source in others
        )
        path = tmp_path / "ann.jsonl"
        save_dataset(Dataset(spec=spec, records=records), path)
        expected = "".join(
            json.dumps({"item_id": r.item_id, "source": r.source.to_json(),
                        "run": r.run_index, "labels": r.labels.to_names(spec)},
                       sort_keys=True, ensure_ascii=False) + "\n"
            for r in records
        )
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("earlier", [None, "earlier content\n"])
    def test_failed_save_leaves_target_intact(self, tmp_path, monkeypatch, earlier):
        import silicon.core as core

        real = core._JSONL_ENCODER

        class FailsOnSecondRecord:
            calls = 0

            def encode(self, obj):
                self.calls += 1
                if self.calls == 2:
                    raise OSError("disk full")
                return real.encode(obj)

        spec = make_spec()
        path = tmp_path / "ann.jsonl"
        if earlier is not None:
            path.write_text(earlier, encoding="utf-8")
        monkeypatch.setattr(core, "_JSONL_ENCODER", FailsOnSecondRecord())
        with pytest.raises(OSError, match="disk full"):
            save_dataset(Dataset(spec=spec, records=self._records(spec)), path)
        assert os.listdir(tmp_path) == ([] if earlier is None else ["ann.jsonl"])
        if earlier is not None:
            assert path.read_text(encoding="utf-8") == earlier

    def test_atomic_open_replaces_only_on_success(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(path) as fh:
            fh.write("first\n")
            assert not path.exists()
        with pytest.raises(KeyboardInterrupt):
            with atomic_open(path) as fh:
                fh.write("second, cut short")
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_text(encoding="utf-8") == "first\n"

    def test_missing_directory_error_names_the_target(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(FileNotFoundError) as info:
            with atomic_open(path):
                pass
        assert info.value.filename == str(path)

    def test_duplicate_key_rejected(self):
        spec = make_spec()
        rec = self._records(spec)
        with pytest.raises(ValidationError):
            Dataset(spec=spec, records=rec + (rec[0],))

    def test_bad_line_reports_location(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "bad.jsonl"
        path.write_text('{"item_id": "i", "source": {"role": "expert", "name": "e"}, '
                        '"run": 0, "labels": ["alpha"]}\n{"nope": 1}\n')
        with pytest.raises(ValidationError, match="bad.jsonl:2"):
            load_dataset(path, spec)

    @pytest.mark.parametrize("run", ["1.7", "true", "false", "-0.5", "1e999", "NaN", '"1"', "1.0",
                                     "-0.0", "null"])
    def test_run_that_is_not_a_whole_number_rejected(self, tmp_path, run):
        """A run that is not a JSON integer is an error on its own line, not a
        run index made by int(): `true`, `1.7`, `"1"` and `1.0` would load as
        run 1 and read as a duplicate of line 1."""
        spec = make_spec()
        path = tmp_path / "bad.jsonl"
        line = '{"item_id": "i", "source": {"role": "expert", "name": "e"}, "run": %s, ' \
               '"labels": ["alpha"]}\n'
        path.write_text(line % "1" + line % run)
        with pytest.raises(ValidationError, match=r"bad.jsonl:2: bad annotation record") as exc:
            load_dataset(path, spec)
        assert "duplicate" not in str(exc.value)

    def test_integer_runs_accepted(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "ann.jsonl"
        line = '{"item_id": "%s", "source": {"role": "expert", "name": "e"}, "run": %s, ' \
               '"labels": ["alpha"]}\n'
        path.write_text(line % ("i1", "2") + line % ("i2", "3") + line % ("i3", "-0")
                        + line % ("i1", "4") + line % ("i2", "2"))
        assert [rec.run_index for rec in load_dataset(path, spec).records] == [2, 3, 0, 4, 2]

    @pytest.mark.parametrize("field, value, message", UNCOERCED_FIELDS)
    def test_record_fields_are_not_coerced(self, tmp_path, field, value, message):
        """Each field of a record has one JSON type: `"labels": "ab"` is not the
        set {a, b}, and a name, item id or run of another type is not converted.
        A line that repeats a good line's values, bar one field, is still an
        error, whatever ingest remembers of the good line."""
        spec = make_spec("multilabel", ("a", "b", "ab"))
        fields = {"item_id": '"i2"', "role": '"model"', "name": '"m"', "run": "0",
                  "labels": '["a", "b"]'}
        line = '{{"item_id": {item_id}, "source": {{"role": {role}, "name": {name}}}, ' \
               '"run": {run}, "labels": {labels}}}\n'
        path = tmp_path / "bad.jsonl"
        path.write_text(line.format(**{**fields, "item_id": '"i1"'})
                        + line.format(**{**fields, field: value}))
        with pytest.raises(ValidationError) as exc:
            load_dataset(path, spec)
        assert str(exc.value) == f"{path}:2: bad annotation record ({message})"

    @pytest.mark.parametrize("field, value, message", UNCOERCED_FIELDS)
    def test_from_rows_rejects_what_ingest_rejects(self, field, value, message):
        """The constructors check what load_dataset checks, in its words, so
        no dataset built in Python saves a file that cannot be loaded.  A
        label that is not a LabelValue is rejected as such."""
        spec = make_spec("multilabel", ("a", "b", "ab"))
        fields = {"item_id": "i2", "role": "model", "name": "m", "run": 0,
                  "labels": LabelValue.of([0, 1]), field: json.loads(value)}

        def row():
            return (fields["item_id"], SourceId(role=fields["role"], name=fields["name"]),
                    fields["labels"], fields["run"])

        with pytest.raises(ValidationError) as exc:
            Dataset.from_rows(spec, [("i1", SourceId(Role.MODEL, "m"), LabelValue.of([0]), 0),
                                     row()])
        if field == "labels":
            kind = type(fields["labels"]).__name__
            assert str(exc.value) == f"label must be a LabelValue, not {kind}"
            return
        assert str(exc.value) == message
        if field in ("item_id", "run"):
            with pytest.raises(ValidationError, match=f"^{message}$"):
                AnnotationRecord(fields["item_id"], SourceId(Role.MODEL, "m"),
                                 fields["labels"], fields["run"])

    def test_from_rows_rejects_a_source_that_is_not_a_source_id(self):
        with pytest.raises(ValidationError, match="^source must be a SourceId, not tuple$"):
            Dataset.from_rows(SINGLE, [("i1", ("expert", "e"), LabelValue.single(0), 0)])

    def test_whatever_from_rows_accepts_survives_save_and_load(self, tmp_path):
        """Random rows drawn from good and bad values of every field: each
        dataset that from_rows builds loads back from its saved file unchanged."""
        spec = make_spec("multilabel", ("a", "b", "ab"))
        fields = [  # (good values, bad values) of each row field
            (["i1", "é “q” \\ \n\t\x00", 7, 2**70, -3], [0, "", True, 1.5, None, ("i",)]),
            ([SourceId(Role.EXPERT, "e"), SourceId(Role.MODEL, "m\"\\\u2028"),
              SourceId(Role.CROWD, "c" * 300)], ["expert", None]),
            ([LabelValue.of([0]), LabelValue.of([0, 1, 2]), LabelValue.of([2])], [(0,), "a"]),
            ([0, 1, 2**63 - 1], [2**63, -1, True, 1.0, "1", None]),
        ]
        rng = np.random.default_rng(5)

        def draw(good, bad):
            values = good if rng.random() < 0.9 else bad
            return values[rng.integers(len(values))]

        built = 0
        for trial in range(300):
            rows = [tuple(draw(*f) for f in fields) for _ in range(rng.integers(1, 4))]
            try:
                ds = Dataset.from_rows(spec, rows)
            except ValidationError:
                continue
            built += 1
            path = tmp_path / f"ds{trial}.jsonl"
            save_dataset(ds, path)
            loaded = load_dataset(path, spec)
            assert loaded.records == ds.records
            assert [type(i) for i in loaded.item_ids()] == [type(i) for i in ds.item_ids()]
        assert 50 <= built < 300

    def test_csv_runs_are_converted_from_text(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "ann.csv"
        path.write_text("item_id,role,name,run,label\ni1,expert,e,0,alpha\ni1,expert,e,2,beta\n")
        assert [rec.run_index for rec in load_dataset(path, spec).records] == [0, 2]
        path.write_text("item_id,role,name,run,label\ni1,expert,e,0,alpha\ni1,expert,e,1.0,beta\n")
        with pytest.raises(ValidationError, match=r"ann.csv:3: bad annotation record"):
            load_dataset(path, spec)

    def test_unknown_label_rejected(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "bad.jsonl"
        path.write_text('{"item_id": "i", "source": {"role": "expert", "name": "e"}, '
                        '"run": 0, "labels": ["omega"]}\n')
        with pytest.raises(ValidationError, match="omega"):
            load_dataset(path, spec)

    def test_csv_single_label(self, tmp_path):
        spec = make_spec()
        path = tmp_path / "ann.csv"
        path.write_text(
            "item_id,role,name,run,label\n"
            "i1,expert,e1,0,alpha\n"
            "i2,crowd,c1,0,beta\n"
        )
        ds = load_dataset(path, spec)
        assert len(ds) == 2
        assert ds.records[1].labels == LabelValue.single(1)

    def test_csv_rejected_for_multilabel(self, tmp_path):
        path = tmp_path / "ann.csv"
        path.write_text("item_id,role,name,run,label\ni,expert,e,0,alpha\n")
        with pytest.raises(ValidationError, match="single-label"):
            load_dataset(path, MULTI)

    def test_empty_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"item_id": "i", "source": {"role": "expert", "name": "e"}, '
                        '"run": 0, "labels": []}\n')
        with pytest.raises(ValidationError):
            load_dataset(path, MULTI)

    def test_interned_labels_still_fail_on_their_own_line(self, tmp_path):
        def line(labels, role="expert", item="i"):
            return json.dumps({"item_id": item, "source": {"role": role, "name": "e"},
                               "run": 0, "labels": labels}) + "\n"

        path = tmp_path / "bad.jsonl"
        good = line(["alpha", "beta"], item="i1") + line(["alpha", "beta"], item="i2")
        cases = [
            (MULTI, line(["alpha", "omega"]), "omega"),
            (MULTI, line(["alpha", "beta"], role="boss"), "boss"),
            (MULTI, line("alpha"), "labels must be a list, not str"),
            (MULTI, line([["alpha"]]), "each label must be a string, not list"),
            (SINGLE, line(["alpha", "beta"]), "exactly one label"),
        ]
        for spec, bad, message in cases:
            first = good if spec is MULTI else line(["alpha"], item="i1") + line(["beta"], item="i2")
            path.write_text(first + bad)
            with pytest.raises(ValidationError, match="bad.jsonl:3") as exc:
                load_dataset(path, spec)
            assert message in str(exc.value)

    def test_repeated_label_lists_give_equal_labels(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rows = [("i1", ["beta", "alpha"]), ("i2", ["alpha", "beta"]), ("i3", ["alpha", "beta"]),
                ("i4", ["gamma"])]
        path.write_text("".join(
            json.dumps({"item_id": item, "source": {"role": role, "name": "n"},
                        "run": 0, "labels": labels}) + "\n"
            for role in ("expert", "crowd") for item, labels in rows))
        ds = load_dataset(path, MULTI)
        assert [rec.labels for rec in ds.records] == [
            LabelValue.of([0, 1]), LabelValue.of([0, 1]), LabelValue.of([0, 1]), LabelValue.of([2]),
        ] * 2
        assert [rec.source for rec in ds.records] == (
            [SourceId(Role.EXPERT, "n")] * 4 + [SourceId(Role.CROWD, "n")] * 4)


def _vote_count_oracle(label_sets, n_categories):
    """Independent per-category counting used to freeze expected votes."""
    counts = {}
    for s in label_sets:
        for k in s:
            counts[k] = counts.get(k, 0) + 1
    n = len(label_sets)
    majority = {k for k, c in counts.items() if c * 2 > n}
    return counts, majority


class TestMajorityVoteSingle:
    def test_modal_label(self):
        votes = [LabelValue.single(i) for i in (0, 0, 1)]
        assert majority_vote(votes, SINGLE) == LabelValue.single(0)

    def test_tie_lowest_index(self):
        votes = [LabelValue.single(1), LabelValue.single(0)]
        assert majority_vote(votes, SINGLE) == LabelValue.single(0)

    def test_tie_error(self):
        votes = [LabelValue.single(1), LabelValue.single(0)]
        with pytest.raises(ValidationError):
            majority_vote(votes, SINGLE, tie_rule=TieRule.ERROR)

    def test_tie_random_seeded_is_deterministic(self):
        votes = [LabelValue.single(1), LabelValue.single(0)]
        picks = {
            majority_vote(votes, SINGLE, tie_rule=TieRule.RANDOM_SEEDED, seed=s).index
            for s in range(16)
        }
        assert picks == {0, 1}
        again = majority_vote(votes, SINGLE, tie_rule=TieRule.RANDOM_SEEDED, seed=3)
        assert again == majority_vote(votes, SINGLE, tie_rule=TieRule.RANDOM_SEEDED, seed=3)

    def test_random_seeded_requires_seed(self):
        votes = [LabelValue.single(1), LabelValue.single(0)]
        with pytest.raises(ValidationError):
            majority_vote(votes, SINGLE, tie_rule=TieRule.RANDOM_SEEDED)

    def test_keep_focal_rejected(self):
        with pytest.raises(ValidationError):
            majority_vote([LabelValue.single(0)], SINGLE, tie_rule=TieRule.KEEP_FOCAL)

    def test_keep_focal_tie(self):
        votes = [LabelValue.single(2), LabelValue.single(1), LabelValue.single(0)]
        keep = TieRule.KEEP_FOCAL
        assert majority_vote(votes, SINGLE, keep, focal=LabelValue.single(2)).index == 2
        # a focal label outside the modes does not win; the lowest mode does
        votes = [LabelValue.single(2), LabelValue.single(1), LabelValue.single(2),
                 LabelValue.single(1)]
        assert majority_vote(votes, SINGLE, keep, focal=LabelValue.single(0)).index == 1
        # without a tie the mode wins whatever the focal label
        votes = [LabelValue.single(1), LabelValue.single(1), LabelValue.single(0)]
        assert majority_vote(votes, SINGLE, keep, focal=LabelValue.single(0)).index == 1


class TestMajorityVoteMultilabel:
    def test_strict_per_category_majority(self):
        # {p,q}, {p}, {q,r}: both p and q are included by 2 of 3 annotators
        votes = [LabelValue.of([0, 1]), LabelValue.of([0]), LabelValue.of([1, 2])]
        counts, majority = _vote_count_oracle([{0, 1}, {0}, {1, 2}], 4)
        assert counts == {0: 2, 1: 2, 2: 1}
        assert majority == {0, 1}
        assert majority_vote(votes, MULTI) == LabelValue.of([0, 1])

    def test_exact_half_tie_excluded_by_default(self):
        votes = [LabelValue.of([0, 1]), LabelValue.of([0])]
        assert majority_vote(votes, MULTI) == LabelValue.of([0])

    def test_exact_half_tie_error(self):
        votes = [LabelValue.of([0, 1]), LabelValue.of([0])]
        with pytest.raises(ValidationError):
            majority_vote(votes, MULTI, tie_rule=TieRule.ERROR)

    def test_exact_half_tie_random_seeded(self):
        votes = [LabelValue.of([0, 1]), LabelValue.of([0])]
        outcomes = {
            majority_vote(votes, MULTI, tie_rule=TieRule.RANDOM_SEEDED, seed=s)
            for s in range(32)
        }
        assert outcomes == {LabelValue.of([0]), LabelValue.of([0, 1])}

    def test_exact_half_tie_keep_focal(self):
        votes = [LabelValue.of([0, 1]), LabelValue.of([1, 2])]
        # 1 is a strict majority; 0 and 2 sit at exactly half and follow the focal
        for focal, want in (([0, 1], [0, 1]), ([1, 2], [1, 2]), ([3], [1]), ([0, 2], [0, 1, 2])):
            got = majority_vote(votes, MULTI, TieRule.KEEP_FOCAL, focal=LabelValue.of(focal))
            assert got == LabelValue.of(want)

    def test_empty_majority_keep_focal(self):
        votes = [LabelValue.of([0]), LabelValue.of([1]), LabelValue.of([2])]
        # nothing reaches a strict majority: the focal label is kept whole,
        # even one no voter chose
        for focal in ([1], [2, 3]):
            got = majority_vote(votes, MULTI, TieRule.KEEP_FOCAL, focal=LabelValue.of(focal))
            assert got == LabelValue.of(focal)

    def test_empty_majority_falls_back_to_argmax(self):
        votes = [LabelValue.of([0]), LabelValue.of([1]), LabelValue.of([2])]
        assert majority_vote(votes, MULTI) == LabelValue.of([0])
        with pytest.raises(ValidationError):
            majority_vote(votes, MULTI, tie_rule=TieRule.ERROR)

    def test_empty_majority_argmax_tie(self):
        votes = [LabelValue.of([0, 1]), LabelValue.of([0, 2]), LabelValue.of([1, 2]),
                 LabelValue.of([3]), LabelValue.of([3])]
        # counts 0:2 1:2 2:2 3:2 of n=5: nothing strict; four-way argmax tie
        assert majority_vote(votes, MULTI) == LabelValue.of([0])

    def test_half_tie_then_argmax_fallback(self):
        votes = [LabelValue.of([0]), LabelValue.of([0]), LabelValue.of([1]),
                 LabelValue.of([2])]
        # 0 sits at exactly n/2: excluded as a majority, then wins the fallback
        assert majority_vote(votes, MULTI) == LabelValue.of([0])

    def test_odd_counts_without_ties_ignore_tie_rule(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            n = int(rng.choice([3, 5, 7]))
            votes = [
                LabelValue.of(rng.choice(4, size=int(rng.integers(1, 4)), replace=False))
                for _ in range(n)
            ]
            counts, majority = _vote_count_oracle([set(v.indices) for v in votes], 4)
            argmax = [k for k, c in counts.items() if c == max(counts.values())]
            if not majority and len(argmax) != 1:
                continue  # fallback selection is tie_rule dependent by design
            results = {
                majority_vote(votes, MULTI, tie_rule=rule, seed=11)
                for rule in (TieRule.LOWEST_INDEX, TieRule.ERROR, TieRule.RANDOM_SEEDED)
            }
            assert len(results) == 1
            expected = majority if majority else set(argmax)
            assert results.pop() == LabelValue.of(expected)
            checked += 1

    def test_randomized_vote_matches_count_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            votes = [
                LabelValue.of(rng.choice(4, size=int(rng.integers(1, 4)), replace=False))
                for _ in range(n)
            ]
            counts, majority = _vote_count_oracle([set(v.indices) for v in votes], 4)
            got = majority_vote(votes, MULTI)
            if majority:
                # default rule keeps exactly the strict majority (ties excluded)
                assert set(got.indices) == majority
            else:
                best = max(counts.values())
                assert set(got.indices) == {min(k for k, c in counts.items() if c == best)}


class TestMajorityReference:
    def test_aggregates_per_role(self):
        spec = make_spec()
        recs = []
        for name, labels in (("e1", [0, 1]), ("e2", [0, 2]), ("e3", [0, 1])):
            src = SourceId(role=Role.EXPERT, name=name)
            for i, lab in enumerate(labels):
                recs.append(AnnotationRecord(f"i{i}", src, LabelValue.single(lab)))
        ds = Dataset(spec=spec, records=tuple(recs))
        ref = majority_reference(ds, role=Role.EXPERT)
        assert ref == {"i0": LabelValue.single(0), "i1": LabelValue.single(1)}

    def test_requires_sources(self):
        ds = Dataset(spec=make_spec(), records=())
        with pytest.raises(ValidationError):
            majority_reference(ds)
