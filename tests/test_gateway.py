import base64
import errno
import gc
import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import runpy
import socket
import subprocess
import sys
import threading
import time
import warnings
from importlib import resources

import numpy as np
import pytest
from cache_oracle import OracleCache
from conftest import CERT, choices_reply

import silicon.gateway as gateway
from silicon.core import (_JSONL_ENCODER, _TAIL_MEMO_SIZE, AnnotationRecord, LabelValue, Role,
                          SourceId, TaskKind, TaskSpec, ValidationError)
from silicon.gateway import (
    REPLAY_ENV,
    AnnotationCache,
    AuthError,
    CacheEntry,
    GatewayError,
    HttpTransport,
    ModelEndpoint,
    ParseFailure,
    Placement,
    PromptConfig,
    ReplayCacheMiss,
    RetryPolicy,
    SampleResult,
    ScriptedTransport,
    Strategy,
    TransportError,
    annotate,
    annotations_to_dataset,
    assemble_prompt,
    cache_key,
    load_endpoint,
    load_prompt_config,
    parse_response,
)

SPEC = TaskSpec(task_id="sent", kind=TaskKind.MULTICLASS,
                label_universe=("positive", "negative", "neutral"))
MSPEC = TaskSpec(task_id="sentm", kind=TaskKind.MULTILABEL,
                 label_universe=("positive", "negative", "neutral"))

GUIDELINE = ("Rate the sentiment of the passage.\n\n"
             "Treat naïve sarcasm as “negative”.\n"
             "Ignore emoji and hashtags.")
PERSONA = "You are a meticulous crowd-work annotator."
ITEM = "The café was fine, I guess.\nSecond line of the item."


LAYOUTS = list(itertools.product((Strategy.BASE, Strategy.PERSONA, Strategy.COT),
                                 (Placement.SYSTEM, Placement.USER)))


def template_text(name):
    return (resources.files("silicon.templates") / name).read_text(
        encoding="utf-8").rstrip("\n")


def make_cfg(**kw):
    base = dict(task=SPEC, guideline_text=GUIDELINE, temperature=0.0, n_samples=3)
    base.update(kw)
    return PromptConfig(**base)


def make_endpoint(**kw):
    base = dict(name="mock-a", base_url="http://mock.invalid",
                api_key_env="MOCK_API_KEY",
                retry=RetryPolicy(max_attempts=2, backoff=()))
    base.update(kw)
    return ModelEndpoint(**base)


class TestPromptAssembly:
    @pytest.mark.parametrize("strategy,placement", LAYOUTS)
    def test_guideline_verbatim_in_every_layout(self, strategy, placement):
        cfg = make_cfg(strategy=strategy, placement=placement,
                       persona_text=PERSONA if strategy is Strategy.PERSONA else None)
        messages = assemble_prompt(cfg, ITEM)
        assert [m["role"] for m in messages] == ["system", "user"]
        joined = "\n<sep>\n".join(m["content"] for m in messages)
        assert joined.count(GUIDELINE) == 1
        assert joined.count(ITEM) == 1
        instructions = messages[0 if placement is Placement.SYSTEM else 1]["content"]
        assert GUIDELINE in instructions
        for name in SPEC.label_universe:
            assert name in instructions

    def test_system_placement_keeps_item_clean(self):
        messages = assemble_prompt(make_cfg(), ITEM)
        assert messages[1]["content"] == ITEM
        assert GUIDELINE not in messages[1]["content"]

    def test_user_placement_uses_minimal_system(self):
        messages = assemble_prompt(make_cfg(placement=Placement.USER), ITEM)
        assert messages[0]["content"] == template_text("minimal_system.txt")
        assert messages[1]["content"].endswith("\n\n" + ITEM)
        assert GUIDELINE in messages[1]["content"]

    def test_persona_precedes_guideline(self):
        cfg = make_cfg(strategy=Strategy.PERSONA, persona_text=PERSONA)
        content = assemble_prompt(cfg, ITEM)[0]["content"]
        assert content.index(PERSONA) < content.index(GUIDELINE)

    def test_cot_instruction_present_only_for_cot(self):
        cot_text = template_text("cot_instruction.txt")
        base = assemble_prompt(make_cfg(), ITEM)[0]["content"]
        cot = assemble_prompt(make_cfg(strategy=Strategy.COT), ITEM)[0]["content"]
        assert cot_text not in base
        assert cot_text in cot

    def test_multilabel_format_block(self):
        cfg = make_cfg(task=MSPEC)
        content = assemble_prompt(cfg, ITEM)[0]["content"]
        assert template_text("format_multilabel.txt").format(
            labels="; ".join(MSPEC.label_universe)) in content

    def test_deterministic(self):
        cfg = make_cfg(strategy=Strategy.COT, placement=Placement.USER)
        assert assemble_prompt(cfg, ITEM) == assemble_prompt(cfg, ITEM)

    def test_persona_requires_text(self):
        with pytest.raises(ValidationError):
            make_cfg(strategy=Strategy.PERSONA)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            make_cfg(guideline_text="")
        with pytest.raises(ValidationError):
            make_cfg(n_samples=0)
        with pytest.raises(ValidationError):
            make_cfg(temperature=-0.5)


def per_sample_key(model, messages, temperature, sample_index):
    """The key formula as first defined: one json.dumps of the whole request per sample."""
    canonical = json.dumps(
        {
            "model": model,
            "messages": [{"role": m["role"], "content": m["content"]} for m in messages],
            "temperature": temperature,
            "sample_index": sample_index,
        },
        sort_keys=True,
        ensure_ascii=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


KEY_TEXTS = (ITEM, "日本語の投稿 😀 — “quoted”\ttab", "plain ascii")
TEMPERATURES = (0, 1, 1.0, 0.7)


class TestCacheKey:
    @pytest.mark.parametrize("strategy,placement", LAYOUTS)
    def test_matches_per_sample_formula(self, strategy, placement):
        cfg = make_cfg(strategy=strategy, placement=placement,
                       persona_text=PERSONA if strategy is Strategy.PERSONA else None)
        for text, temperature, s in itertools.product(KEY_TEXTS, TEMPERATURES, range(5)):
            messages = assemble_prompt(cfg, text)
            for model in ("mock-a", "modèle-β"):
                assert (cache_key(model, messages, temperature, s)
                        == per_sample_key(model, messages, temperature, s))

    @pytest.mark.parametrize("model", ["mock-a", "modèle \"β\""])
    def test_empty_message_list_matches_per_sample_formula(self, model):
        for temperature, s in itertools.product(TEMPERATURES, range(3)):
            assert (cache_key(model, [], temperature, s)
                    == per_sample_key(model, [], temperature, s))

    @pytest.mark.parametrize("temperature", TEMPERATURES)
    def test_annotate_writes_per_sample_formula_keys(self, tmp_path, temperature):
        cfg = make_cfg(temperature=temperature, n_samples=5)
        items = [(f"k{i}", text) for i, text in enumerate(KEY_TEXTS)]
        path = tmp_path / "cache.jsonl"
        annotate(make_endpoint(), cfg, items, AnnotationCache(path),
                 transport=ScriptedTransport(lambda m, c, i: "positive"))
        cache = AnnotationCache(path)
        assert len(cache) == 5 * len(items)
        for (item_id, text), s in itertools.product(items, range(5)):
            key = per_sample_key("mock-a", assemble_prompt(cfg, text), temperature, s)
            entry = cache.get(key)
            assert entry is not None and entry.sample_index == s

    @pytest.mark.parametrize("spec", [SPEC, MSPEC], ids=["multiclass", "multilabel"])
    @pytest.mark.parametrize("strategy,placement", LAYOUTS)
    def test_annotate_keys_are_cache_keys_in_every_layout(self, tmp_path, strategy, placement,
                                                         spec):
        """annotate hashes the key JSON before the last message's content once
        per call; every key it writes is still cache_key's, whatever the item
        text holds."""
        cfg = make_cfg(task=spec, strategy=strategy, placement=placement, temperature=0.7,
                       persona_text=PERSONA if strategy is Strategy.PERSONA else None)
        texts = [*KEY_TEXTS, 'say "hi" \\ back\\slash', "\x00\x1f\x7f\u2028 é\n\t\r",
                 "lone \ud800 surrogate", '{"content":""', ""]
        items = [(f"k{i}", text) for i, text in enumerate(texts)]
        path = tmp_path / "cache.jsonl"
        annotate(make_endpoint(name="modèle \"β\""), cfg, items, AnnotationCache(path),
                 transport=ScriptedTransport(lambda m, c, i: "positive"))
        written = [json.loads(line)["key"] for line in path.read_bytes().splitlines()[1:]]
        assert sorted(written) == sorted(
            cache_key("modèle \"β\"", assemble_prompt(cfg, text), 0.7, s)
            for _, text in items for s in range(cfg.n_samples))

    def test_shape_and_determinism(self):
        messages = assemble_prompt(make_cfg(), ITEM)
        key = cache_key("mock-a", messages, 0.0, 0)
        assert len(key) == 64 and int(key, 16) >= 0
        assert key == cache_key("mock-a", messages, 0.0, 0)

    def test_sensitivity(self):
        messages = assemble_prompt(make_cfg(), ITEM)
        base = cache_key("mock-a", messages, 0.0, 0)
        assert cache_key("mock-b", messages, 0.0, 0) != base
        assert cache_key("mock-a", messages, 1.0, 0) != base
        assert cache_key("mock-a", messages, 0.0, 1) != base
        other = assemble_prompt(make_cfg(), ITEM + "!")
        assert cache_key("mock-a", other, 0.0, 0) != base

    def test_dict_key_order_irrelevant(self):
        a = [{"role": "user", "content": "x"}]
        b = [{"content": "x", "role": "user"}]
        assert cache_key("m", a, 0.0, 0) == cache_key("m", b, 0.0, 0)


class TestParseResponse:
    def test_exact_line(self):
        assert parse_response("negative", SPEC) == LabelValue.single(1)
        assert parse_response("  neutral  \n", SPEC) == LabelValue.single(2)

    def test_blank_lines_are_skipped(self):
        assert parse_response("\n   \nnegative\n", SPEC) == LabelValue.single(1)

    def test_first_exact_line_wins(self):
        out = parse_response("negative\npositive or neutral?", SPEC)
        assert out == LabelValue.single(1)

    def test_multilabel_comma_line(self):
        out = parse_response("positive, neutral", MSPEC)
        assert out == LabelValue.of((0, 2))

    def test_comma_line_ignored_for_single_label(self):
        out = parse_response("positive, negative", SPEC)
        assert isinstance(out, ParseFailure)
        assert "ambiguous" in out.reason

    def test_labels_block(self):
        raw = 'After thought, labels: ["positive", "neutral"] seems right.'
        assert parse_response(raw, MSPEC) == LabelValue.of((0, 2))

    def test_labels_block_case_insensitive(self):
        assert parse_response("labels: [POSITIVE]", SPEC) == LabelValue.single(0)

    def test_labels_block_unknown_label(self):
        out = parse_response("labels: [bogus]", MSPEC)
        assert isinstance(out, ParseFailure)
        assert "bogus" in out.reason

    def test_labels_block_empty(self):
        out = parse_response("labels: []", MSPEC)
        assert isinstance(out, ParseFailure)
        assert "empty label set" == out.reason

    def test_labels_block_multiple_for_single(self):
        out = parse_response("labels: [positive, negative]", SPEC)
        assert isinstance(out, ParseFailure)
        assert "single-label" in out.reason

    def test_labels_block_duplicates_collapse(self):
        assert parse_response("labels: [positive, positive]", SPEC) == LabelValue.single(0)

    def test_unique_substring(self):
        out = parse_response("The answer is clearly Positive.", SPEC)
        assert out == LabelValue.single(0)

    def test_ambiguous_substring(self):
        out = parse_response("Could be positive or negative here.", SPEC)
        assert isinstance(out, ParseFailure)
        assert "ambiguous" in out.reason

    def test_no_match(self):
        out = parse_response("I cannot decide.", SPEC)
        assert isinstance(out, ParseFailure)
        assert out.reason == "no label found"

    def test_empty_response(self):
        for raw in ("", "   \n\t"):
            out = parse_response(raw, SPEC)
            assert isinstance(out, ParseFailure)
            assert out.reason == "empty response"


class TestAnnotationCache:
    def entry(self, key="k1", raw="positive"):
        return CacheEntry(key=key, model="mock-a", temperature=0.0,
                          sample_index=0, raw_response=raw,
                          parsed=("positive",), failure=None,
                          created="2026-01-01T00:00:00+00:00")

    def test_put_get_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        cache.put(self.entry(raw="The label is “positive”."))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0]) == {"cache_format": 1, "digest": "sha256"}
        assert len(lines) == 2
        reloaded = AnnotationCache(path)
        assert len(reloaded) == 1
        assert reloaded.get("k1").raw_response == "The label is “positive”."

    def test_duplicate_put_keeps_first(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        cache.put(self.entry(raw="first"))
        cache.put(self.entry(raw="second"))
        assert cache.get("k1").raw_response == "first"
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_duplicate_lines_on_disk_keep_first(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"cache_format": 1, "digest": "sha256"}) + "\n")
            fh.write(json.dumps(self.entry(raw="first").to_json()) + "\n")
            fh.write(json.dumps(self.entry(raw="second").to_json()) + "\n")
        assert AnnotationCache(path).get("k1").raw_response == "first"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            AnnotationCache(path)
        path.write_text(json.dumps({"cache_format": 2, "digest": "sha256"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValidationError):
            AnnotationCache(path)

    def test_bad_entry_names_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"cache_format": 1, "digest": "sha256"}) + "\n")
            fh.write(json.dumps({"key": "k1"}) + "\n")
        with pytest.raises(ValidationError, match=":2:"):
            AnnotationCache(path)

    @pytest.mark.parametrize("field, value", [
        ("raw_response", 7), ("raw_response", None), ("key", 5), ("key", ["k2"]),
        ("model", None), ("parsed", "ab"), ("parsed", ["positive", 1]), ("parsed", {}),
        ("failure", 3), ("failure", ["empty response"]),
    ])
    def test_entry_of_wrong_type_names_line(self, tmp_path, field, value):
        """Each field has the type CacheEntry declares, or the load fails on its line
        instead of a replay failing later."""
        path = tmp_path / "cache.jsonl"
        bad = {**self.entry("k2").to_json(), field: value}
        path.write_text(self.HEADER + self.line("k1") + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f":3: bad cache entry \\({field} must be"):
            AnnotationCache(path)

    @pytest.mark.parametrize("field, value", [
        ("sample_index", 1.5), ("sample_index", True), ("sample_index", 1.0),
        ("sample_index", "1"), ("sample_index", None),
        ("temperature", True), ("temperature", "0.7"), ("temperature", None),
        ("created", 5), ("created", None),
    ])
    def test_numeric_field_of_wrong_type_names_line(self, tmp_path, field, value):
        """sample_index is a JSON integer, temperature a number and created a
        string; nothing is coerced into them."""
        path = tmp_path / "cache.jsonl"
        bad = {**self.entry("k2").to_json(), field: value}
        path.write_text(self.HEADER + self.line("k1") + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f":3: bad cache entry \\({field} must be"):
            AnnotationCache(path)

    def test_temperature_beyond_float_range_names_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        bad = {**self.entry("k2").to_json(), "temperature": 10**400}
        path.write_text(self.HEADER + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":2: bad cache entry \\(int too large"):
            AnnotationCache(path)

    def test_temperature_beyond_float_range_beside_another_bad_field(self, tmp_path):
        """With another field of the wrong type, the temperature is worded as
        too large; before, its ValueError escaped the loader."""
        path = tmp_path / "cache.jsonl"
        bad = {**self.entry("k2").to_json(), "temperature": 10**400, "sample_index": "0"}
        path.write_text(self.HEADER + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=":2: bad cache entry \\(temperature is too large a number"):
            AnnotationCache(path)

    @pytest.mark.parametrize("header", [
        {"cache_format": True, "digest": "sha256"}, {"cache_format": 1.0, "digest": "sha256"},
        {"cache_format": 1, "digest": "sha256", "note": "x"}, {"cache_format": 1}, [1],
    ])
    def test_header_is_not_coerced(self, tmp_path, header):
        path = tmp_path / "cache.jsonl"
        path.write_text(json.dumps(header) + "\n" + self.line("k1"), encoding="utf-8")
        with pytest.raises(ValidationError, match="unsupported cache header"):
            AnnotationCache(path)

    @pytest.mark.parametrize("drop", [(), ("created",)])
    def test_entry_with_unknown_key_names_line(self, tmp_path, drop):
        """Unknown keys are rejected whether or not the line holds all eight fields."""
        path = tmp_path / "cache.jsonl"
        bad = {**self.entry("k2").to_json(), "model_name": "mock-a"}
        for key in drop:
            del bad[key]
        path.write_text(self.HEADER + self.line("k1") + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=r":3: bad cache entry: unknown keys \['model_name'\]"):
            AnnotationCache(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"abcdefgh"', "7", "null"])
    def test_entry_that_is_not_an_object_names_line(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.HEADER + line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":2: bad cache entry: expected a JSON object"):
            AnnotationCache(path)

    def test_entry_missing_a_required_field_names_it(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        bad = self.entry("k2").to_json()
        del bad["sample_index"]
        path.write_text(self.HEADER + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":2: bad cache entry \\('sample_index'\\)"):
            AnnotationCache(path)

    def test_int_temperature_and_absent_created_load(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        entry = {**self.entry("k2").to_json(), "temperature": 1, "sample_index": 3}
        del entry["created"]
        path.write_text(self.HEADER + json.dumps(entry) + "\n", encoding="utf-8")
        loaded = AnnotationCache(path).get("k2")
        assert (loaded.temperature, loaded.sample_index, loaded.created) == (1.0, 3, "")
        assert type(loaded.temperature) is float

    def test_null_parsed_and_failure_text_load(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        failed = {**self.entry("k2", raw="mumble").to_json(), "parsed": None,
                  "failure": "no label found"}
        path.write_text(self.HEADER + self.line("k1") + json.dumps(failed) + "\n",
                        encoding="utf-8")
        cache = AnnotationCache(path)
        assert cache.get("k1").parsed == ("positive",)
        assert cache.get("k2").parsed is None and cache.get("k2").failure == "no label found"

    def test_missing_file_starts_empty(self, tmp_path):
        cache = AnnotationCache(tmp_path / "absent.jsonl")
        assert len(cache) == 0 and cache.get("k") is None

    HEADER = json.dumps({"cache_format": 1, "digest": "sha256"}) + "\n"

    def line(self, key, raw="positive"):
        return json.dumps(self.entry(key=key, raw=raw).to_json(),
                          sort_keys=True, ensure_ascii=False) + "\n"

    def test_put_many_appends_new_keys_once(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        cache.put(self.entry("k1", raw="first"))
        cache.put(self.entry("k2"), self.entry("k1", raw="second"),
                  self.entry("k3"), self.entry("k2", raw="again"))
        assert path.read_text(encoding="utf-8") == (
            self.HEADER + self.line("k1", "first") + self.line("k2") + self.line("k3"))
        assert AnnotationCache(path).get("k1").raw_response == "first"

    def test_torn_tail_dropped_on_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        torn = self.line("k3").encode("utf-8")[:30]
        path.write_bytes((self.HEADER + self.line("k1") + self.line("k2")).encode("utf-8") + torn)
        for _ in range(2):  # loading alone leaves the file as it is
            cache = AnnotationCache(path)
            assert len(cache) == 2 and cache.get("k2").raw_response == "positive"
            assert cache.dropped_tail == torn
        assert path.read_bytes().endswith(torn)

    def test_torn_tail_cut_before_next_put(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        whole = self.line("k2", raw="très “positive”").encode("utf-8")
        torn = whole[:whole.index("è".encode("utf-8")) + 1]  # ends inside a UTF-8 character
        path.write_bytes((self.HEADER + self.line("k1")).encode("utf-8") + torn)
        cache = AnnotationCache(path)
        assert cache.dropped_tail == torn
        cache.put(self.entry("k2"), self.entry("k3"))
        cache.put(self.entry("k4"))
        assert path.read_text(encoding="utf-8") == (
            self.HEADER + self.line("k1") + self.line("k2") + self.line("k3") + self.line("k4"))
        reloaded = AnnotationCache(path)
        assert len(reloaded) == 4 and reloaded.dropped_tail == b""

    def test_torn_header_starts_over(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.HEADER[:12], encoding="utf-8")
        cache = AnnotationCache(path)
        assert len(cache) == 0 and cache.dropped_tail == self.HEADER[:12].encode("utf-8")
        cache.put(self.entry("k1"))
        assert path.read_text(encoding="utf-8") == self.HEADER + self.line("k1")

    def test_unterminated_complete_entry_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.HEADER + self.line("k1").rstrip("\n"), encoding="utf-8")
        cache = AnnotationCache(path)
        assert len(cache) == 1 and cache.dropped_tail == b""
        cache.put(self.entry("k2"))
        assert path.read_text(encoding="utf-8") == (
            self.HEADER + self.line("k1") + self.line("k2"))

    def test_two_caches_on_a_torn_tail_keep_every_entry(self, tmp_path):
        """The second cache's put must not cut off what the first appended
        after cutting the same torn tail."""
        path = tmp_path / "cache.jsonl"
        torn = self.line("kx").encode("utf-8")[:30]
        path.write_bytes((self.HEADER + self.line("k1")).encode("utf-8") + torn)
        a, b = AnnotationCache(path), AnnotationCache(path)
        a.put(self.entry("k2"), self.entry("k3"))
        b.put(self.entry("k4"))
        assert path.read_text(encoding="utf-8") == (
            self.HEADER + self.line("k1") + self.line("k2") + self.line("k3") + self.line("k4"))
        assert len(AnnotationCache(path)) == 4

    def test_two_caches_on_a_new_path_write_one_header(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        a, b = AnnotationCache(path), AnnotationCache(path)
        a.put(self.entry("k1"))
        b.put(self.entry("k2"))
        assert path.read_text(encoding="utf-8") == self.HEADER + self.line("k1") + self.line("k2")
        assert len(AnnotationCache(path)) == 2

    def test_a_newline_another_cache_left_off_is_added(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.HEADER, encoding="utf-8")
        a = AnnotationCache(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(self.line("k1").rstrip("\n"))
        a.put(self.entry("k2"))
        assert path.read_text(encoding="utf-8") == self.HEADER + self.line("k1") + self.line("k2")

    def test_without_flock_put_appends_unlocked(self, tmp_path, monkeypatch):
        """Where fcntl does not import (Windows) the module loads with fcntl
        None, and put appends without a flock.  The module runs under another
        name, so silicon.gateway and its classes stay as they are; runpy warns
        that it is imported already."""
        monkeypatch.setitem(sys.modules, "fcntl", None)
        with pytest.warns(RuntimeWarning, match="found in sys.modules"):
            unlocked = runpy.run_module("silicon.gateway", run_name="gateway_without_flock",
                                        alter_sys=True)  # dataclasses look the module up
        assert unlocked["fcntl"] is None
        path = tmp_path / "cache.jsonl"
        unlocked["AnnotationCache"](path).put(self.entry())
        assert path.read_text(encoding="utf-8") == self.HEADER + self.line("k1")

    @pytest.mark.parametrize("start", ["absent", "torn tail"])
    def test_processes_appending_at_once(self, tmp_path, start):
        """Four processes (more than the cores CI has) load one cache, wait
        for a shared start, then each put 40 entries one at a time: the file
        reloads with one header and every entry."""
        path = tmp_path / "cache.jsonl"
        if start == "torn tail":
            path.write_bytes((self.HEADER + self.line("k0")).encode("utf-8")
                             + self.line("kx").encode("utf-8")[:30])
        go = tmp_path / "go"
        script = (
            "import json, os, sys, time\n"
            "from silicon.gateway import AnnotationCache, CacheEntry\n"
            "path, go, worker = sys.argv[1], sys.argv[2], sys.argv[3]\n"
            "cache = AnnotationCache(path)\n"
            "open(f'{go}-{worker}', 'w').close()\n"
            "while not os.path.exists(go):\n"
            "    time.sleep(0.001)\n"
            "for k in range(40):\n"
            "    cache.put(CacheEntry(key=f'w{worker}-{k}', model='m', temperature=0.0,\n"
            "                         sample_index=0, raw_response='positive' * 50,\n"
            "                         parsed=('positive',), failure=None, created=''))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
        procs = [subprocess.Popen([sys.executable, "-c", script, str(path), str(go), str(w)],
                                  env=env) for w in range(4)]
        try:
            deadline = time.monotonic() + 60
            while not all(os.path.exists(f"{go}-{w}") for w in range(4)):  # all loaded
                assert time.monotonic() < deadline
                time.sleep(0.01)
            go.touch()
            for proc in procs:
                assert proc.wait(timeout=60) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines.count(self.HEADER.strip()) == 1 and lines[0] == self.HEADER.strip()
        reloaded = AnnotationCache(path)
        assert reloaded.dropped_tail == b""
        want = {f"w{w}-{k}" for w in range(4) for k in range(40)}
        if start == "torn tail":
            want.add("k0")
        assert set(reloaded._entries) == want and len(lines) == len(want) + 1

    def test_two_caches_write_a_key_once(self, tmp_path):
        """A put reads what another cache appended since it last looked: a
        key that is there already is served from the file, not written again."""
        path = tmp_path / "cache.jsonl"
        a, b = AnnotationCache(path), AnnotationCache(path)
        a.put(self.entry("k1", raw="from a"))
        b.put(self.entry("k1", raw="from b"))
        assert b.get("k1").raw_response == "from a"
        b.put(self.entry("k1", raw="again"), self.entry("k2", raw="from b"))
        a.put(self.entry("k2", raw="from a"), self.entry("k3"))
        assert a.get("k2").raw_response == "from b"
        assert path.read_text(encoding="utf-8") == (
            self.HEADER + self.line("k1", "from a") + self.line("k2", "from b") + self.line("k3"))

    def test_caches_in_threads_write_each_key_once(self, tmp_path):
        """Four caches on one file, in four threads that switch as often as
        the interpreter allows, each put the same 60 keys in its own order:
        the file holds each key once, and every cache serves the line kept."""
        path = tmp_path / "cache.jsonl"
        caches = [AnnotationCache(path) for _ in range(4)]
        keys = [f"k{k:02d}" for k in range(60)]

        def fill(w):
            for k in range(0, 60, 3):
                order = keys[k:k + 3] if w % 2 else keys[k:k + 3][::-1]
                caches[w].put(*(self.entry(key, raw=f"from {w}") for key in order))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == self.HEADER.strip()
        assert sorted(json.loads(line)["key"] for line in lines[1:]) == keys
        reloaded = AnnotationCache(path)
        for cache in caches:
            cache.put(self.entry("last"))  # reads what the others wrote after its last put
            assert all(cache.get(k) == reloaded.get(k) for k in keys)

    def test_concurrent_puts_write_each_key_once(self, tmp_path):
        """Eight threads on one cache, switching as often as the interpreter
        allows, each make 50 puts whose keys overlap other threads': every
        key is written once, every line decodes, and a fresh load holds
        len(cache) entries."""
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)

        def fill(w):
            for k in range(50):
                cache.put(*(self.entry(f"k{7 * w + k + j:03d}", raw=f"from {w}")
                            for j in range(2)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill, args=(w,)) for w in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == self.HEADER.strip()
        keys = [json.loads(line)["key"] for line in lines[1:]]
        assert sorted(keys) == [f"k{k:03d}" for k in range(100)] and len(cache) == 100
        reloaded = AnnotationCache(path)
        assert len(reloaded) == len(cache) and all(reloaded.get(k) == cache.get(k) for k in keys)

    def test_a_failed_append_fails_the_put_whose_entries_it_held(self, tmp_path, monkeypatch):
        """Four threads put at once, and the append that holds k2 hits a full
        disk: that put raises the OSError and k2 reads as unwritten, while
        the other puts write their own entries."""
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        write = os.write

        def full_disk(fd, data):
            if b'"k2"' in data:
                raise OSError(errno.ENOSPC, "No space left on device")
            return write(fd, data)

        monkeypatch.setattr(os, "write", full_disk)
        outcomes = {}

        def put(key):
            try:
                cache.put(self.entry(key))
                outcomes[key] = None
            except OSError as exc:
                outcomes[key] = exc

        threads = [threading.Thread(target=put, args=(f"k{i}",)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        monkeypatch.undo()
        assert isinstance(outcomes["k2"], OSError) and outcomes["k2"].errno == errno.ENOSPC
        assert cache.get("k2") is None
        assert [outcomes[k] for k in ("k0", "k1", "k3")] == [None, None, None]
        assert set(AnnotationCache(path)._entries) == {"k0", "k1", "k3"}
        cache.put(self.entry("k2"))
        assert set(AnnotationCache(path)._entries) == {"k0", "k1", "k2", "k3"}

    def test_a_lone_put_opens_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        real_open, opened = os.open, []

        def counted(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(os, "open", counted)
        cache.put(self.entry("k1"), self.entry("k2"))
        assert opened == [str(path)]
        cache.put(self.entry("k3"))
        assert opened == [str(path)] * 2

    def test_a_tail_torn_by_another_writer_is_cut(self, tmp_path):
        """A writer killed mid-append after this cache loaded: put cuts the
        torn bytes instead of closing them with a newline into a bad line."""
        path = tmp_path / "cache.jsonl"
        AnnotationCache(path).put(self.entry("k1"))
        b = AnnotationCache(path)
        torn = b'{"created": "t", "failure": null, "key": "k2", "mo'
        with open(path, "ab") as fh:
            fh.write(torn)
        b.put(self.entry("k3"))
        assert b.dropped_tail == torn
        assert path.read_text(encoding="utf-8") == self.HEADER + self.line("k1") + self.line("k3")
        reloaded = AnnotationCache(path)
        assert set(reloaded._entries) == {"k1", "k3"} and reloaded.dropped_tail == b""

    def test_a_file_replaced_by_a_shorter_one_is_read_again(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        cache.put(self.entry("k1"), self.entry("k2"))
        path.write_text(self.HEADER + self.line("k9"), encoding="utf-8")
        cache.put(self.entry("k3"))
        assert cache.get("k9") is not None
        assert path.read_text(encoding="utf-8") == self.HEADER + self.line("k9") + self.line("k3")

    def test_put_reads_nothing_while_the_file_is_as_it_left_it(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.HEADER + self.line("k1"), encoding="utf-8")
        cache = AnnotationCache(path)
        monkeypatch.setattr(AnnotationCache, "_catch_up", None)  # any call fails
        for k in range(2, 5):
            cache.put(self.entry(f"k{k}"))
        assert len(AnnotationCache(path)) == 4

    @pytest.mark.parametrize("entry", [
        CacheEntry("k", "m", 0.0, 0, "positive", ("positive",), None, "2026-01-01T00:00:00+00:00"),
        CacheEntry("ключ", "模型 “q”", 1e-7, 2**80,
                   'say "hi" \\ back\\slash\n\t\r\x00\x1f\x7f\u2028\ud7ff é 😀', (),
                   "ünknown \"x\"", "é"),
        CacheEntry("k", "m", 0.7, 3, "a\nb", ("a", "b \"c\"", "\\"), None, ""),
        CacheEntry("k", "m", 1, 1, "", None, "empty response", ""),
        CacheEntry("k", "m", 2.5e300, 0, "x", ("x",), None, "t"),
        CacheEntry("k", "m", math.inf, 0, "x", None, "f", "t"),
        CacheEntry("k", "m", -math.inf, 0, "x", None, "f", "t"),
        CacheEntry("k", "m", math.nan, 0, "x", None, "f", "t"),
        CacheEntry("k", "m", 0.1 + 0.2, 7, "x", ("x", "y"), None, "t"),
        CacheEntry("k", "m", 0.5, 1, "x", ["x", "y"], None, "t"),
    ])
    def test_lines_are_the_encoders(self, tmp_path, entry):
        """Each cache line joined from field fragments is byte for byte the
        line the module's JSONL encoder writes, and so is what put appends."""
        want = _JSONL_ENCODER.encode(entry.to_json()) + "\n"
        assert gateway._entry_line(entry) == want
        path = tmp_path / "cache.jsonl"
        AnnotationCache(path).put(entry)
        assert path.read_bytes() == (self.HEADER + want).encode("utf-8")

    @pytest.mark.parametrize("entry, field", [
        (CacheEntry("k", "m", True, False, "x", None, None, "t"), "temperature"),
        (CacheEntry("k", "m", 0.5, True, "x", None, None, "t"), "sample_index"),
        (CacheEntry("k", 5, 0.5, 1, "x", ("x",), None, "t"), "model"),
        (CacheEntry("k", None, 0.5, 1, "x", ("x",), None, "t"), "model"),
        (CacheEntry("k", "m", 0.5, 1, "x", ("x", None), None, "t"), "parsed"),
        (CacheEntry("k", "m", 0.5, 1, "x", (1,), None, "t"), "parsed"),
        (CacheEntry("k", "m", 0.5, 1, "x", "x", None, "t"), "parsed"),
        (CacheEntry(["k"], "m", 0.5, 1, "x", None, None, "t"), "key"),
        (CacheEntry("k", "m", 0.5, 1, "x", None, 3, "t"), "failure"),
        (CacheEntry("k", "m", 0.5, 1, "x", None, None, None), "created"),
        (CacheEntry("k", "m", 10**400, 1, "x", None, None, "t"), "int too large"),
    ])
    def test_put_refuses_a_line_the_loader_rejects(self, tmp_path, entry, field):
        """An entry no cache line may hold is refused, naming its field, and
        nothing of its put is written: before, put appended the encoder's line
        and the next load of the file failed."""
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        with pytest.raises(ValidationError, match=f"bad cache entry, not written \\({field}"):
            cache.put(entry)
        assert not path.exists()
        cache.put(self.entry("k1"))
        before = path.read_bytes()
        with pytest.raises(ValidationError, match=field):
            cache.put(self.entry("k2"), entry)
        assert path.read_bytes() == before and cache.get("k2") is None
        assert len(AnnotationCache(path)) == 1

    def test_plain_lines_do_not_call_the_encoder(self, monkeypatch):
        monkeypatch.setattr(gateway, "_JSONL_ENCODER", None)
        line = gateway._entry_line(CacheEntry("k", "m", 0.7, 4, "é\n", ("a",), None, "t"))
        assert json.loads(line)["raw_response"] == "é\n"

    def test_mid_file_garbage_names_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text(self.HEADER + self.line("k1") + '{"key": "k2", "mod\n'
                        + self.line("k3"), encoding="utf-8")
        with pytest.raises(ValidationError, match=":3:"):
            AnnotationCache(path)
        # a complete final line that is not an entry is corruption, not a torn write
        path.write_text(self.HEADER + self.line("k1") + '{"key": "k2"}', encoding="utf-8")
        with pytest.raises(ValidationError, match=":3:"):
            AnnotationCache(path)


def oracle_outcome(cls, path):
    """What loading `path` with cache class `cls` gives: its error text, or
    each entry (repr, so a NaN compares equal), the torn tail and the offsets."""
    try:
        cache = cls(path)
    except ValidationError as exc:
        return str(exc)
    return ([repr(e) for e in cache._entries.values()], cache.dropped_tail, cache._end,
            cache._lines, cache._header_written)


class TestScanMatchesOracle:
    """The cache reader decodes a line with the C scanner alone when only "\\n"
    or nothing follows the JSON value; every other line goes through
    json.loads.  tests/cache_oracle.py, the reader that sent every line
    through json.loads, decides what each file loads to, or which error, with
    which line number, it raises."""

    HEADER = TestAnnotationCache.HEADER

    @staticmethod
    def line(key, raw="positive", **fields):
        entry = {**TestAnnotationCache().entry(key=key, raw=raw).to_json(), **fields}
        return json.dumps(entry, sort_keys=True, ensure_ascii=False) + "\n"

    CASES = {
        "crlf": lambda t: t.HEADER + t.line("k1").replace("\n", "\r\n") + t.line("k2"),
        "crlf header": lambda t: t.HEADER.replace("\n", "\r\n") + t.line("k1"),
        "trailing spaces": lambda t: t.HEADER + t.line("k1")[:-1] + "  \t \n" + t.line("k2"),
        "leading spaces": lambda t: t.HEADER + "  " + t.line("k1"),
        "vertical tab": lambda t: t.HEADER + "\x0b" + t.line("k1"),
        "two objects on one line": lambda t: t.HEADER + t.line("k1")[:-1] + t.line("k2"),
        "two objects on the last line":
            lambda t: t.HEADER + t.line("k1") + t.line("k2")[:-1] + t.line("k3")[:-1],
        "leading BOM": lambda t: "\ufeff" + t.HEADER + t.line("k1"),
        "BOM on an entry": lambda t: t.HEADER + t.line("k1") + "\ufeff" + t.line("k2"),
        "NaN temperature": lambda t: t.HEADER + t.line("k1").replace('"temperature": 0.0',
                                                                      '"temperature": NaN'),
        "infinite temperature": lambda t: t.HEADER + t.line("k1").replace(
            '"temperature": 0.0', '"temperature": -Infinity'),
        "surrogate escape": lambda t: t.HEADER + json.dumps(
            {**json.loads(t.line("k1")), "raw_response": "a\ud800b"}, sort_keys=True) + "\n",
        "blank mid-file lines": lambda t: t.HEADER + t.line("k1") + "\n \t\r\n" + t.line("k2"),
        "non-object line": lambda t: t.HEADER + t.line("k1") + "[1, 2]\n",
        "torn tail": lambda t: t.HEADER + t.line("k1") + t.line("k2")[:30],
        "torn header": lambda t: t.HEADER[:12],
        "unterminated last entry": lambda t: t.HEADER + t.line("k1") + t.line("k2")[:-1],
        "unterminated with a carriage return":
            lambda t: t.HEADER + t.line("k1")[:-1] + "\r",
        "repeated key": lambda t: t.HEADER + t.line("k1", "first") + t.line("k1", "second"),
        "unknown key": lambda t: t.HEADER + t.line("k1", model_name="m"),
        "label of the wrong type": lambda t: t.HEADER + t.line("k1", parsed=["positive", 1]),
        "temperature past float range": lambda t: t.HEADER + t.line("k1").replace(
            '"temperature": 0.0', '"temperature": ' + "9" * 400),
        "bad header": lambda t: '{"cache_format": 2, "digest": "sha256"}\n' + t.line("k1"),
        # A bad line after a good line with the same text around its key and created
        # tokens: the reader must not serve it from what it read of the good line.
        "memo: duplicate key in the tail": lambda t: t.HEADER + t.twins(
            lambda line: line.replace('"model"', '"key": "k9", "model"')) + t.line("k3"),
        "memo: duplicate key ending the tail": lambda t: t.HEADER + t.twins(
            lambda line: line.replace("}\n", ', "key": "k9"}\n')),
        "memo: duplicate created in the tail": lambda t: t.HEADER + t.twins(
            lambda line: line.replace('"model"', '"created": "later", "model"')),
        "memo: duplicate key between the tokens": lambda t: t.HEADER + t.twins(
            lambda line: line.replace('"failure"', '"key": "k9", "failure"')),
        "memo: escaped key name in the tail": lambda t: t.HEADER + t.twins(
            lambda line: line.replace('"model"', '"k\\u0065y": "k9", "model"')),
        "memo: escaped created name in the tail": lambda t: t.HEADER + t.twins(
            lambda line: line.replace('"model"', '"cr\\u0065ated": "later", "model"')),
        "memo: escaped key name": lambda t: t.HEADER + t.twins(
            lambda line: line.replace('"key"', '"k\\u0065y"')),
        "memo: escaped created name": lambda t: t.HEADER + t.twins(
            lambda line: line.replace('"created"', '"cr\\u0065ated"')),
        "memo: number key": lambda t: t.HEADER + t.line("k1") + t.line("k2").replace(
            '"key": "k2"', '"key": 2'),
        "memo: number created": lambda t: t.HEADER + t.line("k1") + t.line("k2").replace(
            f'"created": "{t.CREATED}"', '"created": 2026'),
        "memo: unterminated key": lambda t: t.HEADER + t.line("k1") + t.line("k2").replace(
            '"key": "k2"', '"key": "k2'),
        "memo: unterminated created": lambda t: t.HEADER + t.line("k1") + t.line("k2").replace(
            f'"created": "{t.CREATED}"', f'"created": "{t.CREATED}'),
        "memo: control character in the key": lambda t: t.HEADER + t.line("k1")
            + t.line("k2").replace('"key": "k2"', '"key": "k\x012"'),
        "memo: tail differs only in spacing": lambda t: t.HEADER + t.line("k1")
            + t.line("k2").replace('"model": ', '"model":  ') + t.line("k3"),
        "memo: text between differs only in spacing": lambda t: t.HEADER + t.line("k1")
            + t.line("k2").replace('"failure": null', '"failure":null') + t.line("k3"),
        "memo: newline escapes in raw_response": lambda t: t.HEADER + t.twins(
            raw="Reasoning done.\nlabels: [positive]\n") + t.line("k3"),
        "memo: a \\u escape in raw_response": lambda t: t.HEADER + t.twins(raw="a\x01b"),
        "memo: torn tail cut inside the key": lambda t: t.HEADER + t.line("k1")
            + t.line("k22")[:t.line("k22").index('"k22"') + 2],
        "memo: more distinct tails than it holds": lambda t: t.HEADER + t.many(
            [f"r{i}" for i in range(_TAIL_MEMO_SIZE + 50)] + ["r0", "r1"] * 5)
            + t.line("k1", "r0").replace('"model"', '"key": "k9", "model"'),
        "memo: a full memo that keeps serving": lambda t: t.HEADER + t.many(
            [f"r{i // 2}" for i in range(2 * _TAIL_MEMO_SIZE)] + ["s0", "s1", "r0", "r1"])
            + t.line("k1", "r1").replace('"key": "k1"', '"key": 1'),
    }
    CREATED = TestAnnotationCache().entry().created

    def twins(self, edit=lambda line: line, raw="positive"):
        """Two lines, of keys k1 and k2, that differ only in their key token."""
        return edit(self.line("k1", raw)) + edit(self.line("k2", raw))

    def many(self, raws):
        """One line per raw response text, each of its own key and timestamp."""
        line = self.line("KEY", "RAW")
        return "".join(line.replace("KEY", f"m{i}")
                       .replace('"RAW"', json.dumps(raw, ensure_ascii=False))
                       .replace(self.CREATED, f"2026-02-01T00:00:{i:05d}")
                       for i, raw in enumerate(raws))

    def cases(self):
        return {name: build(self).encode("utf-8")
                for name, build in self.CASES.items()}

    @pytest.mark.parametrize("name", CASES)
    def test_load_matches_oracle(self, tmp_path, name):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(self.cases()[name])
        assert oracle_outcome(AnnotationCache, path) == oracle_outcome(OracleCache, path)

    def test_invalid_utf8_matches_oracle(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes((self.HEADER + self.line("k1")).encode() + b'"\xff"\n')
        assert oracle_outcome(AnnotationCache, path) == oracle_outcome(OracleCache, path)
        assert ":3: bad cache entry ('utf-8' codec" in oracle_outcome(AnnotationCache, path)

    @pytest.mark.parametrize("name", [name for name in CASES if "header" not in name
                                      and "BOM" not in name or name == "BOM on an entry"])
    def test_catch_up_matches_oracle(self, tmp_path, name):
        """Lines another writer appended are read by put() through the same
        reader, with the same line numbers."""
        path = tmp_path / "cache.jsonl"
        start = (self.HEADER + self.line("k0")).encode()
        appended = self.cases()[name][len(self.HEADER):]
        outcomes = []
        for cls in (AnnotationCache, OracleCache):
            path.write_bytes(start)
            cache = cls(path)
            with open(path, "ab") as fh:
                fh.write(appended)
            try:
                cache.put(TestAnnotationCache().entry("k9"))
            except ValidationError as exc:
                outcomes.append(str(exc))
                continue
            outcomes.append(([repr(e) for e in cache._entries.values()], cache.dropped_tail,
                             cache._end, cache._lines, path.read_bytes()))
        assert outcomes[0] == outcomes[1]

    def decodes(self, monkeypatch, path) -> int:
        """How many lines loading `path` decodes, once it loads as the oracle does."""
        decoded = []
        decode = gateway._decode_line
        monkeypatch.setattr(gateway, "_decode_line", lambda text: decoded.append(text)
                            or decode(text))
        assert oracle_outcome(AnnotationCache, path) == oracle_outcome(OracleCache, path)
        return len(decoded)

    def test_lines_differing_only_in_key_and_created_are_decoded_once(self, tmp_path,
                                                                       monkeypatch):
        path = tmp_path / "cache.jsonl"
        raws = ["positive", "negative", "labels: [positive]\n", "positive"] * 10
        path.write_text(self.HEADER + self.many(raws), encoding="utf-8")
        assert self.decodes(monkeypatch, path) == 1 + 3  # the header, each distinct line
        parsed = [entry.parsed for entry in AnnotationCache(path)._entries.values()]
        assert len({*map(id, parsed)}) == len(parsed) == 40  # each entry has its own tuple

    def test_a_full_memo_that_misses_more_than_it_serves_is_dropped(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.setattr("silicon.core._TAIL_MEMO_SIZE", 4)
        path = tmp_path / "cache.jsonl"
        # 4 fill the memo and serve 4; 5 more miss (9 > 4): the repeats after them decode
        raws = ["a", "b", "c", "d"] * 2 + ["e", "f", "g", "h", "i"] + ["a", "b"]
        path.write_text(self.HEADER + self.many(raws), encoding="utf-8")
        assert self.decodes(monkeypatch, path) == 1 + 4 + 5 + 2
        raws = ["a", "b", "c", "d"] * 4 + ["e", "f", "g", "h", "i"] + ["a", "b"]
        path.write_text(self.HEADER + self.many(raws), encoding="utf-8")
        assert self.decodes(monkeypatch, path) == 1 + 4 + 5  # 9 missed, 12 served: kept

    def test_repeated_texts_are_kept_once(self, tmp_path):
        """After a load, entries with equal field texts share one str, and
        every get() equals the oracle's."""
        path = tmp_path / "cache.jsonl"
        texts = ["positive", "labels: [negative]", "mumble", "positive"]
        entries = [CacheEntry(f"k{i}", "mock-a", 0.7, i % 5, texts[i % 4],
                              None if i % 4 == 2 else ("positive",),
                              "no label found" if i % 4 == 2 else None,
                              f"2026-01-01T00:00:0{i // 5}+00:00")
                   for i in range(20)]
        AnnotationCache(path).put(*entries)
        cache, oracle = AnnotationCache(path), OracleCache(path)
        loaded = [cache.get(e.key) for e in entries]
        for a, b in itertools.combinations(loaded, 2):
            for field in ("model", "raw_response", "failure", "created"):
                if getattr(a, field) == getattr(b, field):
                    assert getattr(a, field) is getattr(b, field)
        assert loaded == entries == [oracle.get(e.key) for e in entries]


class TestPutWritesWhatLoads:
    """Whatever put accepts, a fresh load returns; whatever it refuses leaves
    the file as it was.  Seeded random entries (hypothesis is not a CI
    dependency) mix lone surrogates, NaN, infinities and integer temperatures,
    parsed tuples and lists, and fields of the wrong type."""

    TEXTS = ["", "x", "positive", "\ud800", "a\udfffb", "\udc80\ud800", "é 😀 “q”",
             'say "hi" \\ back\n\t\x00\x1f\x7f\u2028', "NaN", "labels: [x]"]
    # (value, valid) choices per field, past the valid strings every str field takes
    BAD_STR = [(5, False), (None, False), (b"x", False), (["x"], False)]
    TEMPERATURES = [(0.7, True), (0.0, True), (-0.0, True), (1e-300, True), (2.5e300, True),
                    (math.nan, True), (math.inf, True), (-math.inf, True), (0, True),
                    (2, True), (-3, True), (2**60, True), (10**400, False), (True, False),
                    ("0.7", False), (None, False)]
    INDICES = [(0, True), (4, True), (-1, True), (2**80, True), (False, False), (1.0, False),
               ("1", False), (None, False)]

    def value(self, rng, field):
        """A (value, valid) draw for one CacheEntry field."""
        if field == "temperature":
            if rng.random() < 0.3:
                return rng.uniform(-5, 5), True
            return rng.choice(self.TEMPERATURES)
        if field == "sample_index":
            return rng.choice(self.INDICES)
        if field == "parsed":
            labels = [rng.choice(self.TEXTS) for _ in range(rng.randrange(3))]
            kind = rng.randrange(6)
            if kind == 0:
                return None, True
            if kind == 1:
                return labels, True
            if kind == 2 and labels:  # one label that is not a str
                labels[rng.randrange(len(labels))] = rng.choice([None, 1, b"x"])
                return tuple(labels), False
            if kind == 3:
                return rng.choice(["x", 7]), False
            return tuple(labels), True
        if field == "failure" and rng.random() < 0.4:
            return None, True
        if rng.random() < 0.06:
            return rng.choice(self.BAD_STR)
        return rng.choice(self.TEXTS), True

    @pytest.mark.parametrize("seed", range(4))
    def test_random_entries(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "cache.jsonl"
        cache = AnnotationCache(path)
        refused = kept = 0
        for i in range(50):
            draws = {f: self.value(rng, f) for f in ("model", "temperature", "sample_index",
                                                     "raw_response", "parsed", "failure",
                                                     "created")}
            key, ok = self.value(rng, "key")
            if ok:
                key = f"k{i} {key}"  # a distinct key, so every accepted entry is appended
            entry = CacheEntry(key=key, **{f: v for f, (v, _) in draws.items()})
            valid = ok and all(v for _, v in draws.values())
            before = path.read_bytes() if path.exists() else None
            try:
                cache.put(entry)
            except ValidationError:
                assert not valid, entry
                assert (path.read_bytes() if path.exists() else None) == before
                refused += 1
                continue
            assert valid, entry
            kept += 1
            want = repr(CacheEntry(key, entry.model, float(entry.temperature),
                                   entry.sample_index, entry.raw_response,
                                   None if entry.parsed is None else tuple(entry.parsed),
                                   entry.failure, entry.created))
            loaded = oracle_outcome(AnnotationCache, path)
            assert loaded == oracle_outcome(OracleCache, path)
            assert loaded[0][-1] == want and len(loaded[0]) == kept
        assert refused and kept  # both sides of the property were drawn


def scripted(mapping_default="positive"):
    """Transport whose text depends on the item text and choice index."""
    def script(messages, call_index, choice_index):
        item = messages[-1]["content"]
        if "text two" in item and choice_index == 1:
            return "mumble"
        return ["positive", "negative", "neutral"][choice_index % 3]
    return ScriptedTransport(script)


ITEMS = [("i1", "text one"), ("i2", "text two")]


class TestAnnotate:
    def test_fetch_parse_and_cache(self, tmp_path):
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        transport = ScriptedTransport(
            lambda m, c, i: ["positive", "negative", "neutral"][i])
        anns = annotate(make_endpoint(), make_cfg(), ITEMS, cache,
                        transport=transport)
        assert transport.calls == 2  # one batched request per item
        assert [a.item_id for a in anns] == ["i1", "i2"]
        for ann in anns:
            assert [s.sample_index for s in ann.samples] == [0, 1, 2]
            assert ann.labels() == [LabelValue.single(0), LabelValue.single(1),
                                    LabelValue.single(2)]
            assert all(not s.from_cache for s in ann.samples)
        assert len(cache) == 6

    def test_second_run_is_cache_only(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        transport = ScriptedTransport(lambda m, c, i: "neutral")
        first = annotate(make_endpoint(), make_cfg(), ITEMS,
                         AnnotationCache(path), transport=transport)
        idle = ScriptedTransport(lambda m, c, i: "positive")
        second = annotate(make_endpoint(), make_cfg(), ITEMS,
                          AnnotationCache(path), transport=idle)
        assert idle.calls == 0
        assert all(s.from_cache for a in second for s in a.samples)
        assert [a.labels() for a in second] == [a.labels() for a in first]

    def test_replay_miss_raises(self, tmp_path):
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        with pytest.raises(ReplayCacheMiss, match="i1"):
            annotate(make_endpoint(), make_cfg(), ITEMS, cache, replay=True)

    def test_replay_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv(REPLAY_ENV, "1")
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        with pytest.raises(ReplayCacheMiss):
            annotate(make_endpoint(), make_cfg(), ITEMS, cache)

    def test_replay_hit_needs_no_transport(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        transport = ScriptedTransport(lambda m, c, i: "neutral")
        annotate(make_endpoint(), make_cfg(), ITEMS, AnnotationCache(path),
                 transport=transport)
        anns = annotate(make_endpoint(), make_cfg(), ITEMS,
                        AnnotationCache(path), replay=True)
        assert all(s.from_cache for a in anns for s in a.samples)

    def test_per_sample_requests_without_n_support(self, tmp_path):
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        transport = ScriptedTransport(lambda m, c, i: "positive")
        annotate(make_endpoint(supports_n=False), make_cfg(n_samples=2),
                 ITEMS[:1], cache, transport=transport)
        assert transport.calls == 2

    def test_retry_then_success(self, tmp_path):
        state = {"attempts": 0}

        def flaky(messages, call_index, choice_index):
            state["attempts"] += 1
            if state["attempts"] == 1:
                raise TransportError("transient")
            return "positive"

        cache = AnnotationCache(tmp_path / "cache.jsonl")
        anns = annotate(make_endpoint(), make_cfg(n_samples=1), ITEMS[:1],
                        cache, transport=ScriptedTransport(flaky))
        assert state["attempts"] == 2
        assert anns[0].labels() == [LabelValue.single(0)]
        assert len(cache) == 1

    def test_persistent_failure_marks_samples_not_cache(self, tmp_path):
        def broken(messages, call_index, choice_index):
            raise TransportError("down")

        cache = AnnotationCache(tmp_path / "cache.jsonl")
        anns = annotate(make_endpoint(), make_cfg(n_samples=2), ITEMS[:1],
                        cache, transport=ScriptedTransport(broken))
        assert len(cache) == 0
        assert anns[0].labels() == []
        for sample in anns[0].samples:
            assert sample.failure.startswith("transport:")
            assert sample.raw == ""
        # a later run with a healthy transport is not blocked by stale failures
        recovered = annotate(make_endpoint(), make_cfg(n_samples=2), ITEMS[:1],
                             cache, transport=ScriptedTransport(lambda m, c, i: "neutral"))
        assert recovered[0].labels() == [LabelValue.single(2)] * 2
        assert len(cache) == 2

    def test_auth_error_aborts(self, tmp_path):
        def rejected(messages, call_index, choice_index):
            raise AuthError("bad key")

        cache = AnnotationCache(tmp_path / "cache.jsonl")
        with pytest.raises(AuthError):
            annotate(make_endpoint(), make_cfg(), ITEMS, cache,
                     transport=ScriptedTransport(rejected))

    def test_injected_junk_is_isolated_parse_failure(self, tmp_path):
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        anns = annotate(make_endpoint(), make_cfg(), ITEMS, cache,
                        transport=scripted())
        flat = {(a.item_id, s.sample_index): s for a in anns for s in a.samples}
        bad = flat[("i2", 1)]
        assert bad.label is None and bad.raw == "mumble"
        assert bad.failure == "no label found"
        good = [s for key, s in flat.items() if key != ("i2", 1)]
        assert all(s.label is not None for s in good)
        # parse failures are still cached (the raw text is the artifact)
        assert len(cache) == 6

    @pytest.mark.parametrize("supports_n", [True, False])
    def test_matches_per_sample_parse(self, tmp_path, monkeypatch, supports_n):
        replies = ["positive", "negative", "mumble", "labels: [neutral]",
                   "positive or negative?", "", "Neutral."]

        def reply(item_text, choice_index):
            return replies[(len(item_text) + 2 * choice_index) % len(replies)]

        def script(messages, call_index, choice_index):
            return reply(messages[-1]["content"], choice_index)

        items = [(f"i{k}", "text" + "!" * k) for k in range(20)]
        cfg = make_cfg(n_samples=5)
        endpoint = make_endpoint(supports_n=supports_n, max_in_flight=3)
        path = tmp_path / "cache.jsonl"
        fill = annotate(endpoint, cfg, items, AnnotationCache(path),
                        transport=ScriptedTransport(script))
        parsed_texts = []
        parse = gateway.parse_response
        monkeypatch.setattr(gateway, "parse_response",
                            lambda raw, spec: parsed_texts.append(raw) or parse(raw, spec))
        replay = annotate(endpoint, cfg, items, AnnotationCache(path), replay=True)

        distinct = set()
        for anns, from_cache in ((fill, False), (replay, True)):
            assert [a.item_id for a in anns] == [item_id for item_id, _ in items]
            for ann, (_, text) in zip(anns, items):
                expected = []
                for s in range(cfg.n_samples):
                    raw = reply(text, s if supports_n else 0)
                    distinct.add(raw)
                    out = parse_response(raw, SPEC)
                    expected.append(SampleResult(
                        sample_index=s, raw=raw,
                        label=out if isinstance(out, LabelValue) else None,
                        failure=out.reason if isinstance(out, ParseFailure) else None,
                        from_cache=from_cache))
                assert list(ann.samples) == expected
        # one parse per distinct response text, not one per sample
        assert sorted(parsed_texts) == sorted(distinct)

    @pytest.mark.parametrize("supports_n", [True, False])
    @pytest.mark.parametrize("abort_with", [AuthError, KeyboardInterrupt])
    def test_abort_stops_pool_and_keeps_served_responses(self, tmp_path, abort_with,
                                                         supports_n):
        items = [(f"i{k:02d}", f"text {k:02d}") for k in range(50)]
        cfg = make_cfg(n_samples=3)
        per_request = cfg.n_samples if supports_n else 1
        answers = ["positive", "negative", "neutral"]
        events, lock = [], threading.Lock()

        def script(messages, call_index, choice_index):
            item = messages[-1]["content"]
            with lock:
                if choice_index == 0:
                    events.append(("start", item))
                if item == "text 10":
                    events.append(("abort", item))
                    raise abort_with("rejected")
            time.sleep(0.003)
            if choice_index == per_request - 1:
                with lock:
                    events.append(("served", item))
            return answers[choice_index]

        path = tmp_path / "cache.jsonl"
        with pytest.raises(abort_with):
            annotate(make_endpoint(max_in_flight=2, supports_n=supports_n), cfg, items,
                     AnnotationCache(path), transport=ScriptedTransport(script))
        cut = events.index(("abort", "text 10"))
        # only the other worker may start a request once the rejection is raised
        assert sum(kind == "start" for kind, _ in events[cut:]) <= 1
        assert len({item for kind, item in events if kind == "start"}) <= 13
        served = {}  # item text -> responses served, each holding per_request choices
        for kind, item in events:
            if kind == "served":
                served[item] = served.get(item, 0) + 1
        assert served  # the requests before the rejected one went through
        cache = AnnotationCache(path)
        assert len(cache) == per_request * sum(served.values())
        for text, responses in served.items():
            for s in range(per_request * responses):
                key = per_sample_key("mock-a", assemble_prompt(cfg, text), cfg.temperature, s)
                assert cache.get(key).raw_response == answers[s if supports_n else 0]

    def test_abort_after_requests_in_flight_keeps_their_responses(self, tmp_path):
        """The rejected item is submitted after two items whose requests are
        still in flight: both of those are answered and cached, and no request
        starts once the rejection is raised."""
        items = [(f"i{k}", f"text {k}") for k in range(8)]
        cfg = make_cfg(n_samples=2)
        both_started, rejected = threading.Barrier(3), threading.Event()
        events, lock = [], threading.Lock()

        def script(messages, call_index, choice_index):
            item = messages[-1]["content"]
            if choice_index == 0:
                with lock:
                    events.append(("start", item))
            if item == "text 2":
                both_started.wait(timeout=10)
                with lock:
                    events.append(("abort", item))
                rejected.set()
                raise AuthError("rejected")
            if item in ("text 0", "text 1") and choice_index == 0:
                both_started.wait(timeout=10)
                assert rejected.wait(timeout=10)
                time.sleep(0.05)  # answer only once the abort is under way
            return "positive"

        path = tmp_path / "cache.jsonl"
        with pytest.raises(AuthError):
            annotate(make_endpoint(max_in_flight=3), cfg, items, AnnotationCache(path),
                     transport=ScriptedTransport(script))
        cut = events.index(("abort", "text 2"))
        assert {item for kind, item in events[:cut]} == {"text 0", "text 1", "text 2"}
        assert events[cut + 1:] == []
        cache = AnnotationCache(path)
        assert len(cache) == 4
        for text in ("text 0", "text 1"):
            for s in range(cfg.n_samples):
                key = per_sample_key("mock-a", assemble_prompt(cfg, text), cfg.temperature, s)
                assert cache.get(key).raw_response == "positive"

    def test_items_with_one_text_share_one_fetch(self, tmp_path):
        """3 items, two with one text, 2 samples, one request in flight: 2
        posts, and the third item reads the first item's samples, fetched
        (not from the cache), as a replay of the cache does."""
        letters = "abcdef"
        transport = ScriptedTransport(lambda m, call, choice: letters[2 * call + choice])
        items = [("i1", "text one"), ("i2", "text two"), ("i3", "text one")]
        path = tmp_path / "cache.jsonl"
        fill = annotate(make_endpoint(max_in_flight=1), make_cfg(n_samples=2), items,
                        AnnotationCache(path), transport=transport)
        assert transport.calls == 2
        assert [[s.raw for s in a.samples] for a in fill] == [["a", "b"], ["c", "d"], ["a", "b"]]
        assert fill[2].samples == fill[0].samples
        assert not any(s.from_cache for s in fill[2].samples)
        replay = annotate(make_endpoint(), make_cfg(n_samples=2), items, AnnotationCache(path),
                          replay=True)
        assert [[s.raw for s in a.samples] for a in replay] == [["a", "b"], ["c", "d"],
                                                                ["a", "b"]]

    def test_replay_miss_counts_distinct_prompts(self, tmp_path):
        items = [("i1", "text one"), ("i2", "text two"), ("i3", "text one")]
        with pytest.raises(ReplayCacheMiss, match=r"^6 samples .*item='i1' sample=0"):
            annotate(make_endpoint(), make_cfg(), items,
                     AnnotationCache(tmp_path / "cache.jsonl"), replay=True)

    def test_auth_error_while_a_shared_fetch_is_in_flight(self, tmp_path):
        """The fetch of a text two items share is in flight when another
        request is rejected: it is answered and cached once, for both items,
        and no request starts after the rejection."""
        items = [("i0", "text a"), ("i1", "text a"), ("i2", "text b"), ("i3", "text c")]
        cfg = make_cfg(n_samples=2)
        both_started, rejected = threading.Barrier(2), threading.Event()
        started, lock = [], threading.Lock()

        def script(messages, call_index, choice_index):
            item = messages[-1]["content"]
            if choice_index == 0:
                with lock:
                    started.append(item)
                both_started.wait(timeout=10)
            if item == "text b":
                rejected.set()
                raise AuthError("rejected")
            if choice_index == 0:
                assert rejected.wait(timeout=10)
                time.sleep(0.05)  # answer only once the abort is under way
            return "positive"

        path = tmp_path / "cache.jsonl"
        transport = ScriptedTransport(script)
        with pytest.raises(AuthError):
            annotate(make_endpoint(max_in_flight=2), cfg, items, AnnotationCache(path),
                     transport=transport)
        assert transport.calls == 2 and sorted(started) == ["text a", "text b"]
        cache = AnnotationCache(path)
        assert len(cache) == cfg.n_samples
        for s in range(cfg.n_samples):
            key = per_sample_key("mock-a", assemble_prompt(cfg, "text a"), cfg.temperature, s)
            assert cache.get(key).raw_response == "positive"

    @pytest.mark.parametrize("abort_with", [AuthError, KeyboardInterrupt])
    def test_abort_ends_a_backoff_wait(self, tmp_path, abort_with):
        backing_off = threading.Event()

        def script(messages, call_index, choice_index):
            if messages[-1]["content"] == "text one":
                backing_off.set()
                raise TransportError("busy", retry_after=60.0)
            assert backing_off.wait(timeout=10)
            time.sleep(0.05)  # let the other worker enter its wait
            raise abort_with("rejected")

        start = time.monotonic()
        with pytest.raises(abort_with):
            annotate(make_endpoint(max_in_flight=2, retry=RetryPolicy(max_attempts=3)),
                     make_cfg(n_samples=1), ITEMS, AnnotationCache(tmp_path / "cache.jsonl"),
                     transport=ScriptedTransport(script))
        assert time.monotonic() - start < 10  # not the 60 s Retry-After

    def test_backoff_past_timeout_max_is_a_config_error(self):
        """No thread can wait longer than threading.TIMEOUT_MAX."""
        assert RetryPolicy(backoff=(threading.TIMEOUT_MAX,)).backoff == (threading.TIMEOUT_MAX,)
        with pytest.raises(ValidationError, match="backoff must be numbers of seconds"):
            RetryPolicy(backoff=(1.0, 2 * threading.TIMEOUT_MAX))

    def test_retry_after_past_timeout_max_is_not_retried(self, tmp_path):
        """Such a Retry-After fails its samples at once, as transport errors,
        and the run goes on with the other items."""
        sent = []

        def script(messages, call_index, choice_index):
            sent.append(messages[-1]["content"])
            if messages[-1]["content"] == "text one":
                raise TransportError("busy", retry_after=2 * threading.TIMEOUT_MAX)
            return "positive"

        anns = annotate(make_endpoint(retry=RetryPolicy(max_attempts=3)), make_cfg(n_samples=2),
                        ITEMS, AnnotationCache(tmp_path / "cache.jsonl"),
                        transport=ScriptedTransport(script))
        assert sent.count("text one") == 1
        assert [s.failure for s in anns[0].samples] == ["transport: busy"] * 2
        assert anns[1].labels() == [LabelValue.single(0)] * 2

    def test_choice_content_not_a_string_is_a_transport_failure(self, tmp_path):
        """A null content is the endpoint's fault: its samples fail as a
        malformed response and the run goes on; before, put wrote a line with
        a null raw_response and the cache no longer loaded."""
        path = tmp_path / "cache.jsonl"
        anns = annotate(make_endpoint(), make_cfg(n_samples=2), ITEMS, AnnotationCache(path),
                        transport=ScriptedTransport(
                            lambda m, c, i: None if m[-1]["content"] == "text one" else "positive"))
        assert [s.failure for s in anns[0].samples] == [
            "transport: malformed response shape: a choice's content is not a string"] * 2
        assert anns[1].labels() == [LabelValue.single(0)] * 2
        assert len(AnnotationCache(path)) == 2

    @pytest.mark.parametrize("reply, failure", [
        ({"id": "r1"}, "transport: malformed response shape: 'choices'"),
        ({"choices": [{"message": {"content": "positive"}}]},
         "transport: asked for 2 choices, got 1"),
    ], ids=["no choices", "too few choices"])
    def test_malformed_choices_are_a_transport_failure(self, tmp_path, reply, failure):
        """A response without `choices`, or with other than the number asked
        for, fails that prompt's samples; nothing is cached for them and the
        run goes on."""
        path = tmp_path / "cache.jsonl"
        scripted = ScriptedTransport(lambda m, c, i: "positive")

        class Transport:
            def post(self, payload):
                if payload["messages"][-1]["content"] == "text one":
                    return reply
                return scripted.post(payload)

        anns = annotate(make_endpoint(), make_cfg(n_samples=2), ITEMS, AnnotationCache(path),
                        transport=Transport())
        assert [s.failure for s in anns[0].samples] == [failure] * 2
        assert anns[1].labels() == [LabelValue.single(0)] * 2
        assert len(AnnotationCache(path)) == 2

    @pytest.mark.parametrize("make, kw, message", [
        (make_cfg, {"temperature": True}, "temperature must be a number, not bool"),
        (make_cfg, {"temperature": np.float64(0.7)}, "temperature must be a number, not float64"),
        (make_cfg, {"temperature": "0.7"}, "temperature must be a number, not str"),
        (make_endpoint, {"name": 5}, "name must be a string, not int"),
    ], ids=["bool temperature", "numpy temperature", "str temperature", "int name"])
    def test_config_values_no_cache_line_holds_are_refused_before_a_request(self, make, kw,
                                                                            message):
        """Each of these would key its requests and be paid for, and then
        put would refuse the entry that holds it."""
        with pytest.raises(ValidationError, match=message):
            make(**kw)

    def test_each_post_takes_one_call_index(self, tmp_path):
        """Two workers post at once: every choice of a post sees that post's
        call index, no two posts share one, and calls counts the posts."""
        seen, lock = {}, threading.Lock()

        def script(messages, call_index, choice_index):
            time.sleep(0.0005)
            with lock:
                seen.setdefault(messages[-1]["content"], []).append(call_index)
            return "positive"

        items = [(f"i{k:03d}", f"text {k:03d}") for k in range(300)]
        transport = ScriptedTransport(script)
        annotate(make_endpoint(max_in_flight=2), make_cfg(n_samples=3), items,
                 AnnotationCache(tmp_path / "cache.jsonl"), transport=transport)
        assert transport.calls == 300
        assert [len(set(calls)) for calls in seen.values()] == [1] * 300
        assert sorted(calls[0] for calls in seen.values()) == list(range(300))

    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    def test_a_workers_response_is_in_the_file_before_its_next_post(self, tmp_path,
                                                                      max_in_flight):
        """At most max_in_flight received responses are unwritten: when a
        worker posts, the file already holds the response it received last."""
        path = tmp_path / "cache.jsonl"
        cfg = make_cfg(n_samples=2)
        last, unwritten = {}, []

        def script(messages, call_index, choice_index):
            if choice_index == 0:
                me = threading.get_ident()
                if me in last:
                    on_disk = AnnotationCache(path)
                    unwritten.extend(key for key in last[me] if on_disk.get(key) is None)
                last[me] = [cache_key("mock-a", messages, cfg.temperature, s)
                            for s in range(cfg.n_samples)]
            time.sleep(0.001)
            return "positive"

        items = [(f"i{k:02d}", f"text {k:02d}") for k in range(24)]
        annotate(make_endpoint(max_in_flight=max_in_flight), cfg, items, AnnotationCache(path),
                 transport=ScriptedTransport(script))
        assert len(last) <= max_in_flight and unwritten == []
        assert len(AnnotationCache(path)) == 48

    @pytest.mark.parametrize("max_in_flight, n_items, n_cached", [
        (1, 5, 0), (2, 5, 0), (4, 3, 0), (4, 5, 3), (4, 5, 5)])
    def test_at_most_one_worker_per_item_with_a_miss(self, tmp_path, monkeypatch,
                                                     max_in_flight, n_items, n_cached):
        """annotate starts min(max_in_flight, items with a miss) threads at
        most, and none when every sample is a cache hit."""
        items = [(f"i{k}", f"text {k}") for k in range(n_items)]
        path = tmp_path / "cache.jsonl"
        transport = ScriptedTransport(lambda m, c, i: "positive")
        annotate(make_endpoint(), make_cfg(), items[:n_cached], AnnotationCache(path),
                 transport=transport)
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        anns = annotate(make_endpoint(max_in_flight=max_in_flight), make_cfg(), items,
                        AnnotationCache(path), transport=transport)
        missing = n_items - n_cached
        assert (len(started) <= min(max_in_flight, missing)
                and bool(started) == bool(missing))
        assert [a.item_id for a in anns] == [item_id for item_id, _ in items]
        assert all(a.labels() == [LabelValue.single(0)] * 3 for a in anns)

    def test_duplicate_item_ids_rejected(self, tmp_path):
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        with pytest.raises(ValidationError):
            annotate(make_endpoint(), make_cfg(),
                     [("i1", "a"), ("i1", "b")], cache,
                     transport=ScriptedTransport(lambda m, c, i: "positive"))


class TestAnnotationsToRecords:
    def test_records_and_failures(self, tmp_path):
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        anns = annotate(make_endpoint(), make_cfg(), ITEMS, cache,
                        transport=scripted())
        dataset, failures = annotations_to_dataset(anns, "mock-a", SPEC)
        assert len(dataset) == 5 and len(failures) == 1
        assert failures[0]["item_id"] == "i2"
        assert failures[0]["sample_index"] == 1
        assert failures[0]["raw_response"] == "mumble"
        source = SourceId(role=Role.MODEL, name="mock-a")
        expected = [("i1", "positive", 0), ("i1", "negative", 1), ("i1", "neutral", 2),
                    ("i2", "positive", 0), ("i2", "neutral", 2)]
        assert dataset.records == tuple(
            AnnotationRecord(item, source, LabelValue.from_names([name], SPEC), run)
            for item, name, run in expected)


def closed_port():
    """A loopback port that nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def post_once(endpoint, payload):
    transport = HttpTransport(endpoint)
    try:
        return transport.post(payload)
    finally:
        transport.close()


class TestHttpTransport:
    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("MOCK_API_KEY", raising=False)
        with pytest.raises(AuthError, match="MOCK_API_KEY"):
            HttpTransport(make_endpoint())

    def test_posts_to_chat_completions(self, monkeypatch, loopback):
        monkeypatch.setenv("MOCK_API_KEY", "sekret")
        server = loopback(reply=lambda payload: (200, {}, b'{"choices": []}'))
        timeouts, connect = [], socket.create_connection

        def spy(address, timeout, *rest):
            timeouts.append(timeout)
            return connect(address, timeout, *rest)

        monkeypatch.setattr(socket, "create_connection", spy)
        out = post_once(make_endpoint(base_url=server.url), {"model": "mock-a"})
        assert out == {"choices": []}
        [(method, path, headers, body)] = server.requests
        assert method == "POST" and f"http://{headers['Host']}{path}" == (
            server.url + "/v1/chat/completions")
        assert headers["Authorization"] == "Bearer sekret"
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body) == {"model": "mock-a"}
        assert timeouts == [60.0]

    @pytest.mark.parametrize("status,headers,exc,attempts,sleeps", [
        pytest.param(401, {}, AuthError, 1, [], id="401-AuthError"),
        pytest.param(403, {}, AuthError, 1, [], id="403-AuthError"),
        pytest.param(400, {}, TransportError, 1, [], id="400-TransportError"),
        pytest.param(404, {"Retry-After": "5"}, TransportError, 1, [],
                     id="404-TransportError"),
        pytest.param(429, {}, TransportError, 3, [0.5, 0.5], id="429-TransportError"),
        pytest.param(500, {}, TransportError, 3, [0.5, 0.5], id="500-TransportError"),
        pytest.param(503, {"Retry-After": "7"}, TransportError, 3, [7.0, 7.0],
                     id="503-TransportError-retry-after"),
        pytest.param(503, {"Retry-After": "0.25"}, TransportError, 3, [0.5, 0.5],
                     id="503-TransportError-short-retry-after"),
        pytest.param(503, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}, TransportError,
                     3, [0.5, 0.5], id="503-TransportError-date-retry-after"),
        pytest.param(503, {"Retry-After": "99999999999"}, TransportError, 1, [],
                     id="503-TransportError-retry-after-past-timeout-max"),
        pytest.param(307, {"Location": "http://127.0.0.1:1/"}, TransportError, 1, [],
                     id="307-TransportError-not-followed"),
    ])
    def test_status_mapping(self, monkeypatch, tmp_path, loopback, status, headers, exc,
                            attempts, sleeps):
        monkeypatch.setenv("MOCK_API_KEY", "sekret")
        server = loopback(reply=lambda payload: (status, headers, b"err"))
        sent, slept = server.requests, []
        monkeypatch.setattr(gateway, "_backoff_wait", lambda abort, delay: slept.append(delay))
        with pytest.raises(exc):
            post_once(make_endpoint(base_url=server.url), {})
        sent.clear()
        # through annotate: 429 and 5xx are retried, waiting at least Retry-After
        endpoint = make_endpoint(base_url=server.url,
                                 retry=RetryPolicy(max_attempts=3, backoff=(0.5,)))
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        if exc is AuthError:
            with pytest.raises(AuthError):
                annotate(endpoint, make_cfg(n_samples=2), ITEMS[:1], cache)
        else:
            anns = annotate(endpoint, make_cfg(n_samples=2), ITEMS[:1], cache)
            for sample in anns[0].samples:
                assert sample.failure == f"transport: HTTP {status}: err"
        assert len(sent) == attempts and slept == sleeps
        assert len(cache) == 0

    def test_retry_after_then_success(self, monkeypatch, tmp_path, loopback):
        monkeypatch.setenv("MOCK_API_KEY", "sekret")
        replies = iter([(503, {"Retry-After": "3"}, b"busy"),
                        (200, {}, json.dumps({"choices": [
                            {"message": {"content": "negative"}}]}).encode())])
        server = loopback(reply=lambda payload: next(replies))
        slept = []
        monkeypatch.setattr(gateway, "_backoff_wait", lambda abort, delay: slept.append(delay))
        cache = AnnotationCache(tmp_path / "cache.jsonl")
        anns = annotate(make_endpoint(base_url=server.url), make_cfg(n_samples=1), ITEMS[:1],
                        cache)
        assert slept == [3.0]
        assert anns[0].labels() == [LabelValue.single(1)] and len(cache) == 1
        assert len(server.requests) == 2

    @pytest.mark.usefixtures("loopback")  # for its cleared proxy variables
    def test_network_error_wrapped(self, monkeypatch):
        monkeypatch.setenv("MOCK_API_KEY", "sekret")
        with pytest.raises(TransportError, match="refused"):
            post_once(make_endpoint(base_url=f"http://127.0.0.1:{closed_port()}"), {})

    def test_non_json_body(self, monkeypatch, loopback):
        monkeypatch.setenv("MOCK_API_KEY", "sekret")
        server = loopback(reply=lambda payload: (200, {"Content-Type": "text/html"}, b"<html>"))
        with pytest.raises(TransportError, match="non-JSON"):
            post_once(make_endpoint(base_url=server.url), {})


class TestConnections:
    """Connection reuse and reopening, counted by the server."""

    @pytest.fixture(autouse=True)
    def api_key(self, monkeypatch):
        monkeypatch.setenv("MOCK_API_KEY", "sekret")

    def test_one_connection_per_thread(self, loopback):
        server = loopback()
        transport = HttpTransport(make_endpoint(base_url=server.url))
        outs = []

        def worker():
            outs.extend(transport.post({"n": 1}) for _ in range(4))

        threads = [threading.Thread(target=worker) for _ in range(3)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            transport.close()
        assert len(outs) == 12 and len(server.requests) == 12
        assert server.connections == 3

    def test_annotate_keeps_one_connection_per_worker(self, tmp_path, loopback):
        server = loopback()
        items = [(f"i{k:02d}", f"text {k:02d}") for k in range(12)]
        anns = annotate(make_endpoint(base_url=server.url, max_in_flight=2), make_cfg(),
                        items, AnnotationCache(tmp_path / "cache.jsonl"))
        assert all(len(ann.labels()) == 3 for ann in anns)
        assert len(server.requests) == 12
        assert 1 <= server.connections <= 2
        # annotate closed every connection it opened
        for _ in range(server.connections):
            assert server.closed.acquire(timeout=5)

    @pytest.mark.parametrize("protocol,headers", [
        pytest.param("HTTP/1.0", {}, id="http-1.0"),
        pytest.param("HTTP/1.1", {"Connection": "close"}, id="connection-close"),
    ])
    def test_new_connection_after_a_closing_response(self, loopback, protocol, headers):
        server = loopback(protocol=protocol,
                          reply=lambda payload: (200, headers, b'{"choices": []}'))
        transport = HttpTransport(make_endpoint(base_url=server.url))
        try:
            for _ in range(3):
                assert transport.post({}) == {"choices": []}
        finally:
            transport.close()
        assert len(server.requests) == 3 and server.connections == 3

    def test_idle_close_reopens_without_resending(self, loopback):
        server = loopback(idle_timeout=0.2)
        transport = HttpTransport(make_endpoint(base_url=server.url))
        try:
            transport.post({"n": 1})
            assert server.closed.acquire(timeout=5)  # the server dropped the idle connection
            time.sleep(0.05)
            assert transport.post({"n": 2})["choices"]
        finally:
            transport.close()
        assert [json.loads(body)["n"] for _, _, _, body in server.requests] == [1, 2]
        assert server.connections == 2

    def test_failure_after_sending_is_not_resent(self, loopback):
        answers = iter([None, choices_reply({"n": 1})])
        server = loopback(reply=lambda payload: next(answers))
        transport = HttpTransport(make_endpoint(base_url=server.url))
        try:
            with pytest.raises(TransportError, match="request failed") as info:
                transport.post({"n": 1})
            assert info.value.retryable
            assert len(server.requests) == 1
            assert transport.post({"n": 1})["choices"]
        finally:
            transport.close()
        assert len(server.requests) == 2 and server.connections == 2

    def test_an_interrupted_request_closes_its_connection(self, loopback):
        """A KeyboardInterrupt mid-request leaves the connection's state
        unknown: post closes it and lets the interrupt through, and the next
        request opens a new connection."""
        server = loopback()
        transport = HttpTransport(make_endpoint(base_url=server.url))
        try:
            transport.post({"n": 1})
            conn = transport._connection()

            def interrupted():
                raise KeyboardInterrupt

            conn.getresponse = interrupted
            with pytest.raises(KeyboardInterrupt):
                transport.post({"n": 1})
            assert conn.sock is None
            del conn.getresponse
            assert transport.post({"n": 1})["choices"]
        finally:
            transport.close()
        assert len(server.requests) == 3 and server.connections == 2

    def test_no_resource_warning_after_annotate(self, tmp_path, loopback):
        server = loopback()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            annotate(make_endpoint(base_url=server.url, max_in_flight=2), make_cfg(),
                     ITEMS, AnnotationCache(tmp_path / "cache.jsonl"))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(server.requests) == 2


class TestProxyAndTls:
    @pytest.fixture(autouse=True)
    def api_key(self, monkeypatch):
        monkeypatch.setenv("MOCK_API_KEY", "sekret")

    def test_http_proxy_gets_absolute_url(self, monkeypatch, loopback):
        proxy = loopback()
        monkeypatch.setenv("http_proxy", proxy.url.replace("http://", "http://us%40r:p%3Ass@"))
        assert post_once(make_endpoint(base_url="http://mock.invalid:8080/api"), {"n": 1})
        [(method, path, headers, _)] = proxy.requests
        assert (method, path) == ("POST", "http://mock.invalid:8080/api/v1/chat/completions")
        assert headers["Host"] == "mock.invalid:8080"
        assert headers["Authorization"] == "Bearer sekret"
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(
            b"us@r:p:ss").decode()

    def test_no_proxy_bypasses_the_proxy(self, monkeypatch, loopback):
        proxy, server = loopback(), loopback()
        monkeypatch.setenv("http_proxy", proxy.url)
        monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
        assert post_once(make_endpoint(base_url=server.url), {"n": 1})
        assert proxy.requests == [] and len(server.requests) == 1

    @pytest.mark.usefixtures("loopback")
    @pytest.mark.parametrize("proxy", ["http://:3128", "http://proxy.invalid:port"])
    def test_bad_proxy_url_is_an_error(self, monkeypatch, proxy):
        monkeypatch.setenv("http_proxy", proxy)
        with pytest.raises(GatewayError, match="http proxy set in the environment"):
            HttpTransport(make_endpoint())

    def test_tls_verified_against_ssl_cert_file(self, monkeypatch, tmp_path, loopback):
        server = loopback(tls=True)
        endpoint = make_endpoint(base_url=server.url)
        monkeypatch.setenv("SSL_CERT_FILE", str(tmp_path / "empty.pem"))
        monkeypatch.setenv("SSL_CERT_DIR", str(tmp_path))
        (tmp_path / "empty.pem").write_text("")
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            post_once(endpoint, {"n": 1})
        assert server.requests == []
        monkeypatch.setenv("SSL_CERT_FILE", str(CERT))
        assert post_once(endpoint, {"n": 1})["choices"]
        assert len(server.requests) == 1

    def test_https_through_connect_tunnel(self, monkeypatch, loopback):
        proxy, server = loopback(), loopback(tls=True)
        monkeypatch.setenv("SSL_CERT_FILE", str(CERT))
        monkeypatch.setenv("https_proxy", proxy.url.replace("http://", "http://u:p@"))
        transport = HttpTransport(make_endpoint(base_url=server.url))
        try:
            for _ in range(2):
                assert transport.post({"n": 1})["choices"]
        finally:
            transport.close()
        [(method, target, headers, _)] = proxy.requests
        assert (method, target) == ("CONNECT", server.url.removeprefix("https://"))
        assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"u:p").decode()
        assert len(server.requests) == 2 and server.connections == 1


class TestConfigLoaders:
    def test_load_endpoint(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({
            "name": "mock-a", "base_url": "http://mock.invalid",
            "api_key_env": "MOCK_API_KEY", "supports_n": False,
            "retry": {"max_attempts": 5, "backoff": [0.5]},
        }), encoding="utf-8")
        ep = load_endpoint(path)
        assert ep.name == "mock-a" and not ep.supports_n
        assert ep.retry == RetryPolicy(max_attempts=5, backoff=(0.5,))

    @pytest.mark.parametrize("change,message", [
        ({"max_in_fligth": 1}, r"unknown keys \['max_in_fligth'\]"),
        ({"retry": {"max_attemps": 1}}, r"retry: unknown keys \['max_attemps'\]"),
        ({"retry": [1]}, "retry: expected a JSON object"),
        ({"supports_n": "false"}, "supports_n must be true or false"),
        ({"supports_n": 0}, "supports_n must be true or false"),
        ({"base_url": "mock.invalid"}, "base_url must be"),
        ({"base_url": "ftp://mock.invalid"}, "base_url must be"),
        ({"base_url": "http://"}, "base_url must be"),
        ({"base_url": "http://u:p@mock.invalid"}, "base_url must be"),
        ({"base_url": "http://mock.invalid?v=1"}, "base_url must be"),
        ({"base_url": "http://mock.invalid:99999"}, "base_url must be"),
        ({"base_url": 8080}, "base_url must be"),
        ({"timeout": 0}, "timeout must be a positive"),
        ({"timeout": float("nan")}, "timeout must be a positive"),
        ({"timeout": float("inf")}, "timeout must be a positive"),
        ({"name": 5}, "name must be a string, not int"),
        ({"api_key_env": None}, "api_key_env must be a string, not NoneType"),
        ({"max_in_flight": True}, "max_in_flight must be an integer, not bool"),
        ({"max_in_flight": 2.0}, "max_in_flight must be an integer, not float"),
        ({"timeout": "60"}, "timeout must be a number, not str"),
        ({"retry": {"max_attempts": "3"}}, "retry.max_attempts must be an integer, not str"),
        ({"retry": {"backoff": "1,2"}}, "retry.backoff must be a list, not str"),
        ({"retry": {"backoff": [1, True]}}, "retry.backoff must be a number, not bool"),
        ({"retry": {"max_attempts": 0}}, "max_attempts must be >= 1"),
        ({"max_in_flight": 0}, "max_in_flight must be >= 1"),
        ({"name": ""}, "endpoint needs name, base_url, and api_key_env"),
    ])
    def test_load_endpoint_is_strict(self, tmp_path, change, message):
        path = tmp_path / "endpoint.json"
        path.write_text(json.dumps({
            "name": "mock-a", "base_url": "https://mock.invalid/api/",
            "api_key_env": "MOCK_API_KEY", **change,
        }), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            load_endpoint(path)

    def test_load_endpoint_not_an_object(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text("[]", encoding="utf-8")
        with pytest.raises(ValidationError, match="expected a JSON object, got list"):
            load_endpoint(path)

    def test_load_endpoint_bad_json(self, tmp_path):
        path = tmp_path / "endpoint.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_endpoint(path)

    def test_load_prompt_config_inline(self, tmp_path):
        path = tmp_path / "prompt.json"
        path.write_text(json.dumps({
            "guideline_text": GUIDELINE, "strategy": "cot",
            "placement": "user", "temperature": 0.3, "n_samples": 7,
        }), encoding="utf-8")
        cfg = load_prompt_config(path, SPEC)
        assert cfg.strategy is Strategy.COT
        assert cfg.placement is Placement.USER
        assert cfg.guideline_text == GUIDELINE
        assert cfg.n_samples == 7

    def test_load_prompt_config_guideline_file(self, tmp_path):
        (tmp_path / "guide.txt").write_text(GUIDELINE, encoding="utf-8")
        path = tmp_path / "prompt.json"
        path.write_text(json.dumps({"guideline_file": "guide.txt"}),
                        encoding="utf-8")
        assert load_prompt_config(path, SPEC).guideline_text == GUIDELINE

    @pytest.mark.parametrize("change,message", [
        ({"n_sample": 7}, r"unknown keys \['n_sample'\]"),
        ({"temperature": float("nan")}, "temperature must be >= 0"),
        ({"temperature": True}, "temperature must be a number, not bool"),
        ({"n_samples": 2.9}, "n_samples must be an integer, not float"),
        ({"n_samples": "5"}, "n_samples must be an integer, not str"),
        ({"strategy": 5}, "strategy must be a string, not int"),
        ({"persona_text": 5}, "persona_text must be a string or null, not int"),
        ({"guideline_text": ["g"]}, "guideline_text must be a string or null, not list"),
        ({"guideline_text": None, "guideline_file": 5}, "guideline_file must be a string, not int"),
    ])
    def test_load_prompt_config_is_strict(self, tmp_path, change, message):
        path = tmp_path / "prompt.json"
        path.write_text(json.dumps({"guideline_text": GUIDELINE, **change}), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            load_prompt_config(path, SPEC)

    def test_load_prompt_config_requires_guideline(self, tmp_path):
        path = tmp_path / "prompt.json"
        path.write_text(json.dumps({"strategy": "base"}), encoding="utf-8")
        with pytest.raises(ValidationError, match="guideline"):
            load_prompt_config(path, SPEC)
