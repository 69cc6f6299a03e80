import base64
import gc
import hashlib
import itertools
import json
import socket
import threading
import time
import warnings
from importlib import resources

import pytest
from conftest import CERT, choices_reply

import silicon.gateway as gateway
from silicon.core import (AnnotationRecord, LabelValue, Role, SourceId, TaskKind, TaskSpec,
                          ValidationError)
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
