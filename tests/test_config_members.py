"""What every JSON config reader keeps: each required member's error, each
default taken from its dataclass, the guideline fallback, and exact messages.

Each config is written to a file and read by its public loader, so these
tests hold for any reader behind the loaders.
"""

import json

import pytest

from silicon.core import TaskKind, TaskSpec, ValidationError, load_task_spec
from silicon.gateway import ModelEndpoint, PromptConfig, load_endpoint, load_prompt_config
from silicon.noise_sim import SimConfig, load_sim_config

SPEC = TaskSpec(task_id="t", kind=TaskKind.MULTICLASS, label_universe=("a", "b", "c"))

# config name -> (loader, the members a file must hold, the dataclass those members build)
CONFIGS = {
    "task spec": (
        load_task_spec,
        {"task_id": "t", "kind": "multiclass", "labels": ["a", "b", "c"]},
        SPEC,
    ),
    "sim config": (
        load_sim_config,
        {"n_classes": 2, "priors": [0.5, 0.5], "error_rate": 0.1,
         "llm_confusion": [[0.9, 0.1], [0.2, 0.8]]},
        SimConfig(n_classes=2, priors=(0.5, 0.5), error_rate=0.1,
                  llm_confusion=((0.9, 0.1), (0.2, 0.8))),
    ),
    "endpoint config": (
        load_endpoint,
        {"name": "m", "base_url": "http://mock.invalid", "api_key_env": "KEY"},
        ModelEndpoint(name="m", base_url="http://mock.invalid", api_key_env="KEY"),
    ),
    "prompt config": (
        lambda path: load_prompt_config(path, SPEC),
        {"guideline_text": "Label it."},
        PromptConfig(task=SPEC, guideline_text="Label it."),
    ),
}


def write(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def message(load, path):
    with pytest.raises(ValidationError) as info:
        load(path)
    return str(info.value)


@pytest.mark.parametrize("what", CONFIGS)
def test_required_members_alone_take_every_default_from_the_dataclass(tmp_path, what):
    load, required, expected = CONFIGS[what]
    assert load(write(tmp_path, required)) == expected


@pytest.mark.parametrize("what, key", [
    (what, key) for what in ("task spec", "sim config", "endpoint config")
    for key in CONFIGS[what][1]
])
def test_a_missing_required_member_is_named(tmp_path, what, key):
    load, required, _ = CONFIGS[what]
    path = write(tmp_path, {k: v for k, v in required.items() if k != key})
    assert message(load, path) == f"{path}: bad {what}: {key!r}"


def test_a_prompt_config_needs_a_guideline(tmp_path):
    load = CONFIGS["prompt config"][0]
    path = write(tmp_path, {"strategy": "cot", "guideline_text": None})
    assert message(load, path) == f"{path}: needs guideline_text or guideline_file"


@pytest.mark.parametrize("guideline_file", ["absent.txt", 5, None, ["g.txt"]])
def test_guideline_text_wins_and_guideline_file_is_then_unread(tmp_path, guideline_file):
    load = CONFIGS["prompt config"][0]
    (tmp_path / "g.txt").write_text("From the file.", encoding="utf-8")
    path = write(tmp_path, {"guideline_text": "Inline.", "guideline_file": guideline_file})
    assert load(path).guideline_text == "Inline."
    path = write(tmp_path, {"guideline_text": None, "guideline_file": "g.txt"})
    assert load(path).guideline_text == "From the file."


@pytest.mark.parametrize("name", ["base.json", 5, None, [1, "x"], {"a": 1}])
def test_a_sim_config_name_is_allowed_and_unchecked(tmp_path, name):
    load, required, expected = CONFIGS["sim config"]
    assert load(write(tmp_path, {**required, "name": name})) == expected


# one fault per file, on top of the required members, and its exact message
@pytest.mark.parametrize("what, change, text", [
    ("task spec", {"labels": ["a", 2]}, "bad task spec: labels must be a string, not int"),
    ("task spec", {"kind": "ordinal"}, "bad task spec: 'ordinal' is not a valid TaskKind"),
    ("task spec", {"threshold": 10 ** 400}, "bad task spec: threshold is too large a number"),
    ("sim config", {"llm_confusion": [[1, 0], "x"]},
     "bad sim config: llm_confusion must be a list, not str"),
    ("sim config", {"seed": None}, "bad sim config: seed must be an integer, not NoneType"),
    ("endpoint config", {"retry": None},
     "bad endpoint config retry: expected a JSON object, got NoneType"),
    ("endpoint config", {"retry": {"backoff": [1, "2"]}},
     "bad endpoint config: retry.backoff must be a number, not str"),
    ("endpoint config", {"retry": {"tries": 2}},
     "bad endpoint config retry: unknown keys ['tries']; "
     "expected some of ['backoff', 'max_attempts']"),
    ("endpoint config", {"timeout": None}, "bad endpoint config: timeout must be a number, "
                                           "not NoneType"),
    ("prompt config", {"placement": "footer"},
     "bad prompt config: 'footer' is not a valid Placement"),
    ("prompt config", {"persona_text": 1},
     "bad prompt config: persona_text must be a string or null, not int"),
    ("prompt config", {"temp": 1},
     "bad prompt config: unknown keys ['temp']; expected some of ['guideline_file', "
     "'guideline_text', 'n_samples', 'persona_text', 'placement', 'strategy', 'temperature']"),
])
def test_single_fault_messages(tmp_path, what, change, text):
    load, required, _ = CONFIGS[what]
    path = write(tmp_path, {**required, **change})
    assert message(load, path) == f"{path}: {text}"


@pytest.mark.parametrize("what", CONFIGS)
def test_a_config_that_is_no_object_is_named(tmp_path, what):
    path = write(tmp_path, ["x"])
    expected = f"{path}: bad {what}: expected a JSON object, got list"
    assert message(CONFIGS[what][0], path) == expected

