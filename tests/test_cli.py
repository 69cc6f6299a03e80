import hashlib
import importlib.util
import json
import math
import os
import pathlib
import random
import runpy
import subprocess
import sys
import types
import zlib

import pytest

import silicon.gateway as gateway
from silicon import __version__, cli
from silicon.core import load_dataset, load_task_spec
from silicon.gateway import REPLAY_ENV, AnnotationCache, HttpTransport, ScriptedTransport

DATA = pathlib.Path(__file__).parent / "data"
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def clean_replay_env(monkeypatch):
    monkeypatch.delenv(REPLAY_ENV, raising=False)
    monkeypatch.delenv("SILICON_MOCK_KEY", raising=False)
    yield
    os.environ.pop(REPLAY_ENV, None)


def write_task(tmp_path, kind="multiclass", labels=("red", "green", "blue"),
               threshold=0.5):
    path = tmp_path / "task.json"
    path.write_text(json.dumps({
        "task_id": "toy", "kind": kind, "labels": list(labels),
        "threshold": threshold,
    }), encoding="utf-8")
    return str(path)


def write_records(path, rows):
    """rows: (item_id, role, name, run, [label names])"""
    with open(path, "w", encoding="utf-8") as fh:
        for item, role, name, run, labels in rows:
            fh.write(json.dumps({
                "item_id": item, "source": {"role": role, "name": name},
                "run": run, "labels": labels,
            }) + "\n")
    return str(path)


def read_manifest(out_path):
    path = pathlib.Path(str(out_path) + ".manifest.json")
    if not path.exists():
        path = pathlib.Path(out_path) / "manifest.json"
    return json.loads(path.read_text(encoding="utf-8"))


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert cli.run([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert cli.run(["agreement"]) == 1

    @pytest.mark.parametrize("subcommand", ["agreement", "fsd", "mix-sensitivity"])
    def test_task_is_required(self, tmp_path, capsys, subcommand):
        runs = TestFsd().runs_file(tmp_path)
        inputs = {"agreement": ["--a", runs], "fsd": ["--runs", runs],
                  "mix-sensitivity": ["--llm", runs, "--expert", runs, "--crowd", runs]}
        out = tmp_path / "o"
        assert cli.run([subcommand, *inputs[subcommand], "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: the following arguments are required: --task\n")
        assert not out.exists() and not pathlib.Path(f"{out}.manifest.json").exists()

    def test_unknown_flag(self):
        assert cli.run(["agreement", "--nope"]) == 1

    def test_replay_only_on_annotate(self, tmp_path, capsys):
        args = ["fsd", "--task", write_task(tmp_path), "--runs", TestFsd().runs_file(tmp_path),
                "--out", str(tmp_path / "o")]
        assert cli.run(args + ["--replay"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # -h and --version exit from argparse
            code = ("exit", exc.code)
        return code, *capsys.readouterr()

    @pytest.mark.parametrize("argv", [["-h"], ["--version"], [], ["frobnicate"]] + [
        [name, *rest] for name in cli._SUBCOMMANDS
        for rest in (["-h"], [], ["--nope"], ["--seed", "x"])])
    def test_one_subparser_says_what_all_of_them_say(self, capsys, monkeypatch, argv):
        """run builds only the subparser argv names; its help, usage errors and
        exit codes are those of the parser with every subparser."""
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda names=None: built.append(names)
                            or build(names))
        got = self.outcome(capsys, argv)
        monkeypatch.setattr(cli, "_build_parser", lambda names=None: build())
        assert got == self.outcome(capsys, argv)
        assert built == [[argv[0]] if argv and argv[0] in cli._SUBCOMMANDS else None]

    def test_module_entry_point(self):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        done = subprocess.run([sys.executable, "-m", "silicon.cli", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout.strip() == __version__

    def test_main_exits_with_the_code_run_returns(self, capsys, monkeypatch):
        """`python -m silicon.cli` runs main in-process here: the module is
        already imported, which runpy warns of."""
        monkeypatch.setattr(sys, "argv", ["silicon", "frobnicate"])
        with pytest.warns(RuntimeWarning, match="found in sys.modules"), \
                pytest.raises(SystemExit) as exc:
            runpy.run_module("silicon.cli", run_name="__main__", alter_sys=True)
        assert exc.value.code == 1
        assert "usage error" in capsys.readouterr().err


class TestAgreement:
    def agreement_file(self, tmp_path, n_disagree=0):
        labels = ["red", "green", "blue"]
        rows = []
        for j in range(9):
            a = labels[j % 3]
            b = labels[(j + 1) % 3] if j < n_disagree else a
            rows.append((f"i{j}", "crowd", "c1", 0, [a]))
            rows.append((f"i{j}", "crowd", "c2", 0, [b]))
        return write_records(tmp_path / "ann.jsonl", rows)

    def test_perfect_agreement(self, tmp_path, capsys):
        task = write_task(tmp_path)
        out = tmp_path / "report.json"
        code = cli.run(["agreement", "--task", task,
                        "--a", self.agreement_file(tmp_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["kappa"] == 1.0
        assert report["sources"] == ["c1", "c2"]
        manifest = read_manifest(out)
        assert manifest["subcommand"] == "agreement"
        assert manifest["outputs"] == ["report.json"]
        assert set(manifest["inputs"]) == {task, self.agreement_file(tmp_path)}
        assert all(len(d) == 64 for d in manifest["inputs"].values())

    def test_two_files_three_sources(self, tmp_path):
        task = write_task(tmp_path)
        a = self.agreement_file(tmp_path, n_disagree=3)
        b = write_records(tmp_path / "b.jsonl",
                          [(f"i{j}", "expert", "e1", 0, ["red"]) for j in range(9)])
        out = tmp_path / "report.json"
        assert cli.run(["agreement", "--task", task, "--a", a, "--b", b,
                        "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert len(report["pairwise"]) == 3
        assert report["mean_kappa"] == pytest.approx(
            sum(p["kappa"] for p in report["pairwise"]) / 3, abs=1e-6)

    def test_confusion_csv(self, tmp_path):
        task = write_task(tmp_path)
        out = tmp_path / "report.json"
        confusion = tmp_path / "confusion.csv"
        assert cli.run(["agreement", "--task", task,
                        "--a", self.agreement_file(tmp_path, n_disagree=2),
                        "--out", str(out), "--confusion-csv", str(confusion)]) == 0
        lines = confusion.read_text(encoding="utf-8").strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "category"
        assert len(lines) == len(header) - 1 + 1

    def test_confusion_csv_lone_surrogate_label(self, tmp_path):
        """A label named with a JSON \\ud800 escape holds a lone surrogate; the
        confusion table writes it back as that escape, and the manifest follows."""
        task = write_task(tmp_path, labels=("r\ud800d", "green", "blue"))
        a = write_records(tmp_path / "ann.jsonl",
                          [(f"i{j}", "crowd", name, 0, [["r\ud800d", "green"][j % 2]])
                           for j in range(6) for name in ("c1", "c2")])
        out, confusion = tmp_path / "report.json", tmp_path / "confusion.csv"
        assert cli.run(["agreement", "--task", task, "--a", a, "--out", str(out),
                        "--confusion-csv", str(confusion)]) == 0
        assert confusion.read_bytes().splitlines()[:2] == [
            b"category,r\\ud800d,green", b"r\\ud800d,3,0"]
        assert read_manifest(out)["outputs"] == ["report.json", "confusion.csv"]

    def test_confusion_csv_of_more_than_two_sources_is_rejected(self, tmp_path, capsys):
        """A confusion table is of one pair: with 3 sources the run exits 1
        and writes no output."""
        task = write_task(tmp_path)
        a = write_records(tmp_path / "crowd.jsonl",
                          [(f"i{j}", "crowd", f"c{k}", 0, [["red", "green"][(j + k) % 2]])
                           for j in range(6) for k in range(3)])
        out, confusion = tmp_path / "report.json", tmp_path / "confusion.csv"
        assert cli.run(["agreement", "--task", task, "--a", a, "--out", str(out),
                        "--confusion-csv", str(confusion)]) == 1
        assert "--confusion-csv needs exactly 2 sources, found 3" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["crowd.jsonl", "task.json"]

    def test_single_source_rejected(self, tmp_path, capsys):
        task = write_task(tmp_path)
        a = write_records(tmp_path / "one.jsonl",
                          [("i0", "crowd", "c1", 0, ["red"])])
        assert cli.run(["agreement", "--task", task, "--a", a,
                        "--out", str(tmp_path / "r.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_expert_and_crowd_sharing_a_name_rejected(self, tmp_path, capsys):
        task = write_task(tmp_path)
        a = write_records(tmp_path / "ann.jsonl",
                          [(f"i{j}", role, "ann", 0, ["red"])
                           for j in range(4) for role in ("expert", "crowd")])
        out = tmp_path / "report.json"
        assert cli.run(["agreement", "--task", task, "--a", a, "--out", str(out)]) == 1
        assert "error: duplicate source name across roles: 'ann'" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_io_error(self, tmp_path):
        task = write_task(tmp_path)
        out = tmp_path / "no-such-dir" / "report.json"
        assert cli.run(["agreement", "--task", task,
                        "--a", self.agreement_file(tmp_path),
                        "--out", str(out)]) == 2


class TestBaselineCompare:
    def test_expert_beats_crowd(self, tmp_path):
        task = write_task(tmp_path, threshold=0.5)
        labels = ["red", "green", "blue"]
        expert_rows, crowd_rows = [], []
        for j in range(9):
            lab = labels[j % 3]
            expert_rows += [(f"i{j}", "expert", "e1", 0, [lab]),
                            (f"i{j}", "expert", "e2", 0, [lab])]
            other = labels[(j + 1) % 3] if j < 4 else lab
            crowd_rows += [(f"i{j}", "crowd", "c1", 0, [lab]),
                           (f"i{j}", "crowd", "c2", 0, [other])]
        expert = write_records(tmp_path / "expert.jsonl", expert_rows)
        crowd = write_records(tmp_path / "crowd.jsonl", crowd_rows)
        out = tmp_path / "compare.json"
        assert cli.run(["baseline-compare", "--task", task, "--expert", expert,
                        "--crowd", crowd, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["expert"]["kappa"] == 1.0
        assert report["crowd"]["kappa"] < 1.0
        assert report["delta"] > 0
        assert report["expert_meets_threshold"] is True
        assert report["threshold"] == 0.5

    def test_single_annotator_role_rejected(self, tmp_path):
        task = write_task(tmp_path)
        expert = write_records(tmp_path / "expert.jsonl",
                               [("i0", "expert", "e1", 0, ["red"])])
        crowd = write_records(tmp_path / "crowd.jsonl",
                              [("i0", "crowd", "c1", 0, ["red"]),
                               ("i0", "crowd", "c2", 0, ["red"])])
        assert cli.run(["baseline-compare", "--task", task, "--expert", expert,
                        "--crowd", crowd, "--out", str(tmp_path / "o.json")]) == 1


class TestAnnotateReplay:
    def args(self, tmp_path, cache, out, items=DATA / "items.jsonl"):
        return ["annotate",
                "--task", str(DATA / "task.json"),
                "--items", str(items),
                "--endpoint", str(DATA / "endpoint_focal.json"),
                "--prompt", str(DATA / "prompt_focal.json"),
                "--cache", str(cache), "--out", str(out), "--replay"]

    def test_replay_from_bundled_cache(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes((DATA / "replay_cache.jsonl").read_bytes())
        out = tmp_path / "focal.jsonl"
        assert cli.run(self.args(tmp_path, cache, out)) == 0
        records = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 24 * 5 - 1  # one scripted junk response
        failures = (tmp_path / "focal.jsonl.failures.jsonl").read_text(encoding="utf-8")
        assert json.loads(failures)["item_id"] == "it007"
        manifest = read_manifest(out)
        assert manifest["replay"] is True
        assert manifest["subcommand"] == "annotate"
        # the replay run must never grow the cache
        assert cache.read_bytes() == (DATA / "replay_cache.jsonl").read_bytes()

    def test_replay_by_environment_is_recorded_as_replay(self, tmp_path, monkeypatch):
        """SILICON_REPLAY=1 without --replay writes what --replay writes, manifest
        included: it records "replay": true and the same config digest."""
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes((DATA / "replay_cache.jsonl").read_bytes())
        out = tmp_path / "focal.jsonl"
        runs = []
        for flag in (True, False):
            args = self.args(tmp_path, cache, out)
            if not flag:
                args.remove("--replay")
                monkeypatch.setenv(REPLAY_ENV, "1")
            assert cli.run(args) == 0
            manifest = read_manifest(out)
            runs.append((out.read_bytes(), manifest["replay"], manifest["config_digest"]))
        assert runs[1] == runs[0] and runs[0][1] is True
        assert cache.read_bytes() == (DATA / "replay_cache.jsonl").read_bytes()

    def test_rerun_without_failures_removes_the_earlier_failures_file(self, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes((DATA / "replay_cache.jsonl").read_bytes())
        out = tmp_path / "focal.jsonl"
        failures = tmp_path / "focal.jsonl.failures.jsonl"
        assert cli.run(self.args(tmp_path, cache, out)) == 0
        assert failures.exists()
        items = tmp_path / "items.jsonl"
        lines = (DATA / "items.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        items.write_text("".join(l for l in lines if '"it007"' not in l), encoding="utf-8")
        assert cli.run(self.args(tmp_path, cache, out, items)) == 0
        assert read_manifest(out)["outputs"] == ["focal.jsonl"]
        assert not failures.exists()
        assert len(out.read_text(encoding="utf-8").splitlines()) == 23 * 5

    def test_replay_survives_torn_last_line(self, tmp_path, capsys):
        clean_out = tmp_path / "clean.jsonl"
        clean_cache = tmp_path / "clean_cache.jsonl"
        clean_cache.write_bytes((DATA / "replay_cache.jsonl").read_bytes())
        assert cli.run(self.args(tmp_path, clean_cache, clean_out)) == 0
        torn = (DATA / "replay_cache.jsonl").read_bytes() + b'{"key": "0123", "mod'
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes(torn)
        out = tmp_path / "focal.jsonl"
        assert cli.run(self.args(tmp_path, cache, out)) == 0
        assert "torn last line (20 bytes)" in capsys.readouterr().err
        assert out.read_bytes() == clean_out.read_bytes()
        assert cache.read_bytes() == torn  # replay appends nothing, so nothing is cut

    def test_replay_miss_is_gateway_error(self, tmp_path, capsys):
        cache = tmp_path / "empty.jsonl"
        out = tmp_path / "focal.jsonl"
        assert cli.run(self.args(tmp_path, cache, out)) == 2
        assert "gateway error" in capsys.readouterr().err

    def test_live_mode_without_key_is_gateway_error(self, tmp_path, capsys):
        cache = tmp_path / "empty.jsonl"
        out = tmp_path / "focal.jsonl"
        args = [a for a in self.args(tmp_path, cache, out) if a != "--replay"]
        assert cli.run(args) == 2
        assert "SILICON_MOCK_KEY" in capsys.readouterr().err


class TestAnnotateSharedPrompts:
    """Items with one text share one prompt: it is fetched once, and a fill
    writes what a replay of its cache writes, byte for byte."""

    LABELS = ("support", "oppose", "unclear")

    def scripted(self, monkeypatch, script):
        """Puts a ScriptedTransport in HttpTransport's place; returns the
        transports the runs make."""
        made = []

        class Transport(ScriptedTransport):
            def __init__(self, endpoint):
                super().__init__(script)
                made.append(self)

            def close(self):
                pass

        monkeypatch.setattr(gateway, "HttpTransport", Transport)
        return made

    def annotate(self, tmp_path, texts, out, *extra, n_samples=2, max_in_flight=1,
                 supports_n=True):
        endpoint = json.loads((DATA / "endpoint_focal.json").read_text(encoding="utf-8"))
        endpoint.update(max_in_flight=max_in_flight, supports_n=supports_n)
        prompt = json.loads((DATA / "prompt_focal.json").read_text(encoding="utf-8"))
        prompt.update(n_samples=n_samples, guideline_file=str(DATA / "guideline.txt"))
        for name, obj in (("endpoint.json", endpoint), ("prompt.json", prompt)):
            (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
        (tmp_path / "items.jsonl").write_text(
            "".join(json.dumps({"item_id": f"it{i}", "text": text}) + "\n"
                    for i, text in enumerate(texts)), encoding="utf-8")
        return cli.run(["annotate", "--task", str(DATA / "task.json"),
                        "--items", str(tmp_path / "items.jsonl"),
                        "--endpoint", str(tmp_path / "endpoint.json"),
                        "--prompt", str(tmp_path / "prompt.json"),
                        "--cache", str(tmp_path / "cache.jsonl"),
                        "--out", str(tmp_path / out), *extra])

    def outputs(self, tmp_path, out):
        failures = tmp_path / (out + ".failures.jsonl")
        return ((tmp_path / out).read_bytes(),
                failures.read_bytes() if failures.exists() else None)

    def test_repeated_text_is_fetched_once_and_replays_as_filled(self, tmp_path, monkeypatch):
        """3 items, two with one text, 2 samples, one request in flight: 2
        posts, and the third item gets the first item's samples."""
        made = self.scripted(monkeypatch,
                             lambda m, call, choice: self.LABELS[(2 * call + choice) % 3])
        texts = ["the levy is fine", "the levy is a scam", "the levy is fine"]
        assert self.annotate(tmp_path, texts, "fill.jsonl") == 0
        assert [t.calls for t in made] == [2]
        assert self.annotate(tmp_path, texts, "replay.jsonl", "--replay") == 0
        assert len(made) == 1
        fill = self.outputs(tmp_path, "fill.jsonl")
        assert fill == self.outputs(tmp_path, "replay.jsonl")
        labels = {(r["item_id"], r["run"]): r["labels"]
                  for r in map(json.loads, fill[0].splitlines())}
        assert [labels["it2", s] for s in range(2)] == [labels["it0", s] for s in range(2)]
        assert len(AnnotationCache(tmp_path / "cache.jsonl")) == 4

    @pytest.mark.parametrize("supports_n", [True, False])
    @pytest.mark.parametrize("max_in_flight", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_fill_replays_byte_for_byte(self, tmp_path, monkeypatch, seed, max_in_flight,
                                        supports_n):
        """Random items files with repeated texts, over a cache that holds
        some samples of some texts: posts are one per distinct text with a
        miss (one per missing sample without n), and the fill's outputs are
        the replay's."""
        rng = random.Random(seed)
        pool = [f"post {k}: the levy {'is fine' if k % 2 else 'is a scam'}" for k in range(5)]
        texts = [rng.choice(pool) for _ in range(rng.randint(1, 12))]
        n_samples = 3
        warm = {text: rng.randint(1, n_samples) for text in rng.sample(pool, 2)}

        def script(messages, call, choice):
            code = zlib.crc32(messages[-1]["content"].encode()) + 3 * call + choice
            return "no idea" if code % 7 == 0 else self.LABELS[code % 3]

        made = self.scripted(monkeypatch, script)
        for text, k in warm.items():  # the cache holds the first k samples of text
            assert self.annotate(tmp_path, [text], "warm.jsonl", n_samples=k) == 0
        cached = len(made)
        kw = dict(n_samples=n_samples, max_in_flight=max_in_flight, supports_n=supports_n)
        assert self.annotate(tmp_path, texts, "fill.jsonl", **kw) == 0
        missing = [n_samples - warm.get(text, 0) for text in dict.fromkeys(texts)]
        assert sum(t.calls for t in made[cached:]) == sum(
            1 if supports_n else m for m in missing if m)
        assert self.annotate(tmp_path, texts, "replay.jsonl", "--replay", **kw) == 0
        assert self.outputs(tmp_path, "fill.jsonl") == self.outputs(tmp_path, "replay.jsonl")


class TestAnnotateOverHttp:
    def test_lone_surrogate_in_a_response_is_kept(self, tmp_path, monkeypatch, loopback):
        """A JSON \\ud800 escape decodes to a lone surrogate, which no UTF-8
        holds; the cache and the failures file write it as that escape."""
        def reply(payload):
            item_text = payload["messages"][-1]["content"]
            text = "a \ud800" if "it002:" in item_text else "support"
            body = json.dumps({"choices": [{"message": {"content": text}}] * payload["n"]})
            return 200, {}, body.encode()

        server = loopback(reply=reply)
        monkeypatch.setenv("SILICON_MOCK_KEY", "sk-test")
        endpoint = json.loads((DATA / "endpoint_focal.json").read_text(encoding="utf-8"))
        endpoint["base_url"] = server.url
        (tmp_path / "endpoint.json").write_text(json.dumps(endpoint), encoding="utf-8")
        items = (DATA / "items.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "items.jsonl").write_text("".join(items[:2]), encoding="utf-8")
        cache = tmp_path / "cache.jsonl"

        def annotate(out, *extra):
            return cli.run(["annotate", "--task", str(DATA / "task.json"),
                            "--items", str(tmp_path / "items.jsonl"),
                            "--endpoint", str(tmp_path / "endpoint.json"),
                            "--prompt", str(DATA / "prompt_focal.json"),
                            "--cache", str(cache), "--out", str(tmp_path / out), *extra])

        assert annotate("live.jsonl") == 0
        assert len(server.requests) == 2
        assert cache.read_bytes().count(b'"raw_response": "a \\ud800"') == 5
        reloaded = AnnotationCache(cache)
        assert sorted(e.raw_response for e in reloaded._entries.values()) == (
            ["a \ud800"] * 5 + ["support"] * 5)
        failures = (tmp_path / "live.jsonl.failures.jsonl").read_text(encoding="utf-8")
        assert [json.loads(line) for line in failures.splitlines()] == [
            {"item_id": "it002", "sample_index": s, "reason": "no label found",
             "raw_response": "a \ud800"} for s in range(5)]
        assert annotate("replay.jsonl", "--replay") == 0
        assert len(server.requests) == 2
        assert (tmp_path / "replay.jsonl.failures.jsonl").read_text(encoding="utf-8") == failures

    def test_lone_surrogate_item_id_is_kept(self, tmp_path, monkeypatch, loopback):
        """An item id with a lone surrogate is written to the output as its
        JSON escape and reads back unchanged."""
        def reply(payload):
            body = json.dumps({"choices": [{"message": {"content": "support"}}] * payload["n"]})
            return 200, {}, body.encode()

        server = loopback(reply=reply)
        monkeypatch.setenv("SILICON_MOCK_KEY", "sk-test")
        endpoint = json.loads((DATA / "endpoint_focal.json").read_text(encoding="utf-8"))
        endpoint["base_url"] = server.url
        (tmp_path / "endpoint.json").write_text(json.dumps(endpoint), encoding="utf-8")
        (tmp_path / "items.jsonl").write_text(
            "".join(json.dumps({"item_id": i, "text": f"post {i!r}"}) + "\n"
                    for i in ("x", "\ud800")), encoding="utf-8")
        out = tmp_path / "focal.jsonl"
        assert cli.run(["annotate", "--task", str(DATA / "task.json"),
                        "--items", str(tmp_path / "items.jsonl"),
                        "--endpoint", str(tmp_path / "endpoint.json"),
                        "--prompt", str(DATA / "prompt_focal.json"),
                        "--cache", str(tmp_path / "cache.jsonl"), "--out", str(out)]) == 0
        assert len(server.requests) == 2
        assert out.read_bytes().count(b'"item_id": "\\ud800"') == 5
        assert load_dataset(out, load_task_spec(DATA / "task.json")).item_ids() == ("x", "\ud800")


class TestFsd:
    def runs_file(self, tmp_path, extra_source=False):
        rows = []
        for j, triple in enumerate([("red", "red", "red"),
                                    ("red", "red", "green"),
                                    ("red", "green", "blue")]):
            for run, lab in enumerate(triple):
                rows.append((f"i{j}", "model", "m1", run, [lab]))
                if extra_source:
                    rows.append((f"i{j}", "model", "m2", run, [lab]))
        return write_records(tmp_path / "runs.jsonl", rows)

    def test_scores(self, tmp_path):
        task = write_task(tmp_path)
        out = tmp_path / "fsd.jsonl"
        assert cli.run(["fsd", "--task", task,
                        "--runs", self.runs_file(tmp_path), "--out", str(out)]) == 0
        scores = {json.loads(l)["item_id"]: json.loads(l)
                  for l in out.read_text(encoding="utf-8").splitlines()}
        assert scores["i0"]["fsd"] == 1.0
        assert scores["i1"]["fsd"] == pytest.approx(1 / 3, abs=1e-6)
        assert scores["i2"]["fsd"] == 0.0
        assert scores["i1"]["top_label"] == ["red"]

    def test_lone_surrogate_item_id(self, tmp_path):
        """A JSON \\ud800 escape in an item id decodes to a lone surrogate;
        the scores file writes it back as that escape."""
        task = write_task(tmp_path)
        runs = write_records(tmp_path / "runs.jsonl", [(item, "model", "m1", run, ["red"])
                                                       for item in ("x", "\ud800")
                                                       for run in (0, 1)])
        out = tmp_path / "fsd.jsonl"
        assert cli.run(["fsd", "--task", task, "--runs", runs, "--out", str(out)]) == 0
        assert out.read_bytes().count(b'"item_id": "\\ud800"') == 1
        scores = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert [(s["item_id"], s["fsd"]) for s in scores] == [("x", 1.0), ("\ud800", 1.0)]

    def test_many_sources_need_source_flag(self, tmp_path):
        task = write_task(tmp_path)
        runs = self.runs_file(tmp_path, extra_source=True)
        out = tmp_path / "fsd.jsonl"
        assert cli.run(["fsd", "--task", task, "--runs", runs,
                        "--out", str(out)]) == 1
        assert cli.run(["fsd", "--task", task, "--runs", runs,
                        "--source", "m2", "--out", str(out)]) == 0

    def test_single_run_item_rejected(self, tmp_path):
        task = write_task(tmp_path)
        runs = write_records(tmp_path / "runs.jsonl",
                             [("i0", "model", "m1", 0, ["red"])])
        assert cli.run(["fsd", "--task", task, "--runs", runs,
                        "--out", str(tmp_path / "fsd.jsonl")]) == 1

    def test_source_name_shared_by_roles_rejected(self, tmp_path, capsys):
        task = write_task(tmp_path)
        rows = [(f"i{j}", role, "m1", run, ["red"])
                for j in range(3) for role in ("expert", "model") for run in range(2)]
        runs = write_records(tmp_path / "runs.jsonl", rows)
        out = tmp_path / "fsd.jsonl"
        assert cli.run(["fsd", "--task", task, "--runs", runs, "--source", "m1",
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'m1'" in err and "expert, model" in err
        assert not out.exists()

    def test_lines_match_one_dumps_per_record(self, tmp_path):
        task = write_task(tmp_path)
        rows = [(7, "model", "m\u00e9", run, [lab])
                for run, lab in enumerate(["blue", "red", "blue", "green"])]
        rows += [("i\"1", "model", "m\u00e9", run, ["green"]) for run in range(2)]
        runs = write_records(tmp_path / "runs.jsonl", rows)
        out = tmp_path / "fsd.jsonl"
        assert cli.run(["fsd", "--task", task, "--runs", runs, "--out", str(out)]) == 0
        want = [
            {"item_id": 7, "source": {"role": "model", "name": "m\u00e9"}, "fsd": 0.25,
             "top_label": ["blue"], "second_label": ["red"], "n_samples": 4,
             "method": "sampling"},
            {"item_id": "i\"1", "source": {"role": "model", "name": "m\u00e9"}, "fsd": 1.0,
             "top_label": ["green"], "second_label": None, "n_samples": 2,
             "method": "sampling"},
        ]
        assert out.read_text(encoding="utf-8") == "".join(
            json.dumps(w, sort_keys=True, ensure_ascii=False) + "\n" for w in want)


def routing_inputs(tmp_path):
    task = write_task(tmp_path)
    labels = ["red", "green", "blue"]
    ref = {f"i{j}": labels[j % 3] for j in range(8)}
    focal_rows = []
    for j, (item, lab) in enumerate(ref.items()):
        if j < 4:
            triple = (lab, lab, lab)
        elif j < 6:
            wrong = labels[(j + 1) % 3]
            triple = (wrong, wrong, lab)
        else:
            triple = (lab, lab, labels[(j + 1) % 3])
        for run, x in enumerate(triple):
            focal_rows.append((item, "model", "m-focal", run, [x]))
    focal = write_records(tmp_path / "focal.jsonl", focal_rows)
    aux1 = write_records(tmp_path / "aux1.jsonl",
                         [(i, "model", "m-a", 0, [l]) for i, l in ref.items()])
    aux2 = write_records(tmp_path / "aux2.jsonl",
                         [(i, "model", "m-b", 0, [l]) for i, l in ref.items()])
    reference = write_records(tmp_path / "ref.jsonl",
                              [(i, "expert", "e1", 0, [l]) for i, l in ref.items()])
    return task, focal, aux1, aux2, reference


class TestRouteSweep:
    def test_sweep_outputs(self, tmp_path):
        task, focal, aux1, aux2, reference = routing_inputs(tmp_path)
        out = tmp_path / "sweep"
        assert cli.run(["route-sweep", "--task", task, "--focal", focal,
                        "--aux", aux1, "--aux", aux2,
                        "--reference", reference, "--taus", "0,0.5,1",
                        "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "tau,kappa,q,n_routed"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0.0", "0.5", "1.0"]
        qs = [float(r[2]) for r in rows]
        assert qs == sorted(qs) and qs[0] == 0.0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["focal"] == "m-focal"
        assert report["best"]["kappa"] == max(p["kappa"] for p in report["points"])
        assert (out / "manifest.json").exists()

    def test_duplicate_aux_name_rejected(self, tmp_path):
        task, focal, aux1, _, reference = routing_inputs(tmp_path)
        assert cli.run(["route-sweep", "--task", task, "--focal", focal,
                        "--aux", aux1, "--aux", aux1,
                        "--reference", reference,
                        "--out", str(tmp_path / "sweep")]) == 1

    def test_source_name_shared_by_roles_rejected(self, tmp_path, capsys):
        task, focal, aux1, aux2, reference = routing_inputs(tmp_path)
        with open(focal, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        with open(focal, "a", encoding="utf-8") as fh:
            for row in rows:
                row["source"] = {"role": "crowd", "name": "m-focal"}
                fh.write(json.dumps(row) + "\n")
        out = tmp_path / "sweep"
        assert cli.run(["route-sweep", "--task", task, "--focal", focal,
                        "--source", "m-focal", "--aux", aux1, "--aux", aux2,
                        "--reference", reference, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'m-focal'" in err and "model, crowd" in err
        assert not out.exists()


class TestEquivalence:
    def inputs(self, tmp_path, items=None):
        task = write_task(tmp_path)
        labels = ["red", "green", "blue"]
        items = items or [f"i{j}" for j in range(12)]
        ref = {item: labels[j % 3] for j, item in enumerate(items)}
        names = {"m1": 9, "m2": 8, "m3": 10}
        paths = []
        for name, n_right in names.items():
            rows = []
            for j, (item, lab) in enumerate(ref.items()):
                got = lab if j < n_right else labels[(j + 1) % 3]
                rows.append((item, "model", name, 0, [got]))
            paths.append(write_records(tmp_path / f"{name}.jsonl", rows))
        reference = write_records(tmp_path / "ref.jsonl",
                                  [(i, "expert", "e1", 0, [l]) for i, l in ref.items()])
        return task, paths, reference

    def test_report_and_forest(self, tmp_path):
        task, paths, reference = self.inputs(tmp_path)
        out = tmp_path / "eq"
        argv = ["equivalence", "--task", task, "--reference", reference,
                "--out", str(out)]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["baseline_model"] == "m1"
        assert report["n_items"] == 12 and report["n_obs"] == 36
        assert {c["model"] for c in report["comparisons"]} == {"m2", "m3"}
        lines = (out / "forest.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "model,estimate,lo,hi"
        assert len(lines) == 3

    def test_a_rerun_of_the_baseline_is_equivalent(self, tmp_path):
        """A second --models file with the baseline's labels under another
        name: its row is 0 +/- 0, and report.json is strict JSON."""
        task = write_task(tmp_path)
        labels = ["red", "green", "blue"]
        rng = random.Random(3)
        ref = {f"i{j:03d}": rng.choice(labels) for j in range(200)}
        paths = []
        for name, p_right in (("m1", 0.7), ("m1-rerun", 0.7), ("m2", 0.6)):
            if name != "m1-rerun":  # the rerun writes m1's labels again
                got = {item: lab if rng.random() < p_right else rng.choice(labels)
                       for item, lab in ref.items()}
            paths.append(write_records(tmp_path / f"{name}.jsonl",
                                       [(item, "model", name, 0, [lab])
                                        for item, lab in got.items()]))
        reference = write_records(tmp_path / "ref.jsonl",
                                  [(i, "expert", "e1", 0, [l]) for i, l in ref.items()])
        out = tmp_path / "eq"
        argv = ["equivalence", "--task", task, "--reference", reference,
                "--tost-margin", "0.5", "--out", str(out)]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 0

        def no_constant(token):
            raise ValueError(f"non-JSON constant {token}")

        report = json.loads((out / "report.json").read_text(encoding="utf-8"),
                            parse_constant=no_constant)
        rerun = {c["model"]: c for c in report["comparisons"]}["m1-rerun"]
        assert (rerun["coefficient"], rerun["se"], rerun["wald_z"], rerun["wald_p"]) == (
            0.0, 0.0, 0.0, 1.0)
        assert rerun["verdict"] == "equivalent" and rerun["tost_equivalent"] is True
        lines = (out / "forest.csv").read_text(encoding="utf-8").splitlines()
        assert "m1-rerun,0.0,0.0,0.0" in lines

    def test_lone_surrogate_model_name(self, tmp_path):
        """A model named with a JSON \\ud800 escape holds a lone surrogate;
        forest.csv writes it back as that escape, and the manifest follows."""
        task, paths, reference = self.inputs(tmp_path)
        renamed = tmp_path / "m2.jsonl"
        renamed.write_text(renamed.read_text(encoding="utf-8").replace(
            '"name": "m2"', '"name": "m\\ud800x"'), encoding="utf-8")
        out = tmp_path / "eq"
        argv = ["equivalence", "--task", task, "--reference", reference, "--out", str(out)]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 0
        assert (out / "forest.csv").read_bytes().splitlines()[1].startswith(b"m\\ud800x,")
        assert read_manifest(out)["outputs"] == ["report.json", "forest.csv"]

    def test_baseline_override(self, tmp_path):
        task, paths, reference = self.inputs(tmp_path)
        out = tmp_path / "eq"
        argv = ["equivalence", "--task", task, "--reference", reference,
                "--baseline", "m3", "--out", str(out)]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["baseline_model"] == "m3"
        assert {c["model"] for c in report["comparisons"]} == {"m1", "m2"}

    def test_tost_margin_flag(self, tmp_path):
        task, paths, reference = self.inputs(tmp_path)
        out = tmp_path / "eq"
        argv = ["equivalence", "--task", task, "--reference", reference,
                "--tost-margin", "2.0", "--out", str(out)]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert all(c["tost_equivalent"] is not None for c in report["comparisons"])

    @pytest.mark.parametrize("margin", ["0", "-1", "nan", "inf"])
    def test_bad_tost_margin_is_bad_input(self, tmp_path, capsys, margin):
        task, paths, reference = self.inputs(tmp_path)
        out = tmp_path / "eq"
        argv = ["equivalence", "--task", task, "--reference", reference,
                f"--tost-margin={margin}", "--out", str(out)]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 1
        assert "tost_margin must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_needs_two_models(self, tmp_path):
        task, paths, reference = self.inputs(tmp_path)
        assert cli.run(["equivalence", "--task", task, "--models", paths[0],
                        "--reference", reference,
                        "--out", str(tmp_path / "eq")]) == 1

    def test_reference_without_records_is_bad_input(self, tmp_path, capsys):
        task, paths, _ = self.inputs(tmp_path)
        reference = tmp_path / "empty.jsonl"
        reference.write_text("\n", encoding="utf-8")
        argv = ["equivalence", "--task", task, "--reference", str(reference),
                "--out", str(tmp_path / "eq")]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 1
        assert f"error: {reference}: no annotation records" in capsys.readouterr().err
        assert not (tmp_path / "eq").exists()

    def test_int_and_str_item_ids_are_bad_input(self, tmp_path, capsys):
        task, paths, reference = self.inputs(tmp_path, items=[1, 2, "x", "y", 5])
        argv = ["equivalence", "--task", task, "--reference", reference,
                "--out", str(tmp_path / "eq")]
        for p in paths:
            argv += ["--models", p]
        assert cli.run(argv) == 1
        assert "error: item ids mix int and str and cannot be sorted" in capsys.readouterr().err
        assert not (tmp_path / "eq").exists()


class TestMixSensitivity:
    def inputs(self, tmp_path, items=None):
        task = write_task(tmp_path)
        labels = ["red", "green", "blue"]
        items = items or [f"i{j}" for j in range(20)]
        llm = write_records(tmp_path / "llm.jsonl",
                            [(i, "model", "m1", 0, [labels[j % 3]])
                             for j, i in enumerate(items)])
        expert = write_records(tmp_path / "expert.jsonl",
                               [(i, "expert", "e1", 0,
                                 [labels[j % 3 if j % 5 else (j + 1) % 3]])
                                for j, i in enumerate(items)])
        crowd = write_records(tmp_path / "crowd.jsonl",
                              [(i, "crowd", "c1", 0,
                                [labels[j % 3 if j % 4 else (j + 2) % 3]])
                               for j, i in enumerate(items)])
        return task, llm, expert, crowd

    def test_curve(self, tmp_path):
        task, llm, expert, crowd = self.inputs(tmp_path)
        out = tmp_path / "mix"
        assert cli.run(["mix-sensitivity", "--task", task, "--llm", llm,
                        "--expert", expert, "--crowd", crowd,
                        "--replicates", "5", "--out", str(out)]) == 0
        lines = (out / "curve.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "alpha,mean_gap,lo,hi"
        first = lines[1].split(",")
        assert first[0] == "0.0" and float(first[1]) == 0.0
        assert len(lines) == 6  # default alpha grid 0,0.25,0.5,0.75,1

    def test_deterministic_given_seed(self, tmp_path):
        task, llm, expert, crowd = self.inputs(tmp_path)
        outs = []
        for run_dir in ("mix1", "mix2"):
            out = tmp_path / run_dir
            assert cli.run(["mix-sensitivity", "--task", task, "--llm", llm,
                            "--expert", expert, "--crowd", crowd,
                            "--replicates", "5", "--seed", "3",
                            "--out", str(out)]) == 0
            outs.append((out / "curve.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_int_and_str_item_ids_are_bad_input(self, tmp_path, capsys):
        task, llm, expert, crowd = self.inputs(tmp_path, items=[1, 2, "x", "y", 5])
        assert cli.run(["mix-sensitivity", "--task", task, "--llm", llm,
                        "--expert", expert, "--crowd", crowd,
                        "--out", str(tmp_path / "mix")]) == 1
        assert "error: item ids mix int and str and cannot be sorted" in capsys.readouterr().err
        assert not (tmp_path / "mix").exists()

    @pytest.mark.parametrize("alphas, message", [
        (",", "usage error: empty alpha list\n"),
        ("0,x", "usage error: bad alpha list '0,x': could not convert string to float: 'x'\n"),
    ])
    def test_bad_alpha_list_is_a_usage_error(self, tmp_path, capsys, alphas, message):
        task, llm, expert, crowd = self.inputs(tmp_path)
        assert cli.run(["mix-sensitivity", "--task", task, "--llm", llm, "--expert", expert,
                        "--crowd", crowd, "--alphas", alphas,
                        "--out", str(tmp_path / "mix")]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "mix").exists()


class TestSimulate:
    def config(self, tmp_path, **kw):
        obj = {
            "n_classes": 3,
            "priors": [1 / 3, 1 / 3, 1 / 3],
            "error_rate": 0.2,
            "llm_confusion": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
            "coupling": 0.0,
            "n_samples": 2000,
            "seed": 5,
        }
        obj.update(kw)
        path = tmp_path / kw.pop("name", "sim.json")
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def test_single_run(self, tmp_path):
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert result["config"]["seed"] == 5
        assert 0 <= result["result"]["reference_agreement"] <= 1
        assert (out / "manifest.json").exists()

    def test_misspelt_config_key_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", self.config(tmp_path, couplng=0.5),
                        "--out", str(out)]) == 1
        assert "couplng" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kw, message", [
        ({"priors": [float("nan"), 0.5, 0.5]}, "priors must be a length-3 simplex"),
        ({"llm_confusion": [[0.8, 0.1, 0.1], [0.1, float("nan"), 0.9], [0.1, 0.1, 0.8]]},
         "llm_confusion rows must be stochastic"),
    ], ids=["prior", "confusion"])
    def test_nan_in_config_is_bad_input(self, tmp_path, capsys, kw, message):
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", self.config(tmp_path, **kw),
                        "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override(self, tmp_path):
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--seed", "7", "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert result["config"]["seed"] == 7

    def test_sweep_e(self, tmp_path):
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--sweep-e", "0,0.2", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("error_rate,")
        assert len(lines) == 3

    def test_sweeps_mutually_exclusive(self, tmp_path, capsys):
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--sweep-e", "0.1", "--sweep-coupling", "0.5",
                        "--out", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not (tmp_path / "sim").exists()

    def test_task_is_rejected(self, tmp_path, capsys):
        assert cli.run(["simulate", "--config", self.config(tmp_path), "--task",
                        write_task(tmp_path), "--out", str(tmp_path / "sim")]) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --task")
        assert not (tmp_path / "sim").exists()

    def test_contrast(self, tmp_path):
        variant = self.config(tmp_path, name="variant.json", coupling=0.5)
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--contrast", variant, "--out", str(out)]) == 0
        contrast = json.loads((out / "contrast.json").read_text(encoding="utf-8"))
        assert "reference_gain" in contrast

    def test_contrast_mismatch_rejected(self, tmp_path):
        variant = self.config(tmp_path, name="variant.json", error_rate=0.4)
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--contrast", variant,
                        "--out", str(tmp_path / "sim")]) == 1

    @pytest.mark.parametrize("variant_kw", [
        {"error_rate": 0.4}, {"n_classes": 2, "priors": [0.5, 0.5],
                              "llm_confusion": [[0.8, 0.2], [0.2, 0.8]]},
        {"priors": [0.5, 0.25, 0.25]},
    ])
    def test_contrast_mismatch_checked_before_simulating(self, tmp_path, monkeypatch,
                                                          variant_kw):
        calls = []
        monkeypatch.setattr(cli, "simulate_many", calls.append)
        variant = self.config(tmp_path, name="variant.json", **variant_kw)
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--sweep-coupling", self.COUPLINGS, "--contrast", variant,
                        "--out", str(out)]) == 1
        assert calls == []
        assert not out.exists()

    COUPLINGS = "0,0.1,0.2,0.3,0.4,0.5"

    def expected_outputs(self, tmp_path, base_path, variant_path, seed=None):
        """result.json, sweep.csv and contrast.json built from direct calls,
        one simulate() per config asked for."""
        from silicon.noise_sim import SimConfig, contrast, load_sim_config, simulate

        base, variant = load_sim_config(base_path), load_sim_config(variant_path)
        if seed is not None:
            base = SimConfig(**{**base.to_json(), "seed": seed})
            variant = SimConfig(**{**variant.to_json(), "seed": seed})
        want = tmp_path / "want"
        want.mkdir()
        cli._write_json(str(want / "result.json"),
                        {"config": base.to_json(), "result": simulate(base).to_json()})
        rows = []
        for v in map(float, self.COUPLINGS.split(",")):
            r = simulate(SimConfig(**{**base.to_json(), "coupling": v}))
            rows.append([v, r.truth_agreement, r.reference_agreement, r.co_label_term,
                         r.slope, r.chance_rate, r.measurement_error,
                         r.identity_residual, r.std_error])
        cli._write_csv(str(want / "sweep.csv"), [
            "coupling", "truth_agreement", "reference_agreement", "co_label_term",
            "slope", "chance_rate", "measurement_error", "identity_residual",
            "std_error"], rows)
        cli._write_json(str(want / "contrast.json"), contrast(base, variant).to_json())
        return want

    @pytest.mark.parametrize("variant_kw, calls", [
        # a variant outside the sweep: base (= coupling 0) + 5 sweep points + variant
        ({"llm_confusion": [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]}, 7),
        # a variant that is also a sweep point is not simulated again
        ({"coupling": 0.3}, 6),
    ])
    def test_each_distinct_config_simulated_once(self, tmp_path, monkeypatch,
                                                  variant_kw, calls):
        base = self.config(tmp_path)
        variant = self.config(tmp_path, name="variant.json", **variant_kw)
        seen = []
        real = cli.simulate_many

        def counting(cfgs):
            seen.extend(cfgs)
            return real(cfgs)

        monkeypatch.setattr(cli, "simulate_many", counting)
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", base, "--sweep-coupling", self.COUPLINGS,
                        "--contrast", variant, "--out", str(out)]) == 0
        assert len(seen) == calls
        assert len(set(seen)) == calls
        monkeypatch.setattr(cli, "simulate_many", real)
        want = self.expected_outputs(tmp_path, base, variant)
        for name in ("result.json", "sweep.csv", "contrast.json"):
            assert (out / name).read_bytes() == (want / name).read_bytes(), name

    def test_seed_override_applies_to_contrast_variant(self, tmp_path):
        from silicon.noise_sim import SimConfig, load_sim_config, simulate

        base = self.config(tmp_path)
        variant = self.config(tmp_path, name="variant.json", coupling=0.5, seed=9)
        out = tmp_path / "sim"
        assert cli.run(["simulate", "--config", base, "--sweep-coupling", self.COUPLINGS,
                        "--contrast", variant, "--seed", "3", "--out", str(out)]) == 0
        want = self.expected_outputs(tmp_path, base, variant, seed=3)
        got = json.loads((out / "contrast.json").read_text(encoding="utf-8"))
        assert (out / "contrast.json").read_bytes() == (want / "contrast.json").read_bytes()
        # the variant is paired with the base: both were drawn with seed 3
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        assert result["config"]["seed"] == 3
        assert got["base"] == result["result"]
        v = load_sim_config(variant)
        assert got["variant"] == cli._round_floats(
            simulate(SimConfig(**{**v.to_json(), "seed": 3})).to_json())
        assert got["variant"] != cli._round_floats(simulate(v).to_json())

    def test_bad_sweep_list_writes_nothing(self, tmp_path):
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--sweep-e", "0.1,x", "--out", str(tmp_path / "sim")]) == 1
        assert not (tmp_path / "sim").exists()


def manifest_case(tmp_path, subcommand):
    """(argv, out, inputs, output names) of one run of `subcommand` on small
    inputs: the inputs and outputs its manifest names."""
    out = tmp_path / "out"
    if subcommand == "annotate":
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes((DATA / "replay_cache.jsonl").read_bytes())
        out = tmp_path / "focal.jsonl"
        argv = TestAnnotateReplay().args(tmp_path, cache, out)
        inputs = [argv[i + 1] for i, a in enumerate(argv)
                  if a in ("--task", "--items", "--endpoint", "--prompt", "--cache")]
        return argv, out, inputs, ["focal.jsonl", "focal.jsonl.failures.jsonl"]
    if subcommand == "simulate":
        base = TestSimulate().config(tmp_path)
        variant = TestSimulate().config(tmp_path, name="variant.json", coupling=0.5)
        argv = ["simulate", "--config", base, "--sweep-e", "0,0.2", "--contrast", variant,
                "--out", str(out)]
        return argv, out, [base, variant], ["result.json", "sweep.csv", "contrast.json"]
    task = write_task(tmp_path)
    if subcommand == "agreement":
        a, b = (write_records(tmp_path / f"{name}.jsonl",
                              [(f"i{j}", "crowd", name, 0, [["red", "green", "blue"][j % k]])
                               for j in range(9)])
                for name, k in (("c1", 2), ("c2", 3)))
        out = tmp_path / "report.json"
        argv = ["agreement", "--task", task, "--a", a, "--b", b, "--out", str(out),
                "--confusion-csv", str(tmp_path / "confusion.csv")]
        return argv, out, [task, a, b], ["report.json", "confusion.csv"]
    if subcommand == "baseline-compare":
        rows = {role: [(f"i{j}", role, f"{role}{k}", 0, [["red", "green"][(j + k) % 2]])
                       for j in range(6) for k in range(2)] for role in ("expert", "crowd")}
        expert = write_records(tmp_path / "expert.jsonl", rows["expert"])
        crowd = write_records(tmp_path / "crowd.jsonl", rows["crowd"])
        out = tmp_path / "compare.json"
        argv = ["baseline-compare", "--task", task, "--expert", expert, "--crowd", crowd,
                "--out", str(out)]
        return argv, out, [task, expert, crowd], ["compare.json"]
    if subcommand == "fsd":
        runs = TestFsd().runs_file(tmp_path)
        out = tmp_path / "fsd.jsonl"
        return (["fsd", "--task", task, "--runs", runs, "--out", str(out)], out,
                [task, runs], ["fsd.jsonl"])
    if subcommand == "route-sweep":
        task, focal, aux1, aux2, reference = routing_inputs(tmp_path)
        argv = ["route-sweep", "--task", task, "--focal", focal, "--aux", aux1, "--aux", aux2,
                "--reference", reference, "--out", str(out)]
        return argv, out, [task, focal, reference, aux1, aux2], ["sweep.csv", "report.json"]
    if subcommand == "equivalence":
        task, paths, reference = TestEquivalence().inputs(tmp_path)
        argv = ["equivalence", "--task", task, "--reference", reference, "--out", str(out)]
        for path in paths:
            argv += ["--models", path]
        return argv, out, [task, reference, *paths], ["report.json", "forest.csv"]
    assert subcommand == "mix-sensitivity"
    task, llm, expert, crowd = TestMixSensitivity().inputs(tmp_path)
    argv = ["mix-sensitivity", "--task", task, "--llm", llm, "--expert", expert,
            "--crowd", crowd, "--replicates", "2", "--out", str(out)]
    return argv, out, [task, llm, expert, crowd], ["curve.csv", "report.json"]


SUBCOMMANDS = ["agreement", "baseline-compare", "annotate", "fsd", "route-sweep",
               "equivalence", "mix-sensitivity", "simulate"]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_manifest_names_each_input_and_output(tmp_path, subcommand):
    argv, out, inputs, outputs = manifest_case(tmp_path, subcommand)
    assert cli.run(argv) == 0
    manifest = read_manifest(out)
    assert manifest["subcommand"] == subcommand
    assert manifest["inputs"] == {p: hashlib.sha256(pathlib.Path(p).read_bytes()).hexdigest()
                                  for p in inputs}
    assert manifest["outputs"] == outputs
    assert manifest["seed"] == (None if subcommand == "simulate" else 0)
    assert manifest["replay"] is (subcommand == "annotate")
    assert manifest["started"] <= manifest["finished"]


def test_benchmark_tracing_wraps_the_names_cli_calls(tmp_path):
    """perfbench/tracing.py wraps names on `cli`, some of which `cli` never
    calls; each must stay, and the analyses must look them up on `cli`."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(cli))
    tracer = tracing.Tracer("tier-1")
    try:
        tracing.install(tracer)  # an AttributeError for a name `cli` no longer has
        argv, _, _, _ = manifest_case(tmp_path, "mix-sensitivity")
        assert cli.run(argv) == 0
    finally:
        tracer.uninstall()
    assert dict(vars(cli)) == before
    assert tracer.counts["core.load_dataset.calls"] == 3
    assert tracer.counts["core.majority_reference.calls"] == 3
    assert tracer.counts["sensitivity.curve.calls"] == 1


class TestAtomicOutputs:
    def test_json_write_failing_part_way(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            cli._write_json(str(path), {"a": 1.5, "z": object()})
        assert os.listdir(tmp_path) == []
        path.write_text("earlier\n", encoding="utf-8")
        with pytest.raises(TypeError):
            cli._write_json(str(path), {"a": 1.5, "z": object()})
        assert os.listdir(tmp_path) == ["report.json"]
        assert path.read_text(encoding="utf-8") == "earlier\n"

    def test_csv_write_failing_part_way(self, tmp_path):
        def rows():
            yield [1, 0.5]
            raise OSError("disk full")

        path = tmp_path / "sweep.csv"
        path.write_text("earlier\n", encoding="utf-8")
        with pytest.raises(OSError, match="disk full"):
            cli._write_csv(str(path), ["tau", "kappa"], rows())
        assert os.listdir(tmp_path) == ["sweep.csv"]
        assert path.read_text(encoding="utf-8") == "earlier\n"

    def test_cli_run_failing_mid_output_keeps_earlier_file(self, tmp_path, monkeypatch):
        task = write_task(tmp_path)
        runs = TestFsd().runs_file(tmp_path)
        out = tmp_path / "fsd.jsonl"
        assert cli.run(["fsd", "--task", task, "--runs", runs, "--out", str(out)]) == 0
        earlier = out.read_bytes()
        before = sorted(os.listdir(tmp_path))
        real, calls = cli._JSONL_ENCODER.encode, []

        def fails_on_second_line(obj):
            calls.append(obj)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(obj)

        monkeypatch.setattr(cli, "_JSONL_ENCODER",
                            types.SimpleNamespace(encode=fails_on_second_line))
        assert cli.run(["fsd", "--task", task, "--runs", runs, "--out", str(out)]) == 2
        assert len(calls) == 2
        assert out.read_bytes() == earlier
        assert sorted(os.listdir(tmp_path)) == before


# (input, field, value) for every JSON reader: a bool, a numeric string, a
# fraction where an integer belongs, null, a string where a list belongs and
# an unknown key, wherever the input has such a field, and a number no float holds
BAD_INPUTS = [
    ("task", "threshold", True), ("task", "threshold", "0.7"), ("task", "threshold", None),
    ("task", "labels", "ab"), ("task", "treshold", 0.5), ("task", "threshold", 10**400),
    ("sim", "coupling", True), ("sim", "seed", "1"), ("sim", "n_samples", 2000.5),
    ("sim", "error_rate", None), ("sim", "priors", "abc"), ("sim", "couplng", 0.5),
    ("endpoint", "supports_n", 1), ("endpoint", "timeout", "10"),
    ("endpoint", "max_in_flight", 2.5), ("endpoint", "name", None),
    ("endpoint", "max_in_fligth", 2),
    ("retry", "max_attempts", True), ("retry", "max_attempts", "1"),
    ("retry", "max_attempts", 1.5), ("retry", "backoff", None), ("retry", "backoff", "1,2"),
    ("retry", "max_attemps", 1),
    ("prompt", "temperature", True), ("prompt", "n_samples", "5"),
    ("prompt", "n_samples", 2.9), ("prompt", "n_samples", None), ("prompt", "n_sample", 5),
    ("cache", "sample_index", True), ("cache", "temperature", "0.7"),
    ("cache", "sample_index", 1.5), ("cache", "model", None), ("cache", "parsed", "ab"),
    ("cache", "model_name", "mock-focal"),
    ("item", "item_id", True), ("item", "text", 5), ("item", "item_id", 1.5),
    ("item", "text", None),
]


class TestStrictJsonInputs:
    """Every JSON input is read as it is written: a value of the wrong type or
    an unknown config key is bad input, named in the error, before any request."""

    @pytest.fixture
    def posts(self, monkeypatch):
        """The payloads HttpTransport would have sent, each answered 'support'."""
        sent = []

        def post(transport, payload):
            sent.append(payload)
            return {"choices": [{"message": {"content": "support"}}] * payload["n"]}

        monkeypatch.setenv("SILICON_MOCK_KEY", "sk-test")
        monkeypatch.setattr(HttpTransport, "post", post)
        return sent

    def inputs(self, tmp_path, what=None, field=None, value=None):
        """annotate's argv on copies of the bundled inputs, with `field` of
        input `what` set to `value`; the cache holds one entry and misses every
        item, so every item would be sent."""
        objs = {name: json.loads((DATA / f"{file}.json").read_text(encoding="utf-8"))
                for name, file in (("task", "task"), ("endpoint", "endpoint_focal"),
                                   ("prompt", "prompt_focal"))}
        objs["retry"] = objs["endpoint"]["retry"]
        header, first = (DATA / "replay_cache.jsonl").read_text(encoding="utf-8").splitlines()[:2]
        objs["cache"] = {**json.loads(first), "key": "0" * 64}
        items = [json.loads(line) for line in
                 (DATA / "items.jsonl").read_text(encoding="utf-8").splitlines()]
        objs["item"] = items[-1]
        if what is not None:
            objs[what][field] = value
        (tmp_path / "guideline.txt").write_bytes((DATA / "guideline.txt").read_bytes())
        paths = {}
        for name in ("task", "endpoint", "prompt"):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(objs[name]), encoding="utf-8")
        paths["cache"] = tmp_path / "cache.jsonl"
        paths["cache"].write_text(f"{header}\n{json.dumps(objs['cache'])}\n", encoding="utf-8")
        paths["items"] = tmp_path / "items.jsonl"
        paths["items"].write_text("".join(json.dumps(i) + "\n" for i in items),
                                  encoding="utf-8")
        return ["annotate", "--task", str(paths["task"]), "--items", str(paths["items"]),
                "--endpoint", str(paths["endpoint"]), "--prompt", str(paths["prompt"]),
                "--cache", str(paths["cache"]), "--out", str(tmp_path / "out.jsonl")]

    def test_good_inputs_are_sent(self, tmp_path, posts):
        """The control for the cases below: unchanged, every item is sent."""
        assert cli.run(self.inputs(tmp_path)) == 0
        assert len(posts) == 24 and (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("what, field, value", BAD_INPUTS)
    def test_wrong_type_or_unknown_key_is_bad_input(self, tmp_path, capsys, posts,
                                                    what, field, value):
        if what == "sim":
            argv = ["simulate", "--config", TestSimulate().config(tmp_path, **{field: value}),
                    "--out", str(tmp_path / "sim")]
            file = "sim.json"
        else:
            argv = self.inputs(tmp_path, what, field, value)
            file = {"retry": "endpoint", "item": "items"}.get(what, what)
            file += ".jsonl" if what in ("cache", "item") else ".json"
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and file in err
        assert posts == []
        assert not (tmp_path / "out.jsonl").exists() and not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("field, value", [("item_id", ""), ("item_id", ["x"]),
                                              ("item_id", 0), ("text", 5)])
    def test_items_checked_before_any_request(self, tmp_path, capsys, posts, field, value):
        argv = self.inputs(tmp_path, "item", field, value)
        assert cli.run(argv) == 1
        assert ":24: bad item (" in capsys.readouterr().err
        assert posts == []

    @pytest.mark.parametrize("what, field, value", [
        ("prompt", "temperature", math.inf), ("retry", "backoff", [1.0, math.inf]),
        ("retry", "backoff", [-1.0]), ("retry", "backoff", [math.nan])])
    def test_non_finite_numbers_are_bad_input(self, tmp_path, capsys, posts, what, field, value):
        """1e999 reads as inf: no request body can carry that temperature, and
        no wait can last that backoff."""
        argv = self.inputs(tmp_path, what, field, value)
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be" in err
        assert posts == []
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("value", ["", 0, True, 1.5, ["x"], None])
    def test_item_ids_follow_the_record_rule(self, tmp_path, capsys, posts, value):
        """An item id is read by the rule, and in the words, of a record's."""
        task = write_task(tmp_path)
        records = write_records(tmp_path / "records.jsonl",
                                [(value, "model", "m", 0, ["red"])])
        assert cli.run(["fsd", "--task", task, "--runs", records,
                        "--out", str(tmp_path / "fsd.jsonl")]) == 1
        record_error = capsys.readouterr().err.split("bad annotation record (")[1]
        assert cli.run(self.inputs(tmp_path, "item", "item_id", value)) == 1
        assert capsys.readouterr().err.split(":24: bad item (")[1] == record_error
        assert posts == []

    @pytest.mark.parametrize("file", ["items.jsonl", "guideline.txt", "prompt.json"])
    def test_input_not_utf8_sends_nothing(self, tmp_path, capsys, posts, file):
        argv = self.inputs(tmp_path)
        path = tmp_path / file
        path.write_bytes(path.read_bytes().replace(b"e", b"\xff", 1))
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}: not UTF-8 (" in err
        assert posts == [] and not (tmp_path / "out.jsonl").exists()

    def test_blank_item_lines_are_skipped(self, tmp_path, posts):
        argv = self.inputs(tmp_path)
        items = tmp_path / "items.jsonl"
        lines = items.read_text(encoding="utf-8").splitlines()
        items.write_text("\n  \n" + "\n\n".join(lines) + "\n", encoding="utf-8")
        assert cli.run(argv) == 0
        assert len(posts) == 24
        out = (tmp_path / "out.jsonl").read_text(encoding="utf-8").splitlines()
        assert {json.loads(line)["item_id"] for line in out} == {
            json.loads(line)["item_id"] for line in lines}

    def test_extra_item_keys_are_allowed(self, tmp_path, posts):
        assert cli.run(self.inputs(tmp_path, "item", "source", "forum")) == 0
        assert len(posts) == 24

    def test_endpoint_name_not_a_string_sends_nothing(self, tmp_path, capsys, posts):
        """A name that is not a string would key and label every response it paid for."""
        argv = self.inputs(tmp_path, "endpoint", "name", 5)
        cache = tmp_path / "cache.jsonl"
        cache.write_bytes((DATA / "replay_cache.jsonl").read_bytes())
        assert cli.run(argv) == 1
        assert "name must be a string, not int" in capsys.readouterr().err
        assert posts == []
        assert cache.read_bytes() == (DATA / "replay_cache.jsonl").read_bytes()
        assert len(AnnotationCache(cache)) == len(cache.read_bytes().splitlines()) - 1


class TestInputNotUtf8:
    """A byte that is not UTF-8 in a task spec or an annotation file is bad
    input naming the file: exit 1 and no output, not a UnicodeDecodeError."""

    @pytest.mark.parametrize("what", ["task", "jsonl", "csv"])
    def test_fsd_input(self, tmp_path, capsys, what):
        task = pathlib.Path(write_task(tmp_path))
        runs = pathlib.Path(TestFsd().runs_file(tmp_path))
        if what == "csv":
            runs = tmp_path / "runs.csv"
            runs.write_text("item_id,role,name,run,label\n" + "".join(
                f"i{j},model,m1,{r},red\n" for j in range(3) for r in range(2)), encoding="utf-8")
        bad = task if what == "task" else runs
        assert cli.run(["fsd", "--task", str(task), "--runs", str(runs),
                        "--out", str(tmp_path / "fsd.jsonl")]) == 0
        bad.write_bytes(bad.read_bytes().replace(b"i1", b"i\xff", 1).replace(b"toy", b"t\xffy"))
        (tmp_path / "fsd.jsonl").unlink()
        assert cli.run(["fsd", "--task", str(task), "--runs", str(runs),
                        "--out", str(tmp_path / "fsd.jsonl")]) == 1
        assert f"error: {bad}: not UTF-8 (" in capsys.readouterr().err
        assert not (tmp_path / "fsd.jsonl").exists()


class TestCsvFaults:
    """A CSV annotation file the csv module cannot read, or a row too short to
    hold a run, is bad input naming the file and line: exit 1 and no output,
    not a traceback."""

    def fsd(self, tmp_path, text):
        runs = tmp_path / "runs.csv"
        runs.write_text(text, encoding="utf-8")
        out = tmp_path / "fsd.jsonl"
        code = cli.run(["fsd", "--task", write_task(tmp_path), "--runs", str(runs),
                        "--out", str(out)])
        assert not out.exists()
        return code, runs

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_field_over_the_size_limit(self, tmp_path, capsys, where):
        big = "x" * 200_000
        header = "item_id,role,name,run,label" + (f",{big}" if where == "header" else "")
        rows = "i0,model,m1,0,red\n" + (f"{big},model,m1,1,red\n" if where == "row" else "")
        code, runs = self.fsd(tmp_path, f"{header}\n{rows}")
        assert code == 1
        line = 1 if where == "header" else 3
        assert (f"error: {runs}:{line}: bad annotation record (field larger than field limit"
                in capsys.readouterr().err)

    def test_header_repeats_a_column(self, tmp_path, capsys):
        """A second `label` column is not a second label: its cells would
        override the first's, so the header is bad input."""
        code, runs = self.fsd(tmp_path, "item_id,role,name,run,label,label\n"
                                        "i0,model,m1,0,red,blue\ni0,model,m1,1,red,blue\n")
        assert code == 1
        assert f"error: {runs}: CSV header repeats column 'label'" in capsys.readouterr().err

    def test_header_without_a_run_column(self, tmp_path, capsys):
        code, runs = self.fsd(tmp_path, "item_id,role,name,label\ni0,model,m1,red\n")
        assert code == 1
        assert (f"error: {runs}: CSV must have columns ['item_id', 'label', 'name', 'role', 'run']"
                in capsys.readouterr().err)

    def test_row_without_a_run_cell(self, tmp_path, capsys):
        code, runs = self.fsd(tmp_path, "item_id,role,name,run,label\n"
                                        "i0,model,m1,0,red\ni0,model,m1\n")
        assert code == 1
        assert f"error: {runs}:3: bad annotation record (" in capsys.readouterr().err

    def test_line_after_a_quoted_newline(self, tmp_path, capsys):
        """A row's line is its file line, though an earlier quoted cell spans two."""
        code, runs = self.fsd(tmp_path, 'item_id,role,name,run,label\n"i\n0",model,m1,0,red\n'
                                        "i1,model,m1,x,red\n")
        assert code == 1
        assert f"error: {runs}:4: bad annotation record (" in capsys.readouterr().err


    @pytest.mark.parametrize("row,cells", [
        ("i1,model,m1,0,red,blue", 6),   # a cell more than the header: not a second label
        ("i1,model,m1,0", 4),            # a run but no label
        ("i1,model,m1", 3),              # no run cell
    ], ids=["long", "short-with-run", "short-without-run"])
    def test_row_cells_differ_from_the_header(self, tmp_path, capsys, row, cells):
        code, runs = self.fsd(tmp_path, f"item_id,role,name,run,label\ni0,model,m1,0,red\n{row}\n")
        assert code == 1
        assert (f"error: {runs}:3: bad annotation record (row has {cells} cells, header has 5)"
                in capsys.readouterr().err)

    def test_row_cells_after_a_quoted_newline(self, tmp_path, capsys):
        code, runs = self.fsd(tmp_path, 'item_id,role,name,run,label\n"i\n0",model,m1,0,red\n'
                                        "i1,model,m1,0,red,blue\n")
        assert code == 1
        assert (f"error: {runs}:4: bad annotation record (row has 6 cells, header has 5)"
                in capsys.readouterr().err)

    def test_blank_line_holds_no_record(self, tmp_path, capsys):
        """A blank line is skipped, and the row after it reports its own file line."""
        code, runs = self.fsd(tmp_path, "item_id,role,name,run,label\ni0,model,m1,0,red\n\n"
                                        "i1,model,m1,x,red\n")
        assert code == 1
        assert f"error: {runs}:4: bad annotation record (" in capsys.readouterr().err


class TestNegativeSeed:
    """Every seeded generator takes a seed >= 0: a negative one is bad input."""

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_simulate_flag(self, tmp_path, capsys, seed):
        assert cli.run(["simulate", "--config", TestSimulate().config(tmp_path),
                        "--seed", seed, "--out", str(tmp_path / "sim")]) == 1
        assert (f"usage error: argument --seed: seed must be an integer >= 0, got {seed!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "sim").exists()

    def test_sim_config(self, tmp_path, capsys):
        assert cli.run(["simulate", "--config", TestSimulate().config(tmp_path, seed=-1),
                        "--out", str(tmp_path / "sim")]) == 1
        assert "sim.json: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("subcommand", ["mix-sensitivity", "route-sweep"])
    def test_common_flag(self, tmp_path, capsys, subcommand):
        if subcommand == "mix-sensitivity":
            task, llm, expert, crowd = TestMixSensitivity().inputs(tmp_path)
            argv = ["mix-sensitivity", "--task", task, "--llm", llm, "--expert", expert,
                    "--crowd", crowd]
        else:
            task, focal, aux1, _, reference = routing_inputs(tmp_path)
            argv = ["route-sweep", "--task", task, "--focal", focal, "--aux", aux1,
                    "--reference", reference, "--tie-rule", "random-seeded"]
        assert cli.run([*argv, "--seed", "-1", "--out", str(tmp_path / "out")]) == 1
        assert "seed must be an integer >= 0, got '-1'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
