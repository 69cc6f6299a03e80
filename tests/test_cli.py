import json
import os
import pathlib
import subprocess
import sys

import pytest

from silicon import __version__, cli
from silicon.gateway import REPLAY_ENV

DATA = pathlib.Path(__file__).parent / "data"


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

    def test_unknown_flag(self):
        assert cli.run(["agreement", "--nope"]) == 1

    def test_replay_only_on_annotate(self, tmp_path, capsys):
        args = ["fsd", "--runs", str(tmp_path / "runs.jsonl"), "--out", str(tmp_path / "o")]
        assert cli.run(args + ["--replay"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_version_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0

    def test_module_entry_point(self):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        done = subprocess.run([sys.executable, "-m", "silicon.cli", "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0
        assert done.stdout.strip() == __version__


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

    def test_single_source_rejected(self, tmp_path, capsys):
        task = write_task(tmp_path)
        a = write_records(tmp_path / "one.jsonl",
                          [("i0", "crowd", "c1", 0, ["red"])])
        assert cli.run(["agreement", "--task", task, "--a", a,
                        "--out", str(tmp_path / "r.json")]) == 1
        assert "error" in capsys.readouterr().err

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
    def args(self, tmp_path, cache, out):
        return ["annotate",
                "--task", str(DATA / "task.json"),
                "--items", str(DATA / "items.jsonl"),
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

    def test_needs_two_models(self, tmp_path):
        task, paths, reference = self.inputs(tmp_path)
        assert cli.run(["equivalence", "--task", task, "--models", paths[0],
                        "--reference", reference,
                        "--out", str(tmp_path / "eq")]) == 1

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

    def test_sweeps_mutually_exclusive(self, tmp_path):
        assert cli.run(["simulate", "--config", self.config(tmp_path),
                        "--sweep-e", "0.1", "--sweep-coupling", "0.5",
                        "--out", str(tmp_path / "sim")]) == 1
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
        real, calls = json.dumps, []

        def fails_on_second_line(obj, **kw):
            calls.append(obj)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(obj, **kw)

        monkeypatch.setattr(cli.json, "dumps", fails_on_second_line)
        assert cli.run(["fsd", "--task", task, "--runs", runs, "--out", str(out)]) == 2
        assert len(calls) == 2
        assert out.read_bytes() == earlier
        assert sorted(os.listdir(tmp_path)) == before
