"""Command-line entry point: exit codes, determinism, pipeline smoke."""

import json
import os

import pytest

from perfest.cli import dispatch


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_tree(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as f:
            out[name] = f.read()
    return out


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "synth" in out and "recommend-finetune" in out


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_required_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "synth")
    assert code == 2


def test_unknown_flag_is_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "synth", "--out", str(tmp_path), "--jobs", "2")
    assert code == 2


def test_missing_input_file_is_domain_error(capsys, tmp_path):
    code, _, err = run(capsys, "extract",
                       "--records", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "out.jsonl"))
    assert code == 1
    assert "error" in err


def synth_args(out, seed=7, **kw):
    args = ["synth", "--seed", str(seed), "--out", str(out),
            "--services", str(kw.get("services", 2)),
            "--tasks", str(kw.get("tasks", 3)),
            "--samples", str(kw.get("samples", 30)),
            "--contexts", str(kw.get("contexts", 2))]
    if "fidelity" in kw:
        args += ["--fidelity", str(kw["fidelity"])]
    return args


def test_synth_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(capsys, *synth_args(a))[0] == 0
    assert run(capsys, *synth_args(b))[0] == 0
    assert read_tree(a) == read_tree(b)
    assert set(read_tree(a)) == {"records.jsonl", "tasks.jsonl",
                                 "services.json"}


def test_synth_seed_changes_output(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, *synth_args(a, seed=7))
    run(capsys, *synth_args(b, seed=8))
    assert read_tree(a)["records.jsonl"] != read_tree(b)["records.jsonl"]


def test_config_file_fills_defaults_flags_win(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"services": 1, "tasks": 2, "samples": 10,
                               "contexts": 1}))
    out = tmp_path / "store"
    code, text, _ = run(capsys, "--config", str(cfg), "synth",
                        "--seed", "3", "--out", str(out), "--tasks", "4")
    assert code == 0
    # 1 service from config, 4 tasks from the explicit flag
    assert "1 services x 4 tasks" in text


def test_config_file_loses_to_flag_spelled_with_equals(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9}))
    a, b = tmp_path / "a", tmp_path / "b"
    rest = synth_args(a, seed=5)[3:]
    assert run(capsys, "--config", str(cfg), "synth", "--seed=5",
               *rest)[0] == 0
    assert run(capsys, *synth_args(b, seed=5))[0] == 0
    assert read_tree(a) == read_tree(b)


def test_config_values_go_through_the_flag_type(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"services": "3", "tasks": 1, "samples": 5,
                               "contexts": 1, "fidelity": 0.5}))
    code, text, _ = run(capsys, "--config", str(cfg), "synth",
                        "--out", str(tmp_path / "store"))
    assert code == 0
    assert "3 services x 1 tasks" in text


@pytest.mark.parametrize("body", [
    {"services": "three"}, {"services": 2.5}, {"services": None},
    {"fidelity": [0.5]}, "not json", ["a list"]])
def test_bad_config_value_is_domain_error(capsys, tmp_path, body):
    cfg = tmp_path / "run.json"
    cfg.write_text(body if isinstance(body, str) else json.dumps(body))
    code, _, err = run(capsys, "--config", str(cfg), "synth",
                       "--out", str(tmp_path / "store"))
    assert code == 1
    assert "error" in err


def test_malformed_model_file_is_domain_error(capsys, tmp_path):
    store_dir = tmp_path / "store"
    run(capsys, *synth_args(store_dir, services=1, tasks=2, samples=10,
                            contexts=2))
    records = str(store_dir / "records.jsonl")
    model_path = tmp_path / "model.json"
    assert run(capsys, "train", "--records", records, "--d", "4",
               "--hyperparams", '{"n_trees": 2}',
               "--out", str(model_path))[0] == 0
    obj = json.loads(model_path.read_text())
    del obj["dims"]
    model_path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "estimate", "--model", str(model_path),
                       "--records", records)
    assert code == 1
    assert "dims" in err


def test_full_pipeline_smoke(capsys, tmp_path):
    store_dir = tmp_path / "store"
    assert run(capsys, *synth_args(store_dir, seed=11, services=2, tasks=4,
                                   samples=40, contexts=2))[0] == 0
    records = str(store_dir / "records.jsonl")

    feats = tmp_path / "features.jsonl"
    code, text, _ = run(capsys, "extract", "--records", records,
                        "--kinds", "nll,ppl,gap,max_ent",
                        "--out", str(feats))
    assert code == 0
    lines = [json.loads(l) for l in feats.read_text().splitlines()]
    assert len(lines) == 2 * 4 * 2
    assert set(lines[0]["features"]) == {"nll", "ppl", "gap", "max_ent"}

    sel = tmp_path / "selection.json"
    code, text, _ = run(capsys, "select-features", "--records", records,
                        "--out", str(sel))
    assert code == 0
    chosen = json.loads(sel.read_text())
    assert len(chosen["ranking"]) == 15
    assert chosen["best"]

    model_path = tmp_path / "model.json"
    code, text, _ = run(capsys, "train", "--records", records,
                        "--kind", "random_forest",
                        "--hyperparams", '{"max_depth": 4, "n_trees": 8}',
                        "--d", "12", "--out", str(model_path))
    assert code == 0
    assert model_path.exists()

    est = tmp_path / "estimates.json"
    code, text, _ = run(capsys, "estimate", "--model", str(model_path),
                        "--records", records, "--out", str(est))
    assert code == 0
    rows = json.loads(est.read_text())
    assert len(rows) == 2 * 4 * 2
    assert all(0.0 <= r["estimate"] <= 1.0 for r in rows)

    report = tmp_path / "report.json"
    code, text, _ = run(capsys, "evaluate", "--records", records,
                        "--models", "knn", "--contexts", "2",
                        "--n", "30", "--d", "12", "--folds", "2",
                        "--out", str(report))
    assert code == 0
    body = json.loads(report.read_text())
    assert "avg_train" in body["aggregates"]
    assert any(k.startswith("knn") for k in body["aggregates"])

    code, text, _ = run(capsys, "select", "--model", str(model_path),
                        "--records", records)
    assert code == 0
    assert "selected: service=svc" in text

    code, text, _ = run(capsys, "recommend-finetune",
                        "--model", str(model_path), "--records", records)
    assert code == 0
    assert text.splitlines()[0].startswith("rank")


def test_invoke_mock_appends_record(capsys, tmp_path):
    store_dir = tmp_path / "store"
    run(capsys, *synth_args(store_dir, seed=5, services=1, tasks=1,
                            samples=10, contexts=1))
    out = tmp_path / "invoked.jsonl"
    code, text, _ = run(capsys, "invoke",
                        "--service-config",
                        str(store_dir / "services.json"),
                        "--service", "svc00", "--task", "task00",
                        "--context", "ctx00", "--sample", "s0003",
                        "--seed", "5", "--out", str(out))
    assert code == 0
    assert out.read_text().count("\n") == 1
    # the invoked record reproduces the one synth wrote for the same ids
    stored = (store_dir / "records.jsonl").read_text().splitlines()
    assert out.read_text().splitlines()[0] == stored[3]
    # idempotent inputs append equal records
    run(capsys, "invoke", "--service-config",
        str(store_dir / "services.json"),
        "--service", "svc00", "--task", "task00", "--context", "ctx00",
        "--sample", "s0003", "--seed", "5", "--out", str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == lines[1]


def small_store(capsys, tmp_path):
    store_dir = tmp_path / "store"
    assert run(capsys, *synth_args(store_dir, services=1, tasks=2,
                                   samples=10, contexts=2))[0] == 0
    return store_dir


@pytest.mark.parametrize("command", ["extract", "train", "evaluate"])
def test_unknown_feature_kind_is_domain_error(capsys, tmp_path, command):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    argv = [command, "--records", records, "--kinds", "nll,foo",
            "--out", str(tmp_path / "out.json")]
    if command == "evaluate":
        argv += ["--contexts", "2", "--folds", "2"]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "foo" in err


def test_unknown_feature_kind_in_config_is_domain_error(capsys, tmp_path):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kinds": "foo"}))
    code, _, err = run(capsys, "--config", str(cfg), "train",
                       "--records", records,
                       "--out", str(tmp_path / "model.json"))
    assert code == 1
    assert "foo" in err


@pytest.mark.parametrize("flag,text", [
    ("--hyperparams", "nope"), ("--grid", "nope"), ("--hyperparams", "3"),
    ("--grid", "[1, 2]"), ("--hyperparams", "null")])
def test_train_json_flags_must_hold_an_object(capsys, tmp_path, flag, text):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    code, _, err = run(capsys, "train", "--records", records, flag, text,
                       "--out", str(tmp_path / "model.json"))
    assert code == 1
    assert flag in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("task", ["foo", "task", "taskXY", "task99"])
def test_invoke_mock_bad_task_is_domain_error(capsys, tmp_path, task):
    store_dir = small_store(capsys, tmp_path)
    code, _, err = run(capsys, "invoke",
                       "--service-config", str(store_dir / "services.json"),
                       "--service", "svc00", "--task", task,
                       "--context", "ctx00", "--sample", "s0003",
                       "--out", str(tmp_path / "invoked.jsonl"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_estimate_needs_a_positive_sample_count(capsys, tmp_path, n):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    model_path = str(tmp_path / "model.json")
    assert run(capsys, "train", "--records", records, "--d", "4",
               "--hyperparams", '{"n_trees": 2}', "--out", model_path)[0] == 0
    code, _, err = run(capsys, "estimate", "--model", model_path,
                       "--records", records, "--n", n)
    assert code == 1
    assert ">= 1" in err
