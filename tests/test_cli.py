"""Command-line entry point: exit codes, determinism, pipeline smoke."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfest.applications import candidates_from_model
from perfest.cli import _config_defaults, _prepared, build_parser, dispatch
from perfest.core import (ContextSpec, RecordStore, read_records,
                          write_records)
from perfest.errors import ConfigurationError
from perfest.metamodels import (MAX_HIDDEN_WIDTH, MAX_SAMPLING_RATIO,
                                load_model)
from perfest.profile import MAX_DIMS
from perfest.services import MAX_RECORDS, ServiceDescriptor, invoke


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


def test_extract_data_error_leaves_no_out_file(capsys, tmp_path):
    store_dir = tmp_path / "store"
    assert run(capsys, *synth_args(store_dir, services=1, tasks=2,
                                   samples=5, contexts=2))[0] == 0
    path = store_dir / "records.jsonl"
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    for obj in objs[5:10]:  # the second setting: ppl needs input scores
        assert (obj["task_id"], obj["context_id"]) == ("task00", "ctx01")
        del obj["input_scores"]
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    out = tmp_path / "features.jsonl"
    code, _, err = run(capsys, "extract", "--records", str(path),
                       "--out", str(out))
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


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
    assert set(read_tree(a)) == {"records.jsonl", "records.jsonl.cols",
                                 "tasks.jsonl", "services.json"}


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
    # a kind named twice is told apart by its place in --models
    code, text, _ = run(capsys, "evaluate", "--records", records,
                        "--models", "knn,knn", "--contexts", "2",
                        "--n", "30", "--d", "12", "--folds", "2",
                        "--out", str(report))
    assert code == 0
    assert {"knn#0", "knn#1"} <= set(json.loads(report.read_text())[
        "aggregates"])

    code, text, _ = run(capsys, "select", "--model", str(model_path),
                        "--records", records)
    assert code == 0
    assert "selected: service=svc" in text

    code, text, _ = run(capsys, "recommend-finetune",
                        "--model", str(model_path), "--records", records)
    assert code == 0
    assert text.splitlines()[0].startswith("rank")


# sha256 of the JSON documents a seeded pipeline writes, frozen while each
# command still opened and dumped its own document. Random forests make no
# BLAS call, so the bytes do not depend on the BLAS build.
FROZEN_JSON_OUTPUTS = {
    "features.jsonl":
        "53b532ef103f3f036e2f96156838d86d5cce3433c461d45e30e8b907850e4c32",
    "selection.json":
        "45f75705b7f59bb9cdb714a94a7c86826aa66f8ba360a0269dfd6432e686b3ee",
    "estimates.json":
        "9b1b1845a27e3144505ddcfcf54839625b9e9bbe8901cbfdedffae5be3c74cbc",
    "report.json":
        "b761df5da15d48845a31b7d105c5ccbc9cbefb7feea78770491f979f8cc2b739",
}


def test_json_outputs_equal_frozen_bytes(capsys, tmp_path):
    store = tmp_path / "store"
    assert run(capsys, *synth_args(store, seed=3, services=2, tasks=2,
                                   samples=40, contexts=2))[0] == 0
    records = str(store / "records.jsonl")
    model = str(tmp_path / "model.json")
    out = {name: tmp_path / name for name in FROZEN_JSON_OUTPUTS}
    for argv in (
            ["extract", "--records", records, "--out", out["features.jsonl"]],
            ["select-features", "--records", records,
             "--out", out["selection.json"]],
            ["train", "--records", records, "--d", "10", "--hyperparams",
             '{"max_depth": 4, "n_trees": 8}', "--out", model],
            ["estimate", "--model", model, "--records", records, "--n", "20",
             "--out", out["estimates.json"]],
            ["evaluate", "--records", records, "--contexts", "2", "--n", "30",
             "--d", "10", "--folds", "2", "--out", out["report.json"]]):
        assert run(capsys, *map(str, argv))[0] == 0
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in out.items()} == FROZEN_JSON_OUTPUTS


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


@pytest.mark.parametrize("kind", ["random_forest", "mlp"])
def test_estimate_equals_select_candidates_bit_for_bit(capsys, tmp_path, kind):
    store_dir = tmp_path / "store"
    assert run(capsys, *synth_args(store_dir, services=2, tasks=4,
                                   samples=60, contexts=3))[0] == 0
    records = str(store_dir / "records.jsonl")
    model_path, est = str(tmp_path / "model.json"), tmp_path / "est.json"
    assert run(capsys, "train", "--records", records, "--kind", kind,
               "--d", "12", "--out", model_path)[0] == 0
    assert run(capsys, "estimate", "--model", model_path, "--records",
               records, "--n", "40", "--out", str(est))[0] == 0
    estimates = {(r["service_id"], r["task_id"], r["context_id"]):
                 r["estimate"].hex() for r in json.loads(est.read_text())}
    model = load_model(model_path)
    settings = _prepared(RecordStore.from_file(records), model.kinds,
                         model.dims, unlabeled_n=40, seed=0)
    candidates = candidates_from_model(model, [s.profile for s in settings])
    assert estimates == {
        (c.service_id, c.profile.task_id, c.context_id): c.estimate.hex()
        for c in candidates}
    assert len(estimates) == 2 * 4 * 3


def test_select_picks_one_setting_per_task(capsys, tmp_path):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    model_path = str(tmp_path / "model.json")
    assert run(capsys, "train", "--records", records, "--kind", "mlp",
               "--d", "4", "--out", model_path)[0] == 0
    code, text, _ = run(capsys, "select", "--model", model_path,
                        "--records", records)
    assert code == 0
    model = load_model(model_path)
    settings = _prepared(RecordStore.from_file(records), model.kinds,
                         model.dims)
    by_task = {}
    for c in candidates_from_model(model, [s.profile for s in settings]):
        by_task.setdefault(c.profile.task_id, []).append(c)
    assert sorted(by_task) == ["task00", "task01"]
    want = []
    for task, group in sorted(by_task.items()):
        top = max(group, key=lambda c: c.estimate)
        assert sum(c.estimate == top.estimate for c in group) == 1
        want.append(f"selected: service={top.service_id} "
                    f"context={top.context_id} task={task}")
    assert [line for line in text.splitlines()
            if line.startswith("selected:")] == want


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
    ("--grid", "[1, 2]"), ("--hyperparams", "null"),
    pytest.param("--hyperparams", '{"n_trees": 1%s}' % ("0" * 5000),
                 id="hyperparams-5001-digit-int"),
    pytest.param("--grid", '{"k": %s%s}' % ("[" * 5000, "]" * 5000),
                 id="grid-nested-5000-deep")])
def test_train_json_flags_must_hold_an_object(capsys, tmp_path, flag, text):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    code, _, err = run(capsys, "train", "--records", records, flag, text,
                       "--out", str(tmp_path / "model.json"))
    assert code == 1
    assert flag in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("kind,hyperparams", [
    ("random_forest", '{"n_trees": "abc"}'),
    ("random_forest", '{"n_trees": 0}'),
    ("random_forest", '{"feature_ratio": 0}'),
    ("random_forest", '{"feature_raito": 1.0}'),
    ("random_forest", '{"sampling_ratio": 1%s}' % ("0" * 400)),
    ("random_forest", '{"sampling_ratio": 1%s}' % ("0" * 30)),
    ("random_forest", '{"sampling_ratio": %r}'
     % math.nextafter(MAX_SAMPLING_RATIO, math.inf)),
    ("mlp", '{"hidden_width": 1%s}' % ("0" * 30)),
    ("mlp", '{"hidden_width": %d}' % (MAX_HIDDEN_WIDTH + 1)),
    ("mlp", '{"epochs": 50, "learning_rate": 1e150}'),
    ("gbt", '{"feature_ratio": 1.5}'),
    ("gbt", '{"n_trees": 5}'),
    ("knn", '{"k": 0}')])
def test_train_out_of_range_hyperparams_is_domain_error(
        capsys, tmp_path, kind, hyperparams):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    code, _, err = run(capsys, "train", "--records", records, "--kind", kind,
                       "--hyperparams", hyperparams,
                       "--out", str(tmp_path / "model.json"))
    assert code == 1
    assert json.loads(hyperparams).popitem()[0] in err
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


@pytest.mark.parametrize("flag, value", [
    ("--task", "task1"), ("--context", "ctx1"), ("--sample", "s3"),
    ("--sample", "s00003")])
def test_invoke_mock_non_generator_id_is_domain_error(capsys, tmp_path, flag,
                                                      value):
    store_dir = small_store(capsys, tmp_path)
    ids = {"--task": "task01", "--context": "ctx01", "--sample": "s0003",
           flag: value}
    out = tmp_path / "invoked.jsonl"
    code, _, err = run(capsys, "invoke",
                       "--service-config", str(store_dir / "services.json"),
                       "--service", "svc00",
                       *[arg for pair in ids.items() for arg in pair],
                       "--out", str(out))
    assert code == 1
    assert err.startswith(f"error: no mock {flag[2:]}_id {value!r}")
    assert not out.exists()


@pytest.mark.parametrize("d", ["0", "-3", str(MAX_DIMS + 1), str(10 ** 30)])
def test_train_bad_profile_dimension_is_domain_error(capsys, tmp_path, d):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    code, _, err = run(capsys, "train", "--records", records, "--d", d,
                       "--out", str(tmp_path / "model.json"))
    assert code == 1
    assert "profile dimension" in err
    assert not (tmp_path / "model.json").exists()


def test_train_on_records_without_references_is_domain_error(capsys,
                                                             tmp_path):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    unlabeled = str(tmp_path / "unlabeled.jsonl")
    write_records([dataclasses.replace(r, reference=None)
                   for r in read_records(records)], unlabeled)
    code, _, err = run(capsys, "train", "--records", unlabeled,
                       "--out", str(tmp_path / "model.json"))
    assert code == 1
    assert "lacks references" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("config", [{"n_tasks": "x"}, {"skill_range": 5},
                                    {"feature_fidelity": [0.5]}])
def test_invoke_mock_malformed_service_config_is_domain_error(
        capsys, tmp_path, config):
    store_dir = small_store(capsys, tmp_path)
    services = json.loads((store_dir / "services.json").read_text())
    services[0]["config"].update(config)
    (store_dir / "services.json").write_text(json.dumps(services))
    code, _, err = run(capsys, "invoke",
                       "--service-config", str(store_dir / "services.json"),
                       "--service", "svc00", "--task", "task00",
                       "--context", "ctx00", "--sample", "s0003",
                       "--out", str(tmp_path / "invoked.jsonl"))
    assert code == 1
    assert err.startswith("error: service 'svc00' config")


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


def settings_file(capsys, tmp_path, count):
    """A records file holding `count` settings (0 or 1)."""
    if count == 0:
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        return str(path)
    store_dir = tmp_path / "one"
    assert run(capsys, *synth_args(store_dir, services=1, tasks=1,
                                   samples=10, contexts=1))[0] == 0
    return str(store_dir / "records.jsonl")


@pytest.mark.parametrize("command", ["train", "select",
                                     "recommend-finetune"])
def test_no_settings_is_domain_error(capsys, tmp_path, command):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    model_path = str(tmp_path / "model.json")
    assert run(capsys, "train", "--records", records, "--d", "4",
               "--hyperparams", '{"n_trees": 2}', "--out", model_path)[0] == 0
    empty = settings_file(capsys, tmp_path, 0)
    if command == "train":
        argv = ["train", "--records", empty,
                "--out", str(tmp_path / "empty-model.json")]
    else:
        argv = [command, "--model", model_path, "--records", empty]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert not (tmp_path / "empty-model.json").exists()


@pytest.mark.parametrize("count", [0, 1])
def test_select_features_needs_two_settings(capsys, tmp_path, count):
    records = settings_file(capsys, tmp_path, count)
    code, _, err = run(capsys, "select-features", "--records", records)
    assert code == 1
    assert err.startswith("error: ") and "2 points" in err


# ---------------------------------------------------------------------------
# The config merge, fuzzed: a config value becomes a value of its flag's
# type or a ConfigurationError, never another exception.

def subcommand_flags():
    """(subcommand, flag action) for every flag of every subcommand."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action) for command in sub.choices.values()
            for action in command._actions if action.dest != "help"]


FLAGS = subcommand_flags()

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text()
    | st.integers() | st.integers(-1, 1).flatmap(
        # up to 6,000 digits, past int's 4,300-digit string limit
        lambda sign: st.integers(0, 6000).map(lambda k: sign * 10 ** k)),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)


def write_json(path, obj):
    """json.dump of ``obj``, integers of any length included."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        path.write_text(json.dumps(obj), encoding="utf-8")
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=300, deadline=None)
@given(flag=st.sampled_from(FLAGS), dashed=st.booleans(), value=json_values)
def test_config_value_is_the_flag_type_or_a_configuration_error(
        tmp_path_factory, flag, dashed, value):
    command, action = flag
    key = action.option_strings[0].lstrip("-") if dashed else action.dest
    path = tmp_path_factory.mktemp("config") / "run.json"
    write_json(path, {key: value})
    try:
        defaults = _config_defaults(command, str(path))
    except ConfigurationError:
        return
    assert list(defaults) == [action.dest]
    got = defaults[action.dest]
    if got is None:
        assert value is None and action.default is None
    else:
        assert type(got) is (action.type or str)
    if isinstance(value, str) and action.type is None:
        assert got == value
    if type(value) is int and action.type is int:
        assert got == value


@pytest.mark.parametrize("text", [
    '{"seed": 1%s}' % ("0" * 5000), '{"seed": %s%s}' % ("[" * 5000,
                                                         "]" * 5000)],
    ids=["5001-digit-int", "nested-5000-deep"])
def test_config_past_json_limits_is_domain_error(capsys, tmp_path, text):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "--config", str(cfg), "synth",
                       "--out", str(tmp_path / "store"))
    assert code == 1
    assert "config file" in err


# ---------------------------------------------------------------------------
# Malformed record, model and service files end as typed errors (exit 1).

@pytest.mark.parametrize("bad", [
    b'{"service_id": 1%s}' % (b"0" * 5000), b"[" * 5000 + b"]" * 5000,
    b"\xff\xfe", b'{"sample_id": "caf\xe9"}'],
    ids=["5001-digit-int", "nested-5000-deep", "bytes-ff-fe",
         "latin-1-text"])
def test_record_file_past_json_limits_is_domain_error(capsys, tmp_path, bad):
    records = small_store(capsys, tmp_path) / "records.jsonl"
    lines = records.read_bytes().splitlines(keepends=True)
    records.write_bytes(b"".join(lines[:3]) + bad + b"\n"
                        + b"".join(lines[3:]))
    model_path = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--records", str(records),
                       "--out", str(model_path))
    assert code == 1
    assert err.startswith("error: line 4: ")
    assert not model_path.exists()


@pytest.mark.parametrize("field,value", [
    ("seed", "1" + "0" * 5000), ("mean", "[" * 5000 + "]" * 5000)],
    ids=["5001-digit-seed", "nested-5000-deep"])
def test_model_file_past_json_limits_is_domain_error(capsys, tmp_path, field,
                                                     value):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    model_path = tmp_path / "model.json"
    assert run(capsys, "train", "--records", records, "--kind", "knn",
               "--d", "4", "--out", str(model_path))[0] == 0
    obj = json.loads(model_path.read_text())
    obj[field] = "@"
    model_path.write_text(json.dumps(obj).replace('"@"', value))
    code, _, err = run(capsys, "estimate", "--model", str(model_path),
                       "--records", records)
    assert code == 1
    assert err.startswith("error: corrupt model file: ")


@pytest.mark.parametrize("kind,field,value", [
    ("mlp", "mean", math.nan), ("mlp", "mean", math.inf),
    ("knn", "mean", -math.inf), ("knn", "std", 0.0), ("knn", "std", -1.0)])
def test_non_finite_model_file_is_domain_error(capsys, tmp_path, kind, field,
                                               value):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    model_path = tmp_path / "model.json"
    assert run(capsys, "train", "--records", records, "--kind", kind,
               "--d", "4", "--hyperparams", "{}" if kind == "knn" else
               '{"epochs": 5}', "--out", str(model_path))[0] == 0
    obj = json.loads(model_path.read_text())
    obj[field][0] = value  # json writes NaN, Infinity and -Infinity
    model_path.write_text(json.dumps(obj))
    out = tmp_path / "estimates.json"
    code, _, err = run(capsys, "estimate", "--model", str(model_path),
                       "--records", records, "--out", str(out))
    assert code == 1
    assert err.startswith(f"error: model field '{field}' holds ")
    assert not out.exists()


def test_forest_file_without_trees_is_domain_error(capsys, tmp_path):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    model_path = tmp_path / "model.json"
    assert run(capsys, "train", "--records", records, "--d", "4",
               "--hyperparams", '{"n_trees": 2}',
               "--out", str(model_path))[0] == 0
    obj = json.loads(model_path.read_text())
    obj["params"]["trees"] = []
    model_path.write_text(json.dumps(obj))
    out = tmp_path / "estimates.json"
    code, _, err = run(capsys, "estimate", "--model", str(model_path),
                       "--records", records, "--out", str(out))
    assert code == 1
    assert "no tree" in err
    assert not out.exists()


@pytest.mark.parametrize("rates,picked", [
    ([0.01, 1e150], 0.01), ([1e150, 0.01], 0.01), ([1e150, 1e200], None)])
def test_train_grid_passes_over_a_diverging_mlp(capsys, tmp_path, rates,
                                                picked):
    records = str(small_store(capsys, tmp_path) / "records.jsonl")
    model_path = tmp_path / "model.json"
    code, _, err = run(capsys, "train", "--records", records, "--kind", "mlp",
                       "--folds", "2", "--grid",
                       json.dumps({"learning_rate": rates, "epochs": [50]}),
                       "--out", str(model_path))
    if picked is None:
        assert code == 1
        assert err.startswith("error: no mlp grid combination has a finite")
        assert not model_path.exists()
    else:
        assert code == 0
        assert load_model(str(model_path)).spec.hyperparams[
            "learning_rate"] == picked


@pytest.mark.parametrize("text", [
    "not json", "[" * 5000 + "]" * 5000, '{"service_id": "svc00"}',
    '[{"kind": "mock"}]', '["svc00"]', '[{"service_id": 0, "kind": "mock"}]',
    '[{"service_id": "svc00", "kind": "mock", "config": [1]}]',
    '[{"service_id": "svc00", "kind": "grpc"}]'],
    ids=["not-json", "nested-5000-deep", "object-not-list",
         "no-service-id", "entry-not-object", "service-id-not-string",
         "config-not-object", "unknown-kind"])
def test_invoke_malformed_service_config_file_is_domain_error(
        capsys, tmp_path, text):
    store_dir = small_store(capsys, tmp_path)
    (store_dir / "services.json").write_text(text)
    out = tmp_path / "invoked.jsonl"
    code, _, err = run(capsys, "invoke",
                       "--service-config", str(store_dir / "services.json"),
                       "--service", "svc00", "--task", "task00",
                       "--context", "ctx00", "--sample", "s0003",
                       "--out", str(out))
    assert code == 1
    assert err.startswith("error: unknown service kind 'grpc'"
                          if "grpc" in text else "error: service config")
    assert not out.exists()


class CannedSession:
    """A requests.Session stand-in that answers each post with the next
    canned JSON body and keeps the payloads it was sent."""

    def __init__(self, bodies):
        self.bodies = list(bodies)
        self.payloads = []

    def post(self, url, json=None, timeout=None):
        self.payloads.append(json)
        body = self.bodies.pop(0)
        return SimpleNamespace(status_code=200, headers={},
                               json=lambda: body)


COMPLETION = {"choices": [{"text": " paris", "logprobs": {
    "tokens": [" paris"], "top_logprobs": [{" paris": -0.1, " lyon": -3.0}]}}]}


HTTP_SERVICE = {
    "service_id": "svc-http", "kind": "http",
    "capabilities": {"generation": True, "input_scoring": False},
    "config": {"endpoint": "http://127.0.0.1:9/v1/completions"}}


def invoke_http(capsys, tmp_path, monkeypatch, bodies, service=HTTP_SERVICE,
                input_text="capital of france?"):
    """Run ``perfest invoke`` on HTTP service ``service`` answered by
    ``bodies``."""
    config = tmp_path / "services.json"
    config.write_text(json.dumps([service]))
    session = CannedSession(bodies)
    monkeypatch.setattr("requests.Session", lambda: session)
    out = tmp_path / "invoked.jsonl"
    code, _, err = run(capsys, "invoke", "--service-config", str(config),
                       "--service", "svc-http", "--task", "task00",
                       "--context", "ctx03", "--sample", "s0001",
                       "--input-text", input_text, "--out", str(out))
    return code, err, out, session


def test_invoke_http_sends_the_input_alone(capsys, tmp_path, monkeypatch):
    code, _, out, session = invoke_http(capsys, tmp_path, monkeypatch,
                                        [COMPLETION])
    assert code == 0
    assert [p["prompt"] for p in session.payloads] == ["capital of france?"]
    lines = out.read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert (rec["service_id"], rec["context_id"], rec["sample_id"]) == (
        "svc-http", "ctx03", "s0001")
    assert rec["generated_text"] == " paris"


def test_invoke_http_descriptor_sends_the_same_requests_however_made(
        capsys, tmp_path, monkeypatch):
    # an entry without capabilities: the client's own defaults apply
    entry = {key: HTTP_SERVICE[key] for key in ("service_id", "kind",
                                                 "config")}
    echo = {"choices": [{"text": "", "logprobs": {
        "token_logprobs": [-0.1], "text_offset": [0]}}]}
    session = CannedSession([COMPLETION, echo])
    monkeypatch.setattr("requests.Session", lambda: session)
    built = invoke(ServiceDescriptor(**entry), "capital of france?",
                   ContextSpec("ctx03", ()), "s0001", "task00")
    code, _, out, read = invoke_http(capsys, tmp_path, monkeypatch,
                                     [COMPLETION, echo], service=entry)
    assert code == 0
    assert session.payloads == read.payloads
    assert [(p["echo"], p["logprobs"]) for p in read.payloads] == [
        (False, 5)]
    assert RecordStore.from_file(str(out)).get(
        "svc-http", "task00", "ctx03").records() == [built]


@pytest.mark.parametrize("logprobs, text", [
    ([1, 2], " paris"),
    ({"tokens": [" paris"], "top_logprobs": [[" paris", -0.1]]}, " paris"),
    ({"tokens": [" paris"], "top_logprobs": [{" paris": "-0.1"}]}, " paris"),
    ({"tokens": [" paris"], "top_logprobs": [{" paris": 10 ** 400}]},
     " paris"),
    ({"tokens": "ab", "top_logprobs": [{"a": -0.1}, {"b": -0.2}]}, " paris"),
    (COMPLETION["choices"][0]["logprobs"], 5)],
    ids=["logprobs-list", "top-entry-list", "logprob-string",
         "logprob-huge-int", "tokens-string", "text-number"])
def test_invoke_http_malformed_response_is_domain_error(
        capsys, tmp_path, monkeypatch, logprobs, text):
    body = {"choices": [{"text": text, "logprobs": logprobs}]}
    code, err, out, _ = invoke_http(capsys, tmp_path, monkeypatch, [body])
    assert code == 1
    assert err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("field, change", [
    ("endpoint", {"config": {}}),
    ("max_tokens", {"config": {**HTTP_SERVICE["config"],
                               "max_tokens": "lots"}}),
    ("top_k_depth", {"capabilities": {**HTTP_SERVICE["capabilities"],
                                      "top_k_depth": "x"}}),
    ("input_scoring", {"capabilities": {**HTTP_SERVICE["capabilities"],
                                        "input_scoring": "false"}}),
    ("input_scoring", {"capabilities": {**HTTP_SERVICE["capabilities"],
                                        "input_scoring": 1}})] + [
    # counts are integers >= 1, and a bool or a numeric string is none
    ("top_k_depth", {"capabilities": {**HTTP_SERVICE["capabilities"],
                                      "top_k_depth": value}})
    for value in (2.5, True, "7", 0, -1)] + [
    ("max_tokens", {"config": {**HTTP_SERVICE["config"], "max_tokens": value}})
    for value in (2.5, True, "7", 0, -1)])
def test_invoke_http_bad_service_config_is_domain_error(
        capsys, tmp_path, monkeypatch, field, change):
    code, err, out, session = invoke_http(
        capsys, tmp_path, monkeypatch, [COMPLETION],
        service={**HTTP_SERVICE, **change})
    assert code == 1
    assert err.startswith(f"error: service 'svc-http' config: {field}")
    assert session.payloads == []
    assert not out.exists()


def test_invoke_http_input_text_utf8_cannot_encode_is_domain_error(
        capsys, tmp_path, monkeypatch):
    # a lone surrogate: what argv bytes that are not UTF-8 decode to
    code, err, out, session = invoke_http(capsys, tmp_path, monkeypatch,
                                          [COMPLETION], input_text="caf\udcff")
    assert code == 1
    assert err.startswith("error: input text")
    assert session.payloads == []
    assert not out.exists()


# ---------------------------------------------------------------------------
# Every flag that takes a value, swept with malformed values: exit 1 or 2,
# no exception, and no --out file.

@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    """A small store, a KNN model trained on it, and a service config
    holding the store's mock services and one HTTP service."""
    root = tmp_path_factory.mktemp("sweep")
    store, model = root / "store", root / "model.json"
    records = str(store / "records.jsonl")
    assert dispatch(synth_args(store, services=1, tasks=2, samples=40,
                               contexts=2)) == 0
    assert dispatch(["train", "--records", records, "--kind", "knn",
                     "--d", "4", "--out", str(model)]) == 0
    services = json.loads((store / "services.json").read_text())
    (root / "services.json").write_text(json.dumps(services + [HTTP_SERVICE]))
    return {"records": records, "model": str(model),
            "services": str(root / "services.json"),
            "missing": str(root / "missing.json"),
            "in_a_file": os.path.join(records, "out")}


# a valid command line for each subcommand, "@name" standing for a file
# of sweep_files; --out is added where the subcommand takes it
SWEEP_BASE = {
    "synth": ["--services", "1", "--tasks", "1", "--samples", "4",
              "--contexts", "1"],
    "invoke": ["--service-config", "@services", "--service", "svc00",
               "--task", "task00", "--context", "ctx00", "--sample",
               "s0003"],
    "extract": ["--records", "@records"],
    "select-features": ["--records", "@records"],
    "train": ["--records", "@records", "--kind", "knn", "--d", "4"],
    "estimate": ["--model", "@model", "--records", "@records"],
    "evaluate": ["--records", "@records", "--models", "knn", "--contexts",
                 "2", "--folds", "2", "--d", "4"],
    "select": ["--model", "@model", "--records", "@records"],
    "recommend-finetune": ["--model", "@model", "--records", "@records"],
}
COUNT = ["x", "0", "-1"]
SWEEP_VALUES = {
    "--seed": ["x", "1.5"],
    "--services": COUNT, "--tasks": COUNT,
    "--samples": COUNT + [str(MAX_RECORDS + 1)],
    "--contexts": COUNT, "--fidelity": ["x", "nan", "1.5", "-0.1"],
    "--out": ["@in_a_file"],
    "--service-config": ["@missing", "@records"],
    "--service": ["nope"], "--task": ["foo", "task99"],
    "--context": ["ctx", "ctx99"], "--sample": ["s", "s9999"],
    "--input-text": ["caf\udcff"], "--records": ["@missing", "@model"],
    "--model": ["@missing", "@records"], "--kinds": ["foo", "", "nll,"],
    "--kind": ["foo"], "--models": ["foo", "knn,foo"],
    "--d": COUNT + [str(10 ** 30), str(MAX_DIMS + 1)],
    "--hyperparams": ["nope", "[]", '{"k": 0}', '{"foo": 1}'],
    "--grid": ["nope", '{"k": 5}', '{"k": "12"}', '{"k": []}', "{}",
               '{"k": [0]}'],
    "--folds": COUNT, "--n": COUNT,
}
# flags whose value is read only next to another flag's
SWEEP_WITH = {("invoke", "--input-text"): ["--service", "svc-http"]}


# (subcommand, flag) for every flag that takes a value
SWEEP = [(c.prog.split()[-1], a.option_strings[0]) for c, a in FLAGS
         if a.nargs is None]


def sweep_argv(files, out, command, *extra):
    argv = [command, *SWEEP_BASE[command]]
    if (command, "--out") in SWEEP:
        argv += ["--out", str(out)]
    return [files.get(a[1:], a) if a.startswith("@") else a
            for a in argv + list(extra)]


@pytest.mark.parametrize("command", SWEEP_BASE)
def test_sweep_base_command_lines_succeed(capsys, tmp_path, sweep_files,
                                          command):
    out = tmp_path / "out"
    assert run(capsys, *sweep_argv(sweep_files, out, command))[0] == 0


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, flag in SWEEP
    for value in SWEEP_VALUES[flag]])
def test_malformed_flag_value_exits_without_a_traceback(
        capsys, tmp_path, sweep_files, command, flag, value):
    out = tmp_path / "out"
    argv = sweep_argv(sweep_files, out, command,
                      *SWEEP_WITH.get((command, flag), ()), flag, value)
    code, _, err = run(capsys, *argv)
    assert code in (1, 2)
    assert err.startswith("error: ") or code == 2
    assert not out.exists()


@pytest.mark.parametrize("name", ["missing", "records"])
def test_malformed_config_flag_exits_without_a_traceback(
        capsys, tmp_path, sweep_files, name):
    out = tmp_path / "out"
    argv = sweep_argv(sweep_files, out, "extract")
    assert run(capsys, "--config", sweep_files[name], *argv)[0] == 1
    assert not out.exists()
