"""Scoring, error metrics, CV splitting, and the experiment runner."""

import dataclasses
import json
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from perfest import baselines, features, metamodels
from perfest.baselines import atc_calibrate, atc_estimate
from perfest.core import InvocationRecord, SettingBatch, TokenStep
from perfest.core import RecordStore
from perfest.errors import (CapabilityError, ConfigurationError,
                            CoverageError, ValidationError)
from perfest.evaluation import (
    DEFAULT_BASELINES,
    ExperimentPlan,
    f1_score,
    kfold_split,
    mae,
    per_sample_f1,
    prepare_setting,
    render_table,
    run_experiment,
    task_performance,
)
from perfest.features import FeatureKind
from perfest.metamodels import ModelKind, ModelSpec
from perfest.services import MarketplaceConfig, synth_marketplace


def test_f1_identity():
    assert f1_score("the cat", "the cat") == 1.0


def test_f1_partial_overlap():
    # P = 2/3, R = 1, 2PR/(P+R) = 0.8
    assert f1_score("the cat sat", "the cat") == pytest.approx(0.8)


def test_f1_empty_prediction():
    assert f1_score("", "answer") == 0.0
    assert f1_score("answer", "") == 0.0
    assert f1_score("", "") == 1.0


def test_f1_case_and_punctuation_normalized():
    assert f1_score("The CAT.", "the cat") == 1.0
    assert f1_score("cat, dog!", "dog cat") == 1.0


def test_f1_symmetric_in_bag_overlap():
    a, b = "alpha beta gamma", "beta gamma delta"
    assert f1_score(a, b) == pytest.approx(f1_score(b, a))


def test_f1_counts_duplicates():
    # overlap of "a a" vs "a" is one token: P = 1/2, R = 1 -> 2/3
    assert f1_score("a a", "a") == pytest.approx(2.0 / 3.0)


def test_f1_bounded():
    rng = np.random.default_rng(80)
    vocab = ["aa", "bb", "cc", "dd"]
    for _ in range(100):
        pred = " ".join(rng.choice(vocab, size=rng.integers(0, 5)))
        ref = " ".join(rng.choice(vocab, size=rng.integers(1, 5)))
        assert 0.0 <= f1_score(pred, ref) <= 1.0


def make_record(i, text, ref):
    return InvocationRecord(
        service_id="svc00", task_id="task00", context_id="ctx00",
        sample_id="s%04d" % i, input_text="q", generated_text=text,
        output_steps=(TokenStep("a", (("a", 0.9),)),), reference=ref)


def test_task_performance_all_correct():
    recs = [make_record(i, "yes", "yes") for i in range(5)]
    assert task_performance(SettingBatch.from_records(recs)) == 1.0


def test_task_performance_mean_of_two():
    recs = [make_record(0, "the cat sat", "the cat"),
            make_record(1, "wrong", "right")]
    assert task_performance(SettingBatch.from_records(recs)) == \
        pytest.approx(0.4)


def test_task_performance_matches_one_line_oracle():
    cfg = MarketplaceConfig(n_services=1, n_tasks=1, samples_per_task=400,
                            contexts_per_task=1, seed=13)
    _, _, store = synth_marketplace(cfg)
    batch = store.get("svc00", "task00", "ctx00")
    recs = batch.records()
    oracle = sum(f1_score(r.generated_text, r.reference)
                 for r in recs) / len(recs)
    assert task_performance(batch) == pytest.approx(oracle, abs=1e-12)


def test_per_sample_f1_requires_references():
    rec = make_record(0, "a", "a")
    bare = InvocationRecord(
        service_id=rec.service_id, task_id=rec.task_id,
        context_id=rec.context_id, sample_id=rec.sample_id,
        input_text="q", generated_text="a",
        output_steps=rec.output_steps, reference=None)
    with pytest.raises(ValidationError):
        per_sample_f1(SettingBatch.from_records([bare]))


def test_mae_exact_estimates():
    assert mae([(0.5, 0.5), (0.2, 0.2)]) == (0.0, 0.0)


def test_mae_hand_values():
    m, sd = mae([(0.5, 0.6), (0.2, 0.5)])
    assert m == pytest.approx(0.2, abs=1e-12)
    assert sd == pytest.approx(0.1, abs=1e-12)


def test_mae_single_pair():
    m, sd = mae([(0.5, 0.9)])
    assert m == pytest.approx(0.4, abs=1e-12)
    assert sd == 0.0


def test_kfold_partitions_all_indices():
    splits = kfold_split(["g%d" % i for i in range(10)], 5, seed=0)
    assert len(splits) == 5
    test_sets = [set(test) for _, test in splits]
    assert all(len(t) == 2 for t in test_sets)
    assert set().union(*test_sets) == set(range(10))
    for train, test in splits:
        assert set(train).isdisjoint(test)
        assert sorted(set(train) | set(test)) == list(range(10))


def test_kfold_deterministic_and_seed_sensitive():
    groups = ["g%d" % (i % 10) for i in range(20)]
    a = kfold_split(groups, 4, seed=5)
    b = kfold_split(groups, 4, seed=5)
    c = kfold_split(groups, 4, seed=6)
    assert a == b
    assert a != c


def test_kfold_grouped_keeps_groups_whole():
    groups = ["task%02d" % (i % 13) for i in range(13 * 4)]
    splits = kfold_split(groups, 5, seed=1)
    for _, test in splits:
        test_groups = {groups[i] for i in test}
        for i, g in enumerate(groups):
            if g in test_groups:
                assert i in test
    covered = set().union(*(set(test) for _, test in splits))
    assert covered == set(range(len(groups)))


@pytest.mark.parametrize("folds", [2.5, True, "2", 1])
def test_kfold_needs_an_integer_count_of_at_least_two(folds):
    with pytest.raises(ConfigurationError):
        kfold_split(["g0", "g1", "g2"], folds, seed=0)


@pytest.mark.parametrize("unlabeled_n", [5.5, True, "5", 0])
def test_prepare_setting_needs_an_integer_sample_count(unlabeled_n):
    batch = SettingBatch.from_records(
        [make_record(i, "a b", "a b") for i in range(8)])
    with pytest.raises(ConfigurationError):
        prepare_setting(batch, (FeatureKind.NLL,), 4, unlabeled_n=unlabeled_n)


def marketplace_plan(cfg, specs, **overrides):
    services = ["svc%02d" % i for i in range(cfg.n_services)]
    tasks = ["task%02d" % j for j in range(cfg.n_tasks)]
    fields = dict(services=services, tasks=tasks,
                  contexts_per_task=cfg.contexts_per_task,
                  unlabeled_n=min(cfg.samples_per_task, 50), d=8,
                  model_specs=specs, folds=2, seed=0)
    fields.update(overrides)
    return ExperimentPlan(**fields)


def test_run_experiment_structural(tmp_path):
    cfg = MarketplaceConfig(n_services=1, n_tasks=2, samples_per_task=40,
                            contexts_per_task=1, seed=17)
    _, _, store = synth_marketplace(cfg)
    specs = (ModelSpec(ModelKind.KNN, {"k": 1}),)
    plan = marketplace_plan(cfg, specs, baselines=DEFAULT_BASELINES[:2])
    report = run_experiment(plan, store)
    estimators = {r.estimator for r in report.rows}
    assert any("knn" in e for e in estimators)
    assert {"avg_train", "atc"} <= estimators
    n_settings = cfg.n_services * cfg.n_tasks * cfg.contexts_per_task
    for est in estimators:
        rows = [r for r in report.rows if r.estimator == est]
        assert len(rows) == n_settings
        for r in rows:
            assert 0.0 <= r.estimate <= 1.0
            assert 0.0 <= r.true_performance <= 1.0
            assert r.absolute_error == pytest.approx(
                abs(r.estimate - r.true_performance), abs=1e-12)
    assert set(report.aggregates) == estimators
    for est, (m, sd) in report.aggregates.items():
        errs = [r.absolute_error for r in report.rows if r.estimator == est]
        assert m == pytest.approx(float(np.mean(errs)), abs=1e-12)
        assert sd == pytest.approx(float(np.std(errs)), abs=1e-12)
    # the saved report and table rendering
    path = tmp_path / "report.json"
    report.save(str(path))
    assert json.loads(path.read_text()) == report.to_obj()
    table = render_table(report, plan.services)
    assert "avg_train" in table and "total" in table


def test_run_experiment_meta_model_beats_avg_train_at_full_fidelity():
    cfg = MarketplaceConfig(n_services=3, n_tasks=6, samples_per_task=80,
                            contexts_per_task=3, feature_fidelity=1.0,
                            seed=23)
    _, _, store = synth_marketplace(cfg)
    specs = (ModelSpec(ModelKind.RANDOM_FOREST,
                       {"max_depth": 6, "n_trees": 20}),)
    plan = marketplace_plan(cfg, specs, d=24, folds=3,
                            baselines=("avg_train",))
    report = run_experiment(plan, store)
    rf = [e for e in report.aggregates if "random_forest" in e][0]
    assert report.aggregates[rf][0] < report.aggregates["avg_train"][0]


def test_run_experiment_deterministic():
    cfg = MarketplaceConfig(n_services=2, n_tasks=3, samples_per_task=40,
                            contexts_per_task=2, seed=29)
    _, _, store = synth_marketplace(cfg)
    specs = (ModelSpec(ModelKind.KNN, {"k": 2}),)
    plan = marketplace_plan(cfg, specs)
    a = run_experiment(plan, store)
    b = run_experiment(plan, store)
    assert a.to_obj() == b.to_obj()


def test_run_experiment_missing_setting_is_coverage_error():
    cfg = MarketplaceConfig(n_services=1, n_tasks=2, samples_per_task=20,
                            contexts_per_task=1, seed=31)
    _, _, store = synth_marketplace(cfg)
    plan = marketplace_plan(
        cfg, (ModelSpec(ModelKind.KNN, {"k": 1}),),
        services=["svc00", "svc99"])
    with pytest.raises(CoverageError) as exc:
        run_experiment(plan, store)
    assert any("svc99" in str(m) for m in exc.value.missing)
    # a task with fewer contexts than the plan asks for
    plan = marketplace_plan(cfg, (ModelSpec(ModelKind.KNN, {"k": 1}),),
                            contexts_per_task=2)
    with pytest.raises(CoverageError) as exc:
        run_experiment(plan, store)
    assert exc.value.missing == [("*", "task00", "<2 contexts>"),
                                 ("*", "task01", "<2 contexts>")]


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        ExperimentPlan(services=(), tasks=("task00",), contexts_per_task=1)
    with pytest.raises(ConfigurationError):
        ExperimentPlan(services=("svc00",), tasks=("task00",),
                       contexts_per_task=0)
    # each count is an integer, built or not: kfold_split needs two folds
    bad = [(name, value) for name in ("contexts_per_task", "unlabeled_n", "d",
                                      "folds")
           for value in (True, 2.5, "3")] + [("folds", 1)]
    for name, value in bad:
        with pytest.raises(ConfigurationError):
            ExperimentPlan(**{"services": ("svc00",), "tasks": ("task00",),
                              "contexts_per_task": 1, name: value})
    # a plan with no estimator would report nothing
    with pytest.raises(ConfigurationError, match="no meta-model or baseline"):
        ExperimentPlan(services=("svc00",), tasks=("task00",),
                       contexts_per_task=1, model_specs=(), baselines=())
    # a seed is an integer, or it would run as some other seed or fail
    # deep in the run; a model spec is a ModelSpec, not its kind's name
    for name, value in [("seed", v) for v in (1.9, True, "1", "x", None)] + [
            ("model_specs", ("knn",)),
            ("model_specs", (ModelSpec(ModelKind.KNN, {"k": 1}), None))]:
        with pytest.raises(ConfigurationError, match=name):
            ExperimentPlan(**{"services": ("svc00",), "tasks": ("task00",),
                              "contexts_per_task": 1, name: value})
    # a baseline is a name and a feature kind a FeatureKind's value, and
    # an id field is a sequence of ids: "s0" would run services s and 0
    for name, value, match in [
            ("baselines", (1,), "unknown baseline 1"),
            ("feature_kinds", ("foo",), "feature_kinds"),
            ("services", "s0", "services"), ("tasks", "task00", "tasks"),
            ("baselines", "atc", "baselines")]:
        with pytest.raises(ConfigurationError, match=match):
            ExperimentPlan(**{"services": ("svc00",), "tasks": ("task00",),
                              "contexts_per_task": 1, name: value})


def test_experiment_with_a_repeated_feature_kind_is_a_configuration_error():
    plan, store = fold_plan()
    plan = dataclasses.replace(plan, feature_kinds=("nll", "nll"))
    with pytest.raises(ConfigurationError, match="repeats a feature kind"):
        run_experiment(plan, store)


@pytest.mark.parametrize("field, value", [
    ("services", ("svc00", "svc01", "svc00")),
    ("tasks", ("task00", "task01", "task01")),
    ("feature_kinds", ())])
def test_plan_rejects_repeated_ids_and_no_feature_kinds(field, value):
    fields = dict(services=("svc00", "svc01"), tasks=("task00", "task01"),
                  contexts_per_task=1)
    fields[field] = value
    with pytest.raises(ConfigurationError, match=field):
        ExperimentPlan(**fields)


@pytest.mark.parametrize("name", ["foo", "sample_x", "sample_0",
                                  "sample_-3", "sample_", "sample_08"])
def test_plan_rejects_unknown_baselines(name):
    with pytest.raises(ConfigurationError) as exc:
        ExperimentPlan(services=("svc00",), tasks=("task00",),
                       contexts_per_task=1, baselines=("atc", name))
    assert repr(name) in str(exc.value)


def test_plan_accepts_every_baseline_it_names():
    plan = ExperimentPlan(services=("svc00",), tasks=("task00",),
                          contexts_per_task=1,
                          baselines=DEFAULT_BASELINES + ("sample_1",))
    assert plan.baselines[-1] == "sample_1"


def test_unlabeled_ablation_trend_single_seed():
    # one seed of the sample-size sweep; the multi-seed trend lives in the
    # acceptance suite
    cfg = MarketplaceConfig(n_services=2, n_tasks=5, samples_per_task=400,
                            contexts_per_task=3, seed=37)
    _, _, store = synth_marketplace(cfg)
    specs = (ModelSpec(ModelKind.RANDOM_FOREST,
                       {"max_depth": 6, "n_trees": 20}),)
    maes = []
    for n in (50, 400):
        plan = marketplace_plan(cfg, specs, unlabeled_n=n, d=30, folds=3,
                                baselines=())
        report = run_experiment(plan, store)
        est = [e for e in report.aggregates if "random_forest" in e][0]
        maes.append(report.aggregates[est][0])
    assert maes[1] <= maes[0] * 1.25


def per_fold_atc_rows(plan, store):
    """FROZEN: ATC report rows from calibrating every train setting of
    every fold, as run_experiment did before it calibrated once per
    setting."""
    contexts = {t: store.contexts_for_task(t)[:plan.contexts_per_task]
                for t in plan.tasks}
    settings = [(s, t, c) for s in plan.services for t in plan.tasks
                for c in contexts[t]]
    data = {k: prepare_setting(store.get(*k), plan.feature_kinds, plan.d,
                               plan.unlabeled_n, plan.seed)
            for k in settings}
    rows = []
    for train_idx, test_idx in kfold_split([t for _, t, _ in settings],
                                           plan.folds, plan.seed):
        calibs = {s: [] for s in plan.services}
        for i in train_idx:
            k = settings[i]
            calibs[k[0]].append(atc_calibrate(
                data[k].confidences, data[k].sampled_f1))
        for i in test_idx:
            k = settings[i]
            est = float(atc_estimate(calibs[k[0]], data[k].confidences))
            truth = data[k].truth
            rows.append([*k, "atc", est, truth, abs(est - truth)])
    return rows


def test_atc_calibrates_each_setting_once(monkeypatch):
    cfg = MarketplaceConfig(n_services=2, n_tasks=5, samples_per_task=40,
                            contexts_per_task=2, seed=41)
    _, _, store = synth_marketplace(cfg)
    plan = marketplace_plan(cfg, (ModelSpec(ModelKind.KNN, {"k": 2}),),
                            folds=3, baselines=("avg_train", "atc"))
    expected = per_fold_atc_rows(plan, store)
    calls = []

    def counted(*args):
        calls.append(args)
        return atc_calibrate(*args)

    monkeypatch.setattr(baselines, "atc_calibrate", counted)
    report = run_experiment(plan, store)
    settings = cfg.n_services * cfg.n_tasks * cfg.contexts_per_task
    assert len(calls) == settings
    assert [r for r in report.to_obj()["rows"] if r[3] == "atc"] == expected


# run_experiment forks a child for the last half of the settings, then
# one for the last half of the folds, when the process may use two CPUs;
# these tests set that number either way

def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def counted_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fold_plan(seed=0, folds=5):
    cfg = MarketplaceConfig(n_services=2, n_tasks=5, samples_per_task=40,
                            contexts_per_task=2, seed=43 + seed)
    _, _, store = synth_marketplace(cfg)
    specs = (ModelSpec(ModelKind.RANDOM_FOREST,
                       {"max_depth": 4, "n_trees": 5}),
             ModelSpec(ModelKind.KNN, {"k": 2}))
    plan = marketplace_plan(cfg, specs, folds=folds, seed=seed,
                            baselines=DEFAULT_BASELINES)
    return plan, store


def last_fold_task(plan):
    """A task that only the last fold tests."""
    groups = [t for _ in plan.services for t in plan.tasks
              for _ in range(plan.contexts_per_task)]
    _, test = kfold_split(groups, plan.folds, plan.seed)[-1]
    return groups[test[0]]


@pytest.mark.parametrize("folds", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_report_is_the_same_on_one_cpu_and_two(monkeypatch, seed, folds):
    plan, store = fold_plan(seed, folds)
    forks = counted_forks(monkeypatch)
    cpus(monkeypatch, 1)
    serial = run_experiment(plan, store).to_obj()
    assert forks == []
    cpus(monkeypatch, 2)
    assert run_experiment(plan, store).to_obj() == serial
    assert len(forks) == 2
    assert_no_child()


def test_error_in_a_child_fold_is_the_serial_error(monkeypatch):
    plan, store = fold_plan()
    task = last_fold_task(plan)
    trained = []  # the training tasks of each fold trained in this process
    train = metamodels.train

    def failing(spec, rows, seed):
        tasks = frozenset(r.profile.task_id for r in rows)
        trained.append(tasks)
        if task not in tasks:
            raise ValueError(f"no {task} to train on")
        return train(spec, rows, seed)

    monkeypatch.setattr(metamodels, "train", failing)
    errors = []
    for n in (1, 2):
        cpus(monkeypatch, n)
        trained.clear()
        with pytest.raises(ValueError) as exc:
            run_experiment(plan, store)
        errors.append((type(exc.value), str(exc.value)))
        assert_no_child()
    assert errors[0] == errors[1] == (ValueError, f"no {task} to train on")
    # folds 0-2 and the failing fold 4 trained here; the child sent fold 3
    assert len(set(trained)) == 4


def test_folds_run_in_this_process_while_another_thread_runs(monkeypatch):
    plan, store = fold_plan(folds=2)
    cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = run_experiment(plan, store)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert report.to_obj() == run_experiment(plan, store).to_obj()
    assert len(forks) == 2


def test_folds_of_a_killed_child_run_here(monkeypatch, tmp_path):
    plan, store = fold_plan()
    cpus(monkeypatch, 1)
    want = run_experiment(plan, store).to_obj()
    cpus(monkeypatch, 2)
    here = os.getpid()
    train = metamodels.train
    trains = []  # the trains run in this process
    forks = counted_forks(monkeypatch)

    def killed(spec, rows, seed):
        if os.getpid() != here:
            (tmp_path / "child trained").touch()
            os.kill(os.getpid(), signal.SIGKILL)
        trains.append(spec)
        return train(spec, rows, seed)

    monkeypatch.setattr(metamodels, "train", killed)
    assert run_experiment(plan, store).to_obj() == want
    assert_no_child()
    # the child began a fold and died in it, so this process ran them all
    assert forks == [here, here]
    assert (tmp_path / "child trained").exists()
    assert len(trains) == plan.folds * len(plan.model_specs)


def test_no_child_outlives_an_interrupted_experiment(monkeypatch):
    plan, store = fold_plan()
    cpus(monkeypatch, 2)
    here = os.getpid()
    train = metamodels.train

    def interrupted(spec, rows, seed):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(30)  # a slow child is stopped, not waited for
        return train(spec, rows, seed)

    monkeypatch.setattr(metamodels, "train", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(plan, store)
    assert time.monotonic() - start < 20
    assert_no_child()


def test_folds_come_back_without_unpickling(monkeypatch):
    plan, store = fold_plan(folds=3)
    cpus(monkeypatch, 2)
    want = run_experiment(plan, store).to_obj()

    def refuse(*args, **kwargs):
        raise AssertionError("fold rows were unpickled")

    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)
    assert run_experiment(plan, store).to_obj() == want


@pytest.mark.parametrize("specs, forked", [
    ((ModelSpec(ModelKind.RANDOM_FOREST, {"max_depth": 4, "n_trees": 5}),),
     2),
    ((), 0),
    ((ModelSpec(ModelKind.MLP, {"hidden_width": 4, "epochs": 20}),), 0)],
    ids=["random_forest", "sample_n", "mlp"])
def test_folds_fork_only_for_meta_models_without_an_mlp(monkeypatch, specs,
                                                        forked):
    plan, store = fold_plan(folds=3)
    plan = dataclasses.replace(
        plan, model_specs=specs,
        baselines=plan.baselines if specs else ("sample_8",))
    forks = counted_forks(monkeypatch)
    cpus(monkeypatch, 1)
    serial = run_experiment(plan, store).to_obj()
    cpus(monkeypatch, 2)
    assert run_experiment(plan, store).to_obj() == serial
    assert len(forks) == forked
    assert_no_child()


def test_code_between_the_forks_runs_in_this_process_only(monkeypatch,
                                                          tmp_path):
    plan, store = fold_plan()
    cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    log = tmp_path / "calibrated"
    atc_calibrate = baselines.atc_calibrate

    def logged(*args):  # a file, since a child's list would stay there
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return atc_calibrate(*args)

    monkeypatch.setattr(baselines, "atc_calibrate", logged)
    run_experiment(plan, store)
    assert log.read_text().splitlines() == [str(os.getpid())] * 20
    assert len(forks) == 2
    assert_no_child()


def tuple_keyed_report(plan, store):
    """FROZEN: the report of run_experiment's serial fold loop as it was
    when every per-setting quantity lived in a dict keyed by (service,
    task, context)."""
    contexts = {t: store.contexts_for_task(t)[:plan.contexts_per_task]
                for t in plan.tasks}
    settings = [(s, t, c) for s in plan.services for t in plan.tasks
                for c in contexts[t]]
    data = {key: prepare_setting(store.get(*key), plan.feature_kinds,
                                 plan.d, plan.unlabeled_n, plan.seed)
            for key in settings}
    sample_ns = sorted(int(b.split("_", 1)[1]) for b in plan.baselines
                       if b.startswith("sample_"))
    sample_est = {
        (n, s, t): baselines.sample_n_estimate(
            {(s, t, c): data[(s, t, c)].f1 for c in contexts[t]}, n,
            plan.seed)
        for n in sample_ns for s in plan.services for t in plan.tasks}
    atc = {}
    if "atc" in plan.baselines:
        atc = {k: atc_calibrate(d.confidences, d.sampled_f1)
               for k, d in data.items()}
    rows = []
    for train_idx, test_idx in kfold_split([t for (_, t, _) in settings],
                                           plan.folds, plan.seed):
        train_keys = [settings[i] for i in train_idx]
        test_keys = [settings[i] for i in test_idx]
        train_rows = [metamodels.TrainingRow(profile=data[k].profile,
                                             target=data[k].truth)
                      for k in train_keys]
        estimates = {}
        for i, spec in enumerate(plan.model_specs):
            same_kind = [sp for sp in plan.model_specs if sp.kind == spec.kind]
            name = (f"{spec.kind.value}#{i}" if len(same_kind) > 1
                    else spec.kind.value)
            model = metamodels.train(spec, train_rows, plan.seed)
            preds = metamodels.predict_many(
                model, [data[k].profile for k in test_keys])
            estimates[name] = dict(zip(test_keys, preds.tolist()))
        if "avg_train" in plan.baselines:
            per_service = {
                s: baselines.avg_train_estimate(
                    [data[k].truth for k in train_keys if k[0] == s])
                for s in plan.services}
            estimates["avg_train"] = {k: per_service[k[0]]
                                      for k in test_keys}
        if atc:
            thresholds = {s: [] for s in plan.services}
            for k in train_keys:
                thresholds[k[0]].append(atc[k])
            estimates["atc"] = {
                k: atc_estimate(thresholds[k[0]], data[k].confidences)
                for k in test_keys}
        for n in sample_ns:
            estimates[f"sample_{n}"] = {
                k: sample_est[(n, k[0], k[1])] for k in test_keys}
        for name in sorted(estimates):
            for key in test_keys:
                est = float(estimates[name][key])
                truth = data[key].truth
                rows.append([*key, name, est, truth, abs(est - truth)])
    aggregates = {}
    for name in sorted({r[3] for r in rows}):
        errors = np.array([abs(r[4] - r[5]) for r in rows if r[3] == name])
        aggregates[name] = [float(errors.mean()), float(errors.std())]
    return {"rows": rows, "aggregates": aggregates}


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("folds", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_report_equals_the_tuple_keyed_fold_loop(monkeypatch, seed, folds,
                                                 n_cpus):
    plan, store = fold_plan(seed, folds)
    plan = dataclasses.replace(plan, model_specs=(
        ModelSpec(ModelKind.RANDOM_FOREST, {"max_depth": 4, "n_trees": 5}),
        ModelSpec(ModelKind.KNN, {"k": 2}),
        ModelSpec(ModelKind.GBT, {"max_depth": 2, "n_rounds": 10}),
        ModelSpec(ModelKind.KNN, {"k": 3})),
        baselines=DEFAULT_BASELINES + ("sample_1",))
    want = tuple_keyed_report(plan, store)
    cpus(monkeypatch, n_cpus)
    got = run_experiment(plan, store).to_obj()
    assert {"knn#1", "knn#3", "gbt", "random_forest", "sample_1",
            "atc"} <= set(got["aggregates"])
    assert got == want


def with_setting(plan, store, position, change):
    """A store equal to store but for the setting at position, in
    run_experiment's order, whose records pass through change."""
    settings = [(s, t, c) for s in plan.services for t in plan.tasks
                for c in store.contexts_for_task(t)[:plan.contexts_per_task]]
    out = RecordStore()
    for key in store.keys():
        batch = store.get(*key)
        if key == settings[position]:
            batch = SettingBatch.from_records(
                [change(r) for r in batch.records()])
        out.add(batch)
    return out


def unscored(record):
    return dataclasses.replace(record, input_scores=None)


def unlabeled(record):
    return dataclasses.replace(record, reference=None)


@pytest.mark.parametrize("changes, error", [
    (((15, unscored),), CapabilityError),
    (((15, unlabeled),), ValidationError),
    # the first broken setting in the order of the settings raises
    (((12, unlabeled), (15, unscored)), ValidationError),
    (((12, unscored), (15, unlabeled)), CapabilityError)],
    ids=["unscored", "unlabeled", "unlabeled_then_unscored",
         "unscored_then_unlabeled"])
def test_error_in_the_childs_settings_is_the_serial_error(monkeypatch,
                                                          changes, error):
    plan, store = fold_plan()
    # 20 settings: this process prepares the first 10, the child the rest
    assert len(plan.services) * len(plan.tasks) * plan.contexts_per_task \
        == 20
    for position, change in changes:
        store = with_setting(plan, store, position, change)
    forks = counted_forks(monkeypatch)
    errors = []
    for n in (1, 2):
        cpus(monkeypatch, n)
        with pytest.raises(error) as exc:
            run_experiment(plan, store)
        errors.append(str(exc.value))
        assert_no_child()
    assert errors[0] == errors[1]
    assert len(forks) == 1


def test_no_child_outlives_an_interrupted_preparation(monkeypatch):
    plan, store = fold_plan()
    cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    here = os.getpid()
    extract = features.extract_task_features

    def interrupted(*args):
        if os.getpid() == here:
            raise KeyboardInterrupt
        time.sleep(30)  # a slow child is stopped, not waited for
        return extract(*args)

    monkeypatch.setattr(features, "extract_task_features", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(plan, store)
    assert time.monotonic() - start < 20
    assert len(forks) == 1
    assert_no_child()


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_ragged_subsampled_report_equals_the_tuple_keyed_fold_loop(
        monkeypatch, seed, n_cpus):
    plan, store = fold_plan(seed, folds=3)
    ragged = RecordStore()
    for n, key in enumerate(store.keys()):  # 40, 38, ... 32 samples
        ragged.add(store.get(*key).take(np.arange(40 - 2 * (n % 5))))
    plan = dataclasses.replace(plan, unlabeled_n=35,
                               baselines=DEFAULT_BASELINES + ("sample_1",))
    want = tuple_keyed_report(plan, ragged)
    cpus(monkeypatch, n_cpus)
    forks = counted_forks(monkeypatch)
    assert run_experiment(plan, ragged).to_obj() == want
    assert len(forks) == 2 * (n_cpus - 1)
    assert_no_child()
