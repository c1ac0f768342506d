"""Scoring, error metrics, CV splitting, and the experiment runner."""

import json

import numpy as np
import pytest

from perfest import baselines
from perfest.baselines import atc_calibrate, atc_estimate
from perfest.core import InvocationRecord, SettingBatch, TokenStep
from perfest.errors import ConfigurationError, CoverageError, ValidationError
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
