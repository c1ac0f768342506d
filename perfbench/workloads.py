"""The three benchmark workloads: inputs, the timed job, and its checks.

Each workload has a ``setup`` (inputs the job needs but a user would
already have), a ``job`` (the timed work) and a ``check`` (correctness of
the job's outputs, run after timing). perfest functions are called through
their modules, so the tracer's replacements take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from perfest import cli, evaluation, metamodels, profile, services
from perfest.features import FeatureKind

KINDS = (FeatureKind.NLL, FeatureKind.PPL)

# "quick" is the measured shape, sized so that three jobs fit a 30-second
# run; "full" is opt-in: acceptance criterion 5's shape and its CLI and
# meta-model counterparts, 10-30 s a job; "tiny" keeps every code path
# for the benchmark's own smoke test.
SHAPES = {
    "cv-experiment": {
        "quick": {"services": 5, "tasks": 13, "contexts": 10, "samples": 100,
                  "n_trees": 15, "max_depth": 8, "unlabeled_n": 100,
                  "d": 100, "folds": 5},
        "full": {"services": 5, "tasks": 13, "contexts": 10, "samples": 400,
                 "n_trees": 50, "max_depth": 8, "unlabeled_n": 400,
                 "d": 100, "folds": 5},
        "tiny": {"services": 2, "tasks": 5, "contexts": 3, "samples": 40,
                 "n_trees": 10, "max_depth": 4, "unlabeled_n": 30,
                 "d": 20, "folds": 5},
    },
    "cli-pipeline": {
        "quick": {"services": 2, "tasks": 6, "contexts": 5, "samples": 300,
                  "n": 150},
        "full": {"services": 3, "tasks": 8, "contexts": 5, "samples": 400,
                 "n": 200},
        "tiny": {"services": 2, "tasks": 2, "contexts": 2, "samples": 20,
                 "n": 10},
    },
    "meta-fit": {
        "quick": {"services": 5, "tasks": 13, "contexts": 5, "samples": 100,
                  "d": 100, "held_out": 3},
        "full": {"services": 5, "tasks": 13, "contexts": 10, "samples": 100,
                 "d": 100, "held_out": 3},
        "tiny": {"services": 2, "tasks": 5, "contexts": 2, "samples": 20,
                 "d": 10, "held_out": 2},
    },
}

WHY = {
    "cv-experiment": "criterion-5 grouped CV in memory: tree fitting and "
                     "synth dominate, no file I/O",
    "cli-pipeline": "synth, train, estimate through the CLI: JSONL write "
                    "and validated reads dominate, tree fitting is small",
    "meta-fit": "GBT, MLP and KNN fit and predict on prepared profiles: "
                "boosting and gradient descent, not bagging",
}


def marketplace(shape, seed):
    return services.MarketplaceConfig(
        n_services=shape["services"], n_tasks=shape["tasks"],
        contexts_per_task=shape["contexts"],
        samples_per_task=shape["samples"], seed=100 + seed)


def _settings(shape):
    return shape["services"] * shape["tasks"] * shape["contexts"]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------------
# cv-experiment: synth in memory, then run_experiment (RF, AvgTrain, ATC)

def cv_setup(shape, seed, workdir):
    return None


def cv_job(shape, seed, inputs, workdir):
    config = marketplace(shape, seed)
    _, _, store = services.synth_marketplace(config)
    plan = evaluation.ExperimentPlan(
        services=[config.service_id(i) for i in range(config.n_services)],
        tasks=[config.task_id(j) for j in range(config.n_tasks)],
        contexts_per_task=config.contexts_per_task,
        unlabeled_n=shape["unlabeled_n"], d=shape["d"], feature_kinds=KINDS,
        model_specs=(metamodels.ModelSpec(
            metamodels.ModelKind.RANDOM_FOREST,
            {"n_trees": shape["n_trees"], "max_depth": shape["max_depth"],
             "sampling_ratio": 0.8}),),
        baselines=("avg_train", "atc"), folds=shape["folds"], seed=seed)
    return evaluation.run_experiment(plan, store)


def cv_check(shape, seed, inputs, report, workdir):
    agg = report.aggregates
    rf = agg["random_forest"][0]
    checks = {
        "report_rows": len(report.rows) == 3 * _settings(shape),
        "estimates_in_unit": all(0.0 <= r.estimate <= 1.0
                                 for r in report.rows),
        "aggregates_finite": all(math.isfinite(v) for pair in agg.values()
                                 for v in pair),
        "rf_beats_baselines": rf < agg["avg_train"][0] and rf < agg["atc"][0],
    }
    return checks, rf, _digest(report.to_obj())


# --------------------------------------------------------------------------
# cli-pipeline: synth --out, train (default random forest), estimate --n

def cli_setup(shape, seed, workdir):
    return None


def _cli_paths(workdir):
    return {"store": os.path.join(workdir, "store"),
            "records": os.path.join(workdir, "store", "records.jsonl"),
            "model": os.path.join(workdir, "model.json"),
            "estimates": os.path.join(workdir, "estimates.json")}


def cli_job(shape, seed, inputs, workdir):
    p = _cli_paths(workdir)
    argvs = (
        ["synth", "--out", p["store"], "--services", str(shape["services"]),
         "--tasks", str(shape["tasks"]), "--contexts", str(shape["contexts"]),
         "--samples", str(shape["samples"]), "--seed", str(100 + seed)],
        ["train", "--records", p["records"], "--out", p["model"],
         "--seed", str(seed)],
        ["estimate", "--model", p["model"], "--records", p["records"],
         "--n", str(shape["n"]), "--seed", str(seed), "--out",
         p["estimates"]],
    )
    with contextlib.redirect_stdout(io.StringIO()):
        return [cli.dispatch(argv) for argv in argvs]


def cli_check(shape, seed, inputs, codes, workdir):
    checks = {"exit_codes_zero": codes == [0, 0, 0]}
    if not checks["exit_codes_zero"]:
        return checks, math.nan, ""
    with open(_cli_paths(workdir)["estimates"], "rb") as f:
        raw = f.read()
    results = json.loads(raw)
    errors = [abs(r["estimate"] - r["true_performance"]) for r in results
              if r["true_performance"] is not None]
    checks["one_estimate_per_setting"] = len(results) == _settings(shape)
    checks["every_setting_has_truth"] = len(errors) == len(results)
    checks["estimates_in_unit"] = all(0.0 <= r["estimate"] <= 1.0
                                      for r in results)
    est_mae = float(np.mean(errors)) if errors else math.nan
    checks["mae_finite"] = math.isfinite(est_mae)
    return checks, est_mae, hashlib.sha256(raw).hexdigest()


# --------------------------------------------------------------------------
# meta-fit: GBT, MLP and KNN on prepared profiles, held-out tasks

META_KINDS = (metamodels.ModelKind.GBT, metamodels.ModelKind.MLP,
              metamodels.ModelKind.KNN)


def meta_setup(shape, seed, workdir):
    config = marketplace(shape, seed)
    _, _, store = services.synth_marketplace(config)
    rows = []
    for key in store.keys():
        recs = store.get(*key)
        rows.append((key[1], metamodels.TrainingRow(
            profile=profile.build_profile(recs, KINDS, shape["d"]),
            target=evaluation.task_performance(recs))))
    tasks = [config.task_id(j) for j in range(config.n_tasks)]
    held = set(np.random.default_rng(seed).choice(
        tasks, size=shape["held_out"], replace=False).tolist())
    train = [r for t, r in rows if t not in held]
    test = [r for t, r in rows if t in held]
    return train, test


def meta_job(shape, seed, inputs, workdir):
    train, test = inputs
    out = {}
    for kind in META_KINDS:
        model = metamodels.train(metamodels.ModelSpec(kind), train, seed)
        out[kind] = (model, metamodels.predict_many(
            model, [r.profile for r in test]))
    return out


def meta_check(shape, seed, inputs, out, workdir):
    _, test = inputs
    truth = np.array([r.target for r in test])
    maes, reloaded = [], True
    for kind, (model, preds) in out.items():
        maes.append(float(np.mean(np.abs(preds - truth))))
        path = os.path.join(workdir, f"{kind.value}.json")
        metamodels.save_model(model, path)
        again = metamodels.predict_many(metamodels.load_model(path),
                                        [r.profile for r in test])
        reloaded &= bool(np.array_equal(again, preds))
    preds = [out[kind][1] for kind in META_KINDS]
    checks = {
        "predictions_per_test_row": all(p.shape == truth.shape
                                        for p in preds),
        "predictions_in_unit": all(bool(np.all((p >= 0.0) & (p <= 1.0)))
                                   for p in preds),
        "mae_finite": all(math.isfinite(m) for m in maes),
        "load_model_reproduces": reloaded,
    }
    return checks, float(np.mean(maes)), _digest(
        [p.tolist() for p in preds])


WORKLOADS = {
    "cv-experiment": (cv_setup, cv_job, cv_check),
    "cli-pipeline": (cli_setup, cli_job, cli_check),
    "meta-fit": (meta_setup, meta_job, meta_check),
}
