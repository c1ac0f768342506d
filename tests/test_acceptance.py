"""Acceptance suite: one pass/fail line per criterion.

Criteria 1-4 are exact-oracle checks. Criteria 5-10 are statistical
reproductions of the estimator's qualitative claims on the synthetic
marketplace, each run over many seeds with stated win-rate thresholds.
Criterion 11 checks end-to-end determinism. Run with `pytest -s` to see
the per-criterion lines alongside pytest's own output.
"""

import math
import time

import numpy as np

import perfest.evaluation as ev
from perfest.cli import dispatch
from perfest.core import InvocationRecord, TokenStep
from perfest.feature_selection import (
    combination_score,
    correlation_matrix,
    enumerate_combinations,
    pearson,
    select_best_combination,
)
from perfest.features import FeatureKind, gap, max_ent, nll, ppl
from perfest.metamodels import (
    ModelKind,
    ModelSpec,
    TrainingRow,
    gbt_training_mse_curve,
    mlp_loss_and_grads,
    predict,
    predict_many,
    train,
)
from perfest.profile import (DEFAULT_KINDS, FeatureProfile, build_profile,
                             interpolate_profile)
from perfest.services import (
    MarketplaceConfig,
    marketplace_truth,
    synth_marketplace,
)


def check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def spearman(xs, ys):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        return r.tolist()
    return pearson(ranks(np.asarray(xs)), ranks(np.asarray(ys)))


# ---------------------------------------------------------------------------
# criterion 1: feature extraction matches naive re-evaluation


def _random_record(rng):
    steps = []
    for t in range(int(rng.integers(1, 9))):
        k = int(rng.integers(1, 6))
        raw = rng.uniform(0.05, 1.0, size=k)
        raw = np.sort(raw / raw.sum() * rng.uniform(0.3, 1.0))[::-1]
        steps.append(TokenStep("tok%d" % t, tuple(
            ("tok%d_%d" % (t, j), float(p)) for j, p in enumerate(raw))))
    return InvocationRecord(
        service_id="svc00", task_id="task00", context_id="ctx00",
        sample_id="s0000", input_text="q", generated_text="a",
        output_steps=tuple(steps),
        input_scores=tuple(float(s) for s in rng.uniform(0.05, 1.0, size=6)))


def test_criterion_1_feature_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(10_001)
    worst = 0.0
    for _ in range(200):
        rec = _random_record(rng)
        oracle_nll = sum(-math.log(s.top_probs[0][1])
                         for s in rec.output_steps)
        losses = [-math.log(p) for p in rec.input_scores]
        oracle_ppl = math.exp(sum(losses) / len(losses))
        oracle_gap = sum(
            s.top_probs[0][1]
            - (s.top_probs[1][1] if len(s.top_probs) > 1 else 0.0)
            for s in rec.output_steps)
        oracle_ent = 0.0
        for s in rec.output_steps:
            probs = [p for _, p in s.top_probs]
            z = sum(probs)
            oracle_ent = max(oracle_ent, -sum(
                (p / z) * math.log(p / z) for p in probs))
        for got, want in ((nll(rec), oracle_nll), (ppl(rec), oracle_ppl),
                          (gap(rec), oracle_gap), (max_ent(rec), oracle_ent)):
            denom = max(abs(want), 1e-30)
            worst = max(worst, abs(got - want) / denom)
    elapsed = time.perf_counter() - start
    check(1, "feature values match naive re-evaluation on 200 records",
          worst < 1e-9 and elapsed < 5.0,
          f"max rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: interpolation properties


def test_criterion_2_interpolation_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(10_002)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 50))
        vals = rng.normal(scale=rng.uniform(0.5, 10), size=m)
        d = int(rng.integers(1, 40))
        prof = np.asarray(interpolate_profile(vals.tolist(), d))
        ident = np.asarray(interpolate_profile(vals.tolist(), m))
        perm = np.asarray(interpolate_profile(
            rng.permutation(vals).tolist(), d))
        ok = ok and np.array_equal(ident, np.sort(vals))
        ok = ok and np.array_equal(prof, perm)
        ok = ok and bool(np.all(np.diff(prof) >= 0.0))
        ok = ok and vals.min() <= prof[0] and prof[-1] <= vals.max()
        if not ok:
            break
    elapsed = time.perf_counter() - start
    check(2, "profile interpolation: identity, permutation invariance, "
             "monotonicity, bounding over 1000 lists",
          ok and elapsed < 5.0, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: feature-combination selection vs exhaustive oracle


def test_criterion_3_feature_selection():
    start = time.perf_counter()
    rng = np.random.default_rng(10_003)
    n = 600
    perf = rng.uniform(0.1, 0.9, size=n)
    z = (perf - perf.mean()) / perf.std()
    noise = rng.normal(size=(4, n))
    table = {
        FeatureKind.NLL: (-(0.9 * z + math.sqrt(0.19) * noise[0])).tolist(),
        FeatureKind.PPL: (-(0.9 * z + math.sqrt(0.19) * noise[1])).tolist(),
        FeatureKind.GAP: (0.3 * z + math.sqrt(0.91) * noise[2]).tolist(),
        FeatureKind.MAXENT: (-0.3 * z + math.sqrt(0.91) * noise[3]).tolist(),
    }
    best = select_best_combination(table, perf.tolist())
    corr = correlation_matrix(table, perf.tolist(), absolute=True)
    subsets = enumerate_combinations(table.keys())
    scores = [combination_score(s, corr) for s in subsets]
    oracle = subsets[int(np.argmax(scores))]
    elapsed = time.perf_counter() - start
    want = frozenset({FeatureKind.NLL, FeatureKind.PPL})
    check(3, "two independent informative features are selected together, "
             "matching exhaustive enumeration",
          best == want and oracle == want and elapsed < 5.0,
          f"selected {sorted(k.value for k in best)}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: meta-model sanity


def _rand_rows(rng, n, dims=6):
    rows = []
    for _ in range(n):
        vec = tuple(sorted(rng.uniform(0, 5, size=dims).tolist()))
        prof = FeatureProfile(service_id="svc00", task_id="task00",
                              context_id="ctx00", kinds=(FeatureKind.NLL,),
                              dims=dims, vector=vec)
        rows.append(TrainingRow(profile=prof,
                                target=float(np.clip(
                                    np.mean(vec) / 5.0
                                    + rng.normal(0, 0.02), 0, 1))))
    return rows


def test_criterion_4_meta_model_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(10_004)
    rows = _rand_rows(rng, 40)

    knn = train(ModelSpec(ModelKind.KNN, {"k": 1}), rows, seed=0)
    one_nn_exact = all(
        abs(predict(knn, r.profile) - r.target) < 1e-12 for r in rows)

    const_rows = [TrainingRow(r.profile, 0.7) for r in rows]
    rf = train(ModelSpec(ModelKind.RANDOM_FOREST,
                         {"max_depth": 6, "n_trees": 15}), const_rows, seed=1)
    rf_const = bool(np.all(np.abs(
        predict_many(rf, [r.profile for r in rows]) - 0.7) < 1e-9))

    gbt = train(ModelSpec(ModelKind.GBT,
                          {"max_depth": 3, "n_rounds": 40,
                           "sampling_ratio": 0.7}), rows, seed=2)
    curve = gbt_training_mse_curve(gbt, rows)
    gbt_monotone = bool(np.all(np.diff(curve) <= 1e-12))

    grad_ok = True
    step = 1e-5
    for _ in range(20):
        n = int(rng.integers(3, 8))
        dim = int(rng.integers(2, 5))
        width = int(rng.integers(2, 5))
        X = rng.normal(size=(n, dim))
        y = rng.uniform(size=n)
        params = {"W1": rng.normal(scale=0.5, size=(dim, width)),
                  "b1": rng.normal(scale=0.1, size=width),
                  "W2": rng.normal(scale=0.5, size=width),
                  "b2": float(rng.normal(scale=0.1))}
        _, grads = mlp_loss_and_grads(params, X, y)
        for name in ("W1", "b1", "W2", "b2"):
            flat = np.atleast_1d(np.asarray(params[name], dtype=float))
            g = np.atleast_1d(np.asarray(grads[name])).reshape(flat.shape)
            it = np.nditer(flat, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                up = {k: (np.array(v, dtype=float)
                          if isinstance(v, np.ndarray) else v)
                      for k, v in params.items()}
                dn = {k: (np.array(v, dtype=float)
                          if isinstance(v, np.ndarray) else v)
                      for k, v in params.items()}
                if name == "b2":
                    up[name] = params[name] + step
                    dn[name] = params[name] - step
                else:
                    up[name][idx] += step
                    dn[name][idx] -= step
                lu, _ = mlp_loss_and_grads(up, X, y)
                ld, _ = mlp_loss_and_grads(dn, X, y)
                num = (lu - ld) / (2 * step)
                if abs(g[idx] - num) / max(abs(num), 1e-3) >= 1e-4:
                    grad_ok = False
                it.iternext()
    elapsed = time.perf_counter() - start
    check(4, "1-NN exact, RF constant-fit, GBT monotone training MSE, "
             "MLP gradients vs finite differences",
          one_nn_exact and rf_const and gbt_monotone and grad_ok
          and elapsed < 60.0,
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 5-10: marketplace experiments

RF_SPEC = ModelSpec(ModelKind.RANDOM_FOREST,
                    {"max_depth": 8, "n_trees": 50, "sampling_ratio": 0.8})


def _experiment(cfg, specs, baselines, *, unlabeled_n, d, folds, seed,
                feature_kinds=(FeatureKind.NLL, FeatureKind.PPL)):
    _, _, store = synth_marketplace(cfg)
    plan = ev.ExperimentPlan(
        services=[cfg.service_id(i) for i in range(cfg.n_services)],
        tasks=[cfg.task_id(j) for j in range(cfg.n_tasks)],
        contexts_per_task=cfg.contexts_per_task, unlabeled_n=unlabeled_n,
        d=d, feature_kinds=feature_kinds, model_specs=specs,
        baselines=baselines, folds=folds, seed=seed)
    return ev.run_experiment(plan, store)


def test_criterion_5_meta_model_beats_unlabeled_baselines():
    start = time.perf_counter()
    wins = 0
    margins = []
    for s in range(20):
        cfg = MarketplaceConfig(n_services=5, n_tasks=13,
                                samples_per_task=400, contexts_per_task=10,
                                feature_fidelity=0.9, seed=100 + s)
        report = _experiment(cfg, (RF_SPEC,), ("avg_train", "atc"),
                             unlabeled_n=400, d=100, folds=5, seed=s)
        rf_name = [e for e in report.aggregates if "random_forest" in e][0]
        rf = report.aggregates[rf_name][0]
        base = min(report.aggregates["avg_train"][0],
                   report.aggregates["atc"][0])
        margins.append(1.0 - rf / base)
        if rf < 0.8 * base:
            wins += 1
    elapsed = time.perf_counter() - start
    check(5, "random forest MAE beats AvgTrain and ATC by >= 20 percent "
             "relative in >= 18 of 20 seeds",
          wins >= 18 and elapsed < 600.0,
          f"{wins}/20 wins, median margin {np.median(margins):.1%}, "
          f"{elapsed:.0f}s")


def test_criterion_6_unlabeled_sample_size_trend():
    sizes = (200, 400, 800, 1600)
    per_seed = []
    for s in range(10):
        cfg = MarketplaceConfig(n_services=3, n_tasks=6,
                                samples_per_task=1600, contexts_per_task=4,
                                feature_fidelity=0.9, seed=300 + s)
        _, _, store = synth_marketplace(cfg)
        maes = []
        for n in sizes:
            plan = ev.ExperimentPlan(
                services=[cfg.service_id(i) for i in range(3)],
                tasks=[cfg.task_id(j) for j in range(6)],
                contexts_per_task=4, unlabeled_n=n, d=100,
                model_specs=(RF_SPEC,), baselines=(), folds=3, seed=s)
            report = ev.run_experiment(plan, store)
            est = [e for e in report.aggregates if "random_forest" in e][0]
            maes.append(report.aggregates[est][0])
        per_seed.append(maes)
    mean = np.mean(per_seed, axis=0)
    adjacent_ok = all(mean[i + 1] <= mean[i] * 1.05 for i in range(3))
    rho = spearman(list(sizes), mean.tolist())
    check(6, "mean MAE non-increasing in unlabeled sample size, "
             "Spearman <= -0.8",
          adjacent_ok and rho <= -0.8,
          "means " + ", ".join(f"{m:.4f}" for m in mean)
          + f", spearman {rho:.2f}")


def test_criterion_7_combined_features_beat_single():
    wins = 0
    spec = ModelSpec(ModelKind.RANDOM_FOREST,
                     {"max_depth": 8, "n_trees": 40, "sampling_ratio": 0.8})
    for s in range(20):
        cfg = MarketplaceConfig(n_services=3, n_tasks=8,
                                samples_per_task=200, contexts_per_task=5,
                                feature_fidelity=0.9, seed=200 + s)
        _, _, store = synth_marketplace(cfg)
        maes = {}
        for kinds in ((FeatureKind.NLL,), (FeatureKind.PPL,),
                      (FeatureKind.NLL, FeatureKind.PPL)):
            plan = ev.ExperimentPlan(
                services=[cfg.service_id(i) for i in range(3)],
                tasks=[cfg.task_id(j) for j in range(8)],
                contexts_per_task=5, unlabeled_n=200, d=60,
                feature_kinds=kinds, model_specs=(spec,), baselines=(),
                folds=4, seed=s)
            report = ev.run_experiment(plan, store)
            est = [e for e in report.aggregates if "random_forest" in e][0]
            maes[kinds] = report.aggregates[est][0]
        both = maes[(FeatureKind.NLL, FeatureKind.PPL)]
        if both <= min(maes[(FeatureKind.NLL,)], maes[(FeatureKind.PPL,)]):
            wins += 1
    check(7, "NLL+PPL together estimate at least as well as either feature "
             "alone in >= 16 of 20 seeds", wins >= 16, f"{wins}/20 wins")


def _profiles_and_truths(store, keys, d):
    profiles, truths = [], {}
    for key in keys:
        setting = ev.prepare_setting(store.batch(*key), DEFAULT_KINDS, d)
        profiles.append(setting.profile)
        truths[key] = setting.truth
    return profiles, truths


def test_criterion_8_setting_selection_beats_random_choice():
    from perfest.applications import candidates_from_model, select_setting

    wins = 0
    spec = ModelSpec(ModelKind.RANDOM_FOREST,
                     {"max_depth": 8, "n_trees": 40, "sampling_ratio": 0.8})
    for s in range(20):
        cfg = MarketplaceConfig(n_services=5, n_tasks=6,
                                samples_per_task=200, contexts_per_task=10,
                                feature_fidelity=0.9, seed=500 + s)
        _, _, store = synth_marketplace(cfg)
        target_task = cfg.task_id(cfg.n_tasks - 1)
        train_keys = [k for k in store.keys() if k[1] != target_task]
        cand_keys = [k for k in store.keys() if k[1] == target_task]
        train_profiles, train_truths = _profiles_and_truths(
            store, train_keys, d=60)
        rows = [TrainingRow(profile=p, target=train_truths[k])
                for p, k in zip(train_profiles, train_keys)]
        model = train(spec, rows, seed=s)
        cand_profiles, cand_truths = _profiles_and_truths(
            store, cand_keys, d=60)
        cands = candidates_from_model(model, cand_profiles)
        best = select_setting(cands)
        chosen_truth = cand_truths[(best.service_id, target_task,
                                    best.context_id)]
        random_expectation = float(np.mean(list(cand_truths.values())))
        if chosen_truth > random_expectation:
            wins += 1
    check(8, "selected setting's true performance beats the mean over all "
             "candidates in >= 18 of 20 seeds", wins >= 18, f"{wins}/20 wins")


def test_criterion_9_finetune_ranking_finds_largest_gain():
    from perfest.applications import rank_finetune_targets

    wins = 0
    spec = ModelSpec(ModelKind.RANDOM_FOREST,
                     {"max_depth": 8, "n_trees": 40, "sampling_ratio": 0.8})
    for s in range(20):
        cfg = MarketplaceConfig(n_services=5, n_tasks=6,
                                samples_per_task=200, contexts_per_task=8,
                                feature_fidelity=0.9,
                                difficulty_range=(0.5, 0.8), seed=400 + s)
        truth = marketplace_truth(cfg)
        _, _, store = synth_marketplace(cfg)
        # rank services on the hardest task, trained on the others
        j_target = int(np.argmax(truth.difficulties))
        target_task = cfg.task_id(j_target)
        train_keys = [k for k in store.keys() if k[1] != target_task]
        cand_keys = [k for k in store.keys() if k[1] == target_task]
        train_profiles, train_truths = _profiles_and_truths(
            store, train_keys, d=60)
        rows = [TrainingRow(profile=p, target=train_truths[k])
                for p, k in zip(train_profiles, train_keys)]
        model = train(spec, rows, seed=s)
        estimates = {}
        for i in range(cfg.n_services):
            sid = cfg.service_id(i)
            profs = [build_profile(store.batch(*k), d=60)
                     for k in cand_keys if k[0] == sid]
            estimates[sid] = float(np.mean(predict_many(model, profs)))
        ranking = rank_finetune_targets(estimates)
        diffs = {}
        for i in range(cfg.n_services):
            sid = cfg.service_id(i)
            diffs[sid] = float(np.mean(
                [truth.simulated_finetune_diff(i, j_target, k)
                 for k in range(cfg.contexts_per_task)]))
        if diffs[ranking[0]] >= max(diffs.values()) - 1e-12:
            wins += 1
    check(9, "top-ranked fine-tune target realizes the largest simulated "
             "gain in >= 16 of 20 seeds", wins >= 16, f"{wins}/20 wins")


def test_criterion_10_sample_baseline_error_shrinks_with_n():
    per_seed = []
    for s in range(20):
        cfg = MarketplaceConfig(n_services=3, n_tasks=5,
                                samples_per_task=100, contexts_per_task=5,
                                helpfulness_range=(0.0, 0.02), seed=700 + s)
        report = _experiment(cfg, (), ("sample_8", "sample_16", "sample_32"),
                             unlabeled_n=100, d=20, folds=3, seed=s)
        per_seed.append([report.aggregates["sample_%d" % n][0]
                         for n in (8, 16, 32)])
    mean = np.mean(per_seed, axis=0)
    check(10, "mean MAE ordering Sample^32 < Sample^16 < Sample^8 over "
              "20 seeds", mean[2] < mean[1] < mean[0],
          "means " + ", ".join(f"{m:.4f}" for m in mean))


# ---------------------------------------------------------------------------
# criterion 11: end-to-end determinism


def test_criterion_11_pipeline_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        store = root / "store"
        assert dispatch(["synth", "--seed", "13", "--out", str(store),
                         "--services", "2", "--tasks", "4", "--samples",
                         "60", "--contexts", "2"]) == 0
        model = root / "model.json"
        assert dispatch(["train", "--records",
                         str(store / "records.jsonl"),
                         "--kind", "random_forest",
                         "--hyperparams",
                         '{"max_depth": 4, "n_trees": 10}',
                         "--d", "16", "--seed", "13",
                         "--out", str(model)]) == 0
        report = root / "report.json"
        assert dispatch(["evaluate", "--records",
                         str(store / "records.jsonl"),
                         "--models", "random_forest", "--contexts", "2",
                         "--n", "60", "--d", "16", "--folds", "2",
                         "--seed", "13", "--out", str(report)]) == 0
        outputs.append({
            "records": (store / "records.jsonl").read_bytes(),
            "model": model.read_bytes(),
            "report": report.read_bytes(),
        })
    check(11, "synth -> train -> evaluate is byte-identical across runs",
          outputs[0] == outputs[1])
