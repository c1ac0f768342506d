"""Compare the four profile-to-performance regressors.

Builds labeled (profile, F1) rows from a synthetic marketplace and
cross-validates KNN, MLP, random forest and gradient boosted trees, with
folds grouped by task, on the task of estimating a setting's F1 from its
feature profile alone.
"""

import numpy as np

from perfest.evaluation import kfold_split, task_performance
from perfest.metamodels import (
    ModelKind,
    ModelSpec,
    TrainingRow,
    grid_search,
    predict_many,
    train,
)
from perfest.profile import build_profile
from perfest.services import MarketplaceConfig, synth_marketplace


def main():
    config = MarketplaceConfig(n_services=4, n_tasks=8, samples_per_task=150,
                               contexts_per_task=4, feature_fidelity=0.9,
                               seed=3)
    _, _, store = synth_marketplace(config)
    rows = [TrainingRow(profile=build_profile(store.get(*key), d=40),
                        target=task_performance(store.get(*key)))
            for key in store.keys()]
    print(f"{len(rows)} labeled settings")

    specs = [
        ModelSpec(ModelKind.KNN, {"k": 3}),
        ModelSpec(ModelKind.MLP, {"hidden_width": 32, "epochs": 800}),
        ModelSpec(ModelKind.RANDOM_FOREST, {"max_depth": 8, "n_trees": 50}),
        ModelSpec(ModelKind.GBT, {"max_depth": 4, "n_rounds": 100}),
    ]
    splits = kfold_split([row.profile.task_id for row in rows], folds=5,
                         seed=0)
    print("\n5-fold task-grouped cross-validated MAE (x100):")
    for spec in specs:
        errors = []
        for train_idx, test_idx in splits:
            model = train(spec, [rows[i] for i in train_idx], seed=0)
            preds = predict_many(model,
                                 [rows[i].profile for i in test_idx])
            truth = np.array([rows[i].target for i in test_idx])
            errors.extend(np.abs(preds - truth).tolist())
        print(f"  {spec.kind.value:<14} {100 * np.mean(errors):6.2f}")

    best = grid_search(ModelKind.KNN, {"k": [1, 3, 5, 9]}, rows,
                       folds=5, seed=0)
    print(f"\ngrid search over k for KNN picked k={best.hyperparams['k']}")


if __name__ == "__main__":
    main()
