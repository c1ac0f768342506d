"""Two downstream uses of the estimator.

1. Setting selection: among service x context candidates for a new
   task, pick the one with the highest estimated F1 and compare the
   choice against ground truth.
2. Fine-tune targeting: rank services by estimated performance on a
   hard task; higher estimates indicate more headroom realized by the
   marketplace's simulated fine-tune.
"""

import numpy as np

from perfest.applications import (
    candidates_from_model,
    rank_finetune_targets,
    select_setting,
)
from perfest.evaluation import task_performance
from perfest.metamodels import (
    ModelKind,
    ModelSpec,
    TrainingRow,
    predict_many,
    train,
)
from perfest.profile import build_profile
from perfest.services import (
    MarketplaceConfig,
    marketplace_truth,
    synth_marketplace,
)


def main():
    config = MarketplaceConfig(n_services=5, n_tasks=6, samples_per_task=200,
                               contexts_per_task=10, feature_fidelity=0.9,
                               seed=5)
    _, _, store = synth_marketplace(config)
    target_task = config.task_id(config.n_tasks - 1)

    # train on every task except the target
    rows = []
    for key in store.keys():
        if key[1] == target_task:
            continue
        batch = store.get(*key)
        rows.append(TrainingRow(profile=build_profile(batch, d=60),
                                target=task_performance(batch)))
    spec = ModelSpec(ModelKind.RANDOM_FOREST, {"max_depth": 8, "n_trees": 50})
    model = train(spec, rows, seed=0)

    # scenario 1: pick the best (service, context) for the target task
    cand_keys = [k for k in store.keys() if k[1] == target_task]
    profiles = [build_profile(store.get(*k), d=60) for k in cand_keys]
    truths = {k: task_performance(store.get(*k)) for k in cand_keys}
    candidates = candidates_from_model(model, profiles)
    best = select_setting(candidates)
    chosen = truths[(best.service_id, target_task, best.context_id)]
    print(f"scenario 1: {len(candidates)} candidate settings "
          f"for {target_task}")
    print(f"  selected {best.service_id}/{best.context_id}  "
          f"estimate={best.estimate:.3f}  true={chosen:.3f}")
    print(f"  mean true F1 over all candidates: "
          f"{np.mean(list(truths.values())):.3f}")
    print(f"  best possible:                    "
          f"{max(truths.values()):.3f}")

    # scenario 2: which service gains most from a fine-tune?
    truth = marketplace_truth(config)
    estimates = {}
    for i in range(config.n_services):
        sid = config.service_id(i)
        profs = [p for p, k in zip(profiles, cand_keys) if k[0] == sid]
        estimates[sid] = float(np.mean(predict_many(model, profs)))
    ranking = rank_finetune_targets(estimates)
    j = config.n_tasks - 1
    print(f"\nscenario 2: fine-tune ranking for {target_task}")
    print("  rank  service  estimate  simulated gain")
    for r, sid in enumerate(ranking, start=1):
        i = int(sid.removeprefix("svc"))
        diff = np.mean([truth.simulated_finetune_diff(i, j, k)
                        for k in range(config.contexts_per_task)])
        print(f"  {r:<5} {sid:<8} {estimates[sid]:8.3f}  {diff:8.3f}")


if __name__ == "__main__":
    main()
