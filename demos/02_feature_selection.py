"""Score every feature combination and pick the best one.

Builds per-setting mean features over a synthetic marketplace, prints
the absolute Pearson correlation matrix, and ranks all 15 non-empty
feature subsets by relevance-minus-redundancy.
"""

import numpy as np

from perfest.evaluation import task_performance
from perfest.feature_selection import rank_combinations
from perfest.features import FeatureKind, extract_task_features
from perfest.services import MarketplaceConfig, synth_marketplace


def main():
    config = MarketplaceConfig(n_services=3, n_tasks=8, samples_per_task=150,
                               contexts_per_task=4, feature_fidelity=0.9,
                               seed=1)
    _, _, store = synth_marketplace(config)

    kinds = tuple(FeatureKind)
    table = {k: [] for k in kinds}
    performance = []
    for key in store.keys():
        batch = store.get(*key)
        features = extract_task_features(batch, kinds)
        for k in kinds:
            table[k].append(float(np.mean(features[k])))
        performance.append(task_performance(batch))

    scored, corr = rank_combinations(table, performance)

    print("absolute correlation matrix:")
    print("".rjust(9) + "".join(l.rjust(9) for l in corr.labels))
    for i, label in enumerate(corr.labels):
        print(label.rjust(9) +
              "".join(f"{v:9.3f}" for v in corr.values[i]))

    print("\nranked combinations (score = relevance - redundancy):")
    for subset, score in scored:
        names = "+".join(sorted(k.value for k in subset))
        print(f"  {score:8.4f}  {names}")

    best = "+".join(sorted(k.value for k in scored[0][0]))
    print(f"\nselected combination: {best}")


if __name__ == "__main__":
    main()
