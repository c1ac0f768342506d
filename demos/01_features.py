"""Extract the four confidence features from synthetic service outputs.

Generates a tiny marketplace, then shows per-sample NLL, PPL, GAP and
MaxEnt for one (service, task, context) setting, together with the
setting's true token-overlap F1.
"""

import numpy as np

from perfest.evaluation import task_performance
from perfest.features import FeatureKind, extract_task_features
from perfest.services import MarketplaceConfig, synth_marketplace


def main():
    config = MarketplaceConfig(n_services=2, n_tasks=2, samples_per_task=200,
                               contexts_per_task=2, feature_fidelity=0.9,
                               seed=0)
    _, _, store = synth_marketplace(config)

    kinds = tuple(FeatureKind)
    print("setting                      F1     mean nll  mean ppl  "
          "mean gap  mean max_ent")
    for key in store.keys():
        batch = store.get(*key)
        table = extract_task_features(batch, kinds)
        f1 = task_performance(batch)
        means = [float(np.mean(table[k])) for k in kinds]
        name = "/".join(key)
        print(f"{name:<26} {f1:6.3f}  " +
              "  ".join(f"{m:8.3f}" for m in means))

    print("\nlow NLL/PPL and high GAP go with high F1: the service is")
    print("confident exactly where it is actually right.")


if __name__ == "__main__":
    main()
