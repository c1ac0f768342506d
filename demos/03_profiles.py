"""Turn variable-length feature lists into fixed-dimension profiles.

A profile sorts a setting's per-sample feature values and reads them
off at d evenly spaced quantile positions, so settings with different
sample counts become comparable vectors. This script shows the same
setting profiled at several dimensions and a crude text rendering of
the quantile curve.
"""

import numpy as np

from perfest.features import FeatureKind
from perfest.profile import build_profile, interpolate_profile
from perfest.services import MarketplaceConfig, synth_marketplace


def sparkline(values, width=60):
    v = np.asarray(values)
    lo, hi = v.min(), v.max()
    if hi == lo:
        return "-" * width
    bars = " .:-=+*#%@"
    idx = ((v - lo) / (hi - lo) * (len(bars) - 1)).astype(int)
    step = max(1, len(v) // width)
    return "".join(bars[i] for i in idx[::step])


def main():
    config = MarketplaceConfig(n_services=1, n_tasks=1, samples_per_task=400,
                               contexts_per_task=1, seed=2)
    _, _, store = synth_marketplace(config)
    batch = store.get("svc00", "task00", "ctx00")

    print("same 400-sample setting at different profile dimensions:")
    for d in (5, 10, 100):
        profile = build_profile(batch, kinds=(FeatureKind.NLL,), d=d)
        head = ", ".join(f"{x:.3f}" for x in profile.vector[:5])
        print(f"  d={d:<4} first entries: [{head}{', ...' if d > 5 else ''}]")

    profile = build_profile(batch,
                            kinds=(FeatureKind.NLL, FeatureKind.PPL), d=100)
    print("\nquantile curves (low -> high):")
    for kind in profile.kinds:
        print(f"  {kind.value:<8} {sparkline(profile.segment(kind))}")

    print("\ninterpolation handles any |D| vs d mismatch:")
    print("  values [3, 1, 4, 2] at d=4 ->",
          interpolate_profile([3, 1, 4, 2], 4).tolist())
    print("  values [1, 2, 3, 4] at d=2 ->",
          interpolate_profile([1, 2, 3, 4], 2).tolist())
    print("  values [10]         at d=3 ->",
          interpolate_profile([10], 3).tolist())


if __name__ == "__main__":
    main()
