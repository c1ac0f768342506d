"""Fixed-dimension feature profiles.

A task yields one feature value per sample, so different tasks produce
lists of different lengths. To feed a fixed-size regressor, each list is
sorted ascending (an empirical quantile curve) and linearly interpolated
down (or up) to d points: position p = |D| * n / d for n = 1..d, with
floor/ceil indices clamped into [1, |D|] and a fractional convex weight.
Sorting makes the profile invariant to sample order, which is arbitrary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import as_batch
from .errors import EmptyProfileError, ShapeError
from .features import FeatureKind, extract_task_features

DEFAULT_KINDS = (FeatureKind.NLL, FeatureKind.PPL)
DEFAULT_DIMS = 100


def interpolate_profile(values, d: int):
    """Sort values and interpolate to exactly d points (1-indexed positions).

    Returns a python list of length d, non-decreasing, bounded by
    min(values) and max(values). Exact at integral positions, so
    d == len(values) reproduces the sorted input.
    """
    if d < 1:
        raise ValueError(f"profile dimension must be >= 1, got {d}")
    v = np.sort(np.asarray(list(values), dtype=float))
    m = v.shape[0]
    if m == 0:
        raise EmptyProfileError("cannot build a profile from zero values")
    n = np.arange(1, d + 1, dtype=float)
    p = m * n / d
    lo = np.clip(np.floor(p).astype(int), 1, m)
    hi = np.clip(np.ceil(p).astype(int), 1, m)
    frac = p - np.floor(p)
    out = v[lo - 1] * (1.0 - frac) + v[hi - 1] * frac
    # when clamping collapses both neighbors onto one entry, return it
    # exactly instead of the rounded convex combination
    out = np.where(lo == hi, v[lo - 1], out)
    return out.tolist()


@dataclass(frozen=True)
class FeatureProfile:
    """Concatenated per-kind quantile profiles for one (service, task,
    context) triple; the meta-model input vector."""

    service_id: str
    task_id: str
    context_id: str
    kinds: tuple  # ordered FeatureKind
    dims: int
    vector: tuple  # length len(kinds) * dims

    def __post_init__(self):
        if len(self.vector) != len(self.kinds) * self.dims:
            raise ShapeError(
                f"vector length {len(self.vector)} != "
                f"{len(self.kinds)} * {self.dims}")

    def segment(self, kind):
        """The slice of the vector belonging to one feature kind."""
        i = self.kinds.index(FeatureKind(kind))
        return self.vector[i * self.dims:(i + 1) * self.dims]


def build_profile(setting, kinds=DEFAULT_KINDS, d=DEFAULT_DIMS,
                  ppl_mode="normalized", table=None) -> FeatureProfile:
    """Extract per-sample features of a SettingBatch (or records of one
    setting) and concatenate interpolated profiles in `kinds` order.

    `table` is the setting's extract_task_features output, if the caller
    already has it.
    """
    kinds = tuple(FeatureKind(k) for k in kinds)
    if not kinds:
        raise ValueError("kinds must be non-empty")
    batch = as_batch(setting)
    if table is None:
        table = extract_task_features(batch, kinds, ppl_mode=ppl_mode)
    vector = []
    for kind in kinds:
        vector.extend(interpolate_profile(table[kind], d))
    service_id, task_id, context_id = batch.key
    return FeatureProfile(service_id=service_id, task_id=task_id,
                          context_id=context_id, kinds=kinds, dims=d,
                          vector=tuple(vector))


def write_profiles(profiles, path):
    """Profile cache: one JSON object per line."""
    with open(path, "w", encoding="utf-8") as f:
        for pr in profiles:
            obj = {"service_id": pr.service_id, "task_id": pr.task_id,
                   "context_id": pr.context_id,
                   "kinds": [k.value for k in pr.kinds],
                   "dims": pr.dims, "vector": list(pr.vector)}
            f.write(json.dumps(obj))
            f.write("\n")


def read_profiles(path):
    profiles = []
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            raw = raw.strip()
            if not raw:
                continue
            obj = json.loads(raw)
            profiles.append(FeatureProfile(
                service_id=obj["service_id"], task_id=obj["task_id"],
                context_id=obj["context_id"],
                kinds=tuple(FeatureKind(k) for k in obj["kinds"]),
                dims=int(obj["dims"]), vector=tuple(obj["vector"])))
    return profiles
