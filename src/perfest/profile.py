"""Fixed-dimension feature profiles.

A task yields one feature value per sample, so different tasks produce
lists of different lengths. To feed a fixed-size regressor, each list is
sorted ascending (an empirical quantile curve) and linearly interpolated
down (or up) to d points: position p = |D| * n / d for n = 1..d, with
floor/ceil indices clamped into [1, |D|] and a fractional convex weight.
Sorting makes the profile invariant to sample order, which is arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, EmptyProfileError, ShapeError,
                     is_int)
from .features import FeatureKind, extract_task_features

DEFAULT_KINDS = (FeatureKind.NLL, FeatureKind.PPL)
DEFAULT_DIMS = 100
# the most points a profile may have: ten times the 400 samples of a
# criterion-5 setting, past which a profile only repeats interpolations
# between its samples while every setting's profile grows by d floats
MAX_DIMS = 4096


def interpolate_profile(values, d: int):
    """Sort values and interpolate to exactly d points (1-indexed positions).

    Returns a float64 array of length d, non-decreasing, bounded by
    min(values) and max(values). Exact at integral positions, so
    d == len(values) reproduces the sorted input. ShapeError unless d is
    an integer in [1, MAX_DIMS], before any array is made.
    """
    if not is_int(d, 1, MAX_DIMS):
        raise ShapeError(f"profile dimension must be an integer in "
                         f"[1, {MAX_DIMS}], got {d!r}")
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
    return np.where(lo == hi, v[lo - 1], out)


@dataclass(frozen=True, eq=False)
class FeatureProfile:
    """Concatenated per-kind quantile profiles for one (service, task,
    context) triple; the meta-model input vector. ``vector`` is a
    read-only float64 array (a tuple, list or writable array is copied
    into one). Two profiles are equal when their ids, kinds, dims and
    values are."""

    service_id: str
    task_id: str
    context_id: str
    kinds: tuple  # ordered FeatureKind
    dims: int
    vector: np.ndarray  # length len(kinds) * dims

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=float)
        if vector.flags.writeable:  # a read-only array is held uncopied
            vector = vector.copy()
            vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)
        if vector.shape != (len(self.kinds) * self.dims,):
            raise ShapeError(
                f"vector shape {vector.shape} != "
                f"({len(self.kinds)} * {self.dims},)")

    def _ids(self):
        return (self.service_id, self.task_id, self.context_id,
                tuple(self.kinds), self.dims)

    def __eq__(self, other):
        if not isinstance(other, FeatureProfile):
            return NotImplemented
        return (self._ids() == other._ids()
                and np.array_equal(self.vector, other.vector))

    def __hash__(self):
        return hash(self._ids())

    def segment(self, kind):
        """The slice of the vector belonging to one feature kind."""
        i = self.kinds.index(FeatureKind(kind))
        return self.vector[i * self.dims:(i + 1) * self.dims]


def build_profile(batch, kinds=DEFAULT_KINDS, d=DEFAULT_DIMS,
                  table=None) -> FeatureProfile:
    """Extract per-sample features of a SettingBatch and concatenate
    interpolated profiles in `kinds` order.

    `table` is the setting's extract_task_features output, if the caller
    already has it.
    """
    kinds = tuple(FeatureKind(k) for k in kinds)
    if not kinds:
        raise ConfigurationError("a profile needs at least one feature kind")
    if table is None:
        table = extract_task_features(batch, kinds)
    vector = np.concatenate([interpolate_profile(table[kind], d)
                             for kind in kinds])
    service_id, task_id, context_id = batch.key
    return FeatureProfile(service_id=service_id, task_id=task_id,
                          context_id=context_id, kinds=kinds, dims=d,
                          vector=vector)
