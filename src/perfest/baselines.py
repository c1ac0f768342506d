"""Label-relevant baseline estimators.

* sample_n_estimate (Sample^n) -- label n seeded random samples of each
  context of the target task and average their F1.
* avg_train_estimate -- mean performance over all labeled settings.
* ATC -- per labeled setting, calibrate a confidence threshold so the
  fraction of confidences above it matches the labeled accuracy, apply
  each threshold to the target task's unlabeled confidences, and average
  the resulting fractions.

Confidence is the length-normalized sequence likelihood exp(-nll/|x|),
bounded in (0, 1] and monotone in NLL.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, is_int
from .seeding import derive_rng


def sample_n_estimate(f1s, n: int, seed: int) -> float:
    """Mean F1 of n labeled samples per context, averaged over contexts.

    `f1s` maps each (service_id, task_id, context_id) of one target task
    to the per-sample F1 of every sample of that setting. A setting's n
    samples are the first n of derive_rng(seed, "samplen", *key)'s
    permutation of its samples.
    """
    if not is_int(n, 1):
        raise InsufficientDataError(f"n must be an integer >= 1, got {n!r}")
    if not f1s:
        raise InsufficientDataError("no contexts given")
    means = []
    for key, f1 in f1s.items():
        f1 = np.asarray(f1, dtype=float)
        if len(f1) < n:
            raise InsufficientDataError(
                f"setting {key} has {len(f1)} labeled samples, need {n}")
        order = derive_rng(seed, "samplen", *key).permutation(len(f1))
        means.append(float(np.mean(f1[order[:n]])))
    return float(np.mean(means))


def avg_train_estimate(training_performances) -> float:
    """Arithmetic mean of per-setting performances on labeled tasks."""
    perfs = list(training_performances)
    if not perfs:
        raise InsufficientDataError("no training performances")
    return sum(perfs) / len(perfs)


def _fractions_above(sorted_confidences: np.ndarray, thresholds) -> np.ndarray:
    """Fraction of confidences strictly above each threshold."""
    m = sorted_confidences.shape[0]
    above = m - np.searchsorted(sorted_confidences, thresholds, side="right")
    return above / m


def atc_calibrate(confidences, correctness) -> float:
    """The threshold whose fraction-above best matches mean correctness.

    Candidates are a sentinel below the minimum confidence, the midpoints
    between consecutive distinct confidences, and the maximum confidence;
    ties resolve to the smallest threshold.
    """
    confidences = np.asarray(list(confidences), dtype=float)
    correctness = list(correctness)
    if confidences.size == 0 or confidences.size != len(correctness):
        raise InsufficientDataError(
            "need equal-length, non-empty confidence and correctness lists")
    accuracy = sum(correctness) / len(correctness)
    uniques = np.unique(confidences)
    candidates = np.concatenate([[uniques[0] - 1.0],
                                 0.5 * (uniques[:-1] + uniques[1:]),
                                 [uniques[-1]]])
    errs = np.abs(_fractions_above(np.sort(confidences), candidates)
                  - accuracy)
    best = int(np.argmin(errs))  # argmin takes the first, i.e. smallest t
    return float(candidates[best])


def atc_estimate(thresholds, target_confidences) -> float:
    """Mean, over calibrated thresholds, of the fraction of target
    confidences above each threshold."""
    thresholds = np.asarray(list(thresholds), dtype=float)
    target = np.sort(np.asarray(list(target_confidences), dtype=float))
    if thresholds.size == 0 or target.size == 0:
        raise InsufficientDataError(
            "need at least one threshold and one target confidence")
    return float(np.mean(_fractions_above(target, thresholds)))
