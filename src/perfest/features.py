"""Per-sequence token-probability features.

Four features are computed per sample:

* nll      -- negative log-likelihood of the generated answer (sum of
              -ln p_top1 over steps); lower means more confident.
* ppl      -- perplexity of the input reconstruction, exp(mean of
              -ln score) over the input tokens; lower means the service
              is more familiar with the input text.
* gap      -- summed margin between the top-1 and top-2 candidate
              probabilities; higher means more decisive.
* max_ent  -- maximum per-step Shannon entropy (natural log) of the
              truncated-and-renormalized top-k distribution; lower means
              more certain.

Each feature takes a SettingBatch and returns one value per sample. The
arithmetic is the per-record loop's: math.log and math.exp apply
elementwise, and each sample's steps accumulate left to right from 0.0
(never numpy's pairwise sum; a negated sum adds the negated values, which
IEEE arithmetic makes exactly the running subtraction), so values are
bit-for-bit those of a plain Python loop over the record.

Probabilities below 1e-12 are rejected outright rather than floored:
real APIs never return exact zeros for chosen tokens, so a zero here is
an upstream bug worth surfacing.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import SettingBatch, ordered_sum
from .errors import (CapabilityError, DegenerateProbabilityError,
                     ValidationError)

PROB_FLOOR = 1e-12


class FeatureKind(str, Enum):
    NLL = "nll"
    PPL = "ppl"
    GAP = "gap"
    MAXENT = "max_ent"


_MATH_LOG = np.frompyfunc(math.log, 1, 1)
_MATH_EXP = np.frompyfunc(math.exp, 1, 1)


def _log(values):
    return _MATH_LOG(values).astype(float)


def _exp(values):
    return _MATH_EXP(values).astype(float)


def _check_steps(batch: SettingBatch):
    empty = np.flatnonzero(np.diff(batch.step_offsets) == 0)
    if empty.size:
        raise ValidationError(
            f"record {batch.sample_ids[empty[0]]!r} has no output steps",
            field="output_steps")


def _require_floor(batch, values, offsets, what):
    low = np.flatnonzero(values < PROB_FLOOR)
    if low.size:
        sample = np.searchsorted(offsets, low[0], side="right") - 1
        raise DegenerateProbabilityError(
            f"{what} {float(values[low[0]])!r} below {PROB_FLOOR} in sample "
            f"{batch.sample_ids[sample]!r}")


def nll(batch: SettingBatch):
    """Sum of -ln(top-1 probability) over the generated steps."""
    _check_steps(batch)
    top1 = batch.top1
    _require_floor(batch, top1, batch.step_offsets, "top probability")
    return ordered_sum(-_log(top1), batch.step_offsets)


def ppl(batch: SettingBatch):
    """Input-reconstruction perplexity: exp(mean of -ln score), a
    per-token quantity comparable across input lengths."""
    lengths = np.diff(batch.score_offsets)
    if not (batch.has_scores.all() and lengths.all()):
        raise CapabilityError(
            "record has no input_scores; PPL requires a service with "
            "input-scoring capability")
    _require_floor(batch, batch.scores, batch.score_offsets, "input score")
    total = ordered_sum(-_log(batch.scores), batch.score_offsets)
    return _exp(total / lengths)


def gap(batch: SettingBatch):
    """Summed (p_top1 - p_top2) over steps; p_top2 is 0 when k == 1."""
    _check_steps(batch)
    return ordered_sum(batch.top1 - batch.top2, batch.step_offsets)


def max_ent(batch: SettingBatch):
    """Maximum per-step entropy of the renormalized top-k distribution.

    The full vocabulary distribution is unavailable from a black-box
    service, so the truncated top-k mass is renormalized to 1; this
    biases the entropy downward, which is acceptable since only relative
    comparisons are consumed downstream.
    """
    _check_steps(batch)
    probs, offsets = batch.cand_probs, batch.cand_offsets
    mass = ordered_sum(probs, offsets)
    if np.any(mass < PROB_FLOOR):
        raise DegenerateProbabilityError(
            "step has no probability mass to renormalize")
    q = probs / np.repeat(mass, np.diff(offsets))
    terms = np.zeros(len(q))
    live = q > 0.0
    terms[live] = q[live] * _log(q[live])
    entropy = ordered_sum(-terms, offsets)
    return np.maximum.reduceat(entropy, batch.step_offsets[:-1])


_EXTRACTORS = {
    FeatureKind.NLL: nll,
    FeatureKind.PPL: ppl,
    FeatureKind.GAP: gap,
    FeatureKind.MAXENT: max_ent,
}


def extract_task_features(batch: SettingBatch, kinds):
    """Compute one value per sample of the batch for each requested
    feature kind. Returns a dict FeatureKind -> list of floats in sample
    order.
    """
    return {kind: _EXTRACTORS[kind](batch).tolist()
            for kind in map(FeatureKind, kinds)}


def sequence_confidence(batch: SettingBatch, nll_values=None):
    """Length-normalized sequence likelihood exp(-nll/|x|), in (0, 1].

    Used as the per-sample confidence for threshold-based baselines.
    ``nll_values`` are the batch's per-sample NLL if already computed.
    """
    if nll_values is None:
        nll_values = nll(batch)
    return _exp(-np.asarray(nll_values, dtype=float)
                / np.diff(batch.step_offsets))
