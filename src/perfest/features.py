"""Per-sequence token-probability features.

Four features are computed per sample:

* nll      -- negative log-likelihood of the generated answer (sum of
              -ln p_top1 over steps); lower means more confident.
* ppl      -- perplexity of the input reconstruction; lower means the
              service is more familiar with the input text.
* gap      -- summed margin between the top-1 and top-2 candidate
              probabilities; higher means more decisive.
* max_ent  -- maximum per-step Shannon entropy (natural log) of the
              truncated-and-renormalized top-k distribution; lower means
              more certain.

Each feature has one implementation, over a SettingBatch: it returns one
value per sample. Given a single InvocationRecord it returns that
record's float, computed by the same code on a one-record batch. The
arithmetic is the per-record loop's: math.log and math.exp apply
elementwise, and each sample's steps accumulate left to right from 0.0
(never numpy's pairwise sum), so values are bit-for-bit those of a plain
Python loop over the record.

Probabilities below 1e-12 are rejected outright rather than floored:
real APIs never return exact zeros for chosen tokens, so a zero here is
an upstream bug worth surfacing.
"""

from __future__ import annotations

import functools
import math
from enum import Enum

import numpy as np

from .core import (InvocationRecord, SettingBatch, as_batch, ordered_sum,
                   padded_rows)
from .errors import (CapabilityError, DegenerateProbabilityError,
                     ValidationError)

PROB_FLOOR = 1e-12


class FeatureKind(str, Enum):
    NLL = "nll"
    PPL = "ppl"
    GAP = "gap"
    MAXENT = "max_ent"


def sample_features(record: InvocationRecord, kinds=None, ppl_mode="normalized"):
    """All requested features for one record, as {FeatureKind: value}."""
    kinds = list(FeatureKind) if kinds is None else [FeatureKind(k) for k in kinds]
    out = {}
    for kind in kinds:
        if kind is FeatureKind.PPL:
            out[kind] = ppl(record, mode=ppl_mode)
        else:
            out[kind] = _EXTRACTORS[kind](record)
    return out


def _per_sample(fn):
    """Let a batch feature take one record, returning that record's float.

    A SettingBatch, or records of one setting, give one value per sample.
    """
    @functools.wraps(fn)
    def feature(setting, *args, **kwargs):
        if isinstance(setting, InvocationRecord):
            batch = SettingBatch.from_records([setting])
            return float(fn(batch, *args, **kwargs)[0])
        return fn(as_batch(setting), *args, **kwargs)
    return feature


_MATH_LOG = np.frompyfunc(math.log, 1, 1)
_MATH_EXP = np.frompyfunc(math.exp, 1, 1)


def _log(values):
    return _MATH_LOG(values).astype(float)


def _exp(values):
    return _MATH_EXP(values).astype(float)


def _sum_negated(values, offsets):
    """Per-row ((0.0 - v1) - v2) - ..., in order."""
    return np.subtract.accumulate(padded_rows(values, offsets), axis=1)[:, -1]


def _require_steps(batch: SettingBatch):
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


@_per_sample
def nll(batch: SettingBatch):
    """Sum of -ln(top-1 probability) over the generated steps."""
    _require_steps(batch)
    top1 = batch.top1
    _require_floor(batch, top1, batch.step_offsets, "top probability")
    return _sum_negated(_log(top1), batch.step_offsets)


@_per_sample
def ppl(batch: SettingBatch, mode: str = "normalized"):
    """Input-reconstruction perplexity.

    mode="normalized" (default) returns exp(mean of -ln score), which is
    comparable across input lengths. mode="summed" returns exp(sum),
    the unnormalized exponentiated reconstruction loss.
    """
    if mode not in ("normalized", "summed"):
        raise ValueError(f"unknown ppl mode {mode!r}")
    lengths = np.diff(batch.score_offsets)
    if not (batch.has_scores.all() and lengths.all()):
        raise CapabilityError(
            "record has no input_scores; PPL requires a service with "
            "input-scoring capability")
    _require_floor(batch, batch.scores, batch.score_offsets, "input score")
    total = _sum_negated(_log(batch.scores), batch.score_offsets)
    if mode == "normalized":
        total = total / lengths
    return _exp(total)


@_per_sample
def gap(batch: SettingBatch):
    """Summed (p_top1 - p_top2) over steps; p_top2 is 0 when k == 1."""
    _require_steps(batch)
    return ordered_sum(batch.top1 - batch.top2, batch.step_offsets)


@_per_sample
def max_ent(batch: SettingBatch):
    """Maximum per-step entropy of the renormalized top-k distribution.

    The full vocabulary distribution is unavailable from a black-box
    service, so the truncated top-k mass is renormalized to 1; this
    biases the entropy downward, which is acceptable since only relative
    comparisons are consumed downstream.
    """
    _require_steps(batch)
    probs, offsets = batch.cand_probs, batch.cand_offsets
    mass = ordered_sum(probs, offsets)
    if np.any(mass < PROB_FLOOR):
        raise DegenerateProbabilityError(
            "step has no probability mass to renormalize")
    q = probs / np.repeat(mass, np.diff(offsets))
    terms = np.zeros(len(q))
    live = q > 0.0
    terms[live] = q[live] * _log(q[live])
    entropy = _sum_negated(terms, offsets)
    return np.maximum.reduceat(entropy, batch.step_offsets[:-1])


_EXTRACTORS = {
    FeatureKind.NLL: nll,
    FeatureKind.PPL: ppl,
    FeatureKind.GAP: gap,
    FeatureKind.MAXENT: max_ent,
}


def extract_task_features(setting, kinds, ppl_mode: str = "normalized"):
    """Compute one value per sample for each requested feature kind.

    `setting` is a SettingBatch or records that share (service_id,
    task_id, context_id). Returns a dict FeatureKind -> list of floats in
    sample order.
    """
    batch = as_batch(setting)
    out = {}
    for kind in kinds:
        kind = FeatureKind(kind)
        if kind is FeatureKind.PPL:
            out[kind] = ppl(batch, mode=ppl_mode).tolist()
        else:
            out[kind] = _EXTRACTORS[kind](batch).tolist()
    return out


@_per_sample
def sequence_confidence(batch: SettingBatch, nll_values=None):
    """Length-normalized sequence likelihood exp(-nll/|x|), in (0, 1].

    Used as the per-sample confidence for threshold-based baselines.
    ``nll_values`` are the batch's per-sample NLL if already computed.
    """
    if nll_values is None:
        nll_values = nll(batch)
    return _exp(-np.asarray(nll_values, dtype=float)
                / np.diff(batch.step_offsets))
