"""Per-sequence confidence features: NLL, PPL, GAP, MaxEnt."""

import math

import numpy as np
import pytest

from perfest.core import InvocationRecord, SettingBatch, TokenStep
from perfest.errors import (
    CapabilityError,
    DegenerateProbabilityError,
    GroupingError,
    ValidationError,
)
from perfest.features import (
    FeatureKind,
    extract_task_features,
    gap,
    max_ent,
    nll,
    ppl,
    sequence_confidence,
)

REL_TOL = 1e-9


def one(fn, rec):
    """A batch feature's value for one record."""
    return float(fn(SettingBatch.from_records([rec]))[0])


def record_from_steps(steps, input_scores=None, ids=None):
    sid, tid, cid, smp = ids or ("svc00", "task00", "ctx00", "s0000")
    return InvocationRecord(
        service_id=sid, task_id=tid, context_id=cid, sample_id=smp,
        input_text="in", generated_text="out",
        output_steps=tuple(steps), input_scores=input_scores)


def steps_from_top1(probs):
    return [TokenStep("t%d" % i, (("t%d" % i, p),)) for i, p in enumerate(probs)]


def random_record(rng, n_steps=None, ids=None):
    n_steps = n_steps or int(rng.integers(1, 9))
    steps = []
    for t in range(n_steps):
        k = int(rng.integers(1, 6))
        raw = rng.uniform(0.05, 1.0, size=k)
        raw = np.sort(raw / raw.sum() * rng.uniform(0.3, 1.0))[::-1]
        pairs = tuple(("tok%d_%d" % (t, j), float(p)) for j, p in enumerate(raw))
        steps.append(TokenStep("tok%d_0" % t, pairs))
    scores = tuple(float(s) for s in rng.uniform(0.05, 1.0, size=5))
    return record_from_steps(steps, input_scores=scores, ids=ids)


# independent brute-force implementations used as oracles

def naive_nll(rec):
    return sum(-math.log(s.top_probs[0][1]) for s in rec.output_steps)


def naive_ppl_normalized(rec):
    losses = [-math.log(p) for p in rec.input_scores]
    return math.exp(sum(losses) / len(losses))


def naive_gap(rec):
    total = 0.0
    for s in rec.output_steps:
        p1 = s.top_probs[0][1]
        p2 = s.top_probs[1][1] if len(s.top_probs) > 1 else 0.0
        total += p1 - p2
    return total


def naive_max_ent(rec):
    best = 0.0
    for s in rec.output_steps:
        probs = [p for _, p in s.top_probs]
        z = sum(probs)
        ent = -sum((p / z) * math.log(p / z) for p in probs)
        best = max(best, ent)
    return best


# --- exact example values ---

def test_nll_certain_steps_is_zero():
    rec = record_from_steps(steps_from_top1([1.0, 1.0, 1.0]))
    assert one(nll, rec) == 0.0


def test_nll_halving_probs():
    rec = record_from_steps(steps_from_top1([0.5, 0.25, 0.125]))
    expected = math.log(2) + math.log(4) + math.log(8)
    assert one(nll, rec) == pytest.approx(expected, rel=REL_TOL)
    assert one(nll, rec) == pytest.approx(4.1588830834, abs=1e-9)


def test_nll_single_step_exp_minus_one():
    rec = record_from_steps(steps_from_top1([math.exp(-1.0)]))
    assert one(nll, rec) == pytest.approx(1.0, rel=REL_TOL)


def test_ppl_certain_input_is_one():
    for n in (1, 3, 10):
        rec = record_from_steps(steps_from_top1([0.9]),
                                input_scores=tuple([1.0] * n))
        assert one(ppl, rec) == pytest.approx(1.0, rel=REL_TOL)


def test_ppl_two_scores_e_inverse():
    rec = record_from_steps(steps_from_top1([0.9]),
                            input_scores=(math.exp(-1.0), math.exp(-1.0)))
    assert one(ppl, rec) == pytest.approx(math.e, rel=REL_TOL)


def test_ppl_single_half_score():
    rec = record_from_steps(steps_from_top1([0.9]), input_scores=(0.5,))
    assert one(ppl, rec) == pytest.approx(2.0, rel=REL_TOL)


def test_ppl_requires_input_scores():
    rec = record_from_steps(steps_from_top1([0.9]))
    with pytest.raises(CapabilityError):
        one(ppl, rec)


def test_gap_deterministic_steps():
    rec = record_from_steps(steps_from_top1([1.0] * 5))
    assert one(gap, rec) == pytest.approx(5.0, rel=REL_TOL)


def test_gap_single_step_with_runner_up():
    rec = record_from_steps([TokenStep("a", (("a", 0.9), ("b", 0.05)))])
    assert one(gap, rec) == pytest.approx(0.85, rel=REL_TOL)


def test_gap_symmetric_ties():
    steps = [TokenStep("a", (("a", 0.5), ("b", 0.5))) for _ in range(2)]
    assert one(gap, record_from_steps(steps)) == pytest.approx(0.0,
                                                               abs=1e-12)


def test_max_ent_deterministic_is_zero():
    rec = record_from_steps(steps_from_top1([1.0, 1.0]))
    assert one(max_ent, rec) == 0.0


def test_max_ent_uniform_four():
    steps = steps_from_top1([1.0, 1.0])
    steps.append(TokenStep("u", tuple(("u%d" % i, 0.25) for i in range(4))))
    assert one(max_ent, record_from_steps(steps)) == pytest.approx(
        math.log(4), rel=REL_TOL)
    assert one(max_ent, record_from_steps(steps)) == pytest.approx(
        1.3862943611, abs=1e-9)


def test_max_ent_takes_maximum_over_steps():
    two = TokenStep("a", (("a", 0.5), ("b", 0.5)))
    three = TokenStep("c", (("c", 0.2), ("d", 0.2), ("e", 0.2)))
    rec = record_from_steps([two, three])
    assert one(max_ent, rec) == pytest.approx(math.log(3), rel=REL_TOL)
    assert one(max_ent, rec) == pytest.approx(1.0986122887, abs=1e-9)


def test_max_ent_renormalizes_partial_top_k():
    # top-k covering only 60% of mass still yields the entropy of the
    # renormalized restriction
    step = TokenStep("a", (("a", 0.3), ("b", 0.3)))
    assert one(max_ent, record_from_steps([step])) == pytest.approx(
        math.log(2), rel=REL_TOL)


def test_empty_steps_rejected():
    rec = record_from_steps(steps_from_top1([0.5]))
    bare = InvocationRecord(
        service_id=rec.service_id, task_id=rec.task_id,
        context_id=rec.context_id, sample_id=rec.sample_id,
        input_text=rec.input_text, generated_text=rec.generated_text,
        output_steps=())
    for fn in (nll, gap, max_ent):
        with pytest.raises(ValidationError):
            one(fn, bare)


def test_vanishing_probability_rejected_not_floored():
    rec = record_from_steps(steps_from_top1([0.0]))
    with pytest.raises(DegenerateProbabilityError):
        one(nll, rec)
    bad_inp = record_from_steps(steps_from_top1([0.5]), input_scores=(1e-300,))
    with pytest.raises(DegenerateProbabilityError):
        one(ppl, bad_inp)


# --- oracle equivalence on 200 random records ---

def test_features_match_naive_oracles_on_random_records():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        rec = random_record(rng)
        assert one(nll, rec) == pytest.approx(naive_nll(rec), rel=REL_TOL)
        assert one(ppl, rec) == pytest.approx(
            naive_ppl_normalized(rec), rel=REL_TOL)
        assert one(gap, rec) == pytest.approx(naive_gap(rec), rel=REL_TOL)
        assert one(max_ent, rec) == pytest.approx(naive_max_ent(rec),
                                                  rel=REL_TOL)


def test_feature_bounds_on_random_records():
    rng = np.random.default_rng(77)
    for _ in range(100):
        rec = random_record(rng)
        n = len(rec.output_steps)
        assert one(nll, rec) >= 0.0
        assert one(ppl, rec) >= 1.0
        assert 0.0 <= one(gap, rec) <= n
        assert one(max_ent, rec) >= 0.0
        assert 0.0 < one(sequence_confidence, rec) <= 1.0


def test_sequence_confidence_is_exp_of_mean_nll():
    rng = np.random.default_rng(5)
    rec = random_record(rng, n_steps=4)
    expected = math.exp(-naive_nll(rec) / 4)
    assert one(sequence_confidence, rec) == pytest.approx(expected,
                                                          rel=REL_TOL)


def test_extract_task_features_matches_per_record_loop():
    rng = np.random.default_rng(9)
    recs = [random_record(rng) for _ in range(3)]
    table = extract_task_features(SettingBatch.from_records(recs),
                                  (FeatureKind.NLL, FeatureKind.PPL))
    assert sorted(table) == sorted([FeatureKind.NLL, FeatureKind.PPL])
    for kind, fn in ((FeatureKind.NLL, nll), (FeatureKind.PPL, ppl)):
        assert len(table[kind]) == 3
        for got, rec in zip(table[kind], recs):
            assert got == pytest.approx(one(fn, rec), rel=REL_TOL)


def test_extract_task_features_rejects_mixed_settings():
    rng = np.random.default_rng(10)
    a = random_record(rng, ids=("svc00", "task00", "ctx00", "s0000"))
    b = random_record(rng, ids=("svc00", "task00", "ctx01", "s0000"))
    with pytest.raises(GroupingError):
        extract_task_features(SettingBatch.from_records([a, b]),
                              (FeatureKind.NLL,))
