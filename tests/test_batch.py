"""SettingBatch: the columnar setting is exact.

Frozen copies of the per-record code that the batch path replaced (the
record-building generator, the feature loops, the per-setting preparation)
serve as oracles. Values are compared by their bits (float.hex), so a
changed rounding or a signed zero fails.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfest.cli import dispatch
from perfest.core import (InvocationRecord, RecordStore, SettingBatch,
                          TokenStep, write_records)
from perfest.evaluation import (f1_score, per_sample_f1, prepare_setting,
                                task_performance)
from perfest.features import (FeatureKind, extract_task_features, gap,
                              max_ent, nll, ppl, sequence_confidence)
from perfest.profile import build_profile, interpolate_profile
from perfest.seeding import derive_rng
from perfest.services import (INPUT_SCORE_LEN, OUTPUT_STEPS,
                              MarketplaceConfig, marketplace_truth,
                              synth_marketplace)

# ---------------------------------------------------------------------------
# frozen per-record oracles


def frozen_nll(rec):
    total = 0.0
    for step in rec.output_steps:
        total -= math.log(step.top_probs[0][1])
    return total


def frozen_ppl(rec, mode="normalized"):
    total = 0.0
    for s in rec.input_scores:
        total -= math.log(s)
    if mode == "normalized":
        return math.exp(total / len(rec.input_scores))
    return math.exp(total)


def frozen_gap(rec):
    total = 0.0
    for step in rec.output_steps:
        p1 = step.top_probs[0][1]
        p2 = step.top_probs[1][1] if len(step.top_probs) > 1 else 0.0
        total += p1 - p2
    return total


def frozen_step_entropy(step):
    mass = sum(p for _, p in step.top_probs)
    h = 0.0
    for _, p in step.top_probs:
        q = p / mass
        if q > 0.0:
            h -= q * math.log(q)
    return h


def frozen_max_ent(rec):
    return max(frozen_step_entropy(step) for step in rec.output_steps)


def frozen_confidence(rec):
    return math.exp(-frozen_nll(rec) / len(rec.output_steps))


FROZEN = {FeatureKind.NLL: frozen_nll, FeatureKind.PPL: frozen_ppl,
          FeatureKind.GAP: frozen_gap, FeatureKind.MAXENT: frozen_max_ent}

_REF_TOKENS = tuple(f"ref{i}" for i in range(10))
_BAD_TOKENS = tuple(f"off{i}" for i in range(10))
_REF_TEXT = " ".join(_REF_TOKENS)
_PRED_TEXTS = tuple(" ".join(_REF_TOKENS[:r] + _BAD_TOKENS[r:])
                    for r in range(11))


def frozen_generate_setting(config, truth, i, j, k):
    """The marketplace generator as it was when it built records directly."""
    m = config.samples_per_task
    phi = config.feature_fidelity
    q = truth.correctness(i, j, k)
    rng = derive_rng(config.seed, "records", i, j, k)

    eps = rng.normal(0.0, 1.0, size=m)
    eta_gen = rng.normal(0.0, 0.08, size=m)
    eta_inp = rng.normal(0.0, 0.08, size=m)
    band_gen = rng.beta(2.0, 2.0, size=(m, OUTPUT_STEPS))
    band_inp = rng.beta(2.0, 2.0, size=(m, INPUT_SCORE_LEN))

    sigma = 0.4 * q * (1.0 - q)
    f_grid = np.rint(10.0 * np.clip(q + sigma * eps, 0.0, 1.0)).astype(int)
    f = f_grid / 10.0

    mu_gen = (1 - phi) * 0.62 + phi * (0.35 + 0.60 * f + eta_gen)
    mu_inp = (1 - phi) * 0.58 + phi * (0.33 + 0.58 * f + eta_inp)
    floor = np.maximum(0.02, 0.9 * phi * f ** 8)
    p1 = np.clip(mu_gen[:, None] + 0.10 * (band_gen - 0.5),
                 floor[:, None], 0.995)
    scores = np.clip(mu_inp[:, None] + 0.10 * (band_inp - 0.5), 0.02, 0.995)
    p2 = np.minimum(p1, 0.55 * (1.0 - p1))
    p3 = np.minimum(p2, 0.30 * (1.0 - p1))

    service_id = config.service_id(i)
    task_id = config.task_id(j)
    context_id = config.context_id(k)
    records = []
    for s in range(m):
        r = f_grid[s]
        pred_tokens = (_REF_TOKENS[:r] + _BAD_TOKENS[r:])[:OUTPUT_STEPS]
        steps = []
        for t in range(OUTPUT_STEPS):
            a = p1[s, t]
            if a > 0.97:
                probs = ((pred_tokens[t], a),)
            else:
                probs = ((pred_tokens[t], a), ("alt1", p2[s, t]),
                         ("alt2", p3[s, t]))
            steps.append(TokenStep(token=pred_tokens[t], top_probs=probs))
        records.append(InvocationRecord(
            service_id=service_id, task_id=task_id, context_id=context_id,
            sample_id=config.sample_id(s),
            input_text=f"{task_id} query {s}",
            generated_text=_PRED_TEXTS[r],
            output_steps=tuple(steps),
            input_scores=tuple(scores[s].tolist()),
            reference=_REF_TEXT))
    return records


def frozen_prepare(records, kinds, d, unlabeled_n, seed, ppl_mode):
    """Profile vector, truth, sampled F1 and sorted confidences, computed
    record by record as the experiment runner once did."""
    per_f1 = [f1_score(r.generated_text, r.reference) for r in records]
    truth = sum(per_f1) / len(per_f1)
    rng = derive_rng(seed, "unlabeled", *records[0].key)
    k = min(unlabeled_n, len(records))
    idx = np.sort(rng.choice(len(records), size=k, replace=False))
    sampled = [records[i] for i in idx]
    vector = []
    for kind in kinds:
        if kind is FeatureKind.PPL:
            values = [frozen_ppl(r, ppl_mode) for r in sampled]
        else:
            values = [FROZEN[kind](r) for r in sampled]
        vector.extend(interpolate_profile(values, d))
    conf = np.sort([frozen_confidence(r) for r in sampled])
    return vector, truth, [per_f1[i] for i in idx], conf


def bits(values):
    return [float(v).hex() for v in values]


# ---------------------------------------------------------------------------
# random ragged records: 1-40 steps (past numpy's 8-element pairwise
# block), k = 1..5 candidates, input scores None or 1-12 long. Hypothesis
# draws the shapes and a seed; numpy draws the probabilities.


def random_step(rng, t):
    k = int(rng.integers(1, 6))
    if rng.random() < 0.1:  # a certain single candidate
        probs = [1.0] if k == 1 else [1.0] + [0.0] * (k - 1)
    else:
        raw = rng.uniform(1e-6, 1.0, size=k)
        mass = rng.choice([1.0, 0.999, rng.uniform(0.05, 1.0)])
        probs = np.sort(raw / raw.sum() * mass)[::-1].tolist()
    return TokenStep(f"t{t}", tuple((f"t{t}_{c}", p)
                                    for c, p in enumerate(probs)))


@st.composite
def ragged_record(draw, sample, rng):
    n_steps = draw(st.integers(1, 40))
    n_scores = draw(st.none() | st.integers(1, 12))
    scores = None if n_scores is None else tuple(
        rng.uniform(1e-6, 1.0, size=n_scores).tolist())
    return InvocationRecord(
        service_id="svc00", task_id="task00", context_id="ctx00",
        sample_id=f"s{sample:04d}", input_text=f"query {sample}",
        generated_text=draw(st.sampled_from(["a b c", "a b", "x", ""])),
        output_steps=tuple(random_step(rng, t) for t in range(n_steps)),
        input_scores=scores,
        reference=draw(st.none() | st.sampled_from(["a b c", "c"])))


@st.composite
def ragged_setting(draw, min_size=1, max_size=12):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(min_size, max_size))
    return [draw(ragged_record(s, rng)) for s in range(n)]


@settings(max_examples=150, deadline=None)
@given(ragged_setting())
def test_from_records_then_records_is_identity(records):
    batch = SettingBatch.from_records(records)
    assert len(batch) == len(records)
    assert batch.records() == records


@settings(max_examples=100, deadline=None)
@given(ragged_setting(), st.data())
def test_take_selects_the_same_records(records, data):
    rows = data.draw(st.lists(st.integers(0, len(records) - 1),
                              max_size=len(records)))
    batch = SettingBatch.from_records(records).take(rows)
    assert batch.records() == [records[i] for i in rows]


@settings(max_examples=150, deadline=None)
@given(ragged_setting())
def test_batch_features_equal_frozen_loops_bit_for_bit(records):
    batch = SettingBatch.from_records(records)
    for fn, frozen in ((nll, frozen_nll), (gap, frozen_gap),
                       (max_ent, frozen_max_ent),
                       (sequence_confidence, frozen_confidence)):
        want = [frozen(r) for r in records]
        assert bits(fn(batch)) == bits(want)
        assert bits(fn(r) for r in records) == bits(want)
    scored = [r for r in records if r.input_scores is not None]
    if scored:
        for mode in ("normalized", "summed"):
            want = [frozen_ppl(r, mode) for r in scored]
            assert bits(ppl(SettingBatch.from_records(scored),
                            mode=mode)) == bits(want)
            assert bits(ppl(r, mode=mode) for r in scored) == bits(want)


@settings(max_examples=60, deadline=None)
@given(ragged_setting(min_size=2, max_size=30), st.integers(1, 30),
       st.integers(0, 5), st.sampled_from([1, 7, 20]))
def test_prepare_setting_equals_frozen_preparation(records, n, seed, d):
    records = [r for r in records if r.input_scores is not None]
    records = [InvocationRecord(*r.key, r.sample_id, r.input_text,
                                r.generated_text, r.output_steps,
                                r.input_scores, r.reference or "a b c")
               for r in records]
    if not records:
        return
    kinds = (FeatureKind.NLL, FeatureKind.PPL, FeatureKind.GAP,
             FeatureKind.MAXENT)
    for mode in ("normalized", "summed"):
        got = prepare_setting(SettingBatch.from_records(records), kinds, d,
                              unlabeled_n=n, seed=seed, ppl_mode=mode)
        vector, truth, sampled_f1, conf = frozen_prepare(
            records, kinds, d, n, seed, mode)
        assert bits(got.profile.vector) == bits(vector)
        assert got.truth.hex() == truth.hex()
        assert bits(got.sampled_f1) == bits(sampled_f1)
        assert bits(got.confidences) == bits(conf)


@settings(max_examples=50, deadline=None)
@given(ragged_setting())
def test_per_sample_f1_batch_equals_records(records):
    labeled = [r for r in records if r.reference is not None]
    if not labeled:
        return
    want = [f1_score(r.generated_text, r.reference) for r in labeled]
    assert bits(per_sample_f1(SettingBatch.from_records(labeled))) \
        == bits(want)
    assert bits(per_sample_f1(labeled)) == bits(want)
    assert task_performance(labeled) == sum(want) / len(want)


def test_unlabeled_setting_has_no_truth():
    rec = InvocationRecord("svc00", "task00", "ctx00", "s0000", "q", "a b",
                           (TokenStep("a", (("a", 0.5),)),), (0.5,), None)
    setting = prepare_setting(SettingBatch.from_records([rec]),
                              (FeatureKind.NLL,), 4)
    assert setting.truth is None and setting.f1 is None


# ---------------------------------------------------------------------------
# the marketplace generator


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40),
       st.integers(1, 3), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_generator_equals_frozen_record_builder(services, tasks, samples,
                                                contexts, fidelity, seed):
    config = MarketplaceConfig(n_services=services, n_tasks=tasks,
                               samples_per_task=samples,
                               contexts_per_task=contexts,
                               feature_fidelity=fidelity, seed=seed)
    truth = marketplace_truth(config)
    _, _, store = synth_marketplace(config)
    assert len(store) == services * tasks * contexts * samples
    for i in range(services):
        for j in range(tasks):
            for k in range(contexts):
                want = frozen_generate_setting(config, truth, i, j, k)
                got = store.get(config.service_id(i), config.task_id(j),
                                config.context_id(k))
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    for field in InvocationRecord.__slots__:
                        assert getattr(a, field) == getattr(b, field)
                    assert bits(p for s in a.output_steps
                                for _, p in s.top_probs) == \
                        bits(p for s in b.output_steps
                             for _, p in s.top_probs)


def test_synth_out_is_byte_identical_to_frozen_builder(tmp_path):
    config = MarketplaceConfig(n_services=2, n_tasks=3, samples_per_task=50,
                               contexts_per_task=2, seed=31)
    out = tmp_path / "store"
    assert dispatch(["synth", "--seed", "31", "--out", str(out),
                     "--services", "2", "--tasks", "3", "--samples", "50",
                     "--contexts", "2"]) == 0
    truth = marketplace_truth(config)
    frozen = [rec for i in range(2) for j in range(3) for k in range(2)
              for rec in frozen_generate_setting(config, truth, i, j, k)]
    write_records(frozen, str(tmp_path / "frozen.jsonl"))
    assert (out / "records.jsonl").read_bytes() == \
        (tmp_path / "frozen.jsonl").read_bytes()


@pytest.mark.parametrize("unlabeled_n", [None, 17, 40, 500])
def test_synthetic_settings_prepare_exactly(unlabeled_n):
    config = MarketplaceConfig(n_services=2, n_tasks=2, samples_per_task=40,
                               contexts_per_task=2, seed=3)
    _, _, store = synth_marketplace(config)
    kinds = (FeatureKind.NLL, FeatureKind.PPL)
    for key in store.keys():
        got = prepare_setting(store.batch(*key), kinds, 25,
                              unlabeled_n=unlabeled_n, seed=4)
        vector, truth, sampled_f1, conf = frozen_prepare(
            store.get(*key), kinds, 25, unlabeled_n or 40, 4, "normalized")
        assert bits(got.profile.vector) == bits(vector)
        assert got.truth.hex() == truth.hex()
        assert bits(got.sampled_f1) == bits(sampled_f1)
        assert bits(got.confidences) == bits(conf)
        assert got.profile.vector == build_profile(
            store.get(*key) if unlabeled_n in (None, 40, 500)
            else got.sampled.records(), kinds, 25).vector
        table = extract_task_features(store.batch(*key), kinds)
        assert all(isinstance(v, float) for v in table[FeatureKind.NLL])


def test_store_keeps_order_of_interleaved_records(tmp_path):
    config = MarketplaceConfig(n_services=1, n_tasks=1, samples_per_task=9,
                               contexts_per_task=3, seed=8)
    truth = marketplace_truth(config)
    settings_ = [frozen_generate_setting(config, truth, 0, 0, k)
                 for k in range(3)]
    interleaved = [rec for trio in zip(*settings_) for rec in trio]
    store = RecordStore(interleaved[:10])
    store.extend(interleaved[10:])
    assert len(store) == 27
    for recs in settings_:
        assert store.get(*recs[0].key) == recs
    path = tmp_path / "store.jsonl"
    write_records(interleaved, str(path))
    again = RecordStore.from_file(str(path))
    assert list(again.all_records()) == [r for recs in settings_
                                         for r in recs]
