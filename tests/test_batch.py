"""SettingBatch: the columnar setting is exact.

Frozen copies of the per-record code that the batch path replaced (the
record-building generator, the feature loops, the per-setting preparation,
the JSON Lines reader, writer and validation) serve as oracles. Values are compared by their bits (float.hex), so a
changed rounding or a signed zero fails.
"""

import dataclasses
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfest import core
from perfest.cli import dispatch
from perfest.core import (InvocationRecord, RecordStore, SettingBatch,
                          TokenStep, read_batches, read_records,
                          write_records)
from perfest.errors import ValidationError
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
        assert bits(fn(SettingBatch.from_records([r]))[0]
                    for r in records) == bits(want)
    scored = [r for r in records if r.input_scores is not None]
    if scored:
        want = [frozen_ppl(r, "normalized") for r in scored]
        assert bits(ppl(SettingBatch.from_records(scored))) == bits(want)
        assert bits(ppl(SettingBatch.from_records([r]))[0]
                    for r in scored) == bits(want)


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
    got = prepare_setting(SettingBatch.from_records(records), kinds, d,
                          unlabeled_n=n, seed=seed)
    vector, truth, sampled_f1, conf = frozen_prepare(
        records, kinds, d, n, seed, "normalized")
    assert bits(got.profile.vector) == bits(vector)
    assert got.truth.hex() == truth.hex()
    assert bits(got.sampled_f1) == bits(sampled_f1)
    assert bits(got.confidences) == bits(conf)


@settings(max_examples=40, deadline=None)
@given(ragged_setting(min_size=1, max_size=30), st.integers(1, 30),
       st.sampled_from([(FeatureKind.NLL,), (FeatureKind.GAP, FeatureKind.NLL),
                        (FeatureKind.GAP,), (FeatureKind.MAXENT,)]))
def test_confidences_reuse_the_profiles_nll(records, n, kinds):
    calls = []

    def counted_nll(batch):
        calls.append(batch)
        return nll(batch)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("perfest.features.nll", counted_nll)
        got = prepare_setting(SettingBatch.from_records(records), kinds, 5,
                              unlabeled_n=n, seed=1)
        confidences = got.confidences
    # sequence_confidence calls nll only where the profile has no NLL
    assert len(calls) == (0 if FeatureKind.NLL in kinds else 1)
    want = np.sort([frozen_confidence(r) for r in got.sampled.records()])
    assert bits(confidences) == bits(want)
    assert bits(confidences) == bits(np.sort(
        sequence_confidence(got.sampled)))


@settings(max_examples=50, deadline=None)
@given(ragged_setting())
def test_per_sample_f1_batch_equals_records(records):
    labeled = [r for r in records if r.reference is not None]
    if not labeled:
        return
    want = [f1_score(r.generated_text, r.reference) for r in labeled]
    batch = SettingBatch.from_records(labeled)
    assert bits(per_sample_f1(batch)) == bits(want)
    assert task_performance(batch) == sum(want) / len(want)


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
                                config.context_id(k)).records()
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


# sha256 of the files the synth above writes, frozen while batches held
# their tokens as strings
FROZEN_SYNTH_DIGESTS = {
    "records.jsonl":
        "d93fc5ce54fa041e68c12dbc3cc7c5fe39b8950b47d7f13ed4cfed6ff6a8843e",
    "records.jsonl.cols":
        "7a307bcdf2340d2c9ec52fdaec45744f6bb3cda105a696ddc01df51e4e9f1fbc"}


def test_synth_files_keep_their_frozen_bytes_and_load_as_written(
        tmp_path, monkeypatch):
    out = tmp_path / "store"
    assert dispatch(["synth", "--seed", "31", "--out", str(out),
                     "--services", "2", "--tasks", "3", "--samples", "50",
                     "--contexts", "2"]) == 0

    def digests():
        return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in FROZEN_SYNTH_DIGESTS}

    assert digests() == FROZEN_SYNTH_DIGESTS
    # a columns file of these bytes loads with no JSON read or rewrite
    monkeypatch.setattr(core, "read_batches", None)
    store = RecordStore.from_file(str(out / "records.jsonl"))
    assert digests() == FROZEN_SYNTH_DIGESTS
    config = MarketplaceConfig(n_services=2, n_tasks=3, samples_per_task=50,
                               contexts_per_task=2, seed=31)
    truth = marketplace_truth(config)
    assert store_records(store) == [
        rec for i in range(2) for j in range(3) for k in range(2)
        for rec in frozen_generate_setting(config, truth, i, j, k)]


@pytest.mark.parametrize("unlabeled_n", [None, 17, 40, 500])
def test_synthetic_settings_prepare_exactly(unlabeled_n):
    config = MarketplaceConfig(n_services=2, n_tasks=2, samples_per_task=40,
                               contexts_per_task=2, seed=3)
    _, _, store = synth_marketplace(config)
    kinds = (FeatureKind.NLL, FeatureKind.PPL)
    for key in store.keys():
        got = prepare_setting(store.get(*key), kinds, 25,
                              unlabeled_n=unlabeled_n, seed=4)
        vector, truth, sampled_f1, conf = frozen_prepare(
            store.get(*key).records(), kinds, 25, unlabeled_n or 40, 4,
            "normalized")
        assert bits(got.profile.vector) == bits(vector)
        assert got.truth.hex() == truth.hex()
        assert bits(got.sampled_f1) == bits(sampled_f1)
        assert bits(got.confidences) == bits(conf)
        assert bits(got.profile.vector) == bits(build_profile(
            store.get(*key) if unlabeled_n in (None, 40, 500)
            else got.sampled, kinds, 25).vector)
        table = extract_task_features(store.get(*key), kinds)
        assert all(isinstance(v, float) for v in table[FeatureKind.NLL])


def store_records(store):
    """Every record of a RecordStore, settings in key order."""
    return [r for key in store.keys() for r in store.get(*key).records()]


def test_store_keeps_order_of_interleaved_records(tmp_path):
    config = MarketplaceConfig(n_services=1, n_tasks=1, samples_per_task=9,
                               contexts_per_task=3, seed=8)
    truth = marketplace_truth(config)
    settings_ = [frozen_generate_setting(config, truth, 0, 0, k)
                 for k in range(3)]
    interleaved = [rec for trio in zip(*settings_) for rec in trio]
    store = RecordStore()
    for _, run in itertools.groupby(interleaved, key=lambda r: r.key):
        store.add(SettingBatch.from_records(run))
    assert len(store) == 27
    for recs in settings_:
        assert store.get(*recs[0].key).records() == recs
    path = tmp_path / "store.jsonl"
    write_records(interleaved, str(path))
    again = RecordStore.from_file(str(path))
    assert store_records(again) == [r for recs in settings_ for r in recs]


# ---------------------------------------------------------------------------
# the JSON Lines codec against the per-record reader, writer and validation


def frozen_step_validate(step, line=None):
    if len(step.top_probs) < 1:
        raise ValidationError("top_probs must have length >= 1",
                              field="top_probs", line=line)
    total = 0.0
    prev = float("inf")
    for tok, p in step.top_probs:
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"prob {p!r} outside [0, 1]",
                                  field="top_probs", line=line)
        if p > prev:
            raise ValidationError("top_probs not sorted non-increasing",
                                  field="top_probs", line=line)
        prev = p
        total += p
    if total > 1.0 + 1e-9:
        raise ValidationError(f"top_probs sum {total} exceeds 1",
                              field="top_probs", line=line)


def frozen_validate(rec, line=None, require_steps=False):
    if require_steps and len(rec.output_steps) == 0:
        raise ValidationError("output_steps empty", field="output_steps",
                              line=line)
    for step in rec.output_steps:
        frozen_step_validate(step, line=line)
    if rec.input_scores is not None:
        for s in rec.input_scores:
            if not (0.0 < s <= 1.0):
                raise ValidationError(f"input score {s!r} outside (0, 1]",
                                      field="input_scores", line=line)


def frozen_record_to_obj(rec):
    obj = {
        "service_id": rec.service_id,
        "task_id": rec.task_id,
        "context_id": rec.context_id,
        "sample_id": rec.sample_id,
        "input_text": rec.input_text,
        "generated_text": rec.generated_text,
        "output_steps": [{"token": s.token,
                          "top_probs": [[t, p] for t, p in s.top_probs]}
                         for s in rec.output_steps],
    }
    if rec.input_scores is not None:
        obj["input_scores"] = list(rec.input_scores)
    if rec.reference is not None:
        obj["reference"] = rec.reference
    return obj


def _frozen_require(obj, name, line):
    if name not in obj:
        raise ValidationError(f"missing field {name!r}", field=name, line=line)
    return obj[name]


def frozen_record_from_obj(obj, line=None):
    steps = []
    raw_steps = _frozen_require(obj, "output_steps", line)
    if not isinstance(raw_steps, list):
        raise ValidationError("output_steps must be an array",
                              field="output_steps", line=line)
    for raw in raw_steps:
        try:
            pairs = tuple((str(t), float(p)) for t, p in raw["top_probs"])
            steps.append(TokenStep(token=str(raw["token"]), top_probs=pairs))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed step: {exc}",
                                  field="output_steps", line=line) from exc
    scores = obj.get("input_scores")
    rec = InvocationRecord(
        service_id=str(_frozen_require(obj, "service_id", line)),
        task_id=str(_frozen_require(obj, "task_id", line)),
        context_id=str(_frozen_require(obj, "context_id", line)),
        sample_id=str(_frozen_require(obj, "sample_id", line)),
        input_text=str(_frozen_require(obj, "input_text", line)),
        generated_text=str(_frozen_require(obj, "generated_text", line)),
        output_steps=tuple(steps),
        input_scores=(tuple(float(s) for s in scores)
                      if scores is not None else None),
        reference=(str(obj["reference"])
                   if obj.get("reference") is not None else None))
    frozen_validate(rec, line=line)
    return rec


def frozen_read(path):
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for i, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"invalid JSON: {exc}", line=i) from exc
            out.append(frozen_record_from_obj(obj, line=i))
    return out


def frozen_lines(records):
    return [json.dumps(frozen_record_to_obj(r), ensure_ascii=False) + "\n"
            for r in records]


def decoded(batch, name):
    """Column name of batch as a list of its strings."""
    column = getattr(batch, name)
    if name.endswith("tokens"):  # codes into the batch's vocabulary
        column = batch.vocab[column]
    return column.tolist()


def assert_same_batch(got, want):
    assert got.key == want.key
    for name in ("sample_ids", "input_texts", "generated_texts",
                 "references", "tokens", "cand_tokens"):
        assert decoded(got, name) == decoded(want, name)
    for name in ("step_offsets", "cand_offsets", "score_offsets",
                 "has_scores"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert bits(got.cand_probs) == bits(want.cand_probs)
    assert bits(got.scores) == bits(want.scores)


# every string may hold unicode, quotes, backslashes and control characters
# (lone surrogates cannot be written as UTF-8 by either writer)
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=10) | \
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "  ",
                     "\r\n\t", "é ü 漢字 🙂"])


@st.composite
def codec_records(draw, max_size=8):
    """Records of up to three settings in any order: 0-40 steps, k = 1..5,
    input scores None, empty or 1-12 long, references None or text."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = draw(st.lists(TEXT, min_size=1, max_size=8))
    keys = draw(st.lists(st.tuples(TEXT, TEXT, TEXT), min_size=1,
                         max_size=3))

    def text():
        return pool[int(rng.integers(len(pool)))]

    records = []
    for _ in range(draw(st.integers(1, max_size))):
        steps = tuple(
            TokenStep(text(), tuple((text(), p) for _, p in
                                    random_step(rng, t).top_probs))
            for t in range(draw(st.integers(0, 40))))
        n_scores = draw(st.none() | st.integers(0, 12))
        records.append(InvocationRecord(
            *draw(st.sampled_from(keys)), text(), text(), text(), steps,
            None if n_scores is None else tuple(
                rng.uniform(1e-6, 1.0, size=n_scores).tolist()),
            draw(st.none() | st.just(text()))))
    return records


@settings(max_examples=150, deadline=None)
@given(codec_records())
def test_writer_lines_equal_json_dumps_of_each_record(tmp_path_factory,
                                                      records):
    path = tmp_path_factory.mktemp("codec") / "records.jsonl"
    write_records(records, str(path))
    with open(path, encoding="utf-8") as f:
        assert f.readlines() == frozen_lines(records)


@settings(max_examples=150, deadline=None)
@given(codec_records())
def test_reader_batches_equal_per_record_parse(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("codec") / "records.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(frozen_lines(records))
    frozen = frozen_read(str(path))
    runs = [SettingBatch.from_records(run) for _, run in
            itertools.groupby(frozen, key=lambda r: r.key)]
    got = list(read_batches(str(path)))
    assert len(got) == len(runs)
    for a, b in zip(got, runs):
        assert_same_batch(a, b)
    assert read_records(str(path)) == frozen


def test_store_save_equals_per_record_writer(tmp_path):
    config = MarketplaceConfig(n_services=2, n_tasks=2, samples_per_task=30,
                               contexts_per_task=2, seed=12)
    _, _, store = synth_marketplace(config)
    store.save(str(tmp_path / "store.jsonl"))
    with open(tmp_path / "store.jsonl", encoding="utf-8") as f:
        assert f.readlines() == frozen_lines(store_records(store))


def grouped(records):
    """Records regrouped by setting, settings in order of first appearance,
    each setting's records in their order."""
    keys = list(dict.fromkeys(r.key for r in records))
    return sorted(records, key=lambda r: keys.index(r.key))


@settings(max_examples=100, deadline=None)
@given(codec_records(max_size=12))
def test_interleaved_file_reads_to_the_grouped_files_batches(
        tmp_path_factory, records):
    folder = tmp_path_factory.mktemp("codec")
    write_records(records, str(folder / "interleaved.jsonl"))
    write_records(grouped(records), str(folder / "grouped.jsonl"))
    mixed = RecordStore.from_file(str(folder / "interleaved.jsonl"))
    runs = RecordStore.from_file(str(folder / "grouped.jsonl"))
    assert mixed.keys() == runs.keys() and len(mixed) == len(runs)
    for key in runs.keys():
        want = SettingBatch.from_records(r for r in records if r.key == key)
        assert_same_batch(mixed.get(*key), runs.get(*key))
        assert_same_batch(mixed.get(*key), want)


def test_round_robin_file_reads_in_linear_time(tmp_path):
    config = MarketplaceConfig(n_services=1, n_tasks=1, samples_per_task=400,
                               contexts_per_task=3, seed=9)
    truth = marketplace_truth(config)
    settings_ = [frozen_generate_setting(config, truth, 0, 0, k)
                 for k in range(3)]
    round_robin = [rec for trio in zip(*settings_) for rec in trio]
    assert len(round_robin) == 1200
    write_records(round_robin, str(tmp_path / "round_robin.jsonl"))
    write_records(grouped(round_robin), str(tmp_path / "grouped.jsonl"))
    start = time.perf_counter()
    store = RecordStore.from_file(str(tmp_path / "round_robin.jsonl"))
    for key in store.keys():
        store.get(*key)
    assert time.perf_counter() - start < 0.5
    runs = RecordStore.from_file(str(tmp_path / "grouped.jsonl"))
    for key in runs.keys():
        assert_same_batch(store.get(*key), runs.get(*key))


# ---------------------------------------------------------------------------
# token codes: tokens and cand_tokens are codes into the batch's vocab

# the generator's candidate table as it was while it held token strings:
# [r, t] are step t's candidates for an answer with r reference tokens
FROZEN_CANDIDATES = np.array(
    [[(tok, "alt1", "alt2")
      for tok in (_REF_TOKENS[:r] + _BAD_TOKENS[r:])[:OUTPUT_STEPS]]
     for r in range(11)], dtype=object)


def assert_same_columns(got, want):
    """got equals want field by field, in dtype, shape and values."""
    for field in dataclasses.fields(SettingBatch):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "key":
            assert a == b
        else:
            assert (a.dtype, a.shape, a.tolist()) == \
                (b.dtype, b.shape, b.tolist()), field.name


@pytest.mark.parametrize("seed", [0, 1])
def test_synth_token_codes_decode_to_the_frozen_candidate_table(seed):
    config = MarketplaceConfig(n_services=2, n_tasks=3, samples_per_task=30,
                               contexts_per_task=2, seed=seed)
    _, _, store = synth_marketplace(config)
    batches = [store.get(*key) for key in store.keys()]
    for batch in batches:
        assert batch.tokens.dtype == batch.cand_tokens.dtype == np.uint8
        answers = [_PRED_TEXTS.index(g)
                   for g in batch.generated_texts.tolist()]
        steps = FROZEN_CANDIDATES[answers].reshape(-1, 3).tolist()
        counts = np.diff(batch.cand_offsets).tolist()
        assert decoded(batch, "tokens") == [step[0] for step in steps]
        assert decoded(batch, "cand_tokens") == [
            token for step, k in zip(steps, counts) for token in step[:k]]
        # two takes joined code as from_records codes their records
        assert_same_columns(
            SettingBatch.concat([batch.take(range(10)),
                                 batch.take(range(10, 30))]),
            SettingBatch.from_records(batch.records()))
    # every synthesized batch shares one read-only vocabulary
    assert len({id(batch.vocab) for batch in batches}) == 1
    assert not batches[0].vocab.flags.writeable


def one_setting(records):
    return [dataclasses.replace(r, service_id="svc00", task_id="task00",
                                context_id="ctx00") for r in records]


@settings(max_examples=100, deadline=None)
@given(codec_records(), codec_records(), st.data())
def test_concat_and_take_decode_to_the_records_they_hold(first, second,
                                                         data):
    first, second = one_setting(first), one_setting(second)
    joined = SettingBatch.concat([SettingBatch.from_records(first),
                                  SettingBatch.from_records(second)])
    assert joined.records() == first + second
    # the two vocabularies are joined into one of the words the codes
    # name, coded as from_records codes them
    assert_same_columns(joined, SettingBatch.from_records(first + second))
    rows = data.draw(st.lists(st.integers(0, len(joined) - 1),
                              max_size=12))
    part = joined.take(rows)
    assert part.vocab is joined.vocab
    assert part.records() == [(first + second)[i] for i in rows]


def test_record_file_decodes_alike_through_json_and_columns(tmp_path,
                                                            monkeypatch):
    config = MarketplaceConfig(n_services=2, n_tasks=2, samples_per_task=30,
                               contexts_per_task=2, seed=4)
    _, _, store = synth_marketplace(config)
    path = str(tmp_path / "records.jsonl")
    store.save(path)
    via_json = list(read_batches(path))

    def no_json(path):
        raise AssertionError("read_batches called")

    monkeypatch.setattr(core, "read_batches", no_json)
    via_columns = RecordStore.from_file(path)
    assert via_columns.keys() == [b.key for b in via_json]
    for want in via_json:
        got = via_columns.get(*want.key)
        assert_same_columns(got, want)
        assert got.records() == store.get(*want.key).records()


@pytest.mark.parametrize("distinct, dtype", [(254, np.uint8),
                                             (300, np.uint16)])
def test_codes_take_the_smallest_dtype_that_holds_the_vocabulary(
        tmp_path, distinct, dtype):
    steps = tuple(TokenStep(f"w{t}", ((f"w{t}", 0.5), (f"v{t}", 0.25)))
                  for t in range(distinct // 2))
    rec = InvocationRecord("svc00", "task00", "ctx00", "s0", "q", "a",
                           steps, None, None)
    path = str(tmp_path / "records.jsonl")
    write_records([rec], path)
    # a JSON read, which writes the columns file, then a columns read
    for batch in (SettingBatch.from_records([rec]),
                  RecordStore.from_file(path).get(*rec.key),
                  RecordStore.from_file(path).get(*rec.key)):
        assert len(batch.vocab) == distinct
        assert batch.tokens.dtype == batch.cand_tokens.dtype == dtype
        assert batch.records() == [rec]


def good(**overrides):
    obj = {"service_id": "svc00", "task_id": "task00", "context_id": "ctx00",
           "sample_id": "s0", "input_text": "q", "generated_text": "a b",
           "output_steps": [{"token": "a", "top_probs": [["a", 0.6],
                                                         ["b", 0.3]]},
                            {"token": "b", "top_probs": [["b", 0.9]]}],
           "input_scores": [0.5, 0.25], "reference": "a b"}
    obj.update(overrides)
    return json.dumps(obj)


def steps(*probs):
    return [{"token": "a", "top_probs": [[f"c{i}", p]
                                         for i, p in enumerate(ps)]}
            for ps in probs]


def without(name):
    obj = json.loads(good())
    del obj[name]
    return json.dumps(obj)


_OVER = 0.4 + 2e-9  # 0.6 + _OVER exceeds 1 + 1e-9
_UNDER = 0.4 + 5e-10  # 0.6 + _UNDER does not
PARITY = {
    "bad-json": [good(), '{"service_id": '],
    "missing-field": [good(), without("sample_id")],
    "missing-steps": [without("output_steps")],
    "steps-not-list": [good(), good(output_steps={"token": "a"})],
    "steps-string": [good(output_steps="abc")],
    "step-no-top-probs": [good(output_steps=[{"token": "a"}])],
    "step-no-token": [good(output_steps=[{"top_probs": [["a", 0.5]]}])],
    "step-not-object": [good(output_steps=[["a", 0.5]])],
    "pair-too-short": [good(output_steps=[{"token": "a",
                                           "top_probs": [["a"]]}])],
    "pair-too-long": [good(output_steps=[{"token": "a",
                                          "top_probs": [["a", 0.5, 1]]}])],
    "prob-not-number": [good(output_steps=[{"token": "a",
                                            "top_probs": [["a", "x"]]}])],
    "prob-null": [good(output_steps=[{"token": "a",
                                      "top_probs": [["a", None]]}])],
    "top-probs-number": [good(output_steps=[{"token": "a",
                                             "top_probs": 3}])],
    "negative-prob": [good(), good(output_steps=steps([0.5], [0.2, -0.1]))],
    "prob-above-one": [good(output_steps=steps([1.2]))],
    "nan-prob": [good(output_steps=steps([0.5])).replace("0.5]", "NaN]")],
    "unsorted": [good(output_steps=steps([0.9], [0.2, 0.7]))],
    "empty-top-probs": [good(output_steps=steps([0.9], []))],
    "sum-just-over": [good(output_steps=steps([0.6, _OVER]))],
    "sum-just-under": [good(output_steps=steps([0.6, _UNDER]))],
    "range-before-order": [good(output_steps=steps([0.2, 0.5, 1.5]))],
    "order-before-sum": [good(output_steps=steps([0.9, 0.95]))],
    "first-bad-step": [good(output_steps=steps([0.6, 0.6], [2.0]))],
    "score-zero": [good(), good(input_scores=[0.5, 0.0])],
    "score-above-one": [good(input_scores=[1.5])],
    "step-before-score": [good(output_steps=steps([0.3, 0.5]),
                               input_scores=[0.0])],
    "value-then-bad-json": [good(), good(input_scores=[0.0]), good(),
                            "{oops"],
    "value-then-missing-field": [good(output_steps=steps([1.5])),
                                 without("task_id")],
    "value-then-bad-step": [good(), good(output_steps=steps([-1.0])),
                            good(output_steps=[{"token": "a"}])],
    "value-then-other-setting": [good(input_scores=[2.0]),
                                 good(context_id="ctx01"), "{"],
    "bad-json-then-value": [good(), "nope", good(input_scores=[0.0])],
    "bad-step-then-value": [good(output_steps=[{"token": "a"}]),
                            good(input_scores=[0.0])],
    "blank-lines": ["", good(), "   ", good(input_scores=[0.0])],
    "returning-setting": [good(), good(context_id="ctx01"),
                          good(sample_id="s1"),
                          good(context_id="ctx01", input_scores=[3.0])],
    "valid": [good(), good(sample_id="s1", input_scores=None),
              good(context_id="ctx01", reference=None)],
}


def outcome(read, path):
    try:
        return "ok", read(path)
    except ValidationError as exc:
        if exc.field in ("top_probs", "input_scores"):  # a value fault
            return "error", (exc.field, exc.line, str(exc))
        return "error", (exc.field, exc.line)


@pytest.mark.parametrize("lines", PARITY.values(), ids=PARITY.keys())
def test_errors_name_the_per_record_readers_field_and_line(tmp_path, lines):
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = outcome(frozen_read, str(path))
    assert outcome(read_records, str(path)) == want
    got = outcome(lambda p: store_records(RecordStore.from_file(p)),
                  str(path))
    if want[0] == "ok":
        assert got[0] == "ok" and sorted(got[1], key=lambda r: r.key) == \
            sorted(want[1], key=lambda r: r.key)
    else:
        assert got == want


@pytest.mark.parametrize("line,field", [
    ("[1, 2]", None), ("3", None), ('"output_steps"', None), ("null", None),
    (good(input_scores="abc"), "input_scores"),
    (good(input_scores=5), "input_scores"),
    (good(input_scores=[0.5, None]), "input_scores")])
def test_non_records_are_validation_errors(tmp_path, line, field):
    # the per-record reader let these escape as TypeError or ValueError
    path = tmp_path / "records.jsonl"
    path.write_text(good() + "\n" + good() + "\n" + line + "\n")
    with pytest.raises(ValidationError) as exc:
        read_records(str(path))
    assert (exc.value.field, exc.value.line) == (field, 3)


@settings(max_examples=100, deadline=None)
@given(ragged_setting(), st.data())
def test_batch_validate_raises_what_the_record_scan_raises(records, data):
    # break some probabilities and scores, then compare with the scan
    bad = (-0.0, -1e-300, 0.0, 1.0, 1.0 + 1e-12, 2.0, math.nan, math.inf)
    broken = []
    for rec in records:
        steps_ = list(rec.output_steps)
        if steps_ and data.draw(st.booleans()):
            t = data.draw(st.integers(0, len(steps_) - 1))
            pairs = list(steps_[t].top_probs)
            c = data.draw(st.integers(0, len(pairs) - 1))
            pairs[c] = (pairs[c][0], data.draw(st.sampled_from(bad)))
            steps_[t] = TokenStep(steps_[t].token, tuple(pairs))
        scores = rec.input_scores
        if scores and data.draw(st.booleans()):
            scores = scores[:-1] + (data.draw(st.sampled_from(bad)),)
        broken.append(InvocationRecord(*rec.key, rec.sample_id,
                                       rec.input_text, rec.generated_text,
                                       tuple(steps_), scores, rec.reference))
    lines = list(range(3, 3 + len(broken)))
    want = None
    for rec, line in zip(broken, lines):
        try:
            frozen_validate(rec, line, False)
        except ValidationError as exc:
            want = (exc.field, exc.line, str(exc))
            break
    try:
        SettingBatch.from_records(broken).validate(lines)
        got = None
    except ValidationError as exc:
        got = (exc.field, exc.line, str(exc))
    assert got == want
