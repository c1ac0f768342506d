"""Synthetic service marketplace and the HTTP completions client."""

import io
import json

import numpy as np
import pytest

from perfest.core import ContextSpec, write_records
from perfest.errors import CapabilityError, ConfigurationError, TransportError
from perfest.evaluation import f1_score, task_performance
from perfest.features import FeatureKind, extract_task_features
from perfest.feature_selection import pearson
from perfest.services import (
    HttpClient,
    MarketplaceConfig,
    ServiceDescriptor,
    invoke,
    marketplace_contexts,
    marketplace_truth,
    synth_marketplace,
)


def small_config(**overrides):
    fields = dict(n_services=2, n_tasks=2, samples_per_task=20,
                  contexts_per_task=2, seed=5)
    fields.update(overrides)
    return MarketplaceConfig(**fields)


def test_synth_same_seed_byte_identical(tmp_path):
    paths = []
    for run in range(2):
        _, _, store = synth_marketplace(small_config())
        path = tmp_path / ("run%d.jsonl" % run)
        store.save(str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_synth_different_seed_differs(tmp_path):
    _, _, a = synth_marketplace(small_config(seed=5))
    _, _, b = synth_marketplace(small_config(seed=6))
    pa = tmp_path / "a.jsonl"
    pb = tmp_path / "b.jsonl"
    a.save(str(pa))
    b.save(str(pb))
    assert pa.read_bytes() != pb.read_bytes()


def test_synth_shape_and_invariants():
    cfg = small_config()
    services, tasks, store = synth_marketplace(cfg)
    assert len(services) == cfg.n_services
    # one test and one train split dataset per task
    assert len(tasks) == 2 * cfg.n_tasks
    assert {t.split for t in tasks} == {"train", "test"}
    assert len(store.keys()) == (cfg.n_services * cfg.n_tasks
                                 * cfg.contexts_per_task)
    for key in store.keys():
        recs = store.get(*key)
        assert len(recs) == cfg.samples_per_task
        for rec in recs:
            rec.validate(require_steps=True)
            for step in rec.output_steps:
                probs = [p for _, p in step.top_probs]
                assert probs == sorted(probs, reverse=True)
                assert sum(probs) <= 1.0 + 1e-9
            assert rec.reference is not None
            assert rec.input_scores is not None


def test_mock_invoke_matches_store():
    cfg = small_config()
    services, _, store = synth_marketplace(cfg)
    ctx = marketplace_contexts(cfg, 1)[1]
    recs = store.get("svc01", "task01", "ctx01")
    got = invoke(services[1], recs[3].input_text, ctx, "s0003", "task01",
                 mock_config=cfg)
    assert got == recs[3]


def test_mock_invoke_bad_ids_rejected():
    cfg = small_config()
    services, _, _ = synth_marketplace(cfg)
    ctx = marketplace_contexts(cfg, 0)[0]
    with pytest.raises(ConfigurationError):
        invoke(services[0], "q", ctx, "s9999", "task00", mock_config=cfg)
    with pytest.raises(ConfigurationError):
        invoke(services[0], "q", ctx, "s0000", "task00")


def test_full_fidelity_max_skill_is_correct_and_sharp():
    cfg = small_config(n_services=1, n_tasks=1, samples_per_task=50,
                       skill_range=(1.0, 1.0), difficulty_range=(0.0, 0.0),
                       feature_fidelity=1.0, seed=3)
    _, _, store = synth_marketplace(cfg)
    for key in store.keys():
        for rec in store.get(*key):
            assert f1_score(rec.generated_text, rec.reference) == 1.0
            for step in rec.output_steps:
                assert step.top_probs[0][1] >= 0.9


def test_full_fidelity_orders_services_by_skill():
    cfg = small_config(n_services=2, n_tasks=1, samples_per_task=200,
                       contexts_per_task=2, skill_range=(0.2, 0.9),
                       difficulty_range=(0.2, 0.2), feature_fidelity=1.0,
                       seed=9)
    truth = marketplace_truth(cfg)
    _, _, store = synth_marketplace(cfg)
    perf = []
    for i in range(2):
        settings = [task_performance(store.get("svc%02d" % i, "task00", c))
                    for c in ("ctx00", "ctx01")]
        perf.append(float(np.mean(settings)))
    order = np.argsort(truth.skills)
    assert perf[order[0]] < perf[order[1]]


def test_zero_fidelity_features_uninformative():
    cfg = MarketplaceConfig(n_services=3, n_tasks=9, samples_per_task=60,
                            contexts_per_task=2, feature_fidelity=0.0,
                            seed=7)
    _, _, store = synth_marketplace(cfg)
    keys = store.keys()
    assert len(keys) >= 50
    nll_means, perfs = [], []
    for key in keys:
        recs = store.get(*key)
        table = extract_task_features(recs, (FeatureKind.NLL,))
        nll_means.append(float(np.mean(table[FeatureKind.NLL])))
        perfs.append(task_performance(recs))
    assert abs(pearson(nll_means, perfs)) < 0.15


def test_full_fidelity_feature_signs():
    cfg = MarketplaceConfig(n_services=3, n_tasks=8, samples_per_task=80,
                            contexts_per_task=3, feature_fidelity=1.0,
                            seed=19)
    _, _, store = synth_marketplace(cfg)
    nll_means, gap_means, perfs = [], [], []
    for key in store.keys():
        recs = store.get(*key)
        table = extract_task_features(recs, (FeatureKind.NLL, FeatureKind.GAP))
        nll_means.append(float(np.mean(table[FeatureKind.NLL])))
        gap_means.append(float(np.mean(table[FeatureKind.GAP])))
        perfs.append(task_performance(recs))
    assert pearson(nll_means, perfs) < -0.5
    assert pearson(gap_means, perfs) > 0.5


def test_finetune_diff_positive_below_saturation():
    cfg = small_config(difficulty_range=(0.4, 0.45))
    truth = marketplace_truth(cfg)
    for i in range(cfg.n_services):
        for j in range(cfg.n_tasks):
            for k in range(cfg.contexts_per_task):
                q = truth.correctness(i, j, k)
                diff = truth.simulated_finetune_diff(i, j, k)
                assert diff >= 0.0
                if 0.0 < q < 0.7:
                    assert diff > 0.0


# --- HTTP client against a canned session ---

class FakeResponse:
    def __init__(self, status_code, body, headers=None):
        self.status_code = status_code
        self._body = body
        self.headers = headers or {}

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, timeout=None):
        self.requests.append((url, json))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def http_descriptor(input_scoring=True):
    return ServiceDescriptor(
        service_id="svc-http", kind="http",
        capabilities={"generation": True, "input_scoring": input_scoring,
                      "top_k_depth": 2},
        config={"endpoint": "http://localhost:9/v1/completions"})


def completion_body(with_logprobs=True, echo=False):
    choice = {"text": " paris"}
    if with_logprobs:
        lp = {
            "tokens": [" paris"],
            "top_logprobs": [{" paris": -0.1, " lyon": -3.0}],
        }
        if echo:
            # a prompt token, then two tokens inside the input text of
            # "capital of france?" after make_context's examples
            lp["token_logprobs"] = [None, -0.5, -0.7]
            lp["text_offset"] = [0, 14, 22]
        choice["logprobs"] = lp
    return {"choices": [choice]}


def make_context():
    return ContextSpec(context_id="ctx00",
                       examples=(("q1", "a1"), ("q2", "a2")), count=2)


def test_http_invoke_builds_record_from_logprobs():
    session = FakeSession([
        FakeResponse(200, completion_body()),
        FakeResponse(200, completion_body(echo=True)),
    ])
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    rec = client.invoke("capital of france?", make_context(), "s0000",
                        "task00")
    assert rec.generated_text == " paris"
    assert len(rec.output_steps) == 1
    top = rec.output_steps[0].top_probs
    assert top[0][0] == " paris"
    assert top[0][1] == pytest.approx(np.exp(-0.1))
    assert top[1][1] == pytest.approx(np.exp(-3.0))
    # echo scoring drops the unconditioned first token
    assert rec.input_scores == pytest.approx(
        (np.exp(-0.5), np.exp(-0.7)))
    # generation request then echo request
    assert len(session.requests) == 2
    assert session.requests[0][1]["echo"] is False
    assert session.requests[1][1]["echo"] is True
    assert session.requests[1][1]["max_tokens"] == 0


def test_http_missing_logprobs_is_capability_error():
    session = FakeSession([FakeResponse(200, completion_body(False))])
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    with pytest.raises(CapabilityError):
        client.invoke("q", make_context(), "s0000", "task00")


def test_http_no_input_scoring_capability_skips_echo():
    session = FakeSession([FakeResponse(200, completion_body())])
    client = HttpClient(http_descriptor(input_scoring=False),
                        session=session, backoff=0.0)
    rec = client.invoke("q", make_context(), "s0000", "task00")
    assert rec.input_scores is None
    assert len(session.requests) == 1


def test_http_retries_then_succeeds():
    session = FakeSession([
        FakeResponse(500, {}),
        ConnectionError("refused"),
        FakeResponse(200, completion_body()),
        FakeResponse(200, completion_body(echo=True)),
    ])
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    rec = client.invoke("q", make_context(), "s0000", "task00")
    assert rec.generated_text == " paris"
    assert len(session.requests) == 4


def test_http_exhausted_retries_is_transport_error():
    session = FakeSession([FakeResponse(500, {})] * 3)
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    with pytest.raises(TransportError):
        client.invoke("q", make_context(), "s0000", "task00")
    assert len(session.requests) == 3


class NotJsonResponse(FakeResponse):
    def json(self):
        return json.loads("<html>bad gateway</html>")


@pytest.mark.parametrize("responses", [
    [NotJsonResponse(200, None)],
    [FakeResponse(200, completion_body()), NotJsonResponse(200, None)],
    [FakeResponse(200, completion_body()), FakeResponse(200, {"id": "x"})],
    [FakeResponse(200, completion_body()), FakeResponse(200, {"choices": []})],
    [FakeResponse(200, ["not", "an", "object"])],
    [FakeResponse(200, {"choices": ["text"]})],
], ids=["completion-not-json", "echo-not-json", "echo-no-choices",
        "echo-empty-choices", "body-not-object", "choice-not-object"])
def test_http_malformed_body_is_capability_error(responses):
    session = FakeSession(responses)
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    with pytest.raises(CapabilityError, match="malformed"):
        client.invoke("q", make_context(), "s0000", "task00")


class UnreadResponse(FakeResponse):
    def json(self):
        raise AssertionError("a rejected request's body is not parsed")


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_http_client_error_raises_without_retry(status):
    session = FakeSession([UnreadResponse(status, None)] * 3)
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        client.invoke("q", make_context(), "s0000", "task00")
    assert len(session.requests) == 1


def test_http_429_is_retried_then_succeeds():
    session = FakeSession([
        UnreadResponse(429, None),
        FakeResponse(200, completion_body()),
        FakeResponse(200, completion_body(echo=True)),
    ])
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    rec = client.invoke("q", make_context(), "s0000", "task00")
    assert rec.generated_text == " paris"
    assert len(session.requests) == 3


def test_http_429_every_time_is_transport_error():
    session = FakeSession([UnreadResponse(429, None)] * 3)
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    with pytest.raises(TransportError, match="HTTP 429"):
        client.invoke("q", make_context(), "s0000", "task00")
    assert len(session.requests) == 3


@pytest.mark.parametrize("retry_after,backoff,want", [
    ("2", 0.0, [2.0, 2.0]), ("2", 5.0, [5.0, 10.0]),
    ("0.25", 0.0, [0.25, 0.25]), ("Wed, 21 Oct 2026 07:28:00 GMT", 0.1,
                                   [0.1, 0.2]), (None, 0.0, [0.0, 0.0])])
def test_http_429_waits_for_the_larger_of_retry_after_and_backoff(
        monkeypatch, retry_after, backoff, want):
    slept = []
    monkeypatch.setattr("perfest.services.time.sleep", slept.append)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    session = FakeSession([UnreadResponse(429, None, headers)] * 3)
    client = HttpClient(http_descriptor(), session=session, backoff=backoff)
    with pytest.raises(TransportError):
        client.invoke("q", make_context(), "s0000", "task00")
    assert slept == want


PROMPT_TOKENS = [  # make_context's examples, then "capital of france?"
    ("q1", 0, None), ("\n", 2, -1.0), ("a1", 3, -2.0), ("\n\n", 5, -1.5),
    ("q2", 7, -2.5), ("\n", 9, -1.0), ("a2", 10, -2.0), ("\n\n", 12, -1.5),
    ("capital", 14, -0.1), (" of", 21, -0.2), (" france", 24, -0.3),
    ("?", 31, -0.4)]


def echo_body(tokens, offsets=True):
    lp = {"tokens": [t for t, _, _ in tokens],
          "token_logprobs": [v for _, _, v in tokens],
          "top_logprobs": [None] * len(tokens)}
    if offsets is True:
        lp["text_offset"] = [at for _, at, _ in tokens]
    elif offsets is not None:
        lp["text_offset"] = offsets
    return {"choices": [{"text": "", "logprobs": lp}]}


def test_http_ppl_scores_only_the_input_tokens():
    session = FakeSession([FakeResponse(200, completion_body()),
                           FakeResponse(200, echo_body(PROMPT_TOKENS))])
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    rec = client.invoke("capital of france?", make_context(), "s0000",
                        "task00")
    assert session.requests[1][1]["prompt"][14:] == "capital of france?"
    assert rec.input_scores == tuple(float(np.exp(v))
                                     for v in (-0.1, -0.2, -0.3, -0.4))


def test_http_ppl_without_examples_drops_the_unconditioned_token():
    tokens = [("capital", 0, None), (" of", 7, -0.2), (" france", 10, -0.3),
              ("?", 17, -0.4)]
    session = FakeSession([FakeResponse(200, completion_body()),
                           FakeResponse(200, echo_body(tokens))])
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    context = ContextSpec(context_id="ctx00", examples=(), count=0)
    rec = client.invoke("capital of france?", context, "s0000", "task00")
    assert rec.input_scores == tuple(float(np.exp(v))
                                     for v in (-0.2, -0.3, -0.4))


@pytest.mark.parametrize("offsets", [None, [0, 14, 22], "0 14 22"],
                         ids=["missing", "short", "not-a-list"])
def test_http_echo_without_token_offsets_is_capability_error(offsets):
    session = FakeSession([FakeResponse(200, completion_body()),
                           FakeResponse(200, echo_body(PROMPT_TOKENS,
                                                       offsets))])
    client = HttpClient(http_descriptor(), session=session, backoff=0.0)
    with pytest.raises(CapabilityError, match="text_offset"):
        client.invoke("capital of france?", make_context(), "s0000",
                      "task00")
