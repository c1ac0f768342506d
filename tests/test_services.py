"""Synthetic service marketplace and the HTTP completions client."""

import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest

from perfest.core import ContextSpec, write_records
from perfest.errors import CapabilityError, ConfigurationError, TransportError
from perfest.evaluation import f1_score, task_performance
from perfest.features import FeatureKind, extract_task_features
from perfest.feature_selection import pearson
from perfest.services import (
    MAX_RECORDS,
    HttpClient,
    MarketplaceConfig,
    ServiceDescriptor,
    invoke,
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
        store.get(*key).validate()
        recs = store.get(*key).records()
        assert len(recs) == cfg.samples_per_task
        for rec in recs:
            assert rec.output_steps
            for step in rec.output_steps:
                probs = [p for _, p in step.top_probs]
                assert probs == sorted(probs, reverse=True)
                assert sum(probs) <= 1.0 + 1e-9
            assert rec.reference is not None
            assert rec.input_scores is not None


def test_synth_mock_configs_hold_only_marketplace_config_fields():
    names = {f.name for f in dataclasses.fields(MarketplaceConfig)}
    for cfg in (small_config(),
                small_config(skill_range=(0.3, 0.6),
                             difficulty_range=(0.5, 0.8),
                             helpfulness_range=(0.2, 0.3))):
        services, _, store = synth_marketplace(cfg)
        for service in services:
            assert set(service.config) <= names
            assert MarketplaceConfig(**service.config) == cfg
            # as perfest invoke reads it from services.json: ranges as lists
            read = ServiceDescriptor(**json.loads(json.dumps(
                dataclasses.asdict(service))))
            for task, context in [("task00", "ctx00"), ("task01", "ctx01")]:
                rec = store.get(service.service_id, task, context).records()[3]
                assert invoke(read, rec.input_text, ContextSpec(context, ()),
                              rec.sample_id, task) == rec


@pytest.mark.parametrize("counts", [
    {"n_tasks": MAX_RECORDS + 1},
    {"n_services": 2, "samples_per_task": MAX_RECORDS // 2 + 1},
    {"n_tasks": 2 ** 11, "contexts_per_task": 2 ** 11, "n_services": 2}])
def test_counts_past_the_record_bound_are_rejected(counts):
    fields = {"n_services": 1, "n_tasks": 1, "contexts_per_task": 1,
              "samples_per_task": 1, **counts}
    with pytest.raises(ConfigurationError, match=next(iter(counts))):
        MarketplaceConfig(**fields)


def test_counts_at_the_record_bound_are_accepted():
    cfg = MarketplaceConfig(n_services=2, n_tasks=2, contexts_per_task=2,
                            samples_per_task=MAX_RECORDS // 8)
    assert cfg.samples_per_task == 2 ** 19


def test_mock_invoke_matches_store():
    cfg = small_config()
    services, _, store = synth_marketplace(cfg)
    by_id = {s.service_id: s for s in services}
    m = cfg.samples_per_task
    for service, task, context in store.keys():
        recs = store.get(service, task, context).records()
        for s in (0, m // 2, m - 1):
            got = invoke(by_id[service], recs[s].input_text,
                         ContextSpec(context, ()), recs[s].sample_id, task)
            assert got == recs[s]


def test_mock_invoke_generates_only_its_sample():
    cfg = MarketplaceConfig(n_services=1, n_tasks=1,
                            samples_per_task=200_000, contexts_per_task=1)
    tracemalloc.start()
    try:
        rec = invoke(ServiceDescriptor("svc00", "mock",
                                       config=dataclasses.asdict(cfg)),
                     "", ContextSpec("ctx00", ()), "s0003", "task00")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.sample_id == "s0003"
    # the draws of all 200000 samples take 19.2 MB; building every
    # sample's record columns took 199 MB
    assert peak < 50e6


def test_synthesized_store_holds_only_the_bytes_it_exposes():
    _, _, store = synth_marketplace(small_config(n_services=2, n_tasks=3,
                                                 seed=1))
    batches = [store.get(*key) for key in store.keys()]
    columns = {id(c): c for batch in batches
               for c in (getattr(batch, f.name)
                         for f in dataclasses.fields(batch))
               if isinstance(c, np.ndarray)}
    roots = {}
    for column in columns.values():
        while isinstance(column.base, np.ndarray):
            column = column.base
        roots[id(column)] = column
    # a column that is a view keeps its whole root alive: a token column
    # viewed out of its task's candidate table kept three times its bytes
    assert sum(r.nbytes for r in roots.values()) == \
        sum(c.nbytes for c in columns.values())


def test_mock_invoke_bad_ids_rejected():
    cfg = small_config()
    services, _, _ = synth_marketplace(cfg)
    ctx = ContextSpec("ctx00", ())
    with pytest.raises(ConfigurationError):
        invoke(services[0], "q", ctx, "s9999", "task00")


def test_full_fidelity_max_skill_is_correct_and_sharp():
    cfg = small_config(n_services=1, n_tasks=1, samples_per_task=50,
                       skill_range=(1.0, 1.0), difficulty_range=(0.0, 0.0),
                       feature_fidelity=1.0, seed=3)
    _, _, store = synth_marketplace(cfg)
    for key in store.keys():
        for rec in store.get(*key).records():
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
        batch = store.get(*key)
        table = extract_task_features(batch, (FeatureKind.NLL,))
        nll_means.append(float(np.mean(table[FeatureKind.NLL])))
        perfs.append(task_performance(batch))
    assert abs(pearson(nll_means, perfs)) < 0.15


def test_full_fidelity_feature_signs():
    cfg = MarketplaceConfig(n_services=3, n_tasks=8, samples_per_task=80,
                            contexts_per_task=3, feature_fidelity=1.0,
                            seed=19)
    _, _, store = synth_marketplace(cfg)
    nll_means, gap_means, perfs = [], [], []
    for key in store.keys():
        batch = store.get(*key)
        table = extract_task_features(batch,
                                      (FeatureKind.NLL, FeatureKind.GAP))
        nll_means.append(float(np.mean(table[FeatureKind.NLL])))
        gap_means.append(float(np.mean(table[FeatureKind.GAP])))
        perfs.append(task_performance(batch))
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

@pytest.fixture(autouse=True)
def slept(monkeypatch):
    """The HTTP client's retry waits, recorded instead of slept."""
    waits = []
    monkeypatch.setattr("perfest.services.time.sleep", waits.append)
    return waits


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
                       examples=(("q1", "a1"), ("q2", "a2")))


def test_http_invoke_builds_record_from_logprobs():
    session = FakeSession([
        FakeResponse(200, completion_body()),
        FakeResponse(200, completion_body(echo=True)),
    ])
    client = HttpClient(http_descriptor(), session=session)
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
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(CapabilityError):
        client.invoke("q", make_context(), "s0000", "task00")


def test_http_no_input_scoring_capability_skips_echo():
    session = FakeSession([FakeResponse(200, completion_body())])
    client = HttpClient(http_descriptor(input_scoring=False),
                        session=session)
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
    client = HttpClient(http_descriptor(), session=session)
    rec = client.invoke("q", make_context(), "s0000", "task00")
    assert rec.generated_text == " paris"
    assert len(session.requests) == 4


def test_http_exhausted_retries_is_transport_error():
    session = FakeSession([FakeResponse(500, {})] * 3)
    client = HttpClient(http_descriptor(), session=session)
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
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(CapabilityError, match="malformed"):
        client.invoke("q", make_context(), "s0000", "task00")


class UnreadResponse(FakeResponse):
    def json(self):
        raise AssertionError("a rejected request's body is not parsed")


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_http_client_error_raises_without_retry(status):
    session = FakeSession([UnreadResponse(status, None)] * 3)
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(TransportError, match=f"HTTP {status}"):
        client.invoke("q", make_context(), "s0000", "task00")
    assert len(session.requests) == 1


def test_http_429_is_retried_then_succeeds():
    session = FakeSession([
        UnreadResponse(429, None),
        FakeResponse(200, completion_body()),
        FakeResponse(200, completion_body(echo=True)),
    ])
    client = HttpClient(http_descriptor(), session=session)
    rec = client.invoke("q", make_context(), "s0000", "task00")
    assert rec.generated_text == " paris"
    assert len(session.requests) == 3


def test_http_429_every_time_is_transport_error():
    session = FakeSession([UnreadResponse(429, None)] * 3)
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(TransportError, match="HTTP 429"):
        client.invoke("q", make_context(), "s0000", "task00")
    assert len(session.requests) == 3


@pytest.mark.parametrize("retry_after,backoff,want", [
    ("2", 0.0, [2.0, 2.0]), ("2", 5.0, [5.0, 10.0]),
    ("0.25", 0.0, [0.25, 0.25]), ("Wed, 21 Oct 2026 07:28:00 GMT", 0.1,
                                   [0.1, 0.2]), (None, 0.0, [0.0, 0.0]),
    # past MAX_RETRY_WAIT the tries end at once
    ("60", 0.0, [60.0, 60.0]), ("60.001", 0.0, []), ("86400", 0.5, []),
    ("1e20", 0.5, []), ("inf", 0.5, [])])
def test_http_429_waits_for_the_larger_of_retry_after_and_backoff(
        monkeypatch, slept, retry_after, backoff, want):
    monkeypatch.setattr("perfest.services.BACKOFF", backoff)
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    session = FakeSession([UnreadResponse(429, None, headers)] * 3)
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(TransportError):
        client.invoke("q", make_context(), "s0000", "task00")
    assert slept == want
    assert len(session.requests) == (3 if want else 1)


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
    client = HttpClient(http_descriptor(), session=session)
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
    client = HttpClient(http_descriptor(), session=session)
    context = ContextSpec(context_id="ctx00", examples=())
    rec = client.invoke("capital of france?", context, "s0000", "task00")
    assert rec.input_scores == tuple(float(np.exp(v))
                                     for v in (-0.2, -0.3, -0.4))


@pytest.mark.parametrize("offsets", [None, [0, 14, 22], "0 14 22"],
                         ids=["missing", "short", "not-a-list"])
def test_http_echo_without_token_offsets_is_capability_error(offsets):
    session = FakeSession([FakeResponse(200, completion_body()),
                           FakeResponse(200, echo_body(PROMPT_TOKENS,
                                                       offsets))])
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(CapabilityError, match="text_offset"):
        client.invoke("capital of france?", make_context(), "s0000",
                      "task00")


def with_choice(body, **changes):
    """``body`` with its first choice updated by ``changes``; a change
    to a logprobs key updates the choice's logprobs."""
    choice = dict(body["choices"][0])
    lp = dict(choice.get("logprobs") or {})
    for key, value in changes.items():
        if key in ("text", "logprobs"):
            choice[key] = value
        else:
            lp[key] = value
            choice["logprobs"] = lp
    return {"choices": [choice]}


MALFORMED_COMPLETIONS = {
    "logprobs-list": with_choice(completion_body(), logprobs=[1, 2]),
    "top-entry-list": with_choice(completion_body(),
                                  top_logprobs=[[" paris", -0.1]]),
    "logprob-string": with_choice(completion_body(),
                                  top_logprobs=[{" paris": "-0.1"}]),
    "logprob-huge-int": with_choice(completion_body(),
                                    top_logprobs=[{" paris": 10 ** 400}]),
    "logprob-positive": with_choice(completion_body(),
                                    top_logprobs=[{" paris": 0.5}]),
    "logprob-nan": with_choice(completion_body(),
                               top_logprobs=[{" paris": float("nan")}]),
    "text-number": with_choice(completion_body(), text=5),
    # a JSON escape can hold a lone surrogate, which UTF-8 cannot encode
    "text-lone-surrogate": with_choice(completion_body(), text="\ud800"),
    "candidate-lone-surrogate": with_choice(
        completion_body(), top_logprobs=[{" paris": -0.1, "\udfff": -3.0}]),
    "tokens-string": with_choice(completion_body(), tokens="ab",
                                 top_logprobs=[{"a": -0.1}, {"b": -0.2}]),
    "token-number": with_choice(completion_body(), tokens=[5]),
    "tokens-longer": with_choice(completion_body(),
                                 tokens=[" paris", " lyon"]),
}


@pytest.mark.parametrize("body", MALFORMED_COMPLETIONS.values(),
                         ids=MALFORMED_COMPLETIONS.keys())
def test_http_completion_of_another_shape_is_capability_error(body):
    session = FakeSession([FakeResponse(200, body),
                           FakeResponse(200, echo_body(PROMPT_TOKENS))])
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(CapabilityError):
        client.invoke("capital of france?", make_context(), "s0000",
                      "task00")
    assert len(session.requests) == 1


def test_http_completion_without_text_generates_empty_text():
    body = completion_body()
    del body["choices"][0]["text"]
    body["choices"][0]["logprobs"]["tokens"] = [""]
    session = FakeSession([FakeResponse(200, body)])
    client = HttpClient(http_descriptor(input_scoring=False),
                        session=session)
    rec = client.invoke("q", make_context(), "s0000", "task00")
    assert rec.generated_text == ""
    assert rec.output_steps[0].token == ""


MALFORMED_ECHOES = {
    "logprobs-list": with_choice(echo_body(PROMPT_TOKENS), logprobs=[]),
    "values-string": with_choice(echo_body(PROMPT_TOKENS),
                                 token_logprobs="x" * len(PROMPT_TOKENS)),
    "logprob-string": with_choice(echo_body(PROMPT_TOKENS), token_logprobs=[
        None] + ["-0.1"] * (len(PROMPT_TOKENS) - 1)),
    "logprob-huge-int": with_choice(echo_body(PROMPT_TOKENS), token_logprobs=[
        None] + [-10 ** 400] * (len(PROMPT_TOKENS) - 1)),
    "offset-string": with_choice(echo_body(PROMPT_TOKENS), text_offset=[
        str(at) for _, at, _ in PROMPT_TOKENS]),
}


@pytest.mark.parametrize("body", MALFORMED_ECHOES.values(),
                         ids=MALFORMED_ECHOES.keys())
def test_http_echo_of_another_shape_is_capability_error(body):
    session = FakeSession([FakeResponse(200, completion_body()),
                           FakeResponse(200, body)])
    client = HttpClient(http_descriptor(), session=session)
    with pytest.raises(CapabilityError):
        client.invoke("capital of france?", make_context(), "s0000",
                      "task00")
