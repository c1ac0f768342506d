"""Black-box service layer: a deterministic synthetic marketplace for
desk-scale experiments plus an HTTP client for real logprob-exposing
services.

Synthetic marketplace model
---------------------------
Service i has skill s_i, task j has difficulty delta_j, context k of task
j has helpfulness h_jk. Per-sample correctness probability is

    q = clip(s_i - delta_j + h_jk, 0, 1)

and each sample's F1 is q plus noise of scale 0.4*q*(1-q), snapped to a
0.1 grid (so q = 1 yields an exactly correct answer). Answers are built
from 10 reference tokens with round(10*f) of them reproduced, making the
token-overlap F1 equal f by construction.

Token probabilities track correctness at strength feature_fidelity
(phi): the per-sample target top-1 mass is

    mu_gen = (1 - phi) * 0.62 + phi * (0.35 + 0.60 * f + eta_gen)

with eta_gen ~ N(0, 0.08), and analogously mu_inp for the input-token
reconstruction scores with an independent eta_inp, so NLL and PPL carry
independently-noised views of the same signal. Step probabilities are
drawn in a +/-0.05 Beta(2,2) band around the target, floored at
0.9 * phi * f**8 (which pins the fully-confident extreme: phi = 1 and
f = 1 force top-1 >= 0.9). At phi = 0 no quantity depends on f.

A simulated fine-tune lifts per-sample correctness to
clip(1.3 * q + 0.05): away from the q ~ 0.73 saturation point the gain
0.3 * q + 0.05 grows with the service's base correctness, so on hard
tasks better-performing services gain more. This grounds the
fine-tune-target ranking scenario.

The generator fills each setting's SettingBatch straight from the arrays
it draws; no per-sample record is built, and RecordStore.get hands out
the batch. Records come from it only when asked for
(SettingBatch.records), and are equal, field by field, to the ones a
per-sample loop over the same draws would build.
Mock invoke() and the HTTP client return InvocationRecords.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .core import (ContextSpec, InvocationRecord, RecordStore, SettingBatch,
                   TaskDataset, TokenStep)
from .errors import (CapabilityError, ConfigurationError, TransportError,
                     ValidationError, is_int, is_real)
from .seeding import derive_rng

OUTPUT_STEPS = 4
INPUT_SCORE_LEN = 5
REF_TOKEN_COUNT = 10
CONTEXT_EXAMPLES = 3
# the most records a marketplace may hold: 16 times the 5 x 13 x 10 x 400
# criterion-5 marketplace, about 1 GB for synth to hold
MAX_RECORDS = 2 ** 22

_REF_TOKENS = tuple(f"ref{i}" for i in range(REF_TOKEN_COUNT))
_BAD_TOKENS = tuple(f"off{i}" for i in range(REF_TOKEN_COUNT))
_REF_TEXT = " ".join(_REF_TOKENS)
_PRED_TEXTS = tuple(" ".join(_REF_TOKENS[:r] + _BAD_TOKENS[r:])
                    for r in range(REF_TOKEN_COUNT + 1))
_PRED_ARRAY = np.array(_PRED_TEXTS, dtype=object)
# [r, t]: step t's candidates for an answer with r reference tokens; the
# answer reproduces reference token t if t < r, then two alternatives
_CANDIDATES = np.array(
    [[(tok, "alt1", "alt2")
      for tok in (_REF_TOKENS[:r] + _BAD_TOKENS[r:])[:OUTPUT_STEPS]]
     for r in range(REF_TOKEN_COUNT + 1)], dtype=object)


@dataclass(frozen=True)
class ServiceDescriptor:
    service_id: str
    kind: str  # "mock" | "http"
    capabilities: dict = field(default_factory=dict)
    # mock: its marketplace's MarketplaceConfig fields; http: see HttpClient
    config: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MarketplaceConfig:
    n_services: int = 5
    n_tasks: int = 13
    samples_per_task: int = 400
    contexts_per_task: int = 10
    skill_range: tuple = (0.2, 0.9)
    difficulty_range: tuple = (0.0, 0.45)
    helpfulness_range: tuple = (0.0, 0.10)
    feature_fidelity: float = 0.9
    seed: int = 0

    def __post_init__(self):
        """Raises ConfigurationError for a value of the wrong type or out
        of range, before any array is made: counts are integers >= 1, and
        the records synth makes, n_services * n_tasks * contexts_per_task
        * samples_per_task, number at most MAX_RECORDS (2**22); the seed
        is an integer. That bounds every array synth and a mock invoke
        (which draws every sample of its setting) size by the counts."""
        for name in ("skill_range", "difficulty_range", "helpfulness_range"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                lo = hi = None
            if not (is_real(lo, 0.0, 1.0) and is_real(hi, lo, 1.0)):
                raise ConfigurationError(f"{name} must be within [0, 1]")
        if not is_real(self.feature_fidelity, 0.0, 1.0):
            raise ConfigurationError("feature_fidelity must be in [0, 1]")
        counts = ("n_services", "n_tasks", "contexts_per_task",
                  "samples_per_task")
        for name in counts:
            if not is_int(getattr(self, name), 1, MAX_RECORDS):
                raise ConfigurationError(
                    f"{name} must be an integer in [1, {MAX_RECORDS}]")
        records = math.prod(int(getattr(self, name)) for name in counts)
        if records > MAX_RECORDS:
            raise ConfigurationError(
                f"{' * '.join(counts)} is {records} records, more than "
                f"{MAX_RECORDS}")
        if not is_int(self.seed):
            raise ConfigurationError("seed must be an integer")

    def service_id(self, i):
        return f"svc{i:02d}"

    def task_id(self, j):
        return f"task{j:02d}"

    def context_id(self, k):
        return f"ctx{k:02d}"

    def sample_id(self, m):
        return f"s{m:04d}"


@dataclass(frozen=True)
class MarketplaceTruth:
    """Generator parameters: the marketplace's own ground truth."""

    skills: np.ndarray        # (I,)
    difficulties: np.ndarray  # (J,)
    helpfulness: np.ndarray   # (J, K)

    def correctness(self, i, j, k) -> float:
        return float(np.clip(self.skills[i] - self.difficulties[j]
                             + self.helpfulness[j, k], 0.0, 1.0))

    def simulated_finetune_diff(self, i, j, k) -> float:
        """Expected performance gain of fine-tuning service i on task j."""
        q = self.correctness(i, j, k)
        return float(np.clip(1.3 * q + 0.05, 0.0, 1.0)) - q


def marketplace_truth(config: MarketplaceConfig) -> MarketplaceTruth:
    rng = derive_rng(config.seed, "marketplace-params")
    skills = rng.uniform(*config.skill_range, size=config.n_services)
    difficulties = rng.uniform(*config.difficulty_range, size=config.n_tasks)
    helpfulness = rng.uniform(*config.helpfulness_range,
                              size=(config.n_tasks,
                                    config.contexts_per_task))
    return MarketplaceTruth(skills=skills, difficulties=difficulties,
                            helpfulness=helpfulness)


def _task_columns(config: MarketplaceConfig, j: int, samples: range) -> dict:
    """The SettingBatch columns all settings of task j share over test
    samples `samples`: sample ids, input texts and references, and the
    step and score layout."""
    task_id = config.task_id(j)
    m = len(samples)
    return {
        "sample_ids": np.array([config.sample_id(s) for s in samples],
                               dtype=object),
        "input_texts": np.array([f"{task_id} query {s}" for s in samples],
                                dtype=object),
        "references": np.full(m, _REF_TEXT, dtype=object),
        "step_offsets": np.arange(m + 1) * OUTPUT_STEPS,
        "score_offsets": np.arange(m + 1) * INPUT_SCORE_LEN,
        "has_scores": np.ones(m, dtype=bool),
    }


def _draws(config: MarketplaceConfig, i: int, j: int, k: int,
           samples: range):
    """Setting (i, j, k)'s draws for test samples `samples`: a cut of the
    draws for every sample, deterministic in (config.seed, i, j, k)."""
    m = config.samples_per_task
    rng = derive_rng(config.seed, "records", i, j, k)
    return tuple(a[samples.start:samples.stop] for a in (
        rng.normal(0.0, 1.0, size=m), rng.normal(0.0, 0.08, size=m),
        rng.normal(0.0, 0.08, size=m),
        rng.beta(2.0, 2.0, size=(m, OUTPUT_STEPS)),
        rng.beta(2.0, 2.0, size=(m, INPUT_SCORE_LEN))))


def _generate_settings(config: MarketplaceConfig, truth: MarketplaceTruth,
                       j: int, pairs, samples: range) -> list:
    """The batches of task j's settings (i, k) in `pairs`, over the test
    samples in range `samples`.

    Each setting draws from its own stream; the arithmetic is elementwise,
    so running it once over the stacked draws gives every setting the
    values it would get alone.
    """
    phi = config.feature_fidelity
    q = np.array([truth.correctness(i, j, k) for i, k in pairs])[:, None]
    eps, eta_gen, eta_inp, band_gen, band_inp = map(
        np.stack, zip(*(_draws(config, i, j, k, samples) for i, k in pairs)))

    sigma = 0.4 * q * (1.0 - q)
    f_grid = np.rint(10.0 * np.clip(q + sigma * eps, 0.0, 1.0)).astype(int)
    f = f_grid / 10.0

    mu_gen = (1 - phi) * 0.62 + phi * (0.35 + 0.60 * f + eta_gen)
    mu_inp = (1 - phi) * 0.58 + phi * (0.33 + 0.58 * f + eta_inp)
    floor = np.maximum(0.02, 0.9 * phi * f ** 8)
    p1 = np.clip(mu_gen[..., None] + 0.10 * (band_gen - 0.5),
                 floor[..., None], 0.995)
    scores = np.clip(mu_inp[..., None] + 0.10 * (band_inp - 0.5), 0.02, 0.995)
    p2 = np.minimum(p1, 0.55 * (1.0 - p1))
    p3 = np.minimum(p2, 0.30 * (1.0 - p1))

    n = len(pairs)
    candidates = _CANDIDATES[f_grid]
    keep = np.ones(candidates.shape, dtype=bool)
    # mimic services that return a single candidate
    keep[..., 1:] = (p1 <= 0.97)[..., None]
    per_step = keep.sum(axis=3).reshape(n, -1)
    cand_offsets = np.zeros((n, per_step.shape[1] + 1), dtype=np.int64)
    np.cumsum(per_step, axis=1, out=cand_offsets[:, 1:])
    ends = np.cumsum(cand_offsets[:, -1]).tolist()
    cand_tokens = candidates[keep]
    cand_probs = np.stack([p1, p2, p3], axis=3)[keep]
    # a copy: a view would keep every batch's candidate table alive
    tokens = candidates[..., 0].reshape(n, -1).copy()
    generated = _PRED_ARRAY[f_grid]
    scores = scores.reshape(n, -1)
    columns = _task_columns(config, j, samples)
    return [SettingBatch(
        key=(config.service_id(i), config.task_id(j), config.context_id(k)),
        generated_texts=generated[s], tokens=tokens[s],
        cand_offsets=cand_offsets[s], cand_tokens=cand_tokens[a:b],
        cand_probs=cand_probs[a:b], scores=scores[s], **columns)
        for s, ((i, k), a, b) in enumerate(zip(pairs, [0] + ends, ends))]


def synth_marketplace(config: MarketplaceConfig):
    """Generate the full marketplace: service descriptors, task datasets,
    and a record store covering every (service, task, context) triple.

    Each task's test split holds the samples its records answer; its train
    split lists example queries that nothing in the package reads."""
    truth = marketplace_truth(config)
    services = [ServiceDescriptor(
        service_id=config.service_id(i), kind="mock",
        capabilities={"generation": True, "input_scoring": True,
                      "top_k_depth": 3},
        config=asdict(config))
        for i in range(config.n_services)]

    tasks = []
    store = RecordStore()
    pairs = [(i, k) for i in range(config.n_services)
             for k in range(config.contexts_per_task)]
    for j in range(config.n_tasks):
        task_id = config.task_id(j)
        batches = _generate_settings(config, truth, j, pairs,
                                     range(config.samples_per_task))
        test_samples = tuple(zip(batches[0].sample_ids.tolist(),
                                 batches[0].input_texts.tolist(),
                                 batches[0].references.tolist()))
        train_samples = tuple(
            (f"tr{s:03d}", f"{task_id} train query {s}", _REF_TEXT)
            for s in range(CONTEXT_EXAMPLES * config.contexts_per_task))
        tasks.append(TaskDataset(task_id=task_id, samples=test_samples,
                                 split="test"))
        tasks.append(TaskDataset(task_id=task_id, samples=train_samples,
                                 split="train"))
        for batch in batches:
            store.add(batch)
    return services, tasks, store


def _mock_index(config, name, text, count):
    """The index v < count whose generated id, getattr(config, name)(v),
    is `text`; ConfigurationError for any other text."""
    make = getattr(config, name)
    digits = text[len(text.rstrip("0123456789")):]
    try:
        v = int(digits)
    except ValueError:  # no digits, or more than int's digit limit
        v = count
    if v >= count or make(v) != text:
        raise ConfigurationError(f"no mock {name} {text!r}: the generated "
                                 f"ids are {make(0)} to {make(count - 1)}")
    return v


def invoke(service: ServiceDescriptor, input_text: str,
           context: ContextSpec, sample_id: str, task_id: str,
           seed: int = 0) -> InvocationRecord:
    """Single invocation. A mock service is the marketplace its config's
    MarketplaceConfig fields describe, `seed` standing in for a missing
    seed; HTTP services go through HttpClient."""
    if service.kind == "mock":
        names = {f.name for f in fields(MarketplaceConfig)}
        try:
            c = MarketplaceConfig(**{"seed": seed, **{
                k: v for k, v in service.config.items() if k in names}})
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"service {service.service_id!r} config: {exc}") from exc
        i = _mock_index(c, "service_id", service.service_id, c.n_services)
        j = _mock_index(c, "task_id", task_id, c.n_tasks)
        k = _mock_index(c, "context_id", context.context_id,
                        c.contexts_per_task)
        s = _mock_index(c, "sample_id", sample_id, c.samples_per_task)
        batch, = _generate_settings(c, marketplace_truth(c), j, [(i, k)],
                                    range(s, s + 1))
        return batch.records()[0]
    if service.kind == "http":
        return HttpClient(service).invoke(input_text, context, sample_id,
                                          task_id)
    raise ConfigurationError(f"unknown service kind {service.kind!r}")


# ---------------------------------------------------------------------------
# HTTP client (OpenAI-compatible completions with logprobs)

MAX_ATTEMPTS = 3
BACKOFF = 0.5           # seconds before the first retry, doubling after
TIMEOUT = 60.0          # seconds per request
MAX_RETRY_WAIT = 60.0   # the longest Retry-After the client waits for


def _retry_after(resp) -> float:
    """A response's numeric Retry-After header in seconds, else 0."""
    try:
        seconds = float(resp.headers.get("Retry-After"))
    except (TypeError, ValueError):
        return 0.0
    return 0.0 if math.isnan(seconds) else seconds


def _text(value, what) -> str:
    """``value``, a string UTF-8 can encode (a JSON escape can hold a lone
    surrogate, which it cannot); CapabilityError for anything else."""
    try:
        if isinstance(value, str):
            value.encode("utf-8")
            return value
    except UnicodeEncodeError:
        pass
    raise CapabilityError(f"{what} {value!r} is not a UTF-8 string")


def _prob(logprob) -> float:
    """exp of a response's logprob, a finite number <= 0 or -inf."""
    if is_real(logprob, high=0.0) or logprob == -math.inf:
        return float(np.exp(float(logprob)))
    raise CapabilityError(f"logprob {logprob!r} is not a number <= 0")


class HttpClient:
    """Completions client for services that expose top-k token logprobs.

    Connection failures, 5xx and 429 responses are tried up to
    MAX_ATTEMPTS times with exponential backoff from BACKOFF (after a 429,
    at least its numeric Retry-After); a 429 asking for more than
    MAX_RETRY_WAIT seconds, and any other 4xx, raise TransportError at once.
    A response that lacks a logprob field, or holds one of another shape
    (a logprob that is not a number <= 0, a token or text that is not a
    UTF-8 string), raises CapabilityError, and nothing is fabricated. Input
    scoring uses the echo-with-logprobs form when the service supports it
    and keeps the input text's tokens only, found by their `text_offset`.
    Before any request, a descriptor without a string `endpoint`, whose
    `max_tokens` or `top_k_depth` is not an integer >= 1 (a float, a
    boolean or a string is none), or whose
    `input_scoring` is not a boolean, raises ConfigurationError, and
    input text UTF-8 cannot encode (a lone surrogate, as from argv bytes
    that are not UTF-8) raises ValidationError, since no record file
    could hold it.
    """

    def __init__(self, descriptor: ServiceDescriptor, session=None):
        self.descriptor = descriptor
        cfg = descriptor.config
        self.endpoint = cfg.get("endpoint")
        if not isinstance(self.endpoint, str):
            raise ConfigurationError(
                f"service {descriptor.service_id!r} config: endpoint "
                f"{self.endpoint!r} is not a URL string")
        self.top_k = descriptor.capabilities.get("top_k_depth", 5)
        self.max_tokens = cfg.get("max_tokens", 32)
        for name, value in (("top_k_depth", self.top_k),
                            ("max_tokens", self.max_tokens)):
            if not is_int(value, 1):
                raise ConfigurationError(
                    f"service {descriptor.service_id!r} config: {name} "
                    f"{value!r} is not an integer >= 1")
        # a string such as "false" would be true
        self.input_scoring = descriptor.capabilities.get("input_scoring",
                                                         False)
        if not isinstance(self.input_scoring, bool):
            raise ConfigurationError(
                f"service {descriptor.service_id!r} config: input_scoring "
                f"{self.input_scoring!r} is not a boolean")
        if session is None:
            import requests
            session = requests.Session()
        self.session = session

    def _post(self, payload):
        last = None
        for attempt in range(MAX_ATTEMPTS):
            delay = BACKOFF * 2 ** attempt
            try:
                resp = self.session.post(self.endpoint, json=payload,
                                         timeout=TIMEOUT)
            except Exception as exc:  # connection-level failure
                last = exc
            else:
                status = resp.status_code
                if status < 400:
                    return resp
                if status < 500 and status != 429:
                    raise TransportError(
                        f"service {self.descriptor.service_id} rejected "
                        f"the request: HTTP {status}")
                last = RuntimeError(f"HTTP {status}")
                if status == 429:
                    wait = _retry_after(resp)
                    if wait > MAX_RETRY_WAIT:
                        raise TransportError(
                            f"service {self.descriptor.service_id} asked to "
                            f"wait {wait:g} s before a retry (HTTP 429), "
                            f"more than {MAX_RETRY_WAIT:g} s")
                    delay = max(delay, wait)
            if attempt + 1 < MAX_ATTEMPTS:
                time.sleep(delay)
        raise TransportError(
            f"service {self.descriptor.service_id} unreachable after "
            f"{MAX_ATTEMPTS} attempts: {last}")

    def _completion_payload(self, prompt, echo):
        payload = {
            "model": self.descriptor.config.get(
                "model", self.descriptor.service_id),
            "prompt": prompt,
            "logprobs": self.top_k,
            "max_tokens": 0 if echo else self.max_tokens,
            "echo": echo,
            "temperature": 0,
        }
        return payload

    @staticmethod
    def _steps_from_logprobs(lp) -> tuple:
        tokens = lp.get("tokens")
        top = lp.get("top_logprobs")
        if not (isinstance(tokens, list) and isinstance(top, list)
                and len(tokens) == len(top)):
            raise CapabilityError(
                "response lacks top logprobs for each token; request the "
                "completion with logprobs enabled")
        steps = []
        for tok, cand in zip(tokens, top):
            if not isinstance(cand, dict):
                raise CapabilityError(
                    f"no candidate logprobs object for token {tok!r}")
            pairs = sorted(((_text(t, "token"), _prob(v))
                            for t, v in cand.items()), key=lambda tp: -tp[1])
            steps.append(TokenStep(token=_text(tok, "token"),
                                   top_probs=tuple(pairs)))
        return tuple(steps)

    @staticmethod
    def _first_choice(resp, what) -> tuple:
        """The first choice of a response body and its logprobs object;
        CapabilityError if the body is not JSON or lacks either."""
        try:
            choice = resp.json()["choices"][0]
            lp = choice["logprobs"]
        except (ValueError, RecursionError, TypeError, KeyError,
                IndexError) as exc:
            # RecursionError: nesting deeper than the decoder's stack
            raise CapabilityError(
                f"malformed {what} response: {exc!r}") from exc
        if not (isinstance(choice, dict) and isinstance(lp, dict)):
            raise CapabilityError(f"malformed {what} response: choice "
                                  f"{choice!r} has no logprobs object")
        return choice, lp

    @staticmethod
    def _input_scores(lp, start, end) -> tuple:
        """Probabilities of the echoed tokens that start in prompt
        characters [start, end), the input text after the in-context
        examples; PPL scores the input alone."""
        values = lp.get("token_logprobs")
        offsets = lp.get("text_offset")
        if not isinstance(values, list):
            raise CapabilityError("echo scoring returned no token logprobs")
        if not (isinstance(offsets, list) and len(offsets) == len(values)
                and all(map(is_int, offsets))):
            raise CapabilityError(
                "echo scoring returned no integer text_offset for each "
                "token, so the input text's tokens cannot be told apart")
        # the prompt's first token has no conditioning context; services
        # emit null for it
        return tuple(_prob(v) for v, at in zip(values, offsets)
                     if v is not None and start <= at < end)

    def invoke(self, input_text, context: ContextSpec, sample_id,
               task_id) -> InvocationRecord:
        try:
            input_text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValidationError(f"input text {input_text!r} is not UTF-8 "
                                  "text", field="input_text") from exc
        prompt = "".join(f"{q}\n{a}\n\n" for q, a in context.examples)
        prompt += input_text
        choice, lp = self._first_choice(
            self._post(self._completion_payload(prompt, echo=False)),
            "completion")
        steps = self._steps_from_logprobs(lp)
        text = _text(choice.get("text", ""), "completion text")

        input_scores = None
        if self.input_scoring:
            _, echo = self._first_choice(
                self._post(self._completion_payload(prompt, echo=True)),
                "echo scoring")
            input_scores = self._input_scores(
                echo, len(prompt) - len(input_text), len(prompt))

        rec = InvocationRecord(
            service_id=self.descriptor.service_id, task_id=task_id,
            context_id=context.context_id, sample_id=sample_id,
            input_text=input_text, generated_text=text,
            output_steps=steps, input_scores=input_scores, reference=None)
        SettingBatch.from_records([rec]).validate()
        return rec
