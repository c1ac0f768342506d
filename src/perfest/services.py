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
it draws; no per-sample record is built. Records come from the batch when
the store is asked for them (RecordStore.get, save) and are equal, field
by field, to the ones a per-sample loop over the same draws would build.
Mock invoke() and the HTTP client return InvocationRecords.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (ContextSpec, InvocationRecord, RecordStore, SettingBatch,
                   TaskDataset, TokenStep)
from .errors import CapabilityError, ConfigurationError, TransportError
from .seeding import derive_rng

OUTPUT_STEPS = 4
INPUT_SCORE_LEN = 5
REF_TOKEN_COUNT = 10
CONTEXT_EXAMPLES = 3

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
    capabilities: dict = field(default_factory=lambda: {
        "generation": True, "input_scoring": True, "top_k_depth": 3})
    config: dict = field(default_factory=dict)

    def supports_input_scoring(self):
        return bool(self.capabilities.get("input_scoring", False))


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
        for name in ("skill_range", "difficulty_range", "helpfulness_range"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise ConfigurationError(f"{name} must be within [0, 1]")
        if not (0.0 <= self.feature_fidelity <= 1.0):
            raise ConfigurationError("feature_fidelity must be in [0, 1]")
        for name in ("n_services", "n_tasks", "samples_per_task",
                     "contexts_per_task"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")

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

    config: MarketplaceConfig
    skills: np.ndarray        # (I,)
    difficulties: np.ndarray  # (J,)
    helpfulness: np.ndarray   # (J, K)

    def correctness(self, i, j, k) -> float:
        return float(np.clip(self.skills[i] - self.difficulties[j]
                             + self.helpfulness[j, k], 0.0, 1.0))

    def finetuned_correctness(self, i, j, k) -> float:
        return float(np.clip(1.3 * self.correctness(i, j, k) + 0.05,
                             0.0, 1.0))

    def simulated_finetune_diff(self, i, j, k) -> float:
        """Expected performance gain of fine-tuning service i on task j."""
        return self.finetuned_correctness(i, j, k) - self.correctness(i, j, k)


def marketplace_truth(config: MarketplaceConfig) -> MarketplaceTruth:
    rng = derive_rng(config.seed, "marketplace-params")
    skills = rng.uniform(*config.skill_range, size=config.n_services)
    difficulties = rng.uniform(*config.difficulty_range, size=config.n_tasks)
    helpfulness = rng.uniform(*config.helpfulness_range,
                              size=(config.n_tasks,
                                    config.contexts_per_task))
    return MarketplaceTruth(config=config, skills=skills,
                            difficulties=difficulties,
                            helpfulness=helpfulness)


def _task_columns(config: MarketplaceConfig, j: int) -> dict:
    """The SettingBatch columns all settings of task j share: sample ids,
    input texts and references of its test split, and the step and score
    layout."""
    task_id = config.task_id(j)
    m = config.samples_per_task
    return {
        "sample_ids": np.array([config.sample_id(s) for s in range(m)],
                               dtype=object),
        "input_texts": np.array([f"{task_id} query {s}" for s in range(m)],
                                dtype=object),
        "references": np.full(m, _REF_TEXT, dtype=object),
        "step_offsets": np.arange(m + 1) * OUTPUT_STEPS,
        "score_offsets": np.arange(m + 1) * INPUT_SCORE_LEN,
        "has_scores": np.ones(m, dtype=bool),
    }


def _draws(config: MarketplaceConfig, i: int, j: int, k: int):
    """Setting (i, j, k)'s random draws, deterministic in (config.seed, i,
    j, k)."""
    m = config.samples_per_task
    rng = derive_rng(config.seed, "records", i, j, k)
    return (rng.normal(0.0, 1.0, size=m), rng.normal(0.0, 0.08, size=m),
            rng.normal(0.0, 0.08, size=m),
            rng.beta(2.0, 2.0, size=(m, OUTPUT_STEPS)),
            rng.beta(2.0, 2.0, size=(m, INPUT_SCORE_LEN)))


def _generate_settings(config: MarketplaceConfig, truth: MarketplaceTruth,
                       j: int, pairs, columns) -> list:
    """The batches of task j's settings (i, k) in `pairs`.

    Each setting draws from its own stream; the arithmetic is elementwise,
    so running it once over the stacked draws gives every setting the
    values it would get alone. `columns` is _task_columns(config, j).
    """
    phi = config.feature_fidelity
    q = np.array([truth.correctness(i, j, k) for i, k in pairs])[:, None]
    eps, eta_gen, eta_inp, band_gen, band_inp = map(
        np.stack, zip(*(_draws(config, i, j, k) for i, k in pairs)))

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
    tokens = candidates[..., 0].reshape(n, -1)
    generated = _PRED_ARRAY[f_grid]
    scores = scores.reshape(n, -1)
    return [SettingBatch(
        key=(config.service_id(i), config.task_id(j), config.context_id(k)),
        generated_texts=generated[s], tokens=tokens[s],
        cand_offsets=cand_offsets[s], cand_tokens=cand_tokens[a:b],
        cand_probs=cand_probs[a:b], scores=scores[s], **columns)
        for s, ((i, k), a, b) in enumerate(zip(pairs, [0] + ends, ends))]


def synth_marketplace(config: MarketplaceConfig):
    """Generate the full marketplace: service descriptors, task datasets
    (train split feeds contexts; test split is what gets invoked), and a
    record store covering every (service, task, context) triple."""
    truth = marketplace_truth(config)
    services = [ServiceDescriptor(
        service_id=config.service_id(i), kind="mock",
        capabilities={"generation": True, "input_scoring": True,
                      "top_k_depth": 3},
        config={"seed": config.seed, "service_index": i,
                "n_services": config.n_services, "n_tasks": config.n_tasks,
                "samples_per_task": config.samples_per_task,
                "contexts_per_task": config.contexts_per_task,
                "feature_fidelity": config.feature_fidelity})
        for i in range(config.n_services)]

    tasks = []
    store = RecordStore()
    pairs = [(i, k) for i in range(config.n_services)
             for k in range(config.contexts_per_task)]
    for j in range(config.n_tasks):
        task_id = config.task_id(j)
        columns = _task_columns(config, j)
        test_samples = tuple(zip(columns["sample_ids"].tolist(),
                                 columns["input_texts"].tolist(),
                                 columns["references"].tolist()))
        train_samples = tuple(
            (f"tr{s:03d}", f"{task_id} train query {s}", _REF_TEXT)
            for s in range(CONTEXT_EXAMPLES * config.contexts_per_task))
        tasks.append(TaskDataset(task_id=task_id, samples=test_samples,
                                 split="test"))
        tasks.append(TaskDataset(task_id=task_id, samples=train_samples,
                                 split="train"))
        for batch in _generate_settings(config, truth, j, pairs, columns):
            store.add(batch)
    return services, tasks, store


def marketplace_contexts(config: MarketplaceConfig, task_index: int):
    """The ContextSpec objects for one task (3 train examples each)."""
    task_id = config.task_id(task_index)
    out = []
    for k in range(config.contexts_per_task):
        examples = tuple(
            (f"{task_id} train query {k * CONTEXT_EXAMPLES + e}", _REF_TEXT)
            for e in range(CONTEXT_EXAMPLES))
        out.append(ContextSpec(context_id=config.context_id(k),
                               examples=examples, count=CONTEXT_EXAMPLES))
    return out


def _mock_index(text, prefix, name, count):
    try:
        v = int(text.removeprefix(prefix))
    except ValueError as exc:
        raise ConfigurationError(
            f"mock ids must follow the generator's naming: {exc}") from exc
    if not (0 <= v < count):
        raise ConfigurationError(f"{name} index {v} out of range")
    return v


def mock_task_index(config: MarketplaceConfig, task_id: str) -> int:
    """Index of a mock task id such as ``task03``."""
    return _mock_index(task_id, "task", "task", config.n_tasks)


def _mock_indices(config, service_id, task_id, context_id, sample_id):
    return (_mock_index(service_id, "svc", "service", config.n_services),
            mock_task_index(config, task_id),
            _mock_index(context_id, "ctx", "context",
                        config.contexts_per_task),
            _mock_index(sample_id, "s", "sample", config.samples_per_task))


def invoke(service: ServiceDescriptor, input_text: str,
           context: ContextSpec, sample_id: str, task_id: str,
           mock_config: MarketplaceConfig | None = None,
           client=None) -> InvocationRecord:
    """Single invocation. Mock services are deterministic in
    (config seed, service, task, context, sample); HTTP services go
    through HttpClient."""
    if service.kind == "mock":
        if mock_config is None:
            raise ConfigurationError("mock invocation needs its "
                                     "MarketplaceConfig")
        truth = marketplace_truth(mock_config)
        i, j, k, s = _mock_indices(mock_config, service.service_id, task_id,
                                   context.context_id, sample_id)
        batch, = _generate_settings(mock_config, truth, j, [(i, k)],
                                    _task_columns(mock_config, j))
        return batch.take([s]).records()[0]
    if service.kind == "http":
        client = client or HttpClient(service)
        return client.invoke(input_text, context, sample_id, task_id)
    raise ConfigurationError(f"unknown service kind {service.kind!r}")


# ---------------------------------------------------------------------------
# HTTP client (OpenAI-compatible completions with logprobs)

def _retry_after(resp) -> float:
    """A response's numeric Retry-After header in seconds, else 0."""
    try:
        seconds = float(resp.headers.get("Retry-After"))
    except (TypeError, ValueError):
        return 0.0
    return seconds if math.isfinite(seconds) else 0.0


class HttpClient:
    """Completions client for services that expose top-k token logprobs.

    Connection failures, 5xx and 429 responses are retried up to
    `max_attempts` times with exponential backoff (after a 429, at least
    its numeric Retry-After); any other 4xx raises TransportError at once.
    Responses missing logprob fields raise CapabilityError and
    nothing is fabricated. Input scoring uses the echo-with-logprobs
    form when the service supports it and keeps the input text's tokens
    only, found by their `text_offset`.
    """

    def __init__(self, descriptor: ServiceDescriptor, session=None,
                 max_attempts: int = 3, backoff: float = 0.5,
                 timeout: float = 60.0):
        self.descriptor = descriptor
        if session is None:
            import requests
            session = requests.Session()
        self.session = session
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.timeout = timeout

    def _post(self, payload):
        url = self.descriptor.config["endpoint"]
        last = None
        for attempt in range(self.max_attempts):
            delay = self.backoff * 2 ** attempt
            try:
                resp = self.session.post(url, json=payload,
                                         timeout=self.timeout)
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
                    delay = max(delay, _retry_after(resp))
            if attempt + 1 < self.max_attempts:
                time.sleep(delay)
        raise TransportError(
            f"service {self.descriptor.service_id} unreachable after "
            f"{self.max_attempts} attempts: {last}")

    def _completion_payload(self, prompt, echo):
        cfg = self.descriptor.config
        payload = {
            "model": cfg.get("model", self.descriptor.service_id),
            "prompt": prompt,
            "logprobs": int(self.descriptor.capabilities.get(
                "top_k_depth", 5)),
            "max_tokens": 0 if echo else int(cfg.get("max_tokens", 32)),
            "echo": echo,
            "temperature": 0,
        }
        return payload

    @staticmethod
    def _steps_from_logprobs(lp) -> tuple:
        tokens = lp.get("tokens")
        top = lp.get("top_logprobs")
        if tokens is None or top is None:
            raise CapabilityError(
                "response lacks token-level top logprobs; request the "
                "completion with logprobs enabled")
        steps = []
        for tok, cand in zip(tokens, top):
            if cand is None:
                raise CapabilityError(
                    f"no candidate logprobs returned for token {tok!r}")
            pairs = sorted(((t, float(np.exp(v))) for t, v in cand.items()),
                           key=lambda tp: -tp[1])
            steps.append(TokenStep(token=tok, top_probs=tuple(pairs)))
        return tuple(steps)

    @staticmethod
    def _first_choice(resp, what) -> dict:
        """The first choice of a response body; CapabilityError if the body
        is not JSON or has no choices."""
        try:
            choice = resp.json()["choices"][0]
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            raise CapabilityError(
                f"malformed {what} response: {exc!r}") from exc
        if not isinstance(choice, dict):
            raise CapabilityError(f"malformed {what} response: choice "
                                  f"{choice!r} is not an object")
        return choice

    @staticmethod
    def _input_scores(lp, start, end) -> tuple:
        """Probabilities of the echoed tokens that start in prompt
        characters [start, end), the input text after the in-context
        examples; PPL scores the input alone."""
        values = None if lp is None else lp.get("token_logprobs")
        offsets = None if lp is None else lp.get("text_offset")
        if values is None:
            raise CapabilityError("echo scoring returned no token logprobs")
        if not isinstance(offsets, list) or len(offsets) != len(values):
            raise CapabilityError(
                "echo scoring returned no text_offset for each token, so "
                "the input text's tokens cannot be told apart")
        # the prompt's first token has no conditioning context; services
        # emit null for it
        return tuple(float(np.exp(v)) for v, at in zip(values, offsets)
                     if v is not None and start <= at < end)

    def invoke(self, input_text, context: ContextSpec, sample_id,
               task_id) -> InvocationRecord:
        prompt = "".join(f"{q}\n{a}\n\n" for q, a in context.examples)
        prompt += input_text
        choice = self._first_choice(
            self._post(self._completion_payload(prompt, echo=False)),
            "completion")
        lp = choice.get("logprobs")
        if lp is None:
            raise CapabilityError(
                f"service {self.descriptor.service_id} returned no "
                "logprobs field")
        steps = self._steps_from_logprobs(lp)

        input_scores = None
        if self.descriptor.supports_input_scoring():
            elp = self._first_choice(
                self._post(self._completion_payload(prompt, echo=True)),
                "echo scoring").get("logprobs")
            input_scores = self._input_scores(
                elp, len(prompt) - len(input_text), len(prompt))

        rec = InvocationRecord(
            service_id=self.descriptor.service_id, task_id=task_id,
            context_id=context.context_id, sample_id=sample_id,
            input_text=input_text, generated_text=choice.get("text", ""),
            output_steps=steps, input_scores=input_scores, reference=None)
        rec.validate()
        return rec
