"""Domain types, JSON Lines persistence, and the columnar setting batch.

A record file is UTF-8 JSON Lines, one self-contained object per line.
Probabilities are stored linear (not log); log transforms happen at
feature-extraction time. The sequence length |x| used by downstream
features is the number of token steps returned by the service.

InvocationRecord is the boundary type: JSON Lines, HTTP responses and
validation speak records. Inside the package one (service, task, context)
setting is a SettingBatch, whose columns hold every sample's texts, token
steps, candidates and input scores, with offsets for the ragged lengths.
SettingBatch.from_records and SettingBatch.records are inverses, and
RecordStore keeps one batch per setting.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GroupingError, ValidationError

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TokenStep:
    """One generated (or scored) token with its top-k candidate probabilities.

    top_probs is ordered non-increasing by probability; k may be as small
    as 1 (real services return varying depths).
    """

    token: str
    top_probs: tuple  # tuple of (token, prob), descending by prob

    def validate(self, line=None):
        if len(self.top_probs) < 1:
            raise ValidationError("top_probs must have length >= 1",
                                  field="top_probs", line=line)
        total = 0.0
        prev = float("inf")
        for tok, p in self.top_probs:
            if not (0.0 <= p <= 1.0):
                raise ValidationError(f"prob {p!r} outside [0, 1]",
                                      field="top_probs", line=line)
            if p > prev:
                raise ValidationError("top_probs not sorted non-increasing",
                                      field="top_probs", line=line)
            prev = p
            total += p
        if total > 1.0 + _PROB_SUM_TOL:
            raise ValidationError(f"top_probs sum {total} exceeds 1",
                                  field="top_probs", line=line)


@dataclass(frozen=True, slots=True)
class InvocationRecord:
    """One sample's full invocation episode against a black-box service."""

    service_id: str
    task_id: str
    context_id: str
    sample_id: str
    input_text: str
    generated_text: str
    output_steps: tuple  # tuple of TokenStep
    input_scores: Optional[tuple] = None  # per-input-token probs in (0, 1]
    reference: Optional[str] = None

    def validate(self, line=None, require_steps=False):
        if require_steps and len(self.output_steps) == 0:
            raise ValidationError("output_steps empty", field="output_steps",
                                  line=line)
        for step in self.output_steps:
            step.validate(line=line)
        if self.input_scores is not None:
            for s in self.input_scores:
                if not (0.0 < s <= 1.0):
                    raise ValidationError(
                        f"input score {s!r} outside (0, 1]",
                        field="input_scores", line=line)

    @property
    def key(self):
        return (self.service_id, self.task_id, self.context_id)


@dataclass(frozen=True, slots=True)
class TaskDataset:
    """Samples of one task: (sample_id, input_text, optional reference)."""

    task_id: str
    samples: tuple  # tuple of (sample_id, input_text, reference-or-None)
    split: str = "test"  # train | dev | test

    def validate(self):
        if self.split not in ("train", "dev", "test"):
            raise ValidationError(f"unknown split {self.split!r}", field="split")
        ids = [s[0] for s in self.samples]
        if len(ids) != len(set(ids)):
            raise ValidationError("duplicate sample_id within task",
                                  field="samples")


@dataclass(frozen=True, slots=True)
class ContextSpec:
    """In-context examples drawn from a task's train split."""

    context_id: str
    examples: tuple  # tuple of (input_text, reference)
    count: int

    def validate(self):
        if self.count != len(self.examples):
            raise ValidationError("count != len(examples)", field="count")


def _offsets(lengths):
    """Offsets of a ragged column: row i owns [out[i], out[i + 1])."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def _take_ragged(offsets, rows):
    """Flat positions of `rows` of a ragged column, and their offsets."""
    starts = offsets[:-1][rows]
    lengths = offsets[1:][rows] - starts
    new = _offsets(lengths)
    return np.arange(new[-1]) + np.repeat(starts - new[:-1], lengths), new


def _objects(values):
    return np.array(values, dtype=object)


@dataclass(eq=False)
class SettingBatch:
    """Every invocation of one (service, task, context) setting, as columns.

    Sample i owns steps step_offsets[i]:step_offsets[i + 1] of `tokens`;
    step j owns candidates cand_offsets[j]:cand_offsets[j + 1] of
    `cand_tokens` and `cand_probs` (k may be 1); sample i's input scores
    are scores[score_offsets[i]:score_offsets[i + 1]], and has_scores[i]
    is False where the record had none. String columns are object arrays;
    `references` holds None for unlabeled samples.
    """

    key: tuple  # (service_id, task_id, context_id)
    sample_ids: np.ndarray
    input_texts: np.ndarray
    generated_texts: np.ndarray
    references: np.ndarray
    step_offsets: np.ndarray
    tokens: np.ndarray
    cand_offsets: np.ndarray
    cand_tokens: np.ndarray
    cand_probs: np.ndarray
    score_offsets: np.ndarray
    scores: np.ndarray
    has_scores: np.ndarray

    def __len__(self):
        return len(self.sample_ids)

    @property
    def top1(self):
        """Top-1 probability of every step."""
        return self.cand_probs[self.cand_offsets[:-1]]

    @property
    def top2(self):
        """Top-2 probability of every step; 0.0 where k == 1."""
        first = self.cand_offsets[:-1]
        many = np.diff(self.cand_offsets) > 1
        out = np.zeros(len(first))
        out[many] = self.cand_probs[first[many] + 1]
        return out

    @property
    def labeled(self):
        """True when every sample has a reference."""
        return None not in self.references.tolist()

    @classmethod
    def from_records(cls, records):
        """Columns of records that share one setting, in record order."""
        records = list(records)
        if not records:
            raise GroupingError("no records to build a setting from")
        key = records[0].key
        other = next((r.key for r in records if r.key != key), None)
        if other is not None:
            raise GroupingError(
                f"mixed groups: {other} vs {key}; group records per "
                "(service, task, context)")
        steps = [step for r in records for step in r.output_steps]
        pairs = [pair for step in steps for pair in step.top_probs]
        return cls(
            key=key,
            sample_ids=_objects([r.sample_id for r in records]),
            input_texts=_objects([r.input_text for r in records]),
            generated_texts=_objects([r.generated_text for r in records]),
            references=_objects([r.reference for r in records]),
            step_offsets=_offsets([len(r.output_steps) for r in records]),
            tokens=_objects([step.token for step in steps]),
            cand_offsets=_offsets([len(step.top_probs) for step in steps]),
            cand_tokens=_objects([t for t, _ in pairs]),
            cand_probs=np.array([p for _, p in pairs], dtype=float),
            score_offsets=_offsets([len(r.input_scores or ())
                                    for r in records]),
            scores=np.array([s for r in records for s in r.input_scores or ()],
                            dtype=float),
            has_scores=np.array([r.input_scores is not None
                                 for r in records], dtype=bool))

    def records(self) -> list:
        """The batch as InvocationRecords; from_records(...).records()
        returns records equal to its input."""
        pairs = list(zip(self.cand_tokens.tolist(), self.cand_probs.tolist()))
        co = self.cand_offsets.tolist()
        steps = [TokenStep(tok, tuple(pairs[a:b]))
                 for tok, a, b in zip(self.tokens.tolist(), co, co[1:])]
        so = self.step_offsets.tolist()
        scores = self.scores.tolist()
        io = self.score_offsets.tolist()
        return [InvocationRecord(*self.key, sid, text, gen,
                                 tuple(steps[a:b]),
                                 tuple(scores[i:j]) if has else None, ref)
                for sid, text, gen, ref, has, a, b, i, j in zip(
                    self.sample_ids.tolist(), self.input_texts.tolist(),
                    self.generated_texts.tolist(), self.references.tolist(),
                    self.has_scores.tolist(), so, so[1:], io, io[1:])]

    def take(self, rows):
        """The batch of samples `rows`, in the order given."""
        rows = np.asarray(rows, dtype=np.int64)
        steps, step_offsets = _take_ragged(self.step_offsets, rows)
        cands, cand_offsets = _take_ragged(self.cand_offsets, steps)
        scores, score_offsets = _take_ragged(self.score_offsets, rows)
        return SettingBatch(
            key=self.key, sample_ids=self.sample_ids[rows],
            input_texts=self.input_texts[rows],
            generated_texts=self.generated_texts[rows],
            references=self.references[rows], step_offsets=step_offsets,
            tokens=self.tokens[steps], cand_offsets=cand_offsets,
            cand_tokens=self.cand_tokens[cands],
            cand_probs=self.cand_probs[cands], score_offsets=score_offsets,
            scores=self.scores[scores], has_scores=self.has_scores[rows])


def as_batch(setting) -> SettingBatch:
    """A SettingBatch as is, or records of one setting as a batch."""
    if isinstance(setting, SettingBatch):
        return setting
    return SettingBatch.from_records(setting)


def _step_to_obj(step: TokenStep):
    return {"token": step.token,
            "top_probs": [[t, p] for t, p in step.top_probs]}


def _record_to_obj(rec: InvocationRecord):
    obj = {
        "service_id": rec.service_id,
        "task_id": rec.task_id,
        "context_id": rec.context_id,
        "sample_id": rec.sample_id,
        "input_text": rec.input_text,
        "generated_text": rec.generated_text,
        "output_steps": [_step_to_obj(s) for s in rec.output_steps],
    }
    if rec.input_scores is not None:
        obj["input_scores"] = list(rec.input_scores)
    if rec.reference is not None:
        obj["reference"] = rec.reference
    return obj


def _require(obj, name, line):
    if name not in obj:
        raise ValidationError(f"missing field {name!r}", field=name, line=line)
    return obj[name]


def record_from_obj(obj, line=None) -> InvocationRecord:
    """Build and validate a record from a parsed JSON object."""
    steps = []
    raw_steps = _require(obj, "output_steps", line)
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
        service_id=str(_require(obj, "service_id", line)),
        task_id=str(_require(obj, "task_id", line)),
        context_id=str(_require(obj, "context_id", line)),
        sample_id=str(_require(obj, "sample_id", line)),
        input_text=str(_require(obj, "input_text", line)),
        generated_text=str(_require(obj, "generated_text", line)),
        output_steps=tuple(steps),
        input_scores=tuple(float(s) for s in scores) if scores is not None else None,
        reference=str(obj["reference"]) if obj.get("reference") is not None else None,
    )
    rec.validate(line=line)
    return rec


def iter_records(path):
    """Validated records of a JSON Lines record file, one at a time.

    Raises ValidationError naming the field and 1-based line number on the
    first malformed line; raises OSError for a missing file.
    """
    with open(path, "r", encoding="utf-8") as f:
        for i, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"invalid JSON: {exc}", line=i) from exc
            yield record_from_obj(obj, line=i)


def read_records(path) -> list:
    """Read a JSON Lines record file, validating every line (see
    iter_records)."""
    return list(iter_records(path))


def write_records(records: Iterable[InvocationRecord], path) -> None:
    """Write records as JSON Lines. read_records round-trips field-for-field."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            rec.validate()
            f.write(json.dumps(_record_to_obj(rec), ensure_ascii=False))
            f.write("\n")


def append_records(records: Sequence[InvocationRecord], path) -> None:
    """Append records to an existing (or new) JSON Lines file."""
    with open(path, "a", encoding="utf-8") as f:
        for rec in records:
            rec.validate()
            f.write(json.dumps(_record_to_obj(rec), ensure_ascii=False))
            f.write("\n")


def read_tasks(path) -> list:
    """Read a task JSON Lines file into TaskDataset objects (grouped by
    task_id and split)."""
    groups = {}
    with open(path, "r", encoding="utf-8") as f:
        for i, raw in enumerate(f, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"invalid JSON: {exc}", line=i) from exc
            task_id = str(_require(obj, "task_id", i))
            sample_id = str(_require(obj, "sample_id", i))
            text = str(_require(obj, "input_text", i))
            ref = obj.get("reference")
            split = str(obj.get("split", "test"))
            groups.setdefault((task_id, split), []).append(
                (sample_id, text, str(ref) if ref is not None else None))
    tasks = []
    for (task_id, split), samples in sorted(groups.items()):
        ds = TaskDataset(task_id=task_id, samples=tuple(samples), split=split)
        ds.validate()
        tasks.append(ds)
    return tasks


def write_tasks(tasks: Sequence[TaskDataset], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ds in tasks:
            for sample_id, text, ref in ds.samples:
                obj = {"task_id": ds.task_id, "sample_id": sample_id,
                       "input_text": text, "split": ds.split}
                if ref is not None:
                    obj["reference"] = ref
                f.write(json.dumps(obj, ensure_ascii=False))
                f.write("\n")


class RecordStore:
    """In-memory store indexed by (service_id, task_id, context_id).

    Each setting is held as one SettingBatch; InvocationRecords are built
    from it only when asked for (get, all_records, save). Append-only;
    iteration order is insertion order within each setting.
    """

    def __init__(self, records=()):
        self._batches = {}
        self.extend(records)

    def extend(self, records):
        """Append records. Each run of consecutive records of one setting
        joins that setting's batch as the run ends, so a file written by
        save (one run per setting) is never held as records all at once."""
        for key, run in itertools.groupby(records, key=attrgetter("key")):
            run = list(run)
            if key in self._batches:
                run = self._batches[key].records() + run
            self._batches[key] = SettingBatch.from_records(run)

    def add(self, batch: SettingBatch):
        """Append one setting's batch."""
        if batch.key in self._batches:
            self.extend(batch.records())
        else:
            self._batches[batch.key] = batch

    def batch(self, service_id, task_id, context_id):
        """The setting's SettingBatch, or None if the store has none."""
        return self._batches.get((service_id, task_id, context_id))

    def get(self, service_id, task_id, context_id):
        batch = self.batch(service_id, task_id, context_id)
        return [] if batch is None else batch.records()

    def keys(self):
        return sorted(self._batches.keys())

    def contexts_for_task(self, task_id):
        return sorted({c for (_, t, c) in self._batches if t == task_id})

    def __len__(self):
        return sum(len(b) for b in self._batches.values())

    def all_records(self):
        for key in self.keys():
            yield from self._batches[key].records()

    @classmethod
    def from_file(cls, path):
        return cls(iter_records(path))

    def save(self, path):
        write_records(self.all_records(), path)
