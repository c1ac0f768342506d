"""Domain types, JSON Lines persistence, the columnar setting batch, and
the package's one reader and writer of JSON documents.

A record file is UTF-8 JSON Lines, one self-contained object per line.
Probabilities are stored linear (not log); log transforms happen at
feature-extraction time. The sequence length |x| used by downstream
features is the number of token steps returned by the service.

InvocationRecord is the per-record boundary type: the HTTP client, mock
invoke, read_records, write_records and append_records speak records.
Inside the package one (service, task, context) setting is a
SettingBatch, whose columns hold every sample's texts, token steps,
candidates and input scores, with offsets for the ragged lengths.
SettingBatch.from_records and SettingBatch.records are inverses, and
from_records builds its columns with the record file reader's builder;
RecordStore takes batches (add), hands them out (get), and joins a
setting's batches on first use. Files are parsed and written per setting
run as columns (read_batches, write_batches), and SettingBatch.validate
holds every record rule once. RecordStore.save, and RecordStore.from_file
after it reads a record file, write the record columns file, path +
".cols", a derived file of each batch's JSON header line and raw column
bytes that RecordStore.from_file loads, without decoding a record line,
only while it holds the sha256 of the record file's bytes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import GroupingError, ValidationError, is_int

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class TokenStep:
    """One generated (or scored) token with its top-k candidate probabilities.

    top_probs is ordered non-increasing by probability; k may be as small
    as 1 (real services return varying depths).
    """

    token: str
    top_probs: tuple  # tuple of (token, prob), descending by prob


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

    @property
    def key(self):
        return (self.service_id, self.task_id, self.context_id)


@dataclass(frozen=True, slots=True)
class TaskDataset:
    """Samples of one task: (sample_id, input_text, optional reference)."""

    task_id: str
    samples: tuple  # tuple of (sample_id, input_text, reference-or-None)
    split: str = "test"  # train | dev | test


@dataclass(frozen=True, slots=True)
class ContextSpec:
    """In-context examples drawn from a task's train split."""

    context_id: str
    examples: tuple  # tuple of (input_text, reference)


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


def padded_rows(values, offsets):
    """A ragged column as a matrix: a leading column of zeros, then each
    row's values, padded with zeros."""
    lengths = np.diff(offsets)
    out = np.zeros((len(lengths), lengths.max(initial=0) + 1))
    rows = np.repeat(np.arange(len(lengths)), lengths)
    cols = np.arange(len(values)) - np.repeat(offsets[:-1], lengths) + 1
    out[rows, cols] = values
    return out


def ordered_sum(values, offsets):
    """Per-row ((0.0 + v1) + v2) + ..., in order: a plain Python loop's
    sum, bit for bit (never numpy's pairwise sum)."""
    return np.add.accumulate(padded_rows(values, offsets), axis=1)[:, -1]


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
        return _build_batch(key, [
            (r.key, (r.sample_id, r.input_text, r.generated_text),
             r.reference, [step.token for step in r.output_steps],
             [len(step.top_probs) for step in r.output_steps],
             [t for step in r.output_steps for t, _ in step.top_probs],
             [p for step in r.output_steps for _, p in step.top_probs],
             r.input_scores) for r in records])

    def records(self) -> list:
        """The batch as InvocationRecords; from_records(...).records()
        returns records equal to its input."""
        pairs = list(zip(self.cand_tokens.tolist(), self.cand_probs.tolist()))
        co = self.cand_offsets.tolist()
        steps = [TokenStep(tok, tuple(pairs[a:b]))
                 for tok, a, b in zip(self.tokens.tolist(), co, co[1:])]
        so = self.step_offsets.tolist()
        scores = self.scores.tolist()
        sc = self.score_offsets.tolist()
        return [InvocationRecord(*self.key, sid, text, gen,
                                 tuple(steps[a:b]),
                                 tuple(scores[i:j]) if has else None, ref)
                for sid, text, gen, ref, has, a, b, i, j in zip(
                    self.sample_ids.tolist(), self.input_texts.tolist(),
                    self.generated_texts.tolist(), self.references.tolist(),
                    self.has_scores.tolist(), so, so[1:], sc, sc[1:])]

    def validate(self, lines=None):
        """Check every sample against the record rules in one pass.

        Rules: each step has k >= 1 candidates whose probabilities lie in
        [0, 1] (NaN fails), never increase, and sum (left to right) to at
        most 1 + 1e-9; input scores lie in (0, 1]. A sample may have no
        steps: the features that need them reject it. Raises the
        ValidationError that checking sample by sample, step by step,
        would raise first; lines[i] is sample i's 1-based line in its file.
        """
        probs = self.cand_probs
        counts = np.diff(self.cand_offsets)
        prev = np.empty_like(probs)
        prev[1:] = probs[:-1]
        prev[self.cand_offsets[:-1][counts > 0]] = np.inf
        outside = ~((probs >= 0.0) & (probs <= 1.0))
        bad_cand = outside | (probs > prev)
        sums = ordered_sum(probs, self.cand_offsets)
        bad_step = (counts == 0) | (sums > 1.0 + _PROB_SUM_TOL)
        bad_step[np.repeat(np.arange(len(counts)), counts)[bad_cand]] = True
        n_steps = np.diff(self.step_offsets)
        bad_score = ~((self.scores > 0.0) & (self.scores <= 1.0))
        rows = np.arange(len(self))
        bad = np.zeros(len(self), dtype=bool)
        bad[np.repeat(rows, n_steps)[bad_step]] = True
        bad[np.repeat(rows, np.diff(self.score_offsets))[bad_score]] = True
        if not bad.any():
            return
        i = int(np.argmax(bad))
        line = None if lines is None else lines[i]
        first = self.step_offsets[i]
        hit = np.flatnonzero(bad_step[first:self.step_offsets[i + 1]])
        if hit.size:
            j = first + hit[0]
            a = self.cand_offsets[j]
            hit = np.flatnonzero(bad_cand[a:self.cand_offsets[j + 1]])
            if hit.size and outside[a + hit[0]]:
                raise ValidationError(
                    f"prob {float(probs[a + hit[0]])!r} outside [0, 1]",
                    field="top_probs", line=line)
            if hit.size:
                raise ValidationError("top_probs not sorted non-increasing",
                                      field="top_probs", line=line)
            if counts[j] == 0:
                raise ValidationError("top_probs must have length >= 1",
                                      field="top_probs", line=line)
            raise ValidationError(f"top_probs sum {float(sums[j])} exceeds 1",
                                  field="top_probs", line=line)
        a = self.score_offsets[i]
        s = self.scores[a + np.flatnonzero(bad_score[a:])[0]]
        raise ValidationError(f"input score {float(s)!r} outside (0, 1]",
                              field="input_scores", line=line)

    @classmethod
    def concat(cls, batches):
        """One setting's batches joined in order: the batch that
        from_records of all their records would give: offset columns are
        shifted past the batches before them, the others concatenated."""
        batches = list(batches)
        names = [f.name for f in dataclasses.fields(cls) if f.name != "key"]
        columns = {"key": batches[0].key}
        for name in names:
            parts = [getattr(b, name) for b in batches]
            if name.endswith("_offsets"):
                shift = np.cumsum([0] + [o[-1] for o in parts[:-1]])
                parts = [parts[0][:1]] + [o[1:] + s for o, s in
                                          zip(parts, shift)]
            columns[name] = np.concatenate(parts)
        return cls(**columns)

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


# ---------------------------------------------------------------------------
# JSON Lines: each run of consecutive lines of one setting is parsed into
# one SettingBatch and written from one, column by column.

_encode = json.encoder.encode_basestring  # json.dumps(ensure_ascii=False)
_float = float.__repr__  # json.dumps of a finite float
_TOP_PROBS = itemgetter("top_probs")
_TOKEN = itemgetter("token")
_FIELDS = ("service_id", "task_id", "context_id", "sample_id", "input_text",
           "generated_text")


def _require(obj, name, line):
    if name not in obj:
        raise ValidationError(f"missing field {name!r}", field=name, line=line)
    return obj[name]


def _parse(obj, line):
    """The fields of one parsed record line, coerced as the format defines.

    Raises ValidationError for a structural fault: a missing field, an
    output_steps that is not an array, or a malformed step or input score.
    """
    if not isinstance(obj, dict):
        raise ValidationError("record must be a JSON object", line=line)
    raw_steps = _require(obj, "output_steps", line)
    if not isinstance(raw_steps, list):
        raise ValidationError("output_steps must be an array",
                              field="output_steps", line=line)
    try:
        tops = list(map(_TOP_PROBS, raw_steps))
        # one shared str per distinct token: a file repeats a small
        # vocabulary, and the batch columns keep every token
        tokens = list(map(sys.intern, map(str, map(_TOKEN, raw_steps))))
        counts = list(map(len, tops))
        pairs = list(itertools.chain.from_iterable(tops))
        # a candidate is any two-item array, [token, prob]
        cand_tokens, cand_probs = (zip(*pairs, strict=True) if pairs
                                   else ((), ()))
        cand_tokens = list(map(sys.intern, map(str, cand_tokens)))
        cand_probs = list(map(float, cand_probs))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer past the float range
        raise ValidationError(f"malformed step: {exc}",
                              field="output_steps", line=line) from exc
    try:
        fields = [str(obj[name]) for name in _FIELDS]
    except KeyError:
        fields = [str(_require(obj, name, line)) for name in _FIELDS]
    scores = obj.get("input_scores")
    if scores is not None:
        try:
            scores = list(map(float, scores))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"malformed input scores: {exc}",
                                  field="input_scores", line=line) from exc
    ref = obj.get("reference")
    return (tuple(fields[:3]), fields[3:],
            None if ref is None else str(ref),
            tokens, counts, cand_tokens, cand_probs, scores)


def _check_utf8(fields, line):
    """ValidationError naming the first text field of a parsed line that
    UTF-8 cannot encode. Strict decoding rejects surrogate bytes, so only
    a \\ud800-\\udfff JSON escape can put a lone surrogate in a line."""
    key, texts, ref, tokens, _, cand_tokens, _, _ = fields
    for name, text in (*zip(_FIELDS, (*key, *texts)), ("reference", ref or ""),
                       ("output_steps", "".join(tokens + cand_tokens))):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise ValidationError("text holds a lone surrogate, which UTF-8 "
                                  "cannot encode", field=name,
                                  line=line) from None


def _build_batch(key, parsed) -> SettingBatch:
    """The unvalidated SettingBatch of setting key's records, each given
    as the fields _parse returns."""
    (_, texts, references, tokens, cand_counts, cand_tokens, cand_probs,
     scores) = zip(*parsed)
    sample_ids, input_texts, generated_texts = zip(*texts)
    chain = itertools.chain.from_iterable
    return SettingBatch(
        key=key, sample_ids=_objects(sample_ids),
        input_texts=_objects(input_texts),
        generated_texts=_objects(generated_texts),
        references=_objects(references),
        step_offsets=_offsets(list(map(len, tokens))),
        tokens=_objects(list(chain(tokens))),
        cand_offsets=_offsets(list(chain(cand_counts))),
        cand_tokens=_objects(list(chain(cand_tokens))),
        cand_probs=np.array(list(chain(cand_probs)), dtype=float),
        score_offsets=_offsets([len(s or ()) for s in scores]),
        scores=np.array(list(chain(s or () for s in scores)), dtype=float),
        has_scores=np.array([s is not None for s in scores], dtype=bool))


def _batch(key, lines, parsed) -> SettingBatch:
    """Parsed lines of one setting as one validated SettingBatch."""
    batch = _build_batch(key, parsed)
    batch.validate(lines=lines)
    return batch


def read_batches(path):
    """Validated SettingBatches of a JSON Lines record file, one per run of
    consecutive lines of one setting.

    Lines end at "\n" and are decoded as UTF-8 one by one. Each run is
    validated as it ends, so a file that interleaves settings record by
    record still reads in linear time, as one small batch per run.

    Raises ValidationError naming the field and 1-based line number of the
    first fault a line-by-line reader would meet, bytes that are not UTF-8
    and text that UTF-8 cannot encode (which write_batches could not
    write) included; raises OSError for a missing file.
    """
    key, lines, parsed = None, [], []
    with open(path, "rb") as f:
        for i, raw in enumerate(f, start=1):
            try:
                try:
                    text = raw.decode("utf-8").strip()
                    if not text:
                        continue
                    obj = json.loads(text)
                except (ValueError, RecursionError) as exc:
                    raise ValidationError(f"invalid JSON: {exc}",
                                          line=i) from exc
                fields = _parse(obj, i)
                if "\\" in text:  # no escape, no lone surrogate
                    _check_utf8(fields, i)
            except ValidationError:
                if parsed:  # a fault on an earlier line comes first
                    _batch(key, lines, parsed)
                raise
            if parsed and fields[0] != key:
                yield _batch(key, lines, parsed)
                lines, parsed = [], []
            key = fields[0]
            lines.append(i)
            parsed.append(fields)
    if parsed:
        yield _batch(key, lines, parsed)


def _lines(batch: SettingBatch) -> str:
    """The batch as JSON Lines: each sample's line is json.dumps(...,
    ensure_ascii=False) of its record's object."""
    pairs = [f"[{t}, {p}]" for t, p in zip(
        map(_encode, batch.cand_tokens.tolist()),
        map(_float, batch.cand_probs.tolist()))]
    co = batch.cand_offsets.tolist()
    steps = [f'{{"token": {t}, "top_probs": [{", ".join(pairs[a:b])}]}}'
             for t, a, b in zip(map(_encode, batch.tokens.tolist()),
                                co, co[1:])]
    scores = list(map(_float, batch.scores.tolist()))
    head = ('{"service_id": %s, "task_id": %s, "context_id": %s, '
            '"sample_id": ' % tuple(map(_encode, batch.key)))
    so = batch.step_offsets.tolist()
    sc = batch.score_offsets.tolist()
    lines = []
    for sid, text, gen, ref, has, a, b, i, j in zip(
            batch.sample_ids.tolist(), batch.input_texts.tolist(),
            batch.generated_texts.tolist(), batch.references.tolist(),
            batch.has_scores.tolist(), so, so[1:], sc, sc[1:]):
        line = (f'{head}{_encode(sid)}, "input_text": {_encode(text)}, '
                f'"generated_text": {_encode(gen)}, '
                f'"output_steps": [{", ".join(steps[a:b])}]')
        if has:
            line += f', "input_scores": [{", ".join(scores[i:j])}]'
        if ref is not None:
            line += f', "reference": {_encode(ref)}'
        lines.append(line + "}\n")
    return "".join(lines)


def write_batches(batches: Iterable[SettingBatch], path, mode="w") -> bytes:
    """Write (mode "w") or append (mode "a") batches as JSON Lines, one
    line per sample in batch order; return the sha256 of the bytes
    written."""
    digest = hashlib.sha256()
    with open(path, mode + "b") as f:
        for batch in batches:
            data = _lines(batch).encode("utf-8")
            digest.update(data)
            f.write(data)
    return digest.digest()


def _record_batches(records):
    """Validated batches of each run of consecutive records of one
    setting."""
    for _, run in itertools.groupby(records, key=attrgetter("key")):
        batch = SettingBatch.from_records(run)
        batch.validate()
        yield batch


def read_records(path) -> list:
    """Read a JSON Lines record file, validating every line (see
    read_batches)."""
    return [rec for batch in read_batches(path) for rec in batch.records()]


def write_records(records: Iterable[InvocationRecord], path) -> None:
    """Validate records, then write them as JSON Lines; an invalid record
    writes nothing. read_records round-trips field-for-field."""
    write_batches(list(_record_batches(records)), path)


def append_records(records: Sequence[InvocationRecord], path) -> None:
    """Validate records, then append them to an existing (or new) JSON
    Lines file, first removing its columns file, which would no longer
    match, and ending its last line where it lacks a newline. An invalid
    record leaves both files as they were."""
    batches = list(_record_batches(records))
    with contextlib.suppress(FileNotFoundError):
        os.remove(_columns_path(path))
    # only a regular file is read back: a pipe we opened and closed could
    # end its reader's input before the records are written
    if os.path.isfile(path):
        with open(path, "rb+") as f:
            if f.seek(0, os.SEEK_END):
                f.seek(-1, os.SEEK_END)
                if f.read(1) != b"\n":
                    f.write(b"\n")
    write_batches(batches, path, mode="a")


# ---------------------------------------------------------------------------
# JSON documents: service configs, config files, model files and reports
# are read and written here alone.

def parse_json(text, error, what):
    """The JSON value of ``text``, a str or a text file to read; raises
    ``error(f"{what}: {reason}")`` when it holds none."""
    try:
        return json.loads(text if isinstance(text, str) else text.read())
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bytes that are not UTF-8, or an integer
        # past int's digit limit; RecursionError: nesting deeper than the
        # decoder's stack
        raise error(f"{what}: {exc}") from exc


def read_json(path, error, what):
    """The JSON value in UTF-8 file ``path`` (see parse_json); OSError
    when it cannot be read."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_json(f, error, what)


def write_json(path, obj, indent=None, end=""):
    """Write ``obj`` to ``path`` as json.dump writes it with sorted keys,
    then ``end``."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=indent)
        f.write(end)


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


# ---------------------------------------------------------------------------
# Record columns: RecordStore.save writes next to a record file a derived
# file of its batches as raw column bytes, which RecordStore.from_file loads
# in place of the JSON while it holds the digest of the record file's bytes.

_COLUMNS_MAGIC = b"perfest-columns/2\n"
_DIGEST = 32  # bytes of a sha256 digest
# the stored dtype of each column, little-endian; a text column is stored
# as codes into its batch's vocabulary, -1 for None
_COLUMNS = {"sample_ids": "<i4", "input_texts": "<i4",
            "generated_texts": "<i4", "references": "<i4",
            "step_offsets": "<i8", "tokens": "<i4", "cand_offsets": "<i8",
            "cand_tokens": "<i4", "cand_probs": "<f8", "score_offsets": "<i8",
            "scores": "<f8", "has_scores": "?"}


def _columns_path(path):
    return os.fsdecode(path) + ".cols"


def _file_digest(path):
    """The sha256 of path's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.digest()


def _column_bytes(batch: SettingBatch) -> bytes:
    """One batch: the JSON line [key, vocabulary, column lengths], then
    the bytes of each column in _COLUMNS order and dtype."""
    vocab = {}

    def codes(values):
        return np.array([-1 if s is None else vocab.setdefault(s, len(vocab))
                         for s in values], dtype="<i4")

    columns = [codes(getattr(batch, name).tolist()) if dtype == "<i4"
               else np.asarray(getattr(batch, name), dtype=dtype)
               for name, dtype in _COLUMNS.items()]
    head = json.dumps([batch.key, list(vocab), list(map(len, columns))])
    return b"".join([head.encode(), b"\n", *map(np.ndarray.tobytes, columns)])


def _load_batch(f, end, payload) -> SettingBatch:
    """The next batch of a columns file whose payload ends at offset end,
    as _column_bytes writes one and valid, each byte read added to sha256
    payload; else ValueError, RecursionError or ValidationError."""
    line = f.readline(end - f.tell())
    payload.update(line)
    header = json.loads(line)
    if not (isinstance(header, list) and len(header) == 3
            and all(isinstance(part, list) for part in header)
            and len(header[0]) == 3 and len(header[2]) == len(_COLUMNS)
            and all(isinstance(s, str) for s in header[0] + header[1])
            and all(is_int(n, 0, 2**40) for n in header[2])):
        raise ValueError("malformed batch header")
    key, words, lengths = header
    # the 12 lengths follow from 4: samples, steps, candidates and scores
    n, steps, cands, scores = (lengths[i] for i in (0, 5, 7, 10))
    if lengths != [n, n, n, n, n + 1, steps, steps + 1, cands, cands, n + 1,
                   scores, n]:
        raise ValueError("malformed column lengths")
    # UnicodeEncodeError, a ValueError, for a \ud800-style escape
    "".join(key + words).encode("utf-8")
    # one shared str per distinct string, as read_batches shares tokens
    vocab = _objects(list(map(sys.intern, words)) + [None])
    columns = {}
    for (name, dtype), size in zip(_COLUMNS.items(), lengths):
        # checked before the column is made, so a forged length
        # allocates nothing
        if size * np.dtype(dtype).itemsize > end - f.tell():
            raise ValueError("column runs past the payload")
        column = np.empty(size, dtype)
        if f.readinto(column) != column.nbytes:
            raise ValueError("the file shrank while it was read")
        payload.update(column)
        if dtype == "<i4":
            # code -1 is None, which only a reference may be
            if size and not (-(name == "references") <= column.min()
                             and column.max() < len(words)):
                raise ValueError("not a code of the vocabulary")
            column = vocab[column]
        columns[name] = column
    batch = SettingBatch(key=tuple(key), **columns)
    if not (all(o[0] == 0 and o[-1] == size and (np.diff(o) >= 0).all()
                for o, size in ((batch.step_offsets, steps),
                                (batch.cand_offsets, cands),
                                (batch.score_offsets, scores)))
            # a sample without input scores writes none
            and not np.diff(batch.score_offsets)[~batch.has_scores].any()):
        raise ValueError("malformed record columns")
    batch.validate()
    return batch


def _saved_batches(path):
    """The batches of path's columns file, or None unless it holds the
    sha256 of path's bytes and of its own payload, and its batches fill
    the payload exactly and are well formed and valid. The file is read
    one column at a time; a stale one is refused before its payload is
    parsed."""
    try:
        with open(_columns_path(path), "rb") as f:
            magic = f.read(len(_COLUMNS_MAGIC))
            # OSError for a file shorter than its trailer
            end = f.seek(-2 * _DIGEST, os.SEEK_END)
            trailer = f.read()
            if not (magic == _COLUMNS_MAGIC and end >= len(magic)
                    and _file_digest(path) == trailer[:_DIGEST]):
                return None
            f.seek(len(magic))
            payload = hashlib.sha256(magic)
            batches = []
            while f.tell() < end:
                batches.append(_load_batch(f, end, payload))
        if payload.digest() != trailer[_DIGEST:]:
            return None
    # RecursionError: a header nested deeper than the JSON decoder's stack
    except (OSError, ValueError, RecursionError, ValidationError):
        return None
    return batches


class RecordStore:
    """In-memory store indexed by (service_id, task_id, context_id).

    Each setting is held as the validated SettingBatches added for it,
    joined into one when get first asks for the setting, so a file whose
    settings interleave reads in linear time. Append-only; each setting
    keeps its samples in insertion order.
    """

    def __init__(self):
        # each setting's batches in arrival order, joined on first use
        self._batches = {}

    def add(self, batch: SettingBatch):
        """Append one setting's valid batch."""
        self._batches.setdefault(batch.key, []).append(batch)

    def get(self, service_id, task_id, context_id):
        """The setting's SettingBatch, or None if the store has none."""
        pieces = self._batches.get((service_id, task_id, context_id))
        if pieces is None:
            return None
        if len(pieces) > 1:
            pieces[:] = [SettingBatch.concat(pieces)]
        return pieces[0]

    def keys(self):
        return sorted(self._batches.keys())

    def contexts_for_task(self, task_id):
        return sorted({c for (_, t, c) in self._batches if t == task_id})

    def __len__(self):
        return sum(len(b) for pieces in self._batches.values()
                   for b in pieces)

    @classmethod
    def from_file(cls, path):
        """The store of a JSON Lines record file (see read_batches).

        When path + ".cols", the columns file, holds the sha256 of path's
        bytes and of its own payload, and its batches load, are well
        formed and validate, those batches are taken without decoding any
        record line. Otherwise (missing, stale, truncated, foreign or of
        another layout) the file is read with read_batches, so a damaged
        or stale columns file never changes a result or an error; after
        such a read of a regular file that did not change meanwhile, the
        columns file is written afresh (if the folder takes it), so the
        next read takes the columns. The digests catch damage and
        staleness, not forgery: a columns file crafted with both digests
        right is taken as it stands.
        """
        store = cls()
        batches = _saved_batches(path)
        if batches is not None:
            for batch in batches:
                store.add(batch)
            return store
        # a pipe cannot be read twice, so only a regular file is hashed
        digest = _file_digest(path) if os.path.isfile(path) else None
        for batch in read_batches(path):
            store.add(batch)
        with contextlib.suppress(OSError):
            if digest is not None and digest == _file_digest(path):
                store._write_columns(path, digest)
        return store

    def save(self, path):
        """Write every setting's batch, in key order, as JSON Lines, then
        its columns file (see _write_columns), bound to the sha256 of the
        bytes as they were written."""
        digest = write_batches((self.get(*key) for key in self.keys()), path)
        self._write_columns(path, digest)

    def _write_columns(self, path, digest):
        """Write path + ".cols", the columns file of record file path
        whose bytes have sha256 digest: a magic line, then each
        setting's batch in key order (see _column_bytes), then digest and
        the sha256 of everything before it. It is derived and safe to
        delete."""
        # an empty batch writes no line, so read_batches gives none for it
        batches = filter(len, (self.get(*key) for key in self.keys()))
        payload = hashlib.sha256()
        with open(_columns_path(path), "wb") as f:
            for part in itertools.chain([_COLUMNS_MAGIC],
                                        map(_column_bytes, batches)):
                payload.update(part)
                f.write(part)
            f.write(digest + payload.digest())
