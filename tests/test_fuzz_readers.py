"""Mutation fuzzing of the three file readers and the HTTP client: record
files, model files, service configs and completion responses each end in
one typed error, never a traceback. A damaged, stale or foreign record
columns file changes nothing a record file reads as.

Each case takes a valid file or response body, mutates one value of its
JSON (drops it, retypes it, nests it, or swaps in a huge integer, a NaN
or an infinity), and may then damage the bytes (invalid UTF-8,
truncation).
"""

import copy
import dataclasses
import hashlib
import io
import json
import pickle
import tempfile
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from perfest.cli import build_parser
from perfest.core import (ContextSpec, RecordStore, SettingBatch,
                          append_records, read_batches)
from perfest.errors import (CapabilityError, ConfigurationError,
                            ModelFormatError, TransportError,
                            ValidationError)
from perfest.features import FeatureKind
from perfest.metamodels import (ModelKind, ModelSpec, TrainingRow,
                                load_model, save_model, train)
from perfest.profile import FeatureProfile
from perfest.services import (MAX_RECORDS, HttpClient, MarketplaceConfig,
                              ServiceDescriptor, synth_marketplace)

# placeholders, swapped for their text once the value is JSON: an integer
# past int's 4,300-digit limit, and nesting past the decoder's stack
HUGE, DEEP = "\x00huge", "\x00deep"
PLACEHOLDERS = {json.dumps(HUGE): "1" + "0" * 5000,
                json.dumps(DEEP): "[" * 100_000 + "]" * 100_000}
# no "http", so no mutation reaches the network
ODD_VALUES = [None, True, False, 0, -1, 1, 3, 0.5, -0.0, 1e308,
              float("nan"), float("inf"), float("-inf"), 2 ** 63, 10 ** 30,
              -10 ** 30, 10 ** 400, "", "x", "svc00", "1e999", "\ud800",
              HUGE, DEEP, [], {}, [[0.5]], {"a": 1}, [None, "x"]]
BAD_BYTES = [b"\xff\xfe", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\n"]


def paths(value, prefix=()):
    """Every path of keys and indices into a JSON value, the root first."""
    yield prefix
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw, value):
    """``value`` deep-copied with one value at a drawn path dropped,
    replaced or nested."""
    value = copy.deepcopy(value)
    path = draw(st.sampled_from(list(paths(value))))
    how = draw(st.sampled_from(["drop", "replace", "nest"]))
    if not path:
        return draw(st.sampled_from(ODD_VALUES)) if how != "nest" \
            else [value]
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "drop":
        del parent[key]
    elif how == "replace":
        parent[key] = draw(st.sampled_from(ODD_VALUES))
    else:
        parent[key] = draw(st.sampled_from(
            [[parent[key]], {"v": parent[key]}, [[[parent[key]]]]]))
    return value


def to_bytes(text):
    for placeholder, swap in PLACEHOLDERS.items():
        text = text.replace(placeholder, swap)
    return text.encode("utf-8")


@st.composite
def damaged(draw, data):
    """``data`` unchanged, with bytes that are not UTF-8 (or a line break)
    inserted, or truncated, at a drawn position."""
    how = draw(st.sampled_from(["keep", "keep", "insert", "truncate"]))
    if how == "keep":
        return data
    at = draw(st.integers(0, len(data)))
    if how == "truncate":
        return data[:at]
    return data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


# ---------------------------------------------------------------------------
# Record files: only ValidationError, naming a line

def record_objects():
    _, _, store = synth_marketplace(MarketplaceConfig(
        n_services=1, n_tasks=1, samples_per_task=3, contexts_per_task=1,
        seed=5))
    return [{"service_id": rec.service_id, "task_id": rec.task_id,
             "context_id": rec.context_id, "sample_id": rec.sample_id,
             "input_text": rec.input_text,
             "generated_text": rec.generated_text,
             "output_steps": [{"token": s.token,
                               "top_probs": [list(c) for c in s.top_probs]}
                              for s in rec.output_steps],
             "input_scores": list(rec.input_scores),
             "reference": rec.reference}
            for key in store.keys() for rec in store.get(*key).records()]


RECORD_LINES = record_objects()


@st.composite
def record_files(draw):
    lines = list(RECORD_LINES)
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = draw(mutated(lines[at]))
    text = "".join(json.dumps(obj) + "\n" for obj in lines)
    return draw(damaged(to_bytes(text)))


@FUZZ
@given(data=record_files())
@example(data=b'{"output_steps": [{"token": "a", "top_probs": [["a", '
         + b"1" + b"0" * 400 + b']]}]}\n')
@example(data=json.dumps({**RECORD_LINES[0], "reference": "\ud800"})
         .encode("utf-8"))
def test_record_reader_raises_only_a_validation_error_naming_a_line(
        tmp_path, data):
    """A store read from a file can be written back, or the read raises."""
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    try:
        store = RecordStore.from_file(str(path))
    except ValidationError as exc:
        assert exc.line is not None
        assert 1 <= exc.line <= data.count(b"\n") + 1
    else:
        store.save(str(tmp_path / "saved.jsonl"))


# ---------------------------------------------------------------------------
# Record columns files: RecordStore.from_file holds what read_batches
# reads, or raises the same ValidationError, and never unpickles

def saved_stores():
    """(records.jsonl bytes, records.jsonl.cols bytes) of two saved
    stores."""
    out = []
    with tempfile.TemporaryDirectory() as root:
        for seed in (5, 6):
            _, _, store = synth_marketplace(MarketplaceConfig(
                n_services=1, n_tasks=2, samples_per_task=3,
                contexts_per_task=1, seed=seed))
            path = Path(root) / f"{seed}.jsonl"
            store.save(str(path))
            out.append((path.read_bytes(),
                        Path(f"{path}.cols").read_bytes()))
    return out


(RECORDS, COLUMNS), (_, OTHER_COLUMNS) = saved_stores()


def store_columns(store):
    """Every setting's columns: the key, then each column's dtype, shape
    and values."""
    return [[(f.name, value) if f.name == "key" else
             (f.name, value.dtype, value.shape, value.tolist())
             for f in dataclasses.fields(SettingBatch)
             for value in [getattr(store.get(*key), f.name)]]
            for key in store.keys()]


@pytest.fixture
def no_unpickling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a record columns file was unpickled")

    monkeypatch.setattr(pickle, "load", refuse)
    monkeypatch.setattr(pickle, "loads", refuse)


def assert_reads_as_json_lines(tmp_path, records, columns):
    path = tmp_path / "records.jsonl"
    path.write_bytes(records)
    Path(f"{path}.cols").write_bytes(columns)
    want = RecordStore()
    try:
        for batch in read_batches(str(path)):
            want.add(batch)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            RecordStore.from_file(str(path))
        assert (got.value.field, got.value.line, str(got.value)) == (
            exc.field, exc.line, str(exc))
    else:
        assert store_columns(RecordStore.from_file(str(path))) == \
            store_columns(want)


def flipped(data, at):
    return data[:at] + bytes([data[at] ^ 0x20]) + data[at + 1:]


@pytest.mark.parametrize("damage", [
    lambda c: c[:0], lambda c: c[:7], lambda c: c[:len(c) // 2],
    lambda c: c[:-64], lambda c: c[:-1], lambda c: flipped(c, 3),
    lambda c: flipped(c, len(c) // 2), lambda c: flipped(c, len(c) - 50),
    lambda c: flipped(c, len(c) - 1)], ids=[
    "cut-empty", "cut-header", "cut-payload", "cut-trailer", "cut-last-byte",
    "flip-header", "flip-payload", "flip-records-digest",
    "flip-payload-digest"])
def test_damaged_columns_file_reads_as_json_lines(tmp_path, no_unpickling,
                                                  damage):
    assert_reads_as_json_lines(tmp_path, RECORDS, damage(COLUMNS))
    # and the read wrote the columns file afresh
    assert (tmp_path / "records.jsonl.cols").read_bytes() == COLUMNS


@FUZZ
@given(at=st.integers(0, len(COLUMNS) - 1), cut=st.booleans())
def test_columns_file_cut_or_flipped_anywhere_reads_as_json_lines(
        tmp_path, no_unpickling, at, cut):
    assert_reads_as_json_lines(
        tmp_path, RECORDS, COLUMNS[:at] if cut else flipped(COLUMNS, at))


@FUZZ
@given(at=st.integers(0, len(RECORDS) - 1),
       byte=st.sampled_from(b'09x{}[]",.\n\\ '))
def test_records_edited_by_one_byte_read_as_json_lines(
        tmp_path, no_unpickling, at, byte):
    edited = RECORDS[:at] + bytes([byte]) + RECORDS[at + 1:]
    assert_reads_as_json_lines(tmp_path, edited, COLUMNS)


@pytest.mark.parametrize("old, new", [
    (b'"s0001"', b'"s0009"'),  # still valid: a stale columns file
    (b'[["', b'[[9'),  # a candidate without a token: malformed step
    (b'0.', b'9.')],  # a probability above 1
    ids=["valid", "malformed", "out-of-range"])
def test_records_edited_at_a_line_read_as_json_lines(tmp_path, no_unpickling,
                                                     old, new):
    at = RECORDS.index(old, RECORDS.index(b"\n") + 1)  # on line 2
    edited = RECORDS[:at] + new + RECORDS[at + len(old):]
    assert_reads_as_json_lines(tmp_path, edited, COLUMNS)


def test_columns_file_of_another_store_reads_as_json_lines(tmp_path,
                                                         no_unpickling):
    assert OTHER_COLUMNS != COLUMNS
    assert_reads_as_json_lines(tmp_path, RECORDS, OTHER_COLUMNS)


def reforged(change):
    """COLUMNS with the arrays of its payload passed through change, and
    both digests made to hold again."""
    end = len(COLUMNS) - 64
    f, out = io.BytesIO(COLUMNS[:end]), io.BytesIO()
    out.write(f.readline())
    arrays = []
    while f.tell() < end:
        arrays.append(np.lib.format.read_array(f))
    change(arrays)
    for array in arrays:
        if isinstance(array, bytes):  # a bare .npy header
            out.write(array)
        else:
            np.lib.format.write_array(out, array, allow_pickle=True)
    payload = out.getvalue()
    return (payload + hashlib.sha256(RECORDS).digest()
            + hashlib.sha256(payload).digest())


def _set(arrays, i, value):
    arrays[i] = value


def huge_header():
    """The header of a .npy float column of 2**40 values, with no data."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(out, {
        "descr": "<f8", "fortran_order": False, "shape": (2**40,)})
    return out.getvalue()


# the first batch's arrays: 0 vocabulary bytes, 1 their offsets, 2 key,
# 3 sample_ids, ..., 8 tokens, 9 cand_offsets, 10 cand_tokens,
# 11 cand_probs, 12 score_offsets, 13 scores, 14 has_scores
@pytest.mark.parametrize("change", [
    lambda a: _set(a, 3, np.array(["s0000", None], dtype=object)),
    lambda a: _set(a, 11, a[11].astype(np.float32)),
    lambda a: _set(a, 11, a[11][:, None]),
    lambda a: _set(a, 8, a[8][:-1]),
    lambda a: _set(a, 9, a[9] + 1),
    lambda a: _set(a, 11, np.where(np.arange(len(a[11])) == 0, 1.5, a[11])),
    lambda a: _set(a, 3, np.full_like(a[3], -1)),
    lambda a: _set(a, 8, np.full_like(a[8], len(a[1]) - 1)),
    lambda a: _set(a, 14, np.zeros_like(a[14])),
    lambda a: _set(a, 11, huge_header()),
    lambda a: _set(a, 1, a[1] + 1),
    lambda a: _set(a, 1, a[1][[0, 2, 1, *range(3, len(a[1]))]]),
    lambda a: _set(a, 1, np.append(a[1][:-1], a[1][-1] - 1))],
    ids=["pickled", "float32", "two-dimensional", "short-column",
         "shifted-offsets", "probability-above-1", "none-sample-id",
         "code-past-vocabulary", "scores-without-has-scores", "huge-shape",
         "vocabulary-offsets-shifted", "vocabulary-offsets-descending",
         "vocabulary-offsets-short"])
def test_forged_columns_file_with_valid_digests_reads_as_json_lines(
        tmp_path, no_unpickling, change):
    assert reforged(lambda arrays: None) == COLUMNS
    assert_reads_as_json_lines(tmp_path, RECORDS, reforged(change))


# ---------------------------------------------------------------------------
# Model files: only ModelFormatError

def model_objects(tmp_path_factory):
    rng = np.random.default_rng(9)
    rows = [TrainingRow(FeatureProfile(
        service_id="svc00", task_id=f"task{i % 3:02d}", context_id="ctx00",
        kinds=(FeatureKind.NLL,), dims=3,
        vector=tuple(sorted(rng.uniform(0, 5, size=3).tolist()))),
        float(rng.uniform())) for i in range(12)]
    out = []
    for spec in (ModelSpec(ModelKind.KNN, {"k": 2}),
                 ModelSpec(ModelKind.MLP, {"hidden_width": 2, "epochs": 3}),
                 ModelSpec(ModelKind.RANDOM_FOREST,
                           {"n_trees": 2, "max_depth": 2}),
                 ModelSpec(ModelKind.GBT, {"n_rounds": 2, "max_depth": 2})):
        path = tmp_path_factory.mktemp("model") / "model.json"
        save_model(train(spec, rows, seed=0), str(path))
        out.append(json.loads(path.read_text()))
    return out


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    return model_objects(tmp_path_factory)


@FUZZ
@given(data=st.data())
def test_model_reader_raises_only_a_model_format_error(tmp_path, models,
                                                      data):
    obj = data.draw(st.sampled_from(models))
    raw = data.draw(damaged(to_bytes(json.dumps(data.draw(mutated(obj))))))
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    try:
        load_model(str(path))
    except ModelFormatError:
        pass


@pytest.mark.parametrize("kind, key", [(ModelKind.MLP, "b2"),
                                       (ModelKind.GBT, "base")])
def test_model_bias_past_the_float_range_is_a_model_format_error(
        tmp_path, models, kind, key):
    obj = next(o for o in models if o["kind"] == kind.value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**obj, "params": {**obj["params"],
                                                  key: 10 ** 400}}))
    with pytest.raises(ModelFormatError, match=key):
        load_model(str(path))


# ---------------------------------------------------------------------------
# Service configs: exit 0 with one record, or ConfigurationError and none

@pytest.fixture(scope="module")
def services():
    services, _, _ = synth_marketplace(MarketplaceConfig(
        n_services=2, n_tasks=2, samples_per_task=4, contexts_per_task=2,
        seed=5))
    return [{"service_id": s.service_id, "kind": s.kind,
             "capabilities": s.capabilities, "config": s.config}
            for s in services]


def invoke_args(config, out):
    return build_parser().parse_args([
        "invoke", "--service-config", str(config), "--service", "svc00",
        "--task", "task01", "--context", "ctx01", "--sample", "s0003",
        "--out", str(out)])


@FUZZ
@given(data=st.data())
def test_service_config_reader_raises_only_a_configuration_error(
        tmp_path, services, data):
    raw = data.draw(damaged(to_bytes(json.dumps(
        data.draw(mutated(services))))))
    config, out = tmp_path / "services.json", tmp_path / "invoked.jsonl"
    config.write_bytes(raw)
    out.unlink(missing_ok=True)
    args = invoke_args(config, out)
    try:
        assert args.fn(args) == 0
    except ConfigurationError:
        assert not out.exists()
    else:
        assert len(out.read_bytes().splitlines()) == 1


@pytest.mark.parametrize("field, value", [
    ("n_services", 10 ** 30), ("n_tasks", 2 ** 63),
    ("contexts_per_task", 10 ** 400), ("samples_per_task", True),
    ("samples_per_task", 4.0), ("seed", float("nan")), ("seed", "7"),
    ("seed", 1.5), ("feature_fidelity", "0.9"),
    ("skill_range", [0.2, None]), ("samples_per_task", 2 ** 62),
    ("samples_per_task", MAX_RECORDS + 1)])
def test_mock_config_with_an_odd_value_is_a_configuration_error(
        tmp_path, services, field, value):
    bad = copy.deepcopy(services)
    bad[0]["config"][field] = value
    config, out = tmp_path / "services.json", tmp_path / "invoked.jsonl"
    config.write_text(json.dumps(bad))
    args = invoke_args(config, out)
    with pytest.raises(ConfigurationError, match=field):
        args.fn(args)
    assert not out.exists()


# ---------------------------------------------------------------------------
# HTTP responses: a record that reads back as written, or CapabilityError,
# TransportError or ValidationError

HTTP_SERVICE = ServiceDescriptor(
    service_id="svc-http", kind="http",
    capabilities={"generation": True, "input_scoring": True,
                  "top_k_depth": 2},
    config={"endpoint": "http://127.0.0.1:9/v1/completions"})
# prompt "q1\na1\n\n" then the input text, which starts at character 8
HTTP_CONTEXT = ContextSpec("ctx00", (("q1", "a1"),))
HTTP_BODIES = [
    {"choices": [{"text": " paris!", "logprobs": {
        "tokens": [" paris", "!"],
        "top_logprobs": [{" paris": -0.1, " lyon": -3.0}, {"!": -0.5}]}}]},
    {"choices": [{"text": "", "logprobs": {
        "tokens": ["q1", "capital", " of"],
        "token_logprobs": [None, -0.1, -0.2], "text_offset": [0, 8, 15],
        "top_logprobs": [None, None, None]}}]},
]


@pytest.fixture(autouse=True)
def no_retry_sleep(monkeypatch):
    """HTTP retries take no time."""
    monkeypatch.setattr("perfest.services.time.sleep", lambda seconds: None)


class BodySession:
    """A requests.Session stand-in whose posts answer 200 with the next
    body, decoded from bytes as requests' Response.json decodes it."""

    def __init__(self, bodies):
        self.bodies = list(bodies)

    def post(self, url, **kwargs):
        return SimpleNamespace(status_code=200, headers={}, json=partial(
            json.loads, self.bodies.pop(0)))


@FUZZ
@given(data=st.data())
def test_http_client_raises_only_a_typed_error(tmp_path, data):
    at = data.draw(st.integers(0, len(HTTP_BODIES) - 1))
    bodies = [json.dumps(body).encode("utf-8") for body in HTTP_BODIES]
    bodies[at] = data.draw(damaged(to_bytes(json.dumps(
        data.draw(mutated(HTTP_BODIES[at]))))))
    client = HttpClient(HTTP_SERVICE, session=BodySession(bodies))
    try:
        rec = client.invoke("capital of france?", HTTP_CONTEXT, "s0000",
                            "task00")
    except (CapabilityError, TransportError, ValidationError):
        return
    path = tmp_path / "invoked.jsonl"
    path.unlink(missing_ok=True)
    append_records([rec], str(path))
    assert RecordStore.from_file(str(path)).get(*rec.key).records() == [rec]
