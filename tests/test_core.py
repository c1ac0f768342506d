"""Record model, JSON Lines IO, and the in-memory store."""

import json
import os

import pytest

from perfest.core import (
    InvocationRecord,
    RecordStore,
    SettingBatch,
    TokenStep,
    read_records,
    write_records,
)
from perfest.errors import ValidationError
from perfest.services import MarketplaceConfig, synth_marketplace


def make_record(sample_id="s0000", p1=0.9, p2=0.05):
    steps = (
        TokenStep("hello", (("hello", p1), ("hi", p2))),
        TokenStep("world", (("world", p1), ("earth", p2))),
    )
    return InvocationRecord(
        service_id="svc00",
        task_id="task00",
        context_id="ctx00",
        sample_id=sample_id,
        input_text="say hello",
        generated_text="hello world",
        output_steps=steps,
        input_scores=(0.5, 0.6, 0.7),
        reference="hello world",
    )


def record_line(**overrides):
    obj = {
        "service_id": "svc00",
        "task_id": "task00",
        "context_id": "ctx00",
        "sample_id": "s0000",
        "input_text": "say hello",
        "generated_text": "hello world",
        "output_steps": [
            {"token": "hello", "top_probs": [["hello", 0.9], ["hi", 0.05]]},
            {"token": "world", "top_probs": [["world", 0.8], ["earth", 0.1]]},
        ],
        "input_scores": [0.5, 0.6],
        "reference": "hello world",
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_empty_file_reads_as_empty_list(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_records(str(path)) == []


def test_single_record_round_trips_byte_identically(tmp_path):
    rec = make_record()
    path = tmp_path / "one.jsonl"
    write_records([rec], str(path))
    first = path.read_bytes()
    back = read_records(str(path))
    assert len(back) == 1
    write_records(back, str(path))
    assert path.read_bytes() == first
    assert back[0] == rec


def test_unsorted_top_probs_rejected_with_field_and_line(tmp_path):
    bad = record_line(output_steps=[
        {"token": "a", "top_probs": [["a", 0.2], ["b", 0.7]]},
    ])
    path = tmp_path / "bad.jsonl"
    path.write_text(bad + "\n")
    with pytest.raises(ValidationError) as exc:
        read_records(str(path))
    assert exc.value.field == "top_probs"
    assert exc.value.line == 1


def test_error_line_numbers_track_position(tmp_path):
    bad = json.loads(record_line())
    del bad["sample_id"]
    path = tmp_path / "mixed.jsonl"
    path.write_text(record_line() + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValidationError) as exc:
        read_records(str(path))
    assert exc.value.field == "sample_id"
    assert exc.value.line == 2


@pytest.mark.parametrize("field", [
    "service_id", "task_id", "sample_id", "input_text",
    "generated_text", "output_steps",
])
def test_missing_required_field_rejected(tmp_path, field):
    obj = json.loads(record_line())
    del obj[field]
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValidationError) as exc:
        read_records(str(path))
    assert exc.value.field == field


@pytest.mark.parametrize("field, change", [
    ("input_text", {"input_text": "say \ud800"}),
    ("reference", {"reference": "\udfff"}),
    ("output_steps", {"output_steps": [
        {"token": "a", "top_probs": [["\ud83d", 0.9]]}]})])
def test_lone_surrogate_escape_rejected_with_field_and_line(tmp_path, field,
                                                            change):
    # json.dumps writes the surrogate as an escape, which UTF-8 decoding
    # of the line lets through and the writer could not encode
    path = tmp_path / "bad.jsonl"
    path.write_text(record_line() + "\n" + record_line(**change) + "\n")
    with pytest.raises(ValidationError) as exc:
        RecordStore.from_file(str(path))
    assert (exc.value.field, exc.value.line) == (field, 2)


def test_surrogate_pair_escape_reads_and_writes_back(tmp_path):
    path = tmp_path / "pair.jsonl"
    path.write_text(record_line(input_text="smile \U0001f600") + "\n")
    assert "\\ud83d\\ude00" in path.read_text()
    RecordStore.from_file(str(path)).save(str(tmp_path / "out.jsonl"))
    assert read_records(str(tmp_path / "out.jsonl"))[0].input_text == (
        "smile \U0001f600")


def test_out_of_range_input_scores_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(record_line(input_scores=[0.5, 1.5]) + "\n")
    with pytest.raises(ValidationError) as exc:
        read_records(str(path))
    assert exc.value.field == "input_scores"


def test_probability_out_of_range_rejected(tmp_path):
    bad = record_line(output_steps=[
        {"token": "a", "top_probs": [["a", 1.2]]},
    ])
    path = tmp_path / "bad.jsonl"
    path.write_text(bad + "\n")
    with pytest.raises(ValidationError):
        read_records(str(path))


def test_missing_optional_fields_allowed(tmp_path):
    obj = json.loads(record_line())
    del obj["input_scores"]
    del obj["reference"]
    path = tmp_path / "opt.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    rec = read_records(str(path))[0]
    assert rec.input_scores is None
    assert rec.reference is None


def test_write_records_empty_list_makes_empty_file(tmp_path):
    path = tmp_path / "none.jsonl"
    write_records([], str(path))
    assert path.read_text() == ""


def test_thousand_synthetic_records_round_trip(tmp_path):
    cfg = MarketplaceConfig(n_services=2, n_tasks=2, samples_per_task=125,
                            contexts_per_task=2, seed=11)
    _, _, store = synth_marketplace(cfg)
    records = [r for key in store.keys() for r in store.get(*key).records()]
    assert len(records) >= 1000
    path = tmp_path / "big.jsonl"
    write_records(records, str(path))
    back = read_records(str(path))
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert a == b


def test_store_groups_by_setting_and_preserves_order(tmp_path):
    recs = [make_record(sample_id="s%04d" % i) for i in range(5)]
    store = RecordStore()
    store.add(SettingBatch.from_records(recs))
    assert store.keys() == [("svc00", "task00", "ctx00")]
    got = store.get("svc00", "task00", "ctx00").records()
    assert [r.sample_id for r in got] == ["s%04d" % i for i in range(5)]
    path = tmp_path / "store.jsonl"
    store.save(str(path))
    again = RecordStore.from_file(str(path))
    assert [again.get(*key).records() for key in again.keys()] == \
        [store.get(*key).records() for key in store.keys()]


def test_store_contexts_for_task():
    cfg = MarketplaceConfig(n_services=1, n_tasks=1, samples_per_task=4,
                            contexts_per_task=3, seed=1)
    _, _, store = synth_marketplace(cfg)
    assert store.contexts_for_task("task00") == ["ctx00", "ctx01", "ctx02"]


def test_record_lines_are_stripped_of_unicode_whitespace(tmp_path):
    path = tmp_path / "spaced.jsonl"
    path.write_bytes("\u3000{}\u2003\r\n\xa0\u2028\n{}\n".format(
        record_line(), record_line(sample_id="s0001")).encode("utf-8"))
    assert [r.sample_id for r in read_records(str(path))] == ["s0000",
                                                             "s0001"]
    path.write_bytes("{}\n\u3000\n{}\n".format(
        record_line(), record_line(input_scores=[1.5])).encode("utf-8"))
    with pytest.raises(ValidationError) as exc:
        read_records(str(path))
    assert exc.value.line == 3
