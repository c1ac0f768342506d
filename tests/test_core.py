"""Record model, JSON Lines IO, and the in-memory store."""

import dataclasses
import hashlib
import json
import os
import threading
import tracemalloc

import pytest

from perfest import core
from perfest.core import (
    InvocationRecord,
    RecordStore,
    SettingBatch,
    TokenStep,
    append_records,
    read_batches,
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


def edge_records():
    """Records of two settings that exercise every column's edge cases."""
    def rec(sample_id, text, steps, scores, reference, task_id="task00"):
        return InvocationRecord("svc00", task_id, "ctx00", sample_id, text,
                                text + "\x00", tuple(steps), scores, reference)

    one = TokenStep("\x00", (("\x00", 1.0),))  # k = 1
    two = TokenStep("\U0001f600", (("\U0001f600", 0.5), ("", 0.25)))
    return [rec("s0", "café\x00", [one, two], (0.5,), None),
            rec("", "", [], None, ""),  # zero steps, no input scores
            rec("sé", "\U0001f600", [two], (), "r\x00"),
            rec("s0", "x", [one], None, None, task_id="task01")]


def assert_same_batches(store, batches):
    """store holds exactly `batches`, equal column for column in dtype,
    shape and values."""
    assert store.keys() == sorted(b.key for b in batches)
    for want in batches:
        got = store.get(*want.key)
        for field in dataclasses.fields(SettingBatch):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if field.name == "key":
                assert a == b
                continue
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tolist() == b.tolist(), field.name


def no_json(path):
    raise AssertionError("read_batches called")


def write_and(records, path):
    """Write records to path; return path."""
    write_records(records, path)
    return path


def test_saved_store_reads_back_from_its_columns_file(tmp_path, monkeypatch):
    records = edge_records()
    store = RecordStore()
    for key in dict.fromkeys(r.key for r in records):
        store.add(SettingBatch.from_records(r for r in records
                                            if r.key == key))
    # an empty batch writes no line, so its setting reads back as absent
    store.add(SettingBatch.from_records(
        [dataclasses.replace(records[-1], context_id="ctx01")]).take([]))
    path = str(tmp_path / "records.jsonl")
    store.save(path)
    assert os.path.exists(path + ".cols")
    want = list(read_batches(path))
    monkeypatch.setattr(core, "read_batches", no_json)
    assert_same_batches(RecordStore.from_file(path), want)
    assert_same_batches(RecordStore.from_file(os.fsencode(path)), want)


def test_columns_file_needs_no_file_digest(tmp_path, monkeypatch):
    # hashlib.file_digest is new in Python 3.11
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    records = edge_records()
    path = str(tmp_path / "records.jsonl")
    RecordStore.from_file(write_and(records, path)).save(path)
    want = list(read_batches(path))
    monkeypatch.setattr(core, "read_batches", no_json)
    assert_same_batches(RecordStore.from_file(path), want)


def test_first_read_writes_the_columns_file_the_next_read_takes(
        tmp_path, monkeypatch):
    path = write_and(edge_records(), str(tmp_path / "records.jsonl"))
    want = list(read_batches(path))
    assert not os.path.exists(path + ".cols")
    assert_same_batches(RecordStore.from_file(path), want)
    columns = (tmp_path / "records.jsonl.cols").read_bytes()
    # the same columns file save writes for the same record file
    saved = str(tmp_path / "saved.jsonl")
    RecordStore.from_file(path).save(saved)
    assert (tmp_path / "saved.jsonl").read_bytes() == \
        (tmp_path / "records.jsonl").read_bytes()
    assert (tmp_path / "saved.jsonl.cols").read_bytes() == columns
    monkeypatch.setattr(core, "read_batches", no_json)
    assert_same_batches(RecordStore.from_file(path), want)


def test_record_file_changed_while_read_gets_no_columns_file(tmp_path,
                                                             monkeypatch):
    records = edge_records()
    path = write_and(records[:1], str(tmp_path / "records.jsonl"))
    read = core.read_batches

    def read_then_append(path):
        yield from read(path)
        append_records(records[1:2], path)

    monkeypatch.setattr(core, "read_batches", read_then_append)
    assert len(RecordStore.from_file(path)) == 1
    assert not os.path.exists(path + ".cols")


def test_record_file_whose_columns_cannot_be_written_reads(tmp_path):
    path = write_and(edge_records(), str(tmp_path / "records.jsonl"))
    os.mkdir(path + ".cols")
    assert_same_batches(RecordStore.from_file(path), list(read_batches(path)))


def test_save_hashes_the_bytes_it_writes(tmp_path, monkeypatch):
    records = edge_records()
    path = str(tmp_path / "records.jsonl")
    store = RecordStore.from_file(write_and(records, path))
    want = list(read_batches(path))

    def no_digest(path):
        raise AssertionError("_file_digest called")

    with monkeypatch.context() as patch:
        patch.setattr(core, "_file_digest", no_digest)
        store.save(path)
    monkeypatch.setattr(core, "read_batches", no_json)
    assert_same_batches(RecordStore.from_file(path), want)


def test_stale_columns_file_is_refused_before_its_payload_is_parsed(
        tmp_path, monkeypatch):
    path = str(tmp_path / "records.jsonl")
    RecordStore.from_file(write_and(edge_records(), path)).save(path)
    text = (tmp_path / "records.jsonl").read_text()
    # still valid, so only the digest tells the columns file is stale
    (tmp_path / "records.jsonl").write_text(text.replace('"s0"', '"s9"'))
    want = list(read_batches(path))

    def no_parse(*args):
        raise AssertionError("_load_batch called")

    monkeypatch.setattr(core, "_load_batch", no_parse)
    assert_same_batches(RecordStore.from_file(path), want)


def test_columns_file_is_read_without_holding_it_whole(tmp_path,
                                                       monkeypatch):
    # cli-pipeline's quick shape: a columns file of 5.3 MB
    _, _, store = synth_marketplace(MarketplaceConfig(
        n_services=2, n_tasks=6, contexts_per_task=5, samples_per_task=300,
        seed=100))
    path = str(tmp_path / "records.jsonl")
    store.save(path)
    del store
    size = os.path.getsize(path + ".cols")
    monkeypatch.setattr(core, "read_batches", no_json)
    tracemalloc.start()
    try:
        store = RecordStore.from_file(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store) == 2 * 6 * 5 * 300
    # reading the whole file, then copying each column out, peaked 5.6 MB
    # above the store
    assert peak - held < size / 2


def test_append_onto_a_file_without_a_final_newline(tmp_path):
    record = make_record()
    path = tmp_path / "records.jsonl"
    write_records([record], str(path))
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    append_records([record], str(path))
    assert read_records(str(path)) == [record, record]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_append_records_to_a_pipe_sends_the_records_alone(tmp_path):
    record = make_record()
    write_records([record], str(tmp_path / "want.jsonl"))
    path = str(tmp_path / "pipe")
    os.mkfifo(path)
    got = []

    def read():
        with open(path, "rb") as f:
            got.append(f.read())

    # a writer whose pipe lost its reader would block for good
    threads = [threading.Thread(target=read, daemon=True),
               threading.Thread(target=append_records, args=([record], path),
                                daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert got == [(tmp_path / "want.jsonl").read_bytes()]


def test_append_records_removes_the_columns_file(tmp_path, monkeypatch):
    records = edge_records()
    store = RecordStore()
    store.add(SettingBatch.from_records(records[:1]))
    path = str(tmp_path / "records.jsonl")
    store.save(path)
    append_records(records[1:2], path)
    assert not os.path.exists(path + ".cols")
    back = RecordStore.from_file(path)
    assert back.get(*records[0].key).records() == records[:2]
    # that read wrote the appended file's columns, which the next one takes
    monkeypatch.setattr(core, "read_batches", no_json)
    back = RecordStore.from_file(path)
    assert back.get(*records[0].key).records() == records[:2]


def good_then_bad():
    """A valid record, then one of another setting with a probability of
    1.5: a writer that validates setting by setting as it writes would
    have written the first before it meets the second."""
    return [make_record(),
            dataclasses.replace(make_record(p1=1.5), task_id="task01")]


def test_write_records_with_an_invalid_record_writes_no_file(tmp_path):
    path = tmp_path / "records.jsonl"
    with pytest.raises(ValidationError):
        write_records(good_then_bad(), str(path))
    assert not path.exists()


def test_rejected_append_leaves_both_files_as_they_were(tmp_path):
    new = tmp_path / "new.jsonl"
    with pytest.raises(ValidationError):
        append_records(good_then_bad(), str(new))
    assert not new.exists()
    store = RecordStore()
    store.add(SettingBatch.from_records([make_record()]))
    path = tmp_path / "records.jsonl"
    store.save(str(path))
    # a last line without its newline, which the append would end
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    files = {p: p.read_bytes() for p in (path, tmp_path / "records.jsonl.cols")}
    with pytest.raises(ValidationError):
        append_records(good_then_bad(), str(path))
    assert {p: p.read_bytes() for p in files} == files
