"""Smoke test of the benchmark itself, at the tiny shape.

Run it by name: ``python3 -m pytest -q perfbench/selfcheck.py``. The file
name does not match pytest's ``test_*.py`` pattern, so a bare ``pytest``
from the repository root leaves it out and the repository's own suite
does not pay for the ~15 s of job processes it starts.

Runs every workload untraced and traced through the one-command mode,
checks that every metric of BENCHMARK.json is printed with its unit and
that no job failed, then checks the per-workload output format and that
the benchmark refuses to run without the perfest sources.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_every_workload_prints_every_metric_with_its_unit(tmp_path):
    proc = _run(["--shape", "tiny", "--seconds", "1", "--out",
                 str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {**_units("end_to_end"), **_units("per_layer")}
    for workload in (w["name"] for w in SPEC["workloads"]):
        metrics = result["metrics"][workload]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert metrics["job_s"]["value"] > 0
        assert metrics["metamodels.tree_fits"]["value"] > 0
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()), name
    assert "failed_share" in proc.stdout and "est_mae" in proc.stdout
    assert "self time, meta-fit" in proc.stdout
    spans = tmp_path / "cli-pipeline-seed0-traced-spans.jsonl"
    names = {json.loads(line)["name"]
             for line in spans.read_text().splitlines()}
    assert {"cli.dispatch", "core.read_records", "core.write_records"} <= names


def test_one_workload_prints_the_result_format(tmp_path):
    proc = _run(["--workload", "meta-fit", "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--shape", "tiny", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(_units("per_layer"))
    assert result["attempted"] >= 2 and result["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "cv-experiment", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
