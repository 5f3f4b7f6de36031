"""Tests of the benchmark itself: its checkers reject corrupted results, and
every workload runs end to end on tiny inputs.

    python -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def c3():
    return run.load_program()


def smoke_pass(c3, name):
    workload = WORKLOADS[name](smoke=True)
    inputs = workload.make(c3, seed=3)
    outputs = workload.run(c3, inputs)
    assert all(not bad for bad in workload.check(c3, inputs, outputs))
    return workload, inputs, outputs


def failing_ops(c3, workload, inputs, outputs):
    return [i for i, bad in enumerate(workload.check(c3, inputs, outputs)) if bad]


def test_search_rejects_labeled_count_off_by_one(c3):
    workload, inputs, outputs = smoke_pass(c3, "search")
    s = outputs[4]
    outputs[4] = dataclasses.replace(s, labeled_poset_count=s.labeled_poset_count + 1)
    assert failing_ops(c3, workload, inputs, outputs) == [4]


def test_search_rejects_wrong_failure_count(c3):
    workload, inputs, outputs = smoke_pass(c3, "search")
    s = outputs[5]
    i, r = next((i, r) for i, r in enumerate(s.records) if r.failure_count)
    records = list(s.records)
    records[i] = dataclasses.replace(r, failure_count=r.failure_count - r.labeled_count)
    outputs[5] = dataclasses.replace(s, records=tuple(records))
    assert failing_ops(c3, workload, inputs, outputs) == [5]


def test_instrument_rejects_histogram_bucket_off_by_one(c3):
    workload, inputs, outputs = smoke_pass(c3, "instrument-extensions")
    hist, record = outputs[1]
    outputs[1] = ({**hist, 3: hist[3] + 1}, record)
    assert failing_ops(c3, workload, inputs, outputs) == [1]


def test_large_hierarchy_rejects_swapped_mro_entries(c3):
    workload, inputs, outputs = smoke_pass(c3, "large-hierarchy")
    n = inputs.data["n"]
    k = next(k for k in range(6 + n, 6 + 2 * n) if len(outputs[k]) >= 3)  # brute-force lists
    mro = list(outputs[k])
    mro[1], mro[2] = mro[2], mro[1]
    outputs[k] = tuple(mro)
    assert failing_ops(c3, workload, inputs, outputs) == [k]


def test_large_hierarchy_rejects_wrong_failure_flag(c3):
    workload, inputs, outputs = smoke_pass(c3, "large-hierarchy")
    n = inputs.data["n"]
    induced = range(6 + 2 * n, 6 + 3 * n)
    fail = next(k for k in induced if isinstance(outputs[k], c3.MergeFailure))
    ok = next(k for k in induced if not isinstance(outputs[k], c3.MergeFailure))
    outputs[fail] = (fail - 6 - 2 * n,)
    outputs[ok] = c3.MergeFailure(processed=(), remaining=())
    assert failing_ops(c3, workload, inputs, outputs) == sorted([fail, ok])


def test_tracer_self_time_excludes_nested_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
    steps = tracer.wrap_iterator("steps", lambda: iter(range(3)))
    outer()
    assert list(steps()) == [0, 1, 2]
    assert tracer.calls == {"inner": 5, "outer": 1, "steps": 3}
    assert 0 < tracer.self_s["outer"] < tracer.self_s["inner"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
