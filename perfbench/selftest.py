"""The benchmark's own tests, at reduced size.

Run from the repository root (about a minute on two cores)::

    python3 -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so that the program's test suite does
not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import session  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, job_list  # noqa: E402

#: ``--seconds`` of the reduced runs: 1/25 of every job list.
SMALL = 1
SMALL_SCALE = SMALL / 25

#: The per-layer metrics that are self times; together they cover a job.
SELF_TIME_METRICS = (
    "pipeline.self_s", "pipeline.package_s", "qidg.build_s", "placement.loop_s",
    "sim.init_s", "scheduling.priorities_s", "sim.self_s", "routing.plan_self_s",
    "routing.kernel_s", "fabric.traps_by_distance_s",
)


def run_bench(workload: str, *, trace: int = 0, seed: int = 1, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SMALL), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(process) -> dict:
    assert process.returncode == 0, process.stderr[-2000:]
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_mirrors_the_catalogue():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert [tuple(m.values()) for m in document["end_to_end"]] == list(metrics.END_TO_END)
    assert [tuple(m.values()) for m in document["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]
    end_to_end = {row[0] for row in metrics.END_TO_END}
    for name, _, _, moves in metrics.PER_LAYER:
        assert moves is None or (moves[0] in end_to_end and moves[1] in WORKLOADS), name


def test_job_lists_derive_from_the_seed():
    for workload in WORKLOADS:
        assert job_list(workload, 1) == job_list(workload, 1)
        assert job_list(workload, 1) != job_list(workload, 2)
    first, second = job_list("service-closed", 1), job_list("service-closed", 2)
    assert Counter(job.circuit for job in first) == Counter(job.circuit for job in second)
    assert len(first) == 120 and len(set(first)) == 100
    for index, job in enumerate(first):
        assert first.index(job) <= index  # a repeat never precedes its original


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload):
    process = run_bench(workload)
    result = result_of(process)
    assert set(result["metrics"]) == {row[0] for row in metrics.END_TO_END}
    lines = process.stdout.splitlines()
    for name, unit, *_ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_prints_with_its_unit(workload):
    result = result_of(run_bench(workload, trace=1))
    assert set(result["metrics"]) == {row[0] for row in metrics.PER_LAYER}
    for name, unit, *_ in metrics.PER_LAYER:
        assert result["metrics"][name]["unit"] == unit
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["placement.passes"] > 0 and values["routing.heap_pops"] > 0
    assert (values["service.exec_s_p50"] > 0) == (workload == "service-closed")


def test_deterministic_metrics_repeat_for_one_seed():
    def values(process):
        return {name: entry["value"] for name, entry in result_of(process)["metrics"].items()}

    first, second = values(run_bench("mvfb-qecc")), values(run_bench("mvfb-qecc"))
    assert first["circuit_latency_us"] == second["circuit_latency_us"]
    first, second = (values(run_bench("congested-cap1", trace=1)) for _ in range(2))
    for name in ("placement.passes", "routing.heap_pops", "sim.events"):
        assert first[name] == second[name], name


def test_layer_self_times_add_up_to_the_job_time():
    tracer = spans.Tracer()
    report = session.LibrarySession("congested-cap1", 1, SMALL_SCALE).run(tracer)
    session.attach_trace(report, tracer)
    values = metrics.per_layer(report, report)
    jobs = report["layers"]["job"]["total"]
    assert sum(values[name] for name in SELF_TIME_METRICS) == pytest.approx(jobs, rel=1e-6)
    assert values["trace.accounted_frac"] > 0.95


def test_a_tampered_schedule_counts_as_failed(monkeypatch):
    original = session.repro.map_circuit

    def tampered(*args, **kwargs):
        result = original(*args, **kwargs)
        result.schedule = result.schedule[::-1]
        return result

    monkeypatch.setattr(session.repro, "map_circuit", tampered)
    report = session.LibrarySession("mvfb-qecc", 1, SMALL_SCALE).run(None)
    assert metrics.failures(report) == len(report["jobs"]) == 2
    assert all("dependency" in job["problems"][0] for job in report["jobs"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    process = run_bench("mvfb-qecc", cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
