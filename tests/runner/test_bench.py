"""Tests for the performance benchmark suite and the ``bench`` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runner.bench import (
    BENCH_SCHEMA,
    HISTORY,
    LARGEST_CIRCUIT,
    BenchCase,
    QUICK_CASES,
    QUICK_CONGESTED_CASES,
    ROUTING_V2_CIRCUITS,
    format_perf_report,
    measure_routing_v2_speedup,
    run_perf_suite,
    time_case,
)


class TestTimeCase:
    def test_records_timing_and_counters(self):
        record = time_case(BenchCase("[[5,1,3]]", fabric="small"), repeats=1)
        assert record["circuit"] == "[[5,1,3]]"
        assert record["qubits"] == 5
        assert record["instructions"] == 14
        assert record["wall_seconds"] > 0
        assert 0 <= record["routing_seconds"] <= record["wall_seconds"]
        assert record["latency_us"] >= record["ideal_latency_us"] > 0
        assert record["dijkstra_calls"] > 0
        assert record["heap_pops"] >= record["edge_relaxations"] >= 0
        assert record["route_queries"] == (
            record["route_cache_hits"] + record["route_cache_misses"]
        )
        assert record["issue_polls"] > 0

    def test_largest_circuit_is_bundled(self):
        from repro.circuits.qecc import BENCHMARK_NAMES, qecc_encoder

        assert LARGEST_CIRCUIT in BENCHMARK_NAMES
        largest = qecc_encoder(LARGEST_CIRCUIT)
        assert largest.num_qubits == max(
            qecc_encoder(name).num_qubits for name in BENCHMARK_NAMES
        )

    def test_quick_cases_include_the_congested_capacity_one_probes(self):
        assert set(QUICK_CONGESTED_CASES) <= set(QUICK_CASES)
        assert all(case.technology == "cap-1" for case in QUICK_CONGESTED_CASES)
        assert any(
            case.circuit.startswith("qecc-scaled") for case in QUICK_CONGESTED_CASES
        )


class TestMeasureRoutingV2Speedup:
    def test_legs_agree_and_record_all_gated_fields(self):
        entry = measure_routing_v2_speedup("[[9,1,3]]", fabric_name="small", repeats=1)
        assert entry["kind"] == "routing-v2"
        assert entry["cold_routing_seconds"] > 0
        assert entry["warm_routing_seconds"] > 0
        assert entry["warm_speedup"] > 0
        assert entry["latency_us"] > 0
        # Deterministic legs: the cold run searches, warm runs are answered
        # entirely from the shared store.
        assert entry["cold_heap_pops"] > 0
        assert entry["warm_heap_pops"] == 0
        assert entry["route_cache_hit_rate"] > entry["cold_hit_rate"]
        assert entry["route_cache_shared_hits"] > 0


class TestRunPerfSuite:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "BENCH_perf.json"
        report = run_perf_suite(quick=True, repeats=1, out=out)
        return report, out

    def test_schema_and_modes(self, report):
        data, _ = report
        assert data["schema"] == BENCH_SCHEMA
        assert data["mode"] == "quick"
        assert len(data["cases"]) == len(QUICK_CASES)
        assert data["speedups"]

    def test_speedup_entries_are_kind_discriminated(self, report):
        data, _ = report
        kinds = {entry["kind"] for entry in data["speedups"]}
        assert kinds == {"routing-v2"}

    def test_history_block_is_frozen(self, report):
        data, _ = report
        assert data["history"] == HISTORY
        assert set(HISTORY) == {
            "measured_at", "compiled-core", "routing-v2", "event-core"
        }

    def test_routing_v2_entries_carry_the_gated_legs(self, report):
        data, _ = report
        entries = {
            e["circuit"]: e for e in data["speedups"] if e["kind"] == "routing-v2"
        }
        assert set(entries) == set(ROUTING_V2_CIRCUITS)
        for circuit, entry in entries.items():
            # The CI acceptance gates: warm hit rate and the cold-leg heap
            # pops, which may not exceed the frozen v2 figures.
            assert entry["route_cache_hit_rate"] >= 0.5
            frozen = HISTORY["routing-v2"]["heap_pops_v1_to_v2"][circuit][1]
            assert 0 < entry["cold_heap_pops"] <= frozen
            # Warm runs are fully served from the shared store: the kernel
            # never runs, so the pop counter stays at zero.
            assert entry["warm_heap_pops"] == 0
            assert entry["route_cache_shared_hits"] > 0

    def test_congested_cases_stay_under_the_recorded_work_ceilings(self, report):
        data, _ = report
        cases = {case["label"]: case for case in data["cases"]}
        # (route_queries, issue_polls) recorded when the tick-loop baseline
        # was deleted; the CI bench-smoke job gates on the same ceilings.
        ceilings = {
            "qecc-scaled:dist=9@cap-1": (1066, 231),
            "random-layered:q=48:d=16:fill=1.0:locality=3:seed=3@cap-1": (3851, 522),
        }
        assert set(ceilings) == {case.label for case in QUICK_CONGESTED_CASES}
        for label, (max_queries, max_polls) in ceilings.items():
            case = cases[label]
            assert 0 < case["route_queries"] <= max_queries
            assert 0 < case["issue_polls"] <= max_polls

    def test_written_file_round_trips(self, report):
        data, out = report
        assert json.loads(out.read_text()) == data

    def test_report_formats_as_tables(self, report):
        data, _ = report
        text = format_perf_report(data)
        assert "Pipeline timings" in text
        assert "shared route store" in text
        for case in data["cases"]:
            assert case["circuit"] in text
        for entry in data["speedups"]:
            assert entry["circuit"] in text


class TestBenchCli:
    def test_bench_subcommand_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        assert main(["bench", "--quick", "--repeats", "1", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "warm speedup" in stdout
        assert str(out) in stdout
        data = json.loads(out.read_text())
        assert data["schema"] == BENCH_SCHEMA

    def test_bench_rejects_bad_repeats(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--repeats", "0"]) == 1
        assert "repeats" in capsys.readouterr().err
