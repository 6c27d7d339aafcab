"""Microbenchmarks of the routing/simulation performance core.

Runs the same suite as ``qspr-map bench`` (see :mod:`repro.runner.bench`)
under the benchmark harness: it times full place-route-simulate pipeline
runs on the paper's circuits, measures the routing kernel solo (cold) and
answering from the shared route store (warm), asserts both legs agree on
every mapping result, and records the report via ``report_util`` so the
session summary shows the trajectory tables.

Scale knobs (environment):

* ``REPRO_BENCH_PERF_FULL`` — set to ``1`` to time every bundled circuit
  (the ``qspr-map bench`` full mode); the default is the quick subset,
  which keeps the CI smoke job fast.
"""

from __future__ import annotations

import os

from report_util import emit as _emit
from repro.runner.bench import (
    LARGEST_CIRCUIT,
    format_perf_report,
    measure_routing_v2_speedup,
    run_perf_suite,
    time_case,
    QUICK_CASES,
)

#: Whether to run the full bundled-circuit sweep (default: quick subset).
PERF_FULL = os.environ.get("REPRO_BENCH_PERF_FULL", "0") == "1"


def test_perf_suite_reports_trajectory():
    """The whole suite runs end to end and emits the trajectory tables."""
    report = run_perf_suite(quick=not PERF_FULL, repeats=3)
    _emit(format_perf_report(report))
    assert report["cases"], "the suite must time at least one case"
    for case in report["cases"]:
        assert case["wall_seconds"] > 0
        assert 0 <= case["routing_seconds"] <= case["wall_seconds"]
    for entry in report["speedups"]:
        # The equivalence gate inside measure_routing_v2_speedup already
        # asserted equal results; here only the shared store must pay off.
        assert entry["route_cache_hit_rate"] >= 0.5, (
            f"warm hit rate {entry['route_cache_hit_rate']:.1%} < 50% on "
            f"{entry['circuit']}"
        )


def test_largest_circuit_warm_routing(benchmark):
    """Headline number: warm-store routing on the largest bundled circuit."""
    entry = benchmark.pedantic(
        measure_routing_v2_speedup, args=(LARGEST_CIRCUIT,), kwargs={"repeats": 3},
        rounds=1, iterations=1,
    )
    benchmark.extra_info.update(
        cold_routing_ms=round(entry["cold_routing_seconds"] * 1000, 1),
        warm_routing_ms=round(entry["warm_routing_seconds"] * 1000, 1),
        warm_speedup=round(entry["warm_speedup"], 2),
        cold_heap_pops=entry["cold_heap_pops"],
    )
    assert entry["warm_heap_pops"] == 0


def test_single_case_timing(benchmark):
    """Per-case timing of the smallest paper circuit (quick feedback loop)."""
    record = benchmark.pedantic(
        time_case, args=(QUICK_CASES[0],), kwargs={"repeats": 1},
        rounds=3, iterations=1,
    )
    assert record["latency_us"] > 0
