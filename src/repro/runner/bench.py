"""Performance microbenchmarks of the mapping hot path (``qspr-map bench``).

The suite times full place-route-simulate pipeline runs on the paper's QECC
benchmark circuits and records, next to every wall time, the deterministic
work counters CI can gate without flakiness:

* ``cases`` — best-of-``repeats`` timings of each :class:`BenchCase`, with
  the routing-core counters (route queries, Dijkstra searches, heap pops,
  edge relaxations, cache hit rate) and the event loop's issue polls.  The
  capacity-1 congestion cases are where the wake-set gated issue loop does
  its work, so their route-query and issue-poll counts are gated;
* ``speedups`` — ``kind: "routing-v2"`` entries: the routing kernel on one
  circuit as a solo run (*cold*) and answering from the cross-run shared
  route store (*warm*), with identical mapping results asserted across the
  legs;
* ``loadgen`` — the service loadgen smoke case;
* ``history`` — speedups measured against the pre-refactor cores before
  those cores were deleted, frozen as recorded (:data:`HISTORY`).

Results are written to ``BENCH_perf.json`` so every future change has a
recorded trajectory to beat; see ``docs/PERFORMANCE.md`` for how to read the
report.  The schema is flat JSON on purpose: external tooling (pandas, jq,
CI artifact diffing) can consume it without knowing this package.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.tables import format_comparison_table
from repro.circuits.qecc import BENCHMARK_NAMES
from repro.mapper.options import MapperOptions
from repro.mapper.result import MappingResult
from repro.pipeline.circuits import resolve_circuit
from repro.pipeline.fabrics import resolve_fabric
from repro.pipeline.stages import MappingPipeline
from repro.pipeline.technologies import resolve_technology

#: Identifier of the report layout, bumped on incompatible changes.
#: Schema 2: ``speedups`` entries carry a ``kind`` discriminator.
#: Schema 3: adds ``kind: "routing-v2"`` entries.
#: Schema 4: the pre-refactor baselines are gone — ``compiled-core`` and
#: ``event-core`` entries and the legacy/v1 legs of ``routing-v2`` entries
#: are dropped, their last measurements frozen in a ``history`` block;
#: cases record ``route_queries`` and ``issue_polls``.
BENCH_SCHEMA = "qspr-perf-bench/4"

#: The largest bundled circuit (most qubits); the headline routing target.
LARGEST_CIRCUIT = "[[23,1,7]]"


@dataclass(frozen=True)
class BenchCase:
    """One timed pipeline configuration.

    Attributes:
        circuit: Registered benchmark circuit name.
        fabric: Registered fabric name (the paper's 45x85 fabric by default).
        placer: Placer evaluated by the pipeline.  ``center`` keeps a single
            deterministic placement run, so the timing isolates the
            place-route-simulate hot path rather than a placement search.
        technology: Registered technology (PMD) name the case runs under.
        scheduler: Registered scheduling-policy name.
    """

    circuit: str
    fabric: str = "quale"
    placer: str = "center"
    technology: str = "paper"
    scheduler: str = "qspr"

    @property
    def label(self) -> str:
        """Scenario-qualified case label used in reports and CI assertions."""
        label = self.circuit
        if self.technology != "paper":
            label += f"@{self.technology}"
        if self.scheduler != "qspr":
            label += f"+{self.scheduler}"
        return label


#: Capacity-1 congestion cases (the QUALE hardware assumption).
#: Single-occupancy channels maximise congestion stalls, the regime the
#: wake-set gated issue loop exists for, so CI gates their route-query and
#: issue-poll counts.  The ``qecc-scaled`` cases extrapolate the paper's QECC
#: suite past its largest member ([[23,1,7]] at distance 7 → [[41,1,9]] at
#: distance 9); the random-layered cases exercise locality-clustered
#: traffic, where most parked instructions are unaffected by any given
#: release.
QUICK_CONGESTED_CASES: tuple[BenchCase, ...] = tuple(
    BenchCase(name, technology="cap-1")
    for name in (
        "qecc-scaled:dist=9",
        "random-layered:q=48:d=16:fill=1.0:locality=3:seed=3",
    )
)
FULL_CONGESTED_CASES: tuple[BenchCase, ...] = tuple(
    BenchCase(name, technology="cap-1")
    for name in (
        "qecc-scaled:dist=9",
        "qecc-scaled:dist=13",
        "random-layered:q=96:d=64:fill=1.0:locality=3:seed=3",
    )
)

#: Cases timed by ``qspr-map bench --quick`` (CI smoke; a few seconds).  The
#: non-paper cases keep the scenario machinery (technology/scheduler plugins
#: threaded through the pipeline) on the perf-tracked path.
QUICK_CASES: tuple[BenchCase, ...] = (
    BenchCase("[[5,1,3]]"),
    BenchCase("[[7,1,3]]"),
    BenchCase("[[9,1,3]]"),
    BenchCase("[[9,1,3]]", technology="cap-1", scheduler="qpos-dependents"),
) + QUICK_CONGESTED_CASES

#: Cases timed by the full suite: every bundled QECC benchmark, plus scenario
#: probes on the mid-size circuit (alternative PMD and scheduler).
FULL_CASES: tuple[BenchCase, ...] = tuple(
    BenchCase(name) for name in BENCHMARK_NAMES
) + (
    BenchCase("[[19,1,7]]", technology="cap-1", scheduler="qpos-dependents"),
    BenchCase("[[19,1,7]]", technology="fast-turn", scheduler="quale-alap"),
) + FULL_CONGESTED_CASES

#: Circuits the routing kernel's cold/warm legs are measured on, in both the
#: quick and the full suite: the CI gates (warm hit rate, cold heap pops)
#: are defined over exactly this pair, and the quick suite is what CI runs.
ROUTING_V2_CIRCUITS: tuple[str, ...] = ("[[19,1,7]]", "[[23,1,7]]")

#: Speedups measured against the pre-refactor cores before they were
#: deleted (full suite, 2-core x86-64 VM, Python 3.11, commit c684e8f).  The
#: baselines no longer exist, so these figures are frozen, never
#: regenerated.  Per circuit on the ``quale`` fabric, center placer:
#:
#: * ``compiled-core`` — CSR Dijkstra kernel + route cache + spatial memo vs
#:   the object-graph Dijkstra core (pipeline wall time);
#: * ``routing-v2`` — snapshot route caches + landmark search, warm shared
#:   store, vs the v1 epoch-dropped route cache (routing seconds), the
#:   cumulative ratio vs the object-graph core, and the heap pops of a cold
#:   v1 run vs a cold v2 run;
#: * ``event-core`` — router route queries of the tick-poll issue loop vs
#:   the wake-set gated event loop (``cap-1`` technology).
HISTORY: dict = {
    "measured_at": "c684e8f",
    "compiled-core": {
        "baseline": "object-graph Dijkstra, no route cache, no spatial memo",
        "speedup": {"[[19,1,7]]": 3.62, "[[23,1,7]]": 4.23},
    },
    "routing-v2": {
        "baseline": "routing v1 (compiled core, epoch-dropped route cache)",
        "speedup": {"[[19,1,7]]": 3.49, "[[23,1,7]]": 3.91},
        "cumulative_speedup": {"[[19,1,7]]": 13.4, "[[23,1,7]]": 15.0},
        "heap_pops_v1_to_v2": {"[[19,1,7]]": [33614, 9293], "[[23,1,7]]": [39838, 9716]},
    },
    "event-core": {
        "baseline": "tick-poll issue loop (no wake-set gating)",
        "route_query_speedup": {
            "qecc-scaled:dist=9": 2.34,
            "qecc-scaled:dist=13": 3.02,
            "random-layered:q=96:d=64:fill=1.0:locality=3:seed=3": 5.06,
        },
    },
}


def _run_pipeline(
    circuit_name: str,
    fabric,
    placer: str,
    *,
    technology: str = "paper",
    scheduler: str = "qspr",
    shared_route_cache: bool = False,
) -> tuple[MappingResult, float]:
    """One timed pipeline run; returns the result and its wall-clock seconds."""
    circuit = resolve_circuit(circuit_name)
    options = MapperOptions(
        technology=resolve_technology(technology),
        scheduler=scheduler,
        placer=placer,
        shared_route_cache=shared_route_cache,
    )
    started = time.perf_counter()
    result = MappingPipeline.standard().run(circuit, fabric, options=options)
    return result, time.perf_counter() - started


def time_case(case: BenchCase, repeats: int = 3) -> dict:
    """Best-of-``repeats`` timing of one case.

    The fabric is reused across repeats — that is how the mappers use
    fabrics (the per-fabric graph compile is a one-off) — so best-of timing
    reports the warm steady state.  The counters are deterministic.
    """
    best_result: MappingResult | None = None
    best_seconds = float("inf")
    fabric = resolve_fabric(case.fabric)
    for _ in range(max(1, repeats)):
        result, seconds = _run_pipeline(
            case.circuit,
            fabric,
            case.placer,
            technology=case.technology,
            scheduler=case.scheduler,
        )
        if seconds < best_seconds:
            best_result, best_seconds = result, seconds
    assert best_result is not None
    circuit = resolve_circuit(case.circuit)
    record = {
        "label": case.label,
        "circuit": case.circuit,
        "fabric": case.fabric,
        "placer": case.placer,
        "technology": case.technology,
        "scheduler": case.scheduler,
        "qubits": circuit.num_qubits,
        "instructions": circuit.num_instructions,
        "wall_seconds": best_seconds,
        "latency_us": best_result.latency,
        "ideal_latency_us": best_result.ideal_latency,
        "routing_seconds": best_result.routing_seconds,
        "route_queries": best_result.routing_stats.route_queries,
        "issue_polls": best_result.event_stats.issue_polls,
    }
    record.update(best_result.routing_stats.as_dict())
    return record


def measure_routing_v2_speedup(
    circuit_name: str, fabric_name: str = "quale", repeats: int = 3
) -> dict:
    """The routing kernel on one circuit: solo (cold) vs shared store (warm).

    Two legs, each on its own fresh fabric, producing the identical mapping
    (latency, total moves and total turns are asserted equal):

    * **cold** — a solo run (no shared store).  Its heap-pop count is a
      deterministic function of the scenario — the landmark lower bound's
      pruning, immune to timer noise — which CI gates against a ceiling.
    * **warm** — the service configuration (``shared_route_cache=True``):
      one untimed run populates the store, then ``repeats`` timed runs
      measure the steady state a worker mapping repeated jobs sees.  The
      recorded ``route_cache_hit_rate`` comes from this leg.

    ``warm_speedup`` compares *routing seconds* (time inside the router),
    not pipeline wall-clock: scheduler, placer and simulator costs are
    unchanged by the store and would only dilute the measurement.
    """
    runs = max(1, repeats)

    def _leg(*, warmup: int = 0, **opts) -> tuple[MappingResult, float, float]:
        fabric = resolve_fabric(fabric_name)
        best_wall = best_routing = float("inf")
        last: MappingResult | None = None
        for index in range(warmup + runs):
            result, seconds = _run_pipeline(circuit_name, fabric, "center", **opts)
            if index < warmup:
                continue
            best_wall = min(best_wall, seconds)
            best_routing = min(best_routing, result.routing_seconds)
            last = result
        assert last is not None
        return last, best_wall, best_routing

    cold, cold_wall, cold_routing = _leg()
    warm, warm_wall, warm_routing = _leg(warmup=1, shared_route_cache=True)
    reference = (cold.latency, cold.total_moves, cold.total_turns)
    observed = (warm.latency, warm.total_moves, warm.total_turns)
    if observed != reference:  # pragma: no cover - equivalence gate
        raise AssertionError(
            f"the shared route store changed the result on {circuit_name}: "
            f"{observed} != {reference}"
        )
    return {
        "kind": "routing-v2",
        "circuit": circuit_name,
        "fabric": fabric_name,
        "cold_wall_seconds": cold_wall,
        "cold_routing_seconds": cold_routing,
        "cold_heap_pops": cold.routing_stats.heap_pops,
        "cold_hit_rate": cold.routing_stats.cache_hit_rate,
        "warm_wall_seconds": warm_wall,
        "warm_routing_seconds": warm_routing,
        "warm_heap_pops": warm.routing_stats.heap_pops,
        "route_cache_hit_rate": warm.routing_stats.cache_hit_rate,
        "route_cache_shared_hits": warm.routing_stats.shared_hits,
        "warm_speedup": cold_routing / warm_routing if warm_routing else 0.0,
        "latency_us": warm.latency,
    }


#: Parameters of the tracked loadgen smoke case: a 20-job Poisson trace
#: replayed at high time compression against an in-process service, so the
#: measured numbers are service-path economics (queueing, worker dispatch,
#: store round-trips), not raw mapping speed.
LOADGEN_CASE = {
    "label": "loadgen-smoke",
    "arrival": "poisson",
    "rate": 5.0,
    "jobs": 20,
    "seed": 1,
    "time_scale": 50.0,
    "workers": 2,
    "circuits": ("random-layered:q=5:d=4",),
    "fabric": {"junction_rows": 4, "junction_cols": 4},
}


def measure_loadgen(case: dict = LOADGEN_CASE) -> dict:
    """Replay the tracked loadgen case in-process; returns its flat record.

    The record carries completed/failed counts, jobs/sec and the p50/p95/p99
    JCT tails — the service-level numbers BENCH_perf.json starts tracking
    alongside the routing-kernel timings.
    """
    # Imported lazily: the workloads package sits above the runner in the
    # layering, so a module-level import would be circular via repro.runner.
    from repro.workloads import run_load, synthesize_trace

    trace = synthesize_trace(
        arrival=case["arrival"],
        rate=case["rate"],
        jobs=case["jobs"],
        seed=case["seed"],
        circuits=case["circuits"],
        spec_defaults={"placer": "center", "fabric": dict(case["fabric"])},
    )
    report = run_load(
        trace,
        workers=case["workers"],
        time_scale=case["time_scale"],
        slo_seconds=None,
    )
    payload = report.to_dict()
    return {
        "label": case["label"],
        "arrival": case["arrival"],
        "rate": case["rate"],
        "jobs": payload["jobs"],
        "completed": payload["completed"],
        "failed": payload["failed"],
        "seed": case["seed"],
        "time_scale": case["time_scale"],
        "workers": case["workers"],
        "wall_seconds": payload["wall_seconds"],
        "jobs_per_second": payload["jobs_per_second"],
        "jct_p50_seconds": payload["latencies"]["jct_seconds"].get("p50"),
        "jct_p95_seconds": payload["latencies"]["jct_seconds"].get("p95"),
        "jct_p99_seconds": payload["latencies"]["jct_seconds"].get("p99"),
    }


def run_perf_suite(
    *,
    quick: bool = False,
    repeats: int = 3,
    out: str | Path | None = None,
) -> dict:
    """Run the perf suite and (optionally) persist the JSON report.

    Args:
        quick: Run the CI-smoke subset (small circuits plus the capacity-1
            congestion probes) instead of the full bundled-circuit sweep.
        repeats: Repetitions per timing; the best (minimum) wall-clock wins.
        out: Path the JSON report is written to (``BENCH_perf.json`` by
            convention); ``None`` skips writing.

    Returns:
        The report dict (also what was serialised to ``out``).
    """
    cases = QUICK_CASES if quick else FULL_CASES
    report = {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "repeats": repeats,
        "python": platform.python_version(),
        "cases": [time_case(case, repeats) for case in cases],
        "speedups": [
            measure_routing_v2_speedup(name, repeats=repeats)
            for name in ROUTING_V2_CIRCUITS
        ],
        "loadgen": measure_loadgen(),
        "history": HISTORY,
    }
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def format_perf_report(report: dict) -> str:
    """Human-readable tables of a :func:`run_perf_suite` report."""
    case_rows = [
        (
            case.get("label", case["circuit"]),
            case["instructions"],
            round(case["wall_seconds"] * 1000, 1),
            round(case["routing_seconds"] * 1000, 1),
            round(100 * case["route_cache_hit_rate"], 1),
            case["route_queries"],
            case["heap_pops"],
            case["issue_polls"],
        )
        for case in report["cases"]
    ]
    tables = [
        format_comparison_table(
            f"Pipeline timings ({report['mode']} mode, best of {report['repeats']})",
            [
                "circuit",
                "instrs",
                "wall (ms)",
                "routing (ms)",
                "cache hit %",
                "route queries",
                "heap pops",
                "issue polls",
            ],
            case_rows,
        )
    ]
    routing_rows = [
        (
            entry["circuit"],
            round(entry["cold_routing_seconds"] * 1000, 1),
            round(entry["warm_routing_seconds"] * 1000, 1),
            f"{entry['warm_speedup']:.2f}x",
            f"{100 * entry['route_cache_hit_rate']:.1f}%",
            entry["cold_heap_pops"],
        )
        for entry in report["speedups"]
        if entry.get("kind") == "routing-v2"
    ]
    if routing_rows:
        tables.append(
            format_comparison_table(
                "Routing kernel: solo (cold) vs shared route store (warm), "
                "identical results",
                [
                    "circuit",
                    "cold (ms)",
                    "warm (ms)",
                    "warm speedup",
                    "warm hit rate",
                    "cold heap pops",
                ],
                routing_rows,
            )
        )
    loadgen = report.get("loadgen")
    if loadgen:
        tables.append(
            format_comparison_table(
                "Service loadgen (in-process replay of the smoke trace)",
                ["case", "jobs", "done", "jobs/s", "p50 JCT (s)", "p99 JCT (s)"],
                [
                    (
                        loadgen["label"],
                        loadgen["jobs"],
                        loadgen["completed"],
                        round(loadgen["jobs_per_second"], 2),
                        round(loadgen["jct_p50_seconds"], 3),
                        round(loadgen["jct_p99_seconds"], 3),
                    )
                ],
            )
        )
    return "\n\n".join(tables)


def bundled_case_names(cases: Sequence[BenchCase] = FULL_CASES) -> list[str]:
    """Scenario-qualified labels of the given cases (helper for CLI help/tests)."""
    return [case.label for case in cases]
