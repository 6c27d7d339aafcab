"""The benchmark's metric catalogue and how each value is derived.

``BENCHMARK.json`` at the repository root lists the same names, units,
directions and bounds; the benchmark's tests hold the two in step.  Each
per-layer entry also names the end-to-end metric, and the workload, that a
change to that layer should move (``BENCHMARK.json`` has no field for it).

Time metrics ending in ``_s`` are self times unless stated: the span's
duration minus the time of the spans it caused, so the layer self times of a
library job add up to the job's wall time.  The stated exceptions are
``sim.run_s`` and ``routing.plan_s``, which include their children, as their
definitions ask.
"""

from __future__ import annotations

import statistics

#: name, unit, better, bound (share of the parent's median a later change may
#: worsen it by).  ``circuit_latency_us`` is deterministic for one seed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("passes_per_s", "1/s", "higher", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("pass_s_p50", "s", "lower", 0.25),
    ("pass_s_p90", "s", "lower", 0.25),
    ("jct_s_p50", "s", "lower", 0.25),
    ("jct_s_p90", "s", "lower", 0.25),
    ("circuit_latency_us", "us", "lower", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: name, unit, better, (end-to-end metric, workload) the layer should move.
PER_LAYER = (
    ("qidg.build_s", "s", "lower", ("jct_s_p50", "service-closed")),
    ("pipeline.package_s", "s", "lower", ("jct_s_p50", "service-closed")),
    ("pipeline.self_s", "s", "lower", ("jct_s_p50", "service-closed")),
    ("placement.passes", "count", "lower", ("wall_s", "mvfb-qecc")),
    ("placement.loop_s", "s", "lower", ("passes_per_s", "mvfb-qecc")),
    ("sim.init_s", "s", "lower", ("passes_per_s", "mvfb-qecc")),
    ("sim.inits", "count", "lower", ("passes_per_s", "mvfb-qecc")),
    ("sim.run_s", "s", "lower", ("pass_s_p50", "congested-cap1")),
    ("sim.self_s", "s", "lower", ("pass_s_p50", "congested-cap1")),
    ("sim.events", "count", "lower", ("pass_s_p50", "congested-cap1")),
    ("sim.issue_polls", "count", "lower", ("pass_s_p50", "congested-cap1")),
    ("sim.skipped_polls", "count", "higher", ("pass_s_p50", "congested-cap1")),
    ("sim.wake_hits", "count", "lower", ("pass_s_p50", "congested-cap1")),
    ("scheduling.priorities_s", "s", "lower", ("passes_per_s", "mvfb-qecc")),
    ("routing.plan_s", "s", "lower", ("pass_s_p50", "congested-cap1")),
    ("routing.plan_self_s", "s", "lower", ("pass_s_p50", "congested-cap1")),
    ("routing.plan_calls", "count", "lower", ("pass_s_p50", "congested-cap1")),
    ("routing.plan_fail_frac", "frac", "lower", ("pass_s_p50", "congested-cap1")),
    ("routing.kernel_s", "s", "lower", ("wall_s", "congested-cap1")),
    ("routing.heap_pops", "count", "lower", ("wall_s", "congested-cap1")),
    ("routing.dijkstra_calls", "count", "lower", ("wall_s", "congested-cap1")),
    ("routing.edge_relaxations", "count", "lower", ("wall_s", "congested-cap1")),
    ("routing.route_queries", "count", "lower", ("pass_s_p50", "mvfb-qecc")),
    ("routing.cache_hit_rate", "frac", "higher", ("pass_s_p50", "mvfb-qecc")),
    ("routing.shared_hit_rate", "frac", "higher", ("jct_s_p50", "service-closed")),
    ("fabric.traps_by_distance_s", "s", "lower", ("pass_s_p50", "mvfb-qecc")),
    ("fabric.traps_by_distance_calls", "count", "lower", ("pass_s_p50", "mvfb-qecc")),
    ("service.submit_s_p50", "s", "lower", ("jct_s_p50", "service-closed")),
    ("service.queue_wait_s_p50", "s", "lower", ("jct_s_p90", "service-closed")),
    ("service.exec_s_p50", "s", "lower", ("jobs_per_s", "service-closed")),
    ("service.worker_overhead_s_p50", "s", "lower", ("jobs_per_s", "service-closed")),
    ("service.dedup_frac", "frac", "higher", ("jobs_per_s", "service-closed")),
    ("service.polls_per_job", "count", "lower", ("jobs_per_s", "service-closed")),
    ("trace_overhead", "ratio", "lower", None),
    ("trace.accounted_frac", "frac", "higher", None),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

#: A percentile is reported only from at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def thin_percentiles(report: dict) -> list[str]:
    """Percentiles of ``report`` computed from fewer than ten samples beyond them."""
    thin = []
    for key in ("pass_seconds", "jct_seconds"):
        count = len(report[key])
        if count * 0.5 < MIN_TAIL_SAMPLES:
            thin.append(f"{key} p50 (n={count})")
        elif count * 0.1 < MIN_TAIL_SAMPLES:
            thin.append(f"{key} p90 (n={count})")
    return thin


def failures(report: dict) -> int:
    """Jobs that failed, were refused, timed out or failed an output check."""
    return sum(1 for job in report["jobs"] if job["problems"])


def end_to_end(report: dict, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one measured (untraced) run."""
    wall = report["wall_s"]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "passes_per_s": report["passes"] / wall,
        "jobs_per_s": report["jobs_done"] / wall,
        "pass_s_p50": p50(report["pass_seconds"]),
        "pass_s_p90": p90(report["pass_seconds"]),
        "jct_s_p50": p50(report["jct_seconds"]),
        "jct_s_p90": p90(report["jct_seconds"]),
        "circuit_latency_us": sum(job["latency"] or 0.0 for job in report["jobs"]),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(traced: dict, untraced: dict) -> dict[str, float]:
    """The per-layer metrics of a traced run, next to an untraced run of the same seed."""
    layers, counts = traced["layers"], traced["counts"]

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self", 0.0)

    def total_s(name: str) -> float:
        return layers.get(name, {}).get("total", 0.0)

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    queries = counts.get("cache_hits", 0) + counts.get("cache_misses", 0)
    service = traced.get("service")
    values = {
        "qidg.build_s": self_s("qidg.build"),
        "pipeline.package_s": total_s("stage.package-result"),
        "pipeline.self_s": self_s("job") + self_s("stage.build-qidg") + self_s("stage.simulate"),
        "placement.passes": calls("sim.run"),
        "placement.loop_s": self_s("stage.place"),
        "sim.init_s": self_s("sim.init"),
        "sim.inits": calls("sim.init"),
        "sim.run_s": total_s("sim.run"),
        "sim.self_s": self_s("sim.run"),
        "sim.events": counts.get("events", 0),
        "sim.issue_polls": counts.get("issue_polls", 0),
        "sim.skipped_polls": counts.get("skipped_polls", 0),
        "sim.wake_hits": counts.get("wake_hits", 0),
        "scheduling.priorities_s": self_s("scheduling.priorities"),
        "routing.plan_s": total_s("routing.plan"),
        "routing.plan_self_s": self_s("routing.plan"),
        "routing.plan_calls": calls("routing.plan"),
        "routing.plan_fail_frac": ratio(counts.get("plan_failures", 0), calls("routing.plan")),
        "routing.kernel_s": self_s("routing.kernel"),
        "routing.heap_pops": counts.get("heap_pops", 0),
        "routing.dijkstra_calls": counts.get("dijkstra_calls", 0),
        "routing.edge_relaxations": counts.get("edge_relaxations", 0),
        "routing.route_queries": queries,
        "routing.cache_hit_rate": ratio(counts.get("cache_hits", 0), queries),
        "routing.shared_hit_rate": ratio(counts.get("shared_hits", 0), queries),
        "fabric.traps_by_distance_s": self_s("fabric.traps_by_distance"),
        "fabric.traps_by_distance_calls": calls("fabric.traps_by_distance"),
        "trace_overhead": traced["wall_s"] / untraced["wall_s"],
        "trace.accounted_frac": total_s("job") / traced["wall_s"],
    }
    # The library workloads never touch the service layer.
    values.update({
        "service.submit_s_p50": p50(service["submit_seconds"]) if service else 0.0,
        "service.queue_wait_s_p50": p50(service["queue_wait_seconds"]) if service else 0.0,
        "service.exec_s_p50": p50(service["exec_seconds"]) if service else 0.0,
        "service.worker_overhead_s_p50": p50(service["worker_overhead_seconds"]) if service else 0.0,
        "service.dedup_frac": ratio(service["deduped"], service["submissions"]) if service else 0.0,
        "service.polls_per_job": ratio(service["polls"], service["submissions"]) if service else 0.0,
    })
    return values
