"""In-memory span tracer installed around the program's public entry points.

Nothing in the program knows about it: :meth:`Tracer.install` swaps each
traced function or method for a wrapper that records a span (name, start,
end, self time, parent id, job id) and, for a few calls, reads counters off
the returned value.  Spans stay in memory; :func:`write_spans` writes them
out when the benchmark ends.

A span's self time is its duration minus the time its child spans cover, so
the self times of one job partition the job's wall time.  Worker processes
of the mapping service are forked from the benchmark process and inherit the
wrappers; each worker appends its finished jobs' spans to a JSON-lines file
(:meth:`Tracer.flush_job`) that the benchmark reads back.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

from repro.fabric.fabric import Fabric
from repro.pipeline import MappingPipeline, PipelineObserver
from repro.qidg import graph as qidg_graph
from repro.routing.compiled import CompiledRoutingGraph
from repro.routing.router import Router
from repro.scheduling.policies import SchedulingPolicy
from repro.service import worker as service_worker
from repro.sim.engine import FabricSimulator

# Span tuple fields.
ID, NAME, START, END, SELF, PARENT, JOB = range(7)


class Tracer:
    """Records spans and per-job counters from wrapped entry points."""

    def __init__(self, worker_log: str | None = None) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self.worker_log = worker_log
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    # Recording.

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job(self):
        return getattr(self._local, "job", None)

    def enter(self, name: str) -> None:
        """Open a span as a child of the innermost open span of this thread."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        stack.append([next(self._ids), name, parent, 0.0, time.perf_counter()])

    def exit(self) -> None:
        """Close the innermost open span."""
        end = time.perf_counter()
        stack = self._stack()
        span_id, name, parent, child_time, start = stack.pop()
        duration = end - start
        if stack:
            stack[-1][3] += duration
        self.spans.append((span_id, name, start, end, duration - child_time, parent, self.job))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.job][key] += amount

    def start_job(self, job) -> None:
        """Open the top-level span of one job; spans until :meth:`end_job` carry ``job``."""
        self._local.job = job
        self.enter("job")

    def end_job(self) -> None:
        self.exit()
        self._local.job = None

    # ------------------------------------------------------------------
    # Wrapping.

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(tracer, result)`` runs once the call returned, to read
        counters off its result.
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def wrap_function(self, function, name: str) -> None:
        """Wrap a module-level function in every ``repro`` module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and getattr(
                module, function.__name__, None
            ) is function:
                self.wrap(module, function.__name__, name)

    def install(self) -> None:
        """Wrap the public entry points of every layer (see the module doc)."""
        self.wrap_function(qidg_graph.build_qidg, "qidg.build")
        self.wrap(FabricSimulator, "__init__", "sim.init")
        self.wrap(FabricSimulator, "run", "sim.run", after=_count_pass)
        for policy in _subclasses(SchedulingPolicy):
            if "priorities" in policy.__dict__:
                self.wrap(policy, "priorities", "scheduling.priorities")
        self.wrap(Router, "plan_instruction", "routing.plan", after=_count_plan)
        self.wrap(CompiledRoutingGraph, "shortest_route", "routing.kernel")
        self.wrap(CompiledRoutingGraph, "shortest_routes_batch", "routing.kernel")
        self.wrap(Fabric, "traps_by_distance", "fabric.traps_by_distance")
        self._wrap_pipeline_stages()
        self._wrap_worker_jobs()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_pipeline_stages(self) -> None:
        """Time every stage through a :class:`PipelineObserver`."""
        original = vars(MappingPipeline)["run"]
        observer = _StageSpans(self)

        def run(pipeline, *args, **kwargs):
            return original(pipeline.with_observer(observer), *args, **kwargs)

        self._undo.append((MappingPipeline, "run", original))
        MappingPipeline.run = run

    def _wrap_worker_jobs(self) -> None:
        """Make each service job one span tree, flushed to the worker log."""
        original = service_worker.execute_job
        tracer = self

        def execute_job(spec, *args, **kwargs):
            job = spec.cache_key()
            tracer.start_job(job)
            try:
                return original(spec, *args, **kwargs)
            finally:
                tracer.end_job()
                tracer.flush_job(job)

        self._undo.append((service_worker, "execute_job", original))
        service_worker.execute_job = execute_job

    def flush_job(self, job) -> None:
        """Move one job's spans and counters out of memory into the worker log."""
        if self.worker_log is None:
            return
        with self._lock:
            if os.getpid() != self._pid:
                # A forked worker starts with a copy of the parent's spans.
                self._pid = os.getpid()
                self.spans = [span for span in self.spans if span[JOB] == job]
                self.counts = defaultdict(Counter, {job: self.counts[job]})
            mine = [span for span in self.spans if span[JOB] == job]
            self.spans = [span for span in self.spans if span[JOB] != job]
            counts = self.counts.pop(job, Counter())
        with open(self.worker_log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"job": job, "spans": mine, "counts": counts}) + "\n")


class _StageSpans(PipelineObserver):
    """Opens a ``stage.<name>`` span around every pipeline stage."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def stage_started(self, stage, ctx) -> None:
        self.tracer.enter(f"stage.{stage}")

    def stage_finished(self, stage, ctx, seconds) -> None:
        self.tracer.exit()


def _count_pass(tracer: Tracer, outcome) -> None:
    """Sum the event-loop and routing-core counters of every pass."""
    events, routing = outcome.event_stats, outcome.routing_stats
    tracer.count("events", events.events_processed)
    tracer.count("issue_polls", events.issue_polls)
    tracer.count("skipped_polls", events.skipped_polls)
    tracer.count("wake_hits", events.wake_hits)
    tracer.count("heap_pops", routing.heap_pops)
    tracer.count("dijkstra_calls", routing.dijkstra_calls)
    tracer.count("edge_relaxations", routing.edge_relaxations)
    tracer.count("cache_hits", routing.cache_hits)
    tracer.count("cache_misses", routing.cache_misses)
    tracer.count("shared_hits", routing.shared_hits)


def _count_plan(tracer: Tracer, route) -> None:
    if route is None:
        tracer.count("plan_failures")


def _subclasses(cls) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return found


def read_worker_log(path: str | None) -> tuple[list[tuple], Counter]:
    """Spans and summed counters a worker process flushed to ``path``."""
    spans: list[tuple] = []
    counts: Counter = Counter()
    if path is None or not os.path.exists(path):
        return spans, counts
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            spans += [tuple(span) for span in record["spans"]]
            counts.update(record["counts"])
    return spans, counts


def self_times(spans) -> dict[str, dict[str, float]]:
    """``name -> {"calls", "total", "self"}`` over ``spans``."""
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
    for span in spans:
        row = table[span[NAME]]
        row["calls"] += 1
        row["total"] += span[END] - span[START]
        row["self"] += span[SELF]
    return dict(table)


def write_spans(path: str, spans) -> None:
    """Write spans as gzipped JSON lines: ``[id, name, start, end, self, parent, job]``."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")

