"""One benchmark process: set up a workload, run its job list, report raw results.

``run.py`` starts this file once per set-up sample and once per measured
run, each time in a fresh interpreter with a fresh working directory (job
store, result cache), so no run inherits another's caches::

    python3 perfbench/session.py --workload mvfb-qecc --seed 1 --scale 1 \\
        --workdir .perfbench/run-x --out .perfbench/run-x/result.json [--setup-only] [--trace]

The process prints ``ready`` on standard output once set-up is complete
(imports, fabric, compiled routing graph and its landmarks, service boot,
worker spawn and one untimed warm-up job); ``run.py`` times set-up from
process start to that line.  Per-job logs (latency, moves, turns and any
failed check) go to standard error; the raw results go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(source):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {source}")
    return repro


repro = import_program()

from repro.pipeline.circuits import resolve_circuit  # noqa: E402
from repro.pipeline.fabrics import resolve_fabric  # noqa: E402
from repro.service import MappingService, ServiceClient, ServiceConfig  # noqa: E402
from repro.service.jobs import DONE, TERMINAL  # noqa: E402
from repro.sim.engine import FabricSimulator  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import SERVICE_CLIENTS, SERVICE_PLACEMENTS, job_list, warmup_job  # noqa: E402

#: Client poll interval; jobs take 30–500 ms, so the client never sets the pace.
POLL_SECONDS = 0.01
#: Per-job deadline of the service workload; a job past it counts as failed.
JOB_TIMEOUT_SECONDS = 60.0
#: Service jobs replayed on the library path for the checks the flat service
#: result cannot support (schedule, placement, trace).
REPLAYED_SERVICE_JOBS = 3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class PassTimer:
    """Collects the duration of every ``FabricSimulator.run`` call while open.

    The duration is the simulator's own ``cpu_seconds`` (a ``perf_counter``
    interval measured inside ``run``), so the wrapper adds no clock reads.

    Before each pass the process moves to the next CPU it may run on.  On a
    small VM the vCPUs can run the same code 20–25% apart for minutes at a
    time, and the scheduler tends to leave a lone busy process where it is,
    so without this a run measures whichever vCPU it happened to land on.
    """

    def __enter__(self) -> list[float]:
        self.original = original = vars(FabricSimulator)["run"]
        self.affinity = os.sched_getaffinity(0)
        cpus = sorted(self.affinity)
        seconds: list[float] = []

        def run(simulator, placement):
            os.sched_setaffinity(0, {cpus[len(seconds) % len(cpus)]})
            outcome = original(simulator, placement)
            seconds.append(outcome.cpu_seconds)
            return outcome

        FabricSimulator.run = run
        return seconds

    def __exit__(self, *exc_info) -> None:
        FabricSimulator.run = self.original
        os.sched_setaffinity(0, self.affinity)


# ----------------------------------------------------------------------
# Library workloads (mvfb-qecc, congested-cap1).


class LibrarySession:
    """Maps a job list through ``repro.map_circuit`` on one shared fabric."""

    def __init__(self, workload: str, seed: int, scale: float) -> None:
        self.jobs = job_list(workload, seed, scale)
        self.fabric = resolve_fabric("quale")
        self.circuits = {job.circuit: resolve_circuit(job.circuit) for job in self.jobs}
        warm = warmup_job(workload)
        repro.map_circuit(warm.circuit, self.fabric, placer=warm.placer, **warm.options())

    def run(self, tracer: spans.Tracer | None) -> dict:
        results = []
        with PassTimer() as pass_seconds:
            if tracer is not None:
                tracer.install()
            try:
                started = time.perf_counter()
                for index, job in enumerate(self.jobs):
                    if tracer is not None:
                        tracer.start_job(index)
                    try:
                        results.append(repro.map_circuit(
                            self.circuits[job.circuit], self.fabric, placer=job.placer,
                            **job.options(),
                        ))
                    finally:
                        if tracer is not None:
                            tracer.end_job()
                wall = time.perf_counter() - started
            finally:
                if tracer is not None:
                    tracer.uninstall()

        logs = []
        for index, (job, result) in enumerate(zip(self.jobs, results)):
            problems = checks.result_problems(self.circuits[job.circuit], self.fabric, result)
            logs.append(_job_log(index, job, result.latency, result.total_moves,
                                 result.total_turns, problems))
        return {
            "wall_s": wall,
            "pass_seconds": pass_seconds,
            "jct_seconds": pass_seconds,
            "jobs_done": len(results),
            "jobs": logs,
        }

    def close(self) -> None:
        pass


def _job_log(index, job, latency, moves, turns, problems) -> dict:
    entry = {
        "index": index,
        "circuit": job.circuit,
        "random_seed": job.random_seed,
        "latency": latency,
        "moves": moves,
        "turns": turns,
        "problems": problems,
    }
    log("job " + json.dumps(entry))
    return entry


# ----------------------------------------------------------------------
# The service workload (service-closed).


class ServiceSession:
    """A live ``MappingService`` driven by closed-loop HTTP client threads."""

    def __init__(self, workload: str, seed: int, scale: float, workdir: Path,
                 tracer: spans.Tracer | None) -> None:
        self.jobs = job_list(workload, seed, scale)
        self.fabric = resolve_fabric("quale")
        if tracer is not None:
            # Installed before the worker is forked, so the worker inherits it.
            tracer.worker_log = str(workdir / "worker-spans.jsonl")
            tracer.install()
        config = ServiceConfig(port=0, workers=1, poll_interval=POLL_SECONDS)
        self.service = MappingService(config.under(workdir / "service"))
        self.service.start()
        self.client = ServiceClient(self.service.url)
        try:
            submitted = self.client.submit(warmup_job(workload).payload())["jobs"][0]
            if self._wait(submitted["id"])[0]["status"] != DONE:
                raise SystemExit("the service's warm-up job did not finish")
        except BaseException:
            self.service.shutdown()
            raise

    def _wait(self, job_id: str) -> tuple[dict, int]:
        """Poll one job to a terminal status; returns its document and the poll count."""
        deadline = time.monotonic() + JOB_TIMEOUT_SECONDS
        polls = 0
        while True:
            polls += 1
            document = self.client.job(job_id)
            if document["status"] in TERMINAL or time.monotonic() > deadline:
                return document, polls
            time.sleep(POLL_SECONDS)

    def run(self, tracer: spans.Tracer | None) -> dict:
        if tracer is not None:
            # Drop the warm-up job's spans, here and in the worker's log.
            tracer.spans.clear()
            tracer.counts.clear()
            Path(tracer.worker_log).unlink(missing_ok=True)
        submissions: list[dict | None] = [None] * len(self.jobs)
        next_index = iter(range(len(self.jobs)))
        lock = threading.Lock()

        def client_loop() -> None:
            while True:
                with lock:
                    index = next(next_index, None)
                if index is None:
                    return
                submissions[index] = self._submit_and_wait(self.jobs[index])

        # Never more client threads than CPUs.
        clients = min(SERVICE_CLIENTS, os.cpu_count() or 1)
        threads = [threading.Thread(target=client_loop) for _ in range(clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()  # the replays below are checks, not workload
        metrics_document = self.client.metrics()
        return self._report(submissions, wall, metrics_document)

    def _submit_and_wait(self, job) -> dict:
        record = {"job": job, "problems": []}
        try:
            started = time.perf_counter()
            submitted = self.client.submit(job.payload())
            record["submit_s"] = time.perf_counter() - started
            record["deduped"] = submitted["deduped"]
            document, record["polls"] = self._wait(submitted["jobs"][0]["id"])
            record["document"] = document
            if document["status"] == DONE:
                record["result"] = self.client.result(document["id"])
            else:
                record["problems"].append(f"job ended {document['status']}: {document.get('error')}")
        except repro.ReproError as exc:  # refused or unreachable: counted as failed
            record["problems"].append(f"{type(exc).__name__}: {exc}")
        return record

    def _report(self, submissions: list[dict], wall: float, metrics_document: dict) -> dict:
        logs = []
        first_seen: dict[str, dict] = {}
        for index, record in enumerate(submissions):
            job = record["job"]
            result = record.get("result")
            problems = list(record["problems"])
            cell = result["result"] if result else None
            if cell is not None:
                problems += checks.cell_problems(cell, SERVICE_PLACEMENTS)
                first_seen.setdefault(record["document"]["id"], record)
            logs.append(_job_log(
                index, job,
                cell["latency"] if cell else None,
                cell["total_moves"] if cell else None,
                cell["total_turns"] if cell else None,
                problems,
            ))

        computed = list(first_seen.values())
        created = len(computed)
        distinct = len(set(self.jobs))
        if created != distinct or metrics_document["done"] != distinct + 1:
            logs[-1]["problems"].append(
                f"{created} distinct jobs ran and the store reports {metrics_document['done']} "
                f"done, for {distinct} distinct specs plus the warm-up job"
            )
        self._replay(computed, logs)

        def stamp(record, name):
            return record["document"][name]

        pass_seconds = [
            record["result"]["stage_seconds"]["place"] / record["result"]["result"]["placement_runs"]
            for record in computed
        ]
        exec_seconds = [stamp(r, "finished_at") - stamp(r, "started_at") for r in computed]
        stage_seconds = [
            sum(v for k, v in r["result"]["stage_seconds"].items() if "." not in k) for r in computed
        ]
        return {
            "wall_s": wall,
            "pass_seconds": pass_seconds,
            "passes": sum(r["result"]["result"]["placement_runs"] for r in computed),
            "jct_seconds": [stamp(r, "finished_at") - stamp(r, "created_at") for r in computed],
            "jobs_done": sum(1 for record in submissions if record.get("result")),
            "jobs": logs,
            "pool_mode": self.service.pool.mode,
            "service": {
                "queue_wait_seconds": [stamp(r, "started_at") - stamp(r, "created_at") for r in computed],
                "exec_seconds": exec_seconds,
                "worker_overhead_seconds": [e - s for e, s in zip(exec_seconds, stage_seconds)],
                "submit_seconds": [r["submit_s"] for r in submissions if "submit_s" in r],
                "deduped": sum(record.get("deduped", 0) for record in submissions),
                "polls": sum(record.get("polls", 0) for record in submissions),
                "submissions": len(submissions),
            },
        }

    def _replay(self, computed: list[dict], logs: list[dict]) -> None:
        """Map a few service jobs again on the library path and check them in full."""
        for record in computed[:: max(1, len(computed) // REPLAYED_SERVICE_JOBS)][:REPLAYED_SERVICE_JOBS]:
            job = record["job"]
            circuit = resolve_circuit(job.circuit)
            result = repro.map_circuit(circuit, self.fabric, placer=job.placer, **job.options())
            cell = record["result"]["result"]
            problems = checks.result_problems(circuit, self.fabric, result)
            ours = (result.latency, result.total_moves, result.total_turns)
            theirs = (cell["latency"], cell["total_moves"], cell["total_turns"])
            if ours != theirs:
                problems.append(f"service mapped {theirs}, the library {ours} (latency, moves, turns)")
            if problems:
                log(f"replay of {job} failed: {problems}")
                logs[self.jobs.index(job)]["problems"] += problems

    def close(self) -> None:
        self.service.shutdown()


# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest (joined) child process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def attach_trace(report: dict, tracer: spans.Tracer) -> list[tuple]:
    """Add the traced run's layer table and counters to ``report``; returns every span."""
    worker_spans, worker_counts = spans.read_worker_log(tracer.worker_log)
    all_spans = tracer.spans + worker_spans
    report["layers"] = spans.self_times(all_spans)
    report["counts"] = dict(sum(tracer.counts.values(), worker_counts))
    return all_spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    if args.workload == "service-closed":
        session = ServiceSession(args.workload, args.seed, args.scale, args.workdir, tracer)
    else:
        session = LibrarySession(args.workload, args.seed, args.scale)
    print("ready", flush=True)
    try:
        if args.setup_only:
            return 0
        report = session.run(tracer)
    finally:
        session.close()

    report.update(
        workload=args.workload,
        seed=args.seed,
        scale=args.scale,
        peak_rss_mb=peak_rss_mb(),
        nproc=os.cpu_count(),
        python=platform.python_version(),
    )
    report.setdefault("pool_mode", "none")
    report.setdefault("passes", len(report["pass_seconds"]))
    if tracer is not None:
        all_spans = attach_trace(report, tracer)
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans.write_spans(str(trace_dir / f"{args.workload}.spans.jsonl.gz"), all_spans)
    args.out.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
