"""The benchmark's three workloads: fixed job lists derived from a seed.

Each run does the whole job list and is never cut short by a clock, so two
runs of one seed do exactly the same mapping work.  ``scale`` shrinks a list
proportionally (the benchmark's own tests run at a small scale); scale 1 is
the size the recorded bounds were measured at.

* ``mvfb-qecc`` — the paper's headline configuration (Table 2): QSPR with
  MVFB placement, m = 25 seeds, the ``paper`` technology on the QUALE fabric,
  over ``[[19,1,7]]`` and ``[[23,1,7]]``.  The seed draws each job's MVFB
  random seed.
* ``congested-cap1`` — channel capacity 1 (``cap-1``) with the Monte-Carlo
  placer over eight dense random layered circuits (every qubit active in
  every layer).  The seed draws the circuits and the placement seeds.
* ``service-closed`` — Monte-Carlo m' = 4 jobs over the QECC suite, submitted
  over HTTP to an in-process ``MappingService`` by two client threads in a
  closed loop; a sixth of the submissions repeat an earlier job exactly.
  The seed draws the job order, every job's random seed and which jobs are
  repeated.  Each circuit appears a fixed number of times, so the work mix
  does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("mvfb-qecc", "congested-cap1", "service-closed")

#: The seed runs use when none is given.  Confirm a claim on seed 2 as well,
#: inputs the change was not tuned on.
DEFAULT_SEED = 1

MVFB_CIRCUITS = ("[[19,1,7]]", "[[23,1,7]]")
MVFB_SEEDS = 25

CONGESTED_JOBS = 8
CONGESTED_PLACEMENTS = 15
CONGESTED_CIRCUIT = "random-layered:q=32:d=8:fill=1.0:locality=3:seed={seed}"

#: The QECC suite, with ``[[14,8,3]]`` and ``[[23,1,7]]`` twice.  Sorted by
#: pass time the circuits form separate clusters; with equal weights the
#: median would sit in the gap between two of them and jump from run to run.
#: These weights put it in the middle of the ``[[14,8,3]]`` cluster.
SERVICE_CIRCUITS = (
    "[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]", "[[14,8,3]]", "[[14,8,3]]",
    "[[19,1,7]]", "[[23,1,7]]", "[[23,1,7]]",
)
SERVICE_UNIQUE_JOBS = 100
SERVICE_RESUBMIT_FRACTION = 0.2
SERVICE_PLACEMENTS = 4
SERVICE_CLIENTS = 2


@dataclass(frozen=True)
class Job:
    """One mapping job: what ``repro.map_circuit`` (or a spec) needs."""

    circuit: str
    placer: str
    technology: str
    random_seed: int
    num_seeds: int = 1
    num_placements: int | None = None

    def options(self) -> dict:
        """Keyword options of ``repro.map_circuit``."""
        options = {"technology": self.technology, "random_seed": self.random_seed}
        if self.placer == "mvfb":
            options["num_seeds"] = self.num_seeds
        else:
            options["num_placements"] = self.num_placements
        return options

    def payload(self) -> dict:
        """The ``POST /jobs`` spec document of this job."""
        return {
            "circuit": self.circuit,
            "mapper": "qspr",
            "placer": self.placer,
            "technology": self.technology,
            "random_seed": self.random_seed,
            "num_seeds": self.num_seeds,
            "num_placements": self.num_placements,
        }


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _scaled(size: int, scale: float) -> int:
    return max(1, round(size * scale))


def job_list(workload: str, seed: int, scale: float = 1.0) -> list[Job]:
    """The fixed job list of ``workload`` for ``seed``, in submission order."""
    rng = _rng(workload, seed)
    if workload == "mvfb-qecc":
        return [
            Job(circuit, "mvfb", "paper", rng.randrange(2**31), num_seeds=_scaled(MVFB_SEEDS, scale))
            for circuit in MVFB_CIRCUITS
        ]
    if workload == "congested-cap1":
        return [
            Job(
                CONGESTED_CIRCUIT.format(seed=rng.randrange(2**31)),
                "monte-carlo",
                "cap-1",
                rng.randrange(2**31),
                num_placements=_scaled(CONGESTED_PLACEMENTS, scale),
            )
            for _ in range(CONGESTED_JOBS)
        ]
    if workload == "service-closed":
        return _service_jobs(rng, _scaled(SERVICE_UNIQUE_JOBS, scale))
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _service_jobs(rng: random.Random, unique: int) -> list[Job]:
    """``unique`` distinct jobs plus exact repeats, with a seed-free circuit mix."""
    circuits = [SERVICE_CIRCUITS[index % len(SERVICE_CIRCUITS)] for index in range(unique)]
    seeds = rng.sample(range(2**31), unique)
    jobs = [
        Job(circuit, "monte-carlo", "paper", seed, num_placements=SERVICE_PLACEMENTS)
        for circuit, seed in zip(circuits, seeds)
    ]
    rng.shuffle(jobs)
    # Repeat every fifth circuit slot; the seed only picks which instance of
    # that circuit is repeated and where the repeat lands (always after it).
    repeats = [
        rng.choice([job for job in jobs if job.circuit == circuit])
        for circuit in circuits[: round(unique * SERVICE_RESUBMIT_FRACTION)]
    ]
    for job in repeats:
        jobs.insert(rng.randint(jobs.index(job) + 1, len(jobs)), job)
    return jobs


def warmup_job(workload: str) -> Job:
    """The untimed job that ends set-up; its seed is outside every job list's range."""
    if workload == "mvfb-qecc":
        return Job("[[5,1,3]]", "mvfb", "paper", 2**31, num_seeds=1)
    technology = "cap-1" if workload == "congested-cap1" else "paper"
    return Job("[[5,1,3]]", "monte-carlo", technology, 2**31, num_placements=1)
