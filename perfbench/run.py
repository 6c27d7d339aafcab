"""Benchmark of whole mapping jobs, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mvfb-qecc --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the workload's end-to-end metrics; ``--trace 1``
runs it twice more, untraced and then traced, and reports the per-layer
metrics (see ``perfbench/metrics.py``).  ``--seconds`` sizes the fixed job
list: at 25 (the default) each run maps about 25 s of work on a 2-vCPU
machine, and the run never stops early.  Each set-up sample and each run
starts a fresh interpreter (``perfbench/session.py``) in a fresh working
directory under ``.perfbench/``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each metric with its value and unit).  The lines
before it repeat every metric by name with its unit and sample count, plus
``nproc``, the Python version and the service's worker-pool mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: ``--seconds`` at which a job list has its full size.
REFERENCE_SECONDS = 25
#: Set-up is timed this many times per run (in separate processes); the
#: median is reported.
SETUP_SAMPLES = 5
#: Every session process of one run is stopped by this many seconds after start.
RUN_TIMEOUT_SECONDS = 170


class SessionFailed(RuntimeError):
    pass


def run_session(workload: str, seed: int, scale: float, deadline: float, workdir: Path, *,
                setup_only: bool = False, trace: bool = False) -> tuple[float, dict | None]:
    """Start one ``session.py`` process; returns its set-up time and raw report.

    The process is killed if it is still running at ``deadline``
    (a ``time.monotonic`` value).
    """
    workdir.mkdir(parents=True)
    out = workdir / "report.json"
    command = [
        sys.executable, str(HERE / "session.py"),
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--workdir", str(workdir), "--out", str(out),
    ]
    command += ["--setup-only"] * setup_only + ["--trace"] * trace
    started = time.perf_counter()
    # Its own process group, so that a stuck session dies with its workers.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        line = process.stdout.readline()
        setup = time.perf_counter() - started
        process.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SessionFailed(f"{workload} session still running at the run's deadline")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if line.strip() != "ready" or process.returncode != 0:
        raise SessionFailed(f"{workload} session exited with code {process.returncode}")
    return setup, None if setup_only else json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Run the clean-up below (stopping any session) when asked to stop.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scale = args.seconds / REFERENCE_SECONDS
    deadline = time.monotonic() + RUN_TIMEOUT_SECONDS
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workroot = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    session = functools.partial(run_session, args.workload, args.seed, scale, deadline)
    try:
        if args.trace:
            _, untraced = session(workroot / "untraced")
            _, report = session(workroot / "traced", trace=True)
            values = metrics.per_layer(report, untraced)
        else:
            setups = [
                session(workroot / f"setup-{i}", setup_only=True)[0]
                for i in range(SETUP_SAMPLES - 1)
            ]
            setup, report = session(workroot / "measured")
            setups.append(setup)
            values = metrics.end_to_end(report, statistics.median(setups))
    except SessionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    failed = metrics.failures(report)
    attempted = len(report["jobs"])
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"nproc={report['nproc']} python={report['python']} pool_mode={report['pool_mode']}"
    )
    print(f"failed_frac {failed / attempted:.4f} frac ({failed} of {attempted} jobs)")
    print(f"samples passes={len(report['pass_seconds'])} jobs={len(report['jct_seconds'])}")
    for thin in metrics.thin_percentiles(report):
        print(f"warning: percentile from fewer than ten samples beyond it: {thin}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {metrics.UNITS[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]} for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
