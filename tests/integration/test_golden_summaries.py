"""Golden-file determinism regression for the routing/simulation core.

Full mapper runs on the Table 1 benchmark circuits must produce
byte-identical :meth:`~repro.mapper.result.MappingResult.summary` output
across refactors of the performance core.  The summaries are snapshotted
under ``tests/integration/golden/`` with the one volatile line (wall-clock
CPU time) normalised; everything else — latency, placements, schedule-derived
moves/turns, congestion delay and the routing-core counters — must match
exactly.

A second gate proves production maps every case exactly as the test oracle
(:mod:`oracle`: cache-less planning, an issue poll at every event timestamp)
does: their summaries must agree line for line once the work counters
(cache traffic, heap pops, issue polls), which legitimately differ, are
stripped.  A third gate replays every case the way a service worker does —
twice on one fabric with the cross-run shared route store on, the rerun
served from the store — and holds both runs to the same snapshot.

Regenerate the snapshots after an *intentional* output change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_summaries.py
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from oracle import OracleSimulator
from repro import MapperOptions, QsprMapper, small_fabric
from repro.circuits.qecc import qecc_encoder

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The Table 1 circuits (the default placer-comparison set of the benchmark
#: harness), each mapped deterministically; one MVFB search case covers the
#: seeded placement path.
CASES: tuple[tuple[str, str, dict], ...] = (
    ("513-center", "[[5,1,3]]", {"placer": "center"}),
    ("713-center", "[[7,1,3]]", {"placer": "center"}),
    ("913-center", "[[9,1,3]]", {"placer": "center"}),
    ("23117-center", "[[23,1,7]]", {"placer": "center"}),
    ("513-mvfb", "[[5,1,3]]", {"placer": "mvfb", "num_seeds": 2, "random_seed": 0}),
)

_CPU_LINE = re.compile(r"^(  mapping CPU time  : ).*$", re.MULTILINE)
#: Work counters; legitimately differ between production and the oracle
#: (no route cache, more pops, an issue poll at every event timestamp).
_CORE_LINES = re.compile(
    r"^  (route cache|dijkstra core|event loop)\s*: .*\n", re.MULTILINE
)


def _summarise(circuit_name: str, mapper_kwargs: dict) -> str:
    options = MapperOptions(**mapper_kwargs)
    fabric = small_fabric(junction_rows=6, junction_cols=6)
    result = QsprMapper(options).map(qecc_encoder(circuit_name), fabric)
    return result.summary()


def _normalise(summary: str) -> str:
    return _CPU_LINE.sub(r"\1<normalised>", summary) + "\n"


def _strip_core_counters(summary: str) -> str:
    return _CORE_LINES.sub("", summary)


@pytest.mark.parametrize("name, circuit, kwargs", CASES, ids=[c[0] for c in CASES])
def test_summary_matches_golden_snapshot(name, circuit, kwargs):
    golden_path = GOLDEN_DIR / f"{name}.txt"
    summary = _normalise(_summarise(circuit, kwargs))
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(summary)
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; generate it with "
        "REPRO_UPDATE_GOLDEN=1"
    )
    assert summary == golden_path.read_text()


@pytest.mark.parametrize("name, circuit, kwargs", CASES, ids=[c[0] for c in CASES])
def test_production_and_oracle_agree(name, circuit, kwargs, monkeypatch):
    production = _strip_core_counters(_normalise(_summarise(circuit, kwargs)))
    monkeypatch.setattr("repro.pipeline.context.FabricSimulator", OracleSimulator)
    oracle = _strip_core_counters(_normalise(_summarise(circuit, kwargs)))
    assert production == oracle


@pytest.mark.parametrize("name, circuit, kwargs", CASES, ids=[c[0] for c in CASES])
def test_shared_store_reruns_reproduce_the_golden_mapping(name, circuit, kwargs):
    golden = _strip_core_counters((GOLDEN_DIR / f"{name}.txt").read_text())
    fabric = small_fabric(junction_rows=6, junction_cols=6)
    mapper = QsprMapper(MapperOptions(shared_route_cache=True, **kwargs))
    first = mapper.map(qecc_encoder(circuit), fabric)
    rerun = mapper.map(qecc_encoder(circuit), fabric)
    assert rerun.routing_stats.shared_hits > 0
    for result in (first, rerun):
        summary = _strip_core_counters(_normalise(result.summary()))
        # The options line names the store; everything else must match.
        assert summary.replace(" shared_routes=True", "") == golden
