"""Output checks that do not trust the mapper.

Every check here re-derives what it needs from the circuit and the fabric
alone: the dependency order is rebuilt from the circuit's qubit operands (not
from :mod:`repro.qidg`), and the placement is checked against the fabric's
trap table and the technology's trap capacity (not through
``Placement.validate``).  A check returns a list of human-readable problems;
an empty list means the output passed.
"""

from __future__ import annotations

import math


def dependency_problems(circuit, schedule) -> list[str]:
    """Whether ``schedule`` is a permutation and a topological order.

    The dependency graph is the one the paper's QIDG describes: an
    instruction depends on the previous instruction touching each of its
    operand qubits.
    """
    count = len(circuit.instructions)
    if sorted(schedule) != list(range(count)):
        return [f"schedule is not a permutation of {count} instructions"]
    position = {index: slot for slot, index in enumerate(schedule)}
    last_use: dict[str, int] = {}
    for index, instruction in enumerate(circuit.instructions):
        for qubit in instruction.qubits:
            previous = last_use.get(qubit.name)
            if previous is not None and position[previous] > position[index]:
                return [
                    f"instruction {index} issued before its dependency {previous} "
                    f"on qubit {qubit.name}"
                ]
            last_use[qubit.name] = index
    return []


def placement_problems(circuit, fabric, placement, trap_capacity: int) -> list[str]:
    """Whether ``placement`` puts every circuit qubit in a real, non-full trap."""
    assignment = placement.as_dict()
    qubits = {qubit.name for qubit in circuit.qubits}
    if set(assignment) != qubits:
        return ["initial placement does not cover exactly the circuit's qubits"]
    occupancy: dict[int, int] = {}
    for qubit, trap_id in assignment.items():
        if trap_id not in fabric.traps:
            return [f"qubit {qubit} placed in trap {trap_id}, which the fabric lacks"]
        occupancy[trap_id] = occupancy.get(trap_id, 0) + 1
    full = [trap for trap, held in occupancy.items() if held > trap_capacity]
    if full:
        return [f"traps {sorted(full)[:5]} hold more than {trap_capacity} qubits"]
    return []


def result_problems(circuit, fabric, result) -> list[str]:
    """Every independent check of one library :class:`MappingResult`."""
    problems = []
    if not result.latency >= result.ideal_latency > 0:
        problems.append(
            f"latency {result.latency} is below the ideal bound {result.ideal_latency}"
        )
    problems += dependency_problems(circuit, result.schedule)
    problems += placement_problems(
        circuit, fabric, result.initial_placement, result.options.technology.trap_capacity
    )
    if not math.isclose(result.trace.makespan, result.latency, rel_tol=1e-9):
        problems.append(
            f"trace makespan {result.trace.makespan} differs from latency {result.latency}"
        )
    return problems


def cell_problems(cell: dict, placements: int) -> list[str]:
    """Checks of one service result document (a flat ``CellResult``).

    The service does not return schedules or placements, so the benchmark
    also maps a sample of its jobs on the library path and checks those in
    full.
    """
    problems = []
    if not cell["latency"] >= cell["ideal_latency"] > 0:
        problems.append(
            f"latency {cell['latency']} is below the ideal bound {cell['ideal_latency']}"
        )
    if cell["placement_runs"] != placements:
        problems.append(f"{cell['placement_runs']} placement runs, expected {placements}")
    return problems

