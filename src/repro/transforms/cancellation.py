"""Inverse-gate cancellation and rotation merging.

The passes repeatedly remove pairs of DAG-adjacent gates that multiply to
the identity — e.g. ``CX·CX``, ``H·H``, ``S·S†`` — and merge DAG-adjacent
rotations about the same axis.  "DAG-adjacent" means that on every qubit
the two gates share, no surviving gate sits between them; the passes keep a
per-qubit stack of surviving gate indices so that removals restore the
correct predecessor instead of leaving a stale one.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, INVERSE_PAIRS, SELF_INVERSE, SYMMETRIC_2Q

_ROTATIONS = {"rz", "rx", "ry", "rzz", "rxx", "ryy", "rzx"}
_ANGLE_TOL = 1e-12


def _same_placement(gate_a: Gate, gate_b: Gate) -> bool:
    """Whether two same-named gates act on the same qubits for cancellation.

    Symmetric 2Q gates (``cxx(0, 1) == cxx(1, 0)`` as unitaries) compare by
    qubit set, so the swapped-qubit order the ordering stage's seam heuristic
    credits actually cancels; every other gate compares by ordered tuple.
    """
    if gate_a.qubits == gate_b.qubits:
        return True
    return gate_a.name in SYMMETRIC_2Q and set(gate_a.qubits) == set(gate_b.qubits)


def _are_inverse(gate_a: Gate, gate_b: Gate) -> bool:
    """True when ``gate_b`` follows ``gate_a`` on the same qubits and cancels it."""
    if gate_a.name == gate_b.name:
        if gate_a.name in SELF_INVERSE and gate_a.name != "su4":
            return _same_placement(gate_a, gate_b)
        return False
    if INVERSE_PAIRS.get(gate_a.name) == gate_b.name:
        return gate_a.qubits == gate_b.qubits
    return False


def _merged_rotation(gate_a: Gate, gate_b: Gate) -> Optional[Gate]:
    """Merge two same-axis rotations on the same qubits, or None."""
    if gate_a.name != gate_b.name or gate_a.name not in _ROTATIONS:
        return None
    if not _same_placement(gate_a, gate_b):
        return None
    angle = gate_a.params[0] + gate_b.params[0]
    angle = math.remainder(angle, 4 * math.pi)
    if abs(angle) < _ANGLE_TOL:
        return Gate._trusted("i", (gate_a.qubits[0],))
    return Gate._trusted(gate_a.name, gate_a.qubits, (angle,))


def _sweep(gates: List[Optional[Gate]], try_combine) -> bool:
    """One left-to-right sweep applying ``try_combine`` on adjacent pairs.

    ``try_combine(prev, gate)`` returns ``None`` (no action), ``"drop"``
    (remove both gates) or a replacement :class:`Gate` for ``prev`` (and the
    current gate is removed).  Returns whether anything changed.
    """
    stacks: Dict[int, List[int]] = {}
    changed = False
    for index, gate in enumerate(gates):
        if gate is None:
            continue
        predecessors = {stacks[q][-1] for q in gate.qubits if stacks.get(q)}
        combined = None
        prev_index = None
        if len(predecessors) == 1:
            prev_index = next(iter(predecessors))
            prev = gates[prev_index]
            if prev is not None and set(prev.qubits) == set(gate.qubits):
                combined = try_combine(prev, gate)
        if combined is None:
            for q in gate.qubits:
                stacks.setdefault(q, []).append(index)
            continue
        changed = True
        prev = gates[prev_index]
        # Remove the previous gate from its qubit stacks (it is the top entry).
        for q in prev.qubits:
            if stacks.get(q) and stacks[q][-1] == prev_index:
                stacks[q].pop()
        if combined == "drop":
            gates[prev_index] = None
            gates[index] = None
            continue
        gates[prev_index] = combined
        gates[index] = None
        for q in combined.qubits:
            stacks.setdefault(q, []).append(prev_index)
    return changed


def cancel_adjacent_inverses(circuit: QuantumCircuit) -> QuantumCircuit:
    """Remove DAG-adjacent inverse pairs until no more cancel."""

    def try_combine(prev: Gate, gate: Gate):
        return "drop" if _are_inverse(prev, gate) else None

    gates: List[Optional[Gate]] = list(circuit)
    while _sweep(gates, try_combine):
        pass
    return QuantumCircuit._trusted(circuit.num_qubits, [g for g in gates if g is not None])


def merge_rotations(circuit: QuantumCircuit) -> QuantumCircuit:
    """Merge DAG-adjacent same-axis rotations; zero-angle results are dropped."""

    def try_combine(prev: Gate, gate: Gate):
        merged = _merged_rotation(prev, gate)
        if merged is None:
            return None
        if merged.name == "i":
            return "drop"
        return merged

    gates: List[Optional[Gate]] = list(circuit)
    while _sweep(gates, try_combine):
        pass
    return QuantumCircuit._trusted(circuit.num_qubits, [g for g in gates if g is not None])
