"""Emission of simplified IR groups as circuits.

A :class:`repro.core.simplify.SimplifiedGroup` is still high-level semantics
(Clifford2Q conjugations, 1Q Pauli rotations, and <=2-weight Pauli
rotations).  This module lowers one group to the gate IR in the nested
conjugation form::

    locals_1 ; C_1 ; locals_2 ; C_2 ; ... ; final rotations ; ... ; C_2 ; C_1

keeping the two-qubit pieces as native gates (``c<kind>`` Cliffords and
``rpp`` rotations) so the result remains ISA-independent; the final rebase
to CNOT or SU(4) happens in the compiler.
"""

from __future__ import annotations

from typing import List, Optional

from repro.circuits.circuit import QuantumCircuit
from repro.core.simplify import SimplifiedGroup
from repro.paulis.pauli import PauliTerm

_AXIS_ROTATION = {"X": "rx", "Y": "ry", "Z": "rz"}


def emit_rotation(circuit: QuantumCircuit, term: PauliTerm) -> None:
    """Append a weight-<=2 Pauli rotation ``exp(-i c P)`` to ``circuit``."""
    support = term.support()
    angle = 2.0 * term.coefficient
    if len(support) == 0:
        return  # identity rotation: global phase only
    if len(support) == 1:
        qubit = support[0]
        axis = term.string.pauli_on(qubit)
        getattr(circuit, _AXIS_ROTATION[axis])(angle, qubit)
        return
    if len(support) == 2:
        q0, q1 = support
        p0 = term.string.pauli_on(q0).lower()
        p1 = term.string.pauli_on(q1).lower()
        circuit.rpp(p0, p1, angle, q0, q1)
        return
    raise ValueError(
        f"emit_rotation expects weight <= 2 terms, got weight {len(support)}"
    )


def group_to_circuit(
    simplified: SimplifiedGroup, num_qubits: Optional[int] = None
) -> QuantumCircuit:
    """Lower one simplified IR group to the ISA-independent gate IR."""
    width = num_qubits if num_qubits is not None else simplified.group.terms[0].num_qubits
    circuit = QuantumCircuit(width)
    cliffords = []
    for level in simplified.levels:
        for term in level.local_terms:
            emit_rotation(circuit, term)
        if level.clifford is not None:
            circuit.append(level.clifford.as_gate())
            cliffords.append(level.clifford)
    for term in simplified.final_terms:
        emit_rotation(circuit, term)
    for clifford in reversed(cliffords):
        circuit.append(clifford.as_gate())
    return circuit


def groups_to_circuit(
    simplified_groups: List[SimplifiedGroup], num_qubits: int
) -> QuantumCircuit:
    """Concatenate simplified groups (already ordered) into one circuit."""
    return QuantumCircuit._trusted(
        num_qubits,
        [
            gate
            for simplified in simplified_groups
            for gate in group_to_circuit(simplified, num_qubits)
        ],
    )
