"""JSON wire format for :class:`~repro.circuits.circuit.QuantumCircuit`.

Gates are stored structurally (name, qubits, params), exactly mirroring the
in-memory IR.  The only non-scalar payload is the opaque ``su4`` gate's
4x4 unitary, which is stored as nested ``[real, imag]`` pairs so the JSON
stays valid and the matrix round-trips bit-exactly (floats are preserved
by Python's ``json`` module).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.utils.validation import check_qubit_index

#: Version tag embedded in every serialized payload; bump on breaking changes.
SERIALIZATION_FORMAT = "repro-json-1"


def _matrix_to_lists(matrix: np.ndarray) -> List[List[List[float]]]:
    mat = np.asarray(matrix, dtype=complex)
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_lists(data: List[List[List[float]]]) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in data],
        dtype=complex,
    )


def gate_to_dict(gate: Gate) -> Dict[str, Any]:
    """One gate as a JSON-compatible dict."""
    payload: Dict[str, Any] = {"name": gate.name, "qubits": list(gate.qubits)}
    if gate.params:
        payload["params"] = [float(p) for p in gate.params]
    if gate.matrix_override is not None:
        payload["matrix"] = _matrix_to_lists(gate.matrix_override)
    return payload


def gate_from_dict(data: Dict[str, Any]) -> Gate:
    """Rebuild a gate from :func:`gate_to_dict` output."""
    matrix: Optional[np.ndarray] = None
    if "matrix" in data:
        matrix = _matrix_from_lists(data["matrix"])
    return Gate(
        data["name"],
        tuple(data["qubits"]),
        tuple(data.get("params", ())),
        matrix,
    )


def circuit_to_dict(circuit: QuantumCircuit) -> Dict[str, Any]:
    """A circuit as a JSON-compatible dict."""
    return {
        "format": SERIALIZATION_FORMAT,
        "num_qubits": circuit.num_qubits,
        "gates": [gate_to_dict(gate) for gate in circuit],
    }


def circuit_from_dict(data: Dict[str, Any]) -> QuantumCircuit:
    """Rebuild a circuit from :func:`circuit_to_dict` output.

    This is a trust boundary: payloads come from disk, the network, the
    journal and the server, so every gate is checked here, once, exactly
    as the public ``Gate(...)`` plus :meth:`QuantumCircuit.append` would
    check it.  The common shape (one or two distinct in-range int qubits,
    no matrix) is checked inline and builds the gate unchecked; anything
    else (a non-int qubit, an ``su4`` matrix, another arity) takes
    :func:`gate_from_dict` and the same qubit check as ``append``, so the
    same inputs are accepted and the same exceptions raised.
    """
    _check_format(data)
    num_qubits = int(data["num_qubits"])
    if num_qubits <= 0:
        raise ValueError("a circuit needs at least one qubit")
    gates: List[Gate] = []
    trusted_gate = Gate._trusted
    # Gates are immutable, so equal parameterless gates share one instance.
    shared: Dict[Tuple[str, int, int], Gate] = {}
    for gate_data in data["gates"]:
        if type(gate_data) is dict and "matrix" not in gate_data:
            name = gate_data["name"]
            qubits = gate_data["qubits"]
            if type(name) is str and type(qubits) is list and 0 < len(qubits) <= 2:
                first = qubits[0]
                last = qubits[-1]
                # One qubit (first is last) or two distinct ones, all in range.
                if (
                    type(first) is int
                    and type(last) is int
                    and 0 <= first < num_qubits
                    and 0 <= last < num_qubits
                    and (first != last) == (len(qubits) == 2)
                ):
                    if "params" in gate_data:
                        params = tuple(map(float, gate_data["params"]))
                        gates.append(trusted_gate(name, tuple(qubits), params))
                        continue
                    key = (name, first, last)
                    gate = shared.get(key)
                    if gate is None:
                        gate = shared[key] = trusted_gate(name, tuple(qubits))
                    gates.append(gate)
                    continue
        gate = gate_from_dict(gate_data)
        for qubit in gate.qubits:
            check_qubit_index(qubit, num_qubits)
        gates.append(gate)
    return QuantumCircuit._trusted(num_qubits, gates)


def circuit_to_json(circuit: QuantumCircuit, indent: Optional[int] = None) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=indent)


def circuit_from_json(text: str) -> QuantumCircuit:
    return circuit_from_dict(json.loads(text))


def _check_format(data: Dict[str, Any]) -> None:
    fmt = data.get("format", SERIALIZATION_FORMAT)
    if fmt != SERIALIZATION_FORMAT:
        raise ValueError(
            f"unsupported serialization format {fmt!r}; "
            f"this build reads {SERIALIZATION_FORMAT!r}"
        )
