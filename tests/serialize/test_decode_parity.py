"""Decode parity: the one-pass circuit decoder against the checked path.

``circuit_from_dict`` checks the common gate shape inline and builds gates
without the per-gate constructor checks.  These tests pin that it is only
faster: on every pinned-suite result and every family x seed of the small
differential sample it must rebuild the same gates (name, qubits, params,
``su4`` matrix bit for bit) as decoding through the public ``Gate(...)``
plus ``QuantumCircuit.append``, and re-encode to the same canonical bytes;
and every malformed payload must fail (or be coerced) exactly as there.
"""

from __future__ import annotations

import pytest

from repro.bench import bench_jobs
from repro.circuits.circuit import QuantumCircuit
from repro.pipeline.options import CompileOptions
from repro.pipeline.registry import build_compiler
from repro.serialize import (
    canonical_json_bytes,
    circuit_from_dict,
    circuit_to_dict,
    gate_from_dict,
    result_from_dict,
    result_to_dict,
)
from repro.serialize.circuits import _check_format
from repro.service.service import CompilationService
from repro.workloads.registry import list_workloads

#: Seeds of the small differential sample (tests/verification).
SEEDS = (3, 17)


def checked_circuit_from_dict(data):
    """Decode through the public, per-gate checked constructors."""
    _check_format(data)
    circuit = QuantumCircuit(int(data["num_qubits"]))
    for gate_data in data["gates"]:
        circuit.append(gate_from_dict(gate_data))
    return circuit


def _gate_fields(gate):
    matrix = None
    if gate.matrix_override is not None:
        matrix = (gate.matrix_override.shape, gate.matrix_override.tobytes())
    return (
        gate.name,
        gate.qubits,
        tuple(type(q) for q in gate.qubits),
        tuple(p.hex() for p in gate.params),
        matrix,
    )


def assert_decode_parity(payload):
    """Both decoders agree gate for gate and re-encode to ``payload``."""
    fast = circuit_from_dict(payload)
    checked = checked_circuit_from_dict(payload)
    assert fast.num_qubits == checked.num_qubits
    assert [_gate_fields(g) for g in fast] == [_gate_fields(g) for g in checked]
    expected = canonical_json_bytes(payload)
    assert canonical_json_bytes(circuit_to_dict(fast)) == expected
    assert canonical_json_bytes(circuit_to_dict(checked)) == expected


def _result_circuits(payload):
    circuits = [payload["circuit"], payload["logical_circuit"]]
    if payload.get("routed") is not None:
        circuits.append(payload["routed"]["circuit"])
    return circuits


@pytest.fixture(scope="module")
def pinned_payloads():
    results = CompilationService().compile_many(bench_jobs(), executor="serial")
    assert all(r.ok for r in results)
    return {r.name: result_to_dict(r.result) for r in results}


def _differential_payloads():
    for family in list_workloads():
        for seed in SEEDS:
            workload = family.build(**{**family.small_params, "seed": seed})
            for isa in ("cnot", "su4"):
                compiler = build_compiler("phoenix", CompileOptions(isa=isa))
                result = compiler.compile(workload.to_terms())
                yield f"{family.name}-s{seed}-{isa}", result_to_dict(result)


class TestDecodeParity:
    def test_pinned_suite(self, pinned_payloads):
        assert len(pinned_payloads) == 16
        for payload in pinned_payloads.values():
            for circuit in _result_circuits(payload):
                assert_decode_parity(circuit)
            rebuilt = result_to_dict(result_from_dict(payload))
            assert canonical_json_bytes(rebuilt) == canonical_json_bytes(payload)

    def test_differential_sample(self):
        seen_su4 = False
        for _, payload in _differential_payloads():
            for circuit in _result_circuits(payload):
                seen_su4 |= any("matrix" in gate for gate in circuit["gates"])
                assert_decode_parity(circuit)
            rebuilt = result_to_dict(result_from_dict(payload))
            assert canonical_json_bytes(rebuilt) == canonical_json_bytes(payload)
        assert seen_su4  # the su4 matrix path is exercised

    def test_equal_parameterless_gates_share_one_instance(self):
        payload = {
            "format": "repro-json-1",
            "num_qubits": 2,
            "gates": [{"name": "cx", "qubits": [0, 1]}] * 3
            + [{"name": "cx", "qubits": [1, 0]}],
        }
        first, second, third, swapped = circuit_from_dict(payload)
        assert first is second is third
        assert swapped is not first and swapped.qubits == (1, 0)


def _circuit(gates, num_qubits=3, **extra):
    return {"format": "repro-json-1", "num_qubits": num_qubits, "gates": gates, **extra}


#: (payload, outcome on the parent decoder): an exception type, or the
#: ``(name, qubits, params)`` of the accepted gates.  The checked path
#: coerces qubits with ``int()``, so bool, float and numeric-string qubits
#: are accepted as their int value.
MALFORMED = {
    "qubit-out-of-range": (_circuit([{"name": "cx", "qubits": [0, 3]}]), ValueError),
    "1q-out-of-range": (_circuit([{"name": "h", "qubits": [5]}]), ValueError),
    "negative-qubit": (_circuit([{"name": "h", "qubits": [-1]}]), ValueError),
    "bool-qubit": (_circuit([{"name": "h", "qubits": [True]}]), [("h", (1,), ())]),
    "bool-qubit-2q": (
        _circuit([{"name": "cx", "qubits": [False, 2]}]),
        [("cx", (0, 2), ())],
    ),
    "float-qubit": (_circuit([{"name": "h", "qubits": [1.0]}]), [("h", (1,), ())]),
    "fractional-qubit": (_circuit([{"name": "h", "qubits": [1.5]}]), [("h", (1,), ())]),
    "string-qubit": (_circuit([{"name": "h", "qubits": ["1"]}]), [("h", (1,), ())]),
    "none-qubit": (_circuit([{"name": "h", "qubits": [None]}]), TypeError),
    "repeated-qubit": (_circuit([{"name": "cx", "qubits": [1, 1]}]), ValueError),
    "repeated-after-coercion": (
        _circuit([{"name": "cx", "qubits": [1, 1.0]}]),
        ValueError,
    ),
    "missing-name": (_circuit([{"qubits": [0]}]), KeyError),
    "missing-qubits": (_circuit([{"name": "h"}]), KeyError),
    "missing-gates": ({"format": "repro-json-1", "num_qubits": 2}, KeyError),
    "missing-num-qubits": ({"format": "repro-json-1", "gates": []}, KeyError),
    "wrong-format-tag": (_circuit([], format="repro-json-0"), ValueError),
    "zero-qubits": (_circuit([], num_qubits=0), ValueError),
    "non-numeric-param": (
        _circuit([{"name": "rz", "qubits": [0], "params": ["x"]}]),
        ValueError,
    ),
    "null-params": (_circuit([{"name": "rz", "qubits": [0], "params": None}]), TypeError),
    "qubits-not-a-list": (_circuit([{"name": "h", "qubits": 1}]), TypeError),
    "gate-not-a-dict": (_circuit([["h", [0]]]), TypeError),
    "null-gate": (_circuit([None]), TypeError),
    "malformed-matrix": (
        _circuit([{"name": "su4", "qubits": [0, 1], "matrix": [[1]]}]),
        TypeError,
    ),
    "three-qubit-gate": (
        _circuit([{"name": "ccx", "qubits": [0, 1, 2]}]),
        [("ccx", (0, 1, 2), ())],
    ),
    "non-string-name": (_circuit([{"name": 5, "qubits": [0]}]), [(5, (0,), ())]),
}


def _outcome(decode, payload):
    try:
        circuit = decode(payload)
    except Exception as exc:
        return type(exc)
    return [(g.name, g.qubits, g.params) for g in circuit]


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_payload_outcome_is_unchanged(case):
    payload, expected = MALFORMED[case]
    assert _outcome(circuit_from_dict, payload) == expected
    assert _outcome(checked_circuit_from_dict, payload) == expected


@pytest.mark.parametrize(
    "case", [case for case in sorted(MALFORMED) if isinstance(MALFORMED[case][1], type)]
)
def test_result_decoder_raises_the_same_type(case):
    payload, expected = MALFORMED[case]
    with pytest.raises(expected):
        result_from_dict({"format": "repro-json-1", "circuit": payload})
