"""Seeded input circuits and the independent reference check of outputs.

Neither part uses `zxcliff`: the generator reproduces the distribution and
`random.Random` call order of `zxcliff.circuit.random_clifford_circuit` as of
the commit that added this benchmark, so edits to the package cannot change
the inputs, and the check multiplies its own gate matrices.

Circuits here are tuples of `(name, wires)` pairs; `run.py` turns them into
`zxcliff` circuits and back.
"""

from __future__ import annotations

import random
from functools import reduce
from typing import Iterable, List, Sequence, Tuple

import numpy as np

GateSpec = Tuple[str, Tuple[int, ...]]

ONE_QUBIT_GATES = ("S", "V", "Z", "X", "H")
TWO_QUBIT_GATES = frozenset({"CNOT", "TONC", "SWAP"})


def random_circuit(width: int, depth: int, gen_seed: int) -> List[GateSpec]:
    """One gate per layer: a fair coin picks a uniform CNOT (width >= 2) or a
    uniform single-qubit gate on a uniform wire."""
    rng = random.Random(gen_seed)
    gates: List[GateSpec] = []
    for _ in range(depth):
        if width >= 2 and rng.random() < 0.5:
            control = rng.randrange(width)
            target = rng.randrange(width - 1)
            if target >= control:
                target += 1
            gates.append(("CNOT", (control, target)))
        else:
            name = ONE_QUBIT_GATES[rng.randrange(len(ONE_QUBIT_GATES))]
            gates.append((name, (rng.randrange(width),)))
    return gates


def two_qubit_count(gates: Iterable[GateSpec]) -> int:
    return sum(1 for name, _ in gates if name in TWO_QUBIT_GATES)


# -- reference semantics ----------------------------------------------------------
#
# Wire 0 is the leftmost Kronecker factor.  Multi-wire gates are written as
# sums of Kronecker products of single-wire operators, so no gate needs a
# permutation of the basis.

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Zm = np.diag([1, -1]).astype(complex)
_P0 = np.diag([1, 0]).astype(complex)
_P1 = np.diag([0, 1]).astype(complex)
_S = np.diag([1, 1j]).astype(complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

_ONE_QUBIT = {
    "S": _S,
    "Z": _Zm,
    "X": _X,
    "H": _H,
    "V": _H @ _S @ _H,  # square root of X
}


def _on_wires(width: int, factors: dict) -> np.ndarray:
    return reduce(np.kron, [factors.get(w, _I) for w in range(width)])


def gate_unitary(width: int, name: str, wires: Sequence[int]) -> np.ndarray:
    if name in _ONE_QUBIT:
        return _on_wires(width, {wires[0]: _ONE_QUBIT[name]})
    if name in ("CNOT", "TONC"):
        control, target = wires if name == "CNOT" else wires[::-1]
        return (_on_wires(width, {control: _P0})
                + _on_wires(width, {control: _P1, target: _X}))
    if name == "SWAP":
        a, b = wires
        return 0.5 * sum(_on_wires(width, {a: p, b: p}) for p in (_I, _X, _Y, _Zm))
    raise ValueError(f"unknown gate {name}")


def circuit_unitary(width: int, gates: Iterable[GateSpec]) -> np.ndarray:
    m = np.eye(2 ** width, dtype=complex)
    for name, wires in gates:
        m = gate_unitary(width, name, wires) @ m
    return m


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """a = z * b for some complex z of modulus one."""
    if a.shape != b.shape:
        return False
    pivot = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[pivot]) < tol:
        return False
    z = a[pivot] / b[pivot]
    return abs(abs(z) - 1.0) < tol and np.allclose(a, z * b, atol=tol, rtol=0.0)


def same_unitary(width: int, before: Iterable[GateSpec], after: Iterable[GateSpec]) -> bool:
    return equal_up_to_scalar(circuit_unitary(width, before), circuit_unitary(width, after))
