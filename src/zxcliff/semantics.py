"""Dense matrix interpretation of diagrams and equality up to a global scalar.

This is the ground-truth oracle: every rewrite rule, structural pass and
optimiser run is checked against it.  A diagram with n inputs and m outputs
denotes a 2^m x 2^n complex matrix, compared up to any non-zero scalar
factor.

Basis convention: wire 0 is the most significant bit, so the matrix of a
two-wire diagram acts on basis |q0 q1>.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple

import numpy as np

from .diagram import H, Z, Diagram, VertexId
from .errors import SemanticsSizeError, ShapeError

DEFAULT_TOL = 1e-9
DEFAULT_QUBIT_BOUND = 10

H_MAT = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# spiders above this degree are decomposed into chains before contraction so
# individual tensors stay small
_MAX_TENSOR_LEGS = 4


# Spider tensors are cached per (degree, phase) and shared by every caller,
# so they are made read-only.  Degrees stay at most _MAX_TENSOR_LEGS, which
# keeps each cache small.

@functools.lru_cache(maxsize=None)
def _z_tensor(degree: int, phase: int) -> np.ndarray:
    t = np.zeros((2,) * degree, dtype=complex)
    t[(0,) * degree] += 1.0
    t[(1,) * degree] += 1j ** phase
    t.setflags(write=False)
    return t


@functools.lru_cache(maxsize=None)
def _x_tensor(degree: int, phase: int) -> np.ndarray:
    t = _z_tensor(degree, phase)
    for axis in range(degree):
        t = np.tensordot(t, H_MAT, axes=([axis], [0]))
        t = np.moveaxis(t, -1, axis)
    t.setflags(write=False)
    return t


def _vertex_tensors(d: Diagram, v: VertexId, slots: List, fresh: List[int]) -> List[Tuple[np.ndarray, List]]:
    """Tensors for one vertex, splitting high degrees into chains.

    ``slots`` is the list of labels for the vertex's edge ends, ``fresh`` a
    one-element counter list used to mint internal chain labels.
    """
    kind = d.kind(v)
    phase = d.phase(v)
    if kind == H:
        return [(np.array(H_MAT), list(slots))]
    build = _z_tensor if kind == Z else _x_tensor
    if len(slots) <= _MAX_TENSOR_LEGS:
        return [(build(len(slots), phase), list(slots))]
    out = []
    remaining = list(slots)
    carry = None
    while len(remaining) + (1 if carry is not None else 0) > _MAX_TENSOR_LEGS:
        take = _MAX_TENSOR_LEGS - 1 - (1 if carry is not None else 0)
        chunk, remaining = remaining[:take], remaining[take:]
        link = ("chain", fresh[0])
        fresh[0] += 1
        legs = ([carry] if carry is not None else []) + chunk + [link]
        out.append((build(len(legs), 0), legs))
        carry = link
    legs = ([carry] if carry is not None else []) + remaining
    out.append((build(len(legs), phase), legs))
    return out


def _trace_duplicates(t: np.ndarray, labels: List) -> Tuple[np.ndarray, List]:
    while True:
        seen: Dict = {}
        dup = None
        for i, lab in enumerate(labels):
            if lab in seen:
                dup = (seen[lab], i)
                break
            seen[lab] = i
        if dup is None:
            return t, labels
        i, j = dup
        t = np.trace(t, axis1=i, axis2=j)
        labels = [lab for k, lab in enumerate(labels) if k not in (i, j)]


def interpret(d: Diagram, qubit_bound: int = DEFAULT_QUBIT_BOUND) -> np.ndarray:
    """Contract the diagram's tensor network into its matrix.

    Contraction picks, at each step, the pair of connected tensors whose
    contraction yields the smallest intermediate; correctness does not depend
    on the order.
    """
    if max(d.num_inputs, d.num_outputs) > qubit_bound:
        raise SemanticsSizeError(
            f"{max(d.num_inputs, d.num_outputs)} open wires exceeds bound {qubit_bound}"
        )

    # assign labels to edge ends
    slot_map: Dict[VertexId, List] = {v: [] for v in d.vertices() if not d.is_boundary(v)}
    tensors: List[Tuple[np.ndarray, List]] = []
    for e in d.edges():
        u, v = d.edge_ends(e)
        ub, vb = d.is_boundary(u), d.is_boundary(v)
        if ub and vb:
            tensors.append((np.eye(2, dtype=complex), [("b", u), ("b", v)]))
        elif ub:
            slot_map[v].append(("b", u))
        elif vb:
            slot_map[u].append(("b", v))
        else:
            slot_map[u].append(("e", e))
            slot_map[v].append(("e", e))

    fresh = [0]
    for v in sorted(slot_map):
        for t, labels in _vertex_tensors(d, v, slot_map[v], fresh):
            tensors.append(_trace_duplicates(t, labels))

    if not tensors:
        result = np.ones((), dtype=complex)
        labels: List = []
    else:
        tensors = [(t, list(l)) for t, l in tensors]
        while len(tensors) > 1:
            best = None
            for i in range(len(tensors)):
                li = set(tensors[i][1])
                for j in range(i + 1, len(tensors)):
                    shared = li & set(tensors[j][1])
                    if not shared:
                        continue
                    cost = len(tensors[i][1]) + len(tensors[j][1]) - 2 * len(shared)
                    if best is None or cost < best[0]:
                        best = (cost, i, j, shared)
            if best is None:
                # disconnected parts: outer product of the first two
                t1, l1 = tensors.pop(1)
                t0, l0 = tensors.pop(0)
                prod = np.tensordot(t0, t1, axes=0)
                tensors.insert(0, (prod, l0 + l1))
                continue
            _, i, j, shared = best
            tj, lj = tensors.pop(j)
            ti, li_ = tensors.pop(i)
            ax_i = [li_.index(s) for s in sorted(shared, key=repr)]
            ax_j = [lj.index(s) for s in sorted(shared, key=repr)]
            t = np.tensordot(ti, tj, axes=(ax_i, ax_j))
            rest = [l for l in li_ if l not in shared] + [l for l in lj if l not in shared]
            t, rest = _trace_duplicates(t, rest)
            tensors.append((t, rest))
        result, labels = tensors[0]

    order = [("b", v) for v in d.outputs] + [("b", v) for v in d.inputs]
    if sorted(map(repr, labels)) != sorted(map(repr, order)):
        raise AssertionError("free index bookkeeping failed")
    perm = [labels.index(lab) for lab in order]
    result = np.transpose(result, perm) if perm else result
    result = result.reshape(2 ** d.num_outputs, 2 ** d.num_inputs)
    # a lone spider's matrix is a view of its cached, read-only tensor
    return result if result.flags.writeable else result.copy()


def scalar_free_equal(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff b == z*a for some non-zero scalar z, within tolerance."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return True
    flat = np.abs(a).ravel()
    idx = int(np.argmax(flat))
    if flat[idx] <= tol:
        return bool(np.max(np.abs(b)) <= tol)
    if np.max(np.abs(b)) <= tol:
        return False  # the scalar must be non-zero, so zero vs non-zero differ
    z = b.ravel()[idx] / a.ravel()[idx]
    bound = tol * max(1.0, float(np.max(np.abs(b))))
    return bool(np.max(np.abs(b - z * a)) <= bound)


def check_translation_soundness(c) -> bool:
    """Gate-matrix semantics and diagram semantics of a circuit agree."""
    from .circuit import gate_matrix_product, translate

    return scalar_free_equal(gate_matrix_product(c), interpret(translate(c)))
