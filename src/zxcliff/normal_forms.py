"""The CC1 (24 single-qubit) and CC2 (11520 two-qubit) standard minimal forms.

CC1 holds one diagram per element of the reduced 1-qubit Clifford group:
the identity wire, six one-vertex forms, thirteen two-vertex forms and four
three-vertex forms.  It is built in one pass over 41 short line diagrams,
each contracted once, and keeps each member's matrix and (kind, phase)
sequence from that pass.  CC2 is generated from four shapes (tensor, swap,
CNOT and swapped-CNOT) dressed with CC1 blocks and the small post-CNOT
parameter families; its size 24*24*(1+1+9+9) = 11520 equals the order of
the reduced 2-qubit Clifford group, so distinctness of all member keys makes
the family a complete set of representatives.

Every CC2 member is a core (one shape with its post-CNOT parameters, 20 in
all) after a CC1 block on each wire, so its matrix is core @ kron(c1, c2).
The member keys come from composing the 24 stored CC1 matrices with the 20
core matrices; only the cores are contracted to build the family, and each
member diagram is built on first use from the stored CC1 sequences.  That
the keys of the member diagrams themselves are the composed ones is checked
densely in the test suite, and every lookup re-checks the member it returns
against the queried matrix, comparing it with the member's own matrix,
contracted once on first use.

Tables are built lazily once per process and shared read-only.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence as SequenceABC
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .diagram import B, X, Z, Diagram, DiagramBuilder
from .errors import NotAClifford
from .passes import fuse_spiders, remove_identities
from .semantics import interpret, scalar_free_equal

KEY_DECIMALS = 12


def canonical_key(m: np.ndarray) -> Tuple:
    """Scalar-free fingerprint: normalise by the first max-magnitude entry
    (first within a relative tolerance, so float noise cannot change which
    entry is picked) and round.  Clifford matrices live on a discrete grid,
    so the rounded form is stable."""
    return canonical_keys(np.asarray(m, dtype=complex)[None])[0]


def canonical_keys(ms: np.ndarray) -> List[Tuple]:
    """`canonical_key` of each matrix in a stack of shape (n, rows, cols)."""
    ms = np.asarray(ms, dtype=complex)
    shape = ms.shape[1:]
    flat = ms.reshape(len(ms), -1)
    mags = np.abs(flat)
    top = mags.max(axis=1)
    idx = np.argmax(mags >= top[:, None] * (1.0 - 1e-9), axis=1)
    pivot = flat[np.arange(len(flat)), idx]
    with np.errstate(divide="ignore", invalid="ignore"):  # zero matrices
        norm = flat / pivot[:, None]
    re = np.round(norm.real, KEY_DECIMALS) + 0.0
    im = np.round(norm.imag, KEY_DECIMALS) + 0.0
    return [("zero", shape) if t < 1e-14 else (shape, tuple(r), tuple(i))
            for t, r, i in zip(top, re, im)]


def line_diagram(seq: Sequence[Tuple[str, int]]) -> Diagram:
    """A one-wire diagram with the given (kind, phase) vertices in order."""
    b = DiagramBuilder()
    i0 = b.add_vertex(B)
    prev = i0
    for kind, phase in seq:
        v = b.add_vertex(kind, phase)
        b.add_edge(prev, v)
        prev = v
    o0 = b.add_vertex(B)
    b.add_edge(prev, o0)
    b.set_boundaries([i0], [o0])
    return b.build()


def _line_pool(max_vertices: int) -> List[List[Tuple[str, int]]]:
    """All spider-only line sequences with at most max_vertices vertices.

    H boxes are excluded: the minimal-form claim is about the stabilizer
    spider language (an H box would undercut the three-vertex Euler forms).
    """
    alphabet: List[Tuple[str, int]] = [(Z, p) for p in range(4)] + \
        [(X, p) for p in range(4)]
    pool: List[List[Tuple[str, int]]] = [[]]
    frontier: List[List[Tuple[str, int]]] = [[]]
    for _ in range(max_vertices):
        frontier = [seq + [a] for seq in frontier for a in alphabet]
        pool.extend(frontier)
    return pool


class CC1Table:
    """The 24 single-qubit minimal forms with precomputed oracle keys.

    The candidates are walked once, shortest first: the identity wire, the
    six one-vertex forms, the opposite-colour pairs and the alternating
    +-pi/2 triples; the first candidate of each key is kept.  ``members``
    holds the kept diagrams, ``seqs`` each one's (kind, phase) sequence along
    the wire, `_matrices` its matrix and ``keys`` its index by key, all from
    the one contraction of each candidate."""

    def __init__(self):
        pairs = ((Z, X), (X, Z))
        candidates = [(), *(((k, p),) for k in (Z, X) for p in (1, 2, 3)),
                      *(((f, a), (s, b)) for f, s in pairs for a in (1, 2, 3) for b in (1, 2, 3)),
                      *(((f, a), (s, b), (f, c)) for f, s in pairs
                        for a in (1, 3) for b in (1, 3) for c in (1, 3))]
        found: Dict[Tuple, Tuple] = {}
        for seq in candidates:
            d = line_diagram(seq)
            matrix = interpret(d)
            found.setdefault(canonical_key(matrix), (seq, d, matrix))
        self.keys: Dict[Tuple, int] = {k: i for i, k in enumerate(found)}
        self.seqs, self.members, self._matrices = map(tuple, zip(*found.values()))
        sizes = Counter(map(len, self.seqs))
        if sizes != {0: 1, 1: 6, 2: 13, 3: 4}:
            raise AssertionError(f"expected 1, 6, 13 and 4 forms by length, found {sizes}")

    def lookup(self, matrix: np.ndarray) -> Tuple[int, Diagram]:
        idx = self.keys.get(canonical_key(matrix))
        if idx is None:
            raise NotAClifford("matrix is not a 1-qubit Clifford (no key match)")
        if not scalar_free_equal(self._matrices[idx], matrix):
            raise NotAClifford("key collision outside tolerance")
        return idx, self.members[idx]

    def verify_minimality(self) -> None:
        """No line diagram with fewer vertices is equivalent to any member."""
        best: Dict[Tuple, int] = {}
        for seq in _line_pool(3):
            k = canonical_key(interpret(line_diagram(seq)))
            n = len(seq)
            if k not in best or n < best[k]:
                best[k] = n
        for k, i in self.keys.items():
            size = len(self.seqs[i])
            if best.get(k, size) < size:
                raise AssertionError(f"CC1 member {i} is not minimal")


_A_PARAMS: List[List[Tuple[str, int]]] = [[], [(X, 1)], [(X, 1), (Z, 1)]]
_B_PARAMS: List[List[Tuple[str, int]]] = [[], [(Z, 1)], [(Z, 1), (X, 1)]]

CC2_SHAPES = ("tensor", "swap", "cnot", "tonc")


def _build_cc2_member(shape: str, c1_seq, c2_seq, a_seq, b_seq) -> Diagram:
    bld = DiagramBuilder()
    in0 = bld.add_vertex(B)
    in1 = bld.add_vertex(B)
    frontier = [in0, in1]

    def run(wire: int, seq) -> None:
        for kind, phase in seq:
            v = bld.add_vertex(kind, phase)
            bld.add_edge(frontier[wire], v)
            frontier[wire] = v

    run(0, c1_seq)
    run(1, c2_seq)
    if shape in ("cnot", "tonc"):
        zv = bld.add_vertex(Z, 0)
        xv = bld.add_vertex(X, 0)
        bld.add_edge(frontier[0], zv)
        bld.add_edge(frontier[1], xv)
        bld.add_edge(zv, xv)
        frontier[0], frontier[1] = zv, xv
        if shape == "tonc":
            frontier[0], frontier[1] = frontier[1], frontier[0]
        run(0, b_seq if shape == "tonc" else a_seq)
        run(1, a_seq if shape == "tonc" else b_seq)
    elif shape == "swap":
        frontier[0], frontier[1] = frontier[1], frontier[0]
    out0 = bld.add_vertex(B)
    out1 = bld.add_vertex(B)
    bld.add_edge(frontier[0], out0)
    bld.add_edge(frontier[1], out1)
    bld.set_boundaries([in0, in1], [out0, out1])
    # canonical form: adjacent same-colour blocks fuse into the CNOT legs
    return remove_identities(fuse_spiders(bld.build()))


class _Memo(SequenceABC):
    """A read-only sequence whose item i is made by ``make(i)`` on first
    access and kept, so every later access returns the same object."""

    def __init__(self, n: int, make: Callable[[int], Any]):
        self._items: List[Any] = [None] * n
        self._make = make

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # bounds, negative and non-integer indices
        item = self._items[i]
        if item is None:
            item = self._items[i] = self._make(i)
        return item


class CC2Family:
    """All 11520 two-qubit minimal forms, indexed by oracle key."""

    def __init__(self, cc1: CC1Table):
        self._cc1_seqs = cc1.seqs
        c = np.stack(cc1._matrices)
        n = len(c)
        # dressing i1 * n + i2 is kron(c[i1], c[i2]): wire 0 is the high bit
        dressings = np.einsum("aij,bkl->abikjl", c, c).reshape(n * n, 4, 4)
        self.shapes: List[Tuple] = []
        self.keys: Dict[Tuple, int] = {}
        for shape in CC2_SHAPES:
            with_params = shape in ("cnot", "tonc")
            for ai in range(len(_A_PARAMS) if with_params else 1):
                for bi in range(len(_B_PARAMS) if with_params else 1):
                    core = interpret(_build_cc2_member(
                        shape, [], [], _A_PARAMS[ai], _B_PARAMS[bi]))
                    for j, k in enumerate(canonical_keys(core @ dressings)):
                        i1, i2 = divmod(j, n)
                        if k in self.keys:
                            raise AssertionError(
                                f"CC2 key collision: {shape},{ai},{bi},{i1},{i2}")
                        self.keys[k] = len(self.shapes)
                        self.shapes.append((shape, ai, bi, i1, i2))
        self.members: Sequence[Diagram] = _Memo(len(self.shapes), self._member)
        self._matrices: Sequence[np.ndarray] = _Memo(
            len(self.shapes), lambda i: interpret(self.members[i]))
        if len(self.members) != 11520:
            raise AssertionError(f"expected 11520 members, found {len(self.members)}")

    def _member(self, i: int) -> Diagram:
        shape, ai, bi, i1, i2 = self.shapes[i]
        return _build_cc2_member(shape, self._cc1_seqs[i1], self._cc1_seqs[i2],
                                 _A_PARAMS[ai], _B_PARAMS[bi])

    def index(self, matrix: np.ndarray) -> int:
        """The position in `members` of the member whose key is the matrix's."""
        if np.asarray(matrix).shape != (4, 4):
            raise NotAClifford("CC2 lookup needs a 4x4 matrix")
        idx = self.keys.get(canonical_key(matrix))
        if idx is None:
            raise NotAClifford("matrix is not a 2-qubit Clifford (no key match)")
        return idx

    def find(self, matrix: np.ndarray) -> Tuple[int, Diagram]:
        """The `index` of the matrix's member and the member, checked
        against the matrix."""
        idx = self.index(matrix)
        if not scalar_free_equal(self._matrices[idx], matrix):
            raise NotAClifford("key collision outside tolerance")
        return idx, self.members[idx]

    def lookup(self, matrix: np.ndarray) -> Diagram:
        return self.find(matrix)[1]

    def contains(self, d: Diagram) -> bool:
        """Structural membership: d must be isomorphic to a member."""
        if d.signature() != (2, 2):
            return False
        try:
            member = self.lookup(interpret(d))
        except NotAClifford:
            return False
        return d.iso_equal(member)


_CC1: Optional[CC1Table] = None
_CC2: Optional[CC2Family] = None


def cc1_table() -> CC1Table:
    global _CC1
    if _CC1 is None:
        _CC1 = CC1Table()
    return _CC1


def cc2_family() -> CC2Family:
    global _CC2
    if _CC2 is None:
        _CC2 = CC2Family(cc1_table())
    return _CC2


def cc2_contains(d: Diagram) -> bool:
    return cc2_family().contains(d)
