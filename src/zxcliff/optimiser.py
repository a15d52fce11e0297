"""The optimisation pipeline: init, alternating simplification and
commutation to a fixpoint, then a semantic final tidy, with a replayable
proof trace throughout.

Phases:

1. translate, normalise to simple form, split phases off CNOT legs, and
   remove 3pi/2 and H vertices with the init rules.  After this the diagram
   only carries pi/2 and pi phases on degree-2 vertices and phase-free legs.
2. Loop until nothing changes: strictly-reducing rules (first match whose
   result still has a causal-flow cover), targeted Pauli commutation toward
   the inputs, metric-driven CNOT commutation (Pauli positions plus a
   same-pair CNOT separation term; results without a cover are penalised
   beyond reach).  The commutation metric scores each candidate from the
   current diagram's cover without building it: the rule's RHS cover is
   spliced in and checked locally, or a flow sweep on patched neighbour sets
   shows the cover is lost; only candidates neither settles, and the one
   accepted, are built.
3. Final tidy: every single-qubit run is replaced by its CC1 representative
   (2x2 oracle lookup); on two-qubit diagrams with the semantic fallback
   enabled the whole diagram is replaced by its CC2 member.  These steps are
   recorded as semantic normalisations, distinct from axiomatic rewrites.
4. Extraction back to a gate list via the path cover.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .circuit import Circuit, circuit_size, translate
from .diagram import B, H, X, Z, Diagram, DiagramBuilder, EdgeId, VertexId
from .errors import NotACircuit, NotALineGraph
from .flow import (CoverSummary, PathCover, extract_circuit, find_path_cover, has_path_cover,
                   splice_cover, stranded_after)
from .normal_forms import cc1_table, cc2_family
from .passes import (fuse_spiders, h_euler_expand, hopf_reduce, pi_copy,
                     remove_identities, remove_self_loops, simple_form,
                     split_cross_leg, split_phase)
from .rewrite import (Match, ProofTrace, Rule, Scored, match_delta, reduce, rewrite_first,
                      rewrite_metric, rewrite_targeted, SEMANTIC_REPLAYERS)
from .ruleset import RuleSet, load_ruleset
from .semantics import H_MAT, interpret, scalar_free_equal

_RULESET: Optional[RuleSet] = None


def default_ruleset() -> RuleSet:
    global _RULESET
    if _RULESET is None:
        _RULESET = load_ruleset()
    return _RULESET


@dataclass
class OptimiserConfig:
    max_global_iters: int = 50
    step_budget: int = 10_000
    verify_each_step: bool = False
    semantic_fallback: bool = True

    def __post_init__(self):
        if self.max_global_iters <= 0 or self.step_budget <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class OptimiseResult:
    circuit: Circuit
    diagram: Diagram
    trace: ProofTrace
    stats: Dict


def _is_pauli_kind(kind_phase: Tuple[str, int]) -> bool:
    return kind_phase[0] in (Z, X) and kind_phase[1] == 2


def _pauli_positions(d: Diagram, pc_paths) -> int:
    return sum(p for path in pc_paths for p, v in enumerate(path)
               if _is_pauli_kind(d._vertices[v]))


class PauliMetric:
    """Sum of Pauli positions; diagrams with vertices on no path are pushed
    beyond any on-path arrangement by a (|V|+1)^2 penalty per failure."""

    def value(self, d: Diagram) -> int:
        big = (len(d.vertices()) + 1) ** 2
        try:
            pc = find_path_cover(d)
        except NotACircuit as exc:
            return big * (len(exc.stranded) + 1)
        return _pauli_positions(d, pc.paths)


def _cnot_separation(crosses: Iterable[Tuple[Tuple[int, int], Tuple[int, int]]]) -> int:
    """Total number of interior vertices sitting between consecutive cross
    edges that act on the same pair of qubits.

    Each edge comes as the (path, position) of its two ends, in edge-id
    order, which breaks ties; edges with both ends on one path are skipped.
    Boundaries only end paths, so between positions lo < hi of one path lie
    hi - lo - 1 interior vertices."""
    groups: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for (qa, pa), (qb, pb) in crosses:
        if qa == qb:
            continue
        if qa > qb:
            qa, pa, qb, pb = qb, pb, qa, pa
        groups.setdefault((qa, qb), []).append((pa, pb))
    total = 0
    for group in groups.values():
        group.sort(key=lambda ends: (max(ends), min(ends)))
        for (a1, b1), (a2, b2) in zip(group, group[1:]):
            total += max(0, abs(a1 - a2) - 1) + max(0, abs(b1 - b2) - 1)
    return total


class CommutationMetric:
    """Metric for the CNOT commutation phase: Pauli positions plus a weighted
    same-pair CNOT separation term, so both moving Paulis off CNOTs and
    bubbling same-pair CNOTs together count as progress.

    The weight trades Pauli-position regressions (duplications put copies on
    both wires) against clearing the gap between cancellable CNOT pairs; the
    off-path penalty scales with it so broken diagrams always score worst."""

    separation_weight = 16

    def __call__(self, d: Diagram) -> int:
        return self.value(d)

    def _penalty(self, num_vertices: int, num_stranded: int) -> int:
        big = (self.separation_weight + 1) * (num_vertices + 1) ** 2 + 1
        return big * (num_stranded + 1)

    def value(self, d: Diagram) -> int:
        try:
            pc = find_path_cover(d)
        except NotACircuit as exc:
            return self._penalty(len(d.vertices()), len(exc.stranded))
        pos = pc.position()
        return (_pauli_positions(d, pc.paths) + self.separation_weight * _cnot_separation(
            (pos[u], pos[v]) for u, v in map(d.edge_ends, d.edges())))

    def scorer(self, d: Diagram) -> Callable[[Rule, Match], Optional[Scored]]:
        """Value the rewrites of d from d's cover, without building them.

        A candidate whose cover splices (`flow.splice_cover`) is scored from
        the parent's Pauli sum plus a local delta and from the separation of
        the spliced crosses; one that the flow sweep on patched neighbour
        sets strands gets the off-path penalty; any other is left open.  A
        d without a cover leaves every candidate open."""
        try:
            parent = CoverSummary(d, find_path_cover(d))
        except NotACircuit:
            return lambda rule, m: None
        paulis = [[p for p, v in enumerate(path) if _is_pauli_kind(d._vertices[v])]
                  for path in parent.paths]
        pauli_sum = sum(map(sum, paulis))
        num_vertices = len(d.vertices())

        def score(rule: Rule, m: Match) -> Optional[Scored]:
            delta = match_delta(d, rule, m)
            splice = splice_cover(parent, rule, delta)
            if splice is None:
                stranded = stranded_after(parent, delta)
                if not stranded:
                    return None
                size = num_vertices - len(delta.removed) + len(delta.fresh)
                return Scored(self._penalty(size, len(stranded)), None)
            fresh_kind = {v: rule.rhs._vertices[rv] for rv, v in delta.fresh.items()}
            total = pauli_sum
            for q, (first, last, new) in splice.segments.items():
                # the Paulis replaced go, those after the segment shift with
                # its length, and the new ones count at their positions
                row = paulis[q]
                lo, hi = bisect_left(row, first), bisect_right(row, last)
                total += ((len(new) - (last - first + 1)) * (len(row) - hi) - sum(row[lo:hi])
                          + sum(first + i for i, w in enumerate(new)
                                if _is_pauli_kind(fresh_kind[w])))
            at = splice.position
            crosses = [(at(u), at(v)) for u, v in parent.crosses
                       if u not in delta.removed and v not in delta.removed]
            crosses.extend((at(u), at(v)) for u, v in delta.new_edges)
            return Scored(total + self.separation_weight * _cnot_separation(crosses), splice)

        return score


def _record_pass(trace: Optional[ProofTrace], name: str, args: dict,
                 before: Diagram, after: Diagram) -> Diagram:
    changed = not (set(before.vertices()) == set(after.vertices())
                   and all(before._vertices[v] == after._vertices[v]
                           for v in after.vertices())
                   and sorted(before.edge_ends(e) for e in before.edges())
                   == sorted(after.edge_ends(e) for e in after.edges()))
    if changed and trace is not None:
        trace.record_pass(name, args, before, after)
    return after


def _is_pauli(d: Diagram, v: VertexId) -> bool:
    return d.is_spider(v) and d.phase(v) == 2 and d.degree(v) == 2


def _first_movable_pauli(d: Diagram, skipped: Set[VertexId]) -> Optional[VertexId]:
    """Input-major, then path position: the first Pauli at position >= 1 whose
    predecessor is a non-Pauli spider or a CNOT leg."""
    try:
        pc = find_path_cover(d)
    except NotACircuit:
        return None
    for path in pc.paths:
        for p, v in enumerate(path):
            if v in skipped or p == 0 or d.is_boundary(v):
                continue
            if not _is_pauli(d, v):
                continue
            prev = path[p - 1]
            if d.is_boundary(prev) or _is_pauli(d, prev):
                continue
            if d.kind(prev) == H:
                continue  # no rule commutes through a bare H box
            return v
    return None


def _rule_anchor(rule: Rule) -> Optional[VertexId]:
    """The Pauli vertex a commutation rule is anchored on, if it has one."""
    for v in rule.lhs.interior():
        if rule.lhs.is_spider(v) and rule.lhs.phase(v) == 2 \
                and rule.lhs.degree(v) == 2:
            return v
    return None


class Optimiser:
    def __init__(self, cfg: Optional[OptimiserConfig] = None,
                 rules: Optional[RuleSet] = None):
        self.cfg = cfg or OptimiserConfig()
        self.rules = rules or default_ruleset()
        self._anchors = {r.name: _rule_anchor(r)
                         for r in self.rules.pauli_commute + self.rules.cnot_commute}
        # targeted phase drives the Pauli-anchored movers; everything else
        # that commutes structure around (plus-sliders, Pauli-through-CNOT,
        # CNOT-past-CNOT) runs under the commutation metric
        self._targeted_rules = [r for r in self.rules.pauli_commute
                                if self._anchors[r.name] is not None]
        self._metric_rules = ([r for r in self.rules.pauli_commute
                               if self._anchors[r.name] is None]
                              + self.rules.cnot_commute + self.rules.c2)
        self._loop_rules = [r for r in self.rules.always
                            if r.name.split(":")[0] not in ("Euler", "H")]
        self._metric = CommutationMetric()
        self._rewrites = 0
        self._trace: Optional[ProofTrace] = None
        self._verify_ref: Optional[np.ndarray] = None

    # -- step bookkeeping ------------------------------------------------------

    def _after_step(self, d: Diagram) -> None:
        self._rewrites = len(self._trace.steps) if self._trace else 0
        if not self.cfg.verify_each_step:
            return
        if max(d.num_inputs, d.num_outputs) <= 5 and self._verify_ref is not None:
            if not scalar_free_equal(interpret(d), self._verify_ref):
                raise AssertionError("step changed the interpretation")
        if not has_path_cover(d):
            raise AssertionError("step produced a diagram without causal flow")

    # -- phases ----------------------------------------------------------------

    def _split_cross_legs(self, d: Diagram) -> Diagram:
        """Decompose every spider with more than one cross edge into a chain
        of degree-3 legs, ordered by the flow rank of the cross partners so
        the result keeps its causal flow."""
        while True:
            pc = find_path_cover(d)
            rank = pc.flow.rank_map()
            target = None
            for path in pc.paths:
                for p, v in enumerate(path):
                    if d.is_boundary(v) or not d.is_spider(v) or d.degree(v) < 4:
                        continue
                    e_prev = d.edges_between(path[p - 1], v)[0]
                    e_next = d.edges_between(v, path[p + 1])[0]
                    crosses = [e for e in d.incident_edges(v)
                               if e not in (e_prev, e_next)]
                    crosses.sort(key=lambda e: (rank[d.other_end(e, v)], e))
                    target = (v, e_prev, e_next, crosses)
                    break
                if target:
                    break
            if target is None:
                return d
            v, e_prev, e_next, crosses = target
            out = split_cross_leg(d, v, e_prev, e_next, crosses)
            if self._trace is not None:
                self._trace.record_pass(
                    "split_cross_leg",
                    {"v": v, "prev_edge": e_prev, "next_edge": e_next,
                     "order": crosses}, d, out)
            d = out
            self._after_step(d)

    def _split_leg_phases(self, d: Diagram) -> Diagram:
        while True:
            pc = find_path_cover(d)
            target = None
            for path in pc.paths:
                for p, v in enumerate(path):
                    if d.is_boundary(v) or not d.is_spider(v):
                        continue
                    if d.degree(v) >= 3 and d.phase(v) != 0:
                        prev = path[p - 1]
                        edge = d.edges_between(prev, v)[0]
                        target = (v, edge)
                        break
                if target:
                    break
            if target is None:
                return d
            v, edge = target
            out = split_phase(d, v, edge)
            if self._trace is not None:
                self._trace.record_pass("split_phase", {"v": v, "edge": edge}, d, out)
            d = out
            self._after_step(d)

    def _reduce_rules(self, rules: Sequence[Rule], d: Diagram) -> Diagram:
        def step(g: Diagram, tr) -> Optional[Diagram]:
            return rewrite_first(rules, g, tr, accept=has_path_cover)

        res = reduce(step, d, self._trace, self.cfg.step_budget)
        self._budget_ok = self._budget_ok and res.fixpoint
        self._after_step(res.diagram)
        return res.diagram

    def _cleanup_passes(self, d: Diagram) -> Diagram:
        for name, fn in (("remove_self_loops", remove_self_loops),
                         ("hopf_reduce", hopf_reduce),
                         ("remove_identities", remove_identities)):
            out = fn(d)
            d = _record_pass(self._trace, name, {}, d, out)
        self._after_step(d)
        return d

    def _pauli_sum(self, d: Diagram) -> int:
        try:
            return _pauli_positions(d, find_path_cover(d).paths)
        except NotACircuit:
            return -1

    def _pauli_phase(self, d: Diagram) -> Diagram:
        """Targeted commutation; a move is accepted only if it keeps the
        diagram covered and strictly lowers the Pauli-position sum, which is
        what makes the phase terminate (the matcher also returns
        orientation-flipped matches, which would move the target the wrong
        way)."""
        steps = 0
        while steps < self.cfg.step_budget:
            base = self._pauli_sum(d)

            def better(g: Diagram) -> bool:
                s = self._pauli_sum(g)
                return s >= 0 and s < base

            applied = None
            skipped: Set[VertexId] = set()
            while applied is None:
                t = _first_movable_pauli(d, skipped)
                if t is None:
                    return d
                for rule in self._targeted_rules:
                    out = rewrite_targeted(rule, self._anchors[rule.name], d,
                                           lambda g: t, self._trace, accept=better)
                    if out is not None:
                        applied = out
                        break
                if applied is None:
                    skipped.add(t)
            d = applied
            steps += 1
            self._after_step(d)
        self._budget_ok = False
        return d

    def _cnot_phase(self, d: Diagram) -> Diagram:
        rules = self._metric_rules

        def step(g: Diagram, tr) -> Optional[Diagram]:
            return rewrite_metric(rules, g, self._metric, tr)

        res = reduce(step, d, self._trace, self.cfg.step_budget)
        self._budget_ok = self._budget_ok and res.fixpoint
        self._after_step(res.diagram)
        return res.diagram

    # -- final tidy --------------------------------------------------------------

    def _canonicalise(self, d: Diagram) -> Diagram:
        width = d.num_inputs
        if width == 2 and self.cfg.semantic_fallback:
            d = self._cc2_fallback(d)
        else:
            d = canonicalise_blocks(d, find_path_cover(d), self._trace)
            self._after_step(d)
            # compact: refuse run remnants into legs, cancel freed structure
            before = d
            out = simple_form(d)
            d = _record_pass(self._trace, "simple_form", {}, before, out)
            self._after_step(d)
        return d

    def _cc2_fallback(self, d: Diagram) -> Diagram:
        fam = cc2_family()
        matrix = interpret(d)
        member = fam.lookup(matrix)
        if d.iso_equal(member):
            return d
        idx = fam.index(matrix)
        out = _replace_whole(d, member)
        if self._trace is not None:
            self._trace.record_semantic({"op": "cc2", "member": idx}, out)
        self._after_step(out)
        return out

    # -- pipeline ----------------------------------------------------------------

    def run(self, c: Circuit) -> OptimiseResult:
        t0 = time.perf_counter()
        d0 = translate(c)
        self._trace = ProofTrace(d0)
        self._verify_ref = interpret(d0) if (
            self.cfg.verify_each_step and c.width <= 5) else None
        self._budget_ok = True
        input_size = circuit_size(d0)

        d = _record_pass(self._trace, "simple_form", {}, d0, simple_form(d0))
        self._after_step(d)
        simplified_size = circuit_size(d)
        snapshot = d
        snapshot_steps = len(self._trace.steps)

        iters = 0
        reached_fixpoint = False
        while iters < self.cfg.max_global_iters:
            before = d
            # unfuse into gate-shaped form so the fixed-arity rules can fire
            d = self._split_cross_legs(d)
            d = self._split_leg_phases(d)
            d = self._reduce_rules(self.rules.init, d)
            d = self._reduce_rules(self._loop_rules, d)
            d = self._cleanup_passes(d)
            d = self._pauli_phase(d)
            d = self._cnot_phase(d)
            d = self._reduce_rules(self._loop_rules, d)
            # refuse: adjacent same-colour structure merges and freed CNOT
            # pairs cancel through the hopf rule
            d = _record_pass(self._trace, "simple_form", {}, d, simple_form(d))
            self._after_step(d)
            iters += 1
            if d.iso_equal(before):
                reached_fixpoint = True
                break

        d = self._canonicalise(d)
        # phase splitting can strand quarter-turns on wires where nothing
        # re-fuses them; if that left the diagram larger than the simplified
        # input, discard the loop's work and just tidy the simple form
        rolled_back = not (d.num_inputs == 2 and self.cfg.semantic_fallback) \
            and circuit_size(d) > simplified_size
        if rolled_back:
            self._trace.steps = self._trace.steps[:snapshot_steps]
            self._trace.final = snapshot
            d = self._canonicalise(snapshot)
        pc = find_path_cover(d)
        out_circuit = extract_circuit(d, pc)
        wall_ms = (time.perf_counter() - t0) * 1e3
        rewrite_steps = sum(1 for s in self._trace.steps if s.kind == "rewrite")
        stats = {
            "width": c.width,
            "input_size": input_size,
            "simplified_size": simplified_size,
            "output_size": circuit_size(d),
            "rewrite_steps": rewrite_steps,
            "total_steps": len(self._trace.steps),
            "global_iters": iters,
            "reached_fixpoint": reached_fixpoint,
            "budget_exhausted": not self._budget_ok,
            "rolled_back": rolled_back,
            "wall_ms": wall_ms,
        }
        return OptimiseResult(out_circuit, d, self._trace, stats)


def optimise(c: Circuit, cfg: Optional[OptimiserConfig] = None) -> OptimiseResult:
    return Optimiser(cfg).run(c)


# -- canonicalise_blocks and its replay helpers ------------------------------------

_GATE_2X2 = {
    (Z, 0): np.eye(2, dtype=complex),
    (Z, 1): np.diag([1, 1j]).astype(complex),
    (Z, 2): np.diag([1, -1]).astype(complex),
    (Z, 3): np.diag([1, -1j]).astype(complex),
}
for _p in range(4):
    _GATE_2X2[(X, _p)] = H_MAT @ _GATE_2X2[(Z, _p)] @ H_MAT
_GATE_2X2[(H, 0)] = H_MAT


def _run_matrix(d: Diagram, run: Sequence[VertexId]) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for v in run:
        m = _GATE_2X2[(d.kind(v), d.phase(v))] @ m
    return m


def _single_qubit_runs(d: Diagram, pc: PathCover) -> List[Tuple[List[VertexId], EdgeId, EdgeId]]:
    """Maximal segments of degree-2 path vertices, with the edges linking the
    segment to its (path) predecessor and successor."""
    runs = []
    for path in pc.paths:
        current: List[VertexId] = []
        for p, v in enumerate(path):
            interior_deg2 = (not d.is_boundary(v)) and d.degree(v) == 2
            if interior_deg2:
                current.append(v)
            if (not interior_deg2 or p == len(path) - 1) and current:
                first, last = current[0], current[-1]
                prev = path[path.index(first) - 1]
                nxt = path[path.index(last) + 1]
                e_prev = d.edges_between(prev, first)[0]
                e_next = d.edges_between(last, nxt)[0]
                runs.append((list(current), e_prev, e_next))
                current = []
    return runs


def _replace_run(d: Diagram, region: Sequence[VertexId], e_prev: EdgeId,
                 e_next: EdgeId, seq: Sequence[Tuple[str, int]]) -> Diagram:
    b = d.builder()
    a = b._other(e_prev, region[0])
    z = b._other(e_next, region[-1])
    for v in region:
        b.remove_vertex(v)
    prev = a
    for kind, phase in seq:
        nv = b.add_vertex(kind, phase)
        b.add_edge(prev, nv)
        prev = nv
    b.add_edge(prev, z)
    return b.build()


def canonicalise_blocks(d: Diagram, pc: PathCover,
                        trace: Optional[ProofTrace] = None) -> Diagram:
    """Replace every maximal single-qubit run by its CC1 representative.

    Replacements are verified by the 2x2 oracle, not derived from axioms, and
    are recorded as semantic-normalisation steps.
    """
    table = cc1_table()
    for region, e_prev, e_next in _single_qubit_runs(d, pc):
        idx, rep = table.lookup(_run_matrix(d, region))
        rep_seq = [(rep.kind(v), rep.phase(v)) for v in rep.interior()]
        run_seq = [(d.kind(v), d.phase(v)) for v in region]
        if rep_seq == run_seq:
            continue
        out = _replace_run(d, region, e_prev, e_next, rep_seq)
        if trace is not None:
            trace.record_semantic({
                "op": "cc1", "region": list(region), "member": idx,
                "prev_edge": e_prev, "next_edge": e_next,
            }, out)
        d = out
    return d


def _replace_whole(d: Diagram, member: Diagram) -> Diagram:
    b = DiagramBuilder()
    mapping: Dict[VertexId, VertexId] = {}
    for old in list(d.inputs) + list(d.outputs):
        mapping[old] = old
    base = d.max_vertex_id() + 1
    bnd = {}
    for mb, db in zip(list(member.inputs) + list(member.outputs),
                      list(d.inputs) + list(d.outputs)):
        bnd[mb] = db
    for old in list(d.inputs) + list(d.outputs):
        b.add_vertex_with_id(old, B)
    fresh: Dict[VertexId, VertexId] = {}
    nxt = base
    for v in member.interior():
        fresh[v] = nxt
        b.add_vertex_with_id(nxt, member.kind(v), member.phase(v))
        nxt += 1
    for e in member.edges():
        u, v = member.edge_ends(e)
        uu = fresh[u] if u in fresh else bnd[u]
        vv = fresh[v] if v in fresh else bnd[v]
        b.add_edge(uu, vv)
    b.set_boundaries(d.inputs, d.outputs)
    return b.build()


def _replay_cc1(d: Diagram, payload: dict) -> Diagram:
    rep = cc1_table().members[payload["member"]]
    seq = [(rep.kind(v), rep.phase(v)) for v in rep.interior()]
    return _replace_run(d, payload["region"], payload["prev_edge"],
                        payload["next_edge"], seq)


def _replay_cc2(d: Diagram, payload: dict) -> Diagram:
    return _replace_whole(d, cc2_family().members[payload["member"]])


SEMANTIC_REPLAYERS["cc1"] = _replay_cc1
SEMANTIC_REPLAYERS["cc2"] = _replay_cc2


# -- the line-graph Pauli-standard procedure ------------------------------------


def _line_sequence(d: Diagram) -> List[VertexId]:
    if d.num_inputs != 1 or d.num_outputs != 1:
        raise NotALineGraph("need exactly one input and one output")
    seq = []
    prev = d.inputs[0]
    cur_edges = d.incident_edges(prev)
    v = d.other_end(cur_edges[0], prev)
    while not d.is_boundary(v):
        if d.degree(v) != 2:
            raise NotALineGraph(f"vertex {v} has degree {d.degree(v)}")
        seq.append(v)
        nxt = [d.other_end(e, v) for e in d.incident_edges(v)
               if d.other_end(e, v) != prev]
        if len(nxt) != 1:
            raise NotALineGraph(f"vertex {v} does not continue the line")
        prev, v = v, nxt[0]
    if v != d.outputs[0]:
        raise NotALineGraph("line does not terminate at the output")
    if len(seq) + 2 != len(d.vertices()):
        raise NotALineGraph("disconnected vertices present")
    return seq


def line_to_pauli_standard(d: Diagram, trace: Optional[ProofTrace] = None) -> Diagram:
    """Rewrite a line graph into Pauli-standard form: alternating colours,
    no zero phases, and at most two Paulis sitting right after the input.

    Driven by the sum of Pauli positions, which strictly decreases with each
    commutation; fusion and identity removal run in between.
    """
    _line_sequence(d)  # validates the precondition
    d = _record_pass(trace, "h_euler_expand", {}, d, h_euler_expand(d))

    def state(g: Diagram):
        return (g._vertices, sorted(g.edge_ends(e) for e in g.edges()))

    while True:
        before = state(d)
        d = _record_pass(trace, "fuse_spiders", {}, d, fuse_spiders(d))
        d = _record_pass(trace, "remove_identities", {}, d, remove_identities(d))
        seq = _line_sequence(d)
        moved = False
        for p, v in enumerate(seq):
            if d.phase(v) != 2 or p == 0:
                continue
            u = seq[p - 1]
            if d.phase(u) == 2:
                continue
            if d.kind(u) == d.kind(v):
                continue  # fusion clears same-colour pairs on the next sweep
            out = pi_copy(d, v, u)
            if trace is not None:
                trace.record_pass("pi_copy", {"pauli_v": v, "spider_v": u}, d, out)
            d = out
            moved = True
            break
        if not moved and state(d) == before:
            break
    seq = _line_sequence(d)
    assert all(d.kind(a) != d.kind(b) for a, b in zip(seq, seq[1:]))
    assert all(d.phase(v) != 0 for v in seq)
    pauli_at = [p for p, v in enumerate(seq) if d.phase(v) == 2]
    assert len(pauli_at) <= 2 and all(p == i for i, p in enumerate(pauli_at))
    return d
