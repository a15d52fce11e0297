"""Clifford circuit optimisation by ZX-diagram rewriting.

The package translates gate-level Clifford circuits into stabilizer ZX
diagrams, rewrites them with an oracle-audited rule library under metric-
and target-driven strategies, extracts circuits back out via causal flow,
and emits replayable proof traces checked against an exact matrix oracle.
"""

from .circuit import (Circuit, Gate, circuit, circuit_size, gate,
                      gate_matrix_product, parse_circuit,
                      random_clifford_circuit, serialize_circuit, translate)
from .diagram import Diagram, DiagramBuilder
from .errors import (CompositionArityError, CrossEdgeColourError, NotACircuit,
                     NotAClifford, ReplayDivergence,
                     SemanticsSizeError, ShapeError, StaleMatchError,
                     TargetKindError, UnsoundRuleError, ZXError)
from .flow import (PathCover, extract_circuit, find_path_cover, has_path_cover,
                   is_circuit_like)
from .normal_forms import canonical_key, cc1_table, cc2_contains, cc2_family
from .optimiser import (CommutationMetric, OptimiserConfig, OptimiseResult,
                        Optimiser, PauliMetric, canonicalise_blocks, optimise)
from .passes import (fuse_spiders, h_euler_expand, hopf_reduce, is_simple,
                     remove_identities, remove_self_loops, simple_form)
from .rewrite import (Match, Rule, apply_match, find_matches, reduce,
                      rewrite_first, rewrite_metric)
from .ruleset import RuleSet, load_ruleset, shipped_ruleset_dir
from .semantics import (check_translation_soundness, interpret,
                        scalar_free_equal)
from .trace import ProofStep, ProofTrace, replay

__version__ = "0.1.0"
