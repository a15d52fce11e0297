"""Exception types shared across the package."""


class ZXError(Exception):
    """Base class for all errors raised by this package."""


class CompositionArityError(ZXError):
    """Sequential composition attempted between mismatched boundaries."""


class DiagramInvariantError(ZXError):
    """A diagram violates a structural invariant (degrees, boundaries...)."""


class ShapeError(ZXError):
    """Matrix dimensions do not agree."""


class SemanticsSizeError(ZXError):
    """Diagram or circuit exceeds the configured qubit bound for the dense oracle."""


class CircuitSyntaxError(ZXError):
    """Malformed circuit text; carries a line number when available."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class RuleFormatError(ZXError):
    """A rule file is malformed or violates the rule invariants."""


class UnsoundRuleError(ZXError):
    """A loaded rule fails the semantic soundness audit."""


class StaleMatchError(ZXError):
    """A recorded step is not one its own code makes on the diagram it is
    applied to: a match that is not an embedding there, or a semantic step
    whose region or member is not the one derived there."""


class ReplayDivergence(ZXError):
    """A proof trace could not be replayed to its recorded final diagram."""


class TargetKindError(ZXError):
    """A pass was pointed at a vertex of the wrong kind."""


class NotACircuit(ZXError):
    """No path cover satisfying the causal-flow conditions exists.

    ``stranded`` holds, in id order, the vertices the flow sweep of
    ``find_path_cover`` never reached (interior vertices and inputs).  It is
    non-empty whenever the sweep ran, and empty when the diagram was rejected
    before it for having unequal input and output counts.
    """

    def __init__(self, message: str, stranded=None):
        self.stranded = tuple(stranded) if stranded else ()
        super().__init__(message)


class NotALineGraph(ZXError):
    """Operation requires a one-input one-output chain of degree-2 vertices."""


class CrossEdgeColourError(ZXError):
    """A cross edge joins two path vertices of the same colour."""


class NotAClifford(ZXError):
    """Matrix does not match any member of the relevant normal-form family."""
