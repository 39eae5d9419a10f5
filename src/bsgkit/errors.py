"""Exception hierarchy for bsgkit.

Every library error derives from BsgkitError so the CLI can map failures to
exit code 1 uniformly. Exceptions carry enough context to be actionable in
messages; none of them is used for control flow inside the library.
"""

from __future__ import annotations


class BsgkitError(Exception):
    """Base class for all bsgkit errors."""


class InvalidModulusError(BsgkitError):
    """A group modulus was 1 or negative."""

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        super().__init__(f"modulus at coordinate {index} must be 0 or >= 2, got {value}")


class ShapeMismatchError(BsgkitError):
    """Element coordinate count does not match the group spec."""


class SpecMismatchError(BsgkitError):
    """Two sets from different groups were combined."""


class EmptySetError(BsgkitError):
    """Operation requires a non-empty set."""


class UnsupportedGroupError(BsgkitError):
    """Convolution support over free coordinates exceeds the configured cell cap."""


class IndexOutOfRangeError(BsgkitError):
    """A vertex or part index is out of range."""


class ArityMismatchError(BsgkitError):
    """Edge arity or part count does not match the hypergraph."""


class EmptyPartError(BsgkitError):
    """Operation requires all parts to be non-empty."""


class NoEdgesError(BsgkitError):
    """Operation requires at least one edge."""


class SameVertexError(BsgkitError):
    """Pair operations require two distinct vertices."""


class BudgetExceededError(BsgkitError):
    """Enumeration would exceed the configured candidate budget."""

    def __init__(self, estimate: int, budget: int):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"estimated {estimate} candidates exceeds budget {budget}")


class DensityTooLowError(BsgkitError):
    """Edge count is below the density floor required by the pipeline."""


class NoWitnessError(BsgkitError):
    """No pivot produced a verified neighborhood; the density precondition was
    violated or the density parameter was understated."""


class UnequalPartsError(BsgkitError):
    """Dense extraction requires all parts to have equal size."""


class HypothesisViolatedError(BsgkitError):
    """The instance violates a stated sumset or density hypothesis."""

    def __init__(self, which: str, detail: str = ""):
        self.which = which
        msg = f"hypothesis violated: {which}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TooLargeError(BsgkitError):
    """A brute-force search space, an index-tuple product or the pair count of
    a sumset exceeds its hard guard."""


class ModeMismatchError(BsgkitError):
    """Result was produced by a different pipeline mode."""


class ConfigInvalidError(BsgkitError):
    """Invalid generator or CLI configuration."""


class EpsilonTooLargeError(ConfigInvalidError):
    """The dense modes require the slack parameter below 1/(10r)."""
