"""Exception types shared across the package.

The CLI maps these onto exit codes: BudgetExceededError -> 3, ConfigError
and every other FptraceError -> 2, each with a one-line message.  Anything
else is an ordinary bug and propagates as exit 1.
"""


class FptraceError(Exception):
    """Base class for package-specific failures."""


class ConfigError(FptraceError):
    """Malformed or inconsistent configuration / input artifact."""


class BudgetExceededError(FptraceError):
    """A combinatorial search or table allocation would exceed its cap."""


class InfeasibleError(FptraceError):
    """A requested construction cannot satisfy its own constraints.

    Raised e.g. when a target conditional composition violates the embedding
    distortion budget, so no codebook row could ever be admissible.
    """


class StaleOutcomeError(FptraceError):
    """A decode outcome does not match a recomputation from its inputs."""


class InapplicableCheckError(FptraceError):
    """A verification was requested outside its hypotheses.

    The significance checks for the joint decoder are only meaningful for
    exhaustive searches whose optimum was not clipped by the coalition-size
    cap; calling them on a greedy or clipped outcome raises this.
    """
