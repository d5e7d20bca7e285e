"""Exception types shared across the package.

The CLI maps these onto exit codes: BudgetExceededError -> 3, ConfigError
and every other FptraceError -> 2, each with a one-line message.  Anything
else is an ordinary bug and propagates as exit 1.  `int_at_least` is the
one integer check behind the ConfigErrors for counts, indices and keys.
"""

from numbers import Integral


def int_at_least(value, low) -> bool:
    """True for an integer >= low, numpy integers included.

    A bool is refused: it would pass for 0 or 1 and alias that index or
    stream.  numpy's bool is no Integral, so it is refused as well.
    """
    # a plain int, the usual case, skips the slower abstract-class check
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        return False
    return value >= low


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
