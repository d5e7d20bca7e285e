"""Exception types shared across the package, and its input policy.

The CLI maps these onto exit codes: BudgetExceededError -> 3, ConfigError
and every other FptraceError -> 2, each with a one-line message.  Anything
else is an ordinary bug and propagates as exit 1.

Data from outside the program (configs, codebook files, pirated copies,
serialized channels and types) is decoded here and refused, never
coerced.  Every reader is one constructor call inside `reading`, which
turns a missing file or key, or a value of the wrong kind or shape, into
a one-line ConfigError; `read_json` loads a file under it.  `int_at_least`
is the one integer check behind the ConfigErrors for counts, indices and
keys, and `int_array` its array form.
"""

import json
from contextlib import contextmanager
from numbers import Integral

import numpy as np


def int_at_least(value, low) -> bool:
    """True for an integer >= low, numpy integers included.

    A bool is refused: it would pass for 0 or 1 and alias that index or
    stream.  numpy's bool is no Integral, so it is refused as well.
    """
    # a plain int, the usual case, skips the slower abstract-class check
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        return False
    return value >= low


def int_array(values, what: str, ndim: int | None = None) -> np.ndarray:
    """``values`` as int64, refused unless integral and nonnegative (and
    ``ndim``-D when given).  Integral floats pass; a bool, a string or a
    fraction does not."""
    with reading(what):
        raw = np.asarray(values)
    out = None
    if ndim in (None, raw.ndim) and raw.dtype.kind in "iuf" and np.all(np.isfinite(raw)):
        with np.errstate(invalid="ignore"):  # a float past int64 fails below
            out = raw.astype(np.int64)
    if out is None or np.any(out != raw) or np.any(out < 0):
        shape = "" if ndim is None else f"{ndim}-D "
        raise ConfigError(f"{what} must be {shape}nonnegative integers")
    return out


@contextmanager
def reading(what: str):
    """Decode outside data: an unreadable file, a missing key, or a value of
    the wrong kind or shape becomes a one-line ConfigError naming ``what``.
    Package errors pass through unchanged."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except KeyError as exc:
        raise ConfigError(f"{what}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: {' '.join(str(exc).split())}") from None


def read_json(path, what: str):
    """The JSON document at ``path``, read under ``reading(what)``."""
    with reading(what), open(path) as fh:
        return json.load(fh)


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
