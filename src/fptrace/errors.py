"""Exception types shared across the package, and its input policy.

The CLI maps these onto exit codes: BudgetExceededError -> 3, ConfigError
and every other FptraceError -> 2, each with a one-line message.  Anything
else is an ordinary bug and propagates as exit 1.

Data from outside the program (configs, codebook files, pirated copies,
serialized channels) is decoded here and refused, never coerced.  Every
reader is one constructor call inside `reading`, which
turns a missing file or key, or a value of the wrong kind or shape, into
a one-line ConfigError; `read_json` loads a file under it.  The checks:
`int_at_least` for an integer, with `int_array`, `index_set` and
`symbols`, the one check of a symbol sequence over a known alphabet;
`real_at_least` and `float_array`, their twins for a finite real (never a
bool or a string); and `pmf_rows`, the one probability check: rows sum
to 1 within 1e-9, entries down to -1e-12 are clipped to 0, none rescaled.

The library's solvers refuse a bad setting (a restart count, a seed, a
tolerance, a worker count, an input law of another game) themselves,
through these checks and before any work, so the CLI passes config values
through unread.
"""

import json
import math
from contextlib import contextmanager
from numbers import Integral, Real

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
    """``values`` as a new int64 array, refused unless integral and
    nonnegative (and ``ndim``-D when given).  Integral floats pass; a bool,
    a string or a fraction does not."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        # an integer array, the usual case, takes 2 µs: a uint64 past int64
        # wraps below 0 and is refused there
        out = values.astype(np.int64)
        ok = ndim in (None, out.ndim) and out.min(initial=0) >= 0
    elif type(values) is list and set(map(type, values)) <= {int}:
        # a flat list of Python ints, as JSON reads one, holds no bool or
        # fraction to look for: 20 µs against 50 µs for 256 of them
        try:
            out = np.array(values, dtype=np.int64)
            ok = ndim in (None, 1) and out.min(initial=0) >= 0
        except OverflowError:  # past int64
            ok = False
    else:
        with reading(what):
            raw = np.asarray(values)
        ok = (ndim in (None, raw.ndim) and raw.dtype.kind in "iuf" and np.all(np.isfinite(raw))
              and not _hides_bool(values))
        if ok:
            with np.errstate(invalid="ignore"):  # a float past int64 fails below
                out = raw.astype(np.int64)
            ok = np.all(out == raw) and out.min(initial=0) >= 0
    if not ok:
        shape = "" if ndim is None else f"{ndim}-D "
        raise ConfigError(f"{what} must be {shape}nonnegative integers")
    return out


def symbols(values, what: str, size: int | None = None, ndim: int = 1) -> np.ndarray:
    """``values`` as `int_array` reads them, ``ndim``-D, and refused unless
    every symbol is below ``size`` when that alphabet size is given (an
    integer >= 1)."""
    if size is not None and not int_at_least(size, 1):
        raise ConfigError(f"the alphabet of {what} must be an integer >= 1, not {size!r}")
    out = int_array(values, what, ndim)
    if size is not None and out.max(initial=-1) >= size:
        raise ConfigError(f"{what} must be symbols in 0..{size - 1}")
    return out


def _hides_bool(values) -> bool:
    """True when ``values``, read by numpy as numbers, held a bool that it
    read as 1 or 0.  Only a sequence mixes bools into numbers, so an array
    is not scanned."""
    if isinstance(values, np.ndarray):
        return False
    return not {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat))


def index_set(values, size: int, what: str) -> tuple:
    """``values`` as a sorted tuple of distinct ints, each refused unless an
    integer in 0..size-1 (a bool or a fraction is not)."""
    with reading(what):
        values = tuple(values)
    if not all(int_at_least(i, 0) and i < size for i in values):
        raise ConfigError(f"{what} must hold integer indices in 0..{size - 1}: {values!r}")
    return tuple(sorted({int(i) for i in values}))


def real_at_least(value, low) -> bool:
    """True for a finite real >= low, numpy numbers included.  A bool is
    refused, as by `int_at_least`, and so is a string."""
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        return False
    # an int is finite however large, and too large for math.isfinite
    return value >= low and (isinstance(value, Integral) or math.isfinite(value))


def float_array(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as a read-only float64 array, refused unless every entry is
    a finite number (a string is not, nor is a bool).  With
    ``shape`` it may be given nested or flat, and comes back in that shape."""
    raw = values
    if not isinstance(raw, np.ndarray):  # the solvers' arrays skip `reading`, 2 µs a call
        with reading(what):
            raw = np.asarray(values)
    if raw.dtype.kind not in "iuf" or not np.isfinite(raw).all() or _hides_bool(values):
        raise ConfigError(f"{what} must be finite numbers")
    if shape not in (None, raw.shape) and (raw.ndim != 1 or raw.size != math.prod(shape)):
        raise ConfigError(f"{what} must have shape {shape}")
    out = raw.astype(float).reshape(shape or raw.shape)  # a copy: the caller's stays writable
    out.setflags(write=False)
    return out


def pmf_rows(values, what: str, shape: tuple | None = None) -> np.ndarray:
    """``values`` as `float_array` reads them, refused unless each row along
    the last axis is a pmf: it sums to 1 within 1e-9 and has no entry
    below -1e-12.  Entries in [-1e-12, 0) are clipped to 0; no row is
    rescaled."""
    arr = float_array(values, what, shape)
    low = arr.min(initial=0.0)
    if arr.ndim == 0 or low < -1e-12 or np.abs(arr.sum(axis=-1) - 1.0).max(initial=0) > 1e-9:
        raise ConfigError(f"{what} rows must be pmfs")
    if low < 0:
        arr = np.clip(arr, 0.0, None)
        arr.setflags(write=False)
    return arr


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
