"""Exact joint types and empirical information functionals.

A joint type is the table of symbol-tuple counts of a family of equal-length
sequences; all probabilities derived from it are exact integer ratios over
the blocklength.  Entropies, mutual informations and divergences are in bits
with the conventions 0*log(0) = 0 and 0*log(0/0) = 0.  These functionals are
the common currency of the whole package: decoders score users with them,
the game solvers optimize their distribution-level counterparts, and the
counting bounds below control every exponential estimate.

One kernel below computes every information value in the package: the
entropy of a count array (a pmf is the case n = 1), the bodies that the
count functions share with their pmf twins, and one clipped divergence
term.  The decoders, the fast false-positive engine and the games use it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence as PySequence

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import BudgetExceededError, ConfigError, int_array, int_at_least, symbols

__all__ = [
    "JointType",
    "InfoQuery",
    "joint_type",
    "entropy",
    "mutual_info",
    "multi_info",
    "log_type_class_size",
    "quantize_pmf",
    "entropy_pmf",
    "multi_info_pmf",
]

_LN2 = math.log(2.0)
# floor of the clipped logs: log2(_TINY) stays finite where a law vanishes
_TINY = 1e-300

# Hard cap on count-table cells; protects joint_type against axis blowup.
MAX_TABLE_CELLS = 20_000_000


@dataclass(frozen=True)
class JointType:
    """Exact joint type: integer counts over a product alphabet.

    ``counts[u1, ..., uk]`` is the number of positions t at which the k
    underlying sequences read (u1, ..., uk).  ``axes`` holds the alphabet
    sizes, ``n`` the blocklength (0 takes the total of the counts), each an
    integer, never coerced.  Instances are immutable.
    """

    axes: tuple[int, ...]
    counts: np.ndarray
    n: int = 0

    def __post_init__(self) -> None:
        counts = int_array(self.counts, "joint type counts")
        axes = tuple(self.axes)
        # an axis of 2.0 or True equals the shape's int, so check each
        if counts.shape != axes or not all(int_at_least(a, 1) for a in axes):
            raise ConfigError(f"count table shape {counts.shape} does not match axes {axes}")
        if not int_at_least(self.n, 0):
            raise ConfigError(f"the blocklength must be an integer >= 0, not {self.n!r}")
        total = int(counts.sum())
        n = self.n or total
        if total != n:
            raise ConfigError(f"counts sum to {total}, expected blocklength {n}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "axes", counts.shape)
        object.__setattr__(self, "n", n)

    def pmf(self) -> np.ndarray:
        return self.counts / self.n

    def to_json(self) -> str:
        """Serialize as axis sizes plus flat row-major counts."""
        return json.dumps(
            {"axes": list(self.axes), "n": self.n, "counts": self.counts.ravel().tolist()}
        )


@dataclass(frozen=True)
class InfoQuery:
    """Addresses axes of a JointType for an information functional.

    ``targets`` is the A-group, ``partners`` the B-group and ``cond`` the
    conditioning group; all are tuples of axis indices and must be disjoint.
    """

    targets: tuple[int, ...]
    partners: tuple[int, ...] = ()
    cond: tuple[int, ...] = ()

    def validate(self, jt: JointType, need_partners: bool) -> None:
        groups = (self.targets, self.partners, self.cond)
        flat = [a for g in groups for a in g]
        _check_axes(tuple(flat), len(jt.axes))
        if len(set(flat)) != len(flat):
            raise ConfigError("InfoQuery groups must be disjoint")
        if not self.targets:
            raise ConfigError("InfoQuery needs at least one target axis")
        if need_partners and not self.partners:
            raise ConfigError("this functional needs a nonempty partner group")
        if not need_partners and self.partners:
            raise ConfigError("entropy query must have an empty partner group")


def _check_axes(axes: tuple[int, ...], rank: int) -> None:
    for a in axes:
        if not 0 <= a < rank:
            raise ConfigError(f"axis {a} out of range for rank-{rank} type")
    if len(set(axes)) != len(axes):
        raise ConfigError("duplicate axis in query")


# ---------------------------------------------------------------------------
# construction


def joint_type(arrays: PySequence, sizes: PySequence[int]) -> JointType:
    """Joint type of k aligned symbol arrays, array i over the alphabet
    0..sizes[i]-1.

    Each array is read by `errors.symbols` against its alphabet size, and
    all must share one nonzero length.  The count table has one axis per
    array, and at most ``MAX_TABLE_CELLS`` cells.
    """
    sizes = tuple(sizes)
    if len(arrays) == 0:
        raise ConfigError("joint_type needs at least one sequence")
    if len(arrays) != len(sizes):
        raise ConfigError(f"joint_type got {len(arrays)} sequences and {len(sizes)} alphabet sizes")
    cols = [symbols(a, f"sequence {i}", size) for i, (a, size) in enumerate(zip(arrays, sizes))]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ConfigError("sequences have mismatched lengths")
    if n == 0:
        raise ConfigError("cannot take the type of empty sequences")
    cells = math.prod(sizes)
    if cells > MAX_TABLE_CELLS:
        raise BudgetExceededError(f"joint type would need {cells} cells")
    return JointType(sizes, count_table(cols, sizes), n)


def count_table(arrays: PySequence[np.ndarray], sizes: tuple[int, ...]) -> np.ndarray:
    """Raw integer count tensor for aligned int arrays (internal fast path)."""
    flat = np.ravel_multi_index(tuple(np.asarray(a) for a in arrays), sizes)
    counts = np.bincount(flat, minlength=int(np.prod(sizes)))
    return counts.reshape(sizes).astype(np.int64)


# ---------------------------------------------------------------------------
# the information kernel


def _count_entropy(counts, n, axis=None, xlogx=None):
    """H in bits of counts summing to n, exact 0log0 handling; a pmf is the
    case n = 1.  With ``axis`` set, one entropy per slice along that axis.
    ``xlogx``, the table ``_xlogx_table(n)``, looks the c ln c terms of
    integer counts up instead of computing them: same values, less time."""
    c = np.ravel(counts) if axis is None else counts
    s = (xlogy(c, c) if xlogx is None else xlogx[c]).sum(axis=axis)
    return math.log2(n) - (float(s) if axis is None else s) / (n * _LN2)


def _xlogx_table(n: int) -> np.ndarray:
    """c ln c for the integer counts c = 0..n."""
    c = np.arange(n + 1)
    return xlogy(c, c)


def _marginal_entropy(table: np.ndarray, n, axes) -> float:
    """H in bits of the marginal of ``table`` (summing to n) over ``axes``."""
    if not axes:
        return 0.0
    drop = tuple(i for i in range(table.ndim) if i not in axes)
    return _count_entropy(table.sum(axis=drop) if drop else table, n)


def _cond_entropies(table: np.ndarray, n, groups, cond) -> list[float]:
    """[H(g | cond) for g in groups] in bits, each clamped at zero; H(cond)
    is taken once."""
    hc = _marginal_entropy(table, n, cond)
    return [
        max(_marginal_entropy(table, n, tuple(g) + tuple(cond)) - hc, 0.0)
        for g in groups
    ]


def _group_info(table: np.ndarray, n, parts, cond) -> float:
    """sum_i H(U_i | cond) - H(U_1...U_k | cond) in bits, each conditional
    entropy and the total clamped at zero."""
    whole = [a for p in parts for a in p]
    h_all, *h_parts = _cond_entropies(table, n, [whole] + list(parts), cond)
    total = -h_all
    for h in h_parts:
        total += h
    return max(total, 0.0)


def _safe_log2(a):
    """log2 with the argument clipped at _TINY: finite where a vanishes."""
    return np.log2(np.maximum(a, _TINY))


def _divergence_terms(p, q):
    """Cellwise p log2(p / q) in bits, 0 where p = 0; the clipped logs keep
    it finite off the support of q."""
    return np.where(p > 0, p * (_safe_log2(p) - _safe_log2(q)), 0.0)


# ---------------------------------------------------------------------------
# entropy-family functionals on count tables


def entropy(jt: JointType, q: InfoQuery) -> float:
    """Empirical conditional entropy H(targets | cond) in bits."""
    q.validate(jt, need_partners=False)
    return _cond_entropies(jt.counts, jt.n, [q.targets], q.cond)[0]


def mutual_info(jt: JointType, q: InfoQuery) -> float:
    """Empirical conditional mutual information I(targets; partners | cond).

    Computed as H(A|C) + H(B|C) - H(AB|C), which makes the symmetry
    I(A;B|C) = I(B;A|C) exact in floating point.
    """
    q.validate(jt, need_partners=True)
    a, b, c = q.targets, q.partners, q.cond
    hac = _marginal_entropy(jt.counts, jt.n, a + c)
    hbc = _marginal_entropy(jt.counts, jt.n, b + c)
    habc = _marginal_entropy(jt.counts, jt.n, a + b + c)
    hc = _marginal_entropy(jt.counts, jt.n, c)
    return max(hac + hbc - habc - hc, 0.0)


def multi_info(
    jt: JointType,
    parts: PySequence[tuple[int, ...]],
    cond: tuple[int, ...] = (),
) -> float:
    """Empirical multivariate mutual information of axis groups, in bits.

    For groups U_1, ..., U_k this is sum_i H(U_i|cond) - H(U_1...U_k|cond).
    With two groups it coincides with mutual_info; it is symmetric under any
    reordering of the groups and nonnegative.
    """
    parts = [tuple(p) for p in parts]
    if len(parts) < 2:
        raise ConfigError("multi_info needs at least two groups")
    _check_axes(tuple(a for p in parts for a in p) + tuple(cond), len(jt.axes))
    return _group_info(jt.counts, jt.n, parts, tuple(cond))


# ---------------------------------------------------------------------------
# pmf twins (used by the game solvers)


def entropy_pmf(p: np.ndarray, axes: tuple[int, ...], cond: tuple[int, ...] = ()) -> float:
    """H(axes | cond) in bits for a joint pmf array (distribution-level twin
    of :func:`entropy`, used by the game solvers)."""
    return _cond_entropies(np.asarray(p, dtype=float), 1, [axes], cond)[0]


def multi_info_pmf(
    p: np.ndarray,
    parts: PySequence[tuple[int, ...]],
    cond: tuple[int, ...] = (),
) -> float:
    """Distribution-level multivariate mutual information in bits."""
    return _group_info(np.asarray(p, dtype=float), 1, [tuple(g) for g in parts], cond)


# ---------------------------------------------------------------------------
# type-class counting


def log_type_class_size(
    jt: JointType, cond: tuple[int, ...] = ()
) -> tuple[float, float, float]:
    """log2 of the (conditional) type-class size, with entropy sandwich bounds.

    Returns ``(exact, lower, upper)``.  With no conditioning, exact is
    log2 of the multinomial coefficient n! / prod(counts!) and the bounds are
      n*H - |U| * log2(n+1)  <=  exact  <=  n*H
    where H is the empirical entropy of the type and |U| the product-alphabet
    size.  With conditioning axes the class fixes the symbols on those axes
    and counts arrangements within each conditioning cell; the bounds use the
    conditional empirical entropy and the product of all axis sizes.
    """
    _check_axes(tuple(cond), len(jt.axes))
    n = jt.n
    cells = int(np.prod(jt.axes))
    if not cond:
        c = jt.counts.ravel()
        exact = (gammaln(n + 1) - gammaln(c + 1).sum()) / _LN2
        h = _count_entropy(c, n)
    else:
        free = tuple(i for i in range(len(jt.axes)) if i not in cond)
        if not free:
            raise ConfigError("conditioning on every axis leaves nothing to count")
        # move cond axes first, flatten: rows are conditioning cells
        perm = tuple(cond) + free
        table = np.transpose(jt.counts, perm).reshape(
            int(np.prod([jt.axes[a] for a in cond])), -1
        )
        row_totals = table.sum(axis=1)
        exact = float(
            (gammaln(row_totals + 1).sum() - gammaln(table + 1).sum()) / _LN2
        )
        h = entropy(jt, InfoQuery(targets=free, cond=tuple(cond)))
    lower = n * h - cells * math.log2(n + 1)
    upper = n * h
    return float(exact), float(lower), float(upper)


def quantize_pmf(p: np.ndarray, n: int) -> JointType:
    """Best integer type with denominator n for a target pmf.

    Largest-remainder rounding: take floors of n*p, then hand the leftover
    counts to the cells with the largest fractional parts (ties resolved by
    lowest flat index, so the output is deterministic).  The result minimizes
    the L1 distance to p among all types with denominator n.
    """
    p = np.asarray(p, dtype=float)
    if not int_at_least(n, 1):
        raise ConfigError(f"the quantization denominator must be an integer >= 1, not {n!r}")
    # phrased so that a NaN fails
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
        raise ConfigError(f"quantize_pmf needs a normalized target pmf, not {p.tolist()}")
    scaled = p.ravel() * n
    base = np.floor(scaled).astype(np.int64)
    short = n - int(base.sum())
    if short:
        rem = scaled - base
        order = np.argsort(-rem, kind="stable")
        base[order[:short]] += 1
    return JointType(tuple(p.shape), base.reshape(p.shape), n)
