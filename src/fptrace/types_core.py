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
from dataclasses import dataclass, field
from typing import Iterable, Sequence as PySequence

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import BudgetExceededError, ConfigError

__all__ = [
    "Alphabet",
    "Sequence",
    "JointType",
    "InfoQuery",
    "joint_type",
    "entropy",
    "mutual_info",
    "multi_info",
    "kl_divergence",
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
class Alphabet:
    """Finite alphabet {0, 1, ..., size-1}."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ConfigError(f"alphabet size must be >= 1, got {self.size}")

    def __contains__(self, symbol: int) -> bool:
        return 0 <= symbol < self.size

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class Sequence:
    """Immutable symbol string over a fixed alphabet."""

    symbols: np.ndarray
    alphabet: Alphabet

    def __post_init__(self) -> None:
        arr = np.asarray(self.symbols, dtype=np.int64)
        if arr.ndim != 1:
            raise ConfigError("sequence symbols must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= self.alphabet.size):
            raise ConfigError("sequence contains symbols outside its alphabet")
        arr.setflags(write=False)
        object.__setattr__(self, "symbols", arr)

    @classmethod
    def of(cls, symbols: Iterable[int], size: int) -> "Sequence":
        return cls(np.asarray(list(symbols), dtype=np.int64), Alphabet(size))

    def __len__(self) -> int:
        return self.symbols.size


@dataclass(frozen=True)
class JointType:
    """Exact joint type: integer counts over a product alphabet.

    ``counts[u1, ..., uk]`` is the number of positions t at which the k
    underlying sequences read (u1, ..., uk).  ``axes`` holds the alphabet
    sizes, ``n`` the blocklength.  Instances are immutable; marginalization
    returns a new JointType over the surviving axes.
    """

    axes: tuple[int, ...]
    counts: np.ndarray
    n: int = field(default=0)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != tuple(self.axes):
            raise ConfigError(
                f"count table shape {counts.shape} does not match axes {self.axes}"
            )
        if counts.size and counts.min() < 0:
            raise ConfigError("negative count in joint type")
        total = int(counts.sum())
        n = self.n if self.n else total
        if total != n:
            raise ConfigError(f"counts sum to {total}, expected blocklength {n}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "axes", tuple(int(a) for a in self.axes))
        object.__setattr__(self, "n", n)

    # -- basic queries ----------------------------------------------------

    def prob(self, *idx: int) -> float:
        """Exact cell probability count/n."""
        return float(self.counts[idx]) / self.n

    def pmf(self) -> np.ndarray:
        return self.counts / self.n

    def marginal(self, keep: PySequence[int]) -> "JointType":
        """Marginal type over the given axes, in the given order."""
        keep = tuple(keep)
        _check_axes(keep, len(self.axes))
        drop = tuple(i for i in range(len(self.axes)) if i not in keep)
        reduced = self.counts.sum(axis=drop) if drop else self.counts
        # summation leaves survivors in ascending order; restore request order
        survivors = sorted(keep)
        perm = [survivors.index(a) for a in keep]
        reduced = np.transpose(reduced, perm)
        return JointType(tuple(self.axes[a] for a in keep), reduced.copy(), self.n)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Serialize as axis sizes plus flat row-major counts."""
        payload = {
            "axes": list(self.axes),
            "n": self.n,
            "counts": [int(c) for c in self.counts.ravel(order="C")],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "JointType":
        payload = json.loads(text)
        axes = tuple(int(a) for a in payload["axes"])
        flat = np.asarray(payload["counts"], dtype=np.int64)
        if flat.size != int(np.prod(axes)):
            raise ConfigError("serialized count length does not match axes")
        return cls(axes, flat.reshape(axes), int(payload["n"]))


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


def joint_type(seqs: PySequence[Sequence]) -> JointType:
    """Joint type of k aligned sequences.

    All sequences must share one blocklength.  The count table has one axis
    per sequence, sized by that sequence's alphabet.
    """
    if not seqs:
        raise ConfigError("joint_type needs at least one sequence")
    n = len(seqs[0])
    sizes = tuple(s.alphabet.size for s in seqs)
    for s in seqs:
        if len(s) != n:
            raise ConfigError("sequences have mismatched lengths")
    if n == 0:
        raise ConfigError("cannot take the type of empty sequences")
    cells = int(np.prod(sizes))
    if cells > MAX_TABLE_CELLS:
        raise BudgetExceededError(f"joint type would need {cells} cells")
    counts = count_table([s.symbols for s in seqs], sizes)
    return JointType(sizes, counts, n)


def count_table(arrays: PySequence[np.ndarray], sizes: tuple[int, ...]) -> np.ndarray:
    """Raw integer count tensor for aligned int arrays (internal fast path)."""
    flat = np.ravel_multi_index(tuple(np.asarray(a) for a in arrays), sizes)
    counts = np.bincount(flat, minlength=int(np.prod(sizes)))
    return counts.reshape(sizes).astype(np.int64)


# ---------------------------------------------------------------------------
# the information kernel


def _count_entropy(counts, n, axis=None):
    """H in bits of counts summing to n, exact 0log0 handling; a pmf is the
    case n = 1.  With ``axis`` set, one entropy per slice along that axis."""
    c = np.ravel(counts) if axis is None else counts
    s = xlogy(c, c).sum(axis=axis)
    return math.log2(n) - (float(s) if axis is None else s) / (n * _LN2)


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
    it finite off the support of q (``kl_divergence`` checks that itself)."""
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
# pmf twins (used by the game solvers) and divergence


def _as_pmf(p) -> np.ndarray:
    if isinstance(p, JointType):
        return p.pmf()
    return np.asarray(p, dtype=float)


def kl_divergence(p, q, cond: np.ndarray | None = None) -> float:
    """KL divergence D(p || q) in bits; +inf when support(p) escapes support(q).

    Without ``cond``, p and q are joint pmfs of identical shape.  With
    ``cond``, p and q are conditional laws whose leading axes match
    ``cond.shape`` and the result is the cond-weighted average of the
    per-cell divergences, D(p || q | cond).  JointType inputs are read as
    their exact pmfs.
    """
    p = _as_pmf(p)
    q = _as_pmf(q)
    if p.shape != q.shape:
        raise ConfigError(f"shape mismatch {p.shape} vs {q.shape}")
    if cond is None:
        pc = p.reshape(1, -1)
        qc = q.reshape(1, -1)
        w = np.ones(1)
    else:
        w = np.asarray(cond, dtype=float).ravel()
        lead = np.asarray(cond).shape
        if p.shape[: len(lead)] != lead:
            raise ConfigError("cond shape must prefix the law shape")
        pc = p.reshape(len(w), -1)
        qc = q.reshape(len(w), -1)
    mask = w > 0
    pm = pc[mask]
    qm = qc[mask]
    if np.any((pm > 0) & (qm <= 0)):
        return math.inf
    return float(w[mask] @ _divergence_terms(pm, qm).sum(axis=1))


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
    if n < 1:
        raise ConfigError("quantization denominator must be >= 1")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ConfigError("quantize_pmf needs a normalized pmf")
    scaled = p.ravel() * n
    base = np.floor(scaled).astype(np.int64)
    short = n - int(base.sum())
    if short:
        rem = scaled - base
        order = np.argsort(-rem, kind="stable")
        base[order[:short]] += 1
    return JointType(tuple(p.shape), base.reshape(p.shape), n)
