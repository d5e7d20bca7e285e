"""Collusion attacks and the constraint classes they must respect.

A coalition of K users holds rows x_1..x_K and emits one pirated sequence y.
Attack channels act per position (memoryless); the classes of interest
are:

* marking: wherever all colluders agree, the output must copy them;
* interleaving: each position copies a uniformly chosen colluder;
* bounded distortion: the output stays close (under a letter cost d2) to a
  symmetric estimate f(x_1..x_K) of the original mark;
* fairness: the channel's law of y given the colluder symbols is invariant
  under renaming the colluders.

Every attack returns the pirated copy together with a feasibility report
that is recomputable from (x_K, y) alone.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceededError, ConfigError, float_array, int_array, int_at_least,
                     pmf_rows, real_at_least, reading, symbols)
from .types_core import MAX_TABLE_CELLS, JointType, count_table

__all__ = [
    "ChannelSpec",
    "AttackResult",
    "interleave",
    "apply_memoryless",
    "check_marking",
    "check_distortion_attack",
    "feasibility_report",
]

CHANNEL_CLASSES = ("explicit", "boneh_shaw", "interleaving", "distortion")


@dataclass(frozen=True)
class ChannelSpec:
    """Memoryless coalition channel p(y | x_1..x_K).

    ``table`` has shape (x_size,)*k + (y_size,); the trailing axis is a pmf
    for every colluder-symbol cell.  ``class_tag`` selects the structural
    validation run at construction: "boneh_shaw" checks the marking
    diagonal, "interleaving" checks the exact uniform-copy table,
    "distortion" additionally carries the estimator/cost data needed to
    audit realizations.
    """

    k: int
    x_size: int
    y_size: int
    table: np.ndarray
    class_tag: str = "explicit"
    estimator: np.ndarray | None = None
    d2: np.ndarray | None = None
    distortion_cap: float | None = None

    def __post_init__(self) -> None:
        if self.class_tag not in CHANNEL_CLASSES:
            raise ConfigError(f"unknown channel class {self.class_tag!r}")
        if not all(int_at_least(v, 1) for v in (self.k, self.x_size, self.y_size)):
            raise ConfigError("channel dimensions must be positive integers")
        table = pmf_rows(self.table, "channel table")
        want = (self.x_size,) * self.k + (self.y_size,)
        if table.shape != want:
            raise ConfigError(f"channel table shape {table.shape}, expected {want}")
        object.__setattr__(self, "table", table)
        rule = (self.estimator, self.d2, self.distortion_cap)
        if self.class_tag != "distortion" and any(v is not None for v in rule):
            raise ConfigError("only a distortion channel carries an estimator, d2 and a cap")

        if self.class_tag == "boneh_shaw":
            if self.y_size < self.x_size:
                raise ConfigError("marking channels need inputs embedded in outputs")
            u = _unmarked_symbol(table, 1e-12)
            if u is not None:
                raise ConfigError(f"marking violated: all-{u} cell does not copy symbol {u}")
        elif self.class_tag == "interleaving":
            if self.y_size != self.x_size:
                raise ConfigError("uniform-copy channels need matching alphabets")
            ref = _interleaving_table(self.k, self.x_size)
            if np.max(np.abs(table - ref)) > 1e-12:
                raise ConfigError("table is not the uniform-copy channel")
        elif self.class_tag == "distortion":
            est, d2, _ = _distortion_rule(*rule)
            if est.shape != (self.x_size,) * self.k:
                raise ConfigError("estimator must map every colluder cell")
            _distortion_costs(est, d2, self.y_size)  # d2 must cover the outputs
            object.__setattr__(self, "estimator", est)
            object.__setattr__(self, "d2", d2)

    def to_json(self) -> str:
        payload = {
            "k": self.k,
            "x_size": self.x_size,
            "y_size": self.y_size,
            "class": self.class_tag,
            "shape": list(self.table.shape),
            "table": self.table.ravel(order="C").tolist(),
        }
        if self.class_tag == "distortion":
            payload["estimator"] = self.estimator.ravel(order="C").tolist()
            payload["d2_shape"] = list(self.d2.shape)
            payload["d2"] = self.d2.ravel(order="C").tolist()
            payload["distortion_cap"] = self.distortion_cap
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ChannelSpec":
        with reading("channel"):
            d = json.loads(text)
            shape, kw = d["shape"], {}
            if d["class"] == "distortion":
                kw = dict(
                    estimator=np.reshape(int_array(d["estimator"], "estimator"), shape[:-1]),
                    d2=float_array(d["d2"], "d2", tuple(d["d2_shape"])),
                    distortion_cap=d["distortion_cap"],
                )
            table = float_array(d["table"], "channel table", tuple(shape))
            return cls(d["k"], d["x_size"], d["y_size"], table, d["class"], **kw)


def _distortion_rule(estimator, d2, cap) -> tuple[np.ndarray, np.ndarray, float]:
    """The one check of a distortion rule, for channels, families and audits.

    Returns (estimator, d2, cap) once the estimator is a colluder-symmetric
    map to integer estimates >= 0, ``d2`` a finite (estimate, output) cost
    table with a row per estimate and any number of outputs, and the cap a
    finite number."""
    est = int_array(estimator, "estimator")
    if est.ndim == 0 or not _exchangeable(est, est.ndim):
        raise ConfigError("estimator must take one symbol per colluder, in any order")
    d2 = float_array(d2, "d2")
    if d2.ndim != 2 or d2.shape[0] <= est.max(initial=0):
        raise ConfigError("d2 must be an (estimate, output) table covering every estimate")
    if not real_at_least(cap, -math.inf):
        raise ConfigError(f"the distortion cap must be a finite number, not {cap!r}")
    return est, d2, float(cap)


def _distortion_costs(estimator: np.ndarray, d2: np.ndarray, y_size: int) -> np.ndarray:
    """The cost table d2(f(x_1..x_K), y) over the first ``y_size`` outputs,
    shape estimator.shape + (y_size,)."""
    if y_size > d2.shape[1]:
        raise ConfigError("d2 does not cover the output alphabet")
    return d2[estimator][..., :y_size]


@functools.lru_cache(maxsize=None)
def _cell_classes(k: int, x_size: int, orbits: bool):
    """Cell classes of X^K: its colluder orbits, or its single cells.

    Returns (class id of every cell, shape (x_size,)*k; representatives,
    a (classes, k) array; class sizes; the constant symbol of each class,
    or -1).  Orbit representatives are sorted tuples in lexicographic
    order, which is also the order in which a C-order walk of X^K first
    meets each orbit; single cells come in C order.  Under the marking
    rule a constant class must copy its symbol.  Built once per argument
    triple and shared, so every array is read-only.
    """
    cells = np.indices((x_size,) * k).reshape(k, -1).T
    if orbits:
        reps, ids = np.unique(np.sort(cells, axis=1), axis=0, return_inverse=True)
    else:
        reps, ids = cells, np.arange(len(cells))
    ids = ids.reshape((x_size,) * k)
    sizes = np.bincount(ids.ravel(), minlength=len(reps)).astype(float)
    const = np.where(np.all(reps == reps[:, :1], axis=1), reps[:, 0], -1)
    for a in (ids, reps, sizes, const):
        a.setflags(write=False)
    return ids, reps, sizes, const


def _class_sums(ids: np.ndarray, table: np.ndarray, classes: int) -> np.ndarray:
    """Per-class sums of the rows of a (cells..., y) table, each class
    adding its cells in C order."""
    y = table.shape[-1]
    sums = np.zeros((classes, y))
    np.add.at(sums, ids.ravel(), table.reshape(-1, y))
    return sums


@functools.lru_cache(maxsize=None)
def _constant_cells(k: int, x_size: int) -> tuple[tuple[int, int], ...]:
    """(flat cell index, symbol) of each constant cell of X^K, in C order:
    the marking check's per-call work is then one lookup per symbol."""
    const = _cell_classes(k, x_size, False)[3]
    return tuple((int(c), int(const[c])) for c in np.flatnonzero(const >= 0))


def _unmarked_symbol(table: np.ndarray, tol: float) -> int | None:
    """The first symbol u whose all-u cell does not copy u to within
    ``tol`` (a NaN does not), or None when the table obeys the marking
    rule."""
    flat = table.reshape(-1, table.shape[-1])
    for cell, u in _constant_cells(table.ndim - 1, table.shape[0]):
        if not abs(flat[cell, u] - 1.0) <= tol:
            return u
    return None


def _exchangeable(a: np.ndarray, k: int, tol: float = 0.0) -> bool:
    """True iff ``a`` is unchanged, up to ``tol``, by the swap (0 1) and the
    cycle (0 1 ... k-1) of its first k axes; trailing axes stay in place.

    Those two permutations generate every colluder relabeling, so with
    tol = 0 this is exact invariance under all K! of them at the cost of
    two comparisons.  With tol > 0 a permutation that is a word of length
    L in the two generators can move the table by up to L * tol.
    """
    if k < 2:
        return True
    rest = tuple(range(k, a.ndim))
    swap = (1, 0) + tuple(range(2, k)) + rest
    cycle = tuple(range(1, k)) + (0,) + rest
    return all(np.max(np.abs(np.transpose(a, p) - a)) <= tol for p in (swap, cycle))


@functools.lru_cache(maxsize=None)
def _interleaving_table(k: int, q: int) -> np.ndarray:
    """The uniform-copy channel over X^K -> X, read-only and built once
    per (k, q)."""
    cells = _cell_classes(k, q, False)[1]
    table = np.zeros((len(cells), q))
    rows = np.arange(len(cells))
    for m in range(k):  # 1/k per colluder, in colluder order
        table[rows, cells[:, m]] += 1.0 / k
    table = table.reshape((q,) * k + (q,))
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class AttackResult:
    """Pirated copy plus a feasibility report recomputable from (x_K, y).

    The audits read only the rows; the joint type ``realized`` has
    prod(axes) cells, so it is counted on first read, under the same cell
    cap as ``joint_type``.
    """

    y: np.ndarray
    x_rows: np.ndarray
    axes: tuple[int, ...]  # alphabet sizes of (x_1..x_K, y)
    marking_ok: bool
    distortion: float | None = None
    distortion_ok: bool | None = None

    @functools.cached_property
    def realized(self) -> JointType:
        """Joint type of (x_1..x_K, y)."""
        cells = math.prod(self.axes)
        if cells > MAX_TABLE_CELLS:
            raise BudgetExceededError(f"joint type would need {cells} cells")
        counts = count_table([*self.x_rows, self.y], self.axes)
        return JointType(self.axes, counts, len(self.y))


def _rows_and_copy(x_rows, y=None, x_size=None, y_size=None) -> tuple:
    """(rows, copy) as `errors.symbols` reads them: (K, n) colluder rows with
    K, n >= 1 and a copy of n symbols, each below its alphabet size when
    that is given.  Without a copy, the rows alone."""
    x_rows = symbols(x_rows, "colluder rows", x_size, ndim=2)
    if x_rows.size == 0:
        raise ConfigError("colluder rows must hold a colluder and a position")
    if y is not None:
        y = symbols(y, "pirated copy", y_size)
        if y.shape != x_rows.shape[1:]:
            raise ConfigError("pirated copy length mismatch")
    return x_rows, y


def _report(x_rows, y, x_size, y_size, distortion=(None, None)) -> AttackResult:
    """The audit of rows and a copy that `_rows_and_copy` has read, with the
    (cost, verdict) pair of a distortion rule when one applies."""
    if x_size is None:
        x_size = int(x_rows.max()) + 1
    axes = (x_size,) * len(x_rows) + (y_size,)
    return AttackResult(y, x_rows, axes, _marks_kept(x_rows, y), *distortion)


def feasibility_report(
    x_rows: np.ndarray,
    y: np.ndarray,
    y_size: int,
    x_size: int | None = None,
    estimator: np.ndarray | None = None,
    d2: np.ndarray | None = None,
    cap: float | None = None,
) -> AttackResult:
    """Audit a pirated copy against the marking and distortion rules."""
    x_rows, y = _rows_and_copy(x_rows, y, x_size, y_size)
    if estimator is None:
        return _report(x_rows, y, x_size, y_size)
    if d2 is None or cap is None:
        raise ConfigError("distortion audit needs estimator, d2 and cap together")
    distortion = check_distortion_attack(x_rows, y, estimator, d2, cap)
    return _report(x_rows, y, x_size, y_size, distortion)


def interleave(
    x_rows: np.ndarray, rng: np.random.Generator, x_size: int | None = None
) -> AttackResult:
    """Position-wise uniform colluder copy."""
    x_rows = _rows_and_copy(x_rows, x_size=x_size)[0]
    if x_size is None:
        x_size = int(x_rows.max()) + 1
    k, n = x_rows.shape
    y = x_rows[rng.integers(0, k, size=n), np.arange(n)]
    return _report(x_rows, y, x_size, x_size)


def apply_memoryless(
    x_rows: np.ndarray, ch: ChannelSpec, rng: np.random.Generator
) -> AttackResult:
    """Drive colluder rows through a memoryless channel."""
    x_rows = _rows_and_copy(x_rows, x_size=ch.x_size)[0]
    k, n = x_rows.shape
    if k != ch.k:
        raise ConfigError(f"channel expects {ch.k} colluders, got {k}")
    flat = ch.table.reshape(-1, ch.y_size)
    cells = np.ravel_multi_index(tuple(x_rows), (ch.x_size,) * k)
    # the last output takes any u past the others' mass, so y < y_size
    cdf = np.cumsum(flat[cells], axis=1)[:, :-1]
    u = rng.random(n)
    y = (u[:, None] > cdf).sum(axis=1).astype(np.int64)
    distortion = (None, None)
    if ch.estimator is not None:
        distortion = _cost(x_rows, y, ch.estimator, ch.d2, ch.distortion_cap)
    return _report(x_rows, y, ch.x_size, ch.y_size, distortion)


def check_marking(x_rows: np.ndarray, y: np.ndarray) -> bool:
    """True iff y copies the colluders wherever they all agree."""
    return _marks_kept(*_rows_and_copy(x_rows, y))


def _marks_kept(x_rows: np.ndarray, y: np.ndarray) -> bool:
    agree = np.all(x_rows == x_rows[0], axis=0)
    return bool(np.all(y[agree] == x_rows[0][agree]))


def check_distortion_attack(
    x_rows: np.ndarray,
    y: np.ndarray,
    estimator: np.ndarray,
    d2: np.ndarray,
    cap: float,
) -> tuple[float, bool]:
    """Average cost d2(f(x_1..x_K), y) of a realization, with cap verdict.

    The estimator must be invariant to colluder order; the same audit then
    applies no matter how the coalition labels itself.  Every symbol must
    index its table: x one of the estimator's axes, y a column of ``d2``.
    An empty copy has no average and is refused.
    """
    estimator, d2, cap = _distortion_rule(estimator, d2, cap)
    x_rows, y = _rows_and_copy(x_rows, y, estimator.shape[0], d2.shape[1])
    if estimator.ndim != len(x_rows):
        raise ConfigError("the estimator must take one symbol per colluder")
    return _cost(x_rows, y, estimator, d2, cap)


def _cost(x_rows, y, estimator, d2, cap) -> tuple[float, bool]:
    value = float(d2[estimator[tuple(x_rows)], y].mean())
    return value, value <= cap + 1e-12
