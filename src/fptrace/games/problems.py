"""Data model for the max-min information games.

A coalition channel is an ndarray of shape (x_size,)*K + (y_size,); the
trailing axis is a pmf for each colluder-symbol cell.  A channel family
object describes the feasible polytope and answers the two queries the
Frank-Wolfe loop needs: a feasible starting channel and the vertex
minimizing a linear functional.  Families can also answer the fair
(permutation-invariant) restriction of themselves, which is what the
detect-one game minimizes over.

All information quantities are in bits.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ..collusion import (
    ChannelSpec,
    _exchangeable,
    _require_symmetric_estimator,
    input_orbits,
)
from ..errors import ConfigError, InfeasibleError
from ..types_core import _TINY, MAX_TABLE_CELLS, _safe_log2

__all__ = [
    "GameProblem",
    "GameSolution",
    "InputLaw",
    "FairMarking",
    "Marking",
    "Hull",
    "Distortion",
    "Payoff",
    "law_tensors",
    "payoff_value_grad",
    "channel_family_from_dict",
]

_AXES = "cdefgh"  # per-user einsum letters; coalition sizes stay small


def _constant_orbit_symbol(rep: tuple[int, ...]) -> int | None:
    return rep[0] if len(set(rep)) == 1 else None


# ---------------------------------------------------------------------------
# channel families


class ChannelFamily:
    """Interface shared by the feasible-channel polytopes."""

    kind = "?"
    class_tag = "explicit"  # the ChannelSpec class its channels validate as
    requires_matching_alphabets = False

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        raise NotImplementedError

    def linmin(self, grad, q_x=None, fair=False):
        raise NotImplementedError

    def contains(self, table, q_x=None, tol=1e-8) -> bool:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"kind": self.kind}


def _marking_linmin(grad, fair):
    k = grad.ndim - 1
    x_size = grad.shape[0]
    y_size = grad.shape[-1]
    out = np.zeros_like(grad)
    if fair:
        ids, reps, _ = input_orbits(k, x_size)
        g_orb = np.zeros((len(reps), y_size))
        np.add.at(g_orb, ids.ravel(), grad.reshape(-1, y_size))
        rows = np.zeros((len(reps), y_size))
        for i, rep in enumerate(reps):
            sym = _constant_orbit_symbol(rep)
            rows[i, sym if sym is not None else int(np.argmin(g_orb[i]))] = 1.0
        out = rows[ids]
    else:
        flat = grad.reshape(-1, y_size)
        rows = np.zeros_like(flat)
        rows[np.arange(len(flat)), np.argmin(flat, axis=1)] = 1.0
        for x in range(x_size):
            cell = np.ravel_multi_index((x,) * k, (x_size,) * k)
            rows[cell] = 0.0
            rows[cell, x] = 1.0
        out = rows.reshape(grad.shape)
    return out


def _has_marking(table, tol=1e-9):
    x_size = table.shape[0]
    k = table.ndim - 1
    return all(abs(table[(x,) * k + (x,)] - 1.0) <= tol for x in range(x_size))


def _embedded_interleaving(k, x_size, y_size):
    """Interleaving table with the output alphabet widened to y_size."""
    from ..collusion import _interleaving_table

    base = _interleaving_table(k, x_size)
    if y_size == x_size:
        return base
    out = np.zeros(base.shape[:-1] + (y_size,))
    out[..., :x_size] = base
    return out


class FairMarking(ChannelFamily):
    """Permutation-invariant channels satisfying the marking constraint.

    The polytope is a product of simplices indexed by input-symbol
    multisets, with the constant multisets pinned to copy their symbol.
    """

    kind = "boneh_shaw_fair"
    class_tag = "boneh_shaw"
    requires_matching_alphabets = True

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        return _embedded_interleaving(k, x_size, y_size)

    def linmin(self, grad, q_x=None, fair=False):
        return _marking_linmin(grad, fair=True)

    def contains(self, table, q_x=None, tol=1e-8):
        return _exchangeable(table, table.ndim - 1, tol) and _has_marking(table, tol)


class Marking(ChannelFamily):
    """All channels satisfying the marking constraint (not necessarily fair)."""

    kind = "marking"
    class_tag = "boneh_shaw"
    requires_matching_alphabets = True

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        return _embedded_interleaving(k, x_size, y_size)

    def linmin(self, grad, q_x=None, fair=False):
        return _marking_linmin(grad, fair=fair)

    def contains(self, table, q_x=None, tol=1e-8):
        return _has_marking(table, tol)


class Hull(ChannelFamily):
    """Convex hull of an explicit channel list (singleton when one vertex)."""

    kind = "hull"

    def __init__(self, channels):
        tables = [np.asarray(getattr(c, "table", c), dtype=float) for c in channels]
        if not tables:
            raise ConfigError("hull needs at least one channel")
        shape = tables[0].shape
        for t in tables:
            if t.shape != shape:
                raise ConfigError("hull channels must share a shape")
            if np.max(np.abs(t.sum(axis=-1) - 1.0)) > 1e-10 or np.any(t < -1e-12):
                raise ConfigError("hull vertices must be channels")
        self.vertices = [np.clip(t, 0.0, None) for t in tables]

    @property
    def is_singleton(self):
        return len(self.vertices) == 1

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        if not fair:
            return sum(self.vertices) / len(self.vertices)
        return self.linmin(np.zeros_like(self.vertices[0]), fair=True)

    def _fair_rows(self, k, x_size):
        """(row, y) equality pairs forcing mixture fairness."""
        ids = input_orbits(k, x_size)[0]
        pairs = []
        rep_cell = {}
        for tup in itertools.product(range(x_size), repeat=k):
            o = ids[tup]
            if o not in rep_cell:
                rep_cell[o] = tup
            elif rep_cell[o] != tup:
                pairs.append((rep_cell[o], tup))
        return pairs

    def linmin(self, grad, q_x=None, fair=False):
        scores = np.array([float(np.sum(grad * v)) for v in self.vertices])
        if not fair:
            return self.vertices[int(np.argmin(scores))]
        k = grad.ndim - 1
        x_size, y_size = grad.shape[0], grad.shape[-1]
        pairs = self._fair_rows(k, x_size)
        n = len(self.vertices)
        a_eq = [[1.0] * n]
        b_eq = [1.0]
        for a, b in pairs:
            for y in range(y_size):
                a_eq.append([v[a + (y,)] - v[b + (y,)] for v in self.vertices])
                b_eq.append(0.0)
        res = linprog(
            scores, A_eq=np.asarray(a_eq), b_eq=np.asarray(b_eq), bounds=(0.0, 1.0)
        )
        if not res.success:
            raise InfeasibleError("hull has no fair member")
        mix = np.zeros_like(self.vertices[0])
        for lam, v in zip(res.x, self.vertices):
            mix = mix + lam * v
        return mix

    def contains(self, table, q_x=None, tol=1e-8):
        flat = [v.ravel() for v in self.vertices]
        n = len(flat)
        a_eq = np.vstack([np.stack(flat, axis=1), np.ones((1, n))])
        b_eq = np.concatenate([np.asarray(table, dtype=float).ravel(), [1.0]])
        res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0))
        con = getattr(res, "con", None)
        return bool(res.success) and (con is None or float(np.max(np.abs(con))) <= tol)

    def to_dict(self):
        return {
            "kind": self.kind,
            "shape": list(self.vertices[0].shape),
            "vertices": [v.ravel(order="C").tolist() for v in self.vertices],
        }


class Distortion(ChannelFamily):
    """Channels whose expected distortion to a host estimate stays capped.

    ``estimator`` maps colluder cells to estimate symbols (order invariant);
    ``d2`` is the (estimate, output) cost table; the constraint is evaluated
    at the coalition input law q_x, so the polytope depends on it.
    """

    kind = "distortion"
    class_tag = "distortion"

    def __init__(self, estimator, d2, cap):
        self.estimator = np.asarray(estimator, dtype=np.int64)
        self.d2 = np.asarray(d2, dtype=float)
        self.cap = float(cap)
        if self.d2.ndim != 2 or self.d2.shape[0] <= self.estimator.max():
            raise ConfigError("d2 must cover the estimator range")
        _require_symmetric_estimator(self.estimator, self.estimator.ndim)

    def _cost(self, y_size):
        if y_size > self.d2.shape[1]:
            raise ConfigError("d2 does not cover the output alphabet")
        shape = self.estimator.shape + (y_size,)
        return self.d2[self.estimator.ravel()][:, :y_size].reshape(shape)

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        return self.linmin(np.zeros((x_size,) * k + (y_size,)), q_x=q_x, fair=fair)

    def linmin(self, grad, q_x=None, fair=False):
        if q_x is None:
            raise ConfigError("distortion polytope needs the coalition input law")
        k = grad.ndim - 1
        x_size, y_size = grad.shape[0], grad.shape[-1]
        cost = self._cost(y_size)
        q = np.asarray(q_x, dtype=float)
        if fair:
            ids, reps, _ = input_orbits(k, x_size)
            n_rows = len(reps)
            obj = np.zeros((n_rows, y_size))
            np.add.at(obj, ids.ravel(), grad.reshape(-1, y_size))
            dist = np.zeros((n_rows, y_size))
            np.add.at(dist, ids.ravel(), (q[..., None] * cost).reshape(-1, y_size))
        else:
            n_rows = x_size**k
            obj = grad.reshape(n_rows, y_size)
            dist = (q[..., None] * cost).reshape(n_rows, y_size)
        a_eq = np.zeros((n_rows, n_rows * y_size))
        for r in range(n_rows):
            a_eq[r, r * y_size : (r + 1) * y_size] = 1.0
        res = linprog(
            obj.ravel(),
            A_ub=dist.ravel()[None, :],
            b_ub=[self.cap],
            A_eq=a_eq,
            b_eq=np.ones(n_rows),
            bounds=(0.0, 1.0),
        )
        if not res.success:
            raise InfeasibleError("distortion cap admits no channel at this input law")
        rows = res.x.reshape(n_rows, y_size)
        if fair:
            return rows[ids]
        return rows.reshape(grad.shape)

    def contains(self, table, q_x=None, tol=1e-8):
        if q_x is None:
            raise ConfigError("distortion polytope needs the coalition input law")
        cost = self._cost(table.shape[-1])
        val = float(np.sum(np.asarray(q_x)[..., None] * table * cost))
        return val <= self.cap + tol

    def expected_cost(self, table, q_x):
        cost = self._cost(table.shape[-1])
        return float(np.sum(np.asarray(q_x)[..., None] * table * cost))

    def to_dict(self):
        return {
            "kind": self.kind,
            "estimator_shape": list(self.estimator.shape),
            "estimator": self.estimator.ravel(order="C").tolist(),
            "d2_shape": list(self.d2.shape),
            "d2": self.d2.ravel(order="C").tolist(),
            "cap": self.cap,
        }


def channel_family_from_dict(d: dict) -> ChannelFamily:
    if not isinstance(d, dict) or "kind" not in d:
        raise ConfigError('a channel family needs a "kind"')
    kind = d["kind"]
    if kind == "boneh_shaw_fair":
        return FairMarking()
    if kind == "marking":
        return Marking()
    try:
        if kind == "hull":
            shape = tuple(d["shape"])
            return Hull([np.asarray(v, dtype=float).reshape(shape) for v in d["vertices"]])
        if kind == "distortion":
            est = np.asarray(d["estimator"], dtype=np.int64).reshape(
                tuple(d["estimator_shape"])
            )
            d2 = np.asarray(d["d2"], dtype=float).reshape(tuple(d["d2_shape"]))
            return Distortion(est, d2, d["cap"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} family: {exc!r}") from None
    raise ConfigError(f"unknown channel family {kind!r}")


# ---------------------------------------------------------------------------
# problems, input laws, solutions


@dataclass(frozen=True)
class GameProblem:
    coalition_size: int
    x_size: int
    y_size: int
    channel_class: ChannelFamily
    objective: str = "detect_one"
    s_size: int = 1
    num_timeshare: int = 1
    p_host: np.ndarray | None = None
    d1: np.ndarray | None = None
    d1_cap: float | None = None

    def __post_init__(self):
        if min(self.coalition_size, self.x_size, self.y_size, self.s_size) < 1:
            raise ConfigError("all dimensions must be positive")
        if self.num_timeshare < 1:
            raise ConfigError("need at least one time-share slot")
        if self.objective not in ("detect_one", "detect_all", "simple"):
            raise ConfigError(f"unknown objective {self.objective!r}")
        cells = (
            self.s_size
            * self.num_timeshare
            * self.x_size**self.coalition_size
            * self.y_size
        )
        if cells > MAX_TABLE_CELLS:
            raise ConfigError(f"joint tensor would need {cells} cells")
        if self.channel_class.requires_matching_alphabets and self.y_size < self.x_size:
            raise ConfigError("marking families need the inputs embedded in the output alphabet")
        host = self.p_host
        if host is None:
            host = np.full(self.s_size, 1.0 / self.s_size)
        host = np.asarray(host, dtype=float)
        if host.shape != (self.s_size,) or abs(host.sum() - 1.0) > 1e-9 or host.min() < 0:
            raise ConfigError("p_host must be a pmf over the host alphabet")
        host = host / host.sum()
        host.setflags(write=False)
        object.__setattr__(self, "p_host", host)
        if (self.d1 is None) != (self.d1_cap is None):
            raise ConfigError("d1 and d1_cap come together")
        if self.d1 is not None:
            d1 = np.asarray(self.d1, dtype=float)
            if d1.shape != (self.s_size, self.x_size):
                raise ConfigError("d1 must be a (host, mark) cost table")
            d1.setflags(write=False)
            object.__setattr__(self, "d1", d1)

    def uniform_law(self) -> "InputLaw":
        l = self.num_timeshare
        return InputLaw(
            p_w=np.full(l, 1.0 / l),
            p_x_given_sw=np.full((self.s_size, l, self.x_size), 1.0 / self.x_size),
        )

    def wrap_channel(self, table) -> ChannelSpec:
        """Package a solver table as a ChannelSpec validated under the
        family's class tag; a distortion family adds its cost data."""
        fam = self.channel_class
        extra = {}
        if isinstance(fam, Distortion):
            extra = dict(estimator=fam.estimator, d2=fam.d2, distortion_cap=fam.cap)
        return ChannelSpec(
            k=table.ndim - 1,
            x_size=table.shape[0],
            y_size=table.shape[-1],
            table=table,
            class_tag=fam.class_tag,
            **extra,
        )

    def to_dict(self) -> dict:
        out = {
            "coalition_size": self.coalition_size,
            "x_size": self.x_size,
            "y_size": self.y_size,
            "s_size": self.s_size,
            "num_timeshare": self.num_timeshare,
            "objective": self.objective,
            "p_host": self.p_host.tolist(),
            "channel_class": self.channel_class.to_dict(),
        }
        if self.d1 is not None:
            out["d1"] = self.d1.tolist()
            out["d1_cap"] = self.d1_cap
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "GameProblem":
        if not isinstance(d, dict):
            raise ConfigError("a problem config must be an object")
        missing = [k for k in ("coalition_size", "x_size", "y_size",
                               "channel_class") if k not in d]
        if missing:
            raise ConfigError(f"problem config missing keys: {missing}")
        try:
            kw = dict(
                coalition_size=int(d["coalition_size"]),
                x_size=int(d["x_size"]),
                y_size=int(d["y_size"]),
                s_size=int(d.get("s_size", 1)),
                num_timeshare=int(d.get("num_timeshare", 1)),
                p_host=np.asarray(d["p_host"], dtype=float) if "p_host" in d else None,
            )
            if "d1" in d:
                kw["d1"] = np.asarray(d["d1"], dtype=float)
                kw["d1_cap"] = float(d["d1_cap"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad problem config: {exc!r}") from None
        return cls(
            channel_class=channel_family_from_dict(d["channel_class"]),
            objective=d.get("objective", "detect_one"),
            **kw,
        )


@dataclass(frozen=True)
class InputLaw:
    """Encoder side of the game: time-share law and per-cell mark law.

    ``p_s_tilde_given_w`` is only used by the exponent programs, where the
    host conditional type may deviate from the true host law; it defaults
    to the host law itself (zero divergence).
    """

    p_w: np.ndarray
    p_x_given_sw: np.ndarray
    p_s_tilde_given_w: np.ndarray | None = None

    def __post_init__(self):
        pw = np.asarray(self.p_w, dtype=float)
        px = np.asarray(self.p_x_given_sw, dtype=float)
        if pw.ndim != 1 or abs(pw.sum() - 1.0) > 1e-9 or pw.min() < -1e-12:
            raise ConfigError("p_w must be a pmf")
        if px.ndim != 3 or px.shape[1] != pw.shape[0]:
            raise ConfigError("p_x_given_sw must have shape (s, w, x)")
        if np.max(np.abs(px.sum(axis=-1) - 1.0)) > 1e-9 or px.min() < -1e-12:
            raise ConfigError("p_x_given_sw rows must be pmfs")
        pw = np.clip(pw, 0.0, None)
        pw = pw / pw.sum()
        px = np.clip(px, 0.0, None)
        px = px / px.sum(axis=-1, keepdims=True)
        pw.setflags(write=False)
        px.setflags(write=False)
        object.__setattr__(self, "p_w", pw)
        object.__setattr__(self, "p_x_given_sw", px)
        if self.p_s_tilde_given_w is not None:
            ps = np.asarray(self.p_s_tilde_given_w, dtype=float)
            if ps.shape != (pw.shape[0], px.shape[0]):
                raise ConfigError("p_s_tilde_given_w must have shape (w, s)")
            if np.max(np.abs(ps.sum(axis=-1) - 1.0)) > 1e-9 or ps.min() < -1e-12:
                raise ConfigError("p_s_tilde_given_w rows must be pmfs")
            ps = np.clip(ps, 0.0, None)
            ps = ps / ps.sum(axis=-1, keepdims=True)
            ps.setflags(write=False)
            object.__setattr__(self, "p_s_tilde_given_w", ps)

    def embedding_cost(self, problem: GameProblem) -> float:
        if problem.d1 is None:
            return 0.0
        cell = np.einsum("s,w,swx,sx->", problem.p_host, self.p_w, self.p_x_given_sw,
                         problem.d1)
        return float(cell)

    def to_dict(self) -> dict:
        out = {
            "p_w": self.p_w.tolist(),
            "p_x_given_sw": self.p_x_given_sw.tolist(),
        }
        if self.p_s_tilde_given_w is not None:
            out["p_s_tilde_given_w"] = self.p_s_tilde_given_w.tolist()
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "InputLaw":
        try:
            ps = d.get("p_s_tilde_given_w")
            return cls(
                p_w=np.asarray(d["p_w"], dtype=float),
                p_x_given_sw=np.asarray(d["p_x_given_sw"], dtype=float),
                p_s_tilde_given_w=None if ps is None else np.asarray(ps, dtype=float),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad input law: {exc!r}") from None


@dataclass
class GameSolution:
    value: float
    input_law: InputLaw
    worst_channel: ChannelSpec
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "input_law": self.input_law.to_dict(),
                "worst_channel": json.loads(self.worst_channel.to_json()),
                "diagnostics": {
                    k: v for k, v in self.diagnostics.items() if _jsonable(v)
                },
            }
        )


def _jsonable(v):
    try:
        json.dumps(v)
        return True
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# payoff evaluation


def law_tensors(problem: GameProblem, law: InputLaw):
    """(B, p_x) with B(s,w,x_1..x_K) = p_S(s) p_W(w) prod_m p(x_m|s,w)."""
    k = problem.coalition_size
    s, l, x = law.p_x_given_sw.shape
    b = problem.p_host[:, None] * law.p_w[None, :]
    for i in range(k):
        b = b[..., None] * law.p_x_given_sw.reshape((s, l) + (1,) * i + (x,))
    return b, law.p_x_given_sw


class Payoff:
    """One payoff at one input law, for evaluation at many channels.

    Everything that depends only on the law is built once, from the
    ``law_tensors`` output ``tensors``: the product law B, the reshape
    targets, the clipped (s,w) marginal of detect-one and the scale.  A
    call then pays only for the channel terms, and ``value`` skips the
    gradient einsum that ``value_grad`` adds; both share ``_value_terms``.
    objective, subset and user are as in ``payoff_value_grad``.
    """

    def __init__(self, problem, tensors, objective, subset=None, user=None):
        b, p_x = tensors
        k = problem.coalition_size
        x, y = problem.x_size, problem.y_size
        sw = b.shape[:2]
        xs = _AXES[:k]
        self.b = b
        self.grad_expr = f"ab{xs},ab{xs}y->{xs}y"
        self.den_shape = sw + (1,) * k + (y,)
        if objective == "detect_one":
            self.flat = sw + (-1, y)
            self.psw = np.maximum(b.reshape(sw + (-1,)).sum(axis=2), _TINY)[..., None]
            self.scale = 1.0 / k
        elif objective == "detect_all_part":
            a = tuple(sorted(subset))
            if not a:
                raise ConfigError("detect_all_part needs a nonempty subset")
            rest = tuple(i for i in range(k) if i not in a)
            in_a = "".join(xs[i] for i in a)
            in_rest = "".join(xs[i] for i in rest)
            # r(y | s, w, x_rest) = sum_{x_A} prod_{m in A} p(x_m|s,w) c(y|x)
            self.p_ops = [p_x] * len(a)
            self.expr = (
                ",".join([f"ab{ch}" for ch in in_a] + [f"{xs}y"]) + f"->ab{in_rest}y"
            )
            shape = list(self.den_shape)
            for i in rest:
                shape[2 + i] = x
            self.rden_shape = tuple(shape)
            self.scale = 1.0 / len(a)
        elif objective == "simple":
            m = 0 if user is None else int(user)
            others = tuple(i for i in range(k) if i != m)
            in_o = "".join(xs[i] for i in others)
            self.p_x = p_x
            self.p_ops = [p_x] * len(others)
            self.expr = (
                ",".join([f"ab{ch}" for ch in in_o] + [f"{xs}y"]) + f"->ab{xs[m]}y"
                if others
                else None
            )
            self.ry_expr = f"ab{xs[m]},ab{xs[m]}y->aby"
            shape = list(self.den_shape)
            shape[2 + m] = x
            self.u_shape = tuple(shape)
            self.scale = 1.0
        else:
            raise ConfigError(f"unknown payoff {objective!r}")
        self.objective = objective

    def _value_terms(self, c):
        """(payoff in bits, log-ratio table) at channel c.

        The sums call ``np.add.reduce``, the reduction that ``np.sum`` and
        ``ndarray.sum`` run, on the same axes and operands (so the same
        bits) but without their argument handling, which at these sizes
        costs more than the sum.
        """
        bc = self.b[..., None] * c
        if self.objective == "detect_one":
            rcond = np.add.reduce(bc.reshape(self.flat), axis=2) / self.psw
            lf = _safe_log2(c)[None, None] - _safe_log2(rcond).reshape(self.den_shape)
        elif self.objective == "detect_all_part":
            rden = np.einsum(self.expr, *self.p_ops, c)
            lf = _safe_log2(c)[None, None] - _safe_log2(rden).reshape(self.rden_shape)
        else:
            if self.expr is not None:
                u = np.einsum(self.expr, *self.p_ops, c)
            else:
                u = np.broadcast_to(c, self.b.shape[:2] + c.shape)
            ry = np.einsum(self.ry_expr, self.p_x, u)
            lf = _safe_log2(u).reshape(self.u_shape) - _safe_log2(ry).reshape(
                self.den_shape
            )
        return self.scale * float(np.add.reduce(bc * lf, axis=None)), lf

    def value(self, c):
        """Payoff in bits at channel c."""
        return self._value_terms(c)[0]

    def value_grad(self, c):
        """Payoff in bits at channel c and its gradient in the channel table."""
        value, lf = self._value_terms(c)
        return value, self.scale * np.einsum(self.grad_expr, self.b, lf)


def payoff_value_grad(c, problem, law, objective, subset=None, user=None):
    """Payoff in bits and its gradient with respect to the channel table.

    objective: "detect_one" -> (1/K) I(X_K;Y|S,W)
               "detect_all_part" (subset A) -> (1/|A|) I(X_A;Y|S,X_rest,W)
               "simple" (user m) -> I(X_m;Y|S,W)
    The gradient pattern is the same for all three: a (s,w)-weighted sum of
    log ratios between the relevant forward density and its denominator.
    A solver that evaluates one law at many channels builds a ``Payoff``
    once instead.
    """
    payoff = Payoff(problem, law_tensors(problem, law), objective, subset, user)
    return payoff.value_grad(c)
