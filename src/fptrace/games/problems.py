"""Data model for the max-min information games.

A coalition channel is an ndarray of shape (x_size,)*K + (y_size,); the
trailing axis is a pmf for each colluder-symbol cell.  A channel family
object describes the feasible polytope and answers the two queries the
Frank-Wolfe loop needs: a feasible starting channel and the vertex
minimizing a linear functional.  Families can also answer the fair
(permutation-invariant) restriction of themselves, which is what the
detect-one game minimizes over.

Every game's payoff is one formula, (1/|A|) I(X_A; Y | S, W, X_B): the
users A are its targets, B are conditioned on, and the rest are summed out
(``payoff_value_grad``).

All information quantities are in bits.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from ..collusion import (
    ChannelSpec,
    _cell_classes,
    _class_sums,
    _distortion_costs,
    _distortion_rule,
    _interleaving_table,
)
from ..errors import (ConfigError, InfeasibleError, float_array, index_set, int_array,
                      int_at_least, pmf_rows, real_at_least, reading)
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

    def to_dict(self) -> dict:
        return {"kind": self.kind}


def _marking_linmin(grad, fair):
    """The marking vertex minimizing <grad, c>: each cell class (an orbit
    when ``fair``, else a single cell) puts its mass on the output with the
    least class-summed gradient, and a constant class copies its symbol."""
    y_size = grad.shape[-1]
    ids, _, _, const = _cell_classes(grad.ndim - 1, grad.shape[0], fair)
    g = _class_sums(ids, grad, len(const))
    pick = np.where(const >= 0, const, g.argmin(axis=1))
    return np.eye(y_size)[pick[ids]]


class _MarkingFamily(ChannelFamily):
    """Channels satisfying the marking constraint; ``always_fair`` limits
    them to the permutation-invariant ones.

    The fair polytope is a product of simplices indexed by input-symbol
    multisets, with the constant multisets pinned to copy their symbol.
    """

    class_tag = "boneh_shaw"
    requires_matching_alphabets = True
    always_fair = False

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        """The interleaving channel, its outputs embedded in Y."""
        out = np.zeros((x_size,) * k + (y_size,))
        out[..., :x_size] = _interleaving_table(k, x_size)
        return out

    def linmin(self, grad, q_x=None, fair=False):
        return _marking_linmin(grad, fair or self.always_fair)


class FairMarking(_MarkingFamily):
    """Permutation-invariant channels satisfying the marking constraint."""

    kind = "boneh_shaw_fair"
    always_fair = True


class Marking(_MarkingFamily):
    """All channels satisfying the marking constraint (not necessarily fair)."""

    kind = "marking"


class Hull(ChannelFamily):
    """Convex hull of an explicit channel list (singleton when one vertex)."""

    kind = "hull"

    def __init__(self, channels):
        self.vertices = [pmf_rows(getattr(c, "table", c), "hull vertex") for c in channels]
        if not self.vertices or any(v.shape != self.vertices[0].shape for v in self.vertices):
            raise ConfigError("a hull needs one or more channels of one shape")

    @property
    def is_singleton(self):
        return len(self.vertices) == 1

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        if not fair:
            return sum(self.vertices) / len(self.vertices)
        return self.linmin(np.zeros_like(self.vertices[0]), fair=True)

    def _fair_rows(self, k, x_size):
        """(first, other) flat cell indices, C order, of the equality pairs
        forcing mixture fairness: every cell of an orbit other than its
        first (its sorted representative) is paired with that first cell."""
        ids, reps, _, _ = _cell_classes(k, x_size, True)
        first = np.ravel_multi_index(tuple(reps[ids.ravel()].T), ids.shape)
        other = np.flatnonzero(first != np.arange(ids.size))
        return first[other], other

    def linmin(self, grad, q_x=None, fair=False):
        scores = np.array([float(np.sum(grad * v)) for v in self.vertices])
        if not fair:
            return self.vertices[int(np.argmin(scores))]
        first, other = self._fair_rows(grad.ndim - 1, grad.shape[0])
        verts = np.stack(self.vertices, axis=-1).reshape(-1, grad.shape[-1], len(scores))
        # first the weights sum to one, then one row per (pair, y), pair-major
        diffs = (verts[first] - verts[other]).reshape(-1, len(scores))
        a_eq = np.vstack([np.ones((1, len(scores))), diffs])
        b_eq = np.zeros(len(a_eq))
        b_eq[0] = 1.0
        res = linprog(scores, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0))
        if not res.success:
            raise InfeasibleError("hull has no fair member")
        mix = np.zeros_like(self.vertices[0])
        for lam, v in zip(res.x, self.vertices):
            mix = mix + lam * v
        return mix

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
        self.estimator, self.d2, self.cap = _distortion_rule(estimator, d2, cap)

    def _cost(self, y_size):
        return _distortion_costs(self.estimator, self.d2, y_size)

    def start(self, k, x_size, y_size, q_x=None, fair=False):
        return self.linmin(np.zeros((x_size,) * k + (y_size,)), q_x=q_x, fair=fair)

    def linmin(self, grad, q_x=None, fair=False):
        if q_x is None:
            raise ConfigError("distortion polytope needs the coalition input law")
        y_size = grad.shape[-1]
        cost = self._cost(y_size)
        q = np.asarray(q_x, dtype=float)
        ids, _, sizes, _ = _cell_classes(grad.ndim - 1, grad.shape[0], fair)
        n_rows = len(sizes)
        obj = _class_sums(ids, grad, n_rows)
        dist = _class_sums(ids, q[..., None] * cost, n_rows)
        res = linprog(
            obj.ravel(),
            A_ub=dist.ravel()[None, :],
            b_ub=[self.cap],
            A_eq=np.kron(np.eye(n_rows), np.ones((1, y_size))),
            b_eq=np.ones(n_rows),
            bounds=(0.0, 1.0),
        )
        if not res.success:
            raise InfeasibleError("distortion cap admits no channel at this input law")
        return res.x.reshape(n_rows, y_size)[ids]

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
    with reading("channel family"):
        kind = d["kind"]
        if kind == "boneh_shaw_fair":
            return FairMarking()
        if kind == "marking":
            return Marking()
        if kind == "hull":
            return Hull([float_array(v, "hull vertex", tuple(d["shape"])) for v in d["vertices"]])
        if kind == "distortion":
            est = np.reshape(int_array(d["estimator"], "estimator"), d["estimator_shape"])
            return Distortion(est, float_array(d["d2"], "d2", tuple(d["d2_shape"])), d["cap"])
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
        for name in ("coalition_size", "x_size", "y_size", "s_size", "num_timeshare"):
            if not int_at_least(getattr(self, name), 1):
                raise ConfigError(f"{name} must be a positive integer")
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
        fam = self.channel_class
        shape = (self.x_size,) * self.coalition_size + (self.y_size,)
        if isinstance(fam, Hull) and fam.vertices[0].shape != shape:
            raise ConfigError(f"hull vertices must have the problem's shape {shape}")
        if isinstance(fam, Distortion):
            if fam.estimator.shape != shape[:-1]:
                raise ConfigError(f"the estimator must map every cell of {shape[:-1]}")
            fam._cost(self.y_size)  # d2 must cover the outputs
        s = self.s_size
        host = np.full(s, 1.0 / s) if self.p_host is None else self.p_host
        object.__setattr__(self, "p_host", pmf_rows(host, "p_host", (s,)))
        if (self.d1 is None) != (self.d1_cap is None):
            raise ConfigError("d1 and d1_cap come together")
        if self.d1 is not None:
            object.__setattr__(self, "d1", float_array(self.d1, "d1", (s, self.x_size)))
            if not real_at_least(self.d1_cap, -math.inf):
                raise ConfigError(f"d1_cap must be a finite number, not {self.d1_cap!r}")
            object.__setattr__(self, "d1_cap", float(self.d1_cap))

    def uniform_law(self) -> "InputLaw":
        l = self.num_timeshare
        return InputLaw(
            p_w=np.full(l, 1.0 / l),
            p_x_given_sw=np.full((self.s_size, l, self.x_size), 1.0 / self.x_size),
        )

    def check_law(self, law: "InputLaw") -> None:
        """Refuse an input law of another game: its mark law must have shape
        (s_size, num_timeshare, x_size)."""
        want = (self.s_size, self.num_timeshare, self.x_size)
        if law.p_x_given_sw.shape != want:
            raise ConfigError(f"input_law.p_x_given_sw must have shape {want}")

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
        with reading("problem"):
            return cls(**dict(d, channel_class=channel_family_from_dict(d["channel_class"])))


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
        pw = pmf_rows(self.p_w, "p_w")
        px = pmf_rows(self.p_x_given_sw, "p_x_given_sw")
        if pw.ndim != 1 or px.ndim != 3 or px.shape[1] != pw.size:
            raise ConfigError("p_w and p_x_given_sw must have shapes (w,) and (s, w, x)")
        object.__setattr__(self, "p_w", pw)
        object.__setattr__(self, "p_x_given_sw", px)
        if self.p_s_tilde_given_w is not None:
            ps = pmf_rows(self.p_s_tilde_given_w, "p_s_tilde_given_w", (pw.size, px.shape[0]))
            object.__setattr__(self, "p_s_tilde_given_w", ps)

    @classmethod
    def _trusted(cls, p_w, p_x_given_sw, p_s_tilde_given_w=None):
        """A law from arrays that are pmfs by construction (softmax rows),
        built without the checks of ``__post_init__``.
        ``dataclasses.replace(law)`` returns the validated law."""
        law = object.__new__(cls)
        for name, arr in (
            ("p_w", p_w),
            ("p_x_given_sw", p_x_given_sw),
            ("p_s_tilde_given_w", p_s_tilde_given_w),
        ):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(law, name, arr)
        return law

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
        with reading("input law"):
            return cls(**d)


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
                "diagnostics": self.diagnostics,
            }
        )


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
    """One payoff of ``payoff_value_grad`` at one input law, for evaluation
    at many channels: B, the targets and the two sums of B are built once,
    so a call pays only for the channel terms, and ``value`` skips the
    gradient sum of ``value_grad``.  ``subset`` and ``user`` are read as
    ``errors.index_set`` reads an index set; detect-one takes neither."""

    def __init__(self, problem, tensors, objective, subset=None, user=None):
        k = problem.coalition_size
        hidden = ()
        if objective == "detect_one":
            targets = tuple(range(k))
        elif objective == "detect_all_part":
            targets = index_set(subset, k, "subset")
            if not targets:
                raise ConfigError("detect_all_part needs a nonempty subset")
        elif objective == "simple":
            targets = index_set((0 if user is None else user,), k, "user")
            hidden = tuple(i for i in range(k) if i not in targets)
        else:
            raise ConfigError(f"unknown payoff {objective!r}")
        self.b = tensors[0]
        self.scale = 1.0 / len(targets)
        self.hidden = tuple(2 + i for i in hidden)  # user m's axis of B is 2 + m
        self.joint = tuple(sorted(2 + i for i in targets + hidden))
        self.u_den = self._b_sum(self.hidden) if hidden else None
        self.r_den = self._b_sum(self.joint)

    def _b_sum(self, axes):  # kept as size-1 axes, floored at _TINY
        return np.maximum(np.add.reduce(self.b, axis=axes, keepdims=True), _TINY)[..., None]

    def _sums(self, x):
        """x summed over the hidden users (x itself when none is hidden) and
        over the joint axes, kept as size-1 axes.  ``np.add.reduce`` is the
        reduction ``np.sum`` runs, without its argument handling, which at
        these sizes costs more than the sum."""
        x_u = np.add.reduce(x, axis=self.hidden, keepdims=True) if self.hidden else x
        return x_u, np.add.reduce(x, axis=self.joint, keepdims=True)

    def _levels(self, c, bc):
        """(BC_u, BC_r, log2(u/r)) at channel c, bc = B c, with (BC_u, BC_r)
        the ``_sums`` of bc; u = c when no user is hidden."""
        bc_u, bc_r = self._sums(bc)
        u = bc_u / self.u_den if self.hidden else c
        return bc_u, bc_r, _safe_log2(u) - _safe_log2(bc_r / self.r_den)

    def _value_terms(self, c):
        """(payoff in bits, log-ratio table) at channel c."""
        bc = self.b[..., None] * c
        lf = self._levels(c, bc)[2]
        return self.scale * float(np.add.reduce(bc * lf, axis=None)), lf

    def value(self, c):
        """Payoff in bits at channel c."""
        return self._value_terms(c)[0]

    def value_grad(self, c):
        """Payoff in bits at channel c and its gradient in the channel table."""
        value, lf = self._value_terms(c)
        return value, self.scale * np.add.reduce(self.b[..., None] * lf, axis=(0, 1))

    def segment(self, c, d):
        """phi(t) -> (slope, curvature) in bits of the payoff along c + t d.

        With bd = B d, the slope is scale sum bd log2(u/r): the derivatives
        of u and r cancel, as in the gradient.  The curvature is
        scale / ln 2 (sum BD_u^2 / BC_u - sum BD_r^2 / BC_r), with BD and
        BC the ``_sums`` of bd and bc, and BC floored at _TINY as the logs
        are.  bd and its sums are built once per segment.
        """
        bd = self.b[..., None] * d
        bd_u, bd_r = self._sums(bd)

        def phi(t):
            ct = c + t * d
            bc_u, bc_r, lf = self._levels(ct, self.b[..., None] * ct)
            slope = float(np.add.reduce(bd * lf, axis=None))
            curv = float(np.add.reduce(bd_u * bd_u / np.maximum(bc_u, _TINY), axis=None))
            curv -= float(np.add.reduce(bd_r * bd_r / np.maximum(bc_r, _TINY), axis=None))
            return self.scale * slope, self.scale / math.log(2.0) * curv

        return phi


def payoff_value_grad(c, problem, law, objective, subset=None, user=None):
    """Payoff in bits and its gradient with respect to the channel table.

    Every payoff is (1/|A|) I(X_A; Y | S, W, X_B): the targets A, the
    hidden users C summed out, and the rest, X_B, conditioned on.
    "detect_one" takes A = all users, "detect_all_part" A = ``subset``,
    and "simple" A = {``user``} (0 by default) with C the other users.
    With bc = B c, B the ``law_tensors`` product law over (s, w, x_1..x_K),
    u = sum_{x_C} bc / sum_{x_C} B (c when C is empty) and
    r = sum_{x_{A+C}} bc / sum_{x_{A+C}} B, the value is
    sum bc log2(u/r) / |A| and the gradient sum_{s,w} B log2(u/r) / |A|:
    the derivatives of u and r cancel.  A solver that evaluates one law
    at many channels builds a ``Payoff`` once instead.
    """
    payoff = Payoff(problem, law_tensors(problem, law), objective, subset, user)
    return payoff.value_grad(c)
