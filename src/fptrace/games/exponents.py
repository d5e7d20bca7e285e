"""Constrained divergence programs behind the false-negative exponents.

The decision variable is a joint law t(x_1..x_K, y | s, w) per active
(s, w) cell, pinned to the code's per-cell mark law on every single-user
marginal, required to induce a feasible coalition channel, and capped in
empirical information between the watched users and the rest.  The cost is
the divergence of the full tilted measure against the product reference
built from the induced channel; it decomposes into the inter-user
dependence, the channel's (s,w)-memory, and the host-type tilt, so it is
zero exactly at product points whose channel lies in the class.

Both the tilted law and the explicit channel table are stored per cell
class of X^K.  Where the program is permutation-invariant the classes are
the colluder orbits (lossless: the feasible set is permutation-invariant and
the cost is convex and symmetric, so averaging over coordinate permutations
never hurts); everywhere else they are single cells.  Under marking a
constant class is pinned to copy its symbol, and a single-cell law is
unpacked by a plain reshape so that its sums keep one fixed order (see
``_Layout``).  Proper subsets of the coalition under fair families, and
hull families in general, need the induced channel tied to explicit
channel variables, which makes those instances nonconvex; they are
attacked by multistart and the diagnostics say so.

Solved with SLSQP multistart rather than alternating projections; the
grid-oracle agreement tests are the accuracy contract.
"""

import itertools
import math

import numpy as np
from scipy.optimize import minimize

from .. import rng as rngmod
from ..collusion import input_orbits
from ..errors import ConfigError
from ..types_core import _TINY, _divergence_terms, multi_info_pmf
from .capacity import _fd_ascent, _frank_wolfe, _law_from_theta, _softmax, _theta_dim
from .problems import Distortion, FairMarking, Hull, Marking

__all__ = [
    "pseudo_sphere_packing",
    "memoryless_exponent_variant",
    "exponent_sweep",
    "solve_exponent_program",
]

_FEAS_TOL = 1e-7
# finite-difference ascent settings of the operating-point search
_ASCENT = dict(fd=1e-3, step0=0.5, min_step=1e-5, grad_tol=1e-7, gain_tol=1e-10)


def _resolve_target(problem, subset, user):
    if (subset is None) == (user is None):
        raise ConfigError("give exactly one of subset (joint) or user (marginal)")
    k = problem.coalition_size
    if subset is not None:
        a = tuple(sorted(set(int(i) for i in subset)))
        if not a or a[0] < 0 or a[-1] >= k:
            raise ConfigError("subset must be a nonempty set of colluder indices")
        return a, None
    m = int(user)
    if not 0 <= m < k:
        raise ConfigError("user index out of range")
    return None, m


def _inner_floor(problem, law, subset, user, tol=1e-10):
    """Channel-game value whose crossing makes the exponent exactly zero."""
    if subset is not None:
        c, v, _ = _frank_wolfe(
            problem, law, "detect_all_part", subset, None, False, tol, 10_000
        )
    else:
        c, v, _ = _frank_wolfe(problem, law, "simple", None, user, False, tol, 10_000)
    return v, c


def _cell_classes(k, x_size, orbits):
    """(ids, reps, sizes) of the colluder orbits of X^K, or of its single
    cells (identity classes, C order) when ``orbits`` is false."""
    if orbits:
        return input_orbits(k, x_size)
    n = x_size**k
    reps = list(itertools.product(range(x_size), repeat=k))
    return np.arange(n).reshape((x_size,) * k), reps, np.ones(n)


class _Layout:
    """Variable layout and tensor plumbing for one program instance.

    The vector is the tilted law's free (class, y) slots per active (s, w)
    cell, then the channel block.  Both are indexed by cell classes: the
    colluder orbits where the program is symmetric (the tilted law of a
    fair family's full set or single user; any fair family's channel
    table), single cells otherwise.  Under marking a constant class is
    pinned to copy its symbol.  The channel block is a class table
    (``table``), hull mixture weights (``lambda``) or absent (``none``).
    Single-cell tilted laws are unpacked by a plain reshape: indexing them
    with the identity classes gives a copy that is not C-contiguous once
    there are several (s, w) cells, and later sums over it would then add
    in another order and move results in the last bits.
    """

    def __init__(self, problem, law, subset, user, memoryless):
        self.problem = problem
        self.law = law
        self.subset = subset
        self.user = user
        self.memoryless = memoryless
        k = problem.coalition_size
        self.k = k
        self.x = problem.x_size
        self.y = problem.y_size
        self.xshape = (self.x,) * k
        self.n_rows = self.x**k

        p_tilde = law.p_s_tilde_given_w
        if p_tilde is None:
            p_tilde = np.broadcast_to(
                problem.p_host[None, :], (len(law.p_w), problem.s_size)
            )
        if np.any((p_tilde > 0) & (problem.p_host[None, :] <= 0)):
            raise ConfigError("tilted host law escapes the host support")

        cells = [
            (s, w)
            for w in range(len(law.p_w))
            for s in range(problem.s_size)
            if law.p_w[w] * p_tilde[w, s] > 0
        ]
        self.n_cells = len(cells)
        self.s_idx = np.array([c[0] for c in cells])
        self.w_idx = np.array([c[1] for c in cells])
        self.omega = np.array(
            [law.p_w[w] * p_tilde[w, s] for s, w in cells]
        )  # J weights
        ref_w = np.array([law.p_w[w] * problem.p_host[s] for s, w in cells])  # Q weights

        rows = law.p_x_given_sw[self.s_idx, self.w_idx]  # (n_cells, X)
        prodx = np.ones((len(cells),) + self.xshape)
        for m in range(k):
            prodx = prodx * rows.reshape((len(cells),) + (1,) * m + (self.x,) + (1,) * (k - m - 1))
        self.prodx = prodx
        self.qref = ref_w.reshape((-1,) + (1,) * k) * prodx

        family = problem.channel_class
        marking = isinstance(family, (FairMarking, Marking))
        fair_family = isinstance(family, FairMarking)
        hull = isinstance(family, Hull)
        full_set = subset is not None and len(subset) == k
        self.sym = fair_family and (full_set or user is not None)
        self.tied = not memoryless and (hull or (fair_family and not self.sym))
        self.distortion = family if isinstance(family, Distortion) else None
        self.fixed_channel = family.vertices[0] if hull and family.is_singleton else None
        # the memoryless program pins its channel table, not the tilted law
        pinned = marking and not memoryless

        # tilted law: which (class, y) slots are free
        self.ids, self.reps, self.sizes = _cell_classes(k, self.x, self.sym)
        mask = np.ones((len(self.reps), self.y), dtype=bool)
        for i, rep in enumerate(self.reps):
            if pinned and len(set(rep)) == 1:
                mask[i] = False
                mask[i, rep[0]] = True
        self.t_mask = mask
        self.t_per_cell = int(mask.sum())
        self.n_t = self.n_cells * self.t_per_cell

        # channel block
        if hull and not family.is_singleton and (memoryless or self.tied):
            self.ch_kind = "lambda"
            self.n_ch = len(family.vertices)
        elif not hull and (memoryless or self.tied):
            self.ch_kind = "table"
            self.ch_ids, self.ch_reps, _ = _cell_classes(k, self.x, fair_family)
            self.ch_template = np.zeros((len(self.ch_reps), self.y))
            self.ch_free = []
            for i, rep in enumerate(self.ch_reps):
                if marking and len(set(rep)) == 1:
                    self.ch_template[i, rep[0]] = 1.0
                else:
                    self.ch_free.append(i)
            self.n_ch = len(self.ch_free) * self.y
        else:
            self.ch_kind = "none"
            self.n_ch = 0
        self.dim = self.n_t + self.n_ch
        # ties on constant rows are vacuous under marking (both sides are
        # structurally zero), and vacuous residuals make the constraint
        # Jacobian singular, so only informative rows are emitted
        self.tie_rows = [
            r
            for r, cell in enumerate(itertools.product(range(self.x), repeat=k))
            if not (marking and len(set(cell)) == 1)
        ]

    # -- tensors ---------------------------------------------------------

    def scatter_t(self, v):
        rows = np.zeros((self.n_cells, len(self.reps), self.y))
        rows[:, self.t_mask] = v[: self.n_t].reshape(self.n_cells, self.t_per_cell)
        if self.sym:
            return rows[:, self.ids] / self.sizes[self.ids][..., None]
        return rows.reshape((self.n_cells,) + self.xshape + (self.y,))

    def joint(self, v):
        """Tilted joint law J(s, w, x_1..x_K, y) over the active cells."""
        return self.omega.reshape((-1,) + (1,) * (self.k + 1)) * self.scatter_t(v)

    def channel_table(self, v):
        vc = v[self.n_t :]
        if self.ch_kind == "table":
            rows = self.ch_template.copy()
            rows[self.ch_free] = vc.reshape(len(self.ch_free), self.y)
            return rows[self.ch_ids]
        if self.ch_kind == "lambda":
            mix = np.zeros(self.xshape + (self.y,))
            for lam, vert in zip(vc, self.problem.channel_class.vertices):
                mix = mix + lam * vert
            return mix
        return self.fixed_channel

    def gather(self, t, channel):
        rows = np.zeros((self.n_cells, len(self.reps), self.y))
        flat = t.reshape(self.n_cells, self.n_rows, self.y)
        np.add.at(rows, (slice(None), self.ids.ravel()), flat)
        parts = [rows[:, self.t_mask].ravel()]
        if self.ch_kind == "table":
            rows = np.array([channel[rep] for rep in self.ch_reps])
            parts.append(rows[self.ch_free].ravel())
        elif self.ch_kind == "lambda":
            parts.append(np.full(self.n_ch, 1.0 / self.n_ch))
        return np.concatenate(parts)

    # -- program pieces ---------------------------------------------------

    def _tilted_and_reference(self, v):
        j = self.joint(v)
        c = self.channel_table(v)
        if c is None:
            p_agg = j.sum(axis=0)
            denom = np.maximum(p_agg.sum(axis=-1, keepdims=True), _TINY)
            c = p_agg / denom
        return j, self.qref[..., None] * c[None]

    def objective(self, v):
        """D(tilted || reference) in bits with clipped logs, so SLSQP sees a
        smooth cost."""
        return float(_divergence_terms(*self._tilted_and_reference(v)).sum())

    def true_value(self, v):
        """Objective with honest support handling: clipped logs keep SLSQP
        smooth, but a solution whose tilted mass sits on a reference zero
        has genuinely infinite divergence and must be reported as such."""
        j, q = self._tilted_and_reference(v)
        if float(j[q <= 1e-100].sum()) > 1e-9:
            return math.inf
        return max(float(_divergence_terms(j, q).sum()), 0.0)

    def full_measure(self, v):
        mu = np.zeros(
            (self.problem.s_size, len(self.law.p_w)) + self.xshape + (self.y,)
        )
        mu[self.s_idx, self.w_idx] = self.joint(v)
        total = mu.sum()
        return mu / total if total > 0 else mu

    def info_gap(self, v, rate):
        mu = self.full_measure(v)
        if self.subset is not None:
            parts = [(2 + m,) for m in self.subset]
            rest = tuple(
                2 + i for i in range(self.k) if i not in self.subset
            ) + (2 + self.k,)
            parts.append(rest)
            val = multi_info_pmf(mu, parts, cond=(0, 1)) / len(self.subset)
        else:
            val = multi_info_pmf(
                mu, [(2 + self.user,), (2 + self.k,)], cond=(0, 1)
            )
        return rate - val

    def pins(self, v):
        t = self.scatter_t(v)
        users = [0] if self.sym else range(self.k)
        out = []
        target = self.law.p_x_given_sw[self.s_idx, self.w_idx]  # (n_cells, X)
        for m in users:
            axes = tuple(i for i in range(1, self.k + 2) if i != 1 + m)
            pm = t.sum(axis=axes)
            res = pm - target
            out.append(res if m == 0 else res[:, :-1])
        return np.concatenate([r.ravel() for r in out])

    def tie_residuals(self, v):
        p_agg = self.joint(v).sum(axis=0)
        c = self.channel_table(v)
        resid = (p_agg - c * p_agg.sum(axis=-1, keepdims=True)).reshape(
            self.n_rows, self.y
        )
        return resid[self.tie_rows, :-1].ravel()

    def channel_norms(self, v):
        vc = v[self.n_t :]
        if self.ch_kind == "table":
            return vc.reshape(len(self.ch_free), self.y).sum(axis=1) - 1.0
        if self.ch_kind == "lambda":
            return np.array([vc.sum() - 1.0])
        return np.zeros(0)

    def distortion_gap(self, v):
        p_agg = self.joint(v).sum(axis=0)
        cost = self.distortion._cost(self.y)
        if self.memoryless:
            c = self.channel_table(v)
            spent = float(np.sum(p_agg.sum(axis=-1)[..., None] * c * cost))
        else:
            spent = float(np.sum(p_agg * cost))
        return self.distortion.cap - spent


def _solve_program(
    rate, law, problem, subset, user, memoryless, restarts, seed, warm, full_output
):
    subset, user = _resolve_target(problem, subset, user)
    if rate < 0:
        raise ConfigError("rate must be nonnegative")

    floor, c_floor = _inner_floor(problem, law, subset, user)
    info = {
        "inner_floor": floor,
        "mode": "memoryless" if memoryless else "constrained",
    }
    untilted = law.p_s_tilde_given_w is None or np.allclose(
        law.p_s_tilde_given_w, problem.p_host[None, :], atol=1e-12
    )
    if untilted and rate >= floor - 1e-12:
        # a product point with the floor channel is feasible and costs zero
        info.update({"fast_path": True, "feasible_starts": 0})
        return (0.0, None, info) if full_output else 0.0

    lay = _Layout(problem, law, subset, user, memoryless)
    info["fast_path"] = False
    info["tied"] = lay.ch_kind != "none" and not memoryless

    structure = [{"type": "eq", "fun": lay.pins}]
    if lay.ch_kind != "none":
        structure.append({"type": "eq", "fun": lay.channel_norms})
    if lay.tied:
        structure.append({"type": "eq", "fun": lay.tie_residuals})
    if lay.distortion is not None:
        structure.append(
            {"type": "ineq", "fun": lambda v: np.array([lay.distortion_gap(v)])}
        )
    info_con = {"type": "ineq", "fun": lambda v: np.array([lay.info_gap(v, rate)])}
    constraints = structure + [info_con]
    bounds = [(0.0, 1.0)] * lay.dim

    gen = rngmod.derive(seed, "psp")
    q_x = (lay.omega.reshape((-1,) + (1,) * lay.k) * lay.prodx).sum(axis=0)
    starts = []
    if warm is not None and len(warm) == lay.dim:
        starts.append(np.asarray(warm, dtype=float))
    starts.append(lay.gather(lay.prodx[..., None] * c_floor[None], c_floor))
    for _ in range(max(restarts - len(starts), 0)):
        try:
            c_r = problem.channel_class.linmin(
                gen.normal(size=lay.xshape + (lay.y,)), q_x=q_x, fair=False
            )
        except Exception:
            c_r = c_floor
        mix = gen.uniform(0.3, 1.0)
        c_mixed = mix * c_r + (1.0 - mix) * c_floor
        starts.append(lay.gather(lay.prodx[..., None] * c_mixed[None], c_mixed))

    def is_feasible(v):
        vals = [(c["type"], c["fun"](v)) for c in constraints]
        eq_bad = max(
            float(np.max(np.abs(r))) if len(r) else 0.0 for kind, r in vals if kind == "eq"
        )
        ineq_bad = min(
            float(np.min(r)) if len(r) else 0.0 for kind, r in vals if kind == "ineq"
        )
        return eq_bad <= _FEAS_TOL and ineq_bad >= -_FEAS_TOL

    def slsqp(fun, v_init, cons):
        return minimize(
            fun, v_init, method="SLSQP", bounds=bounds, constraints=cons,
            options={"maxiter": 400, "ftol": 1e-12},
        )

    def attempt(v_init):
        return slsqp(lay.objective, v_init, constraints)

    def seek_low_info(v_init):
        # phase 1: drive the empirical information down under the structural
        # constraints alone; away from the zero-cost valley the gradients are
        # healthy, and the reached value certifies (in)feasibility
        return slsqp(lambda v: -lay.info_gap(v, rate), v_init, structure).x

    best_val = math.inf
    best_vec = None
    feasible = 0
    lowest_gap = -math.inf
    for v0 in starts:
        # product starts sit at the flat global minimum of the cost, which
        # degenerates the SLSQP subproblem; retry off-center, then via a
        # low-information phase-1 point if the direct attempt stalls
        res = attempt(v0)
        ok = is_feasible(res.x)
        if not ok:
            v1 = seek_low_info(
                np.clip(v0 + gen.normal(0.0, 1e-3, lay.dim), 0.0, 1.0)
            )
            lowest_gap = max(lowest_gap, lay.info_gap(v1, rate))
            res = attempt(v1)
            ok = is_feasible(res.x)
        # SLSQP can walk out of the constraint set from an already feasible
        # start; the start itself is then still a witness
        witness = res.x if ok else (v0 if is_feasible(v0) else None)
        if witness is not None:
            feasible += 1
            val = lay.true_value(witness)
            if val < best_val:
                best_val, best_vec = val, witness
    info["feasible_starts"] = feasible
    info["lowest_info_gap"] = None if lowest_gap == -math.inf else lowest_gap
    if best_vec is None:
        best_val = math.inf
    return (best_val, best_vec, info) if full_output else best_val


def pseudo_sphere_packing(
    rate,
    input_law,
    problem,
    *,
    subset=None,
    user=None,
    restarts=6,
    seed=0,
    warm_start=None,
    full_output=False,
):
    """Divergence exponent with the induced channel held inside the family.

    ``subset`` selects the joint program (empirical information between the
    watched users and everything else, averaged per user); ``user`` selects
    the marginal program (plain mutual information of one fingerprint with
    the output).  Returns +inf when the constraint set is empty.
    """
    return _solve_program(
        rate, input_law, problem, subset, user, False, restarts, seed, warm_start,
        full_output,
    )


def memoryless_exponent_variant(
    rate,
    input_law,
    problem,
    *,
    subset=None,
    user=None,
    restarts=6,
    seed=0,
    warm_start=None,
    full_output=False,
):
    """Same program with the induced-channel feasibility dropped and the
    divergence reference minimized over the family instead; never exceeds
    the constrained exponent."""
    val, vec, info = _solve_program(
        rate, input_law, problem, subset, user, True, restarts, seed, warm_start,
        True,
    )
    if math.isinf(val):
        # the relaxed constraint set contains every constrained minimizer,
        # so a multistart miss here can be repaired by solving the tied
        # program and transplanting its tilt with the realized conditional
        c_val, c_vec, _ = _solve_program(
            rate, input_law, problem, subset, user, False, restarts, seed, None,
            True,
        )
        if c_vec is not None:
            warm = _transplant_warm(problem, input_law, subset, user, c_vec)
            val, vec, info = _solve_program(
                rate, input_law, problem, subset, user, True, 1, seed, warm, True
            )
    return (val, vec, info) if full_output else val


def _transplant_warm(problem, input_law, subset, user, c_vec):
    """Re-encode a constrained-program solution in the memoryless layout."""
    subset, user = _resolve_target(problem, subset, user)
    lay_c = _Layout(problem, input_law, subset, user, False)
    lay_m = _Layout(problem, input_law, subset, user, True)
    if lay_c.dim == lay_m.dim and lay_c.ch_kind == lay_m.ch_kind:
        return np.asarray(c_vec, dtype=float)
    p_agg = lay_c.joint(c_vec).sum(axis=0)
    mass = p_agg.sum(axis=-1, keepdims=True)
    c_real = np.where(
        mass > _TINY, p_agg / np.maximum(mass, _TINY), 1.0 / lay_c.y
    )
    return lay_m.gather(lay_c.scatter_t(c_vec), c_real)


def _sweep(rates, input_law, problem, subset, user, memoryless, restarts, seed):
    """Yield (index, rate, value, info) in rising-rate order; the body of
    ``exponent_sweep``, which the CLI also reads for the per-rate info."""
    solver = memoryless_exponent_variant if memoryless else pseudo_sphere_packing
    rates = np.asarray(list(rates), dtype=float)
    prev_val, prev_vec = math.inf, None
    for i in np.argsort(rates):
        val, vec, info = solver(
            rates[i], input_law, problem, subset=subset, user=user,
            restarts=restarts, seed=seed, warm_start=prev_vec, full_output=True,
        )
        if val > prev_val:
            val, vec = prev_val, prev_vec
        prev_val, prev_vec = val, vec
        yield i, rates[i], val, info


def exponent_sweep(
    rates,
    input_law,
    problem,
    *,
    subset=None,
    user=None,
    memoryless=False,
    restarts=6,
    seed=0,
):
    """Exponents across rates, warm-started along the sweep.

    Because the feasible set only grows with the rate, the minimizer found
    at a lower rate stays feasible at any higher one; carrying it forward
    makes the reported sequence honestly nonincreasing.  Each rate is one
    call of ``pseudo_sphere_packing`` or, with ``memoryless``, of
    ``memoryless_exponent_variant`` (repair included).
    """
    rates = np.asarray(list(rates), dtype=float)
    out = np.empty_like(rates)
    for i, _, val, _ in _sweep(
        rates, input_law, problem, subset, user, memoryless, restarts, seed
    ):
        out[i] = val
    return out


def solve_exponent_program(
    rate,
    problem,
    *,
    seed=0,
    restarts=4,
    rounds=3,
    psp_restarts=3,
    ascent_steps=30,
):
    """Operating-point search: maximize the full-coalition exponent over the
    input law, with the host tilt minimized in between when a host is
    present.

    The middle minimization couples the blocks, so this is a multistart
    alternating heuristic; ``converged`` in the result reports whether the
    last round moved the value by less than 1e-4 bits, and no optimality is
    claimed beyond that.
    """
    full = tuple(range(problem.coalition_size))
    l, s = problem.num_timeshare, problem.s_size

    def value(theta, p_tilde):
        return pseudo_sphere_packing(
            rate, _law_from_theta(problem, theta, p_tilde), problem, subset=full,
            restarts=psp_restarts, seed=seed,
        )

    def ascend(theta, p_tilde):
        theta, val, _ = _fd_ascent(
            lambda t: value(t, p_tilde), theta, steps=ascent_steps, **_ASCENT
        )
        return theta, val

    gen = rngmod.derive(seed, "epsp")
    dim = _theta_dim(problem)
    best = (None, -math.inf)
    for r in range(restarts):
        theta = np.zeros(dim) if r == 0 else gen.normal(0.0, 1.5, dim)
        theta, val = ascend(theta, None)
        # an infeasible-program start reports +inf; it only stands if no
        # restart ever reaches a finite exponent
        better = (
            val > best[1]
            if math.isfinite(val) == math.isfinite(best[1])
            else math.isfinite(val) or best[0] is None
        )
        if better:
            best = (theta, val)
    theta, val = best

    p_tilde = None
    history = [val]
    converged = True
    if s > 1:
        converged = False
        for _ in range(rounds):
            # descend over the host tilt at fixed encoder
            tilt, _, _ = _fd_ascent(
                lambda tv: value(theta, _softmax(tv.reshape(l, s))),
                np.zeros(l * s), steps=20, sign=-1, **_ASCENT,
            )
            p_tilde = _softmax(tilt.reshape(l, s))
            theta, val = ascend(theta, p_tilde)
            history.append(val)
            if len(history) > 1 and abs(history[-1] - history[-2]) < 1e-4:
                converged = True
                break
    return {
        "value": val,
        "input_law": _law_from_theta(problem, theta, p_tilde),
        "history": history,
        "converged": converged,
    }
