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
constant class is pinned to copy its symbol (see ``_Layout``).  Proper
subsets of the coalition under fair families, and hull families in
general, need the induced channel tied to explicit channel variables,
which makes those instances nonconvex; they are attacked by multistart and
the diagnostics say so.

Solved with SLSQP multistart rather than alternating projections; the
grid-oracle agreement tests are the accuracy contract.  SLSQP gets
analytic derivatives of the cost and of every constraint.  The layout
builds the linear maps from the variables to the tilted law, the
aggregated joint and the channel table once; each nonlinear piece (the
divergence, the information cap, the ties, a memoryless distortion) gives
its partials in the joint and the channel, and ``_Layout._chain`` carries
them back through those maps.  The first start runs phase 1 (drive the
information down under the structural constraints alone) before its
direct attempt, which then starts from the phase-1 point: the product
start is the cost's flat minimum, where the SLSQP subproblem degenerates.
A later start tries directly and falls back to phase 1 from itself.

A rate below the least information the constraint set allows has exponent
+inf, and a solve proves that at its first phase-1 point instead of
running every start.  The relaxation keeps only the pins and v >= 0: the
ties, the channel blocks and a distortion cap only shrink the feasible
set, so a bound over the relaxation holds for every layout, memoryless or
not.  On the pin polytope the information is a fixed sum of per-user
entropies less a conditional entropy, and a conditional entropy is
concave in the joint, so the information is convex there and its
linearization plus the pin multipliers of phase 1 give a weak-duality
lower bound with no LP (``_Layout.info_lower_bound``).  When that bound
clears the rate by ``_CERT_MARGIN`` the solve returns +inf with no
feasible start, and its info's ``info_lower_bound`` holds the bound; the
key is absent from every other solve.  Under marking a constant class is
pinned in both modes, so the memoryless marking layouts are certified
too.  Where the relaxation loses to the dropped constraints (a tied
single user) the bound is weak and the starts all run.

A feasible value is certified the same way on an untied layout, where the
program is convex: the cost is a divergence of linear maps of the
variables (an induced channel is its minimizer over channels), the
information is convex on the pin polytope, and a constrained distortion
cap is linear.  So each feasible start's SLSQP multipliers give a
Lagrangian lower bound on the exponent (``_Layout.value_lower_bound``),
reported as ``value_lower_bound``, and the multistart stops once its best
value is within ``_GAP_TOL`` of the best bound.  Tied layouts, and values
near 0 where the linear bound is loose, run every start.

SLSQP ends within ``_FEAS_TOL`` of the information cap, on either side,
and a multistart that took the lowest such value would keep the start
that overshoots the cap most, low by about the cap's multiplier times the
overshoot.  So a witness that overshoots is moved toward the
lowest-information phase-1 point until its information meets the rate
(the information is convex on that segment), and every returned minimizer
has information at most the rate.

The memoryless variant also solves the constrained program and keeps its
transplanted minimizer when that is lower, so it is dominated by
construction, unless its own value is certified: +inf, or within
``_GAP_TOL`` of a bound over a set that holds every transplanted point.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize

from .. import collusion
from .. import rng as rngmod
from ..errors import (ConfigError, InfeasibleError, float_array, index_set, int_at_least,
                      real_at_least)
from ..types_core import _LN2, _TINY, _divergence_terms, _safe_log2, multi_info_pmf
from .capacity import _fd_ascent, _frank_wolfe, _law_from_theta, _softmax, _theta_dim
from .problems import Distortion, FairMarking, Hull, Marking

__all__ = [
    "pseudo_sphere_packing",
    "memoryless_exponent_variant",
    "exponent_sweep",
    "solve_exponent_program",
]

_FEAS_TOL = 1e-7
# a point counts as feasible when it misses the information cap by up to
# _FEAS_TOL, so an infeasibility certificate must clear the rate by more
_CERT_MARGIN = 10 * _FEAS_TOL
# weights of the strictly positive pin point mixed into a point before a
# bound is taken there (``_Layout._mixed``); each gives a valid bound and the
# best is kept.  The light ones are tight at an interior optimum; the heavy
# one holds where the optimum sits on a face with tiny masses, whose log
# ratios swing with the lighter mixes
_CERT_MIX = (1e-12, 1e-9, 1e-6)
# a multistart on an untied layout stops once its best value is within
# _GAP_TOL of a Lagrangian lower bound (``_Layout.value_lower_bound``)
_GAP_TOL = 1e-8
# settings of the operating-point search: host-tilt rounds, restarts of
# each exponent solve, steps of each finite-difference ascent and its rule
_ROUNDS = 3
_PSP_RESTARTS = 3
_ASCENT_STEPS = 30
_ASCENT = dict(fd=1e-3, step0=0.5, min_step=1e-5, grad_tol=1e-7, gain_tol=1e-10)


def _checked_target(problem, law, subset, user, restarts, seed):
    """The target as (subset, None) or (None, user), once exactly one is
    given, the law is one of ``problem``'s, and ``restarts`` is an integer
    >= 1 and ``seed`` one >= 0.  The seed is checked here, not by
    `rng.derive`, because a program past its inner floor draws nothing."""
    problem.check_law(law)
    if not int_at_least(restarts, 1):
        raise ConfigError(f"restarts must be an integer >= 1, not {restarts!r}")
    if not int_at_least(seed, 0):
        raise ConfigError(f"the master seed must be an integer >= 0, not {seed!r}")
    if (subset is None) == (user is None):
        raise ConfigError("give exactly one of subset (joint) or user (marginal)")
    k = problem.coalition_size
    if subset is not None:
        a = index_set(subset, k, "subset")
        if not a:
            raise ConfigError("subset must be a nonempty set of colluder indices")
        return a, None
    return None, index_set((user,), k, "user")[0]


def _inner_floor(problem, law, subset, user):
    """Channel-game value whose crossing makes the exponent exactly zero."""
    objective = "simple" if subset is None else "detect_all_part"
    c, v, _ = _frank_wolfe(problem, law, objective, subset, user, False, 1e-10)
    return v, c


class _Layout:
    """Variable layout and tensor plumbing for one program instance.

    The vector is the tilted law's free (class, y) slots per active (s, w)
    cell, then the channel block.  Both are indexed by cell classes: the
    colluder orbits where the program is symmetric (the tilted law of a
    fair family's full set or single user; any fair family's channel
    table), single cells otherwise.  Under marking a constant class is
    pinned to copy its symbol.  The channel block is a class table
    (``table``), hull mixture weights (``lambda``) or absent (``none``).
    ``scatter_t`` unpacks the tilted law as one product with ``t_map``,
    which gives a C-contiguous array, so later sums over it add in one
    fixed order.
    """

    def __init__(self, problem, law, subset, user, memoryless):
        self.problem = problem
        self.law = law
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
        # under marking a constant class copies its symbol in the tilted law
        # too: tilted mass on any other output costs +inf in either mode
        pinned = marking

        # tilted law: which (class, y) slots are free
        self.ids, _, self.sizes, const = collusion._cell_classes(k, self.x, self.sym)
        fixed = pinned & (const >= 0)
        self.t_mask = ~fixed[:, None] | (np.arange(self.y) == const[:, None])
        self.t_per_cell = int(self.t_mask.sum())
        self.n_t = self.n_cells * self.t_per_cell

        # channel block
        if hull and not family.is_singleton and (memoryless or self.tied):
            self.ch_kind = "lambda"
            self.n_ch = len(family.vertices)
        elif not hull and (memoryless or self.tied):
            self.ch_kind = "table"
            self.ch_ids, self.ch_reps, _, ch_const = collusion._cell_classes(
                k, self.x, fair_family
            )
            fixed = (marking & (ch_const >= 0))[:, None]
            self.ch_template = 1.0 * (fixed & (np.arange(self.y) == ch_const[:, None]))
            self.ch_free = np.flatnonzero(~fixed[:, 0])
            self.n_ch = len(self.ch_free) * self.y
        else:
            self.ch_kind = "none"
            self.n_ch = 0
        self.dim = self.n_t + self.n_ch
        # ties on constant rows are vacuous under marking (both sides are
        # structurally zero), and vacuous residuals make the constraint
        # Jacobian singular, so only informative rows are emitted
        _, cell_reps, _, cell_const = collusion._cell_classes(k, self.x, False)
        self.tie_rows = np.flatnonzero(~(marking & (cell_const >= 0)))
        if subset is not None:
            rest = tuple(1 + i for i in range(k) if i not in subset) + (1 + k,)
            self.info_parts = [(1 + m,) for m in subset] + [rest]
            self.info_scale = 1.0 / len(subset)
        else:
            self.info_parts = [(1 + user,), (1 + k,)]
            self.info_scale = 1.0
        self._build_maps(cell_reps)

    def _build_maps(self, cell_reps):
        """The program's linear maps, built once.

        ``t_map`` takes one cell's free slots to its tilted law (X^K * Y
        entries, C order): a slot's mass goes to its single cell, or is
        spread evenly over its orbit.  ``p_map`` takes the whole tilted
        block to the joint summed over the active cells, and ``c_map`` the
        channel block to the channel table, less its constant part
        ``ch_const`` (the copy rows under marking).  The pins and channel
        norms are linear, so their Jacobians are stored.
        """
        rows, y, tpc = self.n_rows, self.y, self.t_per_cell
        slots = np.full(self.t_mask.shape, -1)
        slots[self.t_mask] = np.arange(tpc)
        cls = self.ids.ravel()
        r, yy = np.nonzero(slots[cls] >= 0)
        t_map = np.zeros((rows, y, tpc))
        t_map[r, yy, slots[cls][r, yy]] = 1.0 / self.sizes[cls[r]]
        self.t_map = t_map.reshape(rows * y, tpc)
        self.p_map = np.kron(self.omega[None, :], self.t_map)

        c_map = np.zeros((rows, y, self.n_ch))
        self.ch_const = np.zeros(self.xshape + (y,))
        if self.ch_kind == "table":
            self.ch_const = self.ch_template[self.ch_ids]
            pos = np.full(len(self.ch_reps), -1)
            pos[self.ch_free] = np.arange(len(self.ch_free))
            r = np.nonzero(pos[self.ch_ids.ravel()] >= 0)[0]
            for yy in range(y):
                c_map[r, yy, pos[self.ch_ids.ravel()[r]] * y + yy] = 1.0
            norms = np.kron(np.eye(len(self.ch_free)), np.ones((1, y)))
        elif self.ch_kind == "lambda":
            for i, vert in enumerate(self.problem.channel_class.vertices):
                c_map[..., i] = np.reshape(vert, (rows, y))
            norms = np.ones((1, self.n_ch))
        else:
            norms = np.zeros((0, 0))
        self.c_map = c_map.reshape(rows * y, self.n_ch)
        self.norm_jac = np.hstack([np.zeros((len(norms), self.n_t)), norms])

        # pins: user m's marginal of each cell's tilted law (only user 0
        # under symmetry; later users drop their last, implied, entry)
        target = self.law.p_x_given_sw[self.s_idx, self.w_idx]  # (n_cells, X)
        jac, rhs = [], []
        for m in [0] if self.sym else range(self.k):
            marg = (cell_reps[:, m] == np.arange(self.x)[:, None]).astype(float)
            block = marg @ t_map.reshape(rows, y * tpc)
            block = block.reshape(self.x, y, tpc).sum(axis=1)
            keep = self.x if m == 0 else self.x - 1
            jac.append(np.kron(np.eye(self.n_cells), block[:keep]))
            rhs.append(target[:, :keep].ravel())
        jac = np.vstack(jac)
        self.pin_jac = np.hstack([jac, np.zeros((len(jac), self.n_ch))])
        self.pin_target = np.concatenate(rhs)

    # -- tensors ---------------------------------------------------------

    def scatter_t(self, v):
        t = v[: self.n_t].reshape(self.n_cells, self.t_per_cell) @ self.t_map.T
        return t.reshape((self.n_cells,) + self.xshape + (self.y,))

    def joint(self, v):
        """Tilted joint law J(s, w, x_1..x_K, y) over the active cells."""
        return self.omega.reshape((-1,) + (1,) * (self.k + 1)) * self.scatter_t(v)

    def channel_table(self, v):
        if self.ch_kind == "none":
            return self.fixed_channel
        free = self.c_map @ v[self.n_t :]
        return self.ch_const + free.reshape(self.xshape + (self.y,))

    def gather(self, t, channel):
        rows = np.zeros((self.n_cells, len(self.sizes), self.y))
        flat = t.reshape(self.n_cells, self.n_rows, self.y)
        np.add.at(rows, (slice(None), self.ids.ravel()), flat)
        parts = [rows[:, self.t_mask].ravel()]
        if self.ch_kind == "table":
            rows = channel[tuple(self.ch_reps.T)]
            parts.append(rows[self.ch_free].ravel())
        elif self.ch_kind == "lambda":
            parts.append(np.full(self.n_ch, 1.0 / self.n_ch))
        return np.concatenate(parts)

    def _chain(self, d_joint, d_channel=None):
        """Gradient in v from the partials in the tilted joint (per active
        cell, or one table shared by every cell) and in the channel table."""
        d_joint = np.broadcast_to(d_joint, (self.n_cells,) + self.xshape + (self.y,))
        g_t = (self.omega[:, None] * d_joint.reshape(self.n_cells, -1)) @ self.t_map
        if d_channel is None:
            return np.concatenate([g_t.ravel(), np.zeros(self.n_ch)])
        return np.concatenate([g_t.ravel(), np.ravel(d_channel) @ self.c_map])

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
        """D(tilted || reference) in bits and its gradient in v.

        The logs are clipped at ``_TINY``, so SLSQP sees a smooth cost.  In
        the tilted joint the partial is log2(J / Q) + 1/ln 2 whether the
        channel is induced (its own terms cancel), fixed or a variable; a
        channel variable adds -sum_cells J / (c ln 2), taken as 0 where the
        reference is below ``_TINY``.  Where J = 0 the clipped log gives a
        finite slope near log2(_TINY) ~ -997, which pushes the mass back
        off the boundary, instead of the true -inf.
        """
        j, q = self._tilted_and_reference(v)
        d_joint = _safe_log2(j) - _safe_log2(q) + 1.0 / _LN2
        d_channel = None
        if self.n_ch:
            ratio = np.where(q > _TINY, j / np.maximum(q, _TINY), 0.0)
            d_channel = -(ratio * self.qref[..., None]).sum(axis=0) / _LN2
        value = float(_divergence_terms(j, q).sum())
        return value, self._chain(d_joint, d_channel)

    def true_value(self, v):
        """Objective with honest support handling: clipped logs keep SLSQP
        smooth, but a solution whose tilted mass sits on a reference zero
        has genuinely infinite divergence and must be reported as such."""
        j, q = self._tilted_and_reference(v)
        if float(j[q <= 1e-100].sum()) > 1e-9:
            return math.inf
        return max(float(_divergence_terms(j, q).sum()), 0.0)

    def _measure(self, v):
        """The tilted measure over the active cells (axis 0), normalized,
        and its total mass before normalizing."""
        j = self.joint(v)
        total = float(j.sum())
        return (j / total if total > 0 else j), total

    def info_value(self, v):
        """The capped empirical information: per watched user for a subset,
        plain mutual information for one user."""
        mu, _ = self._measure(v)
        return self.info_scale * multi_info_pmf(mu, self.info_parts, cond=(0,))

    def info_grad(self, v):
        """Gradient of ``info_value``.  For I = sum_i H(U_i | C) - H(U | C)
        the partial in the measure is the log-ratio table
        log2[p_{U,C} p_C^(m-1) / prod_i p_{U_i,C}] (m parts); normalizing
        by the total mass subtracts I and divides by that mass."""
        mu, total = self._measure(v)

        def log_marginal(axes):
            drop = tuple(a for a in range(1, mu.ndim) if a not in axes)
            return _safe_log2(mu.sum(axis=drop, keepdims=True))

        table = log_marginal(sum(self.info_parts, ()))
        table = table + (len(self.info_parts) - 1) * log_marginal(())
        for part in self.info_parts:
            table = table - log_marginal(part)
        table = np.broadcast_to(table, mu.shape)
        d_mu = (table - float(np.sum(mu * table))) / max(total, _TINY)
        return self.info_scale * self._chain(d_mu)

    def _mixed(self, v):
        """``v`` mixed with each weight of ``_CERT_MIX`` of a strictly
        positive point of the pins and the channel rows (each cell's product
        law, y uniform over its free slots; each free channel row uniform),
        so the clipped logs give the true gradient at each mixed point."""
        free = self.t_mask[self.ids]
        t_pos = self.prodx[..., None] * (free / free.sum(axis=-1, keepdims=True))
        c_pos = self.ch_const + (self.ch_const.sum(axis=-1, keepdims=True) == 0) / self.y
        pos = self.gather(t_pos, c_pos)
        v = np.asarray(v, dtype=float)
        return [(1.0 - w) * v + w * pos for w in _CERT_MIX]

    def _linear_bound(self, v, value, grad, lam):
        """The least, over the pin polytope, of the linearization at ``v`` of
        a function convex there, from its ``value`` and ``grad`` at ``v`` and
        any pin multipliers ``lam``.  With r = grad - pin_jac^T lam, every
        polytope point v* has value + <grad, v* - v> = value - <r, v> +
        <lam, target - pin_jac v> + <r, v*>, and <r, v*> is at least the sum
        of each cell's least r, as the pins make a cell's slots sum to one,
        plus each channel row's least r, as the norms make a row sum to one.
        """
        r = grad - self.pin_jac.T @ lam
        least = r[: self.n_t].reshape(self.n_cells, self.t_per_cell).min(axis=1).sum()
        if self.n_ch:
            rows = r[self.n_t :].reshape(-1, self.y if self.ch_kind == "table" else self.n_ch)
            least = least + rows.min(axis=1).sum()
        return value - float(r @ v) - float(lam @ self.pins(v)) + float(least)

    def info_lower_bound(self, v, lam):
        """A lower bound on ``info_value`` over the pin polytope, where it is
        convex (see the module docstring), from a point ``v`` near it and any
        pin multipliers ``lam``: the best linear bound at the points
        ``_mixed`` gives, each with ``lam``, ``-lam`` and 0.  The channel
        block's gradient is 0."""
        bounds = []
        for u in self._mixed(v):
            value, grad = self.info_value(u), self.info_grad(u)
            bounds += [
                self._linear_bound(u, value, grad, mult)
                for mult in (lam, -lam, np.zeros_like(lam))
            ]
        return max(bounds)

    def value_lower_bound(self, v, mult, rate):
        """A lower bound on the cost over the feasible set of an untied
        layout, from a point ``v`` and SLSQP's multipliers ``mult`` there
        (the equalities first, pins leading; the information cap last).  The
        Lagrangian F = f + mu (I - rate) - nu gap, with mu and nu clipped at
        0, is at most f on the feasible set, and convex on the pin polytope:
        the cost is a divergence of linear maps (the induced channel is its
        minimizer over channels), the information is convex there, and a
        constrained distortion gap is linear.  A memoryless one is
        bilinear, so its nu is 0.  The best linear bound of F at the points
        ``_mixed`` gives holds for every feasible point."""
        mu = max(float(mult[-1]), 0.0)
        nu = 0.0
        if self.distortion is not None and not self.memoryless:
            nu = max(float(mult[-2]), 0.0)
        lam = mult[: len(self.pin_target)]
        bounds = []
        for u in self._mixed(v):
            value, grad = self.objective(u)
            value = value + mu * (self.info_value(u) - rate)
            grad = grad + mu * self.info_grad(u)
            if nu:
                value = value - nu * self.distortion_gap(u)
                grad = grad - nu * self.distortion_grad(u)
            bounds.append(self._linear_bound(u, value, grad, lam))
        return float(max(bounds))

    def held_to_cap(self, v, anchor, rate):
        """``v`` when its information is at most ``rate``; else the point
        toward ``anchor`` (a phase-1 point under the cap) where it falls to
        the cap, when that point is still feasible; else None.  Both ends
        meet the pins and the information is convex between them, so the
        fraction t = (I(v) - rate) / (I(v) - I(anchor)) lands on the cap but
        for rounding, which doubling t absorbs."""
        over = self.info_value(v) - rate
        if over <= 0.0:
            return v
        under = rate - self.info_value(anchor)
        if under <= 0.0:
            return None
        t = over / (over + under)
        while t < 1.0:
            w = v + t * (anchor - v)
            if self.info_value(w) <= rate:
                break
            t = 2.0 * t
        else:
            w = anchor
        return w if self.is_feasible(w, rate) else None

    def info_gap(self, v, rate):
        return rate - self.info_value(v)

    def info_excess(self, v, rate):
        """The phase-1 objective, information minus rate, and its gradient."""
        return self.info_value(v) - rate, self.info_grad(v)

    def pins(self, v):
        return self.pin_jac @ v - self.pin_target

    def channel_norms(self, v):
        return self.norm_jac @ v - 1.0

    def tie_residuals(self, v):
        p_agg = self.joint(v).sum(axis=0)
        c = self.channel_table(v)
        resid = (p_agg - c * p_agg.sum(axis=-1, keepdims=True)).reshape(
            self.n_rows, self.y
        )
        return resid[self.tie_rows, :-1].ravel()

    def tie_jac(self, v):
        """Ties are bilinear: P - c * m in the aggregated joint P, its row
        mass m and the channel table c."""
        p_map = self.p_map.reshape(self.n_rows, self.y, self.n_t)
        c = np.reshape(self.channel_table(v), (self.n_rows, self.y, 1))
        mass = (p_map.sum(axis=1) @ v[: self.n_t])[:, None, None]
        d_t = p_map - c * p_map.sum(axis=1, keepdims=True)
        d_c = -mass * self.c_map.reshape(self.n_rows, self.y, self.n_ch)
        jac = np.concatenate([d_t, d_c], axis=2)
        return jac[self.tie_rows, :-1].reshape(-1, self.dim)

    def distortion_gap(self, v):
        p_agg = self.joint(v).sum(axis=0)
        cost = self.distortion._cost(self.y)
        if self.memoryless:
            c = self.channel_table(v)
            spent = float(np.sum(p_agg.sum(axis=-1)[..., None] * c * cost))
        else:
            spent = float(np.sum(p_agg * cost))
        return self.distortion.cap - spent

    def distortion_grad(self, v):
        """Gradient of ``distortion_gap``: linear in the joint, bilinear in
        the joint's row mass and the channel table when memoryless."""
        cost = self.distortion._cost(self.y)
        if not self.memoryless:
            return -self._chain(cost)
        c = self.channel_table(v)
        mass = self.joint(v).sum(axis=(0, -1))[..., None]
        spent_row = np.sum(c * cost, axis=-1, keepdims=True)
        return -self._chain(np.broadcast_to(spent_row, cost.shape), mass * cost)

    def constraints(self, rate):
        """SLSQP constraints with their Jacobians: the structural ones
        (pins, channel norms, ties, distortion) and the information cap."""
        def const(jac):
            return lambda v: jac

        structure = [{"type": "eq", "fun": self.pins, "jac": const(self.pin_jac)}]
        if self.ch_kind != "none":
            structure.append(
                {"type": "eq", "fun": self.channel_norms, "jac": const(self.norm_jac)}
            )
        if self.tied:
            structure.append(
                {"type": "eq", "fun": self.tie_residuals, "jac": self.tie_jac}
            )
        if self.distortion is not None:
            structure.append({
                "type": "ineq",
                "fun": lambda v: np.array([self.distortion_gap(v)]),
                "jac": lambda v: self.distortion_grad(v)[None, :],
            })
        info_con = {
            "type": "ineq",
            "fun": lambda v: np.array([self.info_gap(v, rate)]),
            "jac": lambda v: -self.info_grad(v)[None, :],
        }
        return structure, info_con

    def is_feasible(self, v, rate):
        structure, info_con = self.constraints(rate)
        eq_bad, ineq_bad = 0.0, 0.0
        for con in structure + [info_con]:
            r = con["fun"](v)
            if not len(r):
                continue
            if con["type"] == "eq":
                eq_bad = max(eq_bad, float(np.max(np.abs(r))))
            else:
                ineq_bad = min(ineq_bad, float(np.min(r)))
        return eq_bad <= _FEAS_TOL and ineq_bad >= -_FEAS_TOL


def _solve_program(rate, law, problem, subset, user, memoryless, restarts, seed, warm=None):
    """(value, minimizer or None, info) of one program at one rate.  With
    ``memoryless`` the constrained program is solved cold too, and its
    transplanted minimizer kept when feasible and lower (see
    ``memoryless_exponent_variant``), unless the memoryless value is
    certified: +inf by its information bound, or within ``_GAP_TOL`` of its
    value bound, over a set that holds every transplanted point."""
    subset, user = _checked_target(problem, law, subset, user, restarts, seed)
    if not real_at_least(rate, 0):
        raise ConfigError(f"rate must be a finite nonnegative number, not {rate!r}")

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
        return 0.0, None, info

    lay = _Layout(problem, law, subset, user, memoryless)
    info["fast_path"] = False
    info["tied"] = lay.tied
    val, vec, found = _multistart(lay, rate, c_floor, restarts, seed, warm)
    info.update(found)
    certified = "info_lower_bound" in found or (
        val - found.get("value_lower_bound", -math.inf) <= _GAP_TOL
    )
    if memoryless and not certified:
        lay_c = _Layout(problem, law, subset, user, False)
        _, c_vec, _ = _multistart(lay_c, rate, c_floor, restarts, seed)
        if c_vec is not None:
            w_vec = _transplant_warm(lay_c, lay, c_vec)
            if lay.is_feasible(w_vec, rate):
                w_val = lay.true_value(w_vec)
                if w_val < val:
                    val, vec = w_val, w_vec
    return val, vec, info


def _multistart(lay, rate, c_floor, restarts, seed, warm=None):
    """SLSQP from the product start at the floor channel, ``restarts`` - 1
    random ones and ``warm``; returns (value, minimizer or None, info keys):
    ``feasible_starts``, ``lowest_info_gap`` (the highest phase-1
    information gap), and ``info_lower_bound`` or ``value_lower_bound`` when
    one was taken.

    The first start runs phase 1 before its direct attempt: the phase-1
    point bounds the information from below, and a bound that clears the
    rate by ``_CERT_MARGIN`` ends the solve at +inf; otherwise the attempt
    starts there.  A later start tries directly and falls back to phase 1
    from itself.  A witness counts once it is held to the cap and its true
    value is finite.  On an untied layout each feasible start's multipliers
    bound the value from below, and the starts stop once the best value is
    within ``_GAP_TOL`` of the best bound."""
    structure, info_con = lay.constraints(rate)
    constraints = structure + [info_con]
    bounds = [(0.0, 1.0)] * lay.dim

    # the product start and restarts - 1 random ones draw exactly as in a
    # cold call; a warm vector comes after them, so it can only add a start
    gen = rngmod.derive(seed, "psp")
    q_x = (lay.omega.reshape((-1,) + (1,) * lay.k) * lay.prodx).sum(axis=0)
    starts = [lay.gather(lay.prodx[..., None] * c_floor[None], c_floor)]
    for _ in range(restarts - 1):
        try:
            c_r = lay.problem.channel_class.linmin(
                gen.normal(size=lay.xshape + (lay.y,)), q_x=q_x, fair=False
            )
        except InfeasibleError:
            c_r = c_floor
        mix = gen.uniform(0.3, 1.0)
        c_mixed = mix * c_r + (1.0 - mix) * c_floor
        starts.append(lay.gather(lay.prodx[..., None] * c_mixed[None], c_mixed))
    if warm is not None and len(warm) == lay.dim:
        starts.append(np.asarray(warm, dtype=float))

    def slsqp(fun, v_init, cons):
        return minimize(
            fun, v_init, method="SLSQP", jac=True, bounds=bounds, constraints=cons,
            options={"maxiter": 400, "ftol": 1e-12},
        )

    def seek_low_info(v0):
        # phase 1: drive the empirical information down under the structural
        # constraints alone; away from the zero-cost valley the gradients are
        # healthy, and the reached point seeds the direct attempt
        v_init = np.clip(v0 + gen.normal(0.0, 1e-3, lay.dim), 0.0, 1.0)
        return slsqp(lambda v: lay.info_excess(v, rate), v_init, structure)

    found = {"feasible_starts": 0, "lowest_info_gap": None}
    best_val, best_vec, best_bound = math.inf, None, -math.inf
    anchor = None  # the lowest-information phase-1 point so far
    for i, v0 in enumerate(starts):
        # a product start sits at the flat global minimum of the cost, which
        # degenerates the SLSQP subproblem, so the first start goes through
        # phase 1 first and a later one when its direct attempt stalls
        v_init, res = v0, None
        if i > 0:
            res = slsqp(lay.objective, v0, constraints)
        if res is None or not lay.is_feasible(res.x, rate):
            low = seek_low_info(v0)
            v_init = low.x
            gap = lay.info_gap(v_init, rate)
            if anchor is None or gap > found["lowest_info_gap"]:
                anchor, found["lowest_info_gap"] = v_init, gap
            if i == 0:
                # the pins are phase 1's first equality constraints; an older
                # SciPy reports no multipliers, and 0 gives a bound too
                lam = getattr(low, "multipliers", np.zeros(len(lay.pin_target)))
                bound = lay.info_lower_bound(v_init, lam[: len(lay.pin_target)])
                if bound > rate + _CERT_MARGIN:
                    found["info_lower_bound"] = bound
                    return math.inf, None, found
            res = slsqp(lay.objective, v_init, constraints)
        ok = lay.is_feasible(res.x, rate)
        # SLSQP can walk out of the constraint set from an already feasible
        # start; that start is then still a witness
        witness = res.x if ok else next(
            (u for u in (v_init, v0) if lay.is_feasible(u, rate)), None
        )
        if witness is not None:
            witness = lay.held_to_cap(witness, anchor, rate)
        val = math.inf if witness is None else lay.true_value(witness)
        if val == math.inf:
            continue
        found["feasible_starts"] += 1
        if val < best_val:
            best_val, best_vec = val, witness
        mult = getattr(res, "multipliers", None)
        if ok and not lay.tied and mult is not None:
            best_bound = max(best_bound, lay.value_lower_bound(res.x, mult, rate))
            found["value_lower_bound"] = best_bound
            if best_val - best_bound <= _GAP_TOL:
                break
    return best_val, best_vec, found


def _transplant_warm(lay_c, lay_m, c_vec):
    """A constrained-program vector of layout ``lay_c`` re-encoded in the
    memoryless layout ``lay_m``."""
    if lay_c.dim == lay_m.dim and lay_c.ch_kind == lay_m.ch_kind:
        return np.asarray(c_vec, dtype=float)
    p_agg = lay_c.joint(c_vec).sum(axis=0)
    mass = p_agg.sum(axis=-1, keepdims=True)
    c_real = np.where(
        mass > _TINY, p_agg / np.maximum(mass, _TINY), 1.0 / lay_c.y
    )
    return lay_m.gather(lay_c.scatter_t(c_vec), c_real)


def pseudo_sphere_packing(
    rate, input_law, problem, *, subset=None, user=None, restarts=6, seed=0,
    full_output=False,
):
    """Divergence exponent with the induced channel held inside the family.

    ``subset`` selects the joint program (empirical information between the
    watched users and everything else, averaged per user); ``user`` selects
    the marginal program (plain mutual information of one fingerprint with
    the output).  Returns +inf when the constraint set is empty.
    """
    out = _solve_program(rate, input_law, problem, subset, user, False, restarts, seed)
    return out if full_output else out[0]


def memoryless_exponent_variant(
    rate, input_law, problem, *, subset=None, user=None, restarts=6, seed=0,
    full_output=False,
):
    """Same program with the induced-channel feasibility dropped and the
    divergence reference minimized over the family instead; never exceeds
    the constrained exponent.

    That holds by construction: the relaxed constraint set contains every
    constrained point, re-encoded with its realized conditional as the
    channel table.  So the constrained program is solved cold, with the
    starts of a direct ``pseudo_sphere_packing`` call, and its minimizer,
    transplanted, is a witness whenever it is feasible here.  A memoryless
    value already certified (+inf, or within ``_GAP_TOL`` of its value
    bound) skips that solve: no transplanted point can beat it by more.
    """
    out = _solve_program(rate, input_law, problem, subset, user, True, restarts, seed)
    return out if full_output else out[0]


def _sweep(rates, input_law, problem, subset, user, memoryless, restarts, seed):
    """Yield (index, rate, value, info) in rising-rate order; the body of
    ``exponent_sweep``, which the CLI also reads for the per-rate info.
    Every setting is checked before the first rate, so an empty sweep
    refuses a bad one too."""
    _checked_target(problem, input_law, subset, user, restarts, seed)
    if not isinstance(memoryless, bool):
        raise ConfigError(f"memoryless must be true or false, not {memoryless!r}")
    rates = float_array(rates, "rates")
    if rates.ndim != 1:
        raise ConfigError("rates must be a list of numbers")
    prev_val, prev_vec = math.inf, None
    for i in np.argsort(rates):
        val, vec, info = _solve_program(
            rates[i], input_law, problem, subset, user, memoryless, restarts, seed, prev_vec
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
    ``_solve_program`` call with the carried minimizer as one start after
    those of a cold call, so no value exceeds the cold one.
    """
    sweep = _sweep(rates, input_law, problem, subset, user, memoryless, restarts, seed)
    out = {i: val for i, _, val, _ in sweep}
    return np.array([out[i] for i in sorted(out)], dtype=float)


def solve_exponent_program(rate, problem, *, seed=0, restarts=4):
    """Operating-point search: maximize the full-coalition exponent over the
    input law, with the host tilt minimized in between when a host is
    present.

    The middle minimization couples the blocks, so this is a multistart
    alternating heuristic; ``converged`` in the result reports whether the
    last round moved the value by less than 1e-4 bits, and no optimality is
    claimed beyond that.
    """
    if not int_at_least(restarts, 1):
        raise ConfigError(f"restarts must be an integer >= 1, not {restarts!r}")
    full = tuple(range(problem.coalition_size))
    l, s = problem.num_timeshare, problem.s_size

    def value(theta, p_tilde):
        return pseudo_sphere_packing(
            rate, _law_from_theta(problem, theta, p_tilde), problem, subset=full,
            restarts=_PSP_RESTARTS, seed=seed,
        )

    def ascend(theta, p_tilde):
        theta, val, _ = _fd_ascent(
            lambda t: value(t, p_tilde), theta, steps=_ASCENT_STEPS, **_ASCENT
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
        for _ in range(_ROUNDS):
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
        "input_law": replace(_law_from_theta(problem, theta, p_tilde)),
        "history": history,
        "converged": converged,
    }
