"""Max-min capacity games at small alphabets.

The inner minimization over the channel polytope is Frank-Wolfe with exact
line search; the payoffs are convex in the channel, so the linearization
gap is a valid optimality certificate.  A solve stops when the gap falls
below its tolerance, after ``_MAX_ITER`` iterations, or when a line search
does not lower the value.  The input law is fixed within a solve, so the
line searches use one ``Payoff`` built once per solve; the gradient is
taken once per iteration, at the accepted point, by one
``payoff_value_grad`` call that builds the law's tensors anew.  Each line
search (`minimize_scalar`) is a safeguarded Newton search for the root of
the payoff's slope along the segment, which is convex there;
``Payoff.segment`` gives its slope and curvature from the tables the value
uses.  It keeps SciPy's name, which perfbench's traced run wraps.

The outer maximization over the input law is multistart gradient ascent on
a softmax parameterization (the payoff is generally nonconcave in the mark
law, so local optima are collected and the spread is reported rather than
hidden).

The ascent's gradient comes from Danskin's theorem: with the worst channel
of the accepted point held fixed, the payoff's gradient in the law is the
value's own, one analytic gradient a step and no inner solve
(``Payoff.value_law_grad``, chained through ``law_tensors``' product law).
It is taken at the one weakest part that ``inner_min_channel`` chose, and
at the law the ascent built for that solve.  The ascent steps along the
natural gradient g - <p, g> of each softmax block, g = dV/dp, which is the
gradient in theta divided by p: a mirror-ascent step on the simplex, which
does not stall where an entry of p is near 0 as the gradient in theta
does.  Two cases take forward differences of full inner solves in theta
instead: a Distortion family, whose polytope moves with the law, and a
point whose Frank-Wolfe gap did not close below the inner tolerance.
Moves are accepted on full solves only.  ``value_evaluations`` counts the
full solves of the ascent (its starts, line-search trials and forward
differences); ``model_gradients`` counts the analytic gradients and
``full_probe_points`` the evaluated points that had none.

The ascent's inner solves start warm.  ``solve_capacity`` keeps one table
per part (objective, subset, user) for the whole call, across its starts,
and each ascent solve of a part starts Frank-Wolfe from the table the
part's last solve returned: the laws move by small steps, and so does the
worst channel.  Any table of the part's polytope is a valid start, and the
gap certifies the value as from a cold start; on the K=3 benchmark solve
the Frank-Wolfe iterations fell from 1,093 to 402.  Three kinds of solve
start cold, at the family's start channel: the grid pass, whose pruning
bounds a law's value by the payoff there; the final solve at the best
law, so the reported channel depends on that law alone; and every
Distortion family, whose polytope moves with the law, so a table kept
from another law may leave it.

In low dimension three of the starts are the best laws of a coarse grid.
Frank-Wolfe only lowers its value, so the least payoff over a law's parts,
each at its start channel, bounds the law's value from above; the grid
pass solves laws in decreasing order of that bound and stops when no law
left can enter the best three, which are then those of a full scoring.
On FairMarking K=2 L=2 detect-all at grid 8 it solves 25 of 729 laws.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np

from .. import rng as rngmod
from ..errors import BudgetExceededError, ConfigError, index_set, int_at_least, real_at_least
from .problems import (
    Distortion,
    GameProblem,
    GameSolution,
    InputLaw,
    Payoff,
    law_tensors,
    payoff_value_grad,
)

__all__ = ["inner_min_channel", "solve_capacity"]

_FD_STEP = 1e-4
# Frank-Wolfe's iteration cap, and the gap below which the ascent's inner
# solves stop
_MAX_ITER = 10_000
_INNER_TOL = 1e-8
# a line search stops when its step falls below _SQRT_EPS t + _XATOL / 3,
# the tolerance of a bounded Brent search at xatol 1e-12
_SQRT_EPS = math.sqrt(2.2e-16)
_XATOL = 1e-12
# well above the 42 halvings of [0, 1] in which bisection alone meets it
_MAX_SLOPE_EVALS = 100
# the most laws a grid pass builds: about 55 MB of laws and 75 us of start
# bound per law and part, 20 times the 4,913 of the largest default grid
_MAX_GRID_LAWS = 100_000


def minimize_scalar(phi, slope0):
    """Minimizer on [0, 1] of a convex function whose slope and curvature
    at t are ``phi(t)``, with ``slope0`` < 0 its slope at 0.

    A slope <= 0 at 1 takes the full step.  Otherwise the first trial is
    the secant root of the slope between 0 and 1, and every later trial a
    Newton step from the last point; a step that leaves the bracket
    [lo, hi] of the slope's sign change, or one taken where the curvature
    is not > 0, is replaced by bisection.  The search stops when a step is
    below Brent's tolerance, sqrt(eps) t + xatol / 3 at xatol = 1e-12.  A
    NaN slope returns lo.  The name is kept because perfbench's traced run
    wraps ``capacity.minimize_scalar`` as ``games.capacity.line_search``;
    ROADMAP item 1b renames it once the benchmark reads library counters.
    """
    slope = phi(1.0)[0]
    if not slope > 0:  # a full step, or a NaN slope
        return 1.0 if slope <= 0 else 0.0
    lo, hi, t = 0.0, 1.0, 1.0
    step = slope0 / (slope0 - slope) - t  # to the secant root
    for _ in range(_MAX_SLOPE_EVALS):
        if not lo <= t + step <= hi:  # a NaN step included
            step = 0.5 * (lo + hi) - t
        if abs(step) < _SQRT_EPS * t + _XATOL / 3.0:
            return t + step
        t += step
        slope, curv = phi(t)
        if math.isnan(slope):
            return lo
        if slope > 0:
            hi = t
        else:
            lo = t
        step = -slope / curv if curv > 0 else math.nan
    return t


def _fw_start(problem, law, objective, subset, user, fair):
    """A part's Frank-Wolfe start at law: (payoff, q_x, start channel).

    ``payoff.value(c)`` is the solve's first value, bit for bit: the first
    gradient call builds the same tensors and runs the same value terms.
    """
    k = problem.coalition_size
    tensors = law_tensors(problem, law)
    q_x = tensors[0].reshape((-1,) + (problem.x_size,) * k).sum(axis=0)
    payoff = Payoff(problem, tensors, objective, subset=subset, user=user)
    c = problem.channel_class.start(k, problem.x_size, problem.y_size, q_x=q_x, fair=fair)
    return payoff, q_x, c


def _frank_wolfe(problem, law, objective, subset, user, fair, tol, start=None):
    """One part's minimum at law, from ``start`` (a table in the part's
    polytope) or else the family's start channel: (table, value, info)."""
    family = problem.channel_class
    payoff, q_x, c = _fw_start(problem, law, objective, subset, user, fair)
    if start is not None:
        c = start

    def vg(c):
        return payoff_value_grad(c, problem, law, objective, subset=subset, user=user)

    value, grad = vg(c)
    for it in range(1, _MAX_ITER + 1):
        vertex = family.linmin(grad, q_x=q_x, fair=fair)
        gap = float(np.sum(grad * (c - vertex)))
        if gap < tol:
            break
        d = vertex - c
        cand = c + minimize_scalar(payoff.segment(c, d), -gap) * d
        # only a strictly lower value is taken (a NaN is not), so the
        # value never rises above the start's
        if not payoff.value(cand) < value:  # the line search stalled
            break
        c = cand
        value, grad = vg(c)
    return c, value, {"iterations": it, "gap": gap}


def _subsets(k):
    for size in range(1, k + 1):
        yield from itertools.combinations(range(k), size)


def _parts(problem, subset):
    """The convex parts of one inner game, as (objective, subset, user, fair);
    the game's value is the min over its parts of each part's minimum."""
    k = problem.coalition_size
    if subset is not None:
        return [("detect_all_part", index_set(subset, k, "subset"), None, False)]
    if problem.objective == "simple":
        return [("simple", None, 0, True)]
    if problem.objective == "detect_one":
        return [("detect_one", None, None, True)]
    if problem.objective == "detect_all":
        return [
            ("detect_all_part", a, None, False)
            for a in _subsets(k)
        ]
    raise ConfigError(f"unknown objective {problem.objective!r}")


def inner_min_channel(
    input_law,
    problem,
    *,
    subset=None,
    tol=1e-8,
    full_output=False,
    _warm=None,
):
    """Worst-case channel and payoff value for a fixed input law.

    The detect-one and simple payoffs are minimized over the fair members
    of the channel family; detect-all is minimized over the family as given,
    jointly with the choice of the weakest coalition subset (each subset
    problem is convex, so the min over subsets of exact minima is exact).
    This is the one place a game's weakest part is chosen: the part of
    least value, the first on an exact tie.  With ``full_output`` the info
    dict also holds ``parts``, one (objective, subset, user, table, gap)
    per part solved, and ``weakest``, the weakest one's index among them.
    ``tol`` is the gap at which a part's solve stops, a finite number > 0.
    ``subset`` picks one detect-all part.  The single-user game needs no
    user: under a fair channel every user's I(X_m; Y | S, W) is the same,
    so it solves user 0's.

    Each part's solve starts at the family's start channel.  The capacity
    ascent alone passes ``_warm``, a dict from (objective, subset, user)
    to the part's last table: a part found there starts from it, and every
    part's table is written back.  Nothing checks that a kept table is in
    its part's polytope (an unfair table would give a fair part a wrong
    minimum), so the dict is private to one problem with a fixed polytope.
    """
    problem.check_law(input_law)
    if not real_at_least(tol, 0) or tol == 0:
        raise ConfigError(f"tol must be a finite number > 0, not {tol!r}")
    parts = []
    values = []
    iterations = 0
    for objective, a, m, fair in _parts(problem, subset):
        key = (objective, a, m)
        start = None if _warm is None else _warm.get(key)
        c, v, info = _frank_wolfe(problem, input_law, objective, a, m, fair, tol, start)
        if _warm is not None:
            _warm[key] = c
        iterations += info["iterations"]
        parts.append((objective, a, m, c, info["gap"]))
        values.append(v)
    weakest = min(range(len(parts)), key=values.__getitem__)
    _, a, _, c, gap = parts[weakest]
    spec = problem.wrap_channel(c)
    if full_output:
        info = {"iterations": iterations, "gap": gap, "parts": parts, "weakest": weakest}
        if a is not None:
            info["subset"] = a
        return spec, values[weakest], info
    return spec, values[weakest]


# ---------------------------------------------------------------------------
# outer maximization


def _theta_dim(problem):
    return problem.num_timeshare + problem.s_size * problem.num_timeshare * problem.x_size


def _softmax(t):
    """Softmax over the last axis."""
    e = np.exp(t - t.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _law_from_theta(problem, theta, p_tilde=None):
    """The input law at theta.  Softmax rows are pmfs by construction, so the
    law skips InputLaw's checks; a solver validates the law it returns."""
    l, s, x = problem.num_timeshare, problem.s_size, problem.x_size
    return InputLaw._trusted(
        _softmax(theta[:l]), _softmax(theta[l:].reshape(s, l, x)), p_tilde
    )


def _theta_from_law(problem, law):
    eps = 1e-12
    tw = np.log(law.p_w + eps)
    tx = np.log(law.p_x_given_sw + eps)
    return np.concatenate([tw, tx.ravel()])


def _penalty_weight(problem):
    """The embedding-cap penalty per unit of excess: 1e3 in units of the
    range of ``d1``, so that the cap holds at any cost scale."""
    return 1e3 / (float(np.ptp(problem.d1)) or 1.0)


def _penalty(problem, law):
    """Soft embedding-cap penalty subtracted from the game value."""
    if problem.d1_cap is None:
        return 0.0
    excess = law.embedding_cost(problem) - problem.d1_cap
    return _penalty_weight(problem) * excess if excess > 0 else 0.0


def _penalized_value(problem, law, inner_tol, warm=None):
    """(penalized game value, anchor) at law.

    The anchor is law and the inner solve's weakest part, as its
    (objective, subset, user, table, gap), or None when the tables cannot
    give the gradient: a Distortion polytope moves with the law, and a
    part whose Frank-Wolfe gap did not close has no certified minimizer.
    ``warm`` is the ascent's dict of each part's last table, passed to the
    inner solve except on a Distortion family.
    """
    moving = isinstance(problem.channel_class, Distortion)
    _, v, info = inner_min_channel(
        law, problem, tol=inner_tol, full_output=True, _warm=None if moving else warm
    )
    parts = info["parts"]
    open_gap = moving or any(part[-1] >= inner_tol for part in parts)
    return v - _penalty(problem, law), None if open_gap else (law, parts[info["weakest"]])


def _held_gradient(problem, anchor):
    """(dV/dp_w, dV/dp(x|s,w)) at the anchor's law of the penalized payoff
    V of the anchor's weakest part, its channel held fixed.

    The held table is feasible at any law, so V bounds the game value
    from above and touches it at the anchor; by Danskin's theorem its
    gradient there is the value's own.  The payoff's gradient in B is
    chained through B = p_S p_W prod_m p(x_m|s,w) by summing out the
    other users' axes against the mark law, so no law entry divides, and
    the penalty's gradient is subtracted while the cap is exceeded.
    """
    law, (objective, a, m, c, _) = anchor
    _, g_b = Payoff(problem, law_tensors(problem, law), objective, a, m).value_law_grad(c)
    px = law.p_x_given_sw
    held = []  # per user m: g_b summed against every other user's mark law
    for m in range(problem.coalition_size):
        t = np.moveaxis(g_b, 2 + m, -1)
        for _ in range(problem.coalition_size - 1):
            t = np.einsum("sw...ab,swa->sw...b", t, px)
        held.append(t)
    g_w = problem.p_host @ np.sum(held[0] * px, axis=-1)
    g_x = (problem.p_host[:, None] * law.p_w)[..., None] * sum(held)
    if _penalty(problem, law) > 0:
        weight = _penalty_weight(problem)
        g_w -= weight * np.einsum("s,swx,sx->w", problem.p_host, px, problem.d1)
        g_x -= weight * np.einsum("s,w,sx->swx", problem.p_host, law.p_w, problem.d1)
    return g_w, g_x


def _natural_gradient(problem, anchor):
    """g - <p, g> for each softmax block p of the anchor's law, g = dV/dp
    from ``_held_gradient``: the gradient in theta divided by p, so it
    stays finite where an entry of p underflows to 0."""
    law = anchor[0]
    g_w, g_x = _held_gradient(problem, anchor)
    px = law.p_x_given_sw
    return np.concatenate([
        g_w - law.p_w @ g_w,
        (g_x - np.sum(px * g_x, axis=-1, keepdims=True)).ravel(),
    ])


def _fd_ascent(
    f, theta, *, steps, fd, step0, min_step, grad_tol, gain_tol, sign=+1, gradient=None
):
    """Gradient ascent of f (sign=+1) or descent (sign=-1).

    Without ``gradient`` each step takes the forward-difference gradient
    at the current point, one more evaluation of f at theta + fd e_i per
    coordinate.  With ``gradient``, f returns (value, anchor), and the
    step's gradient is ``gradient(anchor)``, taken without evaluating f
    (for the capacity ascent, the natural gradient at the point's law and
    weakest part); a None anchor has no gradient, and its step
    takes forward differences of f.  Then it tries theta + sign s g/|g| for s = s0,
    s0/4, ... while s > min_step, with s0 = min(step0, 4 x the last step
    taken), and moves to the first point where sign f beats sign f(theta)
    by more than gain_tol: moves are taken on true f values only.  It
    stops after ``steps`` moves, when |g| < grad_tol, or when no trial
    point gains.  A non-finite start is returned at once, a non-finite
    gradient component counts as zero, and a non-finite trial point is
    never taken.  Returns (theta, f(theta), number of f evaluations).
    """
    evaluate = f if gradient is not None else (lambda t: (f(t), None))
    theta = np.array(theta, dtype=float)
    cur, anchor = evaluate(theta)
    evals = 1
    if not math.isfinite(cur):
        return theta, cur, evals
    last = step0
    for _ in range(steps):
        if anchor is None:
            grad = np.empty_like(theta)
            for i in range(len(theta)):
                bumped = theta.copy()
                bumped[i] += fd
                grad[i] = (evaluate(bumped)[0] - cur) / fd
            evals += len(theta)
        else:
            grad = gradient(anchor)
        grad[~np.isfinite(grad)] = 0.0
        norm = float(np.linalg.norm(grad))
        if norm < grad_tol:
            break
        step = min(step0, 4.0 * last)
        while step > min_step:
            cand = theta + sign * step * grad / norm
            cv, cand_anchor = evaluate(cand)
            evals += 1
            if math.isfinite(cv) and sign * cv > sign * cur + gain_tol:
                theta, cur, anchor, last = cand, cv, cand_anchor, step
                break
            step /= 4.0
        else:
            break
    return theta, cur, evals


def _simplex(d, resolution):
    """The pmfs of d entries on the ticks i / resolution, the last entry 1
    less the others in turn (clipped at 0, where rounding leaves it just
    below), in lexicographic order of the others."""
    for head in itertools.product(range(resolution + 1), repeat=d - 1):
        if sum(head) <= resolution:
            row = [i / resolution for i in head]
            yield (*row, max(float(np.subtract.reduce([1.0, *row])), 0.0))


def _grid_laws(problem, resolution):
    """Coarse product-simplex grid, only attempted in low dimension; its
    rows are pmfs by construction, so each law is built trusted.  A grid
    of more than ``_MAX_GRID_LAWS`` laws is refused before any is built."""
    l, s, x = problem.num_timeshare, problem.s_size, problem.x_size
    free = (l - 1) + s * l * (x - 1)
    if free > 3 or l > 3 or x > 3:
        return []
    size = math.comb(resolution + l - 1, l - 1) * math.comb(resolution + x - 1, x - 1) ** (s * l)
    if size > _MAX_GRID_LAWS:
        raise BudgetExceededError(
            f"a capacity grid of resolution {resolution} would hold {size} laws, "
            f"over the cap of {_MAX_GRID_LAWS}"
        )
    rows = list(_simplex(x, resolution))
    return [
        InputLaw._trusted(np.array(pw), np.array(combo).reshape(s, l, x))
        for pw in _simplex(l, resolution)
        for combo in itertools.product(rows, repeat=s * l)
    ]


def _start_bound(problem, law):
    """An upper bound on ``_penalized_value(problem, law, tol)[0]`` at any
    tol: the least penalized payoff over the law's parts, each at its
    start channel, and NaN if any part's is NaN.

    Each payoff is its part's first Frank-Wolfe value, which later
    iterates only lower, and the inner solve's value is the least of its
    parts' values, so the bound is exact for every objective.  It costs
    one payoff per part and no solve.
    """
    starts = [_fw_start(problem, law, *part) for part in _parts(problem, None)]
    return float(np.min([payoff.value(c) for payoff, _, c in starts])) - _penalty(problem, law)


def _grid_starts(problem, grid):
    """The three best grid laws as (penalized value, index), best first:
    ``sorted(..., reverse=True)[:3]`` over every law's (value, index).

    Laws are solved in decreasing order of their start bound, until the
    next bound falls strictly below the third value found, so no law left
    unsolved could rank among the three.  A NaN bound, the only way to a
    NaN value, has no place in that order, and then every law is solved.
    """

    def scored(i):
        return _penalized_value(problem, grid[i], 1e-6)[0], i

    bounds = [_start_bound(problem, law) for law in grid]
    if any(math.isnan(b) for b in bounds):
        return sorted(map(scored, range(len(grid))), reverse=True)[:3]
    top = []
    for i in sorted(range(len(grid)), key=bounds.__getitem__, reverse=True):
        if len(top) == 3 and bounds[i] < top[2][0]:
            break
        top = sorted(top + [scored(i)], reverse=True)[:3]
    return top


def _embed_lower(problem, sol):
    """Lift an (L-1)-slot law into L slots with a vanishing new slot."""
    pw = np.concatenate([sol.input_law.p_w * (1.0 - 1e-9), [1e-9]])
    px = np.concatenate(
        [sol.input_law.p_x_given_sw, sol.input_law.p_x_given_sw[:, -1:, :]], axis=1
    )
    return InputLaw(p_w=pw, p_x_given_sw=px)


def _ascend(problem, theta, counts, warm=None):
    """One start's ascent of the penalized value, as ``_fd_ascent``
    returns it.  ``counts`` gains the analytic gradients taken
    (``model_gradients``) and the evaluated points that had none
    (``full_probe_points``).  With ``warm``, each inner solve of a part
    starts from the part's table in it, and writes its own back."""

    def penalized(theta):
        value, anchor = _penalized_value(
            problem, _law_from_theta(problem, theta), _INNER_TOL, warm
        )
        counts["full_probe_points"] += anchor is None
        return value, anchor

    def natural(anchor):
        counts["model_gradients"] += 1
        return _natural_gradient(problem, anchor)

    return _fd_ascent(
        penalized, theta, steps=200, fd=_FD_STEP, step0=1.0, min_step=1e-7,
        grad_tol=1e-9, gain_tol=1e-12, gradient=natural,
    )


def solve_capacity(
    problem: GameProblem,
    *,
    seed: int = 0,
    restarts: int = 20,
    grid_resolution: int = 16,
) -> GameSolution:
    """Best max-min value found over the product-form input laws.

    Multistart local ascent: uniform start, seeded random starts, a coarse
    grid pass in low dimension, and (for L > 1) the lifted solution of the
    (L-1)-slot game, which makes the reported values nondecreasing in L.
    Global optimality is not certified; the spread of local optima is
    reported in diagnostics ("nonconcave").  ``restarts`` and
    ``grid_resolution`` are integers >= 1; a resolution whose grid would
    hold more than ``_MAX_GRID_LAWS`` laws raises ``BudgetExceededError``.
    """
    for name, value in (("restarts", restarts), ("grid_resolution", grid_resolution)):
        if not int_at_least(value, 1):
            raise ConfigError(f"{name} must be an integer >= 1, not {value!r}")
    starts = [np.zeros(_theta_dim(problem))]
    gen = rngmod.derive(seed, "capacity")
    for _ in range(restarts - 1):
        starts.append(gen.normal(0.0, 2.0, _theta_dim(problem)))

    grid = _grid_laws(problem, grid_resolution)
    for _, i in _grid_starts(problem, grid):
        starts.append(_theta_from_law(problem, grid[i]))

    lower = None
    if problem.num_timeshare > 1:
        lower = solve_capacity(
            replace(problem, num_timeshare=problem.num_timeshare - 1),
            seed=seed,
            restarts=max(restarts // 2, 4),
            grid_resolution=grid_resolution,
        )
        starts.append(_theta_from_law(problem, _embed_lower(problem, lower)))

    counts = Counter()
    warm = {}  # each part's last ascent table, shared by every start
    best_theta = None
    best_value = -math.inf
    local_values = []
    total_evals = 0
    for theta0 in starts:
        theta, value, evals = _ascend(problem, theta0, counts, warm)
        total_evals += evals
        local_values.append(value)
        if value > best_value + 1e-12:
            best_value = value
            best_theta = theta

    law = replace(_law_from_theta(problem, best_theta))
    spec, value, info = inner_min_channel(
        law, problem, tol=1e-9, full_output=True
    )
    finite = [v for v in local_values if math.isfinite(v)]
    diagnostics = {
        "restarts": len(starts),
        "local_values": sorted(finite, reverse=True),
        "nonconcave": bool(finite and max(finite) - min(finite) > 1e-6),
        "inner_iterations": info["iterations"],
        "inner_gap": info["gap"],
        "value_evaluations": total_evals,
        "model_gradients": counts["model_gradients"],
        "full_probe_points": counts["full_probe_points"],
        "reeval_discrepancy": abs(value - best_value),
    }
    if "subset" in info:
        diagnostics["weakest_subset"] = list(info["subset"])
    if lower is not None:
        # the lifted lower-L law is one of the starts, so the best value
        # found here cannot fall below the lower-L value by more than the
        # lift perturbation
        diagnostics["lower_l_value"] = lower.value
    if problem.d1_cap is not None:
        # the cap is a soft penalty in the ascent, so say whether it held
        cost = law.embedding_cost(problem)
        diagnostics["embedding_cost"] = cost
        diagnostics["embedding_ok"] = cost <= problem.d1_cap + 1e-9
    return GameSolution(
        value=value, input_law=law, worst_channel=spec, diagnostics=diagnostics
    )

