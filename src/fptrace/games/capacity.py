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

The ascent's gradient comes from Danskin's theorem: each forward-difference
probe evaluates the payoff at the probed law with the worst channel of the
accepted point held fixed, so it costs one ``Payoff`` and no inner solve.
Detect-all holds every subset's channel and takes the min over subsets.
Two cases probe with full inner solves instead: a Distortion family, whose
polytope moves with the law, and a point whose Frank-Wolfe gap did not
close below the inner tolerance.  Moves are accepted on full solves only.
``value_evaluations`` counts the full solves of the ascent (its starts,
line-search trials and full probes); ``model_probes`` counts the probes at
a fixed channel and ``full_probe_points`` the evaluated points that had no
probe model.

In low dimension three of the starts are the best laws of a coarse grid.
Frank-Wolfe only lowers its value, so the payoff at a law's start channel
bounds the law's value from above; the grid pass solves laws in
decreasing order of that bound and stops when no law left can enter the
best three, which are then those of a full scoring.
"""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np

from .. import rng as rngmod
from ..errors import ConfigError, index_set, int_at_least, real_at_least
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


def _frank_wolfe(problem, law, objective, subset, user, fair, tol):
    family = problem.channel_class
    payoff, q_x, c = _fw_start(problem, law, objective, subset, user, fair)

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
):
    """Worst-case channel and payoff value for a fixed input law.

    The detect-one and simple payoffs are minimized over the fair members
    of the channel family; detect-all is minimized over the family as given,
    jointly with the choice of the weakest coalition subset (each subset
    problem is convex, so the min over subsets of exact minima is exact).
    With ``full_output`` the info dict also holds ``parts``: one
    (objective, subset, user, table, gap) per part solved, every
    detect-all subset included.  ``tol`` is the gap at which a part's
    solve stops, a finite number > 0.  ``subset`` picks one detect-all
    part.  The single-user game needs no user: under a fair channel every
    user's I(X_m; Y | S, W) is the same, so it solves user 0's.
    """
    problem.check_law(input_law)
    if not real_at_least(tol, 0) or tol == 0:
        raise ConfigError(f"tol must be a finite number > 0, not {tol!r}")
    parts = []
    best = None
    iterations = 0
    for objective, a, m, fair in _parts(problem, subset):
        c, v, info = _frank_wolfe(problem, input_law, objective, a, m, fair, tol)
        iterations += info["iterations"]
        parts.append((objective, a, m, c, info["gap"]))
        if best is None or v < best[1] - 1e-15:
            best = (c, v, info["gap"], a)
    c, v, gap, a = best
    spec = problem.wrap_channel(c)
    if full_output:
        info = {"iterations": iterations, "gap": gap, "parts": parts}
        if a is not None:
            info["subset"] = a
        return spec, v, info
    return spec, v


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


def _penalty(problem, law):
    """Soft embedding-cap penalty subtracted from the game value: 1e3 per
    unit of excess, in units of the range of ``d1``, so that the cap holds
    at any cost scale."""
    if problem.d1_cap is None:
        return 0.0
    excess = law.embedding_cost(problem) - problem.d1_cap
    return 1e3 * excess / (float(np.ptp(problem.d1)) or 1.0) if excess > 0 else 0.0


def _penalized_value(problem, law, inner_tol):
    """(penalized game value, probe parts) at law.

    The parts are the inner solve's (objective, subset, user, table, gap)
    tuples, or None when their tables cannot serve as a probe model: a
    Distortion polytope moves with the law, and a part whose Frank-Wolfe
    gap did not close has no certified minimizer.
    """
    _, v, info = inner_min_channel(law, problem, tol=inner_tol, full_output=True)
    parts = info["parts"]
    if isinstance(problem.channel_class, Distortion) or any(
        part[-1] >= inner_tol for part in parts
    ):
        parts = None
    return v - _penalty(problem, law), parts


def _danskin_probe(problem, parts, theta):
    """Penalized payoff at theta with each part's channel held fixed.

    Every held table is feasible at any law, so this bounds the game value
    at theta from above, and it equals the value where the tables were
    solved; by Danskin's theorem its forward differences there are those of
    the value itself, without an inner solve.
    """
    law = _law_from_theta(problem, theta)
    tensors = law_tensors(problem, law)
    value = min(
        Payoff(problem, tensors, objective, a, m).value(c)
        for objective, a, m, c, _ in parts
    )
    return value - _penalty(problem, law)


def _fd_ascent(
    f, theta, *, steps, fd, step0, min_step, grad_tol, gain_tol, sign=+1, probe=None
):
    """Finite-difference ascent of f (sign=+1) or descent (sign=-1).

    Each step takes the forward-difference gradient at the current point,
    one probe at theta + fd e_i per coordinate.  Without ``probe`` each
    probe is one more evaluation of f.  With ``probe``, f returns
    (value, anchor) and a probe is ``probe(anchor, theta + fd e_i)``: the
    value of a model of f that touches f at the point the anchor came from
    (for the capacity ascent, the payoff at that point's worst channel).
    A None anchor has no model, and its probes evaluate f.  Then it tries
    theta + sign s g/|g| for s = s0, s0/4, ... while s > min_step, with s0 =
    min(step0, 4 x the last step taken), and moves to the first point where
    sign f beats sign f(theta) by more than gain_tol: moves are taken on
    true f values only.  It stops after ``steps`` moves, when
    |g| < grad_tol, or when no trial point gains.  A non-finite start is
    returned at once, a non-finite probe counts as a zero gradient
    component, and a non-finite trial point is never taken.  Returns
    (theta, f(theta), number of f evaluations).
    """
    evaluate = f if probe is not None else (lambda t: (f(t), None))
    theta = np.array(theta, dtype=float)
    cur, anchor = evaluate(theta)
    evals = 1
    if not math.isfinite(cur):
        return theta, cur, evals
    last = step0
    for _ in range(steps):
        grad = np.empty_like(theta)
        for i in range(len(theta)):
            bumped = theta.copy()
            bumped[i] += fd
            if anchor is None:
                value = evaluate(bumped)[0]
                evals += 1
            else:
                value = probe(anchor, bumped)
            grad[i] = (value - cur) / fd if math.isfinite(value) else 0.0
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


def _grid_laws(problem, resolution):
    """Coarse product-simplex grid, only attempted in low dimension."""
    l, s, x = problem.num_timeshare, problem.s_size, problem.x_size
    free = (l - 1) + s * l * (x - 1)
    if free > 3 or l > 3 or x > 3:
        return []
    ticks = [i / resolution for i in range(resolution + 1)]

    def simplexes(d):
        if d == 1:
            return [(1.0,)]
        if d == 2:
            return [(t, 1.0 - t) for t in ticks]
        return [
            (a, b, 1.0 - a - b)
            for a in ticks
            for b in ticks
            if a + b <= 1.0 + 1e-12
        ]

    laws = []
    for pw in simplexes(l):
        rows_choices = simplexes(x)
        for combo in itertools.product(rows_choices, repeat=s * l):
            px = np.asarray(combo, dtype=float).reshape(s, l, x)
            laws.append(InputLaw(p_w=np.asarray(pw), p_x_given_sw=px))
    return laws


def _start_bound(problem, law):
    """An upper bound on ``_penalized_value(problem, law, tol)[0]`` at any
    tol: the penalized payoff at the start channel of the law's first part.

    That payoff is the part's first Frank-Wolfe value, which later
    iterates only lower, and the inner solve's value never exceeds its
    first part's.  It costs one payoff and no solve.
    """
    objective, a, m, fair = _parts(problem, None)[0]
    payoff, _, c = _fw_start(problem, law, objective, a, m, fair)
    return payoff.value(c) - _penalty(problem, law)


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
    ``grid_resolution`` are integers >= 1.
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

    def penalized(theta):
        value, parts = _penalized_value(
            problem, _law_from_theta(problem, theta), _INNER_TOL
        )
        counts["full_probe_points"] += parts is None
        return value, parts

    def probe(parts, theta):
        counts["model_probes"] += 1
        return _danskin_probe(problem, parts, theta)

    best_theta = None
    best_value = -math.inf
    local_values = []
    total_evals = 0
    for theta0 in starts:
        theta, value, evals = _fd_ascent(
            penalized, theta0, steps=200, fd=_FD_STEP, step0=1.0, min_step=1e-7,
            grad_tol=1e-9, gain_tol=1e-12, probe=probe,
        )
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
        "model_probes": counts["model_probes"],
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

