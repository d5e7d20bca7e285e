"""Brute-force lattice oracles for the two-user games.

Everything here recomputes game values from first principles on dense
parameter grids, deliberately sharing no code with the solvers under test.
"""

import numpy as np


def _h(p):
    p = np.clip(p, 1e-300, 1.0)
    return -p * np.log2(p)


def fair_rows_grid(y_size, step=1e-3):
    """All pmfs over y on a barycentric lattice of the given step."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if y_size == 2:
        return np.column_stack([ticks, 1.0 - ticks])
    if y_size == 3:
        a, b = np.meshgrid(ticks, ticks, indexing="ij")
        keep = a + b <= 1.0 + 1e-12
        a, b = a[keep], b[keep]
        return np.column_stack([a, b, 1.0 - a - b])
    raise ValueError("grid oracle covers y_size 2 and 3")


def min_fair_marking_payoff(q_pair, y_size, step=1e-3):
    """Exhaustive minimum of (1/2) I(X_1 X_2; Y) over fair marking channels.

    ``q_pair`` is the 2x2 coalition input pmf (binary fingerprints).  The
    channel is pinned to copy on constant pairs and shares one row across
    the mixed orbit, so the free parameters are exactly that row.
    """
    rows = fair_rows_grid(y_size, step)  # (G, Y)
    q00, q01, q10, q11 = q_pair[0, 0], q_pair[0, 1], q_pair[1, 0], q_pair[1, 1]
    qo = q01 + q10
    delta0 = np.zeros(y_size)
    delta0[0] = 1.0
    delta1 = np.zeros(y_size)
    delta1[1] = 1.0
    py = q00 * delta0[None, :] + q11 * delta1[None, :] + qo * rows
    lpy = np.log2(np.clip(py, 1e-300, None))
    lr = np.log2(np.clip(rows, 1e-300, None))
    val = (
        -q00 * lpy[:, 0]
        - q11 * lpy[:, 1]
        + qo * np.sum(np.where(rows > 0, rows * (lr - lpy), 0.0), axis=1)
    )
    i = int(np.argmin(val))
    return 0.5 * float(val[i]), rows[i]


def _d2(x, q):
    return np.where(x > 0, x * (np.log2(np.clip(x, 1e-300, None)) - np.log2(q)), 0.0)


def _pair_cost(b, p0):
    """D((a0, b, a1) || (p0^2, 2 p0 p1, p1^2)) with a0 = p0 - b/2 and
    a1 = p1 - b/2: the divergence of a pinned, marking-consistent joint of
    two binary users against the product reference built from its induced
    channel.  The channel enters only through the off-diagonal mass b."""
    p1 = 1.0 - p0
    return (
        _d2(p0 - b / 2, p0 * p0) + _d2(b, 2 * p0 * p1) + _d2(p1 - b / 2, p1 * p1)
    )


def _feasible_argmin(cost, info, rate):
    """Index of the cheapest point with info <= 2 rate, or None."""
    feasible = info <= 2.0 * rate + 1e-9
    if not np.any(feasible):
        return None
    return int(np.argmin(np.where(feasible, cost, np.inf)))


def _slack(b, cost, reach, p0):
    """How far a solver may fall below a lattice minimum of the given cost
    at off-diagonal mass b: the cost change across ``reach`` in b, the span
    of two lattice cells, on either side."""
    ends = np.array([max(b - reach, 0.0), min(b + reach, 2 * min(p0, 1.0 - p0))])
    return float(np.max(np.abs(_pair_cost(ends, p0) - cost)))


def reduced_exponent_grid(rate, step=1e-3, p0=0.5):
    """Exhaustive full-coalition exponent for binary fair marking under the
    Bernoulli input law p(x = 0) = p0, and its ``_slack``.

    Symmetry and the marginal pins collapse the tilted joint to the two
    off-diagonal masses (b0, b1) routed to each output, split evenly over
    the two mixed pairs; the diagonal masses are p0 - b/2 and p1 - b/2 with
    b = b0 + b1, so a lattice cell spans 2 step in b.
    """
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    b0, b1 = np.meshgrid(ticks, ticks, indexing="ij")
    b = b0 + b1
    keep = b <= 2 * min(p0, 1.0 - p0) + 1e-12
    b0, b1, b = b0[keep], b1[keep], b[keep]
    a0 = np.clip(p0 - b / 2, 0.0, None)
    a1 = np.clip(1.0 - p0 - b / 2, 0.0, None)
    h_all = _h(a0) + _h(a1) + _h(b0) + b0 + _h(b1) + b1
    py0 = a0 + b0
    info = 2 * (_h(p0) + _h(1.0 - p0)) + _h(py0) + _h(1.0 - py0) - h_all
    cost = _pair_cost(b, p0)
    i = _feasible_argmin(cost, info, rate)
    if i is None:
        return np.inf, 0.0
    return float(cost[i]), _slack(b[i], cost[i], 4 * step, p0)


def marking_exponent_grid(rate, p0, step=5e-3):
    """Exhaustive full-coalition exponent for binary plain marking under
    p(x = 0) = p0, and its ``_slack``.

    Marking pins the constant pairs to copy their symbol, and the two users'
    pins force equal mixed masses u = u0 + u1 on (0, 1) and on (1, 0), so
    the free masses are (u0, u1, w0) with w1 = u - w0; the off-diagonal mass
    is b = 2 u, and a lattice cell spans 4 step in b.  The points are
    scanned one u0 slab at a time to keep the arrays small.
    """
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    cap = min(p0, 1.0 - p0) + 1e-12
    u1, w0 = np.meshgrid(ticks, ticks, indexing="ij")
    hx = 2 * (_h(p0) + _h(1.0 - p0))
    best_cost, best_b = np.inf, 0.0
    for u0 in ticks[ticks <= cap]:
        u = u0 + u1
        keep = (u <= cap) & (w0 <= u + 1e-12)
        uu, ww0 = u[keep], w0[keep]
        ww1 = np.clip(uu - ww0, 0.0, None)
        a0 = np.clip(p0 - uu, 0.0, None)
        a1 = np.clip(1.0 - p0 - uu, 0.0, None)
        h_all = _h(a0) + _h(a1) + _h(u0) + _h(u1[keep]) + _h(ww0) + _h(ww1)
        py0 = a0 + u0 + ww0
        info = hx + _h(py0) + _h(1.0 - py0) - h_all
        cost = _pair_cost(2 * uu, p0)
        i = _feasible_argmin(cost, info, rate)
        if i is not None and cost[i] < best_cost:
            best_cost, best_b = float(cost[i]), 2 * uu[i]
    if best_cost == np.inf:
        return np.inf, 0.0
    return best_cost, _slack(best_b, best_cost, 8 * step, p0)
