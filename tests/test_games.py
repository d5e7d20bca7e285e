"""Capacity games, exponent programs, and the exchangeable-block entropy
comparisons, checked against brute-force lattice oracles where one exists."""

import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize

from grid_oracles import (
    marking_exponent_grid,
    min_fair_marking_payoff,
    reduced_exponent_grid,
)
from fptrace.errors import ConfigError
from fptrace.collusion import _interleaving_table
from fptrace.games import (
    Distortion,
    FairMarking,
    GameProblem,
    Hull,
    InputLaw,
    Marking,
    channel_family_from_dict,
    check_fair_inequalities,
    exponent_sweep,
    inner_min_channel,
    memoryless_exponent_variant,
    pseudo_sphere_packing,
    solve_capacity,
    solve_exponent_program,
)
from fptrace.games import capacity, exponents, problems
from fptrace.games.exponents import _Layout
from fptrace.games.problems import Payoff, law_tensors, payoff_value_grad
from fptrace.types_core import entropy_pmf


def fair_problem(k=2, y=2, **kw):
    return GameProblem(
        coalition_size=k, x_size=2, y_size=y, channel_class=FairMarking(), **kw
    )


def law_for(problem, p0):
    """L=1, no host: one Bernoulli(p0) column per user."""
    px = np.array([[[p0, 1.0 - p0]]])
    return InputLaw(p_w=np.array([1.0]), p_x_given_sw=px)


# ---------------------------------------------------------------------------
# problem plumbing


def test_problem_roundtrip_through_dict():
    prob = fair_problem(k=2, y=3, num_timeshare=2)
    clone = GameProblem.from_dict(prob.to_dict())
    assert clone.coalition_size == 2 and clone.y_size == 3
    assert isinstance(clone.channel_class, FairMarking)
    law = prob.uniform_law()
    back = InputLaw.from_dict(law.to_dict())
    assert np.allclose(back.p_w, law.p_w)
    assert np.allclose(back.p_x_given_sw, law.p_x_given_sw)


def test_hull_family_dict_roundtrip():
    inter = _interleaving_table(2, 2)
    fam = Hull([inter])
    clone = channel_family_from_dict(fam.to_dict())
    assert isinstance(clone, Hull) and clone.is_singleton
    assert np.allclose(clone.vertices[0], inter)


# ---------------------------------------------------------------------------
# inner minimization against the lattice oracle


def test_inner_min_matches_grid_oracle_on_random_instances():
    gen = np.random.default_rng(20240817)
    for trial in range(10):
        y = 2 if trial % 2 == 0 else 3
        prob = fair_problem(k=2, y=y)
        p0 = float(gen.uniform(0.15, 0.85))
        law = law_for(prob, p0)
        q = law_tensors(prob, law)[0].reshape(2, 2)
        oracle, _ = min_fair_marking_payoff(q, y, step=1e-3)
        _, val = inner_min_channel(law, prob, tol=1e-9)
        assert val <= oracle + 1e-9
        assert abs(val - oracle) < 1e-4


def test_inner_min_interleaving_is_worst_at_uniform():
    prob = fair_problem()
    spec, val = inner_min_channel(prob.uniform_law(), prob, tol=1e-10)
    assert abs(val - 0.25) < 1e-8
    assert np.allclose(spec.table, _interleaving_table(2, 2), atol=1e-5)


def test_inner_min_detect_all_tracks_weakest_subset():
    prob = fair_problem(k=2)
    prob = GameProblem(
        coalition_size=2, x_size=2, y_size=2,
        channel_class=FairMarking(), objective="detect_all",
    )
    _, val, info = inner_min_channel(
        prob.uniform_law(), prob, tol=1e-9, full_output=True
    )
    assert val <= 0.25 + 1e-9
    assert tuple(info["subset"]) in {(0,), (1,), (0, 1)}


def test_singleton_hull_inner_value_is_plain_payoff():
    inter = _interleaving_table(2, 2)
    prob = GameProblem(
        coalition_size=2, x_size=2, y_size=2, channel_class=Hull([inter])
    )
    _, val = inner_min_channel(prob.uniform_law(), prob)
    assert abs(val - 0.25) < 1e-9


def test_distortion_inner_respects_budget():
    fam = Distortion(
        estimator=np.array([[0, 0], [0, 1]]), d2=1.0 - np.eye(2), cap=0.3
    )
    prob = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=fam)
    spec, val = inner_min_channel(prob.uniform_law(), prob)
    assert val >= -1e-12
    assert fam.expected_cost(spec.table, law_tensors(prob, prob.uniform_law())[0].reshape(2, 2)) <= 0.3 + 1e-8


def _payoff_cases():
    """(problem, law, objective, subset, user) over every payoff target."""
    gen = np.random.default_rng(7)
    instances = [
        fair_problem(k=2),
        fair_problem(k=3),
        fair_problem(k=2, y=3, s_size=2, p_host=np.array([0.6, 0.4])),
        fair_problem(k=2, num_timeshare=2),
    ]
    for prob in instances:
        l, s, x = prob.num_timeshare, prob.s_size, prob.x_size
        law = InputLaw(
            p_w=gen.dirichlet(np.ones(l)), p_x_given_sw=gen.dirichlet(np.ones(x), size=(s, l))
        )
        k = prob.coalition_size
        yield prob, law, "detect_one", None, None
        for a in itertools.chain.from_iterable(
            itertools.combinations(range(k), n) for n in range(1, k + 1)
        ):
            yield prob, law, "detect_all_part", a, None
        for m in range(k):
            yield prob, law, "simple", None, m


def test_payoff_value_path_equals_payoff_value_grad_exactly():
    gen = np.random.default_rng(3)
    for prob, law, objective, subset, user in _payoff_cases():
        shape = (prob.x_size,) * prob.coalition_size
        grad = gen.normal(size=shape + (prob.y_size,))
        channels = [
            gen.dirichlet(np.ones(prob.y_size), size=shape),
            # a marking vertex: zero entries take the clipped logs
            FairMarking().linmin(grad),
        ]
        payoff = Payoff(prob, law_tensors(prob, law), objective, subset, user)
        for c in channels:
            value, g = payoff_value_grad(c, prob, law, objective, subset=subset, user=user)
            assert payoff.value(c) == value
            own_value, own_g = payoff.value_grad(c)
            assert own_value == value and np.array_equal(own_g, g)


def _oracle_cases():
    """(problem, law, label) at S=2, L=2 for K=1..3 and Y=2,3: a random
    law and one whose mark probability vanishes in some (s, w) cells."""
    gen = np.random.default_rng(23)
    for k, y in itertools.product((1, 2, 3), (2, 3)):
        prob = fair_problem(k=k, y=y, s_size=2, num_timeshare=2, p_host=np.array([0.3, 0.7]))
        px = gen.dirichlet(np.ones(2), size=(2, 2))
        yield prob, InputLaw(p_w=gen.dirichlet(np.ones(2)), p_x_given_sw=px), "random"
        px = px.copy()
        px[0, 1] = [1.0, 0.0]
        px[1, 0] = [0.0, 1.0]
        yield prob, InputLaw(p_w=np.array([0.4, 0.6]), p_x_given_sw=px), "zero mark"


def _targets(k):
    """(objective, subset, user, A, hidden) over every payoff target."""
    yield "detect_one", None, None, tuple(range(k)), ()
    for n in range(1, k + 1):
        for a in itertools.combinations(range(k), n):
            yield "detect_all_part", a, None, a, ()
    for m in range(k):
        yield "simple", None, m, (m,), tuple(i for i in range(k) if i != m)


def _joint_pmf(prob, law, c):
    """P(s, w, x_1..x_K, y) = p_S(s) p_W(w) prod_m p(x_m|s,w) c(y|x), cell
    by cell."""
    k = prob.coalition_size
    joint = np.zeros((prob.s_size, prob.num_timeshare) + c.shape)
    for s, w, *x in itertools.product(
        range(prob.s_size), range(prob.num_timeshare), *[range(prob.x_size)] * k
    ):
        weight = prob.p_host[s] * law.p_w[w]
        for xm in x:
            weight *= law.p_x_given_sw[s, w, xm]
        joint[(s, w, *x)] = weight * c[tuple(x)]
    return joint


def _oracle_payoff(joint, k, a, hidden):
    """(1/|A|) I(X_A; Y | S, W, X_B) from four entropies of the joint pmf,
    with B the users neither in A nor hidden (the hidden ones summed out)."""
    y = 2 + k
    a_ax = tuple(2 + i for i in a)
    cond = (0, 1) + tuple(2 + i for i in range(k) if i not in a and i not in hidden)

    def h(axes):
        return entropy_pmf(joint, tuple(sorted(axes)))

    info = h(a_ax + cond) + h(cond + (y,)) - h(a_ax + cond + (y,)) - h(cond)
    return info / len(a)


def test_every_payoff_equals_its_entropy_oracle():
    gen = np.random.default_rng(5)
    for prob, law, label in _oracle_cases():
        k = prob.coalition_size
        shape = (prob.x_size,) * k
        channels = [
            gen.dirichlet(np.ones(prob.y_size), size=shape),
            FairMarking().linmin(gen.normal(size=shape + (prob.y_size,))),
        ]
        for c in channels:
            joint = _joint_pmf(prob, law, c)
            for objective, subset, user, a, hidden in _targets(k):
                payoff = Payoff(prob, law_tensors(prob, law), objective, subset, user)
                want = _oracle_payoff(joint, k, a, hidden)
                assert abs(payoff.value(c) - want) <= 1e-12, (label, objective, subset, user)


def test_payoff_gradient_matches_central_differences():
    gen = np.random.default_rng(6)
    h = 1e-6
    for prob, law, label in _oracle_cases():
        k = prob.coalition_size
        shape = (prob.x_size,) * k + (prob.y_size,)
        # an interior channel: every entry at least 1 / (2 Y)
        c = 0.5 * gen.dirichlet(np.ones(prob.y_size), size=shape[:-1]) + 0.5 / prob.y_size
        for objective, subset, user, _, _ in _targets(k):
            payoff = Payoff(prob, law_tensors(prob, law), objective, subset, user)
            _, grad = payoff.value_grad(c)
            for idx in np.ndindex(shape):
                step = np.zeros(shape)
                step[idx] = h
                diff = (payoff.value(c + step) - payoff.value(c - step)) / (2 * h)
                assert abs(grad[idx] - diff) <= 1e-6 * max(1.0, abs(grad[idx])), (
                    label, objective, subset, user, idx)


def test_frank_wolfe_line_search_never_builds_a_gradient(monkeypatch):
    calls = Counter()
    searching = [False]

    def counted(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            calls[key, "in line search"] += searching[0]
            return fn(*args, **kwargs)
        return wrapped

    def minimize_scalar(phi, slope0):
        def searched(t):
            searching[0] = True
            try:
                return phi(t)
            finally:
                searching[0] = False
        calls["line search"] += 1
        return real_minimize_scalar(searched, slope0)

    real_minimize_scalar = capacity.minimize_scalar
    for owner in (capacity, problems):
        monkeypatch.setattr(owner, "law_tensors", counted(owner.law_tensors, "tensors"))
    monkeypatch.setattr(
        capacity, "payoff_value_grad", counted(capacity.payoff_value_grad, "grads")
    )
    monkeypatch.setattr(Payoff, "value_grad", counted(Payoff.value_grad, "value_grad"))
    monkeypatch.setattr(capacity, "minimize_scalar", minimize_scalar)
    prob = fair_problem(k=3)
    _, _, info = inner_min_channel(prob.uniform_law(), prob, full_output=True)
    assert calls["line search"] >= 1
    # every gradient is one payoff_value_grad call, which builds its tensors
    assert calls["value_grad"] == calls["grads"] <= info["iterations"] + 1
    assert calls["tensors"] <= 1 + calls["grads"]
    for key in ("tensors", "grads", "value_grad"):
        assert calls[key, "in line search"] == 0


# ---------------------------------------------------------------------------
# outer maximization


def test_single_user_capacity_is_one_bit():
    sol = solve_capacity(fair_problem(k=1), restarts=4)
    assert abs(sol.value - 1.0) < 1e-6


def test_two_user_fair_capacity_is_quarter_bit():
    sol = solve_capacity(fair_problem(k=2), restarts=6)
    assert abs(sol.value - 0.25) < 1e-6
    assert sol.diagnostics["reeval_discrepancy"] <= 1e-6


def test_detect_all_equals_detect_one_under_fairness():
    one = solve_capacity(fair_problem(k=2), restarts=6)
    prob = GameProblem(
        coalition_size=2, x_size=2, y_size=2,
        channel_class=FairMarking(), objective="detect_all",
    )
    _, all_val = inner_min_channel(one.input_law, prob)
    assert abs(all_val - one.value) < 1e-4


def test_single_user_payoff_capacity_not_larger():
    simple = solve_capacity(replace(fair_problem(k=2), objective="simple"), restarts=6)
    assert simple.value <= 0.25 + 1e-6
    assert simple.value > 0.1


def test_embedding_cap_is_reported_when_it_binds():
    def capped(cost_scale, cap):
        return GameProblem(
            coalition_size=1, x_size=2, y_size=2, channel_class=FairMarking(),
            d1=np.array([[0.0, cost_scale]]), d1_cap=cap,
        )

    # P(X=1) <= 0.2, against 0.5 at the uncapped optimum: C = h(0.2)
    held = solve_capacity(capped(1.0, 0.2), restarts=4, grid_resolution=8)
    h = -(0.2 * math.log2(0.2) + 0.8 * math.log2(0.8))
    assert abs(held.value - h) < 1e-4
    assert held.diagnostics["embedding_ok"] is True
    assert held.diagnostics["embedding_cost"] <= 0.2 + 1e-9
    # costs 1e4 times smaller, P(X=1) <= 0.1: the penalty is scaled by the
    # range of d1, so the cap holds at any cost scale (it once gave 4.8e-5)
    small = solve_capacity(capped(1e-4, 1e-5), restarts=4, grid_resolution=8)
    h1 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    assert abs(small.value - h1) < 1e-4
    assert small.diagnostics["embedding_cost"] <= 1e-5 + 1e-12
    assert small.diagnostics["embedding_ok"] is True
    # a cap no law can meet is reported, not passed silently
    broken = solve_capacity(
        GameProblem(coalition_size=1, x_size=2, y_size=2, channel_class=FairMarking(),
                    d1=np.array([[0.5, 0.5]]), d1_cap=0.1),
        restarts=4, grid_resolution=8,
    )
    assert broken.diagnostics["embedding_cost"] > 0.1
    assert broken.diagnostics["embedding_ok"] is False


def test_timeshare_never_hurts():
    base = solve_capacity(fair_problem(k=2), restarts=6)
    lifted = solve_capacity(fair_problem(k=2, num_timeshare=2), restarts=6)
    assert lifted.value >= base.value - 1e-6
    assert lifted.diagnostics["lower_l_value"] >= base.value - 1e-6


def _danskin_cases():
    """Problems whose channel polytope does not move with the input law."""
    gen = np.random.default_rng(11)
    fair = _interleaving_table(2, 2)
    tilted = fair.copy()
    tilted[0, 1] = tilted[1, 0] = [0.8, 0.2]
    yield fair_problem(k=2, num_timeshare=2)
    yield fair_problem(k=3)
    yield GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=Marking())
    yield GameProblem(
        coalition_size=2, x_size=2, y_size=2,
        channel_class=Hull([fair, tilted, gen.dirichlet(np.ones(2), size=(2, 2))]),
        objective="simple",
    )
    yield fair_problem(k=2, objective="detect_all")
    yield fair_problem(k=2, objective="simple", s_size=2)
    # P(X=1) capped at 0.3: a random law mostly pays the penalty
    yield fair_problem(k=2, d1=np.array([[0.0, 1.0]]), d1_cap=0.3)


@pytest.mark.parametrize("case", range(7))
def test_danskin_probe_gradient_matches_full_forward_difference(case):
    problem = list(_danskin_cases())[case]
    gen = np.random.default_rng(100 + case)
    h = capacity._FD_STEP
    points = 0
    for _ in range(20):
        theta = gen.normal(0.0, 1.0, capacity._theta_dim(problem))
        law = capacity._law_from_theta(problem, theta)
        cur, parts = capacity._penalized_value(problem, law, 1e-8)
        if parts is None:  # an open Frank-Wolfe gap: probed by full solves
            continue
        for i in range(len(theta)):
            bumped = theta.copy()
            bumped[i] += h
            model = (capacity._danskin_probe(problem, parts, bumped) - cur) / h
            full_law = capacity._law_from_theta(problem, bumped)
            full = (capacity._penalized_value(problem, full_law, 1e-8)[0] - cur) / h
            assert abs(model - full) <= 1e-3 * max(1.0, abs(full))
        points += 1
        if points == 2:
            break
    assert points == 2


def test_open_frank_wolfe_gap_has_no_probe_model(monkeypatch):
    prob = fair_problem(k=3)
    # this K=3 solve zig-zags: its gap closes below 1e-6 at iteration 13,
    # and below 1e-8 only at iteration 107, so a cap of 55 leaves it open
    monkeypatch.setattr(capacity, "_MAX_ITER", 55)
    law = capacity._law_from_theta(prob, np.array([-0.79, -2.03, 0.60]))
    _, _, info = inner_min_channel(law, prob, tol=1e-8, full_output=True)
    assert info["gap"] >= 1e-8
    assert capacity._penalized_value(prob, law, 1e-8)[1] is None
    assert capacity._penalized_value(prob, law, 1e-6)[1] is not None


def test_k3_frank_wolfe_closes_its_gap_at_random_laws():
    # the line search used to stall 6 of these 40 solves at gaps up to 6.3e-8
    prob = fair_problem(k=3)
    gen = np.random.default_rng(0)
    for _ in range(40):
        law = capacity._law_from_theta(prob, gen.normal(0.0, 1.0, capacity._theta_dim(prob)))
        _, _, info = inner_min_channel(law, prob, tol=1e-8, full_output=True)
        assert info["gap"] < 1e-8 and info["iterations"] < capacity._MAX_ITER


def test_distortion_capacity_probes_with_full_solves():
    fam = Distortion(estimator=np.array([[0, 0], [0, 1]]), d2=1.0 - np.eye(2), cap=0.3)
    prob = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=fam)
    diag = solve_capacity(prob, restarts=1, grid_resolution=2).diagnostics
    assert diag["model_probes"] == 0
    assert diag["full_probe_points"] == diag["value_evaluations"] > 0
    fair = solve_capacity(fair_problem(k=2), restarts=1, grid_resolution=2).diagnostics
    assert fair["model_probes"] > 0 and fair["full_probe_points"] == 0


def test_capacity_ascent_evaluation_count_and_values(monkeypatch):
    real = capacity.inner_min_channel
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(capacity, "inner_min_channel", counted)
    two_slots = solve_capacity(
        fair_problem(k=2, num_timeshare=2), seed=0, restarts=6, grid_resolution=8
    )
    # a third of the 6,574 that forward differences of full solves took
    assert two_slots.diagnostics["value_evaluations"] <= 2191
    assert abs(two_slots.value - 0.25) < 1e-6
    # the pruned grid pass: 2,311 inner solves when every grid law was solved
    assert len(solves) == 1601
    three_slots = solve_capacity(
        fair_problem(k=2, num_timeshare=3), seed=0, restarts=6, grid_resolution=8
    )
    assert abs(three_slots.value - 0.25) < 1e-6
    solves.clear()
    k3 = solve_capacity(fair_problem(k=3), seed=0, restarts=2, grid_resolution=10)
    assert abs(k3.value - 1.0 / 12.0) < 1e-6
    assert len(solves) == 141  # 150 unpruned
    # the values the Newton line search finds
    assert (two_slots.value, k3.value) == (0.25, 0.0833333333333333)


def _grid_cases():
    """(problem, grid resolution): one of each kind of game the grid pass
    meets."""
    fair = _interleaving_table(2, 2)
    tilted = fair.copy()
    tilted[0, 1] = tilted[1, 0] = [0.8, 0.2]
    yield fair_problem(k=2), 16
    yield fair_problem(k=2, num_timeshare=2), 8
    yield fair_problem(k=3), 10
    yield GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=Marking()), 16
    yield GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=Hull([fair, tilted])), 16
    fam = Distortion(estimator=np.array([[0, 0], [0, 1]]), d2=1.0 - np.eye(2), cap=0.3)
    yield GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=fam), 8
    yield fair_problem(k=2, objective="detect_all"), 16
    yield fair_problem(k=2, objective="simple"), 16
    yield fair_problem(k=2, s_size=2, p_host=np.array([0.6, 0.4])), 8
    # P(X=1) capped at 0.3: the bound and the value pay the same penalty
    yield fair_problem(k=2, d1=np.array([[0.0, 1.0]]), d1_cap=0.3), 16


@pytest.mark.parametrize("case", range(10))
def test_grid_pass_keeps_the_three_best_laws_of_a_full_scoring(monkeypatch, case):
    problem, resolution = list(_grid_cases())[case]
    grid = capacity._grid_laws(problem, resolution)
    real = capacity.payoff_value_grad
    first = []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        first.append(out[0])
        return out

    monkeypatch.setattr(capacity, "payoff_value_grad", recorded)
    full = []
    for i, law in enumerate(grid):
        first.clear()
        value = capacity._penalized_value(problem, law, 1e-6)[0]
        bound = capacity._start_bound(problem, law)
        # Frank-Wolfe's own first value, less the penalty: no tolerance
        assert bound == first[0] - capacity._penalty(problem, law)
        assert bound >= value
        full.append((value, i))
    assert capacity._grid_starts(problem, grid) == sorted(full, reverse=True)[:3]


@pytest.mark.parametrize("seed", range(40))
def test_grid_pass_selection_matches_a_full_sort(monkeypatch, seed):
    # synthetic scores with many ties: each law's bound is its value plus
    # a slack that is often 0; some values are infinite, and a NaN value
    # has a NaN bound, as Frank-Wolfe gives it
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 30))
    values = gen.integers(0, 6, n).astype(float)
    if seed % 4 == 1:
        values[gen.integers(0, n)] = -math.inf
    if seed % 4 == 2:
        values[gen.integers(0, n)] = math.nan
    bounds = values + gen.integers(0, 3, n) * gen.integers(0, 2, n)
    solved = []

    def scored(problem, law, tol):
        solved.append(law)
        return values[law], None

    monkeypatch.setattr(capacity, "_start_bound", lambda problem, law: bounds[law])
    monkeypatch.setattr(capacity, "_penalized_value", scored)
    full = [(values[i], i) for i in range(n)]
    got = capacity._grid_starts(None, list(range(n)))
    # NaN == NaN is false, so compare the values as text
    assert [(str(v), i) for v, i in got] == [
        (str(v), i) for v, i in sorted(full, reverse=True)[:3]
    ]
    assert len(set(solved)) == len(solved)  # no law is solved twice
    if np.isnan(values).any():
        assert len(solved) == n  # a NaN bound has no place in the order
    else:
        top = sorted(full, reverse=True)[:3]
        # the ones left unsolved had a bound strictly below the third value
        assert all(bounds[i] < top[-1][0] for i in set(range(n)) - set(solved))
        if len(top) == 3:
            # and every law bound at or above it was solved
            assert {i for i in range(n) if bounds[i] >= top[-1][0]} <= set(solved)


def test_frank_wolfe_stops_at_a_nan_line_search_value(monkeypatch):
    # a NaN is not lower than the value, so the solve keeps its start, and
    # its value stays at or below the start bound
    problem = fair_problem(k=3)
    start = capacity._fw_start(problem, problem.uniform_law(), "detect_one", None, None, True)
    monkeypatch.setattr(Payoff, "value", lambda self, c: math.nan)
    c, _, info = capacity._frank_wolfe(
        problem, problem.uniform_law(), "detect_one", None, None, True, 1e-8
    )
    assert info["iterations"] == 1 and np.array_equal(c, start[2])


# ---------------------------------------------------------------------------
# the line search: safeguarded Newton on the payoff's slope


def test_segment_slope_and_curvature_match_central_differences():
    gen = np.random.default_rng(7)
    h = 1e-5
    for prob, law, label in _oracle_cases():
        shape = (prob.x_size,) * prob.coalition_size + (prob.y_size,)
        # two interior channels, so c + t d stays positive near t
        c = 0.5 * gen.dirichlet(np.ones(prob.y_size), size=shape[:-1]) + 0.5 / prob.y_size
        d = 0.5 * gen.dirichlet(np.ones(prob.y_size), size=shape[:-1]) + 0.5 / prob.y_size - c
        for objective, subset, user, _, _ in _targets(prob.coalition_size):
            payoff = Payoff(prob, law_tensors(prob, law), objective, subset, user)
            phi = payoff.segment(c, d)
            for t in (0.0, 0.4, 1.0):
                slope, curv = phi(t)
                v = [payoff.value(c + (t + j * h) * d) for j in (-1, 0, 1)]
                want_slope = (v[2] - v[0]) / (2 * h)
                want_curv = (v[2] - 2 * v[1] + v[0]) / (h * h)
                assert abs(slope - want_slope) <= 1e-7 * max(1.0, abs(slope)), (
                    label, objective, subset, user, t)
                assert abs(curv - want_curv) <= 1e-3 * max(1.0, abs(curv)), (
                    label, objective, subset, user, t)
                assert curv >= 0.0


@pytest.mark.parametrize("slope, curv, want", [
    (lambda t: 2 * (t - 0.3), lambda t: 2.0, 0.3),  # interior minimum
    (lambda t: math.exp(3 * t) - 2.0, lambda t: 3 * math.exp(3 * t), math.log(2.0) / 3),
    (lambda t: 4 * (t - 0.7) ** 3 + 1e-3 * (t - 0.7), lambda t: 12 * (t - 0.7) ** 2 + 1e-3, 0.7),
    (lambda t: 2 * (t - 1.7), lambda t: 2.0, 1.0),  # minimum past the segment: at 1
    (lambda t: 2 * (t - 1.0), lambda t: 2.0, 1.0),  # minimum at 1 exactly
    (lambda t: 0.0, lambda t: 0.0, 1.0),  # a flat function takes the full step
    # zero curvature away from the root: bisection until Newton applies
    (lambda t: max(t - 0.6, 0.0) - max(0.2 - t, 0.0),
     lambda t: 0.0 if 0.2 < t < 0.6 else 1.0, None),
], ids=["quadratic", "exp", "flat-bottom-cubic", "past-1", "at-1", "flat", "kinked"])
def test_line_search_on_convex_functions(slope, curv, want):
    evals = []

    def phi(t):
        evals.append(t)
        return slope(t), curv(t)

    t = capacity.minimize_scalar(phi, slope(0.0))
    assert type(t) is float and 0.0 <= t <= 1.0
    if want is None:  # the slope vanishes on [0.2, 0.6]
        assert 0.2 - 1e-12 <= t <= 0.6 + 1e-12
    else:
        assert abs(t - want) <= 1e-9
    assert len(evals) <= 50


def test_line_search_returns_lo_at_a_nan_slope():
    assert capacity.minimize_scalar(lambda t: (math.nan, 1.0), -1.0) == 0.0
    # exp(5t) / 5 - e^4 t, with a NaN slope on (0.6, 1): the secant trial
    # lands below the root at 0.8, and the bisection after it in the NaN
    seen = []

    def phi(t):
        seen.append(t)
        if 0.6 < t < 1.0:
            return math.nan, math.nan
        return math.exp(5 * t) - math.exp(4), 5 * math.exp(5 * t)

    t = capacity.minimize_scalar(phi, 1.0 - math.exp(4))
    assert 0.0 < t == seen[1] < 0.6 < seen[-1] < 1.0


def _step_of(t):
    return -1.0 if t < 0.3 else 0.5 if t < 0.5 else 2.0


@pytest.mark.parametrize("xatol", [1e-12, 1e-5])
@pytest.mark.parametrize("fun", [
    # (value, slope, curvature) on [0, 1]
    (lambda t: (t - 0.3) ** 2, lambda t: 2 * (t - 0.3), lambda t: 2.0),
    (lambda t: (t - 0.7) ** 2 + 0.1 * t, lambda t: 2 * (t - 0.7) + 0.1, lambda t: 2.0),
    (lambda t: (t + 0.5) ** 2, lambda t: 2 * (t + 0.5), lambda t: 2.0),  # at 0
    (lambda t: (t - 1.7) ** 2, lambda t: 2 * (t - 1.7), lambda t: 2.0),  # at 1
    (lambda t: t * t, lambda t: 2 * t, lambda t: 2.0),
    (lambda t: (t - 1.0) ** 2, lambda t: 2 * (t - 1.0), lambda t: 2.0),
    (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0),
    (lambda t: math.nan, lambda t: math.nan, lambda t: math.nan),
    (lambda t: math.nan if t > 0.5 else (t - 0.2) ** 2,
     lambda t: math.nan if t > 0.5 else 2 * (t - 0.2),
     lambda t: math.nan if t > 0.5 else 2.0),
    (lambda t: abs(t - 0.61803), lambda t: math.copysign(1.0, t - 0.61803), lambda t: 0.0),
    (lambda t: -math.cos(7.0 * t), lambda t: 7.0 * math.sin(7.0 * t),
     lambda t: 49.0 * math.cos(7.0 * t)),
    (lambda t: max(0.0, abs(t - 0.5) - 0.2), lambda t: float((t > 0.7) - (t < 0.3)),
     lambda t: 0.0),
    # a convex function whose slope steps: bisection throughout
    (lambda t: max(-t, 0.5 * t - 0.45, 2.0 * t - 1.2), _step_of, lambda t: 0.0),
], ids=["inside", "tilted", "at-0", "at-1", "at-0-exactly", "at-1-exactly", "constant",
        "nan", "nan-above-half", "kink", "several-minima", "flat-bottom", "steps"])
def test_line_search_takes_scipys_iterates(fun, xatol):
    """Named for the bounded-Brent port the search replaced, which took
    SciPy's iterates bit for bit: the search now ends no higher than SciPy's
    bounded Brent at xatol, up to the largest |slope| times twice the
    search's own stopping tolerance."""
    value, slope, curv = fun
    t = capacity.minimize_scalar(lambda t: (slope(t), curv(t)), slope(0.0))
    assert type(t) is float and 0.0 <= t <= 1.0
    if math.isnan(slope(1.0)):  # a NaN slope at 1 returns lo
        assert t == 0.0
        return
    ref = scipy.optimize.minimize_scalar(
        value, bounds=(0.0, 1.0), method="bounded", options={"xatol": xatol}
    )
    lipschitz = max(abs(slope(i / 64)) for i in range(65))
    tol = 2.0 * (capacity._SQRT_EPS * t + capacity._XATOL / 3.0)
    assert value(t) <= value(float(ref.x)) + lipschitz * tol


def _frank_wolfe_segments():
    """(payoff, c, d, slope at 0) of every Frank-Wolfe line search of inner solves
    at random laws over five families: FairMarking K=3, detect-all, the
    single-user game, Marking and Distortion."""
    fam = Distortion(estimator=np.array([[0, 0], [0, 1]]), d2=1.0 - np.eye(2), cap=0.3)
    problems_ = [
        fair_problem(k=3),
        fair_problem(k=2, objective="detect_all"),
        fair_problem(k=3, objective="simple"),
        GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=Marking()),
        GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=fam),
    ]
    segments, slopes = [], []
    real_segment, real_search = Payoff.segment, capacity.minimize_scalar

    def recorded(self, c, d):
        segments.append((self, c.copy(), d.copy()))
        return real_segment(self, c, d)

    def search(phi, slope0):
        slopes.append(slope0)
        return real_search(phi, slope0)

    gen = np.random.default_rng(11)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Payoff, "segment", recorded)
        mp.setattr(capacity, "minimize_scalar", search)
        mp.setattr(capacity, "_MAX_ITER", 60)  # enough segments, less time
        for problem in problems_:
            for _ in range(16):
                theta = gen.normal(0.0, 1.0, capacity._theta_dim(problem))
                inner_min_channel(capacity._law_from_theta(problem, theta), problem, tol=1e-12)
    assert len(segments) == len(slopes)
    return [seg + (slope0,) for seg, slope0 in zip(segments, slopes)]


def test_line_search_is_no_worse_than_scipys_bounded_brent():
    segments = _frank_wolfe_segments()
    assert len(segments) >= 1000
    for payoff, c, d, slope0 in segments:
        def fun(t):
            return payoff.value(c + t * d)

        t = capacity.minimize_scalar(payoff.segment(c, d), slope0)
        ref = scipy.optimize.minimize_scalar(
            fun, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12}
        )
        assert fun(t) <= ref.fun + 1e-15 * max(1.0, abs(ref.fun))


def test_unchecked_ascent_law_validates_through_replace():
    theta = np.array([0.3, -1.0, 2.0])
    law = capacity._law_from_theta(fair_problem(k=2), theta)
    checked = InputLaw(p_w=law.p_w, p_x_given_sw=law.p_x_given_sw)
    again = replace(law)
    assert np.array_equal(again.p_w, checked.p_w)
    assert np.array_equal(again.p_x_given_sw, checked.p_x_given_sw)
    assert not again.p_x_given_sw.flags.writeable
    bad = InputLaw._trusted(np.array([0.7, 0.7]), np.full((1, 2, 2), 0.5))
    with pytest.raises(ConfigError):
        replace(bad)


# ---------------------------------------------------------------------------
# exponent programs


def test_exponent_zero_above_floor_and_positive_below():
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    full = (0, 1)
    assert pseudo_sphere_packing(0.2501, law, prob, subset=full) == 0.0
    v = pseudo_sphere_packing(0.24, law, prob, subset=full)
    assert 1e-4 < v < 0.01


def test_an_error_in_a_random_start_propagates(monkeypatch):
    # the starts once caught every exception and fell back to the floor
    # channel; only an infeasible draw may do that
    prob = fair_problem(k=2)

    class Bug(Exception):
        pass

    def broken(*args, **kwargs):
        raise Bug

    real_floor = exponents._inner_floor

    def floor_then_break(*args):
        out = real_floor(*args)
        monkeypatch.setattr(prob.channel_class, "linmin", broken)
        return out

    monkeypatch.setattr(exponents, "_inner_floor", floor_then_break)
    with pytest.raises(Bug):
        pseudo_sphere_packing(0.24, prob.uniform_law(), prob, subset=(0, 1), restarts=2)


def test_exponent_matches_reduced_grid():
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    for rate in (0.24, 0.22, 0.21):
        v = pseudo_sphere_packing(rate, law, prob, subset=(0, 1))
        g, _ = reduced_exponent_grid(rate, step=1e-3)
        assert v <= g + 1e-9          # lattice is a restriction
        assert g - v < 2e-3           # and a fine one


def test_exponent_infeasible_region_is_infinite_both_ways():
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    v = pseudo_sphere_packing(0.19, law, prob, subset=(0, 1))
    g, _ = reduced_exponent_grid(0.19)
    assert math.isinf(v) and math.isinf(g)


def test_exponent_sweep_is_nonincreasing():
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    rates = np.linspace(0.205, 0.30, 12)
    vals = exponent_sweep(rates, law, prob, subset=(0, 1), restarts=3)
    for lo, hi in zip(vals[:-1], vals[1:]):
        assert hi <= lo + 1e-9


def test_single_user_subset_window_is_narrow_but_real():
    # fairness ties force symmetry here, so the watched-one program only
    # breathes between the tied information floor and the product floor
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    assert math.isinf(pseudo_sphere_packing(0.29, law, prob, subset=(0,)))
    mid = pseudo_sphere_packing(0.309, law, prob, subset=(0,))
    assert 0 < mid < 0.01
    assert pseudo_sphere_packing(0.33, law, prob, subset=(0,)) == 0.0


def test_marginal_mode_nested_between_product_floors():
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    v = pseudo_sphere_packing(0.15, law, prob, user=0)
    assert 0 < v < 0.1
    assert pseudo_sphere_packing(0.20, law, prob, user=0) == 0.0


def test_memoryless_variant_never_exceeds_constrained():
    gen = np.random.default_rng(7)
    prob = fair_problem(k=2)
    for _ in range(6):
        law = law_for(prob, float(gen.uniform(0.25, 0.75)))
        _, floor = inner_min_channel(law, prob, tol=1e-10)
        rate = max(floor - float(gen.uniform(0.005, 0.03)), 1e-3)
        vc = pseudo_sphere_packing(rate, law, prob, subset=(0, 1), restarts=4)
        vm = memoryless_exponent_variant(rate, law, prob, subset=(0, 1), restarts=4)
        assert vm <= vc + 1e-5


def test_plain_marking_exponent_not_above_fair():
    fairp = fair_problem(k=2)
    plain = GameProblem(
        coalition_size=2, x_size=2, y_size=2, channel_class=Marking()
    )
    law = fairp.uniform_law()
    vf = pseudo_sphere_packing(0.22, law, fairp, subset=(0, 1))
    vp = pseudo_sphere_packing(0.22, law, plain, subset=(0, 1))
    assert vp <= vf + 1e-6


def test_host_tilt_keeps_exponent_positive_at_any_rate():
    prob = GameProblem(
        coalition_size=2, x_size=2, y_size=2,
        channel_class=FairMarking(), s_size=2,
        p_host=np.array([0.5, 0.5]),
    )
    px = np.tile(np.array([[0.5, 0.5]]), (2, 1)).reshape(2, 1, 2)
    tilted = InputLaw(
        p_w=np.array([1.0]),
        p_x_given_sw=px,
        p_s_tilde_given_w=np.array([[0.8, 0.2]]),
    )
    v = pseudo_sphere_packing(1.0, tilted, prob, subset=(0, 1))
    # D(tilt || host) = D((.8,.2)||(.5,.5)) is a hard floor
    tilt_floor = 0.8 * math.log2(1.6) + 0.2 * math.log2(0.4)
    assert v >= tilt_floor - 1e-6


def test_operating_point_search_reports_convergence(monkeypatch):
    monkeypatch.setattr(exponents, "_PSP_RESTARTS", 2)
    prob = fair_problem(k=2)
    out = solve_exponent_program(0.2, prob, restarts=2)
    assert out["converged"] is True
    assert out["value"] >= 0.0
    assert isinstance(out["input_law"], InputLaw)


def test_operating_point_search_survives_an_infeasible_host_tilt(monkeypatch):
    # the untilted uniform law gives +inf here, so the host-tilt descent
    # starts at +inf; it must stop there instead of walking to NaN
    prob = GameProblem(
        coalition_size=2, x_size=2, y_size=2, channel_class=FairMarking(),
        s_size=2, p_host=[0.5, 0.5],
    )
    for name, value in (("_PSP_RESTARTS", 1), ("_ROUNDS", 1), ("_ASCENT_STEPS", 3)):
        monkeypatch.setattr(exponents, name, value)
    out = solve_exponent_program(0.2, prob, restarts=1)
    assert isinstance(out["input_law"], InputLaw)
    assert not any(math.isnan(v) for v in out["history"])
    assert out["value"] == math.inf or out["value"] >= 0.0


def test_exponent_argument_validation():
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    with pytest.raises(ConfigError):
        pseudo_sphere_packing(0.2, law, prob)
    with pytest.raises(ConfigError):
        pseudo_sphere_packing(0.2, law, prob, subset=(0,), user=1)
    with pytest.raises(ConfigError):
        pseudo_sphere_packing(-0.1, law, prob, subset=(0, 1))
    with pytest.raises(ConfigError):
        pseudo_sphere_packing(0.2, law, prob, subset=(0, 5))


# ---------------------------------------------------------------------------
# exchangeable-block entropy comparisons


def symmetrized(gen, k, x, z):
    p = gen.random((x,) * k + (z,))
    q = np.zeros_like(p)
    for perm in itertools.permutations(range(k)):
        q += np.transpose(p, perm + (k,))
    q /= math.factorial(k)
    return q / q.sum()


def conditional_iid(gen, k, x, z):
    pz = gen.dirichlet(np.ones(z))
    px = gen.dirichlet(np.ones(x), size=z)
    out = np.ones((x,) * k + (z,))
    for j in range(z):
        block = np.ones((x,) * k)
        for m in range(k):
            shape = [1] * k
            shape[m] = x
            block = block * px[j].reshape(shape)
        out[..., j] = pz[j] * block
    return out


def test_block_comparisons_hold_on_random_symmetric_joints():
    gen = np.random.default_rng(3)
    for _ in range(40):
        k = int(gen.integers(2, 4))
        x = int(gen.integers(2, 4))
        z = int(gen.integers(2, 5))
        q = symmetrized(gen, k, x, z)
        sizes = sorted(gen.choice(k, size=2, replace=True) + 1)
        a = tuple(range(sizes[0]))
        b = tuple(range(sizes[1]))
        rep = check_fair_inequalities(q, a, b)
        assert rep.holds


def test_block_comparisons_tight_under_conditional_iid():
    gen = np.random.default_rng(5)
    for _ in range(10):
        q = conditional_iid(gen, 3, 2, 3)
        rep = check_fair_inequalities(q, (0,), (0, 1, 2))
        assert rep.tight["block_entropy"] and rep.tight["plain_entropy"]


def test_asymmetric_joint_is_rejected():
    p = np.zeros((2, 2, 2))
    p[0, 1, 0] = 1.0
    with pytest.raises(ConfigError):
        check_fair_inequalities(p, (0,), (0, 1))


def test_subset_nesting_is_enforced():
    gen = np.random.default_rng(11)
    q = symmetrized(gen, 2, 2, 2)
    with pytest.raises(ConfigError):
        check_fair_inequalities(q, (0, 1), (1,))


def test_memoryless_sweep_repairs_a_multistart_miss():
    # the memoryless multistart misses here; the sweep must take the same
    # repair as memoryless_exponent_variant instead of reporting +inf
    prob = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=Marking())
    law = law_for(prob, 0.7)
    swept = exponent_sweep([0.1], law, prob, subset=(0, 1), restarts=2, memoryless=True)
    direct = memoryless_exponent_variant(0.1, law, prob, subset=(0, 1), restarts=2)
    assert swept[0] == direct
    assert abs(direct - 0.13770) < 1e-4


def test_layout_gather_inverts_scatter():
    gen = np.random.default_rng(0)
    families = [
        FairMarking(), Marking(),
        Hull([gen.dirichlet(np.ones(2), size=(2, 2)) for _ in range(2)]),
        Hull([gen.dirichlet(np.ones(2), size=(2, 2))]),
        Distortion(np.array([[0, 0], [0, 1]]), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.05),
    ]
    kinds = set()
    for family in families:
        prob = GameProblem(
            coalition_size=2, x_size=2, y_size=2, channel_class=family,
            s_size=2, p_host=np.array([0.6, 0.4]),
        )
        law = InputLaw(p_w=np.array([1.0]), p_x_given_sw=np.tile([0.45, 0.55], (2, 1, 1)))
        for subset, user in (((0, 1), None), ((0,), None), (None, 0)):
            for memoryless in (False, True):
                lay = _Layout(prob, law, subset, user, memoryless)
                kinds.add(lay.ch_kind)
                v = gen.uniform(size=lay.dim)
                back = lay.gather(lay.scatter_t(v), lay.channel_table(v))
                assert np.allclose(back[: lay.n_t], v[: lay.n_t], rtol=0, atol=1e-15)
                if lay.ch_kind == "table":
                    assert np.array_equal(back[lay.n_t :], v[lay.n_t :])
    assert kinds == {"table", "lambda", "none"}


def _central_difference(f, v, h=1e-6):
    cols = []
    for i in range(len(v)):
        e = np.zeros(len(v))
        e[i] = h
        cols.append((np.atleast_1d(f(v + e)) - np.atleast_1d(f(v - e))) / (2 * h))
    return np.array(cols).T


def _jacobian_cases():
    """Every layout of the exponent-layout golden, then a tied FairMarking
    single user without host, Y = 3, a three-vertex Hull and K = 3."""
    from test_goldens import _layout_cases

    yield from _layout_cases()
    gen = np.random.default_rng(4)
    yield fair_problem(k=2), law_for(None, 0.3), (0,), 0.2
    yield fair_problem(k=2, y=3), law_for(None, 0.6), (0, 1), 0.2
    hull = Hull([gen.dirichlet(np.ones(2), size=(2, 2)) for _ in range(3)])
    yield GameProblem(
        coalition_size=2, x_size=2, y_size=2, channel_class=hull
    ), law_for(None, 0.4), (0, 1), 0.05
    yield fair_problem(k=3), law_for(None, 0.45), (0, 2), 0.1


def test_exponent_program_derivatives_match_differences():
    # every derivative SLSQP is handed, against 3-point differences at random
    # interior points, within 1e-6 max(1, |g|): the objective, the phase-1
    # objective and every constraint of both programs
    gen = np.random.default_rng(11)
    kinds, programs = set(), set()
    for problem, law, subset, rate in _jacobian_cases():
        for memoryless in (False, True):
            targets = [(subset, None)] + ([(None, 0)] if subset == (0, 1) else [])
            for sub, user in targets:
                lay = _Layout(problem, law, sub, user, memoryless)
                kinds.add(lay.ch_kind)
                structure, info_con = lay.constraints(rate)
                pieces = [
                    (lambda v: lay.objective(v)[0], lambda v: lay.objective(v)[1]),
                    (lambda v: lay.info_excess(v, rate)[0],
                     lambda v: lay.info_excess(v, rate)[1]),
                ] + [(c["fun"], c["jac"]) for c in structure + [info_con]]
                programs.update(
                    ("ties" if c["fun"] == lay.tie_residuals else c["type"], memoryless)
                    for c in structure
                )
                for _ in range(2):
                    v = gen.uniform(0.05, 0.95, lay.dim)
                    for fun, jac in pieces:
                        g = np.atleast_2d(jac(v))
                        fd = _central_difference(fun, v).reshape(g.shape)
                        assert np.all(np.abs(g - fd) <= 1e-6 * np.maximum(1.0, np.abs(g)))
    assert kinds == {"table", "lambda", "none"}
    assert {("ties", False), ("ineq", False), ("ineq", True)} <= programs


def test_warm_sweep_never_exceeds_a_cold_solve():
    # the warm vector is one start more than a cold call's, which the sweep
    # replays draw for draw; here a warm start once took a random start's
    # slot and the memoryless sweep reported 0.0679 at rates 0.15 and 0.2
    prob = fair_problem(k=2)
    law = law_for(prob, 0.3)
    rates = np.linspace(0.05, 0.3, 6)
    for memoryless, solver in (
        (False, pseudo_sphere_packing), (True, memoryless_exponent_variant)
    ):
        swept = exponent_sweep(
            rates, law, prob, subset=(0,), restarts=2, memoryless=memoryless
        )
        cold = [solver(r, law, prob, subset=(0,), restarts=2) for r in rates]
        assert all(s <= c for s, c in zip(swept, cold)), (memoryless, swept, cold)
    assert swept[2] < 0.03 and swept[3] < 0.03


@pytest.mark.parametrize("family, p0, rate", [
    (FairMarking(), 0.3, 0.16),
    (FairMarking(), 0.3, 0.12),
    (FairMarking(), 0.65, 0.19),
    (FairMarking(), 0.8, 0.05),
    (Marking(), 0.3, 0.14),
    (Marking(), 0.65, 0.19),
    (Marking(), 0.8, 0.09),
])
def test_exponent_matches_bernoulli_lattice(family, p0, rate):
    # the lattice points are feasible points, so the solver may not exceed
    # the lattice minimum; it may fall below it by at most the cost change
    # across two lattice cells
    prob = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=family)
    v = pseudo_sphere_packing(rate, law_for(prob, p0), prob, subset=(0, 1))
    if isinstance(family, Marking):
        g, slack = marking_exponent_grid(rate, p0, step=2e-3)
    else:
        g, slack = reduced_exponent_grid(rate, step=1e-3, p0=p0)
    assert math.isfinite(g) and g > 0
    assert v <= g + 1e-9
    assert g - v <= slack


# ---------------------------------------------------------------------------
# the infeasibility certificate: a convex bound on the information over the
# pin polytope ends a solve whose rate it clears


_MIN_FULL_INFO = (2.0 - math.log2(3.0)) / 2.0  # FairMarking K=2, X=Y=2, uniform


def _counting_minimize(monkeypatch):
    """Patch the exponent programs' SLSQP with one that counts its calls."""
    calls = []
    real = exponents.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(exponents, "minimize", counted)
    return calls


def test_certificate_meets_the_oracle_and_ends_infeasible_rates_at_once(monkeypatch):
    # the benchmark sweep, with the certificate off (an infinite margin) and
    # on: equal values, and each infeasible rate ends after two SLSQP calls
    prob = fair_problem(k=2)
    law = prob.uniform_law()
    calls = _counting_minimize(monkeypatch)
    swept = []
    for margin in (math.inf, exponents._CERT_MARGIN):
        monkeypatch.setattr(exponents, "_CERT_MARGIN", margin)
        rows = []
        for _, rate, val, info in exponents._sweep(
            np.linspace(0.19, 0.33, 20), law, prob, (0, 1), None, False, 6, 0
        ):
            rows.append((rate, val, info, len(calls)))
            calls.clear()
        swept.append(rows)
    off, on = swept
    assert [row[1] for row in on] == [row[1] for row in off]
    for rate, val, info, n_calls in on:
        if rate < 0.208:
            assert val == math.inf and info["feasible_starts"] == 0 and n_calls <= 2
            assert abs(info["info_lower_bound"] - _MIN_FULL_INFO) <= 1e-6
        else:
            assert "info_lower_bound" not in info
    _, _, info = pseudo_sphere_packing(0.208, law, prob, subset=(0, 1), full_output=True)
    assert "info_lower_bound" not in info and info["feasible_starts"] > 0


def _pin_points(lay, gen, count):
    """Random points of the pin polytope, X = 2: each cell's product law
    plus e * prod_m (-1)^x_m, which keeps every single-user marginal, with
    y split at random over each class's free slots."""
    sign = np.ones(lay.xshape)
    for m in range(lay.k):
        sign = sign * np.array([1.0, -1.0]).reshape((1,) * m + (2,) + (1,) * (lay.k - m - 1))
    room = lay.prodx.reshape(lay.n_cells, -1).min(axis=1).reshape((-1,) + (1,) * lay.k)
    for _ in range(count):
        x_law = lay.prodx + gen.uniform(-1.0, 1.0, room.shape) * room * sign
        split = gen.random(lay.t_mask.shape) * lay.t_mask
        split /= split.sum(axis=1, keepdims=True)
        yield lay.gather(x_law[..., None] * split[lay.ids], lay.ch_const)


def test_info_lower_bound_holds_for_any_multipliers():
    # the bound is a weak-duality bound, so any pin multipliers give one:
    # no point of the pin polytope may have less information than it gives
    gen = np.random.default_rng(24)
    host = GameProblem(
        coalition_size=2, x_size=2, y_size=3, channel_class=FairMarking(),
        s_size=2, p_host=np.array([0.6, 0.4]),
    )
    law = InputLaw(p_w=np.array([1.0]), p_x_given_sw=np.array([[[0.3, 0.7]], [[0.55, 0.45]]]))
    marking = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=Marking())
    for problem, law, subset, user, memoryless in (
        (host, law, (0, 1), None, False), (host, law, (0,), None, False),
        (host, law, None, 1, False), (marking, law_for(None, 0.35), (0, 1), None, True),
        (fair_problem(k=3), law_for(None, 0.4), (0, 2), None, False),
    ):
        lay = _Layout(problem, law, subset, user, memoryless)
        points = list(_pin_points(lay, gen, 30))
        assert max(np.max(np.abs(lay.pins(v))) for v in points) < 1e-12
        least = min(lay.info_value(v) for v in points)
        for v in points[:5]:
            lam = gen.normal(0.0, 1.0, len(lay.pin_target))
            assert lay.info_lower_bound(v, lam) <= least + 1e-12


def _battery_cases():
    """(problem, law, subset, user, rate), fixed-seed: the rate is a random
    fraction of the instance's inner floor, so some rates lie below the
    least information and some above it."""
    gen = np.random.default_rng(2024)

    def problem(family, k=2, y=2):
        return GameProblem(coalition_size=k, x_size=2, y_size=y, channel_class=family)

    hull = Hull([gen.dirichlet(np.ones(2), size=(2, 2)) for _ in range(2)])
    dist = Distortion(np.array([[0, 0], [0, 1]]), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.05)
    problems = [
        problem(FairMarking()), problem(FairMarking(), y=3), problem(FairMarking(), k=3),
        problem(Marking()), problem(hull), problem(dist),
    ]
    for prob in problems:
        law = law_for(None, float(gen.uniform(0.25, 0.75)))
        k = prob.coalition_size
        for subset, user in ((tuple(range(k)), None), ((0,), None), (None, 0)):
            floor, _ = exponents._inner_floor(prob, law, subset, user)
            yield prob, law, subset, user, max(floor, 0.0) * float(gen.uniform(0.2, 1.0))
    # the memoryless multistart's miss of ROADMAP item 2: not certifiable
    yield problem(FairMarking()), law_for(None, 0.3), (0,), None, 0.15


def test_certificate_never_changes_a_value(monkeypatch):
    # each solve runs with the certificate off (an infinite margin) and on;
    # the values and minimizers must match, and a certified solve's
    # uncertified twin must have found no feasible start
    calls = _counting_minimize(monkeypatch)
    certified = Counter()
    for problem, law, subset, user, rate in _battery_cases():
        for solver in (pseudo_sphere_packing, memoryless_exponent_variant):
            runs = []
            for margin in (math.inf, exponents._CERT_MARGIN):
                monkeypatch.setattr(exponents, "_CERT_MARGIN", margin)
                calls.clear()
                out = solver(
                    rate, law, problem, subset=subset, user=user, restarts=2, seed=5,
                    full_output=True,
                )
                runs.append((out, len(calls)))
            (v_off, x_off, off), n_off = runs[0]
            (v_on, x_on, on), n_on = runs[1]
            assert v_on == v_off
            assert (x_on is None and x_off is None) or np.array_equal(x_on, x_off)
            assert "info_lower_bound" not in off
            if "info_lower_bound" in on:
                certified[solver.__name__] += 1
                assert v_on == math.inf and off["feasible_starts"] == 0
                assert on["info_lower_bound"] > rate
            else:
                assert on == off
                # a memoryless call's inner constrained solve may certify
                assert n_on == n_off or solver is memoryless_exponent_variant
    assert certified["pseudo_sphere_packing"] >= 1
    # the item 2 instance, last in the battery, certified in neither mode
    assert "info_lower_bound" not in on and n_on == n_off


def test_untilted_host_law_is_truly_infeasible():
    # PR 3's host case: with S independent of everything, each host cell is
    # the K=2 uniform instance, so the least information is the oracle's
    prob = GameProblem(
        coalition_size=2, x_size=2, y_size=2, channel_class=FairMarking(),
        s_size=2, p_host=np.array([0.5, 0.5]),
    )
    for rate in (0.05, 0.1, 0.2):
        val, _, info = pseudo_sphere_packing(
            rate, prob.uniform_law(), prob, subset=(0, 1), full_output=True
        )
        assert val == math.inf and info["info_lower_bound"] > rate
        assert abs(info["info_lower_bound"] - _MIN_FULL_INFO) <= 1e-6


@pytest.mark.parametrize("field,value", [
    ("coalition_size", 2.5), ("x_size", 2.9), ("y_size", "2"), ("s_size", True),
    ("num_timeshare", True), ("num_timeshare", 1.5),
])
def test_problem_sizes_are_integers_not_truncated(field, value):
    d = fair_problem().to_dict()
    with pytest.raises(ConfigError, match=field):
        GameProblem.from_dict(dict(d, **{field: value}))


# --- the game readers: one check per rule, refused not truncated -----------


def test_family_reader_refuses_a_fractional_estimator():
    d = {"kind": "distortion", "estimator": [0, 0.7, 0.7, 1.9], "estimator_shape": [2, 2],
         "d2": [0, 1, 1, 0], "d2_shape": [2, 2], "cap": 0.5}
    with pytest.raises(ConfigError, match="estimator"):
        channel_family_from_dict(d)  # once read as [[0, 0], [0, 1]]
    assert channel_family_from_dict(dict(d, estimator=[0, 1, 1, 1])).estimator.tolist() == [
        [0, 1], [1, 1]]


DISTORTION_FAMILY = {"kind": "distortion", "estimator": [0, 1, 1, 1], "estimator_shape": [2, 2],
                     "d2": [0, 1, 1, 0], "d2_shape": [2, 2], "cap": 0.5}
HULL_FAMILY = {"kind": "hull", "shape": [2, 2, 2], "vertices": [[1, 0] * 4]}


@pytest.mark.parametrize("family,key,value,what", [
    (DISTORTION_FAMILY, "estimator", [0, True, True, 1], "estimator"),
    (DISTORTION_FAMILY, "d2", [0, 1, True, 0], "d2"),
    (HULL_FAMILY, "vertices", [[True, 0, 0, 1, 0, 1, 0, 1]], "hull vertex"),
])
def test_family_readers_refuse_a_bool_among_numbers(family, key, value, what):
    # each once read the bool as 1: numpy reshaped the list before any check
    channel_family_from_dict(family)
    with pytest.raises(ConfigError, match=what):
        channel_family_from_dict(dict(family, **{key: value}))


def test_distortion_family_with_a_wide_cost_table_solves():
    # d2 covers 3 outputs, the problem has 2: the family and its worst
    # channel agree on the rule, so the solve returns a value
    fam = Distortion(np.array([[0, 1], [1, 1]]), np.array([[0, 1, 1], [1, 0, 1]]), 0.3)
    prob = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=fam)
    spec, val = inner_min_channel(prob.uniform_law(), prob)
    assert spec.class_tag == "distortion" and spec.d2.shape == (2, 3)
    assert math.isfinite(val) and val >= -1e-9
    with pytest.raises(ConfigError, match="output alphabet"):
        GameProblem(coalition_size=2, x_size=2, y_size=4, channel_class=fam)


def test_problem_and_law_readers_refuse_unknown_keys():
    d = {"coalition_size": 2, "x_size": 2, "y_size": 2,
         "channel_class": {"kind": "boneh_shaw_fair"}}
    assert GameProblem.from_dict(dict(d, num_timeshare=2)).num_timeshare == 2
    with pytest.raises(ConfigError, match="num_timeshares"):
        GameProblem.from_dict(dict(d, num_timeshares=2))  # once ran with L = 1
    law = {"p_w": [1.0], "p_x_given_sw": [[[0.5, 0.5]]]}
    assert InputLaw.from_dict(law).p_w.tolist() == [1.0]
    with pytest.raises(ConfigError, match="p_s_tilde"):
        InputLaw.from_dict(dict(law, p_s_tilde=[[1.0]]))
