"""The one colluder-cell table against product-walk references.

Each reference below walks X^K by hand, as the solvers once did; the shared
table and everything routed through it must reproduce them exactly.
"""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from fptrace.collusion import (ChannelSpec, _cell_classes, _exchangeable, _interleaving_table,
                               _unmarked_symbol)
from fptrace.errors import ConfigError, InfeasibleError
from fptrace.games.problems import Distortion, FairMarking, Hull, Marking, _marking_linmin

SHAPES = [(k, x) for k in range(1, 5) for x in range(1, 5)]


def ref_classes(k, x_size, orbits):
    ids = np.empty((x_size,) * k, dtype=np.intp)
    reps, seen = [], {}
    for cell in itertools.product(range(x_size), repeat=k):
        key = tuple(sorted(cell)) if orbits else cell
        if key not in seen:
            seen[key] = len(reps)
            reps.append(key)
        ids[cell] = seen[key]
    sizes = np.bincount(ids.ravel(), minlength=len(reps)).astype(float)
    const = [rep[0] if len(set(rep)) == 1 else -1 for rep in reps]
    return ids, reps, sizes, const


def ref_interleaving(k, q):
    table = np.zeros((q,) * k + (q,))
    for cell in itertools.product(range(q), repeat=k):
        for sym in cell:
            table[cell + (sym,)] += 1.0 / k
    return table


def ref_marking_linmin(grad, fair):
    k = grad.ndim - 1
    x_size, y_size = grad.shape[0], grad.shape[-1]
    if fair:
        ids, reps, _, _ = ref_classes(k, x_size, True)
        g_orb = np.zeros((len(reps), y_size))
        np.add.at(g_orb, ids.ravel(), grad.reshape(-1, y_size))
        rows = np.zeros((len(reps), y_size))
        for i, rep in enumerate(reps):
            sym = rep[0] if len(set(rep)) == 1 else int(np.argmin(g_orb[i]))
            rows[i, sym] = 1.0
        return rows[ids]
    flat = grad.reshape(-1, y_size)
    rows = np.zeros_like(flat)
    rows[np.arange(len(flat)), np.argmin(flat, axis=1)] = 1.0
    for x in range(x_size):
        cell = np.ravel_multi_index((x,) * k, (x_size,) * k)
        rows[cell] = 0.0
        rows[cell, x] = 1.0
    return rows.reshape(grad.shape)


def ref_distortion_linmin(family, grad, q, fair):
    k = grad.ndim - 1
    x_size, y_size = grad.shape[0], grad.shape[-1]
    cost = family._cost(y_size)
    if fair:
        ids, reps, _, _ = ref_classes(k, x_size, True)
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
    res = linprog(obj.ravel(), A_ub=dist.ravel()[None, :], b_ub=[family.cap],
                  A_eq=a_eq, b_eq=np.ones(n_rows), bounds=(0.0, 1.0))
    if not res.success:
        raise InfeasibleError("no channel")
    rows = res.x.reshape(n_rows, y_size)
    return rows[ids] if fair else rows.reshape(grad.shape)


def ref_fair_rows(k, x_size):
    ids = _cell_classes(k, x_size, True)[0]
    pairs, rep_cell = [], {}
    for tup in itertools.product(range(x_size), repeat=k):
        o = ids[tup]
        if o not in rep_cell:
            rep_cell[o] = tup
        elif rep_cell[o] != tup:
            pairs.append((rep_cell[o], tup))
    return pairs


@pytest.mark.parametrize("k,x_size", SHAPES)
@pytest.mark.parametrize("orbits", [True, False])
def test_cell_classes_match_the_product_walk(k, x_size, orbits):
    ids, reps, sizes, const = _cell_classes(k, x_size, orbits)
    want_ids, want_reps, want_sizes, want_const = ref_classes(k, x_size, orbits)
    assert ids.shape == (x_size,) * k and np.array_equal(ids, want_ids)
    assert reps.shape == (len(want_reps), k)
    assert [tuple(r) for r in reps.tolist()] == want_reps
    assert np.array_equal(sizes, want_sizes) and sizes.dtype == float
    assert const.tolist() == want_const


@pytest.mark.parametrize("orbits", [True, False])
def test_cell_classes_are_shared_and_read_only(orbits):
    table = _cell_classes(3, 2, orbits)
    assert _cell_classes(3, 2, orbits) is table
    for arr in table:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = 0


@pytest.mark.parametrize("k,q", [(k, q) for k in range(1, 6) for q in range(1, 5)])
def test_interleaving_table_is_bit_identical_to_the_loop(k, q):
    table = _interleaving_table(k, q)
    assert np.array_equal(table, ref_interleaving(k, q))
    # built once per (k, q) and shared, so read-only
    assert _interleaving_table(k, q) is table and not table.flags.writeable


def _gradient_cases():
    for k in (1, 2, 3):
        for x in (1, 2, 3):
            for y in (x, x + 1):
                yield k, x, y


@pytest.mark.parametrize("k,x_size,y_size", list(_gradient_cases()))
@pytest.mark.parametrize("fair", [True, False])
def test_marking_linmin_matches_the_orbit_loop(k, x_size, y_size, fair):
    rng = np.random.default_rng(100 * k + 10 * x_size + y_size)
    for _ in range(5):
        grad = rng.normal(size=(x_size,) * k + (y_size,))
        assert np.array_equal(_marking_linmin(grad, fair), ref_marking_linmin(grad, fair))
    # integer gradients tie often, so the argmin tie-breaking is compared too
    grad = rng.integers(0, 2, size=(x_size,) * k + (y_size,)).astype(float)
    assert np.array_equal(_marking_linmin(grad, fair), ref_marking_linmin(grad, fair))


@pytest.mark.parametrize("k,x_size,y_size", list(_gradient_cases()))
@pytest.mark.parametrize("fair", [True, False])
def test_distortion_linmin_matches_the_two_branches(k, x_size, y_size, fair):
    rng = np.random.default_rng(7 + 100 * k + 10 * x_size + y_size)
    est = np.sort(np.indices((x_size,) * k).reshape(k, -1), axis=0)[-1]
    est = est.reshape((x_size,) * k)  # the colluders' largest symbol: symmetric
    d2 = rng.uniform(size=(x_size, y_size + 1))
    family = Distortion(est, d2, cap=0.4)
    q = rng.dirichlet(np.ones(x_size**k)).reshape((x_size,) * k)
    for _ in range(3):
        grad = rng.normal(size=(x_size,) * k + (y_size,))
        try:
            want = ref_distortion_linmin(family, grad, q, fair)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                family.linmin(grad, q_x=q, fair=fair)
            continue
        assert np.array_equal(family.linmin(grad, q_x=q, fair=fair), want)


@pytest.mark.parametrize("k,x_size", SHAPES)
def test_hull_fair_rows_keep_the_c_order_pairs(k, x_size):
    first, other = Hull._fair_rows(None, k, x_size)
    pairs = ref_fair_rows(k, x_size)
    shape = (x_size,) * k
    assert [np.unravel_index(a, shape) for a in first] == [a for a, _ in pairs]
    assert [np.unravel_index(b, shape) for b in other] == [b for _, b in pairs]


def ref_hull_fair_linmin(vertices, grad):
    scores = np.array([float(np.sum(grad * v)) for v in vertices])
    a_eq, b_eq = [[1.0] * len(vertices)], [1.0]
    for a, b in ref_fair_rows(grad.ndim - 1, grad.shape[0]):
        for y in range(grad.shape[-1]):
            a_eq.append([v[a + (y,)] - v[b + (y,)] for v in vertices])
            b_eq.append(0.0)
    res = linprog(scores, A_eq=np.asarray(a_eq), b_eq=np.asarray(b_eq), bounds=(0.0, 1.0))
    mix = np.zeros_like(vertices[0])
    for lam, v in zip(res.x, vertices):
        mix = mix + lam * v
    return mix


@pytest.mark.parametrize("k,x_size,y_size", [(2, 2, 2), (2, 3, 3), (3, 2, 3)])
def test_hull_fair_linmin_matches_the_pair_loop(k, x_size, y_size):
    rng = np.random.default_rng(k + x_size + y_size)
    shape = (x_size,) * k + (y_size,)
    base = [rng.dirichlet(np.ones(y_size), size=shape[:-1]) for _ in range(2)]
    # each vertex under every colluder relabeling, so fair mixtures exist
    hull = Hull([np.transpose(v, p + (k,)) for v in base
                 for p in itertools.permutations(range(k))])
    for _ in range(3):
        grad = rng.normal(size=shape)
        want = ref_hull_fair_linmin(hull.vertices, grad)
        assert np.array_equal(hull.linmin(grad, fair=True), want)


def test_marking_families_share_a_base_but_not_each_other():
    assert not isinstance(FairMarking(), Marking)
    assert not isinstance(Marking(), FairMarking)
    assert type(FairMarking()).__mro__[1] is type(Marking()).__mro__[1]


@pytest.mark.parametrize("k,x_size", [(1, 3), (2, 2), (2, 3), (3, 3)])
def test_marking_check_names_the_first_failing_symbol(k, x_size):
    y_size = x_size + 1
    table = Marking().start(k, x_size, y_size)
    ChannelSpec(k=k, x_size=x_size, y_size=y_size, table=table, class_tag="boneh_shaw")
    assert _unmarked_symbol(table, 1e-8) is None and _exchangeable(table, k)
    for u in range(x_size):
        bad = table.copy()
        bad[(u,) * k] = np.eye(y_size)[x_size]  # the all-u cell emits the extra symbol
        with pytest.raises(ConfigError, match=f"all-{u} cell does not copy symbol {u}$"):
            ChannelSpec(k=k, x_size=x_size, y_size=y_size, table=bad, class_tag="boneh_shaw")
        assert _unmarked_symbol(bad, 1e-8) == u
    nan = table.copy()
    nan[(0,) * k] = np.nan
    with pytest.raises(ConfigError):
        ChannelSpec(k=k, x_size=x_size, y_size=y_size, table=nan, class_tag="boneh_shaw")
    assert _unmarked_symbol(nan, 1e-8) == 0
