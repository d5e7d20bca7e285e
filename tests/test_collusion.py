"""Attack channels, feasibility audits and colluder exchangeability."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from fptrace.collusion import (
    AttackResult,
    ChannelSpec,
    _exchangeable,
    _interleaving_table,
    apply_memoryless,
    check_distortion_attack,
    check_marking,
    feasibility_report,
    interleave,
)
from fptrace.errors import BudgetExceededError, ConfigError
from fptrace.games.problems import Distortion


def majority_channel(k=3):
    """Deterministic per-position majority vote over binary colluders."""
    table = np.zeros((2,) * k + (2,))
    for cell in itertools.product(range(2), repeat=k):
        table[cell + (int(sum(cell) * 2 > k),)] = 1.0
    return ChannelSpec(k=k, x_size=2, y_size=2, table=table, class_tag="boneh_shaw")


# ---------------------------------------------------------------------------
# spec validation


def test_interleaving_table_formula():
    ch = ChannelSpec(2, 2, 2, _interleaving_table(2, 2), class_tag="interleaving")
    # cell (0,1): half the mass on each symbol
    assert ch.table[0, 1, 0] == 0.5 and ch.table[0, 1, 1] == 0.5
    assert ch.table[0, 0, 0] == 1.0
    assert _exchangeable(ch.table, 2)


def test_class_validation_catches_lies():
    bad = np.zeros((2, 2, 2))
    bad[..., 0] = 1.0  # constant-0 output: violates marking at the all-1 cell
    with pytest.raises(ConfigError):
        ChannelSpec(k=2, x_size=2, y_size=2, table=bad, class_tag="boneh_shaw")
    with pytest.raises(ConfigError):
        ChannelSpec(k=2, x_size=2, y_size=2, table=bad, class_tag="interleaving")
    with pytest.raises(ConfigError):
        ChannelSpec(k=2, x_size=2, y_size=2, table=np.full((2, 2, 2), 0.3))


def test_channel_json_roundtrip():
    ch = majority_channel()
    back = ChannelSpec.from_json(ch.to_json())
    assert back.class_tag == "boneh_shaw"
    assert np.array_equal(back.table, ch.table)


# ---------------------------------------------------------------------------
# attacks and audits


def test_interleave_only_copies_colluders():
    rng = np.random.default_rng(0)
    x = np.array([[0, 0, 1, 1, 0, 1], [0, 1, 1, 0, 0, 0]])
    res = interleave(x, rng)
    assert res.marking_ok
    assert np.all((res.y == x[0]) | (res.y == x[1]))
    # where colluders agree the output is pinned
    agree = x[0] == x[1]
    assert np.array_equal(res.y[agree], x[0][agree])


def test_interleave_picks_uniformly():
    rng = np.random.default_rng(1)
    n = 20000
    x = np.stack([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    res = interleave(x, rng)
    assert abs(res.y.mean() - 0.5) < 0.02


def test_apply_memoryless_majority_is_deterministic():
    ch = majority_channel()
    x = np.array([[0, 1, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]])
    res = apply_memoryless(x, ch, np.random.default_rng(0))
    assert np.array_equal(res.y, [0, 1, 0, 0])
    assert res.marking_ok


def test_apply_memoryless_matches_table_statistics():
    table = np.zeros((2, 2, 2))
    table[0, 0] = [1.0, 0.0]
    table[1, 1] = [0.0, 1.0]
    table[0, 1] = [0.3, 0.7]
    table[1, 0] = [0.3, 0.7]
    ch = ChannelSpec(k=2, x_size=2, y_size=2, table=table, class_tag="boneh_shaw")
    n = 40000
    x = np.stack([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    res = apply_memoryless(x, ch, np.random.default_rng(5))
    assert abs(res.y.mean() - 0.7) < 0.01
    # realized conditional type is recomputable and sits in the report
    cond = res.realized.counts[0, 1] / res.realized.counts[0, 1].sum()
    assert abs(cond[1] - 0.7) < 0.01


def test_apply_memoryless_stays_in_the_output_alphabet():
    # a row may sum to 1 - 5e-10; a draw past its mass once emitted y = y_size
    table = np.zeros((2, 2, 2))
    table[0, 0], table[1, 1] = [1.0, 0.0], [0.0, 1.0]
    table[0, 1] = table[1, 0] = [0.5, 0.5 - 5e-10]
    ch = ChannelSpec(k=2, x_size=2, y_size=2, table=table, class_tag="boneh_shaw")

    class Late:
        def random(self, n):
            return np.full(n, 1.0 - 1e-10)

    res = apply_memoryless(np.array([[0, 1], [1, 0]]), ch, Late())
    assert res.y.tolist() == [1, 1] and res.realized.counts.sum() == 2


def test_check_marking():
    x = np.array([[0, 1, 1], [0, 1, 0]])
    assert check_marking(x, np.array([0, 1, 1]))
    assert not check_marking(x, np.array([1, 1, 0]))
    assert not check_marking(x, np.array([0, 0, 1]))


def test_distortion_audit():
    # estimator = majority (symmetric); hamming cost
    est = np.zeros((2, 2, 2), dtype=int)
    for cell in itertools.product(range(2), repeat=3):
        est[cell] = int(sum(cell) * 2 > 3)
    d2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = np.array([[0, 1, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0]])
    # majorities: 0,1,0,0
    value, ok = check_distortion_attack(x, np.array([0, 1, 0, 1]), est, d2, 0.25)
    assert value == 0.25 and ok
    value, ok = check_distortion_attack(x, np.array([1, 0, 1, 1]), est, d2, 0.25)
    assert value == 1.0 and not ok


def test_distortion_audit_rejects_asymmetric_estimator():
    est = np.array([[0, 0], [1, 1]])  # copies colluder 1: not symmetric
    d2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ConfigError):
        check_distortion_attack(
            np.array([[0, 1], [1, 0]]), np.array([0, 1]), est, d2, 1.0
        )


@pytest.mark.parametrize("est,d2,cap", [
    ([[0, 0.7], [0.7, 1.9]], [[0.0, 1.0], [1.0, 0.0]], 1.0),  # once read as [[0, 0], [0, 1]]
    ([[0, 1], [1, 1]], [[0.0, math.nan], [1.0, 0.0]], 1.0),
    ([[0, 1], [1, 1]], [[0.0, 1.0], [1.0, 0.0]], math.inf),
    ([[0, 1], [1, 1]], [[0.0, 1.0], [1.0, 0.0]], True),
    ([0, 1], [[0.0, 1.0], [1.0, 0.0]], 1.0),  # one symbol for two colluders
])
def test_distortion_audit_checks_its_rule(est, d2, cap):
    with pytest.raises(ConfigError):
        check_distortion_attack(np.array([[0, 1], [1, 1]]), np.array([0, 1]), est, d2, cap)


@pytest.mark.parametrize("x,y", [
    ([[0, 1], [1, 1]], [0, 5]),  # once a raw IndexError
    ([[0, 1], [1, 1]], [0, -1]),  # once read the last column of d2: (0.5, True)
    ([[0, -1], [1, 1]], [0, 1]),  # once read the last estimator cell
    ([[0, 1], [1, 1]], [0]),  # once broadcast over both positions
], ids=["y-past-d2", "y-negative", "x-negative", "y-short"])
def test_distortion_audit_checks_every_symbol(x, y):
    est, d2 = [[0, 1], [1, 1]], [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(ConfigError):
        check_distortion_attack(x, y, est, d2, 1.0)


def test_distortion_channel_expected_value():
    # channel that always outputs colluder agreement or flips a coin
    ch = ChannelSpec(
        k=2,
        x_size=2,
        y_size=2,
        table=_interleaving_table(2, 2),
        class_tag="distortion",
        estimator=np.array([[0, 1], [1, 1]]),  # symmetric OR estimate
        d2=np.array([[0.0, 1.0], [1.0, 0.0]]),
        distortion_cap=0.5,
    )
    p = np.full((2, 2), 0.25)
    # cells (0,0),(1,1): zero cost; cells (0,1),(1,0): estimate=1, y uniform
    cost = Distortion(ch.estimator, ch.d2, ch.distortion_cap).expected_cost(ch.table, p)
    assert cost == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# permutation structure


def relabelings(table, k):
    """The table under each of the K! colluder relabelings (reference)."""
    rest = tuple(range(k, table.ndim))
    return [np.transpose(table, p + rest) for p in itertools.permutations(range(k))]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("x_size", [2, 3])
def test_symmetry_helpers_match_the_factorial_reference(k, x_size):
    gen = np.random.default_rng(10 * k + x_size)
    raw = gen.dirichlet(np.ones(3), size=(x_size,) * k)
    # the K! mean, summed exactly so that it is exactly invariant
    stack = np.stack(relabelings(raw, k))
    want = np.apply_along_axis(math.fsum, 0, stack) / math.factorial(k)

    # the orbit-constant table, then the same table with one cell moved
    checked = {True: 0, False: 0}
    for cell in [None, *itertools.product(range(x_size), repeat=k)]:
        table = want.copy()
        if cell is not None:
            table[cell + (0,)] += 1e-6
        for tol in (0.0, 1e-9):
            ref = all(np.max(np.abs(t - table)) <= tol for t in relabelings(table, k))
            assert _exchangeable(table, k, tol) == ref
            checked[ref] += 1
    assert checked[True] and checked[False]
    assert not _exchangeable(raw, k)


def test_feasibility_report_length_check():
    with pytest.raises(ConfigError):
        feasibility_report(np.array([[0, 1]]), np.array([0, 1, 0]), y_size=2)


@pytest.mark.parametrize("x,y", [([[0, 1], [0, 1]], [0, 5]), ([[0, -1], [0, 1]], [0, 1])],
                         ids=["y-past-y_size", "x-negative"])
def test_feasibility_report_refuses_a_symbol_outside_its_alphabet(x, y):
    # each once built a report whose `realized` raised a raw ValueError
    with pytest.raises(ConfigError):
        feasibility_report(x, y, y_size=2).realized


@pytest.mark.parametrize("tag", ["explicit", "boneh_shaw", "interleaving"])
def test_only_a_distortion_channel_carries_a_distortion_rule(tag):
    # once kept, and audited by apply_memoryless though to_json dropped it
    with pytest.raises(ConfigError, match="only a distortion channel"):
        ChannelSpec(2, 2, 2, _interleaving_table(2, 2), class_tag=tag,
                    estimator=[[0, 1], [1, 1]], d2=[[0.0, 1.0], [1.0, 0.0]], distortion_cap=1.0)


def test_check_marking_refuses_a_copy_of_another_length():
    with pytest.raises(ConfigError, match="length"):  # once a raw IndexError
        check_marking([[0, 1], [0, 1]], [0])


def test_distortion_audit_refuses_an_empty_copy():
    # once the mean of an empty slice: a RuntimeWarning and (nan, False)
    with pytest.raises(ConfigError):
        check_distortion_attack([[], []], [], [[0, 1], [1, 1]], [[0.0, 1.0], [1.0, 0.0]], 1.0)


def test_interleave_audit_counts_no_dense_joint_type():
    # the (x_1, x_2, y) table at X=200 has 8e6 cells; the audits read only rows
    rows = np.random.default_rng(0).integers(0, 200, size=(2, 256))
    tracemalloc.start()
    try:
        res = interleave(rows, np.random.default_rng(1), x_size=200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert res.marking_ok and res.axes == (200, 200, 200)


def test_realized_joint_type_is_counted_on_read_under_the_cell_cap():
    rows = np.random.default_rng(2).integers(0, 3, size=(2, 40))
    res = interleave(rows, np.random.default_rng(3), x_size=3)
    assert "realized" not in vars(res)
    assert res.realized.counts.sum() == 40 and res.realized is res.realized
    wide = interleave(np.zeros((3, 8), dtype=np.int64), np.random.default_rng(4), x_size=200)
    assert wide.marking_ok
    with pytest.raises(BudgetExceededError):
        wide.realized


@pytest.mark.parametrize("field,value", [("k", 2.5), ("x_size", True), ("y_size", 2.0)])
def test_channel_dimensions_are_integers_not_truncated(field, value):
    ch = ChannelSpec(2, 2, 2, _interleaving_table(2, 2), class_tag="interleaving")
    payload = json.loads(ch.to_json())
    with pytest.raises(ConfigError, match="positive integers"):
        ChannelSpec.from_json(json.dumps(dict(payload, **{field: value})))


def _distortion_json(estimator, d2=(0, 1, 1, 0), d2_shape=(2, 2)):
    return json.dumps({
        "k": 2, "x_size": 2, "y_size": 2, "class": "distortion", "shape": [2, 2, 2],
        "table": [0.5] * 8, "estimator": estimator, "d2": list(d2),
        "d2_shape": list(d2_shape), "distortion_cap": 1.0,
    })


def test_channel_reader_refuses_a_fractional_estimator():
    # once loaded as [[0, 0], [0, 1]]
    with pytest.raises(ConfigError, match="estimator"):
        ChannelSpec.from_json(_distortion_json([0, 0.7, 0.7, 1.9]))


def test_channel_reader_refuses_a_negative_estimate():
    # an estimate of -1 once read the last row of d2
    with pytest.raises(ConfigError, match="estimator"):
        ChannelSpec.from_json(_distortion_json([0, -1, -1, 1]))


@pytest.mark.parametrize("text", [
    _distortion_json([0, True, True, 1]),
    _distortion_json([0, 1, 1, 1], (0, 1, True, 0)),
    json.dumps(dict(json.loads(_distortion_json([0, 1, 1, 1])), table=[True, 0] + [0.5] * 6)),
], ids=["estimator", "d2", "table"])
def test_channel_reader_refuses_a_bool_among_numbers(text):
    # each once read the bool as 1: numpy reshaped the list before any check
    with pytest.raises(ConfigError, match="must be"):
        ChannelSpec.from_json(text)


def test_distortion_channel_takes_a_cost_table_wider_than_its_outputs():
    # as a Distortion family does: the costs of outputs past Y are unused
    wide = ChannelSpec.from_json(_distortion_json([0, 1, 1, 1], (0, 1, 5, 1, 0, 5), (2, 3)))
    assert wide.d2.shape == (2, 3)
    cost = Distortion(wide.estimator, wide.d2, wide.distortion_cap).expected_cost(
        wide.table, np.full((2, 2), 0.25))
    assert cost == pytest.approx(0.5)
    narrow = _distortion_json([0, 1, 1, 1], (0, 1), (2, 1))
    with pytest.raises(ConfigError, match="output alphabet"):
        ChannelSpec.from_json(narrow)
