"""Joint types and information functionals against independent oracles.

The oracles here are deliberately dumb: direct -sum(p log p) formulas,
exhaustive enumeration of sequences for type-class counting, and brute-force
composition scans for quantization.  None of them share code with the
implementation paths they check.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fptrace.errors import ConfigError
from fptrace.types_core import (
    Alphabet,
    InfoQuery,
    JointType,
    Sequence,
    entropy,
    entropy_pmf,
    joint_type,
    kl_divergence,
    log_type_class_size,
    multi_info,
    multi_info_pmf,
    mutual_info,
    quantize_pmf,
)
from fptrace.types_core import _count_entropy


def seq(symbols, size):
    return Sequence.of(symbols, size)


def random_counts(rng, shape, n):
    """Random count table with the given total, via multinomial."""
    k = int(np.prod(shape))
    p = rng.dirichlet(np.ones(k))
    return rng.multinomial(n, p).reshape(shape)


# ---------------------------------------------------------------------------
# construction and serialization


def test_joint_type_counts_exact_cells():
    x = seq([0, 1, 1, 0, 1], 2)
    y = seq([2, 2, 0, 1, 2], 3)
    jt = joint_type([x, y])
    assert jt.axes == (2, 3)
    assert jt.n == 5
    expected = np.zeros((2, 3), dtype=int)
    for a, b in zip(x.symbols, y.symbols):
        expected[a, b] += 1
    assert np.array_equal(jt.counts, expected)
    # probabilities are exact integer ratios
    assert jt.prob(1, 2) == 2 / 5


def test_joint_type_rejects_mismatched_lengths():
    with pytest.raises(ConfigError):
        joint_type([seq([0, 1], 2), seq([0], 2)])


def test_sequence_rejects_out_of_alphabet():
    with pytest.raises(ConfigError):
        Sequence.of([0, 3], 3)


def test_marginal_orders_axes_as_requested():
    rng = np.random.default_rng(7)
    jt = JointType((2, 3, 2), random_counts(rng, (2, 3, 2), 40))
    m = jt.marginal((2, 1))
    assert m.axes == (2, 3)
    ref = jt.counts.sum(axis=0).T  # sum over axis0, then (1,2) -> (2,1)
    assert np.array_equal(m.counts, ref)


def test_json_roundtrip_is_flat_row_major():
    jt = JointType((2, 2), np.array([[3, 1], [0, 2]]))
    payload = json.loads(jt.to_json())
    assert payload["axes"] == [2, 2]
    assert payload["counts"] == [3, 1, 0, 2]
    back = JointType.from_json(jt.to_json())
    assert back.axes == jt.axes
    assert np.array_equal(back.counts, jt.counts)


# ---------------------------------------------------------------------------
# entropies: frozen closed-form values


def test_entropy_quarter_three_quarter():
    # H(1/4, 3/4) = 2 - (3/4) log2 3, directly
    jt = joint_type([seq([0, 1, 1, 1], 2)])
    want = 2.0 - 0.75 * math.log2(3.0)
    assert entropy(jt, InfoQuery((0,))) == pytest.approx(want, abs=1e-15)
    assert want == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_uniform_is_exact_log():
    jt = joint_type([seq([0, 1, 2, 3], 4)])
    assert entropy(jt, InfoQuery((0,))) == 2.0


def test_conditional_entropy_oracle():
    # direct sum over conditioning cells
    rng = np.random.default_rng(3)
    counts = random_counts(rng, (3, 4), 60)
    jt = JointType((3, 4), counts)
    n = 60
    want = 0.0
    for c in range(4):
        cell = counts[:, c]
        nc = cell.sum()
        for v in cell:
            if v:
                want -= (v / n) * math.log2(v / nc)
    got = entropy(jt, InfoQuery((0,), cond=(1,)))
    assert got == pytest.approx(want, abs=1e-12)


def test_mutual_info_product_counts_is_zero():
    # counts that factor exactly -> I = 0
    jt = JointType((2, 2), np.array([[6, 2], [3, 1]]))
    assert mutual_info(jt, InfoQuery((0,), (1,))) == pytest.approx(0.0, abs=1e-14)


def test_mutual_info_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        counts = random_counts(rng, (3, 2, 2), 37)
        jt = JointType((3, 2, 2), counts)
        a = mutual_info(jt, InfoQuery((0,), (1,), (2,)))
        b = mutual_info(jt, InfoQuery((1,), (0,), (2,)))
        assert a == b  # bit-for-bit


# ---------------------------------------------------------------------------
# multivariate mutual information identities


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_multi_info_identities(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    sizes = tuple(int(rng.integers(2, 4)) for _ in range(k))
    n = int(rng.integers(4, 40))
    jt = JointType(sizes, random_counts(rng, sizes, n))
    singles = [(i,) for i in range(k)]

    oi = multi_info(jt, singles)
    # two groups reduce to plain mutual information
    if k == 2:
        assert oi == pytest.approx(mutual_info(jt, InfoQuery((0,), (1,))), abs=1e-12)
    # symmetry under group reorder
    perm = list(rng.permutation(k))
    assert oi == pytest.approx(multi_info(jt, [(i,) for i in perm]), abs=1e-12)
    # peel-off chain rule
    if k >= 3:
        first = multi_info(jt, singles[:-1])
        merged = mutual_info(
            jt, InfoQuery(tuple(range(k - 1)), (k - 1,))
        )
        assert oi == pytest.approx(first + merged, abs=1e-12)
    # telescoped chain rule
    acc = mutual_info(jt, InfoQuery((0,), (1,)))
    for i in range(2, k):
        acc += mutual_info(jt, InfoQuery(tuple(range(i)), (i,)))
    assert oi == pytest.approx(acc, abs=1e-12)
    # entropy form against the last variable
    hs = sum(entropy(jt, InfoQuery((i,))) for i in range(k - 1))
    tail = entropy(jt, InfoQuery(tuple(range(k - 1)), cond=(k - 1,)))
    assert oi == pytest.approx(hs - tail, abs=1e-12)
    assert oi >= 0.0


def test_multi_info_group_decomposition_with_conditioning():
    # oI(x_1;..;x_k; y | c) = sum_i H(x_i|c) - H(x_1..x_k | y, c)
    rng = np.random.default_rng(5)
    sizes = (2, 2, 3, 2)  # x1, x2, y, c
    jt = JointType(sizes, random_counts(rng, sizes, 50))
    lhs = multi_info(jt, [(0,), (1,), (2,)], cond=(3,))
    rhs = (
        entropy(jt, InfoQuery((0,), cond=(3,)))
        + entropy(jt, InfoQuery((1,), cond=(3,)))
        - entropy(jt, InfoQuery((0, 1), cond=(2, 3)))
    )
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_pmf_functionals_match_count_functionals():
    rng = np.random.default_rng(9)
    sizes = (2, 3, 2)
    counts = random_counts(rng, sizes, 48)
    jt = JointType(sizes, counts)
    p = counts / 48
    assert entropy_pmf(p, (0,), (2,)) == pytest.approx(
        entropy(jt, InfoQuery((0,), cond=(2,))), abs=1e-12
    )
    assert multi_info_pmf(p, [(0,), (1,)], (2,)) == pytest.approx(
        multi_info(jt, [(0,), (1,)], (2,)), abs=1e-12
    )


def test_batched_entropy_equals_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(12)
    for shape, n in (((7, 4), 60), ((3, 5, 4), 200), ((6, 19), 1000)):
        counts = np.stack(
            [random_counts(rng, shape[-1:], n) for _ in range(int(np.prod(shape[:-1])))]
        ).reshape(shape)
        batched = _count_entropy(counts, n, axis=-1)
        assert batched.shape == shape[:-1]
        for idx in np.ndindex(shape[:-1]):
            assert batched[idx] == _count_entropy(counts[idx], n)
    pmfs = rng.dirichlet(np.ones(5), size=9)
    batched = _count_entropy(pmfs, 1, axis=-1)
    assert all(batched[i] == _count_entropy(pmfs[i], 1) for i in range(9))


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_frozen_value():
    d = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
    want = 1.0 - 0.5 * math.log2(3.0)  # 0.5 log2(2) + 0.5 log2(2/3)
    assert d == pytest.approx(want, abs=1e-14)


def test_kl_support_violation_is_inf():
    assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf


def test_kl_zero_on_equal_and_nonnegative():
    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(6))
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-14)
    q = rng.dirichlet(np.ones(6))
    assert kl_divergence(p, q) >= 0.0


def test_kl_conditional_weighting():
    p = np.array([[0.5, 0.5], [0.9, 0.1]])
    q = np.array([[0.25, 0.75], [0.9, 0.1]])
    w = np.array([0.3, 0.7])
    want = 0.3 * kl_divergence(p[0], q[0]) + 0.7 * kl_divergence(p[1], q[1])
    assert kl_divergence(p, q, cond=w) == pytest.approx(want, abs=1e-14)
    # zero-weight cells are ignored even if their support would clash
    q2 = np.array([[0.25, 0.75], [1.0, 0.0]])
    w2 = np.array([1.0, 0.0])
    assert math.isfinite(kl_divergence(p, q2, cond=w2))


def test_kl_accepts_joint_types():
    jt = joint_type([seq([0, 1, 1, 1], 2)])
    uniform = np.array([0.5, 0.5])
    want = 0.25 * math.log2(0.25 / 0.5) + 0.75 * math.log2(0.75 / 0.5)
    assert kl_divergence(jt, uniform) == pytest.approx(want, abs=1e-14)


# ---------------------------------------------------------------------------
# type-class counting


def brute_force_class_size(symbols, size):
    """Count sequences sharing the type of `symbols` by full enumeration."""
    target = np.bincount(symbols, minlength=size)
    hits = 0
    for cand in itertools.product(range(size), repeat=len(symbols)):
        if np.array_equal(np.bincount(cand, minlength=size), target):
            hits += 1
    return hits


def test_log_type_class_size_log2_six():
    jt = joint_type([seq([0, 0, 1, 1], 2)])
    exact, lower, upper = log_type_class_size(jt)
    assert exact == pytest.approx(math.log2(6.0), abs=1e-12)
    assert lower <= exact <= upper


@pytest.mark.parametrize("n,size", [(4, 2), (7, 2), (6, 3), (8, 3), (10, 2)])
def test_log_type_class_size_matches_enumeration(n, size):
    rng = np.random.default_rng(n * 31 + size)
    symbols = rng.integers(0, size, n)
    jt = joint_type([Sequence.of(symbols, size)])
    exact, _, _ = log_type_class_size(jt)
    assert 2.0**exact == pytest.approx(brute_force_class_size(symbols, size), rel=1e-9)


def test_conditional_class_size_matches_enumeration():
    # count y-sequences whose joint type with a fixed x matches
    rng = np.random.default_rng(12)
    n, xs, ys = 8, 2, 2
    x = rng.integers(0, xs, n)
    y = rng.integers(0, ys, n)
    jt = joint_type([Sequence.of(x, xs), Sequence.of(y, ys)])
    exact, lower, upper = log_type_class_size(jt, cond=(0,))
    hits = 0
    for cand in itertools.product(range(ys), repeat=n):
        cjt = joint_type([Sequence.of(x, xs), Sequence.of(cand, ys)])
        if np.array_equal(cjt.counts, jt.counts):
            hits += 1
    assert 2.0**exact == pytest.approx(hits, rel=1e-9)
    assert lower <= exact <= upper + 1e-12


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


@pytest.mark.parametrize("size", [2, 3])
def test_sandwich_bounds_exhaustive(size):
    # every type over the alphabet, all blocklengths up to 12
    for n in range(1, 13):
        for comp in compositions(n, size):
            jt = JointType((size,), np.array(comp), n)
            exact, lower, upper = log_type_class_size(jt)
            assert lower - 1e-9 <= exact <= upper + 1e-9


# ---------------------------------------------------------------------------
# quantization


def test_quantize_pmf_frozen_example():
    t = quantize_pmf(np.array([0.2, 0.5, 0.3]), 10)
    assert np.array_equal(t.counts, [2, 5, 3])
    assert t.n == 10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.integers(2, 5))
def test_quantize_pmf_is_l1_optimal(seed, n, dim):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(dim))
    t = quantize_pmf(p, n)
    assert int(t.counts.sum()) == n
    got = np.abs(t.counts / n - p).sum()
    best = min(
        np.abs(np.array(comp) / n - p).sum() for comp in compositions(n, dim)
    )
    assert got <= best + 1e-12


def test_quantize_pmf_deterministic_tie_break():
    # 0.5/0.25/0.25 with n=2: floors (1,0,0), one leftover, remainders tie at
    # 0.5 for the last two cells -> lowest index wins
    t = quantize_pmf(np.array([0.5, 0.25, 0.25]), 2)
    assert np.array_equal(t.counts, [1, 1, 0])


# ---------------------------------------------------------------------------
# query validation


def test_info_query_validation():
    jt = JointType((2, 2), np.array([[1, 2], [3, 4]]))
    with pytest.raises(ConfigError):
        entropy(jt, InfoQuery((0,), partners=(1,)))  # entropy takes no partners
    with pytest.raises(ConfigError):
        mutual_info(jt, InfoQuery((0,), ()))  # MI needs partners
    with pytest.raises(ConfigError):
        mutual_info(jt, InfoQuery((0,), (0,)))  # overlap
    with pytest.raises(ConfigError):
        entropy(jt, InfoQuery((5,)))  # out of range
