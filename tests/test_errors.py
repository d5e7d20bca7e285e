"""The input policy's checks: reals, real tables, pmf rows and index sets,
and the library calls that take their indices through `index_set`."""

import math

import numpy as np
import pytest

from fptrace.codec import CodeParams, build_codebook
from fptrace.decoders import DecodeConfig, mpmi_score
from fptrace.errors import (ConfigError, float_array, index_set, int_array, pmf_rows,
                            real_at_least)
from fptrace.games import (
    FairMarking,
    GameProblem,
    check_fair_inequalities,
    inner_min_channel,
    pseudo_sphere_packing,
)


@pytest.mark.parametrize("value", [0, 2, 0.5, np.float64(0.5), np.int64(3), np.float32(1.5)])
def test_real_at_least_takes_finite_numbers(value):
    assert real_at_least(value, 0) and not real_at_least(value, 10)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, [1.0], math.nan,
                                   math.inf, -math.inf, np.float64("nan")])
def test_real_at_least_refuses_the_rest(value):
    assert not real_at_least(value, -math.inf)


def test_real_at_least_takes_an_integer_too_large_for_a_float():
    assert real_at_least(10**400, 0)


@pytest.mark.parametrize("check", [float_array, pmf_rows])
@pytest.mark.parametrize("values", [[True, False], [[0.5, "0.5"]], "x", [None],
                                    [0.5, math.nan], [[1.0, 0.0], [math.inf, 0.0]],
                                    np.array([True, False]), [[1.0], [0.5, 0.5]]])
def test_tables_refuse_bools_strings_and_non_finite_entries(check, values):
    with pytest.raises(ConfigError, match="^t"):
        check(values, "t")


@pytest.mark.parametrize("check", [float_array, pmf_rows, int_array])
@pytest.mark.parametrize("values", [[True, 0.0], [[0.0, 1.0], [0, True]], [1, np.bool_(False)],
                                    [np.array([True, False]), np.array([0.0, 1.0])]])
def test_a_bool_among_numbers_is_refused_not_read_as_1_or_0(check, values):
    # each once passed: numpy reads the list as numbers before any check
    with pytest.raises(ConfigError, match="^t must be"):
        check(values, "t")


@pytest.mark.parametrize("check", [float_array, pmf_rows])
def test_tables_come_nested_or_flat_and_read_only(check):
    nested = [[0.25, 0.75], [1, 0]]
    src = np.array(nested)
    for values in (nested, src, np.ravel(nested).tolist(), [np.float32(v) for v in src.ravel()]):
        out = check(values, "t", (2, 2))
        assert out.dtype == np.float64 and out.shape == (2, 2) and not out.flags.writeable
        assert np.array_equal(out, src)
    assert src.flags.writeable  # the caller's array is copied, not frozen
    with pytest.raises(ConfigError, match="shape"):
        check([0.25, 0.75, 1.0], "t", (2, 2))
    with pytest.raises(ConfigError, match="shape"):
        check([[0.25, 0.75, 1.0, 0.0]], "t", (2, 2))


def test_pmf_rows_clip_rounding_and_never_rescale():
    out = pmf_rows([[0.5, 0.5 + 5e-10], [1.0 + 1e-12, -1e-12]], "t")
    assert out.tolist() == [[0.5, 0.5 + 5e-10], [1.0 + 1e-12, 0.0]]
    assert not out.flags.writeable
    for bad in ([0.5, 0.5 + 2e-9], [1.0 + 2e-12, -2e-12], [[1.0, 0.0], [0.3, 0.3]], [], 1.0):
        with pytest.raises(ConfigError, match="t rows must be pmfs"):
            pmf_rows(bad, "t")


def test_index_set_sorts_distinct_indices():
    assert index_set([2, np.int64(0), 2], 3, "i") == (0, 2)
    for bad in ([True], [0.5], [3], [-1], [[0]], 1):
        with pytest.raises(ConfigError, match="^i"):
            index_set(bad, 3, "i")


# --- library calls refuse an index that is not an integer in range -----------

FAIR = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=FairMarking())
JOINT = np.full((2, 2, 2), 1 / 8)


def _mpmi(coalition):
    cb = build_codebook(CodeParams(n=16, num_users=4), np.zeros(16, int), np.zeros(16, int), 1)
    return mpmi_score(cb, coalition, np.zeros(16, int), DecodeConfig(delta=0.05))


INDEX_PROBES = {
    # each once solved, scored or raised a raw error as noted
    "exponent-subset-fractions": lambda: pseudo_sphere_packing(  # solved (0, 1)
        0.1, FAIR.uniform_law(), FAIR, subset=(0.7, 1.2), restarts=1),
    "exponent-user-fraction": lambda: pseudo_sphere_packing(  # solved user 1
        0.1, FAIR.uniform_law(), FAIR, user=1.9, restarts=1),
    "exponent-user-bool": lambda: pseudo_sphere_packing(  # solved user 1
        0.1, FAIR.uniform_law(), FAIR, user=True, restarts=1),
    "inequalities-fraction": lambda: check_fair_inequalities(JOINT, (0.5,), (0, 1)),
    "inequalities-bool": lambda: check_fair_inequalities(JOINT, (True,), (0, 1)),
    "inner-user-fraction": lambda: inner_min_channel(  # solved user 0
        FAIR.uniform_law(), FAIR, user=0.5),
    "inner-subset-bool": lambda: inner_min_channel(  # solved (1,)
        FAIR.uniform_law(), FAIR, subset=(True,)),
    "inner-subset-fraction": lambda: inner_min_channel(  # TypeError
        FAIR.uniform_law(), FAIR, subset=(0.5,)),
    "inner-subset-out-of-range": lambda: inner_min_channel(
        FAIR.uniform_law(), FAIR, subset=(0, 2)),
    "mpmi-bool": lambda: _mpmi((True, 2)),  # scored users 1 and 2
    "mpmi-fraction": lambda: _mpmi((0.5, 1)),  # IndexError
}


@pytest.mark.parametrize("probe", sorted(INDEX_PROBES))
def test_index_arguments_are_integers_in_range(probe):
    with pytest.raises(ConfigError):
        INDEX_PROBES[probe]()
