"""The input policy's checks: reals, real tables, pmf rows, index sets and
symbol sequences, the library calls that take their indices through
`index_set` and their sequences through `symbols`, and the solvers that
refuse a bad setting before they do any work."""

import math

import numpy as np
import pytest

from fptrace import rng as rngmod
from fptrace import simlab
from fptrace.codec import (Codebook, CodeParams, apply_rm, apply_rp, build_codebook,
                           sample_type_class)
from fptrace.collusion import (ChannelSpec, _interleaving_table, apply_memoryless,
                               check_distortion_attack, check_marking, feasibility_report,
                               interleave)
from fptrace.decoders import (DecodeConfig, guilt_indices, mpmi_decode, mpmi_score,
                              threshold_decode, verify_significance)
from fptrace.errors import (ConfigError, float_array, index_set, int_array, pmf_rows,
                            real_at_least, symbols)
from fptrace.games import (
    FairMarking,
    GameProblem,
    check_fair_inequalities,
    exponent_sweep,
    inner_min_channel,
    pseudo_sphere_packing,
    solve_capacity,
    solve_exponent_program,
)
from fptrace.games import capacity, exponents
from fptrace.types_core import Alphabet, JointType, Sequence


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


# --- symbol sequences: one rule, in `errors.symbols` -------------------------

INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def _read(values, ndim):
    try:
        out = int_array(values, "t", ndim)
    except ConfigError:
        return None
    assert out.dtype == np.int64
    return out


@pytest.mark.parametrize("dtype", INT_DTYPES)
@pytest.mark.parametrize("shape", [(0,), (4,), (2, 0), (2, 3)])
def test_int_array_fast_path_matches_the_general_path(dtype, shape):
    # an integer ndarray skips the scan; the same values as a list take it
    info = np.iinfo(dtype)
    base = np.arange(math.prod(shape), dtype=dtype).reshape(shape)
    for arr in (base, np.full(shape, info.max, dtype), np.full(shape, info.min, dtype)):
        for ndim in (None, 1, 2):
            got, want = _read(arr, ndim), _read(arr.tolist(), ndim)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == want.shape and np.array_equal(got, want)
                assert not np.shares_memory(got, arr)


@pytest.mark.parametrize("values", [[], [0, 3, 1], [-1, 2], [2**63 - 1], [2**63], [-(2**63)],
                                    [2**70, 1]])
def test_int_list_fast_path_matches_the_general_path(values):
    # a flat list of Python ints skips the scan; the same values as a tuple take it
    for ndim in (None, 0, 1, 2):
        got, want = _read(values, ndim), _read(tuple(values), ndim)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.shape == want.shape and np.array_equal(got, want)


def test_int_array_refuses_a_uint64_past_int64():
    for values in (np.array([2**63], np.uint64), np.array([[1], [2**64 - 1]], np.uint64)):
        with pytest.raises(ConfigError, match="^t must be"):
            int_array(values, "t")


def test_symbols_bound_their_alphabet_and_dimension():
    assert symbols([0, 2, 1], "s", 3).tolist() == [0, 2, 1]
    assert symbols(np.zeros((2, 0), np.int8), "s", 1, ndim=2).shape == (2, 0)
    for bad, size, ndim in (([0, 3], 3, 1), ([[0, 1]], None, 1), ([0, 1], None, 2),
                            ([0.5], None, 1), ([True], 2, 1), ([-1], 2, 1)):
        with pytest.raises(ConfigError, match="^s must be"):
            symbols(bad, "s", size, ndim)
    for size in (2.5, True, 0):
        with pytest.raises(ConfigError, match="alphabet of s"):
            symbols([0], "s", size)


P = CodeParams(n=16, num_users=4, s_size=2)
HOST = np.arange(16) % 2
W0 = np.zeros(16, int)
CFG = DecodeConfig(delta=0.05)
ROWS = np.array([[0, 1], [0, 1]])
EST, D2 = [[0, 1], [1, 1]], [[0.0, 1.0], [1.0, 0.0]]
COPY_CHANNEL = ChannelSpec(2, 2, 2, _interleaving_table(2, 2), class_tag="interleaving")


def _book():
    return build_codebook(P, HOST, W0, 1)


def _copy(offset=0.0, dtype=None):
    y = _book().row(0).astype(np.int64) + offset
    return y if dtype is None else y.astype(dtype)


def _outcome():
    cb = _book()
    return mpmi_decode(cb, cb.row(0), DecodeConfig(delta=0.5))  # accuses user 0 alone


SYMBOL_PROBES = {
    # each once ran on truncated or wrapped symbols ("ran") or raised as noted
    "codebook-host-fraction": lambda: Codebook(P, np.full(16, 0.7), W0, 1),  # ran
    "codebook-host-bool": lambda: Codebook(P, HOST.astype(bool), W0, 1),  # ran
    "codebook-host-past-s": lambda: Codebook(P, HOST + 1, W0, 1),  # refused
    "codebook-timeshare-fraction": lambda: Codebook(P, HOST, W0 + 0.2, 1),  # ran
    "codebook-rp-fraction": lambda: Codebook(P, HOST, W0, 1, rp_perm=[0.2, 1.1, 2.9, 3.0]),  # ran
    "codebook-rm-bool": lambda: Codebook(  # refused: True read as 1 repeats 1
        P, HOST, W0, 1, rm_perm=[True] + list(range(1, 16))),
    "apply-rp-fraction": lambda: apply_rp(_book(), perm=[0.2, 1.1, 2.9, 3.0]),  # ran
    "apply-rm-negative": lambda: apply_rm(_book(), perm=np.arange(16) - 1),  # refused
    "threshold-copy-fraction": lambda: threshold_decode(_book(), _copy(0.5), CFG),  # ran
    "threshold-copy-bool": lambda: threshold_decode(_book(), _copy(dtype=bool), CFG),  # ran
    "mpmi-copy-fraction": lambda: mpmi_decode(_book(), _copy(0.5), CFG),  # ran
    "mpmi-score-copy-bool": lambda: mpmi_score(_book(), (0,), _copy(dtype=bool), CFG),  # ran
    "guilt-copy-fraction": lambda: guilt_indices(_book(), _copy(0.5), _outcome()),  # ran
    "significance-copy-bool": lambda: verify_significance(  # ran
        _book(), _copy(dtype=bool), _outcome()),
    "interleave-rows-fraction": lambda: interleave(ROWS + 0.5, np.random.default_rng(0)),  # ran
    "interleave-rows-past-x": lambda: interleave(  # ran
        ROWS + 1, np.random.default_rng(0), x_size=2),
    "memoryless-rows-fraction": lambda: apply_memoryless(  # ran
        ROWS + 0.5, COPY_CHANNEL, np.random.default_rng(0)),
    "memoryless-rows-negative": lambda: apply_memoryless(  # ValueError
        ROWS - 1, COPY_CHANNEL, np.random.default_rng(0)),
    "report-copy-past-y": lambda: feasibility_report(  # ValueError on .realized
        ROWS, [0, 5], y_size=2).realized,
    "report-rows-negative": lambda: feasibility_report(  # ValueError on .realized
        [[0, -1], [0, 1]], [0, 1], y_size=2).realized,
    "report-y-size-fraction": lambda: feasibility_report(  # TypeError on .realized
        ROWS, [0, 2], y_size=2.5).realized,
    "interleave-x-size-bool": lambda: interleave(  # ran, with axes (True, True, True)
        np.zeros((2, 2), int), np.random.default_rng(0), x_size=True),
    "marking-copy-short": lambda: check_marking(ROWS, [0]),  # IndexError
    "marking-copy-fraction": lambda: check_marking(ROWS, [0, 1.5]),  # ran
    "distortion-copy-empty": lambda: check_distortion_attack(  # RuntimeWarning, (nan, False)
        [[], []], [], EST, D2, 1.0),
    "sequence-fraction": lambda: Sequence(np.array([0.5, 1.2]), Alphabet(2)),  # ran
    "sequence-of-bool": lambda: Sequence.of([True, 0], 2),  # ran
    "sequence-of-past-alphabet": lambda: Sequence.of([0, 2], 2),  # refused
    "joint-type-fraction": lambda: JointType((2,), [1.5, 2.5]),  # ran
    "type-class-cond-past-cells": lambda: sample_type_class(  # refused
        [[1, 1]], np.random.default_rng(0), cond_seq=[0, 1]),
}


@pytest.mark.parametrize("probe", sorted(SYMBOL_PROBES))
def test_symbol_arguments_are_integers_in_their_alphabet(probe):
    with pytest.raises(ConfigError):
        SYMBOL_PROBES[probe]()


@pytest.mark.parametrize("call", [
    lambda: rngmod.derive(2.7, "row"),  # once the stream of seed 2
    lambda: rngmod.derive(True, "row"),  # once the stream of seed 1
    lambda: rngmod.derive(-1, "row"),  # once a raw ValueError
    lambda: build_codebook(P, HOST, W0, 2.7),  # once book 2
    lambda: Codebook(P, HOST, W0, True),  # once book 1
    lambda: pseudo_sphere_packing(0.1, FAIR.uniform_law(), FAIR, subset=(0, 1), restarts=2,
                                  seed=0.5),
], ids=["derive-fraction", "derive-bool", "derive-negative", "build-fraction", "codebook-bool",
        "exponent-fraction"])
def test_a_master_seed_is_an_integer_at_least_0(call):
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        call()


# --- solver settings: each solver refuses a bad one before any work ----------

FAIR_L2 = GameProblem(coalition_size=2, x_size=2, y_size=2, channel_class=FairMarking(),
                      num_timeshare=2)
LAW = FAIR.uniform_law()  # a one-slot law
EXP = simlab.ExperimentConfig(params=CodeParams(n=16, num_users=4), decode=CFG, trials=2)


def _experiment(**kw):
    return simlab.ExperimentConfig(params=CodeParams(n=16, num_users=4), decode=CFG, **kw)


SETTING_PROBES = {
    # each once ran ("ran", with the value it returned) or raised as noted;
    # rate 0.3 is past the inner floor 0.25, where the exponent is 0 at once
    "inner-law-of-another-game": lambda: inner_min_channel(LAW, FAIR_L2),  # ran, 0.25
    "inner-tol-nan": lambda: inner_min_channel(LAW, FAIR, tol=math.nan),  # ran
    "inner-tol-zero": lambda: inner_min_channel(LAW, FAIR, tol=0),  # ran
    "inner-tol-negative": lambda: inner_min_channel(LAW, FAIR, tol=-1.0),  # ran
    "inner-tol-string": lambda: inner_min_channel(LAW, FAIR, tol="1e-8"),  # TypeError
    "inner-subset-and-user": lambda: inner_min_channel(  # ran the subset game
        LAW, FAIR, subset=(0,), user=1),
    "capacity-restarts-fraction": lambda: solve_capacity(FAIR, restarts=2.5),  # TypeError
    "capacity-restarts-bool": lambda: solve_capacity(FAIR, restarts=True),  # ran
    "capacity-restarts-negative": lambda: solve_capacity(FAIR, restarts=-3),  # ran
    "capacity-grid-zero": lambda: solve_capacity(FAIR, grid_resolution=0),  # refused
    "exponent-law-of-another-game": lambda: pseudo_sphere_packing(  # ran, 0.0173
        0.22, LAW, FAIR_L2, subset=(0, 1), restarts=1),
    "exponent-restarts-zero": lambda: pseudo_sphere_packing(  # ran with one start
        0.22, LAW, FAIR, subset=(0, 1), restarts=0),
    "exponent-restarts-fraction": lambda: pseudo_sphere_packing(  # TypeError
        0.22, LAW, FAIR, subset=(0, 1), restarts=1.5),
    "exponent-fast-path-seed-fraction": lambda: pseudo_sphere_packing(  # ran, 0.0
        0.3, LAW, FAIR, subset=(0, 1), seed=1.5),
    "exponent-fast-path-seed-negative": lambda: pseudo_sphere_packing(  # ran, 0.0
        0.3, LAW, FAIR, subset=(0, 1), seed=-1),
    "exponent-rate-negative": lambda: pseudo_sphere_packing(  # refused
        -0.1, LAW, FAIR, subset=(0, 1)),
    "sweep-memoryless-string": lambda: exponent_sweep(  # ran the memoryless program
        [0.3], LAW, FAIR, subset=(0, 1), memoryless="false"),
    "sweep-empty-restarts-zero": lambda: exponent_sweep(  # ran, no rate to solve
        [], LAW, FAIR, subset=(0, 1), restarts=0),
    "sweep-empty-law-of-another-game": lambda: exponent_sweep(  # ran
        [], LAW, FAIR_L2, subset=(0, 1)),
    "sweep-rates-nested": lambda: exponent_sweep([[0.3]], LAW, FAIR, subset=(0, 1)),  # refused
    "sweep-rates-scalar": lambda: exponent_sweep(0.3, LAW, FAIR, subset=(0, 1)),  # TypeError
    "program-restarts-zero": lambda: solve_exponent_program(0.3, FAIR, restarts=0),  # refused
    "program-psp-restarts-zero": lambda: solve_exponent_program(  # ran
        0.3, FAIR, psp_restarts=0),
    "program-rounds-fraction": lambda: solve_exponent_program(  # ran: one host symbol
        0.3, FAIR, rounds=1.5),
    "program-ascent-steps-negative": lambda: solve_exponent_program(  # ran, no ascent
        0.3, FAIR, ascent_steps=-1),
    "program-ascent-steps-fraction": lambda: solve_exponent_program(  # TypeError
        0.3, FAIR, ascent_steps=0.5),
    "estimate-workers-zero": lambda: simlab.estimate(EXP, workers=0),  # ran serially
    "estimate-workers-bool": lambda: simlab.estimate(EXP, workers=True),  # ran serially
    "estimate-workers-negative": lambda: simlab.estimate(EXP, workers=-1),  # ran serially
    "trial-n-fraction": lambda: simlab.run_trial(EXP, 0, n=16.5),  # ran at n=16
    "trial-index-fraction": lambda: simlab.run_trial(EXP, 0.5),  # ran as trial 0
    "n-sweep-fraction": lambda: _experiment(n_sweep=(16.5,)),  # refused
    "n-sweep-zero": lambda: _experiment(n_sweep=(0,)),  # refused
    "n-sweep-scalar": lambda: _experiment(n_sweep=16),  # TypeError
    "fast-fp-seed-fraction": lambda: simlab.threshold_fp_fast(  # refused
        16, 4, 0.05, 2, seed=1.5),
    "params-w-type-int": lambda: CodeParams(n=16, num_users=4, target_w_type=5),  # TypeError
}


class _Solved(Exception):
    """Raised by a solver stage that a probe reached."""


def _solved(*args, **kwargs):
    raise _Solved


@pytest.fixture
def no_work(monkeypatch):
    for owner, name in ((capacity, "_frank_wolfe"), (exponents, "_frank_wolfe"),
                        (exponents, "minimize"), (simlab, "build_codebook"),
                        (simlab, "_crossings")):
        monkeypatch.setattr(owner, name, _solved)


@pytest.mark.parametrize("probe", sorted(SETTING_PROBES))
def test_solver_settings_are_refused_before_any_work(no_work, probe):
    with pytest.raises(ConfigError):
        SETTING_PROBES[probe]()


@pytest.mark.parametrize("call", [
    lambda: inner_min_channel(LAW, FAIR),
    lambda: solve_capacity(FAIR),
    lambda: pseudo_sphere_packing(0.3, LAW, FAIR, subset=(0, 1)),
    lambda: exponent_sweep([0.3], LAW, FAIR, subset=(0, 1), memoryless=True),
    lambda: solve_exponent_program(0.3, FAIR),
    lambda: simlab.estimate(EXP),
    lambda: simlab.threshold_fp_fast(16, 4, 0.05, 2, seed=1),
])
def test_good_settings_reach_the_patched_work(no_work, call):
    # the probes above pass only because their settings are refused
    with pytest.raises(_Solved):
        call()
