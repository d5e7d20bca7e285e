"""Monte Carlo harness: determinism, event algebra, estimators."""

import math

import numpy as np
import pytest

from fptrace.codec import CodeParams
from fptrace.decoders import DecodeConfig
from fptrace.errors import ConfigError
from fptrace.simlab import (
    EstimateReport,
    ExperimentConfig,
    PointEstimate,
    TrialRecord,
    estimate,
    exponent_fit,
    run_trial,
    threshold_fp_exact,
    threshold_fp_fast,
    wilson_interval,
)
from fptrace.simlab import _innocent_scores
from fptrace.types_core import InfoQuery, JointType, mutual_info


def small_config(**kw):
    base = dict(
        params=CodeParams(n=32, num_users=10, k_nom=2),
        decode=DecodeConfig(delta=0.07),
        coalition=2,
        trials=50,
        seed=13,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_trial_is_deterministic():
    cfg = small_config()
    a = [run_trial(cfg, i) for i in range(8)]
    b = [run_trial(cfg, i) for i in range(8)]
    assert a == b


def test_trials_differ_across_indices_and_seeds():
    cfg = small_config(trials=30)
    recs = [run_trial(cfg, i) for i in range(30)]
    assert len({r.coalition for r in recs}) > 1
    other = small_config(seed=14)
    assert any(run_trial(other, i) != recs[i] for i in range(30))


def test_event_algebra_per_record():
    cfg = small_config(trials=60, decode=DecodeConfig(delta=0.03))
    for i in range(60):
        rec = run_trial(cfg, i)
        if rec.miss_one:
            assert rec.miss_all
        assert not (set(rec.accused) & set(rec.coalition)) == rec.miss_one
        guessed, truth = set(rec.accused), set(rec.coalition)
        assert rec.fp == bool(guessed - truth)
        assert rec.miss_all == (not truth <= guessed)


def test_record_rejects_inconsistent_events():
    with pytest.raises(ConfigError):
        TrialRecord(fp=False, miss_one=True, miss_all=False,
                    accused=(), coalition=(1, 2), resamples=0)


def test_fixed_coalition_is_respected():
    cfg = small_config(coalition=(3, 7))
    for i in range(5):
        assert run_trial(cfg, i).coalition == (3, 7)


def test_estimate_rates_and_ordering():
    cfg = small_config(trials=80)
    rep = estimate(cfg)
    p = rep.points[0]
    assert p.trials == 80
    assert p.miss_one_count <= p.miss_all_count
    assert 0.0 <= p.rate("fp") <= 1.0
    lo, hi = p.interval("miss_all")
    assert 0.0 <= lo <= p.rate("miss_all") <= hi <= 1.0


def test_estimate_worker_invariance():
    cfg = small_config(trials=90, n_sweep=(24, 32))
    solo = estimate(cfg, workers=1)
    pooled = estimate(cfg, workers=4)
    assert solo.as_rows() == pooled.as_rows()


def test_estimate_repeatable_and_seed_sensitive():
    cfg = small_config(trials=60)
    assert estimate(cfg).as_rows() == estimate(cfg).as_rows()
    other = small_config(trials=60, seed=99)
    assert estimate(other).as_rows() != estimate(cfg).as_rows()


def test_single_trial_rates_are_zero_or_one():
    cfg = small_config(trials=1)
    p = estimate(cfg).points[0]
    for ev in ("fp", "miss_one", "miss_all"):
        assert p.rate(ev) in (0.0, 1.0)


def test_n_sweep_requantizes_timeshare():
    cfg = small_config(n_sweep=(20, 40), params=CodeParams(n=20, num_users=8, w_size=2))
    rep = estimate(cfg)
    assert [p.n for p in rep.points] == [20, 40]


def test_wilson_interval_matches_known_value():
    # 10 successes in 50 trials, z = 1.96: classic worked example
    lo, hi = wilson_interval(10, 50, z=1.96)
    assert lo == pytest.approx(0.1124, abs=2e-3)
    assert hi == pytest.approx(0.3304, abs=2e-3)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_rule_of_three_ceiling():
    p = PointEstimate(n=10, trials=200, fp_count=0, miss_one_count=4,
                      miss_all_count=4, resamples=0, seconds=0.0)
    assert p.rate_ceiling("fp") == pytest.approx(3 / 200)
    assert p.rate_ceiling("miss_one") == pytest.approx(4 / 200)


def test_exponent_fit_noiseless():
    series = [(100, 2 ** (-0.05 * 100)), (200, 2 ** (-0.05 * 200)),
              (400, 2 ** (-0.05 * 400))]
    slope, stderr = exponent_fit(series)
    assert slope == pytest.approx(0.05, abs=1e-9)
    assert stderr < 1e-9


def test_exponent_fit_constant_rates():
    slope, _ = exponent_fit([(50, 0.3), (100, 0.3), (200, 0.3)])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_exponent_fit_drops_zero_rates_with_warning():
    series = [(50, 0.25), (100, 0.1), (200, 0.02), (400, 0.0)]
    with pytest.warns(UserWarning):
        slope, _ = exponent_fit(series)
    assert math.isfinite(slope)
    with pytest.warns(UserWarning), pytest.raises(ConfigError):
        exponent_fit([(50, 0.1), (100, 0.0), (200, 0.0)])


def test_exponent_fit_recovers_synthetic_exponent():
    true_e, trials = 0.08, 10 ** 5
    gen = np.random.default_rng(3)
    series = []
    for n in (60, 90, 120, 150):
        rate = gen.binomial(trials, 2 ** (-true_e * n)) / trials
        series.append((n, rate))
    slope, stderr = exponent_fit(series)
    assert abs(slope - true_e) < 3 * max(stderr, 1e-4)


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(coalition=11)
    with pytest.raises(ConfigError):
        small_config(coalition=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    with pytest.raises(ConfigError):
        small_config(decoder="viterbi")
    with pytest.raises(ConfigError):
        small_config(attack="majority")


def test_mpmi_decoder_path_runs():
    cfg = small_config(trials=12, decoder="mpmi",
                       decode=DecodeConfig(delta=0.05, k_max=2))
    p = estimate(cfg).points[0]
    assert p.miss_one_count <= p.miss_all_count


# --- fast false-positive engine ---------------------------------------------


def test_fast_engine_matches_exact_enumeration():
    for n, delta in ((60, 0.04), (100, 0.05)):
        exact = threshold_fp_exact(n, innocents=30, delta=delta)
        pe = threshold_fp_fast(n, innocents=30, delta=delta, trials=60_000, seed=5)
        se = math.sqrt(exact * (1 - exact) / pe.trials)
        assert abs(pe.rate("fp") - exact) < 4 * se


def test_fast_engine_matches_direct_pipeline():
    # same statistical model end to end: full codebooks vs sufficient stats
    n, users, delta, t = 24, 16, 0.05, 3000
    cfg = ExperimentConfig(
        params=CodeParams(n=n, num_users=users, k_nom=2),
        decode=DecodeConfig(delta=delta),
        coalition=2,
        trials=t,
        seed=21,
    )
    direct = estimate(cfg).points[0].rate("fp")
    exact = threshold_fp_exact(n, innocents=users - 2, delta=delta)
    se = math.sqrt(exact * (1 - exact) / t)
    assert abs(direct - exact) < 4 * se


def test_fast_engine_is_deterministic_and_monotone_in_delta():
    a = threshold_fp_fast(80, innocents=40, delta=0.05, trials=20_000, seed=9)
    b = threshold_fp_fast(80, innocents=40, delta=0.05, trials=20_000, seed=9)
    assert a.fp_count == b.fp_count
    hard = threshold_fp_fast(80, innocents=40, delta=0.12, trials=20_000, seed=9)
    assert hard.fp_count <= a.fp_count


def test_fast_engine_rejects_odd_blocklength():
    with pytest.raises(ConfigError):
        threshold_fp_fast(33, innocents=10, delta=0.05, trials=10)
    with pytest.raises(ConfigError):
        threshold_fp_exact(33, innocents=10, delta=0.05)
    # also too short a block, an empty coalition, a negative innocent count
    # and an empty trial budget
    for n in (0, 1):
        with pytest.raises(ConfigError):
            threshold_fp_fast(n, innocents=10, delta=0.05, trials=10)
        with pytest.raises(ConfigError):
            threshold_fp_exact(n, innocents=10, delta=0.05)
    for k in (0, -1):
        with pytest.raises(ConfigError):
            threshold_fp_fast(24, innocents=10, delta=0.05, trials=10, k=k)
        with pytest.raises(ConfigError):
            threshold_fp_exact(24, innocents=10, delta=0.05, k=k)
    with pytest.raises(ConfigError):
        threshold_fp_fast(24, innocents=-1, delta=0.05, trials=10)
    with pytest.raises(ConfigError):
        threshold_fp_exact(24, innocents=-1, delta=0.05)
    with pytest.raises(ConfigError):
        threshold_fp_fast(24, innocents=10, delta=0.05, trials=0)
    with pytest.raises(ConfigError):
        PointEstimate(24, 0, 0, 0, 0, 0, 0.0)


def test_fast_engine_scores_equal_mutual_info():
    # reference through an independent path: the explicit 2x2 joint type
    for n in (24, 60):
        half = n // 2
        for ones in range(n + 1):
            overlaps = np.arange(max(0, ones - half), min(half, ones) + 1)
            scores = _innocent_scores(overlaps, ones, n)
            for a, score in zip(overlaps, scores):
                counts = [[n - half - ones + a, ones - a], [half - a, a]]
                jt = JointType((2, 2), np.array(counts), n)
                want = mutual_info(jt, InfoQuery((0,), (1,)))
                assert abs(score - want) <= 1e-12
