"""Monte Carlo harness: determinism, event algebra, estimators."""

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from fptrace import simlab
from fptrace.codec import CodeParams, build_codebook, draw_host, draw_timeshare
from fptrace.collusion import ChannelSpec, interleave
from fptrace.decoders import DecodeConfig, threshold_decode
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
from fptrace.simlab import _innocent_tables, _table_info
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


def test_n_sweep_keeps_a_non_uniform_timeshare_law():
    # the law was once reset to uniform: [48, 16] at n=64 gave [64, 64] at n=128
    params = CodeParams(n=64, num_users=8, w_size=2, target_w_type=[48, 16])
    cfg = small_config(n_sweep=(64, 128, 100), params=params)
    assert simlab._trial_params(cfg, 64) is params
    assert simlab._trial_params(cfg, 128).target_w_type.counts.tolist() == [96, 32]
    assert simlab._trial_params(cfg, 100).target_w_type.counts.tolist() == [75, 25]


def test_wilson_interval_matches_known_value():
    # 10 successes in 50 trials, z = 1.96: classic worked example
    lo, hi = wilson_interval(10, 50, z=1.96)
    assert lo == pytest.approx(0.1124, abs=2e-3)
    assert hi == pytest.approx(0.3304, abs=2e-3)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


@pytest.mark.parametrize("count,trials", [
    (5, 3), (1, 2.5), (-1, 3), (True, 3), (1.0, 3), (0, 0), (0, True),
])
def test_wilson_interval_refuses_counts_outside_the_trials(count, trials):
    # (5, 3) once raised "math domain error", and (1, 2.5) returned an interval
    with pytest.raises(ConfigError, match="count <= trials"):
        wilson_interval(count, trials)


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


def _direct_fp_rate(params, delta, trials, seed):
    """False-positive rate of the direct pipeline: a fresh book, a uniform
    2-user coalition, interleaving, and `threshold_decode` over every row."""
    cfg = DecodeConfig(delta=delta)
    fp = 0
    for i in range(trials):
        gen = np.random.default_rng([seed, i])
        s = draw_host(params.p_host, params.n, gen)
        w = draw_timeshare(params, gen)
        cb = build_codebook(params, s, w, seed=int(gen.integers(0, 2**62)))
        coalition = gen.choice(params.num_users, size=2, replace=False).tolist()
        y = interleave(np.stack([cb.row(m) for m in coalition]), gen, x_size=2).y
        fp += bool(set(threshold_decode(cb, y, cfg).accused) - set(coalition))
    return fp / trials


def test_fast_engine_matches_direct_pipeline():
    # same statistical model three ways: full codebooks and every row
    # scored, the trial engine's drawn innocent tables, and the enumerator
    n, users, delta, t = 24, 16, 0.05, 3000
    params = CodeParams(n=n, num_users=users, k_nom=2)
    exact = threshold_fp_exact(n, innocents=users - 2, delta=delta)
    se = math.sqrt(exact * (1 - exact) / t)
    direct = _direct_fp_rate(params, delta, t, seed=21)
    assert abs(direct - exact) < 4 * se
    cfg = ExperimentConfig(
        params=params, decode=DecodeConfig(delta=delta), coalition=2, trials=t, seed=21
    )
    engine = estimate(cfg).points[0].rate("fp")
    assert abs(engine - exact) < 4 * se


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
        threshold_fp_fast(24, innocents=-1, delta=0.05, trials=10)
    with pytest.raises(ConfigError):
        threshold_fp_exact(24, innocents=-1, delta=0.05)
    with pytest.raises(ConfigError):
        threshold_fp_fast(24, innocents=10, delta=0.05, trials=0)
    with pytest.raises(ConfigError):
        PointEstimate(24, 0, 0, 0, 0, 0, 0.0)


# records that once built and gave a rate: fractional or bool counts (fp rate
# 0.6), a bool trial budget (rule-of-three ceiling 1.0), a negative or
# fractional resample count
@pytest.mark.parametrize("record", [
    (10.5, 2, 1, 0, 1, 0), (10, 2.5, 1, 0, 1, 0), (10, 4, 1.5, 0, 1, 0), (10, 4, 1, 0.5, 1, 0),
    (10, 4, 1, 0, True, 0), (10, True, 0, 0, 0, 0), (10, 4, 1, 0, 1, -3), (10, 4, 1, 0, 1, 0.5),
], ids=["n-fraction", "trials-fraction", "fp-fraction", "miss-one-fraction", "miss-all-bool",
        "trials-bool", "resamples-negative", "resamples-fraction"])
def test_point_estimate_refuses_a_non_integer_record(record):
    with pytest.raises(ConfigError):
        PointEstimate(*record, 0.0)


@pytest.mark.parametrize("engine", ["fast", "exact"])
@pytest.mark.parametrize("field,value", [
    ("delta", math.nan), ("delta", math.inf), ("delta", True), ("delta", -5.0),
    ("delta", "0.05"), ("rate", math.inf), ("rate", -0.1),
])
def test_fast_engines_refuse_bad_reals(engine, field, value):
    # a NaN, infinite or True delta once gave fp_count 0, and a delta of
    # -5.0 an exact rate of 1.0
    reals = dict({"delta": 0.05}, **{field: value})
    with pytest.raises(ConfigError, match=field):
        if engine == "fast":
            threshold_fp_fast(20, innocents=4, trials=10, **reals)
        else:
            threshold_fp_exact(20, 4, **reals)


def test_fast_engine_scores_equal_mutual_info():
    # reference through an independent path: the explicit 2x2 joint type
    for n in (24, 60):
        half = n // 2
        for ones in range(n + 1):
            overlaps = range(max(0, ones - half), min(half, ones) + 1)
            counts = np.array([[[n - half - ones + a, ones - a], [half - a, a]] for a in overlaps])
            scores = _table_info(counts[:, None], n)
            for table, score in zip(counts, scores):
                want = mutual_info(JointType((2, 2), table, n), InfoQuery((0,), (1,)))
                assert abs(score - want) <= 1e-12


def test_table_scores_equal_threshold_decode_scores():
    # a real row's (cell, x, y) table scores what threshold_decode scores it
    for seed in range(4):
        params = CodeParams(n=48, num_users=9, s_size=2, w_size=2, x_size=3)
        gen = np.random.default_rng(seed)
        cb = build_codebook(
            params, draw_host(params.p_host, 48, gen), draw_timeshare(params, gen), seed
        )
        y = gen.integers(0, 4, size=48)
        scores = threshold_decode(cb, y, DecodeConfig(delta=0.1)).scores
        cell = cb.host * 2 + cb.timeshare
        yi = np.unique(y, return_inverse=True)[1]
        y_size = yi.max() + 1
        tables = np.stack([
            np.bincount((cell * 3 + cb.row(m)) * y_size + yi, minlength=4 * 3 * y_size)
            for m in range(9)
        ]).reshape(9, 4, 3, y_size)
        assert np.allclose(_table_info(tables, 48), [scores[m] for m in range(9)],
                           rtol=0, atol=1e-12)


def _tables_of(comp, ny):
    """Every (X, Y) table with row sums comp and column sums ny."""
    x_size, y_size = len(comp), len(ny)
    out = []
    for free in itertools.product(*[range(max(comp) + 1)] * ((x_size - 1) * y_size)):
        t = np.zeros((x_size, y_size), dtype=np.int64)
        t[:-1] = np.reshape(free, (x_size - 1, y_size))
        t[-1] = np.asarray(ny) - t[:-1].sum(axis=0)
        if t[-1].min() >= 0 and np.array_equal(t.sum(axis=1), comp):
            out.append(t)
    return out


def _table_pmf(t):
    """P(table) for a uniform arrangement of the row margin's marks over
    positions labelled by the column margin: ways to split each column
    among the marks, over ways to arrange the marks."""
    ways = 1
    for col in t.T:
        left = int(col.sum())
        for c in col:
            ways *= math.comb(left, int(c))
            left -= int(c)
    total, left = 1, int(t.sum())
    for r in t.sum(axis=1):
        total *= math.comb(left, int(r))
        left -= int(r)
    return ways / total


def test_innocent_tables_follow_the_hypergeometric_law():
    # four (s, w) cells, three marks, three pirate symbols, n = 12; a mark
    # and a y value are missing from some cells
    comp = np.array([[2, 1, 1], [1, 0, 2], [1, 1, 1], [0, 1, 1]])
    ny = np.array([[1, 2, 1], [2, 1, 0], [0, 1, 2], [1, 0, 1]])
    assert comp.sum() == ny.sum() == 12
    per_cell = [_tables_of(c, v) for c, v in zip(comp, ny)]
    law = {}
    for combo in itertools.product(*per_cell):
        law[np.stack(combo).tobytes()] = math.prod(_table_pmf(t) for t in combo)
    assert abs(sum(law.values()) - 1.0) < 1e-12
    draws = 200_000
    tables = _innocent_tables(
        np.random.default_rng(2024), comp, np.broadcast_to(ny, (draws,) + ny.shape)
    )
    assert tables.shape == (draws, 4, 3, 3)
    assert np.array_equal(tables.sum(axis=-1), np.broadcast_to(comp, (draws, 4, 3)))
    assert np.array_equal(tables.sum(axis=-2), np.broadcast_to(ny, (draws, 4, 3)))
    seen = Counter(t.tobytes() for t in tables)
    assert set(seen) <= set(law)
    # chi-square over the outcomes, those expected fewer than 5 times pooled
    big = {k: p for k, p in law.items() if p * draws >= 5}
    observed = [seen[k] for k in big] + [draws - sum(seen[k] for k in big)]
    expected = [p * draws for p in big.values()] + [draws * (1.0 - sum(big.values()))]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    # bound: the chi-square quantile at 1 - 1e-6 for this many bins
    assert chi2 < stats.chi2.ppf(1 - 1e-6, len(observed) - 1), (chi2, len(observed))


def _spy_threshold_trials(monkeypatch, cfg, trials):
    """(record, book, pirate copy) of each of the first trials of cfg."""
    seen = []
    original = simlab._threshold_accused

    def spy(cb, y, dcfg, coalition, rows, gen):
        seen.append((cb, y))
        return original(cb, y, dcfg, coalition, rows, gen)

    monkeypatch.setattr(simlab, "_threshold_accused", spy)
    recs = [run_trial(cfg, i) for i in range(trials)]
    return [(rec, cb, y) for rec, (cb, y) in zip(recs, seen)]


def _distortion_attack():
    # each colluder cell copies a colluder's mark with probability 0.8; the
    # realized distortion against AND is often above the cap, and redrawn
    table = np.full((2, 2, 2), 0.5)
    table[0, 0] = [0.8, 0.2]
    table[1, 1] = [0.2, 0.8]
    return ChannelSpec(
        k=2, x_size=2, y_size=2, table=table, class_tag="distortion",
        estimator=np.array([[0, 0], [0, 1]]), d2=np.array([[0.0, 1.0], [1.0, 0.0]]),
        distortion_cap=0.3,
    )


@pytest.mark.parametrize("case", ["side_info", "ternary", "resampled", "fixed"])
def test_coalition_decisions_equal_threshold_decode(monkeypatch, case):
    params = dict(n=32, num_users=12)
    kw = dict(decode=DecodeConfig(delta=0.06), seed=17)
    if case == "side_info":
        params.update(s_size=2, w_size=2)
    elif case == "ternary":
        params.update(x_size=3)
    elif case == "resampled":
        kw.update(attack=_distortion_attack())
    else:
        kw.update(coalition=(2, 5, 9))
    cfg = ExperimentConfig(params=CodeParams(**params), **kw)
    missed = caught = resamples = 0
    for rec, cb, y in _spy_threshold_trials(monkeypatch, cfg, 200):
        truth = set(rec.coalition)
        want = set(threshold_decode(cb, y, cfg.decode).accused) & truth
        assert set(rec.accused) & truth == want
        missed += len(truth - want)
        caught += len(want)
        resamples += rec.resamples
        if rec.accused == rec.coalition:
            assert rec.accused is rec.coalition
    assert missed and caught  # both decisions occur
    assert (resamples > 0) == (case == "resampled")


def test_innocent_scores_match_real_rows(monkeypatch):
    # distribution-level agreement on S=W=2, X=3 books: a trial's drawn
    # innocent scores against the scores threshold_decode gives the real
    # innocent rows of the same book and pirate copy
    cfg = ExperimentConfig(
        params=CodeParams(n=40, num_users=3000, s_size=2, w_size=2, x_size=3),
        decode=DecodeConfig(delta=0.05),
        seed=8,
    )
    drawn = []
    original = simlab._table_info

    def spy(tables, n):
        out = original(tables, n)
        drawn.append(out)
        return out

    monkeypatch.setattr(simlab, "_table_info", spy)
    trials = _spy_threshold_trials(monkeypatch, cfg, 3)
    drawn = np.concatenate(drawn)
    assert len(drawn) == 3 * 2998
    for (rec, cb, y), fake in zip(trials, np.split(drawn, 3)):
        scores = threshold_decode(cb, y, cfg.decode).scores
        real = np.array([v for m, v in scores.items() if m not in rec.coalition])
        # ten bins at the pooled deciles; equal scores share a bin
        both = np.round(np.concatenate([real, fake]), 9)
        edges = np.unique(np.quantile(both, np.linspace(0.1, 0.9, 9)))
        table = [np.bincount(np.searchsorted(edges, np.round(x, 9), side="right"),
                             minlength=len(edges) + 1) for x in (real, fake)]
        assert stats.chi2_contingency(table)[1] > 1e-6


def test_threshold_trial_memory_does_not_grow_with_users():
    cfg = ExperimentConfig(
        params=CodeParams(n=64, num_users=200_000, s_size=2, w_size=2),
        decode=DecodeConfig(delta=0.02),
        seed=4,
    )
    run_trial(cfg, 0)  # lazy imports and caches
    tracemalloc.start()
    try:
        rec = run_trial(cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.fp  # innocents were drawn and some crossed the low bar
    assert peak < 3_000_000, peak


def _never_drawn(*args):
    raise AssertionError("a wide table was drawn instead of the real row")


def test_wide_tables_score_the_real_rows(monkeypatch):
    # 16 marks and up to 16 y symbols in 4 cells: a table has more entries
    # than the row of n = 64 it stands for, so the trial decodes the book
    cfg = ExperimentConfig(
        params=CodeParams(n=64, num_users=40, s_size=2, w_size=2, x_size=16),
        decode=DecodeConfig(delta=0.05),
        seed=6,
    )
    monkeypatch.setattr(simlab, "_innocent_tables", _never_drawn)
    fp = 0
    for rec, cb, y in _spy_threshold_trials(monkeypatch, cfg, 20):
        assert rec.accused == threshold_decode(cb, y, cfg.decode).accused
        fp += rec.fp
    assert fp  # some innocent rows crossed the bar


def test_wide_table_trials_keep_innocent_scoring_bounded(monkeypatch):
    # at 200 marks one table would have about 150,000 entries; the innocents
    # are scored from their rows, a block at a time.  The attack's own joint
    # type is 200**3 cells, so the peak is taken over the innocent scoring
    cfg = ExperimentConfig(
        params=CodeParams(n=256, num_users=64, s_size=2, w_size=2, x_size=200),
        decode=DecodeConfig(delta=0.02),
        seed=4,
    )
    run_trial(cfg, 0)  # lazy imports and caches
    peaks = []
    original = simlab._threshold_accused

    def spy(*args):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = original(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
        return out

    monkeypatch.setattr(simlab, "_threshold_accused", spy)
    tracemalloc.start()
    try:
        run_trial(cfg, 1)
    finally:
        tracemalloc.stop()
    assert peaks and peaks[0] < 4_000_000, peaks


def test_innocent_blocks_bound_the_table_entries():
    # 3,600-entry tables: 18 a block, not all 60 at once
    comp = np.full((4, 30), 2)
    ny = np.full((1, 4, 30), 2)
    gen = np.random.default_rng(5)
    simlab._crossings(gen, comp, ny, 2, 0.5, 240)
    tracemalloc.start()
    try:
        hits = simlab._crossings(gen, comp, ny, 60, 0.5, 240)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits.size and np.all(np.diff(hits) > 0)
    assert peak < 3_000_000, peak


def _pirate_law(n, k):
    """Exact ones-count law of an interleaving copy of k balanced rows of
    length n, by enumerating every tuple of rows and every pick vector."""
    balanced = [r for r in itertools.product((0, 1), repeat=n) if sum(r) == n // 2]
    rows = np.array(list(itertools.product(balanced, repeat=k)), dtype=np.int8)
    picks = np.array(list(itertools.product(range(k), repeat=n)))
    ones = np.zeros((len(rows), len(picks)), dtype=np.int8)
    for t in range(n):
        ones += rows[:, picks[:, t], t]
    return np.bincount(ones.ravel(), minlength=n + 1) / ones.size


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pirate_ones_follow_the_enumerated_law(k):
    n, draws = 6, 400_000
    law = _pirate_law(n, k)
    seen = np.bincount(simlab._pirate_ones(np.random.default_rng(77), n, k, draws),
                       minlength=n + 1)
    assert seen.sum() == draws and np.all(seen[law == 0] == 0)
    p = law[law > 0]
    z = (seen[law > 0] - draws * p) / np.sqrt(draws * p * (1 - p) + 1e-300)
    assert np.max(np.abs(z)) < 4.5, z


def test_fast_engine_default_rate_counts_every_colluder():
    # a book of innocents + k users decodes at log2(innocents + k) / n; at
    # n=24 and k=3 no score falls between that bar and the one of k=2
    for k in (2, 4):
        own = threshold_fp_fast(64, innocents=5, delta=0.0, trials=2000, seed=1, k=k)
        given = threshold_fp_fast(64, innocents=5, delta=0.0, trials=2000, seed=1, k=k,
                                  rate=math.log2(5 + k) / 64)
        assert own.fp_count == given.fp_count


def test_fast_engine_matches_the_pipeline_at_three_colluders():
    # the trial engine interleaves three real rows of a fresh book; the fast
    # engine draws the copy's ones-count from `_pirate_ones`
    n, users, delta, t = 24, 16, 0.02, 3000
    cfg = ExperimentConfig(params=CodeParams(n=n, num_users=users, k_nom=3),
                           decode=DecodeConfig(delta=delta), coalition=3, trials=t, seed=31)
    engine = estimate(cfg).points[0]
    fast = threshold_fp_fast(n, innocents=users - 3, delta=delta, trials=40_000, seed=31, k=3)
    p = (engine.fp_count + fast.fp_count) / (t + fast.trials)
    assert 0.05 < p < 0.95, p
    se = math.sqrt(p * (1 - p) * (1 / t + 1 / fast.trials))
    assert abs(engine.rate("fp") - fast.rate("fp")) < 4 * se


@pytest.mark.parametrize("kw", [
    dict(trials=2.5), dict(trials=True), dict(seed=-1), dict(seed=1.5), dict(n_sweep=(32.5,)),
])
def test_experiment_config_refuses_non_integers(kw):
    with pytest.raises(ConfigError):
        small_config(**kw)


@pytest.mark.parametrize("kw", [
    dict(trials=2.5), dict(innocents=10.0), dict(k=2.0), dict(k=True), dict(seed=-1),
    dict(seed=1.5), dict(n=24.0),
])
def test_fast_engine_refuses_non_integers(kw):
    args = dict(n=24, innocents=10, delta=0.05, trials=10)
    with pytest.raises(ConfigError):
        threshold_fp_fast(**dict(args, **kw))


@pytest.mark.parametrize("kw", [dict(innocents=2.5), dict(innocents=True), dict(n=16.0)])
def test_exact_enumeration_refuses_non_integers(kw):
    with pytest.raises(ConfigError):
        threshold_fp_exact(**dict(dict(n=16, innocents=10, delta=0.05), **kw))
