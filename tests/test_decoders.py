"""Decoder behavior against a from-scratch coalition enumerator.

The oracle below scores coalitions with multi_info on joint types built
through the public Sequence/joint_type layer; the production decoder goes
through the equivocation shortcut.  Agreement of the two routes on random
instances is the main correctness evidence.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fptrace import codec
from fptrace import rng as rngmod
from fptrace.codec import CodeParams, build_codebook, draw_host, draw_timeshare
from fptrace.collusion import interleave
from fptrace.decoders import (
    DecodeConfig,
    DecodeOutcome,
    guilt_indices,
    mpmi_decode,
    mpmi_score,
    threshold_decode,
    verify_significance,
)
from fptrace.errors import (
    BudgetExceededError,
    ConfigError,
    InapplicableCheckError,
    StaleOutcomeError,
)
from fptrace.types_core import Sequence, joint_type, multi_info, quantize_pmf


def make_codebook(seed, n=24, m=5, s_size=1, w_size=2, x_size=2):
    params = CodeParams(
        n=n,
        num_users=m,
        s_size=s_size,
        w_size=w_size,
        x_size=x_size,
        target_w_type=quantize_pmf(np.full(w_size, 1 / w_size), n),
    )
    s = draw_host(params.p_host, n, rngmod.derive(seed, "s"))
    w = draw_timeshare(params, rngmod.derive(seed, "w"))
    return build_codebook(params, s, w, seed)


def oracle_score(cb, coalition, y, delta, rate):
    """Independent scoring route: multi_info over joint_type sequences."""
    if not coalition:
        return 0.0
    p = cb.params
    k = len(coalition)
    y_size = max(int(np.max(y)) + 1, p.x_size)
    seqs = [Sequence.of(cb.row(u), p.x_size) for u in coalition]
    seqs.append(Sequence.of(y, y_size))
    seqs.append(Sequence.of(cb.host, p.s_size))
    seqs.append(Sequence.of(cb.effective_w(), p.w_size))
    jt = joint_type(seqs)
    parts = [(i,) for i in range(k)] + [(k,)]
    info = multi_info(jt, parts, cond=(k + 1, k + 2))
    return info - k * (rate + delta)


def oracle_decode(cb, y, cfg):
    """Replicates the published decision rule with the independent scorer."""
    rate = cfg.rate if cfg.rate is not None else cb.params.rate
    best = ((), 0, 0.0)
    for k in range(0, cfg.k_max + 1):
        for cand in itertools.combinations(range(cb.params.num_users), k):
            score = oracle_score(cb, cand, y, cfg.delta, rate)
            if score > best[2] + cfg.tie_tol:
                best = (cand, k, score)
            elif score > best[2] - cfg.tie_tol and k > best[1]:
                best = (cand, k, score)
    return best


# ---------------------------------------------------------------------------
# threshold decoder


def test_planted_copy_scores_row_entropy():
    cb = make_codebook(3, n=20, m=4)
    y = cb.row(2).copy()
    cfg = DecodeConfig(delta=0.05)
    out = threshold_decode(cb, y, cfg)
    # score of the copied row is exactly H(x | s, w) of the composition
    comp = cb.cell_compositions()
    n = cb.params.n
    want = 0.0
    for cell in comp.reshape(-1, cb.params.x_size):
        tot = cell.sum()
        for c in cell:
            if c:
                want -= (c / n) * math.log2(c / tot)
    assert out.scores[2] == pytest.approx(want, abs=1e-12)
    assert 2 in out.accused
    assert out.mode == "threshold" and out.exact


def test_threshold_keeps_quiet_on_unrelated_pirate():
    cb = make_codebook(5, n=60, m=6)
    y = rngmod.derive(99, "noise").integers(0, 2, 60)
    out = threshold_decode(cb, y, DecodeConfig(delta=0.3))
    assert out.accused == ()
    assert out.best_k == 0


# ---------------------------------------------------------------------------
# joint decoder vs oracle


@pytest.mark.parametrize("seed", range(8))
def test_mpmi_decode_matches_brute_force(seed):
    gen = rngmod.derive(seed, "inst")
    n = int(gen.integers(16, 40))
    m = int(gen.integers(3, 7))
    cb = make_codebook(seed + 100, n=n, m=m)
    coalition = sorted(gen.choice(m, size=2, replace=False).tolist())
    rows = np.stack([cb.row(u) for u in coalition])
    y = interleave(rows, rngmod.derive(seed, "atk"), x_size=2).y
    cfg = DecodeConfig(delta=0.05, k_max=3)
    out = mpmi_decode(cb, y, cfg)
    want = oracle_decode(cb, y, cfg)
    assert out.accused == tuple(want[0])
    assert out.score == pytest.approx(want[2], abs=1e-9)
    assert out.exact


def test_mpmi_score_routes_agree():
    cb = make_codebook(7, n=30, m=5)
    y = interleave(np.stack([cb.row(0), cb.row(3)]), rngmod.derive(7, "a"), 2).y
    cfg = DecodeConfig(delta=0.1)
    for cand in [(0,), (0, 3), (1, 2), (0, 1, 3)]:
        a = mpmi_score(cb, cand, y, cfg)
        b = oracle_score(cb, cand, y, cfg.delta, cb.params.rate)
        assert a == pytest.approx(b, abs=1e-11)
    assert mpmi_score(cb, (), y, cfg) == 0.0


def find_twin_seed():
    """Seed whose 2-user codebook has identical rows (exists by trial)."""
    for seed in range(200):
        cb = make_codebook(seed, n=4, m=2, w_size=1)
        if np.array_equal(cb.row(0), cb.row(1)):
            return seed, cb
    raise AssertionError("no twin-row seed found")


def test_exact_tie_prefers_larger_coalition():
    # identical rows + y copying them + bar == H(x) makes sizes 0,1,2 tie
    seed, cb = find_twin_seed()
    y = cb.row(0).copy()
    # composition is (2,2) over n=4: H(x) = 1 bit; rate = 1/4 -> delta = 3/4
    cfg = DecodeConfig(delta=0.75, k_max=2)
    assert mpmi_score(cb, (0,), y, cfg) == pytest.approx(0.0, abs=1e-12)
    assert mpmi_score(cb, (0, 1), y, cfg) == pytest.approx(0.0, abs=1e-12)
    out = mpmi_decode(cb, y, cfg)
    assert out.accused == (0, 1)
    assert out.best_k == 2


def test_budget_cap_raises():
    cb = make_codebook(11, n=16, m=6)
    y = cb.row(0).copy()
    with pytest.raises(BudgetExceededError):
        mpmi_decode(cb, y, DecodeConfig(delta=0.1, k_max=3, budget=10))


def test_greedy_agrees_on_easy_instance_but_is_inexact():
    cb = make_codebook(13, n=40, m=5)
    rows = np.stack([cb.row(1), cb.row(4)])
    y = interleave(rows, rngmod.derive(13, "atk"), 2).y
    cfg_e = DecodeConfig(delta=0.05, k_max=3)
    cfg_g = DecodeConfig(delta=0.05, k_max=3, search="greedy")
    exhaustive = mpmi_decode(cb, y, cfg_e)
    greedy = mpmi_decode(cb, y, cfg_g)
    assert not greedy.exact
    assert greedy.mode == "mpmi-greedy"
    # greedy never beats the exhaustive optimum
    assert greedy.score <= exhaustive.score + 1e-12


# ---------------------------------------------------------------------------
# guilt indices


def test_guilt_indices_separate_planted_from_innocent():
    cb = make_codebook(17, n=48, m=5)
    rows = np.stack([cb.row(0), cb.row(2)])
    y = interleave(rows, rngmod.derive(17, "atk"), 2).y
    cfg = DecodeConfig(delta=0.05, k_max=3)
    out = mpmi_decode(cb, y, cfg)
    rep = guilt_indices(cb, y, out)
    if out.accused:
        # coalition evidence exceeds |acc| * rate by at least |acc| * delta
        assert rep.coalition_index >= len(out.accused) * cfg.delta - 1e-9
    for m, entry in rep.per_user.items():
        assert entry["accused"] == (m in out.accused)


def test_guilt_indices_reject_stale_outcome():
    cb = make_codebook(19, n=24, m=4)
    y = cb.row(1).copy()
    out = mpmi_decode(cb, y, DecodeConfig(delta=0.1, k_max=2))
    from dataclasses import replace

    tampered = replace(out, score=out.score + 0.5)
    with pytest.raises(StaleOutcomeError):
        guilt_indices(cb, y, tampered)


def test_guilt_indices_recheck_threshold_mode():
    cb = make_codebook(23, n=24, m=4)
    y = cb.row(1).copy()
    out = threshold_decode(cb, y, DecodeConfig(delta=0.05))
    rep = guilt_indices(cb, y, out)  # should not raise
    assert set(rep.per_user) == set(range(4))
    y2 = np.zeros_like(y)  # constant output accuses nobody
    with pytest.raises(StaleOutcomeError):
        guilt_indices(cb, y2, out)


# ---------------------------------------------------------------------------
# significance checks


def test_significance_certifies_exhaustive_optimum():
    hits = 0
    for seed in range(12):
        cb = make_codebook(300 + seed, n=160, m=5)
        gen = rngmod.derive(seed, "coal")
        coalition = sorted(gen.choice(5, size=2, replace=False).tolist())
        y = interleave(
            np.stack([cb.row(u) for u in coalition]), rngmod.derive(seed, "a"), 2
        ).y
        out = mpmi_decode(cb, y, DecodeConfig(delta=0.15, k_max=3))
        if out.best_k >= 3:  # clipped at the cap: not certifiable
            continue
        rep = verify_significance(cb, y, out)
        assert rep.ok, (seed, out.accused, rep)
        hits += 1
    assert hits >= 6  # most instances must actually exercise the check


def test_significance_rejects_greedy_and_clipped():
    cb = make_codebook(29, n=30, m=5)
    y = interleave(np.stack([cb.row(0), cb.row(1)]), rngmod.derive(29, "a"), 2).y
    greedy = mpmi_decode(cb, y, DecodeConfig(delta=0.05, k_max=3, search="greedy"))
    with pytest.raises(InapplicableCheckError):
        verify_significance(cb, y, greedy)
    # force a clip: cap the search at one user
    clipped = mpmi_decode(cb, y, DecodeConfig(delta=0.05, k_max=1))
    if clipped.best_k == 1:
        with pytest.raises(InapplicableCheckError):
            verify_significance(cb, y, clipped)


def test_outcome_invariants():
    with pytest.raises(ConfigError):
        DecodeOutcome(
            accused=(1, 2),
            best_k=1,
            score=0.0,
            scores={},
            exact=True,
            mode="mpmi",
            delta=0.1,
            rate=0.2,
        )


# ---------------------------------------------------------------------------
# one scoring route


def test_large_pirate_symbol_is_relabelled_not_tabulated():
    cb = make_codebook(37, n=24, m=5)
    small = cb.row(1).copy()
    small[3] = cb.params.x_size  # one symbol outside the mark alphabet
    large = small.copy()
    large[3] = 10**6
    cfg = DecodeConfig(delta=0.05, k_max=2)
    want = threshold_decode(cb, small, cfg)
    tracemalloc.start()
    try:
        got = threshold_decode(cb, large, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 8 * 2**20
    assert mpmi_decode(cb, large, cfg) == mpmi_decode(cb, small, cfg)
    with pytest.raises(ConfigError):
        threshold_decode(cb, -small, cfg)


def test_each_row_is_generated_once_per_book(monkeypatch):
    m = 6
    cb = make_codebook(41, n=160, m=m)
    twin = make_codebook(41, n=160, m=m)  # same book, nothing generated yet
    y = interleave(np.stack([twin.row(0), twin.row(4)]), rngmod.derive(41, "a"), 2).y
    real = codec.sample_type_class
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(codec, "sample_type_class", counted)
    cfg = DecodeConfig(delta=0.15, k_max=3)
    out = mpmi_decode(cb, y, cfg)
    guilt_indices(cb, y, out)
    assert out.accused == (0, 4)
    verify_significance(cb, y, out)
    assert len(calls) == m
    calls.clear()
    threshold_decode(cb, y, cfg)
    assert len(calls) == m


def test_threshold_guilt_streams_rows(monkeypatch):
    m, n = 256, 1024
    cb = make_codebook(47, n=n, m=m)
    twin = make_codebook(47, n=n, m=m)  # same book, nothing generated yet
    y = interleave(np.stack([twin.row(3), twin.row(9)]), rngmod.derive(47, "a"), 2).y
    real = codec.sample_type_class
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(codec, "sample_type_class", counted)
    cfg = DecodeConfig(delta=0.05)
    out = threshold_decode(cb, y, cfg)
    assert out.accused == (3, 9)
    tracemalloc.start()
    try:
        rep = guilt_indices(cb, y, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # decode + guilt: at most 2M + k rows, and never the (M, n) matrix
    assert len(calls) <= 2 * m + len(out.accused)
    assert peak < m * n * 8 / 2
    # the streamed audit equals the row-matrix audit of the same coalition
    joint = DecodeOutcome(
        accused=out.accused, best_k=2, score=mpmi_score(cb, out.accused, y, cfg),
        scores={}, exact=True, mode="mpmi", delta=cfg.delta, rate=out.rate,
    )
    assert guilt_indices(cb, y, joint) == rep


def test_decoder_and_audit_scores_are_one_quantity():
    cb = make_codebook(43, n=48, m=6)
    y = interleave(np.stack([cb.row(2), cb.row(5)]), rngmod.derive(43, "a"), 2).y
    cfg = DecodeConfig(delta=0.07, k_max=3)
    pen = cb.params.rate + cfg.delta
    single = threshold_decode(cb, y, cfg)
    for m in range(6):
        assert abs(single.scores[m] - (mpmi_score(cb, (m,), y, cfg) + pen)) <= 1e-12
    out = mpmi_decode(cb, y, cfg)
    acc = out.accused
    assert acc
    want = mpmi_score(cb, acc, y, cfg) + len(acc) * cfg.delta
    assert abs(guilt_indices(cb, y, out).coalition_index - want) <= 1e-12
    with pytest.raises(ConfigError):
        mpmi_score(cb, (0, 6), y, cfg)
