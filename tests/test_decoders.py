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

from fptrace import codec, decoders
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
from fptrace.types_core import (
    Sequence,
    _count_entropy,
    joint_type,
    multi_info,
    quantize_pmf,
)


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
    real = codec.Codebook.row
    calls = []

    def counted(self, m):
        calls.append(1)
        return real(self, m)

    monkeypatch.setattr(codec.Codebook, "row", counted)
    cfg = DecodeConfig(delta=0.15, k_max=3)
    out = mpmi_decode(cb, y, cfg)
    guilt_indices(cb, y, out)
    assert out.accused == (0, 4)
    verify_significance(cb, y, out)
    assert len(calls) == m
    calls.clear()
    threshold_decode(cb, y, cfg)
    assert len(calls) == 0  # it copies the rows the joint decode cached
    threshold_decode(make_codebook(41, n=160, m=m), y, cfg)
    assert len(calls) == m


def test_mpmi_score_generates_only_its_coalition_rows(monkeypatch):
    m = 64
    cb = make_codebook(43, n=96, m=m)
    twin = make_codebook(43, n=96, m=m)  # same book, nothing generated yet
    y = interleave(np.stack([twin.row(5), twin.row(40)]), rngmod.derive(43, "a"), 2).y
    cfg = DecodeConfig(delta=0.1)
    coalition = (5, 17, 40)
    scorer = decoders._Scorer(twin, y)
    # the route that read the whole row matrix for one coalition
    want = float(scorer.info(twin.rows()[[coalition]])[0])
    want -= len(coalition) * (cfg.rate_for(twin) + cfg.delta)
    real = codec.Codebook.row
    calls = []

    def counted(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(codec.Codebook, "row", counted)
    assert mpmi_score(cb, coalition, y, cfg) == want
    assert sorted(calls) == list(coalition)
    calls.clear()
    cb.rows()  # a decode builds the matrix ...
    calls.clear()
    assert mpmi_score(cb, coalition, y, cfg) == want  # ... and scoring reuses it
    assert mpmi_score(twin, coalition, y, cfg) == want
    assert calls == []


def test_threshold_guilt_streams_rows(monkeypatch):
    m, n = 256, 1024
    cb = make_codebook(47, n=n, m=m)
    twin = make_codebook(47, n=n, m=m)  # same book, nothing generated yet
    y = interleave(np.stack([twin.row(3), twin.row(9)]), rngmod.derive(47, "a"), 2).y
    real = codec.Codebook.row
    calls = []

    def counted(self, m):
        calls.append(1)
        return real(self, m)

    monkeypatch.setattr(codec.Codebook, "row", counted)
    cfg = DecodeConfig(delta=0.05)
    out = threshold_decode(cb, y, cfg)
    assert out.accused == (3, 9)
    assert len(calls) == m
    calls.clear()
    tracemalloc.start()
    try:
        rep = guilt_indices(cb, y, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the audit generates each row once, the accused too, and never holds
    # the (M, n) matrix
    assert len(calls) == m
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


# ---------------------------------------------------------------------------
# batched scoring against a per-candidate loop


def loop_scorer(cb, y):
    """The scorer as one bincount per candidate: the same combined code
    cells * X^k + ..., with no block and no offsets."""
    p = cb.params
    y = np.unique(np.asarray(y), return_inverse=True)[1]
    cells = y * (p.s_size * p.w_size) + cb.host * p.w_size + cb.effective_w()
    comp = cb.cell_compositions()
    h_side = _count_entropy(comp.sum(axis=2), p.n)
    h_x = _count_entropy(comp, p.n) - h_side

    def h(code):
        return _count_entropy(np.bincount(code), p.n) - h_side

    def info(rows_a, rows_b=()):
        code = cells
        for x in rows_b:
            code = code * p.x_size + x
        h_b = h(code)
        for x in rows_a:
            code = code * p.x_size + x
        return max(len(rows_a) * h_x + h_b - h(code), 0.0)

    return info


def loop_decode(cb, y, cfg):
    """The published rule replayed over every candidate, one at a time."""
    info = loop_scorer(cb, y)
    m = cb.params.num_users
    rows = [cb.row(u) for u in range(m)]
    k_hi = min(cfg.k_max, m)
    rate, tol = cfg.rate_for(cb), cfg.tie_tol

    def score(cand):
        return info([rows[u] for u in cand]) - len(cand) * (rate + cfg.delta)

    evaluated = 1
    if cfg.search == "exhaustive":
        best, size_best = ((), 0, 0.0), {0: ((), 0.0)}
        for k in range(1, k_hi + 1):
            for cand in itertools.combinations(range(m), k):
                s = score(cand)
                evaluated += 1
                if k not in size_best or s > size_best[k][1] + tol:
                    size_best[k] = (cand, s)
                if s > best[2] + tol or (s > best[2] - tol and k > best[1]):
                    best = (cand, k, s)
        accused, score_, trail = best[0], best[2], dict(size_best.values())
    else:
        accused, score_, trail = (), 0.0, {(): 0.0}
        while len(accused) < k_hi:
            best_add = None
            for u in range(m):
                if u in accused:
                    continue
                cand = tuple(sorted(accused + (u,)))
                s = score(cand)
                evaluated += 1
                if best_add is None or s > best_add[1] + tol:
                    best_add = (cand, s)
            if best_add is None or best_add[1] <= score_ + tol:
                break
            accused, score_ = best_add
            trail[accused] = score_
    return DecodeOutcome(
        accused=accused, best_k=len(accused), score=score_, scores=trail,
        exact=cfg.search == "exhaustive",
        mode="mpmi" if cfg.search == "exhaustive" else "mpmi-greedy",
        delta=cfg.delta, rate=rate, evaluated=evaluated,
    )


def batch_instance(name):
    """(codebook, pirate copy, deltas, tie_tol) for one named case.  The
    deltas put the optimum at the size cap, below it with larger sizes
    scoring lower, and at the empty set."""
    if name == "ties":
        # six users on four positions of composition (2, 2): rows 3, 4
        # and 5 are copies or complements of each other, so with bar =
        # H(x) = 1 bit the empty set and every subset of {3, 4, 5} score
        # exactly zero, the largest tie coming last in its size
        cb = make_codebook(1, n=4, m=6, w_size=1)
        return cb, cb.row(3).copy(), (1.0 - cb.params.rate,), 1e-12
    if name == "wide-tol":
        # a size-3 score just outside the tie band, then one inside it
        cb = make_codebook(11, n=40, m=7)
        y = interleave(np.stack([cb.row(1), cb.row(4)]), rngmod.derive(11, "a"), 2).y
        return cb, y, (0.1, 0.2), 0.1
    x_size = 3 if name.startswith("x3") else 2
    n, deltas = (45, (0.04, 1.0)) if x_size == 3 else (160, (0.04, 0.2, 0.3))
    cb = make_codebook(61 + x_size, n=n, m=7, s_size=2, w_size=2, x_size=x_size)
    gen = rngmod.derive(61, name)
    if "rp" in name:
        cb = codec.apply_rp(cb, gen)
    if "rm" in name:
        cb = codec.apply_rm(cb, gen)
    y = interleave(np.stack([cb.row(1), cb.row(4)]), gen, x_size=x_size).y.copy()
    if "off" in name:
        y[:2] = x_size + 1  # symbols outside the mark alphabet
        y[5] = 10**6
    tie_tol = 0.05 if "tol" in name else 1e-12
    return cb, y, deltas, tie_tol


BATCH_CASES = ["sw2", "x3", "sw2-rp", "x3-rm", "sw2-rp-rm", "x3-off", "sw2-off-rm",
               "sw2-tol", "wide-tol", "ties"]


@pytest.mark.parametrize("block_cells", [None, 40, 300])
@pytest.mark.parametrize("name", BATCH_CASES)
def test_batched_scoring_equals_per_candidate_loop(name, block_cells, monkeypatch):
    if block_cells is not None:
        # blocks of one to eighteen candidates: the replay carries its
        # state across many blocks of every size, and a tie across sizes
        # can fall in any block of the larger size
        monkeypatch.setattr(decoders, "_BLOCK_CELLS", block_cells)
    cb, y, deltas, tie_tol = batch_instance(name)
    info = loop_scorer(cb, y)
    rows = [cb.row(u) for u in range(cb.params.num_users)]
    for delta, k_max, search in itertools.product(deltas, (1, 2, 3), ("exhaustive", "greedy")):
        cfg = DecodeConfig(delta=delta, k_max=k_max, search=search, tie_tol=tie_tol)
        out = mpmi_decode(cb, y, cfg)
        assert out == loop_decode(cb, y, cfg), (delta, k_max, search)
        acc = out.accused
        rep = guilt_indices(cb, y, out)
        for m, entry in rep.per_user.items():
            rest = [rows[u] for u in acc if u != m]
            want = info([rows[m]], rest) - out.rate
            assert abs(entry["index"] - want) <= 1e-12
        want = info([rows[u] for u in acc]) - len(acc) * out.rate
        assert abs(rep.coalition_index - want) <= 1e-12
        if not out.exact or 0 < out.best_k == k_max:
            continue
        sig = verify_significance(cb, y, out)
        for sub, lhs, _, _ in sig.inside:
            rest = [rows[u] for u in acc if u not in sub]
            assert abs(lhs - info([rows[u] for u in sub], rest)) <= 1e-12
        for sub, lhs, _, _ in sig.outside:
            assert abs(lhs - info([rows[u] for u in sub], [rows[u] for u in acc])) <= 1e-12
        assert len(sig.outside) == sum(
            math.comb(cb.params.num_users - len(acc), a)
            for a in range(1, k_max - len(acc) + 1)
        )
    single = threshold_decode(cb, y, DecodeConfig(delta=deltas[0]))
    for m, score in single.scores.items():
        assert abs(score - info([rows[m]])) <= 1e-12
    rep = guilt_indices(cb, y, single)
    for m, entry in rep.per_user.items():
        rest = [rows[u] for u in single.accused if u != m]
        assert abs(entry["index"] - (info([rows[m]], rest) - single.rate)) <= 1e-12


def test_tie_instance_has_ties():
    # the "ties" case above must really tie across sizes and within one
    cb, y, (delta,), _ = batch_instance("ties")
    cfg = DecodeConfig(delta=delta, k_max=3)
    zero = [c for k in range(4) for c in itertools.combinations(range(6), k)
            if abs(mpmi_score(cb, c, y, cfg)) <= 1e-12]
    assert zero == [c for k in range(4) for c in itertools.combinations((3, 4, 5), k)]
    assert mpmi_decode(cb, y, cfg).accused == (3, 4, 5)


# ---------------------------------------------------------------------------
# exact counters and memory


@pytest.mark.parametrize("m,k_max", [(9, 3), (20, 3), (40, 2)])
def test_exhaustive_decode_scores_every_candidate_once(m, k_max):
    cb = make_codebook(53, n=64, m=m)
    y = interleave(np.stack([cb.row(0), cb.row(5)]), rngmod.derive(53, "a"), 2).y
    out = mpmi_decode(cb, y, DecodeConfig(delta=0.1, k_max=k_max))
    assert out.evaluated == sum(math.comb(m, k) for k in range(k_max + 1))


def test_exhaustive_decode_streams_candidates_in_blocks():
    m = 120
    cb = make_codebook(59, n=64, m=m)
    y = interleave(np.stack([cb.row(7), cb.row(90)]), rngmod.derive(59, "a"), 2).y
    tracemalloc.start()
    try:
        out = mpmi_decode(cb, y, DecodeConfig(delta=0.1, k_max=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.evaluated == 288_101 == sum(math.comb(m, k) for k in range(4))
    # 288,101 index triples alone take 6.9 MB as one int64 array
    assert peak < 4 * 2**20


@pytest.mark.parametrize("field,value", [
    ("delta", float("nan")), ("delta", float("inf")), ("delta", -0.1), ("delta", "0.1"),
    ("rate", float("nan")), ("rate", -1.0),
    ("k_max", 2.5), ("k_max", True), ("k_max", -1),
    ("budget", 0), ("budget", 10.0),
    ("tie_tol", float("nan")), ("tie_tol", -1e-12),
])
def test_decode_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        DecodeConfig(**{"delta": 0.1, field: value})


def test_decode_config_accepts_edge_values():
    cfg = DecodeConfig(delta=0, k_max=np.int64(0), rate=0.0, budget=1, tie_tol=0.0)
    cb = make_codebook(3, n=20, m=4)
    assert mpmi_decode(cb, cb.row(0), cfg).evaluated == 1


@pytest.mark.parametrize("block_cells", [None, 300])
def test_a_score_does_not_depend_on_its_block(block_cells, monkeypatch):
    # where the top cells are thin, the rows of one block end their count
    # tables at different codes; each must be summed as if scored alone.
    # At 300 cells a batch spans several blocks, per-candidate B rows too
    if block_cells is not None:
        monkeypatch.setattr(decoders, "_BLOCK_CELLS", block_cells)
    cb = make_codebook(60, n=56, m=12, s_size=2, w_size=2)
    y = interleave(np.stack([cb.row(2), cb.row(7)]), rngmod.derive(60, "a"), 2).y
    scorer = decoders._Scorer(cb, y)
    rows = cb.rows()
    for k in (1, 2, 3):
        cands = np.array(list(itertools.combinations(range(12), k)))
        block = scorer.info(rows[cands])
        alone = [scorer.info(rows[c[None]])[0] for c in cands]
        assert block.tolist() == alone
        shared = scorer.info(rows[cands], rows[[0, 5]])
        assert shared.tolist() == [scorer.info(rows[c[None]], rows[[0, 5]])[0] for c in cands]
        each = scorer.info(rows[cands], rows[(cands + 1) % 12][:, :1])
        assert each.tolist() == [scorer.info(rows[c[None]], rows[[(c[0] + 1) % 12]])[0] for c in cands]


def test_wide_count_tables_equal_the_loop():
    # X = 4 marks up to k = 6 rows: blocks fill their codes exactly up to
    # 2**15 at k = 4, and a single candidate's codes pass it at k = 6
    cb = make_codebook(71, n=64, m=7, s_size=2, w_size=2, x_size=4)
    y = interleave(np.stack([cb.row(0), cb.row(3)]), rngmod.derive(71, "a"), 4).y
    for delta in (0.02, 0.3):
        cfg = DecodeConfig(delta=delta, k_max=6)
        assert mpmi_decode(cb, y, cfg) == loop_decode(cb, y, cfg)


def test_a_code_at_the_top_of_its_block_is_counted():
    # 8 (y, s, w) cells and 6 rows of X = 4 marks make exactly 2**15 codes,
    # a block of one candidate; the top code 2**15 - 1 occurs where all six
    # rows carry mark 3 in the top cell
    cb = make_codebook(74, n=64, m=12, s_size=2, w_size=1, x_size=4)
    rows, side = cb.rows(), cb.host * cb.params.w_size + cb.effective_w()
    hits = (rows == 3).sum(axis=0) * (side == 1)
    j = int(np.argmax(hits))
    assert hits[j] >= 6
    cand = np.flatnonzero(rows[:, j] == 3)[:6]
    y = rngmod.derive(74, "y").integers(0, 3, size=cb.params.n)
    y[j] = 3
    scorer = decoders._Scorer(cb, y)
    assert scorer.n_cells * 4**6 == 2**15 and scorer.block(6) == 1
    code = scorer.cells
    for u in cand:
        code = code * 4 + rows[u]
    assert code.max() == 2**15 - 1
    want = loop_scorer(cb, y)
    assert scorer.info(rows[cand][None]).tolist() == [want(rows[cand])]
    # the same code through the decoder, which scores every 6-subset, and
    # the guilt audit of a 5-coalition
    cfg = DecodeConfig(delta=0.0, rate=0.0, k_max=6)
    assert mpmi_decode(cb, y, cfg) == loop_decode(cb, y, cfg)
    acc = tuple(int(u) for u in cand[:5])
    joint = DecodeOutcome(
        accused=acc, best_k=5, score=mpmi_score(cb, acc, y, cfg),
        scores={}, exact=True, mode="mpmi", delta=0.0, rate=0.0,
    )
    rep = guilt_indices(cb, y, joint)
    assert rep.per_user[int(cand[5])]["index"] == want(rows[cand[5:]], rows[cand[:5]])


def test_a_count_table_past_2_31_cells_is_refused():
    # 8 cells and 15 rows of X = 4 marks: 2**33 cells, 64 GB of counts
    cb = make_codebook(74, n=64, m=15, s_size=2, w_size=1, x_size=4)
    y = rngmod.derive(74, "y").integers(0, 4, size=cb.params.n)
    scorer = decoders._Scorer(cb, y)
    assert scorer.n_cells == 8
    with pytest.raises(BudgetExceededError):
        scorer.info(cb.rows()[None])
    with pytest.raises(BudgetExceededError):
        scorer.info(cb.rows()[None, :1], cb.rows()[1:])


def test_a_large_batch_is_scored_a_block_at_a_time():
    # 64 candidates of 6 rows over 2**15 cells each: one bincount over the
    # whole batch would count 2**21 cells (16 MB); blocks of one stay small
    cb = make_codebook(74, n=64, m=12, s_size=2, w_size=1, x_size=4)
    y = rngmod.derive(74, "y").integers(0, 4, size=cb.params.n)
    scorer = decoders._Scorer(cb, y)
    cands = np.array(list(itertools.islice(itertools.combinations(range(12), 6), 64)))
    x = cb.rows()[cands]
    tracemalloc.start()
    try:
        got = scorer.info(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got.tolist() == [scorer.info(x[i : i + 1])[0] for i in range(64)]
