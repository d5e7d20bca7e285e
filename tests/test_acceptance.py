"""Acceptance battery: twelve end-to-end checks at their stated tolerances.

Each test prints one PASS line with the measured numbers when it succeeds;
a failed assertion is the corresponding FAIL.  Oracles here recompute
everything from first principles (dense grids, scipy entropies, exhaustive
enumeration) and share no scoring code with the implementations under test.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats as spstats

from fptrace import rng as rngmod
from fptrace.cli import main as cli_main
from fptrace.codec import CodeParams, build_codebook, draw_host, draw_timeshare
from fptrace.collusion import ChannelSpec, apply_memoryless, check_marking, interleave
from fptrace.decoders import DecodeConfig, mpmi_decode, verify_significance
from fptrace.games import (
    FairMarking,
    GameProblem,
    Hull,
    InputLaw,
    Marking,
    check_fair_inequalities,
    exponent_sweep,
    inner_min_channel,
    memoryless_exponent_variant,
    pseudo_sphere_packing,
    solve_capacity,
)
from fptrace.games.problems import law_tensors
from fptrace.simlab import threshold_fp_fast
from fptrace.types_core import (
    InfoQuery,
    JointType,
    count_table,
    entropy,
    log_type_class_size,
    multi_info,
    mutual_info,
)

from grid_oracles import min_fair_marking_payoff


def fair_problem(k=2, y=2, **kw):
    return GameProblem(
        coalition_size=k, x_size=2, y_size=y, channel_class=FairMarking(), **kw
    )


def bernoulli_law(p0):
    return InputLaw(p_w=np.ones(1), p_x_given_sw=np.array([[[p0, 1.0 - p0]]]))


# ---------------------------------------------------------------------------
# 1. capacity anchors


def test_criterion_01_capacity_anchors():
    anchors = {1: 1.0, 2: 0.25, 3: 1.0 / 12.0}
    got = {}
    for k, expect in anchors.items():
        t0 = time.time()
        sol = solve_capacity(fair_problem(k=k), seed=0, restarts=8, grid_resolution=10)
        elapsed = time.time() - t0
        assert elapsed < 300.0
        assert abs(sol.value - expect) < 1e-3 if k > 1 else abs(sol.value - 1.0) < 1e-9
        got[k] = (sol.value, elapsed)
    print(
        "ACCEPTANCE 1 PASS: detect-one fair values "
        + ", ".join(f"K={k}: {v:.5f} ({dt:.1f}s)" for k, (v, dt) in got.items())
    )


# ---------------------------------------------------------------------------
# 2. time-sharing monotonicity


def test_criterion_02_timeshare_monotonicity():
    values = {}
    for slots in (1, 2, 3):
        sol = solve_capacity(
            fair_problem(k=2, num_timeshare=slots), seed=0, restarts=6,
            grid_resolution=8,
        )
        values[slots] = sol.value
    assert values[2] >= values[1] - 1e-6
    assert values[3] >= values[2] - 1e-6
    print(
        "ACCEPTANCE 2 PASS: K=2 values by time-share slots "
        + ", ".join(f"L={s}: {v:.6f}" for s, v in values.items())
    )


# ---------------------------------------------------------------------------
# 3. inner minimization vs lattice oracle


def test_criterion_03_inner_solver_vs_grid_oracle():
    gen = np.random.default_rng(801)
    worst = 0.0
    for trial in range(25):
        y = 2 if trial % 2 == 0 else 3
        prob = fair_problem(k=2, y=y)
        law = bernoulli_law(float(gen.uniform(0.12, 0.88)))
        q = law_tensors(prob, law)[0].reshape(2, 2)
        oracle, _ = min_fair_marking_payoff(q, y, step=1e-3)
        _, val = inner_min_channel(law, prob, tol=1e-9)
        assert val <= oracle + 1e-9  # grid points are feasible channels
        gap = abs(val - oracle)
        assert gap < 1e-4
        worst = max(worst, gap)
    print(f"ACCEPTANCE 3 PASS: 25 instances, worst oracle gap {worst:.2e} bits")


# ---------------------------------------------------------------------------
# 4. pseudo-sphere-packing sanity


def test_criterion_04_exponent_program_sanity():
    prob = fair_problem()
    law = prob.uniform_law()
    full = (0, 1)
    _, floor = inner_min_channel(law, prob, subset=full, tol=1e-10)

    above = pseudo_sphere_packing(floor + 0.01, law, prob, subset=full, seed=0)
    below = pseudo_sphere_packing(floor - 0.01, law, prob, subset=full,
                                  restarts=4, seed=0)
    assert above == 0.0
    assert below > 1e-4

    rates = np.linspace(0.19, 0.33, 20)
    vals = exponent_sweep(rates, law, prob, subset=full, restarts=2, seed=0)
    assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))

    gen = np.random.default_rng(802)
    families = (
        [("fair2", fair_problem(k=2, y=2))] * 20
        + [("fair3", fair_problem(k=2, y=3))] * 10
        + [("marking", GameProblem(coalition_size=2, x_size=2, y_size=2,
                                   channel_class=Marking()))] * 10
        + [("hull", None)] * 10
    )
    dominated = 0
    for i, (tag, problem) in enumerate(families):
        if tag == "hull":
            verts = [gen.dirichlet(np.ones(2), size=(2, 2)) for _ in range(2)]
            problem = GameProblem(coalition_size=2, x_size=2, y_size=2,
                                  channel_class=Hull(verts))
        lw = bernoulli_law(float(gen.uniform(0.1, 0.9)))
        r = float(gen.uniform(0.02, 0.35))
        con = pseudo_sphere_packing(r, lw, problem, subset=full, restarts=2, seed=i)
        mem = memoryless_exponent_variant(r, lw, problem, subset=full,
                                          restarts=2, seed=i)
        assert mem <= con + 1e-5, (tag, r, mem, con)
        dominated += 1
    print(
        f"ACCEPTANCE 4 PASS: zero above floor ({floor:.4f}), {below:.2e} below, "
        f"20-point sweep nonincreasing, memoryless dominance {dominated}/50"
    )


# ---------------------------------------------------------------------------
# 5. false-positive trend


def test_criterion_05_false_positive_trend():
    trials = 200_000
    innocents = 64
    k = 2
    results = {}
    for delta in (0.05, 0.10):
        for n in (100, 200, 400):
            pe = threshold_fp_fast(n, innocents=innocents, delta=delta,
                                   trials=trials, seed=hash((n, delta)) % 2**31, k=k)
            phat = pe.rate("fp")
            lhs = math.inf if phat == 0.0 else -math.log2(phat) / n
            assert lhs >= delta - 0.02, (n, delta, phat)
            results[(delta, n)] = phat

    # union-bound prefactor: fit c at the smallest blocklength with events,
    # then require the larger blocklengths to sit under c 2^{-N delta}
    # (one-sided 95%: the observed rate may exceed the bound only by the
    # binomial fluctuation of the bound itself)
    for delta in (0.05, 0.10):
        series = [(n, results[(delta, n)]) for n in (100, 200, 400)]
        anchored = [(n, p) for n, p in series if p > 0]
        if not anchored:
            continue
        n0, p0 = anchored[0]
        c = p0 * 2.0 ** (n0 * delta)
        for n, p in series:
            if n <= n0:
                continue
            bound = c * 2.0 ** (-n * delta)
            slack = 1.645 * math.sqrt(max(bound * (1 - bound), 1e-300) / trials)
            assert p <= bound + slack, (delta, n, p, bound)

    shown = ", ".join(
        f"d={d} N={n}: {p:.2e}" for (d, n), p in results.items() if p > 0
    )
    zeros = sum(1 for p in results.values() if p == 0)
    print(
        f"ACCEPTANCE 5 PASS: -log2(FP)/N >= delta-0.02 at all 6 points "
        f"({shown}; {zeros} points with zero events in 2e5 trials)"
    )


# ---------------------------------------------------------------------------
# 6 + 7. joint decoder vs brute force; significance certificates


def _entropy_bits(counts):
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    return float(spstats.entropy(counts / total, base=2)) if total else 0.0


def _joint_counts(arrays, sizes):
    idx = np.ravel_multi_index([np.asarray(a) for a in arrays], sizes)
    return np.bincount(idx, minlength=int(np.prod(sizes)))


def brute_force_mpmi(cb, y, cfg):
    """Re-derive the exhaustive joint decode with scipy entropies.

    Scores every coalition of size 0..k_max by the sum-of-marginals form of
    the multivariate information and applies the same tie policy: strictly
    better wins, ties prefer the larger coalition then the earlier candidate.
    """
    p = cb.params
    m = p.num_users
    y = np.asarray(y, dtype=np.int64)
    y_size = max(int(y.max()) + 1, p.x_size)
    s, w = cb.host, cb.timeshare
    rows = [cb.row(i) for i in range(m)]
    bar = cfg.rate_for(cb) + cfg.delta
    side = (p.s_size, p.w_size)
    h_sw = _entropy_bits(_joint_counts([s, w], side))

    def h_given_side(arrays, sizes):
        return _entropy_bits(_joint_counts(list(arrays) + [s, w],
                                           tuple(sizes) + side)) - h_sw

    h_rows = [h_given_side([r], (p.x_size,)) for r in rows]
    h_y = h_given_side([y], (y_size,))

    def score(cand):
        if not cand:
            return 0.0
        joint = h_given_side([rows[i] for i in cand] + [y],
                             (p.x_size,) * len(cand) + (y_size,))
        info = sum(h_rows[i] for i in cand) + h_y - joint
        return info - len(cand) * bar

    best = ((), 0, 0.0)
    for size in range(1, min(cfg.k_max, m) + 1):
        for cand in itertools.combinations(range(m), size):
            sc = score(cand)
            if sc > best[2] + cfg.tie_tol:
                best = (cand, size, sc)
            elif sc > best[2] - cfg.tie_tol and size > best[1]:
                best = (cand, size, sc)
    return best


def _random_instance(gen, idx):
    m = int(gen.integers(4, 9))
    n = int(gen.choice([8, 12, 16, 24, 40, 60]))
    s_size = int(gen.choice([1, 1, 2]))
    w_size = int(gen.choice([1, 1, 2]))
    params = CodeParams(n=n, num_users=m, s_size=s_size, w_size=w_size)
    env = rngmod.derive(803, "inst", idx)
    s = draw_host(params.p_host, n, env)
    w = draw_timeshare(params, env)
    cb = build_codebook(params, s, w, seed=int(env.integers(0, 2**62)))
    y_size = params.x_size + (1 if gen.uniform() < 0.2 else 0)
    y = env.integers(0, y_size, size=n)
    cfg = DecodeConfig(delta=float(gen.uniform(0.02, 0.4)), k_max=3)
    return cb, y, cfg


def _tie_instance(attempt):
    """Codebook with a duplicated row, pirated copy equal to it, and the
    penalty tuned so the empty set, both singletons and the duplicate pair
    all score exactly zero: the largest-k rule must accuse the pair."""
    params = CodeParams(n=8, num_users=6)
    env = rngmod.derive(804, "tie", attempt)
    s = draw_host(params.p_host, params.n, env)
    w = draw_timeshare(params, env)
    cb = build_codebook(params, s, w, seed=int(env.integers(0, 2**62)))
    rows = cb.rows()
    pairs = itertools.combinations(range(params.num_users), 2)
    equal, complement = [], []
    for i, j in pairs:
        if np.array_equal(rows[i], rows[j]):
            equal.append((i, j))
        elif np.array_equal(rows[i], 1 - rows[j]):
            # a complement row is also a zero-equivocation companion and
            # would join the tie at a larger coalition size
            complement.append((i, j))
    if len(equal) == 1 and not complement:
        i, j = equal[0]
        cfg = DecodeConfig(delta=1.0 - params.rate, k_max=3)
        return cb, rows[i].copy(), cfg, (i, j)
    return None


def _collect_instances():
    gen = np.random.default_rng(805)
    instances = []
    for idx in range(480):
        instances.append(_random_instance(gen, idx) + (None,))
    attempt = 0
    while sum(1 for inst in instances if inst[3] is not None) < 20:
        found = _tie_instance(attempt)
        attempt += 1
        if found is not None:
            cb, y, cfg, pair = found
            instances.append((cb, y, cfg, pair))
        assert attempt < 4000
    return instances


_DECODED = []


def test_criterion_06_mpmi_matches_brute_force():
    ties_seen = 0
    for cb, y, cfg, forced_pair in _collect_instances():
        outcome = mpmi_decode(cb, y, cfg)
        acc, size, sc = brute_force_mpmi(cb, y, cfg)
        assert outcome.accused == acc
        assert outcome.best_k == size
        assert abs(outcome.score - sc) <= 1e-9
        if forced_pair is not None:
            ties_seen += 1
            assert outcome.accused == forced_pair  # largest k won the tie
            assert abs(outcome.score) <= 1e-9
        _DECODED.append((cb, y, cfg, outcome))
    assert ties_seen >= 20
    print(
        f"ACCEPTANCE 6 PASS: {len(_DECODED)} exhaustive decodes match the "
        f"enumerator, {ties_seen} engineered ties resolved to the larger set"
    )


def test_criterion_07_significance_certificates():
    assert _DECODED, "criterion 6 must run first"
    checked = 0
    for cb, y, cfg, outcome in _DECODED:
        cap = min(cfg.k_max, cb.params.num_users)
        if outcome.best_k >= cap:
            continue
        report = verify_significance(cb, y, outcome)
        assert report.ok
        checked += 1
    assert checked > 200  # the check must not be vacuous
    print(f"ACCEPTANCE 7 PASS: significance inequalities hold on {checked}/{checked} "
          "unclipped exhaustive decodes")


# ---------------------------------------------------------------------------
# 8. multivariate information identities


def _itilde(jt, groups):
    # single-group multivariate information is zero by convention
    return multi_info(jt, groups) if len(groups) >= 2 else 0.0


def test_criterion_08_info_identities():
    gen = np.random.default_rng(806)
    worst = 0.0

    def close(a, b):
        nonlocal worst
        worst = max(worst, abs(a - b))
        assert abs(a - b) <= 1e-12

    for _ in range(10_000):
        k = int(gen.integers(2, 5))
        n = int(gen.integers(2, 51))
        sizes = tuple(int(gen.integers(2, 5)) for _ in range(k + 1))
        seqs = [gen.integers(0, sz, size=n) for sz in sizes]
        jt = JointType(sizes, count_table(seqs, sizes), n)
        x_axes = list(range(k))
        singles = [(i,) for i in x_axes]

        i_all = multi_info(jt, singles)
        if k == 2:
            close(i_all, mutual_info(jt, InfoQuery((0,), (1,))))  # P2
        # P3 chain rules
        close(
            i_all,
            mutual_info(jt, InfoQuery((0,), tuple(range(1, k))))
            + _itilde(jt, singles[1:]),
        )
        close(
            i_all,
            sum(
                mutual_info(jt, InfoQuery((i,), tuple(range(i + 1, k))))
                for i in range(k - 1)
            ),
        )
        # P4 merge identities
        for i in range(1, k - 1):
            merged = singles[:i] + [tuple(range(i, k))]
            close(i_all, multi_info(jt, merged) + _itilde(jt, singles[i:]))
        # P5 equivocation form
        close(
            i_all,
            sum(entropy(jt, InfoQuery((i,))) for i in range(k - 1))
            - entropy(jt, InfoQuery(tuple(range(k - 1)), cond=(k - 1,))),
        )
        # empirical decomposition with the extra observation axis
        close(
            multi_info(jt, singles + [(k,)]),
            sum(entropy(jt, InfoQuery((i,))) for i in x_axes)
            - entropy(jt, InfoQuery(tuple(x_axes), cond=(k,))),
        )
    print(f"ACCEPTANCE 8 PASS: P2-P5 and the decomposition on 10000 tuples, "
          f"worst deviation {worst:.2e} bits")


# ---------------------------------------------------------------------------
# 9. type-class size sandwich


def _compositions(total, bins):
    if bins == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, bins - 1):
            yield (first,) + rest


def test_criterion_09_type_size_sandwich():
    checked = 0
    for x_size in (1, 2, 3):
        for n in range(1, 13):
            for counts in _compositions(n, x_size):
                jt = JointType((x_size,), np.array(counts, dtype=np.int64), n)
                exact, lower, upper = log_type_class_size(jt)
                assert lower - 1e-9 <= exact <= upper + 1e-9
                checked += 1
    print(f"ACCEPTANCE 9 PASS: sandwich holds for all {checked} types "
          "(N <= 12, alphabets 1..3)")


# ---------------------------------------------------------------------------
# 10. exchangeable-block inequalities


def _symmetrized(gen, k, x, z):
    p = gen.random((x,) * k + (z,))
    out = np.zeros_like(p)
    for perm in itertools.permutations(range(k)):
        out += np.transpose(p, perm + (k,))
    return out / out.sum()


def _conditional_iid(gen, k, x, z):
    pz = gen.dirichlet(np.ones(z))
    px = gen.dirichlet(np.ones(x), size=z)  # (z, x)
    grids = np.meshgrid(*[np.arange(x)] * k, np.arange(z), indexing="ij")
    out = pz[grids[-1]]
    for i in range(k):
        out = out * px[grids[-1], grids[i]]
    return out


def _nested_subsets(gen, k):
    size_b = int(gen.integers(2, k + 1))
    b = tuple(sorted(gen.choice(k, size=size_b, replace=False).tolist()))
    size_a = int(gen.integers(1, size_b))
    a = tuple(sorted(gen.choice(b, size=size_a, replace=False).tolist()))
    return a, b


def test_criterion_10_fair_inequalities():
    gen = np.random.default_rng(807)
    for _ in range(200):
        k = int(gen.integers(2, 5))
        joint = _symmetrized(gen, k, int(gen.integers(2, 4)), int(gen.integers(2, 4)))
        a, b = _nested_subsets(gen, k)
        report = check_fair_inequalities(joint, a, b)
        assert report.holds
    tight = 0
    for _ in range(50):
        k = int(gen.integers(2, 5))
        joint = _conditional_iid(gen, k, int(gen.integers(2, 4)),
                                 int(gen.integers(2, 4)))
        a, b = _nested_subsets(gen, k)
        report = check_fair_inequalities(joint, a, b)
        assert report.holds
        assert abs(report.block_entropy_slack) < 1e-9
        assert abs(report.plain_entropy_slack) < 1e-9
        tight += 1
    print(f"ACCEPTANCE 10 PASS: 200 symmetrized joints hold, {tight}/50 "
          "conditionally-iid constructions are tight on both comparisons")


# ---------------------------------------------------------------------------
# 11. marking feasibility at scale


def _random_marking_channel(gen, k, q):
    table = gen.dirichlet(np.ones(q), size=(q,) * k).reshape((q,) * k + (q,))
    for u in range(q):
        row = np.zeros(q)
        row[u] = 1.0
        table[(u,) * k] = row
    return ChannelSpec(k=k, x_size=q, y_size=q, table=table, class_tag="boneh_shaw")


def test_criterion_11_marking_feasibility_monte_carlo():
    gen = np.random.default_rng(808)
    att = rngmod.derive(808, "draws")
    positions = 0
    violations = 0
    draws = 0
    while positions < 1_000_000:
        k = int(gen.integers(2, 4))
        q = int(gen.integers(2, 4))
        n = 2000
        rows = att.integers(0, q, size=(k, n))
        for result in (
            interleave(rows, att, x_size=q),
            apply_memoryless(rows, _random_marking_channel(gen, k, q), att),
        ):
            assert result.marking_ok
            assert check_marking(rows, result.y)
            agree = np.all(rows == rows[0], axis=0)
            violations += int(np.count_nonzero(result.y[agree] != rows[0][agree]))
            positions += n
            draws += 1
    assert violations == 0
    print(f"ACCEPTANCE 11 PASS: {positions} positions over {draws} draws, "
          "0 marking violations")


# ---------------------------------------------------------------------------
# 12. worker-count determinism through the CLI


def test_criterion_12_simulate_determinism(tmp_path):
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({
        "params": {"n": 24, "num_users": 8},
        "decode": {"delta": 0.06},
        "coalition": 2,
        "trials": 400,
        "n_sweep": [24, 32],
    }))
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        code = cli_main(["simulate", "--config", str(cfg_path), "--seed", "31",
                         "--workers", str(workers), "--out", str(out)])
        assert code == 0
        outs[workers] = (out / "report.csv").read_bytes()
    assert outs[1] == outs[8]
    assert len(outs[1]) > 0
    print("ACCEPTANCE 12 PASS: 1-worker and 8-worker simulate runs emit "
          f"byte-identical CSV ({len(outs[1])} bytes)")
