"""Monte Carlo harness for end-to-end tracing experiments.

One trial is the full pipeline: draw host and time-share key, realize the
codebook, pick a coalition, run the attack, decode, and classify the three
error events.  Every trial owns a keyed random stream derived from
(master seed, blocklength, trial index), so reports are bit-identical for
any worker count and any chunking of the trial range.

The plain harness regenerates an (M, n) codebook per trial, which is the
honest but slow path.  For the false-positive trend study there is a
sufficient-statistic sampler (`threshold_fp_fast`) that draws only the
handful of counts the threshold score actually depends on, plus an exact
enumerator (`threshold_fp_exact`) used to validate it.  Both score an
innocent from its 2x2 (row, pirate) cell counts as H(x) + H(y) - H(xy),
the formula of the decoders' scorer, through the batched entropy kernel
of `types_core`.
"""

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import stats

from . import rng as rngmod
from .codec import CodeParams, build_codebook, draw_host, draw_timeshare
from .collusion import ChannelSpec, apply_memoryless, interleave
from .decoders import DecodeConfig, mpmi_decode, threshold_decode
from .errors import ConfigError, InfeasibleError
from .types_core import _count_entropy

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "PointEstimate",
    "EstimateReport",
    "run_trial",
    "estimate",
    "exponent_fit",
    "wilson_interval",
    "threshold_fp_fast",
    "threshold_fp_exact",
]

MAX_ATTACK_RESAMPLES = 64
# trials per batch of the fast false-positive engine
_FP_CHUNK = 20_000


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: code, attack, decoder, coalition rule, trial budget.

    ``coalition`` is either an explicit tuple of user indices or an int k,
    meaning a fresh uniform k-subset per trial.  ``n_sweep`` optionally
    re-runs the whole experiment at several blocklengths (the code params
    are re-pinned to each n; the user count stays fixed).
    """

    params: CodeParams
    decode: DecodeConfig
    attack: ChannelSpec | str = "interleaving"
    coalition: tuple | int = 2
    trials: int = 1000
    seed: int = 0
    decoder: str = "threshold"
    n_sweep: tuple = ()

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        size = self.coalition if isinstance(self.coalition, int) else len(self.coalition)
        if size < 1 or size > self.params.num_users:
            raise ConfigError("coalition size must be within the user roster")
        if self.decoder not in ("threshold", "mpmi"):
            raise ConfigError(f"unknown decoder {self.decoder!r}")
        if isinstance(self.attack, str) and self.attack != "interleaving":
            raise ConfigError(f"unknown named attack {self.attack!r}")


@dataclass(frozen=True)
class TrialRecord:
    fp: bool
    miss_one: bool
    miss_all: bool
    accused: tuple
    coalition: tuple
    resamples: int

    def __post_init__(self):
        if self.miss_one and not self.miss_all:
            raise ConfigError("missing every colluder implies missing the coalition")


def _trial_params(cfg: ExperimentConfig, n: int) -> CodeParams:
    if n == cfg.params.n:
        return cfg.params
    # the time-share composition is pinned to a blocklength; re-quantize it
    return replace(cfg.params, n=n, target_w_type=None)


def run_trial(cfg: ExperimentConfig, trial_index: int, n: int | None = None) -> TrialRecord:
    """Execute one full pipeline pass, deterministic in (seed, n, index)."""
    params = _trial_params(cfg, int(n if n is not None else cfg.params.n))
    root = (cfg.seed, "trial", params.n, int(trial_index))
    gen_env = rngmod.derive(*root, "env")
    s = draw_host(params.p_host, params.n, gen_env)
    w = draw_timeshare(params, gen_env)
    cb_seed = int(rngmod.derive(*root, "book").integers(0, 2**62))
    cb = build_codebook(params, s, w, seed=cb_seed)

    if isinstance(cfg.coalition, int):
        picks = rngmod.derive(*root, "coalition").choice(
            params.num_users, size=cfg.coalition, replace=False
        )
        coalition = tuple(int(i) for i in sorted(picks))
    else:
        coalition = tuple(sorted(int(i) for i in cfg.coalition))
    rows = np.stack([cb.row(m) for m in coalition])

    gen_att = rngmod.derive(*root, "attack")
    resamples = 0
    while True:
        if isinstance(cfg.attack, str):
            result = interleave(rows, gen_att, x_size=params.x_size)
        else:
            result = apply_memoryless(rows, cfg.attack, gen_att)
        # only a violated feasibility rule of the attack itself is grounds
        # for a redraw; marking is a rule only for marking-class channels
        marking_rule = getattr(cfg.attack, "class_tag", "") == "boneh_shaw"
        if result.distortion_ok is not False and (result.marking_ok or not marking_rule):
            break
        resamples += 1
        if resamples >= MAX_ATTACK_RESAMPLES:
            raise InfeasibleError("attack kept violating its feasibility rules")

    decoder = threshold_decode if cfg.decoder == "threshold" else mpmi_decode
    outcome = decoder(cb, result.y, cfg.decode)
    guessed = set(outcome.accused)
    truth = set(coalition)
    return TrialRecord(
        fp=bool(guessed - truth),
        miss_one=not (guessed & truth),
        miss_all=not (truth <= guessed),
        accused=tuple(sorted(guessed)),
        coalition=coalition,
        resamples=resamples,
    )


def wilson_interval(count: int, trials: int, z: float = 1.959964) -> tuple:
    """95% Wilson score interval for a binomial rate."""
    if trials < 1:
        raise ConfigError("empty sample")
    p = count / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    # the bounds are exactly 0 / 1 at the degenerate counts; don't let
    # roundoff report an interval that excludes the observed rate
    lo = 0.0 if count == 0 else max(center - half, 0.0)
    hi = 1.0 if count == trials else min(center + half, 1.0)
    return lo, hi


@dataclass(frozen=True)
class PointEstimate:
    """Event counts for one (blocklength, setting) cell."""

    n: int
    trials: int
    fp_count: int
    miss_one_count: int
    miss_all_count: int
    resamples: int
    seconds: float

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        for c in (self.fp_count, self.miss_one_count, self.miss_all_count):
            if not 0 <= c <= self.trials:
                raise ConfigError("event count outside the trial budget")
        if self.miss_one_count > self.miss_all_count:
            raise ConfigError("miss-one events are a subset of miss-all events")

    def rate(self, event: str) -> float:
        return getattr(self, f"{event}_count") / self.trials

    def interval(self, event: str) -> tuple:
        return wilson_interval(getattr(self, f"{event}_count"), self.trials)

    def rate_ceiling(self, event: str) -> float:
        """Rate, except zero counts report the rule-of-three bound 3/T."""
        c = getattr(self, f"{event}_count")
        return c / self.trials if c else min(3.0 / self.trials, 1.0)

    def as_row(self) -> dict:
        row = {"n": self.n, "trials": self.trials}
        for ev in ("fp", "miss_one", "miss_all"):
            lo, hi = self.interval(ev)
            row.update(
                {
                    f"{ev}_count": getattr(self, f"{ev}_count"),
                    f"{ev}_rate": self.rate(ev),
                    f"{ev}_lo": lo,
                    f"{ev}_hi": hi,
                }
            )
        # wall clock stays off the row: emitted tables must be byte-stable
        # across worker counts and machine load
        row["resamples"] = self.resamples
        return row


@dataclass(frozen=True)
class EstimateReport:
    config_seed: int
    points: tuple

    def point(self, n: int) -> PointEstimate:
        for p in self.points:
            if p.n == n:
                return p
        raise KeyError(n)

    def exponents(self, event: str = "fp") -> tuple:
        series = [(p.n, p.rate_ceiling(event)) for p in self.points]
        return exponent_fit(series)

    def as_rows(self) -> list:
        return [p.as_row() for p in self.points]


def _chunk_counts(cfg: ExperimentConfig, n: int, lo: int, hi: int):
    fp = one = al = rs = 0
    for idx in range(lo, hi):
        rec = run_trial(cfg, idx, n=n)
        fp += rec.fp
        one += rec.miss_one
        al += rec.miss_all
        rs += rec.resamples
    return fp, one, al, rs


def estimate(cfg: ExperimentConfig, workers: int = 1) -> EstimateReport:
    """Run the trial budget at each blocklength and tabulate event rates.

    Chunking only partitions the index range; every trial re-derives its
    own stream, so the report is identical for any ``workers``.
    """
    n_values = tuple(cfg.n_sweep) or (cfg.params.n,)
    points = []
    for n in n_values:
        t0 = time.perf_counter()
        if workers <= 1:
            parts = [_chunk_counts(cfg, n, 0, cfg.trials)]
        else:
            step = max(64, -(-cfg.trials // (workers * 4)))
            spans = [
                (lo, min(lo + step, cfg.trials))
                for lo in range(0, cfg.trials, step)
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(
                    pool.map(
                        _chunk_counts,
                        *zip(*[(cfg, n, lo, hi) for lo, hi in spans]),
                    )
                )
        fp, one, al, rs = (sum(col) for col in zip(*parts))
        points.append(
            PointEstimate(
                n=n,
                trials=cfg.trials,
                fp_count=fp,
                miss_one_count=one,
                miss_all_count=al,
                resamples=rs,
                seconds=time.perf_counter() - t0,
            )
        )
    return EstimateReport(config_seed=cfg.seed, points=tuple(points))


def exponent_fit(series) -> tuple:
    """Least-squares slope of -log2(rate) against n, with its stderr.

    Zero rates carry no exponent information at finite T; they are dropped
    with a warning rather than silently pinned to infinity.
    """
    pts = [(float(n), float(r)) for n, r in series]
    kept = [(n, r) for n, r in pts if r > 0]
    if len(kept) < len(pts):
        warnings.warn("dropping zero-rate points from the exponent fit", stacklevel=2)
    if len(kept) < 3:
        raise ConfigError("exponent fit needs at least three positive-rate points")
    x = np.array([n for n, _ in kept])
    y = np.array([-math.log2(r) for _, r in kept])
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ConfigError("exponent fit needs distinct blocklengths")
    slope = float(np.sum(xc * y) / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = max(len(kept) - 2, 1)
    stderr = math.sqrt(float(np.sum(resid * resid)) / dof / sxx)
    return slope, stderr


# ---------------------------------------------------------------------------
# sufficient-statistic engine for the false-positive trend


def _innocent_scores(a, n1y, n):
    """Empirical I(x; y) = H(x) + H(y) - H(xy) in bits of balanced binary
    rows against pirate copies with ``n1y`` ones, given the overlap counts
    ``a`` (positions where both read one); ``n1y`` broadcasts against ``a``."""
    half = n // 2
    h_x = _count_entropy([n - half, half], n)
    h_y = _count_entropy(np.stack([n - n1y, n1y], axis=-1), n, axis=-1)
    # (x, y) cell counts 00, 01, 10, 11
    cells = np.stack([n - half - n1y + a, n1y - a, half - a, a], axis=-1)
    return h_x + h_y - _count_entropy(cells, n, axis=-1)


def _balanced_split(gen, classes, n_half):
    """Multivariate hypergeometric by sequential conditioning: scatter the
    n_half one-positions of a fresh balanced row across the class columns."""
    pop_left = classes.sum(axis=1)
    draw_left = np.full(classes.shape[0], n_half, dtype=np.int64)
    out = np.zeros_like(classes)
    for j in range(classes.shape[1]):
        pop_j = classes[:, j]
        out[:, j] = gen.hypergeometric(pop_j, pop_left - pop_j, draw_left)
        pop_left -= pop_j
        draw_left -= out[:, j]
    return out


def _pirate_ones(gen, n, k, size):
    """Ones count of an interleaving pirate copy over k iid balanced rows.

    Tracks, per trial, the histogram of positions by how many of the rows
    peeled so far carry a one; each new row splits every class with the
    correct joint law.  A position with j of k ones then emits a one with
    probability j/k under position-wise uniform colluder choice.
    """
    classes = np.tile([n - n // 2, n // 2], (size, 1)).astype(np.int64)
    for _ in range(k - 1):
        up = _balanced_split(gen, classes, n // 2)
        grown = np.zeros((size, classes.shape[1] + 1), dtype=np.int64)
        grown[:, :-1] = classes - up
        grown[:, 1:] += up
        classes = grown
    n1y = classes[:, k].copy()
    for j in range(1, k):
        n1y += gen.binomial(classes[:, j], j / k)
    return n1y


def threshold_fp_fast(
    n: int,
    innocents: int,
    delta: float,
    trials: int,
    *,
    seed: int = 0,
    k: int = 2,
    rate: float | None = None,
) -> PointEstimate:
    """False-positive rate of the threshold decoder without building codebooks.

    Covers the binary balanced-composition code with no host or time-share
    conditioning under the interleaving attack.  An innocent score only
    depends on the pirate ones-count and the row/pirate overlap, both of
    which have closed sampling forms, so each trial draws ``innocents``
    hypergeometric variates instead of an (M, n) matrix.  Exact in
    distribution; validated against the direct pipeline and the
    closed-form enumerator in the tests.
    """
    if n < 2 or n % 2:
        raise ConfigError("the fast engine assumes a balanced binary composition, even n >= 2")
    if k < 1 or innocents < 0:
        raise ConfigError("the fast engine needs k >= 1 colluders and innocents >= 0")
    if rate is None:
        rate = math.log2(innocents + k) / n
    bar = rate + delta
    gen = rngmod.derive(seed, "fastfp", n)
    t0 = time.perf_counter()
    fp = 0
    done = 0
    while done < trials:
        m = min(_FP_CHUNK, trials - done)
        n1y = _pirate_ones(gen, n, k, m)
        a = gen.hypergeometric(
            np.broadcast_to(n1y[:, None], (m, innocents)),
            np.broadcast_to((n - n1y)[:, None], (m, innocents)),
            n // 2,
        )
        scores = _innocent_scores(a, n1y[:, None], n)
        fp += int(np.count_nonzero(np.any(scores > bar, axis=1)))
        done += m
    return PointEstimate(
        n=n,
        trials=trials,
        fp_count=fp,
        miss_one_count=0,
        miss_all_count=0,
        resamples=0,
        seconds=time.perf_counter() - t0,
    )


def threshold_fp_exact(
    n: int,
    innocents: int,
    delta: float,
    *,
    k: int = 2,
    rate: float | None = None,
) -> float:
    """Closed-form companion of :func:`threshold_fp_fast` (no sampling).

    Enumerates the pirate ones-count law exactly for k = 2 and integrates
    the per-innocent crossing probability of the hypergeometric overlap.
    """
    if n < 2 or n % 2 or k != 2:
        raise ConfigError("exact enumeration covers k=2 balanced binary codes, even n >= 2")
    if innocents < 0:
        raise ConfigError("innocents must be >= 0")
    if rate is None:
        rate = math.log2(innocents + k) / n
    bar = rate + delta
    half = n // 2
    # overlap of two balanced rows, then binomial fill on disagreements
    a_vals = np.arange(half + 1)
    p_a = stats.hypergeom.pmf(a_vals, n, half, half)
    p_v = np.zeros(n + 1)
    for a, pa in zip(a_vals, p_a):
        if pa <= 0:
            continue
        mixed = n - 2 * a
        fill = np.arange(mixed + 1)
        p_v[a + fill] += pa * stats.binom.pmf(fill, mixed, 0.5)
    p_v /= p_v.sum()
    total = 0.0
    for v, pv in enumerate(p_v):
        if pv <= 0:
            continue
        overlap = np.arange(max(0, v - half), min(half, v) + 1)
        scores = _innocent_scores(overlap, v, n)
        cross = stats.hypergeom.pmf(overlap, n, v, half)[scores > bar].sum()
        total += pv * (1.0 - (1.0 - min(cross, 1.0)) ** innocents)
    return float(total)
