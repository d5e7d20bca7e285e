"""Monte Carlo harness for end-to-end tracing experiments.

One trial is the full pipeline: draw host and time-share key, realize the
codebook, pick a coalition, run the attack, decode, and classify the three
error events.  Every trial owns a keyed random stream derived from
(master seed, blocklength, trial index), so reports are bit-identical for
any worker count and any chunking of the trial range.

A threshold trial generates only the coalition's rows, and scores them as
`threshold_decode` does.  An innocent's score depends on its row only
through the row's joint type with y inside each (s, w) cell, and the row is
uniform on its conditional type class whatever y is, so that type is a
multivariate hypergeometric table whose margins are the cell's mark
composition and the cell's y counts.  Each innocent gets one such table
(`_innocent_tables`), scored as I(x; y | s, w) from its entropies
(`_table_info`).  A table has S W X Y entries; past `_ROW_ENTRIES` + n/8 of
them it costs more to draw than the row it stands for, so a trial with so
wide a table (a large mark or y alphabet) runs `threshold_decode` on the
real rows instead.  The joint decoder still scores the whole book.

For the false-positive trend study, `threshold_fp_fast` runs the same
innocent sampler on the balanced binary code with no side information under
interleaving.  There the pirate copy's ones-count is drawn in closed form, a
multinomial split of the positions over the colluders and a hypergeometric
ones-count on each share (`_pirate_ones`), so a trial builds nothing of size
n; `threshold_fp_exact` enumerates that law for k = 2 and validates it.
"""

import math
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from . import rng as rngmod
from .codec import CodeParams, build_codebook, draw_host, draw_timeshare
from .collusion import ChannelSpec, apply_memoryless, interleave
from .decoders import DecodeConfig, _Scorer, mpmi_decode
from .decoders import threshold_decode
from .errors import ConfigError, InfeasibleError, index_set, int_array, int_at_least
from .types_core import _count_entropy, _xlogx_table, quantize_pmf

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
# innocent tables drawn and scored at a time, fewer when a block would
# pass _BLOCK_ENTRIES table entries; part of every trial's stream
_INNOCENT_BLOCK = 4096
_BLOCK_ENTRIES = 1 << 16
# widest table a trial draws is _ROW_ENTRIES + n // 8 entries: on a 2-core
# VM a keyed row and its score took about 35 us + 22 ns n, a table entry
# 50-160 ns, so a wider table costs more than the real row
_ROW_ENTRIES = 256


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
        if not int_at_least(self.trials, 1):
            raise ConfigError(f"need a positive integer number of trials, not {self.trials!r}")
        if not int_at_least(self.seed, 0):
            raise ConfigError(f"seed must be a nonnegative integer, not {self.seed!r}")
        n_sweep = int_array(self.n_sweep, "n_sweep", 1)
        if n_sweep.min(initial=1) < 1:
            raise ConfigError(f"n_sweep must list positive integers: {self.n_sweep!r}")
        object.__setattr__(self, "n_sweep", tuple(n_sweep.tolist()))
        c, m = self.coalition, self.params.num_users
        if isinstance(c, (list, tuple)):
            object.__setattr__(self, "coalition", _coalition_users(c, m))
            size = len(c)
        elif int_at_least(c, 0):
            object.__setattr__(self, "coalition", int(c))
            size = c
        else:
            raise ConfigError(f"coalition must be a size or a list of users, not {c!r}")
        if size < 1 or size > m:
            raise ConfigError("coalition size must be within the user roster")
        if self.decoder not in ("threshold", "mpmi"):
            raise ConfigError(f"unknown decoder {self.decoder!r}")
        if isinstance(self.attack, str) and self.attack != "interleaving":
            raise ConfigError(f"unknown named attack {self.attack!r}")


def _coalition_users(users, num_users: int) -> tuple:
    """An explicit coalition as a sorted tuple of distinct user indices.

    The trial engines count the innocents as M - |coalition|, so a bool, a
    float, a repeated or an out-of-range user is refused, not coerced.
    """
    out = index_set(users, num_users, "coalition users")
    if len(out) < len(users):
        raise ConfigError(f"coalition lists a user twice: {list(users)!r}")
    return out


@dataclass(frozen=True, slots=True)
class TrialRecord:
    """Events of one trial.  ``accused`` is the decoder's accused set; in a
    threshold trial whose innocents were scored from drawn tables, its
    innocents are sampled stand-ins (see `run_trial`)."""

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
    # the time-share composition is pinned to a blocklength; re-quantize
    # the book's own law at n
    wt = quantize_pmf(cfg.params.target_w_type.pmf(), n)
    return replace(cfg.params, n=n, target_w_type=wt)


def run_trial(cfg: ExperimentConfig, trial_index: int, n: int | None = None) -> TrialRecord:
    """One trial of the pipeline, deterministic in (seed, n, index).

    The book, coalition, attack and the coalition's accusations are those of
    the full pipeline.  A threshold trial scores the innocents from drawn
    joint types (see the module docstring): ``fp`` keeps its distribution,
    but the innocents in ``accused`` are the users the draws put above the
    bar, not the ones `threshold_decode` would accuse on the book's rows.
    Only a trial whose tables are too wide decodes the rows themselves.
    """
    n = cfg.params.n if n is None else n
    if not int_at_least(n, 1):
        raise ConfigError(f"n must be an integer >= 1, not {n!r}")
    params = _trial_params(cfg, n)
    root = (cfg.seed, "trial", params.n, trial_index)
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
        coalition = cfg.coalition
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

    if cfg.decoder == "mpmi":
        accused = mpmi_decode(cb, result.y, cfg.decode).accused
    else:
        gen_inn = rngmod.derive(*root, "innocents")
        accused = _threshold_accused(cb, result.y, cfg.decode, coalition, rows, gen_inn)
    guessed = set(accused)
    truth = set(coalition)
    return TrialRecord(
        fp=bool(guessed - truth),
        miss_one=not (guessed & truth),
        miss_all=not (truth <= guessed),
        # the usual outcome shares the coalition's tuple
        accused=coalition if accused == coalition else accused,
        coalition=coalition,
        resamples=resamples,
    )


def _threshold_accused(cb, y, cfg: DecodeConfig, coalition, rows, gen) -> tuple:
    """The users the threshold decoder accuses on y, in increasing order.

    The coalition's ``rows`` are scored exactly as `threshold_decode` scores
    them.  The innocents, the other users in increasing order, are scored
    from joint types drawn from ``gen`` (see the module docstring), or from
    their real rows when a table would cost more than its row.
    """
    p = cb.params
    scorer = _Scorer(cb, y)
    ny = scorer.y_counts()
    comp = cb.cell_compositions().reshape(len(ny), p.x_size)
    if comp.size * ny.shape[1] > _ROW_ENTRIES + p.n // 8:
        return threshold_decode(cb, y, cfg).accused
    bar = cfg.rate_for(cb) + cfg.delta
    caught = scorer.info(rows[:, None]) > bar
    idx = _crossings(gen, comp, ny[None], p.num_users - len(coalition), bar, p.n)
    # innocent j is user j + r, r the number of colluders c_i with
    # c_i - i <= j (c_i - i innocents come before colluder i)
    ahead = np.subtract(coalition, np.arange(len(coalition)))
    users = idx + np.searchsorted(ahead, idx, side="right")
    return tuple(sorted([m for m, hit in zip(coalition, caught) if hit] + users.tolist()))


def wilson_interval(count: int, trials: int, z: float = 1.959964) -> tuple:
    """95% Wilson score interval for a binomial rate: ``count`` successes
    in ``trials``, integers with 0 <= count <= trials and trials >= 1."""
    if not (int_at_least(trials, 1) and int_at_least(count, 0) and count <= trials):
        raise ConfigError(f"need integers 0 <= count <= trials, trials >= 1: {count!r}, {trials!r}")
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
        if not (int_at_least(self.n, 1) and int_at_least(self.trials, 1)):
            raise ConfigError("n and trials must be positive integers")
        for c in (self.fp_count, self.miss_one_count, self.miss_all_count):
            if not (int_at_least(c, 0) and c <= self.trials):
                raise ConfigError(f"event count {c!r} is not an integer in 0..trials")
        if not int_at_least(self.resamples, 0):
            raise ConfigError(f"resamples must be an integer >= 0, not {self.resamples!r}")
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
    own stream, so the report is identical for any ``workers``, an integer
    >= 1.
    """
    if not int_at_least(workers, 1):
        raise ConfigError(f"workers must be an integer >= 1, not {workers!r}")
    points = []
    for n in cfg.n_sweep or (cfg.params.n,):
        t0 = time.perf_counter()
        if workers == 1:
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
# sufficient-statistic engine: innocent tables for threshold trials and
# for the false-positive trend


def _innocent_tables(gen, comp, ny):
    """Joint-type tables (..., C, X, Y) of rows drawn uniformly from their
    conditional type class against a fixed sequence y.

    ``comp`` (..., C, X) gives each cell's mark composition and ``ny``
    (..., C, Y) its y counts; their leading axes broadcast to the batch.
    Within a cell the table is multivariate hypergeometric with these
    margins, drawn by sequential conditioning: the last mark's positions
    first, split over the y values from the last one down.
    """
    comp, ny = np.asarray(comp), np.asarray(ny)
    shape = np.broadcast_shapes(comp.shape[:-1], ny.shape[:-1])
    x_size, y_size = comp.shape[-1], ny.shape[-1]
    # marks and y values lead while drawing, so each step works on
    # contiguous (..., C) slices; draws run over them in C order
    comp = np.moveaxis(np.broadcast_to(comp, shape + (x_size,)), -1, 0)
    left = np.moveaxis(np.broadcast_to(ny, shape + (y_size,)), -1, 0).copy()
    out = np.empty((x_size, y_size) + shape, dtype=np.int64)
    pop = left.sum(axis=0)  # positions not yet marked
    for x in range(x_size - 1, 0, -1):
        draw, rest = comp[x].copy(), pop.copy()
        for v in range(y_size - 1, 0, -1):
            rest -= left[v]
            out[x, v] = gen.hypergeometric(left[v], rest, draw)
            draw -= out[x, v]
        out[x, 0] = draw
        left -= out[x]
        pop -= comp[x]
    out[0] = left
    return np.moveaxis(out, (0, 1), (-2, -1))


def _table_info(tables, n):
    """I(x; y | c) = H(cx) + H(cy) - H(cxy) - H(c) in bits of each
    (C, X, Y) joint-type table summing to n, for a batch (..., C, X, Y)."""
    lead = tables.shape[:-3]
    # the batch goes last, so each sum below adds contiguous rows
    t = np.moveaxis(tables, (-3, -2, -1), (0, 1, 2)).reshape(tables.shape[-3:] + (-1,))
    xlogx = _xlogx_table(n)

    def h(counts):
        return _count_entropy(counts.reshape(-1, t.shape[-1]), n, 0, xlogx)

    h_cx, h_cy = h(t.sum(axis=2)), h(t.sum(axis=1))
    return (h_cx + h_cy - h(t) - h(t.sum(axis=(1, 2)))).reshape(lead)


def _crossings(gen, comp, ny, count, bar, n):
    """Indices in range(count), increasing, of the innocents whose drawn
    table scores above ``bar``.  ``comp`` holds the (C, X) cell compositions
    and ``ny`` (G, C, Y) y counts shared in order by equal runs of the
    innocents: innocent i is scored against ny[i G // count].  Innocents
    are drawn in index order, at most ``_INNOCENT_BLOCK`` of them and
    ``_BLOCK_ENTRIES`` table entries at a time, so memory stays bounded for
    any count and any table width."""
    hits = [np.empty(0, dtype=np.int64)]
    size = min(_INNOCENT_BLOCK, max(1, _BLOCK_ENTRIES // (comp.size * ny.shape[-1])))
    for lo in range(0, count, size):
        idx = np.arange(lo, min(lo + size, count))
        tables = _innocent_tables(gen, comp, ny[idx * len(ny) // count])
        hits.append(idx[_table_info(tables, n) > bar])
    return np.concatenate(hits)


def _pirate_ones(gen, n, k, size):
    """Ones counts of ``size`` interleaving copies of k iid balanced rows.

    Interleaving copies each position from a uniform colluder, whatever the
    rows, so the colluders' shares are Multinomial(n, 1/k); a balanced row
    carries Hypergeometric(n/2, n - n/2, share) ones on its share.
    """
    shares = gen.multinomial(n, np.full(k, 1.0 / k), size)
    return gen.hypergeometric(n // 2, n - n // 2, shares).sum(axis=1)


def _balanced_bar(n, innocents, delta, rate, k) -> float:
    """The score bar of the two balanced-binary false-positive engines, after
    the checks they share: ``rate + delta``, and without a rate, that of a
    book of ``innocents + k`` users, ``log2(innocents + k) / n + delta``."""
    if not int_at_least(n, 2) or n % 2:
        raise ConfigError("the balanced binary engines need an even n >= 2")
    if not (int_at_least(k, 1) and int_at_least(innocents, 0)):
        raise ConfigError("the balanced binary engines need integers k >= 1 colluders and "
                          "innocents >= 0")
    DecodeConfig(delta, rate=rate)  # checks delta and rate as a decoder does
    return (math.log2(innocents + k) / n if rate is None else rate) + delta


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
    conditioning under the interleaving attack.  The pirate ones-count has a
    closed sampling form, and each innocent's 2x2 table with the pirate copy
    is one draw of `_innocent_tables`, so a trial draws ``innocents``
    hypergeometric variates instead of an (M, n) matrix.  Exact in
    distribution; validated against the direct pipeline and the
    closed-form enumerator in the tests.
    """
    bar = _balanced_bar(n, innocents, delta, rate, k)
    if not int_at_least(trials, 1):
        raise ConfigError("the fast engine needs an integer trials >= 1")
    gen = rngmod.derive(seed, "fastfp", n)
    t0 = time.perf_counter()
    comp = np.array([[n - n // 2, n // 2]])  # one cell
    fp = 0
    done = 0
    while done < trials:
        m = min(_FP_CHUNK, trials - done)
        n1y = _pirate_ones(gen, n, k, m)
        ny = np.stack([n - n1y, n1y], axis=-1)[:, None]  # (trial, cell, y)
        # innocent j of trial t is index t * innocents + j
        hits = _crossings(gen, comp, ny, m * innocents, bar, n)
        fp += np.unique(hits // innocents).size
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
    n: int, innocents: int, delta: float, *, rate: float | None = None
) -> float:
    """Closed-form companion of :func:`threshold_fp_fast` (no sampling).

    Enumerates the pirate ones-count law of two colluders exactly and
    integrates the per-innocent crossing probability of the hypergeometric
    overlap.
    """
    bar = _balanced_bar(n, innocents, delta, rate, 2)
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
        # (x, y) counts 00, 01, 10, 11 of a balanced row against v ones
        cells = [n - half - v + overlap, v - overlap, half - overlap, overlap]
        scores = _table_info(np.stack(cells, axis=-1).reshape(-1, 1, 2, 2), n)
        cross = stats.hypergeom.pmf(overlap, n, v, half)[scores > bar].sum()
        total += pv * (1.0 - (1.0 - min(cross, 1.0)) ** innocents)
    return float(total)
