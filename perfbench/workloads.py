"""The three benchmark workloads: ``simulate``, ``trace`` and ``games``.

Each is a closed loop in one process with one worker: the next operation
starts when the previous one has finished.  Inputs come from the workload
seed alone; the library only ever sees the generated inputs.

A workload has a set-up (repeated by the runner, which reports the median),
one or more phases of operations, and checks on the outputs.  An operation
returns False when its own output check fails.
"""

import math
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


def sub_seed(seed, *keys):
    """A 32-bit seed derived from the workload seed and a key path."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it.  With ten samples or fewer no percentile has, and the maximum
    is reported as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class Phase:
    """A loop of operations ``op(i)``, i = 0, 1, ...

    Untraced, it measures for ``share`` of the run's seconds, or runs
    ``fixed(seconds)`` operations when that is set.  Traced, or with
    ``--fixed-work 1``, it runs ``traced(seconds)`` operations, so its
    counters repeat exactly for one seed.  ``prepare(i)`` runs untimed before operation i.
    """

    kind: str
    op: Callable[[int], bool]
    share: float
    traced: Callable[[int], int]
    fixed: Callable[[int], int] | None = None
    prepare: Callable[[int], None] | None = None


class Simulate:
    """Monte Carlo error-rate study: run_trial calls, then threshold_fp_fast
    batches.  Every trial builds a fresh (M, n) book and nothing is shared
    across calls."""

    name = "simulate"
    FP_BATCH = 10_000
    WARM_INDEX = 2**31  # trial indices of the set-up warm-up, never measured

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.seed = seed
        self.stats = Counter()
        self.records = []
        self.fp = [0, 0]  # false positives, trials over all fast batches
        self._warm = 0

    def setup(self):
        lib = self.lib
        params = lib.codec.CodeParams(n=256, num_users=1024, s_size=2, w_size=2)
        self.cfg = lib.simlab.ExperimentConfig(
            params=params,
            decode=lib.decoders.DecodeConfig(delta=0.06),
            coalition=2,
            attack="interleaving",
            decoder="threshold",
            seed=self.seed,
        )
        # the first trial pays the lazy costs of the whole pipeline
        rec = lib.simlab.run_trial(self.cfg, self.WARM_INDEX + self._warm)
        self._warm += 1
        self.stats["attack.resamples"] += rec.resamples

    def phases(self):
        return [
            # the two phases share the run's seconds
            Phase("trial", self.trial, 0.9, lambda s: max(2, 2 * s)),
            Phase("fp_batch", self.fp_batch, 0.1, lambda s: max(1, s // 4)),
        ]

    def trial(self, i):
        rec = self.lib.simlab.run_trial(self.cfg, i)
        self.records.append(rec)
        self.stats["attack.resamples"] += rec.resamples
        self.stats["decoders.decoded"] += 1
        self.stats["decoders.exact"] += rec.accused == rec.coalition
        return True

    def fp_batch(self, i):
        est = self.lib.simlab.threshold_fp_fast(
            200, 64, 0.05, self.FP_BATCH, seed=sub_seed(self.seed, 1, i), k=2
        )
        self.fp[0] += est.fp_count
        self.fp[1] += est.trials
        return True

    def checks(self):
        simlab = self.lib.simlab
        out = []
        if self.records:
            # reports are identical for any worker count, so the untimed
            # re-run may use both cores
            again = simlab.estimate(
                replace(self.cfg, trials=len(self.records)), workers=2
            )
            (point,) = again.points
            got = tuple(
                sum(getattr(r, f) for r in self.records)
                for f in ("fp", "miss_one", "miss_all", "resamples")
            )
            want = (
                point.fp_count,
                point.miss_one_count,
                point.miss_all_count,
                point.resamples,
            )
            out.append(("trials match estimate()", got == want))
        exact = simlab.threshold_fp_exact(200, 64, 0.05)
        lo, hi = simlab.wilson_interval(self.fp[0], self.fp[1], z=4.0)
        out.append(("threshold_fp_exact in z=4 interval", lo <= exact <= hi))
        return out

    def op_samples(self, times):
        return times["trial"]

    def report(self, times):
        trials, batches = times["trial"], times["fp_batch"]
        value, pct = tail(trials)
        return [
            ("trials_per_s", len(trials) / sum(trials), "trials/s", ""),
            ("trial_ms_p50", 1e3 * statistics.median(trials), "ms", f"n={len(trials)}"),
            ("trial_ms_tail", 1e3 * value, "ms", f"p{pct:.0f}, n={len(trials)}"),
            (
                "fp_trials_per_s",
                self.FP_BATCH * len(batches) / sum(batches),
                "trials/s",
                f"{len(batches)} batches of {self.FP_BATCH}",
            ),
        ]


class Trace:
    """The tracer's job: decode pirated copies of one fixed M=32 book and
    certify each accusation.  Candidates re-score the same 32 rows, so this is
    the one workload where work is shared across calls."""

    name = "trace"
    USERS = 32
    CHUNK = 16  # pirated copies generated at a time

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.seed = seed
        self.stats = Counter()
        self.paths = tuple(workdir / f for f in ("rows.jsonl", "header.json", "key.json"))
        self.cfg = lib.decoders.DecodeConfig(delta=0.1, k_max=3, search="exhaustive")

    def setup(self):
        codec = self.lib.codec
        params = codec.CodeParams(n=256, num_users=self.USERS, s_size=2, w_size=2)
        gen = np.random.default_rng([self.seed, 2])
        host = codec.draw_host(params.p_host, params.n, gen)
        timeshare = codec.draw_timeshare(params, gen)
        self.book = codec.build_codebook(
            params, host, timeshare, seed=int(gen.integers(0, 2**62))
        )
        codec.write_codebook(self.book, *self.paths)
        self.copies = []
        self.prepare(0)

    def prepare(self, i):
        """Pirated copies up to index i: each from a fresh 2-user coalition
        under the interleaving attack."""
        while len(self.copies) <= i:
            for _ in range(self.CHUNK):
                gen = np.random.default_rng([self.seed, 3, len(self.copies)])
                coalition = tuple(
                    sorted(int(u) for u in gen.choice(self.USERS, size=2, replace=False))
                )
                rows = np.stack([self.book.row(m) for m in coalition])
                attack = self.lib.collusion.interleave(rows, gen, x_size=2)
                self.copies.append((coalition, attack.y))

    def phases(self):
        return [
            Phase("decode", self.decode, 1.0, lambda s: max(1, s // 5), prepare=self.prepare)
        ]

    def decode(self, i):
        """What `fptrace decode` does for one copy, plus its certificate."""
        codec, decoders = self.lib.codec, self.lib.decoders
        coalition, y = self.copies[i]
        book = codec.read_codebook(*self.paths)
        outcome = decoders.mpmi_decode(book, y, self.cfg)
        decoders.guilt_indices(book, y, outcome)
        self.stats["decoders.decoded"] += 1
        self.stats["decoders.exact"] += outcome.accused == coalition
        if outcome.best_k >= self.cfg.k_max:
            return True  # clipped at the search cap: not certifiable
        self.stats["decoders.certifiable"] += 1
        ok = decoders.verify_significance(book, y, outcome).ok
        self.stats["decoders.certified"] += ok
        return ok

    def checks(self):
        return []

    def op_samples(self, times):
        return times["decode"]

    def report(self, times):
        copies = times["decode"]
        value, pct = tail(copies)
        st = self.stats
        return [
            ("decode_s_p50", statistics.median(copies), "s", f"n={len(copies)}"),
            ("decode_s_tail", value, "s", f"p{pct:.0f}, n={len(copies)}"),
            (
                "certified",
                st["decoders.certified"],
                "copies",
                f"of {st['decoders.certifiable']} certifiable",
            ),
            ("exact", st["decoders.exact"], "copies", f"of {st['decoders.decoded']} decoded"),
        ]


class Games:
    """Three solves that share no code with the other workloads: the K=2 L=2
    and K=3 fair-marking capacities and a 20-rate exponent sweep.  One pass is
    the three solves in that order.

    The inputs are fixed and the solvers keep their default seed, so the
    workload seed changes nothing here.  The restart seed changes the work
    itself (one K=2 L=2 solve took 12.6 s at seed 0 and 8.6 s at another),
    and a run holds only one pass.
    """

    name = "games"
    RATES = np.linspace(0.19, 0.33, 20)
    SOLVES = ("capacity_k2l2", "capacity_k3", "sweep")

    def __init__(self, lib, seed, workdir):
        self.lib = lib
        self.seed = seed
        self.stats = Counter()

    def setup(self):
        g = self.lib.games

        def fair(k, slots):
            return g.GameProblem(
                coalition_size=k,
                x_size=2,
                y_size=2,
                channel_class=g.FairMarking(),
                num_timeshare=slots,
            )

        self.k2l2, self.k3, self.k2 = fair(2, 2), fair(3, 1), fair(2, 1)
        # one inner solve each pays the solvers' lazy costs
        for problem in (self.k2l2, self.k3, self.k2):
            self.lib.capacity.inner_min_channel(problem.uniform_law(), problem)

    def phases(self):
        # a pass takes 20 s to 30 s today, so a run makes one pass per 30 s
        # asked for, rather than stopping mid-pass
        return [
            Phase("solve", self.solve, 1.0, lambda s: 3, fixed=lambda s: 3 * max(1, s // 30))
        ]

    def solve(self, i):
        which = self.SOLVES[i % 3]
        if which == "sweep":
            vals = self.lib.exponents.exponent_sweep(
                self.RATES, self.k2.uniform_law(), self.k2, subset=(0, 1), restarts=6
            )
            pairs = list(zip(self.RATES, vals))
            return (
                all(b <= a + 1e-9 for a, b in zip(vals[:-1], vals[1:]))
                and all(v == 0.0 for r, v in pairs if r > 0.2501)
                and all(math.isfinite(v) and v > 0.0 for r, v in pairs if 0.21 < r < 0.25)
            )
        problem, restarts, grid, anchor = {
            "capacity_k2l2": (self.k2l2, 6, 8, 0.25),
            "capacity_k3": (self.k3, 2, 10, 1.0 / 12.0),
        }[which]
        sol = self.lib.capacity.solve_capacity(
            problem, restarts=restarts, grid_resolution=grid
        )
        diag = sol.diagnostics
        self.stats["games.capacity.value_evaluations"] += diag["value_evaluations"]
        # with two slots the one-slot game is solved first and must not beat it
        lower = diag.get("lower_l_value", -math.inf)
        return abs(sol.value - anchor) <= 1e-3 and lower <= sol.value + 1e-6

    def checks(self):
        return []

    def op_samples(self, times):
        solves = times["solve"]
        return [sum(solves[j : j + 3]) for j in range(0, len(solves), 3)]

    def report(self, times):
        solves = times["solve"]
        passes = len(solves) // 3
        return [
            (f"{name}_s", statistics.median(solves[j::3]), "s", f"n={passes}")
            for j, name in enumerate(self.SOLVES)
        ]


WORKLOADS = {w.name: w for w in (Simulate, Trace, Games)}
