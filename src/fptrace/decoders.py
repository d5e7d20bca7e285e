"""Universal decoders scored by empirical information.

The decoders and the audits of their outcomes score with one quantity,
conditional empirical information oI(x_A; y x_B | s, w) against the side
data (host sequence and effective time-sharing sequence), computed by one
private scorer built once per (codebook, pirated copy):

* threshold: accuse every user whose pairwise score beats rate + delta;
  rows are regenerated from the key one at a time, so memory stays O(n);
* joint: search coalitions and maximize the penalized multivariate score
  oI(x_A; y | s, w) - |A| (rate + delta), preferring larger coalitions on
  ties and lexicographically smaller ones within a size.  It and the
  audits read the codebook's cached row matrix: one generation per row.

Neither decoder needs the attack channel; the penalty term is what makes
the scores comparable across coalition sizes.  The guilt indices and the
significance checks re-read a decode outcome and certify which inequalities
the returned coalition actually satisfies; the guilt audit of a threshold
outcome streams the rows like the threshold decoder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codec import Codebook
from .errors import (
    BudgetExceededError,
    ConfigError,
    InapplicableCheckError,
    StaleOutcomeError,
)
from .types_core import _count_entropy
# not used here; perfbench's traced run wraps these names on this module
from .types_core import count_table, entropy, multi_info  # noqa: F401

__all__ = [
    "DecodeConfig",
    "DecodeOutcome",
    "GuiltReport",
    "SignificanceReport",
    "threshold_decode",
    "mpmi_score",
    "mpmi_decode",
    "guilt_indices",
    "verify_significance",
]

# default cap on candidate coalitions, shared by the search and the audit
_BUDGET = 2_000_000


@dataclass(frozen=True)
class DecodeConfig:
    """Decoder knobs.

    ``rate`` defaults to the codebook rate log2(M)/n.  ``budget`` caps the
    number of candidate coalitions an exhaustive search may enumerate.
    ``tie_tol`` is the score gap under which two candidates count as tied.
    """

    delta: float
    k_max: int = 3
    search: str = "exhaustive"
    rate: float | None = None
    budget: int = _BUDGET
    tie_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.delta < 0:
            raise ConfigError("delta must be nonnegative")
        if self.k_max < 0:
            raise ConfigError("k_max must be nonnegative")
        if self.search not in ("exhaustive", "greedy"):
            raise ConfigError(f"unknown search mode {self.search!r}")

    def rate_for(self, cb: Codebook) -> float:
        return self.rate if self.rate is not None else cb.params.rate


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of a decode: the accused set plus enough to audit it."""

    accused: tuple[int, ...]
    best_k: int
    score: float
    scores: dict
    exact: bool
    mode: str
    delta: float
    rate: float
    evaluated: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "accused", tuple(sorted(self.accused)))
        if self.best_k != len(self.accused):
            raise ConfigError("best_k must equal the accused-set size")


# ---------------------------------------------------------------------------
# the one scorer


class _Scorer:
    """Empirical information of codebook rows against one pirated copy y,
    conditioned on the side data (host s, effective time-share w).

    y is relabelled to the symbols that occur in it: an injective relabelling
    leaves every score unchanged and sizes the count tables by the data, not
    by the largest symbol.  Rows are passed in by the caller.
    """

    def __init__(self, cb: Codebook, y: np.ndarray) -> None:
        p = cb.params
        y = np.asarray(y, dtype=np.int64)
        if y.shape != (p.n,):
            raise ConfigError("pirated sequence length must match the blocklength")
        if y.min() < 0:
            raise ConfigError("pirated sequence has negative symbols")
        y = np.unique(y, return_inverse=True)[1]
        side = cb.host * p.w_size + cb.effective_w()
        self.n, self.x_size = p.n, p.x_size
        self.cells = y * (p.s_size * p.w_size) + side  # combined (y, s, w) code
        comp = cb.cell_compositions()
        self.h_side = _count_entropy(comp.sum(axis=2), p.n)
        # constant composition: every row has the same H(x | s, w)
        self.h_x = _count_entropy(comp, p.n) - self.h_side
        self.h_y = self._h(self.cells)

    def _h(self, code: np.ndarray) -> float:
        """H(code | s, w) of a code that refines the (s, w) cell."""
        return _count_entropy(np.bincount(code), self.n) - self.h_side

    def info(self, rows_a, rows_b=()) -> float:
        """oI(x_A; y x_B | s, w) = |A| H(x|s,w) + H(x_B y|s,w) - H(x_A x_B y|s,w)."""
        code = self.cells
        for x in rows_b:
            code = code * self.x_size + x
        h_b = self._h(code) if len(rows_b) else self.h_y
        for x in rows_a:
            code = code * self.x_size + x
        return max(len(rows_a) * self.h_x + h_b - self._h(code), 0.0)


# ---------------------------------------------------------------------------
# threshold decoder


def threshold_decode(cb: Codebook, y: np.ndarray, cfg: DecodeConfig) -> DecodeOutcome:
    """Accuse every user whose score I(x_m; y | s, w) exceeds rate + delta.

    False accusations are controlled by the penalty alone: an innocent row
    is independent of y given the side data, so its score concentrates near
    zero and beats rate + delta only with exponentially small probability.
    Rows are regenerated one at a time, so memory stays O(n) for any M.
    """
    rate = cfg.rate_for(cb)
    bar = rate + cfg.delta
    scorer = _Scorer(cb, y)
    scores = {m: scorer.info((cb.row(m),)) for m in range(cb.params.num_users)}
    accused = tuple(m for m, score in scores.items() if score > bar)
    return DecodeOutcome(
        accused=accused,
        best_k=len(accused),
        score=float(max(scores.values())) if scores else 0.0,
        scores=scores,
        exact=True,
        mode="threshold",
        delta=cfg.delta,
        rate=rate,
        evaluated=cb.params.num_users,
    )


# ---------------------------------------------------------------------------
# joint decoder


def mpmi_score(
    cb: Codebook, coalition: tuple[int, ...], y: np.ndarray, cfg: DecodeConfig
) -> float:
    """Penalized joint score oI(x_A; y | s, w) - |A| (rate + delta) of a
    candidate coalition.  The empty coalition scores 0."""
    coalition = tuple(sorted(set(coalition)))
    if not coalition:
        return 0.0
    if coalition[0] < 0 or coalition[-1] >= cb.params.num_users:
        raise ConfigError(f"coalition {coalition} has a user index out of range")
    info = _Scorer(cb, y).info(cb.rows()[list(coalition)])
    return info - len(coalition) * (cfg.rate_for(cb) + cfg.delta)


def _candidate_count(m: int, k_max: int) -> int:
    return sum(math.comb(m, k) for k in range(0, k_max + 1))


def mpmi_decode(cb: Codebook, y: np.ndarray, cfg: DecodeConfig) -> DecodeOutcome:
    """Maximize the penalized joint score over candidate coalitions.

    Exhaustive mode scans every coalition of size 0..k_max (subject to the
    budget cap) and resolves ties toward the larger coalition, then the
    lexicographically smallest set.  Greedy mode grows the coalition by the
    best single addition until no user improves the score; its outcome is
    marked inexact and is not eligible for the significance checks.
    """
    m = cb.params.num_users
    k_hi = min(cfg.k_max, m)
    total = _candidate_count(m, k_hi)
    if cfg.search == "exhaustive" and total > cfg.budget:
        raise BudgetExceededError(
            f"{total} candidate coalitions exceed the budget {cfg.budget}"
        )
    scorer, rows = _Scorer(cb, y), cb.rows()
    penalty = cfg.rate_for(cb) + cfg.delta

    def penalized(cand: tuple[int, ...]) -> float:
        return scorer.info(rows[list(cand)]) - len(cand) * penalty

    if cfg.search == "exhaustive":
        best = ((), 0, 0.0)  # coalition, k, score
        evaluated = 1
        size_best: dict[int, tuple[tuple[int, ...], float]] = {0: ((), 0.0)}
        for k in range(1, k_hi + 1):
            for cand in itertools.combinations(range(m), k):
                score = penalized(cand)
                evaluated += 1
                if k not in size_best or score > size_best[k][1] + cfg.tie_tol:
                    size_best[k] = (cand, score)
                if score > best[2] + cfg.tie_tol:
                    best = (cand, k, score)
                elif score > best[2] - cfg.tie_tol and k > best[1]:
                    # tie across sizes: keep the larger coalition
                    best = (cand, k, score)
                # ties within a size keep the first (lexicographically
                # smallest) candidate, which is the iteration order
        per_size = {c: s for c, s in size_best.values()}
        return DecodeOutcome(
            accused=best[0],
            best_k=best[1],
            score=best[2],
            scores=per_size,
            exact=True,
            mode="mpmi",
            delta=cfg.delta,
            rate=cfg.rate_for(cb),
            evaluated=evaluated,
        )

    # greedy forward selection
    current: tuple[int, ...] = ()
    current_score = 0.0
    trail: dict[tuple[int, ...], float] = {(): 0.0}
    evaluated = 1
    while len(current) < k_hi:
        best_add = None
        for u in range(m):
            if u in current:
                continue
            cand = tuple(sorted(current + (u,)))
            score = penalized(cand)
            evaluated += 1
            if best_add is None or score > best_add[1] + cfg.tie_tol:
                best_add = (cand, score)
        if best_add is None or best_add[1] <= current_score + cfg.tie_tol:
            break
        current, current_score = best_add
        trail[current] = current_score
    return DecodeOutcome(
        accused=current,
        best_k=len(current),
        score=current_score,
        scores=trail,
        exact=False,
        mode="mpmi-greedy",
        delta=cfg.delta,
        rate=cfg.rate_for(cb),
        evaluated=evaluated,
    )


# ---------------------------------------------------------------------------
# post-decode audits


@dataclass(frozen=True)
class GuiltReport:
    """Per-user and coalition-level excess scores over the rate."""

    coalition_index: float
    per_user: dict


def _recheck_joint(cb: Codebook, y: np.ndarray, outcome: DecodeOutcome) -> None:
    """Re-score a joint outcome's coalition on (cb, y); a mismatch raises."""
    cfg = DecodeConfig(delta=outcome.delta, rate=outcome.rate)
    got = mpmi_score(cb, outcome.accused, y, cfg)
    if abs(got - outcome.score) > 1e-9:
        raise StaleOutcomeError(
            f"recorded score {outcome.score!r} != recomputed {got!r}"
        )


def guilt_indices(cb: Codebook, y: np.ndarray, outcome: DecodeOutcome) -> GuiltReport:
    """Excess empirical information of the accused set and every user.

    For the coalition: oI(x_acc; y | s, w) - |acc| * rate.  For an accused
    user m: oI(x_m; y x_rest | s, w) - rate, rest = other accused.  For an
    innocent-looking user: I(x_m; y x_acc | s, w) - rate.  Positive indices
    say the decoder's evidence exceeds what the code rate hands out for
    free; the outcome is first recomputed and a mismatch raises.

    A threshold outcome is rechecked in the same pass that scores the
    users, regenerating each row once, so memory stays O(n) for any M as
    in ``threshold_decode``; a joint outcome reads the cached row matrix.
    """
    threshold = outcome.mode == "threshold"
    if threshold:
        row_of = cb.row
    else:
        _recheck_joint(cb, y, outcome)
        row_of = cb.rows().__getitem__
    acc = outcome.accused
    acc_rows = {u: row_of(u) for u in acc}
    rate, bar = outcome.rate, outcome.rate + outcome.delta
    scorer = _Scorer(cb, y)
    per_user, flagged = {}, []
    for m in range(cb.params.num_users):
        row = acc_rows[m] if m in acc_rows else row_of(m)
        rest = [acc_rows[u] for u in acc if u != m]
        idx = scorer.info((row,), rest) - rate
        per_user[m] = {"accused": m in acc_rows, "index": idx}
        if threshold and scorer.info((row,)) > bar:
            flagged.append(m)
    if threshold and tuple(flagged) != acc:
        raise StaleOutcomeError("threshold outcome does not match its inputs")
    coalition_index = scorer.info([acc_rows[u] for u in acc]) - len(acc) * rate
    return GuiltReport(coalition_index=coalition_index, per_user=per_user)


@dataclass(frozen=True)
class SignificanceReport:
    """Outcome of the subset-wise optimality inequalities."""

    ok: bool
    inside: list  # (subset, lhs, bound, ok) over nonempty subsets of accused
    outside: list  # (subset, lhs, bound, ok) over disjoint candidate additions


def verify_significance(
    cb: Codebook,
    y: np.ndarray,
    outcome: DecodeOutcome,
    tol: float = 1e-9,
) -> SignificanceReport:
    """Certify the two families of inequalities an exact optimum satisfies.

    Every nonempty subset A of the accused coalition must carry enough
    joint evidence: oI(x_A; y x_rest | s, w) >= |A| (rate + delta), up to
    the tie tolerance.  Every disjoint subset A small enough to have been
    searched must not: oI(x_A; y x_acc | s, w) <= |A| (rate + delta).
    Requires an exhaustive outcome whose size was not clipped at k_max;
    anything else raises InapplicableCheckError.
    """
    if not outcome.exact or not outcome.mode.startswith("mpmi"):
        raise InapplicableCheckError("significance needs an exhaustive joint decode")
    _recheck_joint(cb, y, outcome)
    # the per-size score trail records how far the search actually looked
    sizes_seen = [len(c) for c in outcome.scores] or [0]
    k_cap = max(max(sizes_seen), outcome.best_k)
    if outcome.best_k >= k_cap and outcome.best_k > 0:
        raise InapplicableCheckError(
            "optimum size reached the search cap; the unrestricted optimum "
            "may be larger, so the outside inequalities are not certifiable"
        )
    acc = outcome.accused
    bar = outcome.rate + outcome.delta
    scorer, rows = _Scorer(cb, y), cb.rows()
    inside = []
    for a in range(1, len(acc) + 1):
        for sub in itertools.combinations(acc, a):
            rest = [u for u in acc if u not in sub]
            lhs = scorer.info(rows[list(sub)], rows[rest])
            bound = a * bar
            inside.append((sub, lhs, bound, lhs > bound - tol))
    outside = []
    others = [u for u in range(cb.params.num_users) if u not in acc]
    room = min(k_cap - len(acc), len(others))
    if _candidate_count(len(others), room) > _BUDGET:
        raise BudgetExceededError("too many outside subsets to certify")
    for a in range(1, room + 1):
        for sub in itertools.combinations(others, a):
            lhs = scorer.info(rows[list(sub)], rows[list(acc)])
            bound = a * bar
            outside.append((sub, lhs, bound, lhs <= bound + tol))
    ok = all(r[3] for r in inside) and all(r[3] for r in outside)
    return SignificanceReport(ok=ok, inside=inside, outside=outside)
