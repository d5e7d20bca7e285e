"""Universal decoders scored by empirical information.

The decoders and the audits of their outcomes score with one quantity,
conditional empirical information oI(x_A; y x_B | s, w) against the side
data (host sequence and effective time-sharing sequence), computed by one
private scorer built once per (codebook, pirated copy).  The scorer takes a
block of candidates at once and counts all their joint types with one
bincount; every path below streams its candidates through it in blocks,
so memory stays bounded whatever the number of candidates:

* threshold: accuse every user whose pairwise score beats rate + delta;
  rows are regenerated from the key a block at a time, so memory stays
  O(block n) for any M;
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
    index_set,
    int_at_least,
    real_at_least,
    symbols,
)
from .types_core import _count_entropy, _xlogx_table
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

# code cells per scoring block: a block's combined codes and count tables
# stay well under 1 MB whatever the blocklength and the table width
_BLOCK_CELLS = 1 << 15


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
        if not real_at_least(self.delta, 0):
            raise ConfigError(f"delta must be finite and nonnegative, got {self.delta!r}")
        if self.rate is not None and not real_at_least(self.rate, 0):
            raise ConfigError(f"rate must be finite and nonnegative, got {self.rate!r}")
        if not int_at_least(self.k_max, 0):
            raise ConfigError(f"k_max must be a nonnegative integer, got {self.k_max!r}")
        if not int_at_least(self.budget, 1):
            raise ConfigError(f"budget must be a positive integer, got {self.budget!r}")
        if not real_at_least(self.tie_tol, 0):
            raise ConfigError(f"tie_tol must be finite and nonnegative, got {self.tie_tol!r}")
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
    conditioned on the side data (host s, effective time-share w), for a
    block of candidates at a time.

    y is relabelled to the symbols that occur in it: an injective relabelling
    leaves every score unchanged and sizes the count tables by the data, not
    by the largest symbol.  Rows are passed in by the caller, so the same
    scorer serves the cached row matrix and rows streamed from the key.
    """

    def __init__(self, cb: Codebook, y: np.ndarray) -> None:
        p = cb.params
        y = symbols(y, "pirated copy y")
        if y.shape != (p.n,):
            raise ConfigError("pirated sequence length must match the blocklength")
        y = np.unique(y, return_inverse=True)[1]
        side = cb.host * p.w_size + cb.effective_w()
        self.n, self.x_size, self.sides = p.n, p.x_size, p.s_size * p.w_size
        # combined (y, s, w) code; every code built on it is int32
        self.cells = (y * self.sides + side).astype(np.int32)
        self.n_cells = int(self.cells.max()) + 1
        self.xlogx = _xlogx_table(p.n)
        comp = cb.cell_compositions()
        self.h_side = _count_entropy(comp.sum(axis=2), p.n)
        # constant composition: every row has the same H(x | s, w)
        self.h_x = _count_entropy(comp, p.n) - self.h_side
        self.h_y = float(self._h(self.cells)[0])

    def y_counts(self) -> np.ndarray:
        """(S W, Y) counts of each relabelled y symbol in each (s, w) cell."""
        y_size = -(-self.n_cells // self.sides)
        counts = np.bincount(self.cells, minlength=y_size * self.sides)
        return counts.reshape(y_size, self.sides).T

    def block(self, k: int) -> int:
        """Candidates per block when each candidate codes k rows."""
        return max(1, _BLOCK_CELLS // max(self.n, self.n_cells * self.x_size**k))

    def _h(self, code: np.ndarray) -> np.ndarray:
        """H(code | s, w) of each row of a (b, n) block of codes that refine
        the (s, w) cell (one code of shape (n,) is a block of one), from one
        bincount over the block.

        Each row's entropy sums its own table up to its largest code, as a
        bincount of that row alone would, so a score does not depend on the
        block it is scored in."""
        code = np.atleast_2d(code)
        lens = code.max(axis=1).astype(np.intp) + 1
        width = int(lens.max())
        offsets = np.arange(0, len(code) * width, width, dtype=code.dtype)
        counts = np.bincount((code + offsets[:, None]).ravel(), minlength=offsets.size * width)
        counts = counts.reshape(-1, width)
        h = np.empty(len(code))
        for size in np.unique(lens).tolist():
            sel = lens == size
            h[sel] = _count_entropy(counts[sel, :size], self.n, -1, self.xlogx)
        return h - self.h_side

    def info(self, xa: np.ndarray, xb: np.ndarray | None = None) -> np.ndarray:
        """oI(x_A; y x_B | s, w) = |A| H(x|s,w) + H(x_B y|s,w) - H(x_A x_B y|s,w)
        for each candidate of a block.

        ``xa`` is (b, |A|, n): candidate i's rows of A.  ``xb`` holds the
        rows of B, either (b, |B|, n) per candidate or (|B|, n) shared by
        the block; None or no rows is the empty B.  More candidates than
        block(|A| + |B|) are scored a block at a time, so the count tables
        stay bounded and every code, block offset included, fits int32.
        """
        k_a = xa.shape[1]
        k_b = 0 if xb is None else xb.shape[-2]
        if self.n_cells * self.x_size ** (k_a + k_b) > 2**31:
            # one candidate's count table alone would take 16 GB
            raise BudgetExceededError(
                f"a count table over {k_a + k_b} rows passes 2**31 cells"
            )
        size = self.block(k_a + k_b)
        if len(xa) > size:
            each = xb is not None and xb.ndim == 3
            return np.concatenate([
                self.info(xa[lo : lo + size], xb[lo : lo + size] if each else xb)
                for lo in range(0, len(xa), size)
            ])
        code = self.cells
        for j in range(k_b):
            code = code * self.x_size + xb[..., j, :]
        h_b = self._h(code) if k_b else self.h_y
        for j in range(k_a):
            code = code * self.x_size + xa[:, j]
        return np.maximum(k_a * self.h_x + h_b - self._h(code), 0.0)


def _blocks(cands, k: int, size: int):
    """Consecutive (<= size, k) index arrays of the size-k candidates
    streamed from an iterable of tuples, in its order."""
    flat = itertools.chain.from_iterable(cands)
    while (block := np.fromiter(itertools.islice(flat, size * k), np.intp)).size:
        yield block.reshape(-1, k)


def _row_blocks(cb: Codebook, size: int, stream: bool, known=None):
    """(users, rows) over every user in blocks of ``size``: regenerated from
    the key when ``stream``, so memory stays O(size n), except the rows in
    ``known`` (user -> row), else slices of the cached row matrix."""
    m = cb.params.num_users
    for lo in range(0, m, size):
        users = range(lo, min(lo + size, m))
        yield users, cb.row_block(users, known) if stream else cb.rows()[lo : users.stop]


# ---------------------------------------------------------------------------
# threshold decoder


def threshold_decode(cb: Codebook, y: np.ndarray, cfg: DecodeConfig) -> DecodeOutcome:
    """Accuse every user whose score I(x_m; y | s, w) exceeds rate + delta.

    False accusations are controlled by the penalty alone: an innocent row
    is independent of y given the side data, so its score concentrates near
    zero and beats rate + delta only with exponentially small probability.
    Rows are regenerated a block at a time, so memory stays O(block n) for
    any M.
    """
    rate = cfg.rate_for(cb)
    bar = rate + cfg.delta
    scorer = _Scorer(cb, y)
    scores = {}
    for users, x in _row_blocks(cb, scorer.block(1), stream=True):
        scores.update(zip(users, scorer.info(x[:, None]).tolist()))
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
    coalition = index_set(coalition, cb.params.num_users, "coalition")
    if not coalition:
        return 0.0
    info = float(_Scorer(cb, y).info(cb.row_block(coalition)[None])[0])
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

    Candidates are scored a block at a time and the rule is replayed over
    each block's scores in candidate order, skipping the scores that sit
    below every bar the state could have while the block is replayed.
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
    tol = cfg.tie_tol

    def scored(cands, k):
        """(block, penalized scores) over size-k candidates, in order."""
        for block in _blocks(cands, k, scorer.block(k)):
            yield block, scorer.info(rows[block]) - k * penalty

    if cfg.search == "exhaustive":
        best = ((), 0, 0.0)  # coalition, k, score
        evaluated = 1
        size_best: dict[int, tuple[tuple[int, ...], float]] = {0: ((), 0.0)}
        for k in range(1, k_hi + 1):
            for block, scores in scored(itertools.combinations(range(m), k), k):
                evaluated += len(block)
                # the size bar only rises; the overall bar can fall by less
                # than tol once, when the first size-k candidate ties it
                low = -math.inf
                if k in size_best:
                    low = min(best[2] - tol, size_best[k][1] + tol)
                for i in np.flatnonzero(scores > low).tolist():
                    cand, score = tuple(block[i].tolist()), float(scores[i])
                    if k not in size_best or score > size_best[k][1] + tol:
                        size_best[k] = (cand, score)
                    if score > best[2] + tol:
                        best = (cand, k, score)
                    elif score > best[2] - tol and k > best[1]:
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
        adds = (tuple(sorted(current + (u,))) for u in range(m) if u not in current)
        for block, scores in scored(adds, len(current) + 1):
            evaluated += len(block)
            low = -math.inf if best_add is None else best_add[1] + tol
            for i in np.flatnonzero(scores > low).tolist():
                score = float(scores[i])
                if best_add is None or score > best_add[1] + tol:
                    best_add = (tuple(block[i].tolist()), score)
        if best_add is None or best_add[1] <= current_score + tol:
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
    users, regenerating rows a block at a time, so memory stays O(block n)
    for any M as in ``threshold_decode``; a joint outcome reads the cached
    row matrix.
    """
    threshold = outcome.mode == "threshold"
    if not threshold:
        _recheck_joint(cb, y, outcome)
    acc = outcome.accused
    acc_rows = cb.row_block(acc) if threshold else cb.rows()[list(acc)]
    rate, bar = outcome.rate, outcome.rate + outcome.delta
    scorer = _Scorer(cb, y)
    info = np.empty(cb.params.num_users)
    flagged = []
    # the accused rows are generated once, above, and reused in the stream
    known = dict(zip(acc, acc_rows))
    for users, x in _row_blocks(cb, scorer.block(len(acc) + 1), threshold, known):
        info[users.start : users.stop] = scorer.info(x[:, None], acc_rows)
        if threshold:
            single = scorer.info(x[:, None]).tolist()
            flagged += [u for u, score in zip(users, single) if score > bar]
    if threshold and tuple(flagged) != acc:
        raise StaleOutcomeError("threshold outcome does not match its inputs")
    if acc:
        # an accused user is scored against the rest of the coalition
        rest = [[j for j in range(len(acc)) if j != i] for i in range(len(acc))]
        rest_rows = acc_rows[np.array(rest, dtype=np.intp)]
        info[list(acc)] = scorer.info(acc_rows[:, None], rest_rows)
    per_user = {
        m: {"accused": m in acc, "index": idx}
        for m, idx in enumerate((info - rate).tolist())
    }
    coalition_index = float(scorer.info(acc_rows[None])[0]) - len(acc) * rate
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
        subs = list(itertools.combinations(acc, a))
        rests = np.array([[u for u in acc if u not in sub] for sub in subs], dtype=np.intp)
        lhs = scorer.info(rows[subs], rows[rests])
        inside += [(sub, v, a * bar, v > a * bar - tol) for sub, v in zip(subs, lhs.tolist())]
    outside = []
    others = [u for u in range(cb.params.num_users) if u not in acc]
    room = min(k_cap - len(acc), len(others))
    if _candidate_count(len(others), room) > _BUDGET:
        raise BudgetExceededError("too many outside subsets to certify")
    for a in range(1, room + 1):
        subs = itertools.combinations(others, a)
        for block in _blocks(subs, a, scorer.block(a + len(acc))):
            lhs = scorer.info(rows[block], rows[list(acc)]).tolist()
            outside += [
                (tuple(sub), v, a * bar, v <= a * bar + tol)
                for sub, v in zip(block.tolist(), lhs)
            ]
    ok = all(r[3] for r in inside) and all(r[3] for r in outside)
    return SignificanceReport(ok=ok, inside=inside, outside=outside)
