"""Entropy comparisons for exchangeable user blocks.

For a joint law of (X_1..X_K, Z) that is invariant under permuting the
X coordinates, growing the averaged block can only help conditional
entropy per user when the rest is observed, and only hurt when it is not:

    H(X_A | Z, X_rest) / |A|  <=  H(X_B | Z, X_rest) / |B|
    H(X_A | Z) / |A|          >=  H(X_B | Z) / |B|        for A inside B.

Both collapse to equalities when the users are conditionally independent
given Z.  The first pair yields the per-user information comparison used
to argue that the full coalition is the weakest watched subset, and a
single-letter corollary bounding I(X_1; Z) by the per-user entropy drop.
"""

from dataclasses import dataclass

from ..collusion import _exchangeable
from ..errors import ConfigError, float_array, index_set, pmf_rows
from ..types_core import entropy_pmf

__all__ = ["FairInequalityReport", "check_fair_inequalities"]

_TIGHT = 1e-9


@dataclass(frozen=True)
class FairInequalityReport:
    """Signed slacks (nonnegative when the comparison holds) and tightness
    flags for one (A, B) pair; ``holds`` applies a 1e-9 numerical grace."""

    subset_a: tuple
    subset_b: tuple
    block_entropy_slack: float
    plain_entropy_slack: float
    info_slack: float
    single_letter_slack: float

    @property
    def holds(self) -> bool:
        return (
            min(
                self.block_entropy_slack,
                self.plain_entropy_slack,
                self.info_slack,
                self.single_letter_slack,
            )
            >= -_TIGHT
        )

    @property
    def tight(self) -> dict:
        return {
            "block_entropy": abs(self.block_entropy_slack) < _TIGHT,
            "plain_entropy": abs(self.plain_entropy_slack) < _TIGHT,
        }


def check_fair_inequalities(joint, subset_a, subset_b) -> FairInequalityReport:
    """Evaluate the block comparisons on an explicit (X_1..X_K, Z) pmf.

    ``joint`` carries the K user axes first and Z last; ``subset_a`` must be
    contained in ``subset_b``.  Z may be a flattened compound observation.
    """
    p = float_array(joint, "joint")
    if p.ndim < 2:
        raise ConfigError("joint needs at least one user axis and a Z axis")
    k = p.ndim - 1
    p = pmf_rows(p.ravel(), "joint").reshape(p.shape)
    a = index_set(subset_a, k, "subset_a")
    b = index_set(subset_b, k, "subset_b")
    if not a or not set(a) <= set(b):
        raise ConfigError("need nonempty user subsets with A inside B")
    if not _exchangeable(p, k, 1e-10):
        raise ConfigError("joint is not invariant under user permutations")

    z = (k,)

    def h(axes, cond=()):
        return entropy_pmf(p, tuple(axes), tuple(cond))

    def rest(sub):
        return tuple(i for i in range(k) if i not in sub)

    per_a_given = h(a, z + rest(a)) / len(a)
    per_b_given = h(b, z + rest(b)) / len(b)
    per_a_plain = h(a, z) / len(a)
    per_b_plain = h(b, z) / len(b)

    info_a = h(a) / len(a) - per_a_given
    info_b = h(b) / len(b) - per_b_given

    single = h((0,)) - h(tuple(range(k)), z) / k - (h((0,)) - h((0,), z))

    return FairInequalityReport(
        subset_a=a,
        subset_b=b,
        block_entropy_slack=per_b_given - per_a_given,
        plain_entropy_slack=per_a_plain - per_b_plain,
        info_slack=info_a - info_b,
        single_letter_slack=single,
    )
